"""Free graded Lie algebras realized inside the tensor algebra.

Elements of the free graded Lie algebra on a finite generator set live in
T(V) as linear combinations of words, with the graded commutator
[u, v] = u (x) v - (-1)^{|u||v|} v (x) u.  The Koszul signs are localized
here; everything downstream (differentials, towers, functors) works with
plain word arithmetic.

Word-length components of honest Lie elements are certified by the
left-normed (Dynkin) bracketing map, which acts as n * id on length-n
components in characteristic zero.  The canonical basis of a (length,
degree) piece is the reduced echelon form of the standard bracketings of
its Lyndon words (Reutenauer, Free Lie Algebras, 1993, Thm 5.1), together
with the squares of odd-degree Lyndon bracketings (Bokut-Kang-Lee-
Malcolmson, J. Algebra 217, 1999).  Each piece is held once, in one record
(`LiePiece`): its Lyndon words and their standard cuts, read off the
pieces of their standard factors, so no piece enumerates its words, and
its pivot words.  The integer word terms of its bracketings, each with
coefficient 1 at its pivot word, and the columns of their unitriangular
matrix T at the pivot words are built on first demand.  The reduced
echelon elements are the bracketings times S = T^-1, which is applied by
forward substitution over T (`solve_unitriangular`) and never stored.
Dimensions are cross-checked against the necklace-style counting formula
obtained by inverting the tensor-algebra Poincare series.

Words are tuples of generator indices in a `TensorElt` and str inside the
integer layer (the pieces, the evaluation of bracket expressions, and the
slices and matrices of `dgl`), one character chr(i) per index: str order is tuple order, and a str caches its
hash.  `encode_word` and `decode_word` convert at the edge.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from heapq import heappop, heappush
from math import lcm
from typing import Iterable, Optional

from . import exprs
from .linalg import InvariantError, _add_term, _combine_columns

Word = tuple[int, ...]


class NameError_(ValueError):
    pass


class GeneratorSet:
    """Ordered generators with nonnegative degrees; parity = degree mod 2."""

    def __init__(self, names: Iterable[str], degrees: Iterable[int]):
        self.names = tuple(names)
        self.degrees = tuple(int(d) for d in degrees)
        if len(self.names) != len(self.degrees):
            raise ValueError("names and degrees differ in length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("generator names must be unique")
        if any(d < 0 for d in self.degrees):
            raise ValueError("generator degrees must be >= 0")
        self.index = {n: i for i, n in enumerate(self.names)}
        # every free-Lie cache is keyed by the generator set
        self._hash = hash((self.names, self.degrees))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, int]]) -> "GeneratorSet":
        pairs = list(pairs)
        return cls([n for n, _ in pairs], [d for _, d in pairs])

    def degree(self, i: int) -> int:
        return self.degrees[i]

    def word_degree(self, word: Word) -> int:
        return sum(self.degrees[i] for i in word)

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return (
            isinstance(other, GeneratorSet)
            and self.names == other.names
            and self.degrees == other.degrees
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        inner = ", ".join(f"{n}:{d}" for n, d in zip(self.names, self.degrees))
        return f"GeneratorSet({inner})"


class TensorElt:
    """Finite linear combination of tensor words over a generator set."""

    __slots__ = ("gens", "terms")

    def __init__(self, gens: GeneratorSet, terms: Optional[dict] = None):
        self.gens = gens
        self.terms: dict[Word, Fraction] = {}
        if terms:
            for w, c in terms.items():
                if type(c) is not Fraction:
                    c = Fraction(c)
                if c:
                    self.terms[tuple(w)] = c

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            _add_term(out, w, c)
        return TensorElt(self.gens, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scale):
        scale = Fraction(scale)
        if not scale:
            return TensorElt(self.gens)
        return TensorElt(self.gens, {w: scale * c for w, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, TensorElt) and self.gens == other.gens and self.terms == other.terms

    def concat(self, other) -> "TensorElt":
        """Tensor-algebra product (word concatenation)."""
        self._check(other)
        out: dict[Word, Fraction] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                _add_term(out, w1 + w2, c1 * c2)
        return TensorElt(self.gens, out)

    def _check(self, other):
        if not isinstance(other, TensorElt) or other.gens != self.gens:
            raise ValueError("elements over different generator sets")

    def lengths(self) -> set[int]:
        return {len(w) for w in self.terms}

    def degrees(self) -> set[int]:
        return {self.gens.word_degree(w) for w in self.terms}

    def by_length(self) -> dict[int, "TensorElt"]:
        parts: dict[int, dict] = {}
        for w, c in self.terms.items():
            parts.setdefault(len(w), {})[w] = c
        return {n: TensorElt(self.gens, t) for n, t in sorted(parts.items())}

    def length_component(self, n: int) -> "TensorElt":
        return TensorElt(self.gens, {w: c for w, c in self.terms.items() if len(w) == n})

    def degree_component(self, d: int) -> "TensorElt":
        return TensorElt(
            self.gens, {w: c for w, c in self.terms.items() if self.gens.word_degree(w) == d}
        )

    def truncate_length(self, n_max: int) -> "TensorElt":
        """Drop words of length >= n_max (the image in L / L^{n_max})."""
        return TensorElt(self.gens, {w: c for w, c in self.terms.items() if len(w) < n_max})

    def min_length(self) -> Optional[int]:
        return min(self.lengths()) if self.terms else None

    def max_length(self) -> Optional[int]:
        return max(self.lengths()) if self.terms else None

    def homogeneous_degree(self) -> Optional[int]:
        ds = self.degrees()
        if len(ds) > 1:
            raise ValueError(f"element is not degree-homogeneous: degrees {sorted(ds)}")
        return ds.pop() if ds else None

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            c = self.terms[w]
            word = ".".join(self.gens.names[i] for i in w)
            mag = abs(c)
            body = word if mag == 1 else f"{mag}*{word}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"<{self.pretty()}>"


def encode_word(word: Iterable[int]) -> str:
    """The str word of the integer layer: one character chr(i) per index."""
    return "".join(map(chr, word))


def decode_word(word: str) -> Word:
    """The tuple word of a `TensorElt`, from a str word of the integer layer."""
    return tuple(map(ord, word))


def _elt(gens: GeneratorSet, terms: dict[str, int], den: int = 1) -> TensorElt:
    """terms / den as a TensorElt, with tuple words."""
    return TensorElt(gens, {decode_word(w): Fraction(c, den) for w, c in terms.items()})


def zero(gens: GeneratorSet) -> TensorElt:
    return TensorElt(gens)


def gen_elt(gens: GeneratorSet, name: str) -> TensorElt:
    if name not in gens.index:
        raise NameError_(f"unknown generator {name!r}")
    return TensorElt(gens, {(gens.index[name],): Fraction(1)})


def word_elt(gens: GeneratorSet, word: Word, coeff=1) -> TensorElt:
    return TensorElt(gens, {tuple(word): Fraction(coeff)})


def graded_bracket(u: TensorElt, v: TensorElt) -> TensorElt:
    """[u, v] = uv - (-1)^{|u||v|} vu, bilinear over homogeneous words."""
    u._check(v)
    gens = u.gens
    out: dict[Word, Fraction] = {}
    for w1, c1 in u.terms.items():
        d1 = gens.word_degree(w1)
        for w2, c2 in v.terms.items():
            c = c1 * c2
            sign = -1 if (d1 * gens.word_degree(w2)) % 2 else 1
            _add_term(out, w1 + w2, c)
            _add_term(out, w2 + w1, -sign * c)
    return TensorElt(gens, out)


def ad_power(y: TensorElt, z: TensorElt, q: int) -> TensorElt:
    """Iterated bracketing: ad^0 = z, ad^q = [y, ad^{q-1}]."""
    if q < 0:
        raise ValueError("q must be >= 0")
    out = z
    for _ in range(q):
        out = graded_bracket(y, out)
    return out


def _dynkin_word(gens: GeneratorSet, word: Word) -> TensorElt:
    out = word_elt(gens, word[-1:])
    for i in range(len(word) - 2, -1, -1):
        out = graded_bracket(word_elt(gens, word[i : i + 1]), out)
    return out


def dynkin(w: TensorElt) -> TensorElt:
    """Left-normed bracketing v1 (x) ... (x) vn -> [v1,[v2,...[v_{n-1},vn]...]].

    Requires length-homogeneous input; acts as n * id on honest length-n Lie
    elements (characteristic-zero certificate).
    """
    lengths = w.lengths()
    if len(lengths) > 1:
        raise ValueError(f"input mixes word lengths {sorted(lengths)}")
    out = zero(w.gens)
    for word, c in w.terms.items():
        out = out + c * _dynkin_word(w.gens, word)
    return out


def is_lie_element(u: TensorElt) -> bool:
    """Dynkin-Specht-Wever certificate, applied per word-length component."""
    for n, comp in u.by_length().items():
        if dynkin(comp) != Fraction(n) * comp:
            return False
    return True


def eval_bracket_expr(gens: GeneratorSet, terms: exprs.Terms) -> TensorElt:
    """Evaluate a parsed bracket expression to a tensor element.

    The expression is evaluated bottom-up in the integer layer, as one
    denominator over int terms with str words, and one `TensorElt` is built
    from the result (`_int_sum`)."""
    den, (even, odd) = _int_sum(gens, terms)
    return _elt(gens, {**even, **odd} if odd else even, den)


def _int_sum(gens: GeneratorSet, terms: exprs.Terms) -> tuple[int, tuple[dict[str, int], dict[str, int]]]:
    """(den, (even, odd)): den times the sum of `terms`, as int terms with
    str words split by the parity of the words' degrees, so that a bracket
    of inhomogeneous operands brackets each pair of parts with its sign
    (`_int_bracket`).  A bracket's denominator is the product of its
    operands', and a sum's is the lcm of its parts'."""
    parts = []
    for coeff, node in terms:
        halves: tuple[dict[str, int], dict[str, int]] = ({}, {})
        if isinstance(node, exprs.Gen):
            i = gens.index.get(node.name)
            if i is None:
                raise NameError_(f"unknown generator {node.name!r}")
            den = 1
            halves[gens.degrees[i] % 2][chr(i)] = 1
        elif isinstance(node, exprs.Bracket):
            (den_u, u), (den_v, v) = _int_sum(gens, node.left), _int_sum(gens, node.right)
            den = den_u * den_v
            for pu, pv in ((0, 0), (0, 1), (1, 0), (1, 1)):
                if u[pu] and v[pv]:
                    for w, c in _int_bracket(u[pu], pu, v[pv], pv).items():
                        _add_term(halves[pu ^ pv], w, c)
        else:
            raise NameError_(f"node {node!r} is not a Lie expression")
        parts.append((coeff.numerator, coeff.denominator * den, halves))
    if len(parts) == 1 and parts[0][0] == 1:
        return parts[0][1:]
    den = lcm(*(d for _, d, _ in parts))
    total: tuple[dict[str, int], dict[str, int]] = ({}, {})
    for num, d, halves in parts:
        scale = num * (den // d)
        for out, half in zip(total, halves):
            for w, c in half.items():
                _add_term(out, w, scale * c)
    return den, total


def parse_element(gens: GeneratorSet, text: str) -> TensorElt:
    return eval_bracket_expr(gens, exprs.parse_lie(text, known=set(gens.names)))


# ---------------------------------------------------------------------------
# word enumeration and bases of the (length, degree) pieces

_word_cache: dict = {}
_basis_cache: dict = {}
_dim_cache: dict = {}


def words_of(gens: GeneratorSet, length: int, degree: int) -> list[Word]:
    """All tensor words of the given length and degree, in lexicographic order."""
    key = (gens, length, degree)
    if key in _word_cache:
        return _word_cache[key]
    out: list[Word] = []
    k = len(gens)
    if k:
        lo = min(gens.degrees)
        hi = max(gens.degrees)

        def rec(prefix, remaining, deg_left):
            if remaining == 0:
                if deg_left == 0:
                    out.append(tuple(prefix))
                return
            if deg_left < remaining * lo or deg_left > remaining * hi:
                return
            for i in range(k):
                d = gens.degrees[i]
                if d <= deg_left:
                    prefix.append(i)
                    rec(prefix, remaining - 1, deg_left - d)
                    prefix.pop()

        if length >= 1:
            rec([], length, degree)
    _word_cache[key] = out
    return out


def tensor_dim(gens: GeneratorSet, length: int, degree: int) -> int:
    return len(words_of(gens, length, degree))


def lie_dim(gens: GeneratorSet, length: int, degree: int) -> int:
    """dim of the (length, degree) piece of the free graded Lie algebra.

    Obtained by inverting the tensor-algebra Poincare series against the
    graded PBW product (even pieces polynomial, odd pieces exterior); the
    result must be a nonnegative integer, which is asserted.
    """
    key = (gens, length, degree)
    if key in _dim_cache:
        return _dim_cache[key]
    if length < 1:
        return 0
    # a(N, D) = N * [t^N z^D] log 1/(1 - f),  f = sum_g t z^{|g|}
    # log-side coefficients via sum_k f^k / k, computed once per call tree.
    a = _log_coefficient(gens, length, degree) * length
    total = a
    for j in range(2, length + 1):
        if length % j:
            continue
        if degree % j:
            continue
        n, d = length // j, degree // j
        sub = lie_dim(gens, n, d)
        if not sub:
            continue
        eps = 1 if d % 2 == 0 else (-1) ** (j + 1)
        total -= Fraction(sub * eps * length, j)
    val = Fraction(total, length)
    if val.denominator != 1 or val < 0:
        raise InvariantError(f"necklace inversion broke at {key}: {val}")
    _dim_cache[key] = int(val)
    return int(val)


def _log_coefficient(gens: GeneratorSet, length: int, degree: int) -> Fraction:
    """[t^length z^degree] sum_{k>=1} f^k / k for f = sum_g t z^{|g|}."""
    counts: dict[int, int] = {}
    for d in gens.degrees:
        counts[d] = counts.get(d, 0) + 1
    # f is homogeneous of t-degree 1, so only f^length contributes at t^length;
    # count the words of the given degree by dynamic programming
    cur = {0: 1}
    for _ in range(length):
        nxt: dict[int, int] = {}
        for dd, ways in cur.items():
            for gd, cnt in counts.items():
                if dd + gd <= degree:
                    nxt[dd + gd] = nxt.get(dd + gd, 0) + ways * cnt
        cur = nxt
    ways = cur.get(degree, 0)
    return Fraction(ways, length)


def _int_bracket(u: dict, du: int, v: dict, dv: int) -> dict[str, int]:
    """Graded commutator of integer word combinations of degrees du and dv."""
    sign = -1 if (du * dv) % 2 else 1
    out: dict[str, int] = {}
    for w1, c1 in u.items():
        for w2, c2 in v.items():
            c = c1 * c2
            w = w1 + w2
            out[w] = out.get(w, 0) + c
            w = w2 + w1
            out[w] = out.get(w, 0) - sign * c
    return {w: c for w, c in out.items() if c}


def _standard_cut(gens: GeneratorSet, word: str, degree: int) -> int:
    """The length of the standard left factor of a Lyndon word of the given
    degree (0 for a letter), read off its piece (`LiePiece`); a word that
    is no Lyndon word of that degree raises `InvariantError`."""
    piece = _basis_cache.get((gens, len(word), degree))
    if piece is None:
        piece = lie_piece(gens, len(word), degree)
    words = piece.words
    i = bisect_left(words, word)
    if i == len(words) or words[i] != word:
        raise InvariantError(f"{word!r} is not a Lyndon word of degree {degree}")
    return piece.cuts[i]


class LiePiece:
    """The basis of the (length, degree) piece, held as its bracketings.

    The bracketings are the standard bracketings P_w of the Lyndon words w
    of the piece, plus P_u P_u = [P_u, P_u] / 2 for each odd-degree Lyndon
    word u of half the length and degree, sorted by pivot word: w, resp.
    uu.  Words are str, one character chr(i) per generator index, so str
    order is the order of index tuples.  `words`, the sorted Lyndon words,
    `cuts`, the length of each word's standard left factor (0 for a
    letter), and `pivots`, the words merged with the odd squares, are built
    with the piece, and there are exactly lie_dim pivots, which is checked.

    A Lyndon word w of length >= 2 is uv for its standard factorization (v
    the longest proper Lyndon suffix), and P_w = [P_u, P_v].  Conversely,
    for Lyndon words u < v, uv is a Lyndon word with standard factorization
    (u, v) exactly when u is a letter or v <= the right factor of u
    (Lothaire, Combinatorics on Words, Prop. 5.1.3-5.1.4).  So the piece is
    read off the pieces of its factors (`lie_piece`): for each u, the v of
    the right length and degree in (u, right factor of u] form one slice of
    their sorted list.  No word is expanded.

    The word terms of the bracketings and T, their matrix of coefficients
    at the pivot words, are built on the first `expand`, from the word terms
    of the standard factors, whose pieces are expanded for it.  Each
    bracketing has coefficient 1 at its pivot and only larger words
    otherwise, so T is unitriangular, which is checked then.  The reduced
    echelon basis against the lexicographic word order is the bracketings
    times S = T^-1, applied by forward substitution over T
    (`solve_unitriangular`).
    """

    __slots__ = ("key", "words", "cuts", "pivots", "_expanded")

    def __init__(self, gens: GeneratorSet, length: int, degree: int):
        self.key = (gens, length, degree)
        found: list[tuple[str, int]] = []
        if length == 1:
            found = [(chr(i), 0) for i, d in enumerate(gens.degrees) if d == degree]
        elif gens.degrees:
            lo, hi = min(gens.degrees), max(gens.degrees)
            for k in range(1, length):
                rest = length - k
                for du in range(max(lo * k, degree - hi * rest), min(hi * k, degree - lo * rest) + 1):
                    left = lie_piece(gens, k, du)
                    if not left.words:
                        continue
                    right = lie_piece(gens, rest, degree - du).words
                    for u, cut in zip(left.words, left.cuts):
                        start = bisect_right(right, u)
                        stop = bisect_right(right, u[cut:]) if cut else len(right)
                        found += [(u + v, k) for v in right[start:stop]]
            found.sort()
        self.words = [w for w, _ in found]
        self.cuts = [cut for _, cut in found]
        self.pivots = self.words
        half = degree // 2
        if length % 2 == 0 and degree % 2 == 0 and half % 2:
            self.pivots = sorted(self.words + [u + u for u in lie_piece(gens, length // 2, half).words])
        expected = lie_dim(gens, length, degree)
        if len(self.pivots) != expected:
            raise InvariantError(f"basis rank {len(self.pivots)} != counted dim {expected} at {self.key}")
        self._expanded: Optional[tuple[list[dict[str, int]], list[dict[int, int]]]] = None

    def expand(self) -> tuple[list[dict[str, int]], list[dict[int, int]]]:
        """(terms, lower): terms[m], the word terms of bracketing m, whose
        pivot word is pivots[m], and the columns of T below its diagonal,
        lower[m] = {k: T[k, m]} over k > m for T[k, m] the coefficient of
        pivot word k in terms[m]; built on the first call, in pivot order."""
        if self._expanded is None:
            gens, length, degree = self.key
            letter_degree = {chr(i): d for i, d in enumerate(gens.degrees)}
            # (pivots, terms) of each factor's expanded piece, by (length, degree)
            factors: dict[tuple[int, int], tuple[list[str], list[dict[str, int]]]] = {}

            def factor_terms(word: str, deg: int) -> dict[str, int]:
                got = factors.get((len(word), deg))
                if got is None:
                    piece = lie_piece(gens, len(word), deg)
                    got = factors[len(word), deg] = (piece.pivots, piece.expand()[0])
                return got[1][bisect_left(got[0], word)]

            cut_of = dict(zip(self.words, self.cuts))
            half = degree // 2
            bracketings = []
            for m, w in enumerate(self.pivots):
                cut = cut_of.get(w)
                if cut is None:
                    # an odd square uu: every coefficient of [P_u, P_u] = 2 P_u P_u is even
                    pu = factor_terms(w[: length // 2], half)
                    terms = {z: c // 2 for z, c in _int_bracket(pu, half, pu, half).items()}
                elif cut:
                    u, v = w[:cut], w[cut:]
                    du = sum(map(letter_degree.__getitem__, u))
                    terms = _int_bracket(factor_terms(u, du), du, factor_terms(v, degree - du), degree - du)
                else:
                    terms = {w: 1}
                if terms.get(w) != 1 or min(terms) != w:
                    raise InvariantError(f"bracketing {m} at {self.key} does not lead with 1 "
                                         "at its own pivot word")
                bracketings.append(terms)
            index = {pivot: m for m, pivot in enumerate(self.pivots)}
            lower = [{index[w]: t for w, t in terms.items() if w in index and w != pivot}
                     for pivot, terms in zip(self.pivots, bracketings)]
            self._expanded = (bracketings, lower)
        return self._expanded


def lie_piece(gens: GeneratorSet, length: int, degree: int) -> LiePiece:
    """The (length, degree) piece (`LiePiece`), built once, with its word
    terms and T left for its first `expand`."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    key = (gens, length, degree)
    piece = _basis_cache.get(key)
    if piece is None:
        piece = _basis_cache[key] = LiePiece(gens, length, degree)
    return piece


def solve_unitriangular(lower: list[tuple[int, dict[int, int]]], x: dict[int, int]) -> dict[int, int]:
    """S * x for S = T^-1, T unitriangular over Z with column m held below its
    diagonal as lower[m] = (offset, {k: T[offset + k, m]}): forward
    substitution for T * c = x, popping the smallest open index m, whose c_m
    is final because T[k, m] != 0 only for k > m.  No entry of S is formed."""
    rest = dict(x)
    todo = sorted(rest)
    out: dict[int, int] = {}
    while todo:
        m = heappop(todo)
        c = rest.pop(m)
        if not c:
            continue
        out[m] = c
        offset, col = lower[m]
        for k, t in col.items():
            k += offset
            if k not in rest:
                heappush(todo, k)
            rest[k] = rest.get(k, 0) - c * t
    return out


def lie_basis(gens: GeneratorSet, length: int, degree: int) -> list[TensorElt]:
    """Canonical basis of the (length, degree) piece, echelonized against the
    lexicographic word order (pivot coefficient 1); built on each call, with
    element j the bracketings of `lie_piece` times S * e_j, applied by
    forward substitution over T (S is never stored)."""
    bracketings, lower = lie_piece(gens, length, degree).expand()
    columns = [(0, col) for col in lower]
    elements = (_combine_columns(bracketings, solve_unitriangular(columns, {j: 1}))
                for j in range(len(bracketings)))
    return [TensorElt(gens, {decode_word(w): c for w, c in terms.items()}) for terms in elements]


def pbw_euler_check(gens: GeneratorSet, max_length: int, max_degree: int) -> bool:
    """Coefficient-wise identity between the tensor-algebra Poincare series and
    the graded-commutative product over the computed Lie dimensions, within
    the (length, degree) window."""
    # tensor side: number of words per (n, d)
    tensor_side = {
        (n, d): tensor_dim(gens, n, d)
        for n in range(1, max_length + 1)
        for d in range(0, max_degree + 1)
    }
    # product side: expand prod (1 - t^n z^d)^{-l} (d even) * (1 + t^n z^d)^l (d odd)
    series: dict[tuple[int, int], Fraction] = {(0, 0): Fraction(1)}

    def mul_factor(n, d, exponent_sign, power):
        nonlocal series
        for _ in range(power):
            if exponent_sign > 0:  # multiply by (1 + t^n z^d)
                new = dict(series)
                for (a, b), c in series.items():
                    if a + n <= max_length and b + d <= max_degree:
                        new[(a + n, b + d)] = new.get((a + n, b + d), Fraction(0)) + c
                series = new
            else:  # multiply by 1/(1 - t^n z^d): cumulative sums along (n, d) strides
                new = dict(series)
                for a in range(0, max_length + 1):
                    for b in range(0, max_degree + 1):
                        if (a - n, b - d) != (a, b) and a - n >= 0 and b - d >= 0:
                            prev = new.get((a - n, b - d))
                            if prev:
                                new[(a, b)] = new.get((a, b), Fraction(0)) + prev
                series = new

    for n in range(1, max_length + 1):
        for d in range(0, max_degree + 1):
            l = lie_dim(gens, n, d)
            if not l:
                continue
            if d % 2 == 0:
                mul_factor(n, d, -1, l)
            else:
                mul_factor(n, d, +1, l)
    for (n, d), want in tensor_side.items():
        got = series.get((n, d), Fraction(0))
        if got != want:
            return False
    return True
