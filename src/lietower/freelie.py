"""Free graded Lie algebras realized inside the tensor algebra.

Elements of the free graded Lie algebra on a finite generator set live in
T(V) as linear combinations of words, with the graded commutator
[u, v] = u (x) v - (-1)^{|u||v|} v (x) u.  The Koszul signs are localized
here; everything downstream (differentials, towers, functors) works with
plain word arithmetic.

Word-length components of honest Lie elements are certified by the
left-normed (Dynkin) bracketing map, which acts as n * id on length-n
components in characteristic zero.  Bases of the (length, degree) pieces
are the echelonized standard bracketings of Lyndon words (Reutenauer, Free
Lie Algebras, 1993), together with the squares of odd-degree Lyndon
bracketings (Bokut-Kang-Lee-Malcolmson, J. Algebra 217, 1999), computed in
integer arithmetic and held once per piece as integer forms (each element's
pivot word, pivot coefficient and integer terms); their dimensions are
cross-checked against the necklace-style counting formula obtained by
inverting the tensor-algebra Poincare series.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Optional

from . import exprs
from .linalg import IntEchelon

Word = tuple[int, ...]
# (pivot word, den, terms): the Lie element terms / den, with integer terms
LieForm = tuple[Word, int, dict[Word, int]]


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
        return hash((self.names, self.degrees))

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
            s = out.get(w, 0) + c
            if s:
                out[w] = s
            else:
                del out[w]
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
                w = w1 + w2
                s = out.get(w, 0) + c1 * c2
                if s:
                    out[w] = s
                else:
                    del out[w]
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


def integer_terms(terms: dict) -> tuple[int, dict[Word, int]]:
    """(D, {w: D * c}) for D the least common denominator of the Fractions c."""
    den = lcm(*(c.denominator for c in terms.values()))
    return den, {w: c.numerator * (den // c.denominator) for w, c in terms.items()}


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
            d2 = gens.word_degree(w2)
            c = c1 * c2
            w = w1 + w2
            s = out.get(w, 0) + c
            if s:
                out[w] = s
            else:
                del out[w]
            sign = -1 if (d1 * d2) % 2 else 1
            w = w2 + w1
            s = out.get(w, 0) - sign * c
            if s:
                out[w] = s
            else:
                del out[w]
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
    """Evaluate a parsed bracket expression to a tensor element."""
    out = zero(gens)
    for coeff, node in terms:
        out = out + coeff * _eval_node(gens, node)
    return out


def _eval_node(gens: GeneratorSet, node) -> TensorElt:
    if isinstance(node, exprs.Gen):
        return gen_elt(gens, node.name)
    if isinstance(node, exprs.Bracket):
        return graded_bracket(
            eval_bracket_expr(gens, node.left), eval_bracket_expr(gens, node.right)
        )
    raise NameError_(f"node {node!r} is not a Lie expression")


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
        raise AssertionError(f"necklace inversion broke at {key}: {val}")
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


def _is_lyndon(word: Word) -> bool:
    """Strictly smaller than each proper suffix, in generator-index order."""
    return all(word < word[i:] for i in range(1, len(word)))


def _int_bracket(u: dict, du: int, v: dict, dv: int) -> dict[Word, int]:
    """Graded commutator of integer word combinations of degrees du and dv."""
    sign = -1 if (du * dv) % 2 else 1
    out: dict[Word, int] = {}
    for w1, c1 in u.items():
        for w2, c2 in v.items():
            c = c1 * c2
            w = w1 + w2
            out[w] = out.get(w, 0) + c
            w = w2 + w1
            out[w] = out.get(w, 0) - sign * c
    return {w: c for w, c in out.items() if c}


def _lyndon_bracketing(gens: GeneratorSet, word: Word, memo: dict) -> dict[Word, int]:
    """Standard bracketing P_w = [P_u, P_v], v the longest proper Lyndon suffix."""
    got = memo.get(word)
    if got is None:
        if len(word) == 1:
            got = {word: 1}
        else:
            cut = next(i for i in range(1, len(word)) if _is_lyndon(word[i:]))
            u, v = word[:cut], word[cut:]
            got = _int_bracket(
                _lyndon_bracketing(gens, u, memo),
                gens.word_degree(u),
                _lyndon_bracketing(gens, v, memo),
                gens.word_degree(v),
            )
        memo[word] = got
    return got


def lie_basis_forms(gens: GeneratorSet, length: int, degree: int) -> list[LieForm]:
    """The canonical basis of the (length, degree) piece as integer forms.

    Element i of the basis is terms / den for its form (pivot, den, terms):
    terms is the primitive integer row of the reduced echelon basis against
    the lexicographic word order, pivot its least word and den its
    coefficient there.  The basis is spanned by the standard bracketings of
    the Lyndon words of the piece, plus the squares [P_u, P_u] of the
    odd-degree Lyndon words u of half the length and degree; these are
    exactly lie_dim independent elements.  Each piece is built once and
    held only in this form.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    key = (gens, length, degree)
    if key in _basis_cache:
        return _basis_cache[key]
    words = words_of(gens, length, degree)
    index = {w: i for i, w in enumerate(words)}
    memo: dict = {}
    spanning = [_lyndon_bracketing(gens, w, memo) for w in words if _is_lyndon(w)]
    half = degree // 2
    if length % 2 == 0 and degree % 2 == 0 and half % 2:
        for u in words_of(gens, length // 2, half):
            if _is_lyndon(u):
                pu = _lyndon_bracketing(gens, u, memo)
                spanning.append(_int_bracket(pu, half, pu, half))
    ech = IntEchelon()
    for vec in spanning:
        ech.insert({index[w]: c for w, c in vec.items()})
    expected = lie_dim(gens, length, degree)
    if ech.dim != expected:
        raise AssertionError(f"basis rank {ech.dim} != counted dim {expected} at {key}")
    forms = [
        (words[p], row[p], {words[i]: c for i, c in row.items()}) for p, row in ech.reduced_rows()
    ]
    _basis_cache[key] = forms
    return forms


def form_element(gens: GeneratorSet, form: LieForm) -> TensorElt:
    """The element terms / den of an integer form (pivot, den, terms)."""
    _, den, terms = form
    return TensorElt(gens, {w: Fraction(c, den) for w, c in terms.items()})


def lie_basis(gens: GeneratorSet, length: int, degree: int) -> list[TensorElt]:
    """Canonical basis of the (length, degree) piece, echelonized against the
    lexicographic word order (pivot coefficient 1); built on each call from
    the integer forms of `lie_basis_forms`."""
    return [form_element(gens, f) for f in lie_basis_forms(gens, length, degree)]


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
