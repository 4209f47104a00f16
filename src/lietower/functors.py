"""Functors between commutative algebras, coalgebras and (co)Lie structures.

All constructions are windowed: free commutative algebras are realized as
monomial bases up to a degree bound, dual coalgebras degreewise, bar words
up to a word-length and degree cap.  Every output is validated against the
axioms it must satisfy (d^2 = 0, coassociativity, coderivation, Lie
coalgebra identities), exactly.

Signs follow Felix-Halperin-Thomas (Rational Homotopy Theory, GTM 205) and
are counted by one rule, `normalize_monomial`: the Koszul sign of moving
letters of given degrees into a new order is the parity of the odd-odd
pairs the reordering inverts.  Sorting a product of generators, shuffles
and unshuffles, extracting a bracketed pair, the word pairing, the
cobracket flip and the co-Jacobi rotations all call it on a sequence of
positions.  On top of it:

* derivations: `derive_monomial` puts d(m_i) in place in m with sign
  (-1)^{|m_0 ... m_{i-1}|}; it is the differential of every free window and
  the linear part of the chain-coalgebra differential;
* dual of the differential: (delta f)(a) = -f(d a);
* dual of the multiplication: sign-free structure transport, which is
  graded cocommutative and coassociative on the nose;
* bar differential: see `_bar_d1` / `_bar_d2`;
* suspension bookkeeping: s and s^{-1} shift degrees by one; the operator
  picks up the parity of whatever it moves past.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from . import exprs
from .dgl import DglPresentation, Truncation, d_image, exact_homology, validate as dgl_validate
from .freelie import GeneratorSet, TensorElt, gen_elt, graded_bracket, lie_basis, lie_dim, zero
from .linalg import Quotient, SparseMatrix, homology_at, reduce as m_reduce
from .pronil import FiniteLieData, IncompleteTableError

Mono = tuple[int, ...]  # sorted generator indices, repeats allowed for even gens
Poly = dict[Mono, Fraction]


class FunctorError(ValueError):
    pass


class WindowError(FunctorError):
    """The finite window of a construction is too small for the request."""


# ---------------------------------------------------------------------------
# graded-commutative monomials and the free window


def normalize_monomial(degrees: Sequence[int], word: Iterable[int]) -> tuple[Optional[Mono], int]:
    """Sort a word of letters, degrees[letter] the degree of each; the Koszul
    sign counts the swaps of two odd letters.

    Returns (None, 0) when an odd letter repeats (its square is zero).  On a
    sequence of distinct positions, normalize_monomial(degs, order)[1] is the
    sign of putting letters of degrees degs into the order `order`.
    """
    word = list(word)
    sign = 1
    # insertion sort, tracking odd-odd transpositions
    for i in range(1, len(word)):
        j = i
        while j > 0 and word[j - 1] > word[j]:
            if degrees[word[j - 1]] % 2 and degrees[word[j]] % 2:
                sign = -sign
            word[j - 1], word[j] = word[j], word[j - 1]
            j -= 1
    for a, b in zip(word, word[1:]):
        if a == b and degrees[a] % 2:
            return None, 0
    return tuple(word), sign


def _add_term(p: dict, m, c) -> None:
    """p[m] += c in place, with no stored zeros."""
    s = p.get(m, 0) + c
    if s:
        p[m] = s
    else:
        p.pop(m, None)


def derive_monomial(
    degrees: Sequence[int], images: Sequence[Poly] | dict[int, Poly], m: Mono
) -> Poly:
    """The odd derivation with generator images images[g] on the monomial m.

    d(m_i) is put in place, m[:i] + d(m_i) + m[i+1:], with sign
    (-1)^{|m_0 ... m_{i-1}|}, and the result is normalized; images needs an
    entry for every letter of m.
    """
    out: Poly = {}
    prefix = 0
    for i, g in enumerate(m):
        for dm, dc in images[g].items():
            mono, sign = normalize_monomial(degrees, m[:i] + dm + m[i + 1 :])
            if mono is not None:
                _add_term(out, mono, (-sign if prefix % 2 else sign) * dc)
        prefix += degrees[g]
    return out


def poly_from_terms(gens: GeneratorSet, terms) -> Poly:
    """Sum parsed product terms (coefficient, node) into a polynomial."""
    poly: Poly = {}
    for coeff, node in terms:
        factors = node.factors if isinstance(node, exprs.Prod) else (node.name,)
        m, sign = normalize_monomial(gens.degrees, tuple(gens.index[f] for f in factors))
        if m is not None:
            _add_term(poly, m, sign * coeff)
    return poly


def monomials_up_to(degrees: tuple[int, ...], bound: int) -> list[Mono]:
    """All nonempty monomials of total degree <= bound, by degree and then
    lexicographically."""
    found: list[Mono] = []
    frontier: list[Mono] = [()]
    # build by appending generators with index >= last index (canonical order)
    while frontier:
        new = []
        for m in frontier:
            start = m[-1] if m else 0
            base = sum(degrees[i] for i in m)
            for g in range(start, len(degrees)):
                if degrees[g] % 2 and g in m:
                    continue
                if base + degrees[g] <= bound:
                    new.append(m + (g,))
        found += new
        frontier = new
    return sorted(found, key=lambda m: (sum(degrees[i] for i in m), m))


class FreeCdgaWindow:
    """The free graded-commutative algebra on generators of degree >= 1, up
    to a degree bound, with the derivation that extends d_gen (d_gen[i] is
    the differential of generator i).

    monos is the augmentation ideal: the nonempty monomials of degree <=
    bound, in the order of `monomials_up_to`; index and degrees follow it.
    d_rows[i] is d(monos[i]) in window indices, derived once; d has degree +1
    (SullivanAlgebra checks it), so a term outside the window has degree
    bound + 1 and its own d lies outside the window too.
    """

    def __init__(self, gen_degrees: tuple[int, ...], d_gen: list[Poly], bound: int):
        self.gen_degrees = gen_degrees
        self.d_gen = d_gen
        self.bound = bound
        self.monos = monomials_up_to(gen_degrees, bound)
        self.index = {m: i for i, m in enumerate(self.monos)}
        self.degrees = [self.degree(m) for m in self.monos]
        self.d_rows: list[dict[int, Fraction]] = [
            {self.index[mm]: c for mm, c in self.d_of_monomial(m).items() if mm in self.index}
            for m in self.monos
        ]

    def degree(self, m: Mono) -> int:
        return sum(self.gen_degrees[i] for i in m)

    def product(self, a: int, b: int) -> Optional[tuple[int, int]]:
        """monos[a] * monos[b] as (index, Koszul sign); None when the product
        vanishes or leaves the window."""
        if self.degrees[a] + self.degrees[b] > self.bound:
            return None
        prod, sign = normalize_monomial(self.gen_degrees, self.monos[a] + self.monos[b])
        if prod is None:
            return None
        return self.index[prod], sign

    def d_of_monomial(self, m: Mono) -> Poly:
        return derive_monomial(self.gen_degrees, self.d_gen, m)

    def d_squared_defect(self) -> Optional[Mono]:
        """The first monomial m with d(d(m)) nonzero inside the window, or None."""
        for m, row in zip(self.monos, self.d_rows):
            dd: dict[int, Fraction] = {}
            for j, c in row.items():
                for k, c2 in self.d_rows[j].items():
                    _add_term(dd, k, c * c2)
            if dd:
                return m
        return None

    def d_squared_ok(self) -> bool:
        return self.d_squared_defect() is None

    def table(self, name: Callable[[Mono], str]) -> "CdgaTable":
        """The window as a CdgaTable; basis element i is monos[i], named name(monos[i])."""
        products: dict[tuple[int, int], dict[int, Fraction]] = {}
        for i in range(len(self.monos)):
            for j in range(i, len(self.monos)):
                got = self.product(i, j)
                if got is not None:
                    products[(i, j)] = {got[0]: Fraction(got[1])}
        names = [name(m) for m in self.monos]
        return CdgaTable(names, self.degrees, products, dict(enumerate(self.d_rows)))


# ---------------------------------------------------------------------------
# Sullivan algebras


class SullivanAlgebra:
    """Free graded-commutative algebra on generators of degree >= 1 with a
    decomposable degree +1 differential given as polynomials."""

    def __init__(
        self,
        gens: GeneratorSet,
        d_poly: dict[str, Poly],
        filtration: Optional[list[list[str]]] = None,
    ):
        if any(d < 1 for d in gens.degrees):
            raise FunctorError("generators must have degree >= 1")
        self.gens = gens
        self.d_poly: dict[str, Poly] = {}
        for name, poly in d_poly.items():
            if name not in gens.index:
                raise FunctorError(f"differential assigned to unknown generator {name!r}")
            poly = {m: Fraction(c) for m, c in poly.items() if c}
            want = gens.degrees[gens.index[name]] + 1
            wrong = sorted({sum(gens.degrees[g] for g in m) for m in poly} - {want})
            if wrong:
                raise FunctorError(f"d {name} has a component of degree {wrong[0]}, expected {want}")
            if poly:
                self.d_poly[name] = poly
        self.filtration = filtration

    @classmethod
    def from_strings(
        cls,
        gen_pairs: Iterable[tuple[str, int]],
        diffs: dict[str, str],
        filtration: Optional[list[list[str]]] = None,
    ) -> "SullivanAlgebra":
        gens = GeneratorSet.from_pairs(gen_pairs)
        known = set(gens.names)
        d_poly = {
            name: poly_from_terms(gens, exprs.parse_poly(text, known=known))
            for name, text in diffs.items()
        }
        return cls(gens, d_poly, filtration)

    def window(self, bound: int) -> FreeCdgaWindow:
        d_gen = [self.d_poly.get(name, {}) for name in self.gens.names]
        return FreeCdgaWindow(self.gens.degrees, d_gen, bound)

    def pretty_mono(self, m: Mono) -> str:
        if not m:
            return "1"
        return "_".join(self.gens.names[i] for i in m)


class MinimalityReport:
    def __init__(self, ok: bool, reason: str, filtration: Optional[list[list[str]]]):
        self.ok = ok
        self.reason = reason
        self.filtration = filtration

    def __repr__(self):
        return f"MinimalityReport(ok={self.ok}, {self.reason})"


def minimality_check(S: SullivanAlgebra) -> MinimalityReport:
    """Decomposability of d plus a nested generating filtration.

    Absent a supplied witness, builds the canonical one: the kernel of d on
    generators first, then repeatedly the generators whose differential lands
    in the subalgebra on the previous stage.
    """
    for name, poly in S.d_poly.items():
        for m in poly:
            if len(m) < 2:
                return MinimalityReport(
                    False, f"d({name}) has the linear term {S.pretty_mono(m)}", None
                )
    if S.filtration is not None:
        stages = [set() for _ in S.filtration]
        seen: set = set()
        for i, stage in enumerate(S.filtration):
            seen |= set(stage)
            stages[i] = set(seen)
        if seen != set(S.gens.names):
            return MinimalityReport(False, "filtration witness does not exhaust the generators", None)
        for i, stage in enumerate(S.filtration):
            allowed = stages[i - 1] if i else set()
            for name in stage:
                for m in S.d_poly.get(name, {}):
                    used = {S.gens.names[g] for g in m}
                    if not used <= allowed:
                        return MinimalityReport(
                            False,
                            f"d({name}) uses {sorted(used - allowed)} before they enter the filtration",
                            None,
                        )
        return MinimalityReport(True, "supplied filtration verified", S.filtration)
    # canonical filtration on generator subsets (differentials are monomial
    # expressions in generators, so stagewise membership is support-based)
    remaining = set(S.gens.names)
    stages: list[list[str]] = []
    known: set = set()
    while remaining:
        stage = []
        for name in sorted(remaining):
            support = {
                S.gens.names[g] for m in S.d_poly.get(name, {}) for g in m
            }
            if support <= known:
                stage.append(name)
        if not stage:
            return MinimalityReport(
                False,
                f"canonical filtration stalls; {sorted(remaining)} never become admissible",
                None,
            )
        stages.append(stage)
        known |= set(stage)
        remaining -= set(stage)
    return MinimalityReport(True, "canonical filtration constructed", stages)


# ---------------------------------------------------------------------------
# cocommutative coalgebras (reduced part only; C = Q + C_{>=1})


class Cdgc:
    """Connected cocommutative differential graded coalgebra, reduced part.

    delta maps basis index -> {basis index: coefficient} (degree -1);
    diag maps basis index -> {(i, j): coefficient} (the reduced diagonal).
    """

    def __init__(
        self,
        names: list[str],
        degrees: list[int],
        delta: dict[int, dict[int, Fraction]],
        diag: dict[int, dict[tuple[int, int], Fraction]],
    ):
        if len(names) != len(degrees):
            raise FunctorError("names and degrees differ in length")
        if any(d < 1 for d in degrees):
            raise FunctorError("reduced part must live in degrees >= 1")
        if len(set(names)) != len(names):
            raise FunctorError("duplicate basis names")
        self.names = list(names)
        self.degrees = list(degrees)
        self.index = {n: i for i, n in enumerate(names)}
        self.delta = {i: {j: Fraction(c) for j, c in row.items() if c} for i, row in delta.items()}
        self.delta = {i: row for i, row in self.delta.items() if row}
        self.diag = {
            i: {pair: Fraction(c) for pair, c in row.items() if c} for i, row in diag.items()
        }
        self.diag = {i: row for i, row in self.diag.items() if row}

    @property
    def dim(self) -> int:
        return len(self.names)

    def validate(self) -> list[str]:
        problems = []
        for i, row in self.delta.items():
            for j, c in row.items():
                if self.degrees[j] != self.degrees[i] - 1:
                    problems.append(f"delta({self.names[i]}) has a component of wrong degree")
        for i, row in self.diag.items():
            for (a, b), c in row.items():
                if self.degrees[a] + self.degrees[b] != self.degrees[i]:
                    problems.append(f"diagonal of {self.names[i]} is not degree-additive")
        # graded cocommutativity
        for i, row in self.diag.items():
            for (a, b), c in row.items():
                sign = -1 if (self.degrees[a] * self.degrees[b]) % 2 else 1
                if row.get((b, a), Fraction(0)) != sign * c:
                    problems.append(f"diagonal of {self.names[i]} is not cocommutative")
        # reduced coassociativity
        for i in range(self.dim):
            lhs: dict = {}
            rhs: dict = {}
            for (a, b), c in self.diag.get(i, {}).items():
                for (p, q), c2 in self.diag.get(a, {}).items():
                    _add_term(lhs, (p, q, b), c * c2)
                for (p, q), c2 in self.diag.get(b, {}).items():
                    _add_term(rhs, (a, p, q), c * c2)
            if lhs != rhs:
                problems.append(f"coassociativity fails at {self.names[i]}")
        # delta^2 = 0
        for i in range(self.dim):
            acc: dict = {}
            for j, c in self.delta.get(i, {}).items():
                for k, c2 in self.delta.get(j, {}).items():
                    _add_term(acc, k, c * c2)
            if acc:
                problems.append(f"delta squared nonzero at {self.names[i]}")
        # delta is a coderivation: diag(delta a) = (delta x 1 + 1 x delta) diag(a)
        for i in range(self.dim):
            lhs: dict = {}
            for j, c in self.delta.get(i, {}).items():
                for (a, b), c2 in self.diag.get(j, {}).items():
                    _add_term(lhs, (a, b), c * c2)
            rhs: dict = {}
            for (a, b), c in self.diag.get(i, {}).items():
                for j, c2 in self.delta.get(a, {}).items():
                    _add_term(rhs, (j, b), c * c2)
                sgn = -1 if self.degrees[a] % 2 else 1
                for j, c2 in self.delta.get(b, {}).items():
                    _add_term(rhs, (a, j), sgn * c * c2)
            if lhs != rhs:
                problems.append(f"delta is not a coderivation at {self.names[i]}")
        return problems


def dualize_sullivan(S: SullivanAlgebra, bound: int) -> Cdgc:
    """Degreewise dual of a Sullivan algebra window as a cdgc.

    The dual basis is indexed by monomials; the dual differential is
    (delta f)(a) = -f(d a) and the reduced diagonal is the
    sign-free transport of the multiplication table, which is cocommutative
    and coassociative on the nose.
    """
    window = S.window(bound)
    names = [S.pretty_mono(m) for m in window.monos]
    if len(set(names)) != len(names):
        raise FunctorError("monomial names collide; rename the generators")
    delta: dict[int, dict[int, Fraction]] = {}
    for j, row in enumerate(window.d_rows):
        for i, c in row.items():
            delta.setdefault(i, {})[j] = -c
    diag: dict[int, dict[tuple[int, int], Fraction]] = {}
    for a in range(len(window.monos)):
        for b in range(len(window.monos)):
            got = window.product(a, b)
            if got is not None:
                diag.setdefault(got[0], {})[(a, b)] = Fraction(got[1])
    return Cdgc(names, window.degrees, delta, diag)


def cdgc_homology(C: Cdgc, q: int) -> int:
    """dim H_q of the reduced part of a cdgc (the unit adds one class in
    degree 0, which this does not count)."""
    by_deg: dict[int, list[int]] = {}
    for i, d in enumerate(C.degrees):
        by_deg.setdefault(d, []).append(i)
    rows = by_deg.get(q - 1, [])
    mids = by_deg.get(q, [])
    tops = by_deg.get(q + 1, [])
    rpos = {i: k for k, i in enumerate(rows)}
    mpos = {i: k for k, i in enumerate(mids)}
    d_out = SparseMatrix(
        len(rows),
        len(mids),
        {
            (rpos[j], mpos[i]): c
            for i in mids
            for j, c in C.delta.get(i, {}).items()
        },
    )
    d_in = SparseMatrix(
        len(mids),
        len(tops),
        {
            (mpos[j], k): c
            for k, i in enumerate(tops)
            for j, c in C.delta.get(i, {}).items()
        },
    )
    return homology_at(d_in, d_out)[0]


# ---------------------------------------------------------------------------
# the coalgebra-to-Lie functor


def quillen_L(C: Cdgc, gen_prefix: str = "w_") -> DglPresentation:
    """Free Lie algebra on the desuspended reduced coalgebra.

    The linear part of the differential desuspends delta; the quadratic part
    comes from the symmetric decomposition of the reduced diagonal:
    pairs (a_i, a_i') with coefficients c_i such that
    diag(a) = sum_i c_i (a_i x a_i' + Koszul flip), contributing
    - sum_i c_i (-1)^{|a_i|} [w(a_i), w(a_i')].
    """
    problems = C.validate()
    if problems:
        raise FunctorError("coalgebra axioms fail: " + "; ".join(problems[:3]))
    names = [gen_prefix + n for n in C.names]
    degrees = [d - 1 for d in C.degrees]
    gens = GeneratorSet(names, degrees)
    diffs: dict[str, TensorElt] = {}
    for i in range(C.dim):
        val = zero(gens)
        for j, c in C.delta.get(i, {}).items():
            # linear part: minus the desuspension of delta
            val = val + (-c) * TensorElt(gens, {(j,): Fraction(1)})
        for (a, b), c in _symmetric_pairs(C, i):
            sign = Fraction(-1 if C.degrees[a] % 2 else 1)
            val = val + (-c) * sign * graded_bracket(gen_elt(gens, names[a]), gen_elt(gens, names[b]))
        if not val.is_zero():
            diffs[names[i]] = val
    return DglPresentation(gens, diffs)


def _symmetric_pairs(C: Cdgc, i: int) -> list[tuple[tuple[int, int], Fraction]]:
    """Canonical symmetric decomposition of the reduced diagonal of basis i."""
    row = C.diag.get(i, {})
    pairs = []
    for (a, b), c in sorted(row.items()):
        if a < b:
            pairs.append(((a, b), c))
        elif a == b:
            # even-degree diagonal term a x a arises twice from its pair
            pairs.append(((a, a), c / 2))
    return pairs


def neisendorfer_model(S: SullivanAlgebra, bound: int) -> DglPresentation:
    """quillen_L of the dual coalgebra window; validated before returning.

    Homology of the result is degreewise exact up to bound - 2 (the dgl
    degree q only involves dual monomials of degree <= q + 2).
    """
    report = minimality_check(S)
    if not report.ok:
        raise FunctorError(f"input is not a minimal Sullivan algebra: {report.reason}")
    P = quillen_L(dualize_sullivan(S, bound))
    val = dgl_validate(P, Truncation(max(2, bound)))
    if not val.ok:
        raise FunctorError("model failed validation: " + "; ".join(repr(i) for i in val.issues[:3]))
    return P


# ---------------------------------------------------------------------------
# finite dgls (bracket table + differential) and their chain coalgebra


class FiniteDgl:
    """Finite-dimensional dgl: a bracket table plus a differential matrix."""

    def __init__(self, table: FiniteLieData, differential: dict[int, dict[int, Fraction]]):
        self.table = table
        self.d = {
            i: {j: Fraction(c) for j, c in row.items() if c} for i, row in differential.items()
        }
        self.d = {i: row for i, row in self.d.items() if row}
        for i, row in self.d.items():
            for j in row:
                if table.degrees[j] != table.degrees[i] - 1:
                    raise FunctorError("differential is not of degree -1")

    def d_vec(self, v: dict[int, Fraction]) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for i, c in v.items():
            for j, cc in self.d.get(i, {}).items():
                _add_term(out, j, c * cc)
        return out

    def validate(self) -> list[str]:
        """Table axioms plus d^2 = 0 and the derivation rule, exactly."""
        problems = list(self.table.validate())
        for i in range(self.table.dim):
            if self.d_vec(self.d.get(i, {})):
                problems.append(f"d^2 nonzero at {self.table.names[i]}")
        for i in range(self.table.dim):
            for j in range(self.table.dim):
                try:
                    lhs = self.d_vec(self.table.bracket_basis(i, j))
                    rhs = self.table.bracket(self.d.get(i, {}), {j: Fraction(1)})
                    sgn = Fraction(-1 if self.table.degrees[i] % 2 else 1)
                    for k, c in self.table.bracket({i: Fraction(1)}, self.d.get(j, {})).items():
                        _add_term(rhs, k, sgn * c)
                except IncompleteTableError:
                    continue
                if lhs != rhs:
                    problems.append(
                        f"derivation rule fails at [{self.table.names[i]}, {self.table.names[j]}]"
                    )
        return problems

    @classmethod
    def from_presentation(cls, P: DglPresentation, n: int, max_degree: int) -> "FiniteDgl":
        slices = {q: P.slice(q, n) for q in range(0, max_degree + 1)}
        elements = {q: [sl.element(k) for k in range(sl.dim)] for q, sl in slices.items()}
        names = []
        degrees = []
        pos: dict[tuple[int, int], int] = {}
        for q in range(0, max_degree + 1):
            for k in range(slices[q].dim):
                pos[(q, k)] = len(names)
                names.append(f"q{q}b{k}")
                degrees.append(q)
        brackets = {}
        for (qa, ka), ia in pos.items():
            for (qb, kb), ib in pos.items():
                if ib < ia:
                    continue
                qc = qa + qb
                if qc > max_degree:
                    continue
                val = graded_bracket(elements[qa][ka], elements[qb][kb])
                val = val.truncate_length(n)
                if val.is_zero():
                    continue
                coords = slices[qc].coords(val)
                entry = {names[pos[(qc, kk)]]: c for kk, c in coords.items()}
                if entry:
                    brackets[(names[ia], names[ib])] = entry
        table = FiniteLieData(list(zip(names, degrees)), brackets, total=False,
                              complete_degrees={q: True for q in range(0, max_degree + 1)},
                              max_degree=max_degree)
        differential: dict[int, dict[int, Fraction]] = {}
        for q in range(1, max_degree + 1):
            dm = P.d_matrix(q, n, n)
            for k, col in enumerate(dm.matrix.columns()):
                if col:
                    differential[pos[(q, k)]] = {
                        pos[(q - 1, kk)]: Fraction(c, dm.den) for kk, c in col.items()
                    }
        return cls(table, differential)


def chevalley_chains(L: FiniteDgl, bound: int) -> Cdgc:
    """Chain coalgebra of a finite dgl on the suspended exterior algebra.

    Basis: monomials in the suspended table basis (degrees shifted up by 1)
    within the degree bound.  The differential is the suspension of d plus
    the bracket-induced quadratic part; the coproduct is the unshuffling
    diagonal.  All coalgebra axioms and delta^2 = 0 are verified exactly on
    the constructed window.
    """
    table = L.table
    sus_degrees = tuple(d + 1 for d in table.degrees)
    monos = monomials_up_to(sus_degrees, bound)
    names = ["s" + "_s".join(table.names[i] for i in m) for m in monos]
    if len(set(names)) != len(names):
        raise FunctorError("suspended monomial names collide")
    degs = [sum(sus_degrees[i] for i in m) for m in monos]
    index = {m: i for i, m in enumerate(monos)}

    delta: dict[int, dict[int, Fraction]] = {}
    for i, m in enumerate(monos):
        for mm, c in _ce_delta(L, sus_degrees, m).items():
            if mm in index:
                delta.setdefault(i, {})[index[mm]] = c
            elif mm:
                raise WindowError("window too small to close the differential")
    diag: dict[int, dict[tuple[int, int], Fraction]] = {}
    for i, m in enumerate(monos):
        for (m1, m2), c in _unshuffle(sus_degrees, m).items():
            if not m1 or not m2:
                continue
            diag.setdefault(i, {})[(index[m1], index[m2])] = c
    out = Cdgc(names, degs, delta, diag)
    problems = out.validate()
    if problems:
        raise FunctorError("chain coalgebra axioms fail: " + "; ".join(problems[:3]))
    return out


def _ce_delta(L: FiniteDgl, sus_degrees: tuple[int, ...], m: Mono) -> dict[Mono, Fraction]:
    """Differential of the chain coalgebra on one suspended monomial.

    Linear part: the derivation extending d(sx) = -s(dx).  Quadratic part:
    each pair of slots i < j moves to the front with its Koszul sign, is
    bracketed, and picks up (-1)^{|x_i|} on the unsuspended degree of the
    first element.
    """
    linear = {g: {(j,): -c for j, c in L.d.get(g, {}).items()} for g in m}
    out = derive_monomial(sus_degrees, linear, m)
    degs = [sus_degrees[g] for g in m]
    for i, j in itertools.combinations(range(len(m)), 2):
        rest = [p for p in range(len(m)) if p != i and p != j]
        sign = normalize_monomial(degs, [i, j, *rest])[1]
        if L.table.degrees[m[i]] % 2:
            sign = -sign
        for k, c in L.table.bracket_basis(m[i], m[j]).items():
            mono, s2 = normalize_monomial(sus_degrees, [k, *(m[p] for p in rest)])
            if mono is not None:
                _add_term(out, mono, sign * s2 * c)
    return out


def _unshuffle(degrees: tuple[int, ...], m: Mono) -> dict[tuple[Mono, Mono], int]:
    """Unshuffling diagonal of a normalized monomial (full, including empty
    sides); both sides of each term are then normalized too."""
    degs = [degrees[g] for g in m]
    out: dict[tuple[Mono, Mono], int] = {}
    for mask in range(1 << len(m)):
        left = [p for p in range(len(m)) if mask >> p & 1]
        right = [p for p in range(len(m)) if not mask >> p & 1]
        key = (tuple(m[p] for p in left), tuple(m[p] for p in right))
        _add_term(out, key, normalize_monomial(degs, left + right)[1])
    return out


# ---------------------------------------------------------------------------
# finite cdga tables (for the bar construction)


class CdgaTable:
    """Augmentation ideal of a cdga as a finite table within a window.

    products maps (i, j) -> {k: coefficient} for i <= j (commutative
    transport fills the flip); differential maps i -> {j: coefficient},
    degree +1.  Degrees are >= 1.
    """

    def __init__(
        self,
        names: list[str],
        degrees: list[int],
        products: dict[tuple[int, int], dict[int, Fraction]],
        differential: dict[int, dict[int, Fraction]],
    ):
        if any(d < 1 for d in degrees):
            raise FunctorError(f"cdga table degrees must be >= 1, got {sorted(set(degrees))}")
        self.names = names
        self.degrees = degrees
        self.index = {n: i for i, n in enumerate(names)}
        self.products = {}
        for (i, j), row in products.items():
            row = {k: Fraction(c) for k, c in row.items() if c}
            if row:
                self.products[(i, j)] = row
        self.d = {}
        for i, row in differential.items():
            row = {j: Fraction(c) for j, c in row.items() if c}
            if row:
                self.d[i] = row

    @property
    def dim(self) -> int:
        return len(self.names)

    def product(self, i: int, j: int) -> dict[int, Fraction]:
        got = self.products.get((i, j))
        if got is not None:
            return got
        got = self.products.get((j, i))
        if got is not None:
            sign = -1 if (self.degrees[i] * self.degrees[j]) % 2 else 1
            return {k: sign * c for k, c in got.items()}
        return {}


def cdga_table_from_sullivan(S: SullivanAlgebra, bound: int) -> CdgaTable:
    return S.window(bound).table(S.pretty_mono)


# ---------------------------------------------------------------------------
# bar words, shuffles, and the cdga-to-Lie-coalgebra functor

BarWord = tuple[int, ...]  # letter indices into a CdgaTable


def _bar_degree(A: CdgaTable, w: BarWord) -> int:
    return sum(A.degrees[i] - 1 for i in w)


def _bar_d1(A: CdgaTable, w: BarWord) -> dict[BarWord, Fraction]:
    """Letterwise differential: sign is the parity of the bar prefix, with a
    global minus (the desuspension convention d(s^{-1}a) = -s^{-1}(da))."""
    out: dict[BarWord, Fraction] = {}
    prefix = 0
    for i, letter in enumerate(w):
        row = A.d.get(letter, {})
        sign = Fraction(1 if prefix % 2 else -1)
        for j, c in row.items():
            _add_term(out, w[:i] + (j,) + w[i + 1 :], sign * c)
        prefix += A.degrees[letter] - 1
    return out


def _bar_d2(A: CdgaTable, w: BarWord) -> dict[BarWord, Fraction]:
    """Adjacent multiplications: sign is the parity of the bar prefix through
    the first merged letter."""
    out: dict[BarWord, Fraction] = {}
    prefix = 0
    for i in range(len(w) - 1):
        prefix += A.degrees[w[i]] - 1
        sign = Fraction(-1 if prefix % 2 else 1)
        for k, c in A.product(w[i], w[i + 1]).items():
            _add_term(out, w[:i] + (k,) + w[i + 2 :], sign * c)
    return out


def bar_differential(A: CdgaTable, vec: dict[BarWord, Fraction]) -> dict[BarWord, Fraction]:
    out: dict[BarWord, Fraction] = {}
    for w, c in vec.items():
        for part in (_bar_d1(A, w), _bar_d2(A, w)):
            for ww, cc in part.items():
                _add_term(out, ww, c * cc)
    return out


@functools.cache
def _shuffles(parities: tuple[int, ...], n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The shuffles of the first n letters with the rest, for letters of
    these degree parities: each as the order of the positions and its sign.

    Cached because the sign depends only on the parities, and a bar quotient
    shuffles thousands of word pairs that share a few parity patterns."""
    out = []
    for slots in itertools.combinations(range(len(parities)), n):
        first, second = iter(range(n)), iter(range(n, len(parities)))
        order = tuple(next(first) if p in slots else next(second) for p in range(len(parities)))
        out.append((order, normalize_monomial(parities, order)[1]))
    return tuple(out)


def shuffle(A: CdgaTable, u: BarWord, v: BarWord) -> dict[BarWord, int]:
    """Graded shuffle product of bar words (Koszul signs on bar degrees)."""
    w = u + v
    out: dict[BarWord, int] = {}
    for order, sign in _shuffles(tuple((A.degrees[letter] - 1) % 2 for letter in w), len(u)):
        _add_term(out, tuple(w[p] for p in order), sign)
    return out


class LieCoalgebraTrunc:
    """Quotient of the tensor coalgebra on the desuspended augmentation ideal
    by shuffle-decomposables, per (word length, degree), with the induced
    differential and cobracket."""

    def __init__(self, A: CdgaTable, q_max: int, n_max: int):
        self.A = A
        self.q_max = q_max
        self.n_max = n_max
        self.letters = [i for i in range(A.dim) if A.degrees[i] - 1 <= n_max]
        self.words: dict[tuple[int, int], list[BarWord]] = {}
        # the words of length q within the budget, with their bar degrees, in
        # sorted order; a letter's bar degree is >= 0, so a prefix over the
        # budget has no extension within it
        level: list[tuple[BarWord, int]] = [((), 0)]
        for q in range(1, q_max + 1):
            level = [(w + (i,), n + A.degrees[i] - 1) for w, n in level for i in self.letters
                     if n + A.degrees[i] - 1 <= n_max]
            for w, n in level:
                self.words.setdefault((q, n), []).append(w)
        self._windex = {
            key: {w: i for i, w in enumerate(ws)} for key, ws in self.words.items()
        }
        # shuffle-decomposable subspaces and quotient representatives
        self._reducer: dict[tuple[int, int], Quotient] = {}
        for (q, n), ws in sorted(self.words.items()):
            shuffles = []
            for q1 in range(1, q):
                q2 = q - q1
                for n1 in range(0, n + 1):
                    for w1 in self.words.get((q1, n1), []):
                        for w2 in self.words.get((q2, n - n1), []):
                            vec = {}
                            for w, c in shuffle(A, w1, w2).items():
                                vec[self._windex[(q, n)][w]] = Fraction(c)
                            if vec:
                                shuffles.append(vec)
            self._reducer[(q, n)] = Quotient(shuffles, ({i: 1} for i in range(len(ws))))
        self.basis: dict[tuple[int, int], list[int]] = {
            key: red.kept for key, red in self._reducer.items()
        }

    def dim(self, q: int, n: int) -> int:
        red = self._reducer.get((q, n))
        return red.dim if red else 0

    def rep_words(self, q: int, n: int) -> list[BarWord]:
        red = self._reducer.get((q, n))
        if not red:
            return []
        return [self.words[(q, n)][i] for i in red.kept]

    def class_coords(self, q: int, n: int, vec: dict[BarWord, Fraction]) -> dict[int, Fraction]:
        """Coordinates of a word vector in the quotient basis."""
        if not vec:
            return {}
        windex = self._windex[(q, n)]
        got = self._reducer[(q, n)].coords({windex[w]: c for w, c in vec.items()})
        if got is None:
            raise FunctorError("vector escapes the quotient span")
        return got

    def differential_matrix(self, q: int, n: int) -> dict[tuple[int, int], SparseMatrix]:
        """Induced differential on classes: (q, n) -> {(q, n+1), (q-1, n+1)}."""
        out: dict[tuple[int, int], dict[int, dict[int, Fraction]]] = {}
        reps = self.rep_words(q, n)
        for col, w in enumerate(reps):
            img = bar_differential(self.A, {w: Fraction(1)})
            by_key: dict[tuple[int, int], dict[BarWord, Fraction]] = {}
            for ww, c in img.items():
                key = (len(ww), _bar_degree(self.A, ww))
                if key not in self.words:
                    if key[1] <= self.n_max and key[0] <= self.q_max:
                        raise WindowError("differential left the computed window")
                    continue
                by_key.setdefault(key, {})[ww] = c
            for key, vec in by_key.items():
                coords = self.class_coords(*key, vec)
                for row, c in coords.items():
                    out.setdefault(key, {}).setdefault(col, {})[row] = c
        mats = {}
        for key, cols in out.items():
            colvecs = [cols.get(i, {}) for i in range(len(reps))]
            mats[key] = SparseMatrix.from_columns(self.dim(*key), colvecs)
        return mats

    def shuffles_are_stable_under_d(self) -> bool:
        """The differential of a shuffle stays shuffle-decomposable."""
        for (q, n), ws in sorted(self.words.items()):
            for q1 in range(1, q):
                for n1 in range(0, n + 1):
                    for w1 in self.words.get((q1, n1), [])[:4]:
                        for w2 in self.words.get((q - q1, n - n1), [])[:4]:
                            vec = shuffle(self.A, w1, w2)
                            img = bar_differential(self.A, {w: Fraction(c) for w, c in vec.items()})
                            by_key: dict[tuple[int, int], dict] = {}
                            for ww, c in img.items():
                                key = (len(ww), _bar_degree(self.A, ww))
                                if key in self.words:
                                    by_key.setdefault(key, {})[ww] = c
                            for key, v in by_key.items():
                                if self.class_coords(*key, v):
                                    return False
        return True

    def cobracket(self, q: int, n: int, rep_index: int):
        """Cobracket of a class: deconcatenation minus its graded flip,
        projected to quotient classes on both sides.

        Returns {((q1, n1), i, (q2, n2), j): coefficient}."""
        w = self.rep_words(q, n)[rep_index]
        degs = [self.A.degrees[letter] - 1 for letter in w]
        out: dict = {}
        for cut in range(1, len(w)):
            left, right = w[:cut], w[cut:]
            lkey = (len(left), _bar_degree(self.A, left))
            rkey = (len(right), _bar_degree(self.A, right))
            lcoords = self.class_coords(*lkey, {left: Fraction(1)})
            rcoords = self.class_coords(*rkey, {right: Fraction(1)})
            flip = -normalize_monomial(degs, [*range(cut, len(w)), *range(cut)])[1]
            for ka, ca, kb, cb, sign in (
                (lkey, lcoords, rkey, rcoords, 1),
                (rkey, rcoords, lkey, lcoords, flip),
            ):
                for i, ci in ca.items():
                    for j, cj in cb.items():
                        _add_term(out, (ka, i, kb, j), sign * ci * cj)
        return out

    def lie_coalgebra_axioms_ok(self) -> bool:
        """(1 + flip) of the cobracket vanishes and the cyclic co-Jacobi sum
        (1 + sigma + sigma^2)(1 x cob) cob vanishes, exactly, on every class."""
        for (q, n), red in sorted(self._reducer.items()):
            for idx in range(red.dim):
                cob = self.cobracket(q, n, idx)
                if _koszul_sum(cob, ((0, 1), (1, 0))):
                    return False
                triple: dict = {}
                for (lk, i, rk, j), c in cob.items():
                    for key, c2 in self.cobracket(*rk, j).items():
                        _add_term(triple, (lk, i, *key), c * c2)
                if _koszul_sum(triple, ((0, 1, 2), (2, 0, 1), (1, 2, 0))):
                    return False
        return True


def _koszul_sum(terms: dict, orders) -> dict:
    """Sum over the given orders of the Koszul-signed reorderings of tensor
    terms {(key_1, i_1, key_2, i_2, ...): c}; factor k has degree key_k[1]."""
    out: dict = {}
    for flat, c in terms.items():
        factors = [flat[k : k + 2] for k in range(0, len(flat), 2)]
        degs = [key[1] for key, _ in factors]
        for order in orders:
            key = tuple(x for p in order for x in factors[p])
            _add_term(out, key, normalize_monomial(degs, order)[1] * c)
    return out


def bar_lie_coalgebra_E(A, q_max: int, n_max: int) -> LieCoalgebraTrunc:
    """Quotient of the bar construction by shuffle decomposables.

    Accepts a CdgaTable or a SullivanAlgebra (windowed automatically so that
    every letter of bar degree <= n_max is present)."""
    if isinstance(A, SullivanAlgebra):
        A = cdga_table_from_sullivan(A, n_max + 1)
    return LieCoalgebraTrunc(A, q_max, n_max)


# ---------------------------------------------------------------------------
# the Lie-coalgebra-to-cdga functor


def functor_A(E: LieCoalgebraTrunc, bound: int) -> CdgaTable:
    """Free graded-commutative algebra on the suspended classes, with
    D(sx) = 1/2 sum_i (-1)^{|x_i|} s x_i ^ s x_i' - s(dx).

    D is validated to square to zero inside the degree window."""
    if not E.lie_coalgebra_axioms_ok():
        raise FunctorError("input does not satisfy the Lie coalgebra axioms")
    cogens: list[tuple[tuple[int, int], int]] = []
    for (q, n), idxs in sorted(E.basis.items()):
        for k in range(len(idxs)):
            cogens.append(((q, n), k))
    gnames = [f"s_{q}_{n}_{k}" for ((q, n), k) in cogens]
    gdegrees = tuple(n + 1 for ((q, n), k) in cogens)
    pos = {key: i for i, key in enumerate(cogens)}

    dcols = {key: [(k2, mat.columns()) for k2, mat in E.differential_matrix(*key).items()]
             for key in E.basis}

    def d_of_cogen(i: int) -> Poly:
        (q, n), k = cogens[i]
        out: Poly = {}
        # quadratic part from the cobracket
        for (lk, a, rk, b), c in E.cobracket(q, n, k).items():
            ga = pos.get((lk, a))
            gb = pos.get((rk, b))
            if ga is None or gb is None:
                continue
            sign = Fraction(-1 if lk[1] % 2 else 1)
            mono, s2 = normalize_monomial(gdegrees, (ga, gb))
            if mono is not None:
                _add_term(out, mono, Fraction(s2) * sign * c / 2)
        # linear part: minus the suspension of the differential
        for key, cols in dcols[(q, n)]:
            for row, c in cols[k].items():
                _add_term(out, (pos[(key, row)],), -Fraction(c))
        return out

    def name(m: Mono) -> str:
        return "^".join(gnames[i] for i in m)

    # the window holds every monomial of degree <= bound, so D never leaves it
    window = FreeCdgaWindow(gdegrees, [d_of_cogen(i) for i in range(len(cogens))], bound)
    defect = window.d_squared_defect()
    if defect is not None:
        raise FunctorError(f"D^2 != 0 at {name(defect)}")
    return window.table(name)


# ---------------------------------------------------------------------------
# duality between the bar quotient and the free Lie algebra on duals


class DualityReport:
    def __init__(self, ok: bool, dims: list[dict], detail: str):
        self.ok = ok
        self.dims = dims
        self.detail = detail

    def to_structured(self) -> dict:
        return {"ok": self.ok, "dims": self.dims, "detail": self.detail}

    def to_text(self) -> str:
        lines = [f"duality check: {'ok' if self.ok else 'FAILED'} ({self.detail})"]
        for row in self.dims:
            lines.append(
                f"  (length {row['q']}, degree {row['n']}): bar-quotient {row['dim_E']}, "
                f"free-Lie dual {row['dim_L']}"
            )
        return "\n".join(lines)


def duality_check(S: SullivanAlgebra, n_window: int, q_max: int) -> DualityReport:
    """Dimension and differential agreement between the shuffle quotient of
    the bar construction and the free Lie algebra on the desuspended duals.

    Per (word length q <= q_max, degree n <= n_window): the quotient classes
    biject with the Lie pieces via the word pairing; the bar differential,
    transported through the pairing, must equal the Lie-side differential.
    """
    E = bar_lie_coalgebra_E(S, q_max, n_window)
    model = neisendorfer_model(S, n_window + 1)
    # letters of E.A correspond to the dual-monomial generators of the model:
    # both are indexed by the monomial basis in degrees 1..n_window+1
    if len(E.A.names) != len(model.gens.names):
        return DualityReport(False, [], "letter and generator counts differ")
    dims = []
    ok = True
    detail = "dimensions and differentials match under the pairing"
    for q in range(1, q_max + 1):
        for n in range(0, n_window + 1):
            dim_e = E.dim(q, n)
            dim_l = lie_dim(model.gens, q, n)
            dims.append({"q": q, "n": n, "dim_E": dim_e, "dim_L": dim_l})
            if dim_e != dim_l:
                ok = False
                detail = f"dimension mismatch at (q, n) = ({q}, {n})"
    if not ok:
        return DualityReport(ok, dims, detail)
    # differential agreement under the pairing
    pairings = _pairing_matrices(E, model, q_max, n_window)
    for (q, n), P in pairings.items():
        rank, _, _ = m_reduce(P)
        if rank != P.rows or P.rows != P.cols:
            return DualityReport(False, dims, f"pairing degenerate at (q, n) = ({q}, {n})")
    if not _differentials_match(E, model, pairings):
        return DualityReport(False, dims, "differentials disagree under the pairing")
    return DualityReport(True, dims, detail)


def _word_pairing_sign(A: CdgaTable, w: BarWord) -> int:
    """Koszul sign of pairing letterwise duals against the word: the sign of
    reversing w on bar degrees, prod_{i<j} (-1)^{|a_i||a_j|}."""
    return normalize_monomial([A.degrees[letter] - 1 for letter in w], range(len(w) - 1, -1, -1))[1]


def _pairing(E: LieCoalgebraTrunc, elements: Sequence[TensorElt], q: int, n: int) -> SparseMatrix:
    """<u, w> for u in elements (rows) and w the class representatives at
    (q, n) (columns): tensor duals pair diagonally with words, so <u, w> is
    the coefficient of w in u times `_word_pairing_sign(w)`."""
    reps = E.rep_words(q, n)
    signs = [_word_pairing_sign(E.A, w) for w in reps]
    return SparseMatrix(len(elements), len(reps), {
        (r, c): u.terms[w] * sign
        for r, u in enumerate(elements)
        for c, (w, sign) in enumerate(zip(reps, signs))
        if w in u.terms
    })


def _pairing_matrices(E: LieCoalgebraTrunc, model: DglPresentation, q_max: int, n_window: int):
    """Pi_{q, n}, the Lie basis paired with the classes, wherever either is nonzero."""
    return {
        (q, n): _pairing(E, lie_basis(model.gens, q, n), q, n)
        for q in range(1, q_max + 1)
        for n in range(0, n_window + 1)
        if E.dim(q, n) or lie_dim(model.gens, q, n)
    }


def _differentials_match(E: LieCoalgebraTrunc, model: DglPresentation, pairings) -> bool:
    """<d_L u, w> = (-1)^{|u|} <u, D_E w>, the fixed adjointness convention,
    as one matrix identity per block M of D_E from (q, n) to (q2, n2):
    Pi(d_L basis_{q2, n2}, reps_{q, n}) = (-1)^{n2} Pi_{q2, n2} M.  A block
    whose target has no pairing matrix must be zero; any deviation anywhere
    fails the check."""
    for q, n in pairings:
        for (q2, n2), mat in E.differential_matrix(q, n).items():
            target = pairings.get((q2, n2))
            if target is None:
                if not mat.is_zero():
                    return False
                continue
            lhs = _pairing(E, [d_image(model, u) for u in lie_basis(model.gens, q2, n2)], q, n)
            sign = -1 if n2 % 2 else 1
            if lhs.entries != {key: sign * c for key, c in target.compose(mat).entries.items()}:
                return False
    return True


# ---------------------------------------------------------------------------
# the desk-scale quasi-isomorphism check for simply connected inputs


class QuasiIsoReport:
    def __init__(self, ok: bool, rows: list[dict], detail: str):
        self.ok = ok
        self.rows = rows
        self.detail = detail

    def to_structured(self) -> dict:
        return {"ok": self.ok, "rows": self.rows, "detail": self.detail}

    def to_text(self) -> str:
        lines = [f"linear-part comparison: {'ok' if self.ok else 'FAILED'} ({self.detail})"]
        for r in self.rows:
            lines.append(
                f"  degree {r['degree']}: H = {r['dim_H']}, desuspended duals = {r['dim_expected']}"
            )
        return "\n".join(lines)


def lemma2_quasi_iso_check(S: SullivanAlgebra, q_lo: int, q_hi: int) -> QuasiIsoReport:
    """Homology of the dual model equals the desuspended dual generators.

    Requires all generators in degrees >= 2 (then every model generator has
    positive degree and untruncated homology is degreewise exact)."""
    if any(d < 2 for d in S.gens.degrees):
        raise FunctorError("the check needs generators of degree >= 2")
    model = neisendorfer_model(S, q_hi + 2)
    rows = []
    ok = True
    for q in range(q_lo, q_hi + 1):
        dim_h, _ = exact_homology(model, q)
        expected = sum(1 for d in S.gens.degrees if d == q + 1)
        rows.append({"degree": q, "dim_H": dim_h, "dim_expected": expected})
        if dim_h != expected:
            ok = False
    return QuasiIsoReport(ok, rows, "dimensionwise agreement" if ok else "mismatch")
