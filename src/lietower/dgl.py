"""Differential graded Lie algebras on free graded Lie algebras.

A presentation is a finite generator set of nonnegative degrees plus a
differential assignment on generators; the differential extends as a degree
-1 derivation.  Everything downstream is exact: word-length truncations
L / L^n are finite dimensional in each degree, their homology is computed
with exact rational elimination, and the tower n -> H(L/L^n) is reported
with stabilization evidence, never as an unbounded claim.

The completion filtration used here is the word-length filtration; for a
free underlying Lie algebra it agrees with the lower central series
(L^p is the span of the pieces of word length >= p), which is what makes
the truncations both computable and meaningful.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Optional

from . import exprs
from .freelie import (
    GeneratorSet,
    TensorElt,
    eval_bracket_expr,
    form_element,
    gen_elt,
    graded_bracket,
    integer_terms,
    lie_basis,
    lie_basis_forms,
    zero,
)
from .linalg import (
    ColumnReduction,
    IntEchelon,
    NotAComplexError,
    Quotient,
    SparseMatrix,
    Subspace,
    _combine_columns,
    homology_at,
    reduce,
)
from .pronil import FiniteLieData, g_layer


class DglError(ValueError):
    pass


class UnsupportedModeError(DglError):
    pass


class TruncationError(DglError):
    pass


class Truncation:
    """Run-wide caps: retain word lengths < n_max and degrees <= d_max."""

    def __init__(self, n_max: int, d_max: int = 32):
        if n_max < 2:
            raise ValueError("n_max must be >= 2")
        if d_max < 1:
            raise ValueError("d_max must be >= 1")
        self.n_max = n_max
        self.d_max = d_max

    def __repr__(self):
        return f"Truncation(n_max={self.n_max}, d_max={self.d_max})"


class DglPresentation:
    """Free graded Lie algebra with a differential given on generators."""

    def __init__(self, gens: GeneratorSet, differential: dict[str, TensorElt]):
        self.gens = gens
        self.diff: dict[str, TensorElt] = {}
        for name, val in differential.items():
            if name not in gens.index:
                raise DglError(f"differential assigned to unknown generator {name!r}")
            if not isinstance(val, TensorElt) or val.gens != gens:
                raise DglError(f"differential of {name!r} lives over the wrong generators")
            if not val.is_zero():
                self.diff[name] = val
        self._d_cache: dict = {}
        self._slice_cache: dict[tuple[int, int], DegreeSlice] = {}
        self._matrix_cache: dict[tuple[int, int, int], DMatrix] = {}
        self._positive = all(d >= 1 for d in gens.degrees)
        # d(g) = terms / _diff_den with integer terms, by generator index
        self._diff_den = lcm(*(c.denominator for v in self.diff.values() for c in v.terms.values()))
        self._int_diff = {
            gens.index[name]: [
                (w, c.numerator * (self._diff_den // c.denominator)) for w, c in val.terms.items()
            ]
            for name, val in self.diff.items()
        }

    @classmethod
    def from_strings(
        cls, gen_pairs: Iterable[tuple[str, int]], diffs: dict[str, str]
    ) -> "DglPresentation":
        gens = GeneratorSet.from_pairs(gen_pairs)
        known = set(gens.names)
        differential = {
            name: eval_bracket_expr(gens, exprs.parse_lie(text, known=known))
            for name, text in diffs.items()
        }
        return cls(gens, differential)

    def slice(self, q: int, n: int) -> "DegreeSlice":
        """The degree-q slice of L/L^n, built once per (q, n).

        When every generator has degree >= 1, a degree-q word has length
        <= q, so every n > q + 1 gives the slice of L/L^(q+1).
        """
        key = (q, self._length_cap(q, n))
        if key not in self._slice_cache:
            self._slice_cache[key] = DegreeSlice(self, *key)
        return self._slice_cache[key]

    def d_matrix(self, q: int, n_src: int, n_tgt: int) -> "DMatrix":
        """d from the degree-q slice of L/L^n_src to the degree-(q-1) slice
        of L/L^n_tgt, built once per (q, n_src, n_tgt).

        Image words of length >= n_tgt are dropped: with n_tgt = n_src this
        is the differential of L/L^n, and with n_tgt >= n_src + max_shift()
        it drops nothing, so it is d on the nose.  Both lengths are capped
        as in `slice`.
        """
        key = (q, self._length_cap(q, n_src), self._length_cap(q - 1, n_tgt))
        if key not in self._matrix_cache:
            self._matrix_cache[key] = DMatrix(self, *key)
        return self._matrix_cache[key]

    def _length_cap(self, q: int, n: int) -> int:
        """min(n, q + 1) when every generator has degree >= 1, else n: the
        degree-q slices of L/L^n and of L/L^(that) agree."""
        return min(n, q + 1) if self._positive else n

    def max_shift(self) -> int:
        """Largest word-length raise of the differential (0 when d = 0)."""
        shift = 0
        for val in self.diff.values():
            m = val.max_length()
            if m is not None:
                shift = max(shift, m - 1)
        return shift

    def __repr__(self):
        return f"DglPresentation({self.gens!r}, d on {sorted(self.diff)})"


def _derive_int(P: DglPresentation, terms: dict, n: Optional[int] = None) -> dict[tuple, int]:
    """P._diff_den * d(terms) for an integer word combination, with words of
    length >= n dropped when n is given.

    The Koszul sign is the parity of the prefix the operator moves past.
    d never lowers word length, so replacing a letter by a word of length l
    gives a word of length len(word) - 1 + l.
    """
    gens = P.gens
    int_diff = P._int_diff
    if n is None:
        n = sys.maxsize
    acc: dict[tuple, int] = {}
    for word, a in terms.items():
        room = n - len(word)
        prefix_deg = 0
        for i, g in enumerate(word):
            dg = int_diff.get(g)
            if dg is not None:
                sign = -a if prefix_deg % 2 else a
                for dw, dc in dg:
                    if len(dw) > room:
                        continue
                    w = word[:i] + dw + word[i + 1 :]
                    s = acc.get(w, 0) + sign * dc
                    if s:
                        acc[w] = s
                    else:
                        del acc[w]
            prefix_deg += gens.degrees[g]
    return acc


def extend_derivation(P: DglPresentation, u: TensorElt) -> TensorElt:
    """Apply the degree -1 derivation extension of d to a tensor element.

    Exact: the image of a finite element is finite.  Sums run over integers,
    with u and d scaled by their common denominators.
    """
    den, scaled = integer_terms(u.terms)
    acc = _derive_int(P, scaled)
    den *= P._diff_den
    return TensorElt(P.gens, {w: Fraction(c, den) for w, c in acc.items()})


def d_image(P: DglPresentation, u: TensorElt) -> TensorElt:
    """d(u), cached on P.

    The key is u's integer form, its words and numerators in term order, so
    no Fraction is hashed; elements taken from a basis always list their
    terms in the same order.
    """
    den, terms = integer_terms(u.terms)
    key = (den, tuple(terms), tuple(terms.values()))
    cached = P._d_cache.get(key)
    if cached is None:
        den *= P._diff_den
        cached = TensorElt(P.gens, {w: Fraction(c, den) for w, c in _derive_int(P, terms).items()})
        P._d_cache[key] = cached
    return cached


class ValidationIssue:
    def __init__(self, generator: str, kind: str, detail: str):
        self.generator = generator
        self.kind = kind
        self.detail = detail

    def __repr__(self):
        return f"[{self.kind}] d({self.generator}): {self.detail}"


class ValidationReport:
    def __init__(self, ok: bool, issues: list[ValidationIssue], notes: list[str]):
        self.ok = ok
        self.issues = issues
        self.notes = notes

    def to_structured(self) -> dict:
        return {
            "ok": self.ok,
            "issues": [
                {"generator": i.generator, "kind": i.kind, "detail": i.detail} for i in self.issues
            ],
            "notes": list(self.notes),
        }

    def to_text(self) -> str:
        lines = ["valid" if self.ok else "INVALID"]
        lines += [f"  {i!r}" for i in self.issues]
        lines += [f"  note: {n}" for n in self.notes]
        return "\n".join(lines)


def validate(P: DglPresentation, t: Truncation) -> ValidationReport:
    """Degree homogeneity of each d(g) and d(d(g)) = 0, checked exactly."""
    issues = []
    for name in sorted(P.diff):
        val = P.diff[name]
        want = P.gens.degrees[P.gens.index[name]] - 1
        for d in sorted(val.degrees()):
            if d != want:
                bad = val.degree_component(d)
                issues.append(
                    ValidationIssue(
                        name,
                        "degree",
                        f"component of degree {d} (word lengths {sorted(bad.lengths())}), expected {want}",
                    )
                )
        dd = extend_derivation(P, val)
        if not dd.is_zero():
            comp = sorted({(len(w), P.gens.word_degree(w)) for w in dd.terms})
            issues.append(
                ValidationIssue(
                    name, "d-squared", f"d(d({name})) != 0 at (length, degree) {comp[:4]}"
                )
            )
    notes = [
        f"quotient homology H(L/L^n)_q is exact for every n <= {t.n_max} in the window",
        "statements about the untruncated algebra carry the all-degrees->=1 guard "
        "or a bounded-witness certificate",
    ]
    return ValidationReport(not issues, issues, notes)


# ---------------------------------------------------------------------------
# coordinates for (L/L^n)_q in echelonized per-length Lie bases


class DegreeSlice:
    """Basis bookkeeping for the degree-q slice of L/L^n.

    Elements are ordered shortest length first, so the slice of L/L^m for
    m <= n is the leading block of the first `count_below(m)` elements.  The
    slice holds each element only as the integer form (pivot word, den,
    terms) that `freelie.lie_basis_forms` keeps for its (length, degree)
    piece, shared with every other slice of that piece, plus one map from
    pivot word to index; `element(i)` builds a TensorElt on demand.
    Every vector of (L/L^n)_q is read in this basis; `P.slice(q, n)` builds
    each slice once.
    """

    def __init__(self, P: DglPresentation, q: int, n: int):
        self.P = P
        self.q = q
        self.n = n
        self.forms = [f for k in range(1, n) for f in lie_basis_forms(P.gens, k, q)] if q >= 0 else []
        self.lengths = [len(pivot) for pivot, _, _ in self.forms]
        self._pivot = {pivot: i for i, (pivot, _, _) in enumerate(self.forms)}

    @property
    def dim(self) -> int:
        return len(self.forms)

    def count_below(self, m: int) -> int:
        """Number of basis elements of word length < m."""
        return bisect_left(self.lengths, m)

    def element(self, i: int) -> TensorElt:
        """Basis element i as a TensorElt, built from its integer form."""
        return form_element(self.P.gens, self.forms[i])

    def coords(self, u: TensorElt, strict: bool = False) -> dict[int, Fraction]:
        """Coordinates of u in the echelon basis of the slice.

        Words of length >= n are dropped, or raise TruncationError when
        strict.
        """
        den, terms = integer_terms(u.terms)
        return {i: Fraction(c, den) for i, c in self.int_coords(terms, strict).items()}

    def int_coords(self, terms: dict[tuple, int], strict: bool = False) -> dict[int, int]:
        """Coordinates of an integer word combination, which are integers.

        Pivot coordinates of a reduced echelon basis are exclusive to their
        basis vector and have coefficient 1, so this is a lookup; membership
        in the slice is then verified exactly, by integer cross-multiplication.
        """
        if strict:
            for w in terms:
                if len(w) >= self.n:
                    raise TruncationError(f"word length {len(w)} exceeds coordinate bound {self.n - 1}")
        terms = {w: c for w, c in terms.items() if len(w) < self.n}
        num: dict[int, int] = {}
        for w, c in terms.items():
            pos = self._pivot.get(w)
            if pos is not None:
                num[pos] = c
        scale, recon = self._combine(num)
        if len(recon) != len(terms) or any(
            recon.get(w, 0) != scale * c for w, c in terms.items()
        ):
            gens = self.P.gens
            for w in terms:
                if gens.word_degree(w) != self.q:
                    raise DglError(f"word of (length, degree) ({len(w)}, {gens.word_degree(w)}) "
                                   f"is outside the degree-{self.q} slice")
            raise DglError(f"element is not in the degree-{self.q} slice of L/L^{self.n}")
        return num

    def _combine(self, num: dict[int, int]) -> tuple[int, dict[tuple, int]]:
        """sum_i num[i] * element(i) as (D, nonzero integer terms times D),
        accumulated in one dict."""
        scale = lcm(*(self.forms[i][1] for i in num))
        acc: dict[tuple, int] = {}
        for i, c in num.items():
            _, d, terms = self.forms[i]
            f = c * (scale // d)
            for w, t in terms.items():
                acc[w] = acc.get(w, 0) + f * t
        return scale, {w: t for w, t in acc.items() if t}

    def element_from_coords(self, vec: dict[int, Fraction]) -> TensorElt:
        den, num = integer_terms(vec)
        scale, terms = self._combine(num)
        den *= scale
        return TensorElt(self.P.gens, {w: Fraction(t, den) for w, t in terms.items()})


class QuotientComplex:
    """The finite chain complex of L/L^n in a window of degrees.

    Bases are the echelonized per-length Lie bases, shortest length first;
    the differential matrices are block-triangular for word length (length
    never drops, so the word-length pieces L^p are differential ideals), and
    the complex of L/L^m for m <= n is their leading block."""

    def __init__(self, P: DglPresentation, n: int, q_window: tuple[int, int]):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.P = P
        self.n = n
        self.q_lo, self.q_hi = q_window
        self.matrices: dict[int, SparseMatrix] = {}
        for q in range(max(self.q_lo, 0), self.q_hi + 2):
            self.matrices[q] = self._matrix(q)

    def slice(self, q: int) -> DegreeSlice:
        return self.P.slice(q, self.n)

    def _matrix(self, q: int) -> SparseMatrix:
        dm = self.P.d_matrix(q, self.n, self.n)
        if dm.den == 1:
            return dm.matrix
        return SparseMatrix(dm.matrix.rows, dm.matrix.cols,
                            {k: Fraction(c, dm.den) for k, c in dm.matrix.entries.items()})

    def differential(self, q: int) -> SparseMatrix:
        if q not in self.matrices:
            self.matrices[q] = self._matrix(q)
        return self.matrices[q]

    def homology(self, q: int) -> tuple[int, list[TensorElt]]:
        dim, reps = homology_at(self.differential(q + 1), self.differential(q))
        sl = self.slice(q)
        return dim, [sl.element_from_coords(r) for r in reps]

    def euler_characteristic_check(self) -> bool:
        """chi(C) == chi(H) over the full degree support of L/L^n."""
        top = (self.n - 1) * (max(self.P.gens.degrees) if self.P.gens.degrees else 0)
        chi_c = sum((-1) ** q * self.slice(q).dim for q in range(0, top + 1))
        chi_h = sum((-1) ** q * self.homology(q)[0] for q in range(0, top + 1))
        return chi_c == chi_h


def lcs_quotient_complex(
    P: DglPresentation, n: int, q_window: tuple[int, int]
) -> QuotientComplex:
    return QuotientComplex(P, n, q_window)


# ---------------------------------------------------------------------------
# the degree-0 boundary space: iterated bracket closure of d(V_1)
#
# Degree-0 generators always have zero differential, so the degree-1 part of
# the algebra is the iterated-ad module on the degree-1 generators and d
# commutes with bracketing by degree-0 elements.  The image of d in degree 0
# is therefore the smallest bracket-stable subspace containing d(V_1).  It is
# computed once at the top truncation; because the echelon is held in the
# coordinates of the degree-0 slice (shortest length first), projecting to a
# lower truncation keeps exactly the rows whose pivot has retained length.


def _degree0_boundary_closure(P: DglPresentation, n_top: int) -> tuple[IntEchelon, DegreeSlice]:
    gens = P.gens
    sl = P.slice(0, n_top)
    ech = IntEchelon()
    gen0 = [gen_elt(gens, name) for name, d in zip(gens.names, gens.degrees) if d == 0]
    for name, d in zip(gens.names, gens.degrees):
        if d == 1 and name in P.diff:
            ech.insert(sl.coords(P.diff[name]))
    frontier = [sl.element_from_coords(row) for row in ech.rows.values()]
    while frontier:
        new: list[TensorElt] = []
        for elt in frontier:
            for g in gen0:
                p = ech.insert(sl.coords(graded_bracket(g, elt)))
                if p is not None:
                    new.append(sl.element_from_coords(ech.rows[p]))
        frontier = new
    return ech, sl


def _degree0_quotient(ech: IntEchelon, sl: DegreeSlice, n: int) -> Quotient:
    """H(L/L^n)_0: the leading block of the slice modulo the closure rows
    whose pivot has retained length, represented by slice elements (the
    candidates are the unit vectors, so `kept` indexes the slice basis)."""
    limit = sl.count_below(n)
    sub = [{i: c for i, c in row.items() if i < limit} for p, row in ech.rows.items() if p < limit]
    return Quotient(sub, ({i: 1} for i in range(limit)), limit=limit - len(sub))


# ---------------------------------------------------------------------------
# tower reports


class TowerReport:
    """Per-degree dimension data for the system n -> H(L/L^n)_q."""

    def __init__(
        self,
        degree: int,
        rows: list[dict],
        stabilized_from: Optional[int],
        method: str,
        notes: Optional[list[str]] = None,
    ):
        self.degree = degree
        self.rows = rows
        self.stabilized_from = stabilized_from
        self.method = method
        self.notes = notes or []

    def dims(self) -> list[int]:
        return [r["dim_H"] for r in self.rows]

    def image_dims(self) -> list[int]:
        return [r["dim_image"] for r in self.rows]

    def to_structured(self) -> dict:
        return {
            "degree": self.degree,
            "rows": [
                {
                    "n": r["n"],
                    "dim_H": r["dim_H"],
                    "dim_image": r["dim_image"],
                    "representatives": list(r["representatives"]),
                }
                for r in self.rows
            ],
            "stabilized_from": self.stabilized_from,
            "method": self.method,
            "notes": list(self.notes),
        }

    def to_text(self) -> str:
        lines = [f"tower at degree {self.degree} ({self.method})"]
        for r in self.rows:
            reps = ", ".join(r["representatives"])
            lines.append(
                f"  n={r['n']:>2}  dim H = {r['dim_H']}  image from n+1 = {r['dim_image']}  reps: {reps}"
            )
        if self.stabilized_from is not None:
            lines.append(
                f"  stabilized from n = {self.stabilized_from} (evidence over the computed range)"
            )
        else:
            lines.append("  no stabilization detected in the computed range")
        return "\n".join(lines)


def _detect_stabilization(
    pairs: list[tuple[int, int]], ns: list[int], suffix: int
) -> Optional[int]:
    if len(pairs) < suffix:
        return None
    last = pairs[-1]
    start = len(pairs) - 1
    while start > 0 and pairs[start - 1] == last:
        start -= 1
    if len(pairs) - start >= suffix:
        return ns[start]
    return None


def homology_tower(
    P: DglPresentation,
    q: int,
    n_range: Iterable[int],
    stab_suffix: int = 3,
) -> TowerReport:
    """Exact dims of H(L/L^n)_q over n, with connecting-map image dims.

    Degree 0 uses the bracket closure of d(V_1) (a single elimination at the
    top truncation, projected down).  In degree 0 the connecting maps are
    surjective -- the projections are surjective and every degree-0 element
    is a cycle -- so the image dimension equals dim H(L/L^n)_0.

    Other degrees read the presentation's kept matrices of d at the top
    truncation N = max(n) + 1.  Slice bases run shortest length first and
    d never lowers length, so with R_n(k) the number of degree-k basis
    elements of length < n, the differential D_q of L/L^n is the leading block
    D_q[:R_n(q-1), :R_n(q)] of the one at N.  Reducing the columns of each D
    once, left to right on the topmost row, gives every leading block's rank,
    cycles and boundaries, so dim H and representatives for every n, and
    the dimension of the image of H(L/L^{n+1})_q -> H(L/L^n)_q:

        dim_image(n) = C_n - rank D_q^(n+1) - rank D_{q+1}^(n) + rank Delta_n

    where C_n = dim (L/L^n)_q and Delta_n is the length-preserving part of d
    on the length-n elements.  The projection maps the boundaries of
    L/L^{n+1} onto those of L/L^n, and its kernel on the cycles of L/L^{n+1}
    is ker Delta_n.
    """
    ns = sorted(set(n_range))
    if not ns or ns[0] < 2:
        raise ValueError("tower range must consist of integers >= 2")
    if q == 0:
        return _tower_report(0, _degree0_rows(P, ns), ns, stab_suffix, "bracket-closure")
    return _tower_report(q, _tower_rows(P, q, ns), ns, stab_suffix, "quotient-complex")


def _tower_report(
    q: int, rows: Iterable[tuple], ns: list[int], stab_suffix: int, method: str
) -> TowerReport:
    """The report of tower rows (n, dim H, image dim, representatives)."""
    rows = [
        {"n": n, "dim_H": dim, "dim_image": image, "representatives": [r.pretty() for r in reps]}
        for n, dim, image, reps in rows
    ]
    stab = _detect_stabilization([(r["dim_H"], r["dim_image"]) for r in rows], ns, stab_suffix)
    return TowerReport(q, rows, stab, method)


def _degree0_rows(P: DglPresentation, ns: list[int]):
    """Yield the tower rows of H(L/L^n)_0 for each n in ns (see homology_tower)."""
    ech, sl = _degree0_boundary_closure(P, max(ns))
    for n in ns:
        quotient = _degree0_quotient(ech, sl, n)
        yield n, quotient.dim, quotient.dim, [sl.element(i) for i in quotient.kept]


def _tower_rows(P: DglPresentation, q: int, ns: list[int]):
    """Yield (n, dim H, image dim, representatives) of H(L/L^n)_q for each n
    in ns, read off the presentation's kept matrices of d at the top
    truncation N = max(ns) + 1 with one reduction each (see homology_tower)."""
    top = ns[-1] + 1
    kept_out = P.d_matrix(q, top, top)
    d_in, d_out = P.d_matrix(q + 1, top, top).matrix, kept_out.matrix
    # each leading block of the product is the product of the leading blocks
    if not d_out.compose(d_in).is_zero():
        raise NotAComplexError("composite differential is nonzero")
    above, mid, below = P.slice(q + 1, top), P.slice(q, top), P.slice(q - 1, top)
    # D_{q+1} needs no column combinations, and an untracked pass keeps its
    # rows primitive, which is much cheaper than a tracked one at large N
    reduced_in = IntEchelon()
    in_pivots = [reduced_in.insert(col) for col in d_in.columns()]
    out_cols = d_out.columns()
    reduced_out = kept_out.reduction()
    out_pivots = reduced_out.pivots
    relations = iter(reduced_out.echelon.relations)
    # reduced column j of D_q as a combination of the columns j' <= j
    combos = [next(relations) if p is None else reduced_out.echelon.combos[p] for p in out_pivots]

    def rank_in(n: int) -> int:
        return _leading_rank(in_pivots, mid.count_below(n), above.count_below(n))

    def rank_out(n: int) -> int:
        return _leading_rank(out_pivots, below.count_below(n), mid.count_below(n))

    def dim_h(n: int) -> int:
        return mid.count_below(n) - rank_out(n) - rank_in(n)

    for n in ns:
        c_n, c_next, r_n = mid.count_below(n), mid.count_below(n + 1), below.count_below(n)
        # a reduced column whose pivot is not above r_n vanishes on the rows
        # of L/L^n, so its combination is a cycle there; a reduced D_{q+1}
        # column with pivot above c_n, cut to those rows, is a boundary
        cycles = Subspace(
            c_n, [combos[j] for j in range(c_n) if out_pivots[j] is None or out_pivots[j] >= r_n]
        )
        boundaries = [
            {i: c for i, c in reduced_in.rows[p].items() if i < c_n}
            for p in in_pivots[: above.count_below(n)]
            if p is not None and p < c_n
        ]
        reps = Quotient(boundaries, cycles.basis).representatives
        dim = len(reps)
        if dim != dim_h(n):
            raise AssertionError(f"leading-block ranks give dim H = {dim_h(n)} at n = {n}, "
                                 f"the quotient of cycles by boundaries gives {dim}")
        # length-preserving part of d on the length-n elements
        delta = _block_rank(out_cols[c_n:c_next], r_n, below.count_below(n + 1))
        image_dim = c_n - rank_out(n + 1) - rank_in(n) + delta
        if not 0 <= image_dim <= min(dim, dim_h(n + 1)):
            raise AssertionError(f"connecting image dim {image_dim} at n = {n} is outside "
                                 f"[0, min(dim H(n), dim H(n+1))] = [0, {min(dim, dim_h(n + 1))}]")
        yield n, dim, image_dim, [mid.element_from_coords(r) for r in reps]


def _leading_rank(pivots: list[Optional[int]], rows: int, cols: int) -> int:
    """rank D[:rows, :cols], read off the column pivots of D.

    A reduced column is its original plus earlier columns; restricted to
    the first rows it is zero when its pivot is not above `rows`, and the
    pivots that are above are distinct."""
    return sum(1 for p in pivots[:cols] if p is not None and p < rows)


def _block_rank(cols: list[dict], lo: int, hi: int) -> int:
    """Rank of the rows lo..hi-1 of the given columns."""
    ech = IntEchelon()
    for col in cols:
        ech.insert({i: c for i, c in col.items() if lo <= i < hi})
    return ech.dim


# ---------------------------------------------------------------------------
# exact homology when every generator has positive degree


def exact_homology(P: DglPresentation, q: int) -> tuple[int, list[TensorElt]]:
    """H(L)_q when all generator degrees are >= 1 (degreewise finite).

    In that mode word length is bounded by degree, so L and every L/L^n with
    n > q agree in degree q: the tower rows at n = q+1, q+2, q+3 must agree,
    and the representatives are those of n = q+2.
    """
    if any(d == 0 for d in P.gens.degrees):
        raise UnsupportedModeError(
            "a degree-0 generator is present; the untruncated homology is not "
            "degreewise computable -- use homology_tower"
        )
    if q < 0:
        return 0, []
    rows = list(_tower_rows(P, q, [q + 1, q + 2, q + 3]))
    _, dim, _, reps = rows[1]
    for n, alt, _, _ in rows:
        if alt != dim:
            raise AssertionError(f"degreewise agreement with L/L^{n} failed at degree {q}")
    return dim, reps


# ---------------------------------------------------------------------------
# lower central series layers


class LcsLayer:
    def __init__(self, p: int, per_degree: dict[int, list[TensorElt]]):
        self.p = p
        self.per_degree = per_degree

    def dims(self) -> dict[int, int]:
        return {q: len(b) for q, b in self.per_degree.items()}


def lcs_basis(P: DglPresentation, p: int, t: Truncation) -> LcsLayer:
    """Basis of (L^p / L^{n_max})_q per degree; for a free Lie algebra the
    lower central series is the word-length filtration."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if p > t.n_max:
        raise TruncationError(f"p = {p} exceeds the truncation n_max = {t.n_max}")
    top_degree = min(t.d_max, (t.n_max - 1) * (max(P.gens.degrees) if P.gens.degrees else 0))
    per_degree: dict[int, list[TensorElt]] = {}
    for q in range(0, top_degree + 1):
        basis: list[TensorElt] = []
        for k in range(p, t.n_max):
            basis.extend(lie_basis(P.gens, k, q))
        if basis:
            per_degree[q] = basis
    return LcsLayer(p, per_degree)


# ---------------------------------------------------------------------------
# boundary solving in truncations and in the free algebra itself


class BoundaryResult:
    def __init__(
        self,
        status: str,
        witness: Optional[TensorElt],
        n_max: int,
        detail: str,
        kernel_dim: int = 0,
    ):
        self.status = status  # "SAT" | "UNSAT-within-bound"
        self.witness = witness
        self.n_max = n_max
        self.detail = detail
        self.kernel_dim = kernel_dim

    def to_structured(self) -> dict:
        return {
            "status": self.status,
            "witness": self.witness.pretty() if self.witness is not None else None,
            "n_max": self.n_max,
            "detail": self.detail,
            "kernel_dim": self.kernel_dim,
        }

    def __repr__(self):
        if self.status == "SAT":
            return f"SAT(witness={self.witness.pretty()})"
        return f"UNSAT-within-bound({self.detail})"


def boundary_solve(
    P: DglPresentation, target: TensorElt, t: Truncation, exact_in_l: bool = False
) -> BoundaryResult:
    """Search for u of word length < n_max with d(u) = target.

    By default the equation is solved in L / L^{n_max}.  With exact_in_l the
    equation must hold on the nose in the free algebra (no truncation of the
    image), so UNSAT means: no witness supported in word lengths < n_max.
    Every SAT witness is re-verified through the derivation.
    """
    if not extend_derivation(P, target).is_zero():
        raise DglError("target is not a d-cycle")
    degrees = target.degrees()
    if len(degrees) > 1:
        raise DglError(f"target is not degree-homogeneous: degrees {sorted(degrees)}")
    if not degrees:
        return BoundaryResult("SAT", zero(P.gens), t.n_max, "zero target")
    q, n = degrees.pop(), t.n_max
    src = P.slice(q + 1, n)
    n_tgt = n + P.max_shift() if exact_in_l else n
    dm = P.d_matrix(q + 1, n, n_tgt)
    got = dm.reduction().solve(P.slice(q, n_tgt).coords(target, strict=exact_in_l))
    where = "L" if exact_in_l else f"L/L^{n}"
    if got is None:
        return BoundaryResult(
            "UNSAT-within-bound",
            None,
            n,
            f"no witness of word length < {n} solves d(u) = target in {where}",
        )
    particular, kernel = got
    witness = src.element_from_coords({j: c * dm.den for j, c in particular.items()})
    check = extend_derivation(P, witness)
    want = target if exact_in_l else target.truncate_length(n)
    have = check if exact_in_l else check.truncate_length(n)
    if have != want:
        raise AssertionError("witness verification failed; this is a bug")
    return BoundaryResult("SAT", witness, n, f"verified in {where}", kernel.dim)


def witness_direction_space(
    P: DglPresentation, target: TensorElt, t: Truncation
) -> tuple[BoundaryResult, Subspace, DegreeSlice]:
    """The full affine solution set of d(u) = target in L/L^{n_max}."""
    res = boundary_solve(P, target, t)
    q = target.homogeneous_degree()
    if q is None:
        raise DglError("target is zero: it has no degree to take the direction space in")
    kernel = P.d_matrix(q + 1, t.n_max, t.n_max).reduction().kernel()
    return res, kernel, P.slice(q + 1, t.n_max)


class DMatrix:
    """One matrix of d, held by its presentation (`DglPresentation.d_matrix`):
    `matrix` = D * M with denominator `den` = D, as `_image_matrix` builds
    them, and its column reduction, built on first use."""

    def __init__(self, P: DglPresentation, q: int, n_src: int, n_tgt: int):
        forms = ((d, terms) for _, d, terms in P.slice(q, n_src).forms)
        self.matrix, self.den = _image_matrix(P, forms, P.slice(q - 1, n_tgt), n_tgt)
        self._reduction: Optional[ColumnReduction] = None

    def reduction(self) -> ColumnReduction:
        if self._reduction is None:
            self._reduction = ColumnReduction(self.matrix)
        return self._reduction


def _image_matrix(
    P: DglPresentation, forms: Iterable[tuple[int, dict]], target: DegreeSlice,
    n: Optional[int] = None,
) -> tuple[SparseMatrix, int]:
    """(D * M, D) for M the matrix whose column j is d(terms / den) for the
    j-th integer form (den, terms) of `forms`, with words of length >= n
    dropped when n is given, read in the basis of `target`, and D the least
    common denominator of the integer images.  D * M is an
    integer matrix with the kernel of M, and M x = b exactly when
    (D * M) x = D * b.  Every matrix of d is built here; `int_coords`
    checks each column once."""
    images = [(d * P._diff_den, _derive_int(P, terms, n)) for d, terms in forms]
    den = lcm(*(d for d, _ in images))
    cols = []
    for d, terms in images:
        col = target.int_coords(terms)
        cols.append(col if d == den else {i: c * (den // d) for i, c in col.items()})
    return SparseMatrix.from_columns(target.dim, cols), den


# ---------------------------------------------------------------------------
# top-length analysis: boundaries of witnesses with bounded top length


class ObstructionReport:
    """Per-length injectivity of the length-raising part of d, plus the exact
    space of boundaries admitting a witness of bounded top length.

    The injectivity table is the classical descent certificate; when the
    raising part has a kernel that certificate degenerates, so the report
    always carries the exact bounded-witness boundary space, from which
    `excludes(target)` decides "no witness of top length <= bound" outright.
    """

    def __init__(
        self,
        degree: int,
        lengths: list[int],
        injective: dict[int, bool],
        kernel_witness: dict[int, TensorElt],
        boundary_echelon: IntEchelon,
        boundary_slice: DegreeSlice,
        bound: int,
        vacuous: bool,
    ):
        self.degree = degree
        self.lengths = lengths
        self.injective = injective
        self.kernel_witness = kernel_witness
        self._boundaries = boundary_echelon
        self._slice = boundary_slice
        self.bound = bound
        self.vacuous = vacuous

    @property
    def certificate(self) -> bool:
        """True when the classical per-length certificate holds on the range."""
        return not self.vacuous and all(self.injective.values())

    def excludes(self, target: TensorElt) -> bool:
        """Exactly decide: target has no witness of top length <= bound."""
        return not self._boundaries.contains(self._slice.coords(target, strict=True))

    def to_structured(self) -> dict:
        return {
            "degree": self.degree,
            "lengths": list(self.lengths),
            "injective": {str(k): v for k, v in sorted(self.injective.items())},
            "witness_bound": self.bound,
            "classical_certificate": self.certificate,
            "vacuous": self.vacuous,
        }

    def to_text(self) -> str:
        lines = [f"top-length analysis at target degree {self.degree}, witness bound {self.bound}"]
        for l in self.lengths:
            flag = "injective" if self.injective[l] else "NOT injective"
            extra = ""
            if l in self.kernel_witness:
                extra = f" (kernel element {self.kernel_witness[l].pretty()})"
            lines.append(f"  raising part on length {l}: {flag}{extra}")
        lines.append(
            "  classical certificate holds"
            if self.certificate
            else "  classical certificate unavailable; bounded-witness space computed exactly"
        )
        return "\n".join(lines)


def top_length_obstruction(
    P: DglPresentation, degree: int, lengths: Iterable[int]
) -> ObstructionReport:
    """Analyze witnesses of bounded top length living in the given degree.

    Requires the differential to split into length-preserving and
    length-raising-by-one parts.  Reports, per length l in the range, whether
    the raising part is injective on the degree-`degree` length-l component
    (the classical descent certificate), and materializes the exact subspace
    of degree-(degree-1) elements that are boundaries of witnesses of top
    length <= max(range).
    """
    lengths = sorted(set(lengths))
    if not lengths or lengths[0] < 1:
        raise ValueError("length range must consist of integers >= 1")
    shifts = set()
    for val in P.diff.values():
        shifts.update(k - 1 for k in val.lengths())
    if not shifts <= {0, 1}:
        raise UnsupportedModeError(
            f"differential has length shifts {sorted(shifts)}; this analysis needs shifts in {{0, 1}}"
        )
    vacuous = 1 not in shifts
    bound = max(lengths)
    src = P.slice(degree, bound + 1)
    n_out = bound + 1 + max(P.max_shift(), 1)
    dm = P.d_matrix(degree, bound + 1, n_out)
    cols = dm.matrix.columns()
    out = P.slice(degree - 1, n_out)
    injective: dict[int, bool] = {}
    kernels: dict[int, TensorElt] = {}
    for l in lengths:
        first, stop = src.count_below(l), src.count_below(l + 1)
        # every shift is 0 or 1, so the raising part of d(b) is its length-(l+1) part
        lo, hi = out.count_below(l + 1), out.count_below(l + 2)
        raising = [{i: c for i, c in col.items() if lo <= i < hi} for col in cols[first:stop]]
        reduced = ColumnReduction(SparseMatrix.from_columns(out.dim, raising))
        injective[l] = reduced.rank == stop - first
        if not injective[l]:
            kernels[l] = src.element_from_coords(
                {first + i: c for i, c in reduced.kernel().basis[0].items()})
    return ObstructionReport(degree, lengths, injective, kernels, dm.reduction().echelon, out,
                             bound, vacuous)


# ---------------------------------------------------------------------------
# convergent series witnesses in the completion


class SeriesCheckReport:
    def __init__(self, verified: bool, checked: list[tuple[int, bool]], detail: str):
        self.verified = verified
        self.checked = checked
        self.detail = detail

    def to_structured(self) -> dict:
        return {
            "verified": self.verified,
            "checked": [{"n": n, "ok": ok} for n, ok in self.checked],
            "detail": self.detail,
        }


def completion_boundary_check(
    P: DglPresentation,
    series: Callable[[int], TensorElt],
    target: TensorElt,
    N: int,
) -> SeriesCheckReport:
    """Verify that d(sum_q series(q)) = target holds in L/L^n for all n <= N.

    The series must be length-escalating (series(q) supported in word lengths
    >= q+1) so that each truncation sees only finitely many terms.
    """
    terms = []
    for qi in range(0, N + 1):
        s = series(qi)
        if not s.is_zero() and (s.min_length() or 0) < qi + 1:
            raise DglError(
                f"series({qi}) has a word of length {s.min_length()} < {qi + 1}; "
                "not a well-defined completion element"
            )
        terms.append(s)
    checked = []
    ok_all = True
    for n in range(2, N + 1):
        partial = zero(P.gens)
        for qi in range(0, n):
            partial = partial + terms[qi]
        lhs = extend_derivation(P, partial).truncate_length(n)
        ok = lhs == target.truncate_length(n)
        checked.append((n, ok))
        if not ok:
            ok_all = False
            break
    detail = "verified" if ok_all else f"fails at n = {checked[-1][0]}"
    return SeriesCheckReport(ok_all, checked, detail)


# ---------------------------------------------------------------------------
# derived degree-0 bracket tables (these feed the pronilpotency auditor)


def h0_table_from_tower(P: DglPresentation, n: int):
    """Bracket table of the nilpotent Lie algebra H(L/L^n)_0.

    The degree-0 homology of the truncation is the quotient of the free
    nilpotent degree-0 part by the bracket closure of d(V_1); the returned
    table is that finite-dimensional Lie algebra on canonical representatives.
    """
    ech, sl = _degree0_boundary_closure(P, n)
    quotient = _degree0_quotient(ech, sl, n)
    reps = [sl.element(i) for i in quotient.kept]
    names = [f"h{i}" for i in range(len(reps))]
    brackets = {}
    for i, ri in enumerate(reps):
        for j in range(i, len(reps)):
            expr = quotient.coords(sl.coords(graded_bracket(ri, reps[j])))
            if expr is None:
                raise DglError("quotient bracket failed to close; this is a bug")
            entry = {names[k]: c for k, c in expr.items()}
            if entry:
                brackets[(names[i], names[j])] = entry
    table = FiniteLieData([(nm, 0) for nm in names], brackets, complete_degrees={0: True})
    return table, reps


def h0_table_bounded_window(P: DglPresentation, window: int, witness_bound: int):
    """Evidence-grade bracket table for the degree-0 homology of the free
    algebra itself (not of its completion).

    Within word lengths <= window, an element counts as a boundary exactly
    when it is d of an element of top length <= witness_bound.  The table is
    exact for witnesses within that bound; whether longer witnesses exist is
    outside any finite computation, so callers must treat the result as
    bounded evidence.  Returns (table, representatives, closed) where closed
    reports whether every representative bracket reduced inside the window.
    """
    if witness_bound < window:
        raise ValueError("witness bound must be at least the window")
    n_out = witness_bound + 2 + P.max_shift()
    out = P.slice(0, n_out)
    limit = out.count_below(window + 1)
    cols = P.d_matrix(1, witness_bound + 1, n_out).matrix.columns()
    # combinations of boundary columns supported inside the window:
    # kernel of the projection to the above-window coordinates
    high = [{i: c for i, c in col.items() if i >= limit} for col in cols]
    _, kernel, _ = reduce(SparseMatrix.from_columns(out.dim, high))
    boundary_ech = IntEchelon()
    for combo in kernel.basis:
        acc = _combine_columns(cols, combo)
        if any(i >= limit for i in acc):
            raise AssertionError("window intersection leaked long words")
        boundary_ech.insert(acc)
    quotient = Quotient(boundary_ech.rows.values(), ({i: 1} for i in range(limit)))
    reps = [out.element(i) for i in quotient.kept]
    names = [f"c{i}" for i in range(len(reps))]
    brackets = {}
    closed = True
    for i, ri in enumerate(reps):
        for j in range(i, len(reps)):
            val = graded_bracket(ri, reps[j])
            if (val.max_length() or 0) > window:
                closed = False
                continue
            expr = quotient.coords(out.coords(val))
            if expr is None:
                closed = False
                continue
            entry = {names[k]: c for k, c in expr.items()}
            if entry:
                brackets[(names[i], names[j])] = entry
    table = FiniteLieData([(nm, 0) for nm in names], brackets, complete_degrees={0: closed})
    return table, reps, closed


def h0_discrepancy_report(P: DglPresentation, t: Truncation) -> dict:
    """Compare the stabilized tower value of H_0 with the bounded-evidence
    degree-0 homology of the free algebra, and flag disagreement.

    A disagreement is exactly the situation where the inclusion into the
    completion fails to be a quasi-isomorphism in degree 0; the report also
    records that the exact (all-degrees >= 1) mode does not apply when
    degree-0 generators are present.
    """
    tower = homology_tower(P, 0, range(2, t.n_max + 1))
    window = max(2, min(3, t.n_max - 2))
    table, reps, closed = h0_table_bounded_window(P, window, t.n_max)
    tower_dim = tower.rows[-1]["dim_H"]
    free_dim = len(reps)
    exact_mode = all(d >= 1 for d in P.gens.degrees)
    return {
        "tower_dim": tower_dim,
        "tower_stabilized_from": tower.stabilized_from,
        "free_window_dim": free_dim,
        "free_window_closed": closed,
        "free_table": table,
        "free_representatives": [r.pretty() for r in reps],
        "discrepancy": tower_dim != free_dim,
        "exact_mode_applies": exact_mode,
        "note": (
            "degree-0 generators present: no exact untruncated mode; "
            "free-algebra values are bounded evidence"
            if not exact_mode
            else "all generator degrees >= 1: exact mode applies"
        ),
    }


def g_series(L, p: int, n: int):
    """Iterated bracket layers [L_0, [L_0, ... L_p]] of a finite bracket table."""
    return g_layer(L, p, n)
