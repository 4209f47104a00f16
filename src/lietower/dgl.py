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
    _elt,
    _standard_cut,
    decode_word,
    encode_word,
    eval_bracket_expr,
    graded_bracket,
    lie_basis,
    lie_piece,
    solve_unitriangular,
    zero,
)
from .linalg import (
    ColumnReduction,
    IntEchelon,
    InvariantError,
    NotAComplexError,
    Quotient,
    SparseMatrix,
    Subspace,
    _add_term,
    _clear_denominators,
    _combine_columns,
    _sub_in_place,
    complement_basis,
    gf2_pivots,
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
        # [P_x, P_y] in the Lyndon basis by pivot words (x, y): `_bracket_coords`
        self._bracket_cache: dict[tuple[str, str], dict[str, int]] = {}
        self._obstruction_cache: dict[tuple[int, tuple[int, ...]], ObstructionReport] = {}
        self._positive = all(d >= 1 for d in gens.degrees)
        # d(g) = terms / _diff_den with integer terms, by the str letter of g
        self._diff_den = lcm(*(c.denominator for v in self.diff.values() for c in v.terms.values()))
        self._int_diff = {
            chr(gens.index[name]): [
                (encode_word(w), c.numerator * (self._diff_den // c.denominator))
                for w, c in val.terms.items()
            ]
            for name, val in self.diff.items()
        }
        self._odd_letters = frozenset(chr(i) for i, d in enumerate(gens.degrees) if d % 2)

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


def _derive_int(P: DglPresentation, terms: dict[str, int]) -> dict[str, int]:
    """P._diff_den * d(terms) for an integer combination of str words, none
    dropped: a matrix of d derives only its generators' words, and
    `int_coords` drops the image words past the truncation.

    The Koszul sign is the parity of the prefix the operator moves past.
    """
    int_diff = P._int_diff
    odd = P._odd_letters
    acc: dict[str, int] = {}
    for word, a in terms.items():
        sign = a
        for i, g in enumerate(word):
            dg = int_diff.get(g)
            if dg is not None:
                for dw, dc in dg:
                    _add_term(acc, word[:i] + dw + word[i + 1 :], sign * dc)
            if g in odd:
                sign = -sign
    return acc


def _is_square(word: str) -> bool:
    """Whether a bracketing's pivot word is an odd square uu: a Lyndon word
    is never a square."""
    half = len(word) // 2
    return word[:half] * 2 == word


def _int_form(u: TensorElt) -> tuple[int, dict[str, int]]:
    """(D, D * u) with str words, for D the least common denominator of u."""
    den, terms = _clear_denominators(u.terms)
    return den, {encode_word(w): c for w, c in terms.items()}


def extend_derivation(P: DglPresentation, u: TensorElt) -> TensorElt:
    """Apply the degree -1 derivation extension of d to a tensor element.

    Exact: the image of a finite element is finite.  Sums run over integers,
    with u and d scaled by their common denominators.
    """
    den, scaled = _int_form(u)
    return _elt(P.gens, _derive_int(P, scaled), den * P._diff_den)


def d_image(P: DglPresentation, u: TensorElt) -> TensorElt:
    """d(u), cached on P.

    The key is u's integer form, its words and numerators in term order, so
    no Fraction is hashed; elements taken from a basis always list their
    terms in the same order.
    """
    den, terms = _int_form(u)
    key = (den, tuple(terms), tuple(terms.values()))
    cached = P._d_cache.get(key)
    if cached is None:
        cached = _elt(P.gens, _derive_int(P, terms), den * P._diff_den)
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
# coordinates for (L/L^n)_q in the bracketing and echelon bases of each piece


class DegreeSlice:
    """Basis bookkeeping for the degree-q slice of L/L^n.

    The slice has two bases, both ordered by piece, shortest length first, so
    the slice of L/L^m for m <= n is the leading block of the first
    `count_below(m)` elements of either.  The bracketing basis is the Lyndon
    bracketings and odd squares of each (length, degree) piece
    (`freelie.LiePiece`, shared with every other slice of the piece), named
    by their `pivots`.  Their word terms and T, their unitriangular matrix
    at the pivot words, held by its columns below the diagonal, are filled
    in per piece (`_forms`, `_lower`) on the first read of a piece that
    needs them (`_expand`).  The echelon basis is the reduced echelon
    basis of each piece, element i = sum_m S[m, i] * P_m with S = T^-1;
    neither its elements nor S are stored, and `basis_coeffs` applies S by
    forward substitution over T.  Element i has coefficient 1 at pivot word
    i and 0 at every other pivot word, so an element's echelon coordinates
    are its coefficients at the pivot words and its bracketing coordinates
    are S times those.  Matrices of d are read in the bracketing basis
    (`int_coords`), and every vector a report or a solver reads is in the
    echelon basis (`coords`, `element_from_coords`); `echelon_coords` maps
    the first to the second.  Words are str in the slice and tuples in
    a TensorElt: `element(i)`, `coords` and `element_from_coords` convert
    one element's words, never the slice's.  `P.slice(q, n)` builds each
    slice once.
    """

    def __init__(self, P: DglPresentation, q: int, n: int):
        self.P = P
        self.q = q
        self.n = n
        # the piece of each length 1 .. n - 1
        self._pieces = [lie_piece(P.gens, k, q) for k in range(1, n)] if q >= 0 else []
        self.pivots = [pivot for piece in self._pieces for pivot in piece.pivots]
        self.lengths = [len(pivot) for pivot in self.pivots]
        self._pivot = {pivot: i for i, pivot in enumerate(self.pivots)}
        # the word terms of bracketing i and column i of T below its diagonal,
        # as (offset of its piece, column over the piece), once it is expanded
        self._forms: list[Optional[dict[str, int]]] = [None] * self.dim
        self._lower: list[Optional[tuple[int, dict[int, int]]]] = [None] * self.dim
        # the lengths of the nonempty pieces not expanded yet
        self._pending = {k for k, piece in enumerate(self._pieces, 1) if piece.pivots}

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def _expand(self, lengths: Iterable[int]) -> None:
        """Fill in the bracketings and T of the pieces of these word lengths,
        each built on its first demand (`freelie.LiePiece.expand`)."""
        for k in self._pending.intersection(lengths):
            bracketings, lower = self._pieces[k - 1].expand()
            offset = self.count_below(k)
            stop = offset + len(bracketings)
            self._forms[offset:stop] = bracketings
            self._lower[offset:stop] = [(offset, col) for col in lower]
            self._pending.discard(k)

    def count_below(self, m: int) -> int:
        """Number of basis elements of word length < m."""
        return bisect_left(self.lengths, m)

    def element(self, i: int) -> TensorElt:
        """Echelon basis element i as a TensorElt, expanded through the bracketings."""
        return self.element_from_coords({i: 1})

    def coords(self, u: TensorElt, strict: bool = False) -> dict[int, Fraction]:
        """Coordinates of u in the echelon basis of the slice, read off its
        pivot words once `int_coords` has checked that u is in the slice.

        Words of length >= n are dropped, or raise TruncationError when
        strict.
        """
        den, terms = _int_form(u)
        self.int_coords(terms, strict)
        return {i: Fraction(c, den) for i, c in self._pivot_coeffs(terms).items()}

    def _pivot_coeffs(self, terms: dict[str, int]) -> dict[int, int]:
        """The coefficients of terms at the pivot words, by index: its
        echelon coordinates when terms is in the slice, since T * S = 1."""
        pivot = self._pivot
        return dict(sorted((pivot[w], c) for w, c in terms.items() if w in pivot))

    def int_coords(self, terms: dict[str, int], strict: bool = False) -> dict[int, int]:
        """Bracketing coordinates a of an integer combination of str words
        with no stored zeros, terms = sum_m a_m * P_m, which are
        integers: a = S * x for x its coefficients at the pivot words.

        Membership in the slice is verified exactly: the bracketings times a
        must give terms back.  Only the pieces of x's word lengths are
        expanded.
        """
        # matrix images are already cut at n: copy only when a word reaches it
        if terms and max(map(len, terms)) >= self.n:
            if strict:
                w = next(w for w in terms if len(w) >= self.n)
                raise TruncationError(f"word length {len(w)} exceeds coordinate bound {self.n - 1}")
            terms = {w: c for w, c in terms.items() if len(w) < self.n}
        coords = self.basis_coeffs(self._pivot_coeffs(terms))
        if _combine_columns(self._forms, coords) != terms:
            gens = self.P.gens
            for w in map(decode_word, terms):
                if gens.word_degree(w) != self.q:
                    raise DglError(f"word of (length, degree) ({len(w)}, {gens.word_degree(w)}) "
                                   f"is outside the degree-{self.q} slice")
            raise DglError(f"element is not in the degree-{self.q} slice of L/L^{self.n}")
        return coords

    def echelon_coords(self, vec: dict[int, int]) -> dict[int, int]:
        """T * vec: echelon coordinates of the element with bracketing
        coordinates vec.  T is block-diagonal by piece, so a vector cut to a
        leading block maps into that block."""
        if self._pending:
            self._expand(map(self.lengths.__getitem__, vec))
        acc = dict(vec)
        for m, c in vec.items():
            offset, col = self._lower[m]
            for k, t in col.items():
                k += offset
                s = acc.get(k, 0) + c * t
                if s:
                    acc[k] = s
                else:
                    del acc[k]
        return acc

    def basis_coeffs(self, num: dict[int, int]) -> dict[int, int]:
        """S * num: sum_i num[i] * element(i) over the bracketings,
        by forward substitution over T (`freelie.solve_unitriangular`),
        which never leaves the pieces of num's indices."""
        if self._pending:
            self._expand(map(self.lengths.__getitem__, num))
        return solve_unitriangular(self._lower, num)

    def int_element(self, vec: dict[int, Fraction]) -> tuple[int, dict[str, int]]:
        """(D, D * u) with str words for the element u with echelon coordinates vec."""
        den, num = _clear_denominators(vec)
        return den, _combine_columns(self._forms, self.basis_coeffs(num))

    def element_from_coords(self, vec: dict[int, Fraction]) -> TensorElt:
        den, terms = self.int_element(vec)
        return _elt(self.P.gens, terms, den)


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

    Every degree reads the presentation's kept matrices of d at the top
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

    rank D_{q+1}^(n) lies between two exact bounds: its rank mod 2 below
    and dim Z(n) = C_n - rank D_q^(n) above.  When they meet at every n of
    the range and at n + 1, every dim H is 0 with no exact elimination of
    D_{q+1}; any gap runs that elimination.

    In degree 0, D_0 maps into the empty degree -1 slice, so every element
    of (L/L^n)_0 is a cycle, the cycle combinations are unit vectors and
    the representatives are kept unit vectors of the slice.  The boundaries
    are the column space of D_1: d is zero on the degree-0 generators, so
    d(L_1) is the bracket closure of d(V_1) under ad(L_0).  The connecting
    maps are surjective, dim_image(n) = C_n - rank D_1^(n) = dim H(L/L^n)_0,
    and the certificate holds only when H(L/L^n)_0 = 0 at every n.  The
    degree-0 report keeps the method label "bracket-closure": it still names
    that closure, and every structured report carries it.
    """
    ns = sorted(set(n_range))
    if not ns or ns[0] < 2:
        raise ValueError("tower range must consist of integers >= 2")
    method = "bracket-closure" if q == 0 else "quotient-complex"
    rows = [
        {"n": n, "dim_H": dim, "dim_image": image, "representatives": [r.pretty() for r in reps]}
        for n, dim, image, reps in _tower_rows(P, q, ns)
    ]
    stab = _detect_stabilization([(r["dim_H"], r["dim_image"]) for r in rows], ns, stab_suffix)
    return TowerReport(q, rows, stab, method)


def _tower_rows(P: DglPresentation, q: int, ns: list[int]):
    """Yield (n, dim H, image dim, representatives) of H(L/L^n)_q for each n
    in ns, read off the presentation's kept matrices of d at the top
    truncation N = max(ns) + 1 with at most one exact reduction each (see
    homology_tower).

    Every matrix is read in the bracketing bases (`DMatrix.columns`): B =
    S * D * T for the echelon matrix D, with S and T block-diagonal by
    length and unitriangular over Z.  So every leading block of B has the
    rank of D's, over Q and mod 2, the length-preserving blocks too;
    B_q B_{q+1} = 0 exactly when D_q D_{q+1} = 0; and the cycles and
    boundaries of a leading block of D are T times those of B.

    rank D_{q+1}^(n) has two exact bounds.  From below, its rank mod 2: the
    matrix is an integer one, and a nonzero minor mod 2 is nonzero over Z.
    From above, dim Z(n) = C_n - rank D_q^(n), read off the tracked
    reduction of B_q, since B_q B_{q+1} = 0 is checked exactly.  When the
    two meet at every n of the range and at n + 1, every dim H is 0 and
    B_{q+1} is never eliminated over Q; otherwise its exact untracked
    elimination gives the ranks and the boundaries, and the cycles and
    boundaries go to the echelon basis through T, where the representatives
    are chosen.  At q = 0, D_0 is the empty-target matrix, every reduced
    column is zero and every cycle combination a unit vector, so the
    boundaries are D_1's columns and the connecting maps are surjective."""
    top = ns[-1] + 1
    out_cols = P.d_matrix(q, top, top).columns
    in_cols = P.d_matrix(q + 1, top, top).columns
    # each leading block of the product is the product of the leading blocks
    if any(_combine_columns(out_cols, col) for col in in_cols):
        raise NotAComplexError("composite differential is nonzero")
    above, mid, below = P.slice(q + 1, top), P.slice(q, top), P.slice(q - 1, top)
    reduced_out = IntEchelon(track=True)
    out_pivots = [reduced_out.insert(col) for col in out_cols]
    relations = iter(reduced_out.relations)
    # reduced column j of B_q as a combination of the columns j' <= j
    combos = [next(relations) if p is None else reduced_out.combos[p] for p in out_pivots]

    def rank_out(n: int) -> int:
        return _leading_rank(out_pivots, below.count_below(n), mid.count_below(n))

    def cycle_dim(n: int) -> int:
        return mid.count_below(n) - rank_out(n)

    in_pivots = gf2_pivots(in_cols)
    certified = True
    for n in sorted({*ns, *(n + 1 for n in ns)}):
        lower = _leading_rank(in_pivots, mid.count_below(n), above.count_below(n))
        if lower > cycle_dim(n):
            raise InvariantError(f"D_{q + 1} of L/L^{n} has rank {lower} mod 2, "
                                 f"above the cycle dimension {cycle_dim(n)}")
        certified = certified and lower == cycle_dim(n)
    if not certified:
        # B_{q+1} needs no column combinations, and an untracked pass keeps
        # its rows primitive, which is much cheaper than a tracked one at large N
        reduced_in = IntEchelon()
        in_pivots = [reduced_in.insert(col) for col in in_cols]

    def rank_in(n: int) -> int:
        return _leading_rank(in_pivots, mid.count_below(n), above.count_below(n))

    def dim_h(n: int) -> int:
        return cycle_dim(n) - rank_in(n)

    for n in ns:
        c_n, c_next, r_n = mid.count_below(n), mid.count_below(n + 1), below.count_below(n)
        # a reduced column whose pivot is not above r_n vanishes on the rows
        # of L/L^n, so its combination is a cycle there; a reduced B_{q+1}
        # column with pivot above c_n, cut to those rows, is a boundary
        cycles = [combos[j] for j in range(c_n) if out_pivots[j] is None or out_pivots[j] >= r_n]
        if certified:
            # only the span's dimension is read; each combination has its own
            # highest index, which is its pivot in a Quotient's reversed echelon,
            # so building one takes no elimination step
            span = c_n - Quotient(cycles, c_n).dim
            if span != cycle_dim(n):
                raise InvariantError(f"the cycle combinations span {span} dimensions at n = {n}, "
                                     f"the pivots of D_{q} give {cycle_dim(n)}")
            reps = []
        else:
            # in the echelon basis, where the representatives are the first
            # cycles; Subspace and complement_basis read only the spans
            boundaries = [
                mid.echelon_coords({i: c for i, c in reduced_in.rows[p].items() if i < c_n})
                for p in in_pivots[: above.count_below(n)]
                if p is not None and p < c_n
            ]
            # the boundaries lie in the cycles: d o d = 0 was checked exactly above
            reps = complement_basis(Subspace(c_n, map(mid.echelon_coords, cycles)), boundaries)
        dim = len(reps)
        if dim != dim_h(n):
            raise InvariantError(f"leading-block ranks give dim H = {dim_h(n)} at n = {n}, "
                                 f"the quotient of cycles by boundaries gives {dim}")
        # length-preserving part of d on the length-n elements
        delta = _block_rank(out_cols[c_n:c_next], r_n, below.count_below(n + 1))
        image_dim = c_n - rank_out(n + 1) - rank_in(n) + delta
        if not 0 <= image_dim <= min(dim, dim_h(n + 1)):
            raise InvariantError(f"connecting image dim {image_dim} at n = {n} is outside "
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
            raise InvariantError(f"degreewise agreement with L/L^{n} failed at degree {q}")
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
    Every SAT witness is re-verified through the derivation, on str words.
    """
    t_den, t_terms = _int_form(target)
    if _derive_int(P, t_terms):
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
    # the reduction is over B * S_src, so the right-hand side is S_tgt times
    # the target's echelon coordinates: its bracketing coordinates
    rhs = P.slice(q, n_tgt).int_coords(t_terms, strict=exact_in_l)
    red = dm.reduction()
    particular = red.particular({i: Fraction(c, t_den) for i, c in rhs.items()})
    where = "L" if exact_in_l else f"L/L^{n}"
    if particular is None:
        return BoundaryResult(
            "UNSAT-within-bound",
            None,
            n,
            f"no witness of word length < {n} solves d(u) = target in {where}",
        )
    den, terms = src.int_element({j: c * dm.den for j, c in particular.items()})
    # d(witness) = image / (den * P._diff_den) must equal target = t_terms / t_den,
    # below length n unless exact_in_l
    image = _derive_int(P, terms)
    limit = sys.maxsize if exact_in_l else n
    have = {w: c * t_den for w, c in image.items() if len(w) < limit}
    want = {w: c * den * P._diff_den for w, c in t_terms.items() if len(w) < limit}
    if have != want:
        raise InvariantError("witness verification failed; this is a bug")
    return BoundaryResult("SAT", _elt(P.gens, terms, den), n, f"verified in {where}", red.cols - red.rank)


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


def _bracket_coords(P: DglPresentation, x: str, dx: int, y: str, dy: int) -> dict[str, int]:
    """Bracketing coordinates of [P_x, P_y], as integer coefficients by
    pivot word, for the basis elements P_x and P_y of degrees dx and dy
    with pivot words x and y: Lyndon bracketings, or odd squares uu for
    P_u P_u = [P_u, P_u] / 2.  Memoized on P (`_bracket_cache`); no word is
    expanded.

    The classical rewrite on Hall and Lyndon bases (Reutenauer, Free Lie
    Algebras, 1993, Sec. 4-5), graded, by the Jacobi identity on standard
    factorizations (`freelie._standard_cut`):
      1. x = y: 2 P_xx when x has odd degree, so that x is a Lyndon word,
         else 0;
      2. x > y: -(-1)^{|x||y|} [P_y, P_x];
      3. y = xx: 0, since [u, [u, u]] = 0 for odd u;
      4. x = uu: [P_u, [P_u, P_y]], since [[u, u], y] = 2 [u, [u, y]];
      5. y = vv: -[P_v, [P_v, P_x]], since [x, [v, v]] = -2 [v, [v, x]];
      6. x a letter or x's right standard factor >= y: P_xy, since xy is
         then a Lyndon word with standard factorization (x, y) (Lothaire,
         Combinatorics on Words, Prop. 5.1.3-5.1.4);
      7. else x = ab, its standard factorization, and
         [P_x, P_y] = [P_a, [P_b, P_y]] + (-1)^{|b||y|} [[P_a, P_y], P_b].
    Inner brackets are rewritten first and the outer ones term by term, so
    every coefficient stays an integer.
    """
    memo = P._bracket_cache
    got = memo.get((x, y))
    if got is not None:
        return got
    if x == y:
        got = {x + x: 2} if dx % 2 else {}
    elif x > y:
        sign = 1 if dx * dy % 2 else -1
        got = {w: sign * c for w, c in _bracket_coords(P, y, dy, x, dx).items()}
    elif y == x + x:
        got = {}
    elif _is_square(x):
        u, du = x[: len(x) // 2], dx // 2
        got = _outer_brackets(P, u, du, _bracket_coords(P, u, du, y, dy), du + dy, 1)
    elif _is_square(y):
        v, dv = y[: len(y) // 2], dy // 2
        got = _outer_brackets(P, v, dv, _bracket_coords(P, v, dv, x, dx), dv + dx, -1)
    else:
        cut = _standard_cut(P.gens, x, dx)
        if not cut or x[cut:] >= y:
            got = {x + y: 1}
        else:
            a, b = x[:cut], x[cut:]
            da = P.gens.word_degree(map(ord, a))
            db = dx - da
            got = _outer_brackets(P, a, da, _bracket_coords(P, b, db, y, dy), db + dy, 1)
            for w, c in _bracket_coords(P, a, da, y, dy).items():
                for z, t in _bracket_coords(P, w, da + dy, b, db).items():
                    _add_term(got, z, (-c if db * dy % 2 else c) * t)
    memo[x, y] = got
    return got


def _outer_brackets(P: DglPresentation, u: str, du: int, inner: dict[str, int], dw: int,
                    sign: int) -> dict[str, int]:
    """sign * sum_w inner[w] [P_u, P_w] in the Lyndon basis, for inner by
    pivot words w of degree dw."""
    out: dict[str, int] = {}
    for w, c in inner.items():
        for z, t in _bracket_coords(P, u, du, w, dw).items():
            _add_term(out, z, sign * c * t)
    return out


class DMatrix:
    """One matrix of d, held by its presentation (`DglPresentation.d_matrix`).

    M is the matrix of d from the degree-q slice of L/L^n_src to the
    degree-(q-1) slice of L/L^n_tgt, image words of length >= n_tgt
    dropped, and D = `den` is the common denominator of d on the
    generators.  It is built once, as B = D * M in the bracketing bases:
    column m of `columns` holds the bracketing coordinates of D * d(P_m) for
    the m-th bracketing P_m of the source, so B is an integer matrix and no
    reduced echelon element is expanded.  A generator's column is d(g) read
    back by `int_coords`, which checks the image exactly; every longer
    bracketing's column is built from the columns of its standard factors
    by the Leibniz rule (`_leibniz`), with each bracket of two basis
    elements rewritten in the Lyndon basis (`_bracket_coords`), so no word
    of it is expanded and the source's pieces build no word terms.  With an
    empty target slice every column is zero and nothing is derived.

    Its one derived form is `bs_columns`, B * S_src: D * M from the source's
    echelon basis to the target's bracketing basis, built on first use by
    back-substitution over the source's T, so S is not built for it.  The
    echelon matrix T_tgt * B * S_src differs from it by T_tgt on the left,
    which is invertible, so the two have the same linear relations among
    their columns: the same pivot columns and kernel, and (B * S_src) y =
    S_tgt * x exactly when (T_tgt * B * S_src) y = x, with the same
    solution supported on the pivot columns.  So `reduction`, the tracked
    column reduction of every solve, runs over B * S_src and expands no
    target piece, and `matrix`, T_tgt applied to those columns, is formed
    on first use only for the readers of echelon coordinates.  Both have
    the kernel of M, and M x = b exactly when (D * M) x = D * b.  T and S
    are block-diagonal by length and unitriangular over Z, so every leading
    block of B has the rank of that of `matrix`, over Q and mod every
    prime, and the length blocks of B * S_src have the ranks and kernels of
    those of `matrix`.
    """

    def __init__(self, P: DglPresentation, q: int, n_src: int, n_tgt: int):
        src, tgt = P.slice(q, n_src), P.slice(q - 1, n_tgt)
        self.den = P._diff_den
        self._slices = (src, tgt)
        self._bs: Optional[list[dict[int, int]]] = None
        self._matrix: Optional[SparseMatrix] = None
        self._reduction: Optional[ColumnReduction] = None
        if not tgt.dim:
            self.columns: list[dict[int, int]] = [{} for _ in range(src.dim)]
            return
        self.columns = []
        for pivot in src.pivots:
            if len(pivot) > 1:
                self.columns.append(self._leibniz(P, pivot))
            else:
                self.columns.append(tgt.int_coords(_derive_int(P, {pivot: 1})))

    def _leibniz(self, P: DglPresentation, pivot: str) -> dict[int, int]:
        """The column of the source bracketing with this pivot word, of
        length >= 2, from the columns of its standard factors.

        For P_m = [P_u, P_v] (`freelie._standard_cut`), d being a derivation
        of degree -1,

            B[:, m] = sum_a B_u[a] [P_a, P_v] + (-1)^{|u|} sum_b B_v[b] [P_u, P_b],

        and for an odd square P_u P_u = [P_u, P_u] / 2 it is sum_a B_u[a]
        [P_a, P_u].  B_u is u's column in the kept matrix of d of u's degree:
        this one, built earlier since u is shorter, when |u| = q.  d is zero
        in degree 0, and a bracket of length >= the target's n is dropped.
        Each bracket is rewritten in the Lyndon basis by pivot words
        (`_bracket_coords`) and read at the target's indices of those words.
        """
        src, tgt = self._slices
        q, pivot_index = src.q, tgt._pivot
        if _is_square(pivot):
            u = pivot[: len(pivot) // 2]
            parts = [(u, q // 2, u, 1)]
        else:
            cut = _standard_cut(P.gens, pivot, q)
            u, v = pivot[:cut], pivot[cut:]
            du = sum(P.gens.degrees[ord(g)] for g in u)
            dv = q - du
            # (-1)^{|u|} [P_u, P_b] = -(-1)^{|u||v|} [P_b, P_u], since |b| = |v| - 1
            parts = [(u, du, v, 1), (v, dv, u, 1 if du * dv % 2 else -1)]
        col: dict[int, int] = {}
        for f, df, g, sign in parts:
            if not df:
                continue
            if df == q:
                image, image_slice = self.columns[src._pivot[f]], tgt
            else:
                dm = P.d_matrix(df, src.n, tgt.n)
                image, image_slice = dm.columns[dm._slices[0]._pivot[f]], dm._slices[1]
            room = tgt.n - len(g)
            for a, c in image.items():
                if image_slice.lengths[a] < room:
                    for w, t in _bracket_coords(P, image_slice.pivots[a], df - 1, g, q - df).items():
                        _add_term(col, pivot_index[w], sign * c * t)
        # in increasing index order, as int_coords gives the word-path columns
        return dict(sorted(col.items()))

    @property
    def bs_columns(self) -> list[dict[int, int]]:
        """B * S_src by its columns, built on first use."""
        if self._bs is None:
            src = self._slices[0]
            # C = B * S_src, that is C * T_src = B: by back-substitution,
            # column m of C is column m of B minus T_src[k, m] times column k
            # of C for the k > m of its piece
            cols = [dict(col) for col in self.columns]
            src._expand(range(1, src.n))
            for m in reversed(range(len(cols))):
                offset, lower = src._lower[m]
                for k, t in lower.items():
                    _sub_in_place(cols[m], t, cols[offset + k])
            self._bs = cols
        return self._bs

    @property
    def matrix(self) -> SparseMatrix:
        """The echelon matrix T_tgt * B * S_src, formed on first use."""
        if self._matrix is None:
            tgt = self._slices[1]
            self._matrix = SparseMatrix.from_columns(tgt.dim, list(map(tgt.echelon_coords, self.bs_columns)))
        return self._matrix

    def reduction(self) -> ColumnReduction:
        """The tracked column reduction of B * S_src, built on first use.

        The matrix with the same source and a shorter target n' is this one
        cut to its rows of length < n', since the target bases nest: when
        the presentation keeps such a reduction, the tallest one is extended
        to this one (`ColumnReduction.extend`) instead of a pass over these
        columns."""
        if self._reduction is None:
            src, tgt = self._slices
            shorter = [dm for (q, n_src, n_tgt), dm in src.P._matrix_cache.items()
                       if (q, n_src) == (src.q, src.n) and n_tgt < tgt.n and dm._reduction is not None]
            if shorter:
                kept = max(shorter, key=lambda dm: dm._slices[1].n)._reduction
                self._reduction = ColumnReduction.extend(kept, tgt.dim, self.bs_columns)
            else:
                self._reduction = ColumnReduction(tgt.dim, self.bs_columns)
        return self._reduction


# ---------------------------------------------------------------------------
# top-length analysis: boundaries of witnesses with bounded top length


class ObstructionReport:
    """Per-length injectivity of the length-raising part of d, plus the exact
    space of boundaries admitting a witness of bounded top length.

    The injectivity table is the classical descent certificate; when the
    raising part has a kernel that certificate degenerates, so the report
    always carries the exact bounded-witness boundary space, from which
    `excludes(target)` decides "no witness of top length <= bound" outright.

    `raising` maps each length l that is not injective to (first, columns):
    the raising part's columns on the length-l basis elements of the
    witness slice, which start at index first.  A kernel element of each is
    computed on the first read of `kernel_witness`.
    """

    def __init__(
        self,
        degree: int,
        lengths: list[int],
        injective: dict[int, bool],
        raising: dict[int, tuple[int, list[dict[int, int]]]],
        witness_slice: DegreeSlice,
        boundary_echelon: IntEchelon,
        boundary_slice: DegreeSlice,
        bound: int,
        vacuous: bool,
    ):
        self.degree = degree
        self.lengths = lengths
        self.injective = injective
        self._raising = raising
        self._witnesses = witness_slice
        self._kernel_witness: Optional[dict[int, TensorElt]] = None
        self._boundaries = boundary_echelon
        self._slice = boundary_slice
        self.bound = bound
        self.vacuous = vacuous

    @property
    def kernel_witness(self) -> dict[int, TensorElt]:
        """A kernel element of the raising part on each length where it is
        not injective: the first vector of its kernel's reduced echelon basis."""
        if self._kernel_witness is None:
            self._kernel_witness = {}
            for l, (first, cols) in self._raising.items():
                kernel = ColumnReduction(self._slice.dim, cols).kernel()
                self._kernel_witness[l] = self._witnesses.element_from_coords(
                    {first + i: c for i, c in kernel.basis[0].items()})
        return self._kernel_witness

    @property
    def certificate(self) -> bool:
        """True when the classical per-length certificate holds on the range."""
        return not self.vacuous and all(self.injective.values())

    def excludes(self, target: TensorElt) -> bool:
        """Exactly decide: target has no witness of top length <= bound.
        The boundary space is the echelon of the reduction of B * S_src, so
        it is read in bracketing coordinates."""
        return not self._boundaries.contains(self._slice.int_coords(_int_form(target)[1], strict=True))

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
        lines = [f"top-length analysis at target degree {self.degree - 1}, witness degree {self.degree}, "
                 f"witness bound {self.bound}"]
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
    length <= max(range).  Each report is built once per (degree, lengths)
    and kept on P.
    """
    lengths = sorted(set(lengths))
    if not lengths or lengths[0] < 1:
        raise ValueError("length range must consist of integers >= 1")
    key = (degree, tuple(lengths))
    if key in P._obstruction_cache:
        return P._obstruction_cache[key]
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
    # T_tgt is block-diagonal by length: a length block of B * S_src has the
    # rank and the kernel of that of the echelon matrix
    cols = dm.bs_columns
    out = P.slice(degree - 1, n_out)
    injective: dict[int, bool] = {}
    blocks: dict[int, tuple[int, list[dict[int, int]]]] = {}
    for l in lengths:
        first, stop = src.count_below(l), src.count_below(l + 1)
        # every shift is 0 or 1, so the raising part of d(b) is its length-(l+1) part
        lo, hi = out.count_below(l + 1), out.count_below(l + 2)
        raising = [{i: c for i, c in col.items() if lo <= i < hi} for col in cols[first:stop]]
        span = IntEchelon()
        for col in raising:
            span.insert(col)
        injective[l] = span.dim == stop - first
        if not injective[l]:
            blocks[l] = first, raising
    report = ObstructionReport(degree, lengths, injective, blocks, src, dm.reduction().echelon, out,
                               bound, vacuous)
    P._obstruction_cache[key] = report
    return report


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

    The degree-0 homology of the truncation is the free nilpotent degree-0
    part (L/L^n)_0 modulo the bracket closure of d(V_1) under ad(L_0), which
    is the image of d.  It is read off the kept matrix of d out of degree 1
    at n + 1, the one the degree-0 tower up to n reads: d never lowers
    length, so its columns cut to the rows of (L/L^n)_0 span that image.
    The returned table is that finite-dimensional Lie algebra on the kept
    unit vectors of the quotient, the tower's representatives.
    """
    sl = P.slice(0, n)
    # the columns of B cut to the rows of sl, in sl's echelon basis: T is
    # block-diagonal by piece, and S is invertible, so they span what those
    # of the echelon matrix of d do
    cols = P.d_matrix(1, n + 1, n + 1).columns
    quotient = Quotient((sl.echelon_coords({i: c for i, c in col.items() if i < sl.dim})
                         for col in cols), sl.dim)
    table, reps, _ = _h0_bracket_table(sl, quotient, "h", None)
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
            raise InvariantError("window intersection leaked long words")
        boundary_ech.insert(acc)
    return _h0_bracket_table(out, Quotient(boundary_ech.rows.values(), limit), "c", window)


def _h0_bracket_table(sl: DegreeSlice, quotient: Quotient, prefix: str, window: Optional[int]):
    """(table, reps, closed): the bracket table of the degree-0 quotient on
    the kept unit vectors of `quotient`, the elements reps of the slice sl
    named prefix + index.  With a window, a bracket with a word longer than
    it is left out of the table, and closed is False."""
    reps = [sl.element(i) for i in quotient.kept]
    names = [f"{prefix}{i}" for i in range(len(reps))]
    brackets = {}
    closed = True
    for i, ri in enumerate(reps):
        for j in range(i, len(reps)):
            val = graded_bracket(ri, reps[j])
            if window is not None and (val.max_length() or 0) > window:
                closed = False
                continue
            entry = {names[k]: c for k, c in quotient.coords(sl.coords(val)).items()}
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
