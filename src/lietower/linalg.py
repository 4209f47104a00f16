"""Exact sparse linear algebra over the rationals.

Vectors are dicts {coordinate index: Fraction}, with no stored zeros.
Matrices are sparse maps (row, col) -> Fraction.  Everything is computed
with exact rational arithmetic; there is no floating point anywhere.

Canonical forms: subspaces are always stored in reduced row echelon form
with the leftmost-lowest-index pivot rule, so equality of subspaces is a
coordinate-wise comparison and every result is deterministic regardless
of insertion order or scheduling.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Optional

Vec = dict[int, Fraction]


class LinalgError(ValueError):
    pass


class DimensionMismatch(LinalgError):
    pass


class ContainmentError(LinalgError):
    pass


class NotAComplexError(LinalgError):
    pass


def vec_clean(v: dict) -> Vec:
    return {i: Fraction(c) for i, c in v.items() if c}


def vec_add(u: Vec, v: Vec, scale: Fraction = Fraction(1)) -> Vec:
    out = dict(u)
    for i, c in v.items():
        s = out.get(i, 0) + scale * c
        if s:
            out[i] = s
        else:
            out.pop(i, None)
    return out


def vec_scale(v: Vec, scale: Fraction) -> Vec:
    if not scale:
        return {}
    return {i: scale * c for i, c in v.items()}


def _primitive(v: dict[int, int]) -> dict[int, int]:
    """Divide an integer vector by its content."""
    g = 0
    for c in v.values():
        g = gcd(g, c)
        if g == 1:
            return v
    if g > 1:
        return {i: c // g for i, c in v.items()}
    return v


def _to_int_vec(v: dict) -> dict[int, int]:
    """Scale a rational vector to a primitive integer vector (content 1)."""
    if not v:
        return {}
    if all(type(c) is int for c in v.values()):
        return _primitive({i: c for i, c in v.items() if c})
    denom = 1
    for c in v.values():
        f = Fraction(c)
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = {i: int(Fraction(c) * denom) for i, c in v.items()}
    return _primitive({i: c for i, c in ints.items() if c})


class IntEchelon:
    """Incremental echelon basis with integer row storage.

    Only spans, ranks and membership come out of this; rows are kept
    primitive (content 1) and pivots positive.  Exact by construction.
    Used as the workhorse for the larger eliminations (free Lie bases,
    ideal closures) where Fraction overhead would dominate.
    """

    def __init__(self):
        self.rows: dict[int, dict[int, int]] = {}  # pivot index -> row

    @property
    def dim(self) -> int:
        return len(self.rows)

    def residual(self, vec: dict) -> dict[int, int]:
        """Reduce vec against the current rows; primitive integer residual."""
        v = _to_int_vec(vec)
        while v:
            p = min(v)
            row = self.rows.get(p)
            if row is None:
                return v
            a, b = row[p], v[p]
            g = gcd(a, b)
            ca, cb = a // g, b // g
            # v <- ca*v - cb*row  (kills coordinate p, stays integral)
            new = {}
            for i, c in v.items():
                new[i] = ca * c
            for i, c in row.items():
                s = new.get(i, 0) - cb * c
                if s:
                    new[i] = s
                else:
                    new.pop(i, None)
            v = _primitive(new)
        return v

    def insert(self, vec: dict) -> Optional[int]:
        """Insert a vector; returns the new pivot index or None if dependent."""
        v = self.residual(vec)
        if not v:
            return None
        p = min(v)
        if v[p] < 0:
            v = {i: -c for i, c in v.items()}
        self.rows[p] = v
        return p

    def contains(self, vec: dict) -> bool:
        return not self.residual(vec)

    def rref(self) -> list[Vec]:
        """Reduced echelon basis (pivot coefficient 1), sorted by pivot.

        Back-substitution runs on primitive integer rows; the only division
        is by the pivot when a row is emitted.  A row reduced at pivot q is
        zero at every other pivot, so clearing q from a row never brings
        back a pivot column cleared before it.
        """
        pivots = sorted(self.rows)
        reduced: dict[int, dict[int, int]] = {}
        for p in reversed(pivots):
            row = self.rows[p]
            for q in sorted(i for i in row if i in reduced):
                other = reduced[q]
                g = gcd(other[q], row[q])
                a, b = other[q] // g, row[q] // g
                # row <- a*row - b*other kills coordinate q; a > 0 keeps row[p] > 0
                new = {i: a * c for i, c in row.items()}
                for i, c in other.items():
                    s = new.get(i, 0) - b * c
                    if s:
                        new[i] = s
                    else:
                        del new[i]
                row = _primitive(new)
            reduced[p] = row
        return [{i: Fraction(c, reduced[p][p]) for i, c in reduced[p].items()} for p in pivots]


class Subspace:
    """A subspace of Q^n held as a reduced-echelon basis."""

    def __init__(self, ambient: int, basis_rows: Iterable[dict]):
        ech = IntEchelon()
        for row in basis_rows:
            for i in row:
                if not 0 <= i < ambient:
                    raise DimensionMismatch(f"coordinate {i} outside ambient dimension {ambient}")
            ech.insert(row)
        self.ambient = ambient
        self.basis: list[Vec] = ech.rref()
        self.pivots: list[int] = [min(r) for r in self.basis]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec: dict) -> bool:
        ech = IntEchelon()
        for row in self.basis:
            ech.insert(row)
        return ech.contains(vec)

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient != self.ambient:
            raise DimensionMismatch("ambient dimensions differ")
        ech = IntEchelon()
        for row in self.basis:
            ech.insert(row)
        return all(ech.contains(r) for r in other.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"Subspace(ambient={self.ambient}, dim={self.dim})"


class SparseMatrix:
    """Sparse exact matrix; entries maps (row, col) to a nonzero Fraction."""

    def __init__(self, rows: int, cols: int, entries: Optional[dict] = None):
        self.rows = rows
        self.cols = cols
        self.entries: dict[tuple[int, int], Fraction] = {}
        if entries:
            for (i, j), c in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise DimensionMismatch(f"entry ({i},{j}) outside {rows}x{cols}")
                c = Fraction(c)
                if c:
                    self.entries[(i, j)] = c

    @classmethod
    def from_columns(cls, rows: int, columns: list[dict]) -> "SparseMatrix":
        entries = {}
        for j, col in enumerate(columns):
            for i, c in col.items():
                if c:
                    entries[(i, j)] = Fraction(c)
        return cls(rows, len(columns), entries)

    @classmethod
    def from_dense(cls, dense: list[list]) -> "SparseMatrix":
        rows = len(dense)
        cols = len(dense[0]) if dense else 0
        entries = {}
        for i, row in enumerate(dense):
            if len(row) != cols:
                raise DimensionMismatch("ragged rows")
            for j, c in enumerate(row):
                if c:
                    entries[(i, j)] = Fraction(c)
        return cls(rows, cols, entries)

    def column(self, j: int) -> Vec:
        return {i: c for (i, jj), c in self.entries.items() if jj == j}

    def columns(self) -> list[Vec]:
        cols: list[Vec] = [dict() for _ in range(self.cols)]
        for (i, j), c in self.entries.items():
            cols[j][i] = c
        return cols

    def apply(self, vec: dict) -> Vec:
        """Matrix times column vector (vector indexed by columns)."""
        out: Vec = {}
        cols = self.columns()
        for j, x in vec.items():
            if not (0 <= j < self.cols):
                raise DimensionMismatch(f"coordinate {j} outside {self.cols} columns")
            if not x:
                continue
            for i, c in cols[j].items():
                s = out.get(i, 0) + Fraction(x) * c
                if s:
                    out[i] = s
                else:
                    out.pop(i, None)
        return out

    def compose(self, other: "SparseMatrix") -> "SparseMatrix":
        """self o other (matrix product self @ other)."""
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions differ")
        cols = [self.apply(c) for c in other.columns()]
        return SparseMatrix.from_columns(self.rows, cols)

    def leading_block(self, rows: int, cols: int) -> "SparseMatrix":
        """The submatrix of the first rows and columns."""
        block = SparseMatrix(rows, cols)
        block.entries = {(i, j): c for (i, j), c in self.entries.items() if i < rows and j < cols}
        return block

    def is_zero(self) -> bool:
        return not self.entries

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


def _rref_rows(rows: list[Vec]) -> tuple[list[int], list[Vec]]:
    ech = IntEchelon()
    for r in rows:
        ech.insert(r)
    basis = ech.rref()
    return [min(r) for r in basis], basis


def reduce(m: SparseMatrix) -> tuple[int, Subspace, Subspace]:
    """Rank, column kernel and column image of a sparse matrix.

    The kernel lives in Q^cols, the image in Q^rows; both come back as
    canonical reduced-echelon subspaces, so rank + kernel.dim == cols.
    """
    cols = m.columns()
    ech = IntEchelon()
    kernel_rows: list[Vec] = []
    # Track, for every column, its expression over the independent columns,
    # so dependent columns yield kernel vectors directly.
    history: list[tuple[int, Vec]] = []  # (col index, reduced column as combo target)
    basis_cols: list[int] = []
    combo: dict[int, Vec] = {}  # pivot -> combination over original columns
    for j, col in enumerate(cols):
        # Reduce col against current echelon, tracking coefficients exactly.
        v = {i: Fraction(c) for i, c in col.items()}
        expr: Vec = {j: Fraction(1)}
        while v:
            p = min(v)
            if p not in ech.rows:
                break
            row = ech.rows[p]
            factor = v[p] / row[p]
            v = vec_add(v, {i: Fraction(c) for i, c in row.items()}, -factor)
            expr = vec_add(expr, combo[p], -factor)
        if v:
            p = ech.insert(v)
            if p is None:
                raise AssertionError("a column with a nonzero residual did not give a pivot")
            # Renormalize combo to match the stored primitive row.
            stored = ech.rows[p]
            factor = Fraction(stored[p]) / v[p]
            combo[p] = vec_scale(expr, factor)
            basis_cols.append(j)
        else:
            kernel_rows.append(expr)
    rank = len(basis_cols)
    image = Subspace(m.rows, [cols[j] for j in basis_cols])
    kernel = Subspace(m.cols, kernel_rows)
    return rank, kernel, image


def solve_affine(a: SparseMatrix, b: dict) -> Optional[tuple[Vec, Subspace]]:
    """Solve a x = b exactly; returns (particular, kernel) or None.

    The particular solution is the canonical one with all free variables
    set to zero (read off the reduced echelon form of [a | b]).
    """
    for i in b:
        if not (0 <= i < a.rows):
            raise DimensionMismatch(f"rhs coordinate {i} outside {a.rows} rows")
    rows: list[Vec] = [dict() for _ in range(a.rows)]
    for (i, j), c in a.entries.items():
        rows[i][j] = c
    for i, c in b.items():
        if c:
            rows[i][a.cols] = Fraction(c)
    pivots, rref = _rref_rows(rows)
    particular: Vec = {}
    for p, row in zip(pivots, rref):
        if p == a.cols:
            return None  # rank([A|b]) > rank(A)
        # leading variable p; free variables set to 0, so only the b-column
        # (index a.cols) contributes.
        val = row.get(a.cols, Fraction(0))
        if val:
            particular[p] = val
    _, kernel, _ = reduce(a)
    return particular, kernel


class QuotientInfo:
    def __init__(self, dim: int, representatives: list[Vec]):
        self.dim = dim
        self.representatives = representatives

    def __int__(self):
        return self.dim

    def __eq__(self, other):
        if isinstance(other, int):
            return self.dim == other
        return NotImplemented

    def __repr__(self):
        return f"QuotientInfo(dim={self.dim})"


def quotient_dims(w: Subspace, u: Subspace) -> QuotientInfo:
    """dim(W/U) with representatives extending a basis of U to one of W."""
    if w.ambient != u.ambient:
        raise DimensionMismatch("ambient dimensions differ")
    if not w.contains_subspace(u):
        raise ContainmentError("U is not contained in W")
    ech = IntEchelon()
    for r in u.basis:
        ech.insert(r)
    reps = []
    for r in w.basis:
        if ech.insert(r) is not None:
            reps.append(r)
    if len(reps) != w.dim - u.dim:
        raise AssertionError(f"{len(reps)} representatives for a quotient of dim {w.dim - u.dim}")
    return QuotientInfo(w.dim - u.dim, reps)


def homology_at(d_in: SparseMatrix, d_out: SparseMatrix) -> tuple[int, list[Vec]]:
    """Homology of C_in --d_in--> C --d_out--> C_out at the middle spot.

    Checks d_out o d_in == 0 exactly, then returns dim ker(d_out) - rank(d_in)
    together with cycle representatives spanning a complement of the
    boundaries inside the cycles.
    """
    if d_in.rows != d_out.cols:
        raise DimensionMismatch("middle dimensions disagree")
    if not d_out.compose(d_in).is_zero():
        raise NotAComplexError("composite differential is nonzero")
    rank_in, _, image = reduce(d_in)
    _, cycles, _ = reduce(d_out)
    ech = IntEchelon()
    for r in image.basis:
        ech.insert(r)
    reps = []
    for r in cycles.basis:
        if ech.insert(r) is not None:
            reps.append(r)
    dim = cycles.dim - rank_in
    if dim != len(reps):
        raise AssertionError(f"{len(reps)} homology representatives for dim {dim}")
    return dim, reps
