"""Exact sparse linear algebra over the rationals.

One elimination kernel, `IntEchelon`, does every elimination in the package.
It stores integer rows with positive pivots and never divides: a vector
is scaled once by the least common denominator of its entries, and a
reduction step multiplies by the pivot's cofactor instead of dividing by
it (fraction-free, in the manner of Bareiss).  With transform tracking, each
stored row also carries the integer combination of the inputs that gives
it; the content is taken over the row and its combination together, so
both stay integral.  `reduce` and `solve_affine` read one left-to-right
pass of the columns through a tracked echelon, `ColumnReduction`, which a
caller may also keep to solve against again; every quotient picks its
representatives through `Quotient`.

`Fraction` remains at the edges: matrices take int or Fraction entries, and
the public vectors that come out (reduced echelon bases, particular
solutions, expressions over the inputs) have Fraction coefficients.  There
is no floating point anywhere.

Canonical forms: subspaces are always stored in reduced row echelon form
with the leftmost-lowest-index pivot rule, so equality of subspaces is a
coordinate-wise comparison and every result is deterministic regardless
of insertion order or scheduling.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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


def _content(*vecs: dict[int, int]) -> int:
    """gcd of the entries of integer vectors taken together (0 when all empty)."""
    g = 0
    for v in vecs:
        for c in v.values():
            g = gcd(g, c)
            if g == 1:
                return 1
    return g


def _primitive(v: dict[int, int]) -> dict[int, int]:
    """Divide an integer vector by its content."""
    g = _content(v)
    return {i: c // g for i, c in v.items()} if g > 1 else v


def _clear_denominators(v: dict) -> tuple[int, dict[int, int]]:
    """(D, D * v) for D the least common denominator of v's int or Fraction
    entries; zeros are dropped."""
    den = lcm(*(c.denominator for c in v.values()))
    if den == 1:
        return 1, {i: c.numerator for i, c in v.items() if c}
    return den, {i: c.numerator * (den // c.denominator) for i, c in v.items() if c}


def _sub_multiple(u: dict[int, int], a: int, w: dict[int, int], b: int) -> dict[int, int]:
    """a*u - b*w for sparse integer vectors, with no stored zeros."""
    out = {i: a * c for i, c in u.items()}
    for i, c in w.items():
        s = out.get(i, 0) - b * c
        if s:
            out[i] = s
        else:
            del out[i]
    return out


class IntEchelon:
    """Incremental echelon basis with integer row storage.

    Rows are keyed by their pivot (lowest index) and kept with a positive
    pivot; reduction steps are fraction-free.  Untracked rows are kept
    primitive (content 1); spans, ranks and membership come out.

    With track=True the inputs are numbered in insertion order and each
    stored row carries, in `combos[pivot]`, the integer combination of the
    inputs that gives it: row = sum_k combo[k] * input_k.  The content is
    taken over row and combination together.  An input that reduces to zero
    adds to `relations` the integer combination of inputs that vanishes
    (its own coefficient is nonzero).  Stored combinations only involve the
    inputs that gave a pivot.
    """

    def __init__(self, track: bool = False):
        self.rows: dict[int, dict[int, int]] = {}  # pivot index -> row
        self.combos: Optional[dict[int, dict[int, int]]] = {} if track else None
        self.relations: list[dict[int, int]] = []
        self.inputs = 0

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, v: dict[int, int], e: Optional[dict[int, int]] = None):
        """Reduce the integer vector v against the rows, carrying the
        combination e along when tracking; the content is divided out of v
        (and e) after every step."""
        while True:
            g = _content(v) if e is None else _content(v, e)
            if g > 1:
                v = {i: c // g for i, c in v.items()}
                if e is not None:
                    e = {i: c // g for i, c in e.items()}
            if not v:
                return v, e
            p = min(v)
            row = self.rows.get(p)
            if row is None:
                return v, e
            g = gcd(row[p], v[p])
            # v <- ca*v - cb*row  (kills coordinate p, stays integral)
            ca, cb = row[p] // g, v[p] // g
            v = _sub_multiple(v, ca, row, cb)
            if e is not None:
                e = _sub_multiple(e, ca, self.combos[p], cb)

    def residual(self, vec: dict) -> dict[int, int]:
        """Reduce vec against the current rows; primitive integer residual."""
        return self._reduce(_clear_denominators(vec)[1])[0]

    def insert(self, vec: dict) -> Optional[int]:
        """Insert a vector; returns the new pivot index or None if dependent."""
        den, v = _clear_denominators(vec)
        if self.combos is None:
            v, e = self._reduce(v)
        else:
            v, e = self._reduce(v, {self.inputs: den})
            self.inputs += 1
            if not v:
                self.relations.append(e)
        if not v:
            return None
        p = min(v)
        if v[p] < 0:
            v = {i: -c for i, c in v.items()}
            if e is not None:
                e = {i: -c for i, c in e.items()}
        self.rows[p] = v
        if e is not None:
            self.combos[p] = e
        return p

    def contains(self, vec: dict) -> bool:
        return not self.residual(vec)

    def express(self, vec: dict) -> Optional[Vec]:
        """vec as a combination of the inputs (track=True), or None when vec
        is outside the span.  Only inputs that gave a pivot appear; they are
        independent, so the combination is unique."""
        den, v = _clear_denominators(vec)
        v, e = self._reduce(v, {-1: den})
        if v:
            return None
        lead = e.pop(-1)
        return {k: Fraction(-c, lead) for k, c in e.items()}

    def reduced_rows(self) -> list[tuple[int, dict[int, int]]]:
        """(pivot, row) of the reduced echelon basis, sorted by pivot, with
        each row a primitive integer vector that is zero at every other pivot
        and positive at its own.

        Back-substitution runs on primitive integer rows and divides only by
        contents.  A row reduced at pivot q is zero at every other pivot, so
        clearing q from a row never brings back a pivot column cleared before
        it.
        """
        pivots = sorted(self.rows)
        reduced: dict[int, dict[int, int]] = {}
        for p in reversed(pivots):
            row = self.rows[p]
            for q in sorted(i for i in row if i in reduced):
                other = reduced[q]
                g = gcd(other[q], row[q])
                # row <- a*row - b*other kills coordinate q; a > 0 keeps row[p] > 0
                row = _primitive(_sub_multiple(row, other[q] // g, other, row[q] // g))
            reduced[p] = _primitive(row)
        return [(p, reduced[p]) for p in pivots]

    def rref(self) -> list[Vec]:
        """Reduced echelon basis (pivot coefficient 1), sorted by pivot: the
        rows of `reduced_rows` divided by their pivot entries."""
        return [{i: Fraction(c, row[p]) for i, c in row.items()} for p, row in self.reduced_rows()]


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
        self._echelon: Optional[IntEchelon] = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _membership(self) -> IntEchelon:
        """The basis as an echelon for membership tests, built on first use."""
        if self._echelon is None:
            self._echelon = IntEchelon()
            for row in self.basis:
                self._echelon.insert(row)
        return self._echelon

    def contains(self, vec: dict) -> bool:
        return self._membership().contains(vec)

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient != self.ambient:
            raise DimensionMismatch("ambient dimensions differ")
        ech = self._membership()
        return all(ech.contains(r) for r in other.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"Subspace(ambient={self.ambient}, dim={self.dim})"


def _combine_columns(cols: list[dict], vec: dict) -> dict:
    """sum_j vec[j] * cols[j], with no stored zeros."""
    out: dict = {}
    for j, x in vec.items():
        if not x:
            continue
        for i, c in cols[j].items():
            s = out.get(i, 0) + x * c
            if s:
                out[i] = s
            else:
                del out[i]
    return out


class SparseMatrix:
    """Sparse exact matrix; entries maps (row, col) to a nonzero int or
    Fraction (int entries stay int, anything else becomes a Fraction)."""

    def __init__(self, rows: int, cols: int, entries: Optional[dict] = None):
        self.rows = rows
        self.cols = cols
        self.entries: dict[tuple[int, int], Fraction] = {}
        if entries:
            for (i, j), c in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise DimensionMismatch(f"entry ({i},{j}) outside {rows}x{cols}")
                if type(c) is not int:
                    c = Fraction(c)
                if c:
                    self.entries[(i, j)] = c

    @classmethod
    def from_columns(cls, rows: int, columns: list[dict]) -> "SparseMatrix":
        entries = {(i, j): c for j, col in enumerate(columns) for i, c in col.items()}
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
                entries[(i, j)] = c
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
        for j in vec:
            if not (0 <= j < self.cols):
                raise DimensionMismatch(f"coordinate {j} outside {self.cols} columns")
        return _combine_columns(self.columns(), {j: Fraction(x) for j, x in vec.items()})

    def compose(self, other: "SparseMatrix") -> "SparseMatrix":
        """self o other (matrix product self @ other)."""
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions differ")
        cols = self.columns()
        return SparseMatrix.from_columns(self.rows, [_combine_columns(cols, c) for c in other.columns()])

    def is_zero(self) -> bool:
        return not self.entries

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


class ColumnReduction:
    """The columns of a matrix inserted left to right into a tracked echelon.

    The leftmost independent columns give pivots (`pivots[j]` is column j's
    pivot row, None when it is dependent), and each other column gives a
    relation, which is a kernel vector.  The kernel is built on first use,
    so solving a x = b for many b costs one `express` each.
    """

    def __init__(self, m: SparseMatrix):
        self.rows = m.rows
        self.cols = m.cols
        self.echelon = IntEchelon(track=True)
        self.pivots: list[Optional[int]] = []
        for j, col in enumerate(m.columns()):
            p = self.echelon.insert(col)
            if p is None and self.echelon.dim + len(self.echelon.relations) != j + 1:
                raise AssertionError("a column with a nonzero residual did not give a pivot")
            self.pivots.append(p)
        self._kernel: Optional[Subspace] = None

    @property
    def rank(self) -> int:
        return self.echelon.dim

    def kernel(self) -> Subspace:
        if self._kernel is None:
            self._kernel = Subspace(self.cols, self.echelon.relations)
        return self._kernel

    def solve(self, b: dict) -> Optional[tuple[Vec, Subspace]]:
        """(particular, kernel) for a x = b, or None; see `solve_affine`."""
        for i in b:
            if not (0 <= i < self.rows):
                raise DimensionMismatch(f"rhs coordinate {i} outside {self.rows} rows")
        particular = self.echelon.express(b)
        if particular is None:
            return None  # rank([A|b]) > rank(A)
        return particular, self.kernel()


def reduce(m: SparseMatrix) -> tuple[int, Subspace, Subspace]:
    """Rank, column kernel and column image of a sparse matrix.

    The kernel lives in Q^cols, the image in Q^rows; both come back as
    canonical reduced-echelon subspaces, so rank + kernel.dim == cols.
    """
    red = ColumnReduction(m)
    return red.rank, red.kernel(), Subspace(m.rows, red.echelon.rows.values())


def solve_affine(a: SparseMatrix, b: dict) -> Optional[tuple[Vec, Subspace]]:
    """Solve a x = b exactly; returns (particular, kernel) or None.

    The particular solution is the canonical one with all free variables
    set to zero: the one supported on the leftmost independent columns of
    a, which are the pivot columns of the reduced echelon form of [a | b].
    """
    return ColumnReduction(a).solve(b)


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


class Quotient:
    """span(sub + candidates) / span(sub), represented by candidates.

    The representatives are the candidates that stay independent modulo
    span(sub), kept in order; `kept` holds their positions among the
    candidates.  Candidates are read lazily, and reading stops as soon as
    `limit` representatives are kept.
    """

    def __init__(self, sub: Iterable[dict], candidates: Iterable[dict], limit: Optional[int] = None):
        ech = IntEchelon()
        for v in sub:
            ech.insert(v)
        self._sub = list(ech.rows.values())
        self.representatives: list[dict] = []
        self.kept: list[int] = []
        for i, v in enumerate(candidates if limit != 0 else ()):
            if ech.insert(v) is not None:
                self.kept.append(i)
                self.representatives.append(v)
                if len(self.kept) == limit:
                    break
        self._tracked: Optional[IntEchelon] = None

    @property
    def dim(self) -> int:
        return len(self.representatives)

    def coords(self, vec: dict) -> Optional[Vec]:
        """vec over the representatives, its part in span(sub) dropped; None
        when vec is outside span(sub + representatives).  The tracked echelon
        (sub rows, then representatives) is built on the first call."""
        if self._tracked is None:
            self._tracked = IntEchelon(track=True)
            for v in self._sub + self.representatives:
                self._tracked.insert(v)
        got = self._tracked.express(vec)
        if got is None:
            return None
        k = len(self._sub)
        return {i - k: c for i, c in got.items() if i >= k}


def quotient_dims(w: Subspace, u: Subspace) -> QuotientInfo:
    """dim(W/U) with representatives extending a basis of U to one of W."""
    if w.ambient != u.ambient:
        raise DimensionMismatch("ambient dimensions differ")
    if not w.contains_subspace(u):
        raise ContainmentError("U is not contained in W")
    reps = Quotient(u.basis, w.basis).representatives
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
    reps = Quotient(image.basis, cycles.basis).representatives
    dim = cycles.dim - rank_in
    if dim != len(reps):
        raise AssertionError(f"{len(reps)} homology representatives for dim {dim}")
    return dim, reps
