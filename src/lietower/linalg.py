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
caller may also keep to solve against again.  Every quotient is one
`Quotient`: Q^size modulo a subspace, represented by the unit vectors
that are no row's last index in its echelon, with coordinates as the
normal form against its reduced rows.

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


class InvariantError(AssertionError):
    """An internal invariant failed: always a bug.  Raised explicitly, so the
    check holds under `python -O`; the CLI maps it to exit 4."""


def _content(*vecs: dict[int, int]) -> int:
    """gcd of the entries of integer vectors taken together (0 when all empty)."""
    g = 0
    for v in vecs:
        for c in v.values():
            g = gcd(g, c)
            if g == 1:
                return 1
    return g


def _divide_content(v: dict[int, int], e: Optional[dict[int, int]] = None):
    """(v, e) divided by the content of v and e taken together (e may be None)."""
    g = _content(v) if e is None else _content(v, e)
    if g > 1:
        v = {i: c // g for i, c in v.items()}
        if e is not None:
            e = {i: c // g for i, c in e.items()}
    return v, e


def _clear_denominators(v: dict) -> tuple[int, dict[int, int]]:
    """(D, D * v) for D the least common denominator of v's int or Fraction
    entries; zeros are dropped."""
    den = lcm(*(c.denominator for c in v.values()))
    if den == 1:
        return 1, {i: c.numerator for i, c in v.items() if c}
    return den, {i: c.numerator * (den // c.denominator) for i, c in v.items() if c}


def _add_term(p: dict, m, c) -> None:
    """p[m] += c in place, with no stored zeros."""
    s = p.get(m, 0) + c
    if s:
        p[m] = s
    else:
        p.pop(m, None)


def _scalar(c, den: int = 1):
    """c / den exactly, for an int or Fraction c: an int when the value is
    integral, else a Fraction."""
    if type(c) is int:
        return Fraction(c, den) if c % den else c // den
    if den != 1:
        c = c / den
    return c.numerator if c.denominator == 1 else c


def _sub_in_place(u: dict[int, int], b: int, w: dict[int, int]) -> None:
    """u -= b*w in place, for sparse integer vectors, with no stored zeros."""
    for i, c in w.items():
        s = u.get(i, 0) - b * c
        if s:
            u[i] = s
        else:
            del u[i]


def _sub_multiple(u: dict[int, int], a: int, w: dict[int, int], b: int) -> dict[int, int]:
    """a*u - b*w for sparse integer vectors, with no stored zeros."""
    out = {i: a * c for i, c in u.items()}
    _sub_in_place(out, b, w)
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
        (and e) at the end.

        v and e belong to the caller and may be changed in place.  Against
        a row with pivot 1 the step is v -= v[p] * row in place, with no
        content taken; after any other step the content is divided out, as
        the scale factors there grow.  Every step and every division is
        linear with a positive factor, so the primitive result is the one
        that dividing the content after every step would give.
        """
        rows, combos = self.rows, self.combos
        while v:
            p = min(v)
            row = rows.get(p)
            if row is None:
                break
            a, b = row[p], v[p]
            if a == 1:
                _sub_in_place(v, b, row)
                if e is not None:
                    _sub_in_place(e, b, combos[p])
                continue
            g = gcd(a, b)
            # v <- ca*v - cb*row  (kills coordinate p, stays integral)
            ca, cb = a // g, b // g
            v = _sub_multiple(v, ca, row, cb)
            if e is not None:
                e = _sub_multiple(e, ca, combos[p], cb)
            v, e = _divide_content(v, e)
        return _divide_content(v, e)

    def residual(self, vec: dict) -> dict[int, int]:
        """Reduce vec against the current rows; primitive integer residual."""
        return self._reduce(_clear_denominators(vec)[1])[0]

    def insert(self, vec: dict) -> Optional[int]:
        """Insert a vector; returns the new pivot index or None if dependent."""
        den, v = _clear_denominators(vec)
        if self.combos is None:
            return self._store(*self._reduce(v))
        self.inputs += 1
        return self._store(*self._reduce(v, {self.inputs - 1: den}))

    def _store(self, v: dict[int, int], e: Optional[dict[int, int]]) -> Optional[int]:
        """Keep a reduced vector v, with its combination e when tracking: as
        a row with a positive pivot, returned, or, when v is zero, e as a
        relation."""
        if not v:
            if e is not None:
                self.relations.append(e)
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
                row = _divide_content(_sub_multiple(row, other[q] // g, other, row[q] // g))[0]
            reduced[p] = _divide_content(row)[0]
        return [(p, reduced[p]) for p in pivots]

    def rref(self) -> list[Vec]:
        """Reduced echelon basis (pivot coefficient 1), sorted by pivot: the
        rows of `reduced_rows` divided by their pivot entries."""
        return [{i: Fraction(c, row[p]) for i, c in row.items()} for p, row in self.reduced_rows()]


def gf2_pivots(cols: Iterable[dict[int, int]]) -> list[Optional[int]]:
    """Column pivots of an integer matrix mod 2, left to right.

    Each column is one Python int with bit i set when entry i is odd, and it
    is reduced by XOR against the kept columns at its lowest set bit, the
    pivot rule of `IntEchelon`; `pivots[j]` is column j's pivot row, None
    when it is dependent mod 2.  A nonzero minor mod 2 is a nonzero minor
    over Z, so every rank read off these pivots is a lower bound for the
    rank over Q, and never a reported vector.
    """
    kept: dict[int, int] = {}
    pivots: list[Optional[int]] = []
    for col in cols:
        v = 0
        for i, c in col.items():
            if c & 1:
                v |= 1 << i
        p = None
        while v:
            low = (v & -v).bit_length() - 1
            row = kept.get(low)
            if row is None:
                kept[low] = v
                p = low
                break
            v ^= row
        pivots.append(p)
    return pivots


class Subspace:
    """A subspace of Q^n held as a reduced-echelon basis, with the echelon
    it was built from, which spans it, for membership tests."""

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
        self._echelon = ech

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec: dict) -> bool:
        return self._echelon.contains(vec)

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient != self.ambient:
            raise DimensionMismatch("ambient dimensions differ")
        return all(self._echelon.contains(r) for r in other.basis)

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
    """The columns of a matrix with `rows` rows, sparse int or Fraction
    vectors, inserted left to right into a tracked echelon.

    The leftmost independent columns give pivots, and each other column
    gives a relation, which is a kernel vector.  The relations are
    independent (each is nonzero at its own column and at no later one), so
    the kernel has dimension cols - rank without being built; the kernel
    `Subspace` is built on first use, for the readers of its vectors.
    Solving a x = b for many b costs one `express` each.
    """

    def __init__(self, rows: int, columns: list[dict]):
        self.rows = rows
        self.cols = len(columns)
        self.echelon = IntEchelon(track=True)
        for j, col in enumerate(columns):
            p = self.echelon.insert(col)
            if p is None and self.echelon.dim + len(self.echelon.relations) != j + 1:
                raise InvariantError("a column with a nonzero residual did not give a pivot")
        self._kernel: Optional[Subspace] = None

    @classmethod
    def extend(cls, kept: "ColumnReduction", rows: int, columns: list[dict]) -> "ColumnReduction":
        """The reduction of the matrix with these rows and columns, built
        from the kept reduction of its leading `kept.rows` rows, with no
        pass over its columns.

        A kept row is sum_k combo[k] * column_k on the leading rows, so it
        keeps its combination and gains that sum on the rows below, and its
        pivot.  A kept relation's image is zero on the leading rows; the
        images on the rows below are reduced in input order, each with its
        relation as combination, and give the new rows, whose pivots are
        below the leading rows, and the new relations.  A column is
        independent of the columns before it exactly when it was on the
        leading rows or its relation's image is independent of the images
        before it, so the pivot columns, the kernel and every particular
        solution are those of a direct pass, and every stored combination
        involves pivot columns only (a relation also its own column), as
        there.
        """
        top = kept.rows
        if len(columns) != kept.cols or rows < top:
            raise DimensionMismatch(f"a {rows}x{len(columns)} matrix does not extend a reduction "
                                    f"of {top}x{kept.cols}")
        below = [{i: c for i, c in col.items() if i >= top} for col in columns]
        red = cls.__new__(cls)
        red.rows, red.cols, red._kernel = rows, kept.cols, None
        old = kept.echelon
        red.echelon = ech = IntEchelon(track=True)
        ech.inputs = old.inputs
        for p, row in old.rows.items():
            combo = old.combos[p]
            den, extra = _clear_denominators(_combine_columns(below, combo))
            ech.rows[p], ech.combos[p] = _divide_content({**{i: den * c for i, c in row.items()}, **extra},
                                                         {k: den * c for k, c in combo.items()})
        for relation in old.relations:
            den, v = _clear_denominators(_combine_columns(below, relation))
            ech._store(*ech._reduce(v, {k: den * c for k, c in relation.items()}))
        return red

    @property
    def rank(self) -> int:
        return self.echelon.dim

    def kernel(self) -> Subspace:
        if self._kernel is None:
            self._kernel = Subspace(self.cols, self.echelon.relations)
        return self._kernel

    def particular(self, b: dict) -> Optional[Vec]:
        """The particular solution of a x = b (see `solve_affine`), or None."""
        for i in b:
            if not (0 <= i < self.rows):
                raise DimensionMismatch(f"rhs coordinate {i} outside {self.rows} rows")
        return self.echelon.express(b)  # None when rank([A|b]) > rank(A)

    def solve(self, b: dict) -> Optional[tuple[Vec, Subspace]]:
        """(particular, kernel) for a x = b, or None; see `solve_affine`."""
        particular = self.particular(b)
        return None if particular is None else (particular, self.kernel())


def reduce(m: SparseMatrix) -> tuple[int, Subspace, Subspace]:
    """Rank, column kernel and column image of a sparse matrix.

    The kernel lives in Q^cols, the image in Q^rows; both come back as
    canonical reduced-echelon subspaces, so rank + kernel.dim == cols.
    """
    red = ColumnReduction(m.rows, m.columns())
    return red.rank, red.kernel(), Subspace(m.rows, red.echelon.rows.values())


def solve_affine(a: SparseMatrix, b: dict) -> Optional[tuple[Vec, Subspace]]:
    """Solve a x = b exactly; returns (particular, kernel) or None.

    The particular solution is the canonical one with all free variables
    set to zero: the one supported on the leftmost independent columns of
    a, which are the pivot columns of the reduced echelon form of [a | b].
    """
    return ColumnReduction(a.rows, a.columns()).solve(b)


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
    """Q^size modulo span(sub), represented by unit vectors.

    Unit vector i is kept when it is independent of sub and of the unit
    vectors before it.  Index i is stored as size - 1 - i, so each row of
    sub's echelon has its last index as pivot, and the kept indices, in
    order, are exactly those that are no row's pivot.
    """

    def __init__(self, sub: Iterable[dict], size: int):
        self.size = size
        last = size - 1
        self._echelon = IntEchelon()
        for v in sub:
            self._check(v)
            self._echelon.insert({last - i: c for i, c in v.items()})
        self.kept = [i for i in range(size) if last - i not in self._echelon.rows]
        self._class = {last - i: k for k, i in enumerate(self.kept)}
        self._rows: Optional[dict[int, dict[int, int]]] = None

    def _check(self, vec: dict) -> None:
        """DimensionMismatch unless every coordinate of vec is in [0, size)."""
        if vec and not (0 <= min(vec) and max(vec) < self.size):
            raise DimensionMismatch(f"coordinates {sorted(vec)} outside quotient ambient dimension {self.size}")

    @property
    def dim(self) -> int:
        return len(self.kept)

    def coords(self, vec: dict) -> Vec:
        """vec modulo span(sub), over the kept unit vectors: its normal form
        against sub's reduced rows, each pivot entry replaced by the rest of
        its row.  An int entry that its pivot divides stays an int.  The
        reduced rows are built on the first call."""
        self._check(vec)
        if self._rows is None:
            self._rows = dict(self._echelon.reduced_rows())
        last = self.size - 1
        out: Vec = {}
        for i, c in vec.items():
            j = last - i
            row = self._rows.get(j)
            if row is None:
                _add_term(out, self._class[j], c)
                continue
            f = c // row[j] if type(c) is int and not c % row[j] else Fraction(c) / row[j]
            for k, r in row.items():
                if k != j:
                    _add_term(out, self._class[k], -f * r)
        return out


def complement_basis(w: Subspace, sub: Iterable[dict]) -> list[Vec]:
    """The elements of W's reduced echelon basis kept by W / span(sub), for
    sub inside W.  Each basis element is 1 at its own pivot and 0 at the
    others, so a vector of W has its entries at the pivots as coordinates."""
    coords = ({k: v[p] for k, p in enumerate(w.pivots) if p in v} for v in sub)
    return [w.basis[k] for k in Quotient(coords, w.dim).kept]


def quotient_dims(w: Subspace, u: Subspace) -> QuotientInfo:
    """dim(W/U) with representatives extending a basis of U to one of W."""
    if w.ambient != u.ambient:
        raise DimensionMismatch("ambient dimensions differ")
    if not w.contains_subspace(u):
        raise ContainmentError("U is not contained in W")
    reps = complement_basis(w, u.basis)
    if len(reps) != w.dim - u.dim:
        raise InvariantError(f"{len(reps)} representatives for a quotient of dim {w.dim - u.dim}")
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
    reps = complement_basis(cycles, image.basis)
    dim = cycles.dim - rank_in
    if dim != len(reps):
        raise InvariantError(f"{len(reps)} homology representatives for dim {dim}")
    return dim, reps
