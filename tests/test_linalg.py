import random
from fractions import Fraction

import pytest

from lietower.linalg import (
    ContainmentError,
    DimensionMismatch,
    NotAComplexError,
    Quotient,
    SparseMatrix,
    Subspace,
    _scalar,
    gf2_pivots,
    homology_at,
    quotient_dims,
    reduce,
    solve_affine,
)


def dense(m, rows, cols):
    return [[m.entries.get((i, j), Fraction(0)) for j in range(cols)] for i in range(rows)]


def brute_rank(rows):
    """Independent fraction Gaussian elimination on dense row lists."""
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        rank += 1
    return rank


def test_reduce_zero_matrix():
    m = SparseMatrix(3, 3)
    rank, kernel, image = reduce(m)
    assert rank == 0
    assert kernel.dim == 3
    assert image.dim == 0


def test_reduce_identity():
    m = SparseMatrix(4, 4, {(i, i): 1 for i in range(4)})
    rank, kernel, image = reduce(m)
    assert rank == 4
    assert kernel.dim == 0
    assert image.dim == 4


def test_reduce_rank_one():
    # [[1,2],[2,4]]: hand elimination gives rank 1, kernel spanned by (-2, 1).
    m = SparseMatrix.from_dense([[1, 2], [2, 4]])
    rank, kernel, image = reduce(m)
    assert rank == 1
    assert kernel == Subspace(2, [{0: -2, 1: 1}])
    assert image == Subspace(2, [{0: 1, 1: 2}])


def test_rank_plus_kernel_is_cols_randomized():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        entries = {}
        for i in range(rows):
            for j in range(cols):
                if rng.random() < 0.5:
                    entries[(i, j)] = Fraction(rng.randrange(-4, 5))
        m = SparseMatrix(rows, cols, entries)
        rank, kernel, _ = reduce(m)
        assert rank + kernel.dim == cols
        assert rank == brute_rank(dense(m, rows, cols))


def test_reduce_canonical_under_insertion_order():
    rows_a = [{0: 1, 1: 2}, {1: 1, 2: 3}]
    rows_b = [{1: 1, 2: 3}, {0: 1, 1: 2}]
    assert Subspace(3, rows_a) == Subspace(3, rows_b)


def test_solve_affine_identity():
    a = SparseMatrix(3, 3, {(i, i): 1 for i in range(3)})
    b = {0: Fraction(2), 2: Fraction(-5)}
    particular, kernel = solve_affine(a, b)
    assert particular == b
    assert kernel.dim == 0


def test_solve_affine_zero_matrix():
    a = SparseMatrix(2, 2)
    got = solve_affine(a, {})
    assert got is not None
    particular, kernel = got
    assert particular == {}
    assert kernel.dim == 2


def test_solve_affine_underdetermined():
    # x + y = 1: enumeration over small solutions pins (1,0) + t(1,-1).
    a = SparseMatrix.from_dense([[1, 1]])
    particular, kernel = solve_affine(a, {0: 1})
    assert particular == {0: Fraction(1)}
    assert kernel == Subspace(2, [{0: 1, 1: -1}])


def test_solve_affine_inconsistent():
    a = SparseMatrix.from_dense([[1], [1]])
    assert solve_affine(a, {0: 1, 1: 2}) is None


def test_solve_affine_absent_iff_rank_jump():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        entries = {}
        for i in range(rows):
            for j in range(cols):
                if rng.random() < 0.5:
                    entries[(i, j)] = Fraction(rng.randrange(-3, 4))
        m = SparseMatrix(rows, cols, entries)
        b = {i: Fraction(rng.randrange(-3, 4)) for i in range(rows) if rng.random() < 0.5}
        aug = [[m.entries.get((i, j), 0) for j in range(cols)] + [b.get(i, 0)] for i in range(rows)]
        plain = [[m.entries.get((i, j), 0) for j in range(cols)] for i in range(rows)]
        jump = brute_rank(aug) > brute_rank(plain)
        got = solve_affine(m, b)
        assert (got is None) == jump
        if got is not None:
            particular, _ = got
            assert m.apply(particular) == {i: Fraction(c) for i, c in b.items() if c}


def test_solve_affine_dimension_mismatch():
    a = SparseMatrix(2, 2)
    with pytest.raises(DimensionMismatch):
        solve_affine(a, {5: 1})


def test_quotient_dims():
    w = Subspace(3, [{0: 1}, {1: 1}, {2: 1}])
    u = Subspace(3, [])
    assert quotient_dims(w, u).dim == 3
    assert quotient_dims(w, w).dim == 0
    w2 = Subspace(2, [{0: 1}, {1: 1}])
    u2 = Subspace(2, [{0: 1, 1: 1}])
    q = quotient_dims(w2, u2)
    assert q.dim == 1
    assert len(q.representatives) == 1


def test_quotient_requires_containment():
    w = Subspace(2, [{0: 1}])
    u = Subspace(2, [{1: 1}])
    with pytest.raises(ContainmentError):
        quotient_dims(w, u)


def test_homology_zero_differentials():
    d_in = SparseMatrix(2, 1)
    d_out = SparseMatrix(1, 2)
    dim, reps = homology_at(d_in, d_out)
    assert dim == 2
    assert len(reps) == 2


def test_homology_surjective_onto_cycles():
    # d_in maps onto ker(d_out): middle homology 0.
    d_in = SparseMatrix.from_dense([[1], [0]])
    d_out = SparseMatrix.from_dense([[0, 1]])
    dim, reps = homology_at(d_in, d_out)
    assert dim == 0
    assert reps == []


def test_homology_rejects_non_complex():
    d_in = SparseMatrix.from_dense([[1], [0]])
    d_out = SparseMatrix.from_dense([[1, 0]])
    with pytest.raises(NotAComplexError):
        homology_at(d_in, d_out)


def test_homology_euler_characteristic_randomized():
    # chi(C) == chi(H) on random two-step complexes built to satisfy d o d = 0.
    rng = random.Random(23)
    for _ in range(30):
        n_mid = rng.randrange(1, 5)
        n_out = rng.randrange(1, 5)
        entries = {}
        for i in range(n_out):
            for j in range(n_mid):
                if rng.random() < 0.5:
                    entries[(i, j)] = Fraction(rng.randrange(-3, 4))
        d_out = SparseMatrix(n_out, n_mid, entries)
        _, cycles, _ = reduce(d_out)
        n_in = rng.randrange(0, 4)
        cols = []
        for _ in range(n_in):
            col = {}
            for basis_vec in cycles.basis:
                c = rng.randrange(-2, 3)
                if c:
                    for idx, val in basis_vec.items():
                        col[idx] = col.get(idx, 0) + c * val
            cols.append({i: v for i, v in col.items() if v})
        d_in = SparseMatrix.from_columns(n_mid, cols) if n_in else SparseMatrix(n_mid, 0)
        h_mid, _ = homology_at(d_in, d_out)
        rank_in, ker_in, _ = reduce(d_in)
        rank_out, ker_out, _ = reduce(d_out)
        h_in = ker_in.dim  # no incoming differential
        h_out = n_out - rank_out  # nothing maps out
        assert n_in - n_mid + n_out == h_in - h_mid + h_out


def test_subspace_membership():
    s = Subspace(3, [{0: 1, 2: 1}, {1: 1}])
    assert s.contains({0: Fraction(2), 1: Fraction(-1), 2: Fraction(2)})
    assert not s.contains({2: Fraction(1)})


# -- one quotient ------------------------------------------------------------

def _combination(vecs, coeffs):
    out = {}
    for v, f in zip(vecs, coeffs):
        for i, c in v.items():
            out[i] = out.get(i, 0) + f * c
    return {i: c for i, c in out.items() if c}


def test_quotient_matches_fraction_rank_oracle():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 6)

        def vec():
            return {i: Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
                    for i in range(n) if rng.random() < 0.6}

        def rank(vecs):
            return brute_rank([[v.get(i, 0) for i in range(n)] for v in vecs])

        sub = [vec() for _ in range(rng.randint(0, 4))]
        kept = []
        for i in range(n):
            base = sub + [{k: 1} for k in kept]
            if rank(base + [{i: 1}]) > rank(base):
                kept.append(i)
        got = Quotient(iter(sub), n)
        assert got.kept == kept and got.dim == len(kept) == n - rank(sub)
        # a combination of sub and the kept unit vectors comes back as its kept part
        want = [Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in kept]
        sub_part = [Fraction(rng.randint(-4, 4)) for _ in sub]
        v = _combination(sub + [{i: 1} for i in kept], sub_part + want)
        assert got.coords(v) == {k: c for k, c in enumerate(want) if c}
        # any vector differs from its normal form by an element of span(sub)
        x = vec()
        normal = {kept[k]: c for k, c in got.coords(x).items()}
        assert rank(sub + [_combination([x, normal], [1, -1])]) == rank(sub)
        with pytest.raises(DimensionMismatch):
            got.coords({n: 1})
        with pytest.raises(DimensionMismatch):
            got.coords({-1: 1})
    with pytest.raises(DimensionMismatch):
        Quotient([{2: 1}], 2)


def test_scalar_is_an_int_exactly_when_integral():
    for c, den, want in ((6, 3, 2), (-6, 3, -2), (0, 5, 0), (7, 1, 7), (Fraction(4, 2), 1, 2),
                         (Fraction(3, 2), 3, Fraction(1, 2)), (Fraction(-9, 2), Fraction(3, 2), -3),
                         (3, 2, Fraction(3, 2)), (-1, 4, Fraction(-1, 4))):
        got = _scalar(c, den)
        assert got == want and type(got) is (int if want.denominator == 1 else Fraction), (c, den)


def test_quotient_coords_stay_int_where_the_pivots_divide():
    rng = random.Random(37)
    for _ in range(200):
        n = rng.randint(2, 7)
        # each sub vector is 1 at its last index, so every reduced pivot entry is 1
        tops = rng.sample(range(n), rng.randint(0, n - 1))
        sub = [{**{i: rng.randint(-3, 3) for i in range(t)}, t: 1} for t in tops]
        got = Quotient(sub, n)
        x = {i: rng.randint(-5, 5) for i in range(n) if rng.random() < 0.7}
        x = {i: c for i, c in x.items() if c}
        coords = got.coords(x)
        assert coords == got.coords({i: Fraction(c) for i, c in x.items()})
        assert all(type(c) is int for c in coords.values()), coords
    # a pivot entry of 2: an int it divides stays an int, any other int becomes a Fraction
    got = Quotient([{0: 1, 1: 2}], 2)
    assert got.kept == [0]
    assert got.coords({1: 4}) == {0: -2} and type(got.coords({1: 4})[0]) is int
    assert got.coords({1: 1}) == {0: Fraction(-1, 2)}


def brute_rank_mod_2(rows):
    """Rank over GF(2) of dense integer rows, by elimination on 0/1 lists."""
    rows = [[c % 2 for c in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_gf2_pivots_give_every_leading_rank_mod_2():
    # rank D[:R, :C] mod 2 is #{j < C : pivot_j < R}, never above the rank over Q
    rng = random.Random(41)
    below = 0
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        dense_rows = [[rng.choice([0, 0, 0, 1, -1, 2, -3, 4]) for _ in range(cols)] for _ in range(rows)]
        m = SparseMatrix.from_dense(dense_rows)
        pivots = gf2_pivots(m.columns())
        assert len(pivots) == cols
        for r in range(rows + 1):
            for c in range(cols + 1):
                block = [row[:c] for row in dense_rows[:r]]
                got = sum(1 for p in pivots[:c] if p is not None and p < r)
                assert got == brute_rank_mod_2(block), (dense_rows, r, c)
                over_q = brute_rank(block) if r and c else 0
                assert got <= over_q
                below += got < over_q
    assert below > 0
