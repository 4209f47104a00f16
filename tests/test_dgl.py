import itertools
import os
import random
from fractions import Fraction

import pytest

from lietower import cli, dgl, freelie, functors, linalg

from lietower.dgl import (
    DglError,
    DglPresentation,
    Truncation,
    UnsupportedModeError,
    boundary_solve,
    completion_boundary_check,
    exact_homology,
    extend_derivation,
    h0_discrepancy_report,
    h0_table_bounded_window,
    h0_table_from_tower,
    homology_tower,
    lcs_basis,
    lcs_quotient_complex,
    top_length_obstruction,
    validate,
    witness_direction_space,
)
from lietower.freelie import GeneratorSet, TensorElt, ad_power, decode_word, gen_elt, graded_bracket
from lietower.linalg import InvariantError
from lietower.pronil import lemma1_audit


FILES = os.path.join(os.path.dirname(__file__), "..", "demos", "files")


def remark():
    return DglPresentation.from_strings(
        [("x", 0), ("y", 0), ("z", 1)], {"z": "x - [y, x]"}
    )


def heisenberg_dgl():
    # three degree-0 generators plus the three relations that pin the
    # 3-dimensional nilpotent quotient [a,b] = c, c central
    return DglPresentation.from_strings(
        [("a", 0), ("b", 0), ("c", 0), ("u", 1), ("v", 1), ("w", 1)],
        {"u": "c - [a, b]", "v": "[a, c]", "w": "[b, c]"},
    )


# -- independent oracle: dense rational arithmetic on raw word dicts --------

def o_bracket(degrees, u, v):
    out = {}
    for w1, c1 in u.items():
        d1 = sum(degrees[i] for i in w1)
        for w2, c2 in v.items():
            d2 = sum(degrees[i] for i in w2)
            for w, c in ((w1 + w2, c1 * c2), (w2 + w1, -((-1) ** (d1 * d2 % 2)) * c1 * c2)):
                out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def o_dynkin(degrees, word):
    out = {word[-1:]: Fraction(1)}
    for i in range(len(word) - 2, -1, -1):
        out = o_bracket(degrees, {word[i : i + 1]: Fraction(1)}, out)
    return out


def o_words(degrees, length, q):
    return [
        w
        for w in itertools.product(range(len(degrees)), repeat=length)
        if sum(degrees[i] for i in w) == q
    ]


def o_derivation(degrees, dmap, u):
    out = {}
    for word, coeff in u.items():
        prefix = 0
        for i, g in enumerate(word):
            for dw, dc in dmap.get(g, {}).items():
                w = word[:i] + dw + word[i + 1 :]
                sign = -1 if prefix % 2 else 1
                out[w] = out.get(w, 0) + sign * coeff * dc
            prefix += degrees[g]
    return {w: c for w, c in out.items() if c}


def o_truncate(u, n):
    return {w: c for w, c in u.items() if len(w) < n}


def o_rank(vectors):
    keys = sorted({k for v in vectors for k in v})
    pos = {k: i for i, k in enumerate(keys)}
    rows = [[Fraction(v.get(k, 0)) for k in keys] for v in vectors if v]
    rank = 0
    r = 0
    for c in range(len(keys)):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
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


def o_homology_dim(degrees, dmap, n, q):
    span_q = []
    for k in range(1, n):
        span_q += [o_dynkin(degrees, w) for w in o_words(degrees, k, q)]
    span_q1 = []
    for k in range(1, n):
        span_q1 += [o_dynkin(degrees, w) for w in o_words(degrees, k, q + 1)]
    dim_q = o_rank(span_q)
    rank_out = o_rank([o_truncate(o_derivation(degrees, dmap, v), n) for v in span_q])
    rank_in = o_rank([o_truncate(o_derivation(degrees, dmap, v), n) for v in span_q1])
    return (dim_q - rank_out) - rank_in


def remark_dmap():
    # z -> x - [y, x] expanded in words: x - yx + xy
    return {2: {(0,): Fraction(1), (1, 0): Fraction(-1), (0, 1): Fraction(1)}}


def heisenberg_dmap():
    f = Fraction
    return {
        3: {(2,): f(1), (0, 1): f(-1), (1, 0): f(1)},  # u -> c - [a,b]
        4: {(0, 2): f(1), (2, 0): f(-1)},  # v -> [a,c]
        5: {(1, 2): f(1), (2, 1): f(-1)},  # w -> [b,c]
    }


# -- validation --------------------------------------------------------------

def test_validate_remark():
    rep = validate(remark(), Truncation(6))
    assert rep.ok


def test_validate_abelianizing():
    P = DglPresentation.from_strings([("x", 0), ("z", 1)], {"z": "x"})
    assert validate(P, Truncation(4)).ok


def test_validate_degree_failure_names_generator():
    P = DglPresentation.from_strings([("y", 1), ("z", 1)], {"z": "y"})
    rep = validate(P, Truncation(4))
    assert not rep.ok
    assert rep.issues[0].generator == "z"
    assert rep.issues[0].kind == "degree"


def test_validate_d_squared_failure():
    P = DglPresentation.from_strings(
        [("w", 0), ("v", 1), ("u", 2)], {"u": "v", "v": "w"}
    )
    rep = validate(P, Truncation(4))
    assert not rep.ok
    assert any(i.kind == "d-squared" and i.generator == "u" for i in rep.issues)


# -- derivation extension ----------------------------------------------------

def test_extend_derivation_on_generator():
    P = remark()
    z = gen_elt(P.gens, "z")
    dz = extend_derivation(P, z)
    assert dz == P.diff["z"]


def test_extend_derivation_on_bracket_matches_oracle():
    P = remark()
    yz = graded_bracket(gen_elt(P.gens, "y"), gen_elt(P.gens, "z"))
    got = extend_derivation(P, yz)
    want = o_derivation(P.gens.degrees, remark_dmap(), yz.terms)
    assert got.terms == want
    # derivation rule by hand: d[y,z] = [y, dz] = [y,x] - [y,[y,x]]
    y, x = gen_elt(P.gens, "y"), gen_elt(P.gens, "x")
    hand = graded_bracket(y, x) - graded_bracket(y, graded_bracket(y, x))
    assert got == hand


def test_extend_derivation_kills_cycles():
    P = remark()
    assert extend_derivation(P, gen_elt(P.gens, "x")).is_zero()


def test_derivation_never_lowers_length():
    P = heisenberg_dgl()
    for name in P.gens.names:
        g = gen_elt(P.gens, name)
        img = extend_derivation(P, g)
        if not img.is_zero():
            assert (img.min_length() or 1) >= 1


# -- quotient complexes ------------------------------------------------------

def test_lcs_quotient_complex_remark_n2():
    cx = lcs_quotient_complex(remark(), 2, (0, 1))
    assert [cx.slice(0).element(i).pretty() for i in range(cx.slice(0).dim)] == ["x", "y"]
    assert [cx.slice(1).element(i).pretty() for i in range(cx.slice(1).dim)] == ["z"]
    d1 = cx.differential(1)
    assert d1.entries == {(0, 0): Fraction(1)}  # d z = x in L/L^2


def test_lcs_quotient_complex_n1_is_zero():
    cx = lcs_quotient_complex(remark(), 1, (0, 1))
    assert cx.slice(0).dim == 0
    assert cx.slice(1).dim == 0


def test_zero_differential_homology_is_spaces():
    P = DglPresentation.from_strings([("x", 0), ("y", 0)], {})
    cx = lcs_quotient_complex(P, 4, (0, 0))
    dim, _ = cx.homology(0)
    assert dim == cx.slice(0).dim == 2 + 1 + 2


def test_euler_characteristic_on_remark_complexes():
    for n in (2, 3, 4):
        assert lcs_quotient_complex(remark(), n, (0, 1)).euler_characteristic_check()


def test_differential_respects_length_filtration():
    P = remark()
    cx = lcs_quotient_complex(P, 5, (0, 2))
    for q in (1, 2):
        sl = cx.slice(q)
        for b in map(sl.element, range(sl.dim)):
            img = extend_derivation(P, b)
            if not img.is_zero():
                assert img.min_length() >= b.min_length()


# -- towers ------------------------------------------------------------------

def test_tower_remark_degree0():
    report = homology_tower(remark(), 0, range(2, 7))
    assert report.dims() == [1, 1, 1, 1, 1]
    assert report.image_dims() == [1, 1, 1, 1, 1]
    assert report.stabilized_from == 2
    for row in report.rows:
        assert row["representatives"] == ["y"]


def test_tower_remark_degree0_matches_independent_oracle():
    P = remark()
    for n in (2, 3, 4):
        want = o_homology_dim(P.gens.degrees, remark_dmap(), n, 0)
        got = homology_tower(P, 0, [max(2, n)]).rows[-1]["dim_H"] if n >= 2 else None
        assert got == want == 1


def test_tower_fast_path_agrees_with_complex_path():
    # whole degree-0 rows: the tower's kept unit vectors are the per-n complex's representatives
    rng = random.Random(34)
    cases = [remark(), heisenberg_dgl()]
    cases += [random_degree01_presentation(rng)[0] for _ in range(10)]
    cases += [family_member(rng) for _ in range(4)]
    for P in cases:
        for n in (2, 3, 4):
            row = homology_tower(P, 0, [n]).rows[0]
            dim, reps = lcs_quotient_complex(P, n, (0, 0)).homology(0)
            assert (row["dim_H"], row["dim_image"]) == (dim, dim), (P, n)
            assert row["representatives"] == [r.pretty() for r in reps], (P, n)


def test_tower_heisenberg_stabilizes_at_three():
    report = homology_tower(heisenberg_dgl(), 0, range(2, 7))
    assert report.dims() == [2, 3, 3, 3, 3]
    assert report.stabilized_from == 3
    want = o_homology_dim(heisenberg_dgl().gens.degrees, heisenberg_dmap(), 4, 0)
    assert want == 3


def test_tower_free_one_generator():
    P = DglPresentation.from_strings([("x", 0)], {})
    report = homology_tower(P, 0, range(2, 6))
    assert report.dims() == [1, 1, 1, 1]


def test_tower_degree1_remark():
    P = remark()
    report = homology_tower(P, 1, range(2, 5))
    want = [o_homology_dim(P.gens.degrees, remark_dmap(), n, 1) for n in (2, 3, 4)]
    assert report.dims() == want
    assert want[0] == 0 and want[1] == 0


def test_tower_image_dims_monotone():
    report = homology_tower(remark(), 1, range(2, 6))
    for row in report.rows:
        assert row["dim_image"] <= row["dim_H"]


# -- exact homology (all generator degrees >= 1) -----------------------------

def test_exact_homology_one_odd_generator():
    P = DglPresentation.from_strings([("a", 1)], {})
    assert [exact_homology(P, q)[0] for q in (1, 2, 3)] == [1, 1, 0]


def test_exact_homology_quadratic_relation_dgl():
    # two generators u1, u3 with d(u3) = [u1, u1]
    P = DglPresentation.from_strings([("u1", 1), ("u3", 3)], {"u3": "[u1, u1]"})
    got = [exact_homology(P, q)[0] for q in (1, 2, 3, 4)]
    want = [o_homology_dim(P.gens.degrees, {1: {(0, 0): Fraction(2)}}, q + 2, q) for q in (1, 2, 3, 4)]
    assert got == want == [1, 0, 0, 1]


def test_exact_homology_minimal_even_sphere_model():
    P = DglPresentation.from_strings([("u", 1)], {})
    assert [exact_homology(P, q)[0] for q in (1, 2, 3, 4)] == [1, 1, 0, 0]


def test_exact_homology_acyclic_pair():
    P = DglPresentation.from_strings([("u", 2), ("v", 1)], {"u": "v"})
    assert all(exact_homology(P, q)[0] == 0 for q in (1, 2, 3, 4))


def test_exact_homology_rejects_degree_zero_generators():
    with pytest.raises(UnsupportedModeError):
        exact_homology(remark(), 0)


# -- randomized comparisons against the dense oracle ---------------------------

_COEFFS = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]


def bracket_trees(degrees, gens, max_length):
    """Nonzero bracket trees over the given generator indices up to
    max_length, as (tree, degree); a tree is an index or a pair of trees."""
    by_length = {1: [(g, degrees[g]) for g in gens]}
    for k in range(2, max_length + 1):
        by_length[k] = [
            ((left, right), dl + dr)
            for i in range(1, k)
            for left, dl in by_length[i]
            for right, dr in by_length[k - i]
        ]
    return [(t, d) for trees in by_length.values() for t, d in trees if tree_words(degrees, t)]


def tree_text(names, tree):
    if isinstance(tree, int):
        return names[tree]
    return f"[{tree_text(names, tree[0])}, {tree_text(names, tree[1])}]"


def tree_words(degrees, tree):
    if isinstance(tree, int):
        return {(tree,): Fraction(1)}
    return o_bracket(degrees, tree_words(degrees, tree[0]), tree_words(degrees, tree[1]))


def random_lie_polynomial(rng, degrees, names, trees):
    """A random combination of the given trees, as (text, oracle word dict)."""
    picked = [(t, rng.choice(_COEFFS)) for t in rng.sample(trees, min(len(trees), rng.randint(1, 3)))]
    text = " + ".join(f"{c}*{tree_text(names, t)}" for t, c in picked).replace("+ -", "- ")
    words = {}
    for t, c in picked:
        for w, v in tree_words(degrees, t).items():
            words[w] = words.get(w, 0) + c * v
    return text, {w: v for w, v in words.items() if v}


def random_degree01_presentation(rng):
    """Generators of degree 0 (d = 0) and 1 (d a Lie polynomial of degree 0):
    d(d) = 0 by degree."""
    n0, n1 = rng.randint(1, 2), rng.randint(1, 2)
    names = [f"x{i}" for i in range(n0)] + [f"z{i}" for i in range(n1)]
    degrees = [0] * n0 + [1] * n1
    trees = [t for t, _ in bracket_trees(degrees, range(n0), 3)]
    diffs, dmap = {}, {}
    for g in range(n0, n0 + n1):
        diffs[names[g]], dmap[g] = random_lie_polynomial(rng, degrees, names, trees)
    return DglPresentation.from_strings(list(zip(names, degrees)), diffs), dmap


def random_positive_presentation(rng):
    """d-closed generators of degree 1 or 2, and one or two more, each with d
    a homogeneous Lie polynomial in the closed ones: d(d) = 0."""
    closed = [rng.randint(1, 2) for _ in range(rng.randint(1, 3))]
    trees = bracket_trees(closed, range(len(closed)), 3)
    targets = sorted({d for _, d in trees if d <= 4})
    extra = [rng.choice(targets) for _ in range(rng.randint(1, 2))]
    names = [f"a{i}" for i in range(len(closed))] + [f"e{i}" for i in range(len(extra))]
    degrees = closed + [d + 1 for d in extra]
    diffs, dmap = {}, {}
    for k, d in enumerate(extra):
        g = len(closed) + k
        pool = [t for t, dt in trees if dt == d]
        diffs[names[g]], dmap[g] = random_lie_polynomial(rng, degrees, names, pool)
    return DglPresentation.from_strings(list(zip(names, degrees)), diffs), dmap


def test_random_degree01_towers_match_the_dense_oracle():
    rng = random.Random(31)
    for _ in range(20):
        P, dmap = random_degree01_presentation(rng)
        for q in (0, 1):
            want = [o_homology_dim(P.gens.degrees, dmap, n, q) for n in (2, 3, 4)]
            assert homology_tower(P, q, range(2, 5)).dims() == want, (P, q)


def test_random_exact_homology_matches_the_dense_oracle_and_per_n_complex():
    rng = random.Random(32)
    for _ in range(15):
        P, dmap = random_positive_presentation(rng)
        assert validate(P, Truncation(4)).ok, P
        for q in (1, 2, 3, 4):
            dim, reps = exact_homology(P, q)
            assert dim == o_homology_dim(P.gens.degrees, dmap, q + 2, q), (P, q)
            assert (dim, reps) == lcs_quotient_complex(P, q + 2, (q, q)).homology(q), (P, q)


# -- the mod-2 rank certificate of the tower ------------------------------------

_FAMILY_COEFFS = ["1", "-1", "2", "-2", "1/2", "-1/2", "3", "-3", "2/3", "-3/2"]


def family_member(rng):
    """A member of the stubborn cycle's family: x, y of degree 0, z of degree
    1, d z a word-length-1 term plus a Lyndon bracket of word length 3."""
    dz = (f"{rng.choice(_FAMILY_COEFFS)}*{rng.choice(['x', 'y'])} + "
          f"{rng.choice(_FAMILY_COEFFS)}*{rng.choice(['[x, [x, y]]', '[[x, y], y]'])}")
    return DglPresentation.from_strings([("x", 0), ("y", 0), ("z", 1)], {"z": dz.replace("+ -", "- ")})


def sullivan_model(name, bound=8):
    with open(os.path.join(FILES, f"{name}.sullivan")) as fh:
        return functors.neisendorfer_model(cli.parse(fh.read()).to_sullivan(), bound)


def certified_and_exact(monkeypatch, P, q, ns, gf2=None):
    """The tower rows of P with the mod-2 certificate (its GF(2) helper
    replaced by gf2 when given), whether they were certified, and the rows
    of a copy of P with no pivot mod 2, which always runs the exact path
    unless every cycle space is 0."""
    exact_runs = []
    complement = dgl.complement_basis
    with monkeypatch.context() as m:
        m.setattr(dgl, "complement_basis", lambda *a: exact_runs.append(a) or complement(*a))
        if gf2 is not None:
            m.setattr(dgl, "gf2_pivots", gf2)
        got = homology_tower(P, q, ns).to_structured()
    copy = DglPresentation(P.gens, P.diff)
    with monkeypatch.context() as m:
        m.setattr(dgl, "gf2_pivots", lambda cols: [None] * len(cols))
        want = homology_tower(copy, q, ns).to_structured()
    return got, not exact_runs, want


def h0_zero():
    """d z = x and d w = y + [x, y]: x is a boundary, so is every bracket
    with x, hence y, and H(L/L^n)_0 = 0 at every n."""
    return DglPresentation.from_strings([("x", 0), ("y", 0), ("z", 1), ("w", 1)],
                                        {"z": "x", "w": "y + [x, y]"})


def test_certified_tower_rows_match_the_exact_path(monkeypatch):
    rng = random.Random(33)
    cases = [(remark(), q, range(2, 9)) for q in (0, 1, 2)]
    cases += [(h0_zero(), q, range(2, 8)) for q in (0, 1)]
    cases += [(family_member(rng), q, range(2, 8)) for _ in range(6) for q in (1, 2)]
    cases += [(P, q, range(2, 6)) for P, _ in [random_degree01_presentation(rng) for _ in range(20)]
              for q in (0, 1)]
    cases += [(random_positive_presentation(rng)[0], q, range(q + 1, q + 4))
              for _ in range(15) for q in (1, 2, 3)]
    certified = []
    for P, q, ns in cases:
        got, was_certified, want = certified_and_exact(monkeypatch, P, q, ns)
        assert got == want, (P, q)
        if was_certified:
            certified.append(q)
            assert all(r["dim_H"] == 0 and r["representatives"] == [] for r in got["rows"]), (P, q)
    assert 10 < len(certified) < len(cases) and 0 in certified


@pytest.mark.parametrize("name", ["heisenberg_dgl", "heisenberg", "even_sphere"])
def test_towers_with_homology_fall_back_to_the_exact_path(monkeypatch, name):
    P = heisenberg_dgl() if name == "heisenberg_dgl" else sullivan_model(name)
    for q in (1, 2):
        got, was_certified, want = certified_and_exact(monkeypatch, P, q, range(2, 7))
        assert got == want and not was_certified
        assert any(r["dim_H"] for r in got["rows"])


def test_a_gap_mod_2_falls_back_with_identical_rows(monkeypatch):
    def drop_one_pivot(cols):
        pivots = linalg.gf2_pivots(cols)
        pivots[next(j for j, p in enumerate(pivots) if p is not None)] = None
        return pivots

    got, was_certified, _ = certified_and_exact(monkeypatch, remark(), 1, range(2, 9))
    assert was_certified
    gapped, was_certified, _ = certified_and_exact(monkeypatch, remark(), 1, range(2, 9), drop_one_pivot)
    assert gapped == got and not was_certified


def test_a_rank_mod_2_above_the_cycle_bound_raises(monkeypatch):
    monkeypatch.setattr(dgl, "gf2_pivots", lambda cols: list(range(len(cols))))
    with pytest.raises(InvariantError, match=r"D_2 of L/L\^5 has rank 10 mod 2, above the cycle dimension 8"):
        homology_tower(remark(), 1, range(2, 5))


def test_certified_rows_check_the_span_of_the_cycles(monkeypatch):
    # one cycle combination lost: the span falls short of C_n - rank D_1
    quotient = dgl.Quotient
    monkeypatch.setattr(dgl, "Quotient", lambda rows, size: quotient(rows[1:], size))
    with pytest.raises(InvariantError, match="the cycle combinations span 0 dimensions at n = 3, "
                                             "the pivots of D_1 give 1"):
        homology_tower(remark(), 1, range(2, 5))


# -- matrices of d in the bracketing basis ---------------------------------------

def stubborn():
    with open(os.path.join(FILES, "stubborn_cycle.dgl")) as fh:
        return cli.parse(fh.read()).to_dgl()


def bracket_cases():
    """(P, N, degrees): the stubborn cycle and members of its family at
    N = 8, and the random presentations above at N = 6."""
    rng = random.Random(36)
    cases = [(stubborn(), 8, (0, 1, 2))] + [(family_member(rng), 8, (0, 1, 2)) for _ in range(3)]
    cases += [(random_degree01_presentation(rng)[0], 6, (0, 1, 2)) for _ in range(8)]
    cases += [(random_positive_presentation(rng)[0], 6, (1, 2, 3, 4)) for _ in range(8)]
    return cases


def slice_forms(sl):
    """The word terms of the bracketings of a slice, with every piece
    expanded."""
    sl._expand(range(1, sl.n))
    return sl._forms


def t_columns(sl):
    """T of a slice read off its bracketings: column m holds the coefficients
    of the pivot words in bracketing m."""
    index = {pivot: k for k, pivot in enumerate(sl.pivots)}
    return [{index[w]: c for w, c in terms.items() if w in index} for terms in slice_forms(sl)]


def s_columns(sl):
    """S = T^-1 of a slice, column j as S * e_j by forward substitution over T."""
    return [sl.basis_coeffs({j: 1}) for j in range(sl.dim)]


def times(left, right):
    """left * right for matrices held as lists of sparse columns."""
    out = []
    for col in right:
        acc = {}
        for k, c in col.items():
            for i, t in left[k].items():
                acc[i] = acc.get(i, 0) + c * t
        out.append({i: c for i, c in acc.items() if c})
    return out


def rank_mod_2(cols):
    """Rank over GF(2) by elimination of bit rows at their highest bit."""
    kept = {}
    for col in cols:
        v = sum(1 << i for i, c in col.items() if c % 2)
        while v and v.bit_length() in kept:
            v ^= kept[v.bit_length()]
        if v:
            kept[v.bit_length()] = v
    return len(kept)


def rank_q(cols):
    ech = linalg.IntEchelon()
    for col in cols:
        ech.insert(col)
    return ech.dim


def block(cols, rows, lo=0, col_lo=0):
    return [{i: c for i, c in col.items() if lo <= i < rows} for col in cols[col_lo:]]


def test_echelon_matrices_are_t_times_b_times_s():
    # D = T_tgt * B * S_src exactly, so D * T_src = T_tgt * B, for the square
    # matrices of every tower and the untruncated ones of the boundary solver
    built = 0
    for P, N, degrees in bracket_cases():
        for q in degrees:
            for n_src, n_tgt in ((N, N), (N - 1, N - 1 + P.max_shift())):
                dm = P.d_matrix(q, n_src, n_tgt)
                src, tgt = dm._slices
                assert src is P.slice(q, n_src) and tgt is P.slice(q - 1, n_tgt)
                B, D = dm.columns, dm.matrix.columns()
                assert len(B) == len(D) == src.dim and dm.matrix.rows == tgt.dim
                assert all(type(c) is int for col in B for c in col.values())
                tb = times(t_columns(tgt), B)
                assert D == times(tb, s_columns(src)), (P, q, n_src, n_tgt)
                assert times(D, t_columns(src)) == tb, (P, q, n_src, n_tgt)
                built += bool(tgt.dim and any(B))
    assert built >= 40


def test_leading_blocks_of_b_and_d_have_equal_ranks_over_q_and_mod_2():
    # every leading block (word lengths < n on both sides) and every
    # length-preserving block of B has the rank of D's, over Q and mod 2
    compared = even = 0
    for P, N, degrees in bracket_cases():
        for q in degrees:
            dm = P.d_matrix(q, N, N)
            src, tgt = dm._slices
            B, D = dm.columns, dm.matrix.columns()
            for n in range(2, N + 1):
                r, c = tgt.count_below(n), src.count_below(n)
                lead_b, lead_d = block(B[:c], r), block(D[:c], r)
                assert rank_q(lead_b) == rank_q(lead_d), (P, q, n)
                assert rank_mod_2(lead_b) == rank_mod_2(lead_d), (P, q, n)
                lo, hi, c_lo = tgt.count_below(n - 1), r, src.count_below(n - 1)
                assert rank_q(block(B[:c], hi, lo, c_lo)) == rank_q(block(D[:c], hi, lo, c_lo))
                compared += 1
            even += any(c % 2 == 0 for col in B for c in col.values())
    assert compared > 150 and even > 3


def test_substitution_over_t_gives_s_times_echelon_coordinates():
    # for random echelon coordinates c, the bracketing coordinates that
    # int_coords reads off the expanded element are S * c, and T maps them back
    rng = random.Random(37)
    checked = 0
    for P, N, degrees in bracket_cases()[::2]:
        for q in degrees:
            sl = P.slice(q, N)
            for _ in range(6 if sl.dim else 0):
                c = {i: rng.choice([-3, -1, 1, 2, 5]) for i in rng.sample(range(sl.dim), min(sl.dim, 4))}
                den, terms = sl.int_element(c)
                a = sl.int_coords(terms)
                assert den == 1 and a == sl.basis_coeffs(c) and sl.echelon_coords(a) == c
                assert linalg._combine_columns(slice_forms(sl), a) == terms
                checked += 1
    assert checked > 40


def test_echelon_coordinates_are_the_coefficients_at_the_pivot_words():
    # T * S = 1 on words: echelon element i has coefficient 1 at pivot word i
    # and 0 at every other pivot word, so the echelon coordinates that
    # coords gives a random integer combination u are u's coefficients at
    # the pivot words
    rng = random.Random(39)
    checked = 0
    for P, N, degrees in bracket_cases():
        for q in degrees:
            sl = P.slice(q, N)
            words = [decode_word(pivot) for pivot in sl.pivots]
            for i in range(sl.dim):
                terms = sl.element(i).terms
                assert [terms.get(w, 0) for w in words] == [int(k == i) for k in range(sl.dim)], (P, q, i)
            for _ in range(4 if sl.dim else 0):
                picked = rng.sample(range(sl.dim), min(sl.dim, 5))
                u = freelie.zero(P.gens)
                for i in picked:
                    u = u + rng.choice([-3, -1, 1, 2, 5]) * sl.element(i)
                want = {k: u.terms[w] for k, w in enumerate(words) if w in u.terms}
                assert sl.coords(u) == want and set(want) == set(picked), (P, q)
                checked += 1
    assert checked > 100


def test_a_perturbed_image_word_fails_the_build(monkeypatch):
    # one generator's image with its coefficient at one word of no pivot
    # raised by 1 is outside the slice, and the build of B raises
    derive = dgl._derive_int
    perturbed = []

    def once(P, terms):
        image = derive(P, terms)
        tgt = P.slice(0, 8)
        spare = [w for w in image if len(w) >= 2 and w not in tgt._pivot]
        if spare and not perturbed:
            perturbed.append(spare[0])
            image[spare[0]] += 1
        return image

    for P in (stubborn(), family_member(random.Random(38))):
        perturbed.clear()
        monkeypatch.setattr(dgl, "_derive_int", once)
        with pytest.raises(DglError, match="not in the degree-0 slice of L/L\\^8"):
            P.d_matrix(1, 8, 8)
        assert perturbed
        monkeypatch.setattr(dgl, "_derive_int", derive)
        assert DglPresentation(P.gens, P.diff).d_matrix(1, 8, 8).columns


def test_a_forced_gap_mod_2_keeps_the_representatives(monkeypatch):
    # with one pivot mod 2 dropped, the exact path on B gives the rows of the
    # unforced run and of the path with no pivot mod 2, and the
    # representatives of every row are those of the per-n complex on D
    def drop_one_pivot(cols):
        pivots = linalg.gf2_pivots(cols)
        found = [j for j, p in enumerate(pivots) if p is not None]
        if found:
            pivots[found[0]] = None
        return pivots

    with_h = 0
    for P, q in [(heisenberg_dgl(), 1), (heisenberg_dgl(), 0), (remark(), 0), (remark(), 1),
                 (sullivan_model("even_sphere"), 1), (sullivan_model("heisenberg"), 2)]:
        got, _, want = certified_and_exact(monkeypatch, P, q, range(2, 6))
        gapped, was_certified, _ = certified_and_exact(monkeypatch, P, q, range(2, 6), drop_one_pivot)
        assert gapped == got == want and not was_certified
        for row in gapped["rows"]:
            dim, reps = lcs_quotient_complex(P, row["n"], (q, q)).homology(q)
            assert (row["dim_H"], row["representatives"]) == (dim, [r.pretty() for r in reps])
            with_h += q >= 1 and dim > 0
    assert with_h >= 4


def test_a_cold_degree_1_tower_builds_no_s(monkeypatch):
    # the stubborn cycle's degree-1 tower is certified mod 2 at every n and
    # reads only B: S is applied only where int_coords reads d(z) back, to
    # its pivot coefficients in the pieces of length <= 2, and no echelon
    # matrix of d is built
    monkeypatch.setattr(freelie, "_basis_cache", {})
    solved = []
    solve = freelie.solve_unitriangular
    for module in (dgl, freelie):
        monkeypatch.setattr(module, "solve_unitriangular", lambda lower, x: solved.append(x) or solve(lower, x))
    P = stubborn()
    report = homology_tower(P, 1, range(2, 9))
    assert report.dims() == [0] * 7 and freelie._basis_cache
    short = P.slice(0, 8).count_below(3)
    assert solved and all(i < short for x in solved for i in x), solved
    assert all(dm._matrix is None and dm._reduction is None for dm in P._matrix_cache.values())
    # the degree-0 tower has H = y at every n, and expands its representatives
    # by forward substitution over the T of the degree-0 pieces
    solved.clear()
    assert homology_tower(P, 0, range(2, 9)).rows[-1]["representatives"] == ["y"]
    assert solved
    assert all(dm._matrix is None for dm in P._matrix_cache.values())


def eager_lyndon(gens, length, degree, memo):
    """(w, cut, word terms) of the standard bracketings of the Lyndon words
    of a piece, sorted by w, built eagerly, as every piece was before its
    words were built on demand: each from the bracketings of its standard
    factors by `freelie._int_bracket`; memo holds them by piece."""
    key = (length, degree)
    if key not in memo:
        found = []
        if length == 1:
            found = [(chr(i), 0, {chr(i): 1}) for i, d in enumerate(gens.degrees) if d == degree]
        else:
            for k in range(1, length):
                for du in range(degree + 1):
                    right = eager_lyndon(gens, length - k, degree - du, memo)
                    for u, cut, pu in eager_lyndon(gens, k, du, memo):
                        found += [(u + v, k, freelie._int_bracket(pu, du, pv, degree - du))
                                  for v, _, pv in right if u < v and (not cut or v <= u[cut:])]
        memo[key] = sorted(found, key=lambda form: form[0])
    return memo[key]


def eager_piece(gens, length, degree, memo):
    """(forms, lower) of a piece, as `freelie.LiePiece.expand` gives them,
    built eagerly from `eager_lyndon`."""
    forms = [(w, terms) for w, _, terms in eager_lyndon(gens, length, degree, memo)]
    half = degree // 2
    if length % 2 == 0 and degree % 2 == 0 and half % 2:
        for u, _, pu in eager_lyndon(gens, length // 2, half, memo):
            forms.append((u + u, {w: c // 2 for w, c in freelie._int_bracket(pu, half, pu, half).items()}))
        forms.sort(key=lambda form: form[0])
    index = {pivot: m for m, (pivot, _) in enumerate(forms)}
    return forms, [{index[w]: t for w, t in terms.items() if w in index and w != pivot} for pivot, terms in forms]


def test_pieces_built_on_demand_equal_the_eager_build(monkeypatch):
    # the towers of the stubborn family and of the random presentations,
    # from cold caches, build the word terms and T of a piece only where a
    # reader needs them; those, and then every other piece of the runs,
    # equal the eager build, word for word and in the same order
    built = lazy = 0
    for P, N, degrees in bracket_cases():
        monkeypatch.setattr(freelie, "_basis_cache", {})
        for q in degrees:
            homology_tower(P, q, range(2, N))
        pieces = freelie._basis_cache.items()
        read = [key for key, piece in pieces if piece._expanded is not None]
        assert read and len(read) < len(pieces)
        memo = {}
        for (gens, length, degree), piece in pieces:
            bracketings, lower = piece.expand()
            want = eager_piece(gens, length, degree, memo)
            assert [list(terms.items()) for terms in bracketings] == [list(terms.items()) for _, terms in want[0]]
            assert (piece.pivots, lower) == ([pivot for pivot, _ in want[0]], want[1]), (gens, length, degree)
        built += len(read)
        lazy += len(pieces) - len(read)
    assert built > 100 and lazy > 200


def word_path_columns(P, dm):
    """B of a kept matrix of d on the word path: every source bracketing
    expanded into words, derived and read back by `int_coords`, which drops
    the words of length >= the target's n."""
    src, tgt = dm._slices
    return [tgt.int_coords(dgl._derive_int(P, terms)) if tgt.dim else {} for terms in slice_forms(src)]


def odd_square_presentations():
    """Degree-0 and degree-1 generators, so the odd squares of the degree-1
    Lyndon words are sources and targets of d."""
    return [
        DglPresentation.from_strings([("a", 1), ("x", 0)], {"a": "x"}),
        DglPresentation.from_strings([("a", 1), ("b", 1), ("x", 0), ("y", 0)],
                                     {"a": "x - [y, x]", "b": "2*[x, y]"}),
    ]


def lowering_presentation(degrees, rng):
    """Generators of the given degrees, d of each a random combination of
    the bracket trees of length <= 3 one degree lower, where there are any:
    d is a derivation of degree -1, which is all the build of B needs
    (d^2 = 0 is not)."""
    names = [f"g{i}" for i in range(len(degrees))]
    trees = bracket_trees(degrees, range(len(degrees)), 3)
    diffs = {}
    for name, k in zip(names, degrees):
        pool = [t for t, d in trees if d == k - 1]
        if pool:
            diffs[name] = random_lie_polynomial(rng, degrees, names, pool)[0]
    return DglPresentation.from_strings(list(zip(names, degrees)), diffs)


_PAIRS = ((6, 6), (6, 8), (5, 8))

# (id, presentations from a seeded rng, source degrees, (n_src, n_tgt) pairs,
# least counts of nonzero Leibniz columns: of length 2, odd squares xx among
# them, of length >= 3, odd squares among those, and of the matrices with a
# longer target than source whose Leibniz columns include one of length >= 3)
WORD_PATH_CASES = [
    ("family", lambda rng: [family_member(rng) for _ in range(2)], (1, 2), ((8, 8), (9, 9)),
     (12, 4, 1373, 27, 0)),
    ("odd-squares", lambda rng: odd_square_presentations(), (1, 2, 3), ((7, 7), (6, 8)), (16, 6, 770, 11, 5)),
    ("degree01", lambda rng: [random_degree01_presentation(rng)[0] for _ in range(6)], (1, 2, 3, 4), _PAIRS,
     (72, 33, 1323, 17, 39)),
    ("positive", lambda rng: [random_positive_presentation(rng)[0] for _ in range(6)], (1, 2, 3, 4), _PAIRS,
     (9, 0, 0, 0, 0)),
]

# the same, one test case each: the stubborn cycle, a member of its family,
# presentations of the pieces' generator degree profiles and Neisendorfer
# models
LEIBNIZ_CASES = [
    ("stubborn", lambda rng: [stubborn()], (1, 2), ((8, 8), (9, 9)), (6, 2, 776, 16, 0)),
    ("family-shift-2", lambda rng: [DglPresentation.from_strings(
        [("x", 0), ("y", 0), ("z", 1)], {"z": "-1/2*y + 3*[[x, y], y]"})], (1, 2), ((8, 8), (9, 9)),
     (6, 2, 668, 13, 0)),
] + [
    # d is zero on the profiles with no letter or bracket one degree lower
    # than a generator
    ("deg" + "-".join(map(str, ds)), lambda rng, ds=ds: [lowering_presentation(ds, rng)], range(1, 8), _PAIRS,
     least)
    for ds, least in (
        ([0, 0], (0,) * 5), ([0, 0, 0], (0,) * 5), ([1], (0,) * 5), ([1, 1], (0,) * 5),
        ([0, 1], (3, 3, 17, 0, 5)), ([0, 0, 1], (9, 3, 94, 4, 7)), ([1, 2], (3, 0, 16, 3, 3)),
        ([2, 3], (3, 3, 0, 0, 0)), ([1, 1, 1], (0,) * 5), ([3, 3], (0,) * 5), ([1, 3], (3, 3, 3, 0, 2)),
        ([0, 1, 2], (9, 3, 150, 3, 12)),
    )
] + [
    (name, lambda rng, name=name: [sullivan_model(name, 6)], degrees, _PAIRS, least)
    for name, degrees, least in (("even_line", range(1, 10), (9, 3, 20, 0, 6)),
                                 ("even_sphere", range(1, 10), (30, 3, 170, 0, 7)),
                                 ("heisenberg", (1, 2, 3), (63, 9, 3776, 27, 6)))
]


def leibniz_column_counts(monkeypatch, presentations, degrees, ns):
    """Checks every matrix of d of the presentations at the source degrees
    and (n_src, n_tgt) pairs against the word path; returns the counts of
    nonzero Leibniz columns that `WORD_PATH_CASES` describes."""
    derived = []
    derive = dgl._derive_int
    monkeypatch.setattr(dgl, "_derive_int", lambda P, terms: derived.append(terms) or derive(P, terms))
    counts = [0] * 5
    for P in presentations:
        for q in degrees:
            for n_src, n_tgt in ns:
                derived.clear()
                dm = P.d_matrix(q, n_src, n_tgt)
                assert all(len(w) == 1 for terms in derived for w in terms), (P, q, n_src, n_tgt)
                want = word_path_columns(P, dm)
                assert [list(col.items()) for col in dm.columns] == [list(col.items()) for col in want], \
                    (P, q, n_src, n_tgt)
                built = [pivot for pivot, col in zip(dm._slices[0].pivots, want) if len(pivot) > 1 and col]
                pairs = [pivot for pivot in built if len(pivot) == 2]
                longer = [pivot for pivot in built if len(pivot) > 2]
                counts[0] += len(pairs)
                counts[1] += sum(map(dgl._is_square, pairs))
                counts[2] += len(longer)
                counts[3] += sum(map(dgl._is_square, longer))
                counts[4] += bool(longer) and dm._slices[1].n > dm._slices[0].n
    monkeypatch.undo()
    return counts


def test_leibniz_columns_equal_the_word_path(monkeypatch):
    # every column of B above the generators, built from its standard
    # factors' columns by the Leibniz rule, equals the derivation of its words
    # read back by int_coords, entry for entry and in the same order; the
    # build derives only the words of generators
    for name, make, degrees, ns, least in WORD_PATH_CASES:
        counts = leibniz_column_counts(monkeypatch, make(random.Random(39)), degrees, ns)
        assert all(c >= floor for c, floor in zip(counts, least)), (name, counts)


@pytest.mark.parametrize("make, degrees, ns, least", [case[1:] for case in LEIBNIZ_CASES],
                         ids=[case[0] for case in LEIBNIZ_CASES])
def test_leibniz_columns_equal_the_word_path_per_presentation(monkeypatch, make, degrees, ns, least):
    counts = leibniz_column_counts(monkeypatch, make(random.Random(39)), degrees, ns)
    assert all(c >= floor for c, floor in zip(counts, least)), counts


# -- lower central series layers ---------------------------------------------

def test_lcs_basis_everything_at_p1():
    P = DglPresentation.from_strings([("x", 0), ("y", 0)], {})
    layer = lcs_basis(P, 1, Truncation(4))
    assert layer.dims() == {0: 2 + 1 + 2}


def test_lcs_basis_p2_two_even_generators():
    P = DglPresentation.from_strings([("x", 0), ("y", 0)], {})
    layer = lcs_basis(P, 2, Truncation(4))
    assert layer.dims() == {0: 1 + 2}


def test_lcs_basis_top_is_zero():
    P = DglPresentation.from_strings([("x", 0), ("y", 0)], {})
    layer = lcs_basis(P, 4, Truncation(4))
    assert layer.dims() == {}


# -- boundary solving ----------------------------------------------------------

def test_boundary_solve_definitional_target():
    P = remark()
    target = P.diff["z"]
    res = boundary_solve(P, target, Truncation(5))
    assert res.status == "SAT"
    z = gen_elt(P.gens, "z")
    res2, kernel, src = witness_direction_space(P, target, Truncation(5))
    diff = src.coords((res2.witness - z).truncate_length(5))
    assert kernel.contains(diff)  # z is in the affine solution set


def test_boundary_solve_x_in_truncations():
    P = remark()
    x = gen_elt(P.gens, "x")
    y, z = gen_elt(P.gens, "y"), gen_elt(P.gens, "z")
    for n in range(2, 7):
        t = Truncation(n)
        res = boundary_solve(P, x, t)
        assert res.status == "SAT"
        canonical = TensorElt(P.gens)
        for qq in range(0, n - 1):
            canonical = canonical + ad_power(y, z, qq)
        assert extend_derivation(P, canonical).truncate_length(n) == x.truncate_length(n)
        _, kernel, src = witness_direction_space(P, x, t)
        diff = src.coords((res.witness - canonical).truncate_length(n))
        assert kernel.contains(diff)


def test_boundary_solve_exact_mode_unsat():
    P = remark()
    x = gen_elt(P.gens, "x")
    res = boundary_solve(P, x, Truncation(6), exact_in_l=True)
    assert res.status == "UNSAT-within-bound"
    assert res.witness is None


def test_boundary_solve_non_cycle_rejected():
    P = remark()
    with pytest.raises(DglError):
        boundary_solve(P, gen_elt(P.gens, "z"), Truncation(4))


def test_boundary_solve_non_boundary_unsat():
    P = remark()
    res = boundary_solve(P, gen_elt(P.gens, "y"), Truncation(5))
    assert res.status == "UNSAT-within-bound"


# -- top-length analysis -------------------------------------------------------

def test_obstruction_remark_injectivity_table():
    P = remark()
    rep = top_length_obstruction(P, 1, range(1, 6))
    assert rep.injective[1] and rep.injective[2]
    # the raising part has a kernel from length 3 on: dimension forces it
    # (dim of the degree-1 length-3 piece is 4, its target has dimension 3)
    assert not rep.injective[3]
    w = rep.kernel_witness[3]
    raising = DglPresentation(P.gens, {"z": P.diff["z"].length_component(2)})
    assert extend_derivation(raising, w).is_zero()
    assert not w.is_zero()


def test_obstruction_dimension_count_forces_kernel():
    # independent count: substitution target dims vs source dims at length 3
    P = remark()
    src = [o_dynkin(P.gens.degrees, w) for w in o_words(P.gens.degrees, 3, 1)]
    sub = {2: {(1, 0): Fraction(-1), (0, 1): Fraction(1)}}  # raising part only
    imgs = [o_derivation(P.gens.degrees, sub, v) for v in src]
    assert o_rank(src) == 4
    assert o_rank(imgs) == 3


def test_obstruction_excludes_x_up_to_length_five():
    P = remark()
    rep = top_length_obstruction(P, 1, range(1, 6))
    x = gen_elt(P.gens, "x")
    assert rep.excludes(x)
    assert not rep.excludes(P.diff["z"])  # that one has the witness z


def test_obstruction_vacuous_when_no_raising_part():
    P = DglPresentation.from_strings([("x", 0), ("z", 1)], {"z": "x"})
    rep = top_length_obstruction(P, 1, range(1, 4))
    assert rep.vacuous
    assert not rep.certificate


def test_obstruction_vacuous_one_generator():
    P = DglPresentation.from_strings([("a", 1)], {})
    rep = top_length_obstruction(P, 1, range(1, 4))
    assert rep.vacuous


# -- completion series ---------------------------------------------------------

def test_completion_series_remark():
    P = remark()
    y, z, x = (gen_elt(P.gens, n) for n in ("y", "z", "x"))
    report = completion_boundary_check(P, lambda q: ad_power(y, z, q), x, 6)
    assert report.verified
    assert [n for n, ok in report.checked] == [2, 3, 4, 5, 6]


def test_completion_series_zero():
    P = remark()
    zero_elt = TensorElt(P.gens)
    report = completion_boundary_check(P, lambda q: zero_elt, zero_elt, 5)
    assert report.verified


def test_completion_series_wrong_target_fails_at_two():
    P = remark()
    y, z = gen_elt(P.gens, "y"), gen_elt(P.gens, "z")
    report = completion_boundary_check(P, lambda q: ad_power(y, z, q), y, 6)
    assert not report.verified
    assert report.checked[0] == (2, False)


def test_completion_series_rejects_non_escalating():
    P = remark()
    z, x = gen_elt(P.gens, "z"), gen_elt(P.gens, "x")
    with pytest.raises(DglError):
        completion_boundary_check(P, lambda q: z, x, 5)


# -- derived degree-0 tables ----------------------------------------------------

def test_h0_table_from_tower_remark_is_abelian_line():
    table, reps = h0_table_from_tower(remark(), 6)
    assert table.dim == 1
    assert [r.pretty() for r in reps] == ["y"]
    assert lemma1_audit(table).combined.outcome == "holds"


def test_h0_table_from_tower_heisenberg():
    table, reps = h0_table_from_tower(heisenberg_dgl(), 6)
    assert table.dim == 3
    assert not table.validate()
    audit = lemma1_audit(table)
    assert audit.combined.outcome == "holds"
    assert audit.condition_a.vanishing_index == 3  # nilpotency class 2


def test_h0_bounded_window_remark_two_classes():
    table, reps, closed = h0_table_bounded_window(remark(), 2, 6)
    assert closed
    assert [r.pretty() for r in reps] == ["x", "y"]
    # on classes: [y, x] = x (x is homologous to [y, x])
    got = table.bracket({table.index["c1"]: Fraction(1)}, {table.index["c0"]: Fraction(1)})
    assert got == {table.index["c0"]: Fraction(1)}
    audit = lemma1_audit(table)
    assert audit.combined.outcome == "fails"
    assert audit.condition_a.outcome == "fails"
    assert audit.condition_a.witness_text == "c0"


def test_h0_discrepancy_report_remark():
    report = h0_discrepancy_report(remark(), Truncation(6))
    assert report["tower_dim"] == 1
    assert report["free_window_dim"] == 2
    assert report["discrepancy"]
    assert not report["exact_mode_applies"]


def test_h0_discrepancy_report_heisenberg_agrees():
    report = h0_discrepancy_report(heisenberg_dgl(), Truncation(6))
    assert report["tower_dim"] == 3
    assert report["free_window_dim"] == 3
    assert not report["discrepancy"]
