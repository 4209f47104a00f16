import itertools
import random
from fractions import Fraction

import pytest

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
from lietower.freelie import GeneratorSet, TensorElt, ad_power, gen_elt, graded_bracket
from lietower.pronil import lemma1_audit


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
    for P in (remark(), heisenberg_dgl()):
        for n in (2, 3, 4):
            fast = homology_tower(P, 0, [n]).rows[0]["dim_H"]
            slow, _ = lcs_quotient_complex(P, n, (0, 0)).homology(0)
            assert fast == slow


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
