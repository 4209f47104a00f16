import itertools
import random
from fractions import Fraction

import pytest

from lietower.dgl import DglPresentation, Truncation, exact_homology, homology_tower, validate
from lietower.freelie import GeneratorSet, lie_dim
from lietower.functors import (
    CdgaTable,
    Cdgc,
    FiniteDgl,
    FunctorError,
    LieCoalgebraTrunc,
    SullivanAlgebra,
    bar_differential,
    bar_lie_coalgebra_E,
    cdga_table_from_sullivan,
    cdgc_homology,
    chevalley_chains,
    duality_check,
    dualize_sullivan,
    functor_A,
    lemma2_quasi_iso_check,
    minimality_check,
    monomials_up_to,
    neisendorfer_model,
    quillen_L,
    shuffle,
    _bar_degree,
)
from lietower.pronil import FiniteLieData, lemma1_audit


def sphere2():
    return SullivanAlgebra.from_strings([("e2", 2), ("e3", 3)], {"e3": "e2 * e2"})


def heisenberg():
    return SullivanAlgebra.from_strings([("x", 1), ("y", 1), ("z", 1)], {"z": "x * y"})


def even_line():
    return SullivanAlgebra.from_strings([("e2", 2)], {})


# -- quillen_L ----------------------------------------------------------------

def test_quillen_primitively_generated_means_no_quadratic_part():
    # one class of degree 2 with zero reduced diagonal: free on one degree-1
    # generator, zero differential
    C = Cdgc(["c2"], [2], {}, {})
    P = quillen_L(C)
    assert list(P.gens.degrees) == [1]
    assert P.diff == {}


def test_quillen_one_diagonal_class_coefficient():
    # diag(c4) = c2 x c2: the quadratic part is exactly -1/2 [w, w]
    C = Cdgc(["c2", "c4"], [2, 4], {}, {1: {(0, 0): Fraction(1)}})
    P = quillen_L(C)
    d = P.diff["w_c4"]
    # [w,w] = 2 w(x)w for odd w, so -1/2 [w,w] = -w(x)w
    assert d.terms == {(0, 0): Fraction(-1)}
    assert validate(P, Truncation(4)).ok


def test_quillen_delta_only():
    C = Cdgc(["a", "b"], [2, 3], {1: {0: Fraction(1)}}, {})
    P = quillen_L(C)
    assert P.diff["w_b"].terms == {(0,): Fraction(-1)}  # minus the desuspension


def test_quillen_rejects_broken_coalgebra():
    # non-cocommutative diagonal
    C = Cdgc(["a", "b", "c"], [2, 3, 5], {}, {2: {(0, 1): Fraction(1)}})
    with pytest.raises(FunctorError):
        quillen_L(C)


def test_quillen_d_squared_on_randomized_duals():
    # random minimal Sullivan algebras dualize to honest coalgebras whose
    # models must validate
    rng = random.Random(17)
    for _ in range(8):
        degs = sorted(rng.choice([1, 1, 2, 2, 3]) for _ in range(rng.randrange(2, 4)))
        names = [f"g{i}" for i in range(len(degs))]
        diffs = {}
        # a decomposable differential on the last generator when degrees allow
        for i, d in enumerate(degs):
            pairs = [
                (a, b)
                for a in range(i)
                for b in range(i)
                if degs[a] + degs[b] == d + 1 and (a != b or degs[a] % 2 == 0)
            ]
            if pairs and rng.random() < 0.7:
                a, b = rng.choice(pairs)
                diffs[names[i]] = f"{names[a]} * {names[b]}"
        S = SullivanAlgebra.from_strings(list(zip(names, degs)), diffs)
        window = S.window(6)
        if not window.d_squared_ok():
            continue
        C = dualize_sullivan(S, 6)
        assert C.validate() == []
        P = quillen_L(C)
        assert validate(P, Truncation(5)).ok


def test_alternative_symmetric_decomposition_same_model():
    # scaling the two sides of the symmetric pair differently is absorbed by
    # cocommutativity: rebuilding from the flipped pair order gives the same d2
    C = Cdgc(["a", "b", "t"], [2, 3, 5], {}, {2: {(0, 1): Fraction(2), (1, 0): Fraction(2)}})
    P = quillen_L(C)
    flipped = Cdgc(["a", "b", "t"], [2, 3, 5], {}, {2: {(1, 0): Fraction(2), (0, 1): Fraction(2)}})
    P2 = quillen_L(flipped)
    assert P.diff["w_t"] == P2.diff["w_t"]


# -- chevalley chains ----------------------------------------------------------

def test_chevalley_abelian_zero_differential():
    t = FiniteLieData([("a", 1), ("b", 2)], {})
    C = chevalley_chains(FiniteDgl(t, {}), 8)
    assert C.validate() == []
    assert not C.delta


def test_chevalley_of_free_odd_line_matches_sphere_homology():
    # L = <a(1), aa(2)> with [a,a] = 2aa: reduced homology one class in degree 2
    t = FiniteLieData([("a", 1), ("aa", 2)], {("a", "a"): {"aa": 2}})
    C = chevalley_chains(FiniteDgl(t, {}), 7)
    dims = [cdgc_homology(C, q) for q in (1, 2, 3, 4, 5)]
    assert dims == [0, 1, 0, 0, 0]


def test_chevalley_one_dimensional_degree_zero():
    t = FiniteLieData([("h", 0)], {})
    C = chevalley_chains(FiniteDgl(t, {}), 5)
    # suspended generator has degree 1 (odd): the window is the two-class line
    assert [cdgc_homology(C, q) for q in (1, 2)] == [1, 0]
    assert C.validate() == []


def test_chevalley_nonabelian_with_differential():
    t = FiniteLieData([("a", 0), ("b", 0), ("c", 0), ("z", 1)], {("a", "b"): {"c": 1}})
    L = FiniteDgl(t, {3: {2: Fraction(1)}})
    assert L.validate() == []
    C = chevalley_chains(L, 4)
    assert C.validate() == []


def test_adjunction_sanity_on_sphere_coalgebra():
    # homology of the chain coalgebra of the model of the one-class coalgebra
    # returns that coalgebra's dimensions in the window
    C = Cdgc(["c2"], [2], {}, {})
    P = quillen_L(C)
    F = FiniteDgl.from_presentation(P, 4, 6)
    assert F.validate() == []
    chains = chevalley_chains(F, 7)
    dims = {q: cdgc_homology(chains, q) for q in (1, 2, 3, 4, 5)}
    assert dims == {1: 0, 2: 1, 3: 0, 4: 0, 5: 0}


# -- dualization ----------------------------------------------------------------

def test_dualize_divided_powers_shape():
    C = dualize_sullivan(even_line(), 8)
    assert C.names == ["e2", "e2_e2", "e2_e2_e2", "e2_e2_e2_e2"]
    i2, i4 = C.index["e2"], C.index["e2_e2"]
    # diagonal of the degree-4 dual is e2 x e2 with coefficient 1
    assert C.diag[i4] == {(i2, i2): Fraction(1)}
    assert C.validate() == []
    assert not C.delta


def test_dualize_zero_differential():
    S = SullivanAlgebra.from_strings([("a", 2), ("b", 4)], {})
    assert not dualize_sullivan(S, 6).delta


def test_dualize_sphere_pairs_differential():
    C = dualize_sullivan(sphere2(), 6)
    i = C.index["e2_e2"]
    j = C.index["e3"]
    assert list(C.delta.get(i, {}).items()) == [(j, Fraction(-1))]
    assert C.validate() == []


# -- minimality -----------------------------------------------------------------

def test_minimality_quadratic_differential():
    assert minimality_check(sphere2()).ok


def test_minimality_canonical_filtration():
    rep = minimality_check(heisenberg())
    assert rep.ok
    assert rep.filtration == [["x", "y"], ["z"]]


def test_minimality_rejects_linear_part():
    S = SullivanAlgebra.from_strings([("u", 2), ("v", 1)], {"v": "u"})
    rep = minimality_check(S)
    assert not rep.ok
    assert "v" in rep.reason


@pytest.mark.parametrize(
    "gens, diffs, message",
    [
        # the window drops d a = w c (degree 11) at bound 9, so an accepted
        # algebra would hide d^2 a = b^2 c (degree 5) from d_squared_ok
        ([("a", 1), ("b", 2), ("c", 1), ("w", 10)], {"a": "w * c", "w": "b * b"},
         "d a has a component of degree 11, expected 2"),
        ([("u", 2), ("v", 3)], {"v": "u"}, "d v has a component of degree 2, expected 4"),
    ],
)
def test_sullivan_rejects_a_differential_of_the_wrong_degree(gens, diffs, message):
    with pytest.raises(FunctorError) as err:
        SullivanAlgebra.from_strings(gens, diffs)
    assert str(err.value) == message


def test_minimality_verifies_supplied_witness():
    S = SullivanAlgebra.from_strings(
        [("x", 1), ("y", 1), ("z", 1)], {"z": "x * y"}, filtration=[["x", "y"], ["z"]]
    )
    assert minimality_check(S).ok
    bad = SullivanAlgebra.from_strings(
        [("x", 1), ("y", 1), ("z", 1)], {"z": "x * y"}, filtration=[["z"], ["x", "y"]]
    )
    assert not minimality_check(bad).ok


# -- the model pipeline -----------------------------------------------------------

def test_neisendorfer_sphere_homology():
    model = neisendorfer_model(sphere2(), 6)
    dims = [exact_homology(model, q)[0] for q in (1, 2, 3, 4)]
    assert dims == [1, 1, 0, 0]


def test_neisendorfer_even_line_homology():
    model = neisendorfer_model(even_line(), 6)
    dims = [exact_homology(model, q)[0] for q in (1, 2, 3, 4)]
    assert dims == [1, 0, 0, 0]


def test_neisendorfer_heisenberg_tower():
    model = neisendorfer_model(heisenberg(), 4)
    assert sorted(model.gens.degrees) == [0, 0, 0, 1, 1, 1, 2]
    tower = homology_tower(model, 0, range(4, 9))
    assert tower.dims() == [3, 3, 3, 3, 3]
    assert tower.stabilized_from == 4
    from lietower.dgl import h0_table_from_tower

    table, _ = h0_table_from_tower(model, 6)
    audit = lemma1_audit(table)
    assert audit.combined.outcome == "holds"
    assert audit.condition_a.vanishing_index == 3


def test_neisendorfer_zero_differential_line():
    model = neisendorfer_model(even_line(), 4)
    assert model.gens.degrees[0] == 1


def test_neisendorfer_rejects_non_minimal():
    S = SullivanAlgebra.from_strings([("u", 2), ("v", 1)], {"v": "u"})
    with pytest.raises(FunctorError):
        neisendorfer_model(S, 5)


# -- bar construction and shuffle quotient ----------------------------------------

def test_bar_d_squared_zero_on_words():
    A = cdga_table_from_sullivan(sphere2(), 7)
    letters = list(range(A.dim))
    for q in (1, 2, 3):
        for w in itertools.product(letters, repeat=q):
            if _bar_degree(A, w) > 6:
                continue
            dd = bar_differential(A, bar_differential(A, {w: Fraction(1)}))
            dd = {k: v for k, v in dd.items() if _bar_degree(A, k) <= 6 and v}
            assert not dd


def test_shuffle_signs_square_zero_letters():
    # two odd bar-degree letters anticommute under shuffle
    A = cdga_table_from_sullivan(sphere2(), 7)
    i = A.index["e2"]  # bar degree 1
    got = shuffle(A, (i,), (i,))
    assert got == {}  # (i,i) + (i,i) with a sign: cancels


def test_bar_quotient_dims_match_free_lie_dual_dims():
    # with zero differential and no products in the window the quotient dims
    # are free Lie coalgebra dims: compare against lie_dim on graded duals
    S = even_line()
    E = bar_lie_coalgebra_E(S, 3, 6)
    gens = GeneratorSet([f"v{i}" for i in range(len(E.A.names))], [d - 1 for d in E.A.degrees])
    for q in range(1, 4):
        for n in range(0, 7):
            assert E.dim(q, n) == lie_dim(gens, q, n), (q, n)


def test_bar_word_length_one_is_desuspension():
    E = bar_lie_coalgebra_E(sphere2(), 1, 6)
    assert {k: len(v) for k, v in E.basis.items() if v} == {
        (1, n): 1 for n in (1, 2, 3, 4, 5, 6)
    }



def test_cdga_table_rejects_degree_zero():
    # bar words are enumerated by prefix, which needs every letter's bar degree >= 0
    with pytest.raises(FunctorError, match="degrees must be >= 1"):
        CdgaTable(["u", "a"], [0, 2], {}, {})

def test_bar_zero_products_zero_differential():
    A = CdgaTable(["a", "b"], [2, 3], {}, {})
    E = LieCoalgebraTrunc(A, 3, 6)
    for (q, n) in E.basis:
        for mat in E.differential_matrix(q, n).values():
            assert mat.is_zero()
    assert E.lie_coalgebra_axioms_ok()


def shuffles_are_stable_under_d(E):
    """The bar differential of a shuffle of two words (the first four of
    each piece) is zero in every class of the quotient it lands in."""
    for (q, n) in sorted(E.words):
        for q1 in range(1, q):
            for n1 in range(0, n + 1):
                for w1 in E.words.get((q1, n1), [])[:4]:
                    for w2 in E.words.get((q - q1, n - n1), [])[:4]:
                        vec = shuffle(E.A, w1, w2)
                        img = bar_differential(E.A, {w: Fraction(c) for w, c in vec.items()})
                        by_key = {}
                        for ww, c in img.items():
                            key = (len(ww), _bar_degree(E.A, ww))
                            if key in E.words:
                                by_key.setdefault(key, {})[ww] = c
                        for key, v in by_key.items():
                            if E.class_coords(*key, v):
                                return False
    return True


def test_shuffle_subspace_stable_under_bar_differential():
    assert shuffles_are_stable_under_d(bar_lie_coalgebra_E(sphere2(), 3, 6))
    assert shuffles_are_stable_under_d(bar_lie_coalgebra_E(heisenberg(), 3, 3))


def test_lie_coalgebra_axioms_on_outputs():
    assert bar_lie_coalgebra_E(sphere2(), 3, 6).lie_coalgebra_axioms_ok()
    assert bar_lie_coalgebra_E(heisenberg(), 3, 3).lie_coalgebra_axioms_ok()


# -- functor_A ---------------------------------------------------------------------

def test_functor_A_trivial_cobracket():
    A = CdgaTable(["a", "b"], [2, 3], {}, {})
    E = LieCoalgebraTrunc(A, 1, 6)  # single letters: cobracket vanishes
    out = functor_A(E, 6)
    assert not out.d


def test_functor_A_single_cosquare():
    # dual situation of the one-diagonal coalgebra: quadratic differential
    A = CdgaTable(["a", "b"], [2, 3], {(0, 0): {1: Fraction(1)}}, {})
    E = LieCoalgebraTrunc(A, 2, 4)
    out = functor_A(E, 6)
    assert out.d  # the merged class maps onto the square of the length-1 class
    squares = [row for row in out.d.values() if any("^" in out.names[j] for j in row)]
    assert squares


def test_functor_A_recovers_sullivan_shape():
    E = bar_lie_coalgebra_E(sphere2(), 2, 5)
    out = functor_A(E, 6)
    # some class maps to (degree-2 class)^2 with a linear correction: the
    # quadratic Sullivan差 differential shape
    found = False
    for i, row in out.d.items():
        kinds = {("^" in out.names[j]) for j in row}
        if kinds == {True, False}:
            found = True
    assert found


# -- duality and the linear-part comparison ----------------------------------------

def test_duality_check_sphere():
    rep = duality_check(sphere2(), 6, 3)
    assert rep.ok
    for row in rep.dims:
        assert row["dim_E"] == row["dim_L"]


def test_duality_word_length_one():
    rep = duality_check(sphere2(), 4, 1)
    assert rep.ok


def test_duality_zero_algebra():
    S = SullivanAlgebra.from_strings([("e9", 9)], {})
    rep = duality_check(S, 5, 2)
    assert rep.ok
    assert all(r["dim_E"] == 0 for r in rep.dims if r["n"] < 8)


def test_duality_check_even_line():
    assert duality_check(even_line(), 6, 3).ok


def test_lemma2_even_line():
    rep = lemma2_quasi_iso_check(even_line(), 1, 4)
    assert rep.ok
    assert [r["dim_H"] for r in rep.rows] == [1, 0, 0, 0]


def test_lemma2_sphere():
    rep = lemma2_quasi_iso_check(sphere2(), 1, 4)
    assert rep.ok
    assert [r["dim_H"] for r in rep.rows] == [1, 1, 0, 0]


def test_lemma2_rejects_degree_one_generators():
    with pytest.raises(FunctorError):
        lemma2_quasi_iso_check(heisenberg(), 1, 3)


def test_pairing_kills_shuffles():
    # Lie elements annihilate shuffle products under the word pairing
    from lietower.freelie import lie_basis
    from lietower.functors import _word_pairing_sign

    S = sphere2()
    E = bar_lie_coalgebra_E(S, 3, 6)
    model = neisendorfer_model(S, 7)
    A = E.A
    for (q1, n1), (q2, n2) in (((1, 1), (1, 2)), ((1, 1), (2, 3))):
        for w1 in E.words.get((q1, n1), []):
            for w2 in E.words.get((q2, n2), []):
                sh = shuffle(A, w1, w2)
                for u in lie_basis(model.gens, q1 + q2, n1 + n2):
                    acc = Fraction(0)
                    for w, c in sh.items():
                        val = u.terms.get(w)
                        if val:
                            acc += c * val * _word_pairing_sign(A, w)
                    assert acc == 0


# -- the free graded-commutative window -----------------------------------------

def s1_times_s2():
    return SullivanAlgebra.from_strings([("x", 1), ("e2", 2), ("e3", 3)], {"e3": "e2 * e2"})


def test_window_monomials_by_degree_then_lex():
    # x odd appears at most once; y even repeats
    assert monomials_up_to((1, 2), 5) == [(0,), (1,), (0, 1), (1, 1), (0, 1, 1)]
    assert monomials_up_to((2, 1), 3) == [(1,), (0,), (0, 1)]


def test_window_product_signs_and_bounds():
    W = heisenberg().window(2)
    assert W.monos == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    x, y = W.index[(0,)], W.index[(1,)]
    assert W.product(x, y) == (W.index[(0, 1)], 1)
    assert W.product(y, x) == (W.index[(0, 1)], -1)
    assert W.product(x, x) is None  # odd square
    assert W.product(x, W.index[(1, 2)]) is None  # degree 3 leaves the window


def test_window_d_squared_defect_names_the_first_failing_monomial():
    # d c = b a with d b = a^2: d^2 c = a^3 in degree 6
    S = SullivanAlgebra.from_strings([("a", 2), ("b", 3), ("c", 4)], {"b": "a * a", "c": "b * a"})
    assert S.window(6).d_squared_defect() == (2,)
    assert not S.window(6).d_squared_ok()
    assert S.window(5).d_squared_defect() is None
    assert sphere2().window(9).d_squared_ok()


def test_window_table_and_dual_share_the_product():
    S = s1_times_s2()
    A = cdga_table_from_sullivan(S, 7)
    C = dualize_sullivan(S, 7)
    assert A.names == C.names and A.degrees == C.degrees
    for (i, j), row in A.products.items():
        ((k, c),) = row.items()
        assert C.diag[k][(i, j)] == c


def test_window_derivation_is_leibniz_on_mixed_parity():
    S = SullivanAlgebra.from_strings([("a", 1), ("a2", 1), ("c", 2), ("b", 2)], {"b": "a * c"})
    # d(a2 b) = d(a2) b - a2 d(b) = -a2 a c = a a2 c
    assert S.window(5).d_of_monomial((1, 3)) == {(0, 1, 2): 1}


def test_neisendorfer_model_of_s1_times_s2():
    S = s1_times_s2()
    assert minimality_check(S).ok and S.window(9).d_squared_ok()
    assert not dualize_sullivan(S, 7).validate()
    P = neisendorfer_model(S, 9)
    for q, rep in ((0, "w_x"), (1, "w_e2")):
        rows = homology_tower(P, q, range(2, 6)).rows
        assert [(r["n"], r["dim_H"], r["representatives"]) for r in rows] == [
            (n, 1, [rep]) for n in range(2, 6)
        ]


def test_functor_A_on_the_bar_quotients_of_minimal_algebras():
    heis = SullivanAlgebra.from_strings([("x", 1), ("y", 1), ("z", 1)], {"z": "x * y"})
    assert functor_A(bar_lie_coalgebra_E(heis, 2, 3), 4).dim == 471
    assert functor_A(bar_lie_coalgebra_E(s1_times_s2(), 3, 3), 4).dim == 41


def test_window_derives_each_monomial_once(monkeypatch):
    import lietower.functors as functors

    calls = []
    derive = functors.derive_monomial

    def counting(degrees, images, m):
        calls.append(m)
        return derive(degrees, images, m)

    monkeypatch.setattr(functors, "derive_monomial", counting)
    E = bar_lie_coalgebra_E(heisenberg(), 2, 3)
    assert len(calls) == len(set(calls)) == 7  # the letters of E: x, y, z, xy, xz, yz, xyz
    del calls[:]
    A = functor_A(E, 4)
    # the D^2 check, the table and its differential share one derivation per monomial
    assert len(calls) == len(set(calls)) == A.dim == 471


def test_window_rows_are_the_derivation_inside_the_window():
    for S, bound in ((s1_times_s2(), 9), (heisenberg(), 3), (sphere2(), 12)):
        W = S.window(bound)
        for m, row in zip(W.monos, W.d_rows):
            inside = {W.index[mm]: c for mm, c in W.d_of_monomial(m).items() if W.degree(mm) <= bound}
            assert row == inside


@pytest.mark.parametrize("S", [sphere2(), heisenberg(), even_line()])
def test_duality_matrix_identity_is_the_entrywise_adjointness(S):
    # Pi(d_L basis, reps) = (-1)^{n2} Pi M, against the pairing written out
    # entry by entry: <d_L u, w> and sum_row M[row, w] <u, reps2[row]>
    from lietower.dgl import d_image
    from lietower.freelie import lie_basis
    from lietower.functors import _pairing, _pairing_matrices, _word_pairing_sign

    E = bar_lie_coalgebra_E(S, 3, 5)
    model = neisendorfer_model(S, 6)
    pairings = _pairing_matrices(E, model, 3, 5)
    A = E.A
    blocks = 0
    for q, n in pairings:
        reps = E.rep_words(q, n)
        for (q2, n2), mat in E.differential_matrix(q, n).items():
            reps2 = E.rep_words(q2, n2)
            basis2 = lie_basis(model.gens, q2, n2)
            lhs = _pairing(E, [d_image(model, u) for u in basis2], q, n)
            rhs = pairings[(q2, n2)].compose(mat)
            cols = mat.columns()
            for r, u in enumerate(basis2):
                du = d_image(model, u)
                for c, w in enumerate(reps):
                    assert lhs.entries.get((r, c), 0) == du.terms.get(w, 0) * _word_pairing_sign(A, w)
                    assert rhs.entries.get((r, c), 0) == sum(
                        x * u.terms.get(reps2[row], 0) * _word_pairing_sign(A, reps2[row])
                        for row, x in cols[c].items()
                    )
            blocks += 1
    assert blocks


DUALITY_DEFECT = (
    "duality defect, fix pending: on Heisenberg at (6, 4) the length-preserving blocks agree "
    "up to (-1)^{n2} everywhere (184 entries equal at even n2, 186 opposite at odd n2), while "
    "the length-lowering blocks split within each parity (116 equal and 98 opposite at even "
    "n2, 99 and 114 at odd n2), so the defect is in the product part of the pairing, not in "
    "a global sign; on S^1 x S^2 the length-preserving blocks split as well (43 equal and 24 "
    "opposite at even n2, 6 and 22 at odd n2)"
)


@pytest.mark.xfail(strict=True, reason=DUALITY_DEFECT)
@pytest.mark.parametrize("S", [heisenberg(), s1_times_s2()], ids=["heisenberg", "s1_times_s2"])
def test_duality_check_on_degree_one_generators(S):
    rep = duality_check(S, 6, 4)
    assert all(r["dim_E"] == r["dim_L"] for r in rep.dims)
    assert rep.ok


# -- scalars of the duality check: ints where integral, Fractions where not ------------

RATIONAL = {
    "rational_sphere": ([("e2", 2), ("e3", 3)], {"e3": "1/2 * e2 * e2"}),
    "rational_cp2": ([("x", 2), ("y", 5)], {"y": "2/3 * x * x * x"}),
}


def rational_sphere():
    return SullivanAlgebra.from_strings(*RATIONAL["rational_sphere"])


def rational_cp2():
    return SullivanAlgebra.from_strings(*RATIONAL["rational_cp2"])


def cp2():
    return SullivanAlgebra.from_strings([("x", 2), ("y", 5)], {"y": "x * x * x"})


@pytest.mark.parametrize("window", [(6, 4), (8, 3)], ids=["6-4", "8-3"])
@pytest.mark.parametrize("name, S, twin", [("rational_sphere", rational_sphere(), sphere2()),
                                            ("rational_cp2", rational_cp2(), cp2())],
                         ids=["rational_sphere", "rational_cp2"])
def test_duality_with_rational_coefficients_matches_its_integral_twin(tmp_path, name, S, twin, window):
    import json

    from lietower import cli

    rep, twin_rep = duality_check(S, *window), duality_check(twin, *window)
    assert rep.ok and twin_rep.ok, rep.detail
    assert rep.dims == twin_rep.dims
    gens, diffs = RATIONAL[name]
    path = tmp_path / f"{name}.sullivan"
    path.write_text("kind: sullivan\n[generators]\n" + "".join(f"{g} : {d}\n" for g, d in gens)
                    + "[differential]\n" + "".join(f"d {g} = {text}\n" for g, text in diffs.items()))
    n_window, q_max = window
    args = ["duality", str(path), "--max-degree", str(n_window), "--max-length", str(q_max),
            "--format", "structured", "--out", str(tmp_path / "report.json")]
    assert cli.main(args) == 0
    assert json.loads((tmp_path / "report.json").read_text())["report"] == rep.to_structured()


def test_integral_duality_scalars_stay_int():
    """On an integral algebra every scalar of the check is an int: the cdga
    table, the class coordinates of the bar differential, the pairings and
    the Lie side of each block identity.  On a rational one the table keeps
    its Fractions, and every pairing and Lie-side entry is an int or a
    Fraction that is not integral."""
    from lietower.functors import _length_blocks, _lie_side, _pairing_matrices

    for S, integral in ((sphere2(), True), (cp2(), True), (rational_sphere(), False), (rational_cp2(), False)):
        E = bar_lie_coalgebra_E(S, 4, 8)
        model = neisendorfer_model(S, 9)
        table = [c for row in (*E.A.products.values(), *E.A.d.values()) for c in row.values()]
        scalars = list(table)
        pairings = _pairing_matrices(E, model, 4, 8)
        blocks = 0
        for (q, n), pi in pairings.items():
            scalars += pi.entries.values()
            for (q2, n2), mat in E.differential_matrix(q, n).items():
                if integral:
                    assert all(type(c) is int for c in mat.entries.values()), (q, n, q2, n2)
                if (q2, n2) in pairings:
                    scalars += _lie_side(_length_blocks(model, 5, n2), pi, q, q2).entries.values()
                    blocks += 1
        assert blocks
        assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in scalars)
        assert all(type(c) is int for c in table) == integral
        if integral:
            assert all(type(c) is int for c in scalars)


@pytest.mark.parametrize("change", [lambda c: c + Fraction(1, 2), lambda c: -c], ids=["plus_half", "sign"])
@pytest.mark.parametrize("S", [sphere2(), rational_cp2()], ids=["even_sphere", "rational_cp2"])
def test_duality_check_fails_on_a_perturbed_lie_side(monkeypatch, S, change):
    import lietower.functors as functors
    from lietower.linalg import SparseMatrix

    lie_side = functors._lie_side
    changed = []

    def perturbed(*args):
        got = lie_side(*args)
        if not changed and got.entries:
            key = min(got.entries)
            changed.append(key)
            return SparseMatrix(got.rows, got.cols, {**got.entries, key: change(got.entries[key])})
        return got

    assert duality_check(S, 6, 4).ok
    monkeypatch.setattr(functors, "_lie_side", perturbed)
    rep = duality_check(S, 6, 4)
    assert changed and not rep.ok
    assert rep.detail == "differentials disagree under the pairing"
