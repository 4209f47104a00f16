"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  Every dimension asserted here is computed exactly; runtime
budgets are wall-clock upper bounds with large headroom.
"""

import glob
import io
import json
import os
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from lietower import cli
from lietower.dgl import (
    DglPresentation,
    Truncation,
    boundary_solve,
    completion_boundary_check,
    h0_discrepancy_report,
    h0_table_bounded_window,
    h0_table_from_tower,
    homology_tower,
    exact_homology,
    lcs_quotient_complex,
    top_length_obstruction,
    validate,
    witness_direction_space,
)
from lietower.freelie import (
    GeneratorSet,
    TensorElt,
    ad_power,
    dynkin,
    gen_elt,
    graded_bracket,
    lie_basis,
    lie_dim,
    pbw_euler_check,
    words_of,
)
from lietower.functors import (
    SullivanAlgebra,
    bar_lie_coalgebra_E,
    duality_check,
    lemma2_quasi_iso_check,
    neisendorfer_model,
)
from lietower.pronil import definitional_pronilpotency, lemma1_audit

FILES = os.path.join(os.path.dirname(__file__), "..", "demos", "files")
RESULTS = []


def record(criterion, ok, elapsed, budget, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s / {budget}s) {detail}"
    RESULTS.append(line)
    assert ok, line
    assert elapsed < budget, line


def remark():
    return DglPresentation.from_strings([("x", 0), ("y", 0), ("z", 1)], {"z": "x - [y, x]"})


def test_criterion_1_stubborn_cycle_tower_and_witnesses():
    t0 = time.time()
    P = remark()
    tower = homology_tower(P, 0, range(2, 7))
    dims_ok = tower.dims() == [1] * 5 and all(r["representatives"] == ["y"] for r in tower.rows)

    x, y, z = (gen_elt(P.gens, n) for n in ("x", "y", "z"))
    witnesses_ok = True
    for n in range(2, 7):
        res = boundary_solve(P, x, Truncation(n))
        canonical = TensorElt(P.gens)
        for q in range(0, n - 1):
            canonical = canonical + ad_power(y, z, q)
        _, kernel, src = witness_direction_space(P, x, Truncation(n))
        inside = kernel.contains(src.coords((res.witness - canonical).truncate_length(n)))
        witnesses_ok = witnesses_ok and res.status == "SAT" and inside
    series = completion_boundary_check(P, lambda q: ad_power(y, z, q), x, 6)

    rep = top_length_obstruction(P, 1, range(1, 6))
    no_finite_witness = rep.excludes(x)

    elapsed = time.time() - t0
    record(
        "1",
        dims_ok and witnesses_ok and series.verified and no_finite_witness,
        elapsed,
        10,
        "tower dim 1 with class y on n=2..6; truncated series witnesses; "
        "no finite witness of top length <= 5",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the length-raising part has a kernel from length 3 on "
    "(e.g. [[x,y],z]); the per-length injectivity form of the certificate "
    "cannot hold beyond length 2 -- the exact bounded-witness space above "
    "carries the sound certificate",
)
def test_criterion_1_literal_injectivity_clause():
    rep = top_length_obstruction(remark(), 1, range(1, 6))
    assert all(rep.injective[l] for l in range(1, 6))


def test_criterion_2_nilpotent_model_pipeline():
    t0 = time.time()
    S = SullivanAlgebra.from_strings([("x", 1), ("y", 1), ("z", 1)], {"z": "x * y"})
    model = neisendorfer_model(S, 4)
    tower = homology_tower(model, 0, range(4, 9))
    stable = tower.dims() == [3] * 5 and tower.stabilized_from == 4
    table, _ = h0_table_from_tower(model, 8)
    audit = lemma1_audit(table)
    holds = audit.combined.outcome == "holds"
    class_two = audit.condition_a.vanishing_index == 3
    elapsed = time.time() - t0
    record(
        "2",
        stable and holds and class_two,
        elapsed,
        60,
        "tower stabilizes at dim 3 over n=4..8; audit holds with nilpotency class 2",
    )


def test_criterion_3_contrapositive_on_derived_table():
    t0 = time.time()
    P = remark()
    table, reps, closed = h0_table_bounded_window(P, 2, 6)
    # derived bracket on classes: [y, x] = x
    i_x, i_y = table.index["c0"], table.index["c1"]
    derived = table.bracket({i_y: Fraction(1)}, {i_x: Fraction(1)}) == {i_x: Fraction(1)}
    audit = lemma1_audit(table)
    fails_a = audit.condition_a.outcome == "fails" and audit.condition_a.witness_text == "c0"
    combined = audit.combined.outcome == "fails"
    disc = h0_discrepancy_report(P, Truncation(6))
    flagged = disc["discrepancy"] and not disc["exact_mode_applies"]
    elapsed = time.time() - t0
    record(
        "3",
        closed and derived and fails_a and combined and flagged,
        elapsed,
        10,
        "derived table has [y,x] = x on classes; audit fails (a) with witness; "
        "no exact untruncated mode applies",
    )


def test_criterion_4_linear_part_of_models():
    t0 = time.time()
    line = SullivanAlgebra.from_strings([("e2", 2)], {})
    sphere = SullivanAlgebra.from_strings([("e2", 2), ("e3", 3)], {"e3": "e2 * e2"})
    rep_line = lemma2_quasi_iso_check(line, 1, 4)
    rep_sphere = lemma2_quasi_iso_check(sphere, 1, 4)
    sphere_dims = [r["dim_H"] for r in rep_sphere.rows] == [1, 1, 0, 0]
    elapsed = time.time() - t0
    record(
        "4",
        rep_line.ok and rep_sphere.ok and sphere_dims,
        elapsed,
        30,
        "model homology equals the desuspended duals in degrees 1..4 "
        "(1,1,0,0 for the even sphere)",
    )


def test_criterion_5_duality():
    t0 = time.time()
    sphere = SullivanAlgebra.from_strings([("e2", 2), ("e3", 3)], {"e3": "e2 * e2"})
    rep = duality_check(sphere, 6, 3)
    dims_match = all(r["dim_E"] == r["dim_L"] for r in rep.dims)
    elapsed = time.time() - t0
    record(
        "5",
        rep.ok and dims_match,
        elapsed,
        120,
        "bar-quotient dims equal free-Lie dual dims for n<=6, lengths<=3; "
        "differentials match under the pairing",
    )


def test_criterion_6_property_suites():
    t0 = time.time()
    rng = random.Random(20240809)
    XY = GeneratorSet(["x", "y"], [0, 0])
    mixed = GeneratorSet(["x", "y", "a"], [0, 0, 1])

    # d^2 = 0 on every constructed quotient complex
    remark_dgl = remark()
    d2_ok = True
    for n in (2, 3, 4, 5):
        cx = lcs_quotient_complex(remark_dgl, n, (0, 2))
        for q in (1, 2, 3):
            if not cx.differential(q - 1).compose(cx.differential(q)).is_zero():
                d2_ok = False
        if not cx.euler_characteristic_check():
            d2_ok = False

    # the left-normed bracketing map acts as n * id on the basis pieces
    dynkin_ok = True
    for gens in (XY, mixed):
        for n in range(1, 5):
            for d in range(0, 3):
                for b in lie_basis(gens, n, d):
                    if dynkin(b) != Fraction(n) * b:
                        dynkin_ok = False

    # graded antisymmetry and Jacobi on random triples
    jac_ok = True
    pool = [gen_elt(mixed, n) for n in mixed.names]
    pool += [graded_bracket(rng.choice(pool), rng.choice(pool)) for _ in range(5)]
    pool = [e for e in pool if not e.is_zero()]
    for _ in range(40):
        u, v, w = (rng.choice(pool) for _ in range(3))
        s = Fraction((-1) ** (u.homogeneous_degree() * v.homogeneous_degree() % 2))
        if not (graded_bracket(u, v) + s * graded_bracket(v, u)).is_zero():
            jac_ok = False
        lhs = graded_bracket(u, graded_bracket(v, w))
        rhs = graded_bracket(graded_bracket(u, v), w) + s * graded_bracket(v, graded_bracket(u, w))
        if lhs != rhs:
            jac_ok = False

    # Poincare-series identity up to (length 5, degree 8)
    pbw_ok = all(
        pbw_euler_check(g, 5, 8)
        for g in (XY, mixed, GeneratorSet(["a", "b"], [1, 2]))
    )

    # Lie coalgebra axioms on every bar-quotient output built here
    sphere = SullivanAlgebra.from_strings([("e2", 2), ("e3", 3)], {"e3": "e2 * e2"})
    hei = SullivanAlgebra.from_strings([("x", 1), ("y", 1), ("z", 1)], {"z": "x * y"})
    coalg_ok = all(
        bar_lie_coalgebra_E(S, q, n).lie_coalgebra_axioms_ok()
        for S, q, n in ((sphere, 3, 6), (hei, 2, 3))
    )

    # audit vs definitional oracle on random bracket tables of dim <= 8
    from test_pronil import change_basis, free_nilpotent_table, semidirect_table

    checked = 0
    oracle_ok = True
    while checked < 50:
        table, _ = (free_nilpotent_table if rng.random() < 0.5 else semidirect_table)(rng)
        if not (0 < table.dim <= 8):
            continue
        if rng.random() < 0.5:
            table = change_basis(table, rng)
        if table.validate():
            oracle_ok = False
            break
        if lemma1_audit(table).combined.outcome != definitional_pronilpotency(table).outcome:
            oracle_ok = False
            break
        checked += 1

    witt_ok = [lie_dim(XY, n, 0) for n in range(1, 6)] == [2, 1, 2, 3, 6]

    elapsed = time.time() - t0
    record(
        "6",
        d2_ok and dynkin_ok and jac_ok and pbw_ok and coalg_ok and oracle_ok and witt_ok,
        elapsed,
        120,
        "d^2=0 and Euler characteristics; n*id certificates; Jacobi; series "
        "identity to (5,8); coalgebra axioms; 50 audit-vs-oracle tables; "
        "counts 2,1,2,3,6",
    )


def test_criterion_7_cli_contract():
    t0 = time.time()
    round_trip = True
    for path in sorted(glob.glob(os.path.join(FILES, "*"))):
        with open(path) as fh:
            doc = cli.parse(fh.read())
        if cli.parse(doc.pretty()) != doc:
            round_trip = False

    def run(args):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(args)
        return code, buf.getvalue()

    args = [
        "tower",
        os.path.join(FILES, "stubborn_cycle.dgl"),
        "--degrees", "0..1", "--tower", "2..5", "--max-length", "5",
        "--format", "structured",
    ]
    c1, out1 = run(args)
    c2, out2 = run(args)
    deterministic = c1 == c2 == 0 and out1 == out2
    json.loads(out1)  # and it is well-formed
    elapsed = time.time() - t0
    record(
        "7",
        round_trip and deterministic,
        elapsed,
        30,
        "round-trip identity on shipped files; byte-identical structured reports",
    )


def test_zz_summary(capsys):
    with capsys.disabled():
        print()
        for line in RESULTS:
            print(line)
