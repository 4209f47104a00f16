import random
from fractions import Fraction

import pytest

from lietower.dgl import DegreeSlice, DglPresentation, g_series
from lietower.freelie import GeneratorSet, graded_bracket, lie_basis
from lietower.pronil import (
    FiniteLieData,
    IncompleteTableError,
    TableError,
    definitional_pronilpotency,
    g_layer,
    g_series_vanishing,
    lemma1_audit,
    nilpotency_of_degree_zero,
)


def heisenberg_table():
    return FiniteLieData(
        [("a", 0), ("b", 0), ("c", 0)],
        {("a", "b"): {"c": 1}},
    )


def affine_table():
    return FiniteLieData([("x", 0), ("y", 0)], {("y", "x"): {"x": 1}})


def weight_action_table(lam=1):
    # degree-0 element acting on a degree-1 element with weight lam
    return FiniteLieData([("y", 0), ("z", 1)], {("y", "z"): {"z": lam}})


def test_table_validation_catches_bad_degree():
    with pytest.raises(TableError):
        FiniteLieData([("a", 0), ("b", 1)], {("a", "a"): {"b": 1}})


def test_table_validation_even_square():
    with pytest.raises(TableError):
        FiniteLieData([("a", 0)], {("a", "a"): {"a": 1}})


def test_table_antisymmetry_derived():
    t = affine_table()
    got = t.bracket({t.index["x"]: Fraction(1)}, {t.index["y"]: Fraction(1)})
    assert got == {t.index["x"]: Fraction(-1)}


def test_jacobi_validator_flags_broken_table():
    bad = FiniteLieData(
        [("a", 0), ("b", 0), ("c", 0), ("d", 0)],
        {("a", "b"): {"c": 1}, ("a", "c"): {"d": 1}, ("b", "c"): {}},
    )
    # [a,[a,b]] = [a,c] = d; [[a,a],b] + [a,[a,b]] = d: fine.
    # break it: [b,[a,b]] = [b,c] = 0 but [[b,a],b] = [-c,b] = 0: consistent.
    assert bad.validate() == []
    worse = FiniteLieData(
        [("a", 0), ("b", 0), ("c", 0)],
        {("a", "b"): {"c": 1}, ("a", "c"): {"a": 1}},
    )
    assert worse.validate()  # Jacobi genuinely fails here


def test_nilpotency_abelian():
    t = FiniteLieData([("a", 0), ("b", 0)], {})
    v = nilpotency_of_degree_zero(t)
    assert v.outcome == "holds"
    assert v.vanishing_index == 2


def test_nilpotency_heisenberg_class_two():
    v = nilpotency_of_degree_zero(heisenberg_table())
    assert v.outcome == "holds"
    assert v.vanishing_index == 3


def test_nilpotency_affine_fails_with_witness():
    t = affine_table()
    v = nilpotency_of_degree_zero(t)
    assert v.outcome == "fails"
    assert v.witness == {t.index["x"]: Fraction(1)}
    # the witness re-evaluates to a nonzero element under the table
    assert t.bracket({t.index["y"]: Fraction(1)}, v.witness) == v.witness


def test_g_series_trivial_action():
    t = FiniteLieData([("h", 0), ("m", 1)], {})
    v = g_series_vanishing(t, 1)
    assert v.outcome == "holds"
    assert v.vanishing_index == 2


def test_g_series_weight_action_fails():
    t = weight_action_table()
    v = g_series_vanishing(t, 1)
    assert v.outcome == "fails"
    assert v.witness_text == "z"


def test_g_series_empty_degree_holds():
    t = FiniteLieData([("h", 0)], {})
    assert g_series_vanishing(t, 3).outcome == "holds"


def test_g_layer_iteration():
    t = weight_action_table()
    for n in range(1, 6):
        layer = g_layer(t, 1, n)
        assert len(layer) == 1
    assert g_series(t, 1, 4) == g_layer(t, 1, 4)


def test_lemma1_audit_heisenberg():
    audit = lemma1_audit(heisenberg_table())
    assert audit.combined.outcome == "holds"


def test_lemma1_audit_affine_fails_a():
    audit = lemma1_audit(affine_table())
    assert audit.combined.outcome == "fails"
    assert audit.condition_a.outcome == "fails"


def test_lemma1_audit_zero_algebra():
    audit = lemma1_audit(FiniteLieData([], {}))
    assert audit.combined.outcome == "holds"


def test_lemma1_audit_weight_action_fails_b():
    audit = lemma1_audit(weight_action_table())
    assert audit.combined.outcome == "fails"
    assert audit.condition_a.outcome == "holds"
    assert audit.condition_b[1].outcome == "fails"


def test_incomplete_degree_yields_undetermined():
    t = FiniteLieData(
        [("a", 0), ("b", 0)], {}, complete_degrees={0: False}, total=False
    )
    assert nilpotency_of_degree_zero(t).outcome == "undetermined"
    assert lemma1_audit(t).combined.outcome == "undetermined"


def test_definitional_requires_total_table():
    t = FiniteLieData([("a", 0)], {}, complete_degrees={0: False}, total=False)
    with pytest.raises(IncompleteTableError):
        definitional_pronilpotency(t)


def test_definitional_matches_audit_on_fixed_examples():
    for t in (heisenberg_table(), affine_table(), weight_action_table(),
              FiniteLieData([("a", 0), ("b", 1)], {})):
        assert definitional_pronilpotency(t).outcome == lemma1_audit(t).combined.outcome


# -- randomized sample construction ------------------------------------------


def free_nilpotent_table(rng):
    """Free Lie algebra truncated by word length: always pronilpotent."""
    n_gens = rng.randrange(1, 3)
    degrees = [rng.choice([0, 0, 1, 2]) for _ in range(n_gens)]
    gens = GeneratorSet([f"g{i}" for i in range(n_gens)], degrees)
    cap = rng.randrange(2, 4)
    P = DglPresentation(gens, {})
    basis = []
    max_deg = cap * max(degrees) if max(degrees) else 0
    slices = {}
    for q in range(0, max_deg + 1):
        slices[q] = DegreeSlice(P, q, cap + 1)
        for i in range(slices[q].dim):
            b = slices[q].element(i)
            basis.append((f"q{q}e{i}", q, b))
    name_of = {}
    for name, q, b in basis:
        name_of[(q, min(b.terms))] = name
    brackets = {}
    for i, (na, qa, ba) in enumerate(basis):
        for j, (nb, qb, bb) in enumerate(basis):
            if j < i:
                continue
            val = graded_bracket(ba, bb).truncate_length(cap + 1)
            qc = qa + qb
            if val.is_zero() or qc > max_deg:
                continue
            coords = slices[qc].coords(val)
            entry = {basis_name(slices, qc, k): c for k, c in coords.items()}
            if entry:
                brackets[(na, nb)] = entry
    table = FiniteLieData([(n, q) for n, q, _ in basis], brackets)
    return table, True  # pronilpotent by construction


def basis_name(slices, q, k):
    return f"q{q}e{k}"


def semidirect_table(rng):
    """One degree-0 actor with weight actions; pronilpotent iff all weights 0."""
    entries = [("h", 0)]
    brackets = {}
    pronil = True
    for i in range(rng.randrange(1, 4)):
        d = rng.choice([0, 1, 2])
        lam = rng.choice([0, 0, 1, -1, 2])
        name = f"m{i}"
        entries.append((name, d))
        if lam:
            pronil = False
            brackets[("h", name)] = {name: lam}
    return FiniteLieData(entries, brackets), pronil


def change_basis(table: FiniteLieData, rng) -> FiniteLieData:
    """Conjugate by a random triangular change of basis within each degree."""
    degs = table.degrees_present()
    mats = {}
    for d in degs:
        idx = table.basis_of_degree(d)
        m = [[Fraction(1 if i == j else 0) for j in range(len(idx))] for i in range(len(idx))]
        for i in range(len(idx)):
            for j in range(i + 1, len(idx)):
                m[i][j] = Fraction(rng.randrange(-2, 3))
        mats[d] = (idx, m)

    def to_new(vec):
        # vec in old coordinates -> new coordinates, new_e_j = sum_i m[i][j] old_e_i
        # triangular with unit diagonal: solve by back-substitution per degree
        out = {}
        for d, (idx, m) in mats.items():
            local = [vec.get(i, Fraction(0)) for i in idx]
            coeffs = [Fraction(0)] * len(idx)
            for j in range(len(idx) - 1, -1, -1):
                c = local[j]
                for jj in range(j + 1, len(idx)):
                    c -= m[j][jj] * coeffs[jj]
                coeffs[j] = c
            for j, c in enumerate(coeffs):
                if c:
                    out[idx[j]] = c
        return out

    def new_elt(j_global):
        d = table.degrees[j_global]
        idx, m = mats[d]
        jj = idx.index(j_global)
        return {idx[i]: m[i][jj] for i in range(len(idx)) if m[i][jj]}

    names = list(table.names)
    brackets = {}
    for i in range(table.dim):
        for j in range(i, table.dim):
            val = table.bracket(new_elt(i), new_elt(j))
            coords = to_new(val)
            entry = {names[k]: c for k, c in coords.items() if c}
            if entry:
                brackets[(names[i], names[j])] = entry
    return FiniteLieData(list(zip(table.names, table.degrees)), brackets)


def test_oracle_equivalence_randomized():
    rng = random.Random(2024)
    checked = 0
    while checked < 60:
        kind = rng.choice(["nilpotent", "semidirect", "mixed"])
        if kind == "nilpotent":
            table, _ = free_nilpotent_table(rng)
        elif kind == "semidirect":
            table, _ = semidirect_table(rng)
        else:
            t1, _ = semidirect_table(rng)
            table = t1
        if table.dim > 8 or table.dim == 0:
            continue
        if rng.random() < 0.5:
            table = change_basis(table, rng)
        assert table.validate() == []
        audit = lemma1_audit(table)
        oracle = definitional_pronilpotency(table)
        assert audit.combined.outcome == oracle.outcome, (
            f"audit {audit.combined!r} vs oracle {oracle!r} on {table.names}"
        )
        if audit.combined.outcome == "fails" and audit.combined.witness is not None:
            assert any(audit.combined.witness.values())
        checked += 1
    assert checked >= 50


def test_semidirect_expected_verdicts():
    rng = random.Random(7)
    for _ in range(20):
        table, pronil = semidirect_table(rng)
        want = "holds" if pronil else "fails"
        assert lemma1_audit(table).combined.outcome == want
        assert definitional_pronilpotency(table).outcome == want


def test_lcs_dims_non_increasing():
    rng = random.Random(55)
    for _ in range(10):
        table, _ = free_nilpotent_table(rng)
        if table.dim == 0:
            continue
        from lietower.pronil import _bracket_span, _span

        all_idx = list(range(table.dim))
        layer = _span({i: Fraction(1)} for i in all_idx)
        dims = [len(layer)]
        for _ in range(6):
            layer = _bracket_span(table, all_idx, layer)
            dims.append(len(layer))
        assert all(a >= b for a, b in zip(dims, dims[1:]))
