"""The integer free-Lie core against the constructions it replaced.

* `lie_basis` (standard Lyndon bracketings) against the echelonized image
  of the left-normed bracketing map on every tensor word, and the held
  bracketings (`freelie.lie_basis_forms`: unitriangular at their pivot
  words, with T held below its diagonal and S = T^-1 applied by forward
  substitution over T, `freelie.solve_unitriangular`) against a Fraction
  Gauss-Jordan elimination, and
  the pieces built from the pieces of their standard factors against the
  enumeration of every word with a Lyndon test on each and a per-call
  memo of bracketings, with `_derive_int` on their str words against
  `extend_derivation`; every `TensorElt` that leaves the integer layer has
  tuple words (`freelie.encode_word` / `decode_word` convert at the edge);
* `IntEchelon.rref` (integer back-substitution) against a Fraction
  Gauss-Jordan elimination;
* `DegreeSlice.coords` / `element_from_coords` (one-pass reconstruction),
  and the slices' integer forms (`freelie.lie_basis_forms`) against
  `lie_basis`, each held once and shared by the slices of its piece;
* `QuotientComplex` matrices (d and coordinates on integer forms) against
  Fraction derivation images read through `coords`;
* `homology_tower` in positive degrees (one complex, leading blocks) against
  a quotient complex per n with connecting images counted by projecting
  cycles;
* the tracked integer echelon behind `reduce`, `solve_affine` and
  `IntEchelon.express` against the Fraction `reduce`, the row reduction of
  [A | b] and the Fraction tracked echelon it replaced, and the boundary
  solvers (integer matrices of d) against Fraction assembly;
* the presentation's matrices of d (`DglPresentation.d_matrix`, kept as B
  in the bracketing bases, with the echelon matrix T * B * S formed on
  first use) against Fraction derivations of the elements
  of `IntEchelon.rref` of the bracketings, repeated solves and top-length
  reports against the first ones (no column of d derived or read again),
  and the kept `ColumnReduction` against `solve_affine` and the Fraction
  row reduction;
* the functors' one Koszul sign rule (`normalize_monomial` on positions)
  in `shuffle`, `_unshuffle` and `_ce_delta` against the crossing counters
  it replaced, the in-place derivation of `FreeCdgaWindow` against the
  Leibniz rule on seeded mixed-parity algebras, and the bar words within
  the degree budget against product-and-filter;
* the bar quotient (each unordered pair of words shuffled once, class
  coordinates as a normal form against the reduced shuffle rows) against
  every ordered pair through a candidate-insertion quotient, and the
  duality check's left side read off the kept matrices of d against the
  `d_image` pairing, with the verdict of the path they replaced.

Every invariant check that guards these paths must also hold under
`python -O`, so they are exercised in a child interpreter started with -O.
"""

import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from lietower import cli, dgl, freelie, functors
from lietower.dgl import (
    DegreeSlice,
    DglError,
    DglPresentation,
    QuotientComplex,
    TowerReport,
    TruncationError,
    _detect_stabilization,
    d_image,
    exact_homology,
    extend_derivation,
    homology_tower,
)
from lietower.freelie import (
    GeneratorSet,
    TensorElt,
    decode_word,
    dynkin,
    encode_word,
    lie_basis,
    lie_dim,
    word_elt,
    words_of,
)
from lietower.functors import (
    CdgaTable,
    FiniteDgl,
    FreeCdgaWindow,
    LieCoalgebraTrunc,
    _ce_delta,
    _unshuffle,
    monomials_up_to,
    normalize_monomial,
    shuffle,
)
from lietower.linalg import (
    ColumnReduction,
    IntEchelon,
    InvariantError,
    NotAComplexError,
    SparseMatrix,
    Subspace,
    _clear_denominators,
    _content,
    _sub_multiple,
    reduce,
    solve_affine,
)

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
FILES = os.path.join(os.path.dirname(__file__), "..", "demos", "files")


# -- oracles ----------------------------------------------------------------

def fraction_rref(rows):
    """Reduced row echelon form of sparse rows by Fraction Gauss-Jordan.

    Pivots are normalized to 1 and cleared from every other row as soon as
    they are found; the result is sorted by pivot index.
    """
    basis = {}  # pivot -> row
    for row in rows:
        v = {i: Fraction(c) for i, c in row.items() if c}
        for p in sorted(basis):
            if p in v:
                f = v[p]
                for i, c in basis[p].items():
                    s = v.get(i, 0) - f * c
                    if s:
                        v[i] = s
                    else:
                        v.pop(i, None)
        if not v:
            continue
        p = min(v)
        lead = v[p]
        v = {i: c / lead for i, c in v.items()}
        for q, other in basis.items():
            if p in other:
                f = other[p]
                for i, c in v.items():
                    s = other.get(i, 0) - f * c
                    if s:
                        other[i] = s
                    else:
                        other.pop(i, None)
        basis[p] = v
    return [basis[p] for p in sorted(basis)]


def dynkin_image_basis(gens, length, degree):
    """The echelonized image of the left-normed bracketing map."""
    words = words_of(gens, length, degree)
    index = {w: i for i, w in enumerate(words)}
    rows = [
        {index[ww]: c for ww, c in dynkin(word_elt(gens, w)).terms.items()} for w in words
    ]
    return [
        TensorElt(gens, {words[i]: c for i, c in row.items()}) for row in fraction_rref(rows)
    ]


PROFILES = [
    [0, 0],
    [0, 0, 0],
    [1],
    [1, 1],
    [0, 1],
    [0, 0, 1],
    [1, 2],
    [2, 3],
]


# -- lie_basis --------------------------------------------------------------

@pytest.mark.parametrize("degrees", PROFILES, ids=lambda ds: "deg" + "-".join(map(str, ds)))
def test_lyndon_basis_matches_dynkin_image(degrees):
    gens = GeneratorSet([f"g{i}" for i in range(len(degrees))], degrees)
    max_length = 5 if len(degrees) == 3 else 6
    checked = 0
    for n in range(1, max_length + 1):
        for d in range(min(degrees) * n, max(degrees) * n + 1):
            if not words_of(gens, n, d):
                continue
            got = lie_basis(gens, n, d)
            want = dynkin_image_basis(gens, n, d)
            assert [b.terms for b in got] == [b.terms for b in want], (n, d)
            assert len(got) == lie_dim(gens, n, d)
            checked += len(got)
    assert checked > 0


@pytest.mark.parametrize("degrees", PROFILES + [[1, 1, 1], [3, 3], [1, 3], [0, 1, 2]],
                         ids=lambda ds: "deg" + "-".join(map(str, ds)))
def test_bracketings_are_unitriangular_and_s_inverts_t(degrees):
    # T[k, m] is the coefficient of pivot word k in bracketing m; the held
    # columns of T below its diagonal are exactly those coefficients, the
    # forward substitution over them inverts T on both sides, and the
    # bracketings times S are the Fraction Gauss-Jordan reduced echelon
    # basis, in order
    gens = GeneratorSet([f"g{i}" for i in range(len(degrees))], degrees)
    max_length = 6 if len(degrees) == 3 else 7
    checked = 0
    for n in range(1, max_length + 1):
        for d in range(min(degrees) * n, max(degrees) * n + 1):
            held, lower = freelie.lie_piece(gens, n, d).expand()
            forms = decoded(held)
            assert forms == bracketings(gens, n, d) and len(lower) == len(forms)
            pivots = [w for w, _ in forms]
            # str order of the held words is tuple order
            assert pivots == sorted(set(pivots)) and [w for w, _ in held] == sorted(w for w, _ in held)
            for pivot, terms in held:
                assert terms[pivot] == 1 and min(terms) == pivot
            # T is unitriangular: 1 on the diagonal, held below it only
            for m, (_, terms) in enumerate(forms):
                assert lower[m] == {k: terms[p] for k, p in enumerate(pivots) if p in terms and k != m}
                assert all(k > m for k in lower[m]) and terms[pivots[m]] == 1
            assert_solve_inverts_t(lower, pivots, [terms for _, terms in forms])
            words = words_of(gens, n, d)
            index = {w: i for i, w in enumerate(words)}
            want = fraction_rref([{index[w]: c for w, c in terms.items()} for _, terms in forms])
            assert [min(row) for row in want] == [index[p] for p in pivots]
            got = lie_basis(gens, n, d)
            assert [b.terms for b in got] == [{words[i]: c for i, c in row.items()} for row in want]
            checked += len(forms)
    assert checked >= 2


def assert_solve_inverts_t(lower, pivots, forms):
    """S = T^-1 applied by `freelie.solve_unitriangular` over the held
    columns `lower` of T: T * (S * e_j) = e_j and S * (T * e_j) = e_j, with T
    read off the word terms `forms` at the pivot words."""
    columns = [(0, col) for col in lower]
    t = [{k: terms[p] for k, p in enumerate(pivots) if p in terms} for terms in forms]
    for j in range(len(forms)):
        acc = {}
        for m, c in freelie.solve_unitriangular(columns, {j: 1}).items():
            for k, tk in t[m].items():
                acc[k] = acc.get(k, 0) + c * tk
        assert {k: c for k, c in acc.items() if c} == {j: 1}, j
        assert freelie.solve_unitriangular(columns, t[j]) == {j: 1}, j


PIECE_PROFILES = PROFILES + [[1, 1, 1], [3, 3], [1, 3], [0, 1, 2]]


def profile_presentation(gens, rng):
    """d on every generator, whatever its degree: a rational multiple of a
    letter plus one of a bracket of two letters (`_derive_int` needs no
    d^2 = 0 and no degree shift)."""
    names = gens.names
    diffs = {}
    for name in names:
        a, b, c = (rng.choice(names) for _ in range(3))
        diffs[name] = f"{rng.choice(_COEFFS)}*{a} + {rng.choice(_COEFFS)}*[{b}, {c}]".replace("+ -", "- ")
    return DglPresentation.from_strings(zip(names, gens.degrees), diffs)


@pytest.mark.parametrize("degrees", PIECE_PROFILES, ids=lambda ds: "deg" + "-".join(map(str, ds)))
def test_pieces_built_from_their_factors_match_the_word_enumeration(degrees):
    # every piece up to length 7 against the enumeration of its words with a
    # Lyndon test on each and a per-call memo of bracketings: the same
    # Lyndon words and cuts, pivots, terms and T, inverted by the forward
    # substitution over the held T, and d of each bracketing on str words
    # against extend_derivation and the Fraction derivation of the tuple
    # bracketing
    rng = random.Random(sum(degrees) * 31 + len(degrees))
    gens = GeneratorSet([f"g{i}" for i in range(len(degrees))], degrees)
    P = profile_presentation(gens, rng)
    squares = forms_seen = 0
    for n in range(1, 8):
        for d in range(min(degrees) * n, max(degrees) * n + 1):
            piece = freelie.lie_piece(gens, n, d)
            held, lower = piece.expand()
            want = bracketings(gens, n, d)
            assert [decode_word(w) for w, _ in held] == [w for w, _ in want], (n, d)
            # the Lyndon words and their standard cuts: v of w = uv is the
            # longest proper Lyndon suffix, and a letter has cut 0
            lyndon = [w for w, _ in want if is_lyndon(w)]
            assert [decode_word(w) for w in piece.words] == lyndon, (n, d)
            assert piece.cuts == [next((i for i in range(1, len(w)) if is_lyndon(w[i:])), 0)
                                  for w in lyndon], (n, d)
            assert decoded(held) == want, (n, d)
            # the held T is the enumeration's unitriangular matrix T, and the
            # forward substitution over it inverts it
            pivots = [w for w, _ in want]
            assert lower == [{k: terms[p] for k, p in enumerate(pivots) if p in terms and k != m}
                             for m, (_, terms) in enumerate(want)], (n, d)
            assert_solve_inverts_t(lower, pivots, [terms for _, terms in want])
            squares += sum(not is_lyndon(w) for w, _ in want)
            forms_seen += len(want)
            for (_, terms), (_, old) in zip(held, want):
                img = {decode_word(w): Fraction(c, P._diff_den) for w, c in dgl._derive_int(P, terms).items()}
                cut = {w: c for w, c in img.items() if len(w) <= n}
                elt = TensorElt(gens, old)
                full = extend_derivation(P, elt)
                assert img == full.terms and cut == full.truncate_length(n + 1).terms
                # the Fraction derivation is slow on the longest pieces
                assert n > 5 or img == fraction_derivation(P, elt)
    assert forms_seen > len(degrees)
    assert squares > 0 or not any(d % 2 for d in degrees)


def test_a_matrix_build_leaves_no_derivation_state_on_the_presentation():
    P = remark()
    for q in (1, 2):
        P.slice(q, 8), P.slice(q - 1, 8)
    state = {k: (v.copy() if isinstance(v, dict) else v) for k, v in vars(P).items()}
    dm = P.d_matrix(2, 8, 8)
    after = vars(P)
    assert set(after) == set(state) and after["_d_cache"] == {}
    kept = ("_matrix_cache", "_bracket_cache")
    assert {k: v for k, v in after.items() if k not in kept} == {k: v for k, v in state.items() if k not in kept}
    # next to the matrices, the presentation keeps the brackets of basis
    # elements the build rewrote in the Lyndon basis, by pivot words, with
    # integer coefficients at pivot words of the bracket's length
    assert state["_bracket_cache"] == {} and after["_bracket_cache"]
    for (x, y), got in after["_bracket_cache"].items():
        assert all(len(w) == len(x) + len(y) and type(c) is int and c for w, c in got.items())
    # the Leibniz rule reads the columns of the degree-1 factors of the
    # bracketings of length >= 2 (the odd square zz too) out of D_1, which
    # the build keeps too
    assert after["_matrix_cache"] == {(2, 8, 8): dm, (1, 8, 8): P.d_matrix(1, 8, 8)}
    # the build keeps B and its two slices; B * S_src, the echelon matrix
    # and the reduction wait for a reader, and no derivation memo is kept
    assert set(vars(dm)) == {"columns", "den", "_slices", "_bs", "_matrix", "_reduction"}
    assert dm._bs is None and dm._matrix is None and dm._reduction is None
    assert dm._slices[0] is P.slice(2, 8) and dm._slices[1] is P.slice(1, 8)
    assert len(dm.columns) == P.slice(2, 8).dim and all(type(col) is dict for col in dm.columns)
    assert all(type(i) is int and type(c) is int for col in dm.columns for i, c in col.items())


def test_lyndon_basis_odd_squares():
    # one odd generator: [a, a] spans length 2, nothing at length 3
    a1 = GeneratorSet(["a"], [1])
    assert [b.terms for b in lie_basis(a1, 2, 2)] == [{(0, 0): 1}]
    assert lie_basis(a1, 3, 3) == []
    # a odd, x even: a.a.x.x is the only Lyndon word of length 4 and
    # degree 2; [[a, x], [a, x]] supplies the second dimension
    ax = GeneratorSet(["a", "x"], [1, 0])
    square = freelie.graded_bracket(*2 * [freelie.parse_element(ax, "[a, x]")])
    assert len(lie_basis(ax, 4, 2)) == lie_dim(ax, 4, 2) == 2
    assert not square.is_zero()
    ech = IntEchelon()
    index = {w: i for i, w in enumerate(words_of(ax, 4, 2))}
    for b in lie_basis(ax, 4, 2):
        ech.insert({index[w]: c for w, c in b.terms.items()})
    assert ech.contains({index[w]: c for w, c in square.terms.items()})


# -- rref -------------------------------------------------------------------

def random_rows(rng, n_rows, n_cols, rational=False):
    rows = []
    for _ in range(n_rows):
        row = {}
        for j in range(n_cols):
            if rng.random() < 0.5:
                c = rng.randint(-4, 4)
                if rational:
                    c = Fraction(c, rng.randint(1, 5))
                row[j] = c
        rows.append(row)
    return rows


def test_integer_rref_matches_fraction_gauss_jordan():
    rng = random.Random(11)
    for trial in range(300):
        rows = random_rows(rng, rng.randint(0, 8), rng.randint(1, 8), rational=trial % 3 == 0)
        ech = IntEchelon()
        for r in rows:
            ech.insert(r)
        got = ech.rref()
        assert got == fraction_rref(rows)
        assert all(r[min(r)] == 1 for r in got)
        assert all(type(c) is Fraction for r in got for c in r.values())
        # the integer rows behind it: primitive, positive at their pivot and
        # equal to the rref rows once divided by the pivot entry
        int_rows = ech.reduced_rows()
        assert [p for p, _ in int_rows] == [min(r) for r in got]
        assert [{i: Fraction(c, row[p]) for i, c in row.items()} for p, row in int_rows] == got
        for p, row in int_rows:
            assert min(row) == p and row[p] > 0 and math.gcd(*row.values()) == 1
            assert all(type(c) is int for c in row.values())


# -- slice coordinates ------------------------------------------------------

@pytest.mark.parametrize("degrees", PROFILES, ids=lambda ds: "deg" + "-".join(map(str, ds)))
def test_slice_elements_are_the_lie_basis_in_order(degrees):
    gens = GeneratorSet([f"g{i}" for i in range(len(degrees))], degrees)
    P = DglPresentation(gens, {})
    n = 5 if len(degrees) == 3 else 6
    for q in range(max(degrees) * (n - 1) + 1):
        sl = P.slice(q, n)
        want = [b for k in range(1, sl.n) for b in lie_basis(gens, k, q)]
        got = [sl.element(i) for i in range(sl.dim)]
        # equal elements, with their terms listed in the same order
        assert got == want, q
        assert [list(b.terms) for b in got] == [list(b.terms) for b in want], q
        assert sl.lengths == [b.max_length() for b in want]


def _held_objects(root, skip=()):
    """Every object reachable from root through containers, instance
    dicts and slots, not entering the objects in skip."""
    seen, stack, out = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or any(obj is s for s in skip):
            continue
        seen.add(id(obj))
        out.append(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__") or hasattr(type(obj), "__slots__"):
            stack.extend(vars(obj).values() if hasattr(obj, "__dict__") else ())
            stack.extend(getattr(obj, a) for a in getattr(type(obj), "__slots__", ())
                         if hasattr(obj, a))
    return out


def test_each_basis_element_is_held_once_as_an_integer_form():
    P = remark()
    homology_tower(P, 1, range(2, 7))
    homology_tower(P, 0, range(2, 7))
    assert P._slice_cache
    # no slice and no free-Lie cache holds S = T^-1: a slice holds the shared
    # pieces, their pivot words, its word lengths, one map from pivot word to
    # index, and the forms and columns of T of the pieces it has expanded;
    # the free-Lie caches are the words, the pieces (each with its Lyndon
    # words and cuts) and the dimensions
    caches = {name for name, value in vars(freelie).items() if name.endswith("_cache")}
    assert caches == {"_word_cache", "_basis_cache", "_dim_cache"}
    for sl in P._slice_cache.values():
        assert set(vars(sl)) == {"P", "q", "n", "_pieces", "pivots", "_forms", "_lower", "_pending", "lengths", "_pivot"}
        held = _held_objects(sl, skip=(P,))
        assert not [o for o in held if isinstance(o, (Fraction, TensorElt))]
        # one map, from pivot words only: no index of every word
        assert len(sl._pivot) == sl.dim == len(sl._forms) == len(sl._lower) == len(sl.lengths)
        assert sl.pivots == [pivot for piece in sl._pieces for pivot in piece.pivots]
        # bracketings, not reduced echelon rows: each leads with 1 at its
        # pivot word, and T is unitriangular, held below its diagonal
        sl._expand(range(1, sl.n))
        for i, (pivot, terms) in enumerate(sl._forms):
            assert pivot == sl.pivots[i] and terms[pivot] == 1 and min(terms) == pivot and type(pivot) is str
            offset, col = sl._lower[i]
            assert all(k > i - offset and sl.lengths[offset + k] == sl.lengths[i] for k in col)
        # S * x by forward substitution over the held T: T * (S * e_j) = e_j
        for j in range(sl.dim):
            assert sl.echelon_coords(sl.basis_coeffs({j: 1})) == {j: 1}
    held = _held_objects([freelie._basis_cache])
    assert not [o for o in held if isinstance(o, (Fraction, TensorElt))]
    # every piece holds the bracketings themselves, which in longer pieces
    # are not the reduced echelon elements
    differ = 0
    for (gens, length, degree), piece in freelie._basis_cache.items():
        if gens == P.gens:
            forms = decoded(piece.expand()[0])
            assert forms == bracketings(gens, length, degree)
            rref = rref_basis(gens, degree, length + 1)[-len(forms):]
            differ += [terms for _, terms in forms] != [b.terms for b in rref]
    assert differ >= 4
    # slices sharing a (length, degree) piece share its forms and columns of
    # T, with each other and with the free-Lie caches
    small, large = P.slice(1, 5), P.slice(1, 7)
    assert small.dim < large.dim
    assert all(small._pieces[k] is large._pieces[k] for k in range(4))
    small._expand(range(1, 5))
    assert all(small._forms[i] is large._forms[i] for i in range(small.dim))
    assert all(small._lower[i][1] is large._lower[i][1] for i in range(small.dim))
    pieces = [freelie._basis_cache[(P.gens, k, 1)].expand() for k in range(1, 7)]
    cached = [f for forms, _ in pieces for f in forms]
    assert all(f is g for f, g in zip(large._forms, cached)) and len(cached) == large.dim
    columns = [col for _, lower in pieces for col in lower]
    assert all(col is c for (_, col), c in zip(large._lower, columns)) and len(columns) == large.dim
    other = DglPresentation(P.gens, {}).slice(1, 7)
    other._expand(range(1, 7))
    assert other is not large and all(f is g for f, g in zip(other._forms, large._forms))


def test_a_cold_certified_tower_expands_only_the_generator_images(monkeypatch):
    # the degree-1 stubborn tower at n <= 8 is certified mod 2 at every n:
    # it reads the pivot words and cuts of every piece and builds the word
    # terms and T only of the pieces that d(z) = x - [y, x] is read back in,
    # of length <= 2; the eager build held 27,172 word terms over 24 pieces
    monkeypatch.setattr(freelie, "_basis_cache", {})
    P = remark()
    assert homology_tower(P, 1, range(2, 9)).dims() == [0] * 7
    assert max(length for _, length, _ in freelie._basis_cache) == 8
    expanded = {key[1:]: piece.expand()[0] for key, piece in freelie._basis_cache.items()
                if piece._expanded is not None}
    assert expanded == {(1, 0): [("\x00", {"\x00": 1}), ("\x01", {"\x01": 1})],
                        (2, 0): [("\x00\x01", {"\x00\x01": 1, "\x01\x00": -1})]}


def remark():
    return DglPresentation.from_strings([("x", 0), ("y", 0), ("z", 1)], {"z": "x - [y, x]"})


def test_int_coords_rejects_vectors_outside_the_slice():
    # a pivot lookup alone would read yx as 0 and [x, y] + z as [x, y]
    P = remark()
    x, y, z = 0, 1, 2
    xy, yx, z = encode_word((x, y)), encode_word((y, x)), encode_word((z,))
    sl = P.slice(0, 4)
    assert sl.int_coords({xy: 1, yx: -1}) == {sl._pivot[xy]: 1}
    with pytest.raises(DglError, match="not in the degree-0 slice of L/L\\^4"):
        sl.int_coords({yx: 1})
    with pytest.raises(DglError, match="not in the degree-0 slice"):
        sl.int_coords({xy: 1})
    with pytest.raises(DglError, match=r"\(length, degree\) \(1, 1\) is outside the degree-0 slice"):
        sl.int_coords({xy: 1, yx: -1, z: 1})
    with pytest.raises(DglError, match="outside the degree-0 slice"):
        sl.coords(freelie.parse_element(P.gens, "[x, z]"))


def assert_tuple_words(elt):
    """elt is a TensorElt whose words are tuples of generator indices."""
    assert isinstance(elt, TensorElt)
    for w in elt.terms:
        assert type(w) is tuple and all(type(g) is int and 0 <= g < len(elt.gens) for g in w), w


def test_elements_leave_the_integer_layer_with_tuple_words():
    # str words stay inside the integer layer: every TensorElt handed out
    # has tuple-of-int words, which cli._elt_expr and the benchmark's
    # witness check index generator names by
    from lietower.dgl import (Truncation, _tower_rows, boundary_solve,
                              h0_table_from_tower, lcs_basis, top_length_obstruction)

    P = remark()
    out = []
    for q in (0, 1, 2):
        sl = P.slice(q, 5)
        out += [sl.element(i) for i in range(sl.dim)]
        out.append(sl.element_from_coords({i: Fraction(i + 1, 2) for i in range(sl.dim)}))
        for k in range(1, 5):
            out += lie_basis(P.gens, k, q)
    out += [extend_derivation(P, b) for b in out[:20]] + [d_image(P, b) for b in out[:20]]
    for t in ("x", "x - [y, x]", "[x, [x, y]]"):
        target = freelie.parse_element(P.gens, t)
        for exact in (False, True):
            res = boundary_solve(P, target, Truncation(6), exact_in_l=exact)
            out += [res.witness] if res.witness is not None else []
    assert sum(1 for e in out if e.gens is P.gens) == len(out)
    witnesses = len(out)
    for q in (1, 2):
        out += [r for row in _tower_rows(P, q, [2, 3, 4, 5]) for r in row[3]]
    out += [r for row in _tower_rows(P, 0, [2, 3, 4]) for r in row[3]]
    out += h0_table_from_tower(P, 4)[1]
    out += list(top_length_obstruction(P, 1, range(1, 6)).kernel_witness.values())
    out += [b for basis in lcs_basis(P, 2, Truncation(5)).per_degree.values() for b in basis]
    positive = DglPresentation.from_strings([("a", 1), ("b", 2), ("c", 3)], {"c": "[a, a]"})
    for q in (1, 2, 3, 4):
        out += exact_homology(positive, q)[1]
    assert len(out) > witnesses + 20
    assert any(not e.is_zero() for e in out)
    for elt in out:
        assert_tuple_words(elt)


def test_coords_round_trip():
    rng = random.Random(13)
    P = remark()
    for q in (0, 1, 2):
        sl = DegreeSlice(P, q, 6)
        assert sl.dim > 0
        for _ in range(20):
            vec = {
                i: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for i in rng.sample(range(sl.dim), min(sl.dim, 4))
            }
            vec = {i: c for i, c in vec.items() if c}
            u = sl.element_from_coords(vec)
            assert sl.coords(u) == vec
            assert sl.element_from_coords(sl.coords(u)) == u


def test_coords_truncates_long_words():
    P = remark()
    sl = DegreeSlice(P, 0, 3)
    x, long = lie_basis(P.gens, 1, 0)[0], lie_basis(P.gens, 3, 0)[0]
    assert sl.coords(x + long) == sl.coords(x)


def test_strict_coords_reject_words_beyond_the_bound():
    P = remark()
    sl = DegreeSlice(P, 0, 3)
    x, long = lie_basis(P.gens, 1, 0)[0], lie_basis(P.gens, 3, 0)[0]
    assert sl.coords(x, strict=True) == sl.coords(x + long) == {0: 1}
    with pytest.raises(TruncationError, match="word length 3 exceeds coordinate bound 2"):
        sl.coords(x + long, strict=True)


def test_coords_rejects_non_members():
    P = remark()
    sl = DegreeSlice(P, 0, 5)
    # x.x is a degree-0 word of the slice but not a Lie element
    with pytest.raises(DglError, match="not in the degree-0 slice"):
        sl.coords(word_elt(P.gens, (0, 0)))
    # x.y alone is not Lie either, though x.y - y.x is
    with pytest.raises(DglError, match="not in the degree-0 slice"):
        sl.coords(word_elt(P.gens, (0, 1)))
    # z has degree 1
    with pytest.raises(DglError, match="outside the degree-0 slice"):
        sl.coords(word_elt(P.gens, (2,)))


# -- derivation images -------------------------------------------------------

def fraction_derivation(P, u):
    """d on tensor words with Fraction arithmetic throughout."""
    out = {}
    for word, coeff in u.terms.items():
        prefix = 0
        for i, g in enumerate(word):
            for dw, dc in P.diff.get(P.gens.names[g], TensorElt(P.gens)).terms.items():
                w = word[:i] + dw + word[i + 1 :]
                out[w] = out.get(w, 0) + (-1) ** (prefix % 2) * coeff * dc
            prefix += P.gens.degrees[g]
    return {w: c for w, c in out.items() if c}


def test_integer_derivation_matches_fraction_derivation():
    rng = random.Random(14)
    P = DglPresentation.from_strings(
        [("a", 0), ("b", 0), ("s", 1), ("t", 1), ("e", 2)],
        {"s": "1/2*a - 3*[b, a]", "t": "-2/3*[a, [a, b]]", "e": "[s, t] - 5/4*[s, s]"},
    )
    for _ in range(60):
        n = rng.randint(1, 4)
        q = rng.randint(0, 3)
        words = words_of(P.gens, n, q)
        if not words:
            continue
        u = TensorElt(
            P.gens,
            {rng.choice(words): Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(4)},
        )
        got = extend_derivation(P, u)
        assert got.terms == fraction_derivation(P, u)
        assert all(type(c) is Fraction for c in got.terms.values())


def test_d_image_keys_hash_no_fractions(monkeypatch):
    P = DglPresentation.from_strings(
        [("a", 0), ("b", 0), ("s", 1), ("e", 2)],
        {"s": "1/2*a - 3*[b, a]", "e": "2/3*[a, s]"},
    )

    def no_hash(self):
        raise AssertionError("a Fraction was hashed")

    for q in (1, 2):
        sl = DegreeSlice(P, q, 5)
        for b in map(sl.element, range(sl.dim)):
            # a scaled copy lists the same words with other numerators: its own key
            scaled = Fraction(-3, 2) * b
            with monkeypatch.context() as m:
                m.setattr(Fraction, "__hash__", no_hash)
                size = len(P._d_cache)
                got = d_image(P, b)
                assert len(P._d_cache) == size + 1
                assert d_image(P, b) is got
                other = d_image(P, scaled)
                assert d_image(P, scaled) is other
                assert len(P._d_cache) == size + 2
            assert got == extend_derivation(P, b)
            assert other == extend_derivation(P, scaled)


# -- quotient complexes and towers ---------------------------------------------

def fraction_matrix(cx, q):
    """D_q of a quotient complex from Fraction derivation images read
    through `coords`."""
    src, tgt = cx.slice(q), cx.slice(q - 1)
    cols = [tgt.coords(extend_derivation(cx.P, b).truncate_length(cx.n)) for b in map(src.element, range(src.dim))]
    return SparseMatrix.from_columns(tgt.dim, cols)


def connecting_image_dim(q, cx_n, cx_n1):
    """dim of the image of H(L/L^{n+1})_q -> H(L/L^n)_q: project a cycle
    basis of L/L^{n+1} and count what stays independent of the boundaries
    of L/L^n."""
    boundaries = IntEchelon()
    for col in cx_n.differential(q + 1).columns():
        boundaries.insert(col)
    _, cycles, _ = reduce(cx_n1.differential(q))
    count = 0
    for z in cycles.basis:
        elt = cx_n1.slice(q).element_from_coords(z)
        if boundaries.insert(cx_n.slice(q).coords(elt.truncate_length(cx_n.n))) is not None:
            count += 1
    return count


def per_n_tower(P, q, ns, stab_suffix=3):
    """The tower with its own quotient complex for every n."""
    complexes = {}

    def cx(n):
        if n not in complexes:
            complexes[n] = QuotientComplex(P, n, (q, q))
        return complexes[n]

    rows = []
    for n in ns:
        dim_h, reps = cx(n).homology(q)
        rows.append(
            {
                "n": n,
                "dim_H": dim_h,
                "dim_image": connecting_image_dim(q, cx(n), cx(n + 1)),
                "representatives": [r.pretty() for r in reps],
            }
        )
    stab = _detect_stabilization([(r["dim_H"], r["dim_image"]) for r in rows], ns, stab_suffix)
    return TowerReport(q, rows, stab, "quotient-complex")


_XY_TERMS = ["x", "y", "[x, y]", "[x, [x, y]]", "[[x, y], y]"]
_COEFFS = ["1", "-1", "2", "-3", "1/2", "-2/3"]


def random_presentation(rng):
    """x, y of degree 0, z and t of degree 1, e of degree 2.

    d z is a random Lie polynomial in x and y; d t = 0 and
    d e = c t + c' [x, t] + c'' [y, t], so d(d e) = 0, and its length-1
    term makes the length-preserving part of d nonzero in degree 2.
    """
    def poly(terms):
        return " + ".join(f"{rng.choice(_COEFFS)}*{t}" for t in terms).replace("+ -", "- ")

    diffs = {"z": poly(rng.sample(_XY_TERMS, rng.randint(1, 3)))}
    gens = [("x", 0), ("y", 0), ("z", 1), ("t", 1)]
    if rng.random() < 0.7:
        gens.append(("e", 2))
        diffs["e"] = poly(["t"] + rng.sample(["[x, t]", "[y, t]"], rng.randint(0, 2)))
    return DglPresentation.from_strings(gens, diffs)


def test_integer_matrices_match_fraction_path():
    rng = random.Random(21)
    for P in [remark()] + [random_presentation(rng) for _ in range(6)]:
        for n in (2, 4, 5):
            cx = QuotientComplex(P, n, (1, 2))
            for q in (1, 2, 3):
                assert cx.differential(q).entries == fraction_matrix(cx, q).entries, (P, n, q)


def heisenberg():
    return DglPresentation.from_strings(
        [("a", 0), ("b", 0), ("c", 0), ("u", 1), ("v", 1), ("w", 1)],
        {"u": "c - [a, b]", "v": "[a, c]", "w": "[b, c]"},
    )


@pytest.mark.parametrize("q", [1, 2])
def test_tower_matches_per_n_complexes_on_the_stubborn_cycle(q):
    ns = list(range(2, 8))
    got = homology_tower(remark(), q, ns).to_structured()
    assert got == per_n_tower(remark(), q, ns).to_structured()


def test_tower_matches_per_n_complexes_on_heisenberg():
    for q, ns in ((1, range(2, 6)), (2, range(2, 5))):
        got = homology_tower(heisenberg(), q, ns).to_structured()
        assert got == per_n_tower(heisenberg(), q, list(ns)).to_structured()


def test_tower_matches_per_n_complexes_on_random_presentations():
    rng = random.Random(22)
    towers = with_delta = 0
    for _ in range(100):
        P = random_presentation(rng)
        for q in (1, 2):
            ns = list(range(2, rng.randint(4, 5 if q == 1 else 4) + 1))
            got = homology_tower(P, q, ns).to_structured()
            assert got == per_n_tower(P, q, ns).to_structured(), (P.diff, q)
            towers += 1
            # a nonzero length-preserving part of d somewhere in the range
            cx = QuotientComplex(P, ns[-1] + 1, (q, q))
            mid, below = cx.slice(q), cx.slice(q - 1)
            with_delta += any(
                mid.lengths[j] == below.lengths[i] for (i, j) in cx.differential(q).entries
            )
    assert towers == 200
    assert with_delta > 100


# -- invariant checks that survive python -O -----------------------------

def test_lie_basis_rank_check_raises(monkeypatch):
    gens = GeneratorSet(["p", "r"], [0, 2])
    monkeypatch.setattr(freelie, "_basis_cache", {})
    monkeypatch.setattr(freelie, "lie_dim", lambda g, n, d: 7)
    with pytest.raises(AssertionError, match="basis rank 1 != counted dim 7"):
        lie_basis(gens, 2, 2)


def broken_bracket(bracketing):
    """A stand-in for `freelie._int_bracket` that gives the bracket of two
    bracketings the given terms at the concatenation of their pivot words."""
    return lambda u, du, v, dv: bracketing(min(u) + min(v))


@pytest.mark.parametrize("bracketing", [
    lambda w: {w: 2},  # leads with 2
    lambda w: {w: -1, w[::-1]: 1},  # leads with -1
    lambda w: {w[::-1]: 1},  # the pivot word is missing
    lambda w: {w: 1, encode_word((0,) * len(w)): 1},  # a word below the pivot
])
def test_bracketing_triangularity_check_raises(monkeypatch, bracketing):
    gens = GeneratorSet(["x", "y"], [0, 0])
    monkeypatch.setattr(freelie, "_basis_cache", {})
    monkeypatch.setattr(freelie, "_int_bracket", broken_bracket(bracketing))
    piece = freelie.lie_piece(gens, 2, 0)
    assert piece.pivots == [encode_word((0, 1))]
    with pytest.raises(InvariantError, match="does not lead with 1 at its own pivot word"):
        piece.expand()


def test_lie_basis_rank_check_maps_to_exit_4(monkeypatch, capsys):
    monkeypatch.setattr(freelie, "_basis_cache", {})
    monkeypatch.setattr(freelie, "lie_dim", lambda g, n, d: 1000)
    path = os.path.join(FILES, "stubborn_cycle.dgl")
    code = cli.main(["tower", path, "--degrees", "1..1", "--max-length", "3"])
    assert code == 4
    assert "internal invariant breach" in capsys.readouterr().out


def run_optimized(body):
    code = textwrap.dedent(body)
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )


def test_rank_checks_survive_optimized_mode():
    # plain asserts are stripped in the child
    done = run_optimized('assert False, "stripped under -O"')
    assert done.returncode == 0, done.stderr
    done = run_optimized(
        """
        from fractions import Fraction
        from lietower import freelie
        gens = freelie.GeneratorSet(["p", "r"], [0, 2])
        log_coefficient, lie_dim = freelie._log_coefficient, freelie.lie_dim
        freelie._log_coefficient = lambda g, n, d: Fraction(1, 7)
        try:
            freelie.lie_dim(gens, 2, 2)
        except AssertionError as err:
            print("necklace:", err)
        freelie._log_coefficient, freelie.lie_dim = log_coefficient, lambda g, n, d: 7
        try:
            freelie.lie_basis(gens, 2, 2)
        except AssertionError as err:
            print("rank:", err)
        freelie.lie_dim = lie_dim
        freelie._int_bracket = lambda u, du, v, dv: {min(u) + min(v): 2}
        try:
            freelie.lie_basis(gens, 3, 2)
        except AssertionError as err:
            print("triangular:", err)
        """
    )
    assert done.returncode == 0, done.stderr
    assert "necklace: necklace inversion broke" in done.stdout
    assert "rank: basis rank 1 != counted dim 7" in done.stdout
    assert "triangular: bracketing 0 at" in done.stdout


def test_complex_checks_survive_optimized_mode():
    done = run_optimized(
        f"""
        import contextlib, io, types
        from fractions import Fraction
        from lietower import cli, dgl, linalg
        P = dgl.DglPresentation.from_strings([("x", 0), ("y", 0), ("z", 1)], {{"z": "x - [y, x]"}})

        def expect(label, fn):
            try:
                fn()
            except AssertionError as err:
                print(label + ":", err)

        def patched(owner, name, value, fn):
            orig = getattr(owner, name)
            setattr(owner, name, value)
            try:
                expect(name, fn)
            finally:
                setattr(owner, name, orig)

        m = linalg.SparseMatrix.from_dense([[1, 2], [3, 4]])
        patched(linalg.IntEchelon, "insert", lambda self, v: None, lambda: linalg.reduce(m))

        w = linalg.Subspace(2, [{{0: 1}}, {{1: 1}}])
        u = linalg.Subspace(2, [{{0: 1}}])
        linalg.Subspace.contains_subspace = lambda self, other: True
        patched(linalg.IntEchelon, "insert", lambda self, v: None,
                lambda: linalg.quotient_dims(w, u))

        orig_reduce = linalg.reduce
        def off_by_one(mat):
            rank, kernel, image = orig_reduce(mat)
            return rank + 1, kernel, image
        zero = linalg.SparseMatrix(2, 2)
        patched(linalg, "reduce", off_by_one, lambda: linalg.homology_at(zero, zero))

        S = dgl.DglPresentation.from_strings([("a", 1)], {{}})
        tower_rows = dgl._tower_rows
        def off_at_the_bottom(P, q, ns):
            for n, dim, image, reps in tower_rows(P, q, ns):
                yield n, dim + (n == ns[0]), image, reps
        patched(dgl, "_tower_rows", off_at_the_bottom, lambda: dgl.exact_homology(S, 1))

        def leaky(mat):
            cols = [j for j in range(mat.cols) if mat.column(j)][:1]
            return 0, types.SimpleNamespace(basis=[{{j: Fraction(1)}} for j in cols]), None
        patched(dgl, "reduce", leaky, lambda: dgl.h0_table_bounded_window(P, 2, 4))

        patched(dgl, "_leading_rank", lambda pivots, rows, cols: 0,
                lambda: dgl.homology_tower(P, 1, range(2, 5)))
        patched(dgl, "_block_rank", lambda cols, lo, hi: 10**6,
                lambda: dgl.homology_tower(P, 1, range(2, 5)))
        patched(dgl, "gf2_pivots", lambda cols: list(range(len(cols))),
                lambda: dgl.homology_tower(P, 1, range(2, 5)))
        dgl._block_rank = lambda cols, lo, hi: -10**6
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["tower", {os.path.join(FILES, "stubborn_cycle.dgl")!r},
                             "--degrees", "1..1", "--max-length", "4"])
        print("exit", code, out.getvalue().strip())
        """
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [
        "insert", "insert", "reduce", "_tower_rows", "reduce", "_leading_rank", "_block_rank",
        "gf2_pivots",
    ], done.stdout
    assert "did not give a pivot" in lines[0]
    assert "2 representatives for a quotient of dim 1" in lines[1]
    assert "homology representatives for dim" in lines[2]
    assert "degreewise agreement with L/L^2 failed at degree 1" in lines[3]
    assert "window intersection leaked long words" in lines[4]
    assert "leading-block ranks give dim H" in lines[5]
    assert "connecting image dim" in lines[6] and "outside [0, min(" in lines[6]
    assert "D_2 of L/L^5 has rank 10 mod 2, above the cycle dimension 8" in lines[7]
    assert lines[-1].startswith("exit 4 internal invariant breach: connecting image dim -")


# -- the tracked integer echelon ---------------------------------------------

def frac_axpy(u, v, f):
    """u + f * v in Fraction, with no stored zeros."""
    out = dict(u)
    for i, c in v.items():
        s = out.get(i, 0) + f * c
        if s:
            out[i] = s
        else:
            out.pop(i, None)
    return out


def fraction_reduce(m):
    """The Fraction `reduce` the integer kernel replaced: columns left to
    right, each reduced against the pivot rows found so far, with its
    combination over the original columns tracked in Fraction.  Returns
    (rank, kernel rows, image rows), both in reduced echelon form."""
    rows = {}  # pivot -> (row, combination)
    kernel, basis_cols = [], []
    cols = m.columns()
    for j, col in enumerate(cols):
        v = {i: Fraction(c) for i, c in col.items() if c}
        expr = {j: Fraction(1)}
        while v and min(v) in rows:
            row, combo = rows[min(v)]
            f = -v[min(v)] / row[min(v)]
            v, expr = frac_axpy(v, row, f), frac_axpy(expr, combo, f)
        if v:
            rows[min(v)] = (v, expr)
            basis_cols.append(j)
        else:
            kernel.append(expr)
    return len(basis_cols), fraction_rref(kernel), fraction_rref([cols[j] for j in basis_cols])


def fraction_solve_affine(m, b):
    """The particular solution read off the reduced echelon form of [A | b]
    (free variables 0), with the Fraction kernel; None when inconsistent."""
    rows = [dict() for _ in range(m.rows)]
    for (i, j), c in m.entries.items():
        rows[i][j] = c
    for i, c in b.items():
        if c:
            rows[i][m.cols] = Fraction(c)
    particular = {}
    for row in fraction_rref(rows):
        p = min(row)
        if p == m.cols:
            return None
        if row.get(m.cols):
            particular[p] = row[m.cols]
    return particular, fraction_reduce(m)[1]


class FractionTrackedEchelon:
    """The Fraction echelon whose rows remember an expression over tracked
    inputs, which `IntEchelon(track=True)` replaced."""

    def __init__(self):
        self.rows = {}

    def _reduce(self, vec, expr):
        vec = {i: Fraction(c) for i, c in vec.items() if c}
        while vec and min(vec) in self.rows:
            row, rexpr = self.rows[min(vec)]
            f = -vec[min(vec)] / row[min(vec)]
            vec, expr = frac_axpy(vec, row, f), frac_axpy(expr, rexpr, f)
        return vec, expr

    def insert(self, vec, expr):
        vec, expr = self._reduce(vec, expr)
        if vec:
            self.rows[min(vec)] = (vec, expr)
        return bool(vec)

    def express(self, vec):
        vec, expr = self._reduce(vec, {})
        return None if vec else {i: -c for i, c in expr.items()}


def random_matrix(rng, rational):
    """A sparse matrix with some zero columns and some columns that are
    combinations of earlier ones."""
    n_rows, n_cols = rng.randint(0, 8), rng.randint(1, 8)
    cols = []
    for j in range(n_cols):
        roll = rng.random()
        if roll < 0.15 or not n_rows:
            col = {}
        elif roll < 0.4 and cols:
            col = {}
            for other in rng.sample(cols, min(len(cols), 2)):
                col = frac_axpy(col, other, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        else:
            col = random_rows(rng, 1, n_rows, rational)[0]
        cols.append(col if rational else {i: int(c) for i, c in col.items()})
    return SparseMatrix.from_columns(n_rows, cols)


def test_column_pass_matches_fraction_reduce_and_row_reduction():
    rng = random.Random(31)
    unsat = zero_cols = 0
    for trial in range(400):
        m = random_matrix(rng, rational=trial % 2 == 1)
        rank, kernel, image = reduce(m)
        want_rank, want_kernel, want_image = fraction_reduce(m)
        assert (rank, kernel.basis, image.basis) == (want_rank, want_kernel, want_image), trial
        assert rank + kernel.dim == m.cols
        zero_cols += any(not col for col in m.columns())
        # a right-hand side in the column span, and a random one
        x = {j: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for j in range(m.cols)}
        for b in (m.apply(x), random_rows(rng, 1, m.rows, rational=True)[0] if m.rows else {}):
            got, want = solve_affine(m, b), fraction_solve_affine(m, b)
            if want is None:
                assert got is None, trial
                unsat += 1
                continue
            particular, kernel = got
            assert particular == want[0] and kernel.basis == want[1], trial
            assert m.apply(particular) == {i: Fraction(c) for i, c in b.items() if c}
    assert unsat > 50 and zero_cols > 50


def test_express_matches_fraction_tracked_echelon():
    rng = random.Random(32)
    for trial in range(300):
        n = rng.randint(1, 8)
        span = random_rows(rng, rng.randint(0, 5), n, rational=trial % 2 == 0)
        ech, old = IntEchelon(track=True), FractionTrackedEchelon()
        for k, row in enumerate(span):
            assert (ech.insert(row) is not None) == old.insert(row, {k: Fraction(1)})
        assert ech.inputs == len(span) and ech.dim + len(ech.relations) == len(span)
        for relation in ech.relations:
            total = {}
            for k, c in relation.items():
                total = frac_axpy(total, span[k], Fraction(c))
            assert total == {}
        probes = random_rows(rng, 3, n, rational=True)
        probes += [frac_axpy(span[0], span[-1], Fraction(rng.randint(-2, 2)))] if span else []
        for vec in probes:
            got = ech.express(vec)
            assert got == old.express(vec), trial
            if got is not None:
                total = {}
                for k, c in got.items():
                    total = frac_axpy(total, span[k], c)
                assert total == {i: Fraction(c) for i, c in vec.items() if c}


class ContentEveryStepEchelon(IntEchelon):
    """`IntEchelon` with the reduction it replaced: a fresh vector from every
    step, and the content divided out before every step, whatever the pivot.
    `steps` counts the steps against rows with pivot 1 and with pivot > 1."""

    def __init__(self, track=False):
        super().__init__(track)
        self.steps = {"unit": 0, "other": 0}

    def _reduce(self, v, e=None):
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
            self.steps["unit" if row[p] == 1 else "other"] += 1
            g = math.gcd(row[p], v[p])
            ca, cb = row[p] // g, v[p] // g
            v = _sub_multiple(v, ca, row, cb)
            if e is not None:
                e = _sub_multiple(e, ca, self.combos[p], cb)


def test_unit_pivot_steps_match_content_after_every_step():
    """The in-place step against a pivot-1 row, with the content divided only
    after other steps and at the end, stores the rows, combinations and
    relations of the reduction it replaced, and reduces and expresses alike."""
    rng = random.Random(36)
    steps = {"unit": 0, "other": 0}
    scaled = 0
    for trial in range(300):
        n = rng.randint(1, 8)
        rows = random_rows(rng, rng.randint(1, 9), n, rational=trial % 2 == 1)
        rows += [frac_axpy(rng.choice(rows), rng.choice(rows), Fraction(rng.randint(-3, 3)))]
        # inputs whose content is > 1, so that division by it shows
        for k in rng.sample(range(len(rows)), len(rows) // 2):
            rows[k] = {i: c * rng.randint(2, 6) for i, c in rows[k].items()}
            scaled += len(rows[k]) > 0
        rows = [row if trial % 2 else {i: int(c) for i, c in row.items()} for row in rows]
        for track in (False, True):
            got, want = IntEchelon(track), ContentEveryStepEchelon(track)
            for row in rows:
                assert got.insert(row) == want.insert(row), trial
            assert got.rows == want.rows and got.combos == want.combos, trial
            assert got.relations == want.relations and got.inputs == want.inputs, trial
            for probe in random_rows(rng, 3, n, rational=True) + rows:
                assert got.residual(probe) == want.residual(probe), trial
                if track:
                    assert got.express(probe) == want.express(probe), trial
            for kind in steps:
                steps[kind] += want.steps[kind]
    assert scaled > 300 and steps["unit"] > 1000 and steps["other"] > 1000


def test_subspace_membership_echelon_is_built_once(monkeypatch):
    from lietower import linalg

    w = linalg.Subspace(3, [{0: 1, 1: 2}, {2: Fraction(1, 2)}])
    inserts = []
    orig = linalg.IntEchelon.insert
    monkeypatch.setattr(linalg.IntEchelon, "insert", lambda self, v: inserts.append(v) or orig(self, v))
    assert w.contains({0: 2, 1: 4, 2: 7}) and not w.contains({1: 1})
    assert w.contains_subspace(linalg.Subspace(3, [{0: 1, 1: 2}]))
    assert len(inserts) == 2 + 1  # the two basis rows once, the other subspace's row


def test_compose_matches_entrywise_product():
    rng = random.Random(33)
    for _ in range(50):
        a, b = random_matrix(rng, True), random_matrix(rng, False)
        a = SparseMatrix.from_columns(a.rows, a.columns()[: b.rows] + [{}] * (b.rows - a.cols))
        want = {}
        for (i, k), x in a.entries.items():
            for (kk, j), y in b.entries.items():
                if k == kk:
                    want[(i, j)] = want.get((i, j), 0) + x * y
        assert a.compose(b).entries == {key: c for key, c in want.items() if c}


# -- boundary solves on integer columns --------------------------------------

def perfbench_gen():
    """The benchmark's seeded inputs (perfbench/gen.py)."""
    import importlib.util

    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "gen.py")
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class WordCoords:
    """Coordinates for degree-q words of lengths 1..n_top-1, shortest first:
    a coordinate system independent of `DegreeSlice`, so the oracles below
    check the Lie-coordinate solvers from outside."""

    def __init__(self, gens, q, n_top):
        self.gens = gens
        self.q = q
        self.n_top = n_top
        self.offsets = {}
        self.windex = {}
        self.rev = []
        for k in range(1, n_top):
            ws = words_of(gens, k, q)
            self.offsets[k] = len(self.rev)
            self.windex[k] = {w: i for i, w in enumerate(ws)}
            self.rev.extend(ws)
        self.total = len(self.rev)

    def vec(self, u, strict=False):
        """Coordinates of a TensorElt, or of a terms dict {word: coefficient}."""
        out = {}
        for w, c in (u.terms if isinstance(u, TensorElt) else u).items():
            k = len(w)
            if k >= self.n_top:
                if strict:
                    raise TruncationError(f"word length {k} exceeds coordinate bound {self.n_top - 1}")
                continue
            out[self.offsets[k] + self.windex[k][w]] = c
        return out


def fraction_boundary_system(P, target, n, exact):
    """d of the degree-(q+1) slice basis in Fraction word coordinates."""
    src = DegreeSlice(P, target.homogeneous_degree() + 1, n)
    coords = WordCoords(P.gens, target.homogeneous_degree(), n + P.max_shift() if exact else n)
    cols = []
    for b in map(src.element, range(src.dim)):
        img = extend_derivation(P, b)
        cols.append(coords.vec(img if exact else img.truncate_length(n), strict=exact))
    rhs = coords.vec(target if exact else target.truncate_length(n), strict=True)
    return src, SparseMatrix.from_columns(coords.total, cols), rhs


def fraction_obstruction(P, degree, lengths):
    """(to_structured(), kernel witnesses, boundary rows) of
    top_length_obstruction, assembled in Fraction."""
    P_raise = DglPresentation(P.gens, {k: v.length_component(2) for k, v in P.diff.items()
                                       if not v.length_component(2).is_zero()})
    injective, kernels = {}, {}
    for l in lengths:
        basis = lie_basis(P.gens, l, degree)
        if not basis:
            injective[l] = True
            continue
        coords = WordCoords(P.gens, degree - 1, l + 2)
        cols = [coords.vec(extend_derivation(P_raise, b)) for b in basis]
        rank, kernel, _ = fraction_reduce(SparseMatrix.from_columns(coords.total, cols))
        injective[l] = rank == len(basis)
        if kernel:
            kernels[l] = sum((c * basis[i] for i, c in kernel[0].items()), TensorElt(P.gens))
    bound = max(lengths)
    coords = WordCoords(P.gens, degree - 1, bound + 1 + max(P.max_shift(), 1))
    rows = [coords.vec(extend_derivation(P, b))
            for l in range(1, bound + 1) for b in lie_basis(P.gens, l, degree)]
    structured = {
        "degree": degree,
        "lengths": list(lengths),
        "injective": {str(k): v for k, v in sorted(injective.items())},
        "witness_bound": bound,
        "classical_certificate": not not P_raise.diff and all(injective.values()),
        "vacuous": not P_raise.diff,
    }
    return structured, kernels, coords, fraction_rref(rows)


def sweep_presentations():
    """The stubborn cycle and seeded members of its family, each with the
    benchmark's sweep targets of one seed."""
    gen = perfbench_gen()
    with open(os.path.join(FILES, "stubborn_cycle.dgl")) as fh:
        stubborn = cli.parse(fh.read()).to_dgl()
    for seed in (0, 1, 2):
        seeded = cli.parse(gen.seeded_dgl(seed)).to_dgl()
        for P in (stubborn, seeded):
            yield P, [freelie.parse_element(P.gens, t) for t in gen.sweep_targets(seed, 12)]


def test_boundary_solves_match_fraction_assembly():
    from lietower.dgl import Truncation, boundary_solve, top_length_obstruction, witness_direction_space

    outcomes = set()
    obstructions = 0
    for P, targets in sweep_presentations():
        # the seeded d z raises length by 2, outside the top-length analysis
        report = None if P.max_shift() > 1 else top_length_obstruction(P, 1, range(1, 6))
        if report:
            want_report, want_kernels, coords, boundary_rows = fraction_obstruction(P, 1, range(1, 6))
            assert report.to_structured() == want_report
            assert report.kernel_witness == want_kernels
            obstructions += 1
        for t in targets:
            if report:
                span = fraction_rref(boundary_rows + [coords.vec(t, strict=True)])
                assert report.excludes(t) == (len(span) > len(boundary_rows))
            for exact in (False, True):
                src, mat, rhs = fraction_boundary_system(P, t, 6, exact)
                got = boundary_solve(P, t, Truncation(6), exact_in_l=exact)
                want = fraction_solve_affine(mat, rhs)
                outcomes.add((exact, got.status))
                if want is None:
                    assert got.status == "UNSAT-within-bound" and got.witness is None
                else:
                    assert got.witness == src.element_from_coords(want[0])
                    assert got.kernel_dim == len(want[1])
            _, kernel, _ = witness_direction_space(P, t, Truncation(6))
            assert kernel.basis == fraction_reduce(fraction_boundary_system(P, t, 6, False)[1])[1]
    assert outcomes == {(e, s) for e in (False, True) for s in ("SAT", "UNSAT-within-bound")}
    assert obstructions == 3


def test_boundary_solve_checks_its_target_and_its_witness(monkeypatch):
    from lietower.dgl import Truncation, boundary_solve

    P = remark()
    with pytest.raises(DglError, match="target is not a d-cycle"):
        boundary_solve(P, freelie.parse_element(P.gens, "z"), Truncation(5))
    # d z = x - [y, x], so z solves it in both modes
    target = freelie.parse_element(P.gens, "x - [y, x]")
    for exact in (False, True):
        got = boundary_solve(P, target, Truncation(5), exact_in_l=exact)
        assert got.status == "SAT" and got.witness.pretty() == "z"
    # a witness at half its size fails the check, in both modes
    int_element = DegreeSlice.int_element

    def halved(self, vec):
        den, terms = int_element(self, vec)
        return 2 * den, terms

    monkeypatch.setattr(DegreeSlice, "int_element", halved)
    for exact in (False, True):
        with pytest.raises(InvariantError, match="witness verification failed"):
            boundary_solve(P, target, Truncation(5), exact_in_l=exact)


def test_image_matrix_clears_mixed_denominators():
    # d has denominators 2 and 3: the kept matrix is 6 * M, with integer
    # entries, for M the matrix of d in the slices' coordinates
    P = DglPresentation.from_strings(
        [("x", 0), ("y", 0), ("z", 1), ("t", 1)], {"z": "1/2*x - [y, x]", "t": "2/3*[x, y]"}
    )
    dm = P.d_matrix(1, 5, 5)
    src, target = P.slice(1, 5), P.slice(0, 5)
    assert dm.den == 6 and dm.matrix.cols == src.dim > 4
    assert all(type(c) is int for c in dm.matrix.entries.values())
    for j in range(src.dim):
        want = target.coords(extend_derivation(P, src.element(j)).truncate_length(5), strict=True)
        assert {i: Fraction(c, dm.den) for i, c in dm.matrix.column(j).items()} == want


def test_h0_tables_express_brackets_modulo_boundaries():
    # every entry [r_i, r_j] = sum_k c_k r_k holds modulo the boundaries
    # the table is taken over, decided by an independent boundary solve
    from lietower.dgl import Truncation, boundary_solve, h0_table_bounded_window, h0_table_from_tower

    def residue(table, reps, i, j, n):
        val = freelie.graded_bracket(reps[i], reps[j]).truncate_length(n)
        for k, c in table.bracket_basis(i, j).items():
            val = val - c * reps[k]
        return val

    rng = random.Random(34)
    nonabelian = windows = 0
    for P in [remark(), heisenberg()] + [random_presentation(rng) for _ in range(12)]:
        table, reps = h0_table_from_tower(P, 5)
        for i in range(len(reps)):
            for j in range(i, len(reps)):
                nonabelian += bool(table.bracket_basis(i, j))
                val = residue(table, reps, i, j, 5)
                assert val.is_zero() or boundary_solve(P, val, Truncation(5)).status == "SAT"
        table, reps, closed = h0_table_bounded_window(P, 2, 4)
        for i in range(len(reps) if closed else 0):
            for j in range(i, len(reps)):
                windows += bool(table.bracket_basis(i, j))
                val = residue(table, reps, i, j, 3)
                assert val.is_zero() or boundary_solve(
                    P, val, Truncation(5), exact_in_l=True).status == "SAT"
    assert nonabelian > 10 and windows >= 3


# -- one reduction per differential, and no repeated work ----------------------

def test_tower_rejects_a_non_complex():
    # d(d e) = x != 0: the one composite check on the top matrices catches it
    P = DglPresentation.from_strings([("x", 0), ("z", 1), ("e", 2)], {"z": "x", "e": "z"})
    with pytest.raises(NotAComplexError):
        homology_tower(P, 1, range(2, 4))


def test_exact_homology_builds_one_top_complex(monkeypatch):
    from lietower import dgl

    complexes, towers, matrices = [], [], []
    init, rows, build = QuotientComplex.__init__, dgl._tower_rows, dgl.DMatrix.__init__
    monkeypatch.setattr(QuotientComplex, "__init__", lambda self, *a: complexes.append(a) or init(self, *a))
    monkeypatch.setattr(dgl, "_tower_rows", lambda P, q, ns: towers.append(list(ns)) or rows(P, q, ns))
    monkeypatch.setattr(dgl.DMatrix, "__init__", lambda self, P, *key: matrices.append(key) or build(self, P, *key))
    P = DglPresentation.from_strings([("a", 1), ("b", 2), ("c", 3)], {"c": "[a, a]"})
    dim, reps = exact_homology(P, 2)
    assert (dim, [r.pretty() for r in reps]) == (1, ["b"])
    # the tower rows at n = 3, 4, 5, off D_2 and D_3 at the top truncation
    # N = 6, kept under capped lengths: every degree is >= 1, so a degree-q
    # word has length <= q and D_q is d from L/L^(q+1) to L/L^q; the Leibniz
    # column of ab in D_3 reads a's column out of D_1
    assert towers == [[3, 4, 5]]
    assert sorted(matrices) == [(1, 2, 1), (2, 3, 2), (3, 4, 3)]
    assert exact_homology(P, 2)[0] == 1
    assert towers == [[3, 4, 5]] * 2 and len(matrices) == 3
    # the next degree reuses D_1 and D_3 and builds D_4, whose Leibniz
    # columns (aab = [a, ab]) read the factors' columns out of them
    exact_homology(P, 3)
    assert sorted(matrices) == [(1, 2, 1), (2, 3, 2), (3, 4, 3), (4, 5, 4)]
    for q in (1, 2):
        homology_tower(remark(), q, range(2, 6))
    assert complexes == []


def test_a_matrix_into_an_empty_slice_derives_nothing(monkeypatch):
    # D_0 maps into the empty degree -1 slice: every column is zero
    from lietower import dgl

    calls = []
    derive = dgl._derive_int
    monkeypatch.setattr(dgl, "_derive_int", lambda *a: calls.append(a) or derive(*a))
    P = remark()
    dm = P.d_matrix(0, 6, 6)
    assert calls == [] and dm.matrix.is_zero()
    assert (dm.matrix.rows, dm.matrix.cols) == (0, P.slice(0, 6).dim) and dm.matrix.cols > 10
    assert dm.reduction().rank == 0


def test_top_length_obstruction_reuses_the_kept_matrix(monkeypatch):
    from lietower import dgl

    P = remark()
    first = dgl.top_length_obstruction(P, 1, range(1, 8))
    calls = []
    derive = dgl._derive_int
    monkeypatch.setattr(dgl, "_derive_int", lambda *a: calls.append(a) or derive(*a))
    again = dgl.top_length_obstruction(P, 1, range(1, 8))
    assert calls == []
    assert again.to_structured() == first.to_structured()


def test_top_length_report_is_kept_on_the_presentation(monkeypatch):
    from lietower import dgl

    P = remark()
    targets = [freelie.parse_element(P.gens, t)
               for t in ("x", "x - [y, x]", "[x, [x, y]]", "[y, x] - [y, [y, x]]")]
    first = dgl.top_length_obstruction(P, 1, range(1, 8))
    built = []
    reduction = dgl.ColumnReduction
    monkeypatch.setattr(dgl, "ColumnReduction", lambda rows, cols: built.append(cols) or reduction(rows, cols))
    again = dgl.top_length_obstruction(P, 1, [7, 6, 5, 4, 3, 2, 1, 1])
    assert again is first and built == []
    answers = [again.excludes(t) for t in targets]
    assert built == [] and True in answers and False in answers
    # another range is another report
    assert dgl.top_length_obstruction(P, 1, range(1, 7)).lengths == list(range(1, 7))
    fresh = dgl.top_length_obstruction(remark(), 1, range(1, 8))
    assert fresh is not first and built
    assert [fresh.excludes(t) for t in targets] == answers
    assert fresh.to_structured() == first.to_structured()


def eager_kernel_witnesses(P, degree, lengths):
    """`kernel_witness` as `top_length_obstruction` built it before it was
    deferred: a tracked column reduction of every length's raising block,
    and the first kernel vector of each one that is not injective."""
    bound = max(lengths)
    src, out = P.slice(degree, bound + 1), P.slice(degree - 1, bound + 1 + max(P.max_shift(), 1))
    cols = P.d_matrix(degree, bound + 1, out.n).matrix.columns()
    kernels = {}
    for l in lengths:
        first, stop = src.count_below(l), src.count_below(l + 1)
        lo, hi = out.count_below(l + 1), out.count_below(l + 2)
        raising = [{i: c for i, c in col.items() if lo <= i < hi} for col in cols[first:stop]]
        reduced = ColumnReduction(out.dim, raising)
        if reduced.rank != stop - first:
            kernels[l] = src.element_from_coords({first + i: c for i, c in reduced.kernel().basis[0].items()})
    return kernels


def test_kernel_witnesses_are_built_on_first_read(monkeypatch):
    """A report runs no tracked reduction on its raising blocks until its
    kernel witnesses are read, and they are then those of one tracked
    reduction per block, on the stubborn cycle and random presentations."""
    from lietower import dgl

    built = []
    reduction = dgl.ColumnReduction
    monkeypatch.setattr(dgl, "ColumnReduction", lambda rows, cols: built.append(cols) or reduction(rows, cols))
    with open(os.path.join(FILES, "stubborn_cycle.dgl")) as fh:
        stubborn = cli.parse(fh.read()).to_dgl()
    rng = random.Random(37)
    cases = [(stubborn, 1, range(1, 8)), (stubborn, 1, range(2, 6)), (remark(), 1, range(1, 6)),
             (stubborn, 2, range(1, 5))]
    cases += [(P, q, range(1, rng.randint(3, 5))) for P in (random_presentation(rng) for _ in range(30))
              if P.max_shift() <= 1 for q in (1, 2)]
    blocks = 0
    for P, q, lengths in cases:
        report = dgl.top_length_obstruction(P, q, lengths)
        dm = P.d_matrix(q, max(lengths) + 1, max(lengths) + 1 + max(P.max_shift(), 1))
        x = freelie.parse_element(P.gens, "x") if q == 1 else freelie.zero(P.gens)
        report.to_structured()
        report.excludes(x)
        # the one reduction, of the boundary space, runs over B * S_src, and
        # the echelon matrix is never formed
        assert len(built) == 1 and built[0] is dm.bs_columns, (P.diff, q)
        assert dm._matrix is None, (P.diff, q)
        del built[:]
        want = eager_kernel_witnesses(P, q, list(lengths))
        assert report.kernel_witness == want and len(built) == len(want), (P.diff, q)
        assert set(want) == {l for l in lengths if not report.injective[l]}
        assert report.kernel_witness is report.kernel_witness
        blocks += len(want)
        del built[:]
    assert len(cases) == 26 and blocks > 50


def count_slice_builds(monkeypatch):
    built = []
    init = DegreeSlice.__init__

    def counting(self, P, q, n):
        built.append((q, n))
        init(self, P, q, n)

    monkeypatch.setattr(DegreeSlice, "__init__", counting)
    return built


def test_witness_direction_space_reuses_its_slices(monkeypatch):
    from lietower.dgl import Truncation, witness_direction_space

    P = remark()
    target = freelie.parse_element(P.gens, "x - [y, x]")
    first = witness_direction_space(P, target, Truncation(6))
    built = count_slice_builds(monkeypatch)
    again = witness_direction_space(P, target, Truncation(6))
    assert built == []
    assert again[1] == first[1] and again[2] is first[2]


def test_witness_direction_space_rejects_a_zero_target():
    from lietower.dgl import Truncation, witness_direction_space

    with open(os.path.join(FILES, "stubborn_cycle.dgl")) as fh:
        P = cli.parse(fh.read()).to_dgl()
    with pytest.raises(DglError, match="target is zero"):
        witness_direction_space(P, freelie.zero(P.gens), Truncation(4))


def test_towers_of_neighbouring_degrees_share_their_slices(monkeypatch):
    P = remark()
    built = count_slice_builds(monkeypatch)
    homology_tower(P, 1, range(2, 6))
    assert sorted(built) == [(0, 6), (1, 6), (2, 6)]
    homology_tower(P, 2, range(2, 6))
    assert sorted(built) == [(0, 6), (1, 6), (2, 6), (3, 6)]


def test_stubborn_cycle_complex_matrices_are_integer():
    with open(os.path.join(FILES, "stubborn_cycle.dgl")) as fh:
        P = cli.parse(fh.read()).to_dgl()
    cx = QuotientComplex(P, 7, (0, 2))
    assert sorted(cx.matrices) == [0, 1, 2, 3]
    entries = [c for m in cx.matrices.values() for c in m.entries.values()]
    assert entries and all(type(c) is int for c in entries)


# -- one matrix of d per (q, n): the presentation's cache against fresh builds

def is_lyndon(word):
    """Strictly smaller than each proper suffix, in generator-index order."""
    return all(word < word[i:] for i in range(1, len(word)))


def lyndon_bracketing(gens, word, memo):
    """Standard bracketing P_w = [P_u, P_v] of a Lyndon tuple word, v its
    longest proper Lyndon suffix, with sub-bracketings memoized per call."""
    got = memo.get(word)
    if got is None:
        if len(word) == 1:
            got = TensorElt(gens, {word: 1})
        else:
            cut = next(i for i in range(1, len(word)) if is_lyndon(word[i:]))
            got = freelie.graded_bracket(lyndon_bracketing(gens, word[:cut], memo),
                                         lyndon_bracketing(gens, word[cut:], memo))
        memo[word] = got
    return got


def bracketings(gens, length, degree):
    """(pivot word, terms) of the standard bracketings P_w of the Lyndon
    words w of a piece and of the products P_u P_u for the odd-degree
    Lyndon words u of half its length and degree, sorted by pivot word:
    the enumeration of every word of the piece, tested one by one, that
    `freelie.LiePiece` replaced, with tuple words."""
    memo = {}
    words = words_of(gens, length, degree)
    out = [(w, lyndon_bracketing(gens, w, memo)) for w in words if is_lyndon(w)]
    half = degree // 2
    if length % 2 == 0 and degree % 2 == 0 and half % 2:
        for u in words_of(gens, length // 2, half):
            if is_lyndon(u):
                pu = lyndon_bracketing(gens, u, memo)
                out.append((u + u, pu.concat(pu)))
    return sorted(((w, {v: int(c) for v, c in p.terms.items()}) for w, p in out), key=lambda form: form[0])


def decoded(forms):
    """Held forms with tuple words, terms in their held order."""
    return [(decode_word(p), {decode_word(w): c for w, c in terms.items()}) for p, terms in forms]


def rref_basis(gens, q, n):
    """The reduced echelon basis of the degree-q slice of L/L^n, shortest
    length first, as `TensorElt`s: `IntEchelon.rref` of each piece's
    `bracketings` over its words."""
    basis = []
    for k in range(1, n) if q >= 0 else ():
        words = words_of(gens, k, q)
        index = {w: i for i, w in enumerate(words)}
        ech = IntEchelon()
        for _, vec in bracketings(gens, k, q):
            ech.insert({index[w]: c for w, c in vec.items()})
        basis += [TensorElt(gens, {words[i]: c for i, c in row.items()}) for row in ech.rref()]
    return basis


def uncached_d_matrix(P, q, n_src, n_tgt, exact):
    """(entries, denominator, rows, columns) of d on the reduced echelon
    bases of `rref_basis`, with no cache: each column is the Fraction
    derivation of a source element (untruncated when exact, else cut to
    L/L^n_tgt), read at the target's pivot words and checked to be that
    combination of the target basis, and scaled by the common denominator
    of d on the generators."""
    src, tgt = rref_basis(P.gens, q, n_src), rref_basis(P.gens, q - 1, n_tgt)
    den = math.lcm(*(c.denominator for v in P.diff.values() for c in v.terms.values()))
    pivots = [min(b.terms) for b in tgt]
    entries = {}
    for j, b in enumerate(src):
        img = TensorElt(P.gens, fraction_derivation(P, b))
        if not exact:
            img = img.truncate_length(n_tgt)
        col = {i: img.terms[p] for i, p in enumerate(pivots) if p in img.terms}
        recon = {}
        for i, c in col.items():
            for w, t in tgt[i].terms.items():
                recon[w] = recon.get(w, 0) + c * t
        assert {w: c for w, c in recon.items() if c} == img.terms
        for i, c in col.items():
            assert (c * den).denominator == 1
            entries[(i, j)] = int(c * den)
    return entries, den, len(tgt), len(src)


def cache_presentations():
    """The stubborn cycle, a presentation with rational d, and seeded
    members of the stubborn cycle's family (d z raises length by 2)."""
    gen = perfbench_gen()
    with open(os.path.join(FILES, "stubborn_cycle.dgl")) as fh:
        yield cli.parse(fh.read()).to_dgl()
    yield DglPresentation.from_strings(
        [("x", 0), ("y", 0), ("z", 1), ("t", 1)], {"z": "1/2*x - [y, x]", "t": "2/3*[x, y]"}
    )
    for seed in (0, 1):
        yield cli.parse(gen.seeded_dgl(seed)).to_dgl()


def test_cached_d_matrices_match_uncached_builds():
    from lietower.dgl import Truncation, boundary_solve, h0_table_bounded_window, top_length_obstruction

    blocks = exact = rational = 0
    for P in cache_presentations():
        for q in (1, 2):
            homology_tower(P, q, range(2, 6))
        x = freelie.parse_element(P.gens, "x")
        for exact_in_l in (False, True):
            boundary_solve(P, x, Truncation(5), exact_in_l=exact_in_l)
        if P.max_shift() <= 1:
            top_length_obstruction(P, 1, range(1, 5))
        h0_table_bounded_window(P, 2, 4)
        FiniteDgl.from_presentation(P, 4, 2)
        for (q, n_src, n_tgt), dm in P._matrix_cache.items():
            got = (dm.matrix.entries, dm.den, dm.matrix.rows, dm.matrix.cols)
            assert all(type(c) is int for c in dm.matrix.entries.values())
            assert got == uncached_d_matrix(P, q, n_src, n_tgt, False), (P, q, n_src, n_tgt)
            if n_tgt >= n_src + P.max_shift():
                assert got == uncached_d_matrix(P, q, n_src, n_tgt, True), (P, q, n_src, n_tgt)
                exact += 1
            blocks += 1
            rational += dm.den > 1
    assert blocks >= 30 and exact >= 8 and rational >= 8


def test_d_matrices_match_the_rref_path_on_the_stubborn_cycle():
    with open(os.path.join(FILES, "stubborn_cycle.dgl")) as fh:
        P = cli.parse(fh.read()).to_dgl()
    for n in (3, 5, 7, 9):
        for q in (1, 2):
            dm = P.d_matrix(q, n, n)
            got = (dm.matrix.entries, dm.den, dm.matrix.rows, dm.matrix.cols)
            assert got == uncached_d_matrix(P, q, n, n, False), (q, n)
    assert dm.matrix.rows == 255 and dm.matrix.cols == 392
    dm = P.d_matrix(2, 7, 8)
    got = (dm.matrix.entries, dm.den, dm.matrix.rows, dm.matrix.cols)
    assert got == uncached_d_matrix(P, 2, 7, 8, True)


def test_repeated_solves_read_the_cached_matrices(monkeypatch):
    """A repeated call derives and reads no column of d again: the only
    derivations are the d-cycle test and the witness check of each boundary
    solve, on the str words of the target and the witness, and the only
    coordinates read are the target's, once per boundary solve."""
    from lietower import dgl
    from lietower.dgl import Truncation, boundary_solve, top_length_obstruction, witness_direction_space

    P = remark()
    targets = [freelie.parse_element(P.gens, t) for t in ("x", "x - [y, x]", "[x, [x, y]]")]

    def calls(t):
        report = top_length_obstruction(P, 1, range(1, 6))
        res, kernel, src = witness_direction_space(P, t, Truncation(6))
        return (
            boundary_solve(P, t, Truncation(6)).to_structured(),
            boundary_solve(P, t, Truncation(6), exact_in_l=True).to_structured(),
            res.to_structured(), kernel, src,
            report.to_structured(), report.kernel_witness, report.excludes(t),
        )

    def int_terms(u):
        return {encode_word(w): c for w, c in _clear_denominators(u.terms)[1].items()}

    def primitive(terms):
        g = math.gcd(*terms.values())
        return {w: c // g for w, c in terms.items()}

    first = [calls(t) for t in targets]
    cached = {key: (dm, dm.reduction()) for key, dm in P._matrix_cache.items()}
    derived, read = [], []
    derive, int_coords = dgl._derive_int, DegreeSlice.int_coords
    monkeypatch.setattr(dgl, "_derive_int", lambda P, terms: derived.append(primitive(terms)) or derive(P, terms))
    monkeypatch.setattr(DegreeSlice, "int_coords",
                        lambda self, terms, strict=False: read.append(terms) or int_coords(self, terms, strict))
    again = [calls(t) for t in targets]
    assert again == first
    assert read == [int_terms(t) for t in targets for _ in range(4)]
    monkeypatch.undo()
    # per target: the solve of witness_direction_space, then the truncated
    # and the exact solve
    want = []
    for t in targets:
        for exact in (False, False, True):
            res = boundary_solve(P, t, Truncation(6), exact_in_l=exact)
            want += [primitive(int_terms(u)) for u in (t, res.witness) if u is not None]
    assert derived == want and len(want) > len(targets) * 3
    assert {key: (dm, dm.reduction()) for key, dm in P._matrix_cache.items()} == cached
    assert {s for _, _, _, _, s, *_ in again} == {P.slice(1, 6)}


def test_cached_column_reduction_solves_like_solve_affine():
    rng = random.Random(35)
    systems = unsat = 0
    for trial in range(60):
        m = random_matrix(rng, rational=trial % 2 == 1)
        reduced = ColumnReduction(m.rows, m.columns())
        for _ in range(5):
            if rng.random() < 0.5 or not m.rows:
                b = m.apply({j: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for j in range(m.cols)})
            else:
                b = random_rows(rng, 1, m.rows, rational=True)[0]
            got, want = reduced.solve(b), fraction_solve_affine(m, b)
            assert got == solve_affine(m, b), trial
            assert reduced.particular(b) == (got and got[0]), trial
            systems += 1
            if want is None:
                assert got is None, trial
                unsat += 1
                continue
            assert got[0] == want[0] and got[1].basis == want[1], trial
            assert got[1] is reduced.kernel()
        # the kernel dimension a boundary solve reports, with no kernel built
        assert reduced.cols - reduced.rank == len(reduced.echelon.relations) == reduced.kernel().dim, trial
    assert systems == 300 and unsat > 40


def test_cold_boundary_solves_build_no_kernel(monkeypatch):
    """A cold boundary solve reports its kernel dimension as columns minus
    rank and builds no `Subspace`; `witness_direction_space` still builds
    the kernel, the one of the relations of the kept reduction."""
    from lietower.dgl import Truncation, boundary_solve, witness_direction_space

    built = []
    init = Subspace.__init__
    monkeypatch.setattr(Subspace, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    with open(os.path.join(FILES, "stubborn_cycle.dgl")) as fh:
        P = cli.parse(fh.read()).to_dgl()
    t = freelie.parse_element(P.gens, "[x, x - [y, x]]")
    results = [boundary_solve(P, t, Truncation(8), exact_in_l=exact) for exact in (False, True)]
    assert built == [] and [r.status for r in results] == ["SAT", "SAT"]
    for exact, res in zip((False, True), results):
        red = P.d_matrix(1, 8, 8 + exact).reduction()
        assert red._kernel is None and res.kernel_dim == red.cols - red.rank > 0
    _, kernel, _ = witness_direction_space(P, t, Truncation(8))
    red = P.d_matrix(1, 8, 8).reduction()
    assert len(built) == 1 and kernel is red.kernel()
    assert kernel == Subspace(red.cols, red.echelon.relations) and kernel.dim == results[0].kernel_dim


# -- boundary requests in the target's bracketing coordinates ---------------

def echelon_matrix(dm):
    """T_tgt * B * S_src as the boundary path formed it before it reduced
    B * S_src: T applied to each column of B, then back-substitution over
    the source's T."""
    src, tgt = dm._slices
    cols = [tgt.echelon_coords(col) for col in dm.columns]
    src._expand(range(1, src.n))
    for m in reversed(range(len(cols))):
        offset, lower = src._lower[m]
        for k, t in lower.items():
            for i, c in cols[offset + k].items():
                cols[m][i] = cols[m].get(i, 0) - t * c
        cols[m] = {i: c for i, c in cols[m].items() if c}
    return SparseMatrix.from_columns(tgt.dim, cols)


def echelon_boundary_solve(P, t, n, exact):
    """`boundary_solve` on the reduction of the echelon matrix, with the
    target's echelon coordinates (its coefficients at the pivot words) as
    right-hand side."""
    q = t.homogeneous_degree()
    dm = P.d_matrix(q + 1, n, n + P.max_shift() if exact else n)
    src, tgt = dm._slices
    matrix = echelon_matrix(dm)
    red = ColumnReduction(matrix.rows, matrix.columns())
    particular = red.particular(tgt.coords(t, strict=exact))
    where = "L" if exact else f"L/L^{n}"
    if particular is None:
        return dgl.BoundaryResult("UNSAT-within-bound", None, n,
                                  f"no witness of word length < {n} solves d(u) = target in {where}")
    witness = src.element_from_coords({j: c * dm.den for j, c in particular.items()})
    return dgl.BoundaryResult("SAT", witness, n, f"verified in {where}", red.cols - red.rank)


def echelon_obstruction(P, degree, lengths):
    """(injective, kernel witnesses, excludes) of `top_length_obstruction`
    read off the echelon matrix: its raising blocks, and its column space
    tested against the target's echelon coordinates."""
    bound = max(lengths)
    dm = P.d_matrix(degree, bound + 1, bound + 1 + max(P.max_shift(), 1))
    src, out = dm._slices
    matrix = echelon_matrix(dm)
    cols = matrix.columns()
    injective, kernels = {}, {}
    for l in lengths:
        first, stop = src.count_below(l), src.count_below(l + 1)
        lo, hi = out.count_below(l + 1), out.count_below(l + 2)
        raising = [{i: c for i, c in col.items() if lo <= i < hi} for col in cols[first:stop]]
        reduced = ColumnReduction(out.dim, raising)
        injective[l] = reduced.rank == stop - first
        if not injective[l]:
            kernels[l] = src.element_from_coords({first + i: c for i, c in reduced.kernel().basis[0].items()})
    boundaries = ColumnReduction(out.dim, cols).echelon
    return injective, kernels, lambda t: not boundaries.contains(out.coords(t, strict=True))


def bracketing_oracle_cases():
    """(P, targets, n, obstruction degree) for the stubborn cycle with the
    sweep targets of seeds 0-2 (all three classes) at n = 6 and 8, and for
    the random presentations of test_dgl.py with d-cycles of one degree:
    images of generators, closed generators and their brackets, and sums."""
    from test_dgl import random_degree01_presentation, random_positive_presentation

    gen = perfbench_gen()
    with open(os.path.join(FILES, "stubborn_cycle.dgl")) as fh:
        text = fh.read()
    for seed, n in ((0, 8), (1, 6), (2, 8)):
        P = cli.parse(text).to_dgl()
        yield P, [freelie.parse_element(P.gens, t) for t in gen.sweep_targets(seed, 12)], n, 1
    # the boundaries of d z = [x, y] in length 3 are the ideal of [x, y]:
    # [[x, y], w] has echelon coordinates (1, 0) at the pivot words xyw, xwy
    # and bracketing coordinates (1, 1), so membership read in the wrong
    # coordinates gives the wrong answer
    P = DglPresentation.from_strings([("x", 0), ("y", 0), ("w", 0), ("z", 1)], {"z": "[x, y]"})
    yield P, [freelie.parse_element(P.gens, t) for t in ("[[x, y], w]", "[x, [y, w]]", "[[x, w], y]",
                                                          "[x, y] + [[x, y], w]", "[w, [w, [x, y]]]")], 5, 1
    rng = random.Random(41)
    for k in range(16):
        P = (random_degree01_presentation if k % 2 else random_positive_presentation)(rng)[0]
        names, degrees = P.gens.names, P.gens.degrees
        closed = [g for g in names if g not in P.diff]
        cycles = [extend_derivation(P, freelie.parse_element(P.gens, g)) for g in P.diff]
        cycles += [freelie.parse_element(P.gens, g) for g in closed]
        cycles += [freelie.parse_element(P.gens, f"[{a}, {b}]") for a in closed for b in closed if a <= b]
        cycles = [c for c in cycles if not c.is_zero()]
        cycles += [a + c for a in cycles for c in cycles[:3] if a.degrees() == c.degrees() and a != c]
        by_degree = {}
        for c in cycles:
            by_degree.setdefault(c.homogeneous_degree(), []).append(c)
        for q, targets in sorted(by_degree.items()):
            if q <= max(degrees):
                yield P, targets[:6], 5, q + 1


def test_boundary_requests_in_bracketing_coordinates_match_the_echelon_path():
    """Truncated and exact solves, their witnesses, and the top-length
    report, its kernel witnesses and `excludes`, reduced over B * S_src
    with the target's bracketing coordinates, against the reduction of the
    echelon matrix T * B * S with its echelon coordinates."""
    from lietower.dgl import Truncation, UnsupportedModeError, boundary_solve, top_length_obstruction

    outcomes, reports, excluded = set(), 0, set()
    for P, targets, n, degree in bracketing_oracle_cases():
        lengths = range(1, n)
        try:
            report = top_length_obstruction(P, degree, lengths)
        except UnsupportedModeError:
            report = None
        else:
            injective, kernels, excludes = echelon_obstruction(P, degree, lengths)
            assert report.injective == injective, P.diff
            assert report.to_structured()["injective"] == {str(l): v for l, v in injective.items()}
            assert report.kernel_witness == kernels, P.diff
            reports += 1
        for t in targets:
            for exact in (False, True):
                got = boundary_solve(P, t, Truncation(n), exact_in_l=exact)
                want = echelon_boundary_solve(P, t, n, exact)
                assert got.to_structured() == want.to_structured(), (P.diff, t.pretty(), exact)
                assert got.witness == want.witness
                outcomes.add((exact, got.status))
            if report is not None:
                assert report.excludes(t) == excludes(t), (P.diff, t.pretty())
                excluded.add(report.excludes(t))
    assert outcomes == {(e, s) for e in (False, True) for s in ("SAT", "UNSAT-within-bound")}
    assert reports > 5 and excluded == {True, False}


def test_extended_reduction_matches_a_direct_pass():
    """`ColumnReduction.extend` from the reduction of a random leading block
    of rows against a direct pass over all of them, on integer and rational
    matrices: rank, pivot rows and columns, kernel, the tracked invariant of
    every row and relation, and the particular solution of solvable and
    unsolvable right-hand sides."""
    rng = random.Random(42)
    solvable = unsolvable = grown = 0
    for trial in range(400):
        m = random_matrix(rng, rational=trial % 2 == 1)
        top = rng.randint(0, m.rows)
        cols = m.columns()
        kept = ColumnReduction(top, [{i: c for i, c in col.items() if i < top} for col in cols])
        got, want = ColumnReduction.extend(kept, m.rows, cols), ColumnReduction(m.rows, cols)
        own = lambda red: sorted(max(e) for e in red.echelon.relations)
        assert (got.rows, got.cols, got.rank) == (want.rows, want.cols, want.rank), trial
        assert sorted(got.echelon.rows) == sorted(want.echelon.rows), trial
        assert own(got) == own(want), trial
        assert got.kernel() == want.kernel(), trial
        assert got.echelon.inputs == m.cols
        grown += got.rank > kept.rank
        for p, row in got.echelon.rows.items():
            combo = got.echelon.combos[p]
            assert {i: Fraction(c) for i, c in row.items()} == m.apply(combo), trial
            assert row[p] > 0 and min(row) == p and all(max(e) not in combo for e in got.echelon.relations)
        for relation in got.echelon.relations:
            assert m.apply(relation) == {}, trial
        for _ in range(3):
            x = {j: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for j in range(m.cols)}
            for b in (m.apply(x), random_rows(rng, 1, m.rows, rational=True)[0] if m.rows else {}):
                particular = got.particular(b)
                assert particular == want.particular(b), trial
                if particular is None:
                    unsolvable += 1
                else:
                    solvable += 1
                    assert m.apply(particular) == {i: Fraction(c) for i, c in b.items() if c}
    assert solvable > 500 and unsolvable > 100 and grown > 100


def test_cold_boundary_requests_stay_in_bracketing_coordinates(monkeypatch):
    """A cold truncated solve, exact solve and top-length request (and the
    truncated solve then the top-length request, as `boundary
    --certify-lengths` runs them) never form the echelon matrix, expand no
    target piece but those of the target's and the generator images' word
    lengths, and build the reduction of the taller matrix by extending the
    truncated solve's, with no direct pass over its columns."""
    from lietower.dgl import Truncation, boundary_solve, top_length_obstruction

    direct, extended = [], []
    init, extend = ColumnReduction.__init__, ColumnReduction.extend
    monkeypatch.setattr(ColumnReduction, "__init__",
                        lambda self, rows, cols: direct.append(rows) or init(self, rows, cols))
    monkeypatch.setattr(ColumnReduction, "extend", classmethod(
        lambda cls, kept, rows, cols: extended.append((kept.rows, rows)) or extend(kept, rows, cols)))
    gen = perfbench_gen()
    with open(os.path.join(FILES, "stubborn_cycle.dgl")) as fh:
        text = fh.read()
    cases = 0
    for n in (6, 8, 10):
        for expr in gen.sweep_targets(n, 3) + ["[x, x - [y, x]]"]:
            for with_exact in (True, False):
                P = cli.parse(text).to_dgl()
                t = freelie.parse_element(P.gens, expr)
                del direct[:], extended[:]
                boundary_solve(P, t, Truncation(n))
                if with_exact:
                    boundary_solve(P, t, Truncation(n), exact_in_l=True)
                top_length_obstruction(P, 1, range(1, n)).excludes(t)
                assert all(dm._matrix is None for dm in P._matrix_cache.values())
                short, tall = P.slice(0, n).dim, P.slice(0, n + 1).dim
                assert direct == [short] and extended == [(short, tall)], (n, expr)
                allowed = set(map(len, t.terms)) | {len(w) for v in P.diff.values() for w in v.terms}
                for sl in (P.slice(0, n), P.slice(0, n + 1)):
                    built = {k for k in range(1, sl.n) if lie_dim(P.gens, k, 0)} - sl._pending
                    assert built <= allowed, (n, expr, built)
                cases += 1
    assert cases == 24


def test_verdict_outcome_check_survives_optimized_mode():
    done = run_optimized(
        """
        from lietower.pronil import Verdict
        try:
            Verdict("maybe", 3, "no such outcome")
        except AssertionError as err:
            print("verdict:", err)
        """
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "verdict: unknown verdict outcome 'maybe'\n"


# -- functors: the one Koszul sign rule against the crossing counters it replaced


def crossing_shuffle(A, u, v):
    """Shuffle product counting, for each u-letter, the odd v-letters it crosses."""
    out = {}
    n, m = len(u), len(v)
    for positions in itertools.combinations(range(n + m), n):
        word, ui, vi, sign, v_seen = [], 0, 0, 1, []
        for p in range(n + m):
            if p in positions:
                letter = u[ui]
                ui += 1
                if (A.degrees[letter] - 1) % 2 and sum(1 for d in v_seen if d % 2) % 2:
                    sign = -sign
            else:
                letter = v[vi]
                vi += 1
                v_seen.append(A.degrees[letter] - 1)
            word.append(letter)
        out[tuple(word)] = out.get(tuple(word), 0) + sign
    return {k: c for k, c in out.items() if c}


def crossing_unshuffle(degrees, m):
    """Unshuffle counting, for each letter sent right, the later odd letters sent left."""
    out = {}
    for mask in range(1 << len(m)):
        left, right, sign = [], [], 1
        for i in range(len(m)):
            if mask & (1 << i):
                left.append(m[i])
            else:
                for j in range(i + 1, len(m)):
                    if mask & (1 << j) and degrees[m[i]] % 2 and degrees[m[j]] % 2:
                        sign = -sign
                right.append(m[i])
        lkey, ls = normalize_monomial(degrees, left)
        rkey, rs = normalize_monomial(degrees, right)
        if lkey is not None and rkey is not None:
            out[(lkey, rkey)] = out.get((lkey, rkey), 0) + sign * ls * rs
    return {k: c for k, c in out.items() if c}


def crossing_ce_delta(L, sus_degrees, m):
    """Chain-coalgebra differential with prefix parities counted slot by slot."""
    out = {}

    def add(word, coeff):
        mono, sign = normalize_monomial(sus_degrees, word)
        if mono is not None:
            out[mono] = out.get(mono, 0) + sign * coeff

    for i in range(len(m)):
        prefix = sum(sus_degrees[g] for g in m[:i])
        for j, c in L.d.get(m[i], {}).items():
            add(m[:i] + (j,) + m[i + 1 :], -c * (-1 if prefix % 2 else 1))
    for i in range(len(m)):
        for j in range(i + 1, len(m)):
            front = sum(sus_degrees[g] for g in m[:i])
            between = front + sum(sus_degrees[g] for g in m[i + 1 : j])
            sign = (-1 if (sus_degrees[m[i]] * front) % 2 else 1) * (
                -1 if (sus_degrees[m[j]] * between) % 2 else 1
            )
            if L.table.degrees[m[i]] % 2:
                sign = -sign
            for k, c in L.table.bracket_basis(m[i], m[j]).items():
                add((k,) + m[:i] + m[i + 1 : j] + m[j + 1 :], sign * c)
    return {k: c for k, c in out.items() if c}


def test_shuffle_and_unshuffle_match_crossing_counts():
    rng = random.Random(31)
    checked = 0
    for _ in range(30):
        degrees = [rng.randint(1, 4) for _ in range(rng.randint(2, 5))]
        A = CdgaTable([f"a{i}" for i in range(len(degrees))], degrees, {}, {})
        for _ in range(10):
            u = tuple(rng.randrange(len(degrees)) for _ in range(rng.randint(0, 3)))
            v = tuple(rng.randrange(len(degrees)) for _ in range(rng.randint(0, 3)))
            assert shuffle(A, u, v) == crossing_shuffle(A, u, v), (degrees, u, v)
        for m in monomials_up_to(tuple(degrees), 8):
            assert _unshuffle(tuple(degrees), m) == crossing_unshuffle(degrees, m), (degrees, m)
            checked += 1
    assert checked > 500


def test_ce_delta_matches_crossing_counts():
    rng = random.Random(32)
    mixed = 0
    for _ in range(8):
        L = FiniteDgl.from_presentation(random_presentation(rng), 3, 2)
        sus = tuple(d + 1 for d in L.table.degrees)
        for m in monomials_up_to(sus, 5):
            if sum(L.table.degrees[g] for g in m) > 2:
                continue  # brackets beyond the table's degrees are unknown
            assert _ce_delta(L, sus, m) == crossing_ce_delta(L, sus, m), m
            mixed += len({sus[g] % 2 for g in m}) == 2
    assert mixed > 50


def poly_mul(degrees, p, q):
    out = {}
    for a, ca in p.items():
        for b, cb in q.items():
            mono, sign = normalize_monomial(degrees, a + b)
            if mono is not None:
                out[mono] = out.get(mono, 0) + sign * ca * cb
    return {k: c for k, c in out.items() if c}


def poly_add(p, q, f=1):
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, 0) + f * c
    return {k: c for k, c in out.items() if c}


def test_window_derivation_is_leibniz_on_seeded_mixed_parity_algebras():
    """d(ab) = d(a) b + (-1)^{|a|} a d(b) on every product inside the window."""
    rng = random.Random(33)
    products = 0
    for _ in range(12):
        degrees = tuple(sorted(rng.choice((1, 1, 2, 2, 3)) for _ in range(rng.randint(3, 5))))
        d_gen = []
        for deg in degrees:
            targets = [m for m in monomials_up_to(degrees, deg + 1) if len(m) >= 2 and
                       sum(degrees[g] for g in m) == deg + 1]
            picked = rng.sample(targets, min(len(targets), rng.randint(0, 2)))
            d_gen.append({m: Fraction(rng.choice((-2, -1, 1, 3))) for m in picked})
        W = FreeCdgaWindow(degrees, d_gen, 6)
        for i, a in enumerate(W.monos):
            for j, b in enumerate(W.monos):
                got = W.product(i, j)
                if got is None:
                    continue
                k, sign = got
                lhs = {m: sign * c for m, c in W.d_of_monomial(W.monos[k]).items()}
                rhs = poly_add(
                    poly_mul(degrees, W.d_of_monomial(a), {b: 1}),
                    poly_mul(degrees, {a: 1}, W.d_of_monomial(b)),
                    -1 if W.degrees[i] % 2 else 1,
                )
                assert lhs == rhs, (degrees, d_gen, a, b)
                products += 1
    assert products > 500


def product_bar_words(A, q_max, n_max):
    """Every word of every length q <= q_max over the letters, kept when its
    bar degree is within n_max: the enumeration `LieCoalgebraTrunc`
    replaced."""
    letters = [i for i in range(A.dim) if A.degrees[i] - 1 <= n_max]
    words = {}
    for q in range(1, q_max + 1):
        for w in itertools.product(letters, repeat=q):
            n = sum(A.degrees[i] - 1 for i in w)
            if n <= n_max:
                words.setdefault((q, n), []).append(w)
    for ws in words.values():
        ws.sort()
    return words


@pytest.mark.parametrize("name", ["even_line", "even_sphere", "heisenberg"])
def test_bar_words_within_budget_match_product_and_filter(name):
    from lietower.functors import bar_lie_coalgebra_E

    with open(os.path.join(FILES, f"{name}.sullivan")) as fh:
        S = cli.parse(fh.read()).to_sullivan()
    for q_max, n_max in ((4, 6), (3, 8), (4, 14)):
        E = bar_lie_coalgebra_E(S, q_max, n_max)
        want = product_bar_words(E.A, q_max, n_max)
        assert E.words == want and list(E.words) == list(want), (q_max, n_max)


# -- functors: the bar quotient and the duality check against the paths they replaced


class CandidateQuotient:
    """span(sub + candidates) / span(sub), represented by the candidates that
    stay independent modulo span(sub), in order: each candidate is inserted
    after sub, and `coords` reads a vector over the kept candidates through
    one tracked echelon of the sub rows and then the kept candidates."""

    def __init__(self, sub, candidates):
        ech = IntEchelon()
        for v in sub:
            ech.insert(v)
        sub_rows = list(ech.rows.values())
        self.kept = [i for i, v in enumerate(candidates) if ech.insert(v) is not None]
        self.tracked = IntEchelon(track=True)
        for v in sub_rows + [candidates[i] for i in self.kept]:
            self.tracked.insert(v)
        self.offset = len(sub_rows)

    def coords(self, vec):
        got = self.tracked.express(vec)
        assert got is not None, "vector escapes the quotient span"
        return {i - self.offset: c for i, c in got.items() if i >= self.offset}


class OrderedPairQuotient(LieCoalgebraTrunc):
    """The bar quotient as it was built before: every ordered pair of words
    shuffled with Fraction entries, the classes picked from the unit vectors
    in word order by `CandidateQuotient`, and class coordinates read through
    its tracked echelon.  The differential, the cobracket and the pairings
    are `LieCoalgebraTrunc`'s."""

    def __init__(self, A, q_max, n_max):
        self.A, self.q_max, self.n_max = A, q_max, n_max
        self.words = product_bar_words(A, q_max, n_max)
        self.windex = {key: {w: i for i, w in enumerate(ws)} for key, ws in self.words.items()}
        self.reducer = {}
        for (q, n), ws in self.words.items():
            shuffles = [
                {self.windex[(q, n)][w]: Fraction(c) for w, c in shuffle(A, w1, w2).items()}
                for q1 in range(1, q)
                for n1 in range(0, n + 1)
                for w1 in self.words.get((q1, n1), [])
                for w2 in self.words.get((q - q1, n - n1), [])
            ]
            self.reducer[(q, n)] = CandidateQuotient([v for v in shuffles if v], [{i: 1} for i in range(len(ws))])
        self.basis = {key: red.kept for key, red in self.reducer.items()}

    def class_coords(self, q, n, vec):
        if not vec:
            return {}
        return self.reducer[(q, n)].coords({self.windex[(q, n)][w]: c for w, c in vec.items()})


def d_image_differentials_match(E, model, pairings):
    """The block identities with the left side paired through `d_image`."""
    for q, n in pairings:
        for (q2, n2), mat in E.differential_matrix(q, n).items():
            target = pairings.get((q2, n2))
            if target is None:
                if not mat.is_zero():
                    return False
                continue
            lhs = functors._pairing(E, [d_image(model, u) for u in lie_basis(model.gens, q2, n2)], q, n)
            sign = -1 if n2 % 2 else 1
            if lhs.entries != {key: sign * c for key, c in target.compose(mat).entries.items()}:
                return False
    return True


DUALITY_ALGEBRAS = {
    "s3_times_s3": ([("a", 3), ("b", 3)], {}),
    "s1_times_s2": ([("x", 1), ("e2", 2), ("e3", 3)], {"e3": "e2 * e2"}),
    "cp2": ([("x", 2), ("y", 5)], {"y": "x * x * x"}),
    "s3_times_s5": ([("a", 3), ("b", 5)], {}),
    "s1_s1_s3": ([("x", 1), ("y", 1), ("z", 3)], {}),
    "s2_times_s2": ([("x", 2), ("y", 3), ("u", 2), ("v", 3)], {"y": "x * x", "v": "u * u"}),
    "filiform": ([("x", 1), ("y", 1), ("z", 1), ("t", 1)], {"z": "x * y", "t": "x * z"}),
}


def duality_algebra(name):
    if name in DUALITY_ALGEBRAS:
        return functors.SullivanAlgebra.from_strings(*DUALITY_ALGEBRAS[name])
    with open(os.path.join(FILES, f"{name}.sullivan")) as fh:
        return cli.parse(fh.read()).to_sullivan()


@pytest.mark.parametrize("window", [(6, 4), (8, 3)], ids=["6-4", "8-3"])
@pytest.mark.parametrize("name", ["even_line", "even_sphere", "heisenberg", *DUALITY_ALGEBRAS])
def test_duality_matches_the_ordered_pair_quotient_and_d_image(monkeypatch, name, window):
    n_window, q_max = window
    S = duality_algebra(name)
    E = functors.bar_lie_coalgebra_E(S, q_max, n_window)
    ref = OrderedPairQuotient(E.A, q_max, n_window)
    assert E.words == ref.words and E.basis == ref.basis
    for key in E.words:
        assert E.dim(*key) == ref.dim(*key) and E.rep_words(*key) == ref.rep_words(*key), key
        for w in E.rep_words(*key):
            by_key = {}
            for ww, c in functors.bar_differential(E.A, {w: Fraction(1)}).items():
                by_key.setdefault((len(ww), functors._bar_degree(E.A, ww)), {})[ww] = c
            for img_key, vec in by_key.items():
                if img_key in E.words:
                    assert E.class_coords(*img_key, vec) == ref.class_coords(*img_key, vec), (key, w)

    model = functors.neisendorfer_model(S, n_window + 1)
    pairings = functors._pairing_matrices(E, model, q_max, n_window)
    blocks = 0
    for q, n in pairings:
        for q2, n2 in E.differential_matrix(q, n):
            if (q2, n2) in pairings:
                want = functors._pairing(E, [d_image(model, u) for u in lie_basis(model.gens, q2, n2)], q, n)
                got = functors._lie_side(functors._length_blocks(model, q_max + 1, n2), pairings[(q, n)], q, q2)
                assert (got.rows, got.cols, got.entries) == (want.rows, want.cols, want.entries), (q, n, q2, n2)
                blocks += 1

    report = functors.duality_check(S, n_window, q_max).to_structured()
    monkeypatch.setattr(functors, "bar_lie_coalgebra_E", lambda *args: ref)
    monkeypatch.setattr(functors, "_differentials_match", d_image_differentials_match)
    assert report == functors.duality_check(S, n_window, q_max).to_structured()
    assert blocks or report["detail"].startswith("dimension")


@pytest.mark.parametrize("name", ["even_line", "even_sphere", "heisenberg"])
def test_shuffle_is_graded_commutative_on_bar_degrees(name):
    """u ш v = (-1)^{|u||v|} v ш u on bar degrees: the reason the bar
    quotient shuffles each unordered pair of words once."""
    A = functors.bar_lie_coalgebra_E(duality_algebra(name), 4, 8).A
    rng = random.Random(34)
    signs = set()
    for _ in range(300):
        u = tuple(rng.randrange(A.dim) for _ in range(rng.randint(1, 3)))
        v = tuple(rng.randrange(A.dim) for _ in range(rng.randint(1, 3)))
        sign = -1 if functors._bar_degree(A, u) * functors._bar_degree(A, v) % 2 else 1
        assert shuffle(A, u, v) == {w: sign * c for w, c in shuffle(A, v, u).items()}, (u, v)
        signs.add(sign)
    assert -1 in signs
