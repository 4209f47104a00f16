"""Fuzzing the input contract: whatever a `.dgl`, `.sullivan` or `.lietable`
file holds, every command exits 0, 2, 3 or 4 and never ends in a traceback.

`validate` gets arbitrary text, arbitrary bytes, and shipped files with a
few short spans replaced by text over the input syntax's own characters,
which reach past the header into the section parsers and the validators.
Every other command gets the shipped files of its kind, as they are or
mutated in the same way, with its options drawn at small bounds.

`freelie.solve_unitriangular`, which applies S = T^-1 for the unitriangular
T of each free-Lie piece, gets random block-diagonal unit lower-triangular
integer matrices and is checked against T itself and a Fraction inverse.

`dgl._bracket_coords`, which rewrites a bracket of two basis elements in
the Lyndon basis from their pivot words and degrees alone, gets pairs of Lyndon bracketings and odd squares over random graded
alphabets, in both orders, with [u, uu] for odd u among them, and is
checked against the bracket expanded into words and read back by
`int_coords`, the path it replaced; a deterministic sweep over small graded
alphabets does the same for every pair up to total length 6 and counts
which of the rewrite's seven cases each call takes.

`pronil.FiniteLieData` gets random degree-consistent bracket tables, some
with conflicting flips, and must refuse exactly those and keep graded
antisymmetry on every other, since `validate` has no pass of its own for it.

`freelie.eval_bracket_expr`, which evaluates a parsed expression on int
terms with str words over one denominator, gets random expressions of
bracket depth <= 4 with rational coefficients over random graded alphabets
with an odd letter, with inhomogeneous operands and brackets that cancel by
bilinearity, and is checked against `TensorElt` arithmetic with
`graded_bracket`.  `exprs.parse_lie` gets such expressions with scalars
among their atoms, and text over the input syntax, and must raise
`ParseError` or keep no bare scalar in any bracket.
"""

import glob
import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lietower import cli, dgl, exprs, freelie, pronil  # noqa: E402

FILES = os.path.join(os.path.dirname(__file__), "..", "demos", "files")
SUFFIXES = (".dgl", ".sullivan", ".lietable")
SHIPPED = {
    suffix: [Path(path).read_text(encoding="utf-8") for path in sorted(glob.glob(f"{FILES}/*{suffix}"))]
    for suffix in SUFFIXES
}
SYNTAX = "[](),:=*+-/^ \n#0123456789abcdxyzuvwdVkind"
TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=200)


def mutate(draw, text: str, spans: int) -> str:
    """text with `spans` short spans replaced by text over SYNTAX."""
    for _ in range(spans):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        text = text[:i] + draw(st.text(alphabet=SYNTAX, max_size=8)) + text[j:]
    return text


@st.composite
def inputs(draw) -> tuple[str, bytes]:
    suffix = draw(st.sampled_from(SUFFIXES))
    kind = draw(st.sampled_from(("text", "bytes", "mutant")))
    if kind == "text":
        return suffix, draw(TEXT).encode()
    if kind == "bytes":
        return suffix, draw(st.binary(max_size=200))
    text = draw(st.sampled_from(SHIPPED[suffix]))
    return suffix, mutate(draw, text, draw(st.integers(1, 3))).encode()


def exit_code(argv: list[str], suffix: str, data: bytes) -> int:
    """Exit code of `lietower` on argv with data written to an input file
    that takes the place of the path.  argparse rejects an option value that
    looks like an option, such as a target starting with '-', by exiting."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input" + suffix)
        with open(path, "wb") as fh:
            fh.write(data)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                return cli.main([argv[0], path, *argv[1:]])
            except SystemExit as err:
                return err.code


def test_every_suffix_has_a_shipped_file():
    assert all(SHIPPED.values())


@settings(max_examples=300, deadline=None)
@given(inputs())
def test_validate_exits_with_a_documented_code(case):
    suffix, data = case
    assert exit_code(["validate"], suffix, data) in (0, 2, 3, 4)


# a positive-degree presentation, so that `homology` gets past its mode check
POSITIVE_DGL = "kind: dgl\n[generators]\na : 1\nb : 2\nc : 3\n[differential]\nd c = [a, a]\n"
TARGETS = ["x", "y", "x - [y, x]", "[y, x]", "[y, [y, x]]", "z", "a", "[a, a]", "0"]
SUFFIX = {"tower": ".dgl", "homology": ".dgl", "boundary": ".dgl", "neisendorfer": ".sullivan",
          "duality": ".sullivan", "lemma2": ".sullivan", "pronil": ".lietable"}


def options(draw, command: str) -> list[str]:
    """Options of a command, at small bounds."""
    def value(flag: str, lo: int, hi: int) -> list[str]:
        return [flag, str(draw(st.integers(lo, hi)))]

    def span(flag: str, lo: int, hi: int) -> list[str]:
        a, b = sorted(draw(st.integers(lo, hi)) for _ in range(2))
        return [flag, f"{a}..{b}"]

    if command == "tower":
        return span("--degrees", 0, 2) + value("--max-length", 2, 4)
    if command == "homology":
        return span("--degrees", 0, 4)
    if command == "boundary":
        target = draw(st.one_of(st.sampled_from(TARGETS), st.text(alphabet=SYNTAX, max_size=10)))
        exact = ["--exact"] if draw(st.booleans()) else []
        certify = span("--certify-lengths", 1, 4) if draw(st.booleans()) else []
        return ["--target", target, *value("--max-length", 2, 5), *exact, *certify]
    if command == "neisendorfer":
        return value("--max-degree", 1, 5) + value("--max-length", 2, 3)
    if command == "duality":
        return value("--max-degree", 1, 8) + value("--max-length", 2, 4)
    if command == "lemma2":
        return span("--degrees", 1, 6)
    return value("--max-length", 2, 4)


@st.composite
def requests(draw, command: str) -> tuple[list[str], str, bytes]:
    suffix = SUFFIX[command]
    pool = SHIPPED[suffix] + ([POSITIVE_DGL] if suffix == ".dgl" else [])
    text = mutate(draw, draw(st.sampled_from(pool)), draw(st.integers(0, 3)))
    return [command, *options(draw, command)], suffix, text.encode()


@pytest.mark.parametrize("command", sorted(SUFFIX))
def test_every_command_exits_with_a_documented_code(command):
    @settings(max_examples=60, deadline=None)
    @given(requests(command))
    def check(case):
        argv, suffix, data = case
        assert exit_code(argv, suffix, data) in (0, 2, 3, 4), argv

    check()


NONZERO = st.integers(-4, 4).filter(bool)


@st.composite
def unitriangular_systems(draw):
    """(lower, x, y): the columns of a random unit lower-triangular integer T
    below its diagonal, as (offset of its block, column over the block), with
    blocks of 1 to 5 rows, some columns empty; and two integer vectors."""
    lower = []
    for size in draw(st.lists(st.integers(1, 5), max_size=5)):
        offset = len(lower)
        for m in range(size):
            col = draw(st.dictionaries(st.integers(m + 1, size - 1), NONZERO)) if m < size - 1 else {}
            lower.append((offset, col))
    index = st.integers(0, max(len(lower) - 1, 0))
    vectors = st.dictionaries(index, st.integers(-9, 9), max_size=len(lower))
    return lower, draw(vectors), draw(vectors)


def dense_t(lower):
    t = [[int(i == j) for j in range(len(lower))] for i in range(len(lower))]
    for m, (offset, col) in enumerate(lower):
        for k, c in col.items():
            t[offset + k][m] = c
    return t


def apply(matrix, vec):
    out = {i: sum(row[j] * c for j, c in vec.items()) for i, row in enumerate(matrix)}
    return {i: c for i, c in out.items() if c}


def fraction_inverse(matrix):
    """Gauss-Jordan elimination of [matrix | I] over Fractions."""
    size = len(matrix)
    rows = [[Fraction(c) for c in row] + [Fraction(int(i == j)) for j in range(size)]
            for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [c / rows[col][col] for c in rows[col]]
        for r in range(size):
            if r != col and rows[r][col]:
                rows[r] = [a - rows[r][col] * b for a, b in zip(rows[r], rows[col])]
    return [row[size:] for row in rows]


@settings(max_examples=200, deadline=None)
@given(unitriangular_systems())
def test_forward_substitution_applies_the_inverse_of_t(case):
    lower, x, y = case
    t = dense_t(lower)
    got = freelie.solve_unitriangular(lower, x)
    assert all(type(c) is int and c for c in got.values())
    assert apply(t, got) == {i: c for i, c in x.items() if c}
    assert freelie.solve_unitriangular(lower, apply(t, y)) == {i: c for i, c in y.items() if c}
    assert got == apply(fraction_inverse(t), x)


@st.composite
def lie_tables(draw):
    """A basis of up to five elements of degrees 0..3, brackets of random
    pairs with values of the right degree, each pair's flip sometimes given
    as well (as its graded flip or at random), and a truncation: `total`
    and `max_degree` drawn."""
    degrees = draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
    names = [f"e{i}" for i in range(len(degrees))]
    index = st.integers(0, len(names) - 1)
    brackets = {}
    for a, b in draw(st.lists(st.tuples(index, index), max_size=8)):
        landing = [k for k, d in enumerate(degrees) if d == degrees[a] + degrees[b]]
        value = draw(st.dictionaries(st.sampled_from(landing), st.integers(-3, 3), max_size=2)) if landing else {}
        brackets[names[a], names[b]] = {names[k]: c for k, c in value.items()}
        if draw(st.booleans()):
            sign = -1 if degrees[a] * degrees[b] % 2 else 1
            flip = {names[k]: -sign * c for k, c in value.items()}
            brackets[names[b], names[a]] = flip if draw(st.booleans()) else {n: c + 1 for n, c in flip.items()}
    return names, degrees, brackets, draw(st.booleans()), draw(st.integers(0, 6))


def conflicts(degrees, brackets):
    """Whether the brackets break graded antisymmetry: an even-degree
    [a, a] != 0, or [a, b] and [b, a] both given and no graded flips."""
    def nonzero(value):
        return {n: c for n, c in value.items() if c}

    for (a, b), value in brackets.items():
        i, j = int(a[1:]), int(b[1:])
        sign = -1 if degrees[i] * degrees[j] % 2 else 1
        if i == j and sign == 1 and nonzero(value):
            return True
        other = brackets.get((b, a))
        if other is not None and nonzero(other) != {n: -sign * c for n, c in nonzero(value).items()}:
            return True
    return False


@settings(max_examples=300, deadline=None)
@given(lie_tables())
def test_every_table_is_graded_antisymmetric_by_construction(case):
    # a table either is refused at construction, exactly when its brackets
    # conflict, or has [j, i] = -(-1)^{|i||j|} [i, j] for every pair, with
    # IncompleteTableError for both orders or for neither
    names, degrees, brackets, total, max_degree = case
    try:
        table = pronil.FiniteLieData(zip(names, degrees), brackets, total=total, max_degree=max_degree)
    except pronil.TableError as err:
        assert conflicts(degrees, brackets) and not isinstance(err, pronil.IncompleteTableError)
        return
    assert not conflicts(degrees, brackets)
    for i in range(len(names)):
        for j in range(len(names)):
            try:
                vij = table.bracket_basis(i, j)
            except pronil.IncompleteTableError:
                with pytest.raises(pronil.IncompleteTableError):
                    table.bracket_basis(j, i)
                continue
            sign = -1 if degrees[i] * degrees[j] % 2 else 1
            assert table.bracket_basis(j, i) == {k: -sign * c for k, c in vij.items()}


def rewritten(tgt, first, second):
    """`dgl._bracket_coords` of (pivot word, degree) pairs x and y, read at
    tgt's indices of its pivot words."""
    (x, dx), (y, dy) = first, second
    return {tgt._pivot[w]: c for w, c in dgl._bracket_coords(tgt.P, x, dx, y, dy).items()}


def word_path(tgt, first, second):
    """[P_x, P_y] expanded into words (`freelie._int_bracket`) and read back
    by `int_coords`, for (pivot word, degree) pairs x and y."""
    (x, dx), (y, dy) = first, second
    return tgt.int_coords(freelie._int_bracket(form_terms(tgt.P.gens, x, dx), dx,
                                               form_terms(tgt.P.gens, y, dy), dy))


def form_terms(gens, word, degree):
    piece = freelie.lie_piece(gens, len(word), degree)
    return piece.expand()[0][piece.pivots.index(word)]


@st.composite
def bracketing_pairs(draw):
    """Two basis elements (pivot word, degree) of one random graded
    alphabet, Lyndon bracketings or odd squares, of total length <= 6; the
    second is sometimes the square of the first, when that is odd."""
    degrees = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    gens = freelie.GeneratorSet([f"g{i}" for i in range(len(degrees))], degrees)
    pieces = [(k, d) for k in range(1, 5) for d in range(3 * k + 1) if freelie.lie_piece(gens, k, d).pivots]
    k1, d1 = draw(st.sampled_from(pieces))
    x = draw(st.sampled_from(freelie.lie_piece(gens, k1, d1).pivots))
    if d1 % 2 and k1 < 3 and draw(st.booleans()):
        return gens, (x, d1), (x + x, 2 * d1)
    k2, d2 = draw(st.sampled_from([(k, d) for k, d in pieces if k1 + k <= 6]))
    return gens, (x, d1), (draw(st.sampled_from(freelie.lie_piece(gens, k2, d2).pivots)), d2)


@settings(max_examples=300, deadline=None)
@given(bracketing_pairs())
def test_bracket_coordinates_agree_with_the_word_expansion(case):
    gens, first, second = case
    tgt = dgl.DglPresentation(gens, {}).slice(first[1] + second[1], len(first[0]) + len(second[0]) + 1)
    for x, y in ((first, second), (second, first)):
        assert rewritten(tgt, x, y) == word_path(tgt, x, y)


def rewrite_case(gens, x, dx, y):
    """The case of `dgl._bracket_coords`' docstring that [P_x, P_y] takes."""
    if x == y:
        return 1
    if x > y:
        return 2
    if y == x + x:
        return 3
    if dgl._is_square(x):
        return 4
    if dgl._is_square(y):
        return 5
    cut = freelie._standard_cut(gens, x, dx)
    return 6 if not cut or x[cut:] >= y else 7


SWEEP_ALPHABETS = [[0, 0], [1], [1, 1], [0, 1], [1, 2], [2, 3], [1, 3], [0, 0, 0], [0, 0, 1], [0, 1, 1], [1, 1, 1], [0, 1, 2], [1, 1, 2], [1, 2, 3]]


def test_every_case_of_the_bracket_rewrite_agrees_with_the_word_expansion(monkeypatch):
    # every pair of basis elements of total length <= 6 over small graded
    # alphabets, in both orders; each call of the rewrite, the recursive ones
    # too, is counted by its case, and every case is reached
    hits = dict.fromkeys(range(1, 8), 0)
    rewrite = dgl._bracket_coords

    def counted(P, x, dx, y, dy):
        hits[rewrite_case(P.gens, x, dx, y)] += 1
        return rewrite(P, x, dx, y, dy)

    monkeypatch.setattr(dgl, "_bracket_coords", counted)
    pairs = 0
    for degrees in SWEEP_ALPHABETS:
        gens = freelie.GeneratorSet([f"g{i}" for i in range(len(degrees))], degrees)
        P = dgl.DglPresentation(gens, {})
        basis = [(x, d) for k in range(1, 6) for d in range(max(degrees) * k + 1)
                 for x in freelie.lie_piece(gens, k, d).pivots]
        for x, dx in basis:
            for y, dy in basis:
                if len(x) + len(y) <= 6:
                    tgt = P.slice(dx + dy, 7)
                    assert rewritten(tgt, (x, dx), (y, dy)) == word_path(tgt, (x, dx), (y, dy)), (degrees, x, y)
                    pairs += 1
    assert pairs > 6000 and min(hits.values()) > 50, (pairs, hits)


# unsigned scalar prefixes of a term; the sign comes from the sum
COEFFICIENTS = ("", "", "2*", "4/2*", "1/2*", "3/4*", "5/3*", "0*")
KINDS = ("bracket", "bracket", "bracket", "atom", "cancel")


@st.composite
def lie_texts(draw, atoms: tuple) -> str:
    """A Lie expression over the given atoms, of bracket depth <= 4 and about
    nine atoms at most.  A term is an atom, a bracket of two sums, or
    [A + C, B] - [C, B], whose C parts cancel by bilinearity but not in the
    parser; sums mix degrees freely, and coefficients are rational."""
    budget = [draw(st.integers(2, 9))]

    def expr(depth: int) -> str:
        text = ""
        for k in range(draw(st.integers(1, 3))):
            if k and budget[0] <= 0:
                break
            kind = draw(st.sampled_from(KINDS)) if depth and budget[0] >= 2 else "atom"
            if kind == "atom":
                budget[0] -= 1
                atom = draw(st.sampled_from(atoms))
            elif kind == "bracket":
                atom = f"[{expr(depth - 1)}, {expr(depth - 1)}]"
            else:
                a, b, c = expr(depth - 1), expr(depth - 1), expr(depth - 1)
                # "(x)" lexes as the tensor symbol, so parentheses are spaced
                atom = f"( [( {a} ) + ( {c} ), {b}] - [{c}, {b}] )"
            sign = draw(st.sampled_from(("+", "-")))
            term = draw(st.sampled_from(COEFFICIENTS)) + atom
            text += (f" {sign} " if k else ("-" if sign == "-" else "")) + term
        return text

    return expr(4)


@st.composite
def graded_expressions(draw):
    """(gens, text): a graded alphabet of one to four letters of degrees 0..3
    with at least one odd letter, and a Lie expression over its letters."""
    degrees = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(lambda ds: any(d % 2 for d in ds)))
    names = ("x", "y", "z", "w")[: len(degrees)]
    return freelie.GeneratorSet(names, degrees), draw(lie_texts(names))


def tensor_eval(gens, terms):
    """The sum of parsed terms in `TensorElt` arithmetic, every bracket by
    `graded_bracket`: the reference for `eval_bracket_expr`."""
    out = freelie.zero(gens)
    for coeff, node in terms:
        if isinstance(node, exprs.Gen):
            value = freelie.gen_elt(gens, node.name)
        else:
            value = freelie.graded_bracket(tensor_eval(gens, node.left), tensor_eval(gens, node.right))
        out = out + coeff * value
    return out


@settings(max_examples=300, deadline=None)
@given(graded_expressions())
def test_eval_bracket_expr_agrees_with_tensor_arithmetic(case):
    gens, text = case
    terms = exprs.parse_lie(text, known=set(gens.names))
    got = freelie.eval_bracket_expr(gens, terms)
    assert got == tensor_eval(gens, terms), text
    assert all(type(c) is Fraction for c in got.terms.values())


def nodes(terms):
    """Every node of parsed terms, inside brackets too."""
    for _, node in terms:
        yield node
        if isinstance(node, exprs.Bracket):
            yield from nodes(node.left)
            yield from nodes(node.right)


@settings(max_examples=500, deadline=None)
@given(st.one_of(lie_texts(("x", "y", "2", "0", "(2 - 2)")), st.text(alphabet=SYNTAX, max_size=16)))
def test_parse_lie_keeps_no_bare_scalar(text):
    # a scalar that is not zero is refused at any depth, so no evaluator
    # meets a None node; a zero scalar, such as [x, 2 - 2], sums away
    try:
        terms = exprs.parse_lie(text)
    except exprs.ParseError:
        return
    assert None not in nodes(terms), text
