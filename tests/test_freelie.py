import random
from fractions import Fraction
from math import gcd

import pytest

from lietower import exprs, freelie
from lietower.freelie import (
    GeneratorSet,
    TensorElt,
    ad_power,
    dynkin,
    eval_bracket_expr,
    gen_elt,
    graded_bracket,
    is_lie_element,
    lie_basis,
    lie_dim,
    parse_element,
    pbw_euler_check,
    tensor_dim,
    words_of,
    zero,
)
from lietower.linalg import InvariantError

XY = GeneratorSet(["x", "y"], [0, 0])
A1 = GeneratorSet(["a"], [1])
REMARK = GeneratorSet(["x", "y", "z"], [0, 0, 1])


# -- independent oracle: a from-scratch graded commutator on plain dicts ----

def oracle_bracket(degrees, u, v):
    out = {}
    for w1, c1 in u.items():
        d1 = sum(degrees[i] for i in w1)
        for w2, c2 in v.items():
            d2 = sum(degrees[i] for i in w2)
            for w, c in ((w1 + w2, c1 * c2), (w2 + w1, -((-1) ** (d1 * d2 % 2)) * c1 * c2)):
                out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def test_generator_set_hash_is_computed_once_and_agrees_with_equality():
    # every free-Lie cache is keyed by the generator set, so its hash is
    # taken once, at construction, as the hash of (names, degrees)
    a = GeneratorSet(["x", "y", "z"], [0, 0, 1])
    b = GeneratorSet.from_pairs([("x", 0), ("y", 0), ("z", 1)])
    assert a == b and a is not b and hash(a) == hash(b)
    assert hash(a) == hash((("x", "y", "z"), (0, 0, 1)))
    assert len({a: 1, b: 2}) == 1
    assert a != GeneratorSet(["x", "y", "z"], [0, 0, 2])


def test_bracket_even_commutator():
    x, y = gen_elt(XY, "x"), gen_elt(XY, "y")
    assert graded_bracket(x, y).terms == {(0, 1): 1, (1, 0): -1}


def test_bracket_odd_self():
    a = gen_elt(A1, "a")
    assert graded_bracket(a, a).terms == {(0, 0): 2}


def test_bracket_even_self_vanishes():
    x = gen_elt(XY, "x")
    assert graded_bracket(x, x).is_zero()


def test_bracket_matches_oracle_randomized():
    rng = random.Random(3)
    gens = GeneratorSet(["p", "q", "r"], [0, 1, 2])
    for _ in range(25):
        u = {tuple(rng.randrange(3) for _ in range(rng.randrange(1, 3))): Fraction(rng.randrange(-3, 4)) for _ in range(2)}
        v = {tuple(rng.randrange(3) for _ in range(rng.randrange(1, 3))): Fraction(rng.randrange(-3, 4)) for _ in range(2)}
        u = {w: c for w, c in u.items() if c}
        v = {w: c for w, c in v.items() if c}
        got = graded_bracket(TensorElt(gens, u), TensorElt(gens, v))
        assert got.terms == oracle_bracket(gens.degrees, u, v)


def test_eval_bracket_expr_remark():
    e = eval_bracket_expr(REMARK, exprs.parse_lie("x - [y,x]"))
    assert e.length_component(1).terms == {(0,): 1}
    assert e.length_component(2).terms == {(0, 1): 1, (1, 0): -1}


def test_eval_zero():
    assert eval_bracket_expr(REMARK, exprs.parse_lie("0")).is_zero()


def test_eval_scaled_odd_square():
    e = parse_element(A1, "(1/2)*[a,a]")
    assert e.terms == {(0, 0): 1}


def test_eval_unknown_generator():
    with pytest.raises(exprs.ParseError):
        parse_element(XY, "x + w")


def test_lie_basis_dims_two_even_generators():
    assert [len(lie_basis(XY, n, 0)) for n in range(1, 6)] == [2, 1, 2, 3, 6]


def test_lie_basis_one_odd_generator():
    assert [len(lie_basis(A1, n, n)) for n in (1, 2, 3)] == [1, 1, 0]


def test_lie_basis_length_one_is_generators():
    basis = lie_basis(REMARK, 1, 0)
    assert [b.terms for b in basis] == [{(0,): 1}, {(1,): 1}]
    assert [b.terms for b in lie_basis(REMARK, 1, 1)] == [{(2,): 1}]


def test_lie_basis_elements_certify():
    for n in range(1, 5):
        for b in lie_basis(XY, n, 0):
            assert is_lie_element(b)
            assert dynkin(b) == Fraction(n) * b


def test_classical_witt_oracle():
    def mobius(n):
        out, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                out = -out
            p += 1
        if n > 1:
            out = -out
        return out

    for k, gens in ((2, XY), (3, GeneratorSet(["a", "b", "c"], [0, 0, 0]))):
        for n in range(1, 8):
            necklaces = sum(mobius(e) * k ** (n // e) for e in range(1, n + 1) if n % e == 0) // n
            assert lie_dim(gens, n, 0) == necklaces


def test_lie_dim_matches_rank_mixed_degrees():
    gens = GeneratorSet(["x", "a"], [0, 1])
    for n in range(1, 5):
        for d in range(0, n + 1):
            words = words_of(gens, n, d)
            if not words:
                assert lie_dim(gens, n, d) == 0
                continue
            assert len(lie_basis(gens, n, d)) == lie_dim(gens, n, d)


def test_dynkin_identity_on_length_one():
    x = gen_elt(XY, "x")
    assert dynkin(x) == x


def test_dynkin_doubles_commutators():
    w = graded_bracket(gen_elt(XY, "x"), gen_elt(XY, "y"))
    assert dynkin(w) == Fraction(2) * w


def test_dynkin_kills_even_square_word():
    w = TensorElt(XY, {(0, 0): 1})
    assert dynkin(w).is_zero()


def test_dynkin_idempotent_up_to_n():
    rng = random.Random(5)
    gens = GeneratorSet(["x", "y", "a"], [0, 0, 1])
    for _ in range(20):
        n = rng.randrange(2, 5)
        d = rng.randrange(0, 3)
        words = words_of(gens, n, d)
        if not words:
            continue
        w = TensorElt(gens, {rng.choice(words): Fraction(rng.randrange(1, 4)) for _ in range(2)})
        assert dynkin(dynkin(w)) == Fraction(n) * dynkin(w)


def test_ad_power():
    y, z = gen_elt(REMARK, "y"), gen_elt(REMARK, "z")
    assert ad_power(y, z, 0) == z
    assert ad_power(y, z, 1) == graded_bracket(y, z)
    got = ad_power(y, z, 2)
    want = TensorElt(
        REMARK,
        oracle_bracket(
            REMARK.degrees, {(1,): Fraction(1)}, oracle_bracket(REMARK.degrees, {(1,): Fraction(1)}, {(2,): Fraction(1)})
        ),
    )
    assert got == want
    assert got.lengths() == {3}
    assert got.degrees() == {1}


def test_graded_antisymmetry_and_jacobi_randomized():
    rng = random.Random(9)
    gens = GeneratorSet(["x", "y", "a", "b"], [0, 0, 1, 2])
    elts = [gen_elt(gens, n) for n in gens.names]
    elts += [graded_bracket(rng.choice(elts), rng.choice(elts)) for _ in range(6)]
    pool = [e for e in elts if not e.is_zero()]
    for _ in range(30):
        u, v, w = (rng.choice(pool) for _ in range(3))
        du = u.homogeneous_degree()
        dv = v.homogeneous_degree()
        sign = Fraction((-1) ** (du * dv % 2))
        assert (graded_bracket(u, v) + sign * graded_bracket(v, u)).is_zero()
        lhs = graded_bracket(u, graded_bracket(v, w))
        rhs = graded_bracket(graded_bracket(u, v), w) + sign * graded_bracket(
            v, graded_bracket(u, w)
        )
        assert lhs == rhs


def test_pbw_euler_product_window():
    assert pbw_euler_check(XY, 5, 8)
    assert pbw_euler_check(GeneratorSet(["a", "b"], [1, 2]), 5, 8)
    assert pbw_euler_check(REMARK, 5, 8)


def test_tensor_dim_counts_words():
    assert tensor_dim(XY, 3, 0) == 8
    assert tensor_dim(REMARK, 3, 1) == 12
    assert tensor_dim(REMARK, 2, 2) == 1  # zz


def test_non_lie_word_fails_certificate():
    assert not is_lie_element(TensorElt(XY, {(0, 1): 1}))


def test_parse_error_positions():
    with pytest.raises(exprs.ParseError) as err:
        exprs.parse_lie("x + [y, ")
    assert err.value.line == 1
    assert err.value.col == 9


def test_format_round_trip():
    for text in ("x - [y, x]", "1/2 * [a, [a, b]] + 3 * c", "0", "-1 * x + y"):
        known = {"x", "y", "a", "b", "c"}
        t1 = exprs.parse_lie(text, known=known)
        t2 = exprs.parse_lie(exprs.format_terms(t1), known=known)
        assert t1 == t2


def test_parser_keeps_integral_coefficients_as_int():
    # a coefficient is an int unless a '/' went into it; int and Fraction
    # compare and hash equal by value, so nodes and printing are the same
    ((two, bracket),) = exprs.parse_lie("2*[x, y]")
    assert type(two) is int and two == 2
    assert [type(c) for c, _ in bracket.left + bracket.right] == [int, int]
    ((half, _),) = exprs.parse_lie("1/2*[x, y]")
    assert type(half) is Fraction and half == Fraction(1, 2)
    ((four_halves, same),) = exprs.parse_lie("4/2*[x, y]")
    assert type(four_halves) is Fraction and (four_halves, same) == (two, bracket)
    assert hash(exprs.parse_lie("4/2*[x, y]")) == hash(exprs.parse_lie("2*[x, y]"))
    inner = exprs.parse_lie("[4/2*x, y]")[0][1], exprs.parse_lie("[2*x, y]")[0][1]
    assert inner[0] == inner[1] and hash(inner[0]) == hash(inner[1])
    assert exprs.format_terms(exprs.parse_lie("4/2*[x, y]")) == "2 * [x, y]"
    for text in ("2 * [x, y]", "1/2 * [x, y]", "-3 * x + 5/3 * [x, [2 * x, y]]"):
        assert exprs.format_terms(exprs.parse_lie(text)) == text


def test_expression_nodes_are_immutable_values():
    # parsing folds equal nodes into one coefficient, so equality and hash
    # must follow the class and the fields
    gx, gy = exprs.Gen("x"), exprs.Gen("y")
    assert gx == exprs.Gen("x") and hash(gx) == hash(exprs.Gen("x")) and gx != gy
    assert exprs.Gen("x") != exprs.Prod(("x",)) and exprs.Bracket(1, 2) != exprs.Tensor(1, 2)
    assert exprs.Tensor("a", "b") == exprs.Tensor("a", "b") != exprs.Tensor("b", "a")
    # hash(-1) == hash(-2) in CPython: equal hashes do not make equal nodes
    assert hash(exprs.Gen(-1)) == hash(exprs.Gen(-2)) and exprs.Gen(-1) != exprs.Gen(-2)
    assert repr(gx) == "Gen(name='x')"
    assert repr(exprs.Prod(("x", "y"))) == "Prod(factors=('x', 'y'))"
    assert repr(exprs.Tensor("a", "b")) == "Tensor(left='a', right='b')"
    with pytest.raises(AttributeError):
        gx.name = "y"
    with pytest.raises(AttributeError):
        gx.other = 1
    with pytest.raises(AttributeError):
        del gx.name
    assert exprs.parse_lie("[x, y] + 2*[x, y] - x") == (
        (Fraction(3), exprs.Bracket(((Fraction(1), gx),), ((Fraction(1), gy),))),
        (Fraction(-1), gx),
    )
    assert len(exprs.parse_lie("x + y")) == 2
    assert exprs.parse_poly("x*y + 2*x*y") == ((Fraction(3), exprs.Prod(("x", "y"))),)


def test_standard_cut_raises_on_a_word_outside_its_piece():
    # xyz is a Lyndon word with standard factorization x.yz; yxz is no Lyndon
    # word, and xyz would be found in its place; a word past the last
    # Lyndon word of its piece has no place at all
    gens = GeneratorSet(["x", "y", "z"], [0, 0, 1])
    assert freelie._standard_cut(gens, "\x00\x01\x02", 1) == 1
    for word in ("\x01\x00\x02", "\x02\x02\x02"):
        with pytest.raises(InvariantError, match="is not a Lyndon word of degree 1"):
            freelie._standard_cut(gens, word, 1)
    with pytest.raises(InvariantError):
        freelie._standard_cut(gens, "\x00\x01\x02", 2)
