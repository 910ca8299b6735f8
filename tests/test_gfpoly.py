"""Exact arithmetic layer: field, monomials, the grevlex order, sparse polynomials."""

import math
import random
from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import random_homogeneous

from fpicheck.errors import NonPrimeError, ParseError
from fpicheck.gfpoly import (
    Polynomial,
    grevlex_rank,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_of_degree,
    parse_polynomial,
    poly_to_string,
    require_prime,
)
from fpicheck.modgb import Vec

VARS3 = ["x", "y", "z"]


def parse(text, p=2, names=VARS3):
    return parse_polynomial(text, names, p)


def random_poly(rng, p, nvars, max_degree=4):
    f = Polynomial.zero(p, nvars)
    for _ in range(rng.randint(1, 5)):
        m = tuple(rng.randint(0, max_degree) for _ in range(nvars))
        if sum(m) > max_degree:
            continue
        f = f + Polynomial.from_monomial(p, m, rng.randint(0, p - 1))
    return f


# -- prime field -------------------------------------------------------------


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 15, 100])
def test_prime_field_rejects_composites(bad):
    with pytest.raises(NonPrimeError):
        require_prime(bad)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31])
def test_prime_field_inverses(p):
    # every accepted p is prime, so a^(p-2) inverts each nonzero a, the
    # inverse the engine takes wherever it divides by a coefficient
    assert require_prime(p) == p
    for a in range(1, p):
        assert a * pow(a, p - 2, p) % p == 1


# -- monomials ---------------------------------------------------------------


@pytest.mark.parametrize("nvars,degree", [(1, 5), (2, 3), (3, 4), (4, 2)])
def test_monomials_of_degree_count(nvars, degree):
    monos = list(monomials_of_degree(nvars, degree))
    assert len(monos) == math.comb(nvars + degree - 1, degree)
    assert len(set(monos)) == len(monos)
    assert all(sum(m) == degree for m in monos)


def test_monomial_operations():
    a, b = (2, 1, 0), (1, 1, 3)
    assert mono_mul(a, b) == (3, 2, 3)
    assert mono_lcm(a, b) == (2, 1, 3)
    assert not mono_divides(a, b)
    assert mono_divides(b, mono_mul(a, b))
    assert mono_div(mono_mul(a, b), a) == b


# -- the grevlex order ----------------------------------------------------------


def compare(a, b):
    """-1, 0 or 1 as x^a <, ==, > x^b under grevlex (a smaller rank is larger)."""
    ra, rb = grevlex_rank(a), grevlex_rank(b)
    return (ra < rb) - (ra > rb)


def test_order_axioms():
    rng = random.Random(7)
    monos = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(40)]
    for a in monos[:15]:
        for b in monos[:15]:
            ab = compare(a, b)
            assert ab == -compare(b, a)
            assert (ab == 0) == (a == b)
    for a, b, c in zip(monos, monos[10:], monos[20:]):
        if compare(a, b) > 0 and compare(b, c) > 0:
            assert compare(a, c) > 0
        # multiplying by a common monomial never flips the comparison
        assert compare(mono_mul(a, c), mono_mul(b, c)) == compare(a, b)
        # 1 is the least monomial
        assert compare(a, (0, 0, 0)) == (a != (0, 0, 0))


def test_grevlex_vs_lex_disagree():
    # x vs y^3: lex (plain comparison of exponent tuples) prefers any power
    # of x, grevlex compares degree first
    a, b = (1, 0, 0), (0, 3, 0)
    assert a > b
    assert compare(a, b) < 0
    # equal degree: grevlex favours the monomial with smaller last exponent
    assert compare((0, 3, 0), (1, 0, 2)) > 0
    # so the lead of y^2 + x*z is y^2, and terms print largest first
    f = parse("x*z + y^2 + x + 1", p=3)
    assert f.lead() == ((0, 2, 0), 1)
    assert poly_to_string(f, VARS3) == "y^2 + x*z + x + 1"


# -- polynomial arithmetic -----------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ring_axioms_random(p):
    rng = random.Random(100 + p)
    for _ in range(25):
        f = random_poly(rng, p, 3)
        g = random_poly(rng, p, 3)
        h = random_poly(rng, p, 3)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f - f == Polynomial.zero(p, 3)
        assert f + (-f) == Polynomial.zero(p, 3)


def test_char_p_coefficient_wraparound():
    f = parse("x + y", p=3)
    assert f + f + f == Polynomial.zero(3, 3)
    assert 2 * f == -f


@st.composite
def element_pairs(draw):
    """(f, g, c): two polynomials over one ambient, uncleaned coefficients
    included, and a scalar."""
    p = draw(st.sampled_from([2, 3, 5]))
    nvars = draw(st.integers(1, 3))
    terms = st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * nvars), st.integers(-7, 7), max_size=5
    )
    f = Polynomial(p, nvars, draw(terms))
    g = draw(st.sampled_from([f, Polynomial(p, nvars, draw(terms))]))
    return f, g, draw(st.integers(-7, 7))


def as_vec(f):
    """f * e_0 in the free module of rank one."""
    return Vec(f.p, f.nvars, {(0, m): c for m, c in f.terms.items()})


@settings(max_examples=200, deadline=None)
@given(element_pairs())
def test_polynomial_and_vec_share_one_arithmetic(case):
    f, g, c = case
    for op in (add, sub):
        assert as_vec(op(f, g)) == op(as_vec(f), as_vec(g))
    assert as_vec(-f) == -as_vec(f)
    assert as_vec(f.scale(c)) == as_vec(f).scale(c) == as_vec(f * c)
    assert (f == g) == (as_vec(f) == as_vec(g))
    for x, y in ((f, g), (as_vec(f), as_vec(g))):
        # built in another order, the same element hashes the same
        assert (x + y) - y == x and hash((x + y) - y) == hash(x)
        assert x.is_zero() == (x == type(x).zero(x.p, x.nvars))
    assert f != as_vec(f) and as_vec(f) != f
    assert len({f, as_vec(f)}) == 2
    for op in (add, sub):
        with pytest.raises(ValueError, match="different ambients"):
            op(f, as_vec(f))
        with pytest.raises(ValueError, match="different ambients"):
            op(as_vec(f), f)


@settings(max_examples=100, deadline=None)
@given(element_pairs())
def test_mismatched_ambients_raise_for_both_element_types(case):
    f, _, _ = case
    q = 7 if f.p == 5 else 5
    for other in (Polynomial.constant(q, f.nvars, 1), Polynomial.constant(f.p, f.nvars + 1, 1)):
        for x, y in ((f, other), (as_vec(f), as_vec(other))):
            for op in (add, sub):
                with pytest.raises(ValueError, match="different ambients"):
                    op(x, y)
                with pytest.raises(ValueError, match="different ambients"):
                    op(y, x)
        with pytest.raises(ValueError, match="different ambients"):
            f * other


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (3, 1), (5, 1)])
def test_frobenius_is_additive(p, e):
    rng = random.Random(31 * p + e)
    q = p**e
    for _ in range(20):
        f = random_poly(rng, p, 3)
        g = random_poly(rng, p, 3)
        assert (f + g).frobenius_power(e) == f.frobenius_power(e) + g.frobenius_power(e)
        assert f.frobenius_power(e) == f**q


def test_frobenius_raises_each_term():
    f = parse("x^2*y + z", p=3)
    assert f.frobenius_power(1) == parse("x^6*y^3 + z^3", p=3)
    assert f.frobenius_power(0) == f


def test_power_and_degree():
    f = parse("x + y")
    assert f**2 == parse("x^2 + y^2")  # freshman's dream in char 2
    assert (parse("x*y + z^2") * parse("x + 1")).degree() == 3
    assert Polynomial.zero(2, 3).degree() == -1
    assert parse("x*y - y*x", p=5).is_zero()


def test_homogeneity_checks():
    assert parse("x*y + z^2").is_homogeneous()
    assert not parse("x + y*z").is_homogeneous()


# -- parsing and printing -------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    ["x", "x + y", "x^2*y + 2*z^3", "x*y*z", "1", "0", "x^4 + x^2*y^2 + 3"],
)
def test_parse_show_round_trip(text):
    f = parse(text, p=5)
    assert parse(poly_to_string(f, VARS3), p=5) == f


@pytest.mark.parametrize("p", [2, 3, 5])
def test_random_show_round_trip(p):
    rng = random.Random(p)
    for _ in range(30):
        f = random_poly(rng, p, 3)
        assert parse(poly_to_string(f, VARS3), p=p) == f


def test_parse_handles_signs_and_constants():
    assert parse("-x + 2", p=5) == parse("4*x + 2", p=5)
    assert parse("x - y", p=3) == parse("x + 2*y", p=3)
    assert parse("7", p=5) == Polynomial.constant(5, 3, 2)


@pytest.mark.parametrize("bad", ["x +", "2 ** x", "w", "x^", "(x", "x^-2"])
def test_parse_errors_carry_positions(bad):
    with pytest.raises(ParseError) as info:
        parse(bad)
    assert info.value.line == 1
    assert info.value.col >= 1


def test_random_homogeneous_is_homogeneous_and_seeded():
    rng1, rng2 = random.Random(9), random.Random(9)
    for degree in range(1, 5):
        f = random_homogeneous(rng1, 3, 2, degree)
        g = random_homogeneous(rng2, 3, 2, degree)
        assert f == g
        assert f.is_zero() or (f.is_homogeneous() and f.degree() == degree)
