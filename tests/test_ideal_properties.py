"""The ideal path against independent references: the closed-form monomial
colon and intersection, the module colon and intersection, the Hilbert-series
and colon non-zero-divisor tests and the complete-intersection F-purity colon
against the elimination oracle, membership, the Hilbert function and
Hilbert-series numerators against the linear-algebra oracles, the cached
normal form against a fresh reduction, and exact division against
multiplication."""

from math import comb, prod
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    colon_by_elimination,
    columns_of_matrix,
    graded_dimension_oracle,
    intersect_by_elimination,
    membership_oracle,
)

from fpicheck import classify, groebner, pushforward
from fpicheck.errors import NonHomogeneousError, ResourceLimitError
from fpicheck.gfpoly import Polynomial, monomials_of_degree, poly_to_string
from fpicheck.groebner import (
    Ideal,
    PolyRing,
    RingSpec,
    bracket_power,
    buchberger,
    divide_exact,
    ideal_colon,
    ideal_intersect,
    reduce_poly,
)
from fpicheck.hilbert import Numerator, monomial_quotient
from fpicheck.pushforward import frobenius_pushforward
from fpicheck.resolutions import ModulePresentation

PROPERTY = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
NAMES = ["x", "y", "z"]


def draw_form(draw, p: int, n: int, d: int) -> Polynomial:
    """A nonzero homogeneous polynomial of degree d, dense with random
    coefficients."""
    monos = list(monomials_of_degree(n, d))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(monos), max_size=len(monos)))
    if not any(coeffs):
        coeffs[0] = 1
    return Polynomial(p, n, dict(zip(monos, coeffs)))


@st.composite
def monomial_ideal_pair(draw):
    """Two monomial ideals of F_p[x, y(, z)], each with zero to three
    generators (the unit monomial included) and arbitrary coefficients."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, 3))
    ring = PolyRing(p, NAMES[:n])

    def ideal():
        monos = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=3))
        return Ideal(ring, [
            Polynomial.from_monomial(p, m, draw(st.integers(1, p - 1))) for m in monos
        ])

    return ideal(), ideal()


@st.composite
def homogeneous_ring(draw):
    """A homogeneous ideal of F_p[x, y(, z)] with one to three generators of
    degree 1 to 3, as a RingSpec."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, 3))
    gens = [
        draw_form(draw, p, n, draw(st.integers(1, 3)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return RingSpec(p, NAMES[:n], gens)


@st.composite
def ring_and_form(draw):
    """A homogeneous ring and a homogeneous form on it: a random form of
    degree 0 to 2, or a member of the ideal."""
    rs = draw(homogeneous_ring())
    p, n = rs.p, rs.n
    if draw(st.booleans()):
        return rs, draw_form(draw, p, n, draw(st.integers(0, 2)))
    d = draw(st.integers(1, 4))
    f = Polynomial.zero(p, n)
    for g in rs.ideal.generators:
        if g.degree() <= d:
            f = f + g * draw_form(draw, p, n, d - g.degree())
    return rs, f


# -- closed forms against the elimination path ----------------------------------


@PROPERTY
@given(monomial_ideal_pair())
def test_monomial_intersection_matches_elimination(pair):
    a, b = pair
    got = ideal_intersect(a, b)
    assert all(g.is_monomial() for g in got.generators)
    assert got.groebner_basis() == intersect_by_elimination(a, b).groebner_basis()


@PROPERTY
@given(monomial_ideal_pair())
def test_monomial_colon_matches_elimination(pair):
    a, b = pair
    got = ideal_colon(a, b)
    assert all(g.is_monomial() for g in got.generators)
    assert got.groebner_basis() == colon_by_elimination(a, b).groebner_basis()


@PROPERTY
@given(ring_and_form())
def test_hilbert_series_nzd_test_matches_colon_test(case):
    rs, f = case
    colon_says = not rs.nf(f).is_zero() and (
        colon_by_elimination(rs.ideal, Ideal(rs.ring, [f])) == rs.ideal
    )
    assert rs.is_nzd(f) == colon_says


def test_nzd_test_on_constants_and_members():
    rs = RingSpec(3, ["x", "y"], ["x*y"])
    assert rs.is_nzd(Polynomial.constant(3, 2, 2))
    assert not rs.is_nzd(Polynomial.zero(3, 2))
    assert not rs.is_nzd(rs.ring.parse("x^2*y - x*y^2"))
    assert not rs.is_nzd(rs.ring.parse("x"))
    assert rs.is_nzd(rs.ring.parse("x + y"))


# -- the module colon against the elimination oracle ---------------------------


def draw_poly(draw, p: int, n: int, homogeneous: bool) -> Polynomial:
    """A form of degree 1 or 2, or up to three terms with exponents at most 2
    (possibly zero, possibly constant)."""
    if homogeneous:
        return draw_form(draw, p, n, draw(st.integers(1, 2)))
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * n), st.integers(1, p - 1), max_size=3,
    ))
    return Polynomial(p, n, terms)


@st.composite
def non_monomial_pair(draw):
    """Two ideals a, b of F_p[x, y(, z)], homogeneous or not, not both
    monomial; a may be zero, and b may hold a unit or a zero generator."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(2, 3))
    ring = PolyRing(p, NAMES[:n])
    homogeneous = draw(st.booleans())

    def gens(min_size):
        return [draw_poly(draw, p, n, homogeneous) for _ in range(draw(st.integers(min_size, 3)))]

    a = gens(0)
    b = gens(1)
    if draw(st.booleans()):
        b.append(draw(st.sampled_from([ring.zero(), ring.one()])))
    assume(not all(g.is_monomial() for g in a + b if not g.is_zero()))
    return Ideal(ring, a), Ideal(ring, b)


def assert_matches(ours, oracle):
    # the module colon hands its result its reduced basis as the grevlex
    # cache; that must be what Buchberger computes from the generators
    assert ours.groebner_basis() == oracle.groebner_basis()
    assert ours.groebner_basis() == tuple(buchberger(list(ours.generators)))


@PROPERTY
@given(non_monomial_pair())
def test_module_colon_matches_elimination(pair):
    a, b = pair
    assert_matches(ideal_colon(a, b), colon_by_elimination(a, b))


@PROPERTY
@given(non_monomial_pair())
def test_module_intersection_matches_elimination(pair):
    a, b = pair
    assert_matches(ideal_intersect(a, b), intersect_by_elimination(a, b))


def test_module_colon_edge_cases_match_elimination():
    ring = PolyRing(5, NAMES)
    zero, unit = Ideal(ring, []), Ideal(ring, ["1"])
    a = Ideal(ring, ["x^2 - y*z", "x*y + 1"])
    b = Ideal(ring, ["x + y", "0", "z^2"])
    for left, right in ((zero, b), (a, zero), (a, unit), (unit, a), (a, b), (b, a)):
        for ours, oracle in ((ideal_colon, colon_by_elimination), (ideal_intersect, intersect_by_elimination)):
            assert_matches(ours(left, right), oracle(left, right))


@st.composite
def inhomogeneous_ring_and_poly(draw):
    """F_p[x, y(, z)] modulo one to three polynomials that need not be
    homogeneous, and a polynomial on it."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(2, 3))
    gens = [draw_poly(draw, p, n, False) for _ in range(draw(st.integers(1, 3)))]
    rs = RingSpec(p, NAMES[:n], gens)
    return rs, draw_poly(draw, p, n, False)


@PROPERTY
@given(inhomogeneous_ring_and_poly())
def test_nzd_test_refuses_inhomogeneous_input(case):
    # the Hilbert-series test needs a graded ring and a form; on those it
    # matches the colon test by elimination
    rs, f = case
    if not rs.ideal.is_homogeneous_ideal():
        with pytest.raises(NonHomogeneousError, match="^the non-zero-divisor test"):
            rs.is_nzd(f)
    elif not f.is_homogeneous():
        with pytest.raises(ValueError, match="homogeneous element"):
            rs.is_nzd(f)
    else:
        colon_says = not rs.nf(f).is_zero() and (
            colon_by_elimination(rs.ideal, Ideal(rs.ring, [f])) == rs.ideal
        )
        assert rs.is_nzd(f) == colon_says


def test_module_colon_names_its_stage_when_out_of_pairs(monkeypatch):
    monkeypatch.setattr(groebner, "DEFAULT_MAX_PAIRS", 1)
    ring = PolyRing(3, NAMES)
    a = Ideal(ring, ["x^2 - y^2", "x*y*z"])
    b = Ideal(ring, ["x + y", "z"])
    for op in (ideal_colon, ideal_intersect):
        with pytest.raises(ResourceLimitError, match="colon Buchberger"):
            op(a, b)


# -- the ideal path against the linear-algebra oracles --------------------------


@PROPERTY
@given(homogeneous_ring(), st.data())
def test_membership_matches_oracle(rs, data):
    p, n = rs.p, rs.n
    d = data.draw(st.integers(1, 4))
    # a member of the ideal, plus half the time a random form of the same degree
    target = draw_form(data.draw, p, n, d) if data.draw(st.booleans()) else Polynomial.zero(p, n)
    for g in rs.ideal.generators:
        if g.degree() <= d:
            target = target + g * draw_form(data.draw, p, n, d - g.degree())
    gens = list(rs.ideal.generators)
    assert rs.ideal.contains(target) == membership_oracle(target, gens)


@PROPERTY
@given(homogeneous_ring())
def test_hilbert_function_matches_oracle(rs):
    gens = list(rs.ideal.generators)
    for d in range(5):
        assert rs.hf(d) == graded_dimension_oracle(gens, rs.p, rs.n, d)


@PROPERTY
@given(homogeneous_ring(), st.data())
def test_cached_normal_form_matches_fresh_reduction(rs, data):
    f = draw_form(data.draw, rs.p, rs.n, data.draw(st.integers(0, 4)))
    assert rs.ideal.normal_form(f) == reduce_poly(f, list(rs.ideal.groebner_basis()))


# -- F-purity of complete intersections against the elimination colon ----------


def draw_binomial(draw, p: int, d: int) -> Polynomial:
    """c_1 m_1 + c_2 m_2 for two distinct monomials of degree d in x, y, z."""
    monos = list(monomials_of_degree(3, d))
    m1, m2 = draw(st.lists(st.sampled_from(monos), min_size=2, max_size=2, unique=True))
    c1, c2 = draw(st.lists(st.integers(1, p - 1), min_size=2, max_size=2))
    return Polynomial(p, 3, {m1: c1, m2: c2})


@st.composite
def binomial_ring(draw):
    """F_p[x, y, z] modulo one to three homogeneous binomials of degree 1 or 2."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    gens = [draw_binomial(draw, p, draw(st.integers(1, 2))) for _ in range(draw(st.integers(1, 3)))]
    return RingSpec(p, NAMES, gens)


@st.composite
def principal_ring(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    return RingSpec(p, NAMES, [draw_binomial(draw, p, draw(st.integers(1, 3)))])


@st.composite
def redundant_ring(draw):
    """Two binomials and a redundant third generator a*f_1 + b*f_2, with
    monomials a, b and a nonzero coefficient."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    f1, f2 = (draw_binomial(draw, p, draw(st.integers(1, 2))) for _ in range(2))
    top = max(f1.degree(), f2.degree()) + draw(st.integers(0, 1))
    a = draw(st.sampled_from(list(monomials_of_degree(3, top - f1.degree()))))
    b = draw(st.sampled_from(list(monomials_of_degree(3, top - f2.degree()))))
    f3 = f1.mul_term(a, 1) + f2.mul_term(b, draw(st.integers(1, p - 1)))
    assume(not f3.is_zero())
    return RingSpec(p, NAMES, [f1, f2, f3])


@st.composite
def non_ci_ring(draw):
    """(l*m_1, l*m_2) for a binomial linear form l and monomials m_1, m_2
    neither dividing the other: two minimal generators, height one."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    l = draw_binomial(draw, p, 1)
    monos = [m for d in (1, 2) for m in monomials_of_degree(3, d)]
    m1, m2 = draw(st.lists(st.sampled_from(monos), min_size=2, max_size=2, unique=True))
    assume(not any(all(a <= b for a, b in zip(u, v)) for u, v in ((m1, m2), (m2, m1))))
    return RingSpec(p, NAMES, [l.mul_term(m1, 1), l.mul_term(m2, 1)])


def f_purity_by_elimination(rs: RingSpec):
    """The verdict and the witness polynomials read off the reduced basis of
    the elimination colon (I^[p] : I)."""
    return fedder_reading(rs, colon_by_elimination(bracket_power(rs.ideal, 1), rs.ideal).groebner_basis())


def fedder_reading(rs: RingSpec, colon) -> tuple:
    """Fedder's verdict and witness polynomials from a reduced basis of (I^[p] : I)."""
    mp = bracket_power(rs.maximal_ideal(), 1)
    names = rs.ring.varnames
    outside = [g for g in colon if not mp.contains(g)]
    if outside:
        return True, poly_to_string(outside[0], names)
    return False, [poly_to_string(g, names) for g in colon]


def check_f_purity(rs: RingSpec, eliminates: bool):
    """is_f_pure and Fedder's criterion against the elimination colon, and
    the branch Fedder's colon took. A graded ring of dimension zero or one
    is decided by is_f_pure without the colon, so there only its verdict is
    compared, and Fedder's witness is read through is_f_pure_by_fedder."""
    expected = f_purity_by_elimination(rs)
    with mock.patch.object(pushforward, "ideal_colon", wraps=pushforward.ideal_colon) as spy:
        assert classify.is_f_pure(rs)[0] == expected[0]
    assert not spy.called or rs.dimension > 1
    with mock.patch.object(pushforward, "ideal_colon", wraps=pushforward.ideal_colon) as spy:
        verdict, witness = classify.is_f_pure_by_fedder(rs)
    witness = witness["splitting_witness" if verdict else "colon_generators"]
    assert spy.called == eliminates
    assert (verdict, witness) == expected


@PROPERTY
@given(binomial_ring())
@example(RingSpec(7, NAMES, ["x + y", "y + 2*z", "x^2 + z^2"]))  # Artinian, length 2
@example(RingSpec(3, NAMES, ["x + y", "y + z", "x + z"]))  # the field F_3
def test_f_purity_of_binomial_ideals_matches_elimination(rs):
    ci = pushforward._complete_intersection_generators(rs) is not None
    check_f_purity(rs, eliminates=not ci)


@PROPERTY
@given(principal_ring())
def test_f_purity_of_principal_ideals_matches_elimination(rs):
    assert len(pushforward._complete_intersection_generators(rs)) == 1
    check_f_purity(rs, eliminates=False)


@PROPERTY
@given(redundant_ring())
def test_f_purity_of_redundantly_given_complete_intersections(rs):
    fs = pushforward._complete_intersection_generators(rs)
    assume(fs is not None and len(fs) == 2)  # f_1, f_2 a regular sequence
    check_f_purity(rs, eliminates=False)


@PROPERTY
@given(non_ci_ring())
def test_f_purity_of_non_complete_intersections_eliminates(rs):
    assert rs.dimension == 2
    assert pushforward._complete_intersection_generators(rs) is None
    check_f_purity(rs, eliminates=True)


def test_f_purity_of_a_complete_intersection_at_p_31():
    rs = RingSpec(31, NAMES, ["x*y - 2*z^2", "x^2 - y*z"])
    assert len(pushforward._complete_intersection_generators(rs)) == 2
    check_f_purity(rs, eliminates=False)


@PROPERTY
@given(st.one_of(homogeneous_ring(), binomial_ring()))
def test_frobenius_powers_of_a_reduced_basis_are_reduced(rs):
    powers = tuple(g.frobenius_power(1) for g in rs.ideal.groebner_basis())
    assert bracket_power(rs.ideal, 1).groebner_basis() == powers


# -- Hilbert-series numerators against the Hilbert function ----------------------


def series_coefficient(num: Numerator, n: int, q: int, d: int) -> int:
    """The t^d coefficient of N(t) / (1 - t^q)^n, n >= 1: the series of
    1 / (1 - t^q)^n has comb(j + n - 1, n - 1) at t^(q*j)."""
    return sum(
        c * comb((d - k) // q + n - 1, n - 1)
        for k, c in num.items()
        if d >= k and (d - k) % q == 0
    )


@st.composite
def monomial_ideal(draw):
    """Zero to four monomials of F_p[x, y(, z)] (the unit monomial included)."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, 3))
    monos = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=4))
    return p, n, monos


@PROPERTY
@given(monomial_ideal())
def test_monomial_quotient_numerator_matches_oracle(case):
    p, n, monos = case
    num = monomial_quotient(monos, n)
    gens = [Polynomial.from_monomial(p, m) for m in monos]
    for d in range(6):
        assert series_coefficient(num, n, 1, d) == graded_dimension_oracle(gens, p, n, d)


@PROPERTY
@given(homogeneous_ring())
def test_ideal_hilbert_numerator_matches_oracle(rs):
    num = rs.ideal.hilbert_numerator()
    gens = list(rs.ideal.generators)
    for d in range(6):
        assert series_coefficient(num, rs.n, 1, d) == graded_dimension_oracle(gens, rs.p, rs.n, d)


@PROPERTY
@given(homogeneous_ring())
def test_hilbert_data_cancels_exactly_the_powers_of_one_minus_t(rs):
    data = rs.hilbert()
    assert data.multiplicity != 0  # the numerator is in lowest terms
    reduced = Numerator(dict(enumerate(data.numerator)))
    back = prod([Numerator({0: 1, 1: -1})] * (rs.n - data.dimension), start=reduced)
    assert back == rs.ideal.hilbert_numerator()


@st.composite
def small_ring(draw):
    """F_p[x(, y)] modulo one or two forms of degree 1 to 3, p = 2 or 3, so
    that F_*R has at most nine generators."""
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 2))
    gens = [draw_form(draw, p, n, draw(st.integers(1, 3))) for _ in range(draw(st.integers(1, 2)))]
    return RingSpec(p, NAMES[:n], gens)


@PROPERTY
@given(small_ring())
def test_pushforward_numerator_expands_to_its_hilbert_function(rs):
    push = frobenius_pushforward(rs)
    num = push.numerator_scaled()
    for d in range(4 * push.scale + 2):
        assert series_coefficient(num, rs.n, push.scale, d) == push.hf(d)


@st.composite
def graded_presentation(draw):
    """coker of a random homogeneous matrix over a homogeneous ring: one or
    two generators in degrees 0 to 2, zero to two relations."""
    rs = draw(homogeneous_ring())
    p, n = rs.p, rs.n
    rows = draw(st.lists(st.integers(0, 2), min_size=1, max_size=2))
    cols = [max(rows) + e for e in draw(st.lists(st.integers(0, 2), max_size=2))]
    matrix = [
        [draw_form(draw, p, n, c - r) if draw(st.booleans()) else Polynomial.zero(p, n) for c in cols]
        for r in rows
    ]
    return ModulePresentation(rs.ring, rs.ideal, columns_of_matrix(matrix, rs.ring), rows, cols)


@PROPERTY
@given(graded_presentation())
def test_presentation_numerator_expands_to_its_hilbert_function(pres):
    num = pres.numerator_scaled()
    for d in range(6):
        assert series_coefficient(num, pres.ring.n, 1, d) == pres.hf(d)


# -- exact division ---------------------------------------------------------------


@st.composite
def division_case(draw):
    """Two polynomials of F_p[x, y, z], not necessarily homogeneous, with up to
    four terms of exponents at most 2; the second one nonzero."""
    p = draw(st.sampled_from([2, 3, 5, 7]))

    def poly(min_size):
        terms = draw(st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * 3), st.integers(1, p - 1),
            min_size=min_size, max_size=4,
        ))
        return Polynomial(p, 3, terms)

    return poly(0), poly(1)


@PROPERTY
@given(division_case())
def test_divide_exact_inverts_multiplication(case):
    f, g = case
    one = Polynomial.constant(f.p, 3, 1)
    assert divide_exact(f * g, g) == f
    if not g.is_constant():
        # g divides f*g, so it does not divide f*g + 1
        with pytest.raises(ValueError):
            divide_exact(f * g + one, g)
