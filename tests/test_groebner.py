"""Groebner engine: bases, normal forms, ideal operations, Hilbert data."""

import random

import pytest
from oracles import graded_dimension_oracle, membership_oracle, random_homogeneous

from fpicheck.errors import NonHomogeneousError, NonPrimeError
from fpicheck.gfpoly import Polynomial, mono_divides
from fpicheck.groebner import (
    Ideal,
    PolyRing,
    RingSpec,
    bracket_power,
    hilbert_from_lead_monomials,
    ideal_colon,
    ideal_intersect,
    ideal_product,
    ideal_saturation,
    ideal_sum,
    in_radical,
    minimal_primes_monomial,
)

R3 = PolyRing(2, ["x", "y", "z"])
R2 = PolyRing(2, ["x", "y"])


def ideal(ring, *texts):
    return Ideal(ring, [ring.parse(t) for t in texts])


def flagship(p=2):
    return RingSpec(p, ["x", "y", "z"], ["x*y", "x*z", "y*z"])


# -- Groebner bases ------------------------------------------------------------


def test_basis_of_inhomogeneous_pair():
    # (x^2 - y, x) contains y = x*x - (x^2 - y), so the basis is (y, x),
    # sorted by lead, the smaller first
    basis = ideal(R2, "x^2 - y", "x").groebner_basis()
    assert [R2.show(g) for g in basis] == ["y", "x"]


def test_monomial_generators_are_their_own_basis():
    basis = ideal(R3, "x*y", "x*z", "y*z").groebner_basis()
    assert {R3.show(g) for g in basis} == {"x*y", "x*z", "y*z"}


def test_basis_is_reduced_and_monic():
    rng = random.Random(5)
    for p in (2, 3, 5):
        ring = PolyRing(p, ["x", "y", "z"])
        gens = [random_homogeneous(rng, p, 3, rng.randint(1, 3)) for _ in range(3)]
        basis = Ideal(ring, gens).groebner_basis()
        leads = [g.lead()[0] for g in basis]
        for i, g in enumerate(basis):
            assert g.lead()[1] == 1
            for m in g.terms:
                assert not any(
                    mono_divides(l, m) for j, l in enumerate(leads) if j != i
                )


def test_zero_and_unit_ideals():
    assert ideal(R3).is_zero()
    assert ideal(R3, "x + 1", "x").is_unit()
    assert not ideal(R3, "x").is_unit()


# -- normal forms vs the dense linear-algebra oracle ----------------------------


def test_normal_form_idempotent_and_linear():
    a = ideal(R3, "x*y", "x*z", "y*z")
    rng = random.Random(11)
    for _ in range(15):
        f = random_homogeneous(rng, 2, 3, rng.randint(1, 4))
        g = random_homogeneous(rng, 2, 3, rng.randint(1, 4))
        nf = a.normal_form
        assert nf(nf(f)) == nf(f)
        assert nf(f + g) == nf(nf(f) + nf(g))
        assert a.contains(f - nf(f))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_membership_matches_oracle(p):
    rng = random.Random(400 + p)
    for _ in range(12):
        nvars = rng.randint(1, 3)
        ring = PolyRing(p, ["x", "y", "z"][:nvars])
        gens = [
            random_homogeneous(rng, p, nvars, rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))
        ]
        a = Ideal(ring, gens)
        for _ in range(4):
            if rng.random() < 0.5:
                # random combination, guaranteed member
                f = Polynomial.zero(p, nvars)
                for g in gens:
                    f = f + g * random_homogeneous(rng, p, nvars, rng.randint(0, 2))
            else:
                f = random_homogeneous(rng, p, nvars, rng.randint(1, 4))
            assert a.contains(f) == membership_oracle(f, gens)


# -- ideal operations ------------------------------------------------------------


def test_colon_of_monomial_example():
    a = ideal(R3, "x*y", "x*z", "y*z")
    b = ideal(R3, "x")
    assert ideal_colon(a, b) == ideal(R3, "y", "z")


def test_colon_by_unit_and_self():
    a = ideal(R3, "x*y", "x*z")
    assert ideal_colon(a, ideal(R3, "1")) == a
    assert ideal_colon(a, a).contains(R3.one())


def test_colon_containment_property():
    rng = random.Random(19)
    for p in (2, 3):
        ring = PolyRing(p, ["x", "y"])
        for _ in range(10):
            a = Ideal(
                ring,
                [random_homogeneous(rng, p, 2, rng.randint(1, 3)) for _ in range(2)],
            )
            b = Ideal(
                ring,
                [random_homogeneous(rng, p, 2, rng.randint(1, 2)) for _ in range(2)],
            )
            q = ideal_colon(a, b)
            for f in q.generators:
                for g in b.generators:
                    assert a.contains(f * g)


def test_saturation_strips_finite_length_part():
    a = ideal(R2, "x^2", "x*y")
    m = ideal(R2, "x", "y")
    assert ideal_saturation(a, m) == ideal(R2, "x")


def test_saturation_of_primary_ideal_is_unit():
    assert ideal_saturation(ideal(R2, "x^2"), ideal(R2, "x")) == ideal(R2, "1")


def test_intersection_example():
    a = ideal(R3, "x", "y")
    b = ideal(R3, "x", "z")
    assert ideal_intersect(a, b) == ideal(R3, "x", "y*z")


def test_intersection_properties():
    rng = random.Random(23)
    ring = PolyRing(3, ["x", "y"])
    for _ in range(8):
        a = Ideal(ring, [random_homogeneous(rng, 3, 2, rng.randint(1, 3))])
        b = Ideal(ring, [random_homogeneous(rng, 3, 2, rng.randint(1, 3))])
        both = ideal_intersect(a, b)
        for f in both.generators:
            assert a.contains(f) and b.contains(f)
        prod = ideal_product(a, b)
        for f in prod.generators:
            assert both.contains(f)


def test_sum_contains_both_sides():
    a = ideal(R3, "x*y")
    b = ideal(R3, "y*z")
    s = ideal_sum(a, b)
    assert s.contains(R3.parse("x*y")) and s.contains(R3.parse("y*z"))


# -- Frobenius bracket powers -----------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_bracket_power_raises_generators(p):
    ring = PolyRing(p, ["x", "y"])
    a = Ideal(ring, [ring.parse("x + y"), ring.parse("x*y")])
    q = bracket_power(a, 1)
    assert q == Ideal(
        ring, [ring.parse("x + y") ** p, ring.parse("x*y") ** p]
    )


def test_bracket_power_composes_and_is_monotone():
    rng = random.Random(3)
    ring = PolyRing(2, ["x", "y", "z"])
    for _ in range(6):
        gens = [random_homogeneous(rng, 2, 3, rng.randint(1, 2)) for _ in range(2)]
        a = Ideal(ring, gens)
        assert bracket_power(bracket_power(a, 1), 2) == bracket_power(a, 3)
        bigger = Ideal(ring, gens + [random_homogeneous(rng, 2, 3, 2)])
        qa, qb = bracket_power(a, 2), bracket_power(bigger, 2)
        for f in qa.generators:
            assert qb.contains(f)


def test_radical_membership_tracks_bracket_powers():
    rng = random.Random(77)
    ring = PolyRing(3, ["x", "y"])
    for _ in range(8):
        a = Ideal(ring, [random_homogeneous(rng, 3, 2, rng.randint(1, 3))])
        q = bracket_power(a, 1)
        for degree in (1, 2):
            f = random_homogeneous(rng, 3, 2, degree)
            assert in_radical(f, a) == in_radical(f, q)


def test_in_radical_examples():
    a = ideal(R2, "x^2")
    assert in_radical(R2.parse("x"), a)
    assert not in_radical(R2.parse("y"), a)
    assert in_radical(R2.parse("x^3 + x^5"), a)


# -- Hilbert data -----------------------------------------------------------------


def test_flagship_hilbert_series():
    data = flagship().hilbert()
    assert data.dimension == 1
    assert data.numerator == (1, 2)
    assert data.colength is None
    assert data.multiplicity == 3


def test_artinian_colength():
    rs = RingSpec(2, ["x"], ["x^3"])
    data = rs.hilbert()
    assert data.dimension == 0
    assert data.colength == 3


def test_polynomial_ring_hilbert():
    rs = RingSpec(5, ["x", "y"], [])
    data = rs.hilbert()
    assert data.dimension == 2
    assert data.numerator == (1,)
    assert data.colength is None


def test_colength_counts_standard_monomials():
    rng = random.Random(41)
    for p in (2, 3):
        for _ in range(6):
            gens = []
            for i in range(2):
                e = rng.randint(1, 3)
                gens.append(f"x^{e}" if i == 0 else f"y^{e}")
            if rng.random() < 0.5:
                gens.append(f"x*y^{rng.randint(1, 2)}")
            rs = RingSpec(p, ["x", "y"], gens)
            data = rs.hilbert()
            count = sum(rs.hf(d) for d in range(10))
            assert data.colength == count


@pytest.mark.parametrize("p", [2, 3])
def test_hilbert_function_matches_rank_oracle(p):
    rng = random.Random(600 + p)
    for _ in range(6):
        gens = [
            random_homogeneous(rng, p, 3, rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))
        ]
        gens = [g for g in gens if not g.is_zero()]
        rs = RingSpec(p, ["x", "y", "z"], gens)
        for d in range(5):
            assert rs.hf(d) == graded_dimension_oracle(gens, p, 3, d)


def test_hilbert_from_lead_monomials_direct():
    data = hilbert_from_lead_monomials([(1, 1, 0), (1, 0, 1), (0, 1, 1)], 3)
    assert data.dimension == 1 and data.numerator == (1, 2)


# -- minimal primes of monomial ideals ---------------------------------------------


def test_minimal_primes_of_flagship():
    primes = minimal_primes_monomial(ideal(R3, "x*y", "x*z", "y*z"))
    assert sorted(sorted(c) for c in primes) == [[0, 1], [0, 2], [1, 2]]


def test_minimal_primes_counts():
    assert len(minimal_primes_monomial(ideal(R2, "x*y"))) == 2
    assert len(minimal_primes_monomial(ideal(R2, "x^2"))) == 1
    assert len(minimal_primes_monomial(ideal(R3, "x^2", "x*y", "y^3"))) == 1


def test_minimal_primes_are_hitting_sets():
    rng = random.Random(55)
    for _ in range(8):
        supports = []
        gens = []
        for _ in range(rng.randint(1, 4)):
            m = tuple(rng.randint(0, 2) for _ in range(3))
            if sum(m) == 0:
                continue
            gens.append(Polynomial.from_monomial(2, m))
            supports.append({i for i, e in enumerate(m) if e})
        if not gens:
            continue
        primes = minimal_primes_monomial(Ideal(R3, gens))
        for prime in primes:
            chosen = set(prime)
            assert all(chosen & s for s in supports)
            for drop in chosen:
                smaller = chosen - {drop}
                assert not all(smaller & s for s in supports)


# -- quotient ring helpers -----------------------------------------------------------


def test_ring_spec_validation():
    with pytest.raises(NonPrimeError):
        RingSpec(4, ["x"], ["x^2"])
    with pytest.raises(NonHomogeneousError):
        RingSpec(2, ["x", "y"], ["x^2 + x"])
    # the same generators pass once grading enforcement is waived
    rs = RingSpec(2, ["x", "y"], ["x^2 + x"], require_homogeneous=False)
    assert rs.nf(rs.ring.parse("x^2")) == rs.ring.parse("x")


def test_quotient_by_and_preimage():
    rs = flagship()
    ell = rs.ring.parse("x + y + z")
    rq = rs.quotient_by([ell])
    assert rq.dimension == 0
    assert rq.hilbert().colength == 3
    assert rs.preimage_ideal([rs.ring.parse("x")]).contains(rs.ring.parse("x*y"))


def test_is_nzd_flagship():
    rs = flagship()
    assert rs.is_nzd(rs.ring.parse("x + y + z"))
    assert not rs.is_nzd(rs.ring.parse("x"))
    assert not rs.is_nzd(rs.ring.parse("x + y"))


def test_ideal_eq_in_r():
    rs = flagship()
    one = [rs.ring.parse("x + y"), rs.ring.parse("y + z"), rs.ring.parse("z")]
    other = [rs.ring.parse("y"), rs.ring.parse("x"), rs.ring.parse("z")]
    assert rs.ideal_eq_in_r(one, other)
    assert not rs.ideal_eq_in_r([rs.ring.parse("x")], [rs.ring.parse("y")])
    # (x + y + z, x) is strictly smaller than the maximal ideal in R
    assert not rs.ideal_eq_in_r(
        [rs.ring.parse("x + y + z"), rs.ring.parse("x")], other
    )
