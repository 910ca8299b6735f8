"""The one Groebner kernel behind ideals and modules: its pair criteria, its
pair budget, and the module path against a linear-algebra oracle."""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles import module_membership_oracle, syzygies_by_full_basis

from fpicheck.errors import ResourceLimitError
from fpicheck.gfpoly import Polynomial, monomials_of_degree
from fpicheck.groebner import Ideal, PolyRing, buchberger
from fpicheck.modgb import Vec, module_contains, module_groebner, syzygy_basis

R = PolyRing(3, ["x", "y"])


def vec(*entries):
    return Vec.from_polys((i, R.parse(t)) for i, t in enumerate(entries) if t != "0")


# -- pair criteria and budget ------------------------------------------------------


def test_coprime_leads_in_a_shared_component_still_pair():
    # the leads x*e0 and y*e0 are coprime, yet y*v1 - x*v2 = (0, y - x): the
    # coprime-lead criterion holds only for elements living in one component
    v1, v2 = vec("x", "1"), vec("y", "1")
    assert module_contains(vec("0", "x - y"), [v1, v2])
    assert not module_contains(vec("0", "x"), [v1, v2])


def test_ideal_pair_budget_names_its_stage():
    gens = [R.parse(t) for t in ("x^2 - y^2", "x*y", "x*y^2 + y^3")]
    with pytest.raises(ResourceLimitError, match="ideal Buchberger: S-pair budget of 1"):
        buchberger(gens, max_pairs=1)
    with pytest.raises(ResourceLimitError, match="ideal Buchberger"):
        Ideal(R, gens).groebner_basis(max_pairs=1)


def test_module_pair_budget_names_its_stage():
    gens = [vec("x", "1"), vec("y", "1"), vec("x + y", "0")]
    with pytest.raises(ResourceLimitError, match="module Buchberger: S-pair budget of 1"):
        module_groebner(gens, max_pairs=1)
    with pytest.raises(ResourceLimitError, match="module Buchberger"):
        syzygy_basis(gens, nreal=2, max_pairs=1)


def test_ideal_and_rank_one_module_bases_agree():
    gens = [R.parse(t) for t in ("x^2 - y^2", "x*y", "x*y^2 + y^3")]
    ideal_gb = buchberger(gens)
    module_gb = module_groebner([Vec.from_polys([(0, f)]) for f in gens])
    assert [g.component(0) for g in module_gb] == ideal_gb


# -- the module path against the oracle ------------------------------------------


@st.composite
def graded_rank_two(draw):
    """Generators and a target in S^2 over F_p[x, y], homogeneous for twists
    (0, t). The target is a combination of the generators plus, half the
    time, a random vector of the same degree."""
    p = draw(st.sampled_from([2, 3, 5]))
    twists = (0, draw(st.integers(0, 1)))

    def form(d):
        if d < 0:
            return {}
        monos = list(monomials_of_degree(2, d))
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(monos), max_size=len(monos)))
        return {m: c for m, c in zip(monos, coeffs) if c}

    def vector(d):
        return Vec(p, 2, {(c, m): a for c, t in enumerate(twists) for m, a in form(d - t).items()})

    gens = [vector(draw(st.integers(1, 3))) for _ in range(draw(st.integers(1, 3)))]
    d = draw(st.integers(1, 4))
    target = vector(d) if draw(st.booleans()) else Vec.zero(p, 2)
    for g in gens:
        e = g.degree_with_twists(twists)
        if g.terms and e <= d:
            target = target + g.mul_poly(Polynomial(p, 2, form(d - e)))
    return p, twists, gens, target


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graded_rank_two())
def test_module_membership_matches_oracle(case):
    p, twists, gens, target = case
    assert module_contains(target, gens) == module_membership_oracle(target, gens, twists)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graded_rank_two())
def test_syzygies_kill_the_generators(case):
    p, _, gens, _ = case
    gens = [g for g in gens if g.terms]
    for s in syzygy_basis(gens, nreal=2):
        total = Vec.zero(p, 2)
        for i, g in enumerate(gens):
            total = total + g.mul_poly(s.component(i))
        assert total.is_zero()


def _tagged_with_a_divisible_lead():
    """Columns in S^2, twists (0, 1), over F_2[x, y, z] whose cutoff basis has
    two tag-led elements, one lead dividing the other, where the one with
    the divisible lead lies outside the span of the rest."""
    ring = PolyRing(2, ["x", "y", "z"])
    cols = [
        {1: "x"}, {0: "y^2", 1: "x + y"}, {0: "x*y + y^2", 1: "z"},
        {0: "x^2 + y*z"}, {1: "x^2 + y*z"},
    ]
    gens = [Vec.from_polys((c, ring.parse(t)) for c, t in col.items()) for col in cols]
    return 2, (0, 1), gens, Vec.zero(2, 3)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graded_rank_two())
@example(_tagged_with_a_divisible_lead())
def test_syzygy_basis_generates_every_syzygy(case):
    _, twists, gens, _ = case
    gens = [g for g in gens if g.terms]
    if not gens:
        return
    syz = syzygy_basis(gens, nreal=2)
    degrees = [g.degree_with_twists(twists) for g in gens]
    for s in syzygies_by_full_basis(gens, 2):
        assert module_membership_oracle(s, syz, degrees)
