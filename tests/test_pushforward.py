"""Frobenius pushforward presentations and the twisted dual into the ring."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import columns_of_matrix, twisted_hom_oracle

from fpicheck.artinian import ring_as_module
from fpicheck.gfpoly import Polynomial, mono_degree, monomials_of_degree
from fpicheck.groebner import RingSpec
from fpicheck.modgb import vec_nf_mod_ideal
from fpicheck.pushforward import (
    TwistedHom,
    frobenius_pushforward,
    hom_presentation,
    hom_pushforward_into_ring,
)
from fpicheck.resolutions import (
    ModulePresentation,
    hom_presentation_generic,
    is_free_rank_one,
    minimal_presentation,
)


def flagship(p=2):
    return RingSpec(p, ["x", "y", "z"], ["x*y", "x*z", "y*z"])


# -- pushforward presentation structure -----------------------------------------


@pytest.mark.parametrize(
    "p,nvars,e", [(2, 1, 1), (2, 2, 1), (3, 1, 1), (2, 1, 2), (3, 2, 1)]
)
def test_pushforward_shape(p, nvars, e):
    names = ["x", "y"][:nvars]
    gens = ["x^2"] if nvars == 1 else ["x^2", "x*y"]
    rs = RingSpec(p, names, gens)
    push = frobenius_pushforward(rs, e)
    q = p**e
    assert push.scale == q
    assert push.nrows == q**nvars
    assert push.row_twists[0] == 0
    assert max(push.row_twists) == nvars * (q - 1)


def test_pushforward_twists_are_box_degrees():
    push = frobenius_pushforward(RingSpec(2, ["x", "y"], ["x*y"]))
    assert push.row_twists == (0, 1, 1, 2)


@pytest.mark.parametrize(
    "gens,names,p",
    [
        (["x^2"], ["x"], 2),
        (["x*y"], ["x", "y"], 2),
        (["x*y"], ["x", "y"], 3),
        (["x*y", "x*z", "y*z"], ["x", "y", "z"], 2),
        (["x^2", "x*y", "y^2"], ["x", "y"], 2),
    ],
)
def test_pushforward_preserves_hilbert_function(gens, names, p):
    # F_*R equals R as a graded vector space once twists are scaled back
    rs = RingSpec(p, names, gens)
    push = frobenius_pushforward(rs)
    for d in range(8):
        assert push.hf(d) == rs.hf(d)


def test_pushforward_relations_expand_ideal_generators():
    rs = RingSpec(2, ["x", "y"], ["x*y"])
    push = frobenius_pushforward(rs)
    # each column is the q-adic expansion of g * x^b for an ideal generator g
    assert push.ncols == push.nrows  # one relation per box for one generator
    for j, ctw in enumerate(push.col_twists):
        assert ctw >= 2  # deg(x*y) plus the box degree


# -- the twisted dual W = Hom(F_*R, R) --------------------------------------------


def test_dual_of_dual_numbers_reproduces_known_numerator():
    rs = RingSpec(2, ["x"], ["x^2"])
    tw = hom_pushforward_into_ring(frobenius_pushforward(rs), rs)
    assert isinstance(tw, TwistedHom)
    assert dict(tw.numerator) == {1: 1, 2: 1, 3: -1, 4: -1}
    flag, twist = is_free_rank_one(tw.presentation)
    assert flag and twist == 1


def test_dual_numerator_examples():
    rs = RingSpec(3, ["x"], ["x^3"])
    tw = hom_pushforward_into_ring(frobenius_pushforward(rs), rs)
    assert dict(tw.numerator) == {4: 1, 5: 1, 6: 1, 7: -1, 8: -1, 9: -1}
    rs2 = flagship(2)
    tw2 = hom_pushforward_into_ring(frobenius_pushforward(rs2), rs2)
    assert dict(tw2.numerator) == {0: 1, 1: 3, 3: -6, 4: -3, 5: 3, 6: 2}


@pytest.mark.parametrize(
    "p,names,gens,expected",
    [
        (2, ["x"], ["x^2"], True),
        (3, ["x"], ["x^3"], True),
        (5, ["x"], ["x^2"], True),
        (2, ["x", "y"], ["x^2", "y^2"], True),
        (2, ["x", "y"], ["x*y"], True),
        (3, ["x", "y"], ["x*y"], True),
        (2, ["x", "y", "z"], ["x*y", "x*z", "y*z"], True),
        (3, ["x", "y", "z"], ["x*y", "x*z", "y*z"], True),
        (2, ["x", "y"], ["x^2", "x*y", "y^2"], False),
        (3, ["x", "y"], ["x^2", "x*y", "y^2"], False),
        (2, ["x", "y"], ["x^2", "x*y", "y^3"], False),
    ],
)
def test_dual_freeness_matches_frobenius_behaviour(p, names, gens, expected):
    # free rank one exactly when Frobenius fixes the injective hull (checked
    # independently by the classifier tests); these values are frozen
    rs = RingSpec(p, names, gens)
    tw = hom_pushforward_into_ring(frobenius_pushforward(rs), rs)
    flag, _ = is_free_rank_one(tw.presentation)
    assert flag == expected


def test_dual_generators_are_certified():
    rs = flagship(2)
    tw = hom_pushforward_into_ring(frobenius_pushforward(rs), rs)
    assert len(tw.generators) == len(tw.degrees)
    assert tw.presentation.nrows == len(tw.generators)
    # the dual of the flagship pushforward is free rank one on one generator
    assert len(tw.generators) == 1
    flag, twist = is_free_rank_one(tw.presentation)
    assert flag and twist == 0


# -- hom_presentation dispatch ------------------------------------------------------


def test_hom_presentation_routes_pushforward_to_twisted():
    rs = RingSpec(2, ["x"], ["x^2"])
    push = frobenius_pushforward(rs)
    viaa = hom_presentation(push, ring_as_module(rs))
    direct = hom_pushforward_into_ring(push, rs).presentation
    assert viaa.columns == direct.columns
    assert viaa.row_twists == direct.row_twists


def test_hom_presentation_routes_plain_modules_to_generic():
    rs = RingSpec(2, ["x"], ["x^3"])
    r = ring_as_module(rs)
    viaa = hom_presentation(r, r)
    direct = hom_presentation_generic(r, r)
    assert viaa.row_twists == direct.row_twists


def test_lifted_hom_requires_the_ring_as_target():
    rs = RingSpec(2, ["x", "y"], ["x*y"])
    push = frobenius_pushforward(rs)
    k = ModulePresentation(
        rs.ring,
        rs.ideal,
        columns_of_matrix([[rs.ring.parse("x"), rs.ring.parse("y")]], rs.ring),
        (0,),
        (1, 1),
    )
    with pytest.raises(ValueError):
        hom_presentation(push, k)


def test_twisted_dual_rejects_plain_presentations():
    rs = RingSpec(2, ["x", "y"], ["x*y"])
    with pytest.raises(ValueError):
        hom_pushforward_into_ring(ring_as_module(rs), rs)


# -- Fedder's route against the transposed relations and the twisted oracle -------

# (p, e, n) with q^n <= 32, q = p^e
SMALL_PUSHFORWARDS = [
    (p, e, n)
    for p in (2, 3, 5)
    for e in (1, 2)
    for n in (1, 2, 3)
    if (p**e) ** n <= 32
]


@st.composite
def pushforward_case(draw):
    """A ring F_p[x, y, z][:n]/I with one to four homogeneous generators of
    degree two or three, each of one or two terms, and an exponent e with
    q^n <= 32."""
    p, e, n = draw(st.sampled_from(SMALL_PUSHFORWARDS))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.integers(2, 3))
        monos = sorted(monomials_of_degree(n, d))
        chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=2, unique=True))
        coeffs = draw(st.lists(st.integers(1, p - 1), min_size=len(chosen), max_size=len(chosen)))
        gens.append(Polynomial(p, n, dict(zip(chosen, coeffs))))
    return RingSpec(p, ["x", "y", "z"][:n], gens), e


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pushforward_case())
def test_dual_generators_are_killed_by_the_transposed_relations(case):
    # each generator phi is a map F_*R -> R: its coordinates are normal forms
    # mod I, homogeneous of its recorded scaled degree, and sum_b A_bj phi(e_b)
    # lies in I for every relation column j of the pushforward
    rs, e = case
    push = frobenius_pushforward(rs, e)
    tw = hom_pushforward_into_ring(push, rs)
    columns = [col.as_poly_dict() for col in push.columns]
    for v, degree in zip(tw.generators, tw.degrees):
        assert not v.is_zero()
        assert vec_nf_mod_ideal(v, rs.ideal) == v
        assert {push.scale * mono_degree(m) - push.row_twists[b] for b, m in v.terms} == {degree}
        phi = v.as_poly_dict()
        for col in columns:
            total = rs.ring.zero()
            for b, a in col.items():
                if b in phi:
                    total = total + a * phi[b]
            assert rs.nf(total).is_zero()


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pushforward_case())
def test_fedder_dual_matches_the_twisted_kernel_route(case):
    rs, e = case
    push = frobenius_pushforward(rs, e)
    tw = hom_pushforward_into_ring(push, rs)
    ref = twisted_hom_oracle(push, rs)
    assert is_free_rank_one(tw.presentation) == is_free_rank_one(ref.presentation)
    assert tw.numerator == ref.numerator
    assert minimal_presentation(tw.presentation).nrows == minimal_presentation(ref.presentation).nrows
    assert len(tw.generators) == len(ref.generators)
    assert sorted(tw.degrees) == sorted(ref.degrees)
