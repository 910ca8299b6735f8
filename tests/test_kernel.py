"""The one Groebner kernel behind ideals and modules: its pair criteria
against plain all-pairs Buchberger, its pair budget, and the module path
against a linear-algebra oracle."""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles import groebner_all_pairs, module_membership_oracle, syzygies_by_full_basis

from fpicheck.errors import ResourceLimitError
from fpicheck.gfpoly import Polynomial, mono_div, mono_lcm, monomials_of_degree
from fpicheck import groebner
from fpicheck.groebner import Ideal, PolyRing, buchberger, groebner_terms
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


def test_ideal_pair_budget_names_its_stage(monkeypatch):
    monkeypatch.setattr(groebner, "DEFAULT_MAX_PAIRS", 1)
    gens = [R.parse(t) for t in ("x^2 - y^2", "x*y", "x*y^2 + y^3")]
    with pytest.raises(ResourceLimitError, match="ideal Buchberger: S-pair budget of 1"):
        buchberger(gens)
    with pytest.raises(ResourceLimitError, match="ideal Buchberger"):
        Ideal(R, gens).groebner_basis()


def test_module_pair_budget_names_its_stage(monkeypatch):
    monkeypatch.setattr(groebner, "DEFAULT_MAX_PAIRS", 1)
    gens = [vec("x", "1"), vec("y", "1"), vec("x + y", "0")]
    with pytest.raises(ResourceLimitError, match="module Buchberger: S-pair budget of 1"):
        module_groebner(gens)
    with pytest.raises(ResourceLimitError, match="module Buchberger"):
        syzygy_basis(gens, nreal=2)


def test_ideal_and_rank_one_module_bases_agree():
    gens = [R.parse(t) for t in ("x^2 - y^2", "x*y", "x*y^2 + y^3")]
    ideal_gb = buchberger(gens)
    module_gb = module_groebner([Vec.from_polys([(0, f)]) for f in gens])
    assert [g.component(0) for g in module_gb] == ideal_gb


# -- the pair criteria against all-pairs Buchberger -------------------------------


@st.composite
def kernel_inputs(draw):
    """(term dicts, p): a homogeneous ideal of degree <= 3 in <= 3 variables,
    an inhomogeneous ideal of F_p[x, y] whose elements mix degrees 0 to 3,
    or a submodule of S^2 or S^3 over F_p[x, y]."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    family = draw(st.sampled_from(["graded", "inhomogeneous", "module"]))
    nvars = draw(st.integers(1, 3)) if family == "graded" else 2
    rank = draw(st.integers(2, 3)) if family == "module" else 1

    def element():
        d = draw(st.integers(0 if family == "module" else 1, 3))
        if family == "graded":
            terms = [(0, m) for m in monomials_of_degree(nvars, d)]
        else:
            terms = [
                (c, m) for c in range(rank) for e in range(d + 1)
                for m in monomials_of_degree(nvars, e)
            ]
        chosen = draw(st.lists(st.sampled_from(terms), min_size=1, max_size=4, unique=True))
        return {t: draw(st.integers(1, p - 1)) for t in chosen}

    return [element() for _ in range(draw(st.integers(1, 4)))], p


def terms_of(ring, *columns):
    """Term dicts from {component: polynomial text} columns over `ring`."""
    return [
        {(c, m): v for c, text in col.items() for m, v in ring.parse(text).terms.items()}
        for col in columns
    ]


R2 = PolyRing(2, ["x", "y"])
R5 = PolyRing(5, ["x", "y", "z"])


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kernel_inputs())
# B_k without its two guards drops both pairs of the chain and returns (x)
@example((terms_of(R, {0: "2*x^2*y + y^3"}, {0: "x^2*y"}, {0: "x"}), 3))
# monomial ideals with repeated and redundant generators
@example((terms_of(R5, *({0: t} for t in ("x*y", "x^2*y", "x*y", "z^3", "x*z", "y*z^2"))), 5))
@example((terms_of(R, *({0: t} for t in ("y^2", "x^3", "y^2", "x*y^2", "x^2*y"))), 3))
# an inhomogeneous ideal: x*(x*y + 1) - y*(x^2 - y) = x + y^2
@example((terms_of(R, {0: "x^2 - y"}, {0: "x*y + 1"}), 3))
# term modules with equal leads in several components
@example((terms_of(R2, {0: "x"}, {1: "x"}, {2: "x"}, {0: "x*y"}, {1: "x"}, {2: "y^2"}), 2))
# a term column beside polynomial columns
@example((terms_of(R, {0: "x*y"}, {0: "x^2", 1: "y"}, {0: "y^2", 1: "x"}, {1: "x*y + y^2"}), 3))
@example((terms_of(R5, {1: "x*z"}, {0: "x + y", 1: "z"}, {0: "y", 1: "x"}), 5))
def test_kernel_matches_all_pairs_buchberger(case):
    elems, p = case
    assert groebner_terms(elems, p, "test") == groebner_all_pairs(elems, p)


@st.composite
def all_term_inputs(draw):
    """(term dicts, p): single terms, zero elements among them, over
    F_p[x, ...] in S^1, S^2 or S^3. Terms may repeat, one monomial may lead
    in several components, and degree 0 gives the constant monomial."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    nvars = draw(st.integers(1, 3))
    rank = draw(st.integers(1, 3))
    terms = [(c, m) for c in range(rank) for d in range(4) for m in monomials_of_degree(nvars, d)]
    elems = []
    for t in draw(st.lists(st.sampled_from(terms), max_size=10)):
        elems.append({t: draw(st.integers(1, p - 1))})
        if draw(st.integers(0, 5)) == 0:
            elems.append({})
    return elems, p


def term_columns(ring, *cols):
    """Single-term dicts from (component, monomial text, coefficient) triples."""
    return [{(c, next(iter(ring.parse(t).terms))): v} for c, t, v in cols]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(all_term_inputs())
# a repeated term, a redundant one, and the constant monomial
@example((term_columns(R, (0, "x*y", 2), (0, "x^2*y", 1), (0, "x*y", 1), (0, "1", 2)), 3))
# one lead shared by three components, repeated in one of them
@example((term_columns(R5, (2, "x*z", 1), (0, "x*z", 3), (1, "x*z", 4), (0, "x*z", 1), (1, "z^2", 2)), 5))
@example((term_columns(R, (1, "y^2", 1), (0, "x^3", 2), (1, "x*y^2", 1), (0, "x*y", 1)), 3))
@example((term_columns(R, (0, "x*y^2", 1), (0, "y^3", 1), (0, "x^2", 2), (1, "y", 1)), 3))
def test_all_term_input_matches_all_pairs_buchberger(case):
    elems, p = case
    assert groebner_terms(elems, p, "test") == groebner_all_pairs(elems, p)


def test_all_term_input_keeps_every_term_past_the_syzygy_cutoff():
    # below the cutoff the minimal terms, one per lead; at and past it every
    # term, repeats included, in the kernel's order
    elems = term_columns(
        R, (0, "x^2", 1), (1, "x*y", 2), (2, "x", 1), (0, "x", 1), (1, "y", 1),
        (2, "1", 1), (1, "y", 2), (0, "x", 2), (1, "y^2", 1), (2, "x", 1),
    )
    want = term_columns(
        R, (2, "1", 1), (2, "x", 1), (2, "x", 1), (1, "y", 1), (1, "y", 1),
        (1, "y^2", 1), (1, "x*y", 1), (0, "x", 1),
    )
    assert groebner_terms(elems, 3, "test", syzygy_cutoff=1) == want


def test_syzygies_of_term_columns_are_the_pairwise_ones():
    # columns that are single terms: their syzygy module is generated by the
    # pairwise syzygies (l / m_i) e_i - (l / m_j) e_j, l = lcm(m_i, m_j), of
    # two columns in one component (Schreyer)
    ring = PolyRing(3, ["x", "y", "z"])
    cols = [(0, "x*y"), (0, "y*z"), (1, "x"), (0, "x^2"), (1, "y*z"), (1, "x"), (0, "z^2")]
    gens = [Vec.from_polys([(c, ring.parse(t))]) for c, t in cols]
    monos = [next(iter(ring.parse(t).terms)) for _, t in cols]
    pairwise = [
        Vec(3, 3, {(i, mono_div(l, monos[i])): 1, (j, mono_div(l, monos[j])): 2})
        for j in range(len(cols)) for i in range(j) if cols[i][0] == cols[j][0]
        for l in [mono_lcm(monos[i], monos[j])]
    ]
    syz = syzygy_basis(gens, nreal=2)
    degrees = [sum(m) for m in monos]
    assert all(module_membership_oracle(s, pairwise, degrees) for s in syz)
    assert all(module_membership_oracle(s, syz, degrees) for s in pairwise)


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
