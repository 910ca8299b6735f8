"""Verdict layer: nonzerodivisors, Gorenstein, F-purity, canonical ideals."""

import csv
import io
import json
import signal
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    artinian_rings,
    curve_rings,
    generically_gorenstein_by_socles,
    graded_curves,
    minimal_ideal_generators_oracle,
    moved_axes_rings,
    nzd_inside_ideal,
    nzds_oracle,
    random_homogeneous,
)

from fpicheck import classify, cli, pushforward, resolutions
from fpicheck.artinian import frobenius_fixes_injective_hull, ring_as_module
from fpicheck.classify import (
    canonical_ideal,
    classify_ring,
    find_nzds,
    ideals_isomorphic,
    is_f_pure,
    is_f_pure_by_fedder,
    is_gorenstein,
    minimal_ideal_generators,
    minimal_prime_count,
    monomial_generically_gorenstein,
    report_is_decisive,
)
from fpicheck.errors import (
    NoNzdFoundError,
    NonHomogeneousError,
    NotCohenMacaulayError,
    PipelineInvariantError,
    ResourceLimitError,
    UnsupportedDimensionError,
)
from fpicheck.gfpoly import Polynomial, monomials_of_degree, poly_to_string
from fpicheck.groebner import RingSpec, bracket_power, ideal_colon
from fpicheck.resolutions import ring_depth


def flagship(p=2):
    return RingSpec(p, ["x", "y", "z"], ["x*y", "x*z", "y*z"])


def coordinate_cross(p=2):
    return RingSpec(p, ["x", "y"], ["x*y"])


# -- nonzerodivisor search ----------------------------------------------------


def test_flagship_linear_nzd():
    rs = flagship()
    found = find_nzds(rs)
    assert found == rs.ring.parse("x + y + z")
    assert rs.is_nzd(found)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_found_nzds_are_verified_and_distinct(p):
    # find_nzds returns the first NZD of the search that the oracle carries
    # on to a second, distinct one
    rs = flagship(p)
    found = find_nzds(rs)
    first, second = nzds_oracle(rs, count=2)
    assert found == first != second
    for f in (first, second):
        assert rs.is_nzd(f)


def test_a_search_of_no_degree_is_refused():
    # with max_degree 0 no degree is searched, so a miss would claim a
    # complete search that never ran
    rs = flagship(3)
    for call in (lambda: find_nzds(rs, max_degree=0), lambda: classify_ring(rs, max_degree=0)):
        with pytest.raises(ValueError, match="max_degree must be at least 1, got 0"):
            call()


def test_depth_zero_ring_has_no_nzd():
    rs = RingSpec(2, ["x", "y"], ["x^2", "x*y"])
    with pytest.raises(NoNzdFoundError):
        find_nzds(rs, max_degree=2)


def test_a_walk_on_a_ring_that_is_not_cohen_macaulay_is_incomplete():
    # dimension 2, depth 0, e = 1: the 57 linear lines are tried one by one,
    # but the quadrics are past the cap and walked for e(k - 1) + 1 = 6 <= 8
    # points, a bound on the associated primes that only Ass R = Min R gives
    rs = RingSpec(7, ["x", "y", "z"], ["x^2", "x*y", "x*z"])
    assert (rs.dimension, ring_depth(rs)) == (2, 0)
    with pytest.raises(NoNzdFoundError) as info:
        find_nzds(rs)
    message = str(info.value)
    assert "searched completely" not in message
    assert "degree 2 was incomplete: R is not Cohen-Macaulay" in message
    assert "Ass R = Min R" in message


def test_cross_skips_axis_zerodivisors():
    # x and y each kill a branch of k[x,y]/(xy); x + y misses both branches
    rs = coordinate_cross(2)
    found = find_nzds(rs)
    assert found == rs.ring.parse("x + y")
    assert rs.is_nzd(found)


# the largest prime require_prime accepts: the linear forms span about p^2 lines
TOP_P = 2147483647


@contextmanager
def deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"not done within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_nzds_at_the_top_of_the_prime_range():
    rs = flagship(TOP_P)
    with deadline(20):
        found = find_nzds(rs)
        first, second = nzds_oracle(rs, count=2)
    assert found == first != second
    assert found.degree() == 1
    assert all(rs.is_nzd(f) for f in (first, second))


def test_frobenius_hull_at_the_top_of_the_prime_range():
    # every entry of the presentation of E has positive degree and the top
    # degree of R is 2, so at this p every Frobenius entry is 0 in R and
    # F(E) is free of rank 2, the number of generators of E
    rs = RingSpec(TOP_P, ["x", "y"], ["x^2 - 3*x*y + 2*y^2", "x^3", "y^3"])
    with deadline(20):
        fixed, w = frobenius_fixes_injective_hull(rs)
    assert fixed is False
    assert (w["length_FE"], w["socle_FE"], w["frobenius_image_injective"]) == (10, 4, "false")


def test_sampled_linear_nzds_may_need_every_variable():
    # on the five coordinate axes a linear form is a non-zero-divisor only
    # when all five coefficients are nonzero; at p = 11 the 16105 lines of
    # linear forms are past the cap, so the draws must be dense
    names = ["v", "w", "x", "y", "z"]
    rs = RingSpec(11, names, [f"{a}*{b}" for i, a in enumerate(names) for b in names[i + 1:]])
    found = find_nzds(rs)
    assert found.degree() == 1
    assert {m.index(1) for m in found.terms} == set(range(5))
    assert rs.is_nzd(found)


def test_classify_at_the_top_of_the_prime_range():
    rs = RingSpec(TOP_P, ["x", "y", "z"], ["x^2", "x*y", "y*z"])
    with deadline(20):
        report = classify_ring(rs)
    assert report.cohen_macaulay is True
    assert report.gorenstein is False
    assert report.f_pure is False
    assert report.weakly_fpi == "false"


def test_the_axes_decide_fpi_at_the_top_of_the_prime_range():
    # omega^[p] has generators of degree p; the verdict reads their syzygies
    # modulo l over R/lR and forms no colon with them
    with deadline(20):
        report = classify_ring(flagship(TOP_P), check="all")
    assert report.weakly_fpi == "true"
    assert report.fpi_witness["socle_dimension"] == 1
    checks = {c["name"]: c["status"] for c in report.cross_checks}
    assert checks["f_pure_implies_fpi_in_dimension_one"] == "confirmed"


def test_fedder_power_past_its_term_cap_names_its_stage(tmp_path, capsys):
    # u = x^2 - y*z has two terms, so u^(p-1) may have p of them; at
    # p = 307 that is inside the cap and the colon answers
    assert is_f_pure(RingSpec(307, ["x", "y", "z"], ["x^2 - y*z"]))[0] is True
    spec = tmp_path / "cone.txt"
    spec.write_text(f"p = {TOP_P}\nvars = x, y, z\nideal = x^2 - y*z\n")
    with deadline(20):
        code = cli.main(["report", "--check", "fpure", "--input", str(spec)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: F-purity (Fedder colon): ")


def moved_axes(p):
    """The axes (l1*l2, l1*l3, l2*l3) in the coordinates l1 = x + 2y + 3z,
    l2 = y + 5z, l3 = x + 7y + 11z: F-pure, and no generator is a monomial."""
    ring = RingSpec(p, ["x", "y", "z"], []).ring
    l1, l2, l3 = (ring.parse(f) for f in ("x + 2*y + 3*z", "y + 5*z", "x + 7*y + 11*z"))
    return RingSpec(p, ["x", "y", "z"], [l1 * l2, l1 * l3, l2 * l3])


def cone_curve(p):
    """The complete intersection (xy - 2z^2, x^2 - yz): a Gorenstein curve
    of multiplicity 4 with HF(1) = 3, so not F-pure."""
    return RingSpec(p, ["x", "y", "z"], ["x*y - 2*z^2", "x^2 - y*z"])


def test_the_cone_curve_is_a_census_verdict_row_at_the_top_of_the_prime_range(monkeypatch):
    # Fedder's power (f_1 f_2)^(p-1) would be past its term cap here; the
    # multiplicity decides F-purity without it, and the row gets verdicts
    monkeypatch.setattr(cli, "_census_rings", lambda config: iter([cone_curve(TOP_P)]))
    out = io.StringIO()
    with deadline(20):
        summary = cli.run_census(cli.CensusConfig(primes=(TOP_P,)), out)
    assert summary["errors"] == 0
    row = dict(zip(cli.CSV_COLUMNS, list(csv.reader(io.StringIO(out.getvalue())))[1]))
    assert {k: row[k] for k in ("dim", "CM", "Gorenstein", "F-pure", "FPI", "caveat")} == {
        "dim": "1", "CM": "true", "Gorenstein": "true", "F-pure": "false", "FPI": "true", "caveat": "",
    }


def test_a_resource_limit_ends_its_census_row_not_the_census(monkeypatch):
    # a dimension-one stage that refuses the first ring: that row is an
    # error row naming the stage, and the next ring still gets its verdicts
    refused = cone_curve(5)
    canonical = classify.canonical_ideal

    def refuse_first(rs, *args, **kwargs):
        if rs is refused:
            raise ResourceLimitError("canonical ideal: budget exhausted")
        return canonical(rs, *args, **kwargs)

    monkeypatch.setattr(classify, "canonical_ideal", refuse_first)
    monkeypatch.setattr(cli, "_census_rings", lambda config: iter([refused, flagship(5)]))
    out = io.StringIO()
    summary = cli.run_census(cli.CensusConfig(primes=(5,)), out)
    assert (summary["rows"], summary["errors"], summary["fpi_true"]) == (2, 1, 1)
    rows = [dict(zip(cli.CSV_COLUMNS, r)) for r in list(csv.reader(io.StringIO(out.getvalue())))[1:3]]
    assert rows[0]["dim"] == "1"
    assert rows[0]["caveat"] == "error: canonical ideal: budget exhausted"
    assert (rows[1]["F-pure"], rows[1]["FPI"], rows[1]["caveat"]) == ("true", "true", "")


@pytest.mark.parametrize("ring, check, f_pure, witness, fpi", [
    ("moved-axes", "all", True, ("frobenius_rank", 3), "true"),
    ("moved-axes", "fpure", True, ("frobenius_rank", 3), None),
    ("cone", "all", False, ("multiplicity", 4), "true"),
])
def test_reports_at_the_top_of_the_prime_range(tmp_path, capsys, ring, check, f_pure, witness, fpi):
    # no Fedder colon and no degree-p division: F-purity reads Frobenius on
    # R_1 through square-and-multiply normal forms, and so does the bracket
    # of the canonical ideal
    rs = {"moved-axes": moved_axes, "cone": cone_curve}[ring](TOP_P)
    gens = ", ".join(poly_to_string(g, ["x", "y", "z"]) for g in rs.ideal.generators)
    spec = tmp_path / "ring.txt"
    spec.write_text(f"p = {TOP_P}\nvars = x, y, z\nideal = {gens}\n")
    with deadline(20):
        code = cli.main(["report", "--check", check, "--input", str(spec)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (report["f_pure"], report["weakly_fpi"]) == (f_pure, fpi)
    key, value = witness
    assert report["f_pure_witness"][key] == value


# -- Gorenstein ---------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3])
def test_cross_is_gorenstein(p):
    rs = coordinate_cross(p)
    flag, witness = is_gorenstein(rs)
    assert flag
    assert witness["socle_dimension"] == 1


def test_flagship_is_not_gorenstein():
    flag, witness = is_gorenstein(flagship())
    assert not flag
    assert witness["socle_dimension"] == 2
    assert witness["last_betti_number"] == 2


def test_artinian_gorenstein_cases():
    flag, _ = is_gorenstein(RingSpec(2, ["x"], ["x^2"]))
    assert flag
    flag, _ = is_gorenstein(RingSpec(2, ["x", "y"], ["x^2", "x*y", "y^2"]))
    assert not flag


def test_depth_zero_is_not_gorenstein_in_dim_one():
    flag, witness = is_gorenstein(RingSpec(2, ["x", "y"], ["x^2", "x*y"]))
    assert not flag
    assert "depth" in str(witness)


def test_gorenstein_is_parameter_independent():
    rs = flagship(3)
    first, second = nzds_oracle(rs, count=2)
    one, w_one = is_gorenstein(rs, nzd=first)
    other, w_other = is_gorenstein(rs, nzd=second)
    assert one == other is False
    assert w_one["socle_dimension"] == w_other["socle_dimension"] == 2


# -- F-purity ----------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_flagship_is_f_pure(p):
    rs = flagship(p)
    assert is_f_pure(rs) == (True, {
        "multiplicity": 3,
        "hilbert_function_1": 3,
        "frobenius_rank": 3,
        "statement": "with e = HF(1) the curve is F-pure exactly when "
        "u -> u^p is injective on R_1, that is of rank HF(1)",
    })
    # Fedder's criterion, the oracle in dimension one, names a splitting element
    flag, witness = is_f_pure_by_fedder(rs)
    assert flag
    w = witness["splitting_witness"]
    mono = rs.ring.parse(w) if isinstance(w, str) else w
    mp = bracket_power(rs.maximal_ideal(), 1)
    assert not mp.contains(mono)
    colon = ideal_colon(bracket_power(rs.ideal, 1), rs.ideal)
    assert colon.contains(mono)


def test_cusp_is_not_f_pure_at_p_three():
    rs = RingSpec(3, ["x", "y"], ["y^2 - x^3"])
    flag, witness = is_f_pure(rs)
    assert not flag
    # the whole colon ideal lands inside the bracket of the maximal ideal
    mp = bracket_power(rs.maximal_ideal(), 1)
    colon = ideal_colon(bracket_power(rs.ideal, 1), rs.ideal)
    for g in colon.groebner_basis():
        assert mp.contains(g)
    # and the square of the defining equation is the dominant colon generator
    f = rs.ring.parse("y^2 - x^3")
    assert colon.contains(f * f)


def test_non_reduced_ring_is_not_f_pure():
    flag, _ = is_f_pure(RingSpec(2, ["x"], ["x^2"]))
    assert not flag


def test_field_in_no_variables_is_f_pure():
    # (I^[p] : I) = (1), and the term 1 has no exponent reaching p
    assert is_f_pure(RingSpec(2, [], []))[0] is True


@pytest.mark.parametrize("p", [2, 3])
def test_cross_is_f_pure(p):
    flag, _ = is_f_pure(coordinate_cross(p))
    assert flag


def fedder_verdict(rs: RingSpec) -> bool:
    """Fedder's criterion on its own: (I^[p] : I) not inside (x_1^p, ..., x_n^p)."""
    mp = bracket_power(rs.maximal_ideal(), 1)
    return not all(mp.contains(g) for g in pushforward.frobenius_colon(rs).groebner_basis())


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(artinian_rings())
@example(RingSpec(3, ["x", "y"], ["x", "y"]))
@example(RingSpec(3, ["x", "y"], ["x^2", "y"]))
@example(RingSpec(5, ["x", "y", "z"], ["x", "y^2", "z"]))
def test_artinian_ring_is_f_pure_exactly_when_it_is_the_field(rs):
    # F-pure rings are reduced, and the one reduced graded Artinian ring is
    # F_p; is_f_pure reads the length, so Fedder's colon is the oracle, and
    # the rings of length 2 catch a length bound above 1
    assert is_f_pure(rs)[0] == fedder_verdict(rs) == (rs.ideal == rs.maximal_ideal())


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(graded_curves())
@example(cone_curve(5))  # a domain, so Frobenius is injective, but e = 4 != HF(1) = 3
@example(RingSpec(5, ["x", "y"], ["x^2"]))  # e = HF(1) = 2 and x^5 = 0: rank 1
@example(RingSpec(2, ["x", "y"], ["x^2", "x*y"]))  # depth 0
@example(RingSpec(101, ["x", "y"], ["x*y"]))  # the cross, F-pure
def test_curve_f_purity_matches_fedder(rs):
    # a homogeneous curve is decided on R_1 without Fedder's colon, which
    # stays the oracle
    with mock.patch.object(classify, "frobenius_colon", side_effect=AssertionError):
        flag, witness = is_f_pure(rs)
    assert flag == fedder_verdict(rs)
    e, hf1 = rs.hilbert().multiplicity, rs.hf(1)
    if ring_depth(rs) == 0:
        assert witness["depth"] == 0 and not flag
    elif e != hf1:
        assert (witness["multiplicity"], witness["hilbert_function_1"]) == (e, hf1)
        assert not flag
    else:
        assert witness["frobenius_rank"] <= hf1 == e
        assert flag == (witness["frobenius_rank"] == hf1)


@st.composite
def curves_with_forms(draw):
    """A graded curve and a form of degree 1 or 2 over it, with random
    coefficients."""
    rs = draw(graded_curves())
    monos = list(monomials_of_degree(rs.n, draw(st.integers(1, 2))))
    coeffs = draw(st.lists(st.integers(0, rs.p - 1), min_size=len(monos), max_size=len(monos)))
    return rs, Polynomial(rs.p, rs.n, dict(zip(monos, coeffs)))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(curves_with_forms(), st.integers(0, 9))
def test_nf_power_matches_the_reduced_power(case, e):
    rs, g = case
    assert rs.nf_power(g, rs.p) == rs.nf(g.frobenius_power(1))
    assert rs.nf_power(g, e) == rs.nf(g ** e)


@pytest.mark.parametrize("gens", [["x^2", "y"], ["x^2", "x*y", "y^3"], ["x", "y"]])
def test_fedder_colon_is_not_needed_in_dimension_zero(monkeypatch, gens):
    rs = RingSpec(3, ["x", "y"], gens)

    def refuse(*args):
        raise AssertionError("Fedder's colon was formed for a graded Artinian ring")

    monkeypatch.setattr(classify, "frobenius_colon", refuse)
    flag, witness = is_f_pure(rs)
    assert flag == (gens == ["x", "y"])
    assert witness["length"] == rs.hilbert().colength


def test_artinian_f_purity_at_the_top_of_the_prime_range():
    # Fedder's colon on degree-p generators does not end here; the length does
    rs = RingSpec(TOP_P, ["x", "y"], ["x^2 - 3*x*y + 2*y^2", "x^3", "y^3"])
    with deadline(20):
        report = classify_ring(rs)
    assert report.f_pure is False
    assert report.f_pure_witness["length"] == 5


@st.composite
def colon_bases(draw):
    """A prime, a variable count and a few polynomials whose exponents sit
    at and around p, standing in for the basis of (I^[p] : I)."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(2, 3))
    exponent = st.sampled_from([0, 1, p - 1, p, p + 1, 2 * p])
    term = st.tuples(*[exponent] * n)
    polys = [
        Polynomial(p, n, dict.fromkeys(draw(st.lists(term, min_size=1, max_size=4)), 1))
        for _ in range(draw(st.integers(1, 4)))
    ]
    return p, n, polys


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(colon_bases())
@example((2, 2, [Polynomial(2, 2, {(2, 0): 1, (0, 2): 1})]))
@example((7, 3, [Polynomial(7, 3, {(7, 0, 0): 1}), Polynomial(7, 3, {(6, 6, 6): 1, (0, 0, 7): 1})]))
def test_fedder_containment_matches_ideal_membership(case):
    # the colon basis is stubbed, so only the containment test in
    # (x_1^p, ..., x_n^p) decides the verdict and the witness
    p, n, polys = case
    names = ["x", "y", "z"][:n]
    rs = RingSpec(p, names, ["x*y"])
    mp = bracket_power(rs.maximal_ideal(), 1)
    outside = next((g for g in polys if not mp.contains(g)), None)
    colon = SimpleNamespace(groebner_basis=lambda: polys)
    with mock.patch.object(classify, "frobenius_colon", lambda rs: colon):
        flag, witness = is_f_pure_by_fedder(rs)
    assert flag == (outside is not None)
    if outside is not None:
        assert witness["splitting_witness"] == poly_to_string(outside, names)


# Two rings of the seed-0 binomial census at p = 7 that are not complete
# intersections, so their colon (I^[p] : I) comes from `ideal_colon`; the
# witnesses are the reduced basis of that colon, pinned byte for byte.
PINNED_COLON_WITNESSES = [
    (
        ["y + z", "2*x*y + x*z", "y*z + 5*z^2"],
        ["y^7 + z^7", "z^14", "x^7*z^7", "y^6*z^13", "x^7*y^6*z^6",
         "x^6*y^6*z^12 + 6*x^6*y^5*z^13"],
    ),
    (
        ["x*y + 5*z^2", "3*x*z + z^2", "y*z"],
        ["y^7*z^7", "x^7*z^7 + 5*z^14", "x^7*y^7 + 5*z^14", "z^21",
         "x^6*y^13*z^6", "x^13*y^6*z^6 + 5*x^6*y^6*z^13", "y^6*z^20",
         "x^6*z^20", "x^6*y^6*z^18 + 2*x^5*y^6*z^19 + 2*x^5*y^5*z^20"],
    ),
]


@pytest.mark.parametrize("gens, colon_generators", PINNED_COLON_WITNESSES)
def test_f_purity_witness_through_the_colon_is_pinned(gens, colon_generators):
    rs = RingSpec(7, ["x", "y", "z"], gens)
    with mock.patch.object(pushforward, "ideal_colon", wraps=pushforward.ideal_colon) as spy:
        flag, witness = is_f_pure_by_fedder(rs)
    assert spy.called
    assert flag is False is is_f_pure(rs)[0]
    assert witness == {
        "colon_generators": colon_generators,
        "statement": "every generator of (I^[p] : I) lies in (x_1^p, ..., x_n^p)",
    }


# -- generator minimization and minimal primes ------------------------------------------


def test_minimal_ideal_generators_drop_redundancy():
    rs = flagship()
    gens = [
        rs.ring.parse("x"),
        rs.ring.parse("x + y"),
        rs.ring.parse("y"),
        rs.ring.parse("x*y"),
    ]
    minimal = minimal_ideal_generators(rs, gens)
    assert len(minimal) == 2
    assert rs.ideal_eq_in_r(minimal, gens)


@st.composite
def ideal_generator_lists(draw):
    """A ring and up to six homogeneous elements: random ones of degree 0..3,
    scalar multiples of earlier ones, elements of I, and combinations of two
    earlier elements plus an element of I."""
    rs = draw(st.one_of(artinian_rings(), curve_rings()))
    rng = draw(st.randoms(use_true_random=False))
    p, n = rs.p, rs.n

    def times(f, d):  # f times a random form of degree d - deg f
        return f * random_homogeneous(rng, p, n, d - f.degree(), 2)

    gens = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["random", "multiple", "in I", "combination"]))
        earlier = [g for g in gens if not g.is_zero()]
        if kind == "multiple" and earlier:
            gens.append(rng.choice(earlier) * rng.randrange(1, p))
        elif kind == "in I":
            g = rng.choice(rs.ideal.generators)
            gens.append(times(g, g.degree() + rng.randint(0, 1)))
        elif kind == "combination" and earlier:
            f, g = rng.choice(earlier), rng.choice(earlier)
            i = rng.choice(rs.ideal.generators)
            d = max(f.degree(), g.degree(), i.degree()) + rng.randint(0, 1)
            gens.append(times(f, d) + times(g, d) + times(i, d))
        else:
            gens.append(random_homogeneous(rng, p, n, draw(st.integers(0, 3)), 3))
    return rs, gens


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ideal_generator_lists())
def test_minimal_ideal_generators_match_the_ideal_loop(case):
    rs, gens = case
    assert minimal_ideal_generators(rs, gens) == minimal_ideal_generators_oracle(rs, gens)


def test_minimal_prime_count():
    assert minimal_prime_count(flagship()) == 3
    assert minimal_prime_count(coordinate_cross()) == 2
    assert minimal_prime_count(RingSpec(2, ["x", "y"], ["x^2 + x*y"])) is None


def test_generic_gorenstein_detection():
    flag, _ = monomial_generically_gorenstein(flagship())
    assert flag
    thick_line = RingSpec(2, ["x", "y", "z"], ["x^2", "x*y", "y^2"])
    flag, detail = monomial_generically_gorenstein(thick_line)
    assert not flag
    assert detail.startswith("at the minimal prime (x, y) the minimal generator x*y ")


@pytest.mark.parametrize("p", [2, 3])
def test_generic_gorenstein_reads_minimal_generators(p):
    # at (x, y) the generators localize to x^2, y^2 and x^2*y; the last is
    # no pure power, but x^2 divides it, so the localization is the complete
    # intersection (x^2, y^2); at (y, z) they give z, y^2 and y
    rs = RingSpec(p, ["x", "y", "z"], ["x^2*z", "y^2", "x^2*y"])
    assert monomial_generically_gorenstein(rs)[0] is True
    assert generically_gorenstein_by_socles(rs)[0] is True


@st.composite
def monomial_rings(draw):
    n = draw(st.integers(2, 4))
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    monos = draw(st.lists(exps, min_size=1, max_size=4, unique=True))
    names = ["x", "y", "z", "w"][:n]
    gens = ["*".join(f"{v}^{e}" for v, e in zip(names, m) if e) for m in monos]
    return RingSpec(draw(st.sampled_from([2, 3])), names, gens)


@settings(max_examples=150, deadline=None)
@given(monomial_rings())
def test_generic_gorenstein_matches_the_socle_path(rs):
    # the pure-power test and the socle of each localization agree, and
    # fail first at the same minimal prime
    flag, detail = monomial_generically_gorenstein(rs)
    ref_flag, ref_detail = generically_gorenstein_by_socles(rs)
    assert flag == ref_flag
    if not flag:
        assert detail.split(")")[0].split("(")[1] == ref_detail.split(")")[0].split("(")[1]


# -- ideal isomorphism ----------------------------------------------------------------


def test_principal_multiple_is_isomorphic():
    rs = flagship()
    ell = rs.ring.parse("x + y + z")
    gens = [rs.ring.parse("x"), rs.ring.parse("y"), rs.ring.parse("z")]
    moved = [rs.nf(ell * g) for g in gens]
    out = ideals_isomorphic(rs, gens, moved)
    assert out.verdict == "true"
    h, f = out.multiplier
    lhs = [rs.nf(h * g) for g in gens]
    rhs = [rs.nf(f * g) for g in moved]
    assert rs.ideal_eq_in_r(lhs, rhs)


def test_equal_ideals_are_isomorphic():
    rs = coordinate_cross()
    gens = [rs.ring.parse("x + y")]
    out = ideals_isomorphic(rs, gens, gens)
    assert out.verdict == "true"


def test_isomorphism_is_symmetric():
    rs = flagship()
    omega = canonical_ideal(rs).generators
    target = [rs.ring.parse("y - x"), rs.ring.parse("z - x")]
    assert ideals_isomorphic(rs, list(omega), target).verdict == "true"
    assert ideals_isomorphic(rs, target, list(omega)).verdict == "true"


def test_canonical_ideal_is_not_principal_for_flagship():
    rs = flagship()
    omega = canonical_ideal(rs).generators
    out = ideals_isomorphic(rs, list(omega), [rs.ring.parse("x + y + z")])
    assert out.verdict == "false"


def test_hilbert_series_mismatch_refutes_quickly():
    rs = coordinate_cross()
    out = ideals_isomorphic(
        rs, [rs.ring.parse("x + y")], [rs.ring.parse("x^2 + y^2")]
    )
    # (x+y) and (x^2+y^2) = (x+y)^2 are both principal on a nonzerodivisor,
    # hence abstractly isomorphic; the shift records the initial-degree gap
    assert out.verdict == "true"
    assert out.shift == -1


def _iso_outcome(rs, gens, bracket, nzd=None):
    out = ideals_isomorphic(rs, gens, bracket, nzd=nzd)
    return out.verdict, out.shift, out.multiplier


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(curve_rings(), moved_axes_rings()))
@example(flagship(3))
def test_multiplier_f_from_any_nzd_gives_the_same_verdict(rs):
    # the least power of the ring's first NZD inside K, the NZD of K that the
    # replaced search found (exponent one, so its f comes back unchanged) and
    # the ring's second NZD must all decide K ≅ K^[p] alike. The plane curves
    # are Gorenstein, so K = K^[p] there; the moved axes reach the multiplier
    # with both verdicts and exponents 1 and 2
    ci = canonical_ideal(rs)
    assume(ci.status == "found")
    gens = list(ci.generators)
    bracket = [g.frobenius_power(1) for g in gens]
    verdict, shift, multiplier = _iso_outcome(rs, gens, bracket)
    assert verdict in ("true", "false")
    if multiplier is not None:
        assert rs.preimage_ideal(gens).contains(multiplier[1])
    searched = nzd_inside_ideal(rs, minimal_ideal_generators(rs, gens))
    assert searched is not None
    got = _iso_outcome(rs, gens, bracket, nzd=searched)
    assert got[:2] == (verdict, shift)
    assert got[2] is None or got[2][1] == searched
    second = nzds_oracle(rs, count=2)[1:]
    if second:
        assert _iso_outcome(rs, gens, bracket, nzd=second[0])[:2] == (verdict, shift)


def test_an_ideal_of_infinite_colength_is_inconclusive():
    # R/(x) = F_3[y,z]/(yz) is a curve, so no power of an NZD lies in (x);
    # (x) and (y) share Hilbert series and generator count
    rs = flagship(3)
    parse = rs.ring.parse
    with deadline(10):
        out = ideals_isomorphic(rs, [parse("x")], [parse("y")])
    assert out.verdict == "inconclusive"
    assert out.detail.startswith("R/I does not have finite length")


def test_a_ring_without_nzd_makes_the_multiplier_inconclusive():
    # depth zero: x is killed by m, so find_nzds has nothing to return; (y)
    # and (x + y) pass the Hilbert series and generator count filters
    rs = RingSpec(2, ["x", "y"], ["x^2", "x*y"])
    parse = rs.ring.parse
    out = ideals_isomorphic(rs, [parse("y")], [parse("x + y")])
    assert out.verdict == "inconclusive"
    assert out.detail == (
        "no homogeneous non-zero-divisor of degree at most 2 was found; "
        "every degree was searched completely"
    )


# -- FPI in dimension one ----------------------------------------------------------------


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(curve_rings(), moved_axes_rings()))
@example(flagship(3))
@example(RingSpec(5, ["x", "y", "z"], ["x*y", "x^2", "y*z"]))
def test_fpi_socle_count_matches_ideals_isomorphic(rs):
    # the socle of omega^[p]/l*omega^[p] over R/lR and the multiplier search
    # of the library decide omega ≅ omega^[p] alike; (xy, x^2, yz) is false
    nzd = find_nzds(rs)
    ci = canonical_ideal(rs, nzd=nzd)
    assume(ci.status == "found")
    gens = list(ci.generators)
    reference = ideals_isomorphic(rs, gens, [g.frobenius_power(1) for g in gens], nzd=nzd)
    assert classify_ring(rs, deep_checks=False).weakly_fpi == reference.verdict


def test_classification_never_calls_ideals_isomorphic():
    with mock.patch.object(classify, "ideals_isomorphic", side_effect=AssertionError) as spy:
        report = classify_ring(flagship(3))
    assert report.weakly_fpi == "true"
    assert spy.call_count == 0


# -- canonical ideals -------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3])
def test_canonical_ideal_of_cross_is_principal(p):
    rs = coordinate_cross(p)
    out = canonical_ideal(rs)
    assert out.status == "found"
    assert len(out.generators) == 1
    assert rs.is_nzd(out.generators[0])


def test_canonical_ideal_of_flagship():
    rs = flagship()
    out = canonical_ideal(rs)
    assert out.status == "found"
    assert len(out.generators) == 2
    assert {g.degree() for g in out.generators} == {1}


def test_canonical_ideal_requires_cohen_macaulay():
    with pytest.raises(NotCohenMacaulayError):
        canonical_ideal(RingSpec(2, ["x", "y"], ["x^2", "x*y"]))


def test_canonical_ideal_requires_dimension_one():
    with pytest.raises(UnsupportedDimensionError):
        canonical_ideal(RingSpec(2, ["x"], ["x^2"]))
    with pytest.raises(UnsupportedDimensionError):
        canonical_ideal(RingSpec(2, ["x", "y"], []))


def test_canonical_ideal_absent_for_fat_generic_point():
    rs = RingSpec(2, ["x", "y", "z"], ["x^2", "x*y", "y^2"])
    assert ring_depth(rs) == 1
    out = canonical_ideal(rs)
    assert out.status == "absent"


def test_canonical_ideal_is_seed_independent_up_to_isomorphism(tmp_path, capsys):
    # `report --seed` is accepted and read by no search: the canonical ideal
    # of the axes at p = 3 comes out the same, byte for byte, at any seed
    path = tmp_path / "axes.txt"
    path.write_text("p = 3\nvars = x, y, z\nideal = x*y, x*z, y*z\n")
    outs = []
    for seed in ("0", "11"):
        assert cli.main(["report", "--input", str(path), "--check", "canonical", "--seed", seed]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["canonical"]["status"] == "found"


def test_canonical_cross_check_rejects_a_wrong_omega(monkeypatch):
    # R has type 2 on the axes at p = 2, so R/(f) has the length of the hull
    # over R/(f) but a socle of dimension 2
    rs = flagship(2)
    monkeypatch.setattr(classify, "canonical_module", lambda rs: ring_as_module(rs))
    with pytest.raises(PipelineInvariantError, match="injective hull"):
        canonical_ideal(rs)


def test_classification_finds_its_nzds_once():
    rs = flagship(2)
    with mock.patch.object(classify, "find_nzds", wraps=classify.find_nzds) as spy:
        report = classify_ring(rs, deep_checks=False)
    assert report.canonical["status"] == "found"
    assert spy.call_count == 1


def _resolve_spy():
    return mock.patch.object(resolutions, "_resolve", wraps=resolutions._resolve)


def test_a_ring_is_resolved_once_by_a_series_of_verdict_calls():
    # the RingSpec keeps its minimal free resolution: depth, type and omega
    # of every call read the one resolution
    rs = moved_axes(101)
    with _resolve_spy() as spy:
        is_gorenstein(rs)
        is_f_pure(rs)
        canonical_ideal(rs)
    assert spy.call_count == 1


def test_an_artinian_ring_is_resolved_once_for_type_and_hull():
    rs = RingSpec(3, ["x", "y"], ["x^3", "x^2*y", "y^2"])
    with _resolve_spy() as spy:
        is_gorenstein(rs)
        frobenius_fixes_injective_hull(rs)
    assert spy.call_count == 1


def test_a_deep_classification_resolves_its_ring_once():
    with _resolve_spy() as spy:
        report = classify_ring(flagship(3), deep_checks=True)
    checks = {c["name"]: c["status"] for c in report.cross_checks}
    assert checks["frobenius_dual_module_freeness"] == "confirmed"
    assert spy.call_count == 1


def test_canonical_check_honours_the_degree_budget():
    # no form of degree at most 2 is a non-zero-divisor here; cubics are
    rs = RingSpec(2, ["x", "y"], ["x^4*y + x*y^4"])
    with pytest.raises(NoNzdFoundError):
        find_nzds(rs, max_degree=2)
    full = classify_ring(rs, max_degree=3, deep_checks=False)
    report = classify_ring(rs, check="canonical", max_degree=3)
    assert report.canonical["status"] == "found"
    assert report.canonical == full.canonical


def test_library_entry_points_take_nzds_past_degree_two():
    # the degree-2 default finds nothing here; NZDs found up to degree 3 and
    # passed as `nzd` decide the canonical ideal, Gorenstein and K ≅ K^[p]
    rs = RingSpec(2, ["x", "y"], ["x^4*y + x*y^4"])
    nzd = find_nzds(rs, max_degree=3)
    ci = canonical_ideal(rs, nzd=nzd)
    assert ci.status == "found"
    gorenstein, _ = is_gorenstein(rs, nzd=nzd)
    assert gorenstein is True
    gens = list(ci.generators)
    out = ideals_isomorphic(rs, gens, [g.frobenius_power(1) for g in gens], nzd=nzd)
    assert out.verdict == "true"


def test_canonical_ideal_searches_its_nzd_with_its_own_budget():
    # without `nzd` the cross-check's non-zero-divisor is searched once, up to
    # the default degree 2
    rs = flagship(2)
    with mock.patch.object(classify, "find_nzds", wraps=classify.find_nzds) as spy:
        assert canonical_ideal(rs).status == "found"
    assert spy.call_count == 1
    assert spy.call_args == mock.call(rs)


def test_the_axes_need_no_quadric_nzd():
    # x + y + z is the one linear NZD on the axes at p = 2, and the one NZD
    # every check reads, so no form of degree 2 is ever tried
    rs = flagship(2)
    with mock.patch.object(RingSpec, "is_nzd", autospec=True, side_effect=RingSpec.is_nzd) as spy:
        report = classify_ring(rs)
    assert spy.call_count > 0
    assert {call.args[1].degree() for call in spy.call_args_list} == {1}
    assert report.gorenstein_witness["parameters"] == ["x + y + z"]


@pytest.mark.parametrize("check", [c for c in classify.CHECKS if c != "fpure"])
def test_classify_names_the_check_that_needs_a_homogeneous_ideal(check):
    cusp = RingSpec(3, ["x", "y"], ["y^2 - x^3"])
    with mock.patch.object(classify, "minimal_free_resolution") as spy:
        with pytest.raises(NonHomogeneousError, match=repr(check)):
            classify_ring(cusp, check=check)
    assert spy.call_count == 0


@pytest.mark.parametrize("stage,call", [
    ("the minimal free resolution", ring_depth),
    ("the minimal free resolution", resolutions.canonical_module),
    ("the minimal free resolution", is_gorenstein),
    ("the minimal free resolution", frobenius_fixes_injective_hull),
    ("the non-zero-divisor test", find_nzds),
])
def test_graded_stages_refuse_the_cusp_by_name(stage, call):
    # the cusp builds, and every graded computation on it names its stage and
    # the generator; the hull check needs dimension zero, so it gets the
    # cusp's Artinian relative (y^2 - x^3, x^2)
    gens = ["y^2 - x^3"] + (["x^2"] if call is frobenius_fixes_injective_hull else [])
    rs = RingSpec(3, ["x", "y"], gens)
    with pytest.raises(NonHomogeneousError, match=f"^{stage} needs a homogeneous ideal; "
                       r"its generator 2\*x\^3 \+ y\^2 is not homogeneous$"):
        call(rs)


@pytest.mark.parametrize("check", ["gorenstien", "", "ALL", "fpi ", "fpi"])
def test_classify_rejects_an_unknown_check(check):
    with mock.patch.object(classify, "minimal_free_resolution") as spy:
        with pytest.raises(ValueError, match="check must be one of"):
            classify_ring(coordinate_cross(), check=check)
    assert spy.call_count == 0
    assert cli.CHECKS is classify.CHECKS


# -- classification reports ----------------------------------------------------------------


def test_classify_fat_point():
    report = classify_ring(RingSpec(2, ["x", "y"], ["x^2", "x*y", "y^2"]))
    assert report.dimension == 0
    assert report.gorenstein is False
    assert report.weakly_fpi == "false"
    assert report.fpi_method == "artinian_E"
    assert report_is_decisive(report)


def test_classify_dual_numbers():
    report = classify_ring(RingSpec(2, ["x"], ["x^2"]))
    assert report.gorenstein is True
    assert report.weakly_fpi == "true"
    assert report.f_pure is False


def test_classify_cross():
    report = classify_ring(coordinate_cross())
    assert report.dimension == 1
    assert report.cohen_macaulay is True
    assert report.gorenstein is True
    assert report.f_pure is True
    assert report.weakly_fpi == "true"
    assert report.fpi_method == "canonical_ideal"
    assert report.minimal_prime_count == 2


def test_classify_flagship_full_report():
    report = classify_ring(flagship())
    assert report.dimension == 1
    assert report.depth == 1
    assert report.cohen_macaulay is True
    assert report.gorenstein is False
    assert report.f_pure is True
    assert report.weakly_fpi == "true"
    assert report.minimal_prime_count == 3
    names = {c["name"] for c in report.cross_checks}
    assert "gorenstein_implies_fpi" in names
    assert all(
        c["status"] in {"confirmed", "not_applicable", "skipped", "unresolved"}
        for c in report.cross_checks
    )


def test_classify_depth_zero_curve():
    report = classify_ring(RingSpec(2, ["x", "y"], ["x^2", "x*y"]))
    assert report.dimension == 1
    assert report.depth == 0
    assert report.cohen_macaulay is False
    assert report.weakly_fpi == "false"


def test_classify_rejects_high_dimension():
    with pytest.raises(UnsupportedDimensionError):
        classify_ring(RingSpec(2, ["x", "y", "z"], ["x*y"]))


def test_classify_fpure_check_works_in_any_dimension():
    rs = RingSpec(2, ["x", "y", "z"], ["x*y"])
    report = classify_ring(rs, check="fpure")
    assert report.f_pure is True
    assert report_is_decisive(report, check="fpure")
    cusp = RingSpec(3, ["x", "y"], ["y^2 - x^3"])
    report = classify_ring(cusp, check="fpure")
    assert report.f_pure is False


def test_classify_gorenstein_check_stops_early():
    report = classify_ring(coordinate_cross(), check="gorenstein")
    assert report.gorenstein is True
    assert report.weakly_fpi is None
    assert report_is_decisive(report, check="gorenstein")


def test_report_dict_shape():
    report = classify_ring(flagship())
    data = report.to_dict()
    keys = list(data)
    assert keys[0] == "schema" and data["schema"] == 2
    for expected in (
        "label",
        "p",
        "variables",
        "ideal",
        "dimension",
        "depth",
        "cohen_macaulay",
        "gorenstein",
        "f_pure",
        "weakly_fpi",
        "cross_checks",
    ):
        assert expected in keys


def test_thick_line_classifies_false():
    report = classify_ring(RingSpec(2, ["x", "y", "z"], ["x^2", "x*y", "y^2"]))
    assert report.cohen_macaulay is True
    assert report.weakly_fpi == "false"
    assert report.canonical["status"] == "absent"


# -- reduction to the Artinian test -----------------------------------------------------


@pytest.mark.parametrize(
    "p,names,gens",
    [
        (2, ["x", "y"], ["x*y"]),
        (3, ["x", "y"], ["x*y"]),
        (2, ["x", "y", "z"], ["x*y", "x*z", "y*z"]),
        (3, ["x", "y"], ["y^2 - x^2"]),
    ],
)
def test_gorenstein_matches_hull_test_after_cutting(p, names, gens):
    # for a 1-dimensional CM ring, Gorenstein-ness is equivalent to the
    # depth-zero Frobenius hull comparison succeeding on R/(ell), because
    # both reduce to a one-dimensional socle of the Artinian reduction
    rs = RingSpec(p, names, gens)
    flag, _ = is_gorenstein(rs)
    ell = find_nzds(rs)
    rq = rs.quotient_by([ell])
    fixed, _ = frobenius_fixes_injective_hull(rq)
    assert fixed == flag
