"""Verdict layer: nonzerodivisors, Gorenstein, F-purity, canonical ideals."""

import csv
import io
import signal
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles import artinian_rings, curve_rings, minimal_ideal_generators_oracle

from fpicheck import classify, cli, pushforward
from fpicheck.artinian import frobenius_fixes_injective_hull, ring_as_module
from fpicheck.classify import (
    canonical_ideal,
    classify_ring,
    find_nzds,
    ideals_isomorphic,
    is_f_pure,
    is_gorenstein,
    minimal_ideal_generators,
    minimal_prime_count,
    monomial_generically_gorenstein,
    report_is_decisive,
)
from fpicheck.errors import (
    NoNzdFoundError,
    NotCohenMacaulayError,
    PipelineInvariantError,
    UnsupportedDimensionError,
)
from fpicheck.gfpoly import Polynomial, poly_to_string, random_homogeneous
from fpicheck.groebner import Ideal, RingSpec, bracket_power, ideal_colon
from fpicheck.resolutions import ring_depth


def flagship(p=2):
    return RingSpec(p, ["x", "y", "z"], ["x*y", "x*z", "y*z"])


def coordinate_cross(p=2):
    return RingSpec(p, ["x", "y"], ["x*y"])


# -- nonzerodivisor search ----------------------------------------------------


def test_flagship_linear_nzd():
    rs = flagship()
    found = find_nzds(rs, count=1)
    assert found[0] == rs.ring.parse("x + y + z")
    assert rs.is_nzd(found[0])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_found_nzds_are_verified_and_distinct(p):
    rs = flagship(p)
    found = find_nzds(rs, count=2, seed=1)
    assert len(found) == 2
    assert found[0] != found[1]
    for f in found:
        assert rs.is_nzd(f)


def test_depth_zero_ring_has_no_nzd():
    rs = RingSpec(2, ["x", "y"], ["x^2", "x*y"])
    with pytest.raises(NoNzdFoundError):
        find_nzds(rs, count=1, max_degree=2)


def test_cross_skips_axis_zerodivisors():
    # x and y each kill a branch of k[x,y]/(xy); x + y misses both branches
    rs = coordinate_cross(2)
    found = find_nzds(rs, count=1)
    assert found[0] == rs.ring.parse("x + y")
    assert rs.is_nzd(found[0])


# the largest prime PrimeField accepts: the linear forms span about p^2 lines
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
        found = find_nzds(rs, count=2)
    assert len(found) == 2 and found[0] != found[1]
    assert all(rs.is_nzd(f) for f in found)


def test_frobenius_hull_at_the_top_of_the_prime_range():
    # every entry of the presentation of E has positive degree and the top
    # degree of R is 2, so at this p every Frobenius entry is 0 in R and
    # F(E) is free of rank 2, the number of generators of E
    rs = RingSpec(TOP_P, ["x", "y"], ["x^2 - 3*x*y + 2*y^2", "x^3", "y^3"])
    with deadline(20):
        rep = frobenius_fixes_injective_hull(rs)
    assert rep.iso.verdict == "not_isomorphic"
    assert (rep.length_fe, rep.socle_fe, rep.injective) == (10, 4, "false")


def test_sampled_linear_nzds_may_need_every_variable():
    # on the five coordinate axes a linear form is a non-zero-divisor only
    # when all five coefficients are nonzero; at p = 11 the 16105 lines of
    # linear forms are past the cap, so the draws must be dense
    names = ["v", "w", "x", "y", "z"]
    rs = RingSpec(11, names, [f"{a}*{b}" for i, a in enumerate(names) for b in names[i + 1:]])
    found = find_nzds(rs, count=2)
    assert len(found) == 2 and found[0] != found[1]
    assert all(rs.is_nzd(f) for f in found)


def test_classify_at_the_top_of_the_prime_range():
    rs = RingSpec(TOP_P, ["x", "y", "z"], ["x^2", "x*y", "y*z"])
    with deadline(20):
        report = classify_ring(rs)
    assert report.cohen_macaulay is True
    assert report.gorenstein is False
    assert report.f_pure is False
    assert report.weakly_fpi == "false"


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


def test_fedder_power_past_its_term_cap_is_a_census_error_row(monkeypatch):
    # a complete-intersection curve, so the census classifies it and the
    # refused Fedder power ends the row, not the census
    curve = RingSpec(TOP_P, ["x", "y", "z"], ["x*y - 2*z^2", "x^2 - y*z"])
    monkeypatch.setattr(cli, "_census_rings", lambda config: iter([(0, curve)]))
    out = io.StringIO()
    with deadline(20):
        summary = cli.run_census(cli.CensusConfig(primes=(TOP_P,)), out)
    assert summary["errors"] == 1
    row = dict(zip(cli.CSV_COLUMNS, list(csv.reader(io.StringIO(out.getvalue())))[1]))
    assert row["dim"] == "1"
    assert row["caveat"].startswith("error: F-purity (Fedder colon): ")


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
    candidates = find_nzds(rs, count=2, seed=5)
    one, _ = is_gorenstein(rs, nzds=[candidates[0]])
    other, _ = is_gorenstein(rs, nzds=[candidates[1]])
    assert one == other is False


# -- F-purity ----------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_flagship_is_f_pure(p):
    rs = flagship(p)
    flag, witness = is_f_pure(rs)
    assert flag
    w = witness["splitting_witness"]
    mono = rs.ring.parse(w) if isinstance(w, str) else w
    mp = bracket_power(rs.maximal_ideal(), 1)
    assert not mp.contains(mono)
    colon = ideal_colon(bracket_power(rs.ideal, 1), rs.ideal)
    assert colon.contains(mono)


def test_cusp_is_not_f_pure_at_p_three():
    rs = RingSpec(
        3, ["x", "y"], ["y^2 - x^3"], require_homogeneous=False
    )
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


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(artinian_rings())
@example(RingSpec(3, ["x", "y"], ["x", "y"]))
@example(RingSpec(5, ["x", "y", "z"], ["x", "y^2", "z"]))
def test_artinian_ring_is_f_pure_exactly_when_it_is_the_field(rs):
    # F-pure rings are reduced, and the one reduced graded Artinian ring is F_p
    assert is_f_pure(rs)[0] == (rs.ideal == rs.maximal_ideal())


@pytest.mark.parametrize("gens", [["x^2", "y"], ["x^2", "x*y", "y^3"]])
def test_always_true_fedder_is_caught_in_dimension_zero(monkeypatch, gens):
    # a colon (I^[p] : I) that is all of S puts 1 outside (x^p, y^p)
    rs = RingSpec(3, ["x", "y"], gens)
    monkeypatch.setattr(classify, "frobenius_colon", lambda rs: Ideal(rs.ring, [rs.ring.one()]))
    with pytest.raises(PipelineInvariantError, match="Fedder"):
        is_f_pure(rs)


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
        flag, witness = is_f_pure(rs)
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
        flag, witness = is_f_pure(rs)
    assert spy.called
    assert flag is False
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


def test_canonical_ideal_is_seed_independent_up_to_isomorphism():
    rs = flagship(3)
    a = canonical_ideal(rs, seed=0)
    b = canonical_ideal(rs, seed=11)
    assert a.status == b.status == "found"
    out = ideals_isomorphic(rs, list(a.generators), list(b.generators))
    assert out.verdict == "true"


def test_canonical_cross_check_rejects_a_wrong_omega(monkeypatch):
    # R has type 2 on the axes at p = 2, so R/(f) has the length of the hull
    # over R/(f) but a socle of dimension 2
    rs = flagship(2)
    monkeypatch.setattr(classify, "canonical_module", lambda rs, res=None: ring_as_module(rs))
    with pytest.raises(PipelineInvariantError, match="injective hull"):
        canonical_ideal(rs)


def test_classification_finds_its_nzds_once():
    rs = flagship(2)
    with mock.patch.object(classify, "find_nzds", wraps=classify.find_nzds) as spy:
        report = classify_ring(rs, deep_checks=False)
    assert report.canonical["status"] == "found"
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


@pytest.mark.parametrize("check", ["gorenstien", "", "ALL", "fpi "])
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
    cusp = RingSpec(3, ["x", "y"], ["y^2 - x^3"], require_homogeneous=False)
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
    assert keys[0] == "schema" and data["schema"] == 1
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
    ell = find_nzds(rs, count=1)[0]
    rq = rs.quotient_by([ell])
    rep = frobenius_fixes_injective_hull(rq)
    assert (rep.iso.verdict == "isomorphic") == flag
