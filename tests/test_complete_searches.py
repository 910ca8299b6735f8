"""Witness searches that end in a proof.

`classify.find_nzds` and `classify.canonical_ideal` try every line of a
span up to a cap and walk a rational normal curve past it
(`artinian.span_search`), and the canonical scan stops at the top degree D
of the generators of Hom(omega, R). On random Cohen-Macaulay curves these
tests hold both against exhaustive references, with the caps set to 0 so
that the walk itself answers: for non-zero-divisors where the walk is
complete, for canonical ideals everywhere, an incomplete walk having to end
"inconclusive", never "absent".
"""

import json
from math import comb
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from oracles import canonical_embedding_degree, graded_curves
from test_classify import flagship

from fpicheck import classify, cli
from fpicheck.classify import canonical_ideal, find_nzds, monomial_generically_gorenstein
from fpicheck.errors import NoNzdFoundError, PipelineInvariantError, ResourceLimitError
from fpicheck.gfpoly import Polynomial, monomials_of_degree
from fpicheck.groebner import RingSpec
from fpicheck.resolutions import ring_depth

PRIMES = (2, 3, 5, 7, 11, 101)
EVERY_LINE = 10**9  # a cap no test span reaches: every line is tried

SETTINGS = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _cohen_macaulay(rs: RingSpec) -> bool:
    return ring_depth(rs) == rs.dimension == 1


@st.composite
def monomial_curves(draw):
    """Cohen-Macaulay monomial curves in F_p[x,y,z]: up to three monomials
    of degree at most 3."""
    p = draw(st.sampled_from(PRIMES))
    monos = [m for d in (1, 2, 3) for m in sorted(monomials_of_degree(3, d))]
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
    rs = RingSpec(p, ["x", "y", "z"], [Polynomial.from_monomial(p, m) for m in chosen])
    assume(rs.dimension == 1 and _cohen_macaulay(rs))
    return rs


def _nzd_degree(rs: RingSpec, cap: int):
    with mock.patch.object(classify, "NZD_SPAN_CAP", cap):
        try:
            return find_nzds(rs).degree()
        except NoNzdFoundError:
            return None


@SETTINGS
@given(graded_curves(PRIMES))
@example(RingSpec(7, ["x", "y", "z"], ["x*y", "x*z", "y*z"]))
@example(RingSpec(3, ["x", "y"], ["x^3 + 2*x*y^2"]))
def test_the_walk_finds_an_nzd_in_degree_d_exactly_when_the_exhaustive_scan_does(rs):
    # on x(x + y)(x + 2y) = x^3 + 2xy^2 at p = 3 the one linear non-zero-divisor is y, the
    # walk's point at infinity, and e(k - 1) + 1 = p + 1 reaches it exactly
    assume(_cohen_macaulay(rs))
    e, n, p = rs.hilbert().multiplicity, rs.n, rs.p
    complete = [e * (comb(n + d - 1, d) - 1) + 1 <= p + 1 for d in (1, 2)]
    assume(complete[0])
    walked = _nzd_degree(rs, 0)
    exhaustive = _nzd_degree(rs, EVERY_LINE)
    assert (walked == 1) == (exhaustive == 1)
    if all(complete):
        assert walked == exhaustive


def _canonical(rs: RingSpec, cap: int):
    with mock.patch.object(classify, "CANONICAL_SPAN_CAP", cap):
        return canonical_ideal(rs)


@SETTINGS
@given(st.one_of(graded_curves(PRIMES), monomial_curves()))
@example(RingSpec(2, ["x", "y", "z"], ["x*y", "x*z", "y*z"]))
@example(RingSpec(5, ["x", "y", "z"], ["x*y", "x^2", "y*z"]))
@example(RingSpec(2, ["x", "y", "z", "w"], ["x^2", "y^2 + w^2", "x*y + y^2", "x*w"]))
@example(RingSpec(2, ["x", "y", "z"], ["x*z", "y*z", "y^3"]))
def test_the_scan_to_the_top_degree_hits_exactly_when_the_exhaustive_scan_does(rs):
    # the reference tries every line of every degree up to three past D; on
    # (xz, yz, y^3) at p = 2 the first injective map has the top degree D = 2
    assume(_cohen_macaulay(rs))
    try:
        reference = canonical_embedding_degree(rs)
    except ResourceLimitError:
        assume(False)
    for cap in (classify.CANONICAL_SPAN_CAP, 0):
        ci = _canonical(rs, cap)
        if ci.status == "inconclusive":
            assert reference is not None and "complete only when" in ci.detail
            continue
        assert (ci.status == "found") == (reference is not None)
        if ci.status == "found":
            assert ci.shift >= reference


@SETTINGS
@given(monomial_curves())
@example(RingSpec(2, ["x", "y", "z"], ["x^2", "x*y", "y^2"]))
@example(RingSpec(3, ["x", "y", "z"], ["x*y", "x*z", "y*z"]))
def test_without_the_monomial_shortcut_absent_is_not_generically_gorenstein(rs):
    with mock.patch.object(classify, "monomial_generically_gorenstein", lambda rs: (True, "")):
        ci = canonical_ideal(rs)
    assert ci.status != "inconclusive"
    assert (ci.status == "absent") == (not monomial_generically_gorenstein(rs)[0])


def test_an_incomplete_miss_on_a_generically_gorenstein_ring_is_inconclusive():
    # the axes are Gorenstein at their three minimal primes, so a miss of an
    # incomplete walk decides nothing, and the reason names the bound
    rs = flagship(2)
    with mock.patch.object(classify, "_search_span", return_value=(None, False)):
        ci = canonical_ideal(rs)
    assert ci.status == "inconclusive"
    assert "e(k - 1) + 1 = " in ci.detail and "<= p + 1 = 3 points" in ci.detail


def test_a_complete_miss_where_the_slice_may_be_covered_is_inconclusive():
    # e = 3 > p = 2: three proper subspaces can cover a plane over F_2
    with mock.patch.object(classify, "_search_span", return_value=(None, True)):
        ci = canonical_ideal(flagship(2))
    assert ci.status == "inconclusive"
    assert "decisive only when e = 3 <= p" in ci.detail


def test_a_complete_miss_that_the_theorem_rules_out_raises():
    # e = 3 <= p = 5: the non-injective maps of degree D fill at most three
    # proper subspaces, which cannot cover the slice
    with mock.patch.object(classify, "_search_span", return_value=(None, True)):
        with pytest.raises(PipelineInvariantError, match="generically Gorenstein"):
            canonical_ideal(flagship(5))


NOT_GENERICALLY_GORENSTEIN = "p = 2\nvars = x, y, z, w\nideal = x^2, y^2 + w^2, x*y + y^2, x*w\n"


def test_a_binomial_ring_that_is_not_generically_gorenstein_is_decided(tmp_path, capsys):
    # no monomial shortcut applies; the scan misses up to D and the trace
    # ideal has R/τ of infinite length, so omega embeds in no ideal and
    # Frobenius does not preserve injectives; the deep dual check agrees
    path = tmp_path / "ring.txt"
    path.write_text(NOT_GENERICALLY_GORENSTEIN)
    assert cli.main(["report", "--input", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["canonical"]["status"] == "absent"
    assert "trace ideal" in report["canonical"]["detail"]
    assert report["weakly_fpi"] == "false"
    checks = {c["name"]: c for c in report["cross_checks"]}
    assert checks["frobenius_dual_module_freeness"] == {
        "name": "frobenius_dual_module_freeness",
        "status": "confirmed",
        "detail": "Hom(F_*R, R) free of rank one: False",
    }
