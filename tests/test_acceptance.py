"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single `criterion N: PASS` line on success so a verbose
run reads as a checklist; timing bounds are asserted where stated.
"""

import csv
import io
import json
import random
import time

import pytest
from oracles import (
    columns_of_matrix,
    injective_hull_of_residue_field,
    membership_oracle,
    present_finite,
    random_homogeneous,
    staircase_rings,
)

from fpicheck.artinian import (
    frobenius_fixes_injective_hull,
    modules_isomorphic,
    realize_finite,
    ring_as_module,
    socle_dimension_of_ring,
)
from fpicheck.cli import CensusConfig, main, run_census
from fpicheck.classify import canonical_ideal, classify_ring, find_nzds, ideals_isomorphic
from fpicheck.gfpoly import Polynomial
from fpicheck.groebner import Ideal, PolyRing, RingSpec, bracket_power, ideal_colon
from fpicheck.pushforward import frobenius_pushforward, hom_presentation
from fpicheck.resolutions import (
    ModulePresentation,
    is_free_rank_one,
    tor_frobenius,
    with_modulus,
)


def flagship(p):
    return RingSpec(p, ["x", "y", "z"], ["x*y", "x*z", "y*z"], label="axes")


DIM_ONE_CM_RINGS = [
    (2, ["x", "y"], ["x*y"]),
    (3, ["x", "y"], ["x*y"]),
    (5, ["x", "y"], ["x*y"]),
    (2, ["x", "y", "z"], ["x*y", "x*z", "y*z"]),
    (3, ["x", "y", "z"], ["x*y", "x*z", "y*z"]),
    (3, ["x", "y"], ["y^2 - x^2"]),
    (5, ["x", "y"], ["y^2 - x^2"]),
    (2, ["x", "y"], ["y^2 - x^2"]),
    (2, ["x", "y", "z"], ["x*y", "z^2"]),
    (3, ["x", "y", "z"], ["x*y", "z^2"]),
    (2, ["x", "y"], ["x^2*y"]),
    (3, ["x", "y"], ["x^2*y"]),
    (2, ["x", "y"], ["x^2"]),
    (5, ["x", "y"], ["x^2"]),
    (3, ["x", "y"], ["x^2 - x*y"]),
]


def test_criterion_01_flagship_reports_and_multiplier(tmp_path, capsys):
    for p in (2, 3, 5):
        started = time.monotonic()
        spec = tmp_path / f"axes{p}.txt"
        spec.write_text(
            f"p = {p}\nvars = x, y, z\nideal = x*y, x*z, y*z\nlabel = axes\n"
        )
        code = main(["report", "--input", str(spec)])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["dimension"] == 1
        assert data["cohen_macaulay"] is True
        assert data["gorenstein"] is False
        assert data["f_pure"] is True
        assert data["weakly_fpi"] == "true"

        rs = flagship(p)
        found = canonical_ideal(rs)
        assert found.status == "found"
        reference = [rs.ring.parse("y - x"), rs.ring.parse("z - x")]
        iso = ideals_isomorphic(rs, list(found.generators), reference)
        assert iso.verdict == "true"

        # the canonical ideal absorbs Frobenius through one explicit element:
        # bracket(omega) equals (x+y+z)^(p-1) * omega exactly, not just up to
        # isomorphism, and on the reference generators too
        ell = rs.ring.parse("x + y + z")
        mult = ell ** (p - 1)
        for gens in (list(found.generators), reference):
            bracket = [g.frobenius_power(1) for g in gens]
            scaled = [rs.nf(mult * g) for g in gens]
            assert rs.ideal_eq_in_r(bracket, scaled)
        elapsed = time.monotonic() - started
        assert elapsed < 10.0
    print("criterion 1: PASS")


def test_criterion_02_artinian_staircases_match_socle():
    started = time.monotonic()
    checked = 0
    for p in (2, 3):
        for part, rs in staircase_rings(p):
            fixed, _ = frobenius_fixes_injective_hull(rs)
            assert isinstance(fixed, bool), (p, part, fixed)
            assert fixed == (socle_dimension_of_ring(rs) == 1), (p, part)
            checked += 1
    assert checked == 58  # 29 staircases of colength <= 6, two primes
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"criterion 2: PASS ({checked} rings in {elapsed:.1f}s)")


def _random_finite_length_presentation(rng, rs):
    """Seeded finite-length module over the regular ring F_p[x,y]."""
    p = rs.p
    ring = rs.ring
    if rng.random() < 0.8:
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        gens = [ring.parse(f"x^{a}"), ring.parse(f"y^{b}")]
        for _ in range(rng.randint(0, 2)):
            extra = random_homogeneous(rng, p, 2, rng.randint(1, 3))
            if not extra.is_zero():
                gens.append(extra)
        return ModulePresentation(
            ring, rs.ideal, columns_of_matrix([gens], ring), (0,), tuple(g.degree() for g in gens)
        )
    # two generators with a homogeneous coupling column
    a, b = rng.randint(1, 2), rng.randint(1, 2)
    c = rng.randint(1, 2)
    zero = Polynomial.zero(p, 2)
    cols = [
        [ring.parse(f"x^{a}"), zero],
        [zero, ring.parse(f"y^{b}")],
        [ring.parse(f"y^{c}"), Polynomial.constant(p, 2, 1)],
        [zero, ring.parse(f"x^{a}")],
    ]
    matrix = [list(row) for row in zip(*cols)]
    row_twists = (0, c)
    col_twists = (a, b + c, c, a + c)
    return ModulePresentation(ring, rs.ideal, columns_of_matrix(matrix, ring), row_twists, col_twists)


def test_criterion_03_regular_rings_have_flat_frobenius():
    rng = random.Random(2026)
    primes = (2, 3, 5)
    for index in range(20):
        p = primes[index % 3]
        rs = RingSpec(p, ["x", "y"], [])
        pres = _random_finite_length_presentation(rng, rs)
        assert realize_finite(pres).dim > 0
        for i in (1, 2):
            t = tor_frobenius(rs, pres, i)
            assert t.dim == 0, (index, i)
    # the singular control case keeps the test honest
    dual = RingSpec(2, ["x"], ["x^2"])
    k = ModulePresentation(
        dual.ring, dual.ideal, columns_of_matrix([[dual.ring.parse("x")]], dual.ring), (0,), (1,)
    )
    t1 = tor_frobenius(dual, k, 1)
    assert t1.dim == 2
    print("criterion 3: PASS")


def test_criterion_04_injective_images_have_multiplicity_one():
    witnessed = 0
    for p in (2, 3):
        for part, rs in staircase_rings(p):
            _, w = frobenius_fixes_injective_hull(rs)
            if w["frobenius_image_injective"] == "true":
                assert w["n_witness"] == 1, (p, part, w["n_witness"])
                witnessed += 1
    assert witnessed > 0
    print(f"criterion 4: PASS ({witnessed} injective images, all with n = 1)")


CRITERION5_RINGS = [
    (2, ["x", "y"], ["x*y"]),
    (3, ["x", "y"], ["x*y"]),
    (5, ["x", "y"], ["x*y"]),
    (2, ["x", "y"], ["x^2"]),
    (3, ["x", "y"], ["x^2"]),
    (2, ["x", "y", "z"], ["x*y", "x*z", "y*z"]),
    (3, ["x", "y", "z"], ["x*y", "x*z", "y*z"]),
    (3, ["x", "y"], ["y^2 - x^2"]),
    (5, ["x", "y"], ["y^2 - x^2"]),
    (2, ["x", "y"], ["x"]),
]


def test_criterion_05_hull_specializes_along_parameters():
    for p, names, gens in CRITERION5_RINGS:
        rs = RingSpec(p, names, gens)
        ell = find_nzds(rs)
        assert ell.degree() == 1 and rs.is_nzd(ell)
        thin = rs.quotient_by([ell])
        thick = rs.quotient_by([ell**p])
        hull_thick = injective_hull_of_residue_field(thick)
        pres = present_finite(hull_thick, thick)
        reduced = realize_finite(with_modulus(pres, thin.ideal))
        hull_thin = injective_hull_of_residue_field(thin)
        out = modules_isomorphic(reduced, hull_thin)
        assert out.verdict == "isomorphic", (p, gens, out.verdict, out.reason)
    print(f"criterion 5: PASS ({len(CRITERION5_RINGS)} rings, no inconclusives)")


def test_criterion_06_dual_freeness_matches_classification():
    agreements = 0
    for p in (2, 3):
        for part, rs in staircase_rings(p):
            fixed, _ = frobenius_fixes_injective_hull(rs)
            dual = hom_presentation(frobenius_pushforward(rs), ring_as_module(rs))
            flag, _ = is_free_rank_one(dual)
            assert flag == fixed, (p, part)
            agreements += 1
    for p, names, gens in DIM_ONE_CM_RINGS:
        rs = RingSpec(p, names, gens)
        wfpi = classify_ring(rs, deep_checks=False).weakly_fpi
        assert wfpi in ("true", "false"), (p, gens)
        dual = hom_presentation(frobenius_pushforward(rs), ring_as_module(rs))
        flag, _ = is_free_rank_one(dual)
        assert flag == (wfpi == "true"), (p, gens)
        agreements += 1
    print(f"criterion 6: PASS ({agreements} rings, dual freeness = verdict)")


def test_criterion_07_implication_chain_on_curve_corpus():
    assert len(DIM_ONE_CM_RINGS) == 15
    for p, names, gens in DIM_ONE_CM_RINGS:
        rs = RingSpec(p, names, gens)
        report = classify_ring(rs)
        assert report.dimension == 1
        assert report.cohen_macaulay is True, (p, gens)
        assert report.weakly_fpi in ("true", "false"), (p, gens)
        if report.gorenstein:
            assert report.weakly_fpi == "true", (p, gens)
        if report.weakly_fpi == "true":
            assert report.cohen_macaulay is True
    print("criterion 7: PASS (15 rings, Gorenstein => preserved, preserved => CM)")


def test_criterion_08_census_pattern_for_monomial_curves():
    config = CensusConfig(family="monomial", primes=(2,), nvars=3, max_degree=2)
    buf = io.StringIO()
    run_census(config, out=buf)
    rows = [
        r
        for r in csv.reader(io.StringIO(buf.getvalue()))
        if r and not r[0].startswith("#")
    ]
    header, body = rows[0], rows[1:]
    at = {name: i for i, name in enumerate(header)}
    flagship_rows = 0
    for row in body:
        if row[at["caveat"]] or row[at["dim"]] != "1":
            continue
        fpi, gor = row[at["FPI"]], row[at["Gorenstein"]]
        primes = row[at["min-primes"]]
        if primes in ("1", "2"):
            assert fpi == gor, row
        if fpi == "true" and gor == "false":
            assert primes == "3", row
            flagship_rows += 1
    assert flagship_rows >= 1
    print(f"criterion 8: PASS ({len(body)} census rows)")


def test_criterion_09_cusp_fails_fedder(tmp_path, capsys):
    spec = tmp_path / "cusp.txt"
    spec.write_text("p = 3\nvars = x, y\nideal = y^2 - x^3\nlabel = cusp\n")
    code = main(["report", "--input", str(spec), "--check", "fpure"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["f_pure"] is False
    # the refuting containment: (bracket(I) : I) lies inside (x^3, y^3),
    # with f^2 the dominant generator
    rs = RingSpec(3, ["x", "y"], ["y^2 - x^3"])
    colon = ideal_colon(bracket_power(rs.ideal, 1), rs.ideal)
    brackets = bracket_power(rs.maximal_ideal(), 1)
    for g in colon.groebner_basis():
        assert brackets.contains(g)
    f = rs.ring.parse("y^2 - x^3")
    assert colon.contains(f * f)
    assert brackets.contains(f * f)
    print("criterion 9: PASS")


def test_criterion_10_normal_form_agrees_with_linear_algebra():
    started = time.monotonic()
    rng = random.Random(1001)
    primes = (2, 3, 5)
    names = ["x", "y", "z"]
    checked = 0
    while checked < 100:
        p = primes[rng.randrange(3)]
        nvars = rng.randint(1, 3)
        ring = PolyRing(p, names[:nvars])
        gens = []
        for _ in range(rng.randint(1, 3)):
            g = random_homogeneous(rng, p, nvars, rng.randint(1, 3))
            if not g.is_zero():
                gens.append(g)
        if not gens:
            continue
        ideal = Ideal(ring, gens)
        if rng.random() < 0.5:
            f = Polynomial.zero(p, nvars)
            for g in gens:
                f = f + g * random_homogeneous(rng, p, nvars, rng.randint(0, 1))
        else:
            f = Polynomial.zero(p, nvars)
            for _ in range(rng.randint(1, 2)):
                f = f + random_homogeneous(rng, p, nvars, rng.randint(1, 4))
        assert ideal.contains(f) == membership_oracle(f, gens), (
            p,
            [str(g.terms) for g in gens],
            str(f.terms),
        )
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"criterion 10: PASS (100 membership pairs in {elapsed:.1f}s)")
