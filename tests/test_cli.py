"""Command line interface: ring-spec parsing, reports, and the census."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_artinian import BIG_P, _conjugate

from fpicheck import cli
from fpicheck.cli import (
    CensusConfig,
    enumerate_monomial_ideals,
    main,
    parse_ring_spec,
    run_census,
)
from fpicheck.errors import NonHomogeneousError, NonPrimeError, ParseError, ResourceLimitError
from fpicheck.gfpoly import mono_divides

FLAGSHIP_TEXT = """\
# three coordinate axes in affine 3-space
p = 2
vars = x, y, z
ideal = x*y, x*z, y*z
label = axes
"""


# -- ring-spec parsing -----------------------------------------------------------


def test_parse_ring_spec_flagship():
    rs = parse_ring_spec(FLAGSHIP_TEXT)
    assert rs.p == 2
    assert rs.ring.varnames == ("x", "y", "z")
    assert rs.label == "axes"
    assert len(rs.ideal.generators) == 3


def test_parse_ring_spec_rejects_composite_modulus():
    with pytest.raises(NonPrimeError):
        parse_ring_spec("p = 4\nvars = x\nideal = x^2\n")


def test_parse_ring_spec_rejects_inhomogeneous_by_default():
    text = "p = 2\nvars = x\nideal = x^2 + x\n"
    with pytest.raises(NonHomogeneousError):
        parse_ring_spec(text)
    rs = parse_ring_spec(text, require_homogeneous=False)
    assert rs.nf(rs.ring.parse("x^2")) == rs.ring.parse("x")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("p = 2\nvars = x\n", "ideal"),
        ("vars = x\nideal = x\np = 2\np = 3\n", "duplicate"),
        ("p = 2\nflavor = sweet\nvars = x\nideal = x\n", "unknown"),
        ("p = two\nvars = x\nideal = x\n", "p"),
        ("p = 2\nvars = x, x\nideal = x\n", "duplicate variable"),
        ("p = 2\nvars = 2bad\nideal = x\n", "2bad"),
    ],
)
def test_parse_ring_spec_error_messages(text, fragment):
    with pytest.raises(ParseError) as info:
        parse_ring_spec(text)
    assert fragment.lower() in str(info.value).lower()


def test_parse_error_points_at_the_ideal_line():
    text = "p = 2\nvars = x, y\n\n# comment\nideal = x*y, x +\n"
    with pytest.raises(ParseError) as info:
        parse_ring_spec(text)
    assert info.value.line == 5


@pytest.mark.parametrize(
    "line,col",
    [
        ("ideal = x*y, x*w", 16),
        ("ideal = x*y, x +", 17),
        ("ideal=x^2 -  q", 14),
        ("  ideal = x, (y", 14),
        ("IDEAL = x^", 11),
    ],
)
def test_parse_error_columns_count_from_the_line_start(line, col):
    with pytest.raises(ParseError) as info:
        parse_ring_spec(f"p = 2\nvars = x, y\n{line}\n")
    assert (info.value.line, info.value.col) == (3, col)


# -- report subcommand ------------------------------------------------------------


def write_spec(tmp_path, text, name="ring.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_report_flagship_json(tmp_path, capsys):
    path = write_spec(tmp_path, FLAGSHIP_TEXT)
    code = main(["report", "--input", path])
    out = capsys.readouterr().out
    data = json.loads(out)
    assert code == 0
    assert list(data)[0] == "schema" and data["schema"] == 1
    assert data["label"] == "axes"
    assert data["gorenstein"] is False
    assert data["f_pure"] is True
    assert data["weakly_fpi"] == "true"
    assert data["minimal_prime_count"] == 3


# The weakly-FPI witness of the axes ring: its multiplier h is a minimal
# generator of the colon ((f*J) : I), so this pins that colon's output.
PINNED_FPI_WITNESSES = {
    2: {
        "canonical_ideal": ["x + z", "y + z"],
        "bracket_power": ["x^2 + z^2", "y^2 + z^2"],
        "shift": -1,
        "h": "x^3 + y^3 + z^3",
        "f": "x^2 + y^2 + z^2",
    },
    3: {
        "canonical_ideal": ["x + z", "y + 2*z"],
        "bracket_power": ["x^3 + z^3", "y^3 + 2*z^3"],
        "shift": -2,
        "h": "x^3 + 2*y^3 + 2*z^3",
        "f": "x + 2*y + 2*z",
    },
    5: {
        "canonical_ideal": ["x + z", "y + 4*z"],
        "bracket_power": ["x^5 + z^5", "y^5 + 4*z^5"],
        "shift": -4,
        "h": "x^5 + 2*y^5 + 4*z^5",
        "f": "x + 2*y + 4*z",
    },
}


@pytest.mark.parametrize("p", sorted(PINNED_FPI_WITNESSES))
def test_report_fpi_witness_of_the_axes_is_pinned(tmp_path, capsys, p):
    path = write_spec(tmp_path, FLAGSHIP_TEXT.replace("p = 2", f"p = {p}"))
    assert main(["report", "--input", path]) == 0
    pin = PINNED_FPI_WITNESSES[p]
    assert json.loads(capsys.readouterr().out)["fpi_witness"] == {
        "canonical_ideal": pin["canonical_ideal"],
        "bracket_power": pin["bracket_power"],
        "shift": pin["shift"],
        "detail": "multiplier identity h*I = f*J verified by ideal equality",
        "multiplier": {
            "h": pin["h"],
            "f": pin["f"],
            "identity": "h * omega = f * omega^[p] as ideals of R",
        },
    }


# The dimension-zero witness: F(E) against E by socle dimension and length.
# The fat point is the E^n branch: λ(F(E)) = 2λ(E), yet the socle is 4, not 2.
PINNED_ARTINIAN_WITNESSES = {
    "p = 3\nvars = x, y\nideal = x^2, y^2\n": {
        "length_E": 4,
        "length_FE": 4,
        "socle_E": 1,
        "socle_FE": 1,
        "frobenius_image_injective": "true",
        "n_witness": 1,
        "detail": "socle dimension 1 and length λ(R) certify F^1E ≅ E",
    },
    "p = 2\nvars = x, y\nideal = x^2, x*y, y^2\n": {
        "length_E": 3,
        "length_FE": 6,
        "socle_E": 1,
        "socle_FE": 4,
        "frobenius_image_injective": "false",
        "n_witness": None,
        "detail": "length mismatch: λ(F^1E) = 6, λ(E) = 3",
    },
}


@pytest.mark.parametrize(
    "text", PINNED_ARTINIAN_WITNESSES, ids=["complete-intersection-p3", "fat-point-p2"]
)
def test_report_artinian_fpi_witness_is_pinned(tmp_path, capsys, text):
    path = write_spec(tmp_path, text)
    assert main(["report", "--input", path, "--no-deep-checks"]) == 0
    assert json.loads(capsys.readouterr().out)["fpi_witness"] == PINNED_ARTINIAN_WITNESSES[text]


def test_consecutive_mains_parse_their_own_flags(tmp_path, capsys):
    """The parser is built once and reused; a flag of one call must not
    leak into the next."""
    path = write_spec(tmp_path, FLAGSHIP_TEXT)

    def dual_check(argv):
        assert main(argv) == 0
        checks = json.loads(capsys.readouterr().out)["cross_checks"]
        return next(c for c in checks if c["name"] == "frobenius_dual_module_freeness")

    skipped = dual_check(["report", "--input", path, "--no-deep-checks"])
    assert (skipped["status"], skipped["detail"]) == ("skipped", "deep checks disabled")
    assert dual_check(["report", "--input", path])["status"] == "confirmed"
    assert dual_check(["report", "--input", path, "--no-deep-checks"]) == skipped


def test_report_text_format(tmp_path, capsys):
    path = write_spec(tmp_path, FLAGSHIP_TEXT)
    code = main(["report", "--input", path, "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Gorenstein: no" in out
    assert "F-pure: yes" in out
    assert "Frobenius preserves injectives: true" in out


def test_report_fat_point_is_decisively_false(tmp_path, capsys):
    text = "p = 2\nvars = x, y\nideal = x^2, x*y, y^2\n"
    path = write_spec(tmp_path, text)
    code = main(["report", "--input", path])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["weakly_fpi"] == "false"


def test_report_fpure_check_allows_inhomogeneous_input(tmp_path, capsys):
    text = "p = 3\nvars = x, y\nideal = y^2 - x^3\nlabel = cusp\n"
    path = write_spec(tmp_path, text)
    code = main(["report", "--input", path, "--check", "fpure"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["f_pure"] is False


def test_report_canonical_check(tmp_path, capsys):
    text = "p = 2\nvars = x, y\nideal = x*y\n"
    path = write_spec(tmp_path, text)
    code = main(["report", "--input", path, "--check", "canonical"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["canonical"]["status"] == "found"


@pytest.mark.parametrize(
    "text",
    [
        "p = 2\nvars = x, y, z\nideal = x*y\n",  # dimension two
        "p = 4\nvars = x\nideal = x^2\n",  # composite modulus
        "p = 2\nvars = x\nideal = x +\n",  # syntax error
    ],
)
def test_report_error_exit_codes(tmp_path, capsys, text):
    path = write_spec(tmp_path, text)
    code = main(["report", "--input", path])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")


def test_report_missing_file_is_an_error(capsys):
    code = main(["report", "--input", "/nonexistent/ring.txt"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_report_inconclusive_exit_code(tmp_path, capsys, monkeypatch):
    from fpicheck.classify import classify_ring

    def wobbly(rs, **kw):
        report = classify_ring(rs, **kw)
        report.weakly_fpi = "inconclusive"
        return report

    monkeypatch.setattr(cli, "classify_ring", wobbly)
    path = write_spec(tmp_path, FLAGSHIP_TEXT)
    code = main(["report", "--input", path])
    assert code == 2


def test_report_fields_of_the_benchmark_workloads_hold_no_dataclass(tmp_path, monkeypatch):
    # `to_dict` shares the report's fields where `dataclasses.asdict` copied
    # them, which gives the same data only while no field holds a dataclass:
    # `asdict` turns a nested one into a dict, and a dataclass never equals one
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import WORKLOADS

    from fpicheck.classify import classify_ring

    reports = []

    def keep(rs, **kw):
        reports.append(classify_ring(rs, **kw))
        return reports[-1]

    monkeypatch.setattr(cli, "classify_ring", keep)
    for workload in WORKLOADS.values():
        before = len(reports)
        if workload.census is not None:
            run_census(CensusConfig(**{"seed": 0, **workload.census}), out=io.StringIO())
        else:
            extra = [] if workload.deep_checks else ["--no-deep-checks"]
            for ring in workload.rings():
                path = write_spec(tmp_path, ring.spec_text())
                with contextlib.redirect_stdout(io.StringIO()):
                    main(["report", "--input", path, "--seed", "0"] + extra)
        assert len(reports) > before
    for report in reports:
        assert report.to_dict() == {"schema": 1, **dataclasses.asdict(report)}


# -- census ------------------------------------------------------------------------


def test_enumerate_monomial_ideals_are_antichains():
    seen = set()
    for gens in enumerate_monomial_ideals(2, 2, 3):
        key = tuple(sorted(gens))
        assert key not in seen
        seen.add(key)
        for a in gens:
            for b in gens:
                if a != b:
                    assert not mono_divides(a, b)
    assert ((1, 0),) in seen
    assert ((2, 0), (1, 1), (0, 2)) in seen or ((0, 2), (1, 1), (2, 0)) in seen


def test_row_seed_is_blake2b():
    want = int.from_bytes(
        hashlib.blake2b(b"17:3", digest_size=8).digest(), "big"
    )
    assert cli._row_seed(17, 3) == want


def test_census_config_validation():
    with pytest.raises(ValueError):
        CensusConfig(family="exotic")
    with pytest.raises(ValueError):
        CensusConfig(nvars=5)
    with pytest.raises(NonPrimeError):
        CensusConfig(primes=(2, 9))


def test_census_rejects_composite_prime_before_output(capsys):
    rc = cli.main(["census", "--family", "monomial", "--p", "9", "--vars", "2"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "must be a prime" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["report", "--trials", "-5"], "--trials"),
        (["report", "--max-degree", "-1"], "--max-degree"),
        (["census", "--family", "binomial-sample", "--samples", "-1"], "--samples"),
        (["census", "--max-degree", "-1"], "--max-degree"),
        (["census", "--max-gens", "-2"], "--max-gens"),
        (["census", "--trials", "-1"], "--trials"),
    ],
)
def test_negative_budgets_are_rejected(tmp_path, capsys, argv, flag):
    if argv[0] == "report":
        argv = argv + ["--input", write_spec(tmp_path, FLAGSHIP_TEXT)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: {flag} must be non-negative")
    assert captured.out == ""


def test_census_config_rejects_negative_budgets():
    for field in ("max_degree", "max_gens", "samples", "trials"):
        with pytest.raises(ValueError, match="must be non-negative"):
            CensusConfig(**{field: -1})
    assert CensusConfig(max_degree=0, max_gens=0, samples=0, trials=0).samples == 0


def census_rows(config):
    buf = io.StringIO()
    summary = run_census(config, out=buf)
    text = buf.getvalue()
    rows = [r for r in csv.reader(io.StringIO(text)) if r and not r[0].startswith("#")]
    header, body = rows[0], rows[1:]
    return header, body, text, summary


def test_census_cross_row_matches_known_values():
    config = CensusConfig(family="monomial", primes=(2,), nvars=2, max_degree=2)
    header, body, text, summary = census_rows(config)
    assert header == cli.CSV_COLUMNS
    cross = [r for r in body if r[0] == "F_2[x,y]/(x*y)"]
    assert len(cross) == 1
    row = dict(zip(header, cross[0]))
    assert row["p"] == "2"
    assert row["dim"] == "1"
    assert row["CM"] == "true"
    assert row["Gorenstein"] == "true"
    assert row["FPI"] == "true"
    assert row["min-primes"] == "2"
    assert row["caveat"] == ""


def test_census_marks_unsupported_dimensions():
    config = CensusConfig(family="monomial", primes=(2,), nvars=3, max_degree=1)
    header, body, text, summary = census_rows(config)
    # the single ideal (x) has dimension 2 and is skipped with a caveat
    flagged = [r for r in body if r[-1] == "unsupported-dimension"]
    assert flagged
    assert summary["unsupported"] == len(flagged)


def test_census_is_deterministic():
    config = CensusConfig(family="monomial", primes=(2,), nvars=2, max_degree=2)
    _, _, first, _ = census_rows(config)
    _, _, second, _ = census_rows(config)
    assert first == second


def test_census_summary_footer():
    config = CensusConfig(family="monomial", primes=(2,), nvars=2, max_degree=2)
    _, body, text, summary = census_rows(config)
    assert text.strip().splitlines()[-1].startswith("# summary:")
    assert summary["rows"] == len(body)
    assert summary["errors"] == 0


def test_census_budget_exhaustion_is_confined_to_its_row(monkeypatch):
    # one row runs out of budget in classification and one already in its
    # dimension; each becomes an error row and the census goes on
    from fpicheck.classify import classify_ring
    from fpicheck.groebner import RingSpec

    def starved(rs, **kw):
        if cli._ring_display(rs) == "F_2[x,y]/(x*y)":
            raise ResourceLimitError("ideal Buchberger: S-pair budget of 1 exhausted")
        return classify_ring(rs, **kw)

    real_hilbert = RingSpec.hilbert

    def hilbert(rs):
        if cli._ring_display(rs) == "F_2[x,y]/(x^2)":
            raise ResourceLimitError("module Buchberger: S-pair budget of 1 exhausted")
        return real_hilbert(rs)

    monkeypatch.setattr(cli, "classify_ring", starved)
    monkeypatch.setattr(RingSpec, "hilbert", hilbert)
    config = CensusConfig(family="monomial", primes=(2,), nvars=2, max_degree=2)
    header, body, text, summary = census_rows(config)
    rows = {r[0]: dict(zip(header, r)) for r in body}
    cross = rows["F_2[x,y]/(x*y)"]
    assert cross["caveat"] == "error: ideal Buchberger: S-pair budget of 1 exhausted"
    assert cross["dim"] == "1" and cross["FPI"] == "NA"
    square = rows["F_2[x,y]/(x^2)"]
    assert square["caveat"] == "error: module Buchberger: S-pair budget of 1 exhausted"
    assert square["dim"] == "NA"
    assert summary["errors"] == 2
    assert summary["rows"] == len(body) > 2
    assert summary["classified"] == len(body) - 2 - summary["unsupported"]
    assert "PARTIAL" not in text
    assert text.strip().splitlines()[-1].startswith("# summary:")


def test_census_binomial_family_is_seeded():
    config = CensusConfig(
        family="binomial-sample", primes=(2,), nvars=2, max_degree=2, samples=6
    )
    _, body1, text1, _ = census_rows(config)
    _, body2, text2, _ = census_rows(config)
    assert text1 == text2
    assert body1  # the sampler produced at least one ring


def test_census_multiple_primes():
    config = CensusConfig(family="monomial", primes=(2, 3), nvars=1, max_degree=2)
    _, body, _, _ = census_rows(config)
    assert {r[1] for r in body} == {"2", "3"}


def test_census_cli_entry_point(tmp_path, capsys):
    out_path = tmp_path / "census.csv"
    code = main(
        [
            "census",
            "--family",
            "monomial",
            "--p",
            "2",
            "--vars",
            "2",
            "--max-degree",
            "2",
            "--output",
            str(out_path),
        ]
    )
    assert code == 0
    content = out_path.read_text()
    assert content.splitlines()[0] == ",".join(cli.CSV_COLUMNS)
    assert "F_2[x,y]/(x*y)" in content


def test_module_entry_point_runs_without_warnings():
    # `python -m fpicheck` runs cli.main; with -W error, the runpy warning
    # that `python -m fpicheck.cli` emits would fail the run
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).resolve().parent.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "fpicheck", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "census" in proc.stdout
    assert proc.stderr == ""


def test_fpicheck_runs_with_numpy_refused(tmp_path):
    # fpicheck needs nothing beyond the standard library: with every import
    # of numpy refused, report, census and the sampled branch of
    # `artinian.modules_isomorphic` (the BIG_P pair of test_artinian) finish
    artinian = tmp_path / "artinian.txt"
    artinian.write_text("p = 3\nvars = x, y\nideal = x^2, x*y, y^3\n")
    axes = tmp_path / "axes.txt"
    axes.write_text(FLAGSHIP_TEXT.replace("p = 2", "p = 3"))
    plain = np.diag([1, 1, 0, 1, 1], k=1)
    code = f"""
import contextlib, io, sys

class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError("numpy is refused")

sys.meta_path.insert(0, RefuseNumpy())
from fpicheck import cli
from fpicheck.artinian import FiniteLengthModule, modules_isomorphic
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        cli.main(["report", "--input", {str(artinian)!r}]),
        cli.main(["report", "--input", {str(axes)!r}]),
        cli.main(["census", "--p", "2", "--vars", "2", "--max-degree", "2"]),
    ]
assert codes == [0, 0, 0], codes
src = FiniteLengthModule({BIG_P}, [{plain.tolist()!r}])
dst = FiniteLengthModule({BIG_P}, [{_conjugate(plain).tolist()!r}])
assert modules_isomorphic(src, dst).verdict == "isomorphic"
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).resolve().parent.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
