"""Seed-0 outputs of the four benchmark workloads, pinned by sha256.

A speed-up or a simplification must leave every census row and every report
byte for byte as it was. Each test runs one workload of `perfbench/workloads.py`
with seed 0 (about 5 s for all four) and compares the digest of its output:

- a census workload: the CSV that `run_census` writes, summary line included;
- a report workload: the `fpicheck report` JSON of each ring, concatenated in
  workload order, with the workload's deep-check setting and `--seed 0`.

A change that alters an output on purpose (a new certificate, a different
witness) updates the digest here and names the reason in CHANGES.md.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

from fpicheck import cli  # noqa: E402

GOLDEN = {
    "census-monomial": "5d74fa14d25b9cac55760d37818144c14c7309929ccaf52a8a64a0aa072771ec",
    "census-binomial": "2812a1a307e03e809a8220cdda9d4630197205ef9ffee9d4c7254dd74f96573f",
    "report-deep": "7529db0d3074510eb2b7415df3d59eb6d1f616daf5cd35b41c959d970cc255a7",
    "report-artinian": "02bdba4252e5edfdaa9a9d64b4926a8f542ef1571db4736123e8e26bbedc48bc",
}


def _census_output(workload) -> str:
    out = io.StringIO()
    cli.run_census(cli.CensusConfig(**{"seed": 0, **workload.census}), out=out)
    return out.getvalue()


def _report_output(workload, spec_dir: Path) -> str:
    extra = [] if workload.deep_checks else ["--no-deep-checks"]
    out = io.StringIO()
    for i, ring in enumerate(workload.rings()):
        path = spec_dir / f"ring{i}.txt"
        path.write_text(ring.spec_text(), encoding="utf-8")
        with contextlib.redirect_stdout(out):
            cli.main(["report", "--input", str(path), "--seed", "0"] + extra)
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seed_zero_output_is_unchanged(name, tmp_path):
    workload = WORKLOADS[name]
    if workload.census is not None:
        text = _census_output(workload)
    else:
        text = _report_output(workload, tmp_path)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]
