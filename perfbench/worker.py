"""One repetition of a workload, in the fresh interpreter the parent starts.

Set-up (importing fpicheck and numpy, writing spec files, installing the
tracer) runs first; the first timed call is stamped with ``time.monotonic``
so the parent can measure set-up from the moment it started this process.
The timed phase is a closed loop: the next ring starts only after the
previous verdict has returned. The calibration kernel of ``speed.py`` runs
right after the stamp and then on a timer through the timed phase; its runs
are left out of every timing, and each timing is also given scaled to the
reference speed.

Prints one JSON line: the first-call stamp, the median kernel time, the
timed phase raw and scaled, the peak RSS of this process, and per ring its
key, verdicts, error and scaled latency. With ``--setup-only`` it stops at
the first timed call and prints the stamp alone, a sample of set-up time.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/worker.py --workload report-deep --seed 0 [--spans FILE | --setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from pathlib import Path

from speed import SpeedClock
from workloads import WORKLOADS

_CELL = {"true": True, "false": False, "NA": None}


def _ring(key, dim=None, cm=None, gor=None, fpure=None, fpi=None, error=None, span=None):
    """A ring's verdicts; `span` is the (first, past-the-end) indices of the
    clock segments of its work."""
    return {
        "key": key, "dim": dim, "cm": cm, "gor": gor, "fpure": fpure,
        "fpi": fpi, "error": error, "span": span,
    }


class _RowSink:
    """CSV sink that marks the clock at every write; the census writes one
    row per call."""

    def __init__(self, clock):
        self.clock = clock
        self.writes = []  # (segments closed at the write, text)

    def write(self, text):
        self.writes.append((self.clock.mark(), text))


def _census(cli, workload, seed):
    """Set up a census; return the timed phase as a callable."""
    config = cli.CensusConfig(**{"seed": seed, **workload.census})
    return lambda clock: _run_census(cli, config, clock)


def _run_census(cli, config, clock):
    sink = _RowSink(clock)
    cli.run_census(config, out=sink)
    rings = []
    began = sink.writes[0][0]  # the header row is written before any ring
    for ended, text in sink.writes[1:]:
        if text.startswith("#"):
            continue
        cells = next(csv.reader([text]))
        row = dict(zip(cli.CSV_COLUMNS, cells))
        caveat = row["caveat"]
        rings.append(_ring(
            row["ring"],
            dim=int(row["dim"]),
            cm=_CELL[row["CM"]],
            gor=_CELL[row["Gorenstein"]],
            fpure=_CELL[row["F-pure"]],
            fpi=None if row["FPI"] == "NA" else row["FPI"],
            error=caveat if caveat.startswith("error:") else None,
            span=(began, ended),
        ))
        began = ended
    return rings


def _reports(cli, workload, seed, spec_dir: Path):
    """Write the spec files; return the timed phase as a callable."""
    rings = workload.rings()
    paths = []
    for i, ring in enumerate(rings):
        path = spec_dir / f"ring{i}.txt"
        path.write_text(ring.spec_text(), encoding="utf-8")
        paths.append(str(path))
    extra = [] if workload.deep_checks else ["--no-deep-checks"]
    return lambda clock: _run_reports(cli, rings, paths, seed, extra, clock)


def _run_reports(cli, rings, paths, seed, extra, clock):
    out = []
    began = clock.mark()
    for ring, path in zip(rings, paths):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(["report", "--input", path, "--seed", str(seed)] + extra)
            except Exception:  # a crash is this ring's failure, not the run's
                code, stderr = 1, io.StringIO(traceback.format_exc())
        ended = clock.mark()
        span, began = (began, ended), ended
        if code == 1:
            out.append(_ring(ring.key, error=stderr.getvalue().strip() or "exit 1", span=span))
            continue
        rep = json.loads(stdout.getvalue())
        out.append(_ring(
            ring.key,
            dim=rep["dimension"],
            cm=rep["cohen_macaulay"],
            gor=rep["gorenstein"],
            fpure=rep["f_pure"],
            fpi=rep["weakly_fpi"],
            span=span,
        ))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--spans", help="trace the layers and write spans here")
    mode.add_argument("--setup-only", action="store_true", help="stop at the first timed call")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    from fpicheck import cli

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with contextlib.ExitStack() as stack:
        if workload.census is not None:
            timed_phase = _census(cli, workload, args.seed)
        else:
            work = Path(".perfbench")
            work.mkdir(exist_ok=True)
            spec_dir = Path(tempfile.mkdtemp(prefix="specs-", dir=work))
            stack.callback(shutil.rmtree, spec_dir)
            timed_phase = _reports(cli, workload, args.seed, spec_dir)
        t_first = time.monotonic()
        if args.setup_only:
            print(json.dumps({"t_first": t_first}))
            return
        clock = SpeedClock()
        clock.start()
        try:
            rings = timed_phase(clock)
        finally:
            clock.stop()
    for ring in rings:
        ring["latency"] = clock.scaled(*ring.pop("span"))
    if tracer is not None:
        tracer.dump(args.spans, clock.pauses)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({
        "t_first": t_first, "kernel_s": statistics.median(clock.samples),
        "timed_s": clock.raw(), "scaled_s": clock.scaled(), "rss_mb": rss_mb, "rings": rings,
    }))


if __name__ == "__main__":
    main()
