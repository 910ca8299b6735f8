"""fpicheck benchmark: end-to-end metrics, verdict gate, traced layer table.

Usage, from the repository root:

    python3 perfbench/run.py --workload census-monomial --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py                      # every workload, one after another
    python3 perfbench/run.py --workload report-deep --pin   # rewrite expected/report-deep.json

Each repetition runs in its own interpreter (``worker.py``), so set-up
time, peak RSS and module-level caches belong to that repetition alone.
Repetitions run one after another, at least two, for as many as bring the
run's length closest to ``--seconds``; seven set-up-only probes then give
the set-up times. Every ring of every repetition goes through the verdict gate
(``gate.py``).

Every timing is scaled to the reference machine speed of ``speed.py``: the
worker samples a calibration kernel on a timer through its timed phase, and
the parent times a reference interpreter start right before and after each
set-up probe. The unscaled figures and
the kernel's median time are printed as comment lines.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates an
untraced and a traced repetition (at least two of each) and prints the
per-layer table built from the traced spans; the untraced ones give
``trace_overhead_frac``. Per-layer call counts must repeat exactly across
the traced repetitions.

Each metric is printed as ``name: value unit``; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 0 only when every ring passed the gate.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
from speed import REFERENCE_S, REFERENCE_START_S, start_s
from tracer import SPAN_NAMES, layer_table
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
DEADLINE_S = 170.0
MIN_ROUNDS = 2  # repetitions (untraced + traced pairs with --trace 1) per run
SETUP_SAMPLES = 7  # set-up-only probes per untraced run

RATIOS = {
    "groebner.gb_cache_hit_frac": "groebner.Ideal.groebner_basis",
    "groebner.RingSpec.is_nzd.true_frac": "groebner.RingSpec.is_nzd",
    "groebner.reduce_poly.zero_frac": "groebner.reduce_poly",
    "artinian.modules_isomorphic.decided_frac": "artinian.modules_isomorphic",
}


class BenchError(Exception):
    pass


def run_rep(workload: str, seed: int, deadline: float, *extra) -> dict:
    """Run one repetition in a fresh interpreter and return its record.

    `extra` is passed to the worker: ``--spans FILE`` or ``--setup-only``.
    A set-up-only probe is bracketed by reference interpreter starts, which
    scale its set-up time.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *extra]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    probe = "--setup-only" in extra
    if probe:
        before = start_s(env)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: repetition ran past the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload}: worker exited {proc.returncode}\n{proc.stderr[-3000:]}")
    rep = json.loads(proc.stdout.splitlines()[-1])
    if probe:
        rep["raw_setup_s"] = rep["t_first"] - started
        rep["setup_s"] = rep["raw_setup_s"] * REFERENCE_START_S / ((before + start_s(env)) / 2)
    if "--spans" in extra:
        rep["layers"] = layer_table(extra[extra.index("--spans") + 1])
    return rep


def run_reps(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Repeat rounds, at least MIN_ROUNDS, while one more round brings the
    end of the run closer to `seconds` than stopping would.

    Returns the untraced and traced records, and the set-up probes of an
    untraced run.
    """
    start = time.monotonic()
    deadline = start + DEADLINE_S
    plain, traced, rounds = [], [], []
    if trace:
        spans = ROOT / ".perfbench" / f"spans-{workload}.npz"
        spans.parent.mkdir(exist_ok=True)
    while True:
        began = time.monotonic()
        plain.append(run_rep(workload, seed, deadline))
        if trace:
            traced.append(run_rep(workload, seed, deadline, "--spans", str(spans)))
        now = time.monotonic()
        rounds.append(now - began)
        if len(rounds) >= MIN_ROUNDS and now - start + statistics.median(rounds) / 2 > seconds:
            break
    setups = [] if trace else [
        run_rep(workload, seed, deadline, "--setup-only") for _ in range(SETUP_SAMPLES)
    ]
    return plain, traced, setups


def gate_reps(workload: str, reps: list, pinned: dict) -> tuple:
    """(attempted, failed, problem lines) over every ring of every rep."""
    known = {}
    if WORKLOADS[workload].rings is not None:
        known = {r.key: r.facts for r in WORKLOADS[workload].rings()}
    attempted = failed = 0
    lines = []
    for rep in reps:
        for ring in rep["rings"]:
            attempted += 1
            problems = gate.ring_problems(ring, pinned.get(ring["key"]), known.get(ring["key"]))
            if problems:
                failed += 1
                lines.append(f"{ring['key']}: {'; '.join(problems)}")
    return attempted, failed, lines


def end_to_end(reps: list, setups: list) -> dict:
    """Each timing is taken per repetition, scaled to the reference speed;
    the run reports their median."""

    def per_rep(figure):
        return statistics.median(figure(rep) for rep in reps)

    def latencies(rep):
        return [r["latency"] for r in rep["rings"] if gate.supported(r)]

    supported = [r for rep in reps for r in rep["rings"] if gate.supported(r)]
    decided = sum(1 for r in supported if r["fpi"] in ("true", "false"))
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        "rings_per_s": (per_rep(lambda rep: len(rep["rings"]) / rep["scaled_s"]), "1/s"),
        "report_p50_s": (per_rep(lambda rep: statistics.median(latencies(rep))), "s"),
        "report_p90_s": (per_rep(lambda rep: statistics.quantiles(latencies(rep), n=10)[8]), "s"),
        "decided_frac": (decided / len(supported), "ratio"),
        "peak_rss_mb": (per_rep(lambda rep: rep["rss_mb"]), "MB"),
    }


def per_layer(plain: list, traced: list) -> dict:
    tables = [rep["layers"] for rep in traced]
    for name in SPAN_NAMES:
        counts = {t[name]["calls"] for t in tables}
        if len(counts) != 1:
            raise BenchError(f"{name}: call counts differ across traced repetitions: {sorted(counts)}")
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (tables[0][name]["calls"], "count")
        out[f"{name}.self_s"] = (statistics.median(t[name]["self_s"] for t in tables), "s")
        out[f"{name}.total_s"] = (statistics.median(t[name]["total_s"] for t in tables), "s")
    for metric, name in RATIOS.items():
        out[metric] = (statistics.median(t[name]["outcome_frac"] for t in tables), "ratio")
    for module in dict.fromkeys(name.split(".")[0] for name in SPAN_NAMES):
        shares = [
            sum(t[n]["self_s"] for n in SPAN_NAMES if n.startswith(module + ".")) / rep["timed_s"]
            for t, rep in zip(tables, traced)
        ]
        out[f"{module}.self_frac"] = (statistics.median(shares), "ratio")
    overhead = (
        statistics.median(r["scaled_s"] for r in traced)
        / statistics.median(r["scaled_s"] for r in plain) - 1.0
    )
    out["trace_overhead_frac"] = (overhead, "ratio")
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    plain, traced, setups = run_reps(workload, seed, seconds, trace)
    attempted, failed, problems = gate_reps(workload, plain + traced, gate.load_expected(workload))
    metrics = per_layer(plain, traced) if trace else end_to_end(plain, setups)
    print(f"# {workload}: seed {seed}, {len(plain)} untraced + {len(traced)} traced repetitions")
    print(
        f"# unscaled: kernel {statistics.median(r['kernel_s'] for r in plain) * 1e3:.3f} ms "
        f"(reference {REFERENCE_S * 1e3:g} ms), "
        f"rings_per_s {statistics.median(len(r['rings']) / r['timed_s'] for r in plain):.6g} 1/s"
        + (f", setup_s {statistics.median(r['raw_setup_s'] for r in setups):.6g} s" if setups else "")
    )
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"failed_frac: {failed / attempted:.6g} ratio ({failed} of {attempted} rings)")
    for line in problems[:20]:
        print(f"MISMATCH {line}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def pin(workload: str, seed: int) -> int:
    """Record the verdicts of one repetition as the expected file."""
    rep = run_rep(workload, seed, time.monotonic() + DEADLINE_S)
    _, failed, problems = gate_reps(workload, [rep], {})
    undecided = [r["key"] for r in rep["rings"] if gate.supported(r) and r["fpi"] not in ("true", "false")]
    if failed or undecided:
        for line in problems + [f"{k}: FPI not decided" for k in undecided]:
            print(f"MISMATCH {line}", file=sys.stderr)
        return 1
    rings = {r["key"]: {f: r[f] for f in gate.FIELDS} for r in rep["rings"]}
    path = gate.EXPECTED_DIR / f"{workload}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "rings": rings}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(rings)} rings to {path.relative_to(ROOT)}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="fpicheck benchmark")
    parser.add_argument("--workload", default="all", choices=["all"] + list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite the expected-verdict file")
    args = parser.parse_args()
    if not (ROOT / "src" / "fpicheck" / "__init__.py").is_file():
        print(f"error: no fpicheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if args.pin:
            return max(pin(name, args.seed) for name in names)
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {name: r["metrics"] for name, r in results.items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
