"""Command-line interface: single-ring reports and batch censuses.

Two subcommands:

* ``report`` parses a ring-spec file, runs the classifier, and emits the
  report as JSON (stable key order) or readable text. Exit code 0 means
  every requested verdict is decisive, 2 means something stayed
  inconclusive, 1 means an error (bad input, unsupported dimension, ...).
  Any ideal parses; the classifier refuses the unit ideal under every
  check and an inhomogeneous ideal under every check but ``fpure``, each
  by name.

* ``census`` enumerates a deterministic family of rings (all monomial
  antichain ideals up to a degree bound, or a seeded sample of binomial
  ideals), classifies each row, and writes a CSV table with summary
  comment lines. Rows the classifier cannot settle are flagged, never
  guessed; a row whose work fails, budget exhaustion included, becomes an
  ``error: ...`` row and the census goes on with the next ring. The census
  seed draws the binomial sample and nothing else: every classification is
  deterministic. A census runs no deep dual-module check.

Ring-spec files are small key=value texts::

    p=2
    vars=x,y,z
    ideal=x*y, x*z, y*z
    label=three-lines

Blank lines and lines starting with ``#`` are ignored.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import random
import sys
from dataclasses import dataclass

from .errors import CasError, ParseError
from .gfpoly import (
    Polynomial,
    monomials_of_degree,
    parse_polynomial,
    poly_to_string,
    require_prime,
)
from .groebner import RingSpec
from .hilbert import minimal_monomials
from .classify import CHECKS, classify_ring, report_is_decisive


# ---------------------------------------------------------------------------
# ring-spec files

def parse_ring_spec(text: str) -> RingSpec:
    """Parse a key=value ring description into a validated RingSpec.

    Recognized keys: p, vars, ideal, label (optional). Errors carry the
    line and column of the offending token. Any ideal is accepted here;
    `classify_ring` refuses the unit ideal and, except under the "fpure"
    check, an inhomogeneous one.
    """
    fields: dict = {}
    field_lines: dict = {}
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError("expected key=value", lineno, 1)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in ("p", "vars", "ideal", "label"):
            raise ParseError(f"unknown key {key!r}", lineno, 1)
        if key in fields:
            raise ParseError(f"duplicate key {key!r}", lineno, 1)
        fields[key] = value.strip()
        field_lines[key] = lineno
    for key in ("p", "vars", "ideal"):
        if key not in fields:
            raise ParseError(f"missing required key {key!r}", len(lines) + 1, 1)
    try:
        p = int(fields["p"])
    except ValueError:
        raise ParseError(
            f"p must be an integer, got {fields['p']!r}", field_lines["p"], 1
        ) from None
    varnames = [v.strip() for v in fields["vars"].split(",") if v.strip()]
    if not varnames:
        raise ParseError("vars must list at least one variable", field_lines["vars"], 1)
    for name in varnames:
        if not name.isidentifier():
            raise ParseError(f"bad variable name {name!r}", field_lines["vars"], 1)
    if len(set(varnames)) != len(varnames):
        raise ParseError("duplicate variable names", field_lines["vars"], 1)
    require_prime(p)  # a bad characteristic fails before any generator is parsed
    # each generator is parsed where it stands, so columns count from the line start
    lineno = field_lines["ideal"]
    raw = lines[lineno - 1]
    col = raw.index("=") + 1
    gens = []
    for piece in raw[col:].split(","):
        if piece.strip():
            gens.append(parse_polynomial(piece, varnames, p, line=lineno, col_offset=col))
        col += len(piece) + 1
    return RingSpec(p, varnames, gens, label=fields.get("label", ""))


def _ring_display(rs: RingSpec) -> str:
    names = list(rs.ring.varnames)
    gens = ", ".join(poly_to_string(g, names) for g in rs.ideal.generators) or "0"
    return f"F_{rs.p}[{','.join(names)}]/({gens})"


# ---------------------------------------------------------------------------
# report subcommand

def _format_text(report) -> str:
    d = report.to_dict()
    lines = []
    title = d["label"] or "ring"
    lines.append(f"{title}: F_{d['p']}[{', '.join(d['variables'])}] / ({', '.join(d['ideal']) or '0'})")
    if d["dimension"] is not None:
        cm = {True: "yes", False: "no", None: "?"}[d["cohen_macaulay"]]
        lines.append(
            f"dimension {d['dimension']}, depth {d['depth']}, Cohen-Macaulay {cm}"
        )
    if d["gorenstein"] is not None:
        w = d["gorenstein_witness"] or {}
        extra = ""
        if "socle_dimension" in w:
            extra = f" (socle dimension {w['socle_dimension']})"
        lines.append(f"Gorenstein: {'yes' if d['gorenstein'] else 'no'}{extra}")
    if d["f_pure"] is not None:
        w = d["f_pure_witness"] or {}
        extra = ""
        if "splitting_witness" in w:
            extra = f" (splitting witness {w['splitting_witness']})"
        elif "length" in w:
            extra = f" (length {w['length']})"
        elif "depth" in w:
            extra = f" (depth {w['depth']})"
        elif "frobenius_rank" in w:
            extra = f" (Frobenius on R_1 has rank {w['frobenius_rank']} of {w['hilbert_function_1']})"
        elif "multiplicity" in w:
            extra = f" (multiplicity {w['multiplicity']}, HF(1) = {w['hilbert_function_1']})"
        lines.append(f"F-pure: {'yes' if d['f_pure'] else 'no'}{extra}")
    if d["weakly_fpi"] is not None:
        lines.append(
            f"Frobenius preserves injectives: {d['weakly_fpi']} (method {d['fpi_method']})"
        )
        w = d["fpi_witness"] or {}
        if "canonical_ideal" in w:
            lines.append(f"  canonical ideal: ({', '.join(w['canonical_ideal'])})")
        if "socle_dimension" in w:
            lines.append(f"  omega^[p]/l*omega^[p]: length {w['length']}, "
                         f"socle dimension {w['socle_dimension']}")
        if "socle_FE" in w:
            lines.append(f"  F(E): length {w['length_FE']}, socle dimension {w['socle_FE']}")
        if "reason" in w:
            lines.append(f"  reason: {w['reason']}")
    elif d["canonical"] is not None:
        c = d["canonical"]
        body = ", ".join(c["generators"]) if c["generators"] else "none"
        lines.append(f"canonical ideal: {c['status']} ({body})")
    if d["cross_checks"]:
        done = sum(1 for c in d["cross_checks"] if c["status"] == "confirmed")
        lines.append(f"cross-checks: {done} confirmed, {len(d['cross_checks']) - done} other")
    for note in d["notes"]:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _require_non_negative(**budgets) -> None:
    """Reject a negative budget, naming its command line flag."""
    for name, value in budgets.items():
        if value < 0:
            raise ValueError(f"--{name.replace('_', '-')} must be non-negative, got {value}")


def run_report(args) -> int:
    if args.max_degree < 1:
        raise ValueError(f"--max-degree must be at least 1, got {args.max_degree}")
    with open(args.input, "r", encoding="utf-8") as fh:
        text = fh.read()
    rs = parse_ring_spec(text)
    report = classify_ring(
        rs,
        check=args.check,
        max_degree=args.max_degree,
        deep_checks=not args.no_deep_checks,
    )
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(_format_text(report))
    return 0 if report_is_decisive(report, args.check) else 2


# ---------------------------------------------------------------------------
# census subcommand

@dataclass
class CensusConfig:
    """Deterministic description of one census run."""

    family: str = "monomial"  # "monomial" | "binomial-sample"
    primes: tuple = (2,)
    nvars: int = 3
    max_degree: int = 2
    max_gens: int = 4
    seed: int = 0
    samples: int = 25

    def __post_init__(self):
        if self.family not in ("monomial", "binomial-sample"):
            raise ValueError(f"unknown census family {self.family!r}")
        if not 1 <= self.nvars <= 4:
            raise ValueError("census supports 1 to 4 variables")
        _require_non_negative(
            max_degree=self.max_degree,
            max_gens=self.max_gens,
            samples=self.samples,
        )
        for p in self.primes:
            require_prime(p)
        if len(set(self.primes)) != len(self.primes):
            raise ValueError(f"--p lists a prime more than once: {self.primes}")


def enumerate_monomial_ideals(nvars: int, max_degree: int, max_gens: int):
    """All antichains (no generator divides another) of at most max_gens
    monomials of degree 1..max_degree, in a fixed deterministic order."""
    from itertools import combinations

    monos = []
    for d in range(1, max_degree + 1):
        monos.extend(sorted(monomials_of_degree(nvars, d)))
    for size in range(1, max_gens + 1):
        for combo in combinations(monos, size):
            if len(minimal_monomials(combo)) == size:
                yield combo


def _census_varnames(nvars: int):
    return ["x", "y", "z", "w"][:nvars]


def _census_rings(config: CensusConfig):
    """Yield the RingSpecs of the configured family, in order."""
    names = _census_varnames(config.nvars)
    if config.family == "monomial":
        for p in config.primes:
            for combo in enumerate_monomial_ideals(
                config.nvars, config.max_degree, config.max_gens
            ):
                gens = [Polynomial.from_monomial(p, m) for m in combo]
                yield RingSpec(p, names, gens)
        return
    if not config.max_gens or not config.max_degree:
        return  # no generator fits the budget, as in the monomial family
    seen = set()
    for p in config.primes:
        rng = random.Random(f"census:{config.seed}:{p}")
        produced = 0
        attempts = 0
        while produced < config.samples and attempts < config.samples * 40:
            attempts += 1
            ngens = rng.randint(1, min(3, config.max_gens))
            gens = []
            for _ in range(ngens):
                d = rng.randint(1, config.max_degree)
                monos = sorted(monomials_of_degree(config.nvars, d))
                m1 = monos[rng.randrange(len(monos))]
                m2 = monos[rng.randrange(len(monos))]
                if m1 == m2:
                    gens.append(Polynomial.from_monomial(p, m1))
                else:
                    c = rng.randrange(1, p)
                    f = Polynomial.from_monomial(p, m1) - Polynomial.from_monomial(p, m2) * c
                    gens.append(f)
            rs = RingSpec(p, names, gens)
            key = (p, rs.ideal.lead_monomials(), tuple(sorted(
                tuple(sorted(g.terms.items())) for g in rs.ideal.groebner_basis()
            )))
            if key in seen or rs.ideal.is_zero():
                continue
            seen.add(key)
            yield rs
            produced += 1


CSV_COLUMNS = [
    "ring", "p", "dim", "CM", "Gorenstein", "F-pure", "FPI",
    "min-primes", "caveat",
]


def _bool_cell(value) -> str:
    if value is None:
        return "NA"
    return "true" if value else "false"


def run_census(config: CensusConfig, out=None) -> dict:
    """Classify every ring in the family and write CSV rows to `out`.

    Returns the summary dict. No row reads a seed, so each is reproducible
    in isolation. Rows of unsupported dimension and per-row failures are
    flagged in the caveat column. A failure is confined to its row: any
    CasError raised while computing the row's dimension or classifying it, a
    ResourceLimitError included, writes an ``error: ...`` row (dim ``NA``
    when the dimension itself failed) and the census continues. An error
    while enumerating the family, before any row exists, ends the run.
    """
    out = out if out is not None else sys.stdout
    writer = csv.writer(out)
    writer.writerow(CSV_COLUMNS)
    summary = {
        "rows": 0, "classified": 0, "unsupported": 0, "errors": 0,
        "fpi_true": 0, "fpi_false": 0, "inconclusive": 0,
    }
    for rs in _census_rings(config):
        summary["rows"] += 1
        base = [_ring_display(rs), rs.p, "NA"]
        try:
            base[2] = dim = rs.dimension
            if dim < 0 or dim > 1:
                writer.writerow(
                    base + ["NA", "NA", "NA", "NA", "NA", "unsupported-dimension"]
                )
                summary["unsupported"] += 1
                continue
            rep = classify_ring(rs, check="all", deep_checks=False)
        except CasError as exc:
            writer.writerow(
                base + ["NA", "NA", "NA", "NA", "NA", f"error: {exc}"]
            )
            summary["errors"] += 1
            continue
        caveat = ""
        if rep.weakly_fpi == "inconclusive":
            caveat = "inconclusive"
            summary["inconclusive"] += 1
        elif rep.weakly_fpi == "true":
            summary["fpi_true"] += 1
        else:
            summary["fpi_false"] += 1
        mp = rep.minimal_prime_count
        writer.writerow(
            base
            + [
                _bool_cell(rep.cohen_macaulay),
                _bool_cell(rep.gorenstein),
                _bool_cell(rep.f_pure),
                rep.weakly_fpi,
                mp if mp is not None else "NA",
                caveat,
            ]
        )
        summary["classified"] += 1
    out.write(
        "# summary: rows={rows} classified={classified} unsupported={unsupported} "
        "errors={errors} fpi_true={fpi_true} fpi_false={fpi_false} "
        "inconclusive={inconclusive}\n".format(**summary)
    )
    return summary


def _parse_primes(text: str) -> tuple:
    out = []
    for part in text.split(","):
        part = part.strip()
        if part:
            out.append(int(part))
    if not out:
        raise ValueError("need at least one prime")
    return tuple(out)


# ---------------------------------------------------------------------------
# argument parsing

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared by every `main` call:
    `parse_args` leaves it as it was and fills a fresh namespace each call,
    while building it takes most of a millisecond, an eighth of a median
    report on a small Artinian ring."""
    parser = argparse.ArgumentParser(
        prog="fpicheck",
        description="Exact classifier for Frobenius properties of graded rings "
        "over F_p in dimension at most one.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="classify a single ring from a spec file")
    rep.add_argument("--input", required=True, help="path to a ring-spec file")
    rep.add_argument("--check", choices=CHECKS, default="all")
    rep.add_argument(
        "--seed", type=int, default=0,
        help="accepted and ignored: every witness search is deterministic",
    )
    rep.add_argument("--format", choices=("json", "text"), default="json")
    rep.add_argument(
        "--max-degree", type=int, default=2,
        help="degree budget for non-zero-divisor searches, at least 1",
    )
    rep.add_argument(
        "--no-deep-checks", action="store_true",
        help="skip the direct Frobenius dual-module cross-check",
    )

    cen = sub.add_parser("census", help="classify a deterministic family of rings")
    cen.add_argument("--family", choices=("monomial", "binomial-sample"), default="monomial")
    cen.add_argument("--p", default="2", help="comma-separated primes, e.g. 2,3")
    cen.add_argument("--vars", type=int, default=3, help="number of variables (1..4)")
    cen.add_argument("--max-degree", type=int, default=2)
    cen.add_argument("--max-gens", type=int, default=4)
    cen.add_argument("--seed", type=int, default=0, help="seed of the binomial sample")
    cen.add_argument("--samples", type=int, default=25, help="rows per prime (binomial-sample)")
    cen.add_argument("--output", default="-", help="CSV path, or - for stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return run_report(args)
        config = CensusConfig(
            family=args.family,
            primes=_parse_primes(args.p),
            nvars=args.vars,
            max_degree=args.max_degree,
            max_gens=args.max_gens,
            seed=args.seed,
            samples=args.samples,
        )
        if args.output == "-":
            run_census(config)
        else:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                run_census(config, fh)
        return 0
    except CasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader of stdout stopped early (`| head`), which is no failure;
        # stdout goes to devnull so that the flush at exit is quiet too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
