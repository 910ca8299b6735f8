"""Verdict gate: compare each ring's verdicts with answers known beforehand.

Two sources of answers:

* the pinned file ``expected/<workload>.json``: dim, CM, Gorenstein,
  F-pure and FPI per ring key, recorded at the default seed. A verdict is
  a fact about the ring, so it applies to every ring whose key it lists,
  whatever the seed.
* independent checks that never call the engine:
  - a monomial ideal gives dim = n minus the smallest vertex cover of the
    generator supports, and an F-pure ring exactly when it is squarefree
    (Hochster-Roberts); an Artinian monomial ring is Gorenstein exactly
    when one standard monomial spans the socle;
  - a monomial curve with at most two minimal primes has FPI equal to
    Gorenstein;
  - facts a workload attaches to its own rings (the flagship answers, and
    FPI of a staircase read off its partition).

An FPI verdict of "inconclusive" disagrees with nothing; it lowers
``decided_frac`` instead.
"""

from __future__ import annotations

import json
import re
from itertools import combinations, product
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
FIELDS = ("dim", "cm", "gor", "fpure", "fpi")

_KEY_RE = re.compile(r"^F_(\d+)\[([^\]]*)\]/\((.*)\)$")
_FACTOR_RE = re.compile(r"^([A-Za-z_]\w*)(?:\^(\d+))?$")


def parse_key(key: str):
    """(p, variable names, generator strings) of a ring key."""
    m = _KEY_RE.match(key)
    if m is None:
        raise ValueError(f"malformed ring key {key!r}")
    return int(m.group(1)), m.group(2).split(","), m.group(3).split(", ")


def _exponents(gen: str, names):
    """Exponent vector of a monic monomial, or None for anything else."""
    exps = [0] * len(names)
    for factor in gen.replace(" ", "").split("*"):
        m = _FACTOR_RE.match(factor)
        if m is None or m.group(1) not in names:
            return None
        exps[names.index(m.group(1))] += int(m.group(2) or 1)
    return tuple(exps)


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _socle_dimension(gens, n: int) -> int:
    """Socle dimension of an Artinian monomial quotient, by enumeration."""
    bound = [
        min(g[i] for g in gens if g[i] and sum(1 for e in g if e) == 1)
        for i in range(n)
    ]

    def standard(m):
        return not any(_divides(g, m) for g in gens)

    count = 0
    for m in product(*(range(b) for b in bound)):
        if standard(m) and not any(
            standard(tuple(e + (j == i) for j, e in enumerate(m))) for i in range(n)
        ):
            count += 1
    return count


def monomial_facts(key: str):
    """Facts about a monomial ring: (facts dict, few-primes curve flag).

    Returns ({}, False) when some generator is not a monomial.
    """
    _, names, gens = parse_key(key)
    exps = [_exponents(g, names) for g in gens]
    if not exps or None in exps:
        return {}, False
    exps = [m for m in exps if not any(o != m and _divides(o, m) for o in exps)]
    n = len(names)
    supports = [{i for i, e in enumerate(m) if e} for m in exps]
    covers = [
        set(c) for k in range(n + 1) for c in combinations(range(n), k)
        if all(s & set(c) for s in supports)
    ]
    minimal = [c for c in covers if not any(o < c for o in covers)]
    dim = n - min(len(c) for c in minimal)
    facts = {"dim": dim, "fpure": all(e <= 1 for m in exps for e in m)}
    if dim == 0:
        facts["cm"] = True
        facts["gor"] = _socle_dimension(exps, n) == 1
    return facts, dim == 1 and len(minimal) <= 2


def load_expected(workload: str) -> dict:
    with open(EXPECTED_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)["rings"]


def supported(ring: dict) -> bool:
    return ring["dim"] in (0, 1)


def ring_problems(ring: dict, pinned: dict, known: dict) -> list:
    """Reasons this ring's result is wrong; empty when it passes."""
    if ring["error"]:
        return [f"error: {ring['error']}"]
    facts, few_primes = monomial_facts(ring["key"])
    out = []
    for source, wanted in (("pinned", pinned or {}), ("independent", facts), ("known", known or {})):
        for field, value in wanted.items():
            if field != "dim" and not supported(ring):
                continue
            got = ring[field]
            if field == "fpi" and got == "inconclusive":
                continue
            if got != value:
                out.append(f"{field} is {got!r}, {source} answer {value!r}")
    if (
        few_primes
        and ring["fpi"] in ("true", "false")
        and ring["gor"] is not None
        and (ring["fpi"] == "true") != ring["gor"]
    ):
        out.append("monomial curve with <= 2 minimal primes: FPI differs from Gorenstein")
    return out
