"""The benchmark's workloads: what each one feeds the program.

A census workload is a ``CensusConfig``; the program enumerates its rings
itself. A report workload is a list of rings, each written to a spec file
and classified by the ``report`` command, one ring at a time.

Every ring carries a key in the census display format,
``F_p[x,y,z]/(g1, g2)``, which the verdict gate uses to look rings up. A
report ring may also carry facts known without running the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# flagship three coordinate axes: CM, not Gorenstein, F-pure, FPI true
AXES = ["x*y", "x*z", "y*z"]
AXES_FACTS = {"dim": 1, "cm": True, "gor": False, "fpure": True, "fpi": "true"}

# the fifteen-ring curve corpus of the acceptance tests (criteria 6 and 7)
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

STAIRCASE_PRIMES = (2, 3, 5, 7)
STAIRCASE_MAX_COLENGTH = 8


@dataclass
class Ring:
    p: int
    varnames: list
    gens: list
    facts: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        return ring_key(self.p, self.varnames, self.gens)

    def spec_text(self) -> str:
        return (
            f"p = {self.p}\nvars = {', '.join(self.varnames)}\n"
            f"ideal = {', '.join(self.gens)}\n"
        )


def ring_key(p: int, varnames, gens) -> str:
    return f"F_{p}[{','.join(varnames)}]/({', '.join(gens)})"


def partitions(total: int):
    """Partitions of `total` as non-increasing tuples."""
    def parts(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in parts(remaining - first, first):
                yield (first,) + rest

    yield from parts(total, total)


def staircase_gens(heights) -> list:
    """Monomial generators of the staircase with column heights `heights`.

    The standard monomials are x^a y^b with b < heights[a]; the generators
    are the inner corners of the complement.
    """
    width = len(heights)
    cols = list(heights) + [0]
    gens = []
    for a in range(width + 1):
        b = cols[a]
        if a == 0 or cols[a - 1] > b:
            gens.append(_mono(a, b))
    return gens


def _mono(a: int, b: int) -> str:
    factors = [name if e == 1 else f"{name}^{e}" for name, e in (("x", a), ("y", b)) if e]
    return "*".join(factors)


def report_deep_rings() -> list:
    rings = [Ring(p, ["x", "y", "z"], AXES, dict(AXES_FACTS)) for p in (2, 3, 5)]
    rings += [Ring(p, list(names), list(gens)) for p, names, gens in DIM_ONE_CM_RINGS]
    return rings


def report_artinian_rings() -> list:
    rings = []
    for p in STAIRCASE_PRIMES:
        for size in range(1, STAIRCASE_MAX_COLENGTH + 1):
            for heights in partitions(size):
                # Gorenstein, and so FPI, exactly when the socle has dimension
                # one, i.e. the staircase has one outer corner: all columns
                # have the same height
                gor = len(set(heights)) == 1
                facts = {"dim": 0, "cm": True, "gor": gor, "fpi": "true" if gor else "false"}
                rings.append(Ring(p, ["x", "y"], staircase_gens(heights), facts))
    return rings


@dataclass(frozen=True)
class Workload:
    name: str
    census: dict = None  # CensusConfig fields; --seed fills in a missing seed
    rings: object = None  # callable returning the report rings
    deep_checks: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "census-monomial",
            census=dict(family="monomial", primes=(3,), nvars=3, max_degree=3, max_gens=3),
        ),
        # The sample is drawn with census seed 0 on every run, whatever
        # --seed says: 80 rings drawn from other seeds cost anywhere from
        # 2.4 s to 4.4 s, a spread no bound on rings_per_s could absorb.
        Workload(
            "census-binomial",
            census=dict(family="binomial-sample", primes=(5, 7), nvars=3, max_degree=2, samples=40, seed=0),
        ),
        Workload("report-deep", rings=report_deep_rings, deep_checks=True),
        Workload("report-artinian", rings=report_artinian_rings, deep_checks=False),
    )
}
