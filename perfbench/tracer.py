"""Outside-in span tracer for the fpicheck layers.

The tracer wraps public functions of the ``fpicheck`` modules from outside
the package; no code under ``src/`` knows about it. Each call of a wrapped
function records one span: name, start, end and the span that was open when
it began (its parent). Spans live in flat in-memory arrays and are written to
a ``.npz`` file once the run is over, so the timed work pays only for a few
appends per call.

A wrapper is installed on the defining module and on every ``fpicheck``
module that bound the same function object with ``from .x import y``;
otherwise a call such as ``classify`` -> ``ideal_colon`` would go through
the unwrapped name. Methods are wrapped once, on their class.

``gfpoly`` gets no span: its operators run millions of times per workload
and a Python wrapper would distort them. Their cost shows up as self time
of ``reduce_poly`` and ``reduce_vec``.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array


def _gb_served_from_cache(args, kwargs) -> int:
    """Will ``Ideal.groebner_basis`` return a basis it already holds?"""
    from fpicheck.gfpoly import GREVLEX

    ideal = args[0]
    order = args[1] if len(args) > 1 else kwargs.get("order", GREVLEX)
    return int((order.kind, order.block) in ideal._gb)


# (module, attribute path, outcome before the call, outcome after the call).
# An outcome is 0 or 1 per span; the per-layer table reports its mean.
TARGETS = [
    ("groebner", "buchberger", None, None),
    ("groebner", "reduce_poly", None, lambda r: int(r.is_zero())),
    ("groebner", "ideal_colon", None, None),
    ("groebner", "ideal_intersect", None, None),
    ("groebner", "Ideal.groebner_basis", _gb_served_from_cache, None),
    ("groebner", "RingSpec.is_nzd", None, lambda r: int(bool(r))),
    ("modgb", "reduce_vec", None, None),
    ("modgb", "module_groebner", None, None),
    ("modgb", "syzygy_basis", None, None),
    ("modgb", "kernel_over_quotient", None, None),
    ("resolutions", "minimal_free_resolution", None, None),
    ("resolutions", "canonical_module", None, None),
    ("linalg", "rref", None, None),
    ("linalg", "nullspace", None, None),
    ("artinian", "realize_finite", None, None),
    ("artinian", "modules_isomorphic", None, lambda r: int(r.decided)),
    ("artinian", "frobenius_fixes_injective_hull", None, None),
    ("pushforward", "frobenius_pushforward", None, None),
    ("pushforward", "hom_pushforward_into_ring", None, None),
    ("classify", "find_nzds", None, None),
    ("classify", "canonical_ideal", None, None),
    ("classify", "ideals_isomorphic", None, None),
    ("classify", "is_gorenstein", None, None),
    ("classify", "is_f_pure", None, None),
    ("classify", "classify_ring", None, None),
    ("cli", "run_census", None, None),
    ("cli", "run_report", None, None),
]

SPAN_NAMES = [f"{module}.{path}" for module, path, _, _ in TARGETS]


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outcome = array("b")
        self._stack = [-1]

    def wrap(self, label: str, fn, before=None, after=None):
        nid = len(self.names)
        self.names.append(label)
        name, parent, start, end, outcome = (
            self.name, self.parent, self.start, self.end, self.outcome
        )
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            outcome.append(-1 if before is None else before(args, kwargs))
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                outcome[idx] = after(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target where the package binds it."""
        import fpicheck  # noqa: F401  (imports every module of the package)

        package = [
            mod for key, mod in sys.modules.items()
            if key == "fpicheck" or key.startswith("fpicheck.")
        ]
        for module, path, before, after in TARGETS:
            owner = sys.modules[f"fpicheck.{module}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            traced = self.wrap(f"{module}.{path}", original, before, after)
            if cls_path:
                setattr(owner, attr, traced)
                continue
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def dump(self, path: str, pauses=()) -> None:
        """Write the spans, with the (start, end) `pauses` cut out of time."""
        import numpy as np

        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        if len(pauses):
            start, end = _without_pauses(start, pauses), _without_pauses(end, pauses)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=start,
            end=end,
            outcome=np.frombuffer(self.outcome, dtype=np.int8),
        )


def _without_pauses(stamps, pauses):
    """Each stamp minus the paused time before it; pauses are sorted and
    disjoint, and a pause runs no traced code, so no span ends inside one."""
    import numpy as np

    begin, finish = np.asarray(pauses, dtype=np.float64).T
    length = finish - begin
    before = np.concatenate(([0.0], np.cumsum(length)))
    begun = np.searchsorted(begin, stamps, side="right")  # pauses begun by each stamp
    last = np.maximum(begun - 1, 0)
    paused = np.where(
        begun > 0, before[last] + np.minimum(stamps - begin[last], length[last]), 0.0
    )
    return stamps - paused


def layer_table(path: str) -> dict:
    """Per span name: calls, self_s, total_s and the outcome mean.

    Self time is a span's duration minus the time its child spans cover;
    on one thread, children are disjoint, so that is the sum of their
    durations. Total time counts only the outermost span of a name, so a
    recursive call is not counted twice.
    """
    import numpy as np

    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        name, parent = data["name"], data["parent"]
        dur = data["end"] - data["start"]
        outcome = data["outcome"]
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    self_s = dur - covered
    nested = np.zeros(len(dur), dtype=bool)
    anc = parent.copy()
    while (anc >= 0).any():
        live = anc >= 0
        nested[live] |= name[anc[live]] == name[live]
        anc[live] = parent[anc[live]]
    k = len(names)
    calls = np.bincount(name, minlength=k)
    self_by = np.bincount(name, weights=self_s, minlength=k)
    total_by = np.bincount(name[~nested], weights=dur[~nested], minlength=k)
    judged = outcome >= 0
    hits = np.bincount(name[judged], weights=outcome[judged], minlength=k)
    judged_n = np.bincount(name[judged], minlength=k)
    table = {}
    for i, label in enumerate(names):
        table[label] = {
            "calls": int(calls[i]),
            "self_s": float(self_by[i]),
            "total_s": float(total_by[i]),
            "outcome_frac": float(hits[i] / judged_n[i]) if judged_n[i] else 0.0,
        }
    return table
