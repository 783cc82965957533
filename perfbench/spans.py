"""In-memory spans around calls into qtlattice, recorded from outside the program.

A span is a dict with the keys name, start, end, parent (index of the
enclosing span, -1 for none), run (run id), op (index of the benchmark op
that caused it, -1 when unknown) and failed (the call raised).  Spans stay
in memory until the process hands them over at its end.

`install` wraps each traced public function in every qtlattice module
namespace that binds it, so a call made through an imported name (horizons
imports classify_definiteness by name) is recorded like a direct call.
"""

from __future__ import annotations

import functools
import sys
import time

# (defining module, function): the public functions whose spans become the
# per-layer metrics <module>.<function>.{calls,self_s,failed}.
TRACED = (
    ("legendre", "roots_P"),
    ("lattice", "spectrum"),
    ("lattice", "biorthogonal_system"),
    ("metrics", "classify_definiteness"),
    ("metrics", "metric_from_kappa"),
    ("metrics", "kappa_from_metric"),
    ("metrics", "tridiagonal_metric"),
    ("metrics", "charge_operator"),
    ("horizons", "horizon_gamma"),
    ("horizons", "hidden_horizon_scan"),
    ("observables", "observable_from_hermitian"),
    ("observables", "spectral_data"),
    ("observables", "overlap_matrices"),
    ("observables", "dieudonne_residual"),
    ("evolution", "propagator"),
    ("evolution", "norm_drift"),
    ("exact", "exact_intertwining_check"),
    ("exact", "exact_tridiagonal_solve"),
    ("exact", "exact_exceptional_identity"),
    ("cli", "run"),
)
TRACED_NAMES = tuple(f"{module}.{function}" for module, function in TRACED)
PACKAGE = "qtlattice"


class Tracer:
    """Collects spans for one run id; `op` tags spans with the current op."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.op = -1
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(
            {
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": self._stack[-1] if self._stack else -1,
                "run": self.run_id,
                "op": self.op,
                "failed": False,
            }
        )
        self._stack.append(index)
        return index

    def end(self, index: int, failed: bool = False) -> None:
        span = self.spans[index]
        span["end"] = time.perf_counter()
        span["failed"] = failed
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(index, failed=True)
                raise
            self.end(index)
            return result

        return traced


def install(tracer: Tracer) -> int:
    """Replace every binding of a traced function in loaded qtlattice modules.

    Returns the number of bindings replaced.
    """
    modules = {
        name: module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    }
    replaced = 0
    for module_name, function in TRACED:
        original = getattr(modules.get(f"{PACKAGE}.{module_name}"), function, None)
        if original is None:  # module not loaded, or the function is gone
            continue
        wrapper = tracer.wrap(f"{module_name}.{function}", original)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    replaced += 1
    return replaced


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            start = max(span["start"], parent["start"])
            end = min(span["end"], parent["end"])
            if end > start:
                children.setdefault(span["parent"], []).append((start, end))
    return [
        (span["end"] - span["start"]) - _covered(children.get(i, []))
        for i, span in enumerate(spans)
    ]


def covered_by_roots(spans: list[dict]) -> float:
    """Time covered by top-level spans: the part of an op that some span explains."""
    return _covered([(s["start"], s["end"]) for s in spans if s["parent"] < 0])


def aggregate(spans: list[dict]) -> dict[str, dict[str, float]]:
    """name -> {calls, self_s, failed}."""
    out: dict[str, dict[str, float]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        entry = out.setdefault(span["name"], {"calls": 0, "self_s": 0.0, "failed": 0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["failed"] += int(span["failed"])
    return out
