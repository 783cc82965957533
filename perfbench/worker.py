"""Child process that runs one part of a library workload against qtlattice.

Usage (from run.py): python perfbench/worker.py '<json spec>'

The spec names the workload, seed, sizes, part ("main" or "ceiling"), run
id and whether to trace.  The worker imports qtlattice and runs the part's
ops in order.  For each op it writes JSON lines to its standard output:

    {"start": i}                          before the call
    {"ran": i, "seconds": s, "error": e}  after it (error is null on success)
    {"checked": i, "status": st, "why": w, "margins": {...}}

and at the end {"done": true, "spans": [...]}.  The parent enforces the
per-op time limit by killing the worker, so a slow op cannot stall the run.
Anything the program prints goes to standard error.
"""

from __future__ import annotations

import json
import os
import sys
import time

import spans
import workloads
from workloads import Sizes


def sizes_from_json(data: dict) -> Sizes:
    return Sizes(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})


def main() -> None:
    spec = json.loads(sys.argv[1])
    channel = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr

    def emit(message: dict) -> None:
        channel.write(json.dumps(message) + "\n")
        channel.flush()

    workload = workloads.build(spec["workload"], spec["seed"], sizes_from_json(spec["sizes"]), None)
    import qtlattice

    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer(spec["run_id"])
        spans.install(tracer)
    emit({"ready": True})
    ctx: dict = {}
    for i, op in enumerate(getattr(workload, spec["part"])):
        if tracer is not None:
            tracer.op = i
        emit({"start": i})
        started = time.perf_counter()
        try:
            result = op.run(qtlattice, ctx)
        except Exception as exc:  # the op failed; the run goes on
            emit({"ran": i, "seconds": time.perf_counter() - started, "error": repr(exc)[:300]})
            continue
        emit({"ran": i, "seconds": time.perf_counter() - started, "error": None})
        ctx[op.name] = result
        status, why, margins = workloads.run_check(op.check, ctx, result)
        emit({"checked": i, "status": status, "why": why, "margins": margins})
    emit({"done": True, "spans": tracer.spans if tracer is not None else []})


if __name__ == "__main__":
    main()
