"""Run every workload over a range of seeds and record the baseline.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Each run is `run.py --trace 0` in a fresh process with the run_seconds of
BENCHMARK.json, exactly as the benchmark is run for comparisons.  The output holds, per workload and end-to-end
metric, the median, the quartiles and the spread (interquartile range over
the median) of the runs, plus the environment, the sizes and per-op limits,
and which layer metrics should move which end-to-end metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

PREDICTIONS = {
    "import.*": "setup_s on every workload, and wall_s on cli",
    "legendre.roots_P.self_s": "wall_s on spectral; no change on horizons or cli",
    "lattice.biorthogonal_system.calls/self_s": "wall_s on spectral, through the 150 "
    "propagator calls that rebuild the eigensystem",
    "metrics.classify_definiteness.* and horizons.*": "wall_s on horizons; a small share of "
    "wall_s on spectral",
    "observables.* and evolution.*": "wall_s on spectral",
    "exact.*": "wall_s (verify) on cli; through the sympy/mpmath import, setup_s everywhere",
    "cli.run": "wall_s on cli",
    "the N = 1024 ceiling": "ops_ok_frac and wall_s on spectral and horizons",
}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def environment() -> dict:
    import numpy
    import scipy
    import sympy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "blas_threads": run.BLAS_THREADS,
        "machine": platform.machine(),
    }


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "runs": len(values),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    result = {
        "environment": environment(),
        "limits_s": {
            "ceiling_op": workloads.CEILING_LIMIT_S,
            "library_op": workloads.LIBRARY_LIMIT_S,
            "cli_op": workloads.CLI_LIMIT_S,
        },
        "sizes": asdict(workloads.FULL),
        "seeds": seeds,
        "run_seconds": seconds,
        "predictions": PREDICTIONS,
        "workloads": {},
    }
    for name in workloads.BUILDERS:
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=True, cwd=run.ROOT,
            )
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            print(name, seed, json.dumps(out), file=sys.stderr, flush=True)
            if not out["correct"]:
                print(f"{name} seed {seed}: incorrect output", file=sys.stderr)
                return 1
            attempted += out["attempted"]
            failed += out["failed"]
            for metric, entry in out["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        result["workloads"][name] = {
            "why": why[name],
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                metric: {"unit": unit, **summarize(values[metric])}
                for metric, unit, _ in run.END_TO_END
            },
        }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
