"""qtlattice benchmark: run one workload with a seed and print its metrics.

    python3 perfbench/run.py --workload {cli,spectral,horizons} --seed N \
        --seconds S --trace {0,1}

Run from the root of a qtlattice checkout (the program is imported from
./src).  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; a summary of failed ops goes to
standard error.  A pass runs every op of the workload once, cold, in fresh
interpreters; passes repeat until --seconds have been measured.  With
--trace 0 the metrics are the end-to-end metrics, with --trace 1 the
per-layer metrics of one more pass, traced.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import FULL, Sizes  # noqa: E402

WORKDIR = ROOT / ".perfbench_work"
BLAS_THREADS = 1
SETUP_REPEATS = 3
SETUP_LIMIT_S = 60.0
CHECK_LIMIT_S = 60.0
# A run stops starting new work after this many seconds, so that it ends
# within three minutes even when ops hang.
RUN_BUDGET_S = 140.0

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("ops_ok_frac", "fraction", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
MODULES = ("legendre", "lattice", "metrics", "horizons", "observables", "evolution", "exact", "cli")
MARGINS = (
    ("legendre.root_err_max", "abs"),
    ("lattice.eig_residual_max", "rel"),
    ("lattice.identity_residual_max", "abs"),
    ("metrics.kappa_roundtrip_err_max", "rel"),
    ("horizons.cross_check_residual_max", "abs"),
    ("evolution.theta_drift_max", "rel"),
)
COUNTS = ("horizons.bisection_iterations", "horizons.scan_points", "horizons.scan_skipped")
PER_LAYER = (
    tuple(
        (f"{name}.{field}", unit, "lower")
        for name in spans.TRACED_NAMES
        for field, unit in (("calls", "count"), ("self_s", "s"), ("failed", "count"))
    )
    + (("import.self_s", "s", "lower"),)
    + tuple((f"import.{module}_s", "s", "lower") for module in MODULES)
    + tuple((name, "count", "lower") for name in COUNTS)
    + tuple((name, unit, "lower") for name, unit in MARGINS)
    + (
        ("trace.overhead_s", "s", "lower"),
        ("trace.unattributed_s", "s", "lower"),
        ("trace.failed_op_s", "s", "lower"),
    )
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Budget:
    """The run's remaining time; op limits are clipped to it."""

    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def clip(self, limit: float) -> float:
        return max(0.0, min(limit, self.end - time.perf_counter()))


# ------------------------------------------------------------------ setup


SETUP_CODE = (
    "import time; t = time.perf_counter(); import qtlattice; "
    "print(time.perf_counter() - t)"
)


def measure_setup(env, trace: bool, budget: Budget) -> tuple[list[float], dict[str, list[float]]]:
    """Import times of qtlattice, each in a fresh interpreter.

    run() measures before and after the workload and takes the median, which
    drops the first import of a fresh checkout (it writes the bytecode
    cache).  With trace, -X importtime gives each module's incremental import
    time in dependency order (cli included).
    """
    code = SETUP_CODE + ("; import qtlattice.cli" if trace else "")
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + ["-c", code]
    times, modules = [], {m: [] for m in MODULES}
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=budget.clip(SETUP_LIMIT_S), check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2].startswith("qtlattice."):
                module = parts[2].split(".", 1)[1]
                if module in modules:
                    modules[module].append(int(parts[1]) * 1e-6)
    return times, modules


# ------------------------------------------------------------------ ops


def record(op, status: str, seconds: float, why: str = "", margins=None, covered=0.0) -> dict:
    return {
        "name": op.name,
        "status": status,
        "seconds": seconds,
        "limit_s": op.limit_s,
        "why": why,
        "margins": margins or {},
        "covered": covered,
    }


class LineReader:
    """JSON lines from a child's stdout, each read under a deadline."""

    def __init__(self, stream):
        self.fd = stream.fileno()
        self.buffer = b""
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.fd, selectors.EVENT_READ)

    def read(self, deadline: float) -> dict | None:
        """The next message, or None on timeout or end of stream."""
        while b"\n" not in self.buffer:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not self.selector.select(remaining):
                return None
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                return None
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return json.loads(line)

    def close(self) -> None:
        self.selector.close()


def run_library_part(workload, part, seed, sizes, trace, run_id, env, budget):
    """Run one worker process; kill it when an op passes its limit.

    Ops that did not run are recorded as skipped.
    """
    ops = getattr(workload, part)
    spec = {
        "workload": workload.name, "seed": seed, "sizes": asdict(sizes), "part": part,
        "trace": trace, "run_id": run_id,
    }
    records: list[dict | None] = [None] * len(ops)
    span_list: list[dict] = []
    why = "run budget spent"
    if budget.clip(SETUP_LIMIT_S) > 0:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            stdout=subprocess.PIPE, env=env, cwd=ROOT,
        )
        reader = LineReader(proc.stdout)
        why = "worker did not start"
        try:
            message = reader.read(time.perf_counter() + budget.clip(SETUP_LIMIT_S))
            if message is not None:
                why = "worker stopped"
            current, started, ran = None, 0.0, {}
            while message is not None and not message.get("done"):
                now = time.perf_counter()
                limit = CHECK_LIMIT_S
                if "start" in message:
                    current, started = message["start"], now
                    limit = ops[current].limit_s
                elif "ran" in message:
                    ran = message
                    if message["error"] is not None:
                        i = message["ran"]
                        records[i] = record(ops[i], "raised", message["seconds"], message["error"])
                        current = None
                elif "checked" in message:
                    i = message["checked"]
                    records[i] = record(ops[i], message["status"], ran["seconds"],
                                        message["why"], message["margins"])
                    current = None
                message = reader.read(now + budget.clip(limit))
            if message is not None:
                span_list = message["spans"]
            elif current is not None:
                op, alive = ops[current], proc.poll() is None
                if ran.get("ran") == current:
                    records[current] = record(op, "malformed", ran["seconds"], "check did not finish")
                elif alive:
                    records[current] = record(op, "timeout", time.perf_counter() - started,
                                              f"over the {op.limit_s:g} s limit")
                else:
                    records[current] = record(op, "crashed", time.perf_counter() - started,
                                              "worker died")
                why = f"not run: {op.name} {records[current]['status']}"
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            reader.close()
            proc.stdout.close()
    for i, op in enumerate(ops):
        if records[i] is None:
            records[i] = record(op, "skipped", 0.0, why)
        elif trace:
            records[i]["covered"] = spans.covered_by_roots([s for s in span_list if s["op"] == i])
    return records, span_list


def run_cli_op(op, index, trace, run_id, env, budget):
    limit = budget.clip(op.limit_s)
    if limit <= 0:
        return record(op, "skipped", 0.0, "run budget spent"), []
    if trace:
        span_file = WORKDIR / f"spans-{index}.json"
        span_file.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "cli_child.py"), *op.argv]
        env = dict(env, PERFBENCH_SPANS=str(span_file), PERFBENCH_RUN=run_id)
    else:
        cmd = [sys.executable, "-m", "qtlattice.cli", *op.argv]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        return record(op, "timeout", time.perf_counter() - started, f"over {limit:g} s"), []
    seconds = time.perf_counter() - started
    span_list = []
    if trace and span_file.exists():
        span_list = json.loads(span_file.read_text())
        for span in span_list:
            span["op"] = index
    covered = spans.covered_by_roots(span_list)
    if proc.returncode != op.expected_exit:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        why = f"exit {proc.returncode}, expected {op.expected_exit}: {tail[0][:200]}"
        return record(op, "exit", seconds, why, covered=covered), span_list
    status, why, margins = "ok", "", {}
    if op.check is not None:
        status, why, margins = workloads.run_check(op.check, proc.stdout)
    return record(op, status, seconds, why, margins, covered), span_list


def run_pass(workload, seed, sizes, trace, run_id, env, budget):
    """Every op of the workload once; span op indices point into the records."""
    records, span_list = [], []
    for part in ("main", "ceiling"):
        if not getattr(workload, part):
            continue
        recs, part_spans = run_library_part(
            workload, part, seed, sizes, trace, f"{run_id}-{part}", env, budget
        )
        # worker op indices count from 0 per part; records are in index order
        for span in part_spans:
            span["op"] += len(records)
        records += recs
        _extend(span_list, part_spans)
    for op in workload.cli:
        rec, op_spans = run_cli_op(op, len(records), trace, run_id, env, budget)
        records.append(rec)
        _extend(span_list, op_spans)
    return records, span_list


def _extend(span_list: list[dict], more: list[dict]) -> None:
    """Append one process's spans, shifting their parent indices."""
    offset = len(span_list)
    for span in more:
        if span["parent"] >= 0:
            span["parent"] += offset
    span_list += more


# ------------------------------------------------------------------ metrics


# Ops with these statuses did not finish: they passed their limit, their
# worker died, or they were never started after such an op.
UNFINISHED = ("timeout", "crashed", "skipped")


def charged(rec: dict) -> float:
    """An op's time; an op that did not finish is charged its limit.

    So a change that lets an op finish, however slowly within its limit,
    does not read as a slowdown.  An op that finished but failed (a wrong
    value, a raise, a wrong exit code, malformed output) is charged its
    measured time; its failure shows in ops_ok_frac.
    """
    if rec["status"] in UNFINISHED:
        return max(rec["seconds"], rec["limit_s"])
    return rec["seconds"]


def wall(records: list[dict]) -> float:
    return sum(charged(r) for r in records)


def layer_metrics(records, span_list, setup_modules, untraced_wall) -> dict[str, float]:
    values: dict[str, float] = {}
    totals = spans.aggregate(span_list)
    for name in spans.TRACED_NAMES:
        entry = totals.get(name, {"calls": 0, "self_s": 0.0, "failed": 0})
        for field in ("calls", "self_s", "failed"):
            values[f"{name}.{field}"] = entry[field]
    values["import.self_s"] = totals.get("import", {"self_s": 0.0})["self_s"]
    for module in MODULES:
        values[f"import.{module}_s"] = setup_modules[module]
    for name in COUNTS:
        values[name] = sum(r["margins"].get(name, 0) for r in records)
    for name, _ in MARGINS:
        values[name] = max((r["margins"][name] for r in records if name in r["margins"]), default=0.0)
    values["trace.overhead_s"] = wall(records) - untraced_wall
    values["trace.unattributed_s"] = sum(
        r["seconds"] - r["covered"] for r in records if r["status"] == "ok"
    )
    values["trace.failed_op_s"] = sum(
        charged(r) - r["covered"] for r in records if r["status"] != "ok"
    )
    return values


def summary(records: list[dict]) -> tuple[bool, int, int]:
    """(correct, attempted, failed): correct means no op returned a wrong value."""
    failed = sum(r["status"] != "ok" for r in records)
    return not any(r["status"] == "wrong" for r in records), len(records), failed


def report_failures(records: list[dict]) -> None:
    for rec in records:
        if rec["status"] != "ok":
            print(f"  {rec['name']}: {rec['status']}: {rec['why']}", file=sys.stderr)


def run(workload_name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL) -> dict:
    budget = Budget(RUN_BUDGET_S)
    env = child_env()
    WORKDIR.mkdir(exist_ok=True)
    workload = workloads.build(workload_name, seed, sizes, WORKDIR)
    for path, content in workload.files.items():
        Path(path).write_text(content)
    setup_times, setup_modules = measure_setup(env, trace, budget)
    all_records, walls = [], []
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        records, _ = run_pass(workload, seed, sizes, False, f"{workload_name}-s{seed}", env, budget)
        all_records += records
        walls.append(wall(records))
        pass_seconds = time.perf_counter() - pass_started
        if time.perf_counter() - started >= seconds or budget.clip(pass_seconds) < pass_seconds:
            break
    report_failures(records)
    if trace:
        traced, span_list = run_pass(
            workload, seed, sizes, True, f"{workload_name}-s{seed}-traced", env, budget
        )
        all_records += traced
        imports = {m: statistics.median(v) if v else 0.0 for m, v in setup_modules.items()}
        values = layer_metrics(traced, span_list, imports, walls[0])
        (WORKDIR / f"trace-{workload_name}-s{seed}.json").write_text(
            json.dumps({"ops": traced, "spans": span_list})
        )
        declared = PER_LAYER
    else:
        setup_times += measure_setup(env, trace, budget)[0]
        _, attempted, failed = summary(all_records)
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "ops_ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        }
        declared = END_TO_END
    correct, attempted, failed = summary(all_records)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in declared},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qtlattice" / "__init__.py").is_file():
        print(f"no qtlattice sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except subprocess.CalledProcessError as exc:
        print(f"importing qtlattice failed:\n{exc.stderr}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print("importing qtlattice did not finish within the run's time budget", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
