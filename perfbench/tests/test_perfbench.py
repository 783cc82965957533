"""Tests of the benchmark itself (not of qtlattice).

    python3 -m pytest perfbench/tests -q

The smoke tests run each workload at tiny sizes against the program in
./src; they check the shape of the result, not the program's defects.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import oracle as O  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, WrongAnswer  # noqa: E402


def _span(name, start, end, parent=-1):
    return {"name": name, "start": start, "end": end, "parent": parent, "run": "t",
            "op": 0, "failed": False}


def test_self_time_subtracts_children():
    tree = [
        _span("a", 0.0, 10.0),
        _span("b", 1.0, 4.0, parent=0),
        _span("d", 2.0, 3.0, parent=1),
        _span("c", 5.0, 6.5, parent=0),
    ]
    assert spans.self_times(tree) == pytest.approx([10.0 - 3.0 - 1.5, 2.0, 1.0, 1.5])
    # self times of a tree add up to the time its roots cover
    assert sum(spans.self_times(tree)) == pytest.approx(spans.covered_by_roots(tree))
    totals = spans.aggregate(tree)
    assert totals["a"] == {"calls": 1, "self_s": pytest.approx(5.5), "failed": 0}


def test_self_time_counts_overlapping_children_once():
    tree = [
        _span("a", 0.0, 10.0),
        _span("b", 1.0, 4.0, parent=0),
        _span("c", 3.0, 6.0, parent=0),
        _span("d", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_wraps_every_binding(monkeypatch):
    import types

    home = types.ModuleType("qtlattice.legendre")
    user = types.ModuleType("qtlattice.lattice")

    def roots_P(N):
        return N

    home.roots_P = user.roots_P = roots_P
    monkeypatch.setitem(sys.modules, "qtlattice.legendre", home)
    monkeypatch.setitem(sys.modules, "qtlattice.lattice", user)
    for name in list(sys.modules):
        if name.startswith("qtlattice.") and name not in ("qtlattice.legendre", "qtlattice.lattice"):
            monkeypatch.delitem(sys.modules, name)
    tracer = spans.Tracer("t")
    assert spans.install(tracer) == 2
    assert user.roots_P(3) == 3 and home.roots_P(4) == 4
    assert [s["name"] for s in tracer.spans] == ["legendre.roots_P"] * 2


def test_checker_rejects_perturbed_roots():
    N = 64
    roots = O.legendre_roots(N)
    assert workloads._roots_check(N, roots)["legendre.root_err_max"] <= O.root_tol(N)
    perturbed = roots.copy()
    perturbed[N // 3] += 10 * O.root_tol(N)
    with pytest.raises(WrongAnswer):
        workloads._roots_check(N, perturbed)


def test_wrong_answer_and_wrong_exit_count_as_failed():
    ok = Op("ok", 1.0)
    wrong = run.record(Op("roots", 1.0), "wrong", 0.1, "perturbed roots")
    exit_rec, _ = run.run_cli_op(
        Op("n0", 15.0, argv=("spectrum", "--n", "0"), expected_exit=0),
        0, False, "t", run.child_env(), run.Budget(60.0),
    )
    assert exit_rec["status"] == "exit"
    correct, attempted, failed = run.summary([run.record(ok, "ok", 0.1), wrong, exit_rec])
    assert (correct, attempted, failed) == (False, 3, 2)
    # an op that finished is charged its measured time, one that did not its limit
    assert run.charged(exit_rec) == exit_rec["seconds"] < 15.0
    assert run.charged(run.record(Op("slow", 15.0), "timeout", 15.2)) == 15.2
    assert run.charged(run.record(Op("after", 15.0), "skipped", 0.0)) == 15.0


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert declared == set(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.BUILDERS)


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_tiny_run(name):
    result = run.run(name, seed=3, seconds=0.1, trace=False, sizes=workloads.TINY)
    assert result["correct"]
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m for m, _, _ in run.END_TO_END}
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


def test_tiny_traced_run_accounts_for_wall_time():
    result = run.run("spectral", seed=3, seconds=0.1, trace=True, sizes=workloads.TINY)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m for m, _, _ in run.PER_LAYER}
    assert metrics["legendre.roots_P.calls"] > 0
    assert metrics["horizons.horizon_gamma.calls"] == 0
    traced = json.loads((run.WORKDIR / "trace-spectral-s3.json").read_text())
    assert {s["run"] for s in traced["spans"]} == {"spectral-s3-traced-main", "spectral-s3-traced-ceiling"}
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    accounted = self_total + metrics["trace.unattributed_s"] + metrics["trace.failed_op_s"]
    assert accounted == pytest.approx(sum(run.charged(op) for op in traced["ops"]))
