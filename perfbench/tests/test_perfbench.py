"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layers import HOOKS, PER_LAYER  # noqa: E402
from rep import import_program, run_rep  # noqa: E402
from run import END_TO_END, WORKLOAD_NAMES, aggregate  # noqa: E402
from tracer import SpanStats, Tracer  # noqa: E402

cli = import_program(ROOT)

from stabledyn import benchmarks, control, field, integrate, training  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

# workload sizes that run in a few seconds each
TINY = {
    "learn-traj": {"samples": 6, "gen_repeats": 2, "epochs": 2},
    "learn-grad": {"samples": 6, "gen_repeats": 2, "epochs": 3, "lr": 0.003},
    "analyze": {"points": 21, "scan": 100, "control_repeats": 2, "targets": 1, "trials": 1,
                "t_per_target": 1.0},
}


def test_self_time_of_a_synthetic_call_nest():
    now = [0]

    def work(ns):
        now[0] += ns

    tracer = Tracer("synthetic", clock=lambda: now[0])
    leaf = tracer.wrap("leaf", lambda: work(7))

    def inner_body():
        work(3)
        leaf()
        work(2)

    inner = tracer.wrap("inner", inner_body)

    def outer_body():
        work(10)
        inner()
        work(1)
        leaf()

    tracer.wrap("outer", outer_body)()
    st = SpanStats.of(tracer)
    assert st.total_s("outer") == pytest.approx(30e-9)
    assert st.self_s("outer") == pytest.approx(11e-9)
    assert st.self_s("inner") == pytest.approx(5e-9)
    assert st.self_s("leaf") == pytest.approx(14e-9)
    assert st.calls("leaf") == 2
    # leaf inside inner is an inner call of the group, so it is not an entry
    assert st.calls("inner", "leaf") == 2
    assert st.total_within_s(("leaf",), ("inner",)) == pytest.approx(7e-9)
    assert [tracer.names[i] for i in tracer.name_id] == ["outer", "inner", "leaf", "leaf"]
    assert list(tracer.parent) == [-1, 0, 1, 0]


def _tiny_trajectories():
    grid = integrate.TimeGrid(0.0, 0.2, 4)
    return [integrate.rk4_solve(lambda x, u: u + x - x**3, [x0], [0.1], grid, traj_id=i)
            for i, x0 in enumerate((-1.0, 0.5))]


def test_wrappers_replace_every_by_name_import_and_are_hit():
    original = integrate.rk4_solve_batch
    trajectories = _tiny_trajectories()
    fld = benchmarks.make_untrained_field("sym-hysteresis", 0)
    tracer = Tracer("patch")
    tracer.install(HOOKS)
    try:
        for namespace in (training, cli, benchmarks):
            assert namespace.rk4_solve_batch is integrate.rk4_solve_batch
        assert integrate.rk4_solve_batch.__traced_original__ is original
        assert integrate.velocity_cached is field.velocity_cached
        assert control.target_vjp is field.target_vjp
        assert control.target_vjp.__traced_original__ is not None

        training.TrajMatchingObjective(trajectories).loss_and_grad(fld)
        control.control_objective_grad(fld, [0.3], [0.0], [0.5])
    finally:
        tracer.uninstall()
    assert training.rk4_solve_batch is original

    names = [tracer.names[i] for i in tracer.name_id]
    parents = [names[p] if p >= 0 else None for p in tracer.parent]
    spans = set(zip(names, parents))
    batch = "training.TrajMatchingObjective.loss_and_grad"
    assert ("integrate.rk4_solve_batch", batch) in spans
    assert ("integrate.rk4_solve_unrolled_grad", batch) in spans
    assert ("field.velocity_cached", "integrate.rk4_solve_unrolled_grad") in spans
    assert ("field.target_vjp", "control.control_objective_grad") in spans
    assert tracer.counts["integrate.rk4.steps"] == 4
    assert tracer.counts["nnet.forward.rows"] > 0


def test_metric_names_and_declarations():
    for entry in [*SPEC["end_to_end"], *SPEC["per_layer"]]:
        assert NAME.fullmatch(entry["name"]), entry["name"]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == PER_LAYER
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOAD_NAMES


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_smoke_run(workload, tmp_path):
    reps = [run_rep(cli, workload, 3, TINY[workload], tmp_path / "traced", traced=True,
                    run_id="smoke", trace_file=tmp_path / "trace.npz"),
            run_rep(cli, workload, 3, TINY[workload], tmp_path / "plain")]
    assert all(c["rc"] == 0 for r in reps for c in r["commands"])
    assert [c for r in reps for c in r["checks"] if not c["ok"]] == []

    plain = aggregate(reps, trace=False)
    traced = aggregate(reps, trace=True)
    assert plain["correct"] and traced["correct"]
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert traced["metrics"]["nnet.forward.calls"]["value"] > 0
    assert (tmp_path / "trace.npz").exists()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "analyze",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
