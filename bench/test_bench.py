"""Tests of the benchmark itself.

    python -m pytest -q bench

They run one traced round per workload (about 25 s in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

assert run.load_library() is not None, "placement_opt sources not found"

import placement_opt as po  # noqa: E402
from tracer import LAYERS, Tracer, layer_totals  # noqa: E402
from workloads import PREDICTIONS, WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _workload(name, pool_size=None):
    workload = WORKLOADS[name](run.DEFAULT_SEED, run.OUT)
    if pool_size is not None:
        workload.pool_size = pool_size
    return workload


@pytest.fixture(scope="module")
def traced():
    """Per workload: (per-layer metrics, checker) of one traced round."""
    out = {}
    for name in WORKLOADS:
        workload = _workload(name, pool_size=run.TRACE_OPS)
        check = run.Checker(workload, None)
        metrics = run.traced_rounds(workload, workload.build_pool(), 1e-3, check)
        out[name] = ({k: value for k, (value, _) in metrics.items()}, check)
    return out


def test_traced_ops_match_untraced_and_pass_checks(traced):
    for name, (_, check) in traced.items():
        assert check.attempted == 2 * run.TRACE_OPS, name
        assert check.failed == 0, name


def test_traced_compare_op_equals_untraced():
    workload = _workload("markov-compare", pool_size=1)
    path = workload.build_pool()[0]
    plain = workload.collect(path, workload.run(path))
    tracer = Tracer()
    with tracer.installed(), tracer.op():
        traced = workload.collect(path, workload.run(path))
    assert workload.placements(traced) == workload.placements(plain)
    assert workload.untimed(traced) == workload.untimed(plain)


def test_predicted_counters_move_where_predicted(traced):
    for prefix, _, busy, idle in PREDICTIONS:
        for name in busy:
            metrics = traced[name][0]
            named = {k: v for k, v in metrics.items() if k.startswith(prefix)}
            assert named, prefix
            assert all(v > 0 for v in named.values()), (name, named)
        for name in idle:
            metrics = traced[name][0]
            counts = {k: v for k, v in metrics.items() if k.startswith(prefix) and k.endswith(".calls")}
            assert counts and not any(counts.values()), (name, counts)


def test_no_browsing_samples_outside_estimate_line(traced):
    assert traced["greedy-line"][0]["browsing.sample.calls"] == 0
    assert traced["markov-compare"][0]["browsing.sample.calls"] == 0
    assert traced["estimate-line"][0]["estimation.samples"] == (
        run.TRACE_OPS * po.sample_size(20, 0.1, 0.05)
    )


def test_shares_confirm_why_each_workload_was_chosen(traced):
    greedy = traced["greedy-line"][0]
    assert greedy["solvers.share"] + greedy["core.share"] > 0.5
    compare = traced["markov-compare"][0]
    assert compare["oracle.share"] + compare["choice.share"] > 0.5
    estimate = traced["estimate-line"][0]
    core = estimate["core.canon.self_s"] + estimate["core.products_at.self_s"]
    products_at = estimate["core.share"] * estimate["core.products_at.self_s"] / core
    assert estimate["browsing.share"] + products_at + estimate["estimation.share"] > 0.5


def test_compare_reuse_counters(traced):
    metrics = traced["markov-compare"][0]
    # both solvers ask their own oracle for k = 1..m on the same instance
    assert metrics["oracle.best_assortment.repeat_ratio"] == 0.5
    assert metrics["choice.choice_probs.distinct"] < metrics["choice.choice_probs.calls"]


def test_tracer_restores_every_patched_name():
    def snapshot():
        names = {}
        for mod_name, mod in sys.modules.items():
            if mod_name == "placement_opt" or mod_name.startswith("placement_opt."):
                names.update({(mod_name, k): v for k, v in vars(mod).items()})
                for k, v in vars(mod).items():
                    if isinstance(v, type):
                        names.update({(mod_name, k, a): b for a, b in vars(v).items()})
        return names

    before = snapshot()
    tracer = Tracer()
    with tracer.installed():
        assert po.canon is not before[("placement_opt", "canon")]
        assert po.core.canon is po.choice.canon is po.solvers.canon is po.estimation.canon
        assert po.WEvaluator.value is not before[("placement_opt.solvers", "WEvaluator", "value")]
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_worker_spans_hang_under_cli_main():
    workload = _workload("markov-compare", pool_size=1)
    path = workload.build_pool()[0]
    tracer = Tracer()
    with tracer.installed(), tracer.op():
        assert workload.run(path) == 0
    cols = tracer.columns()
    names = np.array(LAYERS)[cols["layer"]]
    main_thread = cols["thread"][names == "op"][0]
    on_worker = np.flatnonzero(cols["thread"] != main_thread)
    assert on_worker.size
    tops = [i for i in on_worker if cols["thread"][cols["parent"][i]] == main_thread]
    assert sorted(names[tops]) == ["solvers.solve", "solvers.solve"]
    assert {names[cols["parent"][i]] for i in tops} == {"cli.main"}
    totals = layer_totals(cols)
    children = totals["solvers.solve"]["total_s"] + totals["instances.from_json"]["total_s"]
    assert totals["cli.main"]["self_s"] == pytest.approx(totals["cli.main"]["total_s"] - children)


def test_self_time_takes_the_union_of_overlapping_worker_spans():
    columns = {
        "layer": np.array([0, 3, 3], dtype=np.int8),
        "parent": np.array([-1, 0, 0]),
        "thread": np.array([0, 1, 2], dtype=np.int32),
        "start": np.array([0.0, 1.0, 2.0]),
        "end": np.array([10.0, 4.0, 5.0]),
    }
    totals = layer_totals(columns)
    assert totals["op"]["self_s"] == pytest.approx(6.0)
    assert totals["solvers.solve"]["self_s"] == pytest.approx(6.0)


def test_spans_recorded_per_thread_keep_their_parent():
    tracer = Tracer()
    with tracer.installed(), tracer.op():
        worker = threading.Thread(target=po.canon, args=([2, 1],))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    cols = tracer.columns()
    names = list(np.array(LAYERS)[cols["layer"]])
    assert names == ["op", "core.canon"]
    assert list(cols["parent"]) == [-1, 0]


def test_end_to_end_metrics_match_benchmark_json():
    workload = _workload("markov-compare", pool_size=2)
    check = run.Checker(workload, None)
    metrics = run.end_to_end(workload, workload.build_pool(), 1e-3, check, setup_s=1.0)
    assert check.failed == 0 and check.attempted == 2
    assert {(k, unit) for k, (_, unit) in metrics.items()} == {
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]
    }


def test_per_layer_metrics_match_benchmark_json(traced):
    for name in WORKLOADS:
        assert set(traced[name][0]) == {m["name"] for m in SPEC["per_layer"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_default_seed_placements_match_reference():
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    assert reference["seed"] == run.DEFAULT_SEED
    for name in ("greedy-line", "markov-compare"):
        workload = _workload(name)
        item = workload.build_pool()[0]
        output = workload.collect(item, workload.run(item))
        assert workload.placements(output) == reference["placements"][name][0]


def test_fails_without_library_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "greedy-line", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
