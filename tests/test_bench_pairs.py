"""Aggregation of ``scripts/bench_pairs.py`` on canned benchmark output."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = [
    {"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def _stdout(p50, ops, failed=0):
    """A ``bench/run.py`` stdout: human-readable lines, then the JSON line."""
    result = {
        "correct": failed == 0,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            "op_p50_s": {"value": p50, "unit": "s"},
            "ops_per_s": {"value": ops, "unit": "1/s"},
        },
    }
    return f"# placement-opt benchmark: workload=w\nop_p50_s {p50} s\n{json.dumps(result)}\n\n"


def test_last_json_reads_the_final_line():
    assert bench_pairs.last_json(_stdout(0.5, 2.0))["metrics"]["op_p50_s"]["value"] == 0.5
    with pytest.raises(ValueError):
        bench_pairs.last_json("\n \n")


def test_summarize_medians_iqrs_and_wins():
    canned = [((0.010, 100.0), (0.005, 200.0)), ((0.009, 110.0), (0.004, 90.0)),
              ((0.011, 90.0), (0.012, 250.0)), ((0.010, 105.0), (0.006, 210.0)),
              ((0.008, 95.0), (0.005, 220.0))]
    pairs = [
        {"base": bench_pairs.last_json(_stdout(*b)),
         "change": bench_pairs.last_json(_stdout(*c, failed=i == 1))}
        for i, (b, c) in enumerate(canned)
    ]
    out = bench_pairs.summarize(SPEC, pairs)
    assert out["base"] == {"attempted": 50, "failed": 0}
    assert out["change"] == {"attempted": 50, "failed": 1}
    p50, ops = out["metrics"]["op_p50_s"], out["metrics"]["ops_per_s"]
    assert p50["base_median"] == 0.010 and p50["change_median"] == 0.005
    # inclusive quartiles of 0.008, 0.009, 0.010, 0.010, 0.011
    assert p50["base_iqr"] == pytest.approx(0.001)
    assert p50["change_wins"] == 4  # lower is better; pair 3 lost
    assert ops["change_wins"] == 4  # higher is better; pair 2 lost
    assert ops["change_median"] == 210.0 and ops["unit"] == "1/s"
    assert p50["pairs"][2] == [0.011, 0.012]


def test_summarize_single_pair_has_zero_iqr_and_ties_do_not_win():
    pair = {"base": bench_pairs.last_json(_stdout(0.01, 100.0)),
            "change": bench_pairs.last_json(_stdout(0.01, 100.0))}
    out = bench_pairs.summarize(SPEC, [pair])
    for row in out["metrics"].values():
        assert row["base_iqr"] == row["change_iqr"] == 0.0
        assert row["change_wins"] == 0


def test_tree_digest_covers_names_and_bytes(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text("")
    first = bench_pairs.tree_digest(tmp_path)
    assert bench_pairs.tree_digest(tmp_path) == first
    (tmp_path / "pkg" / "a.py").write_text("x = 2\n")
    assert bench_pairs.tree_digest(tmp_path) != first
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").rename(tmp_path / "c.py")
    assert bench_pairs.tree_digest(tmp_path) != first


def test_failed_run_keeps_the_completed_pairs(tmp_path, monkeypatch):
    def extract(rev, dest):
        (dest / "src").mkdir(parents=True)
        (dest / "bench").mkdir()
        return "rev"

    spec = json.loads((_SCRIPT.parent.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": 1.0} for m in spec["end_to_end"]}
    calls = []

    def run_once(tree, command, workload, seed, seconds):
        calls.append((workload, tree.name))
        if len(calls) == 9:  # pair 2, second workload, change side first
            raise subprocess.CalledProcessError(3, command, "", "log\n" * 30 + "Boom\n")
        return {"attempted": 4, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "extract", extract)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "out.json"
    argv = ["--pairs", "3", "--seconds", "1", "--workdir", str(tmp_path), "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    doc = json.loads(out.read_text())
    first, second, third = (w["name"] for w in spec["workloads"])
    assert calls[-1] == (second, "change")
    failed = doc["failed_run"]
    assert failed["stderr_tail"][-1] == "Boom" and len(failed["stderr_tail"]) == 20
    del failed["stderr_tail"]
    assert failed == {"workload": second, "side": "change", "pair": 2, "exit": 3}
    done = {name: w["base"]["attempted"] // 4 for name, w in doc["workloads"].items()}
    assert done == {first: 2, second: 1, third: 1}
