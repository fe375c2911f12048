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


def _verdicts(base, change, ops=None, failed=(0, 0)):
    """Verdicts of pairs whose op_p50_s reads ``base`` and ``change``, whose
    ops_per_s reads ``ops`` (two lists) or 100.0 on both sides, and whose
    base and change runs each fail ``failed`` of their 10 ops."""
    ops = ops or ([100.0] * len(base), [100.0] * len(base))
    pairs = [
        {"base": bench_pairs.last_json(_stdout(b, ob, failed[0])),
         "change": bench_pairs.last_json(_stdout(c, oc, failed[1]))}
        for b, c, ob, oc in zip(base, change, *ops)
    ]
    metrics = bench_pairs.summarize(SPEC, pairs)["metrics"]
    return metrics["op_p50_s"]["verdict"], metrics["ops_per_s"]["verdict"]


def test_verdict_gain_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_iqr():
    base = [0.0100, 0.0101, 0.0099, 0.0100, 0.0102, 0.0098, 0.0100, 0.0101, 0.0099, 0.0100]
    # 9 of 10 pairs won, median gap 0.0010 against a base IQR of 0.00015
    change = [0.0090] * 9 + [0.0105]
    assert _verdicts(base, change) == ("gain", "within bound")
    # 8 of 10 pairs won: no gain, and 5% worse at most is within the 25% bound
    assert _verdicts(base, [0.0090] * 8 + [0.0105] * 2)[0] == "within bound"
    # every pair won, but by less than the base IQR
    assert _verdicts(base, [b - 0.0001 for b in base])[0] == "within bound"
    # higher is better: more ops per second win
    ops = ([100.0] * 10, [120.0] * 10)
    assert _verdicts(base, base, ops) == ("within bound", "gain")
    # no metric gains when the change fails a larger share of its ops
    assert _verdicts(base, change, ops, failed=(0, 1)) == ("within bound", "within bound")
    assert _verdicts(base, change, ops, failed=(1, 1)) == ("gain", "gain")


def test_verdict_regression_is_a_median_worse_by_more_than_the_bound():
    base = [0.010] * 5
    assert _verdicts(base, [0.0126] * 5)[0] == "regression"  # +26%
    assert _verdicts(base, [0.0124] * 5)[0] == "within bound"  # +24%
    # higher is better: 26% fewer ops per second is the regression
    assert _verdicts(base, base, ([100.0] * 5, [74.0] * 5))[1] == "regression"
    assert _verdicts(base, base, ([100.0] * 5, [76.0] * 5))[1] == "within bound"


def test_verdict_unresolved_when_the_base_spreads_past_the_bound():
    # inclusive quartiles 1.2 and 2.0: IQR 0.8, wider than 25% of the 1.6 median
    base = [1.0, 1.2, 1.6, 2.0, 2.2]
    assert _verdicts(base, [1.3, 1.1, 1.7, 1.3, 1.0])[0] == "unresolved"
    # every change run beats every base run, by less than the IQR
    assert _verdicts(base, [0.99] * 5)[0] == "within bound"
    # a regression past the bound stays one
    assert _verdicts(base, [2.1] * 5)[0] == "regression"


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
    first, second, third = (w["name"] for w in spec["workloads"])
    # a nonzero exit, and exits 0 that print nothing or a broken last line
    failures = [
        (
            subprocess.CalledProcessError(3, ["run"], "", "log\n" * 30 + "Boom\n"),
            {"exit": 3, "stderr_tail": ["log"] * 19 + ["Boom"]},
        ),
        ("", {"error": "benchmark run printed nothing"}),
        ('op_p50_s 1.0 s\n{"metrics": ', {"error": "Expecting value: line 1 column 13 (char 12)"}),
    ]
    monkeypatch.setattr(bench_pairs, "extract", extract)
    for failure, expected in failures:
        calls = []

        def run_once(tree, command, workload, seed, seconds):
            calls.append((workload, tree.name))
            if len(calls) == 9:  # pair 2, second workload, change side first
                if isinstance(failure, Exception):
                    raise failure
                return bench_pairs.last_json(failure)
            return {"attempted": 4, "failed": 0, "metrics": metrics}

        monkeypatch.setattr(bench_pairs, "run_once", run_once)
        out = tmp_path / "out.json"
        argv = ["--pairs", "3", "--seconds", "1", "--workdir", str(tmp_path), "--out", str(out)]
        assert bench_pairs.main(argv) == 1
        doc = json.loads(out.read_text())
        assert calls[-1] == (second, "change")
        assert doc["failed_run"] == {"workload": second, "side": "change", "pair": 2, **expected}
        done = {name: w["base"]["attempted"] // 4 for name, w in doc["workloads"].items()}
        assert done == {first: 2, second: 1, third: 1}
