"""Normalization and diff report of ``scripts/bitwise_check.py`` on hand-made outputs."""

import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bitwise_check.py"
_spec = importlib.util.spec_from_file_location("bitwise_check", _SCRIPT)
bitwise_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bitwise_check)


def _compare_output(instance, w):
    row = {"algorithm": "markov-greedy", "w": w, "report": {"placement": [0, 1], "w_exact": w}}
    return {"exit": 0, "doc": {"instance": instance, "results": [row]}}


def test_normalize_drops_only_the_compare_instance_path():
    one = bitwise_check.normalize("markov-compare", _compare_output("/a/instance-0.json", 0.1))
    two = bitwise_check.normalize("markov-compare", _compare_output("/b/instance-0.json", 0.1))
    assert one == two
    assert "instance-0" not in one
    # another workload keeps every field, and a failed compare has no doc
    kept = {"instance": "/a", "w": 0.1}
    assert json.loads(bitwise_check.normalize("greedy-line", kept)) == kept
    assert bitwise_check.normalize("markov-compare", {"exit": 1}) == '{"exit": 1}'


def test_normalize_keeps_every_bit_of_a_float():
    w = 0.1 + 0.2
    near = bitwise_check.normalize("markov-compare", _compare_output("/a", w))
    far = bitwise_check.normalize("markov-compare", _compare_output("/a", 0.3))
    assert near != far
    assert json.loads(near)["doc"]["results"][0]["w"] == w
    # -0.0 and 0.0 differ too
    assert bitwise_check.normalize("greedy-line", {"w": -0.0}) != bitwise_check.normalize(
        "greedy-line", {"w": 0.0}
    )


def test_first_difference_names_the_first_workload_and_position():
    base = {"greedy-line": ["a", "b", "c"], "markov-compare": ["x", "y"]}
    assert bitwise_check.first_difference(base, dict(base)) is None
    changed = {"greedy-line": ["a", "b", "c"], "markov-compare": ["x", "z"]}
    report = bitwise_check.first_difference(base, changed)
    assert report.splitlines() == [
        "markov-compare: pool position 1 differs",
        "  base:   y",
        "  change: z",
    ]
    # the change's workload order decides which difference comes first
    both = {"markov-compare": ["x", "z"], "greedy-line": ["a", "q", "c"]}
    assert bitwise_check.first_difference(base, both).startswith("markov-compare: pool position 1")
    shorter = {"greedy-line": ["a", "b"]}
    assert bitwise_check.first_difference(base, shorter) == (
        "greedy-line: 3 outputs at base, 2 at change"
    )
    assert bitwise_check.first_difference({}, shorter) == "greedy-line: no outputs at base"
