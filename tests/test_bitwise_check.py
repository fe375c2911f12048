"""Normalization and diff report of ``scripts/bitwise_check.py`` on hand-made outputs."""

import hashlib
import importlib.util
import json
import re
from collections import Counter
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


def test_structured_section_covers_every_family_and_repeats_itself():
    first = bitwise_check.structured()
    assert first == bitwise_check.structured()
    records = [json.loads(line) for line in first]
    assert {r["instance"].split("(")[0] for r in records} == {
        "gen_first_slot_only", "gen_uniform_line", "gen_heavy_tail_line", "gen_coverage_mmnl"
    }
    # every instance records randomized's W as exact hex, and an estimate with the next draw
    for r in records:
        assert float.fromhex(r["randomized"][1]) >= 0.0 and len(r["estimate"]) == 2


def test_pair_section_covers_every_family_pair_and_repeats_itself():
    first = bitwise_check.pair()
    assert first == bitwise_check.pair()
    records = [json.loads(line) for line in first]
    pairs = [re.search(r"model='(\w+)', browsing='(\w+)'", r["instance"]).groups() for r in records]
    models, browsings = ("mnl", "mmnl", "markov", "ranked"), ("line", "explicit", "singleton", "full")
    assert sorted(set(pairs)) == sorted((a, b) for a in models for b in browsings)
    assert len(records) == 32 and len(set(r["instance"] for r in records)) == 32
    for r in records:  # every entry of a table of at most 2**12 subsets, as exact hex
        n, m = map(int, re.match(r"gen_random\((\d+), (\d+)", r["instance"]).groups())
        assert n * m <= 12 and len(r["pair"]) == 2 ** (n * m)
        assert all(float.fromhex(w) >= 0.0 for w in r["pair"])


def test_lattice_section_covers_every_family_pair_and_repeats_itself():
    first = bitwise_check.lattice()
    assert first == bitwise_check.lattice()
    records = [json.loads(line) for line in first]
    pairs = [re.search(r"model='(\w+)', browsing='(\w+)'", r["instance"]).groups() for r in records]
    models, browsings = ("mnl", "mmnl", "markov", "ranked"), ("line", "explicit", "singleton", "full")
    assert sorted(set(pairs)) == sorted((a, b) for a in models for b in browsings)
    assert len(records) == 64 and len(set(r["instance"] for r in records)) == 64
    shapes = Counter(re.match(r"gen_random\((\d+, \d+)", r["instance"]).group(1) for r in records)
    assert shapes == {"2, 4": 32, "6, 2": 32}
    for r in records:  # a count and the sha256 of the descriptions, which no count of 0 has
        count, digest = r["lattice"]
        assert re.fullmatch(r"[0-9a-f]{64}", digest)
        assert (count == 0) == (digest == hashlib.sha256(b"").hexdigest())
    assert any(r["lattice"][0] > 1000 for r in records)  # violation-heavy tables are covered
