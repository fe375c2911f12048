"""Bitwise comparison of two revisions' outputs on the benchmark's seed-1 pools.

    python3 scripts/bitwise_check.py --base HEAD~1 [--change HEAD]

Both revisions are extracted with ``bench_pairs.extract`` (``--change``
defaults to the working tree). Each side runs, in one subprocess on its own
``src/``, every op of the seed-1 pool of every workload in the change's
``bench/workloads.py``, and reports each op's ``untimed`` output as
``json.dumps`` text, in which floats round-trip exactly. markov-compare's
``instance`` path names the side's own directory and is dropped. The script
exits 0 when every output matches, and 1 naming the first workload and pool
position that differ.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
SEED = 1


def normalize(workload: str, output) -> str:
    """An op's ``untimed`` output as JSON text, without markov-compare's
    instance path."""
    if workload == "markov-compare" and "doc" in output:
        doc = {k: v for k, v in output["doc"].items() if k != "instance"}
        output = {**output, "doc": doc}
    return json.dumps(output, sort_keys=True)


def emit(tree: str) -> None:
    """Print one JSON object: workload name -> the normalized outputs of its
    seed-1 pool, run on the library under ``tree/src``."""
    import placement_opt
    from workloads import WORKLOADS

    src = Path(tree, "src").resolve()
    if src not in Path(placement_opt.__file__).resolve().parents:
        raise RuntimeError(f"imported {placement_opt.__file__}, not the library in {src}")
    outputs = {}
    for name, cls in WORKLOADS.items():
        workload = cls(SEED, Path(tree, ".bitwise_out"))
        outputs[name] = [
            normalize(name, workload.untimed(workload.collect(item, workload.run(item))))
            for item in workload.build_pool()
        ]
    print(json.dumps(outputs))


def side_outputs(tree: Path, bench: Path) -> dict[str, list[str]]:
    """``emit``'s outputs for the library in ``tree``, run in a fresh process
    with the workloads in ``bench``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (tree / "src", bench, SCRIPTS)))}
    code = f"import bitwise_check; bitwise_check.emit({str(tree)!r})"
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=tree, env=env, capture_output=True, text=True
    )
    if done.returncode:
        raise RuntimeError(f"{tree.name} side exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def first_difference(base: dict[str, list[str]], change: dict[str, list[str]]) -> str | None:
    """Where the two sides' outputs first differ, in the change's workload
    order, or None when they are identical."""
    for name, outputs in change.items():
        if name not in base:
            return f"{name}: no outputs at base"
        theirs = base[name]
        for pos, (b, c) in enumerate(zip(theirs, outputs)):
            if b != c:
                return f"{name}: pool position {pos} differs\n  base:   {b}\n  change: {c}"
        if len(theirs) != len(outputs):
            return f"{name}: {len(theirs)} outputs at base, {len(outputs)} at change"
    return None


def main(argv=None) -> int:
    from bench_pairs import extract  # here: the tests load this file without scripts/

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision")
    parser.add_argument("--change", default=None, help="git revision (default: working tree)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in ("base", "change")}
        labels = {side: extract(getattr(args, side), tree) for side, tree in trees.items()}
        bench = trees["change"] / "bench"
        base, change = (side_outputs(tree, bench) for tree in trees.values())
    where = first_difference(base, change)
    counts = ", ".join(f"{name} {len(outputs)}" for name, outputs in change.items())
    if where:
        print(f"{labels['base']} vs {labels['change']}: {where}")
        return 1
    print(f"{labels['base']} vs {labels['change']}: identical outputs ({counts} ops)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
