"""Bitwise comparison of two revisions' outputs on the benchmark's seed-1 pools.

    python3 scripts/bitwise_check.py --base HEAD~1 [--change HEAD]

Both revisions are extracted with ``bench_pairs.extract`` (``--change``
defaults to the working tree). Each side runs, in one subprocess on its own
``src/``, every op of the seed-1 pool of every workload in the change's
``bench/workloads.py``, and reports each op's ``untimed`` output as
``json.dumps`` text, in which floats round-trip exactly. markov-compare's
``instance`` path names the side's own directory and is dropped.

Each side also reports a ``structured`` section: one JSON line per instance
of the structured families (first-slot-only, uniform and heavy-tailed lines,
a coverage mixture), holding ``[placement, w.hex()]`` of every solver that
applies and one ``estimate_w`` with the generator's next draw. Browsing
supports are not recorded, only what the solvers and the estimator make of
them. A ``pair`` section holds one JSON line per seeded ``gen_random``
instance of every choice x browsing family pair: its pair-objective table,
``pair_objective_values``, as ``.hex()`` strings. A ``lattice`` section
holds the count and sha256 of the violations each lattice check reports on
seeded ``gen_random`` instances with distinct prices. The script exits 0
when every output matches, and 1 naming the first section and position that
differ.
"""

from __future__ import annotations

import argparse
import hashlib
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


def _structured_instances():
    """(label, instance) pairs: theta with zero entries, line residuals of
    2**-53 and 2**-52, tiered heavy tails and one coverage mixture."""
    import placement_opt as po

    for k in range(2, 7):
        yield f"gen_first_slot_only({k})", po.gen_first_slot_only(k)
    for m in range(2, 9):
        yield f"gen_uniform_line({m})", po.gen_uniform_line(m)
    for m, eps in ((2, 0.5), (2, 1.0), (3, 0.1), (3, 1.0), (4, 0.5), (4, 2.0), (5, 1.0), (6, 0.3)):
        yield f"gen_heavy_tail_line({m}, {eps})", po.gen_heavy_tail_line(m, eps)
    sets = [[0, 1], [1, 2], [2, 3], [3, 0], [0, 2]]
    yield f"gen_coverage_mmnl({sets}, 4, 2, 0.25)", po.gen_coverage_mmnl(sets, 4, 2, 0.25)


def structured() -> list[str]:
    """One JSON line per structured instance: ``[placement, w.hex()]`` of
    randomized (8 repetitions), best-of-many and markov-greedy with the exact
    MNL oracle (randomized with the brute-force oracle on the mixture),
    uniform-greedy where prices are identical and brute force where
    ``n**m <= 200_000``; then a 20,000-sample ``estimate_w`` of the randomized
    placement with the generator's next draw."""
    import numpy as np
    import placement_opt as po

    out = []
    for label, inst in _structured_instances():
        mnl = isinstance(inst.choice_model, po.MnlModel)
        oracle = (po.MnlExactOracle if mnl else po.BruteForceOracle)(inst)
        rng = np.random.default_rng(SEED)
        reports = {"randomized": po.randomized_placement(inst, oracle, 8, rng=rng)}
        if mnl:
            reports["best-of-many"] = po.best_of_many_line(inst, oracle)
            reports["markov-greedy"] = po.markov_deterministic_placement(inst, oracle)
        if np.ptp(inst.prices) == 0.0:
            reports["uniform-greedy"] = po.uniform_price_matroid_greedy(inst)
        if inst.n**inst.m <= 200_000:
            reports["brute"] = po.brute_force_placement(inst, guard=200_000)
        record = {name: [list(r.placement), r.w.hex()] for name, r in reports.items()}
        plan = po.EstimationPlan(0.1, 0.05, 20_000, float(inst.prices.max()))
        value, _ = po.estimate_w(inst, record["randomized"][0], plan, rng)
        record["estimate"] = [value.hex(), rng.random().hex()]
        out.append(json.dumps({"instance": label, **record}, sort_keys=True))
    return out


def pair() -> list[str]:
    """One JSON line per ``gen_random`` instance of each of the 16 choice x
    browsing family pairs, at seeds 0 and 1 (n, m = 3, 4 and 2, 6): the
    ``.hex()`` of every entry of its pair-objective table."""
    import placement_opt as po

    out = []
    for model in ("mnl", "mmnl", "markov", "ranked"):
        for browsing in ("line", "explicit", "singleton", "full"):
            for seed, (n, m) in enumerate(((3, 4), (2, 6))):
                inst = po.gen_random(n, m, model=model, browsing=browsing, seed=seed)
                label = f"gen_random({n}, {m}, model={model!r}, browsing={browsing!r}, seed={seed})"
                table = [w.hex() for w in po.pair_objective_values(inst).tolist()]
                out.append(json.dumps({"instance": label, "pair": table}))
    return out


def lattice() -> list[str]:
    """Two JSON lines for each of the 16 choice x browsing family pairs at
    seeds 0 and 1, on ``gen_random`` instances with distinct prices: the
    count and sha256 of the violations ``check_pair_objective_properties``
    reports at (n, m) = (2, 4), and of those
    ``check_restricted_revenue_properties`` reports on all six products at
    (6, 2)."""
    import placement_opt as po

    checks = {
        (2, 4): po.check_pair_objective_properties,
        (6, 2): lambda inst: po.check_restricted_revenue_properties(inst, range(6)),
    }
    out = []
    for model in ("mnl", "mmnl", "markov", "ranked"):
        for browsing in ("line", "explicit", "singleton", "full"):
            for seed in (0, 1):
                for (n, m), check in checks.items():
                    inst = po.gen_random(n, m, model=model, browsing=browsing, seed=seed)
                    label = f"gen_random({n}, {m}, model={model!r}, browsing={browsing!r}, seed={seed})"
                    found = check(inst)
                    digest = hashlib.sha256("\n".join(found).encode()).hexdigest()
                    out.append(json.dumps({"instance": label, "lattice": [len(found), digest]}))
    return out


def emit(tree: str) -> None:
    """Print one JSON object: workload name -> the normalized outputs of its
    seed-1 pool, and ``structured``, ``pair`` and ``lattice`` -> those
    sections, run on the library under ``tree/src``."""
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
    outputs["structured"] = structured()
    outputs["pair"] = pair()
    outputs["lattice"] = lattice()
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
    sections = ("structured", "pair", "lattice")
    pools = ", ".join(f"{name} {len(out)}" for name, out in change.items() if name not in sections)
    counts = (
        f"{pools} ops; structured {len(change['structured'])} instances; "
        f"pair {len(change['pair'])} tables; lattice {len(change['lattice'])} checks"
    )
    if where:
        print(f"{labels['base']} vs {labels['change']}: {where}")
        return 1
    print(f"{labels['base']} vs {labels['change']}: identical outputs ({counts})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
