"""The benchmark's workloads: a seeded instance pool, one op per pool item,
and the check each op's output must pass.

An op is one user-visible call on a freshly deserialized instance, so no
model, evaluator or oracle cache carries over between ops. Ops run one at a
time in one process (a closed loop with one client). Why each workload was
chosen is recorded in BENCHMARK.json; which layer metrics each should move
is in PREDICTIONS below.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

import placement_opt as po
from placement_opt import cli

REL_TOL = 1e-9

# Which layer each workload is built to load, and which per-layer metrics
# should move on which workload: (metric prefix, end-to-end metrics it
# should move, workloads where its counters are nonzero, workloads where
# it does no work at all). Workloads that run a layer only lightly (the
# MNL oracle on greedy-line, say) are in neither list.
PREDICTIONS = (
    ("solvers.", "op_p50_s ops_per_s peak_rss_mb", ("greedy-line",), ("estimate-line",)),
    ("core.canon.", "op_p50_s", ("greedy-line", "estimate-line"), ()),
    ("core.products_at.", "op_p50_s", ("estimate-line",), ("greedy-line", "markov-compare")),
    ("choice.", "op_p50_s", ("markov-compare",), ()),
    ("oracle.", "op_p50_s", ("markov-compare",), ("estimate-line",)),
    ("browsing.sample.", "op_p50_s ops_per_s", ("estimate-line",), ("greedy-line", "markov-compare")),
    ("browsing.support.", "op_p50_s", ("greedy-line", "markov-compare"), ("estimate-line",)),
    ("estimation.", "ops_per_s", ("estimate-line",), ("greedy-line", "markov-compare")),
    ("instances.", "op_p50_s setup_s", ("greedy-line", "markov-compare", "estimate-line"), ()),
    ("cli.", "op_p50_s", ("markov-compare",), ("greedy-line", "estimate-line")),
)


def instance_seeds(seed: int, name: str, count: int) -> list[int]:
    """Instance seeds of a workload's pool, derived from the benchmark seed."""
    rng = np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def check_solver_output(instance, placement, w) -> list[str]:
    """A solver's placement is a full catalog placement worth its reported w."""
    if len(placement) != instance.m:
        return [f"placement has {len(placement)} slots, expected {instance.m}"]
    bad = [i for i in placement if not 0 <= i < instance.n]
    if bad:
        return [f"placement holds empty or padding ids {bad}"]
    exact = po.evaluate_exact(instance, placement)
    if abs(w - exact) > REL_TOL * abs(exact):
        return [f"reported w {w!r} != evaluate_exact {exact!r}"]
    return []


class Workload:
    """One workload: ``run`` is the timed op; everything else is untimed."""

    name = ""
    pool_size = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def build_pool(self) -> list:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def collect(self, item, result):
        """Turn an op's return value into the output that is checked."""
        return result

    def check(self, item, output) -> list[str]:
        raise NotImplementedError

    def placements(self, output):
        """The placements an output holds, as compared with the reference."""
        return None

    def untimed(self, output):
        """The output without timing fields: equal for traced and untraced ops."""
        return output


class GreedyLine(Workload):
    """markov-greedy with the exact MNL oracle: evaluator and canon keys."""

    name = "greedy-line"
    pool_size = 36

    def build_pool(self):
        return [
            po.to_json(po.gen_random(100, 20, model="mnl", browsing="line", seed=s))
            for s in instance_seeds(self.seed, self.name, self.pool_size)
        ]

    def run(self, text):
        instance = po.from_json(text)
        return po.markov_deterministic_placement(instance, po.MnlExactOracle(instance))

    def collect(self, text, report):
        return {"placement": list(report.placement), "w": report.w}

    def check(self, text, output):
        return check_solver_output(po.from_json(text), output["placement"], output["w"])

    def placements(self, output):
        return output["placement"]


class MarkovCompare(Workload):
    """The compare verb with the brute oracle: Markov choice solves."""

    name = "markov-compare"
    pool_size = 80
    algorithms = ("markov-greedy", "randomized")

    def build_pool(self):
        folder = self.workdir / self.name
        folder.mkdir(parents=True, exist_ok=True)
        paths = []
        for pos, s in enumerate(instance_seeds(self.seed, self.name, self.pool_size)):
            instance = po.gen_random(13, 6, model="markov", browsing="explicit", seed=s)
            path = folder / f"instance-{pos}.json"
            path.write_text(po.to_json(instance), encoding="utf-8")
            paths.append(path)
        return paths

    def _out(self) -> Path:
        return self.workdir / self.name / "compare-out.json"

    def run(self, path):
        # 13^6 placements exceed compare's default --opt-guard, so no
        # brute-force OPT runs inside the op.
        return cli.main(
            [
                "compare",
                "--instance", str(path),
                "--algorithms", ",".join(self.algorithms),
                "--oracle", "brute",
                "--repetitions", "64",
                "-o", str(self._out()),
            ]
        )

    def collect(self, path, code):
        out = self._out()
        if code != 0:
            return {"exit": code}
        doc = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
        return {"exit": code, "doc": doc}

    def check(self, path, output):
        if output["exit"] != 0:
            return [f"compare exited with {output['exit']}"]
        rows = output["doc"]["results"]
        names = [row["algorithm"] for row in rows]
        if names != sorted(self.algorithms):
            return [f"rows {names} are not the sorted algorithms"]
        instance = po.from_json(Path(path).read_text(encoding="utf-8"))
        problems = []
        for row in rows:
            report = row["report"]
            estimate = report["w_estimate"]
            report_w = report["w_exact"] if estimate is None else estimate["value"]
            if row["w"] != report_w:
                problems.append(f"{row['algorithm']}: row w != report w")
            if not row["ratio_to_best"] <= 1.0:
                problems.append(f"{row['algorithm']}: ratio_to_best > 1")
            problems += check_solver_output(instance, report["placement"], row["w"])
        return problems

    def placements(self, output):
        if output["exit"] != 0:
            return None
        return {
            row["algorithm"]: row["report"]["placement"]
            for row in output["doc"]["results"]
        }

    def untimed(self, output):
        if output["exit"] != 0:
            return output
        rows = [
            {**row, "report": {k: v for k, v in row["report"].items() if k != "ms"}}
            for row in output["doc"]["results"]
        ]
        return {**output, "doc": {**output["doc"], "results": rows}}


class EstimateLine(Workload):
    """estimate_w at the Hoeffding count: browsing draws and products_at."""

    name = "estimate-line"
    pool_size = 48
    epsilon = 0.1
    delta = 0.05

    def build_pool(self):
        pool = []
        for s in instance_seeds(self.seed, self.name, self.pool_size):
            instance = po.gen_random(40, 20, model="mmnl", browsing="line", seed=s)
            slots = np.random.default_rng([s, 1]).integers(0, instance.n, instance.m)
            pool.append((s, po.to_json(instance), tuple(int(i) for i in slots)))
        return pool

    def run(self, item):
        s, text, slots = item
        instance = po.from_json(text)
        plan = po.EstimationPlan.for_instance(instance, self.epsilon, self.delta)
        value, samples = po.estimate_w(instance, slots, plan, np.random.default_rng(s))
        return {"value": value, "samples": samples}

    def check(self, item, output):
        _, text, slots = item
        instance = po.from_json(text)
        expected = po.sample_size(instance.m, self.epsilon, self.delta)
        if output["samples"] != expected:
            return [f"drew {output['samples']} samples, expected {expected}"]
        # Hoeffding bound, not bitwise: batched draws may change the RNG order.
        plan = po.EstimationPlan.for_instance(instance, self.epsilon, self.delta)
        tolerance = plan.epsilon * plan.r_star_bound
        error = abs(output["value"] - po.evaluate_exact(instance, slots))
        if error > tolerance:
            return [f"estimate off by {error} > {tolerance}"]
        return []


WORKLOADS = {cls.name: cls for cls in (GreedyLine, MarkovCompare, EstimateLine)}
