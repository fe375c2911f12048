"""placement-opt benchmark.

    python3 bench/run.py --workload greedy-line --seed 1 --seconds 30 --trace 0

Workloads are ``greedy-line``, ``markov-compare`` and ``estimate-line`` (see
``workloads.py``). The library is pure Python and is imported from the
``src`` directory next to this one; nothing is built.

With ``--trace 0`` the run times whole passes over the workload's seeded
instance pool, untraced, and reports the end-to-end metrics. Their times
are wall times scaled to a reference machine speed by calibration runs
between ops (see ``calibrate.py``); the unscaled wall times are printed
beside them. With ``--trace 1`` it runs the pool's first ops untraced and
then traced, round after round, and reports the per-layer metrics; their
``self_s`` values are unscaled times of a slowed run, to be read as
shares, not absolute costs. Every op's output is checked outside the
timed interval. Human-readable lines come first; the last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from calibrate import REFERENCE_S, measure
from tracer import LAYERS, Tracer, layer_totals, save_spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
TRACE_OPS = 4  # ops per traced round: the pool's first ones
TAIL_BEYOND = 10  # op_tail_s is the highest percentile with this many ops above it


def load_library():
    """Import placement_opt from this checkout's ``src``; None if it is absent."""
    if not (SRC / "placement_opt" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import placement_opt

    if SRC not in Path(placement_opt.__file__).resolve().parents:
        return None
    return placement_opt


def attempt(fn, *args):
    """Run fn; return (result, None) or (None, error text)."""
    try:
        return fn(*args), None
    except Exception:  # an op that raises is counted as failed, not fatal
        return None, traceback.format_exc()


class Checker:
    """Checks op outputs and counts attempts and failures."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def __call__(self, pos, item, output, error, expected=None):
        """Check one op; ``expected`` is the untraced output of a traced op."""
        self.attempted += 1
        if error is None:
            problems, error = attempt(self.workload.check, item, output)
        if error is not None:
            problems = [error]
        elif self.reference is not None:
            placed = self.workload.placements(output)
            if placed != self.reference[pos]:
                problems.append(f"placements {placed} differ from the reference")
        untimed = self.workload.untimed
        if not problems and expected is not None and untimed(output) != untimed(expected):
            problems.append("traced output differs from the untraced one")
        if problems:
            if not self.failed:
                print(f"op {pos} failed: {'; '.join(problems)}", file=sys.stderr)
            self.failed += 1


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops above."""
    ordered = sorted(durations)
    rank = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def scale(wall: float, before: float, after: float) -> float:
    """Wall time at the reference speed, from calibration runs around it."""
    return wall * 2.0 * REFERENCE_S / (before + after)


def timed_passes(workload, pool, seconds, check):
    """Whole passes over the pool while the next one is expected to fit.

    Returns each op's wall time and its time scaled to the reference speed
    by the calibration runs just before and just after it.
    """
    walls, outputs, speeds = [], [], [measure()]
    start = time.perf_counter()
    passes = 0
    while True:
        for pos, item in enumerate(pool):
            began = time.perf_counter()
            result, error = attempt(workload.run, item)
            walls.append(time.perf_counter() - began)
            if error is None:
                result, error = attempt(workload.collect, item, result)
            outputs.append((pos, item, result, error))
            speeds.append(measure())
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > seconds:
            break
    for output in outputs:
        check(*output)
    scaled = [scale(*args) for args in zip(walls, speeds, speeds[1:])]
    print(f"calibration median {statistics.median(speeds):.6g} s "
          f"(reference {REFERENCE_S:g} s) over {len(speeds)} runs")
    return walls, scaled, elapsed


def end_to_end(workload, pool, seconds, check, setup_s):
    walls, scaled, elapsed = timed_passes(workload, pool, seconds, check)
    value, percentile = tail(scaled)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"ops {len(scaled)} over {elapsed:.3f} s in whole passes of {len(pool)}")
    print(f"failed_ratio {check.failed / check.attempted:.6g} ({check.failed}/{check.attempted})")
    print(f"op_tail_s is p{percentile:.1f} of {len(scaled)} ops, {TAIL_BEYOND} beyond it")
    print(f"unscaled wall time: op p50 {statistics.median(walls):.6g} s, "
          f"p{percentile:.1f} {tail(walls)[0]:.6g} s")
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(scaled), "s"),
        "op_tail_s": (value, "s"),
        "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }


def traced_rounds(workload, pool, seconds, check):
    """Rounds of the first TRACE_OPS ops, untraced then traced.

    Counts come from the first round (every round repeats them exactly);
    times are medians over rounds. The first round's spans are written to
    the output directory when the rounds end.
    """
    items = list(enumerate(pool[:TRACE_OPS]))
    tracer = Tracer()
    rounds = []
    first = None
    start = time.perf_counter()
    while True:
        plain, expected = 0.0, []
        for pos, item in items:
            began = time.perf_counter()
            result, error = attempt(workload.run, item)
            plain += time.perf_counter() - began
            if error is None:
                result, error = attempt(workload.collect, item, result)
            check(pos, item, result, error)
            expected.append(result)
        tracer.clear()
        traced, outputs = 0.0, []
        with tracer.installed():
            for pos, item in items:
                began = time.perf_counter()
                with tracer.op():
                    result, error = attempt(workload.run, item)
                traced += time.perf_counter() - began
                if error is None:
                    result, error = attempt(workload.collect, item, result)
                outputs.append((pos, item, result, error))
        for output, untraced in zip(outputs, expected):
            check(*output, expected=untraced)
        columns = tracer.columns()
        if first is None:
            first = (columns, dict(tracer.distinct), tracer.samples)
        rounds.append((plain, traced, layer_totals(columns)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds:
            break
    columns, distinct, samples = first
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload.name}.npz"
    save_spans(spans, columns)

    calls = rounds[0][2]
    self_s = {
        name: statistics.median(totals[name]["self_s"] for _, _, totals in rounds)
        for name in LAYERS
    }
    plain = statistics.median(r[0] for r in rounds)
    traced = statistics.median(r[1] for r in rounds)
    metrics = {}
    for name in LAYERS[1:]:
        metrics[f"{name}.calls"] = (calls[name]["calls"], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    for name in ("solvers.value", "solvers.revenue", "choice.choice_probs"):
        metrics[f"{name}.distinct"] = (distinct[name], "count")

    def reuse(name):
        total = calls[name]["calls"]
        return 1.0 - distinct[name] / total if total else 0.0

    metrics["choice.choice_probs.hit_ratio"] = (reuse("choice.choice_probs"), "ratio")
    metrics["oracle.best_assortment.repeat_ratio"] = (reuse("oracle.best_assortment"), "ratio")
    metrics["estimation.samples"] = (samples, "count")
    metrics["estimation.samples_per_s"] = (samples / plain, "1/s")
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
    op_s = statistics.median(totals["op"]["total_s"] for _, _, totals in rounds)
    for module in dict.fromkeys(name.split(".")[0] for name in LAYERS[1:]):
        own = sum(v for k, v in self_s.items() if k.split(".")[0] == module)
        metrics[f"{module}.share"] = (own / op_s, "ratio")

    print(f"{len(rounds)} rounds of {len(items)} ops; spans of round 1 in {spans}")
    print(f"untraced {plain:.4f} s, traced {traced:.4f} s per round (medians); "
          "<module>.share is the module's self time over traced op time")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    began = time.perf_counter()
    if load_library() is None:
        print(f"error: placement_opt sources not found under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    import_s = time.perf_counter() - began
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    # compare's worker count stays at the library default of one thread
    os.environ.pop("PLACEMENT_OPT_THREADS", None)
    workload = WORKLOADS[args.workload](args.seed, OUT)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    expected = None
    if args.seed == reference["seed"]:
        expected = reference["placements"].get(workload.name)

    speeds = [measure()]
    setups = []
    for rep in range(SETUP_REPEATS):
        began = time.perf_counter()
        pool = workload.build_pool()
        item = pool[rep % len(pool)]  # warm-up op, on a new item each repeat
        workload.collect(item, workload.run(item))
        wall = time.perf_counter() - began
        speeds.append(measure())
        setups.append(scale(wall, speeds[-2], speeds[-1]))
    setup_s = scale(import_s, speeds[0], speeds[0]) + statistics.median(setups)

    print(f"# placement-opt benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} numpy={np.__version__} "
          f"loadavg={' '.join(f'{x:.2f}' for x in os.getloadavg())} "
          f"PLACEMENT_OPT_THREADS=default(1) pool={len(pool)}")
    check = Checker(workload, expected)
    if args.trace:
        metrics = traced_rounds(workload, pool, args.seconds, check)
    else:
        metrics = end_to_end(workload, pool, args.seconds, check, setup_s)
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:.6g} {unit}")
    print(f"# loadavg at end {' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
