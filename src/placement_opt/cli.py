"""Command line front end: generate, solve, compare, estimate, verify.

Exit codes: 0 ok, 1 property violation under ``verify``, 2 bad input or
instance parse failure, 3 brute-force size guard exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np

from .choice import check_weak_rationality
from .core import Instance, SizeGuardError, substream
from .estimation import EstimationPlan, estimate_w
from .instances import (
    BROWSING_FAMILIES,
    MODEL_FAMILIES,
    from_json,
    gen_coverage_mmnl,
    gen_first_slot_only,
    gen_heavy_tail_line,
    gen_random,
    gen_uniform_line,
    to_json,
)
from .oracle import BruteForceOracle, GreedyUniformOracle, MnlExactOracle, exact_oracle
from .solvers import (
    WEstimate,
    best_of_many_line,
    brute_force_placement,
    check_pair_objective_properties,
    evaluate_exact,
    markov_deterministic_placement,
    randomized_placement,
    uniform_price_matroid_greedy,
)

DEFAULT_SEED = 20240901

ORACLES = {
    "auto": exact_oracle,
    "brute": BruteForceOracle,
    "mnl-exact": MnlExactOracle,
    "greedy-uniform": GreedyUniformOracle,
}


def _load_instance(path: str) -> Instance:
    try:
        with open(path, encoding="utf-8") as handle:
            return from_json(handle.read())
    except Exception as exc:
        raise ValueError(f"cannot parse instance {path}: {exc}") from exc


def _oracle(instance: Instance, args):
    # One oracle per run, built on the first call and shared by every solver
    # of the run, so its memoized answers are computed once.
    return functools.cache(lambda: ORACLES[args.oracle](instance))


# Entries take (instance, args, oracle) with ``oracle`` from ``_oracle``; they
# name their solver at call time, not by a captured function object, so
# rebinding the module attribute (a profiler, a test double) reaches them.
ALGORITHMS = {
    "brute": lambda instance, args, oracle: brute_force_placement(
        instance, seed=args.seed
    ),
    "best-of-many": lambda instance, args, oracle: best_of_many_line(
        instance, oracle(), seed=args.seed
    ),
    "randomized": lambda instance, args, oracle: randomized_placement(
        instance,
        oracle(),
        repetitions=args.repetitions,
        seed=args.seed,
        rng=substream(args.seed, "placement"),
    ),
    "uniform-greedy": lambda instance, args, oracle: uniform_price_matroid_greedy(
        instance, seed=args.seed
    ),
    "markov-greedy": lambda instance, args, oracle: markov_deterministic_placement(
        instance, oracle(), seed=args.seed
    ),
}

GENERATORS = {
    "first-slot-only": lambda args: gen_first_slot_only(args.k),
    "uniform-line": lambda args: gen_uniform_line(args.m),
    "heavy-tail-line": lambda args: gen_heavy_tail_line(args.m, args.epsilon),
    "coverage-mmnl": lambda args: gen_coverage_mmnl(
        json.loads(args.sets), args.universe, args.cardinality, args.epsilon
    ),
    "random": lambda args: gen_random(
        args.n,
        args.m,
        model=args.model,
        price_range=(args.price_min, args.price_max),
        browsing=args.browsing,
        seed=args.seed,
    ),
}


def _write_output(payload: str, path: str | None):
    if path is None:
        print(payload)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")


# ---------------------------------------------------------------------------
# verbs


def cmd_gen(args) -> int:
    _write_output(to_json(GENERATORS[args.family](args)), args.output)
    return 0


def cmd_solve(args) -> int:
    instance = _load_instance(args.instance)
    report = ALGORITHMS[args.algorithm](instance, args, _oracle(instance, args))
    _write_output(json.dumps(report.to_dict()), args.output)
    return 0


def cmd_compare(args) -> int:
    instance = _load_instance(args.instance)
    names = sorted(set(args.algorithms.split(",")))
    for name in names:
        if name not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {name!r}, choose from {', '.join(ALGORITHMS)}"
            )
    oracle = _oracle(instance, args)
    # one worker: the solvers run in turn, so the shared oracle needs no lock
    with ThreadPoolExecutor(max_workers=1) as pool:
        futures = {
            name: pool.submit(ALGORITHMS[name], instance, args, oracle) for name in names
        }
        reports = {name: fut.result() for name, fut in futures.items()}

    opt = None
    if "brute" in reports:
        opt = reports["brute"].w
    else:
        try:
            opt = brute_force_placement(instance, guard=args.opt_guard).w
        except SizeGuardError:
            pass

    best = max(report.w for report in reports.values())
    rows = []
    for name in names:  # already sorted; completion order is irrelevant
        w = reports[name].w
        rows.append(
            {
                "algorithm": name,
                "w": w,
                "ratio_to_best": w / best if best > 0 else 1.0,
                "ratio_to_opt": (w / opt if opt and opt > 0 else None),
                "report": reports[name].to_dict(),
            }
        )
    _write_output(json.dumps({"instance": args.instance, "results": rows}), args.output)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["algorithm", "w", "ratio_to_best", "ratio_to_opt"])
            for row in rows:
                writer.writerow(
                    [row["algorithm"], row["w"], row["ratio_to_best"], row["ratio_to_opt"]]
                )
    return 0


def cmd_estimate(args) -> int:
    instance = _load_instance(args.instance)
    slots = []
    for entry in args.placement.split(","):
        try:
            slots.append(int(entry))
        except ValueError:
            raise ValueError(f"--placement entry {entry!r} is not an integer id") from None
    plan = EstimationPlan.for_instance(
        instance, args.epsilon, args.delta, args.samples_override
    )
    value, samples = estimate_w(
        instance, slots, plan, substream(args.seed, "estimation")
    )
    estimate = WEstimate(value, plan.epsilon, plan.delta, samples)
    payload = {"w_estimate": asdict(estimate), "seed": args.seed}
    _write_output(json.dumps(payload), args.output)
    return 0


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError("trials must be positive")
    instance = _load_instance(args.instance)
    failures: list[str] = []

    trials = None if instance.n <= 12 else args.trials
    violations = check_weak_rationality(instance.choice_model, trials=trials, seed=args.seed)
    if violations:
        failures.append(f"weak rationality: {len(violations)} violations")

    if np.ptp(instance.prices) == 0.0 and instance.n * instance.m <= 12:
        problems = check_pair_objective_properties(instance)
        if problems:
            failures.append(f"pair objective: {len(problems)} violations")

    try:
        opt = brute_force_placement(instance, guard=args.opt_guard).w
    except SizeGuardError:
        print("note: instance too large for the brute-force coverage check")
    else:
        slots = (instance.i_star,) * instance.m
        truth = evaluate_exact(instance, slots)
        plan = EstimationPlan.for_instance(instance, 0.2, 0.1)
        rng = substream(args.seed, "estimation")
        # The plan pins each estimate of this placement within 0.2 R({i*}) / m
        # and opt >= p R({i*}), p the chance of visiting any location: the
        # tolerance is 0.2 opt / min(1, m p).
        p = sum(prob for locations, prob in instance.browsing.support() if locations)
        hits = sum(
            abs(estimate_w(instance, slots, plan, rng)[0] - truth) * min(1.0, instance.m * p)
            <= 0.2 * opt
            for _ in range(50)
        )
        if opt > 0 and hits < 40:  # plan guarantees >= 1 - 2*delta = 80%
            failures.append(f"estimator coverage: {hits}/50 within bound")

    for line in failures:
        print(f"FAIL {line}")
    if not failures:
        print("OK all checks passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser


@functools.cache  # built on first use, not at import; about 2 ms a build
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="placement-opt",
        description="Optimize product placement over display locations.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    gen = sub.add_parser("gen", help="generate an instance JSON")
    gen.add_argument("--family", required=True, choices=GENERATORS)
    gen.add_argument("--k", type=int, default=4)
    gen.add_argument("--m", type=int, default=4)
    gen.add_argument("--n", type=int, default=5)
    gen.add_argument("--epsilon", type=float, default=1.0)
    gen.add_argument("--sets", type=str, default="[[0]]", help="JSON list of sets")
    gen.add_argument("--universe", type=int, default=1)
    gen.add_argument("--cardinality", type=int, default=1)
    gen.add_argument("--model", choices=MODEL_FAMILIES, default="mnl")
    gen.add_argument("--browsing", choices=BROWSING_FAMILIES, default="line")
    gen.add_argument("--price-min", type=float, default=1.0)
    gen.add_argument("--price-max", type=float, default=10.0)
    gen.add_argument("--seed", type=int, default=DEFAULT_SEED)
    gen.add_argument("-o", "--output", default=None)
    gen.set_defaults(func=cmd_gen)

    run = argparse.ArgumentParser(add_help=False)  # flags shared by solve, compare
    run.add_argument("--instance", required=True)
    run.add_argument("--oracle", choices=ORACLES, default="auto")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--repetitions", type=int, default=32)
    run.add_argument("-o", "--output", default=None)

    solve = sub.add_parser("solve", parents=[run], help="run one placement algorithm")
    solve.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    solve.set_defaults(func=cmd_solve)

    compare = sub.add_parser(
        "compare", parents=[run], help="run several algorithms and tabulate"
    )
    compare.add_argument("--algorithms", required=True, help="comma separated names")
    compare.add_argument("--opt-guard", type=int, default=200_000)
    compare.add_argument("--csv", default=None)
    compare.set_defaults(func=cmd_compare)

    estimate = sub.add_parser("estimate", help="Monte-Carlo estimate of a placement")
    estimate.add_argument("--instance", required=True)
    estimate.add_argument("--placement", required=True, help="comma separated ids")
    estimate.add_argument("--epsilon", type=float, default=0.1)
    estimate.add_argument("--delta", type=float, default=0.05)
    estimate.add_argument("--samples-override", type=int, default=None)
    estimate.add_argument("--seed", type=int, default=DEFAULT_SEED)
    estimate.add_argument("-o", "--output", default=None)
    estimate.set_defaults(func=cmd_estimate)

    verify = sub.add_parser("verify", help="run property checks on an instance")
    verify.add_argument("--instance", required=True)
    verify.add_argument("--trials", type=int, default=2000)
    verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    verify.add_argument("--opt-guard", type=int, default=50_000)
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:  # every verb takes --seed; reject it before any work
            raise ValueError("seed must be nonnegative")
        if getattr(args, "repetitions", 1) < 1:  # solve and compare
            raise ValueError("repetitions must be positive")
        return args.func(args)
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # bad input or an unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
