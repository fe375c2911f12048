"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with pytest -s or on failure).

Every bound is pinned here at its contractual tolerance; nothing is left
to later calibration.
"""

import math
import time
from itertools import product as iter_product

import numpy as np
import pytest

from placement_opt import (
    BruteForceOracle,
    EstimationPlan,
    Instance,
    MnlModel,
    WEvaluator,
    best_of_many_line,
    brute_force_placement,
    check_pair_objective_properties,
    check_restricted_revenue_properties,
    check_weak_rationality,
    estimate_w,
    evaluate_exact,
    expected_revenue,
    full_support,
    gen_coverage_mmnl,
    gen_first_slot_only,
    gen_heavy_tail_line,
    gen_random,
    gen_uniform_line,
    heavy_tail_single_placement,
    heavy_tail_tier_placement,
    markov_deterministic_placement,
    randomized_placement,
    uniform_price_matroid_greedy,
)

from helpers import twin_optimum

MODEL_CYCLE = ("mnl", "markov", "mmnl", "ranked")


def _report(number: int, ok: bool, detail: str, elapsed: float):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status} ({elapsed:.1f}s): {detail}")
    assert ok, detail


def test_acceptance_1_double_brute_force_agreement():
    # 200 seeded instances, n <= 6, m <= 3, all model families, explicit
    # browsing with support <= 8: the library optimum and an independent
    # recursive enumeration agree to 1e-9. Budget: 2 minutes.
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    worst = 0.0
    for idx in range(200):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        inst = gen_random(
            n, m, model=MODEL_CYCLE[idx % 4], browsing="explicit", seed=90_000 + idx
        )
        lib = brute_force_placement(inst).w_exact
        twin = twin_optimum(inst)
        worst = max(worst, abs(lib - twin))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst <= 1e-9 and elapsed < 120.0,
        f"200 instances, max |OPT - OPT_twin| = {worst:.2e}, {elapsed:.1f}s < 120s",
        elapsed,
    )


def test_acceptance_2_structured_line_instances_reproduce_known_values():
    start = time.perf_counter()
    inst = gen_first_slot_only(100)
    w_pricey = evaluate_exact(inst, (0,) * 100)
    w_popular = evaluate_exact(inst, (100,) + (0,) * 99)
    ok_1 = abs(w_pricey - 100.0 / 101.0) <= 1e-9
    ok_2 = abs(w_popular - 25.0) <= 1e-9
    uniform = gen_uniform_line(16)
    w_identity = evaluate_exact(uniform, tuple(range(16)))
    ok_3 = w_identity >= (16 + 1) / 4.0
    _report(
        2,
        ok_1 and ok_2 and ok_3,
        f"W_pricey={w_pricey:.9f} (=100/101), W_popular={w_popular:.9f} (=25), "
        f"uniform-line identity W={w_identity:.4f} >= 4.25",
        time.perf_counter() - start,
    )


def _bound_suite_battery():
    """The 100-instance battery shared by the approximation-bound tests."""
    rng = np.random.default_rng(54321)
    battery = []
    for idx in range(100):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 5))
        family = MODEL_CYCLE[idx % 4]
        browsing = "line" if idx % 2 == 0 else "explicit"
        battery.append(
            (idx, family, browsing, gen_random(n, m, model=family, browsing=browsing, seed=80_000 + idx))
        )
    return battery


def test_acceptance_3_approximation_bounds_on_random_instances():
    # 100 random instances, n <= 5, m <= 4, exact (alpha=1) brute oracle.
    # Bounds use max(1, log2 m) so the m=1 edge stays well defined.
    start = time.perf_counter()
    counts = {"randomized": 0, "markov": 0, "uniform": 0}
    reruns = 50
    for idx, family, browsing, inst in _bound_suite_battery():
        n, m = inst.n, inst.m
        oracle = BruteForceOracle(inst)
        log_m = max(1.0, math.log2(m))
        opt = brute_force_placement(inst).w_exact

        values = np.array(
            [
                randomized_placement(inst, oracle, repetitions=64, seed=s).w_exact
                for s in range(reruns)
            ]
        )
        stderr = values.std(ddof=1) / math.sqrt(reruns) if reruns > 1 else 0.0
        bound = (1.0 - 1.0 / math.e) / log_m * opt
        assert values.mean() - 2.0 * stderr >= bound - 1e-9, f"randomized seed {idx}"
        counts["randomized"] += 1

        if family in ("mnl", "markov"):
            got = markov_deterministic_placement(inst, oracle).w_exact
            assert (
                got >= 0.5 * (1.0 - 1.0 / math.e) / log_m * opt - 1e-9
            ), f"markov greedy seed {idx}"
            counts["markov"] += 1

        flat = gen_random(
            n, m, model=family, price_range=(1.0, 1.0), browsing=browsing,
            seed=80_000 + idx,
        )
        flat_opt = brute_force_placement(flat).w_exact
        got = uniform_price_matroid_greedy(flat).w_exact
        assert got >= 0.5 * flat_opt - 1e-9, f"uniform greedy seed {idx}"
        counts["uniform"] += 1

    elapsed = time.perf_counter() - start
    _report(
        3,
        elapsed < 600.0,
        f"randomized/markov/uniform bounds held on all instances {counts}, "
        f"{elapsed:.1f}s < 600s",
        elapsed,
    )


def test_acceptance_3_best_of_many_stated_bound():
    # Stated criterion: W >= OPT / log2(m) on every line instance. This is
    # KNOWN RED: at m = 2 the stated denominator is 1, demanding exact
    # optimality from a prefix construction that provably cannot deliver it
    # (the optimum may need an ordering or a product pair the size-k oracle
    # sets do not contain). The dyadic analysis behind the bound omits the
    # first location's block; the attainable constant is 1 + ceil(log2 m),
    # asserted green in test_best_of_many_provable_prefix_bound below. See
    # the decisions ledger for the full counterexample.
    start = time.perf_counter()
    violations = []
    checked = 0
    for idx, family, browsing, inst in _bound_suite_battery():
        if browsing != "line" or inst.m < 2:  # log2(1) = 0 leaves no bound to test
            continue
        checked += 1
        opt = brute_force_placement(inst).w_exact
        got = best_of_many_line(inst, BruteForceOracle(inst)).w_exact
        if got < opt / math.log2(inst.m) - 1e-9:
            violations.append(
                f"seed {idx} (n={inst.n}, m={inst.m}, {family}): "
                f"W/OPT = {got / opt:.4f} < 1/log2({inst.m}) = {1 / math.log2(inst.m):.4f}"
            )
    _report(
        3,
        not violations,
        f"stated best-of-many bound on {checked} line instances; violations: "
        + ("; ".join(violations) if violations else "none"),
        time.perf_counter() - start,
    )


def test_best_of_many_provable_prefix_bound():
    # companion (green): the prefix construction does achieve
    # OPT / (1 + ceil(log2 m)) on every line instance, m = 1 included
    for idx, family, browsing, inst in _bound_suite_battery():
        if browsing != "line":
            continue
        opt = brute_force_placement(inst).w_exact
        got = best_of_many_line(inst, BruteForceOracle(inst)).w_exact
        floor = opt / (1.0 + math.ceil(math.log2(inst.m)))
        assert got >= floor - 1e-9, f"seed {idx}"


def test_acceptance_4_replication_bound_exact_enumeration():
    # drawing j products with replacement from the best size-j assortment
    # keeps, in expectation over all j^j draws, at least (1-(1-1/j)^j) of
    # its revenue; checked by full enumeration on MNL with distinct prices.
    start = time.perf_counter()
    inst = Instance([10.0 - i for i in range(6)], MnlModel([1.0] * 6), 4, full_support(4))
    oracle = BruteForceOracle(inst)
    gaps = []
    for j in (2, 3, 4):
        members = sorted(oracle.best_assortment(j))
        assert len(members) == j, "needs j products"
        full_rev = expected_revenue(inst.choice_model, inst.prices, members)
        mean = np.mean(
            [
                expected_revenue(inst.choice_model, inst.prices, set(draw))
                for draw in iter_product(members, repeat=j)
            ]
        )
        floor = (1.0 - (1.0 - 1.0 / j) ** j) * full_rev
        assert mean >= floor - 1e-12, f"j={j}"
        gaps.append(f"j={j}: E[R]={mean:.6f} floor={floor:.6f} gap={mean - floor:.6f}")
    _report(4, True, "; ".join(gaps), time.perf_counter() - start)


def test_acceptance_5_estimator_coverage():
    # 200 estimates at (eps=0.2, delta=0.1) on a fixed 3-location MNL line
    # instance must land within eps*OPT of the truth at least 80% of the time.
    start = time.perf_counter()
    inst = gen_random(4, 3, model="mnl", browsing="line", seed=777)
    opt_report = brute_force_placement(inst)
    slots = opt_report.placement
    truth = evaluate_exact(inst, slots)
    plan = EstimationPlan.for_instance(inst, 0.2, 0.1)
    rng = np.random.default_rng(778)
    hits = sum(
        abs(estimate_w(inst, slots, plan, rng)[0] - truth) <= 0.2 * opt_report.w_exact
        for _ in range(200)
    )
    _report(
        5,
        hits >= 160,
        f"coverage {hits}/200 at T={plan.samples} (bound guarantees >= 160)",
        time.perf_counter() - start,
    )


def test_acceptance_6_submodularity_and_rationality_suites():
    start = time.perf_counter()
    # uniform-price product-location objective: monotone + submodular,
    # exhaustively over every subset chain, at the full n=4, m=3 size
    pair_checked = 0
    for idx, family in enumerate(MODEL_CYCLE):
        inst = gen_random(
            4, 3, model=family, price_range=(1.0, 1.0), browsing="explicit",
            seed=60_000 + idx,
        )
        assert check_pair_objective_properties(inst) == [], family
        small = gen_random(
            3, 2, model=family, price_range=(1.0, 1.0), browsing="line",
            seed=61_000 + idx,
        )
        assert check_pair_objective_properties(small) == [], family
        pair_checked += 2

    # Markov revenue restricted to the best size-k assortment: monotone +
    # submodular for every k up to m = n = 5
    reduced_checked = 0
    for seed in (62_000, 62_001):
        inst = gen_random(5, 5, model="markov", browsing="explicit", seed=seed)
        oracle = BruteForceOracle(inst)
        for k in range(1, 6):
            members = oracle.best_assortment(k)
            assert check_restricted_revenue_properties(inst, members) == [], (seed, k)
            reduced_checked += 1

    # substitutability, exhaustive at n = 6 for every family
    for idx, family in enumerate(MODEL_CYCLE):
        inst = gen_random(6, 2, model=family, seed=63_000 + idx)
        assert check_weak_rationality(inst.choice_model) == [], family

    _report(
        6,
        True,
        f"{pair_checked} pair-objective lattices, {reduced_checked} reduced ground "
        "sets, 4 exhaustive rationality sweeps: zero violations",
        time.perf_counter() - start,
    )


def test_acceptance_7_heavy_tail_ratio_grows_with_m():
    # qualitative check: the long-tail placement gains on the best
    # single-tier placement as the line grows (asymptotic constant not
    # asserted)
    start = time.perf_counter()
    ratios = []
    for m in (4, 16, 64, 256):
        inst = gen_heavy_tail_line(m, 1.0)
        ev = WEvaluator(inst)
        w_singles = ev.value(heavy_tail_single_placement(m))
        w_tier = max(
            ev.value(heavy_tail_tier_placement(m, k)) for k in range(1, m + 1)
        )
        ratios.append(w_singles / w_tier)
    increasing = all(a < b for a, b in zip(ratios, ratios[1:]))
    _report(
        7,
        increasing,
        "ratios over m in (4,16,64,256): "
        + ", ".join(f"{r:.4f}" for r in ratios)
        + " (strictly increasing)",
        time.perf_counter() - start,
    )


def test_acceptance_8_coverage_reduction_arithmetic():
    # the coverage instance's revenue must equal the closed-form
    # (1/q) sum_j gamma_j M / (1 + gamma_j M) on 50 random instances
    start = time.perf_counter()
    rng = np.random.default_rng(888)
    worst = 0.0
    for _ in range(50):
        q = int(rng.integers(2, 8))
        n = int(rng.integers(2, 7))
        sets = [
            [int(e) for e in rng.choice(q, size=int(rng.integers(1, q + 1)), replace=False)]
            for _ in range(n)
        ]
        k = int(rng.integers(1, n + 1))
        eps = float(rng.uniform(0.05, 1.0))
        inst = gen_coverage_mmnl(sets, q, k, eps)
        chosen = sorted(int(i) for i in rng.choice(n, size=k, replace=False))
        big = 1.0 / eps - 1.0
        closed = (
            sum(
                (lambda g: g * big / (1.0 + g * big) if g else 0.0)(
                    sum(1 for i in chosen if e in set(sets[i]))
                )
                for e in range(q)
            )
            / q
        )
        direct = expected_revenue(inst.choice_model, inst.prices, chosen)
        worst = max(worst, abs(direct - closed))
    _report(
        8,
        worst <= 1e-9,
        f"50 coverage instances, max |direct - closed form| = {worst:.2e}",
        time.perf_counter() - start,
    )
