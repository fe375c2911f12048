import json
import re
from collections import Counter
from itertools import product as iter_product
from math import nextafter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placement_opt import (
    EMPTY_SLOT,
    AssortmentOracle,
    BruteForceOracle,
    EnumerationUnsupportedError,
    EstimationPlan,
    ExplicitBrowsing,
    Instance,
    LineBrowsing,
    MarkovModel,
    MnlModel,
    RankedListModel,
    SamplerBrowsing,
    SizeGuardError,
    SolveReport,
    WEstimate,
    WEvaluator,
    best_of_many_line,
    brute_force_placement,
    check_pair_objective_properties,
    check_restricted_revenue_properties,
    check_weak_rationality,
    estimate_w,
    evaluate_exact,
    expected_revenue,
    fill_empty,
    full_support,
    gen_first_slot_only,
    gen_random,
    gen_uniform_line,
    markov_deterministic_placement,
    pair_objective_values,
    randomized_placement,
    sample_average_placement,
    uniform_price_matroid_greedy,
)
from placement_opt import solvers
from placement_opt.solvers import _lattice_violations
from placement_opt.oracle import GreedyUniformOracle, exact_oracle

from helpers import (
    reference_best_of_many,
    reference_brute_placement,
    reference_markov_greedy,
    reference_partition_greedy,
    reference_randomized,
    twin_optimum,
    with_sampler,
)


# ---------------------------------------------------------------------------
# exact evaluation


def test_full_support_value_equals_assortment_revenue():
    inst = gen_random(4, 3, model="mnl", browsing="full", seed=0)
    slots = (2, 0, 2)
    expected = expected_revenue(inst.choice_model, inst.prices, {0, 2})
    assert evaluate_exact(inst, slots) == pytest.approx(expected, abs=1e-12)


def test_tradeoff_instance_known_values():
    inst = gen_first_slot_only(2)
    pricey_first = (0,) + (0,) * 1
    popular_first = (2,) + (0,) * 1
    assert evaluate_exact(inst, pricey_first) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert evaluate_exact(inst, popular_first) == pytest.approx(0.5, abs=1e-12)


def test_line_value_is_prefix_weighted_sum():
    inst = gen_random(4, 3, model="mmnl", browsing="line", seed=3)
    slots = (1, 3, 1)
    theta = inst.browsing.theta
    manual = sum(
        theta[j]
        * expected_revenue(inst.choice_model, inst.prices, set(slots[: j + 1]))
        for j in range(3)
    )
    assert evaluate_exact(inst, slots) == pytest.approx(manual, abs=1e-12)


def test_value_with_sentinels_caches_only_catalog_sets():
    inst = gen_random(4, 3, model="markov", browsing="explicit", seed=2)
    ev, other = WEvaluator(inst), WEvaluator(inst)
    gap = EMPTY_SLOT
    for slots in [(0, 1, 2), (gap, 1, 3), (0, 0, gap), (gap, gap, gap), (1, gap, 2)]:
        got = ev.value(slots)
        expected = 0.0
        for locations, prob in other.support:
            expected += prob * other.revenue(slots[j] for j in locations)
        assert got == expected, slots
    assert all(0 <= i < inst.n for key in ev._revenues for i in key)


def test_evaluator_rejects_wrong_length():
    inst = gen_random(3, 2, model="mnl", seed=0)
    with pytest.raises(ValueError):
        evaluate_exact(inst, (0,))


def test_evaluator_rejects_ids_outside_the_catalog():
    inst = gen_random(3, 2, model="mnl", browsing="line", seed=0)
    for bad in (inst.n, -2):
        with pytest.raises(ValueError, match="unknown product id"):
            evaluate_exact(inst, (bad,) * inst.m)
        with pytest.raises(ValueError, match="unknown product id"):
            evaluate_exact(inst, (0, bad))
    # the empty-slot sentinel is the one non-catalog id a slot may hold
    assert evaluate_exact(inst, (EMPTY_SLOT,) * inst.m) == 0.0
    assert evaluate_exact(inst, (0, EMPTY_SLOT)) == evaluate_exact(inst, (0, 0))


@pytest.mark.parametrize("bad", [3, 99, -7])
def test_evaluator_checks_slots_no_customer_visits(bad):
    # location 2 is never visited, so its id never reaches choice_probs
    inst = Instance([1.0, 2.0, 3.0], MnlModel([1, 1, 1]), 3, ExplicitBrowsing([([0, 1], 1.0)]))
    ev = WEvaluator(inst)
    match = f"placement: unknown product id {bad}"
    with pytest.raises(ValueError, match=match):  # cold
        ev.value((0, 1, bad))
    assert ev.value((0, 1, 2)) == ev.value((0, 1, np.int64(2))) == ev.value((0, 1, EMPTY_SLOT))
    with pytest.raises(ValueError, match=match):  # warm
        ev.value((0, 1, bad))


@st.composite
def _placement_block(draw):
    """(instance, block): a ``(D, m)`` array of catalog ids with repeated rows.

    n sits on both sides of 8 and 64 products, where a packed key grows a
    byte (and 64 is where an int64 bitmask would run out); browsing adds a line with residual mass and a support holding only
    the empty set to the four random families; prices may tie or sit an ulp
    or 1e-15 apart.
    """
    n = draw(st.sampled_from([1, 2, 3, 7, 8, 9, 12, 63, 64, 65, 70]))
    m = draw(st.integers(1, 10))
    model = draw(st.sampled_from(["mnl", "mmnl", "markov", "ranked"]))
    browsing = draw(st.sampled_from(["line", "explicit", "singleton", "full", "residual", "empty"]))
    seed = draw(st.integers(0, 2**32 - 1))
    family = {"residual": "line", "empty": "line"}.get(browsing, browsing)
    inst = gen_random(n, m, model=model, browsing=family, seed=seed)
    prices = inst.prices
    step = draw(st.sampled_from([None, 0.0, np.spacing(2.0), 1e-15]))
    if step is not None:
        prices = 2.0 + np.arange(n) * step
    browse = {
        "residual": LineBrowsing(np.full(m, 0.5 / m)),
        "empty": ExplicitBrowsing([([], 1.0)]),
    }.get(browsing, inst.browsing)
    inst = Instance(prices, inst.choice_model, m, browse)
    rng = np.random.default_rng(seed)
    # about 3n cells, so a block holds most of the catalog
    rows = rng.integers(0, n, size=(draw(st.integers(1, 8)) + 3 * n // m, m))
    repeats = rows[rng.integers(0, len(rows), size=draw(st.integers(0, 8)))]
    return inst, rng.permutation(np.concatenate([rows, repeats]))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(case=_placement_block())
def test_values_equal_value_of_every_row(case):
    inst, block = case
    ev, ref = WEvaluator(inst), WEvaluator(inst)
    want = [ref.value(tuple(row)) for row in block.tolist()]
    for _ in ("cold", "warm"):
        assert [w.hex() for w in ev.values(block).tolist()] == [w.hex() for w in want]
    # misses went through ``revenue``: the same sets are cached
    assert ev._revenues.keys() == ref._revenues.keys()


@pytest.mark.parametrize(
    "block",
    [
        np.zeros(3, dtype=int),
        np.zeros((2, 2), dtype=int),
        np.zeros((2, 4), dtype=int),
        np.zeros((2, 3)),
        np.ones((2, 3), dtype=bool),
        np.full((2, 3), EMPTY_SLOT),
        np.full((2, 3), 4),
        np.array([[0, 1, -2]]),
        [[0, True, 2]],
    ],
    ids=["flat", "narrow", "wide", "float", "bool", "empty-slot", "past-catalog", "negative", "bool-among-ints"],
)
def test_values_rejects_bad_blocks_naming_placement(block):
    inst = gen_random(4, 3, model="markov", browsing="explicit", seed=0)
    with pytest.raises(ValueError, match="placement"):
        WEvaluator(inst).values(block)


# ---------------------------------------------------------------------------
# fill_empty


def test_fill_empty_all_and_none():
    inst = gen_random(4, 3, model="mnl", seed=1)
    star = inst.i_star
    assert fill_empty(inst, (EMPTY_SLOT,) * 3) == (star,) * 3
    assert fill_empty(inst, (1, 2, 0)) == (1, 2, 0)


def test_fill_empty_never_decreases_value():
    rng = np.random.default_rng(5)
    for seed in range(20):
        inst = gen_random(4, 3, model="markov", browsing="explicit", seed=seed)
        slots = [int(i) for i in rng.integers(0, 4, size=3)]
        for j in range(3):
            if rng.random() < 0.5:
                slots[j] = EMPTY_SLOT
        before = evaluate_exact(inst, tuple(slots))
        after = evaluate_exact(inst, fill_empty(inst, slots))
        assert after >= before - 1e-12


@st.composite
def _placement_with_gaps(draw):
    """(instance, slots): slots mix catalog ids and EMPTY_SLOT."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    model = draw(st.sampled_from(["mnl", "mmnl", "markov", "ranked"]))
    browsing = draw(st.sampled_from(["line", "explicit"]))
    uniform = draw(st.booleans())
    prices = (2.0, 2.0) if uniform else (1.0, 10.0)
    seed = draw(st.integers(0, 2**32 - 1))
    inst = gen_random(n, m, model=model, price_range=prices, browsing=browsing, seed=seed)
    ids = st.integers(EMPTY_SLOT, n - 1)
    return inst, tuple(draw(st.lists(ids, min_size=m, max_size=m)))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(case=_placement_with_gaps())
def test_fill_empty_never_decreases_value_property(case):
    # offering the priciest product can only add revenue under any
    # random-utility model, so W(fill_empty(X)) >= W(X) for every family
    inst, slots = case
    # adding i_star can move mass within a sum whose terms then regroup,
    # so allow rounding as test_fill_empty_never_decreases_value does
    assert evaluate_exact(inst, fill_empty(inst, slots)) >= evaluate_exact(inst, slots) - 1e-12


# ---------------------------------------------------------------------------
# brute force


def test_brute_force_single_slot_picks_best_solo_product():
    inst = gen_random(5, 1, model="mnl", browsing="full", seed=2)
    report = brute_force_placement(inst)
    solo = [
        expected_revenue(inst.choice_model, inst.prices, {i}) for i in range(5)
    ]
    assert report.w_exact == pytest.approx(max(solo), abs=1e-12)
    assert report.placement == (int(np.argmax(solo)),)


def test_brute_force_matches_recursive_twin():
    for seed in range(10):
        inst = gen_random(3, 2, model="mnl", browsing="explicit", seed=seed)
        assert brute_force_placement(inst).w_exact == pytest.approx(
            twin_optimum(inst), abs=1e-9
        )


def test_brute_force_matches_reference_loop():
    for model in ("mnl", "mmnl", "markov", "ranked"):
        for browsing in ("line", "explicit", "singleton", "full"):
            for seed, prices in enumerate(((1.0, 10.0), (2.0, 2.0))):
                inst = gen_random(
                    4, 3, model=model, price_range=prices, browsing=browsing, seed=seed
                )
                report = brute_force_placement(inst)
                assert (report.placement, report.w_exact) == reference_brute_placement(
                    inst
                ), (model, browsing, prices)


def test_brute_force_guard():
    inst = gen_random(40, 4, model="mnl", seed=0)
    with pytest.raises(SizeGuardError):
        brute_force_placement(inst)
    small = gen_random(3, 2, model="mnl", seed=0)
    with pytest.raises(SizeGuardError, match=r"3\^2 > 8 placements"):
        brute_force_placement(small, guard=np.int64(8))
    got, want = brute_force_placement(small, guard=np.int64(9)), brute_force_placement(small)
    assert (got.placement, got.w_exact) == (want.placement, want.w_exact)


def test_singleton_uniform_optimum_repeats_best_solo_product():
    for seed in range(5):
        inst = gen_random(4, 3, model="mnl", browsing="singleton", seed=seed)
        report = brute_force_placement(inst)
        solo = [
            expected_revenue(inst.choice_model, inst.prices, {i}) for i in range(4)
        ]
        best = int(np.argmax(solo))
        assert report.placement == (best,) * 3
        assert report.w_exact == pytest.approx(max(solo), abs=1e-12)


# ---------------------------------------------------------------------------
# best of many (prefix placements on a line)


def test_best_of_many_single_slot_is_best_assortment_of_one():
    inst = gen_random(5, 1, model="mnl", browsing="line", seed=4)
    oracle = BruteForceOracle(inst)
    report = best_of_many_line(inst, oracle)
    assert report.placement == tuple(sorted(oracle.best_assortment(1)))
    assert report.k == 1


def test_best_of_many_on_uniform_line_reaches_quarter_bound():
    m = 16
    inst = gen_uniform_line(m)
    report = best_of_many_line(inst, BruteForceOracle(inst))
    assert report.w_exact >= (m + 1) / 4.0


def test_best_of_many_dominates_each_prefix_candidate():
    inst = gen_random(5, 4, model="mnl", browsing="line", seed=6)
    oracle = BruteForceOracle(inst)
    report = best_of_many_line(inst, oracle)
    for k in range(1, 5):
        members = sorted(oracle.best_assortment(k))
        slots = fill_empty(inst, tuple(members) + (EMPTY_SLOT,) * (4 - len(members)))
        assert report.w_exact >= evaluate_exact(inst, slots) - 1e-12


def test_best_of_many_bound_against_brute_force():
    for seed in range(20):
        inst = gen_random(4, 4, model="mnl", browsing="line", seed=seed)
        opt = brute_force_placement(inst).w_exact
        report = best_of_many_line(inst, BruteForceOracle(inst))
        assert report.w_exact >= opt / max(1.0, np.log2(inst.m)) - 1e-9


def test_best_of_many_matches_per_k_reference():
    cases = [
        gen_random(n, m, model=family, browsing="line", seed=seed)
        for seed, (n, m) in enumerate([(2, 4), (3, 6), (5, 3), (7, 5)])
        for family in ("mnl", "mmnl", "markov", "ranked")
    ]
    cases += [gen_uniform_line(m) for m in (1, 4, 9)]
    tied = 0
    for inst in cases:
        oracle = BruteForceOracle(inst)
        report = best_of_many_line(inst, oracle)
        w, k, slots = reference_best_of_many(inst, oracle)
        assert (report.w_exact, report.k, report.placement) == (w, k, slots)
        members = [sorted(oracle.best_assortment(j)) for j in range(1, inst.m + 1)]
        prefixes = [tuple(s) + (EMPTY_SLOT,) * (inst.m - len(s)) for s in members]
        values = [evaluate_exact(inst, fill_empty(inst, p)) for p in prefixes]
        tied += values.count(w) > 1
    assert tied >= 4  # m > n repeats sets, so several k reach the best


def test_best_of_many_evaluates_at_most_n_prefixes(monkeypatch):
    # every k >= n gets the size-n set and the same slots, so it can only tie
    cases = [
        gen_random(n, m, model=family, browsing="line", seed=seed)
        for seed, (n, m) in enumerate([(1, 3), (2, 5), (3, 40), (4, 6)])
        for family in ("mnl", "mmnl", "markov", "ranked")
    ]
    real = WEvaluator.value
    for inst in cases:
        oracle = BruteForceOracle(inst)
        w, k, slots = reference_best_of_many(inst, oracle)
        calls = []

        def counted(self, placed):
            calls.append(placed)
            return real(self, placed)

        monkeypatch.setattr(WEvaluator, "value", counted)
        report = best_of_many_line(inst, oracle)
        monkeypatch.undo()
        assert len(calls) <= inst.n < inst.m
        assert (report.placement, report.w_exact.hex(), report.k) == (slots, w.hex(), k)


def test_best_of_many_requires_line_browsing():
    inst = gen_random(3, 2, model="mnl", browsing="explicit", seed=0)
    with pytest.raises(ValueError):
        best_of_many_line(inst, BruteForceOracle(inst))


# ---------------------------------------------------------------------------
# randomized placement


def test_randomized_single_member_assortment_is_deterministic():
    inst = gen_random(3, 3, model="mnl", browsing="singleton", seed=7)
    oracle = BruteForceOracle(inst)
    only = next(iter(oracle.best_assortment(1)))
    report = randomized_placement(inst, oracle, repetitions=1, seed=0)
    if report.k == 1:
        assert report.placement == (only,) * 3


def test_randomized_close_to_optimum_with_many_repetitions():
    inst = gen_random(3, 3, model="mnl", browsing="singleton", seed=7)
    opt = brute_force_placement(inst).w_exact
    report = randomized_placement(
        inst, BruteForceOracle(inst), repetitions=200, seed=11
    )
    assert report.w_exact >= 0.95 * opt


def test_randomized_replication_lower_bound_exact_enumeration():
    # over all 27 equally likely triples drawn from a 3-member assortment,
    # the mean assortment revenue keeps at least 19/27 of the full revenue
    inst = gen_random(6, 3, model="mnl", seed=9)
    oracle = BruteForceOracle(inst)
    members = sorted(oracle.best_assortment(3))
    full = expected_revenue(inst.choice_model, inst.prices, members)
    mean = np.mean(
        [
            expected_revenue(inst.choice_model, inst.prices, set(triple))
            for triple in iter_product(members, repeat=3)
        ]
    )
    assert mean >= (1.0 - (2.0 / 3.0) ** 3) * full - 1e-12


def test_randomized_is_reproducible_bit_for_bit():
    inst = gen_random(4, 3, model="mmnl", browsing="explicit", seed=13)
    oracle = BruteForceOracle(inst)
    a = randomized_placement(inst, oracle, repetitions=16, seed=21)
    b = randomized_placement(inst, oracle, repetitions=16, seed=21)
    c = randomized_placement(inst, oracle, repetitions=np.int64(16), seed=21)
    assert a.placement == b.placement == c.placement
    assert a.w_exact == b.w_exact == c.w_exact
    assert a.k == b.k == c.k


def test_randomized_matches_per_draw_loop(monkeypatch):
    cases = [
        gen_random(n, m, model=family, browsing=browsing, seed=seed)
        for seed, (n, m) in enumerate([(2, 4), (5, 3), (7, 5), (12, 5)])
        for family in ("mnl", "markov", "ranked")
        for browsing in ("line", "explicit")
    ]
    # the default block holds every k; 1 cell scores each k on its own,
    # 40 cells two ks of 5 draws per block, the last block short
    blocks, values = [], WEvaluator.values

    def spy(self, placements):
        blocks.append(len(placements))
        return values(self, placements)

    monkeypatch.setattr(WEvaluator, "values", spy)
    for cells in (solvers._CELLS, 1, 40):
        monkeypatch.setattr(solvers, "_CELLS", cells)
        for inst in cases:
            oracle = BruteForceOracle(inst)
            for reps in (1, 5, 64):
                blocks.clear()
                got = randomized_placement(inst, oracle, repetitions=reps, seed=4)
                per_block = max(1, cells // (reps * inst.m))
                assert blocks == [
                    reps * min(per_block, inst.m - first)
                    for first in range(0, inst.m, per_block)
                ], (inst.n, reps, cells)
                ev = WEvaluator(inst)
                w, k, slots = reference_randomized(
                    inst, oracle, reps, np.random.default_rng(4), ev.value
                )
                assert (got.w_exact, got.k, got.placement) == (w, k, slots), (inst.n, reps, cells)


def _sampler_twin(base):
    """``base`` with its line browsing hidden behind a sampler that draws
    the same prefixes from ``theta``, so exact ``W`` stays computable on
    ``base``."""
    theta = base.browsing.theta
    cum = np.cumsum(np.concatenate(([1.0 - theta.sum()], theta)))
    cum[-1] = 1.0

    def draw(rng):
        return range(int(np.searchsorted(cum, rng.random(), side="right")))

    return Instance(base.prices, base.choice_model, base.m, SamplerBrowsing(draw))


def _empirical(inst, samples, rng):
    """``inst`` on the browsing of ``samples`` single draws, each drawn set
    with probability count / samples."""
    counts = Counter(inst.browsing.sample(rng) for _ in range(samples))
    support = [(s, c / samples) for s, c in counts.items()]
    return Instance(inst.prices, inst.choice_model, inst.m, ExplicitBrowsing(support))


_EXACT_SOLVERS = {
    "brute": (brute_force_placement, (0.5, 4.0)),
    "randomized": (
        lambda inst: randomized_placement(inst, BruteForceOracle(inst), repetitions=8, seed=6),
        (0.5, 4.0),
    ),
    "uniform-greedy": (uniform_price_matroid_greedy, (2.0, 2.0)),
    "markov-greedy": (
        lambda inst: markov_deterministic_placement(inst, BruteForceOracle(inst)),
        (0.5, 4.0),
    ),
}


@pytest.mark.parametrize("name", list(_EXACT_SOLVERS))
def test_sample_average_equals_the_solver_on_the_empirical_instance(name):
    solve, prices = _EXACT_SOLVERS[name]
    inst = with_sampler(gen_random(4, 3, model="mnl", price_range=prices, seed=7))
    plan = EstimationPlan.for_instance(inst, 0.5, 0.5, samples_override=200)
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    got = sample_average_placement(inst, solve, plan, rng)
    want = solve(_empirical(inst, plan.samples, ref_rng))
    assert (got.placement, got.k, got.algorithm, got.seed) == (
        want.placement,
        want.k,
        want.algorithm,
        want.seed,
    )
    # the winner is estimated on the stream's next draws
    value, _ = estimate_w(inst, got.placement, plan, ref_rng)
    assert got.w_exact is None
    assert got.w_estimate == WEstimate(value, 0.5, 0.5, 200)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    single = np.random.default_rng(8)
    for _ in range(2 * plan.samples):
        inst.browsing.sample(single)
    assert rng.bit_generator.state == single.bit_generator.state


def test_sample_average_refuses_best_of_many():
    inst = _sampler_twin(gen_random(3, 2, model="mnl", browsing="line", seed=15))
    plan = EstimationPlan.for_instance(inst, 0.5, 0.5, samples_override=20)
    with pytest.raises(ValueError, match="requires line browsing"):
        sample_average_placement(
            inst,
            lambda i: best_of_many_line(i, BruteForceOracle(i)),
            plan,
            np.random.default_rng(0),
        )


@pytest.mark.parametrize(
    "location, message",
    [(-1, "location indices must be nonnegative, got -1"), (5, "browsing visits location 5 >= m = 3")],
    ids=["negative", "beyond-m"],
)
def test_sample_average_rejects_drawn_locations_outside_m(location, message):
    base = gen_random(3, 3, model="mnl", seed=2)
    inst = Instance(
        base.prices, base.choice_model, 3, SamplerBrowsing(lambda rng: [0, location])
    )
    plan = EstimationPlan.for_instance(inst, 0.5, 0.5, samples_override=5)
    with pytest.raises(ValueError, match=message):
        sample_average_placement(inst, brute_force_placement, plan, np.random.default_rng(0))


def test_randomized_estimation_path_with_sampler_browsing():
    base = gen_random(3, 2, model="mnl", browsing="line", seed=15)
    hidden = _sampler_twin(base)
    plan = EstimationPlan.for_instance(hidden, 0.2, 0.2, samples_override=2000)
    report = sample_average_placement(
        hidden,
        lambda inst: randomized_placement(inst, BruteForceOracle(inst), repetitions=8, seed=3),
        plan,
        np.random.default_rng(3),
    )
    assert report.w_exact is None and report.w_estimate is not None
    assert report.w_estimate.samples == 2000
    exact = evaluate_exact(base, report.placement)
    assert abs(report.w_estimate.value - exact) <= 0.2 * base.prices.max()


def test_sample_average_estimate_meets_the_plan_guarantee():
    # the winner's estimate uses draws its choice never saw, so each one is
    # within epsilon * R / m of its exact W with probability >= 1 - 2 delta
    seeds = range(24)
    hits = 0
    for s in seeds:
        family = ("mnl", "mmnl", "markov", "ranked")[s % 4]
        base = gen_random(5, 4, model=family, browsing="line", seed=200 + s)
        plan = EstimationPlan.for_instance(base, 0.2, 0.1)
        report = sample_average_placement(
            _sampler_twin(base),
            lambda inst: randomized_placement(inst, BruteForceOracle(inst), seed=s),
            plan,
            np.random.default_rng(s),
        )
        error = abs(report.w_estimate.value - evaluate_exact(base, report.placement))
        hits += error <= plan.epsilon * plan.r_star_bound / base.m
    assert hits >= (1 - 2 * plan.delta) * len(seeds)


@pytest.mark.parametrize("name", list(_EXACT_SOLVERS))
def test_exact_solvers_refuse_sampler_browsing(name):
    solve, prices = _EXACT_SOLVERS[name]
    inst = with_sampler(gen_random(3, 2, model="mnl", price_range=prices, seed=15))
    with pytest.raises(EnumerationUnsupportedError, match="use sample_average_placement"):
        solve(inst)


# ---------------------------------------------------------------------------
# uniform-price greedy


def test_uniform_greedy_single_slot_is_optimal():
    inst = gen_random(4, 1, model="ranked", price_range=(2.0, 2.0), browsing="full", seed=1)
    report = uniform_price_matroid_greedy(inst)
    assert report.w_exact == pytest.approx(
        brute_force_placement(inst).w_exact, abs=1e-12
    )


def test_uniform_greedy_full_support_reduces_to_greedy_assortment():
    inst = gen_random(5, 3, model="mnl", price_range=(1.0, 1.0), browsing="full", seed=2)
    report = uniform_price_matroid_greedy(inst)
    greedy_set = GreedyUniformOracle(inst).best_assortment(3)
    assert frozenset(report.placement) == greedy_set
    assert report.w_exact == pytest.approx(
        expected_revenue(inst.choice_model, inst.prices, greedy_set), abs=1e-12
    )


def test_uniform_greedy_half_bound_and_typical_quality():
    ratios = []
    for seed in range(20):
        family = ["mnl", "mmnl", "markov", "ranked"][seed % 4]
        inst = gen_random(
            4, 3, model=family, price_range=(1.0, 1.0), browsing="explicit", seed=seed
        )
        opt = brute_force_placement(inst).w_exact
        report = uniform_price_matroid_greedy(inst)
        assert report.w_exact >= 0.5 * opt - 1e-9
        if opt > 0:
            ratios.append(report.w_exact / opt)
    assert min(ratios) >= 1.0 - 1.0 / np.e  # observed, not guaranteed


def test_uniform_greedy_rejects_heterogeneous_prices():
    inst = gen_random(4, 2, model="mnl", price_range=(1.0, 9.0), seed=3)
    with pytest.raises(ValueError):
        uniform_price_matroid_greedy(inst)


# ---------------------------------------------------------------------------
# markov greedy


def test_markov_greedy_single_slot_is_optimal():
    inst = gen_random(4, 1, model="markov", browsing="full", seed=5)
    report = markov_deterministic_placement(inst, BruteForceOracle(inst))
    assert report.w_exact == pytest.approx(
        brute_force_placement(inst).w_exact, abs=1e-12
    )


def test_markov_greedy_is_deterministic():
    inst = gen_random(5, 3, model="markov", browsing="explicit", seed=6)
    oracle = BruteForceOracle(inst)
    a = markov_deterministic_placement(inst, oracle)
    b = markov_deterministic_placement(inst, oracle)
    assert a.placement == b.placement and a.w_exact == b.w_exact and a.k == b.k


def test_markov_greedy_bound_against_brute_force():
    for seed in range(12):
        model = "markov" if seed % 2 else "mnl"
        inst = gen_random(4, 3, model=model, browsing="explicit", seed=seed)
        opt = brute_force_placement(inst).w_exact
        report = markov_deterministic_placement(inst, BruteForceOracle(inst))
        bound = 0.5 * (1.0 - 1.0 / np.e) / max(1.0, np.log2(inst.m))
        assert report.w_exact >= bound * opt - 1e-9


def test_markov_greedy_rejects_other_models():
    inst = gen_random(4, 2, model="mmnl", seed=7)
    with pytest.raises(ValueError):
        markov_deterministic_placement(inst, BruteForceOracle(inst))


class _StubOracle(AssortmentOracle):
    """Answers every budget with one fixed set."""

    def __init__(self, instance, answer):
        super().__init__(instance)
        self.answer = answer

    def best_assortment(self, k):
        return self.answer


ORACLE_SOLVERS = [best_of_many_line, randomized_placement, markov_deterministic_placement]


@pytest.mark.parametrize(
    "bad", ["1", 1.5, True, 4, 1.0, pytest.param(np.float64(1.0), id="np.float64(1.0)"), -1]
)
@pytest.mark.parametrize("solve", ORACLE_SOLVERS)
def test_oracle_solvers_check_every_oracle_answer(solve, bad):
    # 1.0 and np.float64(1.0) hash like product 1 and still fail
    inst = gen_random(4, 3, model="markov", browsing="line", seed=7)
    match = f"oracle answer: unknown product id {re.escape(repr(bad))}"
    with pytest.raises(ValueError, match=match):
        solve(inst, _StubOracle(inst, frozenset({bad, 0})))
    # numpy integers are catalog ids
    good = solve(inst, _StubOracle(inst, frozenset({np.int64(1)})))
    assert good.placement == solve(inst, _StubOracle(inst, frozenset({1}))).placement


@pytest.mark.parametrize("solve", ORACLE_SOLVERS)
def test_oracle_solvers_reject_an_answer_over_its_budget(solve):
    inst = gen_random(4, 2, model="mnl", browsing="line", seed=7)
    with pytest.raises(ValueError, match="oracle answer: 3 ids exceed the budget k = 1"):
        solve(inst, _StubOracle(inst, frozenset({0, 1, 2})))


def _markov_greedy_cases():
    """MNL instances (exact MNL oracle) and Markov ones (brute oracle) over
    every enumerable browsing family; the MNL optima saturate below m, so
    later k repeat earlier sets."""
    for browsing in ("line", "explicit", "singleton", "full"):
        for seed in range(3):
            yield gen_random(14, 8, model="mnl", browsing=browsing, seed=seed)
            yield gen_random(6, 4, model="markov", browsing=browsing, seed=seed)
    yield gen_random(5, 5, model="mnl", price_range=(2.0, 2.0), seed=3)
    yield gen_random(6, 5, model="markov", price_range=(2.0, 2.0), seed=3)


def test_markov_greedy_matches_per_k_reference():
    for inst in _markov_greedy_cases():
        report = markov_deterministic_placement(inst, exact_oracle(inst))
        w, k, slots = reference_markov_greedy(inst, exact_oracle(inst))
        assert (report.placement, report.w_exact, report.k) == (slots, w, k)


def test_markov_greedy_runs_one_greedy_per_distinct_set(monkeypatch):
    calls = []
    real = solvers._partition_greedy

    def counted(instance, candidate_lists):
        calls.append([tuple(c) for c in candidate_lists])
        return real(instance, candidate_lists)

    monkeypatch.setattr(solvers, "_partition_greedy", counted)
    repeats = 0
    for inst in _markov_greedy_cases():
        oracle = exact_oracle(inst)
        calls.clear()
        markov_deterministic_placement(inst, oracle)
        sets = [tuple(sorted(oracle.best_assortment(k))) for k in range(1, inst.m + 1)]
        # one lockstep call over the distinct sets, in first-seen order
        assert calls == [list(dict.fromkeys(sets))]
        repeats += len(sets) - len(calls[0])
    assert repeats > 0  # the cases do repeat sets


# ---------------------------------------------------------------------------
# both greedy solvers against the per-trial reference loop


def _greedy_cases():
    """(name, instance) pairs: every model and browsing family, plus ties."""
    cases = []
    for model in ("mnl", "mmnl", "markov", "ranked"):
        for browsing in ("line", "explicit", "singleton", "full"):
            for seed, (n, m) in enumerate(((3, 2), (5, 4), (7, 5))):
                for prices in ((1.0, 10.0), (2.0, 2.0)):
                    inst = gen_random(
                        n, m, model=model, price_range=prices, browsing=browsing, seed=seed
                    )
                    cases.append((f"{model}-{browsing}-{seed}-{prices[0]}", inst))
    for m in range(1, 7):
        cases.append((f"uniform-line-{m}", gen_uniform_line(m)))
    flat = [3.0] * 5
    lines = (LineBrowsing([0.25] * 4), LineBrowsing([0.4, 0.0, 0.3, 0.0]))
    for weights in ([1.0] * 5, [0.0, 1.0, 0.0, 0.5, 1.0], [0.0] * 5):
        for browsing in lines + (full_support(4),):
            inst = Instance(flat, MnlModel(weights), 4, browsing)
            cases.append((f"flat-{weights}", inst))
    return cases


def test_greedy_solvers_match_reference_loop(monkeypatch):
    def run_both(inst):
        reports = [uniform_price_matroid_greedy(inst)] if np.ptp(inst.prices) == 0 else []
        if isinstance(inst.choice_model, (MnlModel, MarkovModel)):
            reports.append(markov_deterministic_placement(inst, exact_oracle(inst)))
        return [(r.placement, r.w_exact, r.k) for r in reports]

    ran = []

    def reference(instance, candidate_lists):
        ran.append(instance)
        ev = WEvaluator(instance)
        return [reference_partition_greedy(instance, c, ev) for c in candidate_lists]

    cases = _greedy_cases()
    fast = [run_both(inst) for _, inst in cases]
    monkeypatch.setattr(solvers, "_partition_greedy", reference)
    compared = 0
    for (name, inst), got in zip(cases, fast):
        ran.clear()
        want = run_both(inst)
        # every greedy run, markov-greedy's too, went through the reference
        assert ran == [inst] * len(want), name
        assert got == want, name
        compared += len(got)
    assert compared == 126  # 63 runs of each greedy solver


def _lockstep_lists(n, data):
    """Candidate lists of different lengths, in drawn order, plus a repeated
    list, a one-candidate list, the nested prefixes of the first list (the
    shape of markov-greedy's nearly nested oracle sets) and the last list
    reversed: the same set in another tie order, so a state it shares with
    that list must split on a tie."""
    ids = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    lists = data.draw(st.lists(ids, min_size=1, max_size=4))
    prefixes = [lists[0][:k] for k in range(1, len(lists[0]))]
    extra = [lists[0], [data.draw(st.integers(0, n - 1))], *prefixes, lists[-1][::-1]]
    return lists + extra


@pytest.mark.parametrize("browsing", ["line", "explicit", "singleton", "full"])
@pytest.mark.parametrize("model", ["mnl", "mmnl", "markov", "ranked"])
@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(
    n=st.integers(1, 6),
    m=st.integers(1, 5),
    seed=st.integers(0, 2**16),
    equal_prices=st.booleans(),
    data=st.data(),
)
def test_lockstep_greedy_matches_one_call_per_list(
    model, browsing, n, m, seed, equal_prices, data
):
    prices = (2.0, 2.0) if equal_prices else (1.0, 10.0)
    inst = gen_random(n, m, model=model, price_range=prices, browsing=browsing, seed=seed)
    lists = _lockstep_lists(n, data)
    together = solvers._partition_greedy(inst, lists)
    alone = [solvers._partition_greedy(inst, [c])[0] for c in lists]
    assert together == alone
    ev = WEvaluator(inst)
    assert together == [reference_partition_greedy(inst, c, ev) for c in lists]


def test_lockstep_greedy_folds_each_state_of_a_round_on_its_own():
    inst = gen_random(14, 8, model="mnl", browsing="line", seed=0)
    # disjoint lists: round one folds one state over all 13 candidates, and
    # no two greedies can pick alike, so round two folds four states, each
    # as wide as its list
    lists = [[0, 3, 5], [2], [1, 4, 6, 7], [8, 9, 10, 11, 12]]
    ev = WEvaluator(inst)
    want = [reference_partition_greedy(inst, c, ev) for c in lists]
    assert solvers._partition_greedy(inst, lists) == want


def test_lockstep_greedy_folds_again_after_a_zero_gain_pick_offers_a_product():
    # One visited set holds every location. After product 1, every gain of
    # round two is 0: product 0 earns list 1's 0.5 and takes 0.25 from each
    # of lists 2 and 4, and product 2 takes lists 2 and 4 at the same price.
    # The first candidate, product 0, is placed; now offered, it makes
    # product 2 worth 0.25 in round three, so that round must fold again.
    lists = [(0.25, [0]), (0.25, [0, 2, 1]), (0.25, [1, 2]), (0.25, [2, 0, 1])]
    inst = Instance([2.0, 3.0, 3.0], RankedListModel(lists, n=3), 3, full_support(3))
    candidates = [[0, 1, 2], [2, 1, 0], [1, 0, 2]]
    ev = WEvaluator(inst)
    want = [reference_partition_greedy(inst, c, ev) for c in candidates]
    assert want[0] == ((1, 0, 2), 2.5)
    assert solvers._partition_greedy(inst, candidates) == want


def test_lockstep_greedy_checks_every_greedys_first_candidate_before_finishing():
    # The instance of the test above. Products 1 and 2 tie at R = 2.25 alone,
    # above product 0, and both lists name 1 before 2: the two greedies share
    # round one, placing product 1 at location 0.
    lists = [(0.25, [0]), (0.25, [0, 2, 1]), (0.25, [1, 2]), (0.25, [2, 0, 1])]
    inst = Instance([2.0, 3.0, 3.0], RankedListModel(lists, n=3), 3, full_support(3))
    ev = WEvaluator(inst)
    assert ev.revenue({1}) == ev.revenue({2}) == 2.25 > ev.revenue({0})
    # Every round-two gain is 0. The lead's first candidate, product 1, is
    # offered already, but the other greedy's, product 0, is not: placing it
    # makes product 2 worth 0.25 in round three, so the state must not finish.
    assert ev.revenue({0, 1}) == ev.revenue({1, 2}) == 2.25 < ev.revenue({0, 1, 2})
    candidates = [[1, 0, 2], [0, 1, 2]]
    want = [reference_partition_greedy(inst, c, ev) for c in candidates]
    assert want == [((1, 1, 1), 2.25), ((1, 0, 2), 2.5)]
    assert solvers._partition_greedy(inst, candidates) == want


@pytest.mark.parametrize(
    "prices, weights, last",
    [
        ([4.0, 6.0, 5.0], [1.0, 0.5, 2.0], (2, 0, 0, 0)),
        ([1.0, 6.0, 5.0], [5.0, 0.5, 2.0], (2, 2, 0, 0)),
    ],
)
def test_lockstep_greedy_finishes_over_locations_no_customer_visits(prices, weights, last):
    # No visited set holds location 2 or 3, so every gain there is 0. On the
    # first instance each greedy fills 0 and 1, then finishes with its first
    # candidate at both. On the second, product 0 at location 1 loses revenue,
    # so list [0, 2] places it at the unvisited locations before filling 1.
    browsing = ExplicitBrowsing([([0], 0.5), ([0, 1], 0.5)])
    inst = Instance(prices, MnlModel(weights), 4, browsing)
    lists = [[0, 1, 2], [2, 1], [1], [1, 0], [0, 2]]
    ev = WEvaluator(inst)
    want = [reference_partition_greedy(inst, c, ev) for c in lists]
    assert solvers._partition_greedy(inst, lists) == want
    assert want[0][0] == (2, 1, 0, 0)
    assert want[4][0] == last


def test_lockstep_greedy_subtracts_each_states_own_current():
    # Greedy 0 offers only product 0, worth R({0}) = 1300/101, about 12.9.
    # Greedies 1-3 all put product 1 first, worth R({1}) = 3.0, and share a
    # state; in round two it folds next to greedy 0's. There product 2,
    # priced 9 ulps above 3.0, gains R({1, 2}) - R({1}) = 3 ulps of 3.0,
    # just above the 1e-15 tie margin, over product 1's exact 0. Measured
    # from greedy 0's current instead, both gains sit near -9.9, where an
    # ulp is 1.8e-15, and the margin would swallow product 2's lead.
    inst = Instance([13.0, 6.0, 3.000000000000004], MnlModel([100.0, 1.0, 1.0]), 2, full_support(2))
    ev = WEvaluator(inst)
    assert 1e-15 < ev.revenue({1, 2}) - ev.revenue({1}) < 2e-15
    far = ev.revenue({0})
    assert not ev.revenue({1, 2}) - far > ev.revenue({1}) - far + 1e-15
    # greedy 2 scans the same set in the other order, and greedy 3 offers a
    # prefix of it: it shares the first pick, then splits off
    lists = [[0], [1, 2], [2, 1], [1]]
    got = solvers._partition_greedy(inst, lists)
    assert got == [reference_partition_greedy(inst, c, ev) for c in lists]
    assert [slots for slots, _ in got] == [(0, 0), (1, 2), (1, 2), (1, 1)]


@pytest.mark.parametrize("browsing", [LineBrowsing([0.5, 0.5]), full_support(2)])
def test_partition_greedy_keeps_the_earlier_of_near_tied_candidates(browsing):
    # prices one ulp apart under equal weights: product 1 leads product 0 by
    # under the 1e-15 tie margin, so whichever a list names first goes first
    inst = Instance([2.0, nextafter(2.0, 3.0)], MnlModel([1.0, 1.0]), 2, browsing)
    ev = WEvaluator(inst)
    assert 0.0 < ev.revenue({1}) - ev.revenue({0}) < 1e-15
    lists = [[0, 1], [1, 0], [1]]
    got = solvers._partition_greedy(inst, lists)
    assert got == [reference_partition_greedy(inst, c, ev) for c in lists]
    assert [slots for slots, _ in got] == [(0, 1), (1, 0), (1, 1)]


def test_greedy_tie_rule_lower_product_then_lower_location():
    # interchangeable products: every first pick ties, so product 0 goes to
    # location 0, then product 1 to location 1, and so on
    for m in range(1, 7):
        inst = gen_uniform_line(m)
        assert uniform_price_matroid_greedy(inst).placement == tuple(range(m))
    # only location 0 is ever seen: every product ties there, and every
    # later pick gains exactly 0, so product 0 fills each location in turn
    inst = Instance([3.0] * 4, MnlModel([1.0] * 4), 3, LineBrowsing([1.0, 0.0, 0.0]))
    assert uniform_price_matroid_greedy(inst).placement == (0, 0, 0)


# ---------------------------------------------------------------------------
# structural properties


def test_adding_priciest_product_never_hurts():
    for idx, family in enumerate(["mnl", "mmnl", "markov", "ranked"]):
        inst = gen_random(6, 2, model=family, seed=30 + idx)
        star = inst.i_star
        others = [i for i in range(6) if i != star]
        for mask in range(2 ** len(others)):
            subset = [others[t] for t in range(len(others)) if mask >> t & 1]
            base = expected_revenue(inst.choice_model, inst.prices, subset)
            grown = expected_revenue(
                inst.choice_model, inst.prices, subset + [star]
            )
            assert grown >= base - 1e-9


def test_pair_objective_monotone_submodular_with_uniform_prices():
    inst = gen_random(3, 2, model="mnl", price_range=(1.0, 1.0), browsing="explicit", seed=8)
    assert check_pair_objective_properties(inst) == []


def test_pair_objective_guard():
    inst = gen_random(1, 19, model="mnl", browsing="line", seed=0)
    with pytest.raises(SizeGuardError, match=r"2\^19 subsets"):
        pair_objective_values(inst)
    with pytest.raises(SizeGuardError):
        check_pair_objective_properties(inst)


def test_pair_objective_checker_flags_nonuniform_counterexample():
    # a cheap very popular product makes revenue non-monotone, which the
    # lattice checker must report
    inst = Instance(
        [10.0, 1.0],
        MnlModel([1.0, 10.0]),
        1,
        full_support(1),
    )
    assert check_pair_objective_properties(inst) != []


def test_restricted_revenue_checker_rejects_ids_outside_the_catalog():
    inst = gen_random(3, 2, model="markov", seed=0)
    for members in ([0, inst.n], [EMPTY_SLOT, 1]):
        with pytest.raises(ValueError, match="catalog ids"):
            check_restricted_revenue_properties(inst, members)


@pytest.mark.parametrize("bad", ["1", 1.5, True], ids=["quoted", "fraction", "bool"])
def test_non_integer_ids_raise_value_error_naming_them(bad):
    inst = gen_random(3, 3, model="mnl", browsing="full", seed=2)
    plan = EstimationPlan.for_instance(inst, 0.5, 0.5, samples_override=10)
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        estimate_w(inst, (bad, 0, 0), plan, np.random.default_rng(0))
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        check_restricted_revenue_properties(inst, [bad])


@pytest.mark.parametrize(
    "build, error, message",
    [
        (
            lambda inst: randomized_placement(inst, BruteForceOracle(inst), repetitions=0),
            ValueError,
            "need at least one repetition",
        ),
        (
            lambda inst: randomized_placement(inst, BruteForceOracle(inst), repetitions=True),
            ValueError,
            re.escape("repetitions must be a positive integer, got True"),
        ),
        (
            lambda inst: randomized_placement(inst, BruteForceOracle(inst), repetitions=2.0),
            ValueError,
            re.escape("repetitions must be a positive integer, got 2.0"),
        ),
        (
            lambda inst: randomized_placement(inst, BruteForceOracle(inst), repetitions=2.5),
            ValueError,
            re.escape("repetitions must be a positive integer, got 2.5"),
        ),
        (
            lambda inst: randomized_placement(inst, BruteForceOracle(inst), repetitions='2'),
            ValueError,
            re.escape("repetitions must be a positive integer, got '2'"),
        ),
        *[
            (
                lambda inst, guard=guard: brute_force_placement(inst, guard=guard),
                ValueError,
                re.escape(f"guard must be a nonnegative integer, got {guard!r}"),
            )
            for guard in (2.5, "9", True, -1)
        ],
        *[
            (
                lambda inst, trials=trials: check_weak_rationality(
                    inst.choice_model, trials=trials
                ),
                ValueError,
                re.escape(f"trials must be None or an integer of at least 1, got {trials!r}"),
            )
            for trials in (0, -3, True, 2.5)
        ],
        (
            lambda inst: check_restricted_revenue_properties(inst, range(17)),
            SizeGuardError,
            "capped at 16 members",
        ),
        (
            lambda inst: SolveReport("brute-force", (0, EMPTY_SLOT), 1.0, None, 1, 0, 0),
            ValueError,
            "may not contain empty slots",
        ),
    ],
    ids=[
        "no-repetitions",
        "bool-repetitions",
        "integral-float-repetitions",
        "fraction-repetitions",
        "quoted-repetitions",
        "fraction-guard",
        "quoted-guard",
        "bool-guard",
        "negative-guard",
        "zero-trials",
        "negative-trials",
        "bool-trials",
        "fraction-trials",
        "restricted-check-17-members",
        "report-with-empty-slot",
    ],
)
def test_solver_boundaries_reject_bad_input(build, error, message):
    with pytest.raises(error, match=message):
        build(gen_random(18, 2, model="mnl", seed=0))


def test_restricted_revenue_checker_flags_same_counterexample():
    inst = Instance(
        [10.0, 1.0],
        MnlModel([1.0, 10.0]),
        1,
        full_support(1),
    )
    assert check_restricted_revenue_properties(inst, [0, 1]) != []


def test_lattice_walker_flags_supermodular_but_monotone_table():
    # f(empty) = f({a}) = f({b}) = 0, f({a, b}) = 1: monotone, gains grow
    assert _lattice_violations([0.0, 0.0, 0.0, 1.0], ["a", "b"], 1e-9) == [
        "submodularity: U 0 within V 1, b",
        "submodularity: U 0 within V 2, a",
    ]


def test_lattice_walker_flags_non_monotone_table():
    # adding either element to the other loses value; gains still shrink
    assert _lattice_violations([0.0, 1.0, 1.0, 0.5], ["a", "b"], 1e-9) == [
        "monotonicity: mask 1 + b",
        "monotonicity: mask 2 + a",
    ]


def test_restricted_revenue_properties_hold_on_oracle_assortments():
    for seed in range(6):
        inst = gen_random(5, 3, model="markov", browsing="explicit", seed=40 + seed)
        oracle = BruteForceOracle(inst)
        for k in range(1, 4):
            members = oracle.best_assortment(k)
            assert check_restricted_revenue_properties(inst, members) == []


# ---------------------------------------------------------------------------
# reports


def test_solve_report_shape_and_serialization():
    inst = gen_random(3, 2, model="mnl", browsing="line", seed=50)
    report = best_of_many_line(inst, BruteForceOracle(inst), seed=9)
    data = report.to_dict()
    assert set(data) == {
        "algorithm",
        "placement",
        "w_exact",
        "w_estimate",
        "k",
        "seed",
        "ms",
    }
    assert data["seed"] == 9
    assert data["w_estimate"] is None
    assert all(0 <= i < inst.n for i in data["placement"])
    with pytest.raises(ValueError):
        SolveReport("x", (0,), None, None, None, 0, 0)


def test_solve_report_json_is_frozen():
    exact = SolveReport("markov-greedy", (2, 0, 2), 1.25, None, 3, 7, 12)
    assert json.dumps(exact.to_dict()) == (
        '{"algorithm": "markov-greedy", "placement": [2, 0, 2], "w_exact": 1.25, '
        '"w_estimate": null, "k": 3, "seed": 7, "ms": 12}'
    )
    estimate = WEstimate(0.5, 0.01, 0.05, 18445)
    estimated = SolveReport("randomized", (1,), None, estimate, 1, 0, 4)
    assert json.dumps(estimated.to_dict()) == (
        '{"algorithm": "randomized", "placement": [1], "w_exact": null, '
        '"w_estimate": {"value": 0.5, "epsilon": 0.01, "delta": 0.05, '
        '"samples": 18445}, "k": 1, "seed": 0, "ms": 4}'
    )


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    model=st.sampled_from(["mnl", "mmnl", "markov", "ranked"]),
    browsing=st.sampled_from(["line", "explicit", "singleton", "full"]),
    n=st.integers(1, 5),
    m=st.integers(1, 4),
    uniform=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_solver_reports_the_exact_value_of_its_placement(
    model, browsing, n, m, uniform, seed
):
    prices = (2.0, 2.0) if uniform else (1.0, 10.0)
    inst = gen_random(n, m, model=model, price_range=prices, browsing=browsing, seed=seed)
    oracle = exact_oracle(inst)
    reports = [
        brute_force_placement(inst),
        randomized_placement(inst, oracle, repetitions=4, seed=seed),
    ]
    if browsing == "line":
        reports.append(best_of_many_line(inst, oracle))
    if uniform:
        reports.append(uniform_price_matroid_greedy(inst))
    if model in ("mnl", "markov"):
        reports.append(markov_deterministic_placement(inst, oracle))
    for report in reports:
        assert report.w_exact == evaluate_exact(inst, report.placement), report.algorithm


def test_more_locations_than_products():
    # budgets past n get at most n catalog ids, and placements hold only those
    inst = gen_random(2, 4, model="mnl", browsing="line", seed=99)
    oracle = BruteForceOracle(inst)
    for k in range(1, inst.m + 1):
        assert oracle.best_assortment(k) <= frozenset(range(inst.n)), k
    for report in [
        best_of_many_line(inst, oracle),
        randomized_placement(inst, oracle, repetitions=16, seed=1),
        markov_deterministic_placement(inst, oracle),
        brute_force_placement(inst),
    ]:
        assert all(0 <= i < inst.n for i in report.placement)
        assert report.w_exact <= brute_force_placement(inst).w_exact + 1e-12
