import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placement_opt import (
    EstimationPlan,
    ExplicitBrowsing,
    Instance,
    LineBrowsing,
    SamplerBrowsing,
    brute_force_placement,
    estimate_w,
    evaluate_exact,
    expected_revenue,
    gen_random,
    randomized_placement,
    sample_average_placement,
    sample_size,
    substream,
)
from placement_opt import estimation, solvers
from placement_opt.oracle import BruteForceOracle

from helpers import reference_estimate_w, with_sampler


def test_sample_size_known_values():
    # m^2 ln(1/delta) / (2 eps^2): 100 * ln 20 / 0.02 = 14978.66..
    assert sample_size(10, 0.1, 0.05) == 14979
    assert sample_size(1, 1.0, math.exp(-2.0)) == 1


def test_sample_size_monotonicity():
    assert sample_size(4, 0.1, 0.1) >= sample_size(4, 0.2, 0.1)
    assert sample_size(4, 0.1, 0.05) >= sample_size(4, 0.1, 0.1)
    assert sample_size(8, 0.1, 0.1) >= sample_size(4, 0.1, 0.1)
    # quartering when epsilon doubles (up to rounding)
    assert sample_size(6, 0.1, 0.1) >= 3.9 * sample_size(6, 0.2, 0.1)


def test_sample_size_domain_errors():
    for eps, delta in [(0.0, 0.5), (1.5, 0.5), (0.5, 0.0), (0.5, 1.5)]:
        with pytest.raises(ValueError):
            sample_size(3, eps, delta)
    with pytest.raises(ValueError):
        sample_size(0, 0.5, 0.5)


def test_plan_validation_and_override():
    inst = gen_random(3, 4, model="mnl", seed=0)
    plan = EstimationPlan.for_instance(inst, 0.2, 0.1)
    assert plan.samples == sample_size(4, 0.2, 0.1)
    assert plan.r_star_bound == pytest.approx(inst.prices.max())
    override = EstimationPlan.for_instance(inst, 0.2, 0.1, samples_override=17)
    assert override.samples == 17
    with pytest.raises(ValueError):
        EstimationPlan(0.2, 0.1, 0, 1.0)
    numpy_count = EstimationPlan(0.2, 0.1, np.int64(5), 1.0)
    assert estimate_w(inst, (0, 1, 2, 0), numpy_count, np.random.default_rng(0))[1] == 5


def test_estimate_rejects_ids_outside_catalog():
    inst = gen_random(5, 3, model="mnl", seed=2)
    plan = EstimationPlan.for_instance(inst, 0.5, 0.5, samples_override=10)
    for slots in [(99, -7, 42), (0, 1, 5), (-1, 0, 0)]:
        with pytest.raises(ValueError):
            estimate_w(inst, slots, plan, np.random.default_rng(0))


@pytest.mark.parametrize("location", [-1, 3])
def test_estimate_rejects_drawn_locations_outside_m(location):
    inst = gen_random(5, 3, model="mnl", seed=2)
    inst = Instance(
        inst.prices, inst.choice_model, 3, SamplerBrowsing(lambda rng: [0, location])
    )
    plan = EstimationPlan.for_instance(inst, 0.5, 0.5, samples_override=10)
    with pytest.raises(ValueError, match=rf"locations \[{location}\] outside \[0, 3\)"):
        estimate_w(inst, (0, 1, 2), plan, np.random.default_rng(0))


def test_estimate_names_the_first_bad_set_in_draw_order():
    inst = gen_random(5, 3, model="mnl", seed=2)
    draws = itertools.cycle([[0], [0, 5], [0, -1]])
    inst = Instance(
        inst.prices, inst.choice_model, 3, SamplerBrowsing(lambda rng: next(draws))
    )
    plan = EstimationPlan.for_instance(inst, 0.5, 0.5, samples_override=3)
    with pytest.raises(ValueError, match=r"locations \[5\] outside \[0, 3\)"):
        estimate_w(inst, (0, 1, 2), plan, np.random.default_rng(0))


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda inst: estimate_w(
                inst, (0, 1), EstimationPlan(0.5, 0.5, 10, 1.0), np.random.default_rng(0)
            ),
            "placement must fill 3 slots",
        ),
        (lambda inst: EstimationPlan(0.0, 0.1, 10, 1.0), r"epsilon and delta must lie in \(0, 1\]"),
        (lambda inst: EstimationPlan(0.5, 0.5, 2.5, 1.0), r"samples must be an integer.*2\.5"),
        (lambda inst: EstimationPlan(0.5, 0.5, np.float64(3.0), 1.0), "samples must be an integer"),
        (lambda inst: EstimationPlan(0.5, 0.5, True, 1.0), "samples must be an integer.*True"),
        (lambda inst: EstimationPlan(0.5, 0.5, "5", 1.0), "samples must be an integer.*'5'"),
        (lambda inst: EstimationPlan(0.5, 0.5, 10, float("nan")), "r_star_bound .*nan"),
        (lambda inst: EstimationPlan(0.5, 0.5, 10, -1.0), "r_star_bound .*-1.0"),
        (lambda inst: EstimationPlan(0.5, 0.5, 10, float("inf")), "r_star_bound .*inf"),
    ],
    ids=[
        "short-placement",
        "zero-epsilon",
        "fraction-samples",
        "integral-float-samples",
        "bool-samples",
        "quoted-samples",
        "nan-r-star",
        "negative-r-star",
        "infinite-r-star",
    ],
)
def test_estimation_rejects_bad_plans_and_placements(build, message):
    with pytest.raises(ValueError, match=message):
        build(gen_random(5, 3, model="mnl", seed=2))


def test_point_mass_browsing_estimates_exactly():
    inst = gen_random(3, 2, model="mnl", browsing="full", seed=1)
    plan = EstimationPlan.for_instance(inst, 1.0, 1.0, samples_override=3)
    truth = evaluate_exact(inst, (0, 2))
    est, used = estimate_w(inst, (0, 2), plan, np.random.default_rng(0))
    assert used == 3
    assert est == pytest.approx(truth, abs=0.0)


def test_estimate_converges_within_three_sigma():
    inst = gen_random(2, 2, model="mnl", browsing="line", seed=2)
    slots = (0, 1)
    truth = evaluate_exact(inst, slots)
    support = inst.browsing.support()
    values = np.array(
        [
            expected_revenue(inst.choice_model, inst.prices, {slots[j] for j in s})
            for s, _ in support
        ]
    )
    probs = np.array([p for _, p in support])
    sigma = math.sqrt(float(probs @ (values - truth) ** 2))
    t = 100_000
    plan = EstimationPlan.for_instance(inst, 1.0, 1.0, samples_override=t)
    est, _ = estimate_w(inst, slots, plan, np.random.default_rng(3))
    assert abs(est - truth) <= 3.0 * sigma / math.sqrt(t)


def test_estimator_is_unbiased_across_runs():
    inst = gen_random(3, 2, model="mmnl", browsing="line", seed=4)
    slots = (1, 2)
    truth = evaluate_exact(inst, slots)
    plan = EstimationPlan.for_instance(inst, 1.0, 1.0, samples_override=50)
    rng = np.random.default_rng(5)
    runs = np.array([estimate_w(inst, slots, plan, rng)[0] for _ in range(200)])
    stderr = runs.std(ddof=1) / math.sqrt(len(runs))
    assert abs(runs.mean() - truth) <= 3.0 * max(stderr, 1e-12)


def test_estimates_stay_in_price_range():
    inst = gen_random(4, 3, model="ranked", browsing="explicit", seed=6)
    plan = EstimationPlan.for_instance(inst, 1.0, 1.0, samples_override=200)
    rng = np.random.default_rng(7)
    for _ in range(20):
        est, _ = estimate_w(inst, (0, 1, 2), plan, rng)
        assert 0.0 <= est <= inst.prices.max() + 1e-12


def test_estimate_replay_determinism():
    inst = gen_random(3, 3, model="markov", browsing="line", seed=8)
    plan = EstimationPlan.for_instance(inst, 0.5, 0.5)
    a, _ = estimate_w(inst, (0, 1, 2), plan, substream(9, "estimation"))
    b, _ = estimate_w(inst, (0, 1, 2), plan, substream(9, "estimation"))
    assert a == b


def test_coverage_meets_hoeffding_guarantee():
    inst = gen_random(3, 3, model="mnl", browsing="line", seed=10)
    opt = brute_force_placement(inst).w_exact
    slots = brute_force_placement(inst).placement
    truth = evaluate_exact(inst, slots)
    plan = EstimationPlan.for_instance(inst, 0.2, 0.1)
    rng = np.random.default_rng(11)
    hits = sum(
        abs(estimate_w(inst, slots, plan, rng)[0] - truth) <= 0.2 * opt
        for _ in range(50)
    )
    assert hits >= 40  # guarantee is 1 - 2*delta = 80%


# ---------------------------------------------------------------------------
# block draws == one draw per sample, bit for bit


def _estimation_cases():
    """(name, instance, placement, seed) over every model x browsing family."""
    families = itertools.product(
        ("mnl", "mmnl", "markov", "ranked"), ("line", "explicit", "singleton", "sampler")
    )
    for seed, (model, browsing) in enumerate(families):
        if browsing == "sampler":
            inst = with_sampler(gen_random(5, 4, model=model, seed=seed))
        else:
            inst = gen_random(5, 4, model=model, browsing=browsing, seed=seed)
        slots = tuple(int(i) for i in np.random.default_rng(seed).integers(0, 5, 4))
        yield f"{model}-{browsing}", inst, slots, seed


def _large_support_instance():
    """MMNL instance whose explicit browsing has 3,000 visited sets, so block
    draws look up 2**16 guide-table bins, about 4.5% of them split."""
    base = gen_random(6, 12, model="mmnl", seed=60)
    rng = np.random.default_rng(61)
    masks = rng.choice(2**12, size=3000, replace=False)
    probs = rng.dirichlet(np.ones(3000))
    browsing = ExplicitBrowsing(
        [([j for j in range(12) if mask >> j & 1], float(p)) for mask, p in zip(masks, probs)]
    )
    return Instance(base.prices, base.choice_model, 12, browsing)


_LARGE_SLOTS = (0, 3, 5, 3, 1, 2, 4, 0, 5, 1, 2, 3)


def _assert_estimates_match_reference(inst, slots, counts, seed):
    for samples in counts:
        plan = EstimationPlan.for_instance(inst, 0.5, 0.5, samples_override=samples)
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        assert estimate_w(inst, slots, plan, fast) == reference_estimate_w(
            inst, slots, plan, slow
        ), samples
        assert fast.bit_generator.state == slow.bit_generator.state, samples


def test_estimate_matches_per_draw_loop_across_block_edges(monkeypatch):
    monkeypatch.setattr(estimation, "_CELLS", 7)
    for _, inst, slots, seed in _estimation_cases():
        _assert_estimates_match_reference(inst, slots, (1, 6, 7, 8, 15), seed)
    _assert_estimates_match_reference(
        _large_support_instance(), _LARGE_SLOTS, (1, 6, 7, 8, 15, 700), seed=62
    )


def test_estimate_scores_each_product_set_once_per_block(monkeypatch):
    base = gen_random(4, 4, model="mnl", seed=5)
    inst = Instance(base.prices, base.choice_model, 4, LineBrowsing([0.25] * 4))
    # the four line prefixes offer two product sets: {0} and, three times, {0, 1}
    slots = (0, 1, 0, 1)
    scored = []

    def spy(model, prices, ids):
        scored.append(ids)
        return expected_revenue(model, prices, ids)

    monkeypatch.setattr(estimation, "expected_revenue", spy)
    plan = EstimationPlan.for_instance(inst, 0.5, 0.5, samples_override=2000)
    value = estimate_w(inst, slots, plan, np.random.default_rng(3))
    assert sorted(scored) == [(0,), (0, 1)]
    assert value == reference_estimate_w(inst, slots, plan, np.random.default_rng(3))


def test_estimate_draws_cells_sets_a_block(monkeypatch):
    monkeypatch.setattr(estimation, "_CELLS", 7)
    inst = gen_random(4, 3, model="mnl", browsing="line", seed=5)
    sizes, sample = [], inst.browsing.sample

    def spy(rng, size=None):
        sizes.append(size)
        return sample(rng, size)

    monkeypatch.setattr(inst.browsing, "sample", spy)
    plan = EstimationPlan.for_instance(inst, 0.5, 0.5, samples_override=15)
    estimate_w(inst, (0, 1, 2), plan, np.random.default_rng(0))
    assert sizes == [7, 7, 1]


def test_estimate_matches_per_draw_loop_at_the_real_block_size():
    block = estimation._CELLS
    for browsing in ("line", "explicit"):
        inst = gen_random(6, 5, model="mmnl", browsing=browsing, seed=41)
        _assert_estimates_match_reference(
            inst, (0, 3, 5, 3, 1), (1, block - 1, block, block + 1), seed=42
        )
    _assert_estimates_match_reference(
        _large_support_instance(), _LARGE_SLOTS, (1, block - 1, block, block + 1), seed=63
    )


@st.composite
def _block_case(draw):
    """(instance, placement) on line, explicit or sampler browsing.

    At most three products over up to five slots, so distinct visited sets
    often hold the same products.
    """
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    model = draw(st.sampled_from(("mnl", "mmnl", "markov", "ranked")))
    browsing = draw(st.sampled_from(("line", "explicit", "sampler")))
    seed = draw(st.integers(0, 2**16))
    if browsing == "sampler":
        inst = with_sampler(gen_random(n, m, model=model, seed=seed))
    else:
        inst = gen_random(n, m, model=model, browsing=browsing, seed=seed)
    slots = tuple(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)))
    return inst, slots


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    case=_block_case(),
    block=st.integers(1, 9),
    blocks=st.integers(0, 3),
    edge=st.integers(-1, 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_estimate_matches_per_draw_loop_property(case, block, blocks, edge, seed):
    inst, slots = case
    samples = max(1, block * blocks + edge)
    with mock.patch.object(estimation, "_CELLS", block):
        _assert_estimates_match_reference(inst, slots, (samples,), seed)


def test_randomized_on_sampler_browsing_matches_per_draw_loop(monkeypatch):
    monkeypatch.setattr(estimation, "_CELLS", 7)
    for model in ("mnl", "mmnl", "markov", "ranked"):
        inst = with_sampler(gen_random(4, 3, model=model, seed=50))
        plan = EstimationPlan.for_instance(inst, 0.5, 0.5, samples_override=30)
        runs = []
        for loop in (estimate_w, reference_estimate_w):
            monkeypatch.setattr(solvers, "estimate_w", loop)
            rng = np.random.default_rng(51)
            report = sample_average_placement(
                inst,
                lambda i: randomized_placement(i, BruteForceOracle(i), repetitions=4, seed=52),
                plan,
                rng,
            )
            runs.append(
                (
                    report.algorithm,
                    report.placement,
                    report.w_estimate,
                    report.k,
                    report.seed,
                    rng.bit_generator.state,
                )
            )
        assert runs[0] == runs[1], model
