import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placement_opt import (
    BruteForceOracle,
    GreedyUniformOracle,
    evaluate_exact,
    expected_revenue,
    from_json,
    gen_coverage_mmnl,
    gen_first_slot_only,
    gen_heavy_tail_line,
    gen_random,
    gen_uniform_line,
    heavy_tail_single_id,
    heavy_tail_single_placement,
    heavy_tail_tier_ids,
    heavy_tail_tier_placement,
    to_json,
)
from placement_opt.choice import check_weak_rationality


# ---------------------------------------------------------------------------
# first-slot-only tradeoff family


def test_first_slot_only_gap_values():
    inst = gen_first_slot_only(4)
    w_pricey = evaluate_exact(inst, (0,) * 4)
    w_popular = evaluate_exact(inst, (4, 0, 0, 0))
    assert w_pricey == pytest.approx(4.0 / 5.0, abs=1e-12)
    assert w_popular == pytest.approx(1.0, abs=1e-12)
    assert w_popular / w_pricey == pytest.approx(1.25, abs=1e-12)


def test_first_slot_only_small_k_prefers_pricey_block():
    inst = gen_first_slot_only(1)
    assert evaluate_exact(inst, (0,)) == pytest.approx(0.5)
    assert evaluate_exact(inst, (1,)) == pytest.approx(0.25)


def test_first_slot_only_large_k_shows_linear_gap():
    inst = gen_first_slot_only(100)
    w_pricey = evaluate_exact(inst, (0,) * 100)
    w_popular = evaluate_exact(inst, (100,) + (0,) * 99)
    assert w_pricey == pytest.approx(100.0 / 101.0, abs=1e-9)
    assert w_popular == pytest.approx(25.0, abs=1e-9)


def test_first_slot_only_validation():
    with pytest.raises(ValueError):
        gen_first_slot_only(0)


# ---------------------------------------------------------------------------
# uniform line family


def test_uniform_line_identity_value():
    inst = gen_uniform_line(4)
    # (1/m) * sum_j j/(1 + j/m): prefix j offers j products of weight 1/m
    # and price m, so each prefix is worth j/(1 + j/m)
    manual = sum(j / (1.0 + j / 4.0) for j in range(1, 5)) / 4.0
    assert evaluate_exact(inst, (0, 1, 2, 3)) == pytest.approx(manual, abs=1e-12)
    assert manual >= (4 + 1) / 4.0


def test_uniform_line_single_location():
    inst = gen_uniform_line(1)
    assert evaluate_exact(inst, (0,)) == pytest.approx(0.5)


def test_uniform_line_validation():
    with pytest.raises(ValueError, match="m must be at least 1"):
        gen_uniform_line(0)


def test_uniform_line_prefix_placement_upper_bound():
    # filling only the first k slots (rest repeating one of them) caps the
    # value at (k(k+1)/2 + (m-k)k) / m
    m, k = 16, 4
    inst = gen_uniform_line(m)
    slots = tuple(range(k)) + (k - 1,) * (m - k)
    bound = (k * (k + 1) / 2.0 + (m - k) * k) / m
    assert evaluate_exact(inst, slots) <= bound + 1e-12


# ---------------------------------------------------------------------------
# heavy-tail line family


def test_heavy_tail_catalog_shape():
    m = 6
    inst = gen_heavy_tail_line(m, 1.0)
    assert inst.n == m * (m + 1) // 2 + (m - 1)
    theta = inst.browsing.theta
    assert theta.sum() == pytest.approx(1.0, abs=1e-9)
    assert all(theta[j] > theta[j + 1] for j in range(m - 1))


def test_heavy_tail_single_weight_value():
    inst = gen_heavy_tail_line(4, 1.0)
    u2 = inst.choice_model.weights[heavy_tail_single_id(4, 2)]
    assert u2 == pytest.approx(1.0 / (2.0 * math.log(2.0) ** 2), abs=1e-15)


def test_heavy_tail_tier_revenue_closed_form():
    for m, eps in [(4, 1.0), (5, 0.5)]:
        inst = gen_heavy_tail_line(m, eps)
        for k in range(1, m + 1):
            rev = expected_revenue(
                inst.choice_model, inst.prices, heavy_tail_tier_ids(k)
            )
            closed = eps / (1.0 + eps) * (k / eps) ** (1.0 / (1.0 + eps))
            assert rev == pytest.approx(closed, abs=1e-9)


def test_heavy_tail_brute_force_confirms_tier_optimality():
    inst = gen_heavy_tail_line(4, 1.0)
    oracle = BruteForceOracle(inst)
    for k in range(1, 5):
        assert oracle.best_assortment(k) == frozenset(heavy_tail_tier_ids(k))


def test_heavy_tail_placement_helpers():
    m = 5
    placement = heavy_tail_single_placement(m)
    assert len(placement) == m
    assert placement[0] == placement[1] == heavy_tail_single_id(m, 2)
    tier = heavy_tail_tier_placement(m, 3)
    assert len(tier) == m
    assert set(tier[:3]) == set(heavy_tail_tier_ids(3))
    assert tier[3] == tier[4] == tier[2]


def test_heavy_tail_validation():
    with pytest.raises(ValueError):
        gen_heavy_tail_line(1, 1.0)
    with pytest.raises(ValueError):
        gen_heavy_tail_line(4, 0.0)
    # a weight or price would overflow, divide by zero or come out NaN
    for epsilon in (math.inf, 1e300, 1e-320, math.nan):
        with pytest.raises(ValueError, match="zero or non-finite weight or price"):
            gen_heavy_tail_line(3, epsilon)
    with pytest.raises(ValueError):
        heavy_tail_single_id(4, 1)


# ---------------------------------------------------------------------------
# coverage family


def test_coverage_single_covering_set():
    inst = gen_coverage_mmnl([[0, 1, 2]], universe=3, cardinality=1, epsilon=0.5)
    rev = expected_revenue(inst.choice_model, inst.prices, [0])
    assert rev == pytest.approx(0.5, abs=1e-12)  # M = 1, every type covered


def test_coverage_disjoint_sets_are_additive():
    inst = gen_coverage_mmnl(
        [[0, 1], [2], [3, 4, 5]], universe=6, cardinality=3, epsilon=0.5
    )
    singles = [
        expected_revenue(inst.choice_model, inst.prices, [i]) for i in range(3)
    ]
    combined = expected_revenue(inst.choice_model, inst.prices, [0, 1, 2])
    assert combined == pytest.approx(sum(singles), abs=1e-12)


def test_coverage_overlap_keeps_per_element_revenue_bounded():
    inst = gen_coverage_mmnl([[0], [0]], universe=1, cardinality=2, epsilon=0.25)
    big = 1.0 / 0.25 - 1.0
    rev = expected_revenue(inst.choice_model, inst.prices, [0, 1])
    assert big / (1.0 + big) <= rev <= 1.0
    assert rev == pytest.approx(2 * big / (1 + 2 * big), abs=1e-12)


def test_coverage_formula_matches_direct_model_evaluation():
    rng = np.random.default_rng(21)
    for _ in range(20):
        q = int(rng.integers(2, 7))
        n = int(rng.integers(2, 6))
        sets = [
            [int(e) for e in rng.choice(q, size=int(rng.integers(1, q + 1)), replace=False)]
            for _ in range(n)
        ]
        k = int(rng.integers(1, n + 1))
        eps = float(rng.uniform(0.1, 0.9))
        inst = gen_coverage_mmnl(sets, q, k, eps)
        chosen = [int(i) for i in rng.choice(n, size=k, replace=False)]
        big = 1.0 / eps - 1.0
        formula = 0.0
        for element in range(q):
            gamma = sum(1 for i in chosen if element in set(sets[i]))
            if gamma:
                formula += gamma * big / (1.0 + gamma * big)
        formula /= q
        direct = expected_revenue(inst.choice_model, inst.prices, chosen)
        assert direct == pytest.approx(formula, abs=1e-12)


def test_coverage_validation():
    with pytest.raises(ValueError):
        gen_coverage_mmnl([[0]], universe=0, cardinality=1, epsilon=0.5)
    with pytest.raises(ValueError):
        gen_coverage_mmnl([], universe=2, cardinality=1, epsilon=0.5)
    with pytest.raises(ValueError):
        gen_coverage_mmnl([[0]], universe=1, cardinality=2, epsilon=0.5)
    with pytest.raises(ValueError):
        gen_coverage_mmnl([[0]], universe=1, cardinality=1, epsilon=1.5)
    with pytest.raises(ValueError):
        gen_coverage_mmnl([[5]], universe=2, cardinality=1, epsilon=0.5)


@pytest.mark.parametrize(
    "sets", [[1], [None], [[0.5]], [["1"]], [[True]], [[0, None]], 3, "[[0]]"]
)
def test_coverage_rejects_malformed_sets(sets):
    with pytest.raises(ValueError, match="set"):
        gen_coverage_mmnl(sets, universe=2, cardinality=1, epsilon=0.5)


def test_coverage_accepts_integral_elements_in_any_container():
    want = gen_coverage_mmnl([[0, 1], [1]], universe=2, cardinality=1, epsilon=0.5)
    for sets in ([(0, 1), {1}], [frozenset({0, 1}), [1.0]], ([0, 1], [np.int64(1)])):
        got = gen_coverage_mmnl(sets, universe=2, cardinality=1, epsilon=0.5)
        assert to_json(got) == to_json(want)


# ---------------------------------------------------------------------------
# random instances and serialization


def test_gen_random_is_reproducible_bytes():
    a = gen_random(5, 3, model="markov", browsing="explicit", seed=33)
    b = gen_random(5, 3, model="markov", browsing="explicit", seed=33)
    c = gen_random(5, 3, model="markov", browsing="explicit", seed=34)
    assert to_json(a) == to_json(b)
    assert to_json(a) != to_json(c)


def test_gen_random_families_are_rational():
    for idx, family in enumerate(["mnl", "mmnl", "markov", "ranked"]):
        inst = gen_random(4, 2, model=family, seed=60 + idx)
        assert check_weak_rationality(inst.choice_model) == []


_MODELS = st.sampled_from(("mnl", "mmnl", "markov", "ranked"))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(model=_MODELS, n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_gen_random_families_are_rational_property(model, n, seed):
    inst = gen_random(n, 2, model=model, seed=seed)
    assert check_weak_rationality(inst.choice_model) == []


def test_gen_random_uniform_prices_feed_uniform_solvers():
    inst = gen_random(4, 2, model="mnl", price_range=(1.0, 1.0), seed=61)
    GreedyUniformOracle(inst)  # accepts without complaint
    assert np.ptp(inst.prices) == 0.0


def test_gen_random_validation():
    with pytest.raises(ValueError):
        gen_random(0, 2)
    with pytest.raises(ValueError):
        gen_random(2, 2, price_range=(5.0, 1.0))
    for bad in [(1.0, math.inf), (1.0, math.nan), (math.nan, 5.0), (-math.inf, 5.0)]:
        with pytest.raises(ValueError, match="finite"):
            gen_random(2, 2, price_range=bad)
    with pytest.raises(ValueError):
        gen_random(2, 2, model="mystery")
    with pytest.raises(ValueError):
        gen_random(2, 2, browsing="mystery")


def test_gen_random_explicit_browsing_caps_location_count():
    with pytest.raises(ValueError, match="m <= 62"):
        gen_random(2, 63, browsing="explicit")
    inst = gen_random(2, 62, browsing="explicit", seed=5)
    assert all(max(s) < 62 for s, _ in inst.browsing.support() if s)


def test_json_round_trip_all_families():
    cases = [
        gen_first_slot_only(3),
        gen_uniform_line(4),
        gen_heavy_tail_line(4, 1.0),
        gen_coverage_mmnl([[0, 1], [1]], universe=2, cardinality=1, epsilon=0.5),
    ]
    for idx, model in enumerate(["mnl", "mmnl", "markov", "ranked"]):
        for jdx, browsing in enumerate(["line", "explicit", "singleton", "full"]):
            cases.append(
                gen_random(4, 3, model=model, browsing=browsing, seed=70 + idx * 4 + jdx)
            )
    for inst in cases:
        text = to_json(inst)
        assert to_json(from_json(text)) == text


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    model=_MODELS,
    browsing=st.sampled_from(("line", "explicit", "singleton", "full")),
    n=st.integers(1, 8),
    m=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_json_round_trip_property(model, browsing, n, m, seed):
    text = to_json(gen_random(n, m, model=model, browsing=browsing, seed=seed))
    assert to_json(from_json(text)) == text


# every float field of the JSON format, with the name its errors give it
NUMERIC_FIELDS = [
    ("mnl", "line", ("products", 0, "price"), "price"),
    ("mnl", "line", ("choice_model", "weights", 0), "weights"),
    ("mmnl", "line", ("choice_model", "segments", 0, "theta"), "segment probabilities"),
    ("mmnl", "line", ("choice_model", "segments", 0, "weights", 0), "segment weights"),
    ("markov", "line", ("choice_model", "arrival", 1), "arrival"),
    ("markov", "line", ("choice_model", "transitions", 1, 2), "transitions"),
    ("ranked", "line", ("choice_model", "lists", 0, "prob"), "ranking probabilities"),
    ("mnl", "line", ("browsing", "theta", 0), "prefix probabilities"),
    ("mnl", "explicit", ("browsing", "support", 0, "prob"), "support probabilities"),
]
NUMERIC_FIELD_IDS = [".".join(map(str, path)) for _, _, path, _ in NUMERIC_FIELDS]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize(
    "model, browsing, path, field", NUMERIC_FIELDS, ids=NUMERIC_FIELD_IDS
)
def test_from_json_rejects_non_finite_numbers(model, browsing, path, field, bad):
    data = json.loads(to_json(gen_random(3, 2, model=model, browsing=browsing, seed=81)))
    holder = data
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = bad
    with pytest.raises(ValueError, match=field):
        from_json(json.dumps(data))


@pytest.mark.parametrize(
    "model, browsing, path, field", NUMERIC_FIELDS, ids=NUMERIC_FIELD_IDS
)
def test_from_json_rejects_quoted_and_boolean_numbers(model, browsing, path, field):
    data = json.loads(to_json(gen_random(3, 2, model=model, browsing=browsing, seed=81)))
    holder = data
    for key in path[:-1]:
        holder = holder[key]
    # numpy alone would read each of these as the number it spells
    for bad in (str(holder[path[-1]]), True, False):
        holder[path[-1]] = bad
        with pytest.raises(ValueError, match=f"{field}: expected a number"):
            from_json(json.dumps(data))


NON_INTEGRAL_FIELDS = [
    ("mnl", "line", ("m",)),
    ("mnl", "line", ("products", 1, "id")),
    ("ranked", "line", ("choice_model", "n")),
    ("ranked", "line", ("choice_model", "lists", 0, "order", 0)),
    ("mnl", "explicit", ("browsing", "support", 0, "locations", 0)),
]


@pytest.mark.parametrize(
    "model, browsing, path",
    NON_INTEGRAL_FIELDS,
    ids=[".".join(map(str, path)) for _, _, path in NON_INTEGRAL_FIELDS],
)
def test_from_json_rejects_non_integral_numbers(model, browsing, path):
    data = json.loads(to_json(gen_random(3, 2, model=model, browsing=browsing, seed=83)))
    holder = data
    for key in path[:-1]:
        holder = holder[key]
    value = holder[path[-1]]
    holder[path[-1]] = float(value)  # integral floats load as ints
    assert to_json(from_json(json.dumps(data))) == to_json(
        gen_random(3, 2, model=model, browsing=browsing, seed=83)
    )
    for bad in (value + 0.5, value - 0.1, str(value), True):
        holder[path[-1]] = bad
        with pytest.raises(ValueError, match="must be an integer"):
            from_json(json.dumps(data))


def test_from_json_checks_the_ranked_count_before_building_the_model():
    data = json.loads(to_json(gen_random(3, 2, model="ranked", seed=84)))
    # a rank table of 10**15 columns per list would not fit in memory
    data["choice_model"]["n"] = 10**15
    with pytest.raises(ValueError, match=f"covers {10**15} products, catalog has 3"):
        from_json(json.dumps(data))


def test_from_json_rejects_bad_payloads():
    inst = gen_random(3, 2, model="mnl", seed=80)
    data = json.loads(to_json(inst))
    data["choice_model"]["type"] = "mystery"
    with pytest.raises(ValueError):
        from_json(json.dumps(data))
    data = json.loads(to_json(inst))
    data["products"][0]["id"] = 7
    with pytest.raises(ValueError):
        from_json(json.dumps(data))


_DELETE = object()
_PRODUCTS = "instance field 'products' must be a list of JSON objects"


@pytest.mark.parametrize(
    "path, value, message",
    [
        ((), [1], "instance must be a JSON object, got list"),
        (("products",), _DELETE, "instance lacks the 'products' field"),
        (("choice_model",), _DELETE, "instance lacks the 'choice_model' field"),
        (("m",), _DELETE, "instance lacks the 'm' field"),
        (("browsing",), _DELETE, "instance lacks the 'browsing' field"),
        (("products",), 5, _PRODUCTS),
        (("products",), {"0": {"id": 0, "price": 1.0}}, _PRODUCTS),
        (("products", 0), "x", _PRODUCTS),
        (("products", 0, "id"), _DELETE, "instance products entry lacks the 'id' field"),
        (("products", 0, "price"), _DELETE, "instance products entry lacks the 'price' field"),
        (("choice_model",), 5, "choice_model must be a JSON object, got int"),
        (("browsing",), [1], "browsing must be a JSON object, got list"),
    ],
    ids=[
        "not-an-object",
        "no-products",
        "no-choice-model",
        "no-m",
        "no-browsing",
        "products-number",
        "products-object",
        "product-string",
        "product-without-id",
        "product-without-price",
        "choice-model-number",
        "browsing-list",
    ],
)
def test_from_json_names_a_malformed_field(path, value, message):
    data = json.loads(to_json(gen_random(3, 2, model="mnl", seed=4)))
    if not path:
        data = value
    else:
        holder = data
        for key in path[:-1]:
            holder = holder[key]
        if value is _DELETE:
            del holder[path[-1]]
        else:
            holder[path[-1]] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        from_json(json.dumps(data))
