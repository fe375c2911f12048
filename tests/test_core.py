import re

import numpy as np
import pytest

from placement_opt import (
    EstimationPlan,
    ExplicitBrowsing,
    Instance,
    LineBrowsing,
    MnlModel,
    WEvaluator,
    canon,
    check_restricted_revenue_properties,
    estimate_w,
    evaluate_exact,
    expected_revenue,
    full_support,
    gen_random,
    products_at,
    substream,
)


def test_products_at_merges_duplicates():
    assert products_at([2, 2, 5], {0, 1}) == frozenset({2})


def test_products_at_empty_locations():
    assert products_at([2, 2, 5], set()) == frozenset()


def test_products_at_plain_union():
    assert products_at([0, 1, 2], {0, 2}) == frozenset({0, 2})


def test_products_at_out_of_range():
    # the one range check on a drawn set names each location outside [0, m)
    with pytest.raises(ValueError, match=r"locations \[-1, 2\] outside \[0, 2\)"):
        products_at([0, 1], [2, 0, -1])


@pytest.mark.parametrize(
    "m, browsing, message",
    [
        (0, full_support(1), "instance needs at least one location"),
        (2, ExplicitBrowsing([([0, 2], 1.0)]), "browsing visits location 2 >= m = 2"),
    ],
    ids=["no-locations", "explicit-beyond-m"],
)
def test_instance_rejects_locations_outside_its_range(m, browsing, message):
    with pytest.raises(ValueError, match=message):
        Instance([1.0], MnlModel([1.0]), m, browsing)


def test_products_at_size_and_monotonicity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = int(rng.integers(1, 7))
        slots = rng.integers(0, 4, size=m).tolist()
        small = set(int(j) for j in rng.choice(m, size=int(rng.integers(0, m + 1)), replace=False))
        extra = set(int(j) for j in rng.choice(m, size=int(rng.integers(0, m + 1)), replace=False))
        large = small | extra
        assert len(products_at(slots, large)) <= len(large)
        assert products_at(slots, small) <= products_at(slots, large)


def test_canon_sorts_and_dedupes():
    assert canon([3, 1, 3, 2]) == (1, 2, 3)
    assert canon([]) == ()


@pytest.mark.parametrize(
    "prices, message",
    [
        ([1.0, True], "price: expected a number, got True"),
        ([np.True_], "price: expected a number, got np.True_"),
        ([1.0, "3"], "price: expected a number, got '3'"),
        ([1.0, float("nan")], "price must be finite and nonnegative, got nan"),
        ([float("inf")], "price must be finite and nonnegative, got inf"),
        ([2.0, -1.0], "price must be finite and nonnegative, got -1.0"),
        ([[1.0], [2.0]], r"prices must be a nonempty flat list, got shape \(2, 1\)"),
        ([], r"prices must be a nonempty flat list, got shape \(0,\)"),
    ],
    ids=["bool", "numpy-bool", "quoted", "nan", "inf", "negative", "2-d", "empty"],
)
def test_instance_rejects_bad_prices(prices, message):
    with pytest.raises(ValueError, match=message):
        Instance(prices, MnlModel([1.0]), 1, LineBrowsing([1.0]))


def test_instance_reads_numpy_prices_and_an_integral_m():
    model, browsing = MnlModel([1.0]), LineBrowsing([1.0])
    inst = Instance([np.float64(1.5)], model, 1.0, browsing)
    assert type(inst.m) is int and inst.prices.tolist() == [1.5]
    with pytest.raises(ValueError, match="m must be an integer, got True"):
        Instance([1.0], model, True, browsing)
    with pytest.raises(ValueError, match="m must be an integer"):
        Instance([1.0], model, 1.5, browsing)


def test_instance_validation():
    prices = [1.0, 2.0]
    inst = Instance(prices, MnlModel([1.0, 1.0]), 2, LineBrowsing([0.4, 0.6]))
    assert inst.n == 2
    assert inst.i_star == 1
    with pytest.raises(ValueError):  # model covers a different catalog
        Instance(prices, MnlModel([1.0]), 2, LineBrowsing([0.4, 0.6]))
    with pytest.raises(ValueError):  # browsing length mismatch
        Instance(prices, MnlModel([1.0, 1.0]), 1, LineBrowsing([0.4, 0.6]))


def test_i_star_prefers_lowest_id_on_ties():
    inst = Instance([5.0, 5.0, 1.0], MnlModel([1.0, 1.0, 1.0]), 1, LineBrowsing([1.0]))
    assert inst.i_star == 0


def test_substream_is_deterministic_and_name_separated():
    a1 = substream(42, "placement").random(4)
    a2 = substream(42, "placement").random(4)
    b = substream(42, "estimation").random(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    with pytest.raises(ValueError):
        substream(-1, "placement")


def _warm_evaluator(inst):
    """An evaluator whose cache already holds every set (1, 0, 2) offers."""
    ev = WEvaluator(inst)
    ev.value((1, 0, 2))
    return ev


# Every entry that takes catalog ids, fed the placement or assortment ``ids``;
# ``revenues`` gets them sorted as its one row, and ``(1, 0, 2)`` is a valid input.
_ID_ENTRIES = {
    "choice_probs": lambda inst, ids: inst.choice_model.choice_probs(ids),
    "revenues": lambda inst, ids: inst.choice_model.revenues(inst.prices, [sorted(ids, key=int)])
    .tolist(),
    "expected_revenue": lambda inst, ids: expected_revenue(inst.choice_model, inst.prices, ids),
    "evaluate_exact": evaluate_exact,
    "warm_value": lambda inst, ids: _warm_evaluator(inst).value(ids),
    "warm_revenue": lambda inst, ids: _warm_evaluator(inst).revenue(ids),
    "estimate_w": lambda inst, ids: estimate_w(
        inst, ids, EstimationPlan.for_instance(inst, 0.5, 0.5, 50), np.random.default_rng(0)
    ),
    "restricted_check": check_restricted_revenue_properties,
}
_BAD_IDS = [1.0, 1.5, True, np.True_, "1", np.float64(1.0), 4, -2]  # n = 4


@pytest.mark.parametrize("entry", _ID_ENTRIES)
@pytest.mark.parametrize("bad", _BAD_IDS, ids=repr)
def test_every_entry_rejects_ids_that_are_not_catalog_ids(entry, bad):
    # a warm evaluator's cache must not answer 1.0, True or np.float64(1.0),
    # which hash like product 1
    inst = gen_random(4, 3, model="mnl", browsing="line", seed=1)
    with pytest.raises(ValueError, match=f"unknown product id {re.escape(repr(bad))}"):
        _ID_ENTRIES[entry](inst, (bad, 0, 2))


@pytest.mark.parametrize("entry", _ID_ENTRIES)
@pytest.mark.parametrize(
    "ids", [(np.int64(1), np.uint8(0), np.int32(2)), np.array([1, 0, 2])], ids=["scalars", "array"]
)
def test_every_entry_reads_numpy_integer_ids_as_catalog_ids(entry, ids):
    inst = gen_random(4, 3, model="mnl", browsing="line", seed=1)
    got = _ID_ENTRIES[entry](inst, ids)
    assert got == _ID_ENTRIES[entry](inst, (1, 0, 2))
    if entry == "choice_probs":
        assert [type(i) for i in got] == [int] * 3
