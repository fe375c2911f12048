import pickle
from itertools import combinations

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from placement_opt import (
    MarkovModel,
    MmnlModel,
    MnlModel,
    RankedListModel,
    SizeGuardError,
    check_restricted_revenue_properties,
    check_weak_rationality,
    expected_revenue,
    gen_first_slot_only,
    gen_random,
    markov_from_mnl,
    model_from_spec,
    no_purchase_prob,
)
from placement_opt.choice import ChoiceModel, _revenue_rows, _sum_leading

from helpers import (
    absorption_by_iteration,
    reference_choice_probs,
    reference_revenue_rows,
    reference_weak_rationality,
)


def test_mnl_symmetric_pair():
    model = MnlModel([1.0, 1.0])
    assert model.choose_prob(0, [0, 1]) == pytest.approx(1.0 / 3.0)
    assert model.choose_prob(1, [0, 1]) == pytest.approx(1.0 / 3.0)
    assert no_purchase_prob(model, [0, 1]) == pytest.approx(1.0 / 3.0)


def test_choose_prob_requires_membership():
    model = MnlModel([1.0, 1.0])
    with pytest.raises(ValueError):
        model.choose_prob(0, [1])
    with pytest.raises(ValueError):
        model.choose_prob(5, [0, 1])


def test_revenue_empty_assortment_is_zero():
    model = MnlModel([1.0, 2.0])
    assert expected_revenue(model, [3.0, 4.0], []) == 0.0


def test_revenue_bounded_by_max_price():
    rng = np.random.default_rng(0)
    for seed in range(20):
        inst = gen_random(5, 2, model="mnl", seed=seed)
        subset = [int(i) for i in rng.choice(5, size=3, replace=False)]
        rev = expected_revenue(inst.choice_model, inst.prices, subset)
        assert 0.0 <= rev <= inst.prices.max() + 1e-12


def test_full_catalog_revenue_on_tradeoff_instance():
    # two products priced 2 with weight 1/2, one priced 1 with weight 1:
    # every product contributes price*weight = 1 against denominator 3.
    inst = gen_first_slot_only(2)
    rev = expected_revenue(inst.choice_model, inst.prices, [0, 1, 2])
    assert rev == pytest.approx(1.0, abs=1e-12)


def test_mmnl_single_segment_reduces_to_mnl():
    weights = [0.5, 1.5, 0.2, 0.9]
    mnl = MnlModel(weights)
    mmnl = MmnlModel([(1.0, weights)])
    for subset in [(0,), (1, 2), (0, 1, 2, 3)]:
        for i in subset:
            assert mmnl.choose_prob(i, subset) == pytest.approx(
                mnl.choose_prob(i, subset), abs=1e-12
            )


def test_markov_from_mnl_reproduces_mnl():
    mnl = MnlModel([0.7, 1.3, 0.4, 2.0])
    markov = markov_from_mnl(mnl)
    for subset in [(0,), (2,), (1, 3), (0, 2, 3), (0, 1, 2, 3)]:
        for i in subset:
            assert markov.choose_prob(i, subset) == pytest.approx(
                mnl.choose_prob(i, subset), abs=1e-9
            )


def test_markov_linear_solve_matches_path_iteration():
    inst = gen_random(4, 2, model="markov", seed=5)
    model = inst.choice_model
    for subset in [(0,), (1, 2), (0, 3), (0, 1, 2, 3)]:
        iterated = absorption_by_iteration(model, subset)
        for i in subset:
            assert model.choose_prob(i, subset) == pytest.approx(
                iterated[i], abs=1e-9
            )


def test_markov_all_offered_uses_arrival_directly():
    inst = gen_random(3, 2, model="markov", seed=9)
    model = inst.choice_model
    probs = model.choice_probs([0, 1, 2])
    for i in range(3):
        assert probs[i] == pytest.approx(float(model.arrival[i + 1]), abs=1e-12)


def test_markov_full_catalog_rows_are_the_arrival_bitwise():
    # no unoffered state is left: the stacked solve of 0 x 0 systems adds 0.0
    for n in range(1, 16):
        for seed in range(20):
            model = gen_random(n, 2, model="markov", seed=seed).choice_model
            rows = model._batch_probs(np.tile(np.arange(n), (2, 1)))
            expected = [v.hex() for v in model.arrival[1:].tolist()]
            assert [[v.hex() for v in row] for row in rows.tolist()] == [expected] * 2


def test_markov_with_only_a_subnormal_exit_scores_every_subset():
    # the walk from product 0 leaves with probability 1e-320: its expected
    # length overflows, so no bound can skip a subset
    model = MarkovModel([0.5, 0.5], [[1.0, 0.0], [1e-320, 1.0]])
    assert model.prob_error == np.inf


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MmnlModel([]), "need at least one segment"),
        (lambda: MarkovModel([1.0], [[1.0]]), "arrival must cover the quit state"),
        (
            lambda: MarkovModel([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]]),
            "the quit state must be absorbing",
        ),
        (lambda: RankedListModel([(1.0, [])], 0), "need at least one product"),
        (lambda: RankedListModel([], 2), "need at least one ranking"),
        (lambda: RankedListModel([(1.0, [0, 0])], 2), "a ranking may not repeat a product"),
        (
            lambda: model_from_spec({"type": "ranked", "lists": [{"prob": 1.0, "order": [0]}]}),
            "ranked model spec needs a product count",
        ),
    ],
    ids=[
        "mmnl-no-segments",
        "markov-quit-only",
        "markov-quit-not-absorbing",
        "ranked-no-products",
        "ranked-no-lists",
        "ranked-repeat",
        "ranked-spec-no-count",
    ],
)
def test_choice_models_reject_degenerate_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_markov_closed_transient_class_raises():
    # products 0 and 1 only feed each other, so offering just product 2
    # would leave a closed unoffered class and a singular absorption solve;
    # the model is rejected when built instead.
    arrival = [0.0, 0.5, 0.5, 0.0]
    rho = [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
    ]
    with pytest.raises(ValueError, match=r"products \[0, 1\] can never reach"):
        MarkovModel(arrival, rho)


def test_markov_multi_step_path_to_quit_is_accepted():
    # product 2 -> product 1 -> product 0 -> quit: only product 0 leaves
    # directly, yet every walk ends
    arrival = [0.0, 0.0, 0.0, 1.0]
    rho = [
        [1.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.5],
    ]
    model = MarkovModel(arrival, rho)
    assert model.choice_probs([0]) == {0: pytest.approx(1.0)}
    assert model.choice_probs([1]) == {1: pytest.approx(1.0)}


def test_ranked_list_top_match_mass():
    model = RankedListModel([(0.6, (2, 0)), (0.4, (1,))], n=3)
    assert model.choose_prob(2, [0, 1, 2]) == pytest.approx(0.6)
    assert model.choose_prob(1, [0, 1, 2]) == pytest.approx(0.4)
    assert model.choose_prob(0, [0, 1]) == pytest.approx(0.6)  # 2 unavailable
    assert model.choose_prob(1, [1]) == pytest.approx(0.4)
    # product 1 unlisted in the first order: that order never buys from {0}
    assert no_purchase_prob(model, [1]) == pytest.approx(0.6)


def test_probabilities_valid_across_families():
    rng = np.random.default_rng(1)
    for idx, family in enumerate(["mnl", "mmnl", "markov", "ranked"]):
        inst = gen_random(5, 2, model=family, seed=100 + idx)
        model = inst.choice_model
        for _ in range(20):
            size = int(rng.integers(1, 6))
            subset = sorted(int(i) for i in rng.choice(5, size=size, replace=False))
            probs = model.choice_probs(subset)
            assert all(p >= -1e-12 for p in probs.values())
            assert sum(probs.values()) <= 1.0 + 1e-9


def test_weak_rationality_all_families_exhaustive():
    for idx, family in enumerate(["mnl", "mmnl", "markov", "ranked"]):
        inst = gen_random(4, 2, model=family, seed=200 + idx)
        assert check_weak_rationality(inst.choice_model) == []


def test_weak_rationality_sampled_mode():
    inst = gen_random(8, 2, model="mnl", seed=7)
    assert check_weak_rationality(inst.choice_model, trials=500, seed=1) == []


@pytest.mark.parametrize("family", ["mnl", "mmnl", "markov", "ranked"])
def test_weak_rationality_equals_the_triple_loop(family):
    # tol=-1.0 reports every triple, so the whole order and every magnitude
    # is compared, not just the (empty) list of real violations
    for n in range(2, 7):
        model = gen_random(n, 2, model=family, seed=300 + n).choice_model
        got = check_weak_rationality(model, tol=-1.0)
        assert got == reference_weak_rationality(model, n, tol=-1.0)
    model = gen_random(9, 2, model=family, seed=309).choice_model
    got = check_weak_rationality(model, trials=300, seed=5, tol=-1.0)
    assert got == reference_weak_rationality(model, 9, trials=300, seed=5, tol=-1.0)


@pytest.mark.parametrize("family", ["mnl", "mmnl", "markov", "ranked"])
def test_models_hold_no_per_assortment_state(family):
    inst = gen_random(6, 2, model=family, seed=11)
    model = inst.choice_model
    state = pickle.dumps(vars(model))
    for key in [(0,), (1, 3), (0, 2, 4, 5), tuple(range(6))]:
        model.choice_probs(key)
        expected_revenue(model, inst.prices, key)
    model.revenues(inst.prices, np.array([[0, 1, 2], [1, 3, 5]]))
    assert pickle.dumps(vars(model)) == state


class _CherryPicker:
    """Toy non-substitutable model: pairing 0 with 1 boosts product 0."""

    n = 2

    def choose_prob(self, i, assortment):
        offered = set(assortment)
        if i not in offered:
            raise ValueError("not offered")
        if offered == {0, 1}:
            return 0.9 if i == 0 else 0.05
        return 0.3

    def choice_probs(self, assortment):
        return {i: self.choose_prob(i, assortment) for i in set(assortment)}


def test_weak_rationality_caps_the_exhaustive_check():
    model = gen_random(13, 2, model="mnl", seed=13).choice_model
    with pytest.raises(SizeGuardError, match="n <= 12"):
        check_weak_rationality(model)
    assert check_weak_rationality(model, trials=50, seed=2) == []


def test_weak_rationality_detects_violations():
    report = check_weak_rationality(_CherryPicker())
    assert len(report) == 1
    hit = report[0]
    assert hit.product == 0 and hit.added == 1
    assert hit.magnitude == pytest.approx(0.6)


class _BoostedByOne(ChoiceModel):
    """Unit-weight MNL, except that offering product 1 triples product 0's
    weight: adding 1 to a set with 0 raises p_0, and nothing else rises."""

    def __init__(self, n):
        self.n = n

    def _batch_probs(self, ids):
        w = np.ones(ids.shape)
        w[:, 0] += 2.0 * ((ids[:, 0] == 0) & (ids == 1).any(axis=1))
        return w / (1.0 + w.sum(axis=1))[:, None]


@pytest.mark.parametrize("n", [2, 6, 12])
def test_weak_rationality_flags_a_batch_model_in_both_modes(n):
    model = _BoostedByOne(n)
    exhaustive = check_weak_rationality(model)
    # one violation per subset holding 0 and not 1
    assert len(exhaustive) == 2 ** (n - 2)
    assert {(v.product, v.added) for v in exhaustive} == {(0, 1)}
    sampled = check_weak_rationality(model, trials=2000, seed=3)
    assert sampled
    # both modes read the same _batch_probs row, so magnitudes match bitwise
    assert all(v in exhaustive for v in sampled)


def test_weak_rationality_checks_the_whole_catalog():
    # the product count is the model's own: all 2^6 subsets holding 0 and
    # not 1 are flagged, and they reach product 7
    report = check_weak_rationality(_BoostedByOne(8))
    assert len(report) == 64
    assert set().union(*(v.assortment for v in report)) == {0, 2, 3, 4, 5, 6, 7}


def _brute_best_subset(model, prices, n):
    best, best_rev = (), -1.0
    for mask in range(2**n):
        subset = tuple(i for i in range(n) if mask >> i & 1)
        rev = expected_revenue(model, prices, subset)
        if rev > best_rev:
            best, best_rev = subset, rev
    return best, best_rev


def test_markov_optimal_assortment_compatibility():
    # with S the unconstrained optimum: joining any part of S never hurts
    # any base set, and marginals of additions drawn from S shrink as the
    # base grows inside S. (Additions from outside S can violate the
    # shrinking-marginal comparison, so C stays inside S here.)
    for seed in [3, 4]:
        inst = gen_random(5, 2, model="markov", seed=seed)
        model, prices, n = inst.choice_model, inst.prices, inst.n
        s_opt, _ = _brute_best_subset(model, prices, n)
        rev = {}
        for mask in range(2**n):
            subset = tuple(i for i in range(n) if mask >> i & 1)
            rev[frozenset(subset)] = expected_revenue(model, prices, subset)
        subsets_of_s = [frozenset(c) for c in _powerset(s_opt)]
        all_subsets = [frozenset(c) for c in _powerset(range(n))]
        for a in all_subsets:
            for c in subsets_of_s:
                assert rev[a | c] >= rev[a] - 1e-9
        for a in subsets_of_s:
            for b in [x for x in subsets_of_s if x <= a]:
                for c in subsets_of_s:
                    gain_a = rev[a | c] - rev[a]
                    gain_b = rev[b | c] - rev[b]
                    assert gain_a <= gain_b + 1e-9


def _powerset(items):
    items = list(items)
    for mask in range(2 ** len(items)):
        yield tuple(items[t] for t in range(len(items)) if mask >> t & 1)


def test_uniform_price_revenue_monotone_submodular_all_families():
    for idx, family in enumerate(["mnl", "mmnl", "markov", "ranked"]):
        inst = gen_random(5, 2, model=family, price_range=(1.0, 1.0), seed=300 + idx)
        assert check_restricted_revenue_properties(inst, range(5)) == []


def test_model_spec_round_trip():
    for idx, family in enumerate(["mnl", "mmnl", "markov", "ranked"]):
        inst = gen_random(4, 2, model=family, seed=400 + idx)
        spec = inst.choice_model.to_spec()
        clone = model_from_spec(spec, n=4)
        assert clone.to_spec() == spec


def test_zero_weight_encodes_never_chosen():
    model = MnlModel([1.0, 0.0])
    probs = model.choice_probs([0, 1])
    assert probs[1] == 0.0
    assert probs[0] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# batch hook: revenues(prices, ids)[b] == expected_revenue(model, prices, ids[b])


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
# 8 and 9 columns: from 8 on, a row sum(axis=1) adds pairwise, not left to right
@example(family="markov", n=9, seed=1, size_pick=7, rows=3)
@example(family="markov", n=9, seed=2, size_pick=8, rows=1)
@given(
    family=st.sampled_from(["mnl", "mmnl", "markov", "ranked"]),
    n=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
    size_pick=st.integers(0, 8),
    rows=st.integers(1, 8),
)
def test_batch_revenues_equal_expected_revenue(family, n, seed, size_pick, rows):
    inst = gen_random(n, 1, model=family, seed=seed)
    size = 1 + size_pick % n  # every size, the full catalog included
    ids = np.array(list(combinations(range(n), size)))
    whole = inst.choice_model.revenues(inst.prices, ids)
    assert whole.shape == (len(ids),)
    # the same rows in small batches give the same entries
    parts = [
        inst.choice_model.revenues(inst.prices, ids[lo : lo + rows])
        for lo in range(0, len(ids), rows)
    ]
    assert np.concatenate(parts).tolist() == whole.tolist()
    fresh = model_from_spec(inst.choice_model.to_spec(), n=n)
    for b, row in enumerate(ids.tolist()):
        assert whole[b] == expected_revenue(fresh, inst.prices, row), (b, row)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["mnl", "mmnl", "markov", "ranked"]),
    n=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
    prices=st.sampled_from([(1.0, 10.0), (2.0, 2.0), (0.0, 0.0)]),
)
def test_expected_revenue_is_its_revenues_row_to_the_bit(family, n, seed, prices):
    # .hex() tells -0.0 from 0.0, which == does not
    inst = gen_random(n, 1, model=family, price_range=prices, seed=seed)
    for size in range(1, n + 1):
        ids = np.array(list(combinations(range(n), size)))
        whole = inst.choice_model.revenues(inst.prices, ids).tolist()
        for row, want in zip(ids.tolist(), whole):
            got = expected_revenue(inst.choice_model, inst.prices, row)
            assert got.hex() == want.hex(), row


_TIED_MODELS = {
    "mnl": lambda: MnlModel(np.ones(6)),
    "mmnl": lambda: MmnlModel([(0.5, np.ones(6)), (0.5, np.full(6, 3.0))]),
    "markov": lambda: markov_from_mnl(MnlModel(np.ones(6))),
    "ranked": lambda: RankedListModel([(0.25, (i, (i + 1) % 6)) for i in range(4)], n=6),
}


@pytest.mark.parametrize("family", _TIED_MODELS)
def test_batch_revenues_on_ties_and_bad_ids(family):
    model = _TIED_MODELS[family]()
    prices = np.full(6, 2.0)
    for size in range(1, 7):
        ids = np.array(list(combinations(range(6), size)))
        got = model.revenues(prices, ids)
        assert got.tolist() == [expected_revenue(model, prices, row) for row in ids.tolist()]
    assert model.revenues(prices, np.empty((0, 3), dtype=int)).shape == (0,)
    for bad in ([[0, 6]], [[-1, 2]], [[1, 2], [3, 9]]):
        with pytest.raises(ValueError):
            model.revenues(prices, np.array(bad))


@pytest.mark.parametrize("family", _TIED_MODELS)
def test_batch_revenues_reject_rows_that_are_not_sorted_ids(family):
    # each would differ from expected_revenue of the same ids, which reads
    # them as a set; unsigned ids must not wrap round to look increasing
    model = _TIED_MODELS[family]()
    prices = np.full(6, 2.0)
    bad = [
        [[0, 0]], [[1, 0]], [[0, 2, 1]], [[0, 1], [3, 3]],
        np.array([[3, 1]], dtype=np.uint8), [[[0, 1]]], [0, 1], 3,
    ]
    for ids in bad:
        with pytest.raises(ValueError):
            model.revenues(prices, ids)
    assert model.revenues(prices, [[0, 1], [2, 5]]).tolist() == [
        expected_revenue(model, prices, row) for row in ([0, 1], [2, 5])
    ]


@pytest.mark.parametrize("family", _TIED_MODELS)
def test_ids_that_are_not_integers_are_rejected(family):
    # a float, boolean or string id is never cast to an index: 1.9 is not
    # product 1, and 2.0 is not product 2
    model = _TIED_MODELS[family]()
    # numpy reads [True, 2] as an integer array, so only a type scan sees the True
    for bad in ([1.9], [0.5], [2.0], [True], ["a"], [True, 2], [np.True_, 2], [1, True]):
        with pytest.raises(ValueError, match="unknown product id"):
            model.choice_probs(bad)
    for bad in ([[0.7]], [[True]], [[True, 2]]):
        with pytest.raises(ValueError, match="unknown product id"):
            model.revenues(np.full(6, 2.0), bad)
    assert model.choice_probs([np.int64(2), np.uint8(0)]) == model.choice_probs([0, 2])


def test_revenue_rows_match_the_column_loop_bitwise():
    # -0.0 first terms, 0 * inf (the bound rows of members never solved are
    # inf), inf itself and rows wider than 8 columns
    rng = np.random.default_rng(4)
    prices = np.array([0.0, 1.5, 2.0, 3.25, 1e-300, 7.0, 0.5, 4.0, 9.0, 2.5, 1.0, 6.0])
    for cols in (1, 2, 7, 8, 9, 12):
        ids = np.sort(np.array([rng.permutation(12)[:cols] for _ in range(40)]), axis=1)
        probs = rng.choice([-0.0, 0.0, 0.25, 1.0 / 3.0, 1e-300, np.inf], size=ids.shape)
        probs[:5] = rng.random((5, cols))
        probs[5, 0] = -0.0
        with np.errstate(invalid="ignore"):
            got = _revenue_rows(prices, ids, probs)
            want = reference_revenue_rows(prices, ids, probs)
        assert got.tobytes() == want.tobytes(), cols
    with np.errstate(invalid="ignore"):
        row = _revenue_rows(prices, np.array([[0, 5]]), np.array([[-0.0, -0.0]]))
        nan = _revenue_rows(prices, np.array([[0, 1]]), np.array([[np.inf, 0.5]]))
    assert row.tobytes() == np.zeros(1).tobytes()  # 0.0, not -0.0
    assert np.isnan(nan[0])


@st.composite
def _leading_arrays(draw):
    """1-24 rows of shape (), (1, 1), (2, 1) or (2, 3) entries of mixed
    magnitudes, in C or Fortran order, with a -0.0 first row at times."""
    rows = draw(st.integers(1, 24))
    trailing = draw(st.sampled_from([(), (1, 1), (2, 1), (2, 3)]))
    size = rows * int(np.prod(trailing))
    scaled = st.builds(lambda v, e: v * 10.0**e, st.floats(-1.0, 1.0), st.integers(-20, 20))
    x = np.array(draw(st.lists(scaled, min_size=size, max_size=size))).reshape(rows, *trailing)
    if draw(st.booleans()):
        x[0] = -0.0
    return np.asfortranarray(x) if draw(st.booleans()) else x


# no explain phase: on a failing example it ran for minutes
@settings(max_examples=300, deadline=None, derandomize=True, phases=[Phase.generate, Phase.shrink])
@given(_leading_arrays())
def test_sum_leading_adds_rows_left_to_right(x):
    # from 8 rows on numpy's pairwise sum along a reduced fast axis differs
    want = x[0]
    for row in x[1:]:
        want = want + row
    got = _sum_leading(x)
    assert got.shape == np.shape(want)
    assert [v.hex() for v in np.ravel(got).tolist()] == [v.hex() for v in np.ravel(want).tolist()]


def _ranked_edge_model(n, offered, rng):
    # an empty order, a zero-probability list, two lists topped by the same
    # product and a list naming only products the first row leaves out
    top = int(rng.integers(n))
    lists = [
        (),
        tuple(rng.permutation(n)[: int(rng.integers(1, n + 1))].tolist()),
        (top,) + tuple(i for i in rng.permutation(n).tolist() if i != top),
        (top,),
        tuple(i for i in range(n) if i not in offered),
    ]
    probs = [0.0] + rng.dirichlet(np.ones(len(lists) - 1)).tolist()
    return RankedListModel(list(zip(probs, lists)), n=n)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
# rows of 8 to 30 columns, where a row sum adds pairwise rather than left to right
@example(family="mnl", n=40, seed=1, size=30, rows=3)
@example(family="mmnl", n=100, seed=2, size=17, rows=3)
@example(family="ranked", n=100, seed=3, size=8, rows=3)
@example(family="ranked-edge", n=40, seed=4, size=12, rows=3)
@example(family="markov", n=40, seed=5, size=9, rows=2)
@given(
    family=st.sampled_from(["mnl", "mmnl", "markov", "ranked", "ranked-edge"]),
    n=st.sampled_from([1, 3, 9, 40, 100]),
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 30),
    rows=st.integers(1, 4),
)
def test_choice_probs_equal_per_assortment_reference(family, n, seed, size, rows):
    rng = np.random.default_rng(seed)
    keys = [
        tuple(sorted(rng.choice(n, size=min(size, n), replace=False).tolist()))
        for _ in range(rows)
    ]
    if family == "ranked-edge":
        model = _ranked_edge_model(n, keys[0], rng)
    else:
        model = gen_random(n, 1, model=family, seed=seed).choice_model
    for key in keys:
        got = model.choice_probs(key)
        assert list(got.items()) == list(reference_choice_probs(model, key).items()), key
    # the rows in one batch score as they do one at a time
    prices = rng.uniform(1.0, 10.0, n)
    revs = model.revenues(prices, np.array(keys))
    assert revs.tolist() == [expected_revenue(model, prices, key) for key in keys]
