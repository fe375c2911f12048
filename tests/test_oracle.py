import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations
from math import comb, nextafter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placement_opt import oracle as oracle_module
from placement_opt import (
    BruteForceOracle,
    GreedyUniformOracle,
    Instance,
    LineBrowsing,
    MarkovModel,
    MmnlModel,
    MnlExactOracle,
    MnlModel,
    RankedListModel,
    SizeGuardError,
    exact_oracle,
    expected_revenue,
    full_support,
    gen_first_slot_only,
    gen_heavy_tail_line,
    gen_random,
    gen_uniform_line,
    markov_from_mnl,
)

from helpers import (
    direct_revenue,
    reference_brute_oracle,
    reference_greedy_uniform,
    reference_mnl_bisection,
    top_up,
)


def _revenue(instance, ids):
    return expected_revenue(instance.choice_model, instance.prices, ids)


def test_tradeoff_instance_optimum_is_the_pricey_block():
    # revenue of the k identically-priced products is k/2, and mixing in the
    # popular cheap product only dilutes it.
    for k in range(2, 9):
        inst = gen_first_slot_only(k)
        chosen = BruteForceOracle(inst).best_assortment(k)
        assert chosen == frozenset(range(k))
        assert _revenue(inst, chosen) == pytest.approx(k / 2.0, abs=1e-12)


def test_heavy_tail_optimum_is_one_tier():
    from placement_opt import heavy_tail_tier_ids

    inst = gen_heavy_tail_line(4, 1.0)
    oracle = BruteForceOracle(inst)
    for k in range(1, 5):
        assert oracle.best_assortment(k) == frozenset(heavy_tail_tier_ids(k))


def test_single_product_instance():
    inst = Instance([2.0], MnlModel([1.0]), 1, LineBrowsing([1.0]))
    assert BruteForceOracle(inst).best_assortment(1) == frozenset({0})


def test_mnl_exact_matches_brute_force():
    for seed in range(30):
        inst = gen_random(10, 5, model="mnl", seed=seed)
        brute, mnl = BruteForceOracle(inst), MnlExactOracle(inst)
        for k in range(1, 6):
            r_brute = _revenue(inst, brute.best_assortment(k))
            r_mnl = _revenue(inst, mnl.best_assortment(k))
            assert abs(r_brute - r_mnl) <= 1e-7, (seed, k)


def _full_bisection(instance, k):
    """MNL threshold set after all 200 bisection steps, with no early exit."""
    v, r = instance.choice_model.weights, instance.prices

    def top(t):
        scores = v * (r - t)
        return np.lexsort((np.arange(scores.size), -scores))[:k], scores

    lo, hi = 0.0, float(r.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        order, scores = top(mid)
        if float(np.maximum(scores[order], 0.0).sum()) >= mid:
            lo = mid
        else:
            hi = mid
    order, scores = top(lo)
    return frozenset(int(i) for i in order if scores[i] > 0.0)


def _tie_heavy_mnl_instances():
    """Small MNL instances rich in ties: equal weights, equal prices, zero
    weights."""
    insts = [gen_first_slot_only(k) for k in range(1, 9)]
    insts += [gen_random(8, 5, model="mnl", seed=seed) for seed in range(10)]
    rng = np.random.default_rng(5)
    for n in (1, 4, 9):
        prices = [rng.uniform(1.0, 10.0, n), np.full(n, 4.0)]
        weights = [
            np.ones(n),
            rng.uniform(0.1, 2.0, n),
            np.where(np.arange(n) % 2 == 0, 0.0, 1.0),
            np.zeros(n),
        ]
        for r in prices:
            for w in weights:
                insts.append(Instance(r, MnlModel(w), 1, LineBrowsing([1.0])))
    return insts


def _m_equals_n(inst):
    """The instance with one location per product, so every size is asked."""
    return Instance(inst.prices, inst.choice_model, inst.n, full_support(inst.n))


def _table(oracle):
    """size -> the set the pass found, from the table the first call builds."""
    oracle.best_assortment(1)
    return {size: ids for size, (ids, _) in oracle._answers.items()}


def _sizes(inst):
    return range(1, min(inst.m, inst.n) + 1)


def test_mnl_early_exit_matches_full_bisection():
    for inst in map(_m_equals_n, _tie_heavy_mnl_instances()):
        expected = {k: _full_bisection(inst, k) for k in _sizes(inst)}
        assert _table(MnlExactOracle(inst)) == expected, inst.n


def _assert_lockstep_matches_reference(inst):
    """Every size of the table against one scalar bisection per size."""
    expected = {k: reference_mnl_bisection(inst, k)[0] for k in _sizes(inst)}
    assert _table(MnlExactOracle(inst)) == expected, (inst.n, inst.m)


def test_mnl_lockstep_matches_scalar_bisection():
    # m = n, so every size is bisected in lockstep
    insts = list(map(_m_equals_n, _tie_heavy_mnl_instances()))
    insts.append(_m_equals_n(gen_random(100, 20, model="mnl", seed=0)))
    insts.append(_m_equals_n(gen_random(100, 20, model="mnl", price_range=(3.0, 3.0), seed=3)))
    # at t = 1.0, the last product's price, the other ten score 0.1 each: their
    # pairwise sum is 1.0, which leaves the last one out; a running sum is not
    insts.append(Instance([2.0] * 10 + [1.0], MnlModel([0.1] * 10 + [1.0]), 11, full_support(11)))
    # the bisection ranks score values, not ids: zero weights score -0.0
    # below the threshold and 0.0 above it, and repeated (weight, price)
    # pairs tie exactly above it
    weights = [1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 2.0, 0.3]
    prices = [5.0, 5.0, 5.0, 8.0, 8.0, 8.0, 0.5, 9.0, 3.0, 7.0, 1.5, 2.0]
    insts.append(Instance(prices, MnlModel(weights), 12, full_support(12)))
    base = gen_random(50, 20, model="mnl", seed=4)
    weights = np.repeat(base.choice_model.weights, 2)
    weights[::7] = 0.0
    insts.append(Instance(np.repeat(base.prices, 2), MnlModel(weights), 20, full_support(20)))
    for inst in insts:
        _assert_lockstep_matches_reference(inst)


def test_mnl_lockstep_splits_sizes_at_the_cell_cap(monkeypatch):
    inst = gen_random(12_000, 12, model="mnl", seed=9)
    rows = oracle_module._CELLS // inst.n
    assert 1 < rows < inst.m
    passes = []
    real = MnlExactOracle._bisect

    def recorded(self, sizes):
        passes.append(sizes)
        return real(self, sizes)

    monkeypatch.setattr(MnlExactOracle, "_bisect", recorded)
    _assert_lockstep_matches_reference(inst)
    ks = list(range(1, inst.m + 1))
    assert passes == [ks[:rows], ks[rows : 2 * rows], ks[2 * rows :]]


@st.composite
def _bisection_cases(draw):
    """An MNL instance with m = n, so every size is bisected, and the rows
    per chunk of its pass (None: all sizes in one chunk)."""
    n = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = {
        "decades": 10.0 ** rng.uniform(-8.0, 8.0, n),
        "some zero": np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.1, 2.0, n)),
        "all zero": np.zeros(n),  # optimum 0: the iteration cap binds
        "plain": rng.uniform(0.1, 2.0, n),
    }[draw(st.sampled_from(["decades", "some zero", "all zero", "plain"]))]
    base = float(rng.uniform(1.0, 10.0))
    prices = {
        "spread": rng.uniform(1.0, 10.0, n),
        "identical": np.full(n, base),
        "one ulp apart": rng.permutation(base + np.arange(n) * np.spacing(base)),
        "decades": 10.0 ** rng.uniform(-6.0, 6.0, n),
    }[draw(st.sampled_from(["spread", "identical", "one ulp apart", "decades"]))]
    inst = Instance(prices, MnlModel(weights), n, full_support(n))
    return inst, draw(st.sampled_from([None, 1, 2, 3]))


@settings(max_examples=150, deadline=None)
@given(_bisection_cases())
def test_mnl_bisection_matches_scalar_reference_bitwise(case):
    # every size's set and final lo, whatever the bracket decided unevaluated
    inst, rows = case
    cells = oracle_module._CELLS if rows is None else rows * inst.n
    with mock.patch.object(oracle_module, "_CELLS", cells):
        oracle = MnlExactOracle(inst)
        oracle.best_assortment(1)
    got = {k: (ids, lo.hex()) for k, (ids, lo) in oracle._answers.items()}
    expected = {}
    for k in _sizes(inst):
        ids, lo = reference_mnl_bisection(inst, k)
        expected[k] = (ids, lo.hex())
    assert got == expected


@pytest.mark.parametrize(
    "case",
    ["mnl-oracle-on-markov", "bracket-overflow"],
)
def test_mnl_oracle_boundaries(case):
    if case == "mnl-oracle-on-markov":
        with pytest.raises(ValueError, match="MnlExactOracle requires an MNL choice model"):
            MnlExactOracle(gen_random(3, 2, model="markov", seed=0))
        return
    # 2 v_sum r_max overflows, so no row is bracketed and every midpoint is tested
    inst = Instance([3.0, 2.0, 5.0, 1.0], MnlModel([1e308, 1e308, 2.0, 0.5]), 4, full_support(4))
    oracle = MnlExactOracle(inst)
    with pytest.warns(RuntimeWarning, match="overflow"):
        below, above = oracle._bracket(np.arange(1, 5), 4)
    assert below.tolist() == [-np.inf] * 4 and above.tolist() == [np.inf] * 4
    with pytest.warns(RuntimeWarning, match="overflow"):
        oracle.best_assortment(1)
    got = {k: (ids, lo.hex()) for k, (ids, lo) in oracle._answers.items()}
    expected = {}
    for k in range(1, 5):
        ids, lo = reference_mnl_bisection(inst, k)
        expected[k] = (ids, lo.hex())
    assert got == expected


def _plain_records(values, best):
    """The tie rule written out: index and value of the last record."""
    at = None
    for i, v in enumerate(values):
        if v > best + 1e-15:
            at, best = i, v
    return at, best


_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-15, nextafter(1e-15, 1.0)]
_STEPS = [0.0, 5e-16, 1e-15, 2e-15, "up", "down"]  # "up" / "down": one ulp


@st.composite
def _record_values(draw):
    """Ladders of near ties (steps of 0, one ulp, inside and just past 1e-15)
    from signed zeros, infinities, NaN or any float, among arbitrary floats."""
    values = []
    for _ in range(draw(st.integers(0, 4))):
        x = draw(st.one_of(st.sampled_from(_SPECIAL), st.floats(-4.0, 4.0)))
        values.append(x)
        for step in draw(st.lists(st.sampled_from(_STEPS), max_size=6)):
            if isinstance(step, str):
                x = nextafter(x, np.inf if step == "up" else -np.inf)
            else:
                x += step
            values.append(x)
        values += draw(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=2))
    return values


@settings(max_examples=400, deadline=None)
@given(_record_values(), st.one_of(st.sampled_from(_SPECIAL), st.floats()))
def test_last_record_matches_plain_loop(values, best):
    # no best given starts from -inf; every source, generators too, alike
    for carried, start in (((), -np.inf), ((best,), best)):
        at, top = _plain_records(values, start)
        for source in (values, iter(values), (v for v in values)):
            got, got_top = oracle_module.last_record(source, *carried)
            assert (got, got_top.hex()) == (at, top.hex())


def test_last_record_edges():
    assert oracle_module.last_record([]) == (None, -np.inf)
    assert oracle_module.last_record(iter([]), 2.0) == (None, 2.0)
    # within the margin the earlier value stays the record; past it, the later
    assert oracle_module.last_record([1.0, nextafter(1.0, 2.0), 1.0 + 1e-15]) == (0, 1.0)
    assert oracle_module.last_record([1.0, 1.0 + 2e-15]) == (1, 1.0 + 2e-15)
    assert oracle_module.last_record([np.nan, -np.inf, 0.0, -0.0]) == (2, 0.0)
    at, best = oracle_module.last_record([-0.0, 0.0])
    assert (at, best.hex()) == (0, (-0.0).hex())
    # in [4, 16) best + 1e-15 rounds up one ulp, so one ulp ties and two beat
    # it; from 16 on it rounds back to best, so one ulp beats it
    for x in (4.0, 5.0, nextafter(16.0, 0.0)):
        up = nextafter(x, np.inf)
        two_up = nextafter(up, np.inf)
        assert oracle_module.last_record([x, up, x]) == (0, x)
        assert oracle_module.last_record([x, up, two_up], x) == (2, two_up)
    for x in (16.0, 20.0, 1e6):
        up = nextafter(x, np.inf)
        assert oracle_module.last_record([x, x, up, up]) == (2, up)
        assert oracle_module.last_record([x], x) == (None, x)


def test_bisection_tests_and_exact_sums_stay_within_their_pins(monkeypatch):
    # Testing every midpoint would still bisect bitwise, only slower: this
    # instance then tests 1,070 midpoints in 54 batches. Every tested row is
    # summed exactly, so the rows also count the exact sums.
    chunks = []  # per _bisect call, the rows of each _scores call
    bisect, scores = MnlExactOracle._bisect, MnlExactOracle._scores

    def counted_bisect(self, sizes):
        chunks.append([])
        return bisect(self, sizes)

    def counted_scores(self, t):
        chunks[-1].append(len(t))
        return scores(self, t)

    monkeypatch.setattr(MnlExactOracle, "_bisect", counted_bisect)
    monkeypatch.setattr(MnlExactOracle, "_scores", counted_scores)
    oracle = MnlExactOracle(gen_random(100, 20, model="mnl", seed=0))
    for k in range(1, 21):
        oracle.best_assortment(k)
    # each chunk ends with one call that rebuilds its sets, a row per size
    assert [chunk[-1] for chunk in chunks] == [20]
    tests = [rows for chunk in chunks for rows in chunk[:-1]]
    assert len(tests) <= 15 and sum(tests) <= 250, tests


def _brute_reference_instances():
    insts = []
    for family in ("mnl", "mmnl", "markov", "ranked"):
        for seed in range(4):
            n = 3 + 2 * seed  # 3, 5, 7, 9
            insts.append(gen_random(n, min(n, 5), model=family, seed=seed))
            insts.append(gen_random(n, 4, model=family, price_range=(3.0, 3.0), seed=seed))
        insts.append(gen_random(2, 4, model=family, seed=11))  # k > n pads
    rng = np.random.default_rng(8)
    for n in (4, 7):
        for prices in (np.full(n, 2.0), rng.uniform(1.0, 10.0, n)):
            for model in (
                MnlModel(np.zeros(n)),
                MnlModel(np.where(np.arange(n) % 2 == 0, 0.0, 1.5)),
                markov_from_mnl(MnlModel(np.ones(n))),
            ):
                insts.append(Instance(prices, model, n, LineBrowsing([1.0] + [0.0] * (n - 1))))
    # near ties: revenues one ulp apart (inside the 1e-15 record rule) and
    # 1e-13 apart (outside it)
    for step in (np.spacing(2.0), 1e-13):
        for n in (3, 6):
            prices = [2.0 + step * i for i in range(n)]
            for model in (MnlModel(np.ones(n)), markov_from_mnl(MnlModel(np.ones(n)))):
                insts.append(Instance(prices, model, 3, LineBrowsing([0.5, 0.5, 0.0])))
    return insts


# solve blocks and the cell budget at their sizes, and small enough that a
# size spans several blocks and bound chunks (10 // s subsets), cut at
# different rows
_BLOCKS = [
    pytest.param(oracle_module._BATCH, oracle_module._CELLS, id=str(oracle_module._BATCH)),
    pytest.param(3, 10, id="3"),
]


@pytest.mark.parametrize("batch, cells", _BLOCKS)
def test_brute_force_matches_per_k_reference(monkeypatch, batch, cells):
    monkeypatch.setattr(oracle_module, "_BATCH", batch)
    monkeypatch.setattr(oracle_module, "_CELLS", cells)
    for inst in _brute_reference_instances():
        m = inst.m
        expected = {k: reference_brute_oracle(inst, k) for k in range(1, m + 1)}
        for order in (range(1, m + 1), range(m, 0, -1)):
            oracle = BruteForceOracle(inst)
            got = {k: oracle.best_assortment(k) for k in order}
            assert got == expected, (inst.n, m, type(inst.choice_model).__name__)


def _spy_scored(monkeypatch, model):
    """List that collects every subset the model's ``_batch_probs`` scores."""
    scored = []
    real = model._batch_probs

    def spy(ids):
        scored.extend(map(tuple, ids.tolist()))
        return real(ids)

    monkeypatch.setattr(model, "_batch_probs", spy)
    return scored


def test_brute_force_scores_each_size_once_and_memoizes(monkeypatch):
    inst = gen_random(7, 5, model="markov", seed=3)
    expected = {k: reference_brute_oracle(inst, k) for k in range(1, 6)}
    scored = _spy_scored(monkeypatch, inst.choice_model)
    oracle = BruteForceOracle(inst)
    first = oracle.best_assortment(3)
    # the first call settles every size up to min(m, n), scoring no subset
    # twice; every single product is scored, larger subsets only as needed
    assert sorted(oracle._answers) == [1, 2, 3, 4, 5]
    assert len(set(scored)) == len(scored) < sum(comb(7, s) for s in range(1, 6))
    assert {len(ids) for ids in scored} <= {1, 2, 3, 4, 5}
    assert sorted(ids for ids in scored if len(ids) == 1) == [(i,) for i in range(7)]
    scored.clear()
    assert first == expected[3]
    assert {k: oracle.best_assortment(k) for k in (3, 1, 5, 4, 2)} == expected
    assert scored == []


def _reference_answers(instance):
    """size -> (set, revenue) of the per-subset record loop, as ``_answers`` holds."""
    model, prices = instance.choice_model, instance.prices
    best, best_rev, out = frozenset(), 0.0, {}
    for size in range(1, min(instance.m, instance.n) + 1):
        for subset in combinations(range(instance.n), size):
            rev = expected_revenue(model, prices, subset)
            if rev > best_rev + 1e-15:
                best, best_rev = frozenset(subset), rev
        out[size] = (best, best_rev)
    return out


def _line_instance(prices, model, m):
    return Instance(prices, model, m, LineBrowsing([1.0] + [0.0] * (m - 1)))


def _quit_now(n):
    """Transitions where every product goes straight to quit: P_j(S) = arrival[j + 1]."""
    rho = np.zeros((n + 1, n + 1))
    rho[:, 0] = 1.0
    return rho


def _leaking(n, leak=1e-12):
    """Transitions among the products that reach quit only with probability ``leak``."""
    rho = np.zeros((n + 1, n + 1))
    rho[1:, 1:] = (1.0 - leak) / (n - 1) * (1.0 - np.eye(n))
    rho[0, 0] = 1.0
    rho[1:, 0] = leak
    return rho


def _bound_instances():
    """Random instances of every family with m < n, m = n and m > n, random
    Markov ones over every browsing family with n from 2 to 14 and m from 1
    to 7, and cases where the substitutability or purchase-mass bound is
    tight or empty, or the Markov error bound huge."""
    insts = [
        gen_random(n, m, model=family, seed=n + m)
        for family in ("mnl", "mmnl", "markov", "ranked")
        for n, m in ((8, 4), (7, 7), (5, 7))
    ]
    shapes = [(2, 1), (5, 3), (7, 7), (14, 5), (3, 6), (9, 4), (11, 2), (12, 6)]
    browsings = ("line", "explicit", "singleton", "full")
    for i, (n, m) in enumerate(shapes):
        insts.append(gen_random(n, m, model="markov", browsing=browsings[i % 4], seed=i))
    rng = np.random.default_rng(38)
    for n in (4, 7):
        rho = np.vstack([np.eye(1, n + 1), rng.dirichlet(np.ones(n + 1), n)])
        no_quit = np.concatenate(([0.0], rng.dirichlet(np.ones(n))))  # lambda_0 = 0
        mostly_quit = np.concatenate(([0.9], 0.1 * rng.dirichlet(np.ones(n))))
        # segment and list probabilities summing to 1 + 8e-10, within the
        # input tolerance: each product past the first adds about 2e-11 to
        # the revenue, a record that a purchase cap of exactly 1 would skip
        shares = [1.0 - (n - 1) * 1e-11 + 8e-10] + [1e-11] * (n - 1)
        for step in (0.0, np.spacing(2.0), 1e-15):
            prices = 2.0 + step * np.arange(n)
            for model in (
                MarkovModel(no_quit, rho),
                MarkovModel(mostly_quit, rho),
                # the full set buys the whole arrival mass: its mass bound is tight
                MarkovModel(mostly_quit, _quit_now(n)),
                MarkovModel(no_quit, _leaking(n)),
                RankedListModel([(p, [i]) for i, p in enumerate(shares)], n),
                MmnlModel([(p, np.eye(n)[i] * 1e12) for i, p in enumerate(shares)]),
            ):
                insts.append(_line_instance(prices, model, n + 1))
    rng = np.random.default_rng(20)
    for n in (4, 7):
        for step in (0.0, np.spacing(2.0), 1e-15, 1e-13):
            prices = 2.0 + step * np.arange(n)
            arrival = rng.dirichlet(np.ones(n + 1))
            for model in (
                MarkovModel(arrival, _quit_now(n)),  # UB(S) = R(S)
                MarkovModel(np.full(n + 1, 1.0 / (n + 1)), _quit_now(n)),
                MarkovModel(arrival, _leaking(n)),
                MnlModel(np.ones(n)),
                MmnlModel([(0.5, np.ones(n)), (0.5, rng.uniform(0.5, 2.0, n))]),
                RankedListModel([(0.5, list(range(n))), (0.5, list(range(n))[::-1])], n),
            ):
                insts.append(_line_instance(prices, model, n - 1))
    # A zero-weight product leaves every other probability as it is, so a set
    # with one ties the set without it and its bound is tight. From 8 members
    # numpy's sum groups the weights by position, so the zero regroups them,
    # and at revenues near 1000 the ulps that moves clear the 1e-15 record
    # margin: without the rounding margin the pass skips those records.
    for seed in (0, 3):
        rng = np.random.default_rng(seed)
        weights = np.where(rng.random(12) < 0.3, 0.0, rng.uniform(0.5, 3.0, 12))
        prices = rng.uniform(1000.0, 1001.0, 12)
        insts.append(_line_instance(prices, MnlModel(weights), 12))
        insts.append(_line_instance(prices[:9], markov_from_mnl(MnlModel(weights[:9])), 7))
    return insts


@pytest.mark.parametrize("batch, cells", _BLOCKS)
def test_bounded_brute_force_answers_equal_the_full_enumeration(monkeypatch, batch, cells):
    monkeypatch.setattr(oracle_module, "_BATCH", batch)
    monkeypatch.setattr(oracle_module, "_CELLS", cells)
    for inst in _bound_instances():
        oracle = BruteForceOracle(inst)
        oracle.best_assortment(1)
        expected = _reference_answers(inst)
        assert sorted(oracle._answers) == sorted(expected)
        for size, (got, rev) in oracle._answers.items():
            # the reference's revenue is expected_revenue of its set
            want, want_rev = expected[size]
            assert (got, rev.hex()) == (want, want_rev.hex()), size


def test_per_size_subsets_and_drop_ranks_follow_combinations_order():
    for n in range(1, 11):
        binom = np.array([[comb(n - 1 - c, k) for c in range(n)] for k in range(n + 1)])
        subsets, position = np.zeros((1, 0), dtype=np.int8), {(): 0}
        for s in range(1, n + 1):
            subsets = oracle_module._extend(subsets, n)
            expected = list(combinations(range(n), s))
            assert subsets.dtype == np.int8 and subsets.tolist() == [list(c) for c in expected]
            ranks = oracle_module._drop_ranks(subsets, binom)
            assert ranks.shape == (s, len(expected))
            want = [[position[c[:p] + c[p + 1 :]] for c in expected] for p in range(s)]
            assert ranks.tolist() == want, (n, s)
            position = {c: r for r, c in enumerate(expected)}


def test_brute_force_bound_chunks_hold_at_most_cells_bounds(monkeypatch):
    monkeypatch.setattr(oracle_module, "_CELLS", 10)
    chunks, drop_ranks = [], oracle_module._drop_ranks

    def spy(ids, binom):
        chunks.append(ids.shape)
        return drop_ranks(ids, binom)

    monkeypatch.setattr(oracle_module, "_drop_ranks", spy)
    BruteForceOracle(gen_random(6, 4, model="markov", browsing="explicit", seed=0))._pass(4)
    # size s: C(6, s) subsets in chunks of 10 // s, the last one short
    assert chunks == [
        (min(10 // s, comb(6, s) - start), s)
        for s in range(1, 5)
        for start in range(0, comb(6, s), 10 // s)
    ]


def test_brute_force_pass_memory_stays_near_its_two_bound_tables():
    # whole-size rank or gather arrays would reach several times the tables
    inst = gen_random(20, 10, model="ranked", browsing="explicit", seed=3)
    tables = (comb(20, 10) * 10 + comb(20, 9) * 9) * 8  # 25.6 MiB
    tracemalloc.start()
    try:
        BruteForceOracle(inst).best_assortment(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * tables, peak / tables


def test_markov_error_bound_grows_with_the_longest_walk():
    arrival = np.full(6, 1.0 / 6)
    short = MarkovModel(arrival, _quit_now(5)).prob_error  # every walk one step
    assert 0.0 < short < 1e-10
    # walks of about 1e12 steps: the bound is useless, so everything is solved
    assert MarkovModel(arrival, _leaking(5)).prob_error > 1.0


def test_bounded_brute_force_solves_a_minority_of_subsets(monkeypatch):
    inst = gen_random(13, 6, model="markov", browsing="explicit", seed=0)
    scored = _spy_scored(monkeypatch, inst.choice_model)
    BruteForceOracle(inst).best_assortment(6)
    total = sum(comb(13, s) for s in range(1, 7))  # 4,095
    assert len(set(scored)) == len(scored) < 0.3 * total, len(scored)


def test_purchase_mass_bound_cuts_the_markov_solves(monkeypatch):
    inst = gen_random(13, 6, model="markov", browsing="explicit", seed=0)
    model = inst.choice_model
    assert 0.0 <= model.purchase_cap - (1.0 - model.arrival[0]) < 1e-12
    scored = _spy_scored(monkeypatch, model)
    capped = _table(BruteForceOracle(inst))
    solved = len(scored)
    scored.clear()
    # so loose a cap that the mass limit never binds
    monkeypatch.setattr(model, "purchase_cap", 1e300)
    assert _table(BruteForceOracle(inst)) == capped
    # 441 of 707
    assert solved < 0.65 * len(scored), (solved, len(scored))


@pytest.mark.parametrize("family", ["mnl", "mmnl", "markov", "ranked"])
def test_batched_oracles_equal_the_per_assortment_references(family):
    inst = gen_random(12, 6, model=family, seed=8)
    brute = BruteForceOracle(inst).best_assortment(6)
    uniform = _m_equals_n(gen_random(12, 6, model=family, price_range=(1.0, 1.0), seed=8))
    sets = _table(GreedyUniformOracle(uniform))
    # the references score one expected_revenue at a time
    assert brute == reference_brute_oracle(inst, 6)
    assert sets == {k: reference_greedy_uniform(uniform, k) for k in range(1, 13)}


def test_shared_brute_oracle_under_threads():
    inst = gen_random(8, 5, model="markov", seed=6)
    expected = {k: reference_brute_oracle(inst, k) for k in range(1, 6)}
    oracle = BruteForceOracle(inst)
    orders = [range(1, 6), range(5, 0, -1), (3, 1, 5, 2, 4), (2, 4, 1, 5, 3)] * 2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(orders)) as pool:
            futures = [
                pool.submit(lambda ks: {k: oracle.best_assortment(k) for k in ks}, order)
                for order in orders
            ]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(result == expected for result in results)
    # racing threads may each build a table, and each publishes a whole one
    answers = oracle._answers
    assert sorted(answers) == [1, 2, 3, 4, 5]
    for size in answers:
        assert top_up(inst, answers[size][0], size) == expected[size], size
    assert {k: oracle.best_assortment(k) for k in expected} == expected


def test_best_assortment_memoizes_every_oracle(monkeypatch):
    inst = gen_random(6, 3, model="mnl", price_range=(2.0, 2.0), seed=4)
    for cls in (BruteForceOracle, MnlExactOracle, GreedyUniformOracle):
        oracle = cls(inst)
        tops = []
        real = oracle._pass
        monkeypatch.setattr(oracle, "_pass", lambda top: tops.append(top) or real(top))
        answers = [oracle.best_assortment(k) for k in (2, 1, 2, 3, 1)]
        # one pass settles every size, whichever is asked first
        assert tops == [3], cls.__name__
        assert answers[0] == answers[2] and answers[1] == answers[4]


@pytest.mark.parametrize("n, m", [(6, 3), (3, 5)])
def test_first_call_builds_the_whole_table_in_one_pass(monkeypatch, n, m):
    inst = gen_random(n, m, model="mnl", price_range=(2.0, 2.0), seed=n + m)
    for cls in (BruteForceOracle, MnlExactOracle, GreedyUniformOracle):
        for first in (1, (1 + m) // 2, m):
            oracle = cls(inst)
            passes = []
            real = oracle._pass
            monkeypatch.setattr(oracle, "_pass", lambda *a: passes.append(a) or real(*a))
            oracle.best_assortment(first)
            assert len(passes) == 1, (cls.__name__, first)
            assert sorted(oracle._answers) == list(range(1, min(m, n) + 1)), (cls.__name__, first)
            for k in range(1, m + 1):
                oracle.best_assortment(k)
            assert len(passes) == 1, (cls.__name__, first)


@pytest.mark.parametrize("family", ["mnl", "mmnl", "markov", "ranked"])
@pytest.mark.parametrize("n, m", [(9, 6), (4, 7)])
def test_greedy_uniform_resumes_instead_of_restarting(monkeypatch, family, n, m):
    inst = gen_random(n, m, model=family, price_range=(2.0, 2.0), seed=n + m)
    expected = {
        k: top_up(inst, reference_greedy_uniform(inst, min(k, n)), k)
        for k in range(1, m + 1)
    }
    model = inst.choice_model
    real = model.revenues
    calls = []
    monkeypatch.setattr(model, "revenues", lambda *args: calls.append(1) or real(*args))
    oracle = GreedyUniformOracle(inst)
    got = {k: oracle.best_assortment(k) for k in range(1, m + 1)}
    # one pass of one round per size: min(m, n) batches, not m (m + 1) / 2
    assert len(calls) == min(m, n)
    assert got == expected


def test_brute_force_dominates_other_strategies():
    for seed in range(10):
        inst = gen_random(6, 4, model="mnl", price_range=(1.0, 1.0), seed=seed)
        brute = BruteForceOracle(inst)
        greedy = GreedyUniformOracle(inst)
        for k in range(1, 5):
            r_brute = _revenue(inst, brute.best_assortment(k))
            r_greedy = _revenue(inst, greedy.best_assortment(k))
            assert r_greedy <= r_brute + 1e-12
            assert r_greedy >= greedy.alpha * r_brute - 1e-12


def test_returned_assortments_hold_at_most_k_catalog_ids():
    for seed in range(5):
        inst = gen_random(5, 4, model="mmnl", seed=seed)
        oracle = BruteForceOracle(inst)
        for k in range(1, 5):
            chosen = oracle.best_assortment(k)
            assert len(chosen) <= k and chosen <= frozenset(range(inst.n))
            assert chosen >= oracle._answers[k][0]


def test_short_answer_adds_only_the_pricey_product():
    # strong cheap products pull the optimum down to the single pricey one,
    # which is already i_star, so the size-3 answer is that one product
    inst = Instance(
        [10.0, 1.0, 1.0, 1.0],
        MnlModel([1.0, 5.0, 5.0, 5.0]),
        3,
        LineBrowsing([1.0, 0.0, 0.0]),
    )
    oracle = BruteForceOracle(inst)
    assert oracle.best_assortment(1) == oracle.best_assortment(3) == frozenset({0})
    # a never-chosen pricey product stays out of the optimum, so a short
    # answer gains it, and only it, at no cost in revenue
    inst = Instance(
        [10.0, 1.0, 1.0],
        MnlModel([0.0, 5.0, 5.0]),
        3,
        LineBrowsing([1.0, 0.0, 0.0]),
    )
    oracle = BruteForceOracle(inst)
    assert oracle.best_assortment(2) == oracle._answers[3][0] == frozenset({1, 2})
    topped = oracle.best_assortment(3)
    assert topped == frozenset({0, 1, 2})
    assert _revenue(inst, topped) == pytest.approx(
        _revenue(inst, {1, 2}), abs=1e-12
    )


@pytest.mark.parametrize("family", ["mnl", "mmnl", "markov", "ranked"])
@pytest.mark.parametrize("prices", [(1.0, 10.0), (2.0, 2.0)], ids=["spread", "identical"])
def test_more_locations_than_products_keeps_catalog_ids(family, prices):
    # m > n: every budget past n reads the size-n entry, and no oracle
    # answer holds an id outside the catalog or more than k ids
    inst = gen_random(3, 6, model=family, price_range=prices, seed=17)
    oracles = [BruteForceOracle(inst)]
    if family == "mnl":
        oracles.append(MnlExactOracle(inst))
    if prices[0] == prices[1]:
        oracles.append(GreedyUniformOracle(inst))
    shorts = 0
    for oracle in oracles:
        for k in range(1, inst.m + 1):
            chosen = oracle.best_assortment(k)
            assert len(chosen) <= k and chosen <= frozenset(range(inst.n))
            found = oracle._answers[min(k, inst.n)][0]
            short = len(found) < k
            assert chosen == (found | {inst.i_star} if short else found)
            shorts += short
    assert shorts > 0


def test_cardinality_domain_errors():
    inst = gen_random(4, 2, model="mnl", seed=0)
    oracle = BruteForceOracle(inst)
    with pytest.raises(ValueError):
        oracle.best_assortment(0)
    with pytest.raises(ValueError):
        oracle.best_assortment(3)  # k > m


@pytest.mark.parametrize("k", [1.5, "2", True, 2.0, np.bool_(True), np.float64(2.0)])
def test_budget_reads_the_id_type_rule(k):
    inst = gen_random(4, 2, model="mnl", seed=0)
    oracle = BruteForceOracle(inst)
    with pytest.raises(ValueError, match=r"cardinality .* outside \[1, 2\]"):
        oracle.best_assortment(k)
    assert oracle.best_assortment(np.int64(2)) == oracle.best_assortment(2)


def test_brute_force_size_guard():
    inst = gen_random(23, 2, model="mnl", seed=0)
    with pytest.raises(SizeGuardError):
        BruteForceOracle(inst)


def test_greedy_uniform_requires_identical_prices():
    inst = gen_random(4, 2, model="mnl", price_range=(1.0, 5.0), seed=0)
    with pytest.raises(ValueError):
        GreedyUniformOracle(inst)


def test_greedy_uniform_assortment_edges():
    inst = gen_uniform_line(5)  # m = n = 5
    oracle = GreedyUniformOracle(inst)
    for k in (0, 6):
        with pytest.raises(ValueError):
            oracle.best_assortment(k)
    assert oracle.best_assortment(5) == frozenset(range(5))


def test_greedy_uniform_matches_brute_on_small_mnl():
    for seed in range(10):
        inst = gen_random(5, 2, model="mnl", price_range=(2.0, 2.0), seed=seed)
        greedy = GreedyUniformOracle(inst).best_assortment(2)
        brute = BruteForceOracle(inst).best_assortment(2)
        assert _revenue(inst, greedy) == pytest.approx(
            _revenue(inst, brute), abs=1e-9
        )


def test_exact_oracle_dispatch():
    mnl_inst = gen_random(4, 2, model="mnl", seed=1)
    assert isinstance(exact_oracle(mnl_inst), MnlExactOracle)
    markov_inst = gen_random(4, 2, model="markov", seed=1)
    assert isinstance(exact_oracle(markov_inst), BruteForceOracle)
    assert exact_oracle(mnl_inst).alpha == 1.0


def test_oracle_revenue_agrees_with_direct_computation():
    inst = gen_random(6, 3, model="ranked", seed=2)
    oracle = BruteForceOracle(inst)
    chosen = oracle.best_assortment(3)
    assert _revenue(inst, chosen) == pytest.approx(
        direct_revenue(inst, chosen), abs=1e-12
    )
