"""Independent oracles shared by the test modules.

Everything here recomputes quantities through a different route than the
library (recursive enumeration instead of itertools, power iteration
instead of a linear solve) so agreement is meaningful.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from placement_opt import (
    EMPTY_SLOT,
    Instance,
    MmnlModel,
    MnlModel,
    RankedListModel,
    SamplerBrowsing,
    WEvaluator,
    canon,
    expected_revenue,
    products_at,
)
from placement_opt.choice import RationalityViolation


def direct_revenue(instance: Instance, ids) -> float:
    """Assortment revenue from one ``choice_probs`` call, summed in id order."""
    ids = sorted(set(ids))
    probs = instance.choice_model.choice_probs(ids)
    return sum(instance.prices[i] * probs[i] for i in ids)


def twin_optimum(instance: Instance) -> float:
    """Optimal placement value by recursive slot-filling enumeration.

    Independent of the library's brute force: different traversal, different
    assortment assembly, no shared caches.
    """
    support = instance.browsing.support()
    n, m = instance.n, instance.m
    slots = [0] * m
    best = -1.0

    def recurse(depth: int):
        nonlocal best
        if depth == m:
            w = 0.0
            for visited, prob in support:
                w += prob * direct_revenue(instance, {slots[j] for j in visited})
            best = max(best, w)
            return
        for i in range(n):
            slots[depth] = i
            recurse(depth + 1)

    recurse(0)
    return best


def reference_revenue_rows(prices, ids, probs) -> np.ndarray:
    """Row sums of ``r_i p_i`` from 0.0, one column at a time in id order."""
    rev = np.zeros(len(ids))
    for col in range(ids.shape[1]):
        rev = rev + prices[ids[:, col]] * probs[:, col]
    return rev


def absorption_by_iteration(model, offered, steps: int = 5000) -> dict[int, float]:
    """Markov absorption probabilities by stepping the chain forward.

    Accumulates the probability of first hitting each offered product over
    path lengths 1, 2, ..., independent of the library's linear solve.
    """
    offered = sorted(set(offered))
    n = model.n
    absorbing = {0} | {i + 1 for i in offered}
    mass = np.array(model.arrival, dtype=float)
    hit = {i: 0.0 for i in offered}
    for i in offered:
        hit[i] += mass[i + 1]
    transient_mass = mass.copy()
    for s in absorbing:
        transient_mass[s] = 0.0
    for _ in range(steps):
        if transient_mass.sum() < 1e-16:
            break
        moved = transient_mass @ model.transitions
        for i in offered:
            hit[i] += moved[i + 1]
        transient_mass = moved
        for s in absorbing:
            transient_mass[s] = 0.0
    return hit


def reference_choice_probs(model, key) -> dict[int, float]:
    """Purchase probabilities of one sorted assortment, one formula per family.

    The per-assortment dict builders the library's batched kernel must match
    bit for bit: one weight sum per assortment for MNL and MMNL, a walk down
    every ranked list in list order, and one absorption solve per assortment
    (indexed with ``np.ix_``) for a Markov chain.
    """
    if isinstance(model, MnlModel):
        denom = 1.0 + float(model.weights[list(key)].sum())
        return {i: float(model.weights[i]) / denom for i in key}
    if isinstance(model, MmnlModel):
        cols = model.weight_matrix[:, list(key)]
        denom = 1.0 + cols.sum(axis=1)
        probs = (cols / denom[:, None]) * model.thetas[:, None]
        total = probs.sum(axis=0)
        return {i: float(total[pos]) for pos, i in enumerate(key)}
    if isinstance(model, RankedListModel):
        offered = set(key)
        out = {i: 0.0 for i in key}
        for prob, order in model.lists:
            for i in order:
                if i in offered:
                    out[i] += prob
                    break
        return out
    absorbing = [0] + [i + 1 for i in key]
    offered = set(absorbing)
    transient = [s for s in range(model.n + 1) if s not in offered]
    if not transient:
        return {i: float(model.arrival[i + 1]) for i in key}
    q = model.transitions[np.ix_(transient, transient)]
    r = model.transitions[np.ix_(transient, absorbing)]
    hit = np.linalg.solve(np.eye(len(transient)) - q, r)
    absorbed = model.arrival[absorbing] + model.arrival[transient] @ hit
    return {i: float(absorbed[pos + 1]) for pos, i in enumerate(key)}


def reference_greedy_uniform(instance: Instance, k: int) -> frozenset[int]:
    """Uniform-price greedy assortment with one ``expected_revenue`` per trial.

    The straightforward loop the library's batched rounds must match
    exactly: candidates in id order, the first gain that beats the best so
    far by more than 1e-15 wins the round.
    """
    model, prices = instance.choice_model, instance.prices
    chosen: set[int] = set()
    current = 0.0
    for _ in range(k):
        best_gain, best_i = -np.inf, None
        for i in range(instance.n):
            if i not in chosen:
                gain = expected_revenue(model, prices, chosen | {i}) - current
                if gain > best_gain + 1e-15:
                    best_gain, best_i = gain, i
        chosen.add(best_i)
        current += best_gain
    return frozenset(chosen)


def reference_partition_greedy(instance: Instance, candidates, ev):
    """Partition greedy that re-evaluates the whole placement for every trial.

    The straightforward loop the library's incremental greedy must match
    bit for bit: every (candidate, empty location) pair in candidate-major
    order, the full ``ev.value`` of the trial placement, and the same
    ``1e-15`` strict-improvement tie rule.
    """
    m = instance.m
    slots = [EMPTY_SLOT] * m
    current = 0.0
    for _ in range(m):
        best_gain, best_pair = -np.inf, None
        for i in candidates:
            for j in range(m):
                if slots[j] != EMPTY_SLOT:
                    continue
                slots[j] = i
                w = ev.value(slots)
                slots[j] = EMPTY_SLOT
                gain = w - current
                if gain > best_gain + 1e-15:
                    best_gain, best_pair = gain, (i, j)
        i, j = best_pair
        slots[j] = i
        current += best_gain
    return tuple(slots), ev.value(slots)


def reference_brute_placement(instance: Instance):
    """(placement, w) of brute force with the W sum written out per placement.

    The loop the library's brute force must match bit for bit: every slot
    assignment in ``itertools.product`` order, ``sum_L P(L) * R(X(L))``
    added in support order with each revenue from ``ev.revenue``, and the
    first strictly better w wins.
    """
    ev = WEvaluator(instance)
    support = ev.support
    revenue = ev.revenue
    best_w, best = -1.0, None
    for slots in product(range(instance.n), repeat=instance.m):
        w = 0.0
        for locations, prob in support:
            w += prob * revenue(slots[j] for j in locations)
        if w > best_w:
            best_w, best = w, slots
    return best, best_w


def reference_estimate_w(instance: Instance, slots, plan, rng):
    """Sample-average revenue with one browsing draw per sample.

    The straightforward loop the library's block-drawing estimator must
    match bit for bit, estimate and generator end state alike: a scalar
    ``sample(rng)`` per sample, revenue memoized per product set, and the
    running sum in draw order.
    """
    model, prices = instance.choice_model, instance.prices
    cache: dict[tuple[int, ...], float] = {}
    total = 0.0
    for _ in range(plan.samples):
        key = canon(products_at(slots, instance.browsing.sample(rng)))
        if key not in cache:
            cache[key] = expected_revenue(model, prices, key)
        total += cache[key]
    return total / plan.samples, plan.samples


def with_sampler(instance: Instance) -> Instance:
    """The instance with its browsing replaced by an opaque simulator that
    visits each location with probability 1/2."""
    m = instance.m

    def draw(rng):
        return np.flatnonzero(rng.random(m) < 0.5)

    return Instance(instance.prices, instance.choice_model, m, SamplerBrowsing(draw))


def top_up(instance: Instance, found, k: int) -> frozenset[int]:
    """An oracle's answer for budget k from the set its pass found: the set
    itself, plus the highest-price product if it has fewer than k members."""
    found = frozenset(found)
    return found if len(found) >= k else found | {instance.i_star}


def reference_brute_oracle(instance: Instance, k: int) -> frozenset[int]:
    """Brute-force oracle answer that re-enumerates sizes 1..k for this k.

    The straightforward per-k loop the library's one-pass oracle must match
    exactly: every subset of sizes 1..min(k, n) in ``combinations`` order,
    one ``expected_revenue`` each, a new record only when it beats the best
    so far by more than 1e-15, then the highest-price product if the record
    has fewer than k members.
    """
    model, prices = instance.choice_model, instance.prices
    best, best_rev = frozenset(), 0.0
    for size in range(1, min(k, instance.n) + 1):
        for subset in combinations(range(instance.n), size):
            rev = expected_revenue(model, prices, subset)
            if rev > best_rev + 1e-15:
                best, best_rev = frozenset(subset), rev
    return top_up(instance, best, k)


def reference_best_of_many(instance: Instance, oracle):
    """(w, k, slots) of the best-of-many loop, one prefix placement per k.

    Each k's sorted oracle assortment fills the first slots, the rest are
    filled with the priciest product, and the first strictly better w wins.
    """
    from placement_opt import fill_empty

    ev = WEvaluator(instance)
    m = instance.m
    best = None
    for k in range(1, m + 1):
        members = sorted(oracle.best_assortment(k))
        slots = fill_empty(instance, tuple(members) + (EMPTY_SLOT,) * (m - len(members)))
        w = ev.value(slots)
        if best is None or w > best[0]:
            best = (w, k, slots)
    return best


def reference_randomized(instance: Instance, oracle, repetitions: int, rng, value):
    """(w, k, slots) of the randomized solver's loop, one value per draw.

    Each k draws from k entries, the sorted oracle set and empty slots;
    every drawn row is filled and evaluated in draw order, repeats included;
    the first strictly better value wins. ``value`` maps a slot tuple to its
    value, as the library's exact evaluator does.
    """
    from placement_opt import fill_empty

    best = None
    for k in range(1, instance.m + 1):
        members = sorted(oracle.best_assortment(k))
        members = np.array(members + [EMPTY_SLOT] * (k - len(members)))
        draws = rng.integers(0, len(members), size=(repetitions, instance.m))
        for row in draws:
            slots = fill_empty(instance, tuple(int(i) for i in members[row]))
            w = value(slots)
            if best is None or w > best[0]:
                best = (w, k, slots)
    return best


def reference_mnl_bisection(instance: Instance, k: int) -> tuple[frozenset[int], float]:
    """(exact MNL set of at most k products, final lo) from a bisection of
    size k alone.

    The scalar loop the library's bisection must match exactly: every
    midpoint tested, one ``lexsort`` per step, the gain as the sum of the
    k best positive scores, and the early exit once an update would leave
    lo or hi unchanged.
    """

    def top_scores(t: float) -> tuple[np.ndarray, np.ndarray]:
        v = instance.choice_model.weights
        scores = v * (instance.prices - t)
        order = np.lexsort((np.arange(scores.size), -scores))
        return order[:k], scores

    lo, hi = 0.0, float(instance.prices.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        top, scores = top_scores(mid)
        gain = float(np.maximum(scores[top], 0.0).sum())
        if gain >= mid:
            if mid == lo:
                break
            lo = mid
        else:
            if mid == hi:
                break
            hi = mid
    top, scores = top_scores(lo)
    return frozenset(int(i) for i in top if scores[i] > 0.0), lo


def reference_markov_greedy(instance: Instance, oracle):
    """(w, k, slots) of the markov-greedy loop, one greedy pass for every k.

    The per-k loop the library's one-pass-per-distinct-set solver must match
    exactly: a partition greedy over each k's members, even when an
    earlier k returned the same set, and the first strictly better w wins.
    """
    from placement_opt.solvers import _partition_greedy

    best = None
    for k in range(1, instance.m + 1):
        members = sorted(oracle.best_assortment(k))
        [(slots, w)] = _partition_greedy(instance, [members])
        if best is None or w > best[0]:
            best = (w, k, slots)
    return best


def reference_weak_rationality(model, n, trials=None, seed=0, tol=1e-9):
    """Substitutability check with two ``choose_prob`` calls per triple.

    The straightforward triple loop the library's check must match exactly,
    violations in the same order and with the same magnitudes: subsets in
    mask order, then products ``i`` of the subset, then added products ``j``.
    """
    violations = []
    if n < 2:
        return violations

    def check_triple(subset, i, j):
        before = model.choose_prob(i, subset)
        after = model.choose_prob(i, subset + (j,))
        if after > before + tol:
            violations.append(RationalityViolation(i, subset, j, after - before))

    if trials is None:
        for mask in range(1, 2**n):
            subset = tuple(i for i in range(n) if mask >> i & 1)
            rest = [j for j in range(n) if not mask >> j & 1]
            for i in subset:
                for j in rest:
                    check_triple(subset, i, j)
    else:
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            size = int(rng.integers(1, n))
            subset = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            rest = [j for j in range(n) if j not in subset]
            i = int(rng.choice(list(subset)))
            j = int(rng.choice(rest))
            check_triple(subset, i, j)
    return violations
