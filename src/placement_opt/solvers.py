"""Placement algorithms and exact expected-revenue evaluation.

The expected revenue of a placement is the browsing-weighted sum of
assortment revenues over visited location sets. Solvers enumerate that sum
exactly (explicit / line browsing).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from itertools import chain, compress, filterfalse, product as iter_product
from typing import Callable, Iterable, Sequence

import numpy as np

from .browsing import ExplicitBrowsing, LineBrowsing
from .choice import MarkovModel, MnlModel, _sum_leading, expected_revenue
from .core import EMPTY_SLOT, Instance, SizeGuardError, _ids, _is_id, canon
from .estimation import EstimationPlan, estimate_w
from .oracle import AssortmentOracle, last_record

PLACEMENT_BRUTE_GUARD = 2_000_000
PAIR_LATTICE_GUARD = 18  # most product-location pairs the pair lattice enumerates
# Trial cells (support x candidates x empty locations) per stacked gains fold
# of the lockstep partition greedy. It bounds the round's arrays: folding
# every greedy of a round at once was a little faster on n = 100, m = 20
# line instances but took about 5% more peak memory.
_GREEDY_CELLS = 1 << 14


@dataclass(frozen=True)
class WEstimate:
    """Monte-Carlo revenue estimate with the plan that produced it."""

    value: float
    epsilon: float
    delta: float
    samples: int


@dataclass
class SolveReport:
    """Outcome of one solver run: placement plus its (exact or estimated) value."""

    algorithm: str
    placement: tuple[int, ...]
    w_exact: float | None
    w_estimate: WEstimate | None
    k: int | None
    seed: int
    ms: int

    def __post_init__(self):
        if (self.w_exact is None) == (self.w_estimate is None):
            raise ValueError("exactly one of w_exact / w_estimate must be set")
        if any(s < 0 for s in self.placement):
            raise ValueError("reported placements may not contain empty slots")

    @property
    def w(self) -> float:
        return self.w_exact if self.w_exact is not None else self.w_estimate.value

    def to_dict(self) -> dict:
        return {**asdict(self), "placement": list(self.placement)}


class WEvaluator:
    """Exact expected-revenue evaluation with per-instance memoization.

    Assortment revenues are cached by the frozenset of catalog ids offered
    (visited sets repeat assortments heavily); placement values are summed
    afresh on every call. Empty-slot sentinels contribute nothing to revenue.
    Keys are frozensets, not integer bitmasks: a frozenset costs time linear
    in the assortment, a bitmask time linear in the catalog, and
    ``gen_heavy_tail_line(256)`` has about 33k products (bitmask keys took
    acceptance check 7 from about 3 s to 336 s).
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self._support = tuple(
            (tuple(sorted(s)), p) for s, p in instance.browsing.support()
        )
        self._revenues: dict[frozenset[int], float] = {}

    @property
    def support(self) -> tuple[tuple[tuple[int, ...], float], ...]:
        """Browsing support as (sorted location tuple, probability) pairs."""
        return self._support

    def revenue(self, ids: Iterable[int]) -> float:
        """Expected revenue of an assortment, ignoring empty-slot sentinels;
        any other id that fails ``core._ids`` raises ValueError."""
        ids = ids if isinstance(ids, (set, frozenset)) else tuple(ids)  # a set merges True into 1
        if not {int}.issuperset(map(type, ids)):  # as in ``value``
            _ids(filterfalse(_is_id, ids), self.instance.n, "assortment")  # raises unless none
        key = frozenset(ids)
        if EMPTY_SLOT in key:
            key = key - {EMPTY_SLOT}
        rev = self._revenues.get(key)
        if rev is None:
            rev = expected_revenue(self.instance.choice_model, self.instance.prices, key)
            self._revenues[key] = rev
        return rev

    def value(self, slots: Sequence[int]) -> float:
        """Expected revenue of a (possibly partial) placement."""
        if len(slots) != self.instance.m:
            raise ValueError(f"placement must fill {self.instance.m} slots")
        # types are checked on every call, as 1.0 and True hash like 1; range only on a
        # miss, as the cache holds ids ``choice_probs`` accepted. Cached revenues are read
        # directly; only a miss (or a key holding a sentinel) goes through revenue
        if not {int}.issuperset(map(type, slots)):
            _ids(filterfalse(_is_id, slots), self.instance.n, "placement")  # raises unless none
        revenues = self._revenues
        total = 0.0
        for locations, prob in self._support:
            offered = frozenset([slots[j] for j in locations])
            rev = revenues.get(offered)
            if rev is None:
                rev = self.revenue(offered)
            total += prob * rev
        return total


def evaluate_exact(instance: Instance, slots: Sequence[int]) -> float:
    """Exact expected revenue of a placement under enumerable browsing."""
    return WEvaluator(instance).value(slots)


def fill_empty(instance: Instance, slots: Sequence[int]) -> tuple[int, ...]:
    """Replace empty slots with the highest-price product.

    Never decreases expected revenue: revenue can only gain from offering
    the priciest product.
    """
    star = instance.i_star
    return tuple(star if s == EMPTY_SLOT else s for s in slots)


def _report(
    algorithm: str,
    start: float,
    seed: int,
    best: tuple[float, int | None, tuple[int, ...]],
    plan: EstimationPlan | None = None,
) -> SolveReport:
    """Report of a run begun at ``start`` that found ``best = (w, k, slots)``;
    ``w`` is exact unless ``plan`` is the estimation plan that produced it."""
    w, k, slots = best
    return SolveReport(
        algorithm=algorithm,
        placement=slots,
        w_exact=w if plan is None else None,
        w_estimate=None
        if plan is None
        else WEstimate(w, plan.epsilon, plan.delta, plan.samples),
        k=k,
        seed=seed,
        ms=int(round((time.perf_counter() - start) * 1000)),
    )


def brute_force_placement(
    instance: Instance, guard: int = PLACEMENT_BRUTE_GUARD, seed: int = 0
) -> SolveReport:
    """Globally optimal placement by enumerating every slot assignment.

    Test oracle for the optimum; guarded because the space has n^m points.
    """
    start = time.perf_counter()
    n, m = instance.n, instance.m
    # exact for m up to the guard's bit length; past it, n >= 2 exceeds the
    # guard already, and n**m itself may be too large to compute
    if n ** min(m, guard.bit_length() + 1) > guard:
        raise SizeGuardError(f"brute force needs {n}^{m} > {guard} placements")
    value = WEvaluator(instance).value
    best_w, best = -1.0, None
    for slots in iter_product(range(n), repeat=m):
        w = value(slots)
        if w > best_w:
            best_w, best = w, slots
    return _report("brute-force", start, seed, (best_w, None, best))


def _best_over_k(
    instance: Instance,
    oracle: AssortmentOracle,
    candidates: Callable[
        [list[tuple[int, ...]]], Iterable[tuple[int, float, tuple[int, ...]]]
    ],
) -> tuple[float, int, tuple[int, ...]]:
    """(w, k, slots) of the best candidate placement over k = 1..m.

    Asks the oracle for its best assortment of at most k products once per
    k, in order, and hands the list of them, each a sorted tuple (budget k
    at index k - 1), to ``candidates``, which yields the ``(k, w, slots)``
    candidates a solver builds from them, in k order. The first strictly
    better value wins, so ties go to the smaller k and, within a k, to the
    earlier candidate.
    """
    assortments = [canon(oracle.best_assortment(k)) for k in range(1, instance.m + 1)]
    best = None
    for k, w, slots in candidates(assortments):
        if best is None or w > best[0]:
            best = (w, k, slots)
    return best


def best_of_many_line(
    instance: Instance, oracle: AssortmentOracle, seed: int = 0
) -> SolveReport:
    """Try the oracle's set for budget k in the first slots, for every k.

    Only valid when customers scan a line: visited sets are prefixes, so
    concentrating a good assortment at the top is meaningful; the priciest
    product fills the slots after it. Keeps the k whose prefix placement
    earns the most. Every k >= n gets the size-n set, so the scan stops at
    k = n: a larger k could only tie it.
    """
    if not isinstance(instance.browsing, LineBrowsing):
        raise ValueError("best_of_many_line requires line browsing")
    start = time.perf_counter()
    value = WEvaluator(instance).value
    i_star, m = instance.i_star, instance.m

    def prefix(assortments):
        for k, members in enumerate(assortments[: instance.n], 1):
            slots = members + (i_star,) * (m - len(members))
            yield k, value(slots), slots

    return _report("best-of-many", start, seed, _best_over_k(instance, oracle, prefix))


def randomized_placement(
    instance: Instance,
    oracle: AssortmentOracle,
    repetitions: int = 32,
    seed: int = 0,
    rng: np.random.Generator | None = None,
) -> SolveReport:
    """Uniform random replication of the best size-k assortment, best of all k.

    For each k, every slot independently receives a uniform draw from k
    entries, the oracle's set for budget k and, if it is short, copies of the
    priciest product (products may repeat); the best evaluated draw over all
    k and all repetitions wins. Randomizing the layout hedges against
    unknown browsing patterns.
    """
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    start = time.perf_counter()
    rng = np.random.default_rng(seed) if rng is None else rng
    i_star, m = instance.i_star, instance.m
    value = WEvaluator(instance).value

    def replicas(assortments):
        for k, members in enumerate(assortments, 1):
            members = np.array(members + (i_star,) * (k - len(members)))
            draws = rng.integers(0, len(members), size=(repetitions, m))
            # a repeated draw cannot beat its first occurrence, so each
            # distinct placement is evaluated once, in draw order
            for slots in dict.fromkeys(map(tuple, members[draws].tolist())):
                yield k, value(slots), slots

    return _report("randomized", start, seed, _best_over_k(instance, oracle, replicas))


def _partition_greedy(
    instance: Instance,
    candidate_lists: Sequence[Sequence[int]],
    ev: WEvaluator,
) -> list[tuple[tuple[int, ...], float]]:
    """One greedy per candidate list, run in lockstep: ``[(slots, w), ...]``.

    Each greedy fills locations one product at a time, always taking the
    largest gain, one product per location (a partition constraint over
    product-location pairs); candidates may repeat across locations. Each
    pick is the ``last_record`` of the gains in candidate-major order, so
    ties break toward the earlier candidate, then the lower location id.

    Greedies whose picks so far agree share one state: slots, offered sets,
    current value and a table holding, for every visited set, the revenue
    row ``[R(X(L)), R(X(L) + c) for c in union]`` over the union of all
    lists' candidates. Rows are kept per offered set for the whole call, and
    a pick refreshes only the sets that contain the filled location. A
    trial value W(X + (c, j)) adds ``P(L) * R(X(L) + c)`` for sets
    containing j and ``P(L) * R(X(L))`` for the rest, left to right in
    support order, which is exactly the sum ``ev.value`` forms, so gains and
    tie-breaks match it bit for bit. Every round folds the trials of
    consecutive states, each over its greedies' candidates, in one array of
    at most ``_GREEDY_CELLS`` cells (at least one state). Each greedy then
    scans its own candidates' gains in its own order (the lead's come first:
    one flat slice), and a state splits when its greedies pick differently.
    Gains that are all zero pick the first candidate at the first empty
    location. When every greedy's first candidate is already offered in
    every visited set holding an empty location, those picks change nothing,
    so every later round would repeat them: the state finishes at once, each
    greedy's first candidate filling all its empty locations.
    """
    m = instance.m
    support = ev.support
    cands = [list(c) for c in candidate_lists]
    union = list(dict.fromkeys(i for c in cands for i in c))
    _ids(union, instance.n, "candidates")  # once: ``row`` skips ev's check on cache hits
    column = {i: q for q, i in enumerate(union, 1)}  # column 0 holds R(X(L))
    probs = np.array([p for _, p in support])[:, None, None]
    visits = np.zeros((len(support), m), dtype=bool)
    for s, (locations, _) in enumerate(support):
        visits[s, list(locations)] = True
    containing = [np.flatnonzero(visits[:, j]).tolist() for j in range(m)]
    rows: dict[frozenset[int], np.ndarray] = {}
    revenues = ev._revenues  # hits are read directly, as in ``ev.value``

    def row(offered: frozenset[int]) -> np.ndarray:
        r = rows.get(offered)
        if r is None:
            sets = [offered] + [offered | {c} for c in union]
            r = [revenues[s] if s in revenues else ev.revenue(s) for s in sets]
            r = rows[offered] = np.array(r)
        return r

    def state(greedies: list[int]):
        """(greedies, their candidates' columns, the lead's first in its order,
        and each greedy's candidates as positions among them, in its order)."""
        cols = list(dict.fromkeys(column[i] for i in cands[greedies[0]]))
        scans = [range(len(cols))]
        cols += sorted({column[i] for g in greedies for i in cands[g]}.difference(cols))
        at = {q: t for t, q in enumerate(cols)}
        scans += [[at[column[i]] for i in cands[g]] for g in greedies[1:]]
        return greedies, np.array(cols), scans

    # a state lives in the entries of its first greedy: table[:, g] is the
    # support x (1 + union) table of the state greedy g leads
    table = np.tile(row(frozenset()), (len(support), len(cands), 1))
    offered = [[frozenset()] * len(support) for _ in cands]
    slots = [[EMPTY_SLOT] * m for _ in cands]
    free = np.ones((len(cands), m), dtype=bool)
    current = np.zeros(len(cands))
    states = [state(list(range(len(cands))))]
    finished: dict[tuple[int, ...], list[int]] = {}  # final slots -> greedies
    for size in range(m, 0, -1):
        # every state has ``size`` empty locations left
        split, done = [], 0
        while done < len(states):
            fold, cells = [], 0
            for st in states[done:]:
                if fold and cells + len(support) * len(st[1]) * size > _GREEDY_CELLS:
                    break
                fold.append(st)
                cells += len(support) * len(st[1]) * size
            done += len(fold)
            leads = [greedies[0] for greedies, _, _ in fold]
            widths = [len(cols) for _, cols, _ in fold]
            owner = np.repeat(leads, widths)
            cols = np.concatenate([cols for _, cols, _ in fold])
            empty = np.nonzero(free[leads])[1].reshape(len(fold), size)
            mask = visits[:, np.repeat(empty, widths, axis=0)]
            trial = np.where(
                mask, probs * table[:, owner, cols, None], probs * table[:, owner, :1]
            )
            gains = (_sum_leading(trial) - current[owner, None]).ravel().tolist()
            base = 0
            for (greedies, st_cols, scans), width, empty_lists in zip(fold, widths, empty.tolist()):
                # the state's column t holds block[t * size : (t + 1) * size]
                block, base = gains[base : base + width * size], base + width * size
                zero = not any(block)  # every gain is 0.0 or -0.0
                lead = greedies[0]
                if zero:  # finish if no first candidate is new to a set holding an empty location
                    held = visits[:, empty_lists].any(axis=1).tolist()
                    seen = set(compress(offered[lead], held))
                    if all(cands[g][0] in o for g in greedies for o in seen):
                        for g in greedies:
                            i = cands[g][0]
                            placed = tuple(i if x == EMPTY_SLOT else x for x in slots[lead])
                            finished.setdefault(placed, []).append(g)
                        continue
                picks: dict[tuple[int, int], tuple[float, list[int]]] = {}
                for g, scan in zip(greedies, scans):
                    if zero:  # the record is the first gain
                        at, gain = 0, 0.0
                    elif g == lead:  # its columns lead the state's, in its order
                        at, gain = last_record(block[: len(scan) * size])
                    else:
                        runs = (block[t * size : (t + 1) * size] for t in scan)
                        at, gain = last_record(chain.from_iterable(runs))
                    pair = scan[at // size], empty_lists[at % size]
                    picks.setdefault(pair, (gain, []))[1].append(g)
                # each group of greedies that picked alike continues as one
                # state; the first group keeps the shared one, so it goes last
                for (t, j), (gain, group) in reversed(picks.items()):
                    g, i = group[0], union[st_cols[t] - 1]
                    if g != lead:
                        table[:, g] = table[:, lead]
                        offered[g], slots[g] = list(offered[lead]), list(slots[lead])
                        free[g], current[g] = free[lead], current[lead]
                    slots[g][j] = i
                    free[g, j] = False
                    current[g] += gain
                    for s in containing[j]:
                        if i not in offered[g][s]:
                            offered[g][s] = offered[g][s] | {i}
                            table[s, g] = row(offered[g][s])
                if len(picks) == 1:
                    split.append((greedies, st_cols, scans))
                else:
                    split += [state(group) for _, group in picks.values()]
        states = split
    for greedies, _, _ in states:
        finished.setdefault(tuple(slots[greedies[0]]), []).extend(greedies)
    out = [None] * len(cands)
    for placed, greedies in finished.items():
        w = ev.value(placed)
        for g in greedies:
            out[g] = (placed, w)
    return out


def uniform_price_matroid_greedy(instance: Instance, seed: int = 0) -> SolveReport:
    """Greedy placement for identically priced products.

    With one common price the placement objective is monotone submodular
    over product-location pairs, so greedy selection subject to the
    one-product-per-location constraint is at least 1/2 of optimal.
    """
    if np.ptp(instance.prices) != 0.0:
        raise ValueError("uniform_price_matroid_greedy requires identical prices")
    start = time.perf_counter()
    [(slots, w)] = _partition_greedy(instance, [range(instance.n)], WEvaluator(instance))
    return _report("uniform-greedy", start, seed, (w, None, slots))


def pair_objective_values(instance: Instance) -> np.ndarray:
    """Objective value for every subset of product-location pairs.

    Pair (i, j) has bit index i*m + j; entry ``mask`` holds the expected
    revenue when location j offers exactly the products paired with it in
    ``mask`` (multiple products per location are allowed here, which is what
    makes the subset lattice meaningful).
    """
    n, m = instance.n, instance.m
    if n * m > PAIR_LATTICE_GUARD:
        raise SizeGuardError(f"pair lattice has 2^{n * m} subsets, guard is 2^{PAIR_LATTICE_GUARD}")
    ev = WEvaluator(instance)
    support = ev.support
    values = np.empty(2 ** (n * m))
    for mask in range(values.size):
        per_location = [
            [i for i in range(n) if mask >> (i * m + j) & 1] for j in range(m)
        ]
        total = 0.0
        for locations, prob in support:
            offered = set()
            for j in locations:
                offered.update(per_location[j])
            total += prob * ev.revenue(offered)
        values[mask] = total
    return values


def _lattice_violations(
    values: Sequence[float], names: Sequence[str], tol: float
) -> list[str]:
    """Monotonicity and submodularity violations of a set function.

    ``values[mask]`` is the function on the subset of elements whose bits are
    set in ``mask``; ``names[e]`` describes element ``e``. Walks every chain
    U subset-of V and every element outside V.
    """
    size = len(names)
    violations: list[str] = []
    for v_mask in range(2**size):
        outside = [e for e in range(size) if not v_mask >> e & 1]
        for e in outside:
            if values[v_mask | 1 << e] < values[v_mask] - tol:
                violations.append(f"monotonicity: mask {v_mask} + {names[e]}")
        u_mask = v_mask
        while True:
            for e in outside:
                gain_small = values[u_mask | 1 << e] - values[u_mask]
                gain_large = values[v_mask | 1 << e] - values[v_mask]
                if gain_small < gain_large - tol:
                    violations.append(
                        f"submodularity: U {u_mask} within V {v_mask}, {names[e]}"
                    )
            if u_mask == 0:
                break
            u_mask = (u_mask - 1) & v_mask
    return violations


def check_pair_objective_properties(instance: Instance, tol: float = 1e-9) -> list[str]:
    """Exhaustive monotonicity and submodularity check of the pair objective.

    Covers every chain U subset-of V and every pair outside V. Returns
    human-readable violation descriptions (empty means both properties hold).
    """
    n, m = instance.n, instance.m
    values = pair_objective_values(instance)
    names = [f"pair ({i}, {j})" for i in range(n) for j in range(m)]
    return _lattice_violations(values, names, tol)


def check_restricted_revenue_properties(
    instance: Instance, members: Iterable[int], tol: float = 1e-9
) -> list[str]:
    """Monotonicity and submodularity of assortment revenue on a ground subset.

    Exhausts every A within B within ``members`` and every member outside B.
    """
    ids = sorted(set(_ids(members, instance.n, "members")))
    if len(ids) > 16:
        raise SizeGuardError("restricted revenue check is capped at 16 members")
    model, prices = instance.choice_model, instance.prices
    values = []
    for mask in range(2 ** len(ids)):
        subset = [ids[t] for t in range(len(ids)) if mask >> t & 1]
        values.append(expected_revenue(model, prices, subset))
    return _lattice_violations(values, [f"product {i}" for i in ids], tol)


def markov_deterministic_placement(
    instance: Instance, oracle: AssortmentOracle, seed: int = 0
) -> SolveReport:
    """Deterministic placement for Markov-style choice.

    For each k, the placement objective restricted to the oracle's set for
    budget k is monotone submodular, so a greedy one-product-per-location
    pass over just those products is provably good; the best k wins.
    The greedy depends on the products alone, so an assortment that an
    earlier k already returned is skipped: it would only tie that k. The
    greedies of the distinct assortments run in one lockstep pass.
    """
    if not isinstance(instance.choice_model, (MnlModel, MarkovModel)):
        raise ValueError(
            "markov_deterministic_placement needs a Markov (or MNL) choice model"
        )
    start = time.perf_counter()

    def greedies(assortments):
        first_k: dict[tuple[int, ...], int] = {}  # sorted set -> first k
        for k, members in enumerate(assortments, 1):
            first_k.setdefault(members, k)
        placed = _partition_greedy(instance, list(first_k), WEvaluator(instance))
        for k, (slots, w) in zip(first_k.values(), placed):
            yield k, w, slots

    best = _best_over_k(instance, oracle, greedies)
    return _report("markov-greedy", start, seed, best)


def sample_average_placement(
    instance: Instance,
    solve: Callable[[Instance], SolveReport],
    plan: EstimationPlan,
    rng: np.random.Generator,
) -> SolveReport:
    """``solve`` run on drawn browsing: sample-average approximation.

    Draws ``plan.samples`` visited sets from ``rng`` and solves the instance
    whose browsing is their empirical distribution, each drawn set with
    probability count / samples (Kleywegt, Shapiro & Homem-de-Mello 2002).
    The winner's value is one ``estimate_w`` on the next ``plan.samples``
    draws, independent of the choice, so it carries the plan's guarantee.
    This is how the exact solvers run on sampler-only browsing.
    """
    start = time.perf_counter()
    sets, index = instance.browsing.sample(rng, plan.samples)
    probs = np.bincount(index, minlength=len(sets)) / plan.samples
    browsing = ExplicitBrowsing(zip(sets, probs.tolist()))
    inner = solve(Instance(instance.prices, instance.choice_model, instance.m, browsing))
    value, _ = estimate_w(instance, inner.placement, plan, rng)
    return _report(inner.algorithm, start, inner.seed, (value, inner.k, inner.placement), plan)
