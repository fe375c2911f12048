"""Placement algorithms and exact expected-revenue evaluation.

The expected revenue of a placement is the browsing-weighted sum of
assortment revenues over visited location sets. Solvers enumerate that sum
exactly (explicit / line browsing).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from itertools import chain, compress, filterfalse, product as iter_product
from operator import itemgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from .browsing import ExplicitBrowsing, LineBrowsing
from .choice import MarkovModel, MnlModel, _sum_leading, expected_revenue
from .core import _CELLS, EMPTY_SLOT, Instance, SizeGuardError, _ids, _is_id, canon
from .estimation import EstimationPlan, estimate_w
from .oracle import AssortmentOracle, last_record

PLACEMENT_BRUTE_GUARD = 2_000_000
PAIR_LATTICE_GUARD = 18  # most product-location pairs the pair lattice enumerates


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

    The browsing support is compiled once: ``support`` as (sorted location
    tuple, probability) pairs, ``probs`` ``(S,)`` and ``visits`` ``(S, m)``
    boolean. Assortment revenues are cached by the frozenset of catalog ids
    offered (visited sets repeat assortments heavily); placement values are
    summed afresh on every call: ``value`` scores one placement, and
    ``support_sum`` every row of a block (``values``, the pair objective),
    bitwise as ``value`` would. Empty-slot sentinels add no revenue.
    Keys are frozensets, not integer bitmasks: a frozenset costs time linear
    in the assortment, a bitmask time linear in the catalog, and
    ``gen_heavy_tail_line(256)`` has about 33k products (bitmask keys took
    acceptance check 7 from about 3 s to 336 s).
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self.support = tuple((tuple(sorted(s)), p) for s, p in instance.browsing.support())
        self.probs = np.array([p for _, p in self.support])
        self.visits = np.zeros((len(self.support), instance.m), dtype=bool)
        for s, (locations, _) in enumerate(self.support):
            self.visits[s, list(locations)] = True
        self._revenues: dict[frozenset[int], float] = {}
        self._slot_ids = frozenset(range(instance.n)) | {EMPTY_SLOT}

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
        """Expected revenue of a (possibly partial) placement: every slot holds
        a catalog id or ``EMPTY_SLOT``, else ValueError."""
        n = self.instance.n
        if len(slots) != self.instance.m:
            raise ValueError(f"placement must fill {self.instance.m} slots")
        # types first, as 1.0 and True hash like 1; then the range of every slot, not
        # only of visited ones. Cached revenues are read directly; only a miss (or a
        # key holding a sentinel) goes through revenue
        if not {int}.issuperset(map(type, slots)):
            _ids(filterfalse(_is_id, slots), n, "placement")  # raises unless none
        if not self._slot_ids.issuperset(slots):
            _ids(filterfalse(self._slot_ids.__contains__, slots), n, "placement")  # raises
        revenues = self._revenues
        total = 0.0
        for locations, prob in self.support:
            offered = frozenset([slots[j] for j in locations])
            rev = revenues.get(offered)
            if rev is None:
                rev = self.revenue(offered)
            total += prob * rev
        return total

    def values(self, placements) -> np.ndarray:
        """Expected revenues of a block of full placements, a ``(D, m)`` array
        of catalog ids: entry d equals ``value(placements[d])`` bitwise.

        Any other shape raises ValueError, as does an id that fails
        ``core._ids``, ``EMPTY_SLOT`` included. Each row's offered sets are
        summed by ``support_sum`` over the block's distinct products.
        """
        m = self.instance.m
        placed = placements
        if not isinstance(placed, np.ndarray):
            placed = np.asarray(placed, dtype=object)  # keeps types: numpy reads True as 1
        if placed.ndim != 2 or placed.shape[1] != m:
            raise ValueError(f"placement block must be a (D, {m}) array, got shape {placed.shape}")
        placed = _ids(placed, self.instance.n, "placement")
        products, ranks = np.unique(placed, return_inverse=True)
        ranks = ranks.reshape(placed.shape)
        rows = np.arange(len(placed))[:, None]

        def member(visited: np.ndarray) -> np.ndarray:
            held = np.zeros((len(placed), len(products)), dtype=bool)
            held[rows, ranks[:, visited]] = True
            return held

        return self.support_sum(map(member, self.visits), products.tolist())

    def support_sum(self, members: Iterable[np.ndarray], products: Sequence[int]) -> np.ndarray:
        """``sum_L P(L) * R(offered)`` per row: ``members`` yields, for each
        support set in order, a ``(D, len(products))`` boolean array marking
        the ``products`` each row offers there. Each row's offered set is keyed
        by its packed membership, each distinct key's revenue read once through
        ``lookup``, and ``P(L) * R`` added in support order, as ``value`` adds."""
        total = 0.0
        for prob, member in zip(self.probs, members):
            keys = np.packbits(member, axis=1)
            keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            revs = self.lookup([frozenset(compress(products, held)) for held in member[first].tolist()])
            total = total + prob * revs[inverse]
        return total

    def lookup(self, offered: Iterable[frozenset[int]]) -> np.ndarray:
        """Revenues of offered sets (frozensets of catalog ids) as an array: cached
        ones read directly, without ``revenue``'s id check, each miss through it."""
        get = self._revenues.get
        return np.array([self.revenue(s) if (r := get(s)) is None else r for s in offered])


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

    Test oracle for the optimum; ``guard``, a nonnegative Python or numpy
    integer (else ValueError), caps the n^m placements it enumerates.
    """
    if not (_is_id(guard) and guard >= 0):
        raise ValueError(f"guard must be a nonnegative integer, got {guard!r}")
    start = time.perf_counter()
    n, m, guard = instance.n, instance.m, int(guard)
    # exact for m up to the guard's bit length; past it, n >= 2 exceeds the
    # guard already, and n**m itself may be too large to compute
    if n ** min(m, guard.bit_length() + 1) > guard:
        raise SizeGuardError(f"brute force needs {n}^{m} > {guard} placements")
    value = WEvaluator(instance).value
    placements = iter_product(range(n), repeat=m)
    best = max(((value(slots), None, slots) for slots in placements), key=itemgetter(0))
    return _report("brute-force", start, seed, best)


def _oracle_sets(instance: Instance, oracle: AssortmentOracle) -> list[tuple[int, ...]]:
    """The oracle's best assortment of at most k products for k = 1..m, asked
    once per k, in order, each a sorted tuple (budget k at index k - 1).

    The one place oracle answers enter the solvers: an answer holding an id
    that fails ``core._ids`` raises ValueError naming it, and one holding
    more than k ids raises ValueError naming k. Each solver keeps the first
    of its ``(w, k, slots)`` candidates with the largest ``w`` (``max`` over
    them in k order), so ties go to the smaller k and, within a k, to the
    earlier candidate.
    """
    sets = []
    for k in range(1, instance.m + 1):
        members = canon(_ids(oracle.best_assortment(k), instance.n, "oracle answer"))
        if len(members) > k:
            raise ValueError(f"oracle answer: {len(members)} ids exceed the budget k = {k}")
        sets.append(members)
    return sets


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
    candidates = []
    for k, members in enumerate(_oracle_sets(instance, oracle)[: instance.n], 1):
        slots = members + (i_star,) * (m - len(members))
        candidates.append((value(slots), k, slots))
    return _report("best-of-many", start, seed, max(candidates, key=itemgetter(0)))


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

    Every draw is scored, repeats included, by ``WEvaluator.values`` over
    blocks of whole ks in k order, each block at most ``core._CELLS`` slot
    cells (draws x m) unless one k alone is more. A block's candidate is its
    first draw with the largest ``w``, so ties go to the smaller k, then to
    the earlier draw. ``repetitions`` is a positive Python or numpy integer,
    else ValueError.
    """
    if not (_is_id(repetitions) and repetitions >= 1):
        raise ValueError(
            f"need at least one repetition: repetitions must be a positive integer, got {repetitions!r}"
        )
    start = time.perf_counter()
    rng = np.random.default_rng(seed) if rng is None else rng
    i_star, m, repetitions = instance.i_star, instance.m, int(repetitions)
    values = WEvaluator(instance).values
    sets = _oracle_sets(instance, oracle)
    per_block = max(1, _CELLS // (repetitions * m))  # whole ks per block
    candidates = []
    for first in range(0, m, per_block):
        draws = []
        for k, members in enumerate(sets[first : first + per_block], first + 1):
            members = np.array(members + (i_star,) * (k - len(members)))
            draws.append(members[rng.integers(0, len(members), size=(repetitions, m))])
        block = np.concatenate(draws)
        w = values(block)
        at = int(np.argmax(w))
        candidates.append((float(w[at]), first + 1 + at // repetitions, tuple(block[at].tolist())))
    return _report("randomized", start, seed, max(candidates, key=itemgetter(0)))


def _partition_greedy(
    instance: Instance, candidate_lists: Sequence[Sequence[int]]
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
    support order, which is exactly the sum ``WEvaluator.value`` forms, so
    gains and tie-breaks match it bit for bit. Every round folds each
    state's trials over its greedies' columns on its own. Each greedy then
    scans its own columns' gains in its own list order, and a state splits
    when its greedies pick differently; gains that are all zero thus pick
    the first candidate at the first empty location. When every greedy's
    first candidate is already offered in every visited set holding an
    empty location, those picks change nothing, so every later round would
    repeat them: the state finishes at once, each greedy's first candidate
    filling all its empty locations.

    Candidates must be catalog ids: rows are read by ``WEvaluator.lookup``,
    without its id check, and both callers pass ids already checked.
    """
    m = instance.m
    ev = WEvaluator(instance)
    cands = [list(c) for c in candidate_lists]
    union = list(dict.fromkeys(i for c in cands for i in c))
    column = {i: q for q, i in enumerate(union, 1)}  # column 0 holds R(X(L))
    scans = [[column[i] for i in c] for c in cands]  # each greedy's columns, in its order
    probs, visits = ev.probs[:, None, None], ev.visits
    containing = [np.flatnonzero(visits[:, j]).tolist() for j in range(m)]
    rows: dict[frozenset[int], np.ndarray] = {}

    def row(offered: frozenset[int]) -> np.ndarray:
        r = rows.get(offered)
        if r is None:
            r = rows[offered] = ev.lookup([offered] + [offered | {c} for c in union])
        return r

    # a state is its list of greedies and lives in the entries of the first:
    # table[:, g] is the support x (1 + union) table of the state greedy g leads
    table = np.tile(row(frozenset()), (len(visits), len(cands), 1))
    offered = [[frozenset()] * len(visits) for _ in cands]
    slots = [[EMPTY_SLOT] * m for _ in cands]
    current = np.zeros(len(cands))
    states = [list(range(len(cands)))]
    finished: dict[tuple[int, ...], list[int]] = {}  # final slots -> greedies
    for size in range(m, 0, -1):
        # every state has ``size`` empty locations left
        split = []
        for greedies in states:
            lead = greedies[0]
            empty = [j for j, x in enumerate(slots[lead]) if x == EMPTY_SLOT]
            cols = sorted({q for g in greedies for q in scans[g]})
            trial = np.where(
                visits[:, None, empty],
                probs * table[:, lead, cols, None],
                probs * table[:, lead, :1, None],
            )
            gains = _sum_leading(trial) - current[lead]
            zero = not gains.any()  # every gain is 0.0 or -0.0
            if zero:  # finish if no first candidate is new to a set holding an empty location
                held = visits[:, empty].any(axis=1).tolist()
                seen = set(compress(offered[lead], held))
                if all(cands[g][0] in o for g in greedies for o in seen):
                    for g in greedies:
                        i = cands[g][0]
                        placed = tuple(i if x == EMPTY_SLOT else x for x in slots[lead])
                        finished.setdefault(placed, []).append(g)
                    continue
            gains = dict(zip(cols, gains.tolist()))  # column -> its gain at each empty location
            picks: dict[tuple[int, int], tuple[float, list[int]]] = {}
            for g in greedies:
                at, gain = last_record(chain.from_iterable(gains[q] for q in scans[g]))
                pair = scans[g][at // size], empty[at % size]
                picks.setdefault(pair, (gain, []))[1].append(g)
            # each group of greedies that picked alike continues as one
            # state; the first group keeps the shared one, so it goes last
            for (q, j), (gain, group) in reversed(picks.items()):
                g, i = group[0], union[q - 1]
                if g != lead:
                    table[:, g] = table[:, lead]
                    offered[g], slots[g] = list(offered[lead]), list(slots[lead])
                    current[g] = current[lead]
                slots[g][j] = i
                current[g] += gain
                for s in containing[j]:
                    if i not in offered[g][s]:
                        offered[g][s] = offered[g][s] | {i}
                        table[s, g] = row(offered[g][s])
            split += [group for _, group in picks.values()]
        states = split
    for greedies in states:
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
    [(slots, w)] = _partition_greedy(instance, [range(instance.n)])
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
    masks = np.arange(2 ** (n * m), dtype="<u4").view(np.uint8).reshape(-1, 4)
    # bits[mask, i, j]: bit i*m + j of mask, unpacked from its little-endian bytes
    bits = np.unpackbits(masks, axis=1, bitorder="little")[:, : n * m].reshape(-1, n, m)
    return ev.support_sum((bits[:, :, visited].any(axis=2) for visited in ev.visits), range(n))


def _lattice_violations(
    values: Sequence[float], names: Sequence[str], tol: float
) -> list[str]:
    """Monotonicity and submodularity violations of a set function.

    ``values[mask]`` is the function on the subset of elements whose bits are
    set in ``mask``; ``names[e]`` describes element ``e``. For each element
    e, the gains ``g_e[U] = f(U + e) - f(U)`` reduce to their subset minimum
    ``L_e[V]``, the least ``g_e[U]`` over U within V, by one ``fmin`` pass
    per other element (Yates's sum-over-subsets recursion taken with min;
    ``fmin``, so a NaN gain hides no smaller one). For e outside V, some U
    within V gains less than ``g_e[V] - tol`` exactly when
    ``L_e[V] < g_e[V] - tol``, so only the V with such an e or a
    monotonicity failure are walked: U down from V, e up. Costs
    O(2^s * s^2) plus one walk per violating (V, e).
    """
    size = len(names)
    f = np.asarray(values, dtype=float)
    masks = np.arange(2**size)
    falls = np.zeros((size, 2**size), dtype=bool)  # falls[e, V]: f(V + e) < f(V) - tol
    flagged = np.zeros((size, 2**size), dtype=bool)  # flagged[e, V]: some U violates
    for e in range(size):
        outside = masks & 1 << e == 0
        grown = f[masks | 1 << e]
        gains = grown - f
        low = gains.copy()
        for d in range(size):
            if d != e:  # low[V] = fmin(low[V], low[V - d]) for every V holding d
                halves = low.reshape(-1, 2, 2**d)
                np.fmin(halves[:, 1], halves[:, 0], out=halves[:, 1])
        falls[e] = outside & (grown < f - tol)
        flagged[e] = outside & (low < gains - tol)
    violations: list[str] = []
    for v_mask in np.flatnonzero((falls | flagged).any(axis=0)).tolist():
        for e in np.flatnonzero(falls[:, v_mask]).tolist():
            violations.append(f"monotonicity: mask {v_mask} + {names[e]}")
        walked = np.flatnonzero(flagged[:, v_mask]).tolist()
        u_mask = v_mask
        while walked:
            for e in walked:
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
    first_k: dict[tuple[int, ...], int] = {}  # sorted set -> first k
    for k, members in enumerate(_oracle_sets(instance, oracle), 1):
        first_k.setdefault(members, k)
    placed = _partition_greedy(instance, list(first_k))
    candidates = [(w, k, slots) for k, (slots, w) in zip(first_k.values(), placed)]
    return _report("markov-greedy", start, seed, max(candidates, key=itemgetter(0)))


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
