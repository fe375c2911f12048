"""Cardinality-constrained assortment optimization behind one interface.

Each oracle returns, for a size budget k, an assortment of at most k
catalog ids whose expected revenue is at least ``alpha`` times the best
achievable with at most k products. A set shorter than k also offers the
highest-price product, which never lowers revenue under substitutability.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .choice import _EPS, MnlModel, _revenue_rows
from .core import _CELLS, Instance, SizeGuardError, _is_id

BRUTE_FORCE_MAX_N = 22
_MNL_BISECT_ITERS = 200
# Subsets per solve block of the brute-force pass; bounds the kernel's temporaries.
_BATCH = 256
# The one tie rule: a record beats the best so far by more than this margin.
_TIE = 1e-15


def _extend(subsets: np.ndarray, n: int) -> np.ndarray:
    """The size-(s + 1) subsets of range(n) in ``combinations`` order, from
    the size-s ones: each row of ``subsets`` followed by every larger id."""
    last = subsets[:, -1].astype(np.intp) if subsets.shape[1] else np.full(len(subsets), -1)
    counts = n - 1 - last
    out = np.empty((counts.sum(), subsets.shape[1] + 1), dtype=np.int8)
    out[:, :-1] = np.repeat(subsets, counts, axis=0)
    # row i's run of counts[i] new ids counts up from last[i] + 1
    out[:, -1] = np.arange(len(out)) - np.repeat(np.cumsum(counts) - counts - last - 1, counts)
    return out


def _drop_ranks(ids: np.ndarray, binom: np.ndarray) -> np.ndarray:
    """``ranks[p, r]``: the rank of row r of sorted size-s ``ids`` without its
    member p among the size-(s - 1) subsets of range(n) in ``combinations``
    order, where c_0 < c_1 < ... of size k has rank C(n, k) - 1 - sum_q
    C(n - 1 - c_q, k - q); ``binom[k, c]`` is C(n - 1 - c, k), exact int64.

    Without member p, members q < p keep position q and those after p move
    down one, so rank_0 = C(n, s - 1) - 1 - sum_{q > 0} C(n - 1 - c_q, s - q)
    and rank_{p + 1} = rank_p + C(n - 1 - c_{p + 1}, k) - C(n - 1 - c_p, k),
    k = s - 1 - p: c_p moves back to position p and c_{p + 1} out of it.
    """
    s, cols = ids.shape[1], ids.T
    ranks = np.empty((s, len(ids)), dtype=np.int64)
    ranks[0] = comb(binom.shape[1], s - 1) - 1
    for q in range(1, s):
        ranks[0] -= binom[s - q].take(cols[q])
    for p in range(s - 1):
        terms = binom[s - 1 - p]
        ranks[p + 1] = ranks[p] + terms.take(cols[p + 1]) - terms.take(cols[p])
    return ranks


def last_record(values, best: float = -np.inf) -> tuple[int | None, float]:
    """(index of the last record in ``values`` or None, the best after it),
    a record beating the best so far, from ``best``, by more than ``_TIE``."""
    at, bar = None, best + _TIE
    for i, v in enumerate(values):
        if v > bar:
            at, best = i, v
            bar = best + _TIE
    return at, best


class AssortmentOracle:
    """Interface: ``best_assortment(k)`` with guaranteed factor ``alpha``.

    Each oracle keeps one table, ``_answers``: size -> (set the pass found,
    revenue it reached) for every size 1..min(m, n), built by one call of
    the subclass's ``_pass`` on the first ``best_assortment``.
    Threads racing on that call may each build a table; the tables are
    equal, and each assignment publishes a complete one.
    """

    alpha: float

    def __init__(self, instance: Instance):
        self.instance = instance
        self._answers: dict[int, tuple[frozenset[int], float]] = {}

    def best_assortment(self, k: int) -> frozenset[int]:
        """At most k catalog ids with revenue >= alpha * optimum over <= k sets.

        A set the pass found with fewer than k members also gets ``i_star``.
        ``k`` is a Python or numpy integer, no boolean, else ValueError.
        """
        if not (_is_id(k) and 1 <= k <= self.instance.m):
            raise ValueError(f"cardinality {k!r} outside [1, {self.instance.m}]")
        if not self._answers:
            self._answers = self._pass(min(self.instance.m, self.instance.n))
        found = self._answers[min(k, self.instance.n)][0]
        return found if len(found) >= k else found | {self.instance.i_star}

    def _pass(self, top: int) -> dict[int, tuple[frozenset[int], float]]:
        """Entries for every size 1..top."""
        raise NotImplementedError


class BruteForceOracle(AssortmentOracle):
    """Exact oracle over the subsets of size at most k.

    One pass settles every size up to min(m, n) in ``combinations`` order,
    keeping the last record ``last_record`` finds, from 0: the best after
    size s answers k = s. Substitutability, ``P_j(S) <= P_j(S - {i})``,
    bounds ``R(S) <= sum_j r_j min_{i != j} P_j(S - {i})``, read from a
    per-size table of probability bounds (a solved subset's probabilities,
    a skipped one's propagated minima). The model's ``purchase_cap`` c
    bounds ``sum_j P_j(S)`` (about ``1 - arrival[0]`` for a Markov chain: a
    walk that starts at quit buys nothing), which also gives
    ``R(S) <= mu c + sum_j (r_j - mu)^+ b_j`` for the same bounds b_j, at
    ``mu = best / (2 c)``, the record after the smaller sizes; the smaller
    limit counts. Each size's subsets, their bounds and limits are built
    once from the previous size's, in chunks of ``max(1, core._CELLS // s)``
    size-s subsets, so a chunk's bounds hold at most ``core._CELLS`` entries;
    then, in ``_BATCH``-row blocks, only subsets whose limit plus a rounding
    margin beats the best so far are solved, so the answers are those of
    scoring every subset.
    """

    alpha = 1.0

    def __init__(self, instance: Instance):
        super().__init__(instance)
        if instance.n > BRUTE_FORCE_MAX_N:
            raise SizeGuardError(
                f"brute-force assortment search capped at n <= {BRUTE_FORCE_MAX_N}, "
                f"got {instance.n}"
            )

    def _pass(self, top):
        model, prices, n = self.instance.choice_model, self.instance.prices, self.instance.n
        binom = np.array([[comb(n - 1 - c, k) for c in range(n)] for k in range(n + 1)], np.int64)
        best, best_rev, out = frozenset(), 0.0, {}
        cap, err = model.purchase_cap, model.prob_error
        # bounds[j, r] is member j of subset r: a chunk's gathers take whole
        # columns, and its minima run along contiguous rows
        subsets, bounds = np.zeros((1, 0), dtype=np.int8), np.zeros((0, 1))  # size 0: {}
        for s in range(1, top + 1):
            subsets, prev = _extend(subsets, n), bounds
            bounds, limits = np.full((s, len(subsets)), np.inf), np.empty(len(subsets))
            mu, chunk = best_rev / (2.0 * cap), max(1, _CELLS // s)
            excess = np.maximum(prices - mu, 0.0)
            for start in range(0, len(subsets), chunk):
                ids, block = subsets[start : start + chunk], bounds[:, start : start + chunk]
                # the subset without member p holds member j at j if j < p,
                # else at j - 1
                for p, ranks in enumerate(_drop_ranks(ids, binom)):
                    sub = prev.take(ranks, axis=1)
                    np.minimum(block[:p], sub[:p], out=block[:p])
                    np.minimum(block[p + 1 :], sub[p:], out=block[p + 1 :])
                with np.errstate(invalid="ignore"):  # 0 * inf is nan, never <= best
                    mass = mu * cap + _revenue_rows(excess, ids, block.T)
                    limit = _revenue_rows(prices, ids, block.T)
                    np.minimum(limit, mass, out=limits[start : start + chunk])
            # Both limits bound R(S) = sum_j r_j P_j, exact P_j in [0, 1]: by
            # induction a stored bound b_j is >= P_j - err (err = ``prob_error``),
            # so R(S) <= sum_j r_j b_j + s r err (r the top price), and, with
            # sum_j P_j <= cap and any mu >= 0, R(S) <= mu cap + sum_j (r_j - mu)^+
            # P_j <= mu cap + sum_j (r_j - mu)^+ b_j + s r err. A computed revenue
            # is within s r err of R(S) plus its rounding. Computed P_j and b_j
            # lie in [-err, 1 + err], so an s-term sum of products rounds by
            # <= s u T, T = s r (1 + err), u = eps / 2; the mass limit adds u T
            # for (r_j - mu)^+ and 2 u T for mu cap (about best / 2 < T / 2) and
            # the add. So a limit is within 2 s r err + (2 s + 3) u T of every
            # revenue it bounds, and for s >= 2 the margin's 4 s u T leaves u T
            # for higher orders (size-1 limits are inf or nan: every product is
            # solved). A skipped subset's computed revenue is <= the best, never
            # a record.
            limits += 2 * s * prices.max() * (err + s * _EPS * (1.0 + err))
            for start in range(0, len(subsets), _BATCH):
                rows = start + np.flatnonzero(~(limits[start : start + _BATCH] <= best_rev))
                if not rows.size:
                    continue
                ids = subsets[rows].astype(np.intp)
                probs = model._batch_probs(ids)
                bounds[:, rows] = probs.T
                at, best_rev = last_record(_revenue_rows(prices, ids, probs).tolist(), best_rev)
                best = best if at is None else frozenset(ids[at].tolist())
            out[s] = (best, best_rev)
        return out


class MnlExactOracle(AssortmentOracle):
    """Exact MNL oracle via bisection on the achievable-revenue threshold.

    A revenue of t is achievable with at most k products iff the k largest
    positive values of v_i (r_i - t) sum to at least t; that test is
    monotone in t, so bisection pins the optimum and the final threshold
    reconstructs the set. Ties in v_i (r_i - t) go to the lower id.

    The pass bisects every size up to min(m, n), one row per size, in
    ascending chunks of ``max(1, core._CELLS // n)`` rows. Every row takes
    the steps a bisection of its size alone would: the same midpoints, the
    same test and the same early exit. A few Dinkelbach steps first
    bracket each row's optimum t* to within about 6 (k + 2) eps relative
    (``_bracket``). A midpoint outside the bracket gets, unevaluated, the
    answer the test is proven to give there, so each row's path and final
    threshold are bitwise those of testing every midpoint. Only midpoints
    inside are scored and sorted, all waiting rows at once (166 of 1,070 on
    ``gen_random(100, 20, model="mnl", seed=0)``), and each row's k best
    positive scores summed by numpy's pairwise sum, as a lone bisection does.
    """

    alpha = 1.0

    def __init__(self, instance: Instance):
        super().__init__(instance)
        if not isinstance(instance.choice_model, MnlModel):
            raise ValueError("MnlExactOracle requires an MNL choice model")

    def _pass(self, top):
        sizes, rows = list(range(1, top + 1)), max(1, _CELLS // self.instance.n)
        chunks = [sizes[i : i + rows] for i in range(0, top, rows)]
        return {s: answer for c in chunks for s, answer in zip(c, self._bisect(c))}

    def _scores(self, t: np.ndarray) -> np.ndarray:
        """Scores v_i (r_i - t), one row per threshold t."""
        return self.instance.choice_model.weights * (self.instance.prices - t[:, None])

    def _bracket(self, size: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
        """Per row of size k, (below, above): the test passes at every
        midpoint <= below and fails at every one >= above.

        The test at t sums the k largest positive fl(v_i fl(r_i - t)): two
        roundings per score and k - 1 adds put it within (k + 1) u, u =
        eps / 2, of the real gain G(t) = max_{|S| <= k} sum_S v_i (r_i - t),
        relative (Higham, Accuracy and Stability, 3.1 and 4.2), plus half
        the least subnormal per underflowed score. G never increases and
        crosses t at t*. Let rel = (k + 2) eps = (2k + 4) u.

        Dinkelbach's update t <- R~(S), S the k best positive scores at
        b = t (1 + 3 rel), climbs from t = 0 through float revenues of real
        sets. R~(S) <= R(S) / (1 - (2k + 1) u) (k products, two k-term
        sums, an add and a divide), so a = t (1 - rel), one more rounding,
        is below R(S) <= t*. Once the gain at b falls short of b (1 - rel),
        G(b) < b, so b > t*. Three is the least multiple of rel for which
        that happens whenever S is optimal: then t* <= t (1 + (2k + 1) u)
        and the gain at b reads at most t* (1 + (k + 1) u). A midpoint <= a (1 - rel) then has G >= t*
        and passes; one >= b (1 + rel) has G <= t* < b and fails: each by
        about (k + 2) u t*, more than the test's error, and t >= tiny / eps
        keeps the subnormal part under that. A row that does not certify
        (t* = 0, t under tiny / eps, or scores that could overflow) gets
        (-inf, inf), so every midpoint is tested.
        """
        v, r = self.instance.choice_model.weights, self.instance.prices
        below, above = np.full(len(size), -np.inf), np.full(len(size), np.inf)
        if not np.isfinite(2.0 * v.sum() * r.max()):  # bounds every score and gain
            return below, above
        rel, first = (size + 2) * _EPS, np.arange(width) < size[:, None]
        t, live, floor = np.zeros(len(size)), np.arange(len(size)), np.finfo(float).tiny / _EPS
        for _ in range(_MNL_BISECT_ITERS):
            b = t[live] * (1.0 + 3.0 * rel[live])
            # v (b - r) is exactly minus the score: ascending puts the best first
            order = np.argsort(v * (b[:, None] - r), axis=1)[:, :width]
            vs, rs = v[order], r[order]
            top = np.where(first[live], np.maximum(vs * (rs - b[:, None]), 0.0), 0.0)
            done = top.sum(axis=1) < b * (1.0 - rel[live])
            ok = done & (t[live] >= floor)
            sure = live[ok]
            below[sure] = t[sure] * (1.0 - rel[sure]) * (1.0 - rel[sure])
            above[sure] = b[ok] * (1.0 + rel[sure])
            w = np.where(top > 0.0, vs, 0.0)
            rev = (w * rs).sum(axis=1) / (1.0 + w.sum(axis=1))
            grew = ~done & (rev > t[live])
            t[live[grew]] = rev[grew]
            live = live[grew]
            if not live.size:
                break
        return below, above

    def _bisect(self, sizes: list[int]) -> list[tuple[frozenset[int], float]]:
        width, size = max(sizes), np.array(sizes)
        below, above = self._bracket(size, width)
        high = float(self.instance.prices.max())
        rows = [_bisection(high, b, a) for b, a in zip(below.tolist(), above.tolist())]
        # each row runs to its next undecided midpoint; those are tested together
        lo, asked = [0.0] * len(rows), {}

        def advance(r: int, up: bool | None) -> None:
            try:
                asked[r] = rows[r].send(up)
            except StopIteration as stop:
                lo[r] = stop.value

        for r in range(len(rows)):
            advance(r, None)
        while asked:
            ids, mid = list(asked), np.array(list(asked.values()))
            asked.clear()
            # equal scores are interchangeable in a sum, so the values
            # alone give the gain; no ids need ranking
            top = np.maximum(-np.sort(-self._scores(mid), axis=1)[:, :width], 0.0)
            for r, row, t in zip(ids, top, mid.tolist()):
                advance(r, bool(row[: sizes[r]].sum() >= t))
        scores = self._scores(np.array(lo))
        # lower id first on ties
        order = np.argsort(-scores, axis=1, kind="stable")[:, :width]
        return [
            (frozenset(int(i) for i in order[r, :k] if scores[r, i] > 0.0), lo[r])
            for r, k in enumerate(sizes)
        ]


def _bisection(high: float, below: float, above: float):
    """One size's bisection from [0, high]: yields each midpoint strictly
    between ``below`` and ``above`` and is sent whether its test passes;
    decides the others itself. Returns lo.

    It stops once an update would leave low or high unchanged: its next
    step would then repeat this one forever. The iteration cap still binds
    when the optimum is 0 and high only halves.
    """
    low = 0.0
    for _ in range(_MNL_BISECT_ITERS):
        mid = 0.5 * (low + high)
        up = mid <= below or (mid < above and (yield mid))
        if up:
            if mid == low:
                break
            low = mid
        elif mid == high:
            break
        else:
            high = mid
    return low


class GreedyUniformOracle(AssortmentOracle):
    """Greedy oracle for identically priced products.

    With one common price the revenue function is monotone submodular, so
    iteratively adding the best marginal product is (1 - 1/e)-approximate.
    Each round scores all its candidates in one ``ChoiceModel.revenues``
    batch and adds the candidate ``last_record`` picks from their gains in
    id order. The size-k set is the first k rounds, so one pass of
    min(m, n) rounds from the empty set answers every k.
    """

    alpha = 1.0 - 1.0 / np.e

    def __init__(self, instance: Instance):
        super().__init__(instance)
        if np.ptp(instance.prices) != 0.0:
            raise ValueError("GreedyUniformOracle requires identical prices")

    def _pass(self, top):
        model = self.instance.choice_model
        prices = self.instance.prices
        chosen, current, out = frozenset(), 0.0, {}
        for s in range(1, top + 1):
            cands = [i for i in range(self.instance.n) if i not in chosen]
            ids = np.array([sorted(chosen | {i}) for i in cands])
            at, gain = last_record((model.revenues(prices, ids) - current).tolist())
            chosen = chosen | {cands[at]}
            current += gain
            out[s] = (chosen, current)
        return out


def exact_oracle(instance: Instance) -> AssortmentOracle:
    """Best exact oracle available for the instance's model family."""
    if isinstance(instance.choice_model, MnlModel):
        return MnlExactOracle(instance)
    return BruteForceOracle(instance)
