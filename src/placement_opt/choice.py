"""Discrete choice models: purchase probabilities and expected revenue.

Every model maps (product, assortment) to a purchase probability. The
no-purchase option is always available and absorbs the residual mass
``1 - sum_i p(i, S)``. All models here satisfy substitutability: adding a
product to an assortment never increases the probability of choosing an
existing one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import _PROB_TOL, SizeGuardError, _entries, _field, _ids, _probabilities, _reals
from .core import as_int, canon

_EPS = np.finfo(float).eps


def _sum_leading(x: np.ndarray) -> np.ndarray:
    """``x[0] + x[1] + ...`` strictly left to right. numpy adds pairwise only
    along a reduction's fast axis, so reduce adds the rows of a C-ordered ``x``
    in order (from -0.0, which leaves every v as it is) unless each row holds
    one entry; there accumulate keeps the order."""
    x = np.ascontiguousarray(x)
    if x[0].size > 1:
        return np.add.reduce(x, axis=0, initial=-0.0)
    return np.add.accumulate(x, axis=0)[-1]


def _revenue_rows(prices: np.ndarray, ids: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Row sums of ``r_i p_i`` for ``s >= 1`` columns, added left to right in id
    order as ``expected_revenue`` does: the running sum 0.0 + t_0 + t_1 + ...,
    where ``+ 0.0`` turns a first term of -0.0 into 0.0."""
    terms = np.multiply(prices[ids.T], probs.T, order="C")
    terms[0] += 0.0
    return _sum_leading(terms)


class ChoiceModel:
    """Base class. Subclasses implement ``_batch_probs`` over rows of sorted ids.

    Models are immutable values: nothing is stored per assortment, so
    concurrent readers need no lock. ``prob_error`` bounds the absolute error
    of each ``_batch_probs`` entry (u = eps / 2); ``inf`` makes brute force score all.
    """

    n: int
    prob_error: float = np.inf

    def choice_probs(self, assortment: Iterable[int]) -> dict[int, float]:
        """Purchase probability for every product in the assortment, whose ids
        pass ``core._ids``."""
        given = tuple(assortment)  # scanned whole: a set would merge True into 1
        key = canon(given) if {int}.issuperset(map(type, given)) else ()
        if not (key and 0 <= key[0] and key[-1] < self.n):  # the sorted key's ends bound it
            key = canon(_ids(given, self.n, "assortment"))  # plain ints, or raises
        return dict(zip(key, self._batch_probs(np.array([key])).tolist()[0])) if key else {}

    def choose_prob(self, i: int, assortment: Iterable[int]) -> float:
        """Probability of picking product ``i`` from the offered assortment."""
        probs = self.choice_probs(assortment)
        if i not in probs:
            raise ValueError(f"product {i} is not in the offered assortment")
        return probs[i]

    def revenues(self, prices: Sequence[float], ids: np.ndarray) -> np.ndarray:
        """Revenues of many same-size assortments, one per row of sorted ids.

        ``ids`` is a ``(B, s)`` integer array whose rows strictly increase;
        any other shape, an unsorted or repeating row, or an id that fails
        ``core._ids`` raises ValueError. Entry b equals
        ``expected_revenue(self, prices, ids[b])`` bitwise, because
        ``choice_probs`` is one row of the same ``_batch_probs`` and the
        revenue adds ``r_i p_i`` one column at a time in id order as that sum
        does. Its memory is linear in the rows, so callers bound them.
        """
        ids = ids if isinstance(ids, np.ndarray) else np.asarray(ids, dtype=object)  # keeps types
        if ids.ndim != 2:
            raise ValueError(f"assortment batch must be a (B, s) array, got shape {ids.shape}")
        if not ids.size:
            return np.zeros(len(ids))
        ids = _ids(ids, self.n, "assortment batch").astype(np.intp, copy=False)
        if (ids[:, 1:] <= ids[:, :-1]).any():
            raise ValueError("assortment batch rows must be strictly increasing ids")
        return _revenue_rows(np.asarray(prices, dtype=float), ids, self._batch_probs(ids))

    def _batch_probs(self, ids: np.ndarray) -> np.ndarray:
        """``(B, s)`` purchase probabilities for ``(B, s)`` sorted valid ids."""
        raise NotImplementedError

    def to_spec(self) -> dict:
        raise NotImplementedError


class MnlModel(ChoiceModel):
    """Multinomial logit with an implicit unit no-purchase weight.

    p(i, S) = v_i / (1 + sum_{j in S} v_j). A zero weight encodes a product
    that is never chosen.
    """

    def __init__(self, weights: Sequence[float]):
        w = _reals(weights, "weights")
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d sequence")
        self.weights = w
        self.n = int(w.size)
        self.prob_error = (self.n + 2) * _EPS  # sum, 1 +, divide; p <= 1

    def _batch_probs(self, ids):
        w = self.weights[ids]
        return w / (1.0 + w.sum(axis=1))[:, None]

    def to_spec(self) -> dict:
        return {"type": "mnl", "weights": [float(v) for v in self.weights]}


class MmnlModel(ChoiceModel):
    """Mixture of MNL segments, each with its own arrival weight."""

    def __init__(self, segments: Sequence[tuple[float, Sequence[float]]]):
        if not segments:
            raise ValueError("need at least one segment")
        thetas = _probabilities([t for t, _ in segments], "segment probabilities")
        mats = [_reals(w, "segment weights") for _, w in segments]
        n = mats[0].size
        if any(w.ndim != 1 or w.size != n for w in mats):
            raise ValueError("all segments must weight the same product set")
        matrix = np.vstack(mats)  # segment x product
        self.thetas = thetas
        self.weight_matrix = matrix
        self.n = int(n)
        self.prob_error = (self.n + len(thetas) + 2) * _EPS  # MNLs, times theta, summed

    def _batch_probs(self, ids):
        cols = self.weight_matrix[:, ids]  # segment x row x column
        denom = 1.0 + cols.sum(axis=2)
        return ((cols / denom[:, :, None]) * self.thetas[:, None, None]).sum(axis=0)

    def to_spec(self) -> dict:
        return {
            "type": "mmnl",
            "segments": [
                {"theta": float(t), "weights": [float(v) for v in row]}
                for t, row in zip(self.thetas, self.weight_matrix)
            ],
        }


class MarkovModel(ChoiceModel):
    """Markov chain choice: the customer walks between products until they
    either buy (hit an offered product) or give up.

    States 0..n index ``quit`` plus the products: state 0 is the absorbing
    no-purchase state and state ``i + 1`` is product ``i``. ``arrival`` is
    the distribution of the first state visited and ``transitions`` the
    row-stochastic matrix followed while the current product is not offered.
    """

    def __init__(self, arrival: Sequence[float], transitions: Sequence[Sequence[float]]):
        lam = _probabilities(arrival, "arrival")
        rho = _probabilities(transitions, "transitions")
        if lam.ndim != 1 or lam.size < 2:
            raise ValueError("arrival must cover the quit state plus >= 1 product")
        if rho.shape != (lam.size, lam.size):
            raise ValueError("transitions must be square over the same states")
        quit_row = np.zeros(lam.size)
        quit_row[0] = 1.0
        if not np.allclose(rho[0], quit_row, atol=_PROB_TOL):
            raise ValueError("the quit state must be absorbing")
        # A product state that cannot reach quit lies in a closed class: left
        # unoffered, its walk never ends and the absorption solve is singular.
        reaches_quit = quit_row > 0
        while True:
            grown = reaches_quit | (rho[:, reaches_quit] > 0).any(axis=1)
            if (grown == reaches_quit).all():
                break
            reaches_quit = grown
        if not reaches_quit.all():
            stuck = (np.flatnonzero(~reaches_quit) - 1).tolist()
            raise ValueError(f"products {stuck} can never reach the quit state")
        self.arrival = lam
        self.transitions = rho
        self.n = int(lam.size) - 1
        # Every ``_batch_probs`` system I - Q is a gather of I - rho, equal to
        # eye - Q entry by entry: 1 - rho_ii on the diagonal, 0 - rho_ij off it.
        self._eye_minus_rho = np.eye(lam.size) - rho
        # t0 = ||(I - Q)^-1||_inf unoffered, the longest expected walk; offering
        # shortens walks, so every ``_batch_probs`` system has kappa_inf <= 2 t0.
        # I - Q is row diagonally dominant (pivot growth <= 2), so LU's hit
        # probabilities are off by <= 2 x, x = 24 n^3 u t0 (Higham, 9.3), while
        # x <= 1/2; past that the bound exceeds 2 and every subset is solved.
        # 48 = 2 * 24 covers the rounding of t0 itself, n + 1 the final sum. A t0
        # below 1 (every walk visits a state) is rounding garbage: inf.
        try:
            t0 = np.linalg.solve(self._eye_minus_rho[1:, 1:], np.ones(self.n)).max()
        except np.linalg.LinAlgError:
            t0 = np.inf
        self.prob_error = (48 * self.n**3 * (t0 if t0 >= 1.0 else np.inf) + self.n + 1) * _EPS

    def _batch_probs(self, ids):
        # States {quit} | offered are made absorbing, and each row solves the
        # dense linear system I - Q over its transient (unoffered) states,
        # gathered from the stored I - rho; all rows go through one stacked solve
        # (0 x 0 systems when every product is offered: the row is the arrival).
        rows = np.arange(len(ids))[:, None]
        absorbing = np.zeros((len(ids), ids.shape[1] + 1), dtype=np.intp)  # column 0: quit
        absorbing[:, 1:] = ids + 1
        unoffered = np.ones((len(ids), self.n + 1), dtype=bool)
        unoffered[rows, absorbing] = False
        transient = np.nonzero(unoffered)[1].reshape(len(ids), -1)
        system = self._eye_minus_rho[transient[:, :, None], transient[:, None, :]]
        r = self.transitions[transient[:, :, None], absorbing[:, None, :]]
        hit = np.linalg.solve(system, r)
        start = self.arrival[transient][:, None, :]
        # column 0 is the quit state; column pos + 1 matches ids[:, pos]
        return (self.arrival[absorbing] + (start @ hit)[:, 0])[:, 1:]

    def to_spec(self) -> dict:
        return {
            "type": "markov",
            "arrival": [float(v) for v in self.arrival],
            "transitions": [[float(v) for v in row] for row in self.transitions],
        }


class RankedListModel(ChoiceModel):
    """Distribution over preference orders; the customer buys the first
    listed product present in the assortment.

    Each order is a sequence of product ids ranked above the no-purchase
    option; unlisted products rank below it and are never chosen from that
    order.
    """

    def __init__(self, lists: Sequence[tuple[float, Sequence[int]]], n: int):
        n = as_int(n, "product count")
        if n < 1:
            raise ValueError("need at least one product")
        if not lists:
            raise ValueError("need at least one ranking")
        probs = _probabilities([p for p, _ in lists], "ranking probabilities")
        orders = []
        for _, order in lists:
            order = tuple(_ids([as_int(i, "ranked product id") for i in order], n, "ranking"))
            if len(set(order)) != len(order):
                raise ValueError("a ranking may not repeat a product")
            orders.append(order)
        self.lists = tuple(zip((float(p) for p in probs), orders))
        self.n = n
        # rank of each product in each list, n where the list leaves it out
        self._ranks = np.full((len(orders), n), n)
        for row, order in zip(self._ranks, orders):
            row[list(order)] = np.arange(len(order))
        self._list_probs = probs
        self.prob_error = (n + len(orders)) * _EPS  # a sum of one probability per list

    def _batch_probs(self, ids):
        ranks = self._ranks[:, ids]  # list x row x column
        # a list with no offered id adds 0.0, which leaves every sum as it is
        adds = np.where(ranks.min(axis=2) < self.n, self._list_probs[:, None], 0.0)
        rows = np.arange(len(ids))
        out = np.zeros(ids.shape)
        for first, add in zip(ranks.argmin(axis=2), adds):  # lists in order
            out[rows, first] += add
        return out

    def to_spec(self) -> dict:
        return {
            "type": "ranked",
            "n": self.n,
            "lists": [{"prob": p, "order": list(order)} for p, order in self.lists],
        }


def model_from_spec(spec: Mapping, n: int | None = None) -> ChoiceModel:
    """Build a choice model from its JSON-friendly description.

    Ranked-list payloads need a product count; it may come from their own
    ``n`` key or from the caller (the enclosing instance knows it).
    """
    kind = spec.get("type")
    if kind == "mnl":
        return MnlModel(_field(spec, "weights", "choice_model"))
    if kind == "mmnl":
        return MmnlModel(_entries(spec, "segments", "choice_model", "theta", "weights"))
    if kind == "markov":
        arrival, rho = (_field(spec, key, "choice_model") for key in ("arrival", "transitions"))
        return MarkovModel(arrival, rho)
    if kind == "ranked":
        count = spec.get("n", n)
        if count is None:
            raise ValueError("ranked model spec needs a product count")
        count = as_int(count, "product count")
        if n is not None and count != n:  # before the model allocates its ranks
            raise ValueError(f"choice model covers {count} products, catalog has {n}")
        lists = _entries(spec, "lists", "choice_model", "prob", "order", lists=("order",))
        return RankedListModel(lists, n=count)
    raise ValueError(f"unknown choice model type {kind!r}")


def expected_revenue(model: ChoiceModel, prices: Sequence[float], assortment: Iterable[int]) -> float:
    """Expected revenue of an assortment: sum_i r_i * p(i, S)."""
    total = 0.0  # the additions ``revenues`` makes; ``sum`` compensates from Python 3.12
    for i, p in model.choice_probs(assortment).items():
        total += float(prices[i]) * p
    return total


def no_purchase_prob(model: ChoiceModel, assortment: Iterable[int]) -> float:
    """Probability that the customer buys nothing from the assortment."""
    return 1.0 - sum(model.choice_probs(assortment).values())


def markov_from_mnl(mnl: MnlModel) -> MarkovModel:
    """Markov chain whose absorption probabilities reproduce an MNL model.

    Arrivals follow the full-assortment MNL shares; from product i the walk
    moves to each other option with its share renormalized to exclude i.
    """
    v = mnl.weights
    total = 1.0 + v.sum()
    rest = (total - v)[:, None]  # row i: every option but product i
    rho = np.zeros((v.size + 1, v.size + 1))
    rho[1:, :1] = 1.0 / rest
    rho[1:, 1:] = v / rest
    np.fill_diagonal(rho, 0.0)  # no product moves to itself
    rho[0, 0] = 1.0
    return MarkovModel(np.concatenate(([1.0], v)) / total, rho)


@dataclass(frozen=True)
class RationalityViolation:
    """One observed failure of substitutability."""

    product: int
    assortment: tuple[int, ...]
    added: int
    magnitude: float


def check_weak_rationality(
    model: ChoiceModel,
    n: int,
    trials: int | None = None,
    seed: int = 0,
    tol: float = 1e-9,
) -> list[RationalityViolation]:
    """Check that adding a product never raises another's choice probability.

    Exhaustive over all (S, i, j) triples when ``trials`` is None (requires
    n <= 12, else SizeGuardError; one ``choice_probs`` per subset), otherwise
    over ``trials`` random triples. Violations are returned as data, not
    raised.
    """
    violations: list[RationalityViolation] = []
    if n < 2:
        return violations

    def check(subset, i, j, before: float, after: float):
        if after > before + tol:
            violations.append(RationalityViolation(i, subset, j, after - before))

    if trials is None:
        if n > 12:
            raise SizeGuardError("exhaustive check is limited to n <= 12")
        subsets = [tuple(i for i in range(n) if mask >> i & 1) for mask in range(2**n)]
        probs = [model.choice_probs(subset) for subset in subsets]
        for mask in range(1, 2**n):
            rest = [j for j in range(n) if not mask >> j & 1]
            for i in subsets[mask]:
                for j in rest:
                    check(subsets[mask], i, j, probs[mask][i], probs[mask | 1 << j][i])
    else:
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            size = int(rng.integers(1, n))
            subset = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            rest = [j for j in range(n) if j not in subset]
            i = int(rng.choice(list(subset)))
            j = int(rng.choice(rest))
            before = model.choose_prob(i, subset)
            check(subset, i, j, before, model.choose_prob(i, subset + (j,)))
    return violations
