"""Instance generators and JSON (de)serialization.

Besides seeded random instances, this module builds the structured worst
case families used by the test suite: single-visit tradeoff catalogs,
uniform prefix lines, heavy-tailed prefix lines with tiered catalogs, and
coverage-style mixture instances.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from .browsing import (
    ExplicitBrowsing,
    LineBrowsing,
    browsing_from_spec,
    full_support,
    singleton_uniform,
)
from .choice import MarkovModel, MmnlModel, MnlModel, RankedListModel, model_from_spec
from .core import Instance, _entries, _field, as_int


# ---------------------------------------------------------------------------
# serialization


def instance_to_dict(instance: Instance) -> dict:
    return {
        "products": [{"id": i, "price": p} for i, p in enumerate(instance.prices.tolist())],
        "choice_model": instance.choice_model.to_spec(),
        "m": instance.m,
        "browsing": instance.browsing.to_spec(),
    }


def instance_from_dict(data: Mapping) -> Instance:
    """Instance from its JSON document; ValueError names a malformed field."""
    if not isinstance(data, Mapping):
        raise ValueError(f"instance must be a JSON object, got {type(data).__name__}")
    for key in ("products", "choice_model", "m", "browsing"):
        value = _field(data, key, "instance")
        if key in ("choice_model", "browsing") and not isinstance(value, Mapping):
            raise ValueError(f"{key} must be a JSON object, got {type(value).__name__}")
    products = _entries(data, "products", "instance", "id", "price")
    ids = [as_int(i, "product id") for i, _ in products]
    prices = [price for _, price in products]
    if ids != list(range(len(ids))):
        raise ValueError("product ids must be dense 0..n-1 in order")
    model = model_from_spec(data["choice_model"], n=len(prices))
    browsing = browsing_from_spec(data["browsing"])
    return Instance(prices, model, data["m"], browsing)


def to_json(instance: Instance) -> str:
    return json.dumps(instance_to_dict(instance))


def from_json(text: str) -> Instance:
    return instance_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# structured families


def gen_first_slot_only(k: int) -> Instance:
    """Line where only the first location is ever seen.

    Catalog: k interchangeable products priced k with weight 1/k each, plus
    one popular product priced k/2 with weight 1. The best size-k assortment
    is the k pricey products, yet any of them alone at the top earns far
    less than the popular product alone once k grows.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    weights = [1.0 / k] * k + [1.0]
    theta = [1.0] + [0.0] * (k - 1)
    return Instance([float(k)] * k + [k / 2.0], MnlModel(weights), k, LineBrowsing(theta))


def gen_uniform_line(m: int) -> Instance:
    """Uniform scan-depth line over m interchangeable products.

    Every product is priced m with weight 1/m and each prefix depth is
    equally likely, so spreading distinct products down the line beats any
    small fixed assortment.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    weights = [1.0 / m] * m
    theta = [1.0 / m] * m
    return Instance([float(m)] * m, MnlModel(weights), m, LineBrowsing(theta))


def gen_heavy_tail_line(m: int, epsilon: float) -> Instance:
    """Heavy-tailed scan-depth line with a tiered catalog.

    Prefix-depth probabilities decay like j^-(1 + 1/(1+eps)) (normalized to
    sum to one). The catalog prices every product at weight^(-1/(1+eps))
    and contains, per tier j in 1..m, j interchangeable products of weight
    eps/j plus (for j >= 2) one long-tail product of weight
    1/(j * ln(j)^(1+eps)). Small optimal assortments concentrate on a
    single tier and stay O(1), while the long-tail products spread down the
    line keep gaining value with depth.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    bad = f"epsilon {epsilon!r} gives a zero or non-finite weight or price"
    power = -1.0 / (1.0 + epsilon)
    weights: list[float] = []
    try:
        for j in range(1, m + 1):
            weights.extend([epsilon / j] * j)
        for j in range(2, m + 1):
            weights.append(1.0 / (j * math.log(j) ** (1.0 + epsilon)))
        prices = [w**power for w in weights]
    except (ZeroDivisionError, OverflowError):
        raise ValueError(bad) from None
    if not all(0.0 < x < math.inf for x in weights + prices):  # also false for NaN
        raise ValueError(bad)
    raw = np.array([j ** -(1.0 + 1.0 / (1.0 + epsilon)) for j in range(1, m + 1)])
    theta = raw / raw.sum()
    return Instance(prices, MnlModel(weights), m, LineBrowsing(theta))


def heavy_tail_tier_ids(j: int) -> range:
    """Ids of the j interchangeable tier-j products (layout is fixed)."""
    start = j * (j - 1) // 2
    return range(start, start + j)


def heavy_tail_single_id(m: int, j: int) -> int:
    """Id of the lone long-tail product of tier j (j >= 2)."""
    if not 2 <= j <= m:
        raise ValueError(f"tier {j} outside [2, {m}]")
    return m * (m + 1) // 2 + (j - 2)


def heavy_tail_single_placement(m: int) -> tuple[int, ...]:
    """Long-tail product of tier j at location j-1 (tier 2 also covers slot 0)."""
    return (heavy_tail_single_id(m, 2),) + tuple(
        heavy_tail_single_id(m, j) for j in range(2, m + 1)
    )


def heavy_tail_tier_placement(m: int, k: int) -> tuple[int, ...]:
    """Distinct tier-k products in the first k slots, the last one repeated.

    Within tier k all products are interchangeable, so this maximizes the
    number of distinct offers at every scan depth and is the best possible
    placement that uses tier k only.
    """
    ids = list(heavy_tail_tier_ids(k))
    return tuple(ids) + (ids[-1],) * (m - k)


def gen_coverage_mmnl(
    cover_sets: Sequence[Iterable[int]],
    universe: int,
    cardinality: int,
    epsilon: float,
) -> Instance:
    """Coverage-style mixture instance with unit prices.

    One customer type per universe element (arriving with probability 1/q)
    and one product per covering set; a type gives weight M = 1/eps - 1 to
    exactly the products whose set covers it. All locations are always
    visited, so a placement is just a size-``cardinality`` assortment and
    its revenue is (1/q) * sum_j gamma_j M / (1 + gamma_j M) with gamma_j
    the number of chosen sets covering element j.
    """
    if universe < 1:
        raise ValueError("universe must be nonempty")
    if not isinstance(cover_sets, (list, tuple)):
        raise ValueError(f"covering sets must be a list of lists, got {cover_sets!r}")
    if not cover_sets:
        raise ValueError("need at least one covering set")
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    if not 1 <= cardinality <= len(cover_sets):
        raise ValueError("cardinality must lie in [1, number of sets]")
    n = len(cover_sets)
    big = 1.0 / epsilon - 1.0
    members = []
    for s in cover_sets:
        if not isinstance(s, (list, tuple, set, frozenset)):
            raise ValueError(f"a covering set must be a list of elements, got {s!r}")
        members.append(frozenset(as_int(e, "set element") for e in s))
        if any(not 0 <= e < universe for e in members[-1]):
            raise ValueError("set element outside the universe")
    segments = []
    for j in range(universe):
        row = [big if j in members[i] else 0.0 for i in range(n)]
        segments.append((1.0 / universe, row))
    return Instance([1.0] * n, MmnlModel(segments), cardinality, full_support(cardinality))


# ---------------------------------------------------------------------------
# random instances

MODEL_FAMILIES = ("mnl", "mmnl", "markov", "ranked")
BROWSING_FAMILIES = ("line", "explicit", "singleton", "full")


def _random_model(rng: np.random.Generator, family: str, n: int):
    if family == "mnl":
        return MnlModel(rng.uniform(0.2, 2.0, n))
    if family == "mmnl":
        segments = int(rng.integers(2, 4))
        thetas = rng.dirichlet(np.ones(segments))
        return MmnlModel(
            [(float(t), rng.uniform(0.0, 2.0, n)) for t in thetas]
        )
    if family == "markov":
        arrival = rng.dirichlet(np.ones(n + 1))
        rho = np.zeros((n + 1, n + 1))
        rho[0, 0] = 1.0
        for s in range(1, n + 1):
            rho[s] = rng.dirichlet(np.ones(n + 1))
        return MarkovModel(arrival, rho)
    if family == "ranked":
        count = int(rng.integers(2, 5))
        probs = rng.dirichlet(np.ones(count))
        lists = []
        for p in probs:
            size = int(rng.integers(1, n + 1))
            order = rng.permutation(n)[:size]
            lists.append((float(p), [int(i) for i in order]))
        return RankedListModel(lists, n)
    raise ValueError(f"unknown model family {family!r}")


def _random_browsing(rng: np.random.Generator, family: str, m: int):
    if family == "line":
        theta = rng.dirichlet(np.ones(m + 1))[:m]  # leftover mass visits nothing
        return LineBrowsing(theta)
    if family == "explicit":
        if m > 62:  # location masks below 2**m are drawn as int64
            raise ValueError(f"explicit random browsing needs m <= 62, got {m}")
        size = int(rng.integers(1, min(2**m, 8) + 1))
        masks = rng.choice(2**m, size=size, replace=False)
        probs = rng.dirichlet(np.ones(size))
        support = [
            ([j for j in range(m) if mask >> j & 1], float(p))
            for mask, p in zip(masks, probs)
        ]
        return ExplicitBrowsing(support)
    if family == "singleton":
        return singleton_uniform(m)
    if family == "full":
        return full_support(m)
    raise ValueError(f"unknown browsing family {family!r}")


def gen_random(
    n: int,
    m: int,
    model: str = "mnl",
    price_range: tuple[float, float] = (1.0, 10.0),
    browsing: str = "line",
    seed: int = 0,
) -> Instance:
    """Seeded random instance; same arguments always yield the same bytes."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be at least 1")
    lo, hi = price_range
    if not (0 <= lo <= hi < math.inf):  # also false for a NaN end
        raise ValueError("price range must be finite and satisfy 0 <= lo <= hi")
    rng = np.random.default_rng(seed)
    prices = np.full(n, float(lo)) if lo == hi else rng.uniform(lo, hi, n)
    choice_model = _random_model(rng, model, n)
    browse = _random_browsing(rng, browsing, m)
    return Instance(prices, choice_model, m, browse)
