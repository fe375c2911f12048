"""Monte-Carlo estimation of placement revenue from browsing samples.

Each sample is a visited location set; its value is the exact conditional
expected revenue of the products placed there (not a simulated purchase),
which keeps the estimator unbiased while shrinking variance. Sample counts
follow the Hoeffding bound m^2 ln(1/delta) / (2 eps^2): with sample values
in [0, R], the estimate lies within eps * R / m of the truth with
probability at least 1 - 2*delta. For the top-price product i* in every
slot, R = R({i*}) and OPT >= p R({i*}), p the probability of visiting at
least one location, so the tolerance is eps * OPT / min(1, m p): it is
eps * OPT only when m p >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .choice import expected_revenue
from .core import Instance, _ids, canon, products_at

# Visited sets drawn per call to ``sample``: one vectorized draw per block for
# enumerable browsing, with memory bounded for any sample count.
_BLOCK = 1 << 16


def sample_size(m: int, epsilon: float, delta: float) -> int:
    """Samples needed for an (epsilon, delta) estimate over m locations."""
    if m < 1:
        raise ValueError("need at least one location")
    if not 0 < epsilon <= 1 or not 0 < delta <= 1:
        raise ValueError("epsilon and delta must lie in (0, 1]")
    return max(1, math.ceil(m * m * math.log(1.0 / delta) / (2.0 * epsilon * epsilon)))


@dataclass(frozen=True)
class EstimationPlan:
    """Sampling budget and normalization for one estimation context."""

    epsilon: float
    delta: float
    samples: int
    r_star_bound: float

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("need at least one sample")
        if not 0 < self.epsilon <= 1 or not 0 < self.delta <= 1:
            raise ValueError("epsilon and delta must lie in (0, 1]")

    @classmethod
    def for_instance(
        cls,
        instance: Instance,
        epsilon: float,
        delta: float,
        samples_override: int | None = None,
    ) -> "EstimationPlan":
        """Plan with the Hoeffding count (or an explicit override).

        The per-sample range is normalized by the max price, a computable
        upper bound on any assortment's revenue.
        """
        samples = (
            samples_override
            if samples_override is not None
            else sample_size(instance.m, epsilon, delta)
        )
        return cls(epsilon, delta, samples, float(instance.prices.max()))


def estimate_w(
    instance: Instance,
    slots: Sequence[int],
    plan: EstimationPlan,
    rng: np.random.Generator,
) -> tuple[float, int]:
    """Sample-average expected revenue of a placement.

    Draws ``plan.samples`` visited sets and averages the exact assortment
    revenue of the products at each. Returns (estimate, samples used).
    Sets are drawn in blocks of ``(sets, index)``; each block computes one
    revenue per distinct product set drawn and adds the per-draw revenues
    with one sequential ``np.add.accumulate``, so the estimate and the
    generator's end state are those of one draw and one ``total += rev``
    per sample.
    Raises ValueError unless the placement fills every slot with a catalog id
    (``core._ids``), and names the first drawn set with a location outside [0, m).
    """
    if len(slots) != instance.m:
        raise ValueError(f"placement must fill {instance.m} slots")
    slots = _ids(slots, instance.n, "placement")
    total = 0.0
    for start in range(0, plan.samples, _BLOCK):
        size = min(_BLOCK, plan.samples - start)
        sets, index = instance.browsing.sample(rng, size)
        revs = _set_revenues(instance, slots, sets, index)[index]
        revs[0] += total  # the running sum's first addition, total + revs[0]
        total = float(np.add.accumulate(revs, out=revs)[-1])
    return total / plan.samples, plan.samples


def _set_revenues(
    instance: Instance, slots: Sequence[int], sets: list[frozenset[int]], index: np.ndarray
) -> np.ndarray:
    """Revenue of the products at each set of ``sets`` that ``index`` draws.

    Drawn sets that offer the same products share one revenue call; sets
    never drawn get 0.0. ``products_at`` raises ValueError on the first set,
    in ``sets`` order, with a location outside [0, m): ``Instance`` checks
    line and explicit sets, and a sampler lists its sets in first-draw order.
    """
    model, prices = instance.choice_model, instance.prices
    offering: dict[tuple[int, ...], list[int]] = {}
    for i in np.flatnonzero(np.bincount(index, minlength=len(sets))).tolist():
        offering.setdefault(canon(products_at(slots, sets[i])), []).append(i)
    revs = np.zeros(len(sets))
    for key, where in offering.items():
        revs[where] = expected_revenue(model, prices, key)
    return revs
