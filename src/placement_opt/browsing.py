"""Browsing distributions over subsets of display locations.

A customer visits a random set of locations and then chooses from the
products placed there. Explicit and line-shaped distributions enumerate
their support exactly; sampler-backed ones only draw.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .core import _CELLS, _PROB_TOL, EnumerationUnsupportedError, _entries, _field, _reals, as_int


class BrowsingDistribution:
    """Base interface: i.i.d. sampling plus (optional) exact support."""

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """One visited set, or a block of ``size`` i.i.d. visited sets.

        A block is ``(sets, index)``: ``sets`` lists distinct visited sets
        and the ``np.intp`` array ``index`` holds each draw's position in
        ``sets``, so draw ``t`` is ``sets[index[t]]``. The block draws the
        same sets, and leaves the generator in the same state, as ``size``
        single draws.
        """
        raise NotImplementedError

    def support(self) -> list[tuple[frozenset[int], float]]:
        """Visited-set support with probabilities (zero-mass sets omitted)."""
        raise NotImplementedError

    def to_spec(self) -> dict:
        raise NotImplementedError


class _CategoricalBrowsing(BrowsingDistribution):
    """Finitely many visited sets ``_sets`` drawn by the cumulative vector
    ``_cum``: a uniform ``u`` draws category ``searchsorted(_cum, u, "right")``.

    A block looks each draw up in a guide table (Chen & Asau 1974; Devroye
    1986, III.2.4) over ``bins`` equal bins of [0, 1), which returns that same
    category for the same uniform. The sets are built once, so a block returns
    ``_sets`` itself with the category index of every draw; sets never drawn
    are listed too.
    """

    _sets: list[frozenset[int]]
    _cum: np.ndarray

    @functools.cached_property
    def _guide(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(scaled, first, split)`` over ``bins = len(first)`` bins.

        ``bins`` is the smallest power of two >= 16 times the category count,
        clamped to [2**12, ``core._CELLS``], so below the clamp at most one bin
        in 16 is split. ``scaled`` is ``_cum * bins``, exact as ``bins`` is a
        power of two; bin ``b`` holds the scaled uniforms in [b, b + 1).
        ``first[b]`` is the category of the bin's lower edge, and ``split[b]``
        marks a bin with a scaled cumulative value strictly inside it, where
        the category changes within the bin.
        """
        bins = min(max(1 << (16 * len(self._cum) - 1).bit_length(), 1 << 12), _CELLS)
        scaled = self._cum * bins
        edges = np.arange(bins + 1.0)
        first = np.searchsorted(scaled, edges[:-1], side="right")
        split = first != np.searchsorted(scaled, edges[1:], side="left")
        return scaled, first, split

    def sample(self, rng, size=None):
        if size is None:
            return self._sets[np.searchsorted(self._cum, rng.random(), side="right")]
        scaled, first, split = self._guide
        u = rng.random(size)
        u *= first.size  # exact, so the bin of each draw is exact too
        index = u.astype(np.intp)
        hit = np.flatnonzero(split[index])
        u = u[hit]  # only split-bin draws need their value again
        first.take(index, out=index, mode="clip")  # "raise" would buffer a copy
        index[hit] = np.searchsorted(scaled, u, side="right")
        return self._sets, index


class ExplicitBrowsing(_CategoricalBrowsing):
    """Distribution given by an explicit list of (location set, probability).

    Duplicate sets are merged; probabilities must be finite, nonnegative and
    sum to 1 within 1e-9.
    """

    def __init__(self, support: Iterable[tuple[Iterable[int], float]]):
        support = list(support)
        probs = _reals([prob for _, prob in support], "support probabilities")
        if probs.ndim != 1:  # every entry is a sequence of one length
            bad = support[0][1]
            raise ValueError(f"support probabilities: expected a number, got {bad!r}")
        merged: dict[frozenset[int], float] = {}
        for (locations, _), prob in zip(support, probs.tolist()):
            locs = [as_int(j, "location") for j in locations]
            bad = next((j for j in locs if j < 0), None)
            if bad is not None:
                raise ValueError(f"location indices must be nonnegative, got {bad}")
            key = frozenset(locs)
            merged[key] = merged.get(key, 0.0) + prob
        total = sum(merged.values())
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"support probabilities sum to {total}, expected 1")
        items = sorted(merged.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
        self._sets = [s for s, p in items if p > 0.0]
        self._probs = np.array([p for _, p in items if p > 0.0])
        self._cum = np.cumsum(self._probs)
        self._cum[-1] = 1.0

    @property
    def max_location(self) -> int:
        return max((max(s) for s in self._sets if s), default=-1)

    def support(self):
        return list(zip(self._sets, (float(p) for p in self._probs)))

    def to_spec(self) -> dict:
        return {
            "type": "explicit",
            "support": [
                {"locations": sorted(s), "prob": float(p)}
                for s, p in zip(self._sets, self._probs)
            ],
        }


class LineBrowsing(_CategoricalBrowsing):
    """Customers scan locations 0,1,2,... and stop; visited sets are prefixes.

    ``theta[j]`` is the probability of visiting exactly locations 0..j.
    Any residual mass (sum < 1) is the customer who visits nothing.
    """

    def __init__(self, theta: Sequence[float]):
        t = _reals(theta, "prefix probabilities")
        if t.ndim != 1 or t.size == 0:
            raise ValueError("theta must be a nonempty 1-d sequence")
        total = float(t.sum())
        if total > 1.0 + _PROB_TOL:
            raise ValueError(f"prefix probabilities sum to {total} > 1")
        self.theta = t
        self.m = int(t.size)
        self._residual = max(0.0, 1.0 - total)
        # category 0 = visit nothing, category j >= 1 = prefix 0..j-1
        self._sets = [frozenset(range(j)) for j in range(self.m + 1)]
        self._cum = np.cumsum(np.concatenate(([self._residual], t)))
        self._cum[-1] = 1.0

    def support(self):
        out = [(s, float(p)) for s, p in zip(self._sets[1:], self.theta) if p > 0.0]
        if self._residual > _PROB_TOL:
            out.insert(0, (self._sets[0], self._residual))
        return out

    def to_spec(self) -> dict:
        return {"type": "line", "theta": [float(v) for v in self.theta]}


class SamplerBrowsing(BrowsingDistribution):
    """Opaque simulator: draws visited sets, cannot enumerate them.

    The draw callable must be deterministic given the generator state; its
    locations are read by ``as_int``, as JSON ones are. A block loops the
    single draw and lists each set at its first draw.
    """

    def __init__(self, draw: Callable[[np.random.Generator], Iterable[int]]):
        self._simulate = draw

    def sample(self, rng, size=None):
        if size is None:
            return frozenset(as_int(j, "location") for j in self._simulate(rng))
        positions: dict[frozenset[int], int] = {}
        index = [positions.setdefault(self.sample(rng), len(positions)) for _ in range(size)]
        return list(positions), np.array(index, dtype=np.intp)

    def support(self):
        raise EnumerationUnsupportedError(
            "sampler-backed browsing has no enumerable support; use sample_average_placement"
        )

    def to_spec(self) -> dict:
        raise ValueError("sampler-backed browsing is not serializable")


def singleton_uniform(m: int) -> ExplicitBrowsing:
    """Each customer visits exactly one location, uniformly at random."""
    if m < 1:
        raise ValueError("need at least one location")
    return ExplicitBrowsing([([j], 1.0 / m) for j in range(m)])


def full_support(m: int) -> ExplicitBrowsing:
    """Every customer visits all locations (assortment-only special case)."""
    if m < 1:
        raise ValueError("need at least one location")
    return ExplicitBrowsing([(range(m), 1.0)])


def browsing_from_spec(spec: Mapping) -> BrowsingDistribution:
    """Build a browsing distribution from its JSON-friendly description."""
    kind = spec.get("type")
    if kind == "explicit":
        support = _entries(spec, "support", "browsing", "locations", "prob", lists=("locations",))
        return ExplicitBrowsing(support)
    if kind == "line":
        return LineBrowsing(_field(spec, "theta", "browsing"))
    raise ValueError(f"unknown browsing type {kind!r}")
