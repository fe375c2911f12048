"""Core domain types: assortments, placements, problem instances.

A catalog is a vector of n fixed nonnegative prices; product ids are the
positions 0..n-1 in it.
A placement assigns one product id to each of m display locations (a product
may repeat across locations). An assortment is a duplicate-free set of
product ids; the always-available no-purchase option is implicit and never
stored.
"""

from __future__ import annotations

import numbers
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Collection, Iterable, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:  # browsing and choice import core; a runtime import would cycle
    from .browsing import BrowsingDistribution
    from .choice import ChoiceModel

# Slack allowed in a probability sum.
_PROB_TOL = 1e-9

# The one cell budget: the most entries one block's (or table's) array holds.
_CELLS = 1 << 16

# Sentinel for an unfilled location. Allowed only inside solver
# intermediates, never in a returned placement.
EMPTY_SLOT = -1


class SizeGuardError(ValueError):
    """A brute-force routine would exceed its instance-size guard."""


class EnumerationUnsupportedError(ValueError):
    """The browsing distribution cannot enumerate its support exactly."""


def as_int(value, what: str) -> int:
    """``value`` as an int, for integer fields read from JSON.

    Raises ValueError unless the value is integral: ``2`` and ``2.0`` pass,
    ``2.7``, ``"2"``, ``True``, NaN and infinities do not.
    """
    try:
        if not isinstance(value, (bool, np.bool_)) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _field(spec: Mapping, key: str, where: str, listed: bool = False):
    """``spec[key]``; ValueError if the JSON object ``where`` lacks it or,
    when ``listed``, if it holds no JSON list."""
    if key not in spec:
        raise ValueError(f"{where} lacks the {key!r} field")
    if listed and not isinstance(spec[key], (list, tuple)):
        raise ValueError(f"{where} field {key!r} must be a list")
    return spec[key]


def _entries(spec: Mapping, key: str, where: str, *fields: str, lists=()) -> list[tuple]:
    """The ``fields`` of each JSON object in the list ``spec[key]``, those named
    in ``lists`` read as lists; ``_field`` reads a faulty list again, to name it."""
    value = _field(spec, key, where)
    if not isinstance(value, (list, tuple)) or not all(
        type(e) is dict or isinstance(e, Mapping) for e in value
    ):
        raise ValueError(f"{where} field {key!r} must be a list of JSON objects")
    listed = [t for t, f in enumerate(fields) if f in lists]
    try:  # one e[f] per field
        rows = [tuple([e[f] for f in fields]) for e in value]
        if all(isinstance(row[t], (list, tuple)) for t in listed for row in rows):
            return rows
    except KeyError:
        pass
    entry = f"{where} {key} entry"
    return [tuple([_field(e, f, entry, f in lists) for f in fields]) for e in value]


def _reals(values, what: str) -> np.ndarray:
    """``values``, a number or nested sequence of numbers, as a float array.

    Raises ValueError naming ``what`` on an entry that is not a real number
    or is a boolean (numpy alone reads ``"0.5"`` as 0.5 and ``True`` as 1.0,
    so a quoted or boolean JSON number would load silently), then on the
    first NaN, infinite or negative entry.
    """
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        entries = np.asarray(values, dtype=object).ravel().tolist()
        wrong = {
            kind
            for kind in set(map(type, entries))
            if issubclass(kind, (bool, np.bool_)) or not issubclass(kind, numbers.Real)
        }
        if wrong:
            bad = next(v for v in entries if type(v) in wrong)
            raise ValueError(f"{what}: expected a number, got {bad!r}")
    out = np.asarray(values, dtype=float)
    bad = out[~((out >= 0) & (out < np.inf))]  # NaN fails both
    if bad.size:
        raise ValueError(f"{what} must be finite and nonnegative, got {float(bad[0])!r}")
    return out


def _is_id(v) -> bool:
    """The type half of the product-id rule: a Python or numpy integer, no boolean."""
    return type(v) is int or isinstance(v, np.integer)


def _ids(values, n: int, what: str):
    """``values``, product ids, as a list of plain ints (an ndarray: an int array of
    its shape, itself if it is one). ValueError names ``what``, the range and the
    first id that is not a Python or numpy integer in [0, n), like True, 2.0 or "2"."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind in "iu" and (not values.size or values.min() >= 0 and values.max() < n):
            return values
        return np.reshape(_ids(values.ravel().tolist(), n, what), values.shape)
    ids = list(values)
    for v in ids:
        if not (_is_id(v) and 0 <= v < n):
            raise ValueError(f"{what}: unknown product id {v!r}; catalog ids are ints in [0, {n})")
    return [int(v) for v in ids]


def _probabilities(values, what: str) -> np.ndarray:
    """``_reals`` whose every last-axis row sums to 1 within ``_PROB_TOL``."""
    p = _reals(values, what)
    sums = np.atleast_1d(p).sum(axis=-1)
    off = sums[np.abs(sums - 1.0) > _PROB_TOL]
    if off.size:
        raise ValueError(f"{what} must sum to 1, got a row summing to {float(off[0])!r}")
    return p


def canon(ids: Iterable[int]) -> tuple[int, ...]:
    """Canonical sorted duplicate-free tuple for an assortment."""
    return tuple(sorted(set(ids)))


def products_at(slots: Sequence[int], locations: Collection[int]) -> frozenset[int]:
    """Set of products placed at the given locations.

    Returns the duplicate-free union of slot contents; empty set for empty
    input. Raises ValueError naming the locations outside [0, len(slots)).
    """
    m = len(slots)
    out = set()
    for j in locations:
        if not 0 <= j < m:
            bad = sorted(j for j in locations if not 0 <= j < m)
            raise ValueError(f"locations {bad} outside [0, {m})")
        out.add(slots[j])
    return frozenset(out)


@dataclass(eq=False)
class Instance:
    """A placement problem: catalog prices, choice model, locations, browsing.

    The catalog's product ``i`` has id ``i`` and price ``prices[i]``.
    """

    prices: np.ndarray
    choice_model: ChoiceModel
    m: int
    browsing: BrowsingDistribution

    def __post_init__(self):
        # copied: _reals hands a float array back as is, and the caller keeps it
        self.prices = _reals(self.prices, "price").copy()
        if self.prices.ndim != 1 or not self.prices.size:
            raise ValueError(f"prices must be a nonempty flat list, got shape {self.prices.shape}")
        self.m = as_int(self.m, "m")
        if self.m < 1:
            raise ValueError("instance needs at least one location")
        model_n = getattr(self.choice_model, "n", None)
        if model_n is not None and model_n != self.n:
            raise ValueError(f"choice model covers {model_n} products, catalog has {self.n}")
        line_m = getattr(self.browsing, "m", None)
        if line_m is not None and line_m != self.m:
            raise ValueError(f"browsing spans {line_m} locations, instance has {self.m}")
        max_loc = getattr(self.browsing, "max_location", None)
        if max_loc is not None and max_loc >= self.m:
            raise ValueError(f"browsing visits location {max_loc} >= m = {self.m}")

    @property
    def n(self) -> int:
        return len(self.prices)

    @property
    def i_star(self) -> int:
        """Highest-price product id (lowest id wins ties)."""
        return int(np.argmax(self.prices))


def substream(seed: int, name: str) -> np.random.Generator:
    """Named random stream derived deterministically from one master seed."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])
