"""Outside-in tracer for the placement_opt library.

Wraps the library's public functions and methods in spans without editing
the library. The library imports names with ``from .x import y``, so a
function is patched in every ``placement_opt`` module namespace that holds
it; a method is patched on its base class and on every subclass that
overrides it. ``installed()`` restores every patched attribute on exit.

Spans are kept in memory, one buffer of compact columns per thread, and
written out with ``save_spans``. Each thread has its own span stack; a span
opened on a thread whose stack is empty (a ``ThreadPoolExecutor`` worker,
say) takes as parent the innermost open span of the thread that installed
the tracer, since context does not follow ``submit``.
"""

from __future__ import annotations

import array
import functools
import importlib
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

PACKAGE = "placement_opt"

# Layer names are "<module>.<function>"; "op" is the benchmark's own root
# span around one user-visible call.
LAYERS = (
    "op",
    "cli.main",
    "instances.from_json",
    "solvers.solve",
    "solvers.value",
    "solvers.revenue",
    "oracle.best_assortment",
    "choice.choice_probs",
    "choice.expected_revenue",
    "core.canon",
    "core.products_at",
    "browsing.sample",
    "browsing.support",
    "estimation.estimate_w",
)
_INDEX = {name: i for i, name in enumerate(LAYERS)}

# layer -> (defining module, function names); patched wherever they are bound
FUNCTIONS = {
    "cli.main": ("cli", ("main",)),
    "instances.from_json": ("instances", ("from_json",)),
    "solvers.solve": (
        "solvers",
        (
            "brute_force_placement",
            "best_of_many_line",
            "randomized_placement",
            "uniform_price_matroid_greedy",
            "markov_deterministic_placement",
        ),
    ),
    "choice.expected_revenue": ("choice", ("expected_revenue",)),
    "core.canon": ("core", ("canon",)),
    "core.products_at": ("core", ("products_at",)),
    "estimation.estimate_w": ("estimation", ("estimate_w",)),
}

# layer -> (module, base class, method); overrides in subclasses are patched too
METHODS = {
    "solvers.value": ("solvers", "WEvaluator", "value"),
    "solvers.revenue": ("solvers", "WEvaluator", "revenue"),
    "oracle.best_assortment": ("oracle", "AssortmentOracle", "best_assortment"),
    "choice.choice_probs": ("choice", "ChoiceModel", "choice_probs"),
    "browsing.sample": ("browsing", "BrowsingDistribution", "sample"),
    "browsing.support": ("browsing", "BrowsingDistribution", "support"),
}


def _revenue_key(evaluator, ids):
    ids = tuple(ids)  # callers pass one-shot generators
    key = frozenset(ids)
    n = evaluator.instance.n
    if key and (min(key) < 0 or max(key) >= n):  # empty slots and padding
        key = frozenset(i for i in key if 0 <= i < n)
    return ids, evaluator, key


def _probs_key(model, assortment):
    assortment = tuple(assortment)
    return assortment, model, frozenset(assortment)


# layer -> key(obj, first argument) giving (argument to pass on, owner, key).
# A call is distinct when its (owner, key) is new within the op; the keys
# match the library's own per-object caches.
KEYS = {
    "solvers.value": lambda evaluator, slots: (slots, evaluator, tuple(slots)),
    "solvers.revenue": _revenue_key,
    "choice.choice_probs": _probs_key,
    "oracle.best_assortment": lambda oracle, k: (k, oracle.instance, k),
}


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    """Total length covered by possibly overlapping intervals."""
    total, reach = 0.0, -np.inf
    for s, e in sorted(zip(starts.tolist(), ends.tolist())):
        if e <= reach:
            continue
        total += e - max(s, reach)
        reach = e
    return total


class _Buffer:
    """Spans of one thread, as columns; only that thread appends to it."""

    def __init__(self, index: int):
        self.index = index
        self.stack: list[int] = []
        self.layer = array.array("b")
        self.parent_buffer = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")


class Tracer:
    """Span recorder plus per-op work counters for the wrapped layers.

    Counters: ``distinct[layer]`` sums, over ops, the number of distinct
    (object, argument) keys the layer was called with in the op, so
    ``calls - distinct`` is the work a per-op cache could skip;
    ``samples`` sums the sample counts ``estimate_w`` returns.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._seen: dict[str, set] = {name: set() for name in KEYS}
        self._held: dict[int, object] = {}
        self.clear()

    # -- recording -----------------------------------------------------

    def clear(self):
        """Drop recorded spans and counters; patches stay installed."""
        with self._lock:
            self._buffers: list[_Buffer] = []
            self._local = threading.local()
            self._main: _Buffer | None = None
        self.distinct = {name: 0 for name in KEYS}
        self.samples = 0

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buffer
        except AttributeError:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buffer = buf
            return buf

    def _enter(self, layer: int) -> tuple[_Buffer, int]:
        buf = self._buffer()
        stack = buf.stack
        main = self._main
        if stack:
            owner, parent = buf.index, stack[-1]
        elif main is not None and main is not buf and main.stack:
            owner, parent = main.index, main.stack[-1]
        else:
            owner, parent = -1, -1
        idx = len(buf.start)
        buf.layer.append(layer)
        buf.parent_buffer.append(owner)
        buf.parent.append(parent)
        buf.end.append(0.0)
        stack.append(idx)
        buf.start.append(time.perf_counter())
        return buf, idx

    @staticmethod
    def _leave(buf: _Buffer, idx: int):
        buf.end[idx] = time.perf_counter()
        buf.stack.pop()

    @contextmanager
    def op(self):
        """Root span of one op; distinct keys are counted per op."""
        for seen in self._seen.values():
            seen.clear()
        self._held.clear()
        if self._main is None:
            self._main = self._buffer()
        buf, idx = self._enter(_INDEX["op"])
        try:
            yield
        finally:
            self._leave(buf, idx)
            for name, seen in self._seen.items():
                self.distinct[name] += len(seen)

    # -- wrapping ------------------------------------------------------

    def _wrap(self, layer: str, fn):
        code = _INDEX[layer]
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf, idx = enter(code)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(buf, idx)

        return traced

    def _wrap_keyed(self, layer: str, fn, key):
        """Wrap a method whose first argument feeds the distinct count."""
        code = _INDEX[layer]
        enter, leave = self._enter, self._leave
        seen, held = self._seen[layer], self._held

        @functools.wraps(fn)
        def traced(obj, arg, *args, **kwargs):
            arg, owner, k = key(obj, arg)
            held[id(owner)] = owner  # keeps id() unique within the op
            seen.add((id(owner), k))
            buf, idx = enter(code)
            try:
                return fn(obj, arg, *args, **kwargs)
            finally:
                leave(buf, idx)

        return traced

    def _wrap_estimate(self, fn):
        traced = self._wrap("estimation.estimate_w", fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = traced(*args, **kwargs)
            with self._lock:
                self.samples += int(result[1])
            return result

        return counted

    def _patch(self, owner, name: str, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    @contextmanager
    def installed(self):
        """Patch every layer of the imported library; restore on exit.

        The installing thread is the one whose open span parents the spans
        of worker threads.
        """
        if self._patches:
            raise RuntimeError("tracer is already installed")
        importlib.import_module(PACKAGE)
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        self._main = self._buffer()
        try:
            for layer, (home, names) in FUNCTIONS.items():
                source = importlib.import_module(f"{PACKAGE}.{home}")
                for name in names:
                    original = getattr(source, name)
                    if layer == "estimation.estimate_w":
                        wrapped = self._wrap_estimate(original)
                    else:
                        wrapped = self._wrap(layer, original)
                    for mod in modules:
                        if vars(mod).get(name) is original:
                            self._patch(mod, name, wrapped)
            for layer, (home, base_name, method) in METHODS.items():
                base = getattr(importlib.import_module(f"{PACKAGE}.{home}"), base_name)
                key = KEYS.get(layer)
                for cls in _subclasses(base):
                    if method in cls.__dict__:
                        original = cls.__dict__[method]
                        if key is None:
                            wrapped = self._wrap(layer, original)
                        else:
                            wrapped = self._wrap_keyed(layer, original, key)
                        self._patch(cls, method, wrapped)
            yield self
        finally:
            for owner, name, original in reversed(self._patches):
                setattr(owner, name, original)
            self._patches.clear()
            self._held.clear()

    # -- results -------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        """Recorded spans as arrays.

        ``parent`` indexes the same arrays and is -1 for a root span;
        ``thread`` numbers the recording threads in order of first span.
        """
        with self._lock:
            buffers = list(self._buffers)
        sizes = [len(buf.start) for buf in buffers]
        offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        parts = {name: [np.zeros(0, dtype=dtype)] for name, dtype in _COLUMNS.items()}
        for buf, size in zip(buffers, sizes):
            owner = np.frombuffer(buf.parent_buffer, dtype=np.int32)[:size]
            local = np.frombuffer(buf.parent, dtype=np.int32)[:size]
            parent = np.where(owner >= 0, offsets[np.maximum(owner, 0)] + local, -1)
            parts["layer"].append(np.frombuffer(buf.layer, dtype=np.int8)[:size])
            parts["parent"].append(parent)
            parts["thread"].append(np.full(size, buf.index, dtype=np.int32))
            parts["start"].append(np.frombuffer(buf.start, dtype=np.float64)[:size])
            parts["end"].append(np.frombuffer(buf.end, dtype=np.float64)[:size])
        return {name: np.concatenate(chunks) for name, chunks in parts.items()}


_COLUMNS = {
    "layer": np.int8,
    "parent": np.int64,
    "thread": np.int32,
    "start": np.float64,
    "end": np.float64,
}


def save_spans(path, columns: dict[str, np.ndarray]):
    """Write span columns (from ``Tracer.columns``) and layer names to ``.npz``."""
    np.savez(path, names=np.array(LAYERS), **columns)


def layer_totals(columns: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Per layer: ``calls``, inclusive ``total_s`` and ``self_s``.

    Self time is a span's duration minus the time its child spans cover.
    Children on the parent's own thread never overlap; children from worker
    threads may, so for those parents the union of child intervals is taken.
    """
    layer, parent, thread = columns["layer"], columns["parent"], columns["thread"]
    start, end = columns["start"], columns["end"]
    dur = end - start
    has_parent = parent >= 0
    cover = np.zeros(dur.size)
    np.add.at(cover, parent[has_parent], dur[has_parent])
    kids = np.flatnonzero(has_parent)
    cross = kids[thread[kids] != thread[parent[kids]]]
    for p in np.unique(parent[cross]):
        mine = np.flatnonzero(parent == p)
        cover[p] = _union_length(start[mine], end[mine])
    self_s = dur - cover
    count = len(LAYERS)
    calls = np.bincount(layer, minlength=count)
    total = np.bincount(layer, weights=dur, minlength=count)
    own = np.bincount(layer, weights=self_s, minlength=count)
    return {
        name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
        for i, name in enumerate(LAYERS)
    }
