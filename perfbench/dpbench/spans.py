"""Span recorder that traces dpstyler's layers from outside the package.

While active it replaces every public dpstyler function bound in the
traced modules' namespaces (so ``trainer.train_one_model`` sees wrapped
``remover_forward``, ``loss_gradients`` and so on, and the benchmark's
own ``evaluation.evaluate`` lookups hit wrappers too), and moves adopted
objects such as the backend onto a generated subclass whose public
methods are wrapped.  The subclass keeps ``isinstance`` checks true.

Spans are ``(name, start, end, parent, rows)`` tuples kept in memory;
``rows`` is the leading dimension of the first array argument.  Roots
are the benchmark's own phase spans (``bench.setup``, ``bench.unit``);
per-layer figures are averaged per root of the same phase.
"""

from __future__ import annotations

import functools
import inspect
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _layer(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


def _is_package_function(value, package: str) -> bool:
    return inspect.isfunction(value) and value.__module__.startswith(package + ".")


class SpanRecorder:
    def __init__(self, modules, package: str = "dpstyler"):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._patches = [
            (module, attr, value)
            for module in modules
            for attr, value in vars(module).items()
            if not attr.startswith("_") and _is_package_function(value, package)
        ]
        self._wrapped = {id(fn): self._wrap(fn) for _, _, fn in self._patches}
        self._adopted: list[tuple[object, type, type]] = []
        self._subclasses: dict[type, type] = {}
        self.active_now = False

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn):
        name_id = self._name_id(f"{_layer(fn)}.{fn.__name__}")
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rows = 0
            for arg in args:
                if isinstance(arg, np.ndarray):
                    rows = arg.shape[0] if arg.ndim > 1 else 1
                    break
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, rows)

        return traced

    def _traced_subclass(self, cls: type) -> type:
        if cls not in self._subclasses:
            methods = {}
            for attr in dir(cls):
                value = inspect.getattr_static(cls, attr)
                if not attr.startswith("_") and _is_package_function(value, self.package):
                    methods[attr] = self._wrap(value)
            self._subclasses[cls] = type(cls)(f"Traced{cls.__name__}", (cls,), methods)
        return self._subclasses[cls]

    def adopt(self, obj):
        """Trace ``obj``'s public methods whenever the recorder is active."""
        cls = type(obj)
        traced = self._traced_subclass(cls)
        self._adopted.append((obj, cls, traced))
        if self.active_now:
            object.__setattr__(obj, "__class__", traced)
        return obj

    @contextmanager
    def active(self):
        for module, attr, fn in self._patches:
            setattr(module, attr, self._wrapped[id(fn)])
        for obj, _, traced in self._adopted:
            object.__setattr__(obj, "__class__", traced)
        self.active_now = True
        try:
            yield self
        finally:
            self.active_now = False
            for obj, cls, _ in self._adopted:
                object.__setattr__(obj, "__class__", cls)
            for module, attr, fn in self._patches:
                setattr(module, attr, fn)

    @contextmanager
    def span(self, name: str):
        """A root (or nested) span around the benchmark's own code."""
        name_id = self._name_id(name)
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name_id, start, end, parent, 0)

    def _arrays(self):
        spans = [s for s in self.spans if s is not None]
        if len(spans) != len(self.spans):
            raise RuntimeError("summary taken while spans are still open")
        name_id, start, end, parent, rows = (np.array(col) for col in zip(*spans))
        return name_id.astype(np.int64), start, end, parent.astype(np.int64), rows

    def summary(self) -> dict[str, float]:
        """Per-layer totals, each divided by the number of roots of its phase.

        For every traced function ``<layer>.<fn>``: ``_s`` (inclusive
        time), ``_self_s``, ``_calls`` and ``_rows``; for every layer:
        ``<layer>.self_s`` and ``<layer>.calls``.
        """
        name_id, start, end, parent, rows = self._arrays()
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        root = np.arange(len(dur))
        for i in np.flatnonzero(nested):  # parents precede their children
            root[i] = root[parent[i]]
        root_name = name_id[root]
        per_phase = {rid: np.count_nonzero(name_id[~nested] == rid) for rid in set(root_name)}
        weight = np.array([1.0 / per_phase[r] for r in root_name])

        out: dict[str, float] = {}

        def add(key: str, values: np.ndarray) -> None:
            out[key] = out.get(key, 0.0) + float(np.sum(values))

        for nid, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            sel = (name_id == nid) & nested
            if layer == "bench" or not sel.any():
                continue
            w = weight[sel]
            add(f"{name}_s", dur[sel] * w)
            add(f"{name}_self_s", self_time[sel] * w)
            add(f"{name}_calls", w)
            add(f"{name}_rows", rows[sel] * w)
            add(f"{layer}.self_s", self_time[sel] * w)
            add(f"{layer}.calls", w)
        return out

    def save(self, path: str) -> None:
        name_id, start, end, parent, rows = self._arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name_id=name_id,
            start=start, end=end, parent=parent, rows=rows,
        )
