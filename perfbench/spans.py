"""In-memory span tracing around proxyrec's public functions.

A traced round replaces every public function of the seven layer modules
(data, trainer, autodiff, selector, encoder, scoring, evaluator) with a
timing wrapper at each module attribute that binds it. Python resolves a
call through the caller's own module globals, so wrapping every binding means
`train_epoch` hits the wrapper at `proxyrec.trainer.sample_negatives` and
`fit` hits it at `proxyrec.evaluator.evaluate`. A span is named after the
module that defines the function (`data.sample_negatives`), whichever module
calls it. `Tensor.backward` is wrapped too, and counts the graph it walks.

`synth` only makes inputs and `cli` is only an entry point, so neither is a
layer here. Spans are kept in memory as tuples and written out when the run
ends; nothing inside the program changes.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time

import numpy as np

LAYERS = ("data", "trainer", "autodiff", "selector", "encoder", "scoring", "evaluator")


def count_graph(root) -> int | None:
    """Distinct tensors reachable from root through recorded inputs."""
    if not hasattr(root, "_prev"):
        return None
    seen = {id(root)}
    stack = [root]
    while stack:
        for child in stack.pop()._prev:
            if id(child) not in seen:
                seen.add(id(child))
                stack.append(child)
    return len(seen)


class Tracer:
    """Spans as (id, name, start, end, parent id, round); -1 is no parent."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.graph_nodes: list[int] = []
        self.round = -1
        self._stack = [-1]
        self._next = 0
        self._saved: list[tuple[object, str, object]] = []

    def _open(self) -> tuple[int, int]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, name, t0, parent) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, name, t0, t1, parent, self.round))

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark phase span around the body of a with statement."""
        sid, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, t0, parent)

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            sid, parent = tracer._open()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid, name, t0, parent)

        return traced

    def _wrap_backward(self, fn):
        tracer = self
        traced = self._wrap("autodiff.Tensor.backward", fn)

        def backward(root, *args, **kwargs):
            nodes = count_graph(root)  # counted outside the timed span
            if nodes is not None:
                tracer.graph_nodes.append(nodes)
            return traced(root, *args, **kwargs)

        return backward

    def install(self) -> None:
        """Wrap every binding of every public layer function."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {name: importlib.import_module(f"proxyrec.{name}") for name in LAYERS}
        layer_of = {mod.__name__: name for name, mod in modules.items()}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = layer_of.get(obj.__module__)
                if layer is None:
                    continue
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, self._wrap(f"{layer}.{obj.__name__}", obj))
        tensor = getattr(modules["autodiff"], "Tensor", None)
        if tensor is not None and "backward" in vars(tensor):
            original = vars(tensor)["backward"]
            self._saved.append((tensor, "backward", original))
            tensor.backward = self._wrap_backward(original)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    # -- output and analysis ----------------------------------------------------

    def write(self, path: str, run_label: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run\tround\tid\tparent\tname\tstart_s\tend_s\n")
            for sid, name, t0, t1, parent, rnd in sorted(self.spans):
                fh.write(f"{run_label}\t{rnd}\t{sid}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\n")


class SpanTable:
    """Column view of the recorded spans, indexed by span id."""

    def __init__(self, spans):
        n = max((s[0] for s in spans), default=-1) + 1
        self.name = np.empty(n, dtype=object)
        self.start = np.zeros(n)
        self.end = np.zeros(n)
        self.parent = np.full(n, -1, dtype=np.int64)
        for sid, name, t0, t1, parent, _ in spans:
            self.name[sid] = name
            self.start[sid] = t0
            self.end[sid] = t1
            self.parent[sid] = parent
        self.dur = self.end - self.start
        self.child_sum = np.zeros(n)
        has_parent = self.parent >= 0
        np.add.at(self.child_sum, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - self.child_sum

    def ids(self, name: str, parent: str | None = None) -> np.ndarray:
        mask = self.name == name
        if parent is not None:
            pnames = np.where(self.parent >= 0, self.name[self.parent], None)
            mask &= pnames == parent
        return np.flatnonzero(mask)

    def nesting_faults(self) -> int:
        """Spans that start before or end after their parent, or parents whose
        children add up to more than the parent's own duration."""
        child = np.flatnonzero(self.parent >= 0)
        p = self.parent[child]
        outside = (self.start[child] < self.start[p]) | (self.end[child] > self.end[p])
        overfull = self.child_sum > self.dur + 1e-9
        return int(outside.sum() + overfull.sum())

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, total self seconds)."""
        out: dict[str, tuple[int, float, float]] = {}
        for name in sorted(set(self.name.tolist()) - {None}):
            m = self.name == name
            out[name] = (int(m.sum()), float(self.dur[m].sum()), float(self.self_time[m].sum()))
        return out
