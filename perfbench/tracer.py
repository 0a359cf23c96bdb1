"""Span tracer that wraps the functions of the lidar_edge modules.

The tracer lives entirely outside the program: it replaces each traced
function by a wrapper under every name a module binds it to, so a call
is recorded wherever the caller looks the name up (``models.conv_forward``,
``training.forward_nested``, ``cli.classical`` -> ``classical.canny``).
Spans (name, parent, start, end) are kept in flat in-memory arrays and
written out only when the run ends; ``uninstall`` puts every original
function back.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from array import array
from contextlib import contextmanager

# Private helpers worth a span of their own; every public function of
# every module is traced as well.
PRIVATE_TRACED = frozenset({
    "cli._tuned_detectors", "cli._read_input_image",
    "classical._nms", "classical._hysteresis",
    "evaluation._pooled_counts", "layers._im2col",
})

MARK = "__perfbench_span__"


def _conv_flops(weights_shape, out_shape) -> int:
    cout, cin, kh, kw = weights_shape
    return 2 * cout * cin * kh * kw * out_shape[-2] * out_shape[-1]


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Operation counts computed from shapes (not measured): forward costs
# 2*Cout*Cin*kh*kw*Ho*Wo, backward twice that.
FLOP_COUNTERS = {
    "layers.conv_forward": lambda args, kwargs, out:
        _conv_flops(_arg(args, kwargs, 1, "p").weights.shape, out.shape),
    "layers.conv_backward": lambda args, kwargs, out:
        2 * _conv_flops(_arg(args, kwargs, 1, "p").weights.shape,
                        _arg(args, kwargs, 2, "d_out").shape),
}


def traced_functions(modules: dict) -> dict:
    """{id(fn): (span name, fn)} for the functions each module defines."""
    found = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            if attr.startswith("_") and name not in PRIVATE_TRACED:
                continue
            found[id(obj)] = (name, obj)
    return found


def installed_wrappers(modules: dict) -> list:
    """Names still bound to a tracer wrapper; empty once uninstalled."""
    return [f"{short}.{attr}" for short, mod in modules.items()
            for attr, obj in vars(mod).items() if hasattr(obj, MARK)]


class Tracer:
    """Records nested spans around calls into the wrapped functions."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.flops: dict[str, int] = {}
        self._patched: list = []

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span recorded by the benchmark itself, e.g. one workload pass."""
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        counter = FLOP_COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                tracer.flops[name] = tracer.flops.get(name, 0) + counter(args, kwargs, out)
            return out

        setattr(wrapper, MARK, name)
        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every traced function under every name bound to it."""
        targets = traced_functions(modules)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))  # targets keeps every id alive
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    # -- aggregation ------------------------------------------------------

    def durations(self) -> list[int]:
        return [e - s for s, e in zip(self.start, self.end)]

    def summary(self) -> dict:
        """{name: {"calls", "total_ns", "self_ns"}} over all spans."""
        dur = self.durations()
        child = [0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = {}
        for i, nid in enumerate(self.name_id):
            row = out.setdefault(self.names[nid], {"calls": 0, "total_ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["total_ns"] += dur[i]
            row["self_ns"] += dur[i] - child[i]
        return out

    def children_of(self, root: int) -> list[int]:
        return [i for i, p in enumerate(self.parent) if p == root]

    def roots(self, name: str) -> list[int]:
        nid = self._name_ids.get(name, -2)
        return [i for i, n in enumerate(self.name_id) if n == nid and self.parent[i] == -1]

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of `name` with a span named `ancestor` above them."""
        nid, aid = self._name_ids.get(name, -2), self._name_ids.get(ancestor, -2)
        count = 0
        for i, n in enumerate(self.name_id):
            if n != nid:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != aid:
                p = self.parent[p]
            count += p >= 0
        return count

    def write(self, path) -> None:
        """Gzipped JSON: span names plus [name, parent, start_ns, end_ns] rows."""
        doc = {"names": self.names,
               "columns": ["name", "parent", "start_ns", "end_ns"],
               "spans": [list(row) for row in zip(self.name_id, self.parent,
                                                  self.start, self.end)]}
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))
