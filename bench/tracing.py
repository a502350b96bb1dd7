"""Span recorder for the traced run, and self times derived from its spans.

The recorder wraps every public function of each ``grushin`` module, and the
public methods of its public classes, in every module namespace that holds
it, so calls between modules and inside one module are both seen.  Spans are
kept in flat arrays while the run lasts and written out once at its end.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

#: private helpers that a per-layer metric needs as their own spans
EXTRA_FUNCTIONS = {"grushin.cli": ("_svg_phase_diagram",)}


def module_group(name: str) -> str:
    """The layer a span name belongs to: its module, with the index-set language under indexset."""
    head = name.split(".", 1)[0]
    return "indexset" if head == "indexset_lang" else head


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    names = list(names) + list(EXTRA_FUNCTIONS.get(module.__name__, ()))
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, fn in vars(obj).items():
                if inspect.isfunction(fn) and not attr.startswith("_"):
                    yield f"{name}.{attr}", (obj, attr, fn)


class SpanRecorder:
    """Records (name, parent, op, start, end) for each wrapped call."""

    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list = []
        self.current_op = -1
        self._patches: list = []

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name: str):
        name_id = self._id(name)
        begin, finish = self.begin, self.finish

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = begin(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)

        return wrapper

    def install(self, package: str = "grushin"):
        """Wrap the package's public functions wherever a module namespace holds them."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        originals = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, obj in _public_functions(module):
                if isinstance(obj, tuple):
                    cls, attr, fn = obj
                    self._patches.append((cls, attr, fn))
                    setattr(cls, attr, self._wrap(fn, f"{short}.{name}"))
                else:
                    originals[id(obj)] = (obj, self._wrap(obj, f"{short}.{name}"))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def dump(self, path: str):
        np.savez(path, names=np.array(self.names, dtype=str), name=np.frombuffer(self.name, "i4"),
                 parent=np.frombuffer(self.parent, "i4"), op=np.frombuffer(self.op, "i4"),
                 start=np.frombuffer(self.start, "f8"), end=np.frombuffer(self.end, "f8"))


class Spans:
    """Spans read back from a trace file, with inclusive and self durations."""

    def __init__(self, path: str):
        with np.load(path) as data:
            self.names = [str(n) for n in data["names"]]
            self.name = data["name"]
            self.parent = data["parent"]
            self.op = data["op"]
            self.start = data["start"]
            self.end = data["end"]
        self.duration = self.end - self.start
        self.self_time = self_times(self.parent, self.duration)

    def ids(self, *names) -> np.ndarray:
        """Name ids of the given span names (those never recorded are left out)."""
        return np.array([self.names.index(n) for n in names if n in self.names], dtype=int)


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """A span's duration minus the durations of its direct children."""
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=duration[has_parent],
                           minlength=len(duration))
    return duration - children
