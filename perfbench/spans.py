"""Outside-in span tracer for the mixbound layers.

The benchmark never edits the program.  Instead, a traced run replaces the
public functions of each layer module (and the methods of the layer
classes) with wrappers that record one span per call: name, start, end and
the enclosing span.  References that other ``mixbound`` modules imported by
name (``brw.decompose``, ``bounds.heat_moment_all``, ``cli.standard_sweep``
...) are swapped as well, so calls that cross layers are caught.

Spans are kept in flat typed arrays (about 23 bytes each: the
``exact_custom`` workload records about a million of them) and summarised
once the commands have finished.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

# Layer modules, in dependency order.  ``cli`` contributes only its entry
# point: its ``cmd_*`` bodies (argument handling, CSV writing) are the
# layer's own work and show up as ``cli.main`` self time.
LAYERS = ("chains", "spectral", "hitting", "mixing", "analysis", "bounds",
          "brw", "cli")
CLASS_METHODS = {"mixing": ("MixingProfile",), "analysis": ("ChainAnalysis",)}
CLI_ENTRY = ("main",)


class Tracer:
    """Span store plus the counters recorded at layer boundaries."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._depth: list[int] = []
        self.name_id = array("H")
        self.parent = array("i")
        self.outer = array("b")   # 1 when no span of the same name encloses it
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = {}

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """Return fn wrapped so each call records a span called ``name``."""
        nid = self._intern(name)
        depth, stack = self._depth, self._stack
        name_id, parent, outer = self.name_id, self.parent, self.outer
        start, end = self.start, self.end
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            outer.append(depth[nid] == 0)
            depth[nid] += 1
            stack.append(sid)
            end.append(0.0)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
                depth[nid] -= 1

        return traced

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def summary(self) -> dict[str, dict[str, float]]:
        return summarize(self.names, self.name_id, self.parent, self.outer,
                         self.start, self.end)

    def save(self, path) -> None:
        """Write the raw spans (one row per call) as a NumPy archive."""
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.uint16),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


def summarize(names, name_id, parent, outer, start, end):
    """Per span name: total seconds, self seconds and call count.

    ``total`` sums the spans that no same-named span encloses, so recursion
    is not counted twice.  A span's self time is its duration minus the
    durations of its direct children; children of one span never overlap
    because the traced process runs the layers on one thread.
    """
    name_id = np.asarray(name_id, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    outer = np.asarray(outer, dtype=bool)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    k = len(names)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=dur.size)
    self_time = dur - child_time
    total = np.bincount(name_id[outer], weights=dur[outer], minlength=k)
    self_sum = np.bincount(name_id, weights=self_time, minlength=k)
    calls = np.bincount(name_id, minlength=k)
    return {name: {"total": float(total[i]), "self": float(self_sum[i]),
                   "calls": int(calls[i])}
            for i, name in enumerate(names)}


def _public_functions(module):
    for attr, value in vars(module).items():
        if (inspect.isfunction(value) and not attr.startswith("_")
                and value.__module__ == module.__name__):
            yield attr, value


def install(tracer: Tracer, package, extra=None):
    """Wrap the public functions and class methods of every layer.

    ``package`` is the imported ``mixbound`` package.  ``extra`` maps a span
    name to a decorator applied beneath the span wrapper (used to count
    work units at a boundary).
    """
    extra = extra or {}
    replaced = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{package.__name__}.{layer}")
        funcs = dict(_public_functions(module))
        if layer == "cli":
            funcs = {a: f for a, f in funcs.items() if a in CLI_ENTRY}
        for attr, fn in funcs.items():
            name = f"{layer}.{attr}"
            inner = extra[name](fn) if name in extra else fn
            replaced[fn] = tracer.wrap(name, inner)
            setattr(module, attr, replaced[fn])
        for cls_name in CLASS_METHODS.get(layer, ()):
            cls = getattr(module, cls_name)
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                name = f"{layer}.{attr}"
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__)))
                elif inspect.isfunction(raw):
                    setattr(cls, attr, tracer.wrap(name, raw))
    # Re-point names other modules imported before the swap.
    prefix = package.__name__ + "."
    for mod_name, module in list(sys.modules.items()):
        if mod_name == package.__name__ or mod_name.startswith(prefix):
            _repoint(module, replaced)


def _repoint(module, replaced):
    for attr, value in list(vars(module).items()):
        try:
            new = replaced.get(value)
        except TypeError:  # unhashable module attribute
            continue
        if new is not None:
            setattr(module, attr, new)
