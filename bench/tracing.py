"""Span tracing of balcone's layers, installed from outside the package.

``Tracer.install`` replaces the public functions and methods of each layer
module with wrappers that record a span: name, start, end, parent span and
op id.  A name bound elsewhere by ``from .x import y`` is rebound in every
loaded balcone module, or calls through it would go unrecorded.  Spans
stay in memory until ``dump``; self time is a span's duration minus the
time its direct children cover.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import inspect
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("scenario_io", "variety", "ring", "pipeline", "cones", "report", "svg", "cli")
# Dunder methods that do a layer's work.  A dataclass's generated
# ``__init__`` only stores fields, so there ``__post_init__`` stands for it.
WORK_DUNDERS = ("__init__", "__post_init__", "__mul__", "__add__", "__sub__", "__pow__")


def _size(cls):
    terms = getattr(cls, "_terms", None)
    return len(terms if terms is not None else cls.terms())


class Tracer:
    """Spans in columns: name index, start, end, parent span and op id."""

    def __init__(self):
        self.names = []
        self.name_ix, self.parent, self.op_ix = array("i"), array("q"), array("q")
        self.start, self.end = array("d"), array("d")
        self.stack = []
        self.op = 0
        self.counters = defaultdict(int)
        self.image_args = set()

    def _wrap(self, name, fn, after=None):
        self.names.append(name)
        idx = len(self.names) - 1
        name_ix, parent, op_ix = self.name_ix, self.parent, self.op_ix
        start, end, stack = self.start, self.end, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name_ix)
            name_ix.append(idx)
            parent.append(stack[-1] if stack else -1)
            op_ix.append(self.op)
            end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_mul(self, args, result):
        other = args[1]
        if hasattr(other, "space"):
            self.counters["ring.mul.term_pairs"] += _size(args[0]) * _size(other)
        if hasattr(result, "space"):
            size = _size(result)
            if size > self.counters["ring.max_terms"]:
                self.counters["ring.max_terms"] = size

    def _after_image(self, args, result):
        self.image_args.add((self.op, id(args[0])))

    def install(self):
        """Wrap every layer's public functions and rebind them package-wide."""
        hooks = {
            "ring.CohomClass.__mul__": self._after_mul,
            "pipeline.balanced_image_closure": self._after_image,
        }
        replaced = {}
        for layer in LAYERS:
            mod = sys.modules[f"balcone.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    replaced[obj] = self._wrap(name, obj, hooks.get(name))
                elif inspect.isclass(obj):
                    skip = ("__init__",) if dataclasses.is_dataclass(obj) else ()
                    for meth, fn in list(vars(obj).items()):
                        public = not meth.startswith("_") or meth in WORK_DUNDERS
                        public = public and meth not in skip
                        if public and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                            name = f"{layer}.{attr}.{meth}"
                            setattr(obj, meth, self._wrap(name, fn, hooks.get(name)))
        for modname, mod in list(sys.modules.items()):
            if modname != "balcone" and not modname.startswith("balcone."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

    def _self_ms(self):
        covered = [0.0] * len(self.name_ix)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[sid] - self.start[sid]
        return [(self.end[i] - self.start[i] - covered[i]) * 1e3 for i in range(len(covered))]

    def summary(self):
        """Counters plus per-name calls, inclusive ms and self ms."""
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for sid, self_ms in enumerate(self._self_ms()):
            i = self.name_ix[sid]
            calls[i] += 1
            total[i] += (self.end[sid] - self.start[sid]) * 1e3
            own[i] += self_ms
        return {
            "counters": dict(self.counters),
            "image_distinct": len(self.image_args),
            "spans": {name: {"calls": calls[i], "ms": total[i], "self_ms": own[i]}
                      for i, name in enumerate(self.names) if calls[i]},
        }

    def dump(self, path):
        """Write the spans as JSON lines after a header naming the fields."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "op",
                                            "self_ms"], "names": self.names}) + "\n")
            for sid, self_ms in enumerate(self._self_ms()):
                fh.write(f"[{sid},{self.name_ix[sid]},{self.start[sid]:.9f},"
                         f"{self.end[sid]:.9f},{self.parent[sid]},{self.op_ix[sid]},"
                         f"{self_ms:.6f}]\n")
