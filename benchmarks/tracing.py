"""Call-time spans around the program's public functions.

`Tracer.install` replaces each public function of the traced modules, in
every module of the package that holds a reference to it, with a wrapper
that records a span (name, start, end, parent, extra).  Spans stay in
memory until `write`; `uninstall` puts the original functions back.  The
program's source is not touched.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import sys
import time


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []   # [name id, start, end, parent index, extra]
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn, extra=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1,
                    extra(*args, **kwargs) if extra else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def install(self, modules: dict, extras: dict):
        """Wrap every public function defined in ``modules`` (layer name ->
        module); ``extras`` maps a span name to a function of the call's
        arguments whose result is stored with the span."""
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self._wrap(name, obj, extras.get(name))
        package = next(iter(modules.values())).__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
                    self._patched.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def write(self, path):
        """Spans as gzipped JSON: names, then [name id, start, end, parent, extra]."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


class SpanTable:
    """Durations, self times and ancestry of a tracer's spans by name."""

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        self.name = [tracer.names[s[0]] for s in spans]
        self.dur = [s[2] - s[1] for s in spans]
        self.parent = [s[3] for s in spans]
        self.extra = [s[4] for s in spans]
        self._by_name: dict[str, list[int]] = {}
        for i, n in enumerate(self.name):
            self._by_name.setdefault(n, []).append(i)
        child_time = [0.0] * len(spans)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_time[p] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, child_time)]

    def where(self, name: str) -> list[int]:
        return self._by_name.get(name, [])

    def count(self, name: str) -> int:
        return len(self.where(name))

    def total(self, name: str, self_only: bool = False) -> float:
        times = self.self_time if self_only else self.dur
        return sum(times[i] for i in self.where(name))

    def median(self, name: str, self_only: bool = False) -> float:
        times = self.self_time if self_only else self.dur
        return statistics.median(times[i] for i in self.where(name))

    def grouped(self, name: str, ancestors: set) -> dict[int, list[int]]:
        """The ``name`` spans grouped by their outermost ancestor whose name
        is in ``ancestors``; spans with no such ancestor are left out."""
        out: dict[int, list[int]] = {}
        for i in self.where(name):
            top, p = -1, self.parent[i]
            while p >= 0:
                if self.name[p] in ancestors:
                    top = p
                p = self.parent[p]
            if top >= 0:
                out.setdefault(top, []).append(i)
        return out
