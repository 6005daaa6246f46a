"""Span tracing of steerkit's public functions, from outside the package.

``Tracer.installed()`` replaces every public steerkit function at every
module attribute that binds it (``svd3`` is bound in ``svd3``,
``criteria``, ``families``, ``oracle``, ``cli`` and the package itself),
and in module-level dicts such as the CLI's command table, by one wrapper
per function. Each call records one span: name id, parent span, start,
end. Spans live in flat arrays while the run lasts and are written out
at its end; self times are derived from them afterwards.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import re
import statistics
import subprocess
from array import array
from time import perf_counter

import numpy as np

MODULES = ("steerkit", "steerkit.states", "steerkit.svd3", "steerkit.criteria",
           "steerkit.families", "steerkit.sphere", "steerkit.oracle", "steerkit.cli")

# (span, enclosing span) pairs whose nesting is counted as calls happen.
NESTED = (
    ("families.state_at", "families.sweep"),
    ("families.state_at", "criteria.critical_noise"),
    ("sphere.sphere_grid", "oracle.model_state_overlap"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.outer = array("b")  # 1 if no span of the same name is open
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._open: list[int] = []
        self.nested = {pair: 0 for pair in NESTED}
        self.grid_points = 0
        self.sweep_points = 0
        self._wrappers: dict[object, object] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._ids[name]

    def wrap(self, fn, name: str, on_result=None):
        nid = self._id(name)
        watch = [(self._id(a), (c, a)) for c, a in NESTED if c == name]
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            opened = tracer._open
            for anc, pair in watch:
                if opened[anc]:
                    tracer.nested[pair] += 1
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.outer.append(opened[nid] == 0)
            opened[nid] += 1
            tracer._stack.append(idx)
            tracer.end.append(0.0)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer._stack.pop()
                opened[nid] -= 1
            return result if on_result is None else on_result(result)

        return span

    def _hook(self, name: str):
        if name == "sphere.sphere_grid":
            def grid_built(grid):
                self.grid_points += len(grid)
                return grid
            return grid_built
        if name == "families.sweep":
            def swept(records):
                self.sweep_points += len(records)
                return records
            return swept
        if name == "families.family_from_name":
            return self.traced_family
        return None

    def traced_family(self, family):
        """The family with its ``state_at`` callable wrapped in a span."""
        return dataclasses.replace(
            family, state_at=self.wrap(family.state_at, "families.state_at"))

    def _wrapper_for(self, fn):
        if fn not in self._wrappers:
            name = fn.__module__.rsplit(".", 1)[-1] + "." + fn.__name__
            self._wrappers[fn] = self.wrap(fn, name, self._hook(name))
        return self._wrappers[fn]

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every public steerkit function, then restore."""
        import importlib

        undo = []
        for modname in MODULES:
            module = importlib.import_module(modname)
            for attr, value in list(vars(module).items()):
                if _traceable(attr, value):
                    undo.append((setattr, module, attr, value))
                    setattr(module, attr, self._wrapper_for(value))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if _traceable(str(key), item):
                            undo.append((dict.__setitem__, value, key, item))
                            value[key] = self._wrapper_for(item)
        try:
            yield self
        finally:
            for restore, target, key, value in reversed(undo):
                restore(target, key, value)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans) and self seconds."""
        n = len(self.start)
        names = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        outer = np.frombuffer(self.outer, dtype=np.int8, count=n).astype(bool)
        dur = (np.frombuffer(self.end, count=n) - np.frombuffer(self.start, count=n))
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - children
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        inclusive = np.bincount(names[outer], weights=dur[outer], minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        return {
            name: {"calls": int(calls[i]), "s": float(inclusive[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        n = len(self.start)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32, count=n),
            parent=np.frombuffer(self.parent, dtype=np.int32, count=n),
            start=np.frombuffer(self.start, count=n),
            end=np.frombuffer(self.end, count=n),
        )


def _traceable(attr: str, value) -> bool:
    return (not attr.startswith("_") and inspect.isfunction(value)
            and value.__module__.startswith("steerkit.")
            and value.__name__.isidentifier() and not value.__name__.startswith("_"))


_IMPORTTIME = re.compile(r"^import time:\s*(\d+) \|\s*(\d+) \|( *)(\S+)\s*$")


def import_breakdown(python: str, env: dict, cwd, samples: int = 3) -> tuple[float, float]:
    """Median seconds of ``import steerkit.cli`` and of the scipy part of it.

    Parsed from ``python -X importtime``: the whole import is the
    cumulative time of the outermost steerkit entries; the scipy part sums
    the cumulative times of scipy entries not nested in another scipy one.
    """
    total, scipy = [], []
    for _ in range(samples):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import steerkit.cli"],
                              env=env, cwd=cwd, capture_output=True, text=True,
                              timeout=120, check=True)
        rows = []
        for line in proc.stderr.splitlines():
            m = _IMPORTTIME.match(line)
            if m:
                rows.append((len(m.group(3)) // 2, m.group(4), int(m.group(2)) * 1e-6))
        total.append(sum(s for depth, name, s in rows
                         if depth == 0 and name.split(".")[0] == "steerkit"))
        part = 0.0
        for i, (depth, name, s) in enumerate(rows):
            if name.split(".")[0] != "scipy":
                continue
            # A row's parent is the first later row that is less deeply nested.
            parent = next((r for r in rows[i + 1:] if r[0] < depth), None)
            if parent is None or parent[1].split(".")[0] != "scipy":
                part += s
        scipy.append(part)
    return statistics.median(total), statistics.median(scipy)
