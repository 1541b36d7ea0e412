"""Span tracing around the public functions of each hemoflow layer.

The tracer replaces a function or method by a wrapper that records one
span (name, start, end, parent) per call. A module-level function is
replaced under every name that refers to it in any hemoflow module, since
callers look names up in their own namespace (``cli`` imports
``write_series`` and ``run_0d``; ``solver0d`` imports ``tube_law_slope``).
Spans are kept in flat arrays in memory and written out once, at the end.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: (module, attribute, span name); ``Class.method`` attributes patch the class
TRACED = [
    ("netio", "parse_network", "netio.parse"),
    ("netio", "write_series", "netio.write_series"),
    ("netio", "read_series", "netio.read_series"),
    ("solver0d", "assemble_network", "solver0d.assemble"),
    ("solver0d", "NetworkModel0D.initial_state", "solver0d.initial_state"),
    ("solver0d", "NetworkModel0D.rhs", "solver0d.rhs"),
    ("solver0d", "NetworkModel0D.observe", "solver0d.observe"),
    ("solver0d", "rk4_integrate", "solver0d.rk4_integrate"),
    ("solver0d", "run_0d", "solver0d.run_0d"),
    ("solver1d", "Simulation1D.__init__", "solver1d.setup"),
    ("solver1d", "Simulation1D.step", "solver1d.step"),
    ("solver1d", "Vessel1D.prepare", "solver1d.prepare"),
    ("solver1d", "Vessel1D.commit", "solver1d.commit"),
    ("solver1d", "cfl_dt", "solver1d.cfl_dt"),
    ("solver1d", "junction_solve", "solver1d.junction_solve"),
    ("solver1d", "inflow_bc", "solver1d.inflow_bc"),
    ("solver1d", "terminal_bc", "solver1d.terminal_bc"),
    ("solver1d", "run_1d", "solver1d.run_1d"),
    ("metrics", "first_periodic_cycle", "metrics.first_periodic_cycle"),
    ("metrics", "sample_cycle", "metrics.sample_cycle"),
    ("metrics", "error_metrics", "metrics.error_metrics"),
    ("analysis", "format_network_report", "analysis.format_network_report"),
    ("cli", "cmd_run", "cli.run"),
    ("cli", "cmd_compare", "cli.compare"),
    ("cli", "cmd_analyze", "cli.analyze"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(self, fn, name: str, count_bytes: str | None = None):
        """Traced version of ``fn``. With ``count_bytes`` = 'before' or
        'after', the size of the file named by the first argument is added
        to the counter '<name>.bytes' before or after the call."""
        nid = self._id(name)

        def traced(*args, **kwargs):
            path = args[0] if args else None
            if count_bytes == "before":
                self.count(name + ".bytes", os.path.getsize(path))
            i = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if count_bytes == "after":
                self.count(name + ".bytes", os.path.getsize(path))
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap every entry of TRACED plus each public function of
        ``package.vessel``, under every name that refers to it."""
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        targets = [(getattr(package, mod), attr, name) for mod, attr, name in TRACED]
        vessel = package.vessel
        for attr, fn in vars(vessel).items():
            if (inspect.isfunction(fn) and fn.__module__ == vessel.__name__
                    and not attr.startswith("_")):
                targets.append((vessel, attr, f"vessel.{attr}"))
        count_bytes = {"netio.write_series": "after", "netio.read_series": "before"}
        for module, attr, name in targets:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(vars(cls)[meth], name))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(original, name, count_bytes.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        n = len(self.start)
        name_id = np.frombuffer(self.name_id, dtype=np.int32, count=n).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n).copy()
        start = np.frombuffer(self.start, dtype=np.float64, count=n).copy()
        end = np.frombuffer(self.end, dtype=np.float64, count=n).copy()
        return name_id, parent, start, end

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (duration
        minus the time covered by direct children)."""
        name_id, parent, start, end = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        own = np.bincount(name_id, weights=self_s, minlength=k)
        return {name: {"calls": float(calls[i]), "s": float(total[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            parent=parent, start=start, end=end)
