"""Spans and counters for the traced run, installed from outside the program.

Each target function is replaced under every name it is bound to in any
spinhop module (``dynamics`` imports the model builders by name, ``analysis``
imports ``observables``, ``evolve_on_grid`` and ``hamiltonian_for``, ``cli``
imports ``run_trajectory``), so a call is recorded whichever binding it goes
through.  A target a later refactor removes is listed in ``absent``.

A span is (name, parent span, operation, start, end).  Spans stay in memory
until :func:`layer_metrics` reduces them; a layer's self time is its span's
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

import numpy as np


def _eigh_span(args):
    return "linalg.eigh_big" if np.shape(args[0])[0] >= 16 else "linalg.eigh_small"


def _csv_bytes(path):
    return "cli.csv_bytes", os.path.getsize(path)


def _states_bytes(states):
    return "dynamics.states_bytes", np.asarray(states).nbytes


def _sweeps(n):
    return "backend.sweeps", max(int(n), 0)


# (module, function, span name or a function of the arguments, counter of the result)
TARGETS = (
    ("spinhop.cli", "parse_config", "cli.parse", None),
    ("spinhop.cli", "cmd_simulate", "cli.cmd", _csv_bytes),
    ("spinhop.cli", "cmd_compare", "cli.cmd", _csv_bytes),
    ("spinhop.model", "build_hamiltonian", "model.build", None),
    ("spinhop.model", "build_effective_hamiltonian", "model.build", None),
    ("spinhop.linalg", "hermitian_eigensystem", _eigh_span, None),
    ("spinhop.linalg", "partial_trace", "linalg.reduce", None),
    ("spinhop.linalg", "partial_transpose", "linalg.reduce", None),
    ("spinhop.dynamics", "evolve_on_grid", "dynamics.evolve", _states_bytes),
    ("spinhop.dynamics", "observables", "dynamics.observables", None),
    ("spinhop.dynamics", "run_trajectory", "dynamics.run_trajectory", None),
    ("spinhop.analysis", "compare_exact_effective", "analysis.compare", None),
    ("spinhop.analysis", "conservation_monitor", "analysis.conservation", None),
    # the Jacobi kernel is counted, not timed: its time is the eigh span's
    ("spinhop.backend", "jacobi_sweeps", None, _sweeps),
)

OP = "op"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = []  # (name, value, operation)
        self.absent = []
        self.op = -1
        self._stack = []
        self._bindings = None

    def _wrap(self, fn, name, counter):
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    label = name(args) if callable(name) else name
                    spans[index] = (label, parent, self.op, start, end)
            if counter is not None:
                counters.append((*counter(result), self.op))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Put the wrappers in place of every binding of every target."""
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for mod, key, _, traced in self._bindings:
            setattr(mod, key, traced)

    def uninstall(self):
        for mod, key, original, _ in self._bindings or ():
            setattr(mod, key, original)

    def _find_bindings(self):
        bindings = []
        for module, attr, name, counter in TARGETS:
            try:
                original = getattr(importlib.import_module(module), attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{attr}")
                continue
            traced = self._wrap(original, name, counter)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").partition(".")[0] != "spinhop":
                    continue
                for key, value in vars(mod).items():
                    if value is original:
                        bindings.append((mod, key, original, traced))
        return bindings

    def run_op(self, op, fn, *args):
        """Run one operation under a root span; returns ``fn``'s result."""
        self.op = op
        return self._wrap(fn, OP, None)(*args)


def layer_metrics(spans, counters, op_pass) -> dict:
    """Per pass: self time, total time and call count of every span name, and
    counter totals.  ``op_pass`` maps an operation to its pass; operations
    missing from it are left out.  The self times of a pass add up to the
    total time of its root spans, ``op.total_s``."""
    out = {p: {} for p in set(op_pass.values())}
    if spans:
        names, parent, ops, start, end = zip(*spans)
        parent = np.array(parent)
        duration = np.array(end) - np.array(start)
        inner = parent >= 0
        self_time = duration - np.bincount(
            parent[inner], weights=duration[inner], minlength=len(spans)
        )
        for name, op, d, s in zip(names, ops, duration.tolist(), self_time.tolist()):
            m = out.get(op_pass.get(op))
            if m is None:
                continue
            m[name + ".self_s"] = m.get(name + ".self_s", 0.0) + s
            m[name + ".total_s"] = m.get(name + ".total_s", 0.0) + d
            m[name + ".calls"] = m.get(name + ".calls", 0) + 1
    for name, value, op in counters:
        m = out.get(op_pass.get(op))
        if m is not None:
            m[name] = m.get(name, 0) + value
    return out
