"""Session-wide cache of the standard trajectories used across test modules,
and ``library_calls``, the one fixture that counts what the library calls."""

from __future__ import annotations

import collections
import importlib
import pkgutil
from types import SimpleNamespace

import numpy as np
import pytest

import spinhop
from spinhop import BasisLayout, ModelSpec, TimeGrid, dynamics, encode_state, linalg, run_trajectory

# name -> (spec, hamiltonian kind, (site label, e spin, static preset))
_SCENARIOS = {
    "xy1_exact": (ModelSpec.xy(1.0), "exact", (1, "up", "down-down")),
    "xy10_exact": (ModelSpec.xy(10.0), "exact", (1, "up", "down-down")),
    "xy10_eff": (ModelSpec.xy(10.0), "effective", (1, "up", "down-down")),
    "heis10_exact": (ModelSpec.heisenberg(10.0), "exact", (1, "up", "down-down")),
    "heis10_eff": (ModelSpec.heisenberg(10.0), "effective", (1, "up", "down-down")),
    "qst_xy20": (ModelSpec.xy(20.0), "exact", (1, "down", "up-down")),
    "qst_heis20": (ModelSpec.heisenberg(20.0), "exact", (1, "down", "up-down")),
    "mid3_exact": (ModelSpec.xy(10.0, n_sites=3), "exact", (0, "up", "down-down")),
    "side3_exact": (ModelSpec.xy(10.0, n_sites=3), "exact", (1, "up", "down-down")),
    "side3_exact100": (ModelSpec.xy(100.0, n_sites=3), "exact", (1, "up", "down-down")),
    "mid3_eff": (ModelSpec.xy(10.0, n_sites=3), "effective", (0, "up", "down-down")),
}


def _build(name):
    spec, kind, (site, e_spin, static) = _SCENARIOS[name]
    layout = BasisLayout(spec.n_sites)
    grid = TimeGrid()
    initial = encode_state(layout, site, e_spin, static)
    return SimpleNamespace(
        spec=spec,
        kind=kind,
        layout=layout,
        grid=grid,
        initial=initial,
        times=grid.times(),
        trajectory=run_trajectory(spec, kind, initial, grid),
    )


@pytest.fixture(scope="session")
def traj():
    """traj(name) -> lazily built, session-cached standard trajectory."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = _build(name)
        return cache[name]

    return get


class LibraryCalls:
    """What the library calls, one log entry per call: numpy's ``linspace``
    and ``kron``, and ``eigh`` and ``eigvalsh`` with the size of each matrix;
    ``kinds`` and ``blocks`` of each S_z block build of a run; ``checked``
    and ``evolved``, the shapes ``linalg.assert_hermitian`` and
    ``dynamics.evolve_on_grid`` get; ``pair``, each static-pair stack's
    log-negativity; and ``misses`` per cache of every ``spinhop`` module."""

    def __init__(self, monkeypatch):
        self.logs = collections.defaultdict(list)
        for owner, name, log, entries in [
            (np, "linspace", "linspace", lambda args, out: [args]),
            (np, "kron", "kron", lambda args, out: [None]),
            (np.linalg, "eigh", "eigh", lambda args, out: [np.shape(args[0])[-1]]),
            (np.linalg, "eigvalsh", "eigvalsh", lambda args, out: [np.shape(args[0])[-1]]),
            (linalg, "assert_hermitian", "checked", lambda args, out: [np.shape(args[0])]),
            (dynamics, "evolve_on_grid", "evolved", lambda args, out: [np.shape(args[0])]),
            (dynamics, "_log_negativity", "pair", lambda args, out: [None]),
            (dynamics, "_sector_blocks", "kinds", lambda args, out: [args[1]]),
            (dynamics, "_sector_blocks", "blocks", lambda args, out: [np.shape(b[2]) for b in out]),
        ]:
            monkeypatch.setattr(owner, name, self._counted(getattr(owner, name), log, entries))
        modules = [importlib.import_module(f"spinhop.{info.name}")
                   for info in pkgutil.iter_modules(spinhop.__path__)]
        self.caches = {fn.__name__: fn for module in [spinhop, *modules]
                       for fn in vars(module).values() if hasattr(fn, "cache_clear")}
        for cache in self.caches.values():
            cache.cache_clear()
        self.reset()

    def _counted(self, fn, log, entries):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.logs[log] += entries(args, out)
            return out

        return counted

    def reset(self):
        self.logs.clear()
        self.start = {name: fn.cache_info().misses for name, fn in self.caches.items()}

    def logged(self, wanted):
        """The logs ``wanted`` names, each as a count where its wanted value
        is one, else as its entries."""
        misses = {name: fn.cache_info().misses - self.start[name]
                  for name, fn in self.caches.items()}
        logs = {name: misses if name == "misses" else self.logs[name] for name in wanted}
        return {name: len(logs[name]) if isinstance(value, int) else logs[name]
                for name, value in wanted.items()}


@pytest.fixture
def library_calls(monkeypatch):
    """Counts what the library calls, from cold caches; see ``LibraryCalls``."""
    return LibraryCalls(monkeypatch)
