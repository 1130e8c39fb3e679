"""Session-wide cache of the standard trajectories used across test modules."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from spinhop import BasisLayout, ModelSpec, TimeGrid, encode_state, run_trajectory

# name -> (spec, hamiltonian kind, (site label, e spin, static preset))
_SCENARIOS = {
    "xy1_exact": (ModelSpec.xy(1.0), "exact", (1, "up", "down-down")),
    "xy10_exact": (ModelSpec.xy(10.0), "exact", (1, "up", "down-down")),
    "xy10_eff": (ModelSpec.xy(10.0), "two_site", (1, "up", "down-down")),
    "heis10_exact": (ModelSpec.heisenberg(10.0), "exact", (1, "up", "down-down")),
    "heis10_eff": (ModelSpec.heisenberg(10.0), "two_site", (1, "up", "down-down")),
    "qst_xy20": (ModelSpec.xy(20.0), "exact", (1, "down", "up-down")),
    "qst_heis20": (ModelSpec.heisenberg(20.0), "exact", (1, "down", "up-down")),
    "mid3_exact": (ModelSpec.xy(10.0, n_sites=3), "exact", (0, "up", "down-down")),
    "side3_exact": (ModelSpec.xy(10.0, n_sites=3), "exact", (1, "up", "down-down")),
    "side3_exact100": (ModelSpec.xy(100.0, n_sites=3), "exact", (1, "up", "down-down")),
    "mid3_chain": (
        ModelSpec.xy(10.0, n_sites=3),
        "three_site_middle_start",
        (0, "up", "down-down"),
    ),
    "mid3_proj": (
        ModelSpec.xy(10.0, n_sites=3),
        "three_site_projector",
        (0, "up", "down-down"),
    ),
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
