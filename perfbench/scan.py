"""The ``param_scan`` workload: a seeded in-process library sweep.

``draw_params`` turns a seed into plain parameter dicts with numpy alone, so
``oracle.py`` can rebuild the specs without importing the program.
``build_inputs`` and ``run_op`` are the only code here that calls spinhop.
"""

from __future__ import annotations

import numpy as np

PER_CELL = 38  # 8 cells, 304 specs
N_POINTS = 11
T_MAX = 30.0
# log10(eta/J) is drawn from this range: eta/J from 1 to 1e3
LOG10_ETA_RANGE = (0.0, 3.0)

STATIC_PRESETS = ("up-up", "up-down", "down-up", "down-down", "psi-plus", "psi-minus")
# one row per grid point; P_mid is 0 on two sites
POINT_COLUMNS = (
    "P_left", "P_mid", "P_right", "P_up", "F_plus", "F_minus",
    "logneg", "F2", "Sz", "S12sq", "norm", "energy",
)


def matching_effective(n_sites: int, site: int) -> str:
    """The effective Hamiltonian that is meant to describe this start."""
    if n_sites == 2:
        return "two_site"
    return "three_site_middle_start" if site == 0 else "three_site_projector"


def draw_params(seed: int) -> list:
    """Seeded specs: preset, lattice, eta/J log-uniform, kind and start state.

    The draw is stratified, so seeds differ in their specs but hardly in
    their cost: each of the 8 cells (lattice x exact/effective x preset) gets
    the same number of specs, and within a cell every eta/J comes from its
    own slice of the range.
    """
    rng = np.random.default_rng(seed)
    low, high = LOG10_ETA_RANGE
    params = []
    for n_sites in (2, 3):
        for effective in (False, True):
            for preset in ("xy", "heisenberg"):
                slices = (rng.permutation(PER_CELL) + rng.random(PER_CELL)) / PER_CELL
                for u in slices:
                    site = int(rng.choice((1, 2) if n_sites == 2 else (1, 0, 2)))
                    params.append({
                        "preset": preset,
                        "n_sites": n_sites,
                        "eta": float(10.0 ** (low + u * (high - low))),
                        "kind": matching_effective(n_sites, site) if effective else "exact",
                        "site": site,
                        "e_spin": str(rng.choice(("up", "down"))),
                        "static": str(rng.choice(STATIC_PRESETS)),
                    })
    return params


def build_inputs(spinhop, params) -> list:
    """(spec, kind, initial state) per parameter dict."""
    inputs = []
    for p in params:
        make = spinhop.ModelSpec.xy if p["preset"] == "xy" else spinhop.ModelSpec.heisenberg
        spec = make(p["eta"], n_sites=p["n_sites"])
        layout = spinhop.BasisLayout(p["n_sites"])
        psi0 = spinhop.encode_state(layout, p["site"], p["e_spin"], p["static"])
        inputs.append((spec, p["kind"], psi0))
    return inputs


def run_op(spinhop, grid, spec, kind, psi0):
    """One operation: a trajectory and its conservation report."""
    records = spinhop.run_trajectory(spec, kind, psi0, grid)
    return records, spinhop.conservation_monitor(records)


def _column(trajectory, name) -> np.ndarray:
    # a list of per-point records today; a columnar result keeps working
    if isinstance(trajectory, (list, tuple)):
        return np.array([getattr(r, name) for r in trajectory], dtype=float)
    return np.asarray(getattr(trajectory, name), dtype=float)


def flatten(trajectory, report) -> np.ndarray:
    """An operation's outputs as one float vector: the POINT_COLUMNS rows of
    every grid point, then the norm, energy, Sz and S12^2 drifts."""
    p_site = _column(trajectory, "p_site")
    mid = p_site[:, 1] if p_site.shape[1] == 3 else np.zeros(len(p_site))
    names = ("p_up", "f_plus", "f_minus", "logneg", "f2", "sz_total", "s12_sq", "norm", "energy")
    rows = np.column_stack(
        [p_site[:, 0], mid, p_site[:, -1]] + [_column(trajectory, n) for n in names]
    )
    drifts = (report.norm_drift, report.energy_drift, report.sz_drift, report.s12_sq_drift)
    return np.concatenate([rows.ravel(), drifts])
