"""Entanglement quantification, conservation monitoring, exact-vs-effective
deviation reports and period estimation from sampled trajectories."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    COLUMNS,
    TimeGrid,
    Trajectory,
    _checked_run,
    _log_negativity,
    column_names,
    evolve_on_grid,
    hamiltonian_for,
    observables,
)
from .model import ModelSpec


def log_negativity(rho12) -> float:
    """Logarithmic negativity (base 2) of a two-qubit density matrix,
    clamped at zero from below against numerical noise.  The matrix must be
    Hermitian with unit trace and no eigenvalue below -1e-9."""
    rho = np.asarray(rho12, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    with np.errstate(divide="ignore"):  # a zero matrix fails the trace check below
        value = float(_log_negativity(rho))  # checks Hermiticity first
    trace = float(np.trace(rho).real)
    if abs(trace - 1.0) > 1e-9:
        raise ValueError(f"density matrix trace is {trace}, expected 1")
    smallest = float(np.linalg.eigvalsh(rho)[0])  # eigenvalues only, ascending
    if smallest < -1e-9:
        raise ValueError(f"density matrix has negative eigenvalue {smallest}")
    return value


@dataclass(frozen=True)
class ConservationReport:
    """Maximum absolute drift from the t=0 value along one trajectory."""

    norm_drift: float
    energy_drift: float
    sz_drift: float
    s12_sq_drift: float


def conservation_monitor(trajectory: Trajectory) -> ConservationReport:
    """Drift of norm, energy, total S_z and the squared total static spin."""
    if not len(trajectory):
        raise ValueError("empty trajectory")
    series = np.stack((trajectory.norm, trajectory.energy, trajectory.sz_total, trajectory.s12_sq))
    drifts = np.maximum.reduce(np.abs(series - series[:, :1]), axis=-1)
    return ConservationReport(*drifts.tolist())


@dataclass(frozen=True)
class DeviationReport:
    """Worst-case discrepancy between exact and effective evolution.
    ``max_observable_gap`` follows the compared columns of ``COLUMNS`` in
    order, keyed by field or, for a site population, by column name."""

    eta_over_j: float
    max_state_infidelity: float
    max_observable_gap: dict
    grid: TimeGrid


def compare_exact_effective(
    spec: ModelSpec, initial, grid: TimeGrid | None = None, variant: str | None = None
) -> DeviationReport:
    """Evolve ``initial`` under the exact and the effective Hamiltonian and
    report the worst state infidelity and per-observable gaps over the grid.

    States are compared on the full space, except for the spin-only
    ``three_site_middle_start`` variant where the motional factor is not
    meaningful and the comparison happens on the spin-reduced state.
    """
    if variant is None:
        variant = "two_site" if spec.n_sites == 2 else "three_site_middle_start"
    eta_over_j = spec.eta / spec.j_ref  # J = 0 fails here, before any evolution
    layout, initial, grid = _checked_run(spec, initial, grid)
    times = grid.times()
    h_exact = hamiltonian_for(spec, "exact")
    h_eff = hamiltonian_for(spec, variant)
    states_exact = evolve_on_grid(h_exact, initial, times)
    states_eff = evolve_on_grid(h_eff, initial, times)

    if variant == "three_site_middle_start":
        # Tr[rho rho'] of the site-reduced spin states, sum_xy |<ex[x]|ef[y]>|^2;
        # the effective spin state stays pure, so this is the fidelity
        split = (len(times), layout.n_sites, 8)
        overlaps = np.einsum(
            "txa,tya->txy", states_exact.reshape(split).conj(), states_eff.reshape(split)
        )
        fidelity = (np.abs(overlaps) ** 2).sum(axis=(1, 2))
    else:
        fidelity = np.abs(np.einsum("ij,ij->i", states_exact.conj(), states_eff)) ** 2

    exact = observables(states_exact, layout)
    eff = observables(states_eff, layout)
    gaps = {}
    for name in column_names(layout.n_sites):
        field, position, _, compared = COLUMNS[name]
        if compared:
            gap = np.abs(exact.column(name) - eff.column(name)).max()
            gaps[field if position is None else name] = float(gap)

    return DeviationReport(
        eta_over_j=eta_over_j,
        max_state_infidelity=float((1.0 - fidelity).max()),
        max_observable_gap=gaps,
        grid=grid,
    )


def estimate_period(times, values, threshold: float = 0.75, min_amplitude: float = 1e-6) -> float:
    """Period of an oscillating probability-valued series.

    Maxima are located as threshold crossings refined by quadratic
    interpolation (a least-squares parabola over each above-threshold run,
    which averages out fast small ripples).  Probability-level maxima repeat
    twice per cycle of the underlying state, so the returned period is twice
    their mean spacing.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1 or t.size < 3:
        raise ValueError("need matching 1-d time and value arrays with >= 3 samples")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("times must be strictly increasing")
    amplitude = float(v.max() - v.min())
    if amplitude <= min_amplitude:
        raise ValueError("oscillation amplitude below noise floor")
    level = v.min() + threshold * amplitude

    # first and last index of every run of samples at or above the level
    edges = np.diff((v >= level).astype(np.int8), prepend=0, append=0)
    runs = [
        [int(i), int(j)]
        for i, j in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1)
    ]
    n = v.size
    # fast ripples can split a peak at its edges; merge runs separated by
    # gaps much shorter than the inter-peak distance
    if len(runs) > 1:
        max_gap = max(runs[k + 1][0] - runs[k][1] for k in range(len(runs) - 1))
        merged = [runs[0]]
        for run in runs[1:]:
            if run[0] - merged[-1][1] < 0.1 * max_gap:
                merged[-1][1] = run[1]
            else:
                merged.append(run)
        runs = merged
    # a run touching the series boundary holds a truncated peak
    runs = [r for r in runs if r[0] > 0 and r[1] < n - 1]

    peaks = []
    for i, j in runs:
        if j - i + 1 >= 3:
            a, b, _ = np.polyfit(t[i : j + 1], v[i : j + 1], 2)
            if a < 0.0:
                vertex = -b / (2.0 * a)
                if t[i] <= vertex <= t[j]:
                    peaks.append(float(vertex))
                    continue
        k = i + int(np.argmax(v[i : j + 1]))
        denom = v[k - 1] - 2.0 * v[k] + v[k + 1]
        offset = 0.5 * (v[k - 1] - v[k + 1]) / denom if denom < 0.0 else 0.0
        peaks.append(float(t[k] + offset * (t[k + 1] - t[k])))

    if len(peaks) < 2:
        raise ValueError("insufficient oscillations detected")
    spacing = (peaks[-1] - peaks[0]) / (len(peaks) - 1)
    return 2.0 * spacing
