"""Entanglement quantification, conservation monitoring, exact-vs-effective
deviation reports and period estimation from sampled trajectories."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .dynamics import (
    COLUMNS,
    TimeGrid,
    Trajectory,
    _checked_run,
    _evolve_observed,
    column_names,
)
from .model import ModelSpec, _mode_parts


def log_negativity(rho12) -> float:
    """Logarithmic negativity (base 2) of a two-qubit density matrix,
    clamped at zero from below against numerical noise.  The matrix must be
    Hermitian with finite entries, then have unit trace, then no eigenvalue
    below -1e-9; it and its partial transpose are checked and solved as one
    stack by :func:`linalg.hermitian_eigensystem`, so a defect is reported
    at stack index (0,)."""
    rho = np.asarray(rho12, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    # the partial transpose moves rho's entries, so its defect is rho's, and
    # rho, at index 0, is the one reported
    w = linalg.hermitian_eigensystem(np.stack([rho, linalg.partial_transpose(rho)])).eigenvalues
    trace = float(np.trace(rho).real)
    if abs(trace - 1.0) > 1e-9:
        raise ValueError(f"density matrix trace is {trace}, expected 1")
    smallest = float(w[0, 0])  # ascending; past the float range it reads -inf, not NaN
    if smallest < -1e-9:
        raise ValueError(f"density matrix has negative eigenvalue {smallest}")
    return float(np.maximum(0.0, np.log2(np.abs(w[1]).sum())))


@dataclass(frozen=True)
class ConservationReport:
    """Maximum absolute drift from the t=0 value along one trajectory."""

    norm_drift: float
    energy_drift: float
    sz_drift: float
    s12_sq_drift: float


def conservation_monitor(trajectory: Trajectory) -> ConservationReport:
    """Drift of norm, energy, total S_z and the squared total static spin."""
    try:
        n_points = len(trajectory)
    except TypeError:  # the observables of a single state
        raise ValueError("trajectory has no time axis") from None
    if not n_points:
        raise ValueError("empty trajectory")
    series = np.array((trajectory.norm, trajectory.energy, trajectory.sz_total, trajectory.s12_sq))
    drifts = np.maximum.reduce(np.abs(series - series[:, :1]), axis=-1)
    return ConservationReport(*drifts.tolist())


@dataclass(frozen=True)
class DeviationReport:
    """Worst-case discrepancy between exact and effective evolution over the
    time grid of the run, at the spec's ``eta_over_j``.
    ``max_observable_gap`` maps each compared column of ``COLUMNS`` to its
    gap, by CSV column name and in table order."""

    eta_over_j: float
    max_state_infidelity: float
    max_observable_gap: dict


def compare_exact_effective(
    spec: ModelSpec, initial, grid: TimeGrid | None = None
) -> DeviationReport:
    """Evolve ``initial`` under the exact and the effective Hamiltonian and
    report the worst state infidelity and per-observable gaps over the grid.

    States are compared on the full space, except for a product of a site
    state and a spin state with no weight on the zero kinetic mode (a
    three-site middle start): the chain turns its spins at the one rate 1/4
    on every site, so its spin state stays pure, and Tr[rho rho'] of the
    spin-reduced states is their fidelity.  The effective kind needs
    ``eta > 0``.
    """
    eta_over_j = spec.eta / spec.j_ref  # J = 0 fails here, before any evolution
    initial, grid = _checked_run(spec, initial, grid)
    times = grid.times()
    # every kind conserves S_z, so both runs give amplitudes on the same basis
    # indices: the start's sector, site by site, or the whole space; the
    # effective run goes first, so its kind check (eta > 0) precedes any evolution
    eff, states_eff = _evolve_observed(spec, "effective", initial, times)
    exact, states_exact = _evolve_observed(spec, "exact", initial, times)

    split = (len(times), spec.n_sites, -1)
    product = np.linalg.matrix_rank(initial.reshape(split[1:])) == 1  # site x spin
    if product and {rate for rate, _ in _mode_parts(spec.n_sites, initial)} == {0.25}:
        # Tr[rho rho'] of the site-reduced spin states, sum_xy |<ex[x]|ef[y]>|^2
        overlaps = np.einsum(
            "txa,tya->txy", states_exact.reshape(split).conj(), states_eff.reshape(split)
        )
        fidelity = (np.abs(overlaps) ** 2).sum(axis=(1, 2))
    else:
        fidelity = np.abs(np.einsum("ij,ij->i", states_exact.conj(), states_eff)) ** 2

    gaps = {
        name: float(np.abs(exact.column(name) - eff.column(name)).max())
        for name in column_names(spec.n_sites)
        if COLUMNS[name][3]
    }

    return DeviationReport(
        eta_over_j=eta_over_j,
        max_state_infidelity=float((1.0 - fidelity).max()),
        max_observable_gap=gaps,
    )


def estimate_period(times, values) -> float:
    """Period of an oscillating probability-valued series.

    Maxima are found with hysteresis between the levels 1/4 and 3/4 of the
    way from the series' minimum to its maximum (a range <= 1e-6 is noise):
    a peak starts at the first sample at or above 3/4 after the series has
    dipped to 1/4, and ends at the last such sample before the next dip, so
    ripples cannot split it and a peak cut off at either end of the series
    is dropped.  Each peak's time is the vertex of a least-squares parabola
    through its samples and the sample outside it on each side; a fit that
    is not concave, or whose vertex leaves that window, is an error.
    Probability-level maxima repeat twice per cycle of the underlying state,
    so the returned period is twice their mean spacing.  The times must
    increase strictly and the values be finite.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1 or t.size < 3:
        raise ValueError("need matching 1-d time and value arrays with >= 3 samples")
    if not np.all(np.diff(t) > 0.0):  # NaN fails this too
        raise ValueError("times must be strictly increasing")
    if not np.isfinite(v).all():
        raise ValueError("values must be finite")
    amplitude = float(v.max() - v.min())
    if amplitude <= 1e-6:
        raise ValueError("oscillation amplitude below noise floor")
    low, high = v.min() + 0.25 * amplitude, v.min() + 0.75 * amplitude

    # samples at either level, and the steps between them where the level changes
    marked = np.flatnonzero((v <= low) | (v >= high))
    step = np.diff((v[marked] >= high).astype(np.int8))
    starts = marked[1:][step == 1]  # first high sample after a dip
    ends = marked[:-1][step == -1]  # last high sample before a dip
    ends = ends[ends >= starts[0]] if starts.size else ends  # a peak cut off at t[0]

    peaks = []
    for i, j in zip(starts, ends):  # a peak cut off at t[-1] has no end
        window = slice(i - 1, j + 2)
        centre = t[i]  # a fit in local time stays well conditioned
        a, b, _ = np.polyfit(t[window] - centre, v[window], 2)
        vertex = centre - b / (2.0 * a) if a < 0.0 else np.nan
        if not t[i - 1] <= vertex <= t[j + 1]:
            raise ValueError(f"no single maximum in the peak near t = {centre:.6g}")
        peaks.append(float(vertex))

    if len(peaks) < 2:
        raise ValueError("insufficient oscillations detected")
    spacing = (peaks[-1] - peaks[0]) / (len(peaks) - 1)
    return 2.0 * spacing
