"""Time evolution and observable extraction.

Trajectories are computed exactly through the spectral decomposition of the
(exact or effective) Hamiltonian; every grid point gets an
:class:`ObservableRecord` bundling site populations, the mobile-spin-up
probability, the triplet/singlet fidelities of the static pair, its
logarithmic negativity, the excitation-transfer fidelity and the conserved
quantities.  Closed-form two-level solutions for the strong-hopping spin
dynamics are provided for cross-checking.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .model import (
    S12_SQ_4,
    SQRT2,
    BasisLayout,
    ModelSpec,
    build_effective_hamiltonian,
    build_hamiltonian,
    encode_state,
)

HAMILTONIAN_KINDS = (
    "exact",
    "two_site",
    "three_site_projector",
    "three_site_middle_start",
)

_PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / SQRT2
_PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / SQRT2

# spin part of |up>|down down> and |down>|psi+> in the 8-dim spin space
_DOUBLET_UP = np.zeros(8, dtype=complex)
_DOUBLET_UP[3] = 1.0
_DOUBLET_DOWN = np.zeros(8, dtype=complex)
_DOUBLET_DOWN[5] = 1.0 / SQRT2
_DOUBLET_DOWN[6] = 1.0 / SQRT2


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling of [0, t_max] (times in 1/J units)."""

    t_max: float = 30.0
    n_points: int = 2001

    def __post_init__(self):
        if not (self.t_max > 0.0):
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if self.n_points < 2:
            raise ValueError(f"n_points must be >= 2, got {self.n_points}")

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_points)


@dataclass(frozen=True)
class ObservableRecord:
    """Per-time-point observable bundle.

    ``p_site`` lists site populations in lattice order (left to right);
    ``energy`` is NaN when no Hamiltonian was supplied.
    """

    t: float
    p_site: tuple
    p_up: float
    f_plus: float
    f_minus: float
    logneg: float
    f2: float
    sz_total: float
    s12_sq: float
    norm: float
    energy: float = math.nan


@functools.lru_cache(maxsize=None)
def _sz_weights(n_sites: int) -> np.ndarray:
    layout = BasisLayout(n_sites)
    w = np.empty(layout.dim)
    for i in range(layout.dim):
        _, e, s1, s2 = layout.decode(i)
        w[i] = 0.5 * (1 - 2 * e) + 0.5 * (1 - 2 * s1) + 0.5 * (1 - 2 * s2)
    return w


def _log_negativity(rho12) -> float:
    """Base-2 logarithmic negativity of a two-qubit operator, clamped at zero
    from below against numerical noise."""
    trace_norm = linalg.trace_norm_hermitian(
        linalg.partial_transpose(rho12, (2, 2), "A")
    )
    return max(0.0, float(np.log2(trace_norm)))


def observables(state, layout: BasisLayout, t: float = 0.0, hamiltonian=None) -> ObservableRecord:
    """All observables of a pure state; the static-pair density matrix is
    obtained by partial trace over the site and mobile-spin factors."""
    psi = np.asarray(state, dtype=complex)
    if psi.shape != (layout.dim,):
        raise ValueError(f"state shape {psi.shape} does not match layout dim {layout.dim}")
    prob = np.abs(psi.reshape(layout.n_sites, 2, 4)) ** 2
    rho = np.outer(psi, psi.conj())
    rho12 = linalg.partial_trace(rho, [layout.n_sites, 2, 2, 2], keep=(2, 3))
    energy = math.nan
    if hamiltonian is not None:
        energy = float(np.real(psi.conj() @ (hamiltonian @ psi)))
    return ObservableRecord(
        t=float(t),
        p_site=tuple(float(x) for x in prob.sum(axis=(1, 2))),
        p_up=float(prob[:, 0, :].sum()),
        f_plus=float(np.real(_PSI_PLUS.conj() @ rho12 @ _PSI_PLUS)),
        f_minus=float(np.real(_PSI_MINUS.conj() @ rho12 @ _PSI_MINUS)),
        logneg=_log_negativity(rho12),
        f2=float(rho12[2, 2].real),
        sz_total=float(_sz_weights(layout.n_sites) @ prob.reshape(-1)),
        s12_sq=float(np.real(np.trace(rho12 @ S12_SQ_4))),
        norm=float(np.linalg.norm(psi)),
        energy=energy,
    )


def hamiltonian_for(spec: ModelSpec, kind: str) -> np.ndarray:
    """Exact or effective Hamiltonian selected by name."""
    if kind == "exact":
        return build_hamiltonian(spec)
    if kind in HAMILTONIAN_KINDS:
        return build_effective_hamiltonian(spec, kind)
    raise ValueError(f"unknown hamiltonian kind {kind!r}; valid: {HAMILTONIAN_KINDS}")


def evolve_on_grid(hamiltonian, initial, times) -> np.ndarray:
    """States exp(-i H t)|initial> for every t, one per row."""
    initial = np.asarray(initial, dtype=complex)
    eig = linalg.hermitian_eigensystem(hamiltonian)
    if initial.shape != (eig.dim,):
        raise ValueError(
            f"initial state shape {initial.shape} does not match dimension {eig.dim}"
        )
    c = eig.eigenvectors.conj().T @ initial
    phases = np.exp(-1j * np.outer(np.asarray(times, dtype=float), eig.eigenvalues))
    return (phases * c) @ eig.eigenvectors.T


def run_trajectory(spec: ModelSpec, hamiltonian_kind: str, initial, grid: TimeGrid | None = None):
    """Evolve ``initial`` and return one :class:`ObservableRecord` per grid point."""
    grid = grid or TimeGrid()
    layout = BasisLayout(spec.n_sites)
    initial = np.asarray(initial, dtype=complex)
    if initial.shape != (layout.dim,):
        raise ValueError(
            f"initial state shape {initial.shape} does not match layout dim {layout.dim}"
        )
    nrm = float(np.linalg.norm(initial))
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"initial state is not normalized: |norm - 1| = {abs(nrm - 1.0):.3e}")
    h = hamiltonian_for(spec, hamiltonian_kind)
    times = grid.times()
    states = evolve_on_grid(h, initial, times)
    return [
        observables(states[i], layout, t=times[i], hamiltonian=h)
        for i in range(len(times))
    ]


def qst_trajectory(spec: ModelSpec, hamiltonian_kind: str = "exact", grid: TimeGrid | None = None):
    """State-transfer run: the excitation starts on static spin 1 and the
    mobile spin enters pointing down at the leftmost site."""
    layout = BasisLayout(spec.n_sites)
    initial = encode_state(layout, site=1, e_spin="down", static="up-down")
    return run_trajectory(spec, hamiltonian_kind, initial, grid)


@dataclass(frozen=True)
class AnalyticSolution:
    """Closed-form strong-hopping spin dynamics started from |up>|down down>.

    ``p_up`` is the surviving population of that configuration, ``p_down``
    the population transferred to |down>|psi+>; both are probabilities and
    sum to one.  ``period`` is the full cycle of the underlying state.
    """

    kind: str
    times: np.ndarray
    p_up: np.ndarray
    p_down: np.ndarray
    period: float


def analytic_two_site(model_kind: str, t, j: float = 1.0) -> AnalyticSolution:
    """Two-level solution of the halved-coupling chain on the doublet
    spanned by |up>|down down> and |down>|psi+>."""
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if model_kind == "xy":
        p_down = np.sin(j * times / SQRT2) ** 2
    elif model_kind == "heisenberg":
        p_down = (8.0 / 9.0) * np.sin(3.0 * j * times / 8.0) ** 2
    else:
        raise ValueError(f"unknown model kind {model_kind!r}; valid: xy, heisenberg")
    return AnalyticSolution(
        kind=model_kind,
        times=times,
        p_up=1.0 - p_down,
        p_down=p_down,
        period=analytic_period(model_kind, "two_site", j),
    )


def analytic_period(model_kind: str, lattice: str = "two_site", j: float = 1.0) -> float:
    """Full oscillation period of the strong-hopping spin dynamics."""
    if model_kind == "xy":
        base = 2.0 * SQRT2 * math.pi / j
    elif model_kind == "heisenberg":
        base = 16.0 * math.pi / (3.0 * j)
    else:
        raise ValueError(f"unknown model kind {model_kind!r}; valid: xy, heisenberg")
    if lattice == "two_site":
        return base
    if lattice == "three_site_middle_start":
        return 2.0 * base  # couplings quarter instead of halve on three sites
    raise ValueError(
        f"unknown lattice {lattice!r}; valid: two_site, three_site_middle_start"
    )


def doublet_leakage(state, layout: BasisLayout) -> float:
    """Population outside span{|up>|dd>, |down>|psi+>} ⊗ (any motional state)."""
    psi = np.asarray(state, dtype=complex).reshape(layout.n_sites, 8)
    a_up = psi @ _DOUBLET_UP.conj()
    a_down = psi @ _DOUBLET_DOWN.conj()
    return float(1.0 - (np.abs(a_up) ** 2 + np.abs(a_down) ** 2).sum())
