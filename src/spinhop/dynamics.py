"""Time evolution and observable extraction.

Trajectories are computed exactly through the spectral decomposition of the
(exact or effective) Hamiltonian.  A :class:`Trajectory` holds one array per
observable over the whole time grid: site populations, the mobile-spin-up
probability, the triplet/singlet fidelities of the static pair, its
logarithmic negativity, the excitation-transfer fidelity and the conserved
quantities.  :func:`analytic` gives the strong-hopping spin dynamics of any
start in closed form, for cross-checking.

Every Hamiltonian of ``model`` conserves total S_z, so it is block-diagonal
in the S_z sectors, of n_sites * (1, 3, 3, 1) states, and every state is read
as a sum over its sectors.  A run never forms the whole matrix: ``model``
gives the observable tables, basis indices and block of each sector the
start occupies, each block goes through the one propagator,
:func:`evolve_on_grid`, and every other sector stays exactly zero.  One
reader, :func:`_trajectory`, reads each sector's amplitudes through its
tables and adds the sectors up, for no observable but the log-negativity
couples two of them.  That one is exact in closed form in one sector,
where every start of ``encode_state`` lies; only a start spanning
several sectors scatters its ``(T, D)`` states, for the eigenvalues of the
partial transpose of the static pair's reduced state.  :func:`observables`
reads any whole-lattice state through the same reader.  A short grid costs
more in per-call overhead than in arithmetic, so a grid samples its times
once and ``model`` builds the sector records once per lattice.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .model import (
    _STATIC_PRESETS,
    _X_FUNCTIONALS,
    SQRT2,
    BasisLayout,
    ModelSpec,
    _finite,
    _is_int,
    _mode_parts,
    _read_only,
    _sector_blocks,
    _sectors,
)

# spin parts of |up>|down down> and |down>|psi+> in the 8-dim spin space, one per row
_DOUBLET = np.zeros((2, 8), dtype=complex)
_DOUBLET[0, :4], _DOUBLET[1, 4:] = _STATIC_PRESETS["down-down"], _STATIC_PRESETS["psi-plus"]
_read_only(_DOUBLET)
# the most points a grid may have: every run holds its amplitudes as
# complex128 over the grid, so no longer grid fits in an array
_MAX_POINTS = np.iinfo(np.intp).max // np.dtype(complex).itemsize


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling of [0, t_max] (times in 1/J units).

    ``t_max`` must be a positive finite real number (an int within the float
    range, a float or a numpy real scalar, not a bool; stored as a float) and
    ``n_points`` an integer from 2 up to the length of the largest complex128
    array, 2**59 - 1 on a 64-bit platform (a Python or numpy int, not a bool;
    stored as an int).  :meth:`times` builds its array once per grid and
    returns it read-only on every call.
    """

    t_max: float = 30.0
    n_points: int = 2001

    def __post_init__(self):
        if not (_finite(self.t_max) and self.t_max > 0.0):
            raise ValueError(f"t_max must be a positive finite number, got {self.t_max!r}")
        object.__setattr__(self, "t_max", float(self.t_max))
        # an int no longer than the largest array of amplitudes a run can hold
        if not (_is_int(self.n_points) and 2 <= self.n_points <= _MAX_POINTS):
            raise ValueError(
                f"n_points must be an integer in [2, {_MAX_POINTS}], "
                f"got {self.n_points!r}"
            )
        object.__setattr__(self, "n_points", int(self.n_points))

    def times(self) -> np.ndarray:
        return self._times

    @functools.cached_property
    def _times(self) -> np.ndarray:
        # near the float limit linspace's last k * step overflows before it
        # puts t_max there, which every other sample stays below
        with np.errstate(over="ignore"):
            return _read_only(np.linspace(0.0, self.t_max, self.n_points))

    def __getstate__(self):  # a copy or an unpickled grid builds its own read-only times
        return {"t_max": self.t_max, "n_points": self.n_points}


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Observables over a time grid, one array per quantity.

    Each field has the grid as its leading axis; ``p_site`` is
    ``(T, n_sites)`` with the sites in lattice order (left to right).
    ``energy`` is NaN when no Hamiltonian was supplied.  Built from a single
    state instead of a stack, the fields have no grid axis.
    """

    t: np.ndarray
    p_site: np.ndarray
    p_up: np.ndarray
    f_plus: np.ndarray
    f_minus: np.ndarray
    logneg: np.ndarray
    f2: np.ndarray
    sz_total: np.ndarray
    s12_sq: np.ndarray
    norm: np.ndarray
    energy: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def column(self, name: str) -> np.ndarray:
        """The values of one column of :func:`column_names` on the
        trajectory's lattice; ``ValueError`` for any other name."""
        names = column_names(self.p_site.shape[-1])
        if name not in names:
            raise ValueError(f"no column {name!r} on this lattice; its columns are {names}")
        field, position, _, _ = COLUMNS[name]
        values = getattr(self, field)
        return values if position is None else values[..., position]


# Column name -> (Trajectory field, lattice position of a site population,
# whether it is a probability, whether compare_exact_effective reports its
# gap), in the order of the simulate CSV.  P1 and P2 are the outer sites, P0
# the middle one (three sites only).
COLUMNS = {
    "t": ("t", None, False, False),
    "P1": ("p_site", 0, True, True),
    "P2": ("p_site", -1, True, True),
    "P0": ("p_site", 1, True, True),
    "P_up": ("p_up", None, True, True),
    "F_plus": ("f_plus", None, True, True),
    "F_minus": ("f_minus", None, True, True),
    "logneg": ("logneg", None, False, True),
    "F2": ("f2", None, True, True),
    "Sz": ("sz_total", None, False, False),
    "S12sq": ("s12_sq", None, False, False),
    "norm": ("norm", None, False, False),
}


def column_names(n_sites: int) -> list:
    """The columns of a trajectory on ``n_sites`` sites, in table order."""
    return [c for c in COLUMNS if c != "P0" or n_sites == 3]


def _log_negativity(rho12):
    """Base-2 logarithmic negativity of a two-qubit operator, or of each of a
    stack of them, clamped at zero from below against numerical noise: log2
    of the trace norm of the partial transpose, from its eigenvalues alone,
    taken from the one checked solve :func:`linalg.hermitian_eigensystem`
    (its eigenvectors are dropped).  ``ValueError`` unless each is a 4x4
    Hermitian matrix with finite entries (the partial transpose keeps
    Hermiticity and the defect)."""
    w = linalg.hermitian_eigensystem(linalg.partial_transpose(rho12)).eigenvalues
    return np.maximum(0.0, np.log2(np.abs(w).sum(axis=-1)))


def _energy(psi, hamiltonian):
    """<psi|H|psi> of the amplitudes ``psi``, ``(k,)`` or a stack ``(..., k)``."""
    return np.einsum("...i,...i->...", psi.conj(), psi @ hamiltonian.T).real


def _trajectory(parts, t, energy, states=None) -> Trajectory:
    """The :class:`Trajectory` at the times ``t`` of a state given as its
    ``parts``, one ``(psi, tables)`` per S_z sector: ``psi`` its amplitudes
    there, ``(k,)`` or a stack ``(..., k)``, and ``tables`` its weights and
    swap from ``model._sectors``; ``energy`` is passed in.  A state is read
    as a stack of one.

    No observable but the log-negativity couples two sectors, so each is
    one weight product and one z term per sector, summed.  Without
    ``states`` the state lies in one S_z sector: its static pair is an X
    state with w = rho12[uu, dd] = 0 and no entry between the blocks
    {uu, dd} and {ud, du}, so its log-negativity is exactly
    log2(|b + c| + max(|a + d|, hypot(a - d, 2|z|))).  Otherwise it comes
    from the eigenvalues of the partial transpose of the pair's reduced
    state, contracted straight from the whole-lattice ``states``, so no
    ``D x D`` density matrix is ever formed.
    """
    values = functools.reduce(np.add, (np.abs(psi) ** 2 @ weights for psi, (weights, _) in parts))
    # sum over the pairs of psi_ud psi_du*
    z = functools.reduce(np.add, (np.vecdot(psi, psi @ swap) for psi, (_, swap) in parts))
    n = values.shape[-1] - 10
    rows = values.transpose(-1, *range(values.ndim - 1))  # one row per value over the grid
    pair = rows[n + 3 : n + 7] + np.multiply.outer(_X_FUNCTIONALS[4, :4], z.real)
    if states is None:
        # b + c and a + d are sums of squared moduli, so >= 0
        trace_norm = rows[n + 7] + np.maximum(rows[n + 8], np.hypot(rows[n + 9], 2.0 * np.abs(z)))
        logneg = np.maximum(0.0, np.log2(trace_norm))
    else:  # the partial trace over the site and mobile-spin factors
        amplitudes = states.reshape(states.shape[:-1] + (-1, 4))
        logneg = _log_negativity(np.swapaxes(amplitudes, -1, -2) @ amplitudes.conj())
    return Trajectory(
        t=t,
        p_site=values[..., :n],
        p_up=rows[n],
        f_plus=pair[0],
        f_minus=pair[1],
        logneg=logneg,
        f2=pair[2],
        sz_total=rows[n + 1],
        s12_sq=pair[3],
        norm=np.sqrt(rows[n + 2]),
        energy=energy,
    )


def observables(states, layout: BasisLayout, times=0.0, hamiltonian=None) -> Trajectory:
    """All observables of a pure state ``(D,)`` or of a stack of them
    ``(T, D)`` sampled at ``times``, in one vectorised pass.

    Every observable but the log-negativity and the energy is read as in a
    run, one slice of ``states`` per S_z sector (see :func:`_trajectory`).
    The log-negativity comes from the eigenvalues of the partial transpose
    of the static pair's reduced state, and the energy is the contraction
    with ``hamiltonian``, any ``D x D`` matrix (NaN without one).
    ``ValueError`` unless ``times`` broadcast to the grid ``states.shape[:-1]``.
    """
    d = layout.dim
    psi = np.asarray(states, dtype=complex)
    if psi.shape[-1:] != (d,):
        raise ValueError(f"state shape {psi.shape} does not match layout dim {d}")
    grid = psi.shape[:-1]
    t = np.asarray(times, dtype=float)
    if t.shape != grid or t.flags.writeable:  # a read-only grid of times is kept as given
        try:
            t = np.broadcast_to(t, grid)
        except ValueError:
            message = f"times shape {t.shape} does not broadcast to the grid shape {grid}"
            raise ValueError(message) from None
    h = None if hamiltonian is None else np.asarray(hamiltonian)
    if h is not None and h.shape != (d, d):
        raise ValueError(f"hamiltonian shape {h.shape} does not match layout dim {d}: need {d}x{d}")
    energy = np.full(grid, math.nan) if h is None else _energy(psi, h)
    # C-ordered slices, as a run's amplitudes: numpy's sums follow the layout
    parts = [(psi.take(idx, axis=-1), tables) for idx, _, tables in _sectors(layout.n_sites)]
    return _trajectory(parts, t, energy, psi)


def evolve_on_grid(hamiltonian, initial, times) -> np.ndarray:
    """States exp(-i H t)|initial> for every t, one per row, of any
    Hermitian matrix H: one checked (Hermitian, finite) eigensolve of H.
    Every run evolves each S_z block of its start through it."""
    h = np.asarray(hamiltonian, dtype=complex)
    initial = np.asarray(initial, dtype=complex)
    if h.ndim != 2 or initial.shape != h.shape[:1]:
        raise ValueError(
            f"initial state shape {initial.shape} does not match the dimension "
            f"of the matrix of shape {h.shape}"
        )
    w, v = linalg.hermitian_eigensystem(h)
    # the angles t * w on the (T, 1) times in real arithmetic, then one
    # complex product
    column = np.asarray(times, dtype=float).reshape(-1, 1)
    return (np.exp(-1j * (column * w)) * (v.conj().T @ initial)) @ v.T


def _evolve_observed(spec: ModelSpec, kind: str, initial, times):
    """The :class:`Trajectory` of ``initial`` under the ``kind`` Hamiltonian
    of ``spec`` on the read-only ``times``, and the amplitudes it was read
    from: the ``(T, k)`` amplitudes of a start in one S_z sector, the
    ``(T, D)`` states of any other.  Each occupied sector is evolved on its
    own block, every other stays exactly zero, and the energy is the sum of
    each block's <psi_s|H_s|psi_s>."""
    blocks = _sector_blocks(spec, kind, initial)
    parts, energies = [], []
    for tables, idx, block in blocks:
        amplitudes = evolve_on_grid(block, initial[idx], times)
        parts.append((amplitudes, tables))
        energies.append(_energy(amplitudes, block))
    energy = functools.reduce(np.add, energies)
    if len(parts) == 1:
        return _trajectory(parts, times, energy), parts[0][0]
    states = np.zeros((len(times), len(initial)), dtype=complex)
    for (amplitudes, _), (_, idx, _) in zip(parts, blocks):
        states[:, idx] = amplitudes
    return _trajectory(parts, times, energy, states), states


def _checked_run(spec: ModelSpec, initial, grid: TimeGrid | None):
    """The start state as a complex vector and the grid of a run of
    ``spec``; ``ValueError`` unless ``initial`` is a finite, normalised state
    of the lattice and the run's energies and phases stay floats.

    ``scale = eta + |j_xy| + |j_z|`` bounds the spectral norm of every
    Hamiltonian of ``spec``, twice it bounds every row sum of ``|H|``, and
    ``scale * t_max`` bounds every phase E * t.
    """
    dim = 8 * spec.n_sites
    initial = np.asarray(initial, dtype=complex)
    if initial.shape != (dim,):
        raise ValueError(f"initial state shape {initial.shape} does not match layout dim {dim}")
    # a NaN or infinite entry makes the norm NaN or inf, so a unit norm
    # settles finiteness as well
    nrm = math.sqrt(np.vdot(initial, initial).real)
    if not abs(nrm - 1.0) <= 1e-10:
        if not np.isfinite(initial).all():
            raise ValueError("initial state has NaN or infinite entries")
        raise ValueError(f"initial state is not normalized: |norm - 1| = {abs(nrm - 1.0):.3e}")
    grid = grid or TimeGrid()
    scale = spec.eta + abs(spec.j_xy) + abs(spec.j_z)
    if not math.isfinite(2.0 * scale * max(grid.t_max, 1.0)):
        raise ValueError(
            f"energy scale eta + |j_xy| + |j_z| = {scale!r} with "
            f"t_max = {grid.t_max!r} overflows"
        )
    return initial, grid


def run_trajectory(spec: ModelSpec, hamiltonian_kind: str, initial, grid: TimeGrid | None = None):
    """Evolve ``initial`` and return its :class:`Trajectory` over the grid."""
    initial, grid = _checked_run(spec, initial, grid)
    return _evolve_observed(spec, hamiltonian_kind, initial, grid.times())[0]


@dataclass(frozen=True)
class AnalyticSolution:
    """Closed-form strong-hopping spin dynamics of one start state.

    ``times`` are the sample times as a 1-d float array.  ``p_up`` and
    ``p_down`` are the populations of |up>|down down> and |down>|psi+>, each
    summed over the sites; they add up to the start's weight on that doublet.
    ``period`` is the full cycle at the slowest rate the start occupies.
    """

    times: np.ndarray
    p_up: np.ndarray
    p_down: np.ndarray
    period: float


def analytic(spec: ModelSpec, initial, grid: TimeGrid | None = None) -> AnalyticSolution:
    """``initial`` under the strong-hopping chain of ``spec``'s lattice, in
    closed form on the grid; the preconditions are those of
    :func:`run_trajectory`, and a coupling must be nonzero.

    In each mode group of :data:`MODE_RATES` the spins turn as the collective
    chain at the group's rate.  That table is the closed form's own: the
    effective Hamiltonian, the exact one's band-diagonal part, is built
    without it, so the two check each other.  On the doublet that chain is
    [[-j_z/2, sqrt(2) j_xy], [sqrt(2) j_xy, 0]]: one rotation at
    omega = hypot(sqrt(2) j_xy, j_z/4) for every coupling.
    """
    if spec.j_xy == 0.0 and spec.j_z == 0.0:
        raise ValueError("the closed form needs a nonzero coupling; j_xy = j_z = 0")
    initial, grid = _checked_run(spec, initial, grid)
    omega = math.hypot(SQRT2 * spec.j_xy, spec.j_z / 4.0)
    # the chain less its mean energy, over omega (omega = 0 only where every
    # sin(rate * omega * t) = 0 too)
    chain = np.array([[-spec.j_z / 4.0, SQRT2 * spec.j_xy], [SQRT2 * spec.j_xy, spec.j_z / 4.0]])
    reflection = chain / omega if omega > 0.0 else chain
    times = grid.times()
    populations = np.zeros((len(times), 2))
    slowest = math.inf
    for rate, part in _mode_parts(spec.n_sites, initial):
        slowest = min(slowest, rate)
        v = part @ _DOUBLET.conj().T  # (sites, 2) doublet amplitudes
        theta = times[:, None, None] * (rate * omega)
        turned = np.cos(theta) * v - 1j * np.sin(theta) * (v @ reflection.T)
        populations += (np.abs(turned) ** 2).sum(axis=1)
    turn = slowest * omega
    period = 2.0 * math.pi / turn if turn > 0.0 else math.inf
    return AnalyticSolution(times, populations[:, 0], populations[:, 1], period)
