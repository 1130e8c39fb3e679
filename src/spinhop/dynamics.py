"""Time evolution and observable extraction.

Trajectories are computed exactly through the spectral decomposition of the
(exact or effective) Hamiltonian.  A :class:`Trajectory` holds one array per
observable over the whole time grid: site populations, the mobile-spin-up
probability, the triplet/singlet fidelities of the static pair, its
logarithmic negativity, the excitation-transfer fidelity and the conserved
quantities, all computed in one vectorised pass over the run's states.
:func:`analytic` gives the strong-hopping spin dynamics of any start in
closed form, for cross-checking.

Every Hamiltonian here conserves total S_z, so it is block-diagonal in the
S_z sectors, of n_sites * (1, 3, 3, 1) states.  A run checks the whole
matrix once, tests every entry between two sectors for an exact zero with
one gather over cached flat indices, reads the sectors the start state
occupies off one cached membership table, and then solves only those
sectors; a matrix that couples sectors is solved whole.  Every start state
that ``encode_state`` builds has a definite S_z, and such a run stays on its
sector from start to finish in one fused pass (the sector path):
:func:`run_trajectory` and ``compare_exact_effective`` read every observable
off the ``(T, k)`` sector amplitudes.  One product through a cached
per-sector weight table (see :func:`_sector_tables`) gives the site
populations, ``P_up``, S_z, the norm and the diagonal parts of F+, F-, F2
and (S1 + S2)^2; one more gives z = rho12[ud, du], of which only Re z is
added to them; the energy is one contraction with the sector's block.  In
one sector the static pair's reduced state never mixes the blocks
{uu, dd} and {ud, du} and has rho12[uu, dd] = 0, so its log-negativity there
is exact in closed form in z and the same diagonal parts.  A start spanning
several sectors takes the whole-space path: :func:`evolve_on_grid` spreads
the sectors into ``(T, D)`` states and :func:`observables` forms the pair's
reduced state, whose closed form is taken wherever it is certified to
``X_TOL`` (see :func:`_log_negativity`); any other matrix goes to the
eigensolver.  A short grid costs more in per-call overhead than in
arithmetic, so a grid samples its times once, every table is built once per
lattice on first use, and each check and reduction is one pass over its
data.
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
    _finite,
    _is_int,
    _mode_parts,
    _read_only,
    build_hamiltonian,
    static_pair_state,
)

_PSI_PLUS = static_pair_state("psi-plus")
_PSI_MINUS = static_pair_state("psi-minus")
_SZ = np.array([0.5, -0.5])  # up, down
# total S_z of each spin basis state |e, s1, s2>, at index e*4 + s1*2 + s2
_SZ_SPIN = np.add.outer(np.add.outer(_SZ, _SZ), _SZ).ravel()

# |rho12>> (row-major, 16 entries) -> F+, F-, F2 and <(S1 + S2)^2>, as
# <psi|rho|psi> = sum_ab psi_a* rho_ab psi_b and tr(rho S) = sum_ab rho_ab S_ba
_PAIR_FUNCTIONALS = _read_only(
    np.stack(
        [
            np.outer(_PSI_PLUS.conj(), _PSI_PLUS).ravel(),
            np.outer(_PSI_MINUS.conj(), _PSI_MINUS).ravel(),
            np.eye(16)[2 * 4 + 2],  # the (2, 2) entry
            S12_SQ_4.T.ravel(),
        ],
        axis=1,
    )
)

# Largest block coupling 2 ||E||_F / |tr rho12| at which _log_negativity
# takes the closed X-state form (its error is then <= X_TOL / ln 2)
X_TOL = 1e-9
# row-major flat entries of rho12: the diagonal, z = rho[1, 2], w = rho[0, 3], then
# the 8 that couple the blocks {uu, dd} and {ud, du}
_X_ENTRIES = np.array([0, 5, 10, 15, 6, 3, 1, 2, 7, 11, 4, 8, 13, 14])

# spin parts of |up>|down down> and |down>|psi+> in the 8-dim spin space, one per row
_DOUBLET = _read_only(
    np.stack([np.kron([1, 0], static_pair_state("down-down")), np.kron([0, 1], _PSI_PLUS)])
)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling of [0, t_max] (times in 1/J units).

    ``t_max`` must be a positive finite real number (an int within the float
    range, a float or a numpy real scalar, not a bool; stored as a float) and
    ``n_points`` an int from 2 up to the largest array size.  :meth:`times`
    builds its array once per grid and returns it read-only on every call.
    """

    t_max: float = 30.0
    n_points: int = 2001

    def __post_init__(self):
        if not (_finite(self.t_max) and self.t_max > 0.0):
            raise ValueError(f"t_max must be a positive finite number, got {self.t_max!r}")
        object.__setattr__(self, "t_max", float(self.t_max))
        # an int no larger than an array size, so times() can build its array
        if not (_is_int(self.n_points) and 2 <= self.n_points <= np.iinfo(np.intp).max):
            raise ValueError(
                f"n_points must be an integer in [2, {np.iinfo(np.intp).max}], "
                f"got {self.n_points!r}"
            )

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
        """The values of one column of :data:`COLUMNS`."""
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
    stack of them, clamped at zero from below against numerical noise.

    In the basis (uu, ud, du, dd), with a, b, c, d the diagonal, z = rho[1, 2]
    and w = rho[0, 3], the partial transpose of an X state splits into the
    2x2 blocks [[a, z], [z*, d]] and [[b, w], [w*, c]], so its trace norm is
    max(|a+d|, hypot(a-d, 2|z|)) + max(|b+c|, hypot(b-c, 2|w|)).  The entries
    E that couple the blocks move the trace norm by at most 2 ||E||_F
    (Hoffman-Wielandt), and it is never below |tr rho|.  So wherever
    2 ||E||_F <= X_TOL |tr rho| the closed form is within X_TOL / ln 2 of the
    eigensolver's log-negativity; every other matrix is solved in full.
    """
    rho = np.asarray(rho12, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 operator or a stack of them, got shape {rho.shape}")
    linalg.assert_hermitian(rho)  # the partial transpose keeps Hermiticity
    x = rho.reshape(-1, 16)[:, _X_ENTRIES]
    a, b, c, d = x[:, :4].real.T
    z, w = np.abs(x[:, 4:6]).T
    trace_norm = np.maximum(np.abs(a + d), np.hypot(a - d, 2.0 * z)) + np.maximum(
        np.abs(b + c), np.hypot(b - c, 2.0 * w)
    )
    e = x[:, 6:]
    coupling = np.sqrt(np.add.reduce((e.conj() * e).real, axis=-1))
    general = ~(2.0 * coupling <= X_TOL * np.abs(a + b + c + d))
    if general.any():
        trace_norm[general] = linalg.trace_norm_hermitian(
            linalg.partial_transpose(rho.reshape(-1, 4, 4)[general])
        )
    return np.maximum(0.0, np.log2(trace_norm)).reshape(rho.shape[:-2])


@functools.lru_cache(maxsize=None)
def _population_weights(n_sites: int) -> np.ndarray:
    """``(D, n_sites + 3)`` weights: ``|psi|^2 @ W`` gives the site
    populations, ``P_up``, total S_z and the squared norm."""
    spin = np.arange(8 * n_sites) % 8
    return _read_only(
        np.column_stack(
            [
                np.kron(np.eye(n_sites), np.ones(8)).T,
                spin < 4,  # mobile spin up
                _SZ_SPIN[spin],
                np.ones(8 * n_sites),
            ]
        )
    )


def observables(states, layout: BasisLayout, times=0.0, hamiltonian=None) -> Trajectory:
    """All observables of a pure state ``(D,)`` or of a stack of them
    ``(T, D)`` sampled at ``times``, in one vectorised pass.

    Every observable but the log-negativity and the energy is a linear
    functional of either ``|psi|^2`` or the static pair's reduced state, so
    each family is one matrix product.  That reduced state is the partial
    trace over the site and mobile-spin factors, contracted straight from the
    amplitudes, so no ``D x D`` density matrix is ever formed.
    """
    psi = np.asarray(states, dtype=complex)
    if psi.shape[-1:] != (layout.dim,):
        raise ValueError(f"state shape {psi.shape} does not match layout dim {layout.dim}")
    grid = psi.shape[:-1]
    n = layout.n_sites
    populations = np.abs(psi) ** 2 @ _population_weights(n)
    pair = psi.reshape(grid + (2 * n, 4))
    rho12 = np.swapaxes(pair, -1, -2) @ pair.conj()
    pair_values = (rho12.reshape(grid + (16,)) @ _PAIR_FUNCTIONALS).real
    energy = np.full(grid, math.nan)
    if hamiltonian is not None:
        energy = np.einsum("...i,...i->...", psi.conj(), psi @ np.transpose(hamiltonian)).real
    t = np.asarray(times, dtype=float)
    return Trajectory(
        t=t if t.shape == grid and not t.flags.writeable else np.broadcast_to(t, grid),
        p_site=populations[..., :n],
        p_up=populations[..., n],
        f_plus=pair_values[..., 0],
        f_minus=pair_values[..., 1],
        logneg=_log_negativity(rho12),
        f2=pair_values[..., 2],
        sz_total=populations[..., n + 1],
        s12_sq=pair_values[..., 3],
        norm=np.sqrt(populations[..., n + 2]),
        energy=energy,
    )


@functools.lru_cache(maxsize=None)
def _sz_sectors(dim: int):
    """The total-S_z sectors of a ``dim``-dimensional space: the basis
    indices of each sector and the flat indices of its block in a
    ``(dim, dim)`` matrix, one pair per sector; the ``(dim, n_sectors)``
    table of the sector each basis state lies in; and the flat indices of
    the entries that couple two sectors."""
    sz = np.tile(_SZ_SPIN, dim // 8)
    # not np.unique: with numpy 2.4 its first call adds ~1.6 MB to the peak RSS
    member = sz[:, None] == np.array(sorted(set(_SZ_SPIN)))
    sectors = tuple(
        (_read_only(idx), _read_only((idx[:, None] * dim + idx).ravel()))
        for idx in (np.flatnonzero(column) for column in member.T)
    )
    cross = np.flatnonzero(sz[:, None] != sz[None, :])
    return sectors, _read_only(member), _read_only(cross)


def _evolve_blocks(hamiltonian, initial, times) -> list:
    """``(basis indices, (T, k) amplitudes, block)`` of exp(-i H t)|initial>
    for each block of H that ``initial`` occupies.

    H is checked whole (Hermitian, finite) once.  If it conserves total S_z
    (no nonzero entry between two sectors), the blocks are the S_z sectors;
    otherwise, or when its dimension is no multiple of 8, the whole matrix is
    the one block.  Every block ``initial`` leaves empty stays exactly zero.
    """
    h = np.asarray(hamiltonian, dtype=complex)
    initial = np.asarray(initial, dtype=complex)
    linalg.assert_hermitian(h)
    dim = h.shape[-1]
    if h.ndim != 2 or initial.shape != (dim,):
        raise ValueError(
            f"initial state shape {initial.shape} does not match dimension {dim} "
            f"of the matrix of shape {h.shape}"
        )
    occupied = initial != 0
    conserving = dim % 8 == 0
    if conserving:
        sectors, member, cross = _sz_sectors(dim)
        conserving = not np.count_nonzero(h.take(cross))
    if conserving:
        blocks = [
            (idx, h.take(flat).reshape(len(idx), len(idx)))
            for idx, flat in (sectors[s] for s in (occupied @ member).nonzero()[0])
        ]
    else:
        blocks = [(np.arange(dim), h)] if occupied.any() else []
    times = np.asarray(times, dtype=float).reshape(-1, 1)
    evolved = []
    for idx, block in blocks:
        w, v = linalg.hermitian_eigensystem(block, check=False)
        c = v.conj().T @ initial[idx]
        # the angles t * w in real arithmetic, then one complex product
        evolved.append((idx, (np.exp(-1j * (times * w)) * c) @ v.T, block))
    return evolved


def _whole_states(blocks, n_times: int, dim: int) -> np.ndarray:
    """The ``(T, dim)`` states of :func:`_evolve_blocks`' amplitudes."""
    states = np.zeros((n_times, dim), dtype=complex)
    for idx, amplitudes, _ in blocks:
        states[:, idx] = amplitudes
    return states


def evolve_on_grid(hamiltonian, initial, times) -> np.ndarray:
    """States exp(-i H t)|initial> for every t, one per row.

    H is checked whole (Hermitian, finite) once.  If it conserves total S_z
    (no nonzero entry between two sectors), each sector the initial state
    occupies is solved on its own and every other sector stays exactly
    zero; otherwise, or when its dimension is no multiple of 8, the whole
    matrix is the one block.
    """
    blocks = _evolve_blocks(hamiltonian, initial, times)
    return _whole_states(blocks, np.size(times), np.shape(initial)[0])


# (a, b, c, d, Re z) -> F+, F-, F2 and <(S1 + S2)^2> of an X state with
# rho12[uu, dd] = 0, a, b, c, d its diagonal in the basis (uu, ud, du, dd) and
# z = rho12[ud, du] (the maps of _PAIR_FUNCTIONALS on such a state), then the
# parts b + c, a + d and a - d of its trace norm
_X_FUNCTIONALS = _read_only(
    np.array(
        [
            [0.0, 0.0, 0.0, 2.0, 0.0, 1.0, 1.0],
            [0.5, 0.5, 0.0, 1.0, 1.0, 0.0, 0.0],
            [0.5, 0.5, 1.0, 1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 2.0, 0.0, 1.0, -1.0],
            [1.0, -1.0, 0.0, 2.0, 0.0, 0.0, 0.0],
        ]
    )
)


@functools.lru_cache(maxsize=None)
def _sector_tables(n_sites: int, first: int):
    """Tables of the S_z sector of ``n_sites`` whose first basis index is
    ``first``: the ``(k, n_sites + 10)`` weights W, ``|psi|^2 @ W`` giving
    the site populations, ``P_up``, total S_z and the squared norm of the
    sector amplitudes ``psi``, then the :data:`_X_FUNCTIONALS` of the static
    pair's diagonal (a, b, c, d) with z = 0; and the ``(k, k)`` 0/1 matrix S
    that moves each |ud> amplitude to the position of its |du> partner (same
    site and mobile spin), so that z = <psi|psi S>."""
    (idx,) = [idx for idx, _ in _sz_sectors(8 * n_sites)[0] if idx[0] == first]
    pair = idx % 4
    diagonal = pair[:, None] == np.arange(4)
    weights = np.column_stack([_population_weights(n_sites)[idx], diagonal @ _X_FUNCTIONALS[:4]])
    swap = np.zeros((len(idx), len(idx)), dtype=complex)
    swap[np.flatnonzero(pair == 1), np.flatnonzero(pair == 2)] = 1.0
    return _read_only(weights), _read_only(swap)


def _sector_observables(amplitudes, n_sites: int, idx, times, block) -> Trajectory:
    """:func:`observables` of the ``(T, k)`` amplitudes of states that occupy
    the one S_z sector with basis indices ``idx``; ``block`` is the
    Hamiltonian's block on it.

    Such a state's static pair is an X state with w = rho12[uu, dd] = 0 and
    no entry between the blocks {uu, dd} and {ud, du}, so its fidelities are
    linear in (a, b, c, d, Re z) and its log-negativity is exactly
    log2(|b + c| + max(|a + d|, hypot(a - d, 2|z|))).  One product through
    the sector's weights gives every value but those parts of z.
    """
    weights, swap = _sector_tables(n_sites, int(idx[0]))
    n = n_sites
    values = (np.abs(amplitudes) ** 2 @ weights).T  # one row per value
    z = np.vecdot(amplitudes, amplitudes @ swap)  # sum over the pairs of psi_ud psi_du*
    pair = values[n + 3 : n + 7] + np.multiply.outer(_X_FUNCTIONALS[4, :4], z.real)
    # b + c and a + d are sums of squared moduli, so >= 0
    trace_norm = values[n + 7] + np.maximum(values[n + 8], np.hypot(values[n + 9], 2.0 * np.abs(z)))
    # the einsum of observables, so both paths sum the energy in the same order
    energy = np.einsum("ti,ti->t", amplitudes.conj(), amplitudes @ block.T).real
    return Trajectory(
        t=times,
        p_site=values[:n].T,
        p_up=values[n],
        f_plus=pair[0],
        f_minus=pair[1],
        logneg=np.maximum(0.0, np.log2(trace_norm)),
        f2=pair[2],
        sz_total=values[n + 1],
        s12_sq=pair[3],
        norm=np.sqrt(values[n + 2]),
        energy=energy,
    )


def _evolve_observed(hamiltonian, initial, times, n_sites: int):
    """The :class:`Trajectory` of ``initial`` under H on the read-only
    ``times``, and the amplitudes it was read from.

    A start in one S_z sector of an S_z-conserving H is observed on that
    sector's ``(T, k)`` amplitudes alone; any other start through
    :func:`observables` of its ``(T, D)`` states.
    """
    blocks = _evolve_blocks(hamiltonian, initial, times)
    if len(blocks) == 1 and len(blocks[0][0]) < len(initial):
        idx, amplitudes, block = blocks[0]
        return _sector_observables(amplitudes, n_sites, idx, times, block), amplitudes
    states = _whole_states(blocks, len(times), len(initial))
    return observables(states, _layout(n_sites), times, hamiltonian), states


@functools.lru_cache(maxsize=None)
def _layout(n_sites: int) -> BasisLayout:
    """The one :class:`BasisLayout` of each lattice size that runs share."""
    return BasisLayout(n_sites)


def _checked_run(spec: ModelSpec, initial, grid: TimeGrid | None):
    """The layout, the start state as a complex vector and the grid of a run
    of ``spec``; ``ValueError`` unless ``initial`` is a finite, normalised
    state of the lattice and the run's energies and phases stay floats.

    ``scale = eta + |j_xy| + |j_z|`` bounds the spectral norm of every
    Hamiltonian of ``spec``, twice it bounds every row sum of ``|H|``, and
    ``scale * t_max`` bounds every phase E * t.
    """
    layout = _layout(spec.n_sites)
    initial = np.asarray(initial, dtype=complex)
    if initial.shape != (layout.dim,):
        raise ValueError(
            f"initial state shape {initial.shape} does not match layout dim {layout.dim}"
        )
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
    return layout, initial, grid


def run_trajectory(spec: ModelSpec, hamiltonian_kind: str, initial, grid: TimeGrid | None = None):
    """Evolve ``initial`` and return its :class:`Trajectory` over the grid."""
    layout, initial, grid = _checked_run(spec, initial, grid)
    h = build_hamiltonian(spec, hamiltonian_kind)
    return _evolve_observed(h, initial, grid.times(), layout.n_sites)[0]


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
    chain at the group's rate.  On the doublet that chain is
    [[-j_z/2, sqrt(2) j_xy], [sqrt(2) j_xy, 0]]: one rotation at
    omega = hypot(sqrt(2) j_xy, j_z/4) for every coupling.
    """
    if spec.j_xy == 0.0 and spec.j_z == 0.0:
        raise ValueError("the closed form needs a nonzero coupling; j_xy = j_z = 0")
    layout, initial, grid = _checked_run(spec, initial, grid)
    omega = math.hypot(SQRT2 * spec.j_xy, spec.j_z / 4.0)
    # the chain less its mean energy, over omega (omega = 0 only where every
    # sin(rate * omega * t) = 0 too)
    chain = np.array([[-spec.j_z / 4.0, SQRT2 * spec.j_xy], [SQRT2 * spec.j_xy, spec.j_z / 4.0]])
    reflection = chain / omega if omega > 0.0 else chain
    times = grid.times()
    populations = np.zeros((len(times), 2))
    slowest = math.inf
    for rate, part in _mode_parts(layout.n_sites, initial):
        slowest = min(slowest, rate)
        v = part @ _DOUBLET.conj().T  # (sites, 2) doublet amplitudes
        theta = times[:, None, None] * (rate * omega)
        turned = np.cos(theta) * v - 1j * np.sin(theta) * (v @ reflection.T)
        populations += (np.abs(turned) ** 2).sum(axis=1)
    turn = slowest * omega
    period = 2.0 * math.pi / turn if turn > 0.0 else math.inf
    return AnalyticSolution(times, populations[:, 0], populations[:, 1], period)
