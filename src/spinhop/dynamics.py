"""Time evolution and observable extraction.

Trajectories are computed exactly through the spectral decomposition of the
(exact or effective) Hamiltonian.  A :class:`Trajectory` holds one array per
observable over the whole time grid: site populations, the mobile-spin-up
probability, the triplet/singlet fidelities of the static pair, its
logarithmic negativity, the excitation-transfer fidelity and the conserved
quantities, all computed from the stack of states in one vectorised pass:
one product of ``|psi|^2`` with a fixed weight matrix, one batched product
for the static pair's reduced state and one linear map of that state.
Closed-form two-level solutions for the strong-hopping spin dynamics are
provided for cross-checking.

Every Hamiltonian here conserves total S_z, so it is block-diagonal in the
S_z sectors, of n_sites * (1, 3, 3, 1) states.  :func:`evolve_on_grid`
checks the whole matrix once and then solves only the sectors the start
state occupies; a matrix that couples sectors is solved whole.  Every start
state that ``encode_state`` builds has a definite S_z, so the static pair's
reduced state never mixes the blocks {uu, dd} and {ud, du}: it is an
"X state", whose log-negativity has a closed form.  That form is taken
wherever it is certified to ``X_TOL`` (see :func:`_log_negativity`); any
other matrix goes to the eigensolver.  A short grid costs more in per-call
overhead than in arithmetic, so a grid samples its times once and each
check and reduction is one pass over its data.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .model import (
    EFFECTIVE_VARIANTS,
    S12_SQ_4,
    SQRT2,
    BasisLayout,
    ModelSpec,
    _finite,
    _is_int,
    _known,
    _read_only,
    build_effective_hamiltonian,
    build_hamiltonian,
)

HAMILTONIAN_KINDS = ("exact", *EFFECTIVE_VARIANTS)

_PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / SQRT2
_PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / SQRT2
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

# spin part of |up>|down down> and |down>|psi+> in the 8-dim spin space
_DOUBLET_UP = np.zeros(8, dtype=complex)
_DOUBLET_UP[3] = 1.0
_DOUBLET_DOWN = np.zeros(8, dtype=complex)
_DOUBLET_DOWN[5] = 1.0 / SQRT2
_DOUBLET_DOWN[6] = 1.0 / SQRT2


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


def hamiltonian_for(spec: ModelSpec, kind: str) -> np.ndarray:
    """Exact or effective Hamiltonian selected by name."""
    if kind == "exact":
        return build_hamiltonian(spec)
    if _known(kind, EFFECTIVE_VARIANTS):
        return build_effective_hamiltonian(spec, kind)
    raise ValueError(f"unknown hamiltonian kind {kind!r}; valid: {HAMILTONIAN_KINDS}")


@functools.lru_cache(maxsize=None)
def _sz_sectors(dim: int):
    """Basis indices of each total-S_z sector of a ``dim``-dimensional space
    and the mask of the entries that couple two sectors."""
    sz = np.tile(_SZ_SPIN, dim // 8)
    # not np.unique: with numpy 2.4 its first call adds ~1.6 MB to the peak RSS
    sectors = tuple(_read_only(np.flatnonzero(sz == v)) for v in sorted(set(_SZ_SPIN)))
    return sectors, _read_only(sz[:, None] != sz[None, :])


def evolve_on_grid(hamiltonian, initial, times) -> np.ndarray:
    """States exp(-i H t)|initial> for every t, one per row.

    H is checked whole (Hermitian, finite) once.  If it conserves total S_z
    (no nonzero entry between two sectors), each sector the initial state
    occupies is solved on its own and every other sector stays exactly
    zero; otherwise, or when its dimension is no multiple of 8, the whole
    matrix is the one block.
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
    sectors, cross = _sz_sectors(dim) if dim % 8 == 0 else ((), None)
    if cross is None or h[cross].any():
        sectors = (np.arange(dim),)
    times = np.asarray(times, dtype=float).reshape(-1, 1)
    states = np.zeros((len(times), dim), dtype=complex)
    for idx in sectors:
        psi = initial[idx]
        if psi.any():  # an unoccupied sector stays exactly zero
            eig = linalg.hermitian_eigensystem(h[idx[:, None], idx], check=False)
            phases = np.exp(-1j * times * eig.eigenvalues)
            c = eig.eigenvectors.conj().T @ psi
            states[:, idx] = (phases * c) @ eig.eigenvectors.T
    return states


def _checked_run(spec: ModelSpec, initial, grid: TimeGrid | None):
    """The layout, the start state as a complex vector and the grid of a run
    of ``spec``; ``ValueError`` unless ``initial`` is a finite, normalised
    state of the lattice and the run's energies and phases stay floats.

    ``scale = eta + |j_xy| + |j_z|`` bounds the spectral norm of every
    Hamiltonian of ``spec``, twice it bounds every row sum of ``|H|``, and
    ``scale * t_max`` bounds every phase E * t.
    """
    layout = BasisLayout(spec.n_sites)
    initial = np.asarray(initial, dtype=complex)
    if initial.shape != (layout.dim,):
        raise ValueError(
            f"initial state shape {initial.shape} does not match layout dim {layout.dim}"
        )
    if not np.isfinite(initial).all():
        raise ValueError("initial state has NaN or infinite entries")
    nrm = math.sqrt(np.vdot(initial, initial).real)
    if not abs(nrm - 1.0) <= 1e-10:
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
    h = hamiltonian_for(spec, hamiltonian_kind)
    times = grid.times()
    return observables(evolve_on_grid(h, initial, times), layout, times, h)


@dataclass(frozen=True)
class AnalyticSolution:
    """Closed-form strong-hopping spin dynamics started from |up>|down down>.

    ``times`` are the sample times as a 1-d float array.  ``p_up`` is the
    surviving population of that configuration, ``p_down`` the population
    transferred to |down>|psi+>; both are probabilities and sum to one.
    ``period`` is the full cycle of the underlying state.
    """

    times: np.ndarray
    p_up: np.ndarray
    p_down: np.ndarray
    period: float


def analytic(model_kind: str, lattice: str, t, j: float) -> AnalyticSolution:
    """Two-level solution of the strong-hopping spin chain on the doublet
    spanned by |up>|down down> and |down>|psi+>, sampled at ``t``.

    On ``"two_site"`` the chain's couplings are halved.  On
    ``"three_site_middle_start"`` they are quartered: the same closed form at
    half the rate, so twice the period.  The period depends on the coupling
    only through |j|.
    """
    if not (j != 0.0 and math.isfinite(j)):
        raise ValueError(f"coupling j must be finite and nonzero, got {j!r}")
    if model_kind == "xy":
        period = 2.0 * SQRT2 * math.pi / abs(j)
    elif model_kind == "heisenberg":
        period = (16.0 * math.pi / 3.0) / abs(j)  # 3 |j| alone can overflow to inf
    else:
        raise ValueError(f"unknown model kind {model_kind!r}; valid: xy, heisenberg")
    if lattice == "three_site_middle_start":
        # from j itself: j / 2 underflows to 0 at the smallest couplings
        period, j = 2.0 * period, j / 2.0
    elif lattice != "two_site":
        raise ValueError(
            f"unknown lattice {lattice!r}; valid: two_site, three_site_middle_start"
        )
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if model_kind == "xy":
        p_down = np.sin(j * times / SQRT2) ** 2
    else:
        p_down = (8.0 / 9.0) * np.sin(3.0 * j * times / 8.0) ** 2
    return AnalyticSolution(times=times, p_up=1.0 - p_down, p_down=p_down, period=period)


def doublet_leakage(state, layout: BasisLayout) -> float:
    """Population outside span{|up>|dd>, |down>|psi+>} ⊗ (any motional state)."""
    psi = np.asarray(state, dtype=complex).reshape(layout.n_sites, 8)
    a_up = psi @ _DOUBLET_UP.conj()
    a_down = psi @ _DOUBLET_DOWN.conj()
    return float(1.0 - (np.abs(a_up) ** 2 + np.abs(a_down) ** 2).sum())
