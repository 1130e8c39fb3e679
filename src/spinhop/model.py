"""Physical configuration and Hamiltonian builders.

A spin-1/2 particle hops along a two- or three-site lattice; static spin 1
sits at the leftmost site and static spin 2 at the rightmost one, and each
exchange-couples to the mobile spin whenever it visits that site.  The
interaction carries an isotropic-XY part of strength ``j_xy`` and an Ising
part ``j_z``; ``j_z = 2 * j_xy`` gives the Heisenberg point and ``j_z = 0``
the pure XY model.

Besides the exact Hamiltonian there is one strong-hopping effective kind on
either lattice, the paper's three-spin chain.  It is the exact one's
band-diagonal part, sum_b P_b H P_b over the kinetic modes b of the hopping
(first-order degenerate perturbation theory), with every weight exact in
floats: the mobile spin couples to the *total* spin of the static pair at a
rate per group of kinetic modes, 1/2 on two sites, and 1/4 in the +-eta
modes and 1/2 in the zero mode on three.  :data:`MODE_RATES` holds those
rates and groups for the closed form of ``dynamics.analytic``, a source
independent of the Hamiltonian that the tests check against it.
:func:`build_hamiltonian` builds both kinds and ``_check_kind`` is the one
place that checks a kind.

Every one of these Hamiltonians is ``amp * hopping + j_xy * XY + j_z * Ising``
with fixed unit-coupling operators per lattice, built from Kronecker products
and exact products with the hopping pattern (no eigensolve).  Every
operator conserves total S_z, so every Hamiltonian is block-diagonal in the
S_z sectors, of n_sites * (1, 3, 3, 1) states.  The one cache, ``_sectors``,
holds one record per sector of each lattice: its basis indices, its block of
every kind's operators and the tables through which ``dynamics`` reads its
observables.  ``_sector_blocks`` builds the blocks of the sectors a state
occupies, one product each, with their tables, and :func:`build_hamiltonian`
is all of them scattered into zeros.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)

_I2 = np.eye(2, dtype=complex)
# single spin-1/2, basis (up, down); z component has eigenvalues +-1/2 (hbar = 1)
S_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
S_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
S_Z = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
_SZ = np.array([0.5, -0.5])  # up, down
# total S_z of each spin basis state |e, s1, s2>, at index e*4 + s1*2 + s2
_SZ_SPIN = np.add.outer(np.add.outer(_SZ, _SZ), _SZ).ravel()

# every kind build_hamiltonian takes
HAMILTONIAN_KINDS = ("exact", "effective")
# former names of the effective kind, which the benchmark's parameter scan
# still passes; each reads as "effective" on either lattice
_OLD_EFFECTIVE_NAMES = ("two_site", "three_site_projector", "three_site_middle_start")

_STATIC_PRESETS = {
    "up-up": np.array([1, 0, 0, 0], dtype=complex),
    "up-down": np.array([0, 1, 0, 0], dtype=complex),
    "down-up": np.array([0, 0, 1, 0], dtype=complex),
    "down-down": np.array([0, 0, 0, 1], dtype=complex),
    "psi-plus": np.array([0, 1, 1, 0], dtype=complex) / SQRT2,
    "psi-minus": np.array([0, 1, -1, 0], dtype=complex) / SQRT2,
}
_E_SPINS = {"up": 0, "down": 1}


def _is_int(x) -> bool:
    """An integer, a Python or a numpy one, not a bool or a float that equals
    one: ``2.0`` would pass as a lattice size and ``True`` as site label 1."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _finite(x) -> bool:
    """A finite real number: an int, a float or a numpy real scalar, not a
    bool, and an int only within the float range."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _known(label, table) -> bool:
    """Whether ``label`` is a string key of ``table``; a list or dict label
    would make the lookup itself raise ``TypeError``."""
    return isinstance(label, str) and label in table


# coupling preset -> the config couplings it takes, and (j_xy, j_z) from
# those of them given, as floats; the only table of which preset takes what
_COUPLING_PRESETS = {
    "xy": (("j",), lambda j=1.0: (j, 0.0)),
    "heisenberg": (("j",), lambda j=1.0: (j / 2.0, j)),
    "custom": (("j_xy", "j_z"), lambda j_xy=0.0, j_z=0.0: (j_xy, j_z)),
}
# every coupling some preset takes: j, j_xy, j_z
_COUPLING_KEYS = sorted({key for taken, _ in _COUPLING_PRESETS.values() for key in taken})


@dataclass(frozen=True)
class ModelSpec:
    """Lattice size, hopping amplitude and spin-spin couplings.

    Static spin 1 is pinned at the leftmost site and static spin 2 at the
    rightmost one, as in the paper.

    ``n_sites`` must be the integer 2 or 3 (a Python or numpy int, not a
    bool), stored as an int.  ``eta`` (>= 0), ``j_xy`` and ``j_z`` must be
    finite real numbers: an int within the float range, a float or a numpy
    real scalar; a bool, a string or ``None`` is rejected.  They are stored
    as floats.
    """

    n_sites: int
    eta: float
    j_xy: float = 0.0
    j_z: float = 0.0

    def __post_init__(self):
        # the lattice-size check, and the size as an int
        object.__setattr__(self, "n_sites", BasisLayout(self.n_sites).n_sites)
        if not (_finite(self.eta) and self.eta >= 0.0):
            raise ValueError(f"eta must be a finite number >= 0, got {self.eta!r}")
        if not (_finite(self.j_xy) and _finite(self.j_z)):
            raise ValueError(
                f"couplings must be finite numbers, got j_xy={self.j_xy!r}, j_z={self.j_z!r}"
            )
        for name in ("eta", "j_xy", "j_z"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @classmethod
    def from_preset(cls, preset, n_sites, eta, **couplings):
        """A spec from a coupling preset and the couplings given with it by
        keyword.  ``"xy"`` takes ``j`` (default 1) as ``j_xy = j``,
        ``j_z = 0``; ``"heisenberg"`` takes ``j`` (default 1) as
        ``j_z = j = 2 j_xy``; ``"custom"`` takes ``j_xy`` and ``j_z``
        (default 0).  A coupling the preset does not take is refused, and
        one it takes must be finite.  Messages name config keys."""
        if not _known(preset, _COUPLING_PRESETS):
            *names, last = _COUPLING_PRESETS
            raise ValueError(f"model.preset must be {', '.join(names)} or {last}, got {preset!r}")
        taken, couplings_of = _COUPLING_PRESETS[preset]
        refused = sorted(couplings.keys() - set(taken))
        if refused:
            raise ValueError(
                f"preset {preset!r} takes {' and '.join(taken)}, not {' or '.join(refused)}"
            )
        for k, v in couplings.items():
            if not _finite(v):
                raise ValueError(f"model.{k} must be finite, got {v!r}")
        j_xy, j_z = couplings_of(**{k: float(v) for k, v in couplings.items()})
        return cls(n_sites=n_sites, eta=eta, j_xy=j_xy, j_z=j_z)

    @classmethod
    def xy(cls, eta, j=1.0, n_sites=2):
        """Pure isotropic-XY coupling of strength ``j``."""
        return cls.from_preset("xy", n_sites, eta, j=j)

    @classmethod
    def heisenberg(cls, eta, j=1.0, n_sites=2):
        """Heisenberg coupling of strength ``j`` (``j_z = 2 j_xy = j``)."""
        return cls.from_preset("heisenberg", n_sites, eta, j=j)

    @property
    def j_ref(self) -> float:
        """Energy unit J: the coupling of larger magnitude, signed, and the
        Ising one on a tie.  ``ValueError`` when both are zero, for eta/J is
        then undefined."""
        j = self.j_z if abs(self.j_z) >= abs(self.j_xy) else self.j_xy
        if j == 0.0:
            raise ValueError("coupling scale is zero; eta/J is undefined")
        return j


@dataclass(frozen=True)
class BasisLayout:
    """Canonical tensor ordering: site ⊗ mobile spin ⊗ static 1 ⊗ static 2.

    Composite index = ((site*2 + e)*2 + s1)*2 + s2 with spins encoded
    up -> 0, down -> 1 and sites numbered left to right.  Site *labels*
    follow the convention 1, 2 for the two-site lattice and 1, 0, 2
    (left, middle, right) for the three-site one.  ``n_sites`` is 2 or 3,
    given as any integer but a bool, and is stored as an int.
    """

    n_sites: int

    def __post_init__(self):
        if not _is_int(self.n_sites) or self.n_sites not in (2, 3):
            raise ValueError(f"n_sites must be 2 or 3, got {self.n_sites!r}")
        object.__setattr__(self, "n_sites", int(self.n_sites))

    @property
    def dim(self) -> int:
        return 8 * self.n_sites

    def site_labels(self):
        """Site labels in lattice order (left to right)."""
        return (1, 2) if self.n_sites == 2 else (1, 0, 2)

    def site_index(self, label: int) -> int:
        """Lattice index of a labelled site."""
        labels = self.site_labels()
        if not _is_int(label) or label not in labels:  # True == 1, but is no label
            raise ValueError(f"unknown site label {label!r}; valid: {labels}")
        return labels.index(label)


def _spin3(e_op, s1_op, s2_op):
    """Operator on the 8-dim spin space (mobile ⊗ static 1 ⊗ static 2)."""
    return np.kron(e_op, np.kron(s1_op, s2_op))


def _hop_amplitude(spec: ModelSpec) -> float:
    """Nearest-neighbour hopping amplitude.  The three-site bond is scaled by
    1/sqrt(2) so that the kinetic spectrum is {-eta, 0, +eta} for either
    lattice size."""
    return spec.eta if spec.n_sites == 2 else spec.eta / SQRT2


# static spin k -> (XY, Ising) coupling of the mobile spin to it at unit
# strength, on the 8-dim spin space
_PAIR = {
    1: (_spin3(S_PLUS, S_MINUS, _I2) + _spin3(S_MINUS, S_PLUS, _I2), _spin3(S_Z, S_Z, _I2)),
    2: (_spin3(S_PLUS, _I2, S_MINUS) + _spin3(S_MINUS, _I2, S_PLUS), _spin3(S_Z, _I2, S_Z)),
}


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# lattice size -> (rate, site projector) per group of kinetic modes, the
# closed form's table: at strong hopping the spins turn as the collective
# chain at that rate in those modes.  On three sites the projectors are
# A^2 = B^2 / 2 onto the +-eta modes and I - A^2 onto the zero mode, B the
# 0/1 hopping pattern; every entry is exact.
MODE_RATES = {
    2: ((0.5, _read_only(np.eye(2))),),
    3: (
        (0.25, _read_only(np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]]))),
        (0.5, _read_only(np.array([[0.5, 0.0, -0.5], [0.0, 0.0, 0.0], [-0.5, 0.0, 0.5]]))),
    ),
}
# (a, b, c, d, Re z) -> F+, F-, F2 and <(S1 + S2)^2> of the static pair's
# reduced state rho12, a, b, c, d its diagonal in the basis (uu, ud, du, dd)
# and z = rho12[ud, du] (no other entry enters them), then the parts b + c,
# a + d and a - d of its trace norm in one S_z sector
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
# Largest weight |(P ⊗ I8) psi|^2 of a unit state on a mode group that counts
# as empty: P is exact, but rounding in a float-built state leaves at most a
# few eps on each of the 24 amplitudes of a group it does not occupy, a
# weight below ~1e-29
MODE_WEIGHT_FLOOR = 1e-26


def _mode_parts(n_sites: int, state: np.ndarray) -> tuple:
    """``(rate, (P ⊗ I8) state)`` per mode group of :data:`MODE_RATES` that
    ``state`` occupies, with a weight above :data:`MODE_WEIGHT_FLOOR`; each
    projected state an ``(n_sites, 8)`` array of site by spin amplitudes."""
    psi = np.asarray(state).reshape(n_sites, 8)
    parts = ((rate, p @ psi) for rate, p in MODE_RATES[n_sites])
    return tuple((rate, v) for rate, v in parts if np.vdot(v, v).real > MODE_WEIGHT_FLOOR)


def _lattice_terms(n_sites: int) -> dict:
    """Unit-coupling operators of one lattice, read once into :func:`_sectors`.

    Each of :data:`HAMILTONIAN_KINDS` maps to the ``(3, D, D)`` stack of the
    operators that the hopping amplitude, ``j_xy`` and ``j_z`` multiply: the
    0/1 hopping pattern B = adjacency ⊗ I8, then the (XY, Ising) contact
    pair of static spin 1 at site 0 and static spin 2 at site
    ``n_sites - 1``.  ``"exact"`` is that stack.  ``"effective"`` is its
    band-diagonal part, sum_b P_b X P_b over the kinetic modes b of B
    (first-order degenerate perturbation theory).  A = B / sqrt(n - 1) has
    the modes at -1, 0 and +1, so A^2 projects onto the +-eta modes,
    Q = I - A^2 onto the zero mode (0 on two sites) and P+- = (A^2 +- A) / 2:
    the part is Q X Q + (A^2 X A^2 + A X A) / 2, with A^2 = B^2 / (n - 1)
    and A X A = B X B / (n - 1).  Every factor is dyadic, so the products
    are exact in floats: the hopping comes back unchanged, two sites give
    1/2 and three [[3, 0, -1], [0, 2, 0], [-1, 0, 3]] / 8 of the collective
    coupling to the static pair.  No two operators of a stack share a
    nonzero entry.
    """
    exact = np.zeros((3, 8 * n_sites, 8 * n_sites), dtype=complex)
    exact[0] = np.kron(np.eye(n_sites, k=1) + np.eye(n_sites, k=-1), np.eye(8))
    exact[1:, :8, :8] += _PAIR[1]  # static spin 1 at site 0
    exact[1:, -8:, -8:] += _PAIR[2]  # static spin 2 at site n_sites - 1
    hop = exact[0]
    outer = hop @ hop / (n_sites - 1)  # A^2
    zero = np.eye(8 * n_sites) - outer  # Q
    band = zero @ exact @ zero + (outer @ exact @ outer + hop @ exact @ hop / (n_sites - 1)) / 2
    return {"exact": exact, "effective": band}


def _check_kind(spec: ModelSpec | None, kind) -> str:
    """The kind of :data:`HAMILTONIAN_KINDS` that ``kind`` names, a former
    effective name read as ``"effective"``; ``ValueError`` unless it names
    one that :func:`build_hamiltonian` can build for ``spec``, if given."""
    if _known(kind, _OLD_EFFECTIVE_NAMES):
        kind = "effective"
    if not _known(kind, HAMILTONIAN_KINDS):
        raise ValueError(f"unknown hamiltonian kind {kind!r}; valid: {HAMILTONIAN_KINDS}")
    if kind == "effective" and spec is not None and spec.eta <= 0.0:
        raise ValueError("effective requires eta > 0, which separates the kinetic modes")
    return kind


def build_hamiltonian(spec: ModelSpec, kind: str = "exact") -> np.ndarray:
    """The Hamiltonian of one of :data:`HAMILTONIAN_KINDS`, a fresh matrix.

    ``exact``: hopping (identity on every spin factor) plus the contact
    interaction, through which the mobile spin exchanges with the static spin
    pinned at an outer site whenever it visits that site (block diagonal in
    the site index).  Zero couplings give the hopping alone and ``eta = 0``
    the interaction alone.

    ``effective``: the exact Hamiltonian's band-diagonal part over the
    kinetic modes of the hopping, hopping plus the strong-hopping chain: the
    mobile spin couples to the total static spin at the rate of each group
    of modes (halved couplings on two sites; 1/4 (P+ + P-) + 1/2 P0 on
    three, so a middle start sees quartered couplings).  The closed form
    reads those rates from :data:`MODE_RATES`; this builder does not.  It
    needs ``eta > 0``, for at ``eta = 0`` the kinetic modes do not separate.

    It is every S_z block of :func:`_sector_blocks`, the blocks that runs
    solve, scattered into zeros.
    """
    dim = 8 * spec.n_sites
    h = np.zeros((dim, dim), dtype=complex)
    for _, idx, block in _sector_blocks(spec, kind, np.ones(dim)):
        h[np.ix_(idx, idx)] = block
    return h


@functools.lru_cache(maxsize=None)
def _sectors(n_sites: int) -> tuple:
    """One record per total-S_z sector of the lattice, S_z ascending from
    -3/2, of n_sites * (1, 3, 3, 1) states: ``(basis indices, terms,
    (weights, swap))``, all read-only.  ``terms`` maps each kind of
    :func:`_lattice_terms` to the ``(3, k * k)`` stack of the sector's block
    of each of its operators.  ``|psi|^2 @ weights`` gives the site
    populations, ``P_up``, total S_z and the squared norm of the sector
    amplitudes ``psi``, then the :data:`_X_FUNCTIONALS` of the static pair's
    diagonal (a, b, c, d) with z = 0; the 0/1 ``swap`` moves each |ud>
    amplitude to its |du> partner (same site and mobile spin), so that
    z = <psi|psi swap>."""
    sz = np.tile(_SZ_SPIN, n_sites)
    stacks = _lattice_terms(n_sites)
    records = []
    for value in (-1.5, -0.5, 0.5, 1.5):
        idx = _read_only(np.flatnonzero(sz == value))
        terms = {
            kind: _read_only(t[:, idx[:, None], idx].reshape(3, -1)) for kind, t in stacks.items()
        }
        site, spin = np.divmod(idx, 8)
        pair = spin % 4
        weights = np.column_stack(
            [
                site[:, None] == np.arange(n_sites),
                spin < 4,  # mobile spin up
                _SZ_SPIN[spin],
                np.ones(len(idx)),
                (pair[:, None] == np.arange(4)) @ _X_FUNCTIONALS[:4],
            ]
        )
        swap = np.zeros((len(idx), len(idx)), dtype=complex)
        swap[np.flatnonzero(pair == 1), np.flatnonzero(pair == 2)] = 1.0
        records.append((idx, terms, (_read_only(weights), _read_only(swap))))
    return tuple(records)


def _sector_blocks(spec: ModelSpec, kind, initial) -> list:
    """``(tables, basis indices, block)`` of each S_z sector that the state
    ``initial`` occupies (has a nonzero amplitude on), ``tables`` those of
    its record in :func:`_sectors`: the ``k x k`` block of the ``kind``
    Hamiltonian of ``spec`` there, one product of its three coefficients with
    the sector's operator stack, after the kind check.  No operator couples
    two sectors, so these blocks and zeros make up the whole matrix."""
    kind = _check_kind(spec, kind)
    coefficients = np.array([_hop_amplitude(spec), spec.j_xy, spec.j_z])
    return [
        (tables, idx, (coefficients @ terms[kind]).reshape(len(idx), len(idx)))
        for idx, terms, tables in _sectors(spec.n_sites)
        if np.count_nonzero(initial[idx])
    ]


def encode_state(layout: BasisLayout, site: int, e_spin: str, static: str) -> np.ndarray:
    """Normalized product state |site⟩|e_spin⟩|static pair⟩.

    ``site`` is a site label (see :class:`BasisLayout`), ``e_spin`` is
    ``"up"``/``"down"`` and ``static`` one of ``up-up``, ``up-down``,
    ``down-up``, ``down-down``, ``psi-plus``, ``psi-minus``.
    """
    if not _known(e_spin, _E_SPINS):
        raise ValueError(f"unknown mobile-spin label {e_spin!r}; valid: up, down")
    offset = (layout.site_index(site) * 2 + _E_SPINS[e_spin]) * 4
    if not _known(static, _STATIC_PRESETS):
        raise ValueError(
            f"unknown static-pair preset {static!r}; valid: {sorted(_STATIC_PRESETS)}"
        )
    state = np.zeros(layout.dim, dtype=complex)
    state[offset : offset + 4] = _STATIC_PRESETS[static]
    return state
