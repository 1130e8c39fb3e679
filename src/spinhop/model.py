"""Physical configuration and Hamiltonian builders.

A spin-1/2 particle hops along a two- or three-site lattice; static spin 1
sits at the leftmost site and static spin 2 at the rightmost one, and each
exchange-couples to the mobile spin whenever it visits that site.  The
interaction carries an isotropic-XY part of strength ``j_xy`` and an Ising
part ``j_z``; ``j_z = 2 * j_xy`` gives the Heisenberg point and ``j_z = 0``
the pure XY model.

Besides the exact Hamiltonian, three strong-hopping effective Hamiltonians
are available in which the mobile spin couples to the *total* spin of the
static pair: the two-site reduction (couplings halved), the three-site
normal-mode-projector form, and the three-site middle-start reduction
(couplings quartered).

Every one of these Hamiltonians is ``amp * hopping + j_xy * XY + j_z * Ising``
with fixed operators per lattice.  Those unit-coupling operators are built
from Kronecker products and the closed-form normal modes of the hopping (no
eigensolve), once per lattice size, and cached read-only;
each builder call assembles a fresh matrix from them.
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

# (S_1 + S_2)^2 on the static pair, basis (uu, ud, du, dd): triplet 2, singlet 0
S12_SQ_4 = np.array(
    [
        [2.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 2.0],
    ],
    dtype=complex,
)

# effective Hamiltonian variant -> the lattice size it is built for
EFFECTIVE_VARIANTS = {"two_site": 2, "three_site_projector": 3, "three_site_middle_start": 3}
# lattice size -> the effective spin chain of the closed forms and of compare
CHAIN_VARIANT = {2: "two_site", 3: "three_site_middle_start"}

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
    """An int, not a bool or a float that equals one: ``2.0`` would pass as a
    lattice size and ``True`` as site label 1."""
    return isinstance(x, int) and not isinstance(x, bool)


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


def _is_heisenberg(j_xy, j_z) -> bool:
    """``j_z == 2 j_xy`` to 1e-12 relative to ``j_z``, the one rule of the
    preset and of ``coupling_kind``.  ``j_z / 2`` is the preset's default
    ``j_xy``, so the default passes even where it underflows."""
    return abs(j_xy - j_z / 2.0) <= 0.5e-12 * abs(j_z)


def _given(name, value, default):
    """A preset coupling as a float, or ``default`` when it is not given."""
    if value is None:
        return default
    if not _finite(value):
        raise ValueError(f"model.{name} must be finite, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ModelSpec:
    """Lattice size, hopping amplitude and spin-spin couplings.

    Static spin 1 is pinned at the leftmost site and static spin 2 at the
    rightmost one, as in the paper.

    ``n_sites`` must be the int 2 or 3.  ``eta`` (>= 0), ``j_xy`` and
    ``j_z`` must be finite real numbers: an int within the float range, a
    float or a numpy real scalar; a bool, a string or ``None`` is rejected.
    They are stored as floats.
    """

    n_sites: int
    eta: float
    j_xy: float = 0.0
    j_z: float = 0.0

    def __post_init__(self):
        if not _is_int(self.n_sites) or self.n_sites not in (2, 3):
            raise ValueError(f"n_sites must be 2 or 3, got {self.n_sites!r}")
        if not (_finite(self.eta) and self.eta >= 0.0):
            raise ValueError(f"eta must be a finite number >= 0, got {self.eta!r}")
        if not (_finite(self.j_xy) and _finite(self.j_z)):
            raise ValueError(
                f"couplings must be finite numbers, got j_xy={self.j_xy!r}, j_z={self.j_z!r}"
            )
        for name in ("eta", "j_xy", "j_z"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @classmethod
    def from_preset(cls, preset, n_sites, eta, j=None, j_xy=None, j_z=None):
        """A spec from a coupling preset and the couplings given with it
        (``None``: not given).  ``"xy"``: ``j_xy = j`` (default 1), ``j_z = 0``;
        ``"heisenberg"``: ``j_z = j = 2 j_xy`` (default 1); ``"custom"``:
        ``j_xy``, ``j_z`` as given (default 0) and no ``j``.  Two given
        couplings that fix one value must agree.  Messages name config keys."""
        if not _known(preset, ("xy", "heisenberg", "custom")):
            raise ValueError(f"model.preset must be xy, heisenberg or custom, got {preset!r}")
        if preset == "custom":
            if j is not None:
                raise ValueError("model.j is only meaningful with the xy/heisenberg presets")
            j_xy, j_z = _given("j_xy", j_xy, 0.0), _given("j_z", j_z, 0.0)
        elif preset == "xy":
            if _given("j_z", j_z, 0.0) != 0.0:
                raise ValueError("preset 'xy' requires j_z == 0")
            scale = _given("j", j, 1.0)
            value = _given("j_xy", j_xy, scale)
            if j is not None and j_xy is not None and value != scale:
                raise ValueError("preset 'xy': j and j_xy disagree; give one of them")
            j_xy, j_z = value, 0.0
        else:
            z = _given("j_z", j_z, 1.0)
            scale = _given("j", j, z)
            if j is not None and j_z is not None and z != scale:
                raise ValueError("preset 'heisenberg': j and j_z disagree; give one of them")
            j_z = z if j_z is not None else scale
            j_xy = _given("j_xy", j_xy, j_z / 2.0)
            if not _is_heisenberg(j_xy, j_z):
                raise ValueError("preset 'heisenberg' requires j_z == 2 * j_xy")
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
        """Energy unit J: the Ising coupling when present, else the XY one.
        ``ValueError`` when both are zero, for eta/J is then undefined."""
        j = self.j_z if self.j_z != 0.0 else self.j_xy
        if j == 0.0:
            raise ValueError("coupling scale is zero; eta/J is undefined")
        return j

    def coupling_kind(self) -> str:
        """"xy", "heisenberg" or "custom"."""
        if self.j_z == 0.0:
            return "xy"
        if _is_heisenberg(self.j_xy, self.j_z):
            return "heisenberg"
        return "custom"


@dataclass(frozen=True)
class BasisLayout:
    """Canonical tensor ordering: site ⊗ mobile spin ⊗ static 1 ⊗ static 2.

    Composite index = ((site*2 + e)*2 + s1)*2 + s2 with spins encoded
    up -> 0, down -> 1 and sites numbered left to right.  Site *labels*
    follow the convention 1, 2 for the two-site lattice and 1, 0, 2
    (left, middle, right) for the three-site one.
    """

    n_sites: int

    def __post_init__(self):
        if not _is_int(self.n_sites) or self.n_sites not in (2, 3):
            raise ValueError(f"n_sites must be 2 or 3, got {self.n_sites}")

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


@functools.lru_cache(maxsize=None)
def _lattice_terms(n_sites: int) -> dict:
    """Read-only unit-coupling operators of one lattice, built once.

    ``"hop"`` maps to the 0/1 hopping pattern ⊗ I8, and every Hamiltonian
    kind of the lattice to the (XY, Ising) pair that ``j_xy`` and ``j_z``
    multiply: for ``"exact"`` the contact terms of static spin 1 at site 0
    and static spin 2 at site ``n_sites - 1``, for each effective variant a
    motional weight ⊗ the collective coupling to the static pair.
    """
    eye = np.eye(n_sites, dtype=complex)
    adjacency = np.eye(n_sites, k=1, dtype=complex) + np.eye(n_sites, k=-1, dtype=complex)
    contact = [np.zeros((8 * n_sites, 8 * n_sites), dtype=complex) for _ in range(2)]
    for total, one, two in zip(contact, _PAIR[1], _PAIR[2]):
        total[:8, :8] += one  # site 0
        total[-8:, -8:] += two  # site n_sites - 1
    collective = [a + b for a, b in zip(_PAIR[1], _PAIR[2])]
    if n_sites == 2:
        weights = {"two_site": 0.5 * eye}
    else:
        # weight 1/4 on the +-eta normal modes, 1/2 on the zero mode
        # (1, 0, -1)/sqrt(2), which does not depend on eta > 0
        phi0 = np.array([1.0, 0.0, -1.0]) / SQRT2
        p0 = np.outer(phi0, phi0)
        weights = {
            "three_site_projector": 0.25 * (eye - p0) + 0.5 * p0,
            "three_site_middle_start": 0.25 * eye,
        }
    terms = {
        "hop": _read_only(np.kron(adjacency, np.eye(8, dtype=complex))),
        "exact": tuple(_read_only(op) for op in contact),
    }
    for variant, weight in weights.items():
        terms[variant] = tuple(_read_only(np.kron(weight, op)) for op in collective)
    return terms


def _assemble(spec: ModelSpec, kind: str) -> np.ndarray:
    """``amp * hopping + (j_xy * XY + j_z * Ising)`` of one kind, one terms lookup."""
    terms = _lattice_terms(spec.n_sites)
    xy, z = terms[kind]
    return _hop_amplitude(spec) * terms["hop"] + (spec.j_xy * xy + spec.j_z * z)


def build_hamiltonian(spec: ModelSpec) -> np.ndarray:
    """Exact Hamiltonian: hopping (identity on every spin factor) plus the
    contact interaction, through which the mobile spin exchanges with the
    static spin pinned at an outer site whenever it visits that site (block
    diagonal in the site index).  Zero couplings give the hopping alone and
    ``eta = 0`` the interaction alone."""
    return _assemble(spec, "exact")


def build_effective_hamiltonian(spec: ModelSpec, variant: str) -> np.ndarray:
    """Strong-hopping effective Hamiltonian.

    ``two_site``: hopping plus a purely spin-side coupling of the mobile spin
    to the total static spin at half strength.  ``three_site_middle_start``:
    same structure at quarter strength (valid when the particle starts at the
    middle site).  ``three_site_projector``: full-strength collective coupling
    weighted by the normal-mode projector 1/4 (P+ + P-) + 1/2 P0 of the
    kinetic term.  The zero mode (1, 0, -1)/sqrt(2) and hence P0 are the same
    for every eta > 0, so the weight is built once per lattice.
    """
    if not _known(variant, EFFECTIVE_VARIANTS):
        raise ValueError(f"unknown variant {variant!r}; valid: {tuple(EFFECTIVE_VARIANTS)}")
    needed = EFFECTIVE_VARIANTS[variant]
    if spec.n_sites != needed:
        raise ValueError(f"variant {variant!r} requires n_sites = {needed}")
    if variant == "three_site_projector" and spec.eta <= 0.0:
        raise ValueError("three_site_projector requires eta > 0")
    return _assemble(spec, variant)


def static_pair_state(preset: str) -> np.ndarray:
    """State of the static pair for a named preset."""
    if not _known(preset, _STATIC_PRESETS):
        raise ValueError(
            f"unknown static-pair preset {preset!r}; valid: {sorted(_STATIC_PRESETS)}"
        )
    return _STATIC_PRESETS[preset].copy()


def encode_state(layout: BasisLayout, site: int, e_spin: str, static: str) -> np.ndarray:
    """Normalized product state |site⟩|e_spin⟩|static pair⟩.

    ``site`` is a site label (see :class:`BasisLayout`), ``e_spin`` is
    ``"up"``/``"down"`` and ``static`` one of ``up-up``, ``up-down``,
    ``down-up``, ``down-down``, ``psi-plus``, ``psi-minus``.
    """
    if not _known(e_spin, _E_SPINS):
        raise ValueError(f"unknown mobile-spin label {e_spin!r}; valid: up, down")
    offset = (layout.site_index(site) * 2 + _E_SPINS[e_spin]) * 4
    state = np.zeros(layout.dim, dtype=complex)
    state[offset : offset + 4] = static_pair_state(static)
    return state
