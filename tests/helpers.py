"""Shared test utilities and independent oracles.

Oracles deliberately avoid the library's own code paths: eigenvalue checks
go through LAPACK (numpy.linalg), matrix exponentials through an explicit
power series, reduced density matrices through brute-force index loops.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from spinhop.model import _STATIC_PRESETS, HAMILTONIAN_KINDS, BasisLayout, ModelSpec, encode_state

BELL_PLUS = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
BELL_MINUS = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def encode(layout, site, e_spin, s1, s2):
    """Composite index ((site*2 + e)*2 + s1)*2 + s2 of a basis state of
    ``layout``, spins encoded up -> 0, down -> 1."""
    return ((site * 2 + e_spin) * 2 + s1) * 2 + s2


def decode(layout, index):
    """(site, e_spin, s1, s2) of a composite index of ``layout``."""
    index, s2 = divmod(index, 2)
    index, s1 = divmod(index, 2)
    site, e_spin = divmod(index, 2)
    return site, e_spin, s1, s2


def sz_of_basis(layout):
    """Total S_z of each basis state of ``layout``, from its decoded spins."""
    return np.array([sum(0.5 - s for s in decode(layout, i)[1:]) for i in range(layout.dim)])


# the run matrix: a preset's or a custom coupling (j_xy, j_z), each lattice
# with each kind, and every labelled start
COUPLINGS = {"xy": (1.0, 0.0), "heisenberg": (0.5, 1.0), "custom": (0.7, -0.3)}
LATTICE_KINDS = [(n_sites, kind) for n_sites in (2, 3) for kind in HAMILTONIAN_KINDS]


def coupling_specs(n_sites, coupling, kind, ratios):
    """One spec of ``COUPLINGS[coupling]`` per eta/J of ``ratios``, J the
    Ising coupling or else the XY one, and eta = 0 for the exact kind."""
    j_xy, j_z = COUPLINGS[coupling]
    j = abs(j_z if j_z != 0.0 else j_xy)
    etas = [ratio * j for ratio in ratios] + ([0.0] if kind == "exact" else [])
    return [ModelSpec(n_sites=n_sites, eta=eta, j_xy=j_xy, j_z=j_z) for eta in etas]


def labelled_starts(n_sites):
    """All 12 start labels, the mobile spin up or down with each static
    preset, at every site: site by site, in ``site_labels`` order."""
    layout = BasisLayout(n_sites)
    return [
        encode_state(layout, site, e_spin, static)
        for site in layout.site_labels()
        for e_spin in ("up", "down")
        for static in _STATIC_PRESETS
    ]


def sector_evolution(layout, h, psi, times):
    """exp(-i H t) psi for every t, one ``(T, D)`` row each, of an H that
    conserves total S_z: one ``numpy.linalg.eigh`` per S_z sector that
    ``psi`` occupies, with the sectors read off the decoded basis states;
    every other sector stays zero."""
    sz = sz_of_basis(layout)
    psi = np.asarray(psi, dtype=complex)
    times = np.asarray(times, dtype=float).reshape(-1, 1)
    states = np.zeros((len(times), layout.dim), dtype=complex)
    for value in np.unique(sz):
        idx = np.flatnonzero(sz == value)
        if psi[idx].any():
            w, v = np.linalg.eigh(np.asarray(h, dtype=complex)[np.ix_(idx, idx)])
            states[:, idx] = (np.exp(-1j * (times * w)) * (v.conj().T @ psi[idx])) @ v.T
    return states


def two_sector_start(layout):
    """|up>(|uu> + |ud>)/sqrt(2) at the left site: total S_z 3/2 and 1/2."""
    psi = np.zeros(layout.dim, dtype=complex)
    psi[[encode(layout, 0, 0, 0, 0), encode(layout, 0, 0, 0, 1)]] = 1.0 / np.sqrt(2.0)
    return psi


def series(trajectory, name):
    """One field of a Trajectory as a float array."""
    return np.asarray(getattr(trajectory, name), dtype=float)


def random_hermitian(rng, n, scale=1.0):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (m + m.conj().T)


def random_state(rng, n):
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return psi / np.linalg.norm(psi)


def random_density_matrix(rng, n, rank=None):
    rank = rank or n
    a = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def expm_series(h, t, terms=80):
    """exp(-i h t) by direct power series (oracle for unitary propagation)."""
    h = np.asarray(h, dtype=complex)
    acc = np.eye(h.shape[0], dtype=complex)
    term = np.eye(h.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ ((-1j * t) * h) / k
        acc = acc + term
        if np.abs(term).max() < 1e-18:
            break
    return acc


def partial_trace_oracle_keep_last_two(rho, dims):
    """Brute-force quadruple-loop reduction onto the last two of four factors."""
    d0, d1, d2, d3 = dims
    out = np.zeros((d2 * d3, d2 * d3), dtype=complex)
    for s1 in range(d2):
        for s2 in range(d3):
            for t1 in range(d2):
                for t2 in range(d3):
                    acc = 0.0 + 0.0j
                    for x in range(d0):
                        for sig in range(d1):
                            i = ((x * d1 + sig) * d2 + s1) * d3 + s2
                            j = ((x * d1 + sig) * d2 + t1) * d3 + t2
                            acc += rho[i, j]
                    out[s1 * d3 + s2, t1 * d3 + t2] = acc
    return out


def log_negativity_oracle(rho12):
    """Base-2 log-negativity of a two-qubit operator from the eigenvalues of
    its partial transpose over the first qubit, clamped at zero."""
    pt = np.asarray(rho12).reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
    return max(0.0, float(np.log2(np.abs(np.linalg.eigvalsh(pt)).sum())))


def static_pair_stack(states, n_sites):
    """Reduced states of the static pair, one per row of ``states``, by an
    explicit sum over the site and mobile-spin index."""
    split = np.asarray(states).reshape(len(states), 2 * n_sites, 4)
    return np.einsum("tka,tkb->tab", split, split.conj())


def collective_spin_oracle(n_sites):
    """Total S_z and the squared total static spin (S_1 + S_2)^2 on the full
    space, by explicit Kronecker products of the spin-1/2 matrices (site ⊗
    mobile ⊗ static 1 ⊗ static 2)."""
    i2 = np.eye(2)
    spin = [np.array(m) / 2 for m in ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])]

    def on(e=i2, s1=i2, s2=i2):
        return np.kron(np.eye(n_sites), np.kron(e, np.kron(s1, s2)))

    sz = spin[2]
    static_total = [on(s1=s) + on(s2=s) for s in spin]
    return on(e=sz) + on(s1=sz) + on(s2=sz), sum(s @ s for s in static_total)


def hamiltonian_oracle(spec, kind="exact"):
    """Whole Hamiltonian of one kind for the numbers of ``spec``, by explicit
    Kronecker products, written out from the operator definitions (site ⊗
    mobile ⊗ static 1 ⊗ static 2), with static spin 1 at the left and static
    spin 2 at the right site."""
    n_sites, eta, j_xy, j_z = spec.n_sites, spec.eta, spec.j_xy, spec.j_z
    i2 = np.eye(2)
    sp = np.array([[0.0, 1.0], [0.0, 0.0]])
    sm = sp.T
    sz = np.diag([0.5, -0.5])

    def coupling(k):
        # j_xy (s+ S_k- + s- S_k+) + j_z s_z S_k^z, the mobile spin with static spin k
        def on(e, s):
            return np.kron(e, np.kron(s, i2) if k == 1 else np.kron(i2, s))

        return j_xy * (on(sp, sm) + on(sm, sp)) + j_z * on(sz, sz)

    amp = eta if n_sites == 2 else eta / np.sqrt(2.0)
    motion = np.zeros((n_sites, n_sites))
    for x in range(n_sites - 1):
        motion[x, x + 1] = motion[x + 1, x] = amp
    h = np.kron(motion, np.eye(8)).astype(complex)
    if kind == "exact":
        for site, k in ((0, 1), (n_sites - 1, 2)):
            at_site = np.zeros((n_sites, n_sites))
            at_site[site, site] = 1.0
            h = h + np.kron(at_site, coupling(k))
        return h
    # onto the zero mode (|left> - |right>)/sqrt(2), every entry written exactly
    p0 = np.array([[1.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 1.0]]) / 2.0
    weight = {
        ("effective", 2): 0.5 * np.eye(2),
        ("effective", 3): 0.25 * (np.eye(3) - p0) + 0.5 * p0,
    }[kind, n_sites]
    return h + np.kron(weight, coupling(1) + coupling(2))


# lattice -> band (eta_b / eta) -> kinetic mode of the hopping, on the sites
# left to right
KINETIC_MODES = {
    2: {1: np.array([1.0, 1.0]) / np.sqrt(2.0), -1: np.array([1.0, -1.0]) / np.sqrt(2.0)},
    3: {
        1: np.array([1.0, np.sqrt(2.0), 1.0]) / 2.0,
        -1: np.array([1.0, -np.sqrt(2.0), 1.0]) / 2.0,
        0: np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0),
    },
}


def mode_lift(n_sites, band):
    """(D, 8) isometry onto |mode b> ⊗ spin of the band at eta_b = band * eta."""
    return np.kron(KINETIC_MODES[n_sites][band], np.eye(8)).T


def second_order_shift(n_sites, eta, j_xy, j_z, band):
    """The second-order Schrieffer-Wolff term of the band at eta_b = band * eta
    on |mode b> ⊗ spin: the sum over the other bands b' of
    P_b V P_b' V P_b / (eta_b - eta_b'), V the contact coupling of
    :func:`hamiltonian_oracle`, an ``(8, 8)`` matrix in closed form."""
    contact = hamiltonian_oracle(ModelSpec(n_sites, 0.0, j_xy, j_z))
    lift = mode_lift(n_sites, band)
    return sum(
        lift.T @ contact @ mode_lift(n_sites, other) @ mode_lift(n_sites, other).T
        @ contact @ lift / ((band - other) * eta)
        for other in KINETIC_MODES[n_sites]
        if other != band
    )


# spin parts (mobile ⊗ static 1 ⊗ static 2) of |up>|down down> and |down>|psi+>
_DOUBLET_SPIN = np.stack([np.kron([1, 0], [0, 0, 0, 1]), np.kron([0, 1], BELL_PLUS)])


def doublet_populations(states, n_sites):
    """``(T, 2)`` populations of |up>|down down> and |down>|psi+>, each summed
    over the sites, of a ``(T, D)`` stack of states."""
    amplitudes = np.asarray(states).reshape(len(states), n_sites, 8) @ _DOUBLET_SPIN.conj().T
    return (np.abs(amplitudes) ** 2).sum(axis=1)


_COUPLING = st.one_of(
    st.sampled_from([1.0, -1.0, 0.0, 5e-324, 1e-300, 1e290, -1e290]), st.floats(-10.0, 10.0)
)


@st.composite
def simulate_configs(draw):
    """A simulate config over presets and custom couplings, both lattices,
    every kind, all starts, eta/J in [0, 1e10] and t_max up to 1e10."""
    n_sites = draw(st.sampled_from([2, 3]))
    preset = draw(st.sampled_from(["xy", "heisenberg", "custom"]))
    if preset == "custom":
        model = {"j_xy": draw(_COUPLING), "j_z": draw(_COUPLING)}
        j = model["j_z"] if model["j_z"] != 0.0 else model["j_xy"]
    else:
        model = {"j": draw(_COUPLING)}
        j = model["j"]
    ratio = draw(st.one_of(st.sampled_from([0.0, 1e10]), st.floats(-3.0, 10.0).map(lambda e: 10**e)))
    model.update(n_sites=n_sites, preset=preset, eta=ratio * abs(j))
    initial = {
        "site": draw(st.sampled_from(BasisLayout(n_sites).site_labels())),
        "e_spin": draw(st.sampled_from(["up", "down"])),
        "static": draw(st.sampled_from(list(_STATIC_PRESETS))),
    }
    run = {
        "hamiltonian": draw(st.sampled_from(HAMILTONIAN_KINDS)),
        "t_max": draw(st.one_of(st.sampled_from([30.0, 1e10]), st.floats(1e-3, 1e10))),
        "n_points": draw(st.integers(2, 11)),
    }
    return {"model": model, "initial": initial, "run": run}
