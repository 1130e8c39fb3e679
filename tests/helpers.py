"""Shared test utilities and independent oracles.

Oracles deliberately avoid the library's own code paths: eigenvalue checks
go through LAPACK (numpy.linalg), matrix exponentials through an explicit
power series, reduced density matrices through brute-force index loops.
"""

from __future__ import annotations

import numpy as np

BELL_PLUS = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
BELL_MINUS = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def encode(layout, site, e_spin, s1, s2):
    """Composite index ((site*2 + e)*2 + s1)*2 + s2 of a basis state of
    ``layout``, spins encoded up -> 0, down -> 1."""
    if not (0 <= site < layout.n_sites):
        raise ValueError(f"site index {site} out of range")
    if any(s not in (0, 1) for s in (e_spin, s1, s2)):
        raise ValueError("spins must be encoded as 0 (up) or 1 (down)")
    return ((site * 2 + e_spin) * 2 + s1) * 2 + s2


def decode(layout, index):
    """(site, e_spin, s1, s2) of a composite index of ``layout``."""
    if not (0 <= index < layout.dim):
        raise ValueError(f"index {index} out of range for dim {layout.dim}")
    index, s2 = divmod(index, 2)
    index, s1 = divmod(index, 2)
    site, e_spin = divmod(index, 2)
    return site, e_spin, s1, s2


def sz_of_basis(layout):
    """Total S_z of each basis state of ``layout``, from its decoded spins."""
    return np.array([sum(0.5 - s for s in decode(layout, i)[1:]) for i in range(layout.dim)])


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


def hamiltonian_oracle(n_sites, eta, j_xy, j_z, attachments, kind):
    """Hamiltonian of one kind by explicit Kronecker products, written out from
    the operator definitions (site ⊗ mobile ⊗ static 1 ⊗ static 2), with
    static spin k at site s for each item s: k of ``attachments``."""
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
        for site, k in attachments.items():
            at_site = np.zeros((n_sites, n_sites))
            at_site[site, site] = 1.0
            h = h + np.kron(at_site, coupling(k))
        return h
    zero_mode = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
    p0 = np.outer(zero_mode, zero_mode)
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
    :func:`hamiltonian_oracle` with spin 1 at the left and spin 2 at the
    right site, an ``(8, 8)`` matrix in closed form."""
    contact = hamiltonian_oracle(n_sites, 0.0, j_xy, j_z, {0: 1, n_sites - 1: 2}, "exact")
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
