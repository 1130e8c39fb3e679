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
    the operator definitions (site ⊗ mobile ⊗ static 1 ⊗ static 2)."""
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
        "two_site": 0.5 * np.eye(2),
        "three_site_middle_start": 0.25 * np.eye(3),
        "three_site_projector": 0.25 * (np.eye(3) - p0) + 0.5 * p0,
    }[kind]
    return h + np.kron(weight, coupling(1) + coupling(2))
