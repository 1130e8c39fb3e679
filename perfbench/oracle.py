"""Independent numpy reference for ``param_scan`` outputs.

It shares no code with spinhop: the Hamiltonians are rebuilt from the
paper's definitions, the eigensolve is LAPACK (``numpy.linalg.eigh``) and
every observable is computed for the whole grid at once.  ``run.py`` uses it
to check seeds other than the one whose outputs are stored.
"""

from __future__ import annotations

import math

import numpy as np

import scan

_SP = np.array([[0.0, 1.0], [0.0, 0.0]])
_SM = _SP.T
_SZ = np.diag([0.5, -0.5])
_I2 = np.eye(2)
_PSI_PLUS = np.array([0, 1, 1, 0]) / math.sqrt(2.0)
_PSI_MINUS = np.array([0, 1, -1, 0]) / math.sqrt(2.0)
_S12_SQ = np.array([[2, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 2]], dtype=float)
_STATIC = {
    "up-up": np.array([1.0, 0, 0, 0]),
    "up-down": np.array([0, 1.0, 0, 0]),
    "down-up": np.array([0, 0, 1.0, 0]),
    "down-down": np.array([0, 0, 0, 1.0]),
    "psi-plus": _PSI_PLUS,
    "psi-minus": _PSI_MINUS,
}


def _spin3(e, s1, s2):
    return np.kron(e, np.kron(s1, s2))


def _pair(j_xy, j_z, k):
    """Mobile spin coupled to static spin ``k`` on the 8-dim spin space."""
    def op(a, b):
        return _spin3(a, b, _I2) if k == 1 else _spin3(a, _I2, b)

    return j_xy * (op(_SP, _SM) + op(_SM, _SP)) + j_z * op(_SZ, _SZ)


def hamiltonian(p) -> np.ndarray:
    n, eta = p["n_sites"], p["eta"]
    j_xy, j_z = (1.0, 0.0) if p["preset"] == "xy" else (0.5, 1.0)
    amp = eta if n == 2 else eta / math.sqrt(2.0)
    hop = np.diag([amp] * (n - 1), 1) + np.diag([amp] * (n - 1), -1)
    h = np.kron(hop, np.eye(8))
    v1, v2 = _pair(j_xy, j_z, 1), _pair(j_xy, j_z, 2)
    kind = p["kind"]
    if kind == "exact":
        left, right = np.zeros((n, n)), np.zeros((n, n))
        left[0, 0] = right[-1, -1] = 1.0
        return h + np.kron(left, v1) + np.kron(right, v2)
    if kind == "two_site":
        return h + np.kron(np.eye(2), 0.5 * (v1 + v2))
    if kind == "three_site_middle_start":
        return h + np.kron(np.eye(3), 0.25 * (v1 + v2))
    # projector form: 1/2 on the zero kinetic mode (1, 0, -1)/sqrt 2, 1/4 elsewhere
    phi0 = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)
    p0 = np.outer(phi0, phi0)
    return h + np.kron(0.25 * (np.eye(3) - p0) + 0.5 * p0, v1 + v2)


def initial_state(p) -> np.ndarray:
    n = p["n_sites"]
    site = np.zeros(n)
    site[(1, 2).index(p["site"]) if n == 2 else (1, 0, 2).index(p["site"])] = 1.0
    e = np.array([1.0, 0.0]) if p["e_spin"] == "up" else np.array([0.0, 1.0])
    return np.kron(site, np.kron(e, _STATIC[p["static"]]))


def outputs(p, times) -> np.ndarray:
    """The vector ``scan.flatten`` produces for this spec, computed here."""
    n = p["n_sites"]
    h = hamiltonian(p)
    w, v = np.linalg.eigh(h)
    psi = (np.exp(-1j * np.outer(times, w)) * (v.conj().T @ initial_state(p))) @ v.T
    amp = psi.reshape(len(times), n, 2, 4)
    prob = np.abs(amp) ** 2
    p_site = prob.sum(axis=(2, 3))
    rho12 = np.einsum("tsei,tsej->tij", amp, amp.conj())
    pt = rho12.reshape(-1, 2, 2, 2, 2).transpose(0, 3, 2, 1, 4).reshape(-1, 4, 4)
    trace_norm = np.abs(np.linalg.eigvalsh(pt)).sum(axis=1)
    spins = np.array([[0.5 * (1 - 2 * e) + 0.5 * (1 - 2 * a) + 0.5 * (1 - 2 * b)
                       for a in (0, 1) for b in (0, 1)] for e in (0, 1)])
    cols = [
        p_site[:, 0],
        p_site[:, 1] if n == 3 else np.zeros(len(times)),
        p_site[:, -1],
        prob[:, :, 0, :].sum(axis=(1, 2)),
        np.einsum("i,tij,j->t", _PSI_PLUS, rho12, _PSI_PLUS).real,
        np.einsum("i,tij,j->t", _PSI_MINUS, rho12, _PSI_MINUS).real,
        np.maximum(0.0, np.log2(trace_norm)),
        rho12[:, 2, 2].real,
        np.einsum("tsei,ei->t", prob, spins),
        np.einsum("tij,ji->t", rho12, _S12_SQ).real,
        np.linalg.norm(psi, axis=1),
        np.einsum("ti,ij,tj->t", psi.conj(), h, psi).real,
    ]
    rows = np.column_stack(cols)
    conserved = rows[:, [10, 11, 8, 9]]  # norm, energy, Sz, S12^2
    drifts = np.abs(conserved - conserved[0]).max(axis=0)
    return np.concatenate([rows.ravel(), drifts])


def reference(params) -> np.ndarray:
    times = np.linspace(0.0, scan.T_MAX, scan.N_POINTS)
    return np.stack([outputs(p, times) for p in params])
