"""Dense complex linear algebra sized for Hilbert dimensions up to a few dozen.

Matrices and state vectors are plain ``complex128`` numpy arrays.  The
Hermitian eigensolver is LAPACK's ``eigh`` (through ``numpy.linalg``).
Unitary propagation runs through the spectral decomposition, never through
a series expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Hermiticity acceptance: max|M - M^H| <= HERMITIAN_RTOL * max|M|
HERMITIAN_RTOL = 1e-12


@dataclass(frozen=True)
class Eigensystem:
    """Spectral decomposition H = V diag(w) V^H with eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # unitary; column k belongs to eigenvalues[k]

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


def hermiticity_defect(m) -> float:
    """Largest entry of ``|M - M^H|``."""
    m = np.asarray(m)
    return float(np.abs(m - m.conj().T).max())


def assert_hermitian(m, rtol: float = HERMITIAN_RTOL):
    """Raise ``ValueError`` with the max-asymmetry diagnostic if not Hermitian,
    or if any entry is NaN or infinite."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has NaN or infinite entries")
    defect = hermiticity_defect(m)
    scale = float(np.abs(m).max())
    if defect > rtol * max(scale, 1e-300):
        raise ValueError(
            f"matrix is not Hermitian: max|M - M^H| = {defect:.3e} "
            f"exceeds {rtol:.1e} * max|M| = {rtol * scale:.3e}"
        )


def kron(a, b) -> np.ndarray:
    """Kronecker product of two operators (dimensions multiply)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("kron expects two matrices")
    return np.kron(a, b)


def hermitian_eigensystem(m) -> Eigensystem:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Degenerate eigenvalues come with an arbitrary orthonormal basis of the
    eigenspace; callers must not rely on any particular choice.
    """
    m = np.asarray(m, dtype=complex)
    assert_hermitian(m)
    w, v = np.linalg.eigh(m)
    return Eigensystem(w, v)


def propagate(state, eig: Eigensystem, t: float) -> np.ndarray:
    """Evolve ``state`` by ``exp(-i H t)`` using the eigendecomposition of H."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (eig.dim,):
        raise ValueError(
            f"state has shape {state.shape}, eigensystem dimension is {eig.dim}"
        )
    phases = np.exp(-1j * eig.eigenvalues * float(t))
    return eig.eigenvectors @ (phases * (eig.eigenvectors.conj().T @ state))


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Reduced operator after tracing out every subsystem not in ``keep``.

    ``dims`` lists the subsystem dimensions in tensor order; ``keep`` holds
    the indices of the subsystems to retain (their relative order is kept).
    """
    rho = np.asarray(rho, dtype=complex)
    dims = [int(d) for d in dims]
    total = math.prod(dims)
    if rho.shape != (total, total):
        raise ValueError(
            f"matrix shape {rho.shape} inconsistent with subsystem dims {dims}"
        )
    keep = sorted({int(k) for k in keep})
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} subsystems")
    work = rho.reshape(dims + dims)
    remaining = len(dims)
    # trace the highest axis first so the lower axis indices stay valid
    for i in reversed([i for i in range(len(dims)) if i not in keep]):
        work = np.trace(work, axis1=i, axis2=i + remaining)
        remaining -= 1
    d_keep = math.prod(dims[k] for k in keep)
    return work.reshape(d_keep, d_keep)


def partial_transpose(rho, dims, part) -> np.ndarray:
    """Partial transpose of a bipartite operator over subsystem ``"A"`` or ``"B"``."""
    rho = np.asarray(rho, dtype=complex)
    d_a, d_b = (int(d) for d in dims)
    if rho.shape != (d_a * d_b, d_a * d_b):
        raise ValueError(
            f"matrix shape {rho.shape} inconsistent with bipartite dims {(d_a, d_b)}"
        )
    work = rho.reshape(d_a, d_b, d_a, d_b)
    if part == "A":
        work = work.transpose(2, 1, 0, 3)
    elif part == "B":
        work = work.transpose(0, 3, 2, 1)
    else:
        raise ValueError(f"part must be 'A' or 'B', got {part!r}")
    return work.reshape(d_a * d_b, d_a * d_b)


def trace_norm_hermitian(m) -> float:
    """Sum of the absolute eigenvalues of a Hermitian matrix."""
    eig = hermitian_eigensystem(m)
    return float(np.abs(eig.eigenvalues).sum())
