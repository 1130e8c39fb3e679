"""Dense complex linear algebra sized for Hilbert dimensions up to a few dozen.

Matrices and state vectors are plain ``complex128`` numpy arrays.  The
Hermitian eigensolver is LAPACK's ``eigh`` (through ``numpy.linalg``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Hermiticity acceptance: max|M - M^H| <= HERMITIAN_RTOL * max|M|
HERMITIAN_RTOL = 1e-12


@dataclass(frozen=True)
class Eigensystem:
    """Spectral decomposition H = V diag(w) V^H with eigenvalues ascending.

    For a stack of matrices both arrays carry the same leading stack axes.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # unitary; column k belongs to eigenvalues[k]

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]


def hermiticity_defect(m) -> np.ndarray:
    """Largest entry of ``|M - M^H|``, one per matrix of a stack."""
    m = np.asarray(m)
    return np.abs(m - np.swapaxes(m, -1, -2).conj()).max(axis=(-2, -1))


def assert_hermitian(m, rtol: float = HERMITIAN_RTOL):
    """Raise ``ValueError`` with the max-asymmetry diagnostic if a matrix, or
    any matrix of a stack ``(..., n, n)``, is not Hermitian or has a NaN or
    infinite entry.  Each matrix is held to its own scale."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has NaN or infinite entries")
    defect = hermiticity_defect(m)
    scale = np.abs(m).max(axis=(-2, -1))
    bad = defect > rtol * np.maximum(scale, 1e-300)
    if bad.any():
        k = np.unravel_index(np.argmax(bad), bad.shape)  # the first offender
        where = f" at stack index {tuple(int(i) for i in k)}" if k else ""
        raise ValueError(
            f"matrix{where} is not Hermitian: max|M - M^H| = {defect[k]:.3e} "
            f"exceeds {rtol:.1e} * max|M| = {rtol * scale[k]:.3e}"
        )


def kron(a, b) -> np.ndarray:
    """Kronecker product of two operators (dimensions multiply)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("kron expects two matrices")
    return np.kron(a, b)


def hermitian_eigensystem(m, *, check: bool = True) -> Eigensystem:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack
    ``(..., n, n)``, eigenvalues ascending.

    ``check=False`` skips :func:`assert_hermitian`, for a diagonal block of a
    matrix the caller has already checked whole.  Degenerate eigenvalues come
    with an arbitrary orthonormal basis of the eigenspace; callers must not
    rely on any particular choice.
    """
    m = np.asarray(m, dtype=complex)
    if check:
        assert_hermitian(m)
    w, v = np.linalg.eigh(m)
    return Eigensystem(w, v)


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
    """Partial transpose of a bipartite operator, or of each operator of a
    stack ``(..., d, d)``, over subsystem ``"A"`` or ``"B"``."""
    rho = np.asarray(rho, dtype=complex)
    d_a, d_b = (int(d) for d in dims)
    d = d_a * d_b
    if rho.ndim < 2 or rho.shape[-2:] != (d, d):
        raise ValueError(
            f"matrix shape {rho.shape} inconsistent with bipartite dims {(d_a, d_b)}"
        )
    work = rho.reshape(rho.shape[:-2] + (d_a, d_b, d_a, d_b))
    if part == "A":
        work = np.swapaxes(work, -4, -2)
    elif part == "B":
        work = np.swapaxes(work, -3, -1)
    else:
        raise ValueError(f"part must be 'A' or 'B', got {part!r}")
    return work.reshape(rho.shape)


def trace_norm_hermitian(m):
    """Sum of the absolute eigenvalues of a Hermitian matrix, one per matrix
    of a stack.  Only the eigenvalues are computed."""
    m = np.asarray(m, dtype=complex)
    assert_hermitian(m)
    return np.abs(np.linalg.eigvalsh(m)).sum(axis=-1)
