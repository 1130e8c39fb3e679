"""Dense complex linear algebra sized for Hilbert dimensions up to a few dozen.

Matrices and state vectors are plain ``complex128`` numpy arrays.  The module
holds the Hermitian check, the Hermitian eigensolver (LAPACK's ``eigh``,
through ``numpy.linalg``), the two-qubit partial transpose and the trace
norm of a Hermitian matrix (eigenvalues only).
"""

from __future__ import annotations

import math

import numpy as np

# Hermiticity acceptance: max|M - M^H| <= HERMITIAN_RTOL * max|M|
HERMITIAN_RTOL = 1e-12


def assert_hermitian(m):
    """Raise ``ValueError`` with the max-asymmetry diagnostic if a matrix, or
    any matrix of a stack ``(..., n, n)``, is not Hermitian or has a NaN or
    infinite entry.  Each matrix is held to its own scale."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    # NaN and inf survive abs and max, so a finite scale means finite entries;
    # a non-finite one may be a finite complex entry whose modulus overflows
    scale = np.maximum.reduce(np.abs(m), axis=(-2, -1))
    largest = np.maximum.reduce(scale, axis=None, initial=0.0)
    if not math.isfinite(largest) and not np.isfinite(m).all():
        raise ValueError("matrix has NaN or infinite entries")
    defect = np.maximum.reduce(np.abs(m - np.swapaxes(m, -1, -2).conj()), axis=(-2, -1))
    bad = defect > HERMITIAN_RTOL * np.maximum(scale, 1e-300)
    if bad.any():
        k = np.unravel_index(np.argmax(bad), bad.shape)  # the first offender
        where = f" at stack index {tuple(int(i) for i in k)}" if k else ""
        raise ValueError(
            f"matrix{where} is not Hermitian: max|M - M^H| = {defect[k]:.3e} "
            f"exceeds {HERMITIAN_RTOL:.1e} * max|M| = {HERMITIAN_RTOL * scale[k]:.3e}"
        )


def hermitian_eigensystem(m, *, check: bool = True):
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack
    ``(..., n, n)``: numpy's ``eigh`` result, which unpacks as ``(w, v)`` and
    names them ``eigenvalues`` (ascending) and ``eigenvectors`` (unitary;
    column k belongs to eigenvalue k), with the stack axes leading both.

    ``check=False`` skips :func:`assert_hermitian`, for a diagonal block of a
    matrix the caller has already checked whole.  Degenerate eigenvalues come
    with an arbitrary orthonormal basis of the eigenspace; callers must not
    rely on any particular choice.
    """
    m = np.asarray(m, dtype=complex)
    if check:
        assert_hermitian(m)
    return np.linalg.eigh(m)


def partial_transpose(rho) -> np.ndarray:
    """Partial transpose over the first qubit of a two-qubit operator, or of
    each operator of a stack ``(..., 4, 4)``."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 operator or a stack of them, got shape {rho.shape}")
    work = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    return np.swapaxes(work, -4, -2).reshape(rho.shape)


def trace_norm_hermitian(m):
    """Sum of the absolute eigenvalues of a Hermitian matrix, one per matrix
    of a stack.  Only the eigenvalues are computed."""
    m = np.asarray(m, dtype=complex)
    assert_hermitian(m)
    return np.abs(np.linalg.eigvalsh(m)).sum(axis=-1)
