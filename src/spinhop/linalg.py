"""Dense complex linear algebra sized for Hilbert dimensions up to a few dozen.

Matrices and state vectors are plain ``complex128`` numpy arrays.  The module
holds the Hermitian check, the Hermitian eigensolver (LAPACK's ``eigh``,
through ``numpy.linalg``), the two-qubit partial transpose and the trace
norm of a Hermitian matrix (eigenvalues only).

Every eigensolve is checked first, so a run of ``dynamics`` pays the
Hermitian check once per S_z block it solves: a single matrix takes one
reduction for its scale max|M|, which settles its finiteness too, and one
for its defect max|M - M^H|.  A stack is reduced matrix by matrix.  Near
the float limit, where a modulus or a difference may overflow, the check
reads M / 4 instead, so it warns of nothing; an empty matrix passes, as
numpy's ``eigh`` takes it.
"""

from __future__ import annotations

import numpy as np

# Hermiticity acceptance: max|M - M^H| <= HERMITIAN_RTOL * max|M|
HERMITIAN_RTOL = 1e-12
# Largest max|M| checked as given.  Above it a finite complex entry's modulus,
# or an entry of M - M^H, may overflow, so M / 4 is checked instead: exact,
# and every modulus and difference of M / 4 is finite.
_NEAR_OVERFLOW = 1e307


def _scale_and_defect(m, axes):
    """``max|M|``, ``max|M - M^H|`` over ``axes`` and the factor that they
    were divided by; ``ValueError`` if ``m`` has a NaN or infinite entry."""
    scale = np.maximum.reduce(np.abs(m), axis=axes, initial=0.0)
    largest = scale if axes is None else np.maximum.reduce(scale, axis=None, initial=0.0)
    factor = 1.0
    if not largest <= _NEAR_OVERFLOW:  # NaN and inf survive abs and max
        if not np.isfinite(m).all():
            raise ValueError("matrix has NaN or infinite entries")
        factor = 4.0
        m = m / factor
        scale = np.maximum.reduce(np.abs(m), axis=axes, initial=0.0)
    defect = np.maximum.reduce(np.abs(m - m.swapaxes(-1, -2).conj()), axis=axes, initial=0.0)
    return scale, defect, factor


def _not_hermitian(where, defect, scale, factor):
    # Python floats, so a product past the float range reads inf without a warning
    defect, scale = float(defect) * factor, float(scale) * factor
    return ValueError(
        f"matrix{where} is not Hermitian: max|M - M^H| = {defect:.3e} "
        f"exceeds {HERMITIAN_RTOL:.1e} * max|M| = {HERMITIAN_RTOL * scale:.3e}"
    )


def assert_hermitian(m):
    """Raise ``ValueError`` with the max-asymmetry diagnostic if a matrix, or
    any matrix of a stack ``(..., n, n)``, is not Hermitian or has a NaN or
    infinite entry.  Each matrix is held to its own scale; an empty one
    passes, and of a stack the first offender is reported."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if m.ndim == 2:
        scale, defect, factor = _scale_and_defect(m, None)
        if defect > HERMITIAN_RTOL * max(scale, 1e-300):
            raise _not_hermitian("", defect, scale, factor)
        return
    scale, defect, factor = _scale_and_defect(m, (-2, -1))
    bad = defect > HERMITIAN_RTOL * np.maximum(scale, 1e-300)
    if bad.any():
        k = np.unravel_index(np.argmax(bad), bad.shape)  # the first offender
        where = f" at stack index {tuple(int(i) for i in k)}"
        raise _not_hermitian(where, defect[k], scale[k], factor)


def hermitian_eigensystem(m):
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack
    ``(..., n, n)``, checked first by :func:`assert_hermitian`: numpy's
    ``eigh`` result, which unpacks as ``(w, v)`` and names them
    ``eigenvalues`` (ascending) and ``eigenvectors`` (unitary; column k
    belongs to eigenvalue k), with the stack axes leading both.

    Degenerate eigenvalues come with an arbitrary orthonormal basis of the
    eigenspace; callers must not rely on any particular choice.

    Near the float limit LAPACK's complex ``eigh`` may not converge; then
    each matrix is solved as M * 2^-e, e the binary exponent of its max|M|,
    and its eigenvalues are scaled back by 2^e, exact but for entries below
    2^-1021 max|M|.
    """
    m = np.asarray(m, dtype=complex)
    assert_hermitian(m)
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError:
        e = np.frexp(np.max(np.abs(m), axis=(-2, -1), initial=0.0))[1][..., None]
    parts = np.ascontiguousarray(m).view(float)  # real and imaginary, each scaled exactly
    result = np.linalg.eigh(np.ldexp(parts, -e[..., None]).view(complex))
    with np.errstate(over="ignore"):  # an eigenvalue past the float range reads inf, as eigh's
        np.ldexp(result.eigenvalues, e, out=result.eigenvalues)
    return result


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
