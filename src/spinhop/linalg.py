"""Dense complex linear algebra sized for Hilbert dimensions up to a few dozen:
the Hermitian check, the Hermitian eigensolver and the two-qubit partial
transpose, on ``complex128`` arrays.

:func:`hermitian_eigensystem` is the library's one eigensolver call (LAPACK's
``eigh``, through ``numpy.linalg``): it solves every S_z block of a run and
every stack of partial transposes of the static pair, whose callers keep the
eigenvalues alone.  Every eigensolve is checked first, so a run pays the check
once per S_z block it solves: one reduction for max|M|, which settles
finiteness too, and one for max|M - M^H|, matrix by matrix in a stack; an
empty matrix passes, as numpy's ``eigh`` takes it.  One constant,
:data:`_LARGEST_AS_GIVEN`, marks the float limit.  A matrix with a larger
max|M| is checked and solved as M * 2^-e, e the binary exponent of its
largest real or imaginary part, and its eigenvalues are scaled back by 2^e:
exact but for entries below 2^-1021 max|M|, with no modulus or difference
that overflows, and LAPACK never rescales by a factor that is not a power of
two.  The exponent e stays inside this module.
"""

from __future__ import annotations

import numpy as np

# Hermiticity acceptance: max|M - M^H| <= HERMITIAN_RTOL * max|M|
HERMITIAN_RTOL = 1e-12
# Largest max|M| checked and solved as given: below LAPACK's own rescaling
# point sqrt(1 / smlnum) ~ 1e146, where it scales by a factor that is not a
# power of two, and far below the moduli and differences that overflow.
_LARGEST_AS_GIVEN = 2.0**480


def assert_hermitian(m):
    """Raise ``ValueError`` with the max-asymmetry diagnostic if a matrix, or
    any matrix of a stack ``(..., n, n)``, is not Hermitian or has a NaN or
    infinite entry.  A matrix is checked as a stack of one, each matrix to
    its own scale; an empty one passes, and the first offender is reported.

    Returns the complex matrix it checked and e: ``(m, None)`` when every
    matrix is at most :data:`_LARGEST_AS_GIVEN`, else each matrix M times
    2^-e with e, one per matrix, the binary exponent of its largest real or
    imaginary part (0 for a matrix at most the constant).
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    scale = np.maximum.reduce(np.abs(m), axis=(-2, -1), initial=0.0)  # NaN and inf survive the max
    e = None
    if not np.maximum.reduce(scale, axis=None, initial=0.0) <= _LARGEST_AS_GIVEN:
        if not np.isfinite(m).all():
            raise ValueError("matrix has NaN or infinite entries")
        parts = np.ascontiguousarray(m).view(float)  # real and imaginary, each scaled exactly
        exponent = np.frexp(np.maximum.reduce(np.abs(parts), axis=(-2, -1), initial=0.0))[1]
        e = np.where(scale > _LARGEST_AS_GIVEN, exponent, 0)
        m = np.ldexp(parts, -e[..., None, None]).view(complex)
        scale = np.maximum.reduce(np.abs(m), axis=(-2, -1), initial=0.0)
    defect = np.maximum.reduce(np.abs(m - m.swapaxes(-1, -2).conj()), axis=(-2, -1), initial=0.0)
    bad = defect > HERMITIAN_RTOL * np.maximum(scale, 1e-300)
    if np.count_nonzero(bad):
        k = np.unravel_index(np.argmax(bad), bad.shape)  # the first offender
        where = f" at stack index {tuple(int(i) for i in k)}" if k else ""
        defect, scale = defect[k], scale[k]
        if e is not None:  # back to the matrix as given; past the float range reads inf
            with np.errstate(over="ignore"):
                defect, scale = np.ldexp([defect, scale], e[k])
        raise ValueError(
            f"matrix{where} is not Hermitian: max|M - M^H| = {float(defect):.3e} exceeds "
            f"{HERMITIAN_RTOL:.1e} * max|M| = {HERMITIAN_RTOL * float(scale):.3e}"
        )
    return m, e


def hermitian_eigensystem(m):
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack
    ``(..., n, n)``, checked first by :func:`assert_hermitian`: numpy's
    ``eigh`` result, which unpacks as ``(w, v)`` and names them
    ``eigenvalues`` (ascending) and ``eigenvectors`` (unitary; column k
    belongs to eigenvalue k), with the stack axes leading both.

    Degenerate eigenvalues come with an arbitrary orthonormal basis of the
    eigenspace; callers must not rely on any particular choice.  A matrix
    past :data:`_LARGEST_AS_GIVEN` is solved as the check scaled it, and its
    eigenvalues are scaled back here, so for M and M * 2^k both past it the
    eigenvalues differ by 2^k, bit for bit; its eigenvectors are those of the
    scaled matrix.  This is the only eigensolver call in the library, so a
    caller that needs the eigenvalues alone takes ``.eigenvalues``.
    """
    m, e = assert_hermitian(m)
    result = np.linalg.eigh(m)
    if e is not None:
        with np.errstate(over="ignore"):  # an eigenvalue past the float range reads inf, as eigh's
            np.ldexp(result.eigenvalues, e[..., None], out=result.eigenvalues)
    return result


def partial_transpose(rho) -> np.ndarray:
    """Partial transpose over the first qubit of a two-qubit operator, or of
    each operator of a stack ``(..., 4, 4)``."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 operator or a stack of them, got shape {rho.shape}")
    work = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    return np.swapaxes(work, -4, -2).reshape(rho.shape)
