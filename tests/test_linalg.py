"""Linear-algebra core: the Hermitian check, the eigensolver and the
two-qubit partial transpose, each on a matrix and on a stack.

Propagation is checked in ``test_dynamics.TestEvolveOnGrid``, the
log-negativity in ``test_analysis.TestLogNegativity`` and the refusals
here in ``test_library_contract``."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinhop import model
from spinhop.dynamics import evolve_on_grid
from spinhop.linalg import (
    assert_hermitian,
    hermitian_eigensystem,
    partial_transpose,
)
from spinhop.model import BasisLayout, ModelSpec, encode_state

from helpers import (
    BELL_PLUS,
    random_density_matrix,
    random_hermitian,
)
from test_library_contract import collected


class TestHermitianEigensystem:
    test_rejects_non_hermitian_with_diagnostic = collected("not-hermitian")
    test_rejects_non_finite_entries = collected("eigensystem-non-finite")

    def test_zero_matrix(self):
        eig = hermitian_eigensystem(np.zeros((5, 5)))
        assert np.all(eig.eigenvalues == 0.0)
        assert np.allclose(eig.eigenvectors, np.eye(5))

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0), (0, 2, 2)])
    def test_empty_matrices(self, shape):
        # numpy's eigh takes them, so the check in front of it must too
        assert_hermitian(np.zeros(shape))
        w, v = hermitian_eigensystem(np.zeros(shape))
        assert w.shape == shape[:-1] and v.shape == shape
        states = evolve_on_grid(np.zeros((0, 0)), np.zeros(0), [0.0, 1.0])
        assert states.shape == (2, 0)

    @pytest.mark.parametrize("n", [2, 5, 16, 24])
    def test_eigenvalues_match_lapack(self, n):
        m = random_hermitian(np.random.default_rng(3 + n), n)
        assert np.allclose(hermitian_eigensystem(m).eigenvalues, np.linalg.eigvalsh(m), atol=1e-11)

    def test_blocks_lapack_gives_up_on_are_solved_scaled(self):
        # LAPACK's complex eigh does not converge on this three-site block at
        # j_xy = 1e290; in a stack each matrix is scaled by its own power of
        # two, so the block times 2^-600 gives the same solve, scaled exactly
        spec = ModelSpec(3, 1e10, 1e290, 1.0)
        start = encode_state(BasisLayout(3), 1, "up", "up-down")
        ((_, _, block),) = model._sector_blocks(spec, "exact", start)
        small = random_hermitian(np.random.default_rng(9), 9)
        stack = np.stack([block, block * 2.0**-600, small])
        w, v = hermitian_eigensystem(stack)
        for m, wk, vk in zip(stack, w, v):
            assert np.abs(m @ vk - vk * wk).max() <= 1e-14 * np.abs(m).max()
            assert np.abs(vk.conj().T @ vk - np.eye(9)).max() <= 1e-14
        assert np.array_equal(w[1], w[0] * 2.0**-600) and np.array_equal(v[1], v[0])
        assert np.allclose(w[2], np.linalg.eigvalsh(small), atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=1, max_value=24), seed=st.integers(0, 2**31))
    def test_reconstruction_unitarity_and_residual(self, n, seed):
        m = random_hermitian(np.random.default_rng(seed), n)
        eig = hermitian_eigensystem(m)
        scale = np.abs(m).max()
        recon = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.conj().T
        assert np.abs(recon - m).max() <= 1e-9 * scale
        gram = eig.eigenvectors.conj().T @ eig.eigenvectors
        assert np.abs(gram - np.eye(n)).max() <= 1e-10
        h_norm = float(np.sqrt((np.abs(m) ** 2).sum()))
        residual = m @ eig.eigenvectors - eig.eigenvectors * eig.eigenvalues
        assert np.abs(residual).max() <= 1e-10 * h_norm
        assert np.all(np.diff(eig.eigenvalues) >= 0.0)


class TestPartialTranspose:
    def test_diagonal_unchanged(self):
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        assert np.array_equal(partial_transpose(rho), rho)

    def test_bell_state_eigenvalues(self):
        rho = np.outer(BELL_PLUS, BELL_PLUS.conj())
        pt = partial_transpose(rho)
        evals = np.sort(np.linalg.eigvalsh(pt))  # independent eigensolve oracle
        assert np.allclose(evals, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(31)
        rho = random_density_matrix(rng, 4)
        assert np.array_equal(partial_transpose(partial_transpose(rho)), rho)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(32)
        rho = random_density_matrix(rng, 4)
        pt = partial_transpose(rho)
        assert abs(np.trace(pt) - np.trace(rho)) < 1e-14
        assert np.abs(pt - pt.conj().T).max() < 1e-14

    test_rejects_anything_but_4x4_operators = collected("partial-transpose")


test_every_eigenvalue_comes_from_the_one_eigensolver_call = collected("no-values-only-solve")


class TestStacks:
    """Every matrix of a stack (..., n, n) gets what it would get alone."""

    def test_eigensystem_of_a_stack(self):
        rng = np.random.default_rng(50)
        stack = np.array([random_hermitian(rng, 4) for _ in range(5)])
        eig = hermitian_eigensystem(stack)
        assert eig.eigenvalues.shape == (5, 4) and eig.eigenvectors.shape == (5, 4, 4)
        for k in range(len(stack)):
            assert np.allclose(eig.eigenvalues[k], np.linalg.eigvalsh(stack[k]), atol=1e-12)

    def test_partial_transpose_of_a_stack(self):
        rng = np.random.default_rng(51)
        stack = np.array([random_density_matrix(rng, 4) for _ in range(5)])
        pts = partial_transpose(stack)
        assert pts.shape == stack.shape
        # over the first qubit: <a b|rho^T_A|c d> = <c b|rho|a d>
        transposed = stack.reshape(5, 2, 2, 2, 2).transpose(0, 3, 2, 1, 4).reshape(stack.shape)
        assert np.array_equal(pts, transposed)
        for k in range(len(stack)):
            assert np.array_equal(pts[k], partial_transpose(stack[k]))

    test_assert_hermitian_flags_the_one_bad_matrix = collected("one-bad-matrix")
    test_assert_hermitian_reports_any_non_finite_entry = collected("non-finite-entry")

    @pytest.mark.parametrize(
        "entry,mirror",
        [
            (0.5j, -0.5j),  # Hermitian, checked as given
            (np.nan, np.nan),
            (np.inf, np.inf),
            (complex(1.5e308, 1.5e308), complex(1.5e308, -1.5e308)),  # |entry| overflows
            (complex(1e308, 1e308), complex(1e308, 1e308)),  # M - M^H overflows
            (1.0, 0.5),  # asymmetric
        ],
        ids=["as-given", "nan", "inf", "overflowing-modulus", "overflowing-defect", "asymmetric"],
    )
    def test_assert_hermitian_of_a_matrix_and_of_it_as_a_stack_agree(self, entry, mirror):
        m = np.eye(3, dtype=complex)
        m[0, 1], m[1, 0] = entry, mirror

        def outcome(a):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    return assert_hermitian(a)
                except ValueError as exc:
                    return str(exc).replace(" at stack index (0,)", "")

        single, stack = outcome(m), outcome(m[None])
        passes = entry in (0.5j, complex(1.5e308, 1.5e308))
        assert isinstance(single, tuple) == isinstance(stack, tuple) == passes
        if not passes:
            assert single == stack
            # M - M^H overflows at the diagonal entry; its parts, and |M|, are finite
            assert entry != complex(1e308, 1e308) or single.startswith(
                "matrix is not Hermitian: max|M - M^H| = inf"
            )
            third = outcome(np.array([np.eye(3), np.eye(3), m]))
            assert third == single.replace("matrix is", "matrix at stack index (2,) is")
            return
        (checked, e), (checked_stack, e_stack) = single, stack
        assert isinstance(outcome(np.array([np.eye(3), m])), tuple)  # next to a small matrix
        assert checked.shape == (3, 3) and checked_stack.shape == (1, 3, 3)
        assert checked.tobytes() == checked_stack[0].tobytes()
        if entry == 0.5j:
            assert e is None and e_stack is None
        else:  # scaled: one exponent per matrix, with no stack axis for a matrix
            assert e.shape == () and e_stack.shape == (1,) and e == e_stack[0] == 1024

    test_assert_hermitian_holds_each_matrix_to_its_own_scale = collected("own-scale")
    test_rejects_non_square_trailing_axes = collected("non-square")
