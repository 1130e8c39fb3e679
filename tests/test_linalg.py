"""Linear-algebra core: Hermitian check, eigensolver, propagation, two-qubit
partial transpose and trace norm."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinhop.dynamics import evolve_on_grid
from spinhop.linalg import (
    assert_hermitian,
    hermitian_eigensystem,
    partial_transpose,
    trace_norm_hermitian,
)

from helpers import (
    BELL_PLUS,
    expm_series,
    random_density_matrix,
    random_hermitian,
    random_state,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestHermitianEigensystem:
    def test_sigma_x_spectrum(self):
        eig = hermitian_eigensystem(SIGMA_X)
        assert np.allclose(eig.eigenvalues, [-1.0, 1.0])

    def test_two_site_hopping_modes(self):
        hop = np.array([[0, 1], [1, 0]], dtype=complex)
        eig = hermitian_eigensystem(hop)
        assert np.allclose(eig.eigenvalues, [-1.0, 1.0])
        # eigenvectors are (|1> -+ |2>)/sqrt(2) up to phase
        minus = np.array([1, -1]) / np.sqrt(2)
        plus = np.array([1, 1]) / np.sqrt(2)
        assert abs(abs(minus @ eig.eigenvectors[:, 0]) - 1) < 1e-10
        assert abs(abs(plus @ eig.eigenvectors[:, 1]) - 1) < 1e-10

    def test_three_site_hopping_spectrum(self):
        a = 1.0 / np.sqrt(2)
        chain = np.array([[0, a, 0], [a, 0, a], [0, a, 0]], dtype=complex)
        eig = hermitian_eigensystem(chain)
        assert np.allclose(eig.eigenvalues, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_rejects_non_hermitian_with_diagnostic(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match=r"max\|M - M\^H\|"):
            hermitian_eigensystem(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        # inf - inf is NaN and NaN compares false, so the asymmetry test
        # alone would let these through
        m = np.eye(4, dtype=complex)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            hermitian_eigensystem(m)

    def test_zero_matrix(self):
        eig = hermitian_eigensystem(np.zeros((5, 5)))
        assert np.all(eig.eigenvalues == 0.0)
        assert np.allclose(eig.eigenvectors, np.eye(5))

    def test_eigenvalues_match_lapack(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 16, 24):
            m = random_hermitian(rng, n)
            eig = hermitian_eigensystem(m)
            assert np.allclose(eig.eigenvalues, np.linalg.eigvalsh(m), atol=1e-11)

    def test_degenerate_spectrum_reconstructs(self):
        hop = np.kron(SIGMA_X, np.eye(8))  # two eigenvalues, 8-fold degenerate
        eig = hermitian_eigensystem(hop)
        recon = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.conj().T
        assert np.abs(recon - hop).max() < 1e-12

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


class TestPropagate:
    """Spectral propagation, through the library's one path: evolve_on_grid."""

    def test_time_zero_is_identity(self):
        rng = np.random.default_rng(11)
        m = random_hermitian(rng, 6)
        psi = random_state(rng, 6)
        assert np.allclose(evolve_on_grid(m, psi, [0.0])[0], psi, atol=1e-12)

    def test_eigenstate_picks_up_phase(self):
        rng = np.random.default_rng(12)
        m = random_hermitian(rng, 5)
        w, v = np.linalg.eigh(m)
        k, t = 2, 0.77
        out = evolve_on_grid(m, v[:, k], [t])[0]
        assert np.allclose(out, np.exp(-1j * w[k] * t) * v[:, k], atol=1e-12)

    def test_two_site_rabi_oscillation(self):
        # free hopping from |x=1>: return probability cos^2(eta t)
        eta = 1.0
        hop = eta * np.array([[0, 1], [1, 0]], dtype=complex)
        start = np.array([1, 0], dtype=complex)
        times = [0.3, 1.0, 2.5]
        for t, psi in zip(times, evolve_on_grid(hop, start, times)):
            assert abs(abs(psi[0]) ** 2 - np.cos(eta * t) ** 2) < 1e-12
            # cross-check against the power series of exp(-iHt)
            assert np.allclose(psi, expm_series(hop, t) @ start, atol=1e-12)

    def test_series_oracle_on_random_hamiltonian(self):
        rng = np.random.default_rng(13)
        m = random_hermitian(rng, 8)
        psi = random_state(rng, 8)
        t = 0.9
        assert np.allclose(evolve_on_grid(m, psi, [t])[0], expm_series(m, t) @ psi, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31), t1=st.floats(-5, 5), t2=st.floats(-5, 5))
    def test_norm_preserved_and_composition(self, seed, t1, t2):
        rng = np.random.default_rng(seed)
        m = random_hermitian(rng, 7)
        psi = random_state(rng, 7)
        once = evolve_on_grid(m, psi, [t1])[0]
        assert abs(np.linalg.norm(once) - 1.0) <= 1e-10
        twice = evolve_on_grid(m, once, [t2])[0]
        assert np.abs(twice - evolve_on_grid(m, psi, [t1 + t2])[0]).max() <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            evolve_on_grid(np.eye(4), np.ones(3), [1.0])


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

    def test_bad_inputs(self):
        for bad in (np.eye(5), np.eye(6), np.ones(4)):
            with pytest.raises(ValueError, match="4x4"):
                partial_transpose(bad)


class TestTraceNormHermitian:
    def test_identity(self):
        assert trace_norm_hermitian(np.eye(4)) == pytest.approx(4.0, abs=1e-12)

    def test_density_matrices_have_unit_trace_norm(self):
        rng = np.random.default_rng(41)
        for n in (2, 4, 8):
            rho = random_density_matrix(rng, n)
            assert trace_norm_hermitian(rho) == pytest.approx(1.0, abs=1e-10)

    def test_partial_transpose_of_bell_state(self):
        rho = np.outer(BELL_PLUS, BELL_PLUS.conj())
        pt = partial_transpose(rho)
        assert trace_norm_hermitian(pt) == pytest.approx(2.0, abs=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            trace_norm_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            trace_norm_hermitian(np.diag([1.0, np.inf]))

    def test_computes_no_eigenvectors(self, monkeypatch):
        def no_vectors(*args, **kwargs):
            raise AssertionError("eigenvectors requested")

        monkeypatch.setattr(np.linalg, "eigh", no_vectors)
        rng = np.random.default_rng(42)
        stack = np.array([random_hermitian(rng, 4) for _ in range(3)])
        norms = trace_norm_hermitian(stack)
        for k in range(len(stack)):
            assert norms[k] == pytest.approx(np.abs(np.linalg.eigvalsh(stack[k])).sum(), abs=1e-12)


class TestStacks:
    """Every matrix of a stack (..., n, n) gets what it would get alone."""

    def test_eigensystem_of_a_stack(self):
        rng = np.random.default_rng(50)
        stack = np.array([random_hermitian(rng, 4) for _ in range(5)])
        eig = hermitian_eigensystem(stack)
        assert eig.eigenvalues.shape == (5, 4) and eig.eigenvectors.shape == (5, 4, 4)
        for k in range(len(stack)):
            assert np.allclose(eig.eigenvalues[k], np.linalg.eigvalsh(stack[k]), atol=1e-12)

    def test_partial_transpose_and_trace_norm_of_a_stack(self):
        rng = np.random.default_rng(51)
        stack = np.array([random_density_matrix(rng, 4) for _ in range(5)])
        pts = partial_transpose(stack)
        assert pts.shape == stack.shape
        norms = trace_norm_hermitian(pts)
        assert norms.shape == (len(stack),)
        for k in range(len(stack)):
            assert np.array_equal(pts[k], partial_transpose(stack[k]))
            assert norms[k] == pytest.approx(trace_norm_hermitian(pts[k]), abs=1e-14)

    def test_assert_hermitian_flags_the_one_bad_matrix(self):
        stack = np.array([np.eye(4, dtype=complex)] * 4)
        assert_hermitian(stack)
        stack[2, 0, 1] = 1.0
        with pytest.raises(ValueError, match=r"stack index \(2,\) is not Hermitian"):
            assert_hermitian(stack)

    @pytest.mark.parametrize(
        "bad",
        [complex(0.0, np.nan), np.inf, -np.inf, complex(np.inf, np.nan), complex(np.nan, 0.0)],
        ids=["nan-imag", "inf", "-inf", "inf-nan", "nan-real"],
    )
    def test_assert_hermitian_reports_any_non_finite_entry(self, bad):
        m = np.eye(3, dtype=complex)
        m[0, 1] = bad  # also not Hermitian: the non-finite message wins
        with pytest.raises(ValueError, match="NaN or infinite"):
            assert_hermitian(m)
        stack = np.array([np.eye(3, dtype=complex)] * 4)
        stack[2, 1, 1] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            assert_hermitian(stack)

    def test_assert_hermitian_accepts_finite_entries_whose_modulus_overflows(self):
        m = np.zeros((2, 2), dtype=complex)
        m[0, 1] = complex(1.5e308, 1.5e308)  # |m[0, 1]| is inf, its parts are finite
        m[1, 0] = m[0, 1].conjugate()
        with np.errstate(over="ignore"):
            assert_hermitian(m)
            assert_hermitian(np.array([np.eye(2), m]))

    def test_assert_hermitian_holds_each_matrix_to_its_own_scale(self):
        # the asymmetry of the second matrix is tiny next to the first
        # matrix's entries, but not next to its own
        stack = np.array([1e6 * np.eye(2), np.eye(2)], dtype=complex)
        stack[1, 0, 1] = 1e-8
        with pytest.raises(ValueError, match=r"stack index \(1,\)"):
            assert_hermitian(stack)

    def test_rejects_non_square_trailing_axes(self):
        with pytest.raises(ValueError, match="square"):
            assert_hermitian(np.zeros((3, 2, 4)))
        with pytest.raises(ValueError, match="4x4"):
            partial_transpose(np.zeros((3, 4, 5)))


def test_eigensystem_dataclass_dim():
    eig = hermitian_eigensystem(np.eye(3))
    w, v = eig
    assert w.shape == (3,) and v.shape == (3, 3)
    assert eig.eigenvalues.shape == w.shape and eig.eigenvectors.shape == v.shape
