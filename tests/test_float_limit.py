"""The eigensolver near the float limit: a 50-digit mpmath oracle, the exact
power-of-two scaling past the one threshold, and eigenvalues that overflow
to +-inf, never to NaN."""

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinhop import model
from spinhop.linalg import _LARGEST_AS_GIVEN, hermitian_eigensystem
from spinhop.model import ModelSpec

from helpers import random_hermitian
from test_library_contract import collected

EPS = np.finfo(float).eps
# |w - w_50 digits| <= ORACLE_C * eps * max|H|, eigenvalue by eigenvalue
ORACLE_C = 16
# finite Hermitian, but the modulus of its off-diagonal entries overflows
OVERFLOWING = np.array([[0, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, 0]])


def _oracle_eigenvalues(m):
    with mpmath.workdps(50):
        matrix = mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in m])
        w, _ = mpmath.eigh(matrix)
        return np.array(sorted(float(x) for x in w))


@pytest.mark.parametrize("j_xy", [1e150, 1e232, 1e290])
@pytest.mark.parametrize("eta", [1.0, 1e10])
def test_three_site_blocks_match_a_50_digit_oracle(eta, j_xy):
    for j_z in (1.0, 0.5 * j_xy):
        spec = ModelSpec(3, eta, j_xy, j_z)
        for _, _, block in model._sector_blocks(spec, "exact", np.ones(24)):
            w = hermitian_eigensystem(block).eigenvalues
            gap = np.abs(w - _oracle_eigenvalues(block)).max()
            assert gap <= ORACLE_C * EPS * np.abs(block).max(), (j_z, len(block), gap)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 9),
    seed=st.integers(0, 2**31),
    top=st.integers(482, 1015),
    k=st.integers(-533, 533),
)
def test_past_the_threshold_a_power_of_two_scales_the_solve_exactly(n, seed, top, k):
    # both M and M * 2^k lie past the threshold, with finite eigenvalues
    k = min(max(k, 482 - top), 1015 - top)
    m = random_hermitian(np.random.default_rng(seed), n)
    m = np.ldexp(m.view(float), top - np.frexp(np.abs(m.view(float)).max())[1]).view(complex)
    scaled = np.ldexp(m.view(float), k).view(complex)
    assert np.abs(m).max() > _LARGEST_AS_GIVEN and np.abs(scaled).max() > _LARGEST_AS_GIVEN
    w, v = hermitian_eigensystem(m)
    w_scaled, v_scaled = hermitian_eigensystem(scaled)
    assert np.array_equal(w_scaled, np.ldexp(w, k)) and np.array_equal(v_scaled, v)
    assert np.abs(m @ v - v * w).max() <= 16 * n * EPS * np.abs(m).max()


def test_eigenvalues_past_the_float_range_read_inf_not_nan():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, v = hermitian_eigensystem(OVERFLOWING)
        assert w.tolist() == [-np.inf, np.inf] and np.isfinite(v).all()
        # in a stack, each matrix is scaled by its own power of two
        stack = hermitian_eigensystem(np.array([OVERFLOWING, np.eye(2)])).eigenvalues
        assert stack.tolist() == [[-np.inf, np.inf], [1.0, 1.0]]


test_log_negativity_rejects_a_matrix_whose_eigenvalues_overflow = collected("eigenvalues-overflow")
test_no_eigensolver_is_called_outside_linalg = collected("eigensolver-call-sites")
