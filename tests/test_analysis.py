"""Entanglement measure, conservation reports, deviation metrics, periods.

``TestLogNegativity`` is the one home of the log-negativity's values
(Bell states, product and mixed states, an eigenvalue oracle on X states
and on states spanning several S_z sectors) and its invariance.  The input
checks of ``analysis.log_negativity``, ``dynamics._log_negativity`` and the
other functions here are rows of ``test_library_contract``.
"""

import math

import numpy as np
import pytest

from spinhop import dynamics, linalg
from spinhop import run_trajectory
from spinhop.analysis import (
    compare_exact_effective,
    estimate_period,
    log_negativity,
)
from spinhop.dynamics import TimeGrid
from spinhop.model import BasisLayout, ModelSpec, encode_state

from helpers import (
    log_negativity_oracle,
    random_density_matrix,
    random_state,
    random_unitary,
    static_pair_stack,
)
from test_library_contract import collected

SQRT2 = math.sqrt(2.0)


def _pure(*amplitudes):
    psi = np.array(amplitudes, dtype=complex)
    return np.outer(psi, psi.conj()) / np.vdot(psi, psi).real


def _random_x_states(rng, n):
    """Two-qubit density matrices with both kinds of X coherence: w between
    uu and dd, z between ud and du, each up to its positivity limit."""
    rho = np.zeros((n, 4, 4), dtype=complex)
    diag = rng.dirichlet(np.ones(4), size=n)
    rho[:, range(4), range(4)] = diag
    for i, j in ((0, 3), (1, 2)):
        limit = np.sqrt(diag[:, i] * diag[:, j])
        rho[:, i, j] = limit * rng.uniform(0, 1, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        rho[:, j, i] = rho[:, i, j].conj()
    return rho


_RNG = np.random.default_rng(41)


class TestLogNegativity:
    @pytest.mark.parametrize(
        "rho, value, tol",
        [
            (_pure(1, 0, 0, 1), 1.0, 1e-15),
            (_pure(1, 0, 0, -1), 1.0, 1e-15),
            (_pure(0, 1, 1, 0), 1.0, 1e-15),
            (_pure(0, 1, -1, 0), 1.0, 1e-15),
            (_pure(0, 0, 0, 1), 0.0, 0.0),  # |down down>
            (np.eye(4) / 4, 0.0, 0.0),
            (0.5 * _pure(0, 1, 1, 0) + 0.125 * np.eye(4), math.log2(1.25), 1e-12),
            (np.eye(4), 2.0, 1e-12),  # the partial transpose of I is I: trace norm 4
        ]
        + [
            # rho_A (x) rho_B transposes to rho_A^T (x) rho_B, a density matrix
            (np.kron(random_density_matrix(_RNG, 2), random_density_matrix(_RNG, 2)), 0.0, 1e-10)
            for _ in range(3)
        ],
        ids=["phi-plus", "phi-minus", "psi-plus", "psi-minus", "product", "mixed",
             "half-bell", "identity", "product-1", "product-2", "product-3"],
    )
    def test_values(self, rho, value, tol):
        # alone, in a stack and, at unit trace, through analysis
        assert abs(dynamics._log_negativity(rho) - value) <= tol
        assert np.abs(dynamics._log_negativity(np.stack([rho, rho])) - value).max() <= tol
        if np.trace(rho) == 1.0:
            assert abs(log_negativity(rho) - value) <= tol

    @pytest.mark.parametrize("states", ["x-states", "several-sectors"])
    def test_stacks_match_the_eigenvalue_oracle(self, states):
        if states == "x-states":
            rho, entangled = _random_x_states(np.random.default_rng(80), 200), 0.5
        else:
            rng = np.random.default_rng(82)
            rho = static_pair_stack(np.array([random_state(rng, 16) for _ in range(50)]), 2)
            entangled = 0.0
        values = dynamics._log_negativity(rho)
        assert values.shape == (len(rho),) and values.max() > entangled
        for k in range(len(rho)):
            assert abs(values[k] - log_negativity_oracle(rho[k])) <= 1e-14
            assert values[k] == dynamics._log_negativity(rho[k])
        solved = np.abs(np.linalg.eigh(linalg.partial_transpose(rho)).eigenvalues).sum(axis=-1)
        assert np.array_equal(values, np.maximum(0.0, np.log2(solved)))

    def test_invariant_under_local_unitaries(self):
        rng = np.random.default_rng(77)
        rho = 0.6 * _pure(0, 1, 1, 0) + 0.1 * np.eye(4)
        reference = log_negativity(rho)
        for _ in range(5):
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            assert log_negativity(u @ rho @ u.conj().T) == pytest.approx(reference, abs=1e-9)

    def test_separable_mixture_clamped_at_zero(self):
        rng = np.random.default_rng(78)
        rho = np.zeros((4, 4), dtype=complex)
        for _ in range(4):
            a = np.kron(random_unitary(rng, 2)[:, 0], random_unitary(rng, 2)[:, 0])
            rho += 0.25 * np.outer(a, a.conj())
        assert 0.0 <= log_negativity(rho) <= 1e-12

    test_rejects = collected("log-negativity")
    test_hermiticity_is_checked_once = collected("log-negativity-checks")


class TestConservationMonitor:
    test_rejects = collected("conservation-monitor")


class TestCompareExactEffective:
    # (spec, start site, compared quantity, lower and upper bound); the
    # middle start's infidelity is taken on the spin-reduced state, where the
    # full-space value would be 0.299
    @pytest.mark.parametrize(
        "spec, site, name, low, high",
        [
            (ModelSpec.xy(1000.0), 1, "infidelity", 0.0, 1e-3),
            (ModelSpec.xy(10.0), 1, "F_plus", 0.0, 0.05),
            (ModelSpec.xy(1.0), 1, "F_minus", 0.25, 1.0),  # the singlet weight it misses
            (ModelSpec.xy(10.0, n_sites=3), 0, "F_plus", 0.0, 0.05),
            (ModelSpec.xy(10.0, n_sites=3), 0, "infidelity",
             0.0197745239706 - 1e-12, 0.0197745239706 + 1e-12),
        ],
        ids=["asymptotic", "triplet-gap", "intermediate-singlet", "three-site-middle-gap",
             "three-site-middle-infidelity"],
    )
    def test_bounds(self, spec, site, name, low, high):
        psi = encode_state(BasisLayout(spec.n_sites), site, "up", "down-down")
        report = compare_exact_effective(spec, psi)
        values = {"infidelity": report.max_state_infidelity, **report.max_observable_gap}
        assert low <= values[name] <= high

    def test_deviation_nonincreasing_in_ratio(self):
        psi = encode_state(BasisLayout(2), 1, "up", "down-down")
        infidelities = []
        for ratio in (1.0, 2.0, 10.0, 100.0):
            report = compare_exact_effective(ModelSpec.xy(ratio), psi)
            infidelities.append(report.max_state_infidelity)
        # ratios 1 and 2 both saturate at ~1, so allow a tiny slack there
        for a, b in zip(infidelities, infidelities[1:]):
            assert b <= a + 1e-4
        assert infidelities[2] < infidelities[1]
        assert infidelities[3] < infidelities[2]

    def test_observable_gaps_in_unit_interval(self):
        spec = ModelSpec.xy(2.0)
        psi = encode_state(BasisLayout(2), 1, "up", "down-down")
        report = compare_exact_effective(spec, psi, grid=TimeGrid(t_max=10.0, n_points=301))
        for name in ("P1", "P2", "P_up", "F_plus", "F_minus", "F2"):
            assert 0.0 <= report.max_observable_gap[name] <= 1.0

    def test_entangled_start_without_zero_mode_weight_is_compared_whole(self):
        # (|mid>|up,dd> + |(L+R)/sqrt2>|down,psi+>)/sqrt2 has no zero-mode
        # weight, but its site and spin are entangled, so its effective spin
        # state is mixed and Tr[rho rho'] of the spin-reduced states reads 1/2
        # even where both runs are still the same state
        layout = BasisLayout(3)
        mid = encode_state(layout, 0, "up", "down-down")
        sides = [encode_state(layout, site, "down", "psi-plus") for site in (1, 2)]
        psi = (mid + (sides[0] + sides[1]) / math.sqrt(2.0)) / math.sqrt(2.0)
        grid = TimeGrid(t_max=1e-9, n_points=11)
        report = compare_exact_effective(ModelSpec.xy(1e4, n_sites=3), psi, grid)
        assert report.max_state_infidelity <= 1e-12

    test_every_one_site_start_is_compared_with_the_effective_kind = collected("compared-kinds")

    def test_three_site_side_start_converges(self):
        # the paper's effective model for a start at an outer site: the state
        # infidelity falls about as (J/eta)^2, 100x per decade of eta/J
        psi = encode_state(BasisLayout(3), 1, "up", "down-down")
        infidelities = [
            compare_exact_effective(ModelSpec.xy(ratio, n_sites=3), psi).max_state_infidelity
            for ratio in (10.0, 100.0, 1000.0)
        ]
        assert infidelities[1] <= 2e-3
        for a, b in zip(infidelities, infidelities[1:]):
            assert b <= a / 50.0

    test_rejects_a_start = collected("compare-starts")
    test_rejects_an_overflowing_energy_scale_before_building = collected("compare-overflow")

    def test_gaps_follow_the_compared_columns(self):
        psi = encode_state(BasisLayout(3), 0, "up", "down-down")
        grid = TimeGrid(t_max=5.0, n_points=51)
        report = compare_exact_effective(ModelSpec.xy(10.0, n_sites=3), psi, grid)
        assert list(report.max_observable_gap) == [
            "P1", "P2", "P0", "P_up", "F_plus", "F_minus", "logneg", "F2"
        ]

    test_zero_coupling_rejected_before_evolving = collected("compare-no-coupling")
    test_zero_hopping_rejected_before_evolving = collected("compare-no-hopping")


class TestEstimatePeriod:
    def test_synthetic_cosine_squared(self):
        t = TimeGrid().times()
        period = estimate_period(t, np.cos(t / SQRT2) ** 2)
        target = 2.0 * SQRT2 * math.pi
        assert abs(period - target) / target <= 0.005

    test_rejects = collected("estimate-period")

    def test_ripple_split_peak_counted_once(self):
        t = np.linspace(0.0, 40.0, 4001)
        v = np.sin(math.pi * t / 5.0) ** 2 + 0.03 * np.sin(2.0 * math.pi * t / 0.2)
        level = v.min() + 0.75 * (v.max() - v.min())
        crossings = np.count_nonzero(np.diff((v >= level).astype(np.int8)) == 1)
        assert crossings > 8  # the ripple splits the 8 peaks at the 3/4 level
        assert estimate_period(t, v) == pytest.approx(10.0, rel=0.005)

    def test_coarse_grid_exact_xy_period(self):
        # 31 points over t in [0, 30]: one to three samples per peak
        layout = BasisLayout(2)
        grid = TimeGrid(n_points=31)
        initial = encode_state(layout, 1, "up", "down-down")
        run = run_trajectory(ModelSpec.xy(10.0), "exact", initial, grid)
        target = 2.0 * SQRT2 * math.pi
        assert estimate_period(grid.times(), run.f_plus) == pytest.approx(target, rel=0.005)
