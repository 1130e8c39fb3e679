"""Entanglement measure, conservation reports, deviation metrics, periods.

``TestLogNegativity`` is the one home of the log-negativity: its values
(Bell states, product and mixed states, an eigenvalue oracle on X states
and on states spanning several S_z sectors), its invariance, and the input
checks of both entry points, ``analysis.log_negativity`` on one density
matrix and ``dynamics._log_negativity`` on any stack of two-qubit operators.
"""

import math
import warnings

import numpy as np
import pytest

from spinhop import dynamics, linalg
from spinhop import observables, run_trajectory
from spinhop.analysis import (
    compare_exact_effective,
    conservation_monitor,
    estimate_period,
    log_negativity,
)
from spinhop.dynamics import TimeGrid
from spinhop.model import BasisLayout, ModelSpec, encode_state

from helpers import (
    labelled_starts,
    log_negativity_oracle,
    random_density_matrix,
    random_state,
    random_unitary,
    static_pair_stack,
)

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
_SKEWED = _pure(0, 1, 1, 0) + 0.1j * np.diag([1, 0, 0, -1])
_NOT_HERMITIAN = np.eye(4, dtype=complex)
_NOT_HERMITIAN[0, 1] = 1.0
_STACK = np.array([np.eye(4) / 4] * 3, dtype=complex)
_STACK[1, 0, 1] = 0.1
_STACK_NAN = _STACK.copy()
_STACK_NAN[1, 0, 1] = math.nan


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
    def test_values(self, monkeypatch, rho, value, tol):
        # alone, in a stack and, at unit trace, through analysis; never
        # through a values-only eigensolve
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
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

    # (analysis.log_negativity on one matrix, or the stack form) -> message
    @pytest.mark.parametrize(
        "one, rho, message",
        [
            (True, np.eye(2), r"^expected a 4x4 density matrix, got shape \(2, 2\)$"),
            (True, np.eye(4), "^density matrix trace is 4.0, expected 1$"),
            # the trace is checked after the value is taken: a zero matrix has
            # trace norm 0, whose log2 must not warn
            (True, np.zeros((4, 4)), "^density matrix trace is 0.0, expected 1$"),
            (True, (1 + 1e-6) * np.eye(4) / 4, "^density matrix trace is 1.000001, "),
            (True, _SKEWED, r"^matrix at stack index \(0,\) is not Hermitian"),
            (True, np.diag([1.5, -0.5, 0.0, 0.0]), "^density matrix has negative eigenvalue"),
            # held to -1e-9
            (True, np.diag([0.5 + 1e-6, 0.5, 0.0, -1e-6]),
             "^density matrix has negative eigenvalue -1e-06$"),
            (True, np.diag([1.0, 0.0, 0.0, math.nan]), "^matrix has NaN or infinite entries$"),
            (False, np.eye(8), "^expected a 4x4 operator or a stack of them"),
            (False, _NOT_HERMITIAN, "^matrix is not Hermitian"),
            (False, _STACK, r"^matrix at stack index \(1,\) is not Hermitian"),
            (False, _STACK_NAN, "^matrix has NaN or infinite entries$"),
            (False, np.diag([1.0, 1.0, 1.0, np.inf]), "^matrix has NaN or infinite entries$"),
        ],
        ids=["shape", "trace", "zero", "trace-1e-6", "not-hermitian", "negative",
             "negative-1e-6", "nan", "stack-shape", "stack-not-hermitian", "stack-index",
             "stack-nan", "stack-inf"],
    )
    def test_rejects(self, one, rho, message):
        with pytest.raises(ValueError, match=message):
            (log_negativity if one else dynamics._log_negativity)(rho)

    def test_hermiticity_is_checked_once(self, monkeypatch):
        shapes = []

        def counted(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return check(m, *args, **kwargs)

        check = linalg.assert_hermitian
        monkeypatch.setattr(linalg, "assert_hermitian", counted)
        assert log_negativity(np.eye(4) / 4) == 0.0
        assert shapes == [(2, 4, 4)]  # the matrix and its partial transpose, one stack


class TestConservationMonitor:
    @pytest.mark.parametrize(
        "trajectory, message",
        [
            ([], "empty"),
            (observables(encode_state(BasisLayout(2), 1, "up", "down-down"), BasisLayout(2)),
             "no time axis"),
        ],
        ids=["empty", "single-state"],
    )
    def test_rejects(self, trajectory, message):
        with pytest.raises(ValueError, match=message):
            conservation_monitor(trajectory)


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

    @pytest.mark.parametrize("n_sites, site", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
    def test_every_one_site_start_is_compared_with_the_effective_kind(
        self, n_sites, site, monkeypatch
    ):
        built = []
        build = dynamics._sector_blocks

        def recorded(spec, kind, initial):
            built.append(kind)
            return build(spec, kind, initial)

        monkeypatch.setattr(dynamics, "_sector_blocks", recorded)
        grid = TimeGrid(t_max=1.0, n_points=3)
        for psi in labelled_starts(n_sites)[12 * site : 12 * site + 12]:  # left to right
            del built[:]
            compare_exact_effective(ModelSpec.xy(10.0, n_sites=n_sites), psi, grid)
            assert built == ["effective", "exact"]

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

    @pytest.mark.parametrize(
        "psi, message",
        [
            (2 * encode_state(BasisLayout(2), 1, "up", "down-down"), "not normalized"),
            (encode_state(BasisLayout(3), 1, "up", "down-down"), "does not match layout dim 16"),
        ]
        + [
            (np.where(np.arange(16) == 0, bad, encode_state(BasisLayout(2), 1, "up", "down-down")),
             "^initial state has NaN or infinite entries$")
            for bad in (math.nan, math.inf)
        ],
        ids=["unnormalized", "three-site", "nan", "inf"],
    )
    def test_rejects_a_start(self, psi, message):
        with pytest.raises(ValueError, match=message):
            compare_exact_effective(ModelSpec.xy(10.0), psi)

    def test_rejects_an_overflowing_energy_scale_before_building(self, monkeypatch):
        def build(*args):
            raise AssertionError("built a Hamiltonian before checking the energy scale")

        monkeypatch.setattr(dynamics, "_sector_blocks", build)
        psi = encode_state(BasisLayout(2), 1, "up", "down-down")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning on the way
            with pytest.raises(ValueError, match=r"^energy scale .* = inf with t_max = 30\.0"):
                compare_exact_effective(ModelSpec.xy(1e308, j=1e308), psi)

    def test_gaps_follow_the_compared_columns(self):
        psi = encode_state(BasisLayout(3), 0, "up", "down-down")
        grid = TimeGrid(t_max=5.0, n_points=51)
        report = compare_exact_effective(ModelSpec.xy(10.0, n_sites=3), psi, grid)
        assert list(report.max_observable_gap) == [
            "P1", "P2", "P0", "P_up", "F_plus", "F_minus", "logneg", "F2"
        ]

    def test_zero_coupling_rejected_before_evolving(self, monkeypatch):
        def evolve(*args):
            raise AssertionError("evolved before checking the coupling scale")

        monkeypatch.setattr(dynamics, "evolve_on_grid", evolve)
        psi = encode_state(BasisLayout(2), 1, "up", "down-down")
        with pytest.raises(ValueError, match="coupling scale is zero"):
            compare_exact_effective(ModelSpec(n_sites=2, eta=10.0), psi)

    @pytest.mark.parametrize("n_sites", [2, 3])
    def test_zero_hopping_rejected_before_evolving(self, n_sites, monkeypatch):
        def evolve(*args):
            raise AssertionError("evolved before checking the effective kind")

        monkeypatch.setattr(dynamics, "evolve_on_grid", evolve)
        psi = encode_state(BasisLayout(n_sites), 1, "up", "down-down")
        with pytest.raises(ValueError, match="^effective requires eta > 0"):
            compare_exact_effective(ModelSpec.xy(0.0, n_sites=n_sites), psi)


class TestEstimatePeriod:
    def test_synthetic_cosine_squared(self):
        t = TimeGrid().times()
        period = estimate_period(t, np.cos(t / SQRT2) ** 2)
        target = 2.0 * SQRT2 * math.pi
        assert abs(period - target) / target <= 0.005

    @pytest.mark.parametrize(
        "times, values, message",
        [
            ([0, 1], [1, 0], "1-d"),
            ([0.0, 2.0, 1.0], [0.0, 1.0, 0.0], "increasing"),
            ([0.0, 1.0, math.nan, 3.0, 4.0], [0.0, 1.0, 0.0, 1.0, 0.0], "increasing"),
            (np.linspace(0, 10, 100), np.full(100, 0.25), "noise floor"),
            (np.linspace(0, 2.0, 200), np.sin(np.linspace(0, 2.0, 200)) ** 2, "insufficient"),
            # a peak, then one whose two highs a dip to 0.3 splits: its fit is convex
            (np.arange(15.0), [0, 0.5, 1, 0.5, 0, 0.7, 1, 0.3, 1, 0.7, 0, 0.5, 1, 0.5, 0],
             "no single maximum in the peak near t = 6"),
        ]
        + [
            (np.arange(9.0), np.where(np.arange(9) == 4, bad, 0.5), "^values must be finite$")
            for bad in (math.nan, math.inf, -math.inf)
        ],
        ids=["short", "decreasing", "nan-time", "flat", "one-maximum", "double-humped",
             "nan", "inf", "-inf"],
    )
    def test_rejects(self, times, values, message):
        with pytest.raises(ValueError, match=message):
            estimate_period(times, values)

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
