"""Entanglement measure, conservation reports, deviation metrics, periods."""

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
from spinhop.model import _STATIC_PRESETS, BasisLayout, ModelSpec, encode_state

from helpers import BELL_PLUS, random_unitary, series

SQRT2 = math.sqrt(2.0)


def _bell_rho():
    return np.outer(BELL_PLUS, BELL_PLUS.conj())


class TestLogNegativity:
    def test_bell_state_is_one_ebit(self):
        assert log_negativity(_bell_rho()) == pytest.approx(1.0, abs=1e-10)

    def test_product_state_is_zero(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[3, 3] = 1.0  # |down down>
        assert log_negativity(rho) == 0.0

    def test_half_bell_half_maximally_mixed(self):
        rho = 0.5 * _bell_rho() + 0.125 * np.eye(4)
        # oracle: eigenvalues of the partial transpose by an independent solver
        pt = rho.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
        oracle = np.log2(np.abs(np.linalg.eigvalsh(pt)).sum())
        value = log_negativity(rho)
        assert value == pytest.approx(oracle, abs=1e-12)
        assert value == pytest.approx(0.32192809488736235, abs=1e-12)  # log2(1.25)

    def test_invariant_under_local_unitaries(self):
        rng = np.random.default_rng(77)
        rho = 0.6 * _bell_rho() + 0.1 * np.eye(4)
        reference = log_negativity(rho)
        for _ in range(5):
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            rotated = u @ rho @ u.conj().T
            assert log_negativity(rotated) == pytest.approx(reference, abs=1e-9)

    def test_separable_mixture_clamped_at_zero(self):
        rng = np.random.default_rng(78)
        rho = np.zeros((4, 4), dtype=complex)
        for _ in range(4):
            a = np.kron(
                random_unitary(rng, 2)[:, 0], random_unitary(rng, 2)[:, 0]
            )
            rho += 0.25 * np.outer(a, a.conj())
        assert 0.0 <= log_negativity(rho) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError, match="4x4"):
            log_negativity(np.eye(2))
        with pytest.raises(ValueError, match="trace"):
            log_negativity(np.eye(4))
        skewed = _bell_rho() + 0.1j * np.diag([1, 0, 0, -1])
        with pytest.raises(ValueError, match="Hermitian"):
            log_negativity(skewed)
        indefinite = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            log_negativity(indefinite)
        # the trace is checked after the value is taken: a zero matrix has
        # trace norm 0, whose log2 must not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="trace is 0.0"):
                log_negativity(np.zeros((4, 4)))

    def test_hermiticity_is_checked_once(self, monkeypatch):
        shapes = []

        def counted(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return check(m, *args, **kwargs)

        check = linalg.assert_hermitian
        monkeypatch.setattr(linalg, "assert_hermitian", counted)
        assert log_negativity(np.eye(4) / 4) == 0.0
        assert shapes == [(4, 4)]


class TestConservationMonitor:
    def test_effective_two_site_conserves_total_static_spin(self, traj):
        report = conservation_monitor(traj("xy10_eff").trajectory)
        assert report.s12_sq_drift <= 1e-9

    def test_exact_trajectories_conserve_norm_and_sz(self, traj):
        for name in ("xy1_exact", "xy10_exact", "heis10_exact"):
            report = conservation_monitor(traj(name).trajectory)
            assert report.norm_drift <= 1e-9
            assert report.sz_drift <= 1e-9
            assert report.energy_drift <= 1e-9 * max(1.0, abs(traj(name).trajectory.energy[0]))

    def test_exact_intermediate_regime_breaks_s12(self, traj):
        # singlet admixture at eta/J = 1, consistent with the large F- there
        report = conservation_monitor(traj("xy1_exact").trajectory)
        assert report.s12_sq_drift > 0.1

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            conservation_monitor([])

    def test_single_state_rejected(self):
        layout = BasisLayout(2)
        state = observables(encode_state(layout, 1, "up", "down-down"), layout)
        with pytest.raises(ValueError, match="no time axis"):
            conservation_monitor(state)


class TestCompareExactEffective:
    def test_asymptotic_ratio_is_faithful(self):
        spec = ModelSpec.xy(1000.0)
        psi = encode_state(BasisLayout(2), 1, "up", "down-down")
        report = compare_exact_effective(spec, psi)
        assert report.max_state_infidelity <= 1e-3
        assert report.eta_over_j == pytest.approx(1000.0)

    def test_strong_hopping_triplet_gap_small(self):
        spec = ModelSpec.xy(10.0)
        psi = encode_state(BasisLayout(2), 1, "up", "down-down")
        report = compare_exact_effective(spec, psi)
        assert report.max_observable_gap["F_plus"] <= 0.05

    def test_intermediate_regime_misses_singlet_weight(self):
        spec = ModelSpec.xy(1.0)
        psi = encode_state(BasisLayout(2), 1, "up", "down-down")
        report = compare_exact_effective(spec, psi)
        assert report.max_observable_gap["F_minus"] >= 0.25

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

    def test_three_site_middle_start_comparison(self):
        spec = ModelSpec.xy(10.0, n_sites=3)
        psi = encode_state(BasisLayout(3), 0, "up", "down-down")
        report = compare_exact_effective(spec, psi)
        assert report.max_observable_gap["F_plus"] <= 0.05
        # on the spin-reduced state; the full-space value would be 0.299
        assert report.max_state_infidelity == pytest.approx(0.0197745239706, abs=1e-12)

    @pytest.mark.parametrize("n_sites", [2, 3])
    def test_every_one_site_start_is_compared_with_the_effective_kind(self, n_sites, monkeypatch):
        built = []
        build = dynamics._sector_blocks

        def recorded(spec, kind, initial):
            built.append(kind)
            return build(spec, kind, initial)

        monkeypatch.setattr(dynamics, "_sector_blocks", recorded)
        layout = BasisLayout(n_sites)
        grid = TimeGrid(t_max=1.0, n_points=3)
        for site in layout.site_labels():
            for e_spin in ("up", "down"):
                for static in _STATIC_PRESETS:
                    del built[:]
                    psi = encode_state(layout, site, e_spin, static)
                    compare_exact_effective(ModelSpec.xy(10.0, n_sites=n_sites), psi, grid)
                    assert built == ["exact", "effective"]

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

    def test_rejects_unnormalized_or_misshaped_start(self):
        psi = encode_state(BasisLayout(2), 1, "up", "down-down")
        with pytest.raises(ValueError, match="not normalized"):
            compare_exact_effective(ModelSpec.xy(10.0), 2 * psi)
        three_site = encode_state(BasisLayout(3), 1, "up", "down-down")
        with pytest.raises(ValueError, match="does not match layout dim 16"):
            compare_exact_effective(ModelSpec.xy(10.0), three_site)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_a_non_finite_initial_entry(self, bad):
        psi = encode_state(BasisLayout(2), 1, "up", "down-down")
        psi[0] = bad
        with pytest.raises(ValueError, match="^initial state has NaN or infinite entries$"):
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

    def test_exact_xy_strong_hopping_period(self, traj):
        run = traj("xy10_exact")
        period = estimate_period(run.times, series(run.trajectory, "f_plus"))
        target = 2.0 * SQRT2 * math.pi
        assert abs(period - target) / target <= 0.02

    def test_exact_heisenberg_strong_hopping_period(self, traj):
        run = traj("heis10_exact")
        period = estimate_period(run.times, series(run.trajectory, "f_plus"))
        target = 16.0 * math.pi / 3.0
        assert abs(period - target) / target <= 0.02

    def test_flat_series_rejected(self):
        t = np.linspace(0, 10, 100)
        with pytest.raises(ValueError, match="noise floor"):
            estimate_period(t, np.full(100, 0.25))

    def test_too_few_oscillations_rejected(self):
        t = np.linspace(0, 2.0, 200)
        with pytest.raises(ValueError, match="insufficient"):
            estimate_period(t, np.sin(t) ** 2)  # single maximum in window

    def test_bad_input_shapes(self):
        with pytest.raises(ValueError, match="1-d"):
            estimate_period([0, 1], [1, 0])
        with pytest.raises(ValueError, match="increasing"):
            estimate_period([0.0, 2.0, 1.0], [0.0, 1.0, 0.0])
        t = TimeGrid().times()
        for bad in (math.nan, math.inf, -math.inf):
            v = np.cos(t / SQRT2) ** 2
            v[500] = bad
            with pytest.raises(ValueError, match="^values must be finite$"):
                estimate_period(t, v)

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            estimate_period([0.0, 1.0, math.nan, 3.0, 4.0], [0.0, 1.0, 0.0, 1.0, 0.0])

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

    def test_double_humped_peak_rejected(self):
        # a peak, then one whose two highs a dip to 0.3 splits: its fit is convex
        v = [0.0, 0.5, 1.0, 0.5, 0.0, 0.7, 1.0, 0.3, 1.0, 0.7, 0.0, 0.5, 1.0, 0.5, 0.0]
        with pytest.raises(ValueError, match="no single maximum in the peak near t = 6"):
            estimate_period(np.arange(15.0), v)
