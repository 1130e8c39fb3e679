"""Trajectories, observables and closed-form strong-hopping solutions.

``TestEvolveOnGrid`` is the one home of propagation: ``evolve_on_grid``
against closed forms, the power series and a whole-matrix eigensolve, its
input checks, and a run's S_z blocks through it."""

import dataclasses
import itertools
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinhop import model
from spinhop.dynamics import (
    AnalyticSolution,
    TimeGrid,
    Trajectory,
    analytic,
    evolve_on_grid,
    observables,
    run_trajectory,
)
from spinhop.model import (
    BasisLayout,
    ModelSpec,
    encode_state,
)

from helpers import (
    BELL_MINUS,
    BELL_PLUS,
    COUPLINGS,
    LATTICE_KINDS,
    collective_spin_oracle,
    decode,
    doublet_populations,
    encode,
    expm_series,
    hamiltonian_oracle,
    labelled_starts,
    log_negativity_oracle,
    partial_trace_oracle_keep_last_two,
    random_hermitian,
    random_state,
    sz_of_basis,
)
from test_library_contract import collected

SQRT2 = math.sqrt(2.0)


def _start(n_sites, site):
    return encode_state(BasisLayout(n_sites), site, "up", "down-down")


def _analytic_at(spec, site, t_max, n_points=2):
    """analytic from |up>|down down> at ``site``, on a grid ending at ``t_max``."""
    return analytic(spec, _start(spec.n_sites, site), TimeGrid(t_max, n_points))


class TestTimeGrid:
    test_rejects = collected("time-grid")

    def test_accepts_ints_and_numpy_reals(self):
        assert TimeGrid(t_max=3, n_points=4).times()[-1] == 3.0
        assert TimeGrid(t_max=np.float32(0.5), n_points=2).times()[-1] == 0.5
        grid = TimeGrid(t_max=30.0, n_points=np.int64(11))
        assert grid == TimeGrid(30.0, 11) and type(grid.n_points) is int
        assert grid.times().tolist() == np.linspace(0.0, 30.0, 11).tolist()

    def test_times_reach_the_largest_float(self):
        # linspace's last k * step overflows there before t_max replaces it
        t_max = np.finfo(float).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            times = TimeGrid(t_max=t_max, n_points=4).times()
        assert times.tolist() == [0.0, t_max / 3, 2 * (t_max / 3), t_max]

    def test_times_are_built_once_and_read_only(self):
        grid = TimeGrid(t_max=7.5, n_points=301)
        times = grid.times()
        assert times.tobytes() == np.linspace(0.0, 7.5, 301).tobytes()
        assert not times.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            times[1] = 0.0
        assert grid.times() is times
        for copy in (dataclasses.replace(grid), pickle.loads(pickle.dumps(grid))):
            assert copy == grid and copy.times() is not times
            assert copy.times().tobytes() == times.tobytes()
            assert not copy.times().flags.writeable


class TestObservables:
    test_rejects = collected("observables")

    @pytest.mark.parametrize("n_sites", [2, 3])
    def test_stack_matches_single_states(self, n_sites):
        rng = np.random.default_rng(60 + n_sites)
        layout = BasisLayout(n_sites)
        h = random_hermitian(rng, layout.dim)
        states = np.array([random_state(rng, layout.dim) for _ in range(6)])
        times = np.linspace(0.0, 2.5, len(states))
        stack = observables(states, layout, times, h)
        assert len(stack) == len(states)
        # and the same states as a (2, 3, D) stack, with two grid axes
        grid = observables(states.reshape(2, 3, -1), layout, times.reshape(2, 3), h)
        for i, psi in enumerate(states):
            single = observables(psi, layout, times[i], h)
            for field in dataclasses.fields(Trajectory):
                b = getattr(single, field.name)
                for a in (getattr(stack, field.name)[i], getattr(grid, field.name)[divmod(i, 3)]):
                    assert np.shape(a) == np.shape(b)
                    assert np.abs(a - b).max() <= 1e-14 * max(1.0, np.abs(b).max())

    @pytest.mark.parametrize("n_sites", [2, 3])
    def test_stack_matches_brute_force_static_pair_reduction(self, n_sites):
        rng = np.random.default_rng(70 + n_sites)
        layout = BasisLayout(n_sites)
        # off unit norm, so the norm and every weight are checked at scale
        states = np.array([rng.uniform(0.5, 2.0) * random_state(rng, layout.dim) for _ in range(6)])
        h = random_hermitian(rng, layout.dim)
        times = np.linspace(0.0, 1.0, len(states))
        stack = observables(states, layout, times, h)
        assert np.array_equal(stack.t, times)
        site, mobile, _, _ = np.array([decode(layout, i) for i in range(layout.dim)]).T
        weight = np.abs(states) ** 2
        rho12 = [
            partial_trace_oracle_keep_last_two(np.outer(psi, psi.conj()), (n_sites, 2, 2, 2))
            for psi in states
        ]

        def bell(b):
            return np.array([np.real(b.conj() @ r @ b) for r in rho12])

        def expectation(op):
            return np.einsum("ti,ij,tj->t", states.conj(), op, states).real

        sz_op, s12_sq_op = collective_spin_oracle(n_sites)
        expected = {
            "p_site": np.column_stack([weight[:, site == x].sum(1) for x in range(n_sites)]),
            "p_up": weight[:, mobile == 0].sum(axis=1),
            "sz_total": expectation(sz_op),
            "s12_sq": expectation(s12_sq_op),
            "norm": np.sqrt(weight.sum(axis=1)),
            "f_plus": bell(BELL_PLUS),
            "f_minus": bell(BELL_MINUS),
            "f2": np.array([r[2, 2].real for r in rho12]),
            "logneg": np.array([log_negativity_oracle(r) for r in rho12]),
        }
        for name, want in expected.items():
            assert getattr(stack, name) == pytest.approx(want, abs=1e-14), name
        assert stack.energy == pytest.approx(expectation(h), abs=1e-13)
        # (S1 + S2)^2 is 2 on the triplet and 0 on the singlet
        trace = np.array([np.trace(r).real for r in rho12])
        assert stack.s12_sq == pytest.approx(2.0 * (trace - expected["f_minus"]), abs=1e-14)


def _whole_matrix_evolution(h, psi, times):
    """exp(-i H t) psi for every t from one eigensolve of the whole matrix."""
    w, v = np.linalg.eigh(h)
    return (np.exp(-1j * np.outer(times, w)) * (v.conj().T @ psi)) @ v.T


class TestEvolveOnGrid:
    """The one propagator against closed forms, the power series of
    exp(-i H t) and a whole-matrix eigensolve, its input checks, and a
    run's S_z blocks through it."""

    def test_closed_forms(self):
        # free hopping from |x=1> is (cos t, -i sin t); an eigenstate picks up its phase
        times = np.array([0.0, 0.3, 1.0, 2.5])
        rabi = evolve_on_grid([[0, 1], [1, 0]], [1, 0], times)
        assert np.abs(rabi - np.column_stack((np.cos(times), -1j * np.sin(times)))).max() <= 1e-12
        w, v = np.linalg.eigh(random_hermitian(np.random.default_rng(12), 5))
        out = evolve_on_grid(v @ np.diag(w) @ v.conj().T, v[:, 2], times)
        assert np.abs(out - np.exp(-1j * w[2] * times)[:, None] * v[:, 2]).max() <= 1e-12

    @pytest.mark.parametrize("seed, n, t, tol", [(11, 6, 0.0, 1e-12), (13, 8, 0.9, 1e-10)])
    def test_matches_the_power_series(self, seed, n, t, tol):
        rng = np.random.default_rng(seed)
        m, psi = random_hermitian(rng, n), random_state(rng, n)
        assert np.abs(evolve_on_grid(m, psi, [t])[0] - expm_series(m, t) @ psi).max() <= tol

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

    def test_a_cross_sector_entry_is_evolved_with_the_whole_matrix(self):
        layout = BasisLayout(2)
        h = hamiltonian_oracle(ModelSpec.xy(2.0))
        i, j = encode(layout, 0, 0, 1, 1), encode(layout, 1, 0, 0, 1)  # S_z = -1/2 and +1/2
        h[i, j] = h[j, i] = 0.3
        psi = encode_state(layout, 1, "up", "down-down")
        times = np.linspace(0.0, 5.0, 41)
        states = evolve_on_grid(h, psi, times)
        assert np.abs(states - _whole_matrix_evolution(h, psi, times)).max() <= 1e-10
        # the coupling carries weight out of the start's sector
        sz = sz_of_basis(layout)
        assert (np.abs(states[:, sz != sz[i]]) ** 2).sum(axis=1).max() > 1e-3

    @pytest.mark.parametrize("n_sites,kind", LATTICE_KINDS)
    def test_superposition_of_every_sector_matches_whole_matrix(self, n_sites, kind):
        rng = np.random.default_rng(90 + n_sites)
        spec = ModelSpec(n_sites=n_sites, eta=3.1, j_xy=0.7, j_z=-1.3)
        h = hamiltonian_oracle(spec, kind)
        psi = random_state(rng, 8 * n_sites)
        times = np.linspace(0.0, 5.0, 41)
        # a run's states: each S_z block it builds, through the one propagator
        states = np.zeros((len(times), len(psi)), dtype=complex)
        for _, idx, block in model._sector_blocks(spec, kind, psi):
            states[:, idx] = evolve_on_grid(block, psi[idx], times)
        assert np.abs(states - _whole_matrix_evolution(h, psi, times)).max() <= 1e-10
        # the series loses digits to cancellation as |H t| grows: check it at t = 1
        assert times[8] == 1.0
        assert np.abs(states[8] - expm_series(h, 1.0) @ psi).max() <= 1e-10

    test_bad_entry_in_an_unoccupied_sector_raises = collected("unoccupied-sector")
    test_rejects_a_start_of_another_dimension = collected("start-dimension")
    test_definite_sz_start_solves_only_its_sector = collected("definite-starts")


class TestRunTrajectory:
    test_rejects_an_overflowing_energy_scale_before_building = collected("run-overflow")

    def test_times_are_read_only(self):
        grid = TimeGrid(t_max=1.0, n_points=5)
        layout = BasisLayout(2)
        psi = encode_state(layout, 1, "up", "down-down")
        t = run_trajectory(ModelSpec.xy(1.0), "exact", psi, grid).t
        assert t is grid.times() and not t.flags.writeable
        # a caller's writable times come back as a read-only view
        times = np.linspace(0.0, 1.0, 5)
        t = observables(np.tile(psi, (5, 1)), layout, times).t
        assert not t.flags.writeable and np.array_equal(t, times)


class TestColumns:
    def test_every_column_reads_its_field(self, traj):
        trajectory = traj("mid3_exact").trajectory
        for position, name in ((0, "P1"), (1, "P0"), (2, "P2")):
            assert np.array_equal(trajectory.column(name), trajectory.p_site[:, position])
        two_sites = traj("xy10_exact").trajectory
        assert np.array_equal(two_sites.column("P2"), two_sites.p_site[:, 1])
        assert trajectory.column("F_plus") is trajectory.f_plus
        assert trajectory.column("Sz") is trajectory.sz_total
        state = observables(_start(3, 0), BasisLayout(3))
        assert state.column("P0") == 1.0 and state.column("P1") == 0.0
        assert math.isnan(state.energy)  # no Hamiltonian was given

    test_a_column_off_the_lattice_raises = collected("columns")

class TestAnalyticThreeSite:
    def test_smallest_coupling_keeps_an_infinite_period(self):
        # rate * omega underflows to 0 here; the period is infinite, not an error
        sol = _analytic_at(ModelSpec.xy(10.0, j=5e-324, n_sites=3), 0, 1.0)
        assert sol.period == math.inf
        assert np.array_equal(sol.p_down, [0.0, 0.0])

    def test_side_start_mixes_two_rates(self):
        # (1, 0, 0) has weight 1/2 on the zero mode (rate 1/2) and 1/2 on the
        # +-eta modes (rate 1/4): the mean of the two single-rate solutions
        t = np.linspace(0.0, 40.0, 401)
        side = _analytic_at(ModelSpec.xy(10.0, n_sites=3), 1, 40.0, 401)
        expected = 0.5 * np.sin(t / SQRT2) ** 2 + 0.5 * np.sin(t / (2.0 * SQRT2)) ** 2
        assert np.abs(side.p_down - expected).max() <= 1e-14
        assert side.period == pytest.approx(4.0 * SQRT2 * math.pi, rel=1e-15)


class TestAnalyticPeriod:
    # the full cycle at the slowest rate a start occupies: 1/2 on two sites
    # and 1/4 from any single site of three; the populations are even in
    # the couplings, so the cycle depends on |j| only
    @pytest.mark.parametrize(
        "spec, site, period",
        [
            (ModelSpec.xy(10.0), 1, 2 * SQRT2 * math.pi),
            (ModelSpec.xy(10.0, j=-1.0), 1, 2 * SQRT2 * math.pi),
            (ModelSpec.xy(10.0, j=2.0), 1, SQRT2 * math.pi),
            (ModelSpec.heisenberg(10.0), 1, 16 * math.pi / 3),
            (ModelSpec.heisenberg(10.0, j=-1.0), 1, 16 * math.pi / 3),
            (ModelSpec.heisenberg(10.0, n_sites=3), 0, 32 * math.pi / 3),
            (ModelSpec.heisenberg(10.0, j=-1.0, n_sites=3), 0, 32 * math.pi / 3),
            # close to the largest coupling the run preconditions accept at t_max = 1
            (ModelSpec.heisenberg(10.0, j=2e307, n_sites=3), 0, 32.0 * math.pi / 3.0 / 2e307),
        ]
        + [(ModelSpec.xy(10.0, j=j, n_sites=3), site, 4 * SQRT2 * math.pi)
           for j in (1.0, -1.0) for site in (1, 0, 2)],
        ids=["xy", "xy-negative", "xy-j2", "heisenberg", "heisenberg-negative",
             "heisenberg-3", "heisenberg-3-negative", "heisenberg-3-largest"]
        + [f"xy-3-j{j:+.0f}-site{site}" for j in (1.0, -1.0) for site in (1, 0, 2)],
    )
    def test_reference_values(self, spec, site, period):
        sol = _analytic_at(spec, site, 1.0)
        assert isinstance(sol, AnalyticSolution)
        assert sol.period == pytest.approx(period, rel=1e-15) and sol.period > 0.0

    def test_float_built_zero_mode_start_turns_at_the_zero_mode_rate(self):
        # (|1> - |2>)/sqrt(2) is the zero mode; built with its two outer
        # amplitudes one ulp apart, it leaves rounding on the +-eta modes,
        # below the occupancy floor
        layout = BasisLayout(3)
        spin = encode_state(layout, 1, "up", "down-down")[:8]
        psi = np.concatenate([spin / SQRT2, np.zeros(8), -spin * math.sqrt(0.5)])
        rounding = model.MODE_RATES[3][0][1] @ psi.reshape(3, 8)
        assert 0.0 < np.vdot(rounding, rounding).real <= model.MODE_WEIGHT_FLOOR
        sol = analytic(ModelSpec.xy(10.0, n_sites=3), psi, TimeGrid(1.0, 2))
        assert sol.period == pytest.approx(2 * SQRT2 * math.pi, rel=1e-15)

    @pytest.mark.parametrize("n_sites, site", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
    def test_every_one_site_start_keeps_its_period(self, n_sites, site):
        # two sites turn at rate 1/2; every one-site start on three sites
        # occupies the +-eta modes, at rate 1/4; site by site, left to right
        spec = ModelSpec(n_sites=n_sites, eta=10.0, j_xy=0.7, j_z=-0.3)
        omega = math.hypot(SQRT2 * 0.7, -0.3 / 4.0)
        rate = 0.5 if n_sites == 2 else 0.25
        for psi in labelled_starts(n_sites)[12 * site : 12 * site + 12]:
            period = analytic(spec, psi, TimeGrid(1.0, 2)).period
            assert period == pytest.approx(2 * math.pi / (rate * omega), rel=1e-15)


def test_analytic_table_is_finite_on_every_accepted_run():
    # the preconditions keep 2 * scale * max(t_max, 1) finite, every angle
    # rate * omega * t is at most that scale and every entry of the
    # reflection at most 1, so no accepted run has a non-finite population
    magnitudes = [5e-324, 1e-300, 1.0, 1e150, 5.9e306]
    couplings = [0.0] + [s * m for m in magnitudes for s in (1.0, -1.0)]
    etas = [0.0, 1.0, 1e10, 2.9e306]
    rng = np.random.default_rng(5)
    starts = {
        n: [_start(n, site) for site in BasisLayout(n).site_labels()]
        + [random_state(rng, 8 * n)]
        for n in (2, 3)
    }
    accepted, extremes = 0, set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n_sites, j_xy, j_z, eta, t_max in itertools.product(
            (2, 3), couplings, couplings, etas, (1e-300, 1.0, 30.0, 1e300)
        ):
            spec = ModelSpec(n_sites, eta, j_xy=j_xy, j_z=j_z)
            grid = TimeGrid(t_max, 5)
            for psi in starts[n_sites]:
                try:
                    sol = analytic(spec, psi, grid)
                except ValueError:  # zero coupling, or an overflowing scale
                    continue
                table = np.column_stack((sol.times, sol.p_up, sol.p_down))
                assert np.isfinite(table).all(), (spec, t_max)
                accepted += 1
                extremes |= {abs(j_xy), abs(j_z), eta, t_max} & {5.9e306, 2.9e306, 1e300}
    assert accepted >= 3000 and extremes == {5.9e306, 2.9e306, 1e300}


@pytest.mark.parametrize("eta", [10.0, 50.0])
@pytest.mark.parametrize("coupling", list(COUPLINGS))
@pytest.mark.parametrize("n_sites", [2, 3])
def test_analytic_is_the_effective_kinds_doublet_populations(n_sites, coupling, eta):
    # every site and all 12 start labels, then complex superpositions of
    # them; each effective run's doublet populations, by brute projection
    spec = ModelSpec(n_sites, eta, *COUPLINGS[coupling])
    grid = TimeGrid(t_max=30.0, n_points=301)
    h = hamiltonian_oracle(spec, "effective")
    starts = labelled_starts(n_sites)
    rng = np.random.default_rng(7)
    for _ in range(4):
        psi = np.array(starts).T @ random_state(rng, len(starts))
        starts.append(psi / np.linalg.norm(psi))
    worst = 0.0
    for psi in starts:
        expected = doublet_populations(evolve_on_grid(h, psi, grid.times()), n_sites)
        sol = analytic(spec, psi, grid)
        worst = max(worst, np.abs(np.column_stack((sol.p_up, sol.p_down)) - expected).max())
    assert worst <= 1e-12


def test_trajectory_is_frozen():
    layout = BasisLayout(2)
    trajectory = observables(encode_state(layout, 1, "up", "down-down"), layout)
    with pytest.raises(AttributeError):
        trajectory.t = 1.0


test_library_edge_inputs_raise_value_error = collected("edge-inputs")
