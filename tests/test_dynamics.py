"""Trajectories, observables and closed-form strong-hopping solutions."""

import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest

from spinhop import dynamics, linalg
from spinhop.dynamics import (
    COLUMNS,
    HAMILTONIAN_KINDS,
    X_TOL,
    AnalyticSolution,
    TimeGrid,
    Trajectory,
    analytic,
    column_names,
    doublet_leakage,
    evolve_on_grid,
    hamiltonian_for,
    observables,
    run_trajectory,
)
from spinhop.model import (
    _STATIC_PRESETS,
    EFFECTIVE_VARIANTS,
    BasisLayout,
    ModelSpec,
    build_hamiltonian,
    encode_state,
)
from spinhop.linalg import hermitian_eigensystem

from helpers import (
    BELL_MINUS,
    BELL_PLUS,
    decode,
    encode,
    expm_series,
    log_negativity_oracle,
    partial_trace_oracle_keep_last_two,
    random_hermitian,
    random_state,
    series,
    static_pair_stack,
)

SQRT2 = math.sqrt(2.0)


class TestTimeGrid:
    def test_defaults(self):
        grid = TimeGrid()
        times = grid.times()
        assert times[0] == 0.0
        assert times[-1] == 30.0
        assert times.size == 2001

    def test_validation(self):
        with pytest.raises(ValueError, match="t_max"):
            TimeGrid(t_max=0.0)
        # a float, a bool or more points than an array can hold would fail
        # only later, when times() sizes its array
        for n_points in (1, 3.0, True, 10**30, int(np.iinfo(np.intp).max) + 1):
            with pytest.raises(ValueError, match="n_points must be an integer"):
                TimeGrid(t_max=30.0, n_points=n_points)

    @pytest.mark.parametrize(
        "t_max",
        [
            math.inf,
            math.nan,
            pytest.param(True, id="bool"),
            pytest.param(10**400, id="huge-int"),
            pytest.param("1", id="str"),
            pytest.param([1.0], id="list"),
        ],
    )
    def test_rejects_non_finite_t_max(self, t_max):
        with pytest.raises(ValueError, match="t_max must be a positive finite number"):
            TimeGrid(t_max=t_max)

    def test_accepts_ints_and_numpy_reals(self):
        assert TimeGrid(t_max=3, n_points=4).times()[-1] == 3.0
        assert TimeGrid(t_max=np.float32(0.5), n_points=2).times()[-1] == 0.5

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
    def test_product_basis_state(self):
        layout = BasisLayout(2)
        rec = observables(encode_state(layout, 1, "up", "down-down"), layout)
        assert rec.p_site[0] == pytest.approx(1.0)
        assert rec.p_up == pytest.approx(1.0)
        assert rec.f_plus == pytest.approx(0.0, abs=1e-14)
        assert rec.f_minus == pytest.approx(0.0, abs=1e-14)
        assert rec.logneg == pytest.approx(0.0, abs=1e-9)
        assert rec.f2 == pytest.approx(0.0, abs=1e-14)
        assert rec.sz_total == pytest.approx(-0.5)
        assert rec.s12_sq == pytest.approx(2.0)
        assert rec.norm == pytest.approx(1.0)
        assert math.isnan(rec.energy)

    def test_triplet_bell_state(self):
        layout = BasisLayout(2)
        rec = observables(encode_state(layout, 2, "down", "psi-plus"), layout)
        assert rec.p_site[1] == pytest.approx(1.0)
        assert rec.f_plus == pytest.approx(1.0)
        assert rec.f_minus == pytest.approx(0.0, abs=1e-14)
        assert rec.logneg == pytest.approx(1.0, abs=1e-10)

    def test_transfer_target_state(self):
        layout = BasisLayout(2)
        rec = observables(encode_state(layout, 1, "down", "down-up"), layout)
        assert rec.f2 == pytest.approx(1.0)

    def test_site_populations_sum_to_one(self):
        layout = BasisLayout(3)
        rng = np.random.default_rng(5)
        psi = rng.normal(size=24) + 1j * rng.normal(size=24)
        psi /= np.linalg.norm(psi)
        rec = observables(psi, layout)
        assert sum(rec.p_site) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="layout dim"):
            observables(np.ones(16), BasisLayout(3))

    @pytest.mark.parametrize("n_sites", [2, 3])
    def test_stack_matches_single_states(self, n_sites):
        rng = np.random.default_rng(60 + n_sites)
        layout = BasisLayout(n_sites)
        h = random_hermitian(rng, layout.dim)
        states = np.array([random_state(rng, layout.dim) for _ in range(6)])
        times = np.linspace(0.0, 2.5, len(states))
        stack = observables(states, layout, times, h)
        assert len(stack) == len(states)
        for i, psi in enumerate(states):
            single = observables(psi, layout, times[i], h)
            for field in dataclasses.fields(Trajectory):
                a = getattr(stack, field.name)[i]
                b = getattr(single, field.name)
                assert np.shape(a) == np.shape(b)
                assert np.abs(a - b).max() <= 1e-14 * max(1.0, np.abs(b).max())

    @pytest.mark.parametrize("n_sites", [2, 3])
    def test_stack_matches_brute_force_static_pair_reduction(self, n_sites):
        rng = np.random.default_rng(70 + n_sites)
        layout = BasisLayout(n_sites)
        states = np.array([random_state(rng, layout.dim) for _ in range(6)])
        stack = observables(states, layout)
        for i, psi in enumerate(states):
            rho12 = partial_trace_oracle_keep_last_two(
                np.outer(psi, psi.conj()), (n_sites, 2, 2, 2)
            )
            f_minus = np.real(BELL_MINUS.conj() @ rho12 @ BELL_MINUS)
            assert stack.f_plus[i] == pytest.approx(
                np.real(BELL_PLUS.conj() @ rho12 @ BELL_PLUS), abs=1e-14
            )
            assert stack.f_minus[i] == pytest.approx(f_minus, abs=1e-14)
            assert stack.f2[i] == pytest.approx(rho12[2, 2].real, abs=1e-14)
            # (S1 + S2)^2 is 2 on the triplet and 0 on the singlet
            assert stack.s12_sq[i] == pytest.approx(
                2.0 * (np.trace(rho12).real - f_minus), abs=1e-14
            )
            assert stack.logneg[i] == pytest.approx(log_negativity_oracle(rho12), abs=1e-14)


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


def _block_coupling(rng, n):
    """Hermitian perturbations on the entries that couple {uu, dd} and
    {ud, du}, each of unit Frobenius norm."""
    e = np.zeros((n, 4, 4), dtype=complex)
    for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
        e[:, i, j] = rng.normal(size=n) + 1j * rng.normal(size=n)
        e[:, j, i] = e[:, i, j].conj()
    return e / np.linalg.norm(e, axis=(1, 2))[:, None, None]


@pytest.fixture
def fallback_sizes(monkeypatch):
    """Number of matrices of each call to the general trace-norm path."""
    sizes = []
    solve = linalg.trace_norm_hermitian

    def counted(m):
        sizes.append(len(m))
        return solve(m)

    monkeypatch.setattr(linalg, "trace_norm_hermitian", counted)
    return sizes


def _residue(rho12):
    """2 ||E||_F / |tr rho12| of each matrix, E the block-coupling entries."""
    mask = np.ones((4, 4), dtype=bool)
    mask[np.ix_([0, 3], [0, 3])] = mask[np.ix_([1, 2], [1, 2])] = False
    coupling = np.sqrt((np.abs(rho12[:, mask]) ** 2).sum(axis=-1))
    return 2.0 * coupling / np.abs(np.trace(rho12, axis1=1, axis2=2))


class TestClosedFormLogNegativity:
    """S_z-conserving runs give X states, whose log-negativity is closed-form."""

    def test_x_states_match_the_eigenvalue_oracle(self, fallback_sizes):
        rng = np.random.default_rng(80)
        rho = _random_x_states(rng, 200)
        values = dynamics._log_negativity(rho)
        assert values.shape == (200,)
        assert fallback_sizes == []
        for k in range(len(rho)):
            assert abs(values[k] - log_negativity_oracle(rho[k])) <= 1e-14
        assert values.max() > 0.5  # entangled states are among them

    def test_bell_states_give_one(self, fallback_sizes):
        phi = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / SQRT2
        rho = np.einsum("ka,kb->kab", phi, phi.conj())
        assert np.abs(dynamics._log_negativity(rho) - 1.0).max() <= 1e-15
        assert dynamics._log_negativity(rho[2]) == pytest.approx(1.0, abs=1e-15)
        assert fallback_sizes == []

    def test_certified_below_the_tolerance_and_solved_above_it(self, fallback_sizes):
        rng = np.random.default_rng(81)
        n = 100
        rho = _random_x_states(rng, n)
        e = _block_coupling(rng, n)
        # 2 ||E||_F = factor * X_TOL * tr(rho), with tr(rho) = 1
        below = rho + 0.5 * 0.99 * X_TOL * e
        above = rho + 0.5 * 1.01 * X_TOL * e
        mixed = np.concatenate([below, above])
        values = dynamics._log_negativity(mixed)
        assert fallback_sizes == [n]  # exactly the matrices above the tolerance
        for k in range(n):
            assert abs(values[k] - log_negativity_oracle(below[k])) <= X_TOL / math.log(2)
            assert abs(values[n + k] - log_negativity_oracle(above[k])) <= 1e-14

    def test_superpositions_of_sz_sectors_take_the_eigensolver(self, fallback_sizes):
        rng = np.random.default_rng(82)
        states = np.array([random_state(rng, 16) for _ in range(50)])
        rho = static_pair_stack(states, 2)
        values = dynamics._log_negativity(rho)
        assert fallback_sizes == [50]
        for k in range(len(rho)):
            assert abs(values[k] - log_negativity_oracle(rho[k])) <= 1e-14
        solved = linalg.trace_norm_hermitian(linalg.partial_transpose(rho))
        assert np.array_equal(values, np.maximum(0.0, np.log2(solved)))

    def test_rejects_non_hermitian_and_non_finite_input(self):
        bad = np.array([np.eye(4) / 4] * 3, dtype=complex)
        bad[1, 0, 1] = 0.1
        with pytest.raises(ValueError, match=r"stack index \(1,\) is not Hermitian"):
            dynamics._log_negativity(bad)
        bad[1, 0, 1] = math.nan
        with pytest.raises(ValueError, match="NaN"):
            dynamics._log_negativity(bad)
        with pytest.raises(ValueError, match="4x4"):
            dynamics._log_negativity(np.eye(8))

    @pytest.mark.parametrize("n_sites", [2, 3])
    def test_every_preset_start_stays_an_x_state(self, n_sites):
        layout = BasisLayout(n_sites)
        times = TimeGrid(t_max=30.0, n_points=201).times()
        kinds = [k for k in HAMILTONIAN_KINDS if k == "exact" or EFFECTIVE_VARIANTS[k] == n_sites]
        worst = 0.0
        for make in (ModelSpec.xy, ModelSpec.heisenberg):
            for eta in (1.0, 1e3):
                spec = make(eta, n_sites=n_sites)
                for kind in kinds:
                    h = hamiltonian_for(spec, kind)
                    for site in layout.site_labels():
                        for e_spin in ("up", "down"):
                            for static in _STATIC_PRESETS:
                                psi0 = encode_state(layout, site, e_spin, static)
                                states = evolve_on_grid(h, psi0, times)
                                worst = max(worst, _residue(static_pair_stack(states, n_sites)).max())
        # the residue grows like eps * eta * t: ~2e-11 at eta/J = 1e3 and t = 30
        assert worst <= 0.1 * X_TOL


def test_hamiltonian_kinds_are_exact_and_the_effective_variants():
    assert HAMILTONIAN_KINDS == ("exact", *EFFECTIVE_VARIANTS)


def _every_lattice_and_kind():
    return [
        (n_sites, kind)
        for n_sites in (2, 3)
        for kind in HAMILTONIAN_KINDS
        if kind == "exact" or EFFECTIVE_VARIANTS[kind] == n_sites
    ]


def _whole_matrix_evolution(h, psi, times):
    """exp(-i H t) psi for every t from one eigensolve of the whole matrix."""
    w, v = np.linalg.eigh(h)
    return (np.exp(-1j * np.outer(times, w)) * (v.conj().T @ psi)) @ v.T


def _sz_of_basis(n_sites):
    """Total S_z of each basis state, from its decoded spins (0 up, 1 down)."""
    layout = BasisLayout(n_sites)
    return np.array([sum(0.5 - s for s in decode(layout, i)[1:]) for i in range(layout.dim)])


@pytest.fixture
def eigh_sizes(monkeypatch):
    """Dimension of every matrix handed to LAPACK's eigh."""
    sizes = []
    solve = np.linalg.eigh

    def counted(m, *args, **kwargs):
        sizes.append(np.shape(m)[-1])
        return solve(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return sizes


class TestEvolveOnGrid:
    @pytest.mark.parametrize("n_sites,kind", _every_lattice_and_kind())
    def test_superposition_of_every_sector_matches_whole_matrix(self, n_sites, kind, eigh_sizes):
        rng = np.random.default_rng(90 + n_sites)
        spec = ModelSpec(n_sites=n_sites, eta=3.1, j_xy=0.7, j_z=-1.3)
        h = hamiltonian_for(spec, kind)
        psi = random_state(rng, 8 * n_sites)
        times = np.linspace(0.0, 5.0, 41)
        states = evolve_on_grid(h, psi, times)
        # every sector is occupied, and each is solved on its own
        assert sorted(eigh_sizes) == [n_sites, n_sites, 3 * n_sites, 3 * n_sites]
        assert np.abs(states - _whole_matrix_evolution(h, psi, times)).max() <= 1e-10
        # the series loses digits to cancellation as |H t| grows: check it at t = 1
        assert times[8] == 1.0
        assert np.abs(states[8] - expm_series(h, 1.0) @ psi).max() <= 1e-10

    def test_one_cross_sector_entry_evolves_whole_matrix(self, eigh_sizes):
        layout = BasisLayout(2)
        h = build_hamiltonian(ModelSpec.xy(2.0))
        sz = _sz_of_basis(2)
        i = encode(layout, 0, 0, 1, 1)  # |up>|dd>, S_z = -1/2
        j = encode(layout, 1, 0, 0, 1)  # |up>|ud>, S_z = +1/2
        assert sz[i] != sz[j]
        h[i, j] = h[j, i] = 0.3
        psi = encode_state(layout, 1, "up", "down-down")
        times = np.linspace(0.0, 5.0, 41)
        states = evolve_on_grid(h, psi, times)
        assert eigh_sizes == [16]
        assert np.abs(states - _whole_matrix_evolution(h, psi, times)).max() <= 1e-10
        # the coupling carries weight out of the start's sector
        assert (np.abs(states[:, sz != sz[i]]) ** 2).sum(axis=1).max() > 1e-3

    @pytest.mark.parametrize("bad", ["nan", "asymmetric"])
    def test_bad_entry_in_an_unoccupied_sector_raises(self, bad):
        layout = BasisLayout(3)
        h = build_hamiltonian(ModelSpec.heisenberg(5.0, n_sites=3))
        k = encode(layout, 2, 0, 0, 0)  # |up>|uu>, S_z = +3/2
        psi = encode_state(layout, 0, "down", "down-down")  # S_z = -3/2
        assert psi[k] == 0
        if bad == "nan":
            h[k, k] = math.nan
        else:
            h[k, encode(layout, 1, 0, 0, 0)] += 0.5
        with pytest.raises(ValueError, match="NaN" if bad == "nan" else "not Hermitian"):
            evolve_on_grid(h, psi, [0.0, 1.0])

    @pytest.mark.parametrize("n_sites,kind", _every_lattice_and_kind())
    def test_definite_sz_start_solves_only_its_sector(self, n_sites, kind, eigh_sizes):
        layout = BasisLayout(n_sites)
        h = hamiltonian_for(ModelSpec.heisenberg(4.0, n_sites=n_sites), kind)
        times = np.linspace(0.0, 5.0, 11)
        for e_spin in ("up", "down"):
            for static in _STATIC_PRESETS:
                psi = encode_state(layout, layout.site_labels()[0], e_spin, static)
                (sz,) = set(_sz_of_basis(n_sites)[psi != 0])
                del eigh_sizes[:]
                states = evolve_on_grid(h, psi, times)
                assert eigh_sizes == [n_sites if abs(sz) == 1.5 else 3 * n_sites]
                assert np.abs(states - _whole_matrix_evolution(h, psi, times)).max() <= 1e-10


class TestRunTrajectory:
    def test_first_record_matches_initial_observables(self, traj):
        run = traj("xy10_exact")
        direct = observables(run.initial, run.layout)
        trajectory = run.trajectory
        assert trajectory.t[0] == 0.0
        # the t=0 state is spectrally reconstructed, so only machine-level noise
        assert trajectory.p_site[0] == pytest.approx(direct.p_site, abs=1e-12)
        assert trajectory.f_plus[0] == pytest.approx(direct.f_plus, abs=1e-12)
        assert trajectory.norm[0] == pytest.approx(direct.norm, abs=1e-12)

    def test_intermediate_regime_builds_singlet_weight(self, traj):
        fm = series(traj("xy1_exact").trajectory, "f_minus")
        assert fm.max() > 0.3

    def test_strong_hopping_stays_in_triplet_sector(self, traj):
        trajectory = traj("xy10_exact").trajectory
        assert series(trajectory, "f_plus").max() >= 0.98
        assert series(trajectory, "f_minus").max() <= 0.02

    def test_heisenberg_strong_hopping_max_transfer(self, traj):
        fp = series(traj("heis10_exact").trajectory, "f_plus")
        assert fp.max() == pytest.approx(8.0 / 9.0, abs=0.02)

    def test_rejects_unnormalized_initial(self):
        spec = ModelSpec.xy(1.0)
        with pytest.raises(ValueError, match="not normalized"):
            run_trajectory(spec, "exact", np.ones(16), TimeGrid(t_max=1.0, n_points=2))

    @pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.nan), math.inf])
    def test_rejects_a_non_finite_initial_entry(self, bad):
        # abs(nan - 1) > tol is False: the norm test alone let a NaN through
        psi = encode_state(BasisLayout(2), 1, "up", "down-down")
        psi[5] = bad
        with pytest.raises(ValueError, match="^initial state has NaN or infinite entries$"):
            run_trajectory(ModelSpec.xy(1.0), "exact", psi, TimeGrid(t_max=1.0, n_points=2))

    def test_rejects_an_overflowing_energy_scale_before_building(self, monkeypatch):
        def build(*args):
            raise AssertionError("built a Hamiltonian before checking the energy scale")

        psi = encode_state(BasisLayout(2), 1, "up", "down-down")
        message = (
            r"^energy scale eta \+ \|j_xy\| \+ \|j_z\| = inf with t_max = 30\.0 overflows$"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning on the way
            with pytest.raises(ValueError, match=message):
                run_trajectory(ModelSpec.xy(1e308, j=1e308), "exact", psi)
            monkeypatch.setattr(dynamics, "hamiltonian_for", build)
            with pytest.raises(ValueError, match="overflows"):
                run_trajectory(ModelSpec.xy(1.0), "exact", psi, TimeGrid(t_max=1e308))

    def test_rejects_unknown_kind(self):
        spec = ModelSpec.xy(1.0)
        psi = encode_state(BasisLayout(2), 1, "up", "down-down")
        with pytest.raises(ValueError, match="hamiltonian kind"):
            run_trajectory(spec, "trotter", psi, TimeGrid(t_max=1.0, n_points=2))

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

    def test_record_count_and_times(self, traj):
        run = traj("xy10_exact")
        assert len(run.trajectory) == run.grid.n_points
        assert run.trajectory.p_site.shape == (run.grid.n_points, 2)
        assert run.trajectory.t == pytest.approx(run.times)


class TestColumns:
    def test_names_follow_the_lattice(self):
        assert column_names(2) == [c for c in COLUMNS if c != "P0"]
        assert column_names(3) == list(COLUMNS)
        assert column_names(3)[:5] == ["t", "P1", "P2", "P0", "P_up"]

    def test_every_column_reads_its_field(self, traj):
        trajectory = traj("mid3_exact").trajectory
        for position, name in ((0, "P1"), (1, "P0"), (2, "P2")):
            assert np.array_equal(trajectory.column(name), trajectory.p_site[:, position])
        two_sites = traj("xy10_exact").trajectory
        assert np.array_equal(two_sites.column("P2"), two_sites.p_site[:, 1])
        assert trajectory.column("F_plus") is trajectory.f_plus
        assert trajectory.column("Sz") is trajectory.sz_total

    def test_probabilities_and_compared_columns(self):
        probabilities = [c for c, (_, _, p, _) in COLUMNS.items() if p]
        compared = [c for c, (_, _, _, g) in COLUMNS.items() if g]
        assert probabilities == ["P1", "P2", "P0", "P_up", "F_plus", "F_minus", "F2"]
        assert compared == ["P1", "P2", "P0", "P_up", "F_plus", "F_minus", "logneg", "F2"]


class TestAnalyticThreeSite:
    @pytest.mark.parametrize("kind", ["xy", "heisenberg"])
    def test_three_sites_run_at_half_the_rate(self, kind):
        t = np.linspace(0.0, 40.0, 401)
        three = analytic(kind, "three_site_middle_start", t, 1.0)
        two = analytic(kind, "two_site", t, 0.5)
        assert np.array_equal(three.p_down, two.p_down)
        assert three.period == 2.0 * analytic(kind, "two_site", t, 1.0).period

    def test_smallest_coupling_keeps_an_infinite_period(self):
        # j / 2 underflows to 0 here; the period comes from j itself
        sol = analytic("xy", "three_site_middle_start", [0.0, 1.0], 5e-324)
        assert sol.period == math.inf
        assert np.array_equal(sol.p_down, [0.0, 0.0])


class TestAnalyticTwoSite:
    def test_time_zero(self):
        for kind in ("xy", "heisenberg"):
            sol = analytic(kind, "two_site", 0.0, 1.0)
            assert sol.p_up[0] == 1.0
            assert sol.p_down[0] == 0.0

    def test_xy_full_transfer_time(self):
        sol = analytic("xy", "two_site", math.pi / SQRT2, 1.0)
        assert sol.p_down[0] == pytest.approx(1.0, abs=1e-12)

    def test_heisenberg_peak_transfer(self):
        sol = analytic("heisenberg", "two_site", 4.0 * math.pi / 3.0, 1.0)
        assert sol.p_down[0] == pytest.approx(8.0 / 9.0, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        t = np.linspace(0.0, 40.0, 500)
        for kind in ("xy", "heisenberg"):
            sol = analytic(kind, "two_site", t, 1.0)
            assert np.abs(sol.p_up + sol.p_down - 1.0).max() <= 1e-12

    def test_coupling_scale(self):
        sol = analytic("xy", "two_site", math.pi / (2.0 * SQRT2), 2.0)
        assert sol.p_down[0] == pytest.approx(1.0, abs=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="model kind"):
            analytic("ising", "two_site", 1.0, 1.0)

    def test_solution_carries_period(self):
        sol = analytic("xy", "two_site", 1.0, 1.0)
        assert isinstance(sol, AnalyticSolution)
        assert sol.period == pytest.approx(2.0 * SQRT2 * math.pi)


class TestAnalyticPeriod:
    def test_reference_values(self):
        assert analytic("xy", "two_site", 0.0, 1.0).period == pytest.approx(2 * SQRT2 * math.pi)
        assert analytic("heisenberg", "two_site", 0.0, 1.0).period == pytest.approx(
            16 * math.pi / 3
        )
        assert analytic("xy", "three_site_middle_start", 0.0, 1.0).period == pytest.approx(
            4 * SQRT2 * math.pi
        )
        assert analytic(
            "heisenberg", "three_site_middle_start", 0.0, 1.0
        ).period == pytest.approx(32 * math.pi / 3)

    def test_scales_inversely_with_coupling(self):
        assert analytic("xy", "two_site", 0.0, 2.0).period == pytest.approx(SQRT2 * math.pi)

    @pytest.mark.parametrize("kind", ["xy", "heisenberg"])
    @pytest.mark.parametrize("lattice", ["two_site", "three_site_middle_start"])
    def test_negative_coupling_gives_the_same_period(self, kind, lattice):
        # sin^2(j t / c) is even in j, so the cycle depends on |j| only
        assert (
            analytic(kind, lattice, 0.0, -1.0).period == analytic(kind, lattice, 0.0, 1.0).period
        )

    def test_largest_coupling_gives_a_positive_period(self):
        # 3 * 1e308 overflows; the period must not collapse to 0
        period = analytic("heisenberg", "three_site_middle_start", 0.0, 1e308).period
        assert period == pytest.approx(32.0 * math.pi / 3.0 / 1e308, rel=1e-15)
        assert period > 0.0

    def test_unknown_labels(self):
        with pytest.raises(ValueError, match="model kind"):
            analytic("ising", "two_site", 0.0, 1.0)
        with pytest.raises(ValueError, match="lattice"):
            analytic("xy", "four_site", 0.0, 1.0)


class TestQstTrajectory:
    def test_starts_with_zero_transfer(self, traj):
        assert traj("qst_xy20").trajectory.f2[0] == pytest.approx(0.0, abs=1e-14)

    def test_xy_transfer_is_nearly_perfect(self, traj):
        trajectory = traj("qst_xy20").trajectory
        f2 = series(trajectory, "f2")
        assert f2.max() >= 0.99
        t_peak = trajectory.t[int(f2.argmax())]
        assert abs(t_peak - SQRT2 * math.pi) <= 0.2

    def test_heisenberg_transfer_is_capped(self, traj):
        assert series(traj("qst_heis20").trajectory, "f2").max() <= 0.77


class TestInvariants:
    @pytest.mark.parametrize("name", ["xy1_exact", "xy10_exact", "heis10_exact", "mid3_exact"])
    def test_norm_energy_sz_conserved(self, traj, name):
        trajectory = traj(name).trajectory
        norm = series(trajectory, "norm")
        assert np.abs(norm - 1.0).max() <= 1e-9
        energy = series(trajectory, "energy")
        scale = max(1.0, np.abs(energy[0]))
        assert np.abs(energy - energy[0]).max() <= 1e-9 * scale
        sz = series(trajectory, "sz_total")
        assert np.abs(sz - sz[0]).max() <= 1e-9

    def test_effective_trajectory_stays_in_doublet(self, traj):
        run = traj("xy10_eff")
        h = hamiltonian_for(run.spec, run.kind)
        states = evolve_on_grid(h, run.initial, run.times)
        leakage = np.array([doublet_leakage(s, run.layout) for s in states])
        assert leakage.max() <= 1e-9

    @pytest.mark.parametrize(
        "name,kind", [("xy10_eff", "xy"), ("heis10_eff", "heisenberg")]
    )
    def test_effective_dynamics_reproduces_analytic(self, traj, name, kind):
        run = traj(name)
        sol = analytic(kind, "two_site", run.times, 1.0)
        assert np.abs(series(run.trajectory, "p_up") - sol.p_up).max() <= 1e-9
        assert np.abs(series(run.trajectory, "f_plus") - sol.p_down).max() <= 1e-9

    def test_motional_decoupling_over_ten_hop_periods(self):
        # the return probability tracks the free-hopping law pointwise on a
        # window of ten hop cycles; over much longer windows a second-order
        # frequency shift of order (J/eta)^2 * eta accumulates visible phase
        spec = ModelSpec.xy(10.0)
        grid = TimeGrid(t_max=math.pi, n_points=2001)
        psi = encode_state(BasisLayout(2), 1, "up", "down-down")
        p1 = run_trajectory(spec, "exact", psi, grid).p_site[:, 0]
        free = np.cos(spec.eta * grid.times()) ** 2
        assert np.abs(p1 - free).max() <= 0.05

    def test_projector_variant_never_populates_antisymmetric_mode(self, traj):
        run = traj("mid3_proj")
        h = hamiltonian_for(run.spec, run.kind)
        states = evolve_on_grid(h, run.initial, run.times)
        eig = hermitian_eigensystem(
            build_hamiltonian(ModelSpec(run.spec.n_sites, run.spec.eta))[::8, ::8]
        )
        phi0 = eig.eigenvectors[:, int(np.argmin(np.abs(eig.eigenvalues)))]
        proj = np.kron(np.outer(phi0, phi0.conj()), np.eye(8, dtype=complex))
        population = np.real(np.einsum("ij,jk,ik->i", states.conj(), proj, states))
        assert population.max() <= 1e-9

    def test_all_probabilities_in_range(self, traj):
        for name in ("xy1_exact", "heis10_exact", "mid3_exact"):
            trajectory = traj(name).trajectory
            for field in ("p_site", "p_up", "f_plus", "f_minus", "f2"):
                values = getattr(trajectory, field)
                assert np.all((-1e-9 <= values) & (values <= 1.0 + 1e-9))
            assert np.all(trajectory.logneg >= 0.0)
            assert np.abs(trajectory.p_site.sum(axis=1) - 1.0).max() <= 1e-9


def test_trajectory_is_frozen():
    layout = BasisLayout(2)
    trajectory = observables(encode_state(layout, 1, "up", "down-down"), layout)
    with pytest.raises(AttributeError):
        trajectory.t = 1.0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: encode_state(BasisLayout(2), True, "up", "down-down"), "site label"),
        (lambda: encode_state(BasisLayout(3), 1.0, "up", "down-down"), "site label"),
        (lambda: analytic("xy", "two_site", 0.0, 0.0), "finite and nonzero"),
        (lambda: analytic("heisenberg", "three_site_middle_start", 0.0, 0), "nonzero"),
        (lambda: analytic("xy", "two_site", 0.0, math.nan), "finite and nonzero"),
        (lambda: analytic("xy", "two_site", [0.0, 1.0], 0.0), "finite and nonzero"),
        (lambda: analytic("heisenberg", "two_site", [0.0], math.inf), "finite and nonzero"),
    ],
    ids=[
        "bool-site", "float-site", "xy-period-j0", "heisenberg-period-j0", "period-j-nan",
        "two-site-j0", "two-site-j-inf",
    ],
)
def test_library_edge_inputs_raise_value_error(call, message):
    # True == 1 and 1.0 == 1 would pass as site label 1; j = 0 divided by
    # zero, and a non-finite j gave a NaN or zero period
    with pytest.raises(ValueError, match=message):
        call()
