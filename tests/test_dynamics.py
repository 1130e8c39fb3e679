"""Trajectories, observables and closed-form strong-hopping solutions."""

import dataclasses
import itertools
import math
import pickle
import re
import warnings

import numpy as np
import pytest

from spinhop import dynamics, linalg, model
from spinhop.dynamics import (
    COLUMNS,
    AnalyticSolution,
    TimeGrid,
    Trajectory,
    analytic,
    column_names,
    evolve_on_grid,
    observables,
    run_trajectory,
)
from spinhop.model import (
    HAMILTONIAN_KINDS,
    BasisLayout,
    ModelSpec,
    build_hamiltonian,
    encode_state,
)
from spinhop.linalg import hermitian_eigensystem

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
    labelled_starts,
    log_negativity_oracle,
    partial_trace_oracle_keep_last_two,
    random_hermitian,
    random_state,
    static_pair_stack,
    sz_of_basis,
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
        # a float, a bool or more points than an array of amplitudes can hold
        # would fail only later, when a run sizes its arrays
        intp_max = int(np.iinfo(np.intp).max)
        for n_points in (1, 3.0, True, np.True_, 10**30, intp_max + 1, intp_max, 2**59):
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

    def test_times_off_the_grid_are_named(self):
        message = r"^times shape \(2,\) does not broadcast to the grid shape \(3,\)$"
        with pytest.raises(ValueError, match=message):
            observables(np.ones((3, 16)), BasisLayout(2), times=[0.0, 1.0])

    def test_hamiltonian_of_another_dimension_is_named(self):
        message = r"^hamiltonian shape \(3, 3\) does not match layout dim 16: need 16x16$"
        with pytest.raises(ValueError, match=message):
            observables(np.ones((3, 16)), BasisLayout(2), hamiltonian=np.eye(3))

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
        sz_op, s12_sq_op = collective_spin_oracle(n_sites)
        labels = np.array([decode(layout, i) for i in range(layout.dim)])  # (site, e, s1, s2)
        assert np.array_equal(stack.t, times)
        for i, psi in enumerate(states):
            rho12 = partial_trace_oracle_keep_last_two(
                np.outer(psi, psi.conj()), (n_sites, 2, 2, 2)
            )
            weight = np.abs(psi) ** 2
            for site in range(n_sites):
                assert stack.p_site[i, site] == pytest.approx(
                    weight[labels[:, 0] == site].sum(), abs=1e-14
                )
            assert stack.p_up[i] == pytest.approx(weight[labels[:, 1] == 0].sum(), abs=1e-14)
            assert stack.sz_total[i] == pytest.approx(np.vdot(psi, sz_op @ psi).real, abs=1e-14)
            assert stack.s12_sq[i] == pytest.approx(
                np.vdot(psi, s12_sq_op @ psi).real, abs=1e-14
            )
            assert stack.norm[i] == pytest.approx(math.sqrt(weight.sum()), abs=1e-14)
            assert stack.energy[i] == pytest.approx(np.vdot(psi, h @ psi).real, abs=1e-13)
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


def _residue(rho12):
    """2 ||E||_F / |tr rho12| of each matrix, E the block-coupling entries."""
    mask = np.ones((4, 4), dtype=bool)
    mask[np.ix_([0, 3], [0, 3])] = mask[np.ix_([1, 2], [1, 2])] = False
    coupling = np.sqrt((np.abs(rho12[:, mask]) ** 2).sum(axis=-1))
    return 2.0 * coupling / np.abs(np.trace(rho12, axis1=1, axis2=2))


class TestLogNegativity:
    """The log-negativity of a start spanning several sectors, from the
    eigenvalues of the partial transpose, and the X-state form that the
    closed form of a one-sector start rests on."""

    def test_x_states_match_the_eigenvalue_oracle(self):
        rng = np.random.default_rng(80)
        rho = _random_x_states(rng, 200)
        values = dynamics._log_negativity(rho)
        assert values.shape == (200,)
        for k in range(len(rho)):
            assert abs(values[k] - log_negativity_oracle(rho[k])) <= 1e-14
        assert values.max() > 0.5  # entangled states are among them

    def test_bell_states_give_one(self):
        phi = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / SQRT2
        rho = np.einsum("ka,kb->kab", phi, phi.conj())
        assert np.abs(dynamics._log_negativity(rho) - 1.0).max() <= 1e-15
        assert dynamics._log_negativity(rho[2]) == pytest.approx(1.0, abs=1e-15)

    def test_superpositions_of_sz_sectors_take_the_eigensolver(self):
        rng = np.random.default_rng(82)
        states = np.array([random_state(rng, 16) for _ in range(50)])
        rho = static_pair_stack(states, 2)
        values = dynamics._log_negativity(rho)
        for k in range(len(rho)):
            assert abs(values[k] - log_negativity_oracle(rho[k])) <= 1e-14
        solved = np.abs(np.linalg.eigh(linalg.partial_transpose(rho)).eigenvalues).sum(axis=-1)
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
        times = TimeGrid(t_max=30.0, n_points=201).times()
        worst = 0.0
        for make, eta, kind in itertools.product(
            (ModelSpec.xy, ModelSpec.heisenberg), (1.0, 1e3), HAMILTONIAN_KINDS
        ):
            for psi0 in labelled_starts(n_sites):
                states = _run_states(make(eta, n_sites=n_sites), kind, psi0, times)
                worst = max(worst, _residue(static_pair_stack(states, n_sites)).max())
        # every other sector of a one-sector start stays exactly zero
        assert worst == 0.0


def test_hamiltonian_kinds_are_exact_and_effective():
    assert HAMILTONIAN_KINDS == ("exact", "effective")


def _whole_matrix_evolution(h, psi, times):
    """exp(-i H t) psi for every t from one eigensolve of the whole matrix."""
    w, v = np.linalg.eigh(h)
    return (np.exp(-1j * np.outer(times, w)) * (v.conj().T @ psi)) @ v.T


def _run_states(spec, kind, psi, times):
    """The ``(T, D)`` states of a run: the amplitudes it evolves on each S_z
    sector the start occupies, and zero on every other sector."""
    states = np.zeros((len(times), len(psi)), dtype=complex)
    for _, idx, block in model._sector_blocks(spec, kind, psi):
        states[:, idx] = dynamics.evolve_on_grid(block, psi[idx], times)
    return states


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
    """The whole-matrix reference propagator, and the run's sector solves
    against it."""

    @pytest.mark.parametrize("n_sites,kind", LATTICE_KINDS)
    def test_superposition_of_every_sector_matches_whole_matrix(self, n_sites, kind, eigh_sizes):
        rng = np.random.default_rng(90 + n_sites)
        spec = ModelSpec(n_sites=n_sites, eta=3.1, j_xy=0.7, j_z=-1.3)
        h = build_hamiltonian(spec, kind)
        psi = random_state(rng, 8 * n_sites)
        times = np.linspace(0.0, 5.0, 41)
        states = _run_states(spec, kind, psi, times)
        # every sector is occupied, and the run solves each on its own
        assert sorted(eigh_sizes) == [n_sites, n_sites, 3 * n_sites, 3 * n_sites]
        assert np.abs(states - _whole_matrix_evolution(h, psi, times)).max() <= 1e-10
        # the series loses digits to cancellation as |H t| grows: check it at t = 1
        assert times[8] == 1.0
        assert np.abs(states[8] - expm_series(h, 1.0) @ psi).max() <= 1e-10

    def test_one_cross_sector_entry_evolves_whole_matrix(self, eigh_sizes):
        layout = BasisLayout(2)
        h = build_hamiltonian(ModelSpec.xy(2.0))
        sz = sz_of_basis(layout)
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

    @pytest.mark.parametrize("n_sites,kind", LATTICE_KINDS)
    def test_definite_sz_start_solves_only_its_sector(self, n_sites, kind, eigh_sizes):
        layout = BasisLayout(n_sites)
        spec = ModelSpec.heisenberg(4.0, n_sites=n_sites)
        h = build_hamiltonian(spec, kind)
        times = np.linspace(0.0, 5.0, 11)
        for psi in labelled_starts(n_sites)[:12]:  # the 12 at the first site
            (sz,) = set(sz_of_basis(layout)[psi != 0])
            del eigh_sizes[:]
            states = _run_states(spec, kind, psi, times)
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
            monkeypatch.setattr(dynamics, "_sector_blocks", build)
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

    def test_a_column_off_the_lattice_raises(self, traj):
        # position 1 is the last site of two, so P0 would read P2's values
        two_sites = traj("xy10_exact").trajectory
        for name in ("P0", "P3", "energy"):
            with pytest.raises(ValueError, match=re.escape(str(column_names(2)))):
                two_sites.column(name)
        layout = BasisLayout(3)
        state = observables(encode_state(layout, 0, "up", "down-down"), layout)
        assert state.column("P0") == 1.0 and state.column("P1") == 0.0

    def test_probabilities_and_compared_columns(self):
        probabilities = [c for c, (_, _, p, _) in COLUMNS.items() if p]
        compared = [c for c, (_, _, _, g) in COLUMNS.items() if g]
        assert probabilities == ["P1", "P2", "P0", "P_up", "F_plus", "F_minus", "F2"]
        assert compared == ["P1", "P2", "P0", "P_up", "F_plus", "F_minus", "logneg", "F2"]


def _start(n_sites, site):
    return encode_state(BasisLayout(n_sites), site, "up", "down-down")


def _analytic_at(spec, site, t_max, n_points=2):
    """analytic from |up>|down down> at ``site``, on a grid ending at ``t_max``."""
    return analytic(spec, _start(spec.n_sites, site), TimeGrid(t_max, n_points))


class TestAnalyticThreeSite:
    @pytest.mark.parametrize("kind", ["xy", "heisenberg"])
    def test_three_sites_run_at_half_the_rate(self, kind):
        # a middle start has no zero-mode part, so it turns at rate 1/4 only
        make = getattr(ModelSpec, kind)
        three = _analytic_at(make(10.0, n_sites=3), 0, 40.0, 401)
        two = _analytic_at(make(10.0, j=0.5), 1, 40.0, 401)
        assert np.array_equal(three.p_down, two.p_down)
        assert three.period == 2.0 * _analytic_at(make(10.0), 1, 40.0).period

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


class TestAnalyticTwoSite:
    def test_time_zero(self):
        for make in (ModelSpec.xy, ModelSpec.heisenberg):
            sol = _analytic_at(make(10.0), 1, 1.0)
            assert sol.p_up[0] == 1.0
            assert sol.p_down[0] == 0.0

    def test_xy_full_transfer_time(self):
        sol = _analytic_at(ModelSpec.xy(10.0), 1, math.pi / SQRT2)
        assert sol.p_down[-1] == pytest.approx(1.0, abs=1e-12)

    def test_heisenberg_peak_transfer(self):
        sol = _analytic_at(ModelSpec.heisenberg(10.0), 1, 4.0 * math.pi / 3.0)
        assert sol.p_down[-1] == pytest.approx(8.0 / 9.0, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        for make in (ModelSpec.xy, ModelSpec.heisenberg):
            sol = _analytic_at(make(10.0), 1, 40.0, 500)
            assert np.abs(sol.p_up + sol.p_down - 1.0).max() <= 1e-12

    def test_coupling_scale(self):
        sol = _analytic_at(ModelSpec.xy(10.0, j=2.0), 1, math.pi / (2.0 * SQRT2))
        assert sol.p_down[-1] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_a_start_of_another_lattice(self):
        with pytest.raises(ValueError, match="does not match layout dim 16"):
            analytic(ModelSpec.xy(10.0), _start(3, 0))
        with pytest.raises(ValueError, match="not normalized"):
            analytic(ModelSpec.xy(10.0), 2.0 * _start(2, 1))

    def test_solution_carries_period(self):
        sol = _analytic_at(ModelSpec.xy(10.0), 1, 1.0)
        assert isinstance(sol, AnalyticSolution)
        assert sol.period == pytest.approx(2.0 * SQRT2 * math.pi)


class TestAnalyticPeriod:
    def test_reference_values(self):
        assert _analytic_at(ModelSpec.xy(10.0), 1, 1.0).period == pytest.approx(
            2 * SQRT2 * math.pi
        )
        assert _analytic_at(ModelSpec.heisenberg(10.0), 1, 1.0).period == pytest.approx(
            16 * math.pi / 3
        )
        for site in (0, 1, 2):  # every three-site start occupies the rate 1/4
            assert _analytic_at(ModelSpec.xy(10.0, n_sites=3), site, 1.0).period == (
                pytest.approx(4 * SQRT2 * math.pi)
            )
        assert _analytic_at(ModelSpec.heisenberg(10.0, n_sites=3), 0, 1.0).period == (
            pytest.approx(32 * math.pi / 3)
        )

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

    @pytest.mark.parametrize("n_sites", [2, 3])
    def test_every_one_site_start_keeps_its_period(self, n_sites):
        # two sites turn at rate 1/2; every one-site start on three sites
        # occupies the +-eta modes, at rate 1/4
        spec = ModelSpec(n_sites=n_sites, eta=10.0, j_xy=0.7, j_z=-0.3)
        omega = math.hypot(SQRT2 * 0.7, -0.3 / 4.0)
        rate = 0.5 if n_sites == 2 else 0.25
        for psi in labelled_starts(n_sites):
            period = analytic(spec, psi, TimeGrid(1.0, 2)).period
            assert period == pytest.approx(2 * math.pi / (rate * omega), rel=1e-15)

    def test_scales_inversely_with_coupling(self):
        assert _analytic_at(ModelSpec.xy(10.0, j=2.0), 1, 1.0).period == pytest.approx(
            SQRT2 * math.pi
        )

    @pytest.mark.parametrize("kind", ["xy", "heisenberg"])
    @pytest.mark.parametrize("lattice", ["two_sites", "three_sites_middle"])
    def test_negative_coupling_gives_the_same_period(self, kind, lattice):
        # the populations are even in the couplings, so the cycle depends on |j| only
        n_sites, site = {"two_sites": (2, 1), "three_sites_middle": (3, 0)}[lattice]
        make = getattr(ModelSpec, kind)
        assert (
            _analytic_at(make(10.0, j=-1.0, n_sites=n_sites), site, 1.0).period
            == _analytic_at(make(10.0, j=1.0, n_sites=n_sites), site, 1.0).period
        )

    def test_largest_coupling_gives_a_positive_period(self):
        # close to the largest coupling the run preconditions accept at t_max = 1
        period = _analytic_at(ModelSpec.heisenberg(10.0, j=2e307, n_sites=3), 0, 1.0).period
        assert period == pytest.approx(32.0 * math.pi / 3.0 / 2e307, rel=1e-15)
        assert period > 0.0

    def test_rejects_an_overflowing_energy_scale(self):
        with pytest.raises(ValueError, match="energy scale .* overflows"):
            _analytic_at(ModelSpec.heisenberg(10.0, j=-1e308), 1, 30.0)


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
    h = build_hamiltonian(spec, "effective")
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


class TestInvariants:
    def test_effective_trajectory_stays_in_doublet(self, traj):
        run = traj("xy10_eff")
        h = build_hamiltonian(run.spec, run.kind)
        states = evolve_on_grid(h, run.initial, run.times)
        leakage = 1.0 - doublet_populations(states, run.layout.n_sites).sum(axis=1)
        assert np.abs(leakage).max() <= 1e-9

    def test_effective_middle_start_never_populates_antisymmetric_mode(self, traj):
        run = traj("mid3_eff")
        h = build_hamiltonian(run.spec, run.kind)
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
        (lambda: analytic(ModelSpec(2, 10.0), _start(2, 1)), "nonzero coupling"),
        (
            lambda: analytic(ModelSpec.heisenberg(10.0, j=0, n_sites=3), _start(3, 0)),
            "nonzero coupling",
        ),
        (lambda: analytic(ModelSpec.xy(10.0, j=math.nan), _start(2, 1)), "must be finite"),
        (
            lambda: analytic(ModelSpec.xy(10.0, j=0.0), _start(2, 1), TimeGrid(1.0, 2)),
            "nonzero coupling",
        ),
        (
            lambda: analytic(ModelSpec.heisenberg(10.0, j=math.inf), _start(2, 1)),
            "must be finite",
        ),
    ],
    ids=[
        "bool-site", "float-site", "xy-period-j0", "heisenberg-period-j0", "period-j-nan",
        "two-site-j0", "two-site-j-inf",
    ],
)
def test_library_edge_inputs_raise_value_error(call, message):
    # True == 1 and 1.0 == 1 would pass as site label 1; a chain without a
    # coupling has no period, and no spec carries a non-finite coupling
    with pytest.raises(ValueError, match=message):
        call()
