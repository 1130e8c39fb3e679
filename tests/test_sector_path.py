"""The sector-by-sector run against a whole-space reference.

A run evolves each S_z sector its start occupies on that sector's
amplitudes alone and reads its observables sector by sector; a start with
one total S_z gets its log-negativity in closed form.  Every field of
``run_trajectory``, its ``conservation_monitor`` report and
``compare_exact_effective``'s report must equal what the whole-space
reference gives on the same run: the ``(T, D)`` states of the explicit
per-sector reference ``helpers.sector_evolution`` through ``observables``,
with the energy contracted with ``build_hamiltonian``'s whole matrix, and
for ``compare`` the state fidelities taken on the whole space, or on the
spin-reduced state of a start with no weight on the zero kinetic mode.  The
reference solves each sector of that matrix on its own, as the run does: a
solve of the whole matrix differs from it by eps * eta * t.
"""

from dataclasses import astuple

import numpy as np
import pytest

from spinhop import dynamics, linalg
from spinhop.analysis import compare_exact_effective, conservation_monitor
from spinhop.dynamics import (
    COLUMNS,
    TimeGrid,
    column_names,
    observables,
    run_trajectory,
)
from spinhop.model import (
    _STATIC_PRESETS,
    HAMILTONIAN_KINDS,
    BasisLayout,
    ModelSpec,
    build_hamiltonian,
    encode_state,
)

from helpers import random_state, sector_evolution, two_sector_start

TOL = 1e-13
EPS = np.finfo(float).eps
GRID = TimeGrid(t_max=30.0, n_points=41)
COUPLINGS = {"xy": (1.0, 0.0), "heisenberg": (0.5, 1.0), "custom": (0.7, -0.3)}
RATIOS = (1.0, 10.0, 1e3)
FIELDS = (
    "p_site", "p_up", "f_plus", "f_minus", "logneg", "f2", "sz_total", "s12_sq", "norm", "energy"
)


def _specs(n_sites, coupling, kind):
    """One spec per eta/J of RATIOS, and eta = 0 for the exact kind."""
    j_xy, j_z = COUPLINGS[coupling]
    j = abs(j_z if j_z != 0.0 else j_xy)
    etas = [ratio * j for ratio in RATIOS] + ([0.0] if kind == "exact" else [])
    return [ModelSpec(n_sites=n_sites, eta=eta, j_xy=j_xy, j_z=j_z) for eta in etas]


def _one_sector_starts(n_sites):
    """All 12 start labels at every site."""
    layout = BasisLayout(n_sites)
    return [
        encode_state(layout, site, e_spin, static)
        for site in layout.site_labels()
        for e_spin in ("up", "down")
        for static in _STATIC_PRESETS
    ]


def _whole_space_trajectory(spec, kind, psi):
    layout, h, times = BasisLayout(spec.n_sites), build_hamiltonian(spec, kind), GRID.times()
    return observables(sector_evolution(layout, h, psi, times), layout, times, h)


def _whole_space_report(spec, psi):
    """(max state infidelity, gaps) of compare, every state on the whole space;
    a three-site start with no weight on the zero mode (1, 0, -1) ⊗ I8 has
    its fidelity taken on the spin-reduced state."""
    layout = BasisLayout(spec.n_sites)
    times = GRID.times()
    exact = sector_evolution(layout, build_hamiltonian(spec), psi, times)
    eff = sector_evolution(layout, build_hamiltonian(spec, "effective"), psi, times)
    if spec.n_sites == 3 and not (np.kron([1.0, 0.0, -1.0], np.eye(8)) @ psi).any():
        split = (len(times), layout.n_sites, 8)
        overlaps = np.einsum("txa,tya->txy", exact.reshape(split).conj(), eff.reshape(split))
        fidelity = (np.abs(overlaps) ** 2).sum(axis=(1, 2))
    else:
        fidelity = np.abs(np.einsum("ij,ij->i", exact.conj(), eff)) ** 2
    a, b = observables(exact, layout), observables(eff, layout)
    gaps = {
        name: float(np.abs(a.column(name) - b.column(name)).max())
        for name in column_names(layout.n_sites)
        if COLUMNS[name][3]
    }
    return float((1.0 - fidelity).max()), gaps


@pytest.fixture
def pair_stacks(monkeypatch):
    """Calls, by name, to the static pair's stack log-negativity and to the
    eigenvalue solve behind it; a name is missing until it is called."""
    calls = {}

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(dynamics, "_log_negativity")
    counting(linalg, "_eigenvalues")
    return calls


def _lattice_kinds():
    return [(n_sites, kind) for n_sites in (2, 3) for kind in HAMILTONIAN_KINDS]


@pytest.mark.parametrize("coupling", list(COUPLINGS))
@pytest.mark.parametrize("n_sites,kind", _lattice_kinds())
def test_run_trajectory_matches_the_whole_space_path(n_sites, kind, coupling, pair_stacks):
    worst = dict.fromkeys((*FIELDS, "report"), 0.0)
    for spec in _specs(n_sites, coupling, kind):
        for psi in _one_sector_starts(n_sites):
            pair_stacks.clear()
            got = run_trajectory(spec, kind, psi, GRID)
            assert pair_stacks == {}  # no pair stack is formed
            want = _whole_space_trajectory(spec, kind, psi)
            assert got.t is want.t
            for field in FIELDS:
                gap = np.abs(getattr(got, field) - getattr(want, field)).max()
                worst[field] = max(worst[field], gap)
            drifts = zip(astuple(conservation_monitor(got)), astuple(conservation_monitor(want)))
            worst["report"] = max(worst["report"], *(abs(a - b) for a, b in drifts))
    assert max(worst.values()) <= TOL, worst


@pytest.mark.parametrize("coupling", list(COUPLINGS))
@pytest.mark.parametrize("n_sites", [2, 3])
def test_compare_matches_the_whole_space_path(n_sites, coupling, pair_stacks):
    for spec in _specs(n_sites, coupling, "effective"):
        for psi in _one_sector_starts(n_sites):
            pair_stacks.clear()
            report = compare_exact_effective(spec, psi, GRID)
            assert pair_stacks == {}
            infidelity, gaps = _whole_space_report(spec, psi)
            assert report.eta_over_j == spec.eta / spec.j_ref
            assert abs(report.max_state_infidelity - infidelity) <= TOL
            assert list(report.max_observable_gap) == list(gaps)
            for name, gap in gaps.items():
                assert abs(report.max_observable_gap[name] - gap) <= TOL, name


@pytest.mark.parametrize("n_sites,kind", _lattice_kinds())
def test_a_start_spanning_two_sectors_takes_the_whole_space_path(n_sites, kind, pair_stacks):
    spec = ModelSpec(n_sites=n_sites, eta=10.0, j_xy=0.7, j_z=-0.3)
    rng = np.random.default_rng(5)
    for psi in (two_sector_start(BasisLayout(n_sites)), random_state(rng, 8 * n_sites)):
        pair_stacks.clear()
        got = run_trajectory(spec, kind, psi, GRID)
        # the pair stack is formed and, its blocks coupled, solved in general
        assert pair_stacks == {"_log_negativity": 1, "_eigenvalues": 1}
        want = _whole_space_trajectory(spec, kind, psi)
        for field in (f for f in FIELDS if f != "energy"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        # the run adds each block's <psi_s|H_s|psi_s>, the reference contracts
        # the whole matrix: the same terms, summed in another order
        gap = np.abs(got.energy - want.energy).max()
        assert gap <= 16 * EPS * (spec.eta + abs(spec.j_xy) + abs(spec.j_z)), gap


@pytest.mark.parametrize("n_sites", [2, 3])
def test_compare_of_a_start_spanning_two_sectors_matches_the_whole_space_path(n_sites):
    spec = ModelSpec.xy(10.0, n_sites=n_sites)
    psi = two_sector_start(BasisLayout(n_sites))
    report = compare_exact_effective(spec, psi, GRID)
    infidelity, gaps = _whole_space_report(spec, psi)
    assert report.max_state_infidelity == infidelity
    assert report.max_observable_gap == gaps
