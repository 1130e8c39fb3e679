"""The sector-by-sector run against a whole-space reference.

A run evolves each S_z sector its start occupies on that sector's
amplitudes alone and reads its observables sector by sector; a start with
one total S_z gets its log-negativity in closed form.  Every field of
``run_trajectory``, its ``conservation_monitor`` report and
``compare_exact_effective``'s report must equal what the whole-space
reference gives on the same run: the ``(T, D)`` states of the explicit
per-sector reference ``helpers.sector_evolution`` through ``observables``,
with the energy contracted with the whole matrix of
``helpers.hamiltonian_oracle``, bit for bit the run's blocks and zeros, and
for ``compare`` the state fidelities taken on the whole space, or on the
spin-reduced state of a start with no weight on the zero kinetic mode.  The
reference solves each sector of that matrix on its own, as the run does: a
solve of the whole matrix differs from it by eps * eta * t.  Which blocks a
run forms is held by rows of ``test_library_contract``.
"""

from dataclasses import astuple

import numpy as np
import pytest

from spinhop.analysis import compare_exact_effective, conservation_monitor
from spinhop.dynamics import (
    COLUMNS,
    TimeGrid,
    column_names,
    observables,
    run_trajectory,
)
from spinhop.model import BasisLayout, ModelSpec

from helpers import (
    COUPLINGS,
    LATTICE_KINDS,
    coupling_specs,
    hamiltonian_oracle,
    labelled_starts,
    random_state,
    sector_evolution,
    two_sector_start,
)

TOL = 1e-13
EPS = np.finfo(float).eps
GRID = TimeGrid(t_max=30.0, n_points=41)
RATIOS = (1.0, 10.0, 1e3)
FIELDS = (
    "p_site", "p_up", "f_plus", "f_minus", "logneg", "f2", "sz_total", "s12_sq", "norm", "energy"
)


def _whole_space_trajectory(spec, kind, psi):
    layout, h, times = BasisLayout(spec.n_sites), hamiltonian_oracle(spec, kind), GRID.times()
    return observables(sector_evolution(layout, h, psi, times), layout, times, h)


def _whole_space_report(spec, psi):
    """(max state infidelity, gaps) of compare, every state on the whole space;
    a three-site start with no weight on the zero mode (1, 0, -1) ⊗ I8 has
    its fidelity taken on the spin-reduced state."""
    layout = BasisLayout(spec.n_sites)
    times = GRID.times()
    exact = sector_evolution(layout, hamiltonian_oracle(spec), psi, times)
    eff = sector_evolution(layout, hamiltonian_oracle(spec, "effective"), psi, times)
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


@pytest.mark.parametrize("coupling", list(COUPLINGS))
@pytest.mark.parametrize("n_sites,kind", LATTICE_KINDS)
def test_run_trajectory_matches_the_whole_space_path(n_sites, kind, coupling):
    worst = dict.fromkeys((*FIELDS, "report"), 0.0)
    for spec in coupling_specs(n_sites, coupling, kind, RATIOS):
        for psi in labelled_starts(n_sites):
            got = run_trajectory(spec, kind, psi, GRID)
            want = _whole_space_trajectory(spec, kind, psi)
            assert got.t is GRID.times() and np.array_equal(want.t, got.t)
            for field in FIELDS:
                gap = np.abs(getattr(got, field) - getattr(want, field)).max()
                worst[field] = max(worst[field], gap)
            drifts = zip(astuple(conservation_monitor(got)), astuple(conservation_monitor(want)))
            worst["report"] = max(worst["report"], *(abs(a - b) for a, b in drifts))
    assert max(worst.values()) <= TOL, worst


@pytest.mark.parametrize("coupling", list(COUPLINGS))
@pytest.mark.parametrize("n_sites", [2, 3])
def test_compare_matches_the_whole_space_path(n_sites, coupling):
    for spec in coupling_specs(n_sites, coupling, "effective", RATIOS):
        for psi in labelled_starts(n_sites):
            report = compare_exact_effective(spec, psi, GRID)
            infidelity, gaps = _whole_space_report(spec, psi)
            assert abs(report.max_state_infidelity - infidelity) <= TOL
            assert list(report.max_observable_gap) == list(gaps)
            for name, gap in gaps.items():
                assert abs(report.max_observable_gap[name] - gap) <= TOL, name


@pytest.mark.parametrize("start", ["two-sector", "random"])
@pytest.mark.parametrize("n_sites,kind", LATTICE_KINDS)
def test_a_start_spanning_two_sectors_takes_the_whole_space_path(n_sites, kind, start):
    spec = ModelSpec(n_sites=n_sites, eta=10.0, j_xy=0.7, j_z=-0.3)
    if start == "two-sector":
        psi = two_sector_start(BasisLayout(n_sites))
    else:
        psi = random_state(np.random.default_rng(5), 8 * n_sites)
    got = run_trajectory(spec, kind, psi, GRID)
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
