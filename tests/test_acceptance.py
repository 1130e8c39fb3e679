"""Acceptance suite: one test per criterion, each printing a PASS line.

The criteria are the one place where the paper's claims are asserted: the
regimes of the two-site dynamics, the effective three-spin chain, quantum
state transfer and the conservation laws of those runs.  The unit tests
check mechanics: shapes, messages, call counts and agreement with oracles.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import math

import numpy as np
import pytest

from spinhop import (
    BasisLayout,
    ModelSpec,
    TimeGrid,
    conservation_monitor,
    encode_state,
    estimate_period,
    hermitian_eigensystem,
    log_negativity,
    observables,
    run_trajectory,
)
from spinhop.cli import main
from spinhop.dynamics import analytic

from helpers import (
    BELL_PLUS,
    partial_trace_oracle_keep_last_two,
    random_hermitian,
    random_state,
    series,
)

SQRT2 = math.sqrt(2.0)


def _ok(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_xy_strong_hopping(traj):
    run = traj("xy10_exact")
    f_plus = series(run.trajectory, "f_plus")
    f_minus = series(run.trajectory, "f_minus")
    logneg = series(run.trajectory, "logneg")
    assert f_minus.max() <= 0.02
    assert f_plus.max() >= 0.98
    assert logneg[int(f_plus.argmax())] >= 0.98
    period = estimate_period(run.times, f_plus)
    target = 2.0 * SQRT2 * math.pi
    assert abs(period - target) / target <= 0.02
    _ok(
        1,
        f"XY eta/J=10: max F-={f_minus.max():.4f} <= 0.02, "
        f"max F+={f_plus.max():.4f} >= 0.98, E at F+ peak "
        f"{logneg[int(f_plus.argmax())]:.4f} >= 0.98, period err "
        f"{abs(period - target) / target:.2%} <= 2%",
    )


def test_criterion_2_xy_intermediate_regime(traj):
    f_minus = series(traj("xy1_exact").trajectory, "f_minus")
    assert f_minus.max() > 0.3
    _ok(2, f"XY eta/J=1: max F-={f_minus.max():.4f} > 0.3")


def test_criterion_3_heisenberg_strong_hopping(traj):
    run = traj("heis10_exact")
    f_plus = series(run.trajectory, "f_plus")
    assert f_plus.max() == pytest.approx(8.0 / 9.0, abs=0.02)
    period = estimate_period(run.times, f_plus)
    target = 16.0 * math.pi / 3.0
    assert abs(period - target) / target <= 0.02
    _ok(
        3,
        f"Heisenberg eta/J=10: max F+={f_plus.max():.4f} = 8/9 +- 0.02, "
        f"period err {abs(period - target) / target:.2%} <= 2%",
    )


def test_criterion_4_quantum_state_transfer(traj):
    xy = traj("qst_xy20").trajectory
    f2_xy = series(xy, "f2")
    f2_heis = series(traj("qst_heis20").trajectory, "f2")
    t_peak = xy.t[int(f2_xy.argmax())]
    assert abs(f2_xy[0]) <= 1e-14
    assert f2_xy.max() >= 0.99
    assert abs(t_peak - SQRT2 * math.pi) <= 0.2
    assert 0.70 <= f2_heis.max() <= 0.77
    _ok(
        4,
        f"QST eta/J=20: XY F2(0)={f2_xy[0]:.1e}, max F2={f2_xy.max():.4f} >= 0.99 "
        f"at t={t_peak:.3f} (sqrt(2) pi +- 0.2), "
        f"Heisenberg max F2={f2_heis.max():.4f} in [0.70, 0.77]",
    )


def test_criterion_5_effective_matches_analytic(traj):
    worst = 0.0
    for name in ("xy10_eff", "heis10_eff", "mid3_eff"):
        run = traj(name)
        sol = analytic(run.spec, run.initial, run.grid)
        gap_up = np.abs(series(run.trajectory, "p_up") - sol.p_up).max()
        gap_down = np.abs(series(run.trajectory, "f_plus") - sol.p_down).max()
        assert gap_up <= 1e-9
        assert gap_down <= 1e-9
        worst = max(worst, gap_up, gap_down)
    _ok(5, f"effective-model probabilities match closed form: worst gap {worst:.2e} <= 1e-9")


def test_criterion_6_conservation_suite(traj):
    for name in ("xy1_exact", "xy10_exact", "heis10_exact", "qst_xy20", "mid3_exact"):
        trajectory = traj(name).trajectory
        report = conservation_monitor(trajectory)
        energy_scale = max(1.0, abs(trajectory.energy[0]))
        assert np.abs(trajectory.norm - 1.0).max() <= 1e-9
        assert report.norm_drift <= 1e-9
        assert report.energy_drift <= 1e-9 * energy_scale
        assert report.sz_drift <= 1e-9
    for name in ("xy10_eff", "heis10_eff", "mid3_eff"):
        assert conservation_monitor(traj(name).trajectory).s12_sq_drift <= 1e-9
    drift = conservation_monitor(traj("xy1_exact").trajectory).s12_sq_drift
    assert drift > 0.1
    _ok(
        6,
        "|norm - 1| and norm/<H>/<Sz> drift <= 1e-9 on exact runs, <S12^2> drift <= 1e-9 on "
        f"effective runs and {drift:.3f} > 0.1 at eta/J=1",
    )


def _mixture_gap(run):
    """Largest gap of ``P_up`` and ``F_plus`` to the mode-weighted closed form."""
    sol = analytic(run.spec, run.initial, run.grid)
    return max(
        np.abs(series(run.trajectory, "p_up") - sol.p_up).max(),
        np.abs(series(run.trajectory, "f_plus") - sol.p_down).max(),
    )


def test_criterion_7_three_site_middle_start(traj):
    chain = series(traj("mid3_eff").trajectory, "f_plus")
    middle = series(traj("mid3_exact").trajectory, "f_plus")
    side = series(traj("side3_exact").trajectory, "f_plus")
    times = traj("mid3_exact").times
    mid_gap = np.abs(middle - chain).max()
    side_gap = np.abs(side - chain).max()
    assert mid_gap <= 0.05
    assert side_gap >= 0.1
    period = estimate_period(times, middle)
    target = 4.0 * SQRT2 * math.pi
    assert abs(period - target) / target <= 0.03
    # a side start follows the mixture of its kinetic modes instead: the
    # chain at rate 1/2 in the zero mode and at 1/4 in the +-eta modes
    mixture_gaps = [_mixture_gap(traj(name)) for name in ("side3_exact", "side3_exact100")]
    assert mixture_gaps[0] <= 0.05
    assert mixture_gaps[1] <= 2e-3
    _ok(
        7,
        f"three-site eta/J=10: middle-start follows the quarter-coupling chain "
        f"(gap {mid_gap:.4f} <= 0.05, period err {abs(period - target) / target:.2%} "
        f"<= 3%), side-start does not (gap {side_gap:.3f} >= 0.1) but follows the "
        f"mode mixture (gap {mixture_gaps[0]:.4f} <= 0.05; {mixture_gaps[1]:.1e} <= 2e-3 "
        f"at eta/J=100)",
    )


def test_criterion_8_motional_decoupling():
    # pointwise match to the free-hopping law over ten hop cycles; longer
    # windows accumulate a real second-order frequency shift (see notes)
    spec = ModelSpec.xy(10.0)
    grid = TimeGrid(t_max=math.pi, n_points=2001)
    initial = encode_state(BasisLayout(2), 1, "up", "down-down")
    p1 = run_trajectory(spec, "exact", initial, grid).p_site[:, 0]
    deviation = np.abs(p1 - np.cos(spec.eta * grid.times()) ** 2).max()
    assert deviation <= 0.05
    _ok(
        8,
        f"eta/J=10: max |P1 - cos^2(eta t)| = {deviation:.4f} <= 0.05 over ten hop periods",
    )


def test_criterion_9_linear_algebra_properties():
    rng = np.random.default_rng(2024)
    worst_recon = 0.0
    for n in (2, 5, 9, 16, 24):
        m = random_hermitian(rng, n)
        eig = hermitian_eigensystem(m)
        recon = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.conj().T
        worst_recon = max(worst_recon, np.abs(recon - m).max() / np.abs(m).max())
    assert worst_recon <= 1e-9

    # the program's static-pair reduction, read through F+ and F2, against
    # the brute-force partial trace
    worst_pt = 0.0
    for _ in range(5):
        psi = random_state(rng, 16)
        rho12 = partial_trace_oracle_keep_last_two(np.outer(psi, psi.conj()), (2, 2, 2, 2))
        obs = observables(psi, BasisLayout(2))
        f_plus = (BELL_PLUS.conj() @ rho12 @ BELL_PLUS).real
        worst_pt = max(worst_pt, abs(obs.f_plus - f_plus), abs(obs.f2 - rho12[2, 2].real))
    assert worst_pt <= 1e-12

    bell_e = log_negativity(np.outer(BELL_PLUS, BELL_PLUS.conj()))
    assert abs(bell_e - 1.0) <= 1e-9
    _ok(
        9,
        f"eigen reconstruction {worst_recon:.2e} <= 1e-9 rel, partial-trace "
        f"oracle gap {worst_pt:.2e}, Bell negativity err {abs(bell_e - 1.0):.2e} <= 1e-9",
    )


def test_criterion_10_deterministic_csv(tmp_path):
    config = {
        "model": {"n_sites": 2, "eta": 10.0, "preset": "xy"},
        "initial": {"site": 1, "e_spin": "up", "static": "down-down"},
        "run": {"hamiltonian": "exact", "t_max": 30.0, "n_points": 501},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert main(["simulate", str(path), "--out", str(out1)]) == 0
    assert main(["simulate", str(path), "--out", str(out2)]) == 0
    blob1, blob2 = out1.read_bytes(), out2.read_bytes()
    assert blob1 == blob2
    _ok(10, f"two simulate runs emitted byte-identical CSV ({len(blob1)} bytes)")
