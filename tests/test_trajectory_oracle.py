"""Whole trajectories against an mpmath oracle, over the accepted eta/J range.

Each example runs |up>|down down> at site 1, and on three sites also at the
middle site, on a 41-point grid to t = 30, under both kinds and both
presets, at eta/J from 0 (exact only) to 1e10.  A ``hypothesis`` property
draws the rest of the range from the configs of ``simulate_configs``:
couplings from 5e-324 up to +-1e290, every start label, complex
superpositions spanning several sectors, eta/J from 0 to 1e10 and t_max up
to 1e10; a run the preconditions refuse must raise.  The reference solves
each S_z block the start occupies of the Kronecker oracle's Hamiltonian
with ``mpmath.eigh`` at 30 + log10(max(1, scale * t_max)) digits,
propagates it at that precision and reads every ``Trajectory`` field off
the states rounded to floats through the explicit oracles of ``helpers``;
the energy is sum_k w_k |c_k|^2 over the blocks at full precision.  Every field stays within
C * eps * (scale * max(t_max, 1) + 4), scale = eta + |j_xy| + |j_z|: the
rounding of the phases E * t, plus a floor for the eigensolve and the
observables.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinhop.dynamics import TimeGrid, run_trajectory
from spinhop.model import HAMILTONIAN_KINDS, BasisLayout, ModelSpec, encode_state

from helpers import (
    BELL_MINUS,
    BELL_PLUS,
    collective_spin_oracle,
    hamiltonian_oracle,
    log_negativity_oracle,
    simulate_configs,
    static_pair_stack,
    sz_of_basis,
)

EPS = np.finfo(float).eps
# |field - oracle| <= ORACLE_C * eps * (scale * max(t_max, 1) + 4); the
# largest read is 1.8 eps * (...), in P0 of an effective middle start at
# eta/J = 1e10, and the logneg, s12_sq and p_up fields read up to 1.0
ORACLE_C = 16
GRID = TimeGrid(t_max=30.0, n_points=41)
RATIOS = (0.0, 1e-6, 1.0, 1e2, 1e6, 1e10)
STARTS = [(2, 1), (3, 1), (3, 0)]  # (n_sites, site label)


def _oracle_run(spec, kind, psi, times):
    """The ``(T, D)`` states exp(-i H t) psi, rounded to floats, and the
    energy, from an mpmath solve of each S_z block ``psi`` occupies."""
    n_sites = spec.n_sites
    h = hamiltonian_oracle(n_sites, spec.eta, spec.j_xy, spec.j_z, kind)
    sz = sz_of_basis(BasisLayout(n_sites))
    scale = spec.eta + abs(spec.j_xy) + abs(spec.j_z)
    digits = 30 + math.ceil(math.log10(max(1.0, scale * times[-1])))
    states = np.zeros((len(times), len(psi)), dtype=complex)
    with mpmath.workdps(digits):
        energy = mpmath.mpf(0)
        for value in np.unique(sz):
            idx = np.flatnonzero(sz == value)
            if not psi[idx].any():
                continue
            block = mpmath.matrix(
                [[mpmath.mpc(z.real, z.imag) for z in row] for row in h[np.ix_(idx, idx)]]
            )
            w, v = mpmath.eigh(block)
            c = v.H * mpmath.matrix([mpmath.mpc(z.real, z.imag) for z in psi[idx]])
            energy += sum(w[k] * abs(c[k]) ** 2 for k in range(len(idx)))
            for i, t in enumerate(times):
                phased = mpmath.matrix([mpmath.expj(-w[k] * t) * c[k] for k in range(len(idx))])
                states[i, idx] = [complex(z) for z in v * phased]
        energy = float(energy)
    return states, energy


def _oracle_fields(states, n_sites):
    """Every ``Trajectory`` field but ``t`` and ``energy`` of a ``(T, D)``
    stack of states, by the explicit oracles."""
    prob = np.abs(states.reshape(len(states), n_sites, 2, 4)) ** 2
    rho12 = static_pair_stack(states, n_sites)
    sz, s12_sq = collective_spin_oracle(n_sites)

    def expectation(op):
        return np.einsum("ti,ij,tj->t", states.conj(), op, states).real

    def fidelity(pair):
        return np.einsum("i,tij,j->t", pair.conj(), rho12, pair).real

    return {
        "p_site": prob.sum(axis=(2, 3)),
        "p_up": prob[:, :, 0].sum(axis=(1, 2)),
        "f_plus": fidelity(BELL_PLUS),
        "f_minus": fidelity(BELL_MINUS),
        "logneg": np.array([log_negativity_oracle(r) for r in rho12]),
        "f2": rho12[:, 2, 2].real,  # |down up>: the excitation at static spin 2
        "sz_total": expectation(sz),
        "s12_sq": expectation(s12_sq),
        "norm": np.linalg.norm(states, axis=1),
    }


def _oracle_ratios(spec, kind, psi, grid):
    """Each field's largest gap to the oracle over the bound."""
    run = run_trajectory(spec, kind, psi, grid)
    states, energy = _oracle_run(spec, kind, psi, grid.times())
    want = {**_oracle_fields(states, spec.n_sites), "t": grid.times(), "energy": energy}
    scale = spec.eta + abs(spec.j_xy) + abs(spec.j_z)
    bound = ORACLE_C * EPS * (scale * max(grid.t_max, 1.0) + 4.0)
    return {k: np.abs(getattr(run, k) - value).max() / bound for k, value in want.items()}


# the effective kind rejects eta = 0, which does not separate the kinetic modes
EXAMPLES = [
    (n_sites, site, kind, ratio)
    for n_sites, site in STARTS
    for kind in HAMILTONIAN_KINDS
    for ratio in RATIOS
    if not (kind == "effective" and ratio == 0.0)
]


@pytest.mark.parametrize("preset", ["xy", "heisenberg"])
@pytest.mark.parametrize("n_sites, site, kind, ratio", EXAMPLES)
def test_trajectory_matches_the_mpmath_oracle(n_sites, site, kind, ratio, preset):
    psi = encode_state(BasisLayout(n_sites), site, "up", "down-down")
    spec = getattr(ModelSpec, preset)(ratio, n_sites=n_sites)  # J = 1
    ratios = _oracle_ratios(spec, kind, psi, GRID)
    assert max(ratios.values()) <= 1.0, {k: f"{v:.2g}" for k, v in ratios.items() if v > 1.0}


_LABELLED = encode_state(BasisLayout(2), 1, "up", "down-down")


@st.composite
def _starts(draw, cfg):
    """The config's labelled start, or it plus complex amplitudes on one to
    three basis states of other S_z sectors, normalised."""
    n_sites = cfg["model"]["n_sites"]
    initial = cfg["initial"]
    psi = encode_state(BasisLayout(n_sites), initial["site"], initial["e_spin"], initial["static"])
    sz = sz_of_basis(BasisLayout(n_sites))
    others = np.flatnonzero(sz != sz[np.flatnonzero(psi)[0]]).tolist()
    extra = draw(st.lists(st.sampled_from(others), max_size=3, unique=True))
    moduli = st.floats(1e-3, 1.0)
    phases = st.floats(0.0, 2.0 * math.pi)
    psi = psi * draw(moduli) * np.exp(1j * draw(phases))
    for i in extra:
        psi[i] = draw(moduli) * np.exp(1j * draw(phases))
    return psi / np.linalg.norm(psi)


@st.composite
def _runs(draw):
    """A config of ``simulate_configs`` as a spec, kind and start, on a
    41-point grid to its t_max."""
    cfg = draw(simulate_configs())
    model, run = dict(cfg["model"]), cfg["run"]
    spec = ModelSpec.from_preset(model.pop("preset"), model.pop("n_sites"), **model)
    grid = TimeGrid(t_max=run["t_max"], n_points=GRID.n_points)
    return spec, run["hamiltonian"], draw(_starts(cfg)), grid


# ~70 ms per example; the largest ratio read over 1500 examples is 0.59, in
# the logneg of a three-site effective run at eta/J ~ 1 with j_xy = 1e-300
@settings(max_examples=80, deadline=None)
@given(_runs())
@example((ModelSpec.xy(0.0), "effective", _LABELLED, GRID))  # no hopping
@example((ModelSpec.xy(1e300, j=1e290), "exact", _LABELLED, TimeGrid(1e10, 41)))  # overflows
def test_any_run_the_preconditions_accept_matches_the_mpmath_oracle(run):
    # a run the preconditions refuse (effective at eta = 0, or phases that
    # overflow) must raise, not be drawn past
    spec, kind, psi, grid = run
    scale = spec.eta + abs(spec.j_xy) + abs(spec.j_z)
    if (kind == "effective" and spec.eta == 0.0) or math.isinf(2.0 * scale * max(grid.t_max, 1.0)):
        with pytest.raises(ValueError, match=r"overflows$|^effective requires eta > 0"):
            run_trajectory(spec, kind, psi, grid)
        return
    ratios = _oracle_ratios(spec, kind, psi, grid)
    assert max(ratios.values()) <= 1.0, {k: f"{v:.2g}" for k, v in ratios.items() if v > 1.0}
