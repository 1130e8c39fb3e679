"""The paper's central claim, checked on the spectrum: each kinetic band of the
exact Hamiltonian is the effective three-spin chain, to O(J^2/eta).

The hopping splits the lattice into kinetic modes at -eta, 0 and +eta (the
zero mode on three sites only).  At strong hopping the eight exact
eigenstates of band b, with |w - eta_b| < eta/2, lie close to
|mode b> ⊗ spin.  Their projections onto that subspace, made orthonormal by
the polar factor of an SVD (des Cloizeaux), give the band Hamiltonian
h_b = U diag(w - eta_b) U^†.  The effective kind's block on mode b, less
eta_b, is the chain: the mode's rate times the collective coupling.  The
effective kind is the first-order term, the band-diagonal part
sum_b P_b H P_b of the exact Hamiltonian, to rounding.  Both kinds' whole
matrices are ``helpers.hamiltonian_oracle``'s, which
``test_model.TestBuilderOracle`` holds bit for bit to the blocks runs solve.

Second-order Schrieffer-Wolff theory (Bravyi, DiVincenzo and Loss,
arXiv:1105.0675) gives h_b - h_chain as the sum over the other bands b' of
P_b V P_b' V P_b / (eta_b - eta_b'), V the contact coupling, up to
O(J^3/eta^2).  On the +-eta bands that term has the norm c J^2/eta; on the
zero band of three sites it vanishes, and the distance falls as
c J^3/eta^2 instead.  The test reads c at eta/J = 1e2, 1e3 and 1e4.  At
eta/J = 10 higher orders still show: two-site Heisenberg reads 0.0961,
2.5 % off its 3/32.
"""

import itertools
import math

import numpy as np
import pytest

from spinhop.model import ModelSpec

from helpers import KINETIC_MODES, hamiltonian_oracle, mode_lift, second_order_shift

SQRT2 = math.sqrt(2.0)
RATIOS = (1e2, 1e3, 1e4)
# (lattice, coupling) -> c of the +-eta bands (J^2/eta), then of the zero band (J^3/eta^2)
CONSTANTS = {
    (2, "xy"): (1 / 4, None),
    (2, "heisenberg"): (3 / 32, None),
    (3, "xy"): (5 / 16, SQRT2 / 8),
    (3, "heisenberg"): (1 / 8, 3 / 32),
}
# what is left of h_b - h_chain after the second-order term, over J^3/eta^2;
# it reads at most 0.047 on the +-eta bands
THIRD_ORDER = 0.1
EPS = np.finfo(float).eps
# (j_xy, j_z): XY, Heisenberg and four seeded custom couplings in [-10, 10]
COUPLINGS = [(1.0, 0.0), (0.5, 1.0), *np.random.default_rng(7).uniform(-10, 10, (4, 2)).tolist()]


def _band_gap(spec, band):
    """h_b - h_chain of the band at eta_b = band * eta."""
    w, v = np.linalg.eigh(hamiltonian_oracle(spec))
    lift, shift = mode_lift(spec.n_sites, band), band * spec.eta
    inside = np.abs(w - shift) < spec.eta / 2.0
    assert inside.sum() == 8
    u, _, vh = np.linalg.svd(lift.T @ v[:, inside])
    polar = u @ vh
    h_band = polar @ np.diag(w[inside] - shift) @ polar.conj().T
    chain = lift.T @ hamiltonian_oracle(spec, "effective") @ lift - shift * np.eye(8)
    return h_band - chain


@pytest.mark.parametrize("n_sites, coupling", list(CONSTANTS))
def test_band_hamiltonian_is_the_chain_to_second_order(n_sites, coupling):
    outer, zero = CONSTANTS[n_sites, coupling]
    for ratio in RATIOS:
        spec = getattr(ModelSpec, coupling)(ratio, n_sites=n_sites)  # J = 1
        for band in (1, -1):
            gap = _band_gap(spec, band)
            assert np.linalg.norm(gap, 2) * spec.eta == pytest.approx(outer, rel=0.005)
            left = gap - second_order_shift(n_sites, spec.eta, spec.j_xy, spec.j_z, band)
            assert np.linalg.norm(left, 2) * spec.eta**2 <= THIRD_ORDER, (ratio, band)
        if zero is not None:
            shift = second_order_shift(n_sites, spec.eta, spec.j_xy, spec.j_z, 0)
            assert np.abs(shift).max() <= 1e-15 / spec.eta
            c = np.linalg.norm(_band_gap(spec, 0), 2) * spec.eta**2
            assert c == pytest.approx(zero, rel=0.01), ratio


@pytest.mark.parametrize("n_sites", [2, 3])
def test_effective_is_the_band_diagonal_part_of_the_exact_hamiltonian(n_sites):
    # the projectors P_b ⊗ I8 from the kinetic modes as written out, not from the library
    projectors = [mode_lift(n_sites, b) @ mode_lift(n_sites, b).T for b in KINETIC_MODES[n_sites]]
    for (j_xy, j_z), eta in itertools.product(COUPLINGS, (1e-3, 1.0, 10.0, 1e3, 1e6)):
        spec = ModelSpec(n_sites, eta, j_xy, j_z)
        exact = hamiltonian_oracle(spec)
        part = sum(p @ exact @ p for p in projectors)
        gap = np.abs(hamiltonian_oracle(spec, "effective") - part).max()
        assert gap <= 8 * EPS * (eta + abs(j_xy) + abs(j_z)), spec
