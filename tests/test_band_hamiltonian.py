"""The paper's central claim, checked on the spectrum: each kinetic band of the
exact Hamiltonian is the effective three-spin chain, to O(J^2/eta).

The hopping splits the lattice into kinetic modes at -eta, 0 and +eta (the
zero mode on three sites only).  At strong hopping the eight exact
eigenstates of band b, with |w - eta_b| < eta/2, lie close to
|mode b> ⊗ spin.  Their projections onto that subspace, made orthonormal by
the polar factor of an SVD (des Cloizeaux), give the band Hamiltonian
h_b = U diag(w - eta_b) U^†.  The effective kind's block on mode b, less
eta_b, is the chain: the mode's rate times the collective coupling.

Second-order Schrieffer-Wolff theory (Bravyi, DiVincenzo and Loss,
arXiv:1105.0675) gives h_b - h_chain as the sum over the other bands b' of
P_b V P_b' V P_b / (eta_b - eta_b'), V the contact coupling, up to
O(J^3/eta^2).  On the +-eta bands that term has the norm c J^2/eta; on the
zero band of three sites it vanishes, and the distance falls as
c J^3/eta^2 instead.  The test reads c at eta/J = 1e2, 1e3 and 1e4.  At
eta/J = 10 higher orders still show: two-site Heisenberg reads 0.0961,
2.5 % off its 3/32.
"""

import math

import numpy as np
import pytest

from spinhop.model import ModelSpec, build_hamiltonian

from helpers import mode_lift, second_order_shift

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


def _band_gap(spec, band):
    """h_b - h_chain of the band at eta_b = band * eta."""
    w, v = np.linalg.eigh(build_hamiltonian(spec))
    lift, shift = mode_lift(spec.n_sites, band), band * spec.eta
    inside = np.abs(w - shift) < spec.eta / 2.0
    assert inside.sum() == 8
    u, _, vh = np.linalg.svd(lift.T @ v[:, inside])
    polar = u @ vh
    h_band = polar @ np.diag(w[inside] - shift) @ polar.conj().T
    chain = lift.T @ build_hamiltonian(spec, "effective") @ lift - shift * np.eye(8)
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
