"""Two exact symmetries of every Hamiltonian kind, checked on whole runs.

The mirror R maps site x to site n - 1 - x and swaps the static spins; the
flip F = I ⊗ X ⊗ X ⊗ X turns every spin over.  Both commute with every
kind exactly (``test_model.TestSectors``), so the run from R psi or F psi
is the run from psi with its observables mapped:

- under R, P1 and P2 trade places and every other column stays;
- under F, ``P_up`` becomes 1 - ``P_up`` and ``Sz`` becomes -``Sz``, and
  every other column stays.

The energy stays under both.  ``F2`` is left out, for both maps send it to
the |ud> population, which no column holds.  The same runs also keep their
conservation laws: the norm, ``Sz`` and the energy on every kind, and
``S12sq`` on the effective kinds, whose collective coupling commutes with
(S1 + S2)^2.  The starts are all 12 labels at every site, which lie in one
S_z sector, and random superpositions, which span several sectors and take
the pair's log-negativity from their scattered states.  Each runs on a short grid and on one to t = 1e10.
Every gap and drift is held to 16 eps * scale * max(t_max, 1), with
scale = eta + |j_xy| + |j_z|: the rounding of a run grows as
eps * ||H|| * t.  An energy gap or drift is divided by scale first, for the
energy itself is of order scale.
"""

import itertools
from collections import defaultdict

import numpy as np
import pytest

from spinhop.analysis import conservation_monitor
from spinhop.dynamics import TimeGrid, column_names, run_trajectory
from spinhop.model import (
    _STATIC_PRESETS,
    HAMILTONIAN_KINDS,
    BasisLayout,
    ModelSpec,
    encode_state,
)

from helpers import decode, encode, random_state

GRIDS = (TimeGrid(t_max=30.0, n_points=41), TimeGrid(t_max=1e10, n_points=41))
COUPLINGS = {"xy": (1.0, 0.0), "heisenberg": (0.5, 1.0), "custom": (0.7, -0.3)}
RATIOS = (1.0, 1e3, 1e10)
EPS = np.finfo(float).eps


def _lattice_kinds():
    return [(n_sites, kind) for n_sites in (2, 3) for kind in HAMILTONIAN_KINDS]


def _specs(n_sites, coupling, kind):
    """One spec per eta/J of RATIOS, and eta = 0 for the exact kind."""
    j_xy, j_z = COUPLINGS[coupling]
    j = abs(j_z if j_z != 0.0 else j_xy)
    etas = ([0.0] if kind == "exact" else []) + [ratio * j for ratio in RATIOS]
    return [ModelSpec(n_sites=n_sites, eta=eta, j_xy=j_xy, j_z=j_z) for eta in etas]


def _starts(n_sites):
    """All 12 start labels at every site, then three random superpositions."""
    layout = BasisLayout(n_sites)
    labelled = [
        encode_state(layout, site, e_spin, static)
        for site in layout.site_labels()
        for e_spin in ("up", "down")
        for static in _STATIC_PRESETS
    ]
    rng = np.random.default_rng(23)
    return labelled + [random_state(rng, layout.dim) for _ in range(3)]


def _maps(n_sites):
    """name -> (basis permutation, the columns it changes and how)."""
    layout = BasisLayout(n_sites)
    labels = [decode(layout, i) for i in range(layout.dim)]
    last = n_sites - 1
    mirror = [encode(layout, last - x, e, s2, s1) for x, e, s1, s2 in labels]
    flip = [encode(layout, x, 1 - e, 1 - s1, 1 - s2) for x, e, s1, s2 in labels]
    return {
        "mirror": (mirror, {"P1": lambda c: c["P2"], "P2": lambda c: c["P1"]}),
        "flip": (flip, {"P_up": lambda c: 1.0 - c["P_up"], "Sz": lambda c: -c["Sz"]}),
    }


@pytest.mark.parametrize("coupling", list(COUPLINGS))
@pytest.mark.parametrize("n_sites,kind", _lattice_kinds())
def test_mirror_and_flip_map_every_run(n_sites, kind, coupling):
    names = [name for name in column_names(n_sites) if name != "F2"]
    maps = _maps(n_sites)
    laws = ["norm", "energy", "sz"] + ([] if kind == "exact" else ["s12_sq"])
    worst = defaultdict(float)  # (map or drift, column) -> largest gap over the bound
    for grid, spec in itertools.product(GRIDS, _specs(n_sites, coupling, kind)):
        scale = spec.eta + abs(spec.j_xy) + abs(spec.j_z)
        bound = 16.0 * EPS * scale * max(grid.t_max, 1.0)
        for psi in _starts(n_sites):
            run = run_trajectory(spec, kind, psi, grid)
            drifts = conservation_monitor(run)
            for law in laws:
                drift = getattr(drifts, law + "_drift") / (scale if law == "energy" else 1.0)
                worst["drift", law] = max(worst["drift", law], drift / bound)
            columns = {name: run.column(name) for name in names}
            for label, (permutation, changed) in maps.items():
                # both maps are involutions: (P psi)[i] = psi[P(i)]
                mapped = run_trajectory(spec, kind, psi[permutation], grid)
                for name in names:
                    want = changed[name](columns) if name in changed else columns[name]
                    gap = np.abs(mapped.column(name) - want).max()
                    worst[label, name] = max(worst[label, name], gap / bound)
                gap = np.abs(mapped.energy - run.energy).max() / scale
                worst[label, "energy"] = max(worst[label, "energy"], gap / bound)
    assert max(worst.values()) <= 1.0, {k: f"{v:.2g}" for k, v in worst.items() if v > 1.0}
