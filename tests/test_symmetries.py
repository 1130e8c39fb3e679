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
the pair's log-negativity from their scattered states.  Each runs on a
short grid and on one to t = 1e10.  Every gap and drift is held to
16 eps * scale * max(t_max, 1), with scale = eta + |j_xy| + |j_z|: the
rounding of a run grows as eps * ||H|| * t.  An energy gap or drift is
divided by scale first, for the energy itself is of order scale.

The mirror also holds through ``spinhop simulate``, on configs drawn over
the whole range the CLI accepts.
"""

import contextlib
import io
import itertools
import json
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinhop.analysis import conservation_monitor
from spinhop.cli import main, parse_config
from spinhop.dynamics import TimeGrid, column_names, run_trajectory
from spinhop.model import BasisLayout

from helpers import (
    COUPLINGS,
    LATTICE_KINDS,
    coupling_specs,
    decode,
    encode,
    labelled_starts,
    random_state,
    simulate_configs,
)

GRIDS = (TimeGrid(t_max=30.0, n_points=41), TimeGrid(t_max=1e10, n_points=41))
RATIOS = (1.0, 1e3, 1e10)
EPS = np.finfo(float).eps


def _starts(n_sites):
    """All 12 start labels at every site, then three random superpositions."""
    rng = np.random.default_rng(23)
    return labelled_starts(n_sites) + [random_state(rng, 8 * n_sites) for _ in range(3)]


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
@pytest.mark.parametrize("n_sites,kind", LATTICE_KINDS)
def test_mirror_and_flip_map_every_run(n_sites, kind, coupling):
    names = [name for name in column_names(n_sites) if name != "F2"]
    maps = _maps(n_sites)
    laws = ["norm", "energy", "sz"] + ([] if kind == "exact" else ["s12_sq"])
    worst = defaultdict(float)  # (map or drift, column) -> largest gap over the bound
    for grid, spec in itertools.product(GRIDS, coupling_specs(n_sites, coupling, kind, RATIOS)):
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


_MIRROR_SITE = {1: 2, 2: 1, 0: 0}
_MIRROR_STATIC = {"up-down": "down-up", "down-up": "up-down"}


@st.composite
def _mirrored_configs(draw):
    """A config of ``simulate_configs`` and its mirror: initial.site 1 <-> 2
    and the static pair up-down <-> down-up."""
    cfg = draw(simulate_configs())
    initial = cfg["initial"]
    mirror = {
        "site": _MIRROR_SITE[initial["site"]],
        "static": _MIRROR_STATIC.get(initial["static"], initial["static"]),
    }
    return cfg, {**cfg, "initial": {**initial, **mirror}}


def _simulate(tmp, cfg, name):
    """Exit code, stderr, CSV header and ``(T, columns)`` table of a
    ``spinhop simulate`` run of ``cfg``, in process."""
    path, out = Path(tmp) / f"{name}.json", Path(tmp) / f"{name}.csv"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["simulate", str(path), "--out", str(out)])
    if code:
        return code, err.getvalue(), None, None
    header = out.read_text().split("\n", 1)[0].split(",")
    return code, err.getvalue(), header, np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)


@settings(max_examples=200, deadline=None)
@given(_mirrored_configs())
def test_mirrored_config_mirrors_the_simulate_columns(configs):
    # P1 and P2 trade places and every other column but F2 stays, within
    # 16 eps * (scale * max(t_max, 1) + 4), the phase rounding plus a floor
    # of 64 eps for the eigensolve of a block of up to 9 states (it reads up
    # to 32 eps where scale * t_max is tiny); or both end alike, in a config
    # error or a solver that does not converge
    cfg, mirrored = configs
    with tempfile.TemporaryDirectory() as tmp:
        (code, err, header, table), (code_m, err_m, header_m, table_m) = (
            _simulate(tmp, c, name) for c, name in ((cfg, "a"), (mirrored, "b"))
        )
    assert (code, err, header) == (code_m, err_m, header_m)
    if code != 0:
        assert code in (2, 3) and "Traceback" not in err, err
        return
    spec = parse_config(json.dumps(cfg)).spec
    scale = spec.eta + abs(spec.j_xy) + abs(spec.j_z)
    bound = 16.0 * EPS * (scale * max(cfg["run"]["t_max"], 1.0) + 4.0)
    swap = {"P1": "P2", "P2": "P1"}
    for k, name in enumerate(header):
        if name != "F2":
            gap = np.abs(table_m[:, header.index(swap.get(name, name))] - table[:, k]).max()
            assert gap <= bound, (name, gap / bound)
