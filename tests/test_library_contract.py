"""The library's contract: one row per public call and input, one checker.

A row is a call and what it must do: raise a ``ValueError`` with an exact
message, or return (a given value, where the row names one), and make the
calls its ``calls`` name, as the ``library_calls`` fixture logs them from
cold caches.  An empty log names a function the call must not reach, or,
where it raises, not reach first: no block is built before the energy-scale
check, nothing is propagated before the coupling or kind check, no
Hamiltonian is built while a config is parsed.  A ``warm`` row runs once
before it is counted.  Every row runs with warnings as errors.

``LIBRARY`` groups the rows.  A group that came from another module's tests
is bound there by ``collected(group)`` under the test name it had, and its
rows keep their ids; the ``contract`` group is collected here.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import re
import tempfile
import warnings
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

import spinhop
from spinhop import cli, dynamics, model
from spinhop.analysis import (
    compare_exact_effective,
    conservation_monitor,
    estimate_period,
    log_negativity,
)
from spinhop.dynamics import TimeGrid, analytic, evolve_on_grid, observables, run_trajectory
from spinhop.linalg import assert_hermitian, hermitian_eigensystem, partial_transpose
from spinhop.model import HAMILTONIAN_KINDS, BasisLayout, ModelSpec, encode_state

from helpers import (
    CONFIGS,
    LATTICE_KINDS,
    bench_modules,
    encode,
    hamiltonian_oracle,
    labelled_starts,
    random_state,
    sz_of_basis,
    two_sector_start,
)


class Row(NamedTuple):
    id: str  # "" for the one row of a test that takes no parameters
    call: Callable[[], object]
    outcome: object = None  # the ValueError's message; else the value returned, None for any
    # log -> its entries, or their number; a function for a table built at check time
    calls: dict | Callable[[], dict] = {}
    warm: bool = False


def check(row, library_calls):
    """Run ``row`` and hold it to its outcome and its calls."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if row.warm:
            row.call()
            library_calls.reset()
        if isinstance(row.outcome, str):
            with pytest.raises(ValueError) as raised:
                row.call()
            assert type(raised.value) is ValueError and str(raised.value) == row.outcome
        else:
            returned = row.call()
            assert row.outcome is None or returned == row.outcome
    wanted = row.calls() if callable(row.calls) else row.calls
    assert library_calls.logged(wanted) == wanted


def collected(group):
    """The test of the rows ``LIBRARY[group]``, for a class or a module to
    bind; it takes its instance, if any, positionally."""
    rows = LIBRARY[group]
    if [row.id for row in rows] == [""]:

        def test(_instance=None, /, *, library_calls):
            check(rows[0], library_calls)

        return test

    @pytest.mark.parametrize("row", rows, ids=[row.id for row in rows])
    def test(_instance=None, /, *, row, library_calls):
        check(row, library_calls)

    return test


def runs(starts):
    """The calls of a run from each ``(start, grid points)``: it builds,
    checks, solves and propagates the block of each S_z sector its start
    occupies, S_z ascending, then, if several, the static pair's stack."""
    calls = {"blocks": [], "checked": [], "eigh": [], "evolved": [], "pair": 0}
    for psi, points in starts:
        sz = sz_of_basis(BasisLayout(len(psi) // 8))
        sizes = [int(np.count_nonzero(sz == s)) for s in np.unique(sz[psi != 0])]
        blocks = [(k, k) for k in sizes]
        pair = len(sizes) > 1
        calls["blocks"] += blocks
        calls["checked"] += blocks + [(points, 4, 4)] * pair
        calls["eigh"] += sizes + [4] * pair
        calls["evolved"] += blocks
        calls["pair"] += pair
    return calls


_SHORT = TimeGrid(1.0, 2)


def _start(n_sites, site=1):
    return encode_state(BasisLayout(n_sites), site, "up", "down-down")


def _entry(m, index, value):
    m = np.array(m, dtype=complex)
    m[index] = value
    return m


def _random_start(n_sites):
    return random_state(np.random.default_rng(90 + n_sites), 8 * n_sites)


def _run(psi, spec=ModelSpec.xy(1.0), kind="exact", grid=_SHORT):
    return lambda: run_trajectory(spec, kind, psi, grid)


def _not_hermitian(defect, scale, at=""):
    return (f"matrix{at} is not Hermitian: max|M - M^H| = {defect:.3e} exceeds "
            f"1.0e-12 * max|M| = {1e-12 * scale:.3e}")


_INTP_MAX = int(np.iinfo(np.intp).max)
_MAX_POINTS = _INTP_MAX // np.dtype(complex).itemsize
_NOT_RUN = {"blocks": [], "evolved": []}
_NON_FINITE = "matrix has NaN or infinite entries"
_NOT_4X4 = "expected a 4x4 operator or a stack of them, got shape {}"
_NOT_NORMALIZED = "initial state is not normalized: |norm - 1| = {:.3e}"
_NAN_START = "initial state has NaN or infinite entries"
_NO_COUPLING = "the closed form needs a nonzero coupling; j_xy = j_z = 0"
_NO_HOPPING = "effective requires eta > 0, which separates the kinetic modes"
_BELL = np.outer([0, 1, 1, 0], [0, 1, 1, 0]).astype(complex) / 2
_STACK = _entry([np.eye(4) / 4] * 3, (1, 0, 1), 0.1)
_STATIC_NAMES = "['down-down', 'down-up', 'psi-minus', 'psi-plus', 'up-down', 'up-up']"


@functools.cache
def _scan_inputs():
    """The seed-1 param_scan operations, (spec, kind, start) each, and one
    spec in every 38 again from a start spanning two sectors."""
    scan, _, workloads = bench_modules()
    inputs = scan.build_inputs(spinhop, scan.draw_params(workloads.DEFAULT_SEED))
    spanning = [(spec, kind, two_sector_start(BasisLayout(spec.n_sites)))
                for spec, kind, _ in inputs[:: len(inputs) // 8]]
    return inputs, spanning


def _run_scan(inputs):
    scan = bench_modules()[0]
    grid = TimeGrid(t_max=scan.T_MAX, n_points=scan.N_POINTS)
    for spec, kind, psi0 in inputs:
        scan.run_op(spinhop, grid, spec, kind, psi0)


def _scan_starts(inputs):
    return [(psi0, bench_modules()[0].N_POINTS) for _, _, psi0 in inputs]


def _run_benchmark_inputs():
    """Every CLI operation of the benchmark, then every scan operation."""
    workloads = bench_modules()[2]
    with tempfile.TemporaryDirectory() as out:
        for op in itertools.chain(*workloads.CLI_WORKLOADS.values()):
            assert cli.main(workloads.cli_argv(op, Path(out) / "out.csv")) == 0
    _run_scan(_scan_inputs()[0])


def _benchmark_runs():
    """The runs of ``_run_benchmark_inputs``: one per simulate, an effective
    and an exact one per compare ratio, and one per scan operation."""
    starts, workloads = [], bench_modules()[2]
    for command, path, flags in itertools.chain(*workloads.CLI_WORKLOADS.values()):
        config = cli.parse_config((workloads.ROOT / path).read_text())
        ratios = flags[-1].split(",") if flags else config.ratios
        copies = 1 if command == "simulate" else 2 * len(ratios)
        starts += [(config.initial, config.grid.n_points)] * copies
    return runs(starts + _scan_starts(_scan_inputs()[0]))


def _one_site_compares(n_sites, site):
    """compare from each of the 12 labelled starts at one site, left to right."""
    starts = labelled_starts(n_sites)[12 * site : 12 * site + 12]
    grid = TimeGrid(t_max=1.0, n_points=3)
    return Row(
        f"{n_sites}-{site}",
        lambda: [compare_exact_effective(ModelSpec.xy(10.0, n_sites=n_sites), psi, grid)
                 for psi in starts],
        calls={"kinds": ["effective", "exact"] * 12,
               **runs((psi, 3) for psi in starts for _ in range(2))},
    )


def _runs_row(id, n_sites, kind, starts):
    """Runs from ``starts`` on 41 points."""
    spec = ModelSpec(n_sites, 10.0, 0.7, -0.3)
    return Row(id, lambda: [run_trajectory(spec, kind, psi, TimeGrid(30.0, 41)) for psi in starts],
               calls=runs((psi, 41) for psi in starts))


def _unoccupied_sector(bad):
    """(matrix, start): the three-site Heisenberg matrix with ``bad`` at
    |up>|uu>, S_z = +3/2, and a start of S_z = -3/2."""
    layout, h = BasisLayout(3), hamiltonian_oracle(ModelSpec.heisenberg(5.0, n_sites=3))
    k = encode(layout, 2, 0, 0, 0)
    h[k, k if bad == "nan" else encode(layout, 1, 0, 0, 0)] += math.nan if bad == "nan" else 0.5
    return h, encode_state(layout, 0, "down", "down-down")


def _spans_two_sectors(n_sites):
    """A run, a compare and observables from states spanning several S_z
    sectors, and both log-negativity entry points."""
    spec, layout, grid = ModelSpec(n_sites, 10.0, 0.7, -0.3), BasisLayout(n_sites), TimeGrid(1, 5)
    run_trajectory(spec, "exact", two_sector_start(layout), grid)
    compare_exact_effective(spec, two_sector_start(layout), grid)
    observables(np.tile(_random_start(n_sites), (3, 1)), layout)
    log_negativity(_BELL)
    dynamics._log_negativity(np.stack([_BELL, _BELL]))


def _parse_bundled_configs():
    """Every bundled config, as it is and with the effective kind."""
    for path in sorted(CONFIGS.glob("*.json")):
        raw = json.loads(path.read_text())
        cli.parse_config(json.dumps(raw))
        raw.setdefault("run", {})["hamiltonian"] = "effective"
        cli.parse_config(json.dumps(raw))


def _build_every_kind():
    for spec in [ModelSpec(n, 2.0, 0.5, 1.0) for n in (2, 3)]:
        everywhere = np.ones(8 * spec.n_sites)
        for kind in HAMILTONIAN_KINDS:
            model._sector_blocks(spec, kind, everywhere)
        model._sector_blocks(ModelSpec(spec.n_sites, spec.eta), "exact", everywhere)
        model._sector_blocks(dataclasses.replace(spec, eta=0.0), "exact", everywhere)


_PRESET_REFUSALS = [
    ("ising", {}, "model.preset must be xy, heisenberg or custom, got 'ising'"),
    (["xy"], {}, "model.preset must be xy, heisenberg or custom, got ['xy']"),
    ("custom", {"j": 1.0}, "preset 'custom' takes j_xy and j_z, not j"),
    ("custom", {"j_xy": math.inf}, "model.j_xy must be finite, got inf"),
    ("xy", {"j_z": 0.5}, "preset 'xy' takes j, not j_z"),
    ("xy", {"j": 2.0, "j_xy": 2.0}, "preset 'xy' takes j, not j_xy"),
    ("xy", {"j": 10**400}, f"model.j must be finite, got {10**400!r}"),
    ("heisenberg", {"j": 2.0, "j_z": 1.0}, "preset 'heisenberg' takes j, not j_z"),
    ("heisenberg", {"j_z": 1.0, "j_xy": 0.9}, "preset 'heisenberg' takes j, not j_xy or j_z"),
    # a refused coupling is refused whatever its value
    ("custom", {"j": math.nan, "j_z": True}, "preset 'custom' takes j_xy and j_z, not j"),
    ("custom", {"j_z": True}, "model.j_z must be finite, got True"),
    ("xy", {"j": True}, "model.j must be finite, got True"),
    ("xy", {"j_q": 1.0}, "preset 'xy' takes j, not j_q"),
]
# analysis.log_negativity on one matrix (True), or the stack form
_LOG_NEG_REFUSALS = [
    ("shape", True, np.eye(2), "expected a 4x4 density matrix, got shape (2, 2)"),
    ("trace", True, np.eye(4), "density matrix trace is 4.0, expected 1"),
    # the trace is checked after the value is taken: a zero matrix has trace
    # norm 0, whose log2 must not warn
    ("zero", True, np.zeros((4, 4)), "density matrix trace is 0.0, expected 1"),
    ("trace-1e-6", True, (1 + 1e-6) * np.eye(4) / 4,
     "density matrix trace is 1.000001, expected 1"),
    ("not-hermitian", True, _BELL + 0.1j * np.diag([1, 0, 0, -1]),
     _not_hermitian(0.2, 0.5, " at stack index (0,)")),
    ("negative", True, np.diag([1.5, -0.5, 0, 0]), "density matrix has negative eigenvalue -0.5"),
    # held to -1e-9
    ("negative-1e-6", True, np.diag([0.5 + 1e-6, 0.5, 0.0, -1e-6]),
     "density matrix has negative eigenvalue -1e-06"),
    ("nan", True, np.diag([1.0, 0.0, 0.0, math.nan]), _NON_FINITE),
    ("stack-shape", False, np.eye(8), _NOT_4X4.format((8, 8))),
    ("stack-not-hermitian", False, _entry(np.eye(4), (0, 1), 1.0), _not_hermitian(1.0, 1.0)),
    ("stack-index", False, _STACK, _not_hermitian(0.1, 0.25, " at stack index (1,)")),
    ("stack-nan", False, _entry(_STACK, (1, 0, 1), math.nan), _NON_FINITE),
    ("stack-inf", False, np.diag([1.0, 1.0, 1.0, np.inf]), _NON_FINITE),
]
_PERIOD_REFUSALS = [
    ("short", [0, 1], [1, 0], "need matching 1-d time and value arrays with >= 3 samples"),
    ("decreasing", [0.0, 2.0, 1.0], [0.0, 1.0, 0.0], "times must be strictly increasing"),
    ("nan-time", [0.0, 1.0, math.nan, 3.0, 4.0], [0.0, 1.0, 0.0, 1.0, 0.0],
     "times must be strictly increasing"),
    ("flat", np.linspace(0, 10, 100), [0.25] * 100, "oscillation amplitude below noise floor"),
    ("one-maximum", np.linspace(0, 2.0, 200), np.sin(np.linspace(0, 2.0, 200)) ** 2,
     "insufficient oscillations detected"),
    # a peak, then one whose two highs a dip to 0.3 splits: its fit is convex
    ("double-humped", np.arange(15.0), [0, 0.5, 1, 0.5, 0, 0.7, 1, 0.3, 1, 0.7, 0, 0.5, 1, 0.5, 0],
     "no single maximum in the peak near t = 6"),
] + [
    (name, np.arange(9.0), np.where(np.arange(9) == 4, bad, 0.5), "values must be finite")
    for name, bad in [("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf)]
]

LIBRARY = {
    # a float, a bool or a grid no array can hold would fail later, in a run
    "time-grid": [
        Row(repr({"t_max": t}), lambda t=t: TimeGrid(t_max=t),
            f"t_max must be a positive finite number, got {t!r}")
        for t in (0.0, math.inf, math.nan, True, 10**400, "1", [1.0])
    ] + [
        Row(repr({"n_points": n}), lambda n=n: TimeGrid(n_points=n),
            f"n_points must be an integer in [2, {_MAX_POINTS}], got {n!r}")
        for n in (1, 3.0, True, np.True_, 10**30, _INTP_MAX + 1, _INTP_MAX, 2**59)
    ],
    # position 1 is the last site of two, so P0 would read P2's values
    "columns": [
        Row(name, lambda name=name: observables(_start(2), BasisLayout(2)).column(name),
            f"no column {name!r} on this lattice; its columns are {dynamics.column_names(2)}")
        for name in ("P0", "P3", "energy")
    ],
    "observables": [
        Row("state", lambda: observables(np.ones(16), BasisLayout(3)),
            "state shape (16,) does not match layout dim 24"),
        Row("times", lambda: observables(np.ones((3, 16)), BasisLayout(2), [0.0, 1.0]),
            "times shape (2,) does not broadcast to the grid shape (3,)"),
        Row("hamiltonian",
            lambda: observables(np.ones((3, 16)), BasisLayout(2), hamiltonian=np.eye(3)),
            "hamiltonian shape (3, 3) does not match layout dim 16: need 16x16"),
    ],
    # True == 1 and 1.0 == 1 would pass as site label 1; a chain without a coupling has
    # no period; abs(nan - 1) > tol is False, so the norm test alone let a NaN through
    "edge-inputs": [
        Row("bool-site", lambda: _start(2, True), "unknown site label True; valid: (1, 2)"),
        Row("float-site", lambda: _start(3, 1.0), "unknown site label 1.0; valid: (1, 0, 2)"),
        Row("xy-period-j0", partial(analytic, ModelSpec(2, 10.0), _start(2)), _NO_COUPLING),
        Row("heisenberg-period-j0",
            partial(analytic, ModelSpec.heisenberg(10, j=0, n_sites=3), _start(3, 0)),
            _NO_COUPLING),
        Row("period-j-nan", lambda: analytic(ModelSpec.xy(10.0, j=math.nan), _start(2)),
            "model.j must be finite, got nan"),
        Row("two-site-j0", partial(analytic, ModelSpec.xy(10, j=0), _start(2), _SHORT),
            _NO_COUPLING),
        Row("two-site-j-inf", lambda: analytic(ModelSpec.heisenberg(10.0, j=math.inf), _start(2)),
            "model.j must be finite, got inf"),
        Row("analytic-lattice", partial(analytic, ModelSpec.xy(10.0), _start(3, 0)),
            "initial state shape (24,) does not match layout dim 16"),
        Row("analytic-norm", partial(analytic, ModelSpec.xy(10.0), 2.0 * _start(2)),
            _NOT_NORMALIZED.format(1.0)),
        Row("analytic-overflow",
            partial(analytic, ModelSpec.heisenberg(10.0, j=-1e308), _start(2), TimeGrid(30.0, 2)),
            "energy scale eta + |j_xy| + |j_z| = 1.5e+308 with t_max = 30.0 overflows"),
        Row("run-norm", _run(np.ones(16)),
            _NOT_NORMALIZED.format(3.0), _NOT_RUN),
        # the norm is held to 1e-10
        Row("run-norm-1e-8", _run((1 + 1e-8) * _start(2)),
            _NOT_NORMALIZED.format(1e-8), _NOT_RUN),
        Row("run-kind", _run(_start(2), kind="trotter"),
            "unknown hamiltonian kind 'trotter'; valid: ('exact', 'effective')", _NOT_RUN),
        Row("run-overflow", _run(_start(2), ModelSpec.xy(1e308, j=1e308), grid=None),
            "energy scale eta + |j_xy| + |j_z| = inf with t_max = 30.0 overflows", _NOT_RUN),
    ] + [
        Row(name, _run(_entry(_start(2), 5, bad)), _NAN_START, _NOT_RUN)
        for name, bad in [("run-nan", math.nan), ("run-nan-imag", complex(0.0, math.nan)),
                          ("run-inf", math.inf)]
    ],
    # every labelled start has one S_z, and its run solves that sector alone
    "definite-starts": [
        _runs_row(f"{n}-{kind}", n, kind, labelled_starts(n)) for n, kind in LATTICE_KINDS
    ],
    "unoccupied-sector": [
        Row("nan", lambda: evolve_on_grid(*_unoccupied_sector("nan"), [0.0, 1.0]), _NON_FINITE),
        Row("asymmetric", lambda: evolve_on_grid(*_unoccupied_sector("asymmetric"), [0.0, 1.0]),
            _not_hermitian(0.5, np.abs(_unoccupied_sector("asymmetric")[0]).max())),
    ],
    "start-dimension": [Row("", lambda: evolve_on_grid(np.eye(4), np.ones(3), [1.0]),
        "initial state shape (3,) does not match the dimension of the matrix of shape (4, 4)")],
    "run-overflow": [Row("", _run(_start(2), grid=TimeGrid(t_max=1e308)),
        "energy scale eta + |j_xy| + |j_z| = 2.0 with t_max = 1e+308 overflows", _NOT_RUN)],
    # no finite real number either: a bool, or an int beyond the float range
    "model-spec": [
        Row(f"numbers{i}", lambda kw=kw: ModelSpec(**{"n_sites": 2, "eta": 1.0, **kw}),
            f"eta must be a finite number >= 0, got {kw['eta']!r}" if "eta" in kw else
            f"couplings must be finite numbers, got j_xy={kw.get('j_xy', 0.0)!r}, "
            f"j_z={kw.get('j_z', 0.0)!r}")
        for i, kw in enumerate([
            {"eta": np.nan}, {"eta": np.inf}, {"j_xy": np.nan}, {"j_z": -np.inf}, {"eta": True},
            {"j_xy": True}, {"eta": 10**400}, {"j_xy": 10**400}, {"j_z": -(10**400)},
            {"eta": "1"}, {"j_z": "1"}, {"eta": None},
        ])
    ],
    # ids as pytest gave them to the parametrized test this group replaced
    "presets": [
        Row(f"{preset if isinstance(preset, str) else f'preset{i}'}-couplings{i}-{message}",
            lambda preset=preset, couplings=couplings: ModelSpec.from_preset(
                preset, 2, 10.0, **couplings),
            message)
        for i, (preset, couplings, message) in enumerate(_PRESET_REFUSALS)
    ],
    # the value is quoted as given: "2" is not 2
    "lattice-sizes": [
        Row(name, lambda n=n: BasisLayout(n), f"n_sites must be 2 or 3, got {n!r}")
        for name, n in [("4", 4), ("5", 5), ("3.0", 3.0), ("2.0", 2.0), ("True", True),
                        ("numpy-bool", np.True_), ("3", "3"), ("2", "2")]
    ],
    "effective-needs-hopping": [
        Row(str(n), lambda n=n: model._sector_blocks(ModelSpec(n, 0), "effective", np.ones(8 * n)),
            _NO_HOPPING)
        for n in (2, 3)
    ],
    # an unknown, unhashable or non-string label is a ValueError, never a TypeError
    "labels": [
        Row("e_spin-sideways", lambda: encode_state(BasisLayout(2), 1, "sideways", "down-down"),
            "unknown mobile-spin label 'sideways'; valid: up, down"),
        Row("static-down", lambda: encode_state(BasisLayout(2), 1, "up", "down"),
            f"unknown static-pair preset 'down'; valid: {_STATIC_NAMES}"),
        Row("site-3", lambda: encode_state(BasisLayout(2), 3, "up", "down-down"),
            "unknown site label 3; valid: (1, 2)"),
    ] + [
        Row(f"site-index-{x!r}", lambda x=x: BasisLayout(2).site_index(x),
            f"unknown site label {x!r}; valid: (1, 2)")
        for x in (0, np.True_)
    ] + [
        Row(f"{name}-{x!r}", lambda x=x, call=call: call(x), message.format(x))
        for x in (["up-up"], {}, None, True)
        for name, call, message in [
            ("e_spin", lambda x: encode_state(BasisLayout(2), 1, x, "down-down"),
             "unknown mobile-spin label {!r}; valid: up, down"),
            ("static", lambda x: encode_state(BasisLayout(2), 1, "up", x),
             "unknown static-pair preset {!r}; valid: " + _STATIC_NAMES),
            ("site", lambda x: encode_state(BasisLayout(2), x, "up", "down-down"),
             "unknown site label {!r}; valid: (1, 2)"),
            ("kind", lambda x: model._sector_blocks(ModelSpec.xy(1.0), x, np.ones(16)),
             "unknown hamiltonian kind {!r}; valid: ('exact', 'effective')"),
        ]
    ],
    # a warm cache builds every kind on both lattices with no kron and no eigensolve
    "cached-terms": [
        Row("", _build_every_kind, None, {"kron": 0, "eigh": [], "misses": {"_sectors": 0}}, True)],
    "log-negativity": [
        Row(name, lambda one=one, rho=rho: (log_negativity if one else dynamics._log_negativity)(
            rho), message)
        for name, one, rho, message in _LOG_NEG_REFUSALS
    ],
    # the matrix and its partial transpose are checked as one stack
    "log-negativity-checks": [
        Row("", lambda: log_negativity(np.eye(4) / 4), 0.0, {"checked": [(2, 4, 4)]})],
    "conservation-monitor": [
        Row("empty", lambda: conservation_monitor([]), "empty trajectory"),
        Row("single-state", lambda: conservation_monitor(observables(_start(2), BasisLayout(2))),
            "trajectory has no time axis"),
    ],
    "compare-starts": [
        Row(name, partial(compare_exact_effective, ModelSpec.xy(10.0), psi), message,
            _NOT_RUN)
        for name, psi, message in [
            ("unnormalized", 2 * _start(2), _NOT_NORMALIZED.format(1.0)),
            ("three-site", _start(3), "initial state shape (24,) does not match layout dim 16"),
            ("nan", _entry(_start(2), 0, math.nan), _NAN_START),
            ("inf", _entry(_start(2), 0, math.inf), _NAN_START),
        ]
    ],
    "compare-overflow": [Row(
        "", partial(compare_exact_effective, ModelSpec.xy(1e308, j=1e308), _start(2)),
        "energy scale eta + |j_xy| + |j_z| = inf with t_max = 30.0 overflows", _NOT_RUN)],
    "compare-no-coupling": [Row("", partial(compare_exact_effective, ModelSpec(2, 10.0), _start(2)),
        "coupling scale is zero; eta/J is undefined", _NOT_RUN)],
    "compare-no-hopping": [
        Row(str(n), partial(compare_exact_effective, ModelSpec.xy(0.0, n_sites=n), _start(n)),
            _NO_HOPPING, _NOT_RUN)
        for n in (2, 3)
    ],
    # each start is compared with the effective kind, then the exact one
    "compared-kinds": [
        _one_site_compares(n, site) for n, site in [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]
    ],
    "estimate-period": [
        Row(name, lambda t=t, v=v: estimate_period(t, v), message)
        for name, t, v, message in _PERIOD_REFUSALS
    ],
    "not-hermitian": [Row("", lambda: hermitian_eigensystem(np.array([[0, 1], [0, 0]], complex)),
        _not_hermitian(1.0, 1.0))],
    # inf - inf is NaN, which compares false: the asymmetry test alone lets these through
    "eigensystem-non-finite": [
        Row(name, lambda bad=bad: hermitian_eigensystem(
            _entry(_entry(np.eye(4), (0, 1), bad), (1, 0), bad)), _NON_FINITE)
        for name, bad in [("nan", np.nan), ("inf", np.inf)]
    ],
    "partial-transpose": [
        Row(f"shape{i}", lambda shape=shape: partial_transpose(np.ones(shape)),
            _NOT_4X4.format(shape))
        for i, shape in enumerate([(5, 5), (6, 6), (4,), (3, 4, 5)])
    ],
    # a matrix's off-diagonal entry is also not Hermitian: the non-finite message wins
    "non-finite-entry": [
        Row(f"{where}-{name}", lambda where=where, bad=bad: assert_hermitian(
            _entry(np.eye(3), (0, 1), bad) if where == "matrix"
            else _entry([np.eye(3)] * 4, (2, 1, 1), bad)), _NON_FINITE)
        for where in ("matrix", "stack")
        for name, bad in [("nan-imag", complex(0.0, np.nan)), ("inf", np.inf), ("-inf", -np.inf),
                          ("inf-nan", complex(np.inf, np.nan)), ("nan-real", complex(np.nan, 0.0))]
    ],
    # the second matrix's asymmetry is tiny next to the first one's entries, not its own
    "own-scale": [
        Row(repr(small), lambda small=small: assert_hermitian(
            _entry([1e6 * np.eye(2), small * np.eye(2)], (1, 0, 1), 1e-8 * small)),
            _not_hermitian(1e-8 * small, small, " at stack index (1,)"))
        for small in (1.0, 1e-6)
    ],
    "one-bad-matrix": [Row("", lambda: assert_hermitian(_entry([np.eye(4)] * 4, (2, 0, 1), 1.0)),
        _not_hermitian(1.0, 1.0, " at stack index (2,)"))],
    # Hermitian with trace 1; its eigenvalues are 0, 0 and 0.5 -+ 2.1e308
    "eigenvalues-overflow": [Row("", lambda: log_negativity(_entry(
        _entry(np.diag([0.5, 0.0, 0.0, 0.5]), (0, 3), 1.5e308 + 1.5e308j), (3, 0),
        1.5e308 - 1.5e308j)), "density matrix has negative eigenvalue -inf")],
    "non-square": [Row("", lambda: assert_hermitian(np.zeros((3, 2, 4))),
        "expected a square matrix or a stack of them, got shape (3, 2, 4)")],
    # every eigenvalue, of a block or a static-pair stack, comes from the one checked solve
    "no-values-only-solve": [
        Row("", lambda: [_spans_two_sectors(n) for n in (2, 3)], None, {"eigvalsh": [], "pair": 10})
    ],
    # the source files that name numpy's eigensolvers, with their mentions
    "eigensolver-call-sites": [Row("", lambda: {
        path.name: n for path in Path(spinhop.__file__).parent.glob("*.py")
        if (n := len(re.findall(r"linalg\.eig", path.read_text())))}, {"linalg.py": 1})],
    # every benchmark start has one S_z: one block per run, and no static-pair stack
    "benchmark-inputs": [Row("", _run_benchmark_inputs, calls=_benchmark_runs)],
    # one grid sample per scan; a start spanning two sectors adds the static pair's stack
    "scan-runs": [Row("", lambda: _run_scan(sum(_scan_inputs(), [])),
        calls=lambda: {"linspace": 1, **runs(_scan_starts(sum(_scan_inputs(), [])))})],
    # each cache of every module, counted: one rebuilt per run would cost each run again
    "scan-caches": [
        Row("", lambda: _run_scan(_scan_inputs()[0]), None, {"misses": {"_sectors": 2}})],
    "contract": [
        # a t_max below 1 scales no phase down past the float range
        Row("short-run-overflows", _run(_start(2), ModelSpec(2, 1e308), grid=TimeGrid(0.5, 3)),
            "energy scale eta + |j_xy| + |j_z| = 1e+308 with t_max = 0.5 overflows", _NOT_RUN),
        Row("parse-builds-no-hamiltonian", _parse_bundled_configs,
            calls={"kinds": [], "misses": {"_sectors": 0}}),
    ] + [
        # a start spanning two sectors, and one spanning all four
        _runs_row(f"spanning-starts-{n}-{kind}", n, kind,
                  [two_sector_start(BasisLayout(n)), _random_start(n)])
        for n, kind in LATTICE_KINDS
    ],
}

test_the_library_contract = collected("contract")
