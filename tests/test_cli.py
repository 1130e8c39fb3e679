"""The ``spinhop`` command line, in process through ``cli.main`` unless a
test says otherwise.

- ``CONTRACT``: one table of ``(command, config, flags) -> (exit code,
  exact stderr)`` rows: every config error with its message (block shapes
  and keys, JSON types, each value or run the library rejects), the flags
  and output paths, i/o errors, closed forms that overflow, edge inputs and
  every bundled config.  ``FAULTS`` adds the exits of an injected failure
  (memory, the eigensolver); ``PROCESS`` runs one process per exit path.
- ``BROKEN``: each invariant check of ``cli._validated_columns`` and the
  message naming the first failing one.
- What each command reads and writes: the parsed config, the flags, the
  simulate CSV and summary, the compare table and the analytic closed form.
- Properties: a preset reads only its couplings, and fuzzed configs end in
  a documented exit code.  (The mirror through ``simulate`` is in
  ``test_symmetries``.)
"""

import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinhop import cli
from spinhop.analysis import compare_exact_effective
from spinhop.cli import NumericalInvariantError, main, parse_config
from spinhop.dynamics import COLUMNS, TimeGrid, Trajectory, run_trajectory
from spinhop.model import _STATIC_PRESETS, HAMILTONIAN_KINDS, ModelSpec

SQRT2 = math.sqrt(2.0)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = CONFIGS.parent / "src"
COMMANDS = ("simulate", "compare", "analytic")
BASE = {
    "model": {"n_sites": 2, "eta": 10.0, "preset": "xy"},
    "initial": {"site": 1, "e_spin": "up", "static": "down-down"},
    "run": {"hamiltonian": "exact", "t_max": 30.0, "n_points": 11},
    "output": {"path": "x.csv"},
    "compare": {"ratios": [10]},
}
DROP = object()  # a patch value that removes its key or block
HEADER = ["t", "P1", "P2", "P_up", "F_plus", "F_minus", "logneg", "F2", "Sz", "S12sq", "norm"]


def _config(patch=None):
    """BASE with ``patch`` applied: a dict updates its block key by key, DROP
    removes a key or a block, and any other value replaces the block."""
    cfg = copy.deepcopy(BASE)
    for block, value in (patch or {}).items():
        if isinstance(value, dict) and isinstance(cfg.get(block), dict):
            cfg[block].update(value)
            for key in [k for k, v in value.items() if v is DROP]:
                del cfg[block][key]
        elif value is DROP:
            del cfg[block]
        else:
            cfg[block] = value
    return cfg


def _write_config(config):
    """The config path for ``main``: a dict is a patch of BASE written as JSON
    ("HUGE" as the literal 1e400, which JSON reads as inf), bytes are written
    as they are, and a Path or a str names a file as it is."""
    if isinstance(config, (Path, str)):
        return str(config)
    if isinstance(config, dict):
        config = json.dumps(_config(config)).replace('"HUGE"', "1e400").encode()
    Path("scenario.json").write_bytes(config)
    return "scenario.json"


def _read_csv(path):
    with open(path, "r", newline="") as fh:
        lines = fh.read().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line]
    return header, {name: np.array([float(r[i]) for r in rows]) for i, name in enumerate(header)}


class Prefix(str):
    """A message that Python's own wording ends, which varies by version:
    the output must start with it."""


_LEAD = {2: "config error: ", 3: "numerical invariant violated: ", 4: "i/o error: "}


def _check_outcome(tmp_path, capsys, code, expected_code, message):
    """A success writes x.csv and a summary and nothing to stderr; a failure
    writes one exact line to stderr, nothing to stdout and no CSV."""
    out, err = capsys.readouterr()
    if expected_code == 0:
        assert (code, err) == (0, "")
        assert out and (tmp_path / "x.csv").stat().st_size > 0
        return
    expected = _LEAD[expected_code] + message
    if isinstance(message, Prefix):
        assert code == expected_code and err.startswith(expected) and err.count("\n") == 1, err
    else:
        assert (code, err) == (expected_code, expected + "\n")
    assert out == "" and not list(tmp_path.glob("*.csv"))


# (config name, command): simulate and analytic on every bundled config, and
# compare on each that lists its ratios
_BUNDLED = [
    (path.name, c) for path in sorted(CONFIGS.glob("*.json"))
    for c in ["simulate", "analytic"] + ["compare"] * ("compare" in json.loads(path.read_text()))
]

_MAX_POINTS = np.iinfo(np.intp).max // np.dtype(complex).itemsize
_STATICS = sorted(_STATIC_PRESETS)
_NON_NUMBERS = ["1", True, None, [1], {}]
_EMPTY = "empty output path: output.path and --out must name a file"
_SURROGATE = "'utf-8' codec can't encode character '\\ud800' in position 1: surrogates not allowed"
# (id, command, config, flags, exit code, stderr after its lead)
CONTRACT = (
    [(f"{name}-{c}", c, CONFIGS / name, ["--out", "x.csv"], 0, "") for name, c in _BUNDLED]
    # compare sets eta from each ratio and analytic runs no kind, so an
    # effective kind at eta = 0 stops neither
    + [
        (f"eta-0-effective-{c}-n{n}", c, {"model": {"n_sites": n, "eta": 0.0},
                                           "run": {"hamiltonian": "effective"}}, [], 0, "")
        for c in ("compare", "analytic") for n in (2, 3)
    ]
    + [
        # j_xy = j / 2 underflows to 0: simulate runs it, analytic's period overflows
        ("heisenberg-j-underflow", "simulate", {"model": {"preset": "heisenberg", "j": 5e-324}},
         [], 0, ""),
        # LAPACK's complex eigh does not converge on the 9-dim block; M * 2^-e does
        ("huge-couplings", "simulate",
         {"model": {"n_sites": 3, "preset": "custom", "j_xy": 1e290, "j_z": 1.0, "eta": 1e10},
          "initial": {"static": "up-down"}}, [], 0, ""),
    ]
    # the shape of each block: absent, null, a list or with an unknown key
    + [
        (f"{block}-{shape}", "simulate", {block: value}, ["--out", "x.csv"],
         2 if message else 0, message)
        for block, (keys, required) in cli._BLOCKS.items()
        for shape, value, message in [
            ("absent", DROP, f"missing required block {block!r}" if required else ""),
            ("null", None, f"missing required block {block!r}" if required
             else f"{block} must be a JSON object"),
            ("list", [], f"{block} must be a JSON object"),
            ("unknown-key", {"bogus": 1},
             f"unknown key 'bogus' in {block} (expected one of {sorted(keys)})"),
        ]
    ]
    + [
        ("top-level-list", "simulate", b"[]", [], 2, "config must be a JSON object"),
        ("top-level-unknown-key", "simulate", {"modle": {}}, [], 2,
         f"unknown key 'modle' in top level (expected one of {sorted(cli._BLOCKS)})"),
        ("model-unknown-key", "simulate", {"model": {"decay": 0.1}}, [], 2,
         "unknown key 'decay' in model (expected one of ['eta', 'j', 'j_xy', 'j_z', 'n_sites', "
         "'preset'])"),
        ("two-unknown-keys", "simulate", {"initial": {"phase": 1.0, "angle": 0.0}}, [], 2,
         "unknown key 'angle' in initial (expected one of ['e_spin', 'site', 'static'])"),
        ("syntax-error", "simulate", b'{\n "model": {},\n "oops"\n}', [], 2,
         "syntax error at line 4, column 1: Expecting ':' delimiter"),
        ("not-utf8", "simulate", b'{"model": "\xff"}', [], 2, "config is not UTF-8 text: "
         "'utf-8' codec can't decode byte 0xff in position 11: invalid start byte"),
        ("nested-too-deep", "simulate", b"[" * 200000, [], 2,
         Prefix("unreadable JSON: maximum recursion depth exceeded")),
        ("integer-too-long", "simulate", b'{"model": {"eta": ' + b"1" * 5000 + b"}}", [], 2,
         Prefix("unreadable JSON: Exceeds the limit")),
        ("missing-eta", "simulate", {"model": {"eta": DROP}}, [], 2,
         "missing required key 'eta' in model"),
        # shape errors come before value errors
        ("output-list-before-eta", "simulate", {"model": {"eta": -1.0}, "output": []}, [], 2,
         "output must be a JSON object"),
        ("compare-list-before-eta", "simulate", {"model": {"eta": -1.0}, "compare": []}, [], 2,
         "compare must be a JSON object"),
        ("path-not-string", "simulate", {"output": {"path": 3}}, [], 2,
         "output.path must be a string, got 3"),
    ]
    + [
        (f"columns-{name}", "simulate", {"output": {"columns": value}}, [], 2,
         "output.columns must be a non-empty list of column names")
        for name, value in (("string", "P_up"), ("empty", []), ("numbers", [1]))
    ]
    + [
        ("column-off-the-lattice", "simulate", {"output": {"columns": ["P_up", "P0"]}}, [], 2,
         f"unknown column 'P0' in output.columns (valid: {sorted(HEADER)})"),
        ("ratios-empty", "simulate", {"compare": {"ratios": []}}, [], 2,
         "compare.ratios must be a non-empty list of numbers"),
        ("ratios-number", "simulate", {"compare": {"ratios": 10}}, [], 2,
         "compare.ratios must be a non-empty list of numbers"),
    ]
    + [
        (f"ratios-{value!r}", command, {"compare": {"ratios": [1.0, value]}}, [], 2,
         f"compare.ratios entries must be positive and finite, got {value!r}")
        for command, value in (("simulate", -2.0), ("simulate", 0), ("compare", math.nan))
    ]
    # values the library checks, with its messages
    + [
        (f"{block}.{key}-{value!r}"[:40], "simulate", {block: {key: value, **extra}}, [], 2,
         message.format(repr(value)))
        for block, key, extra, message in [
            ("model", "n_sites", {}, "n_sites must be 2 or 3, got {}"),
            ("model", "eta", {}, "eta must be a finite number >= 0, got {}"),
            ("model", "j", {}, "model.j must be finite, got {}"),
            ("model", "j_xy", {"preset": "custom"}, "model.j_xy must be finite, got {}"),
            ("model", "j_z", {"preset": "custom"}, "model.j_z must be finite, got {}"),
            ("run", "t_max", {}, "t_max must be a positive finite number, got {}"),
            ("run", "n_points", {}, f"n_points must be an integer in [2, {_MAX_POINTS}], got {{}}"),
        ]
        for value in {
            "n_sites": [4, "2"],
            "eta": [-1.0, math.nan, math.inf, 10**400, "ten"] + _NON_NUMBERS,
            "j": [math.nan] + _NON_NUMBERS,
            "j_xy": [math.nan] + _NON_NUMBERS,
            "j_z": _NON_NUMBERS,
            "t_max": [-1.0, math.inf] + _NON_NUMBERS,
            "n_points": [1, True, 10**30],
        }[key]
    ]
    + [
        ("eta-literal-1e400", "simulate", {"model": {"eta": "HUGE"}}, [], 2,
         "eta must be a finite number >= 0, got inf"),
        ("preset-unknown", "simulate", {"model": {"preset": "ising"}}, [], 2,
         "model.preset must be xy, heisenberg or custom, got 'ising'"),
        ("heisenberg-j_xy-and-j_z", "simulate",
         {"model": {"preset": "heisenberg", "j_z": 1.0, "j_xy": 0.9}}, [], 2,
         "preset 'heisenberg' takes j, not j_xy or j_z"),
        ("xy-j-and-j_xy", "simulate", {"model": {"j": 2.0, "j_xy": 1.0}}, [], 2,
         "preset 'xy' takes j, not j_xy"),
        ("heisenberg-j-and-j_z", "simulate",
         {"model": {"preset": "heisenberg", "j": 2.0, "j_z": 1.0}}, [], 2,
         "preset 'heisenberg' takes j, not j_z"),
    ]
    + [
        (f"{preset}-refuses-{key}-{c}", c, {"model": {"preset": preset, key: 1.0}}, [], 2,
         f"preset {preset!r} takes {taken}, not {key}")
        for preset, key, taken in [("xy", "j_xy", "j"), ("xy", "j_z", "j"),
                                   ("heisenberg", "j_xy", "j"), ("heisenberg", "j_z", "j"),
                                   ("custom", "j", "j_xy and j_z")]
        for c in COMMANDS
    ]
    + [
        (f"n_points-{n_points}-{c}", c, {"run": {"n_points": n_points}}, [], 2,
         f"n_points must be an integer in [2, {_MAX_POINTS}], got {n_points}")
        for n_points in (2**59, 2**63 - 1) for c in COMMANDS
    ]
    + [
        ("site-0-on-two-sites", "simulate", {"initial": {"site": 0}}, [], 2,
         "unknown site label 0; valid: (1, 2)"),
        ("site-bool", "simulate", {"initial": {"site": True}}, [], 2,
         "unknown site label True; valid: (1, 2)"),
        ("e_spin-null", "simulate", {"initial": {"e_spin": None}}, [], 2,
         "unknown mobile-spin label None; valid: up, down"),
        ("static-unknown", "simulate", {"initial": {"static": "sideways"}}, [], 2,
         f"unknown static-pair preset 'sideways'; valid: {_STATICS}"),
        ("static-list", "simulate", {"initial": {"static": ["up-up"]}}, [], 2,
         f"unknown static-pair preset ['up-up']; valid: {_STATICS}"),
        ("kind-list", "simulate", {"run": {"hamiltonian": ["exact"]}}, [], 2,
         "unknown hamiltonian kind ['exact']; valid: ('exact', 'effective')"),
    ]
    + [
        (f"kind-unknown-{c}", c, {"run": {"hamiltonian": "trotter"}}, [], 2,
         "unknown hamiltonian kind 'trotter'; valid: ('exact', 'effective')")
        for c in COMMANDS
    ]
    # at eta = 0 the kinetic modes do not separate, on either lattice
    + [
        (f"effective-eta-0-n{n}", "simulate",
         {"model": {"n_sites": n, "eta": 0}, "run": {"hamiltonian": "effective"}}, [], 2,
         "effective requires eta > 0, which separates the kinetic modes")
        for n in (2, 3)
    ]
    # the output path and the flags
    + [
        (f"{name}-{c}", c, {"output": {"path": path}}, flags, 2, message)
        for name, path, flags, message in [
            ("no-output-path", DROP, [], "no output path: set output.path or pass --out"),
            ("empty-output-path", "", [], _EMPTY),
            # an empty --out is a bad value, not an absent one that defers to output.path
            ("empty-out-flag", "x.csv", ["--out", ""], _EMPTY),
        ]
        for c in COMMANDS
    ]
    + [
        ("output-path-surrogate", "simulate", {"output": {"path": "a\ud800.csv"}}, [], 2,
         "unusable output path 'a\\ud800.csv': " + _SURROGATE),
        ("output-path-nul", "simulate", {"output": {"path": "a\x00.csv"}}, [], 2,
         "unusable output path 'a\\x00.csv': embedded null byte"),
        ("out-flag-surrogate", "simulate", {"output": {"path": DROP}}, ["--out", "a\ud800.csv"],
         2, "unusable output path 'a\\ud800.csv': " + _SURROGATE),
        ("config-path-surrogate", "simulate", "a\ud800.json", [], 2,
         "unusable config path 'a\\ud800.json': " + _SURROGATE),
        ("config-path-nul", "simulate", "a\x00b", [], 2,
         "unusable config path 'a\\x00b': embedded null byte"),
        ("unwritable-output", "simulate", {}, ["--out", "no_such_dir/x.csv"], 4,
         "[Errno 2] No such file or directory: 'no_such_dir/x.csv'"),
        ("no-ratios", "compare", {"compare": DROP}, [], 2,
         "no ratios: set compare.ratios or pass --ratios"),
    ]
    + [
        (f"missing-config-{c}", c, "nope.json", [], 4,
         "[Errno 2] No such file or directory: 'nope.json'")
        for c in COMMANDS
    ]
    + [
        # an empty flag is a bad value, not an absent one that defers to compare.ratios
        (f"ratios-flag-{flag!r}", "compare", {}, ["--ratios", flag], 2, message)
        for flag, message in [
            ("1,two", "bad --ratios value '1,two'"),
            ("", "bad --ratios value ''"),
            ("nan", "--ratios entries must be positive and finite, got nan"),
            ("1,inf", "--ratios entries must be positive and finite, got inf"),
            ("1e400", "--ratios entries must be positive and finite, got inf"),
        ]
    ]
    # runs the library refuses, and closed forms that overflow
    + [
        ("analytic-no-coupling", "analytic", {"model": {"preset": "custom"}}, [], 2,
         "model: the closed form needs a nonzero coupling; j_xy = j_z = 0"),
        ("compare-no-coupling", "compare", {"model": {"preset": "custom"}}, [], 2,
         "coupling scale is zero; eta/J is undefined"),
    ]
    + [
        (f"energy-scale-overflows-{c}", c, {"model": {"preset": "heisenberg", "j": -1e308}}, [], 2,
         "model: energy scale eta + |j_xy| + |j_z| = 1.5e+308 with t_max = 30.0 overflows")
        for c in ("simulate", "analytic")
    ]
    + [
        # a t_max below 1 scales no phase down past the float range
        ("energy-scale-overflows-short-run", "simulate",
         {"model": {"preset": "custom", "eta": 1e308}, "run": {"t_max": 0.5, "n_points": 3}}, [],
         2, "model: energy scale eta + |j_xy| + |j_z| = 1e+308 with t_max = 0.5 overflows"),
    ]
    + [
        ("energy-scale-overflows-compare", "compare", {"model": {"j": 1e300}},
         ["--ratios", "1,1e7"], 2,
         "eta/J = 10000000.0: energy scale eta + |j_xy| + |j_z| = 1.0000001000000001e+307 "
         "with t_max = 30.0 overflows"),
        ("eta-overflows", "compare", {"model": {"j": 1e10}}, ["--ratios", "1e300"], 2,
         "eta/J = 1e+300: eta must be a finite number >= 0, got inf"),
        ("ratio-underflows", "compare", {"model": {"j": 1e-300}}, ["--ratios", "1e-300"], 2,
         "eta/J = 1e-300: ratio * J underflows to 0"),
    ]
    + [
        (f"period-overflows-{name}", "analytic", {"model": patch}, [], 3,
         f"closed-form period overflows (J = {patch['j']!r})")
        for name, patch in [
            ("xy", {"j": 5e-324}),
            ("xy-1e-310", {"j": 1e-310}),
            ("heisenberg", {"preset": "heisenberg", "j": 5e-324}),
            # j / 2 underflows to 0 on three sites; the period still overflows
            ("three-sites", {"n_sites": 3, "j": 5e-324}),
        ]
    ]
)


@pytest.mark.parametrize(
    "command, config, flags, code, message", [row[1:] for row in CONTRACT],
    ids=[row[0] for row in CONTRACT],
)
def test_the_cli_contract(tmp_path, monkeypatch, capsys, command, config, flags, code, message):
    monkeypatch.chdir(tmp_path)
    got = main([command, _write_config(config), *flags])
    _check_outcome(tmp_path, capsys, got, code, message)


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


def _trajectory(**fields):
    """A two-site Trajectory of sane values at as many points as ``t`` has
    (one without it); a keyword gives one field's values, as a list."""
    sane = dict(t=0.0, p_site=(1.0, 0.0), p_up=1.0, f_plus=0.0, f_minus=0.0, logneg=0.0,
                f2=0.0, sz_total=-0.5, s12_sq=2.0, norm=1.0, energy=math.nan)
    values = {name: [value] * len(fields.get("t", [0.0])) for name, value in sane.items()} | fields
    return Trajectory(**{name: np.array(v, dtype=float) for name, v in values.items()})


FAULTS = [
    (f"memory-{c}", c, TimeGrid, "times", _raise(MemoryError("Unable to allocate 7.28 EiB")), 2,
     "the run does not fit in memory: Unable to allocate 7.28 EiB")
    for c in COMMANDS
] + [
    ("eigensolver", "simulate", np.linalg, "eigh",
     _raise(np.linalg.LinAlgError("Eigenvalues did not converge")), 3,
     "Eigenvalues did not converge"),
]


@pytest.mark.parametrize(
    "command, owner, name, fault, code, message", [row[1:] for row in FAULTS],
    ids=[row[0] for row in FAULTS],
)
def test_an_injected_fault_ends_in_its_exit_code(
    tmp_path, monkeypatch, capsys, command, owner, name, fault, code, message
):
    monkeypatch.chdir(tmp_path)
    path = _write_config({})
    monkeypatch.setattr(owner, name, fault)
    got = main([command, path])
    _check_outcome(tmp_path, capsys, got, code, message)


PROCESS = [
    ("0", ["simulate", str(CONFIGS / "three_site_middle_start.json"), "--out", "x.csv"], 0, ""),
    ("config-2", ["compare", "scenario.json"], 2, "config error: n_sites must be 2 or 3, got 4\n"),
    ("usage-2", ["bogus", "scenario.json"], 2, Prefix("usage: spinhop ")),
    ("invariant-3", ["analytic", "period.json"], 3,
     "numerical invariant violated: closed-form period overflows (J = 5e-324)\n"),
    ("io-4", ["simulate", "nope.json"], 4,
     "i/o error: [Errno 2] No such file or directory: 'nope.json'\n"),
    ("help", ["--help"], 0, ""),
    # stdout a pipe whose reader is gone, block-buffered as it is by default
    ("closed-stdout-4", ["simulate", str(CONFIGS / "xy_strong_hopping.json"), "--out", "x.csv"],
     4, "i/o error: [Errno 32] Broken pipe\n"),
]


@pytest.mark.parametrize("name, args, code, stderr", PROCESS, ids=[row[0] for row in PROCESS])
def test_the_process_exits_with_the_code_main_returns(
    tmp_path, monkeypatch, capsys, name, args, code, stderr
):
    monkeypatch.chdir(tmp_path)
    _write_config({"model": {"n_sites": 4}})
    Path("period.json").write_text(json.dumps(_config({"model": {"j": 5e-324}})))
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as by default
    read, write = os.pipe()
    os.close(read)  # the closed-stdout row writes to a pipe that no one reads
    done = subprocess.run(
        [sys.executable, "-m", "spinhop.cli", *args], env=env, text=True, timeout=120,
        stdout=write if name == "closed-stdout-4" else subprocess.PIPE, stderr=subprocess.PIPE,
    )
    os.close(write)
    assert done.returncode == code, done.stderr
    assert done.stderr.startswith(stderr) if isinstance(stderr, Prefix) else done.stderr == stderr
    if args == ["--help"]:
        assert done.stdout.startswith("usage: spinhop ")
    elif code == 0:  # the process writes what main writes
        written = Path("x.csv").read_bytes()
        assert main(args) == 0 and Path("x.csv").read_bytes() == written
        assert capsys.readouterr().out == done.stdout


BROKEN = [
    ("probability", {"p_site": [(1.2, -0.2)], "p_up": [0.5]}, "P1 = 1.2 outside [0, 1] at t = 0.0"),
    ("first-point", {"t": [0.0, 0.5, 1.0], "norm": [1.0, 0.8, 1.0], "p_up": [0.5, 0.5, 1.5],
                     "p_site": [(1.0, 0.0), (1.0, 0.0), (0.5, 0.5)]},
     "norm drifted to 0.8 at t = 0.5"),
    ("later-point", {"t": [0.0, 0.5], "p_up": [0.5, 1.5]}, "P_up = 1.5 outside [0, 1] at t = 0.5"),
    ("site-sum", {"t": [0.0, 0.25], "p_site": [(1.0, 0.0), (0.5, 0.25)]},
     "site populations sum to 0.75 at t = 0.25"),
    ("norm-nan", {"t": [0.0, 0.5], "norm": [1.0, math.nan]}, "norm drifted to nan at t = 0.5"),
] + [
    (f"{column}-inf", {"t": [0.0, 0.5], field: [0.0, math.inf]},
     f"{column} = inf is not finite at t = 0.5")
    for field, column in (("logneg", "logneg"), ("sz_total", "Sz"), ("s12_sq", "S12sq"))
]


@pytest.mark.parametrize("fields, message", [row[1:] for row in BROKEN],
                         ids=[row[0] for row in BROKEN])
def test_a_broken_trajectory_names_its_first_failing_check(fields, message):
    with pytest.raises(NumericalInvariantError) as raised:
        cli._validated_columns(_trajectory(**fields), 2)
    assert str(raised.value) == message


def test_probabilities_within_tolerance_are_clamped():
    noisy = _trajectory(p_site=[(1.0 + 1e-12, -1e-12)], p_up=[1.0 + 1e-12], f2=[-1e-12])
    values = cli._validated_columns(noisy, 2)
    assert [values[c][0] for c in ("t", "P1", "P2", "P_up", "F2")] == [0.0, 1.0, 0.0, 1.0, 0.0]


@pytest.mark.parametrize(
    "patch, spec, kind, grid, start, columns",
    [
        ({}, ModelSpec(2, 10.0, 1.0), "exact", TimeGrid(30.0, 11), 3, None),
        ({"run": DROP}, ModelSpec(2, 10.0, 1.0), "exact", TimeGrid(30.0, 2001), 3, None),
        ({"model": {"preset": "heisenberg"}, "output": {"columns": ["F_plus", "P_up"]}},
         ModelSpec(2, 10.0, 0.5, 1.0), "exact", TimeGrid(30.0, 11), 3, ("F_plus", "P_up")),
        ({"model": {"n_sites": 3}, "initial": {"site": 0}, "run": {"hamiltonian": "effective"}},
         ModelSpec(3, 10.0, 1.0), "effective", TimeGrid(30.0, 11), 8 + 3, None),  # middle site
    ],
    ids=["base", "grid-defaults", "heisenberg-columns", "three-site-middle-effective"],
)
def test_parse_config_reads_each_block(patch, spec, kind, grid, start, columns):
    # the kind is checked as a name (a row of test_library_contract: nothing is built)
    cfg = parse_config(json.dumps(_config(patch)))
    assert (cfg.spec, cfg.hamiltonian, cfg.grid) == (spec, kind, grid)
    assert (cfg.columns, cfg.ratios, cfg.out_path) == (columns, (10.0,), "x.csv")
    assert np.flatnonzero(cfg.initial).tolist() == [start] and cfg.initial[start] == 1.0


@settings(max_examples=100, deadline=None)
@given(j=st.floats(allow_nan=False, allow_infinity=False), n_sites=st.sampled_from([2, 3]))
@example(j=5e-324, n_sites=2)  # j / 2 underflows to 0
@example(j=-5e-324, n_sites=3)
@example(j=1e290, n_sites=2)
@example(j=-1e290, n_sites=3)
def test_a_preset_reads_only_the_couplings_it_takes(j, n_sites):
    # the JSON text carries j to the spec bit for bit, on either lattice
    for preset, couplings in (("xy", (j, 0.0)), ("heisenberg", (j / 2, j))):
        patch = {"model": {"n_sites": n_sites, "preset": preset, "j": j}}
        cfg = parse_config(json.dumps(_config(patch)))
        assert cfg.spec == ModelSpec(n_sites, 10.0, *couplings)
    # a coupling the preset does not take is refused whatever its value
    for preset, key in (("xy", "j_xy"), ("xy", "j_z"), ("heisenberg", "j_xy"),
                        ("heisenberg", "j_z"), ("custom", "j")):
        bad = _config({"model": {"n_sites": n_sites, "preset": preset, key: j}})
        with pytest.raises(cli.ConfigError, match=f"^preset '{preset}' takes .*, not {key}$"):
            parse_config(json.dumps(bad))


@pytest.mark.parametrize(
    "command, flags, written, ratios",
    [
        ("simulate", ["--out", "b.csv"], "b.csv", None),
        ("analytic", ["--out", "b.csv"], "b.csv", None),
        ("compare", ["--out", "b.csv", "--ratios", "1,3"], "b.csv", [1.0, 3.0]),
        ("compare", ["--ratios", "2,20"], "x.csv", [2.0, 20.0]),
    ],
)
def test_the_flags_replace_their_config_values(
    tmp_path, monkeypatch, capsys, command, flags, written, ratios
):
    # J = 0.1: a ratio of 3 runs at eta = 0.30000000000000004, and the table
    # holds the ratio asked for, not eta / J = 3.0000000000000004
    monkeypatch.chdir(tmp_path)
    path = _write_config({"model": {"j": 0.1}})
    assert main([command, path, *flags]) == 0
    assert [p.name for p in tmp_path.glob("*.csv")] == [written]
    Path(written).rename("flagged.csv")
    if ratios:
        assert list(_read_csv("flagged.csv")[1]["eta_over_j"]) == ratios
        assert capsys.readouterr().out.startswith(f"eta/J={ratios[0]:.17g}: ")
    # without the flags the config's values stand
    assert main([command, path]) == 0
    if ratios:
        assert list(_read_csv("x.csv")[1]["eta_over_j"]) == [10.0]
    else:
        assert Path("x.csv").read_bytes() == Path("flagged.csv").read_bytes()


@pytest.mark.parametrize(
    "patch, header",
    [
        ({"run": {"n_points": 201}}, HEADER),
        ({"model": {"n_sites": 3}, "initial": {"site": 0}}, HEADER[:3] + ["P0"] + HEADER[3:]),
        ({"output": {"columns": ["norm", "F_plus"]}}, ["t", "F_plus", "norm"]),  # in table order
    ],
    ids=["two-sites", "three-sites", "columns"],
)
def test_simulate_writes_its_columns_and_their_extrema(
    tmp_path, monkeypatch, capsys, patch, header
):
    monkeypatch.chdir(tmp_path)
    path = _write_config(patch)
    assert main(["simulate", path]) == 0 and main(["simulate", path, "--out", "again.csv"]) == 0
    blob = Path("x.csv").read_bytes()
    assert Path("again.csv").read_bytes() == blob  # a rerun writes the same bytes
    assert b"\r" not in blob and blob.endswith(b"\n") and blob.count(b"\nt,") == 0
    got, data = _read_csv("x.csv")
    assert got == header
    # each column but t: min and max as %.17g, of the values written
    summary = [f"{c}: min={data[c].min():.17g} max={data[c].max():.17g}" for c in header[1:]]
    assert capsys.readouterr().out.splitlines() == summary * 2
    for c in header:  # probabilities are clamped into [0, 1]
        assert not COLUMNS[c][2] or 0.0 <= data[c].min() <= data[c].max() <= 1.0


def test_csv_rows_are_written_in_chunks_of_the_per_value_format(tmp_path, monkeypatch):
    rng = np.random.default_rng(21)
    table = rng.normal(size=(3 * cli._CSV_ROWS + 17, 7)) * 10.0 ** rng.integers(-300, 300, 7)
    table[5] = [-0.0, 5e-324, 1e-300, 0.1 + 0.2, 1 - 2**-53, 1e16, 2001.0]
    header = [f"c{i}" for i in range(7)]
    expected = ",".join(header) + "\n" + "".join(
        ",".join(f"{x:.17g}" for x in row) + "\n" for row in table.tolist()
    )
    writes = []

    def recording_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        write = fh.write
        fh.write = lambda text: writes.append(text.count("\n")) or write(text)
        return fh

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    out = tmp_path / "long.csv"
    cli._write_csv(str(out), header, table)
    assert out.read_bytes() == expected.encode()
    # the header, then one write per chunk of rows
    assert writes == [1, cli._CSV_ROWS, cli._CSV_ROWS, cli._CSV_ROWS, 17]


@pytest.mark.parametrize("n_sites", [2, 3])
def test_compare_gap_columns_carry_the_report_gaps(tmp_path, monkeypatch, capsys, n_sites):
    monkeypatch.chdir(tmp_path)
    path = _write_config({"model": {"n_sites": n_sites}, "run": {"n_points": 51}})
    assert main(["compare", path]) == 0
    header, data = _read_csv("x.csv")
    sites = ["P1", "P2", "P0"] if n_sites == 3 else ["P1", "P2"]
    compared = sites + ["P_up", "F_plus", "F_minus", "logneg", "F2"]
    assert header == ["eta_over_j", "max_state_infidelity"] + ["gap_" + c for c in compared]
    cfg = parse_config(Path(path).read_text())
    report = compare_exact_effective(cfg.spec, cfg.initial, cfg.grid)
    assert {c: data["gap_" + c][0] for c in compared} == report.max_observable_gap
    infidelity = data["max_state_infidelity"][0]
    assert infidelity == report.max_state_infidelity
    assert capsys.readouterr().out == f"eta/J=10: max_state_infidelity={infidelity:.17g}\n"


@pytest.mark.parametrize("preset", ["xy", "heisenberg"])
@pytest.mark.parametrize("n_sites, site", [(2, 1), (3, 0), (3, 1)])
def test_compare_reads_a_negative_coupling_as_its_magnitude(
    tmp_path, monkeypatch, capsys, preset, n_sites, site
):
    # strong hopping is eta >> |J|, so each ratio runs at eta = ratio * |J|
    monkeypatch.chdir(tmp_path)
    tables = []
    for j in (1.0, -1.0):
        patch = {"model": {"n_sites": n_sites, "preset": preset, "j": j},
                 "initial": {"site": site}, "run": {"n_points": 201}}
        assert main(["compare", _write_config(patch), "--ratios", "1,10,100"]) == 0
        tables.append(_read_csv("x.csv"))
    (header, plus), (header_negative, minus) = tables
    assert header_negative == header
    assert list(minus["eta_over_j"]) == [1.0, 10.0, 100.0]
    for c in header:
        assert np.abs(minus[c] - plus[c]).max() <= 1e-12, c


@pytest.mark.parametrize(
    "patch, rate, weight",
    [({}, 1.0 / SQRT2, 1.0), ({"model": {"preset": "heisenberg"}}, 3.0 / 8.0, 8.0 / 9.0),
     ({"model": {"n_sites": 3}, "initial": {"site": 0}}, 1.0 / (2.0 * SQRT2), 1.0)],
    ids=["xy", "heisenberg", "three-site-middle"],
)
def test_analytic_writes_the_closed_form(tmp_path, monkeypatch, capsys, patch, rate, weight):
    # alpha_down_sq = weight * sin^2(rate * t), and the two add up to 1
    monkeypatch.chdir(tmp_path)
    assert main(["analytic", _write_config({"run": {"n_points": 601}, **patch})]) == 0
    header, data = _read_csv("x.csv")
    assert header == ["t", "alpha_up_sq", "alpha_down_sq"]
    assert np.abs(data["alpha_down_sq"] - weight * np.sin(rate * data["t"]) ** 2).max() <= 1e-12
    assert np.abs(data["alpha_up_sq"] + data["alpha_down_sq"] - 1.0).max() <= 1e-12
    (line,) = capsys.readouterr().out.splitlines()
    assert float(line.removeprefix("period=")) == pytest.approx(2.0 * math.pi / rate, rel=1e-15)


@pytest.mark.parametrize(
    "config",
    [CONFIGS / p.name for p in sorted(CONFIGS.glob("*.json"))]
    + [{"model": {"preset": "custom", "j_xy": 1.0, "j_z": 0.7}, "run": {"n_points": 2001}}],
    ids=[p.name for p in sorted(CONFIGS.glob("*.json"))] + ["custom"],
)
def test_analytic_follows_the_effective_run(tmp_path, monkeypatch, capsys, config):
    # every start here has S_z = -1/2, where P_up and F_plus are the two
    # doublet populations; the lattice's effective kind is right for any start
    monkeypatch.chdir(tmp_path)
    cfg = parse_config(Path(_write_config(config)).read_text())
    assert main(["analytic", _write_config(config), "--out", "closed.csv"]) == 0
    effective = run_trajectory(cfg.spec, "effective", cfg.initial, cfg.grid)
    _, got = _read_csv("closed.csv")
    assert np.abs(got["alpha_up_sq"] - effective.p_up).max() <= 1e-12
    assert np.abs(got["alpha_down_sq"] - effective.f_plus).max() <= 1e-12


_EXTREMES = [0.0, -0.0, 1.0, -1.0, 5e-324, 1e-300, -1e-300, 1e-10, 1e10, 1e300, -1e300,
             1e308, -1e308, 1.7976931348623157e308]
_NUMBERS = st.one_of(st.sampled_from(_EXTREMES), st.floats(allow_nan=False, allow_infinity=False))
# half the draws come from values a run accepts, to get past the config checks
_POSITIVE = st.one_of(
    st.sampled_from([x for x in _EXTREMES if x > 0]), st.floats(1e-3, 1e3), _NUMBERS
)
# fields whose values the library types check, not the CLI
_LIBRARY_FIELDS = [
    ("model", "n_sites"), ("model", "eta"), ("initial", "site"), ("initial", "e_spin"),
    ("initial", "static"), ("run", "hamiltonian"), ("run", "t_max"), ("run", "n_points"),
]


@st.composite
def _fuzz_configs(draw):
    n_sites = draw(st.sampled_from([2, 3]))
    preset = draw(st.sampled_from(["xy", "heisenberg", "custom"]))
    model = {"n_sites": n_sites, "eta": draw(_POSITIVE), "preset": preset}
    keys = ["j"] if preset != "custom" else ["j_xy", "j_z"]
    keys += draw(st.lists(st.sampled_from(["j", "j_xy", "j_z"]), max_size=1))
    model.update({k: draw(_NUMBERS) for k in keys})
    cfg = {
        "model": model,
        "initial": {
            "site": draw(st.sampled_from([1, 2, 0] if n_sites == 3 or draw(st.booleans()) else [1, 2])),
            "e_spin": draw(st.sampled_from(["up", "down"])),
            "static": draw(st.sampled_from(list(_STATIC_PRESETS))),
        },
        "run": {
            "hamiltonian": draw(st.sampled_from(HAMILTONIAN_KINDS)),
            "t_max": draw(_POSITIVE),
            # 10**30 is rejected before any array is sized from it
            "n_points": draw(st.one_of(st.integers(min_value=0, max_value=6), st.just(10**30))),
        },
        "compare": {"ratios": draw(st.lists(_POSITIVE, min_size=1, max_size=3))},
    }
    wrong = draw(st.booleans())
    if wrong:  # a JSON value of the wrong type in a field the library checks
        block, key = draw(st.sampled_from(_LIBRARY_FIELDS))
        cfg[block][key] = draw(st.sampled_from([True, "1", [1], {}, None]))
    return draw(st.sampled_from(["simulate", "compare", "analytic"])), cfg, wrong


@settings(max_examples=300, deadline=None)
@given(_fuzz_configs())
@example(  # linspace overflows on its way to the largest t_max
    (
        "simulate",
        {
            "model": {"n_sites": 2, "eta": 0.1, "preset": "xy", "j": 0.1},
            "initial": {"site": 1, "e_spin": "up", "static": "down-down"},
            "run": {"hamiltonian": "exact", "t_max": 1.7976931348623157e308, "n_points": 4},
            "compare": {"ratios": [1.0]},
        },
        False,
    )
)
def test_fuzzed_configs_end_in_a_documented_exit_code(command_and_config):
    command, cfg, wrong = command_and_config
    out_text, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(cfg))
        out = Path(tmp) / "out.csv"
        with contextlib.redirect_stdout(out_text), contextlib.redirect_stderr(err):
            code = main([command, str(path), "--out", str(out)])
        assert code == 2 if wrong else code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
            assert table.size and np.isfinite(table).all()
        if code == 0 and command == "analytic":
            (period,) = [
                float(line.removeprefix("period="))
                for line in out_text.getvalue().splitlines()
                if line.startswith("period=")
            ]
            assert math.isfinite(period) and period > 0.0
