"""Command-line front end: scenario configs in, deterministic CSV out.

Subcommands
-----------
``simulate``  evolve one scenario and write the observable table
``compare``   exact-vs-effective deviation table over a list of eta/J ratios,
              each run at eta = ratio * |J| (``run.hamiltonian`` plays no part)
``analytic``  closed-form strong-hopping doublet populations for overlay plots

Each subcommand takes a JSON config path and an optional ``--out`` path;
``compare`` also takes an optional ``--ratios`` list.  The flags are config
values: when given, they replace ``output.path`` and ``compare.ratios``
before the command runs, so the config a command receives describes the
run.  Config schema (unknown keys are rejected)::

    {
      "model":   {"n_sites": 2, "eta": 10.0, "preset": "xy",
                  "j": 1.0 (xy, heisenberg) | "j_xy": ..., "j_z": ... (custom)},
      "initial": {"site": 1, "e_spin": "up", "static": "down-down"},
      "run":     {"hamiltonian": "exact", "t_max": 30.0, "n_points": 2001},
      "output":  {"path": "out.csv", "columns": ["P_up", "F_plus"]},
      "compare": {"ratios": [1, 2, 10]}
    }

Presets fix the couplings: ``xy`` takes ``j`` as ``j_xy = j, j_z = 0`` and
``heisenberg`` takes it as ``j_z = j = 2 j_xy`` (``j`` defaults to 1, so
``eta`` is the ratio eta/J); ``custom`` takes ``j_xy`` and ``j_z`` (default
0).  A coupling the preset does not take is a config error.  Site labels are
1, 2 on two sites and 1, 0, 2 (left, middle, right) on three.
``output.columns`` picks the columns of ``simulate`` only; ``compare`` and
``analytic`` write all of theirs.

``analytic`` takes any start and couplings; its ``alpha_up_sq`` and
``alpha_down_sq`` are the populations of |up>|down down> and |down>|psi+>,
which add up to the start's weight on that doublet.

The CLI reads the JSON: it checks the blocks and their keys, all before any
value, then the column names and the eta/J ratios.  The library checks the
values and the preconditions of a run (``ModelSpec.from_preset``,
``encode_state``, ``TimeGrid``, ``run_trajectory`` and its kind check,
``compare_exact_effective``, ``analytic``, ``ModelSpec.j_ref``), and a
value or a run it rejects is a config error that carries the library's
message.  ``run.hamiltonian`` is checked as a name when the config is read,
and against the spec (``effective`` needs ``eta > 0``) only by
``simulate``, the one command that runs it.

Exit codes: 0 success, 2 config error, 3 numerical-invariant violation,
4 i/o failure.  A run whose energies or phases would overflow, or that does
not fit in memory, is a config error; an eigensolver that does not converge,
or a closed-form period that overflows, is a numerical-invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .analysis import compare_exact_effective
from .dynamics import COLUMNS, TimeGrid, analytic, column_names, run_trajectory
from .model import (
    _COUPLING_KEYS, BasisLayout, ModelSpec, _check_kind, _finite, _read_only, encode_state
)

PROBABILITY_TOL = 1e-9


class ConfigError(Exception):
    """Unusable scenario configuration (syntax or semantics)."""


class NumericalInvariantError(Exception):
    """A computed trajectory violated a numerical invariant."""


# block -> (its keys, whether a config must give it); the blocks are the
# top-level keys
_BLOCKS = {
    "model": ({"n_sites", "eta", "preset", *_COUPLING_KEYS}, True),
    "initial": ({"site", "e_spin", "static"}, True),
    "run": ({"hamiltonian", "t_max", "n_points"}, False),
    "output": ({"path", "columns"}, False),
    "compare": ({"ratios"}, False),
}
# rows of a CSV formatted at a time, so no long table is held as one string
_CSV_ROWS = 4096


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    spec: ModelSpec
    initial: np.ndarray  # the encoded start state, read-only
    hamiltonian: str
    grid: TimeGrid
    out_path: str | None
    columns: tuple | None
    ratios: tuple | None


def _check_keys(block, allowed, where):
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(block).difference(allowed))
    if unknown:
        raise ConfigError(
            f"unknown key {unknown[0]!r} in {where} (expected one of {sorted(allowed)})"
        )


def _ratios(values, where) -> tuple:
    """eta/J ratios, each a positive finite number."""
    for r in values:
        if not (_finite(r) and r > 0):
            raise ConfigError(f"{where} entries must be positive and finite, got {r!r}")
    return tuple(float(r) for r in values)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario config from JSON text."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except (RecursionError, ValueError) as exc:  # nested too deep, or an integer too long
        raise ConfigError(f"unreadable JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(raw, _BLOCKS, "top level")
    for name, (keys, required) in _BLOCKS.items():
        if required and raw.get(name) is None:
            raise ConfigError(f"missing required block {name!r}")
        _check_keys(raw.setdefault(name, {}), keys, name)
    model, initial, run, output, compare = (raw[name] for name in _BLOCKS)
    if "eta" not in model:
        raise ConfigError("missing required key 'eta' in model")
    hamiltonian = run.get("hamiltonian", "exact")

    with _config_errors():  # the library checks every value
        given = {key: model[key] for key in _COUPLING_KEYS if key in model}
        spec = ModelSpec.from_preset(
            model.get("preset", "custom"), model.get("n_sites"), model["eta"], **given
        )
        state = encode_state(
            BasisLayout(spec.n_sites),
            initial.get("site"),
            initial.get("e_spin", "up"),
            initial.get("static"),
        )
        _check_kind(None, hamiltonian)
        grid = TimeGrid(**{key: run[key] for key in ("t_max", "n_points") if key in run})

    out_path = output.get("path")
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError(f"output.path must be a string, got {out_path!r}")
    columns = output.get("columns")
    if columns is not None:
        if not (isinstance(columns, list) and columns and all(isinstance(c, str) for c in columns)):
            raise ConfigError("output.columns must be a non-empty list of column names")
        valid = set(column_names(spec.n_sites))
        for c in columns:
            if c not in valid:
                raise ConfigError(
                    f"unknown column {c!r} in output.columns (valid: {sorted(valid)})"
                )
        columns = tuple(columns)

    ratios = compare.get("ratios")
    if ratios is not None:
        if not isinstance(ratios, list) or not ratios:
            raise ConfigError("compare.ratios must be a non-empty list of numbers")
        ratios = _ratios(ratios, "compare.ratios")

    return ScenarioConfig(
        spec=spec,
        initial=_read_only(state),
        hamiltonian=hamiltonian,
        grid=grid,
        out_path=out_path,
        columns=columns,
        ratios=ratios,
    )


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


@contextlib.contextmanager
def _config_errors(prefix: str = ""):
    """Turn a value or a run the library rejects into a ``ConfigError`` that
    carries its message; ``LinAlgError``, a ``ValueError`` too, passes."""
    try:
        yield
    except np.linalg.LinAlgError:
        raise
    except ValueError as exc:
        raise ConfigError(prefix + str(exc)) from None


def _validated_columns(trajectory, n_sites: int) -> dict:
    """Every simulate column as an array, probabilities clamped into [0, 1].

    Raises ``NumericalInvariantError`` at the first grid point where the
    norm, the sum of the site populations or a probability is off by more
    than ``PROBABILITY_TOL`` or NaN, or another column is not finite, naming
    the first of these checks that fails there.
    """
    cols = {c: trajectory.column(c) for c in column_names(n_sites)}
    p_total = sum(cols[c] for c in cols if COLUMNS[c][1] is not None)
    probabilities = [c for c in cols if COLUMNS[c][2]]
    others = [c for c in cols if not COLUMNS[c][2] and c != "norm"]
    tol = PROBABILITY_TOL
    # (message, values, failing points), in the order a point's checks are
    # reported; each is written so that NaN fails it
    checks = [
        ("norm drifted to {!r}", cols["norm"], ~(np.abs(cols["norm"] - 1.0) <= tol)),
        ("site populations sum to {!r}", p_total, ~(np.abs(p_total - 1.0) <= tol)),
    ] + [
        (c + " = {!r} outside [0, 1]", cols[c], ~((-tol <= cols[c]) & (cols[c] <= 1.0 + tol)))
        for c in probabilities
    ] + [(c + " = {!r} is not finite", cols[c], ~np.isfinite(cols[c])) for c in others]
    failed = np.array([bad for _, _, bad in checks])
    if failed.any():
        i = int(failed.any(axis=0).argmax())
        message, values, _ = checks[int(failed[:, i].argmax())]
        raise NumericalInvariantError(
            message.format(float(values[i])) + f" at t = {float(cols['t'][i])}"
        )
    for c in probabilities:
        cols[c] = np.clip(cols[c], 0.0, 1.0)
    return cols


def _write_csv(path: str, header, table):
    """Header line, then one line per table row, each value as ``%.17g``,
    formatted :data:`_CSV_ROWS` rows at a time."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    table = np.asarray(table, dtype=float)
    try:
        fh = open(path, "w", newline="")
    except ValueError as exc:  # a NUL byte, or a character the file system cannot encode
        raise ConfigError(f"unusable output path {path!r}: {exc}") from None
    with fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, len(table), _CSV_ROWS):
            fh.write("".join(line % tuple(row) for row in table[i : i + _CSV_ROWS].tolist()))


def cmd_simulate(config: ScenarioConfig) -> str:
    """Run one scenario, write the observable CSV to ``config.out_path``,
    print per-column extrema and return the path."""
    with _config_errors():  # the kind for the spec, which parse_config left
        _check_kind(config.spec, config.hamiltonian)
    with _config_errors("model: "):  # an energy scale that overflows
        trajectory = run_trajectory(
            config.spec, config.hamiltonian, config.initial, config.grid
        )
    values = _validated_columns(trajectory, config.spec.n_sites)
    columns = list(values)
    if config.columns is not None:
        columns = ["t"] + [c for c in columns if c != "t" and c in config.columns]
    _write_csv(config.out_path, columns, np.column_stack([values[c] for c in columns]))
    for name in columns[1:]:
        print(f"{name}: min={_fmt(values[name].min())} max={_fmt(values[name].max())}")
    return config.out_path


def cmd_compare(config: ScenarioConfig) -> str:
    """Exact-vs-effective deviation table, one row per eta/J ratio of
    ``config.ratios``, written to ``config.out_path``; the config's
    ``run.hamiltonian`` plays no part."""
    if not config.ratios:
        raise ConfigError("no ratios: set compare.ratios or pass --ratios")
    with _config_errors():
        j = abs(config.spec.j_ref)
    rows = []
    for ratio in config.ratios:
        with _config_errors(f"eta/J = {ratio}: "):  # ratio * |J| or the energy scale overflows
            spec = dataclasses.replace(config.spec, eta=ratio * j)
            if spec.eta == 0.0:
                raise ValueError("ratio * J underflows to 0")
            report = compare_exact_effective(spec, config.initial, config.grid)
        rows.append([ratio, report.max_state_infidelity, *report.max_observable_gap.values()])
    gaps = ["gap_" + c for c in report.max_observable_gap]
    _write_csv(config.out_path, ["eta_over_j", "max_state_infidelity", *gaps], rows)
    for row in rows:
        print(f"eta/J={_fmt(row[0])}: max_state_infidelity={_fmt(row[1])}")
    return config.out_path


def cmd_analytic(config: ScenarioConfig) -> str:
    """Closed-form strong-hopping doublet populations on the configured grid,
    written to ``config.out_path``."""
    with _config_errors("model: "):  # no coupling, or an energy scale that overflows
        solution = analytic(config.spec, config.initial, config.grid)
    if not math.isfinite(solution.period):
        raise NumericalInvariantError(f"closed-form period overflows (J = {config.spec.j_ref!r})")
    table = np.column_stack((solution.times, solution.p_up, solution.p_down))
    _write_csv(config.out_path, ["t", "alpha_up_sq", "alpha_down_sq"], table)
    print(f"period={_fmt(solution.period)}")
    return config.out_path


def _read_text(path: str) -> str:
    try:
        fh = open(path, "r", encoding="utf-8")
    except ValueError as exc:  # a NUL byte, or a character the file system cannot encode
        raise ConfigError(f"unusable config path {path!r}: {exc}") from None
    with fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not UTF-8 text: {exc}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinhop",
        description="Spin hopping on a tiny lattice coupled to two static spins",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("simulate", "evolve one scenario and write the observable CSV"),
        ("compare", "exact-vs-effective deviation table over eta/J ratios"),
        ("analytic", "closed-form strong-hopping probabilities"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("config", help="path to the JSON scenario config")
        p.add_argument("--out", help="output CSV path (overrides output.path)")
        if name == "compare":
            p.add_argument(
                "--ratios", help="comma-separated eta/J ratios (overrides compare.ratios)"
            )
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the flags replace their config values, and the
    output path is checked once, before any command runs."""
    args = _build_parser().parse_args(argv)
    try:
        config = parse_config(_read_text(args.config))
        if args.out is not None:
            config = dataclasses.replace(config, out_path=args.out)
        if vars(args).get("ratios") is not None:
            try:
                ratios = [float(r) for r in args.ratios.split(",")]
            except ValueError:
                raise ConfigError(f"bad --ratios value {args.ratios!r}") from None
            config = dataclasses.replace(config, ratios=_ratios(ratios, "--ratios"))
        if config.out_path is None:
            raise ConfigError("no output path: set output.path or pass --out")
        if not config.out_path:
            raise ConfigError("empty output path: output.path and --out must name a file")
        if args.command == "simulate":
            cmd_simulate(config)
        elif args.command == "compare":
            cmd_compare(config)
        else:
            cmd_analytic(config)
        sys.stdout.flush()  # a closed pipe fails here, as an i/o error, not at exit
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. a time grid too long to hold
        print(f"config error: the run does not fit in memory: {exc}", file=sys.stderr)
        return 2
    except (NumericalInvariantError, np.linalg.LinAlgError) as exc:  # or eigh did not converge
        print(f"numerical invariant violated: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            try:  # if stdout's reader is gone, the interpreter's last flush writes nowhere
                sys.stdout.flush()
            except BrokenPipeError:
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
