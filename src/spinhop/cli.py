"""Command-line front end: scenario configs in, deterministic CSV out.

Subcommands
-----------
``simulate``  evolve one scenario and write the observable table
``compare``   exact-vs-effective deviation table over a list of eta/J ratios
``analytic``  closed-form strong-hopping probabilities for overlay plots

Each subcommand takes a JSON config path and an optional ``--out`` path.
Config schema (unknown keys are rejected)::

    {
      "model":   {"n_sites": 2, "eta": 10.0, "preset": "xy",
                  "j": 1.0, "j_xy": ..., "j_z": ...},
      "initial": {"site": 1, "e_spin": "up", "static": "down-down"},
      "run":     {"hamiltonian": "exact", "t_max": 30.0, "n_points": 2001},
      "output":  {"path": "out.csv", "columns": ["P_up", "F_plus"]},
      "compare": {"ratios": [1, 2, 10]}
    }

Presets fix the couplings: ``xy`` means ``j_xy = j, j_z = 0`` and
``heisenberg`` means ``j_z = j = 2 j_xy`` (``j`` defaults to 1, so ``eta``
is the ratio eta/J).  Site labels are 1, 2 on two sites and 1, 0, 2 (left,
middle, right) on three.

The CLI checks the shape of the JSON (blocks, keys, number types, presets,
columns, ratios); the library types check the values themselves
(``ModelSpec``, ``encode_state``, ``hamiltonian_for``, ``TimeGrid``), and a
value they reject is a config error that carries the library's message.

Exit codes: 0 success, 2 config error, 3 numerical-invariant violation,
4 i/o failure.  A run whose energies or phases would overflow, or that does
not fit in memory, is a config error; an eigensolver that does not converge,
or a closed form that is not finite, is a numerical-invariant violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .analysis import _OBSERVABLE_GAP_FIELDS, compare_exact_effective
from .dynamics import (
    TimeGrid,
    analytic_period,
    analytic_two_site,
    hamiltonian_for,
    run_trajectory,
)
from .model import BasisLayout, ModelSpec, _finite, _read_only, encode_state

PROBABILITY_TOL = 1e-9


class ConfigError(Exception):
    """Unusable scenario configuration (syntax or semantics)."""


class NumericalInvariantError(Exception):
    """A computed trajectory violated a numerical invariant."""


_TOP_KEYS = {"model", "initial", "run", "output", "compare"}
_MODEL_KEYS = {"n_sites", "eta", "preset", "j", "j_xy", "j_z"}
_INITIAL_KEYS = {"site", "e_spin", "static"}
_RUN_KEYS = {"hamiltonian", "t_max", "n_points"}
_OUTPUT_KEYS = {"path", "columns"}
_COMPARE_KEYS = {"ratios"}


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
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown key {unknown[0]!r} in {where} (expected one of {sorted(allowed)})"
        )


def _number(block, key, where, default=None):
    if key not in block:
        if default is None:
            raise ConfigError(f"missing required key {key!r} in {where}")
        return default
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    if not _finite(value):
        raise ConfigError(f"{where}.{key} must be finite, got {value!r}")
    return float(value)


def _ratios(values, where) -> tuple:
    """eta/J ratios, each a positive finite number."""
    for r in values:
        if not (_finite(r) and r > 0):
            raise ConfigError(f"{where} entries must be positive and finite, got {r!r}")
    return tuple(float(r) for r in values)


def _resolve_couplings(model):
    preset = model.get("preset", "custom")
    if preset not in ("xy", "heisenberg", "custom"):
        raise ConfigError(f"model.preset must be xy, heisenberg or custom, got {preset!r}")
    if preset == "custom" and "j" in model:
        raise ConfigError("model.j is only meaningful with the xy/heisenberg presets")
    if preset == "xy":
        j_z = _number(model, "j_z", "model", default=0.0)
        if j_z != 0.0:
            raise ConfigError("preset 'xy' requires j_z == 0")
        j = _number(model, "j", "model", default=1.0)
        j_xy = _number(model, "j_xy", "model", default=j)
        if "j" in model and "j_xy" in model and j_xy != j:
            raise ConfigError("preset 'xy': j and j_xy disagree; give one of them")
        return j_xy, 0.0
    if preset == "heisenberg":
        j = _number(model, "j", "model", default=_number(model, "j_z", "model", default=1.0))
        j_z = _number(model, "j_z", "model", default=j)
        if "j" in model and "j_z" in model and j_z != j:
            raise ConfigError("preset 'heisenberg': j and j_z disagree; give one of them")
        j_xy = _number(model, "j_xy", "model", default=j_z / 2.0)
        if abs(j_z - 2.0 * j_xy) > 1e-12 * max(1.0, abs(j_z)):
            raise ConfigError("preset 'heisenberg' requires j_z == 2 * j_xy")
        return j_xy, j_z
    return (
        _number(model, "j_xy", "model", default=0.0),
        _number(model, "j_z", "model", default=0.0),
    )


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario config from JSON text."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(raw, _TOP_KEYS, "top level")

    model = raw.get("model")
    if model is None:
        raise ConfigError("missing required block 'model'")
    _check_keys(model, _MODEL_KEYS, "model")
    eta = _number(model, "eta", "model")
    j_xy, j_z = _resolve_couplings(model)

    initial = raw.get("initial")
    if initial is None:
        raise ConfigError("missing required block 'initial'")
    _check_keys(initial, _INITIAL_KEYS, "initial")

    run = raw.get("run", {})
    _check_keys(run, _RUN_KEYS, "run")
    hamiltonian = run.get("hamiltonian", "exact")
    t_max = _number(run, "t_max", "run", default=30.0)

    # the library types check every value; their message is the config error
    try:
        spec = ModelSpec(n_sites=model.get("n_sites"), eta=eta, j_xy=j_xy, j_z=j_z)
        state = encode_state(
            BasisLayout(spec.n_sites),
            initial.get("site"),
            initial.get("e_spin", "up"),
            initial.get("static"),
        )
        hamiltonian_for(spec, hamiltonian)
        grid = TimeGrid(t_max=t_max, n_points=run.get("n_points", 2001))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    output = raw.get("output", {})
    _check_keys(output, _OUTPUT_KEYS, "output")
    out_path = output.get("path")
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError(f"output.path must be a string, got {out_path!r}")
    columns = output.get("columns")
    if columns is not None:
        if not isinstance(columns, list) or not all(isinstance(c, str) for c in columns):
            raise ConfigError("output.columns must be a list of column names")
        valid = set(_simulate_columns(spec.n_sites))
        for c in columns:
            if c not in valid:
                raise ConfigError(
                    f"unknown column {c!r} in output.columns (valid: {sorted(valid)})"
                )
        columns = tuple(columns)

    compare = raw.get("compare", {})
    _check_keys(compare, _COMPARE_KEYS, "compare")
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


def _check_energy_scale(spec: ModelSpec, grid: TimeGrid, where: str = "model"):
    """Raise ``ConfigError`` unless the energies and phases of the evolution
    stay floats.  ``scale = eta + |j_xy| + |j_z|`` bounds the spectral norm of
    every Hamiltonian of ``spec``, twice it bounds every row sum of ``|H|``,
    and ``scale * t_max`` bounds every phase E * t."""
    scale = spec.eta + abs(spec.j_xy) + abs(spec.j_z)
    if not math.isfinite(2.0 * scale * max(grid.t_max, 1.0)):
        raise ConfigError(
            f"{where}: energy scale eta + |j_xy| + |j_z| = {scale!r} with "
            f"t_max = {grid.t_max!r} overflows"
        )


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


# CSV column -> (Trajectory field, lattice position of a site population,
# whether it is a probability), in simulate column order.  P1 and P2 are the
# outer sites, P0 the middle one (three sites only).
_COLUMNS = {
    "t": ("t", None, False),
    "P1": ("p_site", 0, True),
    "P2": ("p_site", -1, True),
    "P0": ("p_site", 1, True),
    "P_up": ("p_up", None, True),
    "F_plus": ("f_plus", None, True),
    "F_minus": ("f_minus", None, True),
    "logneg": ("logneg", None, False),
    "F2": ("f2", None, True),
    "Sz": ("sz_total", None, False),
    "S12sq": ("s12_sq", None, False),
    "norm": ("norm", None, False),
}


def _simulate_columns(n_sites: int):
    return [c for c in _COLUMNS if c != "P0" or n_sites == 3]


def _column(trajectory, name):
    field, position, _ = _COLUMNS[name]
    values = getattr(trajectory, field)
    return values if position is None else values[:, position]


def _gap_key(name):
    """Key of a column in ``DeviationReport.max_observable_gap``."""
    field, position, _ = _COLUMNS[name]
    return field if position is None else name


def _validated_columns(trajectory, n_sites: int) -> dict:
    """Every simulate column as an array, probabilities clamped into [0, 1].

    Raises ``NumericalInvariantError`` at the first grid point where the
    norm, the sum of the site populations or a probability is off by more
    than ``PROBABILITY_TOL`` or NaN, or another column is not finite, naming
    the first of these checks that fails there.
    """
    cols = {c: _column(trajectory, c) for c in _simulate_columns(n_sites)}
    p_total = sum(cols[c] for c in cols if _COLUMNS[c][1] is not None)
    probabilities = [c for c in cols if _COLUMNS[c][2]]
    others = [c for c in cols if not _COLUMNS[c][2] and c != "norm"]
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
    """Header line, then one line per table row, each value as ``%.17g``."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    rows = np.asarray(table, dtype=float).tolist()
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join(line % tuple(row) for row in rows))


def cmd_simulate(config: ScenarioConfig, out_path: str | None = None) -> str:
    """Run one scenario, write the observable CSV, print per-column extrema."""
    path = out_path or config.out_path
    if path is None:
        raise ConfigError("no output path: set output.path or pass --out")
    _check_energy_scale(config.spec, config.grid)
    trajectory = run_trajectory(
        config.spec, config.hamiltonian, config.initial, config.grid
    )
    values = _validated_columns(trajectory, config.spec.n_sites)
    columns = list(values)
    if config.columns is not None:
        columns = ["t"] + [c for c in columns if c != "t" and c in config.columns]
    _write_csv(path, columns, np.column_stack([values[c] for c in columns]))
    for name in columns[1:]:
        print(f"{name}: min={_fmt(values[name].min())} max={_fmt(values[name].max())}")
    return path


def cmd_compare(
    config: ScenarioConfig, ratios=None, out_path: str | None = None
) -> str:
    """Exact-vs-effective deviation table, one row per eta/J ratio."""
    path = out_path or config.out_path
    if path is None:
        raise ConfigError("no output path: set output.path or pass --out")
    ratios = tuple(ratios) if ratios is not None else config.ratios
    if not ratios:
        raise ConfigError("no ratios: set compare.ratios or pass --ratios")
    variant = None if config.hamiltonian == "exact" else config.hamiltonian
    j = config.spec.j_ref
    if j == 0.0:
        raise ConfigError("compare needs a nonzero coupling")
    gap_cols = [
        c for c in _simulate_columns(config.spec.n_sites)
        if _COLUMNS[c][0] in ("p_site", *_OBSERVABLE_GAP_FIELDS)
    ]
    header = ["eta_over_j", "max_state_infidelity"] + ["gap_" + c for c in gap_cols]
    rows = []
    for ratio in ratios:
        try:
            spec = dataclasses.replace(config.spec, eta=ratio * j)
        except ValueError as exc:  # ratio * J overflowed
            raise ConfigError(f"eta/J = {ratio}: {exc}") from None
        if spec.eta == 0.0:
            raise ConfigError(f"eta/J = {ratio}: ratio * J underflows to 0")
        _check_energy_scale(spec, config.grid, f"eta/J = {ratio}")
        report = compare_exact_effective(spec, config.initial, config.grid, variant=variant)
        rows.append(
            [report.eta_over_j, report.max_state_infidelity]
            + [report.max_observable_gap[_gap_key(c)] for c in gap_cols]
        )
    _write_csv(path, header, rows)
    for row in rows:
        print(f"eta/J={_fmt(row[0])}: max_state_infidelity={_fmt(row[1])}")
    return path


def cmd_analytic(config: ScenarioConfig, out_path: str | None = None) -> str:
    """Closed-form strong-hopping probabilities on the configured grid."""
    path = out_path or config.out_path
    if path is None:
        raise ConfigError("no output path: set output.path or pass --out")
    j = config.spec.j_ref
    if j == 0.0:
        raise ConfigError("analytic needs a nonzero coupling")
    kind = config.spec.coupling_kind()
    if kind == "custom":
        raise ConfigError("analytic solutions exist only for the xy/heisenberg presets")
    lattice = "two_site" if config.spec.n_sites == 2 else "three_site_middle_start"
    period = analytic_period(kind, lattice, j)
    if not math.isfinite(period):
        raise NumericalInvariantError(f"closed-form period overflows (J = {j!r})")
    times = config.grid.times()
    # quarter couplings instead of half: same closed form at half the rate
    rate = j / 2.0 if lattice == "three_site_middle_start" else j
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows are caught below
        solution = analytic_two_site(kind, times, j=rate)
    table = np.column_stack((times, solution.p_up, solution.p_down))
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        t = float(times[int(finite.argmin())])
        raise NumericalInvariantError(f"closed form is not finite at t = {t} (J = {j!r})")
    _write_csv(path, ["t", "alpha_up_sq", "alpha_down_sq"], table)
    print(f"period={_fmt(period)}")
    return path


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


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
    args = _build_parser().parse_args(argv)
    try:
        config = parse_config(_read_text(args.config))
        if args.command == "simulate":
            cmd_simulate(config, out_path=args.out)
        elif args.command == "compare":
            ratios = None
            if args.ratios:
                try:
                    ratios = [float(r) for r in args.ratios.split(",")]
                except ValueError:
                    raise ConfigError(f"bad --ratios value {args.ratios!r}") from None
                ratios = _ratios(ratios, "--ratios")
            cmd_compare(config, ratios=ratios, out_path=args.out)
        elif args.command == "analytic":
            cmd_analytic(config, out_path=args.out)
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
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
