"""Workload definitions and the correctness gate, shared by ``run.py`` and
its child processes.  Nothing here imports spinhop."""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references"
CLI_REFERENCE = REFERENCES / "cli.npz"
# the seed whose param_scan outputs are stored; other seeds use the oracle
DEFAULT_SEED = 1
SCAN_REFERENCE = REFERENCES / f"param_scan_seed{DEFAULT_SEED}.npz"

# Largest accepted |output - reference| / max(1, |reference|).  At eta/J up to
# 1e3 the Jacobi solver (stopping at 1e-12 of ||H||_F) and LAPACK differ by up
# to ~2e-9 in single observables; a wrong observable off by 1e-6 must fail.
TOLERANCE = 1e-7

# name -> (subcommand, config, extra arguments); one CLI process each
CLI_WORKLOADS = {
    "cli_simulate": [
        ("simulate", "configs/xy_weak_hopping.json", ()),
        ("simulate", "configs/xy_strong_hopping.json", ()),
        ("simulate", "configs/heisenberg_strong_hopping.json", ()),
        ("simulate", "configs/qst_xy.json", ()),
        ("simulate", "configs/qst_heisenberg.json", ()),
        ("simulate", "configs/three_site_middle_start.json", ()),
    ],
    "cli_compare": [
        ("compare", "configs/compare_ratios_xy.json", ()),
        ("compare", "configs/three_site_middle_start.json", ("--ratios", "1,10,100")),
    ],
}
WORKLOADS = (*CLI_WORKLOADS, "param_scan")

# what each workload's traced pass must record at least once
EXERCISED = {
    "cli_simulate": (
        "cli.parse", "cli.cmd", "cli.csv_bytes", "model.build", "linalg.eigh_big",
        "linalg.eigh_small", "linalg.reduce", "backend.sweeps", "dynamics.evolve",
        "dynamics.states_bytes", "dynamics.observables", "dynamics.run_trajectory",
    ),
    "cli_compare": (
        "cli.parse", "cli.cmd", "cli.csv_bytes", "model.build", "linalg.eigh_big",
        "linalg.eigh_small", "linalg.reduce", "backend.sweeps", "dynamics.evolve",
        "dynamics.states_bytes", "dynamics.observables", "analysis.compare",
    ),
    "param_scan": (
        "model.build", "linalg.eigh_big", "linalg.eigh_small", "linalg.reduce",
        "backend.sweeps", "dynamics.evolve", "dynamics.states_bytes",
        "dynamics.observables", "dynamics.run_trajectory", "analysis.conservation",
    ),
}

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    """Environment of every child: the checkout's sources, one BLAS thread."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_key(op) -> str:
    command, config, extra = op
    return ".".join([command, Path(config).stem, *(e.replace(",", "_") for e in extra[1::2])])


def cli_argv(op, out_path) -> list:
    command, config, extra = op
    return [command, str(ROOT / config), *extra, "--out", str(out_path)]


def pass_order(rng, n_ops: int) -> list:
    """Order of one pass over a workload's inputs."""
    return [int(i) for i in rng.permutation(n_ops)]


def points(op) -> int:
    """Time-grid points one CLI operation produces: a compare counts each
    ratio twice, once per Hamiltonian."""
    command, config, extra = op
    raw = json.loads((ROOT / config).read_text())
    n_points = raw.get("run", {}).get("n_points", 2001)
    if command == "simulate":
        return n_points
    ratios = extra[1].split(",") if extra else raw["compare"]["ratios"]
    return 2 * len(ratios) * n_points


def within_tolerance(values, reference) -> bool:
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if values.shape != reference.shape:
        return False
    return bool(np.all(np.abs(values - reference) <= TOLERANCE * np.maximum(1.0, np.abs(reference))))


def read_csv(path):
    """Header and float table of a CLI output file."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, table


def check_csv(path, key, refs) -> str | None:
    """None when the CSV matches its reference, else the reason it does not."""
    try:
        header, table = read_csv(path)
    except (OSError, ValueError) as exc:
        return f"{key}: unreadable output ({exc})"
    if header != list(refs[key + ".header"]):
        return f"{key}: header {header}"
    if not within_tolerance(table, refs[key]):
        return f"{key}: values outside tolerance {TOLERANCE}"
    return None


def load_cli_reference() -> dict:
    with np.load(CLI_REFERENCE) as data:
        return {k: data[k] for k in data.files}


def scan_reference(seed: int, params) -> np.ndarray:
    """Expected outputs of every param_scan spec: stored at DEFAULT_SEED,
    from the oracle otherwise."""
    if seed == DEFAULT_SEED:
        with np.load(SCAN_REFERENCE) as data:
            if json.loads(str(data["params"])) != params:
                raise RuntimeError(f"{SCAN_REFERENCE.name} was made from other specs")
            return data["outputs"]
    return oracle.reference(params)
