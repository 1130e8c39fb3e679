"""Regenerate ``references/`` from the program in this checkout.

    python3 perfbench/make_reference.py

Stores every CLI output of the CLI workloads and the param_scan outputs at
``workloads.DEFAULT_SEED``.  Run it only when the expected outputs change on
purpose, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import scan
import workloads
from run import CLI


def cli_references(tmp) -> dict:
    refs = {}
    for ops in workloads.CLI_WORKLOADS.values():
        for op in ops:
            key = workloads.cli_key(op)
            out = Path(tmp) / f"{key}.csv"
            subprocess.run(CLI + workloads.cli_argv(op, out), check=True, cwd=workloads.ROOT,
                           env=workloads.child_env(), stdout=subprocess.DEVNULL)
            header, table = workloads.read_csv(out)
            refs[key + ".header"] = np.array(header)
            refs[key] = table
    return refs


def scan_reference():
    sys.path.insert(0, str(workloads.SRC))
    import spinhop

    params = scan.draw_params(workloads.DEFAULT_SEED)
    grid = spinhop.TimeGrid(t_max=scan.T_MAX, n_points=scan.N_POINTS)
    outputs = np.stack([
        scan.flatten(*scan.run_op(spinhop, grid, *inputs))
        for inputs in scan.build_inputs(spinhop, params)
    ])
    return {"outputs": outputs, "params": np.array(json.dumps(params))}


def main():
    workloads.REFERENCES.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.HERE) as tmp:
        np.savez_compressed(workloads.CLI_REFERENCE, **cli_references(tmp))
    np.savez_compressed(workloads.SCAN_REFERENCE, **scan_reference())


if __name__ == "__main__":
    main()
