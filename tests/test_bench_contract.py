"""The benchmark's correctness gate, run against the library in process.

``perfbench/`` checks every benchmark operation against stored references;
these tests apply the same checks to the seed-1 ``param_scan`` specs and to
every CLI run, so an output change that would fail the benchmark fails here
first.  What the benchmark's inputs call, and what the scan caches, are
rows of ``test_library_contract`` collected here.  Two guards check the
names the scan passes and the functions the traced pass wraps; the harness
runs once per workload in quick mode.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinhop
from spinhop import cli, model

from helpers import PERFBENCH, bench_modules
from test_library_contract import collected

scan, tracing, workloads = bench_modules()
CLI_OPS = [op for ops in workloads.CLI_WORKLOADS.values() for op in ops]


def test_param_scan_matches_stored_reference():
    params = scan.draw_params(workloads.DEFAULT_SEED)
    reference = workloads.scan_reference(workloads.DEFAULT_SEED, params)
    grid = spinhop.TimeGrid(t_max=scan.T_MAX, n_points=scan.N_POINTS)
    inputs = scan.build_inputs(spinhop, params)
    assert len(inputs) == len(reference) == 304
    failed = [
        i
        for i, (spec, kind, psi0) in enumerate(inputs)
        if not workloads.within_tolerance(
            scan.flatten(*scan.run_op(spinhop, grid, spec, kind, psi0)), reference[i]
        )
    ]
    assert failed == []


@pytest.mark.parametrize("op", CLI_OPS, ids=[f"{op[0]}-{Path(op[1]).stem}" for op in CLI_OPS])
def test_cli_output_matches_stored_reference(tmp_path, capsys, op):
    out = tmp_path / "out.csv"
    assert cli.main(workloads.cli_argv(op, out)) == 0
    capsys.readouterr()
    assert workloads.check_csv(out, workloads.cli_key(op), workloads.load_cli_reference()) is None


test_benchmark_inputs_need_no_4x4_eigensolve = collected("benchmark-inputs")
test_scan_runs_sample_the_grid_once_and_check_twice_each = collected("scan-runs")
test_scan_builds_each_cached_table_once_per_key = collected("scan-caches")


@pytest.mark.parametrize("n_sites", [2, 3])
def test_scan_kind_names_build_the_effective_blocks(n_sites):
    # the scan still passes the former names of the effective kind; while it
    # does, each must build exactly the effective kind's blocks
    spec = spinhop.ModelSpec.heisenberg(10.0, n_sites=n_sites)
    everywhere = np.ones(8 * n_sites)
    want = model._sector_blocks(spec, "effective", everywhere)
    for site in model.BasisLayout(n_sites).site_labels():
        got = model._sector_blocks(spec, scan.matching_effective(n_sites, site), everywhere)
        assert len(got) == len(want) == 4
        for (_, idx, block), (_, idx_e, block_e) in zip(got, want):
            assert np.array_equal(idx, idx_e)
            assert np.array_equal(block, block_e), (site, idx[0])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_harness_runs_each_workload_in_quick_mode(workload):
    # the whole benchmark run, children included, so a change that breaks it
    # fails here; about 4 s per workload
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "0.5", "--trace", "0"],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    lines = proc.stdout.splitlines()
    assert lines, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-2000:]
    assert result["attempted"] >= 1


# traced targets whose code is gone; the benchmark still lists them.  Runs
# build each kind's S_z blocks through model._sector_blocks, which no target
# wraps, so "model.build" names two deleted whole-matrix builders
RETIRED_TARGETS = {
    "spinhop.backend.jacobi_sweeps",
    "spinhop.linalg.partial_trace",
    "spinhop.model.build_effective_hamiltonian",
    "spinhop.model.build_hamiltonian",
}


def _resolves(module, attr):
    try:
        return hasattr(importlib.import_module(module), attr)
    except ImportError:
        return False


def test_traced_targets_resolve():
    unresolved = {f"{mod}.{attr}" for mod, attr, *_ in tracing.TARGETS if not _resolves(mod, attr)}
    assert sorted(unresolved - RETIRED_TARGETS) == []


def test_public_names_resolve():
    assert [name for name in spinhop.__all__ if not hasattr(spinhop, name)] == []
