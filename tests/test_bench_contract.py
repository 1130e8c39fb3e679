"""The benchmark's correctness gate, run against the library in process.

``perfbench/`` checks every benchmark operation against stored references;
these tests apply the same checks to the seed-1 ``param_scan`` specs and to
two CLI runs, so an output change that would fail the benchmark fails here
first.  A guard also checks that none of the benchmark's inputs needs a 4x4
eigensolve: their static-pair states are all X states, whose log-negativity
is closed-form.  The benchmark's modules are imported read-only (no bytecode
is written next to them).
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import spinhop
from spinhop import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import scan
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
    return scan, workloads


def test_param_scan_matches_stored_reference(bench):
    scan, workloads = bench
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


@pytest.mark.parametrize(
    "op",
    [
        ("simulate", "configs/xy_weak_hopping.json", ()),
        ("compare", "configs/three_site_middle_start.json", ("--ratios", "1,10,100")),
    ],
    ids=["simulate-xy_weak_hopping", "compare-three_site_middle_start"],
)
def test_cli_output_matches_stored_reference(bench, tmp_path, capsys, op):
    _, workloads = bench
    out = tmp_path / "out.csv"
    assert cli.main(workloads.cli_argv(op, out)) == 0
    capsys.readouterr()
    assert workloads.check_csv(out, workloads.cli_key(op), workloads.load_cli_reference()) is None


def test_benchmark_inputs_need_no_4x4_eigensolve(bench, tmp_path, capsys, monkeypatch):
    scan, workloads = bench
    solved = []

    def counted(fn):
        def wrapper(m, *args, **kwargs):
            solved.append(np.shape(m)[-1])
            return fn(m, *args, **kwargs)

        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    ops = [op for cli_ops in workloads.CLI_WORKLOADS.values() for op in cli_ops]
    for op in ops:
        assert cli.main(workloads.cli_argv(op, tmp_path / "out.csv")) == 0
    capsys.readouterr()
    grid = spinhop.TimeGrid(t_max=scan.T_MAX, n_points=scan.N_POINTS)
    inputs = scan.build_inputs(spinhop, scan.draw_params(workloads.DEFAULT_SEED))
    for spec, kind, psi0 in inputs:
        scan.run_op(spinhop, grid, spec, kind, psi0)
    assert len(ops) == 8 and len(inputs) == 304
    assert {16, 24} <= set(solved)  # the Hamiltonians' solves are seen
    assert solved.count(4) == 0
