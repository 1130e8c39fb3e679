"""The benchmark's correctness gate, run against the library in process.

``perfbench/`` checks every benchmark operation against stored references;
these tests apply the same checks to the seed-1 ``param_scan`` specs and to
two CLI runs, so an output change that would fail the benchmark fails here
first.  The benchmark's modules are imported read-only (no bytecode is
written next to them).
"""

import sys
from pathlib import Path

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
