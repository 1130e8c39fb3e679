"""The benchmark's correctness gate, run against the library in process.

``perfbench/`` checks every benchmark operation against stored references;
these tests apply the same checks to the seed-1 ``param_scan`` specs and to
every CLI run, so an output change that would fail the benchmark fails here
first.  A guard also checks what the benchmark's inputs solve: each
Hamiltonian is checked whole once and solved only in its occupied total-S_z
sectors, and no static-pair state needs a 4x4 eigensolve (they are all
X states, whose log-negativity is closed-form).  A count guard checks that
the scan samples its grid once, builds each run's Hamiltonian once and checks
it and the static-pair stack once each.  Another guard checks that every
function the traced pass wraps by name still exists, so a refactor that
moves one fails here rather than in the benchmark.  The benchmark's modules
are imported read-only (no bytecode is written next to them).
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import spinhop
from spinhop import analysis, cli, dynamics, linalg, model

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _import_bench():
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import scan
        import tracing
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
    return scan, tracing, workloads


scan, tracing, workloads = _import_bench()
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


def test_benchmark_inputs_need_no_4x4_eigensolve(tmp_path, capsys, monkeypatch):
    solved, checked, evolved = [], [], []

    def counted(fn, sizes):
        def wrapper(m, *args, **kwargs):
            sizes.append(np.shape(m)[-1])
            return fn(m, *args, **kwargs)

        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name), solved))
    monkeypatch.setattr(linalg, "assert_hermitian", counted(linalg.assert_hermitian, checked))
    evolve = counted(dynamics.evolve_on_grid, evolved)
    for module in (dynamics, analysis):
        monkeypatch.setattr(module, "evolve_on_grid", evolve)
    for op in CLI_OPS:
        assert cli.main(workloads.cli_argv(op, tmp_path / "out.csv")) == 0
    capsys.readouterr()
    grid = spinhop.TimeGrid(t_max=scan.T_MAX, n_points=scan.N_POINTS)
    inputs = scan.build_inputs(spinhop, scan.draw_params(workloads.DEFAULT_SEED))
    for spec, kind, psi0 in inputs:
        scan.run_op(spinhop, grid, spec, kind, psi0)
    assert len(CLI_OPS) == 8 and len(inputs) == 304
    # the Hamiltonians' sector solves, n_sites * {1, 3}, are seen; none is whole
    assert {2, 6, 3, 9} <= set(solved)
    assert not {16, 24} & set(solved)
    assert solved.count(4) == 0
    # each Hamiltonian is checked whole exactly once
    full_size = [n for n in checked if n in (16, 24)]
    assert len(evolved) > 304 and sorted(full_size) == sorted(evolved)


def test_scan_runs_sample_the_grid_once_and_check_twice_each(monkeypatch):
    # counts calls, no timing: the scan's fixed per-run cost must not come
    # back through resampling the grid or rebuilding the Hamiltonian, nor go
    # by dropping a check
    linspace, checked, built = [], [], []
    sample = np.linspace

    def counted_linspace(*args, **kwargs):
        linspace.append(args)
        return sample(*args, **kwargs)

    check = linalg.assert_hermitian

    def counted_check(m, *args, **kwargs):
        checked.append(np.shape(m))
        return check(m, *args, **kwargs)

    def counted_build(spec, *args, **kwargs):
        built.append(spec)
        return model.build_hamiltonian(spec, *args, **kwargs)

    monkeypatch.setattr(np, "linspace", counted_linspace)
    monkeypatch.setattr(linalg, "assert_hermitian", counted_check)
    monkeypatch.setattr(dynamics, "build_hamiltonian", counted_build)
    grid = spinhop.TimeGrid(t_max=scan.T_MAX, n_points=scan.N_POINTS)
    inputs = scan.build_inputs(spinhop, scan.draw_params(workloads.DEFAULT_SEED))
    assert len(inputs) == 304
    for spec, kind, psi0 in inputs:
        del checked[:], built[:]
        scan.run_op(spinhop, grid, spec, kind, psi0)
        dim = 8 * spec.n_sites
        # the whole Hamiltonian, then the static pair's (T, 4, 4) stack
        assert checked == [(dim, dim), (scan.N_POINTS, 4, 4)]
        assert built == [spec]
    assert len(linspace) <= 1


# traced targets whose code is gone; the benchmark still lists them
RETIRED_TARGETS = {
    "spinhop.backend.jacobi_sweeps",
    "spinhop.linalg.partial_trace",
    # every kind is built by build_hamiltonian, which "model.build" still wraps
    "spinhop.model.build_effective_hamiltonian",
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
