"""The benchmark's correctness gate, run against the library in process.

``perfbench/`` checks every benchmark operation against stored references;
these tests apply the same checks to the seed-1 ``param_scan`` specs and to
every CLI run, so an output change that would fail the benchmark fails here
first.  A guard also checks what the benchmark's inputs solve: no run builds
or checks a whole Hamiltonian; each builds, checks and solves only the block
of each total-S_z sector its start occupies, each through the one
propagator, ``evolve_on_grid``, and no static-pair state needs a 4x4
eigensolve.  Every benchmark start has one S_z, so each run reads its
observables off that sector's amplitudes, the log-negativity in closed
form, and no run forms the static pair's (T, 4, 4) stack.  A count guard
checks that the scan samples its grid once, builds and checks one block per
run, and that a start spanning two sectors builds, checks and solves one
block per sector and forms and solves the static pair's stack for the
log-negativity alone: no run builds the whole matrix, not even for its
energy, which is the sum of the blocks' energies.  A cache guard checks
that the scan builds each cached table once per key, and that it lists
every cache of every ``spinhop`` module: the one left is the sector records
of ``model``.  A name guard checks that every kind name the scan passes
builds exactly the effective kind's blocks.  Another guard checks that every
function the traced pass wraps by name still exists, so a refactor that moves one fails here rather
than in the benchmark.  The harness itself runs once per workload in quick
mode.  The benchmark's modules are imported read-only (no bytecode is
written next to them).
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinhop
from spinhop import cli, dynamics, linalg, model

from helpers import two_sector_start

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


class _Counts:
    """Calls made through the library's block and whole-matrix builders, its
    check, its eigensolvers, its propagator and the static pair's
    log-negativity, installed with ``monkeypatch``; ``blocks`` holds the
    shape of each block built and ``evolved`` that of each matrix
    propagated."""

    def __init__(self, monkeypatch):
        self.blocks, self.built, self.checked, self.solved, self.pair = [], [], [], [], []
        self.evolved = []

        def count(module, name, log, key):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                log.append(key(*args))
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("eigh", "eigvalsh"):
            count(np.linalg, name, self.solved, lambda m, *_: np.shape(m)[-1])
        count(linalg, "assert_hermitian", self.checked, lambda m, *_: np.shape(m))
        count(dynamics, "evolve_on_grid", self.evolved, lambda m, *_: np.shape(m))
        for module in (model, dynamics):  # the whole-matrix builder, where it is bound
            if hasattr(module, "build_hamiltonian"):
                count(module, "build_hamiltonian", self.built, lambda spec, *_: spec)
        count(dynamics, "_log_negativity", self.pair, lambda *_: "_log_negativity")
        sector_blocks = dynamics._sector_blocks

        def counted_blocks(*args):
            blocks = sector_blocks(*args)
            self.blocks.extend(np.shape(block) for _, _, block in blocks)
            return blocks

        monkeypatch.setattr(dynamics, "_sector_blocks", counted_blocks)

    def clear(self):
        for log in (self.blocks, self.built, self.checked, self.solved, self.pair, self.evolved):
            del log[:]


def test_benchmark_inputs_need_no_4x4_eigensolve(tmp_path, capsys, monkeypatch):
    counts = _Counts(monkeypatch)
    for op in CLI_OPS:
        assert cli.main(workloads.cli_argv(op, tmp_path / "out.csv")) == 0
    capsys.readouterr()
    grid = spinhop.TimeGrid(t_max=scan.T_MAX, n_points=scan.N_POINTS)
    inputs = scan.build_inputs(spinhop, scan.draw_params(workloads.DEFAULT_SEED))
    for spec, kind, psi0 in inputs:
        scan.run_op(spinhop, grid, spec, kind, psi0)
    assert len(CLI_OPS) == 8 and len(inputs) == 304
    # the Hamiltonians' sector solves, n_sites * {1, 3}, are seen; none is whole
    assert {2, 6, 3, 9} <= set(counts.solved)
    assert not {4, 16, 24} & set(counts.solved)
    # no whole matrix is built; each block is built, checked and solved once,
    # and nothing else is checked or solved
    assert counts.built == []
    assert len(counts.blocks) > 304
    assert counts.checked == counts.blocks
    assert counts.solved == [k for k, _ in counts.blocks]
    # every block is propagated by the one public propagator, nothing else is
    assert counts.evolved == counts.blocks
    # every start has one S_z: no run forms the static pair's (T, 4, 4) stack
    assert counts.pair == []


def test_scan_runs_sample_the_grid_once_and_check_twice_each(monkeypatch):
    # counts calls, no timing: the scan's fixed per-run cost must not come
    # back through resampling the grid, building the whole Hamiltonian or
    # solving it whole, nor go by dropping the block check.  A one-sector run
    # builds, checks and solves one block: the static pair's (T, 4, 4) stack,
    # and its check, exist only on runs that span several S_z sectors.
    linspace = []
    sample = np.linspace

    def counted_linspace(*args, **kwargs):
        linspace.append(args)
        return sample(*args, **kwargs)

    monkeypatch.setattr(np, "linspace", counted_linspace)
    counts = _Counts(monkeypatch)
    grid = spinhop.TimeGrid(t_max=scan.T_MAX, n_points=scan.N_POINTS)
    inputs = scan.build_inputs(spinhop, scan.draw_params(workloads.DEFAULT_SEED))
    assert len(inputs) == 304
    for spec, kind, psi0 in inputs:
        counts.clear()
        scan.run_op(spinhop, grid, spec, kind, psi0)
        n = spec.n_sites
        assert counts.built == []
        assert len(counts.blocks) == 1 and counts.blocks[0] in {(n, n), (3 * n, 3 * n)}
        assert counts.checked == counts.blocks
        assert counts.solved == [counts.blocks[0][0]]
        assert counts.evolved == counts.blocks
        assert counts.pair == []
    assert len(linspace) <= 1
    # the same runs from a start spanning two sectors: one block per sector,
    # and the static pair's stack for the log-negativity alone
    for spec, kind, _ in inputs[:: len(inputs) // 8]:
        counts.clear()
        scan.run_op(spinhop, grid, spec, kind, two_sector_start(model.BasisLayout(spec.n_sites)))
        n = spec.n_sites
        assert counts.blocks == [(3 * n, 3 * n), (n, n)]
        assert counts.evolved == counts.blocks
        # its two blocks, then the static pair's stack
        assert counts.checked == [*counts.blocks, (scan.N_POINTS, 4, 4)]
        assert counts.solved == [3 * n, n, 4]
        assert counts.built == []
        assert counts.pair == ["_log_negativity"]


def test_scan_builds_each_cached_table_once_per_key():
    # counts cache misses, no timing: a table keyed or rebuilt per run would
    # bring back the fixed cost that caching it removed
    tables = {  # cached table -> its number of possible keys on the scan's lattices
        model._sectors: 2,
    }
    # every cache of every spinhop module is listed, so a new one cannot escape
    names = [info.name for info in pkgutil.iter_modules(spinhop.__path__)]
    assert {"analysis", "cli", "dynamics", "linalg", "model"} <= set(names)
    modules = [spinhop] + [importlib.import_module(f"spinhop.{name}") for name in names]
    cached = {
        fn
        for module in modules
        for fn in vars(module).values()
        if callable(fn) and hasattr(fn, "cache_info")
    }
    assert cached == set(tables)
    grid = spinhop.TimeGrid(t_max=scan.T_MAX, n_points=scan.N_POINTS)
    inputs = scan.build_inputs(spinhop, scan.draw_params(workloads.DEFAULT_SEED))
    assert len(inputs) == 304
    for table in tables:
        table.cache_clear()
    for spec, kind, psi0 in inputs:
        scan.run_op(spinhop, grid, spec, kind, psi0)
    misses = {table.__name__: table.cache_info().misses for table in tables}
    assert all(1 <= misses[table.__name__] <= keys for table, keys in tables.items()), misses


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
