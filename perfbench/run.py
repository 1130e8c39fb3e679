"""spinhop benchmark: end-to-end throughput and a traced per-layer breakdown.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from its ``src``.
Workloads (one child process at a time, one BLAS thread each):

* ``cli_simulate``: ``spinhop simulate`` on the six single-run configs in
  ``configs/``, one CLI process per operation, import included.
* ``cli_compare``: ``spinhop compare`` on the ratio sweep config and on the
  three-site config with ``--ratios 1,10,100``.
* ``param_scan``: 304 seeded specs run in one process through the library;
  one operation is ``run_trajectory`` on an 11-point grid plus
  ``conservation_monitor``.  Here the 16/24-dim eigensolve dominates, where
  per-point observables dominate the CLI workloads.
* ``all``: the three above in turn.

The seed draws the param_scan specs and the order of every pass.  A run does
one discarded warm-up operation, times the set-up in fresh interpreters, then
runs whole passes over the workload's inputs until SECONDS have passed.  Every
output is checked against ``references/`` (param_scan at seeds other than
``workloads.DEFAULT_SEED``: against ``oracle.py``); a failed check, exception
or nonzero exit code fails the operation.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones, from a separate in-process run that wraps the program's functions (see
``tracing.py``).  Human-readable lines come first, then the full report as
one JSON line (also written to ``perfbench/out/``), then the result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import scan
import workloads
from workloads import ROOT, SRC

OUT = workloads.HERE / "out"
N_SETUP = 4  # fresh interpreters before the loop, and again after it
CHILD = [sys.executable, str(workloads.HERE / "child.py")]
CLI = [sys.executable, "-c", "import sys; from spinhop.cli import main; sys.exit(main())"]
OP_TIMEOUT_S = 60.0

# name -> (unit, key in the per-pass layer metrics of tracing.layer_metrics)
PER_LAYER = {
    "cli.parse_s": ("s", "cli.parse.self_s"),
    "cli.self_s": ("s", "cli.cmd.self_s"),
    "cli.csv_bytes": ("bytes", "cli.csv_bytes"),
    "model.build_s": ("s", "model.build.self_s"),
    "model.build_calls": ("count", "model.build.calls"),
    "linalg.eigh_big_s": ("s", "linalg.eigh_big.self_s"),
    "linalg.eigh_big_calls": ("count", "linalg.eigh_big.calls"),
    "linalg.eigh_small_s": ("s", "linalg.eigh_small.self_s"),
    "linalg.eigh_small_calls": ("count", "linalg.eigh_small.calls"),
    "linalg.reduce_s": ("s", "linalg.reduce.self_s"),
    "linalg.reduce_calls": ("count", "linalg.reduce.calls"),
    "backend.sweeps": ("count", "backend.sweeps"),
    "dynamics.evolve_self_s": ("s", "dynamics.evolve.self_s"),
    "dynamics.states_bytes": ("bytes", "dynamics.states_bytes"),
    "dynamics.observables_self_s": ("s", "dynamics.observables.self_s"),
    "dynamics.observables_calls": ("count", "dynamics.observables.calls"),
    "dynamics.run_trajectory_self_s": ("s", "dynamics.run_trajectory.self_s"),
    "analysis.compare_self_s": ("s", "analysis.compare.self_s"),
    "analysis.conservation_s": ("s", "analysis.conservation.self_s"),
    "trace.unattributed_s": ("s", "op.self_s"),
    "trace.wall_s": ("s", "op.total_s"),
    "trace.overhead_s": ("s", None),
}


def spawn(argv, log, timeout=OP_TIMEOUT_S):
    """Run a child to completion: (wall seconds, exit code, peak RSS in MB)."""
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT, env=workloads.child_env()
        )
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def setup_times(workload, seed, work):
    """Wall time of fresh interpreters doing the workload's set-up."""
    if workload == "param_scan":
        argv = CHILD + ["setup-scan", str(seed)]
    else:
        configs = sorted({str(ROOT / op[1]) for op in workloads.CLI_WORKLOADS[workload]})
        argv = CHILD + ["setup-cli", *configs]
    times = []
    for _ in range(N_SETUP):
        wall, code, _ = spawn(argv, work / "setup.log")
        if code != 0:
            raise RuntimeError(f"set-up child exited with {code}; see {work / 'setup.log'}")
        times.append(wall)
    return times


def warm_up(workload, seed, work):
    """Discarded run that compiles the pyc files and fills the page cache."""
    if workload == "param_scan":
        argv = CHILD + ["setup-scan", str(seed)]
    else:
        ops = workloads.CLI_WORKLOADS[workload]
        argv = CLI + workloads.cli_argv(min(ops, key=workloads.points), work / "warmup.csv")
    spawn(argv, work / "warmup.log")


def run_cli(workload, seed, seconds, work):
    """Untraced CLI loop: rows of (latency, error, points) and the peak RSS."""
    ops = workloads.CLI_WORKLOADS[workload]
    refs = workloads.load_cli_reference()
    rng = np.random.default_rng(seed)
    log = work / "cli.log"
    rows, peak = [], 0.0
    start = time.perf_counter()
    while not rows or time.perf_counter() - start < seconds:
        for i in workloads.pass_order(rng, len(ops)):
            out = work / f"op{len(rows)}.csv"
            wall, code, rss = spawn(CLI + workloads.cli_argv(ops[i], out), log)
            key = workloads.cli_key(ops[i])
            error = f"{key}: exit code {code}" if code else workloads.check_csv(out, key, refs)
            out.unlink(missing_ok=True)
            rows.append((wall, error, workloads.points(ops[i])))
            peak = max(peak, rss)
    return rows, peak


def run_child_loop(mode, workload, seed, seconds, work):
    """The param_scan loop or a traced run, in one child: its result and peak RSS."""
    argv = CHILD + [mode] + ([workload] if mode == "trace" else [])
    _, code, peak = spawn(argv + [str(seed), str(seconds), str(work)], work / f"{mode}.log",
                          timeout=2 * seconds + OP_TIMEOUT_S)
    if code != 0:
        raise RuntimeError(f"{mode} child exited with {code}; see {work / mode}.log")
    with open(work / "result.json") as fh:
        return json.load(fh), peak


def tail(latencies):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(latencies)
    if n < 11:
        return None
    rank = n - 10
    return {"value": sorted(latencies)[rank - 1], "percentile": round(100.0 * rank / n, 2),
            "samples": n}


def end_to_end(rows, setup, peak, processes):
    latencies = [r[0] for r in rows]
    # A median, like op_p50_s: the sum over a run swings twice as much with
    # the load other tenants put on the host as the median does.
    rates = [(points if error is None else 0) / latency for latency, error, points in rows]
    metrics = {
        "points_per_s": (statistics.median(rates), "1/s", len(rows)),
        "op_p50_s": (statistics.median(latencies), "s", len(rows)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (peak, "MB", processes),
    }
    extra = {"op_tail_s": tail(latencies), "setup_samples_s": setup}
    return metrics, extra


def per_layer(result):
    """Median over traced passes of every per-layer metric."""
    passes = {int(p): m for p, m in result["layers"].items()}
    untraced_wall = dict.fromkeys(passes, 0.0)
    for n_pass, _, latency, _, traced in result["rows"]:
        if not traced:
            untraced_wall[n_pass] += latency
    metrics = {}
    for name, (unit, key) in PER_LAYER.items():
        if key is None:  # trace.overhead_s: traced against untraced runs of the same pass
            values = [m["op.total_s"] - untraced_wall[p] for p, m in passes.items()]
        else:
            values = [m.get(key, 0) for m in passes.values()]
        metrics[name] = (statistics.median(values), unit, len(values))
    wall = metrics["trace.wall_s"][0]
    shares = {
        name: round(value / wall, 4)
        for name, (value, unit, _) in metrics.items()
        if unit == "s" and name not in ("trace.wall_s", "trace.overhead_s")
    }
    spans = sorted({k for m in passes.values() for k in m if k.endswith((".calls", ".total_s"))})
    per_span = {k: statistics.median(m.get(k, 0) for m in passes.values()) for k in spans}
    extra = {"self_share_of_wall": shares, "per_span": per_span,
             "spans_recorded": result["spans"], "absent": result["absent"],
             "traced_passes": len(passes)}
    return metrics, extra


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(seed):
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    sys.path.insert(0, str(SRC))
    import spinhop

    sources = hashlib.sha256()
    for path in sorted((SRC / "spinhop").rglob("*.py")):
        sources.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "spinhop_backend": getattr(getattr(spinhop, "backend", None), "ACTIVE", None),
        "git_commit": git_commit(), "source_sha256": sources.hexdigest()[:16],
        "thread_env": workloads.THREAD_ENV, "seed": seed,
        "reference_seed": workloads.DEFAULT_SEED, "tolerance": workloads.TOLERANCE,
    }


def run_workload(workload, seed, seconds, trace):
    work = OUT / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if trace:
        result, _ = run_child_loop("trace", workload, seed, seconds, work)
        errors = [row[3] for row in result["rows"]]
        metrics, extra = per_layer(result)
    else:
        warm_up(workload, seed, work)
        # half the set-up samples before the loop and half after, so that
        # they see the same machine as the operations
        setup = setup_times(workload, seed, work)
        if workload == "param_scan":
            result, peak = run_child_loop("scan", workload, seed, seconds, work)
            rows = [(row[2], row[3], scan.N_POINTS) for row in result["rows"]]
            processes = 1
        else:
            rows, peak = run_cli(workload, seed, seconds, work)
            processes = len(rows)
        setup += setup_times(workload, seed, work)
        errors = [r[1] for r in rows]
        metrics, extra = end_to_end(rows, setup, peak, processes)
    failures = [e for e in errors if e is not None]
    extra["fail_frac"] = len(failures) / len(errors)
    extra["failures"] = failures[:5]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": len(errors), "failed": len(failures),
        "metrics": {n: {"value": v, "unit": u, "samples": k} for n, (v, u, k) in metrics.items()},
        **extra,
    }


def print_report(report):
    print(f"== {report['workload']} (seed {report['seed']}, trace {report['trace']})")
    for name, m in report["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}  (n={m['samples']})")
    if "op_tail_s" in report:
        t = report["op_tail_s"]
        text = f"{t['value']:.6g} s  (p{t['percentile']}, n={t['samples']})" if t else \
            "undefined: fewer than 11 operations"
        print(f"{'op_tail_s':32s} {text}")
    print(f"{'fail_frac':32s} {report['fail_frac']:.6g}  "
          f"({report['failed']} of {report['attempted']} operations)")
    for failure in report["failures"]:
        print(f"  failed: {failure}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spinhop" / "__init__.py").is_file():
        print(f"no spinhop sources under {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, args.trace)
        print_report(report)
        reports.append(report)
    meta = metadata(args.seed)
    for report in reports:
        report["meta"] = meta
        path = OUT / f"report-{report['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(reports[0] if len(reports) == 1 else {"reports": reports}))
    metrics = {}
    for r in reports:
        for name, m in r["metrics"].items():
            key = name if len(reports) == 1 else f"{r['workload']}.{name}"
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
