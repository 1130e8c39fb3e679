"""Child processes that ``run.py`` starts.

    child.py setup-cli CONFIG...            import spinhop, parse the configs
    child.py setup-scan SEED                import spinhop, build the scan inputs
    child.py scan SEED SECONDS OUTDIR       untraced param_scan loop
    child.py trace WORKLOAD SEED SECONDS OUTDIR
                                            traced run, in this process

The set-up modes do nothing else, so ``run.py`` can time the whole process.
The loops run one discarded warm-up operation, then whole passes over the
workload's inputs until SECONDS have passed, check every output against its
reference outside the timed region, and write ``result.json`` to OUTDIR.
"""

import json
import os
import sys
import time

import numpy as np

import scan

# The set-up modes import nothing beyond what spinhop imports anyway; the
# loop modes import their own modules inside the functions that use them.


def setup_cli(configs):
    from spinhop.cli import parse_config

    for path in configs:
        with open(path, encoding="utf-8") as fh:
            parse_config(fh.read())


def setup_scan(seed):
    import spinhop

    return scan.build_inputs(spinhop, scan.draw_params(seed))


def _cli_op(workload, outdir):
    from spinhop import cli

    import workloads

    ops = workloads.CLI_WORKLOADS[workload]
    refs = workloads.load_cli_reference()

    def do_op(op, i):
        return cli.main(workloads.cli_argv(ops[i], f"{outdir}/op{op}.csv"))

    def keep(op, i, code):
        out = f"{outdir}/op{op}.csv"
        key = workloads.cli_key(ops[i])
        error = f"{key}: exit code {code}" if code else workloads.check_csv(out, key, refs)
        if os.path.exists(out):
            os.unlink(out)
        return error

    cheapest = min(range(len(ops)), key=lambda i: workloads.points(ops[i]))
    return len(ops), do_op, keep, cheapest


def _scan_op(seed):
    import spinhop

    import workloads

    params = scan.draw_params(seed)
    reference = workloads.scan_reference(seed, params)
    inputs = scan.build_inputs(spinhop, params)
    grid = spinhop.TimeGrid(t_max=scan.T_MAX, n_points=scan.N_POINTS)

    def do_op(op, i):
        return scan.run_op(spinhop, grid, *inputs[i])

    def keep(op, i, result):
        if workloads.within_tolerance(scan.flatten(*result), reference[i]):
            return None
        return f"spec {i}: outputs outside tolerance {workloads.TOLERANCE}"

    return len(inputs), do_op, keep, 0


def loop(n_ops, do_op, keep, warmup, seed, seconds, tracer=None):
    """A discarded warm-up run of input ``warmup``, then whole passes until
    ``seconds`` have passed.

    ``do_op(op, i)`` runs input ``i`` as operation ``op`` and is timed;
    ``keep(op, i, result)`` checks its outputs untimed and returns an error
    message or None.  With a tracer every input runs twice in a row, once
    untraced and once traced, the two in alternating order, so the tracing
    overhead is measured on the same inputs in the same machine state.
    Returns one (pass, input index, latency, error, traced) row per operation.
    """
    import workloads

    rng = np.random.default_rng(seed)
    do_op(-1, warmup)
    rows = []
    start = time.perf_counter()
    n_pass = 0
    while not rows or time.perf_counter() - start < seconds:
        for i in workloads.pass_order(rng, n_ops):
            modes = (False,) if tracer is None else (len(rows) % 4 == 0, len(rows) % 4 != 0)
            for traced in modes:
                op = len(rows)
                if traced:
                    tracer.install()
                t0 = time.perf_counter()
                try:
                    result = tracer.run_op(op, do_op, op, i) if traced else do_op(op, i)
                except Exception as exc:  # the operation fails; the run goes on
                    latency, error = time.perf_counter() - t0, repr(exc)
                else:
                    latency = time.perf_counter() - t0
                    error = keep(op, i, result)
                if traced:
                    tracer.uninstall()
                rows.append((n_pass, i, latency, error, traced))
        n_pass += 1
    return rows


def run_loop(workload, seed, seconds, outdir, tracer=None):
    import tracing

    if workload == "param_scan":
        n_ops, do_op, keep, warmup = _scan_op(seed)
    else:
        n_ops, do_op, keep, warmup = _cli_op(workload, outdir)
    rows = loop(n_ops, do_op, keep, warmup, seed, seconds, tracer)
    result = {"rows": rows}
    if tracer is not None:
        op_pass = {op: row[0] for op, row in enumerate(rows) if row[4]}
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.counters, op_pass)
        result["absent"] = tracer.absent
        result["spans"] = len(tracer.spans)
    with open(f"{outdir}/result.json", "w") as fh:
        json.dump(result, fh)


def main(argv):
    mode = argv[0]
    if mode == "setup-cli":
        setup_cli(argv[1:])
    elif mode == "setup-scan":
        setup_scan(int(argv[1]))
    elif mode == "scan":
        run_loop("param_scan", int(argv[1]), float(argv[2]), argv[3])
    elif mode == "trace":
        import tracing

        run_loop(argv[1], int(argv[2]), float(argv[3]), argv[4], tracing.Tracer())
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
