"""Smoke test of the benchmark itself: ``python3 -m pytest perfbench -q``.

Takes about a minute: one traced pass of every workload and one short
untraced run.
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import oracle
import run
import scan
import workloads

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_run_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert [m["unit"] for m in BENCHMARK["per_layer"]] == [u for u, _ in run.PER_LAYER.values()]
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_oracle_matches_stored_outputs_at_default_seed():
    params = scan.draw_params(workloads.DEFAULT_SEED)
    stored = workloads.scan_reference(workloads.DEFAULT_SEED, params)
    computed = oracle.reference(params)
    assert all(workloads.within_tolerance(c, s) for c, s in zip(computed, stored))


@pytest.mark.parametrize("delta, accepted", [(1e-10, True), (1e-6, False)])
def test_gate_accepts_solver_noise_and_rejects_a_wrong_observable(tmp_path, delta, accepted):
    refs = workloads.load_cli_reference()
    key = "simulate.xy_strong_hopping"
    header, table = list(refs[key + ".header"]), refs[key].copy()
    table[:, header.index("P_up")] += delta
    out = tmp_path / "out.csv"
    out.write_text(",".join(header) + "\n"
                   + "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in table))
    assert (workloads.check_csv(out, key, refs) is None) == accepted

    stored = workloads.scan_reference(workloads.DEFAULT_SEED, scan.draw_params(workloads.DEFAULT_SEED))
    perturbed = stored[0].copy()
    perturbed[scan.POINT_COLUMNS.index("P_up")] += delta
    assert workloads.within_tolerance(perturbed, stored[0]) == accepted


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_records_every_layer_it_exercises(workload):
    report = run.run_workload(workload, workloads.DEFAULT_SEED, 0, 1)
    assert report["failed"] == 0
    assert report["absent"] == []
    assert set(report["metrics"]) == set(run.PER_LAYER)
    recorded = {
        name for name in workloads.EXERCISED[workload]
        if report["per_span"].get(name + ".calls", 0) > 0
        or report["metrics"].get(name, {}).get("value", 0) > 0
    }
    assert recorded == set(workloads.EXERCISED[workload])
    metrics = {name: m["value"] for name, m in report["metrics"].items()}
    self_times = sum(v for name, v in metrics.items()
                     if run.PER_LAYER[name][0] == "s" and name.startswith(("cli", "model", "linalg",
                                                                          "dynamics", "analysis")))
    assert self_times + metrics["trace.unattributed_s"] == pytest.approx(metrics["trace.wall_s"])


def test_result_line_has_the_contract_keys():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "param_scan", "--seed", "7",
         "--seconds", "0", "--trace", "0"],
        cwd=workloads.ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_simulate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
