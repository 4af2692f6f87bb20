"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run each workload's op once untraced and once traced, and two short
benchmark runs as subprocesses: about a minute in all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.import_package()

import tracing  # noqa: E402  (needs buffon on sys.path)
import workloads  # noqa: E402
from buffon import counting, discrepancy, steinhaus  # noqa: E402
from buffon.discrepancy import SupConfig  # noqa: E402
from buffon.geometry import unit_square  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_does_not_change_outputs(name, tmp_path):
    setup, op = workloads.WORKLOADS[name]
    ctx = setup(tmp_path, 3)
    ctx["traced"] = False
    plain = op(ctx)
    tracer = tracing.Tracer()
    ctx["traced"] = True
    with tracing.installed(tracer):
        traced = op(ctx)
    assert plain.ok and traced.ok
    assert plain.digests == traced.digests
    assert tracer.spans
    assert discrepancy.evaluate_lines is counting.evaluate_lines


def test_skipped_oracle_line_is_reported_not_failed(tmp_path):
    # On this seed one oracle line stays exceptional after every jitter
    # retry of run_oracle_check; every line it did compare agrees.
    ctx = workloads.plain_setup(tmp_path, 1346260572)
    result = workloads.studies_op(ctx)
    assert result.ok
    assert result.notes == ["oracle lines skipped as exceptional: 1"]


def _traced_estimate(sset, config):
    tracer = tracing.Tracer()
    length = steinhaus.total_length(sset)
    with tracing.installed(tracer):
        report = discrepancy.estimate_sup(sset, length, config)
    return tracer, report


def test_phase_split_on_tiny_set():
    sset = steinhaus.SteinhausSet(body=unit_square(), n=5, eps=0.05,
                                  shifts=steinhaus.sample_shifts(5, 11))
    tracer, report = _traced_estimate(sset, SupConfig(16, 16, 1, seed=2))
    m = tracing.op_layer_metrics(tracer.spans, wall=1.0)
    evaluations = [s for s in tracer.spans if s.name == "counting.evaluate_lines"]
    included = sum(s.attrs["useful"] for s in evaluations[:2])
    assert m["discrepancy.phase.grid.lines"] == 16 * 16
    assert m["discrepancy.phase.targeted.lines"] == 16 * 16 // 8
    assert m["discrepancy.phase.refine1.lines"] == min(100, included) * 121
    assert m["discrepancy.phase.refine2.lines"] == 0
    assert m["discrepancy.phase.witness.lines"] == 1
    assert m["counting.evaluate_lines.lines"] == report.samples_evaluated
    assert sum(m[f"discrepancy.witness_phase.{p}"]
               for p in ("grid", "targeted", "refine")) == 1


def test_witness_phase_attribution_by_hand():
    grid = (np.array([0.1, 0.2]), np.array([0.5, 0.6]), np.array([True, False]))
    targeted = (np.array([0.2]), np.array([0.6]), np.array([True]))
    refine1 = (np.array([0.2, 0.1, 0.3]), np.array([0.6, 0.5, 0.7]),
               np.array([True, True, True]))
    refine2 = (np.array([0.4]), np.array([0.8]), np.array([True]))
    phases = [grid, targeted, refine1, refine2]
    # the grid holds (0.2, 0.6) only as an excluded line
    assert tracing.witness_phase(phases, 0.2, 0.6) == "targeted"
    assert tracing.witness_phase(phases, 0.1, 0.5) == "grid"
    assert tracing.witness_phase(phases, 0.3, 0.7) == "refine"
    assert tracing.witness_phase(phases, 0.4, 0.8) == "refine"
    assert tracing.witness_phase(phases, 0.1, 0.6) is None


def test_benchmark_json_names_match_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] \
        == tracing.LAYER_METRICS


def test_reference_verdict():
    table = json.loads(run.REFERENCE.read_text())
    recorded = table["studies"]["0"]
    assert run.reference_verdict("studies", 0, None).startswith("false")
    assert run.reference_verdict("studies", 0, recorded) == "true"
    assert run.reference_verdict("studies", 0, {"studies.json": "0" * 64}) == "false"
    assert run.reference_verdict("studies", 10**6, recorded).startswith("unknown")


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_declared_metric(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sweep-square",
         "--seed", "4", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True)
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_refuses_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "studies",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
