"""The benchmark's call surface.

perfbench/workloads.py calls resopt's public functions by name.  Running its
operation and its per-layer probe on every workload's smoke document here
makes a renamed or removed function fail this suite, not the benchmark.
The harness itself, ``perfbench/run.py``, is run on every workload to pin
the output that a benchmark run is read from.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import load_workloads

workloads = load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_operation_and_layer_probe(name, tmp_path):
    doc = workloads.WORKLOADS[name].document(1, True)
    assert doc["sim"]["horizon"] == workloads.SMOKE_HORIZON
    tracer = workloads.Tracer()
    result = workloads.run_single(doc, str(tmp_path), math.inf, tracer)
    assert result.failures == []
    assert result.digest and result.csv_bytes > 0
    workloads.probe_layers(doc, result, tracer)
    spans = {record["name"] for record in tracer.spans}
    assert {"graph.stationary_weighting", "graph.minimum_cut",
            "graph.sample_switching_path", "attack.activity_series",
            "attack.check_frequency_condition",
            "attack.check_duration_condition"} <= spans


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_harness_output_contract(name):
    # A run is read from its last stdout line, so nothing may follow the
    # result: every earlier line is an env, digest or raw line, and stderr
    # stays empty.
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", name,
         "--seed", "1", "--seconds", "1", "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    *head, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert head and all(line.startswith(("env ", "digest ", "raw ")) for line in head), head
