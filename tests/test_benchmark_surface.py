"""The benchmark's call surface.

perfbench/workloads.py calls resopt's public functions by name.  Running its
operation and its per-layer probe on every workload's smoke document here
makes a renamed or removed function fail this suite, not the benchmark.
"""

import math

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
