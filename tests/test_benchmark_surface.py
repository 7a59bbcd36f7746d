"""The benchmark's call surface.

perfbench/workloads.py calls resopt's public functions by name.  Running its
operation and its per-layer probe on every workload's smoke document here
makes a renamed or removed function fail this suite, not the benchmark.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


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
