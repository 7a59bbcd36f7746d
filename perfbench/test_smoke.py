"""The benchmark's own test: every workload at a tiny horizon.

Run with ``python3 -m pytest perfbench/test_smoke.py`` from the root of a
checkout.  It takes about half a minute on two cores.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_prints_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], cwd=RUN.parent.parent,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr + proc.stdout
