"""Time one set-up of a workload in a fresh interpreter and print the seconds.

Set-up is importing resopt and building the workload's scenario from its
document with ``cli.build_scenario``.  ``run.py`` starts this script several
times and reports the median as ``setup_s``.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED SMOKE(0|1)
"""

import sys
import time
from pathlib import Path


def main() -> int:
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads  # imports resopt
    from resopt import cli

    name, seed, smoke = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    cli.build_scenario(workloads.WORKLOADS[name].document(seed, smoke))
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
