#!/usr/bin/env python3
"""Run the three bundled demonstration cases and print a summary table.

Writes each case's scenario file and CSV outputs under --out (default
./results), then reports the reference optimum, final optimal error, fitted
log-error slope, and event statistics.

Usage:
    python scripts/run_cases.py [--out results] [--seed N]
"""

import argparse
import json
import os
import sys

from resopt.cli import build_scenario, execute, preset


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    for name in ("case1", "case2", "case3"):
        doc = preset(name)
        if args.seed is not None:
            doc["sim"]["seed"] = args.seed
        with open(os.path.join(args.out, f"{name}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)

        loaded = build_scenario(doc)
        result = execute(loaded, os.path.join(args.out, name))
        if result.diverged_at is not None:
            print(f"{name}: DIVERGED at t={result.diverged_at:.3f}")
            continue
        report, traj = result.report, result.trajectory
        line = (f"{name}: theta*={report.theta_star:+.6f}  "
                f"final_error={report.final_error:.3e}  "
                f"fitted_rate={report.fitted_rate:+.4f}")
        if loaded.scenario.algorithm == "event_based":
            counts = tuple(s.count for s in report.trigger_stats)
            total = sum(counts)
            steps = len(traj.times) - 1
            agents = loaded.scenario.n_agents
            line += (f"  events={counts} "
                     f"(saved {100.0 * (1.0 - total / (agents * steps)):.1f}% "
                     f"of per-step transmissions)")
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
