#!/usr/bin/env python3
"""Compare convergence across coupling gains beta on the case1 scenario.

The probe defaults to a time shortly after a topology switch, where the
disturbance injected by the switch still dominates the error and scales
inversely with beta.

Usage:
    python scripts/beta_sweep.py [--betas 0.5,1,1.5] [--probe 14.0] [--seed 3]
"""

import argparse
import dataclasses
import sys

from resopt.cli import preset_scenario
from resopt.cost import centralized_optimum
from resopt.sim import convergence_report, run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--betas", default="0.5,1.0,1.5")
    parser.add_argument("--probe", type=float, default=14.0)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    scenario = dataclasses.replace(preset_scenario("case1").scenario,
                                   seed=args.seed)
    if not 0.0 <= args.probe <= scenario.horizon:
        parser.error(f"--probe must lie in [0, {scenario.horizon:g}]")
    theta_star = centralized_optimum(scenario.costs)
    probe = round(args.probe / scenario.step)
    errors = []
    for beta in (float(v) for v in args.betas.split(",")):
        params = dataclasses.replace(scenario.params, beta=beta)
        traj = run(dataclasses.replace(scenario, params=params))
        errors.append((convergence_report(traj, theta_star).error_series[probe].max(),
                       beta))
    print(f"probe time t={args.probe:g}s (error vs the optimum, best first)")
    for error, beta in sorted(errors, key=lambda e: e[0]):
        print(f"  beta={beta:<4g} max_error={error:.6e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
