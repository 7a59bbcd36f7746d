"""Workload documents and the timed operations of the resopt benchmark.

Every workload is one scenario document, a bundled preset
(``resopt.cli.preset``) or generated from one.  Its operation, repeated by the
benchmark, is one ``resopt run`` equivalent.  Only resopt's public functions
are called.

The workload seed is the scenario seed (``sim.seed``): it draws the initial
states and the Markov switching path, as ``resopt run --seed`` does.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import os
import time
from contextlib import contextmanager, nullcontext

import numpy as np

from resopt import attack, cli, cost, graph, plant, sim

# Acceptance tolerance of the bundled presets (tests/test_acceptance.py).
PRESET_TOLERANCE = 1e-2
# Stated bound for the generated ring family.  Its error at the horizon is set
# by the periodic bursts and the active graph: 0.005-0.025 over seeds 0-40.
RING_TOLERANCE = 0.05

# The preset's periodic template (a 1 s burst every 100 s) with its first burst
# moved from [43, 44) to [4, 5), so that one operation takes seconds, not tens
# of seconds, and a run repeats it often enough for a steady median.  After
# eight seconds of recovery the error is 4e-3 (median) and at most 7.9e-3 on
# seeds 0-40, within the preset tolerance; at 11-12 s some seeds exceed it.
DOS_PHASE = 4.0
DOS_HORIZON = 13.0
RING_AGENTS = 16
RING_HORIZON = 5.25
# 105 short bursts, so the O(P^2) and O(P^3) budget checks are costly.
RING_ATTACKS = {"period": 0.05, "active": 0.01, "phase": 0.025}
# Admits twenty bursts a second: T_f* = ln(mu) / eta* = 0.02 s, T_a* = 2.
RING_BUDGET = {"lambda_a": 0.6, "lambda_b": 0.5, "mu": 1.001, "eta_star": 0.05,
               "n0": 1.0, "t0": 0.02}
# The presets' [-10, 10] box lets the steep exp_pair costs of some of the 16
# agents blow up within the first steps of the fixed-step integrator.
RING_BOX = 2.0
# Every horizon is cut to this in smoke mode.
SMOKE_HORIZON = 0.3


def dos_event_document(seed: int, smoke: bool) -> dict:
    """The case3 preset: event-triggered law, Markov switching, periodic DoS,
    with the first burst early in the horizon."""
    doc = cli.preset("case3")
    doc["attacks"]["periodic"]["phase"] = DOS_PHASE
    doc["sim"]["horizon"] = SMOKE_HORIZON if smoke else DOS_HORIZON
    doc["sim"]["seed"] = seed
    return doc


def ring_document(seed: int, smoke: bool) -> dict:
    """The 16-agent family: the bundled agents and costs cycled over forward,
    backward and skip-2 rings, switched by the preset Markov generator."""
    doc = cli.preset("case2")
    agents, costs = doc["agents"], doc["costs"]
    doc["agents"] = [copy.deepcopy(agents[i % len(agents)]) for i in range(RING_AGENTS)]
    doc["costs"] = [copy.deepcopy(costs[i % len(costs)]) for i in range(RING_AGENTS)]

    def ring(shift: int) -> list:
        weights = [[0.0] * RING_AGENTS for _ in range(RING_AGENTS)]
        for i in range(RING_AGENTS):
            weights[i][(i - shift) % RING_AGENTS] = cli.GRAPH_WEIGHT
        return weights

    doc["graph_process"]["weights"] = [ring(1), ring(-1), ring(2)]
    doc["attacks"] = {"periodic": dict(RING_ATTACKS), "budget": dict(RING_BUDGET)}
    doc["sim"]["horizon"] = SMOKE_HORIZON if smoke else RING_HORIZON
    doc["sim"]["seed"] = seed
    doc["sim"]["initial"] = {"mode": "random", "low": -RING_BOX, "high": RING_BOX}
    return doc


class Tracer:
    """In-memory spans (id, name, start, end, parent) around calls into resopt."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def totals(self, first: int = 0) -> dict:
        """Summed duration per span name, over spans recorded from ``first`` on."""
        out = {}
        for record in self.spans[first:]:
            out[record["name"]] = out.get(record["name"], 0.0) \
                + record["end"] - record["start"]
        return out


class NullTracer:
    """Tracing off: the same call sites, no records."""

    def span(self, name: str):
        return nullcontext()


@dataclasses.dataclass
class OpResult:
    """What one operation produced, as checked and counted from outside."""

    wall_s: float
    final_error: float
    steps: int
    grid_points: int               # agents times grid points
    broadcasts: int
    blocked_attempts: int
    grad_evals: int
    history_bytes: int             # the Trajectory arrays
    failures: list
    digest: str = ""
    csv_bytes: int = 0
    switches: int = 0              # set by probe_layers
    bursts: int = 0                # set by probe_layers


def run_single(doc: dict, out_dir: str, tolerance: float, tracer) -> OpResult:
    """One ``resopt run`` equivalent: build, oracle, run, report, write."""
    start = time.perf_counter()
    with tracer.span("op"):
        with tracer.span("cli.build_scenario"):
            loaded = cli.build_scenario(doc)
        with tracer.span("cost.centralized_optimum"):
            theta_star = cost.centralized_optimum(list(loaded.scenario.costs), 1e-12)
        with tracer.span("sim.run"):
            traj = sim.run(loaded.scenario)
        with tracer.span("sim.convergence_report"):
            report = sim.convergence_report(traj, theta_star)
        with tracer.span("cli.write_outputs"):
            outputs = cli.write_outputs(loaded, out_dir, traj, report)
    wall = time.perf_counter() - start

    scenario = loaded.scenario
    steps = len(traj.times) - 1
    arrays = (traj.times, traj.x, traj.y, traj.rho, traj.z, traj.u, traj.eta_g,
              traj.eta_h, traj.r_state, traj.attack_on)
    result = OpResult(
        wall_s=wall, final_error=report.final_error, steps=steps,
        grid_points=scenario.n_agents * (steps + 1),
        broadcasts=sum(len(e) for e in traj.events),
        blocked_attempts=sum(len(b) for b in traj.blocked_attempts),
        # Each agent's gradient is evaluated at every grid point and at the
        # four RK4 stages of every step.
        grad_evals=scenario.n_agents * (5 * steps + 1),
        history_bytes=sum(a.nbytes for a in arrays), failures=[])
    if steps != scenario.n_steps:
        result.failures.append(f"sim.steps {steps} != Scenario.n_steps {scenario.n_steps}")
    if not report.final_error <= tolerance:
        result.failures.append(f"final_error {report.final_error!r} > {tolerance!r}")
    digest = hashlib.sha256()
    rows = {}
    paths = [outputs.trajectory_csv, outputs.report_csv, outputs.conditions_csv]
    if outputs.events_csv is not None:
        paths.append(outputs.events_csv)
    for path in sorted(paths):
        with open(path, "rb") as fh:
            data = fh.read()
        result.csv_bytes += len(data)
        rows[os.path.basename(path)] = data.count(b"\n") - 1  # minus the header
        digest.update(os.path.basename(path).encode() + b"\0")
        digest.update(hashlib.sha256(data).digest())
    result.digest = digest.hexdigest()
    if rows["trajectory.csv"] != result.steps + 1:
        result.failures.append(
            f"trajectory.csv has {rows['trajectory.csv']} rows, sim.steps + 1 = {result.steps + 1}")
    if "events.csv" in rows \
            and rows["events.csv"] != result.broadcasts + result.blocked_attempts:
        result.failures.append(
            f"events.csv has {rows['events.csv']} rows, broadcasts + blocked = "
            f"{result.broadcasts + result.blocked_attempts}")
    return result


def probe_layers(doc: dict, result: OpResult, tracer: Tracer) -> None:
    """Time, standalone and on the operation's inputs, the module calls that
    ``sim.run`` and ``cli.write_outputs`` make internally."""
    loaded = cli.build_scenario(doc)
    scenario = loaded.scenario
    for spec in doc["agents"]:
        with tracer.span("plant.build"):
            plant.AgentModel.build(spec["A"], spec["B"], spec["C"], spec["K"],
                                   spec.get("U"), spec.get("W"), spec.get("X"))
    process = scenario.graph_process
    with tracer.span("graph.stationary_weighting"):
        graph.stationary_weighting(process)
    mirror = graph.mirror_union_laplacian(process)
    with tracer.span("graph.minimum_cut"):
        graph.minimum_cut(mirror)
    with tracer.span("graph.sample_switching_path"):
        path = graph.sample_switching_path(process, scenario.horizon, scenario.seed)
    result.switches = len(path.breakpoints) - 1

    schedule = scenario.attack_schedule or attack.AttackSchedule.empty(scenario.horizon)
    result.bursts = len(schedule.intervals)
    times = np.arange(scenario.n_steps + 1) * scenario.step
    with tracer.span("attack.activity_series"):
        attack.activity_series(schedule, times)
    if loaded.budget is not None:
        # The same checks, with the same variants, as conditions.csv.
        window = (0.0, scenario.horizon)
        variants = (False, True) if scenario.algorithm == "event_based" else (False,)
        for event_variant in variants:
            with tracer.span("attack.check_frequency_condition"):
                attack.check_frequency_condition(schedule, loaded.budget, window,
                                                 event_variant=event_variant)
            with tracer.span("attack.check_duration_condition"):
                attack.check_duration_condition(schedule, loaded.budget, window,
                                                event_variant=event_variant)



@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    document: object       # (seed, smoke) -> scenario document
    tolerance: float


WORKLOADS = {w.name: w for w in (
    Workload("dos_event_based", dos_event_document, PRESET_TOLERANCE),
    Workload("ring16_bursty_dos", ring_document, RING_TOLERANCE),
)}
