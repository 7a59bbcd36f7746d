"""Scenario files, bundled presets, and the command-line front end.

Scenario files are JSON documents validated against a strict schema,
``SCENARIO_SCHEMA`` (unknown keys are rejected), before any numeric invariant
is checked, so error messages carry a JSON path.  ``validate_document``
interprets the few JSON Schema 2020-12 keywords the schema uses itself, with
one pass over the cells of each number array, and reports the violation a
2020-12 validator would report first by path; it also rejects ragged
matrices.  The bundled presets reproduce the three demonstration
cases: case1 runs the time-based law over the switching digraphs with no
attacks, case2 adds a periodic DoS schedule that satisfies the frequency and
duty budgets, and case3 runs the event-triggered law under the same
schedule.  case3's 0.1 s retry dwell inflates the event-triggered frequency
threshold to 102.2 s, above the 101 s its two bursts admit, so its
``inflated`` row in conditions.csv fails the frequency check (the duration
check passes).

A scenario is admitted once, when it is built (``build_scenario``): the
schema, the output names ``write_outputs`` uses, the numeric invariants and
the graph hypothesis are all checked there, so ``check``, ``run`` and every
member of a ``sweep`` accept and reject the same documents, before anything
is run or written.  The graph hypothesis is that every graph is
weight-balanced (``weights[g][i][j]`` the weight of edge j -> i), and that
every closed class of the switching chain that it can enter has a mirror
union in which a walk from agent 0 reaches every agent; an unbalanced
family would converge to the optimum of a pi-weighted sum of the costs.

Every output file is written atomically by ``writer``, which formats the
float cells of trajectory.csv with orjson, byte for byte as ``repr`` writes
them.

Exit codes: 0 success, 2 validation failure (including a failed graph
hypothesis), 3 divergence or a violated run-time invariant, 4 I/O error.  A
sweep runs every member and writes its summary before it exits with the
largest code of its members.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys
from dataclasses import MISSING, dataclass, fields
from itertools import chain

import numpy as np

from .attack import (MAX_BUDGET_BURSTS, AttackBudget, AttackSchedule,
                     attack_metrics, check_duration_condition,
                     check_frequency_condition)
from .controller import AlgorithmParams, TriggerParams
from .cost import KINDS, CostSpec, centralized_optimum
from .errors import (DivergenceError, InvariantViolatedError, ResoptError,
                     UnboundedObjectiveError, ValidationError)
from .graph import GraphProcess, WeightedDigraph
from .plant import AgentModel
from .sim import (ALGORITHMS, ConvergenceReport, InitialCondition, Scenario,
                  Trajectory, convergence_report, final_spread, run)

_number_schema = {"type": "number"}
_vector_schema = {"type": "array", "minItems": 1, "items": _number_schema}
_matrix_schema = {"type": "array", "minItems": 1, "items": _vector_schema}
# Output file names by key; events.csv is written by event-based runs only.
OUTPUT_NAMES = {"trajectory": "trajectory.csv", "report": "report.csv",
                "events": "events.csv", "conditions": "conditions.csv"}


def _numbers_object(cls) -> dict:
    """The schema of an object holding the number fields of the dataclass
    ``cls``, in field order; a field without a default is required."""
    return {"type": "object", "additionalProperties": False,
            "required": [f.name for f in fields(cls) if f.default is MISSING],
            "properties": {f.name: _number_schema for f in fields(cls)}}


SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["agents", "costs", "graph_process", "algorithm", "params", "sim"],
    "properties": {
        "agents": {
            "type": "array", "minItems": 1,
            "items": {
                "type": "object", "additionalProperties": False,
                "required": ["A", "B", "C", "K"],
                "properties": {name: _matrix_schema
                               for name in ("A", "B", "C", "K", "U", "W", "X")},
            },
        },
        "costs": {
            "type": "array", "minItems": 1,
            "items": {
                "type": "object", "additionalProperties": False,
                "required": ["kind", "parameters"],
                "properties": {
                    "kind": {"enum": list(KINDS)},
                    "parameters": _vector_schema,
                    "dimension": {"type": "integer", "minimum": 1},
                },
            },
        },
        "graph_process": {
            "type": "object", "additionalProperties": False,
            "required": ["weights", "generator", "initial_distribution"],
            "properties": {
                "weights": {"type": "array", "minItems": 1, "items": _matrix_schema},
                "generator": _matrix_schema,
                "initial_distribution": _vector_schema,
            },
        },
        "attacks": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "intervals": {"type": "array",
                              "items": {"type": "array", "minItems": 2,
                                        "maxItems": 2,
                                        "items": _number_schema}},
                "periodic": {
                    "type": "object", "additionalProperties": False,
                    "required": ["period", "active", "phase"],
                    "properties": {"period": {"type": "number"},
                                   "active": {"type": "number"},
                                   "phase": {"type": "number"}},
                },
                "duty": {"type": "number", "minimum": 0.0, "maximum": 1.0},
                "budget": _numbers_object(AttackBudget),
            },
        },
        "algorithm": {"enum": list(ALGORITHMS)},
        "params": {
            "type": "object", "additionalProperties": False,
            "required": ["alpha", "beta"],
            "properties": {
                "alpha": {"type": "number"},
                "beta": {"type": "number"},
                "trigger": _numbers_object(TriggerParams),
            },
        },
        "sim": {
            "type": "object", "additionalProperties": False,
            "required": ["horizon", "step", "seed"],
            "properties": {
                "horizon": {"type": "number"},
                "step": {"type": "number"},
                "seed": {"type": "integer", "minimum": 0},
                "initial": {
                    "type": "object", "additionalProperties": False,
                    "properties": {
                        "mode": {"enum": ["random", "explicit"]},
                        "low": {"type": "number"},
                        "high": {"type": "number"},
                        "states": {
                            "type": "array",
                            "items": {"type": "object",
                                      "additionalProperties": False,
                                      "required": ["x", "rho", "z"],
                                      "properties": {"x": _vector_schema,
                                                     "rho": _vector_schema,
                                                     "z": _vector_schema}},
                        },
                    },
                },
            },
        },
        "outputs": {
            "type": "object", "additionalProperties": False,
            "properties": {name: {"type": "string"} for name in OUTPUT_NAMES},
        },
    },
}


@dataclass
class LoadedScenario:
    scenario: Scenario
    budget: AttackBudget | None
    output_names: dict


@dataclass
class RunOutputs:
    trajectory_csv: str
    report_csv: str
    events_csv: str | None
    conditions_csv: str


@dataclass
class RunResult:
    """What ``execute`` produced; ``diverged_at`` is None for a finished run."""

    outputs: RunOutputs
    trajectory: Trajectory
    report: ConvergenceReport
    diverged_at: float | None


def _is_number(value) -> bool:
    return isinstance(value, numbers.Number) and not isinstance(value, bool)


# The JSON types of the schema's "type" keyword, as JSON Schema 2020-12 has
# them: a bool is neither a number nor an integer, and an integral float such
# as 1.0 is an integer.
_JSON_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "number": _is_number,
    "integer": lambda value: (isinstance(value, int) and not isinstance(value, bool))
    or (isinstance(value, float) and value.is_integer()),
}
# Cell types of a number array that need no check one by one.
_PLAIN_NUMBERS = frozenset((float, int))
# The keywords a row schema of a matrix may have for the rows to be checked
# in one pass over the matrix.
_ROW_KEYWORDS = frozenset(("type", "minItems", "maxItems", "items"))


def _plain_items(items: list, schema: dict) -> bool:
    """Whether every item meets ``schema`` for sure, found in one pass over
    the cell types: ``schema`` is a number, or an array of numbers and every
    item is a list of plain numbers whose length meets its bounds."""
    if schema == _number_schema:
        return _PLAIN_NUMBERS.issuperset(map(type, items))
    if not (schema.keys() <= _ROW_KEYWORDS and schema.get("type") == "array"
            and schema.get("items") == _number_schema
            and all(type(row) is list for row in items)):
        return False
    lengths = set(map(len, items))
    return (min(lengths, default=0) >= schema.get("minItems", 0)
            and max(lengths, default=0) <= schema.get("maxItems", math.inf)
            and _PLAIN_NUMBERS.issuperset(map(type, chain.from_iterable(items))))


def _walk(node, schema: dict, path: tuple, errors: list, ragged: list) -> None:
    """Append to ``errors`` a ``(path, message)`` pair for every violation of
    ``schema`` by ``node``, keyword by keyword in schema order and depth
    first, and to ``ragged`` the path and row lengths of every array of
    number arrays whose rows differ in length."""
    for key, value in schema.items():
        if key == "type":
            if not _JSON_TYPES[value](node):
                errors.append((path, f"{node!r} is not of type {value!r}"))
        elif key == "enum":
            if node not in value:
                errors.append((path, f"{node!r} is not one of {value!r}"))
        elif key == "required":
            if isinstance(node, dict):
                errors += [(path, f"{name!r} is a required property")
                           for name in value if name not in node]
        elif key == "additionalProperties":  # false wherever the schema has it
            known = schema.get("properties", {})
            extras = isinstance(node, dict) and sorted(
                (name for name in node if name not in known), key=str)
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                errors.append((path, "Additional properties are not allowed ("
                               f"{', '.join(map(repr, extras))} {verb} unexpected)"))
        elif key == "properties":
            if isinstance(node, dict):
                for name, sub in value.items():
                    if name in node:
                        _walk(node[name], sub, path + (name,), errors, ragged)
        elif key == "items":
            if not isinstance(node, list):
                continue
            if not _plain_items(node, value):
                for index, item in enumerate(node):
                    _walk(item, value, path + (index,), errors, ragged)
            if value.get("items") == _number_schema \
                    and all(isinstance(row, list) for row in node):
                lengths = [len(row) for row in node]
                if len(set(lengths)) > 1:
                    ragged.append((path, lengths))
        elif key == "minItems":
            if isinstance(node, list) and len(node) < value:
                message = "should be non-empty" if value == 1 else "is too short"
                errors.append((path, f"{node!r} {message}"))
        elif key == "maxItems":
            if isinstance(node, list) and len(node) > value:
                message = "is expected to be empty" if value == 0 else "is too long"
                errors.append((path, f"{node!r} {message}"))
        elif key == "minimum":
            if _is_number(node) and node < value:
                errors.append((path, f"{node!r} is less than the minimum of {value!r}"))
        elif key == "maximum":
            if _is_number(node) and node > value:
                errors.append((path, f"{node!r} is greater than the maximum of {value!r}"))
        elif key != "$schema":
            raise ValueError(f"schema keyword {key!r} is not interpreted")


def _json_path(path: tuple) -> str:
    return "$" + "".join(f"[{p!r}]" if isinstance(p, int) else f".{p}" for p in path)


def validate_document(doc: dict) -> None:
    """Check a scenario document against ``SCENARIO_SCHEMA``, then check that
    every matrix is rectangular (the schema cannot state that).

    Of the schema violations, the one reported is the first by JSON path,
    and of those at one path the first in schema order, as a JSON Schema
    2020-12 validator sorted by path would report it.  A ragged matrix is
    reported only for a document that meets the schema.
    """
    errors, ragged = [], []
    _walk(doc, SCENARIO_SCHEMA, (), errors, ragged)
    if errors:
        path, message = min(errors, key=lambda error: error[0])
        raise ValidationError(
            f"scenario schema violation at {_json_path(path)}: {message}")
    if ragged:
        path, lengths = ragged[0]
        raise ValidationError(
            f"{_json_path(path)} is ragged: its rows have lengths {lengths}")


def _build_schedule(doc: dict, horizon: float) -> AttackSchedule | None:
    attacks = doc.get("attacks")
    if attacks is None:
        return None
    has_intervals = "intervals" in attacks
    has_periodic = "periodic" in attacks
    if has_intervals and has_periodic:
        raise ValidationError("attacks: give either intervals or a periodic template")
    if "duty" in attacks and not has_periodic:
        raise ValidationError("attacks.duty only applies to a periodic template")
    if has_periodic:
        tpl = dict(attacks["periodic"])
        if "duty" in attacks:
            tpl["active"] = attacks["duty"] * tpl["period"]
        return AttackSchedule.periodic(period=tpl["period"], active=tpl["active"],
                                       phase=tpl["phase"], horizon=horizon)
    if has_intervals:
        return AttackSchedule(intervals=tuple(tuple(iv) for iv in attacks["intervals"]),
                              horizon=horizon)
    return None


def _build_budget(doc: dict) -> AttackBudget | None:
    """The document's attack budget, if any.  On the event-based law an
    attacked attempt is retried a dwell later, so ``kappa_star`` defaults to
    ``dwell_kappa`` and may not be below it."""
    budget = (doc.get("attacks") or {}).get("budget")
    dwell = (doc["params"].get("trigger") or {}).get("dwell_kappa")
    if budget is not None and dwell is not None and doc["algorithm"] == "event_based":
        budget = {"kappa_star": dwell, **budget}
        if budget["kappa_star"] < dwell:
            raise ValidationError(
                f"attacks.budget.kappa_star {budget['kappa_star']!r} is below "
                f"params.trigger.dwell_kappa {dwell!r}, the retry dwell")
    return None if budget is None else AttackBudget(**budget)


def _output_names(doc: dict) -> dict:
    """The document's output file names over the defaults.  They must be
    distinct plain file names, so that no output replaces another or lands
    outside the output directory."""
    names = {**OUTPUT_NAMES, **doc.get("outputs", {})}
    for key, name in names.items():
        if name in ("", ".", "..") or os.path.basename(name) != name:
            raise ValidationError(f"outputs.{key} {name!r} is not a plain file name")
    if len(set(names.values())) < len(names):
        raise ValidationError(f"output file names repeat: {names}")
    return names


def build_scenario(doc: dict) -> LoadedScenario:
    """Admit a scenario document: schema, rectangular matrices, output names,
    then the Scenario (plus budget), whose construction checks the numeric
    invariants and the graph hypothesis.  A budget is admitted with at most
    ``MAX_BUDGET_BURSTS`` bursts.  Raises a ResoptError before anything is
    run or written."""
    validate_document(doc)
    output_names = _output_names(doc)
    agents = tuple(
        AgentModel.build(spec["A"], spec["B"], spec["C"], spec["K"],
                         spec.get("U"), spec.get("W"), spec.get("X"))
        for spec in doc["agents"])
    costs = tuple(
        CostSpec(kind=spec["kind"], parameters=tuple(spec["parameters"]),
                 dimension=spec.get("dimension", 1))
        for spec in doc["costs"])
    gp = doc["graph_process"]
    process = GraphProcess(
        graphs=tuple(WeightedDigraph(np.asarray(w, dtype=float))
                     for w in gp["weights"]),
        generator=np.asarray(gp["generator"], dtype=float),
        initial_distribution=np.asarray(gp["initial_distribution"], dtype=float))
    simdoc = doc["sim"]
    horizon = float(simdoc["horizon"])
    schedule = _build_schedule(doc, horizon)
    budget = _build_budget(doc)
    if budget is not None and schedule is not None \
            and len(schedule.intervals) > MAX_BUDGET_BURSTS:
        raise ValidationError(
            f"attacks.budget cannot be checked against {len(schedule.intervals)} "
            f"bursts, above the limit of {MAX_BUDGET_BURSTS}; without "
            f"attacks.budget the schedule is admitted")
    initial = dict(simdoc.get("initial", {}))
    if "states" in initial:
        initial["states"] = tuple((s["x"], s["rho"], s["z"]) for s in initial["states"])
    params_doc = doc["params"]
    trigger_doc = params_doc.get("trigger")
    trigger = TriggerParams(**trigger_doc) if trigger_doc else None
    scenario = Scenario(
        agents=agents, costs=costs, graph_process=process,
        attack_schedule=schedule, algorithm=doc["algorithm"],
        params=AlgorithmParams(alpha=params_doc["alpha"],
                               beta=params_doc["beta"]),
        horizon=horizon, step=float(simdoc["step"]),
        seed=int(simdoc["seed"]), initial=InitialCondition(**initial),
        trigger=trigger)
    return LoadedScenario(scenario=scenario, budget=budget, output_names=output_names)


def _loads(text: str, where: str):
    """``json.loads`` that admits only finite float64 numbers: it rejects the
    non-finite tokens NaN and +-Infinity, and any number literal, integer or
    not, that lies outside the float64 range (``1e400``, a 400-digit
    integer).

    Raises JSONDecodeError for text that is not JSON at all.
    """
    constants = []

    def finite(literal: str, kind):
        if math.isfinite(float(literal)):
            return kind(literal)
        shown = literal if len(literal) <= 24 else literal[:20] + "..."
        raise ValidationError(f"{where}: number {shown} is outside the float64 range")

    value = json.loads(text, parse_constant=constants.append,
                       parse_float=lambda s: finite(s, float),
                       parse_int=lambda s: finite(s, int))
    if constants:
        raise ValidationError(f"{where}: non-finite number {constants[0]} "
                              "is not allowed")
    return value


def load_scenario_file(path: str, overrides=()) -> LoadedScenario:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = _loads(text, path)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    for key, value in overrides:
        _apply_override(doc, key, value)
    return build_scenario(doc)


def _child_key(node, part: str, dotted: str):
    if not isinstance(node, list):
        return part
    if not (part.isdecimal() and int(part) < len(node)):
        raise ValidationError(f"override {dotted}: {part!r} is not an index "
                              f"of a {len(node)}-element list")
    return int(part)


def _apply_override(doc: dict, dotted: str, value):
    """Set ``value`` at a dotted path; list elements are named by index.

    A missing or scalar object along the path becomes an empty object.
    """
    *parents, leaf = dotted.split(".")
    node = doc
    for part in parents:
        key = _child_key(node, part, dotted)
        child = node[key] if isinstance(node, list) else node.get(key)
        if not isinstance(child, (dict, list)):
            child = node[key] = {}
        node = child
    node[_child_key(node, leaf, dotted)] = value


def parse_value(raw: str):
    """An override or sweep value: JSON if it parses, else the raw string."""
    try:
        return _loads(raw, f"value {raw!r}")
    except json.JSONDecodeError:
        return raw


def parse_override(text: str):
    if "=" not in text:
        raise ValidationError(f"override {text!r} must look like key=value")
    key, raw = text.split("=", 1)
    return key, parse_value(raw)


# ---------------------------------------------------------------------------
# Bundled presets.
#
# The communication topologies rotate among three strongly connected sparse
# digraphs (a forward ring, a backward ring, and the full exchange graph)
# with coupling weight 200.  Every agent keeps at least one in-neighbour in
# every topology: the first agent's cost is unbounded below, so any topology
# that isolates an agent for a couple of seconds lets its local descent
# escape in finite time (see README).  Attack bursts are 1 s long for the
# same reason - an isolated descent escapes in about 1.8 s from the optimum.
# ---------------------------------------------------------------------------

GRAPH_WEIGHT = 200.0

_AGENT_DOCS = [
    {"A": [[0.0, 1.0], [0.0, 0.0]],
     "B": [[0.0, 1.0], [1.0, -2.0]],
     "C": [[1.0, 1.0]],
     "K": [[3.0, 5.0], [1.5, 1.0]],
     "U": [[1.0], [0.5]], "W": [[1.5], [0.5]], "X": [[0.5], [0.5]]},
    {"A": [[0.0, -1.0], [1.0, -2.0]],
     "B": [[1.0, 0.0], [3.0, -1.0]],
     "C": [[-1.0, 1.0]],
     "K": [[0.75, -1.0], [1.25, -4.0]],
     "U": [[-0.5], [0.0]], "W": [[-0.5], [-2.0]], "X": [[-0.5], [0.5]]},
    {"A": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 1.0, -2.0]],
     "B": [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]],
     "C": [[1.0, -1.0, 1.0]],
     "K": [[2.167, 1.0, 0.333], [0.0, 3.0, 1.0]],
     "U": [[-1.0], [0.0]], "W": [[0.0], [-1.0]], "X": [[0.0], [-1.0], [0.0]]},
]

_COST_DOCS = [
    {"kind": "exp_pair", "parameters": [-2.0, -0.5, 0.5, 0.3]},
    {"kind": "quartic", "parameters": [1.0, 2.0, 2.0]},
    {"kind": "log_quadratic", "parameters": [0.5, 1.0]},
]

_GENERATOR = [[-0.1, 0.02, 0.08], [0.3, -0.5, 0.2], [0.1, 0.1, -0.2]]

# The raw initial-distribution vector [0.5882, 0.1500, 0.3235] sums to
# 1.0617; it is stored normalized so it is a probability vector.
_RAW_DIST = (0.5882, 0.1500, 0.3235)
_INITIAL_DISTRIBUTION = [v / sum(_RAW_DIST) for v in _RAW_DIST]


def _graph_docs(weight: float = GRAPH_WEIGHT):
    ring_fwd = [[0.0, 0.0, weight],
                [weight, 0.0, 0.0],
                [0.0, weight, 0.0]]
    ring_bwd = [[0.0, weight, 0.0],
                [0.0, 0.0, weight],
                [weight, 0.0, 0.0]]
    full = [[0.0, weight, weight],
            [weight, 0.0, weight],
            [weight, weight, 0.0]]
    return [ring_fwd, ring_bwd, full]


_CASE23_ATTACKS = {
    "periodic": {"period": 100.0, "active": 1.0, "phase": 43.0},
    "budget": {"lambda_a": 0.6, "lambda_b": 0.5, "mu": 148.4131591025766,
               "eta_star": 0.05, "n0": 1.0, "t0": 1.0},
}

_TRIGGER = {"sigma_g": 1e4, "sigma_h": 1e4, "theta_g": 1e-6, "theta_h": 1e-6,
            "delta_g": 0.0, "delta_h": 0.0, "k_g": 0.05, "k_h": 0.05,
            "eta_g0": 1.0, "eta_h0": 1.0, "dwell_kappa": 0.1}

PRESET_NAMES = ("case1", "case2", "case3")


def preset(name: str) -> dict:
    """The bundled scenario document for case1, case2, or case3."""
    if name not in PRESET_NAMES:
        raise ValidationError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    doc = {
        "agents": json.loads(json.dumps(_AGENT_DOCS)),
        "costs": json.loads(json.dumps(_COST_DOCS)),
        "graph_process": {
            "weights": _graph_docs(),
            "generator": json.loads(json.dumps(_GENERATOR)),
            "initial_distribution": list(_INITIAL_DISTRIBUTION),
        },
        "algorithm": "time_based",
        "params": {"alpha": 2.0, "beta": 1.0},
        "sim": {"horizon": 15.0, "step": 1e-3, "seed": 1,
                "initial": {"mode": "random", "low": -10.0, "high": 10.0}},
    }
    if name in ("case2", "case3"):
        doc["attacks"] = json.loads(json.dumps(_CASE23_ATTACKS))
        doc["sim"]["horizon"] = 210.0
        doc["sim"]["seed"] = 7
    if name == "case3":
        doc["algorithm"] = "event_based"
        doc["params"]["trigger"] = dict(_TRIGGER)
    return doc


def preset_scenario(name: str) -> LoadedScenario:
    return build_scenario(preset(name))


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _report_lines(scenario: Scenario, traj, report, diverged_at):
    q = scenario.q
    header = ["theta_star"] if q == 1 else [f"theta_star_{d}" for d in range(1, q + 1)]
    header += ["final_error", "fitted_rate", "final_spread", "diverged",
               "divergence_time"]
    for i in range(1, scenario.n_agents + 1):
        header += [f"events{i}", f"min_gap{i}", f"mean_gap{i}"]
    yield ",".join(header)
    parts = [_fmt(v) for v in np.atleast_1d(report.theta_star)]
    parts += [_fmt(report.final_error), _fmt(report.fitted_rate),
              _fmt(final_spread(traj)),
             "1" if diverged_at is not None else "0",
             _fmt(diverged_at) if diverged_at is not None else "nan"]
    for stats in report.trigger_stats:
        parts += [str(stats.count), _fmt(stats.min_gap), _fmt(stats.mean_gap)]
    yield ",".join(parts)


def _events_lines(traj):
    """events.csv ordered by time, then agent, then status ("blocked" before
    "success"), as ``sorted`` orders (time, agent, status) tuples."""
    yield "agent,time,status"
    per_agent = traj.events + traj.blocked_attempts
    n_agents = len(traj.events)
    times = np.concatenate(per_agent)
    agents = np.repeat(np.tile(np.arange(1, n_agents + 1), 2),
                       [len(t) for t in per_agent])
    blocked = np.arange(times.size) >= sum(len(t) for t in traj.events)
    order = np.lexsort((~blocked, agents, times))
    for t, i, b in zip(times[order].tolist(), agents[order].tolist(),
                       blocked[order].tolist()):
        yield f"{i},{_fmt(t)},{'blocked' if b else 'success'}"


def _conditions_lines(scenario: Scenario, budget: AttackBudget | None):
    header = ("variant,window_t1,window_t2,n_attacks,attacked_time,frequency,"
              "duty,t_f_star,tightest_t_f,frequency_pass,t_a_star,"
              "tightest_t_a,duration_pass")
    yield header
    schedule = scenario.attack_schedule
    window = (0.0, scenario.horizon)
    metrics = attack_metrics(schedule, *window)
    variants = [("plain", False)]
    if scenario.algorithm == "event_based":
        variants.append(("inflated", True))
    for label, event_variant in variants:
        base = [label, _fmt(window[0]), _fmt(window[1]), str(metrics.count),
                _fmt(metrics.total_duration), _fmt(metrics.frequency),
                _fmt(metrics.total_duration / (window[1] - window[0]))]
        if budget is None:
            yield ",".join(base + [""] * 6)
            continue
        freq = check_frequency_condition(schedule, budget, window,
                                         event_variant=event_variant)
        dur = check_duration_condition(schedule, budget, window,
                                       event_variant=event_variant)
        yield ",".join(base + [_fmt(freq.threshold), _fmt(freq.tightest),
                               "1" if freq.passed else "0",
                               _fmt(dur.threshold), _fmt(dur.tightest),
                               "1" if dur.passed else "0"])


def write_outputs(loaded: LoadedScenario, out_dir: str, traj, report,
                  diverged_at=None) -> RunOutputs:
    # Imported on first use: a start that only admits a scenario (check,
    # the benchmark's set-up) does not pay for importing the writer.
    from .writer import trajectory_lines, write_atomic

    os.makedirs(out_dir, exist_ok=True)
    names = loaded.output_names
    scenario = loaded.scenario
    traj_path = os.path.join(out_dir, names["trajectory"])
    report_path = os.path.join(out_dir, names["report"])
    conditions_path = os.path.join(out_dir, names["conditions"])
    write_atomic(traj_path, trajectory_lines(scenario, traj))
    write_atomic(report_path, _report_lines(scenario, traj, report, diverged_at))
    write_atomic(conditions_path, _conditions_lines(scenario, loaded.budget))
    events_path = None
    if scenario.algorithm == "event_based":
        events_path = os.path.join(out_dir, names["events"])
        write_atomic(events_path, _events_lines(traj))
    return RunOutputs(trajectory_csv=traj_path, report_csv=report_path,
                      events_csv=events_path, conditions_csv=conditions_path)


def execute(loaded: LoadedScenario, out_dir: str) -> RunResult:
    """Oracle, run, convergence report and CSV outputs of one scenario.

    A diverged run still writes its truncated trajectory and a report flagged
    as diverged; ``diverged_at`` says when.
    """
    theta_star = centralized_optimum(list(loaded.scenario.costs), 1e-12)
    try:
        traj, diverged_at = run(loaded.scenario), None
    except DivergenceError as exc:
        traj, diverged_at = exc.trajectory, exc.time
    report = convergence_report(traj, theta_star)
    outputs = write_outputs(loaded, out_dir, traj, report, diverged_at)
    return RunResult(outputs, traj, report, diverged_at)


def run_command(scenario_path: str, out_dir: str, overrides=()) -> RunOutputs:
    """Load, simulate, and emit the CSV outputs.

    A scenario that is not admitted raises before the output directory is
    created.  On divergence the outputs are still written, then a
    DivergenceError is raised for the caller to turn into exit code 3.
    """
    result = execute(load_scenario_file(scenario_path, overrides), out_dir)
    if result.diverged_at is not None:
        raise DivergenceError(result.diverged_at, result.trajectory)
    return result.outputs


def sweep_command(scenario_path: str, out_dir: str, param: str, values,
                  overrides=()):
    """One run per parameter value, one after another, and a summary sorted
    by name.  Every member's scenario is built and admitted (graph
    hypothesis included) before any runs or the output directory exists.
    Values whose member labels (directory and row names) coincide, such as
    ``1`` and ``1.0``, are rejected.

    A member that diverges, violates a run-time invariant or has no optimum
    does not stop the others: its ``status`` in ``sweep.csv`` says which
    (ok, diverged, invariant or unbounded).  Returns the summary's path and
    the ``(label, error)`` pairs of the members that failed.
    """
    key = param if "." in param else f"params.{param}"
    labelled = {}
    for value in values:
        label = f"{param}={value:g}" if isinstance(value, float) else f"{param}={value}"
        if label in labelled:
            raise ValidationError(f"sweep values {labelled[label]!r} and {value!r} "
                                  f"both give the member label {label!r}")
        labelled[label] = value
    members = [(label, load_scenario_file(
        scenario_path, tuple(overrides) + ((key, value),)))
        for label, value in labelled.items()]
    os.makedirs(out_dir, exist_ok=True)
    lines = ["name,final_error,fitted_rate,diverged,status"]
    failures = []
    for label, loaded in sorted(members, key=lambda m: m[0]):
        try:
            result = execute(loaded, os.path.join(out_dir, label))
        except (InvariantViolatedError, UnboundedObjectiveError) as exc:
            status = "invariant" if isinstance(exc, InvariantViolatedError) \
                else "unbounded"
            failures.append((label, exc))
            lines.append(f"{label},nan,nan,0,{status}")
            continue
        if result.diverged_at is not None:
            failures.append((label, DivergenceError(result.diverged_at)))
        lines.append(f"{label},{_fmt(result.report.final_error)},"
                     f"{_fmt(result.report.fitted_rate)},"
                     f"{'0' if result.diverged_at is None else '1'},"
                     f"{'ok' if result.diverged_at is None else 'diverged'}")
    from .writer import write_atomic

    summary = os.path.join(out_dir, "sweep.csv")
    write_atomic(summary, lines)
    return summary, failures


def check_command(scenario_path: str, overrides=()) -> int:
    """Admit a scenario, as ``run`` does before simulating (schema, numeric
    invariants, the graph hypothesis), and print its attack-condition report."""
    loaded = load_scenario_file(scenario_path, overrides)
    for line in _conditions_lines(loaded.scenario, loaded.budget):
        print(line)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="resopt",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    # The arguments every command that reads a scenario file takes.
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("scenario")
    scenario.add_argument("--set", dest="overrides", action="append", default=[],
                          metavar="KEY=VALUE")

    p_run = sub.add_parser("run", parents=[scenario], help="simulate a scenario file")
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None)

    p_preset = sub.add_parser("preset", help="write a bundled scenario file")
    p_preset.add_argument("name", choices=PRESET_NAMES)
    p_preset.add_argument("--out", required=True)

    p_sweep = sub.add_parser("sweep", parents=[scenario],
                             help="run a scenario across parameter values")
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True)
    p_sweep.add_argument("--out", required=True)

    sub.add_parser("check", parents=[scenario],
                   help="validate and report conditions only")

    args = parser.parse_args(argv)
    try:
        if args.command == "preset":
            from .writer import write_atomic

            doc = preset(args.name)
            write_atomic(args.out, [json.dumps(doc, indent=2)])
            print(f"wrote {args.out}")
            return 0
        overrides = [parse_override(o) for o in args.overrides]
        if args.command == "run":
            if args.seed is not None:
                overrides.append(("sim.seed", args.seed))
            outputs = run_command(args.scenario, args.out, overrides)
            print(f"wrote {outputs.trajectory_csv}")
            return 0
        if args.command == "sweep":
            values = [parse_value(v) for v in args.values.split(",")]
            summary, failures = sweep_command(args.scenario, args.out, args.param,
                                              values, overrides)
            print(f"wrote {summary}")
            for label, exc in failures:
                print(f"error: {label}: {exc}", file=sys.stderr)
            return max((exc.exit_code for _, exc in failures), default=0)
        return check_command(args.scenario, overrides)
    except ResoptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
