import dataclasses
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import resopt
from resopt import writer
from resopt.attack import MAX_BUDGET_BURSTS, MAX_PERIODIC_BURSTS
from resopt.cli import (OUTPUT_NAMES, SCENARIO_SCHEMA, _apply_override, _conditions_lines,
                        _events_lines, _fmt, _walk, build_scenario,
                        load_scenario_file, main, parse_override, preset,
                        preset_scenario, run_command, validate_document)
from resopt.errors import DivergenceError, ValidationError
from resopt.sim import _run_bytes, run
from resopt.writer import CSV_CHUNK_ROWS, trajectory_columns, trajectory_lines

CASE1_HEADER = (
    "t,"
    "x1_1,x1_2,y1,rho1,z1,u1_1,u1_2,eta_g1,eta_h1,"
    "x2_1,x2_2,y2,rho2,z2,u2_1,u2_2,eta_g2,eta_h2,"
    "x3_1,x3_2,x3_3,y3,rho3,z3,u3_1,u3_2,eta_g3,eta_h3,"
    "r_state,attack_active"
)


def fast_doc():
    """A cheap valid scenario for exit-code tests (one agent, no coupling)."""
    return {
        "agents": [{"A": [[0.0]], "B": [[1.0]], "C": [[1.0]], "K": [[1.0]]}],
        "costs": [{"kind": "custom_polynomial", "parameters": [0.0, 0.0, 0.5]}],
        "graph_process": {"weights": [[[0.0]]], "generator": [[0.0]],
                          "initial_distribution": [1.0]},
        "algorithm": "time_based",
        "params": {"alpha": 2.0, "beta": 1.0},
        "sim": {"horizon": 1.0, "step": 1e-3, "seed": 0,
                "initial": {"mode": "explicit",
                            "states": [{"x": [1.0], "rho": [0.0], "z": [0.0]}]}},
    }


def q2_doc():
    """Two agents with two-dimensional outputs and separable quadratic costs."""
    agent = {"A": [[0.0, 0.0], [0.0, 0.0]], "B": [[1.0, 0.0], [0.0, 1.0]],
             "C": [[1.0, 0.0], [0.0, 1.0]], "K": [[1.0, 0.0], [0.0, 1.0]]}
    return {
        "agents": [agent, agent],
        "costs": [{"kind": "custom_polynomial", "parameters": [0.0, -1.0, 0.5],
                   "dimension": 2},
                  {"kind": "custom_polynomial", "parameters": [0.0, 1.0, 0.5],
                   "dimension": 2}],
        "graph_process": {"weights": [[[0.0, 1.0], [1.0, 0.0]]],
                          "generator": [[0.0]], "initial_distribution": [1.0]},
        "algorithm": "time_based",
        "params": {"alpha": 2.0, "beta": 1.0},
        "sim": {"horizon": 0.5, "step": 1e-3, "seed": 0,
                "initial": {"mode": "random", "low": -1.0, "high": 1.0}},
    }


def path_doc():
    """case1 on one 3-agent path 1 <-> 2 <-> 3 of weight 200 each way, over
    0.05 s.  Setting ``graph_process.weights.0`` to ``CUT_PATH`` cuts agent 3
    off and keeps the graph balanced: the mirror union is then disconnected.
    Setting ``graph_process.weights.0.1.0`` to 0 unbalances vertices 0 and 1."""
    doc = preset("case1")
    doc["graph_process"] = {
        "weights": [[[0.0, 200.0, 0.0], [200.0, 0.0, 200.0], [0.0, 200.0, 0.0]]],
        "generator": [[0.0]], "initial_distribution": [1.0]}
    doc["sim"]["horizon"] = 0.05
    return doc


CUT_PATH = "[[0,200,0],[200,0,0],[0,0,0]]"
UNBALANCED_RING = os.path.join(os.path.dirname(__file__), "data", "unbalanced_ring.json")
ABSORBING_CHAIN = os.path.join(os.path.dirname(__file__), "data", "absorbing_chain.json")


def short_case3_doc(horizon=0.6):
    """case3 with its first burst inside a short horizon."""
    doc = preset("case3")
    doc["sim"]["horizon"] = horizon
    doc["attacks"]["periodic"]["phase"] = 0.2
    return doc


class TestPresets:
    @pytest.mark.parametrize("name", ["case1", "case2", "case3"])
    def test_presets_build(self, name):
        loaded = preset_scenario(name)
        assert loaded.scenario.n_agents == 3
        assert loaded.scenario.params.alpha == 2.0
        assert loaded.scenario.params.beta == 1.0

    def test_case1_has_no_attacks(self):
        scen = preset_scenario("case1").scenario
        assert scen.attack_schedule.intervals == ()
        assert scen.algorithm == "time_based"

    def test_case2_attack_template(self):
        loaded = preset_scenario("case2")
        scen = loaded.scenario
        assert scen.algorithm == "time_based"
        assert len(scen.attack_schedule.intervals) == 2
        assert all(tau == 1.0 for _, tau in scen.attack_schedule.intervals)
        assert loaded.budget is not None
        assert loaded.budget.t_a_star == pytest.approx(2.0)

    def test_case3_event_based_same_environment(self):
        c2 = preset_scenario("case2")
        c3 = preset_scenario("case3")
        assert c3.scenario.algorithm == "event_based"
        assert c3.scenario.trigger is not None
        assert c3.scenario.attack_schedule.intervals == \
            c2.scenario.attack_schedule.intervals
        assert c3.scenario.seed == c2.scenario.seed

    def test_roundtrip_structurally_identical(self, tmp_path):
        for name in ("case1", "case2", "case3"):
            doc = preset(name)
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc, indent=2))
            assert json.loads(path.read_text()) == doc
            assert load_scenario_file(str(path)).output_names == OUTPUT_NAMES

    def test_load_scenario_returns_validated_scenario(self, tmp_path):
        path = tmp_path / "case1.json"
        path.write_text(json.dumps(preset("case1")))
        scen = load_scenario_file(str(path)).scenario
        assert scen.n_agents == 3
        assert scen.horizon == 15.0
        assert scen.algorithm == "time_based"

    def test_initial_distribution_normalized(self):
        doc = preset("case1")
        dist = doc["graph_process"]["initial_distribution"]
        assert sum(dist) == pytest.approx(1.0, abs=1e-15)
        raw = np.array([0.5882, 0.1500, 0.3235])
        np.testing.assert_allclose(dist, raw / raw.sum(), atol=1e-15)


class TestValidation:
    def test_unknown_key_rejected(self):
        doc = fast_doc()
        doc["extra"] = 1
        with pytest.raises(ValidationError, match="extra"):
            build_scenario(doc)

    def test_generator_row_named_in_error(self):
        doc = preset("case1")
        doc["graph_process"]["generator"][1][0] = 99.0
        with pytest.raises(ValidationError, match="row 1"):
            build_scenario(doc)

    def test_overlapping_attacks_rejected(self):
        doc = fast_doc()
        doc["attacks"] = {"intervals": [[0.1, 0.5], [0.3, 0.1]]}
        with pytest.raises(ValidationError, match="overlap"):
            build_scenario(doc)

    def test_non_hurwitz_gain_rejected(self):
        doc = fast_doc()
        doc["agents"][0]["K"] = [[0.0]]
        with pytest.raises(ValidationError, match="Hurwitz"):
            build_scenario(doc)

    def test_duty_requires_periodic(self):
        doc = fast_doc()
        doc["attacks"] = {"intervals": [[0.1, 0.2]], "duty": 0.5}
        with pytest.raises(ValidationError, match="duty"):
            build_scenario(doc)

    def test_duty_rewrites_active(self):
        doc = fast_doc()
        doc["attacks"] = {"periodic": {"period": 0.5, "active": 0.1,
                                       "phase": 0.2}, "duty": 1.0}
        scen = build_scenario(doc).scenario
        starts = [a for a, _ in scen.attack_schedule.intervals]
        total = sum(tau for _, tau in scen.attack_schedule.intervals)
        assert starts[0] == pytest.approx(0.2)
        assert total == pytest.approx(1.0 - 0.2)


def _schema_nodes(schema):
    """``schema`` and every schema nested in it."""
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _schema_nodes(sub)
    if "items" in schema:
        yield from _schema_nodes(schema["items"])


def _doc_paths(node, path=()):
    """The path of ``node`` and of every value nested in it."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _doc_paths(child, path + (key,))


def _replacement(value, kind):
    if kind == "retype":  # 1.0 for an int, an int for a float
        if isinstance(value, float) and math.isfinite(value):
            return int(value)
        if isinstance(value, int) and not isinstance(value, bool):
            return float(value)
        return value
    if kind == "tuple":
        return tuple(value) if isinstance(value, list) else (value,)
    if kind == "long":
        return value + value[:1] * 2 if isinstance(value, list) else [value] * 3
    if kind == "extra":
        return {**value, "extra": 0} if isinstance(value, dict) else {"extra": 0}
    return {"bool": True, "str": "x", "null": None, "empty": [], "negative": -1,
            "fraction": 1.5, "enum": "no-such-name"}[kind]


def _mutated(doc, path, kind):
    """``doc`` with the value at ``path`` replaced, or dropped."""
    if not path:
        return doc if kind == "drop" else _replacement(doc, kind)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = _replacement(parent[path[-1]], kind)
    return doc


MUTATION_KINDS = ("bool", "str", "null", "retype", "tuple", "empty", "long",
                  "negative", "fraction", "enum", "extra", "drop")
# Values the schema bounds or enumerates, set whether or not the key exists.
BOUNDED_SETTINGS = (("sim.seed", -1), ("sim.seed", -1.5), ("sim.seed", 2.0),
                    ("attacks.duty", 1.5), ("attacks.duty", -0.25),
                    ("attacks.duty", 0.5), ("costs.0.dimension", 0),
                    ("costs.0.dimension", 2.0), ("costs.0.kind", "cubic"),
                    ("sim.initial.mode", "fixed"), ("algorithm", "fastest"),
                    ("outputs.report", 3), ("agents.0.A.0.0", False))


def jsonschema_first_path(doc):
    """The JSON path of the violation a JSON Schema 2020-12 validator reports
    first when its errors are sorted by path, or None for a valid document."""
    jsonschema = pytest.importorskip("jsonschema")
    errors = sorted(jsonschema.Draft202012Validator(SCENARIO_SCHEMA).iter_errors(doc),
                    key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    return "$" + "".join(f"[{p!r}]" if isinstance(p, int) else f".{p}"
                         for p in errors[0].absolute_path)


class TestSchemaWalker:
    """``validate_document`` against jsonschema as the oracle."""

    @pytest.mark.parametrize("base", ["case1", "case3", "fast"])
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_same_decision_and_first_path_as_jsonschema(self, base, data):
        doc = fast_doc() if base == "fast" else preset(base)
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            mutation = data.draw(st.one_of(
                st.tuples(st.sampled_from(list(_doc_paths(doc))),
                          st.sampled_from(MUTATION_KINDS)),
                st.sampled_from(BOUNDED_SETTINGS)), label="mutation")
            if isinstance(mutation[0], tuple):
                doc = _mutated(doc, *mutation)
            else:
                try:
                    _apply_override(doc, *mutation)
                except (ValidationError, TypeError, AttributeError):
                    pass  # the path runs through a value that is not an object
        want = jsonschema_first_path(doc)
        try:
            validate_document(doc)
        except ValidationError as exc:
            got = str(exc)
        else:
            got = None
        if want is None:
            assert got is None or " is ragged: " in got
        else:
            assert got is not None and got.startswith(
                f"scenario schema violation at {want}: "), (want, got)

    @pytest.mark.parametrize("key, value, message", [
        # -1.5 violates "type", then "minimum": the first in schema order
        ("sim.seed", -1.5, "$.sim.seed: -1.5 is not of type 'integer'"),
        ("agents.0.A.0.0", True, "$.agents[0].A[0][0]: True is not of type 'number'"),
        ("costs.0.parameters", [], "$.costs[0].parameters: [] should be non-empty"),
        ("attacks", {"intervals": [[0.1, 0.2, 0.3]]},
         "$.attacks.intervals[0]: [0.1, 0.2, 0.3] is too long"),
        ("attacks", {"duty": 2}, "$.attacks.duty: 2 is greater than the maximum of 1.0"),
        ("sim.extra", 1, "$.sim: Additional properties are not allowed "
                         "('extra' was unexpected)"),
        ("algorithm", "x", "$.algorithm: 'x' is not one of "
                           "['attack_free', 'time_based', 'event_based']"),
        ("sim.seed", 1.0, None),
        ("sim.seed", 10**30, None),
    ])
    def test_messages(self, key, value, message):
        doc = fast_doc()
        _apply_override(doc, key, value)
        if message is None:
            validate_document(doc)
        else:
            with pytest.raises(ValidationError) as info:
                validate_document(doc)
            assert str(info.value) == f"scenario schema violation at {message}"

    def test_schema_error_reported_before_ragged_matrix(self):
        doc = preset("case1")
        doc["agents"][0]["A"] = [[0.0, 1.0], [0.0]]
        doc["sim"]["seed"] = -1
        with pytest.raises(ValidationError, match=r"violation at \$\.sim\.seed"):
            validate_document(doc)

    def test_walker_interprets_every_schema_keyword(self):
        probes = (None, 0, 0.5, "x", [], [0.0], [[0.0], [0.0, 1.0]], {}, {"k": 1})
        for node in _schema_nodes(SCENARIO_SCHEMA):
            assert node.get("additionalProperties", False) is False
            for key, value in node.items():
                for probe in probes:
                    _walk(probe, {key: value}, (), [], [])
        with pytest.raises(ValueError, match="'pattern' is not interpreted"):
            _walk("x", {"pattern": "y"}, (), [], [])

    def test_cli_import_leaves_jsonschema_out(self):
        src = os.path.dirname(os.path.dirname(resopt.__file__))
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, resopt.cli; print('jsonschema' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            check=True)
        assert result.stdout.strip() == "False"

    def test_admission_leaves_orjson_out(self):
        src = os.path.dirname(os.path.dirname(resopt.__file__))
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys; from resopt import cli; "
             "cli.build_scenario(cli.preset('case3')); "
             "print('orjson' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            check=True)
        assert result.stdout.strip() == "False"


class TestOverrides:
    def test_parse_override_types(self):
        assert parse_override("sim.seed=7") == ("sim.seed", 7)
        assert parse_override("params.beta=1.5") == ("params.beta", 1.5)
        assert parse_override("algorithm=event_based") == \
            ("algorithm", "event_based")

    def test_list_index_edits_one_element(self, tmp_path):
        doc = preset("case1")
        path = tmp_path / "case1.json"
        path.write_text(json.dumps(doc))
        gain = [[3.0, 5.0], [1.5, 2.0]]
        loaded = load_scenario_file(str(path), [parse_override(
            f"agents.0.K={json.dumps(gain)}")])
        agents = loaded.scenario.agents
        np.testing.assert_array_equal(agents[0].K, gain)
        np.testing.assert_array_equal(agents[0].A, doc["agents"][0]["A"])
        np.testing.assert_array_equal(agents[1].K, doc["agents"][1]["K"])

    @pytest.mark.parametrize("key", ["agents.3.K", "agents.x.K", "agents.-1.K"])
    def test_bad_list_index_rejected(self, tmp_path, key):
        path = tmp_path / "case1.json"
        path.write_text(json.dumps(preset("case1")))
        with pytest.raises(ValidationError, match="not an index"):
            load_scenario_file(str(path), [(key, [[1.0]])])

    def test_non_finite_override_rejected(self, tmp_path, capsys):
        path = tmp_path / "case2.json"
        path.write_text(json.dumps(preset("case2")))
        code = main(["check", str(path), "--set",
                     "attacks.periodic.period=Infinity"])
        assert code == 2
        assert "non-finite number Infinity" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_scenario_token_rejected(self, tmp_path, capsys, token):
        text = json.dumps(preset("case2")).replace('"period": 100.0',
                                                   f'"period": {token}')
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["check", str(path)]) == 2
        assert f"non-finite number {token}" in capsys.readouterr().err

    def test_seed_override_applies(self, tmp_path):
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(fast_doc()))
        loaded = load_scenario_file(str(path), [("sim.seed", 42)])
        assert loaded.scenario.seed == 42


def conditions_rows(loaded):
    """The rows of a scenario's conditions.csv as dicts, computed without a
    simulation."""
    lines = list(_conditions_lines(loaded.scenario, loaded.budget))
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def pass_flags(name):
    """(variant, frequency_pass, duration_pass) rows of a preset's
    conditions.csv."""
    return [(r["variant"], r["frequency_pass"], r["duration_pass"])
            for r in conditions_rows(preset_scenario(name))]


class TestPresetBudgets:
    def test_case1_has_no_budget(self):
        assert pass_flags("case1") == [("plain", "", "")]

    def test_case2_plain_passes_both(self):
        assert pass_flags("case2") == [("plain", "1", "1")]

    def test_case3_retry_dwell_breaks_frequency_budget(self):
        # the 0.1 s dwell inflates the frequency threshold to 102.2 s, above
        # the 101 s that two bursts 100 s apart admit
        assert pass_flags("case3") == [("plain", "1", "1"),
                                       ("inflated", "0", "1")]

    def test_event_based_kappa_star_defaults_to_the_dwell(self):
        doc = preset("case3")
        assert "kappa_star" not in doc["attacks"]["budget"]
        assert build_scenario(doc).budget.kappa_star == 0.1

    def test_inflated_row_follows_the_dwell(self):
        doc = preset("case3")
        doc["params"]["trigger"]["dwell_kappa"] = 0.5
        rows = conditions_rows(build_scenario(doc))
        assert [(r["variant"], r["t_f_star"]) for r in rows] == \
            [("plain", "100.0"), ("inflated", "110.99999999999999")]

    def test_kappa_star_below_the_dwell_refused(self, tmp_path, capsys):
        path = tmp_path / "case3.json"
        path.write_text(json.dumps(preset("case3")))
        assert main(["check", str(path),
                     "--set", "attacks.budget.kappa_star=0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "attacks.budget.kappa_star 0 is below " \
            "params.trigger.dwell_kappa 0.1" in captured.err


class TestRunCommand:
    def test_outputs_written(self, tmp_path):
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(fast_doc()))
        out = run_command(str(path), str(tmp_path / "out"))
        assert os.path.exists(out.trajectory_csv)
        assert os.path.exists(out.report_csv)
        assert os.path.exists(out.conditions_csv)
        assert out.events_csv is None
        header = open(out.trajectory_csv).readline().strip()
        assert header.startswith("t,x1_1,y1,rho1,z1,u1_1,eta_g1,eta_h1")

    def test_q2_run(self, tmp_path, capsys):
        path = tmp_path / "q2.json"
        path.write_text(json.dumps(q2_doc()))
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["conditions.csv", "report.csv",
                                           "trajectory.csv"]
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header.startswith("t,x1_1,x1_2,y1_1,y1_2,rho1_1,rho1_2,z1_1,z1_2,"
                                 "u1_1,u1_2,eta_g1,eta_h1,x2_1")
        report = (out / "report.csv").read_text().splitlines()
        values = dict(zip(report[0].split(","), report[1].split(",")))
        assert report[0].startswith("theta_star_1,theta_star_2,final_error,")
        assert float(values["theta_star_1"]) == pytest.approx(0.0, abs=1e-9)
        assert float(values["theta_star_2"]) == pytest.approx(0.0, abs=1e-9)

    def test_q2_cost_flat_at_the_origin(self, tmp_path, capsys):
        # t + t^4 is convex with zero curvature at t = 0; its optimum is the
        # q = 1 root in each coordinate
        doc = q2_doc()
        for cost in doc["costs"]:
            cost["parameters"] = [0.0, 1.0, 0.0, 0.0, 1.0]
        path = tmp_path / "q2.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == 0
        report = (out / "report.csv").read_text().splitlines()
        values = dict(zip(report[0].split(","), report[1].split(",")))
        assert values["theta_star_1"] == values["theta_star_2"] == "-0.6299605249473643"

    def test_unsafe_output_names_rejected(self, tmp_path, capsys):
        # a repeated name would replace an output, "../x" would land outside
        # --out, and "" would name the directory itself
        for outputs in ({"trajectory": "a.csv", "report": "a.csv"},
                        {"report": "trajectory.csv"},
                        {"trajectory": "../escaped.csv"},
                        {"trajectory": ""}, {"events": ".."}):
            doc = fast_doc()
            doc["outputs"] = outputs
            path = tmp_path / "names.json"
            path.write_text(json.dumps(doc))
            out = tmp_path / "nested" / "o"
            assert main(["run", str(path), "--out", str(out)]) == 2
            assert "output" in capsys.readouterr().err
            assert sorted(os.listdir(tmp_path)) == ["names.json"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_output_modes_follow_umask(self, tmp_path, umask, mode):
        path = tmp_path / "case3.json"
        path.write_text(json.dumps(short_case3_doc(horizon=0.3)))
        out = tmp_path / "o"
        previous = os.umask(umask)
        try:
            assert main(["run", str(path), "--out", str(out)]) == 0
        finally:
            os.umask(previous)
        modes = {name: os.stat(out / name).st_mode & 0o777
                 for name in os.listdir(out)}
        assert modes == dict.fromkeys(["conditions.csv", "events.csv",
                                       "report.csv", "trajectory.csv"], mode)

    def test_golden_case1_header(self):
        scen = preset_scenario("case1").scenario
        assert ",".join(trajectory_columns(scen)[0]) == CASE1_HEADER


def per_cell_trajectory_lines(scenario, traj):
    """Reference trajectory.csv writer: every cell formatted through _fmt."""
    yield ",".join(trajectory_columns(scenario)[0])
    q = scenario.q
    state_ends = np.cumsum([m.n for m in scenario.agents])
    input_ends = np.cumsum([m.p for m in scenario.agents])
    for row in range(traj.times.shape[0]):
        parts = [_fmt(traj.times[row])]
        for i, m in enumerate(scenario.agents):
            s0, s1 = state_ends[i] - m.n, state_ends[i]
            u0, u1 = input_ends[i] - m.p, input_ends[i]
            c0, c1 = i * q, (i + 1) * q
            parts += [_fmt(v) for v in traj.x[row, s0:s1]]
            parts += [_fmt(v) for v in traj.y[row, c0:c1]]
            parts += [_fmt(v) for v in traj.rho[row, c0:c1]]
            parts += [_fmt(v) for v in traj.z[row, c0:c1]]
            parts += [_fmt(v) for v in traj.u[row, u0:u1]]
            parts += [_fmt(traj.eta_g[row, i]), _fmt(traj.eta_h[row, i])]
        parts += [str(int(traj.r_state[row])), _fmt(bool(traj.attack_on[row]))]
        yield ",".join(parts)


def event_based_trajectory(horizon=0.6):
    scenario = build_scenario(short_case3_doc(horizon)).scenario
    return scenario, run(scenario)


def diverged_trajectory():
    """A concave quartic's run, truncated where it diverged."""
    doc = fast_doc()
    doc["costs"] = [{"kind": "custom_polynomial",
                     "parameters": [0.0, 0.0, 0.0, 0.0, -1.0]}]
    doc["sim"]["horizon"] = 5.0
    scenario = build_scenario(doc).scenario
    with pytest.raises(DivergenceError) as info:
        run(scenario)
    traj = info.value.trajectory
    assert len(traj.times) < scenario.n_steps + 1
    return scenario, traj


def nonfinite_trajectory():
    """An 11-row event-based run with nan, inf, -inf and -0.0 cells in
    rows 1 to 4."""
    scenario, traj = event_based_trajectory(horizon=0.01)
    x, y, u, eta_h = traj.x.copy(), traj.y.copy(), traj.u.copy(), \
        traj.eta_h.copy()
    x[1, 0] = np.nan
    y[2, 1] = np.inf
    u[3, 2] = -np.inf
    eta_h[4, 2] = -0.0
    return scenario, dataclasses.replace(traj, x=x, y=y, u=u, eta_h=eta_h)


def fast_trajectory():
    """fast_doc's run over two steps."""
    doc = fast_doc()
    doc["sim"]["horizon"] = 0.002
    scenario = build_scenario(doc).scenario
    return scenario, run(scenario)


def float_cell_trajectory(values):
    """fast_trajectory reshaped so that its float cells, in
    trajectory.csv order (t, x1_1, y1, rho1, z1, u1_1, eta_g1, eta_h1 per
    row), are ``values``, the last row padded by repeating them."""
    scenario, traj = fast_trajectory()
    values = np.asarray(values, dtype=np.float64)
    cells = np.resize(values, (-(-values.size // 8), 8))
    rows = cells.shape[0]
    return scenario, dataclasses.replace(
        traj, times=cells[:, 0], x=cells[:, 1:2], y=cells[:, 2:3],
        rho=cells[:, 3:4], z=cells[:, 4:5], u=cells[:, 5:6],
        eta_g=cells[:, 6:7], eta_h=cells[:, 7:8],
        r_state=np.zeros(rows, dtype=int), attack_on=np.zeros(rows, dtype=bool))


def with_neighbours(values):
    """``values``, the floats one ulp either side of each, and the
    negatives of all of them."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # the largest float's upper neighbour
        near = np.concatenate([values, np.nextafter(values, np.inf),
                               np.nextafter(values, -np.inf)])
    return np.concatenate([near, -near])


FLOAT_TABLES = {
    # every power of ten a float64 reaches, also scaled into the middle of
    # its decade
    "powers_of_ten": with_neighbours(
        [float(f"1e{k}") for k in range(-323, 309)]
        + [float(f"{m}e{k}") for m in ("1.2345", "9.87654321")
           for k in range(-320, 308)]),
    # [1e-5, 1e-4), the top of the band [1e-9, 1e-4) that the rule splices,
    # where orjson's fixed notation is repr's scientific one
    "decade_1e-5": with_neighbours(
        np.concatenate([np.linspace(1e-5, 1e-4, 997),
                        [1e-5, 1.5e-5, 2.5e-5, 1.234e-5, 9.99e-5, 1e-4]])),
    # [1e-9, 1e-5), the rest of that band, where orjson writes a one-digit
    # exponent and repr a zero-padded one
    "decades_1e-9_to_1e-5": with_neighbours(
        np.concatenate([np.geomspace(1e-9, 1e-5, 1997),
                        [1e-9, 1.5e-9, 9.99e-9, 1e-8, 1.234e-7, 1e-6, 9.99e-6]])),
    # the thresholds of the splice rule (1e-9, 1e-4, 1e16), where either
    # layout switches notation, the extremes, the zeros and the non-finite
    # cells
    "edges": with_neighbours(
        [1e-10, 1e-9, 1e-5, 1e-4, 1e15, 1e16, 1e17, 5e-324,
         2.2250738585072014e-308, 1.7976931348623157e308, 0.0, 0.1, 0.5, 1.0,
         123456789.0, 9007199254740993.0, np.inf, np.nan]),
}


def trajectory_text(scenario, traj):
    """trajectory.csv without its last line end; ``trajectory_lines``
    yields the header, then blocks of rows."""
    return "\n".join(trajectory_lines(scenario, traj))


class TestTrajectoryWriter:
    def assert_matches_reference(self, scenario, traj):
        # Compared as lists of lines, and reported by the first differing
        # line: an assertion on the whole text would have pytest diff
        # megabytes of it, which takes minutes.
        got = trajectory_text(scenario, traj).split("\n")
        want = list(per_cell_trajectory_lines(scenario, traj))
        if got != want:
            line = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                        min(len(got), len(want)))
            pytest.fail(f"trajectory.csv differs from the reference first at line "
                        f"{line + 1} ({len(got)} lines, reference {len(want)}):\n"
                        f"  written:   {got[line] if line < len(got) else '<none>'}\n"
                        f"  reference: {want[line] if line < len(want) else '<none>'}")

    def test_event_based_run(self):
        scenario, traj = event_based_trajectory()
        assert np.any(traj.eta_g != 0.0) and np.any(traj.eta_h != 0.0)
        assert traj.attack_on.any() and not traj.attack_on.all()
        assert len(traj.times) > CSV_CHUNK_ROWS
        assert len(traj.times) % CSV_CHUNK_ROWS != 0
        self.assert_matches_reference(scenario, traj)

    def test_diverged_run_truncated(self):
        self.assert_matches_reference(*diverged_trajectory())

    def test_nan_inf_and_signed_zero_cells(self):
        scenario, traj = nonfinite_trajectory()
        lines = trajectory_text(scenario, traj).split("\n")
        assert "nan" in lines[2] and "inf" in lines[3] and "-inf" in lines[4]
        self.assert_matches_reference(scenario, traj)

    def test_two_dimensional_outputs_over_many_blocks(self):
        # the committed q = 2 team: graph switches and the attack's start
        # and end fall inside blocks, and the last block is partial
        path = os.path.join(os.path.dirname(__file__), "data", "q2_event_based.json")
        scenario = load_scenario_file(path, [("sim.horizon", 0.8)]).scenario
        traj = run(scenario)
        assert scenario.q == 2 and len(traj.times) % CSV_CHUNK_ROWS
        for flags in (traj.r_state, traj.attack_on):
            changes = np.flatnonzero(np.diff(flags.astype(int))) + 1
            assert (changes % CSV_CHUNK_ROWS).all() and changes.size >= 2
        self.assert_matches_reference(scenario, traj)

    def test_fewer_rows_than_a_block(self):
        scenario, traj = event_based_trajectory(horizon=0.01)
        assert len(traj.times) < CSV_CHUNK_ROWS
        self.assert_matches_reference(scenario, traj)

    @pytest.mark.parametrize("table", FLOAT_TABLES)
    def test_float_table(self, table):
        self.assert_matches_reference(*float_cell_trajectory(FLOAT_TABLES[table]))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=200))
    def test_float64_bit_patterns(self, bits):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        self.assert_matches_reference(*float_cell_trajectory(values))


def sorted_events_lines(traj):
    """Reference events.csv writer: (time, agent, status) tuples sorted."""
    yield "agent,time,status"
    rows = []
    for i, times in enumerate(traj.events, start=1):
        rows += [(float(t), i, "success") for t in times]
    for i, times in enumerate(traj.blocked_attempts, start=1):
        rows += [(float(t), i, "blocked") for t in times]
    for t, i, status in sorted(rows):
        yield f"{i},{_fmt(t)},{status}"


class TestEventsLines:
    def test_event_based_run(self):
        _, traj = event_based_trajectory()
        assert any(len(b) for b in traj.blocked_attempts)
        assert list(_events_lines(traj)) == list(sorted_events_lines(traj))

    def test_ties_order_by_agent_then_status(self):
        _, traj = event_based_trajectory(horizon=0.01)
        traj = dataclasses.replace(
            traj,
            events=(np.array([0.0, 0.2]), np.array([0.1, 0.2]),
                    np.array([])),
            blocked_attempts=(np.array([0.2]), np.array([]),
                              np.array([0.1, 0.2])))
        lines = list(_events_lines(traj))
        assert lines == list(sorted_events_lines(traj))
        assert lines[1:] == ["1,0.0,success", "2,0.1,success", "3,0.1,blocked",
                             "1,0.2,blocked", "1,0.2,success", "2,0.2,success",
                             "3,0.2,blocked"]

    def test_no_events(self):
        _, traj = fast_trajectory()
        assert list(_events_lines(traj)) == ["agent,time,status"]


class TestInterruptedTrajectoryWrite:
    """A trajectory.csv write that fails part-way keeps the old file."""

    @pytest.mark.parametrize("error", [KeyboardInterrupt(), MemoryError()])
    def test_raising_row_generator_keeps_old_file(self, tmp_path, monkeypatch, error):
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(fast_doc()))
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == 0
        old = (out / "trajectory.csv").read_bytes()
        real_lines = writer.trajectory_lines

        def lines(scenario, traj):
            # after two blocks of rows: the first block's bytes are then in
            # the temporary file
            for count, text in enumerate(real_lines(scenario, traj)):
                if count == 3:
                    raise error
                yield text

        monkeypatch.setattr(writer, "trajectory_lines", lines)
        with pytest.raises(type(error)):
            main(["run", str(path), "--out", str(out), "--seed", "5"])
        assert (out / "trajectory.csv").read_bytes() == old
        assert sorted(os.listdir(out)) == ["conditions.csv", "report.csv",
                                           "trajectory.csv"]


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(fast_doc()))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0

    def test_validation_failure(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        doc = fast_doc()
        doc["algorithm"] = "nonsense"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_divergence(self, tmp_path, capsys):
        # concave quartic: the summed gradient has a root at zero, but the
        # closed loop runs up the objective and escapes in finite time
        doc = fast_doc()
        doc["costs"] = [{"kind": "custom_polynomial",
                         "parameters": [0.0, 0.0, 0.0, 0.0, -1.0]}]
        doc["sim"]["horizon"] = 5.0
        path = tmp_path / "div.json"
        path.write_text(json.dumps(doc))
        code = main(["run", str(path), "--out", str(tmp_path / "o")])
        assert code == 3
        # partial outputs are still written, flagged as diverged
        report = open(tmp_path / "o" / "report.csv").read().splitlines()
        values = dict(zip(report[0].split(","), report[1].split(",")))
        assert values["diverged"] == "1"

    def test_trigger_positivity_lost(self, tmp_path, capsys):
        # a tiny sigma lets the trigger functions grow to eta / sigma, and a
        # large delta then drives eta through zero within one step
        doc = short_case3_doc(horizon=0.2)
        doc["params"]["trigger"].update(sigma_g=1e-4, sigma_h=1e-4,
                                        delta_g=0.99, delta_h=0.99,
                                        k_g=200.0, k_h=200.0,
                                        theta_g=0.0, theta_h=0.0)
        path = tmp_path / "eta.json"
        path.write_text(json.dumps(doc))
        code = main(["run", str(path), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "lost positivity" in capsys.readouterr().err

    def test_io_error(self, tmp_path, capsys):
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(fast_doc()))
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        code = main(["run", str(path), "--out", str(blocker / "sub")])
        assert code == 4

    def test_check_command(self, tmp_path, capsys):
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(fast_doc()))
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("variant,window_t1")

    def test_preset_command(self, tmp_path, capsys):
        out_file = tmp_path / "case1.json"
        assert main(["preset", "case1", "--out", str(out_file)]) == 0
        doc = json.loads(out_file.read_text())
        assert doc == preset("case1")


class TestAdmission:
    """``check``, ``run`` and ``sweep`` admit the same documents, each with
    exit 2 before anything runs or is written."""

    def test_check_rejects_disconnected_union(self, tmp_path, capsys):
        path = tmp_path / "path.json"
        path.write_text(json.dumps(path_doc()))
        assert main(["check", str(path)]) == 0
        capsys.readouterr()
        assert main(["check", str(path), "--set",
                     f"graph_process.weights.0={CUT_PATH}"]) == 2
        assert "joint connectivity fails" in capsys.readouterr().err
        assert main(["check", str(path), "--set",
                     "graph_process.weights.0.1.0=0"]) == 2
        assert ("graph 0 is not weight-balanced at vertex 0: in-weight 200.0, "
                "out-weight 0.0") in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1e7, 1e8])
    def test_check_admits_large_weights(self, tmp_path, scale):
        # a balanced, strongly connected graph (two directed rings and a
        # two-cycle) whose in-weights and out-weights agree only up to
        # rounding at its own scale
        w = np.random.default_rng(0).uniform(0.1, 2.0, 3) * scale
        ring = np.roll(np.eye(3), 1, axis=1)
        a = w[0] * ring + w[1] * ring.T
        a[0, 1] += w[2]
        a[1, 0] += w[2]
        doc = preset("case1")
        doc["graph_process"] = {"weights": [a.tolist()], "generator": [[0.0]],
                                "initial_distribution": [1.0]}
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 0

    def test_initial_box_beyond_state_limit_refused(self, tmp_path, capsys):
        # a run would start out of range, and the guard reports it as a
        # divergence at the first step
        doc = preset("case1")
        doc["sim"]["initial"] = {"mode": "random", "low": -1e12, "high": 1e12}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["check", str(path)]) == 2
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert "state limits" in capsys.readouterr().err
        assert not out.exists()
        assert main(["check", str(path), "--set", "sim.initial.low=-1e9",
                     "--set", "sim.initial.high=1e9"]) == 0

    @pytest.mark.parametrize("horizon, step, overrides, message", [
        ("1e400", "0.001", [], "number 1e400 is outside the float64 range"),
        ("1" * 401, "0.001", [], "is outside the float64 range"),
        ("15.0", "0.001", ["sim.horizon=-1e400"], "number -1e400 is outside"),
        ("1e300", "1e-300", [], "horizon / step must be a finite step count"),
    ])
    def test_number_beyond_float64_refused(self, tmp_path, capsys, horizon, step,
                                           overrides, message):
        # a literal that float64 cannot hold, and a step count that it cannot
        # hold, are refused like any bad document: exit 2, one error line
        doc = json.dumps(preset("case1"))
        assert '"horizon": 15.0, "step": 0.001' in doc
        path = tmp_path / "wide.json"
        path.write_text(doc.replace('"horizon": 15.0, "step": 0.001',
                                    f'"horizon": {horizon}, "step": {step}'))
        sets = [arg for o in overrides for arg in ("--set", o)]
        out = tmp_path / "o"
        for argv in (["check", str(path), *sets], ["run", str(path), "--out", str(out), *sets]):
            assert main(argv) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:") and message in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("value", [1.5e9, -1e10])
    @pytest.mark.parametrize("name", ["x", "rho", "z"])
    def test_explicit_initial_state_beyond_state_limit_refused(self, tmp_path, capsys,
                                                               name, value):
        doc = fast_doc()
        doc["sim"]["initial"]["states"][0][name] = [value]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 2
        assert f"explicit initial {name} of agent 0" in capsys.readouterr().err
        doc["sim"]["initial"]["states"][0][name] = [1e9]
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 0

    def test_sweep_rejects_disconnected_member_before_any_runs(self, tmp_path, capsys):
        # a single weight cannot cut a balanced graph without unbalancing it,
        # so the cut comes from an override and the bad member from the sweep
        path = tmp_path / "path.json"
        path.write_text(json.dumps(path_doc()))
        out = tmp_path / "sw"
        code = main(["sweep", str(path), "--param", "beta", "--values", "0.5,1",
                     "--set", f"graph_process.weights.0={CUT_PATH}", "--out", str(out)])
        assert code == 2
        assert "joint connectivity fails" in capsys.readouterr().err
        assert not out.exists()
        code = main(["sweep", str(path), "--param", "graph_process.weights.0.1.0",
                     "--values", "200,0", "--out", str(out)])
        assert code == 2
        assert "graph 0 is not weight-balanced at vertex 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dense", [False, True])
    def test_unbalanced_family_refused(self, tmp_path, capsys, dense):
        # strongly connected but not weight-balanced: a run would converge,
        # with exit 0, to argmin sum pi_i f_i rather than to theta*
        with open(UNBALANCED_RING) as fh:
            doc = json.load(fh)
        expected = preset("case1")
        expected["graph_process"] = {
            "weights": [[[0.0, 0.0, 200.0], [20.0, 0.0, 0.0], [0.0, 2.0, 0.0]]],
            "generator": [[0.0]], "initial_distribution": [1.0]}
        expected["sim"]["horizon"] = 30.0
        assert doc == expected
        overrides, message = [], "vertex 0: in-weight 200.0, out-weight 20.0"
        if dense:
            overrides = ["--set", "graph_process.weights.0=[[0,200,5],[10,0,200],[200,1,0]]"]
            message = "vertex 0: in-weight 205.0, out-weight 210.0"
        out = tmp_path / "o"
        for argv in (["check", UNBALANCED_RING],
                     ["run", UNBALANCED_RING, "--out", str(out)],
                     ["sweep", UNBALANCED_RING, "--param", "beta", "--values", "1,1.5",
                      "--out", str(out)]):
            assert main(argv + overrides) == 2
            assert f"graph 0 is not weight-balanced at {message}" in capsys.readouterr().err
            assert not out.exists()

    def test_absorbing_chain_refused(self, tmp_path, capsys):
        # three pair graphs whose union is connected, but the chain starts in
        # state 0 and never leaves it: agent 2 would descend its own cost
        # alone, and the run would end with exit 0 away from theta*
        with open(ABSORBING_CHAIN) as fh:
            doc = json.load(fh)
        expected = preset("case1")
        expected["graph_process"] = {
            "weights": [[[0.0, 200.0, 0.0], [200.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                        [[0.0, 0.0, 0.0], [0.0, 0.0, 200.0], [0.0, 200.0, 0.0]],
                        [[0.0, 0.0, 200.0], [0.0, 0.0, 0.0], [200.0, 0.0, 0.0]]],
            "generator": [[0.0, 0.0, 0.0], [0.3, -0.5, 0.2], [0.1, 0.1, -0.2]],
            "initial_distribution": [1.0, 0.0, 0.0]}
        expected["sim"]["horizon"] = 30.0
        assert doc == expected
        out = tmp_path / "o"
        for argv in (["check", ABSORBING_CHAIN],
                     ["run", ABSORBING_CHAIN, "--out", str(out)],
                     ["sweep", ABSORBING_CHAIN, "--param", "beta", "--values", "1,1.5",
                      "--out", str(out)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "closed class of graphs [0]" in err and "agent 2 is cut off" in err
            assert not out.exists()
        # the same graphs under case1's irreducible generator are admitted
        generator = json.dumps(preset("case1")["graph_process"]["generator"])
        assert main(["check", ABSORBING_CHAIN, "--set",
                     f"graph_process.generator={generator}"]) == 0

    def test_history_that_cannot_fit_refused(self, tmp_path, capsys, monkeypatch):
        # 1e12 steps of case1 need about 236 TiB of history: refused before
        # anything is allocated or written, not a MemoryError traceback
        path, out = tmp_path / "case1.json", tmp_path / "o"
        path.write_text(json.dumps(preset("case1")))
        for argv in (["check", str(path)], ["run", str(path), "--out", str(out)]):
            assert main([*argv, "--set", "sim.horizon=1e9"]) == 2
            err = capsys.readouterr().err
            assert "a run of 1000000000000 steps needs 242143.9 GiB of history" in err
            assert "GiB of RAM" in err and "Traceback" not in err
            assert not out.exists()
        # where neither sysconf nor an address-space limit tells the memory,
        # nothing is checked
        monkeypatch.setattr(os, "sysconf_names", {})
        monkeypatch.setattr("resopt.sim.RLIMIT_AS", None)
        assert main(["check", str(path), "--set", "sim.horizon=1e9"]) == 0

    def test_history_over_the_address_space_limit_refused(self, tmp_path):
        # 8e6 steps of case1 need about 1.9 GiB of history, which fits the
        # RAM of most hosts but not a 1 500 000 KiB RLIMIT_AS: set on the
        # child process alone, it makes both commands refuse the run before
        # anything is allocated or written
        resource = pytest.importorskip("resource")
        path, out = tmp_path / "case1.json", tmp_path / "o"
        path.write_text(json.dumps(preset("case1")))

        def limit_address_space():
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            resource.setrlimit(resource.RLIMIT_AS, (1_500_000 * 1024, hard))

        src = os.path.dirname(os.path.dirname(resopt.__file__))
        for argv in (["check", str(path)], ["run", str(path), "--out", str(out)]):
            result = subprocess.run(
                [sys.executable, "-m", "resopt.cli", *argv, "--set", "sim.horizon=8000"],
                env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
                preexec_fn=limit_address_space, capture_output=True, text=True)
            assert result.returncode == 2, result.stderr
            assert result.stderr == (
                "error: a run of 8000000 steps needs 1.9 GiB of history, over the "
                "1.4 GiB address-space limit (RLIMIT_AS)\n")
            assert not out.exists()

    def test_history_estimate_hand_count(self):
        # case1 per grid point, in bytes: the time 8; the history row of
        # 7 x, 3 rho, 3 z and 3 y, 8 * 16; u 8 * 6; eta_g and eta_h 8 * 6;
        # the attempts 3; the graph index 8 and the attack flag 1, and their
        # list entries 8 + 8
        scenario = preset_scenario("case1").scenario
        per_point = 8 + 128 + 48 + 48 + 3 + 8 + 1 + 16
        assert per_point == 260 and scenario.n_steps == 15000
        assert _run_bytes(scenario.agents, scenario.n_steps) == 15001 * per_point

    def test_explicit_initial_state_shape_checked_by_check(self, tmp_path, capsys):
        doc = fast_doc()
        doc["sim"]["initial"]["states"][0]["x"] = [1.0, 2.0]
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 2
        assert "explicit initial state 0 has wrong shape" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, where", [
        ("agents.0.A", [[0.0, 1.0], [0.0]], "$.agents[0].A"),
        ("graph_process.weights.0.1", [200.0, 0.0], "$.graph_process.weights[0]"),
        ("graph_process.generator.2", [0.1, -0.1], "$.graph_process.generator"),
    ])
    def test_ragged_matrix_rejected(self, tmp_path, capsys, key, value, where):
        path = tmp_path / "case1.json"
        path.write_text(json.dumps(preset("case1")))
        code = main(["check", str(path), "--set", f"{key}={json.dumps(value)}"])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{where} is ragged" in err
        assert "Traceback" not in err

    def test_tiny_attack_period_refused_quickly(self, tmp_path, capsys):
        path = tmp_path / "case1.json"
        path.write_text(json.dumps(preset("case1")))
        start = time.perf_counter()
        code = main(["check", str(path), "--set",
                     'attacks={"periodic":{"period":1e-12,"active":0,"phase":0}}'])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2
        assert elapsed < 1.0
        assert f"above the limit of {MAX_PERIODIC_BURSTS}" in err
        assert "Traceback" not in err

    def test_budget_over_many_bursts_refused_quickly(self, tmp_path, capsys):
        path = tmp_path / "case2.json"
        path.write_text(json.dumps(preset("case2")))
        start = time.perf_counter()
        code = main(["check", str(path), "--set",
                     'attacks.periodic={"period":2.1e-3,"active":1e-3,"phase":0}'])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2
        assert elapsed < 1.0
        assert "100000 bursts" in err
        assert f"above the limit of {MAX_BUDGET_BURSTS}" in err
        assert "without attacks.budget" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bursts", [MAX_BUDGET_BURSTS, MAX_BUDGET_BURSTS + 1])
    def test_budget_burst_limit(self, bursts):
        doc = preset("case2")
        doc["attacks"]["intervals"] = [[0.2 * k, 0.1] for k in range(bursts)]
        del doc["attacks"]["periodic"]
        if bursts > MAX_BUDGET_BURSTS:
            with pytest.raises(ValidationError, match=f"{bursts} bursts"):
                build_scenario(doc)
            del doc["attacks"]["budget"]
        loaded = build_scenario(doc)
        assert len(loaded.scenario.attack_schedule.intervals) == bursts

    def test_negative_seed_in_document_rejected(self, tmp_path, capsys):
        doc = fast_doc()
        doc["sim"]["seed"] = -1
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["check", str(path)]) == 2
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert "schema violation at $.sim.seed" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_flag_rejected(self, tmp_path, capsys):
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(fast_doc()))
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out), "--seed", "-1"]) == 2
        assert "schema violation at $.sim.seed" in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def test_sweep_summary_sorted(self, tmp_path, capsys):
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(fast_doc()))
        code = main(["sweep", str(path), "--param", "beta",
                     "--values", "1.5,0.5,1.0", "--out", str(tmp_path / "sw")])
        assert code == 0
        rows = open(tmp_path / "sw" / "sweep.csv").read().splitlines()
        assert rows[0] == "name,final_error,fitted_rate,diverged,status"
        assert all(r.endswith(",0,ok") for r in rows[1:])
        names = [r.split(",")[0] for r in rows[1:]]
        assert names == sorted(names)
        assert (tmp_path / "sw" / "beta=0.5" / "report.csv").exists()

    def test_bad_value_fails_before_any_member_runs(self, tmp_path, capsys):
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(fast_doc()))
        out = tmp_path / "sw"
        code = main(["sweep", str(path), "--param", "beta",
                     "--values", "0.5,abc", "--out", str(out)])
        assert code == 2
        assert "schema violation at $.params.beta" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values, clash", [
        ("1,1.0", "1 and 1.0"),
        # distinct floats that format alike under :g
        ("0.5,1.0000001,1.00000012", "1.0000001 and 1.00000012"),
    ])
    def test_clashing_member_labels_rejected(self, tmp_path, capsys, values, clash):
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(fast_doc()))
        out = tmp_path / "sw"
        code = main(["sweep", str(path), "--param", "beta",
                     "--values", values, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"sweep values {clash} both give the member label" in err
        assert not out.exists()

    def test_failing_members_do_not_sink_the_sweep(self, tmp_path, capsys):
        # case3 at 0.2 s with a trigger whose eta_g loses positivity at
        # sigma_g = 1e-4; the failing member sorts first
        doc = preset("case3")
        doc["sim"]["horizon"] = 0.2
        doc["params"]["trigger"].update(sigma_g=1e-4, delta_g=0.99, k_g=200.0,
                                        theta_g=0.0)
        path = tmp_path / "case3.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "sw"
        code = main(["sweep", str(path), "--param", "params.trigger.sigma_g",
                     "--values", "1e4,1e-4", "--out", str(out)])
        assert code == 3
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[1] == "params.trigger.sigma_g=0.0001,nan,nan,0,invariant"
        assert rows[2].startswith("params.trigger.sigma_g=10000,")
        assert rows[2].endswith(",0,ok")
        assert sorted(os.listdir(out)) == ["params.trigger.sigma_g=10000", "sweep.csv"]
        assert (out / "params.trigger.sigma_g=10000" / "events.csv").exists()
        err = capsys.readouterr().err
        assert "error: params.trigger.sigma_g=0.0001: trigger variable lost positivity" in err

    def test_worst_member_sets_the_exit_code(self, tmp_path, capsys):
        # a concave cost (-50 y^2) diverges (exit 3); a linear one (0.0) has
        # no optimum (exit 2)
        doc = fast_doc()
        doc["costs"][0]["parameters"] = [0.0, 1.0, 0.5]
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "sw"
        code = main(["sweep", str(path), "--param", "costs.0.parameters.2",
                     "--values", "0.0,-50.0,0.5", "--out", str(out)])
        assert code == 3
        rows = (out / "sweep.csv").read_text().splitlines()
        status = {r.split(",")[0]: r.split(",")[-1] for r in rows[1:]}
        assert status == {"costs.0.parameters.2=-50": "diverged",
                          "costs.0.parameters.2=0": "unbounded",
                          "costs.0.parameters.2=0.5": "ok"}
        code = main(["sweep", str(path), "--param", "costs.0.parameters.2",
                     "--values", "0.0,0.5", "--out", str(tmp_path / "sw2")])
        assert code == 2
