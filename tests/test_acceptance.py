"""Acceptance gate: one test per shipping criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The heavyweight simulations (case2/case3, 210 s horizons) are
shared through module-scoped fixtures so the whole gate stays inside a few
minutes.
"""

import dataclasses
import filecmp
import json
import math

import numpy as np
import pytest

from conftest import THETA_STAR, brute_force_cut, disagreement_sides
from resopt.attack import AttackSchedule, attack_metrics
from resopt.cli import preset, preset_scenario, run_command, write_outputs
from resopt.controller import TriggerParams
from resopt.cost import centralized_optimum, gradient, value
from resopt.errors import DivergenceError
from resopt.graph import (laplacian, minimum_cut, mirror_union_laplacian,
                          stationary_weighting, union_graph)
from resopt.sim import convergence_report, final_spread, run


def report_line(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {criterion}: {status}  {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def case1():
    return preset_scenario("case1")


@pytest.fixture(scope="module")
def case2():
    return preset_scenario("case2")


@pytest.fixture(scope="module")
def case3():
    return preset_scenario("case3")


@pytest.fixture(scope="module")
def case2_run(case2):
    traj = run(case2.scenario)
    theta = centralized_optimum(list(case2.scenario.costs), 1e-12)
    return traj, convergence_report(traj, theta)


@pytest.fixture(scope="module")
def case3_runs(case3):
    """Two independent case3 runs (also serve the determinism criterion)."""
    theta = centralized_optimum(list(case3.scenario.costs), 1e-12)
    t1 = run(case3.scenario)
    t2 = run(case3.scenario)
    return t1, t2, convergence_report(t1, theta)


def test_criterion_1_regulation_reproduction(case1):
    worst = 0.0
    for model in case1.scenario.agents:
        q = np.eye(model.q)
        pinned = max(np.linalg.norm(model.B @ model.U - model.A @ model.X),
                     np.linalg.norm(model.B @ model.W - model.X),
                     np.linalg.norm(model.C @ model.X - q))
        from resopt.plant import solve_regulation
        u, w, x = solve_regulation(model.A, model.B, model.C)
        solved = max(np.linalg.norm(model.B @ u - model.A @ x),
                     np.linalg.norm(model.B @ w - x),
                     np.linalg.norm(model.C @ x - q))
        worst = max(worst, pinned, solved)
    report_line("1 regulation-equation reproduction", worst < 1e-9,
                f"max residual {worst:.2e} < 1e-9")


def test_criterion_2_gain_validity(case1):
    agents = case1.scenario.agents
    closed1 = agents[0].A - agents[0].B @ agents[0].K
    eigs = np.sort(np.linalg.eigvals(closed1).real)
    first_ok = np.allclose(eigs, [-3.0, -1.5], atol=1e-9) \
        and np.abs(np.linalg.eigvals(closed1).imag).max() < 1e-9
    abscissas = []
    for model in agents[1:]:
        from resopt.plant import is_hurwitz
        ok, absc = is_hurwitz(model.A - model.B @ model.K)
        abscissas.append(absc)
        first_ok = first_ok and ok
    report_line("2 gain validity", first_ok,
                f"eig(A1-B1K1)={eigs}, abscissas 2-3: {abscissas}")


def test_criterion_3_oracle_optimum(case1):
    costs = list(case1.scenario.costs)
    theta = centralized_optimum(costs, 1e-12)
    grad_sum = sum(gradient(c, [theta])[0] for c in costs)
    in_bracket = -1.0 < theta < 0.0
    base = sum(value(c, [theta]) for c in costs)
    bumped = all(sum(value(c, [theta + s * 1e-8]) for c in costs) > base
                 for s in (-10.0, 10.0))
    ok = abs(grad_sum) < 1e-12 and in_bracket and bumped \
        and abs(theta - THETA_STAR) < 1e-9
    report_line("3 oracle optimum", ok,
                f"theta*={theta:.15f}, |sum grad|={abs(grad_sum):.2e} < 1e-12")


def test_criterion_4_case1_convergence(case1):
    seeds = (1, 2, 3, 4, 5)
    details = []
    ok = True
    for seed in seeds:
        scen = dataclasses.replace(case1.scenario, seed=seed)
        traj = run(scen)
        rep = convergence_report(traj, THETA_STAR)
        drop = rep.log_envelope[0] - math.log(max(rep.final_error, 1e-15))
        good = rep.final_error < 1e-2 and rep.fitted_rate < 0.0 and drop >= 6.0
        ok = ok and good
        details.append(f"seed {seed}: err {rep.final_error:.1e} "
                       f"rate {rep.fitted_rate:+.2f} drop {drop:.1f}")
    report_line("4 case1 convergence (5 seeds)", ok, "; ".join(details))


def test_criterion_5_beta_monotonicity(case1):
    # the larger beta shrinks the disturbance each topology switch injects,
    # so the probe sits just after a switch late in the horizon (seed 3
    # switches at t = 13.85); the probe time is fixed for both runs
    scen = dataclasses.replace(case1.scenario, seed=3)
    probe, theta = round(14.0 / scen.step), centralized_optimum(scen.costs)
    errors = {}
    for beta in (0.5, 1.5):
        params = dataclasses.replace(scen.params, beta=beta)
        traj = run(dataclasses.replace(scen, params=params))
        errors[beta] = convergence_report(traj, theta).error_series[probe].max()
    ok = errors[1.5] < errors[0.5]
    report_line("5 beta monotonicity", ok,
                f"err(beta=1.5)={errors[1.5]:.3e} < err(beta=0.5)={errors[0.5]:.3e}")


def test_criterion_6_case2_resilience(case2, case2_run):
    traj, rep = case2_run
    sched = case2.scenario.attack_schedule
    metrics = attack_metrics(sched, 0.0, case2.scenario.horizon)
    duty = metrics.total_duration / case2.scenario.horizon
    drop = rep.log_envelope[0] - math.log(max(rep.final_error, 1e-15))
    converged = rep.final_error < 1e-2 and rep.fitted_rate < 0.0 and drop >= 6.0
    admissible_spread = final_spread(traj)

    saturated = dataclasses.replace(
        case2.scenario,
        attack_schedule=AttackSchedule(intervals=((0.0, case2.scenario.horizon),),
                                       horizon=case2.scenario.horizon))
    try:
        bad_traj = run(saturated)
    except DivergenceError as exc:
        bad_traj = exc.trajectory
    bad_spread = final_spread(bad_traj)
    contrast = bad_spread > 10.0 * admissible_spread
    ok = metrics.frequency <= 0.01 and duty < 0.5 and converged and contrast
    report_line("6 case2 resilience", ok,
                f"freq {metrics.frequency:.4f} <= 0.01, duty {duty:.4f} < 0.5, "
                f"err {rep.final_error:.1e}, rate {rep.fitted_rate:+.3f}, "
                f"spread {admissible_spread:.1e} vs saturated {bad_spread:.1e}")


def test_criterion_7_case3_event_triggered(case3, case3_runs):
    traj, _, rep = case3_runs
    drop = rep.log_envelope[0] - math.log(max(rep.final_error, 1e-15))
    converged = rep.final_error < 1e-2 and rep.fitted_rate < 0.0 and drop >= 6.0
    stats = rep.trigger_stats
    counts = tuple(s.count for s in stats)
    mean_gaps = [s.mean_gap for s in stats]
    step = case3.scenario.step
    gaps_ok = all(s.min_gap >= step * (1.0 - 1e-9) for s in stats)
    saved = any(g > 2.0 * step for g in mean_gaps)
    finite = all(c < len(traj.times) + 1 for c in counts)
    ok = converged and gaps_ok and saved and finite
    report_line("7 case3 event-triggered", ok,
                f"err {rep.final_error:.1e}, rate {rep.fitted_rate:+.3f}, "
                f"counts {counts}, mean gaps {[f'{g:.4f}' for g in mean_gaps]}")


def test_criterion_8_trigger_variable_positivity(case3_runs):
    traj, _, _ = case3_runs
    min_g = float(traj.eta_g.min())
    min_h = float(traj.eta_h.min())
    report_line("8 trigger-variable positivity", min_g > 0.0 and min_h > 0.0,
                f"min eta_g {min_g:.3e}, min eta_h {min_h:.3e} (every step)")


def test_criterion_9_disagreement_bound_suite(case1):
    process = case1.scenario.graph_process
    pi = stationary_weighting(process)
    mirror = mirror_union_laplacian(process)
    cut = minimum_cut(mirror)
    cross_check = brute_force_cut(mirror)
    cut_ok = abs(cut - cross_check) < 1e-9
    lap_un = laplacian(union_graph(process.graphs))
    rng = np.random.default_rng(2718)
    violations = 0
    for _ in range(1000):
        xi = rng.standard_normal(process.n_vertices)
        xi -= pi * (pi @ xi) / (pi @ pi)
        lhs, rhs = disagreement_sides(lap_un, pi, cut, xi)
        if lhs < rhs - 1e-9:
            violations += 1
    report_line("9 disagreement-bound property suite", cut_ok and violations == 0,
                f"cut {cut} == brute force {cross_check}, "
                f"0/1000 violations" if violations == 0 else
                f"{violations}/1000 violations")


def test_criterion_10_equivalences(case1):
    # (a) time-based with an empty schedule is bitwise the attack-free path
    scen_short = dataclasses.replace(case1.scenario, horizon=10.0)
    t_time = run(scen_short)
    t_free = run(dataclasses.replace(scen_short, algorithm="attack_free"))
    exact = all(np.array_equal(getattr(t_time, f), getattr(t_free, f))
                for f in ("x", "y", "rho", "z", "u"))

    # (b) event-based with an every-step trigger tracks time-based to 1e-6
    fire_always = TriggerParams(sigma_g=1e12, sigma_h=1e12, theta_g=0.0,
                                theta_h=0.0, delta_g=0.0, delta_h=0.0,
                                k_g=10.0, k_h=10.0, eta_g0=1e-12, eta_h0=1e-12,
                                dwell_kappa=0.1)
    t_event = run(dataclasses.replace(scen_short, algorithm="event_based",
                                      trigger=fire_always))
    sup_dist = float(np.abs(t_event.y - t_time.y).max())

    # (c) analytic gradients vs central differences at 1e-6 relative
    rng = np.random.default_rng(11)
    fd_ok = True
    for cost in case1.scenario.costs:
        for t in rng.uniform(-8.0, 8.0, size=1000):
            analytic = gradient(cost, [t])[0]
            numeric = (value(cost, [t + 1e-6]) - value(cost, [t - 1e-6])) / 2e-6
            if abs(analytic - numeric) / max(1.0, abs(analytic)) >= 1e-6:
                fd_ok = False
    ok = exact and sup_dist < 1e-6 and fd_ok
    report_line("10 equivalence checks", ok,
                f"(a) exact={exact} (b) sup dist {sup_dist:.2e} < 1e-6 "
                f"(c) finite differences {'ok' if fd_ok else 'FAILED'}")


def test_criterion_11_determinism(tmp_path, case3, case3_runs):
    # case1 via the CLI twice: byte-identical files
    scenario_path = tmp_path / "case1.json"
    scenario_path.write_text(json.dumps(preset("case1"), indent=2))
    out_a = run_command(str(scenario_path), str(tmp_path / "a"))
    out_b = run_command(str(scenario_path), str(tmp_path / "b"))
    same_case1 = all(filecmp.cmp(x, y, shallow=False) for x, y in
                     [(out_a.trajectory_csv, out_b.trajectory_csv),
                      (out_a.report_csv, out_b.report_csv),
                      (out_a.conditions_csv, out_b.conditions_csv)])

    # case3: two independent runs, identical arrays and identical CSV bytes
    t1, t2, rep = case3_runs
    same_arrays = all(np.array_equal(getattr(t1, f), getattr(t2, f))
                      for f in ("x", "y", "rho", "z", "u", "eta_g", "eta_h"))
    same_events = all(np.array_equal(a, b)
                      for a, b in zip(t1.events, t2.events))
    o1 = write_outputs(case3, str(tmp_path / "c3a"), t1, rep)
    o2 = write_outputs(case3, str(tmp_path / "c3b"), t2, rep)
    same_case3 = filecmp.cmp(o1.trajectory_csv, o2.trajectory_csv,
                             shallow=False) \
        and filecmp.cmp(o1.events_csv, o2.events_csv, shallow=False)
    ok = same_case1 and same_arrays and same_events and same_case3
    report_line("11 determinism", ok,
                f"case1 CSV bytes equal={same_case1}, case3 arrays equal="
                f"{same_arrays}, case3 CSV bytes equal={same_case3}")
