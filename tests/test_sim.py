import itertools

import numpy as np
import pytest

from conftest import THETA_STAR
from resopt.controller import AlgorithmParams, TriggerParams, consensus_errors
from resopt.cost import CostSpec
from resopt.errors import DivergenceError, ValidationError
from resopt.graph import (GraphProcess, SwitchingPath, WeightedDigraph,
                          laplacian)
from resopt.plant import AgentModel
from resopt.sim import (InitialCondition, Scenario, Trajectory,
                        compare_beta_sweep, convergence_report, final_spread,
                        run, zeno_audit)


def scalar_agent():
    """n = p = q = 1 plant with closed-loop pole at -1."""
    return AgentModel.build([[0.0]], [[1.0]], [[1.0]], [[1.0]])


def single_agent_scenario(cost, horizon=5.0, x0=1.0, step=1e-3):
    proc = GraphProcess(graphs=(WeightedDigraph(np.zeros((1, 1))),),
                        generator=[[0.0]], initial_distribution=[1.0])
    init = InitialCondition(mode="explicit", states=(([x0], [0.0], [0.0]),))
    return Scenario(agents=(scalar_agent(),), costs=(cost,), graph_process=proc,
                    attack_schedule=None, algorithm="time_based",
                    params=AlgorithmParams(2.0, 1.0), horizon=horizon,
                    step=step, seed=0, initial=init)


def pair_scenario(schedule=None, horizon=4.0, algorithm="time_based",
                  centers=(0.0, 2.0), start=(0.0, 0.0), trigger=None, seed=0):
    """Two scalar agents, full exchange graph, quadratic costs."""
    weights = np.array([[0.0, 1.0], [1.0, 0.0]])
    proc = GraphProcess(graphs=(WeightedDigraph(weights),),
                        generator=[[0.0]], initial_distribution=[1.0])
    costs = tuple(CostSpec("custom_polynomial", (0.5 * c * c, -c, 0.5))
                  for c in centers)
    init = InitialCondition(mode="explicit",
                            states=tuple(([s], [s], [0.0]) for s in start))
    return Scenario(agents=(scalar_agent(), scalar_agent()), costs=costs,
                    graph_process=proc, attack_schedule=schedule,
                    algorithm=algorithm, params=AlgorithmParams(2.0, 1.0),
                    horizon=horizon, step=1e-3, seed=seed, initial=init,
                    trigger=trigger)


def bundled_scenario(**overrides):
    from resopt.cli import preset_scenario
    import dataclasses
    scen = preset_scenario("case1").scenario
    return dataclasses.replace(scen, **overrides) if overrides else scen


def default_trigger(**kw):
    base = dict(sigma_g=1e4, sigma_h=1e4, theta_g=1e-6, theta_h=1e-6,
                delta_g=0.0, delta_h=0.0, k_g=0.05, k_h=0.05,
                eta_g0=1.0, eta_h0=1.0, dwell_kappa=0.1)
    base.update(kw)
    return TriggerParams(**base)


class TestRunBasics:
    def test_zero_cost_zero_initial_is_identically_zero(self):
        cost = CostSpec("custom_polynomial", (0.0,))
        scen = single_agent_scenario(cost, x0=0.0, horizon=1.0)
        traj = run(scen)
        assert np.all(traj.x == 0.0)
        assert np.all(traj.y == 0.0)
        assert np.all(traj.u == 0.0)

    def test_decoupled_agent_decays_like_exp(self):
        cost = CostSpec("custom_polynomial", (0.0,))
        traj = run(single_agent_scenario(cost, x0=1.0, horizon=5.0))
        expected = np.exp(-traj.times)
        assert np.abs(traj.x[:, 0] - expected).max() < 1e-10

    def test_determinism_bitwise(self):
        scen = bundled_scenario(horizon=2.0)
        t1, t2 = run(scen), run(scen)
        for name in ("x", "y", "rho", "z", "u"):
            np.testing.assert_array_equal(getattr(t1, name), getattr(t2, name))
        np.testing.assert_array_equal(t1.r_state, t2.r_state)

    def test_step_halving_consistency(self):
        # seed 1 makes no graph switch inside this window, so this isolates
        # the integrator order
        base = bundled_scenario(horizon=2.0, step=1e-3)
        fine = bundled_scenario(horizon=2.0, step=5e-4)
        y1 = run(base).y[-1]
        y2 = run(fine).y[-1]
        assert np.abs(y1 - y2).max() < 1e-4

    def test_attack_free_equals_time_based_with_empty_schedule(self):
        t1 = run(bundled_scenario(horizon=2.0))
        t2 = run(bundled_scenario(horizon=2.0, algorithm="attack_free"))
        np.testing.assert_array_equal(t1.x, t2.x)
        np.testing.assert_array_equal(t1.y, t2.y)
        np.testing.assert_array_equal(t1.u, t2.u)

    def test_horizon_must_be_step_multiple(self):
        cost = CostSpec("custom_polynomial", (0.0,))
        with pytest.raises(ValidationError):
            single_agent_scenario(cost, horizon=1.0005)


class TestAttackEffects:
    def test_saturating_attack_prevents_consensus(self):
        from resopt.attack import AttackSchedule
        horizon = 6.0
        blocked = AttackSchedule(intervals=((0.0, horizon),), horizon=horizon)
        traj = run(pair_scenario(schedule=blocked, horizon=horizon))
        y = traj.y_per_agent()[:, :, 0]
        spreads = np.abs(y[:, 0] - y[:, 1])
        # agents start in agreement, then drift to their own minimizers
        assert spreads[-1] > 1.0
        assert spreads[-1] > 10.0 * spreads[: len(spreads) // 4].min() + 0.5

    def test_attack_window_freezes_z(self):
        from resopt.attack import AttackSchedule
        sched = AttackSchedule(intervals=((1.0, 0.5),), horizon=3.0)
        traj = run(pair_scenario(schedule=sched, horizon=3.0, start=(1.0, -1.0)))
        grid = traj.times
        inside = (grid >= 1.0) & (grid <= 1.5 - traj.step)
        z = traj.z
        # z has constant value across the attacked window (zero derivative)
        z_inside = z[inside]
        assert np.abs(z_inside - z_inside[0]).max() == 0.0

    def test_divergence_reports_time_and_truncated_trajectory(self):
        cost = CostSpec("exp_pair", (-2.0, -0.5, 0.5, 0.3))
        scen = single_agent_scenario(cost, x0=0.0, horizon=5.0)
        with pytest.raises(DivergenceError) as err:
            run(scen)
        exc = err.value
        assert 1.0 < exc.time < 3.5
        traj = exc.trajectory
        assert traj.times[-1] < exc.time
        assert np.all(np.isfinite(traj.x))


class TestEventMode:
    def test_all_agents_broadcast_at_t0(self):
        scen = pair_scenario(horizon=2.0, algorithm="event_based",
                             trigger=default_trigger(), start=(1.0, -1.0))
        traj = run(scen)
        for times in traj.events:
            assert times[0] == 0.0
            assert np.all(np.diff(times) > 0.0)
        assert all(len(b) == 0 for b in traj.blocked_attempts)

    def test_eta_positive_at_every_step(self):
        scen = bundled_scenario(horizon=2.0, algorithm="event_based",
                                trigger=default_trigger())
        traj = run(scen)
        assert np.all(traj.eta_g > 0.0)
        assert np.all(traj.eta_h > 0.0)

    def test_blocked_attempts_retry_with_dwell(self):
        from resopt.attack import AttackSchedule
        sched = AttackSchedule(intervals=((0.5, 0.45),), horizon=3.0)
        scen = pair_scenario(schedule=sched, horizon=3.0, start=(3.0, -3.0),
                             algorithm="event_based", trigger=default_trigger())
        traj = run(scen)
        for blocked_times in traj.blocked_attempts:
            if len(blocked_times) >= 2:
                gaps = np.diff(blocked_times)
                np.testing.assert_allclose(gaps, 0.1, atol=1e-9)
        # first successful broadcast after the burst happens within one dwell
        for times, blocked_times in zip(traj.events, traj.blocked_attempts):
            if len(blocked_times) > 0:
                after = times[times >= 0.95]
                assert after.size > 0
                assert after[0] <= 0.95 + 0.1 + 1e-9

    def test_event_requires_trigger_params(self):
        with pytest.raises(ValidationError):
            pair_scenario(algorithm="event_based")


def synthetic_trajectory(times, y_values):
    n = len(times)
    zeros = np.zeros((n, 1))
    return Trajectory(times=times, x=zeros.copy(), y=y_values.reshape(-1, 1),
                      rho=zeros.copy(), z=zeros.copy(), u=zeros.copy(),
                      eta_g=zeros.copy(), eta_h=zeros.copy(),
                      r_state=np.zeros(n, dtype=int),
                      attack_on=np.zeros(n, dtype=bool),
                      events=(np.array([]),), blocked_attempts=(np.array([]),),
                      switching=SwitchingPath(breakpoints=np.array([0.0]),
                                              states=np.array([0]),
                                              horizon=float(times[-1])),
                      algorithm="time_based", step=float(times[1] - times[0]),
                      q=1, state_slices=((0, 1),), input_slices=((0, 1),))


class TestConvergenceReport:
    def test_constant_at_optimum_floors_logs(self):
        times = np.arange(101) * 0.01
        traj = synthetic_trajectory(times, np.full(101, THETA_STAR))
        rep = convergence_report(traj, THETA_STAR)
        assert rep.final_error == 0.0
        assert np.all(rep.log_envelope == np.log(1e-15))

    def test_synthetic_exponential_rate(self):
        times = np.arange(5001) * 1e-3
        traj = synthetic_trajectory(times, THETA_STAR + np.exp(-2.0 * times))
        rep = convergence_report(traj, THETA_STAR)
        assert abs(rep.fitted_rate - (-2.0)) / 2.0 < 0.01

    def test_final_spread(self):
        traj = run(pair_scenario(horizon=1.0, start=(1.0, -1.0)))
        assert final_spread(traj) >= 0.0


class TestBetaSweep:
    def test_identical_betas_identical_errors(self):
        scen = bundled_scenario(horizon=2.0)
        rep = compare_beta_sweep(scen, [1.0, 1.0, 1.0], probe_time=1.0)
        errs = [e.probe_error for e in rep.entries]
        assert errs[0] == errs[1] == errs[2]

    def test_single_beta(self):
        scen = bundled_scenario(horizon=1.0)
        rep = compare_beta_sweep(scen, [1.0], probe_time=0.5)
        assert len(rep.entries) == 1

    def test_event_based_rejected(self):
        scen = pair_scenario(horizon=1.0, algorithm="event_based",
                             trigger=default_trigger())
        with pytest.raises(ValidationError):
            compare_beta_sweep(scen, [0.5, 1.0])

    def test_default_probe_orders_betas_after_topology_switch(self):
        # with seed 3 the mid-horizon default probe (t = 14) falls right
        # after a topology switch, where the larger beta has both injected a
        # smaller disturbance and damped it faster
        scen = bundled_scenario(horizon=28.0, seed=3)
        rep = compare_beta_sweep(scen, [0.5, 1.5])
        assert rep.probe_time == pytest.approx(14.0)
        assert rep.entries[0].beta == 1.5
        assert rep.entries[0].probe_error < rep.entries[1].probe_error


class TestZenoAudit:
    def test_time_based_not_applicable(self):
        traj = run(pair_scenario(horizon=1.0))
        report = zeno_audit(traj)
        assert not report.applicable

    def test_event_based_gaps_at_least_one_step(self):
        scen = pair_scenario(horizon=2.0, algorithm="event_based",
                             trigger=default_trigger(), start=(2.0, -2.0))
        report = zeno_audit(run(scen))
        assert report.applicable and report.passed
        assert all(c < 2001 for c in report.counts)

    def test_hair_trigger_fires_densely_but_never_below_grid(self):
        # zero thresholds, vanishing eta, fast decay: fires at every chance,
        # yet the grid-limited gap floor of one step still holds
        hair = default_trigger(sigma_g=1e12, sigma_h=1e12, theta_g=0.0,
                               theta_h=0.0, k_g=10.0, k_h=10.0,
                               eta_g0=1e-12, eta_h0=1e-12)
        scen = pair_scenario(horizon=1.0, algorithm="event_based",
                             trigger=hair, start=(2.0, -2.0))
        sparse = pair_scenario(horizon=1.0, algorithm="event_based",
                               trigger=default_trigger(), start=(2.0, -2.0))
        dense_report = zeno_audit(run(scen))
        sparse_report = zeno_audit(run(sparse))
        assert dense_report.passed
        assert all(g >= 1e-3 * (1 - 1e-9) for g in dense_report.min_gaps)
        assert sum(dense_report.counts) > sum(sparse_report.counts)


def reference_consensus_errors(weights, s, y, silenced):
    """Per-agent definition: ``a_row @ (s[i] - s)``, zero rows when silenced."""
    mask = np.broadcast_to(silenced, (s.shape[0],))
    e_s = np.zeros_like(s)
    e_y = np.zeros_like(y)
    for i, a_row in enumerate(weights):
        if not mask[i]:
            e_s[i] = a_row @ (s[i] - s)
            e_y[i] = a_row @ (y[i] - y)
    return e_s, e_y


class TestConsensusErrorsMatchPerAgentDefinition:
    def test_bundled_graphs(self, bundled_process):
        rng = np.random.default_rng(3)
        masks = (False, True, np.array([False, True, False]))
        for q, silenced, g in itertools.product((1, 2), masks,
                                                bundled_process.graphs):
            s = rng.standard_normal((3, q))
            y = rng.standard_normal((3, q))
            e_s, e_y = consensus_errors(laplacian(g), s, y, silenced)
            ref_s, ref_y = reference_consensus_errors(g.weights, s, y, silenced)
            np.testing.assert_allclose(e_s, ref_s, atol=1e-12)
            np.testing.assert_allclose(e_y, ref_y, atol=1e-12)
            zero_rows = np.broadcast_to(silenced, (3,))
            assert np.all(e_s[zero_rows] == 0.0) and np.all(e_y[zero_rows] == 0.0)
