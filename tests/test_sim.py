import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import THETA_STAR, load_workloads, reference_gradient
from resopt.attack import AttackSchedule, activity_series
from resopt.controller import (RETRY_SLACK, AlgorithmParams, TriggerParams,
                               team_law)
from resopt.cost import CostSpec
from resopt.errors import (DivergenceError, InvariantViolatedError,
                           ValidationError)
from resopt.graph import (GraphProcess, WeightedDigraph, laplacian,
                          sample_switching_path)
from resopt.plant import AgentModel
from resopt.sim import (STATE_LIMIT, U_BLOCK, InitialCondition, Scenario,
                        Trajectory, _draw_initial, _stacked, convergence_report,
                        final_spread, run)


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

    @pytest.mark.parametrize("seed", [-1, 1.5, "1", True, None])
    def test_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            bundled_scenario(seed=seed)

    def test_numpy_integer_seed_admitted(self):
        assert bundled_scenario(seed=np.int64(3)).seed == 3

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
        scen = pair_scenario(schedule=sched, horizon=3.0, start=(1.0, -1.0))
        traj = run(scen)
        grid = traj.times
        inside = (grid >= 1.0) & (grid <= 1.5 - scen.step)
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
                      q=1)


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


class TestZenoAudit:
    """Zeno behaviour, read from the report's trigger statistics."""

    def test_time_based_not_applicable(self):
        traj = run(pair_scenario(horizon=1.0))
        stats = convergence_report(traj, 1.0).trigger_stats
        assert [s.count for s in stats] == [0, 0]

    def test_event_based_gaps_at_least_one_step(self):
        scen = pair_scenario(horizon=2.0, algorithm="event_based",
                             trigger=default_trigger(), start=(2.0, -2.0))
        stats = convergence_report(run(scen), 1.0).trigger_stats
        assert all(s.min_gap >= 1e-3 * (1 - 1e-9) for s in stats)
        assert all(s.count < 2001 for s in stats)

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
        dense_stats = convergence_report(run(scen), 1.0).trigger_stats
        sparse_stats = convergence_report(run(sparse), 1.0).trigger_stats
        assert all(s.min_gap >= 1e-3 * (1 - 1e-9) for s in dense_stats)
        assert sum(s.count for s in dense_stats) > sum(s.count for s in sparse_stats)


def reference_consensus_errors(lap, s, y, silenced):
    """The masked product: ``lap @ s`` and ``lap @ y``, with the rows of the
    silenced agents (an (N,) mask, or one flag for the whole team) +0.0."""
    e_s = lap @ s
    e_y = lap @ y
    if np.any(silenced):
        e_s[silenced] = 0.0
        e_y[silenced] = 0.0
    return e_s, e_y


def event_law_part(lap, y, s, silenced, gains, step):
    """``team_law``'s event-based (const, dz), as (N, q) tables, over the
    broadcast table of y over s with the agents in ``silenced`` frozen:
    every agent broadcasts y and s at k = 0, then the silenced ones alone
    drift and attempt under attack at k = 1."""
    n, q = y.shape
    live = np.array([y, s])
    law = team_law(gains, default_trigger(), n, q, step, live,
                   np.zeros((2, 2 * n)), np.zeros((2, n), dtype=bool))
    law(0, lap, False)
    live[:, silenced] += 1e3
    const, dz = law(1, lap, True)
    return np.array(const).reshape(n, q), dz.reshape(n, q)


class TestConsensusErrorsMatchPerAgentDefinition:
    """The consensus part and z increment that ``team_law`` returns, against
    the per-agent errors ``a_row @ (v_i - v)``, and bit for bit against the
    masked product; a silenced agent's part is -0.0 and its increment +0.0,
    which they are only when both its errors are +0.0."""

    def test_bundled_graphs(self, bundled_process):
        rng = np.random.default_rng(3)
        gains, step = AlgorithmParams(2.0, 1.0), 1e-3
        nb, nab = -gains.beta, -(gains.alpha * gains.beta)
        masks = (np.zeros(3, dtype=bool), np.ones(3, dtype=bool),
                 np.array([False, True, False]))
        for q, silenced, g in itertools.product((1, 2), masks,
                                                bundled_process.graphs):
            s = rng.standard_normal((3, q))
            y = rng.standard_normal((3, q))
            lap = laplacian(g)
            const, dz = event_law_part(lap, y, s, silenced, gains, step)
            if not silenced.any() or silenced.all():
                live = np.array([y, s])
                law = team_law(gains, None, 3, q, step, live, None, None)
                time_const, time_dz = law(0, lap, bool(silenced.all()))
                assert np.array(time_const).tobytes() == const.tobytes()
                assert time_dz.tobytes() == dz.tobytes()
            per_agent = [np.where(silenced[:, None], 0.0,
                                  [a_row @ (v[i] - v) for i, a_row in enumerate(g.weights)])
                         for v in (s, y)]
            np.testing.assert_allclose(const, nb * per_agent[0] + nab * per_agent[1],
                                       atol=1e-12)
            np.testing.assert_allclose(dz, -step * (nab * per_agent[1]), atol=1e-12)
            e_s, e_y = reference_consensus_errors(lap, s, y, silenced)
            assert const.tobytes() == (nb * e_s + nab * e_y).tobytes()
            assert dz.tobytes() == (-step * (nab * e_y)).tobytes()
            assert const[silenced].tobytes() == np.full((silenced.sum(), q), -0.0).tobytes()
            assert dz[silenced].tobytes() == np.zeros((silenced.sum(), q)).tobytes()


# --- Byte-identity oracle ----------------------------------------------------
#
# ``reference_run`` is the step loop ``run`` had before its state was fused:
# separate x and rho RK4 stages, a separate RK4 for each trigger variable,
# separate g/h and y/s tables, the trigger functions evaluated twice on
# every step, per-agent gradient closures without folded constants
# (``reference_gradient``), and per-array finiteness guards.  It is kept
# here as the oracle of the lean loop, which must reproduce every
# Trajectory array bit for bit except the trigger variables, which must
# agree to ``ETA_BOUND``.

def _reference_trigger_functions(s_hat, y_hat, s, y, e_s, e_y, trig):
    drift_y = y_hat - y
    drift_s = s_hat - s
    g = (drift_y * drift_y).sum(axis=1) - trig.theta_g * (e_y * e_y).sum(axis=1)
    h = (drift_s * drift_s).sum(axis=1) - trig.theta_h * (e_s * e_s).sum(axis=1)
    return g, h


def _reference_rk4_decay(eta, rate, force, step):
    d1 = -rate * eta - force
    d2 = -rate * (eta + 0.5 * step * d1) - force
    d3 = -rate * (eta + 0.5 * step * d2) - force
    d4 = -rate * (eta + step * d3) - force
    return (step / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)


def reference_run(scenario):
    (m_a, m_bukx, m_bw, c_blk, k_blk, ukx_blk, w_blk), _ = _stacked(scenario)
    nx, nq, pu = m_a.shape[0], c_blk.shape[0], k_blk.shape[0]
    h = scenario.step
    n_steps = scenario.n_steps
    times = np.arange(n_steps + 1) * h
    alpha, beta = scenario.params.alpha, scenario.params.beta
    ab = alpha * beta
    q = scenario.q
    big_n = scenario.n_agents
    event_mode = scenario.algorithm == "event_based"
    path = sample_switching_path(scenario.graph_process, scenario.horizon,
                                 scenario.seed)
    r_series = path.state_at(times)
    if scenario.algorithm == "attack_free" or scenario.attack_schedule is None:
        schedule = AttackSchedule.empty(scenario.horizon)
    else:
        schedule = scenario.attack_schedule
    attack_on = activity_series(schedule, times)
    laplacians = [laplacian(g) for g in scenario.graph_process.graphs]

    # every cost applies its scalar gradient to each of its q coordinates
    fns = [reference_gradient(c) for c in scenario.costs for _ in range(q)]

    def grad_eval(y):
        return np.array([fn(t) for fn, t in zip(fns, y.tolist())])

    x, rho, z = _draw_initial(scenario)
    hist = {name: np.empty((n_steps + 1, width)) for name, width in
            (("x", nx), ("y", nq), ("rho", nq), ("z", nq), ("u", pu))}
    hist_eg = np.zeros((n_steps + 1, big_n))
    hist_eh = np.zeros((n_steps + 1, big_n))
    hist_fired = np.zeros((n_steps + 1, big_n), dtype=bool)
    trig = scenario.trigger
    if event_mode:
        eta_g = np.full(big_n, trig.eta_g0)
        eta_h = np.full(big_n, trig.eta_h0)
        y_hat = np.zeros((big_n, q))
        s_hat = np.zeros((big_n, q))
        attacked_last = np.zeros(big_n, dtype=bool)
        attacked_at = np.full(big_n, math.inf)

    def finish(last, diverged_at):
        fired, on, t = hist_fired[:last + 1], attack_on[:last + 1], times[:last + 1]
        traj = Trajectory(
            times=t, **{name: arr[:last + 1] for name, arr in hist.items()},
            eta_g=hist_eg[:last + 1], eta_h=hist_eh[:last + 1],
            r_state=r_series[:last + 1], attack_on=on,
            events=tuple(t[fired[:, i] & ~on] for i in range(big_n)),
            blocked_attempts=tuple(t[fired[:, i] & on] for i in range(big_n)), q=q)
        if diverged_at is not None:
            raise DivergenceError(diverged_at, traj)
        return traj

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps + 1):
            y = c_blk @ x
            lap = laplacians[r_series[k]]
            attacked = bool(attack_on[k])
            y_m = y.reshape(big_n, q)
            s_m = rho.reshape(big_n, q) + z.reshape(big_n, q)
            if event_mode:
                e_s, e_y = reference_consensus_errors(lap, s_hat, y_hat, attacked_last)
                g, h_val = _reference_trigger_functions(s_hat, y_hat, s_m, y_m,
                                                        e_s, e_y, trig)
                if k == 0:
                    fired = np.ones(big_n, dtype=bool)
                else:
                    triggered = (trig.sigma_g * g > eta_g) | (trig.sigma_h * h_val > eta_h)
                    retry = times[k] >= attacked_at + trig.dwell_kappa - RETRY_SLACK
                    fired = np.where(attacked_last, retry, triggered)
                hist_fired[k] = fired
                if attacked:
                    attacked_at[fired] = times[k]
                else:
                    y_hat[fired] = y_m[fired]
                    s_hat[fired] = s_m[fired]
                attacked_last[fired] = attacked
                e_s, e_y = reference_consensus_errors(lap, s_hat, y_hat, attacked_last)
                g, h_val = _reference_trigger_functions(s_hat, y_hat, s_m, y_m,
                                                        e_s, e_y, trig)
                hist_eg[k] = eta_g
                hist_eh[k] = eta_h
            else:
                e_s, e_y = reference_consensus_errors(lap, s_m, y_m, attacked)

            e_s_flat = e_s.reshape(-1)
            e_y_flat = e_y.reshape(-1)
            const_theta = -beta * e_s_flat - ab * e_y_flat
            dz_const = ab * e_y_flat
            theta0 = -grad_eval(y) + const_theta
            hist["x"][k] = x
            hist["y"][k] = y
            hist["rho"][k] = rho
            hist["z"][k] = z
            hist["u"][k] = -k_blk @ x - ukx_blk @ rho + w_blk @ theta0
            if k == n_steps:
                break

            def rhs(x_s, rho_s):
                theta = -grad_eval(c_blk @ x_s) + const_theta
                return m_a @ x_s - m_bukx @ rho_s + m_bw @ theta, theta

            k1x, k1r = rhs(x, rho)
            k2x, k2r = rhs(x + 0.5 * h * k1x, rho + 0.5 * h * k1r)
            k3x, k3r = rhs(x + 0.5 * h * k2x, rho + 0.5 * h * k2r)
            k4x, k4r = rhs(x + h * k3x, rho + h * k3r)
            x = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            rho = rho + (h / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
            z = z + h * dz_const
            if event_mode:
                eta_g = eta_g + np.where(attacked_last, 0.0, _reference_rk4_decay(
                    eta_g, trig.k_g, trig.delta_g * g, h))
                eta_h = eta_h + np.where(attacked_last, 0.0, _reference_rk4_decay(
                    eta_h, trig.k_h, trig.delta_h * h_val, h))
                if not (np.all(eta_g > 0.0) and np.all(eta_h > 0.0)):
                    t_next = float(times[k + 1])
                    raise InvariantViolatedError("trigger variable lost positivity",
                                                 t_next)
            bad = not (np.all(np.isfinite(x)) and np.all(np.isfinite(rho))
                       and np.all(np.isfinite(z)))
            if not bad:
                bad = max(np.abs(x).max(), np.abs(rho).max(),
                          np.abs(z).max()) > STATE_LIMIT
            if bad:
                return finish(k, float(times[k + 1]))
        return finish(n_steps, None)


TRAJECTORY_ARRAYS = ("times", "x", "y", "rho", "z", "u", "r_state", "attack_on")
ETA_ARRAYS = ("eta_g", "eta_h")
# ``run`` advances the trigger variables with their exact flow, the oracle
# with RK4.  Before the switch, the exact flow placed into the oracle's loop
# moved eta by at most 2.2e-14 on these scenarios (and changed no other bit).
ETA_BOUND = 3e-14


def assert_same_bytes(traj, ref):
    for name in TRAJECTORY_ARRAYS:
        got, want = getattr(traj, name), getattr(ref, name)
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    for name in ETA_ARRAYS:
        got, want = getattr(traj, name), getattr(ref, name)
        assert got.shape == want.shape, name
        assert np.abs(got - want).max(initial=0.0) <= ETA_BOUND, name
    for field in ("events", "blocked_attempts"):
        got, want = getattr(traj, field), getattr(ref, field)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes(), field


def outcome(fn, scenario):
    """(trajectory, error) of a run; a DivergenceError yields its truncated
    trajectory."""
    try:
        return fn(scenario), None
    except DivergenceError as exc:
        return exc.trajectory, exc
    except InvariantViolatedError as exc:
        return None, exc


def scenario_from(doc):
    from resopt.cli import build_scenario
    return build_scenario(doc).scenario


def case3_early_burst(seed=0, horizon=1.5):
    """case3 with a burst from 0.2 s: blocked retries and, with seed 0, two
    graph switches inside 1.5 s."""
    from resopt.cli import preset
    doc = preset("case3")
    doc["sim"].update(horizon=horizon, seed=seed)
    doc["attacks"]["periodic"]["phase"] = 0.2
    return doc


def q2_scenario(algorithm, coefficients=((0.0, -1.0, 0.5, 0.1), (0.0, 0.5, 0.5, 0.1),
                                         (0.0, 2.0, 0.5, 0.1))):
    """Three agents with two-dimensional outputs and a burst at 0.1 s."""
    agent = {"A": [[0.0, 1.0], [0.0, 0.0]], "B": [[1.0, 0.0], [0.0, 1.0]],
             "C": [[1.0, 0.0], [0.0, 1.0]], "K": [[2.0, 1.0], [0.0, 1.5]]}
    ring = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    doc = {
        "agents": [agent] * 3,
        "costs": [{"kind": "custom_polynomial", "parameters": list(c),
                   "dimension": 2} for c in coefficients],
        "graph_process": {"weights": [ring, [row[::-1] for row in ring[::-1]]],
                          "generator": [[-5.0, 5.0], [5.0, -5.0]],
                          "initial_distribution": [1.0, 0.0]},
        "algorithm": algorithm,
        "params": {"alpha": 2.0, "beta": 1.0},
        "attacks": {"intervals": [[0.1, 0.15]]},
        "sim": {"horizon": 0.6, "step": 1e-3, "seed": 4,
                "initial": {"mode": "random", "low": -2.0, "high": 2.0}},
    }
    if algorithm == "event_based":
        doc["params"]["trigger"] = dict(
            sigma_g=10.0, sigma_h=10.0, theta_g=0.05, theta_h=0.05,
            delta_g=0.2, delta_h=0.3, k_g=1.0, k_h=2.0, eta_g0=0.1,
            eta_h0=0.2, dwell_kappa=0.03)
    return scenario_from(doc)


def growing_scenario(x0, n_steps):
    """One agent on the concave cost -50 t^2, whose state grows by 1.43-1.44
    bits a step of 1e-2 s.  The run is linear in x0, so scaling x0 by a power
    of two scales every row exactly."""
    return single_agent_scenario(CostSpec("custom_polynomial", (0.0, 0.0, -50.0)),
                                 x0=x0, horizon=n_steps * 1e-2, step=1e-2)


def diverging_at(row, n_steps):
    """A ``growing_scenario`` whose state first leaves STATE_LIMIT at grid
    point ``row``, the result of step ``row - 1``."""
    probe, _ = outcome(reference_run, growing_scenario(2.0 ** -1000, n_steps))
    peak = np.abs(np.hstack([probe.x, probe.rho, probe.z])).max(1)
    shift = math.floor(math.log2(STATE_LIMIT / peak[:row].max()))
    return growing_scenario(2.0 ** (shift - 1000), n_steps)


def ring16_scenario():
    """The generated 16-agent ring of the ``ring16_bursty_dos`` benchmark
    workload, at its smoke horizon."""
    return scenario_from(load_workloads().ring_document(1, True))


def warmup_scenario(seed):
    """The ``dos_event_based`` benchmark workload's warm-up document (the
    case3 preset at the smoke horizon) for one seed."""
    return scenario_from(load_workloads().dos_event_document(seed, True))


def data_scenario(name):
    """The scenario of a document in ``tests/data``."""
    path = Path(__file__).resolve().parent / "data" / name
    return scenario_from(json.loads(path.read_text()))


def product_inputs(rng, rows, width):
    """Random rows over many magnitudes, with exact and negative zeros."""
    values = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-6, 7, (rows, width))
    values[rng.random((rows, width)) < 0.2] = 0.0
    values[rng.random((rows, width)) < 0.1] = -0.0
    return values


class TestBufferedProductsMatchMatmul:
    """``run`` multiplies into preallocated buffers: ``np.dot(M, v, out)`` in
    the step, and stacked column products ``np.matmul(M, V[:, :, None],
    out=...)`` for u after it.  Both must give ``M @ v`` of every row bit for
    bit (one BLAS gemv per row); a matrix-matrix product or ``einsum`` does
    not.  A numpy or BLAS change that breaks this fails here, with this
    reason, before the trajectories of ``TestLeanLoopMatchesReference`` do."""

    @pytest.mark.parametrize("name", ["case1", "case2", "case3", "ring16"])
    def test_stacked_matrices(self, name):
        from resopt.cli import preset
        scenario = ring16_scenario() if name == "ring16" else scenario_from(preset(name))
        (m_a, m_bukx, m_bw, c_blk, k_blk, ukx_blk, w_blk), _ = _stacked(scenario)
        rng = np.random.default_rng(20261019)
        for mat in (m_a, m_bukx, m_bw, c_blk):
            out = np.empty(mat.shape[0])
            for v in product_inputs(rng, 500, mat.shape[1]):
                np.dot(mat, v, out)
                assert out.tobytes() == (mat @ v).tobytes()
        for mat in (-k_blk, ukx_blk, w_blk):
            # a column block of a wider history, as ``run`` reads it
            history = product_inputs(rng, U_BLOCK, mat.shape[1] + 3)
            columns = history[:, 1:1 + mat.shape[1]]
            out = np.empty((U_BLOCK, mat.shape[0], 1))
            np.matmul(mat, columns[:, :, None], out=out)
            want = np.array([mat @ v for v in columns])
            assert out[:, :, 0].tobytes() == want.tobytes()

    def test_rk4_sum_is_sequential(self):
        # ``run`` adds k1 + 2 k2 + 2 k3 + k4 by one reduce over the rows,
        # onto -0.0, so that a column of negative zeros sums to -0.0
        rng = np.random.default_rng(20261020)
        for width in (2, 3, 9, 64, 151):
            stacks = product_inputs(rng, 2000, width).reshape(500, 4, width)
            stacks[::5, :, 0] = -0.0
            out = np.empty(width)
            for ks in stacks:
                np.add.reduce(ks, 0, out=out, initial=-0.0)
                assert out.tobytes() == (ks[0] + ks[1] + ks[2] + ks[3]).tobytes()


def check_against_reference(scenario):
    """``run``'s outcome, asserted to be ``reference_run``'s: the same error
    type and time, and the same trajectory bytes."""
    traj, err = outcome(run, scenario)
    ref, ref_err = outcome(reference_run, scenario)
    assert type(err) is type(ref_err)
    if err is not None:
        assert err.time == ref_err.time
    if ref is not None:
        assert_same_bytes(traj, ref)
    return traj, err


class TestLeanLoopMatchesReference:
    def test_time_based_with_attack_window(self):
        from resopt.cli import preset
        doc = preset("case2")
        doc["sim"]["horizon"] = 1.0
        doc["attacks"]["periodic"]["phase"] = 0.3
        traj, _ = check_against_reference(scenario_from(doc))
        assert traj.attack_on.any() and not traj.attack_on.all()

    def test_time_based_bursts_on_sixteen_agents(self):
        # the ring16_bursty_dos ring at its smoke horizon: six bursts, on
        # which every attacked step reuses the silenced consensus part
        traj, err = check_against_reference(ring16_scenario())
        assert err is None
        assert np.count_nonzero(np.diff(traj.attack_on.astype(int)) == 1) == 6

    def test_event_based_on_sixteen_agents(self):
        # the ring16 team on the event-triggered law with case3's trigger, as
        # the CI byte gate runs it: bursts every 50 ms, so agents are frozen
        # and retry throughout
        traj, err = check_against_reference(data_scenario("ring16_event.json"))
        assert err is None
        assert sum(map(len, traj.events)) == 389
        assert sum(map(len, traj.blocked_attempts)) == 80

    def test_event_based_retries_and_switches(self):
        traj, _ = check_against_reference(scenario_from(case3_early_burst()))
        assert np.count_nonzero(np.diff(traj.r_state)) >= 1
        assert all(len(b) >= 2 for b in traj.blocked_attempts)
        # most steps are quiet: the trigger values are reused there
        assert sum(len(e) for e in traj.events) < traj.times.size

    @pytest.mark.parametrize("algorithm", ["time_based", "event_based"])
    def test_two_dimensional_outputs(self, algorithm):
        traj, err = check_against_reference(q2_scenario(algorithm))
        assert err is None and traj.q == 2
        assert np.count_nonzero(np.diff(traj.r_state)) >= 1

    @pytest.mark.parametrize("algorithm", ["time_based", "event_based"])
    def test_two_dimensional_outputs_of_mixed_degree(self, algorithm):
        # coefficient counts 4, 3, 4 and 2: the gradients are evaluated in
        # groups, one of them not contiguous, and one gradient is constant
        scenario = q2_scenario(algorithm, ((0.0, -1.0, 0.5, 0.1), (0.3, 0.5, 0.5),
                                           (0.0, 2.0, 0.5, 0.1)))
        traj, err = check_against_reference(scenario)
        assert err is None
        agents = scenario.agents + (scenario.agents[0],)
        costs = scenario.costs + (CostSpec("custom_polynomial", (1.0, -0.5), 2),)
        weights = np.ones((4, 4)) - np.eye(4)
        one_graph = GraphProcess(graphs=(WeightedDigraph(weights),), generator=[[0.0]],
                                 initial_distribution=[1.0])
        _, err = check_against_reference(dataclasses.replace(scenario, agents=agents, costs=costs,
                                                graph_process=one_graph))
        assert err is None

    def test_exp_pair_divergence_truncation(self):
        cost = CostSpec("exp_pair", (-2.0, -0.5, 0.5, 0.3))
        traj, err = check_against_reference(single_agent_scenario(cost, x0=0.0, horizon=5.0))
        assert isinstance(err, DivergenceError)
        assert traj.times[-1] < err.time

    def test_event_based_retry_succeeds(self):
        # a 0.25 s burst from 0.2 s: every agent is frozen by a blocked
        # attempt, then unfrozen by a successful retry well before the end
        doc = case3_early_burst(horizon=0.8)
        doc["attacks"]["periodic"]["active"] = 0.25
        traj, err = check_against_reference(scenario_from(doc))
        assert err is None
        for events, blocked in zip(traj.events, traj.blocked_attempts):
            retries = events[events > blocked[-1]]
            assert len(blocked) >= 1 and retries.size and retries[0] < 0.6

    def test_time_based_divergence_across_u_blocks(self):
        # case1 at twice its step size diverges at t = 2.766 (seed 3): u is
        # filled for whole blocks and a partial one
        from resopt.cli import preset
        doc = preset("case1")
        doc["sim"].update(horizon=3.0, step=2e-3, seed=3)
        traj, err = check_against_reference(scenario_from(doc))
        assert isinstance(err, DivergenceError)
        assert traj.times.size > U_BLOCK and traj.times.size % U_BLOCK

    def test_signed_zeros_of_one_scalar_state(self):
        # np.dot keeps the sign of a 1 x 1 product that ``@`` drops, so a
        # team with one scalar state must multiply with matmul
        proc = GraphProcess(graphs=(WeightedDigraph(np.zeros((1, 1))),),
                            generator=[[0.0]], initial_distribution=[1.0])
        init = InitialCondition(mode="explicit", states=(([-0.0], [-0.0], [-0.0]),))
        traj, _ = check_against_reference(Scenario(
            agents=(scalar_agent(),), costs=(CostSpec("quartic", (1.0, 2.0, 2.0)),),
            graph_process=proc, attack_schedule=None, algorithm="time_based",
            params=AlgorithmParams(2.0, 1.0), horizon=0.01, step=1e-3, seed=0,
            initial=init))
        assert np.signbit(traj.rho).any()

    @pytest.mark.parametrize("row, n_steps", [
        (U_BLOCK, 3 * U_BLOCK),            # the last good row ends a block
        (U_BLOCK + 100, 3 * U_BLOCK),      # inside a block
        (2 * U_BLOCK + 40, 2 * U_BLOCK + 100),  # inside the final partial block
        (2 * U_BLOCK, 2 * U_BLOCK + 100),  # the last full block's last row
    ])
    def test_divergence_found_in_its_block(self, row, n_steps):
        # the guards are checked a block at a time; the steps after the
        # failure are integrated and discarded
        traj, err = check_against_reference(diverging_at(row, n_steps))
        assert isinstance(err, DivergenceError)
        assert err.time == row * 1e-2 and traj.times.size == row

    def test_trigger_positivity_and_divergence_at_one_step(self):
        # one agent has zero consensus errors under either law, so the
        # event-based run has the time-based run's state; at 0.002 s its
        # state leaves the range and, from a drift it did not fire on, its
        # trigger variable turns negative: the trigger variable is reported
        base = single_agent_scenario(CostSpec("custom_polynomial", (0.0, 0.0, -1e5)),
                                     x0=2.0 ** -20, horizon=0.3)
        _, diverged = check_against_reference(base)
        trigger = default_trigger(sigma_g=1e-4, sigma_h=1e-4, delta_g=0.99,
                                  delta_h=0.99, k_g=200.0, k_h=200.0)
        _, err = check_against_reference(dataclasses.replace(base, algorithm="event_based",
                                                trigger=trigger))
        assert isinstance(diverged, DivergenceError)
        assert isinstance(err, InvariantViolatedError)
        assert err.time == diverged.time == 0.002

    def test_event_based_divergence_truncation(self):
        # seed 1 draws initial states that the exp_pair agent cannot absorb
        _, err = check_against_reference(scenario_from(case3_early_burst(seed=1)))
        assert isinstance(err, DivergenceError)

    def test_trigger_positivity_lost(self):
        doc = case3_early_burst(horizon=0.2)
        doc["params"]["trigger"].update(sigma_g=1e-4, sigma_h=1e-4,
                                        delta_g=0.99, delta_h=0.99,
                                        k_g=200.0, k_h=200.0)
        _, err = check_against_reference(scenario_from(doc))
        assert isinstance(err, InvariantViolatedError)


class TestWarmupOutcomes:
    """The ``dos_event_based`` benchmark's warm-up documents (its smoke
    horizon) end as the reference loop ends them: the converging seeds with
    the same bytes, and the seeds whose random initial states diverge within
    the first steps with the same error at the same time.  A benchmark run
    whose warm-up raises prints no result line."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 492])
    def test_converging_seed(self, seed):
        _, err = check_against_reference(warmup_scenario(seed))
        assert err is None

    @pytest.mark.parametrize("seed", [73, 75, 149, 333, 387, 438, 488])
    def test_diverging_seed(self, seed):
        _, err = check_against_reference(warmup_scenario(seed))
        assert isinstance(err, DivergenceError) and 0.001 <= err.time <= 0.004
