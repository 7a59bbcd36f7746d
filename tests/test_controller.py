import math

import numpy as np
import pytest

from resopt.attack import AttackSchedule
from resopt.controller import (AlgorithmParams, TriggerParams, consensus_errors,
                               eta_flow, eta_step, firing, trigger_functions,
                               trigger_threshold)
from resopt.cost import CostSpec
from resopt.errors import ValidationError
from resopt.graph import GraphProcess, WeightedDigraph, laplacian
from resopt.plant import AgentModel
from resopt.sim import InitialCondition, Scenario, run


def trigger_params(**kw):
    base = dict(sigma_g=2.0, sigma_h=2.0, theta_g=0.2, theta_h=0.2,
                delta_g=0.5, delta_h=0.5, k_g=1.0, k_h=1.0,
                eta_g0=1.0, eta_h0=1.0, dwell_kappa=0.1)
    base.update(kw)
    return TriggerParams(**base)


def lap(weights):
    return laplacian(WeightedDigraph(np.asarray(weights, dtype=float)))


def column(*values):
    return np.array(values, dtype=float).reshape(-1, 1)


def table(y, s):
    """The stacked (2, N, q) table of ``y`` over ``s``."""
    return np.array([y, s], dtype=float)


class TestTimeBasedErrors:
    def test_attacked_branch_exact_zero(self):
        s = column(4.0, 6.0)
        y = column(5.0, 6.0)
        errs = consensus_errors(lap([[0.0, 1.0], [1.0, 0.0]]), table(y, s), True)
        assert np.array_equal(errs, np.zeros((2, 2, 1)))

    def test_consensus_fixed_point(self):
        s = np.full((3, 1), 1.0)
        y = np.full((3, 1), 0.5)
        errs = consensus_errors(lap(np.ones((3, 3)) - np.eye(3)), table(y, s), False)
        np.testing.assert_allclose(errs, 0.0)

    def test_two_agent_output_error(self):
        s = np.zeros((2, 1))
        y = column(1.0, 0.0)
        # a_12 = 1: agent 1 hears agent 2
        e_y, _ = consensus_errors(lap([[0.0, 1.0], [0.0, 0.0]]), table(y, s), False)
        assert e_y[0, 0] == pytest.approx(1.0)


class TestEventBasedErrors:
    def test_attacked_governing_attempt(self):
        # agent 0's governing attempt was attacked, agents 1-2 were not
        hats = column(1.0, 1.5, 1.5)
        weights = np.ones((3, 3)) - np.eye(3)
        silenced = np.array([True, False, False])
        e_y, e_s = consensus_errors(lap(weights), table(hats, hats), silenced)
        assert np.array_equal(e_s[0], np.zeros(1))
        assert np.array_equal(e_y[0], np.zeros(1))
        # rows 1 and 2 still see agent 0's broadcast of 1.0
        np.testing.assert_allclose(e_y[1:, 0], 0.5)

    def test_equal_broadcasts(self):
        hats = np.full((3, 1), 1.5)
        weights = np.ones((3, 3)) - np.eye(3)
        errs = consensus_errors(lap(weights), table(hats, hats),
                                np.zeros(3, dtype=bool))
        np.testing.assert_allclose(errs, 0.0)

    def test_broadcast_table_sum(self):
        y_hat = column(2.0, 0.0)
        zeros = np.zeros((2, 1))
        e_y, _ = consensus_errors(lap([[0.0, 1.0], [0.0, 0.0]]), table(y_hat, zeros),
                                  np.zeros(2, dtype=bool))
        assert e_y[0, 0] == pytest.approx(2.0)


def fires(params, s_hat, y_hat, s, y, e_s, e_y, eta_g, eta_h):
    threshold = trigger_threshold(table(column(*e_y), column(*e_s)), params)
    gh = trigger_functions(table(column(*y_hat), column(*s_hat)),
                           table(column(*y), column(*s)), threshold)
    n = gh.shape[1]
    eta = np.array([eta_g, eta_h], dtype=float)
    fired = firing(False, 1.0, gh, eta, False, np.full(n, np.inf), params)
    # a mask with no frozen agent decides the same as ``False``
    masked = firing(False, 1.0, gh, eta, np.zeros(n, dtype=bool),
                    np.full(n, np.inf), params)
    assert fired.tobytes() == masked.tobytes()
    return fired


class TestTriggerCheck:
    def test_fresh_broadcast_never_fires(self):
        fired = fires(trigger_params(), s_hat=[5.0], y_hat=[1.0], s=[5.0],
                      y=[1.0], e_s=[-0.4], e_y=[0.7], eta_g=[1.0], eta_h=[1.0])
        assert not fired[0]

    def test_static_threshold_limit(self):
        params = trigger_params(theta_g=0.0, theta_h=0.0)
        fired = fires(params, s_hat=[0.0], y_hat=[1.0], s=[0.0], y=[0.0],
                      e_s=[0.0], e_y=[0.0], eta_g=[1e-15], eta_h=[1.0])
        assert fired[0]

    def test_numeric_example(self):
        # |e~_y|^2 = 0.5, theta_g |e_y|^2 = 0.1, sigma_g = 2:
        # sigma_g * g = 0.8, fires only once eta_g drops below 0.8; the two
        # rows are the same agent with eta_g = 1.0 and eta_g = 0.5
        params = trigger_params(sigma_g=2.0, theta_g=0.2, sigma_h=2.0,
                                theta_h=0.0)
        r = np.sqrt(0.5)
        fired = fires(params, s_hat=[0.0, 0.0], y_hat=[r, r], s=[0.0, 0.0],
                      y=[0.0, 0.0], e_s=[0.0, 0.0], e_y=[r, r],
                      eta_g=[1.0, 0.5], eta_h=[1e6, 1e6])
        assert list(fired) == [False, True]

    def test_everyone_fires_first(self):
        params = trigger_params()
        gh = np.full((2, 3), -1.0)
        fired = firing(True, 0.0, gh, np.ones((2, 3)), False, np.full(3, np.inf),
                       params)
        assert fired.all()

    def test_rows_use_their_own_sigma(self):
        # row 0 is g with sigma_g = 2, row 1 is h with sigma_h = 0.5
        params = trigger_params(sigma_g=2.0, sigma_h=0.5, k_h=3.0)
        eta = np.ones((2, 2))
        gh = np.array([[1.0, 0.0], [0.0, 1.0]])
        fired = firing(False, 1.0, gh, eta, False, np.full(2, np.inf), params)
        assert list(fired) == [True, False]


class TestDwellScheduling:
    def retries(self, t, attacked_at, params=None):
        params = params or trigger_params()
        big = np.full((2, 1), 1e6)  # would fire at once if not governed by the retry
        return bool(firing(False, t, big, np.ones((2, 1)),
                           np.array([True]), np.array([attacked_at]), params)[0])

    def test_simple_shift(self):
        assert not self.retries(5.1 - 1e-9, 5.0)
        assert self.retries(5.1, 5.0)

    def test_repeated_retries(self):
        t = 5.0
        for k in range(1, 4):
            t_next = 5.0 + 0.1 * k
            assert not self.retries(t_next - 1e-9, t)
            assert self.retries(t_next, t)
            t = t_next


def exact_decay_reference(eta, rate, force, step):
    """The exact flow of the linear ODE ``d eta = -rate eta - force``."""
    decay = math.exp(-rate * step)
    return eta * decay - force * (1.0 - decay) / rate


def step_rows(eta_g, g, frozen, params, step=1e-3):
    """eta_step on one column per agent; the h row mirrors the g row.  With
    no agent frozen, ``False`` and the all-false mask give the same bits."""
    eta = np.array([eta_g, eta_g], dtype=float)
    gh = np.array([g, g], dtype=float)
    flow = eta_flow(params, step)
    mask = np.asarray(frozen, dtype=bool)
    new = eta_step(eta, gh, mask, flow)
    if not mask.any():
        assert eta_step(eta, gh, False, flow).tobytes() == new.tobytes()
    return new


class TestEtaDerivative:
    def test_frozen_under_attack(self):
        eta = [0.1234567890123, 7.0 / 3.0]
        new_g, new_h = step_rows(eta, [5.0, -3.0], [True, True], trigger_params())
        want = np.array(eta).tobytes()
        assert new_g.tobytes() == want and new_h.tobytes() == want

    def test_pure_decay_with_zero_delta(self):
        params = trigger_params(delta_g=0.0, delta_h=0.0)
        new_g, _ = step_rows([2.0, 3.0], [7.0, -7.0], [False, False], params)
        assert new_g[0] == pytest.approx(exact_decay_reference(2.0, 1.0, 0.0, 1e-3))
        assert new_g[1] == pytest.approx(exact_decay_reference(3.0, 1.0, 0.0, 1e-3))

    def test_numeric_example(self):
        # k = 1, delta = 0.5, eta = 2, g = -1: d eta = -1.5; the second row
        # is frozen and keeps its value
        params = trigger_params(k_g=1.0, delta_g=0.5, k_h=1.0, delta_h=0.5)
        new_g, _ = step_rows([2.0, 2.0], [-1.0, -1.0], [False, True], params)
        assert new_g[0] == pytest.approx(exact_decay_reference(2.0, 1.0, -0.5, 1e-3))
        assert (new_g[0] - 2.0) / 1e-3 == pytest.approx(-1.5, rel=1e-3)
        assert new_g[1] == 2.0

    def test_rows_use_their_own_coefficients(self):
        params = trigger_params(k_g=1.0, delta_g=0.5, k_h=3.0, delta_h=0.25)
        new = eta_step(np.full((2, 1), 2.0), np.array([[-1.0], [4.0]]), False,
                       eta_flow(params, 1e-3))
        assert new[0, 0] == pytest.approx(exact_decay_reference(2.0, 1.0, -0.5, 1e-3))
        assert new[1, 0] == pytest.approx(exact_decay_reference(2.0, 3.0, 1.0, 1e-3))

    def test_exact_at_a_stiff_rate(self):
        # k step = 0.2: RK4's Taylor polynomial is off by 3e-6 relative here,
        # the exact flow only by rounding
        params = trigger_params(k_g=200.0, delta_g=0.99, k_h=200.0, delta_h=0.99)
        new_g, _ = step_rows([1.0, 0.5], [1e-3, -2.0], [False, False], params)
        for got, eta, g in zip(new_g, (1.0, 0.5), (1e-3, -2.0)):
            assert got == pytest.approx(
                exact_decay_reference(eta, 200.0, 0.99 * g, 1e-3), rel=1e-14)


class TestTriggerParamsValidation:
    def test_rate_floor(self):
        with pytest.raises(ValidationError, match="k_g"):
            trigger_params(k_g=0.4, delta_g=0.0, sigma_g=2.0)

    def test_theta_range(self):
        with pytest.raises(ValidationError):
            trigger_params(theta_g=1.0)

    def test_positive_initial_values(self):
        with pytest.raises(ValidationError):
            trigger_params(eta_g0=0.0)


def team_run(models, cost, states, attacked=False, horizon=1e-3):
    n = len(models)
    proc = GraphProcess(graphs=(WeightedDigraph(np.ones((n, n)) - np.eye(n)),),
                        generator=[[0.0]], initial_distribution=[1.0])
    schedule = AttackSchedule(intervals=((0.0, horizon),), horizon=horizon) \
        if attacked else None
    init = InitialCondition(mode="explicit", states=states)
    return run(Scenario(agents=tuple(models), costs=(cost,) * n,
                        graph_process=proc, attack_schedule=schedule,
                        algorithm="time_based", params=AlgorithmParams(2.0, 1.0),
                        horizon=horizon, step=1e-3, seed=0, initial=init))


class TestCtrlDerivative:
    """The time-based input ``u = -K x - (U - K X) rho + W theta`` and the
    auxiliary derivatives, read off the integrator's first grid point."""

    def test_equilibrium_of_quartic(self, demo_agents):
        traj = team_run(demo_agents[:1], CostSpec("quartic", (1.0, 2.0, 2.0)),
                        (([0.0, 0.0], [0.0], [0.5]),))
        np.testing.assert_allclose(traj.u[0], 0.0)
        np.testing.assert_allclose(traj.rho[1], 0.0)
        np.testing.assert_allclose(traj.z[1], 0.5)

    def test_attacked_branch_is_pure_gradient_descent(self):
        # two coupled agents in disagreement under attack, constant gradient
        # 1.7: each rho descends at exactly that rate and z holds
        model = AgentModel.build([[0.0]], [[1.0]], [[1.0]], [[1.0]])
        traj = team_run((model, model), CostSpec("custom_polynomial", (0.0, 1.7)),
                        (([1.0], [4.0], [0.5]), ([-1.0], [-2.0], [0.0])),
                        attacked=True)
        np.testing.assert_allclose((traj.rho[1] - traj.rho[0]) / 1e-3, -1.7)
        np.testing.assert_array_equal(traj.z[1], [0.5, 0.0])

    def test_agent_one_arithmetic(self, demo_agents):
        # x = 0, rho = 1, zero errors and gradient:
        # u = -(U - K X) * 1 = [3; 0.75]
        traj = team_run(demo_agents[:1], CostSpec("custom_polynomial", (0.0,)),
                        (([0.0, 0.0], [1.0], [0.5]),))
        np.testing.assert_allclose(traj.u[0], [3.0, 0.75])
        np.testing.assert_allclose(traj.rho[1], 1.0)


class TestEquilibriumConsistency:
    def test_shared_quadratic_equilibrium(self, demo_agents, bundled_process):
        # identical quadratic costs centred at 0.8: every gradient vanishes at
        # the optimum and all consensus errors are zero, so x = X theta,
        # rho = theta is an equilibrium of the integrated closed loop
        target = 0.8
        cost = CostSpec("custom_polynomial", (0.5 * target ** 2, -target, 0.5))
        states = tuple(((model.X @ [target]).reshape(-1), [target], [0.3])
                       for model in demo_agents)
        scen = Scenario(agents=demo_agents, costs=(cost,) * 3,
                        graph_process=bundled_process, attack_schedule=None,
                        algorithm="time_based", params=AlgorithmParams(2.0, 1.0),
                        horizon=2.0, step=1e-3, seed=1,
                        initial=InitialCondition(mode="explicit", states=states))
        traj = run(scen)
        x0 = np.concatenate([s[0] for s in states])
        assert np.abs(traj.x - x0).max() < 1e-9
        assert np.abs(traj.y - target).max() < 1e-9
        assert np.abs(traj.rho - target).max() < 1e-9
        assert np.abs(traj.z - 0.3).max() < 1e-9
