import dataclasses
import math

import numpy as np
import pytest

from resopt.attack import AttackSchedule
from resopt.controller import (RETRY_SLACK, AlgorithmParams, TriggerParams, _add_reduce,
                               eta_flow, team_law)
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


def parts(part, n, q=1):
    """A law's returned (const, dz) as (N, q) tables.  With alpha = 2, beta
    = 1 and step 1e-3, const = -e_s - 2 e_y and dz = 2e-3 e_y."""
    return np.array(part[0]).reshape(n, q), part[1].reshape(n, q)


def time_law_part(graph_lap, y, s, attacked=False):
    """The time-based law's (const, dz) on the live table of y over s."""
    live = table(y, s)
    n, q = live.shape[1:]
    law = team_law(AlgorithmParams(2.0, 1.0), None, n, q, 1e-3, live, None, None)
    return parts(law(0, graph_lap, attacked), n, q)


class TestTimeBasedErrors:
    def test_attacked_branch_exact_zero(self):
        s = column(4.0, 6.0)
        y = column(5.0, 6.0)
        const, dz = time_law_part(lap([[0.0, 1.0], [1.0, 0.0]]), y, s, attacked=True)
        assert bits(const) == bits(np.full((2, 1), -0.0))
        assert bits(dz) == bits(np.zeros((2, 1)))

    def test_consensus_fixed_point(self):
        s = np.full((3, 1), 1.0)
        y = np.full((3, 1), 0.5)
        const, dz = time_law_part(complete(3), y, s)
        np.testing.assert_allclose(const, 0.0)
        np.testing.assert_allclose(dz, 0.0)

    def test_two_agent_output_error(self):
        s = np.zeros((2, 1))
        y = column(1.0, 0.0)
        # a_12 = 1: agent 1 hears agent 2, so e_y = (1, 0)
        const, dz = time_law_part(lap([[0.0, 1.0], [0.0, 0.0]]), y, s)
        assert const[:, 0] == pytest.approx([-2.0, 0.0])
        assert dz[:, 0] == pytest.approx([2e-3, 0.0])


class TestEventBasedErrors:
    """The event law's (const, dz) over the broadcast table that every
    agent's first broadcast fills."""

    def test_attacked_governing_attempt(self):
        # agent 0's governing attempt was attacked, agents 1-2's were not
        hats = column(1.0, 1.5, 1.5)
        run = Lockstep(trigger_params(), n=3, lap=complete(3))
        run.step(hats, hats, 0.0)
        assert run.step(hats + column(1e3, 0.0, 0.0), hats, 1e-3, attacked=True) == [0]
        const, dz = parts(run.part, 3)
        assert bits(const[0]) == bits([-0.0]) and bits(dz[0]) == bits([0.0])
        # rows 1 and 2 still see agent 0's broadcast of 1.0: e_y = e_s = 0.5
        np.testing.assert_allclose(const[1:, 0], -1.5)
        np.testing.assert_allclose(dz[1:, 0], 1e-3)

    def test_equal_broadcasts(self):
        hats = np.full((3, 1), 1.5)
        run = Lockstep(trigger_params(), n=3, lap=complete(3))
        run.step(hats, hats, 0.0)
        const, dz = parts(run.part, 3)
        np.testing.assert_allclose(const, 0.0)
        np.testing.assert_allclose(dz, 0.0)

    def test_broadcast_table_sum(self):
        y_hat = column(2.0, 0.0)
        run = Lockstep(trigger_params(), n=2, lap=lap([[0.0, 1.0], [0.0, 0.0]]))
        run.step(y_hat, np.zeros((2, 1)), 0.0)
        const, dz = parts(run.part, 2)
        assert const[0, 0] == pytest.approx(-4.0)
        assert dz[0, 0] == pytest.approx(4e-3)


def complete(n):
    """The Laplacian of n agents that all hear each other with weight 1."""
    return lap(np.ones((n, n)) - np.eye(n))


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class NumpyTrigger:
    """The event trigger as numpy expressions over the stacked (2, N, q) and
    (2, N) tables, with the integrator's bookkeeping around them: the
    thresholds, trigger functions, firing rule and eta flow that
    ``team_law``'s event-based law compiles, written out as its oracle."""

    def __init__(self, params, gains, n, q, step):
        self.params = params
        self.sigmas = np.array([[params.sigma_g], [params.sigma_h]])
        self.thetas = np.array([[params.theta_g], [params.theta_h]])
        self.neg_gains = np.array([[-(gains.alpha * gains.beta)], [-gains.beta]])
        self.neg_h = -step
        self.flow = eta_flow(params, step)
        self.eta = np.array([np.full(n, params.eta_g0), np.full(n, params.eta_h0)])
        self.hats = np.zeros((2, n, q))
        self.frozen = np.zeros(n, dtype=bool)
        self.attacked_at = np.full(n, math.inf)
        self.threshold = None

    def refresh(self, lap):
        """The consensus part of theta and z's increment from the masked
        product, the frozen agents' errors +0.0; sets the thresholds."""
        errs = np.matmul(lap, self.hats)
        errs[:, self.frozen] = 0.0
        self.threshold = self.thetas * np.add.reduce(errs * errs, 2)
        pn = self.neg_gains * errs.reshape(2, -1)
        return (pn[1] + pn[0]).tolist(), self.neg_h * pn[0]

    def trigger_functions(self, live):
        drift = self.hats - live
        return np.add.reduce(drift * drift, 2) - self.threshold

    def step(self, live, t, k, attacked, lap):
        """(fired mask, eta at this grid point, the refresh after a firing or
        None); advances eta."""
        gh = self.trigger_functions(live)
        if k == 0:
            fired = np.ones(self.frozen.size, dtype=bool)
        else:
            triggered = np.logical_or.reduce(self.sigmas * gh > self.eta, 0)
            retry = t >= self.attacked_at + self.params.dwell_kappa - RETRY_SLACK
            fired = np.where(self.frozen, retry, triggered)
        eta, part = self.eta, None
        if fired.any():
            self.frozen[fired] = attacked
            if attacked:
                self.attacked_at[fired] = t
            else:
                np.copyto(self.hats, live, where=fired[:, None])
            part = self.refresh(lap)
            gh = self.trigger_functions(live)
        decay, gain = self.flow
        self.eta = np.where(self.frozen, eta, decay * eta - gain * gh)
        return fired, eta, part


class GridPoint(int):
    """Grid point ``k`` whose time ``k * step`` is ``t``: the law computes its
    time as that product, which lets a test place a grid point at any t."""

    def __new__(cls, k, t):
        point = super().__new__(cls, k)
        point.t = t
        return point

    def __mul__(self, step):
        return self.t


class Lockstep:
    """``team_law``'s event-based law and ``NumpyTrigger`` driven through the
    same grid points, and asserted equal bit for bit at each: the fired
    agents, the eta row written, and the consensus part and z increment the
    law returns."""

    def __init__(self, params, n=1, q=1, lap=None, step=1e-3, rows=400):
        gains = AlgorithmParams(2.0, 1.0)
        self.n, self.q, self.k = n, q, 0
        self.rows = np.zeros((rows, 2 * n))
        self.fired = np.zeros((rows, n), dtype=bool)
        self.live = np.zeros((2, n, q))
        self.law = team_law(gains, params, n, q, step, self.live, self.rows, self.fired)
        self.numpy = NumpyTrigger(params, gains, n, q, step)
        self.lap = np.zeros((n, n)) if lap is None else lap
        self.table_lap = self.part = None

    def step(self, y, s, t, attacked=False, lap=None):
        """One grid point at time ``t`` with live outputs ``y`` and rho + z
        ``s``, each (N, q) or (N,); returns the agents that attempt a
        broadcast."""
        lap = self.lap if lap is None else lap
        self.live[:] = np.array([y, s], dtype=float).reshape(2, self.n, self.q)
        if lap is not self.table_lap:
            self.part = self.numpy.refresh(lap)
            self.table_lap = lap
        got = self.law(GridPoint(self.k, t), lap, attacked)
        want, eta, part = self.numpy.step(self.live, t, self.k, attacked, lap)
        assert self.rows[self.k].tobytes() == eta.tobytes()
        fired = np.flatnonzero(self.fired[self.k]).tolist()
        assert fired == np.flatnonzero(want).tolist()
        want_part = self.part if part is None else part
        assert bits(got[0]) == bits(want_part[0]) and got[1].tobytes() == want_part[1].tobytes()
        self.part = got
        self.k += 1
        return fired

    def eta(self):
        """The (2, N) trigger variables the next grid point starts from, read
        from the law's state (its namespace) and checked against numpy's."""
        got = np.array(self.law.__globals__["eta"]).reshape(2, self.n)
        assert got.tobytes() == self.numpy.eta.tobytes()
        return got


class TestTriggerCheck:
    def test_fresh_broadcast_never_fires(self):
        # right after a successful broadcast both drifts are zero and eta is
        # positive
        rng = np.random.default_rng(3)
        for q in (1, 2, 3) * 10:
            run = Lockstep(trigger_params(), n=3, q=q, lap=complete(3))
            y, s = rng.standard_normal((2, 3, q))
            assert run.step(y, s, 0.0) == [0, 1, 2]
            assert run.step(y, s, 1e-3) == []

    def test_static_threshold_limit(self):
        params = trigger_params(theta_g=0.0, theta_h=0.0, eta_g0=1e-15)
        run = Lockstep(params)
        run.step([0.0], [0.0], 0.0)
        assert run.step([1e-6], [0.0], 1e-3) == [0]

    def test_numeric_example(self):
        # |e~_y|^2 = 0.5, theta_g |e_y|^2 = 0.1, sigma_g = 2: sigma_g * g =
        # 0.8, so an agent fires only once eta_g has dropped below 0.8; the two
        # runs differ only in eta_g0, 1.0 and 0.5
        r = math.sqrt(0.5)
        fired = []
        for eta_g0 in (1.0, 0.5):
            params = trigger_params(sigma_g=2.0, theta_g=0.2, theta_h=0.0,
                                    eta_g0=eta_g0, eta_h0=1e6)
            run = Lockstep(params, n=2, lap=complete(2))
            run.step([r, 0.0], [0.0, 0.0], 0.0)  # e_y = (r, -r)
            fired.append(run.step([0.0, r], [0.0, 0.0], 1e-3))
        assert fired == [[], [0, 1]]

    def test_tie_does_not_fire(self):
        # sigma_g g equal to eta_g does not fire, one ulp more drift does
        # (no edges and delta_g = 0, so eta_g after the first step is
        # decay * eta_g0 and g the squared drift)
        params = trigger_params(sigma_g=1.0, delta_g=0.0, k_g=2.0)
        decay = eta_flow(params, 1e-3)[0][0, 0]
        eta_g0 = 0.25 / decay
        for _ in range(8):
            if decay * eta_g0 != 0.25:
                eta_g0 = np.nextafter(eta_g0, math.inf if decay * eta_g0 < 0.25 else 0.0)
        assert decay * eta_g0 == 0.25
        for drift, fired in ((0.5, []), (float(np.nextafter(0.5, 1.0)), [0])):
            run = Lockstep(dataclasses.replace(params, eta_g0=float(eta_g0)))
            run.step([0.0], [0.0], 0.0)
            assert run.step([drift], [0.0], 1e-3) == fired

    def test_everyone_fires_first(self):
        for attacked in (False, True):
            run = Lockstep(trigger_params(), n=3, lap=complete(3))
            assert run.step(np.zeros(3), np.zeros(3), 0.0, attacked) == [0, 1, 2]

    def test_rows_use_their_own_sigma(self):
        # row 0 is g with sigma_g = 2, row 1 is h with sigma_h = 0.5: a unit
        # drift of y fires agent 0, a unit drift of rho + z does not fire
        # agent 1 (no edges, so zero thresholds)
        params = trigger_params(sigma_g=2.0, sigma_h=0.5, k_h=3.0)
        run = Lockstep(params, n=2)
        run.step([0.0, 0.0], [0.0, 0.0], 0.0)
        assert run.step([1.0, 0.0], [0.0, 1.0], 1e-3) == [0]


class TestDwellScheduling:
    """An agent whose attempt at t_a fell under attack is frozen: whatever its
    drift, it attempts again once t reaches t_a + dwell_kappa (0.1 here)."""

    @staticmethod
    def frozen_at(t_a):
        run = Lockstep(trigger_params())
        run.step([0.0], [0.0], t_a - 1.0)
        assert run.step([1e3], [0.0], t_a, attacked=True) == [0]
        return run

    def test_simple_shift(self):
        run = self.frozen_at(5.0)
        assert run.step([1e3], [0.0], 5.1 - 1e-9) == []
        assert run.step([1e3], [0.0], 5.1) == [0]

    def test_repeated_retries(self):
        run = self.frozen_at(5.0)
        for k in range(1, 4):
            t_next = 5.0 + 0.1 * k
            assert run.step([1e3], [0.0], t_next - 1e-9, attacked=True) == []
            assert run.step([1e3], [0.0], t_next, attacked=True) == [0]

    def test_retry_at_the_boundary(self):
        # the retry time is (t_a + dwell_kappa) - RETRY_SLACK, to the bit (at
        # t_a = 0.05, t_a + (dwell_kappa - RETRY_SLACK) is one ulp less), and
        # a frozen agent with no drift retries too
        t_a = 0.05
        boundary = t_a + 0.1 - RETRY_SLACK
        run = self.frozen_at(t_a)
        assert run.step([1e3], [0.0], float(np.nextafter(boundary, 0.0))) == []
        assert run.step([0.0], [0.0], boundary) == [0]


def exact_decay_reference(eta, rate, force, step):
    """The exact flow of the linear ODE ``d eta = -rate eta - force``."""
    decay = math.exp(-rate * step)
    return eta * decay - force * (1.0 - decay) / rate


class TestEtaDerivative:
    """eta takes the exact flow of ``d eta = -k eta - delta gh`` over a step.
    Right after the first broadcast both drifts are zero, so on two agents
    that hear each other with outputs +-1, g = -theta_g |e_y|^2 = -4 theta_g
    and h = 0."""

    def test_frozen_under_attack(self):
        params = trigger_params(eta_g0=0.1234567890123, eta_h0=7.0 / 3.0)
        run = Lockstep(params, n=2, lap=complete(2))
        run.step([1.0, -1.0], [0.0, 0.0], 0.0)
        before = run.eta()
        assert run.step([5.0, -3.0], [0.0, 0.0], 1e-3, attacked=True) == [0, 1]
        assert run.eta().tobytes() == before.tobytes()

    def test_pure_decay_with_zero_delta(self):
        params = trigger_params(delta_g=0.0, delta_h=0.0, eta_g0=2.0, eta_h0=3.0)
        run = Lockstep(params, n=2, lap=complete(2))
        run.step([7.0, -7.0], [0.0, 0.0], 0.0)
        eta_g, eta_h = run.eta()
        assert eta_g == pytest.approx([exact_decay_reference(2.0, 1.0, 0.0, 1e-3)] * 2)
        assert eta_h == pytest.approx([exact_decay_reference(3.0, 1.0, 0.0, 1e-3)] * 2)

    def test_numeric_example(self):
        # k = 1, delta = 0.5, eta = 2, g = -1 (theta_g = 0.25): d eta = -1.5.
        # Then agent 1's attempt falls under attack: it keeps its value, and
        # agent 0, whose errors the attempt leaves alone, flows on
        params = trigger_params(k_g=1.0, delta_g=0.5, theta_g=0.25, eta_g0=2.0)
        run = Lockstep(params, n=2, lap=complete(2))
        run.step([1.0, -1.0], [0.0, 0.0], 0.0)
        new_g = run.eta()[0]
        assert new_g[0] == pytest.approx(exact_decay_reference(2.0, 1.0, -0.5, 1e-3))
        assert (new_g[0] - 2.0) / 1e-3 == pytest.approx(-1.5, rel=1e-3)
        assert run.step([1.0, 5.0], [0.0, 0.0], 1e-3, attacked=True) == [1]
        after = run.eta()[0]
        assert after[0] == pytest.approx(exact_decay_reference(new_g[0], 1.0, -0.5, 1e-3))
        assert after[1] == new_g[1]

    def test_rows_use_their_own_coefficients(self):
        # a quiet step with g = -1 and h = 4: eta_g flows with k_g and
        # delta_g, eta_h with k_h and delta_h
        params = trigger_params(k_g=1.0, delta_g=0.5, k_h=3.0, delta_h=0.25,
                                theta_g=0.25, theta_h=0.0, sigma_h=0.5, eta_h0=10.0)
        run = Lockstep(params, n=2, lap=complete(2))
        run.step([1.0, -1.0], [0.0, 0.0], 0.0)
        eta_g, eta_h = run.eta()
        assert run.step([1.0, -1.0], [2.0, 2.0], 1e-3) == []
        new_g, new_h = run.eta()
        assert new_g == pytest.approx([exact_decay_reference(e, 1.0, -0.5, 1e-3) for e in eta_g])
        assert new_h == pytest.approx([exact_decay_reference(e, 3.0, 1.0, 1e-3) for e in eta_h])

    def test_exact_at_a_stiff_rate(self):
        # k step = 0.2: RK4's Taylor polynomial is off by 3e-6 relative here,
        # the exact flow only by rounding; g = -2 (theta_g = 0.5), h = 0
        params = trigger_params(k_g=200.0, delta_g=0.99, k_h=200.0, delta_h=0.99,
                                theta_g=0.5)
        run = Lockstep(params, n=2, lap=complete(2))
        run.step([1.0, -1.0], [0.0, 0.0], 0.0)
        eta_g, eta_h = run.eta()
        assert eta_g == pytest.approx(
            [exact_decay_reference(1.0, 200.0, 0.99 * -2.0, 1e-3)] * 2, rel=1e-14)
        assert eta_h == pytest.approx(
            [exact_decay_reference(1.0, 200.0, 0.0, 1e-3)] * 2, rel=1e-14)


def random_run(n, q, seed, steps=300):
    """``Lockstep`` over random grid points: live values that drift at scales
    from 1e-4 to 1 a step, so that quiet and firing steps mix, two graphs
    switched every 75 steps, and attacks on 20 of every 100 steps with a
    dwell of 10 steps.  Returns the counts of quiet steps, firings, attacked
    attempts and retries."""
    rng = np.random.default_rng(seed)
    laps = [lap(rng.uniform(0.5, 2.0, (n, n)) * (1.0 - np.eye(n))) for _ in range(2)]
    params = trigger_params(delta_g=0.3, delta_h=0.6, k_h=2.0, dwell_kappa=0.01)
    run = Lockstep(params, n, q, rows=steps)
    y, s = rng.standard_normal((2, n, q))
    times = (np.arange(steps) * 1e-3).tolist()
    counts = dict(quiet=0, firings=0, attacked=0, retries=0)
    for k in range(steps):
        scale = 10.0 ** rng.integers(-4, 1)
        y = y + scale * rng.standard_normal((n, q))
        s = s + scale * rng.standard_normal((n, q))
        attacked = 40 <= k % 100 < 60
        frozen = run.numpy.frozen.copy()
        fired = run.step(y, s, times[k], attacked, laps[k // 75 % 2])
        counts["quiet"] += not fired
        counts["firings"] += len(fired)
        counts["attacked"] += attacked * len(fired)
        counts["retries"] += int(frozen[fired].sum())
    run.eta()
    return counts


class TestTeamTriggerMatchesNumpy:
    @pytest.mark.parametrize("q", [1, 2, 3, 7, 8, 9, 17])
    def test_random_run(self, q):
        counts = random_run(3, q, seed=q)
        assert all(counts.values()), counts

    def test_random_run_on_sixteen_agents(self):
        counts = random_run(16, 1, seed=16)
        assert all(counts.values()), counts

    def test_silenced_rows(self):
        # agents 0 and 2 are frozen by an attacked attempt while agent 1 is
        # not: their consensus errors are zeros, so their part of theta is
        # -0.0 and their z increment +0.0
        run = Lockstep(trigger_params(), n=3, q=2, lap=complete(3))
        y = np.array([[1.0, 2.0], [-1.0, 0.5], [3.0, -2.0]])
        run.step(y, y, 0.0)
        moved = y + [[10.0, 0.0], [0.0, 0.0], [0.0, -10.0]]
        assert run.step(moved, y, 1e-3, attacked=True) == [0, 2]
        const, dz = np.array(run.part[0]).reshape(3, 2), run.part[1].reshape(3, 2)
        assert bits(const[[0, 2]]) == bits(np.full((2, 2), -0.0))
        assert bits(dz[[0, 2]]) == bits(np.zeros((2, 2)))
        assert np.all(const[1] != 0.0)

    def test_frozen_rows_across_a_graph_switch(self):
        # agents 0 and 2 are frozen at 1e-3 and the graph switches at 2e-3,
        # before their retries: the refresh the switch makes zeros their
        # errors again.  const = -e_s - 2 e_y is -0.0 only when both errors
        # are +0.0, and dz = 2e-3 e_y is +0.0 only when e_y is
        run = Lockstep(trigger_params(), n=3, q=2, lap=complete(3))
        y = np.array([[1.0, 2.0], [-1.0, 0.5], [3.0, -2.0]])
        run.step(y, y, 0.0)
        moved = y + [[10.0, 0.0], [0.0, 0.0], [0.0, -10.0]]
        assert run.step(moved, y, 1e-3, attacked=True) == [0, 2]
        switched = lap([[0.0, 2.0, 0.5], [1.0, 0.0, 3.0], [0.25, 4.0, 0.0]])
        for t, graph in ((2e-3, switched), (3e-3, complete(3)), (4e-3, switched)):
            assert run.step(moved, y, t, lap=graph) == []
            const, dz = parts(run.part, 3, 2)
            assert bits(const[[0, 2]]) == bits(np.full((2, 2), -0.0))
            assert bits(dz[[0, 2]]) == bits(np.zeros((2, 2)))
            assert np.all(const[1] != 0.0)

    def test_non_finite_live_values(self):
        # every comparison with nan is false, so a nan drift fires nothing,
        # while an infinite one fires; eta takes numpy's bits either way
        run = Lockstep(trigger_params(), n=3, lap=complete(3))
        run.step([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], 0.0)
        with np.errstate(invalid="ignore"):
            assert run.step([math.nan, 0.0, 0.0], [0.0, 0.0, 0.0], 1e-3) == []
            assert run.step([math.nan, math.inf, 0.0], [0.0, 0.0, -math.inf], 2e-3) == [1, 2]
            run.step([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], 3e-3)
        assert np.isnan(run.eta()).any()

    @pytest.mark.parametrize("length", [*range(1, 20), 31, 32, 33, 127, 128, 129, 136, 300])
    def test_summation_order(self, length):
        # ``_add_reduce``'s sum against np.add.reduce along the last axis of a
        # (2, N, q) table, over squares of many magnitudes, so that any other
        # order shows in the last bits
        rng = np.random.default_rng(length)
        names = [f"x{j}" for j in range(length)]
        expression = compile(_add_reduce(names), "<sum>", "eval")
        table = (rng.standard_normal((2, 3, length))
                 * 10.0 ** rng.integers(-8, 9, (2, 3, length))) ** 2
        want = np.add.reduce(table, 2).ravel()
        got = [eval(expression, dict(zip(names, row))) for row in table.reshape(-1, length).tolist()]
        assert bits(got) == want.tobytes()


class TestTimeBasedLawMatchesNumpy:
    """``team_law``'s time-based law against the numpy expressions of its
    consensus step, bit for bit: ``pn = neg_gains * (lap @ live)``, const =
    ``pn[1] + pn[0]`` and dz = ``-h * pn[0]`` on live tables over many
    magnitudes with exact and negative zeros, and the silenced constant
    (const all -0.0, dz all +0.0) under attack."""

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("n", [1, 3, 16])
    def test_random_tables(self, n, q):
        rng = np.random.default_rng(10 * n + q)
        gains, step = AlgorithmParams(2.0, 1.5), 1e-3
        neg_gains = np.array([[-(gains.alpha * gains.beta)], [-gains.beta]])
        live = np.zeros((2, n, q))
        law = team_law(gains, None, n, q, step, live, None, None)
        # a random graph, and at every seventh point one with no edges,
        # whose errors are exact zeros
        graphs = lap(rng.uniform(0.5, 2.0, (n, n)) * (1.0 - np.eye(n))), np.zeros((n, n))
        for k in range(200):
            live[:] = rng.standard_normal((2, n, q)) * 10.0 ** rng.integers(-6, 7, (2, n, q))
            live[rng.random((2, n, q)) < 0.2] = 0.0
            live[rng.random((2, n, q)) < 0.1] = -0.0
            graph = graphs[1 if k % 7 == 0 else 0]
            const, dz = law(k, graph, False)
            pn = neg_gains * np.matmul(graph, live).reshape(2, n * q)
            assert bits(const) == (pn[1] + pn[0]).tobytes()
            assert dz.tobytes() == (-step * pn[0]).tobytes()
            const, dz = law(k, graph, True)
            assert bits(const) == bits(np.full(n * q, -0.0))
            assert dz.tobytes() == np.zeros(n * q).tobytes()


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
