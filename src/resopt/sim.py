"""Fixed-step switched-system integrator and trajectory analysis.

The closed loop is integrated with the classical 4-stage Runge-Kutta scheme
on a uniform grid.  The hybrid ingredients (active graph, attack on/off,
broadcast tables, trigger decisions) are all resolved at step boundaries and
held constant inside a step, which makes every run a deterministic function
of its scenario:

* the Markov switching path is sampled up front and snapped to the grid by
  evaluating it at each step's left endpoint;
* attack activity is snapped the same way;
* the consensus errors feeding the controllers are recomputed once per
  boundary: from live states in the time-based law (grid points double as
  the synchronous sampling instants) and from the broadcast table in the
  event-based law, so the two laws coincide when the trigger fires at every
  step.

Initial states declared "random" are drawn uniformly from a box with the
scenario's seeded generator (PCG64, ``low + (high-low) * u``), agent by
agent in the order x_i, rho_i, z_i.  States are aborted (with the truncated
trajectory attached to the error) once anything leaves [-1e9, 1e9] or stops
being finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .attack import AttackSchedule, activity_series
from .controller import (AlgorithmParams, TriggerParams, consensus_errors,
                         eta_step, firing, trigger_functions)
from .cost import CostSpec, gradient
from .errors import DivergenceError, InvariantViolatedError, ValidationError
from .graph import GraphProcess, SwitchingPath, laplacian, sample_switching_path, \
    stationary_weighting

ALGORITHMS = ("attack_free", "time_based", "event_based")
STATE_LIMIT = 1e9
LOG_FLOOR = 1e-15


@dataclass(frozen=True)
class InitialCondition:
    """Either a uniform random box or explicit per-agent (x, rho, z) values."""

    mode: str = "random"
    low: float = -10.0
    high: float = 10.0
    states: tuple = ()

    def __post_init__(self):
        if self.mode not in ("random", "explicit"):
            raise ValidationError("initial condition mode must be random or explicit")
        if self.mode == "random" and not self.high > self.low:
            raise ValidationError("random initial box needs high > low")
        if self.mode == "explicit" and not self.states:
            raise ValidationError("explicit initial condition needs per-agent states")


@dataclass(frozen=True)
class Scenario:
    """Everything a run depends on; equal scenarios produce identical output."""

    agents: tuple
    costs: tuple
    graph_process: GraphProcess
    attack_schedule: AttackSchedule | None
    algorithm: str
    params: AlgorithmParams
    horizon: float
    step: float
    seed: int
    initial: InitialCondition = InitialCondition()
    trigger: TriggerParams | None = None

    def __post_init__(self):
        agents = tuple(self.agents)
        costs = tuple(self.costs)
        if self.algorithm not in ALGORITHMS:
            raise ValidationError(f"algorithm must be one of {ALGORITHMS}")
        n_agents = len(agents)
        if n_agents == 0:
            raise ValidationError("scenario needs at least one agent")
        if len(costs) != n_agents:
            raise ValidationError("need exactly one cost per agent")
        if self.graph_process.n_vertices != n_agents:
            raise ValidationError("graph vertex count must match the agent count")
        q = agents[0].q
        if any(m.q != q for m in agents) or any(c.dimension != q for c in costs):
            raise ValidationError("all agents and costs must share the output dimension")
        if not self.step > 0.0:
            raise ValidationError("step must be positive")
        if not self.horizon >= self.step:
            raise ValidationError("horizon must be at least one step")
        n_steps = round(self.horizon / self.step)
        if abs(n_steps * self.step - self.horizon) > 1e-6 * max(1.0, self.horizon):
            raise ValidationError("horizon must be an integer multiple of step")
        if self.algorithm == "event_based" and self.trigger is None:
            raise ValidationError("event_based scenarios need trigger parameters")
        if self.algorithm == "attack_free" and self.attack_schedule is not None \
                and self.attack_schedule.intervals:
            raise ValidationError("attack_free scenarios cannot carry attack intervals")
        if self.initial.mode == "explicit" and len(self.initial.states) != n_agents:
            raise ValidationError("explicit initial condition must cover every agent")
        object.__setattr__(self, "agents", agents)
        object.__setattr__(self, "costs", costs)

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @property
    def q(self) -> int:
        return self.agents[0].q

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.step)


@dataclass
class Trajectory:
    """Grid-sampled closed-loop run plus event bookkeeping."""

    times: np.ndarray
    x: np.ndarray          # (n+1, total state dim), agent blocks side by side
    y: np.ndarray          # (n+1, N*q)
    rho: np.ndarray        # (n+1, N*q)
    z: np.ndarray          # (n+1, N*q)
    u: np.ndarray          # (n+1, total input dim)
    eta_g: np.ndarray      # (n+1, N); zeros unless event_based
    eta_h: np.ndarray
    r_state: np.ndarray    # active graph index per grid point
    attack_on: np.ndarray  # attack activity per grid point
    events: tuple          # per-agent successful broadcast times
    blocked_attempts: tuple
    switching: SwitchingPath
    algorithm: str
    step: float
    q: int
    state_slices: tuple
    input_slices: tuple

    def y_per_agent(self) -> np.ndarray:
        """Outputs reshaped to (n+1, N, q)."""
        n = self.y.shape[0]
        return self.y.reshape(n, -1, self.q)


def _scalar_gradient_fn(cost: CostSpec):
    """Overflow-tolerant scalar gradient closure (q = 1 fast path)."""
    p = cost.parameters

    def safe_exp(v: float) -> float:
        return math.exp(v) if v < 700.0 else math.inf

    if cost.kind == "exp_pair":
        c1, r1, c2, r2 = p
        return lambda t: c1 * r1 * safe_exp(r1 * t) + c2 * r2 * safe_exp(r2 * t)
    if cost.kind == "quartic":
        a, b = p[0], p[1]
        return lambda t: 4.0 * a * t * t * t + 2.0 * b * t
    if cost.kind == "log_quadratic":
        a, b = p[0], p[1]

        def grad_lq(t: float) -> float:
            t2 = t * t
            return (2.0 * a * t * math.log1p(t2)
                    + 2.0 * a * t * t2 / (1.0 + t2) + 2.0 * b * t)

        return grad_lq
    coeffs = p

    def grad_poly(t: float) -> float:
        acc = 0.0
        power = 1.0
        for k in range(1, len(coeffs)):
            acc += k * coeffs[k] * power
            power *= t
        return acc

    return grad_poly


class _Stacked:
    """Precomputed block matrices of the stacked closed loop."""

    def __init__(self, scenario: Scenario):
        agents = scenario.agents
        q = scenario.q
        big_n = scenario.n_agents
        dims = [m.n for m in agents]
        pdims = [m.p for m in agents]
        self.nx = sum(dims)
        self.pu = sum(pdims)
        self.nq = big_n * q
        self.state_slices = []
        self.input_slices = []
        off = 0
        for d in dims:
            self.state_slices.append((off, off + d))
            off += d
        off = 0
        for d in pdims:
            self.input_slices.append((off, off + d))
            off += d

        self.m_a = np.zeros((self.nx, self.nx))
        self.m_bukx = np.zeros((self.nx, self.nq))
        self.m_bw = np.zeros((self.nx, self.nq))
        self.c_blk = np.zeros((self.nq, self.nx))
        self.k_blk = np.zeros((self.pu, self.nx))
        self.ukx_blk = np.zeros((self.pu, self.nq))
        self.w_blk = np.zeros((self.pu, self.nq))
        for i, m in enumerate(agents):
            r0, r1 = self.state_slices[i]
            u0, u1 = self.input_slices[i]
            c0, c1 = i * q, (i + 1) * q
            ukx = m.U - m.K @ m.X
            self.m_a[r0:r1, r0:r1] = m.A - m.B @ m.K
            self.m_bukx[r0:r1, c0:c1] = m.B @ ukx
            self.m_bw[r0:r1, c0:c1] = m.B @ m.W
            self.c_blk[c0:c1, r0:r1] = m.C
            self.k_blk[u0:u1, r0:r1] = m.K
            self.ukx_blk[u0:u1, c0:c1] = ukx
            self.w_blk[u0:u1, c0:c1] = m.W

        if q == 1:
            fns = [_scalar_gradient_fn(c) for c in scenario.costs]

            def grad_eval(y: np.ndarray) -> np.ndarray:
                return np.array([fn(t) for fn, t in zip(fns, y)])
        else:
            costs = scenario.costs

            def grad_eval(y: np.ndarray) -> np.ndarray:
                if not np.all(np.isfinite(y)):
                    return np.full_like(y, np.nan)
                return np.concatenate(
                    [gradient(c, y[i * q:(i + 1) * q]) for i, c in enumerate(costs)])

        self.grad_eval = grad_eval


def _draw_initial(scenario: Scenario):
    q = scenario.q
    if scenario.initial.mode == "explicit":
        xs, rhos, zs = [], [], []
        for i, entry in enumerate(scenario.initial.states):
            x_i = np.asarray(entry[0], dtype=float).reshape(-1)
            rho_i = np.asarray(entry[1], dtype=float).reshape(-1)
            z_i = np.asarray(entry[2], dtype=float).reshape(-1)
            if x_i.shape != (scenario.agents[i].n,) or rho_i.shape != (q,) \
                    or z_i.shape != (q,):
                raise ValidationError(f"explicit initial state {i} has wrong shape")
            xs.append(x_i)
            rhos.append(rho_i)
            zs.append(z_i)
        return np.concatenate(xs), np.concatenate(rhos), np.concatenate(zs)
    gen = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(scenario.seed, spawn_key=(1,))))
    lo, hi = scenario.initial.low, scenario.initial.high
    span = hi - lo
    xs, rhos, zs = [], [], []
    for m in scenario.agents:
        xs.append(lo + span * gen.random(m.n))
        rhos.append(lo + span * gen.random(q))
        zs.append(lo + span * gen.random(q))
    return np.concatenate(xs), np.concatenate(rhos), np.concatenate(zs)


def run(scenario: Scenario) -> Trajectory:
    """Integrate the scenario; deterministic given the scenario (incl. seed).

    Raises DivergenceError (with the truncated trajectory attached) when any
    state leaves the finite range, InvariantViolatedError when an
    event-triggered run's trigger variable stops being positive, and
    AssumptionViolatedError when the graph process fails the
    joint-connectivity hypothesis.
    """
    stationary_weighting(scenario.graph_process)  # Assumption check, result unused
    st = _Stacked(scenario)
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

    x, rho, z = _draw_initial(scenario)
    hist_x = np.empty((n_steps + 1, st.nx))
    hist_y = np.empty((n_steps + 1, st.nq))
    hist_rho = np.empty((n_steps + 1, st.nq))
    hist_z = np.empty((n_steps + 1, st.nq))
    hist_u = np.empty((n_steps + 1, st.pu))
    hist_eg = np.zeros((n_steps + 1, big_n))
    hist_eh = np.zeros((n_steps + 1, big_n))
    # Broadcast attempts per grid point; with attack_on they give the
    # successful and the blocked attempts of every agent.
    hist_fired = np.zeros((n_steps + 1, big_n), dtype=bool)

    trig = scenario.trigger
    if event_mode:
        eta_g = np.full(big_n, trig.eta_g0)
        eta_h = np.full(big_n, trig.eta_h0)
        y_hat = np.zeros((big_n, q))       # each agent's last successful broadcast
        s_hat = np.zeros((big_n, q))       # of y and of rho + z
        attacked_last = np.zeros(big_n, dtype=bool)
        attacked_at = np.full(big_n, math.inf)

    grad_eval = st.grad_eval
    m_a, m_bukx, m_bw, c_blk = st.m_a, st.m_bukx, st.m_bw, st.c_blk

    def finish(last: int, diverged_at: float | None):
        fired, on, t = hist_fired[:last + 1], attack_on[:last + 1], times[:last + 1]
        traj = Trajectory(
            times=t, x=hist_x[:last + 1], y=hist_y[:last + 1],
            rho=hist_rho[:last + 1], z=hist_z[:last + 1], u=hist_u[:last + 1],
            eta_g=hist_eg[:last + 1], eta_h=hist_eh[:last + 1],
            r_state=r_series[:last + 1], attack_on=on,
            events=tuple(t[fired[:, i] & ~on] for i in range(big_n)),
            blocked_attempts=tuple(t[fired[:, i] & on] for i in range(big_n)),
            switching=path, algorithm=scenario.algorithm, step=h, q=q,
            state_slices=tuple(st.state_slices),
            input_slices=tuple(st.input_slices))
        if diverged_at is not None:
            raise DivergenceError(diverged_at, traj)
        return traj

    # Divergence is detected by letting inf/nan propagate to the step-end
    # guard, so arithmetic warnings along that path are expected noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps + 1):
            y = c_blk @ x
            lap = laplacians[r_series[k]]
            attacked = bool(attack_on[k])
            y_m = y.reshape(big_n, q)
            s_m = rho.reshape(big_n, q) + z.reshape(big_n, q)

            if event_mode:
                # Trigger decisions first (against the pre-update broadcast
                # table), then all broadcasts land simultaneously at this instant.
                e_s, e_y = consensus_errors(lap, s_hat, y_hat, attacked_last)
                g, h_val = trigger_functions(s_hat, y_hat, s_m, y_m, e_s, e_y, trig)
                fired = firing(k == 0, times[k], g, h_val, eta_g, eta_h,
                               attacked_last, attacked_at, trig)
                hist_fired[k] = fired
                if attacked:
                    attacked_at[fired] = times[k]
                else:
                    y_hat[fired] = y_m[fired]
                    s_hat[fired] = s_m[fired]
                attacked_last[fired] = attacked

                e_s, e_y = consensus_errors(lap, s_hat, y_hat, attacked_last)
                # Frozen trigger-function values for this step's eta dynamics.
                g, h_val = trigger_functions(s_hat, y_hat, s_m, y_m, e_s, e_y, trig)
                hist_eg[k] = eta_g
                hist_eh[k] = eta_h
            else:
                e_s, e_y = consensus_errors(lap, s_m, y_m, attacked)

            e_s_flat = e_s.reshape(-1)
            e_y_flat = e_y.reshape(-1)
            const_theta = -beta * e_s_flat - ab * e_y_flat
            dz_const = ab * e_y_flat

            grads = grad_eval(y)
            theta0 = -grads + const_theta
            hist_x[k] = x
            hist_y[k] = y
            hist_rho[k] = rho
            hist_z[k] = z
            hist_u[k] = -st.k_blk @ x - st.ukx_blk @ rho + st.w_blk @ theta0

            if k == n_steps:
                break

            # One classical RK4 step of (x, rho); z has a constant derivative.
            def rhs(x_s, rho_s):
                y_s = c_blk @ x_s
                theta = -grad_eval(y_s) + const_theta
                dx = m_a @ x_s - m_bukx @ rho_s + m_bw @ theta
                return dx, theta

            k1x, k1r = rhs(x, rho)
            k2x, k2r = rhs(x + 0.5 * h * k1x, rho + 0.5 * h * k1r)
            k3x, k3r = rhs(x + 0.5 * h * k2x, rho + 0.5 * h * k2r)
            k4x, k4r = rhs(x + h * k3x, rho + h * k3r)
            x = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            rho = rho + (h / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
            z = z + h * dz_const

            if event_mode:
                eta_g, eta_h = eta_step(eta_g, eta_h, g, h_val, attacked_last, h, trig)
                if not (np.all(eta_g > 0.0) and np.all(eta_h > 0.0)):
                    t_next = float(times[k + 1])
                    raise InvariantViolatedError(
                        f"trigger variable lost positivity at t={t_next:.6f}", t_next)

            bad = not (np.all(np.isfinite(x)) and np.all(np.isfinite(rho))
                       and np.all(np.isfinite(z)))
            if not bad:
                peak = max(np.abs(x).max(), np.abs(rho).max(), np.abs(z).max())
                bad = peak > STATE_LIMIT
            if bad:
                return finish(k, float(times[k + 1]))

        return finish(n_steps, None)


@dataclass
class TriggerStats:
    count: int
    min_gap: float
    mean_gap: float


@dataclass
class ConvergenceReport:
    theta_star: float
    final_error: float
    error_series: np.ndarray       # (n+1, N)
    log_envelope: np.ndarray       # (n+1,)
    fitted_rate: float
    trigger_stats: tuple


def convergence_report(traj: Trajectory, theta_star) -> ConvergenceReport:
    """Optimal-error series, fitted decay rate, and trigger statistics.

    The fitted rate is the least-squares slope of the log of the error
    envelope over the final 80% of the horizon, with the envelope floored at
    1e-15 so the log stays defined after exact convergence.
    """
    target = np.atleast_1d(np.asarray(theta_star, dtype=float))
    y = traj.y_per_agent()
    errors = np.linalg.norm(y - target[None, None, :], axis=2)
    envelope = errors.max(axis=1)
    log_env = np.log(np.maximum(envelope, LOG_FLOOR))
    t_end = traj.times[-1]
    mask = traj.times >= 0.2 * t_end
    if mask.sum() >= 2:
        slope = float(np.polyfit(traj.times[mask], log_env[mask], 1)[0])
    else:
        slope = float("nan")
    stats = []
    for times in traj.events:
        if len(times) >= 2:
            gaps = np.diff(times)
            stats.append(TriggerStats(len(times), float(gaps.min()),
                                      float(gaps.mean())))
        else:
            stats.append(TriggerStats(len(times), math.inf, math.inf))
    return ConvergenceReport(theta_star=float(target[0]) if target.size == 1
                             else target,
                             final_error=float(envelope[-1]),
                             error_series=errors, log_envelope=log_env,
                             fitted_rate=slope, trigger_stats=tuple(stats))


def final_spread(traj: Trajectory) -> float:
    """Largest pairwise output disagreement at the last recorded grid point."""
    y = traj.y_per_agent()[-1]
    return float(max(np.linalg.norm(y[i] - y[j])
                     for i in range(y.shape[0]) for j in range(y.shape[0])))


@dataclass
class BetaSweepEntry:
    beta: float
    probe_error: float


@dataclass
class BetaSweepReport:
    probe_time: float
    entries: tuple  # sorted by probe_error, ascending


def compare_beta_sweep(base: Scenario, betas, probe_time: float | None = None
                       ) -> BetaSweepReport:
    """Run the scenario once per beta and order the betas by probe error.

    The probe error is ``max_i |y_i(t_probe) - theta*|`` with theta* from the
    centralized oracle; ``probe_time`` defaults to mid-horizon.
    """
    from .cost import centralized_optimum

    if base.algorithm == "event_based":
        raise ValidationError("beta sweeps support attack_free/time_based scenarios")
    if probe_time is None:
        probe_time = 0.5 * base.horizon
    if not 0.0 <= probe_time <= base.horizon:
        raise ValidationError("probe time must lie inside the horizon")
    theta_star = np.atleast_1d(centralized_optimum(list(base.costs), 1e-12))
    idx = round(probe_time / base.step)
    entries = []
    for b in betas:
        scen = replace(base, params=AlgorithmParams(alpha=base.params.alpha,
                                                    beta=float(b)))
        traj = run(scen)
        y = traj.y_per_agent()[idx]
        err = float(np.linalg.norm(y - theta_star[None, :], axis=1).max())
        entries.append(BetaSweepEntry(beta=float(b), probe_error=err))
    entries.sort(key=lambda e: e.probe_error)
    return BetaSweepReport(probe_time=float(probe_time), entries=tuple(entries))


@dataclass
class ZenoReport:
    applicable: bool
    passed: bool
    counts: tuple
    min_gaps: tuple
    mean_gaps: tuple


def zeno_audit(traj: Trajectory) -> ZenoReport:
    """Grid-limited Zeno check: finite event counts and gaps >= one step.

    The audit cannot see below the integration grid; trigger checks happen at
    step boundaries, so a passing verdict certifies the sampled behaviour,
    not the continuous-time bound.
    """
    if traj.algorithm != "event_based":
        return ZenoReport(applicable=False, passed=False, counts=(),
                          min_gaps=(), mean_gaps=())
    counts, min_gaps, mean_gaps = [], [], []
    for times in traj.events:
        counts.append(len(times))
        if len(times) >= 2:
            gaps = np.diff(times)
            min_gaps.append(float(gaps.min()))
            mean_gaps.append(float(gaps.mean()))
        else:
            min_gaps.append(math.inf)
            mean_gaps.append(math.inf)
    ok = all(g >= traj.step * (1.0 - 1e-9) for g in min_gaps)
    return ZenoReport(applicable=True, passed=ok, counts=tuple(counts),
                      min_gaps=tuple(min_gaps), mean_gaps=tuple(mean_gaps))
