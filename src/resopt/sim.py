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

The step loop is lean, as it is almost all numpy dispatch on short vectors.
x and rho are one RK4 state ``xr = [x; rho]`` (a view of the state array
``[x; rho; z]``; z is advanced exactly), and eta_g, eta_h are one (2, N)
table advanced by the exact flow of their linear ODE.  The law's per-agent
values live in the stacked (2, N, q) tables of ``controller``.  On the
event-based law the broadcast table's consensus errors, and the consensus
part of theta with them, are recomputed only when someone fires or the graph
switches, and on a quiet step (no agent fires) the trigger values of the
firing decision also freeze the eta forcing, since nothing they read has
changed.  Every element that feeds x, rho, z or u sees the same
floating-point operations in the same order as in the unfused loop; eta
alone differs from that loop's RK4 in its last bits.  Since eta feeds the
trigger comparisons, an agent at its threshold could fire on another step
and move the state from there on.  That is not guaranteed against, only
measured: on the scenarios of the tests, the three presets and seeds 0-120
of the ``dos_event_based`` benchmark workload, x, y, rho, z, u and every
event are bit-for-bit those of the unfused loop.

Initial states declared "random" are drawn uniformly from a box with the
scenario's seeded generator (PCG64, ``low + (high-low) * u``), agent by
agent in the order x_i, rho_i, z_i.  States are aborted (with the truncated
trajectory attached to the error) once anything leaves [-1e9, 1e9] or stops
being finite.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .attack import AttackSchedule, activity_series
from .controller import (AlgorithmParams, TriggerParams, consensus_errors,
                         eta_flow, eta_step, firing, trigger_functions)
from .errors import DivergenceError, InvariantViolatedError, ValidationError
from .graph import GraphProcess, laplacian, sample_switching_path, stationary_weighting

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
    """Everything a run depends on; equal scenarios produce identical output.

    Construction admits the scenario: it raises ValidationError for an
    inconsistent one, and AssumptionViolatedError when the graph process
    fails the joint-connectivity hypothesis (no common positive stationary
    vector, or a disconnected mirror union).  A constructed scenario is one
    ``run`` accepts.
    """

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
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral) \
                or self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, not {self.seed!r}")
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
        if self.initial.mode == "explicit":
            if len(self.initial.states) != n_agents:
                raise ValidationError("explicit initial condition must cover every agent")
            for i, (model, entry) in enumerate(zip(agents, self.initial.states)):
                if tuple(np.size(v) for v in entry) != (model.n, q, q):
                    raise ValidationError(f"explicit initial state {i} has wrong shape")
        stationary_weighting(self.graph_process)
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
    """Grid-sampled closed-loop run plus event bookkeeping.

    From ``run``, x, y, rho and z are column views of one (n+1, .) history
    array and eta_g, eta_h row views of one (n+1, 2, N) array."""

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
    q: int
    state_slices: tuple
    input_slices: tuple

    def y_per_agent(self) -> np.ndarray:
        """Outputs reshaped to (n+1, N, q)."""
        n = self.y.shape[0]
        return self.y.reshape(n, -1, self.q)


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

        # theta = -grad f(y) + const_theta, the optimization input of every
        # agent, from the stacked outputs y, with each cost's gradient kernel.
        fns = [c.grad for c in scenario.costs]
        if q == 1:
            def theta_eval(y: np.ndarray, const_theta: np.ndarray) -> np.ndarray:
                return np.array([-fn(t) + c for fn, t, c in
                                 zip(fns, y.tolist(), const_theta.tolist())])
        else:
            blocks = [(fn, slice(i * q, (i + 1) * q)) for i, fn in enumerate(fns)]

            def theta_eval(y: np.ndarray, const_theta: np.ndarray) -> np.ndarray:
                grad = np.empty(self.nq)
                for fn, rows in blocks:
                    grad[rows] = fn(y[rows])
                return -grad + const_theta

        self.theta_eval = theta_eval


def _draw_initial(scenario: Scenario):
    if scenario.initial.mode == "explicit":
        # The x, rho and z blocks of every agent, each concatenated.
        return tuple(np.concatenate([np.asarray(v, dtype=float).reshape(-1) for v in vs])
                     for vs in zip(*scenario.initial.states))
    q = scenario.q
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

    The scenario was admitted when it was constructed.  Raises
    DivergenceError (with the truncated trajectory attached) when any state
    leaves the finite range, and InvariantViolatedError when an
    event-triggered run's trigger variable stops being positive.
    """
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

    # One state array [x; rho; z], advanced in place.  x and rho form the
    # RK4 state xr; z has a constant derivative within a step and is
    # advanced exactly.  Each grid point's history row is [x; rho; z; y].
    state = np.concatenate(_draw_initial(scenario))
    nx, nq = st.nx, st.nq
    m, ns = nx + nq, nx + 2 * nq
    x, rho, z, xr = state[:nx], state[nx:m], state[m:], state[:m]
    hist = np.empty((n_steps + 1, ns + nq))
    hist_u = np.empty((n_steps + 1, st.pu))
    hist_eta = np.zeros((n_steps + 1, 2, big_n))
    # Broadcast attempts per grid point; with attack_on they give the
    # successful and the blocked attempts of every agent.
    hist_fired = np.zeros((n_steps + 1, big_n), dtype=bool)

    # The live table [y; rho + z] as a (2, N, q) table, with flat (N q,)
    # views of its rows.
    live = np.empty((2, big_n, q))
    y, s_live = live.reshape(2, nq)

    trig = scenario.trigger
    if event_mode:
        eta = np.array([np.full(big_n, trig.eta_g0), np.full(big_n, trig.eta_h0)])
        hats = np.zeros((2, big_n, q))  # each agent's last successful broadcast
        attacked_last = np.zeros(big_n, dtype=bool)
        attacked_at = np.full(big_n, math.inf)
        table_lap = None  # the Laplacian errs were last computed with
        flow = eta_flow(trig, h)

    theta_eval = st.theta_eval
    m_a, m_bukx, m_bw, c_blk = st.m_a, st.m_bukx, st.m_bw, st.c_blk
    neg_k, ukx_blk, w_blk = -st.k_blk, st.ukx_blk, st.w_blk
    half_h, sixth_h = 0.5 * h, h / 6.0
    r_list, on_list = r_series.tolist(), attack_on.tolist()

    def consensus_part(errs):
        """The consensus part of theta (read by rhs) and z's derivative,
        both frozen over the step, from the errors [e_y; e_s]."""
        e_y, e_s = errs.reshape(2, nq)
        return -beta * e_s - ab * e_y, ab * e_y

    def rhs(xr_s, y_s=None):
        """Derivative of the fused state [x; rho]; ``y_s`` is C x if known."""
        x_s = xr_s[:nx]
        if y_s is None:
            y_s = c_blk @ x_s
        theta = theta_eval(y_s, const_theta)
        return np.concatenate((m_a @ x_s - m_bukx @ xr_s[nx:] + m_bw @ theta, theta))

    def finish(last: int, diverged_at: float | None):
        fired, on, t = hist_fired[:last + 1], attack_on[:last + 1], times[:last + 1]
        rows = hist[:last + 1]
        traj = Trajectory(
            times=t, x=rows[:, :nx], y=rows[:, ns:], rho=rows[:, nx:m],
            z=rows[:, m:ns], u=hist_u[:last + 1],
            eta_g=hist_eta[:last + 1, 0], eta_h=hist_eta[:last + 1, 1],
            r_state=r_series[:last + 1], attack_on=on,
            events=tuple(t[fired[:, i] & ~on] for i in range(big_n)),
            blocked_attempts=tuple(t[fired[:, i] & on] for i in range(big_n)), q=q,
            state_slices=tuple(st.state_slices),
            input_slices=tuple(st.input_slices))
        if diverged_at is not None:
            raise DivergenceError(diverged_at, traj)
        return traj

    # Divergence is detected by letting inf/nan propagate to the step-end
    # guard, so arithmetic warnings along that path are expected noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps + 1):
            np.matmul(c_blk, x, out=y)
            np.add(rho, z, out=s_live)
            lap = laplacians[r_list[k]]
            attacked = on_list[k]

            if event_mode:
                # Trigger decisions first (against the pre-update broadcast
                # table), then all broadcasts land simultaneously at this
                # instant.  The consensus errors of the table change only
                # when someone fires or the graph switches.  On a quiet step
                # nothing the trigger functions read has changed, so their
                # values also freeze this step's eta forcing; otherwise they
                # are evaluated again.
                if lap is not table_lap:
                    errs = consensus_errors(lap, hats, attacked_last)
                    const_theta, dz_const = consensus_part(errs)
                    table_lap = lap
                gh = trigger_functions(hats, live, errs, trig)
                fired = firing(k == 0, times[k], gh, eta, attacked_last,
                               attacked_at, trig)
                if fired.any():
                    hist_fired[k] = fired
                    if attacked:
                        attacked_at[fired] = times[k]
                    else:
                        hats[:, fired] = live[:, fired]
                    attacked_last[fired] = attacked
                    errs = consensus_errors(lap, hats, attacked_last)
                    const_theta, dz_const = consensus_part(errs)
                    gh = trigger_functions(hats, live, errs, trig)
                hist_eta[k] = eta
            else:
                errs = consensus_errors(lap, live, attacked)
                const_theta, dz_const = consensus_part(errs)

            k1 = rhs(xr, y)
            row = hist[k]
            row[:ns] = state
            row[ns:] = y
            hist_u[k] = neg_k @ x - ukx_blk @ rho + w_blk @ k1[nx:]

            if k == n_steps:
                break

            k2 = rhs(xr + half_h * k1)
            k3 = rhs(xr + half_h * k2)
            k4 = rhs(xr + h * k3)
            xr += sixth_h * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            z += h * dz_const

            if event_mode:
                eta = eta_step(eta, gh, attacked_last, flow)
                if not (eta > 0.0).all():
                    t_next = float(times[k + 1])
                    raise InvariantViolatedError(
                        f"trigger variable lost positivity at t={t_next:.6f}", t_next)

            # NaN fails the comparison, so this also catches non-finite states.
            if not np.abs(state).max() <= STATE_LIMIT:
                return finish(k, float(times[k + 1]))

        return finish(n_steps, None)


@dataclass
class TriggerStats:
    count: int
    min_gap: float
    mean_gap: float


def _trigger_stats(times) -> TriggerStats:
    """Event count and inter-event gaps of one agent (inf below two events)."""
    if len(times) < 2:
        return TriggerStats(len(times), math.inf, math.inf)
    gaps = np.diff(times)
    return TriggerStats(len(times), float(gaps.min()), float(gaps.mean()))


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
    return ConvergenceReport(theta_star=float(target[0]) if target.size == 1
                             else target,
                             final_error=float(envelope[-1]),
                             error_series=errors, log_envelope=log_env,
                             fitted_rate=slope,
                             trigger_stats=tuple(map(_trigger_stats, traj.events)))


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

    The probe error is ``max_i |y_i(t_probe) - theta*|``, read from the
    convergence report against the centralized oracle's theta*;
    ``probe_time`` defaults to mid-horizon.
    """
    from .cost import centralized_optimum

    if base.algorithm == "event_based":
        raise ValidationError("beta sweeps support attack_free/time_based scenarios")
    if probe_time is None:
        probe_time = 0.5 * base.horizon
    if not 0.0 <= probe_time <= base.horizon:
        raise ValidationError("probe time must lie inside the horizon")
    theta_star = centralized_optimum(list(base.costs), 1e-12)
    idx = round(probe_time / base.step)
    entries = []
    for b in betas:
        scen = replace(base, params=AlgorithmParams(alpha=base.params.alpha,
                                                    beta=float(b)))
        err = float(convergence_report(run(scen), theta_star).error_series[idx].max())
        entries.append(BetaSweepEntry(beta=float(b), probe_error=err))
    entries.sort(key=lambda e: e.probe_error)
    return BetaSweepReport(probe_time=float(probe_time), entries=tuple(entries))

