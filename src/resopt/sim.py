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

The event-based law is thus periodic event-triggered control (Heemels,
Donkers & Teel, IEEE TAC 2013), with the step h as its sampling period: an
inter-event gap, and so the reported ``min_gap``, is at least h by
construction.

The step loop, almost all numpy dispatch on short vectors, writes into
preallocated arrays only: a work row ``[x; rho; z; y; rho + z]`` (the
history row, then the live table), the RK4 stages and the matrix-vector
products.  Its table of stages 2-4, its ufuncs and its products are set up
once per run, so that a step makes no Python-level numpy call beyond the C
ones: the products are the matrices' bound ``ndarray.dot`` methods (np.dot's
C product without its dispatcher), every ufunc takes its output
positionally, and the step's coefficients are 0-d float64 arrays, which
multiply as the Python floats do.
x and rho are one RK4 state ``xr``, z is advanced exactly, and eta_g, eta_h
take the exact flow of their linear ODE.  At every grid point the loop makes
one call into the control law, which ``controller.team_law`` compiles once
per run: it reads the live (2, N, q) table, keeps whatever state the law has
(the event trigger's broadcast table, thresholds, eta and retry times, with
the eta rows and the broadcast attempts written into the history), and
returns the consensus part of theta and z's increment, frozen over the step.
The RK4 sum k1 + 2 k2 + 2 k3 + k4 is one reduce over the stage rows, which
adds them one after another.  u feeds nothing in the step: it is computed
afterwards, a block at a time, from the recorded x, rho and stage-1 theta by
the same per-row products.  Every element that feeds x, rho, z or u sees the
same floating-point operations in the same order as in the unfused loop; eta
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
being finite, and an event-triggered run once a trigger variable stops being
positive.  These guards are checked on the recorded rows, a block of
``U_BLOCK`` grid points at a time (when the block's u is filled) and once
after the last step; the first failing step is reported exactly as a check
after every step would report it.  The steps after it in its block are
integrated and discarded.  Nothing in them can raise: the gradient kernels
saturate, and float arithmetic yields inf and nan.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

try:
    from resource import RLIM_INFINITY, RLIMIT_AS, getrlimit
except ImportError:  # no address-space limit to read on this platform
    RLIMIT_AS = None

from .attack import AttackSchedule, activity_series
from .controller import AlgorithmParams, TriggerParams, team_law
from .cost import team_theta
from .errors import DivergenceError, InvariantViolatedError, ValidationError
from .graph import GraphProcess, laplacian, sample_switching_path, stationary_weighting

ALGORITHMS = ("attack_free", "time_based", "event_based")
STATE_LIMIT = 1e9
# Grid points per block: u is computed after the steps, and the guards are
# checked, a block at a time (``run``).
U_BLOCK = 256
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
    inconsistent one or one whose history cannot fit in physical memory or
    in what the soft RLIMIT_AS leaves of the address space, and
    AssumptionViolatedError when the graph process fails the graph
    hypothesis (``graph.stationary_weighting``): every graph
    weight-balanced, with ``weights[g][i][j]`` the weight of edge j -> i,
    and a connected mirror union of the graphs of every closed class of the
    switching chain that it can enter.  An unbalanced family converges to the optimum of a
    pi-weighted sum of the costs.  A constructed scenario is one ``run``
    accepts, and its initial states, drawn or explicit, start inside the
    [-STATE_LIMIT, STATE_LIMIT] that ``run`` guards.  An ``attack_schedule``
    of None is stored as the empty schedule.
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
        if not 0.0 < self.step < math.inf:
            raise ValidationError("step must be positive and finite")
        if not self.step <= self.horizon < math.inf:
            raise ValidationError("horizon must be finite and at least one step")
        if not self.horizon / self.step < math.inf:
            raise ValidationError("horizon / step must be a finite step count")
        n_steps = round(self.horizon / self.step)
        if abs(n_steps * self.step - self.horizon) > 1e-6 * max(1.0, self.horizon):
            raise ValidationError("horizon must be an integer multiple of step")
        memory, limit = _memory_limit()
        if 0 < memory < (need := _run_bytes(agents, n_steps)):
            raise ValidationError(f"a run of {n_steps} steps needs {need / 2**30:.1f} GiB"
                                  f" of history, over the {memory / 2**30:.1f} GiB {limit}")
        if self.attack_schedule is None:
            object.__setattr__(self, "attack_schedule", AttackSchedule.empty(self.horizon))
        if self.algorithm == "event_based" and self.trigger is None:
            raise ValidationError("event_based scenarios need trigger parameters")
        if self.algorithm == "attack_free" and self.attack_schedule.intervals:
            raise ValidationError("attack_free scenarios cannot carry attack intervals")
        if self.initial.mode == "explicit":
            if len(self.initial.states) != n_agents:
                raise ValidationError("explicit initial condition must cover every agent")
            for i, (model, entry) in enumerate(zip(agents, self.initial.states)):
                if tuple(np.size(v) for v in entry) != (model.n, q, q):
                    raise ValidationError(f"explicit initial state {i} has wrong shape")
                for name, v in zip(("x", "rho", "z"), entry):
                    if not np.all(np.abs(np.asarray(v, dtype=float)) <= STATE_LIMIT):
                        raise ValidationError(
                            f"explicit initial {name} of agent {i} must be finite "
                            "and within the state limits [-1e9, 1e9]")
        elif not max(-self.initial.low, self.initial.high) <= STATE_LIMIT:
            raise ValidationError("random initial box must lie within the state "
                                  "limits [-1e9, 1e9]")
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

    def y_per_agent(self) -> np.ndarray:
        """Outputs reshaped to (n+1, N, q)."""
        n = self.y.shape[0]
        return self.y.reshape(n, -1, self.q)


def _run_bytes(agents, n_steps: int) -> int:
    """The bytes ``run`` allocates before its loop: per grid point, the time,
    history row, u, eta, attempts, graph and attack series and their lists."""
    n, nx, pu = len(agents), sum(m.n for m in agents), sum(m.p for m in agents)
    return (n_steps + 1) * (8 * (1 + nx + 3 * n * agents[0].q + pu + 2 * n) + n + 25)


def _mapped_bytes() -> int:
    """The address space this process has mapped: the first field of Linux's
    /proc/self/statm, in pages; 0 where there is no such file."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError):
        return 0


def _memory_limit():
    """``(bytes, name)`` of the smaller of RAM and what a finite soft
    RLIMIT_AS leaves once the address space already mapped is taken off,
    else ``(0, "")``."""
    limits = []
    if {"SC_PHYS_PAGES", "SC_PAGE_SIZE"} <= set(getattr(os, "sysconf_names", ())):
        limits.append((os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"), "of RAM"))
    if RLIMIT_AS is not None and (soft := getrlimit(RLIMIT_AS)[0]) != RLIM_INFINITY:
        name = "address-space limit (RLIMIT_AS)"
        if mapped := _mapped_bytes():
            name = f"left of the {soft / 2**30:.1f} GiB {name}"
        # At least one byte: a limit already used up admits no history.
        limits.append((max(soft - mapped, 1), name))
    return min((limit for limit in limits if limit[0] > 0), default=(0, ""))


def _block_diag(blocks) -> np.ndarray:
    """The block-diagonal matrix of the (possibly rectangular) ``blocks``."""
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def _stacked(scenario: Scenario):
    """The block matrices of the stacked closed loop, ``(A - B K, B (U - K
    X), B W, C, K, U - K X, W)`` with one diagonal block per agent, and the
    team's theta kernel: ``theta(y, const, out)`` writes theta = -grad f(y)
    + const, the optimization input of every agent, into ``out`` from the
    stacked outputs y, with ``const`` a list (``cost.team_theta``)."""
    agents = scenario.agents
    ukx = [m.U - m.K @ m.X for m in agents]
    blocks = ([m.A - m.B @ m.K for m in agents], [m.B @ u for m, u in zip(agents, ukx)],
              [m.B @ m.W for m in agents], [m.C for m in agents],
              [m.K for m in agents], ukx, [m.W for m in agents])
    return tuple(map(_block_diag, blocks)), team_theta(scenario.costs, scenario.q)


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
    (m_a, m_bukx, m_bw, c_blk, k_blk, ukx_blk, w_blk), theta_eval = _stacked(scenario)
    h = scenario.step
    n_steps = scenario.n_steps
    times = np.arange(n_steps + 1) * h
    q = scenario.q
    big_n = scenario.n_agents
    event_mode = scenario.algorithm == "event_based"

    path = sample_switching_path(scenario.graph_process, scenario.horizon,
                                 scenario.seed)
    r_series = path.state_at(times)
    attack_on = activity_series(scenario.attack_schedule, times)

    laplacians = [laplacian(g) for g in scenario.graph_process.graphs]

    # One work row [x; rho; z; y; rho + z], advanced in place.  x and rho
    # form the RK4 state xr; z has a constant derivative within a step and
    # is advanced exactly.  Each grid point's history row is [x; rho; z; y],
    # and the last two blocks are the live table [y; rho + z] as a
    # (2, N, q) table.
    nx, nq, pu = m_a.shape[0], c_blk.shape[0], k_blk.shape[0]
    m, ns = nx + nq, nx + 2 * nq
    work = np.concatenate((*_draw_initial(scenario), np.empty(2 * nq)))
    state, record = work[:ns], work[:ns + nq]
    x, rho, z, xr = state[:nx], state[nx:m], state[m:], state[:m]
    y, s_live = work[ns:ns + nq], work[ns + nq:]
    hist = np.empty((n_steps + 1, ns + nq))
    hist_u = np.empty((n_steps + 1, pu))
    hist_eta = np.zeros((n_steps + 1, 2, big_n))
    # Broadcast attempts per grid point; with attack_on they give the
    # successful and the blocked attempts of every agent.
    hist_fired = np.zeros((n_steps + 1, big_n), dtype=bool)
    law = team_law(scenario.params, scenario.trigger if event_mode else None, big_n, q, h,
                   work[ns:].reshape(2, big_n, q), hist_eta.reshape(n_steps + 1, 2 * big_n),
                   hist_fired)

    # The RK4 stage derivatives [dx; theta] (one row each, split into views),
    # the stage state and its outputs, and a product buffer.  u feeds nothing
    # in the step: stage-1 theta is kept for the grid points of the current
    # block of U_BLOCK, and u is filled from the history a block at a time
    # (``fill_u``).
    ks = np.empty((4, m))
    k_parts = [(k[:nx], k[nx:]) for k in ks]
    stage = np.empty(m)
    stage_x, stage_rho = stage[:nx], stage[nx:]
    y_stage, prod = np.empty(nq), np.empty(nx)
    theta_block, u_prod = np.empty((U_BLOCK, nq)), np.empty((U_BLOCK, pu, 1))

    neg_k = -k_blk
    r_list, on_list = r_series.tolist(), attack_on.tolist()
    # The step's coefficients as 0-d float64 arrays: the same float64
    # multiplies as by the Python floats, without converting one per call.
    half_h, full_h, two, sixth_h = map(np.array, (0.5 * h, h, 2.0, h / 6.0))
    # The stage loop's table (stage 2-4 coefficients, the stage before each,
    # its output views) and its ufuncs, looked up once per run.  Every ufunc
    # in the step takes its output positionally.
    stages = tuple(zip((half_h, half_h, full_h), ks, k_parts[1:]))
    k_first, k_mid = k_parts[0], ks[1:3]
    multiply, add, subtract, add_reduce = np.multiply, np.add, np.subtract, np.add.reduce

    # The products, bound once per run: ``ndarray.dot`` runs np.dot's C
    # product without its Python-level dispatcher.  np.dot multiplies a 1 x 1
    # matrix as a scalar, which keeps the sign of a zero product that ``@``
    # drops; only a team with one scalar state has one, and it uses matmul.
    if nx > 1:
        a_dot, bukx_dot, bw_dot, c_dot = m_a.dot, m_bukx.dot, m_bw.dot, c_blk.dot
    else:
        a_dot, bukx_dot, bw_dot, c_dot = (partial(np.matmul, mat)
                                          for mat in (m_a, m_bukx, m_bw, c_blk))

    def rhs(x_s, rho_s, y_s, out):
        """d[x; rho] at (x_s, rho_s), y_s = C x_s, into the views (dx, theta)."""
        dx, theta = out
        theta_eval(y_s, const_theta, theta)
        a_dot(x_s, dx)
        bukx_dot(rho_s, prod)
        subtract(dx, prod, dx)
        bw_dot(theta, prod)
        add(dx, prod, dx)

    def fill_u(r0: int, r1: int):
        """u = -K x - (U - K X) rho + W theta at grid points r0..r1-1, per row."""
        out, tmp = hist_u[r0:r1, :, None], u_prod[:r1 - r0]
        np.matmul(neg_k, hist[r0:r1, :nx, None], out=out)
        out -= np.matmul(ukx_blk, hist[r0:r1, nx:m, None], out=tmp)
        out += np.matmul(w_blk, theta_block[:r1 - r0, :, None], out=tmp)

    def check(r0: int, r1: int):
        """Raise at the first of history rows r0..r1-1 (row r holds the
        result of step r - 1) that breaks a guard, as a check after every
        step would: InvariantViolatedError for a trigger variable that is no
        longer positive, checked first, and DivergenceError from ``finish``
        for a state outside [-STATE_LIMIT, STATE_LIMIT]."""
        r0 = max(r0, 1)
        rows = hist[r0:r1, :ns]
        # max |state| <= STATE_LIMIT by the extremes, with no (rows, ns)
        # temporary; NaN fails every comparison, so this also catches
        # non-finite states.
        bad = ~((np.maximum.reduce(rows, 1) <= STATE_LIMIT)
                & (np.minimum.reduce(rows, 1) >= -STATE_LIMIT))
        if event_mode:
            lost = ~(np.minimum.reduce(hist_eta[r0:r1].reshape(-1, 2 * big_n), 1) > 0.0)
            bad |= lost
        if bad.any():
            r = int(np.argmax(bad))
            t_bad = float(times[r0 + r])
            if event_mode and lost[r]:
                raise InvariantViolatedError(
                    f"trigger variable lost positivity at t={t_bad:.6f}", t_bad)
            finish(r0 + r - 1, t_bad)

    def finish(last: int, diverged_at: float | None):
        if last % U_BLOCK != U_BLOCK - 1:  # else the block's u is filled
            fill_u(last - last % U_BLOCK, last + 1)
        fired, on, t = hist_fired[:last + 1], attack_on[:last + 1], times[:last + 1]
        rows = hist[:last + 1]
        traj = Trajectory(
            times=t, x=rows[:, :nx], y=rows[:, ns:], rho=rows[:, nx:m],
            z=rows[:, m:ns], u=hist_u[:last + 1],
            eta_g=hist_eta[:last + 1, 0], eta_h=hist_eta[:last + 1, 1],
            r_state=r_series[:last + 1], attack_on=on,
            events=tuple(t[fired[:, i] & ~on] for i in range(big_n)),
            blocked_attempts=tuple(t[fired[:, i] & on] for i in range(big_n)), q=q)
        if diverged_at is not None:
            raise DivergenceError(diverged_at, traj)
        return traj

    # Divergence is detected by letting inf/nan propagate to the block's
    # guards, so arithmetic warnings along that path are expected noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps + 1):
            c_dot(x, y)
            add(rho, z, s_live)
            const_theta, dz = law(k, laplacians[r_list[k]], on_list[k])

            rhs(x, rho, y, k_first)
            hist[k] = record
            theta_block[k % U_BLOCK] = k_first[1]
            if k % U_BLOCK == U_BLOCK - 1:
                check(k + 1 - U_BLOCK, k + 1)
                fill_u(k + 1 - U_BLOCK, k + 1)

            if k == n_steps:
                break

            for c, k_prev, out in stages:
                multiply(c, k_prev, stage)
                add(xr, stage, stage)
                c_dot(stage_x, y_stage)
                rhs(stage_x, stage_rho, y_stage, out)
            # k1 + 2 k2 + 2 k3 + k4 by one reduce (axis 0, no dtype, out
            # stage, no keepdims), which adds the rows one after another onto
            # the initial -0.0; without that start, a column of -0.0s would
            # sum to +0.0.
            multiply(k_mid, two, k_mid)
            add_reduce(ks, 0, None, stage, False, -0.0)
            multiply(stage, sixth_h, stage)
            add(xr, stage, xr)
            add(z, dz, z)

        check(n_steps - n_steps % U_BLOCK, n_steps + 1)
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
