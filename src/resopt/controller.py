"""The three control laws, as the one function the integrator calls per grid
point over the whole team.

The per-agent quantities of the law come in stacked (2, N, q) tables, y in
row 0 and rho + z in row 1: the live values, the broadcast table of each
agent's last successful broadcast, and the consensus errors ``[e_y; e_s]``.
The laws share one consensus step, written once (``_consensus_part``): from
the errors, the consensus part of theta and z's increment, both frozen over
the step.  The time-based (and attack-free) law reads the errors of the live
table, the event-based law those of the broadcast table under a dynamic
trigger.  The rows of silenced agents (the whole team while an attack is
active in the time-based law, an agent whose governing attempt was attacked
in the event-based law) are exact zeros, never merely small, so those agents
fall back to plain local gradient descent.

``team_law`` compiles a run's law into one function from straight-line
float statements, with the ``_compile`` that ``cost.team_theta`` uses.  The
event-based law keeps the trigger's state as Python floats, so that a quiet
grid point costs no numpy dispatch, and gives the bits of the numpy
expressions over the tables.  The Laplacian products stay in numpy, as
their bits come from BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost import _compile
from .errors import ValidationError

# Slack on the retry time, so that a retry lands on the grid point that the
# dwell reaches despite rounding in ``t + dwell_kappa``.
RETRY_SLACK = 1e-12


@dataclass(frozen=True)
class AlgorithmParams:
    """Positive coupling gains of the optimization dynamics."""

    alpha: float = 2.0
    beta: float = 1.0

    def __post_init__(self):
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise ValidationError("alpha and beta must be positive")


@dataclass(frozen=True)
class TriggerParams:
    """Dynamic event-trigger coefficients.

    ``k_g > (1 - delta_g) / sigma_g`` (and the h-counterpart) keeps the
    combined Lyapunov decay rate of the auxiliary variables positive.
    ``dwell_kappa`` is the retry delay after an attempt that fell under
    attack.
    """

    sigma_g: float
    sigma_h: float
    theta_g: float
    theta_h: float
    delta_g: float
    delta_h: float
    k_g: float
    k_h: float
    eta_g0: float
    eta_h0: float
    dwell_kappa: float

    def __post_init__(self):
        if not (self.sigma_g > 0.0 and self.sigma_h > 0.0):
            raise ValidationError("sigma_g and sigma_h must be positive")
        for name in ("theta_g", "theta_h", "delta_g", "delta_h"):
            v = getattr(self, name)
            if not (0.0 <= v < 1.0):
                raise ValidationError(f"{name} must lie in [0, 1)")
        if not (self.k_g > 0.0 and self.k_h > 0.0):
            raise ValidationError("k_g and k_h must be positive")
        if not self.k_g > (1.0 - self.delta_g) / self.sigma_g:
            raise ValidationError("need k_g > (1 - delta_g) / sigma_g")
        if not self.k_h > (1.0 - self.delta_h) / self.sigma_h:
            raise ValidationError("need k_h > (1 - delta_h) / sigma_h")
        if not (self.eta_g0 > 0.0 and self.eta_h0 > 0.0):
            raise ValidationError("initial trigger variables must be positive")
        if not self.dwell_kappa > 0.0:
            raise ValidationError("dwell_kappa must be positive")


def eta_flow(params: TriggerParams, step: float):
    """``(decay, gain)``, the (2, 1) columns over the g and h rows of the
    exact eta update over ``step``: ``decay = exp(-k step)`` and
    ``gain = delta (1 - decay) / k``."""
    rates = np.array([[params.k_g], [params.k_h]])
    deltas = np.array([[params.delta_g], [params.delta_h]])
    decay = np.exp(-rates * step)
    return decay, deltas * (1.0 - decay) / rates


def _add_reduce(terms: list) -> str:
    """The expression that sums ``terms`` as ``np.add.reduce`` does along a
    contiguous axis, by numpy's pairwise summation: fewer than eight terms
    left to right; up to 128, eight running sums over every eighth term,
    combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the
    remainder in turn; above 128, two such sums over the halves, the first
    half a multiple of eight long.  numpy starts from -0.0, which adds
    nothing to any term."""
    n = len(terms)
    if n < 8:
        return "(" + " + ".join(terms) + ")"
    if n > 128:
        half = n // 2 - n // 2 % 8
        return f"({_add_reduce(terms[:half])} + {_add_reduce(terms[half:])})"
    blocks = n - n % 8
    r = terms[:8]
    for i in range(8, blocks, 8):
        r = [f"({a} + {b})" for a, b in zip(r, terms[i:i + 8])]
    tree = f"(({r[0]} + {r[1]}) + ({r[2]} + {r[3]})) + (({r[4]} + {r[5]}) + ({r[6]} + {r[7]}))"
    return "(" + " + ".join([f"({tree})", *terms[blocks:]]) + ")"


def _names(prefix: str, count: int) -> str:
    return "".join(f"{prefix}{j}, " for j in range(count))


def _consensus_part(nq: int) -> str:
    """The expression, over the errors ``e0``, ``e1``, ... of a flat (2, N, q)
    table, of what is frozen over a step: the consensus part of theta,
    ``(-beta e_s) + (-alpha beta e_y)``, as a list, and z's increment
    ``(-step) (-alpha beta e_y)`` as an array."""
    return ("([" + ", ".join(f"nb * e{nq + j} + nab * e{j}" for j in range(nq)) + "], "
            "array([" + ", ".join(f"nh * (nab * e{j})" for j in range(nq)) + "]))")


def team_law(gains: AlgorithmParams, trigger: TriggerParams | None, n_agents: int,
             q: int, step: float, live: np.ndarray, eta_rows, fired_rows):
    """The control law of a whole team, as one function compiled once per
    run from straight-line float statements, as ``cost.team_theta`` is.

    ``law(k, lap, attacked)`` is called at every grid point k, with the
    caller's contiguous live (2, N, q) table ``live`` holding that point's
    values (it is read in place), the active graph's
    Laplacian ``lap`` and the attack flag, and returns what is frozen over
    the step: the consensus part of theta, ``(-beta e_s) + (-alpha beta
    e_y)``, as a list, and z's increment ``(-step) (-alpha beta e_y)`` as an
    array, from the consensus errors ``[e_y; e_s]``.

    With ``trigger`` None it is the time-based (and attack-free) law: the
    errors are those of the live table, and under attack they are exact
    zeros, which give the silenced constant (const all -0.0, dz all +0.0).

    Otherwise it is the event-based law, whose errors are ``lap @ table``
    of the broadcast table, then +0.0 over every frozen agent's entries.
    Its state is the table (each agent's last successful broadcast of y and
    rho + z), the thresholds ``theta_g |e_y|^2`` and ``theta_h |e_s|^2``,
    the trigger variables eta_g and eta_h, and ``retry``, whose keys are the
    frozen agents (those whose last attempt was attacked) and whose values
    their retry times.  At t = k step it writes eta into ``eta_rows[k]`` and forms
    the trigger functions ``g = |y_hat - y|^2 - theta_g |e_y|^2`` and the
    same h over rho + z.  Every agent fires at k = 0; after that an agent
    fires when ``sigma_g g > eta_g`` or ``sigma_h h > eta_h``, and a frozen
    one instead retries once t reaches its attack time plus ``dwell_kappa``
    (less ``RETRY_SLACK``).  The fired agents are marked in
    ``fired_rows[k]``; an attacked attempt freezes its agent, a successful
    one enters its live values into the table and unfreezes it.  Then eta
    takes the exact flow of ``d eta = -k eta - delta gh`` over the step,
    ``decay eta - gain gh`` with ``eta_flow``'s coefficients (Girard,
    "Dynamic triggering mechanisms for event-triggered control", IEEE TAC
    2015), frozen agents keeping theirs.  The errors, thresholds and the
    returned part are recomputed only after a firing or a graph switch, and
    after a firing g and h are formed again, against the new table, for the
    flow.  Values are flat lists over the stacked tables (y or g in row 0,
    rho + z or h in row 1).

    Every value is the one the team's numpy expressions give, bit for bit:
    the same float operations in the same order, with each squared size
    summed in ``np.add.reduce``'s order (``_add_reduce``).
    """
    big_n, nq = n_agents, n_agents * q
    names = _names("e", 2 * nq)
    namespace = {"nb": -gains.beta, "nab": -(gains.alpha * gains.beta), "nh": -step,
                 "array": np.array, "matmul": np.matmul}
    if trigger is None:
        errs = np.empty((2, big_n, q))
        namespace.update(live=live, errs=errs,
                         errs_list=errs.reshape(-1).tolist)
        zero_errors = {f"e{j}": 0.0 for j in range(2 * nq)}
        namespace["silenced"] = eval(_consensus_part(nq), {**namespace, **zero_errors})
        return _compile([
            "def law(k, lap, attacked):",
            "if attacked:", "    return silenced",
            "matmul(lap, live, out=errs)", names + "= errs_list()",
            f"return {_consensus_part(nq)}"], namespace)

    decay, gain = (column.tolist() for column in eta_flow(trigger, step))
    namespace.update({
        "sg": trigger.sigma_g, "sh": trigger.sigma_h, "kappa": trigger.dwell_kappa,
        "slack": RETRY_SLACK, "tg": trigger.theta_g, "th": trigger.theta_h,
        "dg": decay[0][0], "dh": decay[1][0], "kg": gain[0][0], "kh": gain[1][0],
        "step": step, "live_values": live.reshape(-1).tolist,
        "eta_rows": eta_rows, "fired_rows": fired_rows, "zeros": [0.0] * q,
        "hat": [0.0] * (2 * nq), "thr": None, "part": None, "last_lap": None, "retry": {},
        "eta": [trigger.eta_g0] * big_n + [trigger.eta_h0] * big_n,
    })
    # Row r of a (2, N) table is agent r % N's g (r < N) or h; its q values
    # in a flat (2, N, q) table start at r q.
    rows = range(2 * big_n)

    def squared_size(prefix, r):
        return _add_reduce([f"{prefix}{j} * {prefix}{j}" for j in range(r * q, r * q + q)])

    def g_or_h(r, g_name, h_name):
        return g_name if r < big_n else h_name

    thresholds = ", ".join(f"{g_or_h(r, 'tg', 'th')} * {squared_size('e', r)}" for r in rows)
    triggered = ", ".join(f"sg * G{i} > E{i} or sh * G{big_n + i} > E{big_n + i}"
                          for i in range(big_n))
    flowed = ", ".join(f"{g_or_h(r, 'dg', 'dh')} * E{r} - {g_or_h(r, 'kg', 'kh')} * G{r}"
                       for r in rows)
    # Two passes over one set of statements: the first decides against the
    # table as it stands; after a firing, the second forms g and h against
    # the new table for the flow.
    return _compile([
        "def law(k, lap, attacked):", "global thr, part, last_lap, eta",
        "v = live_values()", _names("v", 2 * nq) + "= v", _names("E", 2 * big_n) + "= eta",
        "for deciding in (True, False):",
        "    if lap is not last_lap:",
        "        last_lap = lap",
        f"        e = matmul(lap, array(hat).reshape(2, {big_n}, {q})).ravel().tolist()",
        "        for i in retry:",
        f"            e[i * {q}:i * {q} + {q}] = e[i * {q} + {nq}:i * {q} + {nq + q}] = zeros",
        f"        {names}= e",
        f"        thr = [{thresholds}]",
        f"        part = {_consensus_part(nq)}",
        "    " + _names("a", 2 * nq) + "= hat", "    " + _names("T", 2 * big_n) + "= thr",
        *(f"    d{j} = a{j} - v{j}" for j in range(2 * nq)),
        *(f"    G{r} = {squared_size('d', r)} - T{r}" for r in rows),
        "    if not deciding:", "        break",
        "    eta_rows[k] = eta",
        "    t = k * step",
        "    if k:",
        f"        fires = [{triggered}]",
        "        for i, at in retry.items():",
        "            fires[i] = t >= at",
        "        if True not in fires:",
        "            break",
        "        fired = [i for i, f in enumerate(fires) if f]",
        "    else:",
        f"        fired = list(range({big_n}))",
        "    fired_rows[k, fired] = True",
        "    for i in fired:",
        "        if attacked:",
        "            retry[i] = t + kappa - slack",
        "        else:",
        "            retry.pop(i, None)",
        f"            for j in (i * {q}, i * {q} + {nq}):",
        f"                hat[j:j + {q}] = v[j:j + {q}]",
        "    last_lap = None",
        f"flowed = [{flowed}]",
        "for i in retry:",
        f"    flowed[i], flowed[i + {big_n}] = eta[i], eta[i + {big_n}]",
        "eta = flowed",
        "return part"], namespace)
