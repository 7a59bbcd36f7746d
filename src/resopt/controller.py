"""The three control laws as the pieces the integrator runs, each over the
whole team.

The per-agent quantities of the law come in stacked (2, N, q) tables, y in
row 0 and rho + z in row 1: the live values, the broadcast table of each
agent's last successful broadcast, and the consensus errors ``[e_y; e_s]``.
Consensus errors come in two flavors: the time-based law reads live states,
the event-based law only the broadcast table.  The rows of silenced agents
(the whole team while an attack is active in the time-based law, an agent
whose governing attempt was attacked in the event-based law) are exact
zeros, never merely small, so those agents fall back to plain local gradient
descent.

The dynamic event trigger of the event-based law is one team kernel,
``team_trigger``, compiled once per run from straight-line float statements
with the ``_compile`` that ``cost.team_theta`` uses.  It keeps the trigger's
state as Python floats, so that a quiet grid point costs one call and no
numpy dispatch.  Its values are those of the numpy expressions over the
tables, bit for bit, because it performs the same float operations in the
same order: drift = hat - live; each squared size summed in
``np.add.reduce``'s order (``_add_reduce``); g = that sum - theta_g |e_y|^2,
and h likewise; an agent fires iff sigma_g g > eta_g or sigma_h h > eta_h,
and a frozen one instead retries iff t >= (attack time + dwell_kappa) -
RETRY_SLACK; eta <- decay eta - gain gh with ``eta_flow``'s coefficients;
const = (-beta e_s) + (-alpha beta e_y); dz = (-step) (-alpha beta e_y).
The Laplacian product stays in numpy (``consensus_errors``), as its bits
come from BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

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


def consensus_errors(lap: np.ndarray, table: np.ndarray, silenced):
    """Consensus errors ``lap @ table`` of every agent, as a (2, N, q) table.

    ``table`` stacks the outputs y (row 0) over rho + z (row 1) as (N, q)
    tables, live or broadcast, so the result is ``[e_y; e_s]``; ``lap`` is
    the active graph's Laplacian.  ``silenced`` is a bool for the whole team
    or an (N,) mask; silenced agents' errors are exactly 0.0.
    """
    errs = np.matmul(lap, table)
    # A bool is tested as it is: np.any on a bool costs more than a matmul.
    if silenced if isinstance(silenced, bool) else silenced.any():
        errs[:, silenced] = 0.0
    return errs


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


def team_trigger(params: TriggerParams, gains: AlgorithmParams, n_agents: int,
                 q: int, step: float, eta_rows):
    """The dynamic event trigger of a whole team, as ``(decide, refresh)``:
    two functions compiled once per run from straight-line float statements,
    as ``cost.team_theta`` is, which share the trigger's state.

    The state is the broadcast table (each agent's last successful broadcast
    of y and rho + z), the thresholds ``theta_g |e_y|^2`` and ``theta_h
    |e_s|^2`` of its consensus errors, the trigger variables eta_g and eta_h,
    and the retry time of every frozen agent: an agent is frozen exactly
    when its last attempt was attacked.  Values are flat lists over the
    stacked (2, N, q) tables (y or g in row 0, rho + z or h in row 1).

    ``decide(live, t, k, attacked)`` takes the live table as a list at grid
    point ``k`` (time ``t``) and writes eta into ``eta_rows[k]``.  It forms
    the trigger functions ``g = |y_hat - y|^2 - theta_g |e_y|^2`` and the
    same h over rho + z.  Every agent fires at k = 0; after that an agent
    fires when ``sigma_g g > eta_g`` or ``sigma_h h > eta_h``, and a frozen
    one instead retries once ``t`` reaches its attack time plus
    ``dwell_kappa`` (less ``RETRY_SLACK``).  On a quiet step it advances eta
    by the exact flow of ``d eta = -k eta - delta gh`` over the step,
    ``decay eta - gain gh`` with ``eta_flow``'s coefficients (Girard,
    "Dynamic triggering mechanisms for event-triggered control", IEEE TAC
    2015), frozen agents keeping theirs, and returns None.  Otherwise it
    returns the fired agents' indices, after recording each attempt: an
    attacked one freezes the agent, a successful one enters its live values
    into the table and unfreezes it.  With ``k`` None it only advances eta.

    ``refresh(lap, live)`` computes the consensus errors of the table on
    the Laplacian ``lap`` (``consensus_errors``; frozen agents' rows are
    zeros) and from them the thresholds, and returns what is frozen over the
    step: the consensus part of theta, ``(-beta e_s) + (-alpha beta e_y)``,
    as a list, and z's increment ``(-step) (-alpha beta e_y)`` as an array.
    After a firing, ``live`` is the step's table and refresh then advances
    eta as a quiet step does, against the new table and thresholds; at a
    graph switch it is None.

    Every value is the one the team's numpy expressions give, bit for bit:
    the same float operations in the same order, with each squared size
    summed in ``np.add.reduce``'s order (``_add_reduce``).
    """
    big_n, nq = n_agents, n_agents * q
    decay, gain = (column.tolist() for column in eta_flow(params, step))
    namespace = {
        "sg": params.sigma_g, "sh": params.sigma_h, "kappa": params.dwell_kappa,
        "slack": RETRY_SLACK, "tg": params.theta_g, "th": params.theta_h,
        "dg": decay[0][0], "dh": decay[1][0], "kg": gain[0][0], "kh": gain[1][0],
        "nb": -gains.beta, "nab": -(gains.alpha * gains.beta), "nh": -step,
        "array": np.array, "consensus_errors": consensus_errors, "eta_rows": eta_rows,
        "hat": [0.0] * (2 * nq), "thr": None, "retry": {},
        "frozen": np.zeros(big_n, dtype=bool),
        "eta": [params.eta_g0] * big_n + [params.eta_h0] * big_n,
    }
    # Row r of a (2, N) table is agent r % N's g (r < N) or h; its q values
    # in a flat (2, N, q) table start at r q.
    rows = range(2 * big_n)

    def squared_size(prefix, r):
        return _add_reduce([f"{prefix}{j} * {prefix}{j}" for j in range(r * q, r * q + q)])

    def g_or_h(r, g_name, h_name):
        return g_name if r < big_n else h_name

    trigger_values = [f"d{j} = a{j} - v{j}" for j in range(2 * nq)]
    trigger_values += [f"G{r} = {squared_size('d', r)} - T{r}" for r in rows]
    triggered = ", ".join(f"sg * G{i} > E{i} or sh * G{big_n + i} > E{big_n + i}"
                          for i in range(big_n))
    flowed = ", ".join(f"{g_or_h(r, 'dg', 'dh')} * E{r} - {g_or_h(r, 'kg', 'kh')} * G{r}"
                       for r in rows)
    decide = [
        "def decide(v, t, k, attacked):", "global eta",
        _names("v", 2 * nq) + "= v", _names("a", 2 * nq) + "= hat",
        _names("E", 2 * big_n) + "= eta", _names("T", 2 * big_n) + "= thr", *trigger_values,
        "fired = None",
        "if k:",
        "    eta_rows[k] = eta",
        f"    fires = [{triggered}]",
        "    for i, at in retry.items():",
        "        fires[i] = t >= at",
        "    if True in fires:",
        "        fired = [i for i, f in enumerate(fires) if f]",
        "elif k == 0:",
        "    eta_rows[0] = eta",
        f"    fired = list(range({big_n}))",
        "if fired:",
        "    for i in fired:",
        "        frozen[i] = attacked",
        "        if attacked:",
        "            retry[i] = t + kappa - slack",
        "        else:",
        "            retry.pop(i, None)",
        f"            for j in (i * {q}, i * {q} + {nq}):",
        f"                hat[j:j + {q}] = v[j:j + {q}]",
        "    return fired",
        f"flowed = [{flowed}]",
        "for i in retry:",
        f"    flowed[i], flowed[i + {big_n}] = eta[i], eta[i + {big_n}]",
        "eta = flowed",
        "return None"]
    decide = _compile(decide, namespace)
    # refresh reaches decide as its first argument, bound by partial: in the
    # namespace, decide would form a reference cycle with its own globals.
    refresh = [
        "def refresh(decide, lap, v):", "global thr",
        _names("e", 2 * nq) + f"= consensus_errors(lap, array(hat).reshape(2, {big_n}, {q}), "
        "frozen).ravel().tolist()",
        "thr = [" + ", ".join(f"{g_or_h(r, 'tg', 'th')} * {squared_size('e', r)}"
                              for r in rows) + "]",
        "if v is not None:",
        "    decide(v, None, None, None)",
        "return ([" + ", ".join(f"nb * e{nq + j} + nab * e{j}" for j in range(nq)) + "], "
        "array([" + ", ".join(f"nh * (nab * e{j})" for j in range(nq)) + "]))"]
    return decide, partial(_compile(refresh, namespace), decide)
