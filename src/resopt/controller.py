"""The three control laws as the vectorized pieces the integrator runs.

Every function here is side-effect free and works on the whole team at
once, and the integrator owns all mutable state.  The per-agent quantities
of the law come in stacked (2, N, q) tables, y in row 0 and rho + z in
row 1: the live values, the broadcast table of each agent's last
successful broadcast, and the consensus errors ``[e_y; e_s]``.  Trigger
functions and trigger variables are (2, N) tables, g and eta_g in row 0,
h and eta_h in row 1.  Consensus errors come in two flavors: the
time-based law reads live states, the event-based law only the broadcast
table.  The rows of silenced agents (the whole team while an attack
is active in the time-based law, an agent whose governing attempt was attacked
in the event-based law) are exact zeros, never merely small, so those agents
fall back to plain local gradient descent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

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

    @cached_property
    def sigmas(self):
        """``sigma_g`` and ``sigma_h`` as a (2, 1) column over the g and h rows."""
        return np.array([[self.sigma_g], [self.sigma_h]])

    @cached_property
    def thetas(self):
        """``theta_g`` and ``theta_h`` as a (2, 1) column."""
        return np.array([[self.theta_g], [self.theta_h]])


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


def trigger_threshold(errs, params: TriggerParams):
    """The trigger thresholds ``theta_g |e_y|^2`` (row 0) and ``theta_h
    |e_s|^2`` (row 1) of every agent, from the (2, N, q) errors ``[e_y; e_s]``,
    with Euclidean squared sizes over the q columns."""
    return params.thetas * np.add.reduce(errs * errs, 2)


def trigger_functions(hats, live, threshold):
    """The trigger functions of every agent, as a (2, N) table: row 0 is
    ``g``, row 1 is ``h``.

    ``hats`` and ``live`` are the (2, N, q) tables of the last broadcasts
    and the live values, y in row 0 and rho + z in row 1.  ``g`` compares
    the squared drift of y away from the agent's own last broadcast against
    its ``threshold`` (``trigger_threshold``); ``h`` does the same for rho + z.
    """
    drift = hats - live
    return np.add.reduce(drift * drift, 2) - threshold


def firing(first: bool, t: float, gh, eta, frozen, attacked_at,
           params: TriggerParams) -> np.ndarray:
    """Which agents attempt a broadcast at time ``t``, as an (N,) mask.

    ``gh`` and ``eta`` are (2, N) tables, g and eta_g in row 0, h and eta_h
    in row 1.  Every agent fires at the first grid point.  After that an
    agent fires when ``sigma_g * g > eta_g`` or ``sigma_h * h > eta_h``,
    unless it is ``frozen`` (False, or the (N,) mask of agents whose last
    attempt, at ``attacked_at``, fell under attack): then it retries once
    ``t`` reaches ``attacked_at + dwell_kappa``.  Right after a successful
    broadcast both drifts are zero and eta is positive, so it never fires.
    """
    if first:
        return np.ones(gh.shape[1], dtype=bool)
    triggered = np.logical_or.reduce(params.sigmas * gh > eta, 0)
    if frozen is False:
        return triggered
    retry = t >= attacked_at + params.dwell_kappa - RETRY_SLACK
    return np.where(frozen, retry, triggered)


def eta_flow(params: TriggerParams, step: float):
    """``(decay, gain)``, the (2, 1) columns over the g and h rows of the
    exact eta update over ``step``: ``decay = exp(-k step)`` and
    ``gain = delta (1 - decay) / k``."""
    rates = np.array([[params.k_g], [params.k_h]])
    deltas = np.array([[params.delta_g], [params.delta_h]])
    decay = np.exp(-rates * step)
    return decay, deltas * (1.0 - decay) / rates


def eta_step(eta, gh, frozen, flow):
    """The trigger variables one step later, as a (2, N) table.

    Between grid points ``d eta = -k eta - delta * gh`` with the trigger
    functions ``gh`` frozen (``k`` and ``delta`` are the g-row and h-row
    coefficients), a linear ODE with constant forcing.  Its exact flow over
    the step is ``decay eta - gain gh`` with ``flow = (decay, gain)`` from
    ``eta_flow`` (Girard, "Dynamic triggering mechanisms for event-triggered
    control", IEEE TAC 2015).  ``frozen`` is False or an (N,) mask, as in
    ``firing``; agents in the mask (governing attempt attacked) keep their
    trigger variables bit for bit.
    """
    decay, gain = flow
    flowed = decay * eta - gain * gh
    return flowed if frozen is False else np.where(frozen, eta, flowed)
