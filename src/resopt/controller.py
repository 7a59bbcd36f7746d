"""The three control laws as the vectorized pieces the integrator runs.

Every function here is side-effect free and works on the whole team at once:
per-agent values are the rows of (N, q) tables and the columns of the (2, N)
tables of trigger functions and trigger variables, and the integrator owns
all mutable state.  Consensus errors come in two flavors: the time-based law reads
live states, the event-based law only each agent's last successfully
broadcast values.  The rows of silenced agents (the whole team while an attack
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
    def columns(self):
        """``sigma``, ``delta`` and ``k`` as (2, 1) columns over the g and h rows."""
        return tuple(np.array([[a], [b]]) for a, b in (
            (self.sigma_g, self.sigma_h), (self.delta_g, self.delta_h),
            (self.k_g, self.k_h)))


def consensus_errors(lap: np.ndarray, s: np.ndarray, y: np.ndarray, silenced):
    """Consensus errors ``(lap @ s, lap @ y)`` of every agent.

    ``s`` stacks rho + z and ``y`` the outputs as (N, q) tables, live or
    broadcast; ``lap`` is the active graph's Laplacian.  ``silenced`` is a
    bool for the whole team or an (N,) mask; silenced rows are exactly 0.0.
    """
    e_s = lap @ s
    e_y = lap @ y
    if np.any(silenced):
        e_s[silenced] = 0.0
        e_y[silenced] = 0.0
    return e_s, e_y


def trigger_functions(s_hat, y_hat, s, y, e_s, e_y, params: TriggerParams):
    """The trigger functions of every agent, as a (2, N) table: row 0 is
    ``g``, row 1 is ``h``.

    ``g`` compares the squared drift of y away from the agent's own last
    broadcast ``y_hat`` against a fraction of its squared consensus error;
    ``h`` does the same for rho + z.  The squared sizes are Euclidean over
    the q columns.
    """
    drift_y = y_hat - y
    drift_s = s_hat - s
    g = (drift_y * drift_y).sum(axis=1) - params.theta_g * (e_y * e_y).sum(axis=1)
    h = (drift_s * drift_s).sum(axis=1) - params.theta_h * (e_s * e_s).sum(axis=1)
    return np.array((g, h))


def firing(first: bool, t: float, gh, eta, attacked_last, attacked_at,
           params: TriggerParams) -> np.ndarray:
    """Which agents attempt a broadcast at time ``t``, as an (N,) mask.

    ``gh`` and ``eta`` are (2, N) tables, g and eta_g in row 0, h and eta_h
    in row 1.  Every agent fires at the first grid point.  After that an
    agent fires when ``sigma_g * g > eta_g`` or ``sigma_h * h > eta_h``,
    unless its last attempt (at ``attacked_at``) fell under attack: then it
    retries once ``t`` reaches ``attacked_at + dwell_kappa``.  Right after a
    successful broadcast both drifts are zero and eta is positive, so it
    never fires.
    """
    if first:
        return np.ones(gh.shape[1], dtype=bool)
    sigmas = params.columns[0]
    triggered = (sigmas * gh > eta).any(axis=0)
    retry = t >= attacked_at + params.dwell_kappa - RETRY_SLACK
    return np.where(attacked_last, retry, triggered)


def eta_step(eta, gh, frozen, step: float, params: TriggerParams):
    """One RK4 step of ``d eta = -k eta - delta * gh`` on the (2, N) table of
    trigger variables, with the trigger functions ``gh`` frozen; ``k`` and
    ``delta`` are the g-row and h-row coefficients.

    Agents in the ``frozen`` mask (governing attempt attacked) keep their
    trigger variables.
    """
    _, deltas, rates = params.columns
    neg_rate, force = -rates, deltas * gh
    d1 = neg_rate * eta - force
    d2 = neg_rate * (eta + 0.5 * step * d1) - force
    d3 = neg_rate * (eta + 0.5 * step * d2) - force
    d4 = neg_rate * (eta + step * d3) - force
    return eta + np.where(frozen, 0.0, (step / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4))
