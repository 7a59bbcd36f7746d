"""DoS attack schedules, activity queries, and resilience budget checks.

A schedule is an ordered list of half-open intervals ``[a_m, a_m + tau_m)``
during which every communication channel is down.  Budgets bound how often
and how long attacks may act: the frequency side requires a window-uniform
affine bound ``N_a(w) <= N0 + |w| / T_f`` with ``T_f`` above a threshold
``ln(mu)/eta*``, and the duration side requires
``|attacked time in w| <= T0 + |w| / T_a`` with ``T_a`` above
``(lambda_a + lambda_b) / (lambda_a - eta*)``.

An attack that straddles a window boundary is counted in the window holding
its start time, which keeps counts additive over adjacent windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# The most bursts a periodic template may expand to; a million expand in
# about 0.1 s.
MAX_PERIODIC_BURSTS = 10**6
# The most bursts a schedule may hold when a budget is checked against it:
# both checks are O(P^2) in the burst count P.  At this limit the duration
# check takes about 0.05 s and the frequency check 0.025 s (1000 bursts of
# 10 ms every 50 ms; 2-core x86_64 Xeon, Python 3.11, numpy 2.4).
MAX_BUDGET_BURSTS = 1000


@dataclass(frozen=True)
class AttackSchedule:
    """Strictly non-overlapping attack intervals ``(start, duration)``."""

    intervals: tuple
    horizon: float

    def __post_init__(self):
        ivals = tuple((float(a), float(tau)) for a, tau in self.intervals)
        if not self.horizon > 0.0:
            raise ValidationError("schedule horizon must be positive")
        prev_end = -math.inf
        for m, (a, tau) in enumerate(ivals):
            if tau < 0.0:
                raise ValidationError(f"attack {m} has negative duration {tau}")
            if a < 0.0:
                raise ValidationError(f"attack {m} starts before t=0")
            if not a > prev_end:
                raise ValidationError(
                    f"attack {m} at t={a} overlaps or touches the previous attack")
            prev_end = a + tau
        object.__setattr__(self, "intervals", ivals)
        object.__setattr__(self, "horizon", float(self.horizon))

    @classmethod
    def empty(cls, horizon: float) -> "AttackSchedule":
        return cls(intervals=(), horizon=horizon)

    @classmethod
    def periodic(cls, period: float, active: float, phase: float,
                 horizon: float) -> "AttackSchedule":
        """Expand a periodic on/off template into explicit intervals.

        Bursts start at ``phase + k * period`` for k = 0, 1, ... and last
        ``active`` seconds, clipped to the horizon.
        """
        if period <= 0.0 or active < 0.0 or phase < 0.0:
            raise ValidationError("periodic template needs period>0, active>=0, phase>=0")
        if active > period:
            raise ValidationError("periodic active time cannot exceed the period")
        if active == period:
            # full duty: the bursts touch, forming one continuous attack
            if phase >= horizon:
                return cls(intervals=(), horizon=horizon)
            return cls(intervals=((phase, horizon - phase),), horizon=horizon)
        # The template starts ceil(span) bursts; count them before expanding.
        span = (horizon - phase) / period
        if not span <= MAX_PERIODIC_BURSTS:
            count = math.ceil(span) if math.isfinite(span) else span
            raise ValidationError(
                f"periodic template starts {count} bursts within the horizon, "
                f"above the limit of {MAX_PERIODIC_BURSTS}")
        intervals = []
        k = 0
        while True:
            start = phase + k * period
            if start >= horizon:
                break
            if active > 0.0:
                intervals.append((start, min(active, horizon - start)))
            k += 1
        return cls(intervals=tuple(intervals), horizon=horizon)

    def starts(self) -> np.ndarray:
        return np.array([a for a, _ in self.intervals], dtype=float)

    def ends(self) -> np.ndarray:
        return np.array([a + tau for a, tau in self.intervals], dtype=float)


def activity_series(schedule: AttackSchedule, times: np.ndarray) -> np.ndarray:
    """Whether each of ``times`` lies inside some attack interval
    ``[a_m, a_m + tau_m)``: the integrator's grid and the CSVs' attack column.

    The intervals are sorted and disjoint, so only the last one starting at
    or before a time can hold it.
    """
    times = np.asarray(times, dtype=float)
    if not schedule.intervals:
        return np.zeros(times.shape, dtype=bool)
    last = np.searchsorted(schedule.starts(), times, side="right") - 1
    return (last >= 0) & (times < schedule.ends()[np.maximum(last, 0)])


@dataclass(frozen=True)
class AttackMetrics:
    count: int
    total_duration: float
    frequency: float


def attack_metrics(schedule: AttackSchedule, t1: float, t2: float) -> AttackMetrics:
    """Count, attacked time, and frequency of a schedule over ``[t1, t2)``.

    The count covers attacks starting in the window; the duration is the
    Lebesgue measure of attacked time inside it.
    """
    if not t2 > t1 or t1 < 0.0:
        raise ValidationError(f"window [{t1}, {t2}) must satisfy t2 > t1 >= 0")
    count = 0
    duration = 0.0
    for a, tau in schedule.intervals:
        if t1 <= a < t2:
            count += 1
        duration += max(0.0, min(a + tau, t2) - max(a, t1))
    return AttackMetrics(count=count, total_duration=duration,
                         frequency=count / (t2 - t1))


@dataclass(frozen=True)
class AttackBudget:
    """Resilience budget: decay/growth rates, jump factor, and slack terms.

    ``kappa_star`` is the worst-case retry dwell after an attacked
    transmission attempt; it only matters for the event-triggered variant,
    where every attack is inflated by ``kappa_star`` before the duration
    bound is checked and the frequency threshold grows accordingly.
    """

    lambda_a: float
    lambda_b: float
    mu: float
    eta_star: float
    n0: float = 1.0
    t0: float = 0.0
    kappa_star: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.eta_star < self.lambda_a):
            raise ValidationError("budget requires 0 < eta_star < lambda_a")
        if self.lambda_b <= 0.0:
            raise ValidationError("budget requires lambda_b > 0")
        if self.mu < 1.0:
            raise ValidationError("budget requires mu >= 1")
        if self.kappa_star < 0.0 or self.n0 < 0.0 or self.t0 < 0.0:
            raise ValidationError("budget requires kappa_star, n0, t0 >= 0")

    @property
    def t_f_star(self) -> float:
        return math.log(self.mu) / self.eta_star

    @property
    def t_f_star_event(self) -> float:
        return (math.log(self.mu)
                + (self.lambda_a + self.lambda_b) * self.kappa_star) / self.eta_star

    @property
    def t_a_star(self) -> float:
        return (self.lambda_a + self.lambda_b) / (self.lambda_a - self.eta_star)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one budget check over a window."""

    threshold: float     # T*_f or T*_a
    tightest: float      # largest T_f/T_a the schedule satisfies (inf if slack)
    passed: bool


def _merged_intervals(schedule: AttackSchedule, inflate: float):
    """Attack intervals, optionally inflated by ``inflate``, merged on overlap."""
    merged = []
    for a, tau in schedule.intervals:
        end = a + tau + inflate
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([a, end])
    return merged


def check_frequency_condition(schedule: AttackSchedule, budget: AttackBudget,
                              window, event_variant: bool = False) -> ConditionReport:
    """Check the attack-frequency budget over ``window``.

    The tightest admissible ``T_f`` maximizes ``(N_a(w) - N0) / |w|`` over
    all sub-windows whose endpoints are attack starts/ends or the window
    bounds; the check passes when that value strictly exceeds the threshold.
    """
    t1, t2 = float(window[0]), float(window[1])
    if not t2 > t1:
        raise ValidationError("window must satisfy t2 > t1")
    starts = schedule.starts()
    threshold = budget.t_f_star_event if event_variant else budget.t_f_star
    points = np.unique(np.clip(
        np.concatenate([[t1, t2], starts, schedule.ends()]), t1, t2))
    # Attacks starting before each point; [points[i], points[j]) holds
    # started[j] - started[i] of them.
    started = np.searchsorted(starts, points, side="left")
    best_rate = 0.0
    for i in range(len(points) - 1):
        excess = (started[i + 1:] - started[i]) - budget.n0
        over = excess > 0.0
        if over.any():
            rates = excess[over] / (points[i + 1:][over] - points[i])
            best_rate = max(best_rate, float(rates.max()))
    tightest = math.inf if best_rate == 0.0 else 1.0 / best_rate
    return ConditionReport(threshold=threshold, tightest=tightest,
                           passed=tightest > threshold)


def check_duration_condition(schedule: AttackSchedule, budget: AttackBudget,
                             window, event_variant: bool = False) -> ConditionReport:
    """Check the attack-duration budget over ``window``.

    The tightest admissible ``T_a`` maximizes
    ``(|attacked time in w| - T0) / |w|`` over all sub-windows whose
    endpoints are attack starts/ends or the window bounds.  With
    ``event_variant`` every attack is first extended by ``kappa_star`` (the
    retry dwell keeps errors zeroed a little past each burst), so the check
    is never more permissive than the plain one.

    For each left endpoint ``lo``, the attacked time of the intervals
    ending at or before each right endpoint is a prefix sum of the
    intervals' terms ``b - max(a, lo)``, added in schedule order from 0.0 by
    ``np.cumsum`` (a sequential add.accumulate); the interval still open at
    the right endpoint adds its part last.  These are the float additions of
    a direct per-window sum over the schedule, so ``tightest`` is
    bit-identical to measuring every sub-window separately, in O(P^2) for
    P endpoints.
    """
    t1, t2 = float(window[0]), float(window[1])
    if not t2 > t1:
        raise ValidationError("window must satisfy t2 > t1")
    inflate = budget.kappa_star if event_variant else 0.0
    merged = np.array(_merged_intervals(schedule, inflate)).reshape(-1, 2)
    starts, ends = merged.T
    points = np.unique(np.clip(np.concatenate([[t1, t2], merged.ravel()]), t1, t2))
    # Intervals ending at or before each point; the next one may be open there.
    closed_at = np.searchsorted(ends, points, side="right")
    next_start = np.append(starts, np.inf)[closed_at]

    best_rate = 0.0
    for i, lo in enumerate(points[:-1].tolist()):
        m, his = closed_at[i], points[i + 1:]
        closed = np.cumsum(np.concatenate(([0.0], ends[m:] - np.maximum(starts[m:], lo))))
        closed = closed[closed_at[i + 1:] - m]
        tail = next_start[i + 1:]
        attacked = np.where(tail < his, closed + (his - np.maximum(tail, lo)), closed)
        excess = attacked - budget.t0
        over = excess > 0.0
        if over.any():
            best_rate = max(best_rate, float((excess[over] / (his[over] - lo)).max()))
    tightest = math.inf if best_rate == 0.0 else 1.0 / best_rate
    return ConditionReport(threshold=budget.t_a_star, tightest=tightest,
                           passed=tightest > budget.t_a_star)
