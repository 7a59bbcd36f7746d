import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resopt.attack import (MAX_PERIODIC_BURSTS, AttackBudget, AttackSchedule,
                           _merged_intervals, activity_series, attack_active,
                           attack_metrics, check_duration_condition,
                           check_frequency_condition)
from resopt.errors import ValidationError


@st.composite
def schedules(draw, horizon=100.0, max_attacks=6):
    n = draw(st.integers(0, max_attacks))
    t = 0.0
    intervals = []
    for _ in range(n):
        gap = draw(st.floats(0.01, 10.0, allow_nan=False))
        tau = draw(st.floats(0.0, 8.0, allow_nan=False))
        start = t + gap
        if start + tau >= horizon:
            break
        intervals.append((start, tau))
        t = start + tau
    return AttackSchedule(intervals=tuple(intervals), horizon=horizon)


class TestScheduleInvariants:
    def test_overlap_rejected(self):
        with pytest.raises(ValidationError):
            AttackSchedule(intervals=((0.0, 2.0), (1.5, 1.0)), horizon=10.0)

    def test_touching_rejected(self):
        # a_{m+1} must be strictly after the previous attack ends
        with pytest.raises(ValidationError):
            AttackSchedule(intervals=((0.0, 2.0), (2.0, 1.0)), horizon=10.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValidationError):
            AttackSchedule(intervals=((1.0, -0.5),), horizon=10.0)

    def test_periodic_expansion(self):
        sched = AttackSchedule.periodic(period=10.0, active=2.0, phase=3.0,
                                        horizon=25.0)
        assert sched.intervals == ((3.0, 2.0), (13.0, 2.0), (23.0, 2.0))

    def test_periodic_at_burst_limit_expands(self):
        sched = AttackSchedule.periodic(period=1.0, active=0.5, phase=0.0,
                                        horizon=float(MAX_PERIODIC_BURSTS))
        assert len(sched.intervals) == MAX_PERIODIC_BURSTS
        assert sched.intervals[-1] == (MAX_PERIODIC_BURSTS - 1.0, 0.5)

    @pytest.mark.parametrize("period", [1.0 - 1e-9, 1e-12, math.nan])
    def test_periodic_above_burst_limit_refused(self, period):
        with pytest.raises(ValidationError, match=f"limit of {MAX_PERIODIC_BURSTS}"):
            AttackSchedule.periodic(period=period, active=0.0, phase=0.0,
                                    horizon=float(MAX_PERIODIC_BURSTS))


class TestAttackActive:
    def test_empty_schedule(self):
        sched = AttackSchedule.empty(10.0)
        assert not attack_active(sched, 5.0)

    def test_half_open_interval(self):
        sched = AttackSchedule(intervals=((2.0, 1.0),), horizon=10.0)
        assert attack_active(sched, 2.5)
        assert attack_active(sched, 2.0)
        assert not attack_active(sched, 3.0)

    def test_out_of_range(self):
        sched = AttackSchedule.empty(10.0)
        with pytest.raises(ValidationError):
            attack_active(sched, 11.0)
        with pytest.raises(ValidationError):
            attack_active(sched, -0.1)

    def test_bundled_case2_pattern(self):
        from resopt.cli import preset_scenario
        scen = preset_scenario("case2").scenario
        sched = scen.attack_schedule
        for a, tau in sched.intervals:
            assert attack_active(sched, a)
            assert attack_active(sched, a + 0.5 * tau)
            assert not attack_active(sched, a + tau)
            assert not attack_active(sched, a - 0.25)


def reference_activity_series(schedule, times):
    """One full-grid mask per burst, ORed together."""
    times = np.asarray(times, dtype=float)
    active = np.zeros(times.shape, dtype=bool)
    for a, tau in schedule.intervals:
        active |= (times >= a) & (times < a + tau)
    return active


@st.composite
def schedules_and_grids(draw):
    """A schedule whose bursts may be empty or clipped at the horizon, and a
    sorted grid holding every burst's start and end and their neighbours."""
    horizon = draw(st.floats(0.5, 50.0))
    intervals, t = [], 0.0
    for _ in range(draw(st.integers(0, 12))):
        start = t + draw(st.floats(0.0, 5.0)) + (1e-3 if intervals else 0.0)
        if start >= horizon:
            break
        tau = draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
        tau = min(tau, horizon - start)
        intervals.append((start, tau))
        t = start + tau
    schedule = AttackSchedule(intervals=tuple(intervals), horizon=horizon)
    edges = np.concatenate([schedule.starts(), schedule.ends()])
    grid = np.concatenate([
        np.linspace(0.0, horizon, draw(st.integers(1, 300))), edges,
        np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    return schedule, np.sort(grid)


class TestActivitySeries:
    @settings(max_examples=300, deadline=None)
    @given(schedules_and_grids())
    def test_matches_per_burst_masks(self, case):
        schedule, times = case
        got = activity_series(schedule, times)
        assert got.dtype == np.bool_
        np.testing.assert_array_equal(got, reference_activity_series(schedule, times))

    def test_edges_and_empty_schedule(self):
        sched = AttackSchedule(intervals=((1.0, 0.0), (2.0, 1.0), (4.0, 1.0)),
                               horizon=5.0)
        times = np.array([0.0, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 4.5, 5.0])
        assert activity_series(sched, times).tolist() == \
            [False, False, False, True, True, False, True, True, False]
        empty = activity_series(AttackSchedule.empty(5.0), times)
        assert empty.shape == times.shape and not empty.any()

    def test_many_bursts(self):
        sched = AttackSchedule.periodic(period=5e-4, active=2e-4, phase=1e-4,
                                        horizon=15.0)
        times = np.linspace(0.0, 15.0, 15_001)
        np.testing.assert_array_equal(activity_series(sched, times),
                                      reference_activity_series(sched, times))


class TestAttackMetrics:
    def test_empty(self):
        m = attack_metrics(AttackSchedule.empty(10.0), 0.0, 10.0)
        assert (m.count, m.total_duration, m.frequency) == (0, 0.0, 0.0)

    def test_single_interval(self):
        sched = AttackSchedule(intervals=((2.0, 1.0),), horizon=10.0)
        m = attack_metrics(sched, 0.0, 10.0)
        assert m.count == 1
        assert m.total_duration == pytest.approx(1.0)
        assert m.frequency == pytest.approx(0.1)

    def test_bad_window(self):
        with pytest.raises(ValidationError):
            attack_metrics(AttackSchedule.empty(10.0), 5.0, 5.0)

    def test_bundled_case2_frequency_bound(self):
        from resopt.cli import preset_scenario
        scen = preset_scenario("case2").scenario
        m = attack_metrics(scen.attack_schedule, 0.0, 100.0)
        assert m.frequency <= 0.01

    @given(schedules(), st.floats(0.0, 50.0), st.floats(0.1, 25.0),
           st.floats(0.1, 24.0))
    @settings(max_examples=100, deadline=None)
    def test_additive_over_adjacent_windows(self, sched, t1, d1, d2):
        t2, t3 = t1 + d1, t1 + d1 + d2
        left = attack_metrics(sched, t1, t2)
        right = attack_metrics(sched, t2, t3)
        both = attack_metrics(sched, t1, t3)
        assert left.count + right.count == both.count
        assert left.total_duration + right.total_duration == \
            pytest.approx(both.total_duration, abs=1e-12)

    @given(schedules(), st.floats(0.0, 50.0), st.floats(0.1, 49.0))
    @settings(max_examples=100, deadline=None)
    def test_duration_bounded_by_window(self, sched, t1, d):
        m = attack_metrics(sched, t1, t1 + d)
        assert m.total_duration <= d + 1e-12


def budget(**kw):
    base = dict(lambda_a=0.6, lambda_b=0.5, mu=math.e, eta_star=0.05,
                n0=1.0, t0=0.0, kappa_star=0.0)
    base.update(kw)
    return AttackBudget(**base)


class TestFrequencyCondition:
    def test_empty_schedule_passes(self):
        rep = check_frequency_condition(AttackSchedule.empty(100.0), budget(),
                                        (0.0, 100.0))
        assert rep.passed and rep.tightest == math.inf

    def test_mu_one_always_passes(self):
        sched = AttackSchedule(intervals=tuple((5.0 + 10.0 * k, 1.0)
                                               for k in range(9)), horizon=100.0)
        rep = check_frequency_condition(sched, budget(mu=1.0), (0.0, 100.0))
        assert rep.threshold == 0.0
        assert rep.passed

    def test_ten_uniform_attacks_fail(self):
        # 10 attacks spread over 100 s; with N0=1 the densest window admits
        # T_f of roughly 100/9, below the threshold ln(e)/0.05 = 20
        sched = AttackSchedule(intervals=tuple((5.0 + 10.0 * k, 1.0)
                                               for k in range(10)), horizon=100.0)
        rep = check_frequency_condition(sched, budget(mu=math.e, eta_star=0.05),
                                        (0.0, 100.0))
        assert rep.threshold == pytest.approx(20.0)
        assert 9.0 < rep.tightest < 12.0
        assert not rep.passed

    def test_event_variant_raises_threshold(self):
        sched = AttackSchedule.empty(100.0)
        b = budget(kappa_star=0.5)
        plain = check_frequency_condition(sched, b, (0.0, 100.0))
        event = check_frequency_condition(sched, b, (0.0, 100.0),
                                          event_variant=True)
        assert event.threshold > plain.threshold


class TestDurationCondition:
    def test_empty_schedule_passes(self):
        rep = check_duration_condition(AttackSchedule.empty(50.0), budget(),
                                       (0.0, 50.0))
        assert rep.passed

    def test_always_on_fails(self):
        sched = AttackSchedule(intervals=((0.0, 50.0),), horizon=50.0)
        rep = check_duration_condition(sched, budget(t0=0.0), (0.0, 50.0))
        assert rep.tightest == pytest.approx(1.0)
        assert rep.threshold > 1.0  # lambda_b > 0 forces T*_a above one
        assert not rep.passed

    def test_case2_budget_threshold_is_two(self):
        from resopt.cli import preset_scenario
        loaded = preset_scenario("case2")
        rep = check_duration_condition(loaded.scenario.attack_schedule,
                                       loaded.budget, (0.0, 210.0))
        assert rep.threshold == pytest.approx(2.0)
        assert rep.passed

    @given(schedules(), st.floats(0.05, 2.0), st.floats(0.0, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_event_variant_never_more_permissive(self, sched, kappa, t0):
        b = budget(kappa_star=kappa, t0=t0)
        plain = check_duration_condition(sched, b, (0.0, 100.0))
        event = check_duration_condition(sched, b, (0.0, 100.0),
                                         event_variant=True)
        assert event.tightest <= plain.tightest + 1e-9
        if event.passed:
            assert plain.passed


def reference_tightest_t_f(schedule, budget, window):
    """Reference frequency check: every endpoint pair, each count looked up
    separately (O(P^2 log P))."""
    t1, t2 = float(window[0]), float(window[1])
    starts = schedule.starts()
    points = np.unique(np.clip(
        np.concatenate([[t1, t2], starts, schedule.ends()]), t1, t2))
    best_rate = 0.0
    for i in range(len(points)):
        lo = np.searchsorted(starts, points[i], side="left")
        for j in range(i + 1, len(points)):
            hi = np.searchsorted(starts, points[j], side="left")
            excess = (hi - lo) - budget.n0
            if excess > 0.0:
                best_rate = max(best_rate, excess / (points[j] - points[i]))
    return math.inf if best_rate == 0.0 else 1.0 / best_rate


def reference_tightest_t_a(schedule, budget, window, event_variant):
    """Reference duration check: every endpoint pair, each attacked time
    summed over every interval (O(P^3))."""
    t1, t2 = float(window[0]), float(window[1])
    inflate = budget.kappa_star if event_variant else 0.0
    merged = _merged_intervals(schedule, inflate)
    points = np.unique(np.clip(
        np.concatenate([[t1, t2]] + [[a, b] for a, b in merged]) if merged
        else np.array([t1, t2]), t1, t2))

    def measure(lo, hi):
        return sum(max(0.0, min(b, hi) - max(a, lo)) for a, b in merged)

    best_rate = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            excess = measure(points[i], points[j]) - budget.t0
            if excess > 0.0:
                best_rate = max(best_rate, excess / (points[j] - points[i]))
    return math.inf if best_rate == 0.0 else 1.0 / best_rate


class TestBudgetChecksMatchReference:
    """The budget checks report the reference loops' tightest values bit for
    bit: conditions.csv prints them with full precision."""

    @given(schedules(max_attacks=12),
           st.sampled_from([0.0, 1.0, 2.5]), st.sampled_from([0.0, 0.02, 1.5]),
           st.floats(0.0, 2.0), st.floats(0.0, 40.0), st.floats(0.5, 100.0),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_tightest_equal(self, sched, n0, t0, kappa, t1, width, event_variant):
        # windows starting and ending inside bursts clip them at both ends
        b = budget(n0=n0, t0=t0, kappa_star=kappa)
        window = (t1, t1 + width)
        freq = check_frequency_condition(sched, b, window, event_variant)
        dur = check_duration_condition(sched, b, window, event_variant)
        assert freq.tightest == reference_tightest_t_f(sched, b, window)
        assert dur.tightest == reference_tightest_t_a(sched, b, window,
                                                      event_variant)

    @pytest.mark.parametrize("event_variant", [False, True])
    def test_empty_schedule(self, event_variant):
        sched = AttackSchedule.empty(30.0)
        b = budget(n0=0.0, t0=0.0, kappa_star=0.5)
        freq = check_frequency_condition(sched, b, (0.0, 30.0), event_variant)
        dur = check_duration_condition(sched, b, (0.0, 30.0), event_variant)
        assert freq.tightest == reference_tightest_t_f(sched, b, (0.0, 30.0)) \
            == math.inf
        assert dur.tightest == reference_tightest_t_a(sched, b, (0.0, 30.0),
                                                      event_variant) == math.inf

    @pytest.mark.parametrize("event_variant", [False, True])
    def test_window_inside_one_burst(self, event_variant):
        sched = AttackSchedule(intervals=((1.0, 0.2), (2.0, 5.0)), horizon=10.0)
        b = budget(n0=0.0, t0=0.0, kappa_star=0.3)
        window = (2.5, 6.25)
        dur = check_duration_condition(sched, b, window, event_variant)
        assert dur.tightest == reference_tightest_t_a(sched, b, window,
                                                      event_variant) == 1.0

    @pytest.mark.parametrize("event_variant", [False, True])
    def test_many_short_bursts(self, event_variant):
        # 105 bursts of 10 ms, the benchmark's bursty pattern
        sched = AttackSchedule.periodic(period=0.05, active=0.01, phase=0.025,
                                        horizon=5.25)
        b = budget(mu=1.001, n0=1.0, t0=0.02, kappa_star=0.004)
        window = (0.0, 5.25)
        freq = check_frequency_condition(sched, b, window, event_variant)
        dur = check_duration_condition(sched, b, window, event_variant)
        assert freq.tightest == reference_tightest_t_f(sched, b, window)
        assert dur.tightest == reference_tightest_t_a(sched, b, window,
                                                      event_variant)


class TestBudgetValidation:
    def test_eta_star_below_lambda_a(self):
        with pytest.raises(ValidationError):
            AttackBudget(lambda_a=0.1, lambda_b=0.5, mu=2.0, eta_star=0.2)

    def test_mu_at_least_one(self):
        with pytest.raises(ValidationError):
            AttackBudget(lambda_a=0.6, lambda_b=0.5, mu=0.5, eta_star=0.05)
