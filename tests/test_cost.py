import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from conftest import THETA_STAR
from resopt.cost import (CostSpec, centralized_optimum, estimate_regularity,
                         gradient, second_derivative, value)
from resopt.errors import (ConvexityViolatedError, UnboundedObjectiveError,
                           ValidationError)


def fd_gradient(cost, t, h=1e-6):
    return (value(cost, [t + h]) - value(cost, [t - h])) / (2.0 * h)


class TestGradient:
    def test_quartic_at_origin(self, demo_costs):
        assert gradient(demo_costs[1], [0.0])[0] == 0.0

    def test_log_quadratic_at_origin(self, demo_costs):
        assert gradient(demo_costs[2], [0.0])[0] == 0.0

    def test_exp_pair_at_origin(self, demo_costs):
        g = gradient(demo_costs[0], [0.0])[0]
        assert g == pytest.approx(1.15, abs=1e-12)
        assert g == pytest.approx(fd_gradient(demo_costs[0], 0.0), rel=1e-6)

    def test_non_finite_input_rejected(self, demo_costs):
        with pytest.raises(ValidationError):
            gradient(demo_costs[0], [math.inf])

    def test_finite_difference_suite(self, demo_costs):
        # analytic gradients vs central differences on 1000 random points
        rng = np.random.default_rng(99)
        for cost in demo_costs:
            points = rng.uniform(-8.0, 8.0, size=1000)
            for t in points:
                analytic = gradient(cost, [t])[0]
                numeric = fd_gradient(cost, t)
                scale = max(1.0, abs(analytic))
                assert abs(analytic - numeric) / scale < 1e-6

    def test_custom_polynomial_general_dimension(self):
        c = CostSpec("custom_polynomial", (0.0, 0.0, 0.5), dimension=3)
        point = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(gradient(c, point), point)
        assert value(c, point) == pytest.approx(0.5 * np.sum(point ** 2))

    @pytest.mark.parametrize("kind", ["exp_pair", "quartic", "log_quadratic",
                                      "custom_polynomial"])
    def test_every_kind_matches_closed_form(self, kind):
        # the kernels fold constant factors, so they agree with the textbook
        # formulas up to rounding
        p = {"exp_pair": (1.0, 0.5, -2.0, -0.25), "quartic": (1.0, -2.0, 3.0),
             "log_quadratic": (0.5, 1.0),
             "custom_polynomial": (1.0, -3.0, 0.5, 2.0)}[kind]
        cost = CostSpec(kind, p)
        closed_form = {
            "exp_pair": lambda t: (p[0] * p[1] * math.exp(p[1] * t)
                                   + p[2] * p[3] * math.exp(p[3] * t)),
            "quartic": lambda t: 4.0 * p[0] * t ** 3 + 2.0 * p[1] * t,
            "log_quadratic": lambda t: (2.0 * p[0] * t * math.log1p(t * t)
                                        + 2.0 * p[0] * t ** 3 / (1.0 + t * t)
                                        + 2.0 * p[1] * t),
            "custom_polynomial": lambda t: p[1] + 2.0 * p[2] * t + 3.0 * p[3] * t ** 2,
        }[kind]
        for t in (-2.5, -0.3, 0.0, 0.7, 4.0):
            assert gradient(cost, [t])[0] == pytest.approx(closed_form(t),
                                                           rel=1e-12, abs=0.0)
            assert cost.grad(t) == gradient(cost, [t])[0]

    def test_exp_pair_past_overflow_guard_is_inf(self):
        cost = CostSpec("exp_pair", (1.0, 2.0, 0.5, 0.3))
        with pytest.raises(OverflowError):
            math.exp(2.0 * 400.0)
        assert gradient(cost, [400.0])[0] == math.inf

    @given(hs.lists(hs.floats(-5.0, 5.0), min_size=1, max_size=7),
           hs.lists(hs.floats(-30.0, 30.0), min_size=2, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_polynomial_rows_match_scalar_gradient(self, coefs, point):
        # one kernel serves every q: a q > 1 gradient is the q = 1 gradient
        # of each coordinate, bit for bit
        wide = CostSpec("custom_polynomial", tuple(coefs), dimension=len(point))
        scalar = CostSpec("custom_polynomial", tuple(coefs))
        rows = gradient(wide, point)
        assert rows.shape == (len(point),)
        want = np.array([gradient(scalar, [t])[0] for t in point])
        assert rows.tobytes() == want.tobytes()


class TestEstimateRegularity:
    def test_quartic_on_unit_box(self, demo_costs):
        est = estimate_regularity(demo_costs[1], (-1.0, 1.0))
        assert est.iota == pytest.approx(4.0, abs=1e-4)
        assert est.lipschitz == pytest.approx(16.0)

    def test_pure_quadratic(self):
        c = CostSpec("custom_polynomial", (0.0, 0.0, 0.5))
        est = estimate_regularity(c, (-5.0, 5.0))
        assert est.iota == pytest.approx(1.0)
        assert est.lipschitz == pytest.approx(1.0)

    def test_exp_pair_not_convex_near_origin(self, demo_costs):
        # the first bundled cost has negative curvature left of t ~ 3, so the
        # strong-convexity scan must refuse rather than report a bogus bound
        with pytest.raises(ConvexityViolatedError):
            estimate_regularity(demo_costs[0], (-2.0, 2.0))

    def test_exp_pair_convex_far_right(self, demo_costs):
        est = estimate_regularity(demo_costs[0], (4.0, 6.0))
        assert est.iota > 0.0

    def test_curvature_sandwich_property(self, demo_costs):
        # iota |x-y|^2 <= (x-y)(grad x - grad y) <= lipschitz |x-y|^2
        cost = demo_costs[1]
        est = estimate_regularity(cost, (-3.0, 3.0))
        rng = np.random.default_rng(1)
        for _ in range(1000):
            a, b = rng.uniform(-3.0, 3.0, size=2)
            if a == b:
                continue
            inner = (a - b) * (gradient(cost, [a])[0] - gradient(cost, [b])[0])
            gap = (a - b) ** 2
            assert est.iota * gap <= inner + 1e-9
            assert inner <= est.lipschitz * gap + 1e-9


class TestCentralizedOptimum:
    def test_single_quartic(self, demo_costs):
        assert centralized_optimum([demo_costs[1]], 1e-12) == pytest.approx(0.0, abs=1e-12)

    def test_two_shifted_quadratics(self):
        costs = [CostSpec("custom_polynomial", (0.0, 0.0, 0.5)),
                 CostSpec("custom_polynomial", (2.0, -2.0, 0.5))]
        assert centralized_optimum(costs, 1e-12) == pytest.approx(1.0, abs=1e-10)

    def test_bundled_costs_match_pinned_root(self, demo_costs):
        theta = centralized_optimum(list(demo_costs), 1e-12)
        assert -1.0 < theta < 0.0
        assert theta == pytest.approx(THETA_STAR, abs=1e-10)
        total = sum(gradient(c, [theta])[0] for c in demo_costs)
        assert abs(total) < 1e-12
        # independent bisection oracle on [-1, 0]
        lo, hi = -1.0, 0.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if sum(gradient(c, [mid])[0] for c in demo_costs) < 0.0:
                lo = mid
            else:
                hi = mid
        assert theta == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_perturbation_confirms_minimum(self, demo_costs):
        tol = 1e-12
        theta = centralized_optimum(list(demo_costs), tol)
        at = sum(value(c, [theta]) for c in demo_costs)
        for sign in (-1.0, 1.0):
            shifted = sum(value(c, [theta + sign * 10 * max(tol, 1e-9)])
                          for c in demo_costs)
            assert shifted > at

    def test_monotone_cost_unbounded(self):
        c = CostSpec("custom_polynomial", (0.0, 1.0))  # f(t) = t
        with pytest.raises(UnboundedObjectiveError):
            centralized_optimum([c], 1e-12)

    def test_multidimensional_newton(self):
        costs = [CostSpec("custom_polynomial", (0.0, 0.0, 0.5), dimension=2),
                 CostSpec("custom_polynomial", (0.0, -1.0, 0.5), dimension=2)]
        point = centralized_optimum(costs, 1e-10)
        np.testing.assert_allclose(point, [0.5, 0.5], atol=1e-8)


class TestCostSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            CostSpec("cubic", (1.0,))

    def test_wrong_parameter_count(self):
        with pytest.raises(ValidationError):
            CostSpec("exp_pair", (1.0, 2.0))

    def test_scalar_kinds_fixed_dimension(self):
        with pytest.raises(ValidationError):
            CostSpec("quartic", (1.0, 2.0, 2.0), dimension=2)

    def test_second_derivative_quartic(self, demo_costs):
        assert second_derivative(demo_costs[1], [1.0])[0] == pytest.approx(16.0)
