import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from conftest import THETA_STAR, load_workloads, reference_gradient
from resopt.cost import KINDS, CostSpec, centralized_optimum, team_theta, value
from resopt.errors import ResoptError, UnboundedObjectiveError, ValidationError


def gradient_of(cost):
    """One cost's gradient at a point of its dimension, as its team
    function computes it: ``-theta(y, 0.0)``."""
    q = cost.dimension
    theta, zeros, out = team_theta([cost], q), [0.0] * q, np.empty(q)

    def grad(y):
        theta(np.asarray(y, dtype=float).reshape(q), zeros, out)
        return -out

    return grad


def fd_gradient(cost, t, h=1e-6):
    return (value(cost, [t + h]) - value(cost, [t - h])) / (2.0 * h)


class TestGradient:
    def test_quartic_at_origin(self, demo_costs):
        assert gradient_of(demo_costs[1])([0.0])[0] == 0.0

    def test_log_quadratic_at_origin(self, demo_costs):
        assert gradient_of(demo_costs[2])([0.0])[0] == 0.0

    def test_exp_pair_at_origin(self, demo_costs):
        g = gradient_of(demo_costs[0])([0.0])[0]
        assert g == pytest.approx(1.15, abs=1e-12)
        assert g == pytest.approx(fd_gradient(demo_costs[0], 0.0), rel=1e-6)

    def test_non_finite_input_rejected(self, demo_costs):
        with pytest.raises(ValidationError):
            value(demo_costs[0], [math.inf])

    def test_finite_difference_suite(self, demo_costs):
        # analytic gradients vs central differences on 1000 random points
        rng = np.random.default_rng(99)
        for cost in demo_costs:
            grad = gradient_of(cost)
            points = rng.uniform(-8.0, 8.0, size=1000)
            for t in points:
                analytic = grad([t])[0]
                numeric = fd_gradient(cost, t)
                scale = max(1.0, abs(analytic))
                assert abs(analytic - numeric) / scale < 1e-6

    def test_custom_polynomial_general_dimension(self):
        c = CostSpec("custom_polynomial", (0.0, 0.0, 0.5), dimension=3)
        point = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(gradient_of(c)(point), point)
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
        grad = gradient_of(cost)
        for t in (-2.5, -0.3, 0.0, 0.7, 4.0):
            assert grad([t])[0] == pytest.approx(closed_form(t), rel=1e-12, abs=0.0)

    def test_exp_pair_past_overflow_guard_is_inf(self):
        cost = CostSpec("exp_pair", (1.0, 2.0, 0.5, 0.3))
        with pytest.raises(OverflowError):
            math.exp(2.0 * 400.0)
        assert gradient_of(cost)([400.0])[0] == math.inf

    @given(hs.lists(hs.floats(-5.0, 5.0), min_size=1, max_size=7),
           hs.lists(hs.floats(-30.0, 30.0), min_size=2, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_polynomial_rows_match_scalar_gradient(self, coefs, point):
        # one kernel serves every q: a q > 1 gradient is the q = 1 gradient
        # of each coordinate, bit for bit
        rows = gradient_of(CostSpec("custom_polynomial", tuple(coefs), len(point)))(point)
        scalar = gradient_of(CostSpec("custom_polynomial", tuple(coefs)))
        assert rows.shape == (len(point),)
        assert rows.tobytes() == np.array([scalar([t])[0] for t in point]).tobytes()


# Parameters at the edges of the float range, and points a step can hand the
# kernels: r t >= 700 (exp saturates to +inf), infinities and nan.
EDGE_PARAMETERS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -0.5]
EDGE_POINTS = [0.0, -0.0, 5e-324, 700.0, -1400.0, 1e308, math.inf, -math.inf, math.nan]
parameters = hs.one_of(hs.sampled_from(EDGE_PARAMETERS), hs.floats(-50.0, 50.0))
points = hs.one_of(hs.sampled_from(EDGE_POINTS), hs.floats(-30.0, 30.0), hs.floats())


@hs.composite
def cost_specs(draw, q=1):
    kind = draw(hs.sampled_from(KINDS if q == 1 else ("custom_polynomial",)))
    count = {"exp_pair": 4, "quartic": 3, "log_quadratic": 2}.get(kind) \
        or draw(hs.integers(1, 6))
    return CostSpec(kind, tuple(draw(hs.lists(parameters, min_size=count,
                                              max_size=count))), q)


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestTeamTheta:
    """A team's compiled function gives each scalar coordinate -grad + const
    bit for bit as ``reference_gradient`` does: the one kernel that the
    integrator and the optimum oracle both run."""

    @staticmethod
    def assert_matches_reference(q, agents):
        # each scalar coordinate of y, agent i's coordinate d at i q + d, runs
        # its agent's statements
        costs = [c for c, _, _ in agents]
        out = np.empty(len(costs) * q)
        team_theta(costs, q)(np.array([t for _, ts, _ in agents for t in ts]),
                             [k for _, _, ks in agents for k in ks], out)
        want = [-reference_gradient(c)(t) + k
                for c, ts, ks in agents for t, k in zip(ts, ks)]
        assert bits(out) == bits(want)

    @given(hs.lists(hs.tuples(cost_specs(), points, parameters), min_size=1, max_size=8))
    @settings(max_examples=400, deadline=None)
    def test_scalar_team_matches_each_kernel(self, agents):
        self.assert_matches_reference(1, [(c, [t], [k]) for c, t, k in agents])

    @given(hs.integers(2, 3).flatmap(lambda q: hs.tuples(
        hs.just(q), hs.lists(hs.tuples(cost_specs(q), hs.lists(points, min_size=q, max_size=q),
                                       hs.lists(parameters, min_size=q, max_size=q)),
                             min_size=1, max_size=6))))
    @settings(max_examples=300, deadline=None)
    def test_polynomial_coordinates_match_each_kernel(self, drawn):
        self.assert_matches_reference(*drawn)

    def test_bundled_team_on_random_points(self, demo_costs):
        rng = np.random.default_rng(16)
        for y in rng.uniform(-30.0, 30.0, (2000, len(demo_costs))):
            const = rng.standard_normal(len(demo_costs))
            self.assert_matches_reference(
                1, [(c, [t], [k]) for c, t, k in zip(demo_costs, y.tolist(), const.tolist())])

    def test_one_agent_and_signed_zero(self):
        out = np.empty(1)
        team_theta([CostSpec("quartic", (1.0, 2.0, 3.0))], 1)(np.array([0.0]), [-0.0], out)
        assert out[0] == 0.0 and np.signbit(out[0])

    def test_non_finite_and_signed_zero_bits(self, demo_costs):
        # every kind at nan, +-inf and +-0.0, with const +-0.0: the packed
        # outputs keep each double's bits, the sign of a zero and nan's too
        costs = [*demo_costs, CostSpec("custom_polynomial", (1.0, -2.0, 0.5, 3.0))]
        points = [math.nan, math.inf, -math.inf, 0.0, -0.0]
        team = [(c, t, k) for c in costs for t in points for k in (0.0, -0.0)]
        out = np.empty(len(team))
        team_theta([c for c, _, _ in team], 1)(np.array([t for _, t, _ in team]),
                                                [k for _, _, k in team], out)
        want = np.array([-reference_gradient(c)(t) + k for c, t, k in team])
        assert out.tobytes() == want.tobytes()
        assert np.isnan(out).any() and np.isinf(out).any() and np.signbit(out[out == 0]).any()

    def test_out_must_be_contiguous_float64_of_n(self, demo_costs):
        # the outputs are packed into out's buffer: a strided or short out is
        # refused before a byte is written
        theta = team_theta(demo_costs, 1)
        for out, error in ((np.empty(2 * len(demo_costs))[::2], TypeError),
                           (np.empty(len(demo_costs) - 1), struct.error)):
            out[:] = 7.0
            with pytest.raises(error):
                theta(np.array([0.5, -1.0, 2.0]), [0.0, 0.0, 0.0], out)
            assert out.tobytes() == np.full(out.size, 7.0).tobytes()

    def test_saturated_exponential_is_inf(self):
        out = np.empty(1)
        team_theta([CostSpec("exp_pair", (1.0, 2.0, 0.5, 0.3))], 1)(np.array([350.0]),
                                                                    [0.0], out)
        assert out[0] == -math.inf


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
        grads = [reference_gradient(c) for c in demo_costs]
        total = sum(g(theta) for g in grads)
        assert abs(total) < 1e-12
        # independent bisection oracle on [-1, 0]
        lo, hi = -1.0, 0.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if sum(g(mid) for g in grads) < 0.0:
                lo = mid
            else:
                hi = mid
        assert theta == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_pinned_reprs(self, demo_costs):
        # the oracle's bits on the preset costs, the ring16_bursty_dos
        # benchmark team and a q = 2 team
        data = Path(__file__).resolve().parent / "data"
        q2 = json.loads((data / "q2_event_based.json").read_text())["costs"]
        ring = load_workloads().ring_document(1, False)["costs"]

        def optimum(docs):
            return centralized_optimum(
                [CostSpec(d["kind"], tuple(d["parameters"]), d.get("dimension", 1))
                 for d in docs], 1e-12)

        assert repr(centralized_optimum(demo_costs, 1e-12)) == "-0.199822379305715"
        assert repr(optimum(ring)) == "-0.23979396496702066"
        assert repr(optimum(q2).tolist()) == "[-0.4570072679680379, -0.4570072679680379]"

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

    @given(hs.lists(hs.one_of(
        hs.lists(hs.floats(-5.0, 5.0), min_size=1, max_size=6),
        # convex quartics, some with zero curvature at the origin (t + t^4)
        hs.tuples(hs.floats(-5.0, 5.0), hs.floats(-5.0, 5.0), hs.floats(0.0, 5.0),
                  hs.just(0.0), hs.floats(0.01, 5.0)).map(list)), min_size=1, max_size=4),
        hs.sampled_from([2, 3]))
    @settings(max_examples=300, deadline=None)
    def test_every_q_repeats_the_scalar_root(self, team, q):
        def optimum(dimension):
            try:
                return centralized_optimum(
                    [CostSpec("custom_polynomial", tuple(c), dimension) for c in team])
            except ResoptError as exc:
                return type(exc)

        scalar, wide = optimum(1), optimum(q)
        if isinstance(scalar, type):
            assert wide is scalar
        else:
            assert bits(wide) == bits(np.full(q, scalar))


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

