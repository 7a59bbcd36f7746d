"""Per-agent convex costs: values, analytic gradients, curvature bounds, and
a centralized optimum oracle.

Four cost kinds are supported.  ``exp_pair``, ``quartic`` and
``log_quadratic`` are scalar (q = 1) with parameters

    exp_pair       c1 * exp(r1*t) + c2 * exp(r2*t)      params (c1, r1, c2, r2)
    quartic        a*t^4 + b*t^2 + c                    params (a, b, c)
    log_quadratic  a*t^2*log(1+t^2) + b*t^2             params (a, b)

``custom_polynomial`` takes coefficients (c0, c1, ...) of a one-variable
polynomial applied separably to each coordinate, so it works for any q.

Each cost's gradient is written once, as the kernel ``CostSpec.grad``, and
``gradient`` is that kernel behind a point check.  The integrator (``sim``)
calls the kernel directly and the q = 1 oracle bisects on the kernels' sum,
so both evaluate the same floating-point expressions.

Regularity constants are estimated on a user-declared working box rather
than globally; several interesting costs have gradients that are only
locally Lipschitz, and one of the bundled ones is not even convex on the
whole line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (ConvexityViolatedError, UnboundedObjectiveError,
                     ValidationError)

KINDS = ("exp_pair", "quartic", "log_quadratic", "custom_polynomial")
_PARAM_COUNTS = {"exp_pair": 4, "quartic": 3, "log_quadratic": 2}
REGULARITY_GRID = 10_000
_BRACKET_LIMIT = 1e10


def _exp(v: float) -> float:
    """exp that saturates to +inf instead of raising on huge arguments."""
    return math.exp(v) if v < 700.0 else math.inf


@dataclass(frozen=True)
class CostSpec:
    """A cost function's kind, coefficients, and decision dimension."""

    kind: str
    parameters: tuple
    dimension: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown cost kind {self.kind!r}; expected one of {KINDS}")
        params = tuple(float(v) for v in self.parameters)
        if not all(math.isfinite(v) for v in params):
            raise ValidationError("cost parameters must be finite")
        want = _PARAM_COUNTS.get(self.kind)
        if want is not None and len(params) != want:
            raise ValidationError(
                f"{self.kind} takes {want} parameters, got {len(params)}")
        if self.kind == "custom_polynomial" and len(params) == 0:
            raise ValidationError("custom_polynomial needs at least one coefficient")
        if self.dimension < 1:
            raise ValidationError("cost dimension must be >= 1")
        if self.kind != "custom_polynomial" and self.dimension != 1:
            raise ValidationError(f"{self.kind} is a scalar (q = 1) cost")
        object.__setattr__(self, "parameters", params)

    @cached_property
    def grad(self):
        """The gradient kernel, built once: a function of a float t (for
        custom_polynomial also elementwise of a (q,) array, returning a float
        below degree 2).  t is not checked; exp saturates to +inf."""
        return _gradient_kernel(self.kind, self.parameters)


def _gradient_kernel(kind: str, p: tuple):
    exp, log1p, inf = math.exp, math.log1p, math.inf
    if kind == "exp_pair":
        c1r1, r1, c2r2, r2 = p[0] * p[1], p[1], p[2] * p[3], p[3]

        def grad_exp(t):
            v1, v2 = r1 * t, r2 * t
            return (c1r1 * (exp(v1) if v1 < 700.0 else inf)
                    + c2r2 * (exp(v2) if v2 < 700.0 else inf))

        return grad_exp
    if kind == "quartic":
        a4, b2 = 4.0 * p[0], 2.0 * p[1]
        return lambda t: a4 * t * t * t + b2 * t
    if kind == "log_quadratic":
        a2, b2 = 2.0 * p[0], 2.0 * p[1]

        def grad_lq(t):
            t2, a2t = t * t, a2 * t
            return a2t * log1p(t2) + a2t * t2 / (1.0 + t2) + b2 * t

        return grad_lq
    scaled = [k * c for k, c in enumerate(p)][1:]

    def grad_poly(t):
        acc, power = 0.0, 1.0
        for kc in scaled:
            acc += kc * power
            power *= t
        return acc

    return grad_poly


def _check_point(c: CostSpec, y) -> np.ndarray:
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape != (c.dimension,):
        raise ValidationError(f"point has dimension {y.size}, cost expects {c.dimension}")
    if not np.all(np.isfinite(y)):
        raise ValidationError("cost evaluation point must be finite")
    return y


def value(c: CostSpec, y) -> float:
    y = _check_point(c, y)
    p = c.parameters
    if c.kind == "exp_pair":
        t = y[0]
        return p[0] * _exp(p[1] * t) + p[2] * _exp(p[3] * t)
    if c.kind == "quartic":
        t = y[0]
        return p[0] * t ** 4 + p[1] * t ** 2 + p[2]
    if c.kind == "log_quadratic":
        t = y[0]
        return p[0] * t * t * math.log1p(t * t) + p[1] * t * t
    return float(sum(coef * np.sum(y ** k) for k, coef in enumerate(p)))


def gradient(c: CostSpec, y) -> np.ndarray:
    """Analytic gradient at ``y`` (shape ``(q,)``)."""
    y = _check_point(c, y)
    return np.full(y.shape, c.grad(y if c.dimension > 1 else float(y[0])))


def second_derivative(c: CostSpec, y) -> np.ndarray:
    """Diagonal of the Hessian at ``y`` (all supported kinds are separable)."""
    y = _check_point(c, y)
    p = c.parameters
    if c.kind == "exp_pair":
        t = y[0]
        h = p[0] * p[1] ** 2 * _exp(p[1] * t) + p[2] * p[3] ** 2 * _exp(p[3] * t)
        return np.array([h])
    if c.kind == "quartic":
        t = y[0]
        return np.array([12.0 * p[0] * t ** 2 + 2.0 * p[1]])
    if c.kind == "log_quadratic":
        t = y[0]
        t2 = t * t
        h = (2.0 * p[0] * math.log1p(t2)
             + 2.0 * p[0] * t2 * (3.0 + t2) / (1.0 + t2) ** 2
             + 2.0 * p[1])
        return np.array([h])
    out = np.zeros_like(y)
    for k, coef in enumerate(p):
        if k > 1 and coef != 0.0:
            out += k * (k - 1) * coef * y ** (k - 2)
    return out


@dataclass(frozen=True)
class RegularityEstimate:
    """Curvature bounds of a cost on a working box."""

    iota: float
    lipschitz: float
    box: tuple

    def __post_init__(self):
        if not (0.0 < self.iota <= self.lipschitz):
            raise ValidationError("regularity needs 0 < iota <= lipschitz")


def estimate_regularity(c: CostSpec, box, grid_points: int = REGULARITY_GRID
                        ) -> RegularityEstimate:
    """Strong-convexity and gradient-Lipschitz bounds on ``box`` (q = 1).

    Scans the second derivative on a uniform grid; a non-positive value
    anywhere on the grid means the cost is not strongly convex there and is
    reported as an error rather than silently clamped to a tiny constant.
    """
    if c.dimension != 1:
        raise ValidationError("regularity estimation is implemented for q = 1 costs")
    lo, hi = float(box[0]), float(box[1])
    if not hi > lo:
        raise ValidationError("working box must be a nonempty interval")
    grid = np.linspace(lo, hi, grid_points)
    curvature = np.array([second_derivative(c, [t])[0] for t in grid])
    iota = float(curvature.min())
    if iota <= 0.0:
        worst = grid[int(np.argmin(curvature))]
        raise ConvexityViolatedError(
            f"second derivative is {iota:.6g} at t={worst:.6g}; "
            f"cost is not strongly convex on [{lo}, {hi}]")
    return RegularityEstimate(iota=iota, lipschitz=float(curvature.max()),
                              box=(lo, hi))


def _sum_gradient(costs, t: float) -> float:
    return float(sum(c.grad(t) for c in costs))


def centralized_optimum(costs, tolerance: float = 1e-12):
    """Minimizer of the summed cost, to first-order tolerance.

    For q = 1 this brackets a sign change of the summed gradient (expanding
    from [-1, 1] up to 1e10) and bisects until ``|sum grad| < tolerance``.
    For larger q (custom polynomials) a damped Newton iteration on the
    separable coordinates is used.
    """
    costs = list(costs)
    if not costs:
        raise ValidationError("need at least one cost")
    q = costs[0].dimension
    if any(c.dimension != q for c in costs):
        raise ValidationError("all costs must share the decision dimension")
    if q == 1:
        return _bisect_optimum(costs, tolerance)
    return _newton_optimum(costs, tolerance)


def _bisect_optimum(costs, tolerance: float) -> float:
    lo, hi = -1.0, 1.0
    g_lo, g_hi = _sum_gradient(costs, lo), _sum_gradient(costs, hi)
    while g_lo * g_hi > 0.0:
        if abs(lo) >= _BRACKET_LIMIT or abs(hi) >= _BRACKET_LIMIT:
            raise UnboundedObjectiveError(
                "no sign change of the summed gradient in [-1e10, 1e10]")
        lo, hi = lo * 4.0, hi * 4.0
        g_lo, g_hi = _sum_gradient(costs, lo), _sum_gradient(costs, hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    mid = 0.5 * (lo + hi)
    for _ in range(400):
        g_mid = _sum_gradient(costs, mid)
        if abs(g_mid) < tolerance:
            return mid
        if g_lo * g_mid < 0.0:
            hi = mid
        else:
            lo, g_lo = mid, g_mid
        mid = 0.5 * (lo + hi)
    g_mid = _sum_gradient(costs, mid)
    if abs(g_mid) < tolerance:
        return mid
    raise UnboundedObjectiveError(
        f"bisection stalled with |sum grad| = {abs(g_mid):.3e} >= {tolerance}")


def _newton_optimum(costs, tolerance: float) -> np.ndarray:
    q = costs[0].dimension
    point = np.zeros(q)
    for _ in range(200):
        grad = sum(gradient(c, point) for c in costs)
        if np.linalg.norm(grad) < tolerance:
            return point
        hess = sum(second_derivative(c, point) for c in costs)
        if np.any(hess <= 0.0):
            raise ConvexityViolatedError("summed Hessian is not positive at the iterate")
        step = grad / hess
        scale = 1.0
        base = sum(value(c, point) for c in costs)
        while scale > 1e-12:
            trial = point - scale * step
            if sum(value(c, trial) for c in costs) <= base:
                point = trial
                break
            scale *= 0.5
        else:
            break
    grad = sum(gradient(c, point) for c in costs)
    if np.linalg.norm(grad) >= tolerance:
        raise UnboundedObjectiveError(
            f"Newton stalled with |sum grad| = {np.linalg.norm(grad):.3e}")
    return point
