"""Per-agent convex costs: values, analytic gradients, and a centralized
optimum oracle.

Four cost kinds are supported.  ``exp_pair``, ``quartic`` and
``log_quadratic`` are scalar (q = 1) with parameters

    exp_pair       c1 * exp(r1*t) + c2 * exp(r2*t)      params (c1, r1, c2, r2)
    quartic        a*t^4 + b*t^2 + c                    params (a, b, c)
    log_quadratic  a*t^2*log(1+t^2) + b*t^2             params (a, b)

``custom_polynomial`` takes coefficients (c0, c1, ...) of a one-variable
polynomial applied separably to each coordinate, so it works for any q.

Each kind's gradient is written once, as a short statement template over
``t`` and named parameters (``_GRADIENTS``).  From the templates one
function is compiled per team, ``team_theta``: the integrator (``sim``)
calls it at every RK4 stage, and the optimum oracle bisects on its summed
outputs, so both run the same floating-point expressions.  It packs the
outputs into ``out``'s buffer by one precompiled ``struct`` call.  The last
few compiled functions are kept, so a run after the oracle compiles none.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import UnboundedObjectiveError, ValidationError

KINDS = ("exp_pair", "quartic", "log_quadratic", "custom_polynomial")
_PARAM_COUNTS = {"exp_pair": 4, "quartic": 3, "log_quadratic": 2}
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


# Each kind's gradient, written once: statements over ``t_`` that leave the
# gradient in ``g_``, and the parameters they read, folded from the cost's
# own.  Every name ends in ``_``, which a team's function replaces by
# ``_<coordinate index>`` (``team_theta``).  Parameters are bound by name in
# the compiled function's namespace, never written into its source.  These
# are the only gradient formulas: the integrator and the oracle both run
# them, through one ``team_theta`` function per team.
def _exp_pair(p):
    return ({"c1r1_": p[0] * p[1], "r1_": p[1], "c2r2_": p[2] * p[3], "r2_": p[3]},
            ["v1_ = r1_ * t_", "v2_ = r2_ * t_",
             "g_ = (c1r1_ * (exp(v1_) if v1_ < 700.0 else inf)"
             " + c2r2_ * (exp(v2_) if v2_ < 700.0 else inf))"])


def _quartic(p):
    return {"a4_": 4.0 * p[0], "b2_": 2.0 * p[1]}, ["g_ = a4_ * t_ * t_ * t_ + b2_ * t_"]


def _log_quadratic(p):
    return ({"a2_": 2.0 * p[0], "b2_": 2.0 * p[1]},
            ["t2_ = t_ * t_", "a2t_ = a2_ * t_",
             "g_ = a2t_ * log1p(t2_) + a2t_ * t2_ / (1.0 + t2_) + b2_ * t_"])


def _custom_polynomial(p):
    # acc += k c_k power; power *= t, unrolled; the last power is not read
    lines = ["g_ = 0.0", "power_ = 1.0"]
    for k in range(1, len(p)):
        lines += [f"g_ = g_ + k{k}_ * power_", "power_ = power_ * t_"]
    return {f"k{k}_": k * c for k, c in enumerate(p) if k}, lines[:-1]


_GRADIENTS = {"exp_pair": _exp_pair, "quartic": _quartic,
              "log_quadratic": _log_quadratic, "custom_polynomial": _custom_polynomial}
_KERNEL_NAMES = {"exp": math.exp, "log1p": math.log1p, "inf": math.inf}


def _compile(lines: list, namespace: dict):
    """The function that ``lines`` (a def line, then its body) define, with
    ``namespace`` as its globals.  It is taken out of the namespace, so that
    the two form no reference cycle and are freed as soon as it is dropped,
    without waiting for the cyclic garbage collector."""
    name = lines[0][4:lines[0].index("(")]
    exec(compile("\n    ".join(lines), f"<resopt {name}>", "exec"), namespace)
    return namespace.pop(name)


def _suffixed(params: dict, lines: list, suffix: str, namespace: dict) -> list:
    namespace.update((name.replace("_", suffix), v) for name, v in params.items())
    return [line.replace("_", suffix) for line in lines]


def team_theta(costs, q: int):
    """``theta(y, const, out)``: ``out = -grad f(y) + const`` for a whole
    team, compiled into one function, or taken from the last few compiled
    (the oracle and ``sim.run`` ask for the same team's).

    y, the list const and out run over the team's n scalar coordinates,
    agent i's coordinate d at index i q + d.  Every cost applies its
    statements to each coordinate (a q > 1 cost is a custom_polynomial), so
    the function unpacks ``y.tolist()`` and ``const``, runs every
    coordinate's statements in line, in float arithmetic, and packs the n
    doubles into ``out``'s buffer by one precompiled ``struct`` call: ``out``
    must be a C-contiguous float64 array of n values (an int64 one would be
    silently reinterpreted; this is stated, not checked on every call).
    The function keeps no state, so one serves every caller."""
    costs = tuple(costs)
    # Equal costs may differ in the sign of a zero parameter, which the
    # compiled constants keep; those signs, in order, complete the key.
    return _compiled_theta(costs, q, tuple(math.copysign(1.0, p) for c in costs
                                           for p in c.parameters if p == 0.0))


@functools.lru_cache(maxsize=4)
def _compiled_theta(costs: tuple, q: int, zero_signs: tuple):
    coords = [c for c in costs for _ in range(q)]
    n = len(coords)
    namespace = dict(_KERNEL_NAMES, pack=struct.Struct(f"{n}d").pack_into)
    body = ["".join(f"t_{i}, " for i in range(n)) + "= y.tolist()",
            "".join(f"c_{i}, " for i in range(n)) + "= const"]
    for i, c in enumerate(coords):
        body += _suffixed(*_GRADIENTS[c.kind](c.parameters), f"_{i}", namespace)
    body.append("pack(out, 0, " + ", ".join(f"-g_{i} + c_{i}" for i in range(n)) + ")")
    return _compile(["def theta(y, const, out):", *body], namespace)


def value(c: CostSpec, y) -> float:
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape != (c.dimension,):
        raise ValidationError(f"point has dimension {y.size}, cost expects {c.dimension}")
    if not np.all(np.isfinite(y)):
        raise ValidationError("cost evaluation point must be finite")
    p, t = c.parameters, y[0]
    if c.kind == "exp_pair":
        return p[0] * _exp(p[1] * t) + p[2] * _exp(p[3] * t)
    if c.kind == "quartic":
        return p[0] * t ** 4 + p[1] * t ** 2 + p[2]
    if c.kind == "log_quadratic":
        return p[0] * t * t * math.log1p(t * t) + p[1] * t * t
    return float(sum(coef * np.sum(y ** k) for k, coef in enumerate(p)))


def _sum_gradient(costs):
    """The summed gradient as a function of one float t: the team's
    ``team_theta`` at t in every coordinate with ``const`` all 0.0, its
    outputs negated and added in cost order."""
    theta, n = team_theta(costs, 1), len(costs)
    zeros, out = [0.0] * n, np.empty(n)

    def total(t: float) -> float:
        theta(np.full(n, t), zeros, out)
        return sum(-g for g in out.tolist())

    return total


def centralized_optimum(costs, tolerance: float = 1e-12):
    """Minimizer of the summed cost, to first-order tolerance.

    This brackets a sign change of the summed gradient (expanding from
    [-1, 1] up to 1e10) and bisects until ``|sum grad| < tolerance``.  For
    q > 1 every cost applies one polynomial to each coordinate, so the
    minimizer is that root in every coordinate, and the criterion holds
    coordinate by coordinate.
    """
    costs = list(costs)
    if not costs:
        raise ValidationError("need at least one cost")
    q = costs[0].dimension
    if any(c.dimension != q for c in costs):
        raise ValidationError("all costs must share the decision dimension")
    root = _bisect_optimum(_sum_gradient(costs), tolerance)
    return root if q == 1 else np.full(q, root)


def _bisect_optimum(sum_gradient, tolerance: float) -> float:
    lo, hi = -1.0, 1.0
    g_lo, g_hi = sum_gradient(lo), sum_gradient(hi)
    while g_lo * g_hi > 0.0:
        if abs(lo) >= _BRACKET_LIMIT or abs(hi) >= _BRACKET_LIMIT:
            raise UnboundedObjectiveError(
                "no sign change of the summed gradient in [-1e10, 1e10]")
        lo, hi = lo * 4.0, hi * 4.0
        g_lo, g_hi = sum_gradient(lo), sum_gradient(hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    mid = 0.5 * (lo + hi)
    for _ in range(400):
        g_mid = sum_gradient(mid)
        if abs(g_mid) < tolerance:
            return mid
        if g_lo * g_mid < 0.0:
            hi = mid
        else:
            lo, g_lo = mid, g_mid
        mid = 0.5 * (lo + hi)
    g_mid = sum_gradient(mid)
    if abs(g_mid) < tolerance:
        return mid
    raise UnboundedObjectiveError(
        f"bisection stalled with |sum grad| = {abs(g_mid):.3e} >= {tolerance}")
