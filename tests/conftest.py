import importlib.util
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from resopt.cost import CostSpec
from resopt.graph import WeightedDigraph
from resopt.plant import AgentModel

# The three heterogeneous demonstration agents (dimensions 2, 2, 3) with
# their stabilizing gains and pinned regulator triples.
AGENT_DATA = [
    dict(A=[[0.0, 1.0], [0.0, 0.0]],
         B=[[0.0, 1.0], [1.0, -2.0]],
         C=[[1.0, 1.0]],
         K=[[3.0, 5.0], [1.5, 1.0]],
         U=[[1.0], [0.5]], W=[[1.5], [0.5]], X=[[0.5], [0.5]]),
    dict(A=[[0.0, -1.0], [1.0, -2.0]],
         B=[[1.0, 0.0], [3.0, -1.0]],
         C=[[-1.0, 1.0]],
         K=[[0.75, -1.0], [1.25, -4.0]],
         U=[[-0.5], [0.0]], W=[[-0.5], [-2.0]], X=[[-0.5], [0.5]]),
    dict(A=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 1.0, -2.0]],
         B=[[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]],
         C=[[1.0, -1.0, 1.0]],
         K=[[2.167, 1.0, 0.333], [0.0, 3.0, 1.0]],
         U=[[-1.0], [0.0]], W=[[0.0], [-1.0]], X=[[0.0], [-1.0], [0.0]]),
]

GENERATOR = [[-0.1, 0.02, 0.08], [0.3, -0.5, 0.2], [0.1, 0.1, -0.2]]
RAW_DIST = np.array([0.5882, 0.1500, 0.3235])

# Reference optimum of the three bundled costs, pinned by an independent
# high-precision bisection of the summed gradient on [-1, 0].
THETA_STAR = -0.1998223793056702


@pytest.fixture(scope="session")
def demo_agents():
    return tuple(AgentModel.build(d["A"], d["B"], d["C"], d["K"],
                                  d["U"], d["W"], d["X"]) for d in AGENT_DATA)


@pytest.fixture(scope="session")
def demo_costs():
    return (CostSpec("exp_pair", (-2.0, -0.5, 0.5, 0.3)),
            CostSpec("quartic", (1.0, 2.0, 2.0)),
            CostSpec("log_quadratic", (0.5, 1.0)))


@pytest.fixture(scope="session")
def bundled_process():
    from resopt.cli import preset_scenario
    return preset_scenario("case1").scenario.graph_process


def reference_gradient(cost):
    """``f'(t)`` of one cost at a float t, for a q > 1 cost of one of its
    coordinates: an independent closure per kind, which runs each gradient
    template's float operations in the same order and so must agree with
    ``team_theta`` bit for bit."""
    p = cost.parameters

    def safe_exp(v):
        return math.exp(v) if v < 700.0 else math.inf

    if cost.kind == "exp_pair":
        c1, r1, c2, r2 = p
        return lambda t: c1 * r1 * safe_exp(r1 * t) + c2 * r2 * safe_exp(r2 * t)
    if cost.kind == "quartic":
        a, b = p[0], p[1]
        return lambda t: 4.0 * a * t * t * t + 2.0 * b * t
    if cost.kind == "log_quadratic":
        a, b = p[0], p[1]

        def grad_lq(t):
            t2 = t * t
            return (2.0 * a * t * math.log1p(t2)
                    + 2.0 * a * t * t2 / (1.0 + t2) + 2.0 * b * t)

        return grad_lq

    def grad_poly(t):
        acc = 0.0
        power = 1.0
        for k in range(1, len(p)):
            acc += k * p[k] * power
            power *= t
        return acc

    return grad_poly


def single_edge(n, j, i, weight=1.0):
    """Digraph on n vertices with the single edge j -> i."""
    a = np.zeros((n, n))
    a[i, j] = weight
    return WeightedDigraph(a)


def disagreement_sides(lap, pi, cut, xi):
    """Both sides of the disagreement bound ``xi^T Q xi >= pi_min c / N^2 |xi|^2``
    with ``Q = L Pi + Pi L^T``, for a pi-orthogonal ``xi``.  Admitted families
    are weight-balanced, so pi is uniform and ``Q = (L + L^T) / N``."""
    pi, xi = np.asarray(pi, dtype=float), np.asarray(xi, dtype=float)
    big_pi = np.diag(pi)
    q = lap @ big_pi + big_pi @ lap.T
    norm = float(np.linalg.norm(xi))
    return float(xi @ q @ xi), float(pi.min()) * float(cut) / float(xi.size ** 2) * norm * norm


def brute_force_cut(l_s):
    """Minimum cut of the symmetric graph with Laplacian ``l_s``, by
    enumerating every proper vertex subset: the reference for
    ``graph.minimum_cut`` and for admission's connectivity verdict."""
    n = l_s.shape[0]
    w = -(l_s - np.diag(np.diag(l_s)))
    best = math.inf
    for size in range(1, n):
        for subset in itertools.combinations(range(n), size):
            inside = np.zeros(n, dtype=bool)
            inside[list(subset)] = True
            best = min(best, w[np.ix_(inside, ~inside)].sum())
    return best


def load_workloads():
    """The benchmark's ``perfbench/workloads.py``, imported as a module."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module
