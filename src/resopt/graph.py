"""Weighted digraphs, Markov-switched graph processes, and their summaries.

Conventions. ``weights[i, j] > 0`` means information flows from vertex ``j``
to vertex ``i`` (``j`` is an in-neighbour of ``i``).  The Laplacian puts row
sums of the adjacency on the diagonal, so every Laplacian annihilates the
all-ones vector exactly.

Randomness. Switching paths are sampled with numpy's PCG64 bit generator and
inverse-CDF transforms only (``u = gen.random()``; holding times are
``-log1p(-u) / rate``; discrete draws walk the CDF).  Given a seed, a path is
therefore byte-identical across runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolatedError, ValidationError

STATIONARY_TOL = 1e-9
DIST_SUM_TOL = 1e-12


def _matrix(value, name: str) -> np.ndarray:
    m = np.asarray(value, dtype=float)
    if m.ndim != 2:
        raise ValidationError(f"{name} must be a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True)
class WeightedDigraph:
    """A weighted digraph on ``n`` vertices given by its adjacency matrix."""

    weights: np.ndarray

    def __post_init__(self):
        w = _matrix(self.weights, "weights")
        if w.shape[0] != w.shape[1]:
            raise ValidationError(f"adjacency must be square, got {w.shape}")
        if np.any(np.diag(w) != 0.0):
            raise ValidationError("adjacency diagonal must be zero (no self-loops)")
        if np.any(w < 0.0):
            raise ValidationError("adjacency weights must be nonnegative")
        object.__setattr__(self, "weights", w)

    @property
    def n_vertices(self) -> int:
        return self.weights.shape[0]


def laplacian(g: WeightedDigraph) -> np.ndarray:
    """In-degree Laplacian ``diag(row sums) - weights``.

    Row sums of the result are exactly zero: the diagonal is built from the
    same floating-point row sums that are subtracted back out.
    """
    w = g.weights
    return np.diag(w.sum(axis=1)) - w


def union_graph(graphs) -> WeightedDigraph:
    """Edge-union of a graph family with summed weights."""
    graphs = list(graphs)
    if not graphs:
        raise ValidationError("union of an empty graph family is undefined")
    total = np.zeros_like(graphs[0].weights)
    for g in graphs:
        if g.weights.shape != total.shape:
            raise ValidationError("all graphs in a union must share n_vertices")
        total = total + g.weights
    return WeightedDigraph(total)


@dataclass(frozen=True)
class GraphProcess:
    """A finite family of digraphs switched by a continuous-time Markov chain.

    ``generator`` is the chain's infinitesimal generator: off-diagonal entries
    are nonnegative transition rates and every row sums to zero.
    """

    graphs: tuple
    generator: np.ndarray
    initial_distribution: np.ndarray

    def __post_init__(self):
        graphs = tuple(self.graphs)
        if not graphs:
            raise ValidationError("a graph process needs at least one graph")
        n = graphs[0].n_vertices
        if any(g.n_vertices != n for g in graphs):
            raise ValidationError("all graphs in a process must share n_vertices")
        s = len(graphs)
        gen = _matrix(self.generator, "generator")
        if gen.shape != (s, s):
            raise ValidationError(
                f"generator must be {s}x{s} to match {s} graphs, got {gen.shape}")
        off = gen - np.diag(np.diag(gen))
        if np.any(off < 0.0):
            raise ValidationError("generator off-diagonal entries must be nonnegative")
        rows = gen.sum(axis=1)
        bad = np.flatnonzero(np.abs(rows) > 1e-9)
        if bad.size:
            raise ValidationError(
                f"generator row {bad[0]} sums to {rows[bad[0]]:.3e}, expected 0")
        dist = np.asarray(self.initial_distribution, dtype=float).reshape(-1)
        if dist.shape != (s,):
            raise ValidationError(
                f"initial_distribution must have length {s}, got {dist.shape}")
        if np.any(dist < 0.0):
            raise ValidationError("initial_distribution entries must be nonnegative")
        if abs(dist.sum() - 1.0) > DIST_SUM_TOL:
            raise ValidationError(
                f"initial_distribution sums to {dist.sum():.15f}, expected 1 within {DIST_SUM_TOL}")
        object.__setattr__(self, "graphs", graphs)
        object.__setattr__(self, "generator", gen)
        object.__setattr__(self, "initial_distribution", dist)

    @property
    def n_vertices(self) -> int:
        return self.graphs[0].n_vertices

    @property
    def n_states(self) -> int:
        return len(self.graphs)


@dataclass(frozen=True)
class SwitchingPath:
    """Piecewise-constant, right-continuous record of the active graph index."""

    breakpoints: np.ndarray  # interval start times, breakpoints[0] == 0
    states: np.ndarray       # graph index active on [breakpoints[k], next)
    horizon: float

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        st = np.asarray(self.states, dtype=int)
        if bp.ndim != 1 or st.shape != bp.shape:
            raise ValidationError("breakpoints and states must be 1-D and equal length")
        if bp.size == 0 or bp[0] != 0.0:
            raise ValidationError("first breakpoint must be 0")
        if np.any(np.diff(bp) <= 0.0):
            raise ValidationError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "states", st)

    def state_at(self, t):
        """Active graph index at time ``t`` (vectorized)."""
        idx = np.searchsorted(self.breakpoints, t, side="right") - 1
        return self.states[np.clip(idx, 0, len(self.states) - 1)]


def mirror_union_laplacian(process: GraphProcess) -> np.ndarray:
    """Laplacian of the mirror (symmetrized) union graph.

    The union sums the adjacency matrices of all graphs in the process; the
    mirror replaces each directed weight pair by its average, giving a
    symmetric positive-semidefinite Laplacian with zero row sums.
    """
    return _mirror_laplacian(process.graphs)


def _mirror_laplacian(graphs) -> np.ndarray:
    a_union = union_graph(graphs).weights
    a_mirror = 0.5 * (a_union + a_union.T)
    return np.diag(a_mirror.sum(axis=1)) - a_mirror


def _closed_classes(process: GraphProcess) -> list:
    """The closed classes of the switching chain (no positive rate leads out
    of them) that it can enter from its initial support, as state lists."""
    reach = (process.generator > 0.0) | np.eye(process.n_states, dtype=bool)
    for k in range(process.n_states):  # Warshall's transitive closure
        reach |= np.outer(reach[:, k], reach[k])
    entered = reach[process.initial_distribution > 0.0].any(axis=0)
    # p heads a closed class when every state it reaches reaches it back
    return [np.flatnonzero(reach[p]).tolist() for p in np.flatnonzero(entered)
            if np.argmax(reach[p]) == p and np.all(reach[:, p][reach[p]])]


def _cut_off_vertex(l_s: np.ndarray) -> int:
    """The first vertex that no path in the symmetric graph of ``l_s``
    joins to vertex 0 (its minimum cut is 0, so there is one)."""
    reached = np.arange(l_s.shape[0]) == 0
    grown = reached | (l_s[reached] < 0.0).any(axis=0)
    while not np.array_equal(grown, reached):
        reached, grown = grown, grown | (l_s[grown] < 0.0).any(axis=0)
    return int(np.argmin(reached))


def minimum_cut(l_s: np.ndarray) -> float:
    """Exact minimum cut of the symmetric graph encoded by Laplacian ``l_s``.

    The cut of a vertex subset S sums the edge weights (the negated
    off-diagonal Laplacian entries) leaving S.  Computed with the
    Stoer-Wagner algorithm ("A simple min-cut algorithm", JACM 1997) in
    O(N^3): each phase orders the vertices by maximum adjacency, records the
    cut that separates the last vertex from the rest, and merges the last two.
    The smallest recorded cut is the minimum.  For N == 1 there is no proper
    subset and the cut is vacuously +inf.
    """
    l_s = _matrix(l_s, "mirror Laplacian")
    n = l_s.shape[0]
    if l_s.shape[0] != l_s.shape[1]:
        raise ValidationError("mirror Laplacian must be square")
    if n == 1:
        return math.inf
    weights = np.diag(np.diag(l_s)) - l_s
    if np.any(weights < 0.0):
        raise ValidationError("mirror Laplacian off-diagonal entries must be nonpositive")
    if not np.array_equal(weights, weights.T):
        raise ValidationError("mirror Laplacian must be symmetric")
    best = math.inf
    merged = np.zeros(n, dtype=bool)
    for phase in range(n - 1):
        # Merged vertices count as already added, so they are never picked.
        added = merged.copy()
        first = int(np.argmin(added))
        added[first] = True
        connection = weights[first].copy()
        last = first
        for _ in range(n - phase - 1):
            prev = last
            last = int(np.argmax(np.where(added, -math.inf, connection)))
            added[last] = True
            cut = connection[last]
            connection += weights[last]
        best = min(best, float(cut))
        weights[prev] += weights[last]
        weights[:, prev] += weights[:, last]
        weights[prev, prev] = 0.0
        weights[last] = 0.0
        weights[:, last] = 0.0
        merged[last] = True
    return best


def stationary_weighting(process: GraphProcess) -> np.ndarray:
    """Admit a graph process and return its common stationary vector.

    Every graph must be weight-balanced: at each vertex the in-weight (row
    sum of ``weights``) equals the out-weight (column sum), up to
    ``STATIONARY_TOL`` times the graph's largest Laplacian entry, as the two
    sums round differently at about eps max|L_g|.  Every closed class the
    chain can enter must have a connected mirror union, as a chain inside a
    class switches among its graphs alone for good; the family's union is
    then connected too.  Balance gives 1^T L_g = 0 for every graph, and a
    balanced union whose mirror is connected is strongly connected, so the
    uniform vector is the only common left-null vector that sums to 1: it
    is returned.  Balance is what makes the team reach argmin sum_i f_i.
    On a family whose common left-null vector pi is not uniform, the dynamics
    reach argmin sum_i pi_i f_i instead (Gharesifard & Cortes, IEEE TAC
    2014), so such a family is refused.
    """
    for index, g in enumerate(process.graphs):
        w_in, w_out = g.weights.sum(axis=1), g.weights.sum(axis=0)
        # The largest in-weight is max|L_g|: each diagonal entry is its row's
        # in-weight, and no off-diagonal weight exceeds it.
        bad = np.flatnonzero(np.abs(w_out - w_in) > STATIONARY_TOL * w_in.max())
        if bad.size:
            v = int(bad[0])
            raise AssumptionViolatedError(
                f"graph {index} is not weight-balanced at vertex {v}: in-weight "
                f"{float(w_in[v])!r}, out-weight {float(w_out[v])!r} "
                "(weights[g][i][j] is the weight of edge j -> i); an unbalanced "
                "family converges to a weighted optimum, not to argmin sum f_i")
    for states in _closed_classes(process):
        l_s = _mirror_laplacian(process.graphs[p] for p in states)
        cut = minimum_cut(l_s)
        if not cut > 0.0:
            raise AssumptionViolatedError(
                f"the switching chain can enter the closed class of graphs {states} "
                f"and never leave it, and their mirror union has minimum cut {cut}: "
                f"agent {_cut_off_vertex(l_s)} is cut off from agent 0 there, so "
                "joint connectivity fails")
    return np.full(process.n_vertices, 1.0 / process.n_vertices)


def sample_switching_path(process: GraphProcess, horizon: float, seed: int) -> SwitchingPath:
    """Sample the Markov chain's graph index over ``[0, horizon)``.

    The initial state follows ``initial_distribution``; the holding time in
    state p is exponential with rate ``-generator[p, p]`` (infinite when that
    rate is zero); the jump lands on q != p with probability
    ``generator[p, q] / -generator[p, p]``.  Deterministic given the seed.
    """
    if not horizon > 0.0:
        raise ValidationError("horizon must be positive")
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    rates = -np.diag(process.generator)

    def draw_discrete(probabilities) -> int:
        u = gen.random()
        acc = 0.0
        for idx, p in enumerate(probabilities):
            acc += p
            if u < acc:
                return idx
        return len(probabilities) - 1

    state = draw_discrete(process.initial_distribution)
    breakpoints = [0.0]
    states = [state]
    t = 0.0
    while True:
        rate = rates[state]
        if rate <= 0.0:
            break
        t += -math.log1p(-gen.random()) / rate
        if t >= horizon:
            break
        jump_probs = process.generator[state] / rate
        jump_probs = np.where(np.arange(process.n_states) == state, 0.0, jump_probs)
        state = draw_discrete(jump_probs)
        breakpoints.append(t)
        states.append(state)
    return SwitchingPath(breakpoints=np.array(breakpoints),
                         states=np.array(states, dtype=int),
                         horizon=float(horizon))
