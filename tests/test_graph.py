import itertools

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.csgraph
from hypothesis import given, settings, strategies as st

from conftest import (GENERATOR, RAW_DIST, brute_force_cut, disagreement_sides,
                      single_edge)
from resopt.controller import AlgorithmParams
from resopt.cost import CostSpec
from resopt.errors import AssumptionViolatedError, ValidationError
from resopt.graph import (STATIONARY_TOL, GraphProcess, WeightedDigraph, laplacian,
                          minimum_cut, mirror_union_laplacian,
                          sample_switching_path, stationary_weighting,
                          union_graph)
from resopt.plant import AgentModel
from resopt.sim import Scenario


def random_graph(rng, n, density=0.5, scale=2.0):
    a = rng.random((n, n)) * scale * (rng.random((n, n)) < density)
    np.fill_diagonal(a, 0.0)
    return WeightedDigraph(a)


def cycle_sum(rng, blocks, scale, n_cycles):
    """Adjacency of ``n_cycles`` weighted directed cycles, each through a
    random ordered subset of one block of vertices: weight-balanced by
    construction, since a cycle adds its weight to one in-weight and one
    out-weight of every vertex it visits."""
    n = sum(len(b) for b in blocks)
    a = np.zeros((n, n))
    for _ in range(n_cycles):
        block = blocks[rng.integers(len(blocks))]
        if len(block) < 2:
            continue
        cycle = rng.permutation(block)[:rng.integers(2, len(block) + 1)]
        weight = scale * rng.uniform(0.1, 2.0)
        for j, i in zip(cycle, np.roll(cycle, -1)):
            a[i, j] += weight  # edge j -> i
    return a


def one_graph(a):
    return GraphProcess(graphs=(WeightedDigraph(a),), generator=[[0.0]],
                        initial_distribution=[1.0])


class TestWeightedDigraph:
    def test_rejects_self_loops(self):
        with pytest.raises(ValidationError):
            WeightedDigraph(np.eye(2))

    def test_rejects_negative_weights(self):
        with pytest.raises(ValidationError):
            WeightedDigraph([[0.0, -1.0], [0.0, 0.0]])


class TestLaplacian:
    def test_single_edge(self):
        # info flows from vertex 2 to vertex 1, i.e. a_12 = 1
        g = WeightedDigraph([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(laplacian(g), [[1.0, -1.0], [0.0, 0.0]])

    def test_empty_graph(self):
        g = WeightedDigraph(np.zeros((3, 3)))
        np.testing.assert_array_equal(laplacian(g), np.zeros((3, 3)))

    def test_three_cycle(self):
        g = single_edge(3, 0, 1).weights + single_edge(3, 1, 2).weights \
            + single_edge(3, 2, 0).weights
        lap = laplacian(WeightedDigraph(g))
        np.testing.assert_array_equal(np.diag(lap), np.ones(3))
        np.testing.assert_array_equal(lap.sum(axis=1), np.zeros(3))

    @given(st.integers(2, 7), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_row_sums_zero_at_machine_precision(self, n, seed):
        # construction cancels the same floats, so the residual is a few ULPs
        # of the row scale, far below any rounding tolerance
        g = random_graph(np.random.default_rng(seed), n)
        scale = max(1.0, g.weights.max())
        assert np.abs(laplacian(g).sum(axis=1)).max() <= 4 * np.finfo(float).eps * scale


class TestMirrorUnion:
    def test_single_directed_edge(self):
        proc = GraphProcess(graphs=(single_edge(2, 0, 1),),
                            generator=[[0.0]], initial_distribution=[1.0])
        np.testing.assert_allclose(mirror_union_laplacian(proc),
                                   [[0.5, -0.5], [-0.5, 0.5]])

    def test_symmetric_union_is_fixed_point(self):
        a = np.array([[0.0, 2.0], [2.0, 0.0]])
        proc = GraphProcess(graphs=(WeightedDigraph(a),),
                            generator=[[0.0]], initial_distribution=[1.0])
        np.testing.assert_allclose(mirror_union_laplacian(proc),
                                   laplacian(WeightedDigraph(a)))

    def test_bundled_process_symmetric_zero_rowsums(self, bundled_process):
        mirror = mirror_union_laplacian(bundled_process)
        np.testing.assert_allclose(mirror, mirror.T)
        np.testing.assert_allclose(mirror.sum(axis=1), 0.0, atol=1e-12)
        eigs = np.linalg.eigvalsh(mirror)
        assert eigs.min() > -1e-9


class TestMinimumCut:
    def test_two_vertices(self):
        l_s = np.array([[0.5, -0.5], [-0.5, 0.5]])
        assert minimum_cut(l_s) == pytest.approx(0.5)

    def test_disconnected(self):
        l_s = np.zeros((3, 3))
        assert minimum_cut(l_s) == 0.0

    def test_three_path_unit_weights(self):
        # path 1 - 2 - 3: six cuts, the cheapest severs one end edge
        l_s = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        assert minimum_cut(l_s) == pytest.approx(1.0)

    def test_beyond_twenty_vertices(self):
        # a directed ring of weight 200 mirrors to an undirected ring of
        # weight 100; a cut severs at least two ring edges
        n = 30
        a = np.zeros((n, n))
        a[np.arange(n), (np.arange(n) - 1) % n] = 200.0
        proc = GraphProcess(graphs=(WeightedDigraph(a),),
                            generator=[[0.0]], initial_distribution=[1.0])
        assert minimum_cut(mirror_union_laplacian(proc)) == 200.0
        np.testing.assert_array_equal(stationary_weighting(proc), np.full(n, 1.0 / n))
        assert minimum_cut(np.zeros((21, 21))) == 0.0

    def test_rejects_asymmetric_or_negative_weights(self):
        with pytest.raises(ValidationError, match="symmetric"):
            minimum_cut(np.array([[1.0, -1.0], [0.0, 0.0]]))
        with pytest.raises(ValidationError, match="nonpositive"):
            minimum_cut(np.array([[-1.0, 1.0], [1.0, -1.0]]))

    @given(st.integers(2, 12), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, n, seed):
        g = random_graph(np.random.default_rng(seed), n)
        a = 0.5 * (g.weights + g.weights.T)
        l_s = np.diag(a.sum(axis=1)) - a
        assert minimum_cut(l_s) == pytest.approx(brute_force_cut(l_s))


class TestStationaryWeighting:
    def test_weight_balanced_gives_uniform(self):
        # a directed cycle is weight balanced
        a = single_edge(3, 0, 1).weights + single_edge(3, 1, 2).weights \
            + single_edge(3, 2, 0).weights
        proc = one_graph(a)
        np.testing.assert_array_equal(stationary_weighting(proc), np.full(3, 1.0 / 3.0))
        assert minimum_cut(mirror_union_laplacian(proc)) == pytest.approx(1.0)

    def test_single_strongly_connected(self):
        # strongly connected but not balanced: its left-null vector is not
        # uniform, so the team would reach a weighted optimum
        rng = np.random.default_rng(5)
        a = rng.random((4, 4)) + 0.1
        np.fill_diagonal(a, 0.0)
        lap = laplacian(WeightedDigraph(a))
        null = scipy.linalg.null_space(lap.T)
        assert null.shape[1] == 1
        left = null[:, 0] / null[:, 0].sum()
        assert np.abs(left - 0.25).max() > 1e-3
        vertex = int(np.flatnonzero(np.abs(lap.sum(axis=0)) > 0.0)[0])
        with pytest.raises(AssumptionViolatedError,
                           match=f"graph 0 is not weight-balanced at vertex {vertex}: "
                                 f"in-weight {float(a[vertex].sum())!r}, "
                                 f"out-weight {float(a[:, vertex].sum())!r}"):
            stationary_weighting(one_graph(a))

    def test_bundled_process_uniform(self, bundled_process):
        np.testing.assert_array_equal(stationary_weighting(bundled_process),
                                      np.full(3, 1.0 / 3.0))
        assert minimum_cut(mirror_union_laplacian(bundled_process)) > 0.0

    @staticmethod
    def two_block_process(weight=1.0):
        """Two isolated blocks: the union mirror has a zero cut."""
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = weight
        a[2, 3] = a[3, 2] = weight
        return one_graph(a)

    def test_disconnected_union_rejected(self):
        with pytest.raises(AssumptionViolatedError):
            stationary_weighting(self.two_block_process())

    @pytest.mark.parametrize("scale", [1e7, 1e8])
    def test_large_weights_admitted_unless_disconnected(self, scale):
        # in-weights and out-weights round differently, at about
        # eps max|L_g|, which at these weights is far above an absolute 1e-9
        rng = np.random.default_rng(3)
        for _ in range(50):
            # random cycles, plus two rings that keep the mirror connected
            a = cycle_sum(rng, [np.arange(6)], scale, 6)
            a += scale * (np.roll(np.eye(6), 1, axis=1) + np.roll(np.eye(6), -1, axis=1))
            np.testing.assert_array_equal(stationary_weighting(one_graph(a)),
                                          np.full(6, 1.0 / 6.0))
        with pytest.raises(AssumptionViolatedError):
            stationary_weighting(self.two_block_process(scale))

    @given(st.integers(3, 8), st.sampled_from([1.0, 1e7, 1e8]),
           st.sampled_from(["balanced", "perturbed", "split"]), st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_refused_exactly_when_oracle_refuses(self, n, scale, variant, seed):
        rng = np.random.default_rng(seed)
        blocks = [rng.permutation(n)]
        if variant == "split":
            cut_at = rng.integers(1, n)
            blocks = [blocks[0][:cut_at], blocks[0][cut_at:]]
        family = [cycle_sum(rng, blocks, scale, int(rng.integers(1, 4))) for _ in range(3)]
        if variant == "perturbed":
            i, j = rng.choice(n, 2, replace=False)
            family[rng.integers(3)][i, j] += scale * rng.uniform(0.01, 1.0)
        process = GraphProcess(graphs=tuple(WeightedDigraph(a) for a in family),
                               generator=GENERATOR,
                               initial_distribution=RAW_DIST / RAW_DIST.sum())

        laps = [laplacian(WeightedDigraph(a)) for a in family]
        unbalanced = any(np.abs(lap.sum(axis=0)).max() > STATIONARY_TOL * np.abs(lap).max()
                         for lap in laps)
        assert unbalanced == (variant == "perturbed")
        total = sum(family)
        mirror = 0.5 * (total + total.T)
        disconnected = brute_force_cut(np.diag(mirror.sum(axis=1)) - mirror) == 0.0
        try:
            pi = stationary_weighting(process)
        except AssumptionViolatedError:
            assert unbalanced or disconnected
        else:
            assert not (unbalanced or disconnected)
            np.testing.assert_array_equal(pi, np.full(n, 1.0 / n))

    def test_scenario_on_disconnected_union_rejected(self):
        agent = AgentModel.build([[0.0]], [[1.0]], [[1.0]], [[1.0]])
        cost = CostSpec("custom_polynomial", (0.0, 0.0, 0.5))
        with pytest.raises(AssumptionViolatedError):
            Scenario(agents=(agent,) * 4, costs=(cost,) * 4,
                     graph_process=self.two_block_process(), attack_schedule=None,
                     algorithm="time_based", params=AlgorithmParams(2.0, 1.0),
                     horizon=1.0, step=1e-3, seed=0)


# Three-state chains: state 0 absorbing; state 0 transient into the closed
# class {1, 2}; the closed classes {0} and {1, 2}, each entered only from
# itself; state 0 transient into two absorbing states; irreducible.
CHAINS = {
    "absorbing": [[0.0, 0.0, 0.0], [0.3, -0.5, 0.2], [0.1, 0.1, -0.2]],
    "transient": [[-1.0, 1.0, 0.0], [0.0, -0.5, 0.5], [0.0, 0.5, -0.5]],
    "split": [[0.0, 0.0, 0.0], [0.0, -0.5, 0.5], [0.0, 0.5, -0.5]],
    "two_absorbing": [[-1.0, 0.5, 0.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    "irreducible": GENERATOR,
}


def pair_graph(n, i, j):
    a = np.zeros((n, n))
    a[i, j] = a[j, i] = 200.0
    return a


class TestClosedClasses:
    """Admission asks every closed class of the switching chain that the
    chain can enter for a connected mirror union, because a chain inside the
    class switches among its graphs alone for good."""

    @staticmethod
    def oracle_refuses(generator, dist, family):
        rates = (np.array(generator) > 0.0) & ~np.eye(3, dtype=bool)
        count, label = scipy.sparse.csgraph.connected_components(
            rates, directed=True, connection="strong")
        entered = set()
        for p in np.flatnonzero(dist):
            entered |= set(scipy.sparse.csgraph.breadth_first_order(
                rates, p, directed=True, return_predecessors=False).tolist())
        for c in range(count):
            members = np.flatnonzero(label == c)
            closed = not rates[members][:, label != c].any()
            if closed and entered & set(members.tolist()):
                total = sum(family[p] for p in members)
                mirror = 0.5 * (total + total.T)
                if brute_force_cut(np.diag(mirror.sum(axis=1)) - mirror) == 0.0:
                    return True
        return False

    @pytest.mark.parametrize("dist", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                                      [0.5, 0.25, 0.25]])
    @pytest.mark.parametrize("chain", sorted(CHAINS))
    @pytest.mark.parametrize("n", [3, 4])
    def test_refused_exactly_when_oracle_refuses(self, n, chain, dist):
        # every family of three graphs that each join one pair of agents
        pairs = list(itertools.combinations(range(n), 2))
        verdicts = set()
        for chosen in itertools.product(pairs, repeat=3):
            family = [pair_graph(n, i, j) for i, j in chosen]
            process = GraphProcess(graphs=tuple(WeightedDigraph(a) for a in family),
                                   generator=CHAINS[chain], initial_distribution=dist)
            try:
                stationary_weighting(process)
            except AssumptionViolatedError:
                refused = True
            else:
                refused = False
            assert refused == self.oracle_refuses(CHAINS[chain], dist, family), chosen
            verdicts.add(refused)
        # n agents need n - 1 distinct pairs in a class: the closed class
        # {1, 2} holds two graphs, the irreducible chain's all three, and
        # the split chain enters {0} whenever it may start there
        assert True in verdicts
        assert (False in verdicts) == (chain == "irreducible" or n == 3 and (
            chain == "transient" or chain == "split" and dist[0] == 0.0))


class TestDisagreementBound:
    def test_zero_vector(self):
        lhs, rhs = disagreement_sides(np.zeros((2, 2)), [0.5, 0.5], 1.0, [0.0, 0.0])
        assert lhs == 0.0 and rhs == 0.0

    def test_two_vertex_balanced(self):
        # bidirectional unit edge: L = [[1,-1],[-1,1]], pi uniform
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        lap = laplacian(WeightedDigraph(a))
        pi = np.array([0.5, 0.5])
        xi = np.array([1.0, -1.0]) / np.sqrt(2.0)
        lhs, rhs = disagreement_sides(lap, pi, 1.0, xi)
        # direct evaluation: Q = L here, so xi^T Q xi = (xi1 - xi2)^2 = 2
        assert lhs == pytest.approx(2.0)
        assert rhs == pytest.approx(0.5 * 1.0 / 4.0)
        assert lhs >= rhs - 1e-9

    def test_monte_carlo_on_bundled_union(self, bundled_process):
        pi = stationary_weighting(bundled_process)
        cut = minimum_cut(mirror_union_laplacian(bundled_process))
        lap_un = laplacian(union_graph(bundled_process.graphs))
        rng = np.random.default_rng(42)
        for _ in range(1000):
            xi = rng.standard_normal(3)
            xi -= pi * (pi @ xi) / (pi @ pi)
            lhs, rhs = disagreement_sides(lap_un, pi, cut, xi)
            assert lhs >= rhs - 1e-9


class TestSwitchingPath:
    def make_process(self):
        graphs = tuple(single_edge(3, j, (j + 1) % 3) for j in range(3))
        return GraphProcess(graphs=graphs, generator=GENERATOR,
                            initial_distribution=RAW_DIST / RAW_DIST.sum())

    def test_zero_generator_single_interval(self):
        graphs = (single_edge(2, 0, 1), single_edge(2, 1, 0))
        proc = GraphProcess(graphs=graphs, generator=np.zeros((2, 2)),
                            initial_distribution=[0.3, 0.7])
        path = sample_switching_path(proc, 50.0, seed=3)
        assert len(path.states) == 1
        assert path.breakpoints[0] == 0.0

    def test_deterministic_given_seed(self):
        proc = self.make_process()
        p1 = sample_switching_path(proc, 200.0, seed=11)
        p2 = sample_switching_path(proc, 200.0, seed=11)
        np.testing.assert_array_equal(p1.breakpoints, p2.breakpoints)
        np.testing.assert_array_equal(p1.states, p2.states)

    def test_mean_holding_time_state_one(self):
        # rate out of state 1 is 0.1, so the mean holding time is 10 s;
        # censoring at horizon 120 shifts the mean by under 1e-4 relative
        proc = self.make_process()
        horizon = 120.0
        holds = []
        seed = 0
        while len(holds) < 10_000:
            path = sample_switching_path(proc, horizon, seed=seed)
            seed += 1
            if path.states[0] == 0:
                first_end = path.breakpoints[1] if len(path.breakpoints) > 1 \
                    else horizon
                holds.append(first_end)
        mean = np.mean(holds)
        assert abs(mean - 10.0) / 10.0 < 0.05

    def test_occupancy_matches_chain_stationary_law(self):
        proc = self.make_process()
        horizon = 6e5
        path = sample_switching_path(proc, horizon, seed=123)
        bounds = np.append(path.breakpoints, horizon)
        occupancy = np.zeros(3)
        for state, lo, hi in zip(path.states, bounds[:-1], bounds[1:]):
            occupancy[state] += hi - lo
        occupancy /= horizon
        # stationary law of the generator, via scipy (independent oracle)
        null = scipy.linalg.null_space(np.asarray(GENERATOR, dtype=float).T)
        stat = null[:, 0] / null[:, 0].sum()
        assert 0.5 * np.abs(occupancy - stat).sum() < 0.02

    def test_state_at_right_continuous(self):
        proc = self.make_process()
        path = sample_switching_path(proc, 100.0, seed=1)
        if len(path.breakpoints) > 1:
            t = path.breakpoints[1]
            assert path.state_at(t) == path.states[1]
            assert path.state_at(t - 1e-9) == path.states[0]


class TestGraphProcessValidation:
    def test_generator_row_sum_rejected(self):
        with pytest.raises(ValidationError, match="row"):
            GraphProcess(graphs=(single_edge(2, 0, 1), single_edge(2, 1, 0)),
                         generator=[[-0.1, 0.2], [0.1, -0.1]],
                         initial_distribution=[0.5, 0.5])

    def test_distribution_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sums to"):
            GraphProcess(graphs=(single_edge(2, 0, 1), single_edge(2, 1, 0)),
                         generator=np.zeros((2, 2)),
                         initial_distribution=[0.6, 0.5])
