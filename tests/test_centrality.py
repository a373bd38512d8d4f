import numpy as np
import pytest

from gclgcn.centrality import (
    betweenness_centrality,
    closeness_centrality,
    composite_centrality,
    degree_centrality,
    spatial_bias,
)
from gclgcn.graph import Graph, support_pairs

from oracles import (
    betweenness_reference,
    closeness_reference,
    degree_reference,
    random_er_graph,
    support_values,
)


def bias_pairs(g, mode="euclidean"):
    return support_values(*support_pairs(g), spatial_bias(g, mode))


def path3():
    return Graph(features=np.zeros((3, 2)), edges=[(0, 1), (1, 2)])


def star4():
    return Graph(features=np.zeros((4, 1)), edges=[(0, 1), (0, 2), (0, 3)])


def triangle():
    return Graph(features=np.zeros((3, 1)), edges=[(0, 1), (1, 2), (0, 2)])


class TestDegree:
    def test_path(self):
        assert np.allclose(degree_centrality(path3()), [0.5, 1.0, 0.5], atol=0)

    def test_regular_graph_all_one(self):
        assert np.array_equal(degree_centrality(triangle()), [1, 1, 1])

    def test_edgeless_zeros(self):
        g = Graph(features=np.zeros((3, 1)), edges=[])
        assert np.array_equal(degree_centrality(g), [0, 0, 0])

    def test_max_is_one_when_any_edge(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(2, 20))
            edges = random_er_graph(n, 0.4, rng)
            if not edges:
                continue
            g = Graph(features=np.zeros((n, 1)), edges=edges)
            assert degree_centrality(g).max() == 1.0


class TestBetweenness:
    def test_path_middle(self):
        assert np.allclose(betweenness_centrality(path3()), [0, 1, 0], atol=1e-12)

    def test_star_center(self):
        assert np.allclose(betweenness_centrality(star4()), [3, 0, 0, 0], atol=1e-12)

    def test_triangle_zero(self):
        assert np.allclose(betweenness_centrality(triangle()), [0, 0, 0], atol=0)

    def test_matches_path_counting_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(3, 30))
            p = rng.choice([0.1, 0.3, 0.6])
            edges = random_er_graph(n, p, rng)
            g = Graph(features=np.zeros((n, 1)), edges=edges)
            got = betweenness_centrality(g)
            want = betweenness_reference(n, edges)
            assert np.max(np.abs(got - want)) <= 1e-9

    def test_matches_networkx_convention(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(9)
        n = 25
        edges = random_er_graph(n, 0.2, rng)
        g = Graph(features=np.zeros((n, 1)), edges=edges)
        ng = nx.Graph()
        ng.add_nodes_from(range(n))
        ng.add_edges_from(edges)
        want = nx.betweenness_centrality(ng, normalized=False)
        got = betweenness_centrality(g)
        assert np.allclose(got, [want[i] for i in range(n)], atol=1e-9)


class TestCloseness:
    def test_path(self):
        assert np.allclose(closeness_centrality(path3()), [1 / 3, 1 / 2, 1 / 3], atol=1e-15)

    def test_star(self):
        assert np.allclose(closeness_centrality(star4()), [1 / 3, 1 / 5, 1 / 5, 1 / 5], atol=1e-15)

    def test_isolated_node_zero(self):
        g = Graph(features=np.zeros((3, 1)), edges=[(0, 1)])
        assert closeness_centrality(g)[2] == 0.0

    def test_matches_distance_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(2, 25))
            edges = random_er_graph(n, 0.25, rng)
            g = Graph(features=np.zeros((n, 1)), edges=edges)
            assert np.allclose(
                closeness_centrality(g), closeness_reference(n, edges), atol=1e-12
            )


class TestComposite:
    def test_path_all_measures(self):
        want = np.array([
            [0.5, 0.0, 1 / 3],
            [1.0, 1.0, 0.5],
            [0.5, 0.0, 1 / 3],
        ])
        cm = composite_centrality(path3())
        assert np.allclose(cm, want, atol=1e-12)
        assert not cm.flags.writeable

    def test_single_measure(self):
        cm = composite_centrality(path3(), measures=("degree",))
        assert cm.shape == (3, 1)
        assert np.allclose(cm[:, 0], degree_centrality(path3()), atol=0)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            composite_centrality(path3(), measures=())

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            composite_centrality(path3(), measures=("pagerank",))

    def test_order_fixed_regardless_of_request_order(self):
        cm = composite_centrality(path3(), measures=("closeness", "degree"))
        want = np.column_stack([degree_centrality(path3()), closeness_centrality(path3())])
        assert np.array_equal(cm, want)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(23)
        n = 18
        edges = random_er_graph(n, 0.3, rng)
        g = Graph(features=np.zeros((n, 1)), edges=edges)
        perm = rng.permutation(n)
        pedges = [(int(perm[u]), int(perm[v])) for u, v in edges]
        pg = Graph(features=np.zeros((n, 1)), edges=pedges)
        original = composite_centrality(g)
        permuted = composite_centrality(pg)
        assert np.allclose(permuted[perm], original, atol=1e-9)


class TestSpatialBias:
    def test_identical_rows_zero(self):
        g = Graph(features=np.ones((2, 3)), edges=[(0, 1)])
        assert bias_pairs(g)[(0, 1)] == 0.0

    def test_three_four_five(self):
        g = Graph(features=np.array([[0.0, 0.0], [3.0, 4.0]]), edges=[(0, 1)])
        assert bias_pairs(g, "euclidean")[(0, 1)] == pytest.approx(5.0, abs=1e-12)

    def test_shortest_path_mode_edges_are_one(self):
        g = Graph(features=np.zeros((3, 2)), edges=[(0, 2)])
        pairs = bias_pairs(g, "shortest-path")
        assert pairs[(0, 2)] == 1.0 and pairs[(2, 0)] == 1.0

    def test_symmetric_zero_diagonal_only_required_pairs(self):
        rng = np.random.default_rng(5)
        g = Graph(features=rng.standard_normal((6, 3)), edges=[(0, 1), (2, 4)])
        pairs = bias_pairs(g)
        for i in range(6):
            assert pairs[(i, i)] == 0.0
        for (i, j), d in pairs.items():
            assert d >= 0.0
            assert pairs[(j, i)] == d
        assert (0, 2) not in pairs

    def test_unknown_mode(self):
        g = Graph(features=np.zeros((2, 1)), edges=[])
        with pytest.raises(ValueError, match="spatial mode"):
            spatial_bias(g, "cosine")
