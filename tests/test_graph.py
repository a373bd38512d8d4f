import numpy as np
import pytest

from gclgcn.graph import (
    Graph,
    SbmSpec,
    adjacency_matrix,
    generate_sbm,
    load_graph,
    normalize_adjacency,
    save_graph,
    shortest_path_hops,
)


def path3():
    return Graph(features=np.zeros((3, 2)), edges=[(0, 1), (1, 2)])


class TestGraphInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(features=np.zeros((3, 1)), edges=[(2, 2)])

    def test_rejects_duplicate_even_reversed(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(features=np.zeros((3, 1)), edges=[(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(features=np.zeros((2, 1)), edges=[(0, 5)])

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="labels"):
            Graph(features=np.zeros((2, 1)), edges=[], labels=[0, 3], k=2)

    def test_edges_canonicalized(self):
        g = Graph(features=np.zeros((4, 1)), edges=[(3, 1), (0, 2)])
        assert g.edges == ((1, 3), (0, 2))

    def test_features_read_only(self):
        g = path3()
        with pytest.raises(ValueError):
            g.features[0, 0] = 1.0


class TestLoadGraph:
    def test_minimal_path_graph(self, tmp_path):
        (tmp_path / "f.csv").write_text("0,0\n0,0\n0,0\n")
        (tmp_path / "e.txt").write_text("0 1\n1 2\n")
        g = load_graph(tmp_path / "f.csv", tmp_path / "e.txt")
        assert (g.n, g.f) == (3, 2)
        assert len(g.edges) == 2

    def test_reversed_duplicate_collapses(self, tmp_path):
        (tmp_path / "f.csv").write_text("0\n0\n")
        (tmp_path / "e.txt").write_text("0 1\n1 0\n")
        g = load_graph(tmp_path / "f.csv", tmp_path / "e.txt")
        assert g.edges == ((0, 1),)

    def test_self_loop_names_line(self, tmp_path):
        (tmp_path / "f.csv").write_text("0\n0\n0\n")
        (tmp_path / "e.txt").write_text("0 1\n2 2\n")
        with pytest.raises(ValueError, match="self-loop rejected at line 2"):
            load_graph(tmp_path / "f.csv", tmp_path / "e.txt")

    def test_malformed_number_names_line(self, tmp_path):
        (tmp_path / "f.csv").write_text("0,0\n0,zzz\n")
        (tmp_path / "e.txt").write_text("")
        with pytest.raises(ValueError, match="f.csv:2"):
            load_graph(tmp_path / "f.csv", tmp_path / "e.txt")

    def test_endpoint_out_of_range(self, tmp_path):
        (tmp_path / "f.csv").write_text("0\n0\n")
        (tmp_path / "e.txt").write_text("0 7\n")
        with pytest.raises(ValueError, match="out of range"):
            load_graph(tmp_path / "f.csv", tmp_path / "e.txt")

    def test_label_count_mismatch(self, tmp_path):
        (tmp_path / "f.csv").write_text("0\n0\n")
        (tmp_path / "e.txt").write_text("0 1\n")
        (tmp_path / "y.txt").write_text("0\n1\n0\n")
        with pytest.raises(ValueError, match="3 labels for 2"):
            load_graph(tmp_path / "f.csv", tmp_path / "e.txt", tmp_path / "y.txt")

    def test_bad_label_names_line(self, tmp_path):
        (tmp_path / "f.csv").write_text("0\n0\n")
        (tmp_path / "e.txt").write_text("0 1\n")
        (tmp_path / "y.txt").write_text("0\n\nx\n")
        with pytest.raises(ValueError, match="y.txt:3: could not parse label"):
            load_graph(tmp_path / "f.csv", tmp_path / "e.txt", tmp_path / "y.txt")

    def test_comments_and_blank_lines(self, tmp_path):
        (tmp_path / "f.csv").write_text("1.5\n2.5\n")
        (tmp_path / "e.txt").write_text("# header\n\n0 1  # inline\n")
        g = load_graph(tmp_path / "f.csv", tmp_path / "e.txt")
        assert g.edges == ((0, 1),)

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        g = Graph(
            features=rng.standard_normal((6, 4)) * 1e3,
            edges=[(0, 1), (2, 5), (1, 4)],
            labels=[0, 1, 1, 0, 2, 2],
            k=3,
        )
        save_graph(g, tmp_path / "f.csv", tmp_path / "e.txt", tmp_path / "y.txt")
        g2 = load_graph(tmp_path / "f.csv", tmp_path / "e.txt", tmp_path / "y.txt")
        assert np.array_equal(g.features, g2.features)
        assert g.edges == g2.edges
        assert np.array_equal(g.labels, g2.labels)
        # second save is byte-identical
        save_graph(g2, tmp_path / "f2.csv", tmp_path / "e2.txt", tmp_path / "y2.txt")
        assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "f2.csv").read_bytes()
        assert (tmp_path / "e.txt").read_bytes() == (tmp_path / "e2.txt").read_bytes()


class TestNormalizedAdjacency:
    def test_edgeless_is_identity(self):
        g = Graph(features=np.zeros((2, 1)), edges=[])
        assert np.array_equal(normalize_adjacency(g).toarray(), np.eye(2))

    def test_single_edge(self):
        g = Graph(features=np.zeros((2, 1)), edges=[(0, 1)])
        na = normalize_adjacency(g)
        assert np.allclose(na.toarray(), 0.5 * np.ones((2, 2)), atol=0, rtol=0)

    def test_path_value(self):
        na = normalize_adjacency(path3())
        assert na[0, 1] == pytest.approx(1 / np.sqrt(6), abs=1e-12)

    def test_symmetry_and_algebraic_facts(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.3
            ]
            g = Graph(features=np.zeros((n, 1)), edges=edges)
            m = normalize_adjacency(g).toarray()
            dhat = 1.0 + g.degrees()
            assert np.array_equal(m, m.T)
            assert np.all(m >= 0)
            assert np.all(m.sum(axis=1) <= np.sqrt(dhat) + 1e-12)
            assert np.allclose(np.diag(m), 1.0 / dhat, atol=1e-15)


class TestHops:
    def test_path(self):
        d = shortest_path_hops(path3())
        assert d[0, 2] == 2 and d[0, 1] == 1 and d[0, 0] == 0

    def test_disconnected_sentinel_is_n(self):
        g = Graph(features=np.zeros((2, 1)), edges=[])
        d = shortest_path_hops(g)
        assert d[0, 1] == 2  # sentinel = n

    def test_triangle(self):
        g = Graph(features=np.zeros((3, 1)), edges=[(0, 1), (1, 2), (0, 2)])
        d = shortest_path_hops(g)
        off = d[~np.eye(3, dtype=bool)]
        assert np.all(off == 1)


class TestSbm:
    def test_forced_edges(self):
        spec = SbmSpec(block_sizes=(2, 2), p_in=1.0, p_out=0.0, means=np.zeros((2, 3)))
        g = generate_sbm(spec, seed=0)
        assert set(g.edges) == {(0, 1), (2, 3)}

    def test_no_edges_no_noise(self):
        means = np.array([[1.0, 2.0], [3.0, 4.0]])
        spec = SbmSpec(block_sizes=(2, 1), p_in=0.0, p_out=0.0, means=means)
        g = generate_sbm(spec, seed=5)
        assert g.edges == ()
        assert np.array_equal(g.features, means[[0, 0, 1]])
        assert np.array_equal(g.labels, [0, 0, 1])

    def test_deterministic_for_seed(self):
        spec = SbmSpec(
            block_sizes=(50, 50, 50), p_in=0.15, p_out=0.01,
            means=np.eye(3, 5), noise_std=0.3,
        )
        g1 = generate_sbm(spec, seed=11)
        g2 = generate_sbm(spec, seed=11)
        assert g1.edges == g2.edges
        assert np.array_equal(g1.features, g2.features)
        g3 = generate_sbm(spec, seed=12)
        assert g1.edges != g3.edges

    def test_block_probabilities_validated(self):
        with pytest.raises(ValueError, match="p_in"):
            SbmSpec(block_sizes=(2,), p_in=1.5, p_out=0.0, means=np.zeros((1, 2)))


def test_adjacency_matrix_binary_symmetric():
    g = path3()
    a = adjacency_matrix(g).toarray()
    assert np.array_equal(a, a.T)
    assert a.sum() == 4  # two undirected edges
    assert np.all(np.diag(a) == 0)
