import numpy as np
import pytest

from gclgcn.cluster import accuracy, ari, f1_macro, kmeans, metric_row, nmi

from oracles import brute_force_accuracy


class TestKMeans:
    def test_two_coincident_groups(self):
        z = np.array([[0.0, 0.0]] * 4 + [[10.0, 10.0]] * 4)
        res = kmeans(z, 2, restarts=5, seed=0)
        assert res.sse == 0.0
        assert len(set(res.labels[:4])) == 1
        assert len(set(res.labels[4:])) == 1
        assert res.labels[0] != res.labels[4]

    def test_k_one_gives_mean_and_total_scatter(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((20, 3))
        res = kmeans(z, 1, restarts=3, seed=0)
        assert np.allclose(res.centroids[0], z.mean(axis=0), atol=1e-12)
        want = ((z - z.mean(axis=0)) ** 2).sum()
        assert res.sse == pytest.approx(want, rel=1e-12)

    def test_k_equals_n_zero_sse(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((6, 2))
        res = kmeans(z, 6, restarts=10, seed=1)
        assert res.sse == pytest.approx(0.0, abs=1e-18)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((40, 4))
        a = kmeans(z, 3, restarts=20, seed=9)
        b = kmeans(z, 3, restarts=20, seed=9)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.sse == b.sse

    def test_rising_sse_raises(self, monkeypatch):
        # A Lloyd step never raises the SSE; if distances ever make it rise,
        # kmeans stops with an error that survives `python -O`.
        from gclgcn import cluster

        calls = []
        exact = cluster._squared_distances

        def growing(z, centers):
            calls.append(None)
            return exact(z, centers) + len(calls)

        monkeypatch.setattr(cluster, "_squared_distances", growing)
        z = np.random.default_rng(6).standard_normal((20, 2))
        with pytest.raises(RuntimeError, match="SSE increased"):
            kmeans(z, 2, restarts=1, seed=0)

    def test_sse_matches_recomputation(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((30, 2))
        res = kmeans(z, 4, restarts=5, seed=0)
        recomputed = ((z - res.centroids[res.labels]) ** 2).sum()
        assert res.sse == pytest.approx(recomputed, abs=1e-9)
        assert set(res.labels) <= set(range(4))

    def test_k_bounds(self):
        with pytest.raises(ValueError, match="1 <= k <= n"):
            kmeans(np.zeros((3, 2)), 4)


class TestAccuracy:
    def test_pure_relabeling(self):
        assert accuracy([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_worked_example(self):
        assert accuracy([0, 1, 1], [0, 0, 1]) == pytest.approx(2 / 3)

    def test_identical(self):
        assert accuracy([0, 1, 2], [0, 1, 2]) == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(4, 40))
            k = int(rng.integers(2, 7))
            pred = rng.integers(0, k, n)
            truth = rng.integers(0, k, n)
            assert accuracy(pred, truth) == pytest.approx(
                brute_force_accuracy(pred, truth), abs=1e-12
            )

    def test_symmetry_same_k(self):
        rng = np.random.default_rng(12)
        pred = rng.integers(0, 3, 30)
        truth = rng.integers(0, 3, 30)
        assert accuracy(pred, truth) == pytest.approx(accuracy(truth, pred), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths"):
            accuracy([0, 1], [0])


class TestNmi:
    def test_identical_partitions(self):
        assert nmi([0, 1, 0, 2], [2, 0, 2, 1]) == pytest.approx(1.0)

    def test_constant_pred_zero(self):
        assert nmi([0, 0, 0, 0], [0, 1, 0, 1]) == 0.0

    def test_independent_partitions_zero(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_both_constant_is_one(self):
        assert nmi([0, 0], [1, 1]) == 1.0

    def test_geometric_mean_normalizer(self):
        # I = 2/3 ln 2 (pred splits each truth class 2:1); H(pred) = ln 3,
        # H(truth) = ln 2.
        pred = [0, 0, 1, 1, 2, 2]
        truth = [0, 0, 0, 1, 1, 1]
        want = (2 / 3) * np.log(2) / np.sqrt(np.log(3) * np.log(2))
        assert nmi(pred, truth) == pytest.approx(want, rel=1e-12)


class TestAri:
    def test_identical(self):
        assert ari([0, 1, 1, 2], [1, 0, 0, 2]) == pytest.approx(1.0)

    def test_constant_pred_zero(self):
        assert ari([0, 0, 0, 0], [0, 1, 0, 1]) == 0.0

    def test_chance_correction(self):
        rng = np.random.default_rng(13)
        vals = [
            ari(rng.integers(0, 3, 60), rng.integers(0, 3, 60)) for _ in range(200)
        ]
        assert abs(float(np.mean(vals))) <= 0.05

    def test_matches_sklearn_if_available(self):
        sk = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(14)
        for _ in range(20):
            pred = rng.integers(0, 4, 50)
            truth = rng.integers(0, 3, 50)
            assert ari(pred, truth) == pytest.approx(
                sk.adjusted_rand_score(truth, pred), abs=1e-12
            )


class TestF1:
    def test_identical(self):
        assert f1_macro([0, 1, 2], [0, 1, 2]) == 1.0

    def test_worked_example(self):
        assert f1_macro([0, 1, 1], [0, 0, 1]) == pytest.approx(2 / 3)

    def test_invariant_to_predicted_relabeling(self):
        rng = np.random.default_rng(15)
        pred = rng.integers(0, 4, 40)
        truth = rng.integers(0, 4, 40)
        relabeled = (pred + 2) % 4
        assert f1_macro(pred, truth) == pytest.approx(f1_macro(relabeled, truth), abs=1e-12)


def test_all_metrics_invariant_under_predicted_permutation():
    rng = np.random.default_rng(16)
    pred = rng.integers(0, 5, 80)
    truth = rng.integers(0, 5, 80)
    perm = rng.permutation(5)
    permuted = perm[pred]
    a = metric_row(pred, truth)
    b = metric_row(permuted, truth)
    for key in ("acc", "nmi", "ari", "f1"):
        assert a[key] == pytest.approx(b[key], abs=1e-12)
