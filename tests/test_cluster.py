import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from gclgcn import cluster
from gclgcn.cluster import (
    _canonical,
    _confusion,
    _match,
    accuracy,
    ari,
    f1_macro,
    kmeans,
    label_matching,
    metric_row,
    nmi,
)

from oracles import brute_force_accuracy, canonical_loop, f1_macro_loop


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_one_point_labelling_scores_one_everywhere():
    """With n = 1 there is no pair to count; ari reads 1.0, as sklearn's
    adjusted_rand_score does, like the other three metrics, and nothing
    divides 0 by 0."""
    for ids in ([0], [3]):
        assert metric_row(ids, [0]) == {"acc": 1.0, "nmi": 1.0, "ari": 1.0, "f1": 1.0}


class TestVectorisedForms:
    """nmi's first-occurrence renumbering and f1_macro's label lookup
    against the loop forms they replaced, kept in tests/oracles.py."""

    @staticmethod
    def _pairs():
        """2,400 seeded label pairs: random ids from a range that may leave
        some absent, a single cluster, and one side a relabeling of the
        other."""
        rng = np.random.default_rng(21)
        for i in range(2400):
            n = int(rng.integers(1, 40))
            pred = rng.integers(0, int(rng.integers(1, 9)), n)
            truth = rng.integers(0, int(rng.integers(1, 9)), n)
            if i % 6 == 1:
                pred = np.zeros(n, dtype=np.int64)
            elif i % 6 == 2:
                pred = rng.permutation(12)[truth]
            elif i % 6 == 3:
                pred = pred * 3 + 2  # ids 0, 1, 3, 4, ... absent
            yield pred, truth

    def test_canonical_matches_the_loop(self):
        for pred, truth in self._pairs():
            for labels in (pred, truth):
                got, want = _canonical(labels), canonical_loop(labels)
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_f1_and_nmi_keep_their_bytes(self, monkeypatch):
        pairs = list(self._pairs())
        got = [(f1_macro(p, t).hex(), nmi(p, t).hex()) for p, t in pairs]
        monkeypatch.setattr(cluster, "_canonical", canonical_loop)
        want = [(f1_macro_loop(p, t).hex(), nmi(p, t).hex()) for p, t in pairs]
        assert got == want


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


class TestMatch:
    """`_match` against scipy's solver, whose choice among tied optima it
    must repeat so that F1 keeps its bytes, and against brute force."""

    @staticmethod
    def assert_as_scipy(w):
        rows, cols = linear_sum_assignment(w, maximize=True)
        assert np.array_equal(rows, np.arange(len(w)))
        assert np.array_equal(_match(w), cols), w

    def test_same_matching_as_scipy_on_tie_heavy_matrices(self):
        rng = np.random.default_rng(21)
        for trial in range(12_000):
            d = int(rng.integers(1, 9))
            self.assert_as_scipy(rng.integers(0, (2, 4, 50)[trial % 3], (d, d)))

    @pytest.mark.parametrize("d", [1, 2, 5, 8])
    @pytest.mark.parametrize("value", [0, 3])
    def test_constant_matrices_as_scipy(self, d, value):
        self.assert_as_scipy(np.full((d, d), value, dtype=np.int64))

    def test_one_by_one(self):
        assert _match(np.array([[4]])).tolist() == [0]

    def test_matched_sum_equals_brute_force(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            pred = rng.integers(0, int(rng.integers(1, 7)), n)
            truth = rng.integers(0, int(rng.integers(1, 7)), n)
            w = _confusion(pred, truth)
            matched = w[np.arange(len(w)), _match(w)].sum() / n
            assert matched == brute_force_accuracy(pred, truth)

    def test_larger_matrix_as_scipy(self):
        self.assert_as_scipy(np.random.default_rng(23).integers(0, 3, (30, 30)))


def test_label_matching_maps_each_predicted_id():
    assert label_matching([0, 0, 1, 2], [2, 2, 0, 1]) == {0: 2, 1: 0, 2: 1}


class TestNegativeIds:
    """np.add.at would wrap -1 onto the last row of the confusion matrix:
    accuracy([-1, 2], [0, 1]) would score 0.5 where the best bijection
    scores 1.0."""

    @pytest.mark.parametrize("metric", [accuracy, nmi, ari, f1_macro, label_matching, metric_row])
    def test_negative_pred_names_the_argument_and_value(self, metric):
        with pytest.raises(ValueError, match=r"^pred: .*non-negative, got -1$"):
            metric([-1, 2, -4], [0, 1, 1])

    def test_negative_truth_names_the_argument_and_first_value(self):
        with pytest.raises(ValueError, match=r"^truth: .*non-negative, got -3$"):
            accuracy([0, 1, 1], [0, -3, -1])
