import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from gclgcn import cluster
from gclgcn.cluster import METRICS, _confusion, _match, kmeans, metric_row, partition_means

from oracles import brute_force_accuracy, metric_row_oracle


def accuracy(pred, truth) -> float:
    """ACC as the package scores it."""
    return metric_row(pred, truth)["acc"]


def f1_macro(pred, truth) -> float:
    """Macro F1 as the package scores it."""
    return metric_row(pred, truth)["f1"]


def nmi(pred, truth) -> float:
    """NMI as the package scores it."""
    return metric_row(pred, truth)["nmi"]


def ari(pred, truth) -> float:
    """ARI as the package scores it."""
    return metric_row(pred, truth)["ari"]


def lloyd(z, k, seed):
    """One kmeans restart, (centers, labels, sse): Lloyd iterations from a
    distance-proportional seeding drawn with seed."""
    return cluster._lloyd(z, cluster._plusplus_init(z, k, np.random.default_rng(seed)))


class TestKMeans:
    def test_two_coincident_groups(self):
        z = np.array([[0.0, 0.0]] * 4 + [[10.0, 10.0]] * 4)
        _, restart, sse = lloyd(z, 2, seed=0)
        assert sse == 0.0
        for labels in (restart, kmeans(z, 2, seed=0)):
            assert len(set(labels[:4])) == 1
            assert len(set(labels[4:])) == 1
            assert labels[0] != labels[4]

    def test_k_one_gives_mean_and_total_scatter(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((20, 3))
        centers, _, sse = lloyd(z, 1, seed=0)
        assert np.allclose(centers[0], z.mean(axis=0), atol=1e-12)
        want = ((z - z.mean(axis=0)) ** 2).sum()
        assert sse == pytest.approx(want, rel=1e-12)

    def test_k_equals_n_zero_sse(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((6, 2))
        _, _, sse = lloyd(z, 6, seed=1)
        assert sse == pytest.approx(0.0, abs=1e-18)
        assert sorted(kmeans(z, 6, seed=1)) == list(range(6))

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((40, 4))
        a, b = lloyd(z, 3, seed=9), lloyd(z, 3, seed=9)
        assert np.array_equal(a[1], b[1])
        assert np.array_equal(a[0], b[0])
        assert a[2] == b[2]
        assert np.array_equal(kmeans(z, 3, seed=9), kmeans(z, 3, seed=9))

    def test_labels_are_the_lowest_sse_restart(self):
        z = np.random.default_rng(7).standard_normal((30, 2))
        rng = np.random.default_rng(3)
        runs = [cluster._lloyd(z, cluster._plusplus_init(z, 4, rng))
                for _ in range(cluster._RESTARTS)]
        best = min(range(len(runs)), key=lambda i: runs[i][2])  # the first of equals
        assert np.array_equal(kmeans(z, 4, seed=3), runs[best][1])

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
            kmeans(z, 2, seed=0)

    def test_sse_matches_recomputation(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((30, 2))
        centers, labels, sse = lloyd(z, 4, seed=0)
        recomputed = ((z - centers[labels]) ** 2).sum()
        assert sse == pytest.approx(recomputed, abs=1e-9)
        assert set(labels) <= set(range(4))
        assert set(kmeans(z, 4, seed=0)) <= set(range(4))

    def test_k_bounds(self):
        with pytest.raises(ValueError, match="1 <= k <= n"):
            kmeans(np.zeros((3, 2)), 4)

    def test_an_emptied_cluster_takes_the_row_farthest_from_the_occupied_means(self):
        # Centre 100 draws no row, so partition_means re-seeds it. Rows 0 and
        # 2 tie, 1 from the occupied mean 1; the lower row wins, and the
        # partition {0, 2}, {10, 11} is then found with its ids swapped.
        z = np.array([[0.0], [2.0], [10.0], [11.0]])
        _, labels, sse = cluster._lloyd(z, np.array([[0.0], [10.5], [100.0]]))
        assert labels.tolist() == [2, 0, 1, 1]
        assert sse == 0.5


class TestPartitionMeans:
    def test_occupied_means_and_the_rows_the_empty_clusters_take(self):
        z = np.array([[0.0, 1.0], [2.0, 1.0], [10.0, 1.0], [12.0, 1.0], [5.0, 1.0], [-5.0, 1.0]])
        labels = np.array([1, 1, 3, 3, 3, 1])
        centers = partition_means(z, labels, 4)
        assert np.array_equal(centers[1], z[[0, 1, 5]].mean(axis=0))
        assert np.array_equal(centers[3], z[[2, 3, 4]].mean(axis=0))
        assert centers[[1, 3]].tolist() == [[-1.0, 1.0], [9.0, 1.0]]
        # Rows 4 and 5 both lie 16 from their nearest occupied mean, further
        # than any other row: the empty clusters 0 and 2 take them in row order.
        assert np.array_equal(centers[0], z[4])
        assert np.array_equal(centers[2], z[5])


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


def _dense(labels: np.ndarray) -> np.ndarray:
    """labels with their ids ranked densely: 0 for the smallest, and so on."""
    return np.unique(labels, return_inverse=True)[1]


class TestOneConfusionMatrix:
    """metric_row reads all four metrics from one confusion matrix; each
    keeps the bytes of the oracle in tests/oracles.py, where every metric
    built its own matrix sized by the largest id."""

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

    @staticmethod
    def _spread_pairs():
        """600 seeded label pairs whose truth ids (and in a third of them
        the predicted ids too) are spread up to 10**9, far above n."""
        rng = np.random.default_rng(31)
        for i in range(600):
            n = int(rng.integers(1, 40))
            pred = rng.integers(0, int(rng.integers(1, 9)), n)
            truth = rng.integers(0, int(rng.integers(1, 9)), n)
            truth = rng.choice(10**9, 8, replace=False)[truth]
            if i % 3 == 0:
                pred = rng.choice(10**9, 8, replace=False)[pred]
            elif i % 3 == 1:
                pred = _dense(truth)  # the same partition
            yield pred, truth

    def test_metric_row_keeps_the_oracle_bytes(self):
        """Ids all below n score the oracle's bytes; a labelling with an id
        of n or more scores the bytes of its dense ranking."""
        below = above = 0
        for pred, truth in [*self._pairs(), *self._spread_pairs()]:
            if max(pred.max(), truth.max()) < pred.size:
                want, below = metric_row_oracle(pred, truth), below + 1
            else:
                want, above = metric_row_oracle(_dense(pred), _dense(truth)), above + 1
            got = metric_row(pred, truth)
            assert list(got) == list(METRICS)
            assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}
        assert below > 2000 and above > 900

    def test_metric_row_checks_builds_and_matches_once(self, monkeypatch):
        calls = {"_as_labels": 0, "_confusion": 0, "_match": 0}
        for name in calls:
            fn = getattr(cluster, name)

            def counted(*args, fn=fn, name=name):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(cluster, name, counted)
        pairs = list(self._pairs())[:300]
        for pred, truth in pairs:
            metric_row(pred, truth)
        assert calls == dict.fromkeys(calls, len(pairs))

    def test_a_huge_id_is_not_a_huge_matrix(self):
        pred, truth = np.array([0, 0, 1, 1, 2]), np.array([7, 7, 10**9, 10**9, 3])
        assert _confusion(pred, truth).shape == (3, 3)
        assert metric_row(pred, truth) == metric_row(pred, _dense(truth))


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
    for key in METRICS:
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


def test_match_maps_each_predicted_id():
    pred, truth = np.array([0, 0, 1, 2]), np.array([2, 2, 0, 1])
    assert _match(_confusion(pred, truth)).tolist() == [2, 0, 1]


class TestNegativeIds:
    """np.add.at would wrap -1 onto the last row of the confusion matrix:
    metric_row([-1, 2], [0, 1])["acc"] would score 0.5 where the best
    bijection scores 1.0."""

    def test_negative_pred_names_the_argument_and_value(self):
        with pytest.raises(ValueError, match=r"^pred: .*non-negative, got -1$"):
            metric_row([-1, 2, -4], [0, 1, 1])

    def test_negative_truth_names_the_argument_and_first_value(self):
        with pytest.raises(ValueError, match=r"^truth: .*non-negative, got -3$"):
            metric_row([0, 1, 1], [0, -3, -1])


def test_empty_labellings_rejected():
    with pytest.raises(ValueError, match=r"^empty label arrays$"):
        metric_row([], [])
