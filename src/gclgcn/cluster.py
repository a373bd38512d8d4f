"""KMeans with SSE-selected restarts, the Student-t soft assignment and its
sharpened target distribution, and the four clustering metrics.

Metric conventions: ACC and F1 are computed after an optimal one-to-one
label matching, a maximum-weight matching of the confusion matrix found by
the shortest-augmenting-path method (Crouse, IEEE TAES 2016) that scipy's
linear_sum_assignment uses, with its tie rule (among columns of equal path
cost the last unassigned one wins, otherwise the first), so it picks the
matching scipy picks; NMI uses natural logs and the geometric mean of the two
entropies; ARI is the standard pair-counting adjusted index. metric_row
scores a labelling: it checks the labels once and reads all four metrics
from one confusion matrix, sized by the ids that occur.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "KMeansResult",
    "kmeans",
    "student_t",
    "target_distribution",
    "METRICS",
    "metric_row",
]


# Seedings tried, Lloyd iterations per seeding, and the largest centroid
# move that stops them.
_RESTARTS = 20
_MAX_ITER = 300
_TOL = 1e-4


@dataclass(frozen=True)
class KMeansResult:
    centroids: np.ndarray  # (k, d)
    labels: np.ndarray  # (n,)
    sse: float


def _squared_distances(z: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = z[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _plusplus_init(z: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Distance-proportional seeding: each next center is drawn with
    probability proportional to the squared distance to the nearest chosen one."""
    n = z.shape[0]
    centers = np.empty((k, z.shape[1]))
    first = int(rng.integers(n))
    centers[0] = z[first]
    d2 = ((z - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = z[idx]
        d2 = np.minimum(d2, ((z - centers[j]) ** 2).sum(axis=1))
    return centers


def _lloyd(z: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    k = centers.shape[0]
    prev_sse = np.inf
    labels = np.zeros(z.shape[0], dtype=np.int64)
    for _ in range(_MAX_ITER):
        d2 = _squared_distances(z, centers)
        labels = d2.argmin(axis=1)
        sse = float(d2[np.arange(z.shape[0]), labels].sum())
        if sse > prev_sse * (1 + 1e-12) + 1e-9:
            raise RuntimeError(
                f"kmeans: SSE increased across a Lloyd iteration ({prev_sse!r} -> {sse!r})"
            )
        prev_sse = sse

        new_centers = centers.copy()
        for j in range(k):
            members = labels == j
            if members.any():
                new_centers[j] = z[members].mean(axis=0)
        # Re-seed empties at the point farthest from its assigned centroid.
        empties = [j for j in range(k) if not (labels == j).any()]
        if empties:
            far_order = np.argsort(-d2[np.arange(z.shape[0]), labels], kind="stable")
            for rank, j in enumerate(empties):
                new_centers[j] = z[far_order[rank]]
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if shift < _TOL:
            break
    d2 = _squared_distances(z, centers)
    labels = d2.argmin(axis=1)
    sse = float(d2[np.arange(z.shape[0]), labels].sum())
    return centers, labels, sse


def kmeans(z: np.ndarray, k: int, seed: int = 0) -> KMeansResult:
    """Lloyd iterations from each of _RESTARTS distance-proportional seedings;
    the restart with the lowest SSE wins (ties broken by restart order). A
    cluster that empties is re-seeded at the point farthest from its assigned
    centroid. Deterministic for a seed."""
    z = np.asarray(z, dtype=np.float64)
    n = z.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"kmeans: need 1 <= k <= n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    best: KMeansResult | None = None
    for _ in range(_RESTARTS):
        centers = _plusplus_init(z, k, rng)
        centers, labels, sse = _lloyd(z, centers)
        if best is None or sse < best.sse:
            best = KMeansResult(centroids=centers, labels=labels, sse=sse)
    return best


def student_t(z: np.ndarray, centroids: np.ndarray, t: float = 1.0):
    """DEC's Student-t soft assignment (Xie et al., ICML 2016) with t degrees
    of freedom: row i of q is proportional to (1 + d2_i / t) ** (-(t + 1) / 2),
    d2 holding the squared distances of z's rows to the centroids, clamped at
    0. Returns (q, d2); every row of q sums to 1."""
    d2 = (z * z).sum(axis=1, keepdims=True) + (centroids * centroids).sum(axis=1, keepdims=True).T
    d2 += (z @ centroids.T.copy()) * -2.0
    np.maximum(d2, 0.0, out=d2)
    u = (d2 * (1.0 / t) + 1.0) ** (-(t + 1.0) / 2.0)
    return u * u.sum(axis=1, keepdims=True) ** -1.0, d2


def target_distribution(q: np.ndarray) -> np.ndarray:
    """Sharpened, frequency-normalized transform of Q (gradient-detached)."""
    weight = q**2 / q.sum(axis=0)
    return weight / weight.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

# The scores of a labelling, in the order every table and line prints them.
METRICS = ("acc", "nmi", "ari", "f1")


def _as_labels(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.int64).ravel()
    truth = np.asarray(truth, dtype=np.int64).ravel()
    if pred.shape != truth.shape:
        raise ValueError(f"label lengths differ: {pred.size} vs {truth.size}")
    if pred.size == 0:
        raise ValueError("empty label arrays")
    for name, labels in (("pred", pred), ("truth", truth)):
        negative = labels[labels < 0]
        if negative.size:
            raise ValueError(f"{name}: label ids must be non-negative, got {int(negative[0])}")
    return pred, truth


def _confusion(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """The square confusion matrix of the label arrays pred and truth: entry
    (i, j) counts the points pred labels i and truth labels j. When an id is
    n or more, each array's ids are first ranked densely, so the matrix is
    sized by the ids that occur, never by the largest id; labellings whose
    ids are all below n index it as they are."""
    if max(pred.max(), truth.max()) >= pred.size:
        pred = np.unique(pred, return_inverse=True)[1]
        truth = np.unique(truth, return_inverse=True)[1]
    d = int(max(pred.max(), truth.max())) + 1
    w = np.zeros((d, d), dtype=np.int64)
    np.add.at(w, (pred, truth), 1)
    return w


def _match(w: np.ndarray) -> np.ndarray:
    """Column matched to each row of the square matrix w in a one-to-one
    matching of largest total weight: the cols that
    scipy.optimize.linear_sum_assignment(w, maximize=True) returns.

    The same shortest-augmenting-path method (Crouse, IEEE TAES 2016) on the
    same cost -w, so ties resolve as scipy resolves them: rows are augmented
    in order; each search scans the columns it has left in scipy's order (last
    column first, a chosen column's slot taken by the last one left); among
    columns of equal path cost it takes the last unassigned one, or else the
    first."""
    cost = -np.asarray(w, dtype=np.float64)
    d = cost.shape[0]
    u = np.zeros(d)
    v = np.zeros(d)
    path = np.full(d, -1)
    col4row = np.full(d, -1)
    row4col = np.full(d, -1)
    for cur in range(d):
        shortest = np.full(d, np.inf)
        seen_rows = np.zeros(d, dtype=bool)
        seen_cols = np.zeros(d, dtype=bool)
        remaining = np.arange(d - 1, -1, -1)
        min_val = 0.0
        i = cur
        sink = -1
        while sink < 0:
            seen_rows[i] = True
            r = min_val + cost[i, remaining] - u[i] - v[remaining]
            better = r < shortest[remaining]
            path[remaining[better]] = i
            shortest[remaining[better]] = r[better]
            costs = shortest[remaining]
            min_val = costs.min()
            ties = np.flatnonzero(costs == min_val)
            free = ties[row4col[remaining[ties]] < 0]
            index = free[-1] if free.size else ties[0]
            j = remaining[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            seen_cols[j] = True
            remaining[index] = remaining[-1]
            remaining = remaining[:-1]
        # Dual update, then flip the path's assignments back to row cur.
        u[cur] += min_val
        seen_rows[cur] = False
        u[seen_rows] += min_val - shortest[col4row[seen_rows]]
        v[seen_cols] -= min_val - shortest[seen_cols]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def _accuracy(m: np.ndarray) -> float:
    """ACC, the best-bijection agreement rate, from the matched confusion
    matrix m: its trace over n."""
    return float(np.trace(m)) / float(m.sum())


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def _nmi(w: np.ndarray, n: int) -> float:
    """NMI from the confusion matrix w (float) of n points: the mutual
    information over the geometric mean of the partition entropies, natural
    logs throughout. Identical partitions (up to relabeling), where every
    nonzero row and column of w holds one nonzero entry, score exactly 1."""
    nz = w > 0
    if nz.sum() == nz.any(axis=1).sum() == nz.any(axis=0).sum():
        return 1.0
    pi = w.sum(axis=1)
    pj = w.sum(axis=0)
    h_pred = _entropy(pi)
    h_truth = _entropy(pj)
    if h_pred == 0.0 or h_truth == 0.0:
        return 0.0
    mi = float(
        (w[nz] / n * (np.log(w[nz] * n) - np.log(np.outer(pi, pj)[nz]))).sum()
    )
    return float(np.clip(mi / np.sqrt(h_pred * h_truth), 0.0, 1.0))


def _ari(w: np.ndarray, n: int) -> float:
    """The pair-counting Rand index adjusted for chance, from the confusion
    matrix w (float) of n points."""
    if n < 2:
        # No pair to count; a single point is trivially labelled the same.
        return 1.0

    def comb2(x):
        return (x * (x - 1.0) / 2.0).sum()

    joint = comb2(w)
    a = comb2(w.sum(axis=1))
    b = comb2(w.sum(axis=0))
    total = n * (n - 1.0) / 2.0
    expected = a * b / total
    max_index = 0.5 * (a + b)
    denom = max_index - expected
    if denom == 0.0:
        # Both partitions trivial in the same way, hence identical.
        return 1.0
    return float((joint - expected) / denom)


def _f1_macro(m: np.ndarray) -> float:
    """Macro F1 from the matched confusion matrix m. Class c's tp is its
    diagonal entry, tp + fp its row sum and tp + fn its column sum, which
    is positive exactly for the classes truth holds."""
    col = m.sum(axis=0)
    classes = np.flatnonzero(col)
    tp = m.diagonal()[classes].astype(np.float64)
    fp = m.sum(axis=1)[classes] - tp
    fn = col[classes] - tp
    return float(np.mean(2 * tp / (2 * tp + fp + fn)))


def metric_row(pred, truth) -> dict[str, float]:
    """The labelling pred scored against truth, keyed by METRICS, all four
    read from one confusion matrix: ACC and F1 with its rows reordered by
    the optimal label matching (row c counts the predicted id matched to
    truth id c), NMI and ARI as it is."""
    pred, truth = _as_labels(pred, truth)
    w = _confusion(pred, truth)
    cols = _match(w)
    order = np.empty_like(cols)
    order[cols] = np.arange(len(w))
    m = w[order]
    wf = w.astype(np.float64)
    return dict(zip(METRICS, (_accuracy(m), _nmi(wf, pred.size), _ari(wf, pred.size),
                              _f1_macro(m))))
