"""KMeans with SSE-selected restarts and the four clustering metrics.

Metric conventions: ACC and F1 are computed after an optimal one-to-one
label matching (Hungarian assignment on the confusion matrix); NMI uses
natural logs and the geometric mean of the two entropies; ARI is the standard
pair-counting adjusted index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

__all__ = [
    "KMeansResult",
    "kmeans",
    "accuracy",
    "label_matching",
    "nmi",
    "ari",
    "f1_macro",
    "metric_row",
]


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


def _lloyd(
    z: np.ndarray, centers: np.ndarray, max_iter: int, tol: float
) -> tuple[np.ndarray, np.ndarray, float]:
    k = centers.shape[0]
    prev_sse = np.inf
    labels = np.zeros(z.shape[0], dtype=np.int64)
    for _ in range(max_iter):
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
        if shift < tol:
            break
    d2 = _squared_distances(z, centers)
    labels = d2.argmin(axis=1)
    sse = float(d2[np.arange(z.shape[0]), labels].sum())
    return centers, labels, sse


def kmeans(
    z: np.ndarray,
    k: int,
    restarts: int = 20,
    seed: int = 0,
    max_iter: int = 300,
    tol: float = 1e-4,
) -> KMeansResult:
    """Lloyd iterations from distance-proportional seeds; the restart with the
    lowest SSE wins (ties broken by restart order). A cluster that empties is
    re-seeded at the point farthest from its assigned centroid. Deterministic
    for a seed."""
    z = np.asarray(z, dtype=np.float64)
    n = z.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"kmeans: need 1 <= k <= n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    best: KMeansResult | None = None
    for _ in range(restarts):
        centers = _plusplus_init(z, k, rng)
        centers, labels, sse = _lloyd(z, centers, max_iter, tol)
        if best is None or sse < best.sse:
            best = KMeansResult(centroids=centers, labels=labels, sse=sse)
    return best


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _as_labels(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.int64).ravel()
    truth = np.asarray(truth, dtype=np.int64).ravel()
    if pred.shape != truth.shape:
        raise ValueError(f"label lengths differ: {pred.size} vs {truth.size}")
    if pred.size == 0:
        raise ValueError("empty label arrays")
    return pred, truth


def _confusion(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    d = int(max(pred.max(), truth.max())) + 1
    w = np.zeros((d, d), dtype=np.int64)
    np.add.at(w, (pred, truth), 1)
    return w


def label_matching(pred, truth) -> dict[int, int]:
    """Optimal one-to-one map predicted-id -> truth-id (Hungarian, maximize)."""
    pred, truth = _as_labels(pred, truth)
    w = _confusion(pred, truth)
    rows, cols = linear_sum_assignment(w, maximize=True)
    return {int(r): int(c) for r, c in zip(rows, cols)}


def accuracy(pred, truth) -> float:
    """Best-bijection agreement rate."""
    pred, truth = _as_labels(pred, truth)
    w = _confusion(pred, truth)
    rows, cols = linear_sum_assignment(w, maximize=True)
    return float(w[rows, cols].sum()) / pred.size


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def _canonical(labels: np.ndarray) -> np.ndarray:
    _, canon = np.unique(labels, return_inverse=True)
    first = {}
    out = np.empty_like(labels)
    for i, c in enumerate(canon):
        out[i] = first.setdefault(int(c), len(first))
    return out


def nmi(pred, truth) -> float:
    """Mutual information normalized by the geometric mean of the partition
    entropies; natural logs throughout. Identical partitions (up to
    relabeling) score exactly 1."""
    pred, truth = _as_labels(pred, truth)
    if np.array_equal(_canonical(pred), _canonical(truth)):
        return 1.0
    w = _confusion(pred, truth).astype(np.float64)
    n = pred.size
    pi = w.sum(axis=1)
    pj = w.sum(axis=0)
    h_pred = _entropy(pi)
    h_truth = _entropy(pj)
    if h_pred == 0.0 and h_truth == 0.0:
        return 1.0
    if h_pred == 0.0 or h_truth == 0.0:
        return 0.0
    nz = w > 0
    mi = float(
        (w[nz] / n * (np.log(w[nz] * n) - np.log(np.outer(pi, pj)[nz]))).sum()
    )
    return float(np.clip(mi / np.sqrt(h_pred * h_truth), 0.0, 1.0))


def ari(pred, truth) -> float:
    """Pair-counting Rand index adjusted for chance."""
    pred, truth = _as_labels(pred, truth)
    w = _confusion(pred, truth).astype(np.float64)
    n = pred.size

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


def f1_macro(pred, truth) -> float:
    """Macro F1 over truth classes after the optimal label matching."""
    pred, truth = _as_labels(pred, truth)
    mapping = label_matching(pred, truth)
    mapped = np.array([mapping.get(int(x), -1) for x in pred])
    scores = []
    for c in np.unique(truth):
        tp = float(((mapped == c) & (truth == c)).sum())
        fp = float(((mapped == c) & (truth != c)).sum())
        fn = float(((mapped != c) & (truth == c)).sum())
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(scores))


def metric_row(pred, truth) -> dict[str, float]:
    return {
        "acc": accuracy(pred, truth),
        "nmi": nmi(pred, truth),
        "ari": ari(pred, truth),
        "f1": f1_macro(pred, truth),
    }
