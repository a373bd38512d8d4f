"""Independent reference implementations used only to check production code.

These deliberately take different algorithmic routes: betweenness is counted
via Floyd-Warshall all-pairs path counting (the implementation uses
level-synchronous Brandes accumulation), the matching accuracy enumerates
every bijection, the graph operators are dense n x n matrices (the
implementation keeps the adjacency and the attention weights in CSR), and
the Adam update runs on whole arrays (the implementation updates in blocks),
and the layer ops are composed from the tape's elementary ops (the
implementation records each as one node). The finite-difference checker, the
closed-form centroid gradient and the composite loss of a model state judge
the tape's gradients.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from gclgcn import autodiff as ad
from gclgcn import pipeline as P
from gclgcn.autodiff import Tensor
from gclgcn.config import ExperimentConfig
from gclgcn.graph import Graph
from gclgcn.pipeline import ModelState


def floyd_warshall_counts(n: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs shortest-path lengths and path counts on a unit-weight graph."""
    dist = np.full((n, n), np.inf)
    cnt = np.zeros((n, n))
    np.fill_diagonal(dist, 0.0)
    np.fill_diagonal(cnt, 1.0)
    for u, v in edges:
        dist[u, v] = dist[v, u] = 1.0
        cnt[u, v] = cnt[v, u] = 1.0
    for m in range(n):
        via = dist[:, [m]] + dist[[m], :]
        cvia = cnt[:, [m]] * cnt[[m], :]
        ok = np.ones((n, n), dtype=bool)
        ok[m, :] = False
        ok[:, m] = False
        np.fill_diagonal(ok, False)
        shorter = (via < dist) & ok
        equal = (via == dist) & np.isfinite(via) & ok
        dist[shorter] = via[shorter]
        cnt[shorter] = cvia[shorter]
        cnt[equal] += cvia[equal]
    return dist, cnt


def betweenness_reference(n: int, edges) -> np.ndarray:
    """Betweenness over unordered pairs from Floyd-Warshall path counts."""
    dist, cnt = floyd_warshall_counts(n, edges)
    out = np.zeros(n)
    iu = np.triu_indices(n, k=1)
    for v in range(n):
        via = dist[:, [v]] + dist[[v], :]
        on_path = np.isfinite(dist) & (via == dist) & (cnt > 0)
        on_path[v, :] = False
        on_path[:, v] = False
        np.fill_diagonal(on_path, False)
        frac = np.zeros((n, n))
        frac[on_path] = (cnt[:, [v]] * cnt[[v], :])[on_path] / cnt[on_path]
        out[v] = frac[iu].sum()
    return out


def closeness_reference(n: int, edges) -> np.ndarray:
    """1 / (sum of distances to reachable nodes), from Floyd-Warshall."""
    dist, _ = floyd_warshall_counts(n, edges)
    out = np.zeros(n)
    for v in range(n):
        d = dist[v]
        finite = np.isfinite(d) & (np.arange(n) != v)
        total = d[finite].sum()
        out[v] = 1.0 / total if total > 0 else 0.0
    return out


def degree_reference(n: int, edges) -> np.ndarray:
    deg = np.zeros(n)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    top = deg.max()
    return deg / top if top > 0 else deg


def brute_force_accuracy(pred, truth) -> float:
    """Max agreement over every one-to-one relabeling of predicted ids."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    k = int(max(pred.max(), truth.max())) + 1
    w = np.zeros((k, k))
    np.add.at(w, (pred, truth), 1)
    best = 0.0
    for perm in itertools.permutations(range(k)):
        best = max(best, sum(w[i, perm[i]] for i in range(k)))
    return best / pred.size


def random_er_graph(n: int, p: float, rng: np.random.Generator):
    """Erdos-Renyi edge list."""
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j))
    return edges


def dense_normalized_adjacency(n: int, edges) -> np.ndarray:
    """D^{-1/2} (A+I) D^{-1/2} as a dense matrix."""
    a = np.eye(n)
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    d = a.sum(axis=1)
    return a / np.sqrt(np.outer(d, d))


def dense_logit_bias(features: np.ndarray, edges, sign: float = 1.0) -> np.ndarray:
    """Signed euclidean distance on every edge (both orders), 0 on the
    diagonal, -inf outside the self-looped neighbourhood."""
    n = features.shape[0]
    out = np.full((n, n), -np.inf)
    np.fill_diagonal(out, 0.0)
    for u, v in edges:
        out[u, v] = out[v, u] = sign * float(np.linalg.norm(features[u] - features[v]))
    return out


def leaky_relu(x: np.ndarray, slope: float = 0.01) -> np.ndarray:
    return np.where(x > 0, x, slope * x)


def dense_gcn_layer(adj: np.ndarray, z: np.ndarray, w: np.ndarray, activate=True) -> np.ndarray:
    out = (adj @ z) @ w
    return leaky_relu(out) if activate else out


def masked_attention(q, k, v, logit_bias: np.ndarray, scale: float) -> np.ndarray:
    """softmax(scale * q k^T + logit_bias) v over full rows; -inf logits get
    exactly zero weight."""
    logits = scale * (q @ k.T) + logit_bias
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)) @ v


def dense_graphormer_layer(z, centrality, logit_bias, params, heads=1, activate=True):
    """Multi-head masked attention with the centrality terms of every
    projection; params is a layers.GraphormerLayerParams."""
    def proj(role):
        return (z @ getattr(params, f"w_{role}").value
                + centrality @ getattr(params, f"wc_{role}").value)

    keys, queries, values = proj("key"), proj("query"), proj("value")
    d_head = keys.shape[1] // heads
    out = 0.0
    for h in range(heads):
        cols = slice(h * d_head, (h + 1) * d_head)
        out = out + masked_attention(
            queries[:, cols], keys[:, cols], values[:, cols], logit_bias, 1.0 / np.sqrt(d_head)
        )
    out = out / heads
    return leaky_relu(out) if activate else out


def composed_project(z, w, c, wc) -> Tensor:
    """autodiff.project as matmuls and an add."""
    return ad.add(ad.matmul(z, w), ad.matmul(c, wc))


def composed_blend(a, b, eps: float) -> Tensor:
    """autodiff.blend as two scales and an add."""
    return ad.add(ad.scale(a, eps), ad.scale(b, 1.0 - eps))


def composed_dense(x, w, b, activate=False) -> Tensor:
    """autodiff.dense as a matmul, a broadcast add and leaky_relu."""
    out = ad.add(ad.matmul(x, w), b)
    return ad.leaky_relu(out) if activate else out


def composed_propagate(adj: sp.csr_array, z, w, activate=False) -> Tensor:
    """autodiff.propagate as spmm, matmul and leaky_relu, with the sparse
    product on the narrower side: adj @ (z @ w) when w narrows, else
    (adj @ z) @ w."""
    if w.shape[1] < w.shape[0]:
        out = ad.spmm(adj, ad.matmul(z, w))
    else:
        out = ad.matmul(ad.spmm(adj, z), w)
    return ad.leaky_relu(out) if activate else out


def support_values(rows, cols, values) -> dict:
    """{(i, j): value} for entries listed in support order."""
    return {(int(i), int(j)): float(x) for i, j, x in zip(rows, cols, values)}


def adam_step_whole(params, grads, state) -> None:
    """Bias-corrected Adam on whole arrays through one full-size scratch
    array per parameter, in place on params and on state (an
    autodiff.AdamState); the blocked autodiff.adam_step must match it bit
    for bit."""
    state.step += 1
    c1 = 1.0 - state.beta1**state.step
    c2 = 1.0 - state.beta2**state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        w = np.empty_like(p.value)
        m *= state.beta1
        np.multiply(g, 1.0 - state.beta1, out=w)
        m += w
        v *= state.beta2
        np.multiply(g, g, out=w)
        w *= 1.0 - state.beta2
        v += w
        np.divide(v, c2, out=w)
        np.sqrt(w, out=w)
        w += state.eps
        np.divide(m, w, out=w)
        w *= state.lr / c1
        p.value -= w


def finite_difference_check(
    f: Callable[[Sequence[Tensor]], Tensor],
    params: Sequence[Tensor],
    h: float = 1e-5,
) -> float:
    """Max over all coordinates of |numeric - analytic| / max(1, |analytic|).

    f must be deterministic; it is re-evaluated with each coordinate nudged
    by +/- h (central differences).
    """
    ad.zero_grad(params)
    ad.backward(f(params))
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    for p, ana in zip(params, analytic):
        flat = p.value.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f(params).value[0, 0]
            flat[i] = orig - h
            down = f(params).value[0, 0]
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            a = ana.ravel()[i]
            worst = max(worst, abs(numeric - a) / max(1.0, abs(a)))
    return worst


def centroid_gradient(
    z: np.ndarray, centroids: np.ndarray, p: np.ndarray, q: np.ndarray, t: float = 1.0
) -> np.ndarray:
    """Closed-form gradient of the clustering KL term with respect to each
    centroid; used as an analytic cross-check of the tape."""
    diff = z[:, None, :] - centroids[None, :, :]  # (n, k, d)
    w = 1.0 / (1.0 + (diff**2).sum(axis=2) / t)  # (n, k)
    coef = -(t + 1.0) / t * w * (p - q)
    return np.einsum("nk,nkd->kd", coef, diff)


def loss_total(
    state: ModelState,
    g: Graph,
    cfg: ExperimentConfig,
    p_fixed: np.ndarray | None = None,
):
    """Composite objective and its component values for the current state.

    p_fixed pins the detached target distribution; by default it is
    recomputed from the current soft assignment, as during training.
    """
    cons = P._build_constants(g, cfg, state.x_c, P.GraphTerms(g))
    total, components, _ = P._epoch_losses(state, cons, cfg, p_fixed=p_fixed)
    return total, components
