"""Independent reference implementations used only to check production code.

These deliberately take different algorithmic routes: betweenness is counted
via Floyd-Warshall all-pairs path counting (the implementation uses
level-synchronous Brandes accumulation), closeness is read from scipy
csgraph's all-pairs hop matrix (the implementation sums the levels of the
breadth-first sweep that betweenness runs), the planted-partition generator
draws its n x n edge coins at once (the implementation draws a block of rows
at a time), the matching accuracy enumerates every bijection, the graph operators are dense n x n matrices (the
implementation keeps the adjacency and the attention weights in CSR), and
the Adam update runs on whole arrays in one call (the implementation folds
each gradient into the moments in blocks as backward finishes it, and
applies the update in blocks afterwards),
the layer ops and the two row-blocked losses are composed from the tape's
elementary ops (the implementation records each as one node, and the losses
never hold an n x n array beyond one block of rows; exp, sqrt and sigmoid,
which only these composed losses read, are defined here), the clustering
head is composed from soft_assign and kl_div chains, the form it replaced
(the implementation, autodiff.cluster_kl, records it as one node with
closed-form Student-t gradients; transpose, square, clamp_min, signed_pow,
hadamard, log, reduce_sum, the dense matmul, scale and the broadcasting add,
which only the composed forms and the tests' scalar losses read, are
defined here; the model's own linear combinations are autodiff.weighted_sum
nodes, checked against scale and add chains), the attention op
is composed from project, columns, edge_attention and leaky_relu, the chain
it replaced, defined here, over split weights W of z and Wc of the
centrality columns (the implementation reads one stacked W~ = [W; Wc] per
role and scores through W~q W~k^T when a layer widens), and the initial
parameters of the autoencoder, GCN and attention stacks are drawn into
per-stack lists and named afterwards, the attention's W and Wc apart (the
implementation builds every stack, names included, with
pipeline.Channel.build, and stacks each role's W~), and backward is the
accumulating loop that zeroes the gradients and then adds every
contribution, a leaf's too, through a pending sum (the implementation
counts each leaf's consumers and writes a leaf's first contribution into
the buffer its sum is kept in, often from inside the op), run on the tape
before autodiff.backward releases it, and the epsilon-blend that
pipeline.Channel.encode forgets once its layer has read it is kept
(injection_bytes runs both). The four clustering metrics are scored as
each once built its own confusion matrix, sized by the largest id, with
NMI's identical partitions found by renumbering both labellings and F1 by
per-class boolean passes over a dict lookup (metric_row reads all four
from one confusion matrix).
The finite-difference checker, the closed-form centroid gradient and the
composite loss of a model state judge the tape's gradients,
tape_arrays lists what a tape holds, and forgetting_pair runs a tape with
its layer outputs forgotten beside one that keeps them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from gclgcn import autodiff as ad
from gclgcn import pipeline as P
from gclgcn.autodiff import Tensor
from gclgcn.cluster import _match, target_distribution
from gclgcn.config import ExperimentConfig
from gclgcn.graph import Graph, SbmSpec, adjacency_matrix
from gclgcn.layers import glorot
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


def shortest_path_hops(g: Graph) -> np.ndarray:
    """All-pairs hop counts (scipy csgraph, unit edge weights); unreachable
    pairs hold the sentinel n."""
    dist = csgraph.shortest_path(
        adjacency_matrix(g), method="D", directed=False, unweighted=True
    )
    dist[np.isinf(dist)] = g.n
    return dist.astype(np.int64)


def closeness_from_hops(g: Graph) -> np.ndarray:
    """Closeness from the all-pairs hop matrix, the integer hop sums over
    the reachable nodes inverted as the implementation inverts them."""
    hops = shortest_path_hops(g)
    total = np.where(hops < g.n, hops, 0).sum(axis=1)
    out = np.zeros(g.n)
    np.divide(1.0, total, out=out, where=total > 0)
    return out


def generate_sbm_whole(spec: SbmSpec, seed: int) -> Graph:
    """The planted-partition generator drawing all n x n edge coins at once
    (the implementation draws them a block of rows at a time)."""
    rng = np.random.default_rng(seed)
    n = spec.n
    labels = np.repeat(np.arange(len(spec.block_sizes)), spec.block_sizes)
    u = rng.random((n, n))
    same = labels[:, None] == labels[None, :]
    prob = np.where(same, spec.p_in, spec.p_out)
    hit = (u < prob) & np.triu(np.ones((n, n), dtype=bool), k=1)
    edges = tuple((int(i), int(j)) for i, j in np.argwhere(hit))
    feats = spec.means[labels]
    if spec.noise_std > 0:
        feats = feats + spec.noise_std * rng.standard_normal((n, spec.means.shape[1]))
    return Graph(features=feats, edges=edges, labels=labels)


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


def canonical_loop(labels: np.ndarray) -> np.ndarray:
    """labels renumbered in order of first occurrence by a loop over the
    labels."""
    _, canon = np.unique(labels, return_inverse=True)
    first = {}
    out = np.empty_like(labels)
    for i, c in enumerate(canon):
        out[i] = first.setdefault(int(c), len(first))
    return out


def _confusion_by_largest_id(pred, truth) -> np.ndarray:
    """The (largest id + 1)-square confusion matrix of two label arrays."""
    d = int(max(pred.max(), truth.max())) + 1
    w = np.zeros((d, d), dtype=np.int64)
    np.add.at(w, (pred, truth), 1)
    return w


def nmi_oracle(pred, truth) -> float:
    """NMI as the package computed it on its own confusion matrix sized by
    the largest id, with identical partitions found by renumbering both
    labellings in order of first occurrence."""
    if np.array_equal(canonical_loop(pred), canonical_loop(truth)):
        return 1.0
    w = _confusion_by_largest_id(pred, truth).astype(np.float64)
    n = pred.size
    pi = w.sum(axis=1)
    pj = w.sum(axis=0)

    def entropy(counts):
        p = counts[counts > 0] / counts.sum()
        return float(-(p * np.log(p)).sum())

    h_pred = entropy(pi)
    h_truth = entropy(pj)
    if h_pred == 0.0 and h_truth == 0.0:
        return 1.0
    if h_pred == 0.0 or h_truth == 0.0:
        return 0.0
    nz = w > 0
    mi = float(
        (w[nz] / n * (np.log(w[nz] * n) - np.log(np.outer(pi, pj)[nz]))).sum()
    )
    return float(np.clip(mi / np.sqrt(h_pred * h_truth), 0.0, 1.0))


def ari_oracle(pred, truth) -> float:
    """ARI as the package computed it on its own confusion matrix sized by
    the largest id."""
    w = _confusion_by_largest_id(pred, truth).astype(np.float64)
    n = pred.size
    if n < 2:
        return 1.0

    def comb2(x):
        return (x * (x - 1.0) / 2.0).sum()

    joint = comb2(w)
    a = comb2(w.sum(axis=1))
    b = comb2(w.sum(axis=0))
    total = n * (n - 1.0) / 2.0
    expected = a * b / total
    denom = 0.5 * (a + b) - expected
    if denom == 0.0:
        return 1.0
    return float((joint - expected) / denom)


def f1_macro_loop(pred, truth) -> float:
    """Macro F1 after cluster._match's label matching of the confusion
    matrix sized by the largest id, with the per-label dict lookup and
    per-class passes that the matched confusion matrix of
    cluster.metric_row replaced."""
    w = _confusion_by_largest_id(pred, truth)
    mapping = dict(enumerate(_match(w).tolist()))
    mapped = np.array([mapping.get(int(x), -1) for x in pred])
    scores = []
    for c in np.unique(truth):
        tp = float(((mapped == c) & (truth == c)).sum())
        fp = float(((mapped == c) & (truth != c)).sum())
        fn = float(((mapped != c) & (truth == c)).sum())
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(scores))


def metric_row_oracle(pred, truth) -> dict[str, float]:
    """ACC, NMI, ARI and F1 as the package scored them when each metric
    built its own confusion matrix, sized by the largest id: ACC is the
    share of points cluster._match matches."""
    pred = np.asarray(pred, dtype=np.int64).ravel()
    truth = np.asarray(truth, dtype=np.int64).ravel()
    w = _confusion_by_largest_id(pred, truth)
    acc = float(w[np.arange(len(w)), _match(w)].sum()) / float(pred.size)
    return {"acc": acc, "nmi": nmi_oracle(pred, truth), "ari": ari_oracle(pred, truth),
            "f1": f1_macro_loop(pred, truth)}


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


def dense_leaky_relu(x: np.ndarray, slope: float = 0.01) -> np.ndarray:
    return np.where(x > 0, x, slope * x)


def dense_gcn_layer(adj: np.ndarray, z: np.ndarray, w: np.ndarray, activate=True) -> np.ndarray:
    out = (adj @ z) @ w
    return dense_leaky_relu(out) if activate else out


def masked_attention(q, k, v, logit_bias: np.ndarray, scale: float) -> np.ndarray:
    """softmax(scale * q k^T + logit_bias) v over full rows; -inf logits get
    exactly zero weight."""
    logits = scale * (q @ k.T) + logit_bias
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)) @ v


def dense_graphormer_layer(z, centrality, logit_bias, params, heads=1, activate=True):
    """Multi-head masked attention with the centrality terms of every
    projection; params maps w_<role> and wc_<role> to a tensor for each
    role key, query, value."""
    def proj(role):
        return z @ params[f"w_{role}"].value + centrality @ params[f"wc_{role}"].value

    keys, queries, values = proj("key"), proj("query"), proj("value")
    d_head = keys.shape[1] // heads
    out = 0.0
    for h in range(heads):
        cols = slice(h * d_head, (h + 1) * d_head)
        out = out + masked_attention(
            queries[:, cols], keys[:, cols], values[:, cols], logit_bias, 1.0 / np.sqrt(d_head)
        )
    out = out / heads
    return dense_leaky_relu(out) if activate else out


def ae_init_reference(rng: np.random.Generator, dims) -> list[tuple[str, np.ndarray]]:
    """Named initial autoencoder parameters: glorot weights for every encoder
    layer along dims, then every decoder layer back along it, zero biases."""
    enc_w, enc_b, dec_w, dec_b = [], [], [], []
    for a, b in zip(dims[:-1], dims[1:]):
        enc_w.append(glorot(rng, a, b))
        enc_b.append(np.zeros((1, b)))
    rev = dims[::-1]
    for a, b in zip(rev[:-1], rev[1:]):
        dec_w.append(glorot(rng, a, b))
        dec_b.append(np.zeros((1, b)))
    out = []
    for i, (w, b) in enumerate(zip(enc_w, enc_b)):
        out += [(f"ae.enc.{i}.w", w), (f"ae.enc.{i}.b", b)]
    for i, (w, b) in enumerate(zip(dec_w, dec_b)):
        out += [(f"ae.dec.{i}.w", w), (f"ae.dec.{i}.b", b)]
    return out


def gcn_init_reference(rng: np.random.Generator, dims) -> list[tuple[str, np.ndarray]]:
    """Named initial GCN weights: encoder layers, then decoder layers."""
    enc = [glorot(rng, a, b) for a, b in zip(dims[:-1], dims[1:])]
    rev = dims[::-1]
    dec = [glorot(rng, a, b) for a, b in zip(rev[:-1], rev[1:])]
    return ([(f"gcn.enc.{i}.w", w) for i, w in enumerate(enc)]
            + [(f"gcn.dec.{i}.w", w) for i, w in enumerate(dec)])


def attention_init_reference(
    rng: np.random.Generator, dims, cent_dim: int, heads: int, cent_scale: np.ndarray
) -> list[tuple[str, np.ndarray]]:
    """Named initial attention parameters. Each layer draws w_key, w_query,
    w_value, then wc_key, wc_query, wc_value divided by the centrality
    column magnitudes cent_scale (floored at 1), and names each projection
    followed by its centrality term."""
    inv = (1.0 / np.maximum(np.asarray(cent_scale, dtype=np.float64), 1.0))[:, None]

    def layer(d_in, d_out):
        wide = heads * d_out
        drawn = {
            "w_key": glorot(rng, d_in, wide),
            "w_query": glorot(rng, d_in, wide),
            "w_value": glorot(rng, d_in, wide),
            "wc_key": glorot(rng, cent_dim, wide) * inv,
            "wc_query": glorot(rng, cent_dim, wide) * inv,
            "wc_value": glorot(rng, cent_dim, wide) * inv,
        }
        return [(f"{kind}_{role}", drawn[f"{kind}_{role}"])
                for role in ("key", "query", "value") for kind in ("w", "wc")]

    enc = [layer(a, b) for a, b in zip(dims[:-1], dims[1:])]
    rev = dims[::-1]
    dec = [layer(a, b) for a, b in zip(rev[:-1], rev[1:])]
    out = []
    for part, layers in (("enc", enc), ("dec", dec)):
        for i, roles in enumerate(layers):
            out += [(f"graphormer.{part}.{i}.{role}", arr) for role, arr in roles]
    return out


def stacked_attention(named) -> list[tuple[str, np.ndarray]]:
    """attention_init_reference's (name, array) pairs with each w_<role>
    stacked by rows over its wc_<role>, under the name w_<role>: the one
    weight W~ = [W; Wc] per role that autodiff.attention reads."""
    split = dict(named)
    return [
        (name, np.vstack([arr, split[name.replace(".w_", ".wc_")]]))
        for name, arr in named if ".w_" in name
    ]


def layer_params(named, part: str = "enc") -> list[dict[str, Tensor]]:
    """Trainable {role: parameter} dicts of the part ("enc" or "dec") layers
    of a list of (<prefix>.<part>.<i>.<role>, array) pairs, in layer order."""
    layers: dict[int, dict[str, Tensor]] = {}
    for name, arr in named:
        _, p, i, role = name.split(".")
        if p == part:
            layers.setdefault(int(i), {})[role] = ad.parameter(arr)
    return [layers[i] for i in sorted(layers)]


def project(z, w, c, wc) -> Tensor:
    """z @ w + c @ wc as one node; the backward reads only the operands."""
    zv, wv, cv, wcv = z.value, w.value, c.value, wc.value
    out = zv @ wv
    out += cv @ wcv

    def rule(g):
        return (g @ wv.T, zv.T @ g, g @ wcv.T, cv.T @ g)

    return Tensor(out, _parents=(z, w, c, wc), _rule=rule)


def composed_project(z, w, c, wc) -> Tensor:
    """project as matmuls and an add."""
    return add(matmul(z, w), matmul(c, wc))


def columns(a, lo: int, hi: int) -> Tensor:
    """Columns lo..hi-1 of a, as a contiguous copy."""
    shape = a.shape

    def rule(g):
        out = np.zeros(shape)
        out[:, lo:hi] = g
        return (out,)

    return Tensor(np.ascontiguousarray(a.value[:, lo:hi]), _parents=(a,), _rule=rule)


def leaky_relu(a) -> Tensor:
    """max(x, 0.01 x), which is x where x > 0 and 0.01 x elsewhere."""
    x = a.value
    return _unary(a, np.maximum(x, x * ad.LEAKY_SLOPE),
                  lambda g: ad._leaky_grad(g, x > 0))


def edge_attention(q, k, v, pattern: sp.csr_array, bias: np.ndarray, scale: float) -> Tensor:
    """Attention restricted to the entries of a sparse pattern: row i attends
    over the columns j stored in pattern row i with logits
    scale * q_i . k_j + bias_e (bias aligned with the pattern's entries), the
    softmax runs over each row's entries and the output is att @ v."""
    q, k, v = (t if isinstance(t, Tensor) else ad.constant(t) for t in (q, k, v))
    n = pattern.shape[0]
    indptr, cols = pattern.indptr, pattern.indices
    rows = np.repeat(np.arange(n), np.diff(indptr))
    starts = indptr[:-1]
    qv, kv, vv = q.value, k.value, v.value

    logits = np.einsum("ij,ij->i", qv[rows], kv[cols]) * scale + bias
    e = np.exp(logits - np.maximum.reduceat(logits, starts)[rows])
    att = e / np.add.reduceat(e, starts)[rows]
    weights = sp.csr_array((att, cols, indptr), shape=(n, n))

    def rule(g):
        d_att = np.einsum("ij,ij->i", g[rows], vv[cols])
        d_logit = att * (d_att - np.add.reduceat(att * d_att, starts)[rows]) * scale
        grads = sp.csr_array((d_logit, cols, indptr), shape=(n, n))
        return (grads @ kv, grads.T @ qv, weights.T @ g)

    return Tensor(weights @ vv, _parents=(q, k, v), _rule=rule)


def composed_attention(z, c, w, wc, pattern, bias, heads=1, activate=False) -> Tensor:
    """autodiff.attention as the chain it replaced: project for the query,
    key and value, columns per head, edge_attention, add and scale over the
    heads, then leaky_relu."""
    q, k, v = (project(z, wr, c, cr) for wr, cr in zip(w, wc))
    d_head = q.shape[1] // heads
    out = None
    for h in range(heads):
        if heads == 1:
            qh, kh, vh = q, k, v
        else:
            lo, hi = h * d_head, (h + 1) * d_head
            qh, kh, vh = (columns(t, lo, hi) for t in (q, k, v))
        head_out = edge_attention(qh, kh, vh, pattern, bias, 1.0 / math.sqrt(d_head))
        out = head_out if out is None else add(out, head_out)
    if heads > 1:
        out = scale(out, 1.0 / heads)
    return leaky_relu(out) if activate else out


def composed_blend(a, b, eps: float) -> Tensor:
    """The epsilon-injection a * eps + b * (1 - eps) as two scales and an
    add, the chain autodiff.weighted_sum replaced."""
    return add(scale(a, eps), scale(b, 1.0 - eps))


def injection_bytes(channels, hs_of, x, eps: float, params, forget: bool,
                    seed: int = 0) -> list[bytes]:
    """The bytes of every channel's output and of every gradient of params,
    for hs = hs_of() and the loss sum_c <W_c, channel c's output> +
    <W, hs[-1]> (W seeded random), where channel c runs its layers as
    pipeline.Channel.encode does: layer 0 on x, then layer i on the
    epsilon-blend, the weighted_sum node [(eps, hs[i - 1]), (1 - eps, z)] of
    layer i - 1's output z. With forget each blend is forgotten once its
    layer has read it, as Channel.encode does, so backward rebuilds it;
    otherwise every blend keeps its value. Each layer is called as
    layer(z)."""
    hs = hs_of()
    outs = []
    for layers in channels:
        z = layers[0](x)
        for h, layer in zip(hs, layers[1:]):
            blend = ad.weighted_sum([(eps, h), (1.0 - eps, z)])
            z = layer(blend)
            if forget:
                blend.forget()
        outs.append(z)
    rng = np.random.default_rng(seed)
    loss = ad.weighted_sum([(1.0, reduce_sum(hadamard(o, ad.constant(rng.standard_normal(o.shape)))))
                            for o in (*outs, hs[-1])])
    return [o.value.tobytes() for o in outs] + [g.tobytes() for g in grads(loss, params)]


def composed_dense(x, w, b, activate=False) -> Tensor:
    """autodiff.dense as a matmul, a broadcast add and leaky_relu."""
    out = add(matmul(x, w), b)
    return leaky_relu(out) if activate else out


def composed_propagate(adj: sp.csr_array, z, w, activate=False) -> Tensor:
    """autodiff.propagate as two matmuls and leaky_relu, with the sparse
    product on the narrower side: adj @ (z @ w) when w narrows, else
    (adj @ z) @ w."""
    if w.shape[1] < w.shape[0]:
        out = ad.matmul(adj, matmul(z, w))
    else:
        out = matmul(ad.matmul(adj, z), w)
    return leaky_relu(out) if activate else out


def _unary(a, value: np.ndarray, derivative: Callable[[np.ndarray], np.ndarray]) -> Tensor:
    """A tape node of value whose rule multiplies g by derivative(g)."""
    a = a if isinstance(a, Tensor) else ad.constant(a)
    return Tensor(value, _parents=(a,), _rule=lambda g: (derivative(g),))


def _broadcastable(sa, sb) -> bool:
    """Each dimension is equal in both shapes or 1 in one of them."""
    return all(x == y or 1 in (x, y) for x, y in zip(sa, sb))


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum g over the dimensions that were broadcast up from shape."""
    if g.shape == shape:
        return g
    out = g
    if shape[0] == 1 and g.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def matmul(a, b) -> Tensor:
    """a @ b of two tensors (autodiff.matmul takes only a constant sparse
    left operand)."""
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    ad._check(a.shape[1] == b.shape[0], "matmul", f"inner dims differ: {a.shape} x {b.shape}")
    av, bv = a.value, b.value
    na, nb = a._needs, b._needs

    def rule(g):
        return (g @ bv.T if na else None, av.T @ g if nb else None)

    return Tensor(av @ bv, _parents=(a, b), _rule=rule)


def scale(a, s: float) -> Tensor:
    """a * s, one term of the chains autodiff.weighted_sum stands for."""
    a = ad._as_tensor(a)
    s = float(s)
    return Tensor(a.value * s, _parents=(a,), _rule=lambda g: (g * s,))


def add(a, b) -> Tensor:
    """Element-wise sum; the operands broadcast as numpy broadcasts them."""
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    sa, sb = a.shape, b.shape
    ad._check(_broadcastable(sa, sb), "add", f"incompatible shapes {sa} + {sb}")
    return Tensor(a.value + b.value, _parents=(a, b),
                  _rule=lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def hadamard(a, b) -> Tensor:
    """Element-wise product; the operands broadcast as in add."""
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    sa, sb = a.shape, b.shape
    ad._check(_broadcastable(sa, sb), "hadamard", f"incompatible shapes {sa} * {sb}")
    av, bv = a.value, b.value

    def rule(g):
        return (_unbroadcast(g * bv, sa), _unbroadcast(g * av, sb))

    return Tensor(av * bv, _parents=(a, b), _rule=rule)


def reduce_sum(a, axis: int | None = None) -> Tensor:
    """Sum of every entry (1x1), or with axis=1 the row sums (r, 1)."""
    a = ad._as_tensor(a)
    ad._check(axis in (None, 1), "reduce_sum", f"axis must be None or 1, got {axis}")
    shape = a.shape
    return Tensor(a.value.sum(axis=axis, keepdims=True), _parents=(a,),
                  _rule=lambda g: (np.broadcast_to(g, shape),))


def transpose(a) -> Tensor:
    a = ad._as_tensor(a)
    return Tensor(a.value.T.copy(), _parents=(a,), _rule=lambda g: (g.T,))


def square(a) -> Tensor:
    a = ad._as_tensor(a)
    x = a.value
    return _unary(a, x * x, lambda g: g * 2.0 * x)


def log(a) -> Tensor:
    a = ad._as_tensor(a)
    x = a.value
    return _unary(a, np.log(x), lambda g: g / x)


def clamp_min(a, floor: float) -> Tensor:
    a = ad._as_tensor(a)
    mask = a.value > floor
    return _unary(a, np.maximum(a.value, floor), lambda g: g * mask)


def signed_pow(a, p: float) -> Tensor:
    """sign(x) * |x|**p, the sign-preserving power; derivative p*|x|**(p-1),
    with |x| floored at 1e-12 when p < 1."""
    a = ad._as_tensor(a)
    ax = np.abs(a.value)
    base = np.maximum(ax, 1e-12) if p < 1.0 else ax
    return _unary(a, np.sign(a.value) * ax**p, lambda g: g * p * base ** (p - 1.0))


def soft_assign(z, centroids, t: float = 1.0) -> Tensor:
    """The row-stochastic Student-t kernel around the centroids, composed
    from tape ops."""
    z_sq = reduce_sum(square(z), axis=1)  # (n, 1)
    c_sq = transpose(reduce_sum(square(centroids), axis=1))  # (1, k)
    cross = scale(matmul(z, transpose(centroids)), -2.0)
    d2 = clamp_min(add(add(z_sq, c_sq), cross), 0.0)
    u = signed_pow(add(scale(d2, 1.0 / t), 1.0), -(t + 1.0) / 2.0)
    return hadamard(u, signed_pow(reduce_sum(u, axis=1), -1.0))


def kl_div(num, den) -> Tensor:
    """sum(num * log(num/den)) with entries floored at 1e-12 before the logs."""
    ln = log(clamp_min(num, 1e-12))
    ld = log(clamp_min(den, 1e-12))
    return reduce_sum(hadamard(num, add(ln, scale(ld, -1.0))))


def composed_cluster_kl(z, z_ae, centroids, t, alpha, beta, p=None) -> Tensor:
    """autodiff.cluster_kl as the composed head it replaced: two soft_assign
    chains and two kl_div chains, weighted and added. p, when given, is the
    target in place of target_distribution(Q)."""
    q = soft_assign(z, centroids, t)
    if p is None:
        p = target_distribution(q.value)
    l_clu = kl_div(ad.constant(p), q)
    l_con = kl_div(q, soft_assign(z_ae, centroids, t))
    return add(scale(l_clu, alpha), scale(l_con, beta))


def exp(a) -> Tensor:
    y = np.exp(a.value)
    return _unary(a, y, lambda g: g * y)


def sqrt(a) -> Tensor:
    """Square root; the derivative denominator is floored at 1e-12 so exact
    zeros do not poison the backward pass."""
    y = np.sqrt(a.value)
    return _unary(a, y, lambda g: g * 0.5 / np.maximum(y, 1e-12))


def sigmoid(a) -> Tensor:
    x = a.value
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return _unary(a, y, lambda g: g * y * (1.0 - y))


def combined_similarity(c1: Tensor, c2: Tensor, exponent: float = 1.0) -> Tensor:
    """Pairwise cosine similarity times inverse-distance similarity, passed
    through a sign-preserving power. Row norms are floored at 1e-12. The
    composed form of the similarity inside autodiff.info_nce."""
    sq1 = reduce_sum(square(c1), axis=1)  # (n, 1) row norms squared
    sq2 = transpose(reduce_sum(square(c2), axis=1))  # (1, n)
    norm1 = clamp_min(sqrt(sq1), 1e-12)
    norm2 = clamp_min(sqrt(sq2), 1e-12)

    gram = matmul(c1, transpose(c2))
    cos = hadamard(gram, signed_pow(hadamard(norm1, norm2), -1.0))

    d2 = clamp_min(add(add(sq1, sq2), scale(gram, -2.0)), 0.0)
    euc = signed_pow(add(sqrt(d2), 1.0), -1.0)

    return signed_pow(hadamard(cos, euc), exponent)


def contrastive_loss(s: Tensor, tau: float) -> Tensor:
    """Mean cross-entropy of each similarity row against its diagonal entry,
    computed with a detached log-sum-exp shift for stability."""
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    n = s.shape[0]
    logits = scale(s, 1.0 / tau)
    shift = ad.constant(logits.value.max(axis=1, keepdims=True))
    e = exp(add(logits, scale(shift, -1.0)))
    lse = add(log(reduce_sum(e, axis=1)), shift)
    diag = reduce_sum(hadamard(logits, ad.constant(np.eye(n))))
    return scale(add(reduce_sum(lse), scale(diag, -1.0)), 1.0 / n)


def composed_info_nce(c1, c2, beta: float, tau: float) -> Tensor:
    """autodiff.info_nce as the composed similarity and loss."""
    return contrastive_loss(combined_similarity(c1, c2, beta), tau)


def inner_product_decode(z: Tensor) -> Tensor:
    """Edge-probability matrix sigmoid(Z Z^T)."""
    return sigmoid(matmul(z, transpose(z)))


def composed_decoder_mse(z, a: sp.csr_array) -> Tensor:
    """autodiff.decoder_mse as the dense decoder and mse against a dense a."""
    return ad.mse(inner_product_decode(z), ad.constant(a.toarray()))


def support_values(rows, cols, values) -> dict:
    """{(i, j): value} for entries listed in support order."""
    return {(int(i), int(j)): float(x) for i, j, x in zip(rows, cols, values)}


def adam_step_whole(params, grads, state) -> None:
    """Bias-corrected Adam on whole arrays through one full-size scratch
    array per parameter, in place on params and on state (an
    autodiff.AdamState); the blocked autodiff.adam_step must match it bit
    for bit."""
    state.step += 1
    c1 = 1.0 - ad.ADAM_BETA1**state.step
    c2 = 1.0 - ad.ADAM_BETA2**state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        w = np.empty_like(p.value)
        m *= ad.ADAM_BETA1
        np.multiply(g, 1.0 - ad.ADAM_BETA1, out=w)
        m += w
        v *= ad.ADAM_BETA2
        np.multiply(g, g, out=w)
        w *= 1.0 - ad.ADAM_BETA2
        v += w
        np.divide(v, c2, out=w)
        np.sqrt(w, out=w)
        w += ad.ADAM_EPS
        np.divide(m, w, out=w)
        w *= state.lr / c1
        p.value -= w


@dataclass
class RecordingState(ad.AdamState):
    """An autodiff.AdamState that also keeps a copy of every gradient
    backward hands it, under the parameter's index, so a test can read the
    gradients that training never stores."""

    grads: dict[int, np.ndarray] = field(default_factory=dict)

    def absorb(self, i: int, g: np.ndarray) -> None:
        super().absorb(i, g)
        self.grads[i] = g.copy()


def stale_state(params: Sequence[Tensor]) -> RecordingState:
    """A RecordingState whose scratch already holds one buffer per
    parameter, every entry NaN. From its second step on, training hands
    backward a state whose scratch holds the last step's gradients; a
    gradient summed in a lent buffer that was read before it was written
    would carry the NaN."""
    state = RecordingState.for_params(params, lr=0.0)
    size = max(p.value.size for p in params)
    state.scratch = [np.full(size, np.nan) for _ in params]
    return state


def grads(loss: Tensor, params: Sequence[Tensor], stale: bool = False) -> list[np.ndarray]:
    """The gradient of loss with respect to each of params as
    autodiff.backward hands it to the optimizer, which releases the tape;
    with stale, to a stale_state. params must be exactly the leaves the
    loss reaches, in any order."""
    state = stale_state(params) if stale else RecordingState.for_params(params, lr=0.0)
    ad.backward(loss, state)
    return [state.grads[i] for i in range(len(params))]


def arrays_beside_value(t: Tensor) -> list[np.ndarray]:
    """Every array t holds in an attribute other than its value, such as a
    stored gradient."""
    held = (getattr(t, name, None) for name in type(t).__slots__)
    return [a for a in held if isinstance(a, np.ndarray) and a is not t.value]


@dataclass(frozen=True)
class Held:
    """One array a tape holds: the op of the node that holds it (the
    node's value is named "value"; a leaf's op is "constant"), the closure
    name it is held under, and the array that owns its memory."""

    op: str
    name: str
    array: np.ndarray


def _owner(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def tape_arrays(loss: Tensor, params: Sequence[Tensor]) -> list[Held]:
    """Every array the tape of loss holds beside the values of params: each
    node's stored value and every array its backward rule or its rebuild
    reaches, through its closure's names and the lists, tuples, dicts,
    objects, functions and sparse matrices they hold. A forgotten value is
    not held, and reading the tape rebuilds none. A view counts as the
    array owning its memory, and each owner is listed once: under the node
    whose value it is, or else under the first op and closure name that
    reach it."""
    skip = {id(_owner(p.value)) for p in params}
    seen_nodes: set[int] = set()
    held: list[Held] = []

    def note(op, name, item, visited):
        if id(item) in visited:
            return
        visited.add(id(item))
        if isinstance(item, np.ndarray):
            owner = _owner(item)
            if id(owner) not in skip and owner.dtype != object:
                skip.add(id(owner))
                held.append(Held(op, name, owner))
        elif isinstance(item, Tensor):
            note(op, name, item._value, visited)
        elif sp.issparse(item):
            for part in ("data", "indices", "indptr"):
                note(op, f"{name}.{part}", getattr(item, part), visited)
        elif isinstance(item, (list, tuple)):
            for x in item:
                note(op, name, x, visited)
        elif isinstance(item, dict):
            for x in item.values():
                note(op, name, x, visited)
        elif callable(item) and hasattr(item, "__code__"):
            for var, cell in zip(item.__code__.co_freevars, item.__closure__ or ()):
                try:
                    note(op, var, cell.cell_contents, visited)
                except ValueError:  # a name only another branch assigns
                    pass
        elif hasattr(item, "__dict__"):
            for var, x in vars(item).items():
                note(op, f"{name}.{var}", x, visited)

    nodes, stack = [], [loss]
    while stack:
        t = stack.pop()
        if id(t) not in seen_nodes:
            seen_nodes.add(id(t))
            nodes.append(t)
            stack.extend(t._parents)
    ops = [t._rule.__qualname__.split(".")[0] if t._rule is not None else "constant"
           for t in nodes]
    # Values first, so a value a later closure also reaches counts as its node's.
    for op, t in zip(ops, nodes):
        note(op, "value", t._value, set())
    for op, t in zip(ops, nodes):
        for name, fn in (("rule", t._rule), ("rebuild", t._rebuild)):
            if fn is not None:
                note(op, name, fn, set())
    return held


def forgetting_pair(build: Callable[[], tuple[Tensor, list[Tensor]]], params: Sequence[Tensor],
                    stale: bool = False):
    """Run two tapes that build() records, each (loss, outputs): the first
    forgets every output once the loss is recorded, the second none.
    Returns which outputs the first forgot, then, for each tape, the bytes
    of every parameter's gradient, handed to a stale_state with stale,
    followed by every output's value read after backward, which must have
    rebuilt each forgotten one: after it, a read can rebuild nothing."""
    runs, forgot = [], []
    for forget in (True, False):
        loss, outs = build()
        if forget:
            for t in outs:
                t.forget()
            forgot = [t._value is None for t in outs]
        got = grads(loss, params, stale) + [t.value for t in outs]
        runs.append([a.tobytes() for a in got])
    return forgot, runs[0], runs[1]


def accumulating_backward(loss: Tensor, params: Sequence[Tensor]) -> list[np.ndarray]:
    """autodiff.backward as an accumulating loop: zero a gradient for each
    of params, collect each node's contributions in a pending sum, and add a
    leaf's sum into its gradient. params must hold every leaf the loss
    reaches."""
    sums = {id(p): np.zeros(p.shape) for p in params}
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen or not node._needs:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))

    pending: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
    for node in reversed(topo):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            sums[id(node)] += g
        if node._rule is None:
            continue
        for parent, pg in zip(node._parents, node._rule(g)):
            if pg is None or not parent._needs:
                continue
            acc = pending.get(id(parent))
            if acc is None:
                pending[id(parent)] = pg.copy() if (pg is g or pg.base is not None) else pg
            else:
                acc += pg
    return [sums[id(p)] for p in params]


def backward_pair(loss: Tensor, params: Sequence[Tensor], stale: bool = False):
    """Each parameter's gradient from autodiff.backward, handed to a
    stale_state with stale, then from accumulating_backward on the same
    tape. accumulating_backward runs first: it leaves the tape intact, and
    autodiff.backward releases it."""
    want = accumulating_backward(loss, params)
    return grads(loss, params, stale), want


def finite_difference_check(
    f: Callable[[Sequence[Tensor]], Tensor],
    params: Sequence[Tensor],
    h: float = 1e-5,
) -> float:
    """Max over all coordinates of |numeric - analytic| / max(1, |analytic|).

    f must be deterministic, and params must hold every leaf its loss
    reaches; it is re-evaluated with each coordinate nudged by +/- h
    (central differences).
    """
    analytic = grads(f(params), params)

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


def loss_total(state: ModelState, g: Graph, cfg: ExperimentConfig):
    """Composite objective and its component values for the current state,
    with the detached target distribution recomputed from the current soft
    assignment, as during training."""
    cons = P._build_constants(g, state.x_c)
    encoded = P._encode(state, cons, cfg)
    total, components, _ = P._epoch_losses(state, cons, cfg, encoded)
    return total, components
