"""Training orchestration: pretraining phases, channel forwards with
representation injection, fused soft assignments, the composite objective,
the joint optimization loop, and module-ablation variants.

All randomness flows from named child streams of the experiment seed, so
every phase is bit-reproducible and composes identically whether run
standalone or inside train().
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import AdamState, Tensor, adam_step, backward, zero_grad
from .centrality import composite_centrality, spatial_bias
from .cluster import kmeans, metric_row
from .config import ConfigError, ExperimentConfig
from .graph import Graph, adjacency_matrix, normalize_adjacency
from .layers import (
    AEParams,
    ContrastiveParams,
    GcnParams,
    GraphormerParams,
    ae_forward,
    ae_loss,
    combined_similarity,
    contrastive_encoder,
    contrastive_loss,
    gcn_layer,
    graphormer_layer,
    inner_product_decode,
    ladder_dims,
)

__all__ = [
    "NumericError",
    "ModelState",
    "Pretrained",
    "AssignmentPair",
    "TrainResult",
    "AE_PRETRAIN_EPOCHS",
    "ABLATION_VARIANTS",
    "pretrain_ae",
    "pretrain_contrastive",
    "pretrain",
    "fused_input",
    "fuse_final",
    "soft_assign",
    "target_distribution",
    "kl_div",
    "centroid_gradient",
    "assign_labels",
    "loss_total",
    "train",
    "ablate",
]

AE_PRETRAIN_EPOCHS = 50
ABLATION_VARIANTS = ("norm", "-GCN", "-Graphormer", "-ContrastiveLearning")

# Fixed child-stream indices of the experiment seed.
_STREAM_AE = 0
_STREAM_GCN = 1
_STREAM_ATT = 2
_STREAM_CONTRASTIVE_INIT = 3
_STREAM_CONTRASTIVE_MASK = 4
_STREAM_KMEANS = 5


class NumericError(RuntimeError):
    """A loss or parameter went non-finite."""


def _stream(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(index + 1)[index])


def _stream_seed(seed: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed).spawn(index + 1)[index]


@dataclass
class ModelState:
    """Everything trainable plus the frozen contrastive features."""

    ae: AEParams
    gcn: GcnParams | None
    graphormer: GraphormerParams | None
    centroids: Tensor
    x_c: np.ndarray

    def trainable(self) -> list[Tensor]:
        params = [t for _, t in self.ae.named()]
        if self.gcn is not None:
            params += [t for _, t in self.gcn.named()]
        if self.graphormer is not None:
            params += [t for _, t in self.graphormer.named()]
        params.append(self.centroids)
        return params

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        out = [(name, t.value) for name, t in self.ae.named()]
        if self.gcn is not None:
            out += [(name, t.value) for name, t in self.gcn.named()]
        if self.graphormer is not None:
            out += [(name, t.value) for name, t in self.graphormer.named()]
        out.append(("centroids", self.centroids.value))
        out.append(("x_c", self.x_c))
        return out


@dataclass
class Pretrained:
    """Snapshot of the pretraining artifacts, reusable across grid points."""

    ae_named: list[tuple[str, np.ndarray]]
    x_c: np.ndarray

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        return [*self.ae_named, ("x_c", self.x_c)]


@dataclass
class AssignmentPair:
    """Per-epoch distributions: fused-channel Q, autoencoder-channel Q', and
    the detached target P. Every row sums to 1."""

    q: np.ndarray
    q_prime: np.ndarray
    p: np.ndarray


@dataclass
class TrainResult:
    state: ModelState
    history: list[dict]
    labels: np.ndarray


# ---------------------------------------------------------------------------
# Pretraining
# ---------------------------------------------------------------------------

def pretrain_ae(g: Graph, cfg: ExperimentConfig) -> AEParams:
    """Full-batch Adam on the reconstruction loss for 50 epochs."""
    dims = ladder_dims(g.f, cfg.n_z, cfg.layers)
    params = AEParams.init(_stream(cfg.seed, _STREAM_AE), dims)
    tensors = [t for _, t in params.named()]
    opt = AdamState.for_params(tensors, cfg.lr)
    x = ad.constant(g.features)
    for epoch in range(AE_PRETRAIN_EPOCHS):
        zero_grad(tensors)
        _, xhat = ae_forward(params, x)
        loss = ae_loss(x, xhat)
        if not np.isfinite(loss.value[0, 0]):
            raise NumericError(f"autoencoder pretraining diverged at epoch {epoch}")
        backward(loss)
        adam_step(tensors, [t.grad for t in tensors], opt)
    return params


def _mask_features(rng: np.random.Generator, x: np.ndarray, p: float) -> np.ndarray:
    return x * (rng.random(x.shape) >= p)


def pretrain_contrastive(g: Graph, cfg: ExperimentConfig) -> np.ndarray:
    """Train the two-layer contrastive encoder on original-vs-masked views,
    then return the frozen encoder output on the original features."""
    cc = cfg.contrastive
    params = ContrastiveParams.init(
        _stream(cfg.seed, _STREAM_CONTRASTIVE_INIT), g.f, cc.hidden
    )
    mask_rng = _stream(cfg.seed, _STREAM_CONTRASTIVE_MASK)
    tensors = [t for _, t in params.named()]
    opt = AdamState.for_params(tensors, cfg.lr)
    adj = normalize_adjacency(g).matrix
    x = ad.constant(g.features)
    for epoch in range(cc.epochs):
        zero_grad(tensors)
        view = ad.constant(_mask_features(mask_rng, g.features, cc.p))
        c1 = contrastive_encoder(adj, x, params)
        c2 = contrastive_encoder(adj, view, params)
        s = combined_similarity(c1, c2, cc.beta_sim)
        loss = contrastive_loss(s, cc.tau)
        if not np.isfinite(loss.value[0, 0]):
            raise NumericError(f"contrastive pretraining diverged at epoch {epoch}")
        backward(loss)
        adam_step(tensors, [t.grad for t in tensors], opt)
    return contrastive_encoder(adj, x, params).value.copy()


def pretrain(g: Graph, cfg: ExperimentConfig) -> Pretrained:
    ae = pretrain_ae(g, cfg)
    if cfg.ablation == "-ContrastiveLearning":
        x_c = np.zeros_like(g.features)
    else:
        x_c = pretrain_contrastive(g, cfg)
    return Pretrained(
        ae_named=[(name, t.value.copy()) for name, t in ae.named()], x_c=x_c
    )


def pretrained_from_named(named: dict[str, np.ndarray]) -> Pretrained:
    ae_named = [(name, arr) for name, arr in named.items() if name.startswith("ae.")]
    if "x_c" not in named or not ae_named:
        raise ConfigError("pretraining checkpoint lacks ae.* entries or x_c")
    return Pretrained(ae_named=ae_named, x_c=named["x_c"])


# ---------------------------------------------------------------------------
# Assignment machinery
# ---------------------------------------------------------------------------

def fused_input(h_ae: Tensor, z_prev: Tensor, eps: float) -> Tensor:
    """Blend the matching autoencoder layer output into a channel's input."""
    if h_ae.shape != z_prev.shape:
        raise ValueError(
            f"fused_input: shapes differ: {h_ae.shape} vs {z_prev.shape}"
        )
    return ad.add(ad.scale(h_ae, eps), ad.scale(z_prev, 1.0 - eps))


def fuse_final(
    z_gcn: Tensor | None,
    z_ae: Tensor,
    z_t: Tensor | None,
    adj: sp.csr_array,
    lam: float,
    theta: float,
    gamma: float,
) -> Tensor:
    """Propagated convex combination of the three bottlenecks. Channels with
    zero weight may be passed as None."""
    total = None
    for weight, z in ((lam, z_gcn), (theta, z_ae), (gamma, z_t)):
        if z is None:
            if weight != 0.0:
                raise ValueError("fuse_final: missing channel has nonzero weight")
            continue
        term = ad.scale(z, weight)
        total = term if total is None else ad.add(total, term)
    return ad.spmm(adj, total)


def _as_node(x) -> Tensor:
    return x if isinstance(x, Tensor) else ad.constant(x)


def soft_assign(z, centroids, t: float = 1.0) -> Tensor:
    """Row-stochastic Student-t kernel around the centroids."""
    if t <= 0:
        raise ValueError(f"soft_assign: t must be positive, got {t}")
    z, centroids = _as_node(z), _as_node(centroids)
    n, d = z.shape
    k = centroids.shape[0]
    ones_d = ad.constant(np.ones((d, 1)))

    z_sq = ad.matmul(ad.square(z), ones_d)  # (n, 1)
    c_sq = ad.matmul(ad.square(centroids), ones_d)  # (k, 1)
    row = ad.matmul(z_sq, ad.constant(np.ones((1, k))))
    col = ad.matmul(ad.constant(np.ones((n, 1))), ad.transpose(c_sq))
    cross = ad.scale(ad.matmul(z, ad.transpose(centroids)), -2.0)
    d2 = ad.clamp_min(ad.add(ad.add(row, col), cross), 0.0)

    base = ad.add(ad.scale(d2, 1.0 / t), ad.constant(np.ones((n, k))))
    u = ad.exp(ad.scale(ad.log(base), -(t + 1.0) / 2.0))
    row_sums = ad.matmul(u, ad.constant(np.ones((k, k))))
    return ad.hadamard(u, ad.exp(ad.scale(ad.log(row_sums), -1.0)))


def target_distribution(q: np.ndarray) -> np.ndarray:
    """Sharpened, frequency-normalized transform of Q (gradient-detached)."""
    q = np.asarray(q, dtype=np.float64)
    weight = q**2 / q.sum(axis=0)
    return weight / weight.sum(axis=1, keepdims=True)


def kl_div(num, den) -> Tensor:
    """sum(num * log(num/den)) with entries floored at 1e-12 before the logs."""
    num, den = _as_node(num), _as_node(den)
    ln = ad.log(ad.clamp_min(num, 1e-12))
    ld = ad.log(ad.clamp_min(den, 1e-12))
    return ad.reduce_sum(ad.hadamard(num, ad.add(ln, ad.scale(ld, -1.0))))


def centroid_gradient(
    z: np.ndarray, centroids: np.ndarray, p: np.ndarray, q: np.ndarray, t: float = 1.0
) -> np.ndarray:
    """Closed-form gradient of the clustering KL term with respect to each
    centroid; used as an analytic cross-check of the tape."""
    diff = z[:, None, :] - centroids[None, :, :]  # (n, k, d)
    w = 1.0 / (1.0 + (diff**2).sum(axis=2) / t)  # (n, k)
    coef = -(t + 1.0) / t * w * (p - q)
    return np.einsum("nk,nkd->kd", coef, diff)


def assign_labels(q: np.ndarray) -> np.ndarray:
    """Hard labels by row argmax; ties go to the smallest cluster id."""
    return np.asarray(q).argmax(axis=1)


# ---------------------------------------------------------------------------
# Joint training
# ---------------------------------------------------------------------------

@dataclass
class _Constants:
    """Per-run constants shared by every epoch."""

    x: Tensor
    x_enhanced: Tensor  # X + X_c, first-layer input of both graph channels
    adj: sp.csr_array  # normalized adjacency with self-loops
    a_binary: Tensor  # raw 0/1 adjacency, dense: the decoder losses compare against all of it
    target_feat: np.ndarray  # adj @ X, the feature reconstruction target
    target_w: np.ndarray  # target of the joint decoder-consistency term
    centrality: Tensor | None
    logit_bias: np.ndarray | None  # signed spatial bias on adj's entries


def _build_constants(g: Graph, cfg: ExperimentConfig, x_c: np.ndarray) -> _Constants:
    na = normalize_adjacency(g)
    a = adjacency_matrix(g)
    target_feat = na.matrix @ g.features
    target_w = (a @ g.features) if cfg.raw_ax_target else target_feat
    centrality = None
    logit_bias = None
    if cfg.ablation != "-Graphormer":
        cent = composite_centrality(g, cfg.centrality)
        sign = 1.0 if cfg.spatial_sign == "+" else -1.0
        centrality = ad.constant(cent.values)
        logit_bias = sign * spatial_bias(g, cfg.spatial_mode).values
    return _Constants(
        x=ad.constant(g.features),
        x_enhanced=ad.constant(g.features + x_c),
        adj=na.matrix,
        a_binary=ad.constant(a.toarray()),
        target_feat=target_feat,
        target_w=target_w,
        centrality=centrality,
        logit_bias=logit_bias,
    )


def _effective_fusion(cfg: ExperimentConfig) -> tuple[float, float, float]:
    lam, theta, gamma = cfg.lam, cfg.theta, cfg.gamma
    if cfg.ablation == "-GCN":
        rest = theta + gamma
        if rest <= 0:
            raise ConfigError("-GCN ablation needs theta + gamma > 0")
        return 0.0, theta / rest, gamma / rest
    if cfg.ablation == "-Graphormer":
        rest = lam + theta
        if rest <= 0:
            raise ConfigError("-Graphormer ablation needs lambda + theta > 0")
        return lam / rest, theta / rest, 0.0
    return lam, theta, gamma


def _init_state(
    g: Graph, cfg: ExperimentConfig, pre: Pretrained, cons: _Constants
) -> ModelState:
    dims = ladder_dims(g.f, cfg.n_z, cfg.layers)
    ae = AEParams.init(np.random.default_rng(0), dims)
    named = ae.named()
    if len(named) != len(pre.ae_named):
        raise ConfigError(
            "pretrained autoencoder does not match the configured ladder"
        )
    for (_, tensor), (_, value) in zip(named, pre.ae_named):
        if tensor.value.shape != value.shape:
            raise ConfigError(
                "pretrained autoencoder does not match the configured ladder"
            )
        tensor.value[...] = value

    gcn = None
    if cfg.ablation != "-GCN":
        gcn = GcnParams.init(_stream(cfg.seed, _STREAM_GCN), dims)
    graphormer = None
    if cfg.ablation != "-Graphormer":
        cent_scale = np.sqrt((cons.centrality.value**2).mean(axis=0))
        graphormer = GraphormerParams.init(
            _stream(cfg.seed, _STREAM_ATT), dims, len(cfg.centrality), cfg.heads,
            cent_scale=cent_scale,
        )

    # The initial partition comes from kmeans on the pretrained bottleneck;
    # the centroid coordinates are that partition's means in the fused space
    # the soft assignment actually measures, otherwise the first assignment
    # is degenerate and self-training cannot recover.
    hs, _ = ae_forward(ae, ad.constant(g.features))
    km = kmeans(hs[-1].value, cfg.k, restarts=20, seed=_stream_seed(cfg.seed, _STREAM_KMEANS))
    state = ModelState(
        ae=ae, gcn=gcn, graphormer=graphormer,
        centroids=ad.parameter(np.zeros((cfg.k, cfg.n_z)), name="centroids"),
        x_c=pre.x_c,
    )
    hs, _, z_gcn, _, z_t, _ = _forward_channels(state, cons, cfg)
    lam, theta, gamma = _effective_fusion(cfg)
    fused = fuse_final(z_gcn, hs[-1], z_t, cons.adj, lam, theta, gamma).value
    state.centroids.value[...] = _partition_means(fused, km.labels, cfg.k)
    return state


def _partition_means(z: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Per-cluster means; an empty cluster takes the row farthest from the
    occupied means (deterministic, mirrors the kmeans recovery rule)."""
    centroids = np.zeros((k, z.shape[1]))
    occupied = []
    for j in range(k):
        members = labels == j
        if members.any():
            centroids[j] = z[members].mean(axis=0)
            occupied.append(j)
    empty = [j for j in range(k) if j not in occupied]
    if empty:
        d2 = ((z[:, None, :] - centroids[None, occupied, :]) ** 2).sum(axis=2).min(axis=1)
        order = np.argsort(-d2, kind="stable")
        for rank, j in enumerate(empty):
            centroids[j] = z[order[rank]]
    return centroids


def _forward_channels(state: ModelState, cons: _Constants, cfg: ExperimentConfig):
    hs, xhat_ae = ae_forward(state.ae, cons.x)

    z_gcn = zhat_gcn = None
    if state.gcn is not None:
        z = gcn_layer(cons.adj, cons.x_enhanced, state.gcn.enc_w[0])
        for i in range(1, len(state.gcn.enc_w)):
            z = gcn_layer(cons.adj, fused_input(hs[i - 1], z, cfg.epsilon), state.gcn.enc_w[i])
        z_gcn = z
        last = len(state.gcn.dec_w) - 1
        for i, w in enumerate(state.gcn.dec_w):
            z = gcn_layer(cons.adj, z, w, activate=(i != last))
        zhat_gcn = z

    z_t = zhat_t = None
    if state.graphormer is not None:
        gp = state.graphormer
        z = graphormer_layer(
            cons.x_enhanced, cons.centrality, cons.adj, cons.logit_bias, gp.enc[0], gp.heads
        )
        for i in range(1, len(gp.enc)):
            z = graphormer_layer(
                fused_input(hs[i - 1], z, cfg.epsilon),
                cons.centrality,
                cons.adj,
                cons.logit_bias,
                gp.enc[i],
                gp.heads,
            )
        z_t = z
        last = len(gp.dec) - 1
        for i, lp in enumerate(gp.dec):
            z = graphormer_layer(z, cons.centrality, cons.adj, cons.logit_bias, lp, gp.heads,
                                 activate=(i != last))
        zhat_t = z

    return hs, xhat_ae, z_gcn, zhat_gcn, z_t, zhat_t


def _epoch_losses(
    state: ModelState,
    cons: _Constants,
    cfg: ExperimentConfig,
    p_fixed: np.ndarray | None = None,
):
    hs, xhat_ae, z_gcn, zhat_gcn, z_t, zhat_t = _forward_channels(state, cons, cfg)

    lam, theta, gamma = _effective_fusion(cfg)
    z_fused = fuse_final(z_gcn, hs[-1], z_t, cons.adj, lam, theta, gamma)
    q = soft_assign(z_fused, state.centroids, cfg.t)
    q_prime = soft_assign(hs[-1], state.centroids, cfg.t)
    p = target_distribution(q.value) if p_fixed is None else p_fixed

    zero = ad.constant(0.0)
    if zhat_gcn is not None and zhat_t is not None:
        joint = ad.scale(ad.add(zhat_gcn, zhat_t), 0.5)
    else:
        joint = zhat_gcn if zhat_gcn is not None else zhat_t
    l_w = ad.mse(joint, ad.constant(cons.target_w))
    l_a1 = ad.mse(inner_product_decode(z_gcn), cons.a_binary) if z_gcn is not None else zero
    l_a2 = ad.mse(inner_product_decode(z_t), cons.a_binary) if z_t is not None else zero
    l_ae = ad.mse(xhat_ae, ad.constant(cons.target_feat))
    l_clu = kl_div(ad.constant(p), q)
    l_con = kl_div(q, q_prime)

    total = ad.add(
        ad.add(ad.add(l_w, ad.scale(ad.add(l_a1, l_a2), 0.1)), l_ae),
        ad.add(ad.scale(l_clu, cfg.alpha), ad.scale(l_con, cfg.beta)),
    )
    components = {
        "L_AE": float(l_ae.value[0, 0]),
        "L_w": float(l_w.value[0, 0]),
        "L_a1": float(l_a1.value[0, 0]),
        "L_a2": float(l_a2.value[0, 0]),
        "L_clu": float(l_clu.value[0, 0]),
        "L_con": float(l_con.value[0, 0]),
    }
    return total, components, AssignmentPair(q=q.value, q_prime=q_prime.value, p=p)


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
    cons = _build_constants(g, cfg, state.x_c)
    total, components, _ = _epoch_losses(state, cons, cfg, p_fixed=p_fixed)
    return total, components


def train(
    g: Graph,
    cfg: ExperimentConfig,
    pretrained: Pretrained | None = None,
    abort_path=None,
    inspect=None,
) -> TrainResult:
    """Run the full procedure: pretrain, seed centroids from the partition of
    the autoencoder bottleneck, then jointly optimize every channel plus the
    centroids.

    inspect, when given, is called every epoch with (epoch, AssignmentPair)
    before the update step. On a non-finite loss the last finite-state
    checkpoint is written to abort_path (when given) and NumericError is
    raised.
    """
    if g.n < cfg.k:
        raise ConfigError(f"k={cfg.k} exceeds node count {g.n}")
    if pretrained is None:
        pretrained = pretrain(g, cfg)
    cons = _build_constants(g, cfg, pretrained.x_c)
    state = _init_state(g, cfg, pretrained, cons)
    params = state.trainable()
    opt = AdamState.for_params(params, cfg.lr)

    history: list[dict] = []
    for epoch in range(cfg.epochs):
        zero_grad(params)
        total, components, assignments = _epoch_losses(state, cons, cfg)
        if not np.isfinite(total.value[0, 0]):
            if abort_path is not None:
                from .checkpoint import save_checkpoint

                save_checkpoint(abort_path, state.named_arrays())
            raise NumericError(
                f"non-finite loss at epoch {epoch}: {components}"
            )
        if inspect is not None:
            inspect(epoch, assignments)
        row = {"epoch": epoch, "L": float(total.value[0, 0]), **components}
        if g.labels is not None:
            row.update(metric_row(assign_labels(assignments.q), g.labels))
        else:
            row.update({"acc": np.nan, "nmi": np.nan, "ari": np.nan, "f1": np.nan})
        history.append(row)
        backward(total)
        adam_step(params, [p.grad for p in params], opt)

    _, _, assignments = _epoch_losses(state, cons, cfg)
    return TrainResult(state=state, history=history, labels=assign_labels(assignments.q))


def ablate(g: Graph, cfg: ExperimentConfig, variant: str) -> dict[str, float]:
    """Train one ablation variant and report its four metrics."""
    if variant not in ABLATION_VARIANTS:
        raise ConfigError(
            f"unknown ablation variant {variant!r}; expected one of {ABLATION_VARIANTS}"
        )
    if g.labels is None:
        raise ConfigError("ablation study needs ground-truth labels")
    result = train(g, replace(cfg, ablation=variant))
    return metric_row(result.labels, g.labels)
