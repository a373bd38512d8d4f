"""Training orchestration: pretraining phases, graph channels with
representation injection, fused soft assignments, the composite objective,
and the joint optimization loop over the modules the ablation leaves on.

All randomness flows from named child streams of the experiment seed, so
every phase is bit-reproducible and composes identically whether run
standalone or inside train().
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable

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
    ae_decode,
    ae_encode,
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
    "Channel",
    "ModelState",
    "Pretrained",
    "AssignmentPair",
    "TrainResult",
    "GraphTerms",
    "AE_PRETRAIN_EPOCHS",
    "pretrain_ae",
    "pretrain_contrastive",
    "pretrain",
    "uses_contrastive",
    "fused_input",
    "fuse_final",
    "soft_assign",
    "target_distribution",
    "kl_div",
    "assign_labels",
    "train",
]

AE_PRETRAIN_EPOCHS = 50

# Fixed child-stream indices of the experiment seed.
_STREAM_AE = 0
_STREAM_GCN = 1
_STREAM_ATT = 2
_STREAM_CONTRASTIVE_INIT = 3
_STREAM_CONTRASTIVE_MASK = 4
_STREAM_KMEANS = 5

# Graph channels in forward and checkpoint order, each with the history key
# of its adjacency-decoder loss.
_CHANNELS = {"gcn": "L_a1", "graphormer": "L_a2"}
# The module each ablation variant removes ("norm" removes none).
_REMOVED = {"-GCN": "gcn", "-Graphormer": "graphormer", "-ContrastiveLearning": "contrastive"}


class NumericError(RuntimeError):
    """A loss or gradient went non-finite."""


def _stream_seed(seed: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed).spawn(index + 1)[index]


def _stream(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(_stream_seed(seed, index))


def _channels(cfg: ExperimentConfig) -> tuple[str, ...]:
    """The graph channels cfg.ablation leaves on, GCN before attention."""
    return tuple(name for name in _CHANNELS if name != _REMOVED.get(cfg.ablation))


def uses_contrastive(cfg: ExperimentConfig) -> bool:
    """Whether cfg.ablation leaves the contrastive features on."""
    return _REMOVED.get(cfg.ablation) != "contrastive"


@dataclass
class Channel:
    """A graph channel: encoder and decoder layer parameters, saved under a
    checkpoint prefix, and the layer function that applies one of them as
    layer(constants, input, layer_params, activate)."""

    prefix: str
    enc: list
    dec: list
    layer: Callable

    @classmethod
    def gcn(cls, params: GcnParams) -> "Channel":
        def layer(cons, z, w, activate):
            return gcn_layer(cons.adj, z, w, activate=activate)

        return cls("gcn", params.enc_w, params.dec_w, layer)

    @classmethod
    def attention(cls, params: GraphormerParams) -> "Channel":
        def layer(cons, z, lp, activate):
            return graphormer_layer(
                z, cons.centrality, cons.adj, cons.logit_bias, lp, params.heads, activate=activate
            )

        return cls("graphormer", params.enc, params.dec, layer)

    def named(self) -> list[tuple[str, Tensor]]:
        out = []
        for part, layers in (("enc", self.enc), ("dec", self.dec)):
            for i, lp in enumerate(layers):
                roles = [("w", lp)] if isinstance(lp, Tensor) else lp.named()
                out += [(f"{self.prefix}.{part}.{i}.{role}", t) for role, t in roles]
        return out


@dataclass
class ModelState:
    """Everything trainable plus the frozen contrastive features."""

    ae: AEParams
    channels: list[Channel]  # the enabled graph channels, GCN before attention
    centroids: Tensor
    x_c: np.ndarray

    def _named(self) -> list[tuple[str, Tensor]]:
        out = self.ae.named()
        for channel in self.channels:
            out += channel.named()
        return out + [("centroids", self.centroids)]

    def trainable(self) -> list[Tensor]:
        return [t for _, t in self._named()]

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        return [(name, t.value) for name, t in self._named()] + [("x_c", self.x_c)]


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
# Graph-derived constants
# ---------------------------------------------------------------------------

class GraphTerms:
    """What training derives from the graph alone: the normalized adjacency,
    and the centrality and spatial bias for each (measures, mode) asked for,
    each computed on first use. Pretraining and every train() call of a run
    or study share one, so each is computed once per graph."""

    def __init__(self, g: Graph):
        self.g = g
        self._cache: dict = {}

    def _get(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def adjacency(self) -> sp.csr_array:
        return self._get("adjacency", lambda: normalize_adjacency(self.g))

    def centrality(self, measures) -> np.ndarray:
        return self._get(
            ("centrality", tuple(measures)), lambda: composite_centrality(self.g, measures)
        )

    def spatial(self, mode: str) -> np.ndarray:
        return self._get(("spatial", mode), lambda: spatial_bias(self.g, mode))


def _graph_terms(g: Graph, terms: GraphTerms | None) -> GraphTerms:
    """terms, checked to be derived from g, or new ones for g."""
    if terms is None:
        return GraphTerms(g)
    if terms.g is not g:
        raise ValueError("graph terms were derived from a different graph")
    return terms


# ---------------------------------------------------------------------------
# Pretraining
# ---------------------------------------------------------------------------

def _nonfinite_gradient(named) -> str | None:
    """The name of the first (name, tensor) pair whose gradient holds a
    non-finite entry, or None. Checked before every Adam step, so the
    parameters are still the finite pre-step values."""
    for name, t in named:
        if not np.isfinite(t.grad).all():
            return name
    return None


def pretrain_ae(g: Graph, cfg: ExperimentConfig) -> AEParams:
    """Full-batch Adam on the reconstruction loss for 50 epochs."""
    dims = ladder_dims(g.f, cfg.n_z, cfg.layers)
    params = AEParams.init(_stream(cfg.seed, _STREAM_AE), dims)
    named = params.named()
    tensors = [t for _, t in named]
    opt = AdamState.for_params(tensors, cfg.lr)
    x = ad.constant(g.features)
    for epoch in range(AE_PRETRAIN_EPOCHS):
        zero_grad(tensors)
        _, xhat = ae_forward(params, x)
        loss = ae_loss(x, xhat)
        if not np.isfinite(loss.value[0, 0]):
            raise NumericError(f"autoencoder pretraining diverged at epoch {epoch}")
        backward(loss)
        bad = _nonfinite_gradient(named)
        if bad is not None:
            raise NumericError(
                f"autoencoder pretraining: non-finite gradient of {bad} at epoch {epoch}"
            )
        adam_step(tensors, [t.grad for t in tensors], opt)
    return params


def _mask_features(rng: np.random.Generator, x: np.ndarray, p: float) -> np.ndarray:
    """Random feature masking: each entry survives with probability 1 - p."""
    return x * (rng.random(x.shape) >= p)


def pretrain_contrastive(g: Graph, cfg: ExperimentConfig, terms: GraphTerms) -> np.ndarray:
    """Train the two-layer contrastive encoder on original-vs-masked views,
    propagating over the normalized adjacency of terms, then return the
    frozen encoder output on the original features."""
    cc = cfg.contrastive
    params = ContrastiveParams.init(
        _stream(cfg.seed, _STREAM_CONTRASTIVE_INIT), g.f, cc.hidden
    )
    mask_rng = _stream(cfg.seed, _STREAM_CONTRASTIVE_MASK)
    named = params.named()
    tensors = [t for _, t in named]
    opt = AdamState.for_params(tensors, cfg.lr)
    adj = terms.adjacency()
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
        bad = _nonfinite_gradient(named)
        if bad is not None:
            raise NumericError(
                f"contrastive pretraining: non-finite gradient of {bad} at epoch {epoch}"
            )
        adam_step(tensors, [t.grad for t in tensors], opt)
    return contrastive_encoder(adj, x, params).value.copy()


def pretrain(
    g: Graph,
    cfg: ExperimentConfig,
    terms: GraphTerms | None = None,
    x_c: np.ndarray | None = None,
) -> Pretrained:
    """Autoencoder pretraining, then the contrastive features over the
    adjacency of terms (zeros when the ablation removes contrastive
    learning). A given x_c stands in for the contrastive features, which do
    not depend on the encoder depth."""
    ae = pretrain_ae(g, cfg)
    if x_c is None:
        if uses_contrastive(cfg):
            x_c = pretrain_contrastive(g, cfg, _graph_terms(g, terms))
        else:
            x_c = np.zeros_like(g.features)
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
    return ad.blend(h_ae, z_prev, eps)


def fuse_final(terms, adj: sp.csr_array) -> Tensor:
    """Propagated combination adj @ sum(weight * z) of the (weight,
    bottleneck) terms, summed in the order given."""
    return ad.spmm(adj, reduce(ad.add, [ad.scale(z, weight) for weight, z in terms]))


def soft_assign(z, centroids, t: float = 1.0) -> Tensor:
    """Row-stochastic Student-t kernel around the centroids."""
    if t <= 0:
        raise ValueError(f"soft_assign: t must be positive, got {t}")
    z_sq = ad.reduce_sum(ad.square(z), axis=1)  # (n, 1)
    c_sq = ad.transpose(ad.reduce_sum(ad.square(centroids), axis=1))  # (1, k)
    cross = ad.scale(ad.matmul(z, ad.transpose(centroids)), -2.0)
    d2 = ad.clamp_min(ad.add(ad.add(z_sq, c_sq), cross), 0.0)
    u = ad.signed_pow(ad.add(ad.scale(d2, 1.0 / t), 1.0), -(t + 1.0) / 2.0)
    return ad.hadamard(u, ad.signed_pow(ad.reduce_sum(u, axis=1), -1.0))


def target_distribution(q: np.ndarray) -> np.ndarray:
    """Sharpened, frequency-normalized transform of Q (gradient-detached)."""
    q = np.asarray(q, dtype=np.float64)
    weight = q**2 / q.sum(axis=0)
    return weight / weight.sum(axis=1, keepdims=True)


def kl_div(num, den) -> Tensor:
    """sum(num * log(num/den)) with entries floored at 1e-12 before the logs."""
    ln = ad.log(ad.clamp_min(num, 1e-12))
    ld = ad.log(ad.clamp_min(den, 1e-12))
    return ad.reduce_sum(ad.hadamard(num, ad.add(ln, ad.scale(ld, -1.0))))


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
    fusion: dict[str, float]  # fusion weight per bottleneck, in summation order


def _fusion_weights(cfg: ExperimentConfig) -> dict[str, float]:
    """Fusion weight of each enabled bottleneck in summation order (GCN,
    autoencoder, attention). With a channel removed, the remaining weights
    are renormalised to sum to 1; otherwise they are used as configured."""
    channels = _channels(cfg)
    weights = {"gcn": cfg.lam, "ae": cfg.theta, "graphormer": cfg.gamma}
    kept = {name: w for name, w in weights.items() if name == "ae" or name in channels}
    if len(kept) == len(weights):
        return kept
    rest = sum(kept.values())
    if rest <= 0:
        raise ConfigError(f"the fusion weights left after the ablation must sum above 0: {kept}")
    return {name: w / rest for name, w in kept.items()}


def _build_constants(
    g: Graph, cfg: ExperimentConfig, x_c: np.ndarray, terms: GraphTerms
) -> _Constants:
    adj = terms.adjacency()
    a = adjacency_matrix(g)
    target_feat = adj @ g.features
    target_w = (a @ g.features) if cfg.raw_ax_target else target_feat
    centrality = None
    logit_bias = None
    if "graphormer" in _channels(cfg):
        sign = 1.0 if cfg.spatial_sign == "+" else -1.0
        centrality = ad.constant(terms.centrality(cfg.centrality))
        logit_bias = sign * terms.spatial(cfg.spatial_mode)
    return _Constants(
        x=ad.constant(g.features),
        x_enhanced=ad.constant(g.features + x_c),
        adj=adj,
        a_binary=ad.constant(a.toarray()),
        target_feat=target_feat,
        target_w=target_w,
        centrality=centrality,
        logit_bias=logit_bias,
        fusion=_fusion_weights(cfg),
    )


def _pretrained_ae(pre: Pretrained, dims: list[int]) -> AEParams:
    """Trainable copies of the pretrained autoencoder weights, whose shapes
    must follow the configured ladder."""
    rev = dims[::-1]
    layers = [*zip(dims[:-1], dims[1:]), *zip(rev[:-1], rev[1:])]
    want = [shape for a, b in layers for shape in ((a, b), (1, b))]
    got = [arr.shape for _, arr in pre.ae_named]
    if got != want:
        raise ConfigError(
            f"pretrained autoencoder does not match the configured ladder {dims}: "
            f"shapes {got}, expected {want}"
        )
    t = [ad.parameter(arr) for _, arr in pre.ae_named]
    depth = 2 * (len(dims) - 1)
    return AEParams(t[0:depth:2], t[1:depth:2], t[depth::2], t[depth + 1::2])


def _init_channel(name: str, cfg: ExperimentConfig, dims: list[int], cons: _Constants) -> Channel:
    if name == "gcn":
        return Channel.gcn(GcnParams.init(_stream(cfg.seed, _STREAM_GCN), dims))
    cent_scale = np.sqrt((cons.centrality.value**2).mean(axis=0))
    return Channel.attention(GraphormerParams.init(
        _stream(cfg.seed, _STREAM_ATT), dims, len(cfg.centrality), cfg.heads,
        cent_scale=cent_scale,
    ))


def _init_state(
    g: Graph, cfg: ExperimentConfig, pre: Pretrained, cons: _Constants
) -> ModelState:
    dims = ladder_dims(g.f, cfg.n_z, cfg.layers)
    state = ModelState(
        ae=_pretrained_ae(pre, dims),
        channels=[_init_channel(name, cfg, dims, cons) for name in _channels(cfg)],
        centroids=ad.parameter(np.zeros((cfg.k, cfg.n_z)), name="centroids"),
        x_c=pre.x_c,
    )
    # The initial partition comes from kmeans on the pretrained bottleneck;
    # the centroid coordinates are that partition's means in the fused space
    # the soft assignment actually measures, otherwise the first assignment
    # is degenerate and self-training cannot recover.
    hs, zs = _encode(state, cons, cfg)
    km = kmeans(hs[-1].value, cfg.k, restarts=20, seed=_stream_seed(cfg.seed, _STREAM_KMEANS))
    fused = _fuse(cons, hs, zs).value
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


def _encode(state: ModelState, cons: _Constants, cfg: ExperimentConfig):
    """Autoencoder encoder layer outputs, and every graph channel's
    bottleneck keyed by its prefix. Encoder layer i > 0 of a channel takes
    the epsilon-blend of autoencoder layer i - 1 and its own previous output."""
    hs = ae_encode(state.ae, cons.x)
    zs = {}
    for channel in state.channels:
        z = cons.x_enhanced
        for i, lp in enumerate(channel.enc):
            z_in = z if i == 0 else fused_input(hs[i - 1], z, cfg.epsilon)
            z = channel.layer(cons, z_in, lp, True)
        zs[channel.prefix] = z
    return hs, zs


def _forward_channels(state: ModelState, cons: _Constants, cfg: ExperimentConfig):
    """The encoders, then the decoders: autoencoder layer outputs and
    reconstruction, plus (bottleneck, reconstruction) of every graph channel
    keyed by its prefix."""
    hs, zs = _encode(state, cons, cfg)
    outs = {}
    for channel in state.channels:
        z = zs[channel.prefix]
        last = len(channel.dec) - 1
        for i, lp in enumerate(channel.dec):
            z = channel.layer(cons, z, lp, i != last)
        outs[channel.prefix] = (zs[channel.prefix], z)
    return hs, ae_decode(state.ae, hs[-1]), outs


def _fuse(cons: _Constants, hs: list[Tensor], zs: dict) -> Tensor:
    bottlenecks = {"ae": hs[-1], **zs}
    return fuse_final([(w, bottlenecks[name]) for name, w in cons.fusion.items()], cons.adj)


def _epoch_losses(
    state: ModelState,
    cons: _Constants,
    cfg: ExperimentConfig,
    p_fixed: np.ndarray | None = None,
):
    hs, xhat_ae, outs = _forward_channels(state, cons, cfg)

    z_fused = _fuse(cons, hs, {name: z for name, (z, _) in outs.items()})
    q = soft_assign(z_fused, state.centroids, cfg.t)
    q_prime = soft_assign(hs[-1], state.centroids, cfg.t)
    p = target_distribution(q.value) if p_fixed is None else p_fixed

    # Joint reconstruction: the mean of the channels' reconstructions.
    zhats = [zhat for _, zhat in outs.values()]
    joint = reduce(ad.add, zhats)
    if len(zhats) > 1:
        joint = ad.scale(joint, 1.0 / len(zhats))
    l_w = ad.mse(joint, ad.constant(cons.target_w))
    l_a = {
        name: ad.mse(inner_product_decode(z), cons.a_binary) for name, (z, _) in outs.items()
    }
    l_ae = ad.mse(xhat_ae, ad.constant(cons.target_feat))
    l_clu = kl_div(ad.constant(p), q)
    l_con = kl_div(q, q_prime)

    total = ad.add(
        ad.add(ad.add(l_w, ad.scale(reduce(ad.add, l_a.values()), 0.1)), l_ae),
        ad.add(ad.scale(l_clu, cfg.alpha), ad.scale(l_con, cfg.beta)),
    )
    components = {
        "L_AE": float(l_ae.value[0, 0]),
        "L_w": float(l_w.value[0, 0]),
        **{key: float(l_a[name].value[0, 0]) if name in l_a else 0.0
           for name, key in _CHANNELS.items()},
        "L_clu": float(l_clu.value[0, 0]),
        "L_con": float(l_con.value[0, 0]),
    }
    return total, components, AssignmentPair(q=q.value, q_prime=q_prime.value, p=p)


def train(
    g: Graph,
    cfg: ExperimentConfig,
    pretrained: Pretrained | None = None,
    abort_path=None,
    inspect=None,
    terms: GraphTerms | None = None,
) -> TrainResult:
    """Run the full procedure: pretrain unless given matching artifacts
    (whose x_c is zeroed if the ablation removes contrastive learning), seed
    centroids from the partition of the autoencoder bottleneck, then jointly
    optimize every enabled channel plus the centroids.

    inspect, when given, is called every epoch with (epoch, AssignmentPair)
    before the update step. Pretraining and joint training raise
    NumericError at the first non-finite loss, and at the first non-finite
    gradient before the Adam step that would apply it; a gradient message
    names the epoch and the parameter (for example graphormer.enc.2.w_key).
    When joint training stops, the model state before that epoch's update,
    whose parameters are finite after a gradient stop, is first written to
    abort_path (when given); a pretraining stop writes nothing. terms, when
    given, supplies the graph-derived constants (see GraphTerms); otherwise
    pretraining and training share new ones.
    """
    if g.n < cfg.k:
        raise ConfigError(f"k={cfg.k} exceeds node count {g.n}")
    terms = _graph_terms(g, terms)
    if pretrained is None:
        pretrained = pretrain(g, cfg, terms)
    elif pretrained.x_c.shape != g.features.shape:
        raise ConfigError(
            f"pretrained x_c has shape {pretrained.x_c.shape}, "
            f"but the graph's features have shape {g.features.shape}"
        )
    if not uses_contrastive(cfg):
        pretrained = replace(pretrained, x_c=np.zeros_like(g.features))
    cons = _build_constants(g, cfg, pretrained.x_c, terms)
    state = _init_state(g, cfg, pretrained, cons)
    named = state._named()
    params = state.trainable()
    opt = AdamState.for_params(params, cfg.lr)

    def abort(error: NumericError):
        """Write the model state, which this epoch has not yet updated, to
        abort_path (when given) and raise error."""
        if abort_path is not None:
            from .checkpoint import save_checkpoint

            save_checkpoint(abort_path, state.named_arrays())
        raise error

    history: list[dict] = []
    for epoch in range(cfg.epochs):
        zero_grad(params)
        total, components, assignments = _epoch_losses(state, cons, cfg)
        if not np.isfinite(total.value[0, 0]):
            abort(NumericError(f"non-finite loss at epoch {epoch}: {components}"))
        if inspect is not None:
            inspect(epoch, assignments)
        row = {"epoch": epoch, "L": float(total.value[0, 0]), **components}
        if g.labels is not None:
            row.update(metric_row(assign_labels(assignments.q), g.labels))
        else:
            row.update({"acc": np.nan, "nmi": np.nan, "ari": np.nan, "f1": np.nan})
        history.append(row)
        backward(total)
        bad = _nonfinite_gradient(named)
        if bad is not None:
            abort(NumericError(f"training: non-finite gradient of {bad} at epoch {epoch}"))
        adam_step(params, [p.grad for p in params], opt)
        # Free this epoch's tape before the next forward pass records another.
        del total, assignments

    hs, zs = _encode(state, cons, cfg)
    q = soft_assign(_fuse(cons, hs, zs), state.centroids, cfg.t)
    return TrainResult(state=state, history=history, labels=assign_labels(q.value))
