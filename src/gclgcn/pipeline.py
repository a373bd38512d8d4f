"""Training orchestration: the layer stacks (the autoencoder, the graph
channels and the contrastive encoder, each a Channel), pretraining phases,
representation injection, the fused bottleneck, the composite objective and
the joint optimization loop over the modules the ablation leaves on.

All randomness flows from named child streams of the experiment seed, so
every phase is bit-reproducible and composes identically whether run
standalone or inside train().
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import AdamState, Tensor, adam_step, backward
from .centrality import composite_centrality, spatial_bias
from .cluster import METRICS, kmeans, metric_row, student_t
from .config import ABLATIONS, ConfigError, ExperimentConfig
from .graph import Graph, adjacency_matrix, normalize_adjacency
from .layers import ae_loss, gcn_layer, glorot, graphormer_layer, ladder_dims

__all__ = [
    "HISTORY_COLUMNS",
    "NumericError",
    "Channel",
    "ModelState",
    "TrainResult",
    "AE_PRETRAIN_EPOCHS",
    "pretrain_ae",
    "pretrain_contrastive",
    "pretrain",
    "uses_contrastive",
    "fuse_final",
    "assign_labels",
    "train",
]

AE_PRETRAIN_EPOCHS = 50

# Fixed child-stream indices of the experiment seed; the graph channels
# draw from 1 (GCN) and 2 (attention), as _GRAPH_CHANNELS records.
_STREAM_AE = 0
_STREAM_CONTRASTIVE_INIT = 3
_STREAM_CONTRASTIVE_MASK = 4
_STREAM_KMEANS = 5


class NumericError(RuntimeError):
    """A loss or gradient went non-finite. state is the model state before
    the update of the epoch that stopped joint training, and None when
    pretraining stopped."""

    def __init__(self, message: str, state: ModelState | None = None):
        super().__init__(message)
        self.state = state


def _stream_seed(seed: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed).spawn(index + 1)[index]


def _stream(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(_stream_seed(seed, index))


def _channels(cfg: ExperimentConfig) -> tuple[str, ...]:
    """The graph channels cfg.ablation leaves on, GCN before attention."""
    return tuple(name for name in _GRAPH_CHANNELS if name != ABLATIONS[cfg.ablation])


def uses_contrastive(cfg: ExperimentConfig) -> bool:
    """Whether cfg.ablation leaves the contrastive features on."""
    return ABLATIONS[cfg.ablation] != "contrastive"


@dataclass
class Channel:
    """A layer stack over a width ladder: the autoencoder, the GCN or the
    attention channel, or the contrastive encoder. Each encoder and decoder
    layer is a {role: parameter} dict, each parameter named (and saved as)
    <prefix>.<enc|dec>.<i>.<role>, and layer(input, params, activate)
    applies one of them."""

    prefix: str
    enc: list[dict[str, Tensor]]
    dec: list[dict[str, Tensor]]
    layer: Callable

    @classmethod
    def build(cls, prefix: str, dims: list[int], make: Callable, layer: Callable) -> "Channel":
        """make(d_in, d_out) gives one layer's {role: array}; it is called
        for every encoder layer along dims, then for every decoder layer
        back along it, which is the order of the random draws."""

        def stack(part, ladder):
            return [
                {role: ad.parameter(arr, name=f"{prefix}.{part}.{i}.{role}")
                 for role, arr in make(a, b).items()}
                for i, (a, b) in enumerate(zip(ladder[:-1], ladder[1:]))
            ]

        return cls(prefix, stack("enc", dims), stack("dec", dims[::-1]), layer)

    def params(self) -> list[Tensor]:
        return [t for layers in (self.enc, self.dec) for params in layers for t in params.values()]

    def encode(self, x: Tensor, hs=(), eps: float = 0.0) -> list[Tensor]:
        """Every encoder layer output; the last one is the bottleneck. With
        hs given (the autoencoder's layer outputs), layer i > 0 reads the
        epsilon-blend hs[i - 1] * eps + z * (1 - eps) of the previous layer's
        output z: a weighted_sum node whose only forward reader is the layer,
        so it is forgotten once the layer has run, and the layer's backward
        rebuilds it."""
        outs: list[Tensor] = []
        z = x
        for i, params in enumerate(self.enc):
            if hs and i > 0:
                blend = ad.weighted_sum([(eps, hs[i - 1]), (1.0 - eps, z)])
                z = self.layer(blend, params, True)
                blend.forget()
            else:
                z = self.layer(z, params, True)
            outs.append(z)
        return outs

    def decode(self, z: Tensor) -> Tensor:
        """The reconstruction from the bottleneck z; the last layer is
        linear. Every decoder layer output before it is forgotten once the
        decoder has run (_forget_inner), in every phase."""
        outs: list[Tensor] = []
        last = len(self.dec) - 1
        for i, params in enumerate(self.dec):
            z = self.layer(z, params, i != last)
            outs.append(z)
        _forget_inner(outs)
        return z


def _autoencoder(dims: list[int], weight: Callable) -> Channel:
    """The autoencoder over the ladder dims: weight(d_in, d_out) gives each
    layer's weight matrix, and every bias starts at zero."""
    return Channel.build(
        "ae", dims, lambda a, b: {"w": weight(a, b), "b": np.zeros((1, b))},
        lambda z, params, activate: ad.dense(z, params["w"], params["b"], activate),
    )


def _gcn_channel(
    g: Graph, cfg: ExperimentConfig, adj: sp.csr_array, dims: list[int], rng: np.random.Generator
) -> Channel:
    """A new GCN channel over the ladder dims, drawn from rng, whose layers
    propagate over the normalized adjacency adj."""
    return Channel.build(
        "gcn", dims, lambda a, b: {"w": glorot(rng, a, b)},
        lambda z, params, activate: gcn_layer(adj, z, params["w"], activate=activate),
    )


def _attention_channel(
    g: Graph, cfg: ExperimentConfig, adj: sp.csr_array, dims: list[int], rng: np.random.Generator
) -> Channel:
    """A new attention channel over the ladder dims, drawn from rng, whose
    layers attend over adj's entries and read g's centrality columns and
    signed spatial bias, as cfg selects them."""
    cent = composite_centrality(g, cfg.centrality)
    logit_bias = (1.0 if cfg.spatial_sign == "+" else -1.0) * spatial_bias(g, cfg.spatial_mode)
    centrality, heads = ad.constant(cent), cfg.heads
    # The centrality projections start divided by the typical magnitude of
    # each centrality column, so unnormalized measures (betweenness can reach
    # hundreds) do not blow up the layer outputs before training can adapt.
    inv = (1.0 / np.maximum(np.sqrt((cent**2).mean(axis=0)), 1.0))[:, None]
    roles = ("key", "query", "value")

    def make(a, b):
        # Each role's weight stacks its rows for z over its rows for the
        # centrality columns; every role's z rows are drawn before any
        # centrality rows.
        z_rows = [glorot(rng, a, heads * b) for _ in roles]
        c_rows = [glorot(rng, cent.shape[1], heads * b) * inv for _ in roles]
        return {f"w_{role}": np.vstack(pair) for role, *pair in zip(roles, z_rows, c_rows)}

    return Channel.build(
        "graphormer", dims, make,
        lambda z, params, activate: graphormer_layer(
            z, centrality, adj, logit_bias, params, heads, activate=activate
        ),
    )


# The graph channels in forward and checkpoint order: each prefix's builder,
# child-stream index and history key of its adjacency-decoder loss.
_GRAPH_CHANNELS = {"gcn": (_gcn_channel, 1, "L_a1"), "graphormer": (_attention_channel, 2, "L_a2")}

# The columns of a history row, in history.csv's order: the epoch, the total
# loss, the components _epoch_losses returns and the four metrics.
HISTORY_COLUMNS = ("epoch", "L", "L_AE", "L_w", *(key for *_, key in _GRAPH_CHANNELS.values()),
                   "L_clu", "L_con", *METRICS)


def _contrastive_channel(
    rng: np.random.Generator, adj: sp.csr_array, f: int, hidden: int
) -> Channel:
    """The contrastive encoder f->hidden, ReLU after each propagation over
    adj, and its linear decoder hidden->f, drawn from rng."""

    def layer(z, params, activate):
        out = ad.propagate(adj, z, params["w"])
        return ad.relu(out) if activate else out

    return Channel.build("contrastive", [f, hidden], lambda a, b: {"w": glorot(rng, a, b)}, layer)


@dataclass
class ModelState:
    """Everything trainable plus the frozen contrastive features."""

    ae: Channel
    channels: list[Channel]  # the enabled graph channels, GCN before attention
    centroids: Tensor
    x_c: np.ndarray

    def params(self) -> list[Tensor]:
        """Every trained tensor, in checkpoint order."""
        return [t for c in (self.ae, *self.channels) for t in c.params()] + [self.centroids]

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        return [(t.name, t.value) for t in self.params()] + [("x_c", self.x_c)]


@dataclass
class TrainResult:
    state: ModelState
    history: list[dict]
    labels: np.ndarray


# ---------------------------------------------------------------------------
# Pretraining
# ---------------------------------------------------------------------------

def _step(opt: AdamState, loss: Tensor) -> str | None:
    """One optimizer step on loss over opt's parameters: backward hands each
    gradient to opt as it finishes it, then, unless a gradient held a
    non-finite entry, adam_step updates the parameters. Returns the name of
    the first parameter, in checkpoint order, whose gradient was not finite,
    in which case no parameter has moved."""
    backward(loss, opt)
    bad = opt.first_nonfinite()
    if bad is not None:
        return bad.name
    adam_step(opt)
    return None


def _pretrain(phase: str, params: list[Tensor], lr: float, epochs: int,
              loss_of: Callable) -> None:
    """Full-batch Adam on params, minimising the loss that loss_of()
    records each epoch. Stops with NumericError, naming phase and the
    epoch, at the first non-finite loss or gradient."""
    opt = AdamState.for_params(params, lr)
    for epoch in range(epochs):
        loss = loss_of()
        if not np.isfinite(loss.value[0, 0]):
            raise NumericError(f"{phase}: non-finite loss at epoch {epoch}")
        bad = _step(opt, loss)
        if bad is not None:
            raise NumericError(f"{phase}: non-finite gradient of {bad} at epoch {epoch}")


def pretrain_ae(g: Graph, cfg: ExperimentConfig) -> Channel:
    """Full-batch Adam on the reconstruction loss for 50 epochs."""
    rng = _stream(cfg.seed, _STREAM_AE)
    ae = _autoencoder(ladder_dims(g.f, cfg.n_z, cfg.layers), lambda a, b: glorot(rng, a, b))
    x = ad.constant(g.features)
    _pretrain(
        "autoencoder pretraining", ae.params(), cfg.lr, AE_PRETRAIN_EPOCHS,
        lambda: ae_loss(x, ae.decode(ae.encode(x)[-1])),
    )
    return ae


def _mask_features(rng: np.random.Generator, x: np.ndarray, p: float) -> np.ndarray:
    """Random feature masking: each entry survives with probability 1 - p."""
    return x * (rng.random(x.shape) >= p)


def pretrain_contrastive(g: Graph, cfg: ExperimentConfig) -> np.ndarray:
    """Train the two-layer contrastive encoder on original-vs-masked views,
    propagating over the normalized adjacency, then return the frozen
    encoder output on the original features."""
    adj = normalize_adjacency(g)
    channel = _contrastive_channel(
        _stream(cfg.seed, _STREAM_CONTRASTIVE_INIT), adj, g.f, cfg.contrastive_hidden
    )
    mask_rng = _stream(cfg.seed, _STREAM_CONTRASTIVE_MASK)
    x = ad.constant(g.features)

    def encoder(v: Tensor) -> Tensor:
        return channel.decode(channel.encode(v)[-1])

    def loss_of():
        view = ad.constant(_mask_features(mask_rng, g.features, cfg.contrastive_p))
        return ad.info_nce(encoder(x), encoder(view), cfg.contrastive_beta_sim,
                           cfg.contrastive_tau)

    _pretrain("contrastive pretraining", channel.params(), cfg.lr, cfg.contrastive_epochs,
              loss_of)
    return encoder(x).value


def pretrain(g: Graph, cfg: ExperimentConfig,
             x_c: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Autoencoder pretraining, then the contrastive features x_c (zeros
    when the ablation removes contrastive learning): every ae.* tensor by
    name in checkpoint order, then x_c. A given x_c stands in for the
    contrastive features, which do not depend on the encoder depth."""
    ae = pretrain_ae(g, cfg)
    if x_c is None:
        if uses_contrastive(cfg):
            x_c = pretrain_contrastive(g, cfg)
        else:
            x_c = np.zeros_like(g.features)
    return {**{t.name: t.value.copy() for t in ae.params()}, "x_c": x_c}


def pretrained_from_named(named: dict[str, np.ndarray], source, g: Graph,
                          cfg: ExperimentConfig) -> dict[str, np.ndarray]:
    """The pretraining entries among named, read from source (named in
    errors), for training cfg on g: the ae.* entries must be the configured
    ladder's autoencoder tensors, by name, in checkpoint order and with their
    shapes, then x_c of the features' shape, and every one of them finite.
    Other entries are ignored, so a trained model's checkpoint serves too."""
    dims = ladder_dims(g.f, cfg.n_z, cfg.layers)
    ae = _autoencoder(dims, lambda a, b: np.empty((a, b)))
    want = [(t.name, t.shape) for t in ae.params()] + [("x_c", g.features.shape)]
    got = [(name, arr.shape) for name, arr in named.items() if name.startswith("ae.")]
    got += [("x_c", named["x_c"].shape)] if "x_c" in named else []
    for i, (found, need) in enumerate(zip_longest(got, want)):
        if found != need:
            raise ConfigError(
                f"{source}: pretraining entry {i} is {found or 'missing'}, but the configured "
                f"ladder {dims} and the graph need {need or 'no entry there'}"
            )
    kept = {name: named[name] for name, _ in want}
    for name, arr in kept.items():
        if not np.isfinite(arr).all():
            raise ConfigError(f"{source}: non-finite value in entry {name!r}")
    return kept


# ---------------------------------------------------------------------------
# Assignment machinery
# ---------------------------------------------------------------------------

def fuse_final(weighted, adj: sp.csr_array) -> Tensor:
    """Propagated combination adj @ sum(weight * z) of the (weight,
    bottleneck) pairs weighted, summed in the order given."""
    return ad.matmul(adj, ad.weighted_sum(weighted))


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
    adj_raw: sp.csr_array  # 0/1 adjacency without self-loops, the decoder losses' target
    target_feat: np.ndarray  # adj @ X, target of the autoencoder and joint reconstructions
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


def _build_constants(g: Graph, cfg: ExperimentConfig, x_c: np.ndarray) -> _Constants:
    adj = normalize_adjacency(g)
    return _Constants(
        x=ad.constant(g.features),
        x_enhanced=ad.constant(g.features + x_c),
        adj=adj,
        adj_raw=adjacency_matrix(g),
        target_feat=adj @ g.features,
        fusion=_fusion_weights(cfg),
    )


def _pretrained_ae(pre: dict[str, np.ndarray], dims: list[int]) -> Channel:
    """Trainable copies of the pretrained autoencoder tensors, by name."""
    ae = _autoencoder(dims, lambda a, b: np.empty((a, b)))
    for t in ae.params():
        t.value[...] = pre[t.name]
    return ae


def _init_state(g: Graph, cfg: ExperimentConfig, pre: dict[str, np.ndarray], cons: _Constants):
    """The model state, with copies of the pretrained arrays and seeded
    centroids, and the _encode outputs of the seeding pass, whose tape
    serves as epoch 0's encoder pass."""
    dims = ladder_dims(g.f, cfg.n_z, cfg.layers)
    state = ModelState(
        ae=_pretrained_ae(pre, dims),
        channels=[
            build(g, cfg, cons.adj, dims, _stream(cfg.seed, stream))
            for build, stream, _ in map(_GRAPH_CHANNELS.get, _channels(cfg))
        ],
        centroids=ad.parameter(np.zeros((cfg.k, cfg.n_z)), name="centroids"),
        x_c=pre["x_c"],
    )
    # The initial partition comes from kmeans on the pretrained bottleneck;
    # the centroid coordinates are that partition's means in the fused space
    # the soft assignment actually measures, otherwise the first assignment
    # is degenerate and self-training cannot recover.
    hs, zs = _encode(state, cons, cfg)
    km = kmeans(hs[-1].value, cfg.k, seed=_stream_seed(cfg.seed, _STREAM_KMEANS))
    fused = _fuse(cons, hs, zs).value
    state.centroids.value[...] = _partition_means(fused, km.labels, cfg.k)
    return state, (hs, zs)


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


def _forget_inner(stack: list[Tensor]) -> None:
    """Forget every layer output of stack but the last, once each has had
    its last forward reader: autodiff.Tensor.forget drops those whose op can
    rebuild them, and backward rebuilds each where it reads it."""
    for t in stack[:-1]:
        t.forget()


def _encode(state: ModelState, cons: _Constants, cfg: ExperimentConfig):
    """Autoencoder encoder layer outputs, and every graph channel's
    bottleneck keyed by its prefix. Encoder layer i > 0 of a channel takes
    the epsilon-blend of autoencoder layer i - 1 and its own previous output,
    so the inner outputs are forgotten once every channel has encoded."""
    hs = state.ae.encode(cons.x)
    outs = {c.prefix: c.encode(cons.x_enhanced, hs, cfg.epsilon) for c in state.channels}
    for stack in (hs, *outs.values()):
        _forget_inner(stack)
    return hs, {prefix: stack[-1] for prefix, stack in outs.items()}


def _decode(state: ModelState, hs: list[Tensor], zs: dict):
    """The decoders on the outputs hs, zs of _encode: the autoencoder's
    reconstruction, and (bottleneck, reconstruction) of every graph channel
    keyed by its prefix."""
    outs = {c.prefix: (zs[c.prefix], c.decode(zs[c.prefix])) for c in state.channels}
    return state.ae.decode(hs[-1]), outs


def _fuse(cons: _Constants, hs: list[Tensor], zs: dict) -> Tensor:
    bottlenecks = {"ae": hs[-1], **zs}
    return fuse_final([(w, bottlenecks[name]) for name, w in cons.fusion.items()], cons.adj)


def _epoch_losses(state: ModelState, cons: _Constants, cfg: ExperimentConfig, encoded):
    """The composite loss, its components and the clustering head, from the
    encoder outputs encoded = _encode(state, cons, cfg). The head holds the
    epoch's assignments: fused-channel q, autoencoder-channel q_prime and
    the detached target p, each row summing to 1."""
    hs, zs = encoded
    xhat_ae, outs = _decode(state, hs, zs)

    head = ad.cluster_kl(_fuse(cons, hs, zs), hs[-1], state.centroids, cfg.t, cfg.alpha, cfg.beta)

    # Joint reconstruction: the mean of the channels' reconstructions. There
    # are at most two, and halving is exact, so it is (z0 + z1) / 2 bit for bit.
    zhats = [zhat for _, zhat in outs.values()]
    share = 1.0 / len(zhats)
    joint = zhats[0] if len(zhats) == 1 else ad.weighted_sum([(share, z) for z in zhats])
    l_w = ad.mse(joint, ad.constant(cons.target_feat))
    l_a = {name: ad.decoder_mse(z, cons.adj_raw) for name, (z, _) in outs.items()}
    l_ae = ad.mse(xhat_ae, ad.constant(cons.target_feat))

    # L_w + 0.1 sum(L_a) + L_AE + head, with 0.1 scaling the summed L_a.
    l_a_sum = ad.weighted_sum([(1.0, l) for l in l_a.values()])
    total = ad.weighted_sum([(1.0, l_w), (0.1, l_a_sum), (1.0, l_ae), (1.0, head)])
    components = {
        "L_AE": float(l_ae.value[0, 0]),
        "L_w": float(l_w.value[0, 0]),
        **{key: float(l_a[name].value[0, 0]) if name in l_a else 0.0
           for name, (*_, key) in _GRAPH_CHANNELS.items()},
        "L_clu": head.kl[0],
        "L_con": head.kl[1],
    }
    return total, components, head


def train(
    g: Graph,
    cfg: ExperimentConfig,
    pretrained: dict[str, np.ndarray] | None = None,
    inspect=None,
) -> TrainResult:
    """Run the full procedure: pretrain unless given the entries pretrain
    returns (whose x_c is zeroed if the ablation removes contrastive
    learning; pretrained_from_named checks entries read from a file), seed
    centroids from the partition of the autoencoder bottleneck, then jointly
    optimize every enabled channel plus the centroids.

    inspect, when given, is called every epoch with (epoch, head), head
    the cluster_kl node whose q, q_prime and p are that epoch's
    assignments, before the update step. Pretraining and joint training raise
    NumericError at the first non-finite loss, and at the first non-finite
    gradient before the Adam step that would apply it; a gradient message
    names the epoch and the parameter (for example graphormer.enc.2.w_key).
    A joint-training stop carries the model state before that epoch's
    update, whose parameters are finite after a gradient stop, as the
    error's state. Each stop message starts with its phase: "autoencoder
    pretraining", "contrastive pretraining" or "training".
    """
    if g.n < cfg.k:
        raise ConfigError(f"k={cfg.k} exceeds node count {g.n}")
    if pretrained is None:
        pretrained = pretrain(g, cfg)
    if not uses_contrastive(cfg):
        pretrained = {**pretrained, "x_c": np.zeros_like(g.features)}
    cons = _build_constants(g, cfg, pretrained["x_c"])
    state, encoded = _init_state(g, cfg, pretrained, cons)
    # The model holds copies of the pretrained arrays; a caller that shares
    # them across runs keeps its own reference.
    del pretrained
    opt = AdamState.for_params(state.params(), cfg.lr)

    history: list[dict] = []
    for epoch in range(cfg.epochs):
        total, components, head = _epoch_losses(state, cons, cfg, encoded)
        if not np.isfinite(total.value[0, 0]):
            raise NumericError(f"training: non-finite loss at epoch {epoch}: {components}", state)
        if inspect is not None:
            inspect(epoch, head)
        row = {"epoch": epoch, "L": float(total.value[0, 0]), **components}
        if g.labels is not None:
            row.update(metric_row(assign_labels(head.q), g.labels))
        else:
            row.update(dict.fromkeys(METRICS, np.nan))
        history.append(row)
        bad = _step(opt, total)
        if bad is not None:
            raise NumericError(f"training: non-finite gradient of {bad} at epoch {epoch}", state)
        # backward freed the tape's inner nodes; drop the loss and the encoder
        # outputs, whose values are the last of it, before the next encoder
        # pass, which feeds the next epoch or, after the last step, the labels.
        del total, head, encoded
        encoded = _encode(state, cons, cfg)

    hs, zs = encoded
    q, _ = student_t(_fuse(cons, hs, zs).value, state.centroids.value, cfg.t)
    return TrainResult(state=state, history=history, labels=assign_labels(q))
