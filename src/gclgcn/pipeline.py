"""Training orchestration: the layer stacks (the autoencoder, the graph
channels and the contrastive encoder, each a Channel), pretraining phases,
representation injection, the fused bottleneck, the composite objective and
the joint optimization loop over the modules the ablation leaves on.

All randomness flows from named child streams of the experiment seed, so
every phase is bit-reproducible and composes identically whether run
standalone or inside train().
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import AdamState, Tensor, adam_step, backward
from .centrality import composite_centrality, spatial_bias
from .cluster import kmeans, metric_row, student_t
from .config import ConfigError, ExperimentConfig
from .graph import Graph, adjacency_matrix, normalize_adjacency
from .layers import ae_loss, gcn_layer, glorot, graphormer_layer, ladder_dims

__all__ = [
    "NumericError",
    "Channel",
    "ModelState",
    "Pretrained",
    "AssignmentPair",
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

# Fixed child-stream indices of the experiment seed.
_STREAM_AE = 0
_STREAM_CHANNEL = {"gcn": 1, "graphormer": 2}
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
    """A layer stack over a width ladder: the autoencoder, the GCN or the
    attention channel, or the contrastive encoder. Each encoder and decoder
    layer is a {role: parameter} dict, saved as <prefix>.<enc|dec>.<i>.<role>,
    and layer(input, params, activate) applies one of them; a graph
    channel's layer also takes inject=(eps, h), an injection it blends into
    its input."""

    prefix: str
    enc: list[dict[str, Tensor]]
    dec: list[dict[str, Tensor]]
    layer: Callable

    @classmethod
    def build(cls, prefix: str, dims: list[int], make: Callable, layer: Callable) -> "Channel":
        """make(d_in, d_out) gives one layer's {role: array}; it is called
        for every encoder layer along dims, then for every decoder layer
        back along it, which is the order of the random draws."""

        def stack(ladder):
            return [
                {role: ad.parameter(arr) for role, arr in make(a, b).items()}
                for a, b in zip(ladder[:-1], ladder[1:])
            ]

        return cls(prefix, stack(dims), stack(dims[::-1]), layer)

    def named(self) -> list[tuple[str, Tensor]]:
        return [
            (f"{self.prefix}.{part}.{i}.{role}", t)
            for part, layers in (("enc", self.enc), ("dec", self.dec))
            for i, params in enumerate(layers)
            for role, t in params.items()
        ]

    def encode(self, x: Tensor, inject=(), eps: float = 0.0) -> list[Tensor]:
        """Every encoder layer output; the last one is the bottleneck. With
        inject given, layer i > 0 reads the eps-blend of inject[i - 1] and
        the previous layer's output, which the layer forms itself."""
        outs: list[Tensor] = []
        z = x
        for i, params in enumerate(self.enc):
            if inject and i > 0:
                z = self.layer(z, params, True, inject=(eps, inject[i - 1]))
            else:
                z = self.layer(z, params, True)
            outs.append(z)
        return outs

    def decode(self, z: Tensor) -> Tensor:
        """The reconstruction from the bottleneck z; the last layer is linear."""
        last = len(self.dec) - 1
        for i, params in enumerate(self.dec):
            z = self.layer(z, params, i != last)
        return z


def _autoencoder(dims: list[int], weight: Callable) -> Channel:
    """The autoencoder over the ladder dims: weight(d_in, d_out) gives each
    layer's weight matrix, and every bias starts at zero."""
    return Channel.build(
        "ae", dims, lambda a, b: {"w": weight(a, b), "b": np.zeros((1, b))},
        lambda z, params, activate: ad.dense(z, params["w"], params["b"], activate),
    )


def _graph_channel(
    name: str, rng: np.random.Generator, dims: list[int], heads: int, cons: _Constants
) -> Channel:
    """A new GCN or attention channel over the ladder dims, drawn from rng,
    whose layers read the graph constants cons."""
    if name == "gcn":
        return Channel.build(
            "gcn", dims, lambda a, b: {"w": glorot(rng, a, b)},
            lambda z, params, activate, inject=None: gcn_layer(
                cons.adj, z, params["w"], activate=activate, inject=inject
            ),
        )
    # The centrality projections start divided by the typical magnitude of
    # each centrality column, so unnormalized measures (betweenness can reach
    # hundreds) do not blow up the layer outputs before training can adapt.
    cent = cons.centrality.value
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
        lambda z, params, activate, inject=None: graphormer_layer(
            z, cons.centrality, cons.adj, cons.logit_bias, params, heads, activate=activate,
            inject=inject,
        ),
    )


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

    def _named(self) -> list[tuple[str, Tensor]]:
        stacks = [pair for channel in (self.ae, *self.channels) for pair in channel.named()]
        return stacks + [("centroids", self.centroids)]

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
# Pretraining
# ---------------------------------------------------------------------------

def _step(named, opt: AdamState, loss: Tensor, release: bool) -> str | None:
    """One optimizer step on loss over the (name, tensor) parameters named,
    in checkpoint order: backward hands each gradient to opt as it finishes
    it, then, unless a gradient held a non-finite entry, adam_step updates
    the parameters. Returns the name of the first parameter whose gradient
    was not finite, in which case no parameter has moved."""
    params = [t for _, t in named]
    backward(loss, params, opt, release=release)
    bad = opt.first_nonfinite()
    if bad is not None:
        return named[bad][0]
    adam_step(params, opt)
    return None


def _pretrain(phase: str, named, lr: float, epochs: int, loss_of: Callable) -> None:
    """Full-batch Adam on the (name, tensor) parameters named, minimising
    the loss that loss_of() records each epoch. Stops with NumericError,
    naming phase and the epoch, at the first non-finite loss or gradient.
    Unlike joint training, backward here keeps the tape: releasing it
    raised the page faults more than it lowered the peak (see the loop)."""
    opt = AdamState.for_params([t for _, t in named], lr)
    for epoch in range(epochs):
        # The last tape lives until loss is rebound, and backward keeps it. At
        # n=900, releasing it in backward cut the pretraining peak from 258 to
        # 236 MB but raised minor faults from about 110k to 444k and the time
        # by about 1.5 s; freeing it before loss_of tripled the faults.
        loss = loss_of()
        if not np.isfinite(loss.value[0, 0]):
            raise NumericError(f"{phase}: non-finite loss at epoch {epoch}")
        bad = _step(named, opt, loss, release=False)
        if bad is not None:
            raise NumericError(f"{phase}: non-finite gradient of {bad} at epoch {epoch}")


def pretrain_ae(g: Graph, cfg: ExperimentConfig) -> Channel:
    """Full-batch Adam on the reconstruction loss for 50 epochs."""
    rng = _stream(cfg.seed, _STREAM_AE)
    ae = _autoencoder(ladder_dims(g.f, cfg.n_z, cfg.layers), lambda a, b: glorot(rng, a, b))
    x = ad.constant(g.features)
    _pretrain(
        "autoencoder pretraining", ae.named(), cfg.lr, AE_PRETRAIN_EPOCHS,
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
    cc = cfg.contrastive
    adj = normalize_adjacency(g)
    channel = _contrastive_channel(
        _stream(cfg.seed, _STREAM_CONTRASTIVE_INIT), adj, g.f, cc.hidden
    )
    mask_rng = _stream(cfg.seed, _STREAM_CONTRASTIVE_MASK)
    x = ad.constant(g.features)

    def encoder(v: Tensor) -> Tensor:
        return channel.decode(channel.encode(v)[-1])

    def loss_of():
        view = ad.constant(_mask_features(mask_rng, g.features, cc.p))
        return ad.info_nce(encoder(x), encoder(view), cc.beta_sim, cc.tau)

    _pretrain("contrastive pretraining", channel.named(), cfg.lr, cc.epochs, loss_of)
    return encoder(x).value


def pretrain(g: Graph, cfg: ExperimentConfig, x_c: np.ndarray | None = None) -> Pretrained:
    """Autoencoder pretraining, then the contrastive features (zeros when
    the ablation removes contrastive learning). A given x_c stands in for
    the contrastive features, which do not depend on the encoder depth."""
    ae = pretrain_ae(g, cfg)
    if x_c is None:
        if uses_contrastive(cfg):
            x_c = pretrain_contrastive(g, cfg)
        else:
            x_c = np.zeros_like(g.features)
    return Pretrained(
        ae_named=[(name, t.value.copy()) for name, t in ae.named()], x_c=x_c
    )


def pretrained_from_named(named: dict[str, np.ndarray], source) -> Pretrained:
    """The pretraining artifacts among the entries named, read from source
    (named in errors): every ae.* entry and x_c, all of them finite."""
    ae_named = [(name, arr) for name, arr in named.items() if name.startswith("ae.")]
    if "x_c" not in named or not ae_named:
        raise ConfigError(f"{source}: pretraining checkpoint lacks ae.* entries or x_c")
    for name, arr in [*ae_named, ("x_c", named["x_c"])]:
        if not np.isfinite(arr).all():
            raise ConfigError(f"{source}: non-finite value in entry {name!r}")
    return Pretrained(ae_named=ae_named, x_c=named["x_c"])


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


def _build_constants(g: Graph, cfg: ExperimentConfig, x_c: np.ndarray) -> _Constants:
    adj = normalize_adjacency(g)
    centrality = None
    logit_bias = None
    if "graphormer" in _channels(cfg):
        sign = 1.0 if cfg.spatial_sign == "+" else -1.0
        centrality = ad.constant(composite_centrality(g, cfg.centrality))
        logit_bias = sign * spatial_bias(g, cfg.spatial_mode)
    return _Constants(
        x=ad.constant(g.features),
        x_enhanced=ad.constant(g.features + x_c),
        adj=adj,
        adj_raw=adjacency_matrix(g),
        target_feat=adj @ g.features,
        centrality=centrality,
        logit_bias=logit_bias,
        fusion=_fusion_weights(cfg),
    )


def _pretrained_ae(pre: Pretrained, dims: list[int]) -> Channel:
    """Trainable copies of the pretrained autoencoder weights, whose names
    and shapes must be those of the configured ladder's autoencoder."""
    ae = _autoencoder(dims, lambda a, b: np.zeros((a, b)))
    want = [(name, t.shape) for name, t in ae.named()]
    got = [(name, arr.shape) for name, arr in pre.ae_named]
    if got != want:
        raise ConfigError(
            f"pretrained autoencoder does not match the configured ladder {dims}: "
            f"entries {got}, expected {want}"
        )
    for (_, t), (_, arr) in zip(ae.named(), pre.ae_named):
        t.value[...] = arr
    return ae


def _init_state(g: Graph, cfg: ExperimentConfig, pre: Pretrained, cons: _Constants):
    """The model state, with copies of the pretrained arrays and seeded
    centroids, and the _encode outputs of the seeding pass, whose tape
    serves as epoch 0's encoder pass."""
    dims = ladder_dims(g.f, cfg.n_z, cfg.layers)
    state = ModelState(
        ae=_pretrained_ae(pre, dims),
        channels=[
            _graph_channel(name, _stream(cfg.seed, _STREAM_CHANNEL[name]), dims, cfg.heads, cons)
            for name in _channels(cfg)
        ],
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


def _encode(state: ModelState, cons: _Constants, cfg: ExperimentConfig):
    """Autoencoder encoder layer outputs, and every graph channel's
    bottleneck keyed by its prefix. Encoder layer i > 0 of a channel takes
    the epsilon-blend of autoencoder layer i - 1 and its own previous output."""
    hs = state.ae.encode(cons.x)
    return hs, {c.prefix: c.encode(cons.x_enhanced, hs, cfg.epsilon)[-1] for c in state.channels}


def _decode(state: ModelState, hs: list[Tensor], zs: dict):
    """The decoders on the outputs hs, zs of _encode: the autoencoder's
    reconstruction, and (bottleneck, reconstruction) of every graph channel
    keyed by its prefix."""
    outs = {c.prefix: (zs[c.prefix], c.decode(zs[c.prefix])) for c in state.channels}
    return state.ae.decode(hs[-1]), outs


def _fuse(cons: _Constants, hs: list[Tensor], zs: dict) -> Tensor:
    bottlenecks = {"ae": hs[-1], **zs}
    return fuse_final([(w, bottlenecks[name]) for name, w in cons.fusion.items()], cons.adj)


def _epoch_losses(
    state: ModelState,
    cons: _Constants,
    cfg: ExperimentConfig,
    encoded,
    p_fixed: np.ndarray | None = None,
):
    """The composite loss, its components and the assignments, from the
    encoder outputs encoded = _encode(state, cons, cfg)."""
    hs, zs = encoded
    xhat_ae, outs = _decode(state, hs, zs)

    head = ad.cluster_kl(_fuse(cons, hs, zs), hs[-1], state.centroids, p_fixed,
                         cfg.t, cfg.alpha, cfg.beta)

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
           for name, key in _CHANNELS.items()},
        "L_clu": head.kl[0],
        "L_con": head.kl[1],
    }
    return total, components, AssignmentPair(q=head.q, q_prime=head.q_prime, p=head.p)


def train(
    g: Graph,
    cfg: ExperimentConfig,
    pretrained: Pretrained | None = None,
    abort_path=None,
    inspect=None,
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
    abort_path (when given); a pretraining stop writes nothing. Each stop
    message starts with its phase: "autoencoder pretraining", "contrastive
    pretraining" or "training".
    """
    if g.n < cfg.k:
        raise ConfigError(f"k={cfg.k} exceeds node count {g.n}")
    if pretrained is None:
        pretrained = pretrain(g, cfg)
    elif pretrained.x_c.shape != g.features.shape:
        raise ConfigError(
            f"pretrained x_c has shape {pretrained.x_c.shape}, "
            f"but the graph's features have shape {g.features.shape}"
        )
    if not uses_contrastive(cfg):
        pretrained = replace(pretrained, x_c=np.zeros_like(g.features))
    cons = _build_constants(g, cfg, pretrained.x_c)
    state, encoded = _init_state(g, cfg, pretrained, cons)
    # The model holds copies of the pretrained arrays; a caller that shares
    # them across runs keeps its own reference.
    del pretrained
    named = state._named()
    opt = AdamState.for_params([t for _, t in named], cfg.lr)

    def abort(error: NumericError):
        """Write the model state, which this epoch has not yet updated, to
        abort_path (when given) and raise error."""
        if abort_path is not None:
            from .checkpoint import save_checkpoint

            save_checkpoint(abort_path, state.named_arrays())
        raise error

    history: list[dict] = []
    for epoch in range(cfg.epochs):
        total, components, assignments = _epoch_losses(state, cons, cfg, encoded)
        if not np.isfinite(total.value[0, 0]):
            abort(NumericError(f"training: non-finite loss at epoch {epoch}: {components}"))
        if inspect is not None:
            inspect(epoch, assignments)
        row = {"epoch": epoch, "L": float(total.value[0, 0]), **components}
        if g.labels is not None:
            row.update(metric_row(assign_labels(assignments.q), g.labels))
        else:
            row.update({"acc": np.nan, "nmi": np.nan, "ari": np.nan, "f1": np.nan})
        history.append(row)
        bad = _step(named, opt, total, release=True)
        if bad is not None:
            abort(NumericError(f"training: non-finite gradient of {bad} at epoch {epoch}"))
        # backward freed the tape's inner nodes; drop the loss and the encoder
        # outputs, whose values are the last of it, before the next encoder
        # pass, which feeds the next epoch or, after the last step, the labels.
        del total, assignments, encoded
        encoded = _encode(state, cons, cfg)

    hs, zs = encoded
    q, _ = student_t(_fuse(cons, hs, zs).value, state.centroids.value, cfg.t)
    return TrainResult(state=state, history=history, labels=assign_labels(q))
