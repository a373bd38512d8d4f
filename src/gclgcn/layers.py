"""Forward architectures: autoencoder, graph-convolution stack, centrality-
and distance-biased attention layer, and the contrastive encoder with its
similarity and loss.

All layers share the width ladder in->500->500->2000->bottleneck (truncated
for shallower depth settings) and Leaky ReLU hidden activations; final
reconstruction layers are linear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import Tensor

__all__ = [
    "ladder_dims",
    "glorot",
    "AEParams",
    "GcnParams",
    "GraphormerLayerParams",
    "GraphormerParams",
    "ContrastiveParams",
    "ae_encode",
    "ae_decode",
    "ae_forward",
    "ae_loss",
    "gcn_layer",
    "graphormer_layer",
    "contrastive_encoder",
    "combined_similarity",
    "contrastive_loss",
    "inner_product_decode",
]

# Hidden widths of the full four-layer encoder; shallower depths keep the
# outermost entries so the deepest case is the full stock ladder.
_FULL_HIDDEN = (500, 500, 2000)
_HIDDEN_BY_DEPTH = {1: (), 2: (500,), 3: (500, 2000), 4: _FULL_HIDDEN}


def ladder_dims(in_dim: int, bottleneck: int, depth: int = 4) -> list[int]:
    """Encoder dimension chain [in, hidden..., bottleneck] for a given depth."""
    if depth not in _HIDDEN_BY_DEPTH:
        raise ValueError(f"depth must be one of {sorted(_HIDDEN_BY_DEPTH)}, got {depth}")
    return [in_dim, *_HIDDEN_BY_DEPTH[depth], bottleneck]


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


# ---------------------------------------------------------------------------
# Autoencoder
# ---------------------------------------------------------------------------

@dataclass
class AEParams:
    enc_w: list[Tensor]
    enc_b: list[Tensor]
    dec_w: list[Tensor]
    dec_b: list[Tensor]

    @classmethod
    def init(cls, rng: np.random.Generator, dims: list[int]) -> "AEParams":
        enc_w, enc_b, dec_w, dec_b = [], [], [], []
        for a, b in zip(dims[:-1], dims[1:]):
            enc_w.append(ad.parameter(glorot(rng, a, b)))
            enc_b.append(ad.parameter(np.zeros((1, b))))
        rev = dims[::-1]
        for a, b in zip(rev[:-1], rev[1:]):
            dec_w.append(ad.parameter(glorot(rng, a, b)))
            dec_b.append(ad.parameter(np.zeros((1, b))))
        return cls(enc_w, enc_b, dec_w, dec_b)

    def named(self, prefix: str = "ae") -> list[tuple[str, Tensor]]:
        out = []
        for i, (w, b) in enumerate(zip(self.enc_w, self.enc_b)):
            out += [(f"{prefix}.enc.{i}.w", w), (f"{prefix}.enc.{i}.b", b)]
        for i, (w, b) in enumerate(zip(self.dec_w, self.dec_b)):
            out += [(f"{prefix}.dec.{i}.w", w), (f"{prefix}.dec.{i}.b", b)]
        return out


def ae_encode(params: AEParams, x: Tensor) -> list[Tensor]:
    """Every encoder layer output; the last one is the bottleneck."""
    hs: list[Tensor] = []
    h = x
    for w, b in zip(params.enc_w, params.enc_b):
        h = ad.dense(h, w, b, activate=True)
        hs.append(h)
    return hs


def ae_decode(params: AEParams, h: Tensor) -> Tensor:
    """Reconstruction from the bottleneck; the final decoder layer is linear."""
    out = h
    last = len(params.dec_w) - 1
    for i, (w, b) in enumerate(zip(params.dec_w, params.dec_b)):
        out = ad.dense(out, w, b, activate=i != last)
    return out


def ae_forward(params: AEParams, x: Tensor) -> tuple[list[Tensor], Tensor]:
    """Returns every encoder layer output (last one is the bottleneck) and the
    reconstruction."""
    hs = ae_encode(params, x)
    return hs, ae_decode(params, hs[-1])


def ae_loss(x: Tensor, xhat: Tensor) -> Tensor:
    """Half the mean per-sample squared reconstruction norm."""
    n = x.shape[0]
    diff = ad.add(x, ad.scale(xhat, -1.0))
    return ad.scale(ad.reduce_sum(ad.square(diff)), 0.5 / n)


# ---------------------------------------------------------------------------
# Graph convolution
# ---------------------------------------------------------------------------

@dataclass
class GcnParams:
    enc_w: list[Tensor]
    dec_w: list[Tensor]

    @classmethod
    def init(cls, rng: np.random.Generator, dims: list[int]) -> "GcnParams":
        enc = [ad.parameter(glorot(rng, a, b)) for a, b in zip(dims[:-1], dims[1:])]
        rev = dims[::-1]
        dec = [ad.parameter(glorot(rng, a, b)) for a, b in zip(rev[:-1], rev[1:])]
        return cls(enc, dec)


def gcn_layer(adj: sp.csr_array, z: Tensor, w: Tensor, activate: bool = True) -> Tensor:
    """One propagation step over the normalized self-looped adjacency (CSR)."""
    return ad.propagate(adj, z, w, activate)


# ---------------------------------------------------------------------------
# Centrality- and distance-biased attention
# ---------------------------------------------------------------------------

@dataclass
class GraphormerLayerParams:
    w_key: Tensor
    w_query: Tensor
    w_value: Tensor
    wc_key: Tensor
    wc_query: Tensor
    wc_value: Tensor

    def named(self) -> list[tuple[str, Tensor]]:
        """(role, tensor) pairs, each projection followed by its centrality term."""
        return [
            (f"{kind}_{role}", getattr(self, f"{kind}_{role}"))
            for role in ("key", "query", "value")
            for kind in ("w", "wc")
        ]


@dataclass
class GraphormerParams:
    enc: list[GraphormerLayerParams]
    dec: list[GraphormerLayerParams]
    heads: int

    @classmethod
    def init(
        cls,
        rng: np.random.Generator,
        dims: list[int],
        cent_dim: int,
        heads: int,
        cent_scale: np.ndarray,
    ) -> "GraphormerParams":
        """cent_scale holds the typical magnitude of each centrality column;
        the centrality projections start inversely scaled so unnormalized
        measures (betweenness can reach hundreds) do not blow up the layer
        outputs before training can adapt."""
        inv = (1.0 / np.maximum(np.asarray(cent_scale, dtype=np.float64), 1.0))[:, None]

        def layer(d_in: int, d_out: int) -> GraphormerLayerParams:
            wide = heads * d_out
            return GraphormerLayerParams(
                w_key=ad.parameter(glorot(rng, d_in, wide)),
                w_query=ad.parameter(glorot(rng, d_in, wide)),
                w_value=ad.parameter(glorot(rng, d_in, wide)),
                wc_key=ad.parameter(glorot(rng, cent_dim, wide) * inv),
                wc_query=ad.parameter(glorot(rng, cent_dim, wide) * inv),
                wc_value=ad.parameter(glorot(rng, cent_dim, wide) * inv),
            )

        enc = [layer(a, b) for a, b in zip(dims[:-1], dims[1:])]
        rev = dims[::-1]
        dec = [layer(a, b) for a, b in zip(rev[:-1], rev[1:])]
        return cls(enc, dec, heads)


def graphormer_layer(
    z: Tensor,
    centrality: Tensor,
    adj: sp.csr_array,
    logit_bias: np.ndarray,
    params: GraphormerLayerParams,
    heads: int = 1,
    activate: bool = True,
) -> Tensor:
    """Attention over each node's neighborhood (self included): the entries
    of the self-looped adjacency adj. Centrality terms are added to every
    projection, and logit_bias (the signed spatial bias, aligned with adj's
    entries) is added to the logits. Head outputs are averaged, then passed
    through Leaky ReLU unless this is a final (linear) reconstruction layer."""
    if centrality.shape[0] != z.shape[0]:
        raise ValueError(
            f"graphormer_layer: centrality rows {centrality.shape[0]} != nodes {z.shape[0]}"
        )
    keys = ad.project(z, params.w_key, centrality, params.wc_key)
    queries = ad.project(z, params.w_query, centrality, params.wc_query)
    values = ad.project(z, params.w_value, centrality, params.wc_value)
    d_head = keys.shape[1] // heads

    combined = None
    for h in range(heads):
        if heads == 1:
            kh, qh, vh = keys, queries, values
        else:
            lo, hi = h * d_head, (h + 1) * d_head
            kh, qh, vh = (ad.columns(t, lo, hi) for t in (keys, queries, values))
        head_out = ad.edge_attention(qh, kh, vh, adj, logit_bias, 1.0 / math.sqrt(d_head))
        combined = head_out if combined is None else ad.add(combined, head_out)
    out = combined if heads == 1 else ad.scale(combined, 1.0 / heads)
    return ad.leaky_relu(out) if activate else out


# ---------------------------------------------------------------------------
# Contrastive module
# ---------------------------------------------------------------------------

@dataclass
class ContrastiveParams:
    w0: Tensor  # in x hidden
    w1: Tensor  # hidden x in

    @classmethod
    def init(cls, rng: np.random.Generator, in_dim: int, hidden: int) -> "ContrastiveParams":
        return cls(
            w0=ad.parameter(glorot(rng, in_dim, hidden)),
            w1=ad.parameter(glorot(rng, hidden, in_dim)),
        )

    def named(self, prefix: str = "contrastive") -> list[tuple[str, Tensor]]:
        return [(f"{prefix}.w0", self.w0), (f"{prefix}.w1", self.w1)]


def contrastive_encoder(adj: sp.csr_array, x: Tensor, params: ContrastiveParams) -> Tensor:
    """Two propagation layers over the normalized adjacency: ReLU after the
    first, linear second."""
    c1 = ad.relu(ad.propagate(adj, x, params.w0))
    return ad.propagate(adj, c1, params.w1)


def combined_similarity(c1: Tensor, c2: Tensor, exponent: float = 1.0) -> Tensor:
    """Pairwise cosine similarity times inverse-distance similarity, passed
    through a sign-preserving power. Row norms are floored at 1e-12."""
    sq1 = ad.reduce_sum(ad.square(c1), axis=1)  # (n, 1) row norms squared
    sq2 = ad.transpose(ad.reduce_sum(ad.square(c2), axis=1))  # (1, n)
    norm1 = ad.clamp_min(ad.sqrt(sq1), 1e-12)
    norm2 = ad.clamp_min(ad.sqrt(sq2), 1e-12)

    gram = ad.matmul(c1, ad.transpose(c2))
    cos = ad.hadamard(gram, ad.signed_pow(ad.hadamard(norm1, norm2), -1.0))

    d2 = ad.clamp_min(ad.add(ad.add(sq1, sq2), ad.scale(gram, -2.0)), 0.0)
    euc = ad.signed_pow(ad.add(ad.sqrt(d2), 1.0), -1.0)

    return ad.signed_pow(ad.hadamard(cos, euc), exponent)


def contrastive_loss(s: Tensor, tau: float) -> Tensor:
    """Mean cross-entropy of each similarity row against its diagonal entry,
    computed with a detached log-sum-exp shift for stability."""
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    n = s.shape[0]
    logits = ad.scale(s, 1.0 / tau)
    shift = ad.constant(logits.value.max(axis=1, keepdims=True))
    e = ad.exp(ad.add(logits, ad.scale(shift, -1.0)))
    lse = ad.add(ad.log(ad.reduce_sum(e, axis=1)), shift)
    diag = ad.reduce_sum(ad.hadamard(logits, ad.constant(np.eye(n))))
    return ad.scale(ad.add(ad.reduce_sum(lse), ad.scale(diag, -1.0)), 1.0 / n)


def inner_product_decode(z: Tensor) -> Tensor:
    """Edge-probability matrix sigmoid(Z Z^T)."""
    return ad.sigmoid(ad.matmul(z, ad.transpose(z)))
