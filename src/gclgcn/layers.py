"""Layer functions: the autoencoder loss, one graph-convolution layer, one
centrality- and distance-biased attention layer, and the contrastive
encoder. The contrastive InfoNCE loss and the adjacency-decoder loss are
whole-graph tape ops, autodiff.info_nce and autodiff.decoder_mse.

The autoencoder, GCN and attention stacks share the width ladder
in->500->500->2000->bottleneck (truncated for shallower depth settings) and
Leaky ReLU hidden activations; final reconstruction layers are linear.
pipeline.Channel walks the ladder and applies these layers; an autoencoder
layer is one autodiff.dense op, a GCN layer one autodiff.propagate op and
an attention layer one autodiff.attention op.
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
    "ContrastiveParams",
    "ae_loss",
    "gcn_layer",
    "graphormer_layer",
    "contrastive_encoder",
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


def ae_loss(x: Tensor, xhat: Tensor) -> Tensor:
    """Half the mean per-sample squared reconstruction norm."""
    n = x.shape[0]
    diff = ad.add(x, ad.scale(xhat, -1.0))
    return ad.scale(ad.reduce_sum(ad.square(diff)), 0.5 / n)


# ---------------------------------------------------------------------------
# Graph convolution
# ---------------------------------------------------------------------------

def gcn_layer(adj: sp.csr_array, z: Tensor, w: Tensor, activate: bool = True) -> Tensor:
    """One propagation step over the normalized self-looped adjacency (CSR)."""
    return ad.propagate(adj, z, w, activate)


# ---------------------------------------------------------------------------
# Centrality- and distance-biased attention
# ---------------------------------------------------------------------------

def graphormer_layer(
    z: Tensor,
    centrality: Tensor,
    adj: sp.csr_array,
    logit_bias: np.ndarray,
    params: dict[str, Tensor],
    heads: int = 1,
    activate: bool = True,
) -> Tensor:
    """Attention over each node's neighborhood (self included): the entries
    of the self-looped adjacency adj. Centrality terms are added to every
    projection, and logit_bias (the signed spatial bias, aligned with adj's
    entries) is added to the logits. params maps each of w_key, w_query and
    w_value and its centrality term wc_key, wc_query, wc_value to a
    parameter. Head outputs are averaged, then passed through Leaky ReLU
    unless this is a final (linear) reconstruction layer. The layer is one
    autodiff.attention node, which picks its association from the widths."""
    if centrality.shape[0] != z.shape[0]:
        raise ValueError(
            f"graphormer_layer: centrality rows {centrality.shape[0]} != nodes {z.shape[0]}"
        )
    roles = ("query", "key", "value")
    return ad.attention(
        z, centrality, [params[f"w_{role}"] for role in roles],
        [params[f"wc_{role}"] for role in roles], adj, logit_bias, heads, activate,
    )


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
