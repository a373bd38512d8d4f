"""Layer functions: the autoencoder loss, one graph-convolution layer and
one centrality- and distance-biased attention layer. The contrastive InfoNCE
loss and the adjacency-decoder loss are whole-graph tape ops,
autodiff.info_nce and autodiff.decoder_mse.

The autoencoder, GCN and attention stacks share the width ladder
in->500->500->2000->bottleneck (truncated for shallower depth settings) and
Leaky ReLU hidden activations; final reconstruction layers are linear.
pipeline.Channel walks the ladder and applies these layers; an autoencoder
layer is one autodiff.dense op, a GCN layer one autodiff.propagate op and
an attention layer one autodiff.attention op. The contrastive encoder is a
Channel too, over in->hidden: one autodiff.propagate op per layer, with ReLU
on all but the last.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import Tensor

__all__ = [
    "ladder_dims",
    "glorot",
    "ae_loss",
    "gcn_layer",
    "graphormer_layer",
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
    """Half the mean per-sample squared reconstruction norm: the mean over
    all entries, scaled by half the feature count."""
    return ad.weighted_sum([(0.5 * x.shape[1], ad.mse(xhat, x))])


# ---------------------------------------------------------------------------
# Graph convolution
# ---------------------------------------------------------------------------

def gcn_layer(
    adj: sp.csr_array,
    z: Tensor,
    w: Tensor,
    activate: bool = True,
    inject: tuple[float, Tensor] | None = None,
) -> Tensor:
    """One propagation step over the normalized self-looped adjacency (CSR),
    of z or, with inject = (eps, h), of the epsilon-blend
    h * eps + z * (1 - eps)."""
    return ad.propagate(adj, z, w, activate, inject)


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
    inject: tuple[float, Tensor] | None = None,
) -> Tensor:
    """Attention over each node's neighborhood (self included): the entries
    of the self-looped adjacency adj, over the input z~ = [x centrality],
    x being z or, with inject = (eps, h), the epsilon-blend
    h * eps + z * (1 - eps), so the centrality terms enter every
    projection, and logit_bias (the signed spatial bias, aligned with adj's
    entries) is added to the logits. params holds the layer's three
    parameters, w_key, w_query and w_value, each the weight W~ of its role
    over z~: the rows for x, then the rows for the centrality columns. Head
    outputs are averaged, then passed through Leaky ReLU unless this is a
    final (linear) reconstruction layer. The layer is one autodiff.attention node, which
    picks its association from the widths."""
    return ad.attention(
        z, centrality, [params[f"w_{role}"] for role in ("query", "key", "value")],
        adj, logit_bias, heads, activate, inject,
    )
