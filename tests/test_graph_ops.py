"""The sparse graph operators against the dense n x n oracles, their
gradients by finite differences, and node-permutation equivariance of the
graph channels and the centrality columns."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gclgcn import autodiff as ad
from gclgcn import pipeline as P
from gclgcn.centrality import composite_centrality, spatial_bias
from gclgcn.config import ExperimentConfig
from gclgcn.graph import Graph, normalize_adjacency
from gclgcn.layers import gcn_layer, glorot, graphormer_layer

from oracles import (
    attention_init_reference,
    dense_gcn_layer,
    dense_graphormer_layer,
    dense_logit_bias,
    dense_normalized_adjacency,
    finite_difference_check,
    layer_params,
    masked_attention,
    random_er_graph,
)


def _graphs():
    """Random ER graphs, a graph with isolated nodes, and an edgeless graph."""
    rng = np.random.default_rng(11)
    out = []
    for n, p in ((6, 0.4), (9, 0.25), (12, 0.5), (15, 0.15)):
        out.append(Graph(features=rng.standard_normal((n, 4)), edges=random_er_graph(n, p, rng)))
    out.append(Graph(features=rng.standard_normal((7, 4)), edges=[(0, 1), (1, 2), (4, 5)]))
    out.append(Graph(features=rng.standard_normal((5, 4)), edges=[]))
    return out


GRAPHS = _graphs()


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}e{len(g.edges)}")
@pytest.mark.parametrize("d_out", [2, 7])
def test_gcn_layer_matches_dense_oracle(g, d_out):
    # d_out 2 < d_in 4 runs A(ZW), d_out 7 runs (AZ)W
    rng = np.random.default_rng(d_out)
    w = rng.standard_normal((g.f, d_out))
    out = gcn_layer(normalize_adjacency(g), ad.constant(g.features), ad.constant(w))
    want = dense_gcn_layer(dense_normalized_adjacency(g.n, g.edges), g.features, w)
    assert np.max(np.abs(out.value - want)) <= 1e-10


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}e{len(g.edges)}")
@pytest.mark.parametrize("heads", [1, 2])
def test_graphormer_layer_matches_dense_oracle(g, heads):
    cent = composite_centrality(g)
    scale = np.sqrt((cent**2).mean(axis=0))
    lp = layer_params(attention_init_reference(np.random.default_rng(heads), [g.f, 3], 3, heads,
                                               cent_scale=scale))[0]
    for sign in (1.0, -1.0):
        out = graphormer_layer(
            ad.constant(g.features), ad.constant(cent), normalize_adjacency(g),
            sign * spatial_bias(g), lp, heads,
        )
        want = dense_graphormer_layer(
            g.features, cent, dense_logit_bias(g.features, g.edges, sign), lp, heads,
        )
        assert np.max(np.abs(out.value - want)) <= 1e-10


def test_edge_attention_matches_masked_softmax():
    rng = np.random.default_rng(3)
    g = GRAPHS[2]
    adj = normalize_adjacency(g)
    q, k, v = (rng.standard_normal((g.n, w)) for w in (5, 5, 3))
    bias = 10.0 * rng.standard_normal(adj.nnz)  # large logits exercise the max shift
    dense_bias = np.full((g.n, g.n), -np.inf)
    dense_bias[adj.nonzero()] = bias
    out = ad.edge_attention(q, k, v, adj, bias, 0.7).value
    assert np.max(np.abs(out - masked_attention(q, k, v, dense_bias, 0.7))) <= 1e-10


def test_spmm_gradient_and_value():
    rng = np.random.default_rng(4)
    a = sp.random_array((6, 4), density=0.5, random_state=5, format="csr")
    b = ad.parameter(rng.standard_normal((4, 3)))
    target = ad.constant(rng.standard_normal((6, 3)))
    assert np.allclose(ad.spmm(a, b).value, a.toarray() @ b.value, atol=1e-14)
    assert finite_difference_check(lambda _: ad.mse(ad.spmm(a, b), target), [b]) <= 1e-4


@pytest.mark.parametrize("g", [GRAPHS[0], GRAPHS[4], GRAPHS[5]],
                         ids=lambda g: f"n{g.n}e{len(g.edges)}")
def test_edge_attention_gradients(g):
    rng = np.random.default_rng(g.n)
    adj = normalize_adjacency(g)
    q, k, v = (ad.parameter(rng.standard_normal((g.n, w))) for w in (3, 3, 2))
    bias = rng.standard_normal(adj.nnz)
    target = ad.constant(rng.standard_normal((g.n, 2)))

    def loss(_):
        return ad.mse(ad.edge_attention(q, k, v, adj, bias, 0.6), target)

    assert finite_difference_check(loss, [q, k, v]) <= 1e-4


def test_edge_attention_rejects_bad_pattern():
    x = np.ones((3, 2))
    no_loops = sp.csr_array(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="every pattern row"):
        ad.edge_attention(x, x, x, no_loops, np.zeros(2), 1.0)
    adj = normalize_adjacency(Graph(features=x, edges=[(0, 1)]))
    with pytest.raises(ValueError, match="bias has 3 entries for 5"):
        ad.edge_attention(x, x, x, adj, np.zeros(3), 1.0)


# ---------------------------------------------------------------------------
# Node permutations
# ---------------------------------------------------------------------------

def _fixed_state(f: int, heads: int, cons) -> P.ModelState:
    """A model whose graph channels read the constants cons."""
    rng = np.random.default_rng(17)
    dims = [f, 5, 3]
    return P.ModelState(
        ae=P._autoencoder(dims, lambda a, b: glorot(rng, a, b)),
        channels=[P._graph_channel(name, rng, dims, heads, cons) for name in ("gcn", "graphormer")],
        centroids=ad.parameter(rng.standard_normal((2, 3))),
        x_c=np.zeros((0, 0)),
    )


@st.composite
def permuted_graphs(draw):
    n = draw(st.integers(2, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, k in zip(pairs, keep) if k]
    seed = draw(st.integers(0, 2**16))
    perm = np.array(draw(st.permutations(range(n))))
    return n, edges, seed, perm


@settings(max_examples=30, deadline=None)
@given(case=permuted_graphs(), heads=st.sampled_from([1, 2]))
def test_node_permutation_permutes_channels_and_centrality(case, heads):
    n, edges, seed, perm = case  # perm: old id -> new id
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n, 4))
    x_c = 0.1 * rng.standard_normal((n, 4))
    inverse = np.argsort(perm)
    g = Graph(features=feats, edges=edges)
    pg = Graph(features=feats[inverse], edges=[(int(perm[u]), int(perm[v])) for u, v in edges])

    cent = composite_centrality(g)
    assert np.allclose(composite_centrality(pg)[perm], cent, rtol=1e-12, atol=1e-12)

    cfg = ExperimentConfig(k=2, n_z=3, seed=0)
    cons = P._build_constants(g, cfg, x_c)
    pcons = P._build_constants(pg, cfg, x_c[inverse])
    state, pstate = _fixed_state(4, heads, cons), _fixed_state(4, heads, pcons)
    for (name, t), (pname, pt) in zip(state._named(), pstate._named()):
        assert name == pname
        pt.value[...] = t.value  # one set of parameters on both graphs
    _, _, outs = P._forward_channels(state, cons, cfg)
    _, _, pouts = P._forward_channels(pstate, pcons, cfg)
    # (bottleneck, reconstruction) of every graph channel
    assert list(outs) == list(pouts) == ["gcn", "graphormer"]
    for name in outs:
        for out, pout in zip(outs[name], pouts[name]):
            assert np.allclose(pout.value[perm], out.value, rtol=1e-9, atol=1e-9)
