"""The sparse graph operators against the dense n x n oracles, their
gradients by finite differences, and node-permutation equivariance of the
graph channels and the centrality columns."""

import functools
import tracemalloc

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

import oracles
from oracles import (
    attention_init_reference,
    backward_pair,
    composed_attention,
    dense_gcn_layer,
    dense_graphormer_layer,
    dense_logit_bias,
    dense_normalized_adjacency,
    edge_attention,
    finite_difference_check,
    layer_params,
    masked_attention,
    random_er_graph,
    stacked_attention,
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
    named = attention_init_reference(np.random.default_rng(heads), [g.f, 3], 3, heads,
                                     cent_scale=scale)
    lp = layer_params(stacked_attention(named))[0]
    for sign in (1.0, -1.0):
        out = graphormer_layer(
            ad.constant(g.features), ad.constant(cent), normalize_adjacency(g),
            sign * spatial_bias(g), lp, heads,
        )
        want = dense_graphormer_layer(
            g.features, cent, dense_logit_bias(g.features, g.edges, sign),
            layer_params(named)[0], heads,
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
    out = edge_attention(q, k, v, adj, bias, 0.7).value
    assert np.max(np.abs(out - masked_attention(q, k, v, dense_bias, 0.7))) <= 1e-10


def test_sparse_matmul_gradient_and_value():
    rng = np.random.default_rng(4)
    a = sp.random_array((6, 4), density=0.5, random_state=5, format="csr")
    b = ad.parameter(rng.standard_normal((4, 3)))
    target = ad.constant(rng.standard_normal((6, 3)))
    assert np.allclose(ad.matmul(a, b).value, a.toarray() @ b.value, atol=1e-14)
    assert finite_difference_check(lambda _: ad.mse(ad.matmul(a, b), target), [b]) <= 1e-4
    # the sparse operand is not a parent: b is the node's only one
    assert ad.matmul(a, b)._parents == (b,)
    with pytest.raises(ValueError, match=r"^matmul: inner dims differ"):
        ad.matmul(a, ad.constant(np.zeros((3, 3))))


@pytest.mark.parametrize("g", [GRAPHS[0], GRAPHS[4], GRAPHS[5]],
                         ids=lambda g: f"n{g.n}e{len(g.edges)}")
def test_edge_attention_gradients(g):
    rng = np.random.default_rng(g.n)
    adj = normalize_adjacency(g)
    q, k, v = (ad.parameter(rng.standard_normal((g.n, w))) for w in (3, 3, 2))
    bias = rng.standard_normal(adj.nnz)
    target = ad.constant(rng.standard_normal((g.n, 2)))

    def loss(_):
        return ad.mse(edge_attention(q, k, v, adj, bias, 0.6), target)

    assert finite_difference_check(loss, [q, k, v]) <= 1e-4


def test_edge_attention_rejects_bad_pattern():
    x, c, w = np.ones((3, 2)), np.ones((3, 1)), [np.ones((3, 4))] * 3
    no_loops = sp.csr_array(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="attention: every pattern row"):
        ad.attention(x, c, w, no_loops, np.zeros(2))
    adj = normalize_adjacency(Graph(features=x, edges=[(0, 1)]))
    with pytest.raises(ValueError, match="attention: bias has 3 entries for 5"):
        ad.attention(x, c, w, adj, np.zeros(3))


# ---------------------------------------------------------------------------
# The fused attention op
# ---------------------------------------------------------------------------

ROLES = ("query", "key", "value")
# Graphs with 4 feature columns and 3 centrality columns, so d + m = 7: a
# head of 3 or 7 columns scores through q and k (7 is the rule's boundary),
# one of 8 or 12 through W_q W_k^T.
WIDE, NARROW = (3, 7), (8, 12)
ATTENTION_GRAPHS = [GRAPHS[0], GRAPHS[2], GRAPHS[4]]


def _attention_operands(g, d_head, heads, seed=0):
    """z (g's features as a parameter), the centrality columns and the
    attention channel's initial weights W~ (query, key, value) for one
    layer of heads * d_head columns, each role's centrality rows divided by
    the centrality column magnitudes as pipeline._attention_channel draws
    them."""
    cent = composite_centrality(g)
    named = attention_init_reference(np.random.default_rng(seed), [g.f, d_head], cent.shape[1],
                                     heads, cent_scale=np.sqrt((cent**2).mean(axis=0)))
    lp = layer_params(stacked_attention(named))[0]
    return ad.parameter(g.features), ad.constant(cent), [lp[f"w_{r}"] for r in ROLES]


def _split(w, d):
    """Each W~ of w as two new parameters, its rows W~[:d] for z and W~[d:]
    for the centrality columns: the split weights composed_attention reads."""
    return [ad.parameter(t.value[:d]) for t in w], [ad.parameter(t.value[d:]) for t in w]


def _relative(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


@pytest.mark.parametrize("g", ATTENTION_GRAPHS, ids=lambda g: f"n{g.n}e{len(g.edges)}")
@pytest.mark.parametrize("d_head", WIDE + NARROW)
@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("activate", [False, True])
def test_attention_matches_chain_and_dense_oracle(g, d_head, heads, activate):
    """Values and all four gradients against the composed chain over W~'s
    row blocks, each dW~ against vstack(dW, dWc); values against the dense
    oracle. The wide form repeats the chain's numpy calls, so its values
    match bit for bit."""
    z, c, w = _attention_operands(g, d_head, heads)
    wz, wc = _split(w, g.f)
    adj, bias = normalize_adjacency(g), spatial_bias(g)
    out = ad.attention(z, c, w, adj, bias, heads, activate)
    chain = composed_attention(z, c, wz, wc, adj, bias, heads, activate)
    if d_head in WIDE:
        assert out.value.tobytes() == chain.value.tobytes()
    assert _relative(out.value, chain.value) <= 1e-12
    lp = dict(zip([f"{kind}_{r}" for kind in ("w", "wc") for r in ROLES], [*wz, *wc]))
    dense = dense_graphormer_layer(g.features, c.value, dense_logit_bias(g.features, g.edges),
                                   lp, heads, activate)
    assert np.max(np.abs(out.value - dense)) <= 1e-10
    weights = np.random.default_rng(d_head).standard_normal(out.shape)
    got = oracles.grads(oracles.reduce_sum(oracles.hadamard(out, ad.constant(weights))),
                        [z, *w])
    gz, *gw = oracles.grads(oracles.reduce_sum(oracles.hadamard(chain, ad.constant(weights))),
                            [z, *wz, *wc])
    want = [gz, *(np.vstack([a, b]) for a, b in zip(gw[:3], gw[3:]))]
    for got_grad, want_grad in zip(got, want):
        assert _relative(got_grad, want_grad) <= 1e-12


@pytest.mark.parametrize("activate", [False, True])
def test_attention_rule_boundary(activate):
    """At d + m == d_head the op takes the wide form (the chain's values bit
    for bit); one column more and it scores through W_q W_k^T, keeping no
    n x d_head array but its output, activated or not."""
    g = GRAPHS[2]
    adj, bias = normalize_adjacency(g), spatial_bias(g)
    kept = {}
    for d_head in (7, 8):
        z, c, w = _attention_operands(g, d_head, 1)
        out = ad.attention(z, c, w, adj, bias, activate=activate)
        chain = composed_attention(z, c, *_split(w, g.f), adj, bias, activate=activate)
        kept[d_head] = (out.value.tobytes() == chain.value.tobytes(),
                        (g.n, d_head) in _kept_shapes(out))
        assert _relative(out.value, chain.value) <= 1e-12
        if d_head == 7:
            # One head's columns span each projection, so its q, k and v are
            # views of the projections, not copies.
            qkv = [a for a in _kept_arrays(out) if a.shape == (g.n, d_head)]
            assert len(qkv) == 3
            assert all(a.base is not None and np.shares_memory(a, a.base) for a in qkv)
    assert kept == {7: (True, True), 8: (False, False)}


def _kept_shapes(node) -> set:
    """Shapes of the arrays the closure of a node's backward rule holds,
    through lists and tuples, besides the node's own output."""
    return {a.shape for a in _kept_arrays(node)}


def _kept_arrays(node) -> list:
    """The arrays the closure of a node's backward rule holds, through lists
    and tuples, besides the node's own output."""
    arrays, stack = [], []
    for cell in node._rule.__closure__ or ():
        try:
            stack.append(cell.cell_contents)
        except ValueError:  # a name only the other form assigns
            pass
    while stack:
        item = stack.pop()
        if item is node.value:
            continue
        if isinstance(item, np.ndarray):
            arrays.append(item)
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
    return arrays


@pytest.mark.parametrize("d_head", [3, 8])
@pytest.mark.parametrize("heads", [1, 2])
def test_attention_finite_differences(d_head, heads):
    g = GRAPHS[0]
    z, c, w = _attention_operands(g, d_head, heads, seed=heads)
    adj = normalize_adjacency(g)
    bias = np.random.default_rng(1).standard_normal(adj.nnz)
    weights = np.random.default_rng(2).standard_normal((g.n, d_head))

    def loss(_):
        out = ad.attention(z, c, w, adj, bias, heads, activate=True)
        return oracles.reduce_sum(oracles.hadamard(out, ad.constant(weights)))

    assert finite_difference_check(loss, [z, *w]) <= 1e-6


@pytest.mark.parametrize("d_head", [3, 8])
def test_attention_two_backward_calls_hand_over_the_same_gradients(d_head):
    """Each call on its own tape, recorded from the same inputs."""
    g = GRAPHS[2]
    z, c, w = _attention_operands(g, d_head, 2)
    params = [z, *w]
    adj, bias = normalize_adjacency(g), spatial_bias(g)

    def loss():
        return oracles.reduce_sum(ad.attention(z, c, w, adj, bias, 2, activate=True))

    once = oracles.grads(loss(), params)
    for again, first in zip(oracles.grads(loss(), params), once):
        assert again.tobytes() == first.tobytes()


@pytest.mark.parametrize("d_head", WIDE + NARROW)
@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("activate", [False, True])
@pytest.mark.parametrize("shared", [False, True], ids=["own-weights", "query-is-key"])
@pytest.mark.parametrize("stale", [False, True], ids=["fresh-scratch", "stale-scratch"])
def test_attention_backward_matches_accumulating_backward(d_head, heads, activate, shared,
                                                          stale):
    """Gradients equal to those of the accumulating loop in tests/oracles.py
    (array_equal: that loop stored +0.0 where it added -0.0 into a zeroed
    buffer), also when the query and key weights are one tensor."""
    g = GRAPHS[2]
    z, c, w = _attention_operands(g, d_head, heads)
    if shared:
        w[1] = w[0]
    params = list({id(t): t for t in (z, *w)}.values())
    adj, bias = normalize_adjacency(g), spatial_bias(g)
    out = ad.attention(z, c, w, adj, bias, heads, activate)
    weights = np.random.default_rng(d_head).standard_normal(out.shape)
    loss = oracles.reduce_sum(oracles.hadamard(out, ad.constant(weights)))
    got, want = backward_pair(loss, params, stale)
    for grad, oracle in zip(got, want):
        assert np.array_equal(grad, oracle)


@pytest.mark.parametrize("d_head", [7, 8], ids=["wide", "narrow"])
@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("activate", [False, True], ids=["linear", "leaky"])
@pytest.mark.parametrize("blend", [False, True], ids=["z", "blend"])
@pytest.mark.parametrize("stale", [False, True], ids=["fresh-scratch", "stale-scratch"])
def test_forgotten_attention_output_keeps_its_bytes(d_head, heads, activate, blend, stale):
    """A layer widening from 4 to d_head columns forgets its output; backward
    rebuilds it where the narrowing dense layer after it, or its own leaky
    sign, reads it, in either form (the wide one at d + m = 7 = d_head), so
    the value and every gradient are the bytes of the tape that kept it. Its
    input is z, or the epsilon-blend of h into z, a weighted_sum node that
    is forgotten too and rebuilt where the layer's backward reads it."""
    g = GRAPHS[2]
    z, c, w = _attention_operands(g, d_head, heads)
    rng = np.random.default_rng(d_head + heads)
    h = ad.parameter(rng.standard_normal(z.shape))
    w2, b2 = ad.parameter(rng.standard_normal((d_head, 2))), ad.parameter(np.zeros((1, 2)))
    adj, bias = normalize_adjacency(g), spatial_bias(g)
    weights = rng.standard_normal((g.n, 2))

    def build():
        outs = [ad.weighted_sum([(0.4, h), (0.6, z)])] if blend else []
        outs.append(ad.attention(outs[0] if blend else z, c, w, adj, bias, heads, activate))
        return oracles.reduce_sum(oracles.hadamard(ad.dense(outs[-1], w2, b2), weights)), outs

    params = [z, h, *w, w2, b2] if blend else [z, *w, w2, b2]  # h feeds only the blend
    forgot, forgotten, kept = oracles.forgetting_pair(build, params, stale)
    assert forgot == [True] * blend + [True]
    assert forgotten == kept


@pytest.mark.parametrize("d_head", WIDE + NARROW)
@pytest.mark.parametrize("heads", [1, 2])
def test_attention_hands_each_weight_gradient_over_as_it_is_finished(d_head, heads):
    """In backward, each role's weight gradient goes to the optimizer state
    once its last head is written, so with one head a single scratch buffer
    serves all three roles, and with two the three are lent at once. The
    gradients are the bytes the rule of a second tape, recorded from the
    same inputs, returns when no backward runs, where it hands nothing
    over."""
    g = GRAPHS[2]
    z, c, w = _attention_operands(g, d_head, heads)
    params = [z, *w]
    adj, bias = normalize_adjacency(g), spatial_bias(g)

    def record():
        return ad.attention(z, c, w, adj, bias, heads, activate=True)

    out = record()
    weights = np.random.default_rng(d_head).standard_normal(out.shape)
    loss = oracles.reduce_sum(oracles.hadamard(out, ad.constant(weights)))
    state = oracles.RecordingState.for_params(params, lr=0.0)
    ad.backward(loss, state)
    assert len(state.scratch) == (1 if heads == 1 else 3)
    again = record()  # the rule reads its node's output through a weak reference
    returned = again._rule(weights)
    assert [state.grads[i].tobytes() for i in range(4)] == [r.tobytes() for r in returned]


@pytest.mark.parametrize("d_head", [3, 8], ids=["wide", "narrow"])
@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("activate", [False, True])
@pytest.mark.parametrize("shared", [False, True], ids=["h-leaf", "h-shared"])
def test_injected_attention_forgotten_blends_keep_their_bytes(d_head, heads, activate, shared):
    """attention reading the epsilon-blend, a weighted_sum node forgotten
    once attention has read it: its value and every gradient (h, z and each
    weight) are the bytes of the tape that keeps the blend. h-leaf: one
    layer reads the blend of a parameter h. h-shared: two channels of three
    layers each read the blends of two stacked dense outputs, as the
    attention channel reads the autoencoder's, so each dense output has
    three consumers whose contributions are summed in the order the sweep
    reaches them."""
    g = GRAPHS[2]
    adj, bias = normalize_adjacency(g), spatial_bias(g)
    c = ad.constant(composite_centrality(g))
    m = c.shape[1]
    rng = np.random.default_rng(d_head + heads)
    # Each blended layer from 4 columns to a head of 8 is narrow (4 + 3
    # centrality columns < 8), one to a head of 3 or to 4 columns wide.
    ladder = [g.f, d_head, g.f, d_head] if shared else [g.f, g.f, d_head]
    ws = [[[ad.parameter(rng.standard_normal((a + m, heads * b)) / 4) for _ in range(3)]
           for a, b in zip(ladder[:-1], ladder[1:])] for _ in range(1 + shared)]
    channels = [[functools.partial(ad.attention, c=c, w=w, pattern=adj, bias=bias,
                                   heads=heads, activate=activate) for w in chain]
                for chain in ws]
    x = ad.parameter(g.features)
    weights = [t for chain in ws for w in chain for t in w]
    if shared:
        ae = [ad.parameter(rng.standard_normal(s)) for s in ((g.f, d_head), (1, d_head),
                                                              (d_head, g.f), (1, g.f))]
        params = [x, *ae, *weights]

        def hs_of():
            h1 = ad.dense(x, *ae[:2], activate=True)
            return [h1, ad.dense(h1, *ae[2:], activate=True)]
    else:
        h = ad.parameter(rng.standard_normal((g.n, g.f)))
        params = [x, h, *weights]
        hs_of = functools.partial(list, [h])
    forgotten, kept = (oracles.injection_bytes(channels, hs_of, x, 0.3, params, f)
                       for f in (True, False))
    assert forgotten == kept


def test_attention_errors_name_the_op():
    x, c = np.ones((3, 2)), np.ones((3, 1))
    w = [np.ones((3, 4))] * 3
    adj = sp.csr_array(sp.eye(3))
    for match, args, kwargs in (
        ("pattern is", (x, c, w, sp.csr_array(sp.eye(4)), np.zeros(4)), {}),
        ("pattern must be a scipy sparse", (x, c, w, np.eye(3), np.zeros(3)), {}),
        ("c has 2 rows", (x, c[:2], w, adj, np.zeros(3)), {}),
        ("c must be constant", (x, ad.parameter(c), w, adj, np.zeros(3)), {}),
        (r"weights must be \(3, 4\), one row per column of z and c",
         (x, c, [np.ones((2, 4))] * 3, adj, np.zeros(3)), {}),
        ("weights must be", (x, c, [*w[:2], np.ones((3, 5))], adj, np.zeros(3)), {}),
        ("4 weight columns do not split into 3 heads", (x, c, w, adj, np.zeros(3)),
         {"heads": 3}),
        ("w needs a query, key and value", (x, c, w[:2], adj, np.zeros(3)), {}),
    ):
        with pytest.raises(ValueError, match=f"attention: {match}"):
            ad.attention(*args, **kwargs)
    # a blend of mismatched shapes fails where it is formed
    with pytest.raises(ValueError, match=r"^weighted_sum: shapes differ: \(3, 1\) vs \(3, 2\)$"):
        ad.attention(ad.weighted_sum([(0.5, c), (0.5, x)]), c, w, adj, np.zeros(3))


def test_attention_narrow_form_allocates_less_than_one_head_array():
    """A widening layer (8 + 3 input columns, 2000 head columns) at n=2000
    allocates its output, its sign mask and less than one more n x d_head
    float64 array on top."""
    n, d_head = 2000, 2000
    rng = np.random.default_rng(0)
    pattern = sp.csr_array(sp.random(n, n, density=5.0 / n, random_state=1) + sp.eye(n))
    bias = rng.standard_normal(pattern.nnz)
    z, c = ad.constant(rng.standard_normal((n, 8))), ad.constant(rng.random((n, 3)))
    w = [ad.parameter(rng.standard_normal((8 + 3, d_head)) / 8) for _ in ROLES]
    tracemalloc.start()
    try:
        out = ad.attention(z, c, w, pattern, bias, activate=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.value.nbytes - n * d_head < n * d_head * 8


# ---------------------------------------------------------------------------
# Node permutations
# ---------------------------------------------------------------------------

def _fixed_state(g: Graph, cfg: ExperimentConfig, cons) -> P.ModelState:
    """A model whose graph channels are built on g as cfg selects and read
    the adjacency of the constants cons."""
    rng = np.random.default_rng(17)
    dims = [g.f, 5, 3]
    return P.ModelState(
        ae=P._autoencoder(dims, lambda a, b: glorot(rng, a, b)),
        channels=[build(g, cfg, cons.adj, dims, rng) for build, *_ in P._GRAPH_CHANNELS.values()],
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

    cfg = ExperimentConfig(k=2, n_z=3, seed=0, heads=heads)
    cons = P._build_constants(g, x_c)
    pcons = P._build_constants(pg, x_c[inverse])
    state, pstate = _fixed_state(g, cfg, cons), _fixed_state(pg, cfg, pcons)
    for t, pt in zip(state.params(), pstate.params()):
        assert t.name == pt.name
        pt.value[...] = t.value  # one set of parameters on both graphs
    _, outs = P._decode(state, *P._encode(state, cons, cfg))
    _, pouts = P._decode(pstate, *P._encode(pstate, pcons, cfg))
    # (bottleneck, reconstruction) of every graph channel
    assert list(outs) == list(pouts) == ["gcn", "graphormer"]
    for name in outs:
        for out, pout in zip(outs[name], pouts[name]):
            assert np.allclose(pout.value[perm], out.value, rtol=1e-9, atol=1e-9)
