import numpy as np
import pytest
import scipy.sparse as sp

from gclgcn import autodiff as ad
from gclgcn import pipeline as P
from gclgcn.centrality import composite_centrality, spatial_bias
from gclgcn.config import ConfigError, ExperimentConfig
from gclgcn.graph import Graph, normalize_adjacency
from gclgcn.pipeline import _build_constants, _mask_features  # noqa: internal
from gclgcn.layers import ae_loss, gcn_layer, glorot, graphormer_layer, ladder_dims

import oracles
from oracles import (
    attention_init_reference,
    combined_similarity,
    contrastive_loss,
    finite_difference_check,
    inner_product_decode,
    layer_params,
    stacked_attention,
)


def tiny_graph(seed=0, n=5, f=4, p=0.5):
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(features=rng.standard_normal((n, f)), edges=edges)


def zero_params(dims):
    return P._autoencoder(dims, lambda a, b: np.zeros((a, b)))


def random_params(rng, dims):
    return P._autoencoder(dims, lambda a, b: glorot(rng, a, b))


def encode_decode(ae, x):
    """Every encoder layer output of the autoencoder channel ae, and the
    reconstruction."""
    hs = ae.encode(x)
    return hs, ae.decode(hs[-1])


class TestLadder:
    def test_depths(self):
        assert ladder_dims(7, 3, 1) == [7, 3]
        assert ladder_dims(7, 3, 2) == [7, 500, 3]
        assert ladder_dims(7, 3, 3) == [7, 500, 2000, 3]
        assert ladder_dims(7, 3, 4) == [7, 500, 500, 2000, 3]
        with pytest.raises(ValueError, match="depth"):
            ladder_dims(7, 3, 5)


class TestAutoencoder:
    def test_zero_params_give_zero_outputs(self):
        params = zero_params([4, 3, 2])
        hs, xhat = encode_decode(params, ad.constant(np.random.default_rng(0).standard_normal((5, 4))))
        assert all(np.array_equal(h.value, np.zeros((5, d))) for h, d in zip(hs, (3, 2)))
        assert np.array_equal(xhat.value, np.zeros((5, 4)))

    def test_identity_weights_pass_nonnegative_input(self):
        params = zero_params([3, 3])
        params.enc[0]["w"].value[...] = np.eye(3)
        x = np.abs(np.random.default_rng(1).standard_normal((4, 3)))
        hs, _ = encode_decode(params, ad.constant(x))
        assert np.allclose(hs[0].value, x, atol=0)

    def test_gradients(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            params = random_params(rng, [8, 6, 3])
            x = ad.constant(rng.standard_normal((6, 8)))
            tensors = params.params()

            def loss(_):
                _, xhat = encode_decode(params, x)
                return ae_loss(x, xhat)

            assert finite_difference_check(loss, tensors) <= 1e-4

    def test_loss_values(self):
        x = ad.constant([[1.0, 1.0]])
        assert ae_loss(x, x).value[0, 0] == 0.0
        assert ae_loss(x, ad.constant([[0.0, 0.0]])).value[0, 0] == pytest.approx(1.0)
        # duplicating rows leaves the per-sample mean unchanged
        x2 = ad.constant([[1.0, 1.0], [1.0, 1.0]])
        z2 = ad.constant(np.zeros((2, 2)))
        assert ae_loss(x2, z2).value[0, 0] == pytest.approx(1.0)


class TestGcnLayer:
    def test_edgeless_identity(self):
        g = Graph(features=np.zeros((3, 2)), edges=[])
        adj = normalize_adjacency(g)
        z = np.abs(np.random.default_rng(0).standard_normal((3, 2)))
        out = gcn_layer(adj, ad.constant(z), ad.constant(np.eye(2)))
        assert np.allclose(out.value, z, atol=0)

    def test_single_edge_preactivation(self):
        g = Graph(features=np.zeros((2, 1)), edges=[(0, 1)])
        adj = normalize_adjacency(g)
        out = gcn_layer(adj, ad.constant(np.eye(2)), ad.constant(np.eye(2)), activate=False)
        assert np.allclose(out.value, 0.5 * np.ones((2, 2)), atol=0)

    def test_gradients(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            g = tiny_graph(seed)
            adj = normalize_adjacency(g)
            w = ad.parameter(rng.standard_normal((4, 3)))
            target = ad.constant(rng.standard_normal((5, 3)))

            def loss(_):
                return ad.mse(gcn_layer(adj, ad.constant(g.features), w), target)

            assert finite_difference_check(loss, [w]) <= 1e-4


def build_attention(g, heads=1, measures=("degree", "betweenness", "closeness"), seed=0):
    cent = composite_centrality(g, measures)
    named = attention_init_reference(
        np.random.default_rng(seed), [g.f, 3], len(measures), heads,
        cent_scale=np.sqrt((cent**2).mean(axis=0)),
    )
    return (ad.constant(cent), normalize_adjacency(g), spatial_bias(g),
            layer_params(stacked_attention(named)))


class TestGraphormerLayer:
    def test_isolated_node_attends_to_itself(self):
        g = Graph(features=np.random.default_rng(0).standard_normal((3, 4)), edges=[(0, 1)])
        cent, adj, bias, params = build_attention(g)
        out = graphormer_layer(ad.constant(g.features), cent, adj, bias, params[0], 1)
        # node 2 is isolated: output = LeakyReLU(v_2)
        v = np.hstack([g.features, cent.value]) @ params[0]["w_value"].value
        want = np.where(v[2] > 0, v[2], 0.01 * v[2])
        assert np.allclose(out.value[2], want, atol=1e-12)

    def test_identical_nodes_split_attention_evenly(self):
        feats = np.tile(np.array([[1.0, 2.0]]), (2, 1))
        g = Graph(features=feats, edges=[(0, 1)])
        cent = ad.constant(np.ones((2, 1)))
        adj = normalize_adjacency(g)
        bias = np.zeros(adj.nnz)
        lp = layer_params(stacked_attention(
            attention_init_reference(np.random.default_rng(3), [2, 3], 1, 1, np.ones(1))
        ))[0]
        out = graphormer_layer(ad.constant(feats), cent, adj, bias, lp, 1)
        # both nodes identical: attention [0.5, 0.5], outputs equal v mean
        v = np.hstack([feats, np.ones((2, 1))]) @ lp["w_value"].value
        want = 0.5 * (v[0] + v[1])
        want = np.where(want > 0, want, 0.01 * want)
        assert np.allclose(out.value[0], want, atol=1e-12)
        assert np.allclose(out.value[0], out.value[1], atol=0)

    def test_attention_support_masked_rows_sum_to_one(self):
        g = tiny_graph(4)
        adj = normalize_adjacency(g)
        rng = np.random.default_rng(0)
        allowed = adj.toarray() > 0
        # z = identity and w_value = [identity 0] read the attention weights
        # out as a dense matrix; d_head = n + 3 > n + 1 scores through
        # W~q W~k^T, d_head = n through q and k
        for d_head in (g.n, g.n + 3):
            wq, wk = (rng.standard_normal((g.n, d_head)) for _ in range(2))
            wv = np.eye(g.n, d_head)
            w = [np.vstack([wr, np.zeros((1, d_head))]) for wr in (wq, wk, wv)]
            s = ad.attention(np.eye(g.n), np.zeros((g.n, 1)), w, adj, spatial_bias(g)).value
            assert np.all(s[:, :g.n][~allowed] == 0.0) and np.all(s[:, g.n:] == 0.0)
            assert np.all(np.abs(s.sum(axis=1) - 1.0) <= 1e-12)

    def test_spatial_sign_flips_bias(self, monkeypatch):
        g = tiny_graph(5)
        adj = normalize_adjacency(g)
        # an attention layer returns the logit bias its channel hands it
        monkeypatch.setattr(P, "graphormer_layer", lambda z, c, adj, bias, *_, **__: bias)

        def logit_bias(sign):
            cfg = ExperimentConfig(spatial_sign=sign)
            channel = P._attention_channel(g, cfg, adj, [g.f, 2], np.random.default_rng(0))
            return channel.layer(None, None, True)

        plus, minus = logit_bias("+"), logit_bias("-")
        assert plus.shape == (2 * len(g.edges) + g.n,)
        assert np.allclose(plus, -minus, atol=0)

    def test_missing_bias_pair_rejected(self):
        g = tiny_graph(6)
        cent, adj, bias, params = build_attention(g)
        with pytest.raises(ValueError, match="bias has"):
            graphormer_layer(ad.constant(g.features), cent, adj, bias[:-1], params[0], 1)

    def test_centrality_row_mismatch_rejected_by_the_op(self):
        g = tiny_graph(6)
        cent, adj, bias, params = build_attention(g)
        short = ad.constant(cent.value[:-1])
        with pytest.raises(ValueError, match="attention: c has"):
            graphormer_layer(ad.constant(g.features), short, adj, bias, params[0], 1)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        g = tiny_graph(7, n=6)
        cent, adj, bias, params = build_attention(g, seed=7)
        out = graphormer_layer(ad.constant(g.features), cent, adj, bias, params[0], 1).value

        perm = rng.permutation(g.n)  # old id -> new id
        pedges = [(int(perm[u]), int(perm[v])) for u, v in g.edges]
        pg = Graph(features=g.features[np.argsort(perm)], edges=pedges)
        pcent = composite_centrality(pg)
        pout = graphormer_layer(
            ad.constant(pg.features), ad.constant(pcent), normalize_adjacency(pg),
            spatial_bias(pg), params[0], 1,
        ).value
        # row for old node i sits at new position perm[i]
        assert np.allclose(out, pout[perm], atol=1e-9)

    def test_multi_head_output_width(self):
        g = tiny_graph(8)
        cent, adj, bias, params = build_attention(g, heads=3, seed=8)
        out = graphormer_layer(ad.constant(g.features), cent, adj, bias, params[0], 3)
        assert out.shape == (g.n, 3)

    def test_gradients(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            g = tiny_graph(seed, n=4)
            cent, adj, bias, params = build_attention(g, seed=seed)
            lp = params[0]
            tensors = list(lp.values())
            target = ad.constant(rng.standard_normal((g.n, 3)))

            def loss(_):
                return ad.mse(
                    graphormer_layer(ad.constant(g.features), cent, adj, bias, lp, 1), target
                )

            assert finite_difference_check(loss, tensors) <= 1e-4


def masked_view(x, p, seed):
    return _mask_features(np.random.default_rng(seed), x, p)


def contrastive(rng, adj, f, hidden):
    """A contrastive channel drawn from rng, and its encoder map."""
    channel = P._contrastive_channel(rng, adj, f, hidden)
    return channel, lambda v: channel.decode(channel.encode(v)[-1])


class TestAugment:
    """Feature masking that makes the contrastive view (pipeline._mask_features)."""

    def test_keep_all(self):
        x = np.random.default_rng(0).standard_normal((5, 5))
        assert np.array_equal(masked_view(x, 0.0, seed=1), x)

    def test_drop_all(self):
        x = np.random.default_rng(0).standard_normal((5, 5))
        assert np.array_equal(masked_view(x, 1.0, seed=1), np.zeros((5, 5)))

    def test_mask_fraction_concentrates(self):
        x = np.ones((100, 100))
        out = masked_view(x, 0.3, seed=7)
        zeroed = float((out == 0).mean())
        assert 0.27 <= zeroed <= 0.33

    def test_deterministic(self):
        x = np.ones((20, 20))
        assert np.array_equal(masked_view(x, 0.5, seed=3), masked_view(x, 0.5, seed=3))

    def test_bad_rate(self):
        # the mask rate is validated where it enters: contrastive.p
        with pytest.raises(ConfigError, match="contrastive.p"):
            ExperimentConfig(contrastive_p=1.5)


class TestContrastive:
    def test_zero_weights_zero_output(self):
        g = tiny_graph(0)
        adj = normalize_adjacency(g)
        channel, encoder = contrastive(np.random.default_rng(0), adj, g.f, 6)
        for t in channel.params():
            t.value[...] = 0
        out = encoder(ad.constant(g.features))
        assert np.array_equal(out.value, np.zeros((g.n, g.f)))

    def test_edgeless_identity_weights(self):
        g = Graph(features=np.abs(np.random.default_rng(1).standard_normal((4, 3))), edges=[])
        adj = normalize_adjacency(g)
        channel, encoder = contrastive(np.random.default_rng(0), adj, 3, 3)
        for t in channel.params():
            t.value[...] = np.eye(3)
        out = encoder(ad.constant(g.features))
        assert np.allclose(out.value, g.features, atol=0)

    def test_similarity_identical_unit_rows(self):
        c = ad.constant(np.array([[1.0, 0.0], [0.0, 1.0]]))
        for ex in (0.5, 1.0, 2.0):
            s = combined_similarity(c, c, ex).value
            assert np.allclose(np.diag(s), 1.0, atol=1e-12)

    def test_similarity_orthogonal_rows(self):
        a = ad.constant(np.array([[1.0, 0.0]]))
        b = ad.constant(np.array([[0.0, 1.0]]))
        assert combined_similarity(a, b, 1.0).value[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_similarity_opposed_rows(self):
        a = ad.constant(np.array([[1.0, 0.0]]))
        b = ad.constant(np.array([[-1.0, 0.0]]))
        assert combined_similarity(a, b, 1.0).value[0, 0] == pytest.approx(-1 / 3, abs=1e-12)

    def test_loss_uniform_rows(self):
        s = ad.constant(np.zeros((2, 2)))
        assert contrastive_loss(s, 1.0).value[0, 0] == pytest.approx(np.log(2), abs=1e-12)

    def test_loss_identity_similarity(self):
        s = ad.constant(np.eye(2))
        want = np.log(1 + np.exp(-1.0))
        assert contrastive_loss(s, 1.0).value[0, 0] == pytest.approx(want, abs=1e-12)

    def test_loss_invariant_to_consistent_permutation(self):
        rng = np.random.default_rng(2)
        s = rng.standard_normal((5, 5))
        perm = rng.permutation(5)
        permuted = s[perm][:, perm]
        a = contrastive_loss(ad.constant(s), 0.7).value[0, 0]
        b = contrastive_loss(ad.constant(permuted), 0.7).value[0, 0]
        assert a == pytest.approx(b, rel=1e-12)

    def test_loss_decreases_with_sharper_diagonal(self):
        rng = np.random.default_rng(3)
        s = rng.standard_normal((6, 6)) * 0.1
        base = contrastive_loss(ad.constant(s), 0.5).value[0, 0]
        prev = base
        for bump in (0.5, 1.0, 2.0):
            sharper = s + bump * np.eye(6)
            val = contrastive_loss(ad.constant(sharper), 0.5).value[0, 0]
            assert val < prev
            prev = val

    def test_loss_requires_positive_temperature(self):
        with pytest.raises(ValueError, match="temperature"):
            contrastive_loss(ad.constant(np.zeros((2, 2))), 0.0)

    def test_gradients_through_similarity_and_loss(self):
        checked = 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            g = tiny_graph(seed)
            adj = normalize_adjacency(g)
            channel, encoder = contrastive(rng, adj, g.f, 5)
            x = ad.constant(g.features)
            view = ad.constant(masked_view(g.features, 0.3, seed=seed))

            def loss(_):
                return ad.info_nce(encoder(x), encoder(view), 1.0, 0.5)

            # Finite differences are only meaningful at differentiable points:
            # coinciding view rows put the pairwise distance at its |.| kink.
            c1, c2 = encoder(x).value, encoder(view).value
            d2 = ((c1[:, None, :] - c2[None, :, :]) ** 2).sum(-1)
            if d2.min() < 1e-6:
                continue
            assert finite_difference_check(loss, channel.params()) <= 1e-4
            checked += 1
        assert checked >= 5


class TestInnerProductDecoder:
    def test_zero_embedding_gives_half(self):
        out = inner_product_decode(ad.constant(np.zeros((3, 2))))
        assert np.array_equal(out.value, np.full((3, 3), 0.5))

    def test_orthogonal_rows(self):
        z = np.array([[2.0, 0.0], [0.0, 3.0]])
        out = inner_product_decode(ad.constant(z)).value
        assert out[0, 1] == pytest.approx(0.5, abs=0)
        assert out[0, 0] == pytest.approx(1 / (1 + np.exp(-4.0)), abs=1e-12)
        assert out[1, 1] == pytest.approx(1 / (1 + np.exp(-9.0)), abs=1e-12)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((8, 3))
        out = inner_product_decode(ad.constant(z)).value
        assert np.array_equal(out, out.T)


def recorded_nodes(out, layer_input, reading=None):
    """(op, shape) of every node recorded from layer_input (excluded) up to
    out, sorted; leaves are skipped. An op is named by its backward rule.
    With reading given, only the nodes that take reading as a parent."""
    nodes, stack, seen = [], [out], {id(layer_input)}
    while stack:
        t = stack.pop()
        if id(t) in seen or t._rule is None:
            continue
        seen.add(id(t))
        if reading is None or any(p is reading for p in t._parents):
            nodes.append((t._rule.__qualname__.split(".")[0], t.shape))
        stack.extend(t._parents)
    return sorted(nodes)


class TestTapeShape:
    """Each layer records its fused nodes only: no matmul or weighted_sum
    node between a layer's input and its output."""

    def test_attention_layer_records_projections_attention_activation(self):
        g = tiny_graph(9, n=6)
        cent, adj, bias, _ = build_attention(g)
        params = layer_params(stacked_attention(attention_init_reference(
            np.random.default_rng(9), [g.f, 4, 3], cent.shape[1], 1, np.ones(cent.shape[1])
        )))
        z = graphormer_layer(ad.constant(g.features), cent, adj, bias, params[0], 1)
        out = graphormer_layer(z, cent, adj, bias, params[1], 1)
        assert recorded_nodes(out, z) == [("attention", (g.n, 3))]

    def test_autoencoder_layer_records_one_node(self):
        g = tiny_graph(10, n=6)
        x = ad.constant(g.features)
        params = random_params(np.random.default_rng(10), [g.f, 5, 7, 3])
        hs, xhat = encode_decode(params, x)
        assert recorded_nodes(hs[-1], x) == sorted(("dense", h.shape) for h in hs)
        for h_in, h in zip([x, *hs], hs):
            assert recorded_nodes(h, h_in) == [("dense", h.shape)]
        assert recorded_nodes(xhat, hs[-1]) == sorted(
            ("dense", (g.n, w)) for w in (7, 5, g.f)
        )

    def test_propagation_layers_record_one_node(self):
        g = tiny_graph(11, n=6)
        adj = normalize_adjacency(g)
        x = ad.constant(g.features)
        for w in (ad.parameter(np.ones((g.f, 2))), ad.parameter(np.ones((g.f, 9)))):
            assert recorded_nodes(gcn_layer(adj, x, w), x) == [("propagate", (g.n, w.shape[1]))]
        _, encoder = contrastive(np.random.default_rng(11), adj, g.f, 6)
        assert recorded_nodes(encoder(x), x) == sorted(
            [("propagate", (g.n, 6)), ("relu", (g.n, 6)), ("propagate", (g.n, g.f))]
        )

    @pytest.mark.parametrize("layers,count", [(2, 24), (4, 40)])
    def test_clustering_head_is_the_centroids_only_consumer(self, layers, count):
        """One joint epoch records 24 nodes at layers=2 and 40 at layers=4
        (each blended graph layer reads its epsilon-blend from a weighted_sum
        node), and the
        centroids are read by one of them, the cluster_kl head."""
        state, _, _, total = _joint_epoch(tiny_graph(12, n=8), layers)
        assert recorded_nodes(total, state.centroids, reading=state.centroids) == [
            ("cluster_kl", (1, 1))
        ]
        assert len(recorded_nodes(total, None)) == count


def _joint_epoch(g, layers, heads=1):
    """(state, constants, config, loss) of one joint epoch on g at the
    given depth and attention heads, from random pretrained weights."""
    cfg = ExperimentConfig(k=2, n_z=3, layers=layers, heads=heads, seed=0)
    rng = np.random.default_rng(12)
    ae = random_params(rng, ladder_dims(g.f, cfg.n_z, cfg.layers))
    pre = {**{t.name: t.value for t in ae.params()}, "x_c": rng.standard_normal(g.features.shape)}
    cons = _build_constants(g, cfg, pre["x_c"])
    state, encoded = P._init_state(g, cfg, pre, cons)
    total, _, _ = P._epoch_losses(state, cons, cfg, encoded)
    return state, cons, cfg, total


def _closure(node) -> dict:
    cells = (c.cell_contents for c in node._rule.__closure__)
    return dict(zip(node._rule.__code__.co_freevars, cells))


class TestTapeHolds:
    """What one joint epoch's tape holds beside the parameters, read with
    oracles.tape_arrays at n=40, layers=3: ladder 4 -> 500 -> 2000 -> 3,
    so attention encoder layers 0 and 1 and decoder layer 0 take the narrow
    form, and encoder layers 1 and 2 of both channels read a blend."""

    def test_keeps_no_blend_adj_z_or_narrow_intermediate(self):
        """No array the tape holds has the bytes of an epsilon-blend, of
        adj @ x for a propagate input x, or of a narrow attention's z~, P or
        att @ z~: backward rebuilds them all."""
        g = tiny_graph(12, n=40, p=0.3)
        state, cons, cfg, total = _joint_epoch(g, 3)
        held = {(h.array.shape, h.array.tobytes())
                for h in oracles.tape_arrays(total, state.params())}
        seen = {"blend": 0, "narrow attention": 0}
        for node in _tape_nodes(total):
            op = _op(node)
            if op not in ("propagate", "attention"):
                continue
            first = node._parents[0]
            x = first.value  # a forgotten blend is rebuilt here, after held was read
            blended = _op(first) == "weighted_sum"
            seen["blend"] += blended
            forbidden = [x] if blended else []
            if op == "propagate":
                forbidden.append(cons.adj @ x)
            elif node._parents[-1].shape[0] < node._parents[-1].shape[1] // cfg.heads:
                seen["narrow attention"] += 1
                zt = np.hstack([x, composite_centrality(g, cfg.centrality)])
                for *_, mat, att in _closure(node)["kept"]:
                    pattern = sp.csr_array((att, cons.adj.indices, cons.adj.indptr),
                                           shape=cons.adj.shape)
                    forbidden += [zt, zt @ mat, pattern @ zt]
            for arr in forbidden:
                kept = (arr.shape, arr.tobytes()) in held
                assert not kept, f"{op} keeps a {arr.shape} array backward can rebuild"
        assert seen == {"blend": 4, "narrow attention": 3}

    def test_every_blend_is_forgotten_after_the_forward(self):
        """Encoder layers 1 and 2 of both channels read their epsilon-blend
        from a weighted_sum node, which Channel.encode forgot once the layer
        had run."""
        _, _, _, total = _joint_epoch(tiny_graph(12, n=40, p=0.3), 3)
        blends = [t._parents[0] for t in _tape_nodes(total)
                  if _op(t) in ("propagate", "attention") and _op(t._parents[0]) == "weighted_sum"]
        assert len(blends) == 4
        assert all(b._value is None for b in blends)

    def test_holds_at_most_the_outputs_and_what_attention_keeps(self):
        """The tape holds at most 1.25 times the layer outputs it still
        stores (the dense, propagate and attention values not forgotten) and
        each wide attention's q, k and v, plus each narrow attention head's
        (d + m) x (d + m) M, whose size does not depend on n. Beside these it
        keeps arrays of O(nnz) or of few columns. The four epsilon-blends,
        were they kept, would add half as much again as it holds."""
        g = tiny_graph(12, n=40, p=0.3)
        state, _, cfg, total = _joint_epoch(g, 3)
        held = oracles.tape_arrays(total, state.params())
        nodes = _tape_nodes(total)
        stored = sum(t._value.nbytes for t in nodes if t._value is not None
                     and _op(t) in ("dense", "propagate", "attention"))
        m_bytes = 0
        for t in nodes:
            if _op(t) == "attention":
                d_tilde, width = t._parents[-1].shape
                if d_tilde < width // cfg.heads:
                    m_bytes += cfg.heads * d_tilde * d_tilde * 8
                else:
                    stored += 3 * t.shape[0] * width * 8
        assert sum(h.array.nbytes for h in held) <= 1.25 * stored + m_bytes

    def test_forgets_every_output_wider_than_its_input(self):
        """After one joint forward the tape holds no output wider than its
        input: encoder layers 0 and 1 and decoder layer 0 of each of the
        three stacks. Read back, which rebuilds them, they add at least
        their own bytes to what the tape holds."""
        g = tiny_graph(12, n=40, p=0.3)
        state, _, _, total = _joint_epoch(g, 3)
        params = state.params()
        before = oracles.tape_arrays(total, params)
        held = {(h.array.shape, h.array.tobytes()) for h in before}
        wide = [t for t in _tape_nodes(total) if _op(t) in _INPUT
                and t.shape[1] > t._parents[_INPUT[_op(t)]].shape[1]]
        assert sorted(t.shape[1] for t in wide) == [500] * 3 + [2000] * 6
        for t in wide:
            assert (t.value.shape, t.value.tobytes()) not in held, f"{_op(t)} holds {t.shape}"
        after = oracles.tape_arrays(total, params)
        grown = sum(h.array.nbytes for h in after) - sum(h.array.nbytes for h in before)
        assert grown >= sum(t.value.nbytes for t in wide)


@pytest.mark.parametrize("heads", [1, 2])
def test_joint_step_lends_one_scratch_buffer_with_one_head(heads):
    """A joint step's backward needs one scratch buffer with one attention
    head, whose role gradients are handed over one at a time, and three
    with two heads, whose gradients are the bytes of the rule returning all
    three at once (the accumulating loop in tests/oracles.py, which adds
    each into zeros, so -0.0 is compared as 0.0), run on a second tape
    recorded from the same state."""
    state, cons, cfg, total = _joint_epoch(tiny_graph(12, n=40, p=0.3), 3, heads)
    params = state.params()
    opt = oracles.RecordingState.for_params(params, lr=0.0)
    ad.backward(total, opt)
    assert len(opt.scratch) == (1 if heads == 1 else 3)
    again, _, _ = P._epoch_losses(state, cons, cfg, P._encode(state, cons, cfg))
    want = oracles.accumulating_backward(again, params)
    for i, (p, w) in enumerate(zip(params, want)):
        assert (opt.grads[i] + 0.0).tobytes() == w.tobytes(), p


# The parent each layer op reads its input from.
_INPUT = {"dense": 0, "propagate": -2, "attention": -4}


def _op(node) -> str:
    """The op that recorded node, named by its backward rule."""
    return node._rule.__qualname__.split(".")[0] if node._rule is not None else "leaf"


def _tape_nodes(loss):
    """Every inner node of loss's tape."""
    nodes, stack, seen = [], [loss], set()
    while stack:
        t = stack.pop()
        if id(t) in seen or t._rule is None:
            continue
        seen.add(id(t))
        nodes.append(t)
        stack.extend(t._parents)
    return nodes
