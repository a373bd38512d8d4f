import numpy as np
import pytest

from gclgcn import autodiff as ad
from gclgcn.centrality import composite_centrality, spatial_bias
from gclgcn.config import ConfigError, ContrastiveConfig, ExperimentConfig
from gclgcn.graph import Graph, normalize_adjacency
from gclgcn.pipeline import GraphTerms, _build_constants, _mask_features  # noqa: internal
from gclgcn.layers import (
    AEParams,
    ContrastiveParams,
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

from oracles import finite_difference_check


def tiny_graph(seed=0, n=5, f=4, p=0.5):
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(features=rng.standard_normal((n, f)), edges=edges)


def zero_params(dims):
    p = AEParams.init(np.random.default_rng(0), dims)
    for _, t in p.named():
        t.value[...] = 0.0
    return p


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
        hs, xhat = ae_forward(params, ad.constant(np.random.default_rng(0).standard_normal((5, 4))))
        assert all(np.array_equal(h.value, np.zeros((5, d))) for h, d in zip(hs, (3, 2)))
        assert np.array_equal(xhat.value, np.zeros((5, 4)))

    def test_identity_weights_pass_nonnegative_input(self):
        params = zero_params([3, 3])
        params.enc_w[0].value[...] = np.eye(3)
        x = np.abs(np.random.default_rng(1).standard_normal((4, 3)))
        hs, _ = ae_forward(params, ad.constant(x))
        assert np.allclose(hs[0].value, x, atol=0)

    def test_gradients(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            params = AEParams.init(rng, [8, 6, 3])
            x = ad.constant(rng.standard_normal((6, 8)))
            tensors = [t for _, t in params.named()]

            def loss(_):
                _, xhat = ae_forward(params, x)
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
    params = GraphormerParams.init(
        np.random.default_rng(seed), [g.f, 3], len(measures), heads,
        cent_scale=np.sqrt((cent**2).mean(axis=0)),
    )
    return ad.constant(cent), normalize_adjacency(g), spatial_bias(g), params


class TestGraphormerLayer:
    def test_isolated_node_attends_to_itself(self):
        g = Graph(features=np.random.default_rng(0).standard_normal((3, 4)), edges=[(0, 1)])
        cent, adj, bias, params = build_attention(g)
        out = graphormer_layer(ad.constant(g.features), cent, adj, bias, params.enc[0], 1)
        # node 2 is isolated: output = LeakyReLU(v_2)
        v = g.features @ params.enc[0].w_value.value + \
            cent.value @ params.enc[0].wc_value.value
        want = np.where(v[2] > 0, v[2], 0.01 * v[2])
        assert np.allclose(out.value[2], want, atol=1e-12)

    def test_identical_nodes_split_attention_evenly(self):
        feats = np.tile(np.array([[1.0, 2.0]]), (2, 1))
        g = Graph(features=feats, edges=[(0, 1)])
        cent = ad.constant(np.ones((2, 1)))
        adj = normalize_adjacency(g)
        bias = np.zeros(adj.nnz)
        params = GraphormerParams.init(np.random.default_rng(3), [2, 3], 1, 1, np.ones(1))
        out = graphormer_layer(ad.constant(feats), cent, adj, bias, params.enc[0], 1)
        # both nodes identical: attention [0.5, 0.5], outputs equal v mean
        v = feats @ params.enc[0].w_value.value + np.ones((2, 1)) @ params.enc[0].wc_value.value
        want = 0.5 * (v[0] + v[1])
        want = np.where(want > 0, want, 0.01 * want)
        assert np.allclose(out.value[0], want, atol=1e-12)
        assert np.allclose(out.value[0], out.value[1], atol=0)

    def test_attention_support_masked_rows_sum_to_one(self):
        g = tiny_graph(4)
        adj = normalize_adjacency(g)
        qk = np.random.default_rng(0).standard_normal((g.n, 3))
        # values = identity reads the attention weights out as a dense matrix
        s = ad.edge_attention(qk, qk, np.eye(g.n), adj, spatial_bias(g), 1.0).value
        allowed = adj.toarray() > 0
        assert np.all(s[~allowed] == 0.0)
        assert np.all(np.abs(s.sum(axis=1) - 1.0) <= 1e-12)

    def test_spatial_sign_flips_bias(self):
        g = tiny_graph(5)
        x_c = np.zeros_like(g.features)
        terms = GraphTerms(g)
        plus = _build_constants(g, ExperimentConfig(spatial_sign="+"), x_c, terms).logit_bias
        minus = _build_constants(g, ExperimentConfig(spatial_sign="-"), x_c, terms).logit_bias
        assert plus.shape == (2 * len(g.edges) + g.n,)
        assert np.allclose(plus, -minus, atol=0)

    def test_missing_bias_pair_rejected(self):
        g = tiny_graph(6)
        cent, adj, bias, params = build_attention(g)
        with pytest.raises(ValueError, match="bias has"):
            graphormer_layer(ad.constant(g.features), cent, adj, bias[:-1], params.enc[0], 1)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        g = tiny_graph(7, n=6)
        cent, adj, bias, params = build_attention(g, seed=7)
        out = graphormer_layer(ad.constant(g.features), cent, adj, bias, params.enc[0], 1).value

        perm = rng.permutation(g.n)  # old id -> new id
        pedges = [(int(perm[u]), int(perm[v])) for u, v in g.edges]
        pg = Graph(features=g.features[np.argsort(perm)], edges=pedges)
        pcent = composite_centrality(pg)
        pout = graphormer_layer(
            ad.constant(pg.features), ad.constant(pcent), normalize_adjacency(pg),
            spatial_bias(pg), params.enc[0], 1,
        ).value
        # row for old node i sits at new position perm[i]
        assert np.allclose(out, pout[perm], atol=1e-9)

    def test_multi_head_output_width(self):
        g = tiny_graph(8)
        cent, adj, bias, params = build_attention(g, heads=3, seed=8)
        out = graphormer_layer(ad.constant(g.features), cent, adj, bias, params.enc[0], 3)
        assert out.shape == (g.n, 3)

    def test_gradients(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            g = tiny_graph(seed, n=4)
            cent, adj, bias, params = build_attention(g, seed=seed)
            lp = params.enc[0]
            tensors = [lp.w_key, lp.w_query, lp.w_value, lp.wc_key, lp.wc_query, lp.wc_value]
            target = ad.constant(rng.standard_normal((g.n, 3)))

            def loss(_):
                return ad.mse(
                    graphormer_layer(ad.constant(g.features), cent, adj, bias, lp, 1), target
                )

            assert finite_difference_check(loss, tensors) <= 1e-4


def masked_view(x, p, seed):
    return _mask_features(np.random.default_rng(seed), x, p)


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
            ContrastiveConfig(p=1.5)


class TestContrastive:
    def test_zero_weights_zero_output(self):
        g = tiny_graph(0)
        adj = normalize_adjacency(g)
        params = ContrastiveParams.init(np.random.default_rng(0), g.f, 6)
        params.w0.value[...] = 0
        params.w1.value[...] = 0
        out = contrastive_encoder(adj, ad.constant(g.features), params)
        assert np.array_equal(out.value, np.zeros((g.n, g.f)))

    def test_edgeless_identity_weights(self):
        g = Graph(features=np.abs(np.random.default_rng(1).standard_normal((4, 3))), edges=[])
        adj = normalize_adjacency(g)
        params = ContrastiveParams.init(np.random.default_rng(0), 3, 3)
        params.w0.value[...] = np.eye(3)
        params.w1.value[...] = np.eye(3)
        out = contrastive_encoder(adj, ad.constant(g.features), params)
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
            params = ContrastiveParams.init(rng, g.f, 5)
            view = ad.constant(masked_view(g.features, 0.3, seed=seed))

            def loss(_):
                c1 = contrastive_encoder(adj, ad.constant(g.features), params)
                c2 = contrastive_encoder(adj, view, params)
                return contrastive_loss(combined_similarity(c1, c2, 1.0), 0.5)

            # Finite differences are only meaningful at differentiable points:
            # coinciding view rows put the pairwise distance at its |.| kink.
            c1 = contrastive_encoder(adj, ad.constant(g.features), params).value
            c2 = contrastive_encoder(adj, view, params).value
            d2 = ((c1[:, None, :] - c2[None, :, :]) ** 2).sum(-1)
            if d2.min() < 1e-6:
                continue
            assert finite_difference_check(loss, [params.w0, params.w1]) <= 1e-4
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


def recorded_nodes(out, layer_input):
    """(op, shape) of every node recorded from layer_input (excluded) up to
    out, sorted; leaves are skipped. An op is named by its backward rule."""
    nodes, stack, seen = [], [out], {id(layer_input)}
    while stack:
        t = stack.pop()
        if id(t) in seen or t._rule is None:
            continue
        seen.add(id(t))
        nodes.append((t._rule.__qualname__.split(".")[0], t.shape))
        stack.extend(t._parents)
    return sorted(nodes)


class TestTapeShape:
    """Each layer records one node per array its backward needs: no matmul,
    add or scale node between a layer's input and its projection or
    activation."""

    def test_attention_layer_records_projections_attention_activation(self):
        g = tiny_graph(9, n=6)
        cent, adj, bias, _ = build_attention(g)
        params = GraphormerParams.init(np.random.default_rng(9), [g.f, 4, 3], cent.shape[1], 1,
                                       np.ones(cent.shape[1]))
        z = graphormer_layer(ad.constant(g.features), cent, adj, bias, params.enc[0], 1)
        out = graphormer_layer(z, cent, adj, bias, params.enc[1], 1)
        assert recorded_nodes(out, z) == sorted(
            [("project", (g.n, 3))] * 3 + [("edge_attention", (g.n, 3)), ("leaky_relu", (g.n, 3))]
        )

    def test_autoencoder_layer_records_one_node(self):
        g = tiny_graph(10, n=6)
        x = ad.constant(g.features)
        params = AEParams.init(np.random.default_rng(10), [g.f, 5, 7, 3])
        hs, xhat = ae_forward(params, x)
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
        params = ContrastiveParams.init(np.random.default_rng(11), g.f, 6)
        assert recorded_nodes(contrastive_encoder(adj, x, params), x) == sorted(
            [("propagate", (g.n, 6)), ("relu", (g.n, 6)), ("propagate", (g.n, g.f))]
        )
