import weakref

import numpy as np
import pytest

from gclgcn import autodiff as ad
from gclgcn.centrality import composite_centrality
from gclgcn.config import ConfigError, ExperimentConfig
from gclgcn.graph import Graph, SbmSpec, generate_sbm, normalize_adjacency
from gclgcn.cluster import metric_row, student_t, target_distribution
from gclgcn.config import ABLATIONS
from gclgcn.harness import ablation_study
from gclgcn.pipeline import (
    NumericError,
    assign_labels,
    fuse_final,
    pretrain,
    pretrain_ae,
    pretrain_contrastive,
    pretrained_from_named,
    train,
)
from gclgcn.pipeline import _fusion_weights, _mask_features  # noqa: internal

import oracles
from oracles import (
    ae_init_reference,
    attention_init_reference,
    backward_pair,
    centroid_gradient,
    gcn_init_reference,
    loss_total,
    stacked_attention,
)


def small_sbm(seed=3, sizes=(8, 8), p_in=0.6, p_out=0.05, f=6, sep=2.0):
    k = len(sizes)
    means = np.zeros((k, f))
    for b in range(k):
        means[b, b % f] = sep
    spec = SbmSpec(block_sizes=sizes, p_in=p_in, p_out=p_out, means=means, noise_std=0.5)
    return generate_sbm(spec, seed=seed)


def tiny_cfg(**over):
    base = dict(
        epochs=3, k=2, n_z=3, layers=2, lr=1e-3, seed=0,
        contrastive_hidden=8, contrastive_epochs=3,
    )
    base.update(over)
    return ExperimentConfig(**base)


class TestFusion:
    def test_blend_weights(self):
        # the injection of an autoencoder layer output h into a channel input z
        h = ad.constant(np.full((2, 2), 2.0))
        z = ad.constant(np.zeros((2, 2)))
        for eps, want in ((0.0, np.zeros((2, 2))), (1.0, h.value), (0.5, np.ones((2, 2)))):
            assert np.array_equal(ad.weighted_sum([(eps, h), (1.0 - eps, z)]).value, want)

    def test_blend_shape_mismatch(self):
        with pytest.raises(ValueError,
                           match=r"^weighted_sum: shapes differ: \(2, 2\) vs \(3, 2\)$"):
            ad.weighted_sum([(0.5, ad.constant(np.zeros((2, 2)))),
                             (0.5, ad.constant(np.zeros((3, 2))))])

    def test_fuse_final_single_channel_edgeless(self):
        g = Graph(features=np.zeros((3, 1)), edges=[])
        adj = normalize_adjacency(g)
        z = ad.constant(np.random.default_rng(0).standard_normal((3, 2)))
        zeros = ad.constant(np.zeros((3, 2)))
        out = fuse_final([(1.0, z), (0.0, zeros), (0.0, zeros)], adj)
        assert np.allclose(out.value, z.value, atol=0)

    def test_fuse_final_convexity(self):
        g = small_sbm()
        adj = normalize_adjacency(g)
        m = ad.constant(np.random.default_rng(1).standard_normal((g.n, 3)))
        out = fuse_final([(0.25, m), (0.35, m), (0.4, m)], adj)
        assert np.allclose(out.value, adj @ m.value, atol=1e-12)

    def test_ablation_renormalizes(self):
        cfg = tiny_cfg(lam=0.4, theta=0.1, gamma=0.5, ablation="-GCN")
        weights = _fusion_weights(cfg)
        assert list(weights) == ["ae", "graphormer"]
        assert weights["ae"] + weights["graphormer"] == pytest.approx(1.0)
        assert weights["ae"] == pytest.approx(0.1 / 0.6)
        cfg = tiny_cfg(lam=0.4, theta=0.1, gamma=0.5, ablation="-Graphormer")
        weights = _fusion_weights(cfg)
        assert list(weights) == ["gcn", "ae"]
        assert weights["gcn"] + weights["ae"] == pytest.approx(1.0)
        # all channels on: the configured weights, in summation order, untouched
        for ablation in ("norm", "-ContrastiveLearning"):
            cfg = tiny_cfg(lam=0.4, theta=0.1, gamma=0.5, ablation=ablation)
            assert _fusion_weights(cfg) == {"gcn": 0.4, "ae": 0.1, "graphormer": 0.5}
        with pytest.raises(ConfigError, match="sum above 0"):
            _fusion_weights(tiny_cfg(lam=1.0, theta=0.0, gamma=0.0, ablation="-GCN"))


class TestStudentT:
    def test_single_cluster(self):
        q, _ = student_t(np.random.default_rng(0).standard_normal((4, 2)), np.zeros((1, 2)))
        assert np.allclose(q, 1.0, atol=0)

    def test_equidistant(self):
        z = np.array([[0.0, 0.0]])
        c = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert np.allclose(student_t(z, c)[0], [[0.5, 0.5]], atol=1e-15)

    def test_worked_example(self):
        z = np.array([[1.0, 0.0]])
        c = np.array([[1.0, 0.0], [1.0, 1.0]])
        q, d2 = student_t(z, c, t=1.0)
        assert np.allclose(q, [[2 / 3, 1 / 3]], atol=1e-12)
        assert np.array_equal(d2, [[0.0, 1.0]])

    def test_rows_stochastic_positive(self):
        rng = np.random.default_rng(1)
        q, _ = student_t(rng.standard_normal((20, 4)), rng.standard_normal((5, 4)), t=2.0)
        assert np.all(q > 0)
        assert np.all(np.abs(q.sum(axis=1) - 1.0) <= 1e-9)

    def test_cluster_kl_requires_positive_t(self):
        with pytest.raises(ValueError, match="cluster_kl: t must be positive"):
            ad.cluster_kl(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), 0.0, 1, 1)


class TestTargetDistribution:
    def test_worked_example(self):
        q = np.array([[0.8, 0.2], [0.2, 0.8]])
        p = target_distribution(q)
        assert np.allclose(p, [[16 / 17, 1 / 17], [1 / 17, 16 / 17]], atol=1e-12)

    def test_uniform_fixed_point(self):
        q = np.full((5, 4), 0.25)
        assert np.allclose(target_distribution(q), q, atol=1e-15)

    def test_equal_frequency_preserves_argmax(self):
        rng = np.random.default_rng(2)
        base = rng.dirichlet(np.ones(3), size=4)
        # stack all cyclic column shifts: every column sums identically
        q = np.vstack([base[:, np.roll(np.arange(3), s)] for s in range(3)])
        p = target_distribution(q)
        assert np.array_equal(p.argmax(axis=1), q.argmax(axis=1))


class TestClusterKlValues:
    """The two KL terms cluster_kl hands back, and the composed kl_div in
    tests/oracles.py that judges it."""

    def test_identical_zero(self):
        q = np.full((3, 2), 0.5)
        assert oracles.kl_div(q, q).value[0, 0] == pytest.approx(0.0, abs=1e-15)
        z = np.random.default_rng(0).standard_normal((5, 2))
        head = ad.cluster_kl(z, z, np.eye(2), 1.0, 1.0, 1.0)
        assert head.kl[1] == 0.0

    def test_near_degenerate_log2(self, monkeypatch):
        d = 1e-12
        p = np.array([[1.0 - d, d]])
        q = np.array([[0.5, 0.5]])
        assert oracles.kl_div(p, q).value[0, 0] == pytest.approx(np.log(2), abs=1e-9)
        # equidistant centroids give Q = [0.5, 0.5]; the target is held at p
        monkeypatch.setattr(ad, "target_distribution", lambda q: p)
        head = ad.cluster_kl(np.zeros((1, 2)), np.zeros((1, 2)), [[1.0, 0.0], [-1.0, 0.0]],
                             1.0, 1.0, 0.0)
        assert head.kl[0] == pytest.approx(np.log(2), abs=1e-9)

    def test_nonnegative_on_random_pairs(self, monkeypatch):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = rng.dirichlet(np.ones(4), size=6)
            q = rng.dirichlet(np.ones(4), size=6)
            assert oracles.kl_div(p, q).value[0, 0] >= -1e-12
            z, z_ae, c = (rng.standard_normal(shape) for shape in ((6, 2), (6, 2), (4, 2)))
            monkeypatch.setattr(ad, "target_distribution", lambda q, p=p: p)
            assert min(ad.cluster_kl(z, z_ae, c, 1.0, 1.0, 1.0).kl) >= -1e-12


class TestCentroidGradient:
    def test_zero_when_all_points_on_centroid(self):
        z = np.tile([[1.0, 2.0]], (5, 1))
        c = np.array([[1.0, 2.0]])
        q = np.ones((5, 1))
        p = np.ones((5, 1))
        assert np.allclose(centroid_gradient(z, c, p, q), 0.0, atol=0)

    def test_zero_when_p_equals_q(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((6, 3))
        c = rng.standard_normal((2, 3))
        q, _ = student_t(z, c)
        assert np.allclose(centroid_gradient(z, c, q, q), 0.0, atol=0)

    def test_matches_tape_gradient(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            z = rng.standard_normal((12, 4))
            c = ad.parameter(rng.standard_normal((3, 4)))
            head = ad.cluster_kl(z, z, c, 1.0, 1.0, 0.0)
            (gc,) = oracles.grads(head, [c])
            want = centroid_gradient(z, c.value, head.p, head.q, t=1.0)
            assert np.max(np.abs(gc - want)) <= 1e-6


class TestAssignLabels:
    def test_argmax(self):
        assert assign_labels(np.array([[0.9, 0.1]]))[0] == 0

    def test_tie_breaks_to_smallest(self):
        assert assign_labels(np.array([[0.5, 0.5]]))[0] == 0

    def test_column_permutation_permutes_labels(self):
        rng = np.random.default_rng(5)
        q = rng.dirichlet(np.ones(4), size=10)
        perm = np.array([2, 0, 3, 1])
        a = assign_labels(q)
        b = assign_labels(q[:, perm])
        assert np.array_equal(perm[b], a)


class TestPretraining:
    def test_ae_loss_improves(self):
        g = small_sbm()
        cfg = tiny_cfg()
        ae = pretrain_ae(g, cfg)
        from gclgcn import pipeline as P
        from gclgcn.layers import ae_loss, glorot

        x = ad.constant(g.features)
        final = ae_loss(x, ae.decode(ae.encode(x)[-1])).value[0, 0]
        rng = np.random.default_rng(0)
        fresh = P._autoencoder([g.f, 500, cfg.n_z], lambda a, b: glorot(rng, a, b))
        initial = ae_loss(x, fresh.decode(fresh.encode(x)[-1])).value[0, 0]
        assert final < initial

    def test_zero_features_zero_loss(self):
        g = Graph(features=np.zeros((6, 3)), edges=[(0, 1), (2, 3)])
        ae = pretrain_ae(g, tiny_cfg())
        from gclgcn.layers import ae_loss

        x = ad.constant(g.features)
        assert ae_loss(x, ae.decode(ae.encode(x)[-1])).value[0, 0] == 0.0

    def test_ae_deterministic(self):
        g = small_sbm()
        cfg = tiny_cfg()
        a = pretrain_ae(g, cfg)
        b = pretrain_ae(g, cfg)
        for ta, tb in zip(a.params(), b.params()):
            assert np.array_equal(ta.value, tb.value)

    def test_degenerate_view_gives_unit_self_similarity(self):
        # p=0 keeps both views identical: cosine 1, distance 0 on the diagonal
        from gclgcn.pipeline import _contrastive_channel
        from oracles import combined_similarity

        g = small_sbm()
        assert np.array_equal(
            _mask_features(np.random.default_rng(0), g.features, 0.0), g.features
        )
        channel = _contrastive_channel(np.random.default_rng(0), normalize_adjacency(g), g.f, 8)
        c = channel.decode(channel.encode(ad.constant(g.features))[-1])
        s = combined_similarity(c, c, 1.0).value
        assert np.allclose(np.diag(s), 1.0, atol=1e-9)

    def test_contrastive_deterministic_and_improves(self):
        g = small_sbm()
        cfg = tiny_cfg(contrastive_hidden=8, contrastive_epochs=8)
        xc1 = pretrain_contrastive(g, cfg)
        xc2 = pretrain_contrastive(g, cfg)
        assert np.array_equal(xc1, xc2)
        assert xc1.shape == g.features.shape

    def test_contrastive_loss_improves(self):
        """A hand-written loop training the two-layer map
        relu(adj x w0) w1 from the same streams ends at exactly the features
        pretrain_contrastive returns, and its loss falls."""
        from gclgcn import pipeline as P
        from gclgcn.layers import glorot

        g = small_sbm()
        cfg = tiny_cfg(contrastive_hidden=8, contrastive_epochs=20)
        adj = normalize_adjacency(g)
        x = ad.constant(g.features)
        init_rng = P._stream(cfg.seed, P._STREAM_CONTRASTIVE_INIT)
        w0 = ad.parameter(glorot(init_rng, g.f, cfg.contrastive_hidden))
        w1 = ad.parameter(glorot(init_rng, cfg.contrastive_hidden, g.f))

        def reference(v):
            return ad.propagate(adj, ad.relu(ad.propagate(adj, v, w0)), w1)

        def eval_loss():
            view = _mask_features(np.random.default_rng(99), g.features, cfg.contrastive_p)
            return ad.info_nce(reference(x), reference(ad.constant(view)),
                               cfg.contrastive_beta_sim, cfg.contrastive_tau).value[0, 0]

        before = eval_loss()
        opt = ad.AdamState.for_params([w0, w1], cfg.lr)
        mask_rng = P._stream(cfg.seed, P._STREAM_CONTRASTIVE_MASK)
        for _ in range(cfg.contrastive_epochs):
            view = ad.constant(_mask_features(mask_rng, g.features, cfg.contrastive_p))
            loss = ad.info_nce(reference(x), reference(view), cfg.contrastive_beta_sim,
                               cfg.contrastive_tau)
            ad.backward(loss, opt)
            ad.adam_step(opt)
        assert np.array_equal(reference(x).value, pretrain_contrastive(g, cfg))
        assert eval_loss() < before


class TestBackwardInTraining:
    @pytest.mark.parametrize("stale", [False, True], ids=["fresh-scratch", "stale-scratch"])
    def test_epoch_tape_matches_accumulating_backward(self, stale):
        """Every parameter's gradient through one full joint-training tape
        equals that of the accumulating loop in tests/oracles.py."""
        from gclgcn import pipeline as P

        g, cfg = small_sbm(), tiny_cfg(layers=3, heads=2)
        pre = pretrain(g, cfg)
        cons = P._build_constants(g, cfg, pre["x_c"])
        state, encoded = P._init_state(g, cfg, pre, cons)
        params = state.params()
        total, _, _ = P._epoch_losses(state, cons, cfg, encoded)
        got, want = backward_pair(total, params, stale)
        for p, grad, oracle in zip(params, got, want):
            assert np.array_equal(grad, oracle), p.name

    def test_unreached_parameter_is_an_error(self):
        """A trained parameter the loss does not reach stops the first
        epoch's backward with a ValueError naming it, before any parameter
        has moved; no parameter holds a gradient array."""
        from gclgcn import pipeline as P

        x = ad.constant([[1.0, 2.0]])
        a, c = ad.parameter([[1.0, -2.0], [0.5, 3.0]]), ad.parameter([[0.0, 0.0]])
        b = ad.parameter([[0.5, 0.25], [1.0, 2.0]], name="b")
        with pytest.raises(ValueError, match=r"^backward: the loss does not reach Tensor\(b,"):
            P._pretrain("test", [a, c, b], 0.1, 2,
                        lambda: oracles.reduce_sum(oracles.square(ad.dense(x, a, c))))
        assert np.array_equal(a.value, [[1.0, -2.0], [0.5, 3.0]])
        assert np.array_equal(b.value, [[0.5, 0.25], [1.0, 2.0]])
        assert not any(oracles.arrays_beside_value(t) for t in (a, b, c))


class TestLossTotal:
    def test_components_reassemble(self):
        g = small_sbm()
        cfg = tiny_cfg(alpha=0.2, beta=0.3)
        pre = pretrain(g, cfg)
        from gclgcn import pipeline as P

        cons = P._build_constants(g, cfg, pre["x_c"])
        state, _ = P._init_state(g, cfg, pre, cons)
        total, comps = loss_total(state, g, cfg)
        want = (
            comps["L_w"] + 0.1 * (comps["L_a1"] + comps["L_a2"]) + comps["L_AE"]
            + cfg.alpha * comps["L_clu"] + cfg.beta * comps["L_con"]
        )
        assert total.value[0, 0] == pytest.approx(want, rel=1e-12)

    def test_alpha_beta_zero_reduces_to_reconstruction(self):
        g = small_sbm()
        cfg = tiny_cfg(alpha=0.0, beta=0.0)
        pre = pretrain(g, cfg)
        from gclgcn import pipeline as P

        cons = P._build_constants(g, cfg, pre["x_c"])
        state, _ = P._init_state(g, cfg, pre, cons)
        total, comps = loss_total(state, g, cfg)
        want = comps["L_w"] + 0.1 * (comps["L_a1"] + comps["L_a2"]) + comps["L_AE"]
        assert total.value[0, 0] == pytest.approx(want, rel=1e-12)

    def test_ablated_components_zero(self):
        g = small_sbm()
        for variant, dead in (("-GCN", "L_a1"), ("-Graphormer", "L_a2")):
            cfg = tiny_cfg(ablation=variant)
            pre = pretrain(g, cfg)
            from gclgcn import pipeline as P

            cons = P._build_constants(g, cfg, pre["x_c"])
            state, _ = P._init_state(g, cfg, pre, cons)
            _, comps = loss_total(state, g, cfg)
            assert comps[dead] == 0.0


class TestTrain:
    def test_distribution_invariants_every_epoch(self):
        g = small_sbm()
        cfg = tiny_cfg(epochs=5)
        seen = []

        def inspect(epoch, assignments):
            for m in (assignments.q, assignments.q_prime, assignments.p):
                assert np.all(m > 0)
                assert np.all(np.abs(m.sum(axis=1) - 1.0) <= 1e-9)
            seen.append(epoch)

        res = train(g, cfg, inspect=inspect)
        assert seen == list(range(5))
        assert all(row["L_clu"] >= 0 and row["L_con"] >= 0 for row in res.history)

    def test_deterministic_history_and_labels(self):
        g = small_sbm()
        cfg = tiny_cfg(epochs=4)
        a = train(g, cfg)
        b = train(g, cfg)
        assert a.history == b.history
        assert np.array_equal(a.labels, b.labels)

    def test_zero_epochs_labels_are_initial_argmax(self):
        g = small_sbm()
        cfg = tiny_cfg(epochs=0)
        res = train(g, cfg)
        assert res.history == []
        from gclgcn import pipeline as P

        pre = pretrain(g, cfg)
        cons = P._build_constants(g, cfg, pre["x_c"])
        state, encoded = P._init_state(g, cfg, pre, cons)
        _, _, assignments = P._epoch_losses(state, cons, cfg, encoded)
        assert np.array_equal(res.labels, assign_labels(assignments.q))

    def test_previous_epoch_tape_freed_before_next_forward(self, monkeypatch):
        from gclgcn import pipeline as P

        losses = []  # weak references to each epoch's loss value
        alive_at_assign = []
        real_backward, real_student_t = P.backward, P.student_t

        def tracking_backward(loss, state):
            losses.append(weakref.ref(loss.value))
            return real_backward(loss, state)

        def checking_student_t(*args, **kwargs):
            alive_at_assign.append(sum(ref() is not None for ref in losses))
            return real_student_t(*args, **kwargs)

        g, cfg = small_sbm(), tiny_cfg(epochs=3)
        pre = pretrain(g, cfg)
        monkeypatch.setattr(P, "backward", tracking_backward)
        monkeypatch.setattr(ad, "student_t", checking_student_t)
        monkeypatch.setattr(P, "student_t", checking_student_t)
        train(g, cfg, pretrained=pre)
        assert len(losses) == 3
        # two assignments per epoch, one for the final labels
        assert alive_at_assign == [0] * 7

    @pytest.mark.parametrize("run", [pretrain_ae, pretrain_contrastive],
                             ids=["autoencoder", "contrastive"])
    def test_pretraining_frees_each_epoch_tape_before_the_next_records(self, monkeypatch, run):
        """An inner node of epoch e's tape is dead when loss_of starts
        recording epoch e + 1, although the loop still holds epoch e's
        loss: backward released the tape, so only one tape is alive."""
        from gclgcn import pipeline as P

        real_pretrain = P._pretrain
        inner, alive = [], []

        def watching_pretrain(phase, named, lr, epochs, loss_of):
            def recording():
                alive.extend(ref() is not None for ref in inner[-1:])
                loss = loss_of()
                assert loss._parents[0]._rule is not None  # an inner node
                inner.append(weakref.ref(loss._parents[0]))
                return loss

            real_pretrain(phase, named, lr, epochs, recording)

        monkeypatch.setattr(P, "_pretrain", watching_pretrain)
        run(small_sbm(), tiny_cfg())
        assert len(inner) > 1
        assert alive == [False] * (len(inner) - 1)

    def test_evaluation_passes_skip_the_decoders(self, monkeypatch):
        """Centroid seeding and the final labels use the bottlenecks only:
        the decoders run once per epoch."""
        from gclgcn import pipeline as P

        decoded: list[str] = []
        calls = {"decoder_mse": 0}
        decode = P.Channel.decode

        def counting_decode(channel, z):
            decoded.append(channel.prefix)
            return decode(channel, z)

        def counting(attr, fn):
            def wrapper(*args, **kwargs):
                calls[attr] += 1
                return fn(*args, **kwargs)

            return wrapper

        g, cfg = small_sbm(), tiny_cfg(epochs=2)
        pre = pretrain(g, cfg)  # autoencoder pretraining decodes every epoch
        monkeypatch.setattr(P.Channel, "decode", counting_decode)
        for attr in calls:
            monkeypatch.setattr(P.ad, attr, counting(attr, getattr(P.ad, attr)))
        train(g, cfg, pretrained=pre)
        assert decoded == ["gcn", "graphormer", "ae"] * 2
        assert calls == {"decoder_mse": 4}

    @pytest.mark.parametrize("epochs", [0, 1, 3])
    def test_seeding_pass_is_epoch_zeros_encoder_pass(self, epochs, monkeypatch):
        """The centroid seeding's encoder pass feeds epoch 0, and each
        step's pass feeds the next epoch or the final labels: epochs + 1
        passes through each stack."""
        from gclgcn import pipeline as P

        g, cfg = small_sbm(), tiny_cfg(epochs=epochs)
        pre = pretrain(g, cfg)
        encoded: list[str] = []
        encode = P.Channel.encode

        def counting_encode(channel, *args, **kwargs):
            encoded.append(channel.prefix)
            return encode(channel, *args, **kwargs)

        monkeypatch.setattr(P.Channel, "encode", counting_encode)
        result = train(g, cfg, pretrained=pre)
        assert encoded == ["ae", "gcn", "graphormer"] * (epochs + 1)
        assert len(result.history) == epochs

    def test_pretrained_arrays_freed_once_copied(self):
        """train() keeps no reference to pretrained entries only it holds
        after the model has copied the arrays; x_c lives on in the model."""
        from gclgcn import pipeline as P

        g, cfg = small_sbm(), tiny_cfg(epochs=2)
        refs = []

        def handed_over():
            pre = pretrain(g, cfg)
            refs.extend(weakref.ref(arr) for arr in pre.values())  # x_c last
            return pre

        alive = []
        result = P.train(g, cfg, pretrained=handed_over(),
                         inspect=lambda epoch, _: alive.append([r() is not None for r in refs]))
        assert alive == [[False] * (len(refs) - 1) + [True]] * 2
        assert result.state.x_c is refs[-1]()

    def test_training_keeps_no_gradient_store(self, monkeypatch):
        """Backward hands every gradient to the optimizer as it finishes it:
        after training no parameter holds a gradient array, and the optimizer's
        scratch is at most three buffers (attention writes its three role
        gradients at once), none larger than the largest parameter."""
        from gclgcn import pipeline as P

        g, cfg = small_sbm(), tiny_cfg(layers=3, epochs=2)
        pre = pretrain(g, cfg)
        opts = []
        real_step = P.adam_step

        def recording_step(opt):
            opts.append(opt)
            real_step(opt)

        monkeypatch.setattr(P, "adam_step", recording_step)
        res = train(g, cfg, pretrained=pre)
        params = res.state.params()
        assert len(opts) == 2 and opts[0] is opts[1]
        assert not any(oracles.arrays_beside_value(t) for t in params)
        largest = max(t.value.size for t in params)
        assert 1 <= len(opts[0].scratch) <= 3
        assert all(buf.size <= largest for buf in opts[0].scratch)

    def test_numeric_abort_carries_the_model_state(self):
        g = small_sbm()
        cfg = tiny_cfg(epochs=2)
        pre = pretrain(g, cfg)
        pre["x_c"][0, 0] = np.nan
        with pytest.raises(NumericError, match="non-finite") as stop:
            train(g, cfg, pretrained=pre)
        assert stop.value.state is not None

    @pytest.mark.parametrize("row", [0, -1], ids=["z-row", "centrality-row"])
    def test_nonfinite_gradient_stops_before_the_step(self, monkeypatch, row):
        """A NaN in one gradient at epoch 1, in a row for z or for a
        centrality column of the stacked weight, put in as backward hands
        the gradient over, stops training before the Adam step, and the
        error carries the finite pre-step state."""
        from gclgcn import pipeline as P

        g = small_sbm()
        cfg = tiny_cfg(layers=3)
        pre = pretrain(g, cfg)
        states, pre_step = [], []
        real_init, real_backward, real_absorb = P._init_state, P.backward, ad.AdamState.absorb

        def init_state(*args):
            state, encoded = real_init(*args)
            states.append(state)
            return state, encoded

        def recording_backward(loss, state):
            pre_step.append([(name, arr.copy()) for name, arr in states[0].named_arrays()])
            real_backward(loss, state)

        def poisoned_absorb(opt, i, grad):
            if len(pre_step) == 2 and opt.params[i].name == "graphormer.enc.2.w_key":
                grad = grad.copy()
                grad[row, 1] = np.nan
            real_absorb(opt, i, grad)

        monkeypatch.setattr(P, "_init_state", init_state)
        monkeypatch.setattr(P, "backward", recording_backward)
        monkeypatch.setattr(ad.AdamState, "absorb", poisoned_absorb)
        message = r"^training: non-finite gradient of graphormer\.enc\.2\.w_key at epoch 1$"
        with pytest.raises(NumericError, match=message) as stop:
            train(g, cfg, pretrained=pre)
        saved = dict(stop.value.state.named_arrays())
        assert list(saved) == [name for name, _ in pre_step[1]]
        for name, arr in pre_step[1]:
            assert np.isfinite(saved[name]).all(), name
            assert np.array_equal(saved[name], arr), name
        # Epoch 0's step did move the parameters the state holds.
        before_epoch_0 = dict(pre_step[0])["graphormer.enc.2.w_key"]
        assert not np.array_equal(saved["graphormer.enc.2.w_key"], before_epoch_0)

    def test_gradient_stop_names_the_first_bad_parameter_backward_finished_last(
            self, monkeypatch):
        """Backward finishes the gradients in sweep order, not checkpoint
        order. With the gradients it finishes first and last poisoned at
        epoch 1, the last one coming first in checkpoint order, the message
        names that one, and the error carries the pre-step state."""
        from gclgcn import pipeline as P

        g, cfg = small_sbm(), tiny_cfg()
        pre = pretrain(g, cfg)
        states, order, pre_step = [], [], []
        real_init, real_backward, real_absorb = P._init_state, P.backward, ad.AdamState.absorb

        def init_state(*args):
            state, encoded = real_init(*args)
            states.append(state)
            return state, encoded

        def recording_backward(loss, state):
            pre_step.append([(name, arr.copy()) for name, arr in states[0].named_arrays()])
            real_backward(loss, state)

        def poisoned_absorb(opt, i, grad):
            order.append(i)
            if len(pre_step) == 2 and i in (order[0], order[len(opt.m) - 1]):
                grad = grad.copy()
                grad[0, 0] = np.inf
            real_absorb(opt, i, grad)

        monkeypatch.setattr(P, "_init_state", init_state)
        monkeypatch.setattr(P, "backward", recording_backward)
        monkeypatch.setattr(ad.AdamState, "absorb", poisoned_absorb)
        with pytest.raises(NumericError) as stop:
            train(g, cfg, pretrained=pre)
        names = [t.name for t in states[0].params()]
        first, last = order[0], order[len(names) - 1]
        assert last < first
        assert str(stop.value) == f"training: non-finite gradient of {names[last]} at epoch 1"
        assert order[len(names):] == order[:len(names)]  # every gradient was handed over
        saved = dict(stop.value.state.named_arrays())
        assert list(saved) == [name for name, _ in pre_step[1]]
        for name, arr in pre_step[1]:
            assert np.array_equal(saved[name], arr), name
        assert not np.array_equal(saved[names[last]], dict(pre_step[0])[names[last]])

    def test_training_stops_at_nonfinite_loss(self, monkeypatch):
        """A NaN centroid written by epoch 0's step makes epoch 1's
        clustering terms non-finite; the message names the phase, the epoch
        and every loss component."""
        from gclgcn import pipeline as P

        g, cfg = small_sbm(), tiny_cfg()
        pre = pretrain(g, cfg)
        real_step = P.adam_step

        def poisoned_step(opt):
            real_step(opt)
            opt.params[-1].value[0, 0] = np.nan  # the centroids come last

        monkeypatch.setattr(P, "adam_step", poisoned_step)
        num = r"[0-9.e+-]+"
        message = (
            rf"^training: non-finite loss at epoch 1: \{{'L_AE': {num}, 'L_w': {num}, "
            rf"'L_a1': {num}, 'L_a2': {num}, 'L_clu': nan, 'L_con': nan\}}$"
        )
        with pytest.raises(NumericError, match=message):
            train(g, cfg, pretrained=pre)

    @pytest.mark.parametrize("phase, run", [
        ("autoencoder pretraining", pretrain_ae),
        ("contrastive pretraining", pretrain_contrastive),
    ], ids=["autoencoder", "contrastive"])
    def test_pretraining_stops_at_nonfinite_loss(self, monkeypatch, phase, run):
        """A NaN parameter written by epoch 0's step stops the phase at epoch
        1's loss, before that epoch's backward pass, with no model state."""
        from gclgcn import pipeline as P

        real_step, real_backward = P.adam_step, P.backward
        backward_calls = []

        def poisoned_step(opt):
            real_step(opt)
            opt.params[-1].value[0, 0] = np.nan  # the last layer's, past every ReLU

        def counted_backward(loss, state):
            backward_calls.append(True)
            real_backward(loss, state)

        monkeypatch.setattr(P, "adam_step", poisoned_step)
        monkeypatch.setattr(P, "backward", counted_backward)
        with pytest.raises(NumericError, match=rf"^{phase}: non-finite loss at epoch 1$") as stop:
            run(small_sbm(), tiny_cfg())
        assert len(backward_calls) == 1
        assert stop.value.state is None

    @pytest.mark.parametrize("phase, run, first", [
        ("autoencoder pretraining", lambda g, cfg: pretrain_ae(g, cfg), "ae.enc.0.w"),
        ("contrastive pretraining",
         lambda g, cfg: pretrain_contrastive(g, cfg), "contrastive.enc.0.w"),
    ], ids=["autoencoder", "contrastive"])
    def test_pretraining_stops_at_nonfinite_gradient(self, monkeypatch, phase, run, first):
        """With every gradient poisoned at epoch 1 as backward hands it
        over, the message names the first parameter in checkpoint order."""
        from gclgcn import pipeline as P

        real_backward, real_absorb = P.backward, ad.AdamState.absorb
        calls = []

        def counted_backward(loss, state):
            calls.append(True)
            real_backward(loss, state)

        def poisoned_absorb(opt, i, grad):
            if len(calls) == 2:
                grad = grad.copy()
                grad[-1, -1] = np.inf
            real_absorb(opt, i, grad)

        monkeypatch.setattr(P, "backward", counted_backward)
        monkeypatch.setattr(ad.AdamState, "absorb", poisoned_absorb)
        message = rf"^{phase}: non-finite gradient of {first} at epoch 1$"
        with pytest.raises(NumericError, match=message):
            run(small_sbm(), tiny_cfg())
        assert len(calls) == 2

    def test_contrastive_pretraining_stops_at_nan_in_first_layer(self, monkeypatch):
        """A NaN written into contrastive.enc.0.w by epoch 0's step passes the
        ReLU after the first layer, so epoch 1's loss is non-finite."""
        from gclgcn import pipeline as P

        real_step = P.adam_step

        def poisoned_step(opt):
            real_step(opt)
            opt.params[0].value[0, 0] = np.nan  # contrastive.enc.0.w comes first

        monkeypatch.setattr(P, "adam_step", poisoned_step)
        message = r"^contrastive pretraining: non-finite loss at epoch 1$"
        with pytest.raises(NumericError, match=message):
            pretrain_contrastive(small_sbm(), tiny_cfg())

    def test_k_larger_than_n_rejected(self):
        g = small_sbm(sizes=(3, 3))
        with pytest.raises(ConfigError, match="exceeds node count"):
            train(g, tiny_cfg(k=10))

    def test_history_columns_complete(self):
        g = small_sbm()
        res = train(g, tiny_cfg(epochs=2))
        for row in res.history:
            assert set(row) == {
                "epoch", "L", "L_AE", "L_w", "L_a1", "L_a2", "L_clu", "L_con",
                "acc", "nmi", "ari", "f1",
            }


class TestAblate:
    """Ablation variants run through harness.ablation_study and train()."""

    def test_norm_equals_train(self):
        g = small_sbm()
        cfg = tiny_cfg(epochs=2)
        res = train(g, cfg)
        norm_row = ablation_study(g, cfg)[0]
        assert norm_row["variant"] == "norm"
        assert {m: norm_row[m] for m in ("acc", "nmi", "ari", "f1")} == metric_row(
            res.labels, g.labels
        )

    def test_contrastive_ablation_ignores_contrastive_settings(self):
        g = small_sbm()
        a = train(g, tiny_cfg(epochs=2, ablation="-ContrastiveLearning",
                              contrastive_p=0.1, contrastive_hidden=8, contrastive_epochs=3))
        b = train(g, tiny_cfg(epochs=2, ablation="-ContrastiveLearning",
                              contrastive_p=0.9, contrastive_hidden=16, contrastive_epochs=7))
        assert a.history == b.history
        assert np.array_equal(a.labels, b.labels)

    def test_contrastive_ablation_zeroes_pretrained_features(self):
        g = small_sbm()
        cfg = tiny_cfg(epochs=3, ablation="-ContrastiveLearning")
        pre = pretrain(g, tiny_cfg())
        assert np.any(pre["x_c"] != 0.0)
        reused = train(g, cfg, pretrained=pre)
        fresh = train(g, cfg)
        assert reused.history == fresh.history
        assert np.array_equal(reused.labels, fresh.labels)
        assert np.array_equal(reused.state.x_c, np.zeros_like(g.features))
        assert np.any(pre["x_c"] != 0.0)  # the caller's artifacts are left alone

    def test_all_variants_produce_metrics(self):
        g = small_sbm()
        rows = ablation_study(g, tiny_cfg(epochs=1))
        assert [r["variant"] for r in rows] == list(ABLATIONS)
        for row in rows:
            assert set(row) == {"dataset", "variant", "acc", "nmi", "ari", "f1"}

    def test_labels_required(self):
        g = Graph(features=np.zeros((4, 2)), edges=[(0, 1)])
        with pytest.raises(ConfigError, match="labels"):
            ablation_study(g, tiny_cfg())

    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_attention_constants_only_when_attention_runs(self, ablation, monkeypatch):
        """A train makes one centrality and one spatial-bias call through
        pipeline's bindings when the attention channel runs, and none
        without it."""
        from gclgcn import pipeline as P

        calls = []

        def counted(name):
            original = getattr(P, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        for name in ("composite_centrality", "spatial_bias"):
            monkeypatch.setattr(P, name, counted(name))
        train(small_sbm(), tiny_cfg(epochs=1, ablation=ablation))
        want = [] if ablation == "-Graphormer" else ["composite_centrality", "spatial_bias"]
        assert sorted(calls) == want


class TestChannels:
    def test_checkpoint_names_and_order(self):
        g = small_sbm()
        for ablation, groups in (
            ("norm", ["ae", "gcn", "graphormer", "centroids", "x_c"]),
            ("-GCN", ["ae", "graphormer", "centroids", "x_c"]),
            ("-Graphormer", ["ae", "gcn", "centroids", "x_c"]),
            ("-ContrastiveLearning", ["ae", "gcn", "graphormer", "centroids", "x_c"]),
        ):
            names = [name for name, _ in train(g, tiny_cfg(epochs=0, ablation=ablation))
                     .state.named_arrays()]
            prefixes = [name.split(".")[0] for name in names]
            assert prefixes == sorted(prefixes, key=groups.index)  # contiguous, in order
            assert list(dict.fromkeys(prefixes)) == groups
            if ablation == "-Graphormer":
                assert [n for n in names if n.startswith("gcn.")] == [
                    "gcn.enc.0.w", "gcn.enc.1.w", "gcn.dec.0.w", "gcn.dec.1.w",
                ]
            if ablation == "norm":
                assert [n for n in names if n.startswith("graphormer.enc.0.")] == [
                    f"graphormer.enc.0.w_{role}" for role in ("key", "query", "value")
                ]
                assert not [n for n in names if ".wc_" in n]

    def test_pretrained_x_c_must_match_graph(self):
        g = small_sbm()
        pre = pretrain(small_sbm(sizes=(6, 6)), tiny_cfg())
        with pytest.raises(ConfigError, match=r"^pre.gclc: pretraining entry 8 is "
                           r"\('x_c', \(12, 6\)\), .* need \('x_c', \(16, 6\)\)$"):
            pretrained_from_named(pre, "pre.gclc", g, tiny_cfg())

    @pytest.mark.parametrize("layers", [1, 2, 3, 4])
    @pytest.mark.parametrize("heads", [1, 2])
    def test_channels_draw_the_reference_parameters(self, layers, heads, monkeypatch):
        """Before any update, every channel's named parameters are bitwise
        the reference draws from its stream, under the same names and in
        the same order; each attention w_<role> is the reference's w_<role>
        stacked over its wc_<role>."""
        from gclgcn import pipeline as P
        from gclgcn.layers import ladder_dims

        monkeypatch.setattr(P, "AE_PRETRAIN_EPOCHS", 0)
        g = small_sbm()
        cfg = tiny_cfg(epochs=0, layers=layers, heads=heads)
        got = train(g, cfg).state.named_arrays()
        dims = ladder_dims(g.f, cfg.n_z, layers)
        cent = composite_centrality(g, cfg.centrality)
        want = [
            *ae_init_reference(P._stream(cfg.seed, P._STREAM_AE), dims),
            *gcn_init_reference(P._stream(cfg.seed, P._GRAPH_CHANNELS["gcn"][1]), dims),
            *stacked_attention(attention_init_reference(
                P._stream(cfg.seed, P._GRAPH_CHANNELS["graphormer"][1]), dims, cent.shape[1],
                heads, np.sqrt((cent**2).mean(axis=0)),
            )),
        ]
        assert [name for name, _ in got[:len(want)]] == [name for name, _ in want]
        for (name, arr), (_, ref) in zip(got, want):
            assert arr.shape == ref.shape and arr.tobytes() == ref.tobytes(), name

    def test_repeated_centrality_measure_counts_once(self):
        # the attention's centrality width is that of the centrality matrix
        g = small_sbm()
        pre = pretrain(g, tiny_cfg())
        once = train(g, tiny_cfg(epochs=1, centrality=("degree",)), pretrained=pre)
        twice = train(g, tiny_cfg(epochs=1, centrality=("degree", "degree")), pretrained=pre)
        assert twice.history == once.history

    def test_pretrained_ladder_checked(self):
        g = small_sbm()
        pre = pretrain(g, tiny_cfg(layers=1))
        with pytest.raises(ConfigError, match=r"^pre.gclc: pretraining entry 0 is "
                           r"\('ae.enc.0.w', \(6, 3\)\), but the configured ladder "
                           r"\[6, 500, 3\] and the graph need \('ae.enc.0.w', \(6, 500\)\)$"):
            pretrained_from_named(pre, "pre.gclc", g, tiny_cfg(layers=2))

    def test_pretrained_entries_kept(self):
        """The check keeps the ae.* entries and x_c, in checkpoint order and
        without copying them, and ignores every other entry."""
        g, cfg = small_sbm(), tiny_cfg(epochs=0)
        pre = pretrain(g, cfg)
        model = dict(train(g, cfg, pretrained=pre).state.named_arrays())
        kept = pretrained_from_named(model, "model.gclc", g, cfg)
        assert list(kept) == list(pre)
        assert all(kept[name] is model[name] for name in kept)
