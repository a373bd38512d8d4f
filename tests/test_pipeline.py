import weakref

import numpy as np
import pytest

from gclgcn import autodiff as ad
from gclgcn.config import ConfigError, ContrastiveConfig, ExperimentConfig
from gclgcn.graph import Graph, SbmSpec, generate_sbm, normalize_adjacency
from gclgcn.checkpoint import load_checkpoint
from gclgcn.cluster import metric_row
from gclgcn.config import ABLATIONS
from gclgcn.harness import ablation_study
from gclgcn.pipeline import (
    NumericError,
    assign_labels,
    fuse_final,
    fused_input,
    kl_div,
    pretrain,
    pretrain_ae,
    pretrain_contrastive,
    soft_assign,
    target_distribution,
    train,
)
from gclgcn.pipeline import GraphTerms, _fusion_weights, _mask_features  # noqa: internal

from oracles import centroid_gradient, loss_total


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
        contrastive=ContrastiveConfig(hidden=8, epochs=3),
    )
    base.update(over)
    return ExperimentConfig(**base)


class TestFusion:
    def test_fused_input_weights(self):
        h = ad.constant(np.full((2, 2), 2.0))
        z = ad.constant(np.zeros((2, 2)))
        assert np.array_equal(fused_input(h, z, 0.0).value, np.zeros((2, 2)))
        assert np.array_equal(fused_input(h, z, 1.0).value, h.value)
        assert np.array_equal(fused_input(h, z, 0.5).value, np.ones((2, 2)))

    def test_fused_input_shape_mismatch(self):
        with pytest.raises(ValueError, match="fused_input"):
            fused_input(ad.constant(np.zeros((2, 2))), ad.constant(np.zeros((3, 2))), 0.5)

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


class TestSoftAssign:
    def test_single_cluster(self):
        q = soft_assign(np.random.default_rng(0).standard_normal((4, 2)), np.zeros((1, 2)))
        assert np.allclose(q.value, 1.0, atol=0)

    def test_equidistant(self):
        z = np.array([[0.0, 0.0]])
        c = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert np.allclose(soft_assign(z, c).value, [[0.5, 0.5]], atol=1e-15)

    def test_worked_example(self):
        z = np.array([[1.0, 0.0]])
        c = np.array([[1.0, 0.0], [1.0, 1.0]])
        assert np.allclose(soft_assign(z, c, t=1.0).value, [[2 / 3, 1 / 3]], atol=1e-12)

    def test_rows_stochastic_positive(self):
        rng = np.random.default_rng(1)
        q = soft_assign(rng.standard_normal((20, 4)), rng.standard_normal((5, 4)), t=2.0).value
        assert np.all(q > 0)
        assert np.all(np.abs(q.sum(axis=1) - 1.0) <= 1e-9)

    def test_requires_positive_t(self):
        with pytest.raises(ValueError, match="t must be positive"):
            soft_assign(np.zeros((2, 2)), np.zeros((2, 2)), t=0.0)


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


class TestKlDiv:
    def test_identical_zero(self):
        q = np.full((3, 2), 0.5)
        assert kl_div(q, q).value[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_near_degenerate_log2(self):
        d = 1e-12
        p = np.array([[1.0 - d, d]])
        q = np.array([[0.5, 0.5]])
        assert kl_div(p, q).value[0, 0] == pytest.approx(np.log(2), abs=1e-9)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = rng.dirichlet(np.ones(4), size=6)
            q = rng.dirichlet(np.ones(4), size=6)
            assert kl_div(p, q).value[0, 0] >= -1e-12


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
        q = soft_assign(z, c).value
        assert np.allclose(centroid_gradient(z, c, q, q), 0.0, atol=0)

    def test_matches_tape_gradient(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            z = rng.standard_normal((12, 4))
            c = ad.parameter(rng.standard_normal((3, 4)))
            q0 = soft_assign(z, c, t=1.0)
            p = target_distribution(q0.value)
            loss = kl_div(p, soft_assign(z, c, t=1.0))
            ad.zero_grad([c])
            ad.backward(loss)
            want = centroid_gradient(z, c.value, p, q0.value, t=1.0)
            assert np.max(np.abs(c.grad - want)) <= 1e-6


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
        params = pretrain_ae(g, cfg)
        from gclgcn.layers import ae_forward, ae_loss

        x = ad.constant(g.features)
        _, xhat = ae_forward(params, x)
        final = ae_loss(x, xhat).value[0, 0]
        rng_params = type(params).init(np.random.default_rng(0), [g.f, 500, cfg.n_z])
        _, xhat0 = ae_forward(rng_params, x)
        initial = ae_loss(x, xhat0).value[0, 0]
        assert final < initial

    def test_zero_features_zero_loss(self):
        g = Graph(features=np.zeros((6, 3)), edges=[(0, 1), (2, 3)])
        params = pretrain_ae(g, tiny_cfg())
        from gclgcn.layers import ae_forward, ae_loss

        x = ad.constant(g.features)
        _, xhat = ae_forward(params, x)
        assert ae_loss(x, xhat).value[0, 0] == 0.0

    def test_ae_deterministic(self):
        g = small_sbm()
        cfg = tiny_cfg()
        a = pretrain_ae(g, cfg)
        b = pretrain_ae(g, cfg)
        for (_, ta), (_, tb) in zip(a.named(), b.named()):
            assert np.array_equal(ta.value, tb.value)

    def test_degenerate_view_gives_unit_self_similarity(self):
        # p=0 keeps both views identical: cosine 1, distance 0 on the diagonal
        from gclgcn.layers import (combined_similarity,
                                   contrastive_encoder, ContrastiveParams)

        g = small_sbm()
        assert np.array_equal(
            _mask_features(np.random.default_rng(0), g.features, 0.0), g.features
        )
        adj = normalize_adjacency(g)
        params = ContrastiveParams.init(np.random.default_rng(0), g.f, 8)
        c = contrastive_encoder(adj, ad.constant(g.features), params)
        s = combined_similarity(c, c, 1.0).value
        assert np.allclose(np.diag(s), 1.0, atol=1e-9)

    def test_contrastive_deterministic_and_improves(self):
        g = small_sbm()
        cfg = tiny_cfg(contrastive=ContrastiveConfig(hidden=8, epochs=8))
        xc1 = pretrain_contrastive(g, cfg, GraphTerms(g))
        xc2 = pretrain_contrastive(g, cfg, GraphTerms(g))
        assert np.array_equal(xc1, xc2)
        assert xc1.shape == g.features.shape

    def test_contrastive_loss_improves(self):
        from gclgcn.layers import (ContrastiveParams, combined_similarity,
                                   contrastive_encoder, contrastive_loss)
        g = small_sbm()
        cfg = tiny_cfg(contrastive=ContrastiveConfig(hidden=8, epochs=20))
        adj = normalize_adjacency(g)

        def eval_loss(params):
            view = _mask_features(np.random.default_rng(99), g.features, cfg.contrastive.p)
            c1 = contrastive_encoder(adj, ad.constant(g.features), params)
            c2 = contrastive_encoder(adj, ad.constant(view), params)
            s = combined_similarity(c1, c2, cfg.contrastive.beta_sim)
            return contrastive_loss(s, cfg.contrastive.tau).value[0, 0]

        from gclgcn import pipeline as P

        init_params = ContrastiveParams.init(
            P._stream(cfg.seed, P._STREAM_CONTRASTIVE_INIT), g.f, cfg.contrastive.hidden
        )
        before = eval_loss(init_params)
        pretrain_contrastive(g, cfg, GraphTerms(g))  # determinism covered above
        # retrain manually to capture final params
        trained = ContrastiveParams.init(
            P._stream(cfg.seed, P._STREAM_CONTRASTIVE_INIT), g.f, cfg.contrastive.hidden
        )
        tensors = [trained.w0, trained.w1]
        opt = ad.AdamState.for_params(tensors, cfg.lr)
        mask_rng = P._stream(cfg.seed, P._STREAM_CONTRASTIVE_MASK)

        for _ in range(cfg.contrastive.epochs):
            ad.zero_grad(tensors)
            view = ad.constant(_mask_features(mask_rng, g.features, cfg.contrastive.p))
            c1 = contrastive_encoder(adj, ad.constant(g.features), trained)
            c2 = contrastive_encoder(adj, view, trained)
            loss = contrastive_loss(
                combined_similarity(c1, c2, cfg.contrastive.beta_sim), cfg.contrastive.tau
            )
            ad.backward(loss)
            ad.adam_step(tensors, [t.grad for t in tensors], opt)
        after = eval_loss(trained)
        assert after < before


class TestLossTotal:
    def test_components_reassemble(self):
        g = small_sbm()
        cfg = tiny_cfg(alpha=0.2, beta=0.3)
        pre = pretrain(g, cfg)
        from gclgcn import pipeline as P

        cons = P._build_constants(g, cfg, pre.x_c, GraphTerms(g))
        state = P._init_state(g, cfg, pre, cons)
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

        cons = P._build_constants(g, cfg, pre.x_c, GraphTerms(g))
        state = P._init_state(g, cfg, pre, cons)
        total, comps = loss_total(state, g, cfg)
        want = comps["L_w"] + 0.1 * (comps["L_a1"] + comps["L_a2"]) + comps["L_AE"]
        assert total.value[0, 0] == pytest.approx(want, rel=1e-12)

    def test_ablated_components_zero(self):
        g = small_sbm()
        for variant, dead in (("-GCN", "L_a1"), ("-Graphormer", "L_a2")):
            cfg = tiny_cfg(ablation=variant)
            pre = pretrain(g, cfg)
            from gclgcn import pipeline as P

            cons = P._build_constants(g, cfg, pre.x_c, GraphTerms(g))
            state = P._init_state(g, cfg, pre, cons)
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
        cons = P._build_constants(g, cfg, pre.x_c, GraphTerms(g))
        state = P._init_state(g, cfg, pre, cons)
        _, _, assignments = P._epoch_losses(state, cons, cfg)
        assert np.array_equal(res.labels, assign_labels(assignments.q))

    def test_previous_epoch_tape_freed_before_next_forward(self, monkeypatch):
        from gclgcn import pipeline as P

        losses = []  # weak references to each epoch's loss value
        alive_at_assign = []
        real_backward, real_soft_assign = P.backward, P.soft_assign

        def tracking_backward(loss):
            losses.append(weakref.ref(loss.value))
            return real_backward(loss)

        def checking_soft_assign(*args, **kwargs):
            alive_at_assign.append(sum(ref() is not None for ref in losses))
            return real_soft_assign(*args, **kwargs)

        g, cfg = small_sbm(), tiny_cfg(epochs=3)
        pre = pretrain(g, cfg)
        monkeypatch.setattr(P, "backward", tracking_backward)
        monkeypatch.setattr(P, "soft_assign", checking_soft_assign)
        train(g, cfg, pretrained=pre)
        assert len(losses) == 3
        # two assignments per epoch, one for the final labels
        assert alive_at_assign == [0] * 7

    def test_evaluation_passes_skip_the_decoders(self, monkeypatch):
        """Centroid seeding and the final labels use the bottlenecks only:
        the decoders run once per epoch."""
        from gclgcn import pipeline as P

        calls = {"ae_decode": 0, "inner_product_decode": 0}

        def counting(attr, fn):
            def wrapper(*args, **kwargs):
                calls[attr] += 1
                return fn(*args, **kwargs)

            return wrapper

        for attr in calls:
            monkeypatch.setattr(P, attr, counting(attr, getattr(P, attr)))
        train(small_sbm(), tiny_cfg(epochs=2))
        assert calls == {"ae_decode": 2, "inner_product_decode": 4}

    def test_numeric_abort_writes_checkpoint(self, tmp_path):
        g = small_sbm()
        cfg = tiny_cfg(epochs=2)
        pre = pretrain(g, cfg)
        pre.x_c[0, 0] = np.nan
        path = tmp_path / "last.gclc"
        with pytest.raises(NumericError, match="non-finite"):
            train(g, cfg, pretrained=pre, abort_path=path)
        assert path.exists()

    def test_nonfinite_gradient_stops_before_the_step(self, tmp_path, monkeypatch):
        """A NaN in one gradient at epoch 1 stops training before the Adam
        step, and the abort checkpoint holds the finite pre-step state."""
        from gclgcn import pipeline as P

        g = small_sbm()
        cfg = tiny_cfg(layers=3)
        pre = pretrain(g, cfg)
        states, pre_step = [], []
        real_init, real_backward = P._init_state, P.backward

        def init_state(*args):
            states.append(real_init(*args))
            return states[-1]

        def poisoned_backward(loss):
            real_backward(loss)
            if len(pre_step) == 1:
                dict(states[0]._named())["graphormer.enc.2.w_key"].grad[0, 1] = np.nan
            pre_step.append([(name, arr.copy()) for name, arr in states[0].named_arrays()])

        monkeypatch.setattr(P, "_init_state", init_state)
        monkeypatch.setattr(P, "backward", poisoned_backward)
        path = tmp_path / "abort.gclc"
        message = r"^training: non-finite gradient of graphormer\.enc\.2\.w_key at epoch 1$"
        with pytest.raises(NumericError, match=message):
            train(g, cfg, pretrained=pre, abort_path=path)
        saved = load_checkpoint(path)
        assert list(saved) == [name for name, _ in pre_step[1]]
        for name, arr in pre_step[1]:
            assert np.isfinite(saved[name]).all(), name
            assert np.array_equal(saved[name], arr), name
        # Epoch 0's step did move the parameters the checkpoint holds.
        before_epoch_0 = dict(pre_step[0])["graphormer.enc.2.w_key"]
        assert not np.array_equal(saved["graphormer.enc.2.w_key"], before_epoch_0)

    @pytest.mark.parametrize("phase, run, first", [
        ("autoencoder pretraining", lambda g, cfg: pretrain_ae(g, cfg), "ae.enc.0.w"),
        ("contrastive pretraining",
         lambda g, cfg: pretrain_contrastive(g, cfg, GraphTerms(g)), "contrastive.w0"),
    ], ids=["autoencoder", "contrastive"])
    def test_pretraining_stops_at_nonfinite_gradient(self, monkeypatch, phase, run, first):
        """With every gradient poisoned at epoch 1, the message names the
        first parameter in checkpoint order."""
        from gclgcn import pipeline as P

        real_backward = P.backward
        calls = []

        def poisoned_backward(loss):
            real_backward(loss)
            if calls:
                leaves, stack, seen = [], [loss], set()
                while stack:
                    t = stack.pop()
                    if id(t) not in seen:
                        seen.add(id(t))
                        leaves += [t] if t.requires_grad else []
                        stack.extend(t._parents)
                for t in leaves:
                    t.grad[-1, -1] = np.inf
            calls.append(True)

        monkeypatch.setattr(P, "backward", poisoned_backward)
        message = rf"^{phase}: non-finite gradient of {first} at epoch 1$"
        with pytest.raises(NumericError, match=message):
            run(small_sbm(), tiny_cfg())
        assert len(calls) == 2

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
                              contrastive=ContrastiveConfig(p=0.1, hidden=8, epochs=3)))
        b = train(g, tiny_cfg(epochs=2, ablation="-ContrastiveLearning",
                              contrastive=ContrastiveConfig(p=0.9, hidden=16, epochs=7)))
        assert a.history == b.history
        assert np.array_equal(a.labels, b.labels)

    def test_contrastive_ablation_zeroes_pretrained_features(self):
        g = small_sbm()
        cfg = tiny_cfg(epochs=3, ablation="-ContrastiveLearning")
        pre = pretrain(g, tiny_cfg())
        assert np.any(pre.x_c != 0.0)
        reused = train(g, cfg, pretrained=pre)
        fresh = train(g, cfg)
        assert reused.history == fresh.history
        assert np.array_equal(reused.labels, fresh.labels)
        assert np.array_equal(reused.state.x_c, np.zeros_like(g.features))
        assert np.any(pre.x_c != 0.0)  # the caller's artifacts are left alone

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
                    f"graphormer.enc.0.{kind}_{role}"
                    for role in ("key", "query", "value") for kind in ("w", "wc")
                ]

    def test_pretrained_x_c_must_match_graph(self):
        g = small_sbm()
        pre = pretrain(small_sbm(sizes=(6, 6)), tiny_cfg())
        with pytest.raises(ConfigError, match=r"x_c has shape \(12, 6\).*\(16, 6\)"):
            train(g, tiny_cfg(), pretrained=pre)

    def test_pretrained_ladder_checked(self):
        g = small_sbm()
        pre = pretrain(g, tiny_cfg(layers=1))
        with pytest.raises(ConfigError, match="configured ladder"):
            train(g, tiny_cfg(layers=2), pretrained=pre)
