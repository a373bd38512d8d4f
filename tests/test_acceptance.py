"""Acceptance suite: every gate criterion, each printing one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import os
import time

import numpy as np
import pytest

from gclgcn import autodiff as ad
from gclgcn.centrality import (
    betweenness_centrality,
    closeness_centrality,
    composite_centrality,
    degree_centrality,
    spatial_bias,
)
from gclgcn.cluster import accuracy, ari, f1_macro, kmeans, metric_row, nmi
from gclgcn.config import ContrastiveConfig, ExperimentConfig
from gclgcn.graph import Graph, SbmSpec, generate_sbm, normalize_adjacency
from gclgcn.layers import (
    AEParams,
    ContrastiveParams,
    GcnParams,
    GraphormerParams,
    ae_forward,
    ae_loss,
    combined_similarity,
    contrastive_encoder,
    contrastive_loss,
    gcn_layer,
    graphormer_layer,
)
from gclgcn import pipeline as P

from oracles import (
    betweenness_reference,
    brute_force_accuracy,
    centroid_gradient,
    closeness_reference,
    degree_reference,
    finite_difference_check,
    random_er_graph,
)


def _report(name: str, ok: bool, elapsed: float, detail: str = "") -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name} ({elapsed:.1f}s) {detail}".rstrip())


# --------------------------------------------------------------------------
# Criterion 1: centrality oracle
# --------------------------------------------------------------------------

def test_c1_centrality_oracle():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for case in range(100):
        n = int(rng.integers(3, 51))
        p = float(rng.choice([0.1, 0.3, 0.6]))
        edges = random_er_graph(n, p, rng)
        g = Graph(features=np.zeros((n, 1)), edges=edges)
        diff = np.abs(betweenness_centrality(g) - betweenness_reference(n, edges))
        worst = max(worst, float(diff.max()) if diff.size else 0.0)
        assert diff.max() <= 1e-9, f"case {case}: betweenness off by {diff.max()}"
        assert np.array_equal(degree_centrality(g), degree_reference(n, edges))
        assert np.allclose(
            closeness_centrality(g), closeness_reference(n, edges), atol=1e-12, rtol=0
        )
    elapsed = time.time() - start
    ok = elapsed < 30
    _report("C1 centrality oracle (100 graphs)", ok, elapsed, f"max dev {worst:.2e}")
    assert ok, f"runtime {elapsed:.1f}s exceeds 30s"


# --------------------------------------------------------------------------
# Criterion 2: gradient suite
# --------------------------------------------------------------------------

def _tiny_graph(rng, n=5, f=4, p=0.6):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(features=rng.standard_normal((n, f)), edges=edges)


def _manual_state(rng, g, dims, k):
    cent = composite_centrality(g)
    scale = np.sqrt((cent**2).mean(axis=0))
    state = P.ModelState(
        ae=AEParams.init(rng, dims),
        channels=[
            P.Channel.gcn(GcnParams.init(rng, dims)),
            P.Channel.attention(GraphormerParams.init(rng, dims, 3, 1, cent_scale=scale)),
        ],
        centroids=ad.parameter(rng.standard_normal((k, dims[-1]))),
        x_c=0.1 * rng.standard_normal(g.features.shape),
    )
    return state


def test_c2_gradient_suite():
    start = time.time()
    worst = {"ae": 0.0, "gcn": 0.0, "graphormer": 0.0, "contrastive": 0.0, "composite": 0.0}

    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        params = AEParams.init(rng, [6, 7, 4])
        x = ad.constant(rng.standard_normal((7, 6)))
        tensors = [t for _, t in params.named()]
        err = finite_difference_check(
            lambda _: ae_loss(x, ae_forward(params, x)[1]), tensors
        )
        worst["ae"] = max(worst["ae"], err)

    for seed in range(10):
        rng = np.random.default_rng(400 + seed)
        g = _tiny_graph(rng, n=6)
        adj = normalize_adjacency(g)
        w = ad.parameter(rng.standard_normal((g.f, 3)))
        target = ad.constant(rng.standard_normal((g.n, 3)))
        err = finite_difference_check(
            lambda _: ad.mse(gcn_layer(adj, ad.constant(g.features), w), target), [w]
        )
        worst["gcn"] = max(worst["gcn"], err)

    for seed in range(10):
        rng = np.random.default_rng(500 + seed)
        g = _tiny_graph(rng, n=5)
        cent = composite_centrality(g)
        scale = np.sqrt((cent**2).mean(axis=0))
        lp = GraphormerParams.init(rng, [g.f, 3], 3, 1, cent_scale=scale).enc[0]
        cent_c = ad.constant(cent)
        adj = normalize_adjacency(g)
        bias = spatial_bias(g)
        tensors = [lp.w_key, lp.w_query, lp.w_value, lp.wc_key, lp.wc_query, lp.wc_value]
        target = ad.constant(rng.standard_normal((g.n, 3)))
        err = finite_difference_check(
            lambda _: ad.mse(
                graphormer_layer(ad.constant(g.features), cent_c, adj, bias, lp, 1), target
            ),
            tensors,
        )
        worst["graphormer"] = max(worst["graphormer"], err)

    checked = 0
    seed = 0
    while checked < 10 and seed < 40:
        rng = np.random.default_rng(600 + seed)
        seed += 1
        g = _tiny_graph(rng, n=5)
        adj = normalize_adjacency(g)
        params = ContrastiveParams.init(rng, g.f, 5)
        view = ad.constant(P._mask_features(np.random.default_rng(seed), g.features, 0.3))
        c1 = contrastive_encoder(adj, ad.constant(g.features), params).value
        c2 = contrastive_encoder(adj, view, params).value
        d2 = ((c1[:, None, :] - c2[None, :, :]) ** 2).sum(-1)
        if d2.min() < 1e-6:  # finite differences need a differentiable point
            continue

        def floss(_):
            a = contrastive_encoder(adj, ad.constant(g.features), params)
            b = contrastive_encoder(adj, view, params)
            return contrastive_loss(combined_similarity(a, b, 1.0), 0.5)

        err = finite_difference_check(floss, [params.w0, params.w1])
        worst["contrastive"] = max(worst["contrastive"], err)
        checked += 1
    assert checked >= 10

    for seed in range(10):
        rng = np.random.default_rng(700 + seed)
        g = _tiny_graph(rng, n=6, f=5)
        cfg = ExperimentConfig(k=2, n_z=3, alpha=0.3, beta=0.2, seed=0)
        state = _manual_state(rng, g, [5, 6, 3], 2)
        cons = P._build_constants(g, cfg, state.x_c, P.GraphTerms(g))
        _, _, assignments0 = P._epoch_losses(state, cons, cfg)
        p_fixed = P.target_distribution(assignments0.q)
        params = state.trainable()
        err = finite_difference_check(
            lambda _: P._epoch_losses(state, cons, cfg, p_fixed=p_fixed)[0], params
        )
        worst["composite"] = max(worst["composite"], err)

    elapsed = time.time() - start
    ok = all(v <= 1e-4 for v in worst.values()) and elapsed < 120
    detail = " ".join(f"{k}={v:.1e}" for k, v in worst.items())
    _report("C2 gradient suite (>=10 seeds each)", ok, elapsed, detail)
    assert all(v <= 1e-4 for v in worst.values()), detail
    assert elapsed < 120, f"runtime {elapsed:.1f}s exceeds 2min"


# --------------------------------------------------------------------------
# Criterion 3: analytic centroid gradient vs tape
# --------------------------------------------------------------------------

def test_c3_centroid_gradient_crosscheck():
    start = time.time()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(800 + seed)
        z = rng.standard_normal((30, 5))
        c = ad.parameter(rng.standard_normal((4, 5)))
        q0 = P.soft_assign(z, c, t=1.0)
        p = P.target_distribution(q0.value)
        ad.zero_grad([c])
        ad.backward(P.kl_div(p, P.soft_assign(z, c, t=1.0)))
        want = centroid_gradient(z, c.value, p, q0.value, t=1.0)
        worst = max(worst, float(np.max(np.abs(c.grad - want))))
    elapsed = time.time() - start
    ok = worst <= 1e-6
    _report("C3 centroid-gradient cross-check (20 seeds)", ok, elapsed, f"max dev {worst:.1e}")
    assert ok, f"max deviation {worst}"


# --------------------------------------------------------------------------
# Criterion 4: distribution invariants over a 50-epoch run
# --------------------------------------------------------------------------

def test_c4_distribution_invariants():
    start = time.time()
    means = np.zeros((3, 8))
    for b in range(3):
        means[b, b] = 2.0
    spec = SbmSpec(block_sizes=(20, 20, 20), p_in=0.25, p_out=0.02,
                   means=means, noise_std=0.5)
    g = generate_sbm(spec, seed=1)
    cfg = ExperimentConfig(
        epochs=50, k=3, n_z=5, layers=3, lr=1e-4, seed=0,
        contrastive=ContrastiveConfig(hidden=32, epochs=20),
    )
    epochs_seen = []

    def inspect(epoch, assignments):
        for m in (assignments.q, assignments.q_prime, assignments.p):
            assert np.all(m > 0)
            assert np.max(np.abs(m.sum(axis=1) - 1.0)) <= 1e-9
        epochs_seen.append(epoch)

    res = P.train(g, cfg, inspect=inspect)
    assert epochs_seen == list(range(50))
    assert all(row["L_clu"] >= 0.0 for row in res.history)
    assert all(row["L_con"] >= 0.0 for row in res.history)

    # analytic centroid gradient matches the tape at this run's first epoch
    pre = P.pretrain(g, cfg)
    cons = P._build_constants(g, cfg, pre.x_c, P.GraphTerms(g))
    state = P._init_state(g, cfg, pre, cons)
    hs, _, outs = P._forward_channels(state, cons, cfg)
    fused = P.fuse_final(
        [(cfg.lam, outs["gcn"][0]), (cfg.theta, hs[-1]), (cfg.gamma, outs["graphormer"][0])],
        cons.adj,
    )
    q = P.soft_assign(fused, state.centroids, cfg.t)
    p0 = P.target_distribution(q.value)
    ad.zero_grad([state.centroids])
    ad.backward(P.kl_div(p0, q))
    want = centroid_gradient(fused.value, state.centroids.value, p0, q.value, t=cfg.t)
    assert np.max(np.abs(state.centroids.grad - want)) <= 1e-6

    # argmax(P) == argmax(Q) whenever the column frequencies are equalized
    rng = np.random.default_rng(5)
    base = rng.dirichlet(np.ones(4), size=12)
    q = np.vstack([base[:, np.roll(np.arange(4), s)] for s in range(4)])
    p = P.target_distribution(q)
    assert np.array_equal(p.argmax(axis=1), q.argmax(axis=1))

    elapsed = time.time() - start
    _report("C4 distribution invariants (50-epoch run)", True, elapsed)


# --------------------------------------------------------------------------
# Criterion 5: end-to-end synthetic recovery
# --------------------------------------------------------------------------

def test_c5_end_to_end_recovery():
    start = time.time()
    sigma = 1.0
    k, f = 3, 16
    means = np.zeros((k, f))
    for b in range(k):
        means[b, b] = 3.0 * sigma / np.sqrt(2.0)  # pairwise separation 3 sigma
    spec = SbmSpec(block_sizes=(50, 50, 50), p_in=0.15, p_out=0.01,
                   means=means, noise_std=sigma)
    g = generate_sbm(spec, seed=42)
    cfg = ExperimentConfig(
        epochs=200, k=3, n_z=10, lr=1e-4, alpha=0.1, beta=0.1,
        lam=0.4, theta=0.1, gamma=0.5, epsilon=0.5, seed=0,
    )
    res = P.train(g, cfg)
    m = metric_row(res.labels, g.labels)
    elapsed = time.time() - start
    ok = m["acc"] >= 0.95 and m["nmi"] >= 0.85 and m["ari"] >= 0.85 and elapsed < 300
    _report(
        "C5 end-to-end synthetic recovery", ok, elapsed,
        f"acc={m['acc']:.4f} nmi={m['nmi']:.4f} ari={m['ari']:.4f}",
    )
    assert m["acc"] >= 0.95, m
    assert m["nmi"] >= 0.85, m
    assert m["ari"] >= 0.85, m
    assert elapsed < 300, f"runtime {elapsed:.1f}s exceeds 5min"


# --------------------------------------------------------------------------
# Criterion 6: metrics oracle
# --------------------------------------------------------------------------

def test_c6_metrics_oracle():
    start = time.time()
    rng = np.random.default_rng(77)
    for _ in range(1000):
        n = int(rng.integers(2, 41))
        k = int(rng.integers(1, 7))
        pred = rng.integers(0, k, n)
        truth = rng.integers(0, k, n)
        assert accuracy(pred, truth) == pytest.approx(
            brute_force_accuracy(pred, truth), abs=1e-12
        )

    vals = [ari(rng.integers(0, 3, 60), rng.integers(0, 3, 60)) for _ in range(1000)]
    mean_abs = abs(float(np.mean(vals)))
    assert mean_abs <= 0.05

    ident = rng.integers(0, 4, 50)
    relabeled = (ident + 1) % 4
    assert accuracy(relabeled, ident) == 1.0
    assert nmi(relabeled, ident) == 1.0
    assert ari(relabeled, ident) == 1.0
    assert f1_macro(relabeled, ident) == 1.0

    elapsed = time.time() - start
    _report("C6 metrics oracle (1000+1000 cases)", True, elapsed, f"mean|ARI|={mean_abs:.3f}")


# --------------------------------------------------------------------------
# Criterion 7: harness schemas, byte-reproducible
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def schema_setup(tmp_path_factory):
    from gclgcn.cli import run
    from gclgcn.graph import load_graph

    data = tmp_path_factory.mktemp("schema_data")
    assert run([
        "gen-sbm", "--blocks", "10,10", "--p-in", "0.6", "--p-out", "0.05",
        "--dim", "5", "--sep", "2.5", "--noise", "0.5", "--seed", "3",
        "--out", str(data),
    ]) == 0
    cfg = tmp_path_factory.mktemp("schema_cfg") / "tiny.cfg"
    cfg.write_text(
        f"features={data / 'features.csv'}\n"
        f"edges={data / 'edges.txt'}\n"
        f"labels={data / 'labels.txt'}\n"
        "epochs=2\nk=2\nn_z=3\nlayers=1\nlr=1e-3\nseed=2\n"
        "contrastive.hidden=8\ncontrastive.epochs=2\n"
    )
    return cfg


def test_c7_harness_schemas(schema_setup, tmp_path):
    import csv

    from gclgcn.cli import run

    start = time.time()
    cfg = schema_setup

    def rows_of(path):
        with open(path) as fh:
            return list(csv.reader(fh))

    for name, args, want_variants in (
        ("ablate", ["ablate"], ["norm", "-GCN", "-Graphormer", "-ContrastiveLearning"]),
        ("encodings", ["encodings"],
         ["GCL-GCN", "DC, BC and CC + SPD", "DC + ED", "BC + ED", "CC + ED"]),
    ):
        out_a, out_b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert run(args + ["--config", str(cfg), "--out", str(out_a)]) == 0
        assert run(args + ["--config", str(cfg), "--out", str(out_b)]) == 0
        rows = rows_of(out_a / "results.csv")
        assert rows[0] == ["dataset", "variant", "acc", "nmi", "ari", "f1", "composite"]
        assert [r[1] for r in rows[1:]] == want_variants
        assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()

    out_a, out_b = tmp_path / "loss_a", tmp_path / "loss_b"
    for out in (out_a, out_b):
        assert run(["sweep", "--grid", "loss", "--config", str(cfg), "--out", str(out)]) == 0
    rows = rows_of(out_a / "results.csv")
    assert len(rows) - 1 == 49  # stock 7x7 value grid
    alphas = sorted({float(r[1]) for r in rows[1:]})
    assert alphas == [0.01, 0.05, 0.08, 0.1, 0.12, 0.15, 0.3]
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()

    elapsed = time.time() - start
    _report("C7 harness schemas byte-reproducible", True, elapsed)


# --------------------------------------------------------------------------
# Criterion 8 (optional/stretch): real-data sanity run
# --------------------------------------------------------------------------

def test_c8_cora_sanity_stretch():
    data_dir = os.environ.get("GCLGCN_CORA_DIR")
    if not data_dir:
        _report("C8 cora sanity (stretch)", True, 0.0,
                "SKIP: set GCLGCN_CORA_DIR to features.csv/edges.txt/labels.txt dir")
        pytest.skip("optional stretch run; dataset not shipped")
    from gclgcn.config import parse_config
    from gclgcn.graph import load_graph
    from dataclasses import replace
    import pathlib

    start = time.time()
    d = pathlib.Path(data_dir)
    g = load_graph(d / "features.csv", d / "edges.txt", d / "labels.txt")
    cfg = parse_config("cora")
    res = P.train(g, cfg)
    m = metric_row(res.labels, g.labels)
    elapsed = time.time() - start
    _report("C8 cora sanity (stretch)", m["acc"] >= 0.60, elapsed, f"acc={m['acc']:.4f}")
    # recorded, not gated: reference results depend on unspecified details
