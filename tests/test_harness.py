from dataclasses import replace

import numpy as np
import pytest

from gclgcn import harness, pipeline
from gclgcn.cluster import METRICS, metric_row
from gclgcn.config import ABLATIONS, ConfigError, ExperimentConfig
from gclgcn.graph import SbmSpec, generate_sbm
from gclgcn.harness import (
    ENCODING_VARIANTS,
    ablation_study,
    best_fusion_row,
    composite_index,
    encoding_study,
    layer_study,
    sweep_fusion,
    sweep_loss_weights,
)


def sbm(seed=2, sizes=(15, 15, 15), f=6):
    k = len(sizes)
    means = np.zeros((k, f))
    for b in range(k):
        means[b, b] = 2.5
    spec = SbmSpec(block_sizes=sizes, p_in=0.4, p_out=0.03, means=means, noise_std=0.6)
    return generate_sbm(spec, seed=seed)


def cfg(**over):
    base = dict(
        epochs=3, k=3, n_z=3, layers=2, lr=1e-3, seed=0,
        contrastive_hidden=8, contrastive_epochs=2,
    )
    base.update(over)
    return ExperimentConfig(**base)


def test_composite_index_is_metric_mean():
    row = {"acc": 0.8, "nmi": 0.6, "ari": 0.4, "f1": 0.7}
    assert composite_index(row) == pytest.approx(0.625, abs=1e-15)


def test_fusion_sweep_skips_infeasible_and_best_is_max():
    g = sbm()
    rows = sweep_fusion(g, cfg(), lambdas=(0.2, 0.8), thetas=(0.2, 0.8))
    combos = {(r["lambda"], r["theta"]) for r in rows}
    assert len(rows) == 3  # (0.8, 0.8) infeasible
    assert ("0.8", "0.8") not in combos
    best = best_fusion_row(rows)
    assert best["f1"] == max(r["f1"] for r in rows)


def test_fusion_sweep_rejects_empty_grid():
    g = sbm()
    with pytest.raises(ConfigError, match="no feasible"):
        sweep_fusion(g, cfg(), lambdas=(0.9,), thetas=(0.9,))
    with pytest.raises(ConfigError, match="nonempty"):
        sweep_loss_weights(g, cfg(), alphas=(), betas=(0.1,))


def test_loss_weight_sweep_cross_product():
    g = sbm(sizes=(8, 8), f=4)
    rows = sweep_loss_weights(g, cfg(k=2, epochs=2), alphas=(0.05, 0.1), betas=(0.1,))
    assert len(rows) == 2
    assert {r["alpha"] for r in rows} == {"0.05", "0.1"}


def test_alpha_beta_zero_matches_pure_reconstruction():
    g = sbm(sizes=(8, 8), f=4)
    c = cfg(k=2, epochs=2)
    rows = sweep_loss_weights(g, c, alphas=(0.0,), betas=(0.0,))
    from dataclasses import replace

    from gclgcn.cluster import metric_row
    from gclgcn.pipeline import train

    res = train(g, replace(c, alpha=0.0, beta=0.0))
    want = metric_row(res.labels, g.labels)
    got = {k2: rows[0][k2] for k2 in ("acc", "nmi", "ari", "f1")}
    assert got == want


def test_encoding_study_labels_and_count():
    g = sbm(sizes=(8, 8), f=4)
    rows = encoding_study(g, cfg(k=2, epochs=1))
    assert [r["variant"] for r in rows] == [
        "GCL-GCN", "DC, BC and CC + SPD", "DC + ED", "BC + ED", "CC + ED",
    ]


def test_layer_study_rows_and_depth_trend(monkeypatch):
    g = sbm(seed=4)
    c = cfg(epochs=30, lr=1e-3, seed=1)
    monkeypatch.setattr(harness, "DEPTHS", (1, 3))
    rows = layer_study(g, c)
    assert [r["variant"] for r in rows] == ["GCL-GCN-3", "GCL-GCN-1"]
    by = {r["variant"]: r for r in rows}
    assert by["GCL-GCN-3"]["f1"] >= by["GCL-GCN-1"]["f1"]


def _fusion_points(c, lambdas=(0.2, 0.5), thetas=(0.3,)):
    return [replace(c, lam=lam, theta=theta, gamma=max(1.0 - lam - theta, 0.0))
            for lam in lambdas for theta in thetas]


# Each study, called as study(graph, config), and its grid points as
# independent configs.
STUDY_POINTS = {
    "ablation": (ablation_study, lambda c: [replace(c, ablation=v) for v in ABLATIONS]),
    "encoding": (encoding_study, lambda c: [
        replace(c, centrality=measures, spatial_mode=mode)
        for _, measures, mode in ENCODING_VARIANTS
    ]),
    "layers": (layer_study, lambda c: [replace(c, layers=d) for d in (4, 3, 2, 1)]),
    "fusion": (lambda g, c: sweep_fusion(g, c, (0.2, 0.5), (0.3,)), _fusion_points),
    "loss": (lambda g, c: sweep_loss_weights(g, c, (0.05, 0.2), (0.1,)), lambda c: [
        replace(c, alpha=alpha, beta=0.1) for alpha in (0.05, 0.2)
    ]),
}

# Expected (contrastive, autoencoder) pretraining runs per study.
PRETRAIN_CALLS = {
    "ablation": (1, 1), "encoding": (1, 1), "layers": (1, 4), "fusion": (1, 1), "loss": (1, 1),
}


@pytest.mark.parametrize("name", sorted(STUDY_POINTS))
@pytest.mark.parametrize("ablation", ["norm", "-ContrastiveLearning"])
def test_study_rows_equal_independent_training(name, ablation, monkeypatch):
    """Reusing one pretraining gives every row exactly what a train() that
    pretrains on its own gives: same history, labels and parameters."""
    study, points = STUDY_POINTS[name]
    g = sbm(sizes=(8, 8), f=4)
    c = cfg(k=2, epochs=2, ablation=ablation)
    runs = []

    def recording_train(g, point, pretrained=None):
        result = pipeline.train(g, point, pretrained=pretrained)
        runs.append((point, result))
        return result

    monkeypatch.setattr(harness, "train", recording_train)
    rows = study(g, c)
    assert [point for point, _ in runs] == points(c)
    for row, (point, shared) in zip(rows, runs):
        alone = pipeline.train(g, point)
        assert shared.history == alone.history
        assert np.array_equal(shared.labels, alone.labels)
        for (na, a), (nb, b) in zip(shared.state.named_arrays(), alone.state.named_arrays()):
            assert na == nb and np.array_equal(a, b)
        assert {m: row[m] for m in METRICS} == metric_row(alone.labels, g.labels)


@pytest.mark.parametrize("name", sorted(STUDY_POINTS))
def test_study_pretrains_once(name, monkeypatch):
    study, points = STUDY_POINTS[name]
    g = sbm(sizes=(8, 8), f=4)
    calls = {"pipeline.pretrain_contrastive": 0, "pipeline.pretrain_ae": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for key in calls:
        attr = key.split(".")[1]
        wrapper = counting(key, getattr(pipeline, attr))
        # The harness calls some of them through its own binding.
        for module in (pipeline, harness):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, wrapper)
    rows = study(g, cfg(k=2, epochs=1))
    assert len(rows) == len(points(cfg()))
    contrastive, ae = PRETRAIN_CALLS[name]
    assert calls == {"pipeline.pretrain_contrastive": contrastive, "pipeline.pretrain_ae": ae}
