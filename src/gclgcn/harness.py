"""Experiment studies and their CSV result tables: module ablations, layer
counts, encoding variants, and the fusion / loss-weight sweeps.

Each study lists its points, (row keys, config) pairs, and one row loop
trains them all. Of what a study varies, pretraining reads only the encoder
depth, so the loop pretrains the autoencoder again only when the depth
changes from one point to the next, and computes the contrastive features
once, when some point uses them. Each train() call derives the graph's
normalized adjacency, centrality and spatial bias itself: they cost
milliseconds to seconds, against seconds to an hour of training per point.
Rows hold the row keys, the four metrics and the composite index (their
mean).
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checkpoint import write_table
from .cluster import METRICS, metric_row
from .config import ABLATIONS, ConfigError, ExperimentConfig
from .graph import Graph
from .layers import DEPTHS
from .pipeline import pretrain, pretrain_contrastive, train, uses_contrastive

__all__ = [
    "DEFAULT_LOSS_WEIGHTS",
    "ENCODING_VARIANTS",
    "composite_index",
    "write_result_table",
    "ablation_study",
    "layer_study",
    "encoding_study",
    "sweep_fusion",
    "sweep_loss_weights",
    "best_fusion_row",
]

# Stock sweep values for both loss weights.
DEFAULT_LOSS_WEIGHTS = (0.01, 0.05, 0.08, 0.1, 0.12, 0.15, 0.3)

# (row label, centrality measures, spatial mode)
ENCODING_VARIANTS = (
    ("GCL-GCN", ("degree", "betweenness", "closeness"), "euclidean"),
    ("DC, BC and CC + SPD", ("degree", "betweenness", "closeness"), "shortest-path"),
    ("DC + ED", ("degree",), "euclidean"),
    ("BC + ED", ("betweenness",), "euclidean"),
    ("CC + ED", ("closeness",), "euclidean"),
)


def composite_index(row: dict) -> float:
    return sum(row[m] for m in METRICS) / len(METRICS)


def write_result_table(path: str | Path, rows: list[dict]) -> None:
    """CSV with the key columns (the first row's keys but the metrics), the
    four metrics, and the composite index, written by write_table."""
    columns = (*(col for col in rows[0] if col not in METRICS), *METRICS)
    write_table(path, [
        (*columns, "composite"),
        *((*(row[col] for col in columns), composite_index(row)) for row in rows),
    ])


def _run_points(g: Graph, points: list[tuple[dict, ExperimentConfig]]) -> list[dict]:
    """Train every (row keys, config) point in order; one row per point."""
    if g.labels is None:
        raise ConfigError("this study needs ground-truth labels")
    users = [point for _, point in points if uses_contrastive(point)]
    x_c = pretrain_contrastive(g, users[0]) if users else np.zeros_like(g.features)
    rows, depth = [], None
    for keys, point in points:
        if point.layers != depth:
            pre, depth = pretrain(g, point, x_c=x_c), point.layers
        # Keep only the labels, so no trained model outlives its row.
        labels = train(g, point, pretrained=pre).labels
        rows.append({**keys, **metric_row(labels, g.labels)})
    return rows


def ablation_study(g: Graph, cfg: ExperimentConfig, dataset: str = "dataset") -> list[dict]:
    """One row per variant: the full model and each module removed in turn.
    train() zeroes the contrastive features for the -ContrastiveLearning row."""
    return _run_points(g, [
        ({"dataset": dataset, "variant": variant}, replace(cfg, ablation=variant))
        for variant in ABLATIONS
    ])


def layer_study(g: Graph, cfg: ExperimentConfig, dataset: str = "dataset") -> list[dict]:
    """One row per encoder/decoder depth, deepest first, labelled
    GCL-GCN-<depth>."""
    return _run_points(g, [
        ({"dataset": dataset, "variant": f"GCL-GCN-{depth}"}, replace(cfg, layers=depth))
        for depth in DEPTHS[::-1]
    ])


def encoding_study(g: Graph, cfg: ExperimentConfig, dataset: str = "dataset") -> list[dict]:
    """The five standard encoding variants: the full composite with feature
    distances, the composite with hop distances, and each single measure."""
    return _run_points(g, [
        ({"dataset": dataset, "variant": label},
         replace(cfg, centrality=measures, spatial_mode=mode))
        for label, measures, mode in ENCODING_VARIANTS
    ])


def sweep_fusion(
    g: Graph,
    cfg: ExperimentConfig,
    lambdas,
    thetas,
    dataset: str = "dataset",
) -> list[dict]:
    """Grid over the first two fusion weights; the third is their complement.
    Infeasible points (negative complement) are skipped with a warning on
    stderr; a grid with no feasible point is a ConfigError, raised before any
    training."""
    points = []
    for lam in lambdas:
        for theta in thetas:
            gamma = 1.0 - lam - theta
            if gamma < -1e-9 or lam < 0 or theta < 0:
                print(f"warning: skipping infeasible grid point lambda={lam:g} theta={theta:g}",
                      file=sys.stderr)
                continue
            gamma = max(gamma, 0.0)
            keys = {"dataset": dataset, "lambda": repr(float(lam)),
                    "theta": repr(float(theta)), "gamma": repr(float(gamma))}
            points.append((keys, replace(cfg, lam=lam, theta=theta, gamma=gamma)))
    if not points:
        raise ConfigError("fusion sweep produced no feasible grid points")
    return _run_points(g, points)


def best_fusion_row(rows: list[dict]) -> dict:
    """The grid point with the highest F1 (first wins ties)."""
    return max(rows, key=lambda r: r["f1"])


def sweep_loss_weights(
    g: Graph,
    cfg: ExperimentConfig,
    alphas=DEFAULT_LOSS_WEIGHTS,
    betas=DEFAULT_LOSS_WEIGHTS,
    dataset: str = "dataset",
) -> list[dict]:
    """Full cross-product over the two loss weights."""
    if not alphas or not betas:
        raise ConfigError("loss-weight sweep needs nonempty value lists")
    return _run_points(g, [
        ({"dataset": dataset, "alpha": repr(float(alpha)), "beta": repr(float(beta))},
         replace(cfg, alpha=alpha, beta=beta))
        for alpha in alphas
        for beta in betas
    ])
