"""Experiment studies and their CSV result tables: module ablations, layer
counts, encoding variants, and the fusion / loss-weight sweeps.

Each study lists its points, (row keys, config) pairs, and one row loop
trains them all. Of what a study varies, pretraining reads only the encoder
depth, so the loop pretrains the autoencoder again only when the depth
changes from one point to the next, and computes the contrastive features
once, when some point uses them. Each train() call derives the graph's
normalized adjacency, centrality and spatial bias itself. The centrality
took 1.88 s a call at the Cora shape and 23.9 s at n=10000 on 2 cores
(ROADMAP.md, "Where things stand"): about 20 min of a 49-point sweep at
n=10000. Rows hold only the study's keys and the four metrics.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from pathlib import Path

from .checkpoint import write_table
from .cluster import METRICS, metric_row
from .config import ABLATIONS, ConfigError, ExperimentConfig
from .graph import Graph
from .layers import DEPTHS
from .pipeline import pretrain, pretrain_contrastive, train

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
    users = [point for _, point in points if point.contrastive]
    x_c = pretrain_contrastive(g, users[0]) if users else None
    rows, depth = [], None
    for keys, point in points:
        if point.layers != depth:
            pre, depth = pretrain(g, point, x_c=x_c), point.layers
        # Keep only the labels, so no trained model outlives its row.
        labels = train(g, point, pretrained=pre).labels
        rows.append({**keys, **metric_row(labels, g.labels)})
    return rows


def ablation_study(g: Graph, cfg: ExperimentConfig) -> list[dict]:
    """One row per variant: the full model and each module removed in turn,
    every variant's config built, and so validated, before any row trains.
    train() zeroes the contrastive features where the variant removes them."""
    return _run_points(g, [
        ({"variant": variant}, replace(cfg, ablation=variant))
        for variant in ABLATIONS
    ])


def layer_study(g: Graph, cfg: ExperimentConfig) -> list[dict]:
    """One row per encoder/decoder depth, deepest first, labelled
    GCL-GCN-<depth>."""
    return _run_points(g, [
        ({"variant": f"GCL-GCN-{depth}"}, replace(cfg, layers=depth))
        for depth in DEPTHS[::-1]
    ])


def encoding_study(g: Graph, cfg: ExperimentConfig) -> list[dict]:
    """The five standard encoding variants: the full composite with feature
    distances, the composite with hop distances, and each single measure."""
    return _run_points(g, [
        ({"variant": label}, replace(cfg, centrality=measures, spatial_mode=mode))
        for label, measures, mode in ENCODING_VARIANTS
    ])


def sweep_fusion(g: Graph, cfg: ExperimentConfig, lambdas, thetas) -> list[dict]:
    """Grid over the first two fusion weights; the third is their complement.
    A point the config rejects (a negative weight, or none left above 0 by
    the ablation) is infeasible and skipped with a warning on stderr; a grid
    with no feasible point is a ConfigError, raised before any training."""
    points = []
    for lam in lambdas:
        for theta in thetas:
            gamma = 1.0 - lam - theta
            try:  # a complement within rounding of 0 is 0
                point = replace(cfg, lam=lam, theta=theta,
                                gamma=0.0 if -1e-9 <= gamma < 0 else gamma)
            except ConfigError:
                if math.isnan(lam) or math.isnan(theta):  # bad input, not a grid point
                    raise
                print(f"warning: skipping infeasible grid point lambda={lam:g} theta={theta:g}",
                      file=sys.stderr)
                continue
            keys = {"lambda": repr(float(lam)), "theta": repr(float(theta)),
                    "gamma": repr(float(point.gamma))}
            points.append((keys, point))
    if not points:
        raise ConfigError("fusion sweep produced no feasible grid points")
    return _run_points(g, points)


def best_fusion_row(rows: list[dict]) -> dict:
    """The grid point with the highest F1 (first wins ties)."""
    return max(rows, key=lambda r: r["f1"])


def sweep_loss_weights(
    g: Graph, cfg: ExperimentConfig, alphas=DEFAULT_LOSS_WEIGHTS, betas=DEFAULT_LOSS_WEIGHTS
) -> list[dict]:
    """Full cross-product over the two loss weights."""
    if not alphas or not betas:
        raise ConfigError("loss-weight sweep needs nonempty value lists")
    return _run_points(g, [
        ({"alpha": repr(float(alpha)), "beta": repr(float(beta))},
         replace(cfg, alpha=alpha, beta=beta))
        for alpha in alphas
        for beta in betas
    ])
