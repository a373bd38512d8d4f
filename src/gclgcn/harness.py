"""Experiment studies and their CSV result tables: module ablations, layer
counts, encoding variants, and the fusion / loss-weight sweeps.

Each study lists its points, (row keys, config) pairs, and one row loop
trains them all. Of what a study varies, pretraining reads only the encoder
depth, so the loop pretrains the autoencoder again only when the depth
changes from one point to the next, and computes the contrastive features
once, when some point uses them. The points share one GraphTerms, so the
normalized adjacency is computed once, and the centrality and the spatial
bias once per (measures, mode). Rows hold the row keys, the four metrics and
the composite index (their mean).
"""

from __future__ import annotations

import csv
import logging
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checkpoint import atomic_open
from .cluster import metric_row
from .config import ABLATIONS, ConfigError, ExperimentConfig
from .graph import Graph
from .pipeline import GraphTerms, pretrain, pretrain_contrastive, train, uses_contrastive

__all__ = [
    "METRIC_COLUMNS",
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

log = logging.getLogger(__name__)

METRIC_COLUMNS = ("acc", "nmi", "ari", "f1")

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
    return (row["acc"] + row["nmi"] + row["ari"] + row["f1"]) / 4.0


def write_result_table(path: str | Path, rows: list[dict], key_columns: tuple[str, ...]) -> None:
    """CSV with the key columns, the four metrics, and the composite index,
    written atomically. Cells containing commas (some variant labels do) are
    quoted."""
    columns = (*key_columns, *METRIC_COLUMNS, "composite")
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            cells = []
            for col in columns:
                if col == "composite":
                    cells.append("%.17g" % composite_index(row))
                elif col in METRIC_COLUMNS:
                    cells.append("%.17g" % row[col])
                else:
                    cells.append(str(row[col]))
            writer.writerow(cells)


def _run_points(g: Graph, points: list[tuple[dict, ExperimentConfig]]) -> list[dict]:
    """Train every (row keys, config) point in order; one row per point."""
    if g.labels is None:
        raise ConfigError("this study needs ground-truth labels")
    terms = GraphTerms(g)
    users = [point for _, point in points if uses_contrastive(point)]
    x_c = pretrain_contrastive(g, users[0], terms) if users else np.zeros_like(g.features)
    rows, depth = [], None
    for keys, point in points:
        if point.layers != depth:
            pre, depth = pretrain(g, point, x_c=x_c), point.layers
        # Keep only the labels, so no trained model outlives its row.
        labels = train(g, point, pretrained=pre, terms=terms).labels
        rows.append({**keys, **metric_row(labels, g.labels)})
    return rows


def ablation_study(g: Graph, cfg: ExperimentConfig, dataset: str = "dataset") -> list[dict]:
    """One row per variant: the full model and each module removed in turn.
    train() zeroes the contrastive features for the -ContrastiveLearning row."""
    return _run_points(g, [
        ({"dataset": dataset, "variant": variant}, replace(cfg, ablation=variant))
        for variant in ABLATIONS
    ])


def layer_study(
    g: Graph, cfg: ExperimentConfig, depths=(4, 3, 2, 1), dataset: str = "dataset"
) -> list[dict]:
    """One row per encoder/decoder depth, labelled GCL-GCN-<depth>."""
    return _run_points(g, [
        ({"dataset": dataset, "variant": f"GCL-GCN-{depth}"}, replace(cfg, layers=depth))
        for depth in depths
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
    Infeasible points (negative complement) are skipped."""
    points = []
    for lam in lambdas:
        for theta in thetas:
            gamma = 1.0 - lam - theta
            if gamma < -1e-9 or lam < 0 or theta < 0:
                log.info("skipping infeasible grid point lambda=%g theta=%g", lam, theta)
                continue
            gamma = max(gamma, 0.0)
            keys = {"dataset": dataset, "lambda": repr(float(lam)),
                    "theta": repr(float(theta)), "gamma": repr(float(gamma))}
            points.append((keys, replace(cfg, lam=lam, theta=theta, gamma=gamma)))
    return _run_points(g, points)


def best_fusion_row(rows: list[dict]) -> dict:
    """The grid point with the highest F1 (first wins ties)."""
    if not rows:
        raise ConfigError("fusion sweep produced no feasible grid points")
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
