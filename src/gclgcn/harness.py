"""Experiment studies and their CSV result tables: module ablations, layer
counts, encoding variants, and the fusion / loss-weight sweeps.

Pretraining does not read what the ablation and encoding studies and the
sweeps vary, so each of them pretrains once for all its rows; the layer study
pretrains the autoencoder per depth (its ladder) and the contrastive features
once. The rows of a study share one GraphTerms, so the normalized adjacency,
the centrality and the spatial bias are computed once per (measures, mode).
Rows hold the four metrics plus the composite index (their mean).
"""

from __future__ import annotations

import csv
import logging
from dataclasses import replace
from pathlib import Path

from .checkpoint import atomic_open
from .cluster import metric_row
from .config import ABLATIONS, ConfigError, ExperimentConfig
from .graph import Graph
from .pipeline import GraphTerms, Pretrained, pretrain, train

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


def _require_labels(g: Graph) -> None:
    if g.labels is None:
        raise ConfigError("this study needs ground-truth labels")


def _run(g: Graph, cfg: ExperimentConfig, pretrained: Pretrained, terms: GraphTerms) -> dict:
    result = train(g, cfg, pretrained=pretrained, terms=terms)
    return metric_row(result.labels, g.labels)


def ablation_study(g: Graph, cfg: ExperimentConfig, dataset: str = "dataset") -> list[dict]:
    """One row per variant: the full model and each module removed in turn.
    The full model's pretraining serves every row; train() zeroes the
    contrastive features for the -ContrastiveLearning row."""
    _require_labels(g)
    pre = pretrain(g, replace(cfg, ablation="norm"))
    terms = GraphTerms(g)
    rows = []
    for variant in ABLATIONS:
        metrics = _run(g, replace(cfg, ablation=variant), pre, terms)
        rows.append({"dataset": dataset, "variant": variant, **metrics})
    return rows


def layer_study(
    g: Graph, cfg: ExperimentConfig, depths=(4, 3, 2, 1), dataset: str = "dataset"
) -> list[dict]:
    """One row per encoder/decoder depth, labelled GCL-GCN-<depth>. The
    contrastive features of the first depth serve every row."""
    _require_labels(g)
    rows = []
    x_c = None
    terms = GraphTerms(g)
    for depth in depths:
        point = replace(cfg, layers=depth)
        pre = pretrain(g, point, x_c=x_c)
        x_c = pre.x_c
        metrics = _run(g, point, pre, terms)
        rows.append({"dataset": dataset, "variant": f"GCL-GCN-{depth}", **metrics})
    return rows


def encoding_study(g: Graph, cfg: ExperimentConfig, dataset: str = "dataset") -> list[dict]:
    """The five standard encoding variants: the full composite with feature
    distances, the composite with hop distances, and each single measure."""
    _require_labels(g)
    pre = pretrain(g, cfg)
    terms = GraphTerms(g)
    rows = []
    for label, measures, mode in ENCODING_VARIANTS:
        metrics = _run(g, replace(cfg, centrality=measures, spatial_mode=mode), pre, terms)
        rows.append({"dataset": dataset, "variant": label, **metrics})
    return rows


def sweep_fusion(
    g: Graph,
    cfg: ExperimentConfig,
    lambdas,
    thetas,
    dataset: str = "dataset",
) -> list[dict]:
    """Grid over the first two fusion weights; the third is their complement.
    Infeasible points (negative complement) are skipped."""
    _require_labels(g)
    pre = pretrain(g, cfg)
    terms = GraphTerms(g)
    rows = []
    for lam in lambdas:
        for theta in thetas:
            gamma = 1.0 - lam - theta
            if gamma < -1e-9 or lam < 0 or theta < 0:
                log.info("skipping infeasible grid point lambda=%g theta=%g", lam, theta)
                continue
            gamma = max(gamma, 0.0)
            point = replace(cfg, lam=lam, theta=theta, gamma=gamma)
            metrics = _run(g, point, pre, terms)
            rows.append(
                {
                    "dataset": dataset,
                    "lambda": repr(float(lam)),
                    "theta": repr(float(theta)),
                    "gamma": repr(float(gamma)),
                    **metrics,
                }
            )
    return rows


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
    _require_labels(g)
    if not alphas or not betas:
        raise ConfigError("loss-weight sweep needs nonempty value lists")
    pre = pretrain(g, cfg)
    terms = GraphTerms(g)
    rows = []
    for alpha in alphas:
        for beta in betas:
            point = replace(cfg, alpha=alpha, beta=beta)
            metrics = _run(g, point, pre, terms)
            rows.append(
                {
                    "dataset": dataset,
                    "alpha": repr(float(alpha)),
                    "beta": repr(float(beta)),
                    **metrics,
                }
            )
    return rows
