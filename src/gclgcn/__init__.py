"""Attributed-graph clustering with centrality-encoded graph attention,
contrastive pretraining, and dual self-supervised KL training."""

from .config import ConfigError, ExperimentConfig, parse_config
from .graph import Graph, SbmSpec, generate_sbm, load_graph, normalize_adjacency
from .pipeline import NumericError, TrainResult, train

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "Graph",
    "SbmSpec",
    "generate_sbm",
    "load_graph",
    "normalize_adjacency",
    "NumericError",
    "TrainResult",
    "train",
]

__version__ = "0.1.0"
