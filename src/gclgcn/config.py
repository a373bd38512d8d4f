"""Experiment configuration: validated settings, flat key=value files, and
named presets carrying the standard per-dataset hyperparameters."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .centrality import MEASURES, SPATIAL_MODES
from .checkpoint import read_lines
from .layers import DEPTHS

__all__ = [
    "ConfigError",
    "ABLATIONS",
    "ExperimentConfig",
    "PRESETS",
    "measure_list",
    "parse_config",
    "require_dataset",
]


class ConfigError(ValueError):
    """Invalid, missing, or out-of-range configuration."""


# The full model, then each variant with the module it removes.
ABLATIONS = {"norm": None, "-GCN": "gcn", "-Graphormer": "graphormer",
             "-ContrastiveLearning": "contrastive"}


@dataclass(frozen=True)
class ExperimentConfig:
    features: str | None = None
    edges: str | None = None
    labels: str | None = None
    epochs: int = 200
    alpha: float = 0.1  # clustering-loss weight
    beta: float = 0.1  # consistency-loss weight
    n_z: int = 10
    lr: float = 1e-4
    lam: float = 0.4  # fusion weight: graph-convolution channel
    theta: float = 0.1  # fusion weight: autoencoder channel
    gamma: float = 0.5  # fusion weight: attention channel
    epsilon: float = 0.5  # injection weight of autoencoder layer outputs
    t: float = 1.0  # Student-t degrees of freedom
    k: int = 2
    seed: int = 0
    heads: int = 1
    layers: int = 4
    centrality: tuple[str, ...] = MEASURES
    # Attention sees only neighbours, so "shortest-path" is a constant bias
    # of 1 on every edge (0 on self-loops); "euclidean" uses feature distance.
    spatial_mode: str = "euclidean"
    spatial_sign: str = "+"
    contrastive_p: float = 0.3  # feature mask rate
    contrastive_tau: float = 0.5  # softmax temperature
    contrastive_beta_sim: float = 1.0  # exponent of the combined similarity
    contrastive_hidden: int = 256
    contrastive_epochs: int = 50
    ablation: str = "norm"

    def __post_init__(self):
        # Keys as a config file spells them; a nan fails every comparison.
        for key, value in (("epochs", self.epochs),
                           ("contrastive.epochs", self.contrastive_epochs)):
            if value < 0:
                raise ConfigError(f"{key} must be >= 0")
        for key, value in (("n_z", self.n_z), ("k", self.k), ("heads", self.heads),
                           ("contrastive.hidden", self.contrastive_hidden)):
            if value < 1:
                raise ConfigError(f"{key} must be >= 1")
        for key, value in (("lr", self.lr), ("t", self.t),
                           ("contrastive.tau", self.contrastive_tau),
                           ("contrastive.beta_sim", self.contrastive_beta_sim)):
            if not 0 < value < math.inf:
                raise ConfigError(f"{key} must be positive and finite, got {value!r}")
        for key, value in (("alpha", self.alpha), ("beta", self.beta), ("lambda", self.lam),
                           ("theta", self.theta), ("gamma", self.gamma)):
            if not 0 <= value < math.inf:
                raise ConfigError(f"{key} must be finite and >= 0, got {value!r}")
        for key, value in (("epsilon", self.epsilon), ("contrastive.p", self.contrastive_p)):
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{key}={value} outside [0, 1]")
        if abs(self.lam + self.theta + self.gamma - 1.0) > 1e-9:
            raise ConfigError(
                "fusion weights must sum to 1 "
                f"(lambda+theta+gamma = {self.lam + self.theta + self.gamma!r})"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.layers not in DEPTHS:
            raise ConfigError(f"layers must be one of {DEPTHS}")
        object.__setattr__(self, "centrality", tuple(self.centrality))
        bad = [m for m in self.centrality if m not in MEASURES]
        if bad or not self.centrality:
            raise ConfigError(
                f"centrality must be a nonempty subset of {MEASURES}, got {self.centrality}"
            )
        if self.spatial_mode not in SPATIAL_MODES:
            raise ConfigError(f"spatial_mode must be one of {SPATIAL_MODES}")
        if self.spatial_sign not in ("+", "-"):
            raise ConfigError("spatial_sign must be '+' or '-'")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"ablation must be one of {tuple(ABLATIONS)}")


# Stock per-dataset settings (epochs, loss weights, bottleneck width,
# learning rate, fusion weights, injection weight) plus each dataset's class
# count.
PRESETS: dict[str, dict] = {
    "acm": dict(epochs=200, alpha=0.3, beta=0.3, n_z=10, lr=5e-5,
                lam=0.4, theta=0.3, gamma=0.3, epsilon=0.5, k=3),
    "dblp": dict(epochs=200, alpha=0.08, beta=0.3, n_z=10, lr=2e-3,
                 lam=0.7, theta=0.1, gamma=0.2, epsilon=0.5, k=4),
    "citeseer": dict(epochs=200, alpha=0.3, beta=0.12, n_z=10, lr=4e-5,
                     lam=0.1, theta=0.8, gamma=0.1, epsilon=0.5, k=6),
    "cora": dict(epochs=400, alpha=0.1, beta=0.1, n_z=10, lr=1e-4,
                 lam=0.4, theta=0.1, gamma=0.5, epsilon=0.5, k=7),
    "hhar": dict(epochs=600, alpha=0.15, beta=0.05, n_z=20, lr=1e-4,
                 lam=0.1, theta=0.8, gamma=0.1, epsilon=0.5, k=6),
    "reuters": dict(epochs=200, alpha=0.3, beta=0.3, n_z=20, lr=1e-4,
                    lam=0.4, theta=0.1, gamma=0.5, epsilon=0.5, k=4),
}


def measure_list(raw: str) -> tuple[str, ...]:
    """The centrality measures of a comma list, each stripped, empty items
    dropped."""
    return tuple(m.strip() for m in raw.split(",") if m.strip())


def _path(raw: str) -> str:
    """A path value: any text but the empty one."""
    if not raw:
        raise ValueError("empty path")
    return raw


def _parser(default):
    """A file value's parser, by the type of its field's default: int and
    float parse, the centrality tuple is a measure_list, a None default (a
    path) takes any text but the empty one, and a str default takes the
    text as it is."""
    if isinstance(default, tuple):
        return measure_list
    if default is None:
        return _path
    return type(default) if isinstance(default, (int, float)) else str


# Every file key but preset, with its field's name and parser: each field of
# ExperimentConfig is keyed by its name, but lam by "lambda" and each
# contrastive_<name> by contrastive.<name>.
_KNOWN_KEYS = {
    ("lambda" if f.name == "lam" else f.name.replace("contrastive_", "contrastive.", 1)):
        (f.name, _parser(f.default))
    for f in fields(ExperimentConfig)
}


def parse_config(path: str | Path) -> ExperimentConfig:
    """Load a config from a key=value file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")

    entries: dict[str, str] = {}
    for lineno, (key, eq, raw) in read_lines(path, "config line",
                                             lambda text: text.partition("=")):
        if not eq:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, raw = key.strip(), raw.strip()
        if key != "preset" and key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = raw

    try:
        return _config_from_entries(entries)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _config_from_entries(entries: dict[str, str]) -> ExperimentConfig:
    """The preset's values, then the parsed entries over them, validated
    once as one ExperimentConfig."""
    values: dict = {}
    preset = entries.pop("preset", None)
    if preset is not None:
        if preset.lower() not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}")
        values.update(PRESETS[preset.lower()])
    for key, raw in entries.items():
        name, parse = _KNOWN_KEYS[key]
        try:
            values[name] = parse(raw)
        except ValueError:
            raise ConfigError(f"{key}: could not parse {raw!r}") from None
    return ExperimentConfig(**values)


def require_dataset(cfg: ExperimentConfig, need_labels: bool = False) -> None:
    for key in ("features", "edges") + (("labels",) if need_labels else ()):
        if getattr(cfg, key) is None:
            raise ConfigError(f"missing key: {key}")
