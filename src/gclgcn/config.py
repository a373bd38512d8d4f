"""Experiment configuration: validated settings, flat key=value files, and
named presets carrying the standard per-dataset hyperparameters."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from .centrality import MEASURES

__all__ = [
    "ConfigError",
    "ABLATIONS",
    "ContrastiveConfig",
    "ExperimentConfig",
    "PRESETS",
    "parse_config",
    "require_dataset",
]


class ConfigError(ValueError):
    """Invalid, missing, or out-of-range configuration."""


# The full model, then each module removed in turn.
ABLATIONS = ("norm", "-GCN", "-Graphormer", "-ContrastiveLearning")
_SPATIAL_MODES = ("euclidean", "shortest-path")


@dataclass(frozen=True)
class ContrastiveConfig:
    p: float = 0.3  # feature mask rate
    tau: float = 0.5  # softmax temperature
    beta_sim: float = 1.0  # exponent of the combined similarity
    hidden: int = 256
    epochs: int = 50

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"contrastive.p={self.p} outside [0, 1]")
        if self.tau <= 0:
            raise ConfigError("contrastive.tau must be positive")
        if self.beta_sim <= 0:
            raise ConfigError("contrastive.beta_sim must be positive")
        if self.hidden < 1:
            raise ConfigError("contrastive.hidden must be >= 1")
        if self.epochs < 0:
            raise ConfigError("contrastive.epochs must be >= 0")


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
    contrastive: ContrastiveConfig = field(default_factory=ContrastiveConfig)
    ablation: str = "norm"
    raw_ax_target: bool = False

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("alpha and beta must be >= 0")
        if self.n_z < 1:
            raise ConfigError("n_z must be >= 1")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if abs(self.lam + self.theta + self.gamma - 1.0) > 1e-9:
            raise ConfigError(
                "fusion weights must sum to 1 "
                f"(lambda+theta+gamma = {self.lam + self.theta + self.gamma!r})"
            )
        if min(self.lam, self.theta, self.gamma) < 0:
            raise ConfigError("fusion weights must be >= 0")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError(f"epsilon={self.epsilon} outside [0, 1]")
        if self.t <= 0:
            raise ConfigError("t must be positive")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.heads < 1:
            raise ConfigError("heads must be >= 1")
        if self.layers not in (1, 2, 3, 4):
            raise ConfigError("layers must be 1, 2, 3, or 4")
        object.__setattr__(self, "centrality", tuple(self.centrality))
        bad = [m for m in self.centrality if m not in MEASURES]
        if bad or not self.centrality:
            raise ConfigError(
                f"centrality must be a nonempty subset of {MEASURES}, got {self.centrality}"
            )
        if self.spatial_mode not in _SPATIAL_MODES:
            raise ConfigError(f"spatial_mode must be one of {_SPATIAL_MODES}")
        if self.spatial_sign not in ("+", "-"):
            raise ConfigError("spatial_sign must be '+' or '-'")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"ablation must be one of {ABLATIONS}")


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

_INT_KEYS = {"epochs", "n_z", "k", "seed", "heads", "layers"}
_FLOAT_KEYS = {"alpha", "beta", "lr", "lambda", "theta", "gamma", "epsilon", "t"}
_PATH_KEYS = {"features", "edges", "labels"}
_CONTRASTIVE_INT = {"hidden", "epochs"}
_CONTRASTIVE_FLOAT = {"p", "tau", "beta_sim"}
_KNOWN_KEYS = (
    {"preset", "centrality", "spatial_mode", "spatial_sign", "ablation", "raw_ax_target"}
    | _INT_KEYS
    | _FLOAT_KEYS
    | _PATH_KEYS
    | {f"contrastive.{k}" for k in _CONTRASTIVE_INT | _CONTRASTIVE_FLOAT}
)


def _preset_config(name: str) -> ExperimentConfig:
    return ExperimentConfig(**PRESETS[name.lower()])


def _parse_bool(key: str, raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def parse_config(source: str | Path) -> ExperimentConfig:
    """Load a config from a key=value file, or resolve a bare preset name."""
    if isinstance(source, str) and source.lower() in PRESETS and not Path(source).exists():
        return _preset_config(source)
    path = Path(source)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")

    entries: dict[str, str] = {}
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in _KNOWN_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in entries:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            entries[key] = raw

    try:
        return _config_from_entries(entries)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _config_from_entries(entries: dict[str, str]) -> ExperimentConfig:
    preset = entries.pop("preset", None)
    if preset is not None:
        if preset.lower() not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}")
        cfg = _preset_config(preset)
    else:
        cfg = ExperimentConfig()

    fields: dict = {}
    contrastive: dict = {}
    for key, raw in entries.items():
        try:
            if key in _INT_KEYS:
                fields[key] = int(raw)
            elif key in _FLOAT_KEYS:
                fields["lam" if key == "lambda" else key] = float(raw)
            elif key in _PATH_KEYS:
                fields[key] = raw
            elif key == "centrality":
                fields[key] = tuple(m.strip() for m in raw.split(",") if m.strip())
            elif key in ("spatial_mode", "spatial_sign", "ablation"):
                fields[key] = raw
            elif key == "raw_ax_target":
                fields[key] = _parse_bool(key, raw)
            elif key.startswith("contrastive."):
                sub = key.split(".", 1)[1]
                contrastive[sub] = int(raw) if sub in _CONTRASTIVE_INT else float(raw)
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"{key}: could not parse {raw!r}") from None

    if contrastive:
        fields["contrastive"] = replace(cfg.contrastive, **contrastive)
    return replace(cfg, **fields)


def require_dataset(cfg: ExperimentConfig, need_labels: bool = False) -> None:
    for key in ("features", "edges") + (("labels",) if need_labels else ()):
        if getattr(cfg, key) is None:
            raise ConfigError(f"missing key: {key}")
