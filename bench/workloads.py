"""The benchmark's workloads: a planted-partition graph made from the
benchmark seed, the config file the program reads, and the CLI call that is
timed. The program only ever sees the written files."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    blocks: tuple[int, ...]  # planted block sizes
    f: int  # feature dimension
    p_in: float
    p_out: float
    mean: float  # block b's mean is `mean` (in units of sigma) on its own feature dims
    mean_dims: int  # how many feature dims carry each block's mean offset
    epochs: int  # joint-training epochs per train() call
    command: str  # "train" or "ablate"
    pretrained: bool  # run `gclgcn pretrain` during set-up, time `train --pretrained`
    min_acc: float = 0.0  # output gate on the final labels
    min_nmi: float = 0.0

    @property
    def k(self) -> int:
        return len(self.blocks)

    def paths(self, setup_dir: Path) -> dict[str, Path]:
        data = setup_dir / "data"
        return {
            "features": data / "features.csv",
            "edges": data / "edges.txt",
            "labels": data / "labels.txt",
            "config": setup_dir / "run.cfg",
            "pretrained": setup_dir / "pre",
        }

    def argv(self, setup_dir: Path, out_dir: Path) -> list[str]:
        """The timed CLI call."""
        p = self.paths(setup_dir)
        argv = [self.command, "--config", str(p["config"]), "--out", str(out_dir)]
        if self.pretrained:
            argv += ["--pretrained", str(p["pretrained"])]
        return argv

    def config_text(self, setup_dir: Path) -> str:
        """The C5 acceptance config with this workload's epoch count."""
        p = self.paths(setup_dir)
        return "".join(f"{key}={value}\n" for key, value in (
            ("features", p["features"]), ("edges", p["edges"]), ("labels", p["labels"]),
            ("epochs", self.epochs), ("k", self.k), ("n_z", 10), ("lr", 1e-4),
            ("alpha", 0.1), ("beta", 0.1), ("lambda", 0.4), ("theta", 0.1),
            ("gamma", 0.5), ("epsilon", 0.5), ("seed", 0),
        ))


# The C5 planted partition (3x50 nodes, f=16, sigma=1), with block means
# 3 sigma from the origin on one axis each. At the C5 test's 3/sqrt(2) sigma,
# short runs recover the partition on some seeds only (acc 0.58-0.99 over
# seeds 1-6 at 5 epochs), which would make acc and nmi vary more across seeds
# than any bound allows.
_C5 = dict(blocks=(50, 50, 50), f=16, p_in=0.15, p_out=0.01, mean=3.0, mean_dims=1)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("c5-train", **_C5, epochs=5, command="train", pretrained=False,
                 min_acc=0.95, min_nmi=0.85),
        # n=900: the graph-bound shape (dense n x n attention, pure-Python
        # centrality, a 100 MB checkpoint). Pretraining is set-up work.
        # Five epochs: after two, the labels depend on the seed (acc 0.85-0.99
        # over seeds 1-10 at these block means; at 0.7 sigma two seeds of ten
        # end with every node in one cluster).
        Workload("sbm900-retrain", blocks=(300, 300, 300), f=100, p_in=0.03, p_out=0.003,
                 mean=1.0, mean_dims=20, epochs=5, command="train", pretrained=True),
        Workload("c5-ablate", **_C5, epochs=2, command="ablate", pretrained=False),
    )
}


def build_inputs(w: Workload, seed: int, setup_dir: Path):
    """Generate the workload's graph from the seed and write the dataset
    files and the config; returns the graph."""
    import numpy as np

    from gclgcn.graph import SbmSpec, generate_sbm, save_graph

    means = np.zeros((w.k, w.f))
    for b in range(w.k):
        means[b, b * w.mean_dims:(b + 1) * w.mean_dims] = w.mean
    g = generate_sbm(SbmSpec(w.blocks, w.p_in, w.p_out, means, noise_std=1.0), seed)
    p = w.paths(setup_dir)
    p["features"].parent.mkdir(parents=True, exist_ok=True)
    save_graph(g, p["features"], p["edges"], p["labels"])
    p["config"].write_text(w.config_text(setup_dir))
    return g
