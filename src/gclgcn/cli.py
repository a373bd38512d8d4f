"""Command-line harness: dataset generation, centrality dumps, pretraining,
training, and the experiment studies, all writing reproducible text outputs.

Exit codes: 0 success, 1 configuration/usage error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import harness
from .centrality import MEASURES, composite_centrality
from .checkpoint import load_checkpoint, save_checkpoint, write_table
from .cluster import METRICS, metric_row
from .config import ConfigError, measure_list, parse_config, require_dataset
from .graph import Graph, SbmSpec, generate_sbm, load_graph, read_labels, save_graph
from .pipeline import HISTORY_COLUMNS, NumericError, pretrain, pretrained_from_named, train


class _Parser(argparse.ArgumentParser):
    # Usage problems must exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _number_list(kind):
    """argparse type: a comma list of kind values; a bad item is a usage
    error naming the flag."""

    def parse(raw: str) -> tuple:
        try:
            return tuple(kind(tok) for tok in raw.split(",") if tok.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a comma list of {kind.__name__} values, got {raw!r}"
            ) from None

    return parse


def _measures(raw: str) -> tuple[str, ...]:
    """argparse type for --measures: 'all', or a comma list of centrality
    measures read as the config key centrality reads it; an unknown measure
    is a usage error naming the flag."""
    measures = MEASURES if raw == "all" else measure_list(raw)
    if not measures or not set(measures) <= set(MEASURES):
        raise argparse.ArgumentTypeError(
            f"expected 'all' or a comma list of {', '.join(MEASURES)}, got {raw!r}"
        )
    return measures


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_dataset(args, need_labels: bool = False):
    """The config of args.config and its graph; a missing dataset key is an
    error naming the config."""
    cfg = parse_config(args.config)
    try:
        require_dataset(cfg, need_labels=need_labels)
    except ConfigError as exc:
        raise ConfigError(f"{args.config}: {exc}") from None
    return cfg, load_graph(cfg.features, cfg.edges, cfg.labels)


def _load_clustering(args, need_labels: bool = False):
    """The config and graph of a command that splits the graph into k
    clusters; a k above the node count is an error naming the config."""
    cfg, g = _load_dataset(args, need_labels)
    if g.n < cfg.k:
        raise ConfigError(f"{args.config}: k={cfg.k} exceeds node count {g.n}")
    return cfg, g


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_gen_sbm(args) -> int:
    if args.dim < 1:
        raise ConfigError(f"--dim must be at least 1, got {args.dim}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be at least 0, got {args.seed}")
    sizes = args.blocks
    k = len(sizes)
    means = np.zeros((k, args.dim))
    for b in range(k):
        means[b, b % args.dim] = args.sep
    spec = SbmSpec(
        block_sizes=sizes, p_in=args.p_in, p_out=args.p_out,
        means=means, noise_std=args.noise,
    )
    g = generate_sbm(spec, args.seed)
    out = _out_dir(args)
    save_graph(g, out / "features.csv", out / "edges.txt", out / "labels.txt")
    print(f"wrote {g.n} nodes, {len(g.edges)} edges to {out}")
    return 0


def _cmd_centrality(args) -> int:
    g = load_graph(args.features, args.edges)
    write_table(args.out, composite_centrality(g, args.measures))
    return 0


def _cmd_pretrain(args) -> int:
    cfg, g = _load_dataset(args)
    pre = pretrain(g, cfg)
    out = _out_dir(args)
    save_checkpoint(out / "pretrain.gclc", pre.items())
    print(f"wrote {out / 'pretrain.gclc'}")
    return 0


def _load_pretrained(path: str, g: Graph, cfg):
    p = Path(path)
    if p.is_dir():
        p = p / "pretrain.gclc"
    return pretrained_from_named(load_checkpoint(p), p, g, cfg)


def _cmd_train(args) -> int:
    cfg, g = _load_clustering(args)
    # Loaded in the call, so train() holds the only reference and frees the
    # pretrained arrays once the model has copied them.
    try:
        result = train(
            g, cfg,
            pretrained=_load_pretrained(args.pretrained, g, cfg) if args.pretrained else None,
        )
    except NumericError as exc:
        if exc.state is not None:
            save_checkpoint(_out_dir(args) / "model.gclc", exc.state.named_arrays())
        raise
    out = _out_dir(args)
    write_table(out / "history.csv", [
        HISTORY_COLUMNS, *([row[col] for col in HISTORY_COLUMNS] for row in result.history)
    ])
    write_table(out / "labels.txt", ([y] for y in result.labels))
    save_checkpoint(out / "model.gclc", result.state.named_arrays())
    used = len(np.unique(result.labels))
    if used < cfg.k:
        print(f"warning: the final labels use {used} of the k={cfg.k} clusters", file=sys.stderr)
    if g.labels is not None:
        metrics = metric_row(result.labels, g.labels)
        print(" ".join("%s=%.4f" % item for item in metrics.items()))
    print(f"wrote history.csv, labels.txt, model.gclc to {out}")
    return 0


# The study each study command runs (sweep: each --grid), called as
# study(graph, config, args).
_STUDIES = {
    "ablate": lambda g, cfg, a: harness.ablation_study(g, cfg, dataset=a.dataset),
    "layers": lambda g, cfg, a: harness.layer_study(g, cfg, dataset=a.dataset),
    "encodings": lambda g, cfg, a: harness.encoding_study(g, cfg, dataset=a.dataset),
    "fusion": lambda g, cfg, a: harness.sweep_fusion(
        g, cfg, a.lambdas, a.thetas, dataset=a.dataset
    ),
    "loss": lambda g, cfg, a: harness.sweep_loss_weights(
        g, cfg, a.alphas, a.betas, dataset=a.dataset
    ),
}


def _cmd_study(args) -> int:
    """results.csv with one row per study point; the fusion sweep also
    writes its best row to best.csv."""
    name = args.grid if args.command == "sweep" else args.command
    cfg, g = _load_clustering(args, need_labels=True)
    rows = _STUDIES[name](g, cfg, args)
    out = _out_dir(args)
    harness.write_result_table(out / "results.csv", rows)
    if name == "fusion":
        harness.write_result_table(out / "best.csv", [harness.best_fusion_row(rows)])
    print(f"wrote {len(rows)} rows to {out / 'results.csv'}")
    return 0


def _cmd_eval(args) -> int:
    pred = read_labels(args.pred)
    truth = read_labels(args.truth)
    if pred.size != truth.size:
        raise ConfigError(
            f"{args.pred} has {pred.size} labels but {args.truth} has {truth.size}"
        )
    row = metric_row(pred, truth)
    write_table(args.out, [(*METRICS, "composite"), (*row.values(), harness.composite_index(row))])
    return 0


# ---------------------------------------------------------------------------
# Parser assembly and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="gclgcn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-sbm", help="generate a planted-partition dataset")
    p.add_argument("--blocks", type=_number_list(int), required=True,
                   help="comma list of block sizes")
    p.add_argument("--p-in", type=float, required=True, dest="p_in")
    p.add_argument("--p-out", type=float, required=True, dest="p_out")
    p.add_argument("--dim", type=int, default=16, help="feature dimension")
    p.add_argument("--sep", type=float, default=1.0, help="block-mean offset scale")
    p.add_argument("--noise", type=float, default=0.0, help="feature noise std")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_sbm)

    p = sub.add_parser("centrality", help="dump the composite centrality matrix as CSV")
    p.add_argument("--features", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--measures", type=_measures, default="all", help="comma list or 'all'")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(func=_cmd_centrality)

    p = sub.add_parser("pretrain", help="run both pretraining phases, save artifacts")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("train", help="full training run")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pretrained", default=None,
                   help="a pretrain.gclc, or a directory holding one, from pretraining "
                        "this graph at this config's layers and n_z; a model.gclc also "
                        "serves, as only its ae.* entries and x_c are read")
    p.set_defaults(func=_cmd_train)

    studies = (
        ("ablate", "module-ablation study (4 variants)"),
        ("layers", "layer-count study (depths 4..1)"),
        ("encodings", "centrality/spatial encoding study (5 variants)"),
        ("sweep", "hyperparameter sweeps"),
    )
    for name, help_text in studies:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--dataset", default="dataset", help="dataset column value")
        p.set_defaults(func=_cmd_study)
    floats = _number_list(float)
    p.add_argument("--grid", choices=("fusion", "loss"), required=True)
    p.add_argument("--lambdas", type=floats, default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8")
    p.add_argument("--thetas", type=floats, default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8")
    loss_weights = ",".join(str(v) for v in harness.DEFAULT_LOSS_WEIGHTS)
    p.add_argument("--alphas", type=floats, default=loss_weights)
    p.add_argument("--betas", type=floats, default=loss_weights)

    p = sub.add_parser("eval", help="score predicted labels against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        where = f"{args.config}: " if getattr(args, "config", None) else ""
        print(f"error: {where}out of memory: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
