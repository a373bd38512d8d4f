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
from .checkpoint import atomic_open, load_checkpoint, save_checkpoint
from .cluster import metric_row
from .config import ConfigError, parse_config, require_dataset
from .graph import Graph, SbmSpec, generate_sbm, load_graph, read_labels, save_graph
from .pipeline import NumericError, pretrain, pretrained_from_named, train

HISTORY_COLUMNS = (
    "epoch", "L", "L_AE", "L_w", "L_a1", "L_a2", "L_clu", "L_con",
    "acc", "nmi", "ari", "f1",
)


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


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_dataset(cfg, need_labels: bool = False) -> Graph:
    require_dataset(cfg, need_labels=need_labels)
    return load_graph(cfg.features, cfg.edges, cfg.labels)


def _write_history(path: Path, history: list[dict]) -> None:
    lines = [",".join(HISTORY_COLUMNS)]
    for row in history:
        cells = []
        for col in HISTORY_COLUMNS:
            v = row[col]
            cells.append(str(v) if col == "epoch" else "%.17g" % v)
        lines.append(",".join(cells))
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _write_labels(path: Path, labels) -> None:
    with atomic_open(path) as fh:
        fh.write("".join(f"{int(y)}\n" for y in labels))


def _emit(text: str, out: str | None) -> None:
    """Write text to the file out atomically, or to stdout when out is None."""
    if out is None:
        sys.stdout.write(text)
        return
    with atomic_open(out) as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_gen_sbm(args) -> int:
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
    measures = MEASURES if args.measures == "all" else tuple(args.measures.split(","))
    matrix = composite_centrality(g, measures)
    _emit("".join(",".join("%.17g" % x for x in row) + "\n" for row in matrix), args.out)
    return 0


def _cmd_pretrain(args) -> int:
    cfg = parse_config(args.config)
    g = _load_dataset(cfg)
    pre = pretrain(g, cfg)
    out = _out_dir(args)
    save_checkpoint(out / "pretrain.gclc", pre.named_arrays())
    print(f"wrote {out / 'pretrain.gclc'}")
    return 0


def _load_pretrained(path: str):
    p = Path(path)
    if p.is_dir():
        p = p / "pretrain.gclc"
    return pretrained_from_named(load_checkpoint(p))


def _cmd_train(args) -> int:
    cfg = parse_config(args.config)
    g = _load_dataset(cfg)
    out = _out_dir(args)
    pre = _load_pretrained(args.pretrained) if args.pretrained else None
    result = train(g, cfg, pretrained=pre, abort_path=out / "model.gclc")
    _write_history(out / "history.csv", result.history)
    _write_labels(out / "labels.txt", result.labels)
    save_checkpoint(out / "model.gclc", result.state.named_arrays())
    if g.labels is not None:
        metrics = metric_row(result.labels, g.labels)
        print(
            "acc=%.4f nmi=%.4f ari=%.4f f1=%.4f"
            % (metrics["acc"], metrics["nmi"], metrics["ari"], metrics["f1"])
        )
    print(f"wrote history.csv, labels.txt, model.gclc to {out}")
    return 0


# The study each study command runs (sweep: each --grid), called as
# study(graph, config, args), and the key columns of its result tables.
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
_STUDY_KEYS = {
    "fusion": ("dataset", "lambda", "theta", "gamma"),
    "loss": ("dataset", "alpha", "beta"),
}


def _cmd_study(args) -> int:
    """results.csv with one row per study point; the fusion sweep also
    writes its best row to best.csv."""
    name = args.grid if args.command == "sweep" else args.command
    keys = _STUDY_KEYS.get(name, ("dataset", "variant"))
    cfg = parse_config(args.config)
    g = _load_dataset(cfg, need_labels=True)
    rows = _STUDIES[name](g, cfg, args)
    out = _out_dir(args)
    harness.write_result_table(out / "results.csv", rows, keys)
    if name == "fusion":
        harness.write_result_table(out / "best.csv", [harness.best_fusion_row(rows)], keys)
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
    values = (row["acc"], row["nmi"], row["ari"], row["f1"], harness.composite_index(row))
    _emit("acc,nmi,ari,f1,composite\n" + ",".join("%.17g" % v for v in values) + "\n", args.out)
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
    p.add_argument("--measures", default="all", help="comma list or 'all'")
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
                   help="directory or file with saved pretraining artifacts")
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


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
