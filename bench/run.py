"""gclgcn benchmark: one workload, one seed, end-to-end or traced.

    python3 bench/run.py --workload c5-train --seed 1 --seconds 8 --trace 0

Run from anywhere inside a source checkout; the program is imported from
its ``src/`` tree. Set-up (imports, graph generation, file and config
writing, and pretraining where the workload retrains) runs in fresh
processes, up to three times while it fits in --seconds. The timed CLI call
then runs in a fresh process per repeat, repeating while the time spent
repeating is under --seconds. Every repeat's outputs are checked, and
compared byte for byte with the first repeat's.

--trace 1 runs the workload once untraced and once under the outside-in
tracer, and reports per-layer metrics instead of end-to-end ones. Each
human-readable line goes to stdout; the last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import TRACED_MODULES, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MAX_SETUPS = 3
DEADLINE_S = 170.0  # every worker is stopped by then, so a run ends within 180 s
OUTPUT_FILES = ("labels.txt", "history.csv", "results.csv")
ABLATION_VARIANTS = ("norm", "-GCN", "-Graphormer", "-ContrastiveLearning")
HISTORY_COLUMNS = 12

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "acc": "ratio",
    "nmi": "ratio",
}

PER_LAYER = (
    "graph.load_graph.s", "graph.normalize_adjacency.s", "graph.normalize_adjacency.calls",
    "centrality.composite_centrality.s", "centrality.composite_centrality.calls",
    "centrality.betweenness.s", "centrality.closeness.s", "centrality.spatial_bias.s",
    "centrality.reuse", "centrality.distinct",
    "layers.graphormer_layer.s", "layers.graphormer_layer.calls", "layers.gcn_layer.s",
    "layers.inner_product_decode.s", "layers.attention_logit_bias.s",
    "layers.ae_forward.s", "layers.ae_forward.calls",
    "layers.contrastive_encoder.s", "layers.combined_similarity.s",
    "autodiff.backward.s", "autodiff.backward.calls", "autodiff.adam_step.s",
    "autodiff.matmul.calls", "autodiff.matmul.gflop",
    "autodiff.ops.calls", "autodiff.ops.out_mb",
    "pipeline.pretrain_ae.s", "pipeline.pretrain_ae.calls",
    "pipeline.pretrain_contrastive.s", "pipeline.pretrain_contrastive.calls",
    "pipeline.pretrain.reuse", "pipeline.pretrain.distinct",
    "pipeline.train.s", "pipeline.train.calls", "pipeline.epoch_s",
    "pipeline.soft_assign.s", "pipeline.kl_div.s", "pipeline.fuse_final.s",
    "cluster.kmeans.s", "cluster.kmeans.calls", "cluster.metric_row.s", "cluster.metric_row.calls",
    "harness.ablation_study.s",
    "checkpoint.save_checkpoint.s", "checkpoint.save_checkpoint.mb",
    "checkpoint.load_checkpoint.s",
    *(f"{m}.s" for m in TRACED_MODULES),
    "trace.wall_s", "trace.other_s", "trace.overhead",
)


def per_layer_unit(name: str) -> str:
    if name.endswith((".calls", ".distinct")):
        return "count"
    if name.endswith((".reuse", ".overhead")):
        return "ratio"
    if name.endswith(".mb") or name.endswith("_mb"):
        return "MB"
    if name.endswith(".gflop"):
        return "GFLOP"
    return "s"


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------

def _git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine_record() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_rev": _git_rev(),
    }


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------

def _worker(argv: list[str], deadline: float) -> tuple[dict | None, str, float]:
    """Run bench/worker.py to completion or to the deadline; returns its JSON
    result (None if it failed), a diagnostic tail of its output, and the
    seconds it ran."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *argv],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        return None, "timed out", time.monotonic() - start
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    tail = "\n".join((proc.stdout + proc.stderr).strip().splitlines()[-5:])
    if proc.returncode != 0 or not lines:
        return None, tail, elapsed
    try:
        return json.loads(lines[-1]), tail, elapsed
    except json.JSONDecodeError:
        return None, tail, elapsed


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _read_labels(path: Path) -> list[int]:
    return [int(line) for line in path.read_text().splitlines()]


def score(pred: list[int], truth: list[int]) -> tuple[float, float]:
    """Best-matching accuracy and NMI (geometric-mean normalization, as the
    program's own metric rows use), computed independently of the program."""
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    pred_ids, p = np.unique(np.asarray(pred), return_inverse=True)
    true_ids, t = np.unique(np.asarray(truth), return_inverse=True)
    w = np.zeros((len(pred_ids), len(true_ids)))
    np.add.at(w, (p, t), 1.0)
    rows, cols = linear_sum_assignment(-w)
    n = float(len(pred))
    acc = w[rows, cols].sum() / n

    def entropy(counts):
        q = counts[counts > 0] / n
        return float(-(q * np.log(q)).sum())

    pi, pj = w.sum(axis=1), w.sum(axis=0)
    hp, ht = entropy(pi), entropy(pj)
    nz = w > 0
    mi = float((w[nz] / n * np.log(w[nz] * n / np.outer(pi, pj)[nz])).sum())
    if hp == 0.0 or ht == 0.0:
        return acc, float(hp == ht)
    return acc, min(1.0, max(0.0, mi / math.sqrt(hp * ht)))


def check_outputs(w, out: Path, truth: list[int]) -> tuple[list[str], float, float]:
    """Problems found in one repeat's outputs, and its (acc, nmi)."""
    problems = []
    if w.command == "ablate":
        lines = (out / "results.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        if lines[0] != "dataset,variant,acc,nmi,ari,f1,composite":
            problems.append(f"results.csv header {lines[0]!r}")
        if [r[1] for r in rows] != list(ABLATION_VARIANTS):
            problems.append(f"results.csv variants {[r[1] for r in rows]}")
        values = [float(x) for r in rows for x in r[2:]]
        if not all(math.isfinite(v) and -1.0 <= v <= 1.0 for v in values):
            problems.append("results.csv has a metric outside [-1, 1]")
        acc = statistics.fmean(float(r[2]) for r in rows)
        nmi = statistics.fmean(float(r[3]) for r in rows)
    else:
        pred = _read_labels(out / "labels.txt")
        if len(pred) != len(truth):
            problems.append(f"labels.txt has {len(pred)} lines, want {len(truth)}")
        if any(not 0 <= y < w.k for y in pred):
            problems.append(f"labels.txt has a label outside [0, {w.k})")
        history = (out / "history.csv").read_text().splitlines()[1:]
        if len(history) != w.epochs:
            problems.append(f"history.csv has {len(history)} rows, want {w.epochs}")
        for i, line in enumerate(history):
            cells = line.split(",")
            if len(cells) != HISTORY_COLUMNS or cells[0] != str(i):
                problems.append(f"history.csv row {i} malformed")
            elif not all(math.isfinite(float(c)) for c in cells[1:]):
                problems.append(f"history.csv row {i} not finite")
        if not (out / "model.gclc").is_file():
            problems.append("model.gclc missing")
        acc, nmi = score(pred, truth) if not problems else (0.0, 0.0)
    if acc < w.min_acc or nmi < w.min_nmi:
        problems.append(f"acc={acc:.4f} nmi={nmi:.4f} below the gate "
                        f"({w.min_acc}, {w.min_nmi})")
    return problems, acc, nmi


def same_outputs(out: Path, first: Path) -> list[str]:
    problems = []
    for name in OUTPUT_FILES:
        a, b = out / name, first / name
        if a.exists() != b.exists() or (a.exists() and a.read_bytes() != b.read_bytes()):
            problems.append(f"{name} differs from the first repeat")
    return problems


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def describe(name: str, values: list[float], unit: str) -> str:
    """Median, the highest percentile with at least ten samples beyond it
    (nearest rank; none below eleven samples), and the sample count."""
    values = sorted(values)
    n = len(values)
    text = f"{name:<14} median {statistics.median(values):.6g} {unit}"
    if n >= 11:
        pct = math.floor(100.0 * (n - 10) / n)
        text += f"  p{pct} {values[max(0, math.ceil(pct / 100.0 * n) - 1)]:.6g} {unit}"
    else:
        text += "  (no tail percentile below 11 samples)"
    return text + f"  n={n}"


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "gclgcn" / "__init__.py").is_file():
        print(f"error: no gclgcn source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{w.name}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _bench(args, w, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _bench(args, w, work: Path) -> int:
    deadline = time.monotonic() + DEADLINE_S
    print(f"workload={w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(machine_record(), sort_keys=True))

    # Set-up, repeated while it fits the run's time; later copies are discarded.
    setups = []
    while len(setups) < MAX_SETUPS and (not setups or sum(s["setup_s"] for s in setups) < args.seconds):
        setup_dir = work / f"setup{len(setups)}"
        result, tail, _ = _worker(["setup", "--workload", w.name, "--seed", str(args.seed),
                                   "--dir", str(setup_dir), "--t0", repr(time.monotonic())],
                                  deadline)
        if result is None:
            print(f"error: set-up failed:\n{tail}", file=sys.stderr)
            return 1
        setups.append(result)
        if len(setups) > 1:
            shutil.rmtree(setup_dir)
    shape = {k: setups[0][k] for k in ("n", "edges", "f")}
    print("graph " + json.dumps(shape) + " setups_s " + json.dumps([s["setup_s"] for s in setups]))

    setup_dir = work / "setup0"
    truth = _read_labels(w.paths(setup_dir)["labels"])
    repeats, failed = [], 0
    trace_file = work / "trace.json"
    plan = [False, True] if args.trace else None  # traced or not, per repeat
    started = time.monotonic()
    while True:
        i = len(repeats)
        traced = bool(plan) and plan[i]
        out = work / f"out{i}"
        cmd = ["run", "--workload", w.name, "--dir", str(setup_dir), "--out", str(out)]
        result, tail, elapsed = _worker(
            cmd + (["--trace", str(trace_file)] if traced else []), deadline)
        if result is None:  # no measurement from the worker: count its whole life
            result = {"rc": None, "error": tail, "wall_s": elapsed, "peak_rss_mb": 0.0}
        problems, acc, nmi = [], 0.0, 0.0
        if result["rc"] != 0:
            problems.append(f"exit code {result['rc']}: {result['error'] or ''}".strip())
        else:
            try:
                problems, acc, nmi = check_outputs(w, out, truth)
            except (OSError, ValueError, IndexError) as exc:
                problems = [f"unreadable output: {exc}"]
            if repeats:
                problems += same_outputs(out, work / "out0")
        result.update(acc=acc, nmi=nmi, problems=problems, traced=traced)
        failed += bool(problems)
        repeats.append(result)
        print(f"repeat {i}{' traced' if traced else ''}: wall_s={result['wall_s']:.4f} "
              f"peak_rss_mb={result['peak_rss_mb']:.1f} acc={acc:.4f} nmi={nmi:.4f} "
              f"{'ok' if not problems else 'FAILED: ' + '; '.join(problems)}")
        if plan:
            if len(repeats) == len(plan):
                break
        elif time.monotonic() - started >= args.seconds or time.monotonic() >= deadline:
            break

    attempted = len(repeats)
    plain = [r for r in repeats if not r["traced"]]
    print(f"{'fail_rate':<14} {failed / attempted:.6g}  ({failed} of {attempted} runs failed)")
    if args.trace:
        summary = summarize(json.loads(trace_file.read_text())) if trace_file.exists() else {}
        summary["trace.overhead"] = repeats[1]["wall_s"] / repeats[0]["wall_s"] - 1.0
        if trace_file.exists():
            module_sum = sum(summary.get(f"{m}.s", 0.0) for m in TRACED_MODULES)
            print(f"trace: module self times {module_sum:.6f} s + other "
                  f"{summary['trace.other_s']:.6f} s = traced wall {summary['trace.wall_s']:.6f} s")
            trace_keep = ROOT / ".bench_work" / f"{w.name}-s{args.seed}.trace.json"
            shutil.copyfile(trace_file, trace_keep)
            print(f"spans written to {trace_keep}")
        metrics = {}
        for name in PER_LAYER:
            value = summary.get(name, 0.0)
            metrics[name] = {"value": value, "unit": per_layer_unit(name)}
            print(f"{name:<40} {value:.6g} {per_layer_unit(name)}")
    else:
        samples = {
            "wall_s": [r["wall_s"] for r in plain],
            "setup_s": [s["setup_s"] for s in setups],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
            "acc": [r["acc"] for r in plain],
            "nmi": [r["nmi"] for r in plain],
        }
        metrics = {}
        for name, unit in END_TO_END.items():
            print(describe(name, samples[name], unit))
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
