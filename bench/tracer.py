"""Outside-in tracer for gclgcn: wraps the package's public functions at
every module binding that refers to them, records spans in memory, and
restores the original bindings on exit.

A span is (name, start, end, parent index). Names are
``<module>.<function>`` with the package prefix dropped, except for the
per-measure centrality functions, which are named after their key in
``centrality._MEASURE_FN`` (``centrality.betweenness``). Tape ops in
``gclgcn.autodiff`` are counted instead of timed: their time stays in the
span that called them.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# Modules whose public functions are wrapped. cli is the traced entry point,
# so its own time is what remains outside every span.
TRACED_MODULES = (
    "graph", "centrality", "autodiff", "layers", "pipeline",
    "cluster", "config", "harness", "checkpoint",
)
# autodiff functions that are not tape ops: timed as spans, or left alone.
_AUTODIFF_SPANS = {"backward", "zero_grad", "adam_step", "finite_difference_check"}
_AUTODIFF_LEAVES = {"constant", "parameter"}

PACKAGE = "gclgcn"
MB = float(1 << 20)


def _digest(*parts) -> str:
    h = hashlib.sha1()
    for part in parts:
        h.update(part.tobytes() if hasattr(part, "tobytes") else repr(part).encode())
    return h.hexdigest()


def _graph_digest(g) -> str:
    import numpy as np

    return _digest(g.features, np.asarray(g.edges, dtype=np.int64))


def _pretrain_ae_key(args: dict) -> str:
    # pretrain_ae reads the features, the ladder, the seed and the step size.
    g, cfg = args["g"], args["cfg"]
    return _digest(g.features, cfg.n_z, cfg.layers, cfg.seed, cfg.lr)


def _centrality_key(args: dict) -> str:
    return _digest(_graph_digest(args["g"]), tuple(sorted(set(args["measures"]))))


# Span name -> function of the call's bound arguments that identifies its input.
_INPUT_KEYS = {
    "pipeline.pretrain_ae": _pretrain_ae_key,
    "centrality.composite_centrality": _centrality_key,
}


class Tracer:
    """Context manager: install wrappers on enter, restore bindings on exit."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.inputs: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        key_fn = _INPUT_KEYS.get(name)
        signature = inspect.signature(fn) if key_fn else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if key_fn is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.inputs[name].add(key_fn(bound.arguments))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if name == "checkpoint.save_checkpoint":
                path = args[0] if args else kwargs["path"]
                counts["checkpoint.save_checkpoint.bytes"] += Path(path).stat().st_size
            return result

        return wrapper

    def _op(self, name, fn):
        counts = self.counts
        is_matmul = name == "matmul"

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts["autodiff.ops.calls"] += 1
            counts["autodiff.ops.out_bytes"] += out.value.nbytes
            if is_matmul:
                a = args[0]
                inner = (a.value if hasattr(a, "value") else a).shape[1]
                m, n = out.value.shape
                counts["autodiff.matmul.calls"] += 1
                counts["autodiff.matmul.flop"] += 2.0 * m * inner * n
            return out

        return wrapper

    # -- install / restore -----------------------------------------------

    def _wrappers(self) -> dict:
        """Original function -> wrapper, for every public function defined
        in a traced module and the per-measure centrality functions."""
        spans, ops = {}, {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not callable(fn) or isinstance(fn, type):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                if short != "autodiff" or attr in _AUTODIFF_SPANS:
                    spans[fn] = f"{short}.{attr}"
                elif attr not in _AUTODIFF_LEAVES:
                    ops[fn] = attr
        for key, fn in sys.modules[f"{PACKAGE}.centrality"]._MEASURE_FN.items():
            spans[fn] = f"centrality.{key}"
        wrappers = {fn: self._span(name, fn) for fn, name in spans.items()}
        wrappers.update({fn: self._op(name, fn) for fn, name in ops.items()})
        return wrappers

    def install(self) -> None:
        for short in TRACED_MODULES + ("cli",):
            importlib.import_module(f"{PACKAGE}.{short}")
        wrappers = {id(fn): (fn, w) for fn, w in self._wrappers().items()}
        namespaces = [
            vars(mod) for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        namespaces.append(sys.modules[f"{PACKAGE}.centrality"]._MEASURE_FN)
        for ns in namespaces:
            for attr, value in list(ns.items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    self._patches.append((ns, attr, value))
                    ns[attr] = wrapper

    def remove(self) -> None:
        for ns, attr, original in reversed(self._patches):
            ns[attr] = original
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- output ----------------------------------------------------------

    def dump(self, path, wall_s: float) -> None:
        """Write the spans, counters and distinct-input counts as JSON."""
        Path(path).write_text(json.dumps({
            "wall_s": wall_s,
            "spans": self.spans,
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.inputs.items()},
        }))


def summarize(record: dict) -> dict[str, float]:
    """Per-layer metrics from a dumped trace: self time and calls for every
    span name, per-module self-time totals, the waste ratios, and the time
    outside all spans. The module totals plus ``trace.other_s`` add up to
    ``trace.wall_s``."""
    spans = record["spans"]
    counts = record["counts"]
    distinct = record["distinct"]
    child_time = [0.0] * len(spans)
    top_level = 0.0
    for name, start, end, parent in spans:
        if parent < 0:
            top_level += end - start
        else:
            child_time[parent] += end - start

    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        self_s = end - start - child_time[i]
        out[f"{name}.s"] += self_s
        out[f"{name}.calls"] += 1
        out[f"{name.split('.')[0]}.s"] += self_s

    # Gaps between successive optimizer steps of each joint-training call.
    steps: dict[int, list[float]] = defaultdict(list)
    for name, start, end, parent in spans:
        if name == "autodiff.adam_step" and parent >= 0 and spans[parent][0] == "pipeline.train":
            steps[parent].append(start)
    gaps = [b - a for starts in steps.values() for a, b in zip(starts, starts[1:])]
    out["pipeline.epoch_s"] = statistics.median(gaps) if gaps else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    pre_runs = out["pipeline.pretrain_ae.calls"]
    pre_distinct = distinct.get("pipeline.pretrain_ae", 0)
    out["pipeline.pretrain.distinct"] = pre_distinct
    out["pipeline.pretrain.reuse"] = ratio(pre_distinct, pre_runs)
    cent_calls = out["centrality.composite_centrality.calls"]
    cent_distinct = distinct.get("centrality.composite_centrality", 0)
    out["centrality.distinct"] = cent_distinct
    out["centrality.reuse"] = ratio(cent_distinct, cent_calls)

    out["autodiff.ops.calls"] = counts.get("autodiff.ops.calls", 0)
    out["autodiff.ops.out_mb"] = counts.get("autodiff.ops.out_bytes", 0) / MB
    out["autodiff.matmul.calls"] = counts.get("autodiff.matmul.calls", 0)
    out["autodiff.matmul.gflop"] = counts.get("autodiff.matmul.flop", 0) / 1e9
    out["checkpoint.save_checkpoint.mb"] = counts.get("checkpoint.save_checkpoint.bytes", 0) / MB

    out["trace.wall_s"] = record["wall_s"]
    out["trace.other_s"] = record["wall_s"] - top_level
    return dict(out)
