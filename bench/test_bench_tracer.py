"""The outside-in tracer leaves no wrapper behind and does not change a run's
outputs; the metric names in BENCHMARK.json match what run.py reports."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import run
from tracer import Tracer, summarize

from gclgcn import centrality, cli, layers, pipeline
from gclgcn.graph import SbmSpec, generate_sbm, save_graph


def _bindings() -> dict:
    out = {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "gclgcn" or name.startswith("gclgcn.")
        for attr, value in vars(mod).items()
    }
    out.update({("_MEASURE_FN", k): v for k, v in centrality._MEASURE_FN.items()})
    return out


def _tiny_dataset(tmp_path: Path) -> Path:
    means = np.zeros((2, 4))
    means[0, 0] = means[1, 1] = 3.0
    g = generate_sbm(SbmSpec((10, 10), 0.4, 0.05, means, noise_std=0.5), seed=3)
    save_graph(g, tmp_path / "f.csv", tmp_path / "e.txt", tmp_path / "l.txt")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"features={tmp_path / 'f.csv'}\nedges={tmp_path / 'e.txt'}\nlabels={tmp_path / 'l.txt'}\n"
        "epochs=3\nk=2\nn_z=3\nlayers=1\nlr=1e-3\nseed=2\n"
        "contrastive.hidden=8\ncontrastive.epochs=2\n"
    )
    return cfg


def test_traced_run_matches_untraced_and_restores_bindings(tmp_path, capsys):
    cfg = _tiny_dataset(tmp_path)
    before = _bindings()
    assert cli.run(["train", "--config", str(cfg), "--out", str(tmp_path / "plain")]) == 0

    with Tracer() as tracer:
        # Call sites that import by name see the wrapper, not the original.
        assert pipeline.gcn_layer is not before[("gclgcn.layers", "gcn_layer")]
        assert cli.train is not before[("gclgcn.pipeline", "train")]
        assert centrality._MEASURE_FN["betweenness"] is not before[("_MEASURE_FN", "betweenness")]
        assert cli.run(["train", "--config", str(cfg), "--out", str(tmp_path / "traced")]) == 0

    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert pipeline.gcn_layer is layers.gcn_layer

    for name in ("labels.txt", "history.csv"):
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    names = {span[0] for span in tracer.spans}
    assert {"pipeline.train", "layers.gcn_layer", "centrality.betweenness",
            "autodiff.backward", "checkpoint.save_checkpoint"} <= names
    by_index = tracer.spans
    gcn = next(s for s in by_index if s[0] == "layers.gcn_layer")
    chain = []
    parent = gcn[3]
    while parent >= 0:
        chain.append(by_index[parent][0])
        parent = by_index[parent][3]
    assert "pipeline.train" in chain

    wall = sum(end - start for _, start, end, parent in by_index if parent < 0) + 0.5
    tracer.dump(tmp_path / "trace.json", wall)
    summary = summarize(json.loads((tmp_path / "trace.json").read_text()))
    modules = sum(summary.get(f"{m}.s", 0.0) for m in run.TRACED_MODULES)
    assert abs(modules + summary["trace.other_s"] - wall) < 1e-9
    assert summary["pipeline.train.calls"] == 1
    assert summary["pipeline.epoch_s"] > 0
    assert summary["pipeline.pretrain.reuse"] == 1.0
    assert summary["autodiff.matmul.gflop"] > 0
    capsys.readouterr()


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in doc["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert [m["unit"] for m in doc["per_layer"]] == [run.per_layer_unit(n) for n in run.PER_LAYER]
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(run.WORKLOADS)
