import csv

import numpy as np
import pytest

from gclgcn.centrality import composite_centrality
from gclgcn.checkpoint import load_checkpoint
from gclgcn.cli import run
from gclgcn.graph import load_graph


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A small planted-partition dataset written through the real subcommand."""
    out = tmp_path_factory.mktemp("data")
    code = run([
        "gen-sbm", "--blocks", "10,10", "--p-in", "0.7", "--p-out", "0.05",
        "--dim", "6", "--sep", "3.0", "--noise", "0.5", "--seed", "5",
        "--out", str(out),
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def run_cfg(dataset, tmp_path_factory):
    cfg = tmp_path_factory.mktemp("cfg") / "run.cfg"
    cfg.write_text(
        f"features={dataset / 'features.csv'}\n"
        f"edges={dataset / 'edges.txt'}\n"
        f"labels={dataset / 'labels.txt'}\n"
        "epochs=2\nk=2\nn_z=3\nlayers=2\nlr=1e-3\nseed=1\n"
        "contrastive.hidden=8\ncontrastive.epochs=2\n"
    )
    return cfg


class TestGenSbm:
    def test_writes_dataset_files(self, dataset):
        g = load_graph(dataset / "features.csv", dataset / "edges.txt", dataset / "labels.txt")
        assert g.n == 20 and g.f == 6
        assert g.k == 2

    def test_idempotent_bytes(self, tmp_path):
        args = ["gen-sbm", "--blocks", "4,4", "--p-in", "1.0", "--p-out", "0.0",
                "--dim", "3", "--seed", "7"]
        assert run(args + ["--out", str(tmp_path / "a")]) == 0
        assert run(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("features.csv", "edges.txt", "labels.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestCentralityCommand:
    def test_csv_matches_library(self, dataset, tmp_path, capsys):
        out_file = tmp_path / "cent.csv"
        code = run([
            "centrality", "--features", str(dataset / "features.csv"),
            "--edges", str(dataset / "edges.txt"), "--out", str(out_file),
        ])
        assert code == 0
        rows = [
            [float(x) for x in line.split(",")]
            for line in out_file.read_text().strip().splitlines()
        ]
        g = load_graph(dataset / "features.csv", dataset / "edges.txt")
        want = composite_centrality(g)
        assert np.allclose(np.array(rows), want, atol=0)

    def test_stdout_when_no_out(self, dataset, capsys):
        code = run([
            "centrality", "--features", str(dataset / "features.csv"),
            "--edges", str(dataset / "edges.txt"),
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 20


class TestTrainCommand:
    def test_writes_artifacts(self, run_cfg, tmp_path):
        out = tmp_path / "run1"
        code = run(["train", "--config", str(run_cfg), "--out", str(out)])
        assert code == 0
        assert (out / "history.csv").exists()
        assert (out / "labels.txt").exists()
        assert (out / "model.gclc").exists()
        header = (out / "history.csv").read_text().splitlines()[0]
        assert header == "epoch,L,L_AE,L_w,L_a1,L_a2,L_clu,L_con,acc,nmi,ari,f1"
        labels = (out / "labels.txt").read_text().split()
        assert len(labels) == 20
        named = load_checkpoint(out / "model.gclc")
        assert "centroids" in named and "x_c" in named

    def test_byte_reproducible(self, run_cfg, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["train", "--config", str(run_cfg), "--out", str(a)]) == 0
        assert run(["train", "--config", str(run_cfg), "--out", str(b)]) == 0
        for name in ("history.csv", "labels.txt", "model.gclc"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_pretrained_artifacts_reused(self, run_cfg, tmp_path):
        pre = tmp_path / "pre"
        assert run(["pretrain", "--config", str(run_cfg), "--out", str(pre)]) == 0
        assert (pre / "pretrain.gclc").exists()
        direct = tmp_path / "direct"
        reused = tmp_path / "reused"
        assert run(["train", "--config", str(run_cfg), "--out", str(direct)]) == 0
        assert run(["train", "--config", str(run_cfg), "--out", str(reused),
                    "--pretrained", str(pre)]) == 0
        assert (direct / "history.csv").read_bytes() == (reused / "history.csv").read_bytes()

    def test_truncated_pretrained_exits_one(self, run_cfg, tmp_path, capsys):
        pre = tmp_path / "pre"
        assert run(["pretrain", "--config", str(run_cfg), "--out", str(pre)]) == 0
        data = (pre / "pretrain.gclc").read_bytes()
        (pre / "pretrain.gclc").write_bytes(data[:-3])
        capsys.readouterr()
        code = run(["train", "--config", str(run_cfg), "--out", str(tmp_path / "out"),
                    "--pretrained", str(pre)])
        assert code == 1
        assert "pretrain.gclc" in capsys.readouterr().err

    def test_pretrained_from_another_graph_exits_one(self, run_cfg, dataset, tmp_path, capsys):
        small = tmp_path / "small"
        assert run(["gen-sbm", "--blocks", "5,5", "--p-in", "0.7", "--p-out", "0.05",
                    "--dim", "6", "--seed", "5", "--out", str(small)]) == 0
        pre = tmp_path / "pre"
        assert run(["pretrain", "--config", str(run_cfg), "--out", str(pre)]) == 0
        small_cfg = tmp_path / "small.cfg"
        small_cfg.write_text(run_cfg.read_text().replace(str(dataset), str(small)))
        capsys.readouterr()
        code = run(["train", "--config", str(small_cfg), "--out", str(tmp_path / "out"),
                    "--pretrained", str(pre)])
        assert code == 1
        err = capsys.readouterr().err
        assert "x_c" in err and "(20, 6)" in err and "(10, 6)" in err


class TestStudies:
    def test_ablate_four_variants(self, run_cfg, tmp_path):
        out = tmp_path / "ab"
        assert run(["ablate", "--config", str(run_cfg), "--out", str(out),
                    "--dataset", "sbm"]) == 0
        with (out / "results.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["dataset", "variant", "acc", "nmi", "ari", "f1", "composite"]
        assert [r[1] for r in rows[1:]] == ["norm", "-GCN", "-Graphormer", "-ContrastiveLearning"]

    def test_layers_four_depths(self, run_cfg, tmp_path):
        out = tmp_path / "ly"
        assert run(["layers", "--config", str(run_cfg), "--out", str(out)]) == 0
        with (out / "results.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert [r[1] for r in rows[1:]] == ["GCL-GCN-4", "GCL-GCN-3", "GCL-GCN-2", "GCL-GCN-1"]

    def test_encodings_five_variants_exact_labels(self, run_cfg, tmp_path):
        out = tmp_path / "enc"
        assert run(["encodings", "--config", str(run_cfg), "--out", str(out)]) == 0
        with (out / "results.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert [r[1] for r in rows[1:]] == [
            "GCL-GCN",
            "DC, BC and CC + SPD",
            "DC + ED",
            "BC + ED",
            "CC + ED",
        ]

    def test_sweep_fusion_grid_accounting(self, run_cfg, tmp_path):
        out = tmp_path / "sw"
        assert run(["sweep", "--config", str(run_cfg), "--out", str(out),
                    "--grid", "fusion",
                    "--lambdas", "0.2,0.5,0.9", "--thetas", "0.2,0.5,0.9"]) == 0
        lines = (out / "results.csv").read_text().strip().splitlines()
        # feasible points with lambda + theta <= 1:
        # (0.2,0.2) (0.2,0.5) (0.5,0.2) (0.5,0.5)
        assert len(lines) - 1 == 4
        assert (out / "best.csv").exists()
        best = (out / "best.csv").read_text().strip().splitlines()
        assert len(best) == 2

    def test_sweep_loss_rows(self, run_cfg, tmp_path):
        out = tmp_path / "swl"
        assert run(["sweep", "--config", str(run_cfg), "--out", str(out),
                    "--grid", "loss", "--alphas", "0.05,0.1", "--betas", "0.1,0.3"]) == 0
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert len(lines) - 1 == 4
        assert lines[0] == "dataset,alpha,beta,acc,nmi,ari,f1,composite"

    def test_composite_recomputes(self, run_cfg, tmp_path):
        out = tmp_path / "ab2"
        assert run(["ablate", "--config", str(run_cfg), "--out", str(out)]) == 0
        with (out / "results.csv").open() as fh:
            rows = list(csv.reader(fh))
        for cells in rows[1:]:
            acc, nmi_, ari_, f1_, comp = map(float, cells[2:])
            assert comp == pytest.approx((acc + nmi_ + ari_ + f1_) / 4, abs=1e-12)


class TestEval:
    def test_metrics_line(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        truth = tmp_path / "truth.txt"
        pred.write_text("0\n0\n1\n1\n")
        truth.write_text("1\n1\n0\n0\n")
        assert run(["eval", "--pred", str(pred), "--truth", str(truth)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "acc,nmi,ari,f1,composite"
        assert [float(x) for x in out[1].split(",")] == [1.0, 1.0, 1.0, 1.0, 1.0]

    def test_out_file_holds_the_stdout_text(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        truth = tmp_path / "truth.txt"
        pred.write_text("0\n1\n1\n0\n")
        truth.write_text("1\n0\n0\n0\n")
        args = ["eval", "--pred", str(pred), "--truth", str(truth)]
        assert run(args) == 0
        printed = capsys.readouterr().out
        assert run(args + ["--out", str(tmp_path / "m.csv")]) == 0
        assert (tmp_path / "m.csv").read_text() == printed
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv", "pred.txt", "truth.txt"]


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_unknown_flag(self, capsys):
        assert run(["eval", "--bogus", "x"]) == 1

    def test_missing_config_file(self, capsys):
        assert run(["train", "--config", "/nope.cfg", "--out", "/tmp/x"]) == 1

    def test_config_error_is_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("lambda=0.5\ntheta=0.5\ngamma=0.5\n")
        assert run(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    def test_numeric_failure_exits_two(self, dataset, run_cfg, tmp_path, capsys):
        pre = tmp_path / "pre"
        assert run(["pretrain", "--config", str(run_cfg), "--out", str(pre)]) == 0
        cfg = tmp_path / "diverge.cfg"
        # an absurd step size sends parameters to ~1e150; squaring overflows
        cfg.write_text(
            f"features={dataset / 'features.csv'}\n"
            f"edges={dataset / 'edges.txt'}\n"
            f"labels={dataset / 'labels.txt'}\n"
            "epochs=8\nk=2\nn_z=3\nlayers=2\nlr=1e150\nseed=1\n"
            "contrastive.hidden=8\ncontrastive.epochs=2\n"
        )
        with np.errstate(all="ignore"):
            code = run(["train", "--config", str(cfg), "--out", str(tmp_path / "boom"),
                        "--pretrained", str(pre)])
        assert code == 2
        # last finite state was checkpointed for post-mortem
        assert (tmp_path / "boom" / "model.gclc").exists()


def _write_dataset(d, features, edges, labels, k):
    """features.csv / edges.txt / labels.txt and a short training config."""
    d.mkdir(parents=True, exist_ok=True)
    (d / "f.csv").write_text("".join(",".join(repr(float(x)) for x in row) + "\n"
                                     for row in features))
    (d / "e.txt").write_text("".join(f"{u} {v}\n" for u, v in edges))
    (d / "y.txt").write_text("".join(f"{y}\n" for y in labels))
    cfg = d / "run.cfg"
    cfg.write_text(
        f"features={d / 'f.csv'}\nedges={d / 'e.txt'}\nlabels={d / 'y.txt'}\n"
        f"epochs=2\nk={k}\nn_z=2\nlayers=2\nlr=1e-3\nseed=1\n"
        "contrastive.hidden=4\ncontrastive.epochs=2\n"
    )
    return cfg


def _two_blobs():
    rng = np.random.default_rng(0)
    features = np.vstack([rng.normal(0, 1, (4, 3)) + [3, 0, 0],
                          rng.normal(0, 1, (4, 3)) + [0, 3, 0]])
    return features, [0] * 4 + [1] * 4


# Two 4-cycles joined by the edge (3, 4).
_RINGS = [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7), (3, 4)]


def _duplicate_rows(features):
    out = features.copy()
    out[1] = out[0]
    out[5] = out[6] = out[4]
    return out


# name -> (edges, k, feature transform)
EDGE_CASES = {
    "no_edges": ([], 2, None),
    "isolated_nodes": ([(0, 1), (1, 2), (4, 5), (5, 6)], 2, None),
    "k_1": (_RINGS, 1, None),
    "k_n": (_RINGS, 8, None),
    "duplicate_feature_rows": (_RINGS, 2, _duplicate_rows),
}


class TestEdgeCases:
    """Degenerate but valid inputs train to completion: exit 0, one label in
    [0, k) per node and a finite loss history."""

    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_train_exits_zero(self, name, tmp_path, capsys):
        edges, k, transform = EDGE_CASES[name]
        features, labels = _two_blobs()
        if transform is not None:
            features = transform(features)
        cfg = _write_dataset(tmp_path / "data", features, edges, labels, k)
        out = tmp_path / "out"
        assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
        pred = [int(y) for y in (out / "labels.txt").read_text().split()]
        assert len(pred) == 8 and all(0 <= y < k for y in pred)
        with (out / "history.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 and all(np.isfinite(float(r["L"])) for r in rows)

    def test_k_above_n_exits_one(self, tmp_path, capsys):
        features, labels = _two_blobs()
        cfg = _write_dataset(tmp_path / "data", features, _RINGS, labels, 9)
        assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "k=9 exceeds node count 8" in capsys.readouterr().err


class TestBadInput:
    """Bad input exits 1 with a message naming the file or flag and the field."""

    @pytest.mark.parametrize("line, field", [("epochs=abc", "epochs"), ("epsilon=2", "epsilon")])
    def test_config_error_names_file_and_field(self, line, field, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"error: {cfg}: {field}" in err

    @pytest.mark.parametrize("flag", ["--lambdas", "--thetas", "--alphas", "--betas"])
    def test_bad_sweep_value_names_flag(self, flag, run_cfg, tmp_path, capsys):
        out = tmp_path / "sw"
        grid = "fusion" if flag in ("--lambdas", "--thetas") else "loss"
        code = run(["sweep", "--config", str(run_cfg), "--out", str(out),
                    "--grid", grid, flag, "0.2,x"])
        assert code == 1
        assert f"argument {flag}: expected a comma list of float values, got '0.2,x'" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_bad_block_size_names_flag(self, tmp_path, capsys):
        out = tmp_path / "data"
        code = run(["gen-sbm", "--blocks", "4,four", "--p-in", "0.5", "--p-out", "0.1",
                    "--out", str(out)])
        assert code == 1
        assert "argument --blocks: expected a comma list of int values" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_eval_unequal_label_counts_names_both_files(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        truth = tmp_path / "truth.txt"
        pred.write_text("0\n1\n1\n")
        truth.write_text("1\n0\n0\n1\n")
        assert run(["eval", "--pred", str(pred), "--truth", str(truth)]) == 1
        err = capsys.readouterr().err
        assert f"{pred} has 3 labels but {truth} has 4" in err
