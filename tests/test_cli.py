import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gclgcn import autodiff as ad
from gclgcn.centrality import composite_centrality
from gclgcn.checkpoint import load_checkpoint, save_checkpoint
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
        assert set(g.labels.tolist()) == {0, 1}

    def test_idempotent_bytes(self, tmp_path):
        args = ["gen-sbm", "--blocks", "4,4", "--p-in", "1.0", "--p-out", "0.0",
                "--dim", "3", "--seed", "7"]
        assert run(args + ["--out", str(tmp_path / "a")]) == 0
        assert run(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("features.csv", "edges.txt", "labels.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


    # SHA-256 of features.csv, edges.txt and labels.txt. They depend only on
    # numpy's portable PCG64 stream and the %.17g text format.
    PINNED = [
        (["--blocks", "12,12,12", "--p-in", "0.3", "--p-out", "0.05", "--dim", "4",
          "--sep", "3.0", "--noise", "1.0", "--seed", "3"],
         ("d997edfb95af9cbdd34d2c250020f5961b2068bc62cefa2e798eb38f2ad685f3",
          "00f91b0da7de80260360dca349c2319eb2b74b44acba3d778247323bebb58b73",
          "dde34a1c540efa52eec3d2480074311d424395e242fb93a2ecb8461c2178ca07")),
        (["--blocks", "300,300,300", "--p-in", "0.03", "--p-out", "0.003", "--dim", "8",
          "--sep", "3.0", "--noise", "1.0", "--seed", "1"],
         ("4ce634f9e1d13293a210d3cf98f5a3854b75e7168cebeafe64278924c8b01f5c",
          "8f9be0d6f9979a4e5f476b2305fe6bfddf84256d2c3daeb0970d6b368e4f1093",
          "b0885a4691ef04d875ccfa1d340d8de127367af8d18c3e4d0f8c1780138fe4b4")),
    ]

    @pytest.mark.parametrize("args,digests", PINNED, ids=["n36", "n900"])
    def test_output_bytes_pinned(self, args, digests, tmp_path, capsys):
        assert run(["gen-sbm", *args, "--out", str(tmp_path)]) == 0
        got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("features.csv", "edges.txt", "labels.txt"))
        assert got == digests
        capsys.readouterr()


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

    def test_out_naming_a_directory_names_it(self, dataset, tmp_path, capsys):
        """The message leads with the path given, not the temporary file
        the output is written to first, and that file is gone."""
        out = tmp_path / "cent"
        out.mkdir()
        code = run(["centrality", "--features", str(dataset / "features.csv"),
                    "--edges", str(dataset / "edges.txt"), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {out}: Is a directory\n"
        assert list(tmp_path.iterdir()) == [out]


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
        # one stacked weight per attention role, no separate centrality term
        assert [n for n in named if n.startswith("graphormer.enc.0.")] == [
            f"graphormer.enc.0.w_{role}" for role in ("key", "query", "value")
        ]
        assert not [n for n in named if ".wc_" in n]

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

    def test_missing_pretrained_writes_no_out_dir(self, run_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["train", "--config", str(run_cfg), "--out", str(out),
                    "--pretrained", str(tmp_path / "nowhere")])
        assert code == 1
        assert str(tmp_path / "nowhere") in capsys.readouterr().err
        assert not out.exists()

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
        assert capsys.readouterr().err == (
            f"error: {pre / 'pretrain.gclc'}: pretraining entry 8 is ('x_c', (20, 6)), but the "
            "configured ladder [6, 500, 3] and the graph need ('x_c', (10, 6))\n"
        )

    def test_pretrained_from_another_ladder_exits_one(self, run_cfg, tmp_path, capsys):
        pre = tmp_path / "pre"
        assert run(["pretrain", "--config", str(run_cfg), "--out", str(pre)]) == 0
        shallow_cfg = tmp_path / "shallow.cfg"
        shallow_cfg.write_text(run_cfg.read_text().replace("layers=2", "layers=1"))
        capsys.readouterr()
        code = run(["train", "--config", str(shallow_cfg), "--out", str(tmp_path / "out"),
                    "--pretrained", str(pre)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {pre / 'pretrain.gclc'}: pretraining entry 0 is ('ae.enc.0.w', (6, 500)), "
            "but the configured ladder [6, 3] and the graph need ('ae.enc.0.w', (6, 3))\n"
        )

    def test_model_checkpoint_serves_as_pretrained(self, run_cfg, tmp_path):
        """Only a model.gclc's ae.* entries and x_c are read: training from
        it matches training from a pretrain.gclc of just those entries."""
        first = tmp_path / "first"
        assert run(["train", "--config", str(run_cfg), "--out", str(first)]) == 0
        entries = load_checkpoint(first / "model.gclc")
        pre = tmp_path / "pre"
        pre.mkdir()
        save_checkpoint(pre / "pretrain.gclc", [
            (name, arr) for name, arr in entries.items() if name.startswith("ae.") or name == "x_c"
        ])
        from_model, from_pre = tmp_path / "from-model", tmp_path / "from-pre"
        assert run(["train", "--config", str(run_cfg), "--out", str(from_model),
                    "--pretrained", str(first / "model.gclc")]) == 0
        assert run(["train", "--config", str(run_cfg), "--out", str(from_pre),
                    "--pretrained", str(pre)]) == 0
        history = (from_model / "history.csv").read_bytes()
        assert history == (from_pre / "history.csv").read_bytes()
        assert history != (first / "history.csv").read_bytes()

    @pytest.mark.parametrize("entry, bad", [("x_c", np.nan), ("ae.dec.1.w", -np.inf)])
    def test_nonfinite_pretrained_entry_exits_one(self, entry, bad, run_cfg, tmp_path, capsys):
        pre = tmp_path / "pre"
        assert run(["pretrain", "--config", str(run_cfg), "--out", str(pre)]) == 0
        entries = load_checkpoint(pre / "pretrain.gclc")
        entries[entry][-1, -1] = bad
        save_checkpoint(pre / "pretrain.gclc", entries.items())
        capsys.readouterr()
        code = run(["train", "--config", str(run_cfg), "--out", str(tmp_path / "out"),
                    "--pretrained", str(pre)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"pretrain.gclc: non-finite value in entry {entry!r}" in err
        assert not (tmp_path / "out" / "model.gclc").exists()

    @pytest.mark.parametrize("edit, found, need", [
        ("renamed", "0 is ('ae.encoder.0.w', (6, 500))", "('ae.enc.0.w', (6, 500))"),
        ("reordered", "1 is ('ae.dec.0.b', (1, 500))", "('ae.enc.0.b', (1, 500))"),
        ("without-x_c", "8 is missing", "('x_c', (20, 6))"),
    ])
    def test_pretrained_ae_entries_must_match_by_name(self, edit, found, need, run_cfg,
                                                      tmp_path, capsys):
        # Renaming and reordering keep the sequence of shapes, which alone
        # would pass; the message names the first entry that differs, found
        # and expected.
        pre = tmp_path / "pre"
        assert run(["pretrain", "--config", str(run_cfg), "--out", str(pre)]) == 0
        entries = list(load_checkpoint(pre / "pretrain.gclc").items())
        names = [name for name, _ in entries]
        if edit == "renamed":
            entries[0] = ("ae.encoder.0.w", entries[0][1])
        elif edit == "reordered":  # the first encoder and decoder bias are both (1, 500)
            i, j = names.index("ae.enc.0.b"), names.index("ae.dec.0.b")
            entries[i], entries[j] = entries[j], entries[i]
        else:
            entries.pop(names.index("x_c"))
        save_checkpoint(pre / "pretrain.gclc", entries)
        capsys.readouterr()
        code = run(["train", "--config", str(run_cfg), "--out", str(tmp_path / "out"),
                    "--pretrained", str(pre)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {pre / 'pretrain.gclc'}: pretraining entry {found}, but the configured "
            f"ladder [6, 500, 3] and the graph need {need}\n"
        )


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

    def test_sweep_fusion_names_a_skipped_point(self, run_cfg, tmp_path, capsys):
        out = tmp_path / "sw"
        assert run(["sweep", "--config", str(run_cfg), "--out", str(out),
                    "--grid", "fusion", "--lambdas", "0.2,0.9", "--thetas", "0.2"]) == 0
        err = capsys.readouterr().err
        assert err == "warning: skipping infeasible grid point lambda=0.9 theta=0.2\n"
        assert len((out / "results.csv").read_text().splitlines()) - 1 == 1

    def test_sweep_fusion_without_feasible_point_writes_nothing(self, run_cfg, tmp_path, capsys):
        out = tmp_path / "sw"
        code = run(["sweep", "--config", str(run_cfg), "--out", str(out),
                    "--grid", "fusion", "--lambdas", "0.9", "--thetas", "0.9"])
        assert code == 1
        assert "no feasible grid points" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

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


class TestOpCatalogue:
    # The names autodiff exports beside its tape ops.
    NOT_OPS = {"Tensor", "constant", "parameter", "backward", "AdamState", "adam_step"}

    def test_one_train_run_records_every_op(self, run_cfg, tmp_path, monkeypatch):
        """Every tape op autodiff exports is called by one small train run,
        so none is kept only for the tests."""
        ops = sorted(set(ad.__all__) - self.NOT_OPS)
        called = set()
        for name in ops:
            def counted(*args, _op=getattr(ad, name), _name=name, **kwargs):
                called.add(_name)
                return _op(*args, **kwargs)

            monkeypatch.setattr(ad, name, counted)
        assert run(["train", "--config", str(run_cfg), "--out", str(tmp_path / "out")]) == 0
        assert sorted(called) == ops


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

    def test_scoring_loads_no_scipy_optimize(self, tmp_path):
        """The label matching is solved in the package, so a process that
        scores labels never loads scipy.optimize, nor the scipy.linalg and
        scipy.special that importing it loads."""
        (tmp_path / "pred.txt").write_text("0\n1\n1\n2\n")
        (tmp_path / "truth.txt").write_text("1\n0\n0\n2\n")
        script = (
            "import sys\n"
            "from gclgcn import cli\n"
            f"assert cli.run(['eval', '--pred', {str(tmp_path / 'pred.txt')!r}, "
            f"'--truth', {str(tmp_path / 'truth.txt')!r}]) == 0\n"
            "print(sorted(m for m in ('scipy.optimize', 'scipy.linalg', 'scipy.special') "
            "if m in sys.modules))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.splitlines() == ["acc,nmi,ari,f1,composite", "1,1,1,1,1", "[]"]


    @pytest.mark.parametrize("bad", ["pred", "truth"])
    def test_negative_label_exits_one_naming_the_line(self, bad, tmp_path, capsys):
        """-1 would index the last cluster id in the confusion matrix and
        score wrong metrics, so it is refused."""
        files = {"pred": "0\n0\n1\n1\n", "truth": "0\n0\n1\n1\n"}
        files[bad] = "0\n0\n1\n-1\n"
        for role, text in files.items():
            (tmp_path / f"{role}.txt").write_text(text)
        code = run(["eval", "--pred", str(tmp_path / "pred.txt"),
                    "--truth", str(tmp_path / "truth.txt")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {tmp_path / f'{bad}.txt'}:4: negative label\n"


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


def _write_dataset(d, features, edges, labels, k, epochs=2, layers=2):
    """features.csv / edges.txt / labels.txt and a short training config."""
    d.mkdir(parents=True, exist_ok=True)
    (d / "f.csv").write_text("".join(",".join(repr(float(x)) for x in row) + "\n"
                                     for row in features))
    (d / "e.txt").write_text("".join(f"{u} {v}\n" for u, v in edges))
    (d / "y.txt").write_text("".join(f"{y}\n" for y in labels))
    cfg = d / "run.cfg"
    cfg.write_text(
        f"features={d / 'f.csv'}\nedges={d / 'e.txt'}\nlabels={d / 'y.txt'}\n"
        f"epochs={epochs}\nk={k}\nn_z=2\nlayers={layers}\nlr=1e-3\nseed=1\n"
        "contrastive.hidden=4\ncontrastive.epochs=2\n"
    )
    return cfg


def _run_capped(script: str) -> subprocess.CompletedProcess:
    """Run script in a child Python whose address space is capped at 2 GB,
    with run imported from gclgcn.cli."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    script = ("import resource\n"
              "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
              "from gclgcn.cli import run\n" + script)
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)


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

    def test_collapsed_run_says_so(self, tmp_path, capsys):
        # Identical feature rows and no edges: every node lands in one cluster.
        cfg = _write_dataset(tmp_path / "data", [[1.0, 2.0, 3.0]] * 6, [], [0] * 3 + [1] * 3,
                             2, epochs=1, layers=1)
        out = tmp_path / "out"
        assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: the final labels use 1 of the k=2 clusters\n"
        assert "acc=" in captured.out and "warning" not in captured.out
        assert (out / "labels.txt").read_text() == "0\n" * 6

    @pytest.mark.parametrize("command", ["train", "ablate", "layers", "encodings",
                                         "sweep --grid fusion", "sweep --grid loss"])
    def test_k_above_n_names_the_config(self, command, tmp_path, capsys):
        features, labels = _two_blobs()
        cfg = _write_dataset(tmp_path / "data", features, _RINGS, labels, 9)
        out = tmp_path / "out"
        assert run([*command.split(), "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: k=9 exceeds node count 8\n"
        assert not out.exists()

    def test_a_huge_label_id_scores_as_its_dense_ranking(self, tmp_path):
        """A truth id of 10**9 is scored as the densely ranked labels are,
        by eval and by train, in a process whose address space is capped at
        2 GB, so a matrix sized by the id fails at once."""
        features, labels = _two_blobs()
        huge = [0] * 4 + [10**9] * 4
        for name, truth in (("dense", labels), ("huge", huge)):
            cfg = _write_dataset(tmp_path / name, features, _RINGS, truth, 2, layers=1)
            (tmp_path / name / "pred.txt").write_text("0\n1\n0\n0\n1\n1\n1\n0\n")
        done = _run_capped(
            "for name in ('dense', 'huge'):\n"
            f"    d = {str(tmp_path)!r} + '/' + name\n"
            "    assert run(['eval', '--pred', d + '/pred.txt', '--truth', d + '/y.txt',\n"
            "                '--out', d + '/eval.csv']) == 0\n"
            "    assert run(['train', '--config', d + '/run.cfg', '--out', d + '/out']) == 0\n"
        )
        assert done.returncode == 0, done.stderr
        printed = done.stdout.splitlines()
        assert printed[0] == printed[2] and printed[0].startswith("acc=")
        for name in ("eval.csv", "out/history.csv", "out/labels.txt"):
            assert (tmp_path / "huge" / name).read_text() == (tmp_path / "dense" / name).read_text()
        assert (tmp_path / "huge" / "eval.csv").read_text().splitlines()[1] != "1,1,1,1,1"


class TestBadInput:
    """Bad input exits 1 with a message naming the file or flag and the field."""

    # (config line, or None, {dataset file: text}, stderr after "error: <file>")
    INPUT_CHECKS = {
        "k": ("k=0", {}, ": k must be >= 1"),
        "n_z": ("n_z=0", {}, ": n_z must be >= 1"),
        "heads": ("heads=0", {}, ": heads must be >= 1"),
        "layers": ("layers=5", {}, ": layers must be one of (1, 2, 3, 4)"),
        "epochs": ("epochs=-1", {}, ": epochs must be >= 0"),
        "contrastive.hidden": ("contrastive.hidden=0", {}, ": contrastive.hidden must be >= 1"),
        "contrastive.epochs": ("contrastive.epochs=-1", {}, ": contrastive.epochs must be >= 0"),
        "spatial_mode": ("spatial_mode=hops", {},
                         ": spatial_mode must be one of ('euclidean', 'shortest-path')"),
        "spatial_sign": ("spatial_sign=*", {}, ": spatial_sign must be '+' or '-'"),
        "line without =": ("k 2", {}, ":4: expected key=value"),
        "preset": ("preset=imagenet", {}, ": unknown preset 'imagenet'"),
        "ragged features": (None, {"f.csv": "1.0,2.0\n3.0\n"}, ":2: expected 2 columns, got 1"),
        "empty features": (None, {"f.csv": "\n"}, ": no feature rows"),
        "edge with three tokens": (None, {"e.txt": "0 1\n1 2 3\n"},
                                   ":2: expected two endpoints, got 3"),
        "edge endpoint": (None, {"e.txt": "0 x\n"}, ":1: could not parse edge endpoints"),
        "self-loop": (None, {"e.txt": "0 1\n2 2\n"}, ":2: self-loop rejected"),
        "endpoint out of range": (None, {"e.txt": "0 1\n1 8\n"},
                                  ":2: endpoint out of range (n=8)"),
        "non-finite feature": (None, {"f.csv": "1.0,2.0\n3.0,nan\n"},
                               ":2: non-finite feature value"),
        "unparseable feature row": (None, {"f.csv": "1.0,2.0\n3.0,x\n"},
                                    ":2: could not parse feature row"),
        "unparseable label": (None, {"y.txt": "0\n1.5\n"}, ":2: could not parse label"),
        "negative label": (None, {"y.txt": "0\n-1\n"}, ":2: negative label"),
        "label past 64 bits": (None, {"y.txt": "0\n9223372036854775808\n"},
                               ":2: label does not fit in 64 bits"),
        "no labels": (None, {"y.txt": "# none\n"}, ": no labels"),
        "label not UTF-8": (None, {"y.txt": "0\n\udcff\n"}, ":2: not UTF-8 text"),
        "feature comment not UTF-8": (None, {"f.csv": "1.0,2.0\n# caf\udce9\n"},
                                      ":2: not UTF-8 text"),
        "config not UTF-8": ("seed=\udcc3", {}, ":4: not UTF-8 text"),
    }

    @pytest.mark.parametrize("check", sorted(INPUT_CHECKS))
    def test_input_check_names_the_file_and_field(self, check, tmp_path, capsys):
        line, files, message = self.INPUT_CHECKS[check]
        features, labels = _two_blobs()
        cfg = _write_dataset(tmp_path / "data", features, _RINGS, labels, 2)
        # A lone surrogate \udcXX in a text stands for the undecodable byte XX.
        for name, text in files.items():
            (tmp_path / "data" / name).write_bytes(text.encode("utf-8", "surrogateescape"))
        if line is not None:
            key = line.partition("=")[0]
            kept = [row for row in cfg.read_text().splitlines() if not row.startswith(key + "=")]
            cfg.write_bytes(("\n".join([*kept[:3], line, *kept[3:]]) + "\n")
                            .encode("utf-8", "surrogateescape"))
        out = tmp_path / "out"
        assert run(["train", "--config", str(cfg), "--out", str(out)]) == 1
        bad = tmp_path / "data" / next(iter(files), "run.cfg")
        assert capsys.readouterr().err == f"error: {bad}{message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, key", [
        *((command, key) for command in ("pretrain", "train", "ablate")
          for key in ("features", "edges")),
        ("ablate", "labels"),
    ])
    def test_missing_key_names_the_config(self, command, key, tmp_path, capsys):
        features, labels = _two_blobs()
        cfg = _write_dataset(tmp_path / "data", features, _RINGS, labels, 2)
        cfg.write_text("".join(f"{row}\n" for row in cfg.read_text().splitlines()
                               if not row.startswith(key + "=")))
        out = tmp_path / "out"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: missing key: {key}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, key", [("train", "features"), ("train", "edges"),
                                              ("train", "labels"), ("ablate", "labels")])
    def test_empty_path_names_the_config_and_key(self, command, key, tmp_path, capsys):
        features, labels = _two_blobs()
        cfg = _write_dataset(tmp_path / "data", features, _RINGS, labels, 2)
        cfg.write_text("".join(f"{key}=\n" if row.startswith(key + "=") else f"{row}\n"
                               for row in cfg.read_text().splitlines()))
        out = tmp_path / "out"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: {key}: could not parse ''\n"
        assert not out.exists()

    def test_a_model_past_memory_exits_one(self, tmp_path):
        """A config that sizes the model past memory exits 1 naming the
        config, in a process whose address space is capped at 2 GB."""
        features, labels = _two_blobs()
        base = _write_dataset(tmp_path, features, _RINGS, labels, 2).read_text().splitlines()
        configs = []
        for line in ("n_z=1000000000", "contrastive.hidden=1000000000", "heads=100000000"):
            key = line.partition("=")[0]
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text("".join(f"{row}\n" for row in base if not row.startswith(key + "="))
                           + line + "\n")
            configs.append(str(cfg))
        done = _run_capped(
            f"for cfg in {configs!r}:\n"
            "    assert run(['train', '--config', cfg, '--out', cfg + '.out']) == 1\n"
        )
        assert done.returncode == 0, done.stderr
        errors = done.stderr.splitlines()
        assert len(errors) == len(configs)
        for cfg, error in zip(configs, errors):
            assert error.startswith(f"error: {cfg}: out of memory: Unable to allocate ")

    def test_out_of_memory_without_a_config(self, monkeypatch, tmp_path, capsys):
        def allocate(*args):
            raise MemoryError("Unable to allocate 8.00 GiB")

        (tmp_path / "f.csv").write_text("0\n0\n")
        (tmp_path / "e.txt").write_text("0 1\n")
        monkeypatch.setattr("gclgcn.cli.composite_centrality", allocate)
        assert run(["centrality", "--features", str(tmp_path / "f.csv"),
                    "--edges", str(tmp_path / "e.txt")]) == 1
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 8.00 GiB\n"

    @pytest.mark.parametrize("line, field", [("epochs=abc", "epochs"), ("epsilon=2", "epsilon"),
                                             ("seed=-1", "seed")])
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

    def test_nonfinite_sweep_value_exits_one(self, run_cfg, tmp_path, capsys):
        out = tmp_path / "sw"
        code = run(["sweep", "--config", str(run_cfg), "--out", str(out),
                    "--grid", "fusion", "--lambdas", "nan", "--thetas", "0.1"])
        assert code == 1
        assert "error: lambda must be finite and >= 0, got nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--sep", "inf"), ("--sep", "nan"),
                                             ("--noise", "nan"), ("--noise", "inf")])
    def test_nonfinite_generator_value_writes_nothing(self, flag, value, tmp_path, capsys):
        out = tmp_path / "data"
        code = run(["gen-sbm", "--blocks", "4,4", "--p-in", "0.5", "--p-out", "0.1",
                    flag, value, "--out", str(out)])
        assert code == 1
        assert "must be finite" in capsys.readouterr().err
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

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_bad_dim_names_flag(self, dim, tmp_path, capsys):
        out = tmp_path / "data"
        code = run(["gen-sbm", "--blocks", "4,4", "--p-in", "0.5", "--p-out", "0.1",
                    "--dim", dim, "--out", str(out)])
        assert code == 1
        assert f"error: --dim must be at least 1, got {dim}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_names_flag(self, tmp_path, capsys):
        out = tmp_path / "data"
        code = run(["gen-sbm", "--blocks", "4,4", "--p-in", "0.5", "--p-out", "0.1",
                    "--seed", "-2", "--out", str(out)])
        assert code == 1
        assert "error: --seed must be at least 0, got -2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_nonfinite_feature_names_file_and_line(self, cell, dataset, tmp_path, capsys):
        rows = (dataset / "features.csv").read_text().splitlines()
        rows[2] = ",".join([cell] + rows[2].split(",")[1:])
        features = tmp_path / "features.csv"
        features.write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"features={features}\nedges={dataset / 'edges.txt'}\nk=2\n")
        out = tmp_path / "o"
        assert run(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"error: {features}:3: non-finite feature value" in capsys.readouterr().err
        assert not out.exists()

    def test_measures_read_like_the_config_key(self, dataset, tmp_path, capsys):
        # items are stripped and empty ones dropped, as in centrality=degree, closeness
        out = tmp_path / "c.csv"
        code = run(["centrality", "--features", str(dataset / "features.csv"),
                    "--edges", str(dataset / "edges.txt"),
                    "--measures", "degree, ,closeness", "--out", str(out)])
        assert code == 0
        g = load_graph(dataset / "features.csv", dataset / "edges.txt")
        want = composite_centrality(g, ("degree", "closeness"))
        assert np.array_equal(np.loadtxt(out, delimiter=",", ndmin=2), want)

    def test_unknown_measure_names_flag(self, dataset, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code = run(["centrality", "--features", str(dataset / "features.csv"),
                    "--edges", str(dataset / "edges.txt"),
                    "--measures", "degree, pagerank", "--out", str(out)])
        assert code == 1
        assert "argument --measures: expected 'all' or a comma list of" in (
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
