"""SHA-256 digests of small training runs, and the machine they were made on.

Every run goes through the command line in one process, on one planted
partition of 3x20 nodes with 8 features: pretrain and then train
--pretrained at layers 1 to 4; at layers 2, train --pretrained with two
attention heads, with each module ablated in turn, and with the
shortest-path spatial bias, a negative sign and two centrality measures;
one plain train, and one ablation study; then centrality and eval, each to
a file, a fusion sweep over two grid points, one train without labels, a
layer study (all four depths, as the command has no depth flag), an
encoding study at layers 2 and a loss-weight sweep over two grid points.
Each run's output files (whichever of OUTPUTS it writes) are digested, and
the text of its history.csv and labels.txt is kept too, so that a mismatch
can name the row and column that differ.

Training bytes depend on the BLAS kernels, and OpenBLAS's dgemm bits on
how many threads it runs, so digests.json records numpy's version, the BLAS
name and version, the CPU model and the BLAS thread count beside the
digests. tests/test_digests.py runs every run in a child process told to
use the recorded thread count, and compares the digests only when the
child's record is the recorded one.

    python tests/digests.py --write [PATH]

runs everything and writes the record of this process to PATH, by default
digests.json.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

RECORD_PATH = Path(__file__).with_name("digests.json")
OUTPUTS = ("history.csv", "labels.txt", "model.gclc", "pretrain.gclc", "results.csv",
           "best.csv", "centrality.csv", "eval.csv")
TEXTS = ("history.csv", "labels.txt")  # the outputs whose text is recorded too

GRAPH = ["gen-sbm", "--blocks", "20,20,20", "--p-in", "0.3", "--p-out", "0.05",
         "--dim", "8", "--sep", "3.0", "--noise", "1.0", "--seed", "2"]
CONFIG = "epochs=3\nk=3\nn_z=4\nlr=1e-4\nseed=1\ncontrastive.hidden=16\ncontrastive.epochs=3\n"

# (run name, command, config lines beyond CONFIG, run whose pretrain.gclc it
# reads). A config line sets its key anew, and a key set to nothing is left
# out. A command given as a list is the run's whole argv, with {data} (the
# graph's directory), {work}, {out} (the run's directory) and {config} filled in.
RUNS = [
    *((f"pretrain-L{d}", "pretrain", f"layers={d}\n", None) for d in (1, 2, 3, 4)),
    *((f"train-pretrained-L{d}", "train", f"layers={d}\n", f"pretrain-L{d}")
      for d in (1, 2, 3, 4)),
    ("train-pretrained-L2-heads2", "train", "layers=2\nheads=2\n", "pretrain-L2"),
    *((f"train-pretrained-L2{variant}", "train", f"layers=2\nablation={variant}\n", "pretrain-L2")
      for variant in ("-GCN", "-Graphormer", "-ContrastiveLearning")),
    ("train-pretrained-L2-shortest-path", "train",
     "layers=2\nspatial_mode=shortest-path\nspatial_sign=-\ncentrality=degree,closeness\n",
     "pretrain-L2"),
    ("train-L3", "train", "layers=3\n", None),
    ("ablate-L2", "ablate", "layers=2\n", None),
    ("centrality", ["centrality", "--features", "{data}/features.csv",
                    "--edges", "{data}/edges.txt", "--out", "{out}/centrality.csv"], "", None),
    ("eval", ["eval", "--pred", "{work}/train-L3/labels.txt", "--truth", "{data}/labels.txt",
              "--out", "{out}/eval.csv"], "", None),
    ("sweep-fusion-L2", ["sweep", "--config", "{config}", "--out", "{out}", "--grid", "fusion",
                         "--lambdas", "0.2", "--thetas", "0.3,0.4"], "layers=2\n", None),
    ("train-L2-unlabeled", "train", "layers=2\nlabels=\n", None),
    ("layers", "layers", "", None),
    ("encodings-L2", "encodings", "layers=2\n", None),
    ("sweep-loss-L2", ["sweep", "--config", "{config}", "--out", "{out}", "--grid", "loss",
                       "--alphas", "0.1", "--betas", "0.1,0.3"], "layers=2\n", None),
]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_threads() -> int | None:
    """The thread count of the OpenBLAS bundled with numpy, asked of the
    loaded library; else OPENBLAS_NUM_THREADS, or None when that is unset."""
    bundled = Path(np.__file__).parent.parent / "numpy.libs"
    libs = sorted(bundled.glob("libscipy_openblas64_-*.so"))
    try:
        return int(ctypes.CDLL(str(libs[0])).scipy_openblas_get_num_threads64_())
    except (IndexError, OSError, AttributeError):
        count = os.environ.get("OPENBLAS_NUM_THREADS")
        return int(count) if count else None


def machine_record() -> dict:
    """numpy's version, the BLAS name and version, the CPU model and the
    BLAS thread count."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": _cpu_model(),
        "blas_threads": _blas_threads(),
    }


def record_difference(recorded: dict, here: dict) -> str | None:
    """How the machine record here differs from recorded, or None."""
    diffs = [f"{key} is {here.get(key)!r}, digests were made with {recorded.get(key)!r}"
             for key in sorted(set(here) | set(recorded)) if here.get(key) != recorded.get(key)]
    return "; ".join(diffs) or None


def compute(work: Path) -> tuple[dict[str, dict[str, str]], dict[str, dict[str, str]]]:
    """Run every run under the directory work; {run: {output file: SHA-256}}
    and {run: {text output file: its text}}."""
    from gclgcn.cli import run

    data = work / "data"
    digests: dict[str, dict[str, str]] = {}
    texts: dict[str, dict[str, str]] = {}
    with contextlib.redirect_stdout(io.StringIO()):
        if run([*GRAPH, "--out", str(data)]) != 0:
            raise RuntimeError("gen-sbm failed")
        for name, command, extra, source in RUNS:
            out = work / name
            out.mkdir()
            cfg = work / f"{name}.cfg"
            lines = (f"features={data / 'features.csv'}\nedges={data / 'edges.txt'}\n"
                     f"labels={data / 'labels.txt'}\n{CONFIG}{extra}")
            entries = dict(line.split("=", 1) for line in lines.splitlines())
            cfg.write_text("".join(f"{key}={value}\n" for key, value in entries.items() if value))
            if isinstance(command, list):
                fill = {"data": data, "work": work, "out": out, "config": cfg}
                argv = [arg.format(**fill) for arg in command]
            else:
                argv = [command, "--config", str(cfg), "--out", str(out)]
            if source is not None:
                argv += ["--pretrained", str(work / source)]
            if run(argv) != 0:
                raise RuntimeError(f"{name}: {argv[0]} exited non-zero")
            digests[name] = {
                f: hashlib.sha256((out / f).read_bytes()).hexdigest()
                for f in OUTPUTS if (out / f).exists()
            }
            if any((out / f).exists() for f in TEXTS):
                texts[name] = {f: (out / f).read_text() for f in TEXTS if (out / f).exists()}
    return digests, texts


def load() -> dict:
    return json.loads(RECORD_PATH.read_text())


def write(path: Path) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        runs, texts = compute(Path(tmp))
    record = {"machine": machine_record(), "runs": runs, "texts": texts}
    path.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"] or len(sys.argv) > 3:
        sys.exit("usage: python tests/digests.py --write [PATH]")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    write(Path(sys.argv[2]) if len(sys.argv) == 3 else RECORD_PATH)
