"""Line reachability of src/gclgcn under the command line.

Records, with a stdlib sys.settrace line tracer started before gclgcn is
imported, every line of src/gclgcn that these runs execute: the runs of
tests/digests.py, then on the digest graph a fusion sweep with an
infeasible grid point, centrality to stdout (also with no edges), eval to
stdout on degenerate and awkward labellings, pretrain with a contrastive
beta_sim above and below 1 and without contrastive learning, and train
from a preset config with a non-ASCII comment line and on a graph with no
edges whose feature rows are all one row, read from files with blank
lines. Then prints each executable line that none of them reached, with
its text, and a count.

    python tests/reach.py
    python tests/reach.py --pytest tests/test_graph.py tests/test_config.py

With --pytest, runs pytest in-process on the given arguments under the same
tracer in place of the command-line runs, and exits with pytest's status.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gclgcn"
reached: set[tuple[str, int]] = set()


def _line(frame, event, arg):
    if event == "line":
        reached.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    if frame.f_code.co_filename.startswith(str(SRC)):
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return _line
    return None


def _executable(code) -> set[int]:
    """The line numbers of code's instructions and of every code object
    nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable(const)
    return lines


def _runs(work: Path) -> None:
    import digests
    from gclgcn.cli import run

    digests.compute(work)
    data, base = work / "data", (work / "train-L3.cfg").read_text()
    truth = (data / "labels.txt").read_text()

    def write(name: str, text: str) -> str:
        path = work / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    # The digest graph with every feature row that of node 0 and no edges,
    # so that the autoencoder's bottleneck rows coincide, kmeans and the
    # centroid seeding must fill empty clusters, and the final labels use
    # fewer than k clusters; and a blank line before and after each file's
    # rows.
    (work / "odd").mkdir()
    first = (data / "features.csv").read_text().splitlines()[0]
    for name, text in (("features.csv", f"{first}\n" * len(truth.split())),
                       ("edges.txt", ""), ("labels.txt", truth)):
        write(f"odd/{name}", f"\n{text}\n")
    # Labellings scored against the 20 nodes of each class in turn: ids of n
    # and above; one whose best matching moves a cluster off its first choice
    # (its confusion rows are [0, 10, 20], [8, 0, 0] and [12, 10, 0]); and one
    # cluster. Then one cluster against itself, and one point against itself.
    one_cluster = write("one-cluster.txt", "0\n" * len(truth.split()))
    scored = [(write("large-ids.txt", "".join(f"{100 + int(y)}\n" for y in truth.split())),
               str(data / "labels.txt")),
              (write("shared.txt", "1\n" * 8 + "2\n" * 12 + "0\n" * 10 + "2\n" * 10 + "0\n" * 20),
               str(data / "labels.txt")),
              (one_cluster, str(data / "labels.txt")),
              (one_cluster, one_cluster),
              (write("one-point.txt", "0\n"),) * 2]
    cfg = str(work / "train-L3.cfg")
    pretrained = ["--pretrained", str(work / "pretrain-L3")]
    for argv in (["sweep", "--grid", "fusion", "--lambdas", "0.2,0.9", "--thetas", "0.2",
                  "--config", cfg],
                 ["centrality", "--features", str(data / "features.csv"),
                  "--edges", str(data / "edges.txt")],
                 ["centrality", "--features", str(data / "features.csv"),
                  "--edges", write("no-edges.txt", "")],
                 *(["eval", "--pred", pred, "--truth", labels] for pred, labels in scored),
                 *(["pretrain", "--config", write(f"{name}.cfg", base + line)]
                   for name, line in (("beta-2", "contrastive.beta_sim=2\n"),
                                      ("beta-0.5", "contrastive.beta_sim=0.5\n"),
                                      ("no-contrastive", "ablation=-ContrastiveLearning\n"))),
                 # An em dash in the comment: a line that is UTF-8 but not ASCII.
                 ["train", "--config",
                  write("preset.cfg", f"# the cora preset \u2014 resized\npreset=cora\n{base}"),
                  *pretrained],
                 ["train", "--config",
                  write("odd.cfg", base.replace(str(data), str(work / "odd"))), *pretrained]):
        out = [] if argv[0] in ("centrality", "eval") else ["--out", str(work / f"reach-{argv[0]}")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = run([*argv, *out])
        if status != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {status}: {err.getvalue()}")


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    status = 0
    sys.settrace(_call)
    try:
        if argv[:1] == ["--pytest"]:
            import pytest

            status = pytest.main(["-q", "-p", "no:cacheprovider", *argv[1:]])
        else:
            with tempfile.TemporaryDirectory() as tmp:
                _runs(Path(tmp))
    finally:
        sys.settrace(None)
    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        lines = _executable(compile("\n".join(text), str(path), "exec"))
        total += len(lines)
        for lineno in sorted(lines):
            if (str(path), lineno) not in reached:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{lineno}: {text[lineno - 1].strip()}")
    print(f"{missed} of {total} executable lines in src/gclgcn reached by no run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
