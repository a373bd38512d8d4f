"""Line reachability of src/gclgcn under the command line.

Records, with a stdlib sys.settrace line tracer started before gclgcn is
imported, every line of src/gclgcn that these runs execute: the runs of
tests/digests.py, then on the digest graph the layers and encodings
studies, both sweeps (on small grids), centrality to stdout, eval to a
file and a train run without labels. Then prints each executable line
that none of them reached, with its text, and a count.

    python tests/reach.py
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
    data, cfg = work / "data", str(work / "train-L3.cfg")
    unlabeled = work / "unlabeled.cfg"
    unlabeled.write_text(f"features={data / 'features.csv'}\nedges={data / 'edges.txt'}\n"
                         f"{digests.CONFIG}layers=1\n")
    for argv in (["layers", "--config", cfg], ["encodings", "--config", cfg],
                 ["sweep", "--grid", "fusion", "--lambdas", "0.2,0.9", "--thetas", "0.2",
                  "--config", cfg],
                 ["sweep", "--grid", "loss", "--alphas", "0.1", "--betas", "0.1,0.2",
                  "--config", cfg],
                 ["centrality", "--features", str(data / "features.csv"),
                  "--edges", str(data / "edges.txt")],
                 ["eval", "--pred", str(work / "train-L3" / "labels.txt"),
                  "--truth", str(data / "labels.txt")],
                 ["train", "--config", str(unlabeled)]):
        out = [] if argv[0] == "centrality" else ["--out", str(work / argv[0])]
        with contextlib.redirect_stdout(io.StringIO()):
            if run([*argv, *out]) != 0:
                raise RuntimeError(f"{' '.join(argv)} exited non-zero")


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    sys.settrace(_call)
    try:
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


if __name__ == "__main__":
    main()
