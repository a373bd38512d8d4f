"""Training outputs pinned by SHA-256 (see tests/digests.py); the digests
hold on the machine record they were made with, BLAS thread count included,
and the test skips on any other. The runs go in a child process whose
OPENBLAS_NUM_THREADS is the recorded count, so the parent's own count does
not matter. A history.csv or labels.txt that differs is named down to its
first differing row and column."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import digests

RECORD = digests.load()


def _child(args: list[str], threads) -> subprocess.CompletedProcess:
    """Python run on args in the tests directory, with OPENBLAS_NUM_THREADS
    set to threads."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads)}
    return subprocess.run([sys.executable, *args], env=env, cwd=Path(digests.__file__).parent,
                          check=True, capture_output=True, text=True)


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    path = tmp_path_factory.mktemp("digests") / "digests.json"
    _child([digests.__file__, "--write", str(path)], RECORD["machine"]["blas_threads"])
    record = json.loads(path.read_text())
    difference = digests.record_difference(RECORD["machine"], record["machine"])
    if difference is not None:
        pytest.skip(f"other machine: {difference}")
    return record["runs"], record["texts"]


def _relative(a: str, b: str) -> float:
    x, y = float(a), float(b)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def text_difference(file: str, want: str, got: str) -> str:
    """Where the text got of an output file first differs from the recorded
    want: the line, the column (by name, for history.csv) and both cells.
    For history.csv, also the largest relative difference of each column
    that differs."""
    want_rows = [line.split(",") for line in want.splitlines()]
    got_rows = [line.split(",") for line in got.splitlines()]
    header = want_rows[0] if file == "history.csv" else None
    common = min(len(want_rows), len(got_rows))
    where = f"line {common + 1}: recorded {len(want_rows)} lines, produced {len(got_rows)}"
    for line, (w, g) in enumerate(zip(want_rows, got_rows), start=1):
        if w != g:
            col = next((i for i, (a, b) in enumerate(zip(w, g)) if a != b), min(len(w), len(g)))
            name = header[col] if header and col < len(header) else str(col + 1)
            recorded, produced = (row[col] if col < len(row) else "nothing" for row in (w, g))
            where = f"line {line}, column {name}: recorded {recorded}, produced {produced}"
            break
    text = f"{file} first differs at {where}"
    if header is not None:
        largest = {
            name: max((_relative(w[i], g[i]) for w, g in zip(want_rows[1:], got_rows[1:])
                       if i < min(len(w), len(g))), default=0.0)
            for i, name in enumerate(header)
        }
        text += "; largest relative difference per column: " + ", ".join(
            f"{name} {rel:.3g}" for name, rel in largest.items() if rel
        )
    return text


def test_every_run_is_recorded():
    assert list(RECORD["runs"]) == [name for name, *_ in digests.RUNS]


@pytest.mark.parametrize("run", list(RECORD["runs"]))
def test_outputs_match_digests(run, produced):
    digests_got, texts_got = produced
    want, got = RECORD["runs"][run], digests_got[run]
    assert sorted(got) == sorted(want), f"{run}: wrote {sorted(got)}, recorded {sorted(want)}"
    differ = [name for name in want if got[name] != want[name]]
    texts = RECORD["texts"].get(run, {})
    details = [text_difference(name, texts[name], texts_got[run][name])
               for name in differ if name in texts]
    assert not differ, "; ".join(
        [f"{run}: {', '.join(differ)} differ from the recorded digests", *details]
    )


def test_every_text_matches_its_digest():
    for run, texts in RECORD["texts"].items():
        for name, text in texts.items():
            assert hashlib.sha256(text.encode()).hexdigest() == RECORD["runs"][run][name], \
                (run, name)


def test_a_text_difference_is_named_by_row_and_column():
    want = "epoch,L,acc\n0,1.5,0.5\n1,1.25,0.75\n"
    got = "epoch,L,acc\n0,1.5,0.5\n1,1.2500000000000002,0.5\n"
    text = text_difference("history.csv", want, got)
    assert text.startswith(
        "history.csv first differs at line 3, column L: recorded 1.25, produced 1.2500000000000002"
    )
    assert text.endswith("largest relative difference per column: L 1.78e-16, acc 0.333")
    assert text_difference("labels.txt", "0\n1\n2\n", "0\n2\n2\n") == (
        "labels.txt first differs at line 2, column 1: recorded 1, produced 2"
    )
    assert text_difference("labels.txt", "0\n1\n", "0\n1\n1\n") == (
        "labels.txt first differs at line 3: recorded 2 lines, produced 3"
    )


def test_another_machine_record_is_named():
    here = digests.machine_record()
    assert "cpu is" in digests.record_difference({**here, "cpu": "another CPU"}, here)
    assert digests.record_difference(here, here) is None


def test_the_record_names_the_blas_thread_count():
    code = "import json, digests; print(json.dumps(digests.machine_record()))"
    assert json.loads(_child(["-c", code], 1).stdout)["blas_threads"] == 1
    assert digests.machine_record()["blas_threads"] >= 1
