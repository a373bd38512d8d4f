"""Training outputs pinned by SHA-256 (see tests/digests.py); the digests
hold on the machine record they were made with and the test skips on any
other. A history.csv or labels.txt that differs is named down to its first
differing row and column."""

import hashlib
import math

import pytest

import digests

RECORD = digests.load()


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    difference = digests.record_difference(RECORD["machine"])
    if difference is not None:
        pytest.skip(f"other machine: {difference}")
    return digests.compute(tmp_path_factory.mktemp("digests"))


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
    other = {**digests.machine_record(), "cpu": "another CPU"}
    assert "cpu is" in digests.record_difference(other)
    assert digests.record_difference(digests.machine_record()) is None
