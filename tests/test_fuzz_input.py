"""Mutated inputs through the command line: whatever a features.csv,
edges.txt, labels.txt, config or pretrain.gclc holds, cli.run returns 0, 1
or 2 and never raises, and a 1 comes with an "error:" line naming the
mutated file.

The data files are the digest graph's (tests/digests.py). centrality reads
mutated features and edges, eval mutated labels, and train a config whose
line structure is mutated or a mutated pretrain.gclc; config values that
size the model are checked in test_cli.py.
"""

import contextlib
import io
import math
import re
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import digests
from gclgcn.cli import run

# What each token mutation puts in place of a number, "{}" standing for the
# number, and the tokens an "extra token" mutation adds to a line.
REPLACEMENTS = {
    "nan": ["nan", "-nan", "NaN", "inf"],
    "huge": ["1e999", "-1e308", "1e308", "99999999999999999999", "9223372036854775808"],
    "negative": ["-{}", "-1", "-0"],
}
EXTRA_TOKENS = ["", "x", "1", "0", "1.5", "0x10", "#", ",", "1,2"]
DATA_MUTATIONS = ("truncate", "extra token", "comment", "blank", "duplicate", "missing",
                  "not UTF-8", *REPLACEMENTS)
CONFIG_MUTATIONS = ("no =", "unknown key", "duplicate", "comment line", "inline comment")
CHECKPOINT_MUTATIONS = ("truncate", "flip header byte", "huge dims", "bad name", "nan payload")
# What a "not UTF-8" mutation inserts: a stray continuation byte, a cut
# two-byte sequence, an encoded surrogate and a Latin-1 e-acute.
BAD_BYTES = [b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xe9"]
# The shapes a "huge dims" mutation writes, the first two past int64 as a
# product of their dims, and the names a "bad name" mutation writes.
HUGE_SHAPES = [(2**31, 2**31, 4), (2**32 - 1,) * 4, (2**32 - 1,), (0, 2**32 - 1), (), (1,) * 70]
BAD_NAMES = [b"\xff", b"ae.enc.0.\xc3", b"\xed\xa0\x80", b"", b"x_c", b"ae.enc.0.w"]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        assert run([*digests.GRAPH, "--out", str(work / "data")]) == 0
    return work


def _base_config(work) -> str:
    source = work / "data"
    return (f"features={source}/features.csv\nedges={source}/edges.txt\n"
            f"labels={source}/labels.txt\n{digests.CONFIG}layers=1\n")


@pytest.fixture(scope="module")
def pretrained(work):
    """The base config's file, and its pretrain.gclc."""
    cfg = work / "base.cfg"
    cfg.write_text(_base_config(work))
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["pretrain", "--config", str(cfg), "--out", str(work / "pre")]) == 0
    return cfg, work / "pre" / "pretrain.gclc"


@st.composite
def mutated_data(draw, text: str) -> str:
    """text after one to three of DATA_MUTATIONS."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(DATA_MUTATIONS))
        if kind == "truncate":
            text = text[:draw(st.integers(0, len(text)))]
        elif kind == "comment":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + "#" + draw(st.sampled_from(["", " note", "1,2", "#"])) + text[at:]
        elif kind in REPLACEMENTS:
            found = list(re.finditer(r"[^\s,#]+", text))
            if found:
                m = found[draw(st.integers(0, len(found) - 1))]
                new = draw(st.sampled_from(REPLACEMENTS[kind])).format(m.group())
                text = text[:m.start()] + new + text[m.end():]
        else:
            lines = text.splitlines(keepends=True) or ["\n"]
            i = draw(st.integers(0, len(lines) - 1))
            if kind == "extra token":
                lines[i] = (lines[i].rstrip("\n") + draw(st.sampled_from([",", " "]))
                            + draw(st.sampled_from(EXTRA_TOKENS)) + "\n")
            elif kind == "blank":
                lines.insert(i, draw(st.sampled_from(["\n", "   \n", "\t\n"])))
            elif kind == "duplicate":
                lines.insert(i, lines[i])
            elif kind == "not UTF-8":
                at = draw(st.integers(0, len(lines[i])))
                bad = draw(st.sampled_from(BAD_BYTES)).decode("utf-8", "surrogateescape")
                lines[i] = lines[i][:at] + bad + lines[i][at:]
            else:  # missing
                del lines[i]
            text = "".join(lines)
    return text


def _entries(data: bytes) -> list[tuple[int, int, int, int]]:
    """(start, rank offset, payload offset, end) of each checkpoint entry,
    as far as data parses; an end may lie past the data."""
    out, pos = [], 6
    with contextlib.suppress(struct.error, IndexError):
        while pos < len(data):
            (name_len,) = struct.unpack_from("<H", data, pos)
            at = pos + 2 + name_len
            dims = struct.unpack_from(f"<{data[at]}I", data, at + 1)
            payload = at + 1 + 4 * len(dims)
            out.append((pos, at, payload, payload + 8 * math.prod(dims)))
            pos = out[-1][-1]
    return out


@st.composite
def mutated_checkpoint(draw, data: bytes) -> bytes:
    """data after one to three of CHECKPOINT_MUTATIONS; each but truncate
    picks an entry of what is left, and truncates when none parses."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(CHECKPOINT_MUTATIONS))
        entries = _entries(data)
        if kind == "truncate" or not entries:
            data = data[:draw(st.integers(0, max(len(data) - 1, 0)))]
            continue
        start, rank_at, payload_at, end = draw(st.sampled_from(entries))
        if kind == "flip header byte":  # in the magic, the version or the entry's header
            at = draw(st.sampled_from([*range(6), *range(start, payload_at)]))
            data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
        elif kind == "huge dims":
            shape = draw(st.sampled_from(HUGE_SHAPES))
            data = (data[:rank_at] + struct.pack(f"<B{len(shape)}I", len(shape), *shape)
                    + data[payload_at:])
        elif kind == "bad name":
            name = draw(st.sampled_from(BAD_NAMES))
            data = data[:start] + struct.pack("<H", len(name)) + name + data[rank_at:]
        else:  # nan payload
            values = (min(end, len(data)) - payload_at) // 8
            if values > 0:
                at = payload_at + 8 * draw(st.integers(0, values - 1))
                value = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
                data = data[:at] + struct.pack("<d", value) + data[at + 8:]
    return data


@st.composite
def mutated_config(draw, text: str) -> str:
    """text after one to three mutations of its line structure."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(CONFIG_MUTATIONS))
        lines = text.splitlines(keepends=True)
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "no =":
            lines[i] = lines[i].replace("=", draw(st.sampled_from(["", " ", ":"])), 1)
        elif kind == "unknown key":
            lines[i] = draw(st.sampled_from(["x", "momentum", "contrastive.", "preset "])) + (
                lines[i][lines[i].find("="):] if "=" in lines[i] else "=1\n")
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "comment line":
            lines.insert(i, draw(st.sampled_from(["#\n", "# k=0\n", "  # note = 1\n"])))
        else:  # inline comment
            lines[i] = lines[i].rstrip("\n") + draw(st.sampled_from(["#", " # k=0", "#="])) + "\n"
        text = "".join(lines)
    return text


def _check(argv) -> str:
    """Run argv in-process and check that it exits 0, 1 or 2, and that a 1
    prints an "error:" line; the stderr of a 1, else ""."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error: ")
    return err.getvalue() if code == 1 else ""


@pytest.mark.parametrize("name", ["features.csv", "edges.txt", "labels.txt"])
@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_a_mutated_data_file_exits_cleanly(work, name, data):
    source = work / "data"
    mutated = work / f"mutated-{name}"
    text = data.draw(mutated_data((source / name).read_text()), label=name)
    mutated.write_bytes(text.encode("utf-8", "surrogateescape"))
    files = {n: str(mutated if n == name else source / n)
             for n in ("features.csv", "edges.txt", "labels.txt")}
    if name == "labels.txt":
        argv = ["eval", "--pred", files["labels.txt"], "--truth", files["labels.txt"]]
    else:
        argv = ["centrality", "--features", files["features.csv"], "--edges", files["edges.txt"]]
    error = _check(argv)
    if error and str(mutated) not in error:
        # Features that lost rows leave edges.txt naming nodes past the end;
        # that is the edge file's error, and it gives the row count.
        assert name == "features.csv"
        assert re.fullmatch(rf"error: {re.escape(files['edges.txt'])}:\d+: "
                            r"endpoint out of range \(n=\d+\)\n", error)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_a_mutated_config_exits_cleanly(work, data):
    cfg = work / "mutated.cfg"
    cfg.write_text(data.draw(mutated_config(_base_config(work)), label="config"))
    error = _check(["train", "--config", str(cfg), "--out", str(work / "out")])
    assert not error or error.startswith(f"error: {cfg}")


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_a_mutated_checkpoint_exits_cleanly(work, pretrained, data):
    cfg, source = pretrained
    mutated = work / "mutated.gclc"
    mutated.write_bytes(data.draw(mutated_checkpoint(source.read_bytes()), label="checkpoint"))
    error = _check(["train", "--config", str(cfg), "--out", str(work / "out"),
                    "--pretrained", str(mutated)])
    assert not error or error.startswith(f"error: {mutated}: ")
