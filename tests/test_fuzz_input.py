"""Mutated text inputs through the command line: whatever a features.csv,
edges.txt, labels.txt or config holds, cli.run returns 0, 1 or 2 and never
raises, and a 1 comes with an "error:" line naming the mutated file.

The data files are the digest graph's (tests/digests.py). centrality reads
mutated features and edges, eval mutated labels, and train a config whose
line structure is mutated; config values that size the model are checked
in test_cli.py.
"""

import contextlib
import io
import re

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
                  *REPLACEMENTS)
CONFIG_MUTATIONS = ("no =", "unknown key", "duplicate", "comment line", "inline comment")


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        assert run([*digests.GRAPH, "--out", str(work / "data")]) == 0
    return work


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
            else:  # missing
                del lines[i]
            text = "".join(lines)
    return text


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
    mutated.write_text(data.draw(mutated_data((source / name).read_text()), label=name))
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
    source = work / "data"
    base = (f"features={source}/features.csv\nedges={source}/edges.txt\n"
            f"labels={source}/labels.txt\n{digests.CONFIG}layers=1\n")
    cfg = work / "mutated.cfg"
    cfg.write_text(data.draw(mutated_config(base), label="config"))
    error = _check(["train", "--config", str(cfg), "--out", str(work / "out")])
    assert not error or error.startswith(f"error: {cfg}")
