import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from types import SimpleNamespace

from gclgcn.checkpoint import MAGIC, atomic_open, load_checkpoint, save_checkpoint
from gclgcn.graph import save_graph
from gclgcn.harness import write_result_table


def test_round_trip_preserves_order_shapes_values(tmp_path):
    rng = np.random.default_rng(0)
    named = [
        ("ae.enc.0.w", rng.standard_normal((4, 3))),
        ("ae.enc.0.b", rng.standard_normal((1, 3))),
        ("centroids", rng.standard_normal((2, 5))),
        ("x_c", rng.standard_normal((6, 4))),
    ]
    path = tmp_path / "m.gclc"
    save_checkpoint(path, named)
    loaded = load_checkpoint(path)
    assert list(loaded) == [name for name, _ in named]
    for name, arr in named:
        assert np.array_equal(loaded[name], arr)


def test_magic_and_layout(tmp_path):
    path = tmp_path / "m.gclc"
    save_checkpoint(path, [("w", np.zeros((2, 2)))])
    data = path.read_bytes()
    assert data[:4] == MAGIC
    assert data[4:6] == (1).to_bytes(2, "little")
    # name length, name, rank, dims
    assert data[6:8] == (1).to_bytes(2, "little")
    assert data[8:9] == b"w"
    assert data[9] == 2
    assert int.from_bytes(data[10:14], "little") == 2


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="bad magic"):
        load_checkpoint(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "v9.gclc"
    path.write_bytes(MAGIC + (9).to_bytes(2, "little"))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


def test_byte_identical_for_same_input(tmp_path):
    arrs = [("a", np.arange(6, dtype=float).reshape(2, 3))]
    save_checkpoint(tmp_path / "1.gclc", arrs)
    save_checkpoint(tmp_path / "2.gclc", arrs)
    assert (tmp_path / "1.gclc").read_bytes() == (tmp_path / "2.gclc").read_bytes()


def _saved(tmp_path):
    path = tmp_path / "m.gclc"
    save_checkpoint(path, [("ae.enc.0.w", np.ones((2, 3))), ("x_c", np.zeros((4, 2)))])
    return path, path.read_bytes()


@pytest.mark.parametrize(
    "cut, message",
    [
        (7, r"1 trailing byte\(s\) at byte 6"),  # inside the first name length
        (12, r"truncated entry name at byte 8: needs 10 bytes, 4 left"),
        (-3, r"truncated payload of 'x_c' at byte \d+: needs 64 bytes, 61 left"),
    ],
)
def test_truncated_file_names_file_and_offset(tmp_path, cut, message):
    path, data = _saved(tmp_path)
    path.write_bytes(data[:cut])
    with pytest.raises(ValueError, match="m.gclc: " + message):
        load_checkpoint(path)


def test_trailing_byte_rejected(tmp_path):
    path, data = _saved(tmp_path)
    path.write_bytes(data + b"\x00")
    with pytest.raises(ValueError, match=rf"m.gclc: 1 trailing byte\(s\) at byte {len(data)}"):
        load_checkpoint(path)


def test_duplicate_entry_names_entry_and_offset(tmp_path):
    path = tmp_path / "m.gclc"
    first = ("x_c", np.zeros((4, 2)))
    save_checkpoint(path, [first, ("w", np.ones((1, 3))), first])
    # magic, version, then "x_c": name length, 3 name bytes, rank, 2 dims, 8 floats;
    # then "w": name length, 1 name byte, rank, 2 dims, 3 floats.
    offset = 4 + 2 + (2 + 3 + 1 + 8 + 64) + (2 + 1 + 1 + 8 + 24)
    with pytest.raises(ValueError, match=rf"m.gclc: duplicate entry 'x_c' at byte {offset}$"):
        load_checkpoint(path)


_names = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)
_matrices = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=5),
    elements=st.floats(width=64),
)


@settings(max_examples=60, deadline=None)
@given(named=st.lists(st.tuples(_names, _matrices), max_size=5, unique_by=lambda e: e[0]))
@example(named=[("rows", np.zeros((0, 3))), ("cols", np.zeros((2, 0))), ("one", np.ones((1, 1)))])
@example(named=[("größe", np.full((1, 1), -0.0)), ("重み", np.arange(6.0).reshape(2, 3))])
def test_round_trip_property(tmp_path_factory, named):
    path = tmp_path_factory.mktemp("roundtrip") / "m.gclc"
    save_checkpoint(path, named)
    loaded = load_checkpoint(path)
    assert list(loaded) == [name for name, _ in named]
    for name, arr in named:
        assert loaded[name].shape == arr.shape
        assert np.array_equal(loaded[name], arr, equal_nan=True)


def _interrupted_checkpoint(path):
    def entries():
        yield "w", np.ones((3, 3))
        raise RuntimeError("interrupted")

    save_checkpoint(path, entries())


def _interrupted_table(path):
    metrics = {"acc": 1.0, "nmi": 1.0, "ari": 1.0, "f1": 1.0}
    write_result_table(path, [{"variant": "a", **metrics}, {"variant": "b"}], ("variant",))


def _interrupted_text(path):
    with atomic_open(path) as fh:
        fh.write("partial\n")
        raise RuntimeError("interrupted")


def _interrupted_graph(path):
    def rows():
        yield np.zeros(2)
        raise RuntimeError("interrupted")

    g = SimpleNamespace(features=rows(), edges=(), labels=None)
    save_graph(g, path, path.with_name("edges.txt"))


@pytest.mark.parametrize("write, error", [
    (_interrupted_checkpoint, RuntimeError),
    (_interrupted_table, KeyError),  # the second row lacks its metrics
    (_interrupted_text, RuntimeError),
    (_interrupted_graph, RuntimeError),  # after the first feature row
])
def test_failed_write_keeps_previous_file(tmp_path, write, error):
    path = tmp_path / "out"
    path.write_bytes(b"previous")
    with pytest.raises(error):
        write(path)
    assert path.read_bytes() == b"previous"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_atomic_write_replaces_file(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("old\n")
    with atomic_open(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["labels.txt"]
