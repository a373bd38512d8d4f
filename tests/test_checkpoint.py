import struct

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from types import SimpleNamespace

from gclgcn.checkpoint import MAGIC, atomic_open, load_checkpoint, save_checkpoint, write_table
from gclgcn.graph import save_graph


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


def _entry(name: bytes, shape, payload: bytes = b"") -> bytes:
    """One entry as the file lays it out: name length, name, rank, dims,
    then payload."""
    return (struct.pack("<H", len(name)) + name + struct.pack("<B", len(shape))
            + struct.pack(f"<{len(shape)}I", *shape) + payload)


# Past int64 the product of the dims wraps: (2**31, 2**31, 4) to 0, and four
# dims of 2**32 - 1 to a negative count.
@pytest.mark.parametrize("shape, size", [
    ((2**31, 2**31, 4), 8 * 2**64),
    ((2**32 - 1,) * 4, 8 * (2**32 - 1) ** 4),
])
def test_oversized_shape_is_a_truncated_payload(tmp_path, shape, size):
    path = tmp_path / "m.gclc"
    path.write_bytes(MAGIC + struct.pack("<H", 1) + _entry(b"w", shape, b"\0" * 16))
    offset = 4 + 2 + 2 + 1 + 1 + 4 * len(shape)
    with pytest.raises(ValueError, match=rf"m.gclc: truncated payload of 'w' at byte {offset}: "
                                         rf"needs {size} bytes, 16 left$"):
        load_checkpoint(path)


def test_rank_zero_entry_holds_one_value(tmp_path):
    path = tmp_path / "m.gclc"
    path.write_bytes(MAGIC + struct.pack("<H", 1) + _entry(b"s", (), struct.pack("<d", 2.5)))
    loaded = load_checkpoint(path)
    assert loaded["s"].shape == () and loaded["s"] == 2.5


def test_name_not_utf8_names_file_and_offset(tmp_path):
    path = tmp_path / "m.gclc"
    good = _entry(b"w", (1,), b"\0" * 8)
    path.write_bytes(MAGIC + struct.pack("<H", 1) + good + _entry(b"a\xff", (1,), b"\0" * 8))
    offset = 4 + 2 + len(good) + 2
    with pytest.raises(ValueError, match=rf"m.gclc: entry name at byte {offset} is not UTF-8$"):
        load_checkpoint(path)


def test_rank_past_numpy_names_file_and_entry(tmp_path):
    path = tmp_path / "m.gclc"
    path.write_bytes(MAGIC + struct.pack("<H", 1) + _entry(b"w", (1,) * 100, b"\0" * 8))
    with pytest.raises(ValueError, match=r"m.gclc: entry 'w' at byte 6: maximum supported "):
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
    def rows():
        yield "variant", "acc"
        yield "a", 1.0
        raise RuntimeError("interrupted")

    write_table(path, rows())


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
    (_interrupted_table, RuntimeError),  # after the header and the first row
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


def test_table_cells_by_type(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, [
        ("name", "int", "int64", "float", "nan", "inf"),
        ("a", 7, np.int64(-3), np.float64(0.1), float("nan"), -np.inf),
        ("b", True, np.arange(3)[2], 1.0, 2.5, 1e300),
    ])
    assert path.read_bytes() == (
        b"name,int,int64,float,nan,inf\n"
        b"a,7,-3,0.10000000000000001,nan,-inf\n"
        b"b,1,2,1,2.5,1.0000000000000001e+300\n"
    )


def test_table_quotes_a_cell_holding_the_delimiter(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, [("variant", "f1"), ("DC, BC and CC + SPD", 0.5), ("DC + ED", 0.25)])
    assert path.read_text() == 'variant,f1\n"DC, BC and CC + SPD",0.5\nDC + ED,0.25\n'
    write_table(path, [(0, 1), (2, 3)], delimiter=" ")
    assert path.read_text() == "0 1\n2 3\n"


def test_table_without_a_path_goes_to_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_table(None, [("acc", "f1"), (1.0, 0.5)])
    assert capsys.readouterr().out == "acc,f1\n1,0.5\n"
    assert list(tmp_path.iterdir()) == []  # no file was written either
