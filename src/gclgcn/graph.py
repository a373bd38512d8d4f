"""Attributed-graph data model, text-file ingestion, and synthetic generators.

Graphs are undirected and unweighted. Edge lists store each pair once as
(min, max); adjacency matrices are scipy CSR arrays whose column indices
ascend within each row. All containers are frozen after construction so
graphs can be shared freely.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .checkpoint import read_lines, write_table

__all__ = [
    "Graph",
    "SbmSpec",
    "support_pairs",
    "adjacency_matrix",
    "normalize_adjacency",
    "generate_sbm",
    "load_graph",
    "read_labels",
    "save_graph",
]

@dataclass(frozen=True)
class Graph:
    """Immutable attributed graph: features, undirected edges, optional labels."""

    features: np.ndarray
    edges: tuple[tuple[int, int], ...]
    labels: np.ndarray | None = None

    def __post_init__(self):
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)

        n = feats.shape[0]
        canon = []
        seen = set()
        for edge in self.edges:
            try:
                u, v = map(operator.index, edge)
            except (TypeError, ValueError):
                raise ValueError(f"edge {edge!r} is not a pair of integer node ids") from None
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                raise ValueError(f"duplicate edge {pair}")
            seen.add(pair)
            canon.append(pair)
        object.__setattr__(self, "edges", tuple(canon))

        if self.labels is not None:
            labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
            if labels.shape != (n,):
                raise ValueError(
                    f"labels length {labels.shape} does not match n={n}"
                )
            if labels.size and labels.min() < 0:
                raise ValueError(f"labels must be >= 0, got {labels.min()}")
            labels.setflags(write=False)
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def f(self) -> int:
        return self.features.shape[1]

    def degrees(self) -> np.ndarray:
        ends = np.asarray(self.edges, dtype=np.int64).ravel()
        return np.bincount(ends, minlength=self.n).astype(np.int64, copy=False)


@dataclass(frozen=True)
class SbmSpec:
    """Planted-partition generator spec: block sizes, edge probabilities, feature model."""

    block_sizes: tuple[int, ...]
    p_in: float
    p_out: float
    means: np.ndarray  # (k, f) per-block feature means
    noise_std: float = 0.0

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.block_sizes)
        if not sizes or any(s <= 0 for s in sizes):
            raise ValueError(f"block sizes must be positive, got {sizes}")
        object.__setattr__(self, "block_sizes", sizes)
        for name, p in (("p_in", self.p_in), ("p_out", self.p_out)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name}={p} outside [0, 1]")
        means = np.asarray(self.means, dtype=np.float64)
        if means.ndim != 2 or means.shape[0] != len(sizes):
            raise ValueError(
                f"means must be (k, f) with k={len(sizes)}, got {means.shape}"
            )
        if not np.isfinite(means).all():
            raise ValueError("means must be finite")
        object.__setattr__(self, "means", means)
        if not 0.0 <= self.noise_std < np.inf:
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std!r}")

    @property
    def n(self) -> int:
        return sum(self.block_sizes)


def support_pairs(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of every edge in both orientations plus every self-loop,
    sorted row-major. This is the sparsity pattern of normalize_adjacency(g)
    and the entry order of spatial_bias(g): the attention support."""
    e = np.asarray(g.edges, dtype=np.int64).reshape(-1, 2)
    loops = np.arange(g.n, dtype=np.int64)
    rows = np.concatenate([e[:, 0], e[:, 1], loops])
    cols = np.concatenate([e[:, 1], e[:, 0], loops])
    order = np.lexsort((cols, rows))
    return rows[order], cols[order]


def _csr(n: int, rows: np.ndarray, cols: np.ndarray, data: np.ndarray) -> sp.csr_array:
    """CSR array from entries already sorted row-major."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return sp.csr_array((data, cols, indptr), shape=(n, n))


def adjacency_matrix(g: Graph) -> sp.csr_array:
    """Binary adjacency in CSR, both orientations of every edge, no self-loops."""
    rows, cols = support_pairs(g)
    off = rows != cols
    return _csr(g.n, rows[off], cols[off], np.ones(int(off.sum())))


def normalize_adjacency(g: Graph) -> sp.csr_array:
    """D^{-1/2} (A+I) D^{-1/2} with self-loop degrees d_i = 1 + deg(i), in
    CSR with read-only entries and the pattern support_pairs(g).

    Exactly symmetric by construction: entry (i, j) is 1 / sqrt(d_i * d_j),
    and the product commutes.
    """
    rows, cols = support_pairs(g)
    dhat = np.bincount(rows, minlength=g.n).astype(np.float64)  # = 1 + degree
    data = 1.0 / np.sqrt(dhat[rows] * dhat[cols])
    data.setflags(write=False)
    return _csr(g.n, rows, cols, data)


# generate_sbm draws its edge coins in blocks of rows of about this many
# elements, so no n x n array is formed (at n=10k the whole matrix took 2 GB).
_SBM_BLOCK_ELEMENTS = 1 << 20


def generate_sbm(spec: SbmSpec, seed: int) -> Graph:
    """Sample a planted-partition graph; identical (spec, seed) gives identical output.

    Edge coin flips are drawn first (upper triangle, row-major), then feature
    noise, so the draw order is part of the determinism contract. The coins
    are one uniform per entry of the n x n matrix, row-major, drawn a block
    of rows at a time: the blocks continue one stream, so they are the
    doubles of a single n x n draw.
    """
    rng = np.random.default_rng(seed)
    n = spec.n
    labels = np.repeat(np.arange(len(spec.block_sizes)), spec.block_sizes)

    edges = []
    step = max(1, _SBM_BLOCK_ELEMENTS // n)
    for lo in range(0, n, step):
        rows = np.arange(lo, min(n, lo + step))
        u = rng.random((rows.size, n))
        prob = np.where(labels[rows, None] == labels[None, :], spec.p_in, spec.p_out)
        hit = (u < prob) & (np.arange(n)[None, :] > rows[:, None])
        edges.extend((int(i) + lo, int(j)) for i, j in np.argwhere(hit))

    feats = spec.means[labels]
    if spec.noise_std > 0:
        feats = feats + spec.noise_std * rng.standard_normal((n, spec.means.shape[1]))
    return Graph(features=feats, edges=tuple(edges), labels=labels)


def load_graph(
    features_path: str | Path,
    edges_path: str | Path,
    labels_path: str | Path | None = None,
) -> Graph:
    """Read features.csv / edges.txt / labels.txt into a validated Graph.

    Each file is read by checkpoint.read_lines, so "#" comments and blank
    lines may appear anywhere. Duplicate and reversed edge lines collapse to
    one stored pair; self-loop lines and non-finite feature values are
    rejected with their line number.
    """
    rows: list[list[float]] = []
    linenos: list[int] = []
    for lineno, row in read_lines(features_path, "feature row",
                                  lambda text: [float(tok) for tok in text.split(",")]):
        if rows and len(row) != len(rows[0]):
            raise ValueError(
                f"{features_path}:{lineno}: expected {len(rows[0])} columns, got {len(row)}"
            )
        rows.append(row)
        linenos.append(lineno)
    if not rows:
        raise ValueError(f"{features_path}: no feature rows")
    features = np.array(rows, dtype=np.float64)
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        lineno = linenos[int(np.argmin(finite))]
        raise ValueError(f"{features_path}:{lineno}: non-finite feature value")
    n = features.shape[0]

    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, ends in read_lines(edges_path, "edge endpoints",
                                   lambda text: [int(tok) for tok in text.split()]):
        if len(ends) != 2:
            raise ValueError(f"{edges_path}:{lineno}: expected two endpoints, got {len(ends)}")
        u, v = ends
        if u == v:
            raise ValueError(f"{edges_path}:{lineno}: self-loop rejected")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"{edges_path}:{lineno}: endpoint out of range (n={n})")
        pair = (u, v) if u < v else (v, u)
        if pair not in seen:
            seen.add(pair)
            pairs.append(pair)

    labels = None
    if labels_path is not None:
        labels = read_labels(labels_path)
        if labels.size != n:
            raise ValueError(
                f"{labels_path}: {labels.size} labels for {n} feature rows"
            )

    return Graph(features=features, edges=tuple(pairs), labels=labels)


def read_labels(path: str | Path) -> np.ndarray:
    """One non-negative int64 label per line that holds more than a
    comment."""
    values: list[int] = []
    for lineno, label in read_lines(path, "label", int):
        if label < 0:
            raise ValueError(f"{path}:{lineno}: negative label")
        if label >= 1 << 63:
            raise ValueError(f"{path}:{lineno}: label does not fit in 64 bits")
        values.append(label)
    if not values:
        raise ValueError(f"{path}: no labels")
    return np.array(values, dtype=np.int64)


def save_graph(
    g: Graph,
    features_path: str | Path,
    edges_path: str | Path,
    labels_path: str | Path | None = None,
) -> None:
    """Write the text formats read by load_graph, each file atomically; float
    text round-trips exactly."""
    if labels_path is not None and g.labels is None:
        raise ValueError("graph has no labels to save")
    write_table(features_path, g.features)
    write_table(edges_path, g.edges, delimiter=" ")
    if labels_path is not None:
        write_table(labels_path, ([y] for y in g.labels))
