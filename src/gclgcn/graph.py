"""Attributed-graph data model, text-file ingestion, and synthetic generators.

Graphs are undirected and unweighted. Edge lists store each pair once as
(min, max); adjacency matrices are scipy CSR arrays whose column indices
ascend within each row. All containers are frozen after construction so
graphs can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .checkpoint import atomic_open

__all__ = [
    "Graph",
    "SbmSpec",
    "support_pairs",
    "adjacency_matrix",
    "normalize_adjacency",
    "shortest_path_hops",
    "generate_sbm",
    "load_graph",
    "read_labels",
    "save_graph",
]

# Round-trips IEEE doubles exactly through decimal text.
FLOAT_FMT = "%.17g"


@dataclass(frozen=True)
class Graph:
    """Immutable attributed graph: features, undirected edges, optional labels."""

    features: np.ndarray
    edges: tuple[tuple[int, int], ...]
    labels: np.ndarray | None = None
    k: int | None = None

    def __post_init__(self):
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)

        n = feats.shape[0]
        canon = []
        seen = set()
        for u, v in self.edges:
            u, v = int(u), int(v)
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
            k = self.k if self.k is not None else int(labels.max()) + 1 if n else 0
            if labels.size and (labels.min() < 0 or labels.max() >= k):
                raise ValueError(f"labels must lie in [0, {k})")
            labels.setflags(write=False)
            object.__setattr__(self, "labels", labels)
            object.__setattr__(self, "k", k)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def f(self) -> int:
        return self.features.shape[1]

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


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
        object.__setattr__(self, "means", means)
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")

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


def shortest_path_hops(g: Graph) -> np.ndarray:
    """All-pairs hop counts (scipy csgraph, unit edge weights); unreachable
    pairs hold the sentinel n."""
    dist = csgraph.shortest_path(
        adjacency_matrix(g), method="D", directed=False, unweighted=True
    )
    dist[np.isinf(dist)] = g.n
    return dist.astype(np.int64)


def generate_sbm(spec: SbmSpec, seed: int) -> Graph:
    """Sample a planted-partition graph; identical (spec, seed) gives identical output.

    Edge coin flips are drawn first (upper triangle, row-major), then feature
    noise, so the draw order is part of the determinism contract.
    """
    rng = np.random.default_rng(seed)
    n = spec.n
    labels = np.repeat(np.arange(len(spec.block_sizes)), spec.block_sizes)

    u = rng.random((n, n))
    same = labels[:, None] == labels[None, :]
    prob = np.where(same, spec.p_in, spec.p_out)
    hit = (u < prob) & np.triu(np.ones((n, n), dtype=bool), k=1)
    edges = tuple((int(i), int(j)) for i, j in np.argwhere(hit))

    feats = spec.means[labels]
    if spec.noise_std > 0:
        feats = feats + spec.noise_std * rng.standard_normal((n, spec.means.shape[1]))
    return Graph(features=feats, edges=edges, labels=labels, k=len(spec.block_sizes))


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0].strip()


def load_graph(
    features_path: str | Path,
    edges_path: str | Path,
    labels_path: str | Path | None = None,
) -> Graph:
    """Read features.csv / edges.txt / labels.txt into a validated Graph.

    Duplicate and reversed edge lines collapse to one stored pair; self-loop
    lines are rejected with the offending line number.
    """
    features_path = Path(features_path)
    edges_path = Path(edges_path)

    rows: list[list[float]] = []
    with features_path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError:
                raise ValueError(
                    f"{features_path}:{lineno}: could not parse feature row"
                ) from None
            if len(rows[-1]) != len(rows[0]):
                raise ValueError(
                    f"{features_path}:{lineno}: expected {len(rows[0])} columns,"
                    f" got {len(rows[-1])}"
                )
    if not rows:
        raise ValueError(f"{features_path}: no feature rows")
    features = np.array(rows, dtype=np.float64)
    n = features.shape[0]

    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    with edges_path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = _strip_comment(line)
            if not line:
                continue
            toks = line.split()
            if len(toks) != 2:
                raise ValueError(
                    f"{edges_path}:{lineno}: expected two endpoints, got {len(toks)}"
                )
            try:
                u, v = int(toks[0]), int(toks[1])
            except ValueError:
                raise ValueError(
                    f"{edges_path}:{lineno}: could not parse edge endpoints"
                ) from None
            if u == v:
                raise ValueError(f"self-loop rejected at line {lineno} of {edges_path}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(
                    f"{edges_path}:{lineno}: endpoint out of range (n={n})"
                )
            pair = (u, v) if u < v else (v, u)
            if pair not in seen:
                seen.add(pair)
                pairs.append(pair)

    labels = None
    if labels_path is not None:
        labels_path = Path(labels_path)
        labels = read_labels(labels_path)
        if labels.size != n:
            raise ValueError(
                f"{labels_path}: {labels.size} labels for {n} feature rows"
            )

    return Graph(features=features, edges=tuple(pairs), labels=labels)


def read_labels(path: str | Path) -> np.ndarray:
    """One integer label per non-blank line."""
    values: list[int] = []
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(int(line))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: could not parse label") from None
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
    with atomic_open(features_path, newline="\n") as fh:
        for row in g.features:
            fh.write(",".join(FLOAT_FMT % x for x in row) + "\n")
    with atomic_open(edges_path, newline="\n") as fh:
        for u, v in g.edges:
            fh.write(f"{u} {v}\n")
    if labels_path is not None:
        with atomic_open(labels_path, newline="\n") as fh:
            for y in g.labels:
                fh.write(f"{int(y)}\n")
