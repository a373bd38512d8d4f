"""Node centrality measures and the per-edge spatial bias for attention.

Conventions (fixed so golden values are well defined):
  * degree is normalized by the maximum degree, the other measures are raw;
  * betweenness sums over unordered endpoint pairs (Brandes accumulation
    halved for undirected graphs);
  * closeness sums distances over reachable nodes only; an isolated node
    scores 0.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, adjacency_matrix, shortest_path_hops, support_pairs

__all__ = [
    "MEASURES",
    "degree_centrality",
    "betweenness_centrality",
    "closeness_centrality",
    "composite_centrality",
    "spatial_bias",
]

# Column order of the composite matrix.
MEASURES = ("degree", "betweenness", "closeness")

# Betweenness runs its breadth-first searches for a block of sources at once,
# on (n, block) matrices of about this many elements.
_SOURCE_BLOCK_ELEMENTS = 1 << 20


def degree_centrality(g: Graph) -> np.ndarray:
    deg = g.degrees().astype(np.float64)
    top = deg.max() if g.n else 0.0
    if top == 0:
        return np.zeros(g.n)
    return deg / top


def betweenness_centrality(g: Graph) -> np.ndarray:
    """Exact betweenness over unordered pairs on unit-weight shortest paths.

    Level-synchronous Brandes: for a block of sources at once, each
    breadth-first level is one sparse x dense product that sums the path
    counts sigma of the previous level, and the dependency accumulation walks
    the levels back with one product each. Blocks and levels run in a fixed
    order, so the floating-point result is bit-deterministic.
    """
    n = g.n
    adj = adjacency_matrix(g)
    score = np.zeros(n)
    block = max(1, min(n, _SOURCE_BLOCK_ELEMENTS // max(n, 1)))
    for lo in range(0, n, block):
        sources = np.arange(lo, min(lo + block, n))
        cols = np.arange(sources.size)
        level = np.full((n, sources.size), -1, dtype=np.int64)
        level[sources, cols] = 0
        sigma = np.zeros((n, sources.size))
        sigma[sources, cols] = 1.0
        frontier = sigma.copy()
        depth = 0
        while True:
            reach = adj @ frontier
            new = (level < 0) & (reach > 0)
            if not new.any():
                break
            depth += 1
            level[new] = depth
            frontier = np.where(new, reach, 0.0)
            sigma += frontier
        delta = np.zeros_like(sigma)
        for d in range(depth, 0, -1):
            share = np.divide(1.0 + delta, sigma, out=np.zeros_like(sigma), where=level == d)
            delta += np.where(level == d - 1, sigma * (adj @ share), 0.0)
        delta[sources, cols] = 0.0
        score += delta.sum(axis=1)
    # Each unordered pair was counted from both endpoints.
    return score / 2.0


def closeness_centrality(g: Graph) -> np.ndarray:
    """1 / (sum of hop distances to the reachable nodes); an isolated node scores 0."""
    hops = shortest_path_hops(g)
    total = np.where(hops < g.n, hops, 0).sum(axis=1)
    out = np.zeros(g.n)
    np.divide(1.0, total, out=out, where=total > 0)
    return out


_MEASURE_FN = {
    "degree": degree_centrality,
    "betweenness": betweenness_centrality,
    "closeness": closeness_centrality,
}


def composite_centrality(g: Graph, measures=MEASURES) -> np.ndarray:
    """Read-only (n, m) matrix of the enabled measures as columns, always in
    MEASURES order."""
    wanted = tuple(m for m in MEASURES if m in set(measures))
    unknown = set(measures) - set(MEASURES)
    if unknown:
        raise ValueError(f"unknown centrality measures: {sorted(unknown)}")
    if not wanted:
        raise ValueError("at least one centrality measure must be enabled")
    values = np.column_stack([_MEASURE_FN[m](g) for m in wanted])
    values.setflags(write=False)
    return values


def spatial_bias(g: Graph, mode: str = "euclidean") -> np.ndarray:
    """Read-only bias d(i, j) for each entry of the attention support, in the
    order of graph.support_pairs: shape (2 * edges + n,), symmetric, zero on
    the self-loops.

    euclidean: feature-space distance between the endpoints.
    shortest-path: hop distance, which is 1 on every edge because attention
    only reaches neighbours; the mode is a constant neighbour bias of 1.
    """
    if mode not in ("euclidean", "shortest-path"):
        raise ValueError(f"unknown spatial mode {mode!r}")
    rows, cols = support_pairs(g)
    if mode == "euclidean":
        diff = g.features[rows] - g.features[cols]
        values = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    else:
        values = (rows != cols).astype(np.float64)
    values.setflags(write=False)
    return values
