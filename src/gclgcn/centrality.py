"""Node centrality measures and the per-edge spatial bias for attention.

Conventions (fixed so golden values are well defined):
  * degree is normalized by the maximum degree, the other measures are raw;
  * betweenness sums over unordered endpoint pairs (Brandes accumulation
    halved for undirected graphs);
  * closeness sums distances over reachable nodes only; an isolated node
    scores 0.

Betweenness and closeness read one breadth-first sweep from every node
(_shortest_paths), which runs a block of sources at a time in O(n * block)
memory and forms no all-pairs distance matrix. composite_centrality runs it
once for both.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, adjacency_matrix, support_pairs

__all__ = [
    "MEASURES",
    "SPATIAL_MODES",
    "degree_centrality",
    "betweenness_centrality",
    "closeness_centrality",
    "composite_centrality",
    "spatial_bias",
]

# Column order of the composite matrix.
MEASURES = ("degree", "betweenness", "closeness")

# The distances spatial_bias can put on an attention edge.
SPATIAL_MODES = ("euclidean", "shortest-path")

# The sweep runs its breadth-first searches for a block of sources at once,
# on (n, block) matrices of about this many elements.
_SOURCE_BLOCK_ELEMENTS = 1 << 20


def degree_centrality(g: Graph) -> np.ndarray:
    deg = g.degrees().astype(np.float64)
    top = deg.max() if g.n else 0.0
    if top == 0:
        return np.zeros(g.n)
    return deg / top


def _shortest_paths(g: Graph, dependencies: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """One level-synchronous breadth-first search from every node: each
    node's hop total, the integer sum of its distances to the nodes it
    reaches, and, when dependencies, its Brandes dependency summed over every
    source (each unordered pair counted from both endpoints), else None.

    For a block of sources at once, each level is one sparse x dense product
    that sums the path counts sigma of the previous level; the dependency
    accumulation walks the levels back with one product each. Blocks and
    levels run in a fixed order, so the floating-point result is
    bit-deterministic.
    """
    n = g.n
    adj = adjacency_matrix(g)
    hops = np.zeros(n, dtype=np.int64)
    score = np.zeros(n) if dependencies else None
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
            hops[sources] += depth * new.sum(axis=0)
            frontier = np.where(new, reach, 0.0)
            sigma += frontier
        if score is None:
            continue
        delta = np.zeros_like(sigma)
        for d in range(depth, 0, -1):
            share = np.divide(1.0 + delta, sigma, out=np.zeros_like(sigma), where=level == d)
            delta += np.where(level == d - 1, sigma * (adj @ share), 0.0)
        delta[sources, cols] = 0.0
        score += delta.sum(axis=1)
    return hops, score


def betweenness_centrality(g: Graph, paths=None) -> np.ndarray:
    """Exact betweenness over unordered pairs on unit-weight shortest paths,
    by level-synchronous Brandes. paths is a _shortest_paths(g, True) result
    the caller already has."""
    _, score = paths if paths is not None else _shortest_paths(g, dependencies=True)
    # Each unordered pair was counted from both endpoints.
    return score / 2.0


def closeness_centrality(g: Graph, paths=None) -> np.ndarray:
    """1 / (sum of hop distances to the reachable nodes); an isolated node
    scores 0. paths is a _shortest_paths(g, ...) result the caller already
    has."""
    total, _ = paths if paths is not None else _shortest_paths(g, dependencies=False)
    out = np.zeros(g.n)
    np.divide(1.0, total, out=out, where=total > 0)
    return out


# Each measure as composite_centrality calls it, with the graph and the
# shared sweep (None when no wanted measure reads it).
_MEASURE_FN = {
    "degree": lambda g, paths: degree_centrality(g),
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
    paths = None
    if "betweenness" in wanted or "closeness" in wanted:
        paths = _shortest_paths(g, dependencies="betweenness" in wanted)
    values = np.column_stack([_MEASURE_FN[m](g, paths) for m in wanted])
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
    if mode not in SPATIAL_MODES:
        raise ValueError(f"unknown spatial mode {mode!r}")
    rows, cols = support_pairs(g)
    if mode == "euclidean":
        diff = g.features[rows] - g.features[cols]
        values = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    else:
        values = (rows != cols).astype(np.float64)
    values.setflags(write=False)
    return values
