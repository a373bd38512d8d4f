"""Reverse-mode differentiation on an eagerly built tape.

Every value is a 2-D float64 matrix (scalars are 1x1). Forward values are
computed immediately; each op records a closure that maps the upstream
gradient to per-parent gradients. The tape is rebuilt every iteration, and
every node stays alive at least until backward reaches it (until backward
ends, unless backward is asked to release the tape as it sweeps), so an op
keeps only the arrays its backward reads. Graph operators take a constant
scipy CSR matrix: matmul multiplies by it, always as its left operand,
and attention attends only over its sparsity pattern.

The layer ops are one node each where a composed form would keep every
intermediate: dense (x @ w + b), propagate (adj @ z @ w) and attention
(multi-head attention over a sparse pattern, reading z with the centrality
columns appended), each optionally followed by leaky ReLU at LEAKY_SLOPE.
An activated op keeps no mask: its output is positive exactly where its
input was, so the backward reads the sign from the output the node already
holds.
propagate and attention pick their association from the shapes: propagate
runs the sparse product on the narrower side, and attention, when a layer
widens (d_in + centrality columns < head width), scores q . k through the
small W~q W~k^T and applies W~v after attending, so it never forms q, k or
v. Otherwise each op computes its forward with the numpy calls of its
composed form, in the same order, so its values match that form's bit for
bit; the reassociated forms match to rounding.

Both also take the epsilon-injection: with inject = (eps, h) the op reads
h * eps + z * (1 - eps), formed with weighted_sum's numpy calls, so it has
the bits a weighted_sum node of it would have. The tape keeps only what
backward cannot rebuild in a few milliseconds: neither op keeps its input
or adj @ z, nor the narrow attention form its z~, P or att @ z~; a weight
gradient rebuilds what it reads with the forward's calls (gradient
checkpointing, Chen et al., arXiv:1604.06174, for what sets the peak).

The glue between the layers is weighted_sum, one node for any linear
combination of same-shape tensors: the fused bottleneck, the joint
reconstruction and the loss total. It sums left to right, as the chain of
scalings and additions it stands for, so it matches that chain bit for bit;
a weight of 1.0 is exact.

The two whole-graph losses, info_nce (the contrastive InfoNCE over every
node pair) and decoder_mse (the inner-product adjacency decoder against a
sparse target), are one node each too. Each sweeps blocks of _LOSS_ROWS
whole rows once, forming the loss and its input gradients together, so no
n x n array outlives a block and the node keeps only the O(n d) gradients.
They sum in another order than their composed forms, so they match those to
rounding (a few 1e-15 relative), not bit for bit.

The clustering head is one node: cluster_kl records alpha KL(P||Q) +
beta KL(Q||Q') over both Student-t assignments with their closed-form
gradients, where the composed form recorded 53 nodes. Q and Q' come from
cluster.student_t, whose numpy calls are that form's, so they match it bit
for bit; the node hands them back.

backward hands each finished gradient to an AdamState rather than storing
it, so no parameter-sized gradient store outlives the sweep. It counts each
leaf's consumers while it orders the tape, and a leaf's gradient is finished
when its last contribution arrives (a leaf reached twice sums its
contributions in sweep order); the state folds it into Adam's moments at
once. dense, propagate and attention write a weight's gradient into a
scratch buffer the state owns and lends, and adam_step applies the update
from the moments afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .cluster import student_t, target_distribution

__all__ = [
    "Tensor",
    "constant",
    "parameter",
    "backward",
    "AdamState",
    "adam_step",
    "matmul",
    "weighted_sum",
    "dense",
    "propagate",
    "attention",
    "info_nce",
    "decoder_mse",
    "cluster_kl",
    "relu",
    "mse",
]

# Negative-side slope of the leaky ReLU of the activated layer ops.
LEAKY_SLOPE = 0.01


class Tensor:
    """Node in the differentiation graph: value and backward rule."""

    __slots__ = ("value", "requires_grad", "name", "_parents", "_rule", "_needs", "_sweep")

    def __init__(
        self,
        value,
        requires_grad: bool = False,
        name: str | None = None,
        _parents: tuple["Tensor", ...] = (),
        _rule: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None,
    ):
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ValueError(f"tensor values must be at most 2-D, got {arr.shape}")
        self.value = arr
        self.requires_grad = requires_grad
        self.name = name
        self._parents = _parents
        self._rule = _rule
        self._needs = requires_grad or any(p._needs for p in _parents)
        # the _Sweep of the running backward that collects this leaf's gradient
        self._sweep = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def __repr__(self):
        tag = self.name or ("param" if self.requires_grad else "tensor")
        return f"Tensor({tag}, shape={self.shape})"


def constant(value, name: str | None = None) -> Tensor:
    return Tensor(value, requires_grad=False, name=name)


def parameter(value, name: str | None = None) -> Tensor:
    """A trainable leaf holding a C-contiguous copy of value."""
    return Tensor(np.array(value, dtype=np.float64, order="C"), requires_grad=True, name=name)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _check(cond: bool, op: str, msg: str) -> None:
    if not cond:
        raise ValueError(f"{op}: {msg}")


class _Sweep:
    """Where one running backward collects each leaf's gradient. A leaf's
    gradient is finished when its last contribution arrives: it is then
    handed to state.absorb under the leaf's index in the parameter list, and
    the scratch buffer it was summed in goes back to the state."""

    def __init__(self, uses: dict[int, int], state: "AdamState", index: dict[int, int]):
        self.uses = uses  # id(leaf) -> contributions still to come
        self.state, self.index = state, index
        self.sums: dict[int, np.ndarray] = {}  # id(leaf) -> the sum so far
        self.held: dict[int, np.ndarray] = {}  # id(leaf) -> the buffer store lent it
        self.finished: set[int] = set()

    def store(self, t: Tensor) -> np.ndarray:
        """A scratch buffer the state lends for t's gradient, which nothing
        else reads."""
        buf = self.state._lend(t.shape)
        self.held[id(t)] = buf
        return buf

    def give(self, t: Tensor, g: np.ndarray) -> None:
        """Add one contribution g to leaf t's gradient: the first is written
        into store(t) unless an op already wrote it there or it is t's only
        one, which is absorbed where it is; later ones are added in place."""
        key = id(t)
        self.uses[key] -= 1
        acc = self.sums.pop(key, None)
        if acc is not None:
            acc += g
        elif g is self.held.get(key) or (not self.uses[key] and g.flags.c_contiguous):
            acc = g
        else:
            acc = self.store(t)
            np.copyto(acc, g)
        if self.uses[key]:
            self.sums[key] = acc
        else:
            self.finish(t, acc)

    def finish(self, t: Tensor, acc: np.ndarray) -> None:
        key = id(t)
        self.finished.add(key)
        self.state.absorb(self.index[key], acc)
        buf = self.held.pop(key, None)
        if buf is not None:
            self.state._give_back(buf)

    def finish_rest(self, leaves: Sequence[Tensor]) -> None:
        """Finish every leaf whose contributions did not all arrive; one
        that got none, as a listed parameter the loss does not reach, gets
        zeros."""
        for t in leaves:
            if id(t) not in self.finished:
                acc = self.sums.pop(id(t), None)
                if acc is None:
                    acc = self.store(t)
                    acc.fill(0.0)
                self.finish(t, acc)


def backward(
    loss: Tensor,
    params: Sequence[Tensor],
    state: "AdamState",
    release: bool = False,
) -> None:
    """Hand state (an AdamState built for params, which must hold every leaf
    the loss reaches) the gradient of a scalar loss with respect to each of
    params, zeros for one the loss does not reach: each goes to
    state.absorb as soon as its last contribution arrives, and
    adam_step(params, state) then applies the update. No gradient is kept.

    Visits nodes in reverse topological order exactly once. A leaf's
    contributions are summed in traversal order; an op that asks
    _grad_buffer for a leaf's first one writes it straight into the buffer
    the sum is kept in. Only inner nodes collect theirs in pending.

    Without release the tape is left intact, so a second call hands over
    the same gradients. With release, each inner node drops its rule and
    parents as soon as the sweep passes it, so the arrays its rule keeps,
    and every node the caller does not hold, are freed during the sweep
    rather than after it; the gradients are the same bytes. A later backward
    through a released node raises ValueError.
    """
    if loss.shape != (1, 1):
        raise ValueError(f"backward: loss must be 1x1, got {loss.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    uses = {id(loss): 1}  # the contributions each leaf will get
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen or not node._needs:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad:
                uses[id(p)] = uses.get(id(p), 0) + 1
            stack.append((p, False))

    leaves = [t for t in topo if t.requires_grad]
    leaves += [p for p in params if id(p) not in seen]
    index = {id(p): i for i, p in enumerate(params)}
    if len(params) != len(state.m):
        raise ValueError("backward: state was built for a different parameter list")
    for t in leaves:
        if id(t) not in index:
            raise ValueError(f"backward: the loss reaches {t!r}, which params does not list")
    state._free = list(state.scratch)
    sweep = _Sweep(uses, state, index)
    pending: dict[int, np.ndarray] = {}

    def give(node: Tensor, g: np.ndarray, upstream: np.ndarray | None) -> None:
        if node.requires_grad:
            sweep.give(node, g)
            return
        acc = pending.get(id(node))
        if acc is None:
            # Copy anything that aliases the upstream gradient: stored
            # buffers are accumulated into in place.
            pending[id(node)] = g.copy() if (g is upstream or g.base is not None) else g
        else:
            acc += g

    for t in leaves:
        t._sweep = sweep
    try:
        give(loss, np.ones((1, 1)), None)
        while topo:
            # Popping drops the sweep's own reference, so a released node
            # nothing else holds is freed here.
            node = topo.pop()
            g = pending.pop(id(node), None)
            if g is not None:
                # Only inner nodes get here: leaves take theirs in give.
                if node._rule is None:
                    raise ValueError("backward: the tape was released by an earlier "
                                     "backward(..., release=True)")
                for parent, pg in zip(node._parents, node._rule(g)):
                    if pg is not None and parent._needs:
                        give(parent, pg, g)
            if release and not node.requires_grad:
                node._rule = None
                node._parents = ()
        sweep.finish_rest(leaves)
    finally:
        for t in leaves:
            t._sweep = None


def _grad_buffer(t: Tensor) -> np.ndarray:
    """The array an op's backward rule writes t's gradient into: the
    running backward's store for t when this is t's first contribution,
    otherwise a new one."""
    sweep = t._sweep
    if sweep is None or id(t) in sweep.held:
        return np.empty(t.shape)
    return sweep.store(t)


# ---------------------------------------------------------------------------
# Op catalogue
# ---------------------------------------------------------------------------

def matmul(a: sp.csr_array, b: Tensor) -> Tensor:
    """a @ b for a constant scipy sparse matrix a, which gets no gradient;
    the backward gives b a^T g."""
    _check(sp.issparse(a), "matmul",
           f"left operand must be a sparse matrix, got {type(a).__name__}")
    b = _as_tensor(b)
    _check(a.shape[1] == b.shape[0], "matmul", f"inner dims differ: {a.shape} x {b.shape}")
    return Tensor(a @ b.value, _parents=(b,), _rule=lambda g: (a.T @ g,))


def weighted_sum(terms: Sequence[tuple[float, Tensor]]) -> Tensor:
    """w0 * x0 + w1 * x1 + ... over the (weight, tensor) pairs terms, all of
    one shape, as one node, summed left to right; the backward gives each
    x g * w and reads only the weights."""
    terms = [(float(w), _as_tensor(x)) for w, x in terms]
    _check(bool(terms), "weighted_sum", "no terms")
    shape = terms[0][1].shape
    for _, x in terms:
        _check(x.shape == shape, "weighted_sum", f"shapes differ: {shape} vs {x.shape}")
    out = terms[0][1].value * terms[0][0]
    for w, x in terms[1:]:
        out += x.value * w
    weights = [w if x._needs else None for w, x in terms]

    def rule(g):
        return tuple(None if w is None else g * w for w in weights)

    return Tensor(out, _parents=tuple(x for _, x in terms), _rule=rule)


# Elements per block of a sampled product's gathered rows and of the leaky
# ReLU pass: about 64k elements keep a block in cache (at n=900, width 2000,
# gathering every row at once ran 5x slower, and the leaky pass over the
# whole array 2.5x slower).
_GATHER_ELEMENTS = 1 << 16


def _cache_blocks(a: np.ndarray):
    """(lo, hi) of each cache-sized block of a's rows (hi may pass the end)."""
    step = max(1, _GATHER_ELEMENTS // max(1, a.shape[1]))
    for lo in range(0, a.shape[0], step):
        yield lo, lo + step


def _leaky_in_place(out: np.ndarray) -> None:
    """The leaky ReLU forward, max(x, LEAKY_SLOPE * x), written into out a
    cache-sized block of rows at a time, so its temporary is one block.

    Afterwards out > 0 exactly where x > 0: a positive x stays itself, and a
    NaN, a signed zero, -inf or a negative x (whose scaled value may
    underflow to -0.0) becomes a value that is not positive."""
    for lo, hi in _cache_blocks(out):
        block = out[lo:hi]
        np.maximum(block, block * LEAKY_SLOPE, out=block)


def _leaky_grad(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """g * np.where(x > 0, 1.0, LEAKY_SLOPE), bit for bit, where out is x
    after _leaky_in_place; it reads out's sign a cache-sized block of rows
    at a time, so the result is the only array it forms:
    1.0 * (1 - LEAKY_SLOPE) + LEAKY_SLOPE rounds to exactly 1.0."""
    s = np.empty_like(g)
    for lo, hi in _cache_blocks(out):
        block = s[lo:hi]
        np.greater(out[lo:hi], 0.0, out=block)
        block *= 1.0 - LEAKY_SLOPE
        block += LEAKY_SLOPE
        block *= g[lo:hi]
    return s


def dense(x: Tensor, w: Tensor, b: Tensor, activate: bool = False) -> Tensor:
    """x @ w + b (b is one row, broadcast), then leaky ReLU when activate,
    as one node. It keeps its output, from which an activated node's
    backward reads the sign."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    _check(x.shape[1] == w.shape[0], "dense", f"inner dims differ: {x.shape} x {w.shape}")
    _check(b.shape == (1, w.shape[1]), "dense", f"bias must be (1, {w.shape[1]}), got {b.shape}")
    xv, wv = x.value, w.value
    nx, nw, nb = x._needs, w._needs, b._needs
    out = xv @ wv
    out += b.value
    if activate:
        _leaky_in_place(out)

    def rule(g):
        if activate:
            g = _leaky_grad(g, out)
        return (
            g @ wv.T if nx else None,
            np.matmul(xv.T, g, out=_grad_buffer(w)) if nw else None,
            g.sum(axis=0, keepdims=True) if nb else None,
        )

    return Tensor(out, _parents=(x, w, b), _rule=rule)


class _Input:
    """The input a graph layer op reads: z, or with inject = (eps, h) the
    epsilon-blend h * eps + z * (1 - eps). The op forms the blend and does
    not keep it; value() rebuilds it where a backward reads it, and grads
    hands h and z their gradients as weighted_sum's rule would."""

    def __init__(self, op: str, z: Tensor, inject):
        self.z, self.h, self.eps = z, None, 0.0
        if inject is not None:
            eps, h = inject
            self.eps, self.h = float(eps), _as_tensor(h)
            _check(self.h.shape == z.shape, op,
                   f"injected input is {self.h.shape}, z is {z.shape}")
        self.parents = (z,) if self.h is None else (self.h, z)
        self.needs = any(p._needs for p in self.parents)

    def value(self, out: np.ndarray | None = None) -> np.ndarray:
        """z's value, or the blend with weighted_sum's two numpy calls in
        its order, h * eps then += z * (1 - eps), so its bits are
        weighted_sum's. Written into out when given; the second product is
        formed a cache-sized block of rows at a time."""
        zv = self.z.value
        if self.h is None:
            if out is None:
                return zv
            out[...] = zv
            return out
        out = np.multiply(self.h.value, self.eps, out=out)
        for lo, hi in _cache_blocks(out):
            out[lo:hi] += zv[lo:hi] * (1.0 - self.eps)
        return out

    def grads(self, dx: np.ndarray | None) -> tuple:
        """The gradients of parents from dx, the gradient of the input:
        dx for z alone, or dx * eps for h and dx * (1 - eps) for z; None
        for a parent that needs none. h's is scaled in place: dx is the op's
        own array, which nothing else reads."""
        if self.h is None or dx is None:
            return (dx,) if self.h is None else (None, None)
        dz = dx * (1.0 - self.eps) if self.z._needs else None
        if not self.h._needs:
            return (None, dz)
        dx *= self.eps
        return (dx, dz)


def propagate(adj: sp.csr_array, z: Tensor, w: Tensor, activate: bool = False,
              inject: tuple[float, Tensor] | None = None) -> Tensor:
    """adj @ x @ w over a constant sparse adj, associated so the sparse
    product runs on the narrower side, then leaky ReLU when activate, as one
    node. x is z, or with inject = (eps, h) the epsilon-blend
    h * eps + z * (1 - eps), whose parents are then h and z.

    It keeps its output, from which an activated node's backward reads the
    sign, and neither x nor adj @ x: the weight gradient rebuilds x, and,
    when (adj @ x) @ w is the association, adj @ x, with the forward's
    calls, so they are its bits."""
    z, w = _as_tensor(z), _as_tensor(w)
    _check(sp.issparse(adj), "propagate",
           f"adjacency must be a scipy sparse matrix, got {type(adj)}")
    _check(adj.shape[1] == z.shape[0] and z.shape[1] == w.shape[0], "propagate",
           f"inner dims differ: {adj.shape} x {z.shape} x {w.shape}")
    x = _Input("propagate", z, inject)
    wv = w.value
    nw = w._needs
    narrow_out = w.shape[1] < w.shape[0]
    out = adj @ (x.value() @ wv) if narrow_out else (adj @ x.value()) @ wv
    if activate:
        _leaky_in_place(out)

    def rule(g):
        if activate:
            g = _leaky_grad(g, out)
        gm = adj.T @ g if narrow_out else g
        # The weight gradient first, so the rebuilt x is freed before dx is formed.
        gw = None
        if nw:
            xw = x.value() if narrow_out else adj @ x.value()
            gw = np.matmul(xw.T, gm, out=_grad_buffer(w))
            del xw
        dx = None
        if x.needs:
            dx = gm @ wv.T if narrow_out else adj.T @ (g @ wv.T)
        return (*x.grads(dx), gw)

    return Tensor(out, _parents=(*x.parents, w), _rule=rule)


def _sampled_dots(a: np.ndarray, b: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """a[rows[e]] . b[cols[e]] for every entry e, gathered in cache-sized blocks."""
    out = np.empty(rows.size)
    step = max(1, _GATHER_ELEMENTS // max(1, a.shape[1]))
    for lo in range(0, rows.size, step):
        hi = lo + step
        out[lo:hi] = np.einsum("ij,ij->i", a[rows[lo:hi]], b[cols[lo:hi]])
    return out


def _accumulate(total: np.ndarray | None, part: np.ndarray) -> np.ndarray:
    """total + part, in place in total; part itself when total is None."""
    if total is None:
        return part
    total += part
    return total


def attention(
    z: Tensor,
    c: Tensor,
    w: Sequence[Tensor],
    pattern: sp.csr_array,
    bias: np.ndarray,
    heads: int = 1,
    activate: bool = False,
    inject: tuple[float, Tensor] | None = None,
) -> Tensor:
    """Multi-head attention restricted to the entries of a sparse pattern,
    over the input z~ = [x c] that appends the constant columns c to x, as
    one node. x is z, or with inject = (eps, h) the epsilon-blend
    h * eps + z * (1 - eps), whose parents are then h and z.

    w = (w_query, w_key, w_value) are (d + m, heads * d_head) weights W~ of
    z~: the rows for the d columns of x first, then the rows for the m
    columns of c; head h reads its d_head columns of each. Row i of head h
    attends over the columns j stored in pattern row i with logits
    scale * (z~_i W~q) . (z~_j W~k) + bias_e, scale = 1 / sqrt(d_head) and
    bias aligned with the pattern's entries; the softmax runs over each
    row's entries and the head's output is att @ (z~ W~v). The heads are
    averaged, then passed through leaky ReLU when activate. Every row needs
    at least one entry (use self-loops). Only the pattern's structure is
    read, never its values.

    The association follows the shapes, as propagate's does. When
    d + m < d_head (the layer widens), each head scores through the
    (d + m) x (d + m) matrix M = W~q W~k^T, P = z~ M, and applies W~v after
    attending, (att @ z~) W~v: no n x d_head array but each head's output
    is formed. The node keeps each head's M and att; its backward rebuilds
    z~, P and att @ z~ with the forward's calls, so they are its bits.
    Otherwise it forms q, k and v at full width without forming z~, with
    the numpy calls of the composed chain over W~'s row blocks (x @ W~[:d],
    then += c @ W~[d:], a column copy per head when heads > 1, the sampled
    logits, the softmax and att @ v), so its values match that chain's bit
    for bit; it keeps each head's q, k, v and att, and the weight gradients
    rebuild x. Either form keeps its output, from which an activated node's
    backward reads the sign, and neither keeps x.
    """
    z, c = _as_tensor(z), _as_tensor(c)
    w = tuple(map(_as_tensor, w))
    n, d = z.shape
    m = c.shape[1]
    _check(sp.issparse(pattern), "attention",
           f"pattern must be a scipy sparse matrix, got {type(pattern)}")
    _check(pattern.shape == (n, n), "attention",
           f"pattern is {pattern.shape}, expected one row and column per row of z, {(n, n)}")
    indptr, cols = pattern.indptr, pattern.indices
    counts = np.diff(indptr)
    _check(c.shape[0] == n, "attention", f"c has {c.shape[0]} rows for the {n} rows of z")
    _check(not c._needs, "attention", "c must be constant")
    _check(len(w) == 3, "attention", "w needs a query, key and value weight")
    width = w[0].shape[1]
    _check(all(t.shape == (d + m, width) for t in w), "attention",
           f"weights must be {(d + m, width)}, one row per column of z and c, got "
           f"{[t.shape for t in w]}")
    _check(heads >= 1 and width % heads == 0, "attention",
           f"{width} weight columns do not split into {heads} heads")
    _check(bool(np.all(counts > 0)), "attention", "every pattern row needs an entry")
    bias = np.asarray(bias, dtype=np.float64)
    _check(bias.shape == cols.shape, "attention",
           f"bias has {bias.size} entries for {cols.size} pattern entries")
    x = _Input("attention", z, inject)
    cv = c.value
    wq, wk, wv = (t.value for t in w)
    nz = x.needs
    needs = [t._needs for t in w]
    d_head = width // heads
    scale = 1.0 / math.sqrt(d_head)
    head_cols = [slice(h * d_head, (h + 1) * d_head) for h in range(heads)]
    rows = np.repeat(np.arange(n), counts)
    starts = indptr[:-1]

    def on_pattern(values):
        return sp.csr_array((values, cols, indptr), shape=(n, n))

    def softmax(logits):
        e = np.exp(logits - np.maximum.reduceat(logits, starts)[rows])
        return e / np.add.reduceat(e, starts)[rows]

    def logit_grads(att, d_att):
        return on_pattern(att * (d_att - np.add.reduceat(att * d_att, starts)[rows]) * scale)

    def stacked():
        """z~ = [x c], the same bytes as np.hstack([x, c]), x written
        straight into its columns."""
        zt = np.empty((n, d + m))
        x.value(out=zt[:, :d])
        zt[:, d:] = cv
        return zt

    narrow = d + m < d_head
    kept = []
    out = None
    if narrow:
        zt = stacked()
        for h in head_cols:
            mat = wq[:, h] @ wk[:, h].T
            att = softmax(_sampled_dots(zt @ mat, zt, rows, cols) * scale + bias)
            out = _accumulate(out, (on_pattern(att) @ zt) @ wv[:, h])
            kept.append((mat, att))
        del zt
    else:
        xv = x.value()
        proj = []
        for wr in (wq, wk, wv):
            pr = xv @ wr[:d]
            pr += cv @ wr[d:]
            proj.append(pr)
        del xv
        for h in head_cols:
            q, k, v = (pr if heads == 1 else np.ascontiguousarray(pr[:, h]) for pr in proj)
            att = softmax(_sampled_dots(q, k, rows, cols) * scale + bias)
            out = _accumulate(out, on_pattern(att) @ v)
            kept.append((q, k, v, att))
        del proj
    if heads > 1:
        out *= 1.0 / heads
    if activate:
        _leaky_in_place(out)

    def rule(g):
        if activate:
            g = _leaky_grad(g, out)
        if heads > 1:
            g = g * (1.0 / heads)
        gw = [_grad_buffer(t) if need else None for t, need in zip(w, needs)]
        gq, gk, gv = gw
        dz = None
        if narrow:
            zt = stacked()
            for h, (mat, att) in zip(head_cols, kept):
                weights = on_pattern(att)
                if gv is not None:
                    np.matmul((weights @ zt).T, g, out=gv[:, h])
                da = g @ wv[:, h].T
                grads = logit_grads(att, _sampled_dots(da, zt, rows, cols))
                dp = grads @ zt
                if nz:
                    dz = _accumulate(dz, weights.T @ da)
                    dz += grads.T @ (zt @ mat)
                    dz += dp @ mat.T
                dm = zt.T @ dp
                # M = W~q W~k^T: dW~q = dM W~k and dW~k = dM^T W~q
                if gq is not None:
                    np.matmul(dm, wk[:, h], out=gq[:, h])
                if gk is not None:
                    np.matmul(dm.T, wq[:, h], out=gk[:, h])
            return (*x.grads(dz[:, :d] if nz else None), *gw)
        xv = x.value() if any(gr is not None for gr in gw) else None
        for h, (q, k, v, att) in zip(head_cols, kept):
            grads = logit_grads(att, _sampled_dots(g, v, rows, cols))
            # One role at a time, so one n x d_head gradient is alive at once:
            # freeing three together cost 7k page faults a step (n=900, 500->500).
            products = (lambda: grads @ k, lambda: grads.T @ q, lambda: on_pattern(att).T @ g)
            for product, wr, gr in zip(products, (wq, wk, wv), gw):
                dr = product()
                if nz:
                    dz = _accumulate(dz, dr @ wr[:d, h].T)
                if gr is not None:
                    np.matmul(xv.T, dr, out=gr[:d, h])
                    np.matmul(cv.T, dr, out=gr[d:, h])
        return (*x.grads(dz), *gw)

    return Tensor(out, _parents=(*x.parents, *w), _rule=rule)


# Rows per block of the row-blocked losses. Every block multiplies its rows
# by the whole other operand, so narrow blocks re-read that operand too often
# (info_nce at n=2709, width 1433, on 2 cores: 32-row blocks 0.85 s, 128-row
# blocks 0.58 s); at 128 rows each of a block's temporaries is 1 KB per node.
_LOSS_ROWS = 128


def _row_blocks(n: int):
    """(lo, hi) of each block of _LOSS_ROWS rows (the last may be shorter)."""
    for lo in range(0, n, _LOSS_ROWS):
        yield lo, min(n, lo + _LOSS_ROWS)


def info_nce(c1: Tensor, c2: Tensor, beta: float, tau: float) -> Tensor:
    """InfoNCE of each row of c1 against the same row of c2, as one node.

    The similarity of rows i and j is s_ij = spow(cos_ij / (1 + dist_ij),
    beta), with cos the cosine (row norms floored at 1e-12), dist the
    euclidean distance (its square clamped at 0) and spow(x, beta) =
    sign(x) |x|**beta. The loss is the mean over rows i of
    logsumexp_j(s_ij / tau) - s_ii / tau. Floors and clamps shape the
    gradient as the composed sqrt, clamp_min and signed_pow ops would.

    One sweep over blocks of whole rows gives each row's log-sum-exp and,
    from the softmax, both input gradients: nothing n x n outlives a block,
    and the node keeps only the two gradients.
    """
    c1, c2 = _as_tensor(c1), _as_tensor(c2)
    _check(c1.shape == c2.shape, "info_nce", f"views differ in shape: {c1.shape} vs {c2.shape}")
    _check(tau > 0, "info_nce", f"temperature must be positive, got {tau}")
    _check(beta > 0, "info_nce", f"similarity exponent must be positive, got {beta}")
    v1, v2 = c1.value, c2.value
    n = v1.shape[0]
    inv_n, inv_tau = 1.0 / n, 1.0 / tau
    sq1 = (v1 * v1).sum(axis=1, keepdims=True)  # (n, 1)
    sq2 = (v2 * v2).sum(axis=1, keepdims=True).T  # (1, n)
    r1, r2 = np.sqrt(sq1), np.sqrt(sq2)
    norm1, norm2 = np.maximum(r1, 1e-12), np.maximum(r2, 1e-12)
    lse, diag = np.empty(n), np.empty(n)
    g1, g2 = np.empty_like(v1), np.zeros_like(v2)
    # gradients of the squared norms and the floored norms
    dsq1, dnorm1 = np.empty((n, 1)), np.empty((n, 1))
    dsq2, dnorm2 = np.zeros((1, n)), np.zeros((1, n))

    for lo, hi in _row_blocks(n):
        rows, cols = np.arange(hi - lo), np.arange(lo, hi)  # the block's diagonal
        gram = v1[lo:hi] @ v2.T
        prod = norm1[lo:hi] * norm2
        cos = gram / prod
        dist = sq1[lo:hi] + sq2
        dist -= 2.0 * gram
        positive = dist > 0  # the squared distance's clamp mask
        np.maximum(dist, 0.0, out=dist)
        np.sqrt(dist, out=dist)
        euc = dist + 1.0
        np.reciprocal(euc, out=euc)
        sim = cos * euc
        logits = sim * inv_tau if beta == 1.0 else np.sign(sim) * np.abs(sim) ** beta * inv_tau
        shift = logits.max(axis=1, keepdims=True)
        diag[lo:hi] = logits[rows, cols]
        e = logits
        e -= shift
        np.exp(e, out=e)
        total = e.sum(axis=1, keepdims=True)
        lse[lo:hi] = (np.log(total) + shift)[:, 0]

        # d loss / d logit_ij = (softmax_ij - [i == j]) / n; then back
        # through the power, the product cos * euc and each factor. Arrays
        # are reused in place and dropped once read, to keep the block small.
        d = e
        d *= inv_n / total
        d[rows, cols] -= inv_n
        d *= inv_tau
        if beta != 1.0:
            np.abs(sim, out=sim)
            if beta < 1.0:
                np.maximum(sim, 1e-12, out=sim)
            sim **= beta - 1.0
            d *= beta
            d *= sim
        del sim
        d_cos = d * euc
        d_euc = d
        d_euc *= cos
        del cos
        d_gram = d_cos / prod
        # cos = gram * (1 / prod); the reciprocal's derivative floors prod
        d_prod = d_cos
        d_prod *= gram
        del gram
        np.maximum(prod, 1e-12, out=prod)
        prod *= prod
        d_prod /= prod
        del prod
        dnorm1[lo:hi] = -(d_prod * norm2).sum(axis=1, keepdims=True)
        dnorm2 -= (d_prod * norm1[lo:hi]).sum(axis=0, keepdims=True)
        del d_prod
        # euc = 1 / (dist + 1), dist = sqrt(max(d2, 0)); sqrt's derivative
        # floors dist
        d_d2 = d_euc
        np.add(dist, 1.0, out=euc)
        euc *= euc
        np.maximum(dist, 1e-12, out=dist)
        euc *= dist
        d_d2 /= euc
        del euc, dist
        d_d2 *= -0.5
        d_d2 *= positive
        dsq1[lo:hi] = d_d2.sum(axis=1, keepdims=True)
        dsq2 += d_d2.sum(axis=0, keepdims=True)
        d_d2 *= 2.0
        d_gram -= d_d2
        del d_d2
        g1[lo:hi] = d_gram @ v2
        g2 += d_gram.T @ v1[lo:hi]

    # norm = max(sqrt(sq), 1e-12), sq = the row sums of squares
    dsq1 += dnorm1 * (r1 > 1e-12) * 0.5 / norm1
    dsq2 += dnorm2 * (r2 > 1e-12) * 0.5 / norm2
    g1 += 2.0 * dsq1 * v1
    g2 += 2.0 * dsq2.T * v2
    n1, n2 = c1._needs, c2._needs

    def rule(g):
        return (g[0, 0] * g1 if n1 else None, g[0, 0] * g2 if n2 else None)

    return Tensor((lse.sum() - diag.sum()) * inv_n, _parents=(c1, c2), _rule=rule)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) elsewhere,
    so no exp overflows."""
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, t) / (1.0 + t)


def decoder_mse(z: Tensor, a: sp.csr_array) -> Tensor:
    """mean((sigmoid(z z^T) - a)**2) over all n x n entries, for a constant
    sparse a, as one node.

    One sweep over blocks of whole rows densifies only the block's rows of a
    and gives the gradient (4 / n**2) ((S - a) * S * (1 - S)) z, S =
    sigmoid(z z^T), which is exact for symmetric a; the node keeps only that
    gradient.
    """
    z = _as_tensor(z)
    n = z.shape[0]
    _check(sp.issparse(a), "decoder_mse", f"target must be a scipy sparse matrix, got {type(a)}")
    _check(a.shape == (n, n), "decoder_mse", f"target is {a.shape}, expected {(n, n)}")
    zv = z.value
    row_sq = np.empty(n)
    grad = np.empty_like(zv)
    for lo, hi in _row_blocks(n):
        s = _sigmoid(zv[lo:hi] @ zv.T)
        diff = s - a[lo:hi].toarray()
        row_sq[lo:hi] = np.einsum("ij,ij->i", diff, diff)
        diff *= s
        s -= 1.0
        diff *= s  # (S - a) * S * (S - 1), the negated chain factor
        grad[lo:hi] = diff @ zv
    grad *= -4.0 / (n * n)

    def rule(g):
        return (g[0, 0] * grad,)

    return Tensor(row_sq.sum() / (n * n), _parents=(z,), _rule=rule)


class _ClusterHead(Tensor):
    """cluster_kl's node, which also holds the forward values cluster_kl
    computed: q, q_prime, p and kl = (KL(P||Q), KL(Q||Q'))."""

    __slots__ = ("q", "q_prime", "p", "kl")


def cluster_kl(z: Tensor, z_ae: Tensor, centroids: Tensor, p: np.ndarray | None,
               t: float, alpha: float, beta: float) -> Tensor:
    """alpha KL(P||Q) + beta KL(Q||Q') as one node: SDCN's dual
    self-supervision (Bo et al., WWW 2020) over DEC's Student-t assignments
    (Xie et al., ICML 2016) Q = student_t(z, centroids, t) and Q' =
    student_t(z_ae, centroids, t), with the detached target P = p, or
    target_distribution(Q) when p is None. Each KL floors its entries at
    1e-12 before the logs, and no gradient passes where a floor is active.

    The gradients are the Student-t closed form, formed with the forward.
    For an assignment Q of x with dL/dQ = G, the gradient with respect to its
    squared distances is D = (G - rowsum(G Q)) Q (-(t + 1) / (2 t)) /
    (1 + d2 / t), zero where d2 was clamped at 0; then dx = 2 (rowsum(D) x -
    D C) and dC = 2 (colsum(D)^T C - D^T x), summed over both assignments.
    """
    z, z_ae, c = _as_tensor(z), _as_tensor(z_ae), _as_tensor(centroids)
    _check(t > 0, "cluster_kl", f"t must be positive, got {t}")
    _check(z.shape == z_ae.shape and z.shape[1] == c.shape[1], "cluster_kl",
           f"widths differ: z {z.shape}, z_ae {z_ae.shape}, centroids {c.shape}")
    q, d2 = student_t(z.value, c.value, t)
    q_ae, d2_ae = student_t(z_ae.value, c.value, t)
    p = target_distribution(q) if p is None else np.asarray(p, dtype=np.float64)
    _check(p.shape == q.shape, "cluster_kl", f"p is {p.shape}, expected {q.shape}")
    log_q, log_qa = np.log(np.maximum(q, 1e-12)), np.log(np.maximum(q_ae, 1e-12))
    kl = (float((p * (np.log(np.maximum(p, 1e-12)) - log_q)).sum()),
          float((q * (log_q - log_qa)).sum()))

    kept, kept_ae = q > 1e-12, q_ae > 1e-12
    g_q = beta * (log_q - log_qa + kept) - alpha * kept * p / np.maximum(q, 1e-12)
    g_qa = -beta * kept_ae * q / np.maximum(q_ae, 1e-12)
    grads, dc = [], np.zeros(c.shape)
    for x, g, qx, d2x in ((z.value, g_q, q, d2), (z_ae.value, g_qa, q_ae, d2_ae)):
        d = (g - (g * qx).sum(axis=1, keepdims=True)) * qx * (-(t + 1.0) / (2.0 * t))
        d *= (d2x > 0) / (d2x * (1.0 / t) + 1.0)
        grads.append(2.0 * (d.sum(axis=1, keepdims=True) * x - d @ c.value))
        dc += 2.0 * (d.sum(axis=0)[:, None] * c.value - d.T @ x)
    grads.append(dc)

    node = _ClusterHead(kl[0] * alpha + kl[1] * beta, _parents=(z, z_ae, c),
                        _rule=lambda g: tuple(g[0, 0] * x for x in grads))
    node.q, node.q_prime, node.p, node.kl = q, q_ae, p, kl
    return node


def relu(a: Tensor) -> Tensor:
    """x where x > 0, 0.0 where x <= 0, and NaN where x is NaN, whose
    gradient is NaN too, so a non-finite input is not silently cut off.
    The node keeps no mask: the sign of the output is the derivative, 1.0,
    0.0 or NaN, as np.heaviside(x, 0.0) gives it."""
    a = _as_tensor(a)
    x = a.value
    out = np.where(x <= 0, 0.0, x)

    def rule(g):
        return (g * np.sign(out),)

    return Tensor(out, _parents=(a,), _rule=rule)


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean over all entries of the squared difference."""
    a, b = _as_tensor(a), _as_tensor(b)
    _check(a.shape == b.shape, "mse", f"shapes differ: {a.shape} vs {b.shape}")
    diff = a.value - b.value
    size = diff.size
    na, nb = a._needs, b._needs

    def rule(g):
        d = g[0, 0] * 2.0 / size * diff
        return (d if na else None, -d if nb else None)

    return Tensor(np.mean(diff * diff), _parents=(a, b), _rule=rule)


# ---------------------------------------------------------------------------
# Optimizer and gradient checking
# ---------------------------------------------------------------------------

# Adam's moment decay rates and the floor added to the root of the second
# moment.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Elements per block of the Adam update: the block's slices of the value,
# gradient and moments plus the work buffer stay in cache.
_ADAM_BLOCK = 1 << 14


@dataclass
class AdamState:
    """Adam for one fixed parameter list: the first and second moments, and
    the scratch that a backward given this state sums gradients in.

    A step is absorb(i, g) for every parameter i, which folds its gradient
    into the moments (backward does it as it finishes each gradient), then
    adam_step, which applies the bias-corrected update. The scratch is
    capacity-based: each buffer is the size of the largest parameter, made
    when no free one is left (attention holds three at once) and kept
    across steps."""

    lr: float
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    scratch: list[np.ndarray] = field(default_factory=list)
    # the scratch buffers not lent out, the parameters absorbed since the
    # last step and those of them whose gradient held a non-finite entry
    _free: list[np.ndarray] = field(default_factory=list)
    _absorbed: set[int] = field(default_factory=set)
    _nonfinite: set[int] = field(default_factory=set)
    _work: np.ndarray = field(default_factory=lambda: np.empty(_ADAM_BLOCK))

    @classmethod
    def for_params(cls, params: Sequence[Tensor], lr: float) -> "AdamState":
        state = cls(lr=lr)
        # np.zeros maps zeroed pages instead of filling them
        state.m = [np.zeros(p.shape) for p in params]
        state.v = [np.zeros(p.shape) for p in params]
        return state

    def _lend(self, shape: tuple[int, int]) -> np.ndarray:
        """A free scratch buffer, viewed as an array of shape."""
        if not self._free:
            self.scratch.append(np.empty(max(m.size for m in self.m)))
            self._free.append(self.scratch[-1])
        return self._free.pop()[: shape[0] * shape[1]].reshape(shape)

    def _give_back(self, buf: np.ndarray) -> None:
        self._free.append(buf.base)

    def absorb(self, i: int, g: np.ndarray) -> None:
        """Fold parameter i's gradient g into its moments, m = beta1 m +
        (1 - beta1) g and v = beta2 v + (1 - beta2) g^2, the first seven
        operations of the update, in blocks of _ADAM_BLOCK elements through
        one block-sized work buffer; g is only read. Notes whether g holds a
        non-finite entry (see first_nonfinite)."""
        m, v = self.m[i], self.v[i]
        if g.shape != m.shape:
            raise ValueError(f"absorb: the gradient of parameter {i} is {g.shape}, "
                             f"expected {m.shape}")
        # reshape(-1) of anything else would be a copy
        if not g.flags.c_contiguous:
            raise ValueError(f"absorb: the gradient of parameter {i} is not C-contiguous")
        gf, mf, vf = g.reshape(-1), m.reshape(-1), v.reshape(-1)
        finite = True
        for lo in range(0, gf.size, _ADAM_BLOCK):
            hi = min(lo + _ADAM_BLOCK, gf.size)
            gb, mb, vb, w = gf[lo:hi], mf[lo:hi], vf[lo:hi], self._work[: hi - lo]
            finite = finite and bool(np.isfinite(gb).all())
            mb *= ADAM_BETA1
            np.multiply(gb, 1.0 - ADAM_BETA1, out=w)
            mb += w
            vb *= ADAM_BETA2
            np.multiply(gb, gb, out=w)
            w *= 1.0 - ADAM_BETA2
            vb += w
        self._absorbed.add(i)
        if not finite:
            self._nonfinite.add(i)

    def first_nonfinite(self) -> int | None:
        """The lowest index of a parameter whose gradient absorbed since the
        last step held a non-finite entry, or None."""
        return min(self._nonfinite, default=None)


def adam_step(params: Sequence[Tensor], state: AdamState) -> AdamState:
    """One bias-corrected Adam update, in place on params and state, from
    the moments that absorb has brought up to date for every parameter.

    Each parameter is updated in contiguous blocks of _ADAM_BLOCK elements
    through one block-sized work buffer; every element sees the same
    operations in the same order as a whole-array update, so the result does
    not depend on the block size. Every value must be C-contiguous.
    """
    if len(params) != len(state.m):
        raise ValueError("adam_step: state was built for a different parameter list")
    missing = sorted(set(range(len(params))) - state._absorbed)
    if missing:
        raise ValueError(f"adam_step: no gradient absorbed for parameter {missing[0]} "
                         f"({params[missing[0]]!r})")
    for i, p in enumerate(params):
        # reshape(-1) of anything else would be a copy, and the update would be lost
        if not p.value.flags.c_contiguous:
            raise ValueError(f"adam_step: the value of parameter {i} ({p!r}) is not C-contiguous")
    state._absorbed.clear()
    state._nonfinite.clear()
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    work = state._work
    for p, m, v in zip(params, state.m, state.v):
        pf, mf, vf = (arr.reshape(-1) for arr in (p.value, m, v))
        for lo in range(0, pf.size, _ADAM_BLOCK):
            hi = min(lo + _ADAM_BLOCK, pf.size)
            pb, mb, vb, w = pf[lo:hi], mf[lo:hi], vf[lo:hi], work[: hi - lo]
            np.divide(vb, c2, out=w)
            np.sqrt(w, out=w)
            w += ADAM_EPS
            np.divide(mb, w, out=w)
            w *= state.lr / c1
            pb -= w
    return state
