"""Reverse-mode differentiation on an eagerly built tape.

Every value is a 2-D float64 matrix (scalars are 1x1). Forward values are
computed immediately; each op records a closure that maps the upstream
gradient to per-parent gradients. The tape is rebuilt every iteration, and
every node stays alive until backward ends, so an op keeps only the arrays
its backward reads. Graph operators take a constant scipy CSR matrix: spmm
multiplies by it, and edge_attention attends only over its sparsity pattern.

The layer ops are one node each where a composed form would keep every
intermediate: project (z @ w + c @ wc), blend (a * eps + b * (1 - eps)),
dense (x @ w + b) and propagate (adj @ z @ w), the last two optionally
followed by leaky_relu at LEAKY_SLOPE. Each computes its forward with the
numpy calls of the composed form, in the same order, so its values match the
composed form's bit for bit.

The two whole-graph losses, info_nce (the contrastive InfoNCE over every
node pair) and decoder_mse (the inner-product adjacency decoder against a
sparse target), are one node each too. Each sweeps blocks of _LOSS_ROWS
whole rows once, forming the loss and its input gradients together, so no
n x n array outlives a block and the node keeps only the O(n d) gradients.
They sum in another order than their composed forms, so they match those to
rounding (a few 1e-15 relative), not bit for bit.

Gradient buffers accumulate: calling backward twice without zero_grad
doubles leaf gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Tensor",
    "constant",
    "parameter",
    "backward",
    "zero_grad",
    "AdamState",
    "adam_step",
    "matmul",
    "spmm",
    "project",
    "blend",
    "dense",
    "propagate",
    "edge_attention",
    "info_nce",
    "decoder_mse",
    "add",
    "scale",
    "hadamard",
    "transpose",
    "relu",
    "leaky_relu",
    "log",
    "square",
    "clamp_min",
    "signed_pow",
    "reduce_sum",
    "mse",
    "columns",
]

# Negative-side slope of leaky_relu and of the activated layer ops.
LEAKY_SLOPE = 0.01


class Tensor:
    """Node in the differentiation graph: value, grad accumulator, backward rule."""

    __slots__ = ("value", "grad", "requires_grad", "name", "_parents", "_rule", "_needs")

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
        self.grad = np.zeros_like(arr) if requires_grad else None
        self.name = name
        self._parents = _parents
        self._rule = _rule
        self._needs = requires_grad or any(p._needs for p in _parents)

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


def backward(loss: Tensor) -> None:
    """Populate .grad on every requires-grad ancestor of a scalar loss.

    Visits nodes in reverse topological order exactly once; gradients add
    into existing buffers (zero_grad between steps).
    """
    if loss.shape != (1, 1):
        raise ValueError(f"backward: loss must be 1x1, got {loss.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
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
            stack.append((p, False))

    pending: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
    for node in reversed(topo):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad += g
        if node._rule is None:
            continue
        for parent, pg in zip(node._parents, node._rule(g)):
            if pg is None or not parent._needs:
                continue
            acc = pending.get(id(parent))
            if acc is None:
                # Copy anything that aliases the upstream gradient: stored
                # buffers are accumulated into in place.
                pending[id(parent)] = pg.copy() if (pg is g or pg.base is not None) else pg
            else:
                acc += pg


def zero_grad(params: Sequence[Tensor]) -> None:
    for p in params:
        if p.grad is not None:
            p.grad[...] = 0.0


# ---------------------------------------------------------------------------
# Op catalogue
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check(a.shape[1] == b.shape[0], "matmul", f"inner dims differ: {a.shape} x {b.shape}")
    av, bv = a.value, b.value
    na, nb = a._needs, b._needs

    def rule(g):
        return (g @ bv.T if na else None, av.T @ g if nb else None)

    return Tensor(av @ bv, _parents=(a, b), _rule=rule)


def spmm(a: sp.csr_array, b: Tensor) -> Tensor:
    """Product of a constant sparse matrix with a tensor; backward is a^T g."""
    b = _as_tensor(b)
    _check(sp.issparse(a), "spmm", f"left operand must be a scipy sparse matrix, got {type(a)}")
    _check(a.shape[1] == b.shape[0], "spmm", f"inner dims differ: {a.shape} x {b.shape}")

    def rule(g):
        return (a.T @ g,)

    return Tensor(a @ b.value, _parents=(b,), _rule=rule)


def project(z: Tensor, w: Tensor, c: Tensor, wc: Tensor) -> Tensor:
    """z @ w + c @ wc as one node; the backward reads only the operands."""
    z, w, c, wc = (_as_tensor(t) for t in (z, w, c, wc))
    _check(z.shape[1] == w.shape[0] and c.shape[1] == wc.shape[0], "project",
           f"inner dims differ: {z.shape} x {w.shape}, {c.shape} x {wc.shape}")
    _check((z.shape[0], w.shape[1]) == (c.shape[0], wc.shape[1]), "project",
           f"products differ in shape: {z.shape} x {w.shape} vs {c.shape} x {wc.shape}")
    zv, wv, cv, wcv = z.value, w.value, c.value, wc.value
    nz, nw, nc, nwc = z._needs, w._needs, c._needs, wc._needs
    out = zv @ wv
    out += cv @ wcv

    def rule(g):
        return (
            g @ wv.T if nz else None,
            zv.T @ g if nw else None,
            g @ wcv.T if nc else None,
            cv.T @ g if nwc else None,
        )

    return Tensor(out, _parents=(z, w, c, wc), _rule=rule)


def blend(a: Tensor, b: Tensor, eps: float) -> Tensor:
    """a * eps + b * (1 - eps) as one node; the backward reads only eps."""
    a, b = _as_tensor(a), _as_tensor(b)
    _check(a.shape == b.shape, "blend", f"shapes differ: {a.shape} vs {b.shape}")
    sa = float(eps)
    sb = 1.0 - sa
    na, nb = a._needs, b._needs
    out = a.value * sa
    out += b.value * sb

    def rule(g):
        return (g * sa if na else None, g * sb if nb else None)

    return Tensor(out, _parents=(a, b), _rule=rule)


def _leaky_in_place(out: np.ndarray) -> np.ndarray:
    """leaky_relu's forward at LEAKY_SLOPE written into out; returns the sign
    mask of the input, which is all its backward reads."""
    pos = out > 0
    np.maximum(out, out * LEAKY_SLOPE, out=out)
    return pos


def _leaky_grad(g: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """g * np.where(pos, 1.0, LEAKY_SLOPE), bit for bit, through one
    temporary: 1.0 * (1 - LEAKY_SLOPE) + LEAKY_SLOPE rounds to exactly 1.0."""
    s = pos.astype(np.float64)
    s *= 1.0 - LEAKY_SLOPE
    s += LEAKY_SLOPE
    s *= g
    return s


def dense(x: Tensor, w: Tensor, b: Tensor, activate: bool = False) -> Tensor:
    """x @ w + b (b is one row, broadcast), then leaky_relu when activate,
    as one node. It keeps its output and, when activated, a boolean sign
    mask."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    _check(x.shape[1] == w.shape[0], "dense", f"inner dims differ: {x.shape} x {w.shape}")
    _check(b.shape == (1, w.shape[1]), "dense", f"bias must be (1, {w.shape[1]}), got {b.shape}")
    xv, wv = x.value, w.value
    nx, nw, nb = x._needs, w._needs, b._needs
    bshape = b.shape
    out = xv @ wv
    out += b.value
    pos = _leaky_in_place(out) if activate else None

    def rule(g):
        if pos is not None:
            g = _leaky_grad(g, pos)
        return (
            g @ wv.T if nx else None,
            xv.T @ g if nw else None,
            _unbroadcast(g, bshape) if nb else None,
        )

    return Tensor(out, _parents=(x, w, b), _rule=rule)


def propagate(adj: sp.csr_array, z: Tensor, w: Tensor, activate: bool = False) -> Tensor:
    """adj @ z @ w over a constant sparse adj, associated so the sparse
    product runs on the narrower side, then leaky_relu when activate, as one
    node. It keeps its output, the sign mask when activated, and adj @ z
    only when (adj @ z) @ w is the association and w needs its gradient."""
    z, w = _as_tensor(z), _as_tensor(w)
    _check(sp.issparse(adj), "propagate",
           f"adjacency must be a scipy sparse matrix, got {type(adj)}")
    _check(adj.shape[1] == z.shape[0] and z.shape[1] == w.shape[0], "propagate",
           f"inner dims differ: {adj.shape} x {z.shape} x {w.shape}")
    zv, wv = z.value, w.value
    nz, nw = z._needs, w._needs
    narrow_out = w.shape[1] < w.shape[0]
    if narrow_out:
        out = adj @ (zv @ wv)
        az = None
    else:
        az = adj @ zv
        out = az @ wv
        if not nw:
            az = None
    pos = _leaky_in_place(out) if activate else None

    def rule(g):
        if pos is not None:
            g = _leaky_grad(g, pos)
        if narrow_out:
            gm = adj.T @ g
            return (gm @ wv.T if nz else None, zv.T @ gm if nw else None)
        return (adj.T @ (g @ wv.T) if nz else None, az.T @ g if nw else None)

    return Tensor(out, _parents=(z, w), _rule=rule)


# Rows gathered per block of a sampled product: about 64k elements keeps both
# gathered blocks in cache (at n=900, width 2000, gathering every row at once
# ran 5x slower).
_GATHER_ELEMENTS = 1 << 16


def _sampled_dots(a: np.ndarray, b: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """a[rows[e]] . b[cols[e]] for every entry e, gathered in cache-sized blocks."""
    out = np.empty(rows.size)
    step = max(1, _GATHER_ELEMENTS // max(1, a.shape[1]))
    for lo in range(0, rows.size, step):
        hi = lo + step
        out[lo:hi] = np.einsum("ij,ij->i", a[rows[lo:hi]], b[cols[lo:hi]])
    return out


def edge_attention(
    q: Tensor, k: Tensor, v: Tensor, pattern: sp.csr_array, bias: np.ndarray, scale: float
) -> Tensor:
    """Attention restricted to the entries of a sparse pattern.

    Row i attends over the columns j stored in pattern row i with logits
    scale * q_i . k_j + bias_e, where bias is aligned with the pattern's
    entries; the softmax runs over each row's entries and the output is
    att @ v. Every row needs at least one entry (use self-loops). Only the
    pattern's structure is read, never its values.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    n = pattern.shape[0]
    indptr, cols = pattern.indptr, pattern.indices
    counts = np.diff(indptr)
    _check(pattern.shape == (n, n), "edge_attention", f"pattern must be square, got {pattern.shape}")
    _check(q.shape[0] == n and k.shape[0] == n and v.shape[0] == n, "edge_attention",
           f"q, k, v rows {q.shape[0]}, {k.shape[0]}, {v.shape[0]} != pattern size {n}")
    _check(q.shape[1] == k.shape[1], "edge_attention", f"q and k widths differ: {q.shape} vs {k.shape}")
    _check(bool(np.all(counts > 0)), "edge_attention", "every pattern row needs an entry")
    bias = np.asarray(bias, dtype=np.float64)
    _check(bias.shape == cols.shape, "edge_attention",
           f"bias has {bias.size} entries for {cols.size} pattern entries")
    qv, kv, vv = q.value, k.value, v.value
    nq, nk, nv = q._needs, k._needs, v._needs
    rows = np.repeat(np.arange(n), counts)
    starts = indptr[:-1]

    logits = _sampled_dots(qv, kv, rows, cols) * scale + bias
    e = np.exp(logits - np.maximum.reduceat(logits, starts)[rows])
    att = e / np.add.reduceat(e, starts)[rows]
    weights = sp.csr_array((att, cols, indptr), shape=(n, n))

    def rule(g):
        d_att = _sampled_dots(g, vv, rows, cols)
        d_logit = att * (d_att - np.add.reduceat(att * d_att, starts)[rows]) * scale
        grads = sp.csr_array((d_logit, cols, indptr), shape=(n, n))
        return (
            grads @ kv if nq else None,
            grads.T @ qv if nk else None,
            weights.T @ g if nv else None,
        )

    return Tensor(weights @ vv, _parents=(q, k, v), _rule=rule)


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


def add(a: Tensor, b: Tensor) -> Tensor:
    """Element-wise sum; the operands broadcast as numpy broadcasts them."""
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = a.shape, b.shape
    _check(_broadcastable(sa, sb), "add", f"incompatible shapes {sa} + {sb}")
    na, nb = a._needs, b._needs

    def rule(g):
        return (
            _unbroadcast(g, sa) if na else None,
            _unbroadcast(g, sb) if nb else None,
        )

    return Tensor(a.value + b.value, _parents=(a, b), _rule=rule)


def _broadcastable(sa, sb) -> bool:
    """Each dimension is equal in both shapes or 1 in one of them."""
    return all(x == y or 1 in (x, y) for x, y in zip(sa, sb))


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum g over the dimensions that were broadcast up from shape."""
    if g.shape == shape:
        return g
    out = g
    if shape[0] == 1 and g.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def scale(a: Tensor, s: float) -> Tensor:
    a = _as_tensor(a)
    s = float(s)

    def rule(g):
        return (g * s,)

    return Tensor(a.value * s, _parents=(a,), _rule=rule)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Element-wise product; the operands broadcast as in add."""
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = a.shape, b.shape
    _check(_broadcastable(sa, sb), "hadamard", f"incompatible shapes {sa} * {sb}")
    av, bv = a.value, b.value
    na, nb = a._needs, b._needs

    def rule(g):
        return (
            _unbroadcast(g * bv, sa) if na else None,
            _unbroadcast(g * av, sb) if nb else None,
        )

    return Tensor(av * bv, _parents=(a, b), _rule=rule)


def transpose(a: Tensor) -> Tensor:
    a = _as_tensor(a)

    def rule(g):
        return (g.T,)

    return Tensor(a.value.T.copy(), _parents=(a,), _rule=rule)


def relu(a: Tensor) -> Tensor:
    """x where x > 0, 0.0 where x <= 0, and NaN where x is NaN, whose
    gradient is NaN too, so a non-finite input is not silently cut off."""
    a = _as_tensor(a)
    x = a.value
    mask = np.heaviside(x, 0.0)  # 1.0, 0.0 or NaN

    def rule(g):
        return (g * mask,)

    return Tensor(np.where(x <= 0, 0.0, x), _parents=(a,), _rule=rule)


def leaky_relu(a: Tensor) -> Tensor:
    """max(x, LEAKY_SLOPE * x), which is x where x > 0 and LEAKY_SLOPE * x
    elsewhere."""
    a = _as_tensor(a)
    x = a.value

    def rule(g):
        return (_leaky_grad(g, x > 0),)

    return Tensor(np.maximum(x, x * LEAKY_SLOPE), _parents=(a,), _rule=rule)


def log(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    x = a.value

    def rule(g):
        return (g / x,)

    return Tensor(np.log(x), _parents=(a,), _rule=rule)


def square(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    x = a.value

    def rule(g):
        return (g * 2.0 * x,)

    return Tensor(x * x, _parents=(a,), _rule=rule)


def clamp_min(a: Tensor, floor: float) -> Tensor:
    a = _as_tensor(a)
    mask = a.value > floor

    def rule(g):
        return (g * mask,)

    return Tensor(np.maximum(a.value, floor), _parents=(a,), _rule=rule)


def signed_pow(a: Tensor, p: float) -> Tensor:
    """sign(x) * |x|**p, the sign-preserving power; derivative p*|x|**(p-1)."""
    a = _as_tensor(a)
    x = a.value
    ax = np.abs(x)

    def rule(g):
        base = np.maximum(ax, 1e-12) if p < 1.0 else ax
        return (g * p * base ** (p - 1.0),)

    return Tensor(np.sign(x) * ax**p, _parents=(a,), _rule=rule)


def reduce_sum(a: Tensor, axis: int | None = None) -> Tensor:
    """Sum of every entry (1x1), or with axis=1 the row sums (r, 1)."""
    a = _as_tensor(a)
    _check(axis in (None, 1), "reduce_sum", f"axis must be None or 1, got {axis}")
    shape = a.shape

    def rule(g):
        return (np.broadcast_to(g, shape),)

    return Tensor(a.value.sum(axis=axis, keepdims=True), _parents=(a,), _rule=rule)


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


def columns(a: Tensor, lo: int, hi: int) -> Tensor:
    """Columns lo..hi-1 of a, as a contiguous copy."""
    a = _as_tensor(a)
    _check(0 <= lo <= hi <= a.shape[1], "columns",
           f"[{lo}, {hi}) out of range for {a.shape[1]} columns")
    shape = a.shape

    def rule(g):
        out = np.zeros(shape)
        out[:, lo:hi] = g
        return (out,)

    return Tensor(np.ascontiguousarray(a.value[:, lo:hi]), _parents=(a,), _rule=rule)


# ---------------------------------------------------------------------------
# Optimizer and gradient checking
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """First/second moment buffers for one fixed parameter list."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_params(cls, params: Sequence[Tensor], lr: float) -> "AdamState":
        state = cls(lr=lr)
        state.m = [np.zeros_like(p.value) for p in params]
        state.v = [np.zeros_like(p.value) for p in params]
        return state


# Elements per block of the Adam update: the block's slices of the value,
# gradient and moments plus the work buffer stay in cache.
_ADAM_BLOCK = 1 << 14


def adam_step(
    params: Sequence[Tensor],
    grads: Sequence[np.ndarray],
    state: AdamState,
) -> AdamState:
    """One bias-corrected Adam update, in place on params and state.

    Each parameter is updated in contiguous blocks of _ADAM_BLOCK elements
    through one block-sized work buffer; every element sees the same
    operations in the same order as a whole-array update, so the result does
    not depend on the block size. Every array must be C-contiguous.
    """
    if len(params) != len(state.m):
        raise ValueError("adam_step: state was built for a different parameter list")
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    work = np.empty(_ADAM_BLOCK)
    for i, (p, g, m, v) in enumerate(zip(params, grads, state.m, state.v)):
        arrays = {"value": p.value, "gradient": g, "first moment": m, "second moment": v}
        for role, arr in arrays.items():
            # reshape(-1) of anything else would be a copy, and the update would be lost
            if not arr.flags.c_contiguous:
                raise ValueError(
                    f"adam_step: the {role} of parameter {i} ({p!r}) is not C-contiguous"
                )
        pf, gf, mf, vf = (arr.reshape(-1) for arr in arrays.values())
        for lo in range(0, pf.size, _ADAM_BLOCK):
            hi = min(lo + _ADAM_BLOCK, pf.size)
            pb, gb, mb, vb, w = pf[lo:hi], gf[lo:hi], mf[lo:hi], vf[lo:hi], work[: hi - lo]
            mb *= state.beta1
            np.multiply(gb, 1.0 - state.beta1, out=w)
            mb += w
            vb *= state.beta2
            np.multiply(gb, gb, out=w)
            w *= 1.0 - state.beta2
            vb += w
            np.divide(vb, c2, out=w)
            np.sqrt(w, out=w)
            w += state.eps
            np.divide(mb, w, out=w)
            w *= state.lr / c1
            pb -= w
    return state

