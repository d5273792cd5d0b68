"""Dense tensor engine with reverse-mode automatic differentiation.

Tensors wrap row-major numpy buffers (float32 in production paths; float64 is
accepted so gradient-check oracles can run at full precision). Each primitive
that touches a gradient-requiring input appends itself to the implicit tape:
the output node keeps its parents and a closure that routes the output
gradient backwards. `backward()` replays that record in reverse topological
order, so every parameter reachable from the loss accumulates its gradient
exactly once per call. A node keeps parents and a closure only if some input
requires a gradient, so backward rules test `requires_grad` alone.

A graph supports one `backward()`, which frees it as it walks: once a
node's rule has run, the node drops its gradient, closure and parents, so
the buffers only that rule read (attention row statistics, saved inputs) go
at once rather than when the caller lets go of the loss. Leaf gradients, the
ones an optimizer reads, stay. Walking a freed node again raises
`GraphFreedError`.

Inside `with no_grad():` nothing is recorded at all: every primitive still
computes the same values, but its output keeps no parents or closure and does
not require a gradient, whatever its inputs. Inference (detection, attention
export, the frozen transformer of a probe) runs there, so the activations of
one forward pass are freed as soon as the next op no longer needs them.

Broadcasting is restricted to leading-dimension expansion: elementwise ops
accept equal shapes, or one operand whose shape is a trailing suffix of the
other's (the usual bias-add pattern). This keeps every backward rule a plain
sum over the expanded axes. The one-operand ops share one rule (`_unary`)
and the two-operand ops another (`_binary`). One op selects entries: `take`
returns distinct entries of one axis (a permutation, a half of a batch, a
single column, matched rows), so its backward adds g into zeros at them
with no repeats to sum.

Multi-head attention is one fused primitive, `attention`, rather than a chain
of generic nodes. Its forward computes softmax(Q K^T / sqrt(d_k)) one block of
batch items at a time in one reused block buffer, with scale, max-shift, exp
and normalisation done in place, and keeps each softmax row's max and sum. Its
backward keeps only those two (B, heads, Nq, 1) arrays plus the q/k/v inputs
it already references: no logits or probabilities stay alive on the tape, and
the backward rebuilds each block's probabilities with the forward's
operations (the recomputation of arXiv 2112.05682 and 2205.14135). A block is sized so that its probabilities fit 1 MiB:
a default encoder layer's (16, 4, 256, 256) float32 probabilities would be 16
MiB, and passing them whole through each elementwise step streams them
through L3, while one block stays in a 2 MiB L2 from its Q K^T matmul to its
product with V. Every arithmetic step runs in the order of the composed ops
(the same matmuls on the same per-item matrices, the float32 scale applied
after Q K^T, and the softmax backward (g - sum(g * p)) * p followed by the
scale); a batched matmul is one independent GEMM per (item, head) and every
reduction runs along the last axis of one row, so splitting the batch
changes no operand or summation order, and numpy's elementwise kernels give
the same bits in place as out of place. Each row's max comes from
`np.fmax.reduce`, exact like `max` and about a third quicker over
256-wide float32 rows on a 2-core x86-64 machine (numpy 2.4): a NaN logit,
which `fmax` passes over, still turns its row's exps, sum and probabilities
to NaN, as `softmax`'s max would. Outputs, rebuilt
probabilities and gradients are therefore bit-identical to building
attention from `matmul`, `transpose`, `mul` and `softmax`.

Layer norm and batch norm share `_normalize`, which makes one pass fewer
than composing numpy's `mean` and `var`: it forms d = x - mean once, takes
the variance as the mean of d * d (the operations inside `np.var`, so the
same bits) and scales d in place into x-hat. Its backward works in two
buffers of its own. `affine` adds its bias in place into the product.

Freeing as it goes means every step hands its dead arrays back to malloc,
and the next step asks for the same sizes again. glibc's defaults return that
memory to the OS: each array above the mmap threshold (128 KiB at start) is a
fresh `mmap` that is unmapped when freed, and the heap top is trimmed once
more than the trim threshold is free at it. glibc raises both thresholds on
its own only when a large mmapped block is freed, so whether a step's memory
stays mapped hangs on the sizes some earlier step happened to free. Left to
that, each step could fault its memory back in page by page: about 3,800
minor faults per 16-image eval `detect_batch`, 1,700 per `finetune_step` and
3,100-3,400 per `pretrain_step`, at default sizes. Importing this module
therefore sets both thresholds once for the process, through `mallopt`:
mmap at 32 MiB, the top of glibc's dynamic mmap threshold, and trim at twice
that, as glibc's dynamic rule sets it. Both are needed, because setting
either one turns the dynamic rule off: with the trim threshold alone, every
array above 128 KiB would stay a fresh `mmap`. After warm-up a step then
faults in no pages. `MALLOC_THRESHOLDS` records the (mmap, trim) pair, or
None where the C library has no `mallopt` or refuses the values and its
allocator is left as it is. Where an array lives changes no value computed.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager

import numpy as np

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameter numbers
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 2 * _MMAP_THRESHOLD_BYTES


def _mallopt():
    """The C library's `mallopt`, or None where it has none."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return mallopt


def _keep_freed_memory() -> tuple[int, int] | None:
    """Set malloc's mmap and trim thresholds (see the module docstring);
    returns them, or None if `mallopt` is missing or refuses a value."""
    mallopt = _mallopt()
    if mallopt is None or mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES) != 1:
        return None
    if mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES) != 1:
        return None
    return _MMAP_THRESHOLD_BYTES, _TRIM_THRESHOLD_BYTES


MALLOC_THRESHOLDS = _keep_freed_memory()


class ShapeError(ValueError):
    """Raised when operand shapes do not conform for a primitive."""


class GraphFreedError(RuntimeError):
    """Raised when `backward()` reaches a node an earlier `backward()` freed."""


def _freed(g):
    raise GraphFreedError("backward() through a graph that an earlier backward() "
                          "already freed; a graph supports one backward()")


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._op = "leaf"

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, op={self._op}, grad={self.requires_grad})"

    # -- autodiff plumbing -----------------------------------------------------

    def detach(self) -> "Tensor":
        """Same values, no history: gradient never flows through the result."""
        return _make(self.data, (), "detach", None)

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add g to this tensor's gradient, adopting g itself when it is the first.

        g is not copied, so no backward rule may write into an array after it
        has been passed here, nor into the incoming gradient it was handed.
        """
        if self.grad is None:
            self.grad = g if g.dtype == self.data.dtype else g.astype(self.data.dtype)
        else:
            self.grad = self.grad + g

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every leaf that requires a gradient,
        freeing each interior node once its rule has run."""
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {self.data.shape}")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()  # reverse topological order; the walk keeps no reference
            if node._backward is None:  # a leaf
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._backward = _freed
            node._parents = ()


_recording = True  # False inside `no_grad`


@contextmanager
def no_grad():
    """Record no tape: outputs made inside carry no history and no gradient."""
    global _recording
    saved = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = saved


def _make(data: np.ndarray, parents: tuple[Tensor, ...], op: str, backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = _recording and any(p.requires_grad for p in parents)
    out._op = op
    if out.requires_grad:
        out._parents = parents
        out._backward = backward_fn
    else:
        out._parents = ()
        out._backward = None
    return out


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    sa, sb = a.data.shape, b.data.shape
    if sa == sb:
        return
    # leading-dim expansion only: the smaller shape must be a trailing suffix
    small, big = (sa, sb) if len(sa) < len(sb) else (sb, sa)
    if len(small) == len(big) or (small and big[len(big) - len(small):] != small):
        raise ShapeError(f"{op}: shapes {sa} and {sb} do not conform "
                         "(equal shapes or leading-dim broadcast only)")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over the leading axes added by broadcasting."""
    if g.shape == shape:
        return g
    return g.sum(axis=tuple(range(g.ndim - len(shape))))


# -- elementwise primitives ------------------------------------------------------


def _unary(op: str, x: Tensor, data: np.ndarray, grad) -> Tensor:
    """One-operand node; grad(g) is accumulated into x."""
    return _make(data, (x,), op, lambda g: x.accumulate_grad(grad(g)))


def _binary(op: str, a: Tensor, b: Tensor, data: np.ndarray, grad_a, grad_b) -> Tensor:
    """Two-operand node; grad_a(g), grad_b(g) are unbroadcast into a and b."""

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(grad_a(g), a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(grad_b(g), b.data.shape))

    return _make(data, (a, b), op, backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)
    return _binary("add", a, b, a.data + b.data, lambda g: g, lambda g: g)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("sub", a, b)
    return _binary("sub", a, b, a.data - b.data, lambda g: g, lambda g: -g)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("mul", a, b)
    return _binary("mul", a, b, a.data * b.data,
                   lambda g: g * b.data, lambda g: g * a.data)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("div", a, b)
    return _binary("div", a, b, a.data / b.data,
                   lambda g: g / b.data, lambda g: -g * a.data / (b.data * b.data))


def relu(x: Tensor) -> Tensor:
    return _unary("relu", x, np.maximum(x.data, 0), lambda g: g * (x.data > 0))


def sigmoid(x: Tensor) -> Tensor:
    # stable: exp of a non-positive argument on both branches
    d = x.data
    pos = d >= 0
    e = np.exp(np.where(pos, -d, d))
    data = np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e)).astype(d.dtype)
    return _unary("sigmoid", x, data, lambda g: g * data * (1.0 - data))


def log(x: Tensor) -> Tensor:
    return _unary("log", x, np.log(x.data), lambda g: g / x.data)


def absolute(x: Tensor) -> Tensor:
    return _unary("abs", x, np.abs(x.data), lambda g: g * np.sign(x.data))


def minimum(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("minimum", a, b)
    take_a = a.data <= b.data  # ties route to the first operand
    return _binary("minimum", a, b, np.where(take_a, a.data, b.data),
                   lambda g: g * take_a, lambda g: g * ~take_a)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("maximum", a, b)
    take_a = a.data >= b.data
    return _binary("maximum", a, b, np.where(take_a, a.data, b.data),
                   lambda g: g * take_a, lambda g: g * ~take_a)


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    inside = (x.data > lo) & (x.data < hi)
    return _unary("clamp", x, np.clip(x.data, lo, hi), lambda g: g * inside)


# -- linear algebra ---------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.data.shape, b.data.shape
    if len(sa) < 2 or len(sb) < 2 or sa[-1] != sb[-2]:
        raise ShapeError(f"matmul: inner dimensions of {sa} and {sb} do not match")
    if len(sa) != len(sb) or sa[:-2] != sb[:-2]:
        if not (len(sa) == 2 and len(sb) == 2):
            raise ShapeError(f"matmul: batch dimensions of {sa} and {sb} must be equal")
    return _binary("matmul", a, b, a.data @ b.data,
                   lambda g: g @ np.swapaxes(b.data, -1, -2),
                   lambda g: np.swapaxes(a.data, -1, -2) @ g)


def affine(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x @ W + b over the last input dimension (W is in_dim x out_dim)."""
    if x.data.shape[-1] != weight.data.shape[0]:
        raise ShapeError(f"affine: input dim {x.data.shape[-1]} does not match "
                         f"weight rows {weight.data.shape[0]}")
    data = x.data @ weight.data
    if bias is not None:
        data += bias.data

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g @ weight.data.T)
        if weight.requires_grad:
            g2 = g.reshape(-1, g.shape[-1])
            x2 = x.data.reshape(-1, x.data.shape[-1])
            weight.accumulate_grad(x2.T @ g2)
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(g.reshape(-1, g.shape[-1]).sum(axis=0))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(data, parents, "affine", backward)


# -- shape manipulation -------------------------------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    return _unary("reshape", x, x.data.reshape(shape), lambda g: g.reshape(x.data.shape))


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = tuple(np.argsort(axes))
    return _unary("transpose", x, np.transpose(x.data, axes), lambda g: np.transpose(g, inverse))


def take(x: Tensor, index, axis: int) -> Tensor:
    """The given entries of one axis, in order; backward adds g into zeros at
    them. The entries must be distinct and in range, so no two output
    entries share an input entry."""
    idx = np.asarray(index, dtype=np.int64)
    n = x.data.shape[axis]
    seen = np.zeros(n, dtype=bool)
    if idx.ndim == 1 and (not len(idx) or (idx.min() >= 0 and idx.max() < n)):
        seen[idx] = True
    if idx.ndim != 1 or np.count_nonzero(seen) != len(idx):
        raise ShapeError(f"take: the {idx.size} entries of axis {axis} must be "
                         f"distinct and in range({n})")
    where = (slice(None),) * (axis % x.data.ndim) + (idx,)

    def scatter(g):
        full = np.zeros_like(x.data)
        full[where] += g
        return full

    return _unary("take", x, x.data[where], scatter)


# -- reductions ------------------------------------------------------------------


def _reduce(op: str, x: Tensor, data, axis, count=None) -> Tensor:
    """Record a sum-like reduction over one axis or all of them; the backward
    divides by count (means only), restores the reduced axis and broadcasts
    back to x's shape."""

    def spread(g):
        if count is not None:
            g = g / count
        if axis is not None:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, x.data.shape).copy()

    return _unary(op, x, np.asarray(data), spread)


def tsum(x: Tensor, axis=None) -> Tensor:
    return _reduce("sum", x, x.data.sum(axis=axis), axis)


def tmean(x: Tensor, axis=None) -> Tensor:
    count = x.data.size if axis is None else x.data.shape[axis]
    return _reduce("mean", x, x.data.mean(axis=axis), axis, count)


# -- normalization and attention support -----------------------------------------


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    if x.data.shape == () or x.data.shape[-1] == 0:
        raise ShapeError(f"softmax: empty last axis in shape {x.data.shape}")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)
    return _unary("softmax", x, data,
                  lambda g: (g - (g * data).sum(axis=-1, keepdims=True)) * data)


# Probability bytes one block of batch items may hold in `attention`: a 1 MiB
# block keeps its logits-to-probabilities passes inside a 2 MiB L2 cache.
_ATTENTION_BLOCK_BYTES = 1 << 20
NORM_EPS = 1e-5  # added to the variance in `layer_norm` and `batch_norm_1d`


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int
              ) -> tuple[Tensor, np.ndarray | None]:
    """Multi-head scaled dot-product attention, recorded as one tape node.

    q is (B, Nq, C), k and v are (B, L, C), and heads divides C. The heads are
    split from C, softmax(Q K^T / sqrt(C / heads)) V is computed per head and
    the heads are merged back. Returns the (B, Nq, C) output and the
    (B, heads, Nq, L) probabilities, read-only and carrying no gradient, when
    the batch fits in one block; a batch that spans several blocks gets None,
    since its probabilities never exist whole.

    For the backward the node keeps q, k, v and each softmax row's max and
    sum, two (B, heads, Nq, 1) arrays, not the probabilities: the backward
    rebuilds them block by block with the forward's operations and computes
    dQ, dK and dV for every block, accumulating each only into an input that
    requires a gradient. It works in place only on buffers it allocates
    itself; it never writes into the incoming gradient or into an array
    already handed to `accumulate_grad`, which adopts arrays without copying.
    """
    sq, sk, sv = q.data.shape, k.data.shape, v.data.shape
    if len(sq) != 3 or len(sk) != 3 or sk != sv or sq[0] != sk[0] or sq[2] != sk[2]:
        raise ShapeError(f"attention: expects q (B, Nq, C) and k, v (B, L, C), got "
                         f"{sq}, {sk}, {sv}")
    b, nq, c = sq
    lk = sk[1]
    if heads < 1 or c % heads:
        raise ShapeError(f"attention: width {c} is not divisible by {heads} heads")
    dk = c // heads
    q4 = q.data.reshape(b, nq, heads, dk).transpose(0, 2, 1, 3)
    k4 = k.data.reshape(b, lk, heads, dk).transpose(0, 2, 1, 3)
    v4 = v.data.reshape(b, lk, heads, dk).transpose(0, 2, 1, 3)
    k4t, v4t = np.swapaxes(k4, -1, -2), np.swapaxes(v4, -1, -2)
    dtype = np.result_type(q.data, k.data)
    scale = dtype.type(1.0 / math.sqrt(dk))
    step = max(1, _ATTENTION_BLOCK_BYTES // max(1, heads * nq * lk * dtype.itemsize))
    block = (min(step, b), heads, nq, lk)
    # each softmax row's max (of the scaled logits) and sum (of their exps)
    row_max = np.empty((b, heads, nq, 1), dtype)
    row_sum = np.empty((b, heads, nq, 1), dtype)

    def scaled_logits(s, buf):
        p = buf[:len(row_max[s])]
        np.matmul(q4[s], k4t[s], out=p)
        p *= scale
        return p

    # the per-head outputs are written straight into the merged (B, Nq, C) layout
    mixed = np.empty((b, nq, heads, dk), np.result_type(dtype, v.data))
    mixed4 = mixed.transpose(0, 2, 1, 3)
    buf = np.empty(block, dtype)  # one block's probabilities, reused by every block
    for lo in range(0, b, step):
        s = slice(lo, lo + step)
        p = scaled_logits(s, buf)
        np.fmax.reduce(p, axis=-1, keepdims=True, out=row_max[s])
        p -= row_max[s]
        np.exp(p, out=p)
        np.sum(p, axis=-1, keepdims=True, out=row_sum[s])
        p /= row_sum[s]
        np.matmul(p, v4[s], out=mixed4[s])
    buf.flags.writeable = False
    probs = buf if b <= step else None
    data = mixed.reshape(b, nq, c)

    def backward(g):
        g4 = g.reshape(b, nq, heads, dk).transpose(0, 2, 1, 3)
        p_buf = np.empty(block, dtype)
        # dQ and dV are written straight into their merged (B, L, C) layouts
        gv = np.empty((b, lk, heads, dk), np.result_type(dtype, g))
        gv4 = gv.transpose(0, 2, 1, 3)
        gs_all = np.empty(block, np.result_type(g, v.data))
        gq = np.empty((b, nq, heads, dk), np.result_type(gs_all, k.data))
        gq4 = gq.transpose(0, 2, 1, 3)
        gk4 = np.empty((b, heads, dk, lk), np.result_type(q.data, gs_all))
        q4t = np.swapaxes(q4, -1, -2)
        for lo in range(0, b, step):
            s = slice(lo, lo + step)
            # this block's probabilities, rebuilt with the forward's operations
            p = scaled_logits(s, p_buf)
            p -= row_max[s]
            np.exp(p, out=p)
            p /= row_sum[s]
            np.matmul(np.swapaxes(p, -1, -2), g4[s], out=gv4[s])
            # softmax backward, then the scale, in place on this block's dL/dP
            gs = gs_all[:len(p)]
            np.matmul(g4[s], v4t[s], out=gs)
            gs -= (gs * p).sum(axis=-1, keepdims=True)
            gs *= p
            gs *= scale
            np.matmul(gs, k4[s], out=gq4[s])
            np.matmul(q4t[s], gs, out=gk4[s])
        if v.requires_grad:
            v.accumulate_grad(gv.reshape(b, lk, c))
        if q.requires_grad:
            q.accumulate_grad(gq.reshape(b, nq, c))
        if k.requires_grad:
            k.accumulate_grad(gk4.transpose(0, 3, 1, 2).reshape(b, lk, c))

    return _make(data, (q, k, v), "attention", backward), probs


def _normalize(op: str, x: Tensor, scale: Tensor, shift: Tensor, axis: int) -> Tensor:
    """Standardize x along axis, then apply the per-feature (last-axis) scale
    and shift. The variance is the mean of d * d for d = x - mean, as
    `np.var` computes it; d is then scaled in place into x-hat. The backward
    writes into two buffers it allocates and hands only the second to
    `accumulate_grad`."""
    mu = x.data.mean(axis=axis, keepdims=True)
    xhat = x.data - mu
    var = (xhat * xhat).mean(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    xhat *= inv
    data = xhat * scale.data
    data += shift.data

    def backward(g):
        if shift.requires_grad:
            shift.accumulate_grad(g.reshape(-1, g.shape[-1]).sum(axis=0))
        work = None  # g * xhat, then gh * xhat, then xhat * m2
        if scale.requires_grad:
            work = g * xhat
            scale.accumulate_grad(work.reshape(-1, g.shape[-1]).sum(axis=0))
        if x.requires_grad:
            gh = g * scale.data  # becomes (gh - m1 - xhat * m2) * inv
            m1 = gh.mean(axis=axis, keepdims=True)
            work = np.multiply(gh, xhat, out=work)
            m2 = work.mean(axis=axis, keepdims=True)
            gh -= m1
            gh -= np.multiply(xhat, m2, out=work)
            gh *= inv
            x.accumulate_grad(gh)

    return _make(data, (x, scale, shift), op, backward)


def layer_norm(x: Tensor, scale: Tensor, shift: Tensor) -> Tensor:
    """Normalize over the last dimension, then apply elementwise scale/shift."""
    return _normalize("layer_norm", x, scale, shift, -1)


def batch_norm_1d(x: Tensor, scale: Tensor, shift: Tensor) -> Tensor:
    """Normalize a (batch, features) tensor over the batch axis.

    Current-batch statistics only (training-time usage); batch size 1 has
    undefined variance and is rejected.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"batch_norm_1d expects a 2-d input, got {x.data.shape}")
    if x.data.shape[0] < 2:
        raise ShapeError("batch_norm_1d requires batch size >= 2")
    return _normalize("batch_norm_1d", x, scale, shift, 0)


# -- similarity ----------------------------------------------------------------------

ZERO_NORM = 1e-12  # a row norm at or below this is a zero row


def l2_normalize(x: Tensor) -> Tensor:
    """Unit-normalize rows over the last dimension; zero rows are an error."""
    norms = np.sqrt((x.data.astype(np.float64) ** 2).sum(axis=-1, keepdims=True))
    bad = np.argwhere(norms <= ZERO_NORM)
    if bad.size:
        raise ValueError(f"l2_normalize: zero-norm row at index {tuple(bad[0][:-1])}")
    inv = (1.0 / norms).astype(x.data.dtype)
    data = x.data * inv
    # d(x/|x|) = (g - y * sum(g*y)) / |x| per row
    return _unary("l2_normalize", x, data,
                  lambda g: (g - data * (g * data).sum(axis=-1, keepdims=True)) * inv)


def cosine(a: Tensor, b: Tensor) -> Tensor:
    """Cosine similarity along the last dimension (value in [-1, 1])."""
    return tsum(mul(l2_normalize(a), l2_normalize(b)), axis=-1)
