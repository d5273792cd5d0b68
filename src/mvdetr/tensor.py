"""Dense tensor engine with reverse-mode automatic differentiation.

Tensors wrap row-major numpy buffers (float32 in production paths; float64 is
accepted so gradient-check oracles can run at full precision). Each primitive
that touches a gradient-requiring input appends itself to the implicit tape:
the output node keeps its parents and a closure that routes the output
gradient backwards. `backward()` replays that record in reverse topological
order, so every parameter reachable from the loss accumulates its gradient
exactly once per call.

Broadcasting is restricted to leading-dimension expansion: elementwise ops
accept equal shapes, or one operand whose shape is a trailing suffix of the
other's (the usual bias-add pattern). This keeps every backward rule a plain
sum over the expanded axes.

Multi-head attention is one fused primitive, `attention`, rather than a chain
of generic nodes. Its forward computes softmax(Q K^T / sqrt(d_k)) in a single
freshly allocated buffer, with scale, max-shift, exp and normalisation done in
place, and its backward keeps only that probability buffer plus the q/k/v
inputs it already references: no logits or scaled logits stay alive on the
tape. Every arithmetic step runs in the order of the composed ops (the same
matmuls on the same array views, the float32 scale applied after Q K^T, and
the softmax backward (g - sum(g * p)) * p followed by the scale), and numpy's
elementwise kernels give the same bits in place as out of place, so outputs,
probabilities and gradients are bit-identical to building attention from
`matmul`, `transpose`, `mul` and `softmax`.
"""

from __future__ import annotations

import math

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not conform for a primitive."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

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

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, op={self._op}, grad={self.requires_grad})"

    # -- autodiff plumbing -----------------------------------------------------

    def detach(self) -> "Tensor":
        """Same values, no history: gradient never flows through the result."""
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.grad = None
        out.requires_grad = False
        out._parents = ()
        out._backward = None
        out._op = "detach"
        return out

    def zero_grad(self) -> None:
        self.grad = None

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
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar ---------------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other, self))

    def __radd__(self, other):
        return add(_wrap(other, self), self)

    def __sub__(self, other):
        return sub(self, _wrap(other, self))

    def __rsub__(self, other):
        return sub(_wrap(other, self), self)

    def __mul__(self, other):
        return mul(self, _wrap(other, self))

    def __rmul__(self, other):
        return mul(_wrap(other, self), self)

    def __truediv__(self, other):
        return div(self, _wrap(other, self))

    def __neg__(self):
        return mul(self, _wrap(-1.0, self))

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])


def _wrap(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def _make(data: np.ndarray, parents: tuple[Tensor, ...], op: str, backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = any(p.requires_grad or p._parents for p in parents)
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
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    return g


# -- elementwise primitives ------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad or a._parents:
            a.accumulate_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad or b._parents:
            b.accumulate_grad(_unbroadcast(g, b.data.shape))

    return _make(data, (a, b), "add", backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("sub", a, b)
    data = a.data - b.data

    def backward(g):
        if a.requires_grad or a._parents:
            a.accumulate_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad or b._parents:
            b.accumulate_grad(_unbroadcast(-g, b.data.shape))

    return _make(data, (a, b), "sub", backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("mul", a, b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad or a._parents:
            a.accumulate_grad(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad or b._parents:
            b.accumulate_grad(_unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), "mul", backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("div", a, b)
    data = a.data / b.data

    def backward(g):
        if a.requires_grad or a._parents:
            a.accumulate_grad(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad or b._parents:
            b.accumulate_grad(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(data, (a, b), "div", backward)


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0)

    def backward(g):
        x.accumulate_grad(g * (x.data > 0))

    return _make(data, (x,), "relu", backward)


def sigmoid(x: Tensor) -> Tensor:
    # stable: exp of a non-positive argument on both branches
    d = x.data
    pos = d >= 0
    e = np.exp(np.where(pos, -d, d))
    data = np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e)).astype(d.dtype)

    def backward(g):
        x.accumulate_grad(g * data * (1.0 - data))

    return _make(data, (x,), "sigmoid", backward)


def exp(x: Tensor) -> Tensor:
    data = np.exp(x.data)

    def backward(g):
        x.accumulate_grad(g * data)

    return _make(data, (x,), "exp", backward)


def log(x: Tensor) -> Tensor:
    data = np.log(x.data)

    def backward(g):
        x.accumulate_grad(g / x.data)

    return _make(data, (x,), "log", backward)


def sqrt(x: Tensor) -> Tensor:
    data = np.sqrt(x.data)

    def backward(g):
        x.accumulate_grad(g * 0.5 / data)

    return _make(data, (x,), "sqrt", backward)


def absolute(x: Tensor) -> Tensor:
    data = np.abs(x.data)

    def backward(g):
        x.accumulate_grad(g * np.sign(x.data))

    return _make(data, (x,), "abs", backward)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("minimum", a, b)
    take_a = a.data <= b.data  # ties route to the first operand
    data = np.where(take_a, a.data, b.data)

    def backward(g):
        if a.requires_grad or a._parents:
            a.accumulate_grad(_unbroadcast(g * take_a, a.data.shape))
        if b.requires_grad or b._parents:
            b.accumulate_grad(_unbroadcast(g * ~take_a, b.data.shape))

    return _make(data, (a, b), "minimum", backward)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("maximum", a, b)
    take_a = a.data >= b.data
    data = np.where(take_a, a.data, b.data)

    def backward(g):
        if a.requires_grad or a._parents:
            a.accumulate_grad(_unbroadcast(g * take_a, a.data.shape))
        if b.requires_grad or b._parents:
            b.accumulate_grad(_unbroadcast(g * ~take_a, b.data.shape))

    return _make(data, (a, b), "maximum", backward)


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    data = np.clip(x.data, lo, hi)
    inside = (x.data > lo) & (x.data < hi)

    def backward(g):
        x.accumulate_grad(g * inside)

    return _make(data, (x,), "clamp", backward)


# -- linear algebra ---------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.data.shape, b.data.shape
    if len(sa) < 2 or len(sb) < 2 or sa[-1] != sb[-2]:
        raise ShapeError(f"matmul: inner dimensions of {sa} and {sb} do not match")
    if len(sa) != len(sb) or sa[:-2] != sb[:-2]:
        if not (len(sa) == 2 and len(sb) == 2):
            raise ShapeError(f"matmul: batch dimensions of {sa} and {sb} must be equal")
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad or a._parents:
            a.accumulate_grad(g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad or b._parents:
            b.accumulate_grad(np.swapaxes(a.data, -1, -2) @ g)

    return _make(data, (a, b), "matmul", backward)


def affine(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x @ W + b over the last input dimension (W is in_dim x out_dim)."""
    if x.data.shape[-1] != weight.data.shape[0]:
        raise ShapeError(f"affine: input dim {x.data.shape[-1]} does not match "
                         f"weight rows {weight.data.shape[0]}")
    data = x.data @ weight.data
    if bias is not None:
        data = data + bias.data

    def backward(g):
        if x.requires_grad or x._parents:
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
    data = x.data.reshape(shape)

    def backward(g):
        x.accumulate_grad(g.reshape(x.data.shape))

    return _make(data, (x,), "reshape", backward)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    data = np.transpose(x.data, axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        x.accumulate_grad(np.transpose(g, inverse))

    return _make(data, (x,), "transpose", backward)


def concatenate(tensors: list[Tensor], axis: int = 0) -> Tensor:
    base = tensors[0].data.shape
    for t in tensors[1:]:
        s = t.data.shape
        if len(s) != len(base) or any(s[i] != base[i] for i in range(len(s)) if i != axis % len(s)):
            raise ShapeError(f"concatenate: shape {s} incompatible with {base} on axis {axis}")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad or t._parents:
                index = [slice(None)] * g.ndim
                index[axis] = slice(lo, hi)
                t.accumulate_grad(g[tuple(index)])

    return _make(data, tuple(tensors), "concatenate", backward)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis; backward scatters into zeros."""
    index = [slice(None)] * x.data.ndim
    index[axis] = slice(start, start + length)
    data = x.data[tuple(index)].copy()

    def backward(g):
        full = np.zeros_like(x.data)
        full[tuple(index)] = g
        x.accumulate_grad(full)

    return _make(data, (x,), "narrow", backward)


def gather_rows(x: Tensor, indices) -> Tensor:
    """out[i] = x[indices[i]]; backward scatter-adds (indices may repeat)."""
    idx = np.asarray(indices, dtype=np.int64)
    data = x.data[idx]

    def backward(g):
        full = np.zeros_like(x.data)
        np.add.at(full, idx, g)
        x.accumulate_grad(full)

    return _make(data, (x,), "gather_rows", backward)


# -- reductions ------------------------------------------------------------------


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            x.accumulate_grad(np.broadcast_to(g, x.data.shape).copy())
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        x.accumulate_grad(np.broadcast_to(g, x.data.shape).copy())

    return _make(np.asarray(data), (x,), "sum", backward)


def tmean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = x.data.size
    elif isinstance(axis, tuple):
        count = int(np.prod([x.data.shape[a] for a in axis]))
    else:
        count = x.data.shape[axis]
    data = x.data.mean(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            x.accumulate_grad(np.broadcast_to(g / count, x.data.shape).copy())
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        x.accumulate_grad(np.broadcast_to(g / count, x.data.shape).copy())

    return _make(np.asarray(data), (x,), "mean", backward)


# -- normalization and attention support -----------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    if x.data.shape == () or x.data.shape[axis] == 0:
        raise ShapeError(f"softmax: empty axis {axis} in shape {x.data.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        x.accumulate_grad((g - dot) * data)

    return _make(data, (x,), "softmax", backward)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> tuple[Tensor, np.ndarray]:
    """Multi-head scaled dot-product attention, recorded as one tape node.

    q is (B, Nq, C), k and v are (B, L, C), and heads divides C. The heads are
    split from C, softmax(Q K^T / sqrt(C / heads)) V is computed per head and
    the heads are merged back. Returns the (B, Nq, C) output and the
    (B, heads, Nq, L) probabilities. The probabilities are the buffer the
    backward reads, so they are returned read-only and carry no gradient.

    The backward works in place only on buffers it allocates itself; it never
    writes into the incoming gradient or into an array already handed to
    `accumulate_grad`, which adopts arrays without copying.
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
    probs = q4 @ k4.transpose(0, 1, 3, 2)
    scale = probs.dtype.type(1.0 / math.sqrt(dk))
    probs *= scale
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    probs.flags.writeable = False
    data = (probs @ v4).transpose(0, 2, 1, 3).reshape(b, nq, c)

    def backward(g):
        g4 = g.reshape(b, nq, heads, dk).transpose(0, 2, 1, 3)
        if v.requires_grad or v._parents:
            gv = np.swapaxes(probs, -1, -2) @ g4
            v.accumulate_grad(gv.transpose(0, 2, 1, 3).reshape(b, lk, c))
        want_q = q.requires_grad or q._parents
        want_k = k.requires_grad or k._parents
        if not (want_q or want_k):
            return
        # softmax backward, then the scale, into the fresh buffer of dL/dP
        gs = g4 @ np.swapaxes(v4, -1, -2)
        gs -= (gs * probs).sum(axis=-1, keepdims=True)
        gs *= probs
        gs *= scale
        if want_q:
            q.accumulate_grad((gs @ k4).transpose(0, 2, 1, 3).reshape(b, nq, c))
        if want_k:
            gk = np.swapaxes(q4, -1, -2) @ gs
            k.accumulate_grad(gk.transpose(0, 3, 1, 2).reshape(b, lk, c))

    return _make(data, (q, k, v), "attention", backward), probs


def layer_norm(x: Tensor, scale: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last dimension, then apply elementwise scale/shift."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    data = xhat * scale.data + shift.data

    def backward(g):
        if shift.requires_grad:
            shift.accumulate_grad(g.reshape(-1, g.shape[-1]).sum(axis=0))
        if scale.requires_grad:
            scale.accumulate_grad((g * xhat).reshape(-1, g.shape[-1]).sum(axis=0))
        if x.requires_grad or x._parents:
            gh = g * scale.data
            m1 = gh.mean(axis=-1, keepdims=True)
            m2 = (gh * xhat).mean(axis=-1, keepdims=True)
            x.accumulate_grad((gh - m1 - xhat * m2) * inv)

    return _make(data, (x, scale, shift), "layer_norm", backward)


def batch_norm_1d(x: Tensor, scale: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize a (batch, features) tensor over the batch axis.

    Current-batch statistics only (training-time usage); batch size 1 has
    undefined variance and is rejected.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"batch_norm_1d expects a 2-d input, got {x.data.shape}")
    if x.data.shape[0] < 2:
        raise ShapeError("batch_norm_1d requires batch size >= 2")
    mu = x.data.mean(axis=0, keepdims=True)
    var = x.data.var(axis=0, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    data = xhat * scale.data + shift.data

    def backward(g):
        if shift.requires_grad:
            shift.accumulate_grad(g.sum(axis=0))
        if scale.requires_grad:
            scale.accumulate_grad((g * xhat).sum(axis=0))
        if x.requires_grad or x._parents:
            gh = g * scale.data
            m1 = gh.mean(axis=0, keepdims=True)
            m2 = (gh * xhat).mean(axis=0, keepdims=True)
            x.accumulate_grad((gh - m1 - xhat * m2) * inv)

    return _make(data, (x, scale, shift), "batch_norm_1d", backward)


# -- pooling and similarity --------------------------------------------------------


def global_average_pool(x: Tensor) -> Tensor:
    """Spatial mean: collapse every axis except the last (channel) one."""
    if x.data.ndim < 2:
        raise ShapeError(f"global_average_pool expects >= 2 dims, got {x.data.shape}")
    return tmean(x, axis=tuple(range(x.data.ndim - 1)))


def l2_normalize(x: Tensor, eps_check: float = 1e-12) -> Tensor:
    """Unit-normalize rows over the last dimension; zero rows are an error."""
    norms = np.sqrt((x.data.astype(np.float64) ** 2).sum(axis=-1, keepdims=True))
    bad = np.argwhere(norms <= eps_check)
    if bad.size:
        raise ValueError(f"l2_normalize: zero-norm row at index {tuple(bad[0][:-1])}")
    inv = (1.0 / norms).astype(x.data.dtype)
    data = x.data * inv

    def backward(g):
        # d(x/|x|) = (g - y * sum(g*y)) / |x| per row
        dot = (g * data).sum(axis=-1, keepdims=True)
        x.accumulate_grad((g - data * dot) * inv)

    return _make(data, (x,), "l2_normalize", backward)


def cosine(a: Tensor, b: Tensor) -> Tensor:
    """Cosine similarity along the last dimension (value in [-1, 1])."""
    return tsum(mul(l2_normalize(a), l2_normalize(b)), axis=-1)
