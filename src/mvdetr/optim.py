"""AdamW with decoupled weight decay, plus global-norm gradient clipping.

Neither runs a chain of numpy calls per tensor. AdamW keeps each moment
as one flat array in parameter order (the per-name `m` and `v` dicts are
views into it); a step gathers the gradients and the parameters into fresh
flat arrays, updates them with whole-buffer operations in the per-tensor
order and rebinds each parameter's `data` to its segment, so no array a
caller holds changes. Elementwise arithmetic gives the same bits over a
concatenation as over each tensor, so the result is bit-identical to a
per-tensor loop. `clip_global_norm` squares the float64 gradients of one
size as the rows of one array and sums each row, which gives each
gradient's own sum of squares; it adds those sums in parameter order, as a
per-tensor loop does.
"""

from __future__ import annotations

import math

import numpy as np

from .checkpoint import whole_count
from .tensor import Tensor

BETAS = (0.9, 0.999)
EPS = 1e-8  # added to the root of the second-moment estimate


def _flat(arrays: list[np.ndarray], dtype) -> np.ndarray:
    """A fresh 1-D array holding the arrays' entries one after another."""
    return np.concatenate([a.reshape(-1) for a in arrays] + [np.empty(0, dtype)],
                          dtype=dtype)


class AdamW:
    """Decoupled weight decay: w <- w - lr*wd*w, applied separately from the
    moment update; betas BETAS, epsilon EPS. Parameters with no
    gradient this step are treated as zero-gradient (decay still applies).
    The parameters share one floating dtype.
    """

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float):
        self.names = list(params)
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        dtypes = {p.data.dtype for p in self.params.values()}
        if len(dtypes) > 1:
            raise ValueError(f"AdamW needs parameters of one dtype, got "
                             f"{sorted(map(str, dtypes))}")
        self._dtype = dtypes.pop() if dtypes else np.dtype(np.float32)
        self._shapes = [self.params[n].data.shape for n in self.names]
        ends = np.cumsum([0] + [math.prod(s) for s in self._shapes]).tolist()
        self._segments = list(zip(ends[:-1], ends[1:]))
        self._set_moments(np.zeros(ends[-1], self._dtype), np.zeros(ends[-1], self._dtype))

    def _set_moments(self, m: np.ndarray, v: np.ndarray) -> None:
        self._m, self._v = m, v
        self.m = self._views(m)
        self.v = self._views(v)

    def _views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        return {n: flat[lo:hi].reshape(shape)
                for n, shape, (lo, hi) in zip(self.names, self._shapes, self._segments)}

    def step(self) -> None:
        """One update of every parameter, or none: a non-finite gradient
        anywhere raises before any parameter, moment or `t` changes."""
        grads = [self.params[n].grad for n in self.names]
        g = _flat([np.zeros(shape, self._dtype) if gr is None else gr
                   for gr, shape in zip(grads, self._shapes)], self._dtype)
        if not np.isfinite(g).all():
            name = next(n for n, gr in zip(self.names, grads)
                        if gr is not None and not np.isfinite(gr).all())
            raise FloatingPointError(f"non-finite gradient in parameter {name!r} "
                                     f"at optimizer step {self.t + 1}")
        self.t += 1
        b1, b2 = BETAS
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        # in place only on buffers this step owns: g, p and the moments
        p = _flat([self.params[n].data for n in self.names], self._dtype)
        if self.weight_decay:
            p -= self.lr * self.weight_decay * p
        self._m *= b1
        self._m += (1.0 - b1) * g
        g *= g
        g *= 1.0 - b2
        self._v *= b2
        self._v += g
        update = self._m / bc1  # m_hat, then lr * m_hat / (sqrt(v_hat) + EPS)
        update *= self.lr
        denom = self._v / bc2
        np.sqrt(denom, out=denom)
        denom += EPS
        update /= denom
        p -= update
        for name, data in self._views(p).items():
            self.params[name].data = data

    # -- checkpoint plumbing -----------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {f"m.{n}": self.m[n].astype(np.float32) for n in self.names}
        out.update({f"v.{n}": self.v[n].astype(np.float32) for n in self.names})
        out["t"] = np.array([self.t], dtype=np.float32)
        return out

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Moments and step count from `state_arrays` entries. A missing entry,
        a moment not of its parameter's shape or not finite, a negative second
        moment or a `t` that is not one whole number >= 0 raises ValueError led
        by the entry's name, changing nothing."""
        for n, shape in zip(self.names, self._shapes):
            for key in (f"m.{n}", f"v.{n}"):
                if key not in arrays:
                    raise ValueError(f"{key} is missing")
                if arrays[key].shape != shape:
                    raise ValueError(f"{key} has shape {arrays[key].shape}, expected "
                                     f"{shape}")
                if not np.isfinite(arrays[key]).all():
                    raise ValueError(f"{key} holds a non-finite value")
            if (arrays[f"v.{n}"] < 0).any():
                raise ValueError(f"v.{n} holds a negative value")
        if "t" not in arrays:
            raise ValueError("t is missing")
        self.t = whole_count(arrays["t"], "t")
        self._set_moments(_flat([arrays[f"m.{n}"] for n in self.names], self._dtype),
                          _flat([arrays[f"v.{n}"] for n in self.names], self._dtype))


def clip_global_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    held = [p for p in params.values() if p.grad is not None]
    by_size: dict[int, list[int]] = {}
    for i, p in enumerate(held):
        by_size.setdefault(p.grad.size, []).append(i)
    sums = [0.0] * len(held)
    for size, rows in by_size.items():
        # one row per gradient: a row sums as that gradient alone would
        squares = _flat([held[i].grad for i in rows], np.float64).reshape(len(rows), size)
        squares *= squares
        for i, s in zip(rows, squares.sum(axis=1).tolist()):
            sums[i] = s
    total = 0.0
    for s in sums:  # in parameter order, as one sum per gradient would add up
        total += s
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = np.float32(max_norm / (norm + 1e-12))
        for p in held:
            p.grad = p.grad * scale
    return norm
