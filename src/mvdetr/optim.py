"""AdamW with decoupled weight decay, plus global-norm gradient clipping."""

from __future__ import annotations

import math

import numpy as np

from .checkpoint import whole_count
from .tensor import Tensor

BETAS = (0.9, 0.999)
EPS = 1e-8  # added to the root of the second-moment estimate


class AdamW:
    """Decoupled weight decay: w <- w - lr*wd*w, applied separately from the
    moment update; betas BETAS, epsilon EPS. Parameters with no
    gradient this step are treated as zero-gradient (decay still applies).
    """

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float):
        self.names = list(params)
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {n: np.zeros_like(params[n].data) for n in self.names}
        self.v = {n: np.zeros_like(params[n].data) for n in self.names}

    def step(self) -> None:
        """One update of every parameter, or none: a non-finite gradient
        anywhere raises before any parameter, moment or `t` changes."""
        for name in self.names:
            g = self.params[name].grad
            if g is not None and not np.isfinite(g).all():
                raise FloatingPointError(f"non-finite gradient in parameter {name!r} "
                                         f"at optimizer step {self.t + 1}")
        self.t += 1
        b1, b2 = BETAS
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name in self.names:
            p = self.params[name]
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if self.weight_decay:
                p.data = p.data - self.lr * self.weight_decay * p.data
            self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            self.v[name] = b2 * self.v[name] + (1.0 - b2) * (g * g)
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + EPS)

    # -- checkpoint plumbing -----------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {f"m.{n}": self.m[n].astype(np.float32) for n in self.names}
        out.update({f"v.{n}": self.v[n].astype(np.float32) for n in self.names})
        out["t"] = np.array([self.t], dtype=np.float32)
        return out

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Moments and step count from `state_arrays` entries. A missing entry,
        a moment not of its parameter's shape or a `t` that is not one whole
        number >= 0 raises ValueError led by the entry's name, changing nothing."""
        for n in self.names:
            for key in (f"m.{n}", f"v.{n}"):
                if key not in arrays:
                    raise ValueError(f"{key} is missing")
                if arrays[key].shape != self.params[n].data.shape:
                    raise ValueError(f"{key} has shape {arrays[key].shape}, expected "
                                     f"{self.params[n].data.shape}")
        if "t" not in arrays:
            raise ValueError("t is missing")
        self.t = whole_count(arrays["t"], "t")
        for n in self.names:
            self.m[n] = arrays[f"m.{n}"].astype(self.params[n].data.dtype, copy=True)
            self.v[n] = arrays[f"v.{n}"].astype(self.params[n].data.dtype, copy=True)


def clip_global_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = np.float32(max_norm / (norm + 1e-12))
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm
