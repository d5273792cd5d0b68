"""DETR-style encoder/decoder with two-view conditioned cross-attention.

The decoder's cross-attention accepts optional region features from the
other view: they are projected and added to the learnable object queries, so
the query positional term becomes (queries + projected regions). With no
region features the path is exactly the plain DETR decoder - pretrained
weights drop into finetuning unchanged.

Parameters live in an insertion-ordered dict with stable dotted names
(e.g. decoder.layer0.cross.f_q.weight); checkpoints rely on those names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .rng import Rng
from .tensor import Tensor


@dataclass
class TransformerConfig:
    d_model: int = 64
    heads: int = 4
    enc_layers: int = 2
    dec_layers: int = 2
    ffn_dim: int = 128
    n_queries: int = 10
    in_channels: int = 64   # backbone feature channels
    sem_dim: int = 64       # semantic head output width (matches in_channels)
    projector_identity: bool = False  # bypass the projector MLP (tests only)

    def __post_init__(self):
        if self.d_model % self.heads:
            raise ValueError(f"d_model {self.d_model} not divisible by heads {self.heads}")
        if self.d_model % 4:
            raise ValueError("d_model must be divisible by 4 for 2d sine embeddings")
        if self.n_queries < 1:
            raise ValueError("need at least one object query")


def sine_positional_embedding(h: int, w: int, dim: int,
                              temperature: float = 10000.0,
                              dtype=np.float32) -> np.ndarray:
    """Fixed 2d sine/cosine map, (h*w, dim); dim/2 channels per axis."""
    half = dim // 2
    ys = (np.arange(h, dtype=np.float64) + 1.0) / h * (2 * math.pi)
    xs = (np.arange(w, dtype=np.float64) + 1.0) / w * (2 * math.pi)
    freq = temperature ** (2.0 * (np.arange(half) // 2) / half)

    def encode(pos):
        ang = pos[:, None] / freq[None, :]
        out = np.empty_like(ang)
        out[:, 0::2] = np.sin(ang[:, 0::2])
        out[:, 1::2] = np.cos(ang[:, 1::2])
        return out

    ye = encode(ys)  # (h, half)
    xe = encode(xs)  # (w, half)
    full = np.concatenate([
        np.repeat(ye[:, None, :], w, axis=1),
        np.repeat(xe[None, :, :], h, axis=0),
    ], axis=-1)
    return full.reshape(h * w, dim).astype(dtype)


class Detr:
    """Encoder/decoder transformer plus prediction heads and projector."""

    def __init__(self, config: TransformerConfig, seed: int, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        self.params: dict[str, Tensor] = {}
        self._rng = Rng(seed)
        self._pos_cache: dict[tuple[int, int], np.ndarray] = {}
        c, ffn = config.d_model, config.ffn_dim

        self._linear("input_proj", config.in_channels, c)
        for i in range(config.enc_layers):
            p = f"encoder.layer{i}"
            self._attention(f"{p}.self", c)
            self._norm(f"{p}.norm1", c)
            self._linear(f"{p}.ffn.fc1", c, ffn)
            self._linear(f"{p}.ffn.fc2", ffn, c)
            self._norm(f"{p}.norm2", c)
        for i in range(config.dec_layers):
            p = f"decoder.layer{i}"
            self._attention(f"{p}.self", c)
            self._norm(f"{p}.norm1", c)
            self._attention(f"{p}.cross", c)
            self._norm(f"{p}.norm2", c)
            self._linear(f"{p}.ffn.fc1", c, ffn)
            self._linear(f"{p}.ffn.fc2", ffn, c)
            self._norm(f"{p}.norm3", c)
        self._param("query_embed.weight", (config.n_queries, c), scale=1.0)
        # bias-free so zero region features reduce exactly to the plain path
        self._param("z_proj.weight", (config.in_channels, c),
                    scale=1.0 / math.sqrt(config.in_channels))
        self._linear("head.box.fc0", c, c)
        self._linear("head.box.fc1", c, c)
        self._linear("head.box.fc2", c, 4)
        self._linear("head.sem", c, config.sem_dim)
        self._linear("head.match", c, 1)
        self._linear("projector.fc0", c, c)
        self._norm("projector.bn0", c)
        self._linear("projector.fc1", c, c)
        self._norm("projector.bn1", c)
        self._linear("projector.fc2", c, c)

    # -- parameter helpers ------------------------------------------------------

    def _param(self, name: str, shape: tuple[int, ...], scale: float) -> None:
        n = int(np.prod(shape))
        data = np.array(self._rng.normals(n, 0.0, scale), dtype=self.dtype).reshape(shape)
        self.params[name] = Tensor(data, requires_grad=True)

    def _linear(self, name: str, fan_in: int, fan_out: int) -> None:
        self._param(f"{name}.weight", (fan_in, fan_out), scale=math.sqrt(1.0 / fan_in))
        self.params[f"{name}.bias"] = Tensor(np.zeros(fan_out, dtype=self.dtype),
                                             requires_grad=True)

    def _norm(self, name: str, dim: int) -> None:
        self.params[f"{name}.scale"] = Tensor(np.ones(dim, dtype=self.dtype),
                                              requires_grad=True)
        self.params[f"{name}.shift"] = Tensor(np.zeros(dim, dtype=self.dtype),
                                              requires_grad=True)

    def add_class_head(self, n_classes: int, seed: int) -> None:
        """Fresh (K+1)-way classification head for finetuning."""
        rng, keep = Rng(seed), self._rng
        self._rng = rng
        try:
            self._linear("class_head", self.config.d_model, n_classes + 1)
        finally:
            self._rng = keep

    def _lin(self, name: str, x: Tensor) -> Tensor:
        return T.affine(x, self.params[f"{name}.weight"], self.params[f"{name}.bias"])

    def _ln(self, name: str, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.params[f"{name}.scale"], self.params[f"{name}.shift"])

    # -- attention ----------------------------------------------------------------

    def _attention(self, name: str, c: int) -> None:
        for part in ("f_q", "f_k", "f_v", "out"):
            self._linear(f"{name}.{part}", c, c)

    def mha(self, prefix: str, q_in: Tensor, k_in: Tensor, v_in: Tensor
            ) -> tuple[Tensor, Tensor]:
        """Multi-head attention on (Nq, C) or batched (B, Nq, C) inputs.

        Returns (output, attention weights); weights are (heads, Nq, L) for
        single inputs and (B, heads, Nq, L) batched. The weights are the
        buffer the attention backward reads: they are read-only and carry no
        gradient.
        """
        c, heads = self.config.d_model, self.config.heads
        if q_in.data.shape[-1] != c or k_in.data.shape[-1] != c:
            raise T.ShapeError(f"mha: inputs must have width {c}, got "
                               f"{q_in.data.shape} / {k_in.data.shape}")
        single = q_in.data.ndim == 2
        if single:
            q_in = T.reshape(q_in, (1,) + q_in.data.shape)
            k_in = T.reshape(k_in, (1,) + k_in.data.shape)
            v_in = T.reshape(v_in, (1,) + v_in.data.shape)
        mixed, attn = T.attention(self._lin(f"{prefix}.f_q", q_in),
                                  self._lin(f"{prefix}.f_k", k_in),
                                  self._lin(f"{prefix}.f_v", v_in), heads)
        out = self._lin(f"{prefix}.out", mixed)
        if single:
            return T.reshape(out, out.data.shape[1:]), Tensor(attn[0])
        return out, Tensor(attn)

    # -- positional embedding --------------------------------------------------------

    def positional(self, h: int, w: int) -> np.ndarray:
        key = (h, w)
        if key not in self._pos_cache:
            self._pos_cache[key] = sine_positional_embedding(
                h, w, self.config.d_model, dtype=self.dtype)
        return self._pos_cache[key]

    # -- forward paths -----------------------------------------------------------------

    def encode(self, h: Tensor, pos_override: np.ndarray | None = None
               ) -> tuple[Tensor, tuple[int, int]]:
        """Backbone features to global context.

        Accepts (H1, W1, Cb) or a batch (B, H1, W1, Cb); returns context of
        shape (H1*W1, C) or (B, H1*W1, C) plus the spatial dims.
        """
        if h.data.ndim not in (3, 4):
            raise T.ShapeError(f"encode expects (H, W, C) features or a batch, "
                               f"got {h.data.shape}")
        single = h.data.ndim == 3
        hh, ww, cb = h.data.shape[-3:]
        b = 1 if single else h.data.shape[0]
        pos_arr = self.positional(hh, ww) if pos_override is None else pos_override
        pos = Tensor(pos_arr)  # (L, C): broadcasts over the batch dim
        x = self._lin("input_proj", T.reshape(h, (b, hh * ww, cb)))
        for i in range(self.config.enc_layers):
            p = f"encoder.layer{i}"
            xq = T.add(x, pos)
            a, _ = self.mha(f"{p}.self", xq, xq, x)
            x = self._ln(f"{p}.norm1", T.add(x, a))
            f = self._lin(f"{p}.ffn.fc2", T.relu(self._lin(f"{p}.ffn.fc1", x)))
            x = self._ln(f"{p}.norm2", T.add(x, f))
        if single:
            x = T.reshape(x, (hh * ww, self.config.d_model))
        return x, (hh, ww)

    def decode(self, context: Tensor, hw: tuple[int, int],
               z: Tensor | None = None,
               pos_override: np.ndarray | None = None
               ) -> tuple[Tensor, Tensor]:
        """Query decoding against view context ((L, C) or batched (B, L, C)).

        z, when given, holds the other view's pooled region features with
        one row per query ((N, Cb), batched (B, N, Cb)); they are projected
        and added to the object queries. Returns (decoded queries, final
        layer cross-attention weights (heads, N, L), batched with a leading
        B).
        """
        n_q = self.config.n_queries
        single = context.data.ndim == 2
        phi_q = self.params["query_embed.weight"]
        if z is not None:
            if z.data.shape[-2] != n_q:
                raise T.ShapeError(f"region features rows {z.data.shape[-2]} must equal "
                                   f"query count {n_q} during pretraining")
            if (z.data.ndim == 2) != single:
                raise T.ShapeError("region features and context must agree on batching")
            qpos = T.add(T.affine(z, self.params["z_proj.weight"]), phi_q)
        else:
            qpos = phi_q
        pos_arr = self.positional(*hw) if pos_override is None else pos_override
        pos = Tensor(pos_arr)
        kv = T.add(context, pos)
        b = 1 if single else context.data.shape[0]
        y_shape = (n_q, self.config.d_model) if single else (b, n_q, self.config.d_model)
        y = Tensor(np.zeros(y_shape, dtype=context.data.dtype))
        attn = None
        self.decoder_layer_outputs: list[Tensor] = []
        for i in range(self.config.dec_layers):
            p = f"decoder.layer{i}"
            yq = T.add(y, qpos)
            a, _ = self.mha(f"{p}.self", yq, yq, y)
            y = self._ln(f"{p}.norm1", T.add(y, a))
            a, attn = self.mha(f"{p}.cross", T.add(y, qpos), kv, context)
            y = self._ln(f"{p}.norm2", T.add(y, a))
            f = self._lin(f"{p}.ffn.fc2", T.relu(self._lin(f"{p}.ffn.fc1", y)))
            y = self._ln(f"{p}.norm3", T.add(y, f))
            self.decoder_layer_outputs.append(y)
        return y, attn

    def predict(self, q_hat: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """Heads on decoded queries: boxes (N,4 in (0,1)), semantics, match score."""
        t = T.relu(self._lin("head.box.fc0", q_hat))
        t = T.relu(self._lin("head.box.fc1", t))
        boxes = T.sigmoid(self._lin("head.box.fc2", t))
        sem = self._lin("head.sem", q_hat)
        match = T.sigmoid(self._lin("head.match", q_hat))
        return boxes, sem, match

    def class_logits(self, q_hat: Tensor) -> Tensor:
        if "class_head.weight" not in self.params:
            raise KeyError("class head not initialized; call add_class_head")
        return self._lin("class_head", q_hat)

    def project_context(self, pooled: Tensor) -> Tensor:
        """Projector MLP on pooled (B, C) contexts: FC-BN-ReLU x2 then FC."""
        if self.config.projector_identity:
            return pooled
        if pooled.data.ndim != 2:
            raise T.ShapeError(f"projector expects (B, C), got {pooled.data.shape}")
        x = self._lin("projector.fc0", pooled)
        x = T.relu(T.batch_norm_1d(x, self.params["projector.bn0.scale"],
                                   self.params["projector.bn0.shift"]))
        x = self._lin("projector.fc1", x)
        x = T.relu(T.batch_norm_1d(x, self.params["projector.bn1.scale"],
                                   self.params["projector.bn1.shift"]))
        return self._lin("projector.fc2", x)

    # -- bookkeeping ---------------------------------------------------------------------

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data for name, p in self.params.items()}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        missing = [n for n in self.params if n not in arrays]
        extra = [n for n in arrays if n not in self.params and not n.startswith("class_head")]
        if missing or extra:
            raise KeyError(f"checkpoint mismatch; missing={missing[:4]} extra={extra[:4]}")
        for name, p in self.params.items():
            src = arrays[name]
            if src.shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{src.shape} vs {p.data.shape}")
            p.data = src.astype(self.dtype, copy=True)
