"""DETR-style encoder/decoder with two-view conditioned cross-attention.

Every forward entry point takes a batch: `mha` (B, N, C) inputs, `encode`
(B, H, W, C) feature maps, and `decode` a (B, L, C) context with (B, N, Cb)
region features. A single image is a batch of one.

The decoder's cross-attention accepts optional region features from the
other view: they are projected and added to the learnable object queries, so
the query positional term becomes (queries + projected regions). With no
region features the path is exactly the plain DETR decoder - pretrained
weights drop into finetuning unchanged.

Parameters live in an insertion-ordered dict with stable dotted names
(e.g. decoder.layer0.cross.f_q.weight); checkpoints rely on those names.

The model keeps no forward state: everything a forward pass makes goes back
to its caller, so a training step's tape dies with the step. Attention
weights a layer does not return are dropped as soon as `mha` returns.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .config import RunConfig
from .rng import Rng
from .tensor import Tensor

SINE_TEMPERATURE = 10000.0  # wavelength base of the positional embedding


def sine_positional_embedding(h: int, w: int, dim: int,
                              dtype=np.float32) -> np.ndarray:
    """Fixed 2d sine/cosine map, (h*w, dim); dim/2 channels per axis."""
    half = dim // 2
    ys = (np.arange(h, dtype=np.float64) + 1.0) / h * (2 * math.pi)
    xs = (np.arange(w, dtype=np.float64) + 1.0) / w * (2 * math.pi)
    freq = SINE_TEMPERATURE ** (2.0 * (np.arange(half) // 2) / half)

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

    def __init__(self, cfg: RunConfig, in_channels: int, seed: int, dtype=np.float32):
        """Reads the `model.*` sizes and `view.n` (one object query per
        region) from cfg; in_channels is the backbone's feature width, which
        the semantic head also predicts."""
        self.cfg = cfg
        self.dtype = dtype
        self.params: dict[str, Tensor] = {}
        self._rng = Rng(seed)
        self._pos_cache: dict[tuple[int, int], np.ndarray] = {}
        c, ffn = cfg.model_d_model, cfg.model_ffn_dim

        self._linear("input_proj", in_channels, c)
        for i in range(cfg.model_enc_layers):
            p = f"encoder.layer{i}"
            self._attention(f"{p}.self", c)
            self._norm(f"{p}.norm1", c)
            self._linear(f"{p}.ffn.fc1", c, ffn)
            self._linear(f"{p}.ffn.fc2", ffn, c)
            self._norm(f"{p}.norm2", c)
        for i in range(cfg.model_dec_layers):
            p = f"decoder.layer{i}"
            self._attention(f"{p}.self", c)
            self._norm(f"{p}.norm1", c)
            self._attention(f"{p}.cross", c)
            self._norm(f"{p}.norm2", c)
            self._linear(f"{p}.ffn.fc1", c, ffn)
            self._linear(f"{p}.ffn.fc2", ffn, c)
            self._norm(f"{p}.norm3", c)
        self._param("query_embed.weight", (cfg.view_n, c), scale=1.0)
        # bias-free so zero region features reduce exactly to the plain path
        self._param("z_proj.weight", (in_channels, c), scale=1.0 / math.sqrt(in_channels))
        self._linear("head.box.fc0", c, c)
        self._linear("head.box.fc1", c, c)
        self._linear("head.box.fc2", c, 4)
        self._linear("head.sem", c, in_channels)
        self._linear("head.match", c, 1)
        self._linear("projector.fc0", c, c)
        self._norm("projector.bn0", c)
        self._linear("projector.fc1", c, c)
        self._norm("projector.bn1", c)
        self._linear("projector.fc2", c, c)

    # -- parameter helpers ------------------------------------------------------

    def _param(self, name: str, shape: tuple[int, ...], scale: float) -> None:
        n = int(np.prod(shape))
        data = self._rng.normals(n, 0.0, scale).astype(self.dtype).reshape(shape)
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
        self._rng = Rng(seed)  # nothing draws from the init stream after __init__
        self._linear("class_head", self.cfg.model_d_model, n_classes + 1)

    def _lin(self, name: str, x: Tensor) -> Tensor:
        return T.affine(x, self.params[f"{name}.weight"], self.params[f"{name}.bias"])

    def _ln(self, name: str, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.params[f"{name}.scale"], self.params[f"{name}.shift"])

    # -- attention ----------------------------------------------------------------

    def _attention(self, name: str, c: int) -> None:
        for part in ("f_q", "f_k", "f_v", "out"):
            self._linear(f"{name}.{part}", c, c)

    def mha(self, prefix: str, q_in: Tensor, k_in: Tensor, v_in: Tensor
            ) -> tuple[Tensor, Tensor | None]:
        """Multi-head attention of (B, Nq, C) queries over (B, L, C) keys/values.

        Returns (output (B, Nq, C), attention weights (B, heads, Nq, L)). The
        weights are read-only and carry no gradient. They are None when the
        batch spans more than one of `tensor.attention`'s 1 MiB blocks, as a
        default encoder layer on more than one image does; a batch of one
        always gets them. The backward never reads them: it keeps q, k, v and
        the softmax row max and sum, and rebuilds the probabilities.
        """
        mixed, attn = T.attention(self._lin(f"{prefix}.f_q", q_in),
                                  self._lin(f"{prefix}.f_k", k_in),
                                  self._lin(f"{prefix}.f_v", v_in), self.cfg.model_heads)
        return self._lin(f"{prefix}.out", mixed), None if attn is None else Tensor(attn)

    # -- positional embedding --------------------------------------------------------

    def positional(self, h: int, w: int) -> np.ndarray:
        key = (h, w)
        if key not in self._pos_cache:
            self._pos_cache[key] = sine_positional_embedding(
                h, w, self.cfg.model_d_model, dtype=self.dtype)
        return self._pos_cache[key]

    # -- forward paths -----------------------------------------------------------------

    def encode(self, h: Tensor) -> tuple[Tensor, tuple[int, int]]:
        """(B, H1, W1, Cb) backbone features to (B, H1*W1, C) context plus (H1, W1)."""
        if h.data.ndim != 4:
            raise T.ShapeError(f"encode expects (B, H, W, C) features, got {h.data.shape}")
        b, hh, ww, cb = h.data.shape
        pos = Tensor(self.positional(hh, ww))  # (L, C): broadcasts over the batch dim
        x = self._lin("input_proj", T.reshape(h, (b, hh * ww, cb)))
        for i in range(self.cfg.model_enc_layers):
            p = f"encoder.layer{i}"
            xq = T.add(x, pos)
            a = self.mha(f"{p}.self", xq, xq, x)[0]
            x = self._ln(f"{p}.norm1", T.add(x, a))
            f = self._lin(f"{p}.ffn.fc2", T.relu(self._lin(f"{p}.ffn.fc1", x)))
            x = self._ln(f"{p}.norm2", T.add(x, f))
        return x, (hh, ww)

    def decode(self, context: Tensor, hw: tuple[int, int], z: Tensor | None = None,
               layers: list[Tensor] | None = None) -> tuple[Tensor, Tensor | None]:
        """Query decoding against (B, L, C) view context.

        z, when given, holds the other view's pooled region features, (B, N,
        Cb) with one row per query; they are projected and added to the
        object queries. Returns (decoded queries (B, N, C), final layer
        cross-attention weights (B, heads, N, L)). The weights are None when
        the batch spans more than one attention block (see `mha`): at L = 256
        and the default N and heads, more than 25 items. The tape keeps no
        attention weights for the backward either way. `layers`, when given,
        gets every decoder layer's (B, N, C) output appended, the last one
        being the decoded queries.
        """
        n_q = self.cfg.view_n
        phi_q = self.params["query_embed.weight"]
        if z is not None:
            if z.data.ndim != 3 or z.data.shape[1] != n_q:
                raise T.ShapeError(f"region features must be (B, {n_q}, C), one row "
                                   f"per query, got {z.data.shape}")
            qpos = T.add(T.affine(z, self.params["z_proj.weight"]), phi_q)
        else:
            qpos = phi_q
        kv = T.add(context, Tensor(self.positional(*hw)))
        y = Tensor(np.zeros((context.data.shape[0], n_q, self.cfg.model_d_model),
                            dtype=context.data.dtype))
        attn = None
        for i in range(self.cfg.model_dec_layers):
            p = f"decoder.layer{i}"
            yq = T.add(y, qpos)
            a = self.mha(f"{p}.self", yq, yq, y)[0]
            y = self._ln(f"{p}.norm1", T.add(y, a))
            a, attn = self.mha(f"{p}.cross", T.add(y, qpos), kv, context)
            y = self._ln(f"{p}.norm2", T.add(y, a))
            f = self._lin(f"{p}.ffn.fc2", T.relu(self._lin(f"{p}.ffn.fc1", y)))
            y = self._ln(f"{p}.norm3", T.add(y, f))
            if layers is not None:
                layers.append(y)
        return y, attn

    def predict(self, q_hat: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """Heads on (B, N, C) decoded queries: boxes (B, N, 4) in (0, 1),
        semantics, match score."""
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

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Parameter values from checkpoint arrays. A missing entry, one not
        of its parameter's shape or not finite, or an entry the model does
        not have (a class head aside) raises ValueError led by the entry's
        name, changing nothing."""
        for name, p in self.params.items():
            if name not in arrays:
                raise ValueError(f"{name} is missing")
            if arrays[name].shape != p.data.shape:
                raise ValueError(f"{name} has shape {arrays[name].shape}, expected "
                                 f"{p.data.shape}")
            if not np.isfinite(arrays[name]).all():
                raise ValueError(f"{name} holds a non-finite value")
        extra = [n for n in arrays if n not in self.params and not n.startswith("class_head")]
        if extra:
            raise ValueError(f"{extra[0]} is not a model parameter")
        for name, p in self.params.items():
            p.data = arrays[name].astype(self.dtype, copy=True)
