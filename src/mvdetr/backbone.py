"""Frozen, seeded convolutional feature extractor.

Three stride-2 3x3 conv layers (3 -> 16 -> 32 -> 64) with ReLU and no bias,
He-style weights drawn once from the seed, never updated. Every entry point
takes a batch and returns plain arrays (no backbone parameter ever reaches an
optimizer): image-level feature maps at stride 8 (`extract_batch`), pooled
object-level region features (RoIAlign on each map, `object_level_features`),
and pooled crop-level region features (each box resampled from its image,
then extracted, `crop_features_multi`). A single image is a batch of one.
Region boxes come as one (n_images, n, 4) float64 array: an (n, 4) box set
of (x1, y1, x2, y2) rows in view pixels per image or map, the format of
`geometry`.

`extract_batch` runs all three layers on one block of images before it moves
to the next, with a fixed input-pixel budget per block, so a block's im2col
columns and activations stay in a 2 MiB L2 cache instead of streaming the
whole batch's through L3 (the 160 crop-level targets of a default pretraining
step have 18-24 MiB of columns per layer). Each layer writes its ReLU straight
into the zero-padded input of the next, and the last into the output. Each
output pixel is one row of the im2col GEMM, built from the same operands
whatever the block, and the GEMM kernel sums a row over its 9 * Cin inputs in
an order set by the kernel, not by the number of rows; the features are
bit-identical to one GEMM over the whole batch, which `tests/test_backbone.py`
checks against an unblocked reference.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import resample, roi_align
from .rng import Rng
from .tensor import Tensor


def _conv_relu(padded: np.ndarray, weight: np.ndarray, out: np.ndarray) -> None:
    """Stride-2 3x3 convolution of a zero-padded (B, H + 2, W + 2, Cin) batch
    via im2col, its ReLU written into `out`, (B, H / 2, W / 2, Cout)."""
    B, Ho, Wo = out.shape[:3]
    sB, sH, sW, sC = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded,
        shape=(B, Ho, Wo, 3, 3, padded.shape[3]),
        strides=(sB, 2 * sH, 2 * sW, sH, sW, sC),
        writeable=False,
    )
    y = windows.reshape(B * Ho * Wo, -1) @ weight
    np.maximum(y.reshape(out.shape), 0.0, out=out)


# Input pixels one block of images may hold in `extract_batch`: 2**14 is one
# 128x128 view or four 64x64 crops, whose im2col columns and activations then
# stay inside a 2 MiB L2 cache through all three layers.
_BLOCK_PIXELS = 1 << 14

CROP_SIZE = 64  # side of the square each crop-level target is resized to
CHANNELS = (16, 32, 64)  # output channels of the three conv layers


class FrozenBackbone:
    stride = 8

    def __init__(self, seed: int):
        self.seed = seed
        self.out_channels = CHANNELS[-1]
        rng = Rng(seed)
        self.weights: list[np.ndarray] = []
        cin = 3
        for cout in CHANNELS:
            fan_in = 9 * cin
            std = math.sqrt(2.0 / fan_in)
            w = rng.normals(fan_in * cout, 0.0, std).astype(np.float32).reshape(fan_in, cout)
            self.weights.append(w)
            cin = cout

    # -- feature extraction -----------------------------------------------------

    def extract_batch(self, batch: np.ndarray) -> np.ndarray:
        """(B, H, W, 3) float32 -> (B, H/8, W/8, C) float32, H and W % 8 == 0."""
        if batch.shape[1] % 8 or batch.shape[2] % 8:
            raise ValueError(f"input dims {batch.shape[1]}x{batch.shape[2]} not "
                             "divisible by 8; resize the image first")
        n, h, w = batch.shape[:3]
        out = np.empty((n, h // 8, w // 8, self.out_channels), dtype=np.float32)
        step = max(1, _BLOCK_PIXELS // max(1, h * w))
        for lo in range(0, n, step):
            block = batch[lo:lo + step]
            x = np.zeros((len(block), h + 2, w + 2, 3), dtype=np.float32)
            x[:, 1:-1, 1:-1] = block
            for weight in self.weights[:-1]:
                # the ReLU lands inside the next layer's zero border: an
                # (H + 2)-row input gives H / 2 + 2 rows
                y = np.zeros((len(block), x.shape[1] // 2 + 1, x.shape[2] // 2 + 1,
                              weight.shape[1]), dtype=np.float32)
                _conv_relu(x, weight, y[:, 1:-1, 1:-1])
                x = y
            _conv_relu(x, self.weights[-1], out[lo:lo + step])
        return out

    def object_level_features(self, maps: np.ndarray, boxes: np.ndarray) -> np.ndarray:
        """RoIAlign each (H1, W1, C) map of `maps` on its own row of the
        (n_maps, n, 4) box array (in view pixels), then take the spatial
        mean: (n_maps, n, C), rows in map order."""
        fboxes = boxes / self.stride
        out = np.empty((len(maps), fboxes.shape[1], maps.shape[-1]), dtype=maps.dtype)
        for i, rows in enumerate(fboxes):
            out[i] = roi_align(Tensor(maps[i]), rows, (4, 4)).data.mean(axis=(1, 2))
        return out

    def crop_features_multi(self, images: np.ndarray, boxes: np.ndarray) -> np.ndarray:
        """Crop-level region features: each box of the (n_images, n, 4) array
        resampled from its image of the (n_images, H, W, 3) array to
        CROP_SIZE, extracted and spatially pooled: (n_images * n, C), rows in
        image order. All crops share one buffer and one `extract_batch` call.
        A box needs x2 > x1 and y2 > y1; any positive extent resamples."""
        size, n = CROP_SIZE, boxes.shape[1]
        bad = ~((boxes[..., 2] > boxes[..., 0]) & (boxes[..., 3] > boxes[..., 1]))
        if bad.any():
            raise ValueError(f"degenerate crop box {boxes[bad][0].tolist()}")
        crops = np.empty((len(boxes) * n, size, size, 3), dtype=np.float32)
        for i, rows in enumerate(boxes):
            resample(images[i], rows, (size, size), out=crops[i * n:(i + 1) * n])
        return self.extract_batch(crops).mean(axis=(1, 2))
