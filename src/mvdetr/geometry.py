"""Box algebra, overlap metrics, frame transforms, resampling and RoIAlign.

Boxes are half-open intervals in continuous pixel coordinates. Pixel-frame
boxes use corner (xyxy) form; model-side boxes use center-size (cxcywh) form
normalized to [0, 1] relative to their view. Division guards use 1e-9 and
degenerate boxes report IoU 0 instead of NaN.

Every box resample (view crops, crop-level targets, RoIAlign) goes through
one separable bilinear sampler: per-axis tap matrices with half-pixel
centres and a border clamp, applied as two matrix products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, _make

_EPS = 1e-9


@dataclass(frozen=True)
class BoxXYXY:
    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x1, self.y1, self.x2, self.y2)):
            raise ValueError(f"non-finite box {self}")
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ValueError(f"box corners out of order: {self}")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2))

    def intersection(self, other: "BoxXYXY") -> "BoxXYXY | None":
        x1, y1 = max(self.x1, other.x1), max(self.y1, other.y1)
        x2, y2 = min(self.x2, other.x2), min(self.y2, other.y2)
        if x2 <= x1 or y2 <= y1:
            return None
        return BoxXYXY(x1, y1, x2, y2)


@dataclass(frozen=True)
class BoxCxCyWH:
    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"non-positive size: {self}")


def box_iou(a: BoxXYXY, b: BoxXYXY) -> float:
    ix = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
    iy = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
    inter = ix * iy
    union = a.area + b.area - inter
    if union <= _EPS:
        return 0.0
    return inter / union


def pairwise_iou(a_xyxy: np.ndarray, b_xyxy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """IoU and union of every pair, (m, 4) x (n, 4) -> two (m, n) arrays.

    The arithmetic of `box_iou`, so each entry equals `box_iou(a_i, b_j)` bit
    for bit.
    """
    area_a = (a_xyxy[:, 2] - a_xyxy[:, 0]) * (a_xyxy[:, 3] - a_xyxy[:, 1])
    area_b = (b_xyxy[:, 2] - b_xyxy[:, 0]) * (b_xyxy[:, 3] - b_xyxy[:, 1])
    lt = np.maximum(a_xyxy[:, None, :2], b_xyxy[None, :, :2])
    rb = np.minimum(a_xyxy[:, None, 2:], b_xyxy[None, :, 2:])
    wh = np.clip(rb - lt, 0, None)
    inter = wh[..., 0] * wh[..., 1]
    union = area_a[:, None] + area_b[None, :] - inter
    iou = np.where(union > _EPS, inter / np.maximum(union, _EPS), 0.0)
    return iou, union


def to_cxcywh(box: BoxXYXY, frame_w: float, frame_h: float) -> BoxCxCyWH:
    """Pixel corners to normalized center-size."""
    if frame_w <= 0 or frame_h <= 0:
        raise ValueError(f"frame dims must be positive, got {frame_w}x{frame_h}")
    cx, cy = box.center()
    return BoxCxCyWH(cx / frame_w, cy / frame_h, box.width / frame_w, box.height / frame_h)


@dataclass(frozen=True)
class FrameTransform:
    """Affine crop/scale (plus optional horizontal flip) between two frames.

    Points map as x' = sx * (x - dx), then x' -> dst_w - x' when flipped;
    y' = sy * (y - dy). Frame dims are carried so flips and clamping are
    well defined in both directions.
    """

    dx: float
    dy: float
    sx: float
    sy: float
    flip: bool
    src_w: float
    src_h: float
    dst_w: float
    dst_h: float

    def apply_point(self, x: float, y: float) -> tuple[float, float]:
        xo = self.sx * (x - self.dx)
        yo = self.sy * (y - self.dy)
        if self.flip:
            xo = self.dst_w - xo
        return xo, yo

    def with_flip(self) -> "FrameTransform":
        return FrameTransform(self.dx, self.dy, self.sx, self.sy, not self.flip,
                              self.src_w, self.src_h, self.dst_w, self.dst_h)

    def inverse(self) -> "FrameTransform":
        sx2, sy2 = 1.0 / self.sx, 1.0 / self.sy
        if self.flip:
            # derived so that apply(inverse) == identity with the same op order
            dx2 = self.sx * (self.dx - self.src_w) + self.dst_w
        else:
            dx2 = -self.dx * self.sx
        dy2 = -self.dy * self.sy
        return FrameTransform(dx2, dy2, sx2, sy2, self.flip,
                              self.dst_w, self.dst_h, self.src_w, self.src_h)


def map_box(box: BoxXYXY, t: FrameTransform) -> BoxXYXY:
    """Express a box in the transform's target frame, clamped to its bounds.

    Raises ValueError when the mapped box has no intersection with the target
    frame (the caller drops such proposals).
    """
    xa, ya = t.apply_point(box.x1, box.y1)
    xb, yb = t.apply_point(box.x2, box.y2)
    x1, x2 = (xa, xb) if xa <= xb else (xb, xa)  # flip swaps corners
    y1, y2 = (ya, yb) if ya <= yb else (yb, ya)
    cx1, cy1 = max(0.0, x1), max(0.0, y1)
    cx2, cy2 = min(t.dst_w, x2), min(t.dst_h, y2)
    if cx2 <= cx1 or cy2 <= cy1:
        raise ValueError(f"box {box} maps outside the {t.dst_w}x{t.dst_h} frame")
    return BoxXYXY(cx1, cy1, cx2, cy2)


def _axis_taps(lo: np.ndarray, extent: np.ndarray, n_out: int, size: int,
               sampling: int, dtype) -> np.ndarray:
    """Bilinear taps along one axis, (n, n_out, size).

    Row o of box k averages `sampling` reads at interior points of bin o of
    [lo[k], lo[k] + extent[k]), half-pixel aligned and clamped to the border.
    """
    n = len(lo)
    frac = (np.arange(sampling) + 0.5) / sampling
    steps = (np.arange(n_out)[:, None] + frac[None, :]).reshape(-1)
    g = np.clip(lo[:, None] + steps[None, :] * (extent / n_out)[:, None] - 0.5,
                0.0, size - 1.0)
    i0 = np.floor(g).astype(np.int64)
    i1 = np.minimum(i0 + 1, size - 1)
    w = g - i0
    taps = np.zeros((n, n_out * sampling, size), dtype=dtype)
    box, row = np.ogrid[:n, :n_out * sampling]
    taps[box, row, i0] = 1.0 - w
    taps[box, row, i1] += w  # i1 == i0 at the far border
    if sampling > 1:
        taps = taps.reshape(n, n_out, sampling, size).mean(axis=2, dtype=dtype)
    return taps


def bilinear_taps(boxes: list[BoxXYXY], H: int, W: int, out_hw: tuple[int, int],
                  sampling: int = 1, dtype=np.float32) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis sampling matrices Ay (n, out_h, H) and Ax (n, out_w, W).

    Bilinear reads and bin averaging factor by axis, so box k resamples an
    (H, W) plane as Ay[k] @ F @ Ax[k].T.
    """
    corners = np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes],
                       dtype=np.float64).reshape(-1, 4)
    x1, y1, x2, y2 = corners.T
    return (_axis_taps(y1, y2 - y1, out_hw[0], H, sampling, dtype),
            _axis_taps(x1, x2 - x1, out_hw[1], W, sampling, dtype))


def resample(source: np.ndarray, ay: np.ndarray, ax: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """(H, W, C) source -> (n, out_h, out_w, C): Ay . F . Axᵀ per box.

    `out`, if given, receives the result (a slice of a larger batch, say).
    """
    H, W, C = source.shape
    n, out_h = ay.shape[:2]
    rows = (ay.reshape(n * out_h, H) @ source.reshape(H, W * C)).reshape(n, out_h, W, C)
    return np.matmul(ax[:, None], rows, out=out)


def roi_align(features: Tensor, boxes: list[BoxXYXY], out_hw: tuple[int, int],
              sampling: int = 2) -> Tensor:
    """Pool box regions of an (H, W, C) feature map to (n, h_out, w_out, C).

    Boxes are in feature-frame coordinates; regions outside the map clamp to
    the border. Differentiable w.r.t. the feature map.
    """
    if features.data.ndim != 3:
        raise ValueError(f"roi_align expects (H, W, C) features, got {features.data.shape}")
    H, W, C = features.data.shape
    if H == 0 or W == 0:
        raise ValueError("roi_align: empty feature map")
    ay, ax = bilinear_taps(boxes, H, W, out_hw, sampling,
                           np.result_type(features.data.dtype, np.float32))
    data = resample(features.data, ay, ax)

    def backward(g):
        # transposed contraction, summed over boxes: sum_k Ay[k]ᵀ g[k] Ax[k]
        cols = np.matmul(ax.transpose(0, 2, 1)[:, None], g)  # (n, h_out, W, C)
        grad = ay.reshape(-1, H).T @ cols.reshape(-1, W * C)
        features.accumulate_grad(grad.reshape(H, W, C))

    return _make(data, (features,), "roi_align", backward)
