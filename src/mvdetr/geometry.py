"""Box algebra, overlap metrics, box mapping into views, resampling and RoIAlign.

Boxes are half-open intervals in continuous pixel coordinates, in one
format: a box set (ground truth and detections, proposals, crop and RoIAlign
boxes) is an (n, 4) float64 array of (x1, y1, x2, y2) rows, which
`pairwise_iou`, `map_boxes`, `bilinear_taps` and `roi_align` take whole; a
single rectangle (a view rect, an overlap, a scene object) is one (4,) row.
Model-side boxes use center-size (cxcywh) rows normalized to [0, 1] relative
to their view; `boxes_to_targets` and `cxcywh_to_xyxy_array` convert between
the two.
Division guards use 1e-9 and degenerate boxes report IoU 0 instead of NaN.

Every box resample (view crops, crop-level targets, RoIAlign) reads through
one separable bilinear rule, `_axis_reads`: one read per output row and
axis, half-pixel centred and clamped to the border; `bilinear_taps` holds
the reads as per-axis tap matrices. `resample` applies Ay per box to only
the rows it touches and x as a two-tap lerp, with the bits of the dense
product. RoIAlign averages each bin's rows of the taps of a grid
ROI_SAMPLING times finer and applies them as two dense matrix products.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _make

_EPS = 1e-9
ROI_SAMPLING = 2  # bilinear reads per output bin and axis in `roi_align`


def pairwise_iou(a_xyxy: np.ndarray, b_xyxy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """IoU and union of every pair, (m, 4) x (n, 4) -> two (m, n) arrays;
    a pair whose union is at most 1e-9 has IoU 0."""
    area_a = (a_xyxy[:, 2] - a_xyxy[:, 0]) * (a_xyxy[:, 3] - a_xyxy[:, 1])
    area_b = (b_xyxy[:, 2] - b_xyxy[:, 0]) * (b_xyxy[:, 3] - b_xyxy[:, 1])
    lt = np.maximum(a_xyxy[:, None, :2], b_xyxy[None, :, :2])
    rb = np.minimum(a_xyxy[:, None, 2:], b_xyxy[None, :, 2:])
    wh = np.clip(rb - lt, 0, None)
    inter = wh[..., 0] * wh[..., 1]
    union = area_a[:, None] + area_b[None, :] - inter
    iou = np.where(union > _EPS, inter / np.maximum(union, _EPS), 0.0)
    return iou, union


def cxcywh_to_xyxy_array(boxes: np.ndarray) -> np.ndarray:
    """(..., 4) center-size rows as (..., 4) xyxy rows, in the same frame."""
    center, extent = boxes[..., :2], boxes[..., 2:]
    return np.concatenate([center - extent / 2, center + extent / 2], axis=-1)


def boxes_to_targets(boxes: np.ndarray, frame_w: float, frame_h: float) -> np.ndarray:
    """(m, 4) xyxy pixel boxes as an (m, 4) float32 array of normalized
    cxcywh rows."""
    if frame_w <= 0 or frame_h <= 0:
        raise ValueError(f"frame dims must be positive, got {frame_w}x{frame_h}")
    lo, hi = boxes[:, :2], boxes[:, 2:]
    empty = (hi <= lo).any(axis=1)
    if empty.any():
        raise ValueError(f"box with non-positive size: {boxes[empty][0].tolist()}")
    frame = np.array([frame_w, frame_h])
    return np.concatenate([0.5 * (lo + hi) / frame, (hi - lo) / frame],
                          axis=1).astype(np.float32)


# Python's min(a, b) and max(a, b), elementwise: a unless b is below (above)
# it, so a tie such as 0.0 against -0.0 keeps a, where np.minimum may not
def py_min(a, b) -> np.ndarray:
    return np.where(b < a, b, a)


def py_max(a, b) -> np.ndarray:
    return np.where(b > a, b, a)


def map_boxes(boxes: np.ndarray, rect: np.ndarray, flip: bool,
              size: int) -> tuple[np.ndarray, np.ndarray]:
    """Express an (n, 4) box set in the `size`-square view cropped from the
    xyxy row `rect` (x' = size / width * (x - x1), mirrored as size - x' if
    `flip`), clamped to the view: (mapped, inside), where inside[k] is False
    for a box with no intersection with the view (the caller drops those rows)."""
    scale = size / (rect[2:] - rect[:2])
    pts = scale * (boxes.reshape(-1, 2, 2) - rect[:2])
    if flip:  # mirrors x, so the corners swap
        pts[..., 0] = size - pts[..., 0]
    a, b = pts[:, 0], pts[:, 1]  # (n, 2) each: the (x, y) of either corner
    lo = py_max(0.0, py_min(a, b))
    hi = py_min(np.array([size, size]), py_max(a, b))
    return np.concatenate([lo, hi], axis=1), (hi > lo).all(axis=1)


def _axis_reads(lo: np.ndarray, extent: np.ndarray, n_out: int,
                size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one bilinear read of each output row along one axis, (1 - w)·F[i0]
    + w·F[i1] at the centre of row o of [lo[k], lo[k] + extent[k]), half-pixel
    aligned and clamped to the border (i1 == i0, w == 0 there): (i0, i1, w),
    each (n, n_out)."""
    g = np.clip(lo[:, None] + (np.arange(n_out) + 0.5) * (extent / n_out)[:, None] - 0.5,
                0.0, size - 1.0)
    i0 = np.floor(g).astype(np.int64)
    return i0, np.minimum(i0 + 1, size - 1), g - i0


def _axis_taps(lo: np.ndarray, extent: np.ndarray, n_out: int, size: int,
               dtype) -> np.ndarray:
    """The reads of `_axis_reads` as a dense (n, n_out, size) tap matrix."""
    i0, i1, w = _axis_reads(lo, extent, n_out, size)
    taps = np.zeros(i0.shape + (size,), dtype=dtype)
    box, row = np.ogrid[:len(lo), :n_out]
    taps[box, row, i0] = 1.0 - w
    taps[box, row, i1] += w  # i1 == i0 at the far border, where w == 0
    return taps


def bilinear_taps(boxes: np.ndarray, H: int, W: int, out_hw: tuple[int, int],
                  dtype=np.float32) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis tap matrices Ay (n, out_h, H) and Ax (n, out_w, W) of an
    (n, 4) box set, one bilinear read per output row.

    Bilinear reads factor by axis, so box k resamples an (H, W) plane as
    Ay[k] @ F @ Ax[k].T.
    """
    x1, y1, x2, y2 = boxes.T
    return (_axis_taps(y1, y2 - y1, out_hw[0], H, dtype),
            _axis_taps(x1, x2 - x1, out_hw[1], W, dtype))


def resample(source: np.ndarray, boxes: np.ndarray, out_hw: tuple[int, int],
             out: np.ndarray | None = None) -> np.ndarray:
    """(H, W, C) source -> (n, out_h, out_w, C): the bilinear_taps resample
    Ay . F . Axᵀ of each row of an (n, 4) box set, one read per output pixel.

    `out`, if given, receives the result (a slice of a larger batch, say).

    The result has the bits of the dense Ay[k] @ F @ Ax[k].T (one 2-D matmul
    for y, then a stacked matmul for x; `tests/helpers.dense_resample` keeps
    it as the oracle), for about 60% of its time:
    - y: one GEMM per box over only the source rows its Ay taps touch, laid
      out x-major, (W·C, rows) @ (rows, out_h). The zero taps it skips only
      add exact zeros to BLAS's FMA chain along K, so the sums are unchanged.
    - x: each output column is one read (i0, i1, w) of `_axis_reads`, a lerp
      of whole rows `fl(w0·x0) + fl(w1·x1)` with the float32 weights of a
      dense Ax row (w1 = 0 where the border clamp merges the taps): the plain
      sum the stacked (out_w, W) @ (W, 3) matmul makes.
    One GEMM per box for x, or a y GEMM cut to fewer x columns, changes bits.
    """
    H, W, C = source.shape
    out_h, out_w = out_hw
    x1, y1, x2, y2 = boxes.T
    ay = _axis_taps(y1, y2 - y1, out_h, H, np.float32)
    if out is None:
        out = np.empty((len(boxes), out_h, out_w, C), np.result_type(source, ay))
    flat = source.reshape(H, W * C)
    j0, j1, w = _axis_reads(x1, x2 - x1, out_w, W)
    w0 = (1.0 - w).astype(np.float32)[..., None]
    w1 = np.where(j1 > j0, w, 0.0).astype(np.float32)[..., None]
    touched = ay.any(axis=1)
    for k, rows in enumerate(touched):
        y0, y1 = rows.argmax(), H - rows[::-1].argmax()
        cols = (flat[y0:y1].T @ ay[k, :, y0:y1].T).reshape(W, C * out_h)
        a = cols[j0[k]] * w0[k]
        a += cols[j1[k]] * w1[k]
        out[k] = a.reshape(out_w, C, out_h).transpose(2, 0, 1)
    return out


def roi_align(features: Tensor, boxes: np.ndarray, out_hw: tuple[int, int]) -> Tensor:
    """Pool the regions of an (n, 4) box set on an (H, W, C) feature map to
    (n, h_out, w_out, C).

    Boxes are in feature-frame coordinates; regions outside the map clamp to
    the border. Differentiable w.r.t. the feature map.

    Each bin averages ROI_SAMPLING reads per axis: the `bilinear_taps` of a
    grid ROI_SAMPLING times finer, each bin's rows averaged (its reads are
    the sampled o + (i + 0.5) / ROI_SAMPLING scaled by a power of two, so
    exact). The forward is the dense pair Ay . F . Axᵀ, which the backward
    transposes; a GEMM over up to four taps per axis and C = 64 does not
    round like `resample`'s two-tap lerp.
    """
    if features.data.ndim != 3:
        raise ValueError(f"roi_align expects (H, W, C) features, got {features.data.shape}")
    H, W, C = features.data.shape
    if H == 0 or W == 0:
        raise ValueError("roi_align: empty feature map")
    n, (h_out, w_out), s = len(boxes), out_hw, ROI_SAMPLING
    dtype = np.result_type(features.data.dtype, np.float32)
    fine_y, fine_x = bilinear_taps(boxes, H, W, (s * h_out, s * w_out), dtype)
    ay = fine_y.reshape(n, h_out, s, H).mean(axis=2, dtype=dtype)
    ax = fine_x.reshape(n, w_out, s, W).mean(axis=2, dtype=dtype)
    rows = (ay.reshape(-1, H) @ features.data.reshape(H, W * C)).reshape(n, h_out, W, C)
    data = np.matmul(ax[:, None], rows)

    def backward(g):
        # transposed contraction, summed over boxes: sum_k Ay[k]ᵀ g[k] Ax[k]
        cols = np.matmul(ax.transpose(0, 2, 1)[:, None], g)  # (n, h_out, W, C)
        grad = ay.reshape(-1, H).T @ cols.reshape(-1, W * C)
        features.accumulate_grad(grad.reshape(H, W, C))

    return _make(data, (features,), "roi_align", backward)
