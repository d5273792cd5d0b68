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

Every box resample (view crops, crop-level targets, RoIAlign) goes through
one separable bilinear sampler, `bilinear_taps`: per-axis tap matrices with
half-pixel centres and a border clamp. RoIAlign applies them as two dense
matrix products; `resample`, which reads each output pixel once, applies
them per box to only the rows the taps touch, with the same bits.
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


def bilinear_taps(boxes: np.ndarray, H: int, W: int, out_hw: tuple[int, int],
                  sampling: int = 1, dtype=np.float32) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis sampling matrices Ay (n, out_h, H) and Ax (n, out_w, W) of an
    (n, 4) box set.

    Bilinear reads and bin averaging factor by axis, so box k resamples an
    (H, W) plane as Ay[k] @ F @ Ax[k].T.
    """
    x1, y1, x2, y2 = boxes.T
    return (_axis_taps(y1, y2 - y1, out_hw[0], H, sampling, dtype),
            _axis_taps(x1, x2 - x1, out_hw[1], W, sampling, dtype))


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
    - x: a tap row holds at most two adjacent nonzeros, so x is a lerp of
      whole rows, `fl(w0·x0) + fl(w1·x1)`: the plain sum the stacked
      (out_w, W) @ (W, 3) matmul makes. A tap merged by the border clamp
      (w = 0) is read once, its neighbour weighted 0.
    One GEMM per box for x, or a y GEMM cut to fewer x columns, changes bits.
    """
    H, W, C = source.shape
    out_h, out_w = out_hw
    ay, ax = bilinear_taps(boxes, H, W, out_hw)
    if out is None:
        out = np.empty((len(boxes), out_h, out_w, C), np.result_type(source, ay))
    flat = source.reshape(H, W * C)
    j0 = (ax != 0).argmax(axis=2)  # each output column's first tap
    j1 = np.minimum(j0 + 1, W - 1)
    w0 = np.take_along_axis(ax, j0[..., None], 2)
    w1 = np.where((j1 > j0)[..., None], np.take_along_axis(ax, j1[..., None], 2), 0)
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

    The forward is the dense pair Ay . F . Axᵀ (ROI_SAMPLING reads per bin,
    so up to four taps per axis), which the backward transposes. The
    two-tap lerp of `resample` does not apply, and a GEMM over a 4-tap,
    C = 64 contraction does not round like a lerp.
    """
    if features.data.ndim != 3:
        raise ValueError(f"roi_align expects (H, W, C) features, got {features.data.shape}")
    H, W, C = features.data.shape
    if H == 0 or W == 0:
        raise ValueError("roi_align: empty feature map")
    ay, ax = bilinear_taps(boxes, H, W, out_hw, ROI_SAMPLING,
                           np.result_type(features.data.dtype, np.float32))
    rows = (ay.reshape(-1, H) @ features.data.reshape(H, W * C)).reshape(
        len(boxes), out_hw[0], W, C)
    data = np.matmul(ax[:, None], rows)

    def backward(g):
        # transposed contraction, summed over boxes: sum_k Ay[k]ᵀ g[k] Ax[k]
        cols = np.matmul(ax.transpose(0, 2, 1)[:, None], g)  # (n, h_out, W, C)
        grad = ay.reshape(-1, H).T @ cols.reshape(-1, W * C)
        features.accumulate_grad(grad.reshape(H, W, C))

    return _make(data, (features,), "roi_align", backward)
