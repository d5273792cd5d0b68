"""Two-view construction: base rectangle, IoU-constrained view rectangles,
photometric/geometric augmentation, proposals in the overlap, and box jitter.

A single rectangle (base, view rects, overlap) is a (4,) float64 xyxy row;
every proposal set, from `generate_proposals` to `ViewPair.proposals1`/
`proposals2`, is an (n, 4) float64 array of such rows. Settings come from
`RunConfig` or are the constants below. A view's geometry is its source rect
and whether `augment` flipped it (`ViewPair.rect1`, `flip1`), all that
`geometry.map_boxes` needs.

Images arrive as the (H, W, 3) uint8 pixels `data.load_dataset` holds.
`build_view_pair` and `resize_to_view`, the one way into finetuning and
inference, make them float32 in [0, 1] (`data.as_float_pixels`) only while
they are used; from there on every image and view is a plain float32 array.

Everything here is a pure function of (image bytes, seed, config); the full
pipeline is deterministic across runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .data import as_float_pixels
from .geometry import map_boxes, pairwise_iou, py_max, py_min, resample
from .rng import Rng

_LUMA = np.array([0.299, 0.587, 0.114], dtype=np.float32)

# fixed settings with no config key
MIN_IMAGE_SIDE = 32  # pixels, the smallest image side view construction takes
MIN_PROPOSAL_SIDE = 8.0
BASE_AREA_RANGE = (0.5, 1.0)  # of the image area, for the base rectangle
BLUR_SIGMA = (0.1, 2.0)
VIEW_RECT_TRIES = 100  # IoU-rejected draws before the full-base fallback


@dataclass
class ViewPair:
    view1: np.ndarray  # (size, size, 3) float32
    view2: np.ndarray
    proposals1: np.ndarray  # (n, 4) xyxy in view 1 pixels
    proposals2: np.ndarray  # (n, 4) xyxy in view 2 pixels
    base_rect: np.ndarray  # (4,) xyxy in image pixels
    rect1: np.ndarray
    rect2: np.ndarray
    flip1: bool  # view 1 is mirrored left to right
    flip2: bool
    padded: bool  # proposals repeated cyclically to reach n


# -- resampling helpers -------------------------------------------------------


def crop_resize(pixels: np.ndarray, rect: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinearly resample a source rectangle, an xyxy row, to (out_h, out_w)."""
    return resample(pixels, rect[None], (out_h, out_w))[0].astype(np.float32, copy=False)


def resize_to_view(pixels: np.ndarray, view_size: int) -> np.ndarray:
    """Resize an image to the square view size the model was pretrained on,
    as float32 in [0, 1] (uint8 pixels are converted, whatever their size).

    Normalized box targets are unaffected, and positional-embedding geometry
    then matches pretraining exactly.
    """
    pixels = as_float_pixels(pixels)
    H, W = pixels.shape[:2]
    if H == view_size and W == view_size:
        return pixels
    return crop_resize(pixels, np.array([0.0, 0.0, W, H]), view_size, view_size)


def gaussian_blur(pixels: np.ndarray, sigma: float) -> np.ndarray:
    radius = max(1, int(math.ceil(3.0 * sigma)))
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (xs / sigma) ** 2)
    kernel = (kernel / kernel.sum()).astype(np.float32)
    padded = np.pad(pixels, ((radius, radius), (0, 0), (0, 0)), mode="edge")
    out = np.zeros_like(pixels)
    for i, k in enumerate(kernel):
        out += k * padded[i:i + pixels.shape[0]]
    padded = np.pad(out, ((0, 0), (radius, radius), (0, 0)), mode="edge")
    out2 = np.zeros_like(pixels)
    for i, k in enumerate(kernel):
        out2 += k * padded[:, i:i + pixels.shape[1]]
    return out2


def sobel_magnitude(gray: np.ndarray) -> np.ndarray:
    """Gradient magnitude of an (H, W) luma plane (`pixels @ _LUMA`), same
    shape, with edge padding."""
    padded = np.pad(gray, 1, mode="edge")
    gx = (padded[1:-1, 2:] - padded[1:-1, :-2]) * 2 \
        + (padded[:-2, 2:] - padded[:-2, :-2]) \
        + (padded[2:, 2:] - padded[2:, :-2])
    gy = (padded[2:, 1:-1] - padded[:-2, 1:-1]) * 2 \
        + (padded[2:, :-2] - padded[:-2, :-2]) \
        + (padded[2:, 2:] - padded[:-2, 2:])
    return np.sqrt(gx * gx + gy * gy)


# -- sampling stages ----------------------------------------------------------


def sample_base_rect(width: int, height: int, rng: Rng) -> np.ndarray:
    """Random rectangle covering an area fraction drawn from BASE_AREA_RANGE."""
    if width < MIN_IMAGE_SIDE or height < MIN_IMAGE_SIDE:
        raise ValueError(f"image too small for view construction: {width}x{height}")
    area = rng.uniform(*BASE_AREA_RANGE) * width * height
    aspect_lo = max(0.75, area / (height * height))
    aspect_hi = min(4.0 / 3.0, width * width / area)
    if aspect_lo >= aspect_hi:
        aspect = min(max(1.0, area / (height * height)), width * width / area)
    else:
        aspect = rng.uniform(aspect_lo, aspect_hi)
    rw = min(float(width), math.sqrt(area * aspect))
    rh = min(float(height), area / rw)
    x1 = rng.uniform(0.0, width - rw)
    y1 = rng.uniform(0.0, height - rh)
    return np.array([x1, y1, x1 + rw, y1 + rh])


def sample_view_rects(base: np.ndarray, tau: float, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Two center-anchored rectangles inside `base` with IoU >= tau.

    Each rectangle spans from one base corner toward the opposite corner;
    its far corner sits on the base diagonal, pulled in from the full extent
    by a uniformly sampled fraction. Sampling rejects pairs below the IoU
    threshold and falls back to identical full-base rectangles after
    VIEW_RECT_TRIES.
    """
    if not (0.0 < tau <= 1.0):
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    centre = 0.5 * (base[:2] + base[2:])
    half = (base[2:] - base[:2]) / 2.0
    for _ in range(VIEW_RECT_TRIES):
        pull1 = rng.uniform(0.0, 1.0)
        pull2 = rng.uniform(0.0, 1.0)
        r1 = np.concatenate([base[:2], centre + (1.0 - pull1) * half])
        r2 = np.concatenate([centre - (1.0 - pull2) * half, base[2:]])
        if pairwise_iou(r1[None], r2[None])[0][0, 0] >= tau:
            return r1, r2
    return base, base


def augment(pixels: np.ndarray, rng: Rng, cfg: RunConfig) -> tuple[np.ndarray, bool]:
    """Flip, color jitter, grayscale and blur by the `aug.*` keys, each
    applied right after its draw: (float32 pixels, whether flipped)."""
    out = pixels
    flipped = rng.uniform() < cfg.aug_flip_p
    if flipped:
        out = out[:, ::-1, :].copy()
    if rng.uniform() < cfg.aug_color_p:
        j = cfg.aug_color_jitter
        brightness = rng.uniform(1.0 - j, 1.0 + j)
        if brightness != 1.0:
            out = np.clip(out * brightness, 0.0, 1.0)
        contrast = rng.uniform(1.0 - j, 1.0 + j)
        if contrast != 1.0:
            mean = float((out @ _LUMA).mean())
            out = np.clip((out - mean) * contrast + mean, 0.0, 1.0)
        saturation = rng.uniform(1.0 - j, 1.0 + j)
        if saturation != 1.0:
            luma = (out @ _LUMA)[:, :, None]
            out = np.clip((out - luma) * saturation + luma, 0.0, 1.0)
    if rng.uniform() < cfg.aug_grayscale_p:
        out = np.repeat((out @ _LUMA)[:, :, None], 3, axis=2)
    if rng.uniform() < cfg.aug_blur_p:
        out = np.clip(gaussian_blur(out, rng.uniform(*BLUR_SIGMA)), 0.0, 1.0)
    return out.astype(np.float32), flipped


def _holds_proposals(rect: np.ndarray) -> bool:
    """Whether both sides are at least MIN_PROPOSAL_SIDE and the area 64 px²."""
    w, h = rect[2:] - rect[:2]
    return bool(w >= MIN_PROPOSAL_SIDE and h >= MIN_PROPOSAL_SIDE and w * h >= 64.0)


def generate_proposals(pixels: np.ndarray, overlap: np.ndarray, mode: str, count: int,
                       rng: Rng) -> np.ndarray:
    """(count, 4) boxes inside the xyxy row `overlap` (image frame); objectness
    mode ranks random candidates by interior-vs-border Sobel gradient contrast."""
    if not _holds_proposals(overlap):
        w, h = overlap[2:] - overlap[:2]
        raise ValueError(f"overlap too small for proposals: {w:.1f}x{h:.1f}")
    if mode not in ("random", "objectness"):
        raise ValueError(f"unknown proposal mode: {mode!r}")
    min_side = MIN_PROPOSAL_SIDE
    ox1, oy1, ox2, oy2 = overlap
    k = count if mode == "random" else 4 * count
    u = rng.uniforms(4 * k).reshape(k, 4)  # x1, y1, w, h of each candidate
    x1 = ox1 + (ox2 - min_side - ox1) * u[:, 0]
    y1 = oy1 + (oy2 - min_side - oy1) * u[:, 1]
    x2 = x1 + (min_side + (ox2 - x1 - min_side) * u[:, 2])
    y2 = y1 + (min_side + (oy2 - y1 - min_side) * u[:, 3])
    boxes = np.stack([x1, y1, x2, y2], axis=1)
    if mode == "objectness":
        # stable, so tied scores keep draw order
        order = np.argsort(-_edge_contrast(pixels, boxes), kind="stable")
        boxes = boxes[order[:count]]
    return boxes


def _edge_contrast(pixels: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Per (x1, y1, x2, y2) row: mean Sobel magnitude over the box's central
    half minus the mean over the ring around it, on the pixels each box
    touches (0 for an empty region).

    The map covers only the top-left (h, w) corner the boxes reach. One more
    row and column go into `sobel_magnitude`, so the last kept ones read their
    true neighbours rather than the edge padding, and the prefix sums of the
    integral image are the whole image's: the scores are bit-identical. Luma
    is taken over whole rows, since the per-row gemv behind `@` rounds a row's
    last columns by the row's width.
    """
    H, W = pixels.shape[:2]
    h = min(H, math.ceil(boxes[:, 3].max()))
    w = min(W, math.ceil(boxes[:, 2].max()))
    gray = (pixels[:h + 1] @ _LUMA)[:, :w + 1]
    mag = sobel_magnitude(gray)[:h, :w].astype(np.float64)
    ii = np.zeros((h + 1, w + 1))
    ii[1:, 1:] = mag.cumsum(0).cumsum(1)

    def box_sums(x1, y1, x2, y2):
        x1 = np.clip(np.floor(x1), 0, w).astype(np.intp)
        y1 = np.clip(np.floor(y1), 0, h).astype(np.intp)
        x2 = np.clip(np.ceil(x2), 0, w).astype(np.intp)
        y2 = np.clip(np.ceil(y2), 0, h).astype(np.intp)
        inside = (x2 > x1) & (y2 > y1)
        s = ii[y2, x2] - ii[y1, x2] - ii[y2, x1] + ii[y1, x1]
        return np.where(inside, s, 0.0), np.where(inside, (x2 - x1) * (y2 - y1), 0)

    x1, y1, x2, y2 = boxes.T
    sx, sy = 0.25 * (x2 - x1), 0.25 * (y2 - y1)
    total, n_total = box_sums(x1, y1, x2, y2)
    interior, n_in = box_sums(x1 + sx, y1 + sy, x2 - sx, y2 - sy)
    ring, n_ring = total - interior, n_total - n_in
    mean_in = np.divide(interior, n_in, out=np.zeros_like(interior), where=n_in != 0)
    mean_ring = np.divide(ring, n_ring, out=np.zeros_like(ring), where=n_ring != 0)
    return mean_in - mean_ring


def _jitter_boxes(boxes: np.ndarray, amount: float, rng: Rng,
                  frame_w: float, frame_h: float) -> np.ndarray:
    """Shift each box's centre by up to `amount` of its sides and scale its
    sides by 1 ± `amount`, from one block of four draws per box; boxes stay
    inside the frame and at least 2 px wide and high."""
    lo = np.array([-amount, -amount, 1.0 - amount, 1.0 - amount])
    hi = np.array([amount, amount, 1.0 + amount, 1.0 + amount])
    draws = lo + (hi - lo) * rng.uniforms(4 * len(boxes)).reshape(-1, 4)
    side = boxes[:, 2:] - boxes[:, :2]
    centre = 0.5 * (boxes[:, :2] + boxes[:, 2:]) + draws[:, :2] * side
    half = side * draws[:, 2:] / 2
    frame = np.array([frame_w, frame_h])
    x1y1 = py_min(py_max(0.0, centre - half), frame - 2.0)
    x2y2 = py_max(py_min(frame, centre + half), x1y1 + 2.0)
    return np.concatenate([x1y1, x2y2], axis=1)


def build_view_pair(pixels: np.ndarray, cfg: RunConfig, seed: int) -> ViewPair:
    """Full two-view construction for one (H, W, 3) uint8 or float image (the
    `view.*`, `proposals.*` and `aug.*` keys), driven entirely by `seed`."""
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) pixels, got {pixels.shape}")
    pixels = as_float_pixels(pixels).astype(np.float32, copy=False)
    height, width = pixels.shape[:2]
    rng = Rng(seed)
    size = cfg.view_size
    for _ in range(20):
        base = sample_base_rect(width, height, rng)
        rect1, rect2 = sample_view_rects(base, cfg.view_tau, rng)
        overlap = np.concatenate([py_max(rect1[:2], rect2[:2]),
                                  py_min(rect1[2:], rect2[2:])])
        if _holds_proposals(overlap):
            break
    else:
        raise ValueError("could not sample view rectangles with a usable overlap")

    proposals_img = generate_proposals(pixels, overlap, cfg.proposals_mode, cfg.view_n, rng)

    view1, flip1 = augment(crop_resize(pixels, rect1, size, size), rng, cfg)
    view2, flip2 = augment(crop_resize(pixels, rect2, size, size), rng, cfg)
    p1, inside1 = map_boxes(proposals_img, rect1, flip1, size)
    p2, inside2 = map_boxes(proposals_img, rect2, flip2, size)
    kept = np.flatnonzero(inside1 & inside2)
    if not len(kept):
        raise ValueError("no proposal survived mapping into both views")
    padded = len(kept) < cfg.view_n
    rows = kept[np.arange(cfg.view_n) % len(kept)]  # survivors repeated cyclically
    p1, p2 = p1[rows], p2[rows]
    if cfg.view_jitter > 0:
        p1 = _jitter_boxes(p1, cfg.view_jitter, rng, size, size)
        p2 = _jitter_boxes(p2, cfg.view_jitter, rng, size, size)

    return ViewPair(view1=view1, view2=view2, proposals1=p1, proposals2=p2,
                    base_rect=base, rect1=rect1, rect2=rect2, flip1=flip1, flip2=flip2,
                    padded=padded)
