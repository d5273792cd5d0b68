"""Two-view construction: base rectangle, IoU-constrained view rectangles,
photometric/geometric augmentation, proposals in the overlap, and box jitter.

Everything here is a pure function of (image bytes, seed, config); the full
pipeline is deterministic across runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import BoxXYXY, FrameTransform, bilinear_taps, box_iou, map_box, resample
from .rng import Rng

_LUMA = np.array([0.299, 0.587, 0.114], dtype=np.float32)


@dataclass
class Image:
    """RGB float32 buffer in [0, 1], shape (height, width, 3)."""

    pixels: np.ndarray

    def __post_init__(self):
        if self.pixels.ndim != 3 or self.pixels.shape[2] != 3:
            raise ValueError(f"expected (H, W, 3) pixels, got {self.pixels.shape}")
        if self.pixels.dtype != np.float32:
            self.pixels = self.pixels.astype(np.float32)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass
class AugmentConfig:
    flip_p: float = 0.5
    color_p: float = 0.8
    color_jitter: float = 0.4
    grayscale_p: float = 0.2
    blur_p: float = 0.5
    blur_sigma: tuple[float, float] = (0.1, 2.0)

    @staticmethod
    def disabled() -> "AugmentConfig":
        return AugmentConfig(flip_p=0.0, color_p=0.0, grayscale_p=0.0, blur_p=0.0)


@dataclass
class AugmentRecord:
    flipped: bool = False
    brightness: float = 1.0
    contrast: float = 1.0
    saturation: float = 1.0
    grayscale: bool = False
    blur_sigma: float = 0.0


@dataclass
class ViewConfig:
    tau: float = 0.5
    n_proposals: int = 10
    view_size: int = 128
    jitter: float = 0.1
    proposal_mode: str = "objectness"
    min_proposal_side: float = 8.0
    base_area_range: tuple[float, float] = (0.5, 1.0)
    augment: AugmentConfig = field(default_factory=AugmentConfig)


@dataclass
class ViewPair:
    view1: Image
    view2: Image
    t1: FrameTransform
    t2: FrameTransform
    proposals1: list[BoxXYXY]
    proposals2: list[BoxXYXY]
    seed: int
    base_rect: BoxXYXY
    rect1: BoxXYXY
    rect2: BoxXYXY
    record1: AugmentRecord
    record2: AugmentRecord
    padded: bool = False  # proposals repeated cyclically to reach n


# -- resampling helpers -------------------------------------------------------


def crop_resize(pixels: np.ndarray, rect: BoxXYXY, out_h: int, out_w: int) -> np.ndarray:
    """Bilinearly resample a continuous source rectangle to (out_h, out_w)."""
    ay, ax = bilinear_taps([rect], pixels.shape[0], pixels.shape[1], (out_h, out_w))
    return resample(pixels, ay, ax)[0].astype(np.float32, copy=False)


def resize_to_view(pixels: np.ndarray, view_size: int) -> np.ndarray:
    """Resize an image to the square view size the model was pretrained on.

    Normalized box targets are unaffected, and positional-embedding geometry
    then matches pretraining exactly.
    """
    H, W = pixels.shape[:2]
    if H == view_size and W == view_size:
        return pixels
    return crop_resize(pixels, BoxXYXY(0, 0, W, H), view_size, view_size)


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


def sobel_magnitude(pixels: np.ndarray) -> np.ndarray:
    """Gradient magnitude of the luma channel, same spatial shape."""
    gray = pixels @ _LUMA
    padded = np.pad(gray, 1, mode="edge")
    gx = (padded[1:-1, 2:] - padded[1:-1, :-2]) * 2 \
        + (padded[:-2, 2:] - padded[:-2, :-2]) \
        + (padded[2:, 2:] - padded[2:, :-2])
    gy = (padded[2:, 1:-1] - padded[:-2, 1:-1]) * 2 \
        + (padded[2:, :-2] - padded[:-2, :-2]) \
        + (padded[2:, 2:] - padded[:-2, 2:])
    return np.sqrt(gx * gx + gy * gy)


# -- sampling stages ----------------------------------------------------------


def sample_base_rect(width: int, height: int, rng: Rng,
                     area_range: tuple[float, float] = (0.5, 1.0)) -> BoxXYXY:
    """Random rectangle covering an area fraction drawn from area_range."""
    if width < 32 or height < 32:
        raise ValueError(f"image too small for view construction: {width}x{height}")
    lo, hi = area_range
    ratio = lo if hi <= lo else rng.uniform(lo, hi)
    if ratio >= 1.0:
        return BoxXYXY(0.0, 0.0, float(width), float(height))
    area = ratio * width * height
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
    return BoxXYXY(x1, y1, x1 + rw, y1 + rh)


def sample_view_rects(base: BoxXYXY, tau: float, rng: Rng,
                      max_tries: int = 100) -> tuple[BoxXYXY, BoxXYXY]:
    """Two center-anchored rectangles inside `base` with IoU >= tau.

    Each rectangle spans from one base corner toward the opposite corner;
    its far corner sits on the base diagonal, pulled in from the full extent
    by a uniformly sampled fraction. Sampling rejects pairs below the IoU
    threshold and falls back to identical full-base rectangles after
    max_tries.
    """
    if not (0.0 < tau <= 1.0):
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    cx, cy = base.center()
    hw, hh = base.width / 2.0, base.height / 2.0
    for _ in range(max_tries):
        pull1 = rng.uniform(0.0, 1.0)
        pull2 = rng.uniform(0.0, 1.0)
        r1 = BoxXYXY(base.x1, base.y1, cx + (1.0 - pull1) * hw, cy + (1.0 - pull1) * hh)
        r2 = BoxXYXY(cx - (1.0 - pull2) * hw, cy - (1.0 - pull2) * hh, base.x2, base.y2)
        if box_iou(r1, r2) >= tau:
            return r1, r2
    return base, base


def apply_photometrics(pixels: np.ndarray, rec: AugmentRecord) -> np.ndarray:
    out = pixels
    if rec.brightness != 1.0:
        out = np.clip(out * rec.brightness, 0.0, 1.0)
    if rec.contrast != 1.0:
        mean = float((out @ _LUMA).mean())
        out = np.clip((out - mean) * rec.contrast + mean, 0.0, 1.0)
    if rec.saturation != 1.0:
        luma = (out @ _LUMA)[:, :, None]
        out = np.clip((out - luma) * rec.saturation + luma, 0.0, 1.0)
    if rec.grayscale:
        out = np.repeat((out @ _LUMA)[:, :, None], 3, axis=2)
    if rec.blur_sigma > 0.0:
        out = np.clip(gaussian_blur(out, rec.blur_sigma), 0.0, 1.0)
    return out.astype(np.float32)


def augment(view: Image, rng: Rng, cfg: AugmentConfig) -> tuple[Image, AugmentRecord, bool]:
    """Photometric + flip augmentation; returns (image, record, flipped)."""
    rec = AugmentRecord()
    rec.flipped = rng.uniform() < cfg.flip_p
    if rng.uniform() < cfg.color_p:
        j = cfg.color_jitter
        rec.brightness = rng.uniform(1.0 - j, 1.0 + j)
        rec.contrast = rng.uniform(1.0 - j, 1.0 + j)
        rec.saturation = rng.uniform(1.0 - j, 1.0 + j)
    rec.grayscale = rng.uniform() < cfg.grayscale_p
    if rng.uniform() < cfg.blur_p:
        rec.blur_sigma = rng.uniform(cfg.blur_sigma[0], cfg.blur_sigma[1])
    pixels = view.pixels
    if rec.flipped:
        pixels = pixels[:, ::-1, :].copy()
    pixels = apply_photometrics(pixels, rec)
    return Image(pixels), rec, rec.flipped


def generate_proposals(image: Image, overlap: BoxXYXY, mode: str, count: int,
                       rng: Rng, min_side: float = 8.0) -> list[BoxXYXY]:
    """Boxes inside `overlap` (image frame); objectness mode ranks random
    candidates by interior-vs-border Sobel gradient contrast."""
    if overlap.width < min_side or overlap.height < min_side or overlap.area < 64.0:
        raise ValueError(f"overlap too small for proposals: "
                         f"{overlap.width:.1f}x{overlap.height:.1f}")
    if mode not in ("random", "objectness"):
        raise ValueError(f"unknown proposal mode: {mode!r}")
    k = count if mode == "random" else 4 * count
    u = rng.uniforms(4 * k).reshape(k, 4)  # x1, y1, w, h of each candidate
    x1 = overlap.x1 + (overlap.x2 - min_side - overlap.x1) * u[:, 0]
    y1 = overlap.y1 + (overlap.y2 - min_side - overlap.y1) * u[:, 1]
    x2 = x1 + (min_side + (overlap.x2 - x1 - min_side) * u[:, 2])
    y2 = y1 + (min_side + (overlap.y2 - y1 - min_side) * u[:, 3])
    boxes = np.stack([x1, y1, x2, y2], axis=1)
    if mode == "objectness":
        # stable, so tied scores keep draw order
        order = np.argsort(-_edge_contrast(image.pixels, boxes), kind="stable")
        boxes = boxes[order[:count]]
    return [BoxXYXY(*b) for b in boxes.tolist()]


def _edge_contrast(pixels: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Per (x1, y1, x2, y2) row: mean Sobel magnitude over the box's central
    half minus the mean over the ring around it, on the pixels each box
    touches (0 for an empty region)."""
    mag = sobel_magnitude(pixels).astype(np.float64)
    h, w = mag.shape
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


def _jitter_boxes(boxes: list[BoxXYXY], amount: float, rng: Rng,
                  frame_w: float, frame_h: float) -> list[BoxXYXY]:
    """Shift each box's centre by up to `amount` of its sides and scale its
    sides by 1 ± `amount`, from one block of four draws per box."""
    lo = np.array([-amount, -amount, 1.0 - amount, 1.0 - amount])
    hi = np.array([amount, amount, 1.0 + amount, 1.0 + amount])
    draws = lo + (hi - lo) * rng.uniforms(4 * len(boxes)).reshape(-1, 4)
    out = []
    for box, (ux, uy, fw, fh) in zip(boxes, draws.tolist()):
        cx, cy = box.center()
        cx, cy = cx + ux * box.width, cy + uy * box.height
        w, h = box.width * fw, box.height * fh
        x1 = min(max(0.0, cx - w / 2), frame_w - 2.0)
        y1 = min(max(0.0, cy - h / 2), frame_h - 2.0)
        x2 = max(min(frame_w, cx + w / 2), x1 + 2.0)
        y2 = max(min(frame_h, cy + h / 2), y1 + 2.0)
        out.append(BoxXYXY(x1, y1, x2, y2))
    return out


def build_view_pair(image: Image, config: ViewConfig, seed: int) -> ViewPair:
    """Full two-view construction for one image, driven entirely by `seed`."""
    rng = Rng(seed)
    size = config.view_size
    for _ in range(20):
        base = sample_base_rect(image.width, image.height, rng, config.base_area_range)
        rect1, rect2 = sample_view_rects(base, config.tau, rng)
        overlap = rect1.intersection(rect2)
        if overlap is not None and overlap.width >= config.min_proposal_side \
                and overlap.height >= config.min_proposal_side and overlap.area >= 64.0:
            break
    else:
        raise ValueError("could not sample view rectangles with a usable overlap")

    proposals_img = generate_proposals(image, overlap, config.proposal_mode,
                                       config.n_proposals, rng,
                                       config.min_proposal_side)

    views, transforms, records = [], [], []
    for rect in (rect1, rect2):
        pixels = crop_resize(image.pixels, rect, size, size)
        t = FrameTransform(dx=rect.x1, dy=rect.y1,
                           sx=size / rect.width, sy=size / rect.height,
                           flip=False, src_w=image.width, src_h=image.height,
                           dst_w=size, dst_h=size)
        aug_img, rec, flipped = augment(Image(pixels), rng, config.augment)
        if flipped:
            t = t.with_flip()
        views.append(aug_img)
        transforms.append(t)
        records.append(rec)

    pairs = []
    for prop in proposals_img:
        try:
            b1 = map_box(prop, transforms[0])
            b2 = map_box(prop, transforms[1])
        except ValueError:
            continue
        pairs.append((b1, b2))
    if not pairs:
        raise ValueError("no proposal survived mapping into both views")
    padded = len(pairs) < config.n_proposals
    survivors = list(pairs)
    while len(pairs) < config.n_proposals:
        pairs.append(survivors[len(pairs) % len(survivors)])
    pairs = pairs[:config.n_proposals]

    p1, p2 = [b1 for b1, _ in pairs], [b2 for _, b2 in pairs]
    if config.jitter > 0:
        p1 = _jitter_boxes(p1, config.jitter, rng, size, size)
        p2 = _jitter_boxes(p2, config.jitter, rng, size, size)

    return ViewPair(view1=views[0], view2=views[1], t1=transforms[0], t2=transforms[1],
                    proposals1=p1, proposals2=p2, seed=seed, base_rect=base,
                    rect1=rect1, rect2=rect2, record1=records[0], record2=records[1],
                    padded=padded)
