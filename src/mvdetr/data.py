"""Deterministic synthetic detection data: colored shapes on textured
backgrounds, stored as binary PPM (P6) plus a line-oriented manifest.

Manifest layout: a header line `manifest v1 <image count>`, then one block
per image separated by blank lines; each block line reads
`<image_path> <x1> <y1> <x2> <y2> <label>`, and an image with no objects is a
block of one line holding only its path. Loading rejects a manifest whose
count is not an integer or differs from the number of image blocks, and names
the file and line of bytes not UTF-8, of a malformed, non-finite, inside-out or
empty box, or of a bare path next to box lines of the same image. Generation
is a pure function of `SceneSpec` (image size, seed) down to the file bytes.

`load_dataset` yields one (pixels, boxes, labels) triple per image: the
file's (H, W, 3) uint8 bytes (8-bit, a quarter of float32; `as_float_pixels`
makes float32 in [0, 1] of one image where it is used), an (m, 4) float64
array of xyxy rows, and an (m,) int64 array; m is 0 for a bare-path block.
A scene object's box, `SceneObject.bbox()`, is one such (4,) row.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .geometry import pairwise_iou
from .rng import Rng, derive_seed

MANIFEST_NAME = "manifest.txt"


# fixed scene settings; sides and the margin around each object are in pixels
MIN_OBJECTS = 2
MAX_OBJECTS = 4
MIN_SIDE = 24.0
MAX_SIDE = 56.0
MAX_PAIRWISE_IOU = 0.3
MARGIN = 6.0
NOISE_AMPLITUDE = 0.04


@dataclass
class SceneSpec:
    image_size: int = 160
    seed: int = 0

    def side_range(self) -> tuple[float, float]:
        """Object side lengths that fit inside the margins of the image."""
        hi = min(MAX_SIDE, self.image_size - 2 * MARGIN)
        if hi < MIN_SIDE:
            raise ValueError(f"image size {self.image_size} leaves no room for a "
                             f"{MIN_SIDE:g}-px object inside {MARGIN:g}-px margins")
        return MIN_SIDE, hi


@dataclass
class SceneObject:
    label: int          # 0 circle, 1 square, 2 triangle
    cx: float
    cy: float
    size: float         # bounding-box side length
    color: tuple[float, float, float]

    def bbox(self) -> np.ndarray:  # a (4,) float64 xyxy row
        half = self.size / 2.0
        return np.array([self.cx - half, self.cy - half, self.cx + half, self.cy + half])


def sample_scene(spec: SceneSpec, index: int) -> list[SceneObject]:
    """Object parameters for image `index`; pure function of (spec, index)."""
    rng = Rng(derive_seed(spec.seed, 0x5C, index))
    count = rng.randint(MIN_OBJECTS, MAX_OBJECTS)
    min_side, max_side = spec.side_range()
    objects: list[SceneObject] = []
    for _ in range(count):
        for _attempt in range(50):
            size = rng.uniform(min_side, max_side)
            half = size / 2.0
            lo = MARGIN + half
            hi = spec.image_size - MARGIN - half
            cx, cy = rng.uniform(lo, hi), rng.uniform(lo, hi)
            color = (rng.uniform(0.35, 1.0), rng.uniform(0.35, 1.0),
                     rng.uniform(0.35, 1.0))
            label = rng.randint(0, 2)
            candidate = SceneObject(label, cx, cy, size, color)
            placed = np.array([o.bbox() for o in objects]).reshape(-1, 4)
            if (pairwise_iou(candidate.bbox()[None], placed)[0] <= MAX_PAIRWISE_IOU).all():
                objects.append(candidate)
                break
    return objects


def _background(spec: SceneSpec, rng: Rng) -> np.ndarray:
    s = spec.image_size
    base = rng.uniform(0.25, 0.55)
    img = np.full((s, s, 3), base, dtype=np.float64)
    ys, xs = np.mgrid[0:s, 0:s].astype(np.float64) / s
    for _ in range(rng.randint(2, 4)):
        angle = rng.uniform(0, 2 * math.pi)
        ramp = xs * math.cos(angle) + ys * math.sin(angle)
        color = np.array([rng.uniform(-1, 1) for _ in range(3)])
        img += ramp[:, :, None] * color[None, None, :] * rng.uniform(0.03, 0.10)
    noise = Rng(rng.next_u64()).uniforms(s * s, -1.0, 1.0).reshape(s, s)
    img += noise[:, :, None] * NOISE_AMPLITUDE
    return np.clip(img, 0.0, 1.0)


def _object_mask(obj: SceneObject, size: int) -> np.ndarray:
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    ys, xs = ys + 0.5, xs + 0.5
    half = obj.size / 2.0
    if obj.label == 0:  # circle
        return (xs - obj.cx) ** 2 + (ys - obj.cy) ** 2 <= half * half
    if obj.label == 1:  # square
        return (np.abs(xs - obj.cx) <= half) & (np.abs(ys - obj.cy) <= half)
    # upright isoceles triangle: apex at top of the bbox
    in_box = (np.abs(xs - obj.cx) <= half) & (np.abs(ys - obj.cy) <= half)
    rel_y = (ys - (obj.cy - half)) / obj.size  # 0 at apex row, 1 at base
    return in_box & (np.abs(xs - obj.cx) <= rel_y * half)


def render_scene(spec: SceneSpec, index: int) -> tuple[np.ndarray, list[SceneObject]]:
    objects = sample_scene(spec, index)
    rng = Rng(derive_seed(spec.seed, 0xB6, index))
    img = _background(spec, rng)
    for obj in objects:
        mask = _object_mask(obj, spec.image_size)
        img[mask] = obj.color
    return np.clip(img, 0.0, 1.0).astype(np.float32), objects


# -- PPM I/O --------------------------------------------------------------------------


def write_ppm(path: str, pixels: np.ndarray) -> None:
    h, w = pixels.shape[:2]
    data = np.clip(np.rint(pixels * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def read_ppm(path: str) -> np.ndarray:
    """The (H, W, 3) uint8 pixels of a binary PPM, read-only."""
    with open(path, "rb") as f:
        blob = f.read()
    if not blob.startswith(b"P6"):
        raise ValueError(f"{path}: not a binary PPM (P6) file")
    fields: list[bytes] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":  # comment line
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        fields.append(blob[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        w, h, maxval = (int(v) for v in fields)
    except ValueError:
        raise ValueError(f"{path}: malformed PPM header") from None
    if w < 1 or h < 1:
        raise ValueError(f"{path}: image size must be positive, got {w}x{h}")
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    expected = w * h * 3
    raw = blob[pos:pos + expected]
    if len(raw) != expected:
        raise ValueError(f"{path}: truncated pixel data "
                         f"({len(raw)} of {expected} bytes)")
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)


def as_float_pixels(pixels: np.ndarray) -> np.ndarray:
    """uint8 pixels as float32 in [0, 1]; any other dtype is returned as is."""
    if pixels.dtype == np.uint8:
        return pixels.astype(np.float32) / 255.0
    return pixels


# -- dataset ---------------------------------------------------------------------------


def generate_dataset(count: int, spec: SceneSpec, out_dir: str) -> str:
    """Write `count` PPM images plus the manifest; returns the manifest path.

    Byte-identical for identical (count, spec). On I/O failure partial files
    are removed before the error propagates. A spec whose objects cannot fit
    is rejected before anything is written. Images that hold fewer than
    MIN_OBJECTS objects (no placement kept the overlap limit) are
    counted on stderr.
    """
    spec.side_range()
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, MANIFEST_NAME)
    written: list[str] = []
    short = 0
    try:
        lines = [f"manifest v1 {count}"]
        for i in range(count):
            pixels, objects = render_scene(spec, i)
            short += len(objects) < MIN_OBJECTS
            name = f"img_{i:05d}.ppm"
            write_ppm(os.path.join(out_dir, name), pixels)
            written.append(os.path.join(out_dir, name))
            lines.append("")
            if not objects:
                lines.append(name)
            for obj in objects:
                x1, y1, x2, y2 = obj.bbox()
                lines.append(f"{name} {x1:.2f} {y1:.2f} {x2:.2f} {y2:.2f} {obj.label}")
        with open(manifest_path, "w", encoding="ascii") as f:
            f.write("\n".join(lines) + "\n")
    except OSError:
        for p in written + [manifest_path]:
            if os.path.exists(p):
                os.remove(p)
        raise
    if short:
        print(f"warning: {short} of {count} images hold fewer than "
              f"{MIN_OBJECTS} objects (no room for more at IoU <= "
              f"{MAX_PAIRWISE_IOU:g})", file=sys.stderr)
    return manifest_path


def load_dataset(manifest_path: str, classes: int | None = None
                 ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Read the manifest into (pixels, boxes, labels) triples. With `classes`
    given, a label outside [0, classes) is an error."""
    base = os.path.dirname(manifest_path)
    with open(manifest_path, "rb") as f:
        raw = f.read()
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        lineno = raw.count(b"\n", 0, e.start) + 1
        raise ValueError(f"{manifest_path}:{lineno}: not UTF-8 text") from None
    header = lines[0].split() if lines else []
    if header[:2] != ["manifest", "v1"] or len(header) != 3:
        raise ValueError(f"{manifest_path}:1: bad or missing manifest header")
    try:
        declared = int(header[2])
    except ValueError:
        raise ValueError(f"{manifest_path}:1: image count {header[2]!r} "
                         "is not an integer") from None
    # per image, in manifest order: its (x1, y1, x2, y2, label) rows, or
    # None for a bare-path block
    blocks: dict[str, list[tuple[float, float, float, float, int]] | None] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        where = f"{manifest_path}:{lineno}"
        name, *fields = line.split()
        if name in blocks and (blocks[name] is None or not fields):
            raise ValueError(f"{where}: a bare path must be the only line of "
                             f"its image, {name}")
        if not fields:
            blocks[name] = None
            continue
        if len(fields) != 5:
            raise ValueError(f"{where}: expected 6 fields, got {len(fields) + 1}")
        try:
            x1, y1, x2, y2 = (float(v) for v in fields[:4])
            label = int(fields[4])
        except ValueError:
            raise ValueError(f"{where}: malformed numbers") from None
        if classes is not None and not 0 <= label < classes:
            raise ValueError(f"{where}: label {label} is outside "
                             f"[0, {classes}) for data.classes={classes}")
        if not all(math.isfinite(v) for v in (x1, y1, x2, y2)):
            raise ValueError(f"{where}: non-finite box ({x1}, {y1}, {x2}, {y2})")
        if x2 < x1 or y2 < y1:
            raise ValueError(f"{where}: box corners out of order "
                             f"({x1}, {y1}, {x2}, {y2})")
        if x2 == x1 or y2 == y1:
            raise ValueError(f"{where}: empty box ({x1}, {y1}, {x2}, {y2})")
        blocks.setdefault(name, []).append((x1, y1, x2, y2, label))
    if len(blocks) != declared:
        raise ValueError(f"{manifest_path}: header declares {declared} images, "
                         f"found {len(blocks)} image blocks")
    out = []
    for name, rows in blocks.items():
        rows = rows or []
        boxes = np.array([r[:4] for r in rows], dtype=np.float64).reshape(-1, 4)
        labels = np.array([r[4] for r in rows], dtype=np.int64)
        out.append((read_ppm(os.path.join(base, name)), boxes, labels))
    return out
