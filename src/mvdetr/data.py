"""Deterministic synthetic detection data: colored shapes on textured
backgrounds, stored as binary PPM (P6) plus a line-oriented manifest.

Manifest layout: a header line `manifest v1 <image count>`, then one block
per image separated by blank lines; each block line reads
`<image_path> <x1> <y1> <x2> <y2> <label>`. Loading rejects a manifest whose
count is not an integer or differs from the number of image blocks. Generation is a pure function of
(spec, seed) down to the file bytes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .geometry import BoxXYXY, box_iou
from .rng import Rng, derive_seed, uniform_field

MANIFEST_NAME = "manifest.txt"


@dataclass
class SceneSpec:
    image_size: int = 160
    min_objects: int = 2
    max_objects: int = 4
    min_side: float = 24.0
    max_side: float = 56.0
    max_pairwise_iou: float = 0.3
    margin: float = 6.0
    noise_amplitude: float = 0.04
    seed: int = 0

    def side_range(self) -> tuple[float, float]:
        """Object side lengths that fit inside the margins of the image."""
        hi = min(self.max_side, self.image_size - 2 * self.margin)
        if hi < self.min_side:
            raise ValueError(f"image size {self.image_size} leaves no room for a "
                             f"{self.min_side:g}-px object inside "
                             f"{self.margin:g}-px margins")
        return self.min_side, hi


@dataclass
class SceneObject:
    label: int          # 0 circle, 1 square, 2 triangle
    cx: float
    cy: float
    size: float         # bounding-box side length
    color: tuple[float, float, float]

    def bbox(self) -> BoxXYXY:
        half = self.size / 2.0
        return BoxXYXY(self.cx - half, self.cy - half, self.cx + half, self.cy + half)


def sample_scene(spec: SceneSpec, index: int) -> list[SceneObject]:
    """Object parameters for image `index`; pure function of (spec, index)."""
    rng = Rng(derive_seed(spec.seed, 0x5C, index))
    count = rng.randint(spec.min_objects, spec.max_objects)
    min_side, max_side = spec.side_range()
    objects: list[SceneObject] = []
    for _ in range(count):
        for _attempt in range(50):
            size = rng.uniform(min_side, max_side)
            half = size / 2.0
            lo = spec.margin + half
            hi = spec.image_size - spec.margin - half
            cx, cy = rng.uniform(lo, hi), rng.uniform(lo, hi)
            color = (rng.uniform(0.35, 1.0), rng.uniform(0.35, 1.0),
                     rng.uniform(0.35, 1.0))
            label = rng.randint(0, 2)
            candidate = SceneObject(label, cx, cy, size, color)
            if all(box_iou(candidate.bbox(), o.bbox()) <= spec.max_pairwise_iou
                   for o in objects):
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
    noise = uniform_field(rng.next_u64(), (s, s), -1.0, 1.0)
    img += noise[:, :, None] * spec.noise_amplitude
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
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    expected = w * h * 3
    raw = blob[pos:pos + expected]
    if len(raw) != expected:
        raise ValueError(f"{path}: truncated pixel data "
                         f"({len(raw)} of {expected} bytes)")
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)
    return (arr.astype(np.float32) / 255.0)


# -- dataset ---------------------------------------------------------------------------


def generate_dataset(count: int, spec: SceneSpec, out_dir: str) -> str:
    """Write `count` PPM images plus the manifest; returns the manifest path.

    Byte-identical for identical (count, spec). On I/O failure partial files
    are removed before the error propagates. A spec whose objects cannot fit
    is rejected before anything is written.
    """
    spec.side_range()
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, MANIFEST_NAME)
    written: list[str] = []
    try:
        lines = [f"manifest v1 {count}"]
        for i in range(count):
            pixels, objects = render_scene(spec, i)
            name = f"img_{i:05d}.ppm"
            write_ppm(os.path.join(out_dir, name), pixels)
            written.append(os.path.join(out_dir, name))
            lines.append("")
            for obj in objects:
                b = obj.bbox()
                lines.append(f"{name} {b.x1:.2f} {b.y1:.2f} {b.x2:.2f} {b.y2:.2f} "
                             f"{obj.label}")
        with open(manifest_path, "w", encoding="ascii") as f:
            f.write("\n".join(lines) + "\n")
    except OSError:
        for p in written + [manifest_path]:
            if os.path.exists(p):
                os.remove(p)
        raise
    return manifest_path


def load_dataset(manifest_path: str) -> list[tuple[np.ndarray, list[BoxXYXY], list[int]]]:
    """Read the manifest into (pixels, boxes, labels) triples."""
    base = os.path.dirname(manifest_path)
    with open(manifest_path, encoding="ascii") as f:
        lines = f.read().splitlines()
    header = lines[0].split() if lines else []
    if header[:2] != ["manifest", "v1"] or len(header) != 3:
        raise ValueError(f"{manifest_path}:1: bad or missing manifest header")
    try:
        declared = int(header[2])
    except ValueError:
        raise ValueError(f"{manifest_path}:1: image count {header[2]!r} "
                         "is not an integer") from None
    blocks: dict[str, tuple[list[BoxXYXY], list[int]]] = {}
    order: list[str] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 6:
            raise ValueError(f"{manifest_path}:{lineno}: expected 6 fields, "
                             f"got {len(parts)}")
        name = parts[0]
        try:
            x1, y1, x2, y2 = (float(v) for v in parts[1:5])
            label = int(parts[5])
        except ValueError:
            raise ValueError(f"{manifest_path}:{lineno}: malformed numbers") from None
        if name not in blocks:
            blocks[name] = ([], [])
            order.append(name)
        blocks[name][0].append(BoxXYXY(x1, y1, x2, y2))
        blocks[name][1].append(label)
    if len(order) != declared:
        raise ValueError(f"{manifest_path}: header declares {declared} images, "
                         f"found {len(order)} image blocks")
    out = []
    for name in order:
        pixels = read_ppm(os.path.join(base, name))
        boxes, labels = blocks[name]
        out.append((pixels, boxes, labels))
    return out
