"""COCO-style AP/AR, detection running, attention export, frozen-head probe.

AP uses 101-point interpolation over the recall grid {0, 0.01, ..., 1} and
greedy confidence-ordered matching (ties by detection index) with each
ground-truth box matched at most once. AR@K averages recall over the IoU
grid 0.50:0.05:0.95 with the top K detections per image.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .backbone import FrozenBackbone
from .geometry import BoxXYXY, box_iou
from .model import Detr
from .tensor import Tensor
from .views import resize_to_view

IOU_GRID = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
RECALL_GRID = np.linspace(0.0, 1.0, 101)


@dataclass(frozen=True)
class Detection:
    image_id: int
    box: BoxXYXY
    class_id: int
    confidence: float

    def __post_init__(self):
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence out of range: {self.confidence}")


@dataclass(frozen=True)
class GroundTruth:
    image_id: int
    box: BoxXYXY
    class_id: int


@dataclass
class MetricReport:
    ap: float
    ap50: float
    ap75: float
    ar1: float
    ar10: float

    def as_csv(self) -> str:
        return ("ap,ap50,ap75,ar1,ar10\n"
                f"{self.ap:.6f},{self.ap50:.6f},{self.ap75:.6f},"
                f"{self.ar1:.6f},{self.ar10:.6f}\n")


def _greedy_match(dets: list[Detection], gts: list[GroundTruth],
                  iou_threshold: float) -> list[bool]:
    """True-positive flags for detections already sorted by rank."""
    by_image: dict[int, list[int]] = {}
    for gi, gt in enumerate(gts):
        by_image.setdefault(gt.image_id, []).append(gi)
    taken = [False] * len(gts)
    flags = []
    for det in dets:
        best_iou, best_gi = 0.0, -1
        for gi in by_image.get(det.image_id, ()):
            if taken[gi]:
                continue
            iou = box_iou(det.box, gts[gi].box)
            if iou >= iou_threshold and iou > best_iou:
                best_iou, best_gi = iou, gi
        if best_gi >= 0:
            taken[best_gi] = True
            flags.append(True)
        else:
            flags.append(False)
    return flags


def _ranked(dets: list[Detection]) -> list[Detection]:
    return [dets[i] for i in sorted(range(len(dets)),
                                    key=lambda i: (-dets[i].confidence, i))]


def average_precision(detections: list[Detection], ground_truth: list[GroundTruth],
                      iou_threshold: float) -> float:
    """101-point interpolated AP at one IoU threshold (class-blind: filter
    per class before calling for per-class AP). Empty GT with no detections
    is undefined and reported as 1 by convention."""
    if not ground_truth:
        return 1.0 if not detections else 0.0
    if not detections:
        return 0.0
    ranked = _ranked(detections)
    flags = _greedy_match(ranked, ground_truth, iou_threshold)
    tp = np.cumsum(flags)
    fp = np.cumsum([not f for f in flags])
    recall = tp / len(ground_truth)
    precision = tp / np.maximum(tp + fp, 1)
    # precision envelope, then sample the 101-point recall grid
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    for r in RECALL_GRID:
        idx = np.searchsorted(recall, r, side="left")
        ap += envelope[idx] if idx < len(envelope) else 0.0
    return float(ap / len(RECALL_GRID))


def average_recall_at_k(detections: list[Detection], ground_truth: list[GroundTruth],
                        k: int) -> float:
    """Recall of the top-k detections per image, averaged over the IoU grid."""
    if not ground_truth:
        return 1.0 if not detections else 0.0
    per_image: dict[int, list[Detection]] = {}
    for det in _ranked(detections):
        bucket = per_image.setdefault(det.image_id, [])
        if len(bucket) < k:
            bucket.append(det)
    kept = [d for bucket in per_image.values() for d in bucket]
    kept = _ranked(kept)
    total = 0.0
    for thr in IOU_GRID:
        flags = _greedy_match(kept, ground_truth, thr)
        total += sum(flags) / len(ground_truth)
    return total / len(IOU_GRID)


def evaluate_detections(detections: list[Detection], ground_truth: list[GroundTruth],
                        n_classes: int) -> MetricReport:
    """Class-mean AP over the IoU grid plus class-agnostic AR@1/AR@10."""
    ap_per_thr: dict[float, list[float]] = {thr: [] for thr in IOU_GRID}
    for cls in range(n_classes):
        cls_gt = [g for g in ground_truth if g.class_id == cls]
        if not cls_gt:
            continue
        cls_det = [d for d in detections if d.class_id == cls]
        for thr in IOU_GRID:
            ap_per_thr[thr].append(average_precision(cls_det, cls_gt, thr))
    means = {thr: (float(np.mean(v)) if v else 0.0) for thr, v in ap_per_thr.items()}
    return MetricReport(
        ap=float(np.mean(list(means.values()))),
        ap50=means[0.5],
        ap75=means[0.75],
        ar1=average_recall_at_k(detections, ground_truth, 1),
        ar10=average_recall_at_k(detections, ground_truth, 10),
    )


# -- running the model over images ------------------------------------------------------


def detect_batch(model: Detr, backbone: FrozenBackbone,
                 images: list[tuple[int, np.ndarray]], score_source: str = "class",
                 view_size: int | None = None) -> list[Detection]:
    """Set prediction over a batch of (image_id, pixels); no NMS.

    score_source "class": confidence is the best foreground-class softmax
    probability (requires the class head). "match": confidence is the binary
    match score (pretraining checkpoints, no classes). view_size, when set,
    resizes inputs to the training geometry; predicted boxes stay in each
    image's original pixel frame (they are normalized).
    """
    inputs = [pixels if view_size is None else resize_to_view(pixels, view_size)
              for _, pixels in images]
    with T.no_grad():
        h = Tensor(backbone.extract_batch(np.stack(inputs)))
        c, hw = model.encode(h)
        q_hat, _ = model.decode(c, hw, z=None)
        boxes, _, match = model.predict(q_hat)
        if score_source == "class":
            fg = T.softmax(model.class_logits(q_hat)).data[:, :, :-1]
            labels = fg.argmax(axis=-1)
            scores = fg.max(axis=-1)
        elif score_source == "match":
            labels = np.zeros(boxes.data.shape[:2], dtype=np.int64)
            scores = match.data[:, :, 0]
        else:
            raise ValueError(f"unknown score source {score_source!r}")
    out = []
    for bi, (image_id, pixels) in enumerate(images):
        height, width = pixels.shape[:2]
        for i in range(boxes.data.shape[1]):
            cx, cy, w, bh = (float(v) for v in boxes.data[bi, i])
            x1 = max(0.0, (cx - w / 2) * width)
            y1 = max(0.0, (cy - bh / 2) * height)
            x2 = min(float(width), (cx + w / 2) * width)
            y2 = min(float(height), (cy + bh / 2) * height)
            if x2 <= x1 or y2 <= y1:
                continue
            out.append(Detection(image_id, BoxXYXY(x1, y1, x2, y2),
                                 int(labels[bi, i]),
                                 float(np.clip(scores[bi, i], 0.0, 1.0))))
    return out


def evaluate_model(model: Detr, backbone: FrozenBackbone,
                   dataset: list[tuple[np.ndarray, list[BoxXYXY], list[int]]],
                   n_classes: int, score_source: str = "class",
                   view_size: int | None = None, batch: int = 16) -> MetricReport:
    detections: list[Detection] = []
    ground_truth: list[GroundTruth] = []
    pending: list[tuple[int, np.ndarray]] = []
    for image_id, (pixels, boxes, labels) in enumerate(dataset):
        pending.append((image_id, pixels))
        if len(pending) == batch:
            detections.extend(detect_batch(model, backbone, pending, score_source,
                                           view_size))
            pending = []
        for b, lab in zip(boxes, labels):
            ground_truth.append(GroundTruth(image_id, b, lab))
    if pending:
        detections.extend(detect_batch(model, backbone, pending, score_source,
                                       view_size))
    return evaluate_detections(detections, ground_truth, n_classes)


# -- attention export ---------------------------------------------------------------------


def write_pgm(path: str, gray: np.ndarray) -> None:
    h, w = gray.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(gray.astype(np.uint8).tobytes())


def export_attention(model: Detr, backbone: FrozenBackbone, pixels: np.ndarray,
                     out_dir: str, prefix: str = "query",
                     view_size: int | None = None) -> list[str]:
    """Final-decoder-layer cross-attention per query as 8-bit PGM maps, plus
    a sidecar listing predicted boxes and match scores."""
    os.makedirs(out_dir, exist_ok=True)
    if view_size is not None:
        pixels = resize_to_view(pixels, view_size)
    with T.no_grad():
        c, hw = model.encode(Tensor(backbone.extract_batch(pixels[None])))  # a batch of one
        q_hat, attn = model.decode(c, hw, z=None)
        boxes, _, match = model.predict(q_hat)
    mean_attn = attn.data[0].mean(axis=0)  # (N, L)
    paths = []
    for qi in range(mean_attn.shape[0]):
        amap = mean_attn[qi].reshape(hw)
        lo, hi = float(amap.min()), float(amap.max())
        if hi - lo < 1e-12:
            gray = np.full(hw, 128, dtype=np.uint8)  # uniform attention
        else:
            gray = np.rint((amap - lo) / (hi - lo) * 255.0).astype(np.uint8)
        path = os.path.join(out_dir, f"{prefix}_{qi:03d}.pgm")
        write_pgm(path, gray)
        paths.append(path)
    sidecar = os.path.join(out_dir, f"{prefix}_boxes.txt")
    with open(sidecar, "w", encoding="ascii") as f:
        for qi in range(boxes.data.shape[1]):
            cx, cy, w, bh = (float(v) for v in boxes.data[0, qi])
            f.write(f"{qi} {cx:.6f} {cy:.6f} {w:.6f} {bh:.6f} "
                    f"{float(match.data[0, qi, 0]):.6f}\n")
    paths.append(sidecar)
    return paths
