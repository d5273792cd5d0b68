"""COCO-style AP/AR, detection running, attention export, frozen-head probe.

AP uses 101-point interpolation over the recall grid {0, 0.01, ..., 1} and
greedy confidence-ordered matching (ties by detection index) with each
ground-truth box matched at most once. AR@K averages recall over the IoU
grid 0.50:0.05:0.95 with the top K detections per image.

Scoring computes one IoU matrix per image, its detections against its
ground truth, and keeps each detection's overlapping boxes best first.
Detections are ranked once; every IoU threshold, each class's AP (the rows
and columns of its class) and AR@K then match against those lists. Matching
is per image: a detection only ever takes a box of its own image.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .backbone import FrozenBackbone
from .geometry import BoxXYXY, pairwise_iou
from .model import Detr
from .tensor import Tensor
from .views import resize_to_view

IOU_GRID = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
RECALL_GRID = np.linspace(0.0, 1.0, 101)

# per detection, its (IoU, ground-truth index) pairs in the order it prefers them
_Candidates = list[Sequence[tuple[float, int]]]


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


def _rank(dets: list[Detection]) -> list[int]:
    """Detection indices by descending confidence, ties by index."""
    return sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))


def _corners(boxes) -> np.ndarray:
    return np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes],
                    dtype=np.float64).reshape(-1, 4)


def _candidates(dets: list[Detection], gts: list[GroundTruth],
                min_iou: float) -> _Candidates:
    """Per detection, (IoU, ground-truth index) for each ground-truth box of
    its image that it overlaps by at least min_iou, in the order greedy
    matching prefers them: highest IoU first, ties by index. One IoU matrix
    per image."""
    gt_rows: dict[int, list[int]] = {}
    for gi, gt in enumerate(gts):
        gt_rows.setdefault(gt.image_id, []).append(gi)
    det_rows: dict[int, list[int]] = {}
    for di, det in enumerate(dets):
        det_rows.setdefault(det.image_id, []).append(di)
    det_xyxy = _corners(d.box for d in dets)
    gt_xyxy = _corners(g.box for g in gts)
    cands: _Candidates = [()] * len(dets)
    for image_id, dis in det_rows.items():
        gis = gt_rows.get(image_id)
        if gis is None:
            continue
        iou, _ = pairwise_iou(det_xyxy[dis], gt_xyxy[gis])
        for di, row in zip(dis, iou.tolist()):
            cands[di] = sorted(((v, gi) for v, gi in zip(row, gis)
                                if v >= min_iou and v > 0.0),
                               key=lambda c: (-c[0], c[1]))
    return cands


def _hits(ranked: list[int], cands: _Candidates,
          thresholds: tuple[float, ...]) -> list[list[int]]:
    """Rank positions of the true positives at each IoU threshold.

    Greedy matching: in rank order, each detection takes its best untaken
    candidate at or above the threshold. Candidates never leave a
    detection's image, so neither does the matching.
    """
    matchable = [(pos, cands[di]) for pos, di in enumerate(ranked) if cands[di]]
    out = []
    for thr in thresholds:
        taken: set[int] = set()
        hits = []
        for pos, cs in matchable:
            for iou, gi in cs:
                if iou < thr:
                    break
                if gi not in taken:
                    taken.add(gi)
                    hits.append(pos)
                    break
        out.append(hits)
    return out


def _precision(hits: list[int], n_dets: int, n_gt: int) -> float:
    """101-point interpolated AP of n_dets ranked detections with true
    positives at the rank positions `hits`."""
    if not n_gt:
        return 1.0 if not n_dets else 0.0
    if not n_dets:
        return 0.0
    flags = np.zeros(n_dets, dtype=bool)
    flags[hits] = True
    tp = np.cumsum(flags)
    fp = np.cumsum(~flags)
    recall = tp / n_gt
    precision = tp / np.maximum(tp + fp, 1)
    # precision envelope, sampled at the 101-point recall grid (0 past the
    # highest recall), summed in grid order
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, RECALL_GRID, side="left")
    ap = 0.0
    for v in np.append(envelope, 0.0)[idx].tolist():
        ap += v
    return ap / len(RECALL_GRID)


def _recall_at_k(dets: list[Detection], ranked: list[int],
                 cands: _Candidates, n_gt: int, k: int) -> float:
    """Recall of the top-k detections per image, averaged over the IoU grid."""
    if not n_gt:
        return 1.0 if not dets else 0.0
    per_image: dict[int, int] = {}
    kept = []
    for di in ranked:
        image_id = dets[di].image_id
        if per_image.get(image_id, 0) < k:
            per_image[image_id] = per_image.get(image_id, 0) + 1
            kept.append(di)
    total = 0.0
    for hits in _hits(kept, cands, IOU_GRID):
        total += len(hits) / n_gt
    return total / len(IOU_GRID)


def average_precision(detections: list[Detection], ground_truth: list[GroundTruth],
                      iou_threshold: float) -> float:
    """101-point interpolated AP at one IoU threshold (class-blind: filter
    per class before calling for per-class AP). Empty GT with no detections
    is undefined and reported as 1 by convention."""
    cands = _candidates(detections, ground_truth, iou_threshold)
    hits, = _hits(_rank(detections), cands, (iou_threshold,))
    return _precision(hits, len(detections), len(ground_truth))


def average_recall_at_k(detections: list[Detection], ground_truth: list[GroundTruth],
                        k: int) -> float:
    """Recall of the top-k detections per image, averaged over the IoU grid."""
    cands = _candidates(detections, ground_truth, IOU_GRID[0])
    return _recall_at_k(detections, _rank(detections), cands, len(ground_truth), k)


def evaluate_detections(detections: list[Detection], ground_truth: list[GroundTruth],
                        n_classes: int) -> MetricReport:
    """Class-mean AP over the IoU grid plus class-agnostic AR@1/AR@10.

    One ranking and one IoU matrix per image serve every number.
    """
    ranked = _rank(detections)
    cands = _candidates(detections, ground_truth, IOU_GRID[0])
    # a class's AP matches its detections against its ground truth only
    own_class = [[c for c in cs if ground_truth[c[1]].class_id == det.class_id]
                 for det, cs in zip(detections, cands)]
    ap_per_thr: dict[float, list[float]] = {thr: [] for thr in IOU_GRID}
    for cls in range(n_classes):
        n_gt = sum(g.class_id == cls for g in ground_truth)
        if not n_gt:
            continue
        cls_ranked = [di for di in ranked if detections[di].class_id == cls]
        for thr, hits in zip(IOU_GRID, _hits(cls_ranked, own_class, IOU_GRID)):
            ap_per_thr[thr].append(_precision(hits, len(cls_ranked), n_gt))
    means = {thr: (float(np.mean(v)) if v else 0.0) for thr, v in ap_per_thr.items()}
    n_gt = len(ground_truth)
    return MetricReport(
        ap=float(np.mean(list(means.values()))),
        ap50=means[0.5],
        ap75=means[0.75],
        ar1=_recall_at_k(detections, ranked, cands, n_gt, 1),
        ar10=_recall_at_k(detections, ranked, cands, n_gt, 10),
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
    if not any(boxes for _, boxes, _ in dataset):
        raise ValueError(f"eval set has no ground-truth boxes ({len(dataset)} images)")
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
