"""COCO-style AP/AR, detection running and attention export.

AP uses 101-point interpolation over the recall grid {0, 0.01, ..., 1} and
greedy confidence-ordered matching (ties by detection index) with each
ground-truth box matched at most once. AR@K averages recall over the IoU
grid 0.50:0.05:0.95 with the top K detections per image.

Detections are one record array of dtype `DETECTION` (image, xyxy box,
label, score); ground truth is the dataset's per-image (boxes, labels), an
(m, 4) float64 xyxy array and an (m,) int64 array for image i at index i.
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
from .geometry import cxcywh_to_xyxy_array, pairwise_iou, py_max, py_min
from .model import Detr
from .tensor import Tensor
from .views import resize_to_view

IOU_GRID = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
RECALL_GRID = np.linspace(0.0, 1.0, 101)

DETECTION = np.dtype([("image", np.int64), ("box", np.float64, (4,)),
                      ("label", np.int64), ("score", np.float64)])

# per detection, its (IoU, ground-truth index) pairs in the order it prefers them
_Candidates = list[Sequence[tuple[float, int]]]


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


def _candidates(detections: np.ndarray,
                ground_truth: Sequence[tuple[np.ndarray, np.ndarray]],
                min_iou: float) -> _Candidates:
    """Per detection, (IoU, ground-truth index) for each ground-truth box of
    its image that it overlaps by at least min_iou, in the order greedy
    matching prefers them: highest IoU first, ties by index. Ground-truth
    boxes are indexed image after image; one IoU matrix per image."""
    images = detections["image"]
    by_image = np.argsort(images, kind="stable")
    bounds = np.searchsorted(images[by_image], np.arange(len(ground_truth) + 1))
    cands: _Candidates = [()] * len(detections)
    first = 0
    for image, (boxes, _) in enumerate(ground_truth):
        dis = by_image[bounds[image]:bounds[image + 1]]
        if len(dis) and len(boxes):
            iou, _ = pairwise_iou(detections["box"][dis], boxes)
            for di, row in zip(dis.tolist(), iou.tolist()):
                cands[di] = sorted(((v, first + j) for j, v in enumerate(row)
                                    if v >= min_iou and v > 0.0),
                                   key=lambda c: (-c[0], c[1]))
        first += len(boxes)
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
    positives at the rank positions `hits`, against n_gt > 0 boxes."""
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


def _recall_at_k(images: list[int], ranked: list[int],
                 cands: _Candidates, n_gt: int, k: int) -> float:
    """Recall of the top-k detections per image, averaged over the IoU grid;
    `images` holds each detection's image."""
    if not n_gt:
        return 1.0 if not images else 0.0
    per_image: dict[int, int] = {}
    kept = []
    for di in ranked:
        image = images[di]
        if per_image.get(image, 0) < k:
            per_image[image] = per_image.get(image, 0) + 1
            kept.append(di)
    total = 0.0
    for hits in _hits(kept, cands, IOU_GRID):
        total += len(hits) / n_gt
    return total / len(IOU_GRID)


def evaluate_detections(detections: np.ndarray,
                        ground_truth: Sequence[tuple[np.ndarray, np.ndarray]],
                        n_classes: int) -> MetricReport:
    """Class-mean AP over the IoU grid plus class-agnostic AR@1/AR@10 of a
    `DETECTION` record array against per-image (boxes, labels).

    One ranking and one IoU matrix per image serve every number.
    """
    ranked = np.argsort(-detections["score"], kind="stable")
    cands = _candidates(detections, ground_truth, IOU_GRID[0])
    gt_labels = np.concatenate([np.zeros(0, np.int64)]
                               + [labels for _, labels in ground_truth])
    # a class's AP matches its detections against its ground truth only
    gt_label_list = gt_labels.tolist()
    own_class = [[c for c in cs if gt_label_list[c[1]] == label]
                 for label, cs in zip(detections["label"].tolist(), cands)]
    ranked_labels = detections["label"][ranked]
    ap_per_thr: dict[float, list[float]] = {thr: [] for thr in IOU_GRID}
    for cls in range(n_classes):
        n_gt = int((gt_labels == cls).sum())
        if not n_gt:
            continue
        cls_ranked = ranked[ranked_labels == cls].tolist()
        for thr, hits in zip(IOU_GRID, _hits(cls_ranked, own_class, IOU_GRID)):
            ap_per_thr[thr].append(_precision(hits, len(cls_ranked), n_gt))
    means = {thr: (float(np.mean(v)) if v else 0.0) for thr, v in ap_per_thr.items()}
    images, ranked = detections["image"].tolist(), ranked.tolist()
    return MetricReport(
        ap=float(np.mean(list(means.values()))),
        ap50=means[0.5],
        ap75=means[0.75],
        ar1=_recall_at_k(images, ranked, cands, len(gt_labels), 1),
        ar10=_recall_at_k(images, ranked, cands, len(gt_labels), 10),
    )


# -- running the model over images ------------------------------------------------------


def detect_batch(model: Detr, backbone: FrozenBackbone,
                 images: list[tuple[int, np.ndarray]], score_source: str = "class", *,
                 view_size: int) -> np.ndarray:
    """Set prediction over a batch of (image_id, pixels); no NMS.

    Returns a `DETECTION` record array, one record per query whose box keeps
    a positive width and height once clamped to its image, in (image, query)
    order. score_source "class": the score is the best foreground-class
    softmax probability (requires the class head). "match": the score is the
    binary match score (pretraining checkpoints, no classes). Inputs are
    resized to the training geometry, `view_size` square; predicted boxes
    stay in each image's original pixel frame (they are normalized).
    """
    inputs = [resize_to_view(pixels, view_size) for _, pixels in images]
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
    # cxcywh -> xyxy in float64 pixels, clamped to each image's frame
    size = np.array([pixels.shape[1::-1] for _, pixels in images],
                    dtype=np.float64)[:, None, :]  # (B, 1, 2): width, height
    xyxy = cxcywh_to_xyxy_array(boxes.data.astype(np.float64))
    lo = py_max(0.0, xyxy[..., :2] * size)
    hi = py_min(size, xyxy[..., 2:] * size)
    keep = ~(hi <= lo).any(axis=-1)
    out = np.empty(int(keep.sum()), DETECTION)
    out["image"] = np.repeat([image_id for image_id, _ in images], keep.sum(axis=1))
    out["box"] = np.concatenate([lo, hi], axis=-1)[keep]
    out["label"] = labels[keep]
    out["score"] = np.clip(scores, 0.0, 1.0)[keep]
    if np.isnan(out["score"]).any():
        raise ValueError("confidence out of range: nan")
    return out


def check_eval_set(dataset: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> None:
    """Reject an eval set that AP/AR cannot score: one with no ground-truth box."""
    if not any(len(boxes) for _, boxes, _ in dataset):
        raise ValueError(f"eval set has no ground-truth boxes ({len(dataset)} images)")


def evaluate_model(model: Detr, backbone: FrozenBackbone,
                   dataset: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
                   n_classes: int, score_source: str = "class", *,
                   view_size: int, batch: int = 16) -> MetricReport:
    check_eval_set(dataset)
    images = [(image_id, pixels) for image_id, (pixels, _, _) in enumerate(dataset)]
    detections = [detect_batch(model, backbone, images[lo:lo + batch], score_source,
                               view_size=view_size)
                  for lo in range(0, len(images), batch)]
    return evaluate_detections(np.concatenate(detections),
                               [(boxes, labels) for _, boxes, labels in dataset],
                               n_classes)


# -- attention export ---------------------------------------------------------------------


def write_pgm(path: str, gray: np.ndarray) -> None:
    h, w = gray.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(gray.astype(np.uint8).tobytes())


def export_attention(model: Detr, backbone: FrozenBackbone, pixels: np.ndarray,
                     out_dir: str) -> list[str]:
    """Final-decoder-layer cross-attention per query as 8-bit PGM maps, plus
    a sidecar listing predicted boxes and match scores; the image is resized
    to the model's `view.size` square first."""
    os.makedirs(out_dir, exist_ok=True)
    pixels = resize_to_view(pixels, model.cfg.view_size)
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
        path = os.path.join(out_dir, f"query_{qi:03d}.pgm")
        write_pgm(path, gray)
        paths.append(path)
    sidecar = os.path.join(out_dir, "query_boxes.txt")
    with open(sidecar, "w", encoding="ascii") as f:
        for qi in range(boxes.data.shape[1]):
            cx, cy, w, bh = (float(v) for v in boxes.data[0, qi])
            f.write(f"{qi} {cx:.6f} {cy:.6f} {w:.6f} {bh:.6f} "
                    f"{float(match.data[0, qi, 0]):.6f}\n")
    paths.append(sidecar)
    return paths
