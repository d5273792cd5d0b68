"""Shared test oracles.

These deliberately avoid the library's own computation paths: gradients come
from central finite differences, box overlaps from grid-cell counting (with
a closed-form GIoU checked against it), and RoIAlign references from dense
sampling. Oracles run in float64. Three exceptions are held to exact bits
instead: the attention reference composes the library's generic primitives
(themselves gradient-checked), the backbone reference runs each float32
conv layer as one GEMM over the whole batch, and the AP/AR reference scores
each (detection, ground truth) pair with `geometry.box_iou` at every match.
"""

import math

import numpy as np

from mvdetr import tensor as T
from mvdetr.geometry import box_iou
from mvdetr.metrics import IOU_GRID, RECALL_GRID
from mvdetr.tensor import Tensor


def numerical_gradient(fn, arrays, h=1e-3):
    """Central-difference gradients of a scalar function of numpy arrays.

    fn receives float64 copies of `arrays` and returns a python float.
    """
    grads = []
    base = [np.asarray(a, dtype=np.float64).copy() for a in arrays]
    for k, arr in enumerate(base):
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = fn(base)
            flat[i] = orig - h
            fm = fn(base)
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def gradcheck(build_loss, shapes, rng, n_trials=20, h=1e-3, tol=1e-3,
              avoid_zero=False):
    """Compare tape gradients against finite differences on random inputs.

    build_loss maps a list of Tensors (one per shape) to a scalar Tensor.
    All arithmetic runs in float64 so the tolerance reflects the backward
    rules, not rounding noise. avoid_zero nudges draws off |x| < 0.05, where
    central differences straddle the kink of abs/relu-style primitives.
    """
    for _ in range(n_trials):
        arrays = [rng.standard_normal(s).astype(np.float64) for s in shapes]
        if avoid_zero:
            arrays = [a + np.where(np.abs(a) < 0.05, np.sign(a) * 0.1 + 0.01, 0.0)
                      for a in arrays]
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        loss = build_loss(leaves)
        loss.backward()
        analytic = [leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
                    for leaf in leaves]

        def scalar_fn(arrs):
            ts = [Tensor(a.copy()) for a in arrs]
            return float(build_loss(ts).data.reshape(-1)[0])

        numeric = numerical_gradient(scalar_fn, arrays, h=h)
        for ga, gn in zip(analytic, numeric):
            denom = max(1e-6, float(np.abs(gn).max()), float(np.abs(ga).max()))
            err = float(np.abs(ga - gn).max()) / denom
            assert err < tol, f"gradient mismatch: rel err {err:.3e}"


def composed_attention(q: Tensor, k: Tensor, v: Tensor, heads: int):
    """Attention reference built from generic tape nodes (matmul, transpose, mul,
    softmax), as Detr.mha built it before the fused primitive.

    Returns the merged (B, Nq, C) output and the probability tensor.
    """
    b, nq, c = q.data.shape
    lk = k.data.shape[1]
    dk = c // heads

    def split(t, length):
        return T.transpose(T.reshape(t, (b, length, heads, dk)), (0, 2, 1, 3))

    logits = T.matmul(split(q, nq), T.transpose(split(k, lk), (0, 1, 3, 2)))
    scale = Tensor(np.asarray(1.0 / math.sqrt(dk), dtype=logits.data.dtype))
    attn = T.softmax(T.mul(logits, scale), axis=-1)
    mixed = T.matmul(attn, split(v, lk))
    return T.reshape(T.transpose(mixed, (0, 2, 1, 3)), (b, nq, c)), attn


def unblocked_extract(backbone, batch):
    """Backbone reference: each conv layer as one im2col GEMM over the whole
    batch, `cols @ w + b` then ReLU, with no blocking and no in-place steps.

    The 3x3 stride-2 windows are gathered by slicing the padded input, in the
    (dy, dx, channel) column order of the backbone's weights.
    """
    x = batch.astype(np.float32)
    for w, b in zip(backbone.weights, backbone.biases):
        n, h, wd, cin = x.shape
        ho, wo = (h + 1) // 2, (wd + 1) // 2
        padded = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        cols = np.stack([padded[:, dy:dy + 2 * ho:2, dx:dx + 2 * wo:2]
                         for dy in range(3) for dx in range(3)], axis=3)
        out = cols.reshape(n * ho * wo, 9 * cin) @ w + b
        x = np.maximum(out, 0.0).reshape(n, ho, wo, w.shape[1])
    return x


def grid_count_iou(a, b, cell=0.01):
    """IoU/GIoU oracle: count 0.01-px grid-cell centers inside each region.

    a, b are (x1, y1, x2, y2) tuples with coordinates that are multiples of
    `cell` (integer boxes in practice). Counting is done analytically per
    axis, which is exact for such boxes and identical to materializing the
    grid.
    """

    def centers_inside(lo, hi):
        # centers at cell*(i + 0.5); inside the half-open interval [lo, hi)
        first = int(np.ceil(lo / cell - 0.5 + 1e-9))
        last = int(np.floor(hi / cell - 0.5 - 1e-9))
        return max(0, last - first + 1)

    def box_count(box):
        return centers_inside(box[0], box[2]) * centers_inside(box[1], box[3])

    ix1, iy1 = max(a[0], b[0]), max(a[1], b[1])
    ix2, iy2 = min(a[2], b[2]), min(a[3], b[3])
    inter = 0
    if ix2 > ix1 and iy2 > iy1:
        inter = centers_inside(ix1, ix2) * centers_inside(iy1, iy2)
    area_a, area_b = box_count(a), box_count(b)
    union = area_a + area_b - inter
    iou = inter / union if union > 0 else 0.0
    hx1, hy1 = min(a[0], b[0]), min(a[1], b[1])
    hx2, hy2 = max(a[2], b[2]), max(a[3], b[3])
    hull = centers_inside(hx1, hx2) * centers_inside(hy1, hy2)
    giou = iou - (hull - union) / hull if hull > 0 else iou
    return iou, giou


def box_giou(a, b):
    """GIoU oracle in closed form for two BoxXYXY: IoU minus the share of the
    enclosing hull that the union leaves empty; degenerate unions give 0."""
    ix = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
    iy = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
    inter = ix * iy
    union = a.area + b.area - inter
    iou = inter / union if union > 1e-9 else 0.0
    hull = (max(a.x2, b.x2) - min(a.x1, b.x1)) * (max(a.y2, b.y2) - min(a.y1, b.y1))
    if hull <= 1e-9:
        return iou
    return iou - (hull - union) / hull


def dense_bilinear_average(feat, box, out_hw, samples_per_bin=100):
    """RoIAlign oracle: average a densely sampled bilinear interpolant per bin.

    feat is (H, W, C); box is (x1, y1, x2, y2) in feature-frame continuous
    coordinates; samples land at interior fractions (i + 0.5) / s of each bin.
    Sample coordinates use the half-pixel convention (cell centers at i +.5)
    and clamp to the border.
    """
    H, W, C = feat.shape
    h_out, w_out = out_hw
    x1, y1, x2, y2 = box
    bin_w = (x2 - x1) / w_out
    bin_h = (y2 - y1) / h_out
    out = np.zeros((h_out, w_out, C), dtype=np.float64)
    fr = (np.arange(samples_per_bin) + 0.5) / samples_per_bin
    for by in range(h_out):
        ys = y1 + (by + fr) * bin_h
        for bx in range(w_out):
            xs = x1 + (bx + fr) * bin_w
            gy = np.clip(ys - 0.5, 0, H - 1)
            gx = np.clip(xs - 0.5, 0, W - 1)
            y0 = np.floor(gy).astype(int)
            x0 = np.floor(gx).astype(int)
            y1i = np.minimum(y0 + 1, H - 1)
            x1i = np.minimum(x0 + 1, W - 1)
            wy = (gy - y0)[:, None]
            wx = (gx - x0)[None, :]
            # bilinear blend, vectorized over the sample grid
            f00 = feat[np.ix_(y0, x0)]
            f01 = feat[np.ix_(y0, x1i)]
            f10 = feat[np.ix_(y1i, x0)]
            f11 = feat[np.ix_(y1i, x1i)]
            wy2 = wy[:, :, None]
            wx2 = wx[:, :, None]
            blend = (f00 * (1 - wy2) * (1 - wx2) + f01 * (1 - wy2) * wx2
                     + f10 * wy2 * (1 - wx2) + f11 * wy2 * wx2)
            out[by, bx] = blend.mean(axis=(0, 1))
    return out


def per_pair_greedy_match(dets, gts, iou_threshold):
    """Matching oracle: true-positive flags for detections already sorted by
    rank, scoring each (detection, ground truth) pair of an image with
    `box_iou` at every call. Each detection takes the untaken box of its
    image with the highest IoU at or above the threshold (first on ties)."""
    by_image = {}
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


def _per_pair_ranked(dets):
    return [dets[i] for i in sorted(range(len(dets)),
                                    key=lambda i: (-dets[i].confidence, i))]


def per_pair_average_precision(dets, gts, iou_threshold):
    """AP oracle: 101-point interpolation over the per-pair matching, one
    `searchsorted` per recall grid point."""
    if not gts:
        return 1.0 if not dets else 0.0
    if not dets:
        return 0.0
    flags = per_pair_greedy_match(_per_pair_ranked(dets), gts, iou_threshold)
    tp = np.cumsum(flags)
    fp = np.cumsum([not f for f in flags])
    recall = tp / len(gts)
    precision = tp / np.maximum(tp + fp, 1)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    for r in RECALL_GRID:
        idx = np.searchsorted(recall, r, side="left")
        ap += envelope[idx] if idx < len(envelope) else 0.0
    return float(ap / len(RECALL_GRID))


def per_pair_average_recall_at_k(dets, gts, k):
    """AR@k oracle: per-pair matching of the top-k detections per image."""
    if not gts:
        return 1.0 if not dets else 0.0
    per_image = {}
    for det in _per_pair_ranked(dets):
        bucket = per_image.setdefault(det.image_id, [])
        if len(bucket) < k:
            bucket.append(det)
    kept = _per_pair_ranked([d for bucket in per_image.values() for d in bucket])
    total = 0.0
    for thr in IOU_GRID:
        total += sum(per_pair_greedy_match(kept, gts, thr)) / len(gts)
    return total / len(IOU_GRID)


def per_pair_report(dets, gts, n_classes):
    """(ap, ap50, ap75, ar1, ar10) oracle: per-class AP calls on filtered
    lists, class-agnostic AR."""
    ap_per_thr = {thr: [] for thr in IOU_GRID}
    for cls in range(n_classes):
        cls_gt = [g for g in gts if g.class_id == cls]
        if not cls_gt:
            continue
        cls_det = [d for d in dets if d.class_id == cls]
        for thr in IOU_GRID:
            ap_per_thr[thr].append(per_pair_average_precision(cls_det, cls_gt, thr))
    means = {thr: (float(np.mean(v)) if v else 0.0) for thr, v in ap_per_thr.items()}
    return (float(np.mean(list(means.values()))), means[0.5], means[0.75],
            per_pair_average_recall_at_k(dets, gts, 1),
            per_pair_average_recall_at_k(dets, gts, 10))
