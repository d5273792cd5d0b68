"""Shared test oracles.

These deliberately avoid the library's own computation paths: gradients come
from central finite differences, box overlaps from grid-cell counting (with
a closed-form GIoU checked against it), and RoIAlign references from dense
sampling. Oracles run in float64. Several are held to exact bits
instead: the attention reference composes the library's generic primitives
(themselves gradient-checked), the backbone reference runs each float32
conv layer as one GEMM over the whole batch, the resample reference applies
every box's dense tap matrices as two matmuls, the RoIAlign tap reference
averages its sampled reads on the bin grid, the edge-contrast reference
takes the Sobel map of the whole image, the AP/AR reference scores
each (detection, ground truth) pair with `scalar_iou` at every match,
the random-stream references (`scalar_normal`, `scalar_proposals`,
`scalar_jitter_box`) make one draw at a time where the library draws a
block, and `scalar_map_box` maps one box where the library maps a set.
`same_bits` compares those against the library's box arrays by value and
sign of zero. `PerTensorAdamW` and `per_tensor_clip` update and clip one
parameter at a time where the library works on flat buffers, and
`var_normalize` takes normalization statistics with `np.var` where the
library forms x - mean once. `serial_pretrain` is the pretraining loop in
one process, each batch's view pairs built right before its step, where
`run_pretrain` has a forked producer build them a batch ahead;
`serial_evaluate` is the eval loop in one process, each batch resized and
through the backbone right before its decode, where `evaluate_model` has the
same producer build them a batch ahead. `producer_pids` and `assert_reaped`
check that every producer forked is reaped. The one-box oracles take and
return `Box` records, plain 4-tuples that share no code with the library's
(4,) xyxy rows.
"""

import csv
import math
import os
from collections import namedtuple

import numpy as np
import pytest

from mvdetr import metrics as M
from mvdetr import prefetch
from mvdetr import tensor as T
from mvdetr import training as TR
from mvdetr.backbone import FrozenBackbone
from mvdetr.checkpoint import load_checkpoint, save_checkpoint
from mvdetr.geometry import bilinear_taps
from mvdetr.metrics import IOU_GRID, RECALL_GRID
from mvdetr.optim import BETAS, EPS, AdamW
from mvdetr.rng import Rng, derive_seed
from mvdetr.tensor import Tensor
from mvdetr.views import _LUMA, build_view_pair, sobel_magnitude


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
    attn = T.softmax(T.mul(logits, scale))
    mixed = T.matmul(attn, split(v, lk))
    return T.reshape(T.transpose(mixed, (0, 2, 1, 3)), (b, nq, c)), attn


class PerTensorAdamW:
    """AdamW as one update per parameter: each step rebinds every parameter's
    data and both of its moments to fresh arrays."""

    def __init__(self, params, lr, weight_decay):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in self.params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in self.params.items()}

    def step(self):
        self.t += 1
        b1, b2 = BETAS
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if self.weight_decay:
                p.data = p.data - self.lr * self.weight_decay * p.data
            self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            self.v[name] = b2 * self.v[name] + (1.0 - b2) * (g * g)
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + EPS)


def serial_pretrain(cfg, images, out_dir, resume_from=None):
    """`run_pretrain` into a fresh directory, every batch in this process:
    shuffle, build the batch's view pairs, `pretrain_step` on them, and at
    each epoch's end a checkpoint. Returns the last checkpoint's path."""
    backbone = FrozenBackbone(cfg.backbone_seed)
    model = TR.make_model(cfg, backbone)
    optimizer = AdamW(model.params, lr=cfg.train_lr, weight_decay=cfg.train_weight_decay)
    start_epoch = 0
    if resume_from is not None:
        params, opt_state, meta = TR.split_checkpoint(load_checkpoint(resume_from))
        model.load_state(params)
        optimizer.load_state(opt_state)
        start_epoch = int(meta["epoch"][0])
    os.makedirs(out_dir)
    batch = cfg.train_batch_size
    step = start_epoch * (len(images) // batch)
    path = resume_from
    with open(os.path.join(out_dir, "metrics.csv"), "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(TR.CSV_COLUMNS)
        for epoch in range(start_epoch, cfg.train_epochs):
            optimizer.lr = TR.lr_at_epoch(cfg.train_lr, epoch, cfg.train_decay_epoch)
            order = list(range(len(images)))
            Rng(derive_seed(cfg.seed, 0xD5, epoch)).shuffle(order)
            for lo in range(0, len(order) - batch + 1, batch):
                pairs = [build_view_pair(images[i], cfg, derive_seed(cfg.seed, epoch, i))
                         for i in order[lo:lo + batch]]
                bd = TR.pretrain_step(model, backbone, optimizer, pairs, cfg)
                writer.writerow([step, epoch, TR._fmt(optimizer.lr), TR._fmt(bd.total),
                                 TR._fmt(bd.loc), TR._fmt(bd.global_disc),
                                 TR._fmt(bd.region_disc)])
                step += 1
            path = os.path.join(out_dir, f"epoch_{epoch + 1:04d}.ckpt")
            save_checkpoint(path, TR.checkpoint_entries(model, optimizer, cfg, epoch + 1))
    return path


def serial_evaluate(model, backbone, dataset, n_classes, score_source, *, view_size,
                    batch=16):
    """`evaluate_model` with every batch in this process: each batch's
    images resized, through the backbone and decoded in turn by
    `detect_batch`. Returns (report, the detection records)."""
    images = [(image_id, pixels) for image_id, (pixels, _, _) in enumerate(dataset)]
    detections = np.concatenate([
        M.detect_batch(model, backbone, images[lo:lo + batch], score_source,
                       view_size=view_size)
        for lo in range(0, len(images), batch)])
    truth = [(boxes, labels) for _, boxes, labels in dataset]
    return M.evaluate_detections(detections, truth, n_classes), detections


def producer_pids(monkeypatch, cpus=2) -> list[int]:
    """Record the pid of every batch producer `run_pretrain` or
    `evaluate_model` forks, in a process that may run on `cpus` CPUs."""
    pids = []

    class Recorded(prefetch.Producer):
        def __init__(self, *args):
            super().__init__(*args)
            pids.append(self.pid)

    monkeypatch.setattr(prefetch, "Producer", Recorded)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):  # no longer a child of this process
            os.waitpid(pid, os.WNOHANG)


def per_tensor_clip(params, max_norm):
    """Global-norm clipping with one float64 square-and-sum per gradient."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = np.float32(max_norm / (norm + 1e-12))
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


def var_normalize(x, scale, shift, g, axis):
    """Normalization along axis with `np.var` statistics, then the per-feature
    scale and shift, on numpy arrays: returns the output and the x, scale and
    shift gradients for the output gradient g."""
    mu = x.mean(axis=axis, keepdims=True)
    var = x.var(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + T.NORM_EPS)
    xhat = (x - mu) * inv
    out = xhat * scale + shift
    g_shift = g.reshape(-1, g.shape[-1]).sum(axis=0)
    g_scale = (g * xhat).reshape(-1, g.shape[-1]).sum(axis=0)
    gh = g * scale
    m1 = gh.mean(axis=axis, keepdims=True)
    m2 = (gh * xhat).mean(axis=axis, keepdims=True)
    return out, (gh - m1 - xhat * m2) * inv, g_scale, g_shift


def unblocked_extract(backbone, batch):
    """Backbone reference: each conv layer as one im2col GEMM over the whole
    batch, `cols @ w` then ReLU, with no blocking and no in-place steps.

    The 3x3 stride-2 windows are gathered by slicing the padded input, in the
    (dy, dx, channel) column order of the backbone's weights.
    """
    x = batch.astype(np.float32)
    for w in backbone.weights:
        n, h, wd, cin = x.shape
        ho, wo = (h + 1) // 2, (wd + 1) // 2
        padded = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        cols = np.stack([padded[:, dy:dy + 2 * ho:2, dx:dx + 2 * wo:2]
                         for dy in range(3) for dx in range(3)], axis=3)
        out = cols.reshape(n * ho * wo, 9 * cin) @ w
        x = np.maximum(out, 0.0).reshape(n, ho, wo, w.shape[1])
    return x


def dense_resample(source, boxes, out_hw):
    """`geometry.resample` reference: Ay . F . Axᵀ of every box with the
    dense tap matrices, one 2-D matmul for y over all boxes, then one
    stacked matmul for x."""
    H, W, C = source.shape
    ay, ax = bilinear_taps(boxes, H, W, out_hw)
    n, out_h = ay.shape[:2]
    rows = (ay.reshape(n * out_h, H) @ source.reshape(H, W * C)).reshape(n, out_h, W, C)
    return np.matmul(ax[:, None], rows)


def sampled_taps(lo, extent, n_out, size, sampling, dtype):
    """`roi_align` tap reference, (n, n_out, size) along one axis: row o of
    box k averages `sampling` reads at o + (i + 0.5) / sampling of bin o of
    [lo[k], lo[k] + extent[k]), half-pixel aligned and clamped to the border,
    computed on the bin grid itself rather than on a finer grid."""
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
    return taps.reshape(n, n_out, sampling, size).mean(axis=2, dtype=dtype)


def full_image_edge_contrast(pixels, boxes):
    """`views._edge_contrast` reference: the same integral-image scores, from
    the Sobel map of the whole image."""
    mag = sobel_magnitude(pixels @ _LUMA).astype(np.float64)
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


class Box(namedtuple("Box", "x1 y1 x2 y2")):
    """A test-only (x1, y1, x2, y2) box record with its sides and area in
    Python floats, for the one-box-at-a-time oracles."""
    __slots__ = ()

    @property
    def width(self):
        return self.x2 - self.x1

    @property
    def height(self):
        return self.y2 - self.y1

    @property
    def area(self):
        return self.width * self.height

    def center(self):
        return (0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2))


def scalar_iou(a, b):
    """IoU of two (x1, y1, x2, y2) 4-tuples, one Python float operation at a
    time; 0 when the union is at most 1e-9."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    ix = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    iy = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = ix * iy
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    if union <= 1e-9:
        return 0.0
    return inter / union


def box_giou(a, b):
    """GIoU oracle in closed form for two `Box` records: IoU minus the share of the
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


_Det = namedtuple("_Det", "image box label score")
_Gt = namedtuple("_Gt", "image box label")


def _per_pair_lists(detections, ground_truth):
    """The scorer's inputs one box at a time: a `DETECTION` record array and
    per-image (boxes, labels) as lists of records holding a `Box` each."""
    dets = [_Det(int(d["image"]), Box(*d["box"].tolist()), int(d["label"]),
                 float(d["score"])) for d in detections]
    gts = [_Gt(image, Box(*box), label)
           for image, (boxes, labels) in enumerate(ground_truth)
           for box, label in zip(np.asarray(boxes).tolist(), np.asarray(labels).tolist())]
    return dets, gts


def per_pair_greedy_match(dets, gts, iou_threshold):
    """Matching oracle: true-positive flags for detections already sorted by
    rank, scoring each (detection, ground truth) pair of an image with
    `scalar_iou` at every call. Each detection takes the untaken box of its
    image with the highest IoU at or above the threshold (first on ties)."""
    by_image = {}
    for gi, gt in enumerate(gts):
        by_image.setdefault(gt.image, []).append(gi)
    taken = [False] * len(gts)
    flags = []
    for det in dets:
        best_iou, best_gi = 0.0, -1
        for gi in by_image.get(det.image, ()):
            if taken[gi]:
                continue
            iou = scalar_iou(det.box, gts[gi].box)
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
                                    key=lambda i: (-dets[i].score, i))]


def _average_precision(dets, gts, iou_threshold):
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


def per_pair_average_precision(detections, ground_truth, iou_threshold):
    """AP oracle, class-blind: 101-point interpolation over the per-pair
    matching, one `searchsorted` per recall grid point."""
    return _average_precision(*_per_pair_lists(detections, ground_truth), iou_threshold)


def _average_recall_at_k(dets, gts, k):
    if not gts:
        return 1.0 if not dets else 0.0
    per_image = {}
    for det in _per_pair_ranked(dets):
        bucket = per_image.setdefault(det.image, [])
        if len(bucket) < k:
            bucket.append(det)
    kept = _per_pair_ranked([d for bucket in per_image.values() for d in bucket])
    total = 0.0
    for thr in IOU_GRID:
        total += sum(per_pair_greedy_match(kept, gts, thr)) / len(gts)
    return total / len(IOU_GRID)


def per_pair_average_recall_at_k(detections, ground_truth, k):
    """AR@k oracle: per-pair matching of the top-k detections per image."""
    return _average_recall_at_k(*_per_pair_lists(detections, ground_truth), k)


def per_pair_report(detections, ground_truth, n_classes):
    """(ap, ap50, ap75, ar1, ar10) oracle: per-class AP calls on filtered
    lists, class-agnostic AR."""
    dets, gts = _per_pair_lists(detections, ground_truth)
    ap_per_thr = {thr: [] for thr in IOU_GRID}
    for cls in range(n_classes):
        cls_gt = [g for g in gts if g.label == cls]
        if not cls_gt:
            continue
        cls_det = [d for d in dets if d.label == cls]
        for thr in IOU_GRID:
            ap_per_thr[thr].append(_average_precision(cls_det, cls_gt, thr))
    means = {thr: (float(np.mean(v)) if v else 0.0) for thr, v in ap_per_thr.items()}
    return (float(np.mean(list(means.values()))), means[0.5], means[0.75],
            _average_recall_at_k(dets, gts, 1), _average_recall_at_k(dets, gts, 10))


def scalar_normal(rng, mean=0.0, std=1.0):
    """One Box-Muller normal from an `Rng`, the draw `Rng.normals` makes in
    blocks: each pair of uniforms returns mean + std·r·cos θ and keeps r·sin θ
    as the generator's spare, which the next draw returns first."""
    if rng._spare_normal is not None:
        z = rng._spare_normal
        rng._spare_normal = None
        return mean + std * z
    u1 = 1.0 - rng.uniform()  # strictly positive
    u2 = rng.uniform()
    r = math.sqrt(-2.0 * math.log(u1))
    rng._spare_normal = r * math.sin(2.0 * math.pi * u2)
    return mean + std * r * math.cos(2.0 * math.pi * u2)


def scalar_proposals(pixels, overlap, mode, count, rng, min_side=8.0):
    """`views.generate_proposals` one candidate at a time: four `uniform`
    calls per box, integral-image sums per box, then a sort on
    (-contrast, draw index)."""
    def random_boxes(k):
        boxes = []
        for _ in range(k):
            x1 = rng.uniform(overlap.x1, overlap.x2 - min_side)
            y1 = rng.uniform(overlap.y1, overlap.y2 - min_side)
            w = rng.uniform(min_side, overlap.x2 - x1)
            h = rng.uniform(min_side, overlap.y2 - y1)
            boxes.append(Box(x1, y1, x1 + w, y1 + h))
        return boxes

    if mode == "random":
        return random_boxes(count)
    candidates = random_boxes(4 * count)
    mag = sobel_magnitude(pixels @ _LUMA).astype(np.float64)
    ii = np.zeros((mag.shape[0] + 1, mag.shape[1] + 1))
    ii[1:, 1:] = mag.cumsum(0).cumsum(1)

    def box_sum(x1, y1, x2, y2):
        x1, y1 = max(0, int(math.floor(x1))), max(0, int(math.floor(y1)))
        x2 = min(mag.shape[1], int(math.ceil(x2)))
        y2 = min(mag.shape[0], int(math.ceil(y2)))
        if x2 <= x1 or y2 <= y1:
            return 0.0, 0
        return float(ii[y2, x2] - ii[y1, x2] - ii[y2, x1] + ii[y1, x1]), \
            (x2 - x1) * (y2 - y1)

    scored = []
    for idx, b in enumerate(candidates):
        sx, sy = 0.25 * b.width, 0.25 * b.height
        total, n_total = box_sum(b.x1, b.y1, b.x2, b.y2)
        interior, n_in = box_sum(b.x1 + sx, b.y1 + sy, b.x2 - sx, b.y2 - sy)
        ring, n_ring = total - interior, n_total - n_in
        mean_in = interior / n_in if n_in else 0.0
        mean_ring = ring / n_ring if n_ring else 0.0
        scored.append((-(mean_in - mean_ring), idx, b))
    scored.sort(key=lambda t: (t[0], t[1]))
    return [b for _, _, b in scored[:count]]


def scalar_jitter_box(box, amount, rng, frame_w, frame_h):
    """One box of `views._jitter_boxes`, from four `uniform` calls."""
    dcx = rng.uniform(-amount, amount) * box.width
    dcy = rng.uniform(-amount, amount) * box.height
    fw = rng.uniform(1.0 - amount, 1.0 + amount)
    fh = rng.uniform(1.0 - amount, 1.0 + amount)
    cx, cy = box.center()
    cx, cy = cx + dcx, cy + dcy
    w, h = box.width * fw, box.height * fh
    x1 = min(max(0.0, cx - w / 2), frame_w - 2.0)
    y1 = min(max(0.0, cy - h / 2), frame_h - 2.0)
    x2 = max(min(frame_w, cx + w / 2), x1 + 2.0)
    y2 = max(min(frame_h, cy + h / 2), y1 + 2.0)
    return Box(x1, y1, x2, y2)


def scalar_map_box(box, rect, flip, size):
    """`geometry.map_boxes` one `Box` at a time: each corner through
    x' = sx (x - rect.x1) (mirrored as size - x' when flipped),
    y' = sy (y - rect.y1), with (sx, sy) = size / (rect.width, rect.height),
    then ordered and clamped to the size-square view with Python's `min` and
    `max`. Raises ValueError when nothing of the box is left."""
    sx, sy = size / rect.width, size / rect.height

    def point(x, y):
        xo = sx * (x - rect.x1)
        if flip:
            xo = size - xo
        return xo, sy * (y - rect.y1)

    xa, ya = point(box.x1, box.y1)
    xb, yb = point(box.x2, box.y2)
    x1, x2 = (xa, xb) if xa <= xb else (xb, xa)
    y1, y2 = (ya, yb) if ya <= yb else (yb, ya)
    cx1, cy1 = max(0.0, x1), max(0.0, y1)
    cx2, cy2 = min(size, x2), min(size, y2)
    if cx2 <= cx1 or cy2 <= cy1:
        raise ValueError(f"box {box} maps outside the {size}x{size} view")
    return Box(cx1, cy1, cx2, cy2)


def same_bits(got, want):
    """Equal float64 values with equal signs of zero (an int corner counts as
    its float value)."""
    got, want = np.asarray(got, np.float64), np.asarray(want, np.float64)
    return got.shape == want.shape and got.tobytes() == want.tobytes()
