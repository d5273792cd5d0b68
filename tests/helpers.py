"""Shared test oracles.

These deliberately avoid the library's own computation paths: gradients come
from central finite differences, box overlaps from grid-cell counting, and
RoIAlign references from dense sampling. Oracles run in float64. The one
exception is the attention reference, which composes the library's generic
primitives (themselves gradient-checked) so that the fused attention
primitive can be held to their exact bits.
"""

import math

import numpy as np

from mvdetr import tensor as T
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
    attn = T.softmax(logits * (1.0 / math.sqrt(dk)), axis=-1)
    mixed = T.matmul(attn, split(v, lk))
    return T.reshape(T.transpose(mixed, (0, 2, 1, 3)), (b, nq, c)), attn


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
