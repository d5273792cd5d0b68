"""Bipartite matching and the pretraining/finetuning loss terms.

Matching runs on detached prediction values (the assignment is an argmin and
carries no gradient): `hungarian` gives each target's prediction column as a
tuple, and `matched_rows` flattens a batch of them to row indices. The
box/semantic/match losses are built from tape primitives on those rows of a
whole batch, one row per (item, query). Costs combine a match-score term, a
generalized-IoU term, and an L1 term with coefficients (1, 2, 5); the same
(2, 5) pair weights the GIoU/L1 parts of the box regression loss. The lambda
weights are applied where the terms are summed, in `training.pretrain_step`.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .geometry import cxcywh_to_xyxy_array, pairwise_iou
from .tensor import Tensor

MATCH_COEF = (1.0, 2.0, 5.0)  # match-score, giou, l1
K_CLAMP = 1e-7


# -- Hungarian matching ------------------------------------------------------------


def _solve_lap(cost: np.ndarray) -> tuple[list[int], float, list[float], list[float]]:
    """Shortest-augmenting-path assignment for an m x n matrix, m <= n.

    Returns (column of each row, total cost, row potentials u, column
    potentials v). The potentials are an optimal dual certificate:
    cost[i][j] >= u[i] + v[j] everywhere with equality on matched cells, and
    v <= 0 with v[j] == 0 on every unmatched column. Potentials-based
    O(m n^2), run over plain lists: the matrices here are about 10 x 10, where
    a numpy call per inner step costs more than the arithmetic it does.
    """
    m, n = cost.shape
    rows = cost.tolist()
    inf = math.inf
    u = [0.0] * (m + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)  # p[j]: row matched to column j (1-based)
    for i in range(1, m + 1):
        p[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        way = [0] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            row, ui = rows[i0 - 1], u[i0]
            delta, j1 = inf, 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                reduced = row[j - 1] - ui - v[j]
                if reduced < minv[j]:
                    minv[j] = reduced
                    way[j] = j0
                if minv[j] < delta:
                    delta, j1 = minv[j], j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    cols = [0] * m
    for j in range(1, n + 1):
        if p[j]:
            cols[p[j] - 1] = j - 1
    total = float(cost[np.arange(m), cols].sum())
    return cols, total, u[1:], v[1:]


def hungarian(cost_matrix) -> tuple[int, ...]:
    """Minimum-cost injective assignment of rows (targets) to columns: the
    prediction column of each target row, in row order.

    Requires m <= n (pad predictions, never targets). Among cost-optimal
    assignments, returns the lexicographically smallest vector
    (sigma(0), sigma(1), ...), so tie-breaking is deterministic across
    platforms.

    One `_solve_lap` call gives an optimal assignment and optimal duals
    (u, v). A cell is tight when cost - u - v <= tol, with
    tol = 1e-9 (1 + |optimal total|). By complementary slackness an
    assignment is optimal exactly when each of its cells is tight and it
    covers every column with v < 0; n - m zero-cost dummy rows with u = 0,
    tight exactly on the columns with v = 0 (within tol), turn that into a
    perfect matching on the square tight graph. The tie-break walks the rows
    in order, keeping one such perfect matching that agrees with the columns
    already fixed: row i can only improve on its current column c with a
    tight, unfixed column j < c, and it takes the first j for which an
    alternating path over rows > i moves j's owner onto the freed c. A row
    with no such j keeps c unchecked. So tol bounds the slack of every cell
    of the returned assignment, not the gap of its summed cost.
    """
    cost = np.asarray(cost_matrix, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost matrix must be 2-d, got shape {cost.shape}")
    m, n = cost.shape
    if m > n:
        raise ValueError(f"more targets ({m}) than predictions ({n})")
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix contains non-finite entries")
    if m == 0:
        return ()
    base_cols, best, u, v = _solve_lap(cost)
    tol = 1e-9 * (1.0 + abs(best))
    # tight columns of each row, ascending; the n - m dummy rows share one list
    tight = [[j for j, (cij, vj) in enumerate(zip(row, v)) if cij - ui - vj <= tol]
             for row, ui in zip(cost.tolist(), u)]
    dummy_tight = [j for j, vj in enumerate(v) if -vj <= tol]
    tight.extend([dummy_tight] * (n - m))
    matched = set(base_cols)
    col_of = base_cols + [j for j in range(n) if j not in matched]
    owner = [0] * n
    for r, j in enumerate(col_of):
        owner[j] = r

    for i in range(m):
        c = col_of[i]
        for j in tight[i]:
            if j >= c:
                break
            r = owner[j]
            if r < i:  # fixed by an earlier row
                continue
            # breadth-first search from r for an alternating path to c over
            # rows > i; via[y] is the row that moves onto column y
            via = {j: i}
            queue = [r]
            for x in queue:
                for y in tight[x]:
                    if y not in via and owner[y] >= i:
                        via[y] = x
                        queue.append(owner[y])
                if c in via:
                    break
            if c not in via:
                continue
            y = c
            while y != j:
                x = via[y]
                col_of[x], y = y, col_of[x]
                owner[col_of[x]] = x
            col_of[i] = j
            owner[j] = i
            break
    return tuple(col_of[:m])


def matched_rows(costs, n_pred: int) -> np.ndarray:
    """Hungarian-match each item's (m_i, n_pred) cost matrix; return the flat
    prediction row (item * n_pred + column) of every target as a (k,) int64
    array, item after item and target after target within an item.

    Every target is matched, so row k pairs with the k-th row of the items'
    targets concatenated in order.
    """
    rows = [i * n_pred + np.asarray(hungarian(cost), dtype=np.int64)
            for i, cost in enumerate(costs)]
    return np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)


# -- box math on arrays (matching costs; gradient-free) -------------------------------


def giou_matrix(a_xyxy: np.ndarray, b_xyxy: np.ndarray) -> np.ndarray:
    """Pairwise GIoU, (m, 4) x (n, 4) -> (m, n)."""
    iou, union = pairwise_iou(a_xyxy, b_xyxy)
    lt_h = np.minimum(a_xyxy[:, None, :2], b_xyxy[None, :, :2])
    rb_h = np.maximum(a_xyxy[:, None, 2:], b_xyxy[None, :, 2:])
    wh_h = np.clip(rb_h - lt_h, 0, None)
    hull = wh_h[..., 0] * wh_h[..., 1]
    return np.where(hull > 1e-9, iou - (hull - union) / np.maximum(hull, 1e-9), iou)


def matching_cost(pred_boxes: np.ndarray, pred_match: np.ndarray,
                  target_boxes: np.ndarray) -> np.ndarray:
    """(m, N) matching cost; boxes in normalized cxcywh.

    cost[i][j] = -c0 log k_j + c1 (1 - GIoU(pred_j, tgt_i)) + c2 |pred_j - tgt_i|_1
    with k clamped away from {0, 1}.
    """
    k = np.clip(pred_match.reshape(-1), K_CLAMP, 1.0 - K_CLAMP)
    return _box_cost(-MATCH_COEF[0] * np.log(k)[None, :], pred_boxes, target_boxes)


def _box_cost(score: np.ndarray, pred_boxes: np.ndarray,
              target_boxes: np.ndarray) -> np.ndarray:
    """score + c1 (1 - GIoU) + c2 L1 for every (target, prediction) pair."""
    giou = giou_matrix(cxcywh_to_xyxy_array(target_boxes),
                       cxcywh_to_xyxy_array(pred_boxes))
    l1 = np.abs(target_boxes[:, None, :] - pred_boxes[None, :, :]).sum(axis=-1)
    return score + MATCH_COEF[1] * (1.0 - giou) + MATCH_COEF[2] * l1


# -- differentiable loss pieces --------------------------------------------------------


def _boxes_to_xyxy_t(boxes: Tensor) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    cx, cy, w, h = (T.take(boxes, [k], 1) for k in range(4))
    half = Tensor(np.asarray(0.5, dtype=boxes.data.dtype))
    return (T.sub(cx, T.mul(w, half)), T.sub(cy, T.mul(h, half)),
            T.add(cx, T.mul(w, half)), T.add(cy, T.mul(h, half)))


def giou_pairs(pred_boxes: Tensor, target_boxes: np.ndarray) -> Tensor:
    """Rowwise GIoU between (k, 4) predictions and (k, 4) constant targets,
    both cxcywh; differentiable w.r.t. the predictions."""
    dt = pred_boxes.data.dtype
    px1, py1, px2, py2 = _boxes_to_xyxy_t(pred_boxes)
    t = cxcywh_to_xyxy_array(np.asarray(target_boxes, dtype=dt))
    tx1, ty1 = Tensor(t[:, 0:1]), Tensor(t[:, 1:2])
    tx2, ty2 = Tensor(t[:, 2:3]), Tensor(t[:, 3:4])
    iw = T.relu(T.sub(T.minimum(px2, tx2), T.maximum(px1, tx1)))
    ih = T.relu(T.sub(T.minimum(py2, ty2), T.maximum(py1, ty1)))
    inter = T.mul(iw, ih)
    area_p = T.mul(T.sub(px2, px1), T.sub(py2, py1))
    area_t = T.mul(T.sub(tx2, tx1), T.sub(ty2, ty1))
    eps = Tensor(np.asarray(1e-9, dtype=dt))
    union = T.add(T.sub(T.add(area_p, area_t), inter), eps)
    iou = T.div(inter, union)
    hw = T.sub(T.maximum(px2, tx2), T.minimum(px1, tx1))
    hh = T.sub(T.maximum(py2, ty2), T.minimum(py1, ty1))
    hull = T.add(T.mul(hw, hh), eps)
    giou = T.sub(iou, T.div(T.sub(hull, union), hull))
    return T.reshape(giou, (-1,))


def box_regression(pred_flat: Tensor, rows: np.ndarray, targets: np.ndarray) -> Tensor:
    """Mean over matched rows of 2 (1 - GIoU) + 5 |pred - tgt|_1.

    pred_flat is (R, 4) cxcywh; rows[t] is the row matched to targets[t].
    """
    if not len(rows):
        raise ValueError("box regression needs at least one matched pair")
    dt = pred_flat.data.dtype
    matched = T.take(pred_flat, rows, 0)
    tgt = np.asarray(targets, dtype=dt)
    giou = giou_pairs(matched, tgt)
    one = Tensor(np.ones_like(giou.data))
    giou_term = T.tmean(T.sub(one, giou))
    l1_term = T.tmean(T.tsum(T.absolute(T.sub(matched, Tensor(tgt))), axis=-1))
    return T.add(T.mul(giou_term, Tensor(np.asarray(MATCH_COEF[1], dtype=dt))),
                 T.mul(l1_term, Tensor(np.asarray(MATCH_COEF[2], dtype=dt))))


def match_bce(match: Tensor, targets: np.ndarray) -> Tensor:
    """Binary cross-entropy on the match head, mean over all queries.

    targets is (R, 1): 1 for matched queries, 0 for the rest; match holds the
    same R scores in any shape.
    """
    targets = np.asarray(targets, dtype=match.data.dtype)
    k = T.clamp(T.reshape(match, targets.shape), K_CLAMP, 1.0 - K_CLAMP)
    t = Tensor(targets)
    ones = Tensor(np.ones_like(targets))
    ce = T.sub(Tensor(np.zeros_like(targets)),
               T.add(T.mul(t, T.log(k)), T.mul(T.sub(ones, t), T.log(T.sub(ones, k)))))
    return T.tmean(ce)


def global_disc_loss(project_fn, pooled1: Tensor, pooled2: Tensor) -> Tensor:
    """Symmetric negative cosine between projected and detached pooled contexts.

    project_fn is applied to the live branch only; the target branch is
    detached, so no gradient reaches it.
    """
    a = T.tmean(T.cosine(project_fn(pooled1), pooled2.detach()))
    b = T.tmean(T.cosine(project_fn(pooled2), pooled1.detach()))
    return T.sub(Tensor(np.zeros((), dtype=pooled1.data.dtype)), T.add(a, b))


def region_disc(sem_flat: Tensor, rows: np.ndarray, target_features: np.ndarray) -> Tensor:
    """Normalized-L2 reconstruction of region features over matched rows.

    D(a, b) = |a/|a| - b/|b||^2 = 2 - 2 cos(a, b), averaged over pairs;
    rows[t] is the row of sem_flat matched to target_features[t]. Targets
    come from the frozen backbone and carry no gradient.
    """
    if not len(rows):
        raise ValueError("region discrimination needs at least one matched pair")
    dt = sem_flat.data.dtype
    matched = T.take(sem_flat, rows, 0)
    tgt = np.asarray(target_features, dtype=np.float64)
    norms = np.linalg.norm(tgt, axis=-1, keepdims=True)
    if (norms <= 1e-12).any():
        raise ValueError("zero-norm region feature target")
    tgt_unit = Tensor((tgt / norms).astype(dt))
    diff = T.sub(T.l2_normalize(matched), tgt_unit)
    return T.tmean(T.tsum(T.mul(diff, diff), axis=-1))


# -- finetuning set-prediction loss ------------------------------------------------------


def finetune_matching_cost(pred_boxes: np.ndarray, class_probs: np.ndarray,
                           target_boxes: np.ndarray, target_labels: np.ndarray
                           ) -> np.ndarray:
    """Finetuning cost: the probability of the true class stands in for the
    match score."""
    p_true = np.clip(class_probs[:, target_labels].T, K_CLAMP, 1.0)  # (m, N)
    return _box_cost(-MATCH_COEF[0] * np.log(p_true), pred_boxes, target_boxes)


NO_OBJECT_WEIGHT = 0.1


def set_loss(logits: Tensor, boxes: Tensor,
             targets: list[tuple[np.ndarray, np.ndarray]]) -> Tensor:
    """DETR-style set prediction loss over a batch of labeled images.

    logits is (B, N, K+1) with the no-object class last, boxes (B, N, 4)
    cxcywh, and targets[i] the (boxes, labels) of image i. Each image is
    matched on its own; cross-entropy then averages over all B*N queries
    (matched -> true class, unmatched -> no-object down-weighted by
    NO_OBJECT_WEIGHT), and GIoU/L1 regression averages over all matched
    pairs in the batch.
    """
    b, n_q, width = logits.data.shape  # width: the K classes, then no-object
    dt = logits.data.dtype
    probs = T.softmax(T.reshape(logits, (b * n_q, width)))
    probs_np = probs.data.reshape(b, n_q, width)
    tgt_boxes, tgt_labels = zip(*targets)
    rows = matched_rows([finetune_matching_cost(boxes.data[i], probs_np[i], tb, tl)
                         for i, (tb, tl) in enumerate(targets)], n_q)
    classes = np.full(b * n_q, width - 1, dtype=np.int64)
    classes[rows] = np.concatenate(tgt_labels)
    weights = np.full(b * n_q, NO_OBJECT_WEIGHT, dtype=dt)
    weights[rows] = 1.0

    onehot = np.zeros((b * n_q, width), dtype=dt)
    onehot[np.arange(b * n_q), classes] = 1.0
    logp = T.log(T.clamp(probs, 1e-9, 1.0))
    per_query = T.sub(Tensor(np.zeros(b * n_q, dtype=dt)),
                      T.tsum(T.mul(logp, Tensor(onehot)), axis=-1))
    total = T.tmean(T.mul(per_query, Tensor(weights)))
    if len(rows):
        total = T.add(total, box_regression(T.reshape(boxes, (b * n_q, 4)), rows,
                                            np.concatenate(tgt_boxes)))
    return total
