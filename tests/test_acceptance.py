"""Acceptance suite: one test per criterion, one PASS line printed each.

This module holds criteria 1-5 and 9. Criterion 4 (10,000 seeded view pairs,
about a minute on one core) dominates the runtime; run with
`pytest -s tests/test_acceptance.py` to watch progress.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

from mvdetr import losses as L
from mvdetr import tensor as T
from mvdetr import views as V
from mvdetr.backbone import FrozenBackbone
from mvdetr.checkpoint import load_checkpoint
from mvdetr.config import RunConfig, parse_config
from mvdetr.data import SceneSpec, render_scene
from mvdetr.geometry import pairwise_iou, roi_align
from mvdetr.metrics import evaluate_model
from mvdetr.model import Detr
from mvdetr.optim import AdamW
from mvdetr.rng import Rng, derive_seed
from mvdetr.tensor import Tensor
from mvdetr.training import (make_model, pretrain_step, run_finetune,
                             run_pretrain, split_checkpoint, labeled_item)

from helpers import (Box, box_giou, grid_count_iou, dense_bilinear_average, numerical_gradient,
                     scalar_iou)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}",
          flush=True)
    assert passed, f"criterion {criterion}: {detail}"


# -- criterion 1: gradient suite -------------------------------------------------------


def _primitive_cases():
    c = Tensor  # noqa: F841
    return [
        ("add", lambda ts: T.tsum(T.mul(T.add(ts[0], ts[1]), ts[2])),
         [(3, 4), (3, 4), (3, 4)], False),
        ("add_broadcast", lambda ts: T.tsum(T.mul(T.add(ts[0], ts[1]), ts[2])),
         [(3, 4), (4,), (3, 4)], False),
        ("sub", lambda ts: T.tsum(T.mul(T.sub(ts[0], ts[1]), ts[1])),
         [(2, 5), (2, 5)], False),
        ("mul", lambda ts: T.tsum(T.mul(ts[0], ts[1])), [(4, 3), (4, 3)], False),
        ("div", lambda ts: T.tsum(T.div(ts[0], T.add(T.mul(ts[1], ts[1]),
                                                     Tensor(np.full((3,), 2.0))))),
         [(2, 3), (3,)], False),
        ("matmul", lambda ts: T.tsum(T.matmul(ts[0], ts[1])), [(3, 4), (4, 2)], False),
        ("matmul_batched", lambda ts: T.tsum(T.matmul(ts[0], ts[1])),
         [(2, 3, 4), (2, 4, 2)], False),
        ("affine", lambda ts: T.tsum(T.affine(ts[0], ts[1], ts[2])),
         [(5, 3), (3, 4), (4,)], False),
        ("relu", lambda ts: T.tsum(T.mul(T.relu(ts[0]), ts[1])),
         [(4, 4), (4, 4)], True),
        ("sigmoid", lambda ts: T.tsum(T.sigmoid(ts[0])), [(3, 3)], False),
        ("log", lambda ts: T.tsum(T.log(T.add(T.mul(ts[0], ts[0]),
                                              Tensor(np.full((3, 3), 1.5))))),
         [(3, 3)], False),
        ("abs", lambda ts: T.tsum(T.absolute(ts[0])), [(4, 3)], True),
        ("minmax", lambda ts: T.tsum(T.add(T.minimum(ts[0], ts[1]),
                                           T.maximum(ts[0], ts[1]))),
         [(5, 2), (5, 2)], False),
        ("clamp", lambda ts: T.tsum(T.clamp(ts[0], -0.5, 0.5)), [(6, 2)], False),
        ("softmax", lambda ts: T.tsum(T.mul(T.softmax(ts[0]), ts[1])),
         [(3, 5), (3, 5)], False),
        ("layer_norm", lambda ts: T.tsum(T.mul(T.layer_norm(ts[0], ts[1], ts[2]),
                                               ts[3])),
         [(4, 6), (6,), (6,), (4, 6)], False),
        ("batch_norm", lambda ts: T.tsum(T.mul(T.batch_norm_1d(ts[0], ts[1], ts[2]),
                                               ts[3])),
         [(5, 3), (3,), (3,), (5, 3)], False),
        ("reshape_transpose",
         lambda ts: T.tsum(T.mul(T.transpose(T.reshape(ts[0], (4, 3)), (1, 0)), ts[1])),
         [(2, 6), (3, 4)], False),
        ("take_rows", lambda ts: T.tsum(T.mul(T.take(ts[0], [2, 3, 0, 1], 0), ts[1])),
         [(4, 3), (4, 3)], False),
        ("take_columns",
         lambda ts: T.tsum(T.mul(T.mul(T.take(ts[0], [3], 1), T.take(ts[0], [1], 1)), ts[1])),
         [(3, 5), (3, 1)], False),
        ("mean", lambda ts: T.tsum(T.mul(T.tmean(ts[0], axis=0), ts[1])),
         [(4, 3), (3,)], False),
        ("l2_normalize", lambda ts: T.tsum(T.mul(T.l2_normalize(ts[0]), ts[1])),
         [(4, 5), (4, 5)], False),
        ("cosine", lambda ts: T.tsum(T.cosine(ts[0], ts[1])), [(3, 6), (3, 6)], False),
    ]


def _check_case(build, shapes, rng, avoid_zero, n_trials=20, h=1e-3, tol=1e-3):
    for _ in range(n_trials):
        arrays = [rng.standard_normal(s) for s in shapes]
        if avoid_zero:
            arrays = [a + np.where(np.abs(a) < 0.05, np.sign(a) * 0.11, 0.0)
                      for a in arrays]
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        build(leaves).backward()
        analytic = [lv.grad if lv.grad is not None else np.zeros_like(lv.data)
                    for lv in leaves]

        def f(arrs):
            return float(build([Tensor(a.copy()) for a in arrs]).data.reshape(-1)[0])

        numeric = numerical_gradient(f, arrays, h=h)
        for ga, gn in zip(analytic, numeric):
            denom = max(1e-6, float(np.abs(gn).max()), float(np.abs(ga).max()))
            if float(np.abs(ga - gn).max()) / denom >= tol:
                return False
    return True


def test_criterion_1_gradient_suite():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    ok = True
    for name, build, shapes, avoid in _primitive_cases():
        if not _check_case(build, shapes, rng, avoid):
            ok = False
            break

    # roi_align gradient (feature input)
    boxes = np.array([[0.4, 0.7, 3.1, 2.6], [1.0, 0.0, 4.0, 4.0]])
    ok = ok and _check_case(lambda ts: T.tsum(roi_align(ts[0], boxes, (2, 2))),
                            [(4, 5, 3)], rng, False)

    # tiny end-to-end model: 20 random instances; each instance checks a
    # rotating quarter of the parameter tensors (full coverage across runs),
    # h=1e-6 in float64 (see tests/test_model.py for the rationale and the
    # full-coverage variant)
    tiny = RunConfig(model_d_model=8, model_heads=2, model_enc_layers=1,
                     model_dec_layers=1, model_ffn_dim=8, view_n=2)
    model_probe = Detr(tiny, 8, seed=0, dtype=np.float64)
    names = list(model_probe.params)
    for trial in range(20):
        model = Detr(tiny, 8, seed=500 + trial, dtype=np.float64)
        h_in = rng.standard_normal((1, 2, 2, 8))
        z_in = rng.standard_normal((1, 2, 8))
        w_in = rng.standard_normal((1, 2, 4))

        def forward():
            ctx, hw = model.encode(Tensor(h_in))
            q_hat, _ = model.decode(ctx, hw, z=Tensor(z_in))
            b, s, k = model.predict(q_hat)
            return T.add(T.add(T.tsum(T.mul(b, Tensor(w_in))), T.tmean(s)), T.tsum(k))

        loss = forward()
        loss.backward()
        subset = [n for i, n in enumerate(names) if i % 4 == trial % 4]
        for n in subset:
            p = model.params[n]
            ga = p.grad.copy() if p.grad is not None else np.zeros_like(p.data)

            def f(arrs):
                p.data = arrs[0]
                return float(forward().data)

            gn = numerical_gradient(f, [p.data], h=1e-6)[0]
            denom = max(1e-6, float(np.abs(gn).max()), float(np.abs(ga).max()))
            if float(np.abs(ga - gn).max()) / denom >= 1e-3:
                ok = False
                break
        if not ok:
            break
    elapsed = time.time() - t0
    report(1, ok and elapsed < 60,
           f"primitive + end-to-end finite-difference checks in {elapsed:.1f}s")


# -- criterion 2: hungarian oracle ----------------------------------------------------


def test_criterion_2_hungarian_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2002)
    perms_cache: dict[tuple[int, int], np.ndarray] = {}
    ok = True
    for _ in range(1000):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(m, 8))
        cost = rng.uniform(0, 10, size=(m, n))
        key = (m, n)
        if key not in perms_cache:
            perms_cache[key] = np.array(list(itertools.permutations(range(n), m)),
                                        dtype=np.int64)
        perms = perms_cache[key]
        totals = cost[np.arange(m)[None, :], perms].sum(axis=1)
        oracle = float(totals.min())
        a = L.hungarian(cost)
        got = float(cost[np.arange(m), list(a)].sum())
        if abs(got - oracle) > 1e-9:
            ok = False
            break
        if L.hungarian(cost) != a:
            ok = False
            break
    # deterministic lexicographic ties
    for _ in range(100):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(m, 7))
        cost = rng.integers(0, 3, size=(m, n)).astype(float)
        a = L.hungarian(cost)
        perms = np.array(list(itertools.permutations(range(n), m)), dtype=np.int64)
        totals = cost[np.arange(m)[None, :], perms].sum(axis=1)
        best = totals.min()
        optimal = perms[totals <= best + 1e-12]
        lex = min(map(tuple, optimal.tolist()))
        if a != lex:
            ok = False
            break
    elapsed = time.time() - t0
    report(2, ok and elapsed < 10,
           f"1000 random + 100 tie-heavy matrices vs brute force in {elapsed:.1f}s")


# -- criterion 3: geometry oracle -----------------------------------------------------


def test_criterion_3_geometry_oracle():
    rng = np.random.default_rng(3003)

    def rand_box():
        x1 = int(rng.integers(0, 63))
        y1 = int(rng.integers(0, 63))
        return Box(x1, y1, int(rng.integers(x1 + 1, 64)), int(rng.integers(y1 + 1, 64)))

    def iou(a, b):
        return float(pairwise_iou(np.array([a], float), np.array([b], float))[0][0, 0])

    ok = True
    for _ in range(1000):
        a, b = rand_box(), rand_box()
        iou_o, giou_o = grid_count_iou(a, b)
        if abs(iou(a, b) - iou_o) > 2e-2 or abs(box_giou(a, b) - giou_o) > 2e-2:
            ok = False
            break
    for _ in range(10_000):
        a, b = rand_box(), rand_box()
        if box_giou(a, b) > iou(a, b) + 1e-6:
            ok = False
            break

    # RoIAlign vs the dense-bilinear oracle on affine ramp fields (where the
    # 2x2-sample bin average equals the dense average analytically)
    ys, xs = np.mgrid[0:6, 0:7].astype(np.float64)
    for _ in range(20):
        coef = rng.uniform(-2, 2, 3)
        feat = (coef[0] + coef[1] * xs + coef[2] * ys)[:, :, None].repeat(2, axis=2)
        x1 = float(rng.uniform(0.5, 3.0))
        y1 = float(rng.uniform(0.5, 2.0))
        box = (x1, y1, x1 + float(rng.uniform(1.0, 3.0)), y1 + float(rng.uniform(1.0, 3.0)))
        out = roi_align(Tensor(feat.astype(np.float32)), np.array([box]), (2, 2))
        oracle = dense_bilinear_average(feat, box, (2, 2))
        scale = max(1.0, float(np.abs(oracle).max()))
        if np.abs(out.data[0] - oracle).max() > 1e-3 * scale:
            ok = False
            break
    report(3, ok, "IoU/GIoU vs 0.01-px grid count; GIoU <= IoU; RoIAlign vs dense oracle")


# -- criterion 4: view construction contract ------------------------------------------


def test_criterion_4_view_contract():
    spec = SceneSpec(image_size=160, seed=404)
    images = [render_scene(spec, i)[0] for i in range(20)]
    cfg = parse_config("view.tau=0.5\nview.n=10\nview.size=128\nview.jitter=0.1\n"
                       "proposals.mode=random\n")
    min_iou = 1.0
    ok = True
    for k in range(10_000):
        pair = V.build_view_pair(images[k % len(images)], cfg, seed=derive_seed(404, k))
        iou = scalar_iou(pair.rect1, pair.rect2)
        min_iou = min(min_iou, iou)
        x1, y1, x2, y2 = pair.base_rect
        ratio = (x2 - x1) * (y2 - y1) / (160.0 * 160.0)
        if iou < 0.5 or not (0.5 - 1e-9 <= ratio <= 1.0 + 1e-9):
            ok = False
            break
        if len(pair.proposals1) != 10 or len(pair.proposals2) != 10:
            ok = False
            break
    report(4, ok, f"10,000 seeded pairs: min rect IoU {min_iou:.3f} >= 0.5, "
                  "area ratio in [0.5, 1], n = 10 aligned proposals")


# -- criterion 5: loss identities ------------------------------------------------------


def _small_cfg(**overrides):
    text = "\n".join([
        "train.batch_size=2", "train.epochs=2", "train.decay_epoch=1",
        "view.size=64", "model.d_model=32",
        "model.heads=2", "model.enc_layers=1", "model.dec_layers=1",
        "model.ffn_dim=32", "view.n=6",
    ] + [f"{k}={v}" for k, v in overrides.items()])
    return parse_config(text)


def test_criterion_5_loss_identities():
    cfg = _small_cfg()
    spec = SceneSpec(image_size=96, seed=505)
    images = [render_scene(spec, i)[0] for i in range(2)]
    backbone = FrozenBackbone(cfg.backbone_seed)
    model = make_model(cfg, backbone)
    pairs = [V.build_view_pair(img, cfg, derive_seed(505, i))
             for i, img in enumerate(images)]
    swapped = [V.ViewPair(view1=p.view2, view2=p.view1,
                          proposals1=p.proposals2, proposals2=p.proposals1,
                          base_rect=p.base_rect, rect1=p.rect2, rect2=p.rect1,
                          flip1=p.flip2, flip2=p.flip1, padded=p.padded) for p in pairs]
    frozen_opt = AdamW(model.params, lr=0.0, weight_decay=0.0)
    bd_a = pretrain_step(model, backbone, frozen_opt, pairs, cfg)
    bd_b = pretrain_step(model, backbone, frozen_opt, swapped, cfg)
    swap_ok = abs(bd_a.total - bd_b.total) < 1e-5

    identity_ok = abs(bd_a.total - (cfg.loss_lambda_r * bd_a.region_disc
                                    + cfg.loss_lambda_g * bd_a.global_disc
                                    + cfg.loss_lambda_loc * bd_a.loc)) < 1e-6

    # stop-gradient: detached context branch receives exactly zero gradient
    rng = np.random.default_rng(0)
    live = Tensor(rng.standard_normal((3, 16)).astype(np.float32), requires_grad=True)
    target = Tensor(rng.standard_normal((3, 16)).astype(np.float32), requires_grad=True)
    T.tmean(T.cosine(live, target.detach())).backward()
    detach_ok = target.grad is None and live.grad is not None

    # region discrimination equals 2 - 2 cos
    pred = rng.standard_normal((5, 12)).astype(np.float32)
    tgt = rng.standard_normal((5, 12)).astype(np.float32)
    rows = [3, 1, 4, 0, 2]
    val = float(L.region_disc(Tensor(pred), rows, tgt).data)
    ref = np.mean([2 - 2 * float(T.cosine(Tensor(pred[j]), Tensor(tgt[i])).data)
                   for i, j in enumerate(rows)])
    region_ok = abs(val - ref) < 1e-6

    # MVCA with z = 0 is bitwise the plain decoder path
    h = Tensor(rng.standard_normal((1, 8, 8, 64)).astype(np.float32))
    ctx, hw = model.encode(h)
    q_plain, _ = model.decode(ctx, hw, z=None)
    q_zero, _ = model.decode(ctx, hw, z=Tensor(np.zeros((1, 6, 64), np.float32)))
    reduction_ok = q_plain.data.tobytes() == q_zero.data.tobytes()

    ok = swap_ok and identity_ok and detach_ok and region_ok and reduction_ok
    report(5, ok, f"view-swap {swap_ok}, weighted-sum {identity_ok}, "
                  f"stop-grad {detach_ok}, 2-2cos {region_ok}, z=0 bitwise {reduction_ok}")


# -- criterion 9: reproducibility ------------------------------------------------------


def test_criterion_9_reproducibility(tmp_path):
    spec = SceneSpec(image_size=96, seed=909)
    images = [render_scene(spec, i)[0] for i in range(20)]
    # 20 images, batch 4 -> 5 steps/epoch; 10 epochs = 50 steps
    cfg = _small_cfg(**{"train.batch_size": 4, "train.epochs": 10,
                        "train.decay_epoch": 7})
    ck_a, csv_a = run_pretrain(cfg, images, str(tmp_path / "a"))
    ck_b, csv_b = run_pretrain(cfg, images, str(tmp_path / "b"))
    ea, eb = load_checkpoint(ck_a), load_checkpoint(ck_b)
    bitwise = (list(ea) == list(eb)
               and all(ea[k].tobytes() == eb[k].tobytes() for k in ea))

    mid = str(tmp_path / "a" / "epoch_0006.ckpt")
    ck_r, csv_r = run_pretrain(cfg, images, str(tmp_path / "resumed"),
                               resume_from=mid)
    er = load_checkpoint(ck_r)
    resume_bitwise = all(ea[k].tobytes() == er[k].tobytes() for k in ea)
    rows_full = open(csv_a).read().strip().splitlines()[1:]
    rows_res = open(csv_r).read().strip().splitlines()[1:]
    curve_ok = rows_res == rows_full[30:]  # 6 epochs x 5 steps skipped

    ok = bitwise and resume_bitwise and curve_ok
    report(9, ok, f"bitwise twin runs {bitwise}, resume params {resume_bitwise}, "
                  f"resumed loss curve identical {curve_ok}")
