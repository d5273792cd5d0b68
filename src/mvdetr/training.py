"""Training runtime: symmetric two-view pretraining, finetuning, schedules,
seeding, and checkpoint persistence.

Every stochastic choice derives statelessly from (config seed, epoch, item),
so resuming from a checkpoint reproduces the uninterrupted run bit for bit
and batch construction could be farmed out to workers without shared state.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from . import losses as L
from . import tensor as T
from .backbone import FrozenBackbone
from .checkpoint import (array_to_text, load_checkpoint, save_checkpoint,
                         text_to_array, u64_to_array)
from .config import RunConfig
from .geometry import BoxXYXY, to_cxcywh
from .losses import LossBreakdown
from .model import Detr, TransformerConfig
from .optim import AdamW, clip_global_norm
from .rng import Rng, derive_seed
from .tensor import Tensor
from .views import (AugmentConfig, Image, ViewConfig, ViewPair,
                    build_view_pair, resize)

META_PREFIX = "__meta__."
CSV_COLUMNS = ("step", "epoch", "lr", "loss_total", "loss_loc", "loss_g", "loss_r")


def view_config_from(cfg: RunConfig) -> ViewConfig:
    return ViewConfig(
        tau=cfg.view_tau,
        n_proposals=cfg.view_n,
        view_size=cfg.view_size,
        jitter=cfg.view_jitter,
        proposal_mode=cfg.proposals_mode,
        augment=AugmentConfig(flip_p=cfg.aug_flip_p, color_p=cfg.aug_color_p,
                              color_jitter=cfg.aug_color_jitter,
                              grayscale_p=cfg.aug_grayscale_p,
                              blur_p=cfg.aug_blur_p),
    )


def model_config_from(cfg: RunConfig, backbone: FrozenBackbone) -> TransformerConfig:
    return TransformerConfig(
        d_model=cfg.model_d_model, heads=cfg.model_heads,
        enc_layers=cfg.model_enc_layers, dec_layers=cfg.model_dec_layers,
        ffn_dim=cfg.model_ffn_dim, n_queries=cfg.model_queries,
        in_channels=backbone.out_channels, sem_dim=backbone.out_channels,
    )


def make_model(cfg: RunConfig, backbone: FrozenBackbone) -> Detr:
    return Detr(model_config_from(cfg, backbone), seed=derive_seed(cfg.seed, 11))


def boxes_to_targets(boxes: list[BoxXYXY], frame: float) -> np.ndarray:
    out = np.zeros((len(boxes), 4), dtype=np.float32)
    for i, b in enumerate(boxes):
        c = to_cxcywh(b, frame, frame)
        out[i] = (c.cx, c.cy, c.w, c.h)
    return out


# -- pretraining step ---------------------------------------------------------------


def pretrain_step(model: Detr, backbone: FrozenBackbone, optimizer: AdamW,
                  pairs: list[ViewPair], cfg: RunConfig) -> LossBreakdown:
    """One symmetric two-view step, batched over items and both directions.

    The batch stacks [view1 x B, view2 x B] through one backbone pass and one
    encoder pass; the decoder runs once over the 2B (context, conditioning)
    combinations [(c2, z1) x B, (c1, z2) x B]. Per-direction means over
    aligned counts make the flat means equal to the per-item symmetric sums
    up to summation order.
    """
    if not pairs:
        raise ValueError("empty batch")
    lam_r, lam_g, lam_loc = cfg.effective_lambdas()
    need_region = lam_r > 0
    need_global = lam_g > 0
    size = float(cfg.view_size)
    b = len(pairs)
    n_q = model.config.n_queries

    all_views = np.stack([p.view1.pixels for p in pairs]
                         + [p.view2.pixels for p in pairs])
    h_all = backbone.extract_batch(all_views)  # (2B, H1, W1, Cb), frozen
    ctx_all, hw = model.encode(Tensor(h_all))  # (2B, L, C)

    # pooled region features z (no tape: h is a frozen leaf)
    z_rows = []
    for i, pair in enumerate(pairs):
        z_rows.append(backbone.object_level_features(
            Tensor(h_all[i]), pair.proposals1).data)
    for i, pair in enumerate(pairs):
        z_rows.append(backbone.object_level_features(
            Tensor(h_all[b + i]), pair.proposals2).data)
    z1s, z2s = np.stack(z_rows[:b]), np.stack(z_rows[b:])

    if need_region:
        if cfg.loss_region_target == "crop":
            flat = backbone.crop_features_multi(
                [(p.view1.pixels, p.proposals1) for p in pairs]
                + [(p.view2.pixels, p.proposals2) for p in pairs])
            r_src1 = flat[:b * n_q].reshape(b, n_q, -1)
            r_src2 = flat[b * n_q:].reshape(b, n_q, -1)
        else:  # object-level targets reuse z
            r_src1, r_src2 = z1s, z2s

    targets1 = [boxes_to_targets(p.proposals1, size) for p in pairs]
    targets2 = [boxes_to_targets(p.proposals2, size) for p in pairs]

    # decode: directions 1->2 use (c2, z1), then 2->1 use (c1, z2)
    ctx_dec = T.concatenate([T.narrow(ctx_all, 0, b, b),
                             T.narrow(ctx_all, 0, 0, b)], axis=0)
    z_dec = Tensor(np.concatenate([z1s, z2s]))
    q_hat, _ = model.decode(ctx_dec, hw, z=z_dec)
    boxes, sem, match = model.predict(q_hat)

    dir_targets = targets2 + targets1
    dir_region = ([r_src1[i] for i in range(b)] + [r_src2[i] for i in range(b)]
                  if need_region else None)
    flat_rows: list[int] = []
    tgt_boxes: list[np.ndarray] = []
    tgt_feats: list[np.ndarray] = []
    match_targets = np.zeros((2 * b * n_q, 1), dtype=np.float32)
    for d in range(2 * b):
        targets = dir_targets[d]
        cost = L.matching_cost(boxes.data[d], match.data[d], targets)
        assignment = L.hungarian(cost)
        for t, j in enumerate(assignment.target_to_pred):
            flat_rows.append(d * n_q + j)
            match_targets[d * n_q + j, 0] = 1.0
            tgt_boxes.append(targets[t])
            if need_region:
                tgt_feats.append(dir_region[d][t])

    two = Tensor(np.float32(2.0))
    boxes_flat = T.reshape(boxes, (2 * b * n_q, 4))
    matched_boxes = T.gather_rows(boxes_flat, flat_rows)
    tgt_arr = np.stack(tgt_boxes)
    giou = L.giou_pairs(matched_boxes, tgt_arr)
    reg = T.add(
        T.mul(T.tmean(T.sub(Tensor(np.ones_like(giou.data)), giou)),
              Tensor(np.float32(L.MATCH_COEF[1]))),
        T.mul(T.tmean(T.tsum(T.absolute(T.sub(matched_boxes, Tensor(tgt_arr))),
                             axis=-1)),
              Tensor(np.float32(L.MATCH_COEF[2]))))
    k = T.clamp(T.reshape(match, (2 * b * n_q, 1)), L.K_CLAMP, 1.0 - L.K_CLAMP)
    t_arr = Tensor(match_targets)
    ones = Tensor(np.ones_like(match_targets))
    bce = T.tmean(T.sub(Tensor(np.zeros_like(match_targets)),
                        T.add(T.mul(t_arr, T.log(k)),
                              T.mul(T.sub(ones, t_arr), T.log(T.sub(ones, k))))))
    # x2: each direction contributes its own mean in the symmetric sum
    loc_total = T.mul(T.add(reg, bce), two)

    region_total = None
    if need_region:
        sem_flat = T.reshape(sem, (2 * b * n_q, sem.data.shape[-1]))
        matched_sem = T.gather_rows(sem_flat, flat_rows)
        feats = np.stack(tgt_feats).astype(np.float64)
        norms = np.linalg.norm(feats, axis=-1, keepdims=True)
        if (norms <= 1e-12).any():
            raise ValueError("zero-norm region feature target")
        tgt_unit = Tensor((feats / norms).astype(np.float32))
        diff = T.sub(T.l2_normalize(matched_sem), tgt_unit)
        region_total = T.mul(T.tmean(T.tsum(T.mul(diff, diff), axis=-1)), two)

    global_total = None
    if need_global:
        pooled = T.tmean(ctx_all, axis=1)  # (2B, C)
        global_total = L.global_disc_loss(model.project_context,
                                          T.narrow(pooled, 0, 0, b),
                                          T.narrow(pooled, 0, b, b))

    total, breakdown = L.total_loss(loc_total, global_total, region_total,
                                    (lam_r, lam_g, lam_loc))
    model.zero_grads()
    total.backward()
    clip_global_norm(model.params, cfg.train_clip_norm)
    optimizer.step()
    return breakdown


def _sum_tensors(ts: list[Tensor]) -> Tensor:
    out = ts[0]
    for t in ts[1:]:
        out = T.add(out, t)
    return out


# -- finetuning step -----------------------------------------------------------------


@dataclass
class LabeledItem:
    pixels: np.ndarray
    boxes: np.ndarray   # (m, 4) normalized cxcywh
    labels: np.ndarray  # (m,) int64


def labeled_item(pixels: np.ndarray, boxes: list[BoxXYXY], labels: list[int]) -> LabeledItem:
    h, w = pixels.shape[:2]
    arr = np.zeros((len(boxes), 4), dtype=np.float32)
    for i, b in enumerate(boxes):
        c = to_cxcywh(b, w, h)
        arr[i] = (c.cx, c.cy, c.w, c.h)
    return LabeledItem(pixels=pixels, boxes=arr,
                       labels=np.asarray(labels, dtype=np.int64))


def finetune_step(model: Detr, optimizer: AdamW, features: list[Tensor],
                  items: list[LabeledItem], cfg: RunConfig) -> float:
    """One supervised set-prediction step over cached backbone features."""
    feats = Tensor(np.stack([f.data for f in features]))
    c, hw = model.encode(feats)
    q_hat, _ = model.decode(c, hw, z=None)
    if cfg.finetune_freeze_transformer:
        q_hat = q_hat.detach()
    if cfg.model_aux_loss and not cfg.finetune_freeze_transformer:
        # deep supervision: the set loss on every decoder layer's output
        total = _sum_tensors([_batched_set_loss(model, layer_q, items, cfg)
                              for layer_q in model.decoder_layer_outputs])
    else:
        total = _batched_set_loss(model, q_hat, items, cfg)
    model.zero_grads()
    total.backward()
    clip_global_norm(optimizer.params, cfg.train_clip_norm)
    optimizer.step()
    return float(total.data)


def finetune_step_cached(model: Detr, optimizer: AdamW, q_rows: np.ndarray,
                         items: list[LabeledItem], cfg: RunConfig) -> float:
    """Head-only step on precomputed decoded queries (frozen transformer)."""
    total = _batched_set_loss(model, Tensor(q_rows), items, cfg)
    model.zero_grads()
    total.backward()
    clip_global_norm(optimizer.params, cfg.train_clip_norm)
    optimizer.step()
    return float(total.data)


def _batched_set_loss(model: Detr, q_hat: Tensor, items: list[LabeledItem],
                      cfg: RunConfig) -> Tensor:
    """Batched analogue of the single-image set loss: classification averages
    the weighted per-query terms over all queries in the batch; box
    regression normalizes by the total matched-pair count.
    """
    b = len(items)
    n_q = model.config.n_queries
    n_classes = cfg.data_classes
    boxes, _, _ = model.predict(q_hat)
    logits = model.class_logits(q_hat)  # (B, N, K+1)

    probs_np = L._softmax_np(logits.data)
    classes = np.full((b, n_q), n_classes, dtype=np.int64)
    weights = np.full((b * n_q, 1), 0.1, dtype=np.float32)
    flat_rows: list[int] = []
    tgt_boxes: list[np.ndarray] = []
    for i, item in enumerate(items):
        if not len(item.labels):
            continue
        cost = L.finetune_matching_cost(boxes.data[i], probs_np[i],
                                        item.boxes, item.labels)
        assignment = L.hungarian(cost)
        for t, j in enumerate(assignment.target_to_pred):
            classes[i, j] = item.labels[t]
            weights[i * n_q + j, 0] = 1.0
            flat_rows.append(i * n_q + j)
            tgt_boxes.append(item.boxes[t])

    onehot = np.zeros((b * n_q, n_classes + 1), dtype=np.float32)
    onehot[np.arange(b * n_q), classes.reshape(-1)] = 1.0
    logits_flat = T.reshape(logits, (b * n_q, n_classes + 1))
    logp = T.log(T.clamp(T.softmax(logits_flat, axis=-1), 1e-9, 1.0))
    per_query = T.sub(Tensor(np.zeros((b * n_q, 1), dtype=np.float32)),
                      T.tsum(T.mul(logp, Tensor(onehot)), axis=-1, keepdims=True))
    total = T.tmean(T.mul(per_query, Tensor(weights)))

    if flat_rows:
        boxes_flat = T.reshape(boxes, (b * n_q, 4))
        matched = T.gather_rows(boxes_flat, flat_rows)
        tgt_arr = np.stack(tgt_boxes)
        giou = L.giou_pairs(matched, tgt_arr)
        reg = T.add(
            T.mul(T.tmean(T.sub(Tensor(np.ones_like(giou.data)), giou)),
                  Tensor(np.float32(L.MATCH_COEF[1]))),
            T.mul(T.tmean(T.tsum(T.absolute(T.sub(matched, Tensor(tgt_arr))),
                                 axis=-1)),
                  Tensor(np.float32(L.MATCH_COEF[2]))))
        total = T.add(total, reg)
    return total


FROZEN_HEAD_PREFIXES = ("head.box.", "class_head.")


def trainable_params(model: Detr, freeze_transformer: bool) -> dict[str, Tensor]:
    if not freeze_transformer:
        return model.params
    return {n: p for n, p in model.params.items()
            if n.startswith(FROZEN_HEAD_PREFIXES)}


# -- checkpoint composition -----------------------------------------------------------


def checkpoint_entries(model: Detr, optimizer: AdamW | None, cfg: RunConfig,
                       next_epoch: int) -> dict[str, np.ndarray]:
    entries: dict[str, np.ndarray] = {}
    for name, p in model.params.items():
        entries[name] = p.data.astype(np.float32)
    if optimizer is not None:
        for name, arr in optimizer.state_arrays().items():
            entries[f"opt.{name}"] = arr
    entries[META_PREFIX + "config"] = text_to_array(cfg.resolved_text())
    entries[META_PREFIX + "epoch"] = np.array([next_epoch], dtype=np.float32)
    entries[META_PREFIX + "backbone_seed"] = u64_to_array(cfg.backbone_seed)
    entries[META_PREFIX + "seed"] = u64_to_array(cfg.seed)
    return entries


def split_checkpoint(entries: dict[str, np.ndarray]):
    params = {n: a for n, a in entries.items()
              if not n.startswith(("opt.", META_PREFIX))}
    opt = {n[len("opt."):]: a for n, a in entries.items() if n.startswith("opt.")}
    meta = {n[len(META_PREFIX):]: a for n, a in entries.items()
            if n.startswith(META_PREFIX)}
    return params, opt, meta


ARCHITECTURE_KEYS = ("model.d_model", "model.heads", "model.enc_layers",
                     "model.dec_layers", "model.ffn_dim", "model.queries",
                     "backbone.seed", "view.size")


def check_architecture(meta: dict[str, np.ndarray], cfg: RunConfig) -> None:
    """Reject checkpoints whose architecture keys differ from the config."""
    stored = {}
    for line in array_to_text(meta["config"]).splitlines():
        if "=" in line:
            k, v = line.split("=", 1)
            stored[k] = v
    current = {}
    for line in cfg.resolved_text().splitlines():
        if "=" in line:
            k, v = line.split("=", 1)
            current[k] = v
    mismatched = [k for k in ARCHITECTURE_KEYS if stored.get(k) != current.get(k)]
    if mismatched:
        detail = ", ".join(f"{k}: checkpoint={stored.get(k)} config={current.get(k)}"
                           for k in mismatched)
        raise ValueError(f"checkpoint incompatible with config ({detail})")


# -- schedules -------------------------------------------------------------------------


def lr_at_epoch(cfg: RunConfig, epoch: int) -> float:
    return cfg.train_lr * (0.1 if epoch >= cfg.train_decay_epoch else 1.0)


def _require_full_batch(count: int, batch: int, key: str) -> None:
    # epochs drop the last partial batch, so fewer images than one batch
    # would run no step at all
    if count < batch:
        raise ValueError(f"{count} images cannot fill one batch of {key}={batch}")


def run_pretrain(cfg: RunConfig, images: list[np.ndarray], out_dir: str,
                 resume_from: str | None = None,
                 log=None) -> tuple[str, str]:
    """Pretrain over the image list; write per-epoch checkpoints and a per-step
    metrics CSV. Returns (final checkpoint path, csv path)."""
    _require_full_batch(len(images), cfg.train_batch_size, "train.batch_size")
    os.makedirs(out_dir, exist_ok=True)
    backbone = FrozenBackbone(cfg.backbone_seed)
    model = make_model(cfg, backbone)
    optimizer = AdamW(model.params, lr=cfg.train_lr, weight_decay=cfg.train_weight_decay)
    start_epoch = 0
    if resume_from is not None:
        entries = load_checkpoint(resume_from)
        params, opt_state, meta = split_checkpoint(entries)
        check_architecture(meta, cfg)
        model.load_state(params)
        optimizer.load_state(opt_state)
        start_epoch = int(meta["epoch"][0])

    view_cfg = view_config_from(cfg)
    batch = cfg.train_batch_size
    csv_path = os.path.join(out_dir, "metrics.csv")
    mode = "a" if resume_from is not None and os.path.exists(csv_path) else "w"
    step = start_epoch * (len(images) // batch)
    final_path = os.path.join(out_dir, f"epoch_{start_epoch:04d}.ckpt")
    with open(csv_path, mode, newline="") as f:
        writer = csv.writer(f)
        if mode == "w":
            writer.writerow(CSV_COLUMNS)
        for epoch in range(start_epoch, cfg.train_epochs):
            optimizer.lr = lr_at_epoch(cfg, epoch)
            order = list(range(len(images)))
            Rng(derive_seed(cfg.seed, 0xD5, epoch)).shuffle(order)
            for lo in range(0, len(order) - batch + 1, batch):
                pairs = [build_view_pair(Image(images[i]), view_cfg,
                                         derive_seed(cfg.seed, epoch, i))
                         for i in order[lo:lo + batch]]
                bd = pretrain_step(model, backbone, optimizer, pairs, cfg)
                writer.writerow([step, epoch, _fmt(optimizer.lr), _fmt(bd.total),
                                 _fmt(bd.loc), _fmt(bd.global_disc), _fmt(bd.region_disc)])
                step += 1
            f.flush()
            final_path = os.path.join(out_dir, f"epoch_{epoch + 1:04d}.ckpt")
            save_checkpoint(final_path, checkpoint_entries(model, optimizer, cfg, epoch + 1))
            if log:
                log(f"epoch {epoch + 1}/{cfg.train_epochs} done; "
                    f"last total {bd.total:.4f}")
    return final_path, csv_path


def _fmt(x: float) -> str:
    # %.9g round-trips float32 exactly; resume comparisons rely on it
    return f"{np.float32(x):.9g}"


def resize_to_view(pixels: np.ndarray, view_size: int) -> np.ndarray:
    """Resize an image to the square view size the model was pretrained on.

    Normalized box targets are unaffected, and positional-embedding geometry
    then matches pretraining exactly.
    """
    if pixels.shape[0] == view_size and pixels.shape[1] == view_size:
        return pixels
    return resize(pixels, view_size, view_size)


def run_finetune(cfg: RunConfig, items: list[LabeledItem], seed: int,
                 init_arrays: dict[str, np.ndarray] | None = None,
                 epochs: int | None = None,
                 log=None) -> tuple[Detr, list[float]]:
    """Supervised finetuning; init_arrays (from a pretraining checkpoint)
    seeds the transformer, the class head is always fresh."""
    _require_full_batch(len(items), cfg.finetune_batch_size, "finetune.batch_size")
    backbone = FrozenBackbone(cfg.backbone_seed)
    model = make_model(cfg, backbone)
    if init_arrays is not None:
        model.load_state(init_arrays)
    model.add_class_head(cfg.data_classes, seed=derive_seed(seed, 0xC1))
    params = trainable_params(model, cfg.finetune_freeze_transformer)
    optimizer = AdamW(params, lr=cfg.train_lr, weight_decay=cfg.train_weight_decay)
    features = [backbone.extract(resize_to_view(item.pixels, cfg.view_size))
                for item in items]
    cached_q = None
    if cfg.finetune_freeze_transformer:
        # the frozen transformer maps each image to a fixed query embedding;
        # decode once and train the heads on the cached result
        feats = Tensor(np.stack([f.data for f in features]))
        c, hw = model.encode(feats)
        cached_q = model.decode(c, hw, z=None)[0].data

    n_epochs = cfg.finetune_epochs if epochs is None else epochs
    batch = cfg.finetune_batch_size
    losses: list[float] = []
    decay_at = max(1, int(round(n_epochs * 0.7)))  # same decay ratio as pretraining
    for epoch in range(n_epochs):
        optimizer.lr = cfg.train_lr * (0.1 if epoch >= decay_at else 1.0)
        order = list(range(len(items)))
        Rng(derive_seed(seed, 0xF7, epoch)).shuffle(order)
        for lo in range(0, len(order) - batch + 1, batch):
            idx = order[lo:lo + batch]
            batch_items = [items[i] for i in idx]
            if cached_q is not None:
                loss = finetune_step_cached(model, optimizer, cached_q[idx],
                                            batch_items, cfg)
            else:
                loss = finetune_step(model, optimizer,
                                     [features[i] for i in idx], batch_items, cfg)
            losses.append(loss)
        if log:
            log(f"finetune epoch {epoch + 1}/{n_epochs}; loss {losses[-1]:.4f}")
    return model, losses
