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
from .checkpoint import array_to_text, load_checkpoint, save_checkpoint, text_to_array
from .config import RunConfig
from .losses import LossBreakdown
from .model import Detr
from .optim import AdamW, clip_global_norm
from .rng import Rng, derive_seed
from .tensor import Tensor
from .views import ViewPair, build_view_pair, resize_to_view

META_PREFIX = "__meta__."
CSV_COLUMNS = ("step", "epoch", "lr", "loss_total", "loss_loc", "loss_g", "loss_r")


def make_model(cfg: RunConfig, backbone: FrozenBackbone) -> Detr:
    return Detr(cfg, backbone.out_channels, seed=derive_seed(cfg.seed, 11))


def boxes_to_targets(boxes: np.ndarray, frame_w: float, frame_h: float) -> np.ndarray:
    """(m, 4) xyxy pixel boxes as an (m, 4) float32 array of normalized
    cxcywh rows."""
    if frame_w <= 0 or frame_h <= 0:
        raise ValueError(f"frame dims must be positive, got {frame_w}x{frame_h}")
    lo, hi = boxes[:, :2], boxes[:, 2:]
    empty = (hi <= lo).any(axis=1)
    if empty.any():
        raise ValueError(f"box with non-positive size: {boxes[empty][0].tolist()}")
    frame = np.array([frame_w, frame_h])
    return np.concatenate([0.5 * (lo + hi) / frame, (hi - lo) / frame],
                          axis=1).astype(np.float32)


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
    lam_r, lam_g, lam_loc = cfg.loss_lambda_r, cfg.loss_lambda_g, cfg.loss_lambda_loc
    need_region = lam_r > 0
    need_global = lam_g > 0
    size = float(cfg.view_size)
    b = len(pairs)
    n_q = cfg.view_n
    n_rows = 2 * b * n_q

    all_views = np.stack([p.view1 for p in pairs] + [p.view2 for p in pairs])
    h_all = backbone.extract_batch(all_views)  # (2B, H1, W1, Cb), frozen
    ctx_all, hw = model.encode(Tensor(h_all))  # (2B, L, C)

    # proposals and their pooled region features z, both [view1 x B, view2 x B]
    # (no tape: h is frozen)
    proposals = np.stack([p.proposals1 for p in pairs] + [p.proposals2 for p in pairs])
    z_all = backbone.object_level_features(h_all, proposals)

    # direction d reconstructs the region features of the view it is
    # conditioned on, in the same [view1 x B, view2 x B] order
    if need_region:
        if cfg.loss_region_target == "crop":
            region_targets = backbone.crop_features_multi(list(zip(all_views, proposals)))
        else:  # object-level targets reuse z
            region_targets = z_all.reshape(n_rows, -1)

    # decode: directions 1->2 use (c2, z1), then 2->1 use (c1, z2)
    ctx_dec = T.concatenate([T.narrow(ctx_all, 0, b, b),
                             T.narrow(ctx_all, 0, 0, b)], axis=0)
    q_hat, _ = model.decode(ctx_dec, hw, z=Tensor(z_all))
    boxes, sem, match = model.predict(q_hat)

    # direction d < B predicts view 2's proposals, d >= B view 1's
    box_targets = boxes_to_targets(np.roll(proposals, b, axis=0).reshape(-1, 4),
                                   size, size)
    dir_targets = box_targets.reshape(2 * b, n_q, 4)
    rows = L.matched_rows([L.matching_cost(boxes.data[d], match.data[d], dir_targets[d])
                           for d in range(2 * b)], n_q)
    match_targets = np.zeros((n_rows, 1), dtype=np.float32)
    match_targets[rows] = 1.0

    # x2: each direction contributes its own mean in the symmetric sum
    two = Tensor(np.float32(2.0))
    loc_total = T.mul(T.add(L.box_regression(T.reshape(boxes, (n_rows, 4)),
                                             rows, box_targets),
                            L.match_bce(match, match_targets)), two)

    region_total = None
    if need_region:
        sem_flat = T.reshape(sem, (n_rows, sem.data.shape[-1]))
        region_total = T.mul(L.region_disc(sem_flat, rows, region_targets), two)

    global_total = None
    if need_global:
        pooled = T.tmean(ctx_all, axis=1)  # (2B, C)
        global_total = L.global_disc_loss(model.project_context,
                                          T.narrow(pooled, 0, 0, b),
                                          T.narrow(pooled, 0, b, b))

    total, breakdown = L.total_loss(loc_total, global_total, region_total,
                                    (lam_r, lam_g, lam_loc))
    _update(model, optimizer, total, cfg)
    return breakdown


def _update(model: Detr, optimizer: AdamW, total: Tensor, cfg: RunConfig) -> float:
    """Backward from the loss, clip the optimizer's gradients, take one step."""
    model.zero_grads()
    total.backward()
    clip_global_norm(optimizer.params, cfg.train_clip_norm)
    optimizer.step()
    return float(total.data)


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


def labeled_item(pixels: np.ndarray, boxes: np.ndarray, labels: np.ndarray) -> LabeledItem:
    """A `data.load_dataset` triple: (m, 4) xyxy pixel boxes become targets."""
    h, w = pixels.shape[:2]
    return LabeledItem(pixels=pixels, boxes=boxes_to_targets(boxes, w, h), labels=labels)


def finetune_step(model: Detr, optimizer: AdamW, features: np.ndarray,
                  items: list[LabeledItem], cfg: RunConfig) -> float:
    """One supervised set-prediction step over the batch's cached (B, H1, W1,
    C) backbone features, transformer trainable."""
    c, hw = model.encode(Tensor(features))
    layers: list[Tensor] = []
    model.decode(c, hw, z=None, layers=layers)
    # deep supervision (aux loss): the set loss on every decoder layer's output
    supervised = layers if cfg.model_aux_loss else layers[-1:]
    total = _sum_tensors([_batched_set_loss(model, q, items, cfg) for q in supervised])
    return _update(model, optimizer, total, cfg)


def finetune_step_cached(model: Detr, optimizer: AdamW, q_rows: np.ndarray,
                         items: list[LabeledItem], cfg: RunConfig) -> float:
    """Head-only step on precomputed decoded queries (frozen transformer)."""
    total = _batched_set_loss(model, Tensor(q_rows), items, cfg)
    return _update(model, optimizer, total, cfg)


def _batched_set_loss(model: Detr, q_hat: Tensor, items: list[LabeledItem],
                      cfg: RunConfig) -> Tensor:
    boxes, _, _ = model.predict(q_hat)
    return L.set_loss(model.class_logits(q_hat), boxes,
                      [(item.boxes, item.labels) for item in items], cfg.data_classes)


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
    return entries


def split_checkpoint(entries: dict[str, np.ndarray]):
    params = {n: a for n, a in entries.items()
              if not n.startswith(("opt.", META_PREFIX))}
    opt = {n[len("opt."):]: a for n, a in entries.items() if n.startswith("opt.")}
    meta = {n[len(META_PREFIX):]: a for n, a in entries.items()
            if n.startswith(META_PREFIX)}
    return params, opt, meta


ARCHITECTURE_KEYS = ("model.d_model", "model.heads", "model.enc_layers",
                     "model.dec_layers", "model.ffn_dim", "view.n",
                     "backbone.seed", "view.size")


def _config_values(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def check_architecture(meta: dict[str, np.ndarray], cfg: RunConfig) -> None:
    """Reject checkpoints whose architecture keys differ from the config."""
    stored = _config_values(array_to_text(meta["config"]))
    current = _config_values(cfg.resolved_text())
    mismatched = [k for k in ARCHITECTURE_KEYS if stored.get(k) != current.get(k)]
    if mismatched:
        detail = ", ".join(f"{k}: checkpoint={stored.get(k)} config={current.get(k)}"
                           for k in mismatched)
        raise ValueError(f"checkpoint incompatible with config ({detail})")


# -- schedules -------------------------------------------------------------------------


def lr_at_epoch(lr: float, epoch: int, decay_epoch: int) -> float:
    """Step schedule: lr until decay_epoch, a tenth of it from then on."""
    return lr * (0.1 if epoch >= decay_epoch else 1.0)


def _require_full_batch(count: int, batch: int, key: str) -> None:
    # epochs drop the last partial batch, so fewer images than one batch
    # would run no step at all
    if count < batch:
        raise ValueError(f"{count} images cannot fill one batch of {key}={batch}")


def run_pretrain(cfg: RunConfig, images: list[np.ndarray], out_dir: str,
                 resume_from: str | None = None,
                 log=None, on_start=None) -> tuple[str, str]:
    """Pretrain over the image list; write per-epoch checkpoints and a per-step
    metrics CSV. Returns (final checkpoint path, csv path). `on_start` is
    called once the inputs (images, resume checkpoint) pass their checks,
    before anything is written."""
    _require_full_batch(len(images), cfg.train_batch_size, "train.batch_size")
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
    if on_start:
        on_start()
    os.makedirs(out_dir, exist_ok=True)

    batch = cfg.train_batch_size
    csv_path = os.path.join(out_dir, "metrics.csv")
    mode = "a" if resume_from is not None and os.path.exists(csv_path) else "w"
    step = start_epoch * (len(images) // batch)
    if mode == "a":
        _drop_rows_from(csv_path, step)
    final_path = resume_from  # stays so when no epoch is left to run
    with open(csv_path, mode, newline="") as f:
        writer = csv.writer(f)
        if mode == "w":
            writer.writerow(CSV_COLUMNS)
        for epoch in range(start_epoch, cfg.train_epochs):
            optimizer.lr = lr_at_epoch(cfg.train_lr, epoch, cfg.train_decay_epoch)
            order = list(range(len(images)))
            Rng(derive_seed(cfg.seed, 0xD5, epoch)).shuffle(order)
            for lo in range(0, len(order) - batch + 1, batch):
                pairs = [build_view_pair(images[i], cfg, derive_seed(cfg.seed, epoch, i))
                         for i in order[lo:lo + batch]]
                try:
                    bd = pretrain_step(model, backbone, optimizer, pairs, cfg)
                except FloatingPointError as e:
                    raise FloatingPointError(
                        f"{e} in epoch {epoch + 1}; {_resume_hint(out_dir, epoch)}") from e
                writer.writerow([step, epoch, _fmt(optimizer.lr), _fmt(bd.total),
                                 _fmt(bd.loc), _fmt(bd.global_disc), _fmt(bd.region_disc)])
                step += 1
            f.flush()
            final_path = _epoch_path(out_dir, epoch + 1)
            save_checkpoint(final_path, checkpoint_entries(model, optimizer, cfg, epoch + 1))
            if log:
                log(f"epoch {epoch + 1}/{cfg.train_epochs} done; "
                    f"last total {bd.total:.4f}")
    return final_path, csv_path


def _epoch_path(out_dir: str, epochs_done: int) -> str:
    return os.path.join(out_dir, f"epoch_{epochs_done:04d}.ckpt")


def _resume_hint(out_dir: str, epochs_done: int) -> str:
    """The newest checkpoint in out_dir from at most `epochs_done` epochs."""
    for done in range(epochs_done, 0, -1):
        if os.path.exists(_epoch_path(out_dir, done)):
            return f"resume from {_epoch_path(out_dir, done)}"
    return f"no epoch_*.ckpt in {out_dir} yet"


def _drop_rows_from(csv_path: str, first_step: int) -> None:
    """Cut metrics rows for steps >= first_step, which a resumed run writes
    again (left there when the run went on past the resumed checkpoint, or
    crashed mid-epoch); a partly written last line goes too."""
    with open(csv_path, newline="") as f:
        lines = f.readlines()
    keep = lines[:1] + [ln for ln in lines[1:]
                        if ln.endswith("\n") and int(ln.split(",", 1)[0]) < first_step]
    if len(keep) < len(lines):
        with open(csv_path, "w", newline="") as f:
            f.writelines(keep)


def _fmt(x: float) -> str:
    # %.9g round-trips float32 exactly; resume comparisons rely on it
    return f"{np.float32(x):.9g}"


def run_finetune(cfg: RunConfig, items: list[LabeledItem], seed: int,
                 init_arrays: dict[str, np.ndarray] | None = None,
                 log=None, on_start=None) -> tuple[Detr, list[float]]:
    """Supervised finetuning; init_arrays (from a pretraining checkpoint)
    seeds the transformer, the class head is always fresh. `on_start` is
    called once the inputs pass their checks."""
    n_epochs = cfg.finetune_epochs
    if n_epochs < 1:
        raise ValueError(f"finetune needs at least 1 epoch, got {n_epochs}")
    _require_full_batch(len(items), cfg.finetune_batch_size, "finetune.batch_size")
    if on_start:
        on_start()
    backbone = FrozenBackbone(cfg.backbone_seed)
    model = make_model(cfg, backbone)
    if init_arrays is not None:
        model.load_state(init_arrays)
    model.add_class_head(cfg.data_classes, seed=derive_seed(seed, 0xC1))
    params = trainable_params(model, cfg.finetune_freeze_transformer)
    optimizer = AdamW(params, lr=cfg.train_lr, weight_decay=cfg.train_weight_decay)
    # one image at a time, so the resized inputs are never all held at once
    side = cfg.view_size // backbone.stride
    features = np.empty((len(items), side, side, backbone.out_channels), np.float32)
    for i, item in enumerate(items):
        pixels = resize_to_view(item.pixels, cfg.view_size)
        features[i] = backbone.extract_batch(pixels[None])[0]
    batch = cfg.finetune_batch_size
    cached_q = None
    if cfg.finetune_freeze_transformer:
        # the frozen transformer maps each image to a fixed query embedding;
        # decode once, one batch at a time and with no tape, and train the
        # heads on the cached result
        chunks = []
        with T.no_grad():
            for lo in range(0, len(items), batch):
                c, hw = model.encode(Tensor(features[lo:lo + batch]))
                chunks.append(model.decode(c, hw, z=None)[0].data)
        cached_q = np.concatenate(chunks)

    losses: list[float] = []
    decay_at = max(1, int(round(n_epochs * 0.7)))  # same decay ratio as pretraining
    for epoch in range(n_epochs):
        optimizer.lr = lr_at_epoch(cfg.train_lr, epoch, decay_at)
        order = list(range(len(items)))
        Rng(derive_seed(seed, 0xF7, epoch)).shuffle(order)
        for lo in range(0, len(order) - batch + 1, batch):
            idx = order[lo:lo + batch]
            batch_items = [items[i] for i in idx]
            try:
                if cached_q is not None:
                    loss = finetune_step_cached(model, optimizer, cached_q[idx],
                                                batch_items, cfg)
                else:
                    loss = finetune_step(model, optimizer, features[idx], batch_items, cfg)
            except FloatingPointError as e:
                raise FloatingPointError(f"{e} in epoch {epoch + 1}") from e
            losses.append(loss)
        if log:
            log(f"finetune epoch {epoch + 1}/{n_epochs}; loss {losses[-1]:.4f}")
    return model, losses
