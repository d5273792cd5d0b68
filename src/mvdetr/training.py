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
from .checkpoint import (array_to_text, load_checkpoint, save_checkpoint, text_to_array,
                         whole_count)
from .config import RunConfig
from .geometry import boxes_to_targets
from .model import Detr
from .optim import AdamW, clip_global_norm
from .rng import Rng, derive_seed
from .tensor import Tensor
from .views import MIN_IMAGE_SIDE, ViewPair, build_view_pair, resize_to_view

META_PREFIX = "__meta__."
CSV_COLUMNS = ("step", "epoch", "lr", "loss_total", "loss_loc", "loss_g", "loss_r")


def make_model(cfg: RunConfig, backbone: FrozenBackbone) -> Detr:
    return Detr(cfg, backbone.out_channels, seed=derive_seed(cfg.seed, 11))


# -- pretraining step ---------------------------------------------------------------


@dataclass
class LossBreakdown:
    loc: float
    global_disc: float
    region_disc: float
    total: float


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
            region_targets = backbone.crop_features_multi(all_views, proposals)
        else:  # object-level targets reuse z
            region_targets = z_all.reshape(n_rows, -1)

    # decode: directions 1->2 use (c2, z1), then 2->1 use (c1, z2); swap[d] is
    # the row of [view1 x B, view2 x B] whose context and proposals d uses
    swap = np.roll(np.arange(2 * b), b)
    ctx_dec = T.take(ctx_all, swap, 0)
    q_hat, _ = model.decode(ctx_dec, hw, z=Tensor(z_all))
    boxes, sem, match = model.predict(q_hat)

    # direction d < B predicts view 2's proposals, d >= B view 1's
    box_targets = boxes_to_targets(proposals[swap].reshape(-1, 4), size, size)
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

    # lambda_loc L_loc (+ lambda_g L_g) (+ lambda_r L_r); a term of weight 0
    # is never built
    dt = loc_total.data.dtype
    total = T.mul(loc_total, Tensor(np.asarray(lam_loc, dtype=dt)))
    breakdown = LossBreakdown(loc=float(loc_total.data), global_disc=0.0,
                              region_disc=0.0, total=0.0)
    if need_global:
        pooled = T.tmean(ctx_all, axis=1)  # (2B, C)
        global_total = L.global_disc_loss(model.project_context,
                                          T.take(pooled, np.arange(b), 0),
                                          T.take(pooled, np.arange(b, 2 * b), 0))
        total = T.add(total, T.mul(global_total, Tensor(np.asarray(lam_g, dtype=dt))))
        breakdown.global_disc = float(global_total.data)
    if need_region:
        sem_flat = T.reshape(sem, (n_rows, sem.data.shape[-1]))
        region_total = T.mul(L.region_disc(sem_flat, rows, region_targets), two)
        total = T.add(total, T.mul(region_total, Tensor(np.asarray(lam_r, dtype=dt))))
        breakdown.region_disc = float(region_total.data)
    breakdown.total = float(total.data)
    _update(model, optimizer, total, cfg)
    return breakdown


def _update(model: Detr, optimizer: AdamW, total: Tensor, cfg: RunConfig) -> float:
    """Backward from the loss, clip the optimizer's gradients, take one step."""
    model.zero_grads()
    total.backward()
    clip_global_norm(optimizer.params, cfg.train_clip_norm)
    optimizer.step()
    return float(total.data)


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
    return _set_loss_update(model, optimizer, layers if cfg.model_aux_loss else layers[-1:],
                            items, cfg)


def _set_loss_update(model: Detr, optimizer: AdamW, layers: list[Tensor],
                     items: list[LabeledItem], cfg: RunConfig) -> float:
    """Sum the set loss over the decoded-query layers and take one step."""
    targets = [(item.boxes, item.labels) for item in items]
    total = None
    for q_hat in layers:
        boxes, _, _ = model.predict(q_hat)
        loss = L.set_loss(model.class_logits(q_hat), boxes, targets)
        total = loss if total is None else T.add(total, loss)
    return _update(model, optimizer, total, cfg)


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
    if "config" not in meta:
        raise ValueError(f"no {META_PREFIX}config entry")
    try:
        stored = _config_values(array_to_text(meta["config"]))
    except UnicodeDecodeError:
        raise ValueError(f"{META_PREFIX}config is not UTF-8 text") from None
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
    for i, pixels in enumerate(images):
        if min(pixels.shape[:2]) < MIN_IMAGE_SIDE:
            raise ValueError(f"image {i} is {pixels.shape[1]}x{pixels.shape[0]}; view "
                             f"construction needs sides of at least {MIN_IMAGE_SIDE} px")
    backbone = FrozenBackbone(cfg.backbone_seed)
    model = make_model(cfg, backbone)
    optimizer = AdamW(model.params, lr=cfg.train_lr, weight_decay=cfg.train_weight_decay)
    start_epoch = 0
    if resume_from is not None:
        params, opt_state, meta = split_checkpoint(load_checkpoint(resume_from))
        if not opt_state:
            raise ValueError(f"{resume_from} holds no optimizer state; "
                             "resume needs an epoch_*.ckpt written by pretrain")
        try:
            check_architecture(meta, cfg)
            if "epoch" not in meta:
                raise ValueError(f"no {META_PREFIX}epoch entry")
            start_epoch = whole_count(meta["epoch"], META_PREFIX + "epoch")
            model.load_state(params)
        except ValueError as e:
            raise ValueError(f"{resume_from}: {e}") from None
        try:
            optimizer.load_state(opt_state)
        except ValueError as e:  # its messages lead with the entry name past "opt."
            raise ValueError(f"{resume_from}: opt.{e}") from None
    if on_start:
        on_start()
    os.makedirs(out_dir, exist_ok=True)

    batch = cfg.train_batch_size
    csv_path = os.path.join(out_dir, "metrics.csv")
    step = start_epoch * (len(images) // batch)
    mode = ("a" if resume_from is not None and os.path.exists(csv_path)
            and _drop_rows_from(csv_path, step) else "w")
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


def _drop_rows_from(csv_path: str, first_step: int) -> bool:
    """Cut metrics rows for steps >= first_step, which a resumed run writes
    again (left there when the run went on past the resumed checkpoint, or
    crashed mid-epoch); a partly written last line goes too. Returns False,
    changing nothing, for a file with no whole header line (empty, or cut
    inside it), which the caller then writes afresh."""
    with open(csv_path, newline="") as f:
        lines = f.readlines()
    if not lines or not lines[0].endswith("\n"):
        return False
    keep = lines[:1]
    for number, line in enumerate(lines[1:], 2):
        if not line.endswith("\n"):
            continue
        field = line.split(",", 1)[0]
        try:
            step = int(field)
        except ValueError:
            raise ValueError(f"{csv_path}:{number}: step {field!r} is not an integer") from None
        if step < first_step:
            keep.append(line)
    if len(keep) < len(lines):
        with open(csv_path, "w", newline="") as f:
            f.writelines(keep)
    return True


def _fmt(x: float) -> str:
    # %.9g round-trips float32 exactly; resume comparisons rely on it
    return f"{np.float32(x):.9g}"


def run_finetune(cfg: RunConfig, items: list[LabeledItem], seed: int,
                 init_arrays: dict[str, np.ndarray] | None = None,
                 log=None, on_start=None) -> tuple[Detr, list[float]]:
    """Supervised finetuning; init_arrays (from a pretraining checkpoint)
    seeds the transformer, the class head is always fresh. `on_start` is
    called once the inputs (items, init_arrays) pass their checks."""
    n_epochs = cfg.finetune_epochs
    if n_epochs < 1:
        raise ValueError(f"finetune needs at least 1 epoch, got {n_epochs}")
    _require_full_batch(len(items), cfg.finetune_batch_size, "finetune.batch_size")
    backbone = FrozenBackbone(cfg.backbone_seed)
    model = make_model(cfg, backbone)
    if init_arrays is not None:
        model.load_state(init_arrays)
    if on_start:
        on_start()
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
                if cached_q is not None:  # head-only step on the cached queries
                    loss = _set_loss_update(model, optimizer, [Tensor(cached_q[idx])],
                                            batch_items, cfg)
                else:
                    loss = finetune_step(model, optimizer, features[idx], batch_items, cfg)
            except FloatingPointError as e:
                raise FloatingPointError(f"{e} in epoch {epoch + 1}") from e
            losses.append(loss)
        if log:
            log(f"finetune epoch {epoch + 1}/{n_epochs}; loss {losses[-1]:.4f}")
    return model, losses
