"""The three workloads and the inputs they are given.

Every input is generated from the workload seed with ``data.generate_dataset``
(and, for ``eval``, a short ``run_finetune``) into a cache keyed by the seed,
the sizes and a hash of the program sources, outside any timed region. A
workload process receives only the generated files.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    images: int            # images one workload process runs through its main call
    overrides: tuple[str, ...]
    op: str                # the one call each operation is timed around
    size_arg: int          # positional argument of `op` holding the batch
    ckpt_images: int = 0   # eval only: training images behind its checkpoint
    ckpt_overrides: tuple[str, ...] = ()


# Default config (B=8, view 128, crop targets, objectness proposals, n=10);
# two epochs so an epoch boundary writes a checkpoint mid-run.
PRETRAIN = Workload("pretrain", images=64,
                    overrides=("train.epochs=2", "train.decay_epoch=1"),
                    op="training.pretrain_step", size_arg=3)
# From scratch with the transformer trainable: same model, loss and optimizer
# layers as pretrain, but no views, crop targets, RoIAlign or conditioning.
# Two epochs: later ones split seeds into fast and slow learners, and
# loss_last would then spread by ~25% across seeds.
FINETUNE = Workload("finetune", images=128,
                    overrides=("finetune.epochs=2", "finetune.freeze_transformer=false"),
                    op="training.finetune_step", size_arg=3)
# Forward only over a checkpoint with a class head: no backward, optimizer or
# matching; exercises resize-to-view, tape recording in inference and AP/AR.
EVAL = Workload("eval", images=256, overrides=(),
                op="metrics.detect_batch", size_arg=2,
                ckpt_images=64, ckpt_overrides=("finetune.epochs=2",))

WORKLOADS = {w.name: w for w in (PRETRAIN, FINETUNE, EVAL)}
EVAL_BATCH = 16
IMAGE_SIZE = 160


def source_hash(src_dir: str) -> str:
    """Hash of the program's sources; cached inputs are only reused unchanged."""
    h = hashlib.sha256()
    pkg = os.path.join(src_dir, "mvdetr")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def _scene_seed(seed: int, stream: int) -> int:
    return seed * 8 + stream


def prepare_inputs(w: Workload, seed: int, cache_root: str, src_dir: str) -> dict:
    """Generate (or reuse) the workload's input files; returns their paths."""
    key = (f"{w.name}-seed{seed}-n{w.images}-c{w.ckpt_images}-px{IMAGE_SIZE}-"
           f"{source_hash(src_dir)}")
    final = os.path.join(cache_root, key)
    index = os.path.join(final, "inputs.json")
    if not os.path.exists(index):
        _build(w, seed, final)
    with open(index, encoding="ascii") as f:
        inputs = json.load(f)
    for k in ("manifest", "checkpoint"):
        if k in inputs:
            inputs[k] = os.path.join(final, inputs[k])
    return inputs


def _build(w: Workload, seed: int, final: str) -> None:
    tmp = final + f".tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        inputs = _generate(w, seed, tmp)
        with open(os.path.join(tmp, "inputs.json"), "w", encoding="ascii") as f:
            json.dump(inputs, f)
        os.replace(tmp, final)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _generate(w: Workload, seed: int, out: str) -> dict:
    from mvdetr.data import SceneSpec, generate_dataset
    generate_dataset(w.images, SceneSpec(image_size=IMAGE_SIZE, seed=_scene_seed(seed, 0)),
                     os.path.join(out, "data"))
    # paths are relative to the cache entry, which is renamed into place
    inputs = {"manifest": os.path.join("data", "manifest.txt")}
    if w.name == "eval":
        inputs.update(_eval_checkpoint(w, seed, out))
    return inputs


def _eval_checkpoint(w: Workload, seed: int, out: str) -> dict:
    """A short deterministic finetune on its own generated set, saved with
    its class head; its final-epoch loss is the eval workload's loss_last."""
    from mvdetr.checkpoint import save_checkpoint
    from mvdetr.config import parse_config
    from mvdetr.data import SceneSpec, generate_dataset, load_dataset
    from mvdetr.training import checkpoint_entries, labeled_item, run_finetune
    manifest = generate_dataset(
        w.ckpt_images, SceneSpec(image_size=IMAGE_SIZE, seed=_scene_seed(seed, 1)),
        os.path.join(out, "ckpt_data"))
    cfg = parse_config("", list(w.ckpt_overrides))
    items = [labeled_item(px, boxes, labels)
             for px, boxes, labels in load_dataset(manifest)]
    model, losses = run_finetune(cfg, items, seed=0)
    save_checkpoint(os.path.join(out, "eval.ckpt"), checkpoint_entries(model, None, cfg, 0))
    shutil.rmtree(os.path.join(out, "ckpt_data"))
    steps_per_epoch = len(items) // cfg.finetune_batch_size
    last = losses[-steps_per_epoch:]
    return {"checkpoint": "eval.ckpt", "checkpoint_loss": sum(last) / len(last)}

