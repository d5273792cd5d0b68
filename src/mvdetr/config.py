"""Flat key=value run configuration.

Keys are dotted (view.tau, loss.lambda_g, ...); field names map by replacing
the first dot with an underscore. Unknown keys are rejected with the full
list so operators see every problem at once. Every run logs the resolved
config and checkpoints embed it for compatibility checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


@dataclass
class RunConfig:
    seed: int = 0

    data_classes: int = 3

    view_tau: float = 0.5
    view_n: int = 10
    view_size: int = 128
    view_jitter: float = 0.1

    proposals_mode: str = "objectness"  # or "random"

    aug_flip_p: float = 0.5
    aug_color_p: float = 0.8
    aug_color_jitter: float = 0.4
    aug_grayscale_p: float = 0.2
    aug_blur_p: float = 0.5

    backbone_seed: int = 7

    model_d_model: int = 64
    model_heads: int = 4
    model_enc_layers: int = 2
    model_dec_layers: int = 2
    model_ffn_dim: int = 128
    model_aux_loss: bool = False  # set-loss on every decoder layer's output

    # a weight of 0 is the way to switch a term off
    loss_lambda_r: float = 1.0
    loss_lambda_g: float = 1.0
    loss_lambda_loc: float = 1.0
    loss_region_target: str = "crop"  # or "object"

    # full-scale DETR recipes use lr 1e-4 / clip 0.1; short desk schedules
    # at this model size and batch need the larger step
    train_lr: float = 1e-3
    train_weight_decay: float = 1e-4
    train_batch_size: int = 8
    train_epochs: int = 20
    train_decay_epoch: int = 14
    train_clip_norm: float = 0.5

    finetune_epochs: int = 30
    finetune_batch_size: int = 8
    finetune_freeze_transformer: bool = False

    # -- key mapping -------------------------------------------------------------

    @staticmethod
    def _key_of(field_name: str) -> str:
        return field_name.replace("_", ".", 1)

    @classmethod
    def key_map(cls) -> dict[str, str]:
        return {cls._key_of(f.name): f.name for f in fields(cls)}

    def resolved_text(self) -> str:
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{self._key_of(f.name)}={value}")
        return "\n".join(lines) + "\n"


class ConfigError(ValueError):
    pass


def _parse_value(raw: str, target_type: type):
    raw = raw.strip()
    if target_type is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if target_type is int:
        return int(raw)
    if target_type is float:
        return float(raw)
    return raw


def parse_config(text: str, overrides: list[str] | None = None) -> RunConfig:
    """Build a RunConfig from key=value lines plus --set style overrides."""
    cfg = RunConfig()
    key_map = RunConfig.key_map()
    types = {f.name: f.type for f in fields(RunConfig)}
    py_types = {"int": int, "float": float, "str": str, "bool": bool}
    problems: list[str] = []

    def apply(line: str, origin: str):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            return
        if "=" not in stripped:
            problems.append(f"{origin}: expected key=value, got {stripped!r}")
            return
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in key_map:
            problems.append(f"{origin}: unknown key {key!r}")
            return
        name = key_map[key]
        t = types[name]
        t = py_types[t] if isinstance(t, str) else t
        try:
            setattr(cfg, name, _parse_value(raw, t))
        except ValueError as e:
            problems.append(f"{origin}: bad value for {key}: {e}")

    for i, line in enumerate(text.splitlines(), start=1):
        apply(line, f"line {i}")
    for j, ov in enumerate(overrides or [], start=1):
        apply(ov, f"--set #{j}")
    _validate(cfg, problems)
    if problems:
        raise ConfigError("; ".join(problems))
    return cfg


def _validate(cfg: RunConfig, problems: list[str]) -> None:
    if not (0.0 < cfg.view_tau <= 1.0):
        problems.append(f"view.tau must be in (0, 1], got {cfg.view_tau}")
    if cfg.proposals_mode not in ("random", "objectness"):
        problems.append(f"proposals.mode must be random|objectness, got {cfg.proposals_mode!r}")
    if cfg.loss_region_target not in ("crop", "object"):
        problems.append(f"loss.region_target must be crop|object, got {cfg.loss_region_target!r}")
    for key, count in (("train.epochs", cfg.train_epochs),
                       ("finetune.epochs", cfg.finetune_epochs),
                       ("train.batch_size", cfg.train_batch_size),
                       ("finetune.batch_size", cfg.finetune_batch_size),
                       ("model.d_model", cfg.model_d_model),
                       ("model.heads", cfg.model_heads),
                       ("model.dec_layers", cfg.model_dec_layers),
                       ("model.ffn_dim", cfg.model_ffn_dim), ("view.n", cfg.view_n),
                       ("view.size", cfg.view_size), ("data.classes", cfg.data_classes)):
        if count < 1:
            problems.append(f"{key} must be at least 1, got {count}")
    if cfg.model_enc_layers < 0:
        problems.append(f"model.enc_layers must be at least 0, got {cfg.model_enc_layers}")
    if cfg.model_heads >= 1 and cfg.model_d_model % cfg.model_heads:
        problems.append(f"model.d_model ({cfg.model_d_model}) must be divisible by "
                        f"model.heads ({cfg.model_heads})")
    if cfg.model_d_model % 4:
        problems.append(f"model.d_model ({cfg.model_d_model}) must be divisible by 4 "
                        "(2d sine positional embeddings)")
    if cfg.train_decay_epoch >= cfg.train_epochs:
        problems.append(f"train.decay_epoch ({cfg.train_decay_epoch}) must be "
                        f"below train.epochs ({cfg.train_epochs})")
    # a jitter of 1 or more can draw a brightness factor of 0 or below
    for key, value in (("aug.color_jitter", cfg.aug_color_jitter),
                       ("view.jitter", cfg.view_jitter)):
        if not 0.0 <= value < 1.0:
            problems.append(f"{key} must be in [0, 1), got {value}")
    for key, value in (("aug.flip_p", cfg.aug_flip_p), ("aug.color_p", cfg.aug_color_p),
                       ("aug.grayscale_p", cfg.aug_grayscale_p),
                       ("aug.blur_p", cfg.aug_blur_p)):
        if not 0.0 <= value <= 1.0:
            problems.append(f"{key} is a probability and must be in [0, 1], got {value}")
    # written so that NaN fails too
    for key, value in (("loss.lambda_r", cfg.loss_lambda_r),
                       ("loss.lambda_g", cfg.loss_lambda_g),
                       ("loss.lambda_loc", cfg.loss_lambda_loc),
                       ("train.weight_decay", cfg.train_weight_decay),
                       ("train.clip_norm", cfg.train_clip_norm)):
        if not 0.0 <= value < math.inf:
            problems.append(f"{key} must be finite and at least 0, got {value}")
    if not 0.0 < cfg.train_lr < math.inf:
        problems.append(f"train.lr must be finite and above 0, got {cfg.train_lr}")
    if cfg.view_size % 8:
        problems.append(f"view.size must be divisible by 8, got {cfg.view_size}")
    if cfg.train_batch_size < 2 and cfg.loss_lambda_g > 0:
        problems.append("global discrimination needs train.batch_size >= 2 "
                        "(batch norm in the projector)")
