"""Flat key=value config parsing and validation."""

import pytest

from mvdetr.config import ConfigError, RunConfig, parse_config


def test_defaults():
    cfg = parse_config("")
    assert cfg.view_tau == 0.5
    assert cfg.view_n == 10
    assert cfg.train_lr == 1e-3  # desk-scale deviation; paper value via config
    assert cfg.train_weight_decay == 1e-4
    assert cfg.loss_lambda_loc == 1.0
    assert cfg.train_decay_epoch < cfg.train_epochs


def test_parse_and_override():
    cfg = parse_config("view.tau=0.6\ntrain.batch_size=4\n",
                       overrides=["loss.lambda_g=0", "loss.lambda_r=0"])
    assert cfg.view_tau == 0.6
    assert cfg.train_batch_size == 4
    assert (cfg.loss_lambda_r, cfg.loss_lambda_g, cfg.loss_lambda_loc) == (0.0, 0.0, 1.0)


def test_bools_and_comments():
    cfg = parse_config("# comment line\nmodel.aux_loss=true\n\n"
                       "finetune.freeze_transformer=false\n")
    assert cfg.model_aux_loss and not cfg.finetune_freeze_transformer


def test_removed_enable_flags_rejected():
    # lambda = 0 is the one way to switch a loss term off
    for key in ("loss.enable_g", "loss.enable_r"):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(f"{key}=false\n")


def test_unknown_keys_all_reported():
    with pytest.raises(ConfigError) as exc:
        parse_config("bogus.key=1\nanother.one=2\n")
    msg = str(exc.value)
    assert "bogus.key" in msg and "another.one" in msg


def test_removed_size_keys_rejected():
    # the query count is view.n, and no run reads a data image size
    for key in ("model.queries", "data.image_size"):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(f"{key}=10\n")


def test_validation_decay_before_end():
    with pytest.raises(ConfigError, match="decay_epoch"):
        parse_config("train.epochs=5\ntrain.decay_epoch=7\n")


@pytest.mark.parametrize("text,key", [
    ("train.epochs=0\ntrain.decay_epoch=-1\n", "train.epochs"),
    ("finetune.epochs=0\n", "finetune.epochs"),
    ("finetune.epochs=-3\n", "finetune.epochs"),
])
def test_validation_epochs_at_least_one(text, key):
    with pytest.raises(ConfigError, match=f"{key} must be at least 1"):
        parse_config(text)


@pytest.mark.parametrize("key,value,bound", [
    ("loss.lambda_r", "-1", "finite and at least 0"),
    ("loss.lambda_g", "-0.5", "finite and at least 0"),
    ("loss.lambda_loc", "nan", "finite and at least 0"),
    ("train.weight_decay", "-1e-4", "finite and at least 0"),
    ("train.lr", "0", "finite and above 0"),
    ("train.lr", "-inf", "finite and above 0"),
])
def test_training_numbers_out_of_range(key, value, bound):
    with pytest.raises(ConfigError, match=f"{key} must be {bound}, got {float(value)}"):
        parse_config(f"{key}={value}\n")


def test_training_numbers_at_their_bounds():
    # a weight of 0 switches a term off; a clip norm of 0 switches clipping off
    cfg = parse_config("loss.lambda_r=0\nloss.lambda_loc=0\ntrain.weight_decay=0\n"
                       "train.clip_norm=0\ntrain.lr=1e-9\n")
    assert (cfg.loss_lambda_r, cfg.train_clip_norm, cfg.train_lr) == (0.0, 0.0, 1e-9)


def test_region_target_values():
    cfg = parse_config("loss.region_target=object\n")
    assert cfg.loss_region_target == "object"
    with pytest.raises(ConfigError):
        parse_config("loss.region_target=banana\n")


def test_resolved_text_round_trips():
    cfg = parse_config("view.tau=0.7\nproposals.mode=random\n")
    again = parse_config(cfg.resolved_text())
    assert again == cfg


def test_every_field_reachable_by_key():
    mapping = RunConfig.key_map()
    assert "view.tau" in mapping
    assert "loss.lambda_r" in mapping
    assert "finetune.freeze_transformer" in mapping
    assert len(mapping) == len(set(mapping.values()))
    assert len(mapping) == 32
