"""CLI: subcommand wiring, exit codes, reproducible file outputs."""

import io
import os
import platform
import re
import sys

import numpy as np
import pytest

from helpers import assert_reaped, producer_pids
from mvdetr.cli import main

CFG_SMALL = "\n".join([
    "train.batch_size=2", "train.epochs=1", "train.decay_epoch=0",
    "view.size=64",
    "model.d_model=32", "model.heads=2", "model.enc_layers=1",
    "model.dec_layers=1", "model.ffn_dim=32", "view.n=6",
    "finetune.epochs=2", "finetune.batch_size=2",
]) + "\n"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "small.cfg"
    # decay_epoch must stay below epochs; 0 means immediate decay, fine for smoke
    cfg_path.write_text(CFG_SMALL.replace("train.decay_epoch=0",
                                          "train.decay_epoch=0"))
    data_dir = root / "data"
    rc = main(["gen-data", "--count", "8", "--seed", "3", "--out", str(data_dir),
               "--size", "96"])
    assert rc == 0
    return root, str(cfg_path), str(data_dir / "manifest.txt")


def _untrained_checkpoint(cfg_path, path, optimizer=False, meta=None) -> str:
    """An untrained model's checkpoint, with optimizer state when `optimizer`;
    each `meta` item replaces the entry `__meta__.<key>`, or drops it for None."""
    from mvdetr.backbone import FrozenBackbone
    from mvdetr.checkpoint import save_checkpoint
    from mvdetr.config import parse_config
    from mvdetr.optim import AdamW
    from mvdetr.training import checkpoint_entries, make_model
    cfg = parse_config(open(cfg_path).read())
    model = make_model(cfg, FrozenBackbone(cfg.backbone_seed))
    opt = AdamW(model.params, lr=cfg.train_lr, weight_decay=1e-4) if optimizer else None
    entries = checkpoint_entries(model, opt, cfg, 0)
    for key, value in (meta or {}).items():
        entries.pop(f"__meta__.{key}")
        if value is not None:
            entries[f"__meta__.{key}"] = value
    save_checkpoint(str(path), entries)
    return str(path)


class TestGenData:
    def test_repeat_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-data", "--count", "3", "--seed", "9", "--out", str(a)]) == 0
        assert main(["gen-data", "--count", "3", "--seed", "9", "--out", str(b)]) == 0
        for name in sorted(os.listdir(a)):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_count_below_one_is_one(self, tmp_path, capsys, count):
        rc = main(["gen-data", "--count", count, "--seed", "1",
                   "--out", str(tmp_path / "empty")])
        assert rc == 1
        assert "argument --count: must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "empty").exists()

    @pytest.mark.parametrize("size", ["0", "20"])
    def test_no_room_for_objects_is_two(self, tmp_path, capsys, size):
        rc = main(["gen-data", "--count", "2", "--seed", "1",
                   "--out", str(tmp_path / "tiny"), "--size", size])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"image size {size} " in err
        assert not (tmp_path / "tiny").exists()

    @pytest.mark.parametrize("size,short", [("36", 20), ("160", 0)])
    def test_reports_images_short_of_objects(self, tmp_path, capsys, size, short):
        # at 36 px no second object fits beside the first within the IoU limit
        assert main(["gen-data", "--count", "20", "--seed", "1",
                     "--out", str(tmp_path / "d"), "--size", size]) == 0
        err = capsys.readouterr().err
        if short:
            assert err == (f"warning: {short} of 20 images hold fewer than 2 objects "
                           "(no room for more at IoU <= 0.3)\n")
        else:
            assert err == ""


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert main(["pretrain"]) == 1  # missing required flags

    def test_unknown_config_key_is_one(self, workspace):
        root, cfg, manifest = workspace
        rc = main(["pretrain", "--config", cfg, "--data", manifest,
                   "--out", str(root / "x"), "--set", "not.a.key=1"])
        assert rc == 1

    def test_removed_enable_flag_is_one(self, workspace):
        root, cfg, manifest = workspace
        rc = main(["pretrain", "--config", cfg, "--data", manifest,
                   "--out", str(root / "x"), "--set", "loss.enable_g=false"])
        assert rc == 1

    @pytest.mark.parametrize("command,sets", [
        ("pretrain", ["train.epochs=0", "train.decay_epoch=-1"]),
        ("finetune", ["finetune.epochs=0"]),
    ])
    def test_zero_epochs_is_one(self, workspace, capsys, command, sets):
        root, cfg, manifest = workspace
        argv = [command, "--config", cfg, "--data", manifest,
                "--out", str(root / f"zero_{command}")]
        for s in sets:
            argv += ["--set", s]
        assert main(argv) == 1
        assert "epochs must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command,sets,message", [
        ("pretrain", ["model.heads=3"], "model.d_model (32) must be divisible by "
                                        "model.heads (3)"),
        ("pretrain", ["model.heads=0"], "model.heads must be at least 1, got 0"),
        ("pretrain", ["model.d_model=30"], "model.d_model (30) must be divisible by 4"),
        ("pretrain", ["model.d_model=0"], "model.d_model must be at least 1, got 0"),
        ("pretrain", ["view.n=0"], "view.n must be at least 1, got 0"),
        ("pretrain", ["view.size=0"], "view.size must be at least 1, got 0"),
        ("pretrain", ["train.batch_size=0", "loss.lambda_g=0"],
         "train.batch_size must be at least 1, got 0"),
        ("finetune", ["finetune.batch_size=0"],
         "finetune.batch_size must be at least 1, got 0"),
        ("finetune", ["data.classes=0"], "data.classes must be at least 1, got 0"),
        ("finetune", ["model.dec_layers=0"], "model.dec_layers must be at least 1, got 0"),
        ("finetune", ["model.ffn_dim=0"], "model.ffn_dim must be at least 1, got 0"),
        ("pretrain", ["model.enc_layers=-1"], "model.enc_layers must be at least 0, got -1"),
        ("pretrain", ["train.lr=nan"], "train.lr must be finite and above 0, got nan"),
        ("finetune", ["train.lr=inf"], "train.lr must be finite and above 0, got inf"),
        ("pretrain", ["train.lr=-1"], "train.lr must be finite and above 0, got -1.0"),
        ("finetune", ["train.weight_decay=nan"],
         "train.weight_decay must be finite and at least 0, got nan"),
        ("pretrain", ["train.clip_norm=nan"],
         "train.clip_norm must be finite and at least 0, got nan"),
        ("pretrain", ["loss.lambda_g=inf"],
         "loss.lambda_g must be finite and at least 0, got inf"),
        ("pretrain", ["loss.lambda_r=nan"],
         "loss.lambda_r must be finite and at least 0, got nan"),
    ], ids=["heads_split_d_model", "no_heads", "d_model_by_4", "no_d_model", "no_proposals",
            "no_view_size", "no_train_batch", "no_finetune_batch", "no_classes",
            "no_decoder", "no_ffn", "negative_encoder", "nan_lr", "infinite_lr",
            "negative_lr", "nan_weight_decay", "nan_clip_norm", "infinite_lambda_g",
            "nan_lambda_r"])
    def test_bad_sizes_are_config_errors(self, workspace, capsys, command, sets, message):
        # rejected while parsing, before the output directory is touched
        root, cfg, manifest = workspace
        out = root / "bad_sizes"
        argv = [command, "--config", cfg, "--data", manifest, "--out", str(out)]
        for s in sets:
            argv += ["--set", s]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("content", [None, b"train.epochs=1\n\xff\xfe\n"],
                             ids=["missing", "not_utf8"])
    def test_unreadable_config_file_is_one(self, workspace, tmp_path, capsys, content):
        _, _, manifest = workspace
        cfg = tmp_path / "run.cfg"
        if content is not None:
            cfg.write_bytes(content)
        out = tmp_path / "run"
        assert main(["pretrain", "--config", str(cfg), "--data", manifest,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(cfg) in err
        assert not out.exists()

    @pytest.mark.parametrize("key,value,bounds", [
        ("aug.color_jitter", "2", "[0, 1)"), ("aug.color_jitter", "1", "[0, 1)"),
        ("aug.color_jitter", "-0.1", "[0, 1)"), ("view.jitter", "-1", "[0, 1)"),
        ("view.jitter", "1", "[0, 1)"), ("aug.flip_p", "1.5", "[0, 1]"),
        ("aug.color_p", "-0.2", "[0, 1]"), ("aug.grayscale_p", "2", "[0, 1]"),
        ("aug.blur_p", "nan", "[0, 1]"),
    ])
    def test_augmentation_out_of_range_is_one(self, workspace, capsys, key, value, bounds):
        root, cfg, manifest = workspace
        out = root / "bad_aug"
        assert main(["pretrain", "--config", cfg, "--data", manifest, "--out", str(out),
                     "--set", f"{key}={value}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"{key} " in err
        assert f"must be in {bounds}, got {float(value)}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["finetune", "eval", "probe"])
    def test_label_outside_classes_is_two(self, workspace, tmp_path, capsys, monkeypatch,
                                          command):
        # the generated set labels shapes 0-2; two classes leave label 2 out
        import mvdetr.training
        finetunes = []
        monkeypatch.setattr(mvdetr.training, "run_finetune",
                            lambda *a, **kw: finetunes.append(a) or (None, []))
        root, cfg, manifest = workspace
        ckpt = _untrained_checkpoint(cfg, tmp_path / "init.ckpt")
        out = tmp_path / "out"
        argv = {"finetune": ["finetune", "--data", manifest, "--out", str(out)],
                "eval": ["eval", "--data", manifest, "--checkpoint", ckpt,
                         "--out", str(out)],
                "probe": ["probe", "--data", manifest, "--eval-data", manifest,
                          "--init", ckpt, "--out", str(out), "--epochs", "1",
                          "--seeds", "1"]}[command]
        assert main(argv + ["--config", cfg, "--set", "data.classes=2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}:") and err.endswith(
            ": label 2 is outside [0, 2) for data.classes=2\n")
        assert finetunes == [] and not out.exists()

    @pytest.mark.parametrize("flag", ["--seeds", "--epochs"])
    def test_probe_count_below_one_is_one(self, workspace, capsys, flag):
        # rejected while parsing, before the (missing) checkpoint is read
        root, cfg, manifest = workspace
        rc = main(["probe", "--config", cfg, "--data", manifest,
                   "--eval-data", manifest, "--init", str(root / "none.ckpt"),
                   flag, "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert f"argument {flag}: must be at least 1" in err

    def test_truncated_manifest_is_two(self, workspace, tmp_path, capsys):
        root, cfg, manifest = workspace
        text = open(manifest).read().replace("manifest v1 8", "manifest v1 9", 1)
        short = tmp_path / "manifest.txt"  # rejected before any image is read
        short.write_text(text)
        rc = main(["pretrain", "--config", cfg, "--data", str(short),
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "header declares 9 images, found 8 image blocks" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "probe"])
    def test_eval_set_without_ground_truth_is_two(self, workspace, tmp_path, capsys,
                                                  monkeypatch, command):
        import mvdetr.training
        finetunes = []  # probe must reject the eval set before it trains
        monkeypatch.setattr(mvdetr.training, "run_finetune",
                            lambda *a, **kw: finetunes.append(a) or (None, []))
        root, cfg, manifest = workspace
        empty = tmp_path / "manifest.txt"
        empty.write_text("manifest v1 0\n")
        ckpt = _untrained_checkpoint(cfg, tmp_path / "init.ckpt")
        if command == "eval":
            argv = ["eval", "--config", cfg, "--data", str(empty), "--checkpoint", ckpt]
        else:
            argv = ["probe", "--config", cfg, "--data", manifest, "--eval-data",
                    str(empty), "--init", ckpt, "--epochs", "1", "--seeds", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: eval set has no ground-truth boxes (0 images)\n")
        assert finetunes == []

    def test_class_score_without_class_head_is_two(self, workspace, tmp_path, capsys):
        root, cfg, manifest = workspace
        ckpt = _untrained_checkpoint(cfg, tmp_path / "pre.ckpt")  # no class head
        assert main(["eval", "--config", cfg, "--data", manifest,
                     "--checkpoint", ckpt]) == 2
        assert capsys.readouterr().err == (
            f"error: checkpoint {ckpt} has no class head; score it with --score match\n")

    def test_zero_size_image_names_the_file_and_is_two(self, workspace, tmp_path, capsys):
        root, cfg, _ = workspace
        (tmp_path / "empty.ppm").write_bytes(b"P6 0 0 255\n")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("manifest v1 1\n\nempty.ppm 1 2 30 40 1\n")
        ckpt = _untrained_checkpoint(cfg, tmp_path / "init.ckpt")
        assert main(["eval", "--config", cfg, "--data", str(manifest),
                     "--checkpoint", ckpt]) == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'empty.ppm'}: image size must be positive, got 0x0\n")

    @pytest.mark.parametrize("box,problem", [
        ("nan 2 30 40", "non-finite box (nan, 2.0, 30.0, 40.0)"),
        ("30 2 1 40", "box corners out of order (30.0, 2.0, 1.0, 40.0)"),
        ("31.99 2 31.99 40", "empty box (31.99, 2.0, 31.99, 40.0)"),
    ], ids=["non_finite", "out_of_order", "empty"])
    def test_bad_box_names_manifest_line_and_is_two(self, workspace, tmp_path, capsys,
                                                    box, problem):
        root, cfg, manifest = workspace
        lines = open(manifest).read().splitlines()
        lines[2] = " ".join([lines[2].split()[0], box, "1"])
        bad = os.path.join(os.path.dirname(manifest), "bad_box.txt")
        with open(bad, "w") as f:
            f.write("\n".join(lines) + "\n")
        rc = main(["finetune", "--config", cfg, "--data", bad,
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}:3: {problem}\n"
        assert not (tmp_path / "run").exists()

    def test_resume_without_optimizer_state_is_two(self, workspace, tmp_path, capsys):
        # like finetune's finetuned.ckpt: model arrays, no opt.* entries
        root, cfg, manifest = workspace
        ckpt = _untrained_checkpoint(cfg, tmp_path / "no_opt.ckpt")
        out = tmp_path / "resumed"
        assert main(["pretrain", "--config", cfg, "--data", manifest, "--out", str(out),
                     "--resume", ckpt]) == 2
        assert capsys.readouterr().err == (
            f"error: {ckpt} holds no optimizer state; "
            "resume needs an epoch_*.ckpt written by pretrain\n")
        assert not out.exists()

    @pytest.mark.parametrize("command,key,value,problem", [
        ("eval", "config", None, "no __meta__.config entry"),
        ("finetune", "config", None, "no __meta__.config entry"),
        ("pretrain", "config", None, "no __meta__.config entry"),
        ("pretrain", "epoch", None, "no __meta__.epoch entry"),
        ("eval", "config", np.array([255.0], np.float32), "__meta__.config is not UTF-8 text"),
        ("finetune", "config", np.array([255.0], np.float32),
         "__meta__.config is not UTF-8 text"),
        ("pretrain", "config", np.array([255.0], np.float32),
         "__meta__.config is not UTF-8 text"),
    ], ids=["eval_no_config", "finetune_no_config", "resume_no_config", "resume_no_epoch",
            "eval_config_not_utf8", "finetune_config_not_utf8", "resume_config_not_utf8"])
    def test_bad_checkpoint_meta_names_the_file_and_is_two(self, workspace, tmp_path, capsys,
                                                           command, key, value, problem):
        root, cfg, manifest = workspace
        ckpt = _untrained_checkpoint(cfg, tmp_path / "bad.ckpt", optimizer=True,
                                     meta={key: value})
        out = tmp_path / "out"
        flag = {"eval": "--checkpoint", "finetune": "--init", "pretrain": "--resume"}[command]
        argv = [command, "--config", cfg, "--data", manifest, flag, ckpt]
        if command != "eval":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {ckpt}: {problem}\n"
        assert not out.exists()

    @pytest.mark.parametrize("entry,value,problem", [
        ("__meta__.epoch", np.zeros(0, np.float32),
         "__meta__.epoch holds [], not one whole number >= 0"),
        ("__meta__.epoch", np.array([-1.0], np.float32),
         "__meta__.epoch holds [-1.0], not one whole number >= 0"),
        ("__meta__.epoch", np.array([1.5], np.float32),
         "__meta__.epoch holds [1.5], not one whole number >= 0"),
        ("opt.t", np.zeros(0, np.float32), "opt.t holds [], not one whole number >= 0"),
        ("opt.m.input_proj.weight", None, "opt.m.input_proj.weight is missing"),
        ("opt.m.input_proj.weight", np.zeros(1, np.float32),
         "opt.m.input_proj.weight has shape (1,), expected (64, 32)"),
        ("opt.v.head.match.bias", np.zeros(3, np.float32),
         "opt.v.head.match.bias has shape (3,), expected (1,)"),
        ("opt.m.input_proj.weight", np.full((64, 32), np.nan, np.float32),
         "opt.m.input_proj.weight holds a non-finite value"),
        ("opt.v.input_proj.weight", np.full((64, 32), -1.0, np.float32),
         "opt.v.input_proj.weight holds a negative value"),
    ], ids=["epoch_empty", "epoch_negative", "epoch_fractional", "t_empty",
            "moment_missing", "moment_misshapen", "second_moment_misshapen",
            "moment_non_finite", "second_moment_negative"])
    def test_bad_resume_state_names_the_file_and_is_two(self, workspace, tmp_path, capsys,
                                                        entry, value, problem):
        # each fault is caught before run.txt, metrics.csv or a checkpoint is written
        from mvdetr.checkpoint import load_checkpoint, save_checkpoint
        root, cfg, manifest = workspace
        ckpt = _untrained_checkpoint(cfg, tmp_path / "bad.ckpt", optimizer=True)
        entries = load_checkpoint(ckpt)
        entries.pop(entry)
        if value is not None:
            entries[entry] = value
        save_checkpoint(ckpt, entries)
        out = tmp_path / "out"
        assert main(["pretrain", "--config", cfg, "--data", manifest, "--out", str(out),
                     "--resume", ckpt]) == 2
        assert capsys.readouterr().err == f"error: {ckpt}: {problem}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pretrain", "finetune", "eval", "probe",
                                         "export-attn"])
    @pytest.mark.parametrize("value,problem", [
        (np.zeros(1, np.float32), "input_proj.weight has shape (1,), expected (64, 32)"),
        (None, "input_proj.weight is missing"),
        (np.full((64, 32), np.nan, np.float32), "input_proj.weight holds a non-finite value"),
    ], ids=["reshaped", "missing", "non_finite"])
    def test_bad_model_entry_names_the_file_and_is_two(self, workspace, tmp_path, capsys,
                                                       command, value, problem):
        # caught before run.txt or any other output is written
        from mvdetr.checkpoint import load_checkpoint, save_checkpoint
        root, cfg, manifest = workspace
        ckpt = _untrained_checkpoint(cfg, tmp_path / "bad.ckpt", optimizer=True)
        entries = load_checkpoint(ckpt)
        entries.pop("input_proj.weight")
        if value is not None:
            entries["input_proj.weight"] = value
        save_checkpoint(ckpt, entries)
        out = tmp_path / "out"
        argv = {
            "pretrain": ["--data", manifest, "--resume", ckpt],
            "finetune": ["--data", manifest, "--init", ckpt],
            "eval": ["--data", manifest, "--checkpoint", ckpt],
            "probe": ["--data", manifest, "--eval-data", manifest, "--init", ckpt],
            "export-attn": ["--checkpoint", ckpt,
                            "--image", os.path.join(os.path.dirname(manifest),
                                                    "img_00000.ppm")],
        }[command]
        assert main([command, "--config", cfg, "--out", str(out)] + argv) == 2
        assert capsys.readouterr().err == f"error: {ckpt}: {problem}\n"
        assert not out.exists()

    def test_image_too_small_for_views_is_two(self, workspace, tmp_path, capsys):
        # four 96-px images, then a 40x24 one: index 4 in dataset order
        root, cfg, _ = workspace
        from mvdetr.data import SceneSpec, generate_dataset, write_ppm
        data = tmp_path / "data"
        manifest = generate_dataset(4, SceneSpec(image_size=96, seed=3), str(data))
        write_ppm(str(data / "small.ppm"), np.zeros((24, 40, 3), np.float32))
        text = open(manifest).read().replace("manifest v1 4", "manifest v1 5")
        open(manifest, "w").write(text + "\nsmall.ppm\n")
        out = tmp_path / "out"
        assert main(["pretrain", "--config", cfg, "--data", manifest, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: image 4 is 40x24; view construction needs sides of at least 32 px\n")
        assert not out.exists()

    def test_missing_data_is_two(self, workspace):
        root, cfg, _ = workspace
        rc = main(["pretrain", "--config", cfg, "--data",
                   str(root / "nope" / "manifest.txt"), "--out", str(root / "x")])
        assert rc == 2


class TestNonFiniteGradient:
    @pytest.mark.parametrize("command,bad_step,epoch,hint", [
        ("pretrain", 3, 1, "; no epoch_*.ckpt in {out} yet"),
        ("pretrain", 6, 2, "; resume from {out}/epoch_0001.ckpt"),
        ("finetune", 6, 2, ""),  # finetune saves no checkpoint until it ends
    ], ids=["pretrain_first_epoch", "pretrain_second_epoch", "finetune"])
    def test_error_names_epoch_and_checkpoint(self, workspace, tmp_path, capsys, monkeypatch,
                                              command, bad_step, epoch, hint):
        # 8 images at batch 2: four optimizer steps per epoch
        from mvdetr.optim import AdamW
        step = AdamW.step

        def poisoned(self):
            if self.t + 1 == bad_step:
                self.params[self.names[0]].grad[...] = np.nan
            step(self)

        monkeypatch.setattr(AdamW, "step", poisoned)
        root, cfg, manifest = workspace
        out = tmp_path / "run"
        assert main([command, "--config", cfg, "--data", manifest, "--out", str(out),
                     "--set", "train.epochs=2", "--set", "train.decay_epoch=1"]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: non-finite gradient in parameter 'input_proj.weight' "
                       f"at optimizer step {bad_step} in epoch {epoch}"
                       + hint.format(out=out) + "\n")


class TestTooFewImages:
    @pytest.fixture(scope="class")
    def three_images(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("few")
        assert main(["gen-data", "--count", "3", "--seed", "3", "--out",
                     str(root / "data"), "--size", "96"]) == 0
        cfg_path = root / "small.cfg"
        cfg_path.write_text(CFG_SMALL)
        return root, str(cfg_path), str(root / "data" / "manifest.txt")

    @pytest.mark.parametrize("command,key", [("pretrain", "train.batch_size"),
                                             ("finetune", "finetune.batch_size")])
    def test_exit_two_names_batch_key(self, three_images, capsys, command, key):
        root, cfg, manifest = three_images
        rc = main([command, "--config", cfg, "--data", manifest,
                   "--out", str(root / command), "--set", f"{key}=4"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "3 images" in err and f"{key}=4" in err

    @pytest.mark.parametrize("command,key", [("pretrain", "train.batch_size"),
                                             ("finetune", "finetune.batch_size")])
    def test_rejected_run_writes_no_manifest(self, three_images, command, key):
        root, cfg, manifest = three_images
        out = root / f"{command}_unwritten"
        assert main([command, "--config", cfg, "--data", manifest,
                     "--out", str(out), "--set", f"{key}=4"]) == 2
        assert not (out / "run.txt").exists()

    @pytest.mark.parametrize("command,key", [("pretrain", "train.batch_size"),
                                             ("finetune", "finetune.batch_size")])
    def test_empty_manifest_is_two_and_names_batch_key(self, three_images, capsys,
                                                        command, key):
        root, cfg, _ = three_images
        empty = root / "empty.txt"
        empty.write_text("manifest v1 0\n")
        out = root / f"{command}_empty"
        assert main([command, "--config", cfg, "--data", str(empty),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: 0 images cannot fill one batch of {key}=2\n")
        assert not (out / "run.txt").exists()


def test_run_notes_say_when_allocator_left_alone(monkeypatch):
    from mvdetr import cli, tensor
    monkeypatch.setattr(tensor, "MALLOC_THRESHOLDS", None)
    assert cli._numerics_notes()[-1] == "malloc: platform allocator left as it is"


class TestPretrainProducer:
    """`pretrain` forks a batch producer; the process that runs the CLI
    still writes each line once and fails with exit 2, never a traceback."""

    def test_each_log_line_appears_once(self, workspace, tmp_path, capfd, monkeypatch):
        root, cfg, manifest = workspace
        out = str(tmp_path / "pre")
        pids = producer_pids(monkeypatch)
        # block-buffered, as when stdout is a pipe or a file, and holding a
        # line when the producer is forked
        stdout = io.TextIOWrapper(io.BufferedWriter(io.FileIO(os.dup(1), "w")))
        monkeypatch.setattr(sys, "stdout", stdout)
        try:
            stdout.write("written before the run\n")
            assert main(["pretrain", "--config", cfg, "--data", manifest, "--out", out,
                         "--set", "train.epochs=2", "--set", "train.decay_epoch=1"]) == 0
        finally:
            stdout.close()
        lines = capfd.readouterr().out.splitlines()
        assert [re.sub(r";.*|: .*", "", line) for line in lines] == [
            "written before the run", "epoch 1/2 done", "epoch 2/2 done",
            "final checkpoint", "metrics"]
        assert len(pids) == 1
        assert_reaped(pids)

    def test_dead_producer_is_two(self, workspace, tmp_path, capsys, monkeypatch):
        from mvdetr import training
        root, cfg, manifest = workspace
        real = training.build_view_pair
        parent = os.getpid()

        def build(*args):
            if os.getpid() != parent:
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(training, "build_view_pair", build)
        pids = producer_pids(monkeypatch)
        assert main(["pretrain", "--config", cfg, "--data", manifest,
                     "--out", str(tmp_path / "pre")]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: batch producer process \d+ exited with status 3\n", err)
        assert len(pids) == 1
        assert_reaped(pids)


@pytest.mark.usefixtures("deadline")
class TestEvalProducer:
    """`eval` on a set of three or more batches forks a producer; the process
    that runs the CLI still prints the report once and fails with exit 2."""

    @pytest.fixture(scope="class")
    def eval_set(self, workspace):
        root, cfg, _ = workspace
        data = root / "eval40"
        assert main(["gen-data", "--count", "40", "--seed", "9", "--out", str(data),
                     "--size", "64"]) == 0  # three batches of 16
        ckpt = _untrained_checkpoint(cfg, root / "eval40.ckpt")
        return cfg, str(data / "manifest.txt"), ckpt

    def _eval(self, eval_set):
        cfg, manifest, ckpt = eval_set
        return main(["eval", "--config", cfg, "--data", manifest, "--checkpoint", ckpt,
                     "--score", "match"])

    def test_report_printed_once(self, eval_set, capfd, monkeypatch):
        pids = producer_pids(monkeypatch)
        # block-buffered, as when stdout is a pipe or a file, and holding a
        # line when the producer is forked
        stdout = io.TextIOWrapper(io.BufferedWriter(io.FileIO(os.dup(1), "w")))
        monkeypatch.setattr(sys, "stdout", stdout)
        try:
            stdout.write("written before the run\n")
            assert self._eval(eval_set) == 0
        finally:
            stdout.close()
        lines = capfd.readouterr().out.splitlines()
        assert lines[:2] == ["written before the run", "ap,ap50,ap75,ar1,ar10"]
        assert len(lines) == 3 and re.fullmatch(r"[0-9.]+(,[0-9.]+){4}", lines[2])
        assert len(pids) == 1
        assert_reaped(pids)

    def test_dead_producer_is_two(self, eval_set, capsys, monkeypatch):
        from mvdetr import metrics
        real = metrics.resize_to_view
        parent = os.getpid()

        def resize(*args):
            if os.getpid() != parent:
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(metrics, "resize_to_view", resize)
        pids = producer_pids(monkeypatch)
        assert self._eval(eval_set) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: batch producer process \d+ exited with status 3\n", err)
        assert len(pids) == 1
        assert_reaped(pids)


class TestPipeline:
    def test_pretrain_finetune_eval_probe_export(self, workspace, monkeypatch):
        root, cfg, manifest = workspace
        pre_out = str(root / "pre")
        monkeypatch.setenv("SDTR_THREADS", "1")
        rc = main(["pretrain", "--config", cfg, "--data", manifest, "--out", pre_out])
        assert rc == 0
        ckpt = os.path.join(pre_out, "epoch_0001.ckpt")
        assert os.path.exists(ckpt)
        assert os.path.exists(os.path.join(pre_out, "metrics.csv"))
        run_txt = open(os.path.join(pre_out, "run.txt")).read().splitlines()
        assert f"numpy: {np.__version__}" in run_txt
        assert "SDTR_THREADS: 1" in run_txt
        (blas,) = [line for line in run_txt if line.startswith("blas: ")]
        assert len(blas.split()) == 3  # name and version
        (malloc,) = [line for line in run_txt if line.startswith("malloc: ")]
        if platform.libc_ver()[0] == "glibc":
            assert malloc == "malloc: mmap threshold 33554432 B, trim threshold 67108864 B"

        ft_out = str(root / "ft")
        rc = main(["finetune", "--config", cfg, "--data", manifest,
                   "--out", ft_out, "--init", ckpt, "--seed", "1"])
        assert rc == 0
        ft_ckpt = os.path.join(ft_out, "finetuned.ckpt")
        assert os.path.exists(ft_ckpt)
        assert "init: " + ckpt in open(os.path.join(ft_out, "run.txt")).read()

        rc = main(["eval", "--config", cfg, "--data", manifest,
                   "--checkpoint", ft_ckpt, "--out", str(root / "ev")])
        assert rc == 0
        metrics = open(os.path.join(str(root / "ev"), "metrics.csv")).read()
        assert metrics.startswith("ap,ap50,ap75,ar1,ar10")

        rc = main(["probe", "--config", cfg, "--data", manifest,
                   "--eval-data", manifest, "--init", ckpt,
                   "--out", str(root / "pr"), "--epochs", "1", "--seeds", "1"])
        assert rc == 0
        probe = open(os.path.join(str(root / "pr"), "probe.csv")).read().strip()
        lines = probe.splitlines()
        assert lines[0] == "init,ar1,ar10"
        assert len(lines) == 3 and lines[1].startswith("pretrained")

        img = os.path.join(os.path.dirname(manifest), "img_00000.ppm")
        rc = main(["export-attn", "--config", cfg, "--checkpoint", ckpt,
                   "--image", img, "--out", str(root / "attn")])
        assert rc == 0
        pgms = [f for f in os.listdir(root / "attn") if f.endswith(".pgm")]
        assert len(pgms) == 6  # one per query
        blob = open(os.path.join(str(root / "attn"), pgms[0]), "rb").read()
        assert blob.startswith(b"P5\n8 8\n255\n")  # 64px view at stride 8

    def test_scratch_finetune(self, workspace):
        root, cfg, manifest = workspace
        rc = main(["finetune", "--config", cfg, "--data", manifest,
                   "--out", str(root / "ft_scratch"), "--seed", "1"])
        assert rc == 0

    def test_image_without_objects_pretrains_and_finetunes(self, workspace):
        # the last image's block becomes its bare path: a (0, 4) box set
        root, cfg, manifest = workspace
        header, *blocks = open(manifest).read().rstrip("\n").split("\n\n")
        blocks[-1] = blocks[-1].split()[0]
        bare = os.path.join(os.path.dirname(manifest), "bare_path.txt")
        with open(bare, "w") as f:
            f.write("\n\n".join([header] + blocks) + "\n")
        from mvdetr.data import load_dataset
        assert [len(b) for _, b, _ in load_dataset(bare)][-1] == 0
        assert main(["pretrain", "--config", cfg, "--data", bare,
                     "--out", str(root / "bare_pre")]) == 0
        assert main(["finetune", "--config", cfg, "--data", bare, "--set",
                     "finetune.epochs=1", "--out", str(root / "bare_ft")]) == 0
        assert os.path.exists(root / "bare_ft" / "finetuned.ckpt")

    def test_checkpoint_naming_removed_keys_still_loads(self, workspace, tmp_path):
        # checkpoints written while model.queries and data.image_size were
        # keys store them beside view.n; only view.n is compared now
        from mvdetr.checkpoint import (array_to_text, load_checkpoint, save_checkpoint,
                                       text_to_array)
        root, cfg, manifest = workspace
        entries = load_checkpoint(_untrained_checkpoint(cfg, tmp_path / "new.ckpt"))
        text = array_to_text(entries["__meta__.config"])
        entries["__meta__.config"] = text_to_array(
            text + "data.image_size=96\nmodel.queries=6\n")
        old = str(tmp_path / "old.ckpt")
        save_checkpoint(old, entries)
        assert main(["eval", "--config", cfg, "--data", manifest, "--checkpoint", old,
                     "--score", "match"]) == 0
        assert main(["eval", "--config", cfg, "--data", manifest, "--checkpoint", old,
                     "--score", "match", "--set", "view.n=5"]) == 2

    def test_incompatible_checkpoint_rejected(self, workspace):
        root, cfg, manifest = workspace
        ckpt = os.path.join(str(root / "pre"), "epoch_0001.ckpt")
        rc = main(["eval", "--config", cfg, "--data", manifest,
                   "--checkpoint", ckpt, "--set", "model.d_model=16",
                   "--set", "model.heads=1"])
        assert rc == 2
