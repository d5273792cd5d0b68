"""CLI: subcommand wiring, exit codes, reproducible file outputs."""

import os

import numpy as np
import pytest

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


def _untrained_checkpoint(cfg_path, path) -> str:
    from mvdetr.backbone import FrozenBackbone
    from mvdetr.checkpoint import save_checkpoint
    from mvdetr.config import parse_config
    from mvdetr.training import checkpoint_entries, make_model
    cfg = parse_config(open(cfg_path).read())
    model = make_model(cfg, FrozenBackbone(cfg.backbone_seed))
    save_checkpoint(str(path), checkpoint_entries(model, None, cfg, 0))
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
    ], ids=["heads_split_d_model", "no_heads", "d_model_by_4", "no_d_model", "no_proposals",
            "no_view_size", "no_train_batch", "no_finetune_batch", "no_classes",
            "no_decoder", "no_ffn", "negative_encoder"])
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
    ], ids=["non_finite", "out_of_order"])
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
