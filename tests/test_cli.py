"""CLI: subcommand wiring, exit codes, reproducible file outputs."""

import os

import numpy as np
import pytest

from mvdetr.cli import main

CFG_SMALL = "\n".join([
    "train.batch_size=2", "train.epochs=1", "train.decay_epoch=0",
    "view.size=64", "data.image_size=96",
    "model.d_model=32", "model.heads=2", "model.enc_layers=1",
    "model.dec_layers=1", "model.ffn_dim=32", "model.queries=6", "view.n=6",
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
                                                  command):
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

    def test_missing_data_is_two(self, workspace):
        root, cfg, _ = workspace
        rc = main(["pretrain", "--config", cfg, "--data",
                   str(root / "nope" / "manifest.txt"), "--out", str(root / "x")])
        assert rc == 2


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


class TestPipeline:
    def test_pretrain_finetune_eval_probe_export(self, workspace):
        root, cfg, manifest = workspace
        pre_out = str(root / "pre")
        rc = main(["pretrain", "--config", cfg, "--data", manifest, "--out", pre_out])
        assert rc == 0
        ckpt = os.path.join(pre_out, "epoch_0001.ckpt")
        assert os.path.exists(ckpt)
        assert os.path.exists(os.path.join(pre_out, "metrics.csv"))
        assert os.path.exists(os.path.join(pre_out, "run.txt"))

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

    def test_incompatible_checkpoint_rejected(self, workspace):
        root, cfg, manifest = workspace
        ckpt = os.path.join(str(root / "pre"), "epoch_0001.ckpt")
        rc = main(["eval", "--config", cfg, "--data", manifest,
                   "--checkpoint", ckpt, "--set", "model.d_model=16",
                   "--set", "model.heads=1"])
        assert rc == 2
