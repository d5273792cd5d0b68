"""Training runtime: step semantics, determinism, checkpoints, resume."""

import os

import numpy as np
import pytest

from mvdetr import training as TR
from mvdetr.backbone import FrozenBackbone
from mvdetr.checkpoint import load_checkpoint
from mvdetr.config import parse_config
from mvdetr.data import SceneSpec, render_scene
from mvdetr.geometry import BoxXYXY
from mvdetr.optim import AdamW
from mvdetr.rng import derive_seed
from mvdetr.views import Image, build_view_pair


def small_cfg(**overrides):
    text = "\n".join([
        "train.batch_size=2",
        "train.epochs=2",
        "train.decay_epoch=1",
        "view.size=64",
        "data.image_size=96",
        "model.d_model=32",
        "model.heads=2",
        "model.enc_layers=1",
        "model.dec_layers=1",
        "model.ffn_dim=32",
        "model.queries=6",
        "view.n=6",
        "finetune.epochs=2",
        "finetune.batch_size=2",
    ] + [f"{k}={v}" for k, v in overrides.items()])
    return parse_config(text)


@pytest.fixture(scope="module")
def images():
    spec = SceneSpec(image_size=96, seed=40)
    return [render_scene(spec, i)[0] for i in range(6)]


@pytest.fixture(scope="module")
def labeled(images):
    spec = SceneSpec(image_size=96, seed=40)
    items = []
    for i in range(len(images)):
        pixels, objs = render_scene(spec, i)
        items.append(TR.labeled_item(pixels, [o.bbox() for o in objs],
                                     [o.label for o in objs]))
    return items


def _pairs(images, cfg, epoch=0):
    vc = TR.view_config_from(cfg)
    return [build_view_pair(Image(img), vc, derive_seed(cfg.seed, epoch, i))
            for i, img in enumerate(images[:cfg.train_batch_size])]


class TestPretrainStep:
    def test_breakdown_identity(self, images):
        cfg = small_cfg(**{"loss.lambda_r": 0.7, "loss.lambda_g": 1.3})
        backbone = FrozenBackbone(cfg.backbone_seed)
        model = TR.make_model(cfg, backbone)
        opt = AdamW(model.params, lr=cfg.train_lr)
        bd = TR.pretrain_step(model, backbone, opt, _pairs(images, cfg), cfg)
        expected = (bd.lambdas[0] * bd.region_disc + bd.lambdas[1] * bd.global_disc
                    + bd.lambdas[2] * bd.loc)
        assert bd.total == pytest.approx(expected, abs=1e-6)

    def test_deterministic_sequences(self, images):
        cfg = small_cfg()

        def run():
            backbone = FrozenBackbone(cfg.backbone_seed)
            model = TR.make_model(cfg, backbone)
            opt = AdamW(model.params, lr=cfg.train_lr)
            out = []
            for epoch in range(2):
                bd = TR.pretrain_step(model, backbone, opt,
                                      _pairs(images, cfg, epoch), cfg)
                out.append((bd.total, bd.loc, bd.global_disc, bd.region_disc))
            return out, model.params["query_embed.weight"].data.tobytes()

        a, b = run(), run()
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_loc_only_mode_skips_other_losses(self, images):
        cfg = small_cfg(**{"loss.lambda_g": 0.0, "loss.lambda_r": 0.0})
        backbone = FrozenBackbone(cfg.backbone_seed)
        model = TR.make_model(cfg, backbone)
        opt = AdamW(model.params, lr=cfg.train_lr)
        bd = TR.pretrain_step(model, backbone, opt, _pairs(images, cfg), cfg)
        assert bd.global_disc == 0.0 and bd.region_disc == 0.0
        assert bd.total == pytest.approx(bd.loc, abs=1e-6)

    def test_view_swap_invariance(self, images):
        cfg = small_cfg()
        backbone = FrozenBackbone(cfg.backbone_seed)
        model = TR.make_model(cfg, backbone)
        pairs = _pairs(images, cfg)
        swapped = [type(p)(view1=p.view2, view2=p.view1, t1=p.t2, t2=p.t1,
                           proposals1=p.proposals2, proposals2=p.proposals1,
                           seed=p.seed, base_rect=p.base_rect, rect1=p.rect2,
                           rect2=p.rect1, record1=p.record2, record2=p.record1,
                           padded=p.padded)
                   for p in pairs]
        opt_a = AdamW(model.params, lr=0.0)  # lr 0: no parameter drift
        bd_a = TR.pretrain_step(model, backbone, opt_a, pairs, cfg)
        bd_b = TR.pretrain_step(model, backbone, opt_a, swapped, cfg)
        assert bd_a.total == pytest.approx(bd_b.total, abs=1e-5)
        assert bd_a.loc == pytest.approx(bd_b.loc, abs=1e-5)

    def test_object_level_region_targets(self, images):
        cfg = small_cfg(**{"loss.region_target": "object"})
        backbone = FrozenBackbone(cfg.backbone_seed)
        model = TR.make_model(cfg, backbone)
        opt = AdamW(model.params, lr=cfg.train_lr)
        bd = TR.pretrain_step(model, backbone, opt, _pairs(images, cfg), cfg)
        assert bd.region_disc > 0.0

    def test_empty_batch_rejected(self, images):
        cfg = small_cfg()
        backbone = FrozenBackbone(cfg.backbone_seed)
        model = TR.make_model(cfg, backbone)
        opt = AdamW(model.params, lr=cfg.train_lr)
        with pytest.raises(ValueError):
            TR.pretrain_step(model, backbone, opt, [], cfg)


class TestRunPretrain:
    def test_writes_checkpoints_and_csv(self, images, tmp_path):
        cfg = small_cfg()
        out = str(tmp_path / "run")
        ckpt, csv_path = TR.run_pretrain(cfg, images, out)
        assert os.path.exists(ckpt) and ckpt.endswith("epoch_0002.ckpt")
        rows = open(csv_path).read().strip().splitlines()
        steps_per_epoch = len(images) // cfg.train_batch_size
        assert rows[0] == "step,epoch,lr,loss_total,loss_loc,loss_g,loss_r"
        assert len(rows) == 1 + 2 * steps_per_epoch

    def test_lr_decay_schedule(self, images, tmp_path):
        cfg = small_cfg()
        _, csv_path = TR.run_pretrain(cfg, images, str(tmp_path / "run"))
        rows = [r.split(",") for r in open(csv_path).read().strip().splitlines()[1:]]
        lr_by_epoch = {int(r[1]): float(r[2]) for r in rows}
        assert lr_by_epoch[0] == pytest.approx(cfg.train_lr)
        assert lr_by_epoch[1] == pytest.approx(cfg.train_lr * 0.1)

    def test_bitwise_reproducible(self, images, tmp_path):
        cfg = small_cfg()
        ckpt_a, _ = TR.run_pretrain(cfg, images, str(tmp_path / "a"))
        ckpt_b, _ = TR.run_pretrain(cfg, images, str(tmp_path / "b"))
        a, b = load_checkpoint(ckpt_a), load_checkpoint(ckpt_b)
        assert list(a) == list(b)
        for name in a:
            assert a[name].tobytes() == b[name].tobytes(), name

    def test_resume_reproduces_bitwise(self, images, tmp_path):
        cfg = small_cfg(**{"train.epochs": 3, "train.decay_epoch": 2})
        full_ckpt, full_csv = TR.run_pretrain(cfg, images, str(tmp_path / "full"))
        # restart from the epoch-1 checkpoint in a fresh directory
        resume_dir = str(tmp_path / "resumed")
        os.makedirs(resume_dir)
        mid = os.path.join(str(tmp_path / "full"), "epoch_0001.ckpt")
        res_ckpt, res_csv = TR.run_pretrain(cfg, images, resume_dir, resume_from=mid)
        a, b = load_checkpoint(full_ckpt), load_checkpoint(res_ckpt)
        for name in a:
            assert a[name].tobytes() == b[name].tobytes(), name
        steps_per_epoch = len(images) // cfg.train_batch_size
        full_rows = open(full_csv).read().strip().splitlines()[1:]
        res_rows = open(res_csv).read().strip().splitlines()[1:]
        assert res_rows == full_rows[steps_per_epoch:]

    def test_architecture_mismatch_rejected(self, images, tmp_path):
        cfg = small_cfg()
        ckpt, _ = TR.run_pretrain(cfg, images, str(tmp_path / "run"))
        other = small_cfg(**{"model.d_model": 16})
        with pytest.raises(ValueError, match="model.d_model"):
            TR.run_pretrain(other, images, str(tmp_path / "run2"), resume_from=ckpt)


class TestTooFewImages:
    """Fewer images than one batch is a config error, raised before any model."""

    def test_pretrain_rejected(self, images, tmp_path):
        cfg = small_cfg(**{"train.batch_size": 8})
        out = tmp_path / "run"
        with pytest.raises(ValueError, match=r"6 images .*train\.batch_size=8"):
            TR.run_pretrain(cfg, images, str(out))
        assert not out.exists()

    def test_finetune_rejected(self, labeled):
        cfg = small_cfg(**{"finetune.batch_size": 8})
        with pytest.raises(ValueError, match=r"6 images .*finetune\.batch_size=8"):
            TR.run_finetune(cfg, labeled, seed=1, log=lambda msg: None)


class TestFinetune:
    def test_loss_decreases(self, labeled):
        cfg = small_cfg()
        model, losses = TR.run_finetune(cfg, labeled, seed=1, epochs=30)
        assert losses[-1] < losses[0]

    def test_scratch_vs_init_differ_only_in_transformer(self, images, labeled, tmp_path):
        cfg = small_cfg()
        ckpt_path, _ = TR.run_pretrain(cfg, images, str(tmp_path / "pre"))
        params, _, _ = TR.split_checkpoint(load_checkpoint(ckpt_path))
        backbone = FrozenBackbone(cfg.backbone_seed)

        scratch = TR.make_model(cfg, backbone)
        scratch.add_class_head(cfg.data_classes, seed=derive_seed(3, 0xC1))
        warm = TR.make_model(cfg, backbone)
        warm.load_state(params)
        warm.add_class_head(cfg.data_classes, seed=derive_seed(3, 0xC1))
        assert (scratch.params["class_head.weight"].data.tobytes()
                == warm.params["class_head.weight"].data.tobytes())
        assert (scratch.params["query_embed.weight"].data.tobytes()
                != warm.params["query_embed.weight"].data.tobytes())

    def test_frozen_head_mode_updates_heads_only(self, labeled):
        cfg = small_cfg(**{"finetune.freeze_transformer": "true"})
        backbone = FrozenBackbone(cfg.backbone_seed)
        reference = TR.make_model(cfg, backbone)
        reference.add_class_head(cfg.data_classes, seed=derive_seed(9, 0xC1))
        before = {n: p.data.copy() for n, p in reference.params.items()}

        model, _ = TR.run_finetune(cfg, labeled, seed=9, epochs=2)
        for name, p in model.params.items():
            changed = p.data.tobytes() != before[name].tobytes()
            if name.startswith(TR.FROZEN_HEAD_PREFIXES):
                assert changed, f"{name} should have been trained"
            else:
                assert not changed, f"{name} should have stayed frozen"

    def test_finetune_deterministic(self, labeled):
        cfg = small_cfg()

        def run():
            model, losses = TR.run_finetune(cfg, labeled, seed=5, epochs=2)
            return losses, model.params["class_head.weight"].data.tobytes()

        assert run() == run()


class TestPretrainOracleInit:
    def test_perfect_predictions_give_small_loc(self, images):
        """Identical views, zero jitter, and a predict() oracle that returns
        the targets exactly: the localization component collapses."""
        cfg = small_cfg(**{"view.tau": 1.0, "view.jitter": 0.0,
                           "loss.lambda_g": 0.0, "loss.lambda_r": 0.0,
                           "aug.flip_p": 0.0, "aug.color_p": 0.0,
                           "aug.grayscale_p": 0.0, "aug.blur_p": 0.0})
        backbone = FrozenBackbone(cfg.backbone_seed)
        model = TR.make_model(cfg, backbone)
        pairs = _pairs(images, cfg)
        # direction order in the step: [targets2 per item, targets1 per item]
        t2 = [TR.boxes_to_targets(p.proposals2, cfg.view_size) for p in pairs]
        t1 = [TR.boxes_to_targets(p.proposals1, cfg.view_size) for p in pairs]
        oracle_boxes = np.stack(t2 + t1)

        import mvdetr.tensor as T

        real_predict = model.predict

        def oracle_predict(q_hat):
            _, sem, _ = real_predict(q_hat)
            boxes = T.Tensor(oracle_boxes.astype(np.float32))
            match = T.Tensor(np.full((oracle_boxes.shape[0], oracle_boxes.shape[1], 1),
                                     1.0 - 1e-7, dtype=np.float32))
            return boxes, sem, match

        model.predict = oracle_predict
        opt = AdamW({}, lr=0.0)
        bd = TR.pretrain_step(model, backbone, opt, pairs, cfg)
        assert bd.loc < 0.1
