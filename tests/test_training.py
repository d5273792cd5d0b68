"""Training runtime: step semantics, determinism, checkpoints, resume."""

import gc
import os
import re
import weakref

import numpy as np
import pytest

from mvdetr import losses as L
from mvdetr import tensor as T
from mvdetr import training as TR
from mvdetr.backbone import FrozenBackbone
from mvdetr.checkpoint import load_checkpoint, save_checkpoint
from mvdetr.config import parse_config
from mvdetr.data import SceneSpec, render_scene
from mvdetr.geometry import boxes_to_targets
from mvdetr.model import Detr
from mvdetr.optim import AdamW
from mvdetr.rng import derive_seed
from mvdetr.tensor import Tensor
from mvdetr.views import build_view_pair, resize_to_view


def small_cfg(**overrides):
    text = "\n".join([
        "train.batch_size=2",
        "train.epochs=2",
        "train.decay_epoch=1",
        "view.size=64",
        "model.d_model=32",
        "model.heads=2",
        "model.enc_layers=1",
        "model.dec_layers=1",
        "model.ffn_dim=32",
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
        items.append(TR.labeled_item(pixels, np.array([o.bbox() for o in objs]).reshape(-1, 4),
                                     np.array([o.label for o in objs], np.int64)))
    return items


def _pairs(images, cfg, epoch=0):
    return [build_view_pair(img, cfg, derive_seed(cfg.seed, epoch, i))
            for i, img in enumerate(images[:cfg.train_batch_size])]


def _tape_left_by(step, monkeypatch) -> tuple[int, int]:
    """Run step() and count the tape nodes it made and those still alive once
    it has returned. The cycle collector is off, so only reference counts
    can free a node."""
    refs = []
    make = T._make

    def recording(*args):
        out = make(*args)
        if out._parents:
            refs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(T, "_make", recording)
    gc.disable()
    try:
        step()
        alive = sum(r() is not None for r in refs)
    finally:
        gc.enable()
    return len(refs), alive


def _direction_oracle(model, backbone, pairs, cfg) -> tuple[float, float]:
    """(loc, region_disc) of one pretraining step, rebuilt one direction at a
    time: direction d < B is conditioned on view 1 of pair d, matches view 2's
    proposals and reconstructs view 1's region features; d >= B is the
    reverse for pair d - B. The forward runs in the step's own batch layout
    so the float32 values compare exactly."""
    b, n_q, size = len(pairs), cfg.view_n, cfg.view_size
    views = np.stack([p.view1 for p in pairs] + [p.view2 for p in pairs])
    proposals = np.stack([p.proposals1 for p in pairs] + [p.proposals2 for p in pairs])
    h = backbone.extract_batch(views)
    ctx, hw = model.encode(Tensor(h))
    ctx_dec = T.take(ctx, np.roll(np.arange(2 * b), b), 0)
    q_hat, _ = model.decode(ctx_dec, hw,
                            z=Tensor(backbone.object_level_features(h, proposals)))
    boxes, sem, match = model.predict(q_hat)

    def region_features(view, boxes_xyxy):
        if cfg.loss_region_target == "crop":
            return backbone.crop_features_multi(view[None], boxes_xyxy[None])
        maps = backbone.extract_batch(view[None])
        return backbone.object_level_features(maps, boxes_xyxy[None])[0]

    rows, tgt_boxes, tgt_feats = [], [], []
    match_targets = np.zeros((2 * b * n_q, 1), np.float32)
    for d in range(2 * b):
        p = pairs[d % b]
        if d < b:
            predicted, source, source_boxes = p.proposals2, p.view1, p.proposals1
        else:
            predicted, source, source_boxes = p.proposals1, p.view2, p.proposals2
        targets = boxes_to_targets(predicted, size, size)
        feats = region_features(source, source_boxes)
        cost = L.matching_cost(boxes.data[d], match.data[d], targets)
        for t, j in enumerate(L.hungarian(cost)):
            rows.append(d * n_q + j)
            match_targets[d * n_q + j, 0] = 1.0
            tgt_boxes.append(targets[t])
            tgt_feats.append(feats[t])
    two = Tensor(np.float32(2.0))
    loc = T.mul(T.add(L.box_regression(T.reshape(boxes, (2 * b * n_q, 4)), rows,
                                       np.stack(tgt_boxes)),
                      L.match_bce(match, match_targets)), two)
    sem_flat = T.reshape(sem, (2 * b * n_q, sem.data.shape[-1]))
    region = T.mul(L.region_disc(sem_flat, rows, np.stack(tgt_feats)), two)
    return float(loc.data), float(region.data)


def test_make_model_reads_each_size_key():
    # every key distinct, so swapping two of them changes some shape or name
    cfg = parse_config("model.d_model=24\nmodel.heads=3\nmodel.enc_layers=3\n"
                       "model.dec_layers=1\nmodel.ffn_dim=40\nview.n=5\n")
    backbone = FrozenBackbone(cfg.backbone_seed)
    params = TR.make_model(cfg, backbone).params
    layers = {".".join(n.split(".")[:2]) for n in params
              if n.startswith(("encoder.", "decoder."))}
    assert layers == {"encoder.layer0", "encoder.layer1", "encoder.layer2",
                      "decoder.layer0"}
    for prefix in ("encoder.layer0", "encoder.layer2", "decoder.layer0"):
        assert params[f"{prefix}.ffn.fc1.weight"].data.shape == (24, 40)
    assert params["query_embed.weight"].data.shape == (5, 24)
    assert params["head.sem.weight"].data.shape == (24, 64)  # backbone width


class TestPretrainStep:
    @pytest.mark.parametrize("region_target", ["crop", "object"])
    def test_directions_match_other_view_and_reconstruct_own(self, images,
                                                              region_target):
        cfg = small_cfg(**{"loss.region_target": region_target})
        backbone = FrozenBackbone(cfg.backbone_seed)
        model = TR.make_model(cfg, backbone)
        pairs = _pairs(images, cfg)
        expected = _direction_oracle(model, backbone, pairs, cfg)
        opt = AdamW(model.params, lr=0.0, weight_decay=1e-4)
        bd = TR.pretrain_step(model, backbone, opt, pairs, cfg)
        assert (bd.loc, bd.region_disc) == expected

    def test_breakdown_identity(self, images):
        # distinct weights, none of them 1, so each term's weight shows
        cfg = small_cfg(**{"loss.lambda_r": 0.7, "loss.lambda_g": 1.3,
                           "loss.lambda_loc": 0.4})
        backbone = FrozenBackbone(cfg.backbone_seed)
        model = TR.make_model(cfg, backbone)
        opt = AdamW(model.params, lr=cfg.train_lr, weight_decay=1e-4)
        bd = TR.pretrain_step(model, backbone, opt, _pairs(images, cfg), cfg)
        # recomputed in pretrain_step's own float32 order, so the check is exact
        f32 = np.float32
        lam_r, lam_g, lam_loc = (f32(cfg.loss_lambda_r), f32(cfg.loss_lambda_g),
                                 f32(cfg.loss_lambda_loc))
        expected = (f32(f32(f32(bd.loc) * lam_loc) + f32(f32(bd.global_disc) * lam_g))
                    + f32(f32(bd.region_disc) * lam_r))
        assert bd.total == float(expected)

    def test_deterministic_sequences(self, images):
        cfg = small_cfg()

        def run():
            backbone = FrozenBackbone(cfg.backbone_seed)
            model = TR.make_model(cfg, backbone)
            opt = AdamW(model.params, lr=cfg.train_lr, weight_decay=1e-4)
            out = []
            for epoch in range(2):
                bd = TR.pretrain_step(model, backbone, opt,
                                      _pairs(images, cfg, epoch), cfg)
                out.append((bd.total, bd.loc, bd.global_disc, bd.region_disc))
            return out, model.params["query_embed.weight"].data.tobytes()

        a, b = run(), run()
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_loc_only_mode_skips_other_losses(self, images, monkeypatch):
        cfg = small_cfg(**{"loss.lambda_g": 0.0, "loss.lambda_r": 0.0})
        backbone = FrozenBackbone(cfg.backbone_seed)
        model = TR.make_model(cfg, backbone)
        opt = AdamW(model.params, lr=cfg.train_lr, weight_decay=1e-4)

        def not_built(*args):
            raise AssertionError("a term of weight 0 was built")
        monkeypatch.setattr(L, "global_disc_loss", not_built)
        monkeypatch.setattr(L, "region_disc", not_built)
        bd = TR.pretrain_step(model, backbone, opt, _pairs(images, cfg), cfg)
        assert bd.global_disc == 0.0 and bd.region_disc == 0.0
        assert bd.total == bd.loc  # lambda_loc = 1 and no other term in the sum

    def test_view_swap_invariance(self, images):
        cfg = small_cfg()
        backbone = FrozenBackbone(cfg.backbone_seed)
        model = TR.make_model(cfg, backbone)
        pairs = _pairs(images, cfg)
        swapped = [type(p)(view1=p.view2, view2=p.view1,
                           proposals1=p.proposals2, proposals2=p.proposals1,
                           base_rect=p.base_rect, rect1=p.rect2, rect2=p.rect1,
                           flip1=p.flip2, flip2=p.flip1, padded=p.padded)
                   for p in pairs]
        opt_a = AdamW(model.params, lr=0.0, weight_decay=1e-4)  # lr 0: no parameter drift
        bd_a = TR.pretrain_step(model, backbone, opt_a, pairs, cfg)
        bd_b = TR.pretrain_step(model, backbone, opt_a, swapped, cfg)
        assert bd_a.total == pytest.approx(bd_b.total, abs=1e-5)
        assert bd_a.loc == pytest.approx(bd_b.loc, abs=1e-5)

    def test_object_level_region_targets(self, images):
        cfg = small_cfg(**{"loss.region_target": "object"})
        backbone = FrozenBackbone(cfg.backbone_seed)
        model = TR.make_model(cfg, backbone)
        opt = AdamW(model.params, lr=cfg.train_lr, weight_decay=1e-4)
        bd = TR.pretrain_step(model, backbone, opt, _pairs(images, cfg), cfg)
        assert bd.region_disc > 0.0

    def test_no_tape_outlives_the_step(self, images, monkeypatch):
        cfg = small_cfg()
        backbone = FrozenBackbone(cfg.backbone_seed)
        model = TR.make_model(cfg, backbone)
        opt = AdamW(model.params, lr=cfg.train_lr, weight_decay=1e-4)
        pairs = _pairs(images, cfg)
        made, alive = _tape_left_by(
            lambda: TR.pretrain_step(model, backbone, opt, pairs, cfg), monkeypatch)
        assert made > 0 and alive == 0

    def test_empty_batch_rejected(self, images):
        cfg = small_cfg()
        backbone = FrozenBackbone(cfg.backbone_seed)
        model = TR.make_model(cfg, backbone)
        opt = AdamW(model.params, lr=cfg.train_lr, weight_decay=1e-4)
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

    def test_resume_into_own_dir_writes_each_row_once(self, images, tmp_path):
        cfg = small_cfg()
        _, full_csv = TR.run_pretrain(cfg, images, str(tmp_path / "full"))
        run = str(tmp_path / "run")
        _, csv_path = TR.run_pretrain(cfg, images, run)
        TR.run_pretrain(cfg, images, run,
                        resume_from=os.path.join(run, "epoch_0001.ckpt"))
        assert open(csv_path, "rb").read() == open(full_csv, "rb").read()

    def test_resume_after_mid_epoch_crash_drops_unfinished_rows(self, images, tmp_path):
        # a crash in the last epoch leaves its first row (step 9) and the first
        # byte of the next one: "1" of step 10, which must not pass for step 1
        cfg = small_cfg(**{"train.epochs": 4, "train.decay_epoch": 2})
        _, full_csv = TR.run_pretrain(cfg, images, str(tmp_path / "full"))
        full = open(full_csv, "rb").read()
        lines = full.splitlines(keepends=True)
        assert lines[10].startswith(b"9,") and lines[11].startswith(b"10,")
        run = tmp_path / "run"
        run.mkdir()
        (run / "metrics.csv").write_bytes(b"".join(lines[:11]) + lines[11][:1])
        mid = os.path.join(str(tmp_path / "full"), "epoch_0003.ckpt")
        _, csv_path = TR.run_pretrain(cfg, images, str(run), resume_from=mid)
        assert open(csv_path, "rb").read() == full

    def test_resume_names_the_csv_line_of_a_step_that_is_no_integer(self, images, tmp_path):
        cfg = small_cfg()
        run = str(tmp_path / "run")
        _, csv_path = TR.run_pretrain(cfg, images, run)
        lines = open(csv_path).read().splitlines(keepends=True)
        lines[2] = "abc" + lines[2][lines[2].index(","):]
        open(csv_path, "w").write("".join(lines))
        with pytest.raises(ValueError, match=f"^{re.escape(csv_path)}:3: step 'abc' "):
            TR.run_pretrain(cfg, images, run, resume_from=os.path.join(run, "epoch_0001.ckpt"))

    @pytest.mark.parametrize("left", [b"", b"step,ep"], ids=["empty", "cut_in_header"])
    def test_resume_into_csv_with_no_whole_header_writes_it(self, images, tmp_path, left):
        cfg = small_cfg()
        _, full_csv = TR.run_pretrain(cfg, images, str(tmp_path / "full"))
        run = tmp_path / "run"
        run.mkdir()
        (run / "metrics.csv").write_bytes(left)
        mid = os.path.join(str(tmp_path / "full"), "epoch_0001.ckpt")
        _, csv_path = TR.run_pretrain(cfg, images, str(run), resume_from=mid)
        lines = open(full_csv, "rb").read().splitlines(keepends=True)
        steps_per_epoch = len(images) // cfg.train_batch_size
        assert open(csv_path, "rb").read() == b"".join(lines[:1] + lines[1 + steps_per_epoch:])

    def test_checkpoint_with_seed_entries_still_resumes(self, images, tmp_path):
        # checkpoints once also stored __meta__.seed and __meta__.backbone_seed,
        # each a u64 as four 16-bit chunks; nothing reads them
        cfg = small_cfg()
        full_ckpt, _ = TR.run_pretrain(cfg, images, str(tmp_path / "full"))
        mid = load_checkpoint(os.path.join(str(tmp_path / "full"), "epoch_0001.ckpt"))
        assert not any(n in mid for n in ("__meta__.seed", "__meta__.backbone_seed"))

        def chunks(value):
            return np.array([(value >> (16 * i)) & 0xFFFF for i in range(4)], np.float32)

        mid["__meta__.backbone_seed"] = chunks(cfg.backbone_seed)
        mid["__meta__.seed"] = chunks(cfg.seed)
        old = str(tmp_path / "old.ckpt")
        save_checkpoint(old, mid)
        res_ckpt, _ = TR.run_pretrain(cfg, images, str(tmp_path / "resumed"), resume_from=old)
        a, b = load_checkpoint(full_ckpt), load_checkpoint(res_ckpt)
        assert list(a) == list(b)
        for name in a:
            assert a[name].tobytes() == b[name].tobytes(), name

    def test_resume_of_finished_run_returns_existing_checkpoint(self, images, tmp_path):
        # no epoch is left to run, so nothing is written to the new directory
        cfg = small_cfg()
        done, _ = TR.run_pretrain(cfg, images, str(tmp_path / "done"))
        ckpt, _ = TR.run_pretrain(cfg, images, str(tmp_path / "fresh"), resume_from=done)
        assert os.path.exists(ckpt)
        assert ckpt == done

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


@pytest.mark.parametrize("epochs", [0, -1])
def test_finetune_rejects_fewer_than_one_epoch(labeled, epochs):
    # set after parsing, the way `mvdetr probe` sets its --epochs
    cfg = small_cfg()
    cfg.finetune_epochs = epochs
    with pytest.raises(ValueError, match=f"at least 1 epoch, got {epochs}"):
        TR.run_finetune(cfg, labeled, seed=1)


class TestFinetune:
    def test_loss_decreases(self, labeled):
        cfg = small_cfg(**{"finetune.epochs": 30})
        model, losses = TR.run_finetune(cfg, labeled, seed=1)
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

        model, _ = TR.run_finetune(cfg, labeled, seed=9)
        for name, p in model.params.items():
            changed = p.data.tobytes() != before[name].tobytes()
            if name.startswith(TR.FROZEN_HEAD_PREFIXES):
                assert changed, f"{name} should have been trained"
            else:
                assert not changed, f"{name} should have stayed frozen"

    def test_frozen_probe_encodes_one_batch_at_a_time(self, labeled, monkeypatch):
        # the cached queries are filled batch by batch, so no tape over all
        # images is ever alive at once
        cfg = small_cfg(**{"finetune.freeze_transformer": "true"})
        seen = []
        encode = Detr.encode

        def spy(self, h):
            seen.append(h.data.shape[0])
            return encode(self, h)

        monkeypatch.setattr(Detr, "encode", spy)
        TR.run_finetune(cfg, labeled, seed=9)
        assert max(seen) <= cfg.finetune_batch_size
        assert sum(seen) == len(labeled)

    def test_aux_loss_sums_set_loss_over_decoder_layers(self, labeled):
        cfg = small_cfg(**{"model.aux_loss": "true", "model.dec_layers": 2})
        items = labeled[:cfg.finetune_batch_size]

        def step(lr):
            backbone = FrozenBackbone(cfg.backbone_seed)
            model = TR.make_model(cfg, backbone)
            model.add_class_head(cfg.data_classes, seed=derive_seed(4, 0xC1))
            feats = backbone.extract_batch(
                np.stack([resize_to_view(it.pixels, cfg.view_size) for it in items]))
            opt = AdamW(model.params, lr=lr, weight_decay=0.0)
            return model, feats, TR.finetune_step(model, opt, feats, items, cfg)

        # lr 0 leaves the parameters as they were for the step's forward, so
        # a second forward gives every decoder layer's output as the step saw it
        model, feats, total = step(0.0)
        c, hw = model.encode(Tensor(feats))
        layers = []
        model.decode(c, hw, layers=layers)
        assert len(layers) == 2
        targets = [(it.boxes, it.labels) for it in items]
        per_layer = [L.set_loss(model.class_logits(q), model.predict(q)[0], targets).data
                     for q in layers]
        assert total == float(per_layer[0] + per_layer[1])
        assert total != float(per_layer[1])

        model_a, _, total_a = step(cfg.train_lr)
        model_b, _, total_b = step(cfg.train_lr)
        assert total_a == total_b
        for name, p in model_a.params.items():
            assert p.data.tobytes() == model_b.params[name].data.tobytes(), name

    @pytest.mark.parametrize("aux_loss", ["false", "true"])
    def test_no_tape_outlives_the_step(self, labeled, monkeypatch, aux_loss):
        cfg = small_cfg(**{"model.aux_loss": aux_loss, "model.dec_layers": 2})
        items = labeled[:cfg.finetune_batch_size]
        backbone = FrozenBackbone(cfg.backbone_seed)
        model = TR.make_model(cfg, backbone)
        model.add_class_head(cfg.data_classes, seed=1)
        feats = backbone.extract_batch(
            np.stack([resize_to_view(it.pixels, cfg.view_size) for it in items]))
        opt = AdamW(model.params, lr=cfg.train_lr, weight_decay=1e-4)
        made, alive = _tape_left_by(
            lambda: TR.finetune_step(model, opt, feats, items, cfg), monkeypatch)
        assert made > 0 and alive == 0

    def test_finetune_deterministic(self, labeled):
        cfg = small_cfg()

        def run():
            model, losses = TR.run_finetune(cfg, labeled, seed=5)
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
        size = cfg.view_size
        t2 = [boxes_to_targets(p.proposals2, size, size) for p in pairs]
        t1 = [boxes_to_targets(p.proposals1, size, size) for p in pairs]
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
        opt = AdamW({}, lr=0.0, weight_decay=1e-4)
        bd = TR.pretrain_step(model, backbone, opt, pairs, cfg)
        assert bd.loc < 0.1
