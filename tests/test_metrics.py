"""AP/AR metrics against hand-enumerated PR curves; export formats."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (per_pair_average_precision, per_pair_average_recall_at_k,
                     per_pair_report)
from mvdetr import metrics as M
from mvdetr import tensor as T
from mvdetr.geometry import BoxXYXY


def _det(img, x1, y1, x2, y2, conf, cls=0):
    return M.Detection(img, BoxXYXY(x1, y1, x2, y2), cls, conf)


def _gt(img, x1, y1, x2, y2, cls=0):
    return M.GroundTruth(img, BoxXYXY(x1, y1, x2, y2), cls)


class TestAveragePrecision:
    def test_perfect_duplicates_of_gt(self):
        gts = [_gt(0, 0, 0, 10, 10), _gt(0, 20, 20, 30, 30)]
        dets = [_det(0, 0, 0, 10, 10, 1.0), _det(0, 20, 20, 30, 30, 1.0)]
        for thr in (0.5, 0.75, 0.95):
            assert M.average_precision(dets, gts, thr) == pytest.approx(1.0)

    def test_no_detections(self):
        assert M.average_precision([], [_gt(0, 0, 0, 5, 5)], 0.5) == 0.0

    def test_empty_gt_no_dets_is_one(self):
        assert M.average_precision([], [], 0.5) == 1.0

    def test_one_correct_one_false(self):
        # 2 GT; correct det @0.9 then a false positive @0.8:
        # precision envelope is 1 up to recall 0.5, 0 beyond ->
        # 51 of the 101 grid points score 1.0
        gts = [_gt(0, 0, 0, 10, 10), _gt(0, 50, 50, 60, 60)]
        dets = [_det(0, 0, 0, 10, 10, 0.9), _det(0, 80, 80, 90, 90, 0.8)]
        ap = M.average_precision(dets, gts, 0.5)
        assert ap == pytest.approx(51 / 101, abs=1e-9)
        assert ap == pytest.approx(0.5, abs=0.01)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        for _ in range(20)        :
            gts, dets = [], []
            for img in range(3):
                for _ in range(rng.integers(1, 4)):
                    x, y = rng.uniform(0, 40, 2)
                    w, h = rng.uniform(5, 20, 2)
                    gts.append(_gt(img, x, y, x + w, y + h))
                for _ in range(rng.integers(1, 5)):
                    x, y = rng.uniform(0, 40, 2)
                    w, h = rng.uniform(5, 20, 2)
                    dets.append(_det(img, x, y, x + w, y + h, float(rng.uniform(0, 1))))
            values = [M.average_precision(dets, gts, t) for t in M.IOU_GRID]
            assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_order_invariance(self):
        rng = np.random.default_rng(1)
        gts = [_gt(0, 0, 0, 10, 10), _gt(1, 5, 5, 25, 25)]
        dets = [_det(0, 1, 1, 11, 11, 0.7), _det(1, 4, 4, 24, 24, 0.9),
                _det(1, 40, 40, 50, 50, 0.3)]
        base = M.average_precision(dets, gts, 0.5)
        for _ in range(5):
            perm = list(rng.permutation(len(gts)))
            assert M.average_precision(dets, [gts[i] for i in perm], 0.5) == base


class TestAverageRecall:
    def test_perfect_boxes(self):
        gts = [_gt(0, 0, 0, 10, 10)]
        dets = [_det(0, 0, 0, 10, 10, 0.9)]
        assert M.average_recall_at_k(dets, gts, 1) == pytest.approx(1.0)

    def test_no_overlap(self):
        gts = [_gt(0, 0, 0, 10, 10)]
        dets = [_det(0, 50, 50, 60, 60, 0.9)]
        assert M.average_recall_at_k(dets, gts, 1) == 0.0

    def test_iou_point_six_passes_three_thresholds(self):
        gts = [_gt(0, 0, 0, 10, 10)]
        dets = [_det(0, 0, 0, 10, 6, 0.9)]  # IoU exactly 0.6
        assert M.average_recall_at_k(dets, gts, 1) == pytest.approx(3 / 10)

    def test_non_decreasing_in_k(self):
        rng = np.random.default_rng(2)
        gts, dets = [], []
        for img in range(4):
            for _ in range(3):
                x, y = rng.uniform(0, 30, 2)
                w, h = rng.uniform(8, 25, 2)
                gts.append(_gt(img, x, y, x + w, y + h))
            for _ in range(12):
                x, y = rng.uniform(0, 30, 2)
                w, h = rng.uniform(8, 25, 2)
                dets.append(_det(img, x, y, x + w, y + h, float(rng.uniform(0, 1))))
        values = [M.average_recall_at_k(dets, gts, k) for k in (1, 2, 5, 10, 20)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_top_k_selection_respects_confidence(self):
        gts = [_gt(0, 0, 0, 10, 10)]
        # the good box ranks second: with k=1 only the bad one is kept
        dets = [_det(0, 50, 50, 60, 60, 0.9), _det(0, 0, 0, 10, 10, 0.5)]
        assert M.average_recall_at_k(dets, gts, 1) == 0.0
        assert M.average_recall_at_k(dets, gts, 2) == pytest.approx(1.0)


class TestReport:
    def test_ap_not_above_ap50(self):
        rng = np.random.default_rng(3)
        gts, dets = [], []
        for img in range(3):
            for _ in range(2):
                x, y = rng.uniform(0, 40, 2)
                w, h = rng.uniform(10, 30, 2)
                cls = int(rng.integers(0, 3))
                gts.append(_gt(img, x, y, x + w, y + h, cls))
                jx, jy = rng.uniform(-3, 3, 2)
                dets.append(_det(img, x + jx, y + jy, x + w + jx, y + h + jy,
                                 float(rng.uniform(0.2, 1.0)), cls))
        report = M.evaluate_detections(dets, gts, n_classes=3)
        assert report.ap <= report.ap50 + 1e-9
        for v in (report.ap, report.ap50, report.ap75, report.ar1, report.ar10):
            assert 0.0 <= v <= 1.0

    def test_csv_shape(self):
        report = M.MetricReport(0.1, 0.2, 0.3, 0.4, 0.5)
        lines = report.as_csv().strip().splitlines()
        assert lines[0] == "ap,ap50,ap75,ar1,ar10"
        assert len(lines[1].split(",")) == 5


def _report_tuple(report):
    return (report.ap, report.ap50, report.ap75, report.ar1, report.ar10)


@st.composite
def scored_scenes(draw):
    """Detections and ground truth on half-pixel grids: ties in confidence,
    boxes identical to or cut from a ground-truth box (IoU on or near a grid
    threshold), zero-area boxes, detections on an image without ground truth
    (image 3) and ground truth without detections, over three classes."""
    half = st.integers(0, 24).map(lambda v: v / 2)
    side = st.integers(0, 16).map(lambda v: v / 2)

    def box():
        x1, y1 = draw(half), draw(half)
        return BoxXYXY(x1, y1, x1 + draw(side), y1 + draw(side))

    gts = [M.GroundTruth(draw(st.integers(0, 2)), box(), draw(st.integers(0, 2)))
           for _ in range(draw(st.integers(0, 8)))]
    dets = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["free", "copy", "cut"] if gts else ["free"]))
        if kind == "free":
            image, b = draw(st.integers(0, 3)), box()
        else:
            g = draw(st.sampled_from(gts))
            image, b = g.image_id, g.box
            if kind == "cut":  # keep a share of its height
                share = draw(st.sampled_from([0.5, 0.55, 0.6, 0.75, 0.9, 0.95]))
                b = BoxXYXY(b.x1, b.y1, b.x2, b.y1 + b.height * share)
        dets.append(M.Detection(image, b, draw(st.integers(0, 2)),
                                draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))))
    return dets, gts


class TestAgainstPerPairOracle:
    """The per-image IoU scorer reproduces per-pair `box_iou` matching exactly."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(scene=scored_scenes())
    def test_report_equals_oracle(self, scene):
        dets, gts = scene
        assert (_report_tuple(M.evaluate_detections(dets, gts, n_classes=3))
                == per_pair_report(dets, gts, 3))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(scene=scored_scenes())
    def test_class_blind_scores_equal_oracle(self, scene):
        dets, gts = scene
        for thr in (0.0, 0.3) + M.IOU_GRID:
            assert (M.average_precision(dets, gts, thr)
                    == per_pair_average_precision(dets, gts, thr))
        for k in (1, 2, 10):
            assert (M.average_recall_at_k(dets, gts, k)
                    == per_pair_average_recall_at_k(dets, gts, k))

    def test_iou_exactly_on_threshold(self):
        gts = [_gt(0, 0, 0, 10, 10), _gt(0, 20, 0, 30, 10, cls=1)]
        dets = [_det(0, 0, 0, 10, 6, 0.9), _det(0, 20, 0, 30, 6, 0.9, cls=1),
                _det(0, 0, 0, 10, 10, 0.5)]  # IoU 0.6, 0.6 and 1
        report = M.evaluate_detections(dets, gts, n_classes=2)
        assert _report_tuple(report) == per_pair_report(dets, gts, 2)
        # top-1 per image: only the first cut box, matched up to 0.6
        assert report.ar1 == pytest.approx(0.5 * 3 / 10)
        # above 0.6 the full box takes the first ground truth instead
        assert report.ar10 == pytest.approx((3 * 1.0 + 7 * 0.5) / 10)

    def test_tied_ious_take_the_first_ground_truth(self):
        gts = [_gt(0, 0, 0, 10, 10), _gt(0, 10, 0, 20, 10)]
        # the wide box overlaps both by exactly 0.5 and takes the first, so
        # at 0.5 the second detection, which only fits the first, is a miss
        dets = [_det(0, 0, 0, 20, 10, 0.9), _det(0, 0, 0, 10, 10, 0.8)]
        assert M.average_precision(dets, gts, 0.5) == pytest.approx(51 / 101)
        report = M.evaluate_detections(dets, gts, n_classes=1)
        assert _report_tuple(report) == per_pair_report(dets, gts, 1)

    def test_images_without_detections_or_ground_truth(self):
        gts = [_gt(0, 0, 0, 10, 10), _gt(1, 0, 0, 10, 10), _gt(1, 5, 5, 15, 15, cls=2)]
        dets = [_det(0, 0, 0, 10, 10, 0.8), _det(2, 0, 0, 10, 10, 0.9),
                _det(2, 0, 0, 10, 10, 0.9, cls=2)]
        report = M.evaluate_detections(dets, gts, n_classes=3)
        assert _report_tuple(report) == per_pair_report(dets, gts, 3)
        assert report.ar10 == pytest.approx(1 / 3)


class TestEvaluateModel:
    @pytest.mark.parametrize("dataset", [
        [],
        [(np.zeros((64, 64, 3), np.float32), [], []),
         (np.zeros((64, 64, 3), np.float32), [], [])],
    ], ids=["no_images", "boxless_images"])
    def test_no_ground_truth_is_an_error(self, dataset):
        with pytest.raises(ValueError) as exc:
            M.evaluate_model(None, None, dataset, n_classes=3)
        assert str(exc.value) == (
            f"eval set has no ground-truth boxes ({len(dataset)} images)")


class TestPgm:
    def test_write_pgm(self, tmp_path):
        path = str(tmp_path / "m.pgm")
        M.write_pgm(path, np.arange(12, dtype=np.uint8).reshape(3, 4))
        blob = open(path, "rb").read()
        assert blob.startswith(b"P5\n4 3\n255\n")
        assert len(blob) == len(b"P5\n4 3\n255\n") + 12


class TestAttentionExport:
    def test_files_and_sidecar(self, tmp_path):
        from mvdetr.backbone import FrozenBackbone
        from mvdetr.model import Detr, TransformerConfig

        cfg = TransformerConfig(d_model=32, heads=2, enc_layers=1, dec_layers=1,
                                ffn_dim=32, n_queries=5, in_channels=64, sem_dim=64)
        model = Detr(cfg, seed=3)
        backbone = FrozenBackbone(7)
        pixels = np.random.default_rng(0).uniform(0, 1, (64, 64, 3)).astype(np.float32)
        paths = M.export_attention(model, backbone, pixels, str(tmp_path))
        pgms = [p for p in paths if p.endswith(".pgm")]
        assert len(pgms) == 5
        blob = open(pgms[0], "rb").read()
        assert blob.startswith(b"P5\n8 8\n255\n")  # 64-px input at stride 8
        sidecar = [p for p in paths if p.endswith("boxes.txt")][0]
        lines = open(sidecar).read().strip().splitlines()
        assert len(lines) == 5
        first = lines[0].split()
        assert len(first) == 6 and first[0] == "0"
        for v in first[1:]:
            assert 0.0 <= float(v) <= 1.0

    def test_uniform_attention_mid_gray(self, tmp_path):
        # normalization guard: constant map exports as uniform mid-gray
        path = str(tmp_path / "flat.pgm")
        amap = np.full((4, 4), 0.25)
        lo, hi = float(amap.min()), float(amap.max())
        gray = np.full((4, 4), 128, dtype=np.uint8) if hi - lo < 1e-12 else None
        assert gray is not None
        M.write_pgm(path, gray)
        blob = open(path, "rb").read()
        assert blob.endswith(bytes([128] * 16))


class TestInferenceTape:
    """Detection and attention export record no tape, and the values are
    bitwise those of the taped forward pass."""

    @staticmethod
    def _model():
        from mvdetr.backbone import FrozenBackbone
        from mvdetr.model import Detr, TransformerConfig

        cfg = TransformerConfig(d_model=32, heads=2, enc_layers=1, dec_layers=1,
                                ffn_dim=32, n_queries=5, in_channels=64, sem_dim=64)
        model = Detr(cfg, seed=3)
        model.add_class_head(3, seed=4)
        return model, FrozenBackbone(7)

    @staticmethod
    def _count_tape(monkeypatch) -> list[str]:
        recorded = []
        make = T._make

        def counting(*args):
            out = make(*args)
            if out._parents:
                recorded.append(out._op)
            return out

        monkeypatch.setattr(T, "_make", counting)
        return recorded

    @pytest.mark.parametrize("score_source", ["class", "match"])
    def test_detect_batch(self, monkeypatch, score_source):
        model, backbone = self._model()
        rng = np.random.default_rng(5)
        images = [(i, rng.uniform(0, 1, (64, 64, 3)).astype(np.float32)) for i in range(3)]
        recorded = self._count_tape(monkeypatch)
        untaped = M.detect_batch(model, backbone, images, score_source)
        assert recorded == []
        monkeypatch.setattr(T, "no_grad", contextlib.nullcontext)
        taped = M.detect_batch(model, backbone, images, score_source)
        assert recorded  # the taped run really recorded nodes
        assert untaped and untaped == taped

    def test_export_attention(self, monkeypatch, tmp_path):
        model, backbone = self._model()
        pixels = np.random.default_rng(6).uniform(0, 1, (64, 64, 3)).astype(np.float32)
        recorded = self._count_tape(monkeypatch)
        untaped = M.export_attention(model, backbone, pixels, str(tmp_path / "a"))
        assert recorded == []
        monkeypatch.setattr(T, "no_grad", contextlib.nullcontext)
        taped = M.export_attention(model, backbone, pixels, str(tmp_path / "b"))
        assert recorded
        assert len(untaped) == len(taped) == 6
        for a, b in zip(untaped, taped):
            assert open(a, "rb").read() == open(b, "rb").read()
