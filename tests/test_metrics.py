"""AP/AR metrics against hand-enumerated PR curves; export formats."""

import contextlib
import os
import pickle
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (assert_reaped, per_pair_average_precision, per_pair_average_recall_at_k,
                     per_pair_report, producer_pids, same_bits, serial_evaluate)
from mvdetr import metrics as M
from mvdetr import tensor as T
from mvdetr.data import SceneSpec, render_scene


def _dets(*rows):
    """A `DETECTION` array from (image, x1, y1, x2, y2, score[, label]) rows."""
    out = np.zeros(len(rows), M.DETECTION)
    for k, (image, x1, y1, x2, y2, score, *label) in enumerate(rows):
        out[k] = (image, (x1, y1, x2, y2), label[0] if label else 0, score)
    return out


def _truth(*rows, images=None):
    """Per-image (boxes, labels) from (image, x1, y1, x2, y2[, label]) rows,
    for `images` images (by default up to the last image named)."""
    n = 1 + max((r[0] for r in rows), default=-1) if images is None else images
    return [(np.array([r[1:5] for r in rows if r[0] == i], np.float64).reshape(-1, 4),
             np.array([(r[5:] or (0,))[0] for r in rows if r[0] == i], np.int64))
            for i in range(n)]


def _report_tuple(report):
    return (report.ap, report.ap50, report.ap75, report.ar1, report.ar10)


def _blind(dets, truth):
    """Report of a class-blind scoring: every box in class 0 of one."""
    return M.evaluate_detections(dets, truth, n_classes=1)


class TestAveragePrecision:
    def test_perfect_duplicates_of_gt(self):
        truth = _truth((0, 0, 0, 10, 10), (0, 20, 20, 30, 30))
        dets = _dets((0, 0, 0, 10, 10, 1.0), (0, 20, 20, 30, 30, 1.0))
        report = _blind(dets, truth)
        # ap is the mean over the grid up to 0.95, so every threshold scores 1
        for value in (report.ap50, report.ap75, report.ap):
            assert value == pytest.approx(1.0)

    def test_no_detections(self):
        assert _blind(_dets(), _truth((0, 0, 0, 5, 5))).ap50 == 0.0

    def test_empty_gt_no_dets_is_one(self):
        # AP skips a class without ground truth; recall keeps the convention
        report = _blind(_dets(), [])
        assert (report.ar1, report.ar10) == (1.0, 1.0)

    def test_one_correct_one_false(self):
        # 2 GT; correct det @0.9 then a false positive @0.8:
        # precision envelope is 1 up to recall 0.5, 0 beyond ->
        # 51 of the 101 grid points score 1.0
        truth = _truth((0, 0, 0, 10, 10), (0, 50, 50, 60, 60))
        dets = _dets((0, 0, 0, 10, 10, 0.9), (0, 80, 80, 90, 90, 0.8))
        ap = _blind(dets, truth).ap50
        assert ap == pytest.approx(51 / 101, abs=1e-9)
        assert ap == pytest.approx(0.5, abs=0.01)

    def test_monotone_in_threshold(self):
        # the per-pair oracle gives AP at each grid threshold; the report's
        # ap50, ap75 and grid mean are those same numbers
        rng = np.random.default_rng(0)
        for _ in range(20):
            truth, rows = [], []
            for img in range(3):
                boxes = []
                for _ in range(rng.integers(1, 4)):
                    x, y = rng.uniform(0, 40, 2)
                    w, h = rng.uniform(5, 20, 2)
                    boxes.append((x, y, x + w, y + h))
                truth.append((np.array(boxes), np.zeros(len(boxes), np.int64)))
                for _ in range(rng.integers(1, 5)):
                    x, y = rng.uniform(0, 40, 2)
                    w, h = rng.uniform(5, 20, 2)
                    rows.append((img, x, y, x + w, y + h, float(rng.uniform(0, 1))))
            dets = _dets(*rows)
            values = [per_pair_average_precision(dets, truth, t) for t in M.IOU_GRID]
            assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
            report = _blind(dets, truth)
            assert (report.ap50, report.ap75) == (values[0], values[5])
            assert report.ap == float(np.mean(values))

    def test_order_invariance(self):
        # neither the order of an image's ground-truth rows nor that of the
        # detection records (distinct scores) changes the report
        rng = np.random.default_rng(1)
        rows = [(0, 0, 0, 10, 10), (1, 5, 5, 25, 25), (1, 30, 30, 45, 45)]
        dets = _dets((0, 1, 1, 11, 11, 0.7), (1, 4, 4, 24, 24, 0.9),
                     (1, 40, 40, 50, 50, 0.3), (1, 31, 29, 46, 44, 0.5))
        base = _report_tuple(_blind(dets, _truth(*rows)))
        for _ in range(5):
            perm = list(rng.permutation(len(rows)))
            order = rng.permutation(len(dets))
            assert _report_tuple(_blind(dets[order], _truth(*[rows[i] for i in perm]))) == base


class TestAverageRecall:
    def test_perfect_boxes(self):
        truth = _truth((0, 0, 0, 10, 10))
        dets = _dets((0, 0, 0, 10, 10, 0.9))
        assert _blind(dets, truth).ar1 == pytest.approx(1.0)

    def test_no_overlap(self):
        truth = _truth((0, 0, 0, 10, 10))
        dets = _dets((0, 50, 50, 60, 60, 0.9))
        assert _blind(dets, truth).ar1 == 0.0

    def test_iou_point_six_passes_three_thresholds(self):
        truth = _truth((0, 0, 0, 10, 10))
        dets = _dets((0, 0, 0, 10, 6, 0.9))  # IoU exactly 0.6
        assert _blind(dets, truth).ar1 == pytest.approx(3 / 10)

    def test_non_decreasing_in_k(self):
        # the per-pair oracle gives AR at each k; the report's AR@1 and
        # AR@10 are those same numbers
        rng = np.random.default_rng(2)
        truth, rows = [], []
        for img in range(4):
            boxes = []
            for _ in range(3):
                x, y = rng.uniform(0, 30, 2)
                w, h = rng.uniform(8, 25, 2)
                boxes.append((x, y, x + w, y + h))
            truth.append((np.array(boxes), np.zeros(3, np.int64)))
            for _ in range(12):
                x, y = rng.uniform(0, 30, 2)
                w, h = rng.uniform(8, 25, 2)
                rows.append((img, x, y, x + w, y + h, float(rng.uniform(0, 1))))
        dets = _dets(*rows)
        values = [per_pair_average_recall_at_k(dets, truth, k) for k in (1, 2, 5, 10, 20)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
        report = _blind(dets, truth)
        assert (report.ar1, report.ar10) == (values[0], values[3])

    def test_top_k_selection_respects_confidence(self):
        truth = _truth((0, 0, 0, 10, 10))
        # the good box ranks second: with k=1 only the bad one is kept, and
        # k=10 keeps both detections, as k=2 would
        dets = _dets((0, 50, 50, 60, 60, 0.9), (0, 0, 0, 10, 10, 0.5))
        report = _blind(dets, truth)
        assert report.ar1 == 0.0
        assert report.ar10 == pytest.approx(1.0)


class TestReport:
    def test_ap_not_above_ap50(self):
        rng = np.random.default_rng(3)
        gt_rows, det_rows = [], []
        for img in range(3):
            for _ in range(2):
                x, y = rng.uniform(0, 40, 2)
                w, h = rng.uniform(10, 30, 2)
                cls = int(rng.integers(0, 3))
                gt_rows.append((img, x, y, x + w, y + h, cls))
                jx, jy = rng.uniform(-3, 3, 2)
                det_rows.append((img, x + jx, y + jy, x + w + jx, y + h + jy,
                                 float(rng.uniform(0.2, 1.0)), cls))
        report = M.evaluate_detections(_dets(*det_rows), _truth(*gt_rows), n_classes=3)
        assert report.ap <= report.ap50 + 1e-9
        for v in (report.ap, report.ap50, report.ap75, report.ar1, report.ar10):
            assert 0.0 <= v <= 1.0

    def test_csv_shape(self):
        report = M.MetricReport(0.1, 0.2, 0.3, 0.4, 0.5)
        lines = report.as_csv().strip().splitlines()
        assert lines[0] == "ap,ap50,ap75,ar1,ar10"
        assert len(lines[1].split(",")) == 5


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
        return (x1, y1, x1 + draw(side), y1 + draw(side))

    gts = [(draw(st.integers(0, 2)), box(), draw(st.integers(0, 2)))
           for _ in range(draw(st.integers(0, 8)))]
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["free", "copy", "cut"] if gts else ["free"]))
        if kind == "free":
            image, b = draw(st.integers(0, 3)), box()
        else:
            image, b, _ = draw(st.sampled_from(gts))
            if kind == "cut":  # keep a share of its height
                share = draw(st.sampled_from([0.5, 0.55, 0.6, 0.75, 0.9, 0.95]))
                b = (b[0], b[1], b[2], b[1] + (b[3] - b[1]) * share)
        label = draw(st.integers(0, 2))
        rows.append((image, *b, draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])), label))
    return _dets(*rows), _truth(*[(image, *b, label) for image, b, label in gts], images=4)


class TestAgainstPerPairOracle:
    """The per-image IoU scorer reproduces per-pair `scalar_iou` matching exactly."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(scene=scored_scenes())
    def test_report_equals_oracle(self, scene):
        dets, truth = scene
        assert (_report_tuple(M.evaluate_detections(dets, truth, n_classes=3))
                == per_pair_report(dets, truth, 3))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(scene=scored_scenes())
    def test_class_blind_scores_equal_oracle(self, scene):
        dets, truth = scene
        dets["label"] = 0
        truth = [(boxes, np.zeros_like(labels)) for boxes, labels in truth]
        assert _report_tuple(_blind(dets, truth)) == per_pair_report(dets, truth, 1)

    def test_iou_exactly_on_threshold(self):
        truth = _truth((0, 0, 0, 10, 10), (0, 20, 0, 30, 10, 1))
        dets = _dets((0, 0, 0, 10, 6, 0.9), (0, 20, 0, 30, 6, 0.9, 1),
                     (0, 0, 0, 10, 10, 0.5))  # IoU 0.6, 0.6 and 1
        report = M.evaluate_detections(dets, truth, n_classes=2)
        assert _report_tuple(report) == per_pair_report(dets, truth, 2)
        # top-1 per image: only the first cut box, matched up to 0.6
        assert report.ar1 == pytest.approx(0.5 * 3 / 10)
        # above 0.6 the full box takes the first ground truth instead
        assert report.ar10 == pytest.approx((3 * 1.0 + 7 * 0.5) / 10)

    def test_tied_ious_take_the_first_ground_truth(self):
        truth = _truth((0, 0, 0, 10, 10), (0, 10, 0, 20, 10))
        # the wide box overlaps both by exactly 0.5 and takes the first, so
        # at 0.5 the second detection, which only fits the first, is a miss
        dets = _dets((0, 0, 0, 20, 10, 0.9), (0, 0, 0, 10, 10, 0.8))
        report = M.evaluate_detections(dets, truth, n_classes=1)
        assert report.ap50 == pytest.approx(51 / 101)
        assert _report_tuple(report) == per_pair_report(dets, truth, 1)

    def test_images_without_detections_or_ground_truth(self):
        truth = _truth((0, 0, 0, 10, 10), (1, 0, 0, 10, 10), (1, 5, 5, 15, 15, 2),
                       images=3)
        dets = _dets((0, 0, 0, 10, 10, 0.8), (2, 0, 0, 10, 10, 0.9),
                     (2, 0, 0, 10, 10, 0.9, 2))
        report = M.evaluate_detections(dets, truth, n_classes=3)
        assert _report_tuple(report) == per_pair_report(dets, truth, 3)
        assert report.ar10 == pytest.approx(1 / 3)


class TestEvaluateModel:
    @pytest.mark.parametrize("dataset", [
        [],
        [(np.zeros((64, 64, 3), np.float32), np.zeros((0, 4)), np.zeros(0, np.int64)),
         (np.zeros((64, 64, 3), np.float32), np.zeros((0, 4)), np.zeros(0, np.int64))],
    ], ids=["no_images", "boxless_images"])
    def test_no_ground_truth_is_an_error(self, dataset):
        with pytest.raises(ValueError) as exc:
            M.evaluate_model(None, None, dataset, n_classes=3, view_size=64)
        assert str(exc.value) == (
            f"eval set has no ground-truth boxes ({len(dataset)} images)")


@pytest.fixture(scope="module")
def scenes():
    """64 labeled 64-px scenes, in `load_dataset`'s (pixels, boxes, labels) form."""
    spec = SceneSpec(image_size=64, seed=12)
    out = []
    for i in range(64):
        pixels, objects = render_scene(spec, i)
        out.append((pixels, np.array([o.bbox() for o in objects]).reshape(-1, 4),
                    np.array([o.label for o in objects], np.int64)))
    return out


def _recorded_detections(monkeypatch) -> list[np.ndarray]:
    """Record the detection records every `evaluate_detections` call scores."""
    seen = []
    real = M.evaluate_detections

    def record(detections, *args):
        seen.append(detections)
        return real(detections, *args)

    monkeypatch.setattr(M, "evaluate_detections", record)
    return seen


@pytest.mark.usefixtures("deadline")
class TestEvaluateProducer:
    """`evaluate_model`, whose forked producer builds every batch after the
    second one batch ahead, gives the one-process loop's report and records."""

    @pytest.mark.parametrize("score_source", ["class", "match"])
    @pytest.mark.parametrize("n_images", [16, 32, 37, 64])
    def test_matches_serial_loop(self, scenes, monkeypatch, n_images, score_source):
        model, backbone = TestInferenceTape._model()
        dataset = scenes[:n_images]
        want, want_dets = serial_evaluate(model, backbone, dataset, 3, score_source,
                                          view_size=64)
        seen = _recorded_detections(monkeypatch)
        pids = producer_pids(monkeypatch)
        got = M.evaluate_model(model, backbone, dataset, 3, score_source, view_size=64)
        assert got.as_csv() == want.as_csv()
        assert len(want_dets) and seen[0].tobytes() == want_dets.tobytes()
        n_batches = -(-n_images // 16)
        assert len(pids) == (1 if n_batches > 2 else 0)  # one or two batches fork nothing
        assert_reaped(pids)

    @pytest.mark.parametrize("score_source", ["class", "match"])
    def test_one_cpu_forks_nothing(self, scenes, monkeypatch, score_source):
        model, backbone = TestInferenceTape._model()
        want, want_dets = serial_evaluate(model, backbone, scenes, 3, score_source,
                                          view_size=64)
        seen = _recorded_detections(monkeypatch)
        pids = producer_pids(monkeypatch, cpus=1)
        got = M.evaluate_model(model, backbone, scenes, 3, score_source, view_size=64)
        assert got.as_csv() == want.as_csv()
        assert seen[0].tobytes() == want_dets.tobytes()
        assert pids == []


@pytest.mark.usefixtures("deadline")
class TestEvaluateProducerFailures:
    """A failure in the producer surfaces in the parent at its batch, and no
    producer process is left behind on any exit path."""

    BAD = 40  # image 40 is in batch 2, which only the producer builds

    def _failing_resize(self, monkeypatch, scenes, fail):
        bad = scenes[self.BAD][0]
        real = M.resize_to_view

        def resize(pixels, size):
            if pixels is bad:
                fail()
            return real(pixels, size)

        monkeypatch.setattr(M, "resize_to_view", resize)  # before the fork

    def test_exception_in_a_later_batch_is_raised(self, scenes, monkeypatch):
        def fail():
            raise ValueError("cannot resize this image")

        model, backbone = TestInferenceTape._model()
        self._failing_resize(monkeypatch, scenes, fail)
        pids = producer_pids(monkeypatch)
        with pytest.raises(ValueError) as raised:
            M.evaluate_model(model, backbone, scenes, 3, view_size=64)
        assert str(raised.value) == "cannot resize this image"
        assert "in resize" in raised.value.__notes__[0]  # the producer's traceback
        assert len(pids) == 1
        assert_reaped(pids)

    @pytest.mark.parametrize("end, message", [
        (lambda: os._exit(3), "exited with status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
    ], ids=["exit", "killed"])
    def test_dead_producer_raises_child_process_error(self, scenes, monkeypatch, end,
                                                      message):
        model, backbone = TestInferenceTape._model()
        self._failing_resize(monkeypatch, scenes, end)
        pids = producer_pids(monkeypatch)
        with pytest.raises(ChildProcessError, match=f"^batch producer process \\d+ {message}$"):
            M.evaluate_model(model, backbone, scenes, 3, view_size=64)
        assert len(pids) == 1
        assert_reaped(pids)

    def test_interrupted_decode_reaps_the_producer(self, scenes, monkeypatch):
        model, backbone = TestInferenceTape._model()
        real = M.detect_batch
        calls = []

        def detect(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:  # the first batch the producer built
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(M, "detect_batch", detect)
        pids = producer_pids(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            M.evaluate_model(model, backbone, scenes, 3, view_size=64)
        assert len(pids) == 1
        assert_reaped(pids)


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
        from mvdetr.config import RunConfig
        from mvdetr.model import Detr

        cfg = RunConfig(model_d_model=32, model_heads=2, model_enc_layers=1,
                        model_dec_layers=1, model_ffn_dim=32, view_n=5, view_size=64)
        model = Detr(cfg, 64, seed=3)
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
        from mvdetr.config import RunConfig
        from mvdetr.model import Detr

        cfg = RunConfig(model_d_model=32, model_heads=2, model_enc_layers=1,
                        model_dec_layers=1, model_ffn_dim=32, view_n=5, view_size=64)
        model = Detr(cfg, 64, seed=3)
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
        untaped = M.detect_batch(model, backbone, images, score_source, view_size=64)
        assert recorded == []
        monkeypatch.setattr(T, "no_grad", contextlib.nullcontext)
        taped = M.detect_batch(model, backbone, images, score_source, view_size=64)
        assert recorded  # the taped run really recorded nodes
        assert len(untaped) and untaped.tobytes() == taped.tobytes()

    @pytest.mark.parametrize("score_source", ["class", "match"])
    def test_precomputed_features_are_bit_equal(self, score_source):
        """The features as the producer sends them, through a pickle round
        trip, give the records of the batch's own backbone pass."""
        model, backbone = self._model()
        rng = np.random.default_rng(8)
        images = [(i, rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
                  for i, (h, w) in enumerate([(64, 64), (48, 80), (100, 60)])]
        sent = pickle.loads(pickle.dumps(M.view_features(backbone, images, 64),
                                         pickle.HIGHEST_PROTOCOL))
        own = M.detect_batch(model, backbone, images, score_source, view_size=64)
        ahead = M.detect_batch(model, backbone, images, score_source, view_size=64,
                               features=sent)
        assert len(own) and own.tobytes() == ahead.tobytes()

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


class TestDetectBatch:
    """One record per query whose box, clamped to its image, keeps a
    positive width and height: the records the scalar per-query loop builds,
    bit for bit, so `len(detect_batch(...))` counts exactly those boxes."""

    # cxcywh rows forced onto the first queries of every image
    FORCED = np.array([[1.0, 0.5, 0.5, 0.5],     # clamped at the right edge, kept
                       [1.25, 0.5, 0.5, 0.5],    # clamps to zero width at the right
                       [-0.25, 0.5, 0.5, 0.5],   # clamps to zero width at the left
                       [0.5, 0.5, 0.5, 0.0],     # zero height
                       [np.nan, 0.5, 0.5, 0.5]],  # clamps to the full width, kept
                      np.float32)

    @staticmethod
    def _scalar_loop(boxes, labels, scores, images):
        out = []
        for bi, (image_id, pixels) in enumerate(images):
            height, width = pixels.shape[:2]
            for i in range(boxes.shape[1]):
                cx, cy, w, bh = (float(v) for v in boxes[bi, i])
                x1 = max(0.0, (cx - w / 2) * width)
                y1 = max(0.0, (cy - bh / 2) * height)
                x2 = min(float(width), (cx + w / 2) * width)
                y2 = min(float(height), (cy + bh / 2) * height)
                if x2 <= x1 or y2 <= y1:
                    continue
                out.append((image_id, (x1, y1, x2, y2), int(labels[bi, i]),
                            float(np.clip(scores[bi, i], 0.0, 1.0))))
        return out

    @pytest.mark.parametrize("score_source", ["class", "match"])
    def test_count_and_records_equal_scalar_loop(self, monkeypatch, score_source):
        model, backbone = TestInferenceTape._model()
        seen = {}
        predict, class_logits = model.predict, model.class_logits

        def forcing_predict(q_hat):
            boxes, sem, match = predict(q_hat)
            boxes.data[:, :len(self.FORCED)] = self.FORCED
            seen["boxes"], seen["match"] = boxes.data.copy(), match.data[:, :, 0].copy()
            return boxes, sem, match

        def recording_logits(q_hat):
            logits = class_logits(q_hat)
            seen["fg"] = T.softmax(logits).data[:, :, :-1]
            return logits

        monkeypatch.setattr(model, "predict", forcing_predict)
        monkeypatch.setattr(model, "class_logits", recording_logits)
        rng = np.random.default_rng(7)
        images = [(i + 4, rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
                  for i, (h, w) in enumerate([(64, 64), (48, 80), (100, 60)])]
        got = M.detect_batch(model, backbone, images, score_source, view_size=64)
        if score_source == "class":
            labels, scores = seen["fg"].argmax(axis=-1), seen["fg"].max(axis=-1)
        else:
            labels, scores = np.zeros(seen["match"].shape, np.int64), seen["match"]
        want = self._scalar_loop(seen["boxes"], labels, scores, images)
        n_queries = seen["boxes"].shape[1]
        assert len(got) == len(want) == len(images) * (n_queries - 3)
        assert got.dtype == M.DETECTION
        for record, (image, box, label, score) in zip(got, want):
            assert int(record["image"]) == image and int(record["label"]) == label
            assert same_bits(record["box"], np.array(box))
            assert same_bits(record["score"], np.float64(score))

    def test_nan_score_is_an_error(self, monkeypatch):
        model, backbone = TestInferenceTape._model()
        predict = model.predict

        def nan_match(q_hat):
            boxes, sem, match = predict(q_hat)
            match.data[0, 1, 0] = np.nan
            return boxes, sem, match

        monkeypatch.setattr(model, "predict", nan_match)
        pixels = np.zeros((64, 64, 3), np.uint8)
        with pytest.raises(ValueError, match="confidence out of range: nan"):
            M.detect_batch(model, backbone, [(0, pixels)], "match", view_size=64)
