"""Geometry: overlap metrics vs. the grid-count oracle, transforms, RoIAlign."""

import numpy as np
import pytest

from mvdetr import geometry as G
from mvdetr.tensor import Tensor, tsum

from helpers import box_giou, grid_count_iou, dense_bilinear_average, gradcheck


def _rand_int_box(rng, extent=64):
    x1 = rng.integers(0, extent - 1)
    y1 = rng.integers(0, extent - 1)
    x2 = rng.integers(x1 + 1, extent)
    y2 = rng.integers(y1 + 1, extent)
    return G.BoxXYXY(float(x1), float(y1), float(x2), float(y2))


class TestIoU:
    def test_identical(self):
        b = G.BoxXYXY(3, 4, 10, 12)
        assert G.box_iou(b, b) == pytest.approx(1.0)

    def test_disjoint(self):
        assert G.box_iou(G.BoxXYXY(0, 0, 10, 10), G.BoxXYXY(20, 20, 30, 30)) == 0.0

    def test_one_third_overlap(self):
        a, b = G.BoxXYXY(0, 0, 2, 2), G.BoxXYXY(1, 0, 3, 2)
        oracle_iou, _ = grid_count_iou((0, 0, 2, 2), (1, 0, 3, 2))
        assert G.box_iou(a, b) == pytest.approx(1 / 3, abs=2e-2)
        assert G.box_iou(a, b) == pytest.approx(oracle_iou, abs=2e-2)

    def test_degenerate_box_gives_zero(self):
        assert G.box_iou(G.BoxXYXY(5, 5, 5, 5), G.BoxXYXY(0, 0, 10, 10)) == 0.0

    def test_symmetry_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = _rand_int_box(rng), _rand_int_box(rng)
            assert G.box_iou(a, b) == G.box_iou(b, a)
            assert box_giou(a, b) == box_giou(b, a)


class TestGIoU:
    def test_identical(self):
        b = G.BoxXYXY(1, 1, 5, 7)
        assert box_giou(b, b) == pytest.approx(1.0)

    def test_containment_equals_iou(self):
        a, b = G.BoxXYXY(0, 0, 2, 2), G.BoxXYXY(0, 0, 1, 1)
        assert box_giou(a, b) == pytest.approx(0.25)
        assert box_giou(a, b) == pytest.approx(G.box_iou(a, b))

    def test_separated_negative(self):
        # hull area 3, union 2, iou 0 -> giou = -1/3
        a, b = G.BoxXYXY(0, 0, 1, 1), G.BoxXYXY(2, 0, 3, 1)
        assert box_giou(a, b) == pytest.approx(-1 / 3)
        _, oracle = grid_count_iou((0, 0, 1, 1), (2, 0, 3, 1))
        assert box_giou(a, b) == pytest.approx(oracle, abs=2e-2)

    def test_never_exceeds_iou(self):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            a, b = _rand_int_box(rng), _rand_int_box(rng)
            assert box_giou(a, b) <= G.box_iou(a, b) + 1e-6

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            a, b = _rand_int_box(rng), _rand_int_box(rng)
            iou_o, giou_o = grid_count_iou((a.x1, a.y1, a.x2, a.y2),
                                           (b.x1, b.y1, b.x2, b.y2))
            assert G.box_iou(a, b) == pytest.approx(iou_o, abs=2e-2)
            assert box_giou(a, b) == pytest.approx(giou_o, abs=2e-2)

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            v = box_giou(_rand_int_box(rng), _rand_int_box(rng))
            assert -1.0 - 1e-9 <= v <= 1.0 + 1e-9


class TestConvert:
    def test_full_frame(self):
        out = G.to_cxcywh(G.BoxXYXY(0, 0, 200, 100), 200, 100)
        assert (out.cx, out.cy, out.w, out.h) == (0.5, 0.5, 1.0, 1.0)

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            b = _rand_int_box(rng)
            c = G.to_cxcywh(b, 64, 64)
            back = ((c.cx - c.w / 2) * 64, (c.cy - c.h / 2) * 64,
                    (c.cx + c.w / 2) * 64, (c.cy + c.h / 2) * 64)
            for u, v in zip((b.x1, b.y1, b.x2, b.y2), back):
                assert u == pytest.approx(v, abs=1e-5)


class TestFrameTransform:
    def test_identity(self):
        t = G.FrameTransform(0.0, 0.0, 1.0, 1.0, False, 100, 80, 100, 80)
        b = G.BoxXYXY(10, 20, 30, 40)
        out = G.map_box(b, t)
        assert (out.x1, out.y1, out.x2, out.y2) == (10, 20, 30, 40)

    def test_flip_reflection(self):
        t = G.FrameTransform(0.0, 0.0, 1.0, 1.0, False, 100, 100, 100, 100).with_flip()
        out = G.map_box(G.BoxXYXY(10, 0, 20, 10), t)
        assert (out.x1, out.y1, out.x2, out.y2) == (80.0, 0.0, 90.0, 10.0)

    def test_map_then_inverse_is_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            sx = float(rng.uniform(0.3, 3.0))
            sy = float(rng.uniform(0.3, 3.0))
            dx = float(rng.uniform(0, 40))
            dy = float(rng.uniform(0, 40))
            flip = bool(rng.integers(0, 2))
            t = G.FrameTransform(dx, dy, sx, sy, flip, 200, 200, 128, 128)
            x1 = float(rng.uniform(dx + 1, dx + 30))
            y1 = float(rng.uniform(dy + 1, dy + 30))
            b = G.BoxXYXY(x1, y1, x1 + float(rng.uniform(1, 20)), y1 + float(rng.uniform(1, 20)))
            xa, ya = t.apply_point(b.x1, b.y1)
            xb, yb = t.apply_point(b.x2, b.y2)
            if not (0 <= min(xa, xb) and max(xa, xb) <= t.dst_w
                    and 0 <= min(ya, yb) and max(ya, yb) <= t.dst_h):
                continue  # clamping would lose information; not a round-trip case
            mapped = G.map_box(b, t)
            back = G.map_box(mapped, t.inverse())
            for u, v in zip((b.x1, b.y1, b.x2, b.y2), (back.x1, back.y1, back.x2, back.y2)):
                assert u == pytest.approx(v, abs=1e-5)

    def test_outside_frame_errors(self):
        t = G.FrameTransform(100, 100, 1.0, 1.0, False, 200, 200, 50, 50)
        with pytest.raises(ValueError):
            G.map_box(G.BoxXYXY(0, 0, 10, 10), t)


class TestRoiAlign:
    def test_constant_map(self):
        feat = Tensor(np.full((8, 8, 3), 7.0, dtype=np.float32))
        out = G.roi_align(feat, [G.BoxXYXY(1.3, 2.1, 6.7, 5.9)], (3, 3))
        assert out.data.shape == (1, 3, 3, 3)
        np.testing.assert_allclose(out.data, 7.0, atol=1e-5)

    def test_single_cell(self):
        feat = Tensor(np.array([[[4.5]]], dtype=np.float32))
        out = G.roi_align(feat, [G.BoxXYXY(0, 0, 1, 1)], (1, 1))
        np.testing.assert_allclose(out.data, 4.5)

    def test_ramp_matches_dense_oracle(self):
        xs = np.arange(4, dtype=np.float32)
        feat = np.stack([np.tile(xs, (4, 1))] * 2, axis=-1)  # f(x, y) = x
        box = G.BoxXYXY(0.5, 0.5, 3.5, 3.5)
        out = G.roi_align(Tensor(feat), [box], (2, 2))
        oracle = dense_bilinear_average(feat.astype(np.float64),
                                        (0.5, 0.5, 3.5, 3.5), (2, 2))
        np.testing.assert_allclose(out.data[0], oracle, atol=1e-3)

    def test_random_boxes_match_dense_oracle(self):
        rng = np.random.default_rng(6)
        feat = rng.standard_normal((6, 5, 2))
        for _ in range(10):
            x1 = float(rng.uniform(0, 3))
            y1 = float(rng.uniform(0, 4))
            box = G.BoxXYXY(x1, y1, x1 + float(rng.uniform(0.5, 2)), y1 + float(rng.uniform(0.5, 2)))
            out = G.roi_align(Tensor(feat.astype(np.float32)), [box], (2, 2))
            oracle = dense_bilinear_average(feat, (box.x1, box.y1, box.x2, box.y2), (2, 2))
            # 2x2 sampling equals the dense average only for globally linear
            # fields; bins straddling cell boundaries see curvature error
            np.testing.assert_allclose(out.data[0], oracle, atol=0.15)

    def test_border_clamp_no_error(self):
        feat = Tensor(np.ones((4, 4, 1), dtype=np.float32))
        out = G.roi_align(feat, [G.BoxXYXY(-2, -2, 8, 8)], (2, 2))
        np.testing.assert_allclose(out.data, 1.0)

    def test_gradient_wrt_features(self):
        boxes = [G.BoxXYXY(0.4, 0.7, 3.1, 2.6), G.BoxXYXY(1.0, 0.0, 4.0, 4.0)]
        gradcheck(lambda ts: tsum(G.roi_align(ts[0], boxes, (2, 2))),
                  [(4, 5, 3)], np.random.default_rng(7))
