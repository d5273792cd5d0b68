"""Geometry: overlap metrics vs. the grid-count oracle, transforms, RoIAlign."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mvdetr import geometry as G
from mvdetr.geometry import boxes_to_targets
from mvdetr.tensor import Tensor, tsum

from helpers import (Box, box_giou, grid_count_iou, dense_bilinear_average, dense_resample,
                     gradcheck, same_bits, sampled_taps, scalar_iou, scalar_map_box)


def _rand_int_box(rng, extent=64):
    x1 = rng.integers(0, extent - 1)
    y1 = rng.integers(0, extent - 1)
    x2 = rng.integers(x1 + 1, extent)
    y2 = rng.integers(y1 + 1, extent)
    return Box(float(x1), float(y1), float(x2), float(y2))


def _iou(a, b):
    """`pairwise_iou` of two single boxes, each given as an xyxy 4-sequence."""
    return float(G.pairwise_iou(np.array([a], float), np.array([b], float))[0][0, 0])


class TestIoU:
    def test_identical(self):
        b = (3, 4, 10, 12)
        assert _iou(b, b) == pytest.approx(1.0)

    def test_disjoint(self):
        assert _iou((0, 0, 10, 10), (20, 20, 30, 30)) == 0.0

    def test_one_third_overlap(self):
        a, b = (0, 0, 2, 2), (1, 0, 3, 2)
        oracle_iou, _ = grid_count_iou(a, b)
        assert _iou(a, b) == pytest.approx(1 / 3, abs=2e-2)
        assert _iou(a, b) == pytest.approx(oracle_iou, abs=2e-2)

    def test_degenerate_box_gives_zero(self):
        assert _iou((5, 5, 5, 5), (0, 0, 10, 10)) == 0.0

    def test_symmetry_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = _rand_int_box(rng), _rand_int_box(rng)
            assert _iou(a, b) == _iou(b, a)
            assert box_giou(a, b) == box_giou(b, a)


_SIDE = st.one_of(st.just(0.0), st.integers(0, 40).map(float), st.floats(0.0, 60.0))
_BOX = st.tuples(st.integers(-20, 60).map(float) | st.floats(-50.0, 100.0),
                 st.integers(-20, 60).map(float) | st.floats(-50.0, 100.0),
                 _SIDE, _SIDE).map(lambda t: Box(t[0], t[1], t[0] + t[2], t[1] + t[3]))


class TestPairwiseIoU:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(a=st.lists(_BOX, min_size=1, max_size=8), b=st.lists(_BOX, min_size=1, max_size=8))
    @example(a=[Box(5.0, 5.0, 5.0, 5.0), Box(5.0, 5.0, 5.0, 9.0)],  # zero area
             b=[Box(0.0, 0.0, 10.0, 10.0), Box(5.0, 5.0, 5.0, 5.0)])
    @example(a=[Box(0.0, 0.0, 10.0, 10.0)], b=[Box(10.0, 0.0, 20.0, 10.0)])  # touching edge
    @example(a=[Box(0.0, 0.0, 10.0, 10.0)], b=[Box(10.0, 10.0, 20.0, 20.0)])  # touching corner
    @example(a=[Box(0.0, 0.0, 10.0, 10.0)], b=[Box(100.0, 100.0, 101.0, 101.0)])  # disjoint
    @example(a=[Box(0.1, 0.2, 10.3, 10.7)], b=[Box(0.1, 0.2, 10.3, 10.7)])  # identical
    def test_equals_scalar_iou_bit_for_bit(self, a, b):
        iou, _ = G.pairwise_iou(np.array(a), np.array(b))
        expected = np.array([[scalar_iou(p, q) for q in b] for p in a])
        assert iou.tobytes() == expected.tobytes()
        _, union = G.pairwise_iou(np.array(a), np.array(a))
        assert [union[k, k] for k in range(len(a))] == [p.area for p in a]  # box with itself


class TestGIoU:
    def test_identical(self):
        b = Box(1, 1, 5, 7)
        assert box_giou(b, b) == pytest.approx(1.0)

    def test_containment_equals_iou(self):
        a, b = Box(0, 0, 2, 2), Box(0, 0, 1, 1)
        assert box_giou(a, b) == pytest.approx(0.25)
        assert box_giou(a, b) == pytest.approx(_iou(a, b))

    def test_separated_negative(self):
        # hull area 3, union 2, iou 0 -> giou = -1/3
        a, b = Box(0, 0, 1, 1), Box(2, 0, 3, 1)
        assert box_giou(a, b) == pytest.approx(-1 / 3)
        _, oracle = grid_count_iou((0, 0, 1, 1), (2, 0, 3, 1))
        assert box_giou(a, b) == pytest.approx(oracle, abs=2e-2)

    def test_never_exceeds_iou(self):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            a, b = _rand_int_box(rng), _rand_int_box(rng)
            assert box_giou(a, b) <= _iou(a, b) + 1e-6

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            a, b = _rand_int_box(rng), _rand_int_box(rng)
            iou_o, giou_o = grid_count_iou(a, b)
            assert _iou(a, b) == pytest.approx(iou_o, abs=2e-2)
            assert box_giou(a, b) == pytest.approx(giou_o, abs=2e-2)

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            v = box_giou(_rand_int_box(rng), _rand_int_box(rng))
            assert -1.0 - 1e-9 <= v <= 1.0 + 1e-9


class TestConvert:
    # pixel corners to the normalized cxcywh rows of training targets
    def test_full_frame(self):
        out = boxes_to_targets(np.array([[0.0, 0.0, 200.0, 100.0]]), 200, 100)
        assert out.tolist() == [[0.5, 0.5, 1.0, 1.0]]

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            b = _rand_int_box(rng)
            cx, cy, w, h = (float(v) for v in boxes_to_targets(np.array([b]), 64, 64)[0])
            back = ((cx - w / 2) * 64, (cy - h / 2) * 64,
                    (cx + w / 2) * 64, (cy + h / 2) * 64)
            for u, v in zip(b, back):
                assert u == pytest.approx(v, abs=1e-5)


class TestFrameTransform:
    """`map_boxes`: a box set into the frame of a view cropped from a rect."""

    def test_identity(self):
        rect = np.array([0.0, 0.0, 100.0, 100.0])
        out, inside = G.map_boxes(np.array([[10.0, 20.0, 30.0, 40.0]]), rect, False, 100)
        assert inside.tolist() == [True]
        assert out.tolist() == [[10, 20, 30, 40]]

    def test_flip_reflection(self):
        rect = np.array([0.0, 0.0, 100.0, 100.0])
        out, _ = G.map_boxes(np.array([[10.0, 0.0, 20.0, 10.0]]), rect, True, 100)
        assert out.tolist() == [[80.0, 0.0, 90.0, 10.0]]

    def test_outside_frame_errors(self):
        rect = np.array([100.0, 100.0, 150.0, 150.0])
        _, inside = G.map_boxes(np.array([[0.0, 0.0, 10.0, 10.0]]), rect, False, 50)
        assert inside.tolist() == [False]

    _ZERO = st.sampled_from([0.0, -0.0])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(corner=st.tuples(st.one_of(_ZERO, st.floats(-60, 200)),
                            st.one_of(_ZERO, st.floats(-60, 200))),
           side=st.tuples(st.floats(10.0, 600.0), st.floats(10.0, 600.0)),
           flip=st.booleans(),
           size=st.sampled_from([128, 64, 48]),
           boxes=st.lists(st.tuples(st.one_of(_ZERO, st.floats(-80, 260)),
                                    st.one_of(_ZERO, st.floats(-80, 260)),
                                    st.one_of(_ZERO, st.floats(0, 120)),
                                    st.one_of(_ZERO, st.floats(0, 120))),
                          max_size=12))
    @example(corner=(0.0, 0.0), side=(128.0, 128.0), flip=False, size=128,
             boxes=[(-0.0, -0.0, 10.0, 10.0)])
    def test_map_boxes_equals_scalar_oracle(self, corner, side, flip, size, boxes):
        # boxes inside, across the border, wholly outside or empty, in
        # integer frames (view sizes, where the scalar clamp returns an int);
        # a -0.0 corner at a zero shift clamps to +0.0
        rect = Box(corner[0], corner[1], corner[0] + side[0], corner[1] + side[1])
        rows = [Box(x, y, x + w, y + h) for x, y, w, h in boxes]
        mapped, inside = G.map_boxes(np.array(rows).reshape(-1, 4), np.array(rect), flip, size)
        assert mapped.shape == (len(rows), 4) and inside.shape == (len(rows),)
        for k, box in enumerate(rows):
            try:
                want = scalar_map_box(box, rect, flip, size)
            except ValueError:
                assert not inside[k]
                continue
            assert inside[k]
            assert same_bits(mapped[k], want)


def _crop_target_boxes(rng):
    """Ten boxes in a 128 px view, as pretraining's crop targets take them:
    jittered proposals at least 8 px a side, two of them 8 px squares."""
    x1, y1 = rng.uniform(0, 100, 10), rng.uniform(0, 100, 10)
    side = rng.uniform(8, 128 - np.maximum(x1, y1))
    side[:2] = 8.0
    return np.stack([x1, y1, x1 + side, y1 + side * rng.uniform(0.5, 1.0, 10)], axis=1)


class TestResample:
    # (source side, boxes, output side); the dense tap matrices are the oracle
    CASES = {
        "crop_targets": (128, _crop_target_boxes(np.random.default_rng(11)), 64),
        # the far border clamp puts both taps of a read on column W - 1
        "border": (128, np.array([[120.0, 100.0, 131.0, 140.0], [-5.0, -3.0, 128.0, 128.0],
                                  [90.0, 121.5, 128.0, 128.0]]), 64),
        # a box as wide as its output reads at whole pixels (w = 0)
        "integral": (128, np.array([[0.0, 0.0, 64.0, 64.0], [17.0, 40.0, 81.0, 104.0]]), 64),
        "view": (160, np.array([[12.3, 20.7, 141.9, 150.2]]), 128),
        "resize_to_view": (160, np.array([[0.0, 0.0, 160.0, 160.0]]), 128),
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_dense_oracle_bit_for_bit(self, case, dtype):
        side, boxes, out_side = self.CASES[case]
        src = np.random.default_rng(3).uniform(0, 1, (side, side, 3)).astype(dtype)
        got = G.resample(src, boxes, (out_side, out_side))
        want = dense_resample(src, boxes, (out_side, out_side))
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()

    def test_cases_reach_merged_and_integral_taps(self):
        ay, ax = G.bilinear_taps(self.CASES["border"][1], 128, 128, (64, 64))
        for taps in (ay[0], ax[0], ax[2]):  # last read of boxes 0 and 2
            assert taps[-1, -1] == 1.0 and (taps[-1, :-1] == 0.0).all()
        _, ax = G.bilinear_taps(self.CASES["integral"][1], 128, 128, (64, 64))
        assert ((ax != 0).sum(axis=2) == 1).all()

    def test_out_writes_into_a_slice(self):
        src = np.random.default_rng(4).uniform(0, 1, (128, 128, 3)).astype(np.float32)
        boxes = _crop_target_boxes(np.random.default_rng(5))
        buf = np.full((14, 64, 64, 3), -1.0, dtype=np.float32)
        G.resample(src, boxes, (64, 64), out=buf[2:12])
        assert buf[2:12].tobytes() == dense_resample(src, boxes, (64, 64)).tobytes()
        assert (buf[:2] == -1.0).all() and (buf[12:] == -1.0).all()


class TestRoiAlign:
    def test_constant_map(self):
        feat = Tensor(np.full((8, 8, 3), 7.0, dtype=np.float32))
        out = G.roi_align(feat, np.array([[1.3, 2.1, 6.7, 5.9]]), (3, 3))
        assert out.data.shape == (1, 3, 3, 3)
        np.testing.assert_allclose(out.data, 7.0, atol=1e-5)

    def test_single_cell(self):
        feat = Tensor(np.array([[[4.5]]], dtype=np.float32))
        out = G.roi_align(feat, np.array([[0.0, 0.0, 1.0, 1.0]]), (1, 1))
        np.testing.assert_allclose(out.data, 4.5)

    def test_ramp_matches_dense_oracle(self):
        xs = np.arange(4, dtype=np.float32)
        feat = np.stack([np.tile(xs, (4, 1))] * 2, axis=-1)  # f(x, y) = x
        out = G.roi_align(Tensor(feat), np.array([[0.5, 0.5, 3.5, 3.5]]), (2, 2))
        oracle = dense_bilinear_average(feat.astype(np.float64),
                                        (0.5, 0.5, 3.5, 3.5), (2, 2))
        np.testing.assert_allclose(out.data[0], oracle, atol=1e-3)

    def test_random_boxes_match_dense_oracle(self):
        rng = np.random.default_rng(6)
        feat = rng.standard_normal((6, 5, 2))
        for _ in range(10):
            x1 = float(rng.uniform(0, 3))
            y1 = float(rng.uniform(0, 4))
            box = (x1, y1, x1 + float(rng.uniform(0.5, 2)), y1 + float(rng.uniform(0.5, 2)))
            out = G.roi_align(Tensor(feat.astype(np.float32)), np.array([box]), (2, 2))
            oracle = dense_bilinear_average(feat, box, (2, 2))
            # 2x2 sampling equals the dense average only for globally linear
            # fields; bins straddling cell boundaries see curvature error
            np.testing.assert_allclose(out.data[0], oracle, atol=0.15)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,out_hw", [((16, 16, 64), (4, 4)), ((5, 7, 3), (2, 3))],
                             ids=["object_features", "small_map"])
    def test_forward_equals_sampled_tap_oracle_bit_for_bit(self, shape, out_hw, dtype):
        # Ay . F . Axᵀ with taps averaged from ROI_SAMPLING reads per bin,
        # built on the bin grid itself
        H, W, C = shape
        rng = np.random.default_rng(H * W + C)
        lo = rng.uniform(-2, [W, H], (40, 2))
        random = np.concatenate([lo, lo + rng.uniform(0.05, 1.5 * max(H, W), (40, 2))], 1)
        past_border = np.array([[-3.0, -2.0, W + 4.0, H + 3.0], [W - 1.5, 1.0, W + 2.0, H + 0.5]])
        # integer x1, y1 and extents of 2 px per bin put every read on a whole pixel
        whole = np.array([[0.0, 1.0, 2.0 * out_hw[1], 1.0 + 2.0 * out_hw[0]],
                          [2.0, 0.0, 2.0 + 2.0 * out_hw[1], 2.0 * out_hw[0]]])
        feat = rng.standard_normal(shape).astype(dtype)
        for boxes in (random, past_border, whole):
            x1, y1, x2, y2 = boxes.T
            ay = sampled_taps(y1, y2 - y1, out_hw[0], H, G.ROI_SAMPLING, dtype)
            ax = sampled_taps(x1, x2 - x1, out_hw[1], W, G.ROI_SAMPLING, dtype)
            rows = (ay.reshape(-1, H) @ feat.reshape(H, W * C)).reshape(
                len(boxes), out_hw[0], W, C)
            want = np.matmul(ax[:, None], rows)
            got = G.roi_align(Tensor(feat), boxes, out_hw).data
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()

    def test_border_clamp_no_error(self):
        feat = Tensor(np.ones((4, 4, 1), dtype=np.float32))
        out = G.roi_align(feat, np.array([[-2.0, -2.0, 8.0, 8.0]]), (2, 2))
        np.testing.assert_allclose(out.data, 1.0)

    def test_gradient_wrt_features(self):
        boxes = np.array([[0.4, 0.7, 3.1, 2.6], [1.0, 0.0, 4.0, 4.0]])
        gradcheck(lambda ts: tsum(G.roi_align(ts[0], boxes, (2, 2))),
                  [(4, 5, 3)], np.random.default_rng(7))
