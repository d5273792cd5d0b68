"""View construction: IoU constraint, determinism, proposal contracts."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvdetr import views as V
from mvdetr.config import RunConfig
from mvdetr.geometry import map_boxes
from mvdetr.rng import Rng

from helpers import (Box, dense_bilinear_average, full_image_edge_contrast, same_bits,
                     scalar_iou, scalar_jitter_box, scalar_proposals)

NO_AUGMENT = dict(aug_flip_p=0.0, aug_color_p=0.0, aug_grayscale_p=0.0, aug_blur_p=0.0)


def _noise_image(seed=0, w=160, h=160):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, size=(h, w, 3)).astype(np.float32)


class TestCropResize:
    # one bilinear read per output cell at its half-pixel centre, clamped to
    # the border: the dense oracle with one sample per bin
    @pytest.mark.parametrize("rect,out_hw", [
        ((12.25, 30.5, 97.0, 120.75), (64, 64)),    # inside the image
        ((-20.0, 140.0, 60.0, 190.0), (32, 32)),    # past two borders: clamp
        ((0.0, 0.0, 160.0, 160.0), (40, 40)),       # downsampling
        ((70.3, 80.9, 79.1, 86.2), (48, 48)),       # upsampling
        ((5.0, 17.5, 150.0, 60.0), (24, 80)),       # non-square output
    ])
    def test_matches_dense_oracle_one_sample_per_bin(self, rect, out_hw):
        pixels = _noise_image(41)
        out = V.crop_resize(pixels, np.array(rect), *out_hw)
        assert out.dtype == np.float32 and out.shape == (*out_hw, 3)
        oracle = dense_bilinear_average(pixels.astype(np.float64), rect, out_hw,
                                        samples_per_bin=1)
        np.testing.assert_allclose(out, oracle, atol=1e-5)


class TestBaseRect:
    def test_area_ratio_scan(self):
        rng = Rng(99)
        for _ in range(2000):
            r = V.sample_base_rect(256, 256, rng)
            assert r.dtype == np.float64 and r.shape == (4,)
            x1, y1, x2, y2 = r
            ratio = (x2 - x1) * (y2 - y1) / (256 * 256)
            assert 0.5 - 1e-9 <= ratio <= 1.0 + 1e-9
            assert x1 >= 0 and y1 >= 0 and x2 <= 256 and y2 <= 256

    def test_deterministic(self):
        a = V.sample_base_rect(200, 150, Rng(42))
        b = V.sample_base_rect(200, 150, Rng(42))
        assert same_bits(a, b)

    def test_too_small_image(self):
        with pytest.raises(ValueError):
            V.sample_base_rect(16, 16, Rng(0))


class TestViewRects:
    def test_iou_threshold_scan(self):
        rng = Rng(7)
        base = np.array([10.0, 20.0, 200.0, 180.0])
        for _ in range(2000):
            r1, r2 = V.sample_view_rects(base, 0.5, rng)
            assert scalar_iou(r1, r2) >= 0.5

    def test_tau_one_falls_back_to_identical(self):
        base = np.array([0.0, 0.0, 100.0, 100.0])
        r1, r2 = V.sample_view_rects(base, 1.0, Rng(3))
        assert same_bits(r1, base) and same_bits(r2, base)

    def test_rects_inside_base(self):
        rng = Rng(11)
        base = np.array([5.0, 5.0, 155.0, 125.0])
        for _ in range(200):
            for r in V.sample_view_rects(base, 0.5, rng):
                assert (r[:2] >= base[:2] - 1e-9).all() and (r[2:] <= base[2:] + 1e-9).all()

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            V.sample_view_rects(np.array([0.0, 0.0, 10.0, 10.0]), 0.0, Rng(0))


class TestAugment:
    def test_all_probabilities_zero_is_identity(self):
        img = _noise_image(1)
        out, flipped = V.augment(img, Rng(5), RunConfig(**NO_AUGMENT))
        assert not flipped
        assert out.dtype == np.float32 and out is not img
        np.testing.assert_array_equal(out, img)

    def test_double_flip_restores(self):
        img = _noise_image(2)
        cfg = RunConfig(**{**NO_AUGMENT, "aug_flip_p": 1.0})
        once, flipped = V.augment(img, Rng(0), cfg)
        assert flipped
        np.testing.assert_array_equal(once, img[:, ::-1])
        twice, _ = V.augment(once, Rng(0), cfg)
        np.testing.assert_array_equal(twice, img)

    def test_grayscale_channels_equal(self):
        img = _noise_image(3)
        cfg = RunConfig(**{**NO_AUGMENT, "aug_grayscale_p": 1.0})
        out, _ = V.augment(img, Rng(0), cfg)
        assert not np.array_equal(out, img)
        np.testing.assert_allclose(out[:, :, 0], out[:, :, 1], atol=1e-7)
        np.testing.assert_allclose(out[:, :, 1], out[:, :, 2], atol=1e-7)

    def test_blur_smooths(self):
        img = _noise_image(6)
        out, flipped = V.augment(img, Rng(0), RunConfig(**{**NO_AUGMENT, "aug_blur_p": 1.0}))
        assert not flipped
        assert np.abs(np.diff(out, axis=1)).mean() < np.abs(np.diff(img, axis=1)).mean()

    def test_range_preserved(self):
        cfg = RunConfig(aug_flip_p=1.0, aug_color_p=1.0, aug_grayscale_p=0.0,
                        aug_blur_p=1.0)
        out, _ = V.augment(_noise_image(4), Rng(9), cfg)
        assert out.dtype == np.float32
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestProposals:
    def test_random_mode_inside_overlap(self):
        img = _noise_image(5)
        overlap = np.array([20.0, 30.0, 120.0, 110.0])
        boxes = V.generate_proposals(img, overlap, "random", 20, Rng(8))
        assert boxes.shape == (20, 4)
        for x1, y1, x2, y2 in boxes:
            assert x1 >= overlap[0] and y1 >= overlap[1]
            assert x2 <= overlap[2] + 1e-6 and y2 <= overlap[3] + 1e-6
            assert x2 - x1 >= 8.0 - 1e-6 and y2 - y1 >= 8.0 - 1e-6

    def test_random_mode_deterministic(self):
        img = _noise_image(5)
        overlap = np.array([10.0, 10.0, 100.0, 100.0])
        a = V.generate_proposals(img, overlap, "random", 5, Rng(3))
        b = V.generate_proposals(img, overlap, "random", 5, Rng(3))
        assert same_bits(a, b)

    def test_uniform_image_objectness_ties_by_index(self):
        img = np.full((128, 128, 3), 0.5, dtype=np.float32)
        overlap = np.array([10.0, 10.0, 110.0, 110.0])
        # zero gradient everywhere: scores tie, candidates keep draw order
        ranked = V.generate_proposals(img, overlap, "objectness", 3, Rng(4))
        candidates = V.generate_proposals(img, overlap, "random", 12, Rng(4))
        assert same_bits(ranked, candidates[:3])

    def test_objectness_finds_bright_square(self):
        img = np.zeros((128, 128, 3), dtype=np.float32)
        img[40:80, 50:90] = 1.0
        overlap = np.array([30.0, 30.0, 100.0, 100.0])
        square = (50.0, 40.0, 90.0, 80.0)
        (best,) = V.generate_proposals(img, overlap, "objectness", 1, Rng(44))
        assert scalar_iou(best, square) > 0.3
        # the scorer prefers boxes enclosing the square's edge contour: the
        # pick must match the best of the same 4 random candidates
        cands = V.generate_proposals(img, overlap, "random", 4, Rng(44))
        assert scalar_iou(best, square) == max(scalar_iou(c, square) for c in cands)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**64 - 1), mode=st.sampled_from(["random", "objectness"]),
           count=st.integers(1, 12), blocks=st.sampled_from([1, 2, 5, 64]),
           corner=st.tuples(st.floats(0, 55), st.floats(0, 55)),
           size=st.tuples(st.floats(9, 64), st.floats(9, 64)),
           min_side=st.sampled_from([1.0, 4.0, 8.0]))
    def test_equals_scalar_oracle(self, seed, mode, count, blocks, corner, size, min_side):
        # piecewise-constant images of few blocks give many tied scores and
        # empty interiors; overlaps reach the image border
        cells = np.random.default_rng(seed % 1000).uniform(0, 1, (blocks, blocks, 3))
        img = np.kron(cells, np.ones((64 // blocks + 1,) * 2 + (1,)))[:64, :64]
        img = img.astype(np.float32)
        overlap = Box(corner[0], corner[1], min(64.0, corner[0] + size[0]),
                      min(64.0, corner[1] + size[1]))
        got_rng, want_rng = Rng(seed), Rng(seed)
        with mock.patch.object(V, "MIN_PROPOSAL_SIDE", min_side):
            got = V.generate_proposals(img, np.array(overlap), mode, count, got_rng)
        want = scalar_proposals(img, overlap, mode, count, want_rng, min_side)
        assert same_bits(got, want)
        assert got_rng.next_u64() == want_rng.next_u64()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**64 - 1), amount=st.sampled_from([0.05, 0.1, 0.5]),
           sides=st.lists(st.tuples(*[st.one_of(st.sampled_from([0.0, -0.0]),
                                                st.floats(lo, hi))
                                      for lo, hi in ((-4, 60), (-4, 60), (0, 70), (0, 70))]),
                          max_size=12))
    def test_jitter_equals_scalar_oracle(self, seed, amount, sides):
        # boxes at and past the frame border are clamped the same way; an
        # empty box at -0.0 shifted left clamps to +0.0 as the scalar max does
        boxes = [Box(x, y, x + w, y + h) for x, y, w, h in sides]
        got_rng, want_rng = Rng(seed), Rng(seed)
        got = V._jitter_boxes(np.array(boxes).reshape(-1, 4), amount, got_rng, 64.0, 48.0)
        want = [scalar_jitter_box(b, amount, want_rng, 64.0, 48.0) for b in boxes]
        assert same_bits(got, np.array(want).reshape(-1, 4))
        assert got_rng.next_u64() == want_rng.next_u64()

    @pytest.mark.parametrize("far", ["interior", "right_edge", "bottom_edge", "corner"])
    @pytest.mark.parametrize("shape", [(160, 160), (97, 131)])
    def test_edge_contrast_equals_full_image_oracle(self, far, shape):
        # the Sobel map covers only the corner the boxes reach; the scores
        # must be the whole image's, bit for bit, also when a box's far
        # corner reaches the right or bottom edge (w == W, h == H)
        H, W = shape
        img = _noise_image(9, W, H)
        rng = np.random.default_rng(10)
        x1, y1 = rng.uniform(0, W / 2, 24), rng.uniform(0, H / 2, 24)
        x2 = x1 + rng.uniform(8, W / 2 - 9, 24)
        y2 = y1 + rng.uniform(8, H / 2 - 9, 24)
        if far in ("right_edge", "corner"):
            x2[3] = W
        if far in ("bottom_edge", "corner"):
            y2[5] = H
        boxes = np.stack([x1, y1, x2, y2], axis=1)
        got = V._edge_contrast(img, boxes)
        assert same_bits(got, full_image_edge_contrast(img, boxes))

    def test_small_overlap_errors(self):
        with pytest.raises(ValueError):
            V.generate_proposals(_noise_image(6), np.array([0.0, 0.0, 7.0, 7.0]), "random", 4,
                                 Rng(0))


class TestBuildViewPair:
    def _cfg(self, **kw):
        return RunConfig(**{"proposals_mode": "random", **kw})

    def test_counts_and_alignment(self):
        img = _noise_image(7)
        pair = V.build_view_pair(img, self._cfg(), seed=123)
        assert pair.proposals1.shape == pair.proposals2.shape == (10, 4)
        assert scalar_iou(pair.rect1, pair.rect2) >= 0.5

    def test_proposals_inside_views(self):
        img = _noise_image(8)
        for seed in range(30):
            pair = V.build_view_pair(img, self._cfg(), seed=seed)
            for x1, y1, x2, y2 in np.concatenate([pair.proposals1, pair.proposals2]):
                assert -1e-6 <= x1 and x2 <= 128 + 1e-6
                assert -1e-6 <= y1 and y2 <= 128 + 1e-6

    def test_deterministic_across_runs(self):
        img = _noise_image(9)
        a = V.build_view_pair(img, self._cfg(), seed=55)
        b = V.build_view_pair(img, self._cfg(), seed=55)
        assert np.array_equal(a.view1, b.view1)
        assert np.array_equal(a.view2, b.view2)
        assert same_bits(a.proposals1, b.proposals1)
        assert same_bits(a.proposals2, b.proposals2)

    def test_zero_jitter_identity_augment_aligns_proposals(self):
        img = _noise_image(10)
        cfg = self._cfg(view_jitter=0.0, **NO_AUGMENT)
        pair = V.build_view_pair(img, cfg, seed=77)
        # map view1 proposals back to the image frame (no flip without
        # augmentation, so only rect1's scale and shift) and onto view2
        r1 = pair.rect1
        assert not pair.flip1 and not pair.flip2
        sx, sy = cfg.view_size / (r1[2:] - r1[:2])
        img_boxes = pair.proposals1 / [sx, sy, sx, sy] + [r1[0], r1[1]] * 2
        expect, _ = map_boxes(img_boxes, pair.rect2, pair.flip2, cfg.view_size)
        np.testing.assert_allclose(pair.proposals2, expect, rtol=0, atol=1e-4)

    def test_identical_rects_zero_jitter_equal_lists(self):
        img = _noise_image(11)
        cfg = self._cfg(view_tau=1.0, view_jitter=0.0, **NO_AUGMENT)
        pair = V.build_view_pair(img, cfg, seed=13)
        assert same_bits(pair.rect1, pair.rect2)
        for b1, b2 in zip(pair.proposals1, pair.proposals2):
            assert b1[0] == pytest.approx(b2[0], abs=1e-4)
            assert b1[3] == pytest.approx(b2[3], abs=1e-4)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**64 - 1), mode=st.sampled_from(["random", "objectness"]),
           image=st.integers(0, 3), tau=st.sampled_from([0.3, 0.5, 0.9, 1.0]))
    def test_proposals_lie_inside_both_views(self, seed, mode, image, tau):
        # default augmentation and jitter: flips, padding and clamping all occur
        cfg = RunConfig(proposals_mode=mode, view_tau=tau)
        pair = V.build_view_pair(_noise_image(image), cfg, seed=seed)
        for boxes in (pair.proposals1, pair.proposals2):
            assert boxes.shape == (cfg.view_n, 4)
            assert (boxes[:, :2] >= 0.0).all() and (boxes[:, 2:] <= cfg.view_size).all()
            assert (boxes[:, 2:] > boxes[:, :2]).all()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**64 - 1), mode=st.sampled_from(["random", "objectness"]))
    def test_flip_mirrors_pixels_and_boxes(self, seed, mode):
        # flip_p only changes what the flip draw decides, so both runs take
        # the same random stream; jitter off keeps the boxes exact mirrors
        img = _noise_image(12)
        plain = V.build_view_pair(img, self._cfg(proposals_mode=mode, view_jitter=0.0,
                                                 **NO_AUGMENT), seed=seed)
        flipped = V.build_view_pair(img, self._cfg(proposals_mode=mode, view_jitter=0.0,
                                                   **{**NO_AUGMENT, "aug_flip_p": 1.0}),
                                    seed=seed)
        size = plain.view1.shape[1]
        for a, b, pa, pb in ((plain.view1, flipped.view1, plain.proposals1,
                              flipped.proposals1),
                             (plain.view2, flipped.view2, plain.proposals2,
                              flipped.proposals2)):
            np.testing.assert_array_equal(b, a[:, ::-1])
            np.testing.assert_array_equal(pb[:, [1, 3]], pa[:, [1, 3]])
            np.testing.assert_array_equal(pb[:, [0, 2]], size - pa[:, [2, 0]])
