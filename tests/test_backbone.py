"""Frozen backbone: shapes, determinism, region feature contracts."""

import numpy as np
import pytest

from mvdetr import backbone as B
from mvdetr.backbone import FrozenBackbone
from mvdetr.geometry import roi_align
from mvdetr.tensor import Tensor
from mvdetr.views import crop_resize

from helpers import dense_bilinear_average, unblocked_extract


@pytest.fixture(scope="module")
def backbone():
    return FrozenBackbone(seed=2024)


def _image(seed, h=128, w=128):
    return np.random.default_rng(seed).uniform(0, 1, (h, w, 3)).astype(np.float32)


def _extract(backbone, img):
    """Features of one image, run as a batch of one."""
    return backbone.extract_batch(img[None])[0]


class TestExtract:
    def test_output_shape(self, backbone):
        out = _extract(backbone, _image(0))
        assert out.shape == (16, 16, 64)

    def test_bitwise_deterministic(self, backbone):
        img = _image(1)
        a = _extract(backbone, img)
        b = _extract(backbone, img)
        assert a.tobytes() == b.tobytes()

    def test_same_seed_same_weights(self):
        a, b = FrozenBackbone(7), FrozenBackbone(7)
        for wa, wb in zip(a.weights, b.weights):
            assert wa.tobytes() == wb.tobytes()

    def test_different_seed_different_weights(self):
        a, b = FrozenBackbone(7), FrozenBackbone(8)
        assert a.weights[0].tobytes() != b.weights[0].tobytes()

    def test_zero_image_stable(self, backbone):
        img = np.zeros((64, 64, 3), dtype=np.float32)
        a = _extract(backbone, img)
        b = _extract(backbone, img)
        assert a.tobytes() == b.tobytes()

    def test_non_divisible_dims_error(self, backbone):
        with pytest.raises(ValueError) as exc:
            _extract(backbone, _image(2, h=100, w=100))
        assert "resize" in str(exc.value)

    @pytest.mark.parametrize("n,size,per_block", [(3, 128, 1), (5, 64, 4)],
                             ids=["image_per_block", "remainder_block"])
    def test_blocked_equals_unblocked_oracle(self, backbone, n, size, per_block):
        # one 128x128 view per block (three blocks); 64x64 crops four to a
        # block (blocks of 4 + 1)
        assert B._BLOCK_PIXELS // (size * size) == per_block
        batch = np.stack([_image(40 + i, size, size) for i in range(n)])
        out = backbone.extract_batch(batch)
        assert out.dtype == np.float32 and out.shape == (n, size // 8, size // 8, 64)
        np.testing.assert_array_equal(out, unblocked_extract(backbone, batch))

    def test_no_gradient_leaks(self, backbone):
        # plain arrays: nothing the backbone returns can join the tape
        img = _image(3)
        h = backbone.extract_batch(img[None])
        box = np.array([[8.0, 8.0, 40.0, 40.0]])
        for out in (h, backbone.object_level_features(h, box[None]),
                    backbone.crop_features_multi(img[None], box[None])):
            assert type(out) is np.ndarray


class TestObjectFeatures:
    def test_shape(self, backbone):
        h = backbone.extract_batch(_image(4)[None])
        boxes = np.array([[8 * i, 8, 8 * i + 32, 56] for i in range(10)], dtype=np.float64)
        z = backbone.object_level_features(h, boxes[None])
        assert z.shape == (1, 10, 64)

    def test_constant_map(self, backbone):
        h = np.full((1, 16, 16, 64), 3.0, dtype=np.float32)
        z = backbone.object_level_features(h, np.array([[[10.0, 10.0, 90.0, 90.0]]]))
        np.testing.assert_allclose(z, 3.0, atol=1e-5)

    def test_rows_follow_maps_and_equal_roi_align_mean(self, backbone):
        maps = backbone.extract_batch(np.stack([_image(12 + i) for i in range(3)]))
        groups = np.array([[[8 * i + k, 8, 8 * i + 40, 56 - k] for k in range(4)]
                           for i in range(3)], dtype=np.float64)
        z = backbone.object_level_features(maps, groups)
        assert z.shape == (3, 4, 64) and z.dtype == np.float32
        for i, boxes in enumerate(groups):
            fboxes = np.array([[x1 / 8, y1 / 8, x2 / 8, y2 / 8] for x1, y1, x2, y2 in boxes])
            pooled = roi_align(Tensor(maps[i]), fboxes, (4, 4)).data.mean(axis=(1, 2))
            np.testing.assert_array_equal(z[i], pooled)

    def test_matches_dense_oracle_on_linear_map(self, backbone):
        # pooled z equals the box-average of the interpolant exactly when the
        # field is linear; random per-channel ramps keep the check non-trivial
        rng = np_rng = np.random.default_rng(11)
        ys, xs = np.mgrid[0:16, 0:16].astype(np.float64)
        coef = np_rng.uniform(-1, 1, (3, 64))
        h_lin = (coef[0] + coef[1] * xs[:, :, None] + coef[2] * ys[:, :, None])
        box = np.array([[[16.0, 24.0, 80.0, 96.0]]])
        z = backbone.object_level_features(h_lin.astype(np.float32)[None], box)
        fb = tuple(box[0, 0] / 8)
        oracle = dense_bilinear_average(h_lin, fb, (4, 4))
        np.testing.assert_allclose(z[0, 0], oracle.mean(axis=(0, 1)),
                                   atol=1e-3 * max(1, np.abs(oracle).max()))

    def test_near_dense_oracle_on_real_features(self, backbone):
        h = backbone.extract_batch(_image(5)[None])
        box = np.array([[[16.0, 24.0, 80.0, 96.0]]])
        z = backbone.object_level_features(h, box)
        fb = tuple(box[0, 0] / 8)
        oracle = dense_bilinear_average(h[0].astype(np.float64), fb, (4, 4))
        # non-linear field: 2x2 sampling only approximates the dense average
        np.testing.assert_allclose(z[0, 0], oracle.mean(axis=(0, 1)), atol=5e-2)


class TestCropFeatures:
    def test_full_view_crop_reduces_to_extract(self, backbone):
        img = _image(6)
        p = backbone.crop_features_multi(img[None], np.array([[[0.0, 0.0, 128.0, 128.0]]]))
        resized = crop_resize(img, np.array([0.0, 0.0, 128.0, 128.0]), 64, 64)
        direct = _extract(backbone, resized).mean(axis=(0, 1))
        np.testing.assert_allclose(p[0], direct, atol=1e-6)

    def test_constant_crops_identical(self, backbone):
        img = np.full((128, 128, 3), 0.4, dtype=np.float32)
        p = backbone.crop_features_multi(img[None], np.array([[[0.0, 0.0, 30.0, 30.0],
                                                               [50.0, 60.0, 100.0, 90.0]]]))
        np.testing.assert_allclose(p[0], p[1], atol=1e-5)

    def test_crop_vs_object_features_differ_on_texture(self, backbone):
        img = _image(7)
        h = backbone.extract_batch(img[None])
        box = np.array([[20.0, 20.0, 52.0, 52.0]])
        z = backbone.object_level_features(h, box[None])
        p = backbone.crop_features_multi(img[None], box[None])
        assert float(np.linalg.norm(p[0] - z[0, 0])) > 1e-3

    def test_degenerate_box_errors(self, backbone):
        # zero width, negative height, NaN
        for box in ([10.0, 10.0, 10.0, 30.0], [10.0, 30.0, 20.0, 29.0],
                    [np.nan, 10.0, 20.0, 30.0]):
            with pytest.raises(ValueError, match="degenerate crop box"):
                backbone.crop_features_multi(_image(8)[None], np.array([[box]]))

    def test_box_under_two_pixels_gives_features(self, backbone):
        # a jittered proposal on a 32 px view whose 2 px side rounds to
        # 1.9999999999999996; any positive extent resamples
        box = np.array([[[2.555890509460902, 27.935952704768965,
                          4.555890509460902, 31.207778609850394]]])
        assert box[0, 0, 2] - box[0, 0, 0] < 2.0
        img = _image(8, 32, 32)
        p = backbone.crop_features_multi(img[None], box)
        direct = _extract(backbone, crop_resize(img, box[0, 0], 64, 64)).mean(axis=(0, 1))
        assert p.shape == (1, backbone.out_channels) and np.isfinite(p).all()
        np.testing.assert_allclose(p[0], direct, atol=1e-6)

    def test_rows_follow_groups_and_match_one_box_path(self, backbone):
        # each row equals resizing that box alone through crop_resize and
        # pooling the extracted map, rows in image order and each image's
        # box order
        images = np.stack([_image(9), _image(10)])
        boxes = np.array([[[3.5, 7.25, 60.0, 41.0], [0.0, 0.0, 128.0, 128.0]],
                          [[100.5, 2.0, 131.0, 90.5], [-4.0, 80.0, 30.0, 99.0]]])
        p = backbone.crop_features_multi(images, boxes)
        rows = [_extract(backbone, crop_resize(img, b, 64, 64)).mean(axis=(0, 1))
                for img, group in zip(images, boxes) for b in group]
        assert p.shape == (4, backbone.out_channels)
        np.testing.assert_allclose(p, np.stack(rows), atol=1e-6)
