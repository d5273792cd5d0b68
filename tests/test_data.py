"""Synthetic dataset: determinism, PPM round trips, annotation integrity."""

import os

import numpy as np
import pytest

from mvdetr import data as D
from mvdetr.geometry import box_iou


def test_generate_twice_identical_bytes(tmp_path):
    spec = D.SceneSpec(seed=5)
    m1 = D.generate_dataset(4, spec, str(tmp_path / "a"))
    m2 = D.generate_dataset(4, spec, str(tmp_path / "b"))
    assert open(m1, "rb").read() == open(m2, "rb").read()
    for i in range(4):
        a = open(tmp_path / "a" / f"img_{i:05d}.ppm", "rb").read()
        b = open(tmp_path / "b" / f"img_{i:05d}.ppm", "rb").read()
        assert a == b


def test_empty_dataset_has_valid_header(tmp_path):
    manifest = D.generate_dataset(0, D.SceneSpec(), str(tmp_path))
    assert open(manifest).readline().startswith("manifest v1 0")
    assert D.load_dataset(manifest) == []


def test_round_trip_boxes_within_half_pixel(tmp_path):
    spec = D.SceneSpec(seed=9)
    manifest = D.generate_dataset(5, spec, str(tmp_path))
    loaded = D.load_dataset(manifest)
    assert len(loaded) == 5
    for i, (pixels, boxes, labels) in enumerate(loaded):
        assert pixels.shape == (160, 160, 3)
        expected = D.sample_scene(spec, i)
        assert len(boxes) == len(expected)
        for b, obj in zip(boxes, expected):
            ref = obj.bbox()
            assert abs(b.x1 - ref.x1) <= 0.5 and abs(b.y2 - ref.y2) <= 0.5
        assert labels == [o.label for o in expected]


def test_scene_invariants():
    spec = D.SceneSpec(seed=3)
    for i in range(50):
        objects = D.sample_scene(spec, i)
        assert 1 <= len(objects) <= 4
        for k, obj in enumerate(objects):
            b = obj.bbox()
            assert b.x1 >= 0 and b.y1 >= 0
            assert b.x2 <= spec.image_size and b.y2 <= spec.image_size
            assert b.width >= 8.0
            for other in objects[:k]:
                assert box_iou(b, other.bbox()) <= spec.max_pairwise_iou + 1e-9


@pytest.mark.parametrize("size", [36, 48, 68])
def test_small_images_keep_boxes_inside_margins(size):
    spec = D.SceneSpec(image_size=size, seed=1)
    for i in range(20):
        for obj in D.sample_scene(spec, i):
            b = obj.bbox()
            assert b.x1 >= spec.margin - 1e-9 and b.y1 >= spec.margin - 1e-9
            assert b.x2 <= size - spec.margin + 1e-9
            assert b.y2 <= size - spec.margin + 1e-9
            assert b.width >= spec.min_side


def test_side_range_reaches_max_side_from_68_px():
    # the range sampled before side_range existed, so larger datasets keep their bytes
    assert D.SceneSpec(image_size=68).side_range() == (24.0, 56.0)
    assert D.SceneSpec(image_size=67).side_range() == (24.0, 55.0)


@pytest.mark.parametrize("size", [0, 32, 35])
def test_no_room_for_objects_rejected(tmp_path, size):
    spec = D.SceneSpec(image_size=size)
    with pytest.raises(ValueError, match=f"image size {size} leaves no room"):
        D.sample_scene(spec, 0)
    with pytest.raises(ValueError, match=f"image size {size} leaves no room"):
        D.generate_dataset(1, spec, str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_boxes_cover_object_pixels(tmp_path):
    """Independent rasterization: each annotation box must hold >= 60% of its
    object's pixels (geometry is exact, so effectively all of them)."""
    spec = D.SceneSpec(seed=11)
    for i in range(10):
        _, objects = D.render_scene(spec, i)
        for obj in objects:
            ys, xs = np.mgrid[0:spec.image_size, 0:spec.image_size].astype(np.float64)
            ys, xs = ys + 0.5, xs + 0.5
            half = obj.size / 2
            if obj.label == 0:
                mask = (xs - obj.cx) ** 2 + (ys - obj.cy) ** 2 <= half * half
            elif obj.label == 1:
                mask = (np.abs(xs - obj.cx) <= half) & (np.abs(ys - obj.cy) <= half)
            else:
                rel = (ys - (obj.cy - half)) / obj.size
                mask = ((np.abs(xs - obj.cx) <= half) & (np.abs(ys - obj.cy) <= half)
                        & (np.abs(xs - obj.cx) <= rel * half))
            total = int(mask.sum())
            b = obj.bbox()
            inside = mask[int(np.floor(b.y1)):int(np.ceil(b.y2)),
                          int(np.floor(b.x1)):int(np.ceil(b.x2))].sum()
            assert total > 0
            assert inside / total >= 0.6


def test_truncated_ppm_errors(tmp_path):
    spec = D.SceneSpec(seed=2)
    manifest = D.generate_dataset(1, spec, str(tmp_path))
    img_path = tmp_path / "img_00000.ppm"
    blob = open(img_path, "rb").read()
    open(img_path, "wb").write(blob[:len(blob) // 2])
    with pytest.raises(ValueError) as exc:
        D.load_dataset(manifest)
    assert "truncated" in str(exc.value)


def test_malformed_manifest_line_reports_location(tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("manifest v1 1\n\nimg.ppm 1 2 3\n")
    with pytest.raises(ValueError) as exc:
        D.load_dataset(str(manifest))
    assert ":3:" in str(exc.value)


def _manifest_with_blocks(tmp_path, keep):
    """Three generated images; the manifest keeps the header and `keep` blocks."""
    manifest = D.generate_dataset(3, D.SceneSpec(image_size=64, seed=6), str(tmp_path))
    header, *blocks = open(manifest).read().split("\n\n")
    with open(manifest, "w") as f:
        f.write("\n\n".join([header] + blocks[:keep]))
    return manifest


@pytest.mark.parametrize("header,found", [("manifest v1 3", 2), ("manifest v1 2", 3)],
                         ids=["truncated", "extra_blocks"])
def test_header_count_must_match_blocks(tmp_path, header, found):
    manifest = _manifest_with_blocks(tmp_path, found)
    text = open(manifest).read().split("\n", 1)[1]
    with open(manifest, "w") as f:
        f.write(header + "\n" + text)
    with pytest.raises(ValueError) as exc:
        D.load_dataset(manifest)
    declared = header.split()[2]
    assert str(exc.value) == (f"{manifest}: header declares {declared} images, "
                              f"found {found} image blocks")


@pytest.mark.parametrize("count", ["three", "2.0"])
def test_header_count_must_be_an_integer(tmp_path, count):
    manifest = _manifest_with_blocks(tmp_path, 3)
    text = open(manifest).read().split("\n", 1)[1]
    with open(manifest, "w") as f:
        f.write(f"manifest v1 {count}\n" + text)
    with pytest.raises(ValueError) as exc:
        D.load_dataset(manifest)
    assert str(exc.value) == f"{manifest}:1: image count {count!r} is not an integer"


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.uniform(0, 1, (24, 16, 3)).astype(np.float32)
    path = str(tmp_path / "x.ppm")
    D.write_ppm(path, pixels)
    back = D.read_ppm(path)
    assert back.shape == (24, 16, 3)
    assert np.abs(back - pixels).max() <= 0.5 / 255 + 1e-6
