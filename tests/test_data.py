"""Synthetic dataset: determinism, PPM round trips, annotation integrity."""

import os

import numpy as np
import pytest

from mvdetr import data as D

from helpers import scalar_iou


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
        assert boxes.dtype == np.float64 and labels.dtype == np.int64
        for (x1, _, _, y2), obj in zip(boxes.tolist(), expected):
            ref = obj.bbox()
            assert abs(x1 - ref[0]) <= 0.5 and abs(y2 - ref[3]) <= 0.5
        assert labels.tolist() == [o.label for o in expected]


def test_scene_invariants():
    spec = D.SceneSpec(seed=3)
    for i in range(50):
        objects = D.sample_scene(spec, i)
        assert 1 <= len(objects) <= 4
        for k, obj in enumerate(objects):
            x1, y1, x2, y2 = b = obj.bbox()
            assert b.dtype == np.float64 and b.shape == (4,)
            assert x1 >= 0 and y1 >= 0
            assert x2 <= spec.image_size and y2 <= spec.image_size
            assert x2 - x1 >= 8.0
            for other in objects[:k]:
                assert scalar_iou(b, other.bbox()) <= D.MAX_PAIRWISE_IOU + 1e-9


@pytest.mark.parametrize("size", [36, 48, 68])
def test_small_images_keep_boxes_inside_margins(size):
    spec = D.SceneSpec(image_size=size, seed=1)
    for i in range(20):
        for obj in D.sample_scene(spec, i):
            x1, y1, x2, y2 = obj.bbox()
            assert x1 >= D.MARGIN - 1e-9 and y1 >= D.MARGIN - 1e-9
            assert x2 <= size - D.MARGIN + 1e-9
            assert y2 <= size - D.MARGIN + 1e-9
            assert x2 - x1 >= D.MIN_SIDE


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
            x1, y1, x2, y2 = obj.bbox()
            inside = mask[int(np.floor(y1)):int(np.ceil(y2)),
                          int(np.floor(x1)):int(np.ceil(x2))].sum()
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


@pytest.mark.parametrize("size", ["0 0", "0 4", "4 0", "-2 3"])
def test_ppm_without_pixels_names_the_file(tmp_path, size):
    path = tmp_path / "empty.ppm"
    path.write_bytes(f"P6 {size} 255\n".encode() + bytes(12))
    with pytest.raises(ValueError) as exc:
        D.read_ppm(str(path))
    w, h = size.split()
    assert str(exc.value) == f"{path}: image size must be positive, got {w}x{h}"


def test_malformed_manifest_line_reports_location(tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("manifest v1 1\n\nimg.ppm 1 2 3\n")
    with pytest.raises(ValueError) as exc:
        D.load_dataset(str(manifest))
    assert ":3:" in str(exc.value)


@pytest.mark.parametrize("line,problem", [
    ("img_00000.ppm nan 2 30 40 1", "non-finite box (nan, 2.0, 30.0, 40.0)"),
    ("img_00000.ppm 1 2 inf 40 1", "non-finite box (1.0, 2.0, inf, 40.0)"),
    ("img_00000.ppm 30 2 1 40 1", "box corners out of order (30.0, 2.0, 1.0, 40.0)"),
    ("img_00000.ppm 1 40 30 2 1", "box corners out of order (1.0, 40.0, 30.0, 2.0)"),
    ("img_00000.ppm 31.99 2 31.99 40 1", "empty box (31.99, 2.0, 31.99, 40.0)"),
    ("img_00000.ppm 1 17.39 30 17.39 1", "empty box (1.0, 17.39, 30.0, 17.39)"),
], ids=["nan", "inf", "x_swapped", "y_swapped", "zero_width", "zero_height"])
def test_bad_box_names_manifest_line(tmp_path, line, problem):
    manifest = D.generate_dataset(1, D.SceneSpec(image_size=64, seed=6), str(tmp_path))
    lines = open(manifest).read().splitlines()
    lines[3] = line  # the second box of the first image
    with open(manifest, "w") as f:
        f.write("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        D.load_dataset(manifest)
    assert str(exc.value) == f"{manifest}:4: {problem}"


def test_utf8_image_name_loads(tmp_path):
    manifest = D.generate_dataset(1, D.SceneSpec(image_size=64, seed=6), str(tmp_path))
    [(pixels, boxes, labels)] = D.load_dataset(manifest)
    os.rename(tmp_path / "img_00000.ppm", tmp_path / "img\u00e9_00000.ppm")
    text = open(manifest, encoding="ascii").read()
    with open(manifest, "w", encoding="utf-8") as f:
        f.write(text.replace("img_00000.ppm", "img\u00e9_00000.ppm"))
    [(pixels2, boxes2, labels2)] = D.load_dataset(manifest)
    assert np.array_equal(pixels2, pixels)
    assert np.array_equal(boxes2, boxes) and np.array_equal(labels2, labels)


def test_bytes_not_utf8_name_the_manifest_line(tmp_path):
    manifest = D.generate_dataset(1, D.SceneSpec(image_size=64, seed=6), str(tmp_path))
    lines = open(manifest, "rb").read().split(b"\n")
    lines[3] = lines[3].replace(b"img_", b"img\xc3_")  # a lead byte with no continuation
    with open(manifest, "wb") as f:
        f.write(b"\n".join(lines))
    with pytest.raises(ValueError) as exc:
        D.load_dataset(manifest)
    assert str(exc.value) == f"{manifest}:4: not UTF-8 text"


def _bare_path_manifest(tmp_path):
    """Two generated images plus a third listed by its bare path."""
    manifest = D.generate_dataset(3, D.SceneSpec(image_size=64, seed=6), str(tmp_path))
    header, *blocks = open(manifest).read().rstrip("\n").split("\n\n")
    with open(manifest, "w") as f:
        f.write("\n\n".join([header] + blocks[:2] + ["img_00002.ppm"]) + "\n")
    return manifest


def test_bare_path_block_is_an_image_without_objects(tmp_path):
    loaded = D.load_dataset(_bare_path_manifest(tmp_path))
    assert len(loaded) == 3  # the header's count includes the bare-path image
    pixels, boxes, labels = loaded[2]
    assert pixels.shape == (64, 64, 3)
    assert boxes.shape == (0, 4) and boxes.dtype == np.float64
    assert labels.shape == (0,) and labels.dtype == np.int64
    assert all(len(b) == len(l) > 0 for _, b, l in loaded[:2])


@pytest.mark.parametrize("extra,lineno", [
    ("img_00002.ppm 1 2 30 40 1", 12), ("img_00002.ppm", 12)],
    ids=["box_after_bare_path", "second_bare_path"])
def test_bare_path_must_be_alone(tmp_path, extra, lineno):
    manifest = _bare_path_manifest(tmp_path)
    lines = open(manifest).read().splitlines()
    assert lines[lineno - 2] == "img_00002.ppm"
    lines.insert(lineno - 1, extra)
    with open(manifest, "w") as f:
        f.write("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        D.load_dataset(manifest)
    assert str(exc.value) == (f"{manifest}:{lineno}: a bare path must be the only "
                              "line of its image, img_00002.ppm")


def test_bare_path_after_box_lines_is_an_error(tmp_path):
    manifest = D.generate_dataset(1, D.SceneSpec(image_size=64, seed=6), str(tmp_path))
    with open(manifest, "a") as f:
        f.write("img_00000.ppm\n")
    n_lines = len(open(manifest).read().splitlines())
    with pytest.raises(ValueError) as exc:
        D.load_dataset(manifest)
    assert str(exc.value) == (f"{manifest}:{n_lines}: a bare path must be the only "
                              "line of its image, img_00000.ppm")


def test_image_without_objects_is_written_as_a_bare_path(tmp_path, monkeypatch):
    monkeypatch.setattr(D, "MIN_OBJECTS", 0)
    monkeypatch.setattr(D, "MAX_OBJECTS", 0)
    manifest = D.generate_dataset(2, D.SceneSpec(image_size=64, seed=6), str(tmp_path))
    assert open(manifest).read() == "manifest v1 2\n\nimg_00000.ppm\n\nimg_00001.ppm\n"
    assert [len(boxes) for _, boxes, _ in D.load_dataset(manifest)] == [0, 0]


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
    back = D.as_float_pixels(D.read_ppm(path))
    assert back.shape == (24, 16, 3)
    assert np.abs(back - pixels).max() <= 0.5 / 255 + 1e-6


def test_loaded_pixels_stay_8_bit(tmp_path):
    manifest = D.generate_dataset(3, D.SceneSpec(seed=2), str(tmp_path))
    for pixels, _, _ in D.load_dataset(manifest):
        assert pixels.dtype == np.uint8 and pixels.shape == (160, 160, 3)


def test_float_pixels_equal_the_float_read_bit_for_bit(tmp_path):
    # every byte value, and a whole image, against the float32 read the
    # loader did before it kept bytes: arr.astype(np.float32) / 255.0
    levels = np.arange(256, dtype=np.uint8).reshape(16, 16, 1).repeat(3, axis=2)
    scalar = np.array([np.float32(v) / np.float32(255.0) for v in range(256)])
    assert D.as_float_pixels(levels)[:, :, 1].ravel().tobytes() == scalar.tobytes()

    rng = np.random.default_rng(4)
    path = str(tmp_path / "x.ppm")
    D.write_ppm(path, rng.uniform(0, 1, (20, 12, 3)))
    raw = open(path, "rb").read()[-20 * 12 * 3:]
    old = np.frombuffer(raw, dtype=np.uint8).reshape(20, 12, 3).astype(np.float32) / 255.0
    new = D.as_float_pixels(D.read_ppm(path))
    assert new.dtype == np.float32 and new.tobytes() == old.tobytes()


def test_float_pixels_pass_through():
    pixels = np.full((2, 2, 3), 0.5, np.float32)
    assert D.as_float_pixels(pixels) is pixels
