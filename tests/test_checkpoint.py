"""Checkpoint container: bit-exact round trips and format validation."""

import struct

import numpy as np
import pytest

from mvdetr import checkpoint as C


def test_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    entries = {
        "a.weight": rng.standard_normal((4, 7)).astype(np.float32),
        "a.bias": rng.standard_normal(7).astype(np.float32),
        "scalar": np.array([3.25], dtype=np.float32),
        "deep": rng.standard_normal((2, 3, 4, 5)).astype(np.float32),
    }
    path = str(tmp_path / "x.ckpt")
    C.save_checkpoint(path, entries)
    back = C.load_checkpoint(path)
    assert list(back) == list(entries)
    for name in entries:
        assert back[name].shape == entries[name].shape
        assert back[name].tobytes() == entries[name].tobytes()


def test_header_layout(tmp_path):
    path = str(tmp_path / "x.ckpt")
    C.save_checkpoint(path, {"w": np.zeros((2, 2), dtype=np.float32)})
    blob = open(path, "rb").read()
    assert blob[:4] == b"SDTR"
    assert struct.unpack_from("<I", blob, 4)[0] == 1
    assert struct.unpack_from("<Q", blob, 8)[0] == 1
    assert struct.unpack_from("<Q", blob, len(blob) - 8)[0] == len(blob) - 8


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        C.load_checkpoint(str(path))


def test_truncation_detected(tmp_path):
    path = str(tmp_path / "x.ckpt")
    C.save_checkpoint(path, {"w": np.ones(10, dtype=np.float32)})
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-12])
    with pytest.raises(ValueError):
        C.load_checkpoint(path)


def test_text_encoding_round_trip():
    text = "view.tau=0.5\nmodel.d_model=64\n"
    assert C.array_to_text(C.text_to_array(text)) == text

