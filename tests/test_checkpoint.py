"""Checkpoint container: bit-exact round trips and format validation."""

import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

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


# float32 bit patterns: any uint32, plus ±0, ±inf, quiet and signalling NaNs
# with and without payload bits, and the smallest subnormal
_BITS = st.one_of(st.integers(0, 2**32 - 1),
                  st.sampled_from([0x00000000, 0x80000000, 0x7F800000, 0xFF800000,
                                   0x7FC00000, 0xFFC00001, 0x7F800001, 0x7FBFFFFF,
                                   0x00000001]))
_ENTRY = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4).flatmap(
    lambda shape: hnp.arrays(np.uint32, shape, elements=_BITS))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(entries=st.lists(st.tuples(st.text(max_size=12), _ENTRY), max_size=5,
                        unique_by=lambda e: e[0]))
@example(entries=[("scalar", np.array(0x7FC00001, dtype=np.uint32)),
                  ("empty", np.zeros((2, 0, 3), dtype=np.uint32))])
def test_round_trip_keeps_bits_shape_and_order(tmp_path_factory, entries):
    # ranks 0-3 with zero-size dimensions, UTF-8 names of any script
    path = str(tmp_path_factory.getbasetemp() / "property.ckpt")
    C.save_checkpoint(path, {name: bits.view(np.float32) for name, bits in entries})
    back = C.load_checkpoint(path)
    assert list(back) == [name for name, _ in entries]
    for name, bits in entries:
        assert back[name].dtype == np.float32 and back[name].shape == bits.shape
        assert back[name].tobytes() == bits.tobytes()


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


def _rewrite_body(path, body):
    """Write `body` to `path` with a correct length trailer."""
    with open(path, "wb") as f:
        f.write(body + struct.pack("<Q", len(body)))


def _saved_body(path):
    C.save_checkpoint(path, {"a": np.arange(3, dtype=np.float32),
                             "b": np.array([0.0, 1.0, 2.0, 3.0], dtype=np.float32)})
    return open(path, "rb").read()[:-8]


@pytest.mark.parametrize("cut,message", [
    (lambda body: body[:-8], "entry 2 of 2 runs past the end of the body"),
    (lambda body: body[:-12], "entry 2 of 2 runs past the end of the body"),
    (lambda body: body + b"\0" * 4, "4 bytes after the last of 2 entries"),
    (lambda body: body[:8] + struct.pack("<Q", 3) + body[16:],
     "entry 3 of 3 runs past the end of the body"),
], ids=["payload_2_floats_short", "payload_3_floats_short", "bytes_before_trailer",
        "count_above_entries"])
def test_malformed_body_names_the_file(tmp_path, cut, message):
    # each file's trailer is correct, so only the body's own bounds catch these
    path = str(tmp_path / "x.ckpt")
    _rewrite_body(path, cut(_saved_body(path)))
    with pytest.raises(ValueError) as exc:
        C.load_checkpoint(path)
    assert str(exc.value) == f"{path}: {message}"


def test_name_not_utf8_names_the_file_and_entry(tmp_path):
    path = str(tmp_path / "x.ckpt")
    body = _saved_body(path)
    at = body.rindex(struct.pack("<I", 1) + b"b") + 4  # the name of entry 2
    _rewrite_body(path, body[:at] + b"\xff" + body[at + 1:])
    with pytest.raises(ValueError) as exc:
        C.load_checkpoint(path)
    assert str(exc.value) == f"{path}: entry 2 of 2 has a name that is not UTF-8"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_prefix_or_extension_of_a_body_is_rejected(tmp_path_factory, data):
    path = str(tmp_path_factory.getbasetemp() / "resized.ckpt")
    body = _saved_body(path)
    if data.draw(st.booleans(), label="extend"):
        body += data.draw(st.binary(min_size=1, max_size=40), label="extra")
    else:
        body = body[:data.draw(st.integers(0, len(body) - 1), label="length")]
    _rewrite_body(path, body)
    with pytest.raises(ValueError, match=f"^{re.escape(path)}: "):
        C.load_checkpoint(path)


def test_text_encoding_round_trip():
    text = "view.tau=0.5\nmodel.d_model=64\n"
    assert C.array_to_text(C.text_to_array(text)) == text

