"""The splitmix64 stream: reference values, block draws against one-at-a-time
draws, and model initialisation built from either."""

import numpy as np
from hypothesis import given, settings, strategies as st

from mvdetr import backbone as B
from mvdetr.backbone import FrozenBackbone
from mvdetr.config import RunConfig
from mvdetr.model import Detr
from mvdetr.rng import Rng

from helpers import scalar_normal

seeds = st.integers(0, 2**64 - 1)
counts = st.integers(0, 41)  # zero, odd and even
moments = st.tuples(st.floats(-3, 3), st.floats(0.01, 4))


def test_splitmix64_reference_values():
    rng = Rng(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f]


def test_seed_wraps_to_64_bits():
    assert Rng(-1).next_u64() == Rng(2**64 - 1).next_u64()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=seeds, calls=st.lists(st.tuples(counts, st.floats(-5, 5), st.floats(0, 5)),
                                  max_size=4))
def test_uniforms_equal_scalar_draws(seed, calls):
    block, scalar = Rng(seed), Rng(seed)
    for count, low, span in calls:
        got = block.uniforms(count, low, low + span)
        want = np.array([scalar.uniform(low, low + span) for _ in range(count)])
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert block.next_u64() == scalar.next_u64()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=seeds, calls=st.lists(st.tuples(st.sampled_from(["block", "scalar"]), counts,
                                            moments), min_size=1, max_size=6))
def test_normals_equal_scalar_draws(seed, calls):
    # blocks interleaved with single draws: the spare normal carries across
    # calls both ways, and both generators end in the same state
    block, scalar = Rng(seed), Rng(seed)
    for kind, count, (mean, std) in calls:
        want = np.array([scalar_normal(scalar, mean, std) for _ in range(count)])
        if kind == "block":
            got = block.normals(count, mean, std)
        else:
            got = np.array([scalar_normal(block, mean, std) for _ in range(count)])
        assert got.tobytes() == want.tobytes()
        assert repr(block._spare_normal) == repr(scalar._spare_normal)
    assert block.next_u64() == scalar.next_u64()


def test_uniforms_then_normals_share_one_stream():
    block, scalar = Rng(5), Rng(5)
    got = np.concatenate([block.uniforms(3), block.normals(5), block.uniforms(2)])
    want = np.array([scalar.uniform() for _ in range(3)]
                    + [scalar_normal(scalar) for _ in range(5)]
                    + [scalar.uniform() for _ in range(2)])
    assert got.tobytes() == want.tobytes()


def _scalar_normals(self, count, mean=0.0, std=1.0):
    return np.array([scalar_normal(self, mean, std) for _ in range(count)])


def _init_arrays(monkeypatch):
    model = Detr(RunConfig(), 64, seed=3)
    model.add_class_head(3, seed=4)
    backbones = [FrozenBackbone(seed=7)]
    # 7 and 9 channels make odd draw counts, so the spare carries between layers
    with monkeypatch.context() as m:
        m.setattr(B, "CHANNELS", (7, 9))
        backbones.append(FrozenBackbone(seed=7))
    return ({k: t.data.tobytes() for k, t in model.params.items()},
            [w.tobytes() for b in backbones for w in b.weights])


def test_model_and_backbone_init_equal_scalar_draws(monkeypatch):
    block = _init_arrays(monkeypatch)
    monkeypatch.setattr(Rng, "normals", _scalar_normals)
    assert _init_arrays(monkeypatch) == block
