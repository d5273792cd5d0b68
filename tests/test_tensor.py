"""Tensor engine: forward semantics, stop-gradient, and gradient checks."""

import json
import os
import platform
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from mvdetr import tensor as T
from mvdetr.tensor import Tensor

from helpers import composed_attention, gradcheck, var_normalize


def test_add_basic():
    out = T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    np.testing.assert_allclose(out.data, [4.0, 6.0])


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 5)).astype(np.float32)
    out = T.matmul(Tensor(np.eye(3, dtype=np.float32)), Tensor(a))
    np.testing.assert_allclose(out.data, a, rtol=1e-6)


def test_relu_values():
    out = T.relu(Tensor([-1.0, 0.0, 2.0]))
    np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])


def test_shape_mismatch_message():
    with pytest.raises(T.ShapeError) as exc:
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "matmul" in str(exc.value)
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)


def test_elementwise_rejects_non_suffix_broadcast():
    with pytest.raises(T.ShapeError):
        T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2,))))


def test_bias_broadcast_on_leading_dims():
    out = T.add(Tensor(np.zeros((4, 3))), Tensor(np.ones(3)))
    assert out.data.shape == (4, 3)
    np.testing.assert_allclose(out.data, 1.0)


class TestSoftmax:
    def test_uniform(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-7)

    def test_large_logits_no_overflow(self):
        out = T.softmax(Tensor([1000.0, 0.0]))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_reference_values(self):
        # high-precision scalar evaluation of softmax([1,2,3])
        e = np.exp(np.array([1.0, 2.0, 3.0], dtype=np.float64))
        expected = e / e.sum()
        out = T.softmax(Tensor([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out.data, [0.0900, 0.2447, 0.6652], atol=1e-4)
        np.testing.assert_allclose(out.data, expected, atol=1e-6)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((5, 9)).astype(np.float32))
        out = T.softmax(x)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)
        assert (out.data >= 0).all()

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 6)).astype(np.float32)
        a = T.softmax(Tensor(x))
        b = T.softmax(Tensor(x + 3.25))
        np.testing.assert_allclose(a.data, b.data, atol=1e-6)

    def test_empty_axis_errors(self):
        with pytest.raises(T.ShapeError):
            T.softmax(Tensor(np.zeros((3, 0))))


class TestAttention:
    def _run(self, fn, arrays, w):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        q, k, v = leaves if len(leaves) == 3 else (leaves[0], leaves[0], leaves[1])
        out, probs = fn(q, k, v, 4)
        T.tsum(T.mul(out, Tensor(w))).backward()
        probs = probs.data if isinstance(probs, Tensor) else probs
        return out.data, probs, [leaf.grad for leaf in leaves]

    @pytest.mark.parametrize("nq,shared", [(64, True), (10, False)],
                             ids=["encoder_self", "decoder_cross"])
    def test_bit_identical_to_composed(self, nq, shared):
        rng = np.random.default_rng(21)
        q = rng.standard_normal((2, nq, 32)).astype(np.float32)
        kv = [rng.standard_normal((2, 64, 32)).astype(np.float32) for _ in range(2)]
        arrays = [q, kv[1]] if shared else [q] + kv
        w = rng.standard_normal((2, nq, 32)).astype(np.float32)
        fused = self._run(T.attention, arrays, w)
        ref = self._run(composed_attention, arrays, w)
        np.testing.assert_array_equal(fused[0], ref[0])
        np.testing.assert_array_equal(fused[1], ref[1])
        assert len(fused[2]) == len(ref[2])
        for gf, gr in zip(fused[2], ref[2]):
            assert gf.dtype == np.float32
            np.testing.assert_array_equal(gf, gr)

    @pytest.mark.parametrize("b,n,c,per_block", [(3, 256, 16, 1), (5, 128, 32, 4)],
                             ids=["item_per_block", "remainder_block"])
    def test_multi_block_bit_identical_to_composed(self, b, n, c, per_block):
        # float32 probabilities of 4 heads: one n=256 item fills a whole block
        # (three blocks); n=128 items go four to a block (blocks of 4 + 1)
        assert T._ATTENTION_BLOCK_BYTES // (4 * n * n * 4) == per_block
        rng = np.random.default_rng(24)
        arrays = [rng.standard_normal((b, n, c)).astype(np.float32) for _ in range(3)]
        w = rng.standard_normal((b, n, c)).astype(np.float32)
        fused = self._run(T.attention, arrays, w)
        ref = self._run(composed_attention, arrays, w)
        np.testing.assert_array_equal(fused[0], ref[0])
        assert fused[1] is None  # a multi-block batch's probabilities never exist whole
        assert len(fused[2]) == 3
        for gf, gr in zip(fused[2], ref[2]):
            assert gf.dtype == np.float32
            np.testing.assert_array_equal(gf, gr)
        # a batch of one fits one block, so it gets its probabilities back
        for i in range(b):
            one = [Tensor(a[i:i + 1]) for a in arrays]
            probs = T.attention(*one, 4)[1]
            assert probs.shape == (1, 4, n, n)
            np.testing.assert_array_equal(probs, composed_attention(*one, 4)[1].data)

    @pytest.mark.parametrize("wanted,dtype", [("q", np.float32), ("k", np.float32),
                                              ("qkv", np.float64)],
                             ids=["query_only", "key_only", "float64"])
    def test_multi_block_partial_gradients_bit_identical(self, wanted, dtype):
        # n=256 items go one to a block: 1 MiB of float32 or 2 MiB of float64
        rng = np.random.default_rng(26)
        arrays = [rng.standard_normal((3, 256, 16)).astype(dtype) for _ in range(3)]
        w = rng.standard_normal((3, 256, 16)).astype(dtype)
        results = []
        for fn in (T.attention, composed_attention):
            qkv = [Tensor(a.copy(), requires_grad=name in wanted)
                   for a, name in zip(arrays, "qkv")]
            out, _ = fn(*qkv, 4)
            T.tsum(T.mul(out, Tensor(w))).backward()
            results.append((out.data, [t.grad for t in qkv]))
        (out_f, grads_f), (out_r, grads_r) = results
        np.testing.assert_array_equal(out_f, out_r)
        assert out_f.dtype == dtype
        for name, gf, gr in zip("qkv", grads_f, grads_r):
            if name in wanted:
                assert gf.dtype == dtype
                np.testing.assert_array_equal(gf, gr)
            else:
                assert gf is None and gr is None

    def test_keeps_no_probability_tensor(self):
        # a default pretrain encoder layer's shapes: its probabilities alone
        # would be 16 MiB, which neither the tape nor the backward may hold
        rng = np.random.default_rng(28)
        q, k, v = (Tensor(rng.standard_normal((16, 256, 64)).astype(np.float32),
                          requires_grad=True) for _ in range(3))
        w = Tensor(rng.standard_normal((16, 256, 64)).astype(np.float32))
        mib = 1 << 20
        tracemalloc.start()
        try:
            out, probs = T.attention(q, k, v, 4)
            assert probs is None
            held = tracemalloc.get_traced_memory()[0]
            loss = T.tsum(T.mul(out, w))
            tracemalloc.reset_peak()
            loss.backward()
            backward_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held < 4 * mib
        assert backward_peak < 16 * mib

    def test_value_only_gradient_bit_identical_to_composed(self):
        # q and k constant: only dV reaches an input, and q and k get no .grad
        rng = np.random.default_rng(25)
        q, k, v = (rng.standard_normal((3, 256, 16)).astype(np.float32) for _ in range(3))
        w = rng.standard_normal((3, 256, 16)).astype(np.float32)
        grads = []
        for fn in (T.attention, composed_attention):
            consts = Tensor(q), Tensor(k)
            leaf = Tensor(v.copy(), requires_grad=True)
            out, _ = fn(*consts, leaf, 4)
            T.tsum(T.mul(out, Tensor(w))).backward()
            grads.append(leaf.grad)
            assert all(t.grad is None for t in consts)
        np.testing.assert_array_equal(grads[0], grads[1])

    def test_probabilities_read_only(self):
        rng = np.random.default_rng(22)
        q, k, v = (Tensor(rng.standard_normal((1, 3, 8)).astype(np.float32),
                          requires_grad=True) for _ in range(3))
        _, probs = T.attention(q, k, v, heads=2)
        assert probs.shape == (1, 2, 3, 3)
        with pytest.raises(ValueError):
            probs[0, 0, 0, 0] = 0.0

    def test_backward_leaves_incoming_gradient_untouched(self):
        rng = np.random.default_rng(23)
        q, k, v = (Tensor(rng.standard_normal((2, 4, 8)).astype(np.float32),
                          requires_grad=True) for _ in range(3))
        out, _ = T.attention(q, k, v, heads=2)
        g = rng.standard_normal(out.data.shape).astype(np.float32)
        before = g.copy()
        out._backward(g)
        np.testing.assert_array_equal(g, before)

    def test_non_finite_logit_rows_match_composed(self):
        # key 0 of item 0 and every key of item 1 carry +inf in head 0's first
        # dimension, so there a query's logit is +inf, -inf or NaN by the sign
        # of its own first entry: item 0 gets rows with one +inf, one -inf or
        # one NaN logit among finite ones, item 1 rows of all +inf, all -inf
        # or all NaN; each row must come out as the composed softmax's does
        rng = np.random.default_rng(27)
        q = rng.standard_normal((2, 6, 8)).astype(np.float32)
        k, v = (rng.standard_normal((2, 5, 8)).astype(np.float32) for _ in range(2))
        q[:, :, 0] = [2.0, -1.5, 0.0, 1.0, -0.5, 0.0]
        k[0, 0, 0] = np.inf
        k[1, :, 0] = np.inf
        w = rng.standard_normal((2, 6, 8)).astype(np.float32)
        with np.errstate(invalid="ignore"):
            fused = self._run(T.attention, [q, k, v], w)
            ref = self._run(composed_attention, [q, k, v], w)
        probs = fused[1][:, 0]
        assert np.isnan(probs[0, [0, 2, 3, 5]]).all() and np.isnan(probs[1]).all()
        assert np.isfinite(probs[0, [1, 4]]).all() and not probs[0, [1, 4], 0].any()
        np.testing.assert_array_equal(fused[0], ref[0])  # NaN for NaN
        np.testing.assert_array_equal(fused[1], ref[1])
        for gf, gr in zip(fused[2], ref[2]):
            np.testing.assert_array_equal(gf, gr)

    def test_shape_errors(self):
        x = Tensor(np.zeros((2, 3, 8), np.float32))
        with pytest.raises(T.ShapeError):
            T.attention(x, Tensor(np.zeros((2, 3, 6), np.float32)), x, heads=2)
        with pytest.raises(T.ShapeError):
            T.attention(x, x, x, heads=3)
        with pytest.raises(T.ShapeError):
            T.attention(Tensor(np.zeros((3, 8), np.float32)), x, x, heads=2)


class TestNormalization:
    def test_layer_norm_constant_row_is_zero(self):
        x = Tensor(np.full((2, 8), 3.7, dtype=np.float32))
        out = T.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_layer_norm_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 16)).astype(np.float32)
        ones, zeros = Tensor(np.ones(16)), Tensor(np.zeros(16))
        a = T.layer_norm(Tensor(x), ones, zeros)
        b = T.layer_norm(Tensor(x + 2.5), ones, zeros)
        np.testing.assert_allclose(a.data, b.data, atol=1e-5)

    def test_layer_norm_moments(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((6, 32)).astype(np.float32) * 3 + 1)
        out = T.layer_norm(x, Tensor(np.ones(32)), Tensor(np.zeros(32)))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-3)

    def test_batch_norm_two_rows(self):
        # batch {[1],[3]}: mean 2, population variance 1
        x = Tensor(np.array([[1.0], [3.0]], dtype=np.float32))
        out = T.batch_norm_1d(x, Tensor(np.ones(1)), Tensor(np.zeros(1)))
        np.testing.assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-3)

    def test_batch_norm_rejects_single_row(self):
        with pytest.raises(T.ShapeError):
            T.batch_norm_1d(Tensor(np.ones((1, 4))), Tensor(np.ones(4)), Tensor(np.zeros(4)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op,shape,axis", [("layer_norm", (3, 17, 24), -1),
                                               ("batch_norm_1d", (13, 24), 0)],
                             ids=["layer_norm", "batch_norm_1d"])
    @pytest.mark.parametrize("wanted", ["x_scale_shift", "x", "scale_shift"])
    def test_bit_equal_to_var_oracle(self, dtype, op, shape, axis, wanted):
        rng = np.random.default_rng(41)
        x = (rng.standard_normal(shape) * 3.0 + 1.5).astype(dtype)
        scale, shift = (rng.standard_normal(shape[-1]).astype(dtype) for _ in range(2))
        w = rng.standard_normal(shape).astype(dtype)
        leaves = [Tensor(a.copy(), requires_grad=name in wanted)
                  for a, name in zip((x, scale, shift), ("x", "scale", "shift"))]
        out = getattr(T, op)(*leaves)
        T.tsum(T.mul(out, Tensor(w))).backward()  # out's gradient is exactly w
        want = var_normalize(x, scale, shift, w, axis)
        assert out.data.dtype == dtype and out.data.tobytes() == want[0].tobytes()
        for leaf, g in zip(leaves, want[1:]):
            if leaf.requires_grad:
                assert leaf.grad.dtype == dtype and leaf.grad.tobytes() == g.tobytes()
            else:
                assert leaf.grad is None

    def test_layer_norm_memory(self):
        # a default encoder layer's (8, 256, 64) float32 activations, 512 KiB
        # each: the forward keeps x-hat and the output, the backward adds its
        # two buffers, so the peak stays near four of them (2 MiB); taking
        # the variance with np.var and x-hat as a fresh (x - mean) * inv
        # peaks at 2.56 MiB
        rng = np.random.default_rng(43)
        x = Tensor(rng.standard_normal((8, 256, 64)).astype(np.float32), requires_grad=True)
        scale, shift = (Tensor(rng.standard_normal(64).astype(np.float32), requires_grad=True)
                        for _ in range(2))
        g = rng.standard_normal((8, 256, 64)).astype(np.float32)
        tracemalloc.start()
        try:
            out = T.layer_norm(x, scale, shift)
            out._backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * (1 << 20)


class TestSimilarity:
    def test_cosine_self(self):
        a = Tensor(np.array([1.0, 2.0, -3.0]))
        assert float(T.cosine(a, a).data) == pytest.approx(1.0, abs=1e-6)

    def test_cosine_antipodal(self):
        a = Tensor(np.array([1.0, 2.0, -3.0]))
        b = Tensor(-a.data)
        assert float(T.cosine(a, b).data) == pytest.approx(-1.0, abs=1e-6)

    def test_cosine_range(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = Tensor(rng.standard_normal(8))
            b = Tensor(rng.standard_normal(8))
            assert -1.0 - 1e-6 <= float(T.cosine(a, b).data) <= 1.0 + 1e-6

    def test_l2_normalize_unit_rows(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((7, 5)))
        out = T.l2_normalize(x)
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=-1), 1.0, atol=1e-6)

    def test_l2_normalize_zero_row_errors(self):
        x = np.ones((3, 4))
        x[1] = 0.0
        with pytest.raises(ValueError) as exc:
            T.l2_normalize(Tensor(x))
        assert "1" in str(exc.value)


class TestTake:
    @pytest.mark.parametrize("index,axis", [([1, 0, 1], 0), ([0, 4], 1), ([-1], 0),
                                            ([[0, 1]], 0)],
                             ids=["repeated", "past_the_end", "negative", "not_1d"])
    def test_rejects_index_that_is_not_distinct_entries_in_range(self, index, axis):
        with pytest.raises(T.ShapeError, match="distinct and in range"):
            T.take(Tensor(np.zeros((3, 4))), index, axis)

    @pytest.mark.parametrize("index,axis", [([4, 0, 2], 0), ([3, 1], 1)])
    def test_backward_is_add_at_bit_for_bit(self, index, axis):
        # -0.0 entries too: zeros + g turns them into 0.0, as np.add.at does
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((5, 4)).astype(np.float32), requires_grad=True)
        out = T.take(x, index, axis)
        where = (slice(None),) * axis + (index,)
        np.testing.assert_array_equal(out.data, x.data[where])
        g = rng.standard_normal(out.data.shape).astype(np.float32)
        g.reshape(-1)[::2] = -0.0
        T.tsum(T.mul(out, Tensor(g))).backward()
        expected = np.zeros_like(x.data)
        np.add.at(expected, where, g)
        assert x.grad.tobytes() == expected.tobytes()


class TestDetach:
    def test_values_bitwise(self):
        x = Tensor(np.array([1.5, -2.25], dtype=np.float32), requires_grad=True)
        d = x.detach()
        assert d.data.tobytes() == x.data.tobytes()
        assert not d.requires_grad

    def test_stop_gradient_semantics(self):
        # d/dx of sum(detach(x) * x) is x, not 2x
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        loss = T.tsum(T.mul(x.detach(), x))
        loss.backward()
        np.testing.assert_allclose(x.grad, x.data)

    def test_all_detached_graph_gives_zero_grads(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        loss = T.tsum(T.mul(x.detach(), y.detach()))
        loss.backward()
        assert x.grad is None and y.grad is None


# every one-operand op: its name on the tape and a call on a (2, 2) input
UNARY_OPS = [
    ("relu", T.relu), ("sigmoid", T.sigmoid), ("log", T.log), ("abs", T.absolute),
    ("clamp", lambda x: T.clamp(x, 0.75, 2.5)), ("reshape", lambda x: T.reshape(x, (4,))),
    ("transpose", lambda x: T.transpose(x, (1, 0))),
    ("gather_rows", lambda x: T.take(x, [1, 0], 0)), ("narrow", lambda x: T.take(x, [1], 1)),
    ("sum", T.tsum),
    ("mean", lambda x: T.tmean(x, axis=0)), ("softmax", T.softmax),
    ("l2_normalize", T.l2_normalize),
]
# The row gather and the column narrow are both the one selection op, take.
RECORDED_AS = {"gather_rows": "take", "narrow": "take"}


def _positive():
    return np.array([[1.0, 2.0], [0.5, 3.0]])  # log needs positive inputs


def _other_ops(a, b):
    """The multi-operand ops besides the elementwise ones, on (2, 2) inputs."""
    return [T.matmul(a, b), T.cosine(a, b)]


class TestTapeRule:
    """A node is on the tape exactly when one of its inputs requires a gradient."""

    @staticmethod
    def _assert_off_tape(t):
        assert t._parents == () and not t.requires_grad and t._backward is None

    def test_constant_inputs_record_nothing(self):
        a = Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]))
        b = Tensor(np.array([2.0, 4.0]))
        for out in (T.add(a, b), T.sub(a, b), T.mul(a, b), T.div(a, b),
                    T.minimum(a, b), T.maximum(a, b), T.tsum(a, axis=0), T.tmean(a),
                    T.affine(a, Tensor(np.eye(2)), b), T.layer_norm(a, b, b),
                    T.batch_norm_1d(a, b, b), T.attention(Tensor(a.data[None]),
                                                         Tensor(a.data[None]),
                                                         Tensor(a.data[None]), 1)[0],
                    *(op(Tensor(_positive())) for _, op in UNARY_OPS),
                    *_other_ops(a, Tensor(_positive()))):
            self._assert_off_tape(out)

    def test_detach_records_nothing(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        d = x.detach()
        self._assert_off_tape(d)
        self._assert_off_tape(T.mul(d, d))

    def test_gradient_input_records_parents(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        c = Tensor(np.array([3.0, 4.0]))
        out = T.mul(c, x)
        assert out.requires_grad and out._backward is not None
        assert out._parents == (c, x)

    @pytest.mark.parametrize("name,op", UNARY_OPS, ids=[name for name, _ in UNARY_OPS])
    def test_one_operand_op_records_its_input_and_name(self, name, op):
        x = Tensor(_positive(), requires_grad=True)
        out = op(x)
        assert out.requires_grad and out._backward is not None
        assert len(out._parents) == 1 and out._parents[0] is x
        assert out._op == RECORDED_AS.get(name, name)


class TestNoGrad:
    """Under `no_grad` no node is recorded, whatever its inputs."""

    def test_gradient_inputs_record_nothing(self):
        x = Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]), requires_grad=True)
        w = Tensor(np.eye(2), requires_grad=True)
        with T.no_grad():
            outs = [T.affine(x, w), T.mul(x, x), T.softmax(x), T.tmean(x),
                    T.layer_norm(x, w, w),
                    T.attention(Tensor(x.data[None], requires_grad=True),
                                Tensor(x.data[None], requires_grad=True),
                                Tensor(x.data[None], requires_grad=True), 1)[0]]
            p = Tensor(_positive(), requires_grad=True)
            outs += [op(p) for _, op in UNARY_OPS] + _other_ops(x, p)
            with T.no_grad():  # nesting keeps recording off
                outs.append(T.mul(x, w))
            outs.append(T.add(x, w))
        for out in outs:
            TestTapeRule._assert_off_tape(out)
        assert T.mul(x, w).requires_grad  # recording resumes on exit

    def test_recording_restored_after_error(self):
        x = Tensor(np.zeros(2), requires_grad=True)
        with pytest.raises(T.ShapeError):
            with T.no_grad():
                T.add(x, Tensor(np.zeros(3)))
        assert T.mul(x, x).requires_grad


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = T.tsum(T.mul(x, x))
        loss.backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with pytest.raises(T.ShapeError):
            T.mul(x, x).backward()

    def test_accumulation_and_zeroing(self):
        x = Tensor(np.array([3.0]), requires_grad=True)

        def run():
            loss = T.tsum(T.mul(x, x))
            loss.backward()

        run()
        first = x.grad.copy()
        run()
        np.testing.assert_allclose(x.grad, 2 * first)  # accumulates without zeroing
        x.grad = None
        run()
        np.testing.assert_allclose(x.grad, first)  # identical after zeroing

    def test_determinism(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 4)).astype(np.float32)

        def run():
            x = Tensor(a.copy(), requires_grad=True)
            loss = T.tsum(T.softmax(T.matmul(x, x)))
            loss.backward()
            return x.grad.tobytes()

        assert run() == run()


class TestBackwardFreesGraph:
    """One backward per graph; interior nodes are released as the walk passes."""

    @staticmethod
    def _graph():
        # loss = sum(relu(x W + b)^2); pre-activation [-4.5, 3.5]
        w = Tensor(np.array([[1.0, 2.0], [3.0, -1.0]]), requires_grad=True)
        b = Tensor(np.array([0.5, -0.5]), requires_grad=True)
        pre = T.affine(Tensor(np.array([[1.0, -2.0]])), w, b)
        h = T.relu(pre)
        return w, b, pre, h, T.tsum(T.mul(h, h))

    def test_interior_nodes_dropped_leaf_grads_kept(self):
        w, b, pre, h, loss = self._graph()
        unheld = weakref.ref(pre)
        del pre  # now only the tape refers to it
        assert unheld() is not None
        loss.backward()
        assert unheld() is None  # freed during the walk, the loss still alive
        for node in (h, loss):
            assert node.grad is None and node._parents == ()
            assert node._backward is T._freed  # no closure, no saved buffers
        np.testing.assert_array_equal(h.data, [[0.0, 3.5]])
        assert float(loss.data) == 12.25
        np.testing.assert_array_equal(w.grad, [[0.0, 7.0], [0.0, -14.0]])
        np.testing.assert_array_equal(b.grad, [0.0, 7.0])

    def test_second_backward_raises(self):
        w, b, _, _, loss = self._graph()
        loss.backward()
        grads = w.grad.copy(), b.grad.copy()
        with pytest.raises(T.GraphFreedError):
            loss.backward()
        np.testing.assert_array_equal(w.grad, grads[0])  # nothing added twice
        np.testing.assert_array_equal(b.grad, grads[1])

    def test_backward_through_a_freed_subgraph_raises(self):
        w, _, _, h, loss = self._graph()
        loss.backward()
        with pytest.raises(T.GraphFreedError):
            T.tsum(h).backward()

    def test_leaf_loss_can_repeat(self):
        # a leaf has no graph to free
        x = Tensor(np.array([2.0]), requires_grad=True)
        x.backward()
        x.backward()
        np.testing.assert_array_equal(x.grad, [1.0])


class TestGradients:
    """Central finite differences (float64, h=1e-3) vs. the tape, >= 20 draws."""

    def _rng(self):
        return np.random.default_rng(1234)

    def test_add(self):
        gradcheck(lambda ts: T.tsum(T.mul(T.add(ts[0], ts[1]), ts[2])),
                  [(3, 4), (3, 4), (3, 4)], self._rng())

    def test_add_broadcast(self):
        gradcheck(lambda ts: T.tsum(T.mul(T.add(ts[0], ts[1]), ts[2])),
                  [(3, 4), (4,), (3, 4)], self._rng())

    def test_sub(self):
        gradcheck(lambda ts: T.tsum(T.mul(T.sub(ts[0], ts[1]), ts[1])),
                  [(2, 5), (2, 5)], self._rng())

    def test_mul(self):
        gradcheck(lambda ts: T.tsum(T.mul(ts[0], ts[1])), [(4, 3), (4, 3)], self._rng())

    def test_div(self):
        rng = self._rng()
        gradcheck(lambda ts: T.tsum(T.div(ts[0], T.add(T.mul(ts[1], ts[1]),
                                                       Tensor(np.full((3,), 2.0))))),
                  [(2, 3), (3,)], rng)

    def test_matmul(self):
        gradcheck(lambda ts: T.tsum(T.matmul(ts[0], ts[1])), [(3, 4), (4, 2)], self._rng())

    def test_matmul_batched(self):
        gradcheck(lambda ts: T.tsum(T.matmul(ts[0], ts[1])),
                  [(2, 3, 4), (2, 4, 2)], self._rng())

    def test_affine(self):
        gradcheck(lambda ts: T.tsum(T.affine(ts[0], ts[1], ts[2])),
                  [(5, 3), (3, 4), (4,)], self._rng())

    def test_relu(self):
        gradcheck(lambda ts: T.tsum(T.mul(T.relu(ts[0]), ts[1])),
                  [(4, 4), (4, 4)], self._rng(), avoid_zero=True)

    def test_sigmoid(self):
        gradcheck(lambda ts: T.tsum(T.sigmoid(ts[0])), [(3, 3)], self._rng())

    def test_log(self):
        gradcheck(lambda ts: T.tsum(T.log(T.add(T.mul(ts[0], ts[0]),
                                                Tensor(np.full((3, 3), 1.5))))),
                  [(3, 3)], self._rng())

    def test_abs(self):
        gradcheck(lambda ts: T.tsum(T.absolute(ts[0])), [(4, 3)], self._rng(),
                  avoid_zero=True)

    def test_min_max(self):
        gradcheck(lambda ts: T.tsum(T.add(T.minimum(ts[0], ts[1]),
                                          T.maximum(ts[0], ts[1]))),
                  [(5, 2), (5, 2)], self._rng())

    def test_clamp(self):
        gradcheck(lambda ts: T.tsum(T.clamp(ts[0], -0.5, 0.5)), [(6, 2)], self._rng())

    def test_softmax(self):
        gradcheck(lambda ts: T.tsum(T.mul(T.softmax(ts[0]), ts[1])),
                  [(3, 5), (3, 5)], self._rng())

    def test_attention_self(self):
        gradcheck(lambda ts: T.tsum(T.mul(T.attention(ts[0], ts[0], ts[1], heads=2)[0],
                                          ts[2])),
                  [(2, 5, 4), (2, 5, 4), (2, 5, 4)], self._rng())

    def test_attention_cross(self):
        gradcheck(lambda ts: T.tsum(T.mul(T.attention(ts[0], ts[1], ts[2], heads=2)[0],
                                          ts[3])),
                  [(2, 3, 4), (2, 6, 4), (2, 6, 4), (2, 3, 4)], self._rng())

    def test_layer_norm(self):
        gradcheck(lambda ts: T.tsum(T.mul(T.layer_norm(ts[0], ts[1], ts[2]), ts[3])),
                  [(4, 6), (6,), (6,), (4, 6)], self._rng())

    def test_batch_norm(self):
        gradcheck(lambda ts: T.tsum(T.mul(T.batch_norm_1d(ts[0], ts[1], ts[2]), ts[3])),
                  [(5, 3), (3,), (3,), (5, 3)], self._rng())

    def test_reshape_transpose(self):
        gradcheck(lambda ts: T.tsum(T.mul(T.transpose(T.reshape(ts[0], (4, 3)), (1, 0)), ts[1])),
                  [(2, 6), (3, 4)], self._rng())

    def test_take_rows(self):
        # a permutation along axis 0, as the pretraining direction swap takes
        gradcheck(lambda ts: T.tsum(T.mul(T.take(ts[0], [2, 3, 0, 1], 0), ts[1])),
                  [(4, 3), (4, 3)], self._rng())

    def test_take_columns(self):
        # single columns along axis 1, as the GIoU corners take them
        gradcheck(lambda ts: T.tsum(T.mul(T.mul(T.take(ts[0], [3], 1), T.take(ts[0], [1], 1)),
                                          ts[1])),
                  [(3, 5), (3, 1)], self._rng())

    def test_sum_mean_axes(self):
        gradcheck(lambda ts: T.tsum(T.mul(T.tmean(ts[0], axis=0), ts[1])),
                  [(4, 3), (3,)], self._rng())
        gradcheck(lambda ts: T.tmean(T.tsum(ts[0], axis=1)), [(4, 3)], self._rng())

    def test_l2_normalize(self):
        gradcheck(lambda ts: T.tsum(T.mul(T.l2_normalize(ts[0]), ts[1])),
                  [(4, 5), (4, 5)], self._rng())

    def test_cosine(self):
        gradcheck(lambda ts: T.tsum(T.cosine(ts[0], ts[1])), [(3, 6), (3, 6)], self._rng())


# -- malloc thresholds ----------------------------------------------------------------

# One operation, repeated at default sizes in a fresh process; prints the minor
# page faults of each call. Each operation gets its own process: freeing one
# large mmapped block raises glibc's dynamic thresholds, so an operation run
# first could hide the faults of the one run after it.
_FAULT_SCRIPT = """
import json, resource, sys
import numpy as np
from mvdetr.backbone import FrozenBackbone
from mvdetr.config import RunConfig
from mvdetr.metrics import detect_batch
from mvdetr.optim import AdamW
from mvdetr.training import LabeledItem, finetune_step, make_model

cfg = RunConfig()
backbone = FrozenBackbone(cfg.backbone_seed)
model = make_model(cfg, backbone)
model.add_class_head(cfg.data_classes, seed=1)
rng = np.random.default_rng(0)
if sys.argv[1] == "finetune_step":
    optimizer = AdamW(model.params, lr=cfg.train_lr, weight_decay=cfg.train_weight_decay)
    side = cfg.view_size // backbone.stride
    features = rng.standard_normal((8, side, side, backbone.out_channels)).astype(np.float32)
    items = [LabeledItem(np.zeros((1, 1, 3), np.uint8),
                         np.array([[0.5, 0.5, 0.3, 0.4]], np.float32), np.array([i % 3]))
             for i in range(8)]
    op = lambda: finetune_step(model, optimizer, features, items, cfg)
else:
    images = [(i, rng.integers(0, 256, (160, 160, 3), dtype=np.uint8)) for i in range(16)]
    op = lambda: detect_batch(model, backbone, images, view_size=cfg.view_size)
counts = []
for _ in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    op()
    counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(counts))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
@pytest.mark.parametrize("op", ["finetune_step", "detect_batch"])
def test_steps_fault_in_no_pages_after_warm_up(op):
    # with the heap trimmed and large arrays unmapped at each call's end, a call
    # faults its memory back in: 1,000 to 4,000 minor faults per call
    src = os.path.dirname(os.path.dirname(os.path.abspath(T.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _FAULT_SCRIPT, op], env=env,
                         capture_output=True, text=True, check=True).stdout
    counts = json.loads(out)
    assert max(counts[2:]) < 250, counts


def test_missing_mallopt_leaves_allocator_alone(monkeypatch):
    class NoMallopt:  # a C library without mallopt
        pass
    monkeypatch.setattr(T.ctypes, "CDLL", lambda name: NoMallopt())
    assert T._mallopt() is None
    assert T._keep_freed_memory() is None


def test_refused_mmap_threshold_sets_no_trim_threshold(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append(param)
        return 0
    monkeypatch.setattr(T, "_mallopt", lambda: mallopt)
    assert T._keep_freed_memory() is None
    assert calls == [T._M_MMAP_THRESHOLD]
