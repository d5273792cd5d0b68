"""Tensor engine: forward semantics, stop-gradient, and gradient checks."""

import numpy as np
import pytest

from mvdetr import tensor as T
from mvdetr.tensor import Tensor

from helpers import composed_attention, gradcheck


def test_add_basic():
    out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
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
        out = T.softmax(x, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)
        assert (out.data >= 0).all()

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 6)).astype(np.float32)
        a = T.softmax(Tensor(x), axis=-1)
        b = T.softmax(Tensor(x + 3.25), axis=-1)
        np.testing.assert_allclose(a.data, b.data, atol=1e-6)

    def test_empty_axis_errors(self):
        with pytest.raises(T.ShapeError):
            T.softmax(Tensor(np.zeros((3, 0))), axis=-1)


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


class TestSimilarity:
    def test_cosine_self(self):
        a = Tensor(np.array([1.0, 2.0, -3.0]))
        assert T.cosine(a, a).item() == pytest.approx(1.0, abs=1e-6)

    def test_cosine_antipodal(self):
        a = Tensor(np.array([1.0, 2.0, -3.0]))
        b = Tensor(-a.data)
        assert T.cosine(a, b).item() == pytest.approx(-1.0, abs=1e-6)

    def test_cosine_range(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = Tensor(rng.standard_normal(8))
            b = Tensor(rng.standard_normal(8))
            assert -1.0 - 1e-6 <= T.cosine(a, b).item() <= 1.0 + 1e-6

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

    def test_global_average_pool_constant(self):
        x = Tensor(np.full((5, 6, 3), 7.0, dtype=np.float32))
        out = T.global_average_pool(x)
        np.testing.assert_allclose(out.data, [7.0, 7.0, 7.0], atol=1e-6)


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
        x.zero_grad()
        run()
        np.testing.assert_allclose(x.grad, first)  # identical after zeroing

    def test_determinism(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 4)).astype(np.float32)

        def run():
            x = Tensor(a.copy(), requires_grad=True)
            loss = T.tsum(T.softmax(T.matmul(x, x), axis=-1))
            loss.backward()
            return x.grad.tobytes()

        assert run() == run()


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

    def test_exp(self):
        gradcheck(lambda ts: T.tsum(T.exp(ts[0])), [(3, 3)], self._rng())

    def test_log(self):
        gradcheck(lambda ts: T.tsum(T.log(T.add(T.mul(ts[0], ts[0]),
                                                Tensor(np.full((3, 3), 1.5))))),
                  [(3, 3)], self._rng())

    def test_sqrt(self):
        gradcheck(lambda ts: T.tsum(T.sqrt(T.add(T.mul(ts[0], ts[0]),
                                                 Tensor(np.full((4,), 1.0))))),
                  [(4,)], self._rng())

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
        gradcheck(lambda ts: T.tsum(T.mul(T.softmax(ts[0], axis=-1), ts[1])),
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

    def test_concatenate(self):
        gradcheck(lambda ts: T.tsum(T.mul(T.concatenate([ts[0], ts[1]], axis=1), ts[2])),
                  [(2, 3), (2, 4), (2, 7)], self._rng())

    def test_narrow(self):
        gradcheck(lambda ts: T.tsum(T.mul(T.narrow(ts[0], 1, 1, 2), ts[1])),
                  [(3, 5), (3, 2)], self._rng())

    def test_gather_rows(self):
        gradcheck(lambda ts: T.tsum(T.mul(T.gather_rows(ts[0], [2, 0, 2]), ts[1])),
                  [(4, 3), (3, 3)], self._rng())

    def test_sum_mean_axes(self):
        gradcheck(lambda ts: T.tsum(T.mul(T.tmean(ts[0], axis=0), ts[1])),
                  [(4, 3), (3,)], self._rng())
        gradcheck(lambda ts: T.tmean(T.tsum(ts[0], axis=1)), [(4, 3)], self._rng())

    def test_l2_normalize(self):
        gradcheck(lambda ts: T.tsum(T.mul(T.l2_normalize(ts[0]), ts[1])),
                  [(4, 5), (4, 5)], self._rng())

    def test_cosine(self):
        gradcheck(lambda ts: T.tsum(T.cosine(ts[0], ts[1])), [(3, 6), (3, 6)], self._rng())

    def test_global_average_pool(self):
        gradcheck(lambda ts: T.tsum(T.mul(T.global_average_pool(ts[0]), ts[1])),
                  [(3, 4, 5), (5,)], self._rng())
