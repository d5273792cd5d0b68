"""AdamW semantics and gradient clipping."""

import numpy as np
import pytest

from mvdetr.optim import EPS, AdamW, clip_global_norm
from mvdetr.tensor import Tensor


def _param(values):
    return Tensor(np.asarray(values, dtype=np.float32), requires_grad=True)


class TestAdamW:
    def test_zero_grad_decay_only(self):
        w = _param([2.0, -4.0])
        w.grad = np.zeros(2, dtype=np.float32)
        opt = AdamW({"w": w}, lr=0.1, weight_decay=0.01)
        opt.step()
        np.testing.assert_allclose(w.data, np.array([2.0, -4.0]) * (1 - 0.1 * 0.01),
                                   rtol=1e-6)

    def test_zero_lr_no_change(self):
        w = _param([1.0, 2.0])
        w.grad = np.array([0.5, -0.5], dtype=np.float32)
        opt = AdamW({"w": w}, lr=0.0, weight_decay=0.01)
        opt.step()
        np.testing.assert_allclose(w.data, [1.0, 2.0])

    def test_first_step_closed_form(self):
        # t=1 with wd=0: m_hat = g, v_hat = g^2, so w' = w - lr * g / (|g| + eps)
        w0, g, lr, eps = 3.0, 0.7, 0.01, 1e-8
        w = _param([w0])
        w.grad = np.array([g], dtype=np.float32)
        assert EPS == eps
        opt = AdamW({"w": w}, lr=lr, weight_decay=0.0)
        opt.step()
        expected = w0 - lr * g / (abs(g) + eps)
        assert float(w.data[0]) == pytest.approx(expected, rel=1e-6)

    def test_none_grad_treated_as_zero(self):
        w = _param([1.0])
        opt = AdamW({"w": w}, lr=0.1, weight_decay=0.1)
        opt.step()
        assert float(w.data[0]) == pytest.approx(1.0 - 0.1 * 0.1, rel=1e-6)

    def test_nan_grad_aborts_with_name(self):
        w = _param([1.0])
        w.grad = np.array([np.nan], dtype=np.float32)
        opt = AdamW({"w": w}, lr=0.1, weight_decay=1e-4)
        with pytest.raises(FloatingPointError, match="w"):
            opt.step()

    def test_nan_in_last_param_changes_nothing(self):
        a, b = _param([1.0, -2.0]), _param([3.0])
        opt = AdamW({"a": a, "b": b}, lr=0.1, weight_decay=0.01)
        a.grad = np.array([0.5, -0.25], dtype=np.float32)
        b.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        before = ([a.data.copy(), b.data.copy()], {n: m.copy() for n, m in opt.m.items()},
                  {n: v.copy() for n, v in opt.v.items()}, opt.t)
        a.grad = np.array([0.1, 0.2], dtype=np.float32)
        b.grad = np.array([np.nan], dtype=np.float32)
        with pytest.raises(FloatingPointError, match=r"'b' at optimizer step 2"):
            opt.step()
        params, m, v, t = before
        np.testing.assert_array_equal(a.data, params[0])
        np.testing.assert_array_equal(b.data, params[1])
        for n in ("a", "b"):
            np.testing.assert_array_equal(opt.m[n], m[n])
            np.testing.assert_array_equal(opt.v[n], v[n])
        assert opt.t == t == 1

    def test_deterministic(self):
        def run():
            w = _param([1.0, -2.0, 3.0])
            opt = AdamW({"w": w}, lr=1e-3, weight_decay=1e-4)
            for step in range(25):
                w.grad = (np.sin(np.arange(3) + step)).astype(np.float32)
                opt.step()
            return w.data.tobytes()

        assert run() == run()

    def test_state_round_trip(self):
        w = _param([1.0, 2.0])
        opt = AdamW({"w": w}, lr=1e-2, weight_decay=1e-4)
        for step in range(3):
            w.grad = np.array([0.1, -0.2], dtype=np.float32)
            opt.step()
        state = opt.state_arrays()
        w2 = _param([5.0, 6.0])
        opt2 = AdamW({"w": w2}, lr=1e-2, weight_decay=1e-4)
        opt2.load_state(state)
        assert opt2.t == 3
        np.testing.assert_array_equal(opt2.m["w"], opt.m["w"])
        np.testing.assert_array_equal(opt2.v["w"], opt.v["w"])


    def test_rejected_state_changes_nothing(self):
        # `t` and the first moment are fine, the second moment of "w" is not
        w = _param([1.0, 2.0])
        opt = AdamW({"w": w}, lr=1e-2, weight_decay=1e-4)
        state = {"m.w": np.ones(2, np.float32), "v.w": np.ones(3, np.float32),
                 "t": np.array([4.0], np.float32)}
        with pytest.raises(ValueError, match=r"^v\.w has shape \(3,\), expected \(2,\)$"):
            opt.load_state(state)
        assert opt.t == 0
        assert not opt.m["w"].any() and not opt.v["w"].any()


class TestClip:
    def test_scales_down_large_gradients(self):
        a, b = _param([3.0]), _param([4.0])
        a.grad = np.array([3.0], dtype=np.float32)
        b.grad = np.array([4.0], dtype=np.float32)
        norm = clip_global_norm({"a": a, "b": b}, max_norm=1.0)
        assert norm == pytest.approx(5.0)
        total = np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
        assert total == pytest.approx(1.0, rel=1e-5)

    def test_leaves_small_gradients(self):
        a = _param([1.0])
        a.grad = np.array([0.05], dtype=np.float32)
        clip_global_norm({"a": a}, max_norm=1.0)
        assert float(a.grad[0]) == pytest.approx(0.05)
