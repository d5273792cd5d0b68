"""AdamW semantics and gradient clipping."""

import numpy as np
import pytest

from mvdetr.backbone import FrozenBackbone
from mvdetr.config import parse_config
from mvdetr.optim import EPS, AdamW, clip_global_norm
from mvdetr.tensor import Tensor
from mvdetr.training import make_model, trainable_params

from helpers import PerTensorAdamW, per_tensor_clip


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

    @pytest.mark.parametrize("key,value,problem", [
        ("m.b", [np.nan], "m.b holds a non-finite value"),
        ("v.b", [np.inf], "v.b holds a non-finite value"),
        ("v.b", [-1.0], "v.b holds a negative value"),
    ], ids=["first_moment_nan", "second_moment_inf", "second_moment_negative"])
    def test_non_finite_or_negative_moment_changes_nothing(self, key, value, problem):
        a, b = _param([1.0, 2.0]), _param([3.0])
        opt = AdamW({"a": a, "b": b}, lr=1e-2, weight_decay=1e-4)
        a.grad = np.array([0.1, -0.2], dtype=np.float32)
        b.grad = np.array([0.3], dtype=np.float32)
        opt.step()
        state = opt.state_arrays()
        before = {k: v.copy() for k, v in state.items()}
        state = dict(state, **{"t": np.array([7.0], np.float32),
                               key: np.array(value, np.float32)})
        with pytest.raises(ValueError, match=rf"^{problem}$"):
            opt.load_state(state)
        assert opt.t == 1
        for k, v in opt.state_arrays().items():
            np.testing.assert_array_equal(v, before[k])


def _detr_with_class_head():
    cfg = parse_config("model.d_model=32\nmodel.heads=2\nmodel.enc_layers=1\n"
                       "model.dec_layers=1\nmodel.ffn_dim=32\n")
    model = make_model(cfg, FrozenBackbone(cfg.backbone_seed))
    model.add_class_head(cfg.data_classes, seed=3)
    return model


class TestFlatMatchesPerTensor:
    """The flat AdamW and clip against one update per parameter, on a Detr's
    parameters: every parameter, moment, `t` and clip norm to the bit."""

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    @pytest.mark.parametrize("frozen", [False, True], ids=["all", "frozen_transformer"])
    def test_steps_bit_equal(self, weight_decay, frozen):
        flat_params = trainable_params(_detr_with_class_head(), frozen)
        ref_params = trainable_params(_detr_with_class_head(), frozen)
        names = list(flat_params)
        opt = AdamW(flat_params, lr=1e-3, weight_decay=weight_decay)
        ref = PerTensorAdamW(ref_params, lr=1e-3, weight_decay=weight_decay)
        rng = np.random.default_rng(31)
        for step in range(24):
            for i, name in enumerate(names):
                # the last parameter never gets a gradient
                grad = (None if i == len(names) - 1 else
                        (rng.standard_normal(flat_params[name].data.shape)
                         * rng.uniform(1e-3, 3.0)).astype(np.float32))
                flat_params[name].grad = grad
                ref_params[name].grad = None if grad is None else grad.copy()
            max_norm = 0.5 if step % 2 else 1e9  # clipping engaged on odd steps
            norm = clip_global_norm(flat_params, max_norm)
            assert norm == per_tensor_clip(ref_params, max_norm)
            assert (norm > max_norm) == bool(step % 2)
            for name in names[:-1]:
                assert flat_params[name].grad.tobytes() == ref_params[name].grad.tobytes()
            opt.step()
            ref.step()
            if step == 11:  # a checkpoint round trip mid-run
                state = opt.state_arrays()
                opt = AdamW(flat_params, lr=1e-3, weight_decay=weight_decay)
                opt.load_state(state)
            assert opt.t == ref.t == step + 1
            for name in names:
                assert flat_params[name].data.tobytes() == ref_params[name].data.tobytes()
                assert opt.m[name].tobytes() == ref.m[name].tobytes()
                assert opt.v[name].tobytes() == ref.v[name].tobytes()

    def test_step_leaves_held_arrays_alone(self):
        params = _detr_with_class_head().params
        opt = AdamW(params, lr=1e-2, weight_decay=1e-4)
        for p in params.values():
            p.grad = np.ones_like(p.data)
        held = {n: p.data for n, p in params.items()}
        copies = {n: a.copy() for n, a in held.items()}
        opt.step()
        for n, p in params.items():
            assert p.data is not held[n]
            np.testing.assert_array_equal(held[n], copies[n])

    def test_needs_parameters_of_one_dtype(self):
        params = {"a": _param([1.0]), "b": Tensor(np.ones(2), requires_grad=True)}
        with pytest.raises(ValueError, match=r"one dtype, got \['float32', 'float64'\]"):
            AdamW(params, lr=1e-2, weight_decay=0.0)


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
