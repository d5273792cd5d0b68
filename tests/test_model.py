"""Transformer: attention semantics, reductions, equivariances, gradients."""

import math

import numpy as np
import pytest

from mvdetr import tensor as T
from mvdetr.model import Detr, TransformerConfig, sine_positional_embedding
from mvdetr.tensor import Tensor

from helpers import composed_attention, numerical_gradient


def tiny_config(**kw):
    base = dict(d_model=8, heads=2, enc_layers=1, dec_layers=1, ffn_dim=8,
                n_queries=2, in_channels=8, sem_dim=8)
    base.update(kw)
    return TransformerConfig(**base)


def desk_config(**kw):
    base = dict(d_model=64, heads=4, enc_layers=2, dec_layers=2, ffn_dim=128,
                n_queries=10, in_channels=64, sem_dim=64)
    base.update(kw)
    return TransformerConfig(**base)


def _set_identity_attention(model, prefix):
    c = model.config.d_model
    eye = np.eye(c, dtype=model.dtype)
    for part in ("f_q", "f_k", "f_v", "out"):
        model.params[f"{prefix}.{part}.weight"].data = eye.copy()
        model.params[f"{prefix}.{part}.bias"].data = np.zeros(c, dtype=model.dtype)


class TestMha:
    def test_single_key_ignores_query(self):
        model = Detr(tiny_config(), seed=0)
        k = Tensor(np.random.default_rng(0).standard_normal((1, 1, 8)).astype(np.float32))
        out1, attn = model.mha("encoder.layer0.self",
                               Tensor(np.zeros((1, 3, 8), np.float32)), k, k)
        out2, _ = model.mha("encoder.layer0.self",
                            Tensor(np.ones((1, 3, 8), np.float32) * 5), k, k)
        np.testing.assert_allclose(out1.data, out2.data, atol=1e-6)
        np.testing.assert_allclose(attn.data, 1.0)

    def test_identical_keys_average_values(self):
        cfg = tiny_config(heads=1)
        model = Detr(cfg, seed=1)
        _set_identity_attention(model, "encoder.layer0.self")
        key = np.ones((1, 1, 8), dtype=np.float32)
        keys = Tensor(np.repeat(key, 2, axis=1))
        vals = Tensor(np.array([[[1, 0, 0, 0, 0, 0, 0, 0],
                                 [0, 1, 0, 0, 0, 0, 0, 0]]], dtype=np.float32))
        q = Tensor(np.ones((1, 1, 8), dtype=np.float32))
        out, attn = model.mha("encoder.layer0.self", q, keys, vals)
        np.testing.assert_allclose(attn.data, 0.5, atol=1e-7)
        np.testing.assert_allclose(out.data[0, 0, :2], [0.5, 0.5], atol=1e-6)

    def test_hand_computed_two_dim(self):
        cfg = TransformerConfig(d_model=4, heads=1, enc_layers=1, dec_layers=1,
                                ffn_dim=4, n_queries=1, in_channels=4, sem_dim=4)
        model = Detr(cfg, seed=2)
        _set_identity_attention(model, "encoder.layer0.self")
        q = np.array([[1.0, 0.0, 0.0, 0.0]], dtype=np.float32)
        k = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]], dtype=np.float32)
        v = np.array([[2.0, 0.0, 0.0, 0.0], [0.0, 3.0, 0.0, 0.0]], dtype=np.float32)
        out, attn = model.mha("encoder.layer0.self",
                              Tensor(q[None]), Tensor(k[None]), Tensor(v[None]))
        # manual: logits = [1, 0] / sqrt(4) = [0.5, 0]; softmax -> weights
        w = np.exp([0.5, 0.0])
        w = w / w.sum()
        expected = w[0] * v[0] + w[1] * v[1]
        np.testing.assert_allclose(attn.data[0, 0, 0], w, atol=1e-5)
        np.testing.assert_allclose(out.data[0, 0], expected, atol=1e-5)

    def test_dim_mismatch(self):
        model = Detr(tiny_config(), seed=0)
        with pytest.raises(T.ShapeError):
            model.mha("encoder.layer0.self", Tensor(np.zeros((1, 2, 5))),
                      Tensor(np.zeros((1, 3, 8))), Tensor(np.zeros((1, 3, 8))))

    def test_attention_rows_sum_to_one(self):
        model = Detr(desk_config(), seed=3)
        rng = np.random.default_rng(4)
        q = Tensor(rng.standard_normal((1, 5, 64)).astype(np.float32))
        kv = Tensor(rng.standard_normal((1, 12, 64)).astype(np.float32))
        _, attn = model.mha("decoder.layer0.cross", q, kv, kv)
        np.testing.assert_allclose(attn.data.sum(axis=-1), 1.0, atol=1e-6)


def composed_mha(model, prefix, q_in, k_in, v_in):
    """Reference: Detr.mha with attention built from generic tape nodes."""
    merged, attn = composed_attention(model._lin(f"{prefix}.f_q", q_in),
                                      model._lin(f"{prefix}.f_k", k_in),
                                      model._lin(f"{prefix}.f_v", v_in), model.config.heads)
    return model._lin(f"{prefix}.out", merged), attn


class TestMhaMatchesComposed:
    """The fused attention path gives the composed path's bits, gradients included."""

    def _run(self, mha, model, prefix, arrays, shared_qk, w):
        model.zero_grads()
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        q_in = leaves[0]
        k_in = q_in if shared_qk else leaves[1]
        v_in = leaves[-1]
        out, attn = mha(model, prefix, q_in, k_in, v_in)
        T.tsum(T.mul(out, Tensor(w))).backward()
        grads = [leaf.grad for leaf in leaves]
        grads += [p.grad for n, p in model.params.items() if n.startswith(prefix + ".")]
        return out.data, attn.data, grads

    @pytest.mark.parametrize("prefix,batch,nq,shared_qk", [
        ("encoder.layer0.self", (2,), 64, True),
        ("decoder.layer0.cross", (2,), 10, False),
        ("decoder.layer0.cross", (1,), 10, False),
    ], ids=["encoder_batched", "decoder_batched", "decoder_single"])
    def test_bit_identical(self, prefix, batch, nq, shared_qk):
        model = Detr(desk_config(), seed=41)
        rng = np.random.default_rng(42)
        q = rng.standard_normal(batch + (nq, 64)).astype(np.float32)
        kv = [rng.standard_normal(batch + (64, 64)).astype(np.float32) for _ in range(2)]
        arrays = [q, kv[1]] if shared_qk else [q] + kv
        w = rng.standard_normal(batch + (nq, 64)).astype(np.float32)
        fused = self._run(Detr.mha, model, prefix, arrays, shared_qk, w)
        ref = self._run(composed_mha, model, prefix, arrays, shared_qk, w)
        np.testing.assert_array_equal(fused[0], ref[0])
        np.testing.assert_array_equal(fused[1], ref[1])
        assert len(fused[2]) == len(ref[2]) == len(arrays) + 8
        for gf, gr in zip(fused[2], ref[2]):
            np.testing.assert_array_equal(gf, gr)

    def test_batched_call_records_five_tape_nodes(self, monkeypatch):
        model = Detr(desk_config(), seed=43)
        x = Tensor(np.random.default_rng(44).standard_normal((2, 16, 64)).astype(np.float32),
                   requires_grad=True)
        ops = []
        make = T._make

        def counting_make(data, parents, op, backward_fn):
            ops.append(op)
            return make(data, parents, op, backward_fn)

        monkeypatch.setattr(T, "_make", counting_make)
        model.mha("encoder.layer0.self", x, x, x)
        assert ops == ["affine"] * 3 + ["attention", "affine"]

    def test_weights_read_only(self):
        model = Detr(desk_config(), seed=45)
        rng = np.random.default_rng(46)
        kv = Tensor(rng.standard_normal((2, 12, 64)).astype(np.float32))
        q = Tensor(rng.standard_normal((2, 5, 64)).astype(np.float32))
        _, attn = model.mha("decoder.layer0.cross", q, kv, kv)
        kv0 = Tensor(kv.data[:1])
        _, attn_single = model.mha("decoder.layer0.cross", Tensor(q.data[:1]), kv0, kv0)
        c, hw = model.encode(Tensor(rng.standard_normal((2, 4, 4, 64)).astype(np.float32)))
        _, attn_dec = model.decode(c, hw)
        for weights in (attn, attn_single, attn_dec):
            with pytest.raises(ValueError):
                weights.data[..., 0] = 0.0


class TestEncode:
    def test_output_shape(self):
        model = Detr(desk_config(), seed=5)
        h = Tensor(np.random.default_rng(6).standard_normal((1, 16, 16, 64)).astype(np.float32))
        c, hw = model.encode(h)
        assert c.data.shape == (1, 256, 64)
        assert hw == (16, 16)

    def test_unbatched_features_rejected(self):
        model = Detr(desk_config(), seed=5)
        h = Tensor(np.zeros((16, 16, 64), np.float32))
        with pytest.raises(T.ShapeError, match=r"\(B, H, W, C\)"):
            model.encode(h)

    def test_zero_layers_reduces_to_projection(self):
        model = Detr(desk_config(enc_layers=0), seed=7)
        h = Tensor(np.random.default_rng(8).standard_normal((1, 4, 4, 64)).astype(np.float32))
        c, _ = model.encode(h)
        expected = T.affine(T.reshape(h, (1, 16, 64)), model.params["input_proj.weight"],
                            model.params["input_proj.bias"])
        np.testing.assert_array_equal(c.data, expected.data)

    def test_joint_permutation_equivariance(self, monkeypatch):
        model = Detr(desk_config(enc_layers=2), seed=9)
        rng = np.random.default_rng(10)
        h = rng.standard_normal((1, 4, 4, 64)).astype(np.float32)
        pos = model.positional(4, 4)
        perm = rng.permutation(16)
        c_base, _ = model.encode(Tensor(h))
        h_perm = h.reshape(16, 64)[perm].reshape(1, 4, 4, 64)
        # permute the embedding table along with the positions
        monkeypatch.setattr(model, "positional", lambda hh, ww: pos[perm])
        c_perm, _ = model.encode(Tensor(h_perm))
        np.testing.assert_allclose(c_perm.data, c_base.data[:, perm], atol=2e-5)


class TestDecode:
    def test_zero_region_features_bitwise_equal_plain(self):
        model = Detr(desk_config(), seed=11)
        rng = np.random.default_rng(12)
        h = Tensor(rng.standard_normal((1, 8, 8, 64)).astype(np.float32))
        c, hw = model.encode(h)
        q_plain, _ = model.decode(c, hw, z=None)
        q_zero, _ = model.decode(c, hw, z=Tensor(np.zeros((1, 10, 64), np.float32)))
        assert q_plain.data.tobytes() == q_zero.data.tobytes()

    def test_shapes(self):
        model = Detr(desk_config(), seed=13)
        rng = np.random.default_rng(14)
        c, hw = model.encode(Tensor(rng.standard_normal((1, 16, 16, 64)).astype(np.float32)))
        z = Tensor(rng.standard_normal((1, 10, 64)).astype(np.float32))
        q_hat, attn = model.decode(c, hw, z=z)
        assert q_hat.data.shape == (1, 10, 64)
        assert attn.data.shape == (1, 4, 10, 256)
        np.testing.assert_allclose(attn.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_region_feature_count_must_match_queries(self):
        model = Detr(desk_config(), seed=15)
        rng = np.random.default_rng(16)
        c, hw = model.encode(Tensor(rng.standard_normal((1, 8, 8, 64)).astype(np.float32)))
        with pytest.raises(T.ShapeError):
            model.decode(c, hw, z=Tensor(np.zeros((1, 7, 64), np.float32)))

    def test_unbatched_region_features_rejected(self):
        model = Detr(desk_config(), seed=15)
        rng = np.random.default_rng(16)
        c, hw = model.encode(Tensor(rng.standard_normal((1, 8, 8, 64)).astype(np.float32)))
        with pytest.raises(T.ShapeError, match=r"\(B, 10, C\)"):
            model.decode(c, hw, z=Tensor(np.zeros((10, 64), np.float32)))

    def test_joint_row_permutation_equivariance(self):
        model = Detr(desk_config(), seed=17)
        rng = np.random.default_rng(18)
        c, hw = model.encode(Tensor(rng.standard_normal((1, 8, 8, 64)).astype(np.float32)))
        z = rng.standard_normal((1, 10, 64)).astype(np.float32)
        q_base, _ = model.decode(c, hw, z=Tensor(z))
        perm = rng.permutation(10)
        phi = model.params["query_embed.weight"]
        original = phi.data.copy()
        phi.data = original[perm]
        q_perm, _ = model.decode(c, hw, z=Tensor(z[:, perm]))
        phi.data = original
        np.testing.assert_allclose(q_perm.data, q_base.data[:, perm], atol=2e-5)


class TestHeads:
    def test_zeroed_box_head_centers(self):
        model = Detr(desk_config(), seed=19)
        model.params["head.box.fc2.weight"].data[:] = 0
        model.params["head.box.fc2.bias"].data[:] = 0
        boxes, _, _ = model.predict(Tensor(np.random.default_rng(20)
                                           .standard_normal((10, 64)).astype(np.float32)))
        np.testing.assert_allclose(boxes.data, 0.5, atol=1e-7)

    def test_shapes_and_ranges(self):
        model = Detr(desk_config(), seed=21)
        q = Tensor(np.random.default_rng(22).standard_normal((10, 64)).astype(np.float32))
        boxes, sem, match = model.predict(q)
        assert boxes.data.shape == (10, 4) and sem.data.shape == (10, 64)
        assert match.data.shape == (10, 1)
        assert ((boxes.data > 0) & (boxes.data < 1)).all()
        assert ((match.data > 0) & (match.data < 1)).all()

    def test_gradients_reach_queries_from_all_heads(self):
        model = Detr(desk_config(), seed=23)
        rng = np.random.default_rng(24)
        c, hw = model.encode(Tensor(rng.standard_normal((1, 8, 8, 64)).astype(np.float32)))
        z = Tensor(rng.standard_normal((1, 10, 64)).astype(np.float32))
        q_hat, _ = model.decode(c, hw, z=z)
        boxes, sem, match = model.predict(q_hat)
        loss = T.add(T.add(T.tsum(boxes), T.tsum(sem)), T.tsum(match))
        loss.backward()
        phi = model.params["query_embed.weight"]
        assert phi.grad is not None and float(np.abs(phi.grad).max()) > 0

    def test_class_head_requires_init(self):
        model = Detr(desk_config(), seed=25)
        with pytest.raises(KeyError):
            model.class_logits(Tensor(np.zeros((10, 64), np.float32)))
        model.add_class_head(3, seed=1)
        logits = model.class_logits(Tensor(np.zeros((10, 64), np.float32)))
        assert logits.data.shape == (10, 4)


class TestProjector:
    def test_output_dim(self):
        model = Detr(desk_config(), seed=28)
        x = Tensor(np.random.default_rng(29).standard_normal((4, 64)).astype(np.float32))
        assert model.project_context(x).data.shape == (4, 64)

    def test_batch_one_rejected(self):
        model = Detr(desk_config(), seed=30)
        with pytest.raises(T.ShapeError):
            model.project_context(Tensor(np.ones((1, 64), np.float32)))


class TestPositional:
    def test_deterministic(self):
        a = sine_positional_embedding(5, 7, 64)
        b = sine_positional_embedding(5, 7, 64)
        assert a.tobytes() == b.tobytes()
        assert a.shape == (35, 64)

    def test_distinct_positions(self):
        pe = sine_positional_embedding(4, 4, 64)
        dists = np.linalg.norm(pe[:, None] - pe[None, :], axis=-1)
        np.fill_diagonal(dists, np.inf)
        assert dists.min() > 1e-3


class TestEndToEndGradient:
    def test_tiny_model_finite_differences(self):
        """Full-model gradcheck in float64, every parameter covered.

        h=1e-6: at larger steps the perturbation, amplified through the
        attention stack, straddles relu kinks and the truncation error of
        this composition exceeds the tolerance even for exact gradients (the
        FD error shrinks as h^2, confirming larger-h failures are
        discretization, not backward bugs). float64 keeps roundoff ~1e-9.
        """
        rng = np.random.default_rng(31)
        for trial in range(3):
            model = Detr(tiny_config(), seed=100 + trial, dtype=np.float64)
            h = rng.standard_normal((1, 2, 2, 8))
            z = rng.standard_normal((1, 2, 8))
            w = rng.standard_normal((1, 2, 4))

            def forward() -> T.Tensor:
                c, hw = model.encode(Tensor(h))
                q_hat, _ = model.decode(c, hw, z=Tensor(z))
                boxes, sem, match = model.predict(q_hat)
                return T.add(T.add(T.tsum(T.mul(boxes, Tensor(w))), T.tmean(sem)),
                             T.tsum(match))

            loss = forward()
            loss.backward()
            names = list(model.params)
            analytic = {n: (model.params[n].grad.copy()
                            if model.params[n].grad is not None
                            else np.zeros_like(model.params[n].data))
                        for n in names}

            def loss_with(arrs):
                for n, a in zip(names, arrs):
                    model.params[n].data = a
                return float(forward().data)

            arrays = [model.params[n].data for n in names]
            numeric = numerical_gradient(loss_with, arrays, h=1e-6)
            for n, gn in zip(names, numeric):
                ga = analytic[n]
                denom = max(1e-6, float(np.abs(gn).max()), float(np.abs(ga).max()))
                err = float(np.abs(ga - gn).max()) / denom
                assert err < 1e-3, f"{n}: rel err {err:.2e} (trial {trial})"
