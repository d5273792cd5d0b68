"""Matching and losses: brute-force Hungarian oracle, cost formulas, identities."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvdetr import losses as L
from mvdetr import tensor as T
from mvdetr.tensor import Tensor

from helpers import Box, box_giou


def brute_force_assignment(cost):
    """Enumerate all injective row->column maps; return (best cost, best map)."""
    m, n = cost.shape
    best_cost, best = math.inf, None
    for perm in itertools.permutations(range(n), m):
        c = sum(cost[i, j] for i, j in enumerate(perm))
        if c < best_cost - 1e-12 or (abs(c - best_cost) <= 1e-12 and perm < best):
            best_cost, best = c, perm
    return best_cost, best


class TestHungarian:
    def test_single_cell(self):
        a = L.hungarian([[0.0]])
        assert a == (0,)

    def test_two_by_two(self):
        a = L.hungarian([[1.0, 2.0], [2.0, 1.0]])
        assert a == (0, 1)

    def test_three_by_three(self):
        a = L.hungarian([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
        assert a == (1, 0, 2)
        cost = np.array([[4.0, 1, 3], [2, 0, 5], [3, 2, 2]])
        assert cost[np.arange(3), list(a)].sum() == 5.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(m, 7))
            cost = rng.uniform(0, 10, size=(m, n))
            oracle_cost, _ = brute_force_assignment(cost)
            a = L.hungarian(cost)
            assert len(a) == m and len(set(a)) == m  # one distinct column per row
            got = float(cost[np.arange(m), list(a)].sum())
            assert got == pytest.approx(oracle_cost, abs=1e-9)

    def test_lexicographic_tie_break(self):
        # all-equal costs: every assignment optimal; smallest vector wins
        a = L.hungarian(np.ones((3, 5)))
        assert a == (0, 1, 2)
        # a tie between (0->0, 1->1) and (0->1, 1->0)
        a = L.hungarian([[1.0, 1.0], [1.0, 1.0]])
        assert a == (0, 1)

    def test_lexicographic_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(m, 6))
            cost = rng.integers(0, 4, size=(m, n)).astype(float)  # many ties
            _, oracle = brute_force_assignment(cost)
            assert L.hungarian(cost) == oracle

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(2)
        cost = rng.uniform(0, 1, (5, 7))
        assert L.hungarian(cost) == L.hungarian(cost)

    def test_row_constant_shift_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50)        :
            cost = rng.uniform(0, 5, (4, 6))
            base = L.hungarian(cost)
            shifted = cost.copy()
            shifted[2] += 3.7
            assert L.hungarian(shifted) == base

    def test_more_targets_than_predictions_rejected(self):
        with pytest.raises(ValueError):
            L.hungarian(np.zeros((3, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            L.hungarian(np.array([[1.0, np.inf]]))


@st.composite
def tie_heavy_costs(draw, square: bool):
    """Small integer cost matrices from {0, .., 3}: most have several optima."""
    m = draw(st.integers(1, 5))
    n = m if square else draw(st.integers(m + 1, 6))
    cells = draw(st.lists(st.integers(0, 3), min_size=m * n, max_size=m * n))
    return np.array(cells, dtype=np.float64).reshape(m, n)


class TestHungarianProperties:
    """hungarian equals the brute-force lexicographic optimum and solves one LAP."""

    @pytest.mark.parametrize("square", [True, False], ids=["square", "rectangular"])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_lexicographic_optimum(self, square, data):
        cost = data.draw(tie_heavy_costs(square))
        best_cost, oracle = brute_force_assignment(cost)
        got = L.hungarian(cost)
        assert got == oracle
        assert cost[np.arange(len(got)), list(got)].sum() == best_cost

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(cost=st.one_of(tie_heavy_costs(True), tie_heavy_costs(False)))
    def test_one_lap_solve_per_match(self, cost):
        with mock.patch.object(L, "_solve_lap", wraps=L._solve_lap) as solve:
            L.hungarian(cost)
        assert solve.call_count == 1


class TestMatchedRows:
    def test_rows_are_per_item_assignments_item_then_target(self):
        rng = np.random.default_rng(17)
        n_pred = 5
        costs = [rng.random((3, n_pred)), np.zeros((0, n_pred)), rng.random((5, n_pred)),
                 rng.random((1, n_pred))]
        rows = L.matched_rows(costs, n_pred)
        assert rows.dtype == np.int64
        # the empty item 1 adds no row, so item 2's rows follow item 0's
        assert len(rows) == 3 + 0 + 5 + 1
        assert rows[:3].tolist() == list(L.hungarian(costs[0]))
        assert rows[3:8].tolist() == [2 * n_pred + j
                                      for j in L.hungarian(costs[2])]
        assert rows[8:].tolist() == [3 * n_pred + j
                                     for j in L.hungarian(costs[3])]

    def test_only_empty_items_give_no_rows(self):
        rows = L.matched_rows([np.zeros((0, 4)), np.zeros((0, 4))], 4)
        assert rows.dtype == np.int64 and rows.shape == (0,)


class TestMatchingCost:
    def test_perfect_box_half_score(self):
        b = np.array([[0.5, 0.5, 0.2, 0.3]])
        cost = L.matching_cost(b, np.array([0.5]), b)
        assert cost[0, 0] == pytest.approx(-math.log(0.5), abs=1e-6)

    def test_confident_perfect_goes_to_zero(self):
        b = np.array([[0.4, 0.6, 0.1, 0.1]])
        cost = L.matching_cost(b, np.array([1.0 - 1e-9]), b)
        assert cost[0, 0] == pytest.approx(0.0, abs=1e-5)

    def test_coefficients(self):
        assert L.MATCH_COEF == (1.0, 2.0, 5.0)

    def test_giou_term_against_geometry_oracle(self):
        pred = np.array([[0.5, 0.5, 0.4, 0.4]])
        tgt = np.array([[0.3, 0.3, 0.2, 0.2]])
        cost = L.matching_cost(pred, np.array([0.5]), tgt)
        g = box_giou(Box(0.3, 0.3, 0.7, 0.7), Box(0.2, 0.2, 0.4, 0.4))
        l1 = float(np.abs(pred - tgt).sum())
        expected = -math.log(0.5) + 2 * (1 - g) + 5 * l1
        assert cost[0, 0] == pytest.approx(expected, abs=1e-6)

    def test_clamps_extreme_scores(self):
        b = np.array([[0.5, 0.5, 0.2, 0.2]])
        cost = L.matching_cost(b, np.array([0.0]), b)
        assert np.isfinite(cost).all()


class TestLocLoss:
    def test_perfect_predictions_near_zero(self):
        boxes = np.array([[0.5, 0.5, 0.2, 0.2], [0.3, 0.7, 0.1, 0.2]], dtype=np.float32)
        pred = Tensor(boxes)
        match = Tensor(np.full((2, 1), 1.0 - 1e-7, dtype=np.float32))
        loss = T.add(L.box_regression(pred, [0, 1], boxes),
                     L.match_bce(match, np.ones((2, 1))))
        assert float(loss.data) < 1e-4

    def test_l1_term_value(self):
        # single pair: pred (0.5,0.5,0.4,0.4), target (0.5,0.5,0.2,0.2)
        pred = Tensor(np.array([[0.5, 0.5, 0.4, 0.4]], dtype=np.float32))
        tgt = np.array([[0.5, 0.5, 0.2, 0.2]], dtype=np.float32)
        reg = L.box_regression(pred, [0], tgt)
        g = box_giou(Box(0.3, 0.3, 0.7, 0.7), Box(0.4, 0.4, 0.6, 0.6))
        expected = 2 * (1 - g) + 5 * 0.4
        assert float(reg.data) == pytest.approx(expected, abs=1e-5)

    def test_unmatched_queries_supervised_via_bce_only(self):
        k = Tensor(np.array([[0.8], [0.2]], dtype=np.float32))
        bce = L.match_bce(k, np.array([[1.0], [0.0]]))
        expected = -(math.log(0.8) + math.log(0.8)) / 2
        assert float(bce.data) == pytest.approx(expected, abs=1e-5)

    def test_zero_matches_rejected(self):
        with pytest.raises(ValueError):
            L.box_regression(Tensor(np.zeros((2, 4), np.float32)), [],
                             np.zeros((0, 4)))


class TestGlobalDisc:
    def test_identity_projector_identical_contexts(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 8)).astype(np.float32))
        loss = L.global_disc_loss(lambda t: t, x, x)
        assert float(loss.data) == pytest.approx(-2.0, abs=1e-5)

    def test_orthogonal_contexts(self):
        a = Tensor(np.array([[1.0, 0.0]], dtype=np.float32))
        b = Tensor(np.array([[0.0, 1.0]], dtype=np.float32))
        loss = L.global_disc_loss(lambda t: t, a, b)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-6)

    def test_detached_branch_gets_no_gradient(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.standard_normal((2, 8)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 8)).astype(np.float32), requires_grad=True)
        # only the projected branch of each term should carry gradient
        loss = L.global_disc_loss(lambda t: T.mul(t, Tensor(np.float32(2.0))), a, b)
        loss.backward()
        assert a.grad is not None and b.grad is not None
        ga_live = a.grad.copy()
        # recompute with the a-live term only: detach(b) contributes zero grad to b
        a.grad = b.grad = None
        lone = T.tmean(T.cosine(T.mul(a, Tensor(np.float32(2.0))), b.detach()))
        lone.backward()
        assert b.grad is None


class TestRegionDisc:
    def test_proportional_features_zero(self):
        p = np.random.default_rng(2).standard_normal((3, 8)).astype(np.float32)
        pred = Tensor(2.5 * p)
        loss = L.region_disc(pred, [0, 1, 2], p)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-6)

    def test_antipodal_features_four(self):
        p = np.random.default_rng(3).standard_normal((2, 8)).astype(np.float32)
        loss = L.region_disc(Tensor(-p), [0, 1], p)
        assert float(loss.data) == pytest.approx(4.0, abs=1e-5)

    def test_equals_two_minus_two_cos(self):
        rng = np.random.default_rng(4)
        pred = rng.standard_normal((4, 16)).astype(np.float32)
        tgt = rng.standard_normal((4, 16)).astype(np.float32)
        rows = [2, 0, 3, 1]
        loss = L.region_disc(Tensor(pred), rows, tgt)
        cs = [float(T.cosine(Tensor(pred[j]), Tensor(tgt[i])).data)
              for i, j in enumerate(rows)]
        expected = np.mean([2 - 2 * c for c in cs])
        assert float(loss.data) == pytest.approx(expected, abs=1e-6)

    def test_zero_norm_target_rejected(self):
        tgt = np.zeros((1, 4))
        with pytest.raises(ValueError):
            L.region_disc(Tensor(np.ones((1, 4), np.float32)), [0], tgt)


class TestTotalLoss:
    """The weighted sum pretrain_step forms from its three terms, with each
    term's loss function standing in a fixed value while keeping its graph."""

    @staticmethod
    def _step(monkeypatch, lambdas, loc, g, r):
        from mvdetr import training as TR
        from mvdetr.backbone import FrozenBackbone
        from mvdetr.config import parse_config
        from mvdetr.data import SceneSpec, render_scene
        from mvdetr.optim import AdamW
        from mvdetr.views import build_view_pair

        lam_r, lam_g, lam_loc = lambdas
        cfg = parse_config("\n".join([
            "view.size=64", "view.n=4", "model.d_model=16", "model.heads=2",
            "model.enc_layers=1", "model.dec_layers=1", "model.ffn_dim=16",
            f"loss.lambda_r={lam_r}", f"loss.lambda_g={lam_g}",
            f"loss.lambda_loc={lam_loc}"]))

        def stand_in(fn, value):
            zero, v = Tensor(np.float32(0.0)), Tensor(np.float32(value))
            return lambda *args: T.add(T.mul(fn(*args), zero), v)

        # loc = 2 (box_regression + match_bce), region = 2 region_disc
        monkeypatch.setattr(L, "box_regression", stand_in(L.box_regression, loc / 4))
        monkeypatch.setattr(L, "match_bce", stand_in(L.match_bce, loc / 4))
        monkeypatch.setattr(L, "global_disc_loss", stand_in(L.global_disc_loss, g))
        monkeypatch.setattr(L, "region_disc", stand_in(L.region_disc, r / 2))
        spec = SceneSpec(image_size=96, seed=40)
        # two pairs: the global term's projector batch-normalises over items
        pairs = [build_view_pair(render_scene(spec, i)[0], cfg, cfg.seed + i)
                 for i in range(2)]
        backbone = FrozenBackbone(cfg.backbone_seed)
        model = TR.make_model(cfg, backbone)
        opt = AdamW(model.params, lr=0.0, weight_decay=1e-4)
        return TR.pretrain_step(model, backbone, opt, pairs, cfg)

    def test_weighted_sum(self, monkeypatch):
        lam_r, lam_g, lam_loc = 0.3, 3.0, 1.0
        bd = self._step(monkeypatch, (lam_r, lam_g, lam_loc), 1.0, 1.0, 1.0)
        assert (bd.loc, bd.global_disc, bd.region_disc) == (1.0, 1.0, 1.0)
        assert bd.total == pytest.approx(4.3, abs=1e-6)
        assert bd.total == pytest.approx(
            lam_r * bd.region_disc + lam_g * bd.global_disc + lam_loc * bd.loc, abs=1e-6)

    def test_loc_only_configuration(self, monkeypatch):
        bd = self._step(monkeypatch, (0.0, 0.0, 1.0), 2.5, 7.0, 9.0)
        assert bd.total == pytest.approx(2.5, abs=1e-6)
        assert bd.global_disc == 0.0 and bd.region_disc == 0.0


def _set_assignment(logits, boxes, tgt_boxes, labels):
    """The matching set_loss makes for one image, from the same two calls."""
    return L.hungarian(L.finetune_matching_cost(boxes, T.softmax(Tensor(logits)).data,
                                                tgt_boxes, labels))


class TestFinetuneLoss:
    def test_perfect_predictions_small_loss(self):
        tgt_boxes = np.array([[0.5, 0.5, 0.2, 0.2], [0.2, 0.8, 0.1, 0.1]], dtype=np.float32)
        labels = np.array([0, 2])
        logits = np.full((4, 4), -20.0, dtype=np.float32)
        logits[:, 3] = 20.0          # default: confident no-object
        logits[0] = [20, -20, -20, -20]
        logits[1] = [-20, -20, 20, -20]
        boxes = np.tile(np.array([[0.9, 0.9, 0.05, 0.05]], dtype=np.float32), (4, 1))
        boxes[0] = tgt_boxes[0]
        boxes[1] = tgt_boxes[1]
        loss = L.set_loss(Tensor(logits[None]), Tensor(boxes[None]), [(tgt_boxes, labels)])
        a = _set_assignment(logits, boxes, tgt_boxes, labels)
        assert a == (0, 1)
        assert float(loss.data) < 0.01

    def test_empty_targets_uniform_logits(self):
        logits = np.zeros((1, 5, 4), dtype=np.float32)
        boxes = np.full((1, 5, 4), 0.5, dtype=np.float32)
        empty = (np.zeros((0, 4)), np.zeros(0, dtype=np.int64))
        loss = L.set_loss(Tensor(logits), Tensor(boxes), [empty])
        a = _set_assignment(logits[0], boxes[0], *empty)
        assert len(a) == 0
        assert float(loss.data) == pytest.approx(0.1 * math.log(4), abs=1e-6)

    def test_identical_boxes_assign_by_class_probability(self):
        # two queries at the same box; class confidence decides the match
        tgt_boxes = np.array([[0.5, 0.5, 0.2, 0.2]], dtype=np.float32)
        labels = np.array([1])
        logits = np.zeros((2, 3), dtype=np.float32)
        logits[1, 1] = 5.0  # query 1 confident in class 1
        boxes = np.tile(tgt_boxes, (2, 1))
        a = _set_assignment(logits, boxes, tgt_boxes, labels)
        assert a == (1,)
