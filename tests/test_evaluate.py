import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queuecast.errors import EmptyInput, OneClassOnly
from queuecast.evaluate import (
    auc,
    auc_from_curve,
    imbalance_histogram,
    mean_squared_residual,
    null_model_report,
    null_scores,
    queue_survivor,
    roc_curve,
)

from oracles import pairwise_auc, survivor_by_counting


def roc_points(curve):
    return list(zip(curve.fpr.tolist(), curve.tpr.tolist()))


class TestRocCurve:
    def test_perfect_separation_passes_through_corner(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        curve = roc_curve(scores, labels)
        pts = roc_points(curve)
        assert pts[0] == (0.0, 0.0)
        assert (0.0, 1.0) in pts
        assert pts[-1] == (1.0, 1.0)
        assert auc_from_curve(curve) == 1.0

    def test_constant_scores_diagonal(self):
        curve = roc_curve(np.full(10, 0.5), np.array([1, 0] * 5))
        assert roc_points(curve) == [(0.0, 0.0), (1.0, 1.0)]

    def test_six_point_hand_enumeration(self):
        # scores sorted desc: 0.9(y1) 0.8(y0) 0.7(y1) 0.7(y1) 0.3(y0) 0.1(y0)
        scores = np.array([0.9, 0.8, 0.7, 0.7, 0.3, 0.1])
        labels = np.array([1, 0, 1, 1, 0, 0])
        curve = roc_curve(scores, labels)
        # thresholds after each distinct score: confusion counts by hand
        expected = [
            (0.0, 0.0),
            (0.0, 1 / 3),  # > 0.8 predicts pos: tp=1, fp=0
            (1 / 3, 1 / 3),  # >= 0.8: tp=1, fp=1
            (1 / 3, 1.0),  # >= 0.7: tp=3, fp=1
            (2 / 3, 1.0),  # >= 0.3
            (1.0, 1.0),  # >= 0.1
        ]
        assert roc_points(curve) == pytest.approx(expected)

    def test_monotone_coordinates(self):
        rng = np.random.default_rng(0)
        scores = rng.random(200).round(1)
        labels = rng.integers(0, 2, 200)
        curve = roc_curve(scores, labels)
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)
        assert np.all((curve.fpr >= 0) & (curve.fpr <= 1))

    def test_one_class_only(self):
        with pytest.raises(OneClassOnly):
            roc_curve(np.array([0.1, 0.2]), np.array([1, 1]))


class TestAuc:
    def test_perfect(self):
        assert auc(np.array([0.9, 0.1]), np.array([1, 0])) == 1.0

    def test_constant_half(self):
        assert auc(np.full(8, 0.5), np.array([1, 0, 1, 0, 1, 0, 1, 0])) == 0.5

    @pytest.mark.parametrize("seed", range(12))
    def test_trapezoid_equals_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 1000))
        # heavy ties: quantized scores
        scores = rng.random(n).round(int(rng.integers(0, 3)))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert auc(scores, labels) == pytest.approx(
            pairwise_auc(scores, labels), abs=1e-12
        )

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 1)), min_size=4, max_size=60
        )
    )
    @settings(max_examples=60)
    def test_pairwise_identity_property(self, rows):
        scores = np.array([r[0] for r in rows], dtype=float)
        labels = np.array([r[1] for r in rows])
        if labels.min() == labels.max():
            return
        assert auc(scores, labels) == pytest.approx(pairwise_auc(scores, labels), abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        scores = rng.random(300)
        labels = rng.integers(0, 2, 300)
        a = auc(scores, labels)
        assert auc(np.exp(3 * scores) + 1, labels) == pytest.approx(a, abs=1e-12)
        assert auc(np.arctan(scores), labels) == pytest.approx(a, abs=1e-12)

    def test_label_swap_maps_to_complement(self):
        rng = np.random.default_rng(2)
        scores = rng.random(200).round(1)
        labels = rng.integers(0, 2, 200)
        assert auc(scores, 1 - labels) == pytest.approx(1 - auc(scores, labels), abs=1e-12)

    def test_threshold_on_scores_equals_threshold_on_imbalance(self):
        # monotone score transforms leave the whole curve unchanged
        rng = np.random.default_rng(3)
        I = rng.uniform(-1, 1, 150)
        labels = rng.integers(0, 2, 150)
        scores = 1.0 / (1.0 + np.exp(-(0.1 + 2.0 * I)))
        ca = roc_curve(scores, labels)
        cb = roc_curve(I, labels)
        assert np.allclose(ca.fpr, cb.fpr) and np.allclose(ca.tpr, cb.tpr)


class TestMsr:
    def test_null_is_exactly_quarter(self):
        labels = np.array([1, 0, 0, 1, 1, 1, 0])
        assert mean_squared_residual(null_scores(7), labels) == 0.25

    def test_perfect_scores(self):
        y = np.array([1, 0, 1])
        assert mean_squared_residual(y.astype(float), y) == 0.0

    def test_single_worst_point(self):
        assert mean_squared_residual(np.array([1.0]), np.array([0])) == 1.0

    def test_empty(self):
        with pytest.raises(EmptyInput):
            mean_squared_residual(np.array([]), np.array([]))

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=500))
    @settings(max_examples=100)
    def test_null_msr_exact_for_any_labels(self, labels):
        y = np.array(labels)
        assert mean_squared_residual(null_scores(len(y)), y) == 0.25


class TestNullReport:
    def test_exact_values(self):
        labels = np.array([1, 0, 1, 1, 0, 0, 1, 0])
        rep = null_model_report(labels)
        assert rep.msr_in == 0.25 and rep.msr_out == 0.25
        assert rep.auc_in == 0.5 and rep.auc_out == 0.5
        assert rep.model_id == "null"

    def test_one_class_auc_none(self):
        rep = null_model_report(np.ones(5, dtype=int))
        assert rep.auc_in is None
        assert rep.msr_in == 0.25

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            null_model_report(np.array([], dtype=int))


class TestHistogram:
    def test_point_mass(self):
        edges, counts = imbalance_histogram(np.zeros(17), bins=20)
        assert counts.sum() == 17
        assert (counts > 0).sum() == 1

    def test_round_number_spike_at_one_third(self):
        # queues of 100 vs 200 shares in both arrangements
        nb = np.array([200, 100] * 50)
        na = np.array([100, 200] * 50)
        I = (nb - na) / (nb + na)
        edges, counts = imbalance_histogram(I, bins=201)
        idx = np.searchsorted(edges, 1 / 3, side="right") - 1
        assert counts[idx] == 50
        idx_neg = np.searchsorted(edges, -1 / 3, side="right") - 1
        assert counts[idx_neg] == 50

    def test_symmetric_data_symmetric_histogram(self):
        rng = np.random.default_rng(0)
        half = rng.uniform(0, 1, 4000)
        I = np.concatenate([half, -half])
        edges, counts = imbalance_histogram(I, bins=200)
        assert np.array_equal(counts, counts[::-1])

    def test_total_count(self):
        rng = np.random.default_rng(4)
        I = rng.uniform(-1, 1, 999)
        _, counts = imbalance_histogram(I)
        assert counts.sum() == 999

    def test_bins_validation(self):
        with pytest.raises(ValueError):
            imbalance_histogram(np.zeros(3), bins=1)


class TestSurvivor:
    def test_constant_length_step(self):
        values, surv = queue_survivor(np.full(9, 5))
        assert values.tolist() == [5]
        assert surv.tolist() == [0.0]

    def test_starts_at_one_below_min_and_nonincreasing(self):
        rng = np.random.default_rng(0)
        x = rng.integers(1, 50, 200)
        values, surv = queue_survivor(x)
        assert np.all(np.diff(surv) <= 0)
        assert surv[0] <= 1.0
        assert surv[-1] == 0.0
        # implied value below the smallest support point is 1 by convention
        assert np.mean(x > values[0] - 1) == 1.0

    def test_matches_sort_and_count_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.integers(0, 30, 100)
        values, surv = queue_survivor(x)
        ov, os_ = survivor_by_counting(x)
        assert np.array_equal(values, ov)
        assert np.allclose(surv, os_, atol=1e-15)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            queue_survivor(np.array([]))
