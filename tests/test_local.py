import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queuecast.errors import NumericalError
from queuecast.local import (
    _radii,
    cv_bandwidth,
    default_grid,
    fit_local_logistic,
    predict_local,
)
from queuecast.logistic import fit_logistic, predict_logistic, sigmoid

from oracles import weighted_grid_search_logistic


def sigmoid_data(rng, n, x0, x1):
    I = rng.uniform(-1.0, 1.0, n)
    p = 1.0 / (1.0 + np.exp(-(x0 + x1 * I)))
    y = (rng.random(n) < p).astype(int)
    return I, y


class TestFitLocal:
    def test_paired_complement_symmetric_data(self):
        rng = np.random.default_rng(0)
        base = rng.uniform(-1, 1, 60)
        I = np.repeat(base, 2)
        y = np.tile([1, 0], 60)
        fit = fit_local_logistic(I, y, alpha=0.4, grid=default_grid(41))
        assert np.all(fit.fitted == 0.5)
        assert not fit.degenerate.any()

    def test_all_ones_weights_equals_global(self):
        rng = np.random.default_rng(5)
        I, y = sigmoid_data(rng, 1500, x0=0.1, x1=2.0)
        glob = fit_logistic(I, y)
        loc = fit_local_logistic(I, y, alpha=1.0, all_weights_one=True)
        expect = predict_logistic(glob, loc.grid)
        assert np.max(np.abs(loc.fitted - expect)) < 1e-8

    def test_hand_picked_neighbourhood_matches_weighted_grid_search(self):
        # 12 points, alpha = 1: the kernel spans the full sample with the
        # radius set by the farthest point (which gets weight zero)
        I = np.array([-0.9, -0.7, -0.55, -0.3, -0.2, -0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.85])
        y = np.array([0, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1, 1])
        g = 0.05
        fit = fit_local_logistic(I, y, alpha=1.0, grid=np.array([g]))
        d = np.abs(I - g)
        h = np.max(d)
        w = np.where(d < h, (1 - (d / h) ** 3) ** 3, 0.0)
        b0, b1 = weighted_grid_search_logistic(
            I - g, y, w, b0_range=(-2.0, 2.0), b1_range=(0.0, 6.0)
        )
        assert abs(fit.fitted[0] - sigmoid(b0)) < 1e-3

    def test_heavily_tied_imbalance_matches_weighted_grid_search(self):
        # I on a quarter-step lattice: 9 distinct values over 400 points, as
        # on a book whose queues are a few lots deep
        rng = np.random.default_rng(12)
        I = rng.integers(-4, 5, 400) / 4.0
        y = (rng.random(400) < sigmoid(0.2 + 1.5 * I)).astype(int)
        alpha = 0.5
        grid = np.array([-0.6, -0.1, 0.3, 0.55])
        fit = fit_local_logistic(I, y, alpha=alpha, grid=grid)
        assert not fit.degenerate.any() and not fit.nonconverged.any()
        k = int(np.ceil(alpha * len(I)))
        for g, value in zip(grid, fit.fitted):
            d = np.abs(I - g)
            h = np.partition(d, k - 1)[k - 1]
            w = np.where(d < h, (1 - (d / h) ** 3) ** 3, 0.0)
            b0, _ = weighted_grid_search_logistic(
                I - g, y, w, b0_range=(-2.0, 2.0), b1_range=(-2.0, 6.0)
            )
            assert abs(value - sigmoid(b0)) < 1e-3

    def test_window_of_one_value_gets_its_mean_label(self):
        # the 40 nearest neighbours of 0.5 all sit at 0.5: no slope to fit
        I = np.concatenate([np.full(50, 0.5), np.linspace(-1.0, 0.0, 30)])
        y = np.concatenate([np.tile([1, 1, 0, 1, 0], 10), np.tile([0, 1], 15)])
        fit = fit_local_logistic(I, y, alpha=0.5, grid=np.array([0.5]))
        assert fit.degenerate[0]
        assert fit.fitted[0] == pytest.approx(0.6)

    def test_degenerate_neighbourhood_clamped(self):
        I = np.concatenate([np.full(30, -0.8), np.full(30, 0.8)])
        y = np.concatenate([np.zeros(30), np.ones(30)])
        fit = fit_local_logistic(I, y, alpha=0.3, grid=np.array([-0.8, 0.8]))
        assert fit.degenerate.all()
        assert fit.fitted[0] == pytest.approx(1e-6)
        assert fit.fitted[1] == pytest.approx(1 - 1e-6)

    def test_separated_window_gets_its_weighted_mean_label(self):
        # labels 0 at -0.5, mixed at 0, 1 at 0.5: a window holding two of the
        # values has no finite slope, and takes its weighted mean label
        I = np.repeat([-0.5, 0.0, 0.5], 20)
        y = np.concatenate([np.zeros(20), np.tile([0, 1], 10), np.ones(20)])
        alpha = 0.9  # the window holds the two values nearest a grid point
        grid = default_grid(101)
        fit = fit_local_logistic(I, y, alpha=alpha, grid=grid)
        k = int(np.ceil(alpha * len(I)))
        separated = 0
        for g, value, flagged in zip(grid, fit.fitted, fit.degenerate):
            d = np.abs(I - g)
            h = np.partition(d, k - 1)[k - 1]
            w = np.where(d < h, (1 - (d / h) ** 3) ** 3, 0.0)
            inside = w > 0
            if len(np.unique(I[inside])) < 2 or len(np.unique(y[inside])) < 2:
                continue  # one value, or labels that agree
            separated += 1
            assert flagged
            mean = min(max(w @ y / w.sum(), 1e-6), 1 - 1e-6)
            assert value == pytest.approx(mean, rel=1e-12), g
        assert separated > 50

    def test_fitted_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(9)
        I, y = sigmoid_data(rng, 400, x0=0.0, x1=3.0)
        fit = fit_local_logistic(I, y, alpha=0.65, grid=default_grid(101))
        assert np.all(fit.fitted > 0.0) and np.all(fit.fitted < 1.0)

    def test_alpha_validation(self):
        rng = np.random.default_rng(1)
        I, y = sigmoid_data(rng, 100, 0.0, 1.0)
        with pytest.raises(ValueError):
            fit_local_logistic(I, y, alpha=1.5)
        with pytest.raises(NumericalError, match="^need at least 10 points, got "):
            fit_local_logistic(I, y, alpha=0.05)

    def test_grid_default_resolution(self):
        g = default_grid()
        assert len(g) == 401
        assert g[0] == -1.0 and g[-1] == 1.0
        assert np.allclose(np.diff(g), 0.005)


class TestRadii:
    @settings(deadline=None, max_examples=300)
    @given(data=st.data())
    def test_kth_smallest_distance(self, data):
        # training values on a coarse lattice (heavy ties) or anywhere in
        # [-1, 1]; grid points on the lattice too, so some radii are 0
        lattice = data.draw(st.sampled_from([None, 4, 8]))
        if lattice:
            values = st.integers(-lattice, lattice).map(lambda i: i / lattice)
        else:
            values = st.floats(-1, 1)
        x = np.sort(np.array(data.draw(st.lists(values, min_size=1, max_size=80))))
        grid = np.array(data.draw(st.lists(values | st.floats(-1, 1), min_size=1, max_size=20)))
        k = data.draw(st.integers(1, len(x)))
        expect = [np.sort(np.abs(x - g))[k - 1] for g in grid]
        assert _radii(x, grid, k).tolist() == expect


class TestPredictLocal:
    def _fit(self):
        grid = np.array([-1.0, 0.0, 0.5, 1.0])
        fitted = np.array([0.2, 0.5, 0.7, 0.8])
        from queuecast.local import LocalLogisticFit

        return LocalLogisticFit(grid, fitted, alpha=0.65)

    def test_exact_at_grid_points(self):
        fit = self._fit()
        for g, v in zip(fit.grid, fit.fitted):
            assert predict_local(fit, g) == v

    def test_midway_is_average(self):
        fit = self._fit()
        assert predict_local(fit, 0.25) == pytest.approx((0.5 + 0.7) / 2)

    def test_out_of_domain(self):
        fit = self._fit()
        with pytest.raises(NumericalError, match=r"^imbalance 1\.5 outside \[-1, 1\]$"):
            predict_local(fit, 1.5)

    def test_vectorized(self):
        fit = self._fit()
        out = predict_local(fit, np.array([-1.0, 0.5]))
        assert out.tolist() == [0.2, 0.7]


class TestCvBandwidth:
    def test_singleton_candidate(self):
        rng = np.random.default_rng(2)
        I, y = sigmoid_data(rng, 300, 0.0, 2.0)
        res = cv_bandwidth(I, y, [0.65], k=5, rng=np.random.default_rng(0), grid=default_grid(41))
        assert res.alpha == 0.65

    def test_same_seed_same_folds_and_choice(self):
        rng = np.random.default_rng(3)
        I, y = sigmoid_data(rng, 400, 0.0, 2.0)
        a = cv_bandwidth(I, y, [0.5, 0.65, 0.8], rng=np.random.default_rng(7), grid=default_grid(41))
        b = cv_bandwidth(I, y, [0.5, 0.65, 0.8], rng=np.random.default_rng(7), grid=default_grid(41))
        assert a.alpha == b.alpha
        assert a.msr_by_alpha == b.msr_by_alpha
        assert all((x == y_).all() for x, y_ in zip(a.folds, b.folds))

    def test_recomputation_oracle(self):
        rng = np.random.default_rng(4)
        I, y = sigmoid_data(rng, 500, 0.1, 2.2)
        grid = default_grid(41)
        cands = [0.5, 0.65, 0.8]
        res = cv_bandwidth(I, y, cands, k=5, rng=np.random.default_rng(11), grid=grid)
        assert res.alpha in cands
        # independent fold-by-fold accumulation using the same fold split
        n = len(I)
        for alpha in cands:
            sse = 0.0
            for fold in res.folds:
                mask = np.ones(n, dtype=bool)
                mask[fold] = False
                fit = fit_local_logistic(I[mask], y[mask], alpha, grid=grid)
                pred = predict_local(fit, I[fold])
                sse += float(np.sum((pred - y[fold]) ** 2))
            assert res.msr_by_alpha[alpha] == pytest.approx(sse / n, rel=1e-12)
        best_msr = min(res.msr_by_alpha.values())
        assert res.msr_by_alpha[res.alpha] == best_msr

    def test_tie_breaks_to_larger_alpha(self):
        from queuecast.local import select_bandwidth

        assert select_bandwidth({0.5: 0.2, 0.65: 0.2, 0.8: 0.25}) == 0.65
        assert select_bandwidth({0.8: 0.2, 0.5: 0.2, 0.65: 0.25}) == 0.8
        assert select_bandwidth({0.5: 0.19, 0.65: 0.2}) == 0.5
