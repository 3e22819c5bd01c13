import math

import numpy as np
import pytest
from scipy import stats as sps

from queuecast.errors import AllOneLabel, NotConverged, NotNested, TooFewPoints
from queuecast.logistic import (
    chi2_sf_1df,
    fit_intercept_only,
    fit_logistic,
    lr_test,
    predict_logistic,
    sigmoid,
    wald_test,
)

from oracles import grid_search_logistic


def sigmoid_data(rng, n, x0, x1):
    I = rng.uniform(-1.0, 1.0, n)
    p = 1.0 / (1.0 + np.exp(-(x0 + x1 * I)))
    y = (rng.random(n) < p).astype(int)
    return I, y


class TestFitLogistic:
    def test_paired_complement_gives_exact_zero(self):
        # every (I, 1) point has an adjacent (I, 0) mirror: the constant-1/2
        # model is the MLE and the score at (0, 0) cancels exactly
        rng = np.random.default_rng(0)
        base = rng.uniform(-1, 1, 50)
        I = np.repeat(base, 2)
        y = np.tile([1, 0], 50)
        fit = fit_logistic(I, y)
        assert fit.x0 == 0.0
        assert fit.x1 == 0.0
        assert fit.converged

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(314)
        I, y = sigmoid_data(rng, 200, x0=0.0, x1=2.5)
        fit = fit_logistic(I, y)
        gx0, gx1 = grid_search_logistic(I, y)
        assert abs(fit.x0 - gx0) < 1e-3
        assert abs(fit.x1 - gx1) < 1e-3

    def test_score_norm_small_at_optimum(self):
        rng = np.random.default_rng(7)
        I, y = sigmoid_data(rng, 500, x0=0.2, x1=1.5)
        fit = fit_logistic(I, y)
        p = predict_logistic(fit, I)
        g0 = float(np.sum(y - p))
        g1 = float(np.sum((y - p) * I))
        assert math.hypot(g0, g1) < 1e-8

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        I, y = sigmoid_data(rng, 300, x0=-0.3, x1=2.0)

        def ll(b0, b1):
            eta = b0 + b1 * I
            return float(np.sum(y * eta - np.logaddexp(0.0, eta)))

        h = 1e-5
        for _ in range(10):
            b0, b1 = rng.uniform(-1, 1, 2)
            g0 = float(np.sum(y - sigmoid(b0 + b1 * I)))
            g1 = float(np.sum((y - sigmoid(b0 + b1 * I)) * I))
            fd0 = (ll(b0 + h, b1) - ll(b0 - h, b1)) / (2 * h)
            fd1 = (ll(b0, b1 + h) - ll(b0, b1 - h)) / (2 * h)
            assert abs(g0 - fd0) < 1e-6
            assert abs(g1 - fd1) < 1e-6

    def test_fisher_se_matches_fd_hessian(self):
        rng = np.random.default_rng(3)
        I, y = sigmoid_data(rng, 800, x0=0.1, x1=2.2)
        fit = fit_logistic(I, y)

        def ll(b):
            eta = b[0] + b[1] * I
            return float(np.sum(y * eta - np.logaddexp(0.0, eta)))

        h = 1e-4
        b = np.array([fit.x0, fit.x1])
        H = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                bpp = b.copy(); bpp[i] += h; bpp[j] += h
                bpm = b.copy(); bpm[i] += h; bpm[j] -= h
                bmp = b.copy(); bmp[i] -= h; bmp[j] += h
                bmm = b.copy(); bmm[i] -= h; bmm[j] -= h
                H[i, j] = (ll(bpp) - ll(bpm) - ll(bmp) + ll(bmm)) / (4 * h * h)
        cov = np.linalg.inv(-H)
        assert fit.se0 == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-4)
        assert fit.se1 == pytest.approx(math.sqrt(cov[1, 1]), rel=1e-4)

    @pytest.mark.parametrize("seed, n", [(11, 5000), (28, 5000), (8, 20000)])
    def test_converges_at_float_floor_of_score(self, seed, n):
        # at these optima the score norm cannot fall below its float floor
        # (about 1e-8 and up), so a fixed absolute score tolerance never
        # passes and step halving crept on to MAX_ITER
        I, y = sigmoid_data(np.random.default_rng(seed), n, 0.1, 2.0)
        fit = fit_logistic(I, y)
        assert fit.converged
        assert fit.iterations < 20

    def test_separation_flagged(self):
        I = np.linspace(-1, 1, 40)
        I = I[I != 0]
        y = (I > 0).astype(int)
        fit = fit_logistic(I, y)
        assert fit.separated
        assert fit.se0 is None and fit.se1 is None

    def test_all_one_label(self):
        with pytest.raises(AllOneLabel):
            fit_logistic(np.linspace(-1, 1, 20), np.ones(20))

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            fit_logistic(np.linspace(-1, 1, 5), np.array([0, 1, 0, 1, 0]))

    def test_label_flip_equivariance(self):
        rng = np.random.default_rng(17)
        I, y = sigmoid_data(rng, 400, x0=0.4, x1=1.2)
        a = fit_logistic(I, y)
        b = fit_logistic(I, 1 - y)
        assert a.x0 == pytest.approx(-b.x0, abs=1e-7)
        assert a.x1 == pytest.approx(-b.x1, abs=1e-7)
        pa = predict_logistic(a, 0.37)
        pb = predict_logistic(b, 0.37)
        assert pa == pytest.approx(1 - pb, abs=1e-9)

    def test_loglik_nonpositive(self):
        rng = np.random.default_rng(5)
        I, y = sigmoid_data(rng, 100, x0=0.0, x1=1.0)
        assert fit_logistic(I, y).loglik <= 0.0


class TestPredict:
    def test_sigmoid_center(self):
        fit = fit_intercept_only(np.array([0, 1, 1, 0]))
        assert predict_logistic(fit, 0.0) == 0.5

    def test_msft_style_coefficients(self):
        # x0=0.01, x1=2.49 evaluated at I=1 -> 1/(1+e^-2.50)
        from queuecast.logistic import LogisticFit

        fit = LogisticFit(0.01, 2.49, None, None, 0.0, 0, 0, True, False)
        expected = 1.0 / (1.0 + math.exp(-2.50))
        assert predict_logistic(fit, 1.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.9241, abs=5e-5)

    def test_antisymmetry_at_zero_intercept(self):
        from queuecast.logistic import LogisticFit

        fit = LogisticFit(0.0, 1.7, None, None, 0.0, 0, 0, True, False)
        for v in [0.0, 0.2, 0.77, 1.0]:
            assert predict_logistic(fit, v) + predict_logistic(fit, -v) == pytest.approx(1.0)

    def test_monotone_iff_positive_slope(self):
        rng = np.random.default_rng(2)
        I, y = sigmoid_data(rng, 400, x0=0.0, x1=2.0)
        fit = fit_logistic(I, y)
        assert fit.x1 > 0
        grid = np.linspace(-1, 1, 101)
        vals = predict_logistic(fit, grid)
        assert np.all(np.diff(vals) > 0)

    def test_nonfinite_rejected(self):
        fit = fit_intercept_only(np.array([0, 1]))
        with pytest.raises(ValueError):
            predict_logistic(fit, float("nan"))


class TestChiSquare:
    def test_survival_at_one(self):
        # 2 * (1 - Phi(1)) = erfc(1/sqrt 2) = 0.31731...
        assert chi2_sf_1df(1.0) == pytest.approx(0.3173105078629141, abs=1e-12)
        assert chi2_sf_1df(1.0) == pytest.approx(0.3173, abs=1e-4)

    def test_matches_scipy_chi2(self):
        for w in [0.0, 0.5, 1.0, 3.84, 6.63, 20.0, 100.0]:
            assert chi2_sf_1df(w) == pytest.approx(sps.chi2.sf(w, df=1), rel=1e-12, abs=1e-300)

    def test_zero_statistic(self):
        assert chi2_sf_1df(0.0) == 1.0


class TestWald:
    def _fit(self, x0=0.0, x1=2.0, n=2000, seed=0):
        rng = np.random.default_rng(seed)
        I, y = sigmoid_data(rng, n, x0=x0, x1=x1)
        return fit_logistic(I, y)

    def test_zero_estimate(self):
        from queuecast.logistic import LogisticFit

        fit = LogisticFit(0.0, 1.0, 0.5, 0.5, -1.0, 10, 3, True, False)
        res = wald_test(fit, "x0")
        assert res.statistic == 0.0 and res.p_value == 1.0

    def test_estimate_equal_se(self):
        from queuecast.logistic import LogisticFit

        fit = LogisticFit(0.25, 1.0, 0.25, 0.5, -1.0, 10, 3, True, False)
        res = wald_test(fit, "x0")
        assert res.statistic == pytest.approx(1.0)
        assert res.p_value == pytest.approx(0.3173, abs=1e-4)

    def test_critical_value_flags(self):
        from queuecast.logistic import LogisticFit

        for stat, s95, s99 in [(3.84, True, False), (6.63, True, True), (1.0, False, False)]:
            se = 1.0 / math.sqrt(stat) if stat else 1.0
            fit = LogisticFit(1.0, 1.0, se, se, -1.0, 10, 3, True, False)
            res = wald_test(fit, "x0")
            assert res.statistic == pytest.approx(stat, rel=1e-12)
            assert res.significant_95 is s95
            assert res.significant_99 is s99

    def test_requires_convergence(self):
        from queuecast.logistic import LogisticFit

        fit = LogisticFit(1.0, 40.0, None, None, -1.0, 10, 100, False, True)
        with pytest.raises(NotConverged):
            wald_test(fit, "x1")


class TestLikelihoodRatio:
    def test_identical_logliks(self):
        from queuecast.logistic import LogisticFit

        f = LogisticFit(0.0, 0.0, 1.0, 1.0, -5.0, 10, 1, True, False)
        res = lr_test(f, f)
        assert res.statistic == 0.0 and res.p_value == 1.0

    def test_not_nested_detected(self):
        from queuecast.logistic import LogisticFit

        full = LogisticFit(0.0, 0.0, 1.0, 1.0, -5.0, 10, 1, True, False)
        nested = LogisticFit(0.0, 0.0, 1.0, None, -4.0, 10, 0, True, False)
        with pytest.raises(NotNested):
            lr_test(full, nested)

    def test_null_data_median_near_chi2_median(self):
        # under x1 = 0, LR is asymptotically chi2(1); its median is 0.4549
        rng = np.random.default_rng(88)
        stats = []
        for _ in range(1000):
            I = rng.uniform(-1, 1, 250)
            y = (rng.random(250) < 0.5).astype(int)
            try:
                full = fit_logistic(I, y)
            except AllOneLabel:
                continue
            nested = fit_intercept_only(y)
            stats.append(lr_test(full, nested).statistic)
        med = float(np.median(stats))
        assert 0.30 < med < 0.65  # chi2(1) median is 0.455

    def test_strong_signal_exceeds_99_critical(self):
        rng = np.random.default_rng(4)
        I = rng.uniform(-1, 1, 20160)
        p = 1.0 / (1.0 + np.exp(-2.5 * I))
        y = (rng.random(20160) < p).astype(int)
        full = fit_logistic(I, y)
        nested = fit_intercept_only(y)
        res = lr_test(full, nested)
        assert res.statistic > 6.63
        assert res.significant_99

    def test_wald_lr_asymptotic_agreement(self):
        # equivalence is asymptotic in the local-alternative sense: at very
        # steep slopes the two statistics genuinely diverge (the Wald test
        # flattens), so test in a moderate yet overwhelmingly significant
        # regime where both are in the hundreds
        rng = np.random.default_rng(10)
        I = rng.uniform(-1, 1, 20160)
        p = 1.0 / (1.0 + np.exp(-(0.05 + 0.8 * I)))
        y = (rng.random(20160) < p).astype(int)
        full = fit_logistic(I, y)
        nested = fit_intercept_only(y)
        w = wald_test(full, "x1").statistic
        lr = lr_test(full, nested).statistic
        assert w > 100.0 and lr > 100.0
        assert abs(w - lr) / lr < 0.15


class TestInterceptOnly:
    def test_closed_form(self):
        y = np.array([1, 1, 1, 0])
        fit = fit_intercept_only(y)
        assert fit.x0 == pytest.approx(math.log(3.0))
        assert fit.x1 == 0.0
        p = 0.75
        assert fit.loglik == pytest.approx(4 * (p * math.log(p) + 0.25 * math.log(0.25)))

    def test_closed_form_maximizes_loglik(self):
        rng = np.random.default_rng(31)
        y = (rng.random(500) < 0.62).astype(int)
        closed = fit_intercept_only(y)

        def ll(b0):
            return float(np.sum(y * b0 - np.logaddexp(0.0, b0)))

        grid = np.linspace(closed.x0 - 1.0, closed.x0 + 1.0, 4001)
        assert max(ll(b) for b in grid) <= closed.loglik + 1e-12
