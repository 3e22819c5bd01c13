"""Logistic regression of move direction on queue imbalance.

Maximum likelihood via Newton iterations (iteratively reweighted least
squares) with step halving whenever a full step would lower the
log-likelihood. The fit has converged once the Newton decrement g'H^-1 g / 2,
the gain the next full step predicts, is at most DECREMENT_TOL times the total
weight. Scaled by the weight, the rule stays above the float noise of the
score and log-likelihood sums at any sample size, which a fixed score
tolerance does not. From there the full step lands on the optimum to float
precision, so it is taken without the halving check. A step that no longer
changes the linear predictor ends the fit, unconverged unless the decrement
test passed. Standard errors come
from the inverse observed Fisher information at the optimum. Near-perfect
classification is flagged as separation (|slope| > 30 or overflowing
standard errors) rather than treated as fatal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AllOneLabel, NotConverged, NotNested, TooFewPoints

DECREMENT_TOL = 1e-12  # per unit of total weight
MAX_ITER = 100
SEPARATION_SLOPE = 30.0

CRIT_95 = 3.84
CRIT_99 = 6.63


@dataclass
class LogisticFit:
    x0: float
    x1: float
    se0: Optional[float]
    se1: Optional[float]
    loglik: float
    n: int
    iterations: int
    converged: bool
    separated: bool
    intercept_only: bool = False


@dataclass(frozen=True)
class TestResult:
    statistic: float
    df: int
    p_value: float
    significant_95: bool
    significant_99: bool


def sigmoid(eta):
    """Numerically safe logistic function, scalar or ndarray."""
    eta = np.asarray(eta, dtype=float)
    e = np.exp(-np.abs(eta))
    out = np.where(eta >= 0.0, 1.0, e) / (1.0 + e)
    return out if out.ndim else float(out)


def _bernoulli_loglik(eta, y, w):
    # sum w * (y*eta - log(1 + e^eta)); log(1 + e^eta) is split as
    # max(eta, 0) + log1p(e^-|eta|), exactly as np.logaddexp(0, eta) splits
    # it, but in vectorised ufuncs that run several times faster
    softplus = np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta)))
    return float(np.sum(w * (y * eta - softplus)))


def weighted_logistic_mle(z, y, w, max_iter: int = MAX_ITER, start=(0.0, 0.0)):
    """Weighted intercept-and-slope logistic MLE on regressor z.

    y may hold fractions: one row standing for tied observations carries
    their mean label and, folded into w, their count, which leaves the
    likelihood, score and Hessian unchanged. Newton starts from
    ``start = (b0, b1)``. Returns (b0, b1, loglik, iterations, converged,
    separated, cov) where cov is the 2x2 inverse Fisher information or None
    when unavailable.
    """
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    b0, b1 = (float(b) for b in start)
    eta = b0 + b1 * z
    ll = _bernoulli_loglik(eta, y, w)
    decrement_tol = DECREMENT_TOL * float(w.sum())
    converged = False
    stalled = False
    iterations = 0
    h00 = h01 = h11 = det = 0.0
    while iterations < max_iter and not (converged or stalled):
        p = sigmoid(eta)
        r = w * (y - p)
        g0 = float(r.sum())
        g1 = float(r @ z)
        ww = w * p * (1.0 - p)
        h00 = float(ww.sum())
        h01 = float(ww @ z)
        h11 = float(ww @ (z * z))
        det = h00 * h11 - h01 * h01
        if not math.isfinite(det) or det <= 0.0:
            break
        d0 = (h11 * g0 - h01 * g1) / det
        d1 = (h00 * g1 - h01 * g0) / det
        converged = 0.5 * (g0 * d0 + g1 * d1) <= decrement_tol
        step = 1.0
        while True:
            cb0 = b0 + step * d0
            cb1 = b1 + step * d1
            ceta = cb0 + cb1 * z
            stalled = np.array_equal(ceta, eta)
            if stalled:
                break
            cll = _bernoulli_loglik(ceta, y, w)
            # the converged step is taken whole: its gain is too small for
            # the comparison of two rounded sums to judge
            if converged or cll >= ll:
                b0, b1, eta, ll = cb0, cb1, ceta, cll
                iterations += 1
                break
            step *= 0.5
    separated = abs(b1) > SEPARATION_SLOPE
    cov = None
    if det > 0.0 and math.isfinite(det):
        c00 = h11 / det
        c11 = h00 / det
        c01 = -h01 / det
        if math.isfinite(c00) and math.isfinite(c11) and c00 > 0 and c11 > 0:
            cov = ((c00, c01), (c01, c11))
        else:
            separated = True
    else:
        separated = True
    return b0, b1, ll, iterations, converged, separated, cov


def fit_logistic(imbalance, labels) -> LogisticFit:
    """Fit p(up) = sigmoid(x0 + x1 * I) by maximum likelihood."""
    I = np.asarray(imbalance, dtype=float)
    y = np.asarray(labels, dtype=float)
    n = len(I)
    if n < 10:
        raise TooFewPoints(n, 10)
    if y.min() == y.max():
        raise AllOneLabel("all labels identical; logistic fit undefined")
    w = np.ones(n)
    b0, b1, ll, iters, converged, separated, cov = weighted_logistic_mle(I, y, w)
    se0 = se1 = None
    if cov is not None and not separated:
        se0 = math.sqrt(cov[0][0])
        se1 = math.sqrt(cov[1][1])
    return LogisticFit(b0, b1, se0, se1, ll, n, iters, converged, separated)


def fit_intercept_only(labels) -> LogisticFit:
    """Closed-form MLE of the slope-free (null-structure) model."""
    y = np.asarray(labels, dtype=float)
    n = len(y)
    if n < 1:
        raise TooFewPoints(n, 1)
    pbar = float(y.mean())
    if pbar in (0.0, 1.0):
        raise AllOneLabel("all labels identical; intercept MLE diverges")
    x0 = math.log(pbar / (1.0 - pbar))
    ll = n * (pbar * math.log(pbar) + (1.0 - pbar) * math.log(1.0 - pbar))
    se0 = 1.0 / math.sqrt(n * pbar * (1.0 - pbar))
    return LogisticFit(x0, 0.0, se0, None, ll, n, 0, True, False, intercept_only=True)


def predict_logistic(fit: LogisticFit, imbalance):
    """Evaluate the fitted sigmoid at one or many imbalance values."""
    I = np.asarray(imbalance, dtype=float)
    if not np.all(np.isfinite(I)):
        raise ValueError("imbalance values must be finite")
    return sigmoid(fit.x0 + fit.x1 * I)


def chi2_sf_1df(x: float) -> float:
    """Survival function of chi-square with 1 df.

    P(X > x) = 2 (1 - Phi(sqrt(x))) = erfc(sqrt(x / 2)); math.erfc is
    accurate to a couple of ulps across the range used here.
    """
    if x < 0:
        raise ValueError("chi-square statistic must be nonnegative")
    return math.erfc(math.sqrt(x / 2.0))


def _test_result(statistic: float) -> TestResult:
    return TestResult(
        statistic=statistic,
        df=1,
        p_value=chi2_sf_1df(statistic),
        significant_95=statistic >= CRIT_95,
        significant_99=statistic >= CRIT_99,
    )


def wald_test(fit: LogisticFit, which: str) -> TestResult:
    """Wald test of a single coefficient against zero."""
    if not fit.converged or fit.separated:
        raise NotConverged("Wald test requires a converged, non-separated fit")
    if which == "x0":
        est, se = fit.x0, fit.se0
    elif which == "x1":
        est, se = fit.x1, fit.se1
    else:
        raise ValueError("which must be 'x0' or 'x1'")
    if se is None or se <= 0:
        raise NotConverged(f"no standard error available for {which}")
    return _test_result((est / se) ** 2)


def lr_test(full: LogisticFit, intercept_only: LogisticFit) -> TestResult:
    """Likelihood-ratio test of the full fit against the intercept-only fit."""
    stat = 2.0 * (full.loglik - intercept_only.loglik)
    if stat < -1e-8:
        raise NotNested(
            f"full-model log-likelihood {full.loglik} below nested {intercept_only.loglik}"
        )
    return _test_result(max(stat, 0.0))
