"""Logistic regression of move direction on queue imbalance.

Maximum likelihood via Newton iterations (iteratively reweighted least
squares). The log-likelihood is concave, so a step whose end still has a
score pointing along it (slope >= 0) raised it; a step with a negative slope
there is halved until the log-likelihood does not fall. One exp a candidate
gives its score and, once taken, the next iteration's score and Hessian.
The fit has converged once the Newton decrement g'H^-1 g / 2,
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

import numpy as np

from .errors import NumericalError
from .reports import CRIT_95, CRIT_99, LogisticFit, TestResult

DECREMENT_TOL = 1e-12  # per unit of total weight
MAX_ITER = 100
SEPARATION_SLOPE = 30.0


def sigmoid(eta):
    """Numerically safe logistic function, scalar or ndarray."""
    out = _sigmoid(np.asarray(eta, dtype=float))[1]
    return out if out.ndim else float(out)


def _sigmoid(eta):
    # e^-|eta| and the sigmoid from it; the Bernoulli log-likelihood reuses e
    e = np.exp(-np.abs(eta))
    return e, np.where(eta >= 0.0, 1.0, e) / (1.0 + e)


def _bernoulli_loglik(eta, e, y, w):
    # sum w * (y*eta - log(1 + e^eta)) with e = e^-|eta|; log(1 + e^eta) is
    # split as max(eta, 0) + log1p(e), exactly as np.logaddexp(0, eta) splits
    # it, but in vectorised ufuncs that run several times faster
    softplus = np.maximum(eta, 0.0) + np.log1p(e)
    return float(np.sum(w * (y * eta - softplus)))


def weighted_logistic_mle(z, y, w, start=(0.0, 0.0), loglik=True):
    """Weighted intercept-and-slope logistic MLE on regressor z.

    y may hold fractions: one row standing for tied observations carries
    their mean label and, folded into w, their count, which leaves the
    likelihood, score and Hessian unchanged. Newton starts from
    ``start = (b0, b1)``. Returns (b0, b1, loglik, iterations, converged,
    separated, cov) where cov is the 2x2 inverse Fisher information or None
    when unavailable, and loglik is None unless ``loglik`` asks for it.
    """
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    zz = z * z
    b0, b1 = (float(b) for b in start)
    eta = b0 + b1 * z
    e, p = _sigmoid(eta)
    r = w * (y - p)
    g0, g1 = float(r.sum()), float(r @ z)
    ll = None  # the iterate's log-likelihood, once a comparison has needed it
    decrement_tol = DECREMENT_TOL * float(w.sum())
    converged = stalled = False
    iterations = 0
    h00 = h01 = h11 = det = 0.0
    while iterations < MAX_ITER and not (converged or stalled):
        ww = w * p * (1.0 - p)
        h00 = float(ww.sum())
        h01 = float(ww @ z)
        h11 = float(ww @ zz)
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
            stalled = bool((ceta == eta).all())
            if stalled:
                break
            ce = cp = cg0 = cg1 = cll = None
            # the converged step is taken whole, as the last: its gain is too
            # small for the comparison of two rounded sums to judge
            if not converged:
                ce, cp = _sigmoid(ceta)
                r = w * (y - cp)
                cg0, cg1 = float(r.sum()), float(r @ z)
                if cg0 * d0 + cg1 * d1 < 0.0:
                    ll = _bernoulli_loglik(eta, e, y, w) if ll is None else ll
                    cll = _bernoulli_loglik(ceta, ce, y, w)
            if cll is None or cll >= ll:
                b0, b1, eta, e, p, g0, g1, ll = cb0, cb1, ceta, ce, cp, cg0, cg1, cll
                iterations += 1
                break
            step *= 0.5
    if loglik and ll is None:
        ll = _bernoulli_loglik(eta, _sigmoid(eta)[0] if e is None else e, y, w)
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
        raise NumericalError(f"need at least 10 points, got {n}")
    if y.min() == y.max():
        raise NumericalError("all labels identical; logistic fit undefined")
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
        raise NumericalError(f"need at least 1 points, got {n}")
    pbar = float(y.mean())
    if pbar in (0.0, 1.0):
        raise NumericalError("all labels identical; intercept MLE diverges")
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
        raise NumericalError("Wald test requires a converged, non-separated fit")
    if which == "x0":
        est, se = fit.x0, fit.se0
    elif which == "x1":
        est, se = fit.x1, fit.se1
    else:
        raise ValueError("which must be 'x0' or 'x1'")
    if se is None or se <= 0:
        raise NumericalError(f"no standard error available for {which}")
    try:
        stat = (est / se) ** 2
    except OverflowError:
        raise NumericalError(f"Wald statistic of {which} exceeds the float range") from None
    return _test_result(stat)


def lr_test(full: LogisticFit, intercept_only: LogisticFit) -> TestResult:
    """Likelihood-ratio test of the full fit against the intercept-only fit."""
    stat = 2.0 * (full.loglik - intercept_only.loglik)
    if stat < -1e-8:
        raise NumericalError(
            f"full-model log-likelihood {full.loglik} below nested {intercept_only.loglik}"
        )
    return _test_result(max(stat, 0.0))
