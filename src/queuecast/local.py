"""Local logistic regression with a tricube kernel.

At every grid point a separate intercept-and-slope logistic regression is
fitted to the training data, weighted by the tricube kernel
w(u) = (1 - |u|^3)^3 on |u| < 1, with a nearest-neighbour bandwidth: the
kernel radius at a grid point is the distance to the ceil(alpha * n)-th
closest training imbalance. The fitted curve value is the local sigmoid
evaluated at the grid point itself.

The fits run on sufficient statistics (Loader 1999, Local Regression and
Likelihood). Imbalance is a ratio of small queue sizes, so many training
points share a value; each distinct value enters once, with its count and
its mean label, which leaves the local likelihood, score and Hessian exactly
as they are over the raw points. The radius is read off the cumulative
counts of the distinct values sorted by distance, which gives the same float
as selecting the k-th of all n distances. Each grid point's Newton starts
from the previous converged local line. A window holding a single distinct
value has no slope to fit and, like a window whose labels all agree, takes
its mean label as a clamped, degenerate value.

The bandwidth fraction alpha is chosen by k-fold cross validation on the
training set, minimizing the mean squared residual of held-out predictions
(grid fit plus linear interpolation, exactly the shipped predictor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import OutOfDomain, TooFewPoints
from .logistic import sigmoid, weighted_logistic_mle

FITTED_FLOOR = 1e-6
DEFAULT_GRID_POINTS = 401


@dataclass
class LocalLogisticFit:
    grid: np.ndarray  # strictly increasing I values on [-1, 1]
    fitted: np.ndarray  # estimated p(up) at each grid point, in (0, 1)
    alpha: float  # nearest-neighbour bandwidth fraction
    train_ref: str = ""
    degenerate: np.ndarray = None  # bool mask of clamped grid points
    nonconverged: np.ndarray = None  # bool mask of grid points whose Newton fit did not converge


@dataclass
class CvResult:
    alpha: float
    msr_by_alpha: dict
    folds: list = field(default_factory=list)


def default_grid(points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    return np.linspace(-1.0, 1.0, points)


def _neighbour_count(alpha: float, n: int) -> int:
    # guard the ceil against float fuzz (0.65 * 20160 is not exact)
    return int(math.ceil(alpha * n - 1e-9))


def fit_local_logistic(
    imbalance,
    labels,
    alpha: float,
    grid: Optional[np.ndarray] = None,
    all_weights_one: bool = False,
    train_ref: str = "",
) -> LocalLogisticFit:
    """Fit the locally weighted curve over a grid of imbalance values.

    ``all_weights_one`` is a test mode that disables the kernel entirely;
    the resulting curve must coincide with the global logistic fit.
    Neighbourhoods whose weighted labels are all identical (or whose local
    fit separates) get a clamped fitted value and a degeneracy flag; grid
    points whose local fit did not converge are flagged in ``nonconverged``.
    """
    I = np.asarray(imbalance, dtype=float)
    y = np.asarray(labels, dtype=float)
    n = len(I)
    if grid is None:
        grid = default_grid()
    grid = np.asarray(grid, dtype=float)
    if not 0.0 < alpha <= 1.0:
        raise ValueError("bandwidth fraction alpha must lie in (0, 1]")
    k = _neighbour_count(alpha, n)
    if k < 10:
        raise TooFewPoints(k, 10)
    # sufficient statistics: distinct values (sorted), their counts and label sums
    values, inverse, counts = np.unique(I, return_inverse=True, return_counts=True)
    ones = np.bincount(inverse, weights=y, minlength=len(values))
    ybar = ones / counts
    fitted = np.empty(len(grid))
    degenerate = np.zeros(len(grid), dtype=bool)
    nonconverged = np.zeros(len(grid), dtype=bool)
    # Newton starts from the last converged local line (intercept at I = 0,
    # slope), re-centred on each grid point
    line = (0.0, 0.0)
    for j, g in enumerate(grid):
        if all_weights_one:
            lo, hi = 0, len(values)
        else:
            d = np.abs(values - g)
            # d is two sorted runs, which the stable sort merges in linear time
            by_distance = np.argsort(d, kind="stable")
            # the k-th smallest of the n distances, ties counted with multiplicity
            h = float(d[by_distance[np.searchsorted(np.cumsum(counts[by_distance]), k)]])
            if h == 0.0:
                # at least k training imbalances equal g: the window is that value alone
                lo = int(np.searchsorted(values, g))
                hi = lo + 1
            else:
                lo = int(np.searchsorted(values, g - h, side="right"))
                hi = int(np.searchsorted(values, g + h, side="left"))
        window_n = float(counts[lo:hi].sum())
        window_ones = float(ones[lo:hi].sum())
        if hi - lo < 2 or window_ones in (0.0, window_n):
            # no slope to fit: one distinct value, or every label agrees
            label = window_ones / window_n if window_n else 0.5
            fitted[j] = min(max(label, FITTED_FLOOR), 1.0 - FITTED_FLOOR)
            degenerate[j] = True
            continue
        w = counts[lo:hi]
        if not all_weights_one:
            w = w * (1.0 - (d[lo:hi] / h) ** 3) ** 3
        b0, b1, _ll, _it, converged, separated, _cov = weighted_logistic_mle(
            values[lo:hi] - g, ybar[lo:hi], w, start=(line[0] + line[1] * g, line[1])
        )
        value = float(sigmoid(b0))
        nonconverged[j] = not converged
        if separated:
            value = min(max(value, FITTED_FLOOR), 1.0 - FITTED_FLOOR)
            degenerate[j] = True
        elif converged:
            line = (b0 - b1 * g, b1)
        fitted[j] = value
    return LocalLogisticFit(grid, fitted, alpha, train_ref, degenerate, nonconverged)


def predict_local(fit: LocalLogisticFit, imbalance):
    """Linear interpolation between grid values; exact at grid points."""
    I = np.asarray(imbalance, dtype=float)
    if np.any(I < fit.grid[0]) or np.any(I > fit.grid[-1]):
        bad = I[(I < fit.grid[0]) | (I > fit.grid[-1])]
        raise OutOfDomain(float(np.ravel(bad)[0]))
    out = np.interp(I, fit.grid, fit.fitted)
    return out if out.ndim else float(out)


def cv_bandwidth(
    imbalance,
    labels,
    candidates: Sequence[float],
    k: int = 5,
    rng: Optional[np.random.Generator] = None,
    grid: Optional[np.ndarray] = None,
) -> CvResult:
    """Pick the bandwidth fraction by k-fold cross-validated squared error.

    Ties break toward the larger (smoother) candidate. Returns the winner
    together with the full CV-MSR table and the fold index arrays, so the
    accumulation can be audited independently.
    """
    if not candidates:
        raise ValueError("no bandwidth candidates supplied")
    if k < 2:
        raise ValueError("cross validation needs k >= 2 folds")
    I = np.asarray(imbalance, dtype=float)
    y = np.asarray(labels, dtype=float)
    n = len(I)
    if rng is None:
        rng = np.random.default_rng(0)
    folds = np.array_split(rng.permutation(n), k)
    msr_by_alpha: dict = {}
    for alpha in candidates:
        sse = 0.0
        for fold in folds:
            mask = np.ones(n, dtype=bool)
            mask[fold] = False
            fit = fit_local_logistic(I[mask], y[mask], alpha, grid=grid)
            pred = predict_local(fit, I[fold])
            sse += float(np.sum((pred - y[fold]) ** 2))
        msr_by_alpha[float(alpha)] = sse / n
    return CvResult(select_bandwidth(msr_by_alpha), msr_by_alpha, [np.sort(f) for f in folds])


def select_bandwidth(msr_by_alpha: dict) -> float:
    """Lowest CV-MSR candidate; exact ties go to the larger (smoother) alpha."""
    best = None
    for alpha in msr_by_alpha:
        if (
            best is None
            or msr_by_alpha[alpha] < msr_by_alpha[best]
            or (msr_by_alpha[alpha] == msr_by_alpha[best] and alpha > best)
        ):
            best = alpha
    return best
