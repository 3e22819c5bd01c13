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
as they are over the raw points. The radius is the k-th of all n distances,
found for every grid point at once by bisection (``_radii``). The CV's fits
share one sorted value axis. Each grid point's Newton starts
from the previous converged local line. A window without a finite slope
(one distinct value, labels that all agree, or a separated fit) takes its
weighted mean label as a clamped, degenerate value, which does not depend on
where Newton stopped.

The bandwidth fraction alpha is chosen by k-fold cross validation on the
training set, minimizing the mean squared residual of held-out predictions
(grid fit plus linear interpolation, exactly the shipped predictor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import NumericalError
from .logistic import sigmoid, weighted_logistic_mle

FITTED_FLOOR = 1e-6
DEFAULT_GRID_POINTS = 401


@dataclass
class LocalLogisticFit:
    grid: np.ndarray  # strictly increasing I values on [-1, 1]
    fitted: np.ndarray  # estimated p(up) at each grid point, in (0, 1)
    alpha: float  # nearest-neighbour bandwidth fraction
    degenerate: np.ndarray = None  # bool mask of clamped grid points
    nonconverged: np.ndarray = None  # bool mask of grid points whose Newton fit did not converge
    newton_iterations: int = 0  # summed over the grid points


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
) -> LocalLogisticFit:
    """Fit the locally weighted curve over a grid of imbalance values.

    ``all_weights_one`` is a test mode that disables the kernel entirely;
    the resulting curve must coincide with the global logistic fit.
    Neighbourhoods whose weighted labels are all identical, or whose local
    fit separates, get their clamped weighted mean label and a degeneracy
    flag; grid points whose local fit did not converge are flagged in
    ``nonconverged``.
    """
    I = np.asarray(imbalance, dtype=float)
    y = np.asarray(labels, dtype=float)
    return _fit(*_tally(*np.unique(I, return_inverse=True), y), alpha, grid, all_weights_one)


def _tally(values, inverse, y):
    """The sufficient statistics of rows given as indices into the sorted
    ``values``: the distinct values they hold, their counts and label sums."""
    counts = np.bincount(inverse, minlength=len(values))
    held = counts > 0
    return values[held], counts[held], np.bincount(inverse, weights=y, minlength=len(values))[held]


def _fit(values, counts, ones, alpha, grid=None, all_weights_one=False):
    # fit_local_logistic on the sufficient statistics
    if grid is None:
        grid = default_grid()
    grid = np.asarray(grid, dtype=float)
    if not 0.0 < alpha <= 1.0:
        raise ValueError("bandwidth fraction alpha must lie in (0, 1]")
    k = _neighbour_count(alpha, int(counts.sum()))
    if k < 10:
        raise NumericalError(f"need at least 10 points, got {k}")
    ybar = ones / counts
    if all_weights_one:
        los, his = np.zeros(len(grid), dtype=int), np.full(len(grid), len(values))
    else:
        h = _radii(np.repeat(values, counts), grid, k)
        # h = 0: at least k training imbalances equal g, and the window is that value alone
        los = np.where(h == 0.0, np.searchsorted(values, grid),
                       np.searchsorted(values, grid - h, side="right"))
        his = np.where(h == 0.0, los + 1, np.searchsorted(values, grid + h, side="left"))
    fitted = np.empty(len(grid))
    degenerate = np.zeros(len(grid), dtype=bool)
    nonconverged = np.zeros(len(grid), dtype=bool)
    iterations = 0
    # Newton starts from the last converged local line (intercept at I = 0,
    # slope), re-centred on each grid point
    line = (0.0, 0.0)
    for j, g in enumerate(grid):
        lo, hi = los[j], his[j]
        window_n = float(counts[lo:hi].sum())
        window_ones = float(ones[lo:hi].sum())
        if hi - lo < 2 or window_ones in (0.0, window_n):
            # no slope to fit: one distinct value, or every label agrees
            label = window_ones / window_n if window_n else 0.5
            fitted[j] = min(max(label, FITTED_FLOOR), 1.0 - FITTED_FLOOR)
            degenerate[j] = True
            continue
        z = values[lo:hi] - g
        w = counts[lo:hi]
        if not all_weights_one:
            w = w * (1.0 - (np.abs(z) / h[j]) ** 3) ** 3
        b0, b1, _ll, it, converged, separated, _cov = weighted_logistic_mle(
            z, ybar[lo:hi], w, start=(line[0] + line[1] * g, line[1]), loglik=False
        )
        iterations += it
        nonconverged[j] = not converged
        if separated:
            # no finite slope either: the weighted mean label, whatever Newton reached
            label = float(w @ ybar[lo:hi] / w.sum())
            fitted[j] = min(max(label, FITTED_FLOOR), 1.0 - FITTED_FLOOR)
            degenerate[j] = True
            continue
        if converged:
            line = (b0 - b1 * g, b1)
        fitted[j] = float(sigmoid(b0))
    return LocalLogisticFit(grid, fitted, alpha, degenerate, nonconverged, iterations)


def _radii(x, grid, k):
    """The k-th smallest distance |x - g| at each grid point g, from the sorted
    training imbalances x (ties repeated): the least, over the runs x[i:i+k],
    of the larger end distance. The near end's g - x[i] falls and the far
    end's x[i+k-1] - g rises with i, so bisection finds where they cross."""
    last = len(x) - k  # the last run's start
    lo, hi = np.zeros(len(grid), dtype=int), np.full(len(grid), last + 1)
    while (active := lo < hi).any():  # the first run whose far end is no nearer
        mid = np.minimum((lo + hi) // 2, last)
        far = active & (x[mid + k - 1] - grid >= grid - x[mid])
        hi, lo = np.where(far, mid, hi), np.where(active & ~far, mid + 1, lo)
    far = np.where(lo <= last, x[np.minimum(lo, last) + k - 1] - grid, np.inf)
    return np.minimum(far, np.where(lo > 0, grid - x[np.maximum(lo - 1, 0)], np.inf))


def predict_local(fit: LocalLogisticFit, imbalance):
    """Linear interpolation between grid values; exact at grid points."""
    I = np.asarray(imbalance, dtype=float)
    if np.any(I < fit.grid[0]) or np.any(I > fit.grid[-1]):
        bad = I[(I < fit.grid[0]) | (I > fit.grid[-1])]
        raise NumericalError(f"imbalance {float(np.ravel(bad)[0])} outside [-1, 1]")
    out = np.interp(I, fit.grid, fit.fitted)
    return out if out.ndim else float(out)


def cv_bandwidth(
    imbalance,
    labels,
    candidates: Sequence[float],
    k: int = 5,
    rng: Optional[np.random.Generator] = None,
    grid: Optional[np.ndarray] = None,
    jobs: int = 1,
) -> CvResult:
    """Pick the bandwidth fraction by k-fold cross-validated squared error.

    Ties break toward the larger (smoother) candidate. Returns the winner
    together with the full CV-MSR table and the fold index arrays, so the
    accumulation can be audited independently. Each (alpha, fold) fit is
    one task of ``pipeline.pool_map`` over ``jobs`` workers; an alpha's
    squared errors are summed in fold order whatever ``jobs`` is.
    """
    from .pipeline import pool_map

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
    values, inverse = np.unique(I, return_inverse=True)  # one value axis for every fold
    tallies = [_tally(values, np.delete(inverse, fold), np.delete(y, fold)) for fold in folds]

    def fold_sse(unit: tuple[float, int]) -> float:
        alpha, f = unit
        pred = predict_local(_fit(*tallies[f], alpha, grid=grid), I[folds[f]])
        return float(np.sum((pred - y[folds[f]]) ** 2))

    units = [(alpha, f) for alpha in candidates for f in range(k)]
    sums = iter(pool_map(fold_sse, units, jobs))
    msr_by_alpha: dict = {}
    for alpha in candidates:
        sse = 0.0
        for _ in range(k):
            sse += next(sums)
        msr_by_alpha[float(alpha)] = sse / n
    return CvResult(select_bandwidth(msr_by_alpha), msr_by_alpha, [np.sort(f) for f in folds])


def select_bandwidth(msr_by_alpha: dict) -> float:
    """Lowest CV-MSR candidate; exact ties go to the larger (smoother) alpha."""
    return min(msr_by_alpha, key=lambda alpha: (msr_by_alpha[alpha], -alpha))
