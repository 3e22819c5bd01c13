"""Classifier scoring: ROC curves, AUC, mean squared residuals, and the
descriptive datasets (imbalance histograms, queue-length survivor
functions) emitted alongside the reports.

AUC uses the half-credit tie convention: observations whose score equals
the sweep threshold contribute a diagonal ROC segment, so the trapezoidal
area coincides exactly with the pairwise statistic
(#{score_pos > score_neg} + 0.5 #ties) / (n_pos * n_neg). The constant-1/2
null model therefore scores AUC 0.5 and mean squared residual 0.25 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import EmptyInput, OneClassOnly
from .logistic import TestResult


@dataclass
class RocCurve:
    """Threshold sweep points including the (0,0) and (1,1) endpoints."""

    fpr: np.ndarray
    tpr: np.ndarray


@dataclass
class EvalReport:
    model_id: str  # logistic | local | null
    n_train: int
    n_test: int
    auc_in: Optional[float]
    auc_out: Optional[float]
    msr_in: float
    msr_out: float
    wald_x0: Optional[TestResult] = None
    wald_x1: Optional[TestResult] = None
    lr_full: Optional[TestResult] = None
    extra: dict = field(default_factory=dict)


def _check_two_classes(labels: np.ndarray) -> tuple[int, int]:
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise OneClassOnly("ROC analysis needs both labels present")
    return n_pos, n_neg


def roc_curve(scores, labels) -> RocCurve:
    """ROC points swept over all distinct score values, highest first.

    Tied scores enter the confusion counts together, which draws the
    diagonal segment matching the predict-either-with-probability-1/2 rule
    at a threshold equal to the score.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    n_pos, n_neg = _check_two_classes(y)
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order].astype(float)
    # indices closing each tie group
    ends = np.flatnonzero(np.diff(s_sorted) != 0.0)
    ends = np.append(ends, len(s_sorted) - 1)
    cum_tp = np.cumsum(y_sorted)[ends]
    cum_fp = np.cumsum(1.0 - y_sorted)[ends]
    fpr = np.concatenate(([0.0], cum_fp / n_neg))
    tpr = np.concatenate(([0.0], cum_tp / n_pos))
    return RocCurve(fpr, tpr)


def auc_from_curve(curve: RocCurve) -> float:
    """Trapezoidal area under a ROC curve."""
    dx = np.diff(curve.fpr)
    mid = (curve.tpr[1:] + curve.tpr[:-1]) / 2.0
    return float(np.sum(dx * mid))


def auc(scores, labels) -> float:
    """Area under the ROC curve of these scores (half-credit ties)."""
    return auc_from_curve(roc_curve(scores, labels))


def mean_squared_residual(scores, labels) -> float:
    """Mean of (score - label)^2; 0.25 exactly for the constant-1/2 model."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=float)
    if len(s) == 0:
        raise EmptyInput("mean squared residual of an empty set")
    return float(np.mean((s - y) ** 2))


def null_scores(n: int) -> np.ndarray:
    return np.full(n, 0.5)


def null_model_report(labels_train, labels_test=None) -> EvalReport:
    """The uninformative constant-1/2 baseline.

    MSR is exactly 0.25 for any label vector; AUC is exactly 0.5 under the
    tie convention whenever both labels are present (None otherwise).
    """
    y_in = np.asarray(labels_train)
    y_out = np.asarray(labels_test) if labels_test is not None else y_in

    def _auc_or_none(y):
        try:
            return auc(null_scores(len(y)), y)
        except OneClassOnly:
            return None

    return EvalReport(
        model_id="null",
        n_train=len(y_in),
        n_test=len(y_out),
        auc_in=_auc_or_none(y_in),
        auc_out=_auc_or_none(y_out),
        msr_in=mean_squared_residual(null_scores(len(y_in)), y_in),
        msr_out=mean_squared_residual(null_scores(len(y_out)), y_out),
    )


def imbalance_histogram(values, bins: int = 201) -> tuple[np.ndarray, np.ndarray]:
    """Counts of imbalance observations over equal bins spanning [-1, 1].

    201 bins resolve the round-number atoms at 0 and +-1/3. Returns
    (edges, counts); the total count equals the number of observations.
    """
    if bins < 2:
        raise ValueError("need at least 2 bins")
    counts, edges = np.histogram(np.asarray(values, dtype=float), bins=bins, range=(-1.0, 1.0))
    return edges, counts


def queue_survivor(lengths) -> tuple[np.ndarray, np.ndarray]:
    """Exact empirical survivor function P(X > v) at the observed support.

    The implied step function is 1 below the smallest observation and 0 at
    and beyond the largest.
    """
    x = np.asarray(lengths)
    if len(x) == 0:
        raise EmptyInput("survivor function of an empty sample")
    if np.any(x < 0):
        raise ValueError("queue lengths must be nonnegative")
    values, counts = np.unique(x, return_counts=True)
    exceed = len(x) - np.cumsum(counts)
    return values, exceed / len(x)
