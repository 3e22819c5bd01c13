"""Artifact serialization: fit records and evaluation reports as JSON with a
stable schema, plot-ready CSVs, and the aligned text table with significance
stars. All writers are deterministic: canonical key order, shortest
round-trip float rendering, no timestamps."""

from __future__ import annotations

import csv
import json
from typing import Optional, Sequence

import numpy as np

from .errors import DataError
from .evaluate import EvalReport, RocCurve, SCHEMA_VERSION
from .local import LocalLogisticFit
from .logistic import CRIT_95, CRIT_99, LogisticFit, TestResult


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_canonical(obj))


def read_json(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DataError(f"{path}: no such file") from None
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def fit_to_dict(fit: LogisticFit) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "x0": fit.x0,
        "x1": fit.x1,
        "se0": fit.se0,
        "se1": fit.se1,
        "loglik": fit.loglik,
        "n": fit.n,
        "iterations": fit.iterations,
        "converged": fit.converged,
        "separated": fit.separated,
        "intercept_only": fit.intercept_only,
    }


def fit_from_dict(d: dict) -> LogisticFit:
    return LogisticFit(
        x0=d["x0"],
        x1=d["x1"],
        se0=d["se0"],
        se1=d["se1"],
        loglik=d["loglik"],
        n=d["n"],
        iterations=d["iterations"],
        converged=d["converged"],
        separated=d["separated"],
        intercept_only=d.get("intercept_only", False),
    )


def test_to_dict(res: Optional[TestResult]) -> Optional[dict]:
    if res is None:
        return None
    return {
        "statistic": res.statistic,
        "df": res.df,
        "p_value": res.p_value,
        "significant_95": res.significant_95,
        "significant_99": res.significant_99,
    }


def test_from_dict(d: Optional[dict]) -> Optional[TestResult]:
    if d is None:
        return None
    return TestResult(
        statistic=d["statistic"],
        df=d["df"],
        p_value=d["p_value"],
        significant_95=d["significant_95"],
        significant_99=d["significant_99"],
    )


def report_to_dict(rep: EvalReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "model_id": rep.model_id,
        "n_train": rep.n_train,
        "n_test": rep.n_test,
        "auc_in": rep.auc_in,
        "auc_out": rep.auc_out,
        "msr_in": rep.msr_in,
        "msr_out": rep.msr_out,
        "wald_x0": test_to_dict(rep.wald_x0),
        "wald_x1": test_to_dict(rep.wald_x1),
        "lr_full": test_to_dict(rep.lr_full),
        "extra": rep.extra,
    }


def report_from_dict(d: dict) -> EvalReport:
    return EvalReport(
        model_id=d["model_id"],
        n_train=d["n_train"],
        n_test=d["n_test"],
        auc_in=d["auc_in"],
        auc_out=d["auc_out"],
        msr_in=d["msr_in"],
        msr_out=d["msr_out"],
        wald_x0=test_from_dict(d["wald_x0"]),
        wald_x1=test_from_dict(d["wald_x1"]),
        lr_full=test_from_dict(d["lr_full"]),
        extra=d.get("extra", {}),
    )


def write_roc_csv(path, curve: RocCurve) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("fpr", "tpr"))
        for x, y in zip(curve.fpr, curve.tpr):
            w.writerow((f"{x:.12g}", f"{y:.12g}"))


def write_local_curve_csv(path, fit: LocalLogisticFit) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("grid", "fitted"))
        for g, v in zip(fit.grid, fit.fitted):
            w.writerow((f"{g:.12g}", f"{v:.12g}"))


def read_local_curve_csv(path, alpha: float = float("nan"), train_ref: str = "") -> LocalLogisticFit:
    grid = []
    fitted = []
    try:
        with open(path, "r", encoding="ascii", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["grid", "fitted"]:
                raise DataError(f"{path}: unexpected local curve header {header}")
            for row in reader:
                grid.append(float(row[0]))
                fitted.append(float(row[1]))
    except FileNotFoundError:
        raise DataError(f"{path}: no such file") from None
    except (ValueError, IndexError, csv.Error) as exc:
        raise DataError(f"{path}, line {reader.line_num}: {exc}") from None
    return LocalLogisticFit(np.array(grid), np.array(fitted), alpha, train_ref)


def write_histogram_csv(path, edges: np.ndarray, counts: np.ndarray) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("bin_left", "bin_right", "count"))
        for left, right, c in zip(edges[:-1], edges[1:], counts):
            w.writerow((f"{left:.12g}", f"{right:.12g}", int(c)))


def write_survivor_csv(path, named_series: dict) -> None:
    """named_series: {"bid": (values, survivor), "ask": (...)}."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("side", "queue_length", "survivor"))
        for name in sorted(named_series):
            values, surv = named_series[name]
            for v, s in zip(values, surv):
                w.writerow((name, int(v), f"{s:.12g}"))


def stars(statistic: Optional[float]) -> str:
    if statistic is None:
        return ""
    if statistic >= CRIT_99:
        return "**"
    if statistic >= CRIT_95:
        return "*"
    return ""


def _fmt_coef(value: Optional[float], se: Optional[float]) -> str:
    if value is None:
        return "-"
    if se is None:
        return f"{value:.4f}"
    return f"{value:.4f} ({se:.4f})"


def _fmt_stat(res: Optional[TestResult]) -> str:
    if res is None:
        return "-"
    return f"{res.statistic:.2f}{stars(res.statistic)}"


def _fmt_metric(v: Optional[float]) -> str:
    return "-" if v is None else f"{v:.4f}"


def emit_report_text(
    reports: Sequence[EvalReport],
    fits: Optional[dict] = None,
) -> str:
    """Aligned table over models: coefficients, tests, AUC and MSR columns.

    Stars mark chi-square(1) significance: * at 3.84 (95%), ** at 6.63 (99%).
    """
    fits = fits or {}
    header = (
        "model", "x0 (se)", "x1 (se)", "Wald x0", "Wald x1", "LR full",
        "AUC in", "AUC out", "MSR in", "MSR out",
    )
    rows = [header]
    for rep in reports:
        fit = fits.get(rep.model_id)
        rows.append(
            (
                rep.model_id,
                _fmt_coef(fit.x0 if fit else None, fit.se0 if fit else None),
                _fmt_coef(fit.x1 if fit else None, fit.se1 if fit else None),
                _fmt_stat(rep.wald_x0),
                _fmt_stat(rep.wald_x1),
                _fmt_stat(rep.lr_full),
                _fmt_metric(rep.auc_in),
                _fmt_metric(rep.auc_out),
                _fmt_metric(rep.msr_in),
                _fmt_metric(rep.msr_out),
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    lines.append("")
    lines.append("significance: * >= 3.84 (95%), ** >= 6.63 (99%), chi-square df=1")
    return "\n".join(lines) + "\n"
