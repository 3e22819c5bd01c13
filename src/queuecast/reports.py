"""Artifact serialization: fit records and evaluation reports as JSON with a
stable schema, plot-ready CSVs, and the aligned text table with significance
stars. All writers are deterministic: canonical key order, shortest
round-trip float rendering, no timestamps.

A JSON record's schema is its dataclass: ``record_to_dict`` writes the fields
beside ``schema_version``, and ``read_record`` reads them back, checking that
the top level is an object, that every field without a default is present,
and that each value has a JSON type its annotation allows. Any other input,
and a NaN or infinity in a JSON file, is a DataError that names the file (and
the key); a NaN can never be written to one.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import MISSING, asdict, fields, is_dataclass
from typing import Optional, Sequence, get_args, get_type_hints

import numpy as np

from .errors import DataError, NumericalError
from .evaluate import EvalReport, RocCurve
from .local import LocalLogisticFit
from .logistic import CRIT_95, CRIT_99, TestResult

SCHEMA_VERSION = 1

# the JSON values each field annotation accepts; bool is checked apart, since
# it is an int to Python but not a number to a record
_JSON_TYPES = {float: (int, float), int: int, bool: bool, str: str, list: list, dict: dict}


def write_json(path, obj) -> None:
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"{path}: {exc}") from None
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def read_json(path):
    def reject(constant):
        raise DataError(f"{path}: {constant} is not a JSON number")

    try:
        with open(path, "r", encoding="ascii") as fh:
            return json.load(fh, parse_constant=reject)
    except OSError as exc:  # missing, a directory, unreadable
        raise DataError(f"{path}: {exc.strerror}") from None
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def record_to_dict(rec) -> dict:
    """The JSON object of dataclass record ``rec``: its fields and the schema version."""
    return {"schema_version": SCHEMA_VERSION, **asdict(rec)}


def read_record(cls, path):
    """The ``cls`` record in JSON file ``path``, checked against its fields."""
    return _record(cls, read_json(path), path, "")


def _record(cls, obj, path, where: str):
    if not isinstance(obj, dict):
        what = f"key {where!r}" if where else "top level"
        raise DataError(f"{path}: {what}: expected a JSON object")
    hints = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        key = f"{where}.{f.name}" if where else f.name
        if f.name in obj:
            values[f.name] = _value(hints[f.name], obj[f.name], path, key)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise DataError(f"{path}: missing key {key!r}")
    return cls(**values)


def _value(tp, value, path, key: str):
    if type(None) in get_args(tp):  # Optional[X]
        if value is None:
            return None
        tp = next(arg for arg in get_args(tp) if arg is not type(None))
    if is_dataclass(tp):
        return _record(tp, value, path, key)
    if isinstance(value, bool) != (tp is bool) or not isinstance(value, _JSON_TYPES[tp]):
        raise DataError(f"{path}: key {key!r}: expected {tp.__name__}, got {value!r}")
    return value


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
                g, v = float(row[0]), float(row[1])
                if not (math.isfinite(g) and math.isfinite(v)):
                    raise DataError(
                        f"{path}, line {reader.line_num}: grid,fitted = {g},{v} is not finite"
                    )
                grid.append(g)
                fitted.append(v)
    except OSError as exc:  # missing, a directory, unreadable
        raise DataError(f"{path}: {exc.strerror}") from None
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
