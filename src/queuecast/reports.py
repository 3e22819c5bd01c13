"""Artifact serialization: fit records and evaluation reports as JSON with a
stable schema, plot-ready CSVs, and the aligned text table with significance
stars. All writers are deterministic: canonical key order, shortest
round-trip floats in JSON and ``%.12g`` in CSV (``write_csv``), no timestamps.

A JSON record's schema is its dataclass, and the records that ``report``
reads are defined here: ``LogisticFit``, ``TestResult`` and ``EvalReport``.
``record_to_dict`` writes the fields beside ``schema_version``, and
``read_record`` reads them back, checking that the top level is an object
whose ``schema_version`` is ``SCHEMA_VERSION``, that every field without a
default is present and no other key is, and that each value has a JSON type
its annotation allows, and for the fields that ``_RANGES`` names, a value in
their range. Any other input, and a NaN or infinity in a JSON file (a number
such as 1e999 reads as infinity), is a DataError naming the file (and the
key); neither is ever written to one.

The module imports no numpy, so that a process which only tabulates reports
does not load it.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence, TypeVar, get_args, get_type_hints

from .errors import ConfigError, DataError, NumericalError

if TYPE_CHECKING:
    from .local import LocalLogisticFit

SCHEMA_VERSION = 1
T = TypeVar("T")

CRIT_95 = 3.84  # chi-square(1) critical values
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


# the JSON values each field annotation accepts; bool is checked apart, since
# it is an int to Python but not a number to a record
_JSON_TYPES = {float: (int, float), int: int, bool: bool, str: str, list: list, dict: dict}
# the range that a field of a record read back must keep, by name
_RANGES = {**dict.fromkeys(("auc_in", "auc_out", "msr_in", "msr_out"), (0.0, 1.0, "in [0, 1]")),
           **dict.fromkeys(("n", "n_train", "n_test"), (1, math.inf, "at least 1")),
           **dict.fromkeys(("se0", "se1"), (math.ulp(0.0), math.inf, "positive"))}


def open_out(path, newline=None):
    """``path`` opened to write an artifact, as ``open(path, "w",
    encoding="ascii", newline=newline)`` opens it. A path that cannot be
    opened (a directory stands there, or a file where its directory should
    be), and a write or close that fails (a full disk), are a ConfigError
    naming it: the output location is at fault, not the data."""
    try:
        raw = _ArtifactFile(path, "w")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    return io.TextIOWrapper(io.BufferedWriter(raw), encoding="ascii", newline=newline)


class _ArtifactFile(io.FileIO):
    """The file under ``open_out``'s buffers, which writes to it a buffer at
    a time: an OSError in a write or at close becomes the ConfigError."""

    def write(self, data):
        try:
            return super().write(data)
        except OSError as exc:
            raise ConfigError(f"cannot write {self.name}: {exc.strerror}") from None

    def close(self):
        try:
            super().close()
        except OSError as exc:
            raise ConfigError(f"cannot write {self.name}: {exc.strerror}") from None


def make_dir(path) -> None:
    """Create the directory ``path`` and any missing parents, or reuse it; a
    file standing there, or one that cannot be made, is a ConfigError
    naming it."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create directory {path}: {exc.strerror}") from None


def write_text(path, text: str) -> None:
    with open_out(path) as fh:
        fh.write(text)


def write_json(path, obj) -> None:
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"{path}: {exc}") from None
    write_text(path, text)


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
    obj = read_json(path)
    if isinstance(obj, dict):
        if "schema_version" not in obj:
            raise DataError(f"{path}: missing key 'schema_version'")
        version = obj["schema_version"]
        if type(version) is not int or version != SCHEMA_VERSION:
            raise DataError(
                f"{path}: key 'schema_version': expected {SCHEMA_VERSION}, got {version!r}"
            )
    return _record(cls, obj, path, "")


def _record(cls, obj, path, where: str):
    if not isinstance(obj, dict):
        what = f"key {where!r}" if where else "top level"
        raise DataError(f"{path}: {what}: expected a JSON object")
    hints = get_type_hints(cls)
    prefix = f"{where}." if where else ""
    values = {}
    for f in fields(cls):
        if f.name in obj:
            values[f.name] = _value(hints[f.name], obj[f.name], path, prefix + f.name)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise DataError(f"{path}: missing key {prefix + f.name!r}")
    for name in obj:
        if name not in values and (where or name != "schema_version"):
            raise DataError(f"{path}: unknown key {prefix + name!r}")
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
    if isinstance(value, float) and not math.isfinite(value):
        raise DataError(f"{path}: key {key!r}: {value!r} is not finite")
    if key in _RANGES and not _RANGES[key][0] <= value <= _RANGES[key][1]:
        raise DataError(f"{path}: key {key!r}: {value!r} is not {_RANGES[key][2]}")
    return value


def read_local_curve_csv(path, alpha: float = float("nan")) -> LocalLogisticFit:
    """A local curve as ``stage_fit`` writes it: finite values,
    a strictly rising grid and fitted values in (0, 1), or a DataError
    naming the file and the line."""
    import numpy as np

    from .local import LocalLogisticFit

    last = -math.inf

    def point(row: list[str]) -> tuple[float, float]:
        nonlocal last
        g, v = float(row[0]), float(row[1])
        if not (math.isfinite(g) and math.isfinite(v)):
            raise ValueError(f"grid,fitted = {g},{v} is not finite")
        if not g > last:
            raise ValueError(f"grid = {row[0]} does not rise from {last!r}")
        if not 0.0 < v < 1.0:
            raise ValueError(f"fitted = {row[1]} is not in (0, 1)")
        last = g
        return g, v

    points = read_csv(path, ("grid", "fitted"), point)
    return LocalLogisticFit(np.array([g for g, _ in points]),
                            np.array([v for _, v in points]), alpha)


def write_csv(path, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """``header`` and then the rows of ``columns``, sequences of one length (a
    numpy array is read as its ``tolist()``), as the CSV file at ``path``, as
    ``read_csv`` reads it: comma-separated with CRLF row ends, a column whose
    first value is a float rendered as ``%.12g`` and any other column as ``str``."""
    columns = [tuple(col.tolist() if hasattr(col, "tolist") else col) for col in columns]
    # a float column is formatted in one % operation, its cells split at NULs
    cells = [("%.12g\0" * len(col) % col).split("\0")[:-1] if col and isinstance(col[0], float)
             else map(str, col) for col in columns]
    with open_out(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*cells))


def read_text(path) -> str:
    """The text of file ``path``, line ends as they stand; a file that cannot be
    read is a DataError naming it."""
    try:
        with open(path, "r", encoding="ascii", errors="surrogateescape", newline="") as fh:
            return fh.read()
    except OSError as exc:  # missing, a directory, unreadable
        raise DataError(f"{path}: {exc.strerror}") from None


def read_csv(path, header: Sequence[str], convert: Callable[[list[str]], T],
             text: Optional[str] = None) -> list[T]:
    """``convert`` of each row after ``header`` of the CSV file at ``path``,
    whose ``read_text`` is ``text`` when that is given. A file that cannot be
    read, another header, a row with a non-ASCII byte (decoded as
    ``lobster._open_lines`` does, so it is found at its line) or without one
    field a column, and a ValueError from ``convert`` are DataErrors naming
    the file (and the line)."""
    text = read_text(path) if text is None else text
    reader = csv.reader(io.StringIO(text, newline=""))
    ascii_text = text.isascii()  # else each row is checked
    try:
        if (first := next(reader, None)) != list(header):
            raise DataError(f"{path}: unexpected header {first}")
        converted = []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(row)}")
            if not ascii_text and not all(map(str.isascii, row)):
                raise ValueError("non-ASCII byte")
            converted.append(convert(row))
        return converted
    except (ValueError, csv.Error) as exc:
        raise DataError(f"{path}, line {reader.line_num}: {exc}") from None


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
    lines += [f"{rep.model_id}: alpha {rep.extra.get('alpha')} is the edge of the candidates"
              for rep in reports if rep.extra.get("alpha_at_edge")]
    lines.append("significance: * >= 3.84 (95%), ** >= 6.63 (99%), chi-square df=1")
    return "\n".join(lines) + "\n"
