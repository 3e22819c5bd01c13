"""Pipeline orchestration: configuration, staged execution, artifacts.

A run is configured by a flat key=value text file (see RunConfig for the
schema) plus a handful of CLI overrides. Stages communicate only through
the documented CSV/JSON interchange files inside the output directory, so
any stage can be rerun standalone and reproduces the full pipeline's
results bit for bit. Every run writes its resolved configuration and a
provenance block beside its outputs; nothing in an artifact depends on
wall-clock time, so identical (inputs, seed) give byte-identical output
directories.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, seeds
from . import evaluate as ev
from . import local as lo
from . import logistic as lg
from . import lobster as lb
from . import reports as rp
from . import sampling as sp
from . import simulate as sim
from .errors import ConfigError, DataError, NumericalError

ENV_DATA_DIR = "QUEUECAST_DATA_DIR"
ENV_OUT_DIR = "QUEUECAST_OUT_DIR"

CONFIG_VERSION = 1
MODELS = ("logistic", "local", "null")  # in report order


def _parser(cast, rule, ok=lambda value: True):
    """A field parser: ``cast`` the text and require ``ok``, else ValueError(rule)."""

    def parse(text: str):
        try:
            value = cast(text)
            if ok(value):
                return value
        except (ValueError, OverflowError):
            pass
        raise ValueError(rule)

    return parse


def _key(default: str, parse):
    return field(metadata={"default": default, "parse": parse})


def _names(text: str) -> list[str]:
    return [name for name in text.split(",") if name]


def _choice(*allowed: str):
    return _parser(str, "expected " + " or ".join(allowed), lambda v: v in allowed)


def _at_least(low: int):
    return _parser(int, f"expected an integer >= {low}", lambda v: v >= low)


_finite_positive = _parser(float, "expected a finite positive number",
                           lambda v: math.isfinite(v) and v > 0)


@dataclass
class RunConfig:
    """A validated run: the one declaration of every config key.

    Each field's metadata holds its default text and the parser that turns
    text into the value (ValueError for an out-of-range value). Rules that
    involve more than one key live in ``_validate``.
    """

    config_version: str = _key(str(CONFIG_VERSION), _choice(str(CONFIG_VERSION)))
    source: str = _key("preset", _choice("preset", "lobster"))
    preset: str = _key("large-tick", str)  # checked in preset mode only
    days: int = _key("252", _at_least(1))
    # optional seconds override for preset days
    horizon: Optional[float] = _key("", lambda t: _finite_positive(t) if t else None)
    message_files: list[str] = _key("", _names)
    orderbook_files: list[str] = _key("", _names)  # optional level-1 references
    tick_size: float = _key("0.01", _parser(
        _finite_positive, "expected a finite number of at least one price unit (0.0001)",
        lambda v: round(v * 10000) >= 1,
    ))
    instrument: str = _key("SIM", str)
    session_open: int = _key("36000", _parser(int, "expected integer seconds"))
    session_close: int = _key("55800", _parser(int, "expected integer seconds"))
    sampling_mode: str = _key(sp.UNIFORM, _choice(sp.UNIFORM, sp.EVENT))
    subsample: int = _key("100", _at_least(1))
    train_frac: float = _key(
        "0.8", _parser(float, "expected a number in (0, 1)", lambda v: 0.0 < v < 1.0)
    )
    models: list[str] = _key(
        ",".join(MODELS),
        _parser(_names, "expected a non-empty list of " + ", ".join(MODELS),
                lambda v: v and all(m in MODELS for m in v)),
    )
    alphas: list[float] = _key(
        "0.5,0.65,0.8", _parser(lambda t: [float(a) for a in _names(t)], "expected numbers")
    )
    grid_points: int = _key("401", _at_least(2))
    cv_folds: int = _key("5", _at_least(2))
    seed: int = _key("7", _parser(int, "expected a 64-bit unsigned integer",
                                  lambda v: 0 <= v < 2**64))
    jobs: int = _key("1", _at_least(1))
    out_dir: str = _key("out", str)
    data_dir: str = _key("", str)  # optional prefix for message/orderbook files

    @property
    def window(self) -> lb.SessionWindow:
        return lb.SessionWindow(self.session_open, self.session_close)

    def resolved_items(self) -> list[tuple[str, str]]:
        return [(f.name, _text(getattr(self, f.name))) for f in fields(self)]


def _text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    return str(value)


DEFAULTS = {f.name: f.metadata["default"] for f in fields(RunConfig)}


def parse_config_text(text: str) -> dict:
    return {**DEFAULTS, **_config_keys(text)}


def _config_keys(text: str) -> dict:
    """The keys a config text sets, as text."""
    values = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {line_no}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"config line {line_no}: unknown key {key!r}")
        values[key] = val.strip()
    return values


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> RunConfig:
    """Parse, apply CLI/env overrides, and validate a run configuration."""
    values = dict(DEFAULTS)
    # QUEUECAST_DATA_DIR stands in for a data_dir the file does not set; a
    # resolved config sets it (to empty, beside the joined paths)
    if os.environ.get(ENV_DATA_DIR):
        values["data_dir"] = os.environ[ENV_DATA_DIR]
    if path is not None:
        try:
            text = Path(path).read_text(encoding="ascii")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        values.update(_config_keys(text))
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = str(val)
    if os.environ.get(ENV_OUT_DIR):
        values["out_dir"] = os.environ[ENV_OUT_DIR]
    return _validate(values)


def _validate(values: dict) -> RunConfig:
    v = {}
    for f in fields(RunConfig):
        text = values[f.name]
        try:
            if not text.isascii():  # artifacts, resolved_config.txt included, are ASCII
                raise ValueError("expected ASCII text")
            v[f.name] = f.metadata["parse"](text)
        except ValueError as exc:
            raise ConfigError(f"{f.name}: {exc} (got {text!a})") from None
    if v["session_open"] >= v["session_close"]:
        raise ConfigError("session_open must precede session_close")
    alphas = v["alphas"]
    if "local" in v["models"] and not (alphas and all(0.0 < a <= 1.0 for a in alphas)):
        raise ConfigError(f"local model requires alpha candidates in (0, 1], got {alphas}")
    if v["source"] == "preset":
        sim.regime_preset(v["preset"])  # UnknownPreset is a ConfigError
        v["message_files"] = v["orderbook_files"] = []
        return RunConfig(**v)
    files = v["message_files"]
    if not files:
        raise ConfigError("lobster source requires message_files")
    if v["orderbook_files"] and len(v["orderbook_files"]) != len(files):
        raise ConfigError("orderbook_files must pair one-to-one with message_files")
    # record the joined paths, so that the resolved config loads the same files again
    for key in ("message_files", "orderbook_files"):
        v[key] = [os.path.join(v["data_dir"], f) for f in v[key]]
        for f in v[key]:
            if not os.path.exists(f):
                raise ConfigError(f"referenced file does not exist: {f}")
    v["days"], v["data_dir"] = len(files), ""
    return RunConfig(**v)


def write_resolved_config(cfg: RunConfig, out: Path) -> None:
    lines = [f"{k} = {v}" for k, v in cfg.resolved_items()]
    (out / "resolved_config.txt").write_text("\n".join(lines) + "\n", encoding="ascii")


# --- per-day work ----------------------------------------------------------------

@dataclass
class DayOutcome:
    day: int
    points: list[sp.SamplePoint]
    stats: lb.DayStats
    flags: dict
    verification_mismatches: Optional[int] = None


def preset_day_config(cfg: RunConfig, day: int) -> sim.ZiConfig:
    """The simulator configuration of preset day ``day`` of a run."""
    zi = sim.regime_preset(
        cfg.preset, seed=seeds.seed_for(cfg.seed, seeds.SIMULATE, day), horizon=cfg.horizon
    )
    return replace(zi, tick_size=cfg.tick_size, start_time_s=cfg.window.open_s)


def _simulated_day(cfg: RunConfig, day: int) -> DayOutcome:
    res = sim._session(preset_day_config(cfg, day), record=False)  # no messages, no level-1 rows
    close_ns = min(res.end_ns, cfg.window.close_ns)
    day_samples = sp.build_day_samples(
        res.timeline,
        res.first_event_ns,
        close_ns,
        cfg.sampling_mode,
        seeds.rng_for(cfg.seed, seeds.SAMPLING, day),
        instrument=cfg.instrument,
        day=day,
    )
    sub, short = sp.subsample_day(
        day_samples.points, cfg.subsample, seeds.rng_for(cfg.seed, seeds.SUBSAMPLE, day)
    )
    flags = _day_flags(day_samples, short)
    flags["side_depleted"] = res.side_depleted
    return DayOutcome(day, sub, res.stats, flags)


def read_lobster_day(
    cfg: RunConfig, day: int, keep_events: bool = False
) -> tuple[lb.ReplayResult, Optional[lb.VerificationReport]]:
    """Parse and replay LOBSTER day ``day``, and verify it if it has a level-1 file.

    A file that cannot be read is a DataError naming it, and so is every
    fault found in one.
    """
    path = cfg.message_files[day]
    try:
        msgs = list(lb.parse_messages(path))
        res = lb.replay(
            msgs, tick_size=cfg.tick_size, window=cfg.window,
            record_l1=bool(cfg.orderbook_files), keep_events=keep_events,
        )
        if not cfg.orderbook_files:
            return res, None
        path = cfg.orderbook_files[day]
        return res, lb.verify_against_l1(res.l1_rows, lb.parse_l1_file(path))
    except OSError as exc:
        raise DataError(f"cannot read day {day}: {exc}") from None
    except DataError as exc:
        raise exc.in_file(path)


def _lobster_day(cfg: RunConfig, day: int) -> DayOutcome:
    res, verification = read_lobster_day(cfg, day)
    mismatches = None if verification is None else len(verification.mismatches)
    if res.first_session_event_ns is None:
        day_samples = sp.DaySampleResult()
        sub, short = [], True
    else:
        day_samples = sp.build_day_samples(
            res.timeline,
            res.first_session_event_ns,
            cfg.window.close_ns,
            cfg.sampling_mode,
            seeds.rng_for(cfg.seed, seeds.SAMPLING, day),
            instrument=cfg.instrument,
            day=day,
        )
        sub, short = sp.subsample_day(
            day_samples.points, cfg.subsample, seeds.rng_for(cfg.seed, seeds.SUBSAMPLE, day)
        )
    flags = _day_flags(day_samples, short)
    flags["messages"] = res.counters.messages
    flags["hidden_volume"] = res.counters.hidden_volume
    flags["ignored_messages"] = res.counters.ignored_messages
    return DayOutcome(day, sub, res.stats, flags, mismatches)


def _day_flags(day_samples: sp.DaySampleResult, short: bool) -> dict:
    return {
        "mid_changes": day_samples.n_changes,
        "dropped_after_close": day_samples.dropped_after_close,
        "skipped_one_sided": day_samples.skipped_one_sided,
        "skipped_empty_interval": day_samples.skipped_empty_interval,
        "fallback_points": day_samples.fallback_points,
        "short_day": short,
    }


def _day_worker(args) -> DayOutcome:
    cfg, day = args
    return _simulated_day(cfg, day) if cfg.source == "preset" else _lobster_day(cfg, day)


def run_days(cfg: RunConfig) -> list[DayOutcome]:
    """Every day's outcome, in day order. With ``jobs`` > 1 each day is its
    own pool task, so a worker that finishes early takes the next day."""
    tasks = [(cfg, day) for day in range(cfg.days)]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as ex:
            return list(ex.map(_day_worker, tasks))
    return [_day_worker(t) for t in tasks]


# --- stages ----------------------------------------------------------------------

def stage_sample(cfg: RunConfig, out: Path) -> None:
    """Simulate or ingest every day, sample, subsample, and write samples.csv
    plus the per-day flag log and the summary-statistics record."""
    outcomes = run_days(cfg)
    points = [p for oc in outcomes for p in oc.points]
    sp.write_samples_csv(out / "samples.csv", points)
    nb = np.array([p.nb for p in points])
    na = np.array([p.na for p in points])
    if len(points) and nb.max(initial=0) > 0 and na.max(initial=0) > 0:
        rp.write_survivor_csv(
            out / "queue_survivor.csv",
            {"bid": ev.queue_survivor(nb), "ask": ev.queue_survivor(na)},
        )
    flags = {
        "schema_version": ev.SCHEMA_VERSION,
        "days": {str(oc.day): oc.flags for oc in outcomes},
        "total_points": len(points),
    }
    if cfg.orderbook_files:
        flags["verification_mismatches"] = {
            str(oc.day): oc.verification_mismatches for oc in outcomes
        }
    rp.write_json(out / "sampling_flags.json", flags)
    try:
        write_summary(out / "summary.json", [oc.stats for oc in outcomes], cfg.tick_size)
    except DataError:
        rp.write_json(out / "summary.json", {"schema_version": ev.SCHEMA_VERSION, "days": 0})


def write_summary(path: Path, day_stats: list[lb.DayStats], tick_size: float) -> None:
    """The summary-statistics record over all days; NoData if none is two-sided."""
    summary = lb.summary_stats(day_stats, tick_size=tick_size)
    rp.write_json(path, {"schema_version": ev.SCHEMA_VERSION, **asdict(summary)})


def _read_split(out: Path, points):
    path = out / "split.csv"
    try:
        rows = path.read_text(encoding="ascii").splitlines()
    except FileNotFoundError:
        raise DataError(f"{path}: no such file") from None
    if not rows or rows[0] != "index,subset":
        raise DataError(f"{path}: unexpected header {rows[:1]}")
    train, test = [], []
    for line_no, row in enumerate(rows[1:], start=2):
        idx, _, subset = row.partition(",")
        try:
            (train if subset == "train" else test).append(points[int(idx)])
        except (ValueError, IndexError) as exc:
            raise DataError(f"{path}, line {line_no}: {exc}") from None
    return train, test


def stage_fit(cfg: RunConfig, out: Path) -> None:
    """Split samples.csv and fit every configured model on the train part."""
    points = sp.read_samples_csv(out / "samples.csv")
    ds = sp.train_test_split(
        points, cfg.train_frac, seeds.rng_for(cfg.seed, seeds.SPLIT), seed=cfg.seed
    )
    index_of = {id(p): i for i, p in enumerate(points)}
    lines = ["index,subset"]
    for p in ds.train:
        lines.append(f"{index_of[id(p)]},train")
    for p in ds.test:
        lines.append(f"{index_of[id(p)]},test")
    (out / "split.csv").write_text("\n".join(lines) + "\n", encoding="ascii")

    fits_dir = out / "fits"
    fits_dir.mkdir(exist_ok=True)
    I_tr = np.array([p.imbalance for p in ds.train])
    y_tr = np.array([p.label for p in ds.train])
    if "logistic" in cfg.models or "local" in cfg.models:
        fit = lg.fit_logistic(I_tr, y_tr)
        rp.write_json(fits_dir / "logistic.json", rp.fit_to_dict(fit))
        nested = lg.fit_intercept_only(y_tr)
        rp.write_json(fits_dir / "intercept.json", rp.fit_to_dict(nested))
    if "local" in cfg.models:
        grid = lo.default_grid(cfg.grid_points)
        cv = lo.cv_bandwidth(
            I_tr, y_tr, cfg.alphas, k=cfg.cv_folds,
            rng=seeds.rng_for(cfg.seed, seeds.CV), grid=grid,
        )
        lfit = lo.fit_local_logistic(
            I_tr, y_tr, cv.alpha, grid=grid, train_ref=f"samples.csv@seed{cfg.seed}"
        )
        rp.write_local_curve_csv(fits_dir / "local_curve.csv", lfit)
        rp.write_json(
            fits_dir / "local_meta.json",
            {
                "schema_version": ev.SCHEMA_VERSION,
                "alpha": cv.alpha,
                "alpha_candidates": cfg.alphas,
                "cv_msr": {repr(k): v for k, v in cv.msr_by_alpha.items()},
                "cv_folds": cfg.cv_folds,
                "grid_points": cfg.grid_points,
                "train_ref": lfit.train_ref,
                "degenerate_grid_points": int(lfit.degenerate.sum()),
                "nonconverged_grid_points": int(lfit.nonconverged.sum()),
            },
        )


def stage_evaluate(cfg: RunConfig, out: Path) -> None:
    """Score every configured model in and out of sample; emit eval JSONs,
    ROC CSVs, and the descriptive histogram / survivor datasets."""
    points = sp.read_samples_csv(out / "samples.csv")
    train, test = _read_split(out, points)
    y_tr = np.array([p.label for p in train])
    y_te = np.array([p.label for p in test])
    I_tr = np.array([p.imbalance for p in train])
    I_te = np.array([p.imbalance for p in test])
    eval_dir = out / "eval"
    eval_dir.mkdir(exist_ok=True)

    edges, counts = ev.imbalance_histogram(np.array([p.imbalance for p in points]))
    rp.write_histogram_csv(eval_dir / "histogram.csv", edges, counts)

    if "logistic" in cfg.models:
        fit = rp.fit_from_dict(rp.read_json(out / "fits" / "logistic.json"))
        nested = rp.fit_from_dict(rp.read_json(out / "fits" / "intercept.json"))
        s_tr = lg.predict_logistic(fit, I_tr)
        s_te = lg.predict_logistic(fit, I_te)
        rep = ev.EvalReport(
            model_id="logistic",
            n_train=len(train),
            n_test=len(test),
            auc_in=ev.auc(s_tr, y_tr),
            auc_out=ev.auc(s_te, y_te),
            msr_in=ev.mean_squared_residual(s_tr, y_tr),
            msr_out=ev.mean_squared_residual(s_te, y_te),
            wald_x0=lg.wald_test(fit, "x0"),
            wald_x1=lg.wald_test(fit, "x1"),
            lr_full=lg.lr_test(fit, nested),
        )
        rp.write_json(eval_dir / "report_logistic.json", rp.report_to_dict(rep))
        rp.write_roc_csv(eval_dir / "roc_logistic_out.csv", ev.roc_curve(s_te, y_te))
    if "local" in cfg.models:
        meta = rp.read_json(out / "fits" / "local_meta.json")
        lfit = rp.read_local_curve_csv(
            out / "fits" / "local_curve.csv", alpha=meta["alpha"], train_ref=meta["train_ref"]
        )
        s_tr = lo.predict_local(lfit, I_tr)
        s_te = lo.predict_local(lfit, I_te)
        rep = ev.EvalReport(
            model_id="local",
            n_train=len(train),
            n_test=len(test),
            auc_in=ev.auc(s_tr, y_tr),
            auc_out=ev.auc(s_te, y_te),
            msr_in=ev.mean_squared_residual(s_tr, y_tr),
            msr_out=ev.mean_squared_residual(s_te, y_te),
            extra={"alpha": meta["alpha"]},
        )
        rp.write_json(eval_dir / "report_local.json", rp.report_to_dict(rep))
        rp.write_roc_csv(eval_dir / "roc_local_out.csv", ev.roc_curve(s_te, y_te))
    if "null" in cfg.models:
        rep = ev.null_model_report(y_tr, y_te)
        rp.write_json(eval_dir / "report_null.json", rp.report_to_dict(rep))


def stage_report(cfg: RunConfig, out: Path) -> None:
    """Collect eval JSONs into the human table and the combined report."""
    eval_dir = out / "eval"
    reports = []
    fits = {}
    for model in sorted(cfg.models, key=MODELS.index):
        reports.append(rp.report_from_dict(rp.read_json(eval_dir / f"report_{model}.json")))
        if model == "logistic":
            fits["logistic"] = rp.fit_from_dict(rp.read_json(out / "fits" / "logistic.json"))
    (out / "report.txt").write_text(rp.emit_report_text(reports, fits), encoding="ascii")
    combined = {
        "schema_version": ev.SCHEMA_VERSION,
        "provenance": provenance_block(cfg),
        "models": {r.model_id: rp.report_to_dict(r) for r in reports},
    }
    rp.write_json(out / "report.json", combined)


def provenance_block(cfg: RunConfig) -> dict:
    block = {
        "package_version": __version__,
        "config": {k: v for k, v in cfg.resolved_items() if k not in ("out_dir", "jobs")},
        "seed": cfg.seed,
    }
    if cfg.source == "lobster":
        block["input_sha256"] = {
            os.path.basename(f): _sha256(f)
            for f in cfg.message_files + cfg.orderbook_files
        }
    return block


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def fresh_out_dir(cfg: RunConfig) -> Path:
    """Create the run's output directory; one that already holds files is a ConfigError."""
    out = Path(cfg.out_dir)
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        raise ConfigError(f"output directory {out} is not an empty directory")
    return make_out_dir(cfg)


def make_out_dir(cfg: RunConfig) -> Path:
    """Create the run's output directory, or reuse an existing one."""
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from None
    return out


def run_pipeline(cfg: RunConfig) -> Path:
    """Execute sample -> fit -> evaluate -> report into a fresh directory.

    The output directory must not already contain files; on failure,
    everything written by this run is removed and the failing stage is named
    in the raised error.
    """
    out = fresh_out_dir(cfg)
    stagens = [
        ("sample", stage_sample),
        ("fit", stage_fit),
        ("evaluate", stage_evaluate),
        ("report", stage_report),
    ]
    try:
        write_resolved_config(cfg, out)
        for name, fn in stagens:
            try:
                fn(cfg, out)
            except (ConfigError, DataError, NumericalError) as exc:
                exc.stage = name
                raise
    except BaseException:
        for child in out.iterdir():
            if child.is_dir():
                shutil.rmtree(child)
            else:
                child.unlink()
        raise
    return out
