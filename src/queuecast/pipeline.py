"""Pipeline orchestration: configuration, staged execution, artifacts.

A run is configured by a flat key=value text file (see DEFAULTS for the
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
import os
import shutil
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
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

DEFAULTS = {
    "config_version": "1",
    "source": "preset",  # preset | lobster
    "preset": "large-tick",
    "days": "252",
    "horizon": "",  # optional seconds override for preset runs
    "message_files": "",  # comma-separated, lobster mode
    "orderbook_files": "",  # optional comma-separated level-1 references
    "tick_size": "0.01",
    "instrument": "SIM",
    "session_open": "36000",
    "session_close": "55800",
    "sampling_mode": "uniform",  # uniform | event
    "subsample": "100",
    "train_frac": "0.8",
    "models": "logistic,local,null",
    "alphas": "0.5,0.65,0.8",
    "grid_points": "401",
    "cv_folds": "5",
    "seed": "7",
    "jobs": "1",
    "out_dir": "out",
    "data_dir": "",
}


@dataclass
class RunConfig:
    source: str
    preset: str
    days: int
    horizon: Optional[float]
    message_files: list[str]
    orderbook_files: list[str]
    tick_size: float
    instrument: str
    window: lb.SessionWindow
    sampling_mode: str
    subsample: int
    train_frac: float
    models: list[str]
    alphas: list[float]
    grid_points: int
    cv_folds: int
    seed: int
    jobs: int
    out_dir: str
    data_dir: str

    def resolved_items(self) -> list[tuple[str, str]]:
        return [
            ("config_version", str(CONFIG_VERSION)),
            ("source", self.source),
            ("preset", self.preset),
            ("days", str(self.days)),
            ("horizon", "" if self.horizon is None else repr(self.horizon)),
            ("message_files", ",".join(self.message_files)),
            ("orderbook_files", ",".join(self.orderbook_files)),
            ("tick_size", repr(self.tick_size)),
            ("instrument", self.instrument),
            ("session_open", str(self.window.open_s)),
            ("session_close", str(self.window.close_s)),
            ("sampling_mode", self.sampling_mode),
            ("subsample", str(self.subsample)),
            ("train_frac", repr(self.train_frac)),
            ("models", ",".join(self.models)),
            ("alphas", ",".join(repr(a) for a in self.alphas)),
            ("grid_points", str(self.grid_points)),
            ("cv_folds", str(self.cv_folds)),
            ("seed", str(self.seed)),
            ("jobs", str(self.jobs)),
            ("out_dir", self.out_dir),
            ("data_dir", self.data_dir),
        ]


def parse_config_text(text: str) -> dict:
    values = dict(DEFAULTS)
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
    if path is not None:
        try:
            text = Path(path).read_text(encoding="ascii")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        values = parse_config_text(text)
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = str(val)
    if os.environ.get(ENV_DATA_DIR):
        values["data_dir"] = os.environ[ENV_DATA_DIR]
    if os.environ.get(ENV_OUT_DIR):
        values["out_dir"] = os.environ[ENV_OUT_DIR]
    return _validate(values)


def _parse_num(values, key, cast, err):
    try:
        return cast(values[key])
    except ValueError:
        raise ConfigError(f"{key}: {err} (got {values[key]!r})") from None


def _validate(values: dict) -> RunConfig:
    if values["config_version"] != str(CONFIG_VERSION):
        raise ConfigError(f"unsupported config_version {values['config_version']!r}")
    source = values["source"]
    if source not in ("preset", "lobster"):
        raise ConfigError(f"source must be preset or lobster, got {source!r}")
    mode = values["sampling_mode"]
    if mode not in (sp.UNIFORM, sp.EVENT):
        raise ConfigError(f"sampling_mode must be uniform or event, got {mode!r}")
    days = _parse_num(values, "days", int, "expected integer")
    if days < 1:
        raise ConfigError("days must be >= 1")
    horizon = None
    if values["horizon"]:
        horizon = _parse_num(values, "horizon", float, "expected number")
        if horizon <= 0:
            raise ConfigError("horizon must be positive")
    subsample = _parse_num(values, "subsample", int, "expected integer")
    if subsample < 1:
        raise ConfigError("subsample must be >= 1")
    train_frac = _parse_num(values, "train_frac", float, "expected number")
    if not 0.0 < train_frac < 1.0:
        raise ConfigError(f"train_frac must lie in (0, 1), got {train_frac}")
    tick_size = _parse_num(values, "tick_size", float, "expected number")
    if tick_size <= 0:
        raise ConfigError("tick_size must be positive")
    open_s = _parse_num(values, "session_open", int, "expected integer seconds")
    close_s = _parse_num(values, "session_close", int, "expected integer seconds")
    if open_s >= close_s:
        raise ConfigError("session_open must precede session_close")
    models = [m for m in values["models"].split(",") if m]
    for m in models:
        if m not in ("logistic", "local", "null"):
            raise ConfigError(f"unknown model {m!r}")
    if not models:
        raise ConfigError("models must not be empty")
    try:
        alphas = [float(a) for a in values["alphas"].split(",") if a]
    except ValueError:
        raise ConfigError(f"alphas: expected numbers, got {values['alphas']!r}") from None
    if "local" in models:
        if not alphas:
            raise ConfigError("local model requires at least one alpha candidate")
        for a in alphas:
            if not 0.0 < a <= 1.0:
                raise ConfigError(f"alpha candidates must lie in (0, 1], got {a}")
    grid_points = _parse_num(values, "grid_points", int, "expected integer")
    if grid_points < 2:
        raise ConfigError("grid_points must be >= 2")
    cv_folds = _parse_num(values, "cv_folds", int, "expected integer")
    if cv_folds < 2:
        raise ConfigError("cv_folds must be >= 2")
    seed = _parse_num(values, "seed", int, "expected integer")
    if not 0 <= seed < 2**64:
        raise ConfigError("seed must fit in 64 bits")
    jobs = _parse_num(values, "jobs", int, "expected integer")
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    data_dir = values["data_dir"]
    message_files = []
    orderbook_files = []
    if source == "lobster":
        message_files = [f for f in values["message_files"].split(",") if f]
        if not message_files:
            raise ConfigError("lobster source requires message_files")
        orderbook_files = [f for f in values["orderbook_files"].split(",") if f]
        if orderbook_files and len(orderbook_files) != len(message_files):
            raise ConfigError("orderbook_files must pair one-to-one with message_files")
        message_files = [os.path.join(data_dir, f) if data_dir else f for f in message_files]
        orderbook_files = [os.path.join(data_dir, f) if data_dir else f for f in orderbook_files]
        for f in message_files + orderbook_files:
            if not os.path.exists(f):
                raise ConfigError(f"referenced file does not exist: {f}")
        days = len(message_files)
    else:
        if values["preset"] not in ("large-tick", "small-tick"):
            raise ConfigError(f"unknown preset {values['preset']!r}")
    return RunConfig(
        source=source,
        preset=values["preset"],
        days=days,
        horizon=horizon,
        message_files=message_files,
        orderbook_files=orderbook_files,
        tick_size=tick_size,
        instrument=values["instrument"],
        window=lb.SessionWindow(open_s, close_s),
        sampling_mode=mode,
        subsample=subsample,
        train_frac=train_frac,
        models=models,
        alphas=alphas,
        grid_points=grid_points,
        cv_folds=cv_folds,
        seed=seed,
        jobs=jobs,
        out_dir=values["out_dir"],
        data_dir=data_dir,
    )


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
    res = sim.simulate(preset_day_config(cfg, day))
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


def _lobster_day(cfg: RunConfig, day: int) -> DayOutcome:
    msg_path = cfg.message_files[day]
    try:
        msgs = list(lb.parse_messages(msg_path))
    except OSError as exc:
        raise DataError(f"cannot read {msg_path}: {exc}") from None
    want_l1 = bool(cfg.orderbook_files)
    res = lb.replay(msgs, tick_size=cfg.tick_size, window=cfg.window, record_l1=want_l1)
    mismatches = None
    if want_l1:
        ref = lb.parse_l1_file(cfg.orderbook_files[day])
        mismatches = len(lb.verify_against_l1(res.l1_rows, ref).mismatches)
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
    tasks = [(cfg, day) for day in range(cfg.days)]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as ex:
            return list(ex.map(_day_worker, tasks, chunksize=4))
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
    order = {"logistic": 0, "local": 1, "null": 2}
    reports = []
    fits = {}
    for model in sorted(cfg.models, key=order.get):
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


def run_pipeline(cfg: RunConfig) -> Path:
    """Execute sample -> fit -> evaluate -> report into a fresh directory.

    The output directory must not already contain files; on failure,
    everything written by this run is removed and the failing stage is named
    in the raised error.
    """
    out = Path(cfg.out_dir)
    if out.exists() and any(out.iterdir()):
        raise ConfigError(f"output directory {out} is not empty")
    out.mkdir(parents=True, exist_ok=True)
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
