"""Pipeline orchestration: configuration, staged execution, artifacts.

A run is configured by a flat key=value text file (see RunConfig for the
schema) plus a handful of CLI overrides. Stages communicate only through
the documented CSV/JSON interchange files inside the output directory, so
any stage can be rerun standalone and reproduces the full pipeline's
results bit for bit. Every run writes its resolved configuration and a
provenance block beside its outputs; nothing in an artifact depends on
wall-clock time, so identical (inputs, seed) give byte-identical output
directories.

Each stage imports the modules it runs when it runs, so that a process that
runs one stage loads only those: configuration and ``stage_report`` need no
numpy, and ``stage_fit`` and ``stage_evaluate`` need no simulator, book or
LOBSTER reader.

``pool_map`` runs a run's independent units, the days of every stage and
the bandwidth CV's (alpha, fold) fits, on ``jobs`` workers forked from the
calling process; it loads no process-pool module.
"""

from __future__ import annotations

import os
import re
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

from . import __version__
from . import reports as rp
from .errors import ConfigError, DataError, NumericalError, TICK_SIZE_RULE, whole_price_units

if TYPE_CHECKING:
    from . import lobster as lb
    from . import sampling as sp
    from . import simulate as sim

ENV_DATA_DIR = "QUEUECAST_DATA_DIR"
ENV_OUT_DIR = "QUEUECAST_OUT_DIR"

CONFIG_VERSION = 1
MODELS = ("logistic", "local", "null")  # in report order
# spelled here so that validating a config loads neither module; a test holds
# them equal to sampling.UNIFORM/EVENT and to simulate's preset table
SAMPLING_MODES = ("uniform", "event")
PRESETS = ("large-tick", "small-tick")


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


_horizon = _parser(float, "expected seconds in (0, 86400]", lambda v: 0 < v <= 86400)


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
    horizon: Optional[float] = _key("", lambda t: _horizon(t) if t else None)
    message_files: list[str] = _key("", _names)
    orderbook_files: list[str] = _key("", _names)  # optional level-1 references
    tick_size: float = _key("0.01", _parser(float, "expected " + TICK_SIZE_RULE, whole_price_units))
    instrument: str = _key("SIM", str)
    session_open: int = _key("36000", _at_least(0))  # seconds after midnight
    session_close: int = _key("55800", _parser(int, "expected integer seconds"))
    sampling_mode: str = _key(SAMPLING_MODES[0], _choice(*SAMPLING_MODES))
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
        from .lobster import SessionWindow

        return SessionWindow(self.session_open, self.session_close)

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


def _config_keys(text: str, path=None) -> dict:
    """The keys a config text sets, as text; a fault names ``path``, the file
    the text was read from, where there is one."""
    where = "config" if path is None else f"{path},"
    values = {}
    for line_no, raw in enumerate(text.split("\n"), start=1):  # splitlines() also splits at \f
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{where} line {line_no}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"{where} line {line_no}: unknown key {key!r}")
        values[key] = val.strip()
    return values


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> RunConfig:
    """Parse, apply CLI/env overrides, and validate a run configuration. A bad
    value that the config file set names the file."""
    values = dict(DEFAULTS)
    file_keys: dict = {}
    # QUEUECAST_DATA_DIR stands in for a data_dir the file does not set; a
    # resolved config sets it (to empty, beside the joined paths)
    if os.environ.get(ENV_DATA_DIR):
        values["data_dir"] = os.environ[ENV_DATA_DIR]
    if path is not None:
        try:
            text = Path(path).read_text(encoding="ascii")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        file_keys = _config_keys(text, path)
        values.update(file_keys)
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = str(val)
            file_keys.pop(key, None)
    if os.environ.get(ENV_OUT_DIR):
        values["out_dir"] = os.environ[ENV_OUT_DIR]
        file_keys.pop("out_dir", None)
    return _validate(values, path, file_keys)


def _validate(values: dict, path=None, file_keys=()) -> RunConfig:
    """The RunConfig of ``values``; a bad value of one of ``file_keys``, the
    keys that the config file ``path`` set, names the file."""
    v = {}
    for f in fields(RunConfig):
        text = values[f.name]
        try:
            if not text.isascii():  # artifacts, resolved_config.txt included, are ASCII
                raise ValueError("expected ASCII text")
            v[f.name] = f.metadata["parse"](text)
        except ValueError as exc:
            where = f"{path}: " if f.name in file_keys else ""
            raise ConfigError(f"{where}{f.name}: {exc} (got {text!a})") from None
    if v["session_open"] >= v["session_close"]:
        raise ConfigError("session_open must precede session_close")
    alphas = v["alphas"]
    if "local" in v["models"] and not (alphas and all(0.0 < a <= 1.0 for a in alphas)):
        raise ConfigError(f"local model requires alpha candidates in (0, 1], got {alphas}")
    if v["source"] == "preset":
        if v["preset"] not in PRESETS:
            raise ConfigError(f"unknown regime preset {v['preset']!r}")
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
    rp.write_text(out / "resolved_config.txt", "\n".join(lines) + "\n")


# --- per-day work ----------------------------------------------------------------

@dataclass
class DayOutcome:
    day: int
    points: list[tuple]  # the subsampled points, as sampling makes them
    stats: lb.DayStats
    flags: dict
    verification_mismatches: Optional[int] = None


def preset_day_config(cfg: RunConfig, day: int) -> sim.ZiConfig:
    """The simulator configuration of preset day ``day`` of a run."""
    from . import seeds
    from . import simulate as sim

    zi = sim.regime_preset(
        cfg.preset, seed=seeds.seed_for(cfg.seed, seeds.SIMULATE, day), horizon=cfg.horizon
    )
    return replace(zi, tick_size=cfg.tick_size, start_time_s=cfg.session_open)


def _simulated_day(cfg: RunConfig, day: int) -> DayOutcome:
    from . import simulate as sim

    # no messages, no level-1 rows
    res = sim.simulate(preset_day_config(cfg, day), False, False, window=cfg.window)
    return _sampled_day(cfg, day, res, {"side_depleted": res.side_depleted})


def read_lobster_day(
    cfg: RunConfig, day: int, events: Optional[Callable[[tuple], None]] = None
) -> tuple[lb.ReplayResult, Optional[lb.VerificationReport]]:
    """Parse, replay and verify LOBSTER day ``day`` in one pass.

    Messages are parsed as replay pulls them. If the day has a level-1 file,
    each reconstructed row is checked against its next row as soon as replay
    makes it, and only the mismatches are kept. The book events go to the
    append target ``events``, if given. What the day keeps is the quote
    timeline that replay makes, the last quote of each nanosecond at which
    the quote changed.

    A file that cannot be read is a DataError naming it, and so is every
    fault found in one; of two faults, the first in reading order is raised.
    """
    from . import lobster as lb

    path = cfg.message_files[day]
    verifier = None
    if cfg.orderbook_files:
        l1_path = cfg.orderbook_files[day]
        verifier = lb.L1Verifier(l1_path, source=l1_path)
    try:
        res = lb.replay(
            lb.parse_messages(path), tick_size=cfg.tick_size, window=cfg.window,
            record_l1=verifier.check if verifier else None, keep_events=events,
        )
        return res, verifier.report(res.counters.messages) if verifier else None
    except OSError as exc:
        raise DataError(f"cannot read day {day}: {exc}") from None
    except DataError as exc:
        raise exc.in_file(path)  # a level-1 fault already names its file


def _lobster_day(cfg: RunConfig, day: int) -> DayOutcome:
    res, verification = read_lobster_day(cfg, day)
    counters = res.counters
    flags = {"messages": counters.messages, "hidden_volume": counters.hidden_volume,
             "ignored_messages": counters.ignored_messages}
    mismatches = None if verification is None else len(verification.mismatches)
    return _sampled_day(cfg, day, res, flags, mismatches)


def _sampled_day(
    cfg: RunConfig, day: int, res: lb.ReplayResult, flags: dict, mismatches: Optional[int] = None
) -> DayOutcome:
    """Sample and subsample the timeline of replay's result ``res`` from the
    day's first in-session event (none: the day has no points) up to the
    session close, adding the sampling counts to the day's ``flags``."""
    from . import sampling as sp
    from . import seeds

    if res.first_session_event_ns is None:
        day_samples = sp.DaySampleResult()
    else:
        day_samples = sp.build_day_samples(
            res.timeline, res.first_session_event_ns, cfg.window.close_ns, cfg.sampling_mode,
            seeds.rng_for(cfg.seed, seeds.SAMPLING, day),
        )
    sub, short = sp.subsample_day(
        day_samples.points, cfg.subsample, seeds.rng_for(cfg.seed, seeds.SUBSAMPLE, day)
    )
    flags.update(
        mid_changes=day_samples.n_changes,
        dropped_after_close=day_samples.dropped_after_close,
        skipped_one_sided=day_samples.skipped_one_sided,
        skipped_empty_interval=day_samples.skipped_empty_interval,
        fallback_points=day_samples.fallback_points,
        short_day=short,
    )
    return DayOutcome(day, sub, res.stats, flags, mismatches)


def run_days(cfg: RunConfig) -> list[DayOutcome]:
    """Every day's outcome, in day order, each day one task of ``pool_map``."""
    # the modules a day runs, numpy.random among them (seeds imports it),
    # loaded here so that forked workers inherit them
    from . import lobster, sampling, seeds  # noqa: F401

    if cfg.source == "preset":
        from . import simulate  # noqa: F401
    day_outcome = _simulated_day if cfg.source == "preset" else _lobster_day
    return pool_map(lambda day: day_outcome(cfg, day), range(cfg.days), cfg.jobs)


# --- the worker pool -------------------------------------------------------------

_SIGKILL = 9  # POSIX; os.fork exists only there


def pool_map(fn: Callable, tasks: Sequence, jobs: int) -> list:
    """``[fn(task) for task in tasks]``, on ``min(jobs, len(tasks))`` forked
    workers where that is two or more, else in process.

    Each worker inherits ``fn``, ``tasks`` and every loaded module from the
    fork, and only outcomes are pickled. A worker is handed its next task
    index once the parent has read its last outcome, so a worker that
    finishes early takes the next task, and one outcome at a time is in
    each worker's pipe. The results come back in task order. A failing task
    does not stop the others; once they are done, the first failure in task
    order is raised: the task's own exception, or ChildProcessError if its
    worker ended (killed, or by ``os._exit``) before reporting it. Every
    worker has been reaped when this returns or raises; on an interrupt, or
    any other error in the parent, they are killed first.
    """
    workers = min(jobs, len(tasks))
    if workers < 2 or not hasattr(os, "fork"):
        return [fn(task) for task in tasks]
    import pickle
    import selectors

    outcomes: list = [None] * len(tasks)  # (True, result) or (False, exception)
    todo = iter(range(len(tasks)))
    pool: dict[object, _Worker] = {}  # each live worker, by the file its outcomes come from
    statuses = []  # the wait status of each worker that has ended
    try:
        for _ in range(workers):
            (task_r, task_w), (result_r, result_w) = os.pipe(), os.pipe()
            if (pid := os.fork()) == 0:
                _serve(fn, tasks, task_r, result_w, [task_w, result_r])
            os.close(task_r)
            os.close(result_w)
            pool[open(result_r, "rb")] = _Worker(pid, task_w)
        with selectors.DefaultSelector() as sel:
            for results, w in pool.items():
                sel.register(results, selectors.EVENT_READ)
                w.send(next(todo, None))
            while sel.get_map():
                for key, _ in sel.select():
                    w = pool[key.fileobj]
                    try:
                        outcomes[w.task] = pickle.load(key.fileobj)
                        w.send(next(todo, None))
                    except (EOFError, pickle.UnpicklingError):  # the worker has ended
                        sel.unregister(key.fileobj)
                        del pool[key.fileobj]
                        key.fileobj.close()
                        statuses.append(w.end())
    except BaseException:
        for w in pool.values():
            os.kill(w.pid, _SIGKILL)
        raise
    finally:
        for results, w in pool.items():
            results.close()
            w.end()
    for outcome in outcomes:
        if outcome is None:  # its worker ended first
            unfinished = [str(i) for i, o in enumerate(outcomes) if o is None]
            code = next((c for c in map(os.waitstatus_to_exitcode, statuses) if c), 0)
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise ChildProcessError(f"a worker process {how} before task"
                                    f"{'s' * (len(unfinished) > 1)} {', '.join(unfinished)} finished")
        if not outcome[0]:
            raise outcome[1]
    return [result for _, result in outcomes]


class _Worker:
    """A forked ``pool_map`` worker: its pid, the pipe that takes it task
    indices, and the index of the task it runs."""

    def __init__(self, pid: int, tasks: int):
        self.pid, self.tasks, self.task = pid, tasks, None

    def send(self, task: Optional[int]) -> None:
        """Hand it task index ``task``; None: there is none left, and it ends."""
        self.task = task
        if task is None:
            os.close(self.tasks)
            self.tasks = None
        else:
            try:
                os.write(self.tasks, task.to_bytes(8, "little"))
            except BrokenPipeError:  # it has ended: its end-of-file reports the task lost
                pass

    def end(self) -> int:
        """Close its pipe, reap it, and return its wait status."""
        if self.tasks is not None:
            os.close(self.tasks)
            self.tasks = None
        return os.waitpid(self.pid, 0)[1]


def _serve(fn: Callable, tasks: Sequence, task_r: int, result_w: int, inherited: list[int]):
    """A forked worker's life: close the parent's ends of its pipes,
    ``inherited``, run each task whose index comes in on ``task_r``, write
    its outcome to ``result_w``, and exit at the end of the indices, never
    returning into the parent's stack. (An earlier sibling's task pipe,
    held here too, ends when this worker does.)"""
    status = 1
    try:
        import pickle  # loaded by pool_map before the fork

        for fd in inherited:
            os.close(fd)
        with open(result_w, "wb") as out:
            while index := os.read(task_r, 8):  # written 8 bytes at a time
                try:
                    outcome = (True, fn(tasks[int.from_bytes(index, "little")]))
                except BaseException as exc:
                    outcome = (False, exc)
                pickle.dump(outcome, out, pickle.HIGHEST_PROTOCOL)
                out.flush()
        status = 0
    finally:
        os._exit(status)


# --- stages ----------------------------------------------------------------------

def stage_sample(cfg: RunConfig, out: Path) -> None:
    """Simulate or ingest every day, sample, subsample, and write samples.csv
    plus the per-day flag log and the summary-statistics record."""
    import numpy as np

    from . import evaluate as ev
    from . import sampling as sp

    outcomes = run_days(cfg)
    points = [p for oc in outcomes for p in oc.points]
    sp.write_samples_csv(out / "samples.csv", points, cfg.instrument,
                         [oc.day for oc in outcomes for _ in oc.points])
    nb = np.array([p[4] for p in points])
    na = np.array([p[5] for p in points])
    if nb.max(initial=0) > 0 and na.max(initial=0) > 0:
        (v_ask, s_ask), (v_bid, s_bid) = ev.queue_survivor(na), ev.queue_survivor(nb)
        rp.write_csv(out / "queue_survivor.csv", ("side", "queue_length", "survivor"),
                     (["ask"] * len(v_ask) + ["bid"] * len(v_bid),
                      np.concatenate((v_ask, v_bid)), np.concatenate((s_ask, s_bid))))
    flags = {
        "schema_version": rp.SCHEMA_VERSION,
        "days": {str(oc.day): oc.flags for oc in outcomes},
        "total_points": len(points),
    }
    if cfg.orderbook_files:
        flags["verification_mismatches"] = {
            str(oc.day): oc.verification_mismatches for oc in outcomes
        }
    rp.write_json(out / "sampling_flags.json", flags)
    write_summary(out / "summary.json", [oc.stats for oc in outcomes], cfg.tick_size)


def write_summary(path: Path, day_stats: list[lb.DayStats], tick_size: float) -> None:
    """The summary-statistics record over all days (at least one)."""
    from . import lobster as lb

    rp.write_json(path, rp.record_to_dict(lb.summary_stats(day_stats, tick_size=tick_size)))


_SPLIT = re.compile(r"index,subset\n(?:[0-9]{1,18}+,t(?:rain|est)\n)*+")


def _read_split(path: Path, n: int):
    """The train and the test row indices that split.csv lists, as arrays. It
    must list each of the ``n`` rows of samples.csv once, as train or test. A
    file not as stage_fit writes it is read a row at a time, to find the fault."""
    import numpy as np

    text = rp.read_text(path)
    if _SPLIT.fullmatch(text):
        body = text[len("index,subset\n"):].replace(",train\n", ",1,").replace(",test\n", ",0,")
        index, train = np.fromstring(body[:-1], dtype=np.int64, sep=",").reshape(-1, 2).T
        if np.array_equal(np.sort(index), np.arange(n)):  # each row once
            return index[train == 1].astype(np.intp), index[train == 0].astype(np.intp)
    parts = {"train": [], "test": []}
    listed = bytearray(n)

    def entry(row: list[str]) -> None:
        i, subset = int(row[0]), row[1]
        if not 0 <= i < n:
            raise ValueError("list index out of range")
        if subset not in parts:
            raise ValueError(f"subset {subset!r} is not train or test")
        if listed[i]:
            raise ValueError(f"row {i} is listed twice")
        listed[i] = 1
        parts[subset].append(i)

    if (rows := len(rp.read_csv(path, ("index", "subset"), entry, text))) != n:
        raise DataError(f"{path}: lists {rows} of the {n} rows of samples.csv")
    return np.array(parts["train"], dtype=np.intp), np.array(parts["test"], dtype=np.intp)


@dataclass
class LocalMeta:
    """``fits/local_meta.json``: the cross-validated bandwidth of the local
    fit, what the CV ran over, and the fit's grid diagnostics."""

    alpha: float
    alpha_candidates: list
    cv_msr: dict  # repr(alpha) -> cross-validated mean squared residual
    cv_folds: int
    grid_points: int
    train_ref: str
    degenerate_grid_points: int
    nonconverged_grid_points: int
    alpha_at_edge: bool  # the smallest or the largest of two or more candidates
    newton_iterations: int  # the final fit's, summed over its grid points


def stage_fit(cfg: RunConfig, out: Path) -> None:
    """Split samples.csv and fit every configured model on the train part."""
    from . import local as lo
    from . import logistic as lg
    from . import sampling as sp
    from . import seeds

    samples = sp.read_samples_csv(out / "samples.csv")
    train, test = sp.split_indices(
        len(samples), cfg.train_frac, seeds.rng_for(cfg.seed, seeds.SPLIT)
    )
    lines = ["index,subset", *(f"{i},train" for i in train), *(f"{i},test" for i in test)]
    rp.write_text(out / "split.csv", "\n".join(lines) + "\n")

    fits_dir = out / "fits"
    rp.make_dir(fits_dir)
    I_tr = samples.imbalance[train]
    y_tr = samples.label[train]
    if "logistic" in cfg.models or "local" in cfg.models:
        fit = lg.fit_logistic(I_tr, y_tr)
        if not fit.converged or fit.separated:
            why = " and ".join(text for text, failed in (("did not converge", not fit.converged),
                                                         ("is separated", fit.separated)) if failed)
            raise NumericalError(f"global logistic fit {why} after {fit.iterations} iterations")
        rp.write_json(fits_dir / "logistic.json", rp.record_to_dict(fit))
        nested = lg.fit_intercept_only(y_tr)
        rp.write_json(fits_dir / "intercept.json", rp.record_to_dict(nested))
    if "local" in cfg.models:
        grid = lo.default_grid(cfg.grid_points)
        cv = lo.cv_bandwidth(
            I_tr, y_tr, cfg.alphas, k=cfg.cv_folds,
            rng=seeds.rng_for(cfg.seed, seeds.CV), grid=grid, jobs=cfg.jobs,
        )
        lfit = lo.fit_local_logistic(I_tr, y_tr, cv.alpha, grid=grid)
        rp.write_csv(fits_dir / "local_curve.csv", ("grid", "fitted"), (lfit.grid, lfit.fitted))
        meta = LocalMeta(
            alpha=cv.alpha,
            alpha_candidates=cfg.alphas,
            cv_msr={repr(k): v for k, v in cv.msr_by_alpha.items()},
            cv_folds=cfg.cv_folds,
            grid_points=cfg.grid_points,
            train_ref=f"samples.csv@seed{cfg.seed}",
            degenerate_grid_points=int(lfit.degenerate.sum()),
            nonconverged_grid_points=int(lfit.nonconverged.sum()),
            alpha_at_edge=(len(set(cfg.alphas)) > 1
                           and cv.alpha in (min(cfg.alphas), max(cfg.alphas))),
            newton_iterations=lfit.newton_iterations,
        )
        rp.write_json(fits_dir / "local_meta.json", rp.record_to_dict(meta))


def stage_evaluate(cfg: RunConfig, out: Path) -> None:
    """Score every configured model in and out of sample; emit eval JSONs,
    ROC CSVs, and the descriptive histogram / survivor datasets."""
    from . import evaluate as ev
    from . import local as lo
    from . import logistic as lg
    from . import sampling as sp

    samples = sp.read_samples_csv(out / "samples.csv")
    train, test = _read_split(out / "split.csv", len(samples))
    y_tr = samples.label[train]
    y_te = samples.label[test]
    I_tr = samples.imbalance[train]
    I_te = samples.imbalance[test]
    eval_dir = out / "eval"
    rp.make_dir(eval_dir)

    edges, counts = ev.imbalance_histogram(samples.imbalance)
    rp.write_csv(eval_dir / "histogram.csv", ("bin_left", "bin_right", "count"),
                 (edges[:-1], edges[1:], counts))

    if "logistic" in cfg.models:
        fit = rp.read_record(rp.LogisticFit, out / "fits" / "logistic.json")
        nested = rp.read_record(rp.LogisticFit, out / "fits" / "intercept.json")
        _write_eval(
            eval_dir, "logistic",
            lg.predict_logistic(fit, I_tr), y_tr, lg.predict_logistic(fit, I_te), y_te,
            wald_x0=lg.wald_test(fit, "x0"),
            wald_x1=lg.wald_test(fit, "x1"),
            lr_full=lg.lr_test(fit, nested),
        )
    if "local" in cfg.models:
        meta = rp.read_record(LocalMeta, out / "fits" / "local_meta.json")
        curve = out / "fits" / "local_curve.csv"
        lfit = rp.read_local_curve_csv(curve, alpha=meta.alpha)
        if len(lfit.grid) != meta.grid_points:
            raise DataError(
                f"{curve}: {len(lfit.grid)} grid points, where local_meta.json has "
                f"{meta.grid_points}"
            )
        if (lfit.grid[0], lfit.grid[-1]) != (-1.0, 1.0):
            raise DataError(f"{curve}: grid spans [{lfit.grid[0]}, {lfit.grid[-1]}], not [-1, 1]")
        _write_eval(
            eval_dir, "local",
            lo.predict_local(lfit, I_tr), y_tr, lo.predict_local(lfit, I_te), y_te,
            extra={"alpha": meta.alpha, "alpha_at_edge": meta.alpha_at_edge},
        )
    if "null" in cfg.models:
        rep = ev.null_model_report(y_tr, y_te)
        rp.write_json(eval_dir / "report_null.json", rp.record_to_dict(rep))


def _write_eval(eval_dir: Path, model_id: str, s_tr, y_tr, s_te, y_te, **rest) -> None:
    """Score one model's train and test predictions; write its report JSON and
    its out-of-sample ROC CSV. ``rest`` holds the report's remaining fields."""
    from . import evaluate as ev

    rep = rp.EvalReport(
        model_id=model_id,
        n_train=len(y_tr),
        n_test=len(y_te),
        auc_in=ev.auc(s_tr, y_tr),
        auc_out=ev.auc(s_te, y_te),
        msr_in=ev.mean_squared_residual(s_tr, y_tr),
        msr_out=ev.mean_squared_residual(s_te, y_te),
        **rest,
    )
    rp.write_json(eval_dir / f"report_{model_id}.json", rp.record_to_dict(rep))
    roc = ev.roc_curve(s_te, y_te)
    rp.write_csv(eval_dir / f"roc_{model_id}_out.csv", ("fpr", "tpr"), (roc.fpr, roc.tpr))


def stage_report(cfg: RunConfig, out: Path) -> None:
    """Collect eval JSONs into the human table and the combined report."""
    eval_dir = out / "eval"
    reports = []
    fits = {}
    for model in sorted(cfg.models, key=MODELS.index):
        reports.append(rp.read_record(rp.EvalReport, eval_dir / f"report_{model}.json"))
        if model == "logistic":
            fits["logistic"] = rp.read_record(rp.LogisticFit, out / "fits" / "logistic.json")
    provenance = provenance_block(cfg)  # before any write: an unreadable input writes neither file
    rp.write_text(out / "report.txt", rp.emit_report_text(reports, fits))
    combined = {
        "schema_version": rp.SCHEMA_VERSION,
        "provenance": provenance,
        "models": {r.model_id: rp.record_to_dict(r) for r in reports},
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
    import hashlib

    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    except OSError as exc:  # missing, a directory, unreadable
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    return h.hexdigest()


@contextmanager
def fresh_out_dir(cfg: RunConfig) -> Iterator[Path]:
    """The run's output directory, created with its ``resolved_config.txt``.

    A directory that already holds files (or a file standing there) is a
    ConfigError, and is left as it is. If the block raises, everything in
    the directory is removed, so that the same command can be rerun into
    it, and the error is raised as the block raised it.
    """
    out = Path(cfg.out_dir)
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        raise ConfigError(f"output directory {out} is not an empty directory")
    rp.make_dir(out)
    try:
        write_resolved_config(cfg, out)
        yield out
    except BaseException:
        for child in out.iterdir():
            if child.is_dir():
                shutil.rmtree(child)
            else:
                child.unlink()
        raise


def run_pipeline(cfg: RunConfig) -> Path:
    """Execute sample -> fit -> evaluate -> report in ``fresh_out_dir``: a
    failed run leaves the directory empty."""
    with fresh_out_dir(cfg) as out:
        for stage in (stage_sample, stage_fit, stage_evaluate, stage_report):
            stage(cfg, out)
    return out
