"""Traced run of one workload: per-layer metrics from spans around public calls.

    python3 trace.py WORKLOAD SECONDS OUT.json      (run.py starts it)

Runs in the workload's work directory after run.py has made the inputs
with the CLI. It imports queuecast and replaces module attributes (the
pipeline stages, simulate.simulate, lobster.parse_messages, ...) with
wrappers that record a span per call: wall time, the time its child spans
cover, and work counts read from the return value. Callers look these
attributes up at call time, so the program's own calls go through the
wrappers; nothing under src/ changes. Everything runs with jobs=1 so that
every span is in this process.

Order: (1) the untraced day loop at the workload's own jobs, for days/s,
parallel efficiency and peak RSS; (2) the traced set-up; (3) untraced and
traced operations in alternation for SECONDS; (4) small standalone
measurements of the layers the operation does not reach, on this
workload's own data. Layer shares and span coverage come from (3) only.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from workloads import FIT_ALPHAS, FIT_CV_FOLDS, FIT_GRID_POINTS, LOB_DAYS, SRC, read_split

sys.path.insert(0, str(SRC))

from queuecast import book as bk  # noqa: E402
from queuecast import cli  # noqa: E402
from queuecast import evaluate as ev  # noqa: E402
from queuecast import lobster as lb  # noqa: E402
from queuecast import local as lo  # noqa: E402
from queuecast import logistic as lg  # noqa: E402
from queuecast import pipeline as pl  # noqa: E402
from queuecast import sampling as sp  # noqa: E402
from queuecast import seeds  # noqa: E402
from queuecast import simulate as sim  # noqa: E402


def _distinct(args) -> int:
    return len(np.unique(np.asarray(args[0], dtype=float)))


# (module, attribute, layer, counts taken from (args, result))
WRAPPED = [
    (pl, "stage_sample", "pipeline", None),
    (pl, "stage_fit", "pipeline", None),
    (pl, "stage_evaluate", "pipeline", None),
    (pl, "stage_report", "pipeline", None),
    (pl, "run_days", "pipeline", lambda a, r: {"days": len(r)}),
    (sim, "simulate", "simulate", lambda a, r: {"messages": len(r.messages)}),
    (lb, "parse_messages", "lobster", lambda a, r: {"messages": len(r)}),
    (lb, "parse_l1_file", "lobster", lambda a, r: {"rows": len(r)}),
    (lb, "replay", "lobster", lambda a, r: {"messages": r.counters.messages}),
    (lb, "verify_against_l1", "lobster", lambda a, r: {"rows": r.checked}),
    (sp, "build_day_samples", "sampling", lambda a, r: {
        "days": 1, "changes": r.n_changes, "points": len(r.points),
        "fallback": r.fallback_points}),
    (sp, "subsample_day", "sampling", None),
    (sp, "write_samples_csv", "sampling", lambda a, r: {"rows": len(a[1])}),
    (sp, "read_samples_csv", "sampling", lambda a, r: {"rows": len(r)}),
    (lg, "fit_logistic", "logistic", lambda a, r: {"iterations": r.iterations}),
    (lo, "cv_bandwidth", "local", None),
    (lo, "fit_local_logistic", "local", lambda a, r: {
        "grid": len(r.grid), "degenerate": int(r.degenerate.sum()), "n": len(a[0]),
        "distinct": _distinct(a)}),
    (lo, "predict_local", "local", lambda a, r: {"points": int(np.size(r))}),
    (ev, "roc_curve", "evaluate", lambda a, r: {"points": len(a[0])}),
    (ev, "auc", "evaluate", None),
]
LAYER = {f"{m.__name__.rsplit('.', 1)[1]}.{attr}": layer for m, attr, layer, _ in WRAPPED}
LAYERS = ("simulate", "lobster", "sampling", "logistic", "local", "evaluate", "pipeline")


class Tracer:
    """Span recorder installed over module attributes; spans stay in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._saved: list[tuple] = []
        self.mle = {"calls": 0, "nonconverged": 0}

    @contextmanager
    def region(self, root: str):
        """Install the wrappers and record everything inside under one root span."""
        self.install()
        span = self._open(root)
        try:
            yield span
        finally:
            self._close(span)
            self.uninstall()

    def _open(self, name: str) -> dict:
        parent = self._stack[-1] if self._stack else None
        span = {"name": name, "root": parent["root"] if parent else name, "child_ns": 0,
                "counts": {}, "t0": time.perf_counter_ns()}
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["ns"] = time.perf_counter_ns() - span["t0"]
        self._stack.pop()
        if self._stack:
            self._stack[-1]["child_ns"] += span["ns"]
        self.spans.append(span)

    def _wrap(self, name, fn, count):
        materialise = name == "lobster.parse_messages"  # a generator: time it until consumed

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if materialise:
                    result = list(result)
            finally:
                self._close(span)
            if count is not None:
                span["counts"] = count(args, result)
            return iter(result) if materialise else result

        return wrapper

    def _count_mle(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.mle["calls"] += 1
            self.mle["nonconverged"] += not result[4]
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, _layer, count in WRAPPED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            name = f"{module.__name__.rsplit('.', 1)[1]}.{attr}"
            setattr(module, attr, self._wrap(name, fn, count))
        self._saved.append((lo, "weighted_logistic_mle", lo.weighted_logistic_mle))
        lo.weighted_logistic_mle = self._count_mle(lo.weighted_logistic_mle)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


# --- the workload's steps, in process ---------------------------------------------


def load(path: str, **overrides) -> pl.RunConfig:
    return pl.load_config(path, {k: str(v) for k, v in overrides.items()})


def staged(cfg: pl.RunConfig, *stages: str) -> None:
    """What `queuecast <stage>` does, one stage after another."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for stage in stages:
        pl.write_resolved_config(cfg, out)
        getattr(pl, stage)(cfg, out)


def setup(name: str) -> None:
    shutil.rmtree("inputs", ignore_errors=True)
    if name == "lobster-small-tick":
        cfg = load(None, preset="small-tick", seed=seed_of(), days=LOB_DAYS, out_dir="inputs")
        cli.cmd_simulate(cfg)
    elif name == "fit-local-cv":
        staged(load("sample.cfg", out_dir="inputs", jobs=1), "stage_sample")


def operation(name: str, out: str) -> None:
    if name == "fit-local-cv":
        Path(out).mkdir(parents=True)
        shutil.copyfile("inputs/samples.csv", Path(out) / "samples.csv")
        staged(load("run.cfg", out_dir=out), "stage_fit", "stage_evaluate", "stage_report")
    else:
        pl.run_pipeline(load("run.cfg", out_dir=out, jobs=1))


def seed_of() -> int:
    # parsed without validation: the inputs run.cfg names may not exist yet
    return int(pl.parse_config_text(Path("run.cfg").read_text(encoding="ascii"))["seed"])


def day_loop(name: str) -> dict:
    """Untraced run_days at the workload's own jobs setting."""
    cfg = load("sample.cfg" if name == "fit-local-cv" else "run.cfg")
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    days = len(pl.run_days(cfg))
    wall = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = sum(
        (b.ru_utime + b.ru_stime) - (a.ru_utime + a.ru_stime)
        for a, b in ((self0, self1), (kids0, kids1))
    )
    return {
        "pipeline.days_per_s": (days / wall, "1/s"),
        "pipeline.parallel_eff": (cpu / (wall * cfg.jobs), "ratio"),
        "pipeline.peak_rss_mb": (max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0, "MB"),
    }


def book_apply(msgs, tick_size: float) -> dict:
    events = lb.messages_to_events(msgs, tick_size=tick_size)
    per_event = []
    for _ in range(3):
        ob = bk.OrderBook(tick_size=tick_size)
        apply = ob.apply
        t0 = time.perf_counter_ns()
        for event in events:
            apply(event)
        per_event.append((time.perf_counter_ns() - t0) / 1e3 / len(events))
    return {
        "book.apply_us_per_event": (statistics.median(per_event), "us"),
        "book.events": (len(events), "count"),
    }


def standalone(name: str, tracer: Tracer, last_op: Path) -> dict:
    """Layers the workload's operation does not reach, on its own data."""
    seed = seed_of()
    cfg = load("run.cfg")
    if name == "lobster-small-tick":
        msgs = list(lb.parse_messages("inputs/day000_message.csv"))
    else:
        res = sim.simulate(
            sim.regime_preset("large-tick", seed=seeds.seed_for(seed, seeds.SIMULATE, 0))
        )
        msgs = res.messages
        Path("standalone").mkdir(exist_ok=True)
        lb.write_messages("standalone/message.csv", msgs)
        lb.write_l1_file("standalone/orderbook.csv", res.l1_rows)
        with tracer.region("standalone"):
            parsed = lb.parse_messages("standalone/message.csv")
            reference = lb.parse_l1_file("standalone/orderbook.csv")
            replayed = lb.replay(parsed, tick_size=cfg.tick_size, window=cfg.window, record_l1=True)
            lb.verify_against_l1(replayed.l1_rows, reference)
    if name != "fit-local-cv":
        (I_tr, y_tr), (I_te, _) = read_split(last_op)
        grid = lo.default_grid(FIT_GRID_POINTS)
        alphas = [float(a) for a in FIT_ALPHAS.split(",")]
        with tracer.region("standalone"):
            cv = lo.cv_bandwidth(I_tr, y_tr, alphas, k=FIT_CV_FOLDS,
                                 rng=seeds.rng_for(seed, seeds.CV), grid=grid)
            lo.predict_local(lo.fit_local_logistic(I_tr, y_tr, cv.alpha, grid=grid), I_te)
    return book_apply(msgs, cfg.tick_size)


# --- per-layer metrics from the spans ------------------------------------------------


def layer_metrics(tracer: Tracer, untraced: list[float], traced: list[float]) -> dict:
    calls, total, self_ns, counts = {}, {}, {}, {}
    for s in tracer.spans:
        name = s["name"]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0) + s["ns"]
        self_ns[name] = self_ns.get(name, 0) + s["ns"] - s["child_ns"]
        for k, v in s["counts"].items():
            counts[(name, k)] = counts.get((name, k), 0) + v

    def n(name, key=None):
        return max(calls.get(name, 0) if key is None else counts.get((name, key), 0), 1)

    def per(ns_total, unit_ns, denominator):
        return ns_total / unit_ns / denominator

    fits = [s for s in tracer.spans if s["name"] == "local.fit_local_logistic"]
    largest = max(fits, key=lambda s: s["counts"]["n"]) if fits else None
    sampling_ns = total.get("sampling.build_day_samples", 0) + total.get("sampling.subsample_day", 0)
    m = {
        "simulate.us_per_msg": (per(total.get("simulate.simulate", 0), 1e3,
                                    n("simulate.simulate", "messages")), "us"),
        "simulate.msgs_per_day": (n("simulate.simulate", "messages") / n("simulate.simulate"), "count"),
        "lobster.parse_us_per_msg": (per(total.get("lobster.parse_messages", 0), 1e3,
                                         n("lobster.parse_messages", "messages")), "us"),
        "lobster.l1_parse_us_per_row": (per(total.get("lobster.parse_l1_file", 0), 1e3,
                                            n("lobster.parse_l1_file", "rows")), "us"),
        "lobster.verify_us_per_row": (per(total.get("lobster.verify_against_l1", 0), 1e3,
                                          n("lobster.verify_against_l1", "rows")), "us"),
        "lobster.replay_us_per_msg": (per(total.get("lobster.replay", 0), 1e3,
                                          n("lobster.replay", "messages")), "us"),
        "sampling.ms_per_day": (per(sampling_ns, 1e6, n("sampling.build_day_samples")), "ms"),
        "sampling.mid_changes": (n("sampling.build_day_samples", "changes")
                                 / n("sampling.build_day_samples"), "count"),
        "sampling.points_per_change": (n("sampling.build_day_samples", "points")
                                       / n("sampling.build_day_samples", "changes"), "ratio"),
        "sampling.fallback_frac": (counts.get(("sampling.build_day_samples", "fallback"), 0)
                                   / n("sampling.build_day_samples", "points"), "ratio"),
        "sampling.csv_write_us_per_row": (per(total.get("sampling.write_samples_csv", 0), 1e3,
                                              n("sampling.write_samples_csv", "rows")), "us"),
        "sampling.csv_read_us_per_row": (per(total.get("sampling.read_samples_csv", 0), 1e3,
                                             n("sampling.read_samples_csv", "rows")), "us"),
        "logistic.fit_ms": (per(total.get("logistic.fit_logistic", 0), 1e6,
                                n("logistic.fit_logistic")), "ms"),
        "logistic.newton_iters": (n("logistic.fit_logistic", "iterations")
                                  / n("logistic.fit_logistic"), "count"),
        "local.cv_s": (per(total.get("local.cv_bandwidth", 0), 1e9, n("local.cv_bandwidth")), "s"),
        "local.fit_s": (per(total.get("local.fit_local_logistic", 0), 1e9,
                            n("local.fit_local_logistic")), "s"),
        "local.ms_per_grid_point": (per(total.get("local.fit_local_logistic", 0), 1e6,
                                        n("local.fit_local_logistic", "grid")), "ms"),
        "local.fits": (calls.get("local.fit_local_logistic", 0) / n("local.cv_bandwidth"), "count"),
        "local.degenerate_points": (counts.get(("local.fit_local_logistic", "degenerate"), 0)
                                    / n("local.fit_local_logistic"), "count"),
        "local.nonconverged_points": (tracer.mle["nonconverged"]
                                      / n("local.fit_local_logistic"), "count"),
        "local.distinct_frac": (largest["counts"]["distinct"] / largest["counts"]["n"]
                                if largest else 0.0, "ratio"),
        "local.predict_us_per_point": (per(total.get("local.predict_local", 0), 1e3,
                                           n("local.predict_local", "points")), "us"),
        "evaluate.roc_auc_us_per_point": (per(self_ns.get("evaluate.roc_curve", 0)
                                              + self_ns.get("evaluate.auc", 0), 1e3,
                                              n("evaluate.roc_curve", "points")), "us"),
    }
    for stage in ("sample", "fit", "evaluate", "report"):
        name = f"pipeline.stage_{stage}"
        m[f"{name}_s"] = (per(total.get(name, 0), 1e9, n(name)), "s")

    ops = [s for s in tracer.spans if s["name"] == "op"]
    op_ns = sum(s["ns"] for s in ops)
    share = dict.fromkeys(LAYERS, 0)
    for s in tracer.spans:
        if s["root"] == "op" and s["name"] != "op":
            share[LAYER[s["name"]]] += s["ns"] - s["child_ns"]
    for layer in LAYERS:
        m[f"share.{layer}"] = (share[layer] / op_ns, "ratio")
    m["trace.coverage_frac"] = (sum(s["child_ns"] for s in ops) / op_ns, "ratio")
    m["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(untraced) - 1, "ratio")
    return m


def main(name: str, seconds: float, out_json: str) -> None:
    metrics = day_loop(name)
    tracer = Tracer()
    with tracer.region("setup"):
        setup(name)
    untraced, traced, op_dirs = [], [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        k = len(traced) + 1
        for times, tag in ((untraced, "u"), (traced, "t")):
            out = f"trace_ops/{tag}{k:03d}"
            t1 = time.perf_counter()
            if tag == "t":
                with tracer.region("op"):
                    operation(name, out)
            else:
                operation(name, out)
            times.append(time.perf_counter() - t1)
            op_dirs.append(out)
    metrics.update(standalone(name, tracer, Path(op_dirs[-1])))
    metrics.update(layer_metrics(tracer, untraced, traced))
    result = {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
        "op_dirs": op_dirs,
    }
    Path(out_json).write_text(json.dumps(result, sort_keys=True), encoding="ascii")


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]), sys.argv[3])
