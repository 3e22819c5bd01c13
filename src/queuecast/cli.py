"""Command-line entry point.

Subcommands mirror the pipeline stages so each can be rerun on its own:

    queuecast simulate  --preset large-tick --seed 7 --out simdata --days 3
    queuecast ingest    --config run.cfg --out outdir
    queuecast sample    --config run.cfg --out outdir
    queuecast fit       --config run.cfg --out outdir
    queuecast evaluate  --config run.cfg --out outdir
    queuecast report    --config run.cfg --out outdir
    queuecast pipeline  --config run.cfg --out outdir

Exit codes: 0 success, 1 the run could not finish (a worker process was
lost), 2 configuration error, 3 data error, 4 numerical error.

A subcommand loads only the modules it runs: ``report`` loads no numpy, and
``fit`` and ``evaluate`` load neither the simulator nor the book and LOBSTER
modules.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack
from dataclasses import asdict
from pathlib import Path

from . import pipeline as pl
from . import reports as rp
from .errors import ConfigError, DataError, NumericalError

EXIT_LOST = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="queuecast",
        description="Queue-imbalance analytics over limit-order-book event streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("simulate", "emit LOBSTER-format synthetic days"),
        ("ingest", "replay message files, verify, and summarize"),
        ("sample", "build the imbalance/direction sample table"),
        ("fit", "split and fit the configured classifiers"),
        ("evaluate", "score fitted classifiers in and out of sample"),
        ("report", "tabulate evaluation reports"),
        ("pipeline", "run every stage into one artifact directory"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", metavar="PATH", help="key=value run configuration")
        p.add_argument("--seed", type=int, metavar="U64", help="master seed override")
        p.add_argument("--out", metavar="DIR", help="output directory override")
        p.add_argument("--mode", help="sampling mode override: uniform or event")
        p.add_argument("--preset", help="simulator preset override: large-tick or small-tick")
        p.add_argument("--jobs", type=int, metavar="N",
                       help="worker processes for the days of each stage and the CV's fits")
        if name == "simulate":
            p.add_argument("--days", type=int, metavar="N", help="number of days override")
    return parser


def _config_from_args(args) -> pl.RunConfig:
    overrides = {
        "seed": args.seed,
        "out_dir": args.out,
        "sampling_mode": args.mode,
        "preset": args.preset,
        "jobs": args.jobs,
        "days": getattr(args, "days", None),
    }
    return pl.load_config(args.config, overrides)


def cmd_simulate(cfg: pl.RunConfig) -> None:
    """Write per-day message and level-1 orderbook CSVs plus a manifest; each
    row is written as the simulator makes it."""
    from . import lobster as lb
    from . import simulate as sim

    def names(day: int) -> tuple[str, str]:
        return f"day{day:03d}_message.csv", f"day{day:03d}_orderbook.csv"

    def simulate_day(day: int, msg_fh, l1_fh) -> dict:
        res = sim.simulate(
            pl.preset_day_config(cfg, day), lb.message_writer(msg_fh), lb.l1_writer(l1_fh)
        )
        msg_name, l1_name = names(day)
        return {"day": day, "message_file": msg_name, "orderbook_file": l1_name,
                "messages": res.counters.messages, "side_depleted": res.side_depleted}

    with pl.fresh_out_dir(cfg) as out:
        days = _write_days(cfg, out, names, simulate_day)
        rp.write_json(out / "manifest.json", {"preset": cfg.preset, "seed": cfg.seed, "days": days})


def cmd_ingest(cfg: pl.RunConfig) -> None:
    """Replay message files into normalized event logs, verify against any
    orderbook references, and write the summary-statistics record. Each
    day's events are written as replay makes them."""
    import numpy  # noqa: F401  parse_messages converts blocks with it: loaded once, before the fork

    from . import lobster as lb

    if cfg.source != "lobster":
        raise ConfigError("ingest requires source = lobster with message_files")

    def ingest_day(day: int, fh):
        res, report = pl.read_lobster_day(cfg, day, events=lb.event_writer(fh))
        if report is None:
            return res.stats, None
        return res.stats, {
            "checked": report.checked,
            "mismatches": [asdict(m) for m in report.mismatches[:100]],
            "mismatch_count": len(report.mismatches),
        }

    with pl.fresh_out_dir(cfg) as out:
        days = _write_days(cfg, out, lambda day: (f"day{day:03d}_events.csv",), ingest_day)
        pl.write_summary(out / "summary.json", [stats for stats, _ in days], cfg.tick_size)
        verification = {f"day{day:03d}": v for day, (_, v) in enumerate(days) if v is not None}
        if verification:
            rp.write_json(out / "verification.json", verification)


def _write_days(cfg: pl.RunConfig, out: Path, names, write_day) -> list:
    """``write_day(day, *files)`` of every day, in day order, each day one task
    of ``pool_map``. ``files`` are the day's files ``names(day)`` in ``out``,
    written under ``.partial`` names that a finished day renames into place,
    so a day file under its final name is complete even after a hard kill.
    What a failed run leaves is ``fresh_out_dir``'s to remove."""

    def partial(path: Path) -> Path:
        return path.with_name(path.name + ".partial")

    def day_task(day: int):
        paths = [out / name for name in names(day)]
        with ExitStack() as stack:
            result = write_day(day, *(stack.enter_context(rp.open_out(partial(p), newline="\n"))
                                      for p in paths))
        for path in paths:
            partial(path).replace(path)
        return result

    return pl.pool_map(day_task, range(cfg.days), cfg.jobs)


def _staged(stage_fn):
    def run(cfg: pl.RunConfig) -> None:
        out = Path(cfg.out_dir)
        rp.make_dir(out)
        pl.write_resolved_config(cfg, out)
        stage_fn(cfg, out)

    return run


COMMANDS = {
    "simulate": cmd_simulate,
    "ingest": cmd_ingest,
    "sample": _staged(pl.stage_sample),
    "fit": _staged(pl.stage_fit),
    "evaluate": _staged(pl.stage_evaluate),
    "report": _staged(pl.stage_report),
    "pipeline": lambda cfg: pl.run_pipeline(cfg),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ChildProcessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LOST
    return 0


if __name__ == "__main__":
    sys.exit(main())
