"""Command-line entry point.

Subcommands mirror the pipeline stages so each can be rerun on its own:

    queuecast simulate  --preset large-tick --seed 7 --out simdata --days 3
    queuecast ingest    --config run.cfg --out outdir
    queuecast sample    --config run.cfg --out outdir
    queuecast fit       --config run.cfg --out outdir
    queuecast evaluate  --config run.cfg --out outdir
    queuecast report    --config run.cfg --out outdir
    queuecast pipeline  --config run.cfg --out outdir

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

from . import book as bk
from . import lobster as lb
from . import pipeline as pl
from . import reports as rp
from . import simulate as sim
from .errors import ConfigError, DataError, NumericalError, QueuecastError

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
        p.add_argument("--jobs", type=int, metavar="N", help="parallel instrument-days")
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


def _open_out(path):
    return open(path, "w", encoding="ascii", newline="\n")


def cmd_simulate(cfg: pl.RunConfig) -> None:
    """Write per-day message and level-1 orderbook CSVs plus a manifest; each
    row is written as the simulator makes it."""
    out = pl.fresh_out_dir(cfg)
    pl.write_resolved_config(cfg, out)
    manifest = {"preset": cfg.preset, "seed": cfg.seed, "days": []}
    for day in range(cfg.days):
        msg_name = f"day{day:03d}_message.csv"
        l1_name = f"day{day:03d}_orderbook.csv"
        with _open_out(out / msg_name) as msg_fh, _open_out(out / l1_name) as l1_fh:
            res = sim.simulate(
                pl.preset_day_config(cfg, day), lb.message_writer(msg_fh), lb.l1_writer(l1_fh)
            )
        manifest["days"].append(
            {
                "day": day,
                "message_file": msg_name,
                "orderbook_file": l1_name,
                "messages": res.counters.messages,
                "side_depleted": res.side_depleted,
            }
        )
    rp.write_json(out / "manifest.json", manifest)


def _event_writer(fh):
    """Append target that writes each book event to ``fh`` as an events-CSV row."""
    write = fh.write

    def append(ev: bk.BookEvent) -> None:
        if ev.kind == bk.SUBMIT:
            order = ev.order
            write(f"{ev.seq},{ev.t_ns},{ev.kind},{order.id},{order.price},{order.size}\n")
        else:
            write(f"{ev.seq},{ev.t_ns},{ev.kind},{ev.order_id},,{ev.delta}\n")

    return append


def cmd_ingest(cfg: pl.RunConfig) -> None:
    """Replay message files into normalized event logs, verify against any
    orderbook references, and write the summary-statistics record.

    Each day's events are written as replay makes them, under a temporary
    name that becomes the events file once the day has verified; a day that
    fails leaves neither."""
    if cfg.source != "lobster":
        raise ConfigError("ingest requires source = lobster with message_files")
    out = pl.fresh_out_dir(cfg)
    pl.write_resolved_config(cfg, out)
    day_stats = []
    verification = {}
    for day in range(cfg.days):
        events = out / f"day{day:03d}_events.csv"
        partial = out / f"day{day:03d}_events.csv.partial"
        try:
            with _open_out(partial) as fh:
                fh.write("seq,t_ns,kind,order_id,price_ticks,size_delta\n")
                res, report = pl.read_lobster_day(cfg, day, events=_event_writer(fh))
        except BaseException:
            partial.unlink(missing_ok=True)
            raise
        partial.replace(events)
        day_stats.append(res.stats)
        if report is not None:
            verification[f"day{day:03d}"] = {
                "checked": report.checked,
                "mismatches": [asdict(m) for m in report.mismatches[:100]],
                "mismatch_count": len(report.mismatches),
            }
    pl.write_summary(out / "summary.json", day_stats, cfg.tick_size)
    if verification:
        rp.write_json(out / "verification.json", verification)


def _staged(stage_fn):
    def run(cfg: pl.RunConfig) -> None:
        out = pl.make_out_dir(cfg)
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
    except (NumericalError, QueuecastError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return 0


if __name__ == "__main__":
    sys.exit(main())
