import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import MISSING, fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queuecast import lobster as lb
from queuecast import pipeline as pl
from queuecast import reports as rp
from queuecast import sampling as sp
from queuecast import simulate as sim
from queuecast.cli import main as cli_main
from queuecast.errors import ConfigError, DataError, NumericalError
from queuecast.evaluate import EvalReport, null_model_report
from queuecast.local import default_grid, fit_local_logistic
from queuecast.logistic import LogisticFit
from queuecast.logistic import TestResult as SigTest
from queuecast.reports import (
    emit_report_text,
    read_local_curve_csv,
    read_record,
    record_to_dict,
    stars,
    write_csv,
    write_json,
)
from queuecast.simulate import regime_preset, simulate


def tree_digest(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def fast_overrides(out_dir, **extra):
    base = {
        "source": "preset",
        "preset": "large-tick",
        "days": 3,
        "horizon": 90.0,
        "subsample": 60,
        "seed": 42,
        "grid_points": 41,
        "alphas": "0.5,0.8",
        "out_dir": str(out_dir),
    }
    base.update(extra)
    return base


def run_cli(*argv, cwd=None):
    """The CLI in a child process, so that a traceback would show on its stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(pl.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "queuecast.cli", *argv],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )


class TestConfig:
    def test_defaults_load(self):
        cfg = pl.load_config(None, {"out_dir": "x"})
        assert cfg.subsample == 100
        assert cfg.train_frac == 0.8
        assert cfg.window.open_s == 36000 and cfg.window.close_s == 55800
        assert cfg.models == ["logistic", "local", "null"]

    def test_bad_split_fraction_rejected_before_work(self):
        with pytest.raises(ConfigError):
            pl.load_config(None, {"train_frac": 1.2})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            pl.parse_config_text("no_such_key = 3")

    @pytest.mark.parametrize(
        "text, overrides, message",
        [
            ("days = 1\nho", {}, "{path}, line 2: expected key = value"),
            ("days = 1\f\nho\n", {}, "{path}, line 2: expected key = value"),
            ("days = 1\nno_such_key = 3\n", {}, "{path}, line 2: unknown key 'no_such_key'"),
            ("days = x\n", {}, "{path}: days: expected an integer >= 1 (got 'x')"),
            # a value from an override is not the file's: the message names none
            ("days = 2\n", {"days": "x"}, "days: expected an integer >= 1 (got 'x')"),
            ("days = 2\n", {"out_dir": "o\u00e9"}, "out_dir: expected ASCII text (got 'o\\xe9')"),
        ],
        ids=["line", "line-after-form-feed", "unknown-key", "value", "override-value",
             "override-out-dir"],
    )
    def test_config_file_fault_names_the_file(self, tmp_path, text, overrides, message):
        path = tmp_path / "t.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError) as ei:
            pl.load_config(str(path), overrides)
        assert str(ei.value) == message.format(path=path)

    def test_out_dir_from_environment_keeps_its_message(self, tmp_path, monkeypatch):
        path = tmp_path / "t.cfg"
        path.write_text("out_dir = o\n")
        monkeypatch.setenv(pl.ENV_OUT_DIR, "o\u00e9")
        with pytest.raises(ConfigError, match=r"^out_dir: expected ASCII text"):
            pl.load_config(str(path))

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            pl.load_config(None, {"models": "logistic,boost"})

    def test_missing_files_rejected(self):
        with pytest.raises(ConfigError):
            pl.load_config(None, {"source": "lobster", "message_files": "nope.csv"})

    def test_bad_sampling_mode(self):
        with pytest.raises(ConfigError):
            pl.load_config(None, {"sampling_mode": "sometimes"})

    def test_env_override_out_dir(self, monkeypatch):
        monkeypatch.setenv(pl.ENV_OUT_DIR, "/env/dir")
        cfg = pl.load_config(None, {})
        assert cfg.out_dir == "/env/dir"

    def test_config_file_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data").mkdir()
        for name in ("m.csv", "o.csv"):
            (tmp_path / "data" / name).write_text("36000.0,1,1,10,100000,1\n")
        lobster = {"source": "lobster", "data_dir": "data", "message_files": "m.csv",
                   "orderbook_files": "o.csv"}
        for overrides in (fast_overrides("o"), fast_overrides("o", **lobster)):
            cfg = pl.load_config(None, overrides)
            pl.write_resolved_config(cfg, tmp_path)
            assert pl.load_config(str(tmp_path / "resolved_config.txt")) == cfg

    def test_readme_defaults_block_loads(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("Defaults shown:\n\n```ini\n", 1)[1].split("```", 1)[0]
        assert pl.parse_config_text(block) == pl.DEFAULTS


@pytest.fixture(scope="module")
def run_once(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe") / "run"
    cfg = pl.load_config(None, fast_overrides(out))
    pl.run_pipeline(cfg)
    return out


class TestPipelineRun:
    def test_artifacts_present(self, run_once):
        for rel in [
            "resolved_config.txt",
            "samples.csv",
            "sampling_flags.json",
            "summary.json",
            "split.csv",
            "queue_survivor.csv",
            "fits/logistic.json",
            "fits/intercept.json",
            "fits/local_curve.csv",
            "fits/local_meta.json",
            "eval/report_logistic.json",
            "eval/report_local.json",
            "eval/report_null.json",
            "eval/roc_logistic_out.csv",
            "eval/histogram.csv",
            "report.txt",
            "report.json",
        ]:
            assert (run_once / rel).is_file(), rel

    def test_split_sizes(self, run_once):
        rows = (run_once / "split.csv").read_text().splitlines()[1:]
        n = len(rows)
        n_train = sum(1 for r in rows if r.endswith("train"))
        assert n_train == int(0.8 * n)

    def test_null_report_exact(self, run_once):
        rep = json.loads((run_once / "eval" / "report_null.json").read_text())
        assert rep["msr_in"] == 0.25 and rep["msr_out"] == 0.25
        assert rep["auc_in"] == 0.5 and rep["auc_out"] == 0.5

    def test_local_meta_says_what_the_cv_and_the_fit_did(self, run_once):
        meta = json.loads((run_once / "fits" / "local_meta.json").read_text())
        assert meta["alpha_candidates"] == [0.5, 0.8] and meta["alpha_at_edge"] is True
        samples = sp.read_samples_csv(run_once / "samples.csv")
        train, _ = pl._read_split(run_once / "split.csv", len(samples))
        fit = fit_local_logistic(samples.imbalance[train], samples.label[train], meta["alpha"],
                                 grid=default_grid(meta["grid_points"]))
        assert meta["newton_iterations"] == fit.newton_iterations > 0
        local = json.loads((run_once / "eval" / "report_local.json").read_text())
        assert local["extra"] == {"alpha": meta["alpha"], "alpha_at_edge": True}
        edge = f"local: alpha {meta['alpha']} is the edge of the candidates\n"
        assert edge in (run_once / "report.txt").read_text()

    def test_report_json_has_provenance(self, run_once):
        rep = json.loads((run_once / "report.json").read_text())
        assert rep["provenance"]["seed"] == 42
        assert rep["provenance"]["config"]["preset"] == "large-tick"
        assert "models" in rep and "logistic" in rep["models"]

    def test_determinism_byte_identical(self, run_once, tmp_path):
        out2 = tmp_path / "again"
        cfg = pl.load_config(None, fast_overrides(out2))
        pl.run_pipeline(cfg)
        a = tree_digest(run_once)
        b = tree_digest(out2)
        # resolved_config differs only in out_dir; report.json excludes it
        a.pop("resolved_config.txt")
        b.pop("resolved_config.txt")
        assert a == b

    def test_jobs_do_not_change_artifacts(self, run_once, tmp_path):
        out2 = tmp_path / "jobs2"
        cfg = pl.load_config(None, fast_overrides(out2, jobs=2))
        pl.run_pipeline(cfg)
        a = tree_digest(run_once)
        b = tree_digest(out2)
        a.pop("resolved_config.txt")
        b.pop("resolved_config.txt")
        assert a == b

    def test_stagewise_rerun_matches_pipeline(self, run_once, tmp_path):
        out2 = tmp_path / "staged"
        cfg = pl.load_config(None, fast_overrides(out2))
        out2.mkdir()
        pl.write_resolved_config(cfg, out2)
        pl.stage_sample(cfg, out2)
        pl.stage_fit(cfg, out2)
        pl.stage_evaluate(cfg, out2)
        pl.stage_report(cfg, out2)
        a = tree_digest(run_once)
        b = tree_digest(out2)
        a.pop("resolved_config.txt")
        b.pop("resolved_config.txt")
        assert a == b

    def test_refuses_nonempty_dir(self, run_once):
        cfg = pl.load_config(None, fast_overrides(run_once))
        with pytest.raises(ConfigError):
            pl.run_pipeline(cfg)

    def test_failure_removes_partial_artifacts(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "failing"
        # days with almost no activity: sampling succeeds but the fit stage
        # cannot split a handful of points
        cfg = pl.load_config(
            None, fast_overrides(out, days=1, horizon=1.0, subsample=2)
        )
        with pytest.raises(Exception):
            pl.run_pipeline(cfg)
        assert out.exists() and not any(out.iterdir())

        # simulate and ingest whose day 1 of 3 fails, at jobs 1 and 2
        monkeypatch.chdir(tmp_path)
        Path("sim.cfg").write_text("days = 3\nhorizon = 30\n")
        day = ["36000.0,1,1,10,10000,1", "36001.0,1,2,10,10200,-1", "36002.0,4,1,4,10000,1"]
        for name, rows in (("a.csv", day), ("b.csv", day[:2] + ["36002.0,4,9,4,10200,-1"]),
                           ("c.csv", day)):
            Path(name).write_text("".join(f"{r}\n" for r in rows))
        Path("ing.cfg").write_text("source = lobster\nmessage_files = a.csv,b.csv,c.csv\n")
        with monkeypatch.context() as m:
            m.setattr(pl, "preset_day_config", unstable_day_1)
            for command, cfgfile, code in (("simulate", "sim.cfg", 4), ("ingest", "ing.cfg", 3)):
                for jobs in ("1", "2"):
                    out = tmp_path / f"{command}{jobs}"
                    argv = [command, "--config", cfgfile, "--out", str(out), "--jobs", jobs]
                    assert cli_main(argv) == code
                    assert list(out.iterdir()) == []
                    assert_no_child_left()
        capsys.readouterr()

        # a pipeline whose day-1 worker is lost
        simulated_day = pl._simulated_day

        def lost_on_day_1(cfg, d):
            if d == 1:
                os._exit(3)
            return simulated_day(cfg, d)

        monkeypatch.setattr(pl, "_simulated_day", lost_on_day_1)
        out = tmp_path / "lost"
        Path("run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in fast_overrides(out).items()))
        assert cli_main(["pipeline", "--config", "run.cfg", "--jobs", "2"]) == 1
        assert capsys.readouterr().err == (
            "error: a worker process exited with status 3 before task 1 finished\n")
        assert list(out.iterdir()) == []
        assert_no_child_left()


class TestDayLoop:
    def test_jobs_keep_outcomes_in_day_order(self, tmp_path):
        # five days over two workers, one day per task: both workers run days
        cfg = pl.load_config(None, fast_overrides(tmp_path, days=5, horizon=30.0))
        serial = pl.run_days(cfg)
        assert [oc.day for oc in serial] == list(range(5))
        assert pl.run_days(replace(cfg, jobs=2)) == serial

    @pytest.mark.parametrize("days, jobs, workers", [(1, 4, None), (3, 4, 3), (5, 2, 2), (2, 1, None)])
    def test_pool_has_no_more_workers_than_days(self, tmp_path, monkeypatch, days, jobs, workers):
        # the forks are counted in the parent; None: the days ran in process
        made, fork = [], os.fork

        def counted_fork():
            made.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(pl, "_simulated_day", lambda cfg, day: day)
        cfg = pl.load_config(None, fast_overrides(tmp_path, days=days, jobs=jobs))
        assert pl.run_days(cfg) == list(range(days))
        assert len(made) == (0 if workers is None else workers)
        assert_no_child_left()

    @pytest.mark.parametrize("preset", ["large-tick", "small-tick"])
    def test_unrecorded_day_matches_recorded_simulation(self, tmp_path, monkeypatch, preset):
        cfg = pl.load_config(None, fast_overrides(tmp_path, preset=preset, days=2, horizon=120.0))
        lean = [pl._simulated_day(cfg, day) for day in range(2)]
        session, recorded = sim.simulate, []

        def recorded_session(zi, _messages, _l1_rows, window=None):  # the same day, lists kept
            messages, l1_rows = [], []
            recorded.append((messages, l1_rows))
            return session(zi, messages.append, l1_rows.append, window)

        monkeypatch.setattr(sim, "simulate", recorded_session)
        full = [pl._simulated_day(cfg, day) for day in range(2)]
        assert all(messages and l1_rows for messages, l1_rows in recorded)
        assert lean == full
        assert all(oc.points for oc in lean)


def unstable_day_1(cfg, day, day_config=pl.preset_day_config):
    """``pl.preset_day_config``, but day 1 of a run is a NumericalError."""
    if day == 1:
        raise NumericalError("day 1 diverged")
    return day_config(cfg, day)


def assert_no_child_left():
    """Every worker process was reaped: none is left running or a zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_odd(i):
    if i % 2:
        raise DataError(f"task {i}", line_no=i)
    return i


class TestPoolMap:
    @pytest.fixture(autouse=True)
    def deadline(self):
        """A pool that hangs fails the test: the alarm interrupts its parent."""
        import signal

        def expire(signum, frame):
            raise TimeoutError("pool_map still running after 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    def test_results_in_task_order_whatever_their_number_or_size(self):
        # more indices than a pipe holds, on more workers than CPUs, and a
        # result larger than a pipe holds
        assert pl.pool_map(lambda i: i * i, range(20000), 4) == [i * i for i in range(20000)]
        big = pl.pool_map(lambda i: bytes(i << 20), range(5), 3)
        assert [len(b) for b in big] == [i << 20 for i in range(5)]
        assert_no_child_left()

    def test_first_failure_in_task_order_after_every_task(self, tmp_path):
        def task(i):
            (tmp_path / str(i)).touch()  # a task that ran
            return fail_odd(i)

        with pytest.raises(DataError) as err:
            pl.pool_map(task, range(8), 3)
        assert (str(err.value), err.value.line_no) == ("line 1: task 1", 1)
        assert sorted(int(p.name) for p in tmp_path.iterdir()) == list(range(8))
        assert_no_child_left()
        with pytest.raises(DataError, match="^line 1: task 1$"):
            pl.pool_map(fail_odd, range(8), 1)

    @pytest.mark.parametrize("how, status", [(lambda: os._exit(3), "exited with status 3"),
                                             (lambda: os.kill(os.getpid(), 9),
                                              "was killed by signal 9")])
    def test_lost_worker(self, how, status):
        def task(i):
            if i == 2:
                how()
            return i

        with pytest.raises(ChildProcessError) as err:  # the other two share the rest
            pl.pool_map(task, range(2000), 3)
        assert str(err.value) == f"a worker process {status} before task 2 finished"
        assert_no_child_left()

    def test_interrupt_kills_and_reaps_every_worker(self):
        import signal
        import time

        def task(i):
            if i == 0:
                os.kill(os.getppid(), signal.SIGINT)
            time.sleep(60)

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            pl.pool_map(task, range(4), 2)
        assert time.monotonic() - start < 30
        assert_no_child_left()


def write_day(directory, zi) -> int:
    """Simulate a day into a message file and its level-1 file; its message count."""
    with open(directory / "m.csv", "w") as msg_fh, open(directory / "o.csv", "w") as l1_fh:
        res = simulate(zi, lb.message_writer(msg_fh), lb.l1_writer(l1_fh))
    return res.counters.messages


def lobster_config(directory):
    return pl.load_config(None, {
        "source": "lobster", "message_files": str(directory / "m.csv"),
        "orderbook_files": str(directory / "o.csv"),
    })


def list_based_day(cfg, day):
    """The day read whole: parse every message, replay the list, then verify
    the level-1 rows against the parsed reference list."""
    msgs = list(lb.parse_messages(cfg.message_files[day]))
    res = lb.replay(msgs, tick_size=cfg.tick_size, window=cfg.window, record_l1=True)
    reference = lb.parse_l1_file(cfg.orderbook_files[day])
    report = lb.verify_against_l1(res.l1_rows, reference)
    assert [(m.index, m.reconstructed, m.reference) for m in report.mismatches] == [
        (i, a, b) for i, (a, b) in enumerate(zip(res.l1_rows, reference)) if a != b
    ]
    return res, report


class TestOnePassDay:
    @pytest.mark.parametrize("preset", ["large-tick", "small-tick", "altered-row"])
    def test_streamed_day_equals_list_based(self, tmp_path, preset):
        if preset == "altered-row":
            rows = ["36000.0,1,1,10,10000,1", "36000.0,1,2,10,10200,-1", "",
                    "36001.0,5,0,7,10100,1", "36001.5,1,3,4,10100,1", "36001.5,3,3,4,10100,1",
                    "36002.0,1,4,12,10200,1", "36003.0,2,1,4,10000,1"]
            (tmp_path / "m.csv").write_text("".join(f"{r}\n" for r in rows))
            l1 = lb.replay(lb.parse_messages(rows), record_l1=True).l1_rows
            l1[3] = (l1[3][0], l1[3][1] + 1, *l1[3][2:])
            lb.write_l1_file(tmp_path / "o.csv", l1)
        else:
            write_day(tmp_path, regime_preset(preset, seed=5, horizon=120.0))
        cfg = lobster_config(tmp_path)
        streamed, report = pl.read_lobster_day(cfg, 0)
        listed, list_report = list_based_day(cfg, 0)
        for name in ("timeline", "stats", "counters", "first_session_event_ns"):
            assert getattr(streamed, name) == getattr(listed, name), name
        assert streamed.l1_rows == [] and streamed.events == []
        assert report == list_report
        assert report.checked == streamed.counters.messages
        if preset == "altered-row":
            assert [m.index for m in report.mismatches] == [3]
        else:
            assert report.ok and len(streamed.timeline) > 50

    def test_peak_memory_per_message(self, tmp_path):
        # What a day keeps is its quote timeline, about 40 traced bytes a
        # message on large-tick, plus the book; a day read whole (messages,
        # reconstructed and reference level-1 rows in lists) peaked at about
        # 410 bytes a message.
        n_messages = write_day(tmp_path, regime_preset("large-tick", seed=3, horizon=300.0))
        cfg = lobster_config(tmp_path)
        tracemalloc.start()
        try:
            res, report = pl.read_lobster_day(cfg, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok and n_messages > 25_000
        assert peak / n_messages < 150


class TestNullOnlyRun:
    def test_null_only_model_set(self, tmp_path):
        out = tmp_path / "nullrun"
        cfg = pl.load_config(None, fast_overrides(out, models="null"))
        pl.run_pipeline(cfg)
        rep = json.loads((out / "report.json").read_text())
        assert set(rep["models"]) == {"null"}
        assert rep["models"]["null"]["msr_out"] == 0.25
        assert rep["models"]["null"]["auc_out"] == 0.5


class TestCli:
    def test_pipeline_roundtrip_exit_codes(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "\n".join(
                f"{k} = {v}"
                for k, v in fast_overrides(tmp_path / "cli_out", days=2, subsample=20).items()
            )
        )
        assert cli_main(["pipeline", "--config", str(cfgfile)]) == 0
        assert (tmp_path / "cli_out" / "report.txt").exists()
        # running into the same dir again is a config error: exit 2
        assert cli_main(["pipeline", "--config", str(cfgfile)]) == 2

    def test_bad_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("train_frac = 1.2\n")
        assert cli_main(["pipeline", "--config", str(bad)]) == 2

    def test_missing_data_exit_2(self, tmp_path):
        bad = tmp_path / "bad2.cfg"
        bad.write_text("source = lobster\nmessage_files = missing.csv\n")
        assert cli_main(["sample", "--config", str(bad)]) == 2

    @pytest.mark.parametrize(
        "line",
        [b"horizon = nan", b"horizon = inf", b"horizon = 1e300", b"horizon = 86401",
         b"tick_size = inf", b"tick_size = 1e-9", b"tick_size = 0.00015", b"tick_size = 0",
         b"tick_size = nan", b"instrument = caf\xe9", b"session_open = -100"],
        ids=["horizon-nan", "horizon-inf", "horizon-1e300", "horizon-over-a-day", "tick-inf",
             "tick-below-price-unit", "tick-not-whole-units", "tick-zero", "tick-nan", "non-ascii",
             "open-before-midnight"],
    )
    def test_config_value_exit_2(self, tmp_path, capsys, line):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_bytes(line + b"\ndays = 1\n")
        assert cli_main(["sample", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_malformed_data_exit_3(self, tmp_path):
        msg = tmp_path / "day.csv"
        msg.write_text("garbage,row\n")
        cfgfile = tmp_path / "ing.cfg"
        cfgfile.write_text(
            f"source = lobster\nmessage_files = {msg}\nout_dir = {tmp_path/'ing_out'}\n"
        )
        assert cli_main(["ingest", "--config", str(cfgfile)]) == 3

    @pytest.mark.parametrize(
        "samples",
        [None, "a,b\n1,2\n", "instrument,day,t_sample_ns,t_change_ns,I,y\nSIM,0,1,2,x,1\n"],
        ids=["missing", "bad-header", "bad-row"],
    )
    def test_fit_on_bad_samples_exit_3(self, tmp_path, capsys, samples):
        out = tmp_path / "fit_out"
        out.mkdir()
        if samples is not None:
            (out / "samples.csv").write_text(samples)
        cfgfile = tmp_path / "fit.cfg"
        cfgfile.write_text(f"out_dir = {out}\n")
        assert cli_main(["fit", "--config", str(cfgfile)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "samples.csv" in err

    @pytest.mark.parametrize(
        "extra_row, text",
        [
            ("36000.000000000,2,1,0,200000,1", "partial cancel with size 0"),
            ("36000.000000000,4,1,0,200000,1", "execution with size 0"),
            ("36000.000000000,1,1,1,200000,1", "submission reuses live order id 1"),
            ("36000.000000000,4,99,1,200000,1", "unknown order id 99"),
            ("36000.000000000,2,1,5,200000,1", "reduce of 5 exceeds resting size 1 for order 1"),
        ],
        ids=["zero-size-cancel", "zero-size-execution", "duplicate-order-id", "unknown-id",
             "over-reduce"],
    )
    def test_ingest_invalid_message_exit_3(self, tmp_path, capsys, extra_row, text):
        day = simulate(regime_preset("large-tick", seed=7, horizon=1.0))
        rows = [lb.format_message(m) for m in day.messages[:10]]
        assert rows[0] == "36000.000000000,1,1,1,200000,1"
        msg = tmp_path / "day.csv"
        msg.write_text("\n".join(rows + [extra_row]) + "\n")
        cfgfile = tmp_path / "ing.cfg"
        cfgfile.write_text(
            f"source = lobster\nmessage_files = {msg}\nout_dir = {tmp_path / 'ing_out'}\n"
        )
        assert cli_main(["ingest", "--config", str(cfgfile)]) == 3
        assert capsys.readouterr().err == f"data error: line 11: {text} (in {msg})\n"

    @pytest.mark.parametrize("stage", ["fit", "evaluate"])
    @pytest.mark.parametrize(
        "value, text",
        [("nan,1", "I = nan is not a finite number in [-1, 1]"),
         ("-inf,1", "I = -inf is not a finite number in [-1, 1]"),
         ("1.5,0", "I = 1.5 is not a finite number in [-1, 1]"),
         ("0.25,2", "y = 2 is not 0 or 1"),
         ("0.25,1,9", "expected 6 fields, got 7")],
        ids=["nan", "inf", "out-of-range", "bad-label", "extra-field"],
    )
    def test_bad_sample_value_exit_3(self, tmp_path, stage, value, text):
        out = tmp_path / "stage_out"
        out.mkdir()
        rows = [f"SIM,0,{i},{i + 1},0.5,{i % 2}\n" for i in range(10)]
        rows[6] = f"SIM,0,6,7,{value}\n"  # line 8, after the header
        samples = out / "samples.csv"
        samples.write_text("instrument,day,t_sample_ns,t_change_ns,I,y\n" + "".join(rows))
        cfgfile = tmp_path / "stage.cfg"
        cfgfile.write_text(f"out_dir = {out}\n")
        proc = run_cli(stage, "--config", str(cfgfile))
        assert proc.returncode == 3
        assert proc.stderr == f"data error: {samples}, line 8: {text}\n"

    @pytest.mark.parametrize(
        "stage, missing",
        [("evaluate", "split.csv"), ("report", "report_logistic.json")],
    )
    def test_stage_without_its_input_exit_3(self, tmp_path, capsys, stage, missing):
        out = tmp_path / "stage_out"
        out.mkdir()
        (out / "samples.csv").write_text(
            "instrument,day,t_sample_ns,t_change_ns,I,y\n"
            + "".join(f"SIM,0,{i},{i + 1},0.5,{i % 2}\n" for i in range(10))
        )
        cfgfile = tmp_path / "stage.cfg"
        cfgfile.write_text(f"out_dir = {out}\n")
        assert cli_main([stage, "--config", str(cfgfile)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and missing in err

    @pytest.mark.parametrize("command", ["ingest", "sample"])
    @pytest.mark.parametrize(
        "fault", ["message-dir", "orderbook-dir", "message-non-ascii", "orderbook-non-ascii"]
    )
    def test_unreadable_lobster_day_exit_3(self, tmp_path, capsys, command, fault):
        files = {
            "m.csv": b"36000.0,1,1,10,100000,1\n36001.0,1,2,10,100100,-1\n",
            "o.csv": b"9999999999,0,100000,10\n100100,10,100000,10\n",
        }
        kind, _, what = fault.partition("-")
        name = "m.csv" if kind == "message" else "o.csv"
        if what == "dir":
            (tmp_path / name).mkdir()
            del files[name]
        else:
            files[name] = files[name].replace(b"100100", b"10\xe900")  # on line 2
        for file, data in files.items():
            (tmp_path / file).write_bytes(data)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            f"source = lobster\ndata_dir = {tmp_path}\nmessage_files = m.csv\n"
            f"orderbook_files = o.csv\nout_dir = {tmp_path / 'out'}\n"
        )
        assert cli_main([command, "--config", str(cfgfile)]) == 3
        err = capsys.readouterr().err
        expected = str(tmp_path / name) if what == "dir" else "line 2: "
        assert err.startswith("data error: ") and expected in err

    def test_report_on_a_directory_input_exit_3(self, run_once, tmp_path, capsys):
        # the input hashes of report.json are taken before either report file
        # is written, so a failed report writes neither
        out = tmp_path / "run"
        shutil.copytree(run_once, out)
        for name in ("report.txt", "report.json"):
            (out / name).unlink()
        (tmp_path / "mdir").mkdir()
        cfg = fast_overrides(out, source="lobster", data_dir=tmp_path, message_files="mdir")
        cfgfile = tmp_path / "l.cfg"
        cfgfile.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
        assert cli_main(["report", "--config", str(cfgfile), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == f"data error: cannot read {tmp_path / 'mdir'}: Is a directory\n"
        assert not (out / "report.txt").exists() and not (out / "report.json").exists()

    def test_fault_after_a_blank_line_names_its_file_line(self, tmp_path):
        (tmp_path / "m.csv").write_text(
            "36000.0,1,1,10,10000,1\n\n36001.0,1,2,10,10200,-1\n36002.0,4,99,1,10000,1\n"
        )
        (tmp_path / "run.cfg").write_text("source = lobster\nmessage_files = m.csv\n")
        proc = run_cli("ingest", "--config", "run.cfg", "--out", "out", cwd=tmp_path)
        assert proc.returncode == 3
        assert proc.stderr == "data error: line 4: unknown order id 99 (in m.csv)\n"

    # a day whose level-1 file matches its messages row for row
    DAY = {
        "m.csv": ["36000.0,1,1,10,10000,1", "36001.0,1,2,10,10200,-1",
                  "36002.0,2,1,3,10000,1", "36003.0,4,2,4,10200,-1"],
        "o.csv": ["9999999999,0,10000,10", "10200,10,10000,10",
                  "10200,10,10000,7", "10200,6,10000,7"],
    }

    @pytest.mark.parametrize(
        "edits, error",
        [
            ({("m.csv", 2): "36002.0,2,1,30,10000,1"},
             "line 3: reduce of 30 exceeds resting size 10 for order 1 (in m.csv)"),
            ({("m.csv", 3): "36003.0,x,2,4,10200,-1"},
             "line 4: invalid literal for int() with base 10: 'x' (in m.csv)"),
            ({("o.csv", 1): "10200,x,10000,10"},
             "line 2: invalid literal for int() with base 10: 'x' (in o.csv)"),
            ({("o.csv", 3): None}, "row count mismatch: 4 reconstructed vs 3 reference (in o.csv)"),
            ({("o.csv", 4): "10200,6,10000,7"},
             "row count mismatch: 4 reconstructed vs 5 reference (in o.csv)"),
            ({("m.csv", 3): None}, "row count mismatch: 3 reconstructed vs 4 reference (in o.csv)"),
            # of two faults, the first in reading order: files are read row by row in step
            ({("m.csv", 3): "36003.0,4,9,4,10200,-1", ("o.csv", 1): "10200,10,10000"},
             "line 2: expected >= 4 fields, got 3 (in o.csv)"),
            ({("m.csv", 1): "36001.0,4,9,4,10200,-1", ("o.csv", 3): "10200,10,10000"},
             "line 2: unknown order id 9 (in m.csv)"),
        ],
        ids=["message-book-fault", "message-malformed", "orderbook-malformed",
             "orderbook-short", "orderbook-long", "message-short", "orderbook-fault-first",
             "message-fault-first"],
    )
    def test_interleaved_day_fault_exit_3(self, tmp_path, edits, error):
        files = {name: list(rows) for name, rows in self.DAY.items()}
        for (name, i), row in edits.items():
            if i == len(files[name]):
                files[name].append(row)
            else:
                files[name][i] = row
        for name, rows in files.items():
            (tmp_path / name).write_text("".join(f"{r}\n" for r in rows if r is not None))
        (tmp_path / "run.cfg").write_text(
            "source = lobster\nmessage_files = m.csv\norderbook_files = o.csv\n"
        )
        proc = run_cli("ingest", "--config", "run.cfg", "--out", "out", cwd=tmp_path)
        assert proc.returncode == 3
        assert proc.stderr == f"data error: {error}\n"
        # the run failed: its directory is left empty
        assert list((tmp_path / "out").iterdir()) == []

    def test_one_sided_day_summary(self, tmp_path):
        """A book that never has both sides in the session has no mean queues
        or spread: sample and ingest both write the record with them null."""
        (tmp_path / "m.csv").write_text(
            "36000.0,1,1,10,10000,1\n36001.0,1,2,10,10100,1\n36002.0,3,1,10,10000,1\n")
        (tmp_path / "run.cfg").write_text("source = lobster\nmessage_files = m.csv\n")
        summaries = []
        for command in ("sample", "ingest"):
            proc = run_cli(command, "--config", "run.cfg", "--out", command, cwd=tmp_path)
            assert (proc.returncode, proc.stderr) == (0, "")
            summaries.append(json.loads((tmp_path / command / "summary.json").read_text()))
        assert summaries[0] == summaries[1] == {
            "schema_version": 1, "days": 1, "executed_volume": 0.0,
            "best_quote_limit_volume": 20.1, "trade_price_min": None, "trade_price_max": None,
            "mean_nb": None, "mean_na": None, "mean_spread": None,
        }
        assert (tmp_path / "sample" / "samples.csv").read_bytes() == (
            b"instrument,day,t_sample_ns,t_change_ns,I,y\r\n")

    def test_ingest_writes_events_once_the_day_verified(self, tmp_path):
        # DAY, then a full delete that empties the bid and a buy of 10 at the
        # ask that takes its 6 and rests the other 4 as the new bid
        day = {
            "m.csv": self.DAY["m.csv"] + ["36004.0,3,1,7,10000,1", "36005.0,1,3,10,10200,1"],
            "o.csv": self.DAY["o.csv"] + ["10200,6,-9999999999,0", "9999999999,0,10200,4"],
        }
        for name, rows in day.items():
            (tmp_path / name).write_text("".join(f"{r}\n" for r in rows))
        (tmp_path / "run.cfg").write_text(
            "source = lobster\nmessage_files = m.csv\norderbook_files = o.csv\n"
        )
        assert run_cli("ingest", "--config", "run.cfg", "--out", "out", cwd=tmp_path).returncode == 0
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == [
            "day000_events.csv", "resolved_config.txt", "summary.json", "verification.json"]
        assert (out / "day000_events.csv").read_text().splitlines() == [
            "seq,t_ns,kind,order_id,price_ticks,size_delta",
            "0,36000000000000,submit,1,100,10",
            "1,36001000000000,submit,2,102,10",
            "2,36002000000000,reduce,1,,3",
            "3,36003000000000,execute,2,,4",
            "4,36004000000000,delete,1,,0",
            "5,36005000000000,execute,2,,6",
            "6,36005000000000,submit,3,102,4",
        ]

    def test_simulate_and_ingest_refuse_nonempty_dir(self, tmp_path):
        cfgfile = tmp_path / "sim.cfg"
        cfgfile.write_text("horizon = 30\ndays = 1\n")
        simdir = tmp_path / "simdata"
        argv = ["simulate", "--config", str(cfgfile), "--out", str(simdir)]
        assert cli_main(argv) == 0
        before = tree_digest(simdir)
        assert cli_main(argv) == 2
        ing_cfg = tmp_path / "ing.cfg"
        ing_cfg.write_text(f"source = lobster\nmessage_files = {simdir / 'day000_message.csv'}\n")
        assert cli_main(["ingest", "--config", str(ing_cfg), "--out", str(simdir)]) == 2
        assert tree_digest(simdir) == before

    def test_rerun_into_a_failed_directory_exits_0(self, tmp_path, monkeypatch, capsys):
        # a failed simulate or ingest leaves its directory empty, so the same
        # command, rerun into it once the fault is gone, succeeds
        monkeypatch.chdir(tmp_path)
        rows = ["36000.0,1,1,10,10000,1", "36001.0,1,2,10,10200,-1", "36002.0,4,9,4,10200,-1"]
        Path("m.csv").write_text("".join(f"{r}\n" for r in rows))
        Path("run.cfg").write_text("source = lobster\nmessage_files = m.csv\n")
        argv = ["ingest", "--config", "run.cfg", "--out", "out"]
        assert cli_main(argv) == 3
        assert capsys.readouterr().err == "data error: line 3: unknown order id 9 (in m.csv)\n"
        assert list(Path("out").iterdir()) == []
        Path("m.csv").write_text("".join(f"{r}\n" for r in rows[:2]))
        assert cli_main(argv) == 0
        assert (Path("out") / "day000_events.csv").is_file()

        argv = ["simulate", "--seed", "3", "--days", "2", "--out", "sim"]
        with monkeypatch.context() as m:
            m.setattr(pl, "preset_day_config", unstable_day_1)
            assert cli_main(argv) == 4
        assert list(Path("sim").iterdir()) == []
        assert cli_main(argv) == 0
        assert (Path("sim") / "manifest.json").is_file()

    def test_resolved_config_reruns_sample(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["simulate", "--seed", "9", "--days", "1", "--out", "simdata"]) == 0
        Path("run.cfg").write_text(
            "source = lobster\ndata_dir = simdata\n"
            "message_files = day000_message.csv\norderbook_files = day000_orderbook.csv\n"
            "session_open = 36000\nsession_close = 36300\nsubsample = 40\n"
        )
        assert cli_main(["sample", "--config", "run.cfg", "--out", "a"]) == 0
        assert cli_main(["sample", "--config", "a/resolved_config.txt", "--out", "b"]) == 0
        samples = Path("a/samples.csv").read_bytes()
        assert len(samples.splitlines()) == 41
        assert Path("b/samples.csv").read_bytes() == samples
        # the variable stands in for the file's data_dir; a resolved config sets it
        Path("run.cfg").write_text(Path("run.cfg").read_text().replace("data_dir = simdata\n", ""))
        monkeypatch.setenv(pl.ENV_DATA_DIR, "simdata")
        assert cli_main(["sample", "--config", "run.cfg", "--out", "c"]) == 0
        assert cli_main(["sample", "--config", "c/resolved_config.txt", "--out", "d"]) == 0
        assert Path("c/samples.csv").read_bytes() == Path("d/samples.csv").read_bytes() == samples

    @pytest.mark.parametrize("command", ["sample", "fit", "evaluate", "report"])
    def test_staged_out_is_a_file_exit_2(self, tmp_path, capsys, command):
        afile = tmp_path / "afile"
        afile.write_bytes(b"x")
        assert cli_main([command, "--seed", "1", "--out", str(afile)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert afile.read_bytes() == b"x"

    @pytest.mark.parametrize("command", ["simulate", "sample", "pipeline"])
    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_non_ascii_out_dir_exit_2(self, tmp_path, monkeypatch, capsys, command, via):
        monkeypatch.chdir(tmp_path)
        argv = [command, "--seed", "1"]
        if via == "flag":
            argv += ["--out", "o\u00e9"]
        else:
            monkeypatch.setenv(pl.ENV_OUT_DIR, "o\u00e9")
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: out_dir: ")
        assert list(tmp_path.iterdir()) == []

    def test_separated_global_fit_exits_4(self, tmp_path):
        """A global fit that separates the labels is reported, not written."""
        out = tmp_path / "run"
        out.mkdir()
        rows = [",".join(sp.SAMPLE_COLUMNS)]
        for k in range(40):
            i = -0.975 + 0.05 * k
            rows.append(f"X,0,{k},{k + 1},{i:.12g},{int(i > 0)}")
        (out / "samples.csv").write_text("\n".join(rows) + "\n")
        (tmp_path / "run.cfg").write_text("models = logistic,null\n")
        proc = run_cli("fit", "--config", "run.cfg", "--out", "run", cwd=tmp_path)
        assert proc.returncode == 4
        assert re.fullmatch(
            r"numerical error: global logistic fit is separated after \d+ iterations\n",
            proc.stderr,
        )
        assert not (out / "fits" / "logistic.json").exists()

    def test_zero_point_sample_then_fit_exits_4(self, tmp_path, capsys):
        """A horizon of one nanosecond holds the preamble alone: no mid changes,
        so every sample column is empty and fit has nothing to split."""
        out = tmp_path / "o"
        (tmp_path / "run.cfg").write_text(f"days = 2\nhorizon = 0.000000001\nout_dir = {out}\n")
        assert cli_main(["sample", "--config", str(tmp_path / "run.cfg")]) == 0
        assert (out / "samples.csv").read_bytes() == (",".join(sp.SAMPLE_COLUMNS) + "\r\n").encode()
        assert json.loads((out / "sampling_flags.json").read_text())["total_points"] == 0
        assert not (out / "queue_survivor.csv").exists()
        capsys.readouterr()
        assert cli_main(["fit", "--config", str(tmp_path / "run.cfg")]) == 4
        assert capsys.readouterr().err == "numerical error: need at least 5 points, got 0\n"

    def test_bad_local_curve_is_data_error(self, tmp_path):
        path = tmp_path / "local_curve.csv"
        with pytest.raises(DataError, match="local_curve.csv"):
            read_local_curve_csv(path)
        path.write_text("grid,p\n0,0.5\n")
        with pytest.raises(DataError, match="local_curve.csv"):
            read_local_curve_csv(path)

    @pytest.mark.parametrize(
        "stage, rel, edit, message",
        [
            ("evaluate", "fits/logistic.json", "drop:x0", ": missing key 'x0'"),
            ("evaluate", "fits/logistic.json", "add:x2:1", ": unknown key 'x2'"),
            ("evaluate", "fits/logistic.json", "list", ": top level: expected a JSON object"),
            ("evaluate", "fits/logistic.json", 'set:x1:"abc"',
             ": key 'x1': expected float, got 'abc'"),
            ("evaluate", "fits/logistic.json", "set:x1:NaN", ": NaN is not a JSON number"),
            ("evaluate", "fits/local_meta.json", "drop:alpha", ": missing key 'alpha'"),
            ("evaluate", "fits/local_meta.json", "list", ": top level: expected a JSON object"),
            ("report", "eval/report_null.json", "drop:auc_out", ": missing key 'auc_out'"),
            ("evaluate", "fits/local_curve.csv", "line-3:-0.98,nan",
             ", line 3: grid,fitted = -0.98,nan is not finite"),
            ("evaluate", "fits/local_curve.csv", "line-3:-0.98,0.5,0",
             ", line 3: expected 2 fields, got 3"),
            ("evaluate", "fits/logistic.json", "dir", ": Is a directory"),
            ("evaluate", "fits/local_curve.csv", "dir", ": Is a directory"),
            ("fit", "samples.csv", "dir", ": Is a directory"),
            ("evaluate", "samples.csv", "dir", ": Is a directory"),
            ("evaluate", "split.csv", "dir", ": Is a directory"),
            ("evaluate", "split.csv", "drop-last-line",
             ": lists 179 of the 180 rows of samples.csv"),
            ("evaluate", "split.csv", "lines:0,test:0,test", ", line 3: row 0 is listed twice"),
            ("evaluate", "split.csv", "lines:0,tset",
             ", line 2: subset 'tset' is not train or test"),
            ("evaluate", "split.csv", "lines:-1,train", ", line 2: list index out of range"),
            ("evaluate", "split.csv", "lines:180,train", ", line 2: list index out of range"),
            ("evaluate", "fits/local_curve.csv", "drop-last-line",
             ": 40 grid points, where local_meta.json has 41"),
            ("evaluate", "fits/local_curve.csv", "line-2:-0.98,0.5",
             ": grid spans [-0.98, 1.0], not [-1, 1]"),
            ("evaluate", "fits/local_curve.csv", "line-42:0.999,0.5",
             ": grid spans [-1.0, 0.999], not [-1, 1]"),
            ("evaluate", "fits/local_curve.csv", "line-3:-0.95,7.5",
             ", line 3: fitted = 7.5 is not in (0, 1)"),
            ("evaluate", "fits/local_curve.csv", "line-6:-0.9,0.5",
             ", line 6: grid = -0.9 does not rise from -0.85"),
            ("evaluate", "fits/local_curve.csv", "reverse",
             ", line 3: grid = 0.95 does not rise from 1.0"),
            ("fit", "samples.csv", "e9-line-150", ", line 150: non-ASCII byte"),
            ("evaluate", "split.csv", "e9-line-100", ", line 100: non-ASCII byte"),
            ("evaluate", "fits/local_curve.csv", "e9-line-20", ", line 20: non-ASCII byte"),
            ("report", "eval/report_logistic.json", "set:auc_out:-0.87",
             ": key 'auc_out': -0.87 is not in [0, 1]"),
            ("report", "eval/report_logistic.json", "set:msr_out:7.5",
             ": key 'msr_out': 7.5 is not in [0, 1]"),
            ("report", "eval/report_null.json", "set:n_test:0", ": key 'n_test': 0 is not at least 1"),
            ("evaluate", "fits/logistic.json", "set:se1:-0.04", ": key 'se1': -0.04 is not positive"),
            ("report", "fits/logistic.json", "set:se0:1e999", ": key 'se0': inf is not finite"),
            ("evaluate", "fits/logistic.json", "set:x0:-1e999", ": key 'x0': -inf is not finite"),
            ("evaluate", "fits/intercept.json", "set:n:0", ": key 'n': 0 is not at least 1"),
        ],
        ids=["fit-no-x0", "fit-unknown-key", "fit-list", "fit-x1-string", "fit-x1-nan", "meta-no-alpha",
             "meta-list", "report-no-auc-out", "curve-nan", "curve-extra-field", "fit-dir",
             "curve-dir",
             "samples-dir-fit", "samples-dir-evaluate", "split-dir", "split-short",
             "split-twice", "split-bad-subset", "split-negative", "split-past-end",
             "curve-short", "curve-starts-inside", "curve-ends-inside", "curve-fitted-7.5",
             "curve-grid-not-rising", "curve-reversed",
             "samples-non-ascii", "split-non-ascii", "curve-non-ascii", "report-auc-negative",
             "report-msr-7.5", "report-no-test-points", "fit-se-negative", "fit-se-infinite",
             "fit-x0-infinite", "intercept-no-points"],
    )
    def test_bad_artifact_exit_3(self, run_once, tmp_path, stage, rel, edit, message):
        out = tmp_path / "run"
        shutil.copytree(run_once, out)
        path = out / rel
        text = path.read_text()
        kind, _, arg = edit.partition(":")
        if kind == "drop":
            text = json.dumps({k: v for k, v in json.loads(text).items() if k != arg})
        elif kind == "add":
            key, _, value = arg.partition(":")
            text = json.dumps({**json.loads(text), key: json.loads(value)})
        elif kind == "list":
            text = f"[{text}]"
        elif kind == "set":
            key, _, value = arg.partition(":")
            text = text.replace(f'"{key}": {json.dumps(json.loads(text)[key])}',
                                f'"{key}": {value}')
        elif kind.startswith("line-"):
            lines = text.splitlines()
            lines[int(kind[5:]) - 1] = arg
            text = "\n".join(lines) + "\n"
        elif kind == "reverse":  # the data rows in reverse order
            lines = text.splitlines(keepends=True)
            text = lines[0] + "".join(reversed(lines[1:]))
        elif kind == "drop-last-line":
            text = "".join(text.splitlines(keepends=True)[:-1])
        elif kind == "lines":  # the first data lines replaced
            lines = text.splitlines()
            new = arg.split(":")
            lines[1:1 + len(new)] = new
            text = "\n".join(lines) + "\n"
        path.unlink()
        if kind == "dir":
            path.mkdir()
        elif kind.startswith("e9-line-"):  # a 0xe9 byte after the first character of the line
            lines = text.encode().splitlines(keepends=True)
            line = lines[int(kind[8:]) - 1]
            lines[int(kind[8:]) - 1] = line[:1] + b"\xe9" + line[1:]
            path.write_bytes(b"".join(lines))
        else:
            path.write_text(text)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("".join(f"{k} = {v}\n" for k, v in fast_overrides(out).items()))
        proc = run_cli(stage, "--config", str(cfgfile))
        assert (proc.returncode, proc.stderr) == (3, f"data error: {path}{message}\n")

    # (horizon, session_close inside the flow) of each preset's short days
    TWO_SOURCE_DAYS = {"large-tick": (120.0, 36080), "small-tick": (240.0, 36160)}
    # the keys of a day's sampling flags that only one source has
    PRESET_KEYS, FILE_KEYS = {"side_depleted"}, {"messages", "hidden_volume", "ignored_messages"}

    @pytest.mark.parametrize("seed", [5, 6])
    @pytest.mark.parametrize("closes_in_flow", [False, True],
                             ids=["default-window", "close-in-flow"])
    @pytest.mark.parametrize("mode", ["uniform", "event"])
    @pytest.mark.parametrize("preset", ["large-tick", "small-tick"])
    def test_preset_and_its_files_agree(self, tmp_path, preset, mode, closes_in_flow, seed):
        """A preset run and the same days written by simulate and read back
        with their orderbook files give the same artifacts: every day ends at
        the earlier of its last message and the session close."""
        horizon, close = self.TWO_SOURCE_DAYS[preset]
        config = (f"preset = {preset}\ndays = 2\nhorizon = {horizon}\nseed = {seed}\n"
                  f"sampling_mode = {mode}\nsubsample = 40\njobs = 1\n")
        if closes_in_flow:
            config += f"session_close = {close}\n"
        local = (preset, mode, closes_in_flow, seed) == ("large-tick", "uniform", False, 5)
        config += ("models = logistic,local,null\ngrid_points = 21\nalphas = 0.5,0.8\n" if local
                   else "models = logistic,null\n")
        (tmp_path / "preset.cfg").write_text(config)
        assert cli_main(["simulate", "--config", str(tmp_path / "preset.cfg"),
                         "--out", str(tmp_path / "sim")]) == 0
        (tmp_path / "files.cfg").write_text(config + "source = lobster\n" + "".join(
            f"{kind}_files = " + ",".join(str(tmp_path / "sim" / f"day{d:03d}_{kind}.csv")
                                          for d in range(2)) + "\n"
            for kind in ("message", "orderbook")))
        runs = {}
        for name in ("preset", "files"):
            out = tmp_path / name
            assert cli_main(["pipeline", "--config", str(tmp_path / f"{name}.cfg"),
                             "--out", str(out)]) == 0
            runs[name] = {str(p.relative_to(out)): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()}
        preset_run, files_run = runs["preset"], runs["files"]
        assert preset_run.keys() == files_run.keys()
        assert ("fits/local_curve.csv" in preset_run) == local
        for name in preset_run.keys() - {"report.json", "sampling_flags.json",
                                         "resolved_config.txt"}:
            assert preset_run[name] == files_run[name], name
        reports = [json.loads(run["report.json"]) for run in (preset_run, files_run)]
        for report in reports:
            del report["provenance"]
        assert reports[0] == reports[1]
        preset_flags, file_flags = (json.loads(run["sampling_flags.json"])
                                    for run in (preset_run, files_run))
        assert file_flags.pop("verification_mismatches") == {"0": 0, "1": 0}
        for flags, keys in ((preset_flags, self.PRESET_KEYS), (file_flags, self.FILE_KEYS)):
            for day in flags["days"].values():
                assert keys <= day.keys()
                for key in keys:
                    del day[key]
        assert preset_flags == file_flags
        dropped = [day["dropped_after_close"] for day in preset_flags["days"].values()]
        assert all(dropped) if closes_in_flow else not any(dropped)

    def test_simulate_then_sample_from_files(self, tmp_path):
        simdir = tmp_path / "simdata"
        assert (
            cli_main(
                [
                    "simulate", "--preset", "large-tick", "--seed", "9",
                    "--out", str(simdir), "--days", "2",
                ]
            )
            == 0
        )
        manifest = json.loads((simdir / "manifest.json").read_text())
        assert len(manifest["days"]) == 2
        msgs = ",".join(str(simdir / d["message_file"]) for d in manifest["days"])
        books = ",".join(str(simdir / d["orderbook_file"]) for d in manifest["days"])
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "source = lobster\n"
            f"message_files = {msgs}\n"
            f"orderbook_files = {books}\n"
            "session_open = 36000\nsession_close = 36300\n"
            "subsample = 40\nmodels = logistic,null\n"
            f"out_dir = {tmp_path/'samp_out'}\n"
        )
        assert cli_main(["sample", "--config", str(cfgfile)]) == 0
        flags = json.loads((tmp_path / "samp_out" / "sampling_flags.json").read_text())
        assert flags["verification_mismatches"] == {"0": 0, "1": 0}
        assert flags["total_points"] == 80
        # the ingest subcommand over the same files: normalized event log,
        # summary record, clean verification
        ing_cfg = tmp_path / "ing.cfg"
        ing_cfg.write_text(
            "source = lobster\n"
            f"message_files = {msgs}\n"
            f"orderbook_files = {books}\n"
            "session_open = 36000\nsession_close = 36300\n"
            f"out_dir = {tmp_path/'ing_out'}\n"
        )
        assert cli_main(["ingest", "--config", str(ing_cfg)]) == 0
        events = (tmp_path / "ing_out" / "day000_events.csv").read_text().splitlines()
        assert events[0] == "seq,t_ns,kind,order_id,price_ticks,size_delta"
        assert len(events) > 1000
        verif = json.loads((tmp_path / "ing_out" / "verification.json").read_text())
        assert all(v["mismatch_count"] == 0 for v in verif.values())
        summary = json.loads((tmp_path / "ing_out" / "summary.json").read_text())
        assert summary["days"] == 2 and summary["executed_volume"] > 0
        assert summary["schema_version"] == 1
        sample_summary = json.loads((tmp_path / "samp_out" / "summary.json").read_text())
        assert summary == sample_summary


# every subcommand and the inputs it reads, relative to its working directory
SWEEP_INPUTS = [
    ("simulate", "sim.cfg"),
    ("ingest", "m.csv"),
    ("ingest", "o.csv"),
    ("sample", "o.csv"),
    ("pipeline", "m.csv"),
    ("fit", "run/samples.csv"),
    ("evaluate", "run/samples.csv"),
    ("evaluate", "run/split.csv"),
    ("evaluate", "run/fits/logistic.json"),
    ("evaluate", "run/fits/local_curve.csv"),
    ("report", "run/eval/report_null.json"),
    ("report", "run/fits/logistic.json"),
]
SWEEP_ERRORS = {2: "config error: ", 3: "data error: "}


def digests_but_config(root: Path) -> dict:
    """The tree's digests without resolved_config.txt, which records out_dir and jobs."""
    digests = tree_digest(root)
    digests.pop("resolved_config.txt", None)
    return digests


class TestStagesOverWorkers:
    """simulate, ingest and fit run their days and CV fits over ``jobs``
    workers; what they write, and what a failed run leaves, does not depend
    on ``jobs``."""

    @pytest.fixture(scope="class")
    def simdata(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("workers")
        (root / "sim.cfg").write_text("days = 4\nhorizon = 60\n")
        for jobs in ("1", "2"):
            argv = ["simulate", "--config", str(root / "sim.cfg"), "--out", str(root / f"sim{jobs}")]
            assert cli_main([*argv, "--jobs", jobs]) == 0
        return root

    @staticmethod
    def lobster_cfg(directory: Path, simdir: Path) -> None:
        (directory / "run.cfg").write_text(
            f"source = lobster\ndata_dir = {simdir}\n"
            + "message_files = " + ",".join(f"day{d:03d}_message.csv" for d in range(4)) + "\n"
            + "orderbook_files = " + ",".join(f"day{d:03d}_orderbook.csv" for d in range(4)) + "\n"
        )

    def test_simulate_and_ingest(self, simdata, tmp_path):
        sim1 = digests_but_config(simdata / "sim1")
        assert sim1 == digests_but_config(simdata / "sim2")
        assert len(sim1) == 9  # four days' two files and manifest.json
        self.lobster_cfg(tmp_path, simdata / "sim1")
        for jobs in ("1", "2"):
            argv = ["ingest", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / jobs)]
            assert cli_main([*argv, "--jobs", jobs]) == 0
        ingested = digests_but_config(tmp_path / "1")
        assert ingested == digests_but_config(tmp_path / "2")
        assert sorted(ingested) == [*(f"day{d:03d}_events.csv" for d in range(4)),
                                    "summary.json", "verification.json"]

    def test_fit_with_local(self, run_once, tmp_path):
        for jobs in (1, 2):
            out = tmp_path / str(jobs)
            out.mkdir()
            shutil.copyfile(run_once / "samples.csv", out / "samples.csv")
            pl.stage_fit(pl.load_config(None, fast_overrides(out, jobs=jobs)), out)
        assert digests_but_config(tmp_path / "1") == digests_but_config(tmp_path / "2")
        assert digests_but_config(tmp_path / "1")["fits/local_meta.json"] == (
            tree_digest(run_once)["fits/local_meta.json"])

    def test_malformed_day_fails_alike(self, simdata, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(simdata / "sim1", data)
        path = data / "day001_message.csv"
        rows = path.read_text().splitlines(keepends=True)
        rows[5] = rows[5].replace(",", ",x", 1)
        path.write_text("".join(rows))
        self.lobster_cfg(tmp_path, data)
        runs = []
        for jobs in ("1", "2"):
            proc = run_cli("ingest", "--config", "run.cfg", "--out", jobs, "--jobs", jobs,
                           cwd=tmp_path)
            runs.append((proc.returncode, proc.stderr, digests_but_config(tmp_path / jobs)))
        assert runs[0] == runs[1]
        assert runs[0][0] == 3 and runs[0][1].startswith("data error: line 6: ")
        assert str(path) in runs[0][1]
        assert runs[0][2] == {}

    def test_lost_worker_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        day = pl._simulated_day

        def lost_on_day_1(cfg, d):
            if d == 1:
                os._exit(3)
            return day(cfg, d)

        monkeypatch.setattr(pl, "_simulated_day", lost_on_day_1)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("".join(f"{k} = {v}\n" for k, v in fast_overrides(tmp_path / "out").items()))
        assert cli_main(["sample", "--config", str(cfgfile), "--jobs", "2"]) == 1
        assert capsys.readouterr().err == (
            "error: a worker process exited with status 3 before task 1 finished\n")
        assert_no_child_left()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_day_write_fault_names_the_file(self, tmp_path, monkeypatch, capsys):
        # a full disk under one day's level-1 file, at jobs 1 and 2; forked
        # workers inherit the patch
        open_out = rp.open_out

        def full_disk(path, newline=None):
            if path.name == "day001_orderbook.csv.partial":
                path.symlink_to("/dev/full")
            return open_out(path, newline)

        monkeypatch.setattr(rp, "open_out", full_disk)
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            argv = ["simulate", "--days", "3", "--seed", "3", "--out", str(out), "--jobs", jobs]
            assert cli_main(argv) == 2
            assert capsys.readouterr().err == (f"config error: cannot write {out}/"
                                               "day001_orderbook.csv.partial: No space left on device\n")
            assert list(out.iterdir()) == []
        assert_no_child_left()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_write_fault_names_the_file(self, run_once, tmp_path):
        shutil.copytree(run_once, tmp_path / "run")
        (tmp_path / "run.cfg").write_text(
            "".join(f"{k} = {v}\n" for k, v in fast_overrides("run").items()))
        for name, command in (("report.txt", "report"), ("eval/histogram.csv", "evaluate")):
            (tmp_path / "run" / name).unlink()
            (tmp_path / "run" / name).symlink_to("/dev/full")
            proc = run_cli(command, "--config", "run.cfg", cwd=tmp_path)
            assert (proc.returncode, proc.stderr) == (
                2, f"config error: cannot write run/{name}: No space left on device\n")


class TestCliSweep:
    """Every subcommand against each of its inputs replaced by an empty
    directory, removed, cut in the middle of a row, and with a non-ASCII byte
    in its middle. Each run is a child process, so a traceback would show."""

    @pytest.fixture
    def workdir(self, run_once, tmp_path):
        shutil.copytree(run_once, tmp_path / "run")
        (tmp_path / "run.cfg").write_text(
            "".join(f"{k} = {v}\n" for k, v in fast_overrides("run").items())
        )
        (tmp_path / "sim.cfg").write_text("days = 1\nhorizon = 5\n")
        (tmp_path / "lobster.cfg").write_text(
            "source = lobster\nmessage_files = m.csv\norderbook_files = o.csv\njobs = 2\n"
        )
        for name, rows in TestCli.DAY.items():
            (tmp_path / name).write_text("".join(f"{r}\n" for r in rows))
        return tmp_path

    @pytest.mark.parametrize("fault", ["empty-dir", "missing", "truncated", "corrupted"])
    @pytest.mark.parametrize(
        "command, rel", SWEEP_INPUTS, ids=[f"{c}-{r.rsplit('/', 1)[-1]}" for c, r in SWEEP_INPUTS]
    )
    def test_fault_exits_cleanly(self, workdir, command, rel, fault):
        path = workdir / rel
        data = path.read_bytes()
        path.unlink()
        if fault == "empty-dir":
            path.mkdir()
        elif fault == "truncated":
            cut = data[: len(data) // 2]  # on a line end, cut the row's last byte too
            path.write_bytes(cut[:-2] if cut.endswith(b"\n") else cut)
        elif fault == "corrupted":
            middle = len(data) // 2
            path.write_bytes(data[:middle] + b"\xff" + data[middle + 1:])
        config = {"simulate": "sim.cfg", "ingest": "lobster.cfg", "sample": "lobster.cfg",
                  "pipeline": "lobster.cfg"}.get(command, "run.cfg")
        out = "run" if config == "run.cfg" else "out"
        proc = run_cli(command, "--config", config, "--out", out, cwd=workdir)
        assert "Traceback" not in proc.stderr
        # a config fault, and a data file the config names but that is not
        # there, are configuration errors; any other fault in a data file is a
        # data error that names it, or the level-1 file it disagrees with
        config_fault = rel == "sim.cfg" or (fault == "missing" and config == "lobster.cfg")
        assert proc.returncode == (2 if config_fault else 3), proc.stderr
        assert proc.stderr.startswith(SWEEP_ERRORS[proc.returncode])
        assert proc.stderr.count("\n") == 1
        if not config_fault:
            assert any(name in proc.stderr for name in {path.name, "o.csv"})
        elif rel == "sim.cfg":  # a fault in the config file names it
            assert "sim.cfg" in proc.stderr
            if fault == "truncated":
                assert proc.stderr == "config error: sim.cfg, line 2: expected key = value\n"

    @pytest.mark.parametrize(
        "command, rel, kind, error",
        [
            ("fit", "split.csv", "dir", "cannot write run/split.csv: Is a directory"),
            ("fit", "fits", "file", "cannot create directory run/fits: File exists"),
            ("evaluate", "eval", "file", "cannot create directory run/eval: File exists"),
            ("report", "report.txt", "dir", "cannot write run/report.txt: Is a directory"),
            ("report", "report.json", "dir", "cannot write run/report.json: Is a directory"),
        ],
        ids=["split-dir", "fits-file", "eval-file", "report-txt-dir", "report-json-dir"],
    )
    def test_output_path_fault_exits_2(self, workdir, command, rel, kind, error):
        """A directory where a stage writes a file, or a file where it makes a
        directory, is a fault of the output location: exit 2, naming it."""
        path = workdir / "run" / rel
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()
        if kind == "dir":
            path.mkdir()
        else:
            path.write_text("x\n")
        proc = run_cli(command, "--config", "run.cfg", "--out", "run", cwd=workdir)
        assert (proc.returncode, proc.stderr) == (2, f"config error: {error}\n")


# each artifact of a staged run, and a subcommand that reads it
FAULT_TARGETS = [
    ("samples.csv", "fit"), ("samples.csv", "evaluate"), ("split.csv", "evaluate"),
    ("fits/logistic.json", "evaluate"), ("fits/intercept.json", "evaluate"),
    ("fits/local_meta.json", "evaluate"), ("fits/local_curve.csv", "evaluate"),
    ("fits/logistic.json", "report"), ("eval/report_null.json", "report"),
    ("eval/report_logistic.json", "report"), ("eval/report_local.json", "report"),
]
ERROR_PREFIXES = {2: "config error: ", 3: "data error: ", 4: "numerical error: "}


def mutate(data: bytes, draw, is_json: bool) -> bytes:
    """``data`` with one fault drawn by ``draw``: a flipped bit, an inserted
    non-ASCII byte, a cut, a duplicated or deleted line, or (JSON only, half
    the time) a top-level value of another type, sign or magnitude. Half the
    JSON faults hit an AUC or MSR, and half of those put it outside [0, 1]."""
    kinds = st.sampled_from(["flip", "non-ascii", "truncate", "duplicate-line", "delete-line"])
    kind = draw(st.just("json") | kinds if is_json else kinds)
    if kind == "flip":
        i = draw(st.integers(0, len(data) - 1))
        return data[:i] + bytes([data[i] ^ 1 << draw(st.integers(0, 7))]) + data[i + 1:]
    if kind == "non-ascii":
        i = draw(st.integers(0, len(data)))
        return data[:i] + bytes([draw(st.integers(0x80, 0xFF))]) + data[i:]
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "json":
        obj = json.loads(data)
        scores = [k for k in sorted(obj) if k[:4] in ("auc_", "msr_") and obj[k] is not None]
        key = draw(st.sampled_from(sorted(obj)) | st.sampled_from(scores) if scores
                   else st.sampled_from(sorted(obj)))
        value = obj[key]
        numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
        values = st.sampled_from([None, True, "x", [value], {"v": value}, 0, 1e300,
                                  *([-value] if numeric else [])])
        if key in scores:
            values = st.sampled_from([value + 1, -value - 0.5]) | values
        obj[key] = draw(values)
        return json.dumps(obj, indent=2).encode()
    lines = data.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    lines[i:i + 1] = [lines[i]] * 2 if kind == "duplicate-line" else []
    return b"".join(lines)


@st.composite
def split_text(draw):
    """``n`` and a split.csv text that lists each of ``n`` rows once, as
    stage_fit writes it, mixed with faults the column-at-a-time read must
    leave to the per-row path: a doubled, missing or out-of-range row, CRLF
    ends, spaces, ``+`` signs, leading zeros, over 18 digits, a non-ASCII
    byte, another subset, a blank line or a field too many. The header may
    be wrong and the last row may lack its LF."""
    n = draw(st.integers(1, 8))
    rows = [[str(i), draw(st.sampled_from(["train", "test"]))]
            for i in draw(st.permutations(range(n)))]
    ends = ["\n"] * n
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.integers(0, 13))
        j = draw(st.integers(0, len(rows) - 1))
        if kind == 0:
            rows.insert(j, list(rows[j]))
            ends.insert(j, "\n")
        elif kind == 1:
            del rows[j], ends[j]
            if not rows:
                break
        elif kind == 2:
            rows[j][0] = str(draw(st.sampled_from([n, n + 3, -1])))
        elif kind == 3:
            ends[j] = "\r\n"
        elif kind == 4:
            rows[j][draw(st.integers(0, 1))] += " "
        elif kind == 5:
            rows[j][0] = "+" + rows[j][0]
        elif kind == 6:
            rows[j][0] = "00" + rows[j][0]
        elif kind == 7:
            rows[j][0] = "1" + "0" * 18 + rows[j][0]
        elif kind == 8:
            rows[j][1] = draw(st.sampled_from(["tr\xe9in", "tset", "Train", ""]))
        elif kind == 9:
            ends[j] = "\n\n"
        elif kind == 10:
            rows[j].append("x")
        else:  # listed twice, and another row not at all
            rows[j][0] = rows[draw(st.integers(0, len(rows) - 1))][0]
    header = "index,subset" if draw(st.integers(0, 9)) else draw(st.sampled_from(
        ["index,subset,", "index", "Index,subset", "index,subset\r"]))
    text = header + "\n" + "".join(",".join(r) + e for r, e in zip(rows, ends))
    if draw(st.integers(0, 3)) == 0:
        text = text.rstrip("\n")
    return n, text


class TestSplitBlockRead:
    """A canonical split.csv is converted a column at a time; any other text
    goes through the per-row path. The split must not show."""

    @staticmethod
    def outcome(path, n):
        try:
            return [(a.dtype.str, a.tobytes()) for a in pl._read_split(path, n)]
        except DataError as exc:
            return exc.line_no, str(exc)

    @settings(deadline=None, max_examples=300)
    @given(case=split_text())
    def test_columns_read_as_rows(self, case):
        n, text = case
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "split.csv"
            path.write_bytes(text.encode("latin-1"))
            got = self.outcome(path, n)
            with mock.patch.object(pl, "_SPLIT", re.compile("(?!)")):  # rows only
                assert self.outcome(path, n) == got

    def test_canonical_file_is_converted_whole(self, tmp_path, monkeypatch):
        path = tmp_path / "split.csv"
        path.write_text("index,subset\n3,train\n0,train\n2,test\n1,train\n")
        monkeypatch.setattr(pl.rp, "read_csv", None)  # the per-row path is not called
        train, test = pl._read_split(path, 4)
        assert (train.tolist(), test.tolist()) == ([3, 0, 1], [2])


class TestFaultProperty:
    """One generated fault in one artifact of a staged run: the subcommand
    that reads it exits with a documented code, and a failure prints one
    error line and no traceback. Runs in process, so an escaping exception
    fails the test."""

    @settings(deadline=None, max_examples=150)
    @given(target=st.sampled_from(FAULT_TARGETS), data=st.data())
    def test_mutated_artifact_exits_cleanly(self, run_once, tmp_path_factory, target, data):
        rel, command = target
        work = tmp_path_factory.mktemp("mutated")
        try:
            out = work / "run"
            shutil.copytree(run_once, out)
            path = out / rel
            path.write_bytes(mutate(path.read_bytes(), data.draw, rel.endswith(".json")))
            cfgfile = work / "run.cfg"
            cfgfile.write_text("".join(f"{k} = {v}\n" for k, v in fast_overrides(out).items()))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli_main([command, "--config", str(cfgfile)])
            scores = written_scores(out) if code == 0 else []
        finally:
            shutil.rmtree(work)
        text = err.getvalue()
        assert code in (0, 2, 3, 4)
        if code:
            assert text.count("\n") == 1 and text.startswith(ERROR_PREFIXES[code]), text
        else:
            assert "error: " not in text
            assert scores and all(0.0 <= v <= 1.0 for v in scores), scores


def written_scores(out):
    """Every AUC and MSR that the eval reports and report.json of ``out`` hold."""
    models = [json.loads(p.read_text()) for p in sorted((out / "eval").glob("report_*.json"))]
    if (out / "report.json").exists():
        models += json.loads((out / "report.json").read_text())["models"].values()
    return [m[key] for m in models for key in ("auc_in", "auc_out", "msr_in", "msr_out")
            if m.get(key) is not None]


# every name `queuecast` exported when it imported all its submodules
EXPORTED = """
    BUY SELL BestQuoteState BookEvent Order OrderBook queue_imbalance
    EvalReport RocCurve auc auc_from_curve imbalance_histogram mean_squared_residual
    null_model_report queue_survivor roc_curve
    LobsterMessage SessionWindow messages_to_events parse_messages replay summary_stats
    verify_against_l1
    CvResult LocalLogisticFit cv_bandwidth fit_local_logistic predict_local
    LogisticFit TestResult chi2_sf_1df fit_intercept_only fit_logistic lr_test
    predict_logistic wald_test
    build_day_samples subsample_day
    SimResult ZiConfig regime_preset
"""


class TestStartup:
    """What each staged subcommand loads, listed in a child process at exit."""

    MODULES = (
        "import runpy, sys\n"
        "sys.argv = ['queuecast', *sys.argv[1:]]\n"
        "try:\n"
        "    runpy.run_module('queuecast.cli', run_name='__main__', alter_sys=True)\n"
        "finally:\n"
        "    print(' '.join(sorted(sys.modules)))\n"
    )
    POOLS = {"concurrent.futures", "multiprocessing"}
    HEAVY = {"queuecast.simulate", "queuecast.lobster", "queuecast.book", *POOLS}

    def test_staged_subcommands_load_only_what_they_run(self, run_once, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        shutil.copyfile(run_once / "samples.csv", out / "samples.csv")
        (tmp_path / "run.cfg").write_text(
            "".join(f"{k} = {v}\n" for k, v in fast_overrides(out).items())
        )
        env = {**os.environ, "PYTHONPATH": str(Path(pl.__file__).parents[1])}
        loaded = {}
        for command in ("fit", "evaluate", "report"):
            proc = subprocess.run(
                [sys.executable, "-c", self.MODULES, command, "--config", "run.cfg"],
                capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
            )
            assert (proc.returncode, proc.stderr) == (0, "")
            loaded[command] = set(proc.stdout.split())
        assert "numpy" not in loaded["report"]
        assert not self.HEAVY & (loaded["fit"] | loaded["evaluate"] | loaded["report"])
        assert "queuecast.local" in loaded["fit"] and "queuecast.evaluate" in loaded["evaluate"]
        digests = tree_digest(out)
        for rel, digest in tree_digest(run_once).items():
            if rel not in ("resolved_config.txt", "sampling_flags.json", "summary.json",
                           "queue_survivor.csv"):
                assert digests[rel] == digest, rel

    def test_day_pool_loads_no_process_pool_module(self, tmp_path):
        (tmp_path / "run.cfg").write_text(
            "".join(f"{k} = {v}\n" for k, v in fast_overrides("out", days=2, horizon=30.0).items())
        )
        env = {**os.environ, "PYTHONPATH": str(Path(pl.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", self.MODULES, "sample", "--config", "run.cfg", "--jobs", "2"],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        loaded = set(proc.stdout.split())
        assert "queuecast.simulate" in loaded and not self.POOLS & loaded

    def test_lobster_import_loads_no_numpy(self):
        """parse_messages loads numpy when it converts its first block."""
        env = {**os.environ, "PYTHONPATH": str(Path(pl.__file__).parents[1])}
        code = "import sys, queuecast.lobster; print('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert (proc.stdout, proc.stderr) == ("False\n", "")

    def test_package_names_resolve(self):
        import queuecast

        for name in EXPORTED.split():
            assert name in queuecast.__all__ and name in dir(queuecast), name
            value = getattr(queuecast, name)
            module = getattr(value, "__module__", None)
            if module is not None:  # a class or function: the object its module defines
                assert getattr(sys.modules[module], name) is value, name
        for module in ("book", "errors", "evaluate", "lobster", "local", "logistic",
                       "sampling", "simulate"):
            assert getattr(queuecast, module) is sys.modules[f"queuecast.{module}"]
        with pytest.raises(AttributeError):
            queuecast.no_such_name

    def test_config_spells_the_names_its_modules_define(self):
        assert pl.SAMPLING_MODES == (sp.UNIFORM, sp.EVENT)
        assert pl.PRESETS == tuple(sim._PRESETS)


def _null_report_with_extra():
    rep = null_model_report([0, 1, 1, 0, 1], [1, 0, 0])
    rep.extra = {"note": "constant 1/2"}
    return rep


RECORDS = {
    "logistic-fit": LogisticFit(0.02, 0.91, 0.011, 0.03, -640.5, 1000, 4, True, False),
    "intercept-fit": LogisticFit(0.1, 0.0, 0.04, None, -690.1, 1000, 0, True, False, True),
    "report-with-tests": EvalReport(
        "logistic", 80, 20, 0.71, 0.69, 0.21, 0.22,
        wald_x0=SigTest(0.3, 1, 0.58, False, False),
        wald_x1=SigTest(12.5, 1, 4e-4, True, True),
        lr_full=SigTest(12.5, 1, 4e-4, True, True),
    ),
    "report-one-class-test-set": EvalReport("null", 5, 3, 0.5, None, 0.25, 0.25),
    "report-with-extra": _null_report_with_extra(),
    "local-meta": pl.LocalMeta(
        0.65, [0.5, 0.65, 0.8], {"0.5": 0.241, "0.65": 0.239, "0.8": 0.24}, 5, 401,
        "samples.csv@seed7", 3, 0, False, 1206,
    ),
}


def _required(cls):
    return [f.name for f in fields(cls)
            if f.default is MISSING and f.default_factory is MISSING]


class TestRecordRoundTrip:
    @pytest.mark.parametrize("name", list(RECORDS))
    def test_round_trip(self, tmp_path, name):
        rec = RECORDS[name]
        cls = type(rec)
        path = tmp_path / "record.json"
        d = record_to_dict(rec)
        assert d["schema_version"] == 1
        write_json(path, d)
        assert read_record(cls, path) == rec

        for key in _required(cls):
            without = {k: v for k, v in d.items() if k != key}
            path.write_text(json.dumps(without))
            with pytest.raises(DataError, match=f"record.json: missing key '{key}'"):
                read_record(cls, path)
            # a string where no string is allowed, a number in a string field,
            # and a bool in any field but a bool
            wrongs = [1 if isinstance(d[key], str) else "abc"]
            wrongs.append(0 if isinstance(d[key], bool) else True)
            for wrong in wrongs:
                path.write_text(json.dumps({**d, key: wrong}))
                with pytest.raises(DataError, match=f"record.json: key '{key}': expected"):
                    read_record(cls, path)

        # a field with a default may be absent
        required = {k: v for k, v in d.items() if k in _required(cls)}
        path.write_text(json.dumps({"schema_version": 1, **required}))
        assert read_record(cls, path) == cls(**required)

    @pytest.mark.parametrize(
        "version, message",
        [(None, "missing key 'schema_version'"),
         (2, "key 'schema_version': expected 1, got 2"),
         ("1", "key 'schema_version': expected 1, got '1'"),
         (1.0, "key 'schema_version': expected 1, got 1.0"),
         (True, "key 'schema_version': expected 1, got True")],
        ids=["missing", "newer", "string", "float", "bool"],
    )
    def test_schema_version_refused(self, tmp_path, version, message):
        d = record_to_dict(RECORDS["logistic-fit"])
        if version is None:
            del d["schema_version"]
        else:
            d["schema_version"] = version
        path = tmp_path / "record.json"
        path.write_text(json.dumps(d))
        with pytest.raises(DataError) as info:
            read_record(LogisticFit, path)
        assert str(info.value) == f"{path}: {message}"

    def test_nested_record_names_its_key(self, tmp_path):
        d = record_to_dict(RECORDS["report-with-tests"])
        del d["lr_full"]["p_value"]
        path = tmp_path / "report.json"
        path.write_text(json.dumps(d))
        with pytest.raises(DataError, match="missing key 'lr_full.p_value'"):
            read_record(EvalReport, path)
        d["lr_full"] = [12.5]
        path.write_text(json.dumps(d))
        with pytest.raises(DataError, match="key 'lr_full': expected a JSON object"):
            read_record(EvalReport, path)
        # schema_version is a key of the top level only
        d = record_to_dict(RECORDS["report-with-tests"])
        d["lr_full"]["schema_version"] = 1
        path.write_text(json.dumps(d))
        with pytest.raises(DataError, match=r"report.json: unknown key 'lr_full.schema_version'$"):
            read_record(EvalReport, path)

    def test_no_nan_in_json(self, tmp_path):
        path = tmp_path / "report.json"
        rec = replace(RECORDS["report-with-tests"], msr_out=float("nan"))
        with pytest.raises(NumericalError, match="report.json"):
            write_json(path, record_to_dict(rec))
        assert not path.exists()
        path.write_text(json.dumps(record_to_dict(rec)))
        with pytest.raises(DataError, match="report.json: NaN is not a JSON number"):
            read_record(EvalReport, path)


class TestWriteCsv:
    @pytest.mark.parametrize("floats, ints, names, text", [
        ([0.1, 1 / 3, -2e-20], [1, 20, -3], ["a", "b c", ""],
         "x,n,s\r\n0.1,1,a\r\n0.333333333333,20,b c\r\n-2e-20,-3,\r\n"),
        ([], [], [], "x,n,s\r\n"),
    ], ids=["rows", "no-rows"])
    def test_list_and_array_columns_write_the_same_bytes(self, tmp_path, floats, ints, names,
                                                         text):
        """A float column is %.12g and any other str, whether it is a list or an array."""
        lists, arrays = tmp_path / "lists.csv", tmp_path / "arrays.csv"
        write_csv(lists, ("x", "n", "s"), (floats, ints, names))
        write_csv(arrays, ("x", "n", "s"), (np.array(floats, dtype=float),
                                            np.array(ints, dtype=np.int64),
                                            np.array(names, dtype=str)))
        assert lists.read_bytes() == arrays.read_bytes() == text.encode()


class TestEmitReport:
    def _rep(self, model, lr_stat):
        tr = SigTest(lr_stat, 1, 0.01, lr_stat >= 3.84, lr_stat >= 6.63)
        return EvalReport(model, 80, 20, 0.7, 0.7, 0.2, 0.2, lr_full=tr)

    def test_star_markers(self):
        assert stars(7.0) == "**"
        assert stars(4.0) == "*"
        assert stars(1.0) == ""
        assert stars(3.84) == "*"
        assert stars(6.63) == "**"

    def test_table_contains_stars(self):
        text = emit_report_text([self._rep("logistic", 7.0)])
        assert "7.00**" in text
        text = emit_report_text([self._rep("logistic", 4.0)])
        assert "4.00*" in text and "4.00**" not in text
        text = emit_report_text([self._rep("logistic", 1.0)])
        assert "1.00" in text and "1.00*" not in text

    def test_edge_alpha_flagged(self):
        local = EvalReport("local", 80, 20, 0.7, 0.7, 0.2, 0.2)
        for edge in (True, False):
            local.extra = {"alpha": 0.65, "alpha_at_edge": edge}
            text = emit_report_text([local])
            assert ("local: alpha 0.65 is the edge of the candidates\n" in text) is edge
