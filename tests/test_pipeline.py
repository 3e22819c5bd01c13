import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from queuecast import lobster as lb
from queuecast import pipeline as pl
from queuecast import simulate as sim
from queuecast.cli import main as cli_main
from queuecast.errors import ConfigError, DataError
from queuecast.evaluate import EvalReport, null_model_report
from queuecast.logistic import TestResult as SigTest
from queuecast.reports import (
    emit_report_text,
    read_local_curve_csv,
    report_from_dict,
    report_to_dict,
    stars,
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

    def test_failure_removes_partial_artifacts(self, tmp_path):
        out = tmp_path / "failing"
        # days with almost no activity: sampling succeeds but the fit stage
        # cannot split a handful of points
        cfg = pl.load_config(
            None, fast_overrides(out, days=1, horizon=1.0, subsample=2)
        )
        with pytest.raises(Exception):
            pl.run_pipeline(cfg)
        assert out.exists() and not any(out.iterdir())


class TestDayLoop:
    def test_jobs_keep_outcomes_in_day_order(self, tmp_path):
        # five days over two workers, one day per task: both workers run days
        cfg = pl.load_config(None, fast_overrides(tmp_path, days=5, horizon=30.0))
        serial = pl.run_days(cfg)
        assert [oc.day for oc in serial] == list(range(5))
        assert pl.run_days(replace(cfg, jobs=2)) == serial

    @pytest.mark.parametrize("preset", ["large-tick", "small-tick"])
    def test_unrecorded_day_matches_recorded_simulation(self, tmp_path, monkeypatch, preset):
        cfg = pl.load_config(None, fast_overrides(tmp_path, preset=preset, days=2, horizon=120.0))
        lean = [pl._simulated_day(cfg, day) for day in range(2)]
        session, recorded = sim._session, []

        def recorded_session(zi, record):  # what sim.simulate returns
            recorded.append(session(zi, record=True))
            return recorded[-1]

        monkeypatch.setattr(sim, "_session", recorded_session)
        full = [pl._simulated_day(cfg, day) for day in range(2)]
        assert all(res.messages and res.l1_rows for res in recorded)
        assert lean == full
        assert all(oc.points for oc in lean)


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
        [b"horizon = nan", b"horizon = inf", b"tick_size = inf", b"tick_size = 1e-9",
         b"instrument = caf\xe9"],
        ids=["horizon-nan", "horizon-inf", "tick-inf", "tick-below-price-unit", "non-ascii"],
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
         ("0.25,2", "y = 2 is not 0 or 1")],
        ids=["nan", "inf", "out-of-range", "bad-label"],
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
        env = {**os.environ, "PYTHONPATH": str(Path(pl.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "queuecast.cli", stage, "--config", str(cfgfile)],
            capture_output=True, text=True, env=env, timeout=120,
        )
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

    def test_bad_local_curve_is_data_error(self, tmp_path):
        path = tmp_path / "local_curve.csv"
        with pytest.raises(DataError, match="local_curve.csv"):
            read_local_curve_csv(path)
        path.write_text("grid,p\n0,0.5\n")
        with pytest.raises(DataError, match="local_curve.csv"):
            read_local_curve_csv(path)

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


class TestReportRoundTrip:
    def test_logistic_report(self):
        tr = SigTest(12.5, 1, 4e-4, True, True)
        rep = EvalReport(
            "logistic", 80, 20, 0.71, 0.69, 0.21, 0.22,
            wald_x0=SigTest(0.3, 1, 0.58, False, False), wald_x1=tr, lr_full=tr,
        )
        d = json.loads(json.dumps(report_to_dict(rep)))
        assert report_from_dict(d) == rep

    def test_null_report(self):
        rep = null_model_report([0, 1, 1, 0, 1], [1, 0, 0])
        rep.extra = {"note": "constant 1/2"}
        d = json.loads(json.dumps(report_to_dict(rep)))
        assert report_from_dict(d) == rep
        assert rep.wald_x1 is None and rep.lr_full is None


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
