"""Acceptance suite: every criterion runs standalone at its stated tolerance
and prints one PASS/FAIL line (visible with pytest -s or on failure)."""

import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from queuecast import lobster as lb
from queuecast import pipeline as pl
from queuecast.evaluate import auc, mean_squared_residual, null_scores
from queuecast.local import default_grid, fit_local_logistic, predict_local
from queuecast.logistic import (
    chi2_sf_1df,
    fit_intercept_only,
    fit_logistic,
    lr_test,
    predict_logistic,
)
from queuecast.sampling import read_samples_csv
from queuecast.simulate import regime_preset, simulate

from oracles import grid_search_logistic, pairwise_auc


def report_line(num, ok, desc, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {num} {status}: {desc}{timing}")
    assert ok, f"criterion {num} failed: {desc}"


# --- shared large-scale runs -------------------------------------------------

C5_SEED = 20140102


def _run_regime(tmp_root: Path, preset: str, models: str) -> Path:
    out = tmp_root / preset.replace("-", "_")
    cfg = pl.load_config(
        None,
        {
            "source": "preset",
            "preset": preset,
            "days": 252,
            "subsample": 100,
            "seed": C5_SEED,
            "models": models,
            "alphas": "0.5,0.65,0.8",
            "jobs": 2,
            "out_dir": str(out),
        },
    )
    pl.run_pipeline(cfg)
    return out


@pytest.fixture(scope="module")
def c5_run(tmp_path_factory):
    t0 = time.time()
    out = _run_regime(tmp_path_factory.mktemp("c5"), "large-tick", "logistic,local,null")
    return out, time.time() - t0


@pytest.fixture(scope="module")
def c6_run(tmp_path_factory):
    t0 = time.time()
    out = _run_regime(tmp_path_factory.mktemp("c6"), "small-tick", "logistic,null")
    return out, time.time() - t0


def _load_eval(out: Path, model: str) -> dict:
    return json.loads((out / "eval" / f"report_{model}.json").read_text())


def _load_train_test(out: Path):
    samples = read_samples_csv(out / "samples.csv")
    train, test = pl._read_split(out / "split.csv", len(samples))
    return ((samples.imbalance[train], samples.label[train]),
            (samples.imbalance[test], samples.label[test]))


# --- criteria ------------------------------------------------------------------

def test_criterion_1_null_model_exactness():
    t0 = time.time()
    rng = np.random.default_rng(0)
    ok = True
    for trial in range(200):
        n = int(rng.integers(1, 400))
        labels = rng.integers(0, 2, n)
        ok &= mean_squared_residual(null_scores(n), labels) == 0.25
        if labels.min() != labels.max():
            ok &= abs(auc(null_scores(n), labels) - 0.5) <= 1e-12
    for labels in ([0, 1], [1] * 50 + [0], [0] * 99 + [1]):
        y = np.array(labels)
        ok &= mean_squared_residual(null_scores(len(y)), y) == 0.25
        ok &= abs(auc(null_scores(len(y)), y) - 0.5) <= 1e-12
    elapsed = time.time() - t0
    report_line(1, ok and elapsed < 1.0, "null model: MSR == 0.25 bitwise, AUC == 0.5 +- 1e-12", elapsed)


def test_criterion_2_mle_matches_grid_search_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    ok = True
    for trial in range(25):
        x0 = float(rng.uniform(-0.4, 0.4))
        x1 = float(rng.uniform(0.5, 3.0))
        I = rng.uniform(-1, 1, 200)
        p = 1.0 / (1.0 + np.exp(-(x0 + x1 * I)))
        y = (rng.random(200) < p).astype(int)
        fit = fit_logistic(I, y)
        gx0, gx1 = grid_search_logistic(I, y)
        ok &= abs(fit.x0 - gx0) < 1e-3 and abs(fit.x1 - gx1) < 1e-3
        pr = predict_logistic(fit, I)
        score = math.hypot(float(np.sum(y - pr)), float(np.sum((y - pr) * I)))
        ok &= score < 1e-8
    elapsed = time.time() - t0
    report_line(2, ok and elapsed < 30.0, "25 seeded MLE fits match exhaustive grid search within 1e-3", elapsed)


def test_criterion_3_auc_identity():
    t0 = time.time()
    rng = np.random.default_rng(33)
    ok = True
    for trial in range(100):
        n = int(rng.integers(10, 1001))
        decimals = int(rng.integers(0, 3))  # 0 decimals = heavy ties
        scores = rng.random(n).round(decimals)
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        ok &= abs(auc(scores, labels) - pairwise_auc(scores, labels)) <= 1e-12
    elapsed = time.time() - t0
    report_line(3, ok and elapsed < 30.0, "trapezoidal AUC equals O(n^2) pairwise statistic to 1e-12", elapsed)


def test_criterion_4_book_reconstruction_round_trip():
    t0 = time.time()
    # ~1e6 events of large-tick flow in one seeded session
    cfg = regime_preset("large-tick", seed=987654321, horizon=10700.0)
    res = simulate(cfg)
    n_events = len(res.messages)
    text = "".join(lb.format_message(m) + "\n" for m in res.messages)
    reparsed = list(lb.parse_messages(io.StringIO(text)))
    rep = lb.replay(reparsed, record_l1=True)
    l1_mismatches = sum(1 for a, b in zip(rep.l1_rows, res.l1_rows) if a != b)
    l1_mismatches += abs(len(rep.l1_rows) - len(res.l1_rows))
    tl_mismatches = sum(1 for a, b in zip(rep.timeline, res.timeline) if a != b)
    tl_mismatches += abs(len(rep.timeline) - len(res.timeline))
    elapsed = time.time() - t0
    ok = n_events >= 10**6 and l1_mismatches == 0 and tl_mismatches == 0 and elapsed < 60.0
    report_line(
        4, ok,
        f"{n_events} events round-trip with 0 quote mismatches "
        f"(l1={l1_mismatches}, timeline={tl_mismatches})",
        elapsed,
    )


def test_criterion_5_end_to_end_signal_detection(c5_run):
    out, elapsed = c5_run
    rep = _load_eval(out, "logistic")
    fit = json.loads((out / "fits" / "logistic.json").read_text())
    n_points = rep["n_train"] + rep["n_test"]
    ok = (
        n_points == 25200
        and rep["n_train"] == 20160
        and rep["n_test"] == 5040
        and fit["x1"] > 0
        and rep["lr_full"]["statistic"] > 6.63
        and rep["auc_out"] > 0.65
        and rep["msr_out"] < 0.23
        and elapsed < 300.0
    )
    report_line(
        5, ok,
        f"large-tick 252x100: x1={fit['x1']:.3f}, LR={rep['lr_full']['statistic']:.0f}, "
        f"AUC_out={rep['auc_out']:.3f}, MSR_out={rep['msr_out']:.3f}",
        elapsed,
    )


def test_criterion_6_regime_contrast(c5_run, c6_run):
    out_l, el_l = c5_run
    out_s, el_s = c6_run
    rep_l = _load_eval(out_l, "logistic")
    rep_s = _load_eval(out_s, "logistic")
    fit_l = json.loads((out_l / "fits" / "logistic.json").read_text())
    fit_s = json.loads((out_s / "fits" / "logistic.json").read_text())
    ok = (
        fit_s["x1"] < fit_l["x1"]
        and rep_s["auc_out"] < rep_l["auc_out"]
        and rep_s["msr_out"] > rep_l["msr_out"]
        and el_s < 300.0
    )
    report_line(
        6, ok,
        f"small-tick vs large-tick under seed {C5_SEED}: "
        f"x1 {fit_s['x1']:.3f}<{fit_l['x1']:.3f}, "
        f"AUC {rep_s['auc_out']:.3f}<{rep_l['auc_out']:.3f}, "
        f"MSR {rep_s['msr_out']:.3f}>{rep_l['msr_out']:.3f}",
        el_s,
    )


def test_criterion_7_local_logistic_limit_and_cv(c5_run):
    out, _ = c5_run
    t0 = time.time()
    (I_tr, y_tr), (I_te, y_te) = _load_train_test(out)
    glob = fit_logistic(I_tr, y_tr)

    # all-ones-weights mode reproduces the global fit everywhere
    flat = fit_local_logistic(I_tr, y_tr, alpha=1.0, all_weights_one=True)
    max_dev = float(np.max(np.abs(flat.fitted - predict_logistic(glob, flat.grid))))

    # the pipeline's CV already ran on this data; its choice must be a candidate
    meta = json.loads((out / "fits" / "local_meta.json").read_text())
    alpha_in_range = meta["alpha"] in (0.5, 0.65, 0.8) and 0.5 <= meta["alpha"] <= 0.8

    # headline bandwidth 0.65: out-of-sample MSR within 1e-3 of global's
    local65 = fit_local_logistic(I_tr, y_tr, alpha=0.65, grid=default_grid())
    msr_local = mean_squared_residual(predict_local(local65, I_te), y_te)
    msr_global = mean_squared_residual(predict_logistic(glob, I_te), y_te)
    elapsed = time.time() - t0
    ok = max_dev < 1e-8 and alpha_in_range and msr_local <= msr_global + 1e-3 and elapsed < 600.0
    report_line(
        7, ok,
        f"local limit dev={max_dev:.2e}, cv alpha={meta['alpha']}, "
        f"MSR local {msr_local:.4f} <= global {msr_global:.4f} + 1e-3",
        elapsed,
    )


def test_criterion_8_statistical_law_checks():
    t0 = time.time()
    p1 = chi2_sf_1df(1.0)
    wald_ok = abs(p1 - 0.3173) <= 1e-4

    # n=500 per simulation keeps the finite-sample LR distribution close to
    # its chi-square(1) limit; smaller n inflates the upper quantiles
    rng = np.random.default_rng(4)
    stats = []
    while len(stats) < 1000:
        I = rng.uniform(-1, 1, 500)
        y = (rng.random(500) < 0.5).astype(int)
        if y.min() == y.max():
            continue
        full = fit_logistic(I, y)
        stats.append(lr_test(full, fit_intercept_only(y)).statistic)
    q95 = float(np.quantile(stats, 0.95))
    lr_ok = 3.4 <= q95 <= 4.3
    elapsed = time.time() - t0
    ok = wald_ok and lr_ok and elapsed < 180.0
    report_line(
        8, ok,
        f"Wald p(1)={p1:.6f} (target 0.3173+-1e-4); null-LR q95={q95:.3f} in [3.4, 4.3]",
        elapsed,
    )


def test_criterion_9_pipeline_determinism(tmp_path):
    t0 = time.time()

    def digest(root: Path) -> dict:
        return {
            str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    out = tmp_path / "det_run"
    overrides = {
        "source": "preset",
        "preset": "large-tick",
        "days": 20,
        "subsample": 100,
        "seed": 7,
        "models": "logistic,local,null",
        "alphas": "0.5,0.65,0.8",
        "grid_points": 401,
        "out_dir": str(out),
    }
    pl.run_pipeline(pl.load_config(None, overrides))
    first = out.rename(tmp_path / "det_run_first")
    pl.run_pipeline(pl.load_config(None, overrides))
    a, b = digest(first), digest(out)
    elapsed = time.time() - t0
    ok = a == b and len(a) >= 15
    report_line(
        9, ok,
        f"two identical-config runs produce byte-identical directories ({len(a)} files)",
        elapsed,
    )
