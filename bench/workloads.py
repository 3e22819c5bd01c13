"""Workload definitions shared by the timed run (run.py) and the traced run
(trace.py).

Every workload is a directory of inputs made by a set-up step and an
operation that turns those inputs into a fresh artifact directory. Both run
from the workload's work directory, so every path written into a config is
relative and identical between repeats; artifact digests can therefore be
compared across repeats, set-ups and the traced run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# sim-large-tick: a dozen preset days through the jobs=2 process pool.
SIM_DAYS = 12
# lobster-small-tick: small-tick days written by the simulator, then ingested
# by jobs=2 workers in chunks of 4 days, two chunks each.
LOB_DAYS = 16
# 100 points a day, as in the paper. Keeping every point (about 400 a day,
# n_train about 5300) makes the global logistic fit creep to MAX_ITER on some
# seeds, and the pipeline then exits 4 on its Wald test.
LOB_SUBSAMPLE = 100
# fit-local-cv: 18 large-tick days x 700 points = 12600 samples, so
# n_train = floor(0.8 x 12600) = 10080, half the paper's 20160.
FIT_DAYS = 18
FIT_SUBSAMPLE = 700
FIT_GRID_POINTS = 21
FIT_ALPHAS = "0.5,0.65,0.8"
FIT_CV_FOLDS = 5
# The fit-local-cv sample panel is the same for every --seed. Its cost is
# dominated by the few local fits whose step halving creeps to MAX_ITER
# without converging, each worth about 300 ordinary fits; which grid points
# creep is a lottery over the data. Over six seeds one CV at n_train=10080
# took 4.6-9.8 s on a 2-CPU x86-64 VM. A fixed panel keeps that defect in
# every run at one level instead of sampling it.
FIT_PANEL_SEED = 7

PIPELINE_ARTIFACTS = (
    "resolved_config.txt",
    "samples.csv",
    "sampling_flags.json",
    "summary.json",
    "split.csv",
    "fits/logistic.json",
    "fits/intercept.json",
    "eval/histogram.csv",
    "eval/report_logistic.json",
    "eval/roc_logistic_out.csv",
    "eval/report_null.json",
    "report.txt",
    "report.json",
)
# what queuecast fit, evaluate and report leave beside a copied samples.csv
STAGED_ARTIFACTS = tuple(
    a for a in PIPELINE_ARTIFACTS if a not in ("sampling_flags.json", "summary.json")
)
LOCAL_ARTIFACTS = (
    "fits/local_curve.csv",
    "fits/local_meta.json",
    "eval/report_local.json",
    "eval/roc_local_out.csv",
)
CRIT_99 = 6.63  # chi-square(1) critical value at 99%


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # run-config keys of the operation; the seed is added per run
    headline_model: str  # model whose auc_out / msr_out are reported
    artifacts: tuple
    fixed_seed: int | None = None  # seed used in place of --seed

    def op_config(self, seed: int) -> str:
        return _config_text(self.config, seed if self.fixed_seed is None else self.fixed_seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sim-large-tick",
            {
                "source": "preset",
                "preset": "large-tick",
                "days": SIM_DAYS,
                "sampling_mode": "uniform",
                "subsample": 100,
                "models": "logistic,null",
                "jobs": 2,
            },
            "logistic",
            PIPELINE_ARTIFACTS,
        ),
        Workload(
            "lobster-small-tick",
            {
                "source": "lobster",
                "message_files": ",".join(
                    f"inputs/day{d:03d}_message.csv" for d in range(LOB_DAYS)
                ),
                "orderbook_files": ",".join(
                    f"inputs/day{d:03d}_orderbook.csv" for d in range(LOB_DAYS)
                ),
                "sampling_mode": "event",
                "subsample": LOB_SUBSAMPLE,
                "models": "logistic,null",
                "jobs": 2,
            },
            "logistic",
            PIPELINE_ARTIFACTS,
        ),
        Workload(
            "fit-local-cv",
            {
                "source": "preset",
                "preset": "large-tick",
                "models": "logistic,local,null",
                "alphas": FIT_ALPHAS,
                "grid_points": FIT_GRID_POINTS,
                "cv_folds": FIT_CV_FOLDS,
                "jobs": 1,
            },
            "local",
            STAGED_ARTIFACTS + LOCAL_ARTIFACTS,
            fixed_seed=FIT_PANEL_SEED,
        ),
    )
}

# queuecast sample settings that make the fit-local-cv panel
FIT_SAMPLE_CONFIG = {
    "source": "preset",
    "preset": "large-tick",
    "days": FIT_DAYS,
    "sampling_mode": "uniform",
    "subsample": FIT_SUBSAMPLE,
    "jobs": 2,
}


def _config_text(values: dict, seed: int) -> str:
    lines = [f"{k} = {v}" for k, v in values.items()] + [f"seed = {seed}"]
    return "\n".join(lines) + "\n"


def fit_sample_config() -> str:
    return _config_text(FIT_SAMPLE_CONFIG, FIT_PANEL_SEED)


# --- correctness checks on one artifact directory --------------------------------


def tree_digest(directory: Path, exclude=("resolved_config.txt",)) -> str:
    """sha256 over every file's relative path and bytes, in sorted order.

    resolved_config.txt records out_dir, so it differs between repeats by
    construction and is left out.
    """
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        rel = path.relative_to(directory).as_posix()
        if rel in exclude:
            continue
        h.update(rel.encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="ascii"))


def pairwise_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """O(n^2) Mann-Whitney statistic with half credit for ties."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for block in np.array_split(pos, max(1, len(pos) // 256)):
        diff = block[:, None] - neg[None, :]
        wins += float(np.count_nonzero(diff > 0)) + 0.5 * float(np.count_nonzero(diff == 0))
    return wins / (len(pos) * len(neg))


def read_split(out: Path):
    """(imbalance, label) arrays of the train and the test part of an artifact directory."""
    rows = (out / "samples.csv").read_text(encoding="ascii").splitlines()[1:]
    imb = np.array([float(r.split(",")[4]) for r in rows])
    lab = np.array([int(r.split(",")[5]) for r in rows])
    subset = [
        line.split(",") for line in (out / "split.csv").read_text(encoding="ascii").splitlines()[1:]
    ]
    train = [int(i) for i, part in subset if part == "train"]
    test = [int(i) for i, part in subset if part == "test"]
    return (imb[train], lab[train]), (imb[test], lab[test])


def check_artifacts(wl: Workload, out: Path) -> tuple[list[str], dict]:
    """Return (failures, quality metrics) for one finished operation."""
    missing = [a for a in wl.artifacts if not (out / a).is_file()]
    if missing:
        return [f"missing artifacts: {', '.join(missing)}"], {}
    failures = []
    report = _read_json(out / "report.json")["models"][wl.headline_model]
    quality = {"auc_out": report["auc_out"], "msr_out": report["msr_out"]}
    if wl.name == "sim-large-tick":
        x1 = _read_json(out / "fits" / "logistic.json")["x1"]
        if not x1 > 0:
            failures.append(f"x1 = {x1} is not positive")
        if not report["lr_full"]["statistic"] > CRIT_99:
            failures.append(f"LR = {report['lr_full']['statistic']} <= {CRIT_99}")
        if not report["auc_out"] > 0.65:
            failures.append(f"AUC_out = {report['auc_out']} <= 0.65")
        n = report["n_train"] + report["n_test"]
        if n != SIM_DAYS * wl.config["subsample"]:
            failures.append(f"n_train + n_test = {n} != {SIM_DAYS} days x {wl.config['subsample']}")
    elif wl.name == "lobster-small-tick":
        mismatches = _read_json(out / "sampling_flags.json").get("verification_mismatches", {})
        if sorted(mismatches) != sorted(str(d) for d in range(LOB_DAYS)):
            failures.append(f"verification ran on days {sorted(mismatches)}, not all {LOB_DAYS}")
        bad = {d: m for d, m in mismatches.items() if m != 0}
        if bad:
            failures.append(f"level-1 verification mismatches {bad}")
    elif wl.name == "fit-local-cv":
        # test-set scores of the local model, recomputed from the artifacts
        curve = np.loadtxt(out / "fits" / "local_curve.csv", delimiter=",", skiprows=1, ndmin=2)
        _, (imb, labels) = read_split(out)
        oracle = pairwise_auc(np.interp(imb, curve[:, 0], curve[:, 1]), labels)
        if not abs(oracle - report["auc_out"]) <= 1e-12:
            failures.append(f"auc_out {report['auc_out']!r} != pairwise AUC {oracle!r}")
    return failures, quality
