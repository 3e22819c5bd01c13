"""queuecast benchmark: timed closed-loop runs and traced per-layer runs.

    python3 bench/run.py --workload sim-large-tick --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the repository root. Each timed operation is the queuecast CLI in a
child process (PYTHONPATH=src), one client at a time: the next operation
starts when the previous one has finished and been checked. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics of trace.py.
The last line of standard output is one JSON object; --record FILE also
appends it, with the workload and seed, to a JSON-lines file that
compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import (
    LOB_DAYS, ROOT, SRC, WORKLOADS, check_artifacts, fit_sample_config, tree_digest,
)

WORK_ROOT = ROOT / ".bench_work"
SETUPS = 3  # set-ups per run; setup_s is their median
DEADLINE_S = 170.0  # a run must end within 180 s

UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "auc_out": "ratio",
    "msr_out": "ratio",
}


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Run:
    """One benchmark run: its work directory, deadline, and operation log."""

    def __init__(self, workload: str, seed: int):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.start = time.perf_counter()
        self.work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "tmp").mkdir(parents=True)
        self.env = {
            k: v
            for k, v in os.environ.items()
            if k not in ("QUEUECAST_DATA_DIR", "QUEUECAST_OUT_DIR", "PYTHONPATH")
        }
        # The program's parallelism is its jobs= process pool. Left alone,
        # OpenBLAS adds busy-waiting threads to the short vector products of
        # the logistic fits, which raises cpu_s above wall_s for a single
        # process and oversubscribes the two CPUs under jobs=2.
        self.env.update(
            PYTHONPATH=str(SRC), TMPDIR=str(self.work / "tmp"),
            OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        )
        self.attempted = 0  # checked units: input generations and operations
        self.failed: set[str] = set()
        self.failures: list[str] = []
        self.reference_digest = None
        self.quality = None
        self.n_ops = 0
        self.cpus = sorted(os.sched_getaffinity(0))

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def child(self, argv: list[str], cpu: int | None = None) -> dict:
        """Run one child process, on one CPU if given; return its wall time and rusage."""
        log = self.work / "child.log"
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.work, env=self.env, stdout=fh, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            if cpu is not None:
                os.sched_setaffinity(proc.pid, {cpu})
            timer = threading.Timer(max(self.remaining(), 1.0), _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = {
            "wall_s": wall,
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "peak_rss_mb": ru.ru_maxrss / 1024.0,
            "code": proc.returncode,
        }
        if proc.returncode != 0:
            tail = log.read_text(errors="replace")[-400:]
            result["error"] = f"{' '.join(argv[3:5])} exited {proc.returncode}: {tail}"
        return result

    def cli(self, *args: str, cpu: int | None = None) -> dict:
        return self.child([sys.executable, "-m", "queuecast.cli", *args], cpu)

    def op_cpu(self) -> int | None:
        """The CPU for the current single-process operation, in turn over all CPUs.

        On this kind of virtual machine each CPU speeds up and slows down on
        its own, by up to a third for tens of seconds. A single-process
        operation runs on one CPU, so an unpinned run's median depends on
        where the scheduler happened to put it. Taking the CPUs in turn
        spreads every run evenly over them. jobs=2 operations stay unpinned.
        """
        if self.wl.config["jobs"] != 1 or len(self.cpus) < 2:
            return None
        return self.cpus[self.n_ops % len(self.cpus)]

    # --- set-up ---------------------------------------------------------------

    def make_inputs(self) -> list[dict]:
        """Write the run config and the workload's generated inputs."""
        (self.work / "run.cfg").write_text(self.wl.op_config(self.seed), encoding="ascii")
        shutil.rmtree(self.work / "inputs", ignore_errors=True)
        if self.wl.name == "lobster-small-tick":
            return [
                self.cli(
                    "simulate", "--preset", "small-tick", "--seed", str(self.seed),
                    "--days", str(LOB_DAYS),
                    "--out", "inputs",
                )
            ]
        if self.wl.name == "fit-local-cv":
            (self.work / "sample.cfg").write_text(fit_sample_config(), encoding="ascii")
            return [self.cli("sample", "--config", "sample.cfg", "--out", "inputs")]
        return []

    def setup(self) -> list[float]:
        """Make the inputs and run one warm-up operation, SETUPS times.

        Each set-up starts from an empty inputs directory. The warm-up
        operation is part of set-up because it pays what only a first call
        pays (bytecode compilation, cold file cache); its artifacts are the
        reference that every later operation must reproduce byte for byte.
        """
        times = []
        input_digest = None
        for i in range(1, SETUPS + 1):
            t0 = time.perf_counter()
            steps = self.make_inputs()
            self.operation()
            times.append(time.perf_counter() - t0)
            if steps and self.expect_ok(steps, f"inputs {i}"):
                digest = tree_digest(self.work / "inputs")
                if input_digest not in (None, digest):
                    self.fail(f"inputs {i}", ["regenerated inputs differ for one seed"])
                input_digest = digest
        return times

    # --- operations -----------------------------------------------------------

    def operation(self) -> dict:
        """Run and check one operation into a fresh artifact directory."""
        self.n_ops += 1
        rel = f"ops/{self.n_ops:04d}"
        out = self.work / rel
        if self.wl.name == "fit-local-cv":
            t0 = time.perf_counter()
            out.mkdir(parents=True)
            shutil.copyfile(self.work / "inputs" / "samples.csv", out / "samples.csv")
            copy_s = time.perf_counter() - t0
            steps = [
                self.cli(stage, "--config", "run.cfg", "--out", rel, cpu=self.op_cpu())
                for stage in ("fit", "evaluate", "report")
            ]
            steps[0]["wall_s"] += copy_s
        else:
            steps = [self.cli("pipeline", "--config", "run.cfg", "--out", rel, cpu=self.op_cpu())]
        op = {
            "wall_s": sum(s["wall_s"] for s in steps),
            "cpu_s": sum(s["cpu_s"] for s in steps),
            "peak_rss_mb": max(s["peak_rss_mb"] for s in steps),
            "ok": self.check(steps, out),
        }
        shutil.rmtree(out, ignore_errors=True)
        print(f"{self.wl.name} op {self.n_ops}: wall {op['wall_s']:.3f} s, cpu {op['cpu_s']:.3f} s, "
              f"peak rss {op['peak_rss_mb']:.1f} MB{'' if op['ok'] else ', FAILED'}", file=sys.stderr)
        return op

    def fail(self, what: str, failures: list[str]) -> None:
        self.failed.add(what)
        self.failures.extend(f"{what}: {f}" for f in failures)

    def expect_ok(self, steps: list[dict], what: str) -> bool:
        """Count one checked unit; record it as failed if a step exited non-zero."""
        self.attempted += 1
        errors = [s["error"] for s in steps if s["code"] != 0]
        if errors:
            self.fail(what, errors)
        return not errors

    def check(self, steps: list[dict], out: Path) -> bool:
        if not self.expect_ok(steps, f"op {self.n_ops}"):
            return False
        return self.check_dir(out, f"op {self.n_ops}")

    def check_dir(self, out: Path, what: str) -> bool:
        """Check one operation's artifacts, including byte equality across repeats."""
        try:
            failures, quality = check_artifacts(self.wl, out)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            failures, quality = [f"unreadable artifacts: {exc!r}"], {}
        if not failures:
            digest = tree_digest(out)
            if self.reference_digest is None:
                self.reference_digest, self.quality = digest, quality
            elif digest != self.reference_digest:
                failures.append("artifacts differ from the first operation with this seed")
        if failures:
            self.fail(what, failures)
        return not failures

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def timed_run(run: Run, seconds: float) -> dict:
    setup_times = run.setup()
    ops = []
    t0 = time.perf_counter()
    # stop early rather than let the deadline kill an operation half way
    while not ops or (
        time.perf_counter() - t0 < seconds and run.remaining() > 3 * ops[-1]["wall_s"]
    ):
        ops.append(run.operation())
    good = [op for op in ops if op["ok"]] or ops
    metrics = {
        name: statistics.median(op[name] for op in good)
        for name in ("wall_s", "cpu_s", "peak_rss_mb")
    }
    metrics["setup_s"] = statistics.median(setup_times)
    if run.quality is not None:
        metrics.update(run.quality)
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}


def traced_run(run: Run, seconds: float) -> dict:
    """One CLI set-up for the reference artifacts, then trace.py in a child."""
    steps = run.make_inputs()
    if steps:
        run.expect_ok(steps, "inputs")
    run.operation()
    out = run.work / "trace.json"
    child = run.child(
        [sys.executable, str(Path(__file__).with_name("trace.py")), run.wl.name,
         str(seconds), str(out)]
    )
    if not run.expect_ok([child], "traced run"):
        return {}
    result = json.loads(out.read_text(encoding="ascii"))
    for op_dir in result.pop("op_dirs"):
        run.attempted += 1
        run.check_dir(run.work / op_dir, op_dir)
    return result["metrics"]


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed)
    try:
        metrics = (traced_run if trace else timed_run)(run, seconds)
    finally:
        run.close()
    for failure in run.failures:
        print(f"FAILED {workload} seed {seed}: {failure}", file=sys.stderr)
    return {
        "correct": not run.failed,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE", help="append the result to a JSON-lines file")
    args = parser.parse_args()
    if not (SRC / "queuecast" / "cli.py").is_file():
        print(f"bench: no queuecast sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_one(name, args.seed, args.seconds, bool(args.trace))
        results[name] = result
        if args.record:
            with open(args.record, "a", encoding="ascii") as fh:
                record = {"workload": name, "seed": args.seed, "trace": args.trace, **result}
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    if args.workload == "all":
        print(f"{'workload':20} {'metric':32} {'value':>14}  unit")
        for name, result in results.items():
            frac = result["failed"] / result["attempted"]
            rows = [*result["metrics"].items(), ("ops_failed_frac", {"value": frac, "unit": "ratio"})]
            for metric, m in rows:
                print(f"{name:20} {metric:32} {m['value']:14.6g}  {m['unit']}")
        print(json.dumps(results, sort_keys=True))
    else:
        print(json.dumps(results[args.workload], sort_keys=True))
    # a run that could not measure (set-up or traced child failed) is not a result
    return 0 if all(r["metrics"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
