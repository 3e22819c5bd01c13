"""Summarise one result set, or compare two, as recorded by run.py --record.

    python3 bench/compare.py RESULTS.jsonl                # spread of each metric
    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl    # parent against change

One row per workload and metric: median and quartiles (statistics.quantiles,
n=4) of each side. A comparison pairs runs by seed, or by order when the
two sets share no seed, and counts the pairs the change wins; ties count
for neither side. The verdict follows the rule the benchmark is held to:

- "better": the change wins at least 9/10 of the pairs and the medians
  differ by more than the parent's interquartile distance;
- "unresolved": the parent's own spread (IQR / median) is wider than the
  metric's bound, unless every change run beats every parent run;
- "REGRESSION": the change's median is worse than the parent's by more
  than the bound (end-to-end metrics only; per-layer metrics have none);
- "same" otherwise.

A trailing row per workload gives ops_failed_frac, failed over attempted
operations summed over the runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def load(path: str) -> dict:
    """{(workload, trace): [record, ...]} in file order."""
    runs: dict = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values(records: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in records if metric in r["metrics"]]


def failed_frac(records: list[dict]) -> float:
    return sum(r["failed"] for r in records) / max(1, sum(r["attempted"] for r in records))


def summary(runs: dict) -> None:
    print(f"{'workload':20} {'metric':30} {'unit':6} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for (workload, _trace), records in sorted(runs.items()):
        for metric in sorted({m for r in records for m in r["metrics"]}):
            vals = values(records, metric)
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = METRICS.get(metric, {}).get("bound")
            flag = ""
            if bound is not None:
                flag = "  OVER BOUND" if spread > bound else ("  over 1/3" if spread > bound / 3 else "")
            print(f"{workload:20} {metric:30} {METRICS.get(metric, {}).get('unit', '?'):6} "
                  f"{len(vals):3d} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
        print(f"{workload:20} {'ops_failed_frac':30} {'ratio':6} {len(records):3d} "
              f"{failed_frac(records):12.6g}")


def pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["seed"]: r for r in change}
    matched = [(p, by_seed[p["seed"]]) for p in parent if p["seed"] in by_seed]
    return matched or list(zip(parent, change))


def verdict(metric: str, p_vals, c_vals, wins: int, n_pairs: int) -> str:
    spec = METRICS.get(metric, {})
    sign = 1.0 if spec.get("better", "lower") == "higher" else -1.0
    q1, p_med, q3 = quartiles(p_vals)
    _, c_med, _ = quartiles(c_vals)
    gain = sign * (c_med - p_med)
    if n_pairs and wins >= 0.9 * n_pairs and gain > q3 - q1:
        return "better"
    bound = spec.get("bound")
    if bound is None:
        return "same"
    if (q3 - q1) > bound * abs(p_med):
        all_better = min(sign * v for v in c_vals) > max(sign * v for v in p_vals)
        return "same" if all_better else "unresolved"
    return "REGRESSION" if -gain > bound * abs(p_med) else "same"


def compare(parent_runs: dict, change_runs: dict) -> None:
    print(f"{'workload':20} {'metric':30} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'delta':>8} {'wins':>7}  verdict")
    for key in sorted(parent_runs):
        if key not in change_runs:
            continue
        workload = key[0]
        parent, change = parent_runs[key], change_runs[key]
        matched = pairs(parent, change)
        for metric in sorted({m for r in parent for m in r["metrics"]}):
            p_vals, c_vals = values(parent, metric), values(change, metric)
            if not p_vals or not c_vals:
                continue
            sign = 1.0 if METRICS.get(metric, {}).get("better", "lower") == "higher" else -1.0
            scored = [
                (p["metrics"][metric]["value"], c["metrics"][metric]["value"])
                for p, c in matched
                if metric in p["metrics"] and metric in c["metrics"]
            ]
            wins = sum(1 for pv, cv in scored if sign * (cv - pv) > 0)
            pq1, pm, pq3 = quartiles(p_vals)
            cq1, cm, cq3 = quartiles(c_vals)
            delta = (cm - pm) / abs(pm) if pm else float("nan")
            print(f"{workload:20} {metric:30} {pm:12.6g} [{pq1:10.6g}, {pq3:10.6g}] "
                  f"{cm:12.6g} [{cq1:10.6g}, {cq3:10.6g}] {delta:+8.2%} "
                  f"{wins:3d}/{len(scored):<3d}  {verdict(metric, p_vals, c_vals, wins, len(scored))}")
        print(f"{workload:20} {'ops_failed_frac':30} {failed_frac(parent):12.6g} {'':25}"
              f"{failed_frac(change):12.6g}")


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        summary(load(argv[0]))
    elif len(argv) == 2:
        compare(load(argv[0]), load(argv[1]))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
