"""A/A mode: two sets of benchmark runs of the same code.

Every workload in BENCHMARK.json runs RUNS times in each of SETS sets, each
run with its own seed from FIRST_SEED on. For every workload and end-to-end
metric this prints each set's median and spread (the distance between the
first and third quartile over the median, as statistics.quantiles(values,
n=4) gives them) and checks both against the bounds in BENCHMARK.json: every
spread within its bound, and the two medians apart by no more than the
bound, in either direction. Bounds are set from these spreads. Run from the
repository root:

    python3 perfbench/aa.py
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
RUNS = 10
SETS = 2
FIRST_SEED = 1001
OUT = os.path.join(".perfbench", "aa.json")


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One run's result line, with the run's own duration added."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["run_s"] = time.perf_counter() - start
    return out


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}  # (set, workload, metric) -> list
    durations = []
    seed = FIRST_SEED
    for s in range(SETS):
        for _ in range(RUNS):
            for w in workloads:  # interleaved, so drift hits every workload
                out = run_once(w, seed, bench["run_seconds"])
                if not out["correct"]:
                    print(f"set {s} {w} seed {seed}: incorrect output")
                for name, m in out["metrics"].items():
                    values.setdefault((s, w, name), []).append(m["value"])
                line = " ".join(f"{k}={v['value']:.4g}"
                                for k, v in out["metrics"].items())
                durations.append(out["run_s"])
                print(f"set {s} {w} seed {seed}: {line} "
                      f"failed={out['failed']}/{out['attempted']} "
                      f"run {out['run_s']:.1f} s", flush=True)
            seed += 1

    ok = True
    report = []
    for w in workloads:
        for name, bound in bounds.items():
            sets = [values[(s, w, name)] for s in range(SETS)]
            meds = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            change = max(abs(m - meds[0]) / meds[0] for m in meds)
            good = change <= bound and all(x <= bound for x in spreads)
            ok &= good
            report.append({"workload": w, "metric": name, "bound": bound,
                           "medians": meds, "spreads": spreads,
                           "median_change": change, "ok": good})
            print(f"{w:16s} {name:12s} bound {bound:.2f} medians "
                  + " ".join(f"{m:.4g}" for m in meds) + " spreads "
                  + " ".join(f"{x:.3f}" for x in spreads)
                  + f" change {change:.3f} {'ok' if good else 'FAIL'}")
    per_run = statistics.mean(durations)
    print(f"mean run {per_run:.1f} s, longest {max(durations):.1f} s; "
          f"{4 + 22 * len(workloads)} runs would take about "
          f"{(4 + 22 * len(workloads)) * per_run:.0f} s")
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"report": report,
                   "values": {"|".join(map(str, k)): v
                              for k, v in values.items()}}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
