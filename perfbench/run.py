"""Run one mflab benchmark workload and print its metrics.

Run from the repository root; mflab is imported from ``src/``:

    python3 perfbench/run.py --workload m_ladder --seed 1 --seconds 24 --trace 0

Passes of the workload run back to back for --seconds: a pass starts only
if one of median length still fits, and at least one pass runs. A pass of
catalog takes about half of the default 24 s, so catalog times one or two
passes per run. A workload's known-defect probes then run once, untimed and
outside the attempted/failed counts; their gate findings are printed. With
--trace 0 the end-to-end metrics are printed; with --trace 1 the run
alternates traced and untraced passes after an untraced warm-up pass and
prints the per-layer metrics. Every metric is printed on its own line with
its unit and sample count; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("catalog", "m_ladder", "mixed_reservoir", "limit_dynamics")
SETUP_PROBES = 4  # extra set-ups in fresh interpreters; setup_s is the median
CALIBRATION_REF_S = 0.0625  # calibrate() on the 2-core reference machine
OUT_DIR = ".perfbench"
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc())


def calibrate(rounds: int = 500) -> float:
    """Seconds taken by a fixed kernel of the kinds of work mflab does:
    Python arithmetic on scalars and 2x2 arrays, and small LAPACK calls.

    Host CPU speed on a shared machine drifts by tens of percent within
    minutes. Timed operations are rescaled by CALIBRATION_REF_S over the
    kernel's time measured between them, which cancels that drift; the
    reported seconds are seconds at the reference speed.
    """
    import math

    import numpy as np
    h = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.4]])
    a = np.add.outer(np.arange(8.0), np.arange(8.0)) % 5.0
    start = time.perf_counter()
    u = np.eye(2, dtype=complex)
    for _ in range(rounds):
        for _ in range(10):
            r = math.sqrt(abs(h[0, 1]) ** 2 + 0.35 ** 2)
            c, s = math.cos(0.01 * r), math.sin(0.01 * r) / r
            u = np.array([[c - 0.35j * s, -1j * s * h[0, 1]],
                          [-1j * s * h[1, 0], c + 0.35j * s]]) @ u
        np.linalg.eigh(a)
    return time.perf_counter() - start


def set_up(name: str, seed: int, workdir: str, tracer=None):
    """Import mflab from src/, load configs and draw the seeded inputs."""
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads  # imports numpy, scipy and mflab

    if tracer is None:
        return workloads.make(name, seed, workdir)
    with tracer.active():
        return workloads.make(name, seed, workdir)


def timed_setup(name: str, seed: int, workdir: str, tracer=None):
    """Set up the workload; returns it with the raw and the rescaled set-up
    seconds. The calibration runs after the set-up, which imports numpy."""
    start = time.perf_counter()
    wl = set_up(name, seed, workdir, tracer)
    raw = time.perf_counter() - start
    cal = statistics.mean(calibrate() for _ in range(3))
    return wl, raw, raw * CALIBRATION_REF_S / cal


def probe_setup(args) -> float:
    """Rescaled set-up time of the workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_pass(ops, tracer=None, calibrated: bool = False):
    """Run the ops of one pass; returns (seconds, seconds at reference speed
    or None, [(op, output or None, error message or None)]). Only the op
    calls are timed. A calibrated pass runs the calibration kernel before
    every op and after the last one, and rescales each op by the mean of
    the two kernel runs around it."""
    done = []
    times, cals = [], []
    for op in ops:
        if calibrated:
            cals.append(calibrate())
        if tracer is not None:
            tracer.op_id += 1
        start = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:  # a failed op is counted, the run goes on
            out, err = None, f"{op.name}: raised {type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        done.append((op, out, err))
    wall = sum(times)
    if not calibrated:
        return wall, None, done
    cals.append(calibrate())
    scaled = sum(t * 2 * CALIBRATION_REF_S / (a + b)
                 for t, a, b in zip(times, cals, cals[1:]))
    return wall, scaled, done


def gate_pass(done, tally: dict) -> None:
    import gate
    for op, out, err in done:
        findings = gate.Findings()
        if err is not None:
            findings.report(err)
        else:
            try:
                op.check(out, findings)
            except Exception as exc:  # a gate that cannot read the output
                findings.wrong_output(
                    f"{op.name}: gate raised {type(exc).__name__}: {exc}")
        tally["attempted"] += 1
        if findings:
            tally["failed"] += 1
            tally["wrong"] += bool(findings.wrong)
            for msg in findings.messages():
                tally["messages"][msg] = tally["messages"].get(msg, 0) + 1


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "commit": git_commit(), "seed": seed}


def new_tally() -> dict:
    return {"attempted": 0, "failed": 0, "wrong": 0, "messages": {}}


def measure(args, wl, tracer):
    """Run passes for args.seconds. Returns the untraced pass times as
    (raw, rescaled) pairs, per-pass metrics of traced passes, and
    the gate tally. A traced run is not calibrated: its first pass is an
    untraced warm-up that is gated but not timed, then traced and untraced
    passes alternate."""
    import tracing
    tally = new_tally()
    plain, traced = [], []
    started = time.perf_counter()
    lengths = []  # elapsed seconds per pass, calibration and gate included
    k = 0
    # a new pass starts only if a pass of median length still fits
    while k < (3 if tracer else 1) or (time.perf_counter() - started
                                       + statistics.median(lengths)
                                       <= args.seconds):
        begun = time.perf_counter()
        if tracer is not None and k % 2 == 1:
            lo = len(tracer.spans)
            with tracer.active():
                wall, _, done = run_pass(wl.ops(k), tracer)
            traced.append(tracing.span_metrics(tracer.spans, lo,
                                               len(tracer.spans), wall))
        else:
            wall, scaled, done = run_pass(wl.ops(k),
                                          calibrated=tracer is None)
            if tracer is None or k > 0:
                plain.append((wall, wall if scaled is None else scaled))
        gate_pass(done, tally)
        lengths.append(time.perf_counter() - begun)
        k += 1
    return plain, traced, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "mflab", "__init__.py")):
        print("error: src/mflab not found; run from the repository root",
              file=sys.stderr)
        return 2
    cap_blas_threads()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        if args.setup_probe:
            print(repr(timed_setup(args.workload, args.seed, workdir)[2]))
            return 0
        return report(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(args, workdir: str) -> int:
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    wl, raw_setup, setup = timed_setup(args.workload, args.seed, workdir,
                                       tracer)
    setups = [setup]
    n_setup_spans = len(tracer.spans) if tracer else 0
    if not args.trace:
        setups += [probe_setup(args) for _ in range(SETUP_PROBES)]
    plain, traced, tally = measure(args, wl, tracer)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probed = new_tally()
    gate_pass(run_pass(getattr(wl, "probes", list)())[2], probed)

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(environment(args.seed), sort_keys=True))
    metrics = {}
    if args.trace:
        import tracing
        per_layer = tracing.median_metrics(traced)
        setup_m = tracing.span_metrics(tracer.spans, 0, n_setup_spans,
                                       raw_setup)
        for key in ("config.load_config.calls", "config.load_config.s"):
            per_layer[key] += setup_m[key]
        per_layer["trace_overhead.s"] = (per_layer["traced.wall_s"]
                                         - statistics.median(w for w, _ in plain))
        for name, unit, _ in tracing.PER_LAYER:
            metrics[name] = {"value": per_layer[name], "unit": unit}
            print(f"{name} {per_layer[name]:.6g} {unit} "
                  f"(median of {len(traced)} traced passes)")
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write(path)
        print(f"# {len(tracer.spans)} spans written to {path}")
    else:
        raw = [w for w, _ in plain]
        values = {"wall_s": statistics.median(w for _, w in plain),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": rss}
        samples = {"wall_s": f"median of {len(plain)} passes at reference "
                   "speed: " + ", ".join(f"{w:.4f}" for _, w in plain)
                   + f"; raw median {statistics.median(raw):.4f} s",
                   "setup_s": f"median of {len(setups)} set-ups at reference "
                   "speed: " + ", ".join(f"{s:.4f}" for s in setups)
                   + f"; raw in-process {raw_setup:.4f} s",
                   "peak_rss_mb": "1 sample, before the probes"}
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name} {values[name]:.6g} {unit} ({samples[name]})")
    rate = tally["failed"] / tally["attempted"]
    print(f"error_rate {rate:.6g} ({tally['failed']} failed of "
          f"{tally['attempted']} operations, "
          f"{tally['wrong']} with wrong output)")
    for msg, count in sorted(tally["messages"].items()):
        print(f"# failed x{count}: {msg}")
    if probed["attempted"]:
        print(f"# known-defect probes, untimed and not counted above: "
              f"{probed['failed']} failed of {probed['attempted']}, "
              f"{probed['wrong']} with wrong output")
        for msg in sorted(probed["messages"]):
            print(f"# probe failed: {msg}")
    print(json.dumps({"correct": tally["wrong"] + probed["wrong"] == 0,
                      "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
