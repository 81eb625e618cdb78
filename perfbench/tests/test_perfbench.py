"""Self-tests of the benchmark: metric names, the gate, tracing coverage.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import aa  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from mflab import analysis, cli, exact  # noqa: E402
from mflab.operators import DensityMatrix  # noqa: E402
from mflab.results import PropagationResult  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Every metric of the layer-to-metric map in README.md. error_rate is printed
# as its own line and carried by the result's attempted/failed counts.
SPECIFIED_PER_LAYER = (
    [f"exact.dyson_truncated.{k}" for k in ("calls", "s", "self_s")]
    + [f"exact.propagate_exact.{k}" for k in ("calls", "s", "self_s")]
    + [f"exact.path.{p}.{k}" for p in ("dense_branch", "dense_conjugation",
                                       "krylov_branch") for k in ("calls", "s")]
    + ["exact.branches.sum", "exact.branch_mass_defect.max",
       "exact.norm_drift.max", "exact.dense_work_d3"]
    + [f"model.{f}.{k}" for f in ("assemble_total",
                                  "assemble_cluster_interaction")
       for k in ("calls", "s")]
    + [f"effective.{f}.{k}" for f in ("propagate_effective",
                                      "effective_potential", "evolve_state")
       for k in ("calls", "s")]
    + [f"effective.{f}.{k}" for f in ("effective_trajectory",
                                      "propagate_definetti")
       for k in ("calls", "s", "self_s")]
    + ["effective.substeps.max", "effective.steps_computed",
       "effective.step_useful_ratio"]
    + [f"reservoir.{f}.{k}" for f in ("site_signal_terms", "multitime_moment")
       for k in ("calls", "s")]
    + [f"reservoir.factorization_error.{k}" for k in ("calls", "s", "self_s")]
    + [f"analysis.{f}.{k}" for f in ("m_sweep", "cluster_sweep")
       for k in ("calls", "s", "self_s")]
    + [f"analysis.{f}.{k}" for f in ("trace_distance", "negativity",
                                     "bound_state_count",
                                     "stark_halfline_spectrum",
                                     "field_overlap_decay")
       for k in ("calls", "s")]
    + ["operators.trace_norm.calls", "operators.trace_norm.s",
       "config.load_config.calls", "config.load_config.s"]
    + [f"cli.run_experiment.{e}.s" for e in tracing.CATALOG]
    + ["cli.render_csv.s", "matio.atomic_write_text.calls",
       "matio.atomic_write_text.s", "matio.atomic_write_text.bytes",
       "unattributed.s", "trace_overhead.s"]
)
SPECIFIED_END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_and_units_are_well_formed():
    names = [n for n, _, _ in tracing.PER_LAYER] + [n for n, _ in run.END_TO_END]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for _, unit, _ in tracing.PER_LAYER:
        assert UNIT.fullmatch(unit), unit
    for _, unit in run.END_TO_END:
        assert UNIT.fullmatch(unit), unit


def test_specified_metrics_are_all_declared():
    declared = {n for n, _, _ in tracing.PER_LAYER}
    assert set(SPECIFIED_PER_LAYER) - declared == set()
    assert {n for n, _ in run.END_TO_END} == set(SPECIFIED_END_TO_END)


def test_benchmark_json_matches_the_code():
    bench = _bench()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == list(tracing.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_catalog_is_every_bundled_experiment():
    assert sorted(tracing.CATALOG) == cli.bundled_names()


def test_gate_accepts_reference_and_trips_on_perturbation():
    ref = gate.load_reference("qubit_convergence")
    findings = gate.Findings()
    gate.compare_table("qubit_convergence", ref, ref, findings)
    assert not findings
    atol = gate.TOLERANCES["qubit_convergence"]["max_gap"][0]
    gap8 = "%.17g" % gate.GAP8_REFERENCE
    assert gap8 in ref
    for shift, trips in ((0.5 * atol, False), (10 * atol, True)):
        perturbed = ref.replace(gap8, "%.17g" % (gate.GAP8_REFERENCE + shift))
        findings = gate.Findings()
        gate.compare_table("qubit_convergence", ref, perturbed, findings)
        assert bool(findings.wrong) == trips


def test_gate_compares_flags_exactly():
    ref = gate.load_reference("dyson_ratio")
    assert ref.rstrip().endswith(",1")
    findings = gate.Findings()
    gate.compare_table("dyson_ratio", ref, ref.rstrip()[:-1] + "0\n", findings)
    assert findings.wrong


def test_gate_amplitude_tolerance():
    tol = gate.FILON
    assert gate._close(1e-14, 4.27e-18, tol)      # both below 1e-7 amplitude
    assert not gate._close(1e-12, 1e-16, tol)     # amplitudes 1e-6 vs 1e-8
    assert gate._close(float("nan"), float("nan"), tol)


def test_stepper_audit_gate_checks_the_halving_ratio():
    good = "index,halving_ratio,unitarity_defect\n0,4.01,1e-14\n"
    bad = "index,halving_ratio,unitarity_defect\n0,3.5,1e-14\n"
    for text, trips in ((good, False), (bad, True)):
        findings = gate.Findings()
        gate.check_stepper_audit(text, 1, findings)
        assert bool(findings.wrong) == trips


def _result(diag) -> PropagationResult:
    rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex), (2,))
    return PropagationResult(np.array([0.0]), (rho,), diag)


def test_reported_mass_defect_fails_without_marking_output_wrong():
    findings = gate.Findings()
    gate.check_exact(_result({"path": "krylov-branch", "branches": 16,
                              "branch_mass_defect": 0.71,
                              "max_norm_drift": 1e-14}), "op", findings)
    assert findings.reported and not findings.wrong
    assert "0.71" in findings.reported[0]
    findings = gate.Findings()
    gate.check_exact(_result({"path": "dense-branch", "branches": 1,
                              "branch_mass_defect": 0.0,
                              "max_norm_drift": 1e-14}), "op", findings)
    assert not findings


def test_wrong_state_is_wrong_output():
    findings = gate.Findings()
    bad = DensityMatrix(np.diag([1.2, -0.2]).astype(complex), (2,),
                        validate=False)
    gate.check_states(PropagationResult(np.array([0.0]), (bad,), {}), "op",
                      findings)
    assert findings.wrong


def test_tracer_wraps_every_binding_and_restores_them():
    bound = {(mod.__name__, attr) for mod, attr, _, _ in tracing.bindings()}
    for site in (("mflab.analysis", "propagate_exact"),
                 ("mflab.analysis", "effective_trajectory"),
                 ("mflab.exact", "assemble_total"),
                 ("mflab.exact", "effective_trajectory"),
                 ("mflab.cli", "atomic_write_text"),
                 ("mflab", "load_config")):
        assert site in bound
    original = analysis.propagate_exact
    tracer = tracing.Tracer()
    with tracer.active():
        assert analysis.propagate_exact is not original
        assert analysis.propagate_exact.__wrapped__ is original
        assert exact.propagate_exact.__wrapped__ is original
    assert analysis.propagate_exact is original
    assert not any(hasattr(f, "__wrapped__")
                   for _, _, _, f in tracing.bindings())


def test_span_metrics_self_time_and_unattributed():
    spans = [
        ["analysis.m_sweep", 0.0, 4.0, -1, 1, None],
        ["exact.propagate_exact", 0.5, 3.0, 0, 1,
         {"path": "dense-branch", "branches": 2, "defect": 0.0,
          "drift": 1e-15, "dim": 16}],
        ["model.assemble_total", 0.5, 1.0, 1, 1, None],
        ["effective.propagate_effective", 3.0, 3.5, 0, 1,
         {"substeps": 16, "intervals": 10, "adaptive": True}],
    ]
    m = tracing.span_metrics(spans, 0, len(spans), wall=5.0)
    assert m["analysis.m_sweep.self_s"] == pytest.approx(1.0)
    assert m["exact.propagate_exact.self_s"] == pytest.approx(2.0)
    assert m["exact.path.dense_branch.calls"] == 1
    assert m["exact.dense_work_d3"] == 16 ** 3
    assert m["effective.steps_computed"] == 31 * 10
    assert m["effective.step_useful_ratio"] == pytest.approx(16 / 31)
    assert m["unattributed.s"] == pytest.approx(1.0)
    assert m["layer.exact.share"] == pytest.approx(0.4)


def test_aa_spread_is_interquartile_over_median():
    assert aa.spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert aa.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(
        (4.5 - 1.5) / 3.0)


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric_with_its_unit(trace):
    proc = _run(["--workload", "m_ladder", "--seed", "5", "--seconds", "0",
                 "--trace", str(trace)], ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in _bench()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert any(line.startswith("error_rate 0 ") for line in lines)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "catalog", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_truncating_op_is_a_probe_outside_the_passes():
    import workloads
    wl = workloads.make("mixed_reservoir", 1, "")
    assert not any(op.name.endswith("/M12") for op in wl.ops(0))
    assert [op.name for op in wl.probes()] == ["limit/rank2",
                                               "exact/rank2/M12"]
