"""Correctness gate for every benchmark operation.

Two kinds of finding:

* ``Reported``: the program raised, or its own diagnostics report a defect
  above the gate's limit (a branch mass defect, a norm drift). The operation
  counts as failed; the output was not silently wrong.
* ``Wrong``: an output contradicts a reference value or an invariant without
  the program saying so. The operation counts as failed and the run as
  incorrect.

Catalog tables are compared with the reference tables recorded in
``reference/`` under per-column tolerances taken from the solvers' own
targets, so that a faster solver meeting the same targets passes.
"""

from __future__ import annotations

import csv
import io
import math
import os

import numpy as np

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")

# Limits on what the program reports about itself.
MASS_DEFECT_MAX = 1e-9
NORM_DRIFT_MAX = 1e-8
# Limits on invariants of reduced states checked by the gate.
TRACE_ATOL = 1e-8
HERMITIAN_ATOL = 1e-10
PSD_ATOL = 1e-8
PURITY_ATOL = 1e-8
UNITARITY_MAX = 1e-8
HALVING_RATIO = (3.9, 4.1)  # second-order stepper: error ratio 4 per halving

# Per-column tolerances (atol, rtol, on). Columns not listed must match the
# reference text exactly (labels, sizes, counts, flags, time grids).
# on="amplitude" compares square roots, for |amplitude|^2 columns.
STEP = (1e-6, 0.0, "value")      # limit propagator, step_target 1e-7, x10
RATIO = (1e-4, 0.0, "value")     # ratio of two STEP-limited gaps >= 0.05
EXACT = (1e-9, 0.0, "value")     # finite-M dense dynamics alone
SERIES = (1e-8, 0.0, "value")    # series oracle, quadrature tol 1e-8
SERIES_RATIO = (0.0, 1e-3, "value")  # SERIES on a 4e-5 denominator
MOMENT = (1e-12, 1e-9, "value")  # closed-form and combinatorial moments
FILON = (2e-7, 0.0, "amplitude")  # Filon tol 1e-7 on the complex amplitude
RICHARDSON = (0.0, 1e-4, "value")  # Stark rel_tol 1e-4
FD = (0.0, 1e-9, "value")        # fixed finite-difference eigenvalues

TOLERANCES = {
    "bell_channel_moments": {"value": MOMENT, "reference": MOMENT,
                             "ratio": MOMENT},
    "bell_pair_protection": {"negativity_limit": STEP,
                             "negativity_m2": EXACT, "negativity_m4": EXACT,
                             "negativity_m8": EXACT},
    "cluster_pair": {"max_gap": STEP, "ratio_to_previous": RATIO},
    "definetti_two_atom": {"gap_mixture": STEP, "gap_atom_0": STEP,
                           "gap_atom_1": STEP, "purity": EXACT},
    "dyson_ratio": {"value": SERIES, "reference": SERIES,
                    "ratio": SERIES_RATIO},
    "field_coherent": {"overlap_sq": FILON},
    "field_scattering_decay": {"overlap_sq": FILON},
    "macroscopic_two_part": {"max_gap": STEP, "ratio_to_previous": RATIO},
    "moments_product_qubit": {"value": MOMENT, "reference": MOMENT,
                              "ratio": MOMENT},
    "oscillator_coherent": {"value": MOMENT, "reference": MOMENT,
                            "ratio": MOMENT},
    "oscillator_scattering": {"max_gap": STEP, "ratio_to_previous": RATIO},
    "qubit_convergence": {"max_gap": STEP, "ratio_to_previous": RATIO},
    "stark_halfline": {"energy": RICHARDSON},
    "well_localization": {"lowest_level": FD},
}

# gap(8) of qubit_convergence recorded at the seed commit; the reference
# table holds it to all digits.
GAP8_REFERENCE = 0.061574254765688077


class Findings:
    """Problems found in one operation's output."""

    def __init__(self):
        self.reported: list[str] = []
        self.wrong: list[str] = []

    def report(self, msg: str) -> None:
        self.reported.append(msg)

    def wrong_output(self, msg: str) -> None:
        self.wrong.append(msg)

    def __bool__(self) -> bool:
        return bool(self.reported or self.wrong)

    def messages(self) -> list[str]:
        return self.wrong + self.reported


def read_table(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def load_reference(experiment: str) -> str:
    with open(os.path.join(REFERENCE_DIR, f"{experiment}.csv"),
              encoding="utf-8") as fh:
        return fh.read()


def _close(got: float, ref: float, tol) -> bool:
    atol, rtol, on = tol
    if math.isnan(ref) or math.isnan(got):
        return math.isnan(ref) and math.isnan(got)
    if on == "amplitude":
        got, ref = math.sqrt(max(got, 0.0)), math.sqrt(max(ref, 0.0))
    return abs(got - ref) <= atol + rtol * abs(ref)


def compare_table(experiment: str, text: str, reference: str,
                  findings: Findings) -> None:
    """Compare a CSV table with its reference under TOLERANCES."""
    tol = TOLERANCES[experiment]
    header, rows = read_table(text)
    ref_header, ref_rows = read_table(reference)
    if header != ref_header:
        findings.wrong_output(f"{experiment}: header {header} != {ref_header}")
        return
    if len(rows) != len(ref_rows):
        findings.wrong_output(
            f"{experiment}: {len(rows)} rows, reference has {len(ref_rows)}")
        return
    for r, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        for col, got, ref in zip(header, row, ref_row):
            ok = (_close(float(got), float(ref), tol[col]) if col in tol
                  else got == ref)
            if not ok:
                findings.wrong_output(
                    f"{experiment}: row {r} {col} = {got}, reference {ref}")


def check_stepper_audit(text: str, count: int, findings: Findings) -> None:
    """propagator_quality depends on the workload seed: check invariants."""
    header, rows = read_table(text)
    if header != ["index", "halving_ratio", "unitarity_defect"]:
        findings.wrong_output(f"propagator_quality: header {header}")
        return
    if len(rows) != count:
        findings.wrong_output(f"propagator_quality: {len(rows)} rows != {count}")
    lo, hi = HALVING_RATIO
    for row in rows:
        ratio, defect = float(row[1]), float(row[2])
        if not lo <= ratio <= hi:
            findings.wrong_output(
                f"propagator_quality: draw {row[0]} halving ratio {ratio:.4f}")
        if not defect <= UNITARITY_MAX:
            findings.wrong_output(
                f"propagator_quality: draw {row[0]} unitarity {defect:.2e}")


def check_states(result, where: str, findings: Findings,
                 pure_orbit: bool = False) -> None:
    """Unit trace, Hermitian and PSD reduced states; unit purity when the
    trajectory is a unitary orbit of a pure state."""
    for k, state in enumerate(result.states):
        rho = np.asarray(state.data)
        tr = complex(np.trace(rho))
        herm = float(np.max(np.abs(rho - rho.conj().T)))
        low = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
        bad = []
        if abs(tr - 1.0) > TRACE_ATOL:
            bad.append(f"trace {tr:.12g}")
        if herm > HERMITIAN_ATOL:
            bad.append(f"Hermiticity defect {herm:.2e}")
        if low < -PSD_ATOL:
            bad.append(f"eigenvalue {low:.2e}")
        if pure_orbit:
            purity = float(np.trace(rho @ rho).real)
            if abs(purity - 1.0) > PURITY_ATOL:
                bad.append(f"purity {purity:.12g}")
        if bad:
            findings.wrong_output(f"{where}: state {k}: " + ", ".join(bad))
            return


def check_exact(result, where: str, findings: Findings) -> None:
    """Invariants of a finite-M result plus the defects it reports."""
    check_states(result, where, findings)
    diag = result.diagnostics
    defect = diag.get("branch_mass_defect")
    if defect is not None and not defect <= MASS_DEFECT_MAX:
        findings.report(
            f"{where}: {diag.get('path')} reports branch_mass_defect "
            f"{defect:.6g} > {MASS_DEFECT_MAX:g} "
            f"({diag.get('branches')} branches kept)")
    drift = diag.get("max_norm_drift")
    if drift is None or not drift <= NORM_DRIFT_MAX:
        findings.report(f"{where}: norm drift {drift} > {NORM_DRIFT_MAX:g}")


def check_limit(result, where: str, step_target: float, findings: Findings,
                pure_orbit: bool) -> None:
    """Invariants of a limit trajectory plus its reported step error."""
    check_states(result, where, findings, pure_orbit=pure_orbit)
    err = result.diagnostics.get("step_error")
    if err is None or not err <= step_target:
        findings.report(f"{where}: step error {err} > target {step_target:g}")
    drift = result.diagnostics.get("max_trace_drift")
    if drift is not None and not drift <= NORM_DRIFT_MAX:
        findings.report(f"{where}: trace drift {drift} > {NORM_DRIFT_MAX:g}")


def record_reference(out_dir: str) -> None:
    """Write the catalog reference tables from the current program."""
    import tempfile
    from mflab import cli
    from mflab.config import load_config

    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as work:
        for name in cli.bundled_names():
            if name == "propagator_quality":
                continue
            cfg = load_config(cli.resolve_config(name))
            cli.run_experiment(cfg, work, name, threads=1, seed=None)
            with open(os.path.join(work, cfg.table), encoding="utf-8") as fh:
                text = fh.read()
            with open(os.path.join(out_dir, f"{name}.csv"), "w",
                      encoding="utf-8") as fh:
                fh.write(text)


if __name__ == "__main__":
    import sys
    sys.path.insert(0, "src")
    record_reference(sys.argv[1] if len(sys.argv) > 1 else REFERENCE_DIR)
