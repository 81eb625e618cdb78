"""Command line front end.

Three verbs: run executes one experiment config and writes its table plus a
summary; validate parses configs without running them; list prints the
bundled experiment catalog. Exit codes are stable: 0 on success, 2 for
invalid configs or arguments, an output directory included, 3 when a
computation cannot meet its tolerance, 4 when a requested problem exceeds
the resource limits or an allocation fails. Every failure prints a single
diagnostic line naming the operation that raised.

Table output is CSV with a header row, '.' decimal separator, and 17
significant digits, written atomically; a given config and seed always
produce byte-identical tables.
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis, exact
from .config import ExperimentConfig, load_config
from .effective import (AUDIT_PASSES, EffectivePotential,
                        QuasiPeriodicSignal, propagate_effective)
from .errors import (ConfigError, MFLabError, ResourceLimitError,
                     ToleranceError, ValidationError)
from .matio import atomic_write_text
from .model import SystemModel
from .operators import Operator
from .reservoir import (coherent_bound, coherent_bound_safe,
                        even_double_factorial, factorization_error,
                        multitime_moment)

OUT_ENV = "MFLAB_OUT"
CSV_FMT = "%.17g"


def _fmt_cell(x) -> str:
    if isinstance(x, str):
        if "," in x or "\n" in x:
            raise ValidationError(f"table label {x!r} contains a separator")
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return CSV_FMT % float(x)


def render_csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValidationError("table row width does not match header")
        lines.append(",".join(_fmt_cell(x) for x in row))
    return "\n".join(lines) + "\n"


# Each runner returns (header, rows, notes). The trajectory kinds share
# _run_trajectory; each adds only its own columns and notes, through its
# table builder in _TRAJECTORY_TABLES.

def _run_trajectory(cfg: ExperimentConfig, threads: int):
    """One analysis.sweep over the config's runs; the kind's table builder
    adds its columns and notes to the common ones: limit (the limit run's
    diagnostics), finite_m (each run's, by M) and max_gap_by_m."""
    limit, finite, sweep = analysis.sweep(cfg.runs, threads=threads,
                                          step_target=cfg.step_target)
    header, rows, notes = _TRAJECTORY_TABLES[cfg.kind](cfg, limit, finite,
                                                      sweep)
    notes.update(limit=limit.diagnostics,
                 finite_m={str(r.m_count): r.diagnostics for r in sweep},
                 max_gap_by_m={str(r.m_count): r.gap for r in sweep})
    return header, rows, notes


def _convergence_table(cfg, limit, finite, sweep):
    gaps = [r.gap for r in sweep]
    notes = {"gaps_strictly_decreasing": bool(all(a > b for a, b in
                                                  zip(gaps, gaps[1:]))),
             "final_gap": gaps[-1]}
    return (["m_count", "max_gap", "ratio_to_previous"],
            [[r.m_count, r.gap, r.ratio] for r in sweep], notes)


def _entanglement_table(cfg, limit, finite, sweep):
    columns = [analysis.negativity_trajectory(r, (0,))
               for r in [limit, *finite]]
    header = ["t", "negativity_limit"] + [f"negativity_m{r.m_count}"
                                          for r in sweep]
    rows = [[t] + [col[k] for col in columns]
            for k, t in enumerate(cfg.grid)]
    return header, rows, {"max_deviation_by_m": {
        str(r.m_count): float(np.max(np.abs(col - columns[0])))
        for r, col in zip(sweep, columns[1:])}}


def _purities(stack: np.ndarray) -> np.ndarray:
    """Tr rho^2 of each state of a (T, d, d) stack."""
    return np.trace(stack @ stack, axis1=1, axis2=2).real


def _definetti_table(cfg, mixture, finite, sweep):
    """Gaps to the mixture (the sweep's) and to each atom's orbit, and the
    finite-M purity, at every (M, t)."""
    header = (["m_count", "t", "gap_mixture"]
              + [f"gap_atom_{j}" for j in range(len(mixture.orbits))]
              + ["purity"])
    rows, closer = [], {}
    for row, result in zip(sweep, finite):
        gaps = np.array([analysis.trace_distance(result.stack, orbit)
                         for orbit in mixture.orbits])
        purity = _purities(result.stack)
        rows += [[row.m_count, t, row.gaps[k]] + list(gaps[:, k])
                 + [purity[k]] for k, t in enumerate(cfg.grid)]
        wins = int(np.count_nonzero(np.all(row.gaps <= gaps, axis=0)))
        closer[str(row.m_count)] = wins / len(cfg.grid)
    notes = {"mixture_closest_fraction": closer,
             "min_mixture_purity": float(_purities(mixture.stack).min())}
    return header, rows, notes


_TRAJECTORY_TABLES = {"convergence": _convergence_table,
                     "entanglement": _entanglement_table,
                     "definetti": _definetti_table}


def _rand_hermitian(rng) -> np.ndarray:
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return 0.5 * (m + m.conj().T)


def _run_stepper_audit(audit: dict, seed):
    """Step-halving order and unitarity of the time-dependent propagator on
    randomly drawn quasi-periodic qubit Hamiltonians.

    The micro-step is exact for a constant generator, so the amplitudes are
    drawn away from zero to keep genuine time dependence in every draw.
    """
    rng = np.random.default_rng(audit["seed"] if seed is None else seed)
    grid = np.array([0.0, audit["t_max"]])
    s = audit["substeps"]
    header = ["index", "halving_ratio", "unitarity_defect"]
    rows = []
    for j in range(audit["count"]):
        h0 = Operator(_rand_hermitian(rng), (2,), hermitian=True)
        g = Operator(_rand_hermitian(rng), (2,), hermitian=True)
        freqs = rng.uniform(0.3, 3.0, 3)
        amps = rng.uniform(0.5, 1.5, 3) * rng.choice([-1.0, 1.0], 3)
        phases = rng.uniform(0.0, 2.0 * np.pi, 3)
        coeffs = 0.5 * amps * np.exp(1j * phases)
        signal = QuasiPeriodicSignal(np.concatenate([freqs, -freqs]),
                                     np.concatenate([coeffs, coeffs.conj()]))
        sys_model = SystemModel.single(h0, [(g, 0)])
        potential = EffectivePotential((signal,))
        u1, u2, u_ref = (propagate_effective(sys_model, potential, grid,
                                             n_substeps=k * s).unitaries[-1]
                         for k in AUDIT_PASSES)
        e1, e2 = (float(np.linalg.norm(u - u_ref)) for u in (u1, u2))
        # the finest pass is itself only exact to about its substeps x eps
        finest = AUDIT_PASSES[-1]
        floor = finest * s * np.finfo(float).eps
        if e2 < floor:
            raise ToleranceError(
                f"draw {j}: step-halving error e2 = {e2:.3e} at t_max "
                f"{audit['t_max']:g} is below the rounding floor {finest} x "
                f"{s} substeps x eps = {floor:.3e}; no order to measure")
        defect = max(float(np.linalg.norm(u.conj().T @ u - np.eye(2)))
                     for u in (u1, u2, u_ref))
        rows.append([j, e1 / e2, defect])
    ratios = [r[1] for r in rows]
    notes = {"ratio_min": min(ratios), "ratio_max": max(ratios),
             "worst_unitarity": max(r[2] for r in rows)}
    return header, rows, notes


def _moment_rows(check: dict):
    name = check["check"]
    rows = []
    if name == "factorization":
        times = check["runs"][0].times
        label = "t=" + "|".join(f"{t:g}" for t in times)
        for run in check["runs"]:
            err, ref, kind = factorization_error(run)
            # a bound holds the error; the exact error must match it to a
            # millionth, so a value that cannot resolve it reads 0
            within = (err <= ref + 1e-12 if kind == "correlated_bound"
                      else abs(err - ref) <= 1e-6 * ref)
            rows.append([kind, label, run.m_count, len(times), err, ref,
                         _safe_ratio(err, ref), within])
    elif name == "moment_bound":
        alpha = check["alpha"]
        bound_fn = {"coherent": coherent_bound,
                    "coherent_safe": coherent_bound_safe}[check["bound"]]
        label = f"alpha={abs(alpha):g}"
        for n in check["orders"]:
            bound = bound_fn(n, alpha)
            for run in check["runs"]:
                mom = abs(multitime_moment(run, n))
                rows.append([check["bound"], label, run.m_count, n, mom, bound,
                             _safe_ratio(mom, bound), mom <= bound + 1e-12])
    elif name == "supermultiplicative":
        top = check["max_order"]
        for n1 in range(1, top + 1):
            for n2 in range(n1, top + 1):
                joint = even_double_factorial(n1 + n2)
                split = even_double_factorial(n1) * even_double_factorial(n2)
                # compare in exact integers, report as floats
                rows.append([name, f"n={n1}|{n2}", 0, n1 + n2, float(joint),
                             float(split), _safe_ratio(joint, split),
                             joint >= split])
    else:
        order, t, run = check["order"], check["t"], check["run"]
        gap_half, gap_full = analysis.trace_distance(
            exact.dyson_truncated(run, order), exact.propagate_exact(run).stack)
        ratio = _safe_ratio(gap_full, gap_half)
        window = check.get("ratio_window")
        ok = True if window is None else (window[0] <= ratio <= window[1])
        rows.append([name, f"t={t:g}", run.m_count, order, gap_full,
                     gap_half, ratio, ok])
    return rows


def _safe_ratio(a: float, b: float) -> float:
    return float(a) / float(b) if b != 0 else math.nan


def _run_moments(cfg: ExperimentConfig):
    header = ["check", "label", "m_count", "order", "value", "reference",
              "ratio", "within"]
    rows = [row for check in cfg.checks for row in _moment_rows(check)]
    notes = {"all_within": bool(all(r[-1] for r in rows))}
    return header, rows, notes


def _run_spectrum(cfg: ExperimentConfig):
    prob = cfg.problem
    if "wells" in prob:
        header = ["depth", "bound_states", "lowest_level"]
        rows, counts = [], []
        for depth, problem in prob["wells"]:
            count, levels = analysis.bound_state_count(problem)
            counts.append(count)
            rows.append([depth, count,
                         float(levels[0]) if count else math.nan])
        return header, rows, {"counts": counts}
    energies = analysis.stark_halfline_spectrum(prob["slope"], prob["levels"],
                                                n_grid=prob["n_grid"],
                                                rel_tol=prob["rel_tol"])
    header = ["index", "energy"]
    rows = [[k, float(e)] for k, e in enumerate(energies)]
    spacings = np.diff(energies)
    return header, rows, {"levels_increasing": bool(np.all(spacings > 0))}


def _run_decay(cfg: ExperimentConfig):
    overlap = cfg.overlap
    times = overlap["times"]
    static, *values = analysis.field_overlap_decay(
        overlap["spec"], np.concatenate([[0.0], times]), tol=overlap["tol"])
    header = ["t", "overlap_sq"]
    rows = [[float(t), float(v)] for t, v in zip(times, values)]
    notes = {"static_value": float(static),
             "final_over_static": _safe_ratio(values[-1], static)}
    return header, rows, notes


def _make_out_dir(out_dir: Path) -> list[Path]:
    """Create out_dir before a run, refusing a path that cannot be one;
    returns the directories it made, deepest first."""
    missing = [p for p in (out_dir, *out_dir.parents) if not p.exists()]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory {out_dir}: "
                              f"{exc.strerror or exc}") from exc
    return missing


def run_experiment(cfg: ExperimentConfig, out_dir, name: str,
                   threads: int = 1, seed=None) -> dict:
    """Execute one experiment and write its table plus summary.json."""
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    if seed is not None and seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    out_dir = Path(out_dir)
    made = _make_out_dir(out_dir)
    started = time.perf_counter()
    try:
        if cfg.audit is not None:
            header, rows, notes = _run_stepper_audit(cfg.audit, seed)
        elif cfg.kind in _TRAJECTORY_TABLES:
            header, rows, notes = _run_trajectory(cfg, threads)
        else:
            run = {"moments": _run_moments, "spectrum": _run_spectrum,
                   "decay": _run_decay}[cfg.kind]
            header, rows, notes = run(cfg)
    except BaseException:
        for path in made:  # a failed run leaves no directory behind
            path.rmdir()
        raise
    table_path = out_dir / cfg.table
    atomic_write_text(str(table_path), render_csv(header, rows))
    summary = {
        "config": name,
        "kind": cfg.kind,
        "description": cfg.description,
        "table": cfg.table,
        "rows": len(rows),
        "threads": threads,
        "seed": seed,
        "elapsed_s": round(time.perf_counter() - started, 3),
        "notes": notes,
    }
    atomic_write_text(str(out_dir / "summary.json"),
                      json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


# Bundled experiment catalog.

def _bundle_root():
    return importlib.resources.files("mflab") / "experiments"

def bundled_names() -> list[str]:
    root = _bundle_root()
    return sorted(entry.name[:-5] for entry in root.iterdir()
                  if entry.name.endswith(".yaml"))


def resolve_config(ref: str):
    path = Path(ref)
    if path.is_file():
        return path
    candidate = _bundle_root() / f"{ref}.yaml"
    if candidate.is_file():
        return Path(str(candidate))
    raise ConfigError(f"no config file or bundled experiment named {ref!r}")


def cmd_list(args) -> int:
    for name in bundled_names():
        cfg = load_config(resolve_config(name))
        print(f"{name:26s} {cfg.kind:12s} {cfg.description}")
    return 0


def cmd_validate(args) -> int:
    for ref in args.configs:
        cfg = load_config(resolve_config(ref))
        print(f"ok: {ref} ({cfg.kind})")
    return 0


def cmd_run(args) -> int:
    path = resolve_config(args.config)
    cfg = load_config(path)
    name = Path(str(path)).stem
    out_root = Path(args.out or os.environ.get(OUT_ENV) or "runs")
    out_dir = out_root / name
    summary = run_experiment(cfg, out_dir, name, threads=args.threads,
                             seed=args.seed)
    print(f"wrote {out_dir / cfg.table}")
    print(f"wrote {out_dir / 'summary.json'}")
    print(f"{name}: {summary['rows']} rows in {summary['elapsed_s']}s")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mflab",
        description="Finite-size versus limit dynamics laboratory for "
                    "mean-field system-reservoir models.")
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="execute one experiment config")
    run_p.add_argument("config", help="path to a YAML config, or the name "
                                      "of a bundled experiment")
    run_p.add_argument("--out", default=None,
                       help=f"output directory (default ${OUT_ENV} or ./runs)")
    run_p.add_argument("--threads", type=int, default=1,
                       help="worker threads for independent reservoir "
                            "sizes; pays only when BLAS runs single-threaded "
                            "(e.g. OPENBLAS_NUM_THREADS=1)")
    run_p.add_argument("--seed", type=int, default=None,
                       help="seed for randomized audit fixtures; never "
                            "affects physical results")
    run_p.set_defaults(func=cmd_run)

    list_p = sub.add_parser("list", help="list bundled experiments")
    list_p.set_defaults(func=cmd_list)

    val_p = sub.add_parser("validate", help="parse configs without running")
    val_p.add_argument("configs", nargs="+")
    val_p.set_defaults(func=cmd_validate)
    return parser


def _failing_operation(exc: BaseException) -> str:
    """Deepest public package-level operation in the traceback.

    Method and helper frames are kept only as a fallback so the diagnostic
    names the operation a caller actually invoked.
    """
    best = fallback = None
    tb = exc.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        mod = tb.tb_frame.f_globals.get("__name__", "")
        tb = tb.tb_next
        if code.co_name.startswith("<"):
            continue  # comprehension, lambda and module frames name nothing
        if mod.startswith("mflab"):
            short = mod.rsplit(".", 1)[-1]
        elif "mflab" in Path(code.co_filename).parts:
            short = Path(code.co_filename).stem
        else:
            continue
        label = f"{short}.{code.co_name}"
        fallback = label
        is_method = code.co_varnames[:1] == ("self",)
        if not code.co_name.startswith("_") and not is_method:
            best = label
    return best or fallback or "cli.main"


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, (ResourceLimitError, MemoryError)):
        return 4
    if isinstance(exc, ToleranceError):
        return 3
    if isinstance(exc, (ConfigError, ValidationError)):
        return 2
    return 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MFLabError, MemoryError) as exc:  # an allocation numpy refused
        print(f"error: {_failing_operation(exc)}: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
