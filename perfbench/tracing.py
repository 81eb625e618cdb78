"""Span tracing of mflab's public functions, installed from outside the package.

A traced pass replaces each function named in TRACED at every module
attribute that binds it: the home module, the ``from .x import y`` copies in
other mflab modules, and the package namespace. Each call records a span
(name, start, end, parent, op id, notes) in memory; spans are turned into
per-layer metrics per pass and written out as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import statistics
import sys
import time

TRACED = {
    "exact": ("dyson_truncated", "propagate_exact"),
    "model": ("assemble_total", "assemble_cluster_interaction"),
    "effective": ("propagate_effective", "effective_trajectory",
                  "effective_potential", "evolve_state", "propagate_definetti"),
    "reservoir": ("site_signal_terms", "multitime_moment", "factorization_error"),
    "analysis": ("m_sweep", "cluster_sweep", "trace_distance", "negativity",
                 "bound_state_count", "stark_halfline_spectrum",
                 "field_overlap_decay"),
    "operators": ("trace_norm",),
    "config": ("load_config",),
    "cli": ("run_experiment", "render_csv"),
    "matio": ("atomic_write_text",),
}

EXACT_PATHS = ("dense-branch", "dense-conjugation", "krylov-branch")

# The bundled experiments, in the order the catalog workload runs them.
CATALOG = ("bell_channel_moments", "bell_pair_protection", "cluster_pair",
           "definetti_two_atom", "dyson_ratio", "field_coherent",
           "field_scattering_decay", "macroscopic_two_part",
           "moments_product_qubit", "oscillator_coherent",
           "oscillator_scattering", "propagator_quality", "qubit_convergence",
           "stark_halfline", "well_localization")


def _per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []

    def fn(name, *keys):
        for key in keys:
            unit = "count" if key == "calls" else "s"
            out.append((f"{name}.{key}", unit, "lower"))

    fn("exact.dyson_truncated", "calls", "s", "self_s")
    fn("exact.propagate_exact", "calls", "s", "self_s")
    for path in EXACT_PATHS:
        fn(f"exact.path.{path.replace('-', '_')}", "calls", "s")
    out += [("exact.branches.sum", "count", "lower"),
            ("exact.branch_mass_defect.max", "fraction", "lower"),
            ("exact.norm_drift.max", "abs", "lower"),
            ("exact.dense_work_d3", "d3-computed", "lower")]
    fn("model.assemble_total", "calls", "s")
    fn("model.assemble_cluster_interaction", "calls", "s")
    fn("effective.propagate_effective", "calls", "s")
    fn("effective.effective_trajectory", "calls", "s", "self_s")
    fn("effective.effective_potential", "calls", "s")
    fn("effective.evolve_state", "calls", "s")
    fn("effective.propagate_definetti", "calls", "s", "self_s")
    out += [("effective.substeps.max", "count", "lower"),
            ("effective.steps_computed", "count", "lower"),
            ("effective.step_useful_ratio", "ratio", "higher")]
    fn("reservoir.site_signal_terms", "calls", "s")
    fn("reservoir.multitime_moment", "calls", "s")
    fn("reservoir.factorization_error", "calls", "s", "self_s")
    fn("analysis.m_sweep", "calls", "s", "self_s")
    fn("analysis.cluster_sweep", "calls", "s", "self_s")
    for name in ("trace_distance", "negativity", "bound_state_count",
                 "stark_halfline_spectrum", "field_overlap_decay"):
        fn(f"analysis.{name}", "calls", "s")
    fn("operators.trace_norm", "calls", "s")
    fn("config.load_config", "calls", "s")
    fn("cli.run_experiment", "calls", "self_s")
    for exp in CATALOG:
        fn(f"cli.run_experiment.{exp}", "s")
    fn("cli.render_csv", "s")
    fn("matio.atomic_write_text", "calls", "s")
    out.append(("matio.atomic_write_text.bytes", "bytes", "lower"))
    for layer in TRACED:
        out.append((f"layer.{layer}.share", "fraction", "lower"))
    out += [("traced.wall_s", "s", "lower"),
            ("unattributed.s", "s", "lower"),
            ("trace_overhead.s", "s", "lower")]
    return out


PER_LAYER = _per_layer_spec()


def _notes(name: str, args, kwargs, out) -> dict | None:
    """Counts read from a call's arguments and result at the layer boundary."""
    if name == "exact.propagate_exact":
        run = args[0] if args else kwargs["run"]
        diag = out.diagnostics
        return {"path": diag.get("path"), "branches": diag.get("branches"),
                "defect": diag.get("branch_mass_defect"),
                "drift": diag.get("max_norm_drift"), "dim": run.joint_dim}
    if name == "effective.propagate_effective":
        fixed = kwargs.get("n_substeps", args[4] if len(args) > 4 else None)
        return {"substeps": out.n_substeps, "intervals": len(out.times) - 1,
                "adaptive": fixed is None}
    if name == "cli.run_experiment":
        return {"experiment": kwargs.get("name", args[2] if len(args) > 2 else None)}
    if name == "matio.atomic_write_text":
        text = kwargs.get("text", args[1] if len(args) > 1 else "")
        return {"bytes": len(text.encode("utf-8"))}
    return None


def bindings(package: str = "mflab"):
    """Yield (module, attribute, qualified name, function) for every module
    attribute under the package that binds a function named in TRACED."""
    targets = {}
    for layer, names in TRACED.items():
        mod = sys.modules[f"{package}.{layer}"]
        for fname in names:
            targets[id(getattr(mod, fname))] = f"{layer}.{fname}"
    for modname, mod in sorted(sys.modules.items()):
        if mod is None or not (modname == package
                               or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            qual = targets.get(id(value))
            if qual is not None:
                yield mod, attr, qual, value


@contextlib.contextmanager
def patched(wrap):
    """Replace every traced binding by wrap(qualified name, function) and
    restore the originals on exit."""
    saved = []
    try:
        for mod, attr, qual, func in list(bindings()):
            saved.append((mod, attr, func))
            setattr(mod, attr, wrap(qual, func))
        yield
    finally:
        for mod, attr, func in saved:
            setattr(mod, attr, func)


class Tracer:
    """In-memory span recorder; one instance per benchmark run."""

    def __init__(self):
        self.spans: list = []
        self.op_id = 0
        self._stack: list[int] = []

    def wrap(self, qual: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                out = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = [qual, start, end, parent, self.op_id, None]
            self.spans[idx][5] = _notes(qual, args, kwargs, out)
            return out
        return traced

    def active(self):
        return patched(self.wrap)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, notes in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "notes": notes}) + "\n")


def span_metrics(spans, lo: int, hi: int, wall: float) -> dict:
    """Per-layer metrics of spans[lo:hi], which cover one pass of `wall` s."""
    m = {name: 0.0 for name, _, _ in PER_LAYER}
    child = {}
    for i in range(lo, hi):
        _, start, end, parent, _, _ = spans[i]
        if parent >= lo:
            child[parent] = child.get(parent, 0.0) + (end - start)
    top = 0.0
    layer_self = {layer: 0.0 for layer in TRACED}
    useful = computed = 0
    for i in range(lo, hi):
        name, start, end, parent, _, notes = spans[i]
        dur = end - start
        self_s = dur - child.get(i, 0.0)
        if parent < lo:
            top += dur
        layer_self[name.split(".", 1)[0]] += self_s
        for key, val in ((f"{name}.calls", 1), (f"{name}.s", dur),
                         (f"{name}.self_s", self_s)):
            if key in m:
                m[key] += val
        if notes is None:
            continue
        if name == "exact.propagate_exact":
            path = str(notes["path"]).replace("-", "_")
            if f"exact.path.{path}.calls" in m:
                m[f"exact.path.{path}.calls"] += 1
                m[f"exact.path.{path}.s"] += dur
            m["exact.branches.sum"] += notes["branches"] or 0
            for key, val in (("exact.branch_mass_defect.max", notes["defect"]),
                             ("exact.norm_drift.max", notes["drift"])):
                if val is not None and math.isfinite(val):
                    m[key] = max(m[key], float(val))
            if str(notes["path"]).startswith("dense"):
                m["exact.dense_work_d3"] += float(notes["dim"]) ** 3
        elif name == "effective.propagate_effective":
            n, k = notes["substeps"], notes["intervals"]
            if notes["adaptive"]:
                m["effective.substeps.max"] = max(m["effective.substeps.max"], n)
            useful += n * k
            # adaptive doubling runs 1, 2, ..., n substeps: 2n - 1 in total
            computed += (2 * n - 1) * k if notes["adaptive"] else n * k
        elif name == "cli.run_experiment":
            key = f"cli.run_experiment.{notes['experiment']}.s"
            if key in m:
                m[key] += dur
        elif name == "matio.atomic_write_text":
            m["matio.atomic_write_text.bytes"] += notes["bytes"]
    m["effective.steps_computed"] = float(computed)
    m["effective.step_useful_ratio"] = useful / computed if computed else 0.0
    for layer, val in layer_self.items():
        m[f"layer.{layer}.share"] = val / wall if wall > 0 else 0.0
    m["traced.wall_s"] = wall
    m["unattributed.s"] = max(0.0, wall - top)
    return m


def median_metrics(per_pass: list[dict]) -> dict:
    return {key: statistics.median(p[key] for p in per_pass)
            for key in per_pass[0]}
