"""The four benchmark workloads.

Each workload is one closed-loop caller: a pass is a fixed list of
operations, each a call into mflab's public functions that starts only when
the previous one has returned. Each workload's constructor loads its
configs and draws its inputs from the workload seed; every operation's
output goes through the gate in ``gate.py``.

Why each workload exists:

* catalog: all bundled experiments through ``cli.run_experiment``, as users
  run them; every layer does some work, and the series oracle
  (``exact.dyson_truncated``) dominates.
* m_ladder: one convergence sweep over M = 4..12 with a seeded pure site
  state. Dense diagonalisation up to joint dimension 1024 and one Krylov
  point at 8192: the finite-M engine and Hamiltonian assembly do the work,
  the limit propagator little.
* mixed_reservoir: the same finite-M engine on mixed and correlated
  ensembles at small M: many branches and dense conjugation. Its probe, the
  truncating multi-branch Krylov path at M=12, runs once per run outside the
  timed passes, and the gate reports its mass defect.
* limit_dynamics: the limit propagator alone, with no finite-M call: long
  adaptive trajectories and a fixed-substep stepper audit.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from mflab import analysis, cli, config, effective, exact
from mflab.model import Coupling, SystemModel
from mflab.operators import DensityMatrix, Operator, pauli
from mflab.reservoir import (ChannelCorrelated, DeFinettiMixture,
                             MacroscopicParts, ProductState,
                             bell_channel_kraus)

import gate
from tracing import CATALOG

# Inputs are drawn for this many passes and reused cyclically after that.
INPUT_SETS = 16
ZERO = DensityMatrix.pure(np.array([1.0, 0.0]), (2,))


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object, gate.Findings], None]


def _random_ket(rng, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def _circle_ket(theta: float, phi: float) -> np.ndarray:
    return np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])


def _random_pure(rng, theta: float = np.pi / 2) -> DensityMatrix:
    """A site state at polar angle theta and a random azimuth.

    The site Hamiltonian is diagonal, so the azimuth only shifts the phase
    of the limit signal; the work every solver does depends on theta alone
    and is the same for every seed.
    """
    return DensityMatrix.pure(_circle_ket(theta, rng.uniform(0, 2 * np.pi)),
                              (2,))


def _random_mixed(rng, spectrum) -> DensityMatrix:
    """A qubit state with the given spectrum, eigenbasis rotated about z by
    a random angle."""
    phi = rng.uniform(0, 2 * np.pi)
    u = np.stack([_circle_ket(np.pi / 2, phi),
                  _circle_ket(np.pi / 2, phi + np.pi)], axis=1)
    return DensityMatrix(u @ np.diag(spectrum) @ u.conj().T, (2,))


def _bundled(name: str):
    return config.load_config(cli.resolve_config(name))


@contextlib.contextmanager
def _capture(module, names):
    """Record the results of calls made through module-level bindings."""
    seen = {name: [] for name in names}
    saved = {name: getattr(module, name) for name in names}

    def make(name, func):
        def capturing(*args, **kwargs):
            out = func(*args, **kwargs)
            seen[name].append(out)
            return out
        return capturing

    for name, func in saved.items():
        setattr(module, name, make(name, func))
    try:
        yield seen
    finally:
        for name, func in saved.items():
            setattr(module, name, func)


class Catalog:
    """All bundled experiments in fixed order into a scratch directory."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.configs = {name: _bundled(name) for name in CATALOG}
        self.references = {name: gate.load_reference(name)
                           for name in CATALOG if name != "propagator_quality"}

    def ops(self, k: int) -> list[Op]:
        return [self._op(name) for name in CATALOG]

    def _op(self, name: str) -> Op:
        cfg = self.configs[name]
        out = os.path.join(self.workdir, name)

        def run():
            return cli.run_experiment(cfg, out, name, threads=1, seed=self.seed)

        def check(summary, findings):
            with open(os.path.join(out, cfg.table), encoding="utf-8") as fh:
                text = fh.read()
            if summary["rows"] != text.count("\n") - 1:
                findings.wrong_output(f"{name}: summary rows {summary['rows']}")
            if name == "propagator_quality":
                gate.check_stepper_audit(text, cfg.audit["count"], findings)
            else:
                gate.compare_table(name, text, self.references[name], findings)
        return Op(name, run, check)


class MLadder:
    """analysis.m_sweep over M = 4..12 with a seeded pure product state."""

    M_LIST = (4, 6, 8, 9, 12)

    def __init__(self, seed: int):
        cfg = _bundled("qubit_convergence")
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        self.states = [ProductState(_random_pure(rng))
                       for _ in range(INPUT_SETS)]

    def ops(self, k: int) -> list[Op]:
        cfg, state = self.cfg, self.states[k % INPUT_SETS]
        seen = {}

        def run():
            with _capture(analysis, ("propagate_exact",
                                     "effective_trajectory")) as got:
                rows = analysis.m_sweep(cfg.system, cfg.site, state,
                                        cfg.initial_state, cfg.grid,
                                        self.M_LIST, threads=1,
                                        step_target=cfg.step_target)
            seen.update(got)
            return rows

        def check(rows, findings):
            if [r.m_count for r in rows] != list(self.M_LIST):
                findings.wrong_output(f"m_sweep rows {rows}")
                return
            (limit,) = seen["effective_trajectory"]
            gate.check_limit(limit, "limit", cfg.step_target, findings,
                             pure_orbit=True)
            for row, finite in zip(rows, seen["propagate_exact"]):
                where = f"M={row.m_count}"
                gate.check_exact(finite, where, findings)
                gap = max(analysis.trace_distance(a, b) for a, b in
                          zip(finite.states, limit.states))
                if not (0.0 < row.gap <= 1.0 and abs(gap - row.gap) <= 1e-12):
                    findings.wrong_output(
                        f"{where}: reported gap {row.gap} vs states {gap}")
        return [Op("m_sweep", run, check)]


class MixedReservoir:
    """Finite-M propagation of mixed and correlated ensembles."""

    M_LIST = (2, 4, 6, 8)
    KRYLOV_M = 12
    SPECTRUM = (0.8, 0.2)
    GRID = np.linspace(0.0, 2.0, 51)

    def __init__(self, seed: int):
        cfg = _bundled("qubit_convergence")
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        self.inputs = [self._draw(rng) for _ in range(INPUT_SETS)]

    def _draw(self, rng) -> dict:
        return {
            "rank2": ProductState(_random_mixed(rng, self.SPECTRUM)),
            "definetti": DeFinettiMixture(((0.5, _random_pure(rng)),
                                           (0.5, _random_pure(rng)))),
            # a fixed |0> part keeps the blended signal's size seed-free
            "macroscopic": MacroscopicParts(((2 / 3, ZERO),
                                             (1 / 3, _random_pure(rng)))),
            "bell_channel": ChannelCorrelated(_random_pure(rng), 2,
                                              bell_channel_kraus()),
        }

    def ops(self, k: int) -> list[Op]:
        ensembles = self.inputs[k % INPUT_SETS]
        limits = {}
        ops = []
        for name, state in ensembles.items():
            ops.append(self._limit_op(name, state, limits))
            for m in self.M_LIST:
                ops.append(self._exact_op(name, state, m, limits))
        return ops

    def probes(self) -> list[Op]:
        """The rank-2 state at M=12 on the Krylov path: it keeps 16 of 4096
        branches and reports the dropped weight as branch_mass_defect, so the
        gate fails it. It runs once per run, untimed, so that its cost does
        not drown the small-M paths in wall_s."""
        state = self.inputs[0]["rank2"]
        limits = {}
        return [self._limit_op("rank2", state, limits),
                self._exact_op("rank2", state, self.KRYLOV_M, limits)]

    def _limit_op(self, name, state, limits) -> Op:
        cfg = self.cfg

        def run():
            limits[name] = effective.effective_trajectory(
                cfg.system, state, cfg.site, cfg.initial_state, self.GRID,
                step_target=cfg.step_target)
            return limits[name]

        def check(result, findings):
            gate.check_limit(result, f"limit/{name}", cfg.step_target,
                             findings, pure_orbit=False)
        return Op(f"limit/{name}", run, check)

    def _exact_op(self, name, state, m, limits) -> Op:
        cfg = self.cfg

        def run():
            finite = exact.propagate_exact(exact.FiniteMRun(
                cfg.system, cfg.site, m, state, cfg.initial_state, self.GRID))
            gaps = [analysis.trace_distance(a, b)
                    for a, b in zip(finite.states, limits[name].states)]
            return finite, gaps

        def check(out, findings):
            finite, gaps = out
            gate.check_exact(finite, f"exact/{name}/M{m}", findings)
            if not all(0.0 <= g <= 1.0 for g in gaps):
                findings.wrong_output(f"exact/{name}/M{m}: gap outside [0, 1]")
        return Op(f"exact/{name}/M{m}", run, check)


class LimitDynamics:
    """The limit propagator alone: adaptive trajectories plus a
    fixed-substep stepper audit on seeded quasi-periodic signals."""

    GRID = np.linspace(0.0, 5.0, 251)   # adaptive doubling reaches 64 substeps
    AUDIT = {"count": 6, "t_max": 1.5, "substeps": 48}

    def __init__(self, seed: int):
        qubit = _bundled("qubit_convergence")
        pair = _bundled("bell_pair_protection")
        self.site = qubit.site
        self.step_target = qubit.step_target
        z, x = pauli("z"), pauli("x")
        triple = SystemModel(local_h=(z, z, z),
                             couplings=tuple(Coupling(g=x, v_index=0,
                                                      subsystem=j)
                                             for j in range(3)))
        self.systems = {"qubit": (qubit.system, qubit.initial_state),
                        "bell_pair": (pair.system, pair.initial_state),
                        "three_qubit": (triple, None)}
        rng = np.random.default_rng(seed)
        self.inputs = [self._draw(rng) for _ in range(INPUT_SETS)]

    def _draw(self, rng) -> dict:
        ket3 = _random_ket(rng, 8)
        return {
            "qubit": ProductState(_random_pure(rng)),
            "bell_pair": ProductState(_random_pure(rng)),
            "three_qubit": ProductState(_random_pure(rng)),
            "three_qubit_rho0": DensityMatrix.pure(ket3, (2, 2, 2)),
            "mixture": DeFinettiMixture(((0.5, _random_pure(rng)),
                                         (0.5, _random_pure(rng)))),
            "audit": [self._draw_signal(rng)
                      for _ in range(self.AUDIT["count"])],
        }

    @staticmethod
    def _draw_signal(rng):
        """A qubit Hamiltonian h0 + s(t) g with s a real quasi-periodic
        signal whose amplitudes stay away from zero."""
        def herm():
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            return Operator(0.5 * (m + m.conj().T), (2,), hermitian=True)
        h0, g = herm(), herm()
        freqs = rng.uniform(0.3, 3.0, 3)
        amps = rng.uniform(0.5, 1.5, 3) * rng.choice([-1.0, 1.0], 3)
        coeffs = 0.5 * amps * np.exp(1j * rng.uniform(0.0, 2 * np.pi, 3))
        signal = effective.QuasiPeriodicSignal(
            np.concatenate([freqs, -freqs]),
            np.concatenate([coeffs, coeffs.conj()]))
        return (SystemModel.single(h0, [(g, 0)]),
                effective.EffectivePotential((signal,)))

    def ops(self, k: int) -> list[Op]:
        draw = self.inputs[k % INPUT_SETS]
        ops = []
        for name in ("qubit", "bell_pair", "three_qubit"):
            system, rho0 = self.systems[name]
            if rho0 is None:
                rho0 = draw[f"{name}_rho0"]
            ops.append(self._trajectory_op(name, system, draw[name], rho0,
                                           pure_orbit=True))
        qubit, rho0 = self.systems["qubit"]
        ops.append(self._trajectory_op("mixture", qubit, draw["mixture"], rho0,
                                       pure_orbit=False))
        ops.append(self._audit_op(draw["audit"]))
        return ops

    def _trajectory_op(self, name, system, state, rho0, pure_orbit) -> Op:
        def run():
            return effective.effective_trajectory(
                system, state, self.site, rho0, self.GRID,
                step_target=self.step_target)

        def check(result, findings):
            gate.check_limit(result, name, self.step_target, findings,
                             pure_orbit=pure_orbit)
        return Op(f"trajectory/{name}", run, check)

    def _audit_op(self, draws) -> Op:
        grid = np.array([0.0, self.AUDIT["t_max"]])
        s = self.AUDIT["substeps"]

        def run():
            out = []
            for system, potential in draws:
                ends = [effective.propagate_effective(
                    system, potential, grid, n_substeps=n).unitaries[-1]
                    for n in (s, 2 * s, 32 * s)]
                out.append(ends)
            return out

        def check(out, findings):
            lo, hi = gate.HALVING_RATIO
            for j, (u1, u2, ref) in enumerate(out):
                ratio = np.linalg.norm(u1 - ref) / np.linalg.norm(u2 - ref)
                defect = max(np.linalg.norm(u.conj().T @ u - np.eye(2))
                             for u in (u1, u2, ref))
                if not lo <= ratio <= hi:
                    findings.wrong_output(f"audit draw {j}: ratio {ratio:.4f}")
                if not defect <= gate.UNITARITY_MAX:
                    findings.wrong_output(f"audit draw {j}: unitarity {defect:.2e}")
        return Op("stepper_audit", run, check)


def make(name: str, seed: int, workdir: str):
    if name == "catalog":
        return Catalog(seed, workdir)
    return {"m_ladder": MLadder, "mixed_reservoir": MixedReservoir,
            "limit_dynamics": LimitDynamics}[name](seed)
