"""Limit dynamics of the system: scalar potentials and unitary propagation.

In the infinite-reservoir limit the system evolves under its own Hamiltonian
plus coupling operators weighted by scalar functions of time, each the
single-site expectation of the corresponding evolved interaction operator.
This module builds those scalar signals in closed quasi-periodic form,
integrates the resulting time-dependent Schrodinger equation with a
midpoint-exponential scheme (order 2, unitary by construction per step), and
evolves density matrices along the result, including convex mixtures of
propagations for exchangeable reservoir ensembles and tensor products of
per-factor propagations for systems with local couplings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ToleranceError, ValidationError
from .model import Coupling, SiteModel, SystemModel
from .operators import DensityMatrix, unitary_defect
from .reservoir import (
    ChannelCorrelated,
    DeFinettiMixture,
    MacroscopicParts,
    ProductState,
    ReservoirState,
    site_signal_terms,
)
from .results import PropagationResult

SIGNAL_IMAG_ATOL = 1e-10
PROPAGATOR_UNITARY_ATOL = 1e-8
DEFAULT_STEP_TARGET = 1e-7
MAX_STEP_DOUBLINGS = 16


@dataclass(frozen=True)
class QuasiPeriodicSignal:
    """Finite sum of complex exponentials with a real-valued total."""

    freqs: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float).ravel()
        coeffs = np.asarray(self.coeffs, dtype=complex).ravel()
        if freqs.shape != coeffs.shape:
            raise ValidationError("frequency and coefficient counts differ")
        freqs.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "coeffs", coeffs)
        probe = np.linspace(0.0, 7.3, 37)
        resid = self._raw(probe).imag
        worst = float(np.max(np.abs(resid))) if resid.size else 0.0
        if worst > SIGNAL_IMAG_ATOL:
            raise ValidationError(
                f"signal has imaginary residue {worst:.2e}; terms not conjugate-paired")

    def _raw(self, t: np.ndarray) -> np.ndarray:
        if self.freqs.size == 0:
            return np.zeros_like(t, dtype=complex)
        return np.exp(1j * np.outer(t, self.freqs)) @ self.coeffs

    def evaluate(self, t):
        tarr = np.atleast_1d(np.asarray(t, dtype=float))
        vals = self._raw(tarr).real
        if np.asarray(t).ndim == 0:
            return float(vals[0])
        return vals

    def amplitude(self) -> float:
        return float(np.sum(np.abs(self.coeffs)))

    def is_zero(self, atol: float = 1e-12) -> bool:
        return self.amplitude() <= atol

    @classmethod
    def constant(cls, value: float) -> "QuasiPeriodicSignal":
        return cls(np.array([0.0]), np.array([complex(value)]))


@dataclass(frozen=True)
class EffectivePotential:
    """One scalar signal per site interaction operator, by index."""

    signals: tuple

    def __post_init__(self):
        object.__setattr__(self, "signals", tuple(self.signals))
        if not self.signals:
            raise ValidationError("potential needs at least one signal")

    @classmethod
    def zero(cls, n_interactions: int = 1) -> "EffectivePotential":
        return cls(tuple(QuasiPeriodicSignal.constant(0.0)
                         for _ in range(n_interactions)))


def effective_potential(state, site: SiteModel) -> EffectivePotential:
    """Scalar potentials of the limit dynamics for the given ensemble.

    Accepts a single-site DensityMatrix or any ensemble that reduces to one:
    products use their factor, block ensembles the fraction-weighted average
    of their part states, channel-correlated ensembles their reference site
    state. Exchangeable mixtures must be iterated atom by atom.
    """
    if isinstance(state, DeFinettiMixture):
        raise ValidationError(
            "mixture ensembles have no single effective potential; "
            "build one per atom and combine the propagations")
    if isinstance(state, DensityMatrix):
        rho = state
    elif isinstance(state, (ProductState, ChannelCorrelated)):
        rho = state.site_state
    elif isinstance(state, MacroscopicParts):
        acc = sum(f * s.data for f, s in state.parts)
        rho = DensityMatrix(acc, (state.site_dim,))
    else:
        raise ValidationError(f"unsupported ensemble {type(state).__name__}")
    if rho.dim != site.dim:
        raise ValidationError(
            f"state dim {rho.dim} does not match site dim {site.dim}")
    signals = []
    for v in site.interactions:
        freqs, coeffs = site_signal_terms(rho.data, site.h.data, v.data)
        signals.append(QuasiPeriodicSignal(freqs, coeffs))
    return EffectivePotential(tuple(signals))


@dataclass(frozen=True)
class EffectivePropagator:
    """Unitaries from time zero to each grid point, system factors kept."""

    times: np.ndarray
    unitaries: tuple
    dims: tuple[int, ...]
    step_error: float
    n_substeps: int

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        unitaries = tuple(np.asarray(u, dtype=complex) for u in self.unitaries)
        if len(times) != len(unitaries):
            raise ValidationError("grid and unitary counts differ")
        object.__setattr__(self, "dims", tuple(self.dims))
        d = math.prod(self.dims)
        if np.max(np.abs(unitaries[0] - np.eye(d))) > 1e-12:
            raise ValidationError("propagator must start from the identity")
        for k, u in enumerate(unitaries):
            defect = unitary_defect(u)
            if defect > PROPAGATOR_UNITARY_ATOL:
                raise ToleranceError(
                    f"unitary defect {defect:.2e} at grid point {k} exceeds "
                    f"{PROPAGATOR_UNITARY_ATOL}")
            u.setflags(write=False)
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "unitaries", unitaries)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)


def _check_grid(grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValidationError("time grid needs at least two points")
    if abs(grid[0]) > 1e-15:
        raise ValidationError(f"time grid must start at 0, got {grid[0]}")
    if np.any(np.diff(grid) <= 0):
        raise ValidationError("time grid must be strictly increasing")
    return grid


def _step_unitary(h: np.ndarray, dt: float) -> np.ndarray:
    if h.shape == (2, 2):
        # closed form for a Hermitian 2x2 generator
        mu = 0.5 * (h[0, 0].real + h[1, 1].real)
        vz = 0.5 * (h[0, 0].real - h[1, 1].real)
        c = 0.5 * (h[0, 1] + np.conj(h[1, 0]))
        vx, vy = c.real, -c.imag
        r = math.sqrt(vx * vx + vy * vy + vz * vz)
        phase = complex(np.exp(-1j * dt * mu))
        if r == 0.0:
            return phase * np.eye(2, dtype=complex)
        cr = math.cos(dt * r)
        sr = math.sin(dt * r) / r
        return phase * np.array(
            [[cr - 1j * sr * vz, -1j * sr * (vx - 1j * vy)],
             [-1j * sr * (vx + 1j * vy), cr + 1j * sr * vz]])
    evals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * dt * evals)) @ vecs.conj().T


def _run_grid(sys: SystemModel, potential: EffectivePotential,
              grid: np.ndarray, n_sub: int) -> list[np.ndarray]:
    h_s = sys.h_full()
    pairs = [(c.v_index, sys.coupling_full(c)) for c in sys.couplings]
    d = sys.dim
    u = np.eye(d, dtype=complex)
    out = [u]
    for k in range(len(grid) - 1):
        dt = (grid[k + 1] - grid[k]) / n_sub
        mids = grid[k] + (np.arange(n_sub) + 0.5) * dt
        weights = [np.atleast_1d(potential.signals[v_index].evaluate(mids))
                   for v_index, _ in pairs]
        for j in range(n_sub):
            h = h_s.copy()
            for (_, g), w in zip(pairs, weights):
                h += w[j] * g
            u = _step_unitary(h, dt) @ u
        out.append(u)
    return out


def propagate_effective(sys: SystemModel, potential: EffectivePotential,
                        grid, step_target: float = DEFAULT_STEP_TARGET,
                        n_substeps: int | None = None) -> EffectivePropagator:
    """Integrate the time-dependent system equation over the grid.

    Midpoint-exponential stepping: U(t+d) = exp(-i d H(t+d/2)) U(t), each
    factor unitary by construction. Substeps per grid interval double until
    the step-halving estimate of the global error is below step_target;
    passing n_substeps fixes the count and skips the adaptive loop.
    """
    grid = _check_grid(grid)
    for c in sys.couplings:
        if not 0 <= c.v_index < len(potential.signals):
            raise ValidationError(
                f"coupling wants potential signal {c.v_index}, "
                f"have {len(potential.signals)}")
    if n_substeps is not None:
        if n_substeps < 1:
            raise ValidationError("substep count must be positive")
        us = _run_grid(sys, potential, grid, n_substeps)
        return EffectivePropagator(grid, us, sys.subsystem_dims,
                                   float("nan"), n_substeps)
    n_sub = 1
    coarse = _run_grid(sys, potential, grid, n_sub)
    for _ in range(MAX_STEP_DOUBLINGS):
        fine = _run_grid(sys, potential, grid, 2 * n_sub)
        diff = max(float(np.max(np.abs(a - b))) for a, b in zip(coarse, fine))
        estimate = diff / 3.0  # second-order extrapolation of the finer run
        if estimate <= step_target:
            return EffectivePropagator(grid, fine, sys.subsystem_dims,
                                       estimate, 2 * n_sub)
        n_sub *= 2
        coarse = fine
    raise ToleranceError(
        f"step halving stalled at {2 * n_sub} substeps per interval; "
        f"achieved error estimate {estimate:.3e} > target {step_target:.1e}")


def propagate_subsystems(sys: SystemModel, potential, grid,
                         step_target: float = DEFAULT_STEP_TARGET,
                         n_substeps: int | None = None) -> EffectivePropagator:
    """Product propagation: each system factor evolves under its own local
    equation and the results are tensored.

    potential is either one EffectivePotential shared by all factors or a
    sequence with one entry per factor.
    """
    n = sys.n_subsystems
    if isinstance(potential, EffectivePotential):
        pots = [potential] * n
    else:
        pots = list(potential)
        if len(pots) != n:
            raise ValidationError(
                f"{len(pots)} potentials for {n} system factors")
    grid = _check_grid(grid)
    locals_: list[EffectivePropagator] = []
    for j in range(n):
        couplings = [Coupling(g=c.g, v_index=c.v_index, subsystem=0)
                     for c in sys.couplings if c.subsystem == j]
        local = SystemModel(local_h=(sys.local_h[j],), couplings=tuple(couplings))
        locals_.append(propagate_effective(local, pots[j], grid,
                                           step_target=step_target,
                                           n_substeps=n_substeps))
    unitaries = []
    for k in range(len(grid)):
        u = locals_[0].unitaries[k]
        for part in locals_[1:]:
            u = np.kron(u, part.unitaries[k])
        unitaries.append(u)
    step_error = max(p.step_error for p in locals_) if n_substeps is None \
        else float("nan")
    subs = max(p.n_substeps for p in locals_)
    return EffectivePropagator(grid, unitaries, sys.subsystem_dims,
                               step_error, subs)


def evolve_state(propagator: EffectivePropagator,
                 rho0: DensityMatrix) -> PropagationResult:
    """Conjugate the initial state by each stored unitary."""
    if rho0.dim != propagator.dim:
        raise ValidationError(
            f"initial state dim {rho0.dim} does not match propagator dim "
            f"{propagator.dim}")
    states = [DensityMatrix(u @ rho0.data @ u.conj().T, rho0.dims)
              for u in propagator.unitaries]
    diag = {
        "max_trace_drift": max(abs(complex(np.trace(s.data)) - 1) for s in states),
        "step_error": propagator.step_error,
        "n_substeps": propagator.n_substeps,
    }
    return PropagationResult(propagator.times, tuple(states), diag)


def propagate_definetti(sys: SystemModel, atoms, rho0: DensityMatrix, grid,
                        step_target: float = DEFAULT_STEP_TARGET,
                        n_substeps: int | None = None) -> PropagationResult:
    """Convex combination of per-atom propagations.

    atoms: sequence of (weight, EffectivePotential). The trajectory is the
    weighted sum of the individually conjugated states; generally not a
    unitary orbit.
    """
    atoms = [(float(w), p) for w, p in atoms]
    if not atoms:
        raise ValidationError("need at least one mixture atom")
    total = sum(w for w, _ in atoms)
    if any(w < 0 for w, _ in atoms) or abs(total - 1.0) > 1e-12:
        raise ValidationError(f"atom weights must be a distribution, sum {total}")
    grid = _check_grid(grid)
    runs = [propagate_effective(sys, pot, grid, step_target=step_target,
                                n_substeps=n_substeps) for _, pot in atoms]
    states = []
    for k in range(len(grid)):
        acc = np.zeros((rho0.dim, rho0.dim), dtype=complex)
        for (w, _), run in zip(atoms, runs):
            u = run.unitaries[k]
            acc += w * (u @ rho0.data @ u.conj().T)
        states.append(DensityMatrix(acc, rho0.dims))
    diag = {
        "atoms": len(atoms),
        "step_error": max(r.step_error for r in runs),
    }
    return PropagationResult(grid, tuple(states), diag)


def effective_trajectory(sys: SystemModel, state: ReservoirState,
                         site: SiteModel, rho0: DensityMatrix, grid,
                         step_target: float = DEFAULT_STEP_TARGET,
                         n_substeps: int | None = None) -> PropagationResult:
    """Limit trajectory of rho0 for any supported reservoir ensemble."""
    if isinstance(state, DeFinettiMixture):
        atoms = [(w, effective_potential(s, site)) for w, s in state.atoms]
        return propagate_definetti(sys, atoms, rho0, grid,
                                   step_target=step_target,
                                   n_substeps=n_substeps)
    potential = effective_potential(state, site)
    prop = propagate_effective(sys, potential, grid, step_target=step_target,
                               n_substeps=n_substeps)
    return evolve_state(prop, rho0)
