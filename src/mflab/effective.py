"""Limit dynamics of the system: scalar potentials and unitary propagation.

In the infinite-reservoir limit the system evolves under its own Hamiltonian
plus coupling operators weighted by scalar functions of time, each the
single-site expectation of the corresponding evolved interaction operator.
reservoir builds those signals from exact mirror pairs, real by construction
and checked exactly per |f| slot; this module integrates the resulting
time-dependent Schrodinger equation with a midpoint-exponential scheme
(order 2, unitary by construction per step), and evolves density matrices
along the result, including convex mixtures of propagations for exchangeable
reservoir ensembles; a limit trajectory keeps the orbit of each atom it mixes.

The stepper works on whole arrays: for a chunk of grid intervals it
evaluates every midpoint signal at once, forms every step at once and
multiplies each interval's steps by a pairwise tree; a log-depth scan chains
the interval products to the grid points. A qubit step is a U(1) phase times
an SU(2) matrix [[a, b], [-b*, a*]]: its Cayley-Klein pair (a, b) is
multiplied as a pair and its phase angle summed, and the two are joined into
unitaries at the grid points only. Other factors step by one stacked eigh.

Couplings are local to one system factor, so the limit propagator of a
multi-factor system is the tensor product of per-factor propagators.
propagate_effective steps each distinct factor once and tensors the results;
every limit trajectory goes through it. The adaptive substep count doubles
until a step-halving estimate meets the target, and skips the doublings
that the observed n^-2 decay of that estimate already rules out; a
non-finite estimate, from a generator that overflows, stops it at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ToleranceError, ValidationError
from .model import SiteModel, SystemModel
from .operators import DensityMatrix
from .reservoir import (QuasiPeriodicSignal, ReservoirState, check_weights,
                        limit_atoms, site_signal_terms)
from .results import PropagationResult

PROPAGATOR_UNITARY_ATOL = 1e-8
DEFAULT_STEP_TARGET = 1e-7
MAX_STEP_DOUBLINGS = 16
# Step-halving ratios of successive estimates that show the n^-2 law.
ASYMPTOTIC_RATIO = (3.5, 4.5)
# Complex entries of steps formed at once: 2 per qubit step, d^2 otherwise.
STEP_CHUNK = 4096


@dataclass(frozen=True)
class EffectivePotential:
    """One scalar signal per site interaction operator, by index."""

    signals: tuple

    def __post_init__(self):
        object.__setattr__(self, "signals", tuple(self.signals))
        if not self.signals:
            raise ValidationError("potential needs at least one signal")


def effective_potential(rho: DensityMatrix,
                        site: SiteModel) -> EffectivePotential:
    """Scalar potentials of the limit dynamics for one site state, i.e. one
    limit atom of a reservoir ensemble (effective_trajectory takes the
    whole ensemble)."""
    if rho.dim != site.dim:
        raise ValidationError(
            f"state dim {rho.dim} does not match site dim {site.dim}")
    return EffectivePotential(tuple(
        QuasiPeriodicSignal(*site_signal_terms(rho.data, site.h.data, v.data))
        for v in site.interactions))


@dataclass(frozen=True)
class EffectivePropagator:
    """Unitaries from time zero to each grid point on the whole system.

    unitaries is one read-only (grid points, d, d) array, the tensor product
    of the per-factor propagators in the factor order of dims.
    """

    times: np.ndarray
    unitaries: np.ndarray
    dims: tuple[int, ...]
    step_error: float
    n_substeps: int
    steps_computed: int
    steppers: tuple[str, ...]

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        unitaries = np.asarray(self.unitaries, dtype=complex)
        if len(times) != len(unitaries):
            raise ValidationError("grid and unitary counts differ")
        object.__setattr__(self, "dims", tuple(self.dims))
        finite = np.isfinite(unitaries).all(axis=(-2, -1))
        if not finite.all():
            raise ToleranceError(f"unitary at grid point {int(np.argmin(finite))} "
                                 f"has non-finite entries")
        eye = np.eye(math.prod(self.dims))
        if np.max(np.abs(unitaries[0] - eye)) > 1e-12:
            raise ValidationError("propagator must start from the identity")
        gram = np.swapaxes(unitaries.conj(), -1, -2) @ unitaries
        defects = np.abs(gram - eye).max(axis=(-2, -1))
        bad = np.flatnonzero(defects > PROPAGATOR_UNITARY_ATOL)
        if bad.size:
            k = int(bad[0])
            raise ToleranceError(
                f"unitary defect {defects[k]:.2e} at grid point {k} exceeds "
                f"{PROPAGATOR_UNITARY_ATOL}")
        unitaries.setflags(write=False)
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "unitaries", unitaries)


def _pauli_coords(h: np.ndarray) -> np.ndarray:
    """(mu, vx, vy, vz) with h = mu I + vx X + vy Y + vz Z, h Hermitian 2x2."""
    c = 0.5 * (h[0, 1] + np.conj(h[1, 0]))
    return np.array([0.5 * (h[0, 0].real + h[1, 1].real), c.real, -c.imag,
                     0.5 * (h[0, 0].real - h[1, 1].real)])


def _cayley_klein_steps(h_s: np.ndarray, terms, mids: np.ndarray,
                        dt: np.ndarray):
    """exp(-i dt H(t)) = exp(-i dt mu) [[a, b], [-b*, a*]] at every qubit
    midpoint t, H = h_s + sum of w(t) g = mu I + v.sigma: the rows [a, b],
    shape mids.shape + (1, 2), and each interval's summed angle dt mu.
    mids has shape (intervals, substeps) and dt broadcasts against it."""
    coords = np.full((4,) + mids.shape, _pauli_coords(h_s)[:, None, None])
    for sig, g in terms:
        coords = coords + _pauli_coords(g)[:, None, None] * sig.evaluate(mids)
    mu, vx, vy, vz = coords
    r = np.sqrt(vx * vx + vy * vy + vz * vz)
    angle = dt * r
    # r = 0 leaves a = 1 and b = 0: exactly a pure phase
    sr = -np.divide(np.sin(angle), r, out=np.zeros(mids.shape),
                    where=r != 0.0)
    parts = np.stack([np.cos(angle), sr * vz, sr * vy, sr * vx], axis=-1)
    return parts.view(complex)[..., None, :], (dt * mu).sum(axis=1)


def _eigh_steps(h_s: np.ndarray, terms, mids: np.ndarray, dt: np.ndarray):
    """exp(-i dt H(t)) at every midpoint t by one stacked eigh, shape
    mids.shape + (d, d), with no angle split off."""
    h = np.broadcast_to(h_s, mids.shape + h_s.shape).copy()
    for sig, g in terms:
        h += sig.evaluate(mids)[..., None, None] * g
    evals, vecs = np.linalg.eigh(h)
    phases = np.exp(-1j * (dt[..., None] * evals))
    steps = (vecs * phases[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)
    return steps, 0.0


def _su2_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y on stacks of first rows [a, b] of SU(2) matrices."""
    a2, b2, a1, b1 = x[..., 0, 0], x[..., 0, 1], y[..., 0, 0], y[..., 0, 1]
    out = np.empty(x.shape, dtype=complex)   # every caller passes equal shapes
    out[..., 0, 0] = a2 * a1 - b2 * b1.conj()
    out[..., 0, 1] = a2 * b1 + b2 * a1.conj()
    return out


def _stepper(d: int):
    """(name, steps, element product, identity element) for dimension d."""
    if d == 2:
        return "cayley-klein", _cayley_klein_steps, _su2_product, np.eye(1, 2)
    return "eigh", _eigh_steps, np.matmul, np.eye(d)


def _ordered_product(steps: np.ndarray, product) -> np.ndarray:
    """steps[..., n-1, :, :] ... steps[..., 0, :, :] by a pairwise tree of
    the element product."""
    while steps.shape[-3] > 1:
        n = steps.shape[-3]
        paired = product(steps[..., 1:n - n % 2:2, :, :],
                         steps[..., 0:n - n % 2:2, :, :])
        if n % 2:
            paired = np.concatenate([paired, steps[..., n - 1:, :, :]], axis=-3)
        steps = paired
    return steps[..., 0, :, :]


def _prefix_products(steps: np.ndarray, product) -> np.ndarray:
    """out[k] = steps[k] ... steps[0], by a log-depth scan: log2(n)
    batched products in place of n - 1 single ones."""
    out = steps.copy()
    shift = 1
    while shift < len(out):
        out[shift:] = product(out[shift:], out[:-shift])
        shift *= 2
    return out


def _run_grid(h_s: np.ndarray, terms, grid: np.ndarray,
              n_sub: int) -> np.ndarray:
    """Unitaries from time zero to each grid point, stacked on axis 0.

    terms pairs each coupling's signal with its full-space operator. The
    chunks, the tree and the scan multiply the stepper's elements; qubit
    angles are summed apart and joined to the SU(2) rows at the grid points.
    """
    _, steps, product, unit = _stepper(h_s.shape[0])
    n_int = len(grid) - 1
    span = max(1, STEP_CHUNK // unit.size)   # steps formed at once
    sub = min(n_sub, span)                   # substeps per chunk
    rows = max(1, span // n_sub)             # grid intervals per chunk
    dts = np.diff(grid) / n_sub
    out = np.empty((len(grid),) + unit.shape, dtype=complex)
    out[0] = unit
    angles = np.zeros(len(grid))
    for k0 in range(0, n_int, rows):
        k1 = min(k0 + rows, n_int)
        dt = dts[k0:k1, None]
        for j0 in range(0, n_sub, sub):
            mids = grid[k0:k1, None] + (np.arange(j0, min(j0 + sub, n_sub))
                                        + 0.5) * dt
            elements, angle = steps(h_s, terms, mids, dt)
            part = _ordered_product(elements, product)
            angles[k0 + 1:k1 + 1] += angle
            out[k0 + 1:k1 + 1] = part if j0 == 0 else product(
                part, out[k0 + 1:k1 + 1])
    out[1:] = _prefix_products(out[1:], product)
    if product is not _su2_product:
        return out
    a, b = out[:, 0, 0], out[:, 0, 1]
    su2 = np.stack([a, b, -b.conj(), a.conj()], axis=1).reshape(-1, 2, 2)
    return np.exp(-1j * np.cumsum(angles))[:, None, None] * su2


# an overflowing generator shows as a non-finite estimate or unitary, which
# is refused with one message instead of numpy's warnings
@np.errstate(over="ignore", invalid="ignore")
def _step_factor(h_s: np.ndarray, terms, grid: np.ndarray,
                 step_target: float, n_substeps: int | None):
    """(unitaries, step error, substeps, steps computed) of one factor.

    Substeps per grid interval double until the step-halving estimate of
    the global error is below step_target, unless n_substeps fixes them
    (error NaN). Once two successive estimates fall by a ratio inside
    ASYMPTOTIC_RATIO the error follows its n^-2 law, so the loop skips the
    doublings whose predicted estimate (a quarter per doubling) still misses
    step_target and resumes at the first that meets it. The pair of passes
    that returns is compared as before, so a short prediction only costs
    further doublings. No pass exceeds 2**MAX_STEP_DOUBLINGS substeps.
    Steps computed sums substeps x intervals over the passes run.
    """
    intervals = len(grid) - 1
    if n_substeps is not None:
        return (_run_grid(h_s, terms, grid, n_substeps), float("nan"),
                n_substeps, n_substeps * intervals)
    lo, hi = ASYMPTOTIC_RATIO
    n_sub, computed, previous = 1, 1, None
    coarse = _run_grid(h_s, terms, grid, n_sub)
    while n_sub < 2 ** MAX_STEP_DOUBLINGS:
        fine = _run_grid(h_s, terms, grid, 2 * n_sub)
        computed += 2 * n_sub
        # second-order extrapolation of the finer run
        estimate = float(np.max(np.abs(coarse - fine))) / 3.0
        if not math.isfinite(estimate):
            raise ToleranceError(
                f"step-halving error estimate is {estimate} at {2 * n_sub} "
                f"substeps per interval; the limit generator overflows")
        if estimate <= step_target:
            return fine, estimate, 2 * n_sub, computed * intervals
        n_sub, coarse = 2 * n_sub, fine
        level, predicted = n_sub, estimate / 4
        if previous is not None and lo <= previous / estimate <= hi:
            while (predicted > step_target
                   and level < 2 ** (MAX_STEP_DOUBLINGS - 1)):
                level, predicted = 2 * level, predicted / 4
        previous = estimate
        if level > n_sub:
            # the next estimate is no single halving of this one
            n_sub, previous = level, None
            coarse = _run_grid(h_s, terms, grid, n_sub)
            computed += n_sub
    raise ToleranceError(
        f"step halving stalled at {2 * n_sub} substeps per interval; "
        f"achieved error estimate {estimate:.3e} > target {step_target:.1e}")


def propagate_effective(sys: SystemModel, potential: EffectivePotential,
                        grid, step_target: float = DEFAULT_STEP_TARGET,
                        n_substeps: int | None = None) -> EffectivePropagator:
    """Integrate the time-dependent system equation over the grid.

    Couplings are local, so each of the n system factors is stepped on its
    own under the shared potential, to step_target / n, and the factor
    unitaries are tensored in factor order. Factors with the same local
    Hamiltonian and the same couplings share one stepping; the step error
    still counts each of the n factors. Midpoint-exponential stepping:
    U(t+d) = exp(-i d H(t+d/2)) U(t), each step unitary by construction and
    formed in batches of at most STEP_CHUNK complex entries. The step error
    is the sum of the factor estimates, which bounds the max-abs error of the
    product since unitary entries have modulus at most 1. Passing n_substeps
    fixes the count and skips the adaptive loop. steps_computed counts
    substeps x intervals over every pass of every distinct factor, and
    steppers names the stepper of each distinct factor.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValidationError("time grid needs at least two points")
    if abs(grid[0]) > 1e-15:
        raise ValidationError(f"time grid must start at 0, got {grid[0]}")
    if np.any(np.diff(grid) <= 0):
        raise ValidationError("time grid must be strictly increasing")
    for c in sys.couplings:
        if not 0 <= c.v_index < len(potential.signals):
            raise ValidationError(
                f"coupling wants potential signal {c.v_index}, "
                f"have {len(potential.signals)}")
    if n_substeps is not None and n_substeps < 1:
        raise ValidationError("substep count must be positive")
    n = sys.n_subsystems
    runs, factors, steppers = {}, [], []
    for j, h in enumerate(sys.local_h):
        couplings = [(c.v_index, c.g.data) for c in sys.couplings
                     if c.subsystem == j]
        key = (h.data.tobytes(),
               tuple((v, g.tobytes()) for v, g in couplings))
        if key not in runs:
            runs[key] = _step_factor(
                h.data, [(potential.signals[v], g) for v, g in couplings],
                grid, step_target / n, n_substeps)
            steppers.append(_stepper(h.data.shape[0])[0])
        factors.append(runs[key])
    unitaries = factors[0][0]
    for part, *_ in factors[1:]:
        a, b = unitaries.shape[-1], part.shape[-1]
        unitaries = (unitaries[:, :, None, :, None]
                     * part[:, None, :, None, :]
                     ).reshape(len(grid), a * b, a * b)
    return EffectivePropagator(grid, unitaries, sys.subsystem_dims,
                               sum(run[1] for run in factors),
                               max(run[2] for run in factors),
                               sum(run[3] for run in runs.values()),
                               tuple(steppers))


def _conjugate(unitaries: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return unitaries @ rho @ np.swapaxes(unitaries.conj(), -1, -2)


def _step_diagnostics(runs) -> dict:
    """Stepping diagnostics of the propagations of one system's trajectory."""
    return {"step_error": max(r.step_error for r in runs),
            "n_substeps": max(r.n_substeps for r in runs),
            "factors": len(runs[0].dims),
            "steps_computed": sum(r.steps_computed for r in runs),
            "steppers": list(runs[0].steppers)}


def evolve_state(propagator: EffectivePropagator,
                 rho0: DensityMatrix) -> PropagationResult:
    """Conjugate the initial state by each stored unitary."""
    dim = propagator.unitaries.shape[-1]
    if rho0.dim != dim:
        raise ValidationError(
            f"initial state dim {rho0.dim} does not match propagator dim {dim}")
    stack = _conjugate(propagator.unitaries, rho0.data)
    drift = np.trace(stack, axis1=1, axis2=2) - 1
    diag = {"max_trace_drift": float(np.hypot(drift.real, drift.imag).max()),
            **_step_diagnostics([propagator])}
    result = PropagationResult.from_stack(propagator.times, stack, rho0.dims,
                                          diag)
    result.orbits = (result.stack,)
    return result


def propagate_definetti(sys: SystemModel, atoms, rho0: DensityMatrix, grid,
                        step_target: float = DEFAULT_STEP_TARGET
                        ) -> PropagationResult:
    """Convex combination of per-atom propagations.

    atoms: sequence of (weight, EffectivePotential). The trajectory is the
    weighted sum of the individually conjugated states, its orbits; generally
    not a unitary orbit itself.
    """
    atoms = [(float(w), p) for w, p in atoms]
    check_weights([w for w, _ in atoms], "mixture atom weights")
    runs = [propagate_effective(sys, pot, grid, step_target)
            for _, pot in atoms]
    orbits = tuple(_conjugate(run.unitaries, rho0.data) for run in runs)
    acc = sum(w * orbit for (w, _), orbit in zip(atoms, orbits))
    diag = {"atoms": len(atoms), **_step_diagnostics(runs)}
    result = PropagationResult.from_stack(runs[0].times, acc, rho0.dims, diag)
    result.orbits = orbits
    return result


def effective_trajectory(sys: SystemModel, state: ReservoirState,
                         site: SiteModel, rho0: DensityMatrix, grid,
                         step_target: float = DEFAULT_STEP_TARGET
                         ) -> PropagationResult:
    """Limit trajectory of rho0 for any supported reservoir ensemble.

    One limit atom gives a unitary orbit, several the mixture of their
    orbits; the reported step error still bounds step_target.
    """
    atoms = [(w, effective_potential(s, site)) for w, s in limit_atoms(state)]
    if len(atoms) > 1:
        return propagate_definetti(sys, atoms, rho0, grid, step_target)
    return evolve_state(propagate_effective(sys, atoms[0][1], grid,
                                            step_target), rho0)
