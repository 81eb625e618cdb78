"""Limit dynamics of the system: scalar potentials and unitary propagation.

In the infinite-reservoir limit the system evolves under its own Hamiltonian
plus coupling operators weighted by scalar functions of time, each the
single-site expectation of the corresponding evolved interaction operator.
reservoir.site_signals builds those signals from exact mirror pairs, real by
construction and checked exactly per |f| slot; this module integrates the
resulting time-dependent Schrodinger equation with a midpoint-exponential
scheme (order 2, unitary by construction per step). An ensemble's limit is
one unitary group per limit atom, so every limit trajectory is the weighted
mix of the atoms' orbits U rho0 U^dagger, one orbit of weight 1 for a
single atom. One assembly builds it for evolve_state, propagate_definetti
and effective_trajectory alike: it checks rho0's dimension, keeps each
orbit, and reports the same diagnostics for any atom count.

The stepper works on whole arrays, a chunk of grid intervals at a time. A
coupling's signal at the chunk's midpoints comes by angle addition
(QuasiPeriodicSignal.lattice): one phase per interval start times a table of
substep cosines and sines per distinct substep length, built once per pass,
so the transcendental work per point goes away on grids of few distinct
interval lengths. Every step of the chunk is formed at once and each
interval's steps multiplied by a pairwise tree; a log-depth scan chains the
interval products to the grid points. A qubit step is a U(1) phase times an
SU(2) matrix [[a, b], [-b*, a*]]: its Cayley-Klein pair (a, b) is
multiplied as a pair and its phase angle summed, and the two are joined into
unitaries at the grid points only. Other factors step by one stacked eigh.
A qubit factor's bound constants come from Pauli coordinates, and a qubit
propagator's unitarity check and orbits from 2x2 formulas, entry by entry.

Couplings are local to one system factor, so propagate_effective, through
which every limit trajectory goes, steps each distinct factor in one pass
and tensors the results. An a priori bound on the midpoint error (Duhamel's
formula; cf. Hochbruck and Lubich, SIAM J. Numer. Anal. 41, 945 (2003))
fixes the substep count before any step and is the reported step error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import ResourceLimitError, ToleranceError, ValidationError
from .model import SiteModel, SystemModel
from .operators import DensityMatrix, factor_dims, hermitian_spectrum
# QuasiPeriodicSignal is re-exported: callers build potentials from here
from .reservoir import (QuasiPeriodicSignal, ReservoirState, check_weights,
                        limit_atoms, site_signals)
from .results import PropagationResult, time_grid

PROPAGATOR_UNITARY_ATOL = 1e-8
DEFAULT_STEP_TARGET = 1e-7
# Substeps per grid interval, picked or fixed.
MAX_SUBSTEPS = 2 ** 16
# A stepper audit draw's passes, in multiples of substeps; the last, finest,
# is the reference.
AUDIT_PASSES = (1, 2, 32)
# Qubit substeps of a whole stepper audit, count x sum(AUDIT_PASSES) x
# substeps. A draw costs about 0.8 ms at 4 substeps and 1.1 ms at 48 on a
# 2-core host, still mostly fixed cost per call and per draw, so the cap
# bounds an audit to about 95 s at the smallest, 4, and about 11 s at 48.
MAX_AUDIT_SUBSTEPS = 2 ** 24
# Complex entries of steps formed at once: 2 per qubit step, d^2 otherwise.
# Sized for throughput: at 8192 qubit steps a chunk numpy's per-call cost is
# small beside the work; on a 2-core host a limit_dynamics pass took 32, 26,
# 24, 24 and 29 ms at 4096, 8192, 16384, 32768 and 65536.
STEP_CHUNK = 16384


def check_stepper_audit(count: int, substeps: int) -> None:
    """Refuse a stepper audit of count draws at the given substeps whose
    finest pass, AUDIT_PASSES[-1] x substeps, passes MAX_SUBSTEPS, or whose
    draws step more than MAX_AUDIT_SUBSTEPS qubit substeps in all; each
    refusal names its argument."""
    finest, per_draw = AUDIT_PASSES[-1], sum(AUDIT_PASSES)
    if finest * substeps > MAX_SUBSTEPS:
        raise ResourceLimitError(
            f"the finest audit pass, {finest} x {substeps} substeps, exceeds "
            f"the cap of {MAX_SUBSTEPS}", arg="substeps")
    total = count * per_draw * substeps
    if total > MAX_AUDIT_SUBSTEPS:
        raise ResourceLimitError(
            f"{count} draws of {per_draw} x {substeps} substeps step {total}, "
            f"past the cap of {MAX_AUDIT_SUBSTEPS}", arg="count")


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
    return EffectivePotential(site_signals(rho, site))


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
        object.__setattr__(self, "dims",
                           factor_dims(self.dims, unitaries.shape[-1]))
        if not np.isfinite(unitaries).all():
            finite = np.isfinite(unitaries).all(axis=(-2, -1))
            raise ToleranceError(f"unitary at grid point {int(np.argmin(finite))} "
                                 f"has non-finite entries")
        eye = np.eye(unitaries.shape[-1])
        if np.abs(unitaries[0] - eye).max() > 1e-12:
            raise ValidationError("propagator must start from the identity")
        deviations = _unitarity_deviations(unitaries, eye)
        if deviations.max() > PROPAGATOR_UNITARY_ATOL:
            defects = deviations.max(axis=1)
            k = int(np.flatnonzero(defects > PROPAGATOR_UNITARY_ATOL)[0])
            raise ToleranceError(
                f"unitary defect {defects[k]:.2e} at grid point {k} exceeds "
                f"{PROPAGATOR_UNITARY_ATOL}")
        unitaries.setflags(write=False)
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "unitaries", unitaries)


def _unitarity_deviations(u: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """The entries |U^dagger U - I| of each unitary of a (T, d, d) stack,
    one row per unitary; its largest is the unitary's defect. For qubits
    the Gram matrix is summed elementwise over the two rows, in place of a
    stacked matmul of 2x2 matrices."""
    if u.shape[-1] == 2:
        c = u.conj()
        gram = c[:, 0, :, None] * u[:, 0, None, :]
        gram += c[:, 1, :, None] * u[:, 1, None, :]
        gram -= eye
    else:
        gram = np.swapaxes(u.conj(), -1, -2) @ u - eye
    return np.abs(gram).reshape(len(u), -1)


def _orbit(u: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """U rho U^dagger for each unitary of a (T, d, d) stack; for qubits
    both products are summed elementwise over the two columns, in place of
    stacked matmuls of 2x2 matrices."""
    if u.shape[-1] != 2:
        return u @ rho @ np.swapaxes(u.conj(), -1, -2)
    m = u[:, :, 0, None] * rho[0] + u[:, :, 1, None] * rho[1]
    c = u.conj()
    return (m[:, :, None, 0] * c[:, None, :, 0]
            + m[:, :, None, 1] * c[:, None, :, 1])


def _pauli_coords(h: np.ndarray) -> tuple:
    """(mu, vx, vy, vz), floats, with h = mu I + vx X + vy Y + vz Z, h
    Hermitian 2x2."""
    (h00, h01), (h10, h11) = h.tolist()
    return (0.5 * (h00.real + h11.real), 0.5 * (h01.real + h10.real),
            -0.5 * (h01.imag - h10.imag), 0.5 * (h00.real - h11.real))


def _pauli_stack(h_s: np.ndarray, terms) -> np.ndarray:
    """The Pauli coordinates of -h_s and of each -g, shape (1 + couplings,
    4, 1, 1): a qubit pass's generator, formed once for all its chunks and
    negated once here rather than on every step."""
    return -np.array([_pauli_coords(h_s)]
                     + [_pauli_coords(g) for _, g in terms])[..., None, None]


def _cayley_klein_steps(coords: np.ndarray, values, dt: np.ndarray):
    """exp(-i dt H(t)) = exp(-i dt mu) [[a, b], [-b*, a*]] at every qubit
    midpoint t, H = h_s + sum of w(t) g = mu I + v.sigma: the rows [a, b],
    shape dt.shape + (1, 2), and each interval's summed angle -dt mu. coords
    are _pauli_stack's, so the sum is -(mu, v); values holds each coupling's
    signal at the midpoints, of dt's shape (intervals, substeps)."""
    v = coords[0]
    for p, w in zip(coords[1:], values):
        v = v + p * w
    r = np.sqrt(np.square(v[1:]).sum(axis=0))
    angle = dt * r
    # r = 0 leaves a = 1 and b = 0: exactly a pure phase
    sr = np.sin(angle)
    np.divide(sr, r, out=sr, where=r != 0.0)
    rows = np.empty(dt.shape + (4,))
    np.cos(angle, out=rows[..., 0])
    np.multiply(sr, v[:0:-1], out=rows[..., 1:].transpose(2, 0, 1))
    return rows.view(complex)[..., None, :], (dt * v[0]).sum(axis=1)


def _operator_stack(h_s: np.ndarray, terms) -> tuple:
    """h_s and the coupling operators: the generator of a pass by eigh."""
    return h_s, [g for _, g in terms]


def _eigh_steps(operators: tuple, values, dt: np.ndarray):
    """exp(-i dt H(t)) at every midpoint t by one stacked eigh, shape
    dt.shape + (d, d), with no angle split off; operators are
    _operator_stack's and values as for _cayley_klein_steps."""
    h_s, gs = operators
    h = np.broadcast_to(h_s, dt.shape + h_s.shape).copy()
    for g, w in zip(gs, values):
        h += w[..., None, None] * g
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


_QUBIT_STEPPER = ("cayley-klein", _pauli_stack, _cayley_klein_steps,
                  _su2_product, np.eye(1, 2))


def _stepper(d: int):
    """(name, generator, steps, element product, identity element) for
    dimension d."""
    return _QUBIT_STEPPER if d == 2 else (
        "eigh", _operator_stack, _eigh_steps, np.matmul, np.eye(d))


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


def _prefix_products(steps: np.ndarray, product) -> None:
    """steps[k] <- steps[k] ... steps[0], in place, by a log-depth scan:
    log2(n) batched products in place of n - 1 single ones."""
    shift = 1
    while shift < len(steps):
        steps[shift:] = product(steps[shift:], steps[:-shift])
        shift *= 2


def _run_grid(h_s: np.ndarray, terms, grid: np.ndarray, dts: np.ndarray,
              n_sub: int) -> np.ndarray:
    """Unitaries from time zero to each grid point, stacked on axis 0; dts
    are the grid's interval lengths.

    terms pairs each coupling's signal with its full-space operator. A
    signal's substep tables are built once per distinct substep length,
    compared exactly, and reused by every chunk and substep piece; with more
    distinct lengths than a chunk has rows, as on an uneven grid, each chunk
    builds one table per interval instead, so the tables never outgrow a
    chunk. The chunks, the tree and the scan multiply the stepper's
    elements; qubit angles are summed apart and joined to the SU(2) rows at
    the grid points.
    """
    _, generator, steps, product, unit = _stepper(h_s.shape[0])
    ops = generator(h_s, terms)
    n_int = len(dts)
    span = max(1, STEP_CHUNK // unit.size)   # steps formed at once
    sub = min(n_sub, span)                   # substeps per chunk
    rows = max(1, span // n_sub)             # grid intervals per chunk
    hs = dts / n_sub
    # a lone interval has nothing to share: its one chunk builds its table
    shared = n_int > 1
    if shared:
        lengths, which = np.unique(hs, return_inverse=True)
        shared = len(lengths) <= rows
    if shared:
        tables = [sig.substep_tables(lengths, sub) for sig, _ in terms]
    d = h_s.shape[0]
    out = np.empty((len(grid), d, d), dtype=complex)
    elements = out[:, :len(unit)]   # a qubit's SU(2) rows [a, b]
    elements[0] = unit
    angles = np.zeros(len(grid))
    for k0 in range(0, n_int, rows):
        k1 = min(k0 + rows, n_int)
        h = hs[k0:k1]
        if shared:
            index = which[k0:k1]
        else:
            tables = [sig.substep_tables(h, sub) for sig, _ in terms]
            index = slice(None)
        dt = np.empty((len(h), sub))
        dt[:] = h[:, None]
        for j0 in range(0, n_sub, sub):
            count = min(sub, n_sub - j0)
            starts = grid[k0:k1] + j0 * h if j0 else grid[k0:k1]
            values = [sig.lattice(starts, table, index, count)
                      for (sig, _), table in zip(terms, tables)]
            stepped, angle = steps(ops, values, dt[:, :count])
            part = _ordered_product(stepped, product)
            angles[k0 + 1:k1 + 1] += angle
            elements[k0 + 1:k1 + 1] = part if j0 == 0 else product(
                part, elements[k0 + 1:k1 + 1])
    _prefix_products(elements[1:], product)
    if product is not _su2_product:
        return out
    np.conjugate(out[:, 0], out=out[:, 1, ::-1])   # [b*, a*]
    np.negative(out[:, 1, 0], out=out[:, 1, 0])
    return np.multiply(np.exp(1j * angles.cumsum())[:, None, None], out,
                       out=out)


def _qubit_norms(h_s: np.ndarray, gs) -> tuple:
    """The norms of g_c, i[h_s, g_c] and i[g_c, g_c'] on a qubit from Pauli
    coordinates: |mu I + v.sigma| = |mu| + |v| and |i[a.sigma, b.sigma]| =
    2 |a x b|. As with the matrix products they replace, every norm is
    infinite once the products of two generator norms overflow."""
    def cross(p, q):
        return 2 * math.hypot(p[2] * q[3] - p[3] * q[2],
                              p[3] * q[1] - p[1] * q[3],
                              p[1] * q[2] - p[2] * q[1])
    h = _pauli_coords(h_s)
    coords = [_pauli_coords(g) for g in gs]
    g_norm = [abs(p[0]) + math.hypot(p[1], p[2], p[3]) for p in coords]
    total = sum(g_norm)
    if not math.isfinite((abs(h[0]) + math.hypot(h[1], h[2], h[3]) + total)
                         * total):
        inf = [math.inf] * len(gs)
        return inf, inf, [inf] * len(gs)
    return (g_norm, [cross(h, p) for p in coords],
            [[cross(p, q) for q in coords] for p in coords])


def _matrix_norms(h_s: np.ndarray, gs) -> tuple:
    """The norms of g_c, i[h_s, g_c] and i[g_c, g_c'] from one stacked
    hermitian_spectrum, all infinite if a matrix product overflows."""
    gs = np.array(gs)
    m = len(gs)
    pairs = gs[:, None] @ gs[None]
    mats = np.concatenate([gs, 1j * (h_s @ gs - gs @ h_s), 1j * (
        pairs - np.swapaxes(pairs, 0, 1)).reshape((-1,) + h_s.shape)])
    norms = (np.abs(hermitian_spectrum(mats)).max(axis=-1)
             if np.isfinite(mats).all() else np.full(len(mats), np.inf))
    return (norms[:m].tolist(), norms[m:2 * m].tolist(),
            norms[2 * m:].reshape(m, m).tolist())


def _bound_constants(h_s: np.ndarray, terms) -> tuple[float, float]:
    """(C, D) of _step_factor's bound, from the signals' derivative bounds
    s0, s1, s2 and the norms: C = (s1 . |[h_s, g]| + s0 . |[g, g']| s1) / 12
    + s2 . |g| / 24 and D = (s1 . |g|)^2 / 12, summed in floats."""
    if not terms:
        return 0.0, 0.0
    s0, s1, s2 = zip(*(sig.derivative_bounds().tolist() for sig, _ in terms))
    g_norm, h_comm, g_comm = (_qubit_norms if h_s.shape[0] == 2
                              else _matrix_norms)(h_s, [g for _, g in terms])
    commutator = drift = curvature = 0.0
    for j, row in enumerate(g_comm):
        commutator += s1[j] * h_comm[j] + s0[j] * sum(map(mul, row, s1))
        drift += s1[j] * g_norm[j]
        curvature += s2[j] * g_norm[j]
    return commutator / 12 + curvature / 24, drift * drift / 12


@np.errstate(over="ignore", invalid="ignore")   # overflow: refused below
def _step_factor(h_s: np.ndarray, terms, grid: np.ndarray,
                 step_target: float, n_substeps: int | None):
    """(unitaries, step error bound, substeps) of one factor, stepped in one
    pass of n_substeps per interval, or else of n picked before any step.

    By Duhamel's formula, a substep of length h about midpoint m errs by at
    most h^3 (|[H_m, H'_m]|/12 + (h/2) sup|H'| |H'_m|/12 + sup|H''|/24)
    <= h^3 (C + h D / 2), C and D from the signals' derivative bounds and
    the norms of g_c, [h_s, g_c] and [g_c, g_c'] (_bound_constants). The
    flows are unitary, so on intervals dt the errors add up to at most the
    reported bound (C sum(dt^3) + D sum(dt^4) / (2n)) / n^2, and n1 =
    sqrt(sum(dt^3) C / target), n = ceil(sqrt(sum(dt^3) (C + max(dt) D /
    (2 n1)) / target)) meets the target. A non-finite bound, or a count
    past MAX_SUBSTEPS, is refused.
    """
    c, d = _bound_constants(h_s, terms)
    if not math.isfinite(c + d):
        raise ToleranceError(f"midpoint step error bound is {c + d}; the "
                             f"limit generator overflows")
    dt = grid[1:] - grid[:-1]
    cubes = dt ** 3
    total = float(cubes.sum())
    n = n_substeps
    if n is None:
        n1 = max(1.0, math.sqrt(total * c / step_target))
        want = math.sqrt(total * (c + dt.max() * d / (2 * n1)) / step_target)
        if not want <= MAX_SUBSTEPS:
            raise ToleranceError(
                f"midpoint step error bound needs {want:.3g} substeps per "
                f"interval to meet target {step_target:.1e}, past the cap "
                f"of {MAX_SUBSTEPS}")
        n = max(1, math.ceil(want))
    bound = (total * c + float(cubes @ dt) * d / (2 * n)) / (n * n)
    return _run_grid(h_s, terms, grid, dt, n), bound, n


def propagate_effective(sys: SystemModel, potential: EffectivePotential,
                        grid, step_target: float = DEFAULT_STEP_TARGET,
                        n_substeps: int | None = None) -> EffectivePropagator:
    """Integrate the time-dependent system equation over the grid.

    Couplings are local, so each of the n system factors is stepped on its
    own under the shared potential, to step_target / n, and the factor
    unitaries are tensored in factor order. Factors with the same local
    Hamiltonian and the same couplings share one pass; the step error still
    counts each of the n factors. Midpoint-exponential stepping:
    U(t+d) = exp(-i d H(t+d/2)) U(t), each step unitary by construction and
    formed in batches of at most STEP_CHUNK complex entries, the signals at
    a batch's midpoints by angle addition from per-interval phases and
    per-substep tables; n_substeps per interval, or else _step_factor's a
    priori count, at most MAX_SUBSTEPS.
    The step error, the sum of the factor bounds, bounds the product's error
    in operator norm and so in max-abs. The grid obeys results.time_grid,
    has at least two points and starts at 0; step_target is a positive
    finite number. steps_computed counts substeps x intervals of each
    distinct factor's pass, and steppers names each one's stepper.
    """
    grid = time_grid(grid)
    if grid.size < 2:
        raise ValidationError("time grid needs at least two points")
    if abs(grid[0]) > 1e-15:
        raise ValidationError(f"time grid must start at 0, got {grid[0]}")
    if not 0 < step_target < math.inf:
        raise ValidationError(
            f"step target must be a positive finite number, got {step_target}")
    for c in sys.couplings:
        if not 0 <= c.v_index < len(potential.signals):
            raise ValidationError(
                f"coupling wants potential signal {c.v_index}, "
                f"have {len(potential.signals)}")
    if n_substeps is not None:
        if (isinstance(n_substeps, bool)
                or not isinstance(n_substeps, (int, np.integer))):
            raise ValidationError(f"substep count must be an integer, got "
                                  f"{n_substeps!r}")
        n_substeps = int(n_substeps)
        if n_substeps < 1:
            raise ValidationError("substep count must be positive")
        if n_substeps > MAX_SUBSTEPS:
            raise ResourceLimitError(f"{n_substeps} substeps per interval "
                                     f"exceed the cap of {MAX_SUBSTEPS}")
    n = sys.n_subsystems
    runs, factors = {}, []
    for j, h in enumerate(sys.local_h):
        couplings = [(c.v_index, c.g.data) for c in sys.couplings
                     if c.subsystem == j]
        key = (h.data.tobytes(),
               tuple((v, g.tobytes()) for v, g in couplings))
        if key not in runs:
            runs[key] = _step_factor(
                h.data, [(potential.signals[v], g) for v, g in couplings],
                grid, step_target / n, n_substeps)
        factors.append(runs[key])
    parts, bounds, counts = zip(*factors)
    unitaries = parts[0]
    for part in parts[1:]:
        a, b = unitaries.shape[-1], part.shape[-1]
        unitaries = (unitaries[:, :, None, :, None]
                     * part[:, None, :, None, :]
                     ).reshape(len(grid), a * b, a * b)
    distinct = runs.values()
    return EffectivePropagator(
        grid, unitaries, sys.subsystem_dims, sum(bounds), max(counts),
        sum(n for _, _, n in distinct) * (len(grid) - 1),
        tuple(_stepper(u.shape[-1])[0] for u, _, _ in distinct))


def _check_initial_state(rho0: DensityMatrix, dim: int) -> None:
    """Refuse an initial state that propagators of dimension dim cannot act
    on: the rule every limit path checks before any stepping."""
    if rho0.dim != dim:
        raise ValidationError(
            f"initial state dim {rho0.dim} does not match propagator dim {dim}")


def _limit_result(runs, weights, rho0: DensityMatrix) -> PropagationResult:
    """The limit trajectory of rho0 that mixes the orbits U rho0 U^dagger of
    the propagators runs with the given weights, in order; a lone orbit is
    the trajectory itself. Diagnostics: atoms, max_trace_drift and the
    stepping of the runs (largest step error and substep count, factors,
    summed steps computed, steppers). Callers have checked rho0's dimension
    with _check_initial_state."""
    orbits = [_orbit(r.unitaries, rho0.data) for r in runs]
    stack = orbits[0] if len(runs) == 1 else sum(
        w * orbit for w, orbit in zip(weights, orbits))
    drift = np.trace(stack, axis1=1, axis2=2) - 1
    diag = {"atoms": len(runs),
            "max_trace_drift": float(np.hypot(drift.real, drift.imag).max()),
            "step_error": max(r.step_error for r in runs),
            "n_substeps": max(r.n_substeps for r in runs),
            "factors": len(runs[0].dims),
            "steps_computed": sum(r.steps_computed for r in runs),
            "steppers": list(runs[0].steppers)}
    result = PropagationResult.from_stack(runs[0].times, stack, rho0.dims, diag)
    result.orbits = (result.stack,) if len(runs) == 1 else tuple(orbits)
    return result


def evolve_state(propagator: EffectivePropagator,
                 rho0: DensityMatrix) -> PropagationResult:
    """The unitary orbit of rho0 under one propagator: a one-atom limit
    result, with the diagnostics of every limit result."""
    _check_initial_state(rho0, propagator.unitaries.shape[-1])
    return _limit_result([propagator], [1.0], rho0)


def propagate_definetti(sys: SystemModel, atoms, rho0: DensityMatrix, grid,
                        step_target: float = DEFAULT_STEP_TARGET
                        ) -> PropagationResult:
    """Convex combination of per-atom propagations.

    atoms: sequence of (weight, EffectivePotential), the weights a
    distribution. Each atom is stepped once; the trajectory is the weighted
    sum of the orbits, generally not a unitary orbit itself, and keeps them
    as orbits. One atom gives its orbit.
    """
    atoms = list(atoms)
    weights = [float(w) for w, _ in atoms]
    check_weights(weights, "mixture atom weights")
    _check_initial_state(rho0, sys.dim)
    return _limit_result([propagate_effective(sys, pot, grid, step_target)
                          for _, pot in atoms], weights, rho0)


def effective_trajectory(sys: SystemModel, state: ReservoirState,
                         site: SiteModel, rho0: DensityMatrix, grid,
                         step_target: float = DEFAULT_STEP_TARGET
                         ) -> PropagationResult:
    """Limit trajectory of rho0 for any supported reservoir ensemble: the
    mixture of its limit atoms' orbits through propagate_definetti, a
    unitary orbit for a single atom. The reported step error is the largest
    atom's a priori bound, at most step_target."""
    return propagate_definetti(
        sys, [(w, effective_potential(s, site)) for w, s in limit_atoms(state)],
        rho0, grid, step_target)
