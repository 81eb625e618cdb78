"""Metrics, convergence sweeps, spectral studies, and overlap decay.

Entanglement is measured by negativity (general bipartitions).
finite_and_limit produces the limit trajectory and the finite-size ones
over a list of reservoir sizes, mapped over worker threads; every
propagation experiment and convergence sweep starts from it, each
coupling's interaction on one site or on nu. The spectral half runs
second-order finite differences on one ladder of nested grids, each halving the
spacing: a bound-state counter checked under one refinement, and a
Richardson-extrapolated half-line solver for a linear potential. The radial
overlap uses Filon's rule, one panel ladder for the whole time grid. The
square-well, Stark, Gaussian and bump problems that configs name are built
by constructors here, which own their rules; a rule on one argument names
it in the ValidationError's arg.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureError, ToleranceError, ValidationError
from .exact import FiniteMRun, propagate_exact
from .effective import DEFAULT_STEP_TARGET, effective_trajectory
from .model import SiteModel, SystemModel
from .operators import (HERMITIAN_RTOL, DensityMatrix, Operator,
                        hermitian_defect, hermitian_spectrum)
from .results import PropagationResult


def trace_distance(rho, sigma):
    """Half the trace norm of the difference; a metric on density matrices.

    The difference of two density matrices is Hermitian, so its trace norm
    is the sum of its absolute eigenvalues, from operators.hermitian_spectrum:
    the closed form for qubits, else one eigvalsh. Two (T, d, d) stacks
    give the distance at each of the T indices. The spectrum is read from
    one triangle only, so raw arrays must be finite and their difference
    Hermitian within HERMITIAN_RTOL of their largest entry; DensityMatrix
    inputs are checked at construction, and a pair of qubit ones takes the
    closed form in Python floats, with the same bits as a stack of them.
    """
    if (isinstance(rho, DensityMatrix) and isinstance(sigma, DensityMatrix)
            and rho.dim == sigma.dim == 2):
        (a00, _), (a10, a11) = rho.data.tolist()
        (b00, _), (b10, b11) = sigma.data.tolist()
        p, q = 0.5 * (a00.real - b00.real), 0.5 * (a11.real - b11.real)
        # abs of a complex calls C hypot, as np.hypot does in
        # hermitian_spectrum, so a stack of the pair gives the same bits
        mean, radius = p + q, abs(complex(p - q, abs(a10 - b10)))
        return 0.5 * (abs(mean - radius) + abs(mean + radius))
    a, b = (x.data if isinstance(x, DensityMatrix)
            else np.asarray(x, dtype=complex) for x in (rho, sigma))
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch {a.shape} vs {b.shape}")
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValidationError(
            f"expected a square matrix or a stack of them, got {a.shape}")
    raw = not (isinstance(rho, DensityMatrix)
               and isinstance(sigma, DensityMatrix))
    if raw and not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValidationError("trace distance of non-finite matrices")
    diff = a - b
    if raw and hermitian_defect(diff, max(np.abs(a).max(),
                                          np.abs(b).max())) > HERMITIAN_RTOL:
        raise ValidationError("trace distance of non-Hermitian matrices")
    dist = 0.5 * np.abs(hermitian_spectrum(diff)).sum(axis=-1)
    return float(dist) if diff.ndim == 2 else dist


def _normalize_split(dims: tuple[int, ...], transpose) -> tuple[int, ...]:
    if isinstance(transpose, (int, np.integer)):
        transpose = (int(transpose),)
    split = tuple(int(i) for i in transpose)
    if len(dims) < 2:
        raise ValidationError("negativity needs at least two declared factors")
    if not split:
        raise ValidationError("empty transpose subset does not define a split")
    if len(set(split)) != len(split):
        raise ValidationError(f"transpose subset {split} has repeats")
    if any(not 0 <= i < len(dims) for i in split):
        raise ValidationError(
            f"transpose subset {split} outside factors 0..{len(dims) - 1}")
    if len(split) == len(dims):
        raise ValidationError(
            "transposing every factor is the full transpose, not a split")
    return split


def _partial_transpose(data: np.ndarray, dims: tuple[int, ...],
                       transpose) -> np.ndarray:
    """Partial transpose of a matrix, or of each matrix of a (T, d, d) stack."""
    split = _normalize_split(dims, transpose)
    k, lead = len(dims), data.shape[:-2]
    tensor = data.reshape(lead + dims + dims)
    perm = list(range(2 * k))
    for i in split:
        perm[i], perm[k + i] = perm[k + i], perm[i]
    n = len(lead)
    return tensor.transpose(list(range(n)) + [n + p for p in perm]).reshape(
        data.shape)


def _negativities(data: np.ndarray, dims: tuple[int, ...], transpose):
    ev = np.linalg.eigvalsh(_partial_transpose(data, dims, transpose))
    return -np.where(ev < 0, ev, 0.0).sum(axis=-1)


def negativity(rho: DensityMatrix, transpose) -> float:
    """Sum of |negative eigenvalues| of the partial transpose.

    transpose names the factor indices flipped; together with the rest they
    define the bipartition. Invariant under unitaries local to either side.
    """
    return float(_negativities(rho.data, rho.dims, transpose))


@dataclass(frozen=True)
class SweepRow:
    m_count: int
    gap: float
    ratio: float
    diagnostics: dict = field(default_factory=dict, compare=False)
    gaps: np.ndarray | None = field(default=None, compare=False, repr=False)


def _check_m_list(m_list) -> list[int]:
    if not all(isinstance(m, (int, np.integer)) and not isinstance(m, bool)
               for m in m_list):
        raise ValidationError(f"M list entries must be integers: {m_list}")
    m_list = [int(m) for m in m_list]
    if not m_list:
        raise ValidationError("M list is empty")
    if any(m < 1 for m in m_list):
        raise ValidationError("M list entries must be positive")
    if any(a >= b for a, b in zip(m_list, m_list[1:])):
        raise ValidationError("M list must be strictly increasing")
    return m_list


def finite_and_limit(sys: SystemModel, site: SiteModel, reservoir_state,
                     rho0: DensityMatrix, grid, m_list, threads: int = 1,
                     step_target: float = DEFAULT_STEP_TARGET
                     ) -> tuple[PropagationResult, list[PropagationResult]]:
    """(limit trajectory, [finite-size trajectory per M]) on one grid, the
    finite-size runs mapped over that many worker threads.

    A coupling whose interaction acts on nu sites averages it over ordered
    nu-tuples of distinct sites; in the limit such a tuple meets the nu-fold
    product of a limit atom, which reservoir.site_signals builds its signal
    from, whatever the other couplings' nu.
    """
    m_list = _check_m_list(m_list)
    if threads < 1:
        raise ValidationError("threads must be >= 1")
    grid = np.asarray(grid, dtype=float)
    runs = [FiniteMRun(sys, site, m, reservoir_state, rho0, grid)
            for m in m_list]
    limit = effective_trajectory(sys, reservoir_state, site, rho0, grid,
                                 step_target=step_target)
    if threads == 1:
        return limit, [propagate_exact(run) for run in runs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return limit, list(pool.map(propagate_exact, runs))


def sweep_rows(m_list, limit: PropagationResult,
               finite: list[PropagationResult]) -> list[SweepRow]:
    """Per reservoir size, the trace distance of its finite trajectory to the
    limit one at each grid point (gaps) and its max over the grid (gap), the
    ratio of that max to the previous row's, and a copy of the diagnostics
    its finite-size run reports."""
    dists = [trace_distance(r.stack, limit.stack) for r in finite]
    gaps = [d.max() for d in dists]
    ratios = [math.nan] + [b / a for a, b in zip(gaps, gaps[1:])]
    return [SweepRow(m_count=int(m), gap=float(g), ratio=float(q),
                     diagnostics=dict(r.diagnostics), gaps=d)
            for m, g, q, r, d in zip(m_list, gaps, ratios, finite, dists)]


def m_sweep(sys: SystemModel, site: SiteModel, reservoir_state,
            rho0: DensityMatrix, grid, m_list, threads: int = 1,
            step_target: float = DEFAULT_STEP_TARGET) -> list[SweepRow]:
    """Convergence table over reservoir sizes against the limit trajectory
    of the reservoir ensemble (see sweep_rows for the columns)."""
    return sweep_rows(m_list, *finite_and_limit(
        sys, site, reservoir_state, rho0, grid, m_list, threads=threads,
        step_target=step_target))


def negativity_trajectory(result: PropagationResult, transpose) -> np.ndarray:
    """negativity at every grid point, from one stacked eigvalsh."""
    return _negativities(result.stack, result.dims, transpose)


def cluster_sweep(sys: SystemModel, site: SiteModel, v: Operator,
                  reservoir_state, rho0: DensityMatrix, grid, m_list,
                  threads: int = 1,
                  step_target: float = DEFAULT_STEP_TARGET) -> list[SweepRow]:
    """m_sweep on the site whose one interaction is v, an operator on nu
    sites that every coupling averages over ordered nu-tuples of them."""
    return m_sweep(sys, SiteModel(site.h, (v,)), reservoir_state, rho0, grid,
                   m_list, threads=threads, step_target=step_target)


# Finite-difference spectral studies on an interval.

@dataclass(frozen=True)
class SpectralProblem:
    """Dirichlet second-derivative operator plus a potential on an interval.

    half_line selects [0, x_max]; otherwise the domain is [-x_max, x_max].
    potential must be a vectorized real-valued callable.
    """

    x_max: float
    potential: object
    n_grid: int = 400
    half_line: bool = False

    def __post_init__(self):
        if not self.x_max > 0:
            raise ValidationError("x_max must be positive", arg="x_max")
        if self.n_grid < 64:
            raise ValidationError("grid size must be at least 64",
                                  arg="n_grid")
        if not callable(self.potential):
            raise ValidationError("potential must be callable")
        # h^2 and 1/h^2 stay finite and nonzero on the rungs up to 4n + 3
        coarse = self.spacing(self.n_grid)
        fine = self.spacing(4 * self.n_grid + 3)
        if not (0.0 < coarse * coarse < math.inf
                and 0.0 < fine * fine and 1.0 / (fine * fine) < math.inf):
            raise ValidationError(
                f"x_max {self.x_max} on {self.n_grid} points gives a grid "
                f"spacing whose square leaves the float range")

    def spacing(self, n: int) -> float:
        """Grid spacing with n interior points."""
        return (self.x_max if self.half_line else 2.0 * self.x_max) / (n + 1)

    def grid_points(self, n: int) -> tuple[np.ndarray, float]:
        lo = 0.0 if self.half_line else -self.x_max
        h = self.spacing(n)
        return lo + h * np.arange(1, n + 1), h

    def sample_potential(self, x: np.ndarray) -> np.ndarray:
        w = np.asarray(self.potential(x))
        if np.iscomplexobj(w):
            if np.max(np.abs(w.imag)) > 0:
                raise ValidationError("potential samples must be real")
            w = w.real
        if w.shape != x.shape:
            raise ValidationError(
                f"potential returned shape {w.shape} for grid {x.shape}")
        if not np.all(np.isfinite(w)):
            raise ValidationError("potential samples must be finite")
        return w.astype(float)


def _ladder(problem: SpectralProblem, rungs: int, select) -> list:
    """Eigenvalues of the finite-difference operator on nested grids of
    n, 2n+1, 4n+3, ... interior points (each halving the spacing), rungs of
    them from n = problem.n_grid. select(x, w) gives eigh_tridiagonal's
    select and select_range on grid points x with potential samples w."""
    from scipy.linalg import eigh_tridiagonal  # lazy: scipy is slow to import
    out, n = [], problem.n_grid
    for _ in range(rungs):
        x, h = problem.grid_points(n)
        w = problem.sample_potential(x)
        kind, bounds = select(x, w)
        try:
            out.append(eigh_tridiagonal(
                2.0 / h ** 2 + w, np.full(n - 1, -1.0 / h ** 2), select=kind,
                select_range=bounds, eigvals_only=True))
        except np.linalg.LinAlgError as exc:
            raise ToleranceError(f"tridiagonal eigensolver failed on the "
                                 f"{n}-point grid: {exc}") from exc
        n = 2 * n + 1
    return out


def bound_state_count(problem: SpectralProblem,
                      threshold=None) -> tuple[int, np.ndarray]:
    """Eigenvalues below the essential-spectrum proxy (or an explicit
    threshold), counted by second-order finite differences.

    The proxy is the potential floor on the outer quarter of the domain,
    where a localized state would have decayed. The count must agree between
    the declared grid and the nested grid with halved spacing (2n+1 interior
    points); the finer eigenvalues are returned.
    """
    def below(x, w):
        outer = np.abs(x) > 0.75 * problem.x_max
        cut = float(w[outer].min()) if threshold is None else float(threshold)
        return "v", (float(w.min()) - 1.0, cut)

    coarse, fine = _ladder(problem, 2, below)
    if len(coarse) != len(fine):
        raise ToleranceError(
            f"bound-state count changed from {len(coarse)} to {len(fine)} "
            f"under grid doubling; resolution insufficient")
    return len(fine), fine


def well_problem(depth: float, width: float, x_max: float,
                 n_grid: int = 400, half_line: bool = True) -> SpectralProblem:
    """Square well of the given depth on [0, width] of the half line, or on
    [-width/2, width/2] of the full line, inside the domain of x_max."""
    if not depth > 0:
        raise ValidationError(f"well depth must be positive, got {depth}",
                              arg="depth")
    edge = width if half_line else width / 2
    problem = SpectralProblem(x_max, lambda x: np.where(
        np.abs(x) <= edge, -depth, 0.0), n_grid, half_line)
    if not 0 < width < x_max:
        raise ValidationError(f"width must sit inside the domain, got width "
                              f"{width} with x_max {x_max}")
    return problem


def stark_problem(slope: float, n_levels: int,
                  n_grid: int = 1600) -> SpectralProblem:
    """Dirichlet half-line problem with potential slope * x for the lowest
    n_levels eigenvalues. The domain length scales with slope**(-1/3) so
    those levels sit well inside their classical turning points."""
    if not slope > 0:
        raise ValidationError("slope must be positive", arg="slope")
    if not 1 <= n_levels <= n_grid:
        raise ValidationError(f"need 1 to n_grid = {n_grid} levels, got "
                              f"{n_levels}", arg="n_levels")
    x_max = ((3.0 * np.pi * (4 * n_levels + 5) / 8.0) ** (2.0 / 3.0) + 8.0) \
        * slope ** (-1.0 / 3.0)
    return SpectralProblem(x_max, lambda x: slope * x, n_grid, half_line=True)


def stark_halfline_spectrum(slope: float, n_levels: int, n_grid: int = 1600,
                            rel_tol: float = 1e-4) -> np.ndarray:
    """Lowest eigenvalues of stark_problem, by finite differences on three
    nested grids with one Richardson extrapolation step per pair."""
    problem = stark_problem(slope, n_levels, n_grid)
    e1, e2, e3 = _ladder(problem, 3, lambda x, w: ("i", (0, n_levels - 1)))
    r1, r2 = (4.0 * e2 - e1) / 3.0, (4.0 * e3 - e2) / 3.0
    drift = np.max(np.abs(r2 - r1) / np.abs(r2))
    if drift > rel_tol:
        raise ToleranceError(
            f"Richardson extrapolants moved by {drift:.2e} > {rel_tol}; "
            f"spectrum not converged")
    return r2


# Oscillatory radial overlap.

BASE_PANELS = 64
# Complex entries per block of (times x panels) Filon phases.
OVERLAP_CHUNK = 1 << 14


@dataclass(frozen=True)
class FieldOverlapSpec:
    """Radial data for the one-excitation overlap integral.

    f_prime and h_prime are the radial profile callables; the linear
    dispersion in three dimensions reduces the overlap to
    int_0^r_max r^2 conj(h'(r)) f'(r) e^{irt} dr.
    """

    f_prime: object
    h_prime: object
    r_max: float

    def __post_init__(self):
        if not (callable(self.f_prime) and callable(self.h_prime)):
            raise ValidationError("profiles must be callable")
        if not self.r_max > 0:
            raise ValidationError("r_max must be positive", arg="r_max")
        r = np.linspace(0.0, self.r_max, 257)
        for name, prof in (("f_prime", self.f_prime), ("h_prime", self.h_prime)):
            # an overflow here is what the checks report
            with np.errstate(over="ignore", invalid="ignore"):
                vals = np.asarray(prof(r), dtype=complex)
                if vals.shape != r.shape or not np.all(np.isfinite(vals)):
                    raise ValidationError(
                        f"{name} must be finite on the grid")
                norm = np.trapezoid(np.abs(vals) ** 2 * r * r, r)
            if not np.isfinite(norm):
                raise ValidationError(f"{name} has no finite discrete norm")

    def amplitude(self, r: np.ndarray) -> np.ndarray:
        return r * r * np.conj(np.asarray(self.h_prime(r), dtype=complex)) \
            * np.asarray(self.f_prime(r), dtype=complex)


def gaussian_overlap(scale: float, r_max: float) -> FieldOverlapSpec:
    """Profiles f' = scale e^{-r^2} and h' = e^{-r^2} on [0, r_max]."""
    if scale == 0:
        raise ValidationError("scale must be nonzero", arg="scale")
    return FieldOverlapSpec(lambda r: scale * np.exp(-np.asarray(r) ** 2),
                            lambda r: np.exp(-np.asarray(r) ** 2), r_max)


def bump_overlap(center: float, halfwidth: float,
                 r_max: float) -> FieldOverlapSpec:
    """Both profiles the smooth bump exp(-1 / (1 - u^2)) of u = (r - center)
    / halfwidth, zero for |u| >= 1; that support must lie in [0, r_max]."""
    if not halfwidth > 0:
        raise ValidationError("bump halfwidth must be positive",
                              arg="halfwidth")
    if center - halfwidth < 0:
        raise ValidationError("bump support crosses r = 0")
    if center + halfwidth > r_max:
        raise ValidationError("bump support exceeds r_max")

    def bump(r):
        # an overflow to +-inf lies outside the support like any |u| >= 1
        with np.errstate(over="ignore"):
            u = (np.asarray(r, dtype=float) - center) / halfwidth
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
        return out

    return FieldOverlapSpec(bump, bump, r_max)


def _filon_weights(theta: np.ndarray) -> np.ndarray:
    """(..., 3) weights of the left, middle and right node samples in
    int_{-1}^{1} p(s) e^{i theta s} ds, p the quadratic through them."""
    small = np.abs(theta) < 0.1
    # the closed forms on large arguments, the series on small ones only,
    # so that neither branch overflows where the other is taken
    t, ts = np.where(small, 1.0, theta), np.where(small, theta, 0.0)
    s, c, t2 = np.sin(t), np.cos(t), ts * ts
    # m_k = int s^k e^{i theta s} ds; the series keep the relative
    # truncation error below 1e-12 at the switch
    m0 = 2.0 * np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0
                        - t2 * t2 * t2 / 5040.0, s / t)
    m1 = 2.0j * np.where(small, ts * (1.0 / 3.0 - t2 / 30.0
                                      + t2 * t2 / 840.0), s / t ** 2 - c / t)
    m2 = 2.0 * np.where(small, 1.0 / 3.0 - t2 / 10.0 + t2 * t2 / 168.0
                        - t2 * t2 * t2 / 6480.0,
                        (t ** 2 - 2.0) * s / t ** 3 + 2.0 * c / t ** 2)
    return np.stack([(m2 - m1) / 2.0, m0 - m2, (m2 + m1) / 2.0], axis=-1)


def overlap_times(spec: FieldOverlapSpec, times) -> np.ndarray:
    """times as a 1d float array, refused unless every time is nonnegative
    and the largest Filon argument, at BASE_PANELS, keeps its cube (the
    highest power _filon_weights takes) in the float range."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0):
        raise ValidationError("times must be >= 0", arg="times")
    theta = float(times.max(initial=0.0)) * 0.5 * spec.r_max / BASE_PANELS
    if not theta * theta * theta < math.inf:
        raise ValidationError(
            f"time {times.max():g} on r_max {spec.r_max:g} gives the Filon "
            f"argument {theta:.3e}, whose cube leaves the float range",
            arg="times")
    return times


def _filon_sums(spec: FieldOverlapSpec, times: np.ndarray,
                n_panels: int) -> np.ndarray:
    """Filon sums on n equal panels at every time: the amplitude sampled
    once at the 2n+1 nodes, the three node weights one row per time."""
    nodes = np.linspace(0.0, spec.r_max, 2 * n_panels + 1)
    g = spec.amplitude(nodes)
    samples = np.stack([g[0:-1:2], g[1::2], g[2::2]], axis=1)
    half = 0.5 * spec.r_max / n_panels
    weights = _filon_weights(times * half)
    sums = np.empty(times.shape, dtype=complex)
    step = max(1, OVERLAP_CHUNK // n_panels)
    for lo in range(0, len(times), step):
        chunk = slice(lo, lo + step)
        phase = np.exp(1j * np.outer(times[chunk], nodes[1::2]))
        sums[chunk] = ((phase @ samples) * weights[chunk]).sum(axis=1)
    return half * sums


def field_overlap_decay(spec: FieldOverlapSpec, times,
                        tol: float = 1e-7,
                        max_panels: int = 16384) -> np.ndarray:
    """Squared modulus of the oscillatory radial overlap on a time grid.

    Filon's rule integrates e^{irt} exactly against the piecewise-quadratic
    interpolant of the amplitude, so its error bound does not grow with t and
    one panel count serves every time: from BASE_PANELS it doubles until, at
    every time, successive sums agree to tol on the complex amplitude.
    """
    times = overlap_times(spec, times)
    n, prev = BASE_PANELS, _filon_sums(spec, times, BASE_PANELS)
    while True:
        n *= 2
        cur = _filon_sums(spec, times, n)
        moved = np.abs(cur - prev)
        if moved.max(initial=0.0) <= tol:
            return np.abs(cur) ** 2
        if n >= max_panels:
            worst = np.argmax(moved)
            raise QuadratureError(
                f"overlap quadrature still moving {moved[worst]:.2e} "
                f"> {tol} at {n} panels (t={times[worst]:g})")
        prev = cur
