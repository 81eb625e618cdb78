"""Metrics, convergence sweeps, spectral studies, and overlap decay.

Entanglement is measured by negativity (general bipartitions) with the
two-qubit concurrence closed form as a cross-check. Convergence sweeps
tabulate the gap between finite-size and limit trajectories over a list of
reservoir sizes, mapped over worker threads. The spectral half supplies a
second-order finite-difference bound-state counter with a grid-doubling
guard, a Richardson-extrapolated half-line solver for a linear potential,
and the radial overlap by Filon's rule, one ladder for the whole time grid.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureError, ToleranceError, ValidationError
from .exact import FiniteMRun, propagate_exact
from .effective import DEFAULT_STEP_TARGET, effective_trajectory
from .matio import atomic_write_text
from .model import (ClusterInteraction, SiteModel, SystemModel,
                    check_cluster_system)
from .operators import DensityMatrix, Operator, embed_at_site, trace_norm
from .reservoir import DeFinettiMixture, kron_power, limit_atoms
from .results import PropagationResult


def trace_distance(rho, sigma):
    """Half the trace norm of the difference; a metric on density matrices.

    Two (T, d, d) stacks give the distance at each of the T indices.
    """
    a = rho.data if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    b = sigma.data if isinstance(sigma, DensityMatrix) else np.asarray(sigma, dtype=complex)
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch {a.shape} vs {b.shape}")
    return 0.5 * trace_norm(a - b)


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


def partial_transpose(rho: DensityMatrix, transpose) -> np.ndarray:
    return _partial_transpose(rho.data, rho.dims, transpose)


def _negativities(data: np.ndarray, dims: tuple[int, ...], transpose):
    ev = np.linalg.eigvalsh(_partial_transpose(data, dims, transpose))
    return -np.where(ev < 0, ev, 0.0).sum(axis=-1)


def negativity(rho: DensityMatrix, transpose) -> float:
    """Sum of |negative eigenvalues| of the partial transpose.

    transpose names the factor indices flipped; together with the rest they
    define the bipartition. Invariant under unitaries local to either side.
    """
    return float(_negativities(rho.data, rho.dims, transpose))


_SPIN_FLIP = np.array([[0, 0, 0, -1],
                       [0, 0, 1, 0],
                       [0, 1, 0, 0],
                       [-1, 0, 0, 0]], dtype=complex)


def concurrence(rho: DensityMatrix) -> float:
    """Two-qubit closed form: max(0, l1 - l2 - l3 - l4) with li the sorted
    square roots of the spin-flipped product's eigenvalues."""
    if rho.dims != (2, 2):
        raise ValidationError(
            f"concurrence is a two-qubit closed form, got factors {rho.dims}")
    flipped = _SPIN_FLIP @ rho.data.conj() @ _SPIN_FLIP
    lam = np.linalg.eigvals(rho.data @ flipped)
    roots = np.sqrt(np.clip(lam.real, 0.0, None))
    roots[::-1].sort()
    return float(max(0.0, roots[0] - roots[1:].sum()))


@dataclass(frozen=True)
class SweepRow:
    m_count: int
    gap: float
    ratio: float
    diagnostics: dict = field(default_factory=dict, compare=False)


def _check_m_list(m_list) -> list[int]:
    m_list = [int(m) for m in m_list]
    if not m_list:
        raise ValidationError("M list is empty")
    if any(m < 1 for m in m_list):
        raise ValidationError("M list entries must be positive")
    if any(a >= b for a, b in zip(m_list, m_list[1:])):
        raise ValidationError("M list must be strictly increasing")
    return m_list


def thread_map(fn, items, threads: int = 1) -> list:
    """[fn(x) for x in items], on that many worker threads when above one."""
    if threads < 1:
        raise ValidationError("threads must be >= 1")
    if threads == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _sweep_rows(runs, limit: PropagationResult,
                threads: int = 1) -> list[SweepRow]:
    """Per finite-size run, the max-over-grid trace distance to the limit
    trajectory, the ratio to the previous row, and the solver's path,
    sector count and size, mass defect and norm drift."""
    def gap_for(run: FiniteMRun):
        finite = propagate_exact(run)
        gap = trace_distance(finite.stack, limit.stack).max()
        keep = ("path", "sectors", "max_sector_dim", "branch_mass_defect",
                "max_norm_drift")
        return gap, {k: finite.diagnostics[k] for k in keep}

    rows = []
    prev = None
    for run, (g, diag) in zip(runs, thread_map(gap_for, runs, threads)):
        ratio = math.nan if prev is None else g / prev
        rows.append(SweepRow(m_count=run.m_count, gap=float(g),
                             ratio=float(ratio), diagnostics=diag))
        prev = g
    return rows


def m_sweep(sys: SystemModel, site: SiteModel, reservoir_state,
            rho0: DensityMatrix, grid, m_list, threads: int = 1,
            step_target: float = DEFAULT_STEP_TARGET) -> list[SweepRow]:
    """Convergence table over reservoir sizes against the limit trajectory
    of the reservoir ensemble (see _sweep_rows for the columns)."""
    m_list = _check_m_list(m_list)
    grid = np.asarray(grid, dtype=float)
    runs = [FiniteMRun(sys, site, m, reservoir_state, rho0, grid)
            for m in m_list]
    limit = effective_trajectory(sys, reservoir_state, site, rho0, grid,
                                 step_target=step_target)
    return _sweep_rows(runs, limit, threads)


def negativity_trajectory(result: PropagationResult, transpose) -> np.ndarray:
    """negativity at every grid point, from one stacked eigvalsh."""
    return _negativities(result.stack, result.dims, transpose)


def cluster_sweep(sys: SystemModel, site: SiteModel, cluster: ClusterInteraction,
                  reservoir_state, rho0: DensityMatrix, grid, m_list,
                  threads: int = 1,
                  step_target: float = DEFAULT_STEP_TARGET) -> list[SweepRow]:
    """Convergence table when the coupling averages a joint operator over
    every ordered subset of cluster.nu reservoir sites.

    In the limit a nu-tuple of distinct sites meets the nu-fold product of
    a limit atom, so the limit is that of nu-site blocks in the mixture of
    the atoms' nu-fold products. The finite-size rows come from
    propagate_exact with the cluster coupling, as in m_sweep.
    """
    m_list = _check_m_list(m_list)
    check_cluster_system(sys)
    grid = np.asarray(grid, dtype=float)
    runs = [FiniteMRun(sys, site, m, reservoir_state, rho0, grid, cluster)
            for m in m_list]
    nu = cluster.nu
    h_block = sum(embed_at_site(site.h, j, nu).data for j in range(1, nu + 1))
    block_site = SiteModel(Operator(h_block, cluster.v_cluster.dims),
                           (cluster.v_cluster,))
    blocks = DeFinettiMixture(tuple(
        (w, DensityMatrix(kron_power(s.data, nu), (s.dim,) * nu))
        for w, s in limit_atoms(reservoir_state)))
    limit = effective_trajectory(sys, blocks, block_site, rho0, grid,
                                 step_target=step_target)
    return _sweep_rows(runs, limit, threads)


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
        if self.x_max <= 0:
            raise ValidationError("x_max must be positive")
        if self.n_grid < 64:
            raise ValidationError("grid size must be at least 64")
        if not callable(self.potential):
            raise ValidationError("potential must be callable")

    def grid_points(self, n: int | None = None) -> tuple[np.ndarray, float]:
        n = self.n_grid if n is None else n
        lo = 0.0 if self.half_line else -self.x_max
        h = (self.x_max - lo) / (n + 1)
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


def _eigs_below(problem: SpectralProblem, n: int, threshold) -> tuple[np.ndarray, float]:
    from scipy.linalg import eigh_tridiagonal  # lazy: scipy is slow to import
    x, h = problem.grid_points(n)
    w = problem.sample_potential(x)
    # essential-spectrum proxy: the potential floor on the outer quarter of
    # the domain, where a localized state would have decayed
    outer = np.abs(x) > 0.75 * problem.x_max if not problem.half_line \
        else x > 0.75 * problem.x_max
    proxy = float(w[outer].min())
    cut = proxy if threshold is None else float(threshold)
    diag = 2.0 / h ** 2 + w
    off = np.full(n - 1, -1.0 / h ** 2)
    ev = eigh_tridiagonal(diag, off, select="v",
                          select_range=(float(w.min()) - 1.0, cut),
                          eigvals_only=True)
    return ev, cut


def bound_state_count(problem: SpectralProblem,
                      threshold=None) -> tuple[int, np.ndarray]:
    """Eigenvalues below the essential-spectrum proxy (or an explicit
    threshold), counted by second-order finite differences.

    The count must agree between the declared grid and the nested grid with
    halved spacing (2n+1 interior points); the finer eigenvalues are
    returned.
    """
    coarse, _ = _eigs_below(problem, problem.n_grid, threshold)
    fine, cut = _eigs_below(problem, 2 * problem.n_grid + 1, threshold)
    if len(coarse) != len(fine):
        raise ToleranceError(
            f"bound-state count changed from {len(coarse)} to {len(fine)} "
            f"under grid doubling; resolution insufficient")
    return len(fine), fine


def stark_halfline_spectrum(slope: float, n_levels: int,
                            n_grid: int = 1600,
                            rel_tol: float = 1e-4) -> np.ndarray:
    """Lowest eigenvalues of the Dirichlet half-line operator with a linear
    potential, by finite differences with one Richardson extrapolation step.

    The domain length scales with slope**(-1/3) so the requested levels sit
    well inside their classical turning points.
    """
    from scipy.linalg import eigh_tridiagonal  # lazy: scipy is slow to import
    if slope <= 0:
        raise ValidationError("slope must be positive")
    if n_levels < 1:
        raise ValidationError("need at least one level")
    if n_grid < 64:
        raise ValidationError("grid size must be at least 64")
    x_max = ((3.0 * np.pi * (4 * n_levels + 5) / 8.0) ** (2.0 / 3.0) + 8.0) \
        * slope ** (-1.0 / 3.0)

    def levels(n: int) -> np.ndarray:
        h = x_max / (n + 1)
        x = h * np.arange(1, n + 1)
        return eigh_tridiagonal(2.0 / h ** 2 + slope * x,
                                np.full(n - 1, -1.0 / h ** 2),
                                select="i", select_range=(0, n_levels - 1),
                                eigvals_only=True)

    # nested refinements halve the spacing exactly, n -> 2n+1
    e1, e2, e3 = levels(n_grid), levels(2 * n_grid + 1), levels(4 * n_grid + 3)
    r1 = (4.0 * e2 - e1) / 3.0
    r2 = (4.0 * e3 - e2) / 3.0
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
        if self.r_max <= 0:
            raise ValidationError("r_max must be positive")
        r = np.linspace(0.0, self.r_max, 257)
        for name, prof in (("f_prime", self.f_prime), ("h_prime", self.h_prime)):
            vals = np.asarray(prof(r), dtype=complex)
            if vals.shape != r.shape or not np.all(np.isfinite(vals)):
                raise ValidationError(f"{name} must be finite on the grid")
            if not np.isfinite(np.trapezoid(np.abs(vals) ** 2 * r * r, r)):
                raise ValidationError(f"{name} has no finite discrete norm")

    def amplitude(self, r: np.ndarray) -> np.ndarray:
        return r * r * np.conj(np.asarray(self.h_prime(r), dtype=complex)) \
            * np.asarray(self.f_prime(r), dtype=complex)


def _filon_weights(theta: np.ndarray) -> np.ndarray:
    """(..., 3) weights of the left, middle and right node samples in
    int_{-1}^{1} p(s) e^{i theta s} ds, p the quadratic through them."""
    small = np.abs(theta) < 0.1
    t = np.where(small, 1.0, theta)
    s, c, t2 = np.sin(t), np.cos(t), theta * theta
    # m_k = int s^k e^{i theta s} ds; the series keep the relative
    # truncation error below 1e-12 at the switch
    m0 = 2.0 * np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0
                        - t2 * t2 * t2 / 5040.0, s / t)
    m1 = 2.0j * np.where(small, theta * (1.0 / 3.0 - t2 / 30.0
                                         + t2 * t2 / 840.0), s / t ** 2 - c / t)
    m2 = 2.0 * np.where(small, 1.0 / 3.0 - t2 / 10.0 + t2 * t2 / 168.0
                        - t2 * t2 * t2 / 6480.0,
                        (t ** 2 - 2.0) * s / t ** 3 + 2.0 * c / t ** 2)
    return np.stack([(m2 - m1) / 2.0, m0 - m2, (m2 + m1) / 2.0], axis=-1)


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
    times = np.atleast_1d(np.asarray(times, dtype=float))
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


def summary_report(entries, extra: dict | None = None) -> dict:
    """Pass/fail report structure: entries are (name, passed, detail)."""
    criteria = [{"name": str(n), "passed": bool(p), "detail": str(d)}
                for n, p, d in entries]
    doc = {
        "criteria": criteria,
        "n_passed": sum(c["passed"] for c in criteria),
        "n_failed": sum(not c["passed"] for c in criteria),
    }
    if extra:
        doc.update(extra)
    return doc


def write_summary(path, entries, extra: dict | None = None) -> dict:
    doc = summary_report(entries, extra)
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc
