"""Finite-size reference dynamics in permutation-symmetric sectors.

The joint Hamiltonian is invariant under permutations of the reservoir
sites (free sites plus couplings to the site average), and so is the
partial trace over the reservoir. Every reservoir ensemble is therefore
split into pure branches, each given by part counts (n_1..n_k) summing to M
and a ket in Sym^{n_1}(C^d) x ... x Sym^{n_k}(C^d), written in the
occupation basis. In each component of reservoir.decompose, a part of n
sites in a state of rank r gives one branch per composition of n over its
eigenvectors, weighted by the composition's multiplicity; the parts and the
pure states of the block, one site per part, combine as tensor products, so
an explicit reservoir density matrix is the sector of counts
(1,...,1), the full space. On a sector the sum of a site operator x over
all sites acts as sum_p B_{n_p}(x), where B_n(x) = sum_ij x_ij a_i^dag a_j
is the one-body operator on Sym^n, so a part of n sites has dimension
C(n+d-1, d-1) instead of d^n (Shammah et al., PRA 98, 063815 (2018); Gegg
and Richter, NJP 18, 043037 (2016)). A cluster coupling averages a
nu-site operator V over the perm(M, nu) ordered nu-tuples of distinct
sites; that sum N(V) is permutation-invariant for every V and follows
from the collective sums C by normal ordering, N(x_1..x_nu) =
N(x_1..x_{nu-1}) C(x_nu) - sum_{j<nu} N(x_1, .., x_j x_nu, .., x_{nu-1}),
so a plain coupling is the case nu = 1. Branches with the same counts share
one dense eigendecomposition, and the reduced state is the weighted sum of
their partial traces. Nothing is truncated except eigenvalues below
EIGVAL_CUT in the state decompositions; a sector too large for the dense
cutoff is refused.

A truncated interaction-picture commutator series serves as an independent
short-time oracle on the same branches and sectors. Its Dyson terms come
exactly from one exponential per sector of a block upper-bidiagonal matrix
built from the sector's free and coupling parts (Van Loan 1978), with no
quadrature. The full-space joint trajectory remains as a small-M reference.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .model import (ClusterInteraction, SiteModel, SystemModel,
                    assemble_cluster_interaction, assemble_total,
                    check_couplings)
from .operators import DENSE_CUTOFF, DensityMatrix, Operator, trace_norm
from .reservoir import decompose, materialize
from .effective import DEFAULT_STEP_TARGET, effective_trajectory
from .results import PropagationResult

EIGVAL_CUT = 1e-12
JOINT_TRAJECTORY_LIMIT = 512
# Complex entries per block of (sector dim x times x branches) amplitudes.
AMPLITUDE_CHUNK = 1 << 20


@dataclass(frozen=True)
class FiniteMRun:
    """One finite-size propagation problem.

    With a cluster set, every coupling multiplies the average of the
    cluster operator over ordered nu-tuples of distinct sites instead of
    the site average of its site interaction. components holds
    reservoir.decompose of the reservoir state, checked at construction.
    """

    sys: SystemModel
    site: SiteModel
    m_count: int
    reservoir_state: object
    rho_s0: DensityMatrix
    grid: np.ndarray
    cluster: ClusterInteraction | None = None
    components: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid = np.array(self.grid, dtype=float)
        if grid.ndim != 1 or grid.size < 1:
            raise ValidationError("time grid must be a nonempty 1d array")
        if grid.size > 1 and np.any(np.diff(grid) <= 0):
            raise ValidationError("time grid must be strictly increasing")
        if self.rho_s0.dim != self.sys.dim:
            raise ValidationError(
                f"system state dim {self.rho_s0.dim} does not match model "
                f"dim {self.sys.dim}")
        if self.cluster is None:
            check_couplings(self.sys, self.site)
        else:
            nu, d = self.cluster.nu, self.site.dim
            if nu > self.m_count:
                raise ValidationError(
                    f"cluster size {nu} exceeds site count {self.m_count}")
            if self.cluster.v_cluster.dims != (d,) * nu:
                raise ValidationError(
                    f"cluster operator dims {self.cluster.v_cluster.dims} do "
                    f"not match {nu} site factors of dim {d}")
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "components", decompose(
            self.reservoir_state, self.m_count, self.site.dim))

    @property
    def joint_dim(self) -> int:
        return self.sys.dim * self.site.dim ** self.m_count


def _pure_branches(rho: DensityMatrix):
    evals, vecs = np.linalg.eigh(rho.data)
    return [(float(p), vecs[:, k]) for k, p in enumerate(evals) if p > EIGVAL_CUT]


# Symmetric sectors.

def _occupations(n: int, d: int) -> list[tuple[int, ...]]:
    """All (k_1..k_d) of nonnegative integers summing to n, in
    lexicographically descending order.

    They label the occupation basis of Sym^n(C^d); for n = 1 that is the
    standard basis of C^d, so a part of one site is a plain tensor factor.
    Read as compositions they also list the ways n sites split over d
    labels.
    """
    if d == 1:
        return [(n,)]
    return [(k,) + rest for k in range(n, -1, -1)
            for rest in _occupations(n - k, d - 1)]


def _sector_dim(counts, d: int) -> int:
    return math.prod(math.comb(n + d - 1, d - 1) for n in counts)


def _check_sector(counts, d: int, d_sys: int) -> None:
    dim = _sector_dim(counts, d)
    if d_sys * dim > DENSE_CUTOFF:
        raise ResourceLimitError(
            f"symmetric sector with part counts {tuple(counts)} has dimension "
            f"{dim} on site dimension {d}; with system dimension {d_sys} "
            f"that is {d_sys * dim} > dense cutoff {DENSE_CUTOFF}")


def _power_ket(psi: np.ndarray, n: int) -> np.ndarray:
    """psi^{(x)n} in the occupation basis of Sym^n, with coefficients
    sqrt(n!/prod k_i!) prod psi_i^{k_i}, evaluated in log space."""
    occ = np.array(_occupations(n, len(psi)))
    log_fact = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_abs = np.where(occ > 0, occ * np.log(np.abs(psi)), 0.0).sum(axis=1)
    log_abs += 0.5 * (log_fact[n] - log_fact[occ].sum(axis=1))
    return np.exp(log_abs + 1j * (occ @ np.angle(psi)))


def _one_body(n: int, d: int):
    """The map x -> B_n(x) = sum_ij x_ij a_i^dag a_j on Sym^n(C^d).

    B_n(x) is the sum of x over n sites restricted to their symmetric
    subspace. The hopping pattern depends on n and d only, so it is built
    once and reused for every x.
    """
    occ = np.array(_occupations(n, d)).reshape(-1, d)
    index = {row: k for k, row in enumerate(map(tuple, occ.tolist()))}
    hops = []
    for i, j in itertools.permutations(range(d), 2):
        src = np.flatnonzero(occ[:, j])
        dst = occ[src]
        dst[:, i] += 1
        dst[:, j] -= 1
        tgt = np.array([index[row] for row in map(tuple, dst.tolist())],
                       dtype=int)
        hops.append((i, j, src, tgt,
                     np.sqrt(occ[src, j] * (occ[src, i] + 1.0))))

    def build(x: np.ndarray) -> np.ndarray:
        out = np.diag((occ @ np.diagonal(x)).astype(complex))
        for i, j, src, tgt, amp in hops:
            out[tgt, src] += x[i, j] * amp
        return out
    return build


def _sector_hamiltonian(run: FiniteMRun, counts):
    """Free and coupling parts of the joint Hamiltonian on
    system x Sym^{n_1} x ... x Sym^{n_k}."""
    d = run.site.dim
    dims = [_sector_dim((n,), d) for n in counts]
    one_body = {n: _one_body(n, d) for n in set(counts)}

    def collective(x: np.ndarray) -> np.ndarray:
        out = 0
        for p, n in enumerate(counts):
            left, right = math.prod(dims[:p]), math.prod(dims[p + 1:])
            out = out + np.kron(np.kron(np.eye(left), one_body[n](x)),
                                np.eye(right))
        return out

    def ordered_sum(v: np.ndarray, nu: int) -> np.ndarray:
        """Sum of the nu-site operator v over ordered nu-tuples of distinct
        sites, by normal ordering: N(x_1..x_nu) = N(x_1..x_{nu-1}) C(x_nu)
        - sum_{j<nu} N(x_1, .., x_j x_nu, .., x_{nu-1})."""
        if nu == 1:
            return collective(v)
        t = v.reshape((d,) * (2 * nu))
        size = d ** (nu - 1)
        out = 0
        for a, c in itertools.product(range(d), repeat=2):
            unit = np.zeros((d, d))
            unit[a, c] = 1.0
            rest = t[(slice(None),) * (nu - 1) + (a,)][..., c]
            out = out + ordered_sum(rest.reshape(size, size), nu - 1) \
                @ collective(unit)
        rows, cols, z = list(range(nu - 1)), list(range(nu, 2 * nu)), 2 * nu
        for j in range(nu - 1):
            # factor j times the last factor: sum over the shared index z
            x_j_x_nu = np.einsum(t, rows + [z] + cols[:j] + [z] + cols[j + 1:],
                                 rows + cols[:j] + cols[-1:] + cols[j + 1:-1])
            out = out - ordered_sum(x_j_x_nu.reshape(size, size), nu - 1)
        return out

    sys = run.sys
    free = (np.kron(sys.h_full(), np.eye(math.prod(dims)))
            + np.kron(np.eye(sys.dim), collective(run.site.h.data)))
    coupling = np.zeros_like(free)
    nu = 1 if run.cluster is None else run.cluster.nu
    for c in sys.couplings:
        v = (run.site.interactions[c.v_index] if run.cluster is None
             else run.cluster.v_cluster).data
        coupling += (np.kron(sys.coupling_full(c), ordered_sum(v, nu))
                     / math.perm(run.m_count, nu))
    return free, coupling


# Reservoir branches: (weight, part counts, factors whose kron is the ket).

def _product_branches(site_state: DensityMatrix, m: int, d: int, d_sys: int):
    """site_state^{(x)m}: one branch per composition n of m over its
    eigenvectors v_i, of weight multinomial(m; n) prod p_i^{n_i} and ket
    (x)_i v_i^{(x)n_i}."""
    local = _pure_branches(site_state)
    r = len(local)
    # the most even composition has the largest sector
    _check_sector([m // r + (i < m % r) for i in range(r)], d, d_sys)
    log_fact = [math.lgamma(k + 1) for k in range(m + 1)]
    out = []
    for comp in _occupations(m, r):
        log_w = log_fact[m] + sum(k * math.log(p) - log_fact[k]
                                  for k, (p, _) in zip(comp, local))
        parts = [(k, v) for k, (_, v) in zip(comp, local) if k]
        out.append((math.exp(log_w), tuple(k for k, _ in parts),
                    [_power_ket(v, k) for k, v in parts]))
    return out


def _combine(*branch_lists):
    """Branches of the tensor product of ensembles on consecutive sites."""
    return [(math.prod(w for w, _, _ in combo),
             sum((c for _, c, _ in combo), ()),
             [f for _, _, fs in combo for f in fs])
            for combo in itertools.product(*branch_lists)]


def _sector_columns(run: FiniteMRun):
    """({part counts: columns}, diagnostics): weighted joint kets on
    system x sector whose outer products sum to the initial joint state,
    renormalized after the EIGVAL_CUT branch cut."""
    d, d_sys = run.site.dim, run.sys.dim
    res = []
    for w, parts, block in run.components:
        # a block is split into pure states with one site per part
        lists = [] if block is None else [
            [(p, (1,) * len(block.dims), [v]) for p, v in _pure_branches(block)]]
        lists += [_product_branches(s, n, d, d_sys) for n, s in parts]
        res += [(w * p, c, f) for p, c, f in _combine(*lists)]
    sys_branches = _pure_branches(run.rho_s0)
    kept = sum(w for w, _ in sys_branches) * sum(w for w, _, _ in res)
    if kept <= 0:
        raise ValidationError("initial joint state has no weight left")
    sectors = {}
    for w, counts, factors in res:
        # parts are interchangeable, so order them by count: branches that
        # differ only in part order then share a sector
        order = sorted(range(len(counts)), key=lambda p: -counts[p])
        key = tuple(counts[p] for p in order)
        sectors.setdefault(key, []).append((w, counts, order, factors))
    for counts in sectors:
        _check_sector(counts, d, d_sys)
    columns = {}
    for counts, members in sectors.items():
        cols = []
        for w, part_counts, order, factors in members:
            ket = functools.reduce(np.kron, factors)
            ket = ket.reshape([_sector_dim((n,), d) for n in part_counts])
            ket = ket.transpose(order).reshape(-1)
            cols += [math.sqrt(ws * w / kept) * np.kron(vs, ket)
                     for ws, vs in sys_branches]
        columns[counts] = np.stack(cols, axis=1)
    diag = {"path": "symmetric-sector",
            "branches": sum(c.shape[1] for c in columns.values()),
            "sectors": len(columns),
            "max_sector_dim": max(_sector_dim(c, d) for c in columns),
            "branch_mass_defect": max(0.0, float(1.0 - kept))}
    return columns, diag


def propagate_exact(run: FiniteMRun) -> PropagationResult:
    """Reduced system trajectory of the full finite-size dynamics.

    Diagnostics: path, branches (joint pure branches), sectors (distinct
    part counts), max_sector_dim (largest reservoir sector dimension),
    branch_mass_defect (weight cut with near-zero eigenvalues) and
    max_norm_drift.
    """
    columns, diag = _sector_columns(run)
    d_sys, grid = run.sys.dim, run.grid
    acc = np.zeros((grid.size, d_sys, d_sys), dtype=complex)
    for counts, cols in columns.items():
        evals, emat = np.linalg.eigh(sum(_sector_hamiltonian(run, counts)))
        phi = emat.conj().T @ cols
        dim, n_cols = phi.shape
        step = max(1, AMPLITUDE_CHUNK // phi.size)
        for lo in range(0, grid.size, step):
            ts = grid[lo:lo + step]
            ph = np.exp(-1j * np.multiply.outer(evals, ts))
            a = emat @ (ph[:, :, None] * phi[:, None, :]).reshape(dim, -1)
            a = a.reshape(d_sys, -1, ts.size, n_cols).transpose(2, 0, 1, 3)
            a = a.reshape(ts.size, d_sys, -1)
            acc[lo:lo + step] += a @ a.conj().transpose(0, 2, 1)
    norms = np.trace(acc, axis1=1, axis2=2).real
    diag["max_norm_drift"] = float(np.max(np.abs(norms - 1.0)))
    return PropagationResult.from_stack(grid, acc, run.rho_s0.dims, diag)


def joint_trajectory(run: FiniteMRun) -> PropagationResult:
    """Full joint-state trajectory; intended for small diagnostic runs."""
    d_total = run.joint_dim
    if d_total > JOINT_TRAJECTORY_LIMIT:
        raise ResourceLimitError(
            f"joint trajectory capped at dimension {JOINT_TRAJECTORY_LIMIT}, "
            f"got {d_total}")
    sys = run.sys
    if run.cluster is None:
        h = assemble_total(sys, run.site, run.m_count).data
    else:
        h = assemble_total(SystemModel(local_h=sys.local_h), run.site,
                           run.m_count).data
        for c in sys.couplings:
            g = Operator(sys.coupling_full(c), sys.subsystem_dims)
            h = h + assemble_cluster_interaction(g, run.cluster,
                                                 run.m_count).data
    evals, emat = np.linalg.eigh(h)
    rho_r = materialize(run.reservoir_state, run.m_count)
    rho_e = emat.conj().T @ np.kron(run.rho_s0.data, rho_r.data) @ emat
    stack = np.empty((run.grid.size, d_total, d_total), dtype=complex)
    for k, t in enumerate(run.grid):
        ph = np.exp(-1j * evals * t)
        rt = (ph[:, None] * rho_e) * ph.conj()[None, :]
        stack[k] = emat @ rt @ emat.conj().T
    return PropagationResult.from_stack(run.grid, stack,
                                        run.rho_s0.dims + rho_r.dims,
                                        {"path": "dense-joint"})


def convergence_gap(sys: SystemModel, site: SiteModel, reservoir_state,
                    m_count: int, rho0: DensityMatrix, grid,
                    step_target: float = DEFAULT_STEP_TARGET) -> np.ndarray:
    """Half trace-norm distance between the finite-size reduced trajectory
    and the limit trajectory, per grid point."""
    run = FiniteMRun(sys, site, m_count, reservoir_state, rho0, grid)
    finite = propagate_exact(run)
    limit = effective_trajectory(sys, reservoir_state, site, rho0, run.grid,
                                 step_target=step_target)
    return 0.5 * trace_norm(finite.stack - limit.stack)


# Truncated interaction-picture series.

def dyson_truncated(sys: SystemModel, site: SiteModel, reservoir_state,
                    m_count: int, rho_s0: DensityMatrix, order: int,
                    t: float) -> DensityMatrix:
    """Short-time series oracle for the reduced state at time t.

    The initial joint state is split into the same pure branches on
    symmetric sectors as in propagate_exact, so it inherits that solver's
    EIGVAL_CUT branch cut. H0 and V are each permutation-invariant, so the
    series acts on every sector separately. On one sector let H0 be the free
    part of the joint Hamiltonian, V = H - H0 the coupling and d the system
    dimension times the sector dimension. The (order+1)d x (order+1)d block
    upper-bidiagonal matrix with -i H0 t on every diagonal block and -i V t
    on every superdiagonal block has, as the first block row of its
    exponential, the Schroedinger-picture Dyson terms
    S_k = e^{-i H0 t} (-i)^k int_{t>t_1>..>t_k>0} V_I(t_1)..V_I(t_k),
    exactly up to rounding (Van Loan 1978, IEEE TAC 23:395; Carbonell,
    Jimenez and Pedroso 2008, J. Comput. Appl. Math. 213:300). The
    interaction-picture commutator series truncated at the given order is
    sum_{k+l<=order} S_k rho0 S_l^dagger in the lab frame, and its partial
    trace over the reservoir, summed over sectors, is returned. The result
    is not renormalized, so its trace distance to the true state reflects
    the truncation error honestly. A sector whose block exceeds the dense
    cutoff is refused.
    """
    from scipy.linalg import expm  # lazy: scipy is slow to import
    if not 0 <= order <= 4:
        raise ValidationError("series order must be between 0 and 4")
    if t < 0:
        raise ValidationError("time must be nonnegative")
    run = FiniteMRun(sys, site, m_count, reservoir_state, rho_s0,
                     np.array([t]))
    columns, _ = _sector_columns(run)
    for cols in columns.values():
        d_block = (order + 1) * cols.shape[0]
        if d_block > DENSE_CUTOFF:
            raise ResourceLimitError(
                f"series oracle is dense only; block dimension {d_block} = "
                f"(order {order} + 1) x {cols.shape[0]} > {DENSE_CUTOFF}")
    d_sys = sys.dim
    red = np.zeros((d_sys, d_sys), dtype=complex)
    for counts, cols in columns.items():
        free, coupling = _sector_hamiltonian(run, counts)
        dim = free.shape[0]
        block = -1j * t * (np.kron(np.eye(order + 1), free)
                           + np.kron(np.eye(order + 1, k=1), coupling))
        row = expm(block)[:dim]
        # S_k and S_0+..+S_k applied to the branch columns
        a = row.reshape(dim, order + 1, dim).transpose(1, 0, 2) @ cols
        b = np.cumsum(a, axis=0)
        a, b = a.reshape(order + 1, d_sys, -1), b.reshape(order + 1, d_sys, -1)
        # with rho0 = cols cols^dagger, sum_{k+l<=n} S_k rho0 S_l^dagger =
        # sum_k S_k rho0 (S_0+..+S_{n-k})^dagger, traced over the sector
        red += sum(a[k] @ b[order - k].conj().T for k in range(order + 1))
    return DensityMatrix(red, rho_s0.dims, validate=False)
