"""Finite-size reference dynamics on the full system-reservoir space.

The joint state is decomposed into pure branches matching the structure of
the reservoir ensemble (a pure site state gives one branch, mixtures one per
atom choice, channel placements one per position), so propagation acts on
vectors. Below the dense cutoff a single eigendecomposition of the joint
Hamiltonian drives every branch at every time; if the branch count there
would exceed a small limit the density matrix is conjugated directly
instead, so the dense path never truncates. Above the cutoff the
Hamiltonian stays in term-list form and branches advance by Krylov
matrix-exponential action, with the branch count capped and the dropped
weight renormalized away but recorded.

A truncated interaction-picture commutator series serves as an independent
short-time oracle. Its Dyson terms come exactly from one exponential of a
block upper-bidiagonal matrix (Van Loan 1978), with no quadrature.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.sparse.linalg import LinearOperator, expm_multiply

from .errors import ResourceLimitError, ValidationError
from .model import (
    ITERATIVE_CUTOFF,
    SiteModel,
    SystemModel,
    TermListOperator,
    assemble_total,
)
from .operators import DENSE_CUTOFF, DensityMatrix, trace_norm
from .reservoir import (
    ChannelCorrelated,
    DeFinettiMixture,
    MacroscopicParts,
    ProductState,
    largest_remainder_counts,
    materialize,
)
from .effective import effective_trajectory
from .results import PropagationResult

BRANCH_CAP = 16
BRANCH_FLOOR = 1e-8
EIGVAL_CUT = 1e-12
DENSE_BRANCH_LIMIT = 64
JOINT_TRAJECTORY_LIMIT = 512


@dataclass(frozen=True)
class FiniteMRun:
    """One finite-size propagation problem."""

    sys: SystemModel
    site: SiteModel
    m_count: int
    reservoir_state: object
    rho_s0: DensityMatrix
    grid: np.ndarray
    branch_cap: int = BRANCH_CAP
    branch_floor: float = BRANCH_FLOOR

    def __post_init__(self):
        grid = np.array(self.grid, dtype=float)
        if grid.ndim != 1 or grid.size < 1:
            raise ValidationError("time grid must be a nonempty 1d array")
        if grid.size > 1 and np.any(np.diff(grid) <= 0):
            raise ValidationError("time grid must be strictly increasing")
        if self.m_count < 1:
            raise ValidationError("need at least one reservoir site")
        if self.rho_s0.dim != self.sys.dim:
            raise ValidationError(
                f"system state dim {self.rho_s0.dim} does not match model "
                f"dim {self.sys.dim}")
        if self.branch_cap < 1:
            raise ValidationError("branch cap must be >= 1")
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)

    @property
    def joint_dim(self) -> int:
        return self.sys.dim * self.site.dim ** self.m_count


def _pure_branches(rho: DensityMatrix):
    evals, vecs = np.linalg.eigh(rho.data)
    return [(float(p), vecs[:, k]) for k, p in enumerate(evals) if p > EIGVAL_CUT]


def _kron_vec(*vecs: np.ndarray) -> np.ndarray:
    out = vecs[0]
    for v in vecs[1:]:
        out = np.kron(out, v)
    return out


def _distinct_permutations(items):
    """Multiset permutations, generated lazily via next-permutation steps."""
    pool = sorted(items)
    n = len(pool)
    while True:
        yield tuple(pool)
        i = n - 2
        while i >= 0 and pool[i] >= pool[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while pool[j] <= pool[i]:
            j -= 1
        pool[i], pool[j] = pool[j], pool[i]
        pool[i + 1:] = reversed(pool[i + 1:])


def _product_branches_exact(site_state: DensityMatrix, m_count: int, cap: int):
    """Every pure branch of the m_count-fold product, or None past cap."""
    local = _pure_branches(site_state)
    if len(local) ** m_count > cap:
        return None
    out = []
    for combo in itertools.product(local, repeat=m_count):
        w = math.prod(p for p, _ in combo)
        out.append((w, _kron_vec(*(v for _, v in combo))))
    return out


def _product_branches_top(site_state: DensityMatrix, m_count: int, cap: int):
    """Heaviest cap branches of the m_count-fold product.

    All site orderings of one eigenvector multiset share a weight, so
    sorting multisets by weight and expanding their orderings lazily walks
    the branches in globally nonincreasing weight order.
    """
    local = _pure_branches(site_state)
    if len(local) == 1:
        p, vec = local[0]
        return [(p ** m_count, _kron_vec(*([vec] * m_count)))]
    probs = [p for p, _ in local]
    vecs = [v for _, v in local]
    multisets = []
    for combo in itertools.combinations_with_replacement(range(len(local)), m_count):
        multisets.append((math.prod(probs[i] for i in combo), combo))
    multisets.sort(key=lambda t: -t[0])
    out = []
    for w, combo in multisets:
        for perm in _distinct_permutations(combo):
            out.append((w, _kron_vec(*(vecs[i] for i in perm))))
            if len(out) >= cap:
                return out
    return out


def _channel_branches(state: ChannelCorrelated, m_count: int):
    """Branches of the placement-averaged channel ensemble (pure site only)."""
    local = _pure_branches(state.site_state)
    if len(local) != 1:
        return None
    _, phi = local[0]
    L = state.corr_length
    if m_count < L:
        raise ValidationError(
            f"need at least {L} sites for correlation length {L}")
    block_in = _kron_vec(*([phi] * L))
    placements = m_count - L + 1
    out = []
    for j in range(placements):
        for k in state.kraus:
            mapped = k @ block_in
            w = float(np.vdot(mapped, mapped).real) / placements
            if w <= EIGVAL_CUT:
                continue
            pieces = ([phi] * j) + [mapped / np.linalg.norm(mapped)] \
                + ([phi] * (m_count - L - j))
            out.append((w, _kron_vec(*pieces)))
    return out


def _reservoir_branches(state, m_count: int, cap: int, exact: bool):
    """(weight, vector) branches of the reservoir ensemble.

    exact=True refuses to truncate: the full decomposition is returned, or
    None when its size would exceed cap (or no pure decomposition exists).
    exact=False returns the heaviest cap branches.
    """
    if isinstance(state, ProductState):
        if exact:
            return _product_branches_exact(state.site_state, m_count, cap)
        return _product_branches_top(state.site_state, m_count, cap)
    if isinstance(state, DeFinettiMixture):
        out = []
        for w, atom in state.atoms:
            sub = _reservoir_branches(ProductState(atom), m_count, cap, exact)
            if sub is None:
                return None
            out.extend((w * p, vec) for p, vec in sub)
        if exact:
            return out if len(out) <= cap else None
        out.sort(key=lambda t: -t[0])
        return out[:cap]
    if isinstance(state, MacroscopicParts):
        counts = largest_remainder_counts([f for f, _ in state.parts], m_count)
        per_part = []
        for (_, sigma), c in zip(state.parts, counts):
            if c == 0:
                continue
            sub = _reservoir_branches(ProductState(sigma), int(c), cap, exact)
            if sub is None:
                return None
            per_part.append(sub)
        out = []
        for combo in itertools.product(*per_part):
            w = math.prod(p for p, _ in combo)
            out.append((w, _kron_vec(*(v for _, v in combo))))
            if len(out) > cap and exact:
                return None
        if exact:
            return out
        out.sort(key=lambda t: -t[0])
        return out[:cap]
    if isinstance(state, ChannelCorrelated):
        out = _channel_branches(state, m_count)
        if out is None:
            return None
        if exact:
            return out if len(out) <= cap else None
        out.sort(key=lambda t: -t[0])
        return out[:cap]
    if isinstance(state, DensityMatrix):
        if len(state.dims) != m_count:
            raise ValidationError(
                f"explicit reservoir state has {len(state.dims)} factors, "
                f"expected {m_count}")
        branches = _pure_branches(state)
        if exact:
            return branches if len(branches) <= cap else None
        branches.sort(key=lambda t: -t[0])
        return branches[:cap]
    raise ValidationError(
        f"unsupported reservoir ensemble {type(state).__name__}")


def _joint_branches(run: FiniteMRun, cap: int, exact: bool):
    """Joint pure branches with kept-mass renormalization.

    Returns (branches, mass_defect) or (None, None). In exact mode the
    defect is only the spectral cut of near-zero eigenvalues; otherwise it
    also counts branches dropped by the cap and the relative floor.
    """
    res = _reservoir_branches(run.reservoir_state, run.m_count, cap, exact)
    if res is None:
        return None, None
    sys_branches = _pure_branches(run.rho_s0)
    joint = [(ws * wr, vs, vr) for ws, vs in sys_branches for wr, vr in res]
    if exact and len(joint) > cap:
        return None, None
    joint.sort(key=lambda t: -t[0])
    if not exact:
        top = sum(w for w, _, _ in joint[:cap])
        joint = [b for b in joint[:cap] if b[0] >= run.branch_floor * top]
    kept_mass = sum(w for w, _, _ in joint)
    if kept_mass <= 0:
        raise ValidationError("initial joint state has no weight left")
    branches = [(w / kept_mass, _kron_vec(vs, vr)) for w, vs, vr in joint]
    return branches, max(0.0, float(1.0 - kept_mass))


def _reservoir_matrix(state, m_count: int) -> DensityMatrix:
    if isinstance(state, DensityMatrix):
        if len(state.dims) != m_count:
            raise ValidationError(
                f"explicit reservoir state has {len(state.dims)} factors, "
                f"expected {m_count}")
        return state
    return materialize(state, m_count)


def _reduce_columns(a: np.ndarray, d_sys: int, d_res: int) -> np.ndarray:
    a3 = a.reshape(d_sys, d_res, -1)
    return np.einsum("irb,krb->ik", a3, a3.conj())


def propagate_exact(run: FiniteMRun) -> PropagationResult:
    """Reduced system trajectory of the full finite-size dynamics."""
    d_total = run.joint_dim
    d_sys = run.sys.dim
    d_res = run.site.dim ** run.m_count
    if d_total <= DENSE_CUTOFF:
        return _propagate_dense(run, d_sys, d_res)
    if d_total > ITERATIVE_CUTOFF:
        raise ResourceLimitError(
            f"joint dimension {d_total} beyond both dense and iterative paths")
    return _propagate_krylov(run, d_sys, d_res)


def _propagate_dense(run: FiniteMRun, d_sys: int, d_res: int) -> PropagationResult:
    h = assemble_total(run.sys, run.site, run.m_count, form="dense")
    evals, emat = np.linalg.eigh(h.data)
    branches, defect = _joint_branches(run, cap=DENSE_BRANCH_LIMIT, exact=True)
    if branches is not None:
        cols = np.stack([math.sqrt(w) * v for w, v in branches], axis=1)
        phi = emat.conj().T @ cols
        energy = float(np.sum((np.abs(phi) ** 2) * evals[:, None]).real)
        states, drifts = [], []
        for t in run.grid:
            a = emat @ (np.exp(-1j * evals * t)[:, None] * phi)
            states.append(DensityMatrix(_reduce_columns(a, d_sys, d_res),
                                        run.rho_s0.dims))
            drifts.append(abs(float(np.sum(np.abs(a) ** 2)) - 1.0))
        diag = {"path": "dense-branch", "branches": len(branches),
                "branch_mass_defect": defect, "energy": energy,
                "max_norm_drift": max(drifts)}
        return PropagationResult(run.grid, tuple(states), diag)
    # too many branches for an exact decomposition: conjugate the matrix
    rho_r = _reservoir_matrix(run.reservoir_state, run.m_count)
    rho_e = emat.conj().T @ np.kron(run.rho_s0.data, rho_r.data) @ emat
    energy = float(np.sum(np.diag(rho_e).real * evals))
    states, tr_drift, en_drift = [], [], []
    for t in run.grid:
        ph = np.exp(-1j * evals * t)
        rt = (ph[:, None] * rho_e) * ph.conj()[None, :]
        joint_t = emat @ rt @ emat.conj().T
        red = joint_t.reshape(d_sys, d_res, d_sys, d_res)
        states.append(DensityMatrix(np.einsum("irkr->ik", red),
                                    run.rho_s0.dims))
        tr_drift.append(abs(complex(np.trace(joint_t)) - 1.0))
        en_drift.append(abs(float(np.sum(np.diag(rt).real * evals)) - energy))
    diag = {"path": "dense-conjugation", "branches": None,
            "branch_mass_defect": 0.0, "energy": energy,
            "max_norm_drift": max(tr_drift),
            "max_energy_drift": max(en_drift)}
    return PropagationResult(run.grid, tuple(states), diag)


def _term_list_trace(op: TermListOperator) -> complex:
    total = 0.0 + 0.0j
    for coeff, factors in op.terms:
        val = complex(coeff)
        for i, dim in enumerate(op.dims):
            val *= complex(np.trace(factors[i])) if i in factors else dim
        total += val
    return total


def _propagate_krylov(run: FiniteMRun, d_sys: int, d_res: int) -> PropagationResult:
    h = assemble_total(run.sys, run.site, run.m_count, form="terms")
    branches, defect = _joint_branches(run, cap=run.branch_cap, exact=False)
    if branches is None:
        raise ResourceLimitError(
            "reservoir ensemble has no pure branch decomposition and the "
            "joint dimension is too large for the dense fallback")
    grid = run.grid
    d_total = h.dim
    linop = LinearOperator((d_total, d_total),
                           matvec=lambda x: -1j * h.matvec(x),
                           rmatvec=lambda x: 1j * h.matvec(x),
                           dtype=complex)
    trace_a = -1j * _term_list_trace(h)
    uniform = grid.size > 1 and np.allclose(
        np.diff(grid), grid[1] - grid[0], rtol=0.0, atol=1e-12)
    acc = [np.zeros((d_sys, d_sys), dtype=complex) for _ in grid]
    norm_drift = 0.0
    for w, vec in branches:
        if uniform:
            frames = expm_multiply(linop, vec.astype(complex),
                                   start=grid[0], stop=grid[-1],
                                   num=grid.size, endpoint=True,
                                   traceA=trace_a)
        else:
            frames = [vec.astype(complex)]
            if abs(grid[0]) > 0:
                frames[0] = expm_multiply(grid[0] * linop, frames[0],
                                          traceA=grid[0] * trace_a)
            for dt in np.diff(grid):
                frames.append(expm_multiply(dt * linop, frames[-1],
                                            traceA=dt * trace_a))
        for k in range(grid.size):
            psi = frames[k]
            norm_drift = max(norm_drift,
                             abs(float(np.vdot(psi, psi).real) - 1.0))
            p2 = psi.reshape(d_sys, d_res)
            acc[k] += w * (p2 @ p2.conj().T)
    states = tuple(DensityMatrix(a, run.rho_s0.dims) for a in acc)
    diag = {"path": "krylov-branch", "branches": len(branches),
            "branch_mass_defect": defect, "max_norm_drift": norm_drift}
    return PropagationResult(grid, states, diag)


def joint_trajectory(run: FiniteMRun) -> PropagationResult:
    """Full joint-state trajectory; intended for small diagnostic runs."""
    d_total = run.joint_dim
    if d_total > JOINT_TRAJECTORY_LIMIT:
        raise ResourceLimitError(
            f"joint trajectory capped at dimension {JOINT_TRAJECTORY_LIMIT}, "
            f"got {d_total}")
    h = assemble_total(run.sys, run.site, run.m_count, form="dense")
    evals, emat = np.linalg.eigh(h.data)
    rho_r = _reservoir_matrix(run.reservoir_state, run.m_count)
    rho_e = emat.conj().T @ np.kron(run.rho_s0.data, rho_r.data) @ emat
    dims = run.rho_s0.dims + rho_r.dims
    states = []
    for t in run.grid:
        ph = np.exp(-1j * evals * t)
        rt = (ph[:, None] * rho_e) * ph.conj()[None, :]
        states.append(DensityMatrix(emat @ rt @ emat.conj().T, dims))
    energy = float(np.sum(np.diag(rho_e).real * evals))
    return PropagationResult(run.grid, tuple(states),
                             {"path": "dense-joint", "energy": energy})


def convergence_gap(sys: SystemModel, site: SiteModel, reservoir_state,
                    m_count: int, rho0: DensityMatrix, grid,
                    step_target: float = 1e-7,
                    n_substeps: int | None = None) -> np.ndarray:
    """Half trace-norm distance between the finite-size reduced trajectory
    and the limit trajectory, per grid point."""
    run = FiniteMRun(sys, site, m_count, reservoir_state, rho0, grid)
    finite = propagate_exact(run)
    limit = effective_trajectory(sys, reservoir_state, site, rho0, run.grid,
                                 step_target=step_target,
                                 n_substeps=n_substeps)
    return np.array([0.5 * trace_norm(a.data - b.data)
                     for a, b in zip(finite.states, limit.states)])


# Truncated interaction-picture series.

def dyson_truncated(sys: SystemModel, site: SiteModel, reservoir_state,
                    m_count: int, rho_s0: DensityMatrix, order: int,
                    t: float) -> DensityMatrix:
    """Short-time series oracle for the reduced state at time t.

    Let H0 be the free part of the joint Hamiltonian, V = H - H0 the
    coupling and d the joint dimension. The (order+1)d x (order+1)d block
    upper-bidiagonal matrix with -i H0 t on every diagonal block and -i V t
    on every superdiagonal block has, as the first block row of its
    exponential, the Schroedinger-picture Dyson terms
    S_k = e^{-i H0 t} (-i)^k int_{t>t_1>..>t_k>0} V_I(t_1)..V_I(t_k),
    exactly up to rounding (Van Loan 1978, IEEE TAC 23:395; Carbonell,
    Jimenez and Pedroso 2008, J. Comput. Appl. Math. 213:300). The
    interaction-picture commutator series truncated at the given order is
    sum_{k+l<=order} S_k rho0 S_l^dagger in the lab frame, and its partial
    trace over the reservoir is returned. The result is not renormalized,
    so its trace distance to the true state reflects the truncation error
    honestly.
    """
    if not 0 <= order <= 4:
        raise ValidationError("series order must be between 0 and 4")
    if t < 0:
        raise ValidationError("time must be nonnegative")
    d_sys, d_res = sys.dim, site.dim ** m_count
    d_total = d_sys * d_res
    d_block = (order + 1) * d_total
    if d_block > DENSE_CUTOFF:
        raise ResourceLimitError(
            f"series oracle is dense only; block dimension {d_block} = "
            f"(order {order} + 1) x {d_total} > {DENSE_CUTOFF}")
    free = assemble_total(SystemModel(local_h=sys.local_h, couplings=()),
                          site, m_count, form="dense").data
    v_mat = assemble_total(sys, site, m_count, form="dense").data - free
    block = -1j * t * (np.kron(np.eye(order + 1), free)
                       + np.kron(np.eye(order + 1, k=1), v_mat))
    row = expm(block)[:d_total]
    terms = row.reshape(d_total, order + 1, d_total).transpose(1, 0, 2)
    # sum_{k+l<=n} S_k rho0 S_l^dagger = sum_k S_k rho0 (S_0+..+S_{n-k})^dagger
    partial = np.cumsum(terms, axis=0)
    rho_r = _reservoir_matrix(reservoir_state, m_count)
    rho0 = np.kron(rho_s0.data, rho_r.data)
    joint = sum(terms[k] @ rho0 @ partial[order - k].conj().T
                for k in range(order + 1))
    red = np.einsum("irkr->ik", joint.reshape(d_sys, d_res, d_sys, d_res))
    return DensityMatrix(red, rho_s0.dims, validate=False)
