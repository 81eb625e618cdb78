"""Finite-size reference dynamics in permutation-symmetric sectors.

The joint Hamiltonian is invariant under permutations of the reservoir
sites (free sites plus couplings to the site average), and so is the
partial trace over the reservoir. Every reservoir ensemble is therefore
split into pure branches on parts: a part of n sites carries Sym^n(C^d),
written in the occupation basis, and a sector is keyed by its part sizes
(n_1..n_k) and a shift s. On a sector the sum of a site operator x over all
sites acts as C(x) = sum_p B_{n_p}(x) + s tr(x), where B_n(x) = sum_ij x_ij
a_i^dag a_j is the one-body operator on Sym^n, so a part of n sites has
dimension C(n+d-1, d-1) instead of d^n (Shammah et al., PRA 98, 063815
(2018); Gegg and Richter, NJP 18, 043037 (2016)).

Every state enters as one square-root factor R, R R^dagger = rho, of
columns sqrt(p) v for its eigenpairs with p above EIGVAL_CUT, the only
truncation, so each branch carries its weight in its columns. In each
component of reservoir.decompose, a part of n qubit sites in a rank-2 state
splits into collective-spin blocks j = n/2 - k, k = 0..n/2: a part of 2j
sites with shift k, of dimension 2j+1, standing for its C(n,k) - C(n,k-1)
copies (Bacon, Chuang and Harrow, PRL 97, 170502 (2006)). A part in any
other state (rank 1, or site dimension d != 2) gives one branch per
composition of n over the columns of R. The parts and the block's R, one
site per part, combine as Khatri-Rao products, so an explicit reservoir
density matrix is the sector of sizes (1,...,1), the full space. A coupling
averages its site interaction, an operator V on nu sites, over the perm(M,
nu) ordered nu-tuples of distinct sites; that sum N(V) is
permutation-invariant for every V and follows from the collective sums C by
normal ordering, N(x_1..x_nu) = N(x_1..x_{nu-1}) C(x_nu) - sum_{j<nu} N(x_1,
.., x_j x_nu, .., x_{nu-1}), so N(V) = C(V) for nu = 1. Branches with the
same key share one dense eigendecomposition, and the reduced state is the
sum of their partial traces. A sector's trace comes either from its
columns' amplitudes at each time, at a cost proportional to the column
count, or from one contraction in its eigenbasis, rho_ss'(t) = u^T ((E_s^T
conj(E_s')) o phi phi^dagger) conj(u) with u = e^{-i lambda t}, at a cost
proportional to the sector dimension; each sector takes the one with fewer
multiply-adds, so one-column sectors keep the amplitudes and spin blocks,
whose columns number about their dimension, are contracted. A run lists
its sectors when it is built, with no column formed, and is refused then
if they together need more dense work than one sector at the dense cutoff,
sum (system dim x sector dim)^3 > DENSE_CUTOFF^3; with a qubit system and
rank-2 qubit sites that admits M <= 510.

A truncated interaction-picture commutator series serves as an independent
short-time oracle on the same branches and sectors. Its Dyson terms come
exactly from one exponential per sector of a block upper-bidiagonal matrix
built from the sector's free and coupling parts (Van Loan 1978), with no
quadrature.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError, ToleranceError, ValidationError
from .model import SiteModel, SystemModel, check_couplings
from .operators import DENSE_CUTOFF, DensityMatrix, add_embedded
from .reservoir import check_site_count, decompose
# neither is called here: perfbench's self-test pins exact.assemble_total
# and exact.effective_trajectory as bindings its tracer patches
from .model import assemble_total
from .effective import effective_trajectory
from .results import PropagationResult, time_grid

EIGVAL_CUT = 1e-12
# Highest order of the truncated series dyson_truncated computes.
SERIES_MAX_ORDER = 4
# Complex entries per block of (sector dim x times x branches) amplitudes.
AMPLITUDE_CHUNK = 1 << 20


@dataclass(frozen=True)
class FiniteMRun:
    """One finite-size propagation problem.

    m_count, the site count, is checked first by reservoir.check_site_count
    and kept as an int. Every coupling's site interaction is checked to exist
    and to act on no more than m_count sites. components holds
    reservoir.decompose of the reservoir state and sectors its _plan, both
    made and checked here.
    """

    sys: SystemModel
    site: SiteModel
    m_count: int
    reservoir_state: object
    rho_s0: DensityMatrix
    grid: np.ndarray
    components: list = field(init=False, repr=False, compare=False)
    sectors: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "m_count", check_site_count(self.m_count))
        grid = time_grid(self.grid)
        if self.rho_s0.dim != self.sys.dim:
            raise ValidationError(
                f"system state dim {self.rho_s0.dim} does not match model "
                f"dim {self.sys.dim}")
        check_couplings(self.sys, self.site)
        for k, v in enumerate(self.site.interactions):
            if len(v.dims) > self.m_count:
                raise ValidationError(
                    f"interaction {k} acts on {len(v.dims)} sites, more than "
                    f"the site count {self.m_count}")
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "components", decompose(
            self.reservoir_state, self.m_count, self.site.dim))
        object.__setattr__(self, "sectors", _plan(self))

    @property
    def joint_dim(self) -> int:
        return self.sys.dim * self.site.dim ** self.m_count


def _root(rho: DensityMatrix) -> np.ndarray:
    """Square-root factor R of rho, R R^dagger = rho: the columns sqrt(p) v
    of its eigenpairs with p above EIGVAL_CUT."""
    evals, vecs = np.linalg.eigh(rho.data)
    keep = evals > EIGVAL_CUT
    return vecs[:, keep] * np.sqrt(evals[keep])


# Symmetric sectors, keyed by (part sizes in descending order, shift).

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


def _sector_dim(sizes, d: int) -> int:
    return math.prod(math.comb(n + d - 1, d - 1) for n in sizes)


def _check_work(dims: dict, d: int, d_sys: int) -> None:
    """Refuse sectors {key: dimension} whose dense eigendecompositions
    together cost more than one sector at the dense cutoff:
    sum (d_sys dim)^3 > DENSE_CUTOFF^3."""
    work = sum((d_sys * n) ** 3 for n in dims.values())
    if work > DENSE_CUTOFF ** 3:
        (sizes, shift), dim = max(dims.items(), key=lambda kv: kv[1])
        raise ResourceLimitError(
            f"symmetric sectors need dense work sum (system dim x sector "
            f"dim)^3 = {work:.3e} > {DENSE_CUTOFF}^3; the largest, part "
            f"sizes {sizes} with shift {shift} on site dimension {d}, has "
            f"dimension {dim}, {d_sys * dim} with system dimension {d_sys}")


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
    i, j = np.array(list(itertools.permutations(range(d), 2)),
                    dtype=int).reshape(-1, 2).T
    # every (row, i != j) with a particle to move from level j to level i
    src, hop = np.nonzero(occ[:, j])
    i, j = i[hop], j[hop]
    dst = occ[src]
    dst[np.arange(src.size), i] += 1
    dst[np.arange(src.size), j] -= 1
    tgt = np.array([index[row] for row in map(tuple, dst.tolist())],
                   dtype=int)
    amp = np.sqrt(occ[src, j] * (occ[src, i] + 1.0))

    def build(x: np.ndarray) -> np.ndarray:
        out = np.diag((occ @ np.diagonal(x)).astype(complex))
        out[tgt, src] += x[i, j] * amp
        return out
    return build


def _sector_hamiltonian(run: FiniteMRun, one_body):
    """sector key -> (free, coupling): the parts h_sys (x) 1 + 1 (x) C(h)
    and sum_c G_c (x) N(V_c) / perm(M, nu_c) of the joint Hamiltonian on
    system x sector, each a square array, for coupling c's interaction V_c
    on nu_c sites.

    On a sector of part sizes (n_1..n_k) and shift s the collective sum of a
    site operator x is C(x) = sum_p B_{n_p}(x) + s tr(x), each B written
    through a view of the (dims.., dims..) array in place of Kronecker
    products with identities. The system operators are embedded once per
    run; per sector, the d^2 collective sums of unit matrices are built once,
    N(V) once per interaction whatever the number of couplings to it, and
    all-zero blocks of the normal-ordering recursion are skipped.
    """
    d, d_sys = run.site.dim, run.sys.dim
    h_sys = run.sys.h_full()
    interactions = run.site.interactions
    terms = [(run.sys.coupling_full(c), c.v_index) for c in run.sys.couplings]

    def build(key):
        sizes, shift = key
        dims = [_sector_dim((n,), d) for n in sizes]
        dim = math.prod(dims)

        def collective(x: np.ndarray) -> np.ndarray:
            out = np.zeros((dim, dim), dtype=complex)
            np.einsum("ii->i", out)[:] = shift * np.trace(x)
            for p, n in enumerate(sizes):
                add_embedded(out, one_body(n)(x), math.prod(dims[:p]),
                             math.prod(dims[p + 1:]))
            return out

        @functools.cache
        def unit_collective(a: int, c: int) -> np.ndarray:
            unit = np.zeros((d, d))
            unit[a, c] = 1.0
            return collective(unit)

        def ordered_sum(v: np.ndarray, nu: int) -> np.ndarray:
            """Sum of the nu-site operator v over ordered nu-tuples of
            distinct sites, by normal ordering: N(x_1..x_nu) =
            N(x_1..x_{nu-1}) C(x_nu) - sum_{j<nu} N(x_1, .., x_j x_nu, ..,
            x_{nu-1})."""
            if nu == 1:
                return collective(v)
            t = v.reshape((d,) * (2 * nu))
            size = d ** (nu - 1)
            out = np.zeros((dim, dim), dtype=complex)
            for a, c in itertools.product(range(d), repeat=2):
                rest = t[(slice(None),) * (nu - 1) + (a,)][..., c]
                if rest.any():
                    out += (ordered_sum(rest.reshape(size, size), nu - 1)
                            @ unit_collective(a, c))
            rows, cols, z = list(range(nu - 1)), list(range(nu, 2 * nu)), 2 * nu
            for j in range(nu - 1):
                # factor j times the last factor: sum over the shared index z
                x_j_x_nu = np.einsum(
                    t, rows + [z] + cols[:j] + [z] + cols[j + 1:],
                    rows + cols[:j] + cols[-1:] + cols[j + 1:-1])
                if x_j_x_nu.any():
                    out -= ordered_sum(x_j_x_nu.reshape(size, size), nu - 1)
            return out

        size = d_sys * dim
        free = add_embedded(np.zeros((size, size), dtype=complex), h_sys, 1,
                            dim)
        add_embedded(free, collective(run.site.h.data), d_sys, 1)
        coupling = np.zeros((d_sys, dim, d_sys, dim), dtype=complex)
        sums = {k: ordered_sum(interactions[k].data, len(interactions[k].dims))
                for k in {k for _, k in terms}}
        for g, k in terms:
            coupling += (g[:, None, :, None] * sums[k][None, :, None]
                         ) / math.perm(run.m_count, len(interactions[k].dims))
        return free, coupling.reshape(size, size)
    return build


# Reservoir branches (shift, [(part sizes, make)]): make(one_body) forms the
# factor's square-root-weighted columns, and the Khatri-Rao product of a
# branch's factors spans its kets.

def _spin_blocks(omega: np.ndarray, n: int, root: np.ndarray):
    """omega^{(x)n} for a rank-2 qubit state of root factor columns
    sqrt(p_lo) v_lo, sqrt(p_hi) v_hi, p_lo <= p_hi, one branch per total
    spin j = n/2 - k, k = 0..n/2, yielded as it is asked for.

    The n sites split into C(n, k) - C(n, k-1) copies of the GL(2) irrep
    Sym^{2j} (x) det^k, on which a site sum acts as B_2j(x) + k tr(x) and
    omega as det(omega)^k Sym^{2j}(omega). So one part of 2j sites with
    shift k stands for every copy. Its 2j+1 kets are the eigenvectors of the
    tridiagonal B_2j(omega), whose eigenvalue a p_hi + (2j - a) p_lo rises
    with a, each scaled by the root of its weight mult (p_lo p_hi)^k p_hi^a
    p_lo^{2j-a}; for p_lo = p_hi any basis serves.
    """
    log_lo, log_hi = np.log((np.abs(root) ** 2).sum(axis=0)).tolist()

    def kets(k, one_body):
        size = n - 2 * k
        log_mult = math.log(math.comb(n, k) - (k and math.comb(n, k - 1)))
        a = np.arange(size + 1)
        root_w = np.exp(0.5 * (log_mult + k * (log_lo + log_hi)
                               + a * log_hi + (size - a) * log_lo))
        return np.linalg.eigh(one_body(size)(omega))[1] * root_w
    for k in range(n // 2 + 1):
        yield k, [((n - 2 * k,) if n > 2 * k else (),
                   functools.partial(kets, k))]


def _compositions(n: int, root: np.ndarray):
    """One branch per composition c of n over the columns r_i of root, the
    ket sqrt(multinomial(n; c)) (x)_i r_i^{(x)c_i}: the scalar factor
    sqrt(multinomial) and the power kets, each of r_i = sqrt(p_i) v_i
    already carrying p_i^{c_i/2}; yielded as they are asked for."""
    log_fact = [math.lgamma(k + 1) for k in range(n + 1)]
    for comp in _occupations(n, root.shape[1]):
        mult = math.exp(0.5 * (log_fact[n] - sum(log_fact[k] for k in comp)))
        yield 0, ([((), lambda _, m=mult: np.full((1, 1), m))]
                  + [((k,), lambda _, c=col, k=k: _power_ket(c, k)[:, None])
                     for k, col in zip(comp, root.T) if k])


def _product_branches(site_state: DensityMatrix, n: int, d: int):
    """(largest, branches) of site_state^{(x)n}: the part sizes of its
    largest sector and its branches, listed only when they are iterated:
    the spin blocks of a rank-2 qubit state, the largest j = n/2, else the
    compositions over its root factor's columns, the most even the
    largest."""
    root = _root(site_state)
    r = root.shape[1]
    if d == 2 and r == 2:
        return (n,), _spin_blocks(site_state.data, n, root)
    return (tuple(n // r + (i < n % r) for i in range(min(n, r))),
            _compositions(n, root))


def _khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Columns a_i (x) b_j for every pair (i, j)."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], -1)


def _plan(run: FiniteMRun) -> dict:
    """The run's sectors, {key: (dimension, members)}, checked by the one
    work rule, _check_work; no column is formed. Each component's largest
    sector is checked first, before its branches are listed, so a large M
    is refused at once. A member is one branch, (w, makes): its component's
    weight and its factors' makers, sorted by part size, so that their
    Khatri-Rao product is in sector order and branches that differ only in
    part order share a sector."""
    d, d_sys = run.site.dim, run.sys.dim
    sectors = {}
    for w, parts, block in run.components:
        found = [_product_branches(s, n, d) for n, s in parts]
        if block is not None:
            ones = (1,) * len(block.dims)
            found.insert(0, (ones, [(0, [(ones,
                                          lambda _, b=block: _root(b))])]))
        # the component's largest sector, checked before a branch is listed
        top = sorted(sum((sizes for sizes, _ in found), ()), reverse=True)
        _check_work({(tuple(top), 0): _sector_dim(top, d)}, d, d_sys)
        for combo in itertools.product(*(branches for _, branches in found)):
            sizes, makes = zip(*sorted((f for _, fs in combo for f in fs),
                                       key=lambda f: -max(f[0], default=0)))
            key = (sum(sizes, ()), sum(s for s, _ in combo))
            sectors.setdefault(key, []).append((w, makes))
    dims = {key: _sector_dim(key[0], d) for key in sectors}
    _check_work(dims, d, d_sys)
    return {key: (dims[key], members) for key, members in sectors.items()}


def _sectors(run: FiniteMRun):
    """({sector key: columns}, diagnostics, _sector_hamiltonian's builder):
    a square-root factor of the initial joint state on each system x
    sector, renormalized by the squared norm kept after the EIGVAL_CUT cut.
    A member of weight w contributes sqrt(w), the system's R and its
    factors, each formed once per call from the run's plan and not kept.
    """
    d = run.site.dim
    # each one-body map is built once per call, for spin blocks and sectors
    one_body = functools.cache(lambda n: _one_body(n, d))
    form = functools.cache(lambda make: make(one_body))
    root = _root(run.rho_s0)
    # sqrt(w) times the system's R first: rows are system x sector
    columns = {key: np.concatenate(
        [functools.reduce(_khatri_rao, (math.sqrt(w) * root,)
                          + tuple(map(form, makes)))
         for w, makes in members], axis=1)
        for key, (_, members) in run.sectors.items()}
    kept = sum(np.vdot(c, c).real for c in columns.values())
    if kept <= 0:
        raise ValidationError("initial joint state has no weight left")
    for c in columns.values():
        c /= math.sqrt(kept)
    diag = {"path": "symmetric-sector",
            "branches": sum(c.shape[1] for c in columns.values()),
            "sectors": len(columns),
            "max_sector_dim": max(dim for dim, _ in run.sectors.values()),
            "branch_mass_defect": max(0.0, float(1.0 - kept))}
    return columns, diag, _sector_hamiltonian(run, one_body)


def _eigenbasis_cheaper(d_sys: int, dim: int, n_cols: int,
                        n_times: int) -> bool:
    """Whether _trace_eigenbasis costs less on a sector than
    _trace_amplitudes, by multiply-adds for n = d_sys dim, T times and c
    columns: d_sys(d_sys+1)/2 (n^2 dim + T n^2) against T n^2 c."""
    return d_sys * (d_sys + 1) // 2 * (dim + n_times) < n_times * n_cols


def _trace_amplitudes(evals, emat, phi, grid, d_sys: int) -> np.ndarray:
    """(T, d_sys, d_sys) partial trace over the sector of a a^dagger, for
    the amplitudes a = emat e^{-i evals t} phi of the columns phi given in
    the eigenbasis, formed in time chunks of AMPLITUDE_CHUNK entries."""
    dim, n_cols = phi.shape
    out = np.empty((grid.size, d_sys, d_sys), dtype=complex)
    step = max(1, AMPLITUDE_CHUNK // phi.size)
    for lo in range(0, grid.size, step):
        ts = grid[lo:lo + step]
        ph = np.exp(-1j * np.multiply.outer(evals, ts))
        a = emat @ (ph[:, :, None] * phi[:, None, :]).reshape(dim, -1)
        a = a.reshape(d_sys, -1, ts.size, n_cols).transpose(2, 0, 1, 3)
        a = a.reshape(ts.size, d_sys, -1)
        out[lo:lo + step] = a @ a.conj().transpose(0, 2, 1)
    return out


def _trace_eigenbasis(evals, emat, phi, grid, d_sys: int) -> np.ndarray:
    """The same partial trace contracted in the eigenbasis, with no cost per
    column: for Phi = phi phi^dagger, the row blocks E_s of emat (system
    index s) and u = e^{-i evals t}, rho_ss'(t) = u^T G_ss' conj(u) with
    G_ss' = (E_s^T conj(E_s')) o Phi. Each G with s <= s' is formed once
    and contracted in time chunks of AMPLITUDE_CHUNK entries of u, so a few
    n x n arrays are held at once; s > s' are the conjugates, so each state
    is Hermitian by construction."""
    n = evals.size
    rows = emat.reshape(d_sys, -1, n)
    big_phi = phi @ phi.conj().T
    out = np.empty((grid.size, d_sys, d_sys), dtype=complex)
    step = max(1, AMPLITUDE_CHUNK // n)
    for s, r in itertools.combinations_with_replacement(range(d_sys), 2):
        g = rows[s].T @ rows[r].conj()
        g *= big_phi
        for lo in range(0, grid.size, step):
            u = np.exp(-1j * np.multiply.outer(grid[lo:lo + step], evals))
            # vecdot conjugates its first argument: sum_k conj(u_k) (u G)_k
            out[lo:lo + step, s, r] = np.vecdot(u, u @ g)
    upper, lower = np.triu_indices(d_sys, 1)
    out[:, lower, upper] = out[:, upper, lower].conj()
    np.einsum("tii->ti", out).imag = 0.0
    return out


def propagate_exact(run: FiniteMRun) -> PropagationResult:
    """Reduced system trajectory of the full finite-size dynamics.

    Each sector's root-factor columns are written in its eigenbasis and
    traced over the sector in one of two ways, whichever _eigenbasis_cheaper
    finds cheaper from the sector's size, column count and the number of
    times: as amplitudes evolved per column (about T n^2 c multiply-adds,
    n = system dim x sector dim, c columns), or contracted in the
    eigenbasis with no per-column cost (about d_sys(d_sys+1)/2 (n^2 dim +
    T n^2)). One-column sectors, such as those of a pure product, take the
    first; spin blocks of rank-2 sites, with c near the sector dimension,
    the second. Diagnostics: path, branches (root-factor columns: one per
    system column and reservoir ket, 2j+1 kets for a spin block), sectors
    (distinct keys of part sizes and shift), eigenbasis_sectors (sectors
    contracted in their eigenbasis), max_sector_dim (largest reservoir
    sector dimension), branch_mass_defect (weight cut with near-zero
    eigenvalues) and max_norm_drift.
    """
    columns, diag, hamiltonian = _sectors(run)
    d_sys, grid = run.sys.dim, run.grid
    acc = np.zeros((grid.size, d_sys, d_sys), dtype=complex)
    diag["eigenbasis_sectors"] = 0
    for key, cols in columns.items():
        h, coupling = hamiltonian(key)
        h += coupling
        evals, emat = np.linalg.eigh(h)
        del h, coupling  # the contraction below holds n x n arrays of its own
        phi = emat.conj().T @ cols
        trace = _trace_amplitudes
        if _eigenbasis_cheaper(d_sys, evals.size // d_sys, phi.shape[1],
                               grid.size):
            trace = _trace_eigenbasis
            diag["eigenbasis_sectors"] += 1
        acc += trace(evals, emat, phi, grid, d_sys)
    norms = np.trace(acc, axis1=1, axis2=2).real
    diag["max_norm_drift"] = float(np.max(np.abs(norms - 1.0)))
    return PropagationResult.from_stack(grid, acc, run.rho_s0.dims, diag)


# Truncated interaction-picture series.

def check_series_block(run: FiniteMRun, order: int) -> None:
    """The series oracle's rules, checked by dyson_truncated and by a config
    before any work: an order outside 0..SERIES_MAX_ORDER is refused, and
    then a series whose block matrix on the run's largest sector,
    (order + 1) x system dim x sector dim, passes the dense cutoff, the
    dimensions read from the run's plan. Each refusal names its argument."""
    if not 0 <= order <= SERIES_MAX_ORDER:
        raise ValidationError(
            f"series order must be between 0 and {SERIES_MAX_ORDER}",
            arg="order")
    n = run.sys.dim * max(dim for dim, _ in run.sectors.values())
    if (order + 1) * n > DENSE_CUTOFF:
        raise ResourceLimitError(
            f"series oracle is dense only; block dimension {(order + 1) * n} "
            f"= (order {order} + 1) x {n} > {DENSE_CUTOFF}", arg="run")


def dyson_truncated(run: FiniteMRun, order: int) -> np.ndarray:
    """Short-time series oracle for the reduced state at each time of
    run.grid, as an unnormalized (T, d, d) stack.

    The initial joint state enters as the same square-root factors on
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
    the truncation error honestly. An order or a run check_series_block
    refuses is refused before any sector is formed.
    """
    from scipy.linalg import expm  # lazy: scipy is slow to import
    check_series_block(run, order)
    if run.grid[0] < 0:
        raise ValidationError("time must be nonnegative")
    columns, _, hamiltonian = _sectors(run)
    d_sys = run.sys.dim
    red = np.zeros((run.grid.size, d_sys, d_sys), dtype=complex)
    for key, cols in columns.items():
        free, coupling = hamiltonian(key)
        dim = free.shape[0]
        series = (np.kron(np.eye(order + 1), free)
                  + np.kron(np.eye(order + 1, k=1), coupling))
        for k, t in enumerate(run.grid.tolist()):
            row = expm(-1j * t * series)[:dim]
            # S_j and S_0+..+S_j applied to the branch columns
            a = row.reshape(dim, order + 1, dim).transpose(1, 0, 2) @ cols
            b = np.cumsum(a, axis=0)
            a, b = (x.reshape(order + 1, d_sys, -1) for x in (a, b))
            # with rho0 = cols cols^dagger, sum_{j+l<=n} S_j rho0 S_l^dagger
            # = sum_j S_j rho0 (S_0+..+S_{n-j})^dagger, traced over the sector
            red[k] += sum(a[j] @ b[order - j].conj().T
                          for j in range(order + 1))
    if not np.all(np.isfinite(red)):
        raise ToleranceError(f"series oracle lost the float range by "
                             f"t = {run.grid[-1]:g}")
    return red
