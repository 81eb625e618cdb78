"""Reservoir ensemble states, their multi-time moments, and growth bounds.

Four ensemble families are supported: plain site products, channel-correlated
states built by averaging a local channel over all placements, finite
exchangeable mixtures of products, and block ensembles whose site fractions
are prescribed. Each is a weighted mixture of products of independent sites:
decompose gives that mixture on M sites, limit_atoms the (weight, site state)
pairs left as M -> infinity; check_site_count, which decompose calls first,
is the one raise site for an M that is not a positive integer. Moments of
the site-averaged interaction and the factorization bound are exact sums
over index partitions of local contractions on that mixture, at any M. The
expectation Tr(rho^{(x)nu} e^{ith} V e^{-ith}) of an interaction V on nu
sites, h the site Hamiltonian summed over them, is the scalar signal of the
limit dynamics, and for nu = 1 of the factorized product: a
QuasiPeriodicSignal of exact mirror pairs, real by construction and checked
exactly per |f| slot. A MomentRun, built once per check and M by the
config and read by the run, checks and prepares the moments' input: a
one-site first interaction, an M^n in the float range for n times, and
work within MOMENT_WORK_CAP, counted before any is done.

The bound helpers at the bottom give per-order moment constants for
coherent oscillator ensembles.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .model import SiteModel
from .operators import DensityMatrix, add_embedded

WEIGHT_ATOL = 1e-12
KRAUS_ATOL = 1e-10
SIGNAL_IMAG_ATOL = 1e-10
# level gaps closer than this, relative to the largest |level|, are one term
MERGE_ATOL = 1e-9
# index assignments or tuple placements one moment or bound may visit
MOMENT_WORK_CAP = 100_000


def check_weights(weights, what: str) -> None:
    """Refuse weights that do not form a distribution: none, a non-finite
    or negative one, or a sum off 1 by more than WEIGHT_ATOL."""
    w = np.array(weights, dtype=float)
    if w.size == 0:
        raise ValidationError(f"{what}: need at least one entry")
    if not np.isfinite(w).all():
        raise ValidationError(f"{what}: non-finite weight in {w.tolist()}")
    if (w < 0).any():
        raise ValidationError(f"{what}: negative weight {w.min():.3e}")
    if abs(w.sum() - 1.0) > WEIGHT_ATOL:
        raise ValidationError(f"{what}: weights sum to {w.sum():.15f}, not 1")


def _weighted_states(pairs, what: str, states: str):
    """pairs as (float, state), checked to be a distribution over states of
    one dimension."""
    pairs = tuple((float(w), s) for w, s in pairs)
    check_weights([w for w, _ in pairs], what)
    dims = {s.dim for _, s in pairs}
    if len(dims) != 1:
        raise ValidationError(f"{states} have mixed dims {sorted(dims)}")
    return pairs


def kraus_defect(kraus: Sequence[np.ndarray]) -> float:
    """Max-abs deviation of sum K_i^dag K_i from the identity; infinite for
    a Kraus operator with a non-finite entry."""
    if not all(np.isfinite(k).all() for k in kraus):
        return math.inf
    acc = sum(k.conj().T @ k for k in kraus)
    return float(np.max(np.abs(acc - np.eye(acc.shape[0]))))


def apply_kraus(kraus: Sequence[np.ndarray], rho: np.ndarray) -> np.ndarray:
    return sum(k @ rho @ k.conj().T for k in kraus)


@dataclass(frozen=True)
class ProductState:
    """All sites independently in the same state."""

    site_state: DensityMatrix

    @property
    def site_dim(self) -> int:
        return self.site_state.dim

    def components(self, m_count: int):
        return [(1.0, ((m_count, self.site_state),), None)]

    def limit_atoms(self):
        return [(1.0, self.site_state)]


@dataclass(frozen=True)
class ChannelCorrelated:
    """Product state with a local channel averaged over all placements.

    The channel acts on corr_length adjacent sites; the ensemble is the
    uniform average of it applied at every possible position.
    """

    site_state: DensityMatrix
    corr_length: int
    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.corr_length < 1:
            raise ValidationError("correlation length must be >= 1")
        d_block = self.site_state.dim ** self.corr_length
        kraus = tuple(np.array(k, dtype=complex) for k in self.kraus)
        if not kraus:
            raise ValidationError("need at least one Kraus operator")
        for k in kraus:
            if k.shape != (d_block, d_block):
                raise ValidationError(
                    f"Kraus operator shape {k.shape} does not match block dim {d_block}")
            k.setflags(write=False)
        defect = kraus_defect(kraus)
        if defect > KRAUS_ATOL:
            raise ValidationError(
                f"Kraus completeness defect {defect:.2e} exceeds {KRAUS_ATOL}")
        object.__setattr__(self, "kraus", kraus)

    @property
    def site_dim(self) -> int:
        return self.site_state.dim

    def components(self, m_count: int):
        # site-symmetric dynamics treats every placement of the channel
        # alike, so the one on the first corr_length sites stands for all
        L, d = self.corr_length, self.site_dim
        if m_count < L:
            raise ValidationError(
                f"need at least {L} sites for correlation length {L}, "
                f"got {m_count}")
        block = apply_kraus(self.kraus, kron_power(self.site_state.data, L))
        parts = ((m_count - L, self.site_state),) if m_count > L else ()
        return [(1.0, parts, DensityMatrix(block, (d,) * L, validate=False))]

    def limit_atoms(self):
        return [(1.0, self.site_state)]


@dataclass(frozen=True)
class DeFinettiMixture:
    """Convex mixture of site-product ensembles."""

    atoms: tuple[tuple[float, DensityMatrix], ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", _weighted_states(
            self.atoms, "mixture weights", "mixture atoms"))

    @property
    def site_dim(self) -> int:
        return self.atoms[0][1].dim

    def components(self, m_count: int):
        return [(w, ((m_count, s),), None) for w, s in self.atoms]

    def limit_atoms(self):
        return list(self.atoms)


@dataclass(frozen=True)
class MacroscopicParts:
    """Sites split into blocks with prescribed fractions and block states."""

    parts: tuple[tuple[float, DensityMatrix], ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", _weighted_states(
            self.parts, "part fractions", "part states"))

    @property
    def site_dim(self) -> int:
        return self.parts[0][1].dim

    def components(self, m_count: int):
        counts = largest_remainder_counts([f for f, _ in self.parts], m_count)
        return [(1.0, tuple((c, s) for (_, s), c in zip(self.parts, counts)
                            if c > 0), None)]

    def limit_atoms(self):
        acc = sum(f * s.data for f, s in self.parts)
        return [(1.0, DensityMatrix(acc, (self.site_dim,)))]


ReservoirState = ProductState | ChannelCorrelated | DeFinettiMixture | MacroscopicParts


def largest_remainder_counts(fractions: Sequence[float], m_count: int) -> list[int]:
    """Integer site counts per part, summing to m_count: the normalised
    fractions allocated in exact rationals by floor, the remainder to the
    largest fractional parts, ties broken by part order."""
    exact = [Fraction(f) for f in fractions]
    raw = [f * m_count / sum(exact) for f in exact]
    order = sorted(range(len(raw)), key=lambda k: math.floor(raw[k]) - raw[k])
    extra = order[:m_count - sum(map(math.floor, raw))]
    return [math.floor(r) + (k in extra) for k, r in enumerate(raw)]


def check_site_count(m_count) -> int:
    """m_count as an int; the one raise site for a site count that is not a
    positive integer: a bool, a float, 0 or a negative number."""
    if (isinstance(m_count, bool) or not isinstance(m_count, (int, np.integer))
            or m_count < 1):
        raise ValidationError(f"site count must be a positive integer, got "
                              f"{m_count!r}", arg="m_count")
    return int(m_count)


def decompose(state, m_count: int, site_dim: int):
    """The ensemble on m_count sites as the weighted sum over components
    (weight, parts, block) of block (x) s_1^{(x)n_1} (x) ..., where parts
    holds (n, s) pairs with n > 0 and block is None or an explicit state on
    the first sites: the channel block, or an explicit DensityMatrix
    reservoir on all m_count sites, which check_site_count checks first."""
    m_count = check_site_count(m_count)
    if isinstance(state, DensityMatrix):
        if state.dims != (site_dim,) * m_count:
            raise ValidationError(
                f"explicit reservoir factors {state.dims} do not match "
                f"{m_count} sites of dim {site_dim}")
        return [(1.0, (), state)]
    if state.site_dim != site_dim:
        raise ValidationError(
            f"reservoir site state dim {state.site_dim} does not match "
            f"site dim {site_dim}")
    return state.components(m_count)


def kron_power(mat: np.ndarray, count: int) -> np.ndarray:
    """mat (x) ... (x) mat, count factors; the identity of dim 1 for none."""
    out = np.eye(1, dtype=complex)
    for _ in range(count):
        out = np.kron(out, mat)
    return out


def limit_atoms(state: ReservoirState):
    """The (weight, site state) pairs the ensemble leaves as M -> infinity."""
    if isinstance(state, DensityMatrix):
        raise ValidationError(f"an explicit {len(state.dims)}-site reservoir "
                              f"state has no M -> infinity limit")
    return state.limit_atoms()


def reference_site_state(state: ReservoirState) -> DensityMatrix:
    """Single-site state entering the factorized comparison product: the
    weighted average of the limit atoms."""
    acc = sum(w * s.data for w, s in limit_atoms(state))
    return DensityMatrix(acc, (state.site_dim,))


# Single-site expectation of the evolved interaction operator.

def site_signal_terms(rho: np.ndarray, h: np.ndarray, v: np.ndarray):
    """Frequencies and coefficients of t -> Tr(rho e^{ith} v e^{-ith}): a real
    constant, the terms (g, z) of the gaps g > 0 in ascending order, then their
    exact mirrors (-g, conj z). z sums (c_lk + conj c_kl) / 2, c_kl = rho_lk
    v_kl in h's eigenbasis, over the level pairs k < l of gap g; a sorted gap
    joins the run of the first gap within MERGE_ATOL (relative to the largest
    |level|) of it, and the run from 0 is the constant."""
    evals, vecs = np.linalg.eigh(h)
    c = (vecs.conj().T @ rho @ vecs).T * (vecs.conj().T @ v @ vecs)
    z = (c.T + c.conj()) / 2
    z.flat[::len(z) + 1] /= 2   # k = l is its own mirror: 2 Re z counts it once
    upper = np.arange(len(z))[:, None] <= np.arange(len(z))    # pairs k <= l
    gaps, z = (evals - evals[:, None])[upper], z[upper]
    order = np.argsort(gaps, kind="stable")
    gaps, z = gaps[order], z[order]
    tol = MERGE_ATOL * max(1.0, float(np.max(np.abs(evals))))
    starts = [0]
    while (end := np.searchsorted(gaps, gaps[starts[-1]] + tol, "right")) < gaps.size:
        starts.append(end)
    gaps, z = gaps[starts], np.add.reduceat(z, starts)
    return (np.concatenate([gaps, -gaps[1:]]),
            np.concatenate([2 * z[:1].real, z[1:], z[1:].conj()]))


# derivative orders 0, 1, 2 of QuasiPeriodicSignal.derivative_bounds
_DERIVATIVE_ORDERS = np.arange(3.0)[:, None]


@dataclass(frozen=True)
class QuasiPeriodicSignal:
    """Finite sum of complex exponentials with a real-valued total, evaluated
    as sum_f A_f cos(f t) - B_f sin(f t) over the |f| folded at construction;
    the total is real exactly when each slot's Im c and sign(f) Re c sum to 0.
    evaluate takes any times; substep_tables and lattice take the midpoint
    lattices of the limit stepper by angle addition."""

    freqs: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float).ravel()
        coeffs = np.asarray(self.coeffs, dtype=complex).ravel()
        if freqs.shape != coeffs.shape:
            raise ValidationError("frequency and coefficient counts differ")
        if not (np.isfinite(freqs).all() and np.isfinite(coeffs).all()):
            raise ValidationError("signal frequencies and coefficients must be finite")
        freqs.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "coeffs", coeffs)
        folded, slot = np.unique(np.abs(freqs), return_inverse=True)
        sign = np.sign(freqs)
        cos_amps, sin_amps, imag, odd = (
            np.bincount(slot, w, len(folded)) for w in
            (coeffs.real, sign * coeffs.imag, coeffs.imag, sign * coeffs.real))
        worst = float(np.abs(np.concatenate([imag, odd])).max(initial=0.0))
        if worst > SIGNAL_IMAG_ATOL:
            raise ValidationError(
                f"signal has imaginary residue {worst:.2e}; terms not conjugate-paired")
        object.__setattr__(self, "_folded", (folded, cos_amps, sin_amps))
        # lattice's e^{-i f T} rates and conjugated amplitudes A_f - i B_f
        object.__setattr__(self, "_phasors",
                           (-1j * folded, cos_amps - 1j * sin_amps))

    def evaluate(self, t):
        """The signal at t, a float for scalar t, else an array of t's shape."""
        freqs, cos_amps, sin_amps = self._folded
        phase = np.multiply.outer(np.asarray(t, dtype=float), freqs)
        vals = np.cos(phase) @ cos_amps - np.sin(phase) @ sin_amps
        return float(vals) if vals.ndim == 0 else vals

    def substep_tables(self, lengths, count: int) -> np.ndarray:
        """cos(f tau) and sin(f tau) at tau = (r + 1/2) h for each substep
        length h in lengths, r < count and each folded |f|, interleaved on
        the last axis, shape (len(lengths), count, 2 slots): the per-substep
        factors that lattice reuses across interval starts."""
        tau = np.multiply.outer(np.multiply.outer(
            lengths, np.arange(0.5, count)), self._folded[0])
        tables = np.empty(tau.shape + (2,))
        np.cos(tau, out=tables[..., 0])
        np.sin(tau, out=tables[..., 1])
        return tables.reshape(tau.shape[:2] + (-1,))

    def lattice(self, starts, tables: np.ndarray, which, count: int):
        """The signal at starts[k] + (r + 1/2) h_k for r < count, shape
        (len(starts), count), h_k the length of row k of tables[which]
        (tables built by substep_tables). By angle addition, s(T + tau) =
        sum_f Re(z_f e^{i f tau}) with z_f = (A_f + i B_f) e^{i f T}, so the
        sines and cosines are taken once per start and once per table
        entry, not once per point."""
        rates, amps = self._phasors
        z = np.exp(np.multiply.outer(starts, rates))
        z *= amps   # conj(z_f), so that it pairs with (cos, sin)
        return (tables[which, :count] @ z.view(float)[..., None])[..., 0]

    def derivative_bounds(self) -> np.ndarray:
        """Upper bounds on sup|s|, sup|s'| and sup|s''| over all t: the j-th
        derivative of a slot has amplitude |f|^j hypot(A_f, B_f)."""
        freqs, cos_amps, sin_amps = self._folded
        return (freqs ** _DERIVATIVE_ORDERS) @ np.hypot(cos_amps, sin_amps)

    @classmethod
    def constant(cls, value: float) -> "QuasiPeriodicSignal":
        return cls(np.array([0.0]), np.array([complex(value)]))


def check_interacting(site: SiteModel) -> None:
    """Refuse a site without an interaction operator (no signal, no moment)."""
    if not site.interactions:
        raise ValidationError("site has no interaction operator")


def check_moment_site(site: SiteModel) -> None:
    """Refuse a site the moment functions cannot take: one without an
    interaction, or whose first interaction acts on more than one site."""
    check_interacting(site)
    nu = len(site.interactions[0].dims)
    if nu != 1:
        raise ValidationError(
            f"moments need a one-site first interaction, it acts on {nu} sites")


def _site_signals(rho: DensityMatrix, site: SiteModel):
    """Yield the signal of each site interaction in order, built as it is
    asked for; the rules are checked before the first one. An interaction on
    nu sites sees rho^{(x)nu} under the site Hamiltonian summed over them,
    each term written in place by operators.add_embedded; nu = 1 takes the
    same path and gives rho and the site Hamiltonian themselves."""
    if rho.dim != site.dim:
        raise ValidationError(
            f"state dim {rho.dim} does not match site dim {site.dim}")
    check_interacting(site)
    d = site.dim
    for v in site.interactions:
        nu = len(v.dims)
        h = np.zeros((v.dim, v.dim), dtype=complex)
        for j in range(nu):
            add_embedded(h, site.h.data, d ** j, d ** (nu - 1 - j))
        yield QuasiPeriodicSignal(*site_signal_terms(kron_power(rho.data, nu),
                                                     h, v.data))


def site_signals(rho: DensityMatrix, site: SiteModel) -> tuple:
    """One QuasiPeriodicSignal t -> Tr(rho^{(x)nu} e^{ith} v e^{-ith}) per
    site interaction v on nu sites, in order, h the site Hamiltonian summed
    over them (operators.add_embedded, the package's one tensor embedding),
    for a state of the site's dimension."""
    return tuple(_site_signals(rho, site))


def site_expectation(state: DensityMatrix, site: SiteModel, t):
    """Expectation of the site's first interaction operator evolved by the
    site Hamiltonian: the QuasiPeriodicSignal of the limit dynamics, a float
    for scalar t, else an array of t's shape. Only that signal is built."""
    return next(_site_signals(state, site)).evaluate(t)


# Multi-time moments of the site-averaged interaction.

def set_partitions(items: Sequence[int]):
    """All partitions of items into nonempty blocks, each block in input order."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def _block_contraction(block: DensityMatrix, vecs: np.ndarray):
    """ops {position l: X_l} -> Tr(block (x)_l X_l), the X_l in the site
    eigenbasis vecs; the block's other positions are traced out."""
    L = len(block.dims)
    u = kron_power(vecs, L)
    tensor = (u.conj().T @ block.data @ u).reshape(block.dims * 2)

    def contract(ops) -> complex:
        args = [tensor, [*range(L)] + [L + l if l in ops else l for l in range(L)]]
        for l, x in ops.items():
            args += [x, [L + l, l]]
        return complex(np.einsum(*args, []))
    return contract


def _touchard(n: int, x: int) -> int:
    """sum_k S(n, k) x^k over the Stirling numbers S(n, k) of the second
    kind: the maps of the set partitions of n items into x labels."""
    row = [1]  # S(j, k) for k = 0..j
    for j in range(n):
        row = [0] + [k * a + b for k, a, b in
                     zip(range(1, j + 2), row[1:] + [0], row)]
    return sum(c * x ** k for k, c in enumerate(row))


def _check_moment_work(components, m_count: int, n: int, bound: bool):
    """Refuse, before any is done, n-time moment work on the components of
    decompose past MOMENT_WORK_CAP: a component visits the _touchard(n,
    parts + L) index assignments of its moment and, when bound is set, a
    block of L sites the short^n (short - L + 1) tuple placements of its
    size bound, short as in _max_tuple_moment."""
    work = [("moment's index assignments", sum(
        _touchard(n, len(parts) + (0 if b is None else len(b.dims)))
        for _, parts, b in components))]
    for _, _, b in components if bound else ():
        if b is not None:
            short = min(m_count, (n + 1) * len(b.dims) - 1)
            work.append(("bound's tuple placements",
                         short ** n * (short - len(b.dims) + 1)))
    for what, count in work:
        if count > MOMENT_WORK_CAP:
            raise ResourceLimitError(f"the {n}-time {what} visit {count} "
                                     f"cases, past the cap of "
                                     f"{MOMENT_WORK_CAP}")


def _component_moment(parts, block, vecs: np.ndarray, product,
                      n: int) -> complex:
    """Moment of the site average over an optional block on the first L
    sites, then parts (count, site state) of identical independent sites.

    Sum over index-coincidence partitions of the time slots; each block of
    coincident indices is a single-site ordered product. The blocks landing
    on distinct positions of the explicit block give one contraction of it;
    the others land on distinct outside sites, counted by falling factorials
    per part. vecs and product are a MomentRun's.
    """
    L = 0 if block is None else len(block.dims)
    counts = [int(c) for c, _ in parts]
    rho_es = [vecs.conj().T @ s.data @ vecs for _, s in parts]
    contract = None if block is None else _block_contraction(block, vecs)
    total = 0.0 + 0.0j
    for partition in set_partitions(range(n)):
        slots = [tuple(b) for b in partition]
        block_vals = [[complex(np.trace(rho_e @ product(s))) for rho_e in rho_es]
                      for s in slots]
        # an entry p < 0 puts that coincidence block at block position L + p
        for assign in itertools.product(range(-L, len(parts)), repeat=len(slots)):
            inside = {L + p: product(s) for s, p in zip(slots, assign) if p < 0}
            weight = math.prod(math.perm(c, assign.count(p))
                               for p, c in enumerate(counts))
            if weight == 0 or len(inside) < sum(p < 0 for p in assign):
                continue
            val = math.prod(block_vals[b][p]
                            for b, p in enumerate(assign) if p >= 0)
            if inside:
                val *= contract(inside)
            total += weight * val
    return total / (sum(counts) + L) ** n


@dataclass(frozen=True)
class MomentRun:
    """The moments' input on m_count sites at the given times, checked in
    the order below and prepared once: m_count as an int, decompose's
    components, the site eigenvectors vecs and product(slots), the ordered
    product of the evolved first interaction at those time slots in that
    basis. A slot tuple's product reads only its own times, so one run
    serves the moment of each leading run of them."""

    state: object
    m_count: int
    site: SiteModel
    times: tuple[float, ...]
    bound: bool = False
    components: list = field(init=False, repr=False, compare=False)
    vecs: np.ndarray = field(init=False, repr=False, compare=False)
    product: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        if not times:
            raise ValidationError("need at least one time")
        if not all(math.isfinite(t) for t in times):
            raise ValidationError(f"moment times must be finite, got "
                                  f"{list(times)}")
        check_moment_site(self.site)
        m, n = self.m_count, len(times)  # the moment divides by M^n
        try:
            power = float(m) ** n
        except OverflowError:
            power = math.inf
        if not power < math.inf:
            raise ValidationError(f"M = {m} has an M^{n} past the float "
                                  f"range for {n} times", arg="m_count")
        components = decompose(self.state, m, self.site.dim)
        _check_moment_work(components, int(m), n, self.bound)
        evals, vecs = np.linalg.eigh(self.site.h.data)
        v_e = vecs.conj().T @ self.site.interactions[0].data @ vecs

        @functools.cache
        def product(slots: tuple[int, ...]) -> np.ndarray:
            prod = np.eye(len(evals), dtype=complex)
            for i in slots:
                ph = np.exp(1j * evals * times[i])
                prod = prod @ ((ph[:, None] * v_e) * ph.conj()[None, :])
            return prod
        self.__dict__.update(times=times, m_count=int(m), vecs=vecs,
                             components=components, product=product)


def multitime_moment(run: MomentRun, n: int | None = None) -> complex:
    """Ensemble moment of the site-averaged evolved first interaction at
    the run's first n times (all by default), in order, summed over the
    components of decompose. A block is contracted locally at its one
    placement, which gives the same site-averaged moment as every other, so
    no d^M object is built."""
    n = len(run.times) if n is None else n
    if (isinstance(n, bool) or not isinstance(n, (int, np.integer))
            or not 1 <= n <= len(run.times)):
        raise ValidationError(f"moment order must be an integer in "
                              f"1..{len(run.times)}, got {n!r}", arg="n")
    return sum(w * _component_moment(parts, block, run.vecs, run.product, n)
               for w, parts, block in run.components)


def _max_tuple_moment(parts, block: DensityMatrix, m_count: int,
                      vecs: np.ndarray, product, n: int) -> float:
    """Largest modulus, over all index tuples, of the fixed-site moment in
    the average of the block over its m_count - L + 1 placements, the other
    sites in the state of the single part.

    A placement whose window misses every site of the tuple gives the plain
    product of single-site factors; each other one contracts the block with
    the factors in its window. Those depend only on the gaps between the
    tuple's sites up to L and the end sites' distances from the ends of the
    line up to L - 1, so shrinking longer gaps and margins to these caps
    maps every tuple onto a line of at most (n + 1) L - 1 sites with the
    same moment, and the tuples of that line stand for all m_count^n.
    """
    L = len(block.dims)
    n_place = m_count - L + 1
    short = min(m_count, (n + 1) * L - 1)
    contract = _block_contraction(block, vecs)
    # with no part the block covers every site and no factor is used
    outside = parts[0][1].data if parts else np.zeros((len(vecs),) * 2)
    outside = vecs.conj().T @ outside @ vecs
    window = functools.cache(lambda inside: contract(
        {off: product(s) for off, s in inside}))
    best = 0.0
    for tup in itertools.product(range(short), repeat=n):
        slots = {j: tuple(i for i in range(n) if tup[i] == j)
                 for j in sorted(set(tup))}
        factor = {j: complex(np.trace(outside @ product(s)))
                  for j, s in slots.items()}
        plain = math.prod(factor.values())
        acc = n_place * plain
        for q in range(short - L + 1):
            inside = tuple((j - q, s) for j, s in slots.items() if q <= j < q + L)
            if inside:
                acc += window(inside) * math.prod(
                    f for j, f in factor.items() if not q <= j < q + L) - plain
        best = max(best, abs(acc) / n_place)
    return best


def _covariance(rho_e: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> complex:
    """Tr(rho (V_1 - m_1)(V_2 - m_2)), m_k = Tr(rho V_k), all in one basis."""
    c1, c2 = (p - np.trace(rho_e @ p) * np.eye(len(p)) for p in (p1, p2))
    return complex(np.trace(rho_e @ c1 @ c2))


def factorization_error(run: MomentRun):
    """(error, reference, label): the distance between the joint moment and
    the factorized product of the expectations B_k in the reference state
    rho, and the reference it is judged against, from the run's one
    decomposition and eigenbasis; the run must be built with bound set, so
    the bound's work was counted before any was done.

    With an explicit block of L sites (a channel) that is the size bound
    n L C(n) / (M - L + 1), C(n) the largest fixed-site moment modulus,
    labelled correlated_bound. Without one, for two times, it is the exact
    error |(W - 1) B_1 B_2 + sum_c w_c (sum_p f_p c_p / M + B_1 D_2 + B_2 D_1
    + D_1 D_2)|, labelled pair_factorization, over components of weight w_c
    (W their sum) and parts (n_p, rho_p), f_p = n_p / M, c_p = _covariance
    in rho_p and D_k = Tr(Delta V_k), Delta the component's site mixture
    less rho's, weights subtracted in exact rationals: no O(1) moment is
    subtracted. Other time counts without a block have (None, None).
    """
    if not run.bound:
        raise ValidationError("factorization_error needs a MomentRun built "
                              "with bound=True", arg="run")
    state, m_count, components = run.state, run.m_count, run.components
    vecs, product, n = run.vecs, run.product, len(run.times)
    means = site_expectation(reference_site_state(state), run.site, run.times)
    moment = sum(w * _component_moment(parts, block, vecs, product, n)
                 for w, parts, block in components)
    error = abs(moment - math.prod(means.tolist()))
    for _, parts, block in components:
        if block is not None:
            L = len(block.dims)
            c_n = _max_tuple_moment(parts, block, m_count, vecs, product, n)
            return error, n * L * c_n / (m_count - L + 1), "correlated_bound"
    if n != 2:
        return error, None, None
    # rho's site mixture: a macroscopic ensemble's parts, else its atoms
    mixture = (state.parts if isinstance(state, MacroscopicParts)
               else limit_atoms(state))
    ops, (b1, b2) = [product((0,)), product((1,))], means.tolist()
    ref = float(sum(Fraction(w) for w, _, _ in components) - 1) * b1 * b2
    for w, parts, _ in components:
        delta = {id(s): -Fraction(x) for x, s in mixture}
        for count, s in parts:
            delta[id(s)] += Fraction(count, m_count)
        shift = vecs.conj().T @ sum(float(delta[id(s)]) * s.data
                                    for _, s in mixture) @ vecs
        d1, d2 = (complex(np.trace(shift @ op)) for op in ops)
        cov = sum(count / m_count * _covariance(vecs.conj().T @ s.data @ vecs,
                                                *ops) for count, s in parts)
        ref += w * (cov / m_count + b1 * d2 + b2 * d1 + d1 * d2)
    return error, abs(ref), "pair_factorization"


def bell_channel_kraus() -> tuple[np.ndarray, ...]:
    """Unitary two-site channel taking |00> to the maximally entangled pair."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    cnot = np.array([[1, 0, 0, 0],
                     [0, 1, 0, 0],
                     [0, 0, 0, 1],
                     [0, 0, 1, 0]], dtype=complex)
    return (cnot @ np.kron(h, np.eye(2)),)


# Moment growth constants.

def pairing_count(k: int) -> int:
    """Number of perfect pairings of k objects: (k-1)(k-3)...1, with 0 -> 1."""
    if k < 0 or k % 2:
        raise ValidationError(f"pairings need an even nonnegative count, got {k}")
    out = 1
    for j in range(1, k, 2):
        out *= j
    return out


def _moment_envelope(n: int, base: float) -> float:
    """pairing_count(2 (n // 2)) * base**n, inf past the float range."""
    if n < 0:
        raise ValidationError("order must be nonnegative")
    try:
        return pairing_count(2 * (n // 2)) * base ** n
    except OverflowError:
        return math.inf


def coherent_bound(n: int, alpha: complex) -> float:
    """Per-order moment constant for a product of oscillator coherent states."""
    return _moment_envelope(n, 0.5 + abs(alpha))


def coherent_bound_safe(n: int, alpha: complex) -> float:
    """Looser variant of coherent_bound with base 1 + |alpha|."""
    return _moment_envelope(n, 1.0 + abs(alpha))


def even_double_factorial(k: int) -> int:
    """(2k)!! = 2 * 4 * ... * 2k as an exact integer."""
    return math.prod(range(2, 2 * k + 1, 2))


@functools.cache
def supermultiplicative_order_limit() -> int:
    """Largest top order m whose joint constant (4m)!! is a finite float,
    so every pair n1 <= n2 <= m of the supermultiplicative table is."""
    m = 1
    while even_double_factorial(2 * (m + 1)) <= sys.float_info.max:
        m += 1
    return m
