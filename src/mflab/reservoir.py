"""Reservoir ensemble states, their multi-time moments, and growth bounds.

Four ensemble families are supported: plain site products, channel-correlated
states built by averaging a local channel over all placements, finite
exchangeable mixtures of products, and block ensembles whose site fractions
are prescribed. Each is a weighted mixture of products of independent sites:
decompose gives that mixture on M sites, limit_atoms the (weight, site state)
pairs left as M -> infinity. Moments of the site-averaged interaction and
the factorization bound are exact sums over index partitions of local
contractions on that mixture, at any M. The expectation Tr(rho^{(x)nu}
e^{ith} V e^{-ith}) of an interaction V on nu sites, h the site
Hamiltonian summed over them, is the scalar signal of the limit dynamics,
and for nu = 1 of the factorized product: a QuasiPeriodicSignal of exact
mirror pairs, real by construction and checked exactly per |f| slot. The
moments take a first interaction on one site.

The bound helpers at the bottom give per-order moment constants for
coherent oscillator ensembles.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .model import SiteModel
from .operators import DensityMatrix, embed_at_site

WEIGHT_ATOL = 1e-12
KRAUS_ATOL = 1e-10
SIGNAL_IMAG_ATOL = 1e-10
# level gaps closer than this, relative to the largest |level|, are one term
MERGE_ATOL = 1e-9


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
        return [(1.0, tuple((int(c), s) for (_, s), c in zip(self.parts, counts)
                            if c > 0), None)]

    def limit_atoms(self):
        acc = sum(f * s.data for f, s in self.parts)
        return [(1.0, DensityMatrix(acc, (self.site_dim,)))]


ReservoirState = ProductState | ChannelCorrelated | DeFinettiMixture | MacroscopicParts


def largest_remainder_counts(fractions: Sequence[float], m_count: int) -> np.ndarray:
    """Integer site counts per part: floor allocation, remainder to the
    largest fractional parts, ties broken by part order."""
    raw = np.asarray(fractions, dtype=float) * m_count
    base = np.floor(raw).astype(int)
    leftover = m_count - int(base.sum())
    order = np.argsort(-(raw - base), kind="stable")
    base[order[:leftover]] += 1
    return base


def decompose(state, m_count: int, site_dim: int):
    """The ensemble on m_count sites as the weighted sum over components
    (weight, parts, block) of block (x) s_1^{(x)n_1} (x) ..., where parts
    holds (n, s) pairs with n > 0 and block is None or an explicit state on
    the first sites: the channel block, or an explicit DensityMatrix
    reservoir on all m_count sites."""
    if m_count < 1:
        raise ValidationError("need at least one site")
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


@dataclass(frozen=True)
class QuasiPeriodicSignal:
    """Finite sum of complex exponentials with a real-valued total, evaluated
    as sum_f A_f cos(f t) - B_f sin(f t) over the |f| folded at construction;
    the total is real exactly when each slot's Im c and sign(f) Re c sum to 0."""

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

    def evaluate(self, t):
        """The signal at t, a float for scalar t, else an array of t's shape."""
        freqs, cos_amps, sin_amps = self._folded
        phase = np.multiply.outer(np.asarray(t, dtype=float), freqs)
        vals = np.cos(phase) @ cos_amps - np.sin(phase) @ sin_amps
        return float(vals) if vals.ndim == 0 else vals

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
    nu > 1 sites sees rho^{(x)nu} under the site Hamiltonian summed over
    them."""
    if rho.dim != site.dim:
        raise ValidationError(
            f"state dim {rho.dim} does not match site dim {site.dim}")
    check_interacting(site)
    for v in site.interactions:
        nu = len(v.dims)
        state, h = (rho.data, site.h.data) if nu == 1 else (
            kron_power(rho.data, nu),
            sum(embed_at_site(site.h, j, nu).data for j in range(1, nu + 1)))
        yield QuasiPeriodicSignal(*site_signal_terms(state, h, v.data))


def site_signals(rho: DensityMatrix, site: SiteModel) -> tuple:
    """One QuasiPeriodicSignal t -> Tr(rho^{(x)nu} e^{ith} v e^{-ith}) per
    site interaction v on nu sites, in order, h the site Hamiltonian summed
    over them, for a state of the site's dimension."""
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


def _slot_products(site: SiteModel, times: Sequence[float]):
    """The site Hamiltonian's eigenvectors and, per tuple of time slots,
    the ordered single-site product of the evolved first interaction at
    their times, in that eigenbasis."""
    evals, vecs = np.linalg.eigh(site.h.data)
    v_e = vecs.conj().T @ site.interactions[0].data @ vecs

    @functools.cache
    def product(slots: tuple[int, ...]) -> np.ndarray:
        prod = np.eye(len(evals), dtype=complex)
        for i in slots:
            ph = np.exp(1j * evals * times[i])
            prod = prod @ ((ph[:, None] * v_e) * ph.conj()[None, :])
        return prod
    return vecs, product


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


def _component_moment(parts, block, site: SiteModel,
                      times: Sequence[float]) -> complex:
    """Moment of the site average over an optional block on the first L
    sites, then parts (count, site state) of identical independent sites.

    Sum over index-coincidence partitions of the time slots; each block of
    coincident indices is a single-site ordered product. The blocks landing
    on distinct positions of the explicit block give one contraction of it;
    the others land on distinct outside sites, counted by falling factorials
    per part.
    """
    L = 0 if block is None else len(block.dims)
    counts = [int(c) for c, _ in parts]
    vecs, product = _slot_products(site, times)
    rho_es = [vecs.conj().T @ s.data @ vecs for _, s in parts]
    contract = None if block is None else _block_contraction(block, vecs)
    total = 0.0 + 0.0j
    for partition in set_partitions(range(len(times))):
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
    return total / (sum(counts) + L) ** len(times)


def multitime_moment(state, m_count: int, site: SiteModel,
                     times: Sequence[float]) -> complex:
    """Ensemble moment of the site-averaged evolved first interaction at
    the given times, in the given order, summed over the components of
    decompose. A block is contracted locally at its one placement, which
    gives the same site-averaged moment as every other, so no d^M object
    is built. Non-finite times and a site check_moment_site refuses are
    refused."""
    times = [float(t) for t in times]
    if not times:
        raise ValidationError("need at least one time")
    if not all(math.isfinite(t) for t in times):
        raise ValidationError(f"moment times must be finite, got {times}")
    check_moment_site(site)
    return sum(w * _component_moment(parts, block, site, times)
               for w, parts, block in decompose(state, m_count, site.dim))


def _max_tuple_moment(parts, block: DensityMatrix, m_count: int,
                      site: SiteModel, times: Sequence[float]) -> float:
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
    L, n = len(block.dims), len(times)
    n_place = m_count - L + 1
    short = min(m_count, (n + 1) * L - 1)
    vecs, product = _slot_products(site, times)
    contract = _block_contraction(block, vecs)
    # with no part the block covers every site and no factor is used
    outside = parts[0][1].data if parts else np.zeros((site.dim,) * 2)
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


def factorization_error(state: ReservoirState, m_count: int, site: SiteModel,
                        times: Sequence[float]) -> tuple[float, float | None]:
    """Distance between the joint moment and the factorized product of
    single-site expectations, with its size bound.

    Returns (error, bound). For an ensemble with an explicit block of L
    sites, such as a channel-correlated one, the bound is
    n L C(n) / (M - L + 1), C(n) the largest fixed-site moment modulus;
    without a block it is None.
    """
    times = [float(t) for t in times]
    moment = multitime_moment(state, m_count, site, times)
    factorized = math.prod(site_expectation(reference_site_state(state), site,
                                            times).tolist())
    err = abs(moment - factorized)
    for _, parts, block in decompose(state, m_count, site.dim):
        if block is not None:
            L = len(block.dims)
            c_n = _max_tuple_moment(parts, block, m_count, site, times)
            return err, len(times) * L * c_n / (m_count - L + 1)
    return err, None


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
