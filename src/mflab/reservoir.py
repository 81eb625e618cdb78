"""Reservoir ensemble states, their multi-time moments, and growth bounds.

Four ensemble families are supported: plain site products, channel-correlated
states built by averaging a local channel over all placements, finite
exchangeable mixtures of products, and block ensembles whose site fractions
are prescribed. Each is a weighted mixture of products of independent sites:
decompose gives that mixture on M sites, limit_atoms the (weight, site state)
pairs left as M -> infinity. Moments of the site-averaged interaction and
the factorization bound are exact sums over index partitions of local
contractions on that mixture, at any M. materialize builds every state
densely and independently of decompose, as a reference.

The bound helpers at the bottom give per-order moment constants for
coherent oscillator ensembles.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ResourceLimitError, ToleranceError, ValidationError
from .model import SiteModel
from .operators import DENSE_CUTOFF, DensityMatrix

WEIGHT_ATOL = 1e-12
KRAUS_ATOL = 1e-10
IMAG_ATOL = 1e-10
# level gaps closer than this, relative to the largest |level|, are one term
MERGE_ATOL = 1e-9


def _weighted_states(pairs, what: str, states: str):
    """pairs as (float, state), checked to be a distribution over states of
    one dimension."""
    pairs = tuple((float(w), s) for w, s in pairs)
    w = np.array([x for x, _ in pairs])
    if w.size == 0:
        raise ValidationError(f"{what}: need at least one entry")
    if (w < 0).any():
        raise ValidationError(f"{what}: negative weight {w.min():.3e}")
    if abs(w.sum() - 1.0) > WEIGHT_ATOL:
        raise ValidationError(f"{what}: weights sum to {w.sum():.15f}, not 1")
    dims = {s.dim for _, s in pairs}
    if len(dims) != 1:
        raise ValidationError(f"{states} have mixed dims {sorted(dims)}")
    return pairs


def kraus_defect(kraus: Sequence[np.ndarray]) -> float:
    """Max-abs deviation of sum K_i^dag K_i from the identity."""
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


def materialize(state, m_count: int) -> DensityMatrix:
    """Explicit density matrix of the ensemble on m_count sites; an explicit
    DensityMatrix is returned as it is."""
    if m_count < 1:
        raise ValidationError("need at least one site")
    if isinstance(state, DensityMatrix):
        if len(state.dims) != m_count:
            raise ValidationError(
                f"explicit reservoir state has {len(state.dims)} factors, "
                f"expected {m_count}")
        return state
    d = state.site_dim
    if d ** m_count > DENSE_CUTOFF:
        raise ResourceLimitError(
            f"materializing {m_count} sites of dim {d} exceeds dense cutoff")
    dims = (d,) * m_count
    if isinstance(state, ProductState):
        return DensityMatrix(kron_power(state.site_state.data, m_count), dims)
    if isinstance(state, DeFinettiMixture):
        acc = sum(w * kron_power(s.data, m_count) for w, s in state.atoms)
        return DensityMatrix(acc, dims)
    if isinstance(state, MacroscopicParts):
        counts = largest_remainder_counts([f for f, _ in state.parts], m_count)
        out = np.eye(1, dtype=complex)
        for (_, s), c in zip(state.parts, counts):
            out = np.kron(out, kron_power(s.data, int(c)))
        return DensityMatrix(out, dims)
    if isinstance(state, ChannelCorrelated):
        # the average of the block over all m_count - L + 1 placements
        (_, _, block), = state.components(m_count)
        s, L = state.site_state.data, state.corr_length
        acc = sum(np.kron(np.kron(kron_power(s, j), block.data),
                          kron_power(s, m_count - L - j))
                  for j in range(m_count - L + 1))
        return DensityMatrix(acc / (m_count - L + 1), dims)
    raise ValidationError(f"unknown ensemble type {type(state).__name__}")


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
    """Frequencies and coefficients of t -> Tr(rho e^{ith} v e^{-ith}).

    Returned as (freqs, coeffs) with degenerate level gaps merged into a
    single term each, so zero-frequency content appears once as a constant.
    """
    evals, vecs = np.linalg.eigh(h)
    rho_e = vecs.conj().T @ rho @ vecs
    v_e = vecs.conj().T @ v @ vecs
    freqs = (evals[:, None] - evals[None, :]).ravel()
    coeffs = (rho_e.T * v_e).ravel()
    order = np.argsort(freqs, kind="stable")
    freqs, coeffs = freqs[order], coeffs[order]
    scale = max(1.0, float(np.max(np.abs(evals))) if evals.size else 0.0)
    out_f: list[float] = []
    out_c: list[complex] = []
    for f, c in zip(freqs, coeffs):
        if out_f and abs(f - out_f[-1]) <= MERGE_ATOL * scale:
            out_c[-1] += c
        else:
            out_f.append(float(f))
            out_c.append(complex(c))
    return np.array(out_f), np.array(out_c)


def site_expectation(state: DensityMatrix, site: SiteModel, t):
    """Expectation of the site's first interaction operator evolved by the
    site Hamiltonian.

    Accepts a scalar or array of times; the imaginary residue is checked
    against 1e-10 and discarded.
    """
    v = site.interactions[0]
    if state.dim != v.dim:
        raise ValidationError(
            f"state dim {state.dim} does not match interaction dim {v.dim}")
    freqs, coeffs = site_signal_terms(state.data, site.h.data, v.data)
    tarr = np.atleast_1d(np.asarray(t, dtype=float))
    vals = np.exp(1j * np.outer(tarr, freqs)) @ coeffs
    resid = float(np.max(np.abs(vals.imag))) if vals.size else 0.0
    if resid > IMAG_ATOL:
        raise ToleranceError(
            f"imaginary residue {resid:.2e} in site expectation; inputs not Hermitian")
    out = vals.real
    if np.asarray(t).ndim == 0:
        return float(out[0])
    return out


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
    is built."""
    times = [float(t) for t in times]
    if not times:
        raise ValidationError("need at least one time")
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
    ref = reference_site_state(state)
    factorized = 1.0
    for t in times:
        factorized *= site_expectation(ref, site, t)
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


def coherent_bound(n: int, alpha: complex) -> float:
    """Per-order moment constant for a product of oscillator coherent states."""
    if n < 0:
        raise ValidationError("order must be nonnegative")
    return pairing_count(2 * (n // 2)) * (0.5 + abs(alpha)) ** n


def coherent_bound_safe(n: int, alpha: complex) -> float:
    """Looser variant of coherent_bound with base 1 + |alpha|."""
    if n < 0:
        raise ValidationError("order must be nonnegative")
    return pairing_count(2 * (n // 2)) * (1.0 + abs(alpha)) ** n
