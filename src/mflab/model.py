"""System and reservoir-site models and full-space Hamiltonian assembly.

assemble_total builds the joint Hamiltonian on (system) x (site)^M, system
factor first, as one dense matrix refused above the dense cutoff. No run
uses it: with assemble_cluster_interaction it is the full-space reference
that tests check the symmetric-sector engine in exact against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .operators import (
    DENSE_CUTOFF,
    HERMITIAN_RTOL,
    Operator,
    embed_at_site,
    hermitian_defect,
    permute_factors,
)

DEFAULT_FOCK_LEVELS = 8


def _require_hermitian(arr: np.ndarray, what: str) -> None:
    defect = hermitian_defect(arr)
    if defect > HERMITIAN_RTOL:
        raise ValidationError(f"{what} must be Hermitian, defect {defect:.2e}")


@dataclass(frozen=True)
class SiteModel:
    """One reservoir unit: free Hamiltonian plus its interaction operators."""

    h: Operator
    interactions: tuple[Operator, ...]

    def __post_init__(self):
        interactions = tuple(self.interactions)
        _require_hermitian(self.h.data, "site Hamiltonian")
        for k, v in enumerate(interactions):
            _require_hermitian(v.data, f"site interaction {k}")
            if v.dim != self.h.dim:
                raise ValidationError(
                    f"interaction {k} has dim {v.dim}, site has {self.h.dim}")
        object.__setattr__(self, "interactions", interactions)

    @property
    def dim(self) -> int:
        return self.h.dim


@dataclass(frozen=True)
class Coupling:
    """A system coupling operator tied to one site interaction.

    g acts on a single declared subsystem factor; v_index selects which of
    the site's interaction operators it multiplies.
    """

    g: Operator
    v_index: int = 0
    subsystem: int = 0


@dataclass(frozen=True)
class SystemModel:
    """System Hamiltonian data, kept per subsystem factor.

    local_h holds one Hermitian block per subsystem; the full system
    Hamiltonian is the sum of their embeddings. Keeping the local blocks
    explicit is what lets the limit dynamics factor into a product of
    per-subsystem propagators.
    """

    local_h: tuple[Operator, ...]
    couplings: tuple[Coupling, ...] = ()

    def __post_init__(self):
        local_h = tuple(self.local_h)
        couplings = tuple(self.couplings)
        if not local_h:
            raise ValidationError("need at least one subsystem block")
        for j, h in enumerate(local_h):
            _require_hermitian(h.data, f"subsystem Hamiltonian {j}")
        dims = tuple(h.dim for h in local_h)
        for k, c in enumerate(couplings):
            if not 0 <= c.subsystem < len(dims):
                raise ValidationError(
                    f"coupling {k} targets subsystem {c.subsystem}, have {len(dims)}")
            if c.g.dim != dims[c.subsystem]:
                raise ValidationError(
                    f"coupling {k} operator dim {c.g.dim} does not match "
                    f"subsystem dim {dims[c.subsystem]}; couplings must be local")
            _require_hermitian(c.g.data, f"coupling operator {k}")
        object.__setattr__(self, "local_h", local_h)
        object.__setattr__(self, "couplings", couplings)

    @classmethod
    def single(cls, h: Operator, couplings: Sequence[Coupling | tuple]) -> "SystemModel":
        fixed = []
        for c in couplings:
            if isinstance(c, Coupling):
                fixed.append(c)
            else:
                g, v_index = c
                fixed.append(Coupling(g=g, v_index=v_index, subsystem=0))
        return cls(local_h=(h,), couplings=tuple(fixed))

    @property
    def subsystem_dims(self) -> tuple[int, ...]:
        return tuple(h.dim for h in self.local_h)

    @property
    def n_subsystems(self) -> int:
        return len(self.local_h)

    @property
    def dim(self) -> int:
        return math.prod(self.subsystem_dims)

    def _embed(self, mat: np.ndarray, idx: int) -> np.ndarray:
        dims = self.subsystem_dims
        left = math.prod(dims[:idx])
        right = math.prod(dims[idx + 1:])
        return np.kron(np.kron(np.eye(left), mat), np.eye(right))

    def h_full(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for j, h in enumerate(self.local_h):
            out += self._embed(h.data, j)
        return out

    def coupling_full(self, c: Coupling) -> np.ndarray:
        return self._embed(c.g.data, c.subsystem)


@dataclass(frozen=True)
class ClusterInteraction:
    """A reservoir operator acting jointly on nu sites."""

    nu: int
    v_cluster: Operator

    def __post_init__(self):
        if self.nu < 1:
            raise ValidationError("cluster size must be >= 1")
        if len(self.v_cluster.dims) != self.nu:
            raise ValidationError(
                f"cluster operator has {len(self.v_cluster.dims)} factors, expected {self.nu}")
        _require_hermitian(self.v_cluster.data, "cluster interaction")


def check_couplings(sys: SystemModel, site: SiteModel) -> None:
    """Refuse a coupling whose v_index names no interaction of the site."""
    for k, c in enumerate(sys.couplings):
        if not 0 <= c.v_index < len(site.interactions):
            raise ValidationError(
                f"coupling {k} references site interaction {c.v_index}, "
                f"site has {len(site.interactions)}")


def check_cluster_system(sys: SystemModel) -> None:
    """Refuse a system the cluster limit does not cover: its block site
    carries the one cluster operator, so one subsystem with one coupling."""
    if sys.n_subsystems != 1 or len(sys.couplings) != 1:
        raise ValidationError(
            "cluster sweep needs a single subsystem with one coupling")


def assemble_total(sys: SystemModel, site: SiteModel, m_count: int) -> Operator:
    """Joint Hamiltonian: system + free sites + mean-field couplings."""
    if m_count < 1:
        raise ValidationError("need at least one reservoir site")
    check_couplings(sys, site)
    d_total = sys.dim * site.dim ** m_count
    if d_total > DENSE_CUTOFF:
        raise ResourceLimitError(
            f"dense assembly refused at joint dimension {d_total} > "
            f"{DENSE_CUTOFF}")
    d_r = site.dim ** m_count
    h_res = np.zeros((d_r, d_r), dtype=complex)
    for m in range(1, m_count + 1):
        h_res += embed_at_site(site.h, m, m_count).data
    out = np.kron(sys.h_full(), np.eye(d_r)) + np.kron(np.eye(sys.dim), h_res)
    for c in sys.couplings:
        v = site.interactions[c.v_index]
        v_bar = sum(embed_at_site(v, m, m_count).data
                    for m in range(1, m_count + 1)) / m_count
        out += np.kron(sys.coupling_full(c), v_bar)
    dims = sys.subsystem_dims + (site.dim,) * m_count
    return Operator(out, dims, hermitian=True)


def embed_cluster(x: Operator, sites: Sequence[int], m_count: int) -> np.ndarray:
    """Embed a multi-factor site operator at the given 1-based site positions."""
    nu = len(x.dims)
    sites = list(sites)
    if len(set(sites)) != nu:
        raise ValidationError(f"cluster positions {sites} contain repeats")
    if any(not 1 <= s <= m_count for s in sites):
        raise ValidationError(f"cluster positions {sites} outside 1..{m_count}")
    d = x.dims[0]
    rest = np.eye(d ** (m_count - nu), dtype=complex)
    big = np.kron(x.data, rest)
    # input factor order: cluster factors first, then identity fillers
    remaining = iter(range(nu, m_count))
    perm = []
    for s in range(1, m_count + 1):
        if s in sites:
            perm.append(sites.index(s))
        else:
            perm.append(next(remaining))
    out, _ = permute_factors(big, (d,) * m_count, perm)
    return out


def assemble_cluster_interaction(g: Operator, cluster: ClusterInteraction,
                                 m_count: int) -> Operator:
    """G tensor the average of the cluster operator over all ordered site
    subsets; the dense full-space reference for the sector engine."""
    nu = cluster.nu
    if nu > m_count:
        raise ValidationError(f"cluster size {nu} exceeds site count {m_count}")
    d = cluster.v_cluster.dims[0]
    d_total = g.dim * d ** m_count
    if d_total > DENSE_CUTOFF:
        raise ResourceLimitError(
            f"cluster assembly is dense only; dimension {d_total} > {DENSE_CUTOFF}")
    d_r = d ** m_count
    acc = np.zeros((d_r, d_r), dtype=complex)
    for subset in itertools.permutations(range(1, m_count + 1), nu):
        acc += embed_cluster(cluster.v_cluster, subset, m_count)
    acc /= math.perm(m_count, nu)
    data = np.kron(g.data, acc)
    return Operator(data, g.dims + (d,) * m_count, hermitian=True)


# Truncated bosonic mode helpers.

def destroy(n_levels: int) -> Operator:
    data = np.diag(np.sqrt(np.arange(1, n_levels, dtype=float)), 1).astype(complex)
    return Operator(data, (n_levels,))


def number_op(n_levels: int) -> Operator:
    return Operator(np.diag(np.arange(n_levels, dtype=float)).astype(complex),
                    (n_levels,), hermitian=True)


def field_op(n_levels: int) -> Operator:
    """(a + a†)/sqrt(2) on the truncated number basis."""
    a = destroy(n_levels).data
    return Operator((a + a.conj().T) / np.sqrt(2), (n_levels,), hermitian=True)


def coherent_ket(alpha: complex, n_levels: int) -> np.ndarray:
    """Truncated coherent state, renormalized on the kept levels."""
    if alpha == 0:
        return np.eye(n_levels, dtype=complex)[:, 0]
    n = np.arange(n_levels)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    logs = n * np.log(complex(alpha)) - 0.5 * log_fact
    # scaled by the largest amplitude (level 0's, 1, for |alpha| <= 1) so
    # that no level overflows
    vec = np.exp(logs - logs.real.max())
    return vec / np.linalg.norm(vec)


def oscillator_site(n_levels: int = DEFAULT_FOCK_LEVELS, omega: float = 1.0,
                    interaction: str = "field", nu: float = 1.0) -> SiteModel:
    """Truncated oscillator site with a field or number-conserving interaction."""
    h = Operator(omega * number_op(n_levels).data, (n_levels,), hermitian=True)
    if interaction == "field":
        v = field_op(n_levels)
    elif interaction == "number":
        v = Operator(nu * number_op(n_levels).data, (n_levels,), hermitian=True)
    else:
        raise ValidationError(f"unknown oscillator interaction {interaction!r}")
    return SiteModel(h=h, interactions=(v,))

