"""System and reservoir-site models and full-space Hamiltonian assembly.

A site interaction may act on nu sites, with factor dims (d,) * nu; nu is
read from the operator, and a plain interaction is the case nu = 1. A
coupling multiplies the average of its interaction over the ordered
nu-tuples of distinct sites. assemble_total builds the joint Hamiltonian on
(system) x (site)^M, system factor first, as one dense matrix refused above
the dense cutoff, each coupling's average through
assemble_cluster_interaction. No run uses it: it is the full-space
reference that tests check the symmetric-sector engine in exact against.
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
    add_embedded,
    hermitian_defect,
)

DEFAULT_FOCK_LEVELS = 8


def _require_hermitian(arr: np.ndarray, what: str) -> None:
    defect = hermitian_defect(arr)
    if defect > HERMITIAN_RTOL:
        raise ValidationError(f"{what} must be Hermitian, defect {defect:.2e}")


@dataclass(frozen=True)
class SiteModel:
    """One reservoir unit: free Hamiltonian plus its interaction operators,
    each on one or more sites of the site's dimension."""

    h: Operator
    interactions: tuple[Operator, ...]

    def __post_init__(self):
        interactions = tuple(self.interactions)
        _require_hermitian(self.h.data, "site Hamiltonian")
        for k, v in enumerate(interactions):
            _require_hermitian(v.data, f"site interaction {k}")
            if set(v.dims) != {self.h.dim}:
                raise ValidationError(f"interaction {k} has dims {v.dims}, "
                                      f"site has dim {self.h.dim}")
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

    def _embed(self, out: np.ndarray, mat: np.ndarray, idx: int) -> np.ndarray:
        dims = self.subsystem_dims
        return add_embedded(out, mat, math.prod(dims[:idx]),
                            math.prod(dims[idx + 1:]))

    def h_full(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for j, h in enumerate(self.local_h):
            self._embed(out, h.data, j)
        return out

    def coupling_full(self, c: Coupling) -> np.ndarray:
        return self._embed(np.zeros((self.dim, self.dim), dtype=complex),
                           c.g.data, c.subsystem)


def check_couplings(sys: SystemModel, site: SiteModel) -> None:
    """Refuse a coupling whose v_index names no interaction of the site."""
    for k, c in enumerate(sys.couplings):
        if not 0 <= c.v_index < len(site.interactions):
            raise ValidationError(
                f"coupling {k} references site interaction {c.v_index}, "
                f"site has {len(site.interactions)}")


def assemble_total(sys: SystemModel, site: SiteModel, m_count: int) -> Operator:
    """Joint Hamiltonian: system + free sites + mean-field couplings, each
    the coupling operator times its interaction averaged over ordered
    tuples of sites."""
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
    for m in range(m_count):
        add_embedded(h_res, site.h.data, site.dim ** m,
                     site.dim ** (m_count - 1 - m))
    out = np.kron(sys.h_full(), np.eye(d_r)) + np.kron(np.eye(sys.dim), h_res)
    for c in sys.couplings:
        g = Operator(sys.coupling_full(c), sys.subsystem_dims)
        out += assemble_cluster_interaction(
            g, site.interactions[c.v_index], m_count).data
    dims = sys.subsystem_dims + (site.dim,) * m_count
    return Operator(out, dims, hermitian=True)


def assemble_cluster_interaction(g: Operator, v: Operator,
                                 m_count: int) -> Operator:
    """G tensor the average of the nu-site operator v over all ordered
    nu-tuples of distinct sites; the dense full-space reference for the
    sector engine.

    v (x) 1 has v on the first nu site factors; a tuple's term moves factor
    k to site sites[k] and the identity factors, in order, to the other
    sites: one transpose of both index halves by argsort(sites + rest)."""
    nu = len(v.dims)
    if nu > m_count:
        raise ValidationError(
            f"interaction on {nu} sites exceeds site count {m_count}")
    d = v.dims[0]
    d_total = g.dim * d ** m_count
    if d_total > DENSE_CUTOFF:
        raise ResourceLimitError(
            f"cluster assembly is dense only; dimension {d_total} > {DENSE_CUTOFF}")
    d_r = d ** m_count
    first = np.kron(v.data, np.eye(d ** (m_count - nu))).reshape(
        (d,) * (2 * m_count))
    acc = np.zeros((d_r, d_r), dtype=complex)
    for sites in itertools.permutations(range(m_count), nu):
        rest = [s for s in range(m_count) if s not in sites]
        axes = np.argsort(list(sites) + rest)
        acc += first.transpose(*axes, *(axes + m_count)).reshape(d_r, d_r)
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

