"""Full-space references and the acceptance report writer for the tests.

The library's finite-M engine, series oracle and moments never build an
object on the d^M joint space; the functions here do, densely and by the
definitions, so that the tests can check the symmetric-sector results
against an independent construction at small M. No bundled run reaches
them (test_cli's guard refuses them during every bundled run).

- partial_trace and permute_factors act on explicit tensor-product arrays;
- embed_cluster places a nu-site operator at given sites, the reference for
  model.assemble_cluster_interaction;
- materialize builds an ensemble's density matrix on M sites;
- joint_trajectory propagates the full joint state, and full_space_series
  is the truncated interaction-picture series on the full space;
- concurrence is the two-qubit closed form that negativity is checked
  against;
- summary_report and write_summary write acceptance_summary.json for
  test_acceptance.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg import expm

from mflab.errors import ResourceLimitError, ToleranceError, ValidationError
from mflab.exact import FiniteMRun
from mflab.matio import atomic_write_text
from mflab.model import SystemModel, assemble_total
from mflab.operators import DENSE_CUTOFF, DensityMatrix, Operator
from mflab.reservoir import (
    ChannelCorrelated,
    DeFinettiMixture,
    MacroscopicParts,
    ProductState,
    kron_power,
    largest_remainder_counts,
)
from mflab.results import PropagationResult

PTRACE_ATOL = 1e-12


# Tensor-factor operations on explicit arrays.

def _ptrace_array(arr: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValidationError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValidationError(f"keep indices {keep} outside 0..{n - 1}")
    traced = [i for i in range(n) if i not in keep]
    dk = math.prod(dims[i] for i in keep)
    dt = math.prod(dims[i] for i in traced) if traced else 1
    perm = keep + traced
    x = arr.reshape(*dims, *dims)
    x = x.transpose(*perm, *[n + p for p in perm])
    x = x.reshape(dk, dt, dk, dt)
    out = np.einsum("abcb->ac", x)
    t_in, t_out = arr.trace(), out.trace()
    if abs(t_in - t_out) > PTRACE_ATOL * max(1.0, abs(t_in)):
        raise ToleranceError(
            f"partial trace changed the trace by {abs(t_in - t_out):.2e}")
    return out


def partial_trace(state: "DensityMatrix | Operator | np.ndarray",
                  keep: Iterable[int],
                  dims: Sequence[int] | None = None):
    """Trace out all factors not in `keep` (0-based indices into dims).

    Kept factors stay in their original order. Accepts a DensityMatrix,
    an Operator, or a bare array with explicit dims; returns the same kind.
    """
    if isinstance(state, DensityMatrix):
        reduced = _ptrace_array(state.data, state.dims, keep)
        kept_dims = tuple(state.dims[i] for i in sorted(set(keep)))
        return DensityMatrix(reduced, kept_dims, validate=False)
    if isinstance(state, Operator):
        reduced = _ptrace_array(state.data, state.dims, keep)
        kept_dims = tuple(state.dims[i] for i in sorted(set(keep)))
        return Operator(reduced, kept_dims)
    if dims is None:
        raise ValidationError("dims required when tracing a bare array")
    return _ptrace_array(np.asarray(state, dtype=complex), dims, keep)


def permute_factors(arr: np.ndarray, dims: Sequence[int], perm: Sequence[int]):
    """Conjugate a matrix by the factor permutation placing input factor perm[k] at slot k.

    Returns (permuted matrix, permuted dims).
    """
    n = len(dims)
    perm = list(perm)
    if sorted(perm) != list(range(n)):
        raise ValidationError(f"{perm} is not a permutation of 0..{n - 1}")
    x = arr.reshape(*dims, *dims)
    x = x.transpose(*perm, *[n + p for p in perm])
    new_dims = [dims[p] for p in perm]
    d = math.prod(dims)
    return np.ascontiguousarray(x.reshape(d, d)), tuple(new_dims)


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


# Explicit ensembles and joint dynamics on the full space.

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


JOINT_TRAJECTORY_LIMIT = 512


def joint_trajectory(run: FiniteMRun) -> PropagationResult:
    """Full joint-state trajectory; intended for small diagnostic runs."""
    d_total = run.joint_dim
    if d_total > JOINT_TRAJECTORY_LIMIT:
        raise ResourceLimitError(
            f"joint trajectory capped at dimension {JOINT_TRAJECTORY_LIMIT}, "
            f"got {d_total}")
    h = assemble_total(run.sys, run.site, run.m_count).data
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


def full_space_series(sys, site, res, m, rho_s0, max_order, t):
    """The truncated series on the full d^M space for orders 0..max_order,
    for small M. The first block row of one Van Loan exponential gives the
    Dyson terms S_k; the block is upper triangular Toeplitz, so a lower
    order uses the leading terms of the same row."""
    free = assemble_total(SystemModel(local_h=sys.local_h), site, m).data
    v = assemble_total(sys, site, m).data - free
    block = -1j * t * (np.kron(np.eye(max_order + 1), free)
                       + np.kron(np.eye(max_order + 1, k=1), v))
    dim = free.shape[0]
    terms = expm(block)[:dim].reshape(dim, max_order + 1, dim)
    terms = terms.transpose(1, 0, 2)
    partial = np.cumsum(terms, axis=0)
    rho_r = res if isinstance(res, DensityMatrix) else materialize(res, m)
    rho0 = np.kron(rho_s0.data, rho_r.data)
    d_res = rho_r.dim
    out = []
    for order in range(max_order + 1):
        joint = sum(terms[k] @ rho0 @ partial[order - k].conj().T
                    for k in range(order + 1))
        out.append(np.einsum("irkr->ik",
                             joint.reshape(sys.dim, d_res, sys.dim, d_res)))
    return out


# Two-qubit entanglement and the acceptance report.

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
