"""Dense operators and states on finite tensor-product spaces.

Everything downstream (model assembly, moments, propagation) is built on the
small set of primitives here: Kronecker products, single-site embeddings,
partial traces and trace norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ToleranceError, ValidationError

# Largest total dimension that is still built as one dense matrix.
DENSE_CUTOFF = 4096

HERMITIAN_RTOL = 1e-9     # flagged-Hermitian deviation, relative to the norm scale
TRACE_ATOL = 1e-10
PTRACE_ATOL = 1e-12
PSD_ATOL = 1e-9


def _as_square_complex(data) -> np.ndarray:
    arr = np.array(data, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def hermitian_defect(a: np.ndarray) -> float:
    """Max-abs deviation from Hermiticity, relative to the matrix scale;
    infinite for a matrix with a non-finite entry."""
    if not np.isfinite(a).all():
        return math.inf
    scale = max(np.abs(a).max(), 1e-300)
    return float(np.abs(a - a.conj().T).max() / scale)


@dataclass(frozen=True)
class Operator:
    """A d x d complex matrix together with its tensor-factor dimensions.

    Parameters
    ----------
    data : array_like
        Square complex matrix.
    dims : sequence of int
        Ordered factor dimensions; their product must equal the matrix size.
    hermitian : bool
        Optional flag, verified at construction.
    """

    data: np.ndarray
    dims: tuple[int, ...]
    hermitian: bool = False

    def __post_init__(self):
        arr = _as_square_complex(self.data)
        dims = tuple(int(d) for d in self.dims)
        if math.prod(dims) != arr.shape[0]:
            raise ValidationError(
                f"dims {dims} do not multiply to matrix size {arr.shape[0]}")
        if any(d < 1 for d in dims):
            raise ValidationError(f"factor dimensions must be positive: {dims}")
        if self.hermitian and hermitian_defect(arr) > HERMITIAN_RTOL:
            raise ValidationError(
                f"matrix flagged Hermitian has defect {hermitian_defect(arr):.2e}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.data.shape[0]


def add_embedded(out: np.ndarray, mat: np.ndarray, left: int,
                 right: int) -> np.ndarray:
    """out += 1_left (x) mat (x) 1_right, in place, through a strided view
    of out instead of Kronecker products with identities; out must be a
    C-contiguous square array, so that reshaping it gives a view."""
    d = mat.shape[0]
    view = np.einsum("iajibj->iajb", out.reshape(left, d, right, left, d,
                                                 right))
    view += mat[:, None, :]
    return out


def embed_at_site(x: Operator, m: int, n_sites: int) -> Operator:
    """Place a single-site operator at site m (1-based) of n_sites factors.

    The result acts as x on factor m and as the identity elsewhere.
    """
    if len(x.dims) != 1:
        raise ValidationError(f"embed_at_site expects a single-factor operator, dims={x.dims}")
    if not 1 <= m <= n_sites:
        raise ValidationError(f"site index {m} outside 1..{n_sites}")
    d = x.dims[0]
    left = np.eye(d ** (m - 1), dtype=complex)
    right = np.eye(d ** (n_sites - m), dtype=complex)
    data = np.kron(np.kron(left, x.data), right)
    return Operator(data, (d,) * n_sites, hermitian=x.hermitian)


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


def trace_norm(x: "Operator | np.ndarray"):
    """Tr sqrt(X†X), the sum of singular values: a float for one matrix,
    an array of one norm per matrix for a (T, d, d) stack."""
    arr = x.data if isinstance(x, Operator) else np.asarray(x, dtype=complex)
    norms = np.linalg.svd(arr, compute_uv=False).sum(axis=-1)
    return float(norms) if arr.ndim == 2 else norms


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


def check_density_stack(stack: np.ndarray) -> None:
    """Check every matrix of a (T, d, d) stack as a density matrix.

    Each state must be Hermitian relative to its own scale, have unit trace
    and no eigenvalue below -PSD_ATOL; the eigenvalues come from one stacked
    eigvalsh. A stack with a non-finite entry is refused before any of
    these; otherwise the first failing state raises the ValidationError of
    the first check it fails.
    """
    if not np.isfinite(stack).all():
        raise ValidationError("density matrix has non-finite entries")
    scale = np.maximum(np.abs(stack).max(axis=(-2, -1)), 1e-300)
    herm = (np.abs(stack - np.swapaxes(stack.conj(), -1, -2)).max(axis=(-2, -1))
            / scale)
    tr = np.trace(stack, axis1=-2, axis2=-1)
    low = np.linalg.eigvalsh(stack)[:, 0]
    bad = np.flatnonzero((herm > HERMITIAN_RTOL) | (abs(tr - 1.0) > TRACE_ATOL)
                         | (low < -PSD_ATOL))
    if not bad.size:
        return
    k = bad[0]
    if herm[k] > HERMITIAN_RTOL:
        raise ValidationError(
            f"density matrix Hermiticity defect {herm[k]:.2e}")
    if abs(tr[k] - 1.0) > TRACE_ATOL:
        raise ValidationError(f"density matrix trace {tr[k]:.12g} != 1")
    raise ValidationError(f"density matrix has eigenvalue {low[k]:.2e}")


@dataclass(frozen=True)
class DensityMatrix:
    """Positive semidefinite unit-trace matrix with factor metadata."""

    data: np.ndarray
    dims: tuple[int, ...]
    validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        arr = _as_square_complex(self.data)
        dims = tuple(int(d) for d in self.dims)
        if math.prod(dims) != arr.shape[0]:
            raise ValidationError(
                f"dims {dims} do not multiply to matrix size {arr.shape[0]}")
        if self.validate:
            check_density_stack(arr[None])
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.data @ self.data).real)

    @classmethod
    def pure(cls, ket: np.ndarray, dims: Sequence[int]) -> "DensityMatrix":
        vec = np.asarray(ket, dtype=complex).ravel()
        nrm = np.linalg.norm(vec)
        if nrm == 0:
            raise ValidationError("cannot normalize the zero vector")
        vec = vec / nrm
        return cls(np.outer(vec, vec.conj()), tuple(dims), validate=False)


# Qubit fixtures used throughout models and tests.

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def pauli(name: str) -> Operator:
    table = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}
    try:
        return Operator(table[name.lower()], (2,), hermitian=True)
    except KeyError:
        raise ValidationError(f"unknown Pauli label {name!r}") from None


def ket(label: str) -> np.ndarray:
    """Computational and diagonal qubit kets: '0', '1', '+', '-'."""
    table = {
        "0": np.array([1, 0], dtype=complex),
        "1": np.array([0, 1], dtype=complex),
        "+": np.array([1, 1], dtype=complex) / np.sqrt(2),
        "-": np.array([1, -1], dtype=complex) / np.sqrt(2),
    }
    try:
        return table[label].copy()
    except KeyError:
        raise ValidationError(f"unknown ket label {label!r}") from None


def bell_ket() -> np.ndarray:
    """(|00> + |11>)/sqrt(2)."""
    out = np.zeros(4, dtype=complex)
    out[0] = out[3] = 1 / np.sqrt(2)
    return out
