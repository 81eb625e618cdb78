"""Dense operators and states on finite tensor-product spaces.

Everything downstream (model assembly, moments, propagation) is built on the
small set of primitives here: Kronecker products, single-site embeddings,
trace norms and Hermitian spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ValidationError

# Largest total dimension that is still built as one dense matrix.
DENSE_CUTOFF = 4096

HERMITIAN_RTOL = 1e-9     # flagged-Hermitian deviation, relative to the norm scale
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-9


def _frozen(arr: np.ndarray) -> bool:
    """True for a read-only array whose bases are all read-only, down to
    the one that owns the memory: no writeable array shares that memory."""
    while not arr.flags.writeable:
        if arr.base is None:
            return True
        if not isinstance(arr.base, np.ndarray):
            return False
        arr = arr.base
    return False


def _frozen_square(data) -> np.ndarray:
    """data as a read-only square complex matrix: a frozen complex array
    as it is, without a copy; anything else copied, so that the caller's
    array stays theirs to write."""
    if not (isinstance(data, np.ndarray) and data.dtype == complex
            and _frozen(data)):
        data = np.array(data, dtype=complex)
        data.setflags(write=False)
    if data.ndim != 2 or data.shape[0] != data.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {data.shape}")
    return data


def factor_dims(dims, size: int) -> tuple[int, ...]:
    """dims as a tuple of ints, refused unless they multiply to size, the
    matrix size of the operators or states they describe."""
    dims = tuple(map(int, dims))
    if math.prod(dims) != size:
        raise ValidationError(
            f"dims {dims} do not multiply to matrix size {size}")
    return dims


def hermitian_defect(a: np.ndarray, scale: float | None = None) -> float:
    """Max-abs deviation from Hermiticity of a matrix or a (T, d, d) stack,
    relative to scale, by default its largest entry; infinite for an array
    with a non-finite entry."""
    if not np.isfinite(a).all():
        return math.inf
    if scale is None:
        scale = np.abs(a).max()
    return float(np.abs(a - np.swapaxes(a.conj(), -1, -2)).max()
                 / max(scale, 1e-300))


def hermitian_spectrum(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, or of each matrix of a
    (T, d, d) stack, read from the lower triangle as np.linalg.eigvalsh
    reads it. For d = 2 they are the closed form mean -+ hypot(half the
    diagonal difference, |a_10|); larger matrices take one stacked
    eigvalsh."""
    if a.shape[-1] != 2:
        return np.linalg.eigvalsh(a)
    p, q = 0.5 * a[..., 0, 0].real, 0.5 * a[..., 1, 1].real
    low = a[..., 1, 0]
    mean, radius = p + q, np.hypot(p - q, np.hypot(low.real, low.imag))
    out = np.empty(mean.shape + (2,))
    np.subtract(mean, radius, out=out[..., 0])
    np.add(mean, radius, out=out[..., 1])
    return out


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
        arr = _frozen_square(self.data)
        dims = factor_dims(self.dims, arr.shape[0])
        if any(d < 1 for d in dims):
            raise ValidationError(f"factor dimensions must be positive: {dims}")
        if self.hermitian and hermitian_defect(arr) > HERMITIAN_RTOL:
            raise ValidationError(
                f"matrix flagged Hermitian has defect {hermitian_defect(arr):.2e}")
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


def trace_norm(x: "Operator | np.ndarray"):
    """Tr sqrt(X†X), the sum of singular values: a float for one matrix,
    an array of one norm per matrix for a (T, d, d) stack."""
    arr = x.data if isinstance(x, Operator) else np.asarray(x, dtype=complex)
    norms = np.linalg.svd(arr, compute_uv=False).sum(axis=-1)
    return float(norms) if arr.ndim == 2 else norms


def _psd_by_cholesky(stack: np.ndarray) -> bool:
    """True when every matrix of the stack, shifted by PSD_ATOL/2 on its
    diagonal, has a Cholesky factor: then no eigenvalue is below
    -PSD_ATOL/2 up to rounding."""
    try:
        np.linalg.cholesky(stack + 0.5 * PSD_ATOL * np.eye(stack.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True


def check_density_stack(stack: np.ndarray) -> None:
    """Check every matrix of a (T, d, d) stack as a density matrix.

    Each state must be Hermitian relative to its own scale, have unit trace
    and no eigenvalue below -PSD_ATOL. A qubit stack takes the closed-form
    spectrum of hermitian_spectrum and makes no LAPACK call. A larger stack
    first tries one stacked Cholesky factorization of stack + PSD_ATOL/2 I,
    which reads the lower triangle as eigvalsh does: if it succeeds, every
    lowest eigenvalue is at least -PSD_ATOL/2 up to rounding, so no state
    fails that check; if it fails, the eigenvalues come from one stacked
    eigvalsh, so the decisions and messages are eigvalsh's either way. A
    stack with a non-finite entry is refused before any of these; otherwise
    the first failing state raises the ValidationError of the first check
    it fails.
    """
    if not np.isfinite(stack).all():
        raise ValidationError("density matrix has non-finite entries")
    scale = np.maximum(np.abs(stack).max(axis=(-2, -1)), 1e-300)
    herm = (np.abs(stack - np.swapaxes(stack.conj(), -1, -2)).max(axis=(-2, -1))
            / scale)
    tr = np.trace(stack, axis1=-2, axis2=-1)
    bad = (herm > HERMITIAN_RTOL) | (abs(tr - 1.0) > TRACE_ATOL)
    if stack.shape[-1] == 2 or not _psd_by_cholesky(stack):
        low = hermitian_spectrum(stack)[:, 0]
        bad |= low < -PSD_ATOL
    bad = np.flatnonzero(bad)
    if not bad.size:
        return
    k = bad[0]
    if herm[k] > HERMITIAN_RTOL:
        raise ValidationError(
            f"density matrix Hermiticity defect {herm[k]:.2e}")
    if abs(tr[k] - 1.0) > TRACE_ATOL:
        raise ValidationError(f"density matrix trace {tr[k]:.12g} != 1")
    raise ValidationError(f"density matrix has eigenvalue {low[k]:.2e}")


@dataclass(frozen=True, slots=True)
class DensityMatrix:
    """Positive semidefinite unit-trace matrix with factor metadata."""

    data: np.ndarray
    dims: tuple[int, ...]
    validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        arr = _frozen_square(self.data)
        dims = factor_dims(self.dims, arr.shape[0])
        if self.validate:
            check_density_stack(arr[None])
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.data @ self.data).real)

    @classmethod
    def pure(cls, ket: np.ndarray, dims: Sequence[int]) -> "DensityMatrix":
        """|ket><ket| / <ket|ket>. A ket with a non-finite entry is refused,
        and so is one whose norm is 0 or has a square outside the normal
        float range, where it is not accurate enough to normalize."""
        vec = np.asarray(ket, dtype=complex).ravel()
        if not np.isfinite(vec).all():
            raise ValidationError("ket has non-finite entries")
        with np.errstate(over="ignore"):   # an infinite norm is refused below
            nrm = float(np.linalg.norm(vec))
        if nrm == 0:
            raise ValidationError("cannot normalize the zero vector")
        if not np.finfo(float).tiny <= nrm * nrm < math.inf:
            raise ValidationError(f"ket norm {nrm:.3e} has a square outside "
                                  f"the normal float range")
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
