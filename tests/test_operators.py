import cmath
import decimal
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from mflab import operators
from mflab.analysis import trace_distance
from mflab.errors import ValidationError
from mflab.operators import (
    DensityMatrix,
    Operator,
    PAULI_X,
    PAULI_Z,
    PSD_ATOL,
    add_embedded,
    bell_ket,
    check_density_stack,
    hermitian_defect,
    hermitian_spectrum,
    ket,
    pauli,
    trace_norm,
)
from oracles import partial_trace, permute_factors


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / rho.trace()


@pytest.mark.parametrize("left,right", [(1, 2), (2, 1), (1, 1), (2, 4),
                                        (4, 2)])
def test_add_embedded_adds_the_kronecker_embedding(left, right):
    # written through a strided view onto a nonzero array, it must add
    # exactly 1_left (x) x (x) 1_right and leave every other entry alone
    rng = np.random.default_rng(left + 10 * right)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    n = 3 * left * right
    base = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    out = base.copy()
    assert add_embedded(out, x, left, right) is out
    want = base + np.kron(np.kron(np.eye(left), x), np.eye(right))
    np.testing.assert_array_equal(out, want)


def test_partial_trace_product():
    rng = np.random.default_rng(7)
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 3)
    joint = DensityMatrix(np.kron(rho_a, rho_b), (2, 3))
    out = partial_trace(joint, {0})
    assert out.dims == (2,)
    np.testing.assert_allclose(out.data, rho_a, atol=1e-14)


def test_partial_trace_bell():
    rho = DensityMatrix.pure(bell_ket(), (2, 2))
    out = partial_trace(rho, {0})
    np.testing.assert_allclose(out.data, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_keep_all():
    rng = np.random.default_rng(3)
    rho = DensityMatrix(random_density(rng, 6), (2, 3))
    out = partial_trace(rho, {0, 1})
    np.testing.assert_allclose(out.data, rho.data, atol=0)


def test_partial_trace_keep_order():
    # kept dims stay in original order even if the keep set is given reversed
    rng = np.random.default_rng(11)
    rho = DensityMatrix(random_density(rng, 12), (2, 3, 2))
    out = partial_trace(rho, [2, 0])
    assert out.dims == (2, 2)


def test_partial_trace_invalid_index():
    rho = DensityMatrix(np.eye(4) / 4, (2, 2))
    with pytest.raises(ValidationError):
        partial_trace(rho, {2})
    with pytest.raises(ValidationError):
        partial_trace(rho, set())


def test_partial_trace_random_properties():
    # trace- and positivity-preserving across random states, dims <= (4, 4)
    rng = np.random.default_rng(2024)
    for _ in range(100):
        da = int(rng.integers(2, 5))
        db = int(rng.integers(2, 5))
        rho = random_density(rng, da * db)
        out = partial_trace(rho, {0}, dims=(da, db))
        assert abs(out.trace() - 1.0) < 1e-12
        assert np.linalg.eigvalsh(out)[0] > -1e-12


def test_trace_norm_values():
    assert trace_norm(np.diag([1.0, -2.0])) == pytest.approx(3.0, abs=1e-12)
    rng = np.random.default_rng(9)
    rho = random_density(rng, 5)
    assert trace_norm(rho) == pytest.approx(1.0, abs=1e-10)


def test_trace_norm_unitary_invariance():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u = expm(-1j * 1.3 * (a + a.conj().T) / 2)
    assert trace_norm(u @ x @ u.conj().T) == pytest.approx(trace_norm(x), abs=1e-10)


def test_trace_distance_range():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = random_density(rng, 4)
        b = random_density(rng, 4)
        val = trace_norm(a - b) / 2
        assert 0.0 <= val <= 1.0 + 1e-12


def test_operator_flag_validation():
    with pytest.raises(ValidationError):
        Operator(np.array([[0, 1], [0, 0]]), (2,), hermitian=True)
    with pytest.raises(ValidationError):
        Operator(np.eye(4), (2, 3))


def test_operator_defect_helpers():
    assert hermitian_defect(PAULI_X) == 0.0


def test_operator_with_non_finite_entries_is_not_hermitian():
    for bad in (np.full((2, 2), np.nan), np.diag([np.inf, 1.0])):
        assert hermitian_defect(bad) == np.inf
        with pytest.raises(ValidationError, match="defect inf"):
            Operator(bad, (2,), hermitian=True)


def test_density_matrix_validation():
    with pytest.raises(ValidationError):
        DensityMatrix(np.eye(2), (2,))  # trace 2
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([1.5, -0.5]), (2,))
    rho = DensityMatrix.pure(3.0 * ket("0"), (2,))  # normalizes
    assert rho.purity() == pytest.approx(1.0)


def test_pure_state_is_the_normalized_projector():
    # bit for bit the outer product of the ket divided by its norm
    rng = np.random.default_rng(5)
    for ket_ in (ket("+"), 3.0 * ket("0"),
                 rng.normal(size=6) + 1j * rng.normal(size=6)):
        vec = np.asarray(ket_, dtype=complex) / np.linalg.norm(ket_)
        got = DensityMatrix.pure(ket_, (len(vec),))
        assert np.array_equal(got.data, np.outer(vec, vec.conj()))


@pytest.mark.parametrize("validate", [True, False])
def test_density_matrix_is_not_changed_by_writes_to_the_callers_array(validate):
    arr = np.diag([0.25, 0.75]).astype(complex)
    seen = arr.view()
    seen.setflags(write=False)   # read-only, but arr still writes its memory
    for data in (arr, seen):
        rho = DensityMatrix(data, (2,), validate=validate)
        arr[0, 0] = 7.0
        assert rho.data[0, 0] == 0.25 and not rho.data.flags.writeable
        arr[0, 0] = 0.25


def test_frozen_complex_array_is_held_without_a_copy():
    arr = np.diag([0.25, 0.75]).astype(complex)
    arr.setflags(write=False)
    assert DensityMatrix(arr, (2,)).data is arr
    assert DensityMatrix(arr[None][0], (2,)).data.base is arr
    assert Operator(arr, (2,), hermitian=True).data is arr


def test_pure_state_refuses_kets_it_cannot_normalize():
    for bad, words in (([np.nan, 1.0], "non-finite"),
                       ([np.inf, 0.0], "non-finite"),
                       ([1e300, 1e300], "normal float range"),
                       ([0.0, 0.0], "zero vector"),
                       ([1e-200, 0.0], "zero vector"),
                       # a subnormal square: the norm is off by 5.6e-6
                       ([1e-160, 0.0], "normal float range")):
        with pytest.raises(ValidationError, match=words):
            DensityMatrix.pure(np.array(bad), (2,))


def test_permute_factors_swaps_kron():
    a = np.kron(PAULI_X, PAULI_Z)
    swapped, dims = permute_factors(a, (2, 2), [1, 0])
    np.testing.assert_array_equal(swapped, np.kron(PAULI_Z, PAULI_X))
    assert dims == (2, 2)


def test_permute_factors_three_sites():
    ops = [pauli("x"), pauli("y"), pauli("z")]
    full = functools.reduce(np.kron, [op.data for op in ops])
    perm = [2, 0, 1]
    permuted, _ = permute_factors(full, (2, 2, 2), perm)
    expected = functools.reduce(np.kron, [ops[p].data for p in perm])
    np.testing.assert_allclose(permuted, expected, atol=0)


# The qubit spectrum in closed form, against eigvalsh and an exact reference

UNIT = st.floats(-1.0, 1.0)
SCALE = st.integers(-150, 150).map(lambda e: 10.0 ** e)
PROPERTY = settings(max_examples=300, deadline=None, database=None,
                    derandomize=True)


@st.composite
def qubit_hermitian(draw):
    """A 2 x 2 Hermitian matrix with entries at a scale 1e-150 ... 1e150:
    general, diagonal, degenerate (a multiple of 1) or rank 1."""
    kind = draw(st.sampled_from(["general", "diagonal", "degenerate", "rank1"]))
    scale = draw(SCALE)
    if kind == "rank1":
        v = np.array([complex(draw(UNIT), draw(UNIT)) for _ in range(2)])
        return scale * np.outer(v, v.conj())
    p, q = draw(UNIT), draw(UNIT)
    c = complex(draw(UNIT), draw(UNIT)) if kind == "general" else 0j
    if kind == "degenerate":
        q = p
    return scale * np.array([[p, c.conjugate()], [c, q]])


def exact_spectrum(a):
    """The eigenvalues of a's lower triangle, in 60-digit decimals, rounded
    once to floats."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        p, q, re, im = (decimal.Decimal(x) for x in (
            a[0, 0].real, a[1, 1].real, a[1, 0].real, a[1, 0].imag))
        mean = (p + q) / 2
        radius = (((p - q) / 2) ** 2 + re * re + im * im).sqrt()
        return np.array([float(mean - radius), float(mean + radius)])


def ulps_of_largest_entry(a):
    return np.spacing(np.abs(a).max(axis=(-2, -1)))


@PROPERTY
@given(st.lists(qubit_hermitian(), min_size=1, max_size=5))
def test_qubit_spectrum_is_the_closed_form(mats):
    stack = np.array(mats)
    got = hermitian_spectrum(stack)
    assert got.shape == (len(mats), 2)
    for a, row in zip(mats, got):
        assert np.array_equal(hermitian_spectrum(a), row)
        ulp = ulps_of_largest_entry(a)
        assert np.abs(row - exact_spectrum(a)).max() <= 4 * ulp
        assert np.abs(row - np.linalg.eigvalsh(a)).max() <= 16 * ulp
    # only the lower triangle is read, as eigvalsh reads it
    skewed = stack.copy()
    skewed[:, 0, 1] = 3.0
    assert np.array_equal(hermitian_spectrum(skewed), got)


@PROPERTY
@given(qubit_hermitian(), qubit_hermitian(), st.booleans())
def test_qubit_trace_distance_is_half_the_trace_norm(a, h, nearly_equal):
    b = h
    if nearly_equal:   # 1e-12 apart, relative to a's largest entry
        b = a + 1e-12 * np.abs(a).max() * h / max(np.abs(h).max(), 1e-300)
    rho, sigma = (DensityMatrix(x, (2,), validate=False) for x in (a, b))
    got = trace_distance(rho, sigma)
    assert type(got) is float
    assert got == trace_distance(a, b) == trace_distance(a[None], b[None])[0]
    diff = a - b
    ulp = ulps_of_largest_entry(diff)
    assert abs(got - 0.5 * np.abs(exact_spectrum(diff)).sum()) <= 4 * ulp
    assert abs(got - 0.5 * trace_norm(diff)) <= 16 * ulp


def test_qubit_pairs_give_the_bits_of_their_stack():
    # C hypot and Python's math.hypot differ in the last bit on a few in a
    # thousand inputs; 4000 pairs at scales 1e-150 ... 1e150 show any drift
    rng = np.random.default_rng(11)
    n = 4000
    scale = 10.0 ** rng.integers(-150, 151, size=(n, 1, 1))
    a, b = (scale * (g + np.swapaxes(g.conj(), -1, -2)) for g in (
        rng.normal(size=(2, n, 2, 2)) + 1j * rng.normal(size=(2, n, 2, 2))))
    pairs = [trace_distance(DensityMatrix(x, (2,), validate=False),
                            DensityMatrix(y, (2,), validate=False))
             for x, y in zip(a, b)]
    assert np.array_equal(pairs, trace_distance(a, b))


PSD_EDGE = {
    "inside": st.floats(0.0, 1.0),
    "just past": st.floats(1e-3, 10.0).map(lambda f: -PSD_ATOL * (1 + f)),
    "just short": st.floats(1e-3, 1.0).map(lambda f: -PSD_ATOL * (1 - f)),
}


@st.composite
def qubit_state(draw):
    """A unit-trace matrix U diag(low, 1 - low) U^dagger with low drawn
    inside [0, 1] or near -PSD_ATOL, or a copy with a trace or Hermiticity
    defect."""
    low = draw(st.sampled_from(sorted(PSD_EDGE)).flatmap(PSD_EDGE.get))
    theta, phi = draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, 2 * math.pi))
    c, s = math.cos(theta), cmath.exp(1j * phi) * math.sin(theta)
    u = np.array([[c, -s.conjugate()], [s, c]])
    rho = u @ np.diag([low, 1.0 - low]) @ u.conj().T
    defect = draw(st.sampled_from(["none", "none", "trace", "hermiticity"]))
    if defect == "trace":
        rho[1, 1] += 1e-6
    elif defect == "hermiticity":
        rho[0, 1] += 1e-6
    return rho


def density_stack_refusal(stack):
    try:
        check_density_stack(stack)
    except ValidationError as exc:
        return str(exc)
    return None


@PROPERTY
@given(st.lists(qubit_state(), min_size=1, max_size=4))
def test_density_checks_refuse_what_eigvalsh_refuses(states):
    stack = np.array(states)
    got = density_stack_refusal(stack)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "hermitian_spectrum", np.linalg.eigvalsh)
        assert got == density_stack_refusal(stack)
    for rho in states:
        alone = density_stack_refusal(rho[None])
        if alone is not None:
            assert got == alone
            break
    else:
        assert got is None


@st.composite
def density_stack(draw):
    """A stack of one to four d x d unit-trace matrices, d in {3, 4, 8}:
    U diag(low, rest) U^dagger with low drawn inside [0, 1] or near
    -PSD_ATOL and the rest positive, some copies with a trace or
    Hermiticity defect."""
    d = draw(st.sampled_from([3, 4, 8]))
    states = []
    for _ in range(draw(st.integers(1, 4))):
        low = draw(st.sampled_from(sorted(PSD_EDGE)).flatmap(PSD_EDGE.get))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        rest = rng.uniform(0.1, 1.0, d - 1)
        spectrum = np.concatenate([[low], (1.0 - low) * rest / rest.sum()])
        u = np.linalg.qr(rng.normal(size=(d, d))
                         + 1j * rng.normal(size=(d, d)))[0]
        rho = u @ np.diag(spectrum) @ u.conj().T
        defect = draw(st.sampled_from(["none", "none", "trace",
                                       "hermiticity"]))
        if defect == "trace":
            rho[-1, -1] += 1e-6
        elif defect == "hermiticity":
            rho[0, -1] += 1e-6
        states.append(rho)
    return np.array(states)


@PROPERTY
@given(density_stack())
def test_density_checks_past_qubits_refuse_what_eigvalsh_refuses(stack):
    # the Cholesky pre-check decides nothing that eigvalsh alone would not
    got = density_stack_refusal(stack)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_psd_by_cholesky", lambda stack: False)
        mp.setattr(operators, "hermitian_spectrum", np.linalg.eigvalsh)
        assert got == density_stack_refusal(stack)
    for rho in stack:
        alone = density_stack_refusal(rho[None])
        if alone is not None:
            assert got == alone
            break
    else:
        assert got is None


def test_state_just_past_the_psd_tolerance_is_refused():
    low = -PSD_ATOL * 1.001
    c, s = math.cos(0.3), math.sin(0.3)
    u = np.array([[c, -s], [s, c]], dtype=complex)
    rho = u @ np.diag([low, 1.0 - low]) @ u.conj().T
    assert abs(hermitian_spectrum(rho)[0] - low) < 1e-15
    with pytest.raises(ValidationError, match=r"eigenvalue -1\.00e-09"):
        DensityMatrix(rho, (2,))
    with pytest.raises(ValidationError, match=r"eigenvalue -1\.00e-09"):
        check_density_stack(np.array([np.eye(2) / 2, rho]))
