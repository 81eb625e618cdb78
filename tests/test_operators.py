import functools

import numpy as np
import pytest
from scipy.linalg import expm

from mflab.errors import ValidationError
from mflab.operators import (
    DensityMatrix,
    Operator,
    PAULI_X,
    PAULI_Z,
    bell_ket,
    embed_at_site,
    hermitian_defect,
    ket,
    partial_trace,
    pauli,
    permute_factors,
    trace_norm,
)


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / rho.trace()


def test_embed_first_site():
    out = embed_at_site(pauli("z"), 1, 2)
    np.testing.assert_array_equal(out.data, np.kron(PAULI_Z, np.eye(2)))
    assert out.dims == (2, 2)


def test_embed_second_site():
    out = embed_at_site(pauli("x"), 2, 2)
    np.testing.assert_array_equal(out.data, np.kron(np.eye(2), PAULI_X))


def test_embed_identity_any_site():
    for m in (1, 2, 3):
        out = embed_at_site(Operator(np.eye(2), (2,)), m, 3)
        np.testing.assert_array_equal(out.data, np.eye(8))


def test_embed_index_errors():
    with pytest.raises(ValidationError):
        embed_at_site(pauli("x"), 0, 2)
    with pytest.raises(ValidationError):
        embed_at_site(pauli("x"), 3, 2)


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
