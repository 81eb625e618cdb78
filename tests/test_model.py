import itertools

import numpy as np
import pytest

from mflab.errors import ResourceLimitError, ValidationError
from mflab.model import (
    Coupling,
    SiteModel,
    SystemModel,
    assemble_cluster_interaction,
    assemble_total,
    coherent_ket,
    destroy,
    field_op,
    number_op,
    oscillator_site,
)
from mflab.operators import Operator, pauli
from oracles import embed_cluster, permute_factors

SX = pauli("x")
SZ = pauli("z")
I2 = np.eye(2, dtype=complex)


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def qubit_site(v_mat):
    return SiteModel(h=Operator(SZ.data, (2,), hermitian=True),
                     interactions=(Operator(v_mat, (2,), hermitian=True),))


def interaction(g, v, m_count):
    """The coupling part of assemble_total: zero system and site
    Hamiltonians leave G tensor the site average of v."""
    zero = Operator(np.zeros((2, 2), dtype=complex), (2,), hermitian=True)
    return assemble_total(SystemModel.single(zero, [(g, 0)]),
                          SiteModel(h=zero, interactions=(v,)), m_count)


def test_single_site_interaction_is_plain_tensor_product():
    out = interaction(SX, SZ, 1)
    assert np.allclose(out.data, np.kron(SX.data, SZ.data))
    assert out.dims == (2, 2)


def test_two_site_interaction_matches_hand_expansion():
    out = interaction(SX, SZ, 2)
    expected = 0.5 * np.kron(SX.data, np.kron(SZ.data, I2) + np.kron(I2, SZ.data))
    assert np.allclose(out.data, expected)


def test_total_hamiltonian_single_site_oracle():
    # H_sys = sigma_z, site h = sigma_z, coupling sigma_x (x) sigma_x.
    # Hand-summed 4x4 matrix.
    sys = SystemModel.single(SZ, [Coupling(g=SX)])
    site = qubit_site(SX.data)
    h = assemble_total(sys, site, 1)
    oracle = np.array([
        [2, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [1, 0, 0, -2],
    ], dtype=complex)
    assert np.allclose(h.data, oracle)
    assert h.dims == (2, 2)


def test_interaction_norm_never_exceeds_factor_norms():
    rng = np.random.default_rng(7)
    for m in range(1, 5):
        g = Operator(random_hermitian(rng, 2), (2,), hermitian=True)
        v = Operator(random_hermitian(rng, 2), (2,), hermitian=True)
        vm = interaction(g, v, m)
        bound = np.linalg.norm(g.data, 2) * np.linalg.norm(v.data, 2)
        assert np.linalg.norm(vm.data, 2) <= bound + 1e-12


def test_interaction_linear_in_coupling_strength():
    # scaling by 2.0 is exact in floating point
    g2 = Operator(2.0 * SX.data, (2,), hermitian=True)
    a = interaction(g2, SZ, 3)
    b = interaction(SX, SZ, 3)
    assert np.array_equal(a.data, 2.0 * b.data)


def test_no_couplings_gives_free_sum():
    sys = SystemModel.single(SZ, [])
    site = qubit_site(SX.data)
    h = assemble_total(sys, site, 2)
    expected = (np.kron(SZ.data, np.eye(4))
                + np.kron(I2, np.kron(SZ.data, I2) + np.kron(I2, SZ.data)))
    assert np.allclose(h.data, expected)


def test_total_hamiltonian_site_permutation_symmetry():
    rng = np.random.default_rng(11)
    sys = SystemModel.single(Operator(random_hermitian(rng, 2), (2,), hermitian=True),
                             [Coupling(g=SX)])
    site = qubit_site(random_hermitian(rng, 2))
    for m in (2, 3, 4):
        h = assemble_total(sys, site, m)
        for p in itertools.permutations(range(m)):
            perm = [0] + [1 + k for k in p]
            permuted, dims = permute_factors(h.data, h.dims, perm)
            assert dims == h.dims
            assert np.allclose(permuted, h.data, atol=1e-12)


def test_coupling_v_index_validated():
    sys = SystemModel.single(SZ, [Coupling(g=SX, v_index=1)])
    site = qubit_site(SX.data)
    with pytest.raises(ValidationError):
        assemble_total(sys, site, 1)


def test_nonlocal_coupling_rejected():
    g4 = Operator(np.kron(SX.data, SX.data), (2, 2), hermitian=True)
    with pytest.raises(ValidationError):
        SystemModel(local_h=(SZ, SZ), couplings=(Coupling(g=g4, subsystem=0),))


def test_site_interaction_dim_mismatch_rejected():
    v3 = Operator(np.eye(3, dtype=complex), (3,), hermitian=True)
    with pytest.raises(ValidationError):
        SiteModel(h=Operator(SZ.data, (2,), hermitian=True), interactions=(v3,))


def test_non_hermitian_site_hamiltonian_rejected():
    bad = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValidationError):
        SiteModel(h=Operator(bad, (2,)), interactions=())


def test_model_operators_with_non_finite_entries_rejected():
    nan = Operator(np.full((2, 2), np.nan), (2,))
    with pytest.raises(ValidationError, match="site Hamiltonian"):
        SiteModel(h=nan, interactions=())
    with pytest.raises(ValidationError, match="site interaction 0"):
        SiteModel(h=SZ, interactions=(nan,))
    with pytest.raises(ValidationError, match="subsystem Hamiltonian 0"):
        SystemModel.single(nan, [(SX, 0)])
    with pytest.raises(ValidationError, match="coupling operator 0"):
        SystemModel.single(SZ, [(nan, 0)])
    inf = Operator(np.diag([np.inf, 0, 0, 0]), (2, 2))
    with pytest.raises(ValidationError, match="site interaction 0"):
        SiteModel(h=SZ, interactions=(inf,))


# Multi-subsystem assembly.

def independent_two_part_oracle(ha, hb, ga, gb, hsite, v):
    """8x8 oracle built by raw kron arithmetic, no model code."""
    out = np.kron(np.kron(ha, I2) + np.kron(I2, hb), I2)
    out += np.kron(np.eye(4), hsite)
    out += np.kron(np.kron(ga, I2), v)
    out += np.kron(np.kron(I2, gb), v)
    return out


def test_two_subsystem_single_site_oracle():
    rng = np.random.default_rng(23)
    ha, hb = random_hermitian(rng, 2), random_hermitian(rng, 2)
    ga, gb = random_hermitian(rng, 2), random_hermitian(rng, 2)
    hs, v = random_hermitian(rng, 2), random_hermitian(rng, 2)
    sys = SystemModel(
        local_h=(Operator(ha, (2,), hermitian=True), Operator(hb, (2,), hermitian=True)),
        couplings=(Coupling(g=Operator(ga, (2,), hermitian=True), subsystem=0),
                   Coupling(g=Operator(gb, (2,), hermitian=True), subsystem=1)))
    site = SiteModel(h=Operator(hs, (2,), hermitian=True),
                     interactions=(Operator(v, (2,), hermitian=True),))
    h = assemble_total(sys, site, 1)
    assert h.dims == (2, 2, 2)
    assert np.allclose(h.data, independent_two_part_oracle(ha, hb, ga, gb, hs, v))


def test_zero_interaction_multisystem_is_free_sum():
    zero = Operator(np.zeros((2, 2), dtype=complex), (2,), hermitian=True)
    sys = SystemModel(local_h=(SZ, SX), couplings=(Coupling(g=zero, subsystem=0),))
    site = qubit_site(SZ.data)
    h = assemble_total(sys, site, 1)
    expected = (np.kron(np.kron(SZ.data, I2) + np.kron(I2, SX.data), I2)
                + np.kron(np.eye(4), SZ.data))
    assert np.allclose(h.data, expected)


# Cluster interactions.

def embed_pair_oracle(v4, sites, m):
    """Place a two-site operator at 1-based (s1, s2) among m qubit sites."""
    s1, s2 = sites
    d = 2 ** m
    out = np.zeros((d, d), dtype=complex)
    for row in range(d):
        for col in range(d):
            rb = [(row >> (m - 1 - k)) & 1 for k in range(m)]
            cb = [(col >> (m - 1 - k)) & 1 for k in range(m)]
            ok = all(rb[k] == cb[k] for k in range(m) if k not in (s1 - 1, s2 - 1))
            if ok:
                r_idx = 2 * rb[s1 - 1] + rb[s2 - 1]
                c_idx = 2 * cb[s1 - 1] + cb[s2 - 1]
                out[row, col] = v4[r_idx, c_idx]
    return out


def test_cluster_size_one_reduces_to_mean_field():
    a = assemble_cluster_interaction(SX, SZ, 3)
    z = SZ.data
    site_avg = (np.kron(np.kron(z, I2), I2) + np.kron(np.kron(I2, z), I2)
                + np.kron(np.kron(I2, I2), z)) / 3
    assert np.allclose(a.data, np.kron(SX.data, site_avg))


def test_cluster_covering_all_sites_is_single_term():
    rng = np.random.default_rng(31)
    v4 = random_hermitian(rng, 4)
    out = assemble_cluster_interaction(
        SX, Operator(v4, (2, 2), hermitian=True), 2)
    # with every site in the cluster the ordered pairs are (1, 2) and
    # (2, 1): V and V with its two factors swapped
    swapped, _ = permute_factors(v4, (2, 2), (1, 0))
    assert np.allclose(out.data, np.kron(SX.data, (v4 + swapped) / 2))


def test_cluster_pair_average_over_three_sites():
    rng = np.random.default_rng(37)
    v4 = random_hermitian(rng, 4)
    v = Operator(v4, (2, 2), hermitian=True)
    out = assemble_cluster_interaction(SX, v, 3)
    avg = sum(embed_pair_oracle(v4, pair, 3)
              for pair in itertools.permutations((1, 2, 3), 2)) / 6.0
    assert np.allclose(out.data, np.kron(SX.data, avg), atol=1e-12)
    # a site interaction on two sites enters assemble_total the same way
    assert np.allclose(interaction(SX, v, 3).data, out.data, atol=1e-12)


def test_cluster_average_is_invariant_under_site_swaps():
    # a random pair operator is not swap-symmetric; the average over
    # ordered pairs is still invariant under every relabelling of sites
    rng = np.random.default_rng(43)
    v4 = random_hermitian(rng, 4)
    swapped, _ = permute_factors(v4, (2, 2), (1, 0))
    assert np.linalg.norm(swapped - v4) > 0.5
    out = assemble_cluster_interaction(
        SX, Operator(v4, (2, 2), hermitian=True), 3).data
    for perm in itertools.permutations((1, 2, 3)):
        relabelled, _ = permute_factors(out, (2, 2, 2, 2), (0,) + perm)
        assert np.linalg.norm(relabelled - out) < 1e-12


def test_cluster_larger_than_reservoir_rejected():
    triple = Operator(np.eye(8, dtype=complex), (2, 2, 2), hermitian=True)
    with pytest.raises(ValidationError):
        assemble_cluster_interaction(SX, triple, 2)


def test_embed_cluster_rejects_repeats_and_out_of_range():
    v4 = Operator(np.eye(4, dtype=complex), (2, 2), hermitian=True)
    with pytest.raises(ValidationError):
        embed_cluster(v4, (1, 1), 3)
    with pytest.raises(ValidationError):
        embed_cluster(v4, (0, 2), 3)
    with pytest.raises(ValidationError):
        embed_cluster(v4, (2, 4), 3)


def test_embed_cluster_order_matters():
    # swap operator factors vs swapped site positions must agree
    rng = np.random.default_rng(41)
    a, b = random_hermitian(rng, 2), random_hermitian(rng, 2)
    x = Operator(np.kron(a, b), (2, 2))
    xs = Operator(np.kron(b, a), (2, 2))
    assert np.allclose(embed_cluster(x, (2, 1), 3), embed_cluster(xs, (1, 2), 3))


# Dense size limit.

def test_oversize_dense_request_rejected():
    sys = SystemModel.single(SZ, [Coupling(g=SX)])
    site = qubit_site(SX.data)
    with pytest.raises(ResourceLimitError):
        assemble_total(sys, site, 12)  # joint dim 8192


def test_joint_dimension_hard_limit():
    sys = SystemModel.single(SZ, [Coupling(g=SX)])
    site = qubit_site(SX.data)
    with pytest.raises(ResourceLimitError):
        assemble_total(sys, site, 17)  # joint dim 2^18


# Bosonic helpers.

def test_ladder_commutator_truncation_pattern():
    n = 6
    a = destroy(n).data
    ad = a.conj().T
    comm = a @ ad - ad @ a
    expected = np.eye(n, dtype=complex)
    expected[-1, -1] = 1 - n  # truncation artifact on the top level
    assert np.allclose(comm, expected)
    assert np.allclose(ad @ a, number_op(n).data)


def test_field_operator_hermitian_and_offdiagonal():
    f = field_op(5)
    assert np.allclose(f.data, f.data.conj().T)
    assert abs(f.data[0, 1] - 1 / np.sqrt(2)) < 1e-15


def test_coherent_state_mean_occupation():
    alpha = 0.7
    ket = coherent_ket(alpha, 32)
    assert abs(np.linalg.norm(ket) - 1) < 1e-12
    n_mean = np.vdot(ket, number_op(32).data @ ket).real
    assert abs(n_mean - alpha ** 2) < 1e-10


def test_coherent_state_vacuum():
    ket = coherent_ket(0.0, 8)
    assert np.allclose(ket, np.eye(8)[:, 0])


def test_oscillator_site_variants():
    s = oscillator_site(n_levels=5, omega=2.0)
    assert np.allclose(s.h.data, 2.0 * number_op(5).data)
    assert np.allclose(s.interactions[0].data, field_op(5).data)
    s2 = oscillator_site(n_levels=4, interaction="number", nu=0.3)
    assert np.allclose(s2.interactions[0].data, 0.3 * number_op(4).data)
    with pytest.raises(ValidationError):
        oscillator_site(interaction="momentum")
