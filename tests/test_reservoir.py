import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

import mflab.reservoir as reservoir
from mflab.effective import effective_potential
from mflab.errors import ValidationError
from mflab.model import SiteModel, coherent_ket, number_op, oscillator_site
from mflab.operators import DensityMatrix, Operator, pauli
from mflab.reservoir import (
    ChannelCorrelated,
    DeFinettiMixture,
    MacroscopicParts,
    ProductState,
    bell_channel_kraus,
    coherent_bound,
    coherent_bound_safe,
    decompose,
    even_double_factorial,
    factorization_error,
    kraus_defect,
    largest_remainder_counts,
    multitime_moment,
    pairing_count,
    reference_site_state,
    site_expectation,
    site_signals,
    supermultiplicative_order_limit,
)
from oracles import materialize, partial_trace, permute_factors

SX, SZ = pauli("x"), pauli("z")


def qubit_site(h_mat, v_mat):
    return SiteModel(h=Operator(np.asarray(h_mat, complex), (2,), hermitian=True),
                     interactions=(Operator(np.asarray(v_mat, complex), (2,), hermitian=True),))


def expectation_oracle(rho, h, v, t):
    # direct matrix product, no eigenbasis shortcut
    u = expm(1j * t * h)
    return np.trace(rho @ u @ v @ u.conj().T)


def dm(mat):
    return DensityMatrix(np.asarray(mat, complex), (2,))


GROUND = dm([[1, 0], [0, 0]])
EXCITED = dm([[0, 0], [0, 1]])
PLUS = dm(np.full((2, 2), 0.5))


# site_expectation

def test_expectation_vanishes_for_zero_diagonal_overlap():
    site = qubit_site(SZ.data, SX.data)
    for t in np.linspace(0, 5, 11):
        assert abs(site_expectation(GROUND, site, t)) < 1e-14


def test_expectation_plus_state_oscillates():
    site = qubit_site(SZ.data, SX.data)
    ts = np.linspace(0, 4, 50)
    vals = site_expectation(PLUS, site, ts)
    assert np.allclose(vals, np.cos(2 * ts), atol=1e-12)
    for t in (0.3, 1.7):
        oracle = expectation_oracle(PLUS.data, SZ.data, SX.data, t)
        assert abs(site_expectation(PLUS, site, t) - oracle) < 1e-12


def test_expectation_coherent_state_truncation_convergence():
    alpha, omega = 0.6, 1.3
    for n_levels, tol in ((16, 1e-8), (32, 1e-12)):
        site = oscillator_site(n_levels=n_levels, omega=omega)
        rho = DensityMatrix.pure(coherent_ket(alpha, n_levels), (n_levels,))
        for t in (0.0, 0.4, 2.1):
            expected = math.sqrt(2) * (alpha * np.exp(-1j * omega * t)).real
            assert abs(site_expectation(rho, site, t) - expected) < tol


def test_expectation_number_interaction_is_stationary():
    nu = 0.7
    site = oscillator_site(n_levels=6, interaction="number", nu=nu)
    ket = coherent_ket(0.5, 6)
    rho = DensityMatrix.pure(ket, (6,))
    target = nu * np.vdot(ket, number_op(6).data @ ket).real
    vals = site_expectation(rho, site, np.linspace(0, 7, 29))
    assert np.max(np.abs(vals - target)) < 1e-12


def test_expectation_constant_when_interaction_commutes():
    rng = np.random.default_rng(3)
    for _ in range(5):
        diag_h = np.diag(rng.normal(size=3)).astype(complex)
        diag_v = np.diag(rng.normal(size=3)).astype(complex)
        site = SiteModel(h=Operator(diag_h, (3,), hermitian=True),
                         interactions=(Operator(diag_v, (3,), hermitian=True),))
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho_mat = a @ a.conj().T
        rho = DensityMatrix(rho_mat / np.trace(rho_mat).real, (3,))
        vals = site_expectation(rho, site, np.linspace(0, 9, 31))
        assert np.max(np.abs(vals - vals[0])) < 1e-12


def test_expectation_gauge_invariant_oscillator_vanishes():
    site = oscillator_site(n_levels=7)
    occ = np.exp(-0.8 * np.arange(7))
    rho = DensityMatrix(np.diag(occ / occ.sum()).astype(complex), (7,))
    vals = site_expectation(rho, site, np.linspace(0, 6, 25))
    assert np.max(np.abs(vals)) < 1e-13


def test_expectation_dim_mismatch_rejected():
    site = qubit_site(SZ.data, SX.data)
    rho3 = DensityMatrix(np.eye(3, dtype=complex) / 3, (3,))
    with pytest.raises(ValidationError):
        site_expectation(rho3, site, 0.1)


def test_site_without_interaction_has_no_signal():
    site = SiteModel(h=SZ, interactions=())
    for call in (lambda: site_signals(PLUS, site),
                 lambda: site_expectation(PLUS, site, 0.1),
                 lambda: effective_potential(PLUS, site),
                 lambda: multitime_moment(ProductState(PLUS), 2, site, [0.1]),
                 lambda: factorization_error(ProductState(PLUS), 2, site,
                                             [0.1, 0.2])):
        with pytest.raises(ValidationError, match="no interaction"):
            call()


def test_site_signals_follow_the_interactions_in_order():
    site = SiteModel(h=SZ, interactions=(SX, SZ))
    x, z = site_signals(PLUS, site)
    ts = np.linspace(0.0, 3.0, 7)
    assert np.array_equal(x.evaluate(ts), site_expectation(PLUS, site, ts))
    assert np.allclose(z.evaluate(ts), 0.0, atol=1e-15)


def test_site_expectation_builds_only_the_signal_it_evaluates(monkeypatch):
    site = SiteModel(h=SZ, interactions=(SX, pauli("y"), SZ))
    ts = np.linspace(0.0, 3.0, 7)
    first = site_signals(PLUS, site)[0]
    calls = []
    real = reservoir.site_signal_terms

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(reservoir, "site_signal_terms", counting)
    assert np.array_equal(site_expectation(PLUS, site, ts), first.evaluate(ts))
    assert len(calls) == 1
    assert site_expectation(PLUS, site, 0.7) == first.evaluate(0.7)
    assert len(calls) == 2


# dense oracles: the site-averaged moments on the materialized state

def evolved_interaction(site, t):
    u = expm(1j * t * site.h.data)
    return u @ site.interactions[0].data @ u.conj().T


def right_apply_at_site(a, x, j, m):
    """a @ (x on site j of m sites), without forming the embedded operator."""
    d = x.shape[0]
    t = a.reshape(-1, d ** j, d, d ** (m - j - 1))
    return np.einsum("rajb,jk->rakb", t, x).reshape(a.shape)


def dense_moment(state, m, site, times):
    """Tr(rho vbar(t_1) ... vbar(t_n)), vbar the average over all m sites."""
    prod = materialize(state, m).data
    for t in times:
        vt = evolved_interaction(site, t)
        prod = sum(right_apply_at_site(prod, vt, j, m) for j in range(m)) / m
    return complex(np.trace(prod))


def dense_max_tuple_moment(state, m, site, times):
    """Largest |Tr(rho V_{j_1}(t_1) ... V_{j_n}(t_n))| over all m^n tuples."""
    ops = [evolved_interaction(site, t) for t in times]

    def walk(a, i):
        if i == len(ops):
            return abs(np.trace(a))
        return max(walk(right_apply_at_site(a, ops[i], j, m), i + 1)
                   for j in range(m))
    return walk(materialize(state, m).data, 0)


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho).real, (d,))


# multitime_moment

def test_single_time_moment_is_site_expectation():
    site = qubit_site(SZ.data, SX.data)
    for m in (1, 2, 5, 100):
        mom = multitime_moment(ProductState(PLUS), m, site, [0.8])
        assert abs(mom - site_expectation(PLUS, site, 0.8)) < 1e-14


def test_two_time_moment_closed_form():
    site = qubit_site(SZ.data, SX.data)
    t1, t2 = 0.35, 1.1
    u1 = expm(1j * t1 * SZ.data)
    u2 = expm(1j * t2 * SZ.data)
    v1 = u1 @ SX.data @ u1.conj().T
    v2 = u2 @ SX.data @ u2.conj().T
    w1 = np.trace(PLUS.data @ v1)
    w2 = np.trace(PLUS.data @ v2)
    w12 = np.trace(PLUS.data @ v1 @ v2)
    for m in (1, 2, 3, 10, 1000):
        expected = (1 - 1 / m) * w1 * w2 + (1 / m) * w12
        mom = multitime_moment(ProductState(PLUS), m, site, [t1, t2])
        assert abs(mom - expected) < 1e-12


def test_moment_partition_path_matches_dense():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho_mat = a @ a.conj().T
    rho = DensityMatrix(rho_mat / np.trace(rho_mat).real, (2,))
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    site = qubit_site((h + h.conj().T) / 2, (v + v.conj().T) / 2)
    times = [0.2, 0.9, 1.4]
    for m in (1, 2, 3, 4):
        fast = multitime_moment(ProductState(rho), m, site, times)
        dense = dense_moment(ProductState(rho), m, site, times)
        assert abs(fast - dense) < 1e-12


def test_definetti_moment_is_weighted_sum_of_atoms():
    site = qubit_site(SZ.data, SX.data)
    mixture = DeFinettiMixture(((0.3, GROUND), (0.7, PLUS)))
    times = [0.1, 0.5]
    m = 3
    expected = (0.3 * multitime_moment(ProductState(GROUND), m, site, times)
                + 0.7 * multitime_moment(ProductState(PLUS), m, site, times))
    assert abs(multitime_moment(mixture, m, site, times) - expected) < 1e-14
    dense = dense_moment(mixture, m, site, times)
    assert abs(multitime_moment(mixture, m, site, times) - dense) < 1e-13


def test_macroscopic_moment_matches_dense():
    site = qubit_site(SZ.data, SX.data)
    state = MacroscopicParts(((2 / 3, PLUS), (1 / 3, EXCITED)))
    times = [0.4, 1.2]
    for m in (3, 4):
        fast = multitime_moment(state, m, site, times)
        dense = dense_moment(state, m, site, times)
        assert abs(fast - dense) < 1e-12


def test_moment_site_label_permutation_invariance():
    # conjugating the materialized state by a site swap leaves moments alone
    site = qubit_site(SZ.data, SX.data)
    state = ChannelCorrelated(GROUND, 2, bell_channel_kraus())
    m = 3
    times = [0.3, 0.8]
    base = multitime_moment(state, m, site, times)
    rho = materialize(state, m)
    for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        permuted, dims = permute_factors(rho.data, rho.dims, list(perm))
        swapped = DensityMatrix(permuted, dims)

        # independent dense evaluation against the permuted state
        vbar = []
        for t in times:
            u = expm(1j * t * SZ.data)
            vt = u @ SX.data @ u.conj().T
            acc = (np.kron(np.kron(vt, np.eye(2)), np.eye(2))
                   + np.kron(np.kron(np.eye(2), vt), np.eye(2))
                   + np.kron(np.kron(np.eye(2), np.eye(2)), vt)) / 3
            vbar.append(acc)
        val = np.trace(swapped.data @ vbar[0] @ vbar[1])
        assert abs(val - base) < 1e-12


def test_moment_requires_time_and_matching_dims():
    site = qubit_site(SZ.data, SX.data)
    with pytest.raises(ValidationError):
        multitime_moment(ProductState(PLUS), 2, site, [])
    rho3 = DensityMatrix(np.eye(3, dtype=complex) / 3, (3,))
    with pytest.raises(ValidationError):
        multitime_moment(ProductState(rho3), 2, site, [0.1])
    for times in ([np.nan], [0.1, np.nan], [np.inf], [0.2, -np.inf]):
        with pytest.raises(ValidationError, match="must be finite"):
            multitime_moment(ProductState(PLUS), 3, site, times)
        with pytest.raises(ValidationError, match="must be finite"):
            factorization_error(ProductState(PLUS), 3, site, times)


def test_channel_moment_and_bound_run_at_large_m():
    # the block is contracted locally, so no dense size cutoff applies
    site = qubit_site(SZ.data, SX.data)
    state = ChannelCorrelated(GROUND, 2, bell_channel_kraus())
    for m in (16, 64):
        assert np.isfinite(multitime_moment(state, m, site, [0.1, 0.2]))
        err, bound = factorization_error(state, m, site, [0.1, 0.2])
        assert 0 < bound and err <= bound


def test_identity_channel_moment_is_the_product_moment_at_large_m():
    # an identity channel leaves the product state, so the block
    # contraction must agree with the plain partition sum far beyond any
    # dense size
    rng = np.random.default_rng(11)
    site = qubit_site(random_hermitian(rng, 2), random_hermitian(rng, 2))
    rho = random_state(rng, 2)
    for L in (1, 2, 3):
        ident = ChannelCorrelated(rho, L, (np.eye(2 ** L),))
        for times in ([0.4], [0.2, 1.1], [0.3, 0.9, 1.6]):
            want = multitime_moment(ProductState(rho), 64, site, times)
            assert abs(multitime_moment(ident, 64, site, times) - want) < 1e-12


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), L=st.integers(1, 3),
       n=st.integers(1, 3), extra=st.integers(0, 5),
       n_kraus=st.integers(1, 2))
def test_channel_moment_and_bound_match_dense_oracle(seed, L, n, extra,
                                                     n_kraus):
    # random-unitary channels on L = 1..3 sites, M = L..8
    rng = np.random.default_rng(seed)
    m = L + extra
    site = qubit_site(random_hermitian(rng, 2), random_hermitian(rng, 2))
    p = rng.dirichlet(np.ones(n_kraus))
    kraus = tuple(np.sqrt(w) * random_unitary(rng, 2 ** L) for w in p)
    state = ChannelCorrelated(random_state(rng, 2), L, kraus)
    times = list(rng.uniform(0, 2, size=n))
    moment = multitime_moment(state, m, site, times)
    assert abs(moment - dense_moment(state, m, site, times)) < 1e-12
    _, bound = factorization_error(state, m, site, times)
    c_n = dense_max_tuple_moment(state, m, site, times)
    assert abs(bound - n * L * c_n / (m - L + 1)) < 1e-12


# factorization_error

def test_factorization_error_single_time_zero():
    site = qubit_site(SZ.data, SX.data)
    err, bound = factorization_error(ProductState(PLUS), 3, site, [0.7])
    assert err < 1e-14 and bound is None


def test_factorization_error_two_time_closed_form():
    site = qubit_site(SZ.data, SX.data)
    t1, t2 = 0.25, 1.45
    u1, u2 = expm(1j * t1 * SZ.data), expm(1j * t2 * SZ.data)
    v1 = u1 @ SX.data @ u1.conj().T
    v2 = u2 @ SX.data @ u2.conj().T
    w1 = np.trace(PLUS.data @ v1)
    w2 = np.trace(PLUS.data @ v2)
    w12 = np.trace(PLUS.data @ v1 @ v2)
    for m in (1, 2, 7, 40):
        err, _ = factorization_error(ProductState(PLUS), m, site, [t1, t2])
        assert abs(err - abs(w12 - w1 * w2) / m) < 1e-12


def test_factorized_product_is_the_limit_signal():
    # the comparison product multiplies the very signal that weights the
    # limit couplings, evaluated at all the times at once
    site = qubit_site(SZ.data, SX.data + 0.3 * SZ.data)
    state = DeFinettiMixture(((0.4, PLUS), (0.6, dm([[0.7, 0.2], [0.2, 0.3]]))))
    signal = effective_potential(reference_site_state(state),
                                 site).signals[0]
    for times in ([0.4], [0.25, 1.45], [0.1, 0.9, 0.5]):
        factorized = math.prod(signal.evaluate(np.array(times)).tolist())
        moment = multitime_moment(state, 3, site, times)
        err, _ = factorization_error(state, 3, site, times)
        assert err == abs(moment - factorized)
        for t in times:
            assert site_expectation(reference_site_state(state), site,
                                    t) == signal.evaluate(t)


def test_factorization_error_halves_when_sites_double():
    rng = np.random.default_rng(9)
    for trial in range(4):
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        site = qubit_site((h + h.conj().T) / 2, (v + v.conj().T) / 2)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho_mat = a @ a.conj().T
        rho = DensityMatrix(rho_mat / np.trace(rho_mat).real, (2,))
        times = sorted(rng.uniform(0, 2, size=2))
        for m in (2, 5, 16):
            e1, _ = factorization_error(ProductState(rho), m, site, times)
            e2, _ = factorization_error(ProductState(rho), 2 * m, site, times)
            if e2 > 1e-13:
                assert 1.9 <= e1 / e2 <= 2.1


def test_bell_channel_error_within_stated_bound():
    site = qubit_site(SZ.data, SX.data)
    state = ChannelCorrelated(GROUND, 2, bell_channel_kraus())
    for m in (4, 5, 6):
        err, bound = factorization_error(state, m, site, [0.3, 1.1])
        assert err <= bound + 1e-12
        assert bound > 0


# channel-correlated construction

def test_identity_channel_gives_product_state():
    ident = (np.eye(4, dtype=complex),)
    rho = materialize(ChannelCorrelated(PLUS, 2, ident), 3)
    expected = materialize(ProductState(PLUS), 3)
    assert np.allclose(rho.data, expected.data, atol=1e-14)


def test_bell_channel_three_sites_explicit_oracle():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    bell_dm = np.outer(bell, bell.conj())
    g = GROUND.data
    oracle = 0.5 * (np.kron(bell_dm, g) + np.kron(g, bell_dm))
    rho = materialize(ChannelCorrelated(GROUND, 2, bell_channel_kraus()), 3)
    assert np.allclose(rho.data, oracle, atol=1e-14)
    assert abs(np.trace(rho.data) - 1) < 1e-12
    assert np.linalg.eigvalsh(rho.data).min() > -1e-12


def test_bell_channel_single_site_marginal():
    rho = materialize(ChannelCorrelated(GROUND, 2, bell_channel_kraus()), 3)
    marginal = partial_trace(rho, keep=[0])
    expected = 0.5 * (GROUND.data + np.eye(2) / 2)
    assert np.allclose(marginal.data, expected, atol=1e-14)


def test_channel_needs_enough_sites():
    with pytest.raises(ValidationError):
        materialize(ChannelCorrelated(GROUND, 2, bell_channel_kraus()), 1)


def test_non_trace_preserving_kraus_rejected():
    bad = (0.9 * np.eye(4, dtype=complex),)
    with pytest.raises(ValidationError):
        ChannelCorrelated(GROUND, 2, bad)


def test_kraus_defect_zero_for_unitary():
    assert kraus_defect(bell_channel_kraus()) < 1e-14


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_kraus_rejected(bad):
    kraus = (np.full((2, 2), bad, dtype=complex),)
    assert kraus_defect(kraus) == math.inf
    with pytest.raises(ValidationError, match="defect inf"):
        ChannelCorrelated(GROUND, 1, kraus)
    # one broken entry among otherwise complete operators
    kraus = [k.copy() for k in bell_channel_kraus()]
    kraus[0][1, 2] = bad
    with pytest.raises(ValidationError, match="defect inf"):
        ChannelCorrelated(GROUND, 2, tuple(kraus))


# materialization

def test_materialized_states_are_valid_density_matrices():
    mixture = DeFinettiMixture(((0.4, GROUND), (0.6, PLUS)))
    macro = MacroscopicParts(((0.5, GROUND), (0.5, EXCITED)))
    bell = ChannelCorrelated(GROUND, 2, bell_channel_kraus())
    for state in (ProductState(PLUS), mixture, macro, bell):
        rho = materialize(state, 3)
        assert abs(np.trace(rho.data) - 1) < 1e-12
        assert np.max(np.abs(rho.data - rho.data.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(rho.data).min() > -1e-12


def test_largest_remainder_allocation():
    assert list(largest_remainder_counts([2 / 3, 1 / 3], 4)) == [3, 1]
    assert list(largest_remainder_counts([0.5, 0.5], 5)) == [3, 2]
    assert list(largest_remainder_counts([1 / 3, 1 / 3, 1 / 3], 8)) == [3, 3, 2]
    assert list(largest_remainder_counts([1.0], 6)) == [6]


def test_macroscopic_materialization_layout():
    state = MacroscopicParts(((2 / 3, PLUS), (1 / 3, EXCITED)))
    rho = materialize(state, 3)
    expected = np.kron(np.kron(PLUS.data, PLUS.data), EXCITED.data)
    assert np.allclose(rho.data, expected)


def test_weight_validation():
    with pytest.raises(ValidationError):
        DeFinettiMixture(((0.5, GROUND), (0.6, PLUS)))
    with pytest.raises(ValidationError):
        MacroscopicParts(((-0.1, GROUND), (1.1, PLUS)))
    with pytest.raises(ValidationError):
        DeFinettiMixture(())



def test_non_finite_weights_rejected():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="non-finite weight"):
            DeFinettiMixture(((bad, GROUND),))
        with pytest.raises(ValidationError, match="non-finite weight"):
            MacroscopicParts(((bad, GROUND), (0.5, PLUS)))


def test_reference_site_state_barycenter():
    mixture = DeFinettiMixture(((0.25, GROUND), (0.75, EXCITED)))
    ref = reference_site_state(mixture)
    assert np.allclose(ref.data, np.diag([0.25, 0.75]))
    assert np.allclose(reference_site_state(ProductState(PLUS)).data, PLUS.data)


def _decomposition_families():
    tilted = dm([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    return {
        "product": ProductState(tilted),
        "definetti": DeFinettiMixture(((0.3, PLUS), (0.7, tilted))),
        "macroscopic": MacroscopicParts(((0.55, GROUND), (0.25, PLUS),
                                         (0.2, tilted))),
        "channel": ChannelCorrelated(tilted, 2, bell_channel_kraus()),
    }


@pytest.mark.parametrize("family", ["product", "definetti", "macroscopic",
                                    "channel"])
def test_decomposition_is_the_materialized_state(family):
    state = _decomposition_families()[family]
    atoms = state.limit_atoms()
    assert abs(sum(w for w, _ in atoms) - 1.0) < 1e-14
    for m in range(1, 10):
        if family == "channel" and m < 2:
            with pytest.raises(ValidationError, match="correlation length"):
                decompose(state, m, 2)
            continue
        comps = decompose(state, m, 2)
        assert abs(sum(w for w, _, _ in comps) - 1.0) < 1e-14
        for _, parts, block in comps:
            assert all(n > 0 for n, _ in parts)
            blocked = 0 if block is None else len(block.dims)
            assert sum(n for n, _ in parts) + blocked == m
        if family == "channel":
            continue
        acc = 0
        for w, parts, _ in comps:
            prod = np.eye(1)
            for n, s in parts:
                for _ in range(n):
                    prod = np.kron(prod, s.data)
            acc = acc + w * prod
        assert np.max(np.abs(acc - materialize(state, m).data)) < 1e-14


def test_decomposition_checks_site_dim_and_explicit_factors():
    with pytest.raises(ValidationError, match="does not match site dim 3"):
        decompose(ProductState(PLUS), 4, 3)
    with pytest.raises(ValidationError, match="need at least one site"):
        decompose(ProductState(PLUS), 0, 2)
    explicit = materialize(ProductState(PLUS), 3)
    assert decompose(explicit, 3, 2) == [(1.0, (), explicit)]
    with pytest.raises(ValidationError, match="factors"):
        decompose(explicit, 2, 2)


# bound constants

def test_pairing_count_values():
    assert pairing_count(0) == 1
    assert pairing_count(2) == 1
    assert pairing_count(4) == 3
    assert pairing_count(6) == 15
    assert pairing_count(8) == 105
    with pytest.raises(ValidationError):
        pairing_count(3)
    with pytest.raises(ValidationError):
        pairing_count(-2)


def test_coherent_bounds_overflow_to_inf():
    for bound in (coherent_bound, coherent_bound_safe):
        assert bound(4, 1e300) == math.inf
        assert bound(4, -1e300) == math.inf
        assert bound(1, 1e300) < math.inf


def test_supermultiplicative_limit_is_the_float_range():
    # the top order's joint constant (4m)!! is the largest in the table
    top = supermultiplicative_order_limit()
    assert even_double_factorial(3) == 48
    assert math.isfinite(float(even_double_factorial(2 * top)))
    with pytest.raises(OverflowError):
        float(even_double_factorial(2 * top + 2))


def test_huge_coherent_amplitude_is_the_top_level():
    # no amplitude overflows: the truncated state is the top kept level
    for alpha in (1e300, -1e300, 1e300j):
        ket = coherent_ket(alpha, 12)
        assert np.all(np.isfinite(ket))
        assert abs(abs(ket[-1]) - 1.0) < 1e-15


def test_coherent_bound_values():
    alpha = 0.37
    assert abs(coherent_bound(1, alpha) - (0.5 + alpha)) < 1e-15
    assert abs(coherent_bound(4, 0) - 3 / 16) < 1e-15
    assert abs(coherent_bound(2, 1) - 2.25) < 1e-15
    assert coherent_bound_safe(2, 0) == 1.0


def test_pairing_supermultiplicativity():
    for n1 in range(11):
        for n2 in range(11):
            lhs = pairing_count(2 * (n1 + n2))
            rhs = pairing_count(2 * n1) * pairing_count(2 * n2)
            assert lhs >= rhs


def test_truncated_moments_respect_coherent_envelopes():
    # published constant holds away from the single-site edge; the wide
    # variant holds everywhere on this grid
    times = [0.2, 0.7, 1.3, 2.9, 4.1, 5.3]
    for alpha in (0.0, 0.5, 1.0):
        n_levels = 24
        site = oscillator_site(n_levels=n_levels, omega=1.0)
        rho = DensityMatrix.pure(coherent_ket(alpha, n_levels), (n_levels,))
        state = ProductState(rho)
        for n in range(1, 7):
            for m in (1, 2, 3):
                mom = abs(multitime_moment(state, m, site, times[:n]))
                assert mom <= coherent_bound_safe(n, alpha) + 1e-9
                if m >= 3:
                    assert mom <= coherent_bound(n, alpha) + 1e-9
