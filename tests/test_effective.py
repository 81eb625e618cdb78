import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import mflab.effective as eff
from mflab.effective import (
    EffectivePotential,
    QuasiPeriodicSignal,
    effective_potential,
    effective_trajectory,
    evolve_state,
    propagate_definetti,
    propagate_effective,
)
from mflab.errors import ToleranceError, ValidationError
from mflab.model import (Coupling, SiteModel, SystemModel, coherent_ket,
                         oscillator_site)
from mflab.operators import DensityMatrix, Operator, pauli
from mflab.reservoir import (
    DeFinettiMixture,
    MacroscopicParts,
    ProductState,
    site_signal_terms,
)
from oracles import partial_trace

SX, SY, SZ = pauli("x"), pauli("y"), pauli("z")
PLUS = DensityMatrix(np.full((2, 2), 0.5, dtype=complex), (2,))
GROUND = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), (2,))
ZERO_POTENTIAL = EffectivePotential((QuasiPeriodicSignal.constant(0.0),))


def qubit_site(h_mat, v_mat):
    return SiteModel(h=Operator(np.asarray(h_mat, complex), (2,), hermitian=True),
                     interactions=(Operator(np.asarray(v_mat, complex), (2,), hermitian=True),))


def qubit_sys(h_mat, g_mat):
    return SystemModel.single(Operator(np.asarray(h_mat, complex), (2,), hermitian=True),
                              [Coupling(g=Operator(np.asarray(g_mat, complex), (2,), hermitian=True))])


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (a + a.conj().T)


def direct_signal_oracle(rho, h, v, t):
    u = expm(1j * t * h)
    return np.trace(rho @ u @ v @ u.conj().T).real


# potentials

def test_plus_state_potential_is_cosine():
    pot = effective_potential(PLUS, qubit_site(SZ.data, SX.data))
    ts = np.linspace(0, 6, 61)
    assert np.allclose(pot.signals[0].evaluate(ts), np.cos(2 * ts), atol=1e-12)


def test_quasiperiodic_matches_direct_sampling():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = (h + h.conj().T) / 2
    v = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    v = (v + v.conj().T) / 2
    site = SiteModel(h=Operator(h, (3,), hermitian=True),
                     interactions=(Operator(v, (3,), hermitian=True),))
    pot = effective_potential(DensityMatrix(rho, (3,)), site)
    for t in rng.uniform(0, 10, size=40):
        assert abs(pot.signals[0].evaluate(t) - direct_signal_oracle(rho, h, v, t)) < 1e-10


def test_gauge_invariant_oscillator_potential_vanishes():
    site = oscillator_site(n_levels=6)
    occ = np.exp(-np.arange(6.0))
    rho = DensityMatrix(np.diag(occ / occ.sum()).astype(complex), (6,))
    pot = effective_potential(rho, site)
    assert np.sum(np.abs(pot.signals[0].coeffs)) <= 1e-12


def test_single_part_macroscopic_equals_product():
    site = qubit_site(SZ.data, SX.data)
    (wa, sa), = MacroscopicParts(((1.0, PLUS),)).limit_atoms()
    (wb, sb), = ProductState(PLUS).limit_atoms()
    assert wa == wb == 1.0
    a, b = effective_potential(sa, site), effective_potential(sb, site)
    ts = np.linspace(0, 5, 40)
    assert np.allclose(a.signals[0].evaluate(ts), b.signals[0].evaluate(ts), atol=1e-14)


def test_signal_realness_enforced():
    refused = [
        ([1.0], [1.0]),
        # one unpaired term whose sine vanishes on the grid 7.3 k / 36
        ([2 * math.pi * 36 / 7.3], [1.0]),
        ([0.0], [1j]),
        ([1.0, -1.0], [0.5, 0.4]),
        ([1.0, -1.0], [0.5 + 0.1j, 0.5 + 0.1j]),
        ([1.0, -1.0], [math.nan, math.nan]),
        ([math.inf, -math.inf], [0.5, 0.5]),
        ([0.0], [complex(math.inf, 0.0)]),
    ]
    for freqs, coeffs in refused:
        with pytest.raises(ValidationError):
            QuasiPeriodicSignal(np.array(freqs), np.array(coeffs, dtype=complex))
    sig = QuasiPeriodicSignal(np.array([1.0, -1.0]), np.array([0.5 + 0j, 0.5 + 0j]))
    assert abs(sig.evaluate(0.7) - math.cos(0.7)) < 1e-14
    assert np.sum(np.abs(sig.coeffs)) == 1.0


def rotated_site_inputs(levels, seed):
    """(rho, h, v) with h of the given levels in a random eigenbasis, so
    equal levels and equal gaps are equal only up to rounding."""
    rng = np.random.default_rng(seed)
    d = len(levels)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    h = q @ np.diag(np.asarray(levels, dtype=float)) @ q.conj().T
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real, h, random_hermitian(rng, d)


def equal_gap_terms():
    """site_signal_terms of a d = 3 site with equal level gaps: rotated
    levels 0, 1, 2 give gaps equal up to rounding, one term per gap."""
    return site_signal_terms(*rotated_site_inputs([0.0, 1.0, 2.0], 43))


def oscillator_terms(omega=1.3, n_levels=16, alpha=0.5):
    site = oscillator_site(n_levels, omega=omega)
    rho = DensityMatrix.pure(coherent_ket(alpha, n_levels), (n_levels,)).data
    return site_signal_terms(rho, site.h.data, site.interactions[0].data)


def folded_signal_cases():
    rng = np.random.default_rng(47)
    for k in (1, 4):
        freqs = rng.uniform(0.1, 5.0, k)
        coeffs = rng.normal(size=k) + 1j * rng.normal(size=k)
        yield (f"paired-{k}", np.concatenate([freqs, -freqs]),
               np.concatenate([coeffs, coeffs.conj()]))
    yield ("zero-frequency", np.array([-1.7, 0.0, 1.7]),
           np.array([0.3 - 0.2j, -0.8 + 0j, 0.3 + 0.2j]))
    yield ("equal-gaps", *equal_gap_terms())
    yield ("degenerate-levels", *site_signal_terms(
        *rotated_site_inputs([0.0, 0.0, 1.0, 2.0, 2.0, 3.0], 53)))
    yield ("oscillator", *oscillator_terms())
    yield "empty", np.zeros(0), np.zeros(0, dtype=complex)


@pytest.mark.parametrize("case", list(folded_signal_cases()),
                         ids=lambda c: c[0])
def test_folded_evaluation_matches_complex_sum(case):
    _, freqs, coeffs = case
    sig = QuasiPeriodicSignal(freqs, coeffs)
    t = np.linspace(-3.0, 40.0, 401)
    want = np.real(np.exp(1j * np.outer(t, freqs)) @ coeffs)
    assert np.max(np.abs(sig.evaluate(t) - want)) < 1e-13
    grid = t[:400].reshape(20, 20)
    assert np.array_equal(sig.evaluate(grid), sig.evaluate(t[:400]).reshape(20, 20))
    value = sig.evaluate(2.5)
    assert type(value) is float
    assert abs(value - np.real(np.exp(2.5j * freqs) @ coeffs)) < 1e-13


@pytest.mark.parametrize("levels, n_slots", [
    ([0.0, 0.0, 1.0, 2.0, 2.0, 3.0], 4),
    ([0.0, 1.0, 2.0, 3.0, 4.0], 5),
    ([-0.4, -0.4, -0.4], 1),
    ([0.0, 0.7, 0.7, 2.1, 2.8], 5),
], ids=["degenerate-and-equally-spaced", "equally-spaced", "all-degenerate",
        "mixed"])
def test_site_terms_are_mirror_pairs_one_per_distinct_gap(levels, n_slots):
    rho, h, v = rotated_site_inputs(levels, 59)
    freqs, coeffs = site_signal_terms(rho, h, v)
    assert len(freqs) == 2 * n_slots - 1
    assert freqs[0] == 0.0 and coeffs[0].imag == 0.0
    assert np.all(np.diff(freqs[:n_slots]) > 0)
    assert np.array_equal(freqs[n_slots:], -freqs[1:n_slots])
    assert np.array_equal(coeffs[n_slots:], coeffs[1:n_slots].conj())
    # the d^2 complex sum over level pairs, unmerged
    evals, vecs = np.linalg.eigh(h)
    c = (vecs.conj().T @ rho @ vecs).T * (vecs.conj().T @ v @ vecs)
    t = np.linspace(-3.0, 40.0, 401)
    phases = np.exp(1j * np.multiply.outer(t, evals[:, None] - evals[None, :]))
    want = np.einsum("tkl,kl->t", phases, c)
    assert np.max(np.abs(want.imag)) < 1e-13
    got = QuasiPeriodicSignal(freqs, coeffs).evaluate(t)
    assert np.max(np.abs(got - want.real)) < 1e-13


def test_equal_gap_terms_are_merged():
    freqs, _ = equal_gap_terms()
    assert len(freqs) == 5     # gaps -2, -1, 0, 1, 2 of the nine level pairs
    # levels 1.3 n, n < 16: gaps 1.3 k, k = 0..15, whose rounding differs
    # between the k of one gap, still one |f| slot each
    freqs, _ = oscillator_terms()
    assert freqs.size == 31 and np.unique(np.abs(freqs)).size == 16


# propagation

def test_propagator_refuses_non_finite_unitaries():
    unitaries = np.stack([np.eye(2), np.eye(2)]).astype(complex)
    unitaries[1] = np.nan
    with pytest.raises(ToleranceError, match="grid point 1 has non-finite"):
        eff.EffectivePropagator(np.array([0.0, 1.0]), unitaries, (2,), 0.0,
                                1, 1, ("eigh",))


@pytest.mark.parametrize("n_substeps", [None, 4])
def test_overflowing_generator_is_refused_without_warnings(n_substeps,
                                                           recwarn):
    sys = qubit_sys(SZ.data, 1.0e300 * SX.data)
    pot = EffectivePotential((QuasiPeriodicSignal.constant(1.0),))
    with pytest.raises(ToleranceError, match="non-finite|overflows"):
        propagate_effective(sys, pot, np.linspace(0.0, 1.0, 3),
                            n_substeps=n_substeps)
    assert len(recwarn) == 0


def test_zero_potential_free_evolution():
    sys = qubit_sys(SZ.data, SX.data)
    grid = np.linspace(0, 2, 9)
    prop = propagate_effective(sys, ZERO_POTENTIAL, grid)
    for t, u in zip(grid, prop.unitaries):
        assert np.max(np.abs(u - expm(-1j * t * SZ.data))) < 1e-8


def test_constant_commuting_potential_exact():
    w = 0.8
    sys = qubit_sys(SZ.data, SZ.data)
    pot = EffectivePotential((QuasiPeriodicSignal.constant(w),))
    grid = np.linspace(0, 3, 7)
    prop = propagate_effective(sys, pot, grid)
    for t, u in zip(grid, prop.unitaries):
        assert np.max(np.abs(u - expm(-1j * t * (1 + w) * SZ.data))) < 1e-8


def test_cosine_potential_against_adaptive_oracle():
    sys = qubit_sys(SZ.data, SX.data)
    pot = effective_potential(PLUS, qubit_site(SZ.data, SX.data))
    grid = np.array([0.0, 2.0])
    prop = propagate_effective(sys, pot, grid, step_target=1e-9)

    def rhs(t, y):
        u = y.reshape(2, 2)
        h = SZ.data + math.cos(2 * t) * SX.data
        return (-1j * h @ u).ravel()

    sol = solve_ivp(rhs, (0, 2), np.eye(2, dtype=complex).ravel(),
                    rtol=1e-11, atol=1e-13)
    oracle = sol.y[:, -1].reshape(2, 2)
    assert np.max(np.abs(prop.unitaries[-1] - oracle)) < 1e-6


def test_propagator_unitarity_and_identity_start():
    rng = np.random.default_rng(7)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    sys = SystemModel.single(Operator((h + h.conj().T) / 2, (4,), hermitian=True), [])
    grid = np.linspace(0, 5, 21)
    prop = propagate_effective(sys, ZERO_POTENTIAL, grid)
    assert np.max(np.abs(prop.unitaries[0] - np.eye(4))) == 0
    for u in prop.unitaries:
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-8


def test_step_halving_is_second_order():
    rng = np.random.default_rng(11)
    for _ in range(3):
        h0 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        sys = qubit_sys((h0 + h0.conj().T) / 2, (g + g.conj().T) / 2)
        freq = rng.uniform(0.5, 3.0)
        pot = EffectivePotential((QuasiPeriodicSignal(
            np.array([freq, -freq]), np.array([0.5 + 0j, 0.5 + 0j])),))
        grid = np.array([0.0, 1.5])
        us = [propagate_effective(sys, pot, grid, n_substeps=n).unitaries[-1]
              for n in (8, 16, 32)]
        num = np.max(np.abs(us[0] - us[1]))
        den = np.max(np.abs(us[1] - us[2]))
        assert 3.5 <= num / den <= 4.5


def test_grid_validation():
    sys = qubit_sys(SZ.data, SX.data)
    pot = ZERO_POTENTIAL
    with pytest.raises(ValidationError):
        propagate_effective(sys, pot, [0.5, 1.0])
    with pytest.raises(ValidationError):
        propagate_effective(sys, pot, [0.0, 1.0, 1.0])
    with pytest.raises(ValidationError):
        propagate_effective(sys, pot, [0.0])
    # refused by the grid rule the solvers share, before any stepping
    site = qubit_site(SZ.data, SX.data)
    for grid in ([0.0, np.nan], [0.0, 1.0, np.nan], [0.0, np.inf]):
        with pytest.raises(ValidationError, match="non-finite time"):
            propagate_effective(sys, pot, grid)
        with pytest.raises(ValidationError, match="non-finite time"):
            effective_trajectory(sys, ProductState(PLUS), site, GROUND, grid)


@pytest.mark.parametrize("target", [0.0, -1.0, np.nan, np.inf])
def test_step_target_must_be_positive_and_finite(target):
    sys, site = qubit_sys(SZ.data, SX.data), qubit_site(SZ.data, SX.data)
    with pytest.raises(ValidationError, match="step target"):
        propagate_effective(sys, ZERO_POTENTIAL, [0.0, 1.0],
                            step_target=target)
    with pytest.raises(ValidationError, match="step target"):
        effective_trajectory(sys, ProductState(PLUS), site, GROUND,
                             np.linspace(0.0, 1.0, 11), step_target=target)


def test_step_halving_failure_reports_estimate(monkeypatch):
    monkeypatch.setattr(eff, "MAX_STEP_DOUBLINGS", 2)
    sys = qubit_sys(SZ.data, SX.data)
    pot = effective_potential(PLUS, qubit_site(SZ.data, SX.data))
    with pytest.raises(ToleranceError, match="achieved"):
        propagate_effective(sys, pot, [0.0, 3.0], step_target=1e-14)


def sequential_midpoint_oracle(h0, g, signal, grid, n):
    """Plain product of expm midpoint steps, one substep at a time."""
    u = np.eye(h0.shape[0], dtype=complex)
    out = [u]
    for k in range(len(grid) - 1):
        dt = (grid[k + 1] - grid[k]) / n
        for j in range(n):
            w = signal.evaluate(grid[k] + (j + 0.5) * dt)
            u = expm(-1j * dt * (h0 + w * g)) @ u
        out.append(u)
    return out


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 3, 48])
@pytest.mark.parametrize("chunk", [eff.STEP_CHUNK, 64])
def test_batched_stepper_matches_sequential_expm(monkeypatch, d, n, chunk):
    # 40 uneven intervals cross a chunk boundary at n = 48 with the default
    # chunk; the small chunk also splits single intervals into pieces
    monkeypatch.setattr(eff, "STEP_CHUNK", chunk)
    rng = np.random.default_rng(29 + d)
    h0, g = random_hermitian(rng, d), random_hermitian(rng, d)
    signal = QuasiPeriodicSignal(np.array([1.3, -1.3, 0.4, -0.4]),
                                 np.array([0.5, 0.5, 0.3j, -0.3j]))
    sys = SystemModel.single(Operator(h0, (d,), hermitian=True),
                             [(Operator(g, (d,), hermitian=True), 0)])
    grid = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.08, 40))])
    prop = propagate_effective(sys, EffectivePotential((signal,)), grid,
                               n_substeps=n)
    oracle = sequential_midpoint_oracle(h0, g, signal, grid, n)
    assert np.max(np.abs(prop.unitaries - np.array(oracle))) < 1e-12


def test_scalar_generator_step_is_pure_phase():
    # H(t) = (0.7 + cos t) I has no traceless part: the r = 0 branch
    eye = np.eye(2, dtype=complex)
    sys = qubit_sys(0.7 * eye, eye)
    signal = QuasiPeriodicSignal(np.array([1.0, -1.0]),
                                 np.array([0.5 + 0j, 0.5 + 0j]))
    grid = np.linspace(0, 2, 11)
    prop = propagate_effective(sys, EffectivePotential((signal,)), grid,
                               n_substeps=3)
    assert not np.any(np.isnan(prop.unitaries))
    oracle = sequential_midpoint_oracle(0.7 * eye, eye, signal, grid, 3)
    assert np.max(np.abs(prop.unitaries - np.array(oracle))) < 1e-12
    assert np.all(prop.unitaries[:, 0, 1] == 0)
    assert np.all(prop.unitaries[:, 1, 0] == 0)


def traced_generators(kind, rng):
    """(h0, g) of qubit generators with a large trace, so that the summed
    U(1) angles carry the phase: a 40 I offset on a random h0, or a
    coupling that is the identity alone."""
    h0 = random_hermitian(rng, 2) + 40.0 * np.eye(2)
    if kind == "identity-coupling":
        return h0, np.eye(2, dtype=complex)
    return h0, random_hermitian(rng, 2) + 3.0 * np.eye(2)


@pytest.mark.parametrize("kind", ["offset", "identity-coupling"])
@pytest.mark.parametrize("n", [1, 3, 48])
@pytest.mark.parametrize("chunk", [eff.STEP_CHUNK, 64])
def test_qubit_phase_path_matches_sequential_expm(monkeypatch, kind, n,
                                                  chunk):
    # the small chunk splits single intervals, so angles of one interval
    # are summed over several chunks
    monkeypatch.setattr(eff, "STEP_CHUNK", chunk)
    rng = np.random.default_rng(53)
    h0, g = traced_generators(kind, rng)
    signal = QuasiPeriodicSignal(np.array([1.3, -1.3, 0.4, -0.4]),
                                 np.array([0.5, 0.5, 0.3j, -0.3j]))
    sys = SystemModel.single(Operator(h0, (2,), hermitian=True),
                             [(Operator(g, (2,), hermitian=True), 0)])
    grid = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.08, 40))])
    prop = propagate_effective(sys, EffectivePotential((signal,)), grid,
                               n_substeps=n)
    assert prop.steppers == ("cayley-klein",)
    oracle = sequential_midpoint_oracle(h0, g, signal, grid, n)
    assert np.max(np.abs(prop.unitaries - np.array(oracle))) < 1e-12


def test_long_pair_products_match_joint_eigh_stepping():
    # one interval of 2**MAX_STEP_DOUBLINGS substeps: matching the joint 4x4
    # eigh stepping and staying unitary bounds the drift of |a|^2 + |b|^2
    # over a long pair product; only the first qubit is coupled
    rng = np.random.default_rng(59)
    sys = SystemModel(
        local_h=(Operator(random_hermitian(rng, 2) + 5.0 * np.eye(2), (2,),
                          hermitian=True),
                 Operator(random_hermitian(rng, 2), (2,), hermitian=True)),
        couplings=(Coupling(g=Operator(random_hermitian(rng, 2), (2,),
                                       hermitian=True), subsystem=0),))
    pot = EffectivePotential((QuasiPeriodicSignal(
        np.array([1.3, -1.3, 0.4, -0.4]), np.array([0.5, 0.5, 0.3j, -0.3j])),))
    grid = np.array([0.0, 2.0])
    n = 2 ** eff.MAX_STEP_DOUBLINGS
    product = propagate_effective(sys, pot, grid, n_substeps=n)
    joint = propagate_effective(joint_sys(sys), pot, grid, n_substeps=n)
    assert product.steppers == ("cayley-klein", "cayley-klein")
    assert joint.steppers == ("eigh",)
    assert np.max(np.abs(product.unitaries - joint.unitaries)) < 1e-11
    u = product.unitaries[-1]
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12


# product propagation over system factors

def joint_sys(sys):
    """sys as one factor of dimension sys.dim, so that propagate_effective
    steps it jointly: the reference for the per-factor product."""
    def full(mat):
        return Operator(mat, (sys.dim,), hermitian=True)
    return SystemModel.single(full(sys.h_full()), [
        Coupling(g=full(sys.coupling_full(c)), v_index=c.v_index)
        for c in sys.couplings])


def two_qubit_sys(rng):
    ha = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    hb = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    ga = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    gb = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return SystemModel(
        local_h=(Operator((ha + ha.conj().T) / 2, (2,), hermitian=True),
                 Operator((hb + hb.conj().T) / 2, (2,), hermitian=True)),
        couplings=(Coupling(g=Operator((ga + ga.conj().T) / 2, (2,), hermitian=True), subsystem=0),
                   Coupling(g=Operator((gb + gb.conj().T) / 2, (2,), hermitian=True), subsystem=1)))


def test_two_factor_product_matches_joint_propagation():
    rng = np.random.default_rng(13)
    sys = two_qubit_sys(rng)
    pot = effective_potential(PLUS, qubit_site(SZ.data, SX.data))
    grid = np.linspace(0, 1.5, 7)
    joint = propagate_effective(joint_sys(sys), pot, grid, step_target=1e-9)
    product = propagate_effective(sys, pot, grid, step_target=1e-9)
    for ua, ub in zip(joint.unitaries, product.unitaries):
        assert np.max(np.abs(ua - ub)) < 1e-8


def negativity_2q(rho_mat):
    pt = rho_mat.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    evals = np.linalg.eigvalsh(pt)
    return float(-evals[evals < 0].sum())


def test_product_propagation_preserves_negativity():
    # local unitaries leave negativity alone no matter the step error,
    # so the default step target suffices for a 1e-10 invariance check
    rng = np.random.default_rng(17)
    sys = two_qubit_sys(rng)
    pot = effective_potential(PLUS, qubit_site(SZ.data, SX.data))
    grid = np.linspace(0, 3, 13)
    prop = propagate_effective(sys, pot, grid)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    rho0 = DensityMatrix.pure(bell, (2, 2))
    result = evolve_state(prop, rho0)
    negs = [negativity_2q(s.data) for s in result.states]
    assert abs(negs[0] - 0.5) < 1e-12
    assert max(abs(n - 0.5) for n in negs) < 1e-10


def test_product_propagation_commutes_with_partial_trace():
    rng = np.random.default_rng(19)
    sys = two_qubit_sys(rng)
    pot = effective_potential(PLUS, qubit_site(SZ.data, SX.data))
    grid = np.linspace(0, 2, 5)
    prop = propagate_effective(sys, pot, grid)

    couplings = [Coupling(g=c.g, v_index=c.v_index, subsystem=0)
                 for c in sys.couplings if c.subsystem == 0]
    local = SystemModel(local_h=(sys.local_h[0],), couplings=tuple(couplings))
    prop1 = propagate_effective(local, pot, grid)

    rho_a = np.diag([0.7, 0.3]).astype(complex)
    rho_b = PLUS.data
    rho0 = DensityMatrix(np.kron(rho_a, rho_b), (2, 2))
    joint = evolve_state(prop, rho0)
    for k in range(len(grid)):
        reduced = partial_trace(joint.states[k], keep=[0]).data
        u1 = prop1.unitaries[k]
        assert np.max(np.abs(reduced - u1 @ rho_a @ u1.conj().T)) < 1e-10


# state evolution

def test_evolve_state_preserves_spectrum_and_purity():
    sys = qubit_sys(SZ.data, SX.data)
    pot = effective_potential(PLUS, qubit_site(SZ.data, SX.data))
    grid = np.linspace(0, 2, 9)
    prop = propagate_effective(sys, pot, grid)
    pure = DensityMatrix.pure(np.array([1, 1j]) / math.sqrt(2), (2,))
    res = evolve_state(prop, pure)
    assert np.max(np.abs(np.array([s.purity() for s in res.states]) - 1)) < 1e-12
    mixed = DensityMatrix(np.diag([0.8, 0.2]).astype(complex), (2,))
    res2 = evolve_state(prop, mixed)
    for s in res2.states:
        assert np.allclose(np.linalg.eigvalsh(s.data), [0.2, 0.8], atol=1e-10)
    flat = DensityMatrix(np.eye(2) / 2, (2,))
    res3 = evolve_state(prop, flat)
    for s in res3.states:
        assert np.max(np.abs(s.data - np.eye(2) / 2)) < 1e-12


def test_evolve_state_dim_mismatch():
    sys = qubit_sys(SZ.data, SX.data)
    prop = propagate_effective(sys, ZERO_POTENTIAL, [0.0, 1.0])
    with pytest.raises(ValidationError):
        evolve_state(prop, DensityMatrix(np.eye(3) / 3, (3,)))


def test_mixture_refuses_initial_state_of_another_dim():
    # one atom or several: the same refusal, naming both dimensions
    sys, site = qubit_sys(SZ.data, SX.data), qubit_site(SZ.data, SX.data)
    rho0 = DensityMatrix(np.eye(4) / 4, (2, 2))
    grid = [0.0, 0.5]
    for state in (ProductState(PLUS),
                  DeFinettiMixture(((0.5, PLUS), (0.5, GROUND)))):
        with pytest.raises(ValidationError, match="dim 4 .* dim 2"):
            effective_trajectory(sys, state, site, rho0, grid)
    with pytest.raises(ValidationError, match="dim 4 .* dim 2"):
        propagate_definetti(sys, [(0.5, ZERO_POTENTIAL),
                                  (0.5, ZERO_POTENTIAL)], rho0, grid)


def test_initial_state_of_another_dim_is_refused_before_any_stepping(
        monkeypatch):
    sys, site = qubit_sys(SZ.data, SX.data), qubit_site(SZ.data, SX.data)
    rho0 = DensityMatrix(np.eye(4) / 4, (2, 2))
    calls = []
    real = eff.propagate_effective

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(eff, "propagate_effective", counting)
    mixture = DeFinettiMixture(((0.5, PLUS), (0.5, GROUND)))
    for call in (lambda: effective_trajectory(sys, mixture, site, rho0,
                                              [0.0, 0.5]),
                 lambda: propagate_definetti(sys, [(0.5, ZERO_POTENTIAL),
                                                   (0.5, ZERO_POTENTIAL)],
                                             rho0, [0.0, 0.5])):
        with pytest.raises(ValidationError, match="initial state dim 4 does "
                           "not match propagator dim 2"):
            call()
    assert calls == []


# mixtures of propagations

def test_single_atom_mixture_reduces_to_unitary_orbit():
    sys = qubit_sys(SZ.data, SX.data)
    pot = effective_potential(PLUS, qubit_site(SZ.data, SX.data))
    grid = np.linspace(0, 2, 9)
    rho0 = DensityMatrix.pure(np.array([1, 0], dtype=complex), (2,))
    mix = propagate_definetti(sys, [(1.0, pot)], rho0, grid)
    ref = evolve_state(propagate_effective(sys, pot, grid), rho0)
    for a, b in zip(mix.states, ref.states):
        assert np.max(np.abs(a.data - b.data)) < 1e-13


def test_opposite_constant_atoms_decohere():
    sys = qubit_sys(np.zeros((2, 2)), SZ.data)
    up = EffectivePotential((QuasiPeriodicSignal.constant(1.0),))
    down = EffectivePotential((QuasiPeriodicSignal.constant(-1.0),))
    rho0 = PLUS
    grid = np.linspace(0, math.pi / 2, 9)
    res = propagate_definetti(sys, [(0.5, up), (0.5, down)], rho0, grid)
    purities = np.array([s.purity() for s in res.states])
    assert purities[0] > 1 - 1e-12
    assert purities.min() < 0.51  # full dephasing at t = pi/2
    assert np.max(np.array([abs(complex(np.trace(s.data)) - 1.0) for s in res.states])) < 1e-12
    for s in res.states:
        assert np.max(np.abs(s.data - s.data.conj().T)) < 1e-10
        assert np.linalg.eigvalsh(s.data).min() > -1e-12


def test_equal_atoms_recover_unitary_evolution():
    sys = qubit_sys(SZ.data, SX.data)
    pot = effective_potential(PLUS, qubit_site(SZ.data, SX.data))
    grid = np.linspace(0, 1, 5)
    rho0 = DensityMatrix.pure(np.array([0, 1], dtype=complex), (2,))
    mix = propagate_definetti(sys, [(0.5, pot), (0.5, pot)], rho0, grid)
    assert np.max(np.abs(np.array([s.purity() for s in mix.states]) - 1)) < 1e-12


def test_mixture_is_the_weighted_sum_of_its_orbits():
    # each atom is stepped once; its orbit is kept beside the mixture, which
    # is exactly their weighted sum, and each orbit is that atom's own
    # unitary trajectory
    sys = qubit_sys(SZ.data, SX.data)
    site = qubit_site(SZ.data, SX.data)
    atoms = [(0.3, PLUS), (0.7, GROUND)]
    grid = np.linspace(0, 2, 9)
    rho0 = DensityMatrix.pure(np.array([1, 0], dtype=complex), (2,))
    mix = effective_trajectory(sys, DeFinettiMixture(tuple(atoms)), site,
                               rho0, grid)
    assert len(mix.orbits) == 2
    assert np.array_equal(mix.stack, sum(w * orbit for (w, _), orbit
                                         in zip(atoms, mix.orbits)))
    for (_, s), orbit in zip(atoms, mix.orbits):
        alone = effective_trajectory(sys, ProductState(s), site, rho0, grid)
        assert len(alone.orbits) == 1 and alone.orbits[0] is alone.stack
        assert np.array_equal(orbit, alone.stack)


LIMIT_KEYS = {"atoms", "max_trace_drift", "step_error", "n_substeps",
              "factors", "steps_computed", "steppers"}


def test_every_limit_result_reports_the_same_diagnostics():
    sys, site = qubit_sys(SZ.data, SX.data), qubit_site(SZ.data, SX.data)
    pot = effective_potential(PLUS, site)
    grid = np.linspace(0, 1, 5)
    mixture = DeFinettiMixture(((0.5, PLUS), (0.5, GROUND)))
    results = {
        1: [evolve_state(propagate_effective(sys, pot, grid), GROUND),
            propagate_definetti(sys, [(1.0, pot)], GROUND, grid),
            effective_trajectory(sys, ProductState(PLUS), site, GROUND, grid)],
        2: [propagate_definetti(sys, [(0.5, pot), (0.5, pot)], GROUND, grid),
            effective_trajectory(sys, mixture, site, GROUND, grid)]}
    for atoms, found in results.items():
        for res in found:
            assert set(res.diagnostics) == LIMIT_KEYS
            assert res.diagnostics["atoms"] == atoms == len(res.orbits)
            assert res.diagnostics["max_trace_drift"] < 1e-12


def test_mixture_weight_validation():
    sys = qubit_sys(SZ.data, SX.data)
    pot = ZERO_POTENTIAL
    rho0 = PLUS
    with pytest.raises(ValidationError):
        propagate_definetti(sys, [(0.6, pot), (0.6, pot)], rho0, [0.0, 1.0])
    with pytest.raises(ValidationError):
        propagate_definetti(sys, [], rho0, [0.0, 1.0])
    # refused by the weight rule, before any atom is propagated
    for bad in ([(np.nan, pot)], [(np.nan, pot), (1.0, pot)]):
        with pytest.raises(ValidationError, match="non-finite weight"):
            propagate_definetti(sys, bad, rho0, [0.0, 1.0])


# dispatcher

def test_trajectory_dispatch_product_and_mixture():
    sys = qubit_sys(SZ.data, SX.data)
    site = qubit_site(SZ.data, SX.data)
    grid = np.linspace(0, 1.5, 7)
    rho0 = DensityMatrix.pure(np.array([1, 0], dtype=complex), (2,))

    direct = evolve_state(propagate_effective(
        sys, effective_potential(PLUS, site), grid), rho0)
    via = effective_trajectory(sys, ProductState(PLUS), site, rho0, grid)
    for a, b in zip(direct.states, via.states):
        assert np.max(np.abs(a.data - b.data)) < 1e-13

    mixture = DeFinettiMixture(((0.5, PLUS), (0.5, GROUND)))
    res = effective_trajectory(sys, mixture, site, rho0, grid)
    assert np.max(np.array([abs(complex(np.trace(s.data)) - 1.0) for s in res.states])) < 1e-12


def qubit_factors_sys(rng, n):
    def local():
        return Operator(0.4 * random_hermitian(rng, 2), (2,), hermitian=True)
    return SystemModel(local_h=tuple(local() for _ in range(n)),
                       couplings=tuple(Coupling(g=local(), subsystem=j)
                                       for j in range(n)))


@pytest.mark.parametrize("n", [2, 3])
def test_trajectory_routes_factors_like_joint_propagation(n):
    rng = np.random.default_rng(31)
    sys = qubit_factors_sys(rng, n)
    site = qubit_site(SZ.data, SX.data)
    grid = np.linspace(0, 0.6, 4)
    ket = rng.normal(size=sys.dim) + 1j * rng.normal(size=sys.dim)
    rho0 = DensityMatrix.pure(ket, sys.subsystem_dims)
    minus = DensityMatrix(np.array([[0.5, -0.5], [-0.5, 0.5]], complex), (2,))
    joint = {}
    for name, s in (("plus", PLUS), ("minus", minus)):
        u = propagate_effective(joint_sys(sys), effective_potential(s, site),
                                grid, step_target=1e-9).unitaries
        joint[name] = u @ rho0.data @ np.swapaxes(u.conj(), 1, 2)
    for reservoir, ref in (
            (ProductState(PLUS), joint["plus"]),
            (DeFinettiMixture(((0.4, PLUS), (0.6, minus))),
             0.4 * joint["plus"] + 0.6 * joint["minus"])):
        routed = effective_trajectory(sys, reservoir, site, rho0, grid,
                                      step_target=1e-9)
        assert routed.diagnostics["step_error"] <= 1e-9
        assert routed.diagnostics["factors"] == n
        for state, want in zip(routed.states, ref):
            assert np.max(np.abs(state.data - want)) < 1e-8


def test_unequal_factors_match_joint_propagation():
    # dims (2, 3, 2) fix the factor order and the unequal-dimension reshape
    rng = np.random.default_rng(37)
    dims = (2, 3, 2)
    sys = SystemModel(
        local_h=tuple(Operator(random_hermitian(rng, d), (d,), hermitian=True)
                      for d in dims),
        couplings=tuple(Coupling(g=Operator(random_hermitian(rng, d), (d,),
                                            hermitian=True), subsystem=j)
                        for j, d in enumerate(dims)))
    pot = EffectivePotential((QuasiPeriodicSignal(
        np.array([1.3, -1.3, 0.4, -0.4]), np.array([0.5, 0.5, 0.3j, -0.3j])),))
    grid = np.linspace(0, 0.8, 6)
    for n in (1, 5, 48):
        product = propagate_effective(sys, pot, grid, n_substeps=n)
        joint = propagate_effective(joint_sys(sys), pot, grid, n_substeps=n)
        assert product.dims == dims and math.isnan(product.step_error)
        assert product.steppers == ("cayley-klein", "eigh", "cayley-klein")
        assert np.max(np.abs(product.unitaries - joint.unitaries)) < 1e-12
    prop = propagate_effective(sys, pot, grid, step_target=1e-8)
    assert prop.step_error <= 1e-8
    rho0 = DensityMatrix(np.eye(sys.dim) / sys.dim, dims)
    assert evolve_state(prop, rho0).diagnostics["factors"] == 3


# adaptive schedule against plain doubling

def doubling_step_factor(h_s, terms, grid, step_target):
    """The adaptive loop with every doubling run: 1, 2, 4, ... substeps until
    the step-halving estimate meets step_target."""
    n_sub = 1
    coarse = eff._run_grid(h_s, terms, grid, n_sub)
    for _ in range(eff.MAX_STEP_DOUBLINGS):
        fine = eff._run_grid(h_s, terms, grid, 2 * n_sub)
        estimate = float(np.max(np.abs(coarse - fine))) / 3.0
        if estimate <= step_target:
            return fine, estimate, 2 * n_sub
        n_sub *= 2
        coarse = fine
    raise ToleranceError(
        f"step halving stalled at {2 * n_sub} substeps per interval; "
        f"achieved error estimate {estimate:.3e} > target {step_target:.1e}")


def bundled_qubit_factor():
    """(h, terms, step target) of the qubit_convergence system factor."""
    from mflab import cli
    from mflab.config import load_config
    cfg = load_config(cli.resolve_config("qubit_convergence"))
    (_, state), = cfg.reservoir.limit_atoms()
    pot = effective_potential(state, cfg.site)
    terms = [(pot.signals[c.v_index], c.g.data) for c in cfg.system.couplings]
    return cfg.system.local_h[0].data, terms, cfg.step_target


def logged_levels(monkeypatch):
    """Substep counts of the _run_grid passes, in call order."""
    levels = []
    run_grid = eff._run_grid

    def logged(h_s, terms, grid, n_sub):
        levels.append(n_sub)
        return run_grid(h_s, terms, grid, n_sub)
    monkeypatch.setattr(eff, "_run_grid", logged)
    return levels


def schedule_cases():
    h, terms, _ = bundled_qubit_factor()
    for target in (1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
        yield f"qubit-{target:.0e}", h, terms, np.linspace(0, 5, 251), target
    rng = np.random.default_rng(41)
    signal = QuasiPeriodicSignal(np.array([1.3, -1.3, 0.4, -0.4]),
                                 np.array([0.5, 0.5, 0.3j, -0.3j]))
    h3, g3 = random_hermitian(rng, 3), random_hermitian(rng, 3)
    for target in (1e-6, 1e-9):
        yield (f"d3-{target:.0e}", h3, [(signal, g3)], np.linspace(0, 2, 41),
               target)
    yield ("constant", SZ.data, [(QuasiPeriodicSignal.constant(0.8), SX.data)],
           np.linspace(0, 3, 31), 1e-9)


@pytest.mark.parametrize("case", list(schedule_cases()), ids=lambda c: c[0])
def test_skipping_schedule_matches_plain_doubling(case):
    _, h, terms, grid, target = case
    want_u, want_err, want_n = doubling_step_factor(h, terms, grid, target)
    got_u, got_err, got_n, _ = eff._step_factor(h, terms, grid, target, None)
    assert got_n == want_n
    assert got_err == want_err
    assert np.array_equal(got_u, want_u)


def test_schedule_skips_doublings_the_law_rules_out(monkeypatch):
    # estimates at 1 -> 2 and 2 -> 4 substeps fall by about 4, so the loop
    # predicts that 32 -> 64 meets the target and runs neither 8 nor 16
    h, terms, target = bundled_qubit_factor()
    grid = np.linspace(0, 5, 251)
    levels = logged_levels(monkeypatch)
    _, _, n, computed = eff._step_factor(h, terms, grid, target, None)
    assert levels == [1, 2, 4, 32, 64]
    assert n == 64 and computed == sum(levels) * 250


def test_constant_signal_takes_no_jump(monkeypatch):
    # the midpoint step is exact for a constant generator: the first
    # estimate already meets the target
    levels = logged_levels(monkeypatch)
    _, err, n, computed = eff._step_factor(
        SZ.data, [(QuasiPeriodicSignal.constant(0.8), SX.data)],
        np.linspace(0, 3, 31), 1e-9, None)
    assert levels == [1, 2] and n == 2 and err <= 1e-9
    assert computed == 3 * 30


@pytest.mark.parametrize("doublings", [6, 16])
def test_stalled_schedule_stays_within_the_doubling_cap(monkeypatch,
                                                        doublings):
    # the prediction for 1e-300 lies far beyond the cap: the jump stops so
    # that no pass is finer than plain doubling's last, and the stall
    # message (substeps and estimate) is plain doubling's
    monkeypatch.setattr(eff, "MAX_STEP_DOUBLINGS", doublings)
    h, terms, _ = bundled_qubit_factor()
    grid = np.array([0.0, 0.5])
    with pytest.raises(ToleranceError) as want:
        doubling_step_factor(h, terms, grid, 1e-300)
    levels = logged_levels(monkeypatch)
    with pytest.raises(ToleranceError) as got:
        eff._step_factor(h, terms, grid, 1e-300, None)
    assert str(got.value) == str(want.value)
    assert max(levels) == 2 ** doublings
    assert len(levels) < doublings + 1


# identical factors stepped once

def test_identical_factors_are_stepped_once(monkeypatch):
    from mflab import cli
    from mflab.config import load_config
    pair = load_config(cli.resolve_config("bell_pair_protection")).system

    def qubits(*hs):
        return SystemModel(local_h=hs, couplings=tuple(
            Coupling(g=SX, subsystem=j) for j in range(len(hs))))

    pot = effective_potential(PLUS, qubit_site(SZ.data, SX.data))
    grid = np.linspace(0, 2, 41)
    step_factor = eff._step_factor
    # each system with the index of each factor's first occurrence
    for sys, first in ((pair, (0,)), (qubits(SZ, SZ, SZ), (0,)),
                       (qubits(SZ, SZ, SX), (0, 2))):
        calls = []

        def counted(*args):
            calls.append(args)
            return step_factor(*args)
        monkeypatch.setattr(eff, "_step_factor", counted)
        prop = propagate_effective(sys, pot, grid)
        monkeypatch.setattr(eff, "_step_factor", step_factor)
        assert len(calls) == len(first)
        # the reference steps every factor and tensors them with np.kron
        n = sys.n_subsystems
        runs = [step_factor(h.data, [(pot.signals[c.v_index], c.g.data)
                                     for c in sys.couplings
                                     if c.subsystem == j],
                            grid, eff.DEFAULT_STEP_TARGET / n, None)
                for j, h in enumerate(sys.local_h)]
        want = runs[0][0]
        for part, *_ in runs[1:]:
            want = np.array([np.kron(a, b) for a, b in zip(want, part)])
        assert np.array_equal(prop.unitaries, want)
        assert prop.step_error == sum(run[1] for run in runs)
        assert prop.n_substeps == max(run[2] for run in runs)
        assert prop.steps_computed == sum(runs[j][3] for j in first)
