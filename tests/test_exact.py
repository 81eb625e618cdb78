import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import expm

from mflab.errors import ResourceLimitError, ToleranceError, ValidationError
from mflab.operators import (
    DensityMatrix,
    Operator,
    ket,
    pauli,
    trace_norm,
)
from mflab.model import Coupling, SiteModel, SystemModel, assemble_total
from mflab.reservoir import (
    ChannelCorrelated,
    DeFinettiMixture,
    MacroscopicParts,
    ProductState,
    bell_channel_kraus,
)
from mflab.analysis import cluster_sweep, m_sweep, sweep, trace_distance
from mflab.cli import resolve_config
from mflab.config import load_config
from mflab.effective import effective_potential
from mflab import exact
from mflab.exact import (
    FiniteMRun,
    dyson_truncated,
    propagate_exact,
)
from oracles import (
    full_space_series,
    joint_trajectory,
    materialize,
    permute_factors,
)

SX, SZ = pauli("x"), pauli("z")
I2 = np.eye(2)


def qubit_sys(g_op=SX):
    return SystemModel.single(SZ, [(g_op, 0)])


def qubit_site():
    return SiteModel(h=Operator(0.7 * SZ.data, (2,), hermitian=True),
                     interactions=(SX,))


def tilted_mixed_site(theta=0.3, p=0.8):
    v = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
    vv = np.outer(v, v.conj())
    return DensityMatrix(p * vv + (1 - p) * (np.eye(2) - vv), (2,))


PLUS = DensityMatrix.pure(ket("+"), (2,))


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def random_state(rng, dims, rank):
    d = math.prod(dims)
    a = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho).real, dims)


def random_ensemble(rng, kind, d, m, rank=None):
    """A random ensemble of the kind on m sites; its site states have the
    given rank, or a random one."""
    def site_state():
        return random_state(rng, (d,), rank or int(rng.integers(1, d + 1)))

    w = float(rng.uniform(0.1, 0.9))
    if kind == "product":
        return ProductState(site_state())
    if kind == "definetti":
        return DeFinettiMixture(((w, site_state()), (1 - w, site_state())))
    if kind == "macroscopic":
        return MacroscopicParts(((w, site_state()), (1 - w, site_state())))
    if kind == "channel":
        L = int(rng.integers(1, min(m, 2) + 1))
        unitaries = [np.linalg.qr(rng.normal(size=(d ** L, d ** L))
                                  + 1j * rng.normal(size=(d ** L, d ** L)))[0]
                     for _ in range(2)]
        kraus = (np.sqrt(w) * unitaries[0], np.sqrt(1 - w) * unitaries[1])
        return ChannelCorrelated(site_state(), L, kraus)
    return random_state(rng, (d,) * m, 3)


class TestDensePaths:
    def test_single_site_matches_direct_oracle(self):
        # M=1 joint Hamiltonian is a plain 4x4; build it by hand
        res = ProductState(tilted_mixed_site())
        grid = np.linspace(0.0, 2.0, 9)
        run = FiniteMRun(qubit_sys(), qubit_site(), 1, res, PLUS, grid)
        out = propagate_exact(run)
        h4 = (np.kron(SZ.data, I2) + np.kron(I2, 0.7 * SZ.data)
              + np.kron(SX.data, SX.data))
        rho_joint = np.kron(PLUS.data, tilted_mixed_site().data)
        for t, state in zip(grid, out.states):
            u = expm(-1j * t * h4)
            full = u @ rho_joint @ u.conj().T
            oracle = full.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
            assert trace_norm(state.data - oracle) < 1e-12

    def test_free_evolution_without_coupling(self):
        sys = SystemModel.single(SZ, [])
        res = ProductState(tilted_mixed_site())
        grid = np.linspace(0.0, 3.0, 7)
        out = propagate_exact(FiniteMRun(sys, qubit_site(), 3, res, PLUS, grid))
        for t, state in zip(grid, out.states):
            u = expm(-1j * t * SZ.data)
            assert trace_norm(state.data - u @ PLUS.data @ u.conj().T) < 1e-12

    def test_mixed_site_small_m_uses_exact_branches(self):
        res = ProductState(tilted_mixed_site())
        run = FiniteMRun(qubit_sys(), qubit_site(), 2, res, PLUS,
                         np.array([0.0, 1.0]))
        out = propagate_exact(run)
        # spin blocks j = 1 (a part of 2 sites, 3 kets) and j = 0 (the
        # singlet: no part, shift 1, 1 ket), each its own sector
        assert out.diagnostics["path"] == "symmetric-sector"
        assert out.diagnostics["branches"] == 4
        assert out.diagnostics["sectors"] == 2
        assert out.diagnostics["max_sector_dim"] == 3
        assert out.diagnostics["branch_mass_defect"] < 1e-12

    def test_branch_and_conjugation_paths_agree(self):
        res = ProductState(tilted_mixed_site())
        grid = np.array([0.0, 0.8, 1.6])
        run = FiniteMRun(qubit_sys(), qubit_site(), 2, res, PLUS, grid)
        branch = propagate_exact(run)
        joint = joint_trajectory(run)
        for a, b in zip(branch.states, joint.states):
            red = b.data.reshape(2, 4, 2, 4)
            assert trace_norm(a.data - np.einsum("irkr->ik", red)) < 1e-12


class TestEnsembleForms:
    def test_explicit_reservoir_matrix_matches_ensemble(self):
        res = ProductState(tilted_mixed_site())
        explicit = materialize(res, 3)
        grid = np.linspace(0.0, 1.5, 5)
        a = propagate_exact(FiniteMRun(qubit_sys(), qubit_site(), 3, res,
                                       PLUS, grid))
        b = propagate_exact(FiniteMRun(qubit_sys(), qubit_site(), 3, explicit,
                                       PLUS, grid))
        for x, y in zip(a.states, b.states):
            assert trace_norm(x.data - y.data) < 1e-12

    def test_channel_correlated_branches_match_materialized(self):
        chan = ChannelCorrelated(DensityMatrix.pure(ket("0"), (2,)),
                                 corr_length=2, kraus=bell_channel_kraus())
        grid = np.linspace(0.0, 1.5, 5)
        a = propagate_exact(FiniteMRun(qubit_sys(), qubit_site(), 3, chan,
                                       PLUS, grid))
        # |00> maps to one Bell pair, and every placement of it gives the
        # same reduced trajectory
        assert a.diagnostics["branches"] == 1
        b = propagate_exact(FiniteMRun(qubit_sys(), qubit_site(), 3,
                                       materialize(chan, 3), PLUS, grid))
        for x, y in zip(a.states, b.states):
            assert trace_norm(x.data - y.data) < 1e-12

    def test_macroscopic_parts_match_manual_product(self):
        wa = DensityMatrix.pure(ket("0"), (2,))
        wb = DensityMatrix.pure(ket("+"), (2,))
        parts = MacroscopicParts(((2 / 3, wa), (1 / 3, wb)))
        manual = DensityMatrix(
            np.kron(np.kron(wa.data, wa.data), wb.data), (2, 2, 2))
        grid = np.linspace(0.0, 1.2, 4)
        a = propagate_exact(FiniteMRun(qubit_sys(), qubit_site(), 3, parts,
                                       PLUS, grid))
        b = propagate_exact(FiniteMRun(qubit_sys(), qubit_site(), 3, manual,
                                       PLUS, grid))
        for x, y in zip(a.states, b.states):
            assert trace_norm(x.data - y.data) < 1e-12

    def test_definetti_branches_match_atom_average(self):
        mix = DeFinettiMixture(((0.6, DensityMatrix.pure(ket("0"), (2,))),
                                (0.4, DensityMatrix.pure(ket("+"), (2,)))))
        grid = np.linspace(0.0, 1.5, 5)
        out = propagate_exact(FiniteMRun(qubit_sys(), qubit_site(), 3, mix,
                                         PLUS, grid))
        acc = None
        for w, atom in mix.atoms:
            part = propagate_exact(FiniteMRun(qubit_sys(), qubit_site(), 3,
                                              ProductState(atom), PLUS, grid))
            stack = np.stack([s.data for s in part.states])
            acc = w * stack if acc is None else acc + w * stack
        for got, want in zip(out.states, acc):
            assert trace_norm(got.data - want) < 1e-12

    def test_permutation_of_reservoir_factors_is_invisible(self):
        # the site-averaged coupling is permutation symmetric, so permuting
        # an arbitrary inhomogeneous reservoir state cannot change the
        # reduced trajectory
        states = [DensityMatrix.pure(ket("0"), (2,)),
                  DensityMatrix.pure(ket("+"), (2,)),
                  tilted_mixed_site()]
        raw = np.kron(np.kron(states[0].data, states[1].data), states[2].data)
        permuted, _ = permute_factors(raw, (2, 2, 2), (2, 0, 1))
        grid = np.linspace(0.0, 2.0, 5)
        a = propagate_exact(FiniteMRun(qubit_sys(), qubit_site(), 3,
                                       DensityMatrix(raw, (2, 2, 2)),
                                       PLUS, grid))
        b = propagate_exact(FiniteMRun(qubit_sys(), qubit_site(), 3,
                                       DensityMatrix(permuted, (2, 2, 2)),
                                       PLUS, grid))
        for x, y in zip(a.states, b.states):
            assert trace_norm(x.data - y.data) < 1e-12


class TestConservation:
    def test_joint_purity_and_energy_are_constant(self):
        res = ProductState(tilted_mixed_site())
        grid = np.linspace(0.0, 2.5, 6)
        run = FiniteMRun(qubit_sys(), qubit_site(), 2, res, PLUS, grid)
        jt = joint_trajectory(run)
        pur = np.array([s.purity() for s in jt.states])
        assert pur.max() - pur.min() < 1e-12
        h = (np.kron(np.kron(SZ.data, I2), I2)
             + 0.7 * (np.kron(np.kron(I2, SZ.data), I2)
                      + np.kron(np.kron(I2, I2), SZ.data))
             + 0.5 * (np.kron(np.kron(SX.data, SX.data), I2)
                      + np.kron(np.kron(SX.data, I2), SX.data)))
        energies = [float(np.trace(s.data @ h).real) for s in jt.states]
        assert max(energies) - min(energies) < 1e-12

    def test_system_observable_commuting_with_coupling_is_conserved(self):
        # G equal to the system Hamiltonian leaves <H_S> frozen even though
        # the joint dynamics entangles system and sites
        sys = qubit_sys(g_op=SZ)
        res = ProductState(tilted_mixed_site())
        grid = np.linspace(0.0, 3.0, 7)
        out = propagate_exact(FiniteMRun(sys, qubit_site(), 3, res, PLUS, grid))
        vals = [np.trace(s.data @ SZ.data).real for s in out.states]
        assert np.ptp(vals) < 1e-12
        purities = np.array([s.purity() for s in out.states])
        assert purities[0] - purities.min() > 1e-3

    def test_joint_trajectory_size_guard(self):
        res = ProductState(DensityMatrix.pure(ket("0"), (2,)))
        run = FiniteMRun(qubit_sys(), qubit_site(), 9, res, PLUS,
                         np.array([0.0, 1.0]))
        with pytest.raises(ResourceLimitError, match="512"):
            joint_trajectory(run)


def limit_gap(sys, site, reservoir_state, m_count, rho0, grid):
    """Per grid point, the trace distance of the size-m_count trajectory to
    the limit one."""
    limit, (finite,), _ = sweep([FiniteMRun(sys, site, m_count,
                                            reservoir_state, rho0, grid)])
    return trace_distance(finite.stack, limit.stack)


class TestConvergenceGap:
    def test_zero_coupling_gap_is_numerically_zero(self):
        sys = SystemModel.single(SZ, [])
        res = ProductState(DensityMatrix.pure(ket("0"), (2,)))
        gap = limit_gap(sys, qubit_site(), res, 3, PLUS,
                              np.linspace(0.0, 2.0, 9))
        assert gap.max() < 1e-10

    def test_zero_signal_gap_shrinks_with_reservoir_size(self):
        # site ground state with an off-diagonal interaction: the averaged
        # signal vanishes identically, yet pair correlations keep the
        # finite-size dynamics away from the free limit
        res = ProductState(DensityMatrix.pure(ket("0"), (2,)))
        pot = effective_potential(res.site_state, qubit_site())
        assert np.sum(np.abs(pot.signals[0].coeffs)) <= 1e-12
        grid = np.linspace(0.0, 2.0, 9)
        gaps = [limit_gap(qubit_sys(), qubit_site(), res, m, PLUS,
                                grid).max() for m in (1, 2, 4, 8)]
        assert gaps[0] > 0.5
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.25

    def test_gap_vanishes_at_time_zero(self):
        res = ProductState(tilted_mixed_site())
        gap = limit_gap(qubit_sys(), qubit_site(), res, 2, PLUS,
                              np.array([0.0, 1.0]))
        assert gap[0] < 1e-12
        assert gap[1] > 1e-3


class TestSectorEngine:
    @settings(max_examples=100, deadline=None, database=None,
              derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.sampled_from((2, 3)),
           m=st.integers(1, 5),
           kind=st.sampled_from(("product", "definetti", "macroscopic",
                                 "channel", "explicit")),
           nu=st.sampled_from((None, 1, 2, 3)),
           rank=st.sampled_from((None, 2)))
    # rank-2 qubit site states, which take the spin blocks, for every
    # ensemble kind and coupling
    @example(seed=1, d=2, m=5, kind="product", nu=None, rank=2)
    @example(seed=2, d=2, m=5, kind="product", nu=1, rank=2)
    @example(seed=3, d=2, m=5, kind="product", nu=2, rank=2)
    @example(seed=4, d=2, m=5, kind="product", nu=3, rank=2)
    @example(seed=5, d=2, m=5, kind="definetti", nu=None, rank=2)
    @example(seed=6, d=2, m=5, kind="definetti", nu=1, rank=2)
    @example(seed=7, d=2, m=5, kind="definetti", nu=2, rank=2)
    @example(seed=8, d=2, m=5, kind="definetti", nu=3, rank=2)
    @example(seed=9, d=2, m=5, kind="macroscopic", nu=None, rank=2)
    @example(seed=10, d=2, m=5, kind="macroscopic", nu=1, rank=2)
    @example(seed=11, d=2, m=5, kind="macroscopic", nu=2, rank=2)
    @example(seed=12, d=2, m=5, kind="macroscopic", nu=3, rank=2)
    @example(seed=13, d=2, m=5, kind="channel", nu=None, rank=2)
    @example(seed=14, d=2, m=5, kind="channel", nu=1, rank=2)
    @example(seed=15, d=2, m=5, kind="channel", nu=2, rank=2)
    @example(seed=16, d=2, m=5, kind="channel", nu=3, rank=2)
    def test_matches_full_space_oracle(self, seed, d, m, kind, nu, rank):
        # nu=None: couplings to one-site interactions; otherwise both
        # interactions are one random operator on nu sites, in general not
        # swap-symmetric, which each coupling averages over ordered
        # nu-tuples of sites
        assume(d ** m <= 81 and m >= (nu or 1))
        rng = np.random.default_rng(seed)

        def herm(dim, dims=None):
            return Operator(random_hermitian(rng, dim), dims or (dim,),
                            hermitian=True)

        site = SiteModel(h=herm(d), interactions=(herm(d), herm(d)))
        sys = SystemModel.single(herm(2), [(herm(2), 0), (herm(2), 1)])
        if nu is not None:
            site = SiteModel(site.h, (herm(d ** nu, (d,) * nu),) * 2)
        rho0 = random_state(rng, (2,), int(rng.integers(1, 3)))
        res = random_ensemble(rng, kind, d, m, rank)
        run = FiniteMRun(sys, site, m, res, rho0, np.array([0.0, 0.4, 1.3]))
        got = propagate_exact(run)
        assert got.diagnostics["path"] == "symmetric-sector"
        assert got.diagnostics["branch_mass_defect"] < 1e-9
        assert got.diagnostics["max_norm_drift"] < 1e-10
        d_res = d ** m
        for a, b in zip(got.states, joint_trajectory(run).states):
            want = b.data.reshape(2, d_res, 2, d_res).trace(axis1=1, axis2=3)
            assert trace_norm(a.data - want) < 1e-10

    def test_rank_two_at_m12_is_exact(self):
        # spin blocks j = 6, 5, .., 0: 13 + 11 + .. + 1 = 49 kets in 7
        # sectors; nothing is dropped or renormalized
        res = ProductState(tilted_mixed_site())
        run = FiniteMRun(qubit_sys(), qubit_site(), 12, res, PLUS,
                         np.array([0.0, 0.4]))
        out = propagate_exact(run)
        assert out.diagnostics["branches"] == 49
        assert out.diagnostics["sectors"] == 7
        assert out.diagnostics["max_sector_dim"] == 13
        assert out.diagnostics["branch_mass_defect"] < 1e-12
        assert out.diagnostics["max_norm_drift"] < 1e-10
        for state in out.states:
            assert abs(complex(np.trace(state.data)) - 1.0) < 1e-12

    def test_parts_share_sectors_in_any_order(self):
        # spin blocks of 8 and 4 sites: 5 x 3 combinations of 25 x 9 kets;
        # unordered part sizes would split (4, 2) and (2, 4) at shift 3
        a, b = tilted_mixed_site(0.3, 0.8), tilted_mixed_site(1.1, 0.7)
        stacks = []
        for parts in (((2 / 3, a), (1 / 3, b)), ((1 / 3, b), (2 / 3, a))):
            run = FiniteMRun(qubit_sys(), qubit_site(), 12,
                             MacroscopicParts(parts), PLUS,
                             np.array([0.0, 0.4, 1.3]))
            out = propagate_exact(run)
            assert out.diagnostics["sectors"] == 12
            assert out.diagnostics["branches"] == 225
            assert out.diagnostics["max_sector_dim"] == 45
            stacks.append(out.stack)
        assert np.abs(stacks[0] - stacks[1]).max() < 1e-13

    def test_large_pure_product_uses_one_sector(self):
        res = ProductState(DensityMatrix.pure(ket("0"), (2,)))
        run = FiniteMRun(qubit_sys(), qubit_site(), 12, res, PLUS,
                         np.array([0.0, 0.5]))
        out = propagate_exact(run)
        assert out.diagnostics["sectors"] == 1
        assert out.diagnostics["max_sector_dim"] == 13
        assert out.diagnostics["max_norm_drift"] < 1e-10
        assert abs(complex(np.trace(out.states[-1].data)) - 1.0) < 1e-10

    def test_rank_two_blocks_match_padded_compositions(self):
        # a decoupled, unpopulated third level leaves the dynamics as they
        # are, but puts the rank-2 site state on compositions of qutrits;
        # the site operators carry a trace, which the blocks' shifts hold.
        # M = 8 keeps the largest composition sector, (4, 4), at dimension
        # 15^2 (at M = 12 it is 28^2, and its eigendecomposition alone
        # takes seconds)
        res = ProductState(tilted_mixed_site())
        h, v = 0.7 * SZ.data + 0.3 * I2, SX.data + 0.4 * I2
        grid = np.linspace(0.0, 2.0, 5)

        def run(pad):
            def op(x):
                return Operator(np.pad(x, ((0, pad), (0, pad))), (2 + pad,),
                                hermitian=True)
            site = SiteModel(h=op(h), interactions=(op(v),))
            state = DensityMatrix(op(res.site_state.data).data, (2 + pad,))
            return propagate_exact(FiniteMRun(qubit_sys(), site, 8,
                                              ProductState(state), PLUS, grid))
        spin, padded = run(0), run(1)
        assert spin.diagnostics["max_sector_dim"] == 9
        assert padded.diagnostics["max_sector_dim"] == 15 * 15
        assert np.abs(spin.stack - padded.stack).max() < 1e-12

    def test_rank_two_at_m64_uses_33_blocks(self):
        res = ProductState(tilted_mixed_site())
        out = propagate_exact(FiniteMRun(qubit_sys(), qubit_site(), 64, res,
                                         PLUS, np.array([0.0, 0.7])))
        assert out.diagnostics["sectors"] == 33
        assert out.diagnostics["max_sector_dim"] == 65
        assert out.diagnostics["max_norm_drift"] < 1e-10

    def test_sector_beyond_dense_cutoff_is_refused(self):
        # a qutrit's rank-2 state stays on compositions: the even split
        # (10, 10) has dimension 66^2, times 2 > 4096
        qutrit = np.diag([0.7, 0.3, 0.0]).astype(complex)
        site = SiteModel(h=Operator(qutrit, (3,), hermitian=True),
                         interactions=(Operator(np.eye(3), (3,),
                                                hermitian=True),))
        # the run is refused when it is built, before any column is formed
        with pytest.raises(ResourceLimitError,
                           match=r"part sizes \(10, 10\) .* dimension 4356"):
            FiniteMRun(qubit_sys(), site, 20,
                       ProductState(DensityMatrix(qutrit, (3,))), PLUS,
                       np.array([0.0, 0.5]))
        # qubit spin blocks up to dimension 512 each fit, but together need
        # more work than one sector at the cutoff; the refusal comes before
        # any block is built
        res = ProductState(tilted_mixed_site())
        with pytest.raises(ResourceLimitError,
                           match=r"6\.926e\+10 > 4096\^3.*part sizes "
                                 r"\(511,\) .* dimension 512"):
            FiniteMRun(qubit_sys(), qubit_site(), 511, res, PLUS,
                       np.array([0.0, 0.5]))

    def test_large_rank2_qubit_run_is_refused_at_once(self):
        # the largest spin block alone is over the cutoff; it is checked
        # before the n/2 blocks are listed, when the run is built
        tracemalloc.start()
        try:
            started = time.perf_counter()
            with pytest.raises(ResourceLimitError,
                               match=r"part sizes \(1000000,\) .* "
                                     r"dimension 1000001"):
                FiniteMRun(qubit_sys(), qubit_site(), 10 ** 6,
                           ProductState(tilted_mixed_site()), PLUS,
                           np.array([0.0, 0.5]))
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1 and peak < 2 ** 20

    def test_parts_are_refused_before_their_branches_are_combined(self):
        # each rank-2 half alone fits (2001 x 2 < 4096), but their largest
        # blocks together span 2001^2; the component's largest sector is
        # checked before the 1001 x 1001 block pairs are listed
        res = MacroscopicParts(((0.5, tilted_mixed_site()),
                                (0.5, tilted_mixed_site(theta=1.1))))
        started = time.perf_counter()
        with pytest.raises(ResourceLimitError,
                           match=r"part sizes \(2000, 2000\) .* "
                                 r"dimension 4004001"):
            FiniteMRun(qubit_sys(), qubit_site(), 4000, res, PLUS,
                       np.array([0.0, 0.5]))
        assert time.perf_counter() - started < 0.1

    def test_gap_falls_as_one_over_m(self):
        cfg = load_config(resolve_config("qubit_convergence"))
        rows = m_sweep(cfg.system, cfg.site, cfg.reservoir, cfg.initial_state,
                       cfg.grid, [16, 32, 64, 128, 256],
                       step_target=cfg.step_target)
        gaps = [r.gap for r in rows]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert all(0.5 < r.ratio < 0.6 for r in rows[1:])

    def test_cluster_gap_falls_as_one_over_m(self):
        cfg = load_config(resolve_config("cluster_pair"))
        rows = m_sweep(cfg.system, cfg.site, cfg.reservoir,
                       cfg.initial_state, cfg.grid, [16, 32, 64, 128, 256],
                       step_target=cfg.step_target)
        gaps = [r.gap for r in rows]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert all(0.45 < r.ratio < 0.55 for r in rows[1:])
        assert all(r.diagnostics["sectors"] == 1 for r in rows)

    @pytest.mark.parametrize("family,want", [
        ("definetti", (0.0323, 0.0151, 0.0074)),
        ("macroscopic", (0.0306, 0.0141, 0.0053)),
        ("channel", (0.0204, 0.0040, 0.00093))])
    def test_cluster_limit_takes_every_ensemble(self, family, want):
        cfg = load_config(resolve_config("cluster_pair"))
        zero = DensityMatrix.pure(ket("0"), (2,))
        res = {"definetti": DeFinettiMixture(((0.5, PLUS), (0.5, zero))),
               "macroscopic": MacroscopicParts(((2 / 3, zero), (1 / 3, PLUS))),
               "channel": ChannelCorrelated(zero, 2, bell_channel_kraus()),
               }[family]
        rows = cluster_sweep(cfg.system, cfg.site, cfg.site.interactions[0],
                             res, cfg.initial_state, cfg.grid, [8, 16, 32],
                             step_target=cfg.step_target)
        gaps = [r.gap for r in rows]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps == pytest.approx(want, rel=0.02)

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["product", "definetti", "channel"])
    def test_mixed_site_counts_match_full_space(self, m, kind):
        # one subsystem coupled to a one-site and to a pair interaction, and
        # two subsystems each coupled to a pair interaction of its own
        rng = np.random.default_rng(10 * m + len(kind))

        def herm(dim, dims=None):
            return Operator(random_hermitian(rng, dim), dims or (dim,),
                            hermitian=True)

        site = SiteModel(h=herm(2), interactions=(
            herm(2), herm(4, (2, 2)), herm(4, (2, 2))))
        res = random_ensemble(rng, kind, 2, m, 2)
        for sys in (SystemModel.single(herm(2), [(herm(2), 0), (herm(2), 1)]),
                    SystemModel(local_h=(herm(2), herm(2)), couplings=(
                        Coupling(herm(2), 1, 0), Coupling(herm(2), 2, 1)))):
            run = FiniteMRun(sys, site, m, res,
                             random_state(rng, sys.subsystem_dims, 2),
                             np.array([0.0, 0.4, 1.3]))
            got = propagate_exact(run)
            assert got.diagnostics["max_norm_drift"] < 1e-10
            d_res = 2 ** m
            for a, b in zip(got.states, joint_trajectory(run).states):
                want = b.data.reshape(sys.dim, d_res, sys.dim, d_res).trace(
                    axis1=1, axis2=3)
                assert trace_norm(a.data - want) < 1e-10

    def test_mixed_site_counts_converge_to_the_per_coupling_limit(self):
        # the limit signal of each coupling is the nu-fold product state's
        # expectation of its own interaction, whatever the other's nu
        flip = Operator(np.fliplr(np.eye(4)), (2, 2), hermitian=True)
        site = SiteModel(SZ, (SX, flip))
        sys = SystemModel.single(SZ, [(SX, 0), (pauli("y"), 1)])
        tilted = DensityMatrix.pure(np.array([np.cos(0.55), np.sin(0.55)]),
                                    (2,))
        rows = m_sweep(sys, site, ProductState(tilted),
                       DensityMatrix.pure(ket("0"), (2,)),
                       np.linspace(0.0, 2.0, 41), [8, 16, 32])
        assert all(1.7 <= 1 / r.ratio <= 2.3 for r in rows[1:])

    def test_all_zero_pair_interaction_leaves_the_system_free(self):
        # every block of the normal-ordering recursion is zero and skipped,
        # so the coupling is the zero array it starts from
        zero = Operator(np.zeros((4, 4)), (2, 2), hermitian=True)
        site = SiteModel(h=Operator(0.7 * SZ.data, (2,), hermitian=True),
                         interactions=(zero,))
        grid = np.linspace(0.0, 2.0, 9)
        got = propagate_exact(FiniteMRun(qubit_sys(), site, 4,
                                         ProductState(tilted_mixed_site()),
                                         PLUS, grid))
        for t, a in zip(grid, got.stack):
            u = np.diag(np.exp([-1j * t, 1j * t]))
            assert np.abs(a - u @ PLUS.data @ u.conj().T).max() < 1e-12

    @pytest.mark.parametrize("m", [3, 4])
    @pytest.mark.parametrize("kind", ["product", "definetti"])
    def test_interaction_with_zero_blocks_matches_full_space(self, m, kind):
        # s+ s+ s+ + h.c.: the diagonal blocks of its last factor and every
        # product x_j x_nu vanish, down to the pair level; two subsystems
        # coupled to it share its ordered sum
        up = np.array([[0, 1], [0, 0]], dtype=complex)
        flips = np.kron(np.kron(up, up), up)
        v = Operator(flips + flips.T, (2, 2, 2), hermitian=True)
        site = SiteModel(h=Operator(0.7 * SZ.data, (2,), hermitian=True),
                         interactions=(v,))
        sys = SystemModel(local_h=(SZ, SX), couplings=(
            Coupling(SX, 0, 0), Coupling(pauli("y"), 0, 1)))
        rng = np.random.default_rng(m)
        run = FiniteMRun(sys, site, m, random_ensemble(rng, kind, 2, m, 2),
                         random_state(rng, sys.subsystem_dims, 2),
                         np.array([0.0, 0.4, 1.3]))
        d_res = 2 ** m
        for a, b in zip(propagate_exact(run).stack,
                        joint_trajectory(run).stack):
            want = b.reshape(sys.dim, d_res, sys.dim, d_res).trace(
                axis1=1, axis2=3)
            assert np.abs(a - want).max() < 1e-12


class TestReducedStateContractions:
    """The sector's reduced state from amplitudes and from the eigenbasis
    contraction, both called on the same sectors, with no rule between."""

    @staticmethod
    def contractions(run):
        columns, _, hamiltonian = exact._sectors(run)
        for key, cols in columns.items():
            free, coupling = hamiltonian(key)
            evals, emat = np.linalg.eigh(free + coupling)
            args = (evals, emat, emat.conj().T @ cols, run.grid, run.sys.dim)
            yield (key, exact._trace_amplitudes(*args),
                   exact._trace_eigenbasis(*args))

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("kind,rank,nu", [
        ("product", 1, None), ("product", 2, None), ("definetti", None, None),
        ("macroscopic", None, None), ("channel", None, None),
        ("explicit", None, None), ("macroscopic", 2, 2)])
    def test_contractions_agree_on_every_ensemble(self, d, kind, rank, nu):
        # the oracle tests' sizes, d^M <= 81, on a system of dimension d so
        # that a qutrit system has off-diagonal pairs away from the corner
        rng = np.random.default_rng(7 * d + len(kind) + (rank or 0))
        m = {2: 5, 3: 4}[d]

        def herm(dim, dims=None):
            return Operator(random_hermitian(rng, dim), dims or (dim,),
                            hermitian=True)

        site = SiteModel(h=herm(d), interactions=(herm(d), herm(d)))
        sys = SystemModel.single(herm(d), [(herm(d), 0), (herm(d), 1)])
        if nu is not None:
            site = SiteModel(site.h, (herm(d ** nu, (d,) * nu),) * 2)
        run = FiniteMRun(sys, site, m, random_ensemble(rng, kind, d, m, rank),
                         random_state(rng, (d,), 2),
                         np.array([0.0, 0.4, 1.3, 2.0]))
        total = 0
        for key, amp, eig in self.contractions(run):
            assert np.abs(amp - eig).max() < 1e-13, key
            assert np.array_equal(eig, eig.conj().transpose(0, 2, 1))
            total = total + eig
        norms = np.trace(total, axis1=1, axis2=2).real
        assert np.abs(norms - 1.0).max() < 1e-12

    @pytest.mark.parametrize("state", [PLUS, tilted_mixed_site()])
    def test_a_run_propagates_to_the_same_bytes_twice(self, state):
        # _sectors forms its columns from the plan on every call and keeps
        # none, so a run a config holds may be propagated again: a pure
        # product on the amplitudes, a rank-2 one through spin blocks
        run = FiniteMRun(qubit_sys(), qubit_site(), 8, ProductState(state),
                         PLUS, np.linspace(0.0, 2.0, 51))
        first, second = propagate_exact(run), propagate_exact(run)
        assert first.stack.tobytes() == second.stack.tobytes()
        assert first.diagnostics == second.diagnostics

    def test_time_chunks_change_nothing(self, monkeypatch):
        run = FiniteMRun(qubit_sys(), qubit_site(), 6,
                         ProductState(tilted_mixed_site()), PLUS,
                         np.linspace(0.0, 2.0, 11))
        whole = list(self.contractions(run))
        # one time per chunk on both paths
        monkeypatch.setattr(exact, "AMPLITUDE_CHUNK", 1)
        for (_, amp, eig), (_, amp1, eig1) in zip(whole,
                                                  self.contractions(run)):
            assert np.abs(amp - amp1).max() < 1e-14
            assert np.abs(eig - eig1).max() < 1e-14

    def test_rule_takes_the_eigenbasis_for_spin_blocks_only(self):
        grid = np.linspace(0.0, 2.0, 51)
        rank2 = FiniteMRun(qubit_sys(), qubit_site(), 8,
                           ProductState(tilted_mixed_site()), PLUS, grid)
        pure = FiniteMRun(qubit_sys(), qubit_site(), 8, ProductState(PLUS),
                          PLUS, grid)
        # the j = 4 spin block: 9 kets on 2 x 9 rows; the pure product: 1
        assert exact._sectors(rank2)[0][((8,), 0)].shape == (18, 9)
        assert exact._sectors(pure)[0][((8,), 0)].shape == (18, 1)
        assert exact._eigenbasis_cheaper(2, 9, 9, grid.size)
        assert not exact._eigenbasis_cheaper(2, 9, 1, grid.size)
        # blocks j = 4, 3, 2 take the eigenbasis, j = 1, 0 the amplitudes
        assert propagate_exact(rank2).diagnostics["eigenbasis_sectors"] == 3
        assert propagate_exact(pure).diagnostics["eigenbasis_sectors"] == 0


class TestSeriesOracle:
    def test_non_finite_series_is_a_tolerance_error(self):
        res = ProductState(tilted_mixed_site())
        run = FiniteMRun(qubit_sys(), qubit_site(), 2, res, PLUS,
                         np.array([0.5, 1e300]))
        with pytest.raises(ToleranceError, match="float range"):
            dyson_truncated(run, order=2)

    def test_order_zero_is_free_system_rotation(self):
        res = ProductState(tilted_mixed_site())
        t = 0.9
        run = FiniteMRun(qubit_sys(), qubit_site(), 2, res, PLUS, np.array([t]))
        (got,) = dyson_truncated(run, order=0)
        u = expm(-1j * t * SZ.data)
        assert trace_norm(got - u @ PLUS.data @ u.conj().T) < 1e-12

    def test_order_one_matches_independent_quadrature(self):
        res = ProductState(tilted_mixed_site())
        t = 0.3
        sys, site = qubit_sys(), qubit_site()
        (got,) = dyson_truncated(
            FiniteMRun(sys, site, 1, res, PLUS, np.array([t])), order=1)
        h0 = np.kron(SZ.data, I2) + np.kron(I2, 0.7 * SZ.data)
        v = np.kron(SX.data, SX.data)
        rho0 = np.kron(PLUS.data, tilted_mixed_site().data)
        us = np.linspace(0.0, t, 4001)
        vals = []
        for u in us:
            eu = expm(1j * u * h0)
            vu = eu @ v @ eu.conj().T
            vals.append(vu @ rho0 - rho0 @ vu)
        from scipy.integrate import simpson
        integral = simpson(np.stack(vals), x=us, axis=0)
        rho_i = rho0 - 1j * integral
        red = rho_i.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
        urot = expm(-1j * t * SZ.data)
        oracle = urot @ red @ urot.conj().T
        assert trace_norm(got - oracle) < 1e-8

    def test_truncation_error_decays_with_high_power_of_time(self):
        res = ProductState(tilted_mixed_site())
        sys, site = qubit_sys(), qubit_site()

        def err(order, t):
            # the oracle is exact to rounding, far under the 1.9e-6
            # smallest truncation error
            run = FiniteMRun(sys, site, 2, res, PLUS, np.array([t]))
            approx = dyson_truncated(run, order=order)
            return trace_norm(approx - propagate_exact(run).stack)[0]

        e2 = err(2, 0.2)
        r2 = err(2, 0.4) / e2
        e4 = err(4, 0.2)
        r4 = err(4, 0.4) / e4
        assert 12.0 < r2 < 20.0
        assert 45.0 < r4 < 80.0
        assert e4 < 1e-5 < e2

    def test_commuting_coupling_matches_closed_form_terms(self):
        # V commutes with H0, so S_k = exp(-i H0 t) (-i V t)^k / k!
        sys = SystemModel.single(SZ, [(SZ, 0)])
        site = SiteModel(h=Operator(0.7 * SZ.data, (2,), hermitian=True),
                         interactions=(SZ,))
        res = ProductState(tilted_mixed_site())
        m, t = 2, 0.7
        free = assemble_total(SystemModel(local_h=sys.local_h, couplings=()),
                              site, m).data
        v = assemble_total(sys, site, m).data - free
        assert np.allclose(free @ v, v @ free)
        u0 = expm(-1j * t * free)
        rho0 = np.kron(PLUS.data, materialize(res, m).data)
        run = FiniteMRun(sys, site, m, res, PLUS, np.array([t]))
        for order in range(5):
            terms = [u0 @ np.linalg.matrix_power(-1j * t * v, k)
                     / math.factorial(k) for k in range(order + 1)]
            joint = sum(terms[k] @ rho0 @ terms[l].conj().T
                        for k in range(order + 1)
                        for l in range(order + 1 - k))
            want = joint.reshape(2, 4, 2, 4).trace(axis1=1, axis2=3)
            (got,) = dyson_truncated(run, order)
            assert trace_norm(got - want) < 1e-12

    @pytest.mark.parametrize("kind", ["product", "definetti", "macroscopic",
                                      "channel", "explicit"])
    def test_matches_full_space_series(self, kind):
        rng = np.random.default_rng(17)

        def herm(dim):
            return Operator(random_hermitian(rng, dim), (dim,),
                            hermitian=True)

        site = SiteModel(h=herm(2), interactions=(herm(2), herm(2)))
        one = SystemModel.single(herm(2), [(herm(2), 0), (herm(2), 1)])
        two = SystemModel(local_h=(herm(2), herm(2)),
                          couplings=(Coupling(herm(2), 0, 0),
                                     Coupling(herm(2), 1, 1)))
        for sys in (one, two):
            rho0 = random_state(rng, sys.subsystem_dims, 2)
            for m in (2, 3, 5):
                res = random_ensemble(rng, kind, 2, m)
                wants = full_space_series(sys, site, res, m, rho0, 4, 0.3)
                run = FiniteMRun(sys, site, m, res, rho0, np.array([0.3]))
                for order, want in enumerate(wants):
                    (got,) = dyson_truncated(run, order)
                    assert trace_norm(got - want) < 1e-12

    def test_reaches_large_reservoirs(self):
        # the full-space block would be 5 x 2 x 2^M
        res = ProductState(PLUS)
        sys, site = qubit_sys(), qubit_site()
        for m in (9, 64):
            def gap(t):
                run = FiniteMRun(sys, site, m, res, PLUS, np.array([t]))
                approx = dyson_truncated(run, 4)
                return trace_norm(approx - propagate_exact(run).stack)[0]

            g = gap(0.2)
            assert g < 1e-4
            assert gap(0.4) / g > 16.0

    def test_grid_stack_is_the_stack_of_single_time_runs(self):
        res = DeFinettiMixture(((0.3, PLUS), (0.7, tilted_mixed_site())))
        sys, site, grid = qubit_sys(), qubit_site(), np.array([0.0, 0.2, 0.5])
        for order in (1, 4):
            got = dyson_truncated(FiniteMRun(sys, site, 3, res, PLUS, grid),
                                  order)
            assert got.shape == (3, 2, 2)
            for k, t in enumerate(grid):
                (one,) = dyson_truncated(
                    FiniteMRun(sys, site, 3, res, PLUS, np.array([t])), order)
                assert got[k].tobytes() == one.tobytes()

    def test_block_dimension_guard(self):
        # an explicit reservoir state is the full space: joint dimension
        # 1024 is dense-sized, the order-4 block is not
        res = materialize(ProductState(tilted_mixed_site()), 9)
        with pytest.raises(ResourceLimitError, match="block dimension 5120"):
            dyson_truncated(FiniteMRun(qubit_sys(), qubit_site(), 9, res,
                                       PLUS, np.array([0.1])), order=4)

    def test_input_validation(self):
        res = ProductState(tilted_mixed_site())
        with pytest.raises(ValidationError, match="order"):
            dyson_truncated(FiniteMRun(qubit_sys(), qubit_site(), 1, res,
                                       PLUS, np.array([0.1])), order=5)
        with pytest.raises(ValidationError, match="nonnegative"):
            dyson_truncated(FiniteMRun(qubit_sys(), qubit_site(), 1, res,
                                       PLUS, np.array([-0.1, 0.1])), order=2)


class TestRunValidation:
    def test_grid_must_increase(self):
        res = ProductState(tilted_mixed_site())
        with pytest.raises(ValidationError, match="increasing"):
            FiniteMRun(qubit_sys(), qubit_site(), 2, res, PLUS,
                       np.array([0.0, 1.0, 0.5]))

    @pytest.mark.parametrize("grid", [[0.0, np.nan], [0.0, 1.0, np.nan],
                                      [0.0, np.inf], [np.nan]])
    def test_grid_must_be_finite(self, grid):
        res = ProductState(tilted_mixed_site())
        with pytest.raises(ValidationError, match="non-finite time"):
            FiniteMRun(qubit_sys(), qubit_site(), 2, res, PLUS, grid)

    def test_state_dimension_must_match(self):
        res = ProductState(tilted_mixed_site())
        bad = DensityMatrix(np.eye(4) / 4, (2, 2))
        with pytest.raises(ValidationError, match="dim"):
            FiniteMRun(qubit_sys(), qubit_site(), 2, res, bad,
                       np.array([0.0, 1.0]))

    def test_explicit_reservoir_factor_count_checked(self):
        wrong = DensityMatrix(np.eye(4) / 4, (2, 2))
        with pytest.raises(ValidationError, match="factors"):
            FiniteMRun(qubit_sys(), qubit_site(), 3, wrong, PLUS,
                       np.array([0.0, 1.0]))

    def test_channel_needs_its_correlation_length(self):
        chan = ChannelCorrelated(DensityMatrix.pure(ket("0"), (2,)),
                                 corr_length=2, kraus=bell_channel_kraus())
        with pytest.raises(ValidationError, match="correlation length 2"):
            FiniteMRun(qubit_sys(), qubit_site(), 1, chan, PLUS,
                       np.array([0.0, 1.0]))

    def test_site_count_is_a_positive_integer(self):
        res = ProductState(tilted_mixed_site())
        grid = np.array([0.0, 1.0])
        # a count is never rounded to one, and a bool is not a count
        for bad in (2.0, True, 0, -1):
            with pytest.raises(ValidationError,
                               match="site count must be a positive integer"):
                FiniteMRun(qubit_sys(), qubit_site(), bad, res, PLUS, grid)
        run = FiniteMRun(qubit_sys(), qubit_site(), np.int64(3), res, PLUS,
                         grid)
        assert type(run.m_count) is int and run.m_count == 3

    def test_cluster_checked_against_sites(self):
        res = ProductState(tilted_mixed_site())
        grid = np.array([0.0, 1.0])
        pair = SiteModel(SZ, (Operator(np.eye(4), (2, 2), hermitian=True),))
        with pytest.raises(ValidationError, match="more than the site count 1"):
            FiniteMRun(qubit_sys(), pair, 1, res, PLUS, grid)
        FiniteMRun(qubit_sys(), pair, 2, res, PLUS, grid)
        with pytest.raises(ValidationError, match=r"dims \(3, 3\)"):
            SiteModel(SZ, (Operator(np.eye(9), (3, 3), hermitian=True),))
        # a coupling's interaction index is read whatever the interaction's
        # site count
        sys = SystemModel.single(SZ, [(SX, 5)])
        for site in (pair, qubit_site()):
            with pytest.raises(ValidationError, match="interaction 5"):
                FiniteMRun(sys, site, 2, res, PLUS, grid)
