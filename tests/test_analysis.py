import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from mflab import analysis
from mflab.errors import QuadratureError, ToleranceError, ValidationError
from mflab.operators import (DensityMatrix, Operator, bell_ket, ket, pauli,
                             trace_norm)
from mflab.model import Coupling, SiteModel, SystemModel
from mflab.reservoir import (ChannelCorrelated, DeFinettiMixture,
                             MacroscopicParts, ProductState, bell_channel_kraus,
                             factorization_error)
from mflab.exact import FiniteMRun, propagate_exact
from mflab.effective import (effective_potential, effective_trajectory,
                             evolve_state, propagate_definetti,
                             propagate_effective)
from mflab.results import PropagationResult
from mflab.analysis import (
    FieldOverlapSpec,
    SpectralProblem,
    bound_state_count,
    field_overlap_decay,
    finite_and_limit,
    m_sweep,
    negativity,
    negativity_trajectory,
    stark_halfline_spectrum,
    stark_problem,
    trace_distance,
)
from oracles import concurrence, summary_report, write_summary

SX, SZ = pauli("x"), pauli("z")


def dm(mat, dims):
    return DensityMatrix(np.asarray(mat, dtype=complex), dims)


def random_density(rng, dims):
    d = int(np.prod(dims))
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho).real, dims)


def random_unitary(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestTraceDistance:
    def test_identical_states(self):
        rho = dm(np.diag([0.25, 0.75]), (2,))
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a = dm(np.diag([1.0, 0.0]), (2,))
        b = dm(np.diag([0.0, 1.0]), (2,))
        assert abs(trace_distance(a, b) - 1.0) < 1e-14

    def test_zero_vs_plus(self):
        a = dm(np.diag([1.0, 0.0]), (2,))
        b = DensityMatrix.pure(ket("+"), (2,))
        assert abs(trace_distance(a, b) - np.sqrt(2) / 2) < 1e-12

    def test_triangle_inequality_on_random_triples(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            a, b, c = (random_density(rng, (2, 2)) for _ in range(3))
            assert trace_distance(a, c) <= (trace_distance(a, b)
                                            + trace_distance(b, c) + 1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="shape"):
            trace_distance(np.eye(2) / 2, np.eye(4) / 4)

    def test_stacks_give_one_distance_per_index(self):
        rng = np.random.default_rng(5)
        a = [random_density(rng, (2, 2)) for _ in range(6)]
        b = [random_density(rng, (2, 2)) for _ in range(6)]
        got = trace_distance(np.array([x.data for x in a]),
                             np.array([x.data for x in b]))
        assert got.shape == (6,)
        assert np.array_equal(got, [trace_distance(x, y)
                                    for x, y in zip(a, b)])

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_half_the_trace_norm(self, d):
        rng = np.random.default_rng(d)
        a = [random_density(rng, (d,)) for _ in range(8)]
        b = [random_density(rng, (d,)) for _ in range(8)]
        for x, y in zip(a, b):
            want = 0.5 * trace_norm(x.data - y.data)
            assert abs(trace_distance(x, y) - want) < 1e-14
            assert abs(trace_distance(x.data, y.data) - want) < 1e-14
        xs, ys = (np.array([r.data for r in rs]) for rs in (a, b))
        assert np.abs(trace_distance(xs, ys)
                      - 0.5 * trace_norm(xs - ys)).max() < 1e-14

    def test_refuses_arrays_eigvalsh_cannot_read(self):
        rho = np.diag([0.25, 0.75]).astype(complex)
        skew = rho + np.array([[0.0, 1e-3], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="non-Hermitian"):
            trace_distance(skew, rho)
        with pytest.raises(ValidationError, match="non-Hermitian"):
            trace_distance(np.array([rho, rho]), np.array([rho, skew]))
        for bad in (np.nan, np.inf):
            broken = rho.copy()
            broken[0, 0] = bad
            with pytest.raises(ValidationError, match="non-finite"):
                trace_distance(broken, broken)
            with pytest.raises(ValidationError, match="non-finite"):
                trace_distance(rho, broken)
        with pytest.raises(ValidationError, match="shape"):
            trace_distance(np.array([rho, rho]), rho)
        with pytest.raises(ValidationError, match="square"):
            trace_distance(np.ones((2, 3)), np.ones((2, 3)))


class TestNegativity:
    def test_product_state_is_zero(self):
        rho = dm(np.kron(np.diag([0.3, 0.7]), np.diag([0.9, 0.1])), (2, 2))
        assert negativity(rho, 0) < 1e-14

    def test_bell_state_is_half(self):
        rho = DensityMatrix.pure(bell_ket(), (2, 2))
        assert abs(negativity(rho, 0) - 0.5) < 1e-14
        assert abs(negativity(rho, 1) - 0.5) < 1e-14

    def test_werner_state_closed_form(self):
        # (3p-1)/4 above the separability point, 0 below
        proj = np.outer(bell_ket(), bell_ket().conj())
        for p, want in ((0.8, 0.35), (0.5, 0.125), (0.3, 0.0)):
            rho = dm(p * proj + (1 - p) * np.eye(4) / 4, (2, 2))
            assert abs(negativity(rho, 0) - want) < 1e-12

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(7)
        rho = random_density(rng, (2, 3))
        base = negativity(rho, 0)
        for _ in range(5):
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 3))
            rotated = DensityMatrix(u @ rho.data @ u.conj().T, (2, 3))
            assert abs(negativity(rotated, 0) - base) < 1e-10

    def test_trajectory_matches_per_state_negativity(self):
        rng = np.random.default_rng(9)
        states = [random_density(rng, (2, 3)) for _ in range(7)]
        res = PropagationResult.from_stack(np.arange(7.0),
                                           [s.data for s in states], (2, 3))
        for split in (0, 1):
            want = [negativity(s, split) for s in states]
            assert np.allclose(negativity_trajectory(res, split), want,
                               rtol=0, atol=1e-15)

    def test_partial_transpose_is_involutive(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, (2, 2))
        pt = analysis._partial_transpose(rho.data, rho.dims, 1)
        back = analysis._partial_transpose(pt, rho.dims, 1)
        assert np.allclose(back, rho.data)

    def test_invalid_splits(self):
        rho = dm(np.eye(4) / 4, (2, 2))
        with pytest.raises(ValidationError, match="empty"):
            negativity(rho, ())
        with pytest.raises(ValidationError, match="full transpose"):
            negativity(rho, (0, 1))
        with pytest.raises(ValidationError, match="outside"):
            negativity(rho, 2)
        with pytest.raises(ValidationError, match="repeats"):
            negativity(rho, (0, 0))
        single = dm(np.eye(2) / 2, (2,))
        with pytest.raises(ValidationError, match="two declared factors"):
            negativity(single, 0)


class TestConcurrence:
    def test_bell_state(self):
        rho = DensityMatrix.pure(bell_ket(), (2, 2))
        assert abs(concurrence(rho) - 1.0) < 1e-12

    def test_product_state(self):
        rho = dm(np.kron(np.diag([1.0, 0.0]), np.diag([0.5, 0.5])), (2, 2))
        assert concurrence(rho) < 1e-12

    def test_werner_closed_form(self):
        proj = np.outer(bell_ket(), bell_ket().conj())
        for p, want in ((0.8, 0.7), (0.5, 0.25), (0.3, 0.0)):
            rho = dm(p * proj + (1 - p) * np.eye(4) / 4, (2, 2))
            assert abs(concurrence(rho) - want) < 1e-12

    def test_pure_states_relate_to_negativity(self):
        # for two-qubit pure states the negativity is half the concurrence;
        # the square root in the closed form turns eigenvalue noise eps
        # into sqrt(eps), so the match is only ~1e-8
        rng = np.random.default_rng(11)
        for _ in range(10):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            rho = DensityMatrix.pure(psi, (2, 2))
            assert abs(concurrence(rho) - 2 * negativity(rho, 0)) < 1e-7

    def test_dimension_guard(self):
        with pytest.raises(ValidationError, match="two-qubit"):
            concurrence(dm(np.eye(8) / 8, (2, 2, 2)))


def sweep_fixture():
    sys = SystemModel.single(SZ, [(SX, 0)])
    site = SiteModel(h=SZ, interactions=(SX,))
    res = ProductState(DensityMatrix.pure(ket("+"), (2,)))
    rho0 = dm(np.diag([1.0, 0.0]), (2,))
    return sys, site, res, rho0


def test_explicit_reservoir_state_has_no_limit():
    # an explicit M-site state runs at its own M but has no M -> infinity
    # limit: every limit path refuses it by name
    sys, site, _, rho0 = sweep_fixture()
    explicit = DensityMatrix.pure(bell_ket(), (2, 2))
    assert len(propagate_exact(FiniteMRun(sys, site, 2, explicit, rho0,
                                          np.array([0.0, 0.5]))).states) == 2
    grid = np.linspace(0.0, 1.0, 5)
    for call in (lambda: m_sweep(sys, site, explicit, rho0, grid, [2]),
                 lambda: effective_trajectory(sys, explicit, site, rho0, grid),
                 lambda: factorization_error(explicit, 2, site, [0.1, 0.3])):
        with pytest.raises(ValidationError, match="explicit 2-site"):
            call()


class TestTrajectoryStacks:
    """Trajectories are checked and compared as whole (T, d, d) stacks."""

    def test_producers_validate_in_a_constant_number_of_eigvalsh_calls(
            self, monkeypatch):
        sys, site, res, rho0 = sweep_fixture()
        atoms = [(0.5, effective_potential(DensityMatrix.pure(ket(k), (2,)),
                                           site)) for k in ("+", "0")]
        real = np.linalg.eigvalsh
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)

        def count(grid):
            run = FiniteMRun(sys, site, 3, res, rho0, grid)
            prop = propagate_effective(sys, atoms[0][1], grid, n_substeps=2)
            out = []
            for call in (lambda: propagate_exact(run),
                         lambda: evolve_state(prop, rho0),
                         lambda: propagate_definetti(sys, atoms, rho0, grid)):
                calls.clear()
                assert len(call().states) == grid.size
                out.append(len(calls))
            return out

        few, many = count(np.linspace(0.0, 1.0, 3)), count(
            np.linspace(0.0, 1.0, 201))
        assert few == many
        assert max(many) <= 2

    def test_two_qubit_producers_validate_in_one_eigvalsh_call_each(
            self, monkeypatch):
        sys = SystemModel(local_h=(SZ, SZ),
                          couplings=(Coupling(g=SX, subsystem=0),
                                     Coupling(g=SX, subsystem=1)))
        _, site, res, _ = sweep_fixture()
        rho0 = dm(np.diag([1.0, 0.0, 0.0, 0.0]), (2, 2))
        atoms = [(0.5, effective_potential(DensityMatrix.pure(ket(k), (2,)),
                                           site)) for k in ("+", "0")]
        real = np.linalg.eigvalsh
        shapes = []

        def counting(a, *args, **kwargs):
            shapes.append(a.shape)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        for n in (3, 201):
            grid = np.linspace(0.0, 1.0, n)
            run = FiniteMRun(sys, site, 3, res, rho0, grid)
            prop = propagate_effective(sys, atoms[0][1], grid, n_substeps=2)
            for call in (lambda: propagate_exact(run),
                         lambda: evolve_state(prop, rho0),
                         lambda: propagate_definetti(sys, atoms, rho0, grid)):
                shapes.clear()
                assert len(call().states) == n
                assert shapes == [(n, 4, 4)]

    def test_qubit_runs_and_distances_make_no_eigvalsh_call(self,
                                                           monkeypatch):
        sys, site, res, rho0 = sweep_fixture()
        grid = np.linspace(0.0, 1.0, 21)
        limit = effective_trajectory(sys, res, site, rho0, grid)
        finite = propagate_exact(FiniteMRun(sys, site, 3, res, rho0, grid))

        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called on a qubit")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        rows = m_sweep(sys, site, res, rho0, grid, (2, 3))
        assert [r.m_count for r in rows] == [2, 3]
        pairs = [trace_distance(a, b)
                 for a, b in zip(finite.states, limit.states)]
        raw = [trace_distance(a.data, b.data)
               for a, b in zip(finite.states, limit.states)]
        stacked = trace_distance(finite.stack, limit.stack)
        assert pairs == raw == list(stacked)
        assert rows[1].gap == max(pairs)

    def test_sweep_gap_is_the_largest_per_state_distance(self):
        sys, site, res, rho0 = sweep_fixture()
        grid = np.linspace(0.0, 2.0, 201)
        limit = effective_trajectory(sys, res, site, rho0, grid)
        for row in m_sweep(sys, site, res, rho0, grid, (2, 5)):
            finite = propagate_exact(FiniteMRun(sys, site, row.m_count, res,
                                                rho0, grid))
            gap = max(trace_distance(a, b)
                      for a, b in zip(finite.states, limit.states))
            assert abs(row.gap - gap) <= 1e-12


ZERO = DensityMatrix.pure(ket("0"), (2,))
PLUS = DensityMatrix.pure(ket("+"), (2,))
ENSEMBLES = {
    "product": ProductState(PLUS),
    "definetti": DeFinettiMixture(((0.5, PLUS), (0.5, ZERO))),
    "macroscopic": MacroscopicParts(((0.5, ZERO), (0.5, PLUS))),
    "channel": ChannelCorrelated(ZERO, 2, bell_channel_kraus()),
}
# the pair interaction of the bundled cluster_pair experiment: X (x) X
PAIR = Operator(np.kron(SX.data, SX.data), (2, 2), hermitian=True)


class TestFiniteAndLimit:
    """One producer gives every propagation experiment its trajectories."""

    GRID = np.linspace(0.0, 1.0, 11)
    M_LIST = (2, 3)

    @staticmethod
    def assert_same_stacks(got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.stack.tobytes() == b.stack.tobytes()

    @pytest.mark.parametrize("kind", sorted(ENSEMBLES))
    def test_stacks_are_those_of_the_direct_calls(self, kind):
        sys, site, _, rho0 = sweep_fixture()
        res = ENSEMBLES[kind]
        limit, finite = finite_and_limit(sys, site, res, rho0, self.GRID,
                                         self.M_LIST)
        self.assert_same_stacks(
            [limit], [effective_trajectory(sys, res, site, rho0, self.GRID)])
        self.assert_same_stacks(finite, [
            propagate_exact(FiniteMRun(sys, site, m, res, rho0, self.GRID))
            for m in self.M_LIST])
        threaded = finite_and_limit(sys, site, res, rho0, self.GRID,
                                    self.M_LIST, threads=2)
        self.assert_same_stacks([limit, *finite], [threaded[0], *threaded[1]])

    def test_cluster_limit_is_the_pair_block_orbit(self):
        # nu = 2 sites of a product ensemble meet the pair state s (x) s
        # under the pair Hamiltonian h (x) 1 + 1 (x) h, coupled by X (x) X
        sys, site, res, rho0 = sweep_fixture()
        site = SiteModel(h=SZ, interactions=(PAIR,))
        limit, finite = finite_and_limit(sys, site, res, rho0, self.GRID,
                                         self.M_LIST)
        pair_site = SiteModel(
            h=Operator(np.kron(SZ.data, np.eye(2)) + np.kron(np.eye(2), SZ.data),
                       (4,), hermitian=True),
            interactions=(Operator(PAIR.data, (4,)),))
        pair_state = DensityMatrix(np.kron(PLUS.data, PLUS.data), (4,))
        self.assert_same_stacks([limit], [effective_trajectory(
            sys, ProductState(pair_state), pair_site, rho0, self.GRID)])
        self.assert_same_stacks(finite, [
            propagate_exact(FiniteMRun(sys, site, m, res, rho0, self.GRID))
            for m in self.M_LIST])
        threaded = finite_and_limit(sys, site, res, rho0, self.GRID,
                                    self.M_LIST, threads=2)
        self.assert_same_stacks([limit, *finite], [threaded[0], *threaded[1]])

    def test_threads_must_be_positive(self):
        sys, site, res, rho0 = sweep_fixture()
        with pytest.raises(ValidationError, match="threads"):
            finite_and_limit(sys, site, res, rho0, self.GRID, (1,), threads=0)


class TestMSweep:
    def test_rows_and_ratios(self):
        sys, site, res, rho0 = sweep_fixture()
        grid = np.linspace(0.0, 2.0, 41)
        rows = m_sweep(sys, site, res, rho0, grid, (1, 2, 4))
        assert [r.m_count for r in rows] == [1, 2, 4]
        gaps = [r.gap for r in rows]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert np.isnan(rows[0].ratio)
        assert rows[1].ratio == pytest.approx(gaps[1] / gaps[0])
        assert all(r.ratio < 1 for r in rows[1:])

    def test_rows_keep_every_diagnostic_of_their_runs(self):
        sys, site, _, rho0 = sweep_fixture()
        grid = np.linspace(0.0, 1.0, 11)
        res = ENSEMBLES["definetti"]
        rows = m_sweep(sys, site, res, rho0, grid, (2, 3))
        for row in rows:
            run = propagate_exact(FiniteMRun(sys, site, row.m_count, res,
                                             rho0, grid))
            assert row.diagnostics == run.diagnostics
            assert row.diagnostics["branches"] == 2

    def test_threaded_sweep_matches_serial(self):
        sys, site, res, rho0 = sweep_fixture()
        grid = np.linspace(0.0, 1.0, 11)
        serial = m_sweep(sys, site, res, rho0, grid, (1, 3), threads=1)
        threaded = m_sweep(sys, site, res, rho0, grid, (1, 3), threads=2)
        for a, b in zip(serial, threaded):
            assert a.gap == pytest.approx(b.gap, abs=1e-15)

    def test_m_list_validation(self):
        sys, site, res, rho0 = sweep_fixture()
        grid = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValidationError, match="strictly increasing"):
            m_sweep(sys, site, res, rho0, grid, (3, 2))
        with pytest.raises(ValidationError, match="positive"):
            m_sweep(sys, site, res, rho0, grid, (0, 2))
        with pytest.raises(ValidationError, match="empty"):
            m_sweep(sys, site, res, rho0, grid, ())
        # sizes are integers, never rounded to one
        for bad in ([2.7, 3], [2.0, 3], [True, 2]):
            with pytest.raises(ValidationError, match="integers"):
                m_sweep(sys, site, res, rho0, grid, bad)
        rows = m_sweep(sys, site, res, rho0, grid, np.array([1, 3]))
        assert [r.m_count for r in rows] == [1, 3]
        assert all(type(r.m_count) is int for r in rows)

    def test_correlated_and_product_reservoirs_share_the_limit(self):
        # the channel-correlated ensemble differs from the product one at
        # finite size but drifts to the same limit trajectory
        sys, site, _, rho0 = sweep_fixture()
        zero = DensityMatrix.pure(ket("0"), (2,))
        prod = ProductState(zero)
        chan = ChannelCorrelated(zero, corr_length=2,
                                 kraus=bell_channel_kraus())
        grid = np.linspace(0.0, 2.0, 21)
        spreads = []
        for m in (3, 6):
            a = propagate_exact(FiniteMRun(sys, site, m, prod, rho0, grid))
            b = propagate_exact(FiniteMRun(sys, site, m, chan, rho0, grid))
            spreads.append(max(trace_distance(x, y)
                               for x, y in zip(a.states, b.states)))
        assert spreads[0] > 1e-3
        assert spreads[1] < spreads[0]


class TestBoundStates:
    def test_zero_potential_has_none(self):
        prob = SpectralProblem(x_max=10.0, potential=lambda x: 0.0 * x,
                               n_grid=128)
        count, ev = bound_state_count(prob)
        assert count == 0 and ev.size == 0

    def test_halfline_square_well_counts_match_transcendental_oracle(self):
        # matching condition for a unit-width well on the half line:
        # k*cot(k) = -sqrt(V0 - k^2), one solution per branch
        def oracle_count(v0):
            s = np.sqrt(v0)
            count, j = 0, 1
            while (2 * j - 1) * np.pi / 2 < s:
                lo = (2 * j - 1) * np.pi / 2 + 1e-9
                hi = min(j * np.pi, s) - 1e-9
                f = lambda k: k / np.tan(k) + np.sqrt(v0 - k * k)
                if hi > lo and f(lo) * f(hi) < 0:
                    brentq(f, lo, hi)
                    count += 1
                j += 1
            return count

        for v0, want in ((1.5, 0), (5.0, 1), (30.0, 2)):
            assert oracle_count(v0) == want
            prob = SpectralProblem(
                x_max=12.0,
                potential=lambda x, v=v0: np.where(x < 1.0, -v, 0.0),
                n_grid=600, half_line=True)
            count, ev = bound_state_count(prob)
            assert count == want
            assert np.all(ev < 0)

    def test_well_energy_converges_to_oracle_root(self):
        # the sampled step potential limits the scheme to first order, so
        # check shrinking error rather than a tight absolute match
        v0 = 5.0
        f = lambda k: k / np.tan(k) + np.sqrt(v0 - k * k)
        k = brentq(f, np.pi / 2 + 1e-9, np.sqrt(v0) - 1e-9)
        want = k * k - v0
        errs = []
        for n in (599, 1199, 2399):
            prob = SpectralProblem(
                x_max=12.0, potential=lambda x: np.where(x < 1.0, -v0, 0.0),
                n_grid=n, half_line=True)
            _, ev = bound_state_count(prob)
            errs.append(abs(ev[0] - want))
        assert errs[0] < 0.05
        assert errs[2] < errs[1] < errs[0]
        assert 1.7 < errs[0] / errs[1] < 2.3

    def test_deepening_never_loses_states(self):
        counts = []
        for v0 in (1.0, 4.0, 9.0, 16.0, 36.0):
            prob = SpectralProblem(
                x_max=12.0,
                potential=lambda x, v=v0: np.where(x < 1.0, -v, 0.0),
                n_grid=600, half_line=True)
            counts.append(bound_state_count(prob)[0])
        assert counts == sorted(counts)

    def test_unresolved_feature_raises(self):
        # a well thinner than the coarse spacing, centered on a node that
        # only the refined grid has: invisible at n, binding at 2n+1
        x_max, n = 10.0, 64
        h = 2 * x_max / (n + 1)
        center = h * (n / 2 + 0.5) - x_max

        def needle(x):
            return np.where(np.abs(x - center) < 0.2 * h, -5e3, 0.0)

        prob = SpectralProblem(x_max=x_max, potential=needle, n_grid=n)
        with pytest.raises(ToleranceError, match="grid doubling"):
            bound_state_count(prob)

    def test_domain_keeps_the_spacing_in_float_range(self):
        # h^2 on the declared grid and 1/h^2 on the third rung (4n + 3
        # points) are finite and nonzero, or the problem is refused
        for x_max, half in ((1e300, True), (1e300, False), (1e-300, True),
                            (1e-160, False)):
            with pytest.raises(ValidationError, match="float range"):
                SpectralProblem(x_max, lambda x: 0 * x, 400, half)
        wide = SpectralProblem(1e150, lambda x: 0 * x, 400, True)
        assert wide.spacing(400) == 1e150 / 401

    def test_eigensolver_failure_is_a_tolerance_error(self):
        # so steep that LAPACK's bisection gives up on the first rung
        with pytest.raises(ToleranceError, match="1600-point grid"):
            stark_halfline_spectrum(1e300, 3)

    def test_problem_validation(self):
        with pytest.raises(ValidationError, match="x_max"):
            SpectralProblem(x_max=0.0, potential=lambda x: x)
        with pytest.raises(ValidationError, match="64"):
            SpectralProblem(x_max=1.0, potential=lambda x: x, n_grid=32)
        with pytest.raises(ValidationError, match="callable"):
            SpectralProblem(x_max=1.0, potential=3.0)
        bad = SpectralProblem(x_max=1.0, potential=lambda x: x * 1j)
        with pytest.raises(ValidationError, match="real"):
            bound_state_count(bad)


class TestProblemConstructors:
    """The constructors the spectrum and decay configs parse into own every
    rule on their arguments, naming the argument when it alone is at fault."""

    @pytest.mark.parametrize("make,arg,words", [
        (lambda: analysis.well_problem(0.0, 1.0, 12.0), "depth", "positive"),
        (lambda: analysis.well_problem(1.0, 1.0, -1.0), "x_max", "positive"),
        (lambda: analysis.well_problem(1.0, 1.0, 12.0, 32), "n_grid", "64"),
        (lambda: analysis.well_problem(1.0, 0.0, 12.0), None, "inside"),
        (lambda: analysis.well_problem(1.0, 12.0, 12.0), None, "inside"),
        (lambda: analysis.well_problem(1.0, 1e-301, 1e-300), None,
         "float range"),
        (lambda: analysis.stark_problem(0.0, 3), "slope", "positive"),
        (lambda: analysis.stark_problem(1.0, 65, 64), "n_levels", "levels"),
        (lambda: analysis.gaussian_overlap(0.0, 8.0), "scale", "nonzero"),
        (lambda: analysis.gaussian_overlap(1.0, -8.0), "r_max", "positive"),
        (lambda: analysis.gaussian_overlap(1e300, 8.0), None, "finite"),
        (lambda: analysis.bump_overlap(3.0, 0.0, 6.0), "halfwidth",
         "positive"),
        (lambda: analysis.bump_overlap(3.0, 4.0, 6.0), None, "r = 0"),
        (lambda: analysis.bump_overlap(3.0, 2.0, 4.0), None, "r_max")])
    def test_rules_are_the_constructors_own(self, make, arg, words):
        with pytest.raises(ValidationError, match=words) as info:
            make()
        assert info.value.arg == arg

    def test_well_potential_is_the_square_well(self):
        x = np.linspace(-3.0, 3.0, 601)
        half = analysis.well_problem(5.0, 1.0, 12.0)
        assert half.half_line and half.x_max == 12.0 and half.n_grid == 400
        assert np.array_equal(half.potential(x[x > 0]),
                              np.where(x[x > 0] <= 1.0, -5.0, 0.0))
        full = analysis.well_problem(5.0, 1.0, 12.0, 900, half_line=False)
        assert not full.half_line and full.n_grid == 900
        assert np.array_equal(full.potential(x),
                              np.where(np.abs(x) <= 0.5, -5.0, 0.0))

    def test_overlap_profiles(self):
        r = np.linspace(0.0, 8.0, 97)
        spec = analysis.gaussian_overlap(-2.0, 8.0)
        assert spec.r_max == 8.0
        assert np.array_equal(spec.f_prime(r), -2.0 * np.exp(-r ** 2))
        assert np.array_equal(spec.h_prime(r), np.exp(-r ** 2))
        bump = analysis.bump_overlap(3.0, 2.0, 6.0)
        assert bump.f_prime is bump.h_prime
        assert np.array_equal(bump.f_prime(r), bump_spec().f_prime(r))


class TestStarkHalfline:
    def test_airy_zero_targets(self):
        got = stark_halfline_spectrum(1.0, 3)
        want = np.array([2.33811, 4.08795, 5.52056])
        assert np.max(np.abs(got - want) / want) < 0.01

    def test_two_thirds_power_scaling(self):
        base = stark_halfline_spectrum(1.0, 3)
        for slope in (0.5, 2.0):
            scaled = stark_halfline_spectrum(slope, 3)
            dev = np.abs(scaled / base - slope ** (2 / 3)) / slope ** (2 / 3)
            assert np.max(dev) < 0.005

    def test_levels_increasing_and_simple(self):
        got = stark_halfline_spectrum(1.0, 6)
        diffs = np.diff(got)
        assert np.all(diffs > 0.1)

    def test_small_slope_limit(self):
        lows = [stark_halfline_spectrum(s, 1)[0]
                for s in (1.0, 0.1, 0.01)]
        assert all(a > b for a, b in zip(lows, lows[1:]))
        assert lows[-1] < 0.2

    def test_validation_and_nonconvergence(self):
        with pytest.raises(ValidationError, match="slope"):
            stark_halfline_spectrum(0.0, 3)
        with pytest.raises(ValidationError, match="level"):
            stark_halfline_spectrum(1.0, 0)
        with pytest.raises(ToleranceError, match="Richardson"):
            stark_halfline_spectrum(1.0, 3, n_grid=64, rel_tol=1e-14)
        # the grid rule is SpectralProblem's own
        with pytest.raises(ValidationError) as want:
            SpectralProblem(x_max=1.0, potential=lambda x: x, n_grid=32)
        with pytest.raises(ValidationError) as got:
            stark_halfline_spectrum(1.0, 3, n_grid=32)
        assert str(got.value) == str(want.value)
        # more levels than grid points is refused before the eigensolver
        with pytest.raises(ValidationError, match="n_grid = 64 levels, got 100"):
            stark_halfline_spectrum(1.0, 100, n_grid=64)
        problem = stark_problem(1.0, 64, n_grid=64)
        assert problem.half_line and problem.n_grid == 64


def gaussian_spec(scale=1.0):
    return FieldOverlapSpec(
        f_prime=lambda r: scale * np.exp(-r * r),
        h_prime=lambda r: np.exp(-r * r),
        r_max=8.0)


def faddeeva_oracle(t):
    # I(t) = int_0^inf r^2 e^{-2 r^2} e^{irt} dr = -J''(t) with
    # J(t) = (1/2) sqrt(pi/2) w(t / (2 sqrt(2)))
    from scipy.special import wofz
    beta = 1.0 / (2.0 * np.sqrt(2.0))
    c = 0.5 * np.sqrt(np.pi / 2.0)
    z = beta * t
    w = wofz(z)
    wpp = (4.0 * z * z - 2.0) * w - 4.0j * z / np.sqrt(np.pi)
    return -(c * beta * beta) * wpp


def bump_spec():
    # the field_scattering_decay profile: smooth, supported on [1, 5]
    def bump(r):
        u = (r - 3.0) / 2.0
        out = np.zeros_like(r)
        inside = np.abs(u) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
        return out

    return FieldOverlapSpec(f_prime=bump, h_prime=bump, r_max=6.0)


class TestFieldOverlap:
    def test_static_value_is_plain_integral(self):
        got = field_overlap_decay(gaussian_spec(), 0.0)[0]
        want = (np.sqrt(2.0 * np.pi) / 16.0) ** 2
        assert abs(got - want) < 1e-12

    def test_gaussian_matches_faddeeva_oracle(self):
        times = np.array([0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 40.0])
        got = field_overlap_decay(gaussian_spec(), times)
        want = np.abs(faddeeva_oracle(times)) ** 2
        assert np.max(np.abs(got - want)) < 1e-6

    def test_profile_scaling_is_quadratic(self):
        times = np.array([0.0, 1.5, 4.0])
        base = field_overlap_decay(gaussian_spec(), times)
        scaled = field_overlap_decay(gaussian_spec(scale=2.5), times)
        assert np.allclose(scaled, 2.5 ** 2 * base, rtol=1e-9)

    def test_output_nonnegative(self):
        got = field_overlap_decay(gaussian_spec(), np.linspace(0, 20, 9))
        assert np.all(got >= 0)

    def test_smooth_compact_profiles_decay(self):
        spec = bump_spec()
        static = field_overlap_decay(spec, 0.0)[0]
        late = field_overlap_decay(spec, np.array([50.0, 75.0, 100.0]))
        assert np.max(late) < 1e-3 * static

    def test_quadrature_cap_raises(self):
        with pytest.raises(QuadratureError, match="panels"):
            field_overlap_decay(gaussian_spec(), 3.0, tol=1e-16,
                                max_panels=256)

    def test_bump_matches_qawo_oracle(self):
        # QUADPACK's QAWO integrates against cos(tr) and sin(tr) on its own
        # adaptive subdivision, independent of the shared Filon panels
        from scipy.integrate import quad
        spec = bump_spec()
        times = np.array([0.0, 0.5, 5.0, 25.0, 100.0])
        got = np.sqrt(field_overlap_decay(spec, times))

        def amplitude(r):
            return float(spec.amplitude(np.array([r]))[0].real)

        for t, amp in zip(times, got):
            parts = [quad(amplitude, 0.0, spec.r_max, weight=w, wvar=t,
                          epsabs=1e-13, epsrel=1e-12, limit=400)[0]
                     for w in ("cos", "sin")]
            assert abs(amp - abs(complex(*parts))) < 1e-7

    def test_phase_blocks_do_not_change_the_sums(self, monkeypatch):
        times = np.linspace(0.0, 10.0, 41)
        monkeypatch.setattr(analysis, "OVERLAP_CHUNK", 1 << 30)
        whole = field_overlap_decay(gaussian_spec(), times)
        monkeypatch.setattr(analysis, "OVERLAP_CHUNK", 100)
        blocked = field_overlap_decay(gaussian_spec(), times)
        assert np.allclose(blocked, whole, rtol=1e-12, atol=0)

    def test_empty_times(self):
        got = field_overlap_decay(gaussian_spec(), np.array([]))
        assert got.shape == (0,)

    def test_quadrature_cap_names_panels_and_worst_time(self):
        spec, times = bump_spec(), np.array([100.0, 0.0, 5.0])
        n = 2 * analysis.BASE_PANELS
        moved = np.abs(analysis._filon_sums(spec, times, n)
                       - analysis._filon_sums(spec, times, n // 2))
        worst = times[np.argmax(moved)]
        with pytest.raises(QuadratureError) as err:
            field_overlap_decay(spec, times, tol=1e-16, max_panels=n)
        assert f"at {n} panels (t={worst:g})" in str(err.value)

    def test_times_keep_the_filon_cube_in_float_range(self):
        # at BASE_PANELS the largest argument is t r_max / 128; its cube
        # must stay finite, and a time just inside that range computes
        # without a numpy warning
        spec = gaussian_spec()
        edge = 5.6e102 * 2 * analysis.BASE_PANELS / spec.r_max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="cube") as err:
                field_overlap_decay(spec, [0.0, 1.0e300])
            assert err.value.arg == "times"
            with pytest.raises(ValidationError, match=">= 0"):
                field_overlap_decay(spec, [-1.0])
            field_overlap_decay(spec, [0.0, edge / 2])

    def test_spec_validation(self):
        with pytest.raises(ValidationError, match="callable"):
            FieldOverlapSpec(f_prime=1.0, h_prime=lambda r: r, r_max=1.0)
        with pytest.raises(ValidationError, match="r_max"):
            FieldOverlapSpec(f_prime=lambda r: r, h_prime=lambda r: r,
                             r_max=-1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ValidationError, match="finite"):
                FieldOverlapSpec(f_prime=lambda r: r / (r - r),
                                 h_prime=lambda r: r, r_max=1.0)


class TestSummary:
    def test_report_counts(self):
        doc = summary_report([("a", True, "ok"), ("b", False, "bad")],
                             extra={"seed": 5})
        assert doc["n_passed"] == 1 and doc["n_failed"] == 1
        assert doc["seed"] == 5

    def test_write_round_trip(self, tmp_path):
        import json
        path = tmp_path / "summary.json"
        write_summary(path, [("a", True, "ok")])
        loaded = json.loads(path.read_text())
        assert loaded["criteria"][0]["name"] == "a"
        assert loaded["n_failed"] == 0
