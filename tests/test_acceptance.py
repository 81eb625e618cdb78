"""Desk-scale acceptance checks, one criterion per test.

Each test times itself against its stated budget, prints a single
``A<k> ...: PASS/FAIL`` line, and appends the verdict to a module-level
report that lands in acceptance_summary.json when the module finishes.
Criteria the current numerics genuinely miss fail here instead of being
skipped or loosened; see the failure details for the measured values.
"""

import csv
import io
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import wofz

from mflab import cli
from mflab.operators import DensityMatrix, bell_ket, ket, pauli
from mflab.model import Coupling, SiteModel, SystemModel, coherent_ket, oscillator_site
from mflab.reservoir import (
    ChannelCorrelated,
    DeFinettiMixture,
    ProductState,
    bell_channel_kraus,
    coherent_bound,
    factorization_error,
    multitime_moment,
    site_expectation,
)
from mflab.effective import (
    effective_potential,
    effective_trajectory,
    evolve_state,
    propagate_effective,
)
from mflab.exact import FiniteMRun, dyson_truncated, propagate_exact
from mflab.analysis import (
    FieldOverlapSpec,
    SpectralProblem,
    bound_state_count,
    field_overlap_decay,
    m_sweep,
    negativity_trajectory,
    stark_halfline_spectrum,
    trace_distance,
)
from oracles import write_summary

RESULTS = []


def record(name, passed, detail):
    line = f"{name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    RESULTS.append((name, bool(passed), detail))
    if not passed:
        pytest.fail(line, pytrace=False)


@pytest.fixture(scope="module", autouse=True)
def _summary_sink():
    yield
    write_summary("acceptance_summary.json", RESULTS)


def qubit_site():
    return SiteModel(h=pauli("z"), interactions=(pauli("x"),))


def pure(label, dims=(2,)):
    v = bell_ket() if label == "bell" else ket(label)
    return DensityMatrix(np.outer(v, v.conj()), dims)


def benchmark_grid():
    return np.arange(0.0, 2.0 + 1e-12, 0.01)


def max_dist(a, b):
    return max(trace_distance(x, y) for x, y in zip(a.states, b.states))


# --- A1: single-qubit convergence of the finite sweep to the limit orbit ---

def run_a1_sweep():
    sysm = SystemModel.single(pauli("z"), [Coupling(pauli("x"))])
    rows = m_sweep(sysm, qubit_site(), ProductState(pure("+")), pure("0"),
                   benchmark_grid(), [1, 2, 4, 8])
    return {r.m_count: r.gap for r in rows}


def test_a1_gap_monotone_and_halving():
    t0 = time.perf_counter()
    gaps = run_a1_sweep()
    elapsed = time.perf_counter() - t0
    seq = [gaps[m] for m in (1, 2, 4, 8)]
    decreasing = all(a > b for a, b in zip(seq, seq[1:]))
    halved = gaps[8] <= gaps[2] / 2.5
    detail = (f"gaps {['%.4f' % g for g in seq]}, decreasing={decreasing}, "
              f"gap(8)={gaps[8]:.4f} <= gap(2)/2.5={gaps[2] / 2.5:.4f}: {halved}; "
              f"{elapsed:.1f}s < 60s")
    record("A1 gap monotone + halving", decreasing and halved and elapsed < 60, detail)


def test_a1_gap8_absolute():
    # Known red: the M=8 gap sits near 0.0616 on this benchmark, not below
    # 0.05.  Kept as stated so the miss is visible, not papered over.
    t0 = time.perf_counter()
    gaps = run_a1_sweep()
    elapsed = time.perf_counter() - t0
    ok = gaps[8] < 0.05
    record("A1 gap(8) < 0.05", ok and elapsed < 60,
           f"gap(8)={gaps[8]:.6f} vs 0.05; {elapsed:.1f}s < 60s")


# --- A2: Bell-pair entanglement held by the product-form limit propagator ---

def test_a2_entanglement_protection():
    t0 = time.perf_counter()
    two = SystemModel(local_h=(pauli("z"), pauli("z")),
                      couplings=(Coupling(pauli("x"), 0, 0),
                                 Coupling(pauli("x"), 0, 1)))
    bell = pure("bell", (2, 2))
    grid = benchmark_grid()
    site = qubit_site()
    reservoir = ProductState(pure("+"))
    eff = evolve_state(
        propagate_effective(two, effective_potential(reservoir.site_state, site),
                            grid), bell)
    eff_dev = float(np.max(np.abs(negativity_trajectory(eff, 0) - 0.5)))
    devs = []
    for m in (2, 4, 8):
        res = propagate_exact(FiniteMRun(two, site, m, reservoir, bell, grid))
        devs.append(float(np.max(np.abs(negativity_trajectory(res, 0) - 0.5))))
    elapsed = time.perf_counter() - t0
    decreasing = all(a > b for a, b in zip(devs, devs[1:]))
    ok = eff_dev <= 1e-9 and decreasing
    record("A2 entanglement protection", ok and elapsed < 120,
           f"limit dev {eff_dev:.2e} <= 1e-9; finite devs "
           f"{['%.4f' % d for d in devs]} decreasing={decreasing}; "
           f"{elapsed:.1f}s < 120s")


# --- A3: two-time factorization error, closed form and correlated bound ---

def test_a3_factorization_error():
    t0 = time.perf_counter()
    site = qubit_site()
    times = (0.3, 0.7)
    plus = pure("+")
    product = ProductState(plus)
    joint1 = multitime_moment(product, 1, site, list(times))
    single = [site_expectation(plus, site, t) for t in times]
    worst = 0.0
    for m in (2, 10, 100, 10_000):
        err, _ = factorization_error(product, m, site, list(times))
        closed = abs(joint1 - single[0] * single[1]) / m
        worst = max(worst, abs(err - closed))
    channel = ChannelCorrelated(pure("0"), 2, bell_channel_kraus())
    bounded = True
    for m in range(3, 9):
        err, bound = factorization_error(channel, m, site, list(times))
        bounded = bounded and err <= bound
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and bounded
    record("A3 factorization error", ok and elapsed < 10,
           f"closed-form mismatch {worst:.2e} <= 1e-12; channel within bound "
           f"for M=3..8: {bounded}; {elapsed:.1f}s < 10s")


# --- A4: order-4 short-time series against the finite propagation ---

def test_a4_series_halving_ratio():
    # The truncation error scales as t^5, so halving t divides the gap by
    # about 32; the ratio below is gap(t)/gap(t/2), the orientation that
    # the [24, 40] window brackets.
    t0 = time.perf_counter()
    sysm = SystemModel.single(pauli("z"), [Coupling(pauli("x"))])
    site = qubit_site()
    reservoir = ProductState(pure("+"))
    rho0 = pure("0")
    gaps = {}
    for t in (0.2, 0.4):
        run = FiniteMRun(sysm, site, 2, reservoir, rho0, np.array([0.0, t]))
        exact = propagate_exact(run).states[-1]
        approx = dyson_truncated(run, 4)[-1]
        gaps[t] = trace_distance(exact, approx)
    ratio = gaps[0.4] / gaps[0.2]
    elapsed = time.perf_counter() - t0
    ok = 24.0 <= ratio <= 40.0
    record("A4 series halving ratio", ok and elapsed < 30,
           f"gap(0.4)/gap(0.2) = {ratio:.3f} in [24, 40]; {elapsed:.1f}s < 30s")


# --- A5: coherent-state moment envelope on the truncated oscillator ---

def moment_tuples(n):
    tuples = [(t,) * n for t in (0.0, 0.5, 1.0, 1.5)]
    asc = tuple(0.25 * (j + 1) for j in range(n))
    return tuples + [asc, asc[::-1]]


def test_a5_moment_bound_grid():
    # Known red: the vacuum two-time moment already sits at 1/2 while the
    # stated envelope gives 1/4, and nine further cells follow suit.  The
    # wider (1 + |alpha|)^n envelope holds everywhere (see the reservoir
    # tests); this check keeps the tight form and reports the misses.
    t0 = time.perf_counter()
    site = oscillator_site(12)
    violations = []
    for alpha in (0.0, 0.5, 1.0):
        v = coherent_ket(alpha, 12)
        state = ProductState(DensityMatrix(np.outer(v, v.conj()), (12,)))
        for n in range(1, 7):
            cap = coherent_bound(n, alpha)
            for m in (1, 2, 3):
                worst = max(abs(multitime_moment(state, m, site, list(ts)))
                            for ts in moment_tuples(n))
                if worst > cap + 1e-9:
                    violations.append(f"alpha={alpha} n={n} M={m}: "
                                      f"{worst:.4f} > {cap:.4f}")
    elapsed = time.perf_counter() - t0
    record("A5 coherent moment envelope",
           not violations and elapsed < 30,
           f"{len(violations)} of 54 cells exceed the envelope"
           + (": " + "; ".join(violations) if violations else "")
           + f"; {elapsed:.1f}s < 30s")


def test_a5_supermultiplicative():
    t0 = time.perf_counter()

    def even_double_factorial(k):
        return math.prod(range(2, 2 * k + 1, 2))

    ok = all(
        even_double_factorial(n1 + n2)
        >= even_double_factorial(n1) * even_double_factorial(n2)
        for n1 in range(11) for n2 in range(11))
    elapsed = time.perf_counter() - t0
    record("A5 envelope supermultiplicative", ok and elapsed < 30,
           f"(2(n1+n2))!! >= (2 n1)!! (2 n2)!! exact for n1,n2 <= 10: {ok}; "
           f"{elapsed:.1f}s < 30s")


# --- A6: half-line linear potential levels and slope scaling ---

def test_a6_linear_potential_levels():
    t0 = time.perf_counter()
    airy = np.array([2.33811, 4.08795, 5.52056])
    levels = {f: stark_halfline_spectrum(f, 3) for f in (0.5, 1.0, 2.0)}
    base_err = float(np.max(np.abs(levels[1.0] - airy) / airy))
    scale_err = max(
        float(np.max(np.abs(levels[f] / f ** (2.0 / 3.0) - levels[1.0])
                     / levels[1.0]))
        for f in (0.5, 2.0))
    elapsed = time.perf_counter() - t0
    ok = base_err < 0.01 and scale_err < 0.005
    record("A6 linear potential levels", ok and elapsed < 20,
           f"level rel err {base_err:.2e} < 1%; slope^(2/3) scaling err "
           f"{scale_err:.2e} < 0.5%; {elapsed:.1f}s < 20s")


# --- A7: square-well bound-state counts against the matching condition ---

def well_count_oracle(depth):
    """Roots of k cos(k) + sqrt(depth - k^2) sin(k) on (0, sqrt(depth)):
    the Dirichlet matching condition for a unit-width well."""
    kmax = math.sqrt(depth)

    def f(k):
        return k * math.cos(k) + math.sqrt(max(depth - k * k, 0.0)) * math.sin(k)

    ks = np.linspace(1e-9, kmax - 1e-9, 4001)
    count = 0
    for a, b in zip(ks[:-1], ks[1:]):
        if f(a) * f(b) < 0:
            brentq(f, a, b)
            count += 1
    return count


def test_a7_well_bound_state_counts():
    t0 = time.perf_counter()
    results = []
    for depth in (1.5, 5.0, 30.0):
        problem = SpectralProblem(
            x_max=14.0,
            potential=lambda x, v=depth: np.where(x <= 1.0, -v, 0.0),
            n_grid=900, half_line=True)
        counted, _ = bound_state_count(problem, threshold=0.0)
        results.append((depth, counted, well_count_oracle(depth)))
    elapsed = time.perf_counter() - t0
    ok = all(c == o for _, c, o in results) and \
        [c for _, c, _ in results] == [0, 1, 2]
    record("A7 bound-state counts", ok and elapsed < 10,
           "; ".join(f"depth {d}: grid {c} vs oracle {o}"
                     for d, c, o in results) + f"; {elapsed:.1f}s < 10s")


# --- A8: exchangeable mixture tracks the mixed orbit, not either branch ---

def test_a8_mixture_tracking():
    t0 = time.perf_counter()
    sysm = SystemModel.single(pauli("z"), [Coupling(pauli("x"))])
    site = qubit_site()
    rho0 = pure("0")
    grid = benchmark_grid()
    mixture = DeFinettiMixture(atoms=((0.5, pure("+")), (0.5, pure("-"))))
    exact = propagate_exact(FiniteMRun(sysm, site, 8, mixture, rho0, grid))
    mixed = effective_trajectory(sysm, mixture, site, rho0, grid)
    orbits = [
        evolve_state(propagate_effective(
            sysm, effective_potential(pure(lbl), site), grid), rho0)
        for lbl in ("+", "-")]
    d_mix = max_dist(exact, mixed)
    d_orb = min(max_dist(exact, orb) for orb in orbits)
    purity = min(float(np.trace(s.data @ s.data).real) for s in mixed.states)
    elapsed = time.perf_counter() - t0
    ok = d_mix < d_orb and purity < 0.999
    record("A8 mixture tracking", ok and elapsed < 120,
           f"distance to mixture {d_mix:.4f} < closest orbit {d_orb:.4f}; "
           f"min purity {purity:.4f} < 0.999; {elapsed:.1f}s < 120s")


# --- A9: radial overlap decay, Gaussian closed form and bump tails ---

def gaussian_overlap_oracle(t):
    """int_0^inf r^2 exp(-2 r^2 + i r t) dr via the Faddeeva function."""
    u = t / math.sqrt(2.0)
    base = (0.5 - u * u / 4.0) * (math.sqrt(math.pi) / 2.0) * wofz(u / 2.0) \
        + 0.25j * u
    return 2.0 ** -1.5 * base


def test_a9_overlap_decay():
    t0 = time.perf_counter()
    gauss = lambda r: np.exp(-np.asarray(r, dtype=float) ** 2)
    spec = FieldOverlapSpec(f_prime=gauss, h_prime=gauss, r_max=12.0)
    ts = np.linspace(0.0, 10.0, 41)
    measured = field_overlap_decay(spec, ts)
    oracle = np.array([abs(gaussian_overlap_oracle(t)) ** 2 for t in ts])
    gauss_err = float(np.max(np.abs(measured - oracle)))

    def bump(r):
        r = np.asarray(r, dtype=float)
        u = (r - 3.0) / 2.0
        out = np.zeros_like(r)
        inside = np.abs(u) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
        return out

    bump_spec = FieldOverlapSpec(f_prime=bump, h_prime=bump, r_max=6.0)
    static = field_overlap_decay(bump_spec, [0.0])[0]
    tail = float(np.max(field_overlap_decay(
        bump_spec, np.linspace(50.0, 100.0, 11))))
    elapsed = time.perf_counter() - t0
    ok = gauss_err <= 1e-6 and tail <= 1e-3 * static
    record("A9 overlap decay", ok and elapsed < 10,
           f"gaussian vs closed form {gauss_err:.2e} <= 1e-6; bump tail "
           f"{tail:.2e} <= 1e-3 * {static:.3g}; {elapsed:.1f}s < 10s")


# --- A10: propagator order and unitarity audit through the CLI ---

def test_a10_stepper_audit(tmp_path, capsys):
    t0 = time.perf_counter()
    rc = cli.main(["run", "propagator_quality", "--out", str(tmp_path)])
    capsys.readouterr()
    table = tmp_path / "propagator_quality" / "stepper_audit.csv"
    rows = list(csv.DictReader(io.StringIO(table.read_text())))
    ratios = [float(r["halving_ratio"]) for r in rows]
    defects = [float(r["unitarity_defect"]) for r in rows]
    elapsed = time.perf_counter() - t0
    ok = (rc == 0 and len(rows) == 20
          and all(3.5 <= r <= 4.5 for r in ratios)
          and max(defects) <= 1e-8)
    record("A10 propagator audit", ok and elapsed < 10,
           f"20 draws, halving ratio in [{min(ratios):.3f}, {max(ratios):.3f}] "
           f"within [3.5, 4.5], unitarity defect {max(defects):.2e} <= 1e-8; "
           f"{elapsed:.1f}s < 10s")
