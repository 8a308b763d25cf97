import gc
import math
import weakref

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from scipy import special

from pitmanyor import asymptotics
from pitmanyor.asymptotics import (OCCUPANCY_ROWS, E0_series, E0nEvaluator,
                                   OccupancySums, compute_constants,
                                   karlin_integrals, poisson_g_moments,
                                   precision_limit, sigma0n_root,
                                   stirling_series, tau1_sq, tau2_sq)
from pitmanyor.numerics import g_sigma_values, gdot_sigma_values
from pitmanyor.population import RegularVariation, make_explicit, \
    make_power_law, make_synthetic

GAMMAS = (0.2, 0.35, 0.5, 0.65, 0.8)

# frozen values: tau2 cross-checked against finite differences and Monte
# Carlo, tau1 from the 30-digit reference _mp_karlin_reference below
TAU2_ORACLE = {0.25: 21.77753184, 0.5: 11.13665599, 0.75: 21.47754720}
TAU1_ORACLE = {0.1: 7.27537262978866, 0.5: 3.261851020802206,
               0.9: 49.875775100950015}
ROOT_ORACLE = {  # power law alpha=2
    10 ** 3: 0.51879709, 10 ** 4: 0.50717970, 10 ** 5: 0.50267714,
}


def test_e0_series_vanishes_at_sigma0():
    for gamma in GAMMAS:
        assert abs(E0_series(gamma, gamma)) <= 1e-7


def test_e0_series_sign_change():
    for gamma in (0.3, 0.5, 0.7):
        assert E0_series(gamma - 0.05, gamma) > 0.0
        assert E0_series(gamma + 0.05, gamma) < 0.0


def test_gamma_ratio_sum_identity():
    # gamma int E g_gamma(Poisson lam) lam^{-1-gamma} dlam
    #   = sum_m Gamma(m-gamma)/m! = Gamma(1-gamma)/gamma
    for gamma in GAMMAS:
        target = math.gamma(1.0 - gamma) / gamma
        got = karlin_integrals(gamma, gamma)["iii"]
        assert abs(got / target - 1.0) <= 1e-7


def test_series_engine_matches_closed_forms():
    # the quadrature's rows iii and iv are the Stirling-ratio series
    # sum_{m>=1} Gamma(m+1-g)/(m!(m-s)^p), p = 1, 2, whose closed forms
    # also give E0 = Gamma(1-g)/s - S1 and tau2 = Gamma(1-g)/g^2 + S2(g, g)
    G = special.gamma
    grid = np.linspace(0.05, 0.95, 7)
    for s0 in grid:
        s2 = stirling_series(s0, s0)[1]
        assert tau2_sq(s0) == pytest.approx(
            G(1.0 - s0) / s0 ** 2 + s2, rel=1e-13)
        for s in grid:
            s1, s2 = stirling_series(s0, s)
            rows = karlin_integrals(s0, s)
            assert abs(rows["iii"] / s1 - 1.0) <= 1e-11
            assert abs(rows["iv"] / s2 - 1.0) <= 1e-11
            assert abs(E0_series(s, s0) - (G(1.0 - s0) / s - s1)) \
                <= 1e-13 * G(1.0 - s0) / s
        assert E0_series(s0, s0) == 0.0


def test_tau2_oracle_values():
    for s0, want in TAU2_ORACLE.items():
        assert tau2_sq(s0) == pytest.approx(want, rel=1e-7)


def test_tau2_matches_slope_of_e0():
    h = 1e-4
    for s0 in (0.25, 0.5, 0.75):
        fd = (E0_series(s0 - h, s0) - E0_series(s0 + h, s0)) / (2.0 * h)
        assert abs(fd / tau2_sq(s0) - 1.0) <= 1e-4


def test_tau1_oracle_values():
    for s0, want in TAU1_ORACLE.items():
        value = tau1_sq(s0)
        assert type(value) is float
        assert value == pytest.approx(want, rel=1e-9)


def test_tau1_finite_and_positive_near_both_ends():
    # tau1^2 ~ ln 2/sigma0 as sigma0 -> 0, from its first term
    # (2^sigma0 - 1) Gamma(1 - sigma0)/sigma0^2
    ends = np.geomspace(1e-9, 0.5, 25)
    for s0 in np.concatenate([ends, 1.0 - ends]):
        value = tau1_sq(float(s0))
        assert math.isfinite(value) and value > 0.0, (s0, value)
    gaps = [abs(s0 * tau1_sq(s0) - math.log(2.0))
            for s0 in (1e-3, 1e-5, 1e-7, 1e-9)]
    assert all(b < a / 50.0 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 1e-9


def _mp_karlin_reference(s0):
    """(v, vi, vii, viii, tau1_sq) at gamma = sigma = s0 in 30-digit
    arithmetic, by routes that share nothing with the Poisson kernel:

    - v, viii: the series gamma sum_{m>=2} g(m)^k Gamma(m-gamma)/m!, summed
      directly to m = 99 and by Euler-Maclaurin from m = 100 on;
    - vii: gamma sum_m g(m) Gamma(m-gamma)/(m! 2^{m-gamma}), which converges
      geometrically;
    - vi: Mellin-Parseval, (gamma/pi) int_0^inf |F(-gamma/2 + iy)|^2 dy, with
      F(z) = -Gamma(1+z)/z [Gamma(-s) Gamma(-z)/Gamma(-z-s) + 1/s] the Mellin
      transform of E g(Poisson lam) in lam;
    - tau1^2 = (2^s - 1) Gamma(1-s)/s^2 + v - vi - 2 vii/s.
    """
    with mp.workdps(30):
        s = mp.mpf(s0)
        psi1 = mp.digamma(1 - s)

        def g(m):
            return mp.digamma(m - s) - psi1

        def w(m):  # s Gamma(m - s)/m!, with the digits that the log-gamma
            # difference cancels at large m
            with mp.extradps(int(mp.log10(m * mp.log(m + 1) + 1)) + 5):
                return s * mp.exp(mp.loggamma(m - s) - mp.loggamma(m + 1))

        def series(k, cut=100):
            def f(m):
                return w(m) * g(m) ** k
            head = mp.fsum(f(m) for m in range(2, cut))
            tail = mp.quad(lambda t: f(mp.exp(t)) * mp.exp(t),
                           [mp.log(cut), 10, 30, 100, 300, 800])
            corr = f(cut) / 2 - mp.fsum(
                mp.bernoulli(2 * j) / mp.factorial(2 * j)
                * mp.diff(f, cut, 2 * j - 1) for j in range(1, 6))
            return head + tail + corr

        def mellin(z):
            return -mp.gamma(1 + z) / z * (
                mp.gamma(-s) * mp.gamma(-z) * mp.rgamma(-z - s) + 1 / s)

        v, viii = series(2), series(3)
        vii = mp.fsum(w(m) * g(m) * mp.mpf(2) ** (s - m)
                      for m in range(2, 400))
        vi = s / mp.pi * mp.quad(lambda y: abs(mellin(-s / 2 + 1j * y)) ** 2,
                                 [0, s / 4, s, 1, 4, mp.inf])
        tau1 = (2 ** s - 1) * mp.gamma(1 - s) / s ** 2 + v - vi - 2 * vii / s
        return [float(x) for x in (v, vi, vii, viii, tau1)]


@pytest.mark.slow
@pytest.mark.parametrize("s0", [0.1, 0.5, 0.9])
def test_karlin_integrals_and_tau1_against_mpmath(s0):
    rows = karlin_integrals(s0, s0)
    got = [rows["v"], rows["vi"], rows["vii"], rows["viii"], tau1_sq(s0)]
    want = _mp_karlin_reference(s0)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)
    assert want[-1] == pytest.approx(TAU1_ORACLE[s0], rel=1e-14)


def _mp_poisson_g_moments(lam, sigma):
    """E g^p (p = 1, 2, 3) and E gdot under Poisson(lam) in 30-digit
    arithmetic: the pmf starts from its logarithm at the window's first
    count and g, gdot from digamma and trigamma there."""
    with mp.workdps(30):
        L, s = mp.mpf(lam), mp.mpf(sigma)
        width = 9.0 * math.sqrt(lam) + 40.0
        first, last = max(0, int(lam - width)), int(lam + width + 20.0)
        pmf = mp.exp(first * mp.log(L) - L - mp.loggamma(first + 1))
        g = gdot = mp.mpf(0)
        if first >= 2:
            g = mp.digamma(first - s) - mp.digamma(1 - s)
            gdot = mp.psi(1, 1 - s) - mp.psi(1, first - s)
        acc = [mp.mpf(0)] * 4
        for m in range(first, last + 1):
            if m > first:
                pmf = pmf * L / m
                if m >= 2:
                    g += 1 / (m - 1 - s)
                    gdot += 1 / (m - 1 - s) ** 2
            acc = [acc[0] + pmf * g, acc[1] + pmf * g ** 2,
                   acc[2] + pmf * g ** 3, acc[3] + pmf * gdot]
        return np.array([float(a) for a in acc])


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(log10_lam=hst.floats(-13.0, 7.0), sigma=hst.floats(0.05, 0.95))
@example(log10_lam=-13.0, sigma=0.05)  # the Karlin rule's left end
@example(log10_lam=7.0, sigma=0.95)
@example(log10_lam=math.log10(30.0), sigma=0.5)  # last window of 108 counts
@example(log10_lam=math.log10(31.0), sigma=0.5)  # first of 128
@example(log10_lam=math.log10(165.0), sigma=0.5)  # last from count 0
@example(log10_lam=math.log10(166.0), sigma=0.5)  # first past count 0
def test_poisson_g_moments_against_mpmath(log10_lam, sigma):
    lam = 10.0 ** log10_lam
    got = poisson_g_moments(np.array([lam]), sigma)[:, 0]
    want = _mp_poisson_g_moments(lam, sigma)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_poisson_g_moments_columns_do_not_depend_on_the_call(monkeypatch):
    # one unsorted call over several window widths, with windows from count
    # 0 and past it (lam >= 166) in one width class, and batches of at most
    # 64 cells, so that atoms of one width are split across batches: every
    # column equals its one-atom call bit for bit
    monkeypatch.setattr(asymptotics, "_BATCH", 64)
    lam = np.random.default_rng(3).permutation(np.concatenate((
        np.geomspace(1e-13, 1e5, 37), [0.0, 165.0, 166.0, 170.0, 0.5, 0.5])))
    together = poisson_g_moments(lam, 0.3)
    for i, l in enumerate(lam):
        np.testing.assert_array_equal(
            together[:, i], poisson_g_moments(np.array([l]), 0.3)[:, 0])
    assert poisson_g_moments(np.array([]), 0.3).shape == (4, 0)


def _reference_rows(pop, n, sigma, lam_min):
    """The eight OccupancySums rows atom by atom down to n p_j >= lam_min,
    plus the atoms past them to third order in lam, through the tail power
    sums t_k = n^k sum p_j^k: with X ~ Poisson(lam), P(X = 2) =
    lam^2/2 - lam^3/2 + O(lam^4) and P(X = 3) = lam^3/6 + O(lam^4)."""
    rows = np.zeros(8)
    head = pop.alpha0(n / lam_min)
    for start in range(0, head, 1 << 20):
        lam = n * pop.atom_probs_range(start, min(head, start + (1 << 20)))
        eg, eg2, eg3, egdot = poisson_g_moments(lam, sigma)
        decay, occupied = np.exp(-lam), -np.expm1(-lam)
        rows += np.stack([occupied, decay * occupied, eg, egdot, eg2,
                          eg * eg, decay * eg, eg3]).sum(axis=1)
    g2, g3 = g_sigma_values(np.array([2, 3]), sigma)
    d2, d3 = gdot_sigma_values(np.array([2, 3]), sigma)
    coef = np.array([  # of t1, t2, t3 in each row
        [1.0, -1.0 / 2, 1.0 / 6], [1.0, -3.0 / 2, 7.0 / 6],
        [0.0, g2 / 2, (g3 - 3.0 * g2) / 6], [0.0, d2 / 2, (d3 - 3.0 * d2) / 6],
        [0.0, g2 ** 2 / 2, (g3 ** 2 - 3.0 * g2 ** 2) / 6], [0.0, 0.0, 0.0],
        [0.0, g2 / 2, (g3 - 6.0 * g2) / 6],
        [0.0, g2 ** 3 / 2, (g3 ** 3 - 3.0 * g2 ** 3) / 6]])
    return rows + coef @ [n ** k * pop.tail_power_sum(head, k)
                          for k in (1, 2, 3)]


@pytest.mark.parametrize("pop,n_grid,lam_min", [
    (make_power_law(1.5), (10 ** 3, 10 ** 6), 1e-4),
    (make_power_law(2.0), (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6), 1e-4),
    (make_power_law(3.0), (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6), 1e-4),
    (make_synthetic(0.5, 1.0), (10 ** 2, 10 ** 4), 1e-7),
    (make_synthetic(0.5, -1.0), (10 ** 2, 10 ** 3, 10 ** 4), 1e-7),
])
def test_occupancy_band_matches_atom_sums(pop, n_grid, lam_min):
    # the head, the linear tail and the Euler-Maclaurin band against every
    # atom down to lam_min plus a third-order tail, whose own error is
    # O(lam_min^(4 - sigma0)) relative
    for n, sigma in zip(n_grid, (0.2, 0.5, 0.8, 0.95)):
        sums = OccupancySums(pop, n)(sigma)
        want = _reference_rows(pop, n, sigma, lam_min)
        got = np.array([sums[k] for k in OCCUPANCY_ROWS])
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


def test_occupancy_sums_of_an_explicit_population_are_atom_sums():
    pop = make_explicit([0.5, 0.3, 0.15, 0.05])
    sums = OccupancySums(pop, 40)(0.4)
    lam = 40.0 * pop.probs
    eg = poisson_g_moments(lam, 0.4)[0]
    assert sums["i"] == pytest.approx(float(np.sum(-np.expm1(-lam))),
                                      rel=1e-15)
    assert sums["vii"] == pytest.approx(float(np.sum(np.exp(-lam) * eg)),
                                        rel=1e-15)


def test_tau1_positive():
    for s0 in (0.1, 0.3, 0.5, 0.7, 0.9):
        assert tau1_sq(s0) > 0.0


def test_e0n_strictly_decreasing():
    pop = make_power_law(2.0)
    sig = np.linspace(0.05, 0.95, 10)
    ev = E0nEvaluator(pop, 1000)
    vals = [ev.value(float(s)) for s in sig]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_e0n_derivative_matches_fd():
    pop = make_power_law(2.0)
    h = 1e-5
    for sigma in (0.3, 0.5, 0.7):
        ev = E0nEvaluator(pop, 10 ** 4)
        fd = (ev.value(sigma + h) - ev.value(sigma - h)) / (2.0 * h)
        der = ev.value_and_derivative(sigma)[1]
        assert abs(der / fd - 1.0) <= 1e-5


def test_sigma0n_root_keeps_no_reference_to_its_population():
    pop = make_explicit([0.5, 0.3, 0.2])
    ref = weakref.ref(pop)
    sigma0n_root(pop, 10)
    E0nEvaluator(pop, 10).value(0.5)
    del pop
    gc.collect()
    assert ref() is None


def test_root_oracle_values():
    pop = make_power_law(2.0)
    for n, want in ROOT_ORACLE.items():
        assert sigma0n_root(pop, n) == pytest.approx(want, abs=2e-7)


def test_root_contract():
    pop = make_power_law(2.0)
    for n in (10 ** 3, 10 ** 5):
        root = sigma0n_root(pop, n)
        assert abs(E0nEvaluator(pop, n).value(root)) \
            <= pop.alpha0(n) * 1e-8


def test_root_in_sanity_window():
    pop = make_power_law(2.0)
    root = sigma0n_root(pop, 10 ** 4)
    half_width = 5.0 * 10.0 / math.sqrt(10 ** 4)
    assert 0.5 - half_width < root < 0.5 + half_width


def test_root_sequence_converges():
    pop = make_power_law(2.0)
    gaps = [abs(sigma0n_root(pop, 2 * n) - sigma0n_root(pop, n))
            for n in (10 ** 3, 10 ** 4, 10 ** 5)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_scaled_convergence_to_e0_series():
    # E0n/alpha0 approaches E0_series monotonically, within 2% at n = 1e5
    pop = make_power_law(2.0)
    sigma = 0.3
    target = E0_series(sigma, 0.5)
    errs = [abs(E0nEvaluator(pop, n).value(sigma) / pop.alpha0(n) - target)
            for n in (10 ** 3, 10 ** 4, 10 ** 5)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 0.02 * abs(target)


def test_precision_limit_symbolic():
    M_max = 7.0
    up = make_synthetic(0.5, 1.0).rv
    down = make_synthetic(0.5, -1.0).rv
    assert precision_limit(0.5, up, M_max) == (math.inf, M_max)
    assert precision_limit(0.5, down, M_max) == (-math.inf, 0.0)


def _precision_objective(M, sigma0, K0):
    """f(M) = (M/sigma0)(K0 + ln Gamma(1-sigma0)) + ln Gamma(1+M)
    - ln Gamma(1+M/sigma0), which M0 maximizes."""
    return (M / sigma0) * (K0 + math.lgamma(1.0 - sigma0)) \
        + math.lgamma(1.0 + M) - math.lgamma(1.0 + M / sigma0)


def _precision_slope(M, sigma0, K0):
    """f'(M), by mpmath."""
    return float((K0 + mp.loggamma(1 - mp.mpf(sigma0))) / sigma0
                 + mp.digamma(1 + mp.mpf(M))
                 - mp.digamma(1 + mp.mpf(M) / sigma0) / sigma0)


def test_precision_limit_constant_l0_grid_scan():
    M_max = 10.0
    for L0_const in (0.05, 1.0, 20.0):
        rv = RegularVariation(sigma0=0.5, L0_const=L0_const)
        K0, M0 = precision_limit(0.5, rv, M_max)
        assert K0 == pytest.approx(math.log(L0_const))
        grid = np.linspace(0.0, M_max, 10 ** 4)
        vals = [_precision_objective(float(M), 0.5, K0) for M in grid]
        M_scan = float(grid[int(np.argmax(vals))])
        assert abs(M0 - M_scan) <= 2.0 * M_max / 10 ** 4 + 1e-6


def test_precision_limit_interior_root_has_zero_slope():
    M_max = 50.0
    interior = 0
    for sigma0 in (0.1, 0.3, 0.5, 0.7, 0.9):
        for L0_const in (0.05, 1.0, 30.0):
            rv = RegularVariation(sigma0=sigma0, L0_const=L0_const)
            K0, M0 = precision_limit(sigma0, rv, M_max)
            if M0 == 0.0:
                assert _precision_slope(0.0, sigma0, K0) <= 0.0
            elif M0 == M_max:
                assert _precision_slope(M_max, sigma0, K0) >= 0.0
            else:
                interior += 1
                assert abs(_precision_slope(M0, sigma0, K0)) <= 1e-10
    assert interior >= 5


def test_scalar_solves_raise_without_convergence(monkeypatch):
    monkeypatch.setattr(asymptotics, "_ROOT_MAX_ITER", 1)
    with pytest.raises(RuntimeError):
        sigma0n_root(make_power_law(2.0), 10 ** 3)
    with pytest.raises(RuntimeError):
        precision_limit(0.5, RegularVariation(sigma0=0.5, L0_const=1.0), 50.0)


def test_sigma0n_root_validation():
    pop = make_power_law(2.0)
    with pytest.raises(ValueError):
        sigma0n_root(pop, 1)


def test_compute_constants_bundle():
    pop = make_power_law(2.0)
    c = compute_constants(pop, 10 ** 4, M_max=5.0)
    assert c.sigma0 == pytest.approx(0.5)
    assert c.sigma0n == pytest.approx(ROOT_ORACLE[10 ** 4], abs=1e-6)
    assert c.alpha_n == pop.alpha0(10 ** 4)
    assert c.sandwich_var() == pytest.approx(
        TAU1_ORACLE[0.5] / TAU2_ORACLE[0.5] ** 2, rel=1e-4)
    assert c.sandwich_var() == pytest.approx(0.02630, abs=2e-5)
    d = c.to_dict()
    assert set(d) >= {"sigma0", "sigma0n", "tau1_sq", "tau2_sq", "K0", "M0"}


def test_domain_errors():
    with pytest.raises(ValueError):
        E0_series(0.5, 1.5)
    with pytest.raises(ValueError):
        tau2_sq(0.0)
    with pytest.raises(ValueError):
        tau1_sq(1.0)
    with pytest.raises(ValueError):
        karlin_integrals(0.0, 0.5)
    with pytest.raises(ValueError):
        stirling_series(0.5, 1.0)
