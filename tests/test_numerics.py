import math
import pickle

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst
from scipy import special

from pitmanyor.likelihood import SIGMA_EPS
from pitmanyor.numerics import (H, IntegrationError, SizeSums,
                                adaptive_integrate, digamma, g_sigma_values,
                                gdot_sigma_values, hurwitz_zeta,
                                log_ascending_factorial, log_gamma,
                                log_sum_exp, newton_root, normal_cdf, rgamma,
                                trigamma)


def _g_direct(m, sigma):
    """Reference g_sigma(m) = sum_{l=1}^{m-1} 1/(l - sigma) by direct sum."""
    return math.fsum(1.0 / (l - sigma) for l in range(1, m))


def test_log_gamma_matches_lgamma():
    xs = np.geomspace(1e-6, 1e12, 200)
    for x in xs:
        ref = math.lgamma(x)
        scale = max(abs(ref), 1.0)
        assert abs(log_gamma(float(x)) - ref) <= 1e-13 * scale


def test_log_gamma_known_values():
    assert log_gamma(1.0) == 0.0
    assert log_gamma(2.0) == 0.0
    assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-14


def test_log_gamma_domain():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-1.5)


def test_log_ascending_factorial_against_product():
    for a in [0.1, 0.5, 1.0, 2.5, 10.0]:
        for n in [0, 1, 2, 7, 33, 100]:
            direct = float(np.sum(np.log(a + np.arange(n)))) if n else 0.0
            got = log_ascending_factorial(a, n)
            assert abs(got - direct) <= 1e-12 * max(abs(direct), 1.0)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(log10_a=hst.floats(-3.0, 12.0), n=hst.integers(0, 3000))
def test_log_ascending_factorial_against_fsum(log10_a, n):
    a = 10.0 ** log10_a
    ref = math.fsum(math.log(a + l) for l in range(n))
    got = log_ascending_factorial(a, n)
    assert abs(got - ref) <= 1e-12 * max(abs(ref), 1.0)


def test_log_ascending_factorial_broadcasts():
    a = np.array([0.5, 999.0, 1e3, 5e10])
    n = np.array([[0], [1], [9999]])
    got = log_ascending_factorial(a, n)
    assert got.shape == (3, 4)
    for i, j in np.ndindex(got.shape):
        assert got[i, j] == log_ascending_factorial(float(a[j]), int(n[i, 0]))
    with pytest.raises(ValueError):
        log_ascending_factorial(np.array([1.0, 0.0]), 2)


def test_log_ascending_factorial_examples():
    assert log_ascending_factorial(1.0, 3) == pytest.approx(math.log(6.0))
    assert log_ascending_factorial(2.0, 0) == 0.0
    assert log_ascending_factorial(3.0, 1) == pytest.approx(math.log(3.0))


def test_g_sigma_base_cases():
    g = g_sigma_values(np.array([0, 1, 2]), 0.5)
    assert g.tolist() == [0.0, 0.0, pytest.approx(2.0)]
    assert g_sigma_values(np.array([3]), 0.25)[0] == pytest.approx(
        1.0 / 0.75 + 1.0 / 1.75)


def test_g_sigma_increment_identity():
    # g(m+1) - g(m) = 1/(m - sigma) exactly
    m = np.array(list(range(1, 50)) + [4095, 4096, 10000])
    for sigma in (0.2, 0.5, 0.8):
        diff = g_sigma_values(m + 1, sigma) - g_sigma_values(m, sigma)
        np.testing.assert_allclose(diff, 1.0 / (m - sigma), rtol=1e-10)


def test_g_sigma_values_matches_scalar():
    m = np.array([0, 1, 2, 3, 17, 4096, 100000])
    for sigma in (0.25, 0.6):
        vec = g_sigma_values(m, sigma)
        for mi, vi in zip(m, vec):
            assert vi == pytest.approx(_g_direct(int(mi), sigma), rel=1e-11)


def test_log_sum_exp():
    v = np.array([0.0, math.log(2.0), math.log(3.0)])
    assert log_sum_exp(v) == pytest.approx(math.log(6.0), rel=1e-14)
    assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(
        1000.0 + math.log(2.0))
    assert log_sum_exp([-np.inf, -np.inf]) == -np.inf
    with pytest.raises(ValueError):
        log_sum_exp([])


def _decreasing(kind, root):
    """(f, f') of c - x^3 or c - log x, whose zero is root."""
    if kind == "cube":
        c = root ** 3
        return lambda x: (c - x ** 3, -3.0 * x * x)
    c = math.log(root)
    return lambda x: (c - math.log(x), -1.0 / x)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(kind=hst.sampled_from(["cube", "log"]), root=hst.floats(0.05, 20.0),
       lo_frac=hst.floats(0.01, 0.999), hi_frac=hst.floats(1.001, 100.0))
@example(kind="cube", root=1.0, lo_frac=0.999, hi_frac=100.0)
@example(kind="log", root=20.0, lo_frac=0.01, hi_frac=1.001)
def test_newton_root_finds_known_roots(kind, root, lo_frac, hi_frac):
    f = _decreasing(kind, root)
    lo, hi = root * lo_frac, root * hi_frac
    tol = 1e-10
    x, iterations, converged = newton_root(f, lo, hi, tol, 100)
    assert converged
    assert 1 <= iterations <= 100
    assert lo < x < hi
    assert abs(x - root) <= tol
    # one step from the midpoint cannot converge when the root is far from it
    assume(abs(0.5 * (lo + hi) - root) > 1e-3)
    x, iterations, converged = newton_root(f, lo, hi, tol, 1)
    assert (iterations, converged) == (1, False)


@pytest.mark.parametrize("root,iterations", [(0.5, 1), (0.25, 2)])
def test_newton_root_stops_on_an_exact_zero(root, iterations):
    # the first iterate is the midpoint 0.5; the Newton step from it lands
    # on 0.25 exactly
    def f(x):
        return root - x, -1.0

    assert newton_root(f, 0.0, 1.0, 1e-12, 100) == (root, iterations, True)


def test_adaptive_integrate_smooth():
    val = adaptive_integrate(np.exp, 0.0, 1.0)
    assert val == pytest.approx(math.e - 1.0, rel=1e-12)


def test_adaptive_integrate_failure_carries_estimate():
    # an oscillatory integrand the panel budget cannot resolve
    with pytest.raises(IntegrationError) as info:
        adaptive_integrate(lambda s: np.sin(1e7 * s), 0.0, 1.0,
                           rel_tol=1e-14, max_panels=8)
    assert math.isfinite(info.value.estimate)
    assert info.value.error_bound > 0.0


def test_integration_error_pickles():
    # a pool worker's exception crosses to the parent by pickle
    err = pickle.loads(pickle.dumps(IntegrationError("m", 1.0, 2.0)))
    assert (type(err), str(err), err.estimate, err.error_bound) \
        == (IntegrationError, "m", 1.0, 2.0)


def test_adaptive_integrate_domain():
    with pytest.raises(ValueError):
        adaptive_integrate(math.exp, 1.0, 1.0)


# ---------------------------------------------------------------------------
# the special functions against scipy.special (the reference) and mpmath

_KERNEL = settings(derandomize=True, deadline=None, database=None,
                   max_examples=200)
_RTOL = 1e-13


def _close(got, ref, rtol=_RTOL):
    """|got - ref| <= rtol max(1, |ref|), elementwise."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return bool(np.all(np.abs(got - ref)
                       <= rtol * np.maximum(1.0, np.abs(ref))))


def _off_poles(x):
    return abs(x - round(x)) > 1e-3 or x > 0.5


_REAL = hst.floats(-15.0, 1e6).filter(_off_poles)
_POSITIVE = hst.floats(1e-9, 1e12)


@_KERNEL
@given(x=_REAL)
@example(x=1e-9)
@example(x=H - 1e-12)
@example(x=-0.5)
def test_digamma_trigamma_match_scipy(x):
    assert _close(digamma(x), special.digamma(x))
    assert _close(trigamma(x), special.polygamma(1, x))


@_KERNEL
@given(x=hst.floats(-30.0, 171.0).filter(_off_poles))
def test_rgamma_matches_scipy(x):
    assert _close(rgamma(x), special.rgamma(x))


@_KERNEL
@given(x=hst.lists(_POSITIVE, min_size=1, max_size=40))
@example(x=[1.0, 2.0, H - 1e-9, H, 1e-9])
def test_log_gamma_array_matches_scipy(x):
    assert _close(log_gamma(np.array(x)), special.gammaln(x))


@_KERNEL
@given(a=hst.lists(hst.floats(1e-6, 1e9), min_size=1, max_size=20),
       n=hst.floats(0.0, 1e7))
def test_log_ascending_factorial_matches_scipy(a, n):
    a = np.array(a)
    ref = special.gammaln(a + n) - special.gammaln(a)
    # the reference difference loses digits to the size of its terms
    scale = np.maximum(1.0, np.abs(special.gammaln(a + n)))
    assert np.all(np.abs(log_ascending_factorial(a, n) - ref) <= _RTOL * scale)


@_KERNEL
@given(s=hst.floats(1.01, 17.0),
       q=hst.lists(hst.floats(1e-3, 2.0 ** 40), min_size=1, max_size=20))
@example(s=1.1, q=[1.0, H, 2.0 ** 22, 2.0 ** 40])
def test_hurwitz_zeta_matches_scipy(s, q):
    ref = special.zeta(s, q)
    assert np.all(np.abs(hurwitz_zeta(s, np.array(q)) / ref - 1.0) <= _RTOL)
    assert all(abs(hurwitz_zeta(s, qi) / r - 1.0) <= _RTOL
               for qi, r in zip(q, ref.tolist()))


@pytest.mark.parametrize("s,q", [(1.1, 1.0), (2.0, 1.0), (1.05, 0.5),
                                 (17.0, H - 1e-9), (3.5, 2.0 ** 22),
                                 (1.1, 2.0 ** 40)])
def test_hurwitz_zeta_scalars_take_the_array_path(s, q):
    # a float pair, 0-d arrays and n-d arrays give the bits of the
    # one-element array call; a scalar comes back as a float
    one = float(hurwitz_zeta(np.array([s]), np.array([q]))[0])
    pair = hurwitz_zeta(s, q)
    assert type(pair) is float and pair == one
    assert hurwitz_zeta(np.array(s), np.array(q)) == one
    assert hurwitz_zeta(np.float64(s), np.array(q)) == one
    grid = hurwitz_zeta(np.full((2, 3), s), np.full((2, 3), q))
    assert np.array_equal(grid, np.full((2, 3), one))


@pytest.mark.parametrize("x", [1e-9, 0.5, 1.0, 2.0, 3.0, H - 1e-9, float(H),
                               1e3, 1e12])
def test_log_gamma_scalars_take_the_array_path(x):
    one = float(log_gamma(np.array([x]))[0])
    assert type(log_gamma(x)) is float and log_gamma(x) == one
    assert log_gamma(np.array(x)) == one
    assert np.array_equal(log_gamma(np.full((2, 3), x)), np.full((2, 3), one))


@_KERNEL
@given(z=hst.lists(hst.floats(-37.0, 9.0), min_size=1, max_size=50))
def test_normal_cdf_matches_scipy(z):
    ref = special.ndtr(z)
    assert np.all(np.abs(normal_cdf(np.array(z)) - ref) <= _RTOL * ref)
    assert normal_cdf(z[0]) == normal_cdf(np.array(z))[0]


@_KERNEL
@given(m=hst.lists(hst.integers(0, 10 ** 7), min_size=1, max_size=30),
       sigma=hst.floats(SIGMA_EPS, 1.0 - SIGMA_EPS))
def test_g_sigma_kernels_match_scipy(m, sigma):
    m = np.array(m)
    ref_g = np.where(m >= 2, special.digamma(m - sigma)
                     - special.digamma(1.0 - sigma), 0.0)
    ref_gdot = np.where(m >= 2, special.polygamma(1, 1.0 - sigma)
                        - special.polygamma(1, m - sigma), 0.0)
    assert _close(g_sigma_values(m, sigma), ref_g)
    assert _close(gdot_sigma_values(m, sigma), ref_gdot)


def _mp_close(got, ref, rtol=_RTOL):
    return abs(got - float(ref)) <= rtol * max(1.0, abs(float(ref)))


@pytest.mark.parametrize("sigma", [1e-9, 1e-3, 0.3, 0.5, 0.9,
                                   1.0 - 1e-6, 1.0 - SIGMA_EPS])
def test_kernels_at_hard_points_match_mpmath(sigma):
    mpmath.mp.dps = 40
    s = mpmath.mpf(sigma)
    # psi at -sigma: scipy's reflection formula loses digits near -1
    assert _mp_close(digamma(-sigma), mpmath.digamma(-s))
    # arguments near 0+: 1 - sigma with sigma near 1 - SIGMA_EPS
    x = 1.0 - sigma
    xm = mpmath.mpf(x)
    assert _mp_close(digamma(x), mpmath.digamma(xm))
    assert _mp_close(trigamma(x), mpmath.psi(1, xm))
    assert _mp_close(log_gamma(x), mpmath.loggamma(xm))
    assert _mp_close(float(log_gamma(np.array([x]))[0]), mpmath.loggamma(xm))
    assert _mp_close(rgamma(x), mpmath.rgamma(xm))
    assert _mp_close(log_ascending_factorial(x, 1e6),
                     mpmath.loggamma(xm + 10 ** 6) - mpmath.loggamma(xm))


def test_rgamma_is_zero_at_the_poles():
    assert rgamma(0.0) == 0.0
    assert rgamma(-3.0) == 0.0
    assert rgamma(200.0) == 0.0  # Gamma overflows


@pytest.mark.parametrize("q", [1.0, 2.5, float(H), 1e3, 2.0 ** 22, 2.0 ** 30,
                               2.0 ** 40])
def test_hurwitz_zeta_matches_mpmath(q):
    mpmath.mp.dps = 40
    ref = mpmath.zeta(mpmath.mpf(1.1), mpmath.mpf(q))
    assert _mp_close(hurwitz_zeta(1.1, q), ref)
    assert _mp_close(float(hurwitz_zeta(1.1, np.array([q]))[0]), ref)


def _size_sums_direct(sizes, counts, sigma):
    """(sum ln(l - sigma), sum 1/(l - sigma), sum 1/(l - sigma)^2) over
    l < s for every block, and the sum of |ln(l - sigma)|, by fsum."""
    terms = [(int(c), np.arange(1, int(s)) - sigma)
             for s, c in zip(sizes, counts)]
    lr = math.fsum(c * math.fsum(np.log(d)) for c, d in terms)
    lr_abs = math.fsum(c * math.fsum(np.abs(np.log(d))) for c, d in terms)
    g = math.fsum(c * math.fsum(1.0 / d) for c, d in terms)
    gdot = math.fsum(c * math.fsum(1.0 / (d * d)) for c, d in terms)
    return lr, lr_abs, g, gdot


@_KERNEL
@given(hist=hst.dictionaries(hst.integers(1, 5000), hst.integers(1, 50),
                             min_size=1, max_size=40),
       sigma=hst.floats(SIGMA_EPS, 1.0 - SIGMA_EPS))
@example(hist={1: 3}, sigma=0.5)
@example(hist={H: 2, H + 1: 1}, sigma=1.0 - SIGMA_EPS)
@example(hist={2: 1, 5000: 1}, sigma=SIGMA_EPS)
def test_size_sums_match_direct_sums(hist, sigma):
    sizes = np.array(sorted(hist))
    counts = np.array([hist[s] for s in sizes])
    lr, lr_abs, g, gdot = _size_sums_direct(sizes, counts, sigma)
    ss = SizeSums(sizes, counts)
    assert abs(ss.log_rising(np.array([sigma]))[0] - lr) <= 1e-12 * (1 + lr_abs)
    assert abs(ss.g(sigma) - g) <= 1e-12 * (1.0 + g)
    assert abs(ss.gdot(sigma) - gdot) <= 1e-12 * (1.0 + gdot)
