"""Shared numerical kernels on numpy and `math`: the special functions,
g_sigma, quadrature, and `newton_root`, the one scalar root finder (score
root, M_hat, sigma0n, M0).

Special functions.  `rgamma` and `normal_cdf` rest on `math` (gamma, erf,
erfc).  The rest shift the argument by recurrence
to x >= H and then sum an asymptotic series in 1/x (Abramowitz & Stegun
6.1.41 for ln Gamma, 6.3.18 for psi, 6.4.12 for psi') or Euler-Maclaurin for
the Hurwitz zeta function (the scheme of Cephes `zeta.c`):

- `log_gamma`: ln Gamma, elementwise;
- `log_ascending_factorial`: ln a^[n], one Stirling difference after a is
  shifted to a >= H;
- `digamma`, `trigamma`, `rgamma`: psi, psi' and 1/Gamma of a scalar;
- `hurwitz_zeta`: zeta(s, q), elementwise;
- `normal_cdf`: the standard normal distribution function, elementwise;
- `g_sigma_values`, `gdot_sigma_values`: g_sigma(m) = sum_{l<m} 1/(l - sigma)
  and its sigma-derivative over integer arrays: a running sum up to H, the
  psi or psi' series above;
- `SizeSums`: the likelihood's sums of ln(l - sigma), 1/(l - sigma) and
  1/(l - sigma)^2 over a block-size histogram.

Quadrature.  The package's one rule is the 16-point Gauss-Legendre rule
(`GL16_NODES`, `GL16_WEIGHTS`) on equal panels (`gl_panels`);
`adaptive_integrate` doubles the panels until two estimates agree.

Everything in this module is a pure function of its arguments and safe to call
from multiple threads.
"""

from __future__ import annotations

import math

import numpy as np


class IntegrationError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Carries the best available estimate and its error bound.
    """

    def __init__(self, message, estimate, error_bound):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound

    def __reduce__(self):  # a pool worker's error must unpickle in the parent
        return type(self), (self.args[0], self.estimate, self.error_bound)


H = 16  # arguments below H are shifted up by recurrence before a series
_J0 = np.arange(float(H))  # 0..H-1
_J = _J0[1:]  # the offsets 1..H-1 of a shift, the l < H of a running sum
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# B_2k, k = 1..7, and the coefficients they give the asymptotic series of
# psi' (A&S 6.4.12), psi (6.3.18) and ln Gamma (6.1.41): at x >= H - 1 the
# first term left out is below 1e-19
_B2K = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
        -691.0 / 2730.0, 7.0 / 6.0)
_PSI_SERIES = tuple(b / (2 * k) for k, b in enumerate(_B2K, 1))
_LGAMMA_SERIES = tuple(b / (2 * k * (2 * k - 1)) for k, b in enumerate(_B2K, 1))


def _poly(coefs, t):
    """sum_k coefs[k] t^k by Horner's rule (float or array t)."""
    out = coefs[-1]
    for c in coefs[-2::-1]:
        out = out * t + c
    return out


def _stirling_tail(x):
    """ln Gamma(x) - [(x - 1/2) ln x - x + ln(2 pi)/2] for x >= H - 1."""
    r = 1.0 / x
    return r * _poly(_LGAMMA_SERIES, r * r)


def _psi_series(x, log=np.log):
    """psi(x) for x >= H - 1."""
    r = 1.0 / x
    r2 = r * r
    return log(x) - 0.5 * r - r2 * _poly(_PSI_SERIES, r2)


def _trigamma_series(x):
    """psi'(x) for x >= H - 1."""
    r = 1.0 / x
    r2 = r * r
    return r + 0.5 * r2 + r * r2 * _poly(_B2K, r2)


def _check_pole(x, name):
    if x <= 0.0 and x == math.floor(x):
        raise ValueError(f"{name} has poles at the nonpositive integers")


def digamma(x):
    """psi(x) of a real scalar off the poles 0, -1, -2, ...: the recurrence
    psi(x) = psi(x + 1) - 1/x up to x >= H, then the series."""
    x = float(x)
    _check_pole(x, "digamma")
    shift = 0.0
    while x < H:
        shift += 1.0 / x
        x += 1.0
    return _psi_series(x, math.log) - shift


def trigamma(x):
    """psi'(x) of a real scalar off the poles: psi'(x) = psi'(x + 1) + 1/x^2
    up to x >= H, then the series."""
    x = float(x)
    _check_pole(x, "trigamma")
    shift = 0.0
    while x < H:
        shift += 1.0 / (x * x)
        x += 1.0
    return _trigamma_series(x) + shift


def rgamma(x):
    """1/Gamma(x) of a real scalar: 0 at the poles 0, -1, -2, ... and past
    the overflow of Gamma."""
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    try:
        return 1.0 / math.gamma(x)
    except OverflowError:
        return 0.0


def log_gamma(x):
    """ln Gamma(x) for x > 0, elementwise (a scalar gives a float): the
    Stirling series, after an x below H is shifted to x + H by
    ln Gamma(x) = ln Gamma(x + H) - ln x(x+1)...(x+H-1); exactly 0 at 1
    and 2."""
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x <= 0):
        raise ValueError("log_gamma requires x > 0")
    low = x < H
    b = np.where(low, x + H, x)
    out = (b - 0.5) * np.log(b) - b + _HALF_LOG_2PI + _stirling_tail(b)
    if np.any(low):
        xl = x[low]
        out[low] -= np.log(xl) + np.log(np.prod(xl[:, None] + _J, axis=1))
    out[(x == 1.0) | (x == 2.0)] = 0.0
    return float(out[0]) if scalar else out


def log_ascending_factorial(a, n):
    """ln a^[n] = ln a(a+1)...(a+n-1), with a^[0] = 1 (broadcasts; real n >= 0).

    One Stirling difference, whose large terms are subtracted analytically:
    ln Gamma(b + n) - ln Gamma(b) = (b - 1/2) log1p(n/b) + n (ln(b + n) - 1)
    + c(b + n) - c(b), c the series of `_stirling_tail`, so no digits are lost
    at a >> n.  b = a for a >= H; a smaller a is shifted to b = a + H by
    a^[n] = (a + H)^[n] prod_{j<H} (a + j)/(a + n + j).
    """
    a = np.asarray(a, dtype=float)
    n = np.asarray(n, dtype=float)
    if (a <= 0).any():
        raise ValueError("log_ascending_factorial requires a > 0")
    if (n < 0).any():
        raise ValueError("n must be nonnegative")
    a, n = np.broadcast_arrays(a, n)
    shape = a.shape
    a, n = a.ravel(), n.ravel()
    low = a < H
    b = np.where(low, a + H, a)
    tails = _stirling_tail(np.concatenate((b + n, b)))  # c(b + n), c(b)
    out = ((b - 0.5) * np.log1p(n / b) + n * (np.log(b + n) - 1.0)
           + (tails[:b.size] - tails[b.size:]))
    if low.any():
        # the factor j = 0 by log1p, the others as two products over j
        # (finite for n < 1e20)
        al, nl = a[low], n[low]
        num = np.prod(_J[:, None] + al, axis=0)
        den = np.prod(_J[:, None] + (al + nl), axis=0)
        out[low] -= np.log1p(nl / al) + np.log(den / num)
    return float(out[0]) if shape == () else out.reshape(shape)


def _g_kernel(m, sigma, power):
    """sum_{l=1}^{m-1} (l - sigma)^-power over an integer array m (0 for
    m < 2): a running sum for m <= H; above, its value at H plus
    psi(m - sigma) - psi(H - sigma) (power 1) or
    psi'(H - sigma) - psi'(m - sigma) (power 2)."""
    m = np.asarray(m)
    table = np.concatenate(([0.0, 0.0], np.cumsum((_J - sigma) ** -power)))
    out = table[np.clip(m, 0, H)]
    big = m > H
    if np.any(big):
        x = m[big] - sigma
        if power == 1:
            out[big] += _psi_series(x) - _psi_series(H - sigma)
        else:
            out[big] += _trigamma_series(H - sigma) - _trigamma_series(x)
    return out


def g_sigma_values(m, sigma):
    """g_sigma(m) = sum_{l=1}^{m-1} 1/(l - sigma) = psi(m - sigma) - psi(1 - sigma),
    with g(0) = g(1) = 0, over an integer array."""
    return _g_kernel(m, sigma, 1)


def gdot_sigma_values(m, sigma):
    """d g_sigma(m)/d sigma = sum_{l=1}^{m-1} 1/(l - sigma)^2
    = psi'(1 - sigma) - psi'(m - sigma), over an integer array."""
    return _g_kernel(m, sigma, 2)


_SIZE_TERMS = 16  # Taylor terms in sigma; the last is below 1e-18 of the first


class SizeSums:
    """The sigma-dependent sums of the log-EPPF over a block-size histogram
    (distinct sizes ascending, counts c_s), for sigma in (0, 1):

        log_rising(sigma) = sum_s c_s sum_{l<s} ln(l - sigma)
                          = sum_s c_s [ln Gamma(s - sigma) - ln Gamma(1 - sigma)],
        g(sigma)    = sum_s c_s g_sigma(s)    = sum_s c_s sum_{l<s} 1/(l - sigma),
        gdot(sigma) = sum_s c_s gdot_sigma(s) = sum_s c_s sum_{l<s} 1/(l - sigma)^2.

    The terms with l < H are a running sum: W_l (l - sigma)^-p with
    W_l = #{blocks of size > l}.  The sizes above H are a slice; their terms
    are F(s - sigma) - F(H - sigma) for F = ln Gamma, psi and -psi', which
    are power series in sigma about the integers s >= H (radius s):
    psi(s - sigma) = psi(s) - sum_{k>=1} zeta(k + 1, s) sigma^k, with
    psi'(s - sigma) and ln Gamma(s - sigma) its derivative and integral.
    Their coefficients, Hurwitz zeta sums over the slice, are computed once,
    so an evaluation costs O(H + _SIZE_TERMS) however many sizes there are.
    """

    def __init__(self, sizes, counts):
        sizes = np.asarray(sizes, dtype=np.int64)
        counts = np.asarray(counts, dtype=float)
        # W_l, l = 1..min(max size, H) - 1: the blocks of size > l
        above = np.append(np.cumsum(counts[::-1])[::-1], 0.0)
        l = np.arange(1, min(int(sizes[-1]), H))
        self._l = l.astype(float)
        self._w = above[np.searchsorted(sizes, l, side="right")]
        self._small = list(zip(self._l.tolist(), self._w.tolist()))
        split = int(np.searchsorted(sizes, H, side="right"))
        if split == sizes.size:
            self._lr_poly = self._g_poly = self._gdot_poly = (0.0,)
            return
        # the slice above H, with the -F(H - sigma) terms as weight -C at H
        s = np.append(sizes[split:], H).astype(float)
        c = np.append(counts[split:], -counts[split:].sum())
        k = np.arange(1.0, _SIZE_TERMS + 1.0)
        z = hurwitz_zeta((k + 1.0)[:, None], s) @ c  # sum c zeta(k + 1, s)
        psi0 = float(c @ _psi_series(s))
        self._g_poly = (psi0,) + tuple((-z).tolist())
        self._gdot_poly = tuple((-k * z).tolist())
        self._lr_poly = (float(c @ log_gamma(s)), -psi0) \
            + tuple((z / (k + 1.0)).tolist())

    def log_rising(self, sigmas):
        """log_rising at each entry of a 1-d sigma array."""
        return self._w @ np.log(self._l[:, None] - sigmas) \
            + _poly(self._lr_poly, sigmas)

    def g(self, sigma):
        out = _poly(self._g_poly, sigma)
        for l, w in self._small:
            out += w / (l - sigma)
        return out

    def gdot(self, sigma):
        out = _poly(self._gdot_poly, sigma)
        for l, w in self._small:
            d = l - sigma
            out += w / (d * d)
        return out


# Cephes zeta.c: (2j)!/B_2j, j = 1..12, the Euler-Maclaurin denominators
_EM_DENOMS = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
              -1.8924375803183791606e9, 7.47242496e10,
              -2.950130727918164224e12, 1.1646782814350067249e14,
              -4.5979787224074726105e15, 1.8152105401943546773e17,
              -7.1661652561756670113e18)
_MACHEP = 2.0 ** -53


def hurwitz_zeta(s, q):
    """zeta(s, q) = sum_{i>=0} (q + i)^-s for s > 1 and q > 0; s and q
    broadcast, and a scalar pair gives a float.

    q below H is shifted to w = q + H by its first H terms, then
    Euler-Maclaurin with the Bernoulli terms of Cephes `zeta.c`.  Its
    remainder is below the first term left out, so the sum stops before the
    first term under 2^-53 of the leading one at the largest s and smallest
    w; that is all twelve terms only for s near 17 at w near H, where the
    error reaches a few ulp.
    """
    scalar = np.ndim(s) == np.ndim(q) == 0
    s, q = np.atleast_1d(np.asarray(s, dtype=float), np.asarray(q, dtype=float))
    if np.any(s <= 1.0) or np.any(q <= 0.0):
        raise ValueError("hurwitz_zeta requires s > 1 and q > 0")
    low = q < H
    w = np.where(low, q + H, q)
    lead = w ** (1.0 - s)  # w^{1-s}, then w^{-s}: a subnormal w^{-s} loses digits
    out = lead / (s - 1.0) + 0.5 * (lead / w)
    if out.size == 0:
        return out
    if np.any(low):
        sb, qb = np.broadcast_arrays(s, q)
        low = np.broadcast_to(low, out.shape)
        out[low] += ((qb[low][:, None] + _J0) ** -sb[low][:, None]).sum(axis=1)
    # the terms kept: up to the first below 2^-53 of the leading term at the
    # largest s and smallest w, term j being (s)_{2j+1} w^{-s-2j-1}/denom_j
    s_max, w_min = float(s.max()), float(w.min())
    terms, rising = 0, s_max
    for j, denom in enumerate(_EM_DENOMS):
        if (s_max - 1.0) * rising < _MACHEP * abs(denom) * w_min ** (2 * j + 2):
            break
        terms += 1
        rising *= (s_max + (2 * j + 1)) * (s_max + (2 * j + 2))
    if terms:
        rising = np.cumprod(s[..., None] + np.arange(2.0 * terms - 1.0),
                            axis=-1)[..., ::2]  # (s)_1, (s)_3, ...
        r2 = np.repeat((1.0 / (w * w))[..., None], terms, axis=-1)
        coef = rising / np.array(_EM_DENOMS[:terms])
        out += lead * np.sum(coef * np.cumprod(r2, axis=-1), axis=-1)
    return float(out[0]) if scalar else out


_SQRT_HALF = math.sqrt(0.5)


def _ndtr(a):
    # the branches of Cephes ndtr, on math.erf / math.erfc
    x = a * _SQRT_HALF
    if abs(x) < _SQRT_HALF:
        return 0.5 + 0.5 * math.erf(x)
    y = 0.5 * math.erfc(abs(x))
    return 1.0 - y if x > 0.0 else y


def normal_cdf(z):
    """Standard normal distribution function Phi, elementwise."""
    z = np.asarray(z, dtype=float)
    out = np.fromiter(map(_ndtr, z.ravel().tolist()), float, z.size)
    return float(out[0]) if z.ndim == 0 else out.reshape(z.shape)


def log_sum_exp(values):
    """ln sum_i exp(v_i), stable under shift by the maximum."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("log_sum_exp of an empty sequence")
    vmax = np.max(v)
    if not np.isfinite(vmax):
        # all -inf stays -inf; +inf / nan propagate
        return float(vmax)
    return float(vmax + math.log(np.sum(np.exp(v - vmax))))


def newton_root(f_and_df, lo, hi, tol, max_iter):
    """Zero of a decreasing f with f(lo) > 0 > f(hi); f_and_df(x) returns
    (f(x), f'(x)).  Newton steps from the midpoint, each moving lo or hi to x
    by the sign of f(x) and bisecting when the step leaves (lo, hi), until a
    step is at most tol or f(x) is exactly 0.  Returns
    (x, iterations, converged)."""
    x = 0.5 * (lo + hi)
    for it in range(1, max_iter + 1):
        val, der = f_and_df(x)
        if val == 0.0:
            return x, it, True
        if val > 0.0:
            lo = x
        else:
            hi = x
        x_new = x - val / der
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= tol:
            return x_new, it, True
        x = x_new
    return x, max_iter, False


# the 16-point Gauss-Legendre rule on [-1, 1]
_GL16_HALF = (
    (0.09501250983763745, 0.1894506104550681),
    (0.2816035507792589, 0.18260341504492328),
    (0.4580167776572274, 0.16915651939500212),
    (0.6178762444026438, 0.14959598881657638),
    (0.755404408355003, 0.12462897125553363),
    (0.8656312023878318, 0.09515851168249231),
    (0.9445750230732326, 0.06225352393864763),
    (0.9894009349916499, 0.027152459411756466),
)  # (node, weight) for the positive nodes; the rule is symmetric
GL16_NODES = np.array([-x for x, _ in reversed(_GL16_HALF)]
                      + [x for x, _ in _GL16_HALF])
GL16_WEIGHTS = np.array([w for _, w in reversed(_GL16_HALF)]
                        + [w for _, w in _GL16_HALF])


def gl_panels(lo, hi, panels):
    """(node, weight) of the composite 16-point Gauss-Legendre rule on
    `panels` equal panels of [lo, hi]."""
    x, w = GL16_NODES, GL16_WEIGHTS
    edges = np.linspace(lo, hi, panels + 1)
    half = np.diff(edges)[:, None] / 2.0
    return (edges[:-1, None] + half * (1.0 + x)).ravel(), (half * w).ravel()


def adaptive_integrate(f, a, b, rel_tol=1e-10, max_panels=4096):
    """Integrate a smooth f over [a, b] by `gl_panels` on 1, 2, 4, ... equal
    panels until two successive estimates agree within rel_tol; f maps an
    array of nodes to its values.  Past max_panels, IntegrationError carries
    the last estimate and the difference of the last two as its bound."""
    if not b > a:
        raise ValueError("requires a < b")
    panels, last = 1, None
    while True:
        t, w = gl_panels(a, b, panels)
        total = float(w @ f(t))
        if last is not None:
            err = abs(total - last)
            if err <= rel_tol * abs(total):
                return total
            if 2 * panels > max_panels:
                raise IntegrationError(
                    f"quadrature did not converge: estimate {total}, "
                    f"error bound {err}", estimate=total, error_bound=err)
        panels, last = 2 * panels, total
