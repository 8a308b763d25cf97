"""Shared numerical kernels on numpy and `math`: the special functions,
g_sigma, the new-block sums, quadrature, and `newton_root`, the one root
finder, element by element over arrays of brackets (score roots, M_hat,
sigma0n, M0).

Special functions.  `rgamma` and `normal_cdf` rest on `math` (gamma, erf,
erfc).  The rest shift the argument by recurrence
to x >= H and then sum an asymptotic series in 1/x (Abramowitz & Stegun
6.1.41 for ln Gamma, 6.3.18 for psi, 6.4.12 for psi') or Euler-Maclaurin for
the Hurwitz zeta function (the scheme of Cephes `zeta.c`):

- `log_gamma`: ln Gamma, elementwise;
- `digamma`, `trigamma`, `rgamma`: psi, psi' and 1/Gamma of a scalar;
- `hurwitz_zeta`: zeta(s, q), elementwise;
- `normal_cdf`: the standard normal distribution function, elementwise;
- `g_sigma_values`, `gdot_sigma_values`: g_sigma(m) = sum_{l<m} 1/(l - sigma)
  and its sigma-derivative over integer arrays: a running sum up to H, the
  psi or psi' series above;
- `SizeSums`: the likelihood's sums of ln(l - sigma), 1/(l - sigma) and
  1/(l - sigma)^2 over a block-size histogram;
- `new_block_sums`: the likelihood's sums of l^p/(M + l sigma)^q and of
  ln(M + l sigma) over l < K: the powers summed directly in a call of at
  most 2^14 terms, else summed up to H and then Euler-Maclaurin with the
  psi and psi' series; the logs summed up to H and then Stirling's series
  in every call.

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
    (distinct sizes ascending, counts c_s), for sigma in (0, 1), a float or
    an array of any shape (elementwise; a float gives a float, and a
    histogram of singletons 0.0):

        log_rising(sigma) = sum_s c_s sum_{l<s} ln(l - sigma)
                          = sum_s c_s [ln Gamma(s - sigma) - ln Gamma(1 - sigma)],
        g(sigma)    = sum_s c_s g_sigma(s)    = sum_s c_s sum_{l<s} 1/(l - sigma),
        gdot(sigma) = sum_s c_s gdot_sigma(s) = sum_s c_s sum_{l<s} 1/(l - sigma)^2.

    The sizes above H are a slice; their terms are F(s - sigma) - F(H - sigma)
    for F = ln Gamma, psi and -psi', which are power series in sigma about
    the integers s >= H (radius s):
    psi(s - sigma) = psi(s) - sum_{k>=1} zeta(k + 1, s) sigma^k, with
    psi'(s - sigma) and ln Gamma(s - sigma) its derivative and integral.
    Their coefficients, Hurwitz zeta sums over the slice, are computed once,
    so an evaluation costs O(H + _SIZE_TERMS) however many sizes there are.
    The terms with l < H, W_l (l - sigma)^-p with W_l = #{blocks of size > l},
    follow that polynomial one by one.  The constant of log_rising's
    polynomial, sum_{s>H} c_s [ln Gamma(s) - ln Gamma(H)], is `lr_constant`,
    which `log_rising` leaves out: at n = 1e6 it is of order 1e7, and a caller
    that adds it once, after the per-sigma terms, rounds it once.
    """

    def __init__(self, sizes, counts):
        sizes = np.asarray(sizes, dtype=np.int64)
        counts = np.asarray(counts, dtype=float)
        # W_l, l = 1..min(max size, H) - 1: the blocks of size > l
        above = np.append(np.cumsum(counts[::-1])[::-1], 0.0)
        l = np.arange(1, min(int(sizes[-1]), H))
        self._l = l.astype(float)
        self._w = above[np.searchsorted(sizes, l, side="right")]
        split = int(np.searchsorted(sizes, H, side="right"))
        if split == sizes.size:
            self._lr_poly = self._g_poly = self._gdot_poly = (0.0,)
            self.lr_constant = 0.0
            return
        # the slice above H, with the -F(H - sigma) terms as weight -C at H
        s = np.append(sizes[split:], H).astype(float)
        c = np.append(counts[split:], -counts[split:].sum())
        k = np.arange(1.0, _SIZE_TERMS + 1.0)
        z = hurwitz_zeta((k + 1.0)[:, None], s) @ c  # sum c zeta(k + 1, s)
        psi0 = float(c @ _psi_series(s))
        self._g_poly = (psi0,) + tuple((-z).tolist())
        self._gdot_poly = tuple((-k * z).tolist())
        self.lr_constant = float(c @ log_gamma(s))
        self._lr_poly = (0.0, -psi0) + tuple((z / (k + 1.0)).tolist())

    def log_rising(self, sigma):
        """log_rising - lr_constant at sigma."""
        return self._sum(self._lr_poly, sigma, lambda w, d: (
            np.multiply(w, np.log(d, out=d), out=d)))

    def g(self, sigma):
        return self._sum(self._g_poly, sigma,
                         lambda w, d: np.divide(w, d, out=d))

    def gdot(self, sigma):
        return self._sum(self._gdot_poly, sigma, lambda w, d: (
            np.divide(w, np.multiply(d, d, out=d), out=d)))

    def _sum(self, poly, sigma, term):
        """poly(sigma) + term(W_l, l - sigma) for l = 1, 2, ... < H in that
        order, elementwise; term overwrites its (l, sigma) array l - sigma."""
        col = (-1,) + (1,) * np.ndim(sigma)
        terms = term(self._w.reshape(col), self._l.reshape(col) - sigma)
        out = _poly(poly, sigma)
        for t in terms if np.ndim(sigma) else terms.tolist():  # floats: fast
            out = out + t
        return out


# phi(v) = v - ln(1 + v), chi(v) = ln(1 + v) - v/(1 + v) and
# omega(v) = phi(v) - chi(v) as power series for v <= 1/2, where the direct
# forms cancel: v^2, v^2 and v^3 times sum_j c_j v^j, with c_j in the rows
# below; at v = 1/2 the last term is below 2^-53 of the first
_V_SERIES = 0.5
_J_SERIES = np.arange(56.0)
_LOG1P_SERIES = np.stack([(-1.0) ** _J_SERIES * c for c in (
    1.0 / (_J_SERIES + 2.0), (_J_SERIES + 1.0) / (_J_SERIES + 2.0),
    (_J_SERIES + 1.0) / (_J_SERIES + 3.0))])
# the Euler-Maclaurin corrections of the psi and psi' series (A&S 6.3.18,
# 6.4.12) as weights of y^-m - x^-m, m = 2..15: B_2k/(2k) at m = 2k and
# B_2k at m = 2k + 1
_EM_POWERS = np.arange(2.0, 2.0 * len(_B2K) + 2.0)
_EM_WEIGHTS = np.zeros((2, _EM_POWERS.size))
_EM_WEIGHTS[0, 0::2] = _PSI_SERIES
_EM_WEIGHTS[1, 1::2] = _B2K


# A call of the power forms with at most this many terms sums them
# directly.  On a 2-core x86-64 host a float pair pays about 5 ns a term
# there, against about 70 us for the closed forms (130-190 us for arrays),
# and the direct cost triples past about 17,000 terms
_DIRECT_TERMS = 16384


def _dot(u, v):
    """u @ v over the last axis, broadcast over the others."""
    return np.matmul(u[..., None, :], v[..., :, None])[..., 0, 0]


# sum_l l^p/(M + l sigma)^q from l and the factors den = M + l sigma
_DIRECT_SUMS = {
    (1, 1): lambda l, den: (l / den).sum(-1),
    (2, 2): lambda l, den: ((l / den) ** 2).sum(-1),
    (0, 1): lambda l, den: (1.0 / den).sum(-1),
    (0, 2): lambda l, den: _dot(1.0 / den, 1.0 / den),
    (1, 2): lambda l, den: _dot(l, (1.0 / den) ** 2),
}


def new_block_sums(K, sigma, M, *forms):
    """[sum_{l=1}^{K-1} f(l) for f in forms], elementwise over sigma > 0 and
    M >= 0 (broadcast), a form being "log" for ln(M + l sigma) or (p, q) for
    l^p/(M + l sigma)^q, (p, q) among (0, 1), (0, 2), (1, 1), (1, 2), (2, 2).

    The terms with l < H are summed on the factors M + l sigma; for K > H
    the rest, l = H..K-1, are added in closed form at a = M/sigma, with
    x = a + H, y = a + K, v = (K - H)/x.  The log form adds
    ln Gamma(y) - ln Gamma(x) + (K - H) ln sigma by Stirling's series,

        (K - H) ln(M + H sigma) + y chi(v) - ln(1 + v)/2 + c(y) - c(x),

    c the series of `_stirling_tail`.  A form (p, q) adds sigma^-q times
    Euler-Maclaurin for sum l^p/(a + l)^q: the integral of each term in

        (0, 1): ln(1 + v),    (0, 2): v/y,     (1, 1): x phi(v) + H ln(1 + v),
        (1, 2): chi(v) + H v/y,    (2, 2): x omega(v) + 2H chi(v) + H^2 v/y,

    then the end-point terms of the psi and psi' series, whose differences
    y^-m - x^-m = x^-m expm1(-m ln(1 + v)) keep their digits.  With phi,
    chi and omega from their series at small v nothing cancels: the plain
    closed forms, for instance (1, 1) = K - 1 - a [psi(a + K) - psi(a + 1)]
    or the log form as (K - 1) ln sigma + ln Gamma(a + K) - ln Gamma(a + 1),
    lose the digits of a/K where a >> K; these stay within a few ulp
    whatever a and K.  Each element costs O(H + the series lengths), and its
    bits do not depend on the other elements.

    The power forms of a call of at most _DIRECT_TERMS terms are summed
    directly instead, all K - 1 of them.  The log form takes no such switch,
    so that a log-EPPF value has the same bits alone and on a grid.
    """
    sigma, M = np.asarray(sigma, dtype=float), np.asarray(M, dtype=float)
    powers = [f for f in forms if f != "log"]
    sums = dict(zip(powers, _power_sums(K, sigma, M, powers))) if powers \
        else {}
    if "log" in forms:
        sums["log"] = _log_sum(K, sigma, M)
    return [sums[f] for f in forms]


def _tail_pieces(K, sigma, M, rows):
    """(a, x, y, v, ln(1 + v), remainders) of the closed forms of
    `new_block_sums`, the remainders being [phi(v), chi(v), omega(v)][r] for
    r in rows: the direct forms, overwritten by the series at the elements
    with v <= _V_SERIES, on which alone the series runs."""
    a = M / sigma
    x, y = a + H, a + K
    v = (K - H) / x
    lg = np.log1p(v)
    u = v / (1.0 + v)
    direct = (lambda: v - lg, lambda: lg - u, lambda: v - 2.0 * lg + u)
    rem = [np.asarray(direct[r]()) for r in rows]  # fresh, writable
    small = v <= _V_SERIES
    if small.any():
        vs = np.asarray(v)[small]
        series = (np.power.outer(vs, _J_SERIES)[..., None, :]
                  * _LOG1P_SERIES[rows]).sum(-1)
        lead = (vs * vs, vs * vs, vs * vs * vs)
        for i, r in enumerate(rows):
            rem[i][small] = lead[r] * series[:, i]
    return a, x, y, v, lg, rem


def _log_sum(K, sigma, M):
    """The log form of `new_block_sums`: the terms with l < H are added in
    the order of l, one array per l, then the closed form."""
    col = (-1,) + (1,) * max(sigma.ndim, M.ndim)
    logs = np.log(M + np.arange(1.0, min(K, H)).reshape(col) * sigma)
    out = np.zeros(logs.shape[1:])
    for t in logs if logs.ndim > 1 else logs.tolist():  # floats: fast
        out = out + t
    if K <= H:
        return out
    _, x, y, v, lg, (chi,) = _tail_pieces(K, sigma, M, [1])
    return out + ((K - H) * np.log(M + H * sigma) + y * chi - 0.5 * lg
                  + (_stirling_tail(y) - _stirling_tail(x)))


def _power_sums(K, sigma, M, powers):
    """The power forms of `new_block_sums`."""
    direct = np.broadcast(sigma, M).size * (K - 1) <= _DIRECT_TERMS
    l = np.arange(1.0, K if direct else min(K, H))
    den = M[..., None] + l * sigma[..., None]
    out = [_DIRECT_SUMS[pq](l, den) for pq in powers]
    if direct or K <= H:
        return out
    a, x, y, v, lg, (phi, chi, omega) = _tail_pieces(K, sigma, M, [0, 1, 2])
    d = np.power.outer(x, -_EM_POWERS) * np.expm1(np.multiply.outer(
        lg, -_EM_POWERS))  # y^-m - x^-m
    e = (d[..., None, :] * _EM_WEIGHTS).sum(-1)
    e1, e2 = e[..., 0], e[..., 1]
    r, fy, fx = v / y, K / y, H / x  # 1/x - 1/y; l/(a + l) at l = K, H
    tail = {
        (0, 1): lambda: lg + 0.5 * r - e1,
        (0, 2): lambda: r - 0.5 * d[..., 0] - e2,
        (1, 1): lambda: x * phi + H * lg - 0.5 * (fy - fx) + a * e1,
        (1, 2): lambda: (chi + H * r - 0.5 * (fy / y - fx / x) - e1
                         + a * e2),
        (2, 2): lambda: (x * omega + 2.0 * H * chi + H * H * r
                         - 0.5 * (fy * fy - fx * fx) + 2.0 * a * e1
                         - a * a * e2)}
    return [s + tail[p, q]() / sigma ** q for s, (p, q) in zip(out, powers)]


# Cephes zeta.c: (2j)!/B_2j, j = 1..12, the Euler-Maclaurin denominators
_EM_DENOMS = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
              -1.8924375803183791606e9, 7.47242496e10,
              -2.950130727918164224e12, 1.1646782814350067249e14,
              -4.5979787224074726105e15, 1.8152105401943546773e17,
              -7.1661652561756670113e18)
_MACHEP = 2.0 ** -53


def _em_terms(s, w, count):
    """The first `count` Euler-Maclaurin terms of zeta(s, w) over w^{1-s},
    term j being (s)_{2j+1} w^{-2j-2}/denom_j, each element's set to 0 from
    its first term under 2^-53 of its leading term w^{1-s}/(s - 1) on."""
    rising = np.cumprod(s[..., None] + np.arange(2.0 * count - 1.0),
                        axis=-1)[..., ::2]  # (s)_1, (s)_3, ...
    r2 = np.repeat((1.0 / (w * w))[..., None], count, axis=-1)
    term = rising / np.array(_EM_DENOMS[:count]) * np.cumprod(r2, axis=-1)
    return term * np.logical_and.accumulate(
        (s[..., None] - 1.0) * np.abs(term) >= _MACHEP, axis=-1)


def hurwitz_zeta(s, q):
    """zeta(s, q) = sum_{i>=0} (q + i)^-s for s > 1 and q > 0; s and q
    broadcast, and a scalar pair gives a float.

    q below H is shifted to w = q + H by its first H terms, then
    Euler-Maclaurin with the Bernoulli terms of Cephes `zeta.c`.  Its
    remainder is below the first term left out, so each element's sum stops
    before its first term under 2^-53 of its leading one; that is all twelve
    terms only for s near 17 at w near H, where the error reaches a few ulp.
    An element's bits do not depend on the other elements of the call.
    """
    scalar = np.ndim(s) == np.ndim(q) == 0
    s, q = np.atleast_1d(np.asarray(s, dtype=float), np.asarray(q, dtype=float))
    if np.any(s <= 1.0) or np.any(q <= 0.0):
        raise ValueError("hurwitz_zeta requires s > 1 and q > 0")
    low = q < H
    w = np.where(low, q + H, q)
    # w^{1-s}, then w^{-s}: a subnormal w^{-s} loses digits.  numpy takes
    # 1/w for a power -1 broadcast along w and pow otherwise, so s = 2 takes
    # 1/w in every layout
    lead = np.where(s == 2.0, 1.0 / w, w ** (1.0 - s))
    out = lead / (s - 1.0) + 0.5 * (lead / w)
    if out.size == 0:
        return out
    if np.any(low):
        sb, qb = np.broadcast_arrays(s, q)
        low = np.broadcast_to(low, out.shape)
        out[low] += ((qb[low][:, None] + _J0) ** -sb[low][:, None]).sum(axis=1)
    # the columns: the terms kept at the largest s and smallest w, which no
    # element exceeds
    terms = np.count_nonzero(_em_terms(s.max(keepdims=True),
                                       w.min(keepdims=True), len(_EM_DENOMS)))
    if terms:
        # summed in column order, so that the zeros past an element's own
        # terms leave its bits alone
        out += lead * np.cumsum(_em_terms(s, w, terms), axis=-1)[..., -1]
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
    """Zero of a decreasing f with f(lo) > 0 > f(hi), element by element over
    brackets lo and hi (floats or arrays, broadcast).  f_and_df maps x, of
    the brackets' shape (a float for float brackets), to (f(x), f'(x))
    elementwise.  Each element takes Newton steps from its midpoint, each
    moving lo or hi to x by the sign of f(x) and bisecting when the step
    leaves (lo, hi), until a step is at most tol or f(x) is exactly 0; it
    then keeps its x while the others go on, so it takes the steps and the
    stop it would take alone.  Returns (x, iterations, converged) of the
    brackets' shape: a float, an int and a bool for float brackets, whose
    steps run on Python floats."""
    scalar = np.ndim(lo) == np.ndim(hi) == 0
    if scalar:
        where, any_, live, iterations = _select, bool, True, max_iter
        lo, hi = float(lo), float(hi)
    else:
        lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                     np.asarray(hi, dtype=float))
        where, any_ = np.where, np.any
        live, iterations = np.ones(lo.shape, bool), np.full(lo.shape, max_iter)
    x = 0.5 * (lo + hi)
    for it in range(1, max_iter + 1):
        val, der = f_and_df(x)
        lo, hi = where(val > 0.0, x, lo), where(val > 0.0, hi, x)
        x_new = x - val / der
        x_new = where((lo < x_new) & (x_new < hi), x_new, 0.5 * (lo + hi))
        exact = val == 0.0
        stop = live & (exact | (abs(x_new - x) <= tol))
        x = where(exact, x, where(live, x_new, x))
        iterations = where(stop, it, iterations)
        live = where(stop, False, live)
        if not any_(live):
            break
    converged = where(live, False, True)
    return (float(x), int(iterations), bool(converged)) if scalar \
        else (x, iterations, converged)


def _select(cond, a, b):
    """np.where for a scalar condition, on Python scalars."""
    return a if cond else b


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
