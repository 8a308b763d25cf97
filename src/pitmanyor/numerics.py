"""Shared numerical kernels: special functions, g_sigma, quadrature, and
`newton_root`, the one scalar root finder (score root, M_hat, sigma0n, M0).

Everything in this module is a pure function of its arguments and safe to call
from multiple threads.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special


class IntegrationError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Carries the best available estimate and its error bound.
    """

    def __init__(self, message, estimate, error_bound):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


def log_gamma(x):
    """ln Gamma(x) for x > 0 (scalar or array)."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("log_gamma requires x > 0")
    out = special.gammaln(x)
    return float(out) if out.ndim == 0 else out


_STIRLING_FROM = 1e3  # below: gammaln difference; above: Stirling difference


def _stirling_tail(x):
    """lnGamma(x) - [(x - 1/2) ln x - x + ln(2 pi)/2], three terms."""
    r = 1.0 / x
    r2 = r * r
    return r * (1.0 / 12.0 - r2 * (1.0 / 360.0 - r2 / 1260.0))


def log_ascending_factorial(a, n):
    """ln a^[n] = ln a(a+1)...(a+n-1), with a^[0] = 1 (broadcasts).

    lnGamma(a + n) - lnGamma(a) for a < 1e3.  Beyond, that difference of
    two large numbers loses digits (1e-5 relative at a = 5e10), so the
    Stirling expansions are subtracted analytically:
    (a - 1/2) log1p(n/a) + n (ln(a + n) - 1) + c(a + n) - c(a),
    whose truncation error is below 1e-20 there.
    """
    a = np.asarray(a, dtype=float)
    n = np.asarray(n, dtype=float)
    if np.any(a <= 0):
        raise ValueError("log_ascending_factorial requires a > 0")
    if np.any(n < 0):
        raise ValueError("n must be nonnegative")
    a, n = np.broadcast_arrays(a, n)
    out = np.empty(a.shape)
    small = a < _STIRLING_FROM
    out[small] = special.gammaln(a[small] + n[small]) - special.gammaln(a[small])
    big = ~small
    ab, nb = a[big], n[big]
    out[big] = ((ab - 0.5) * np.log1p(nb / ab) + nb * (np.log(ab + nb) - 1.0)
                + _stirling_tail(ab + nb) - _stirling_tail(ab))
    return float(out) if out.ndim == 0 else out


def g_sigma_values(m, sigma):
    """g_sigma(m) = sum_{l=1}^{m-1} 1/(l - sigma), with g(0) = g(1) = 0, over
    an integer array (digamma form: psi(m - sigma) - psi(1 - sigma))."""
    m = np.asarray(m)
    out = np.zeros(m.shape, dtype=float)
    big = m >= 2
    out[big] = special.digamma(m[big] - sigma) - special.digamma(1.0 - sigma)
    return out


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


# 15-point Gauss-Kronrod nodes on [-1, 1]; the odd-indexed nodes form the
# embedded 7-point Gauss rule used for the error estimate.
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_GK_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_G_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


def _gk_panel(f, a, b):
    """Kronrod estimate and |K15 - G7| error estimate on one panel."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _GK_NODES
    y = np.asarray([f(xi) for xi in x], dtype=float)
    k15 = half * float(np.dot(_GK_WEIGHTS, y))
    g7 = half * float(np.dot(_G_WEIGHTS, y[1::2]))
    return k15, abs(k15 - g7)


_ENDPOINT_LEVELS = 52  # seed panels halving toward the left endpoint


def adaptive_integrate(f, a, b, rel_tol=1e-10, max_panels=4096):
    """Integrate f over (a, b] by adaptive 15-point Gauss-Kronrod panels.

    The initial partition refines geometrically toward the left endpoint so
    that integrable power singularities s^{-gamma} at a are resolved; adaptive
    bisection then drives the summed |K15 - G7| estimates below
    rel_tol * |integral|.
    """
    if not b > a:
        raise ValueError("requires a < b")
    # geometric seed panels accumulating toward a
    width = b - a
    cuts = [b]
    frac = 0.5
    for _ in range(_ENDPOINT_LEVELS):
        frac *= 0.5
        cuts.append(a + width * frac)
    cuts.append(a)  # GK nodes are interior, so f(a) itself is never evaluated
    panels = []
    hi = cuts[0]
    for lo in cuts[1:]:
        panels.append(_gk_panel(f, lo, hi) + (lo, hi))
        hi = lo
    total = sum(p[0] for p in panels)
    for _ in range(max_panels):
        err = sum(p[1] for p in panels)
        scale = max(abs(total), 1e-300)
        if err <= rel_tol * scale:
            return total
        worst = max(range(len(panels)), key=lambda i: panels[i][1])
        _, _, lo, hi = panels[worst]
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # panel at floating-point resolution
        left = _gk_panel(f, lo, mid) + (lo, mid)
        right = _gk_panel(f, mid, hi) + (mid, hi)
        panels[worst] = left
        panels.append(right)
        total = sum(p[0] for p in panels)
    err = sum(p[1] for p in panels)
    if err <= rel_tol * max(abs(total), 1e-300):
        return total
    raise IntegrationError(
        f"quadrature did not converge: estimate {total}, error bound {err}",
        estimate=total, error_bound=err)
