"""True sampling distributions and their counting functions.

A Population wraps a discrete distribution (p_j), sorted descending, together
with the counting function alpha0(u) = #{j : p_j >= 1/u} and the regular
variation descriptors (sigma0, L0, beta0) that drive all asymptotics.  An
infinite family also has an atom law p(x) at a real index x, whose values at
the integers are its atom probabilities; the occupancy sums integrate it past
their head atoms.
Populations are immutable after construction, apart from the cumulative
table that sampling by inversion searches.  The table grows on demand under
one lock: only the atoms not yet in it are computed, _BLOCK at a time into a
buffer reserved once, with the running sum carried from block to block, so
its bits equal one np.cumsum over all the atoms.  A larger table is published
only once complete, and no entry a reader may hold is ever written, so
threads can share a population.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass

import numpy as np

from .numerics import adaptive_integrate, hurwitz_zeta
from .partition import json_key, json_number, json_object

_INDEX_CAP = 1 << 62  # exact power-law tail indices stay below this
_BLOCK = 1 << 14  # atoms per block of the cumulative table
_GROWTH = threading.Lock()  # held while any cumulative table grows


@dataclass(frozen=True)
class RegularVariation:
    """Descriptors of alpha0(u) ~ u^sigma0 L0(u): L0(u) = L0_const * (log u)^log_power_r."""

    sigma0: float
    L0_const: float
    log_power_r: float = 0.0
    beta0: float = 0.0
    C: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.sigma0 < 1.0:
            raise ValueError("sigma0 must lie in (0, 1)")
        if self.beta0 >= self.sigma0:
            raise ValueError("beta0 must be < sigma0")


class Population:
    """Base class; concrete families implement the atom-level queries."""

    rv: RegularVariation
    kind: str

    def atom_probs(self, count):
        """First `count` atom probabilities, descending."""
        return self.atom_probs_range(0, count)

    def atom_probs_range(self, start, stop):
        """Probabilities of the atoms start..stop - 1 (0-based): the atom
        law at the 1-based indices start + 1..stop."""
        return self.atom_law(np.arange(start + 1, stop + 1, dtype=float))

    def atom_law(self, x):
        """p(x), the family's atom probability at a real 1-based index x."""
        raise NotImplementedError

    def alpha0(self, u):
        """Exact count of atoms with p_j >= 1/u."""
        raise NotImplementedError

    def tail_power_sum(self, after, k):
        """sum_{j > after} p_j^k."""
        raise NotImplementedError

    def n_atoms(self):
        """Number of atoms, or None if infinite."""
        return None

    # ---- sampling support -------------------------------------------------
    _CACHE_START = 1 << 16
    _CACHE_MAX = 1 << 22
    _cum = None  # the published cumulative table, a prefix of _buf

    def _capacity(self):
        return min(self._CACHE_MAX, self.n_atoms() or self._CACHE_MAX)

    def _ensure_cumulative(self, count):
        """The cumulative table with at least `count` entries (a power of two
        from _CACHE_START, at most _capacity()); each atom is summed once."""
        cum = self._cum
        if cum is not None and cum.size >= count:
            return cum
        with _GROWTH:
            cum = self._cum  # another thread may have grown it meanwhile
            if cum is not None and cum.size >= count:
                return cum
            size = self._CACHE_START
            while size < count:
                size *= 2
            size = min(size, self._capacity())
            if cum is None:  # reserved once; memory is touched as it fills
                self._buf = np.empty(self._capacity())
            buf = self._buf
            for start in range(0 if cum is None else cum.size, size, _BLOCK):
                block = buf[start:min(start + _BLOCK, size)]
                block[:] = self.atom_probs_range(start, start + block.size)
                if start:
                    block[0] += buf[start - 1]
                np.cumsum(block, out=block)
            self._cum = cum = buf[:size]
        return cum

    def inverse_cdf(self, uniforms):
        """Map U(0,1) draws to atom indices (0-based) by inverse CDF."""
        u = np.asarray(uniforms, dtype=float)
        cum = self._ensure_cumulative(self._CACHE_START)
        while cum[-1] < 1.0 - 1e-9 and np.any(u >= cum[-1]) \
                and cum.size < self._capacity():
            cum = self._ensure_cumulative(cum.size * 2)
        idx = np.searchsorted(cum, u, side="right")
        overflow = idx >= cum.size
        if np.any(overflow):
            idx[overflow] = self._tail_indices(u[overflow], cum.size, cum[-1])
        return idx

    def occupancy(self, sorted_uniforms):
        """(species, counts) of the draws that inverse_cdf maps the ascending
        uniforms to: np.unique(inverse_cdf(u), return_counts=True), bit for
        bit.  The head, the alpha0(n) atoms with n p_j >= 1 for n draws, is
        counted by searching its table boundaries in the sorted draws; only
        the draws past it go through inverse_cdf.  The head stops short of
        the table's last atom, where an explicit population also puts the
        draws past its table, so that no atom is counted twice."""
        u = np.asarray(sorted_uniforms, dtype=float)
        cum = self._ensure_cumulative(self._CACHE_START)
        head = min(self.alpha0(u.size), cum.size - 1)
        # draws below cum[j] are those with atom index <= j
        ends = np.searchsorted(u, cum[:head], side="left")
        counts = np.diff(ends, prepend=0)
        species = np.flatnonzero(counts)
        past = ends[-1] if head else 0  # the first draw past the head
        rest, rest_counts = np.unique(self.inverse_cdf(u[past:]),
                                      return_counts=True)
        return (np.concatenate((species, rest)),
                np.concatenate((counts[species], rest_counts)))

    def _tail_indices(self, u, cached, cum_last):
        # A draw past the table gets a fresh label, one new species each;
        # concrete families may override with an exact inversion.  The mass
        # past the full table is small but not negligible: for
        # synthetic(0.5, 1) it is 3.1e-5 at 2^22 atoms, about 9 fresh labels
        # in a sample of 3e5 draws.
        return cached + np.arange(u.size)

    # ---- serialization ----------------------------------------------------
    def spec_dict(self):
        raise NotImplementedError

    def to_json(self):
        return json.dumps(self.spec_dict(), sort_keys=True)


class PowerLawPopulation(Population):
    """p_j = c / j^alpha with c = 1/zeta(alpha); alpha0(u) = floor((cu)^(1/alpha))."""

    kind = "power_law"

    def __init__(self, alpha):
        if not alpha > 1.0:
            raise ValueError("power law requires alpha > 1")
        self.alpha = float(alpha)
        self.c = 1.0 / hurwitz_zeta(self.alpha, 1.0)
        sigma0 = 1.0 / self.alpha
        self.rv = RegularVariation(sigma0=sigma0, L0_const=self.c ** sigma0,
                                   log_power_r=0.0, beta0=0.0, C=1.0)

    def atom_law(self, x):
        return self.c * np.asarray(x, dtype=float) ** (-self.alpha)

    def alpha0(self, u):
        if u <= 1.0:
            return 0
        k = int(math.floor((self.c * u) ** (1.0 / self.alpha) + 1e-12))
        # repair any floating-point boundary slip against the exact criterion
        while k >= 1 and self.c * float(k) ** (-self.alpha) < 1.0 / u:
            k -= 1
        while self.c * float(k + 1) ** (-self.alpha) >= 1.0 / u:
            k += 1
        return k

    def tail_power_sum(self, after, k):
        return self.c ** k * hurwitz_zeta(k * self.alpha, after + 1)

    def _tail_indices(self, u, cached, cum_last):
        # Exact inversion via the Hurwitz zeta tail mass, for all draws at
        # once: hi doubles from 2^40 until cdf(hi) >= u, then bisection on
        # (cached, hi] finds the first such hi, and the index is hi - 1.  A
        # draw with cdf(_INDEX_CAP) < u (alpha near 1) gets a fresh label at
        # or above the cap, which no exact index reaches.  cdf is exact up to
        # the zeta's rounding, so a u that close to an atom boundary (in
        # practice at indices beyond 1e10) may take the neighbouring atom.
        lo = np.full(u.size, cached, dtype=np.int64)
        hi = np.full(u.size, max(2 * cached, 1 << 40), dtype=np.int64)

        def below(i, j):  # cdf(j) = 1 - c zeta(alpha, j + 1) < u[i]
            q = (j + 1).astype(float)
            return 1.0 - self.c * hurwitz_zeta(self.alpha, q) < u[i]

        i = np.arange(u.size)
        while i.size:
            i = i[hi[i] < _INDEX_CAP]
            i = i[below(i, hi[i])]
            hi[i] *= 2
        fresh = below(np.arange(u.size), np.minimum(hi, _INDEX_CAP))
        i = np.flatnonzero(~fresh & (hi - lo > 1))
        while i.size:
            mid = (lo[i] + hi[i]) // 2
            short = below(i, mid)
            lo[i[short]] = mid[short]
            hi[i[~short]] = mid[~short]
            i = i[hi[i] - lo[i] > 1]
        out = hi - 1
        out[fresh] = _INDEX_CAP + np.arange(np.count_nonzero(fresh))
        return out

    def spec_dict(self):
        return {"kind": self.kind, "alpha": self.alpha}


class SyntheticPopulation(Population):
    """Population whose counting function tracks u^gamma (log u)^r.

    Atoms are defined by 1/p~_j = inverse of f(u) = u^gamma (log(e^c u))^r at
    j, then renormalized to sum to one.  The shift constant c keeps f strictly
    increasing on u >= 1 when r < 0; it changes L0 only by lower-order terms.
    Renormalization rescales u by S = sum p~_j, so the effective constant in
    L0 is S^{-gamma}, which is recorded in `rv`.  The atoms are computed in
    y = log u, where f = e^(gamma y) (c + y)^r and p~ = e^-y.
    """

    kind = "synthetic"
    _TAIL_ANCHOR = 100_000

    def __init__(self, gamma, r):
        if not 0.0 < gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if not -2.0 <= r <= 2.0:
            raise ValueError("r must lie in [-2, 2]")
        self.gamma = float(gamma)
        self.r = float(r)
        self.shift = 1.0 if r >= 0 else 1.0 - r / gamma
        head = np.exp(-self._log_u(np.arange(1, self._TAIL_ANCHOR + 1)))
        self.norm = float(np.sum(head)) + self._raw_tail_integral(
            self._TAIL_ANCHOR + 0.5, 1)
        if not 0.0 < self.norm < math.inf:
            raise ValueError(f"synthetic population with gamma={gamma}, "
                             f"r={r}: its atom weights underflow")
        self.rv = RegularVariation(sigma0=self.gamma,
                                   L0_const=self.norm ** (-self.gamma),
                                   log_power_r=self.r, beta0=0.0, C=1.0)

    # f and its inverse ------------------------------------------------------
    def _f(self, u):
        return u ** self.gamma * (self.shift + np.log(u)) ** self.r

    def _log_u(self, j):
        """log u at j, the inverse of f: vectorized Newton in y = log u >= 0,
        until no step moves y by more than 1e-14 of max(y, 1)."""
        target = np.log(np.asarray(j, dtype=float))
        y = np.maximum(target / self.gamma, 0.0)
        for _ in range(100):
            g = self.gamma * y + self.r * np.log(self.shift + y) - target
            new = np.maximum(
                y - g / (self.gamma + self.r / (self.shift + y)), 0.0)
            done = np.all(np.abs(new - y) <= 1e-14 * np.maximum(y, 1.0))
            y = new
            if done:
                return y
        raise ValueError(f"synthetic population with gamma={self.gamma}, "
                         f"r={self.r}: the inverse of f did not converge")

    def _raw_tail_integral(self, after, k):
        """integral_{after}^inf u(j)^-k dj.  With j = f(u), x = c + log u and
        b = k - gamma it is e^(-b y0) int_{x0}^inf e^(-b (x - x0)) x^(r-1)
        (gamma x + r) dx, y0 = log u(after) and x0 = c + y0; x = e^w makes
        the integrand smooth, and it ends where e^(-b (x - x0)) = e^-100."""
        y0 = float(self._log_u(after))
        x0 = self.shift + y0
        gamma, r, b = self.gamma, self.r, k - self.gamma

        def integrand(w):
            x = np.exp(w)
            return np.exp(r * w - b * (x - x0)) * (gamma * x + r)

        return math.exp(-b * y0) * adaptive_integrate(
            integrand, math.log(x0), math.log(x0 + 100.0 / b), rel_tol=1e-12)

    # Population API ---------------------------------------------------------
    def atom_law(self, x):
        return np.exp(-self._log_u(x)) / self.norm

    def alpha0(self, u):
        if u <= 0:
            return 0
        v = u / self.norm
        if math.log(v) < self._log_u(1.0):
            return 0
        return int(math.floor(float(self._f(v)) + 1e-12))

    def tail_power_sum(self, after, k):
        # midpoint Euler-Maclaurin with its first correction:
        # sum_{j>J} h(j) ~ int_{J+1/2}^inf h + h'(J+1/2)/24 for h = u^-k.
        # At x = f(u), with y = log u, u'(x) = 1/f'(u) and
        # f'(u) = x (gamma + r/(c + y))/u, so h'(x) = -k e^(-k y)
        # / (x (gamma + r/(c + y))).
        x = after + 0.5
        y = float(self._log_u(x))
        slope = -k * math.exp(-k * y) / (x * (self.gamma
                                              + self.r / (self.shift + y)))
        return (self._raw_tail_integral(x, k) + slope / 24.0) / self.norm ** k

    def spec_dict(self):
        return {"kind": self.kind, "gamma": self.gamma, "r": self.r}


class ExplicitPopulation(Population):
    """Finite list of atom probabilities; for ingestion and robustness tests.

    Not a valid asymptotic target (sigma0 undefined); `rv` is None.
    """

    kind = "explicit"
    rv = None

    def __init__(self, probs):
        p = np.sort(np.asarray(probs, dtype=float))[::-1]
        if p.size == 0 or np.any(p <= 0) or np.any(p > 1):
            raise ValueError("probabilities must lie in (0, 1]")
        if abs(float(np.sum(p)) - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1")
        self.probs = p

    def n_atoms(self):
        return int(self.probs.size)

    def _capacity(self):
        return self.n_atoms()  # the table holds every atom

    def atom_probs_range(self, start, stop):
        return self.probs[start:stop]

    def alpha0(self, u):
        if u <= 1.0:
            return 0
        return int(np.count_nonzero(self.probs >= 1.0 / u))

    def tail_power_sum(self, after, k):
        return float(np.sum(self.probs[after:] ** k))

    def _tail_indices(self, u, cached, cum_last):
        # inverse_cdf stops growing the table once it holds all but 1e-9 of
        # the mass, so search the full table; a draw past its last entry
        # only marks the rounding shortfall of the summed probabilities and
        # belongs to the last atom
        cum = self._ensure_cumulative(self.n_atoms())
        return np.minimum(np.searchsorted(cum, u, side="right"), cum.size - 1)

    def spec_dict(self):
        return {"kind": self.kind, "probs": [float(x) for x in self.probs]}


def make_power_law(alpha):
    """Population with p_j = c/j^alpha (sigma0 = 1/alpha)."""
    return PowerLawPopulation(alpha)


def make_synthetic(gamma, r):
    """Population whose alpha0 tracks u^gamma (log u)^r (sigma0 = gamma)."""
    return SyntheticPopulation(gamma, r)


def make_explicit(probs):
    return ExplicitPopulation(probs)


def population_from_json(text):
    spec = json_object(json.loads(text) if isinstance(text, str) else text,
                       "population spec")
    kind = spec.get("kind")
    if kind == "power_law":
        return make_power_law(json_key(spec, "alpha", json_number))
    if kind == "synthetic":
        return make_synthetic(json_key(spec, "gamma", json_number),
                              json_key(spec, "r", json_number))
    if kind == "explicit":
        return make_explicit(spec["probs"])
    raise ValueError(f"unknown population kind: {kind!r}")
