import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from scipy import special

from pitmanyor.numerics import hurwitz_zeta
from pitmanyor.population import (_BLOCK, _INDEX_CAP, PowerLawPopulation,
                                  make_explicit, make_power_law,
                                  make_synthetic, population_from_json)
from pitmanyor.sampler import RngStream, sample_iid


def test_power_law_probabilities_normalize():
    pop = make_power_law(2.0)
    head = float(np.sum(pop.atom_probs(10000)))
    assert head + pop.tail_power_sum(10000, 1) == pytest.approx(1.0, abs=1e-12)


def test_power_law_alpha0_floor_formula():
    # |alpha0(u) - (cu)^{1/alpha}| <= 1
    pop = make_power_law(2.0)
    for u in np.geomspace(2.0, 1e8, 60):
        approx = (pop.c * u) ** 0.5
        assert abs(pop.alpha0(float(u)) - approx) <= 1.0


def test_alpha0_exact_counting():
    pop = make_power_law(2.5)
    probs = pop.atom_probs(5000)
    for u in (3.0, 17.5, 400.0, 9999.0):
        assert pop.alpha0(u) == int(np.count_nonzero(probs >= 1.0 / u))


def test_alpha0_monotone_unit_jumps():
    pop = make_power_law(2.0)
    u = np.linspace(1.5, 200.0, 4000)
    vals = np.array([pop.alpha0(float(x)) for x in u])
    steps = np.diff(vals)
    assert np.all(steps >= 0)
    assert np.all(steps <= 1)


def test_alpha0_bounded_by_u():
    for pop in (make_power_law(1.5), make_synthetic(0.5, 1.0)):
        for u in (2.0, 10.0, 1e3, 1e6):
            assert pop.alpha0(u) <= u


def test_power_law_tail_power_sum():
    pop = make_power_law(3.0)
    direct = float(np.sum(pop.atom_probs(200000)[100:] ** 2))
    assert pop.tail_power_sum(100, 2) == pytest.approx(direct, rel=1e-6)


def test_power_law_sigma0():
    assert make_power_law(2.0).rv.sigma0 == pytest.approx(0.5)
    assert make_power_law(4.0).rv.sigma0 == pytest.approx(0.25)


def test_power_law_domain():
    with pytest.raises(ValueError):
        make_power_law(1.0)


def test_synthetic_normalizes():
    for gamma, r in ((0.5, 1.0), (0.5, -1.0), (0.3, 0.0), (0.7, 2.0),
                     (0.97, 1.0), (0.99, 0.0), (0.999, -2.0)):
        pop = make_synthetic(gamma, r)
        head = float(np.sum(pop.atom_probs(100000)))
        total = head + pop.tail_power_sum(100000, 1)
        assert total == pytest.approx(1.0, abs=1e-10)


def test_synthetic_atoms_decreasing():
    pop = make_synthetic(0.5, -1.0)
    p = pop.atom_probs(10000)
    assert np.all(np.diff(p) < 0)
    assert np.all(p > 0)


def test_synthetic_r0_matches_power_law_shape():
    # r = 0 counting function tracks u^gamma like the power law with
    # alpha = 1/gamma; the ratio of alpha0 values approaches a constant
    gamma = 0.5
    syn = make_synthetic(gamma, 0.0)
    pl = make_power_law(1.0 / gamma)
    ratios = [syn.alpha0(u) / pl.alpha0(u) for u in (1e4, 1e5, 1e6, 1e7)]
    spread = max(ratios) - min(ratios)
    assert spread <= 0.05 * ratios[-1]


def test_synthetic_log_factor_growth():
    # alpha0(u)/(u^0.5 log u) approaches a constant for r = 1
    pop = make_synthetic(0.5, 1.0)
    ratios = [pop.alpha0(u) / (u ** 0.5 * math.log(u))
              for u in (1e3, 1e4, 1e5, 1e6)]
    for a, b in zip(ratios, ratios[1:]):
        assert abs(b / a - 1.0) < 0.05 or abs(b - a) < 0.05 * abs(ratios[-1])
    assert abs(ratios[-1] / ratios[-2] - 1.0) < 0.05


def test_synthetic_domain():
    with pytest.raises(ValueError):
        make_synthetic(0.0, 1.0)
    with pytest.raises(ValueError):
        make_synthetic(0.5, 3.0)


def _tail_closed_form(pop, after, k):
    """int_{after}^inf u(j)^-k dj by upper incomplete gamma functions:
    exp((gamma - k) y0 + b x0) [gamma b^(-r-1) Gamma(r + 1, b x0)
    + r b^-r Gamma(r, b x0)], b = k - gamma, y0 = log u(after) and
    x0 = c + y0."""
    with mpmath.workdps(40):
        y0 = mpmath.mpf(float(pop._log_u(after)))
        x0 = pop.shift + y0
        gamma, r = mpmath.mpf(pop.gamma), mpmath.mpf(pop.r)
        b = k - gamma
        return float(mpmath.exp((gamma - k) * y0 + b * x0)
                     * (gamma * b ** (-r - 1) * mpmath.gammainc(r + 1, b * x0)
                        + r * b ** -r * mpmath.gammainc(r, b * x0)))


@pytest.mark.parametrize("gamma", [0.03, 0.1, 0.5, 0.9, 0.97, 0.99, 0.999])
@pytest.mark.parametrize("r", [-2.0, -1.0, -0.3, 0.0, 0.7, 1.0, 2.0])
def test_synthetic_tail_integral_closed_form(gamma, r):
    # the smooth log-u integrand on Gauss-Legendre panels, at both ends of
    # gamma, wherever the value is a normal float
    pop = make_synthetic(gamma, r)
    for k in (1, 2, 3):
        for after in (0.5, 1024.5, 1e5 + 0.5):
            want = _tail_closed_form(pop, after, k)
            if want >= sys.float_info.min:
                got = pop._raw_tail_integral(after, k)
                assert abs(got / want - 1.0) <= 1e-12, (k, after)


def test_synthetic_underflow_names_its_parameters():
    # every atom weight e^-y underflows: y(1) is about 1,500
    with pytest.raises(ValueError, match=r"gamma=0\.01, r=-2"):
        make_synthetic(0.01, -2.0)


def test_synthetic_inverse_says_when_it_does_not_converge():
    # a NaN exponent gives NaN Newton steps, which never meet the stop rule
    pop = make_synthetic(0.5, 1.0)
    pop.r = math.nan
    with pytest.raises(ValueError, match="did not converge"):
        pop._log_u(10.0)


def test_explicit_population():
    pop = make_explicit([0.5, 0.3, 0.2])
    assert pop.n_atoms() == 3
    assert pop.alpha0(3.9) == 2  # 1/0.3 = 3.33 <= 3.9 < 5
    assert pop.tail_power_sum(1, 1) == pytest.approx(0.5)
    assert pop.rv is None


def test_explicit_validation():
    with pytest.raises(ValueError):
        make_explicit([0.5, 0.4])  # does not sum to 1
    with pytest.raises(ValueError):
        make_explicit([1.2, -0.2])


@pytest.mark.parametrize("probs", [[], [0.5, 0.0, 0.5], [-0.1, 1.1], [1.5],
                                   [0.6, 0.6], [0.3, 0.3]])
def test_explicit_rejects_invalid_probabilities(probs):
    with pytest.raises(ValueError):
        make_explicit(probs)


def test_explicit_accepts_single_certain_atom():
    pop = make_explicit([1.0])
    assert pop.n_atoms() == 1
    assert pop.alpha0(2.0) == 1


def test_inverse_cdf_deterministic_quantiles():
    pop = make_explicit([0.5, 0.3, 0.2])
    idx = pop.inverse_cdf(np.array([0.1, 0.49, 0.51, 0.79, 0.81, 0.99]))
    assert idx.tolist() == [0, 0, 1, 1, 2, 2]


def test_explicit_draw_in_rounding_shortfall_is_the_last_atom():
    # ten probabilities of 0.1 sum to 1 - 2^-53 in floating point; a draw
    # past that sum belongs to the last atom, not to an eleventh
    pop = make_explicit([0.1] * 10)
    assert pop._ensure_cumulative(1)[-1] < 1.0
    u = np.array([0.05, 1.0 - 2.0 ** -53, 1.0 - 2.0 ** -53])
    assert pop.inverse_cdf(u).tolist() == [0, 9, 9]
    species, counts = pop.occupancy(u)
    assert species.tolist() == [0, 9]
    assert counts.tolist() == [1, 2]


@pytest.mark.parametrize("tail_mass", [0.0, 5e-10])
def test_explicit_draws_only_its_own_atoms_past_the_table_cap(tail_mass):
    # with the cap below the atom count, draws past the first 2^16 atoms
    # still find their atoms (no fresh labels that collide with them), also
    # when the first table already holds all but tail_mass of the mass
    head, tail = 1 << 16, 1 << 15
    p = np.random.default_rng(3).random(head + tail) + 0.5
    p[:head] *= (1.0 - tail_mass) / p[:head].sum()
    p[head:] *= (tail_mass or 1.0) / p[head:].sum()
    pop = make_explicit(p / p.sum())
    pop._CACHE_MAX = head
    assert pop._capacity() == head + tail
    cum = np.cumsum(pop.probs)
    u = np.sort(np.concatenate([
        np.random.default_rng(4).random(2000),
        1.0 - tail_mass * np.array([0.7, 0.3, 1e-3])]))
    want = np.minimum(np.searchsorted(cum, u, side="right"), cum.size - 1)
    assert pop.inverse_cdf(u).tolist() == want.tolist()
    species, counts = pop.occupancy(u)
    want_species, want_counts = np.unique(want, return_counts=True)
    assert species.tolist() == want_species.tolist()
    assert counts.tolist() == want_counts.tolist()


def test_inverse_cdf_power_law_tail_draws():
    # draws beyond the cached mass must land on distinct deep-tail atoms
    pop = make_power_law(2.0)
    idx = pop.inverse_cdf(np.array([1.0 - 1e-13, 1.0 - 5e-14]))
    assert np.all(idx >= 1 << 16)


def _uneven_explicit(atoms):
    p = np.random.default_rng(atoms).random(atoms) + 0.5
    return make_explicit(p / p.sum())


@pytest.mark.parametrize("pop", [
    make_power_law(2.0), make_power_law(1.1), make_synthetic(0.5, 1.0),
    make_synthetic(0.5, -1.0), make_synthetic(0.3, 2.0),
    _uneven_explicit(3 * _BLOCK + 123)])
def test_cumulative_table_equals_one_cumsum(pop):
    # grown in two steps of _BLOCK-atom blocks, the table keeps the bits of
    # one np.cumsum over all its atoms, and the smaller table is untouched
    small = pop._ensure_cumulative(1)
    kept = small.copy()
    table = pop._ensure_cumulative(1 << 20)
    assert table.size == min(1 << 20, pop.n_atoms() or 1 << 20)
    assert np.array_equal(table, np.cumsum(pop.atom_probs(table.size)))
    assert np.array_equal(small, kept)
    assert pop._ensure_cumulative(table.size) is table


def test_concurrent_growth_computes_each_atom_once(monkeypatch):
    # more threads than cores, switching often, ask for every table size
    calls = []
    atom_probs_range = PowerLawPopulation.atom_probs_range

    def counted(self, start, stop):
        calls.append((start, stop))
        return atom_probs_range(self, start, stop)

    monkeypatch.setattr(PowerLawPopulation, "atom_probs_range", counted)
    pop = make_power_law(2.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(pop._ensure_cumulative, 1 << k)
                       for _ in range(3) for k in range(16, 23)]
            tables = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    full = 1 << 22
    assert sorted(calls) == [(start, start + _BLOCK)
                             for start in range(0, full, _BLOCK)]
    assert all(np.array_equal(t, tables[-1][:t.size]) for t in tables)
    assert np.array_equal(tables[-1], np.cumsum(pop.atom_probs(full)))


def _draws_on_boundaries(pop, picks, uniforms):
    # uniforms mixed with table entries, where a draw changes atoms
    cum = pop._ensure_cumulative(1)
    return np.array(uniforms + [cum[i % cum.size] for i in picks])


_SYNTHETIC = make_synthetic(0.5, 1.0)


@settings(max_examples=60, deadline=None)
@given(hst.sampled_from([make_power_law(2.0), make_power_law(1.5),
                         _SYNTHETIC, make_synthetic(0.3, 2.0),
                         make_explicit([0.5, 0.3, 0.2]),
                         _uneven_explicit(40)]),
       hst.lists(hst.integers(0, 1 << 16), max_size=50),
       hst.lists(hst.floats(0.0, 1.0, exclude_max=True), max_size=300))
@example(_SYNTHETIC, [], [0.5, 1.0 - 1e-12, 1.0 - 1e-12, 1.0 - 1e-7])
def test_occupancy_equals_unique_inverse_cdf(pop, picks, uniforms):
    u = _draws_on_boundaries(pop, picks, uniforms)
    species, counts = pop.occupancy(np.sort(u))
    want_species, want_counts = np.unique(pop.inverse_cdf(u),
                                          return_counts=True)
    assert species.tolist() == want_species.tolist()
    assert counts.tolist() == want_counts.tolist()


def _tail_index_reference(pop, u, cached):
    """One draw's tail search, on the scalar zeta: the index, or None for a
    fresh label."""
    def cdf(j):  # P(index < j)
        return 1.0 - pop.c * hurwitz_zeta(pop.alpha, float(j + 1))

    lo, hi = cached, max(2 * cached, 1 << 40)
    while hi < _INDEX_CAP and cdf(hi) < u:
        hi *= 2
    if cdf(min(hi, _INDEX_CAP)) < u:
        return None
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if cdf(mid) >= u:
            hi = mid
        else:
            lo = mid
    return hi - 1


@pytest.mark.parametrize("alpha", [1.05, 1.1, 1.5, 2.0, 3.0])
def test_tail_indices_match_the_scalar_search(alpha):
    # the array search gives each draw the index of the one-draw search on
    # the scalar zeta, deep-tail near ties included; fresh labels count up
    # from the cap in draw order
    pop = make_power_law(alpha)
    cached = 1 << 22
    tail = pop.c * hurwitz_zeta(alpha, float(cached + 1))
    u = 1.0 - tail * np.random.default_rng(5).random(400) ** 3
    want, fresh = [], _INDEX_CAP
    for ui in u.tolist():
        idx = _tail_index_reference(pop, ui, cached)
        if idx is None:
            idx, fresh = fresh, fresh + 1
        want.append(idx)
    assert pop._tail_indices(u, cached).tolist() == want


_TAIL_POPS = {alpha: make_power_law(alpha) for alpha in (1.1, 1.5, 2.0, 3.0)}


@settings(max_examples=100, deadline=None)
@given(hst.sampled_from(sorted(_TAIL_POPS)),
       hst.lists(hst.floats(0.0, 1.0, exclude_min=True), min_size=1,
                 max_size=20),
       hst.floats(1.0, 8.0))
def test_tail_index_is_the_first_atom_whose_cdf_reaches_u(alpha, v, power):
    # each draw past the table lands on the atom j with
    # cdf(j) < u <= cdf(j + 1), or on a label at or past the cap when
    # cdf(_INDEX_CAP) < u; deep draws come from small v and a high power.
    # The table has already put u at or past cdf(cached), so a draw equal
    # to it takes the atom `cached`
    pop = _TAIL_POPS[alpha]
    cached = 1 << 22

    def cdf(j):  # P(index < j)
        return 1.0 - pop.c * hurwitz_zeta(alpha, float(j + 1))

    tail = 1.0 - cdf(cached)
    u = 1.0 - tail * np.array(v) ** power
    for ui, j in zip(u.tolist(), pop._tail_indices(u, cached)):
        if j >= _INDEX_CAP:
            assert cdf(_INDEX_CAP) < ui
        else:
            assert cached <= j and ui <= cdf(j + 1)
            assert j == cached or cdf(j) < ui


@pytest.mark.parametrize("alpha", [1.1, 1.2])
def test_power_law_heavy_tail_draws(alpha):
    # exact tail indices past int64 get fresh labels instead of overflowing
    _, counts = sample_iid(make_power_law(alpha), 20000, RngStream(1))
    assert counts.sum() == 20000


@pytest.mark.parametrize("pop", [make_power_law(1.5), make_power_law(3.0),
                                 make_synthetic(0.5, 1.0),
                                 make_synthetic(0.5, -1.0)])
def test_atom_probs_are_the_atom_law_at_integers(pop):
    # bit for bit, in and across the blocks of the cumulative table
    for start, stop in ((0, 50), (_BLOCK - 3, _BLOCK + 5), (10 ** 6, 10 ** 6 + 7)):
        j = np.arange(start + 1, stop + 1, dtype=float)
        assert np.array_equal(pop.atom_probs_range(start, stop), pop.atom_law(j))
    x = np.array([1.5, 10.25, 1e3 + 0.5, 1e9])
    p = pop.atom_law(x)
    assert np.all(np.diff(p) < 0) and np.all(p > 0)


@pytest.mark.parametrize("gamma,r", [(0.5, -1.0), (0.5, 1.0), (0.3, 2.0)])
def test_synthetic_tail_power_sum_against_explicit_sum(gamma, r):
    # the midpoint Euler-Maclaurin band with its first correction h'/24:
    # without it the relative error was 1.1e-5 at J = 100 for (0.5, -1)
    pop = make_synthetic(gamma, r)
    last = 1 << 22
    p = pop.atom_probs(last)
    for k in (1, 2):
        far = pop.tail_power_sum(last, k)
        for after, tol in ((100, 1e-8), (1000, 1e-11), (10000, 1e-11)):
            want = float(np.sum(p[after:] ** k)) + far
            assert abs(pop.tail_power_sum(after, k) / want - 1.0) <= tol


def test_json_round_trip():
    # a spec as JSON text or as a dict reads as the population it names
    for spec, pop in (
            ({"kind": "power_law", "alpha": 2.5}, make_power_law(2.5)),
            ({"kind": "synthetic", "gamma": 0.4, "r": 1.0},
             make_synthetic(0.4, 1.0)),
            ({"kind": "explicit", "probs": [0.6, 0.4]},
             make_explicit([0.6, 0.4]))):
        for text in (json.dumps(spec), spec):
            clone = population_from_json(text)
            assert type(clone) is type(pop)
            np.testing.assert_allclose(clone.atom_probs(50),
                                       pop.atom_probs(50), rtol=1e-12)


def test_population_from_json_unknown_kind():
    with pytest.raises(ValueError):
        population_from_json({"kind": "mystery"})
