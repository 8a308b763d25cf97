import hashlib
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from pitmanyor.likelihood import log_eppf
from pitmanyor.partition import (from_occupancy, from_sizes,
                                 read_occupancy_csv, write_occupancy_csv)
from pitmanyor.population import make_explicit, make_power_law, \
    make_synthetic
from pitmanyor.sampler import (RngStream, exact_partition_law, sample_iid,
                               sample_poissonized, sample_py_partition)


def test_rng_stream_reproducible():
    a = RngStream(42).generator().random(5)
    b = RngStream(42).generator().random(5)
    assert np.array_equal(a, b)
    c = RngStream(42, stream_id=1).generator().random(5)
    assert not np.array_equal(a, c)


def test_rng_stream_keys_are_taken_modulo_2_64():
    # seeds and stream ids at or above 2^63, negative ones included, keep
    # every bit of their key (a RuntimeWarning fails the test)
    def draws(seed, stream_id=0):
        return RngStream(seed, stream_id).generator().random(4).tolist()

    keys = [(-1, 0), (-2, 0), (2 ** 63, 0), (2 ** 63 + 1, 0), (5, 0),
            (0, -1), (0, -2), (0, 2 ** 63)]
    assert len({tuple(draws(*key)) for key in keys}) == len(keys)
    assert draws(2 ** 64 + 5) == draws(5)
    assert draws(-1) == draws(2 ** 64 - 1)


def test_sample_py_partition_shape():
    st = sample_py_partition(0.5, 1.0, 500, RngStream(0))
    assert st.n == 500
    assert 1 <= st.K <= 500


def test_sample_py_partition_determinism():
    a = sample_py_partition(0.3, 2.0, 200, RngStream(5))
    b = sample_py_partition(0.3, 2.0, 200, RngStream(5))
    assert a == b


def test_sample_py_partition_validation():
    with pytest.raises(ValueError):
        sample_py_partition(1.5, 1.0, 10, RngStream(0))
    with pytest.raises(ValueError):
        sample_py_partition(0.5, -1.0, 10, RngStream(0))
    with pytest.raises(ValueError):
        sample_py_partition(0.5, 1.0, 0, RngStream(0))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_sample_py_partition_rejects_non_finite_M(value):
    with pytest.raises(ValueError, match="finite"):
        sample_py_partition(0.5, value, 1000, RngStream(0))


def test_exact_law_matches_eppf():
    for sigma, M in ((0.25, 0.0), (0.5, 1.0), (0.75, 5.0)):
        law = exact_partition_law(sigma, M, 4)
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-13)
        for blocks, prob in law.items():
            st = from_sizes([len(b) for b in blocks])
            assert prob == pytest.approx(
                math.exp(log_eppf(st, sigma, M)), abs=1e-13)


def _assert_block_sizes_follow_law(sigma, M, n, reps):
    # empirical frequencies of the sorted block sizes against the exact law
    law = {}
    for blocks, prob in exact_partition_law(sigma, M, n).items():
        key = tuple(sorted((len(b) for b in blocks), reverse=True))
        law[key] = law.get(key, 0.0) + prob
    seen = {}
    for r in range(reps):
        st = sample_py_partition(sigma, M, n, RngStream(123, r))
        key = tuple(st.N.tolist())
        seen[key] = seen.get(key, 0) + 1
    assert set(seen) <= set(law)
    for key, prob in law.items():
        freq = seen.get(key, 0) / reps
        se = math.sqrt(prob * (1.0 - prob) / reps)
        assert abs(freq - prob) <= 5.0 * se + 1e-3, (key, freq, prob)


def test_sequential_frequencies_match_law():
    for sigma, M in ((0.5, 1.0), (0.9, 0.0)):
        _assert_block_sizes_follow_law(sigma, M, 4, 4000)


@pytest.mark.parametrize("sigma,M", [(0.5, 1.0), (0.9, 0.0), (0.25, 5.0)])
def test_block_sizes_at_n6_match_law(sigma, M):
    # eleven block-size patterns, of one to six blocks
    _assert_block_sizes_follow_law(sigma, M, 6, 20000)


def _expected_blocks(sigma, M, n):
    """E K_n = (M/sigma)[(M + sigma)_n / (M)_n - 1] with rising factorials;
    Gamma(n + sigma) / (sigma Gamma(sigma) Gamma(n)) when M = 0."""
    if M == 0.0:
        return math.exp(math.lgamma(n + sigma) - math.lgamma(sigma)
                        - math.lgamma(n)) / sigma
    ratio = math.exp(math.lgamma(M + sigma + n) - math.lgamma(M + sigma)
                     - math.lgamma(M + n) + math.lgamma(M))
    return M / sigma * (ratio - 1.0)


@pytest.mark.parametrize("sigma,M", [(0.9, 1.0), (0.5, 1.0), (0.3, 0.0),
                                     (0.5, 100.0)])
def test_mean_blocks_match_closed_form(sigma, M):
    n, reps = 2000, 300
    K = [sample_py_partition(sigma, M, n, RngStream(41, r)).K
         for r in range(reps)]
    se = float(np.std(K, ddof=1)) / math.sqrt(reps)
    assert abs(float(np.mean(K)) - _expected_blocks(sigma, M, n)) <= 4.0 * se


@pytest.mark.slow
def test_sample_py_partition_linear_cost():
    # sigma near 1 gives K ~ n^0.9 blocks; peeling costs O(K) draws
    t0 = time.perf_counter()
    st = sample_py_partition(0.9, 1.0, 10 ** 6, RngStream(3))
    assert time.perf_counter() - t0 <= 2.0
    assert st.n == 10 ** 6
    tracemalloc.start()  # a second, slower run: tracing costs per object
    try:
        sample_py_partition(0.9, 1.0, 10 ** 6, RngStream(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2 ** 20


def test_sample_iid_single_atom():
    pop = make_explicit([1.0])
    species, counts = sample_iid(pop, 50, RngStream(0))
    assert species.tolist() == [0] and counts.tolist() == [50]


def test_sample_iid_totals_and_determinism():
    pop = make_power_law(2.0)
    a = sample_iid(pop, 1000, RngStream(3))
    b = sample_iid(pop, 1000, RngStream(3))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert a[1].sum() == 1000
    assert a[0].dtype == a[1].dtype == np.int64


def test_sample_iid_frequencies():
    pop = make_explicit([0.7, 0.2, 0.1])
    species, counts = sample_iid(pop, 20000, RngStream(8))
    assert species[0] == 0
    freq = counts[0] / 20000
    assert abs(freq - 0.7) <= 5.0 * math.sqrt(0.7 * 0.3 / 20000)


def test_sample_poissonized_mean_total():
    pop = make_power_law(2.0)
    n = 10000
    totals = [sample_poissonized(pop, n, RngStream(17, r))[1].sum()
              for r in range(40)]
    mean = float(np.mean(totals))
    # total is Poisson(n): sd = sqrt(n)
    assert abs(mean - n) <= 5.0 * math.sqrt(n / 40)


def test_sample_poissonized_occupied_scaling():
    # number of occupied species over alpha0(n) near Gamma(1 - sigma0)
    pop = make_power_law(2.0)
    n = 10 ** 6
    species, _ = sample_poissonized(pop, n, RngStream(2))
    ratio = species.size / pop.alpha0(n)
    assert abs(ratio / math.gamma(0.5) - 1.0) <= 0.05


def _exact_occupancy_means(pop, n, lam_min=1e-6):
    """(E K, E #{j : X_j = m} for m = 1..4), X_j ~ Poisson(n p_j): the atoms
    with n p_j >= lam_min one by one; past them only the seen-once mean,
    which is n times the tail mass to first order, is not negligible."""
    lam = n * pop.atom_probs(pop.n_atoms() or pop.alpha0(n / lam_min))
    pmf = np.exp(-lam)
    means = [float(np.sum(-np.expm1(-lam)))]
    for m in range(1, 5):
        pmf = pmf * lam / m
        means.append(float(np.sum(pmf)))
    tail = n * pop.tail_power_sum(lam.size, 1)
    means[0] += tail
    means[1] += tail
    return np.array(means)


@pytest.mark.parametrize("pop,n", [
    (make_power_law(1.5), 10 ** 4), (make_power_law(2.0), 10 ** 5),
    (make_synthetic(0.5, 1.0), 10 ** 4), (make_synthetic(0.5, -1.0), 10 ** 4),
])
def test_sample_poissonized_occupancy_law(pop, n):
    # Poisson splitting keeps the law of independent Poisson(n p_j) counts:
    # K and the numbers of species seen 1..4 times have the exact means
    reps = 300
    seen = np.empty((reps, 5))
    for r in range(reps):
        _, counts = sample_poissonized(pop, n, RngStream(23, r))
        seen[r] = [counts.size] + [np.count_nonzero(counts == m)
                                   for m in range(1, 5)]
    se = seen.std(axis=0, ddof=1) / math.sqrt(reps)
    gap = np.abs(seen.mean(axis=0) - _exact_occupancy_means(pop, n))
    assert np.all(gap <= 4.0 * se), (gap / se).tolist()


def test_sample_poissonized_tail_species_keep_their_atom_index():
    # a population whose head is empty at this n: every species is drawn
    # through the tail and labelled by its atom, as inverse_cdf labels it
    pop = make_explicit([0.4, 0.3, 0.2, 0.1])
    assert pop.alpha0(1.5) == 0
    species, _ = sample_poissonized(pop, 1.5, RngStream(3))
    assert set(species.tolist()) <= {0, 1, 2, 3}
    synthetic = make_synthetic(0.5, 1.0)  # an empty head of an atom law
    assert synthetic.alpha0(2) == 0 and synthetic.atom_probs(0).size == 0
    species, counts = sample_poissonized(synthetic, 2, RngStream(3))
    assert np.all(species >= 0) and np.all(counts >= 1)
    species, counts = sample_poissonized(make_power_law(2.0), 50,
                                         RngStream(4))
    head = make_power_law(2.0).alpha0(50)
    assert species.dtype == counts.dtype == np.int64
    assert np.all(np.diff(species) > 0) and np.all(counts >= 1)
    assert np.any(species >= head)


@pytest.mark.parametrize("pop,n,digest", [
    (make_power_law(2.0), 10 ** 5,
     "f491fbb89045bcfdfa75669f2d324fef4298accea634d3dad905484e353885a1"),
    (make_synthetic(0.5, -1.0), 10 ** 4,
     "d3b456a6b62f61d0cf075052bd9376048a0e92a0016ab9356bb07a186b4c3059"),
    (make_explicit([0.5, 0.3, 0.2]), 50,
     "eec7cd001767437b3aae48209e19cb570ced2406688f31857edd7ab3c002c7ab"),
])
def test_sample_poissonized_frozen_draws(pop, n, digest):
    # seeded draws, the tail's atom indices and their order are frozen
    species, counts = sample_poissonized(pop, n, RngStream(7, 3))
    text = json.dumps(list(zip(species.tolist(), counts.tolist())))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("pop,n,digest", [
    (make_power_law(2.0), 10 ** 5,
     "208a0a47d24dc27fe6954892da197918c6b568405489313c154758540e71c55e"),
    (make_power_law(1.1), 2 * 10 ** 4,
     "bbb3ac6963d9729a253da3ace009d6562f40dce09b5ee7fc499f5d2f0b2d89a4"),
    (make_synthetic(0.5, 1.0), 3 * 10 ** 5,
     "2d0e1b3fc84b977252c6673105fff4a630cc705d9a4ba7c078117afcba97b261"),
    (make_explicit([0.5, 0.3, 0.2]), 10 ** 3,
     "270b8cab9ec4850768438a20ddda34e0ad2538c47adc9ca5b49bbc961a5cc1e7"),
])
def test_sample_iid_frozen_draws(pop, n, digest):
    # seeded draws, the labels past the table and the key order are frozen;
    # the synthetic sample holds draws past its full 2^22-atom table
    species, counts = sample_iid(pop, n, RngStream(7, 3))
    text = json.dumps(list(zip(species.tolist(), counts.tolist())))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_occupancy_csv_round_trip(tmp_path):
    path = tmp_path / "occ.csv"
    write_occupancy_csv(path, np.array([5, 2]), np.array([1, 3]))
    assert path.read_bytes() == b"species,count\r\n2,3\r\n5,1\r\n"
    assert read_occupancy_csv(path) == from_sizes([3, 1])
    species, counts = sample_iid(make_power_law(2.0), 500, RngStream(6))
    write_occupancy_csv(path, species, counts)
    assert read_occupancy_csv(path) == from_occupancy(counts)
