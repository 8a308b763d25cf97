"""Random generation: Pitman-Yor partitions, i.i.d. and Poissonized species
samples.

All randomness flows through RngStream, a (seed, stream_id) pair backing a
counter-based Philox generator, so replications can be parallelized with
stream_id = replication index and remain bit-reproducible under any schedule.
The Philox key takes the seed and the stream id modulo 2^64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import partition


@dataclass(frozen=True)
class RngStream:
    seed: int
    stream_id: int = 0

    def generator(self):
        return np.random.Generator(
            np.random.Philox(key=np.array(
                [self.seed & 0xFFFFFFFFFFFFFFFF,
                 self.stream_id & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)))


def sample_py_partition(sigma, M, n, rng):
    """Partition of n observations from the Pitman-Yor (sigma, M) law, by
    size-biased peeling (Pitman 2006, Combinatorial Stochastic Processes,
    chapter 3): while r observations are left, block b = 1, 2, ... holds the
    first of them and Binomial(r - 1, V_b) of the others, with V_b ~ Beta(1 -
    sigma, M + b sigma), and the observations outside it form a Pitman-Yor
    (sigma, M + b sigma) partition.  The generator draws V_1, the first
    Binomial, V_2, the second Binomial, and so on: 2K draws, and the K block
    sizes are the only memory.
    """
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must lie in (0, 1)")
    if not 0.0 <= M < np.inf:
        raise ValueError("M must be finite and nonnegative")
    if n < 1:
        raise ValueError("n must be positive")
    gen = rng.generator()
    sizes = []
    left = n
    while left:
        v = gen.beta(1.0 - sigma, M + sigma * (len(sizes) + 1))
        size = 1 + gen.binomial(left - 1, v)
        sizes.append(size)
        left -= size
    return partition.from_sizes(sizes)


def sample_iid(pop, n, rng):
    """Multinomial occupancy counts of n i.i.d. draws from the population,
    as (species, counts) arrays, species ascending: the draws of
    `sample_iid_labels`, counted by `Population.occupancy` from the sorted
    uniforms."""
    if n < 1:
        raise ValueError("n must be positive")
    u = rng.generator().random(n)
    u.sort()
    return pop.occupancy(u)


def sample_poissonized(pop, n, rng):
    """Independent Poisson(n p_j) occupancy counts over every atom, by
    Poisson splitting (Kingman 1993, Poisson Processes, section 2.2): the
    h = alpha0(n) head atoms, those with n p_j >= 1, draw their counts one
    by one, and the atoms past them draw m ~ Poisson(n T) observations,
    T = tail_power_sum(h, 1), each from the tail's conditional law, the
    inverse CDF of a uniform on (1 - T, 1) (its index clamped to >= h
    against the table's rounding).  Tail species carry their atom index,
    as `inverse_cdf` labels it.  Returns (species, counts) int64 arrays of
    the occupied atoms: head species first, then tail ones, each ascending.
    The generator draws the head counts, m, the uniforms.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    gen = rng.generator()
    head = pop.alpha0(n)
    drawn = gen.poisson(n * pop.atom_probs(head))
    occupied = np.flatnonzero(drawn)
    tail = pop.tail_power_sum(head, 1)
    u = np.sort(gen.random(gen.poisson(n * tail))) * tail + (1.0 - tail)
    species, seen = np.unique(np.maximum(pop.inverse_cdf(u), head),
                              return_counts=True)
    return (np.concatenate((occupied, species)),
            np.concatenate((drawn[occupied], seen)))


def sample_iid_labels(pop, n, rng):
    """The raw label sequence of n i.i.d. draws (for CSV export)."""
    gen = rng.generator()
    return pop.inverse_cdf(gen.random(n))


def exact_partition_law(sigma, M, n):
    """Exact law of the sequential construction for small n.

    Enumerates every assignment path and aggregates path probabilities by the
    resulting set partition (frozenset of blocks).  Intended for n <= 8.
    """
    if n < 1 or n > 10:
        raise ValueError("exact enumeration supports 1 <= n <= 10")
    law = {}

    def recurse(assignment, prob):
        k = len(assignment)
        if k == n:
            blocks = {}
            for obs, b in enumerate(assignment):
                blocks.setdefault(b, []).append(obs)
            key = frozenset(frozenset(b) for b in blocks.values())
            law[key] = law.get(key, 0.0) + prob
            return
        if k == 0:
            recurse([0], prob)
            return
        K = max(assignment) + 1
        sizes = [assignment.count(b) for b in range(K)]
        for b in range(K):
            recurse(assignment + [b], prob * (sizes[b] - sigma) / (M + k))
        recurse(assignment + [K], prob * (M + K * sigma) / (M + k))

    recurse([], 1.0)
    return law
