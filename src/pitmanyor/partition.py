"""Sufficient statistics of the observed tie pattern.

PartitionStats holds (n, K, block sizes N sorted descending, occupancy counts
Z_l = #{j : N_j >= l}).  Labels are opaque and compared for exact equality;
anything continuous must be discretized upstream.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class PartitionStats:
    n: int
    K: int
    N: np.ndarray  # block sizes, descending
    Z: np.ndarray  # Z[l-1] = #{j : N_j >= l}, length max(N)

    def __post_init__(self):
        N = np.asarray(self.N, dtype=np.int64)
        Z = np.asarray(self.Z, dtype=np.int64)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "Z", Z)
        if self.n < 1 or self.K < 1:
            raise ValueError("need n >= 1 and K >= 1")
        if N.size != self.K or np.any(N < 1):
            raise ValueError("N must list K positive block sizes")
        if np.any(np.diff(N) > 0):
            raise ValueError("N must be nonincreasing")
        if int(N.sum()) != self.n:
            raise ValueError("block sizes must sum to n")
        if Z.size != int(N[0]) or Z[0] != self.K or np.any(np.diff(Z) > 0) \
                or int(Z.sum()) != self.n:
            raise ValueError("Z inconsistent with N")

    def __eq__(self, other):
        return (isinstance(other, PartitionStats) and self.n == other.n
                and self.K == other.K and np.array_equal(self.N, other.N))

    def __hash__(self):
        return hash((self.n, self.K, tuple(self.N.tolist())))

    @cached_property
    def size_counts(self):
        """(distinct block sizes ascending, number of blocks of each size);
        the EPPF depends on the blocks only through these."""
        return np.unique(self.N, return_counts=True)

    @property
    def max_multiplicity(self):
        return int(self.N[0])

    @property
    def has_tie(self):
        return self.max_multiplicity >= 2

    def expand(self):
        """Label sequence with N_j copies of label j (canonical order)."""
        return np.repeat(np.arange(self.K), self.N)

    def to_json(self):
        return json.dumps({"n": self.n, "K": self.K,
                           "N": self.N.tolist(), "Z": self.Z.tolist()},
                          sort_keys=True)

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        return cls(n=d["n"], K=d["K"], N=np.array(d["N"]), Z=np.array(d["Z"]))


def _z_from_sizes(sizes):
    """Z_l = #{j : N_j >= l} from positive block sizes."""
    counts_of_size = np.bincount(sizes)  # index s -> number of blocks of size s
    # Z_l = sum_{s >= l} counts_of_size[s]
    return np.cumsum(counts_of_size[::-1])[::-1][1:]


def from_sizes(sizes):
    """PartitionStats from raw positive block sizes (any order)."""
    sizes = np.asarray(sizes, dtype=np.int64)
    sizes = sizes[sizes > 0]
    if sizes.size == 0:
        raise ValueError("need at least one positive block size")
    N = np.sort(sizes)[::-1]
    return PartitionStats(n=int(N.sum()), K=int(N.size), N=N,
                          Z=_z_from_sizes(sizes))


def from_observations(labels):
    """Build the sufficient statistic from a sequence of opaque labels."""
    counts = Counter(labels)
    if not counts:
        raise ValueError("empty observation sequence")
    return from_sizes(list(counts.values()))


def from_occupancy(counts):
    """Build from species occupancy counts (mapping, array, or OccupancyCounts)."""
    if hasattr(counts, "counts"):
        counts = counts.counts
    if isinstance(counts, dict):
        values = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    else:
        values = np.asarray(counts, dtype=np.int64)
    values = values[values > 0]
    if values.size == 0:
        raise ValueError("all occupancy counts are zero")
    return from_sizes(values)


def read_sample_csv(path):
    """Read a sample CSV with a required `species` header column."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "species" not in reader.fieldnames:
            raise ValueError("sample CSV must have a `species` header column")
        labels = [row["species"] for row in reader]
    return from_observations(labels)


def read_occupancy_csv(path):
    """Read an occupancy CSV with `species,count` header columns."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        need = {"species", "count"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise ValueError("occupancy CSV must have `species,count` columns")
        counts = {row["species"]: int(row["count"]) for row in reader}
    return from_occupancy(counts)
