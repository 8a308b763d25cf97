"""Sufficient statistic of the observed tie pattern.

PartitionStats stores the block-size histogram: the distinct block sizes
(ascending) and the number of blocks of each size, from which n and K
follow.  The Pitman-Yor EPPF sees a sample only through it.  The JSON form
also lists the block sizes N (descending) and the occupancy counts
Z_l = #{j : N_j >= l}; both are built on output and checked on input.
Labels are opaque and compared for exact equality; anything continuous must
be discretized upstream.
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

import numpy as np


@dataclass(frozen=True)
class PartitionStats:
    sizes: np.ndarray  # distinct block sizes, ascending
    counts: np.ndarray  # counts[i] = number of blocks of size sizes[i]
    n: int = field(init=False)
    K: int = field(init=False)

    def __post_init__(self):
        sizes = np.asarray(self.sizes, dtype=np.int64)
        counts = np.asarray(self.counts, dtype=np.int64)
        if sizes.ndim != 1 or sizes.size == 0 or counts.shape != sizes.shape:
            raise ValueError("need one count per distinct block size")
        if sizes[0] < 1 or np.any(np.diff(sizes) <= 0) or np.any(counts < 1):
            raise ValueError("block sizes must be positive and strictly "
                             "increasing, with positive counts")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n", int(sizes @ counts))
        object.__setattr__(self, "K", int(counts.sum()))

    def __eq__(self, other):
        return (isinstance(other, PartitionStats)
                and np.array_equal(self.sizes, other.sizes)
                and np.array_equal(self.counts, other.counts))

    def __hash__(self):
        return hash((self.sizes.tobytes(), self.counts.tobytes()))

    @cached_property
    def N(self):
        """Block sizes, descending (length K)."""
        return np.repeat(self.sizes[::-1], self.counts[::-1])

    def expand(self):
        """Label sequence with N_j copies of label j (canonical order)."""
        return np.repeat(np.arange(self.K), self.N)

    def _occupancy_counts(self):
        """Z_l = #{j : N_j >= l} for l = 1..max N, the JSON form's Z: constant
        on each interval (sizes[i-1], sizes[i]] between distinct sizes."""
        at_least = np.cumsum(self.counts[::-1])[::-1]
        return np.repeat(at_least, np.diff(self.sizes, prepend=0))

    def to_json(self):
        return json.dumps({"n": self.n, "K": self.K, "N": self.N.tolist(),
                           "Z": self._occupancy_counts().tolist()},
                          sort_keys=True)

    @classmethod
    def from_json(cls, text):
        """Inverse of to_json; rejects a record whose N or Z breaks the
        invariants listed in docs/formats.md."""
        d = json.loads(text)
        N = np.array(d["N"]).astype(np.int64)
        stats = cls(*np.unique(N, return_counts=True))  # raises unless N > 0
        if (stats.n, stats.K) != (d["n"], d["K"]) \
                or not np.array_equal(N, stats.N):
            raise ValueError("N must list K block sizes in nonincreasing "
                             "order that sum to n")
        if not np.array_equal(np.array(d["Z"]).astype(np.int64),
                              stats._occupancy_counts()):
            raise ValueError("Z inconsistent with N")
        return stats


def from_sizes(sizes):
    """PartitionStats from raw positive block sizes (any order)."""
    sizes = np.asarray(sizes, dtype=np.int64)
    sizes = sizes[sizes > 0]
    if sizes.size == 0:
        raise ValueError("need at least one positive block size")
    return PartitionStats(*np.unique(sizes, return_counts=True))


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
        raise ValueError("no positive occupancy counts")
    return from_sizes(values)


def read_sample_counts(path):
    """Counter of the labels in the required `species` column of a sample
    CSV.  Blank lines are skipped; a row too short to hold the column
    raises ValueError."""
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, [])
        if "species" not in header:
            raise ValueError("sample CSV must have a `species` header column")
        try:
            return Counter(map(itemgetter(header.index("species")),
                               filter(None, rows)))
        except IndexError:
            raise ValueError(
                "sample CSV row has no `species` field") from None


def read_sample_csv(path):
    """Read a sample CSV with a required `species` header column."""
    return from_occupancy(read_sample_counts(path))


def read_occupancy_csv(path):
    """Read an occupancy CSV with `species,count` header columns.  Each row
    names a species not named before and its count, a nonnegative decimal
    integer; rows with count 0 are dropped.  Any other row raises
    ValueError naming its line.  Blank lines are skipped."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        need = {"species", "count"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise ValueError("occupancy CSV must have `species,count` columns")
        counts = {}
        for row in reader:
            species, count = row["species"], row["count"]
            where = f"occupancy CSV line {reader.line_num}"
            if species is None or count is None:
                raise ValueError(f"{where}: row has no `species` or `count`")
            if re.fullmatch(r"\s*[0-9]+\s*", count) is None:
                raise ValueError(f"{where}: count {count!r} is not a "
                                 "nonnegative integer")
            if species in counts:
                raise ValueError(f"{where}: species {species!r} repeated")
            counts[species] = int(count)
    return from_occupancy(counts)
