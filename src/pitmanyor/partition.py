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

import codecs
import csv
import locale
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter, mul

import numpy as np

from .numerics import SizeSums


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
        # n in Python integers: the int64 product sizes @ counts wraps
        n = sum(map(mul, sizes.tolist(), counts.tolist()))
        if n >= 2 ** 63:
            raise ValueError(f"sample size n = {n} is beyond int64")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "K", int(counts.sum()))  # K <= n

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

    @cached_property
    def size_sums(self):
        """The likelihood's sums over the histogram (numerics.SizeSums)."""
        return SizeSums(self.sizes, self.counts)

    def expand(self):
        """Label sequence with N_j copies of label j (canonical order)."""
        return np.repeat(np.arange(self.K), self.N)

    def _z_runs(self):
        """Z_l = #{j : N_j >= l} for l = 1..max N, the JSON form's Z, as
        runs: at_least[i] repeated on each interval (sizes[i-1], sizes[i]]
        between distinct sizes."""
        at_least = np.cumsum(self.counts[::-1])[::-1]
        return at_least, np.diff(self.sizes, prepend=0)

    def _json_lists(self, sep):
        """The items of N and of Z in JSON, separated by `sep`, written from
        the histogram's runs without either list."""
        return (_json_runs(self.sizes[::-1], self.counts[::-1], sep),
                _json_runs(*self._z_runs(), sep))

    def to_json(self):
        """The record json.dumps(..., sort_keys=True) writes for n, K, N and
        Z."""
        N, Z = self._json_lists(", ")
        return f'{{"K": {self.K}, "N": [{N}], "Z": [{Z}], "n": {self.n}}}'

    @classmethod
    def from_dict(cls, d):
        """Inverse of to_json on the parsed record; rejects a record whose N
        or Z breaks the invariants listed in docs/formats.md."""
        d = json_object(d, "stats JSON")
        if missing := [key for key in ("n", "K", "N", "Z") if key not in d]:
            raise ValueError(f"stats JSON has no key {missing[0]!r}")
        N = _json_integers(d, "N")
        n, K = (json_key(d, key) for key in ("n", "K"))
        stats = cls(*np.unique(N, return_counts=True))  # raises unless N > 0
        if (stats.n, stats.K) != (n, K) or not np.array_equal(N, stats.N):
            raise ValueError("N must list K block sizes in nonincreasing "
                             "order that sum to n")
        Z = _json_integers(d, "Z")
        # the length check first: a huge max N must not allocate its Z
        if Z.size != stats.sizes[-1] \
                or not np.array_equal(Z, np.repeat(*stats._z_runs())):
            raise ValueError("Z inconsistent with N")
        return stats


def _json_runs(values, runs, sep):
    """The items of the JSON integer list that holds each values[i] runs[i]
    times, in order, joined by `sep` as json.dumps joins them; built by
    string repetition, not from the list."""
    text = "".join(f"{v}{sep}" * r
                   for v, r in zip(values.tolist(), runs.tolist()))
    return text[:len(text) - len(sep)]


def json_integer(value, integral_float=False):
    """value as an int if it is a JSON integer within int64, the one rule for
    integers in the package's JSON inputs; ValueError for a float, string or
    boolean.  With integral_float an integral float such as 1e3 is read as
    its integer (the experiment n_grid)."""
    if integral_float and isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"must be an integer, got {value!r}")
    if not -2 ** 63 <= value < 2 ** 63:
        raise ValueError(f"{value} is beyond int64")
    return int(value)


def json_number(value):
    """value as a float if it is a JSON number, integer or float: the
    counterpart of json_integer for the real-valued keys; ValueError for a
    string, boolean or any other value."""
    if not isinstance(value, (int, float, np.integer, np.floating)) \
            or isinstance(value, bool):
        raise ValueError(f"must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{value} is beyond the float range") from None


def json_numbers(values, length=None):
    """A JSON list of numbers (of `length` entries if given) as a tuple of
    floats by json_number."""
    if not isinstance(values, list) or length not in (None, len(values)):
        raise ValueError("must be a list of "
                         + (f"{length} numbers" if length else "numbers"))
    return tuple(json_number(v) for v in values)


def json_object(value, what):
    """value if it is a JSON object; ValueError naming `what` otherwise."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, not "
                         f"{type(value).__name__}")
    return value


def json_key(d, key, read=json_integer, default=None):
    """read(d[key]), with the key named in its error; an absent key gives
    `default` if one is set, else KeyError."""
    if default is not None and key not in d:
        return default
    try:
        return read(d[key])
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def _json_integers(d, key):
    """d[key] as an int64 array; ValueError unless it is a list of entries
    that json_integer accepts."""
    values = d[key]
    if not isinstance(values, list):
        raise ValueError(f"{key} must be a list of integers")
    if all(type(v) is int for v in values):  # fast path, same outcome
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass  # json_integer names the entry
    try:
        return np.array([json_integer(v) for v in values], dtype=np.int64)
    except ValueError as exc:
        raise ValueError(f"{key} must be a list of integers: {exc}") from None


def from_sizes(sizes):
    """PartitionStats from raw block sizes (any order), each at least 1."""
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.size == 0 or sizes.min() < 1:
        raise ValueError("need at least one block size, each at least 1")
    return PartitionStats(*np.unique(sizes, return_counts=True))


def from_observations(labels):
    """Build the sufficient statistic from a sequence of opaque labels."""
    counts = Counter(labels)
    if not counts:
        raise ValueError("empty observation sequence")
    return from_sizes(list(counts.values()))


def from_occupancy(counts):
    """Build from species occupancy counts (a mapping of species to count,
    or an array of counts); zero counts are dropped, negative ones
    rejected."""
    if isinstance(counts, dict):
        values = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    else:
        values = np.asarray(counts, dtype=np.int64)
    if np.any(values < 0):
        raise ValueError("occupancy counts must be nonnegative")
    values = values[values > 0]
    if values.size == 0:
        raise ValueError("no positive occupancy counts")
    return from_sizes(values)


# rows per write of write_sample_csv
_ROWS = 1 << 16


def write_sample_csv(path, labels):
    """One row per observation of the integer labels (any other dtype
    raises ValueError), single `species` column, CRLF row ends: csv.writer's
    bytes, formatted _ROWS rows at a time."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        raise ValueError(f"sample labels must be integers, got {labels.dtype}")
    with open(path, "w", newline="") as fh:
        fh.write("species\r\n")
        for start in range(0, labels.size, _ROWS):
            rows = labels[start:start + _ROWS].tolist()
            fh.write(("%d\r\n" * len(rows)) % tuple(rows))


def read_sample_counts(path):
    """Counter of the labels in the required `species` column of a sample
    CSV.  Blank lines are skipped; a row too short to hold the column, or a
    row the csv module cannot read, raises ValueError."""
    counts = _species_counts_bytes(path)
    return _species_counts_csv(path) if counts is None else counts


# bytes per read of the byte-split path
_BLOCK = 1 << 20


def _species_counts_bytes(path):
    """read_sample_counts for the common file, split on its bytes: a header
    that is exactly `species`, rows that end in LF or CRLF and hold no quote
    or comma, and UTF-8 as the encoding text-mode open uses.  Each block of
    whole lines is decoded and split on LF.  None for any other file, which
    the csv module reads."""
    if codecs.lookup(locale.getpreferredencoding(False)).name != "utf-8":
        return None
    counts = Counter()
    with open(path, "rb") as fh:
        # a first line longer than any accepted header is cut at 16 bytes
        if fh.readline(16) not in (b"species\n", b"species\r\n", b"species"):
            return None
        while block := fh.read(_BLOCK):
            if not block.endswith(b"\n"):
                block += fh.readline()  # the rest of the block's last line
            block = block.replace(b"\r\n", b"\n")
            if b'"' in block or b"," in block or b"\r" in block:
                return None  # a quoted or multi-column row, or a lone CR
            counts.update(block.decode().split("\n"))
    del counts[""]  # blank lines and the split after the last LF
    return counts


def _species_counts_csv(path):
    """read_sample_counts by the csv module, for every file."""
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        try:
            header = next(rows, [])
            if "species" not in header:
                raise ValueError(
                    "sample CSV must have a `species` header column")
            return Counter(map(itemgetter(header.index("species")),
                               filter(None, rows)))
        except IndexError:
            raise ValueError(
                "sample CSV row has no `species` field") from None
        except csv.Error as exc:
            raise ValueError(
                f"sample CSV line {rows.line_num}: {exc}") from None


def read_sample_csv(path):
    """Read a sample CSV with a required `species` header column."""
    return from_occupancy(read_sample_counts(path))


def write_occupancy_csv(path, species, counts):
    """The occupancy CSV that read_occupancy_csv reads: a `species,count`
    header, then one row per species, species ascending, CRLF row ends."""
    rows = sorted(zip(np.asarray(species).tolist(),
                      np.asarray(counts).tolist()))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["species", "count"])
        writer.writerows(rows)


def read_occupancy_csv(path):
    """Read an occupancy CSV with `species,count` header columns.  Each row
    names a species not named before and its count, a nonnegative decimal
    integer; rows with count 0 are dropped.  Any other row raises
    ValueError naming its line.  Blank lines are skipped."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            need = {"species", "count"}
            if reader.fieldnames is None \
                    or not need.issubset(reader.fieldnames):
                raise ValueError(
                    "occupancy CSV must have `species,count` columns")
            counts = {}
            for row in reader:
                species, count = row["species"], row["count"]
                where = f"occupancy CSV line {reader.line_num}"
                if species is None or count is None:
                    raise ValueError(
                        f"{where}: row has no `species` or `count`")
                if re.fullmatch(r"\s*[0-9]+\s*", count) is None:
                    raise ValueError(f"{where}: count {count!r} is not a "
                                     "nonnegative integer")
                if species in counts:
                    raise ValueError(f"{where}: species {species!r} repeated")
                counts[species] = int(count)
        except csv.Error as exc:  # reader.line_num lags a row that failed
            line = reader.reader.line_num
            raise ValueError(f"occupancy CSV line {line}: {exc}") from None
    return from_occupancy(counts)
