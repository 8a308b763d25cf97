import csv
import io
import json
import re
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from pitmanyor.estimators import mle_sigma
from pitmanyor.inference import PriorSpec, forensic_lr, posterior_sigma
from pitmanyor.partition import (PartitionStats, from_observations,
                                 from_occupancy, from_sizes,
                                 read_occupancy_csv, read_sample_counts,
                                 read_sample_csv)
from pitmanyor.sampler import OccupancyCounts


def _z(st):
    """Occupancy counts Z as written to the JSON form."""
    return json.loads(st.to_json())["Z"]


def test_from_sizes_basic():
    st = from_sizes([2, 1])
    assert (st.n, st.K) == (3, 2)
    assert st.N.tolist() == [2, 1]
    assert _z(st) == [2, 1]


def test_from_sizes_sorts_descending():
    st = from_sizes([1, 5, 3, 3])
    assert st.N.tolist() == [5, 3, 3, 1]
    assert _z(st) == [4, 3, 3, 1, 1]
    assert (st.sizes.tolist(), st.counts.tolist()) == ([1, 3, 5], [1, 2, 1])


def test_single_block():
    st = from_observations(["a", "a", "a"])
    assert (st.n, st.K) == (3, 1)
    assert st.N.tolist() == [3]
    assert _z(st) == [1, 1, 1]


def test_from_observations_example():
    st = from_observations(["a", "b", "a"])
    assert (st.n, st.K) == (3, 2)
    assert st.N.tolist() == [2, 1]


def test_z_definition():
    st = from_sizes([4, 4, 2, 1, 1, 1])
    sizes = np.array([4, 4, 2, 1, 1, 1])
    Z = _z(st)
    for l in range(1, 5):
        assert Z[l - 1] == int(np.count_nonzero(sizes >= l))
    assert sum(Z) == st.n


def _record(n, K, N, Z):
    return json.dumps({"n": n, "K": K, "N": N, "Z": Z})


def test_invariant_validation():
    # increasing N, wrong sum, Z inconsistent with N
    with pytest.raises(ValueError):
        PartitionStats.from_json(_record(3, 2, [1, 2], [2, 1]))
    with pytest.raises(ValueError):
        PartitionStats.from_json(_record(4, 2, [2, 1], [2, 1]))
    with pytest.raises(ValueError, match="Z inconsistent with N"):
        PartitionStats.from_json(_record(3, 2, [2, 1], [1, 1]))
    # right length, Z_1 = K, nonincreasing, sums to n, yet not the true
    # Z = [3, 1, 1, 1]
    with pytest.raises(ValueError, match="Z inconsistent with N"):
        PartitionStats.from_json(_record(6, 3, [4, 1, 1], [3, 2, 1, 0]))


def test_histogram_validation():
    for sizes, counts in (([2, 1], [1, 1]), ([0, 1], [1, 1]),
                          ([1, 2], [1, 0]), ([1, 2], [1]), ([], [])):
        with pytest.raises(ValueError):
            PartitionStats(np.array(sizes), np.array(counts))


def test_equality_and_hash_ignore_labels():
    a = from_observations(["x", "y", "x"])
    b = from_observations(["p", "q", "q"])
    assert a == b
    assert hash(a) == hash(b)
    assert a != from_observations(["x", "y", "z"])


def test_expand_round_trip():
    st = from_sizes([3, 2, 2, 1])
    assert from_observations(st.expand().tolist()) == st


def test_json_round_trip():
    st = from_sizes([5, 2, 1, 1])
    assert PartitionStats.from_json(st.to_json()) == st


def test_from_occupancy_forms():
    want = from_sizes([3, 1])
    assert from_occupancy({"a": 3, "b": 1}) == want
    assert from_occupancy(np.array([3, 0, 1])) == want
    occ = OccupancyCounts(counts={7: 3, 9: 1}, regime="multinomial", n=4)
    assert from_occupancy(occ) == want


def test_from_occupancy_all_zero():
    with pytest.raises(ValueError):
        from_occupancy(np.array([0, 0]))


def test_empty_inputs():
    with pytest.raises(ValueError):
        from_observations([])
    with pytest.raises(ValueError):
        from_sizes([0, 0])


def test_read_sample_csv(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("species\na\nb\na\nc\n")
    st = read_sample_csv(path)
    assert (st.n, st.K) == (4, 3)
    assert st.N.tolist() == [2, 1, 1]


def test_read_sample_csv_missing_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label\na\nb\n")
    with pytest.raises(ValueError):
        read_sample_csv(path)


_LABELS = hst.text(alphabet='ab,"\' \r\n', max_size=4)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(rows=hst.lists(hst.one_of(hst.none(), _LABELS), max_size=12),
       other_column=hst.booleans(),
       line_end=hst.sampled_from(["\n", "\r\n"]))
@example(rows=["a,b", '"', "", None, "a,b", "x\r\ny"], other_column=False,
         line_end="\r\n")
@example(rows=["\ra"], other_column=True, line_end="\n")  # "0,\ra" splits
def test_read_sample_counts_matches_dictreader(rows, other_column, line_end):
    # None stands for a blank line; labels hold commas, quotes, empty
    # strings and line breaks.  The writer leaves a lone \r unquoted under
    # \n endings, which splits the row; that row is then too short.
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=line_end)
    writer.writerow(["id", "species"] if other_column else ["species"])
    for i, label in enumerate(rows):
        if label is None:
            out.write(line_end)
        else:
            writer.writerow([i, label] if other_column else [label])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.csv"
        path.write_text(out.getvalue(), newline="")
        with open(path, newline="") as fh:
            want = [row["species"] for row in csv.DictReader(fh)]
        if None in want:  # a row too short for the species field
            with pytest.raises(ValueError):
                read_sample_counts(path)
        else:
            assert read_sample_counts(path) == Counter(want)


def test_read_sample_counts_rejects_short_row(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("id,species\n1,a\n2\n")
    with pytest.raises(ValueError, match="no `species` field"):
        read_sample_counts(path)


def test_read_occupancy_csv(tmp_path):
    path = tmp_path / "occ.csv"
    path.write_text("species,count\na,3\nb,1\n\nc,0\n")
    st = read_occupancy_csv(path)  # blank line skipped, zero count dropped
    assert (st.n, st.K) == (4, 2)
    assert st.N.tolist() == [3, 1]


@pytest.mark.parametrize("rows,message", [
    ("a,3\nb\n", "line 3: row has no"),
    ("a,3\nb,-2\n", "line 3: count '-2' is not a nonnegative integer"),
    ("a,3\nb,2.5\n", "line 3: count '2.5' is not a nonnegative integer"),
    ("a,3\na,1\n", "line 3: species 'a' repeated"),
], ids=["short_row", "negative", "non_integer", "repeated"])
def test_read_occupancy_csv_rejects_bad_row(tmp_path, rows, message):
    path = tmp_path / "occ.csv"
    path.write_text("species,count\n" + rows)
    with pytest.raises(ValueError, match=message):
        read_occupancy_csv(path)


def test_read_occupancy_csv_missing_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("species\na\n")
    with pytest.raises(ValueError):
        read_occupancy_csv(path)


# ---------------------------------------------------------------------------
# The histogram against the N and Z forms of the JSON record

def _reference_json(sizes):
    """The JSON record from descending N and Z_l = #{j : N_j >= l}."""
    sizes = np.asarray(sizes, dtype=np.int64)
    N = np.sort(sizes)[::-1]
    Z = np.cumsum(np.bincount(sizes)[::-1])[::-1][1:]
    return json.dumps({"n": int(N.sum()), "K": int(N.size),
                       "N": N.tolist(), "Z": Z.tolist()}, sort_keys=True)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(sizes=hst.lists(hst.integers(1, 2000), min_size=1, max_size=300))
@example(sizes=[7])  # K = 1
@example(sizes=[1] * 300)  # all singletons
@example(sizes=[10 ** 6])  # one block of 1e6
def test_json_matches_n_and_z_reference(sizes):
    st = from_sizes(sizes)
    assert st.to_json() == _reference_json(sizes)
    assert PartitionStats.from_json(st.to_json()) == st
    assert np.array_equal(
        st.expand(), np.repeat(np.arange(len(sizes)), sorted(sizes)[::-1]))


def test_documented_json_example():
    doc = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()
    section = doc.split("## Partition statistics JSON", 1)[1]
    example_text = re.search(r"```json\n(.*?)\n```", section, re.S).group(1)
    st = PartitionStats.from_json(example_text)
    assert st.to_json() == json.dumps(json.loads(example_text),
                                      sort_keys=True)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("work", [
    lambda: from_sizes([10 ** 7]),
    lambda: mle_sigma(from_sizes([10 ** 7]), 1.0),
    lambda: posterior_sigma(from_sizes([10 ** 7]), PriorSpec()),
    lambda: forensic_lr(from_sizes([10 ** 7, 1])),
], ids=["from_sizes", "mle_sigma", "posterior_sigma", "forensic_lr"])
def test_one_block_of_1e7_stays_small(work):
    # a single block of size n allocates nothing of length n
    assert _traced_peak(work) < 8 * 2 ** 20
