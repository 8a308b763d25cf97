import csv
import io
import json
import locale
import re
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from pitmanyor import cli, partition, population
from pitmanyor.estimators import mle_sigma
from pitmanyor.inference import PriorSpec, forensic_lr, posterior_sigma
from pitmanyor.partition import (PartitionStats, from_observations,
                                 from_occupancy, from_sizes,
                                 read_occupancy_csv, read_sample_counts,
                                 read_sample_csv, write_sample_csv)
from pitmanyor.population import make_explicit
from pitmanyor.sampler import RngStream, sample_iid_labels


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
        PartitionStats.from_dict(json.loads(_record(3, 2, [1, 2], [2, 1])))
    with pytest.raises(ValueError):
        PartitionStats.from_dict(json.loads(_record(4, 2, [2, 1], [2, 1])))
    with pytest.raises(ValueError, match="Z inconsistent with N"):
        PartitionStats.from_dict(json.loads(_record(3, 2, [2, 1], [1, 1])))
    # right length, Z_1 = K, nonincreasing, sums to n, yet not the true
    # Z = [3, 1, 1, 1]
    with pytest.raises(ValueError, match="Z inconsistent with N"):
        PartitionStats.from_dict(
            json.loads(_record(6, 3, [4, 1, 1], [3, 2, 1, 0])))
    # entries that are not JSON integers are rejected, not truncated or cast
    for record in (_record(3, 2, [2.7, 1], [2, 1]),
                   _record(3, 2, [2, 1], [2.9, 1.2]),
                   _record(3, 2, ["2", 1], [2, 1])):
        with pytest.raises(ValueError, match="must be a list of integers"):
            PartitionStats.from_dict(json.loads(record))
    # int64 is the limit, and a short Z is refused before max N is allocated
    for record in (_record(2 ** 64, 1, [2 ** 64], [1]),
                   _record(1, 1, [1], [2 ** 65])):
        with pytest.raises(ValueError, match="beyond int64"):
            PartitionStats.from_dict(json.loads(record))
    with pytest.raises(ValueError, match="Z inconsistent with N"):
        PartitionStats.from_dict(
            json.loads(_record(2 ** 40, 1, [2 ** 40], [1])))
    # n and K follow the same integer rule, and a missing key is named
    for record, message in ((_record(3.0, 2, [2, 1], [2, 1]), "n: must be"),
                            (_record(3, 2.0, [2, 1], [2, 1]), "K: must be"),
                            (_record(True, True, [1], [1]), "n: must be"),
                            (json.dumps({"n": 1, "K": 1, "N": [1]}), "'Z'"),
                            (json.dumps({"n": 1, "N": [1], "Z": [1]}), "'K'")):
        with pytest.raises(ValueError, match=message):
            PartitionStats.from_dict(json.loads(record))


def test_histogram_validation():
    for sizes, counts in (([2, 1], [1, 1]), ([0, 1], [1, 1]),
                          ([1, 2], [1, 0]), ([1, 2], [1]), ([], [])):
        with pytest.raises(ValueError):
            PartitionStats(np.array(sizes), np.array(counts))


def test_n_beyond_int64_is_rejected():
    # the int64 product of sizes and counts would wrap to 0 and to -2^63
    for blocks in (4, 2):
        with pytest.raises(ValueError, match="beyond int64"):
            from_sizes([2 ** 62] * blocks)
    stats = from_sizes([2 ** 62, 2 ** 62 - 1])
    assert stats.n == 2 ** 63 - 1 and type(stats.n) is int


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
    assert PartitionStats.from_dict(json.loads(st.to_json())) == st


def test_from_occupancy_forms():
    want = from_sizes([3, 1])
    assert from_occupancy({"a": 3, "b": 1}) == want
    assert from_occupancy(np.array([3, 0, 1])) == want


def test_from_occupancy_all_zero():
    with pytest.raises(ValueError):
        from_occupancy(np.array([0, 0]))


def test_empty_inputs():
    with pytest.raises(ValueError):
        from_observations([])
    with pytest.raises(ValueError):
        from_sizes([0, 0])
    # a negative size or count is an error, not a dropped entry
    with pytest.raises(ValueError):
        from_sizes([3, -2])
    with pytest.raises(ValueError):
        from_sizes([3, 0])
    with pytest.raises(ValueError, match="nonnegative"):
        from_occupancy({"a": 3, "b": -2})


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


# labels of characters of one to four UTF-8 bytes, NUL and a space among
# them; no byte of a multi-byte character is a comma, quote, CR or LF
_BYTE_LABELS = hst.text(alphabet="ab \x00\xe9\u4e2d\U0001f600", max_size=3)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(rows=hst.lists(hst.one_of(hst.none(), _BYTE_LABELS), max_size=12),
       line_end=hst.sampled_from(["\n", "\r\n"]),
       final_newline=hst.booleans(),
       block=hst.sampled_from([1, 2, 3, 5, 1 << 20]))
@example(rows=[], line_end="\n", final_newline=False, block=1)  # "species"
@example(rows=["a", None, None], line_end="\r\n", final_newline=True,
         block=2)  # trailing blank lines, a CRLF across a read
@example(rows=["\U0001f600"], line_end="\n", final_newline=False,
         block=1)  # a 4-byte label across reads, no final newline
def test_read_sample_counts_byte_split(rows, line_end, final_newline, block):
    # a one-column file of unquoted labels takes the byte split, whatever
    # the block size: the counts equal the labels written and the csv
    # module's reading of the same file
    text = line_end.join(["species"] + [label or "" for label in rows])
    want = Counter(label for label in rows if label)
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(partition, "_BLOCK", block)
        path = Path(tmp) / "s.csv"
        path.write_bytes((text + line_end * final_newline).encode())
        assert partition._species_counts_bytes(path) == want
        assert read_sample_counts(path) == want
        if "\x00" not in text or sys.version_info >= (3, 11):
            # the csv module reads NUL from Python 3.11 on
            assert partition._species_counts_csv(path) == want


@pytest.mark.parametrize("text", [
    "id,species\n1,a\n", "species,id\na,1\n", "species\n\"a\"\n",
    "species\na\rb\n", "species\na\r", "species\ra\n", "Species\na\n",
    "\ufeffspecies\na\n", "",
], ids=["two_columns", "species_first", "quoted", "lone_cr", "final_cr",
        "cr_header", "other_header", "bom", "empty"])
def test_byte_split_declines_other_files(tmp_path, text):
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode())
    assert partition._species_counts_bytes(path) is None


def test_byte_split_declines_a_locale_other_than_utf8(tmp_path, monkeypatch):
    path = tmp_path / "s.csv"
    path.write_text("species\na\n")
    monkeypatch.setattr(locale, "getpreferredencoding",
                        lambda do_setlocale=True: "ISO-8859-1")
    assert partition._species_counts_bytes(path) is None


@pytest.mark.parametrize("data", [
    b"species\na\n\xff\n", b"species\na\n\xc3", b"species\n\xed\xa0\x80\n",
    b"id,species\n1,a\n2,\xff\n",
], ids=["invalid_byte", "truncated", "surrogate", "two_columns"])
def test_read_sample_counts_invalid_utf8(tmp_path, data):
    # the byte split (one column) and the csv module (two) raise alike
    path = tmp_path / "s.csv"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError):
        read_sample_counts(path)


def test_csv_module_errors_name_the_line(tmp_path):
    # a field past the csv module's limit; the byte split reads such a label
    path = tmp_path / "s.csv"
    label = "x" * 131_073
    path.write_text(f"species\na\n{label}\n")
    assert read_sample_counts(path) == Counter(["a", label])
    path.write_text(f"id,species\n1,a\n2,{label}\n")
    with pytest.raises(ValueError, match="sample CSV line 3: field larger"):
        read_sample_counts(path)
    path.write_text(f"species,count\na,1\n{label},2\n")
    with pytest.raises(ValueError, match="occupancy CSV line 3: field"):
        read_occupancy_csv(path)


def test_read_sample_counts_rejects_short_row(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("id,species\n1,a\n2\n")
    with pytest.raises(ValueError, match="no `species` field"):
        read_sample_counts(path)


def test_write_sample_csv(tmp_path):
    pop = make_explicit([0.6, 0.4])
    labels = sample_iid_labels(pop, 20, RngStream(1))
    path = tmp_path / "s.csv"
    write_sample_csv(path, labels)
    lines = path.read_text().splitlines()
    assert lines[0] == "species"
    assert len(lines) == 21


def test_write_sample_csv_matches_csv_writer(tmp_path):
    # integer labels over more rows than two write batches: 0, small labels
    # and fresh power-law labels at and above 2^62, and a uint64 array
    rows = 2 * partition._ROWS + 5
    cap = population._INDEX_CAP
    path, want = tmp_path / "s.csv", tmp_path / "ref.csv"
    for labels in (np.resize([0, 1, 7, 12345, cap, cap + 1, 2**63 - 1], rows),
                   np.resize(np.array([0, 3, 2 ** 63, 2 ** 64 - 1],
                                      dtype=np.uint64), rows)):
        write_sample_csv(path, labels)
        with open(want, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["species"])
            writer.writerows([lab] for lab in labels.tolist())
        assert path.read_bytes() == want.read_bytes()
        assert read_sample_counts(path) == Counter(map(str, labels.tolist()))
    # the writer takes integers only, so no row needs quoting
    for labels in (np.array([0.5, 1.0]), ["a,b", "7"]):
        with pytest.raises(ValueError, match="must be integers"):
            write_sample_csv(path, labels)


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

def _reference_record(sizes):
    """The JSON record from descending N and Z_l = #{j : N_j >= l}."""
    sizes = np.asarray(sizes, dtype=np.int64)
    N = np.sort(sizes)[::-1]
    Z = np.cumsum(np.bincount(sizes)[::-1])[::-1][1:]
    return {"n": int(N.sum()), "K": int(N.size), "N": N.tolist(),
            "Z": Z.tolist()}


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(sizes=hst.lists(hst.integers(1, 2000), min_size=1, max_size=300))
@example(sizes=[7])  # K = 1
@example(sizes=[1] * 300)  # all singletons
@example(sizes=[1])  # max N = 1 and K = 1
@example(sizes=[10 ** 6])  # one block of 1e6
def test_json_matches_n_and_z_reference(sizes):
    # the compact record and simulate's indented stats file, both rendered
    # from the histogram's runs, against json.dumps of the lists
    st = from_sizes(sizes)
    record = _reference_record(sizes)
    assert st.to_json() == json.dumps(record, sort_keys=True)
    provenance = {"config": {"n": st.n, "out": "s.csv"}, "version": "0"}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        cli._write_stats(path, st, provenance, force=False)
        assert path.read_text() == json.dumps(
            {"provenance": provenance, "stats": record}, sort_keys=True,
            indent=2) + "\n"
    assert PartitionStats.from_dict(json.loads(st.to_json())) == st
    assert np.array_equal(
        st.expand(), np.repeat(np.arange(len(sizes)), sorted(sizes)[::-1]))


def test_documented_json_example():
    doc = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()
    section = doc.split("## Partition statistics JSON", 1)[1]
    example_text = re.search(r"```json\n(.*?)\n```", section, re.S).group(1)
    st = PartitionStats.from_dict(json.loads(example_text))
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
