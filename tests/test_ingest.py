"""`load_csv` against a row-by-row reference parser on odd cells and chunk edges.

`reference_load_csv` is the row loop that `load_csv` replaced: one
`_parse_numeric` call per numeric cell, one strip per categorical cell. The
chunked, column-wise parser must give the same columns (values, NaN places,
levels, codes, dtypes) or the same SchemaError, whatever the chunk size.
"""

import csv
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catenc import data
from catenc.data import MISSING_TOKENS, ColumnKind, DataTable, SchemaError, load_csv
from catenc.encoders import Categorical

NUM, CAT = ColumnKind.NUMERIC, ColumnKind.CATEGORICAL
HEADER = ["n1", "c1", "junk", "n2", "y"]


def reference_load_csv(path, schema, target):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        col_pos = {name: header.index(name) for name in schema}
        columns = {name: [] for name in schema}
        bad_counts = {name: 0 for name in schema}
        n_rows = 0
        for row in reader:
            if not row:
                continue
            n_rows += 1
            for name, kind in schema.items():
                cell = row[col_pos[name]] if col_pos[name] < len(row) else ""
                if kind is NUM:
                    value, bad = data._parse_numeric(cell)
                    bad_counts[name] += bad
                    columns[name].append(value)
                else:
                    text = cell.strip()
                    columns[name].append(None if text in MISSING_TOKENS else text)
    for name, kind in schema.items():
        if kind is NUM and n_rows and bad_counts[name] * 2 > n_rows:
            raise SchemaError(
                f"{path}: column {name!r} declared numeric but {bad_counts[name]}/{n_rows} cells do not parse"
            )
    return DataTable({name: Categorical.of(columns[name]) if kind is CAT else columns[name] for name, kind in schema.items()}, target)


def outcome(loader, path, schema):
    try:
        return loader(str(path), schema, "y")
    except SchemaError as exc:
        return str(exc)


def assert_same(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert got.schema == want.schema and got.row_count == want.row_count
    for name, col in want.columns.items():
        other = got.columns[name]
        if isinstance(col, np.ndarray):
            assert other.dtype == col.dtype
            np.testing.assert_array_equal(other, col)  # NaN places must match too
        else:
            assert other.levels == col.levels
            assert other.codes.dtype == col.codes.dtype
            np.testing.assert_array_equal(other.codes, col.codes)


def write_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        writer.writerows(rows)


def pad(cell):
    return st.sampled_from(["", " ", "\t", "\xa0"]).map(lambda p: p + cell + p)


ODD_CELLS = sorted(MISSING_TOKENS) + [
    "inf", "-inf", "Infinity", "nan", "NAN", "-nan", "1_0", "1e400", "-1e400", "1e-400", "1e-320",
    "0x10", "١٢", "+.5", "1.", "red", "two words", "a,b", 'say "hi"', "line\nbreak", "-",
]
CELL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr).flatmap(pad),
    st.integers(-(10**6), 10**6).map(str).flatmap(pad),
    st.sampled_from(ODD_CELLS).flatmap(pad),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=5),
)
ROW = st.one_of(
    st.just([]),  # a blank line
    st.lists(CELL, min_size=len(HEADER), max_size=len(HEADER)),
    st.lists(CELL, min_size=1, max_size=len(HEADER) + 2),  # short and long rows
)
SCHEMA = st.tuples(*(st.sampled_from([NUM, CAT]) for _ in range(4))).map(
    lambda kinds: dict(zip(["n1", "c1", "n2", "y"], kinds))
)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(ROW, max_size=14), schema=SCHEMA, chunk=st.integers(1, 5))
def test_chunked_columns_match_the_row_loop(tmp_path_factory, rows, schema, chunk):
    path = tmp_path_factory.mktemp("fuzz") / "t.csv"
    write_rows(path, rows)
    with mock.patch.object(data, "_CHUNK_ROWS", chunk):
        got = outcome(load_csv, path, schema)
    assert_same(got, outcome(reference_load_csv, path, schema))


SCHEMA_MIXED = {"n1": NUM, "c1": CAT, "n2": NUM, "y": NUM}


def odd_row(i):
    cells = ODD_CELLS + [f" {i * 0.25} ", str(i), f"lvl{i % 7}"]
    return [cells[(i * k) % len(cells)] for k in (1, 3, 5, 7)] + [str(i % 11)]


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("chunks", [0, 1])
def test_row_counts_at_the_chunk_edges(tmp_path, chunks, offset):
    n = max(chunks * data._CHUNK_ROWS + offset, 0)  # 0, 1, chunk - 1, chunk, chunk + 1
    write_rows(tmp_path / "t.csv", [odd_row(i) for i in range(n)])
    got = outcome(load_csv, tmp_path / "t.csv", SCHEMA_MIXED)
    assert_same(got, outcome(reference_load_csv, tmp_path / "t.csv", SCHEMA_MIXED))
    assert got.row_count == n


def test_a_chunk_of_blank_rows_does_not_end_the_file(tmp_path):
    k = data._CHUNK_ROWS
    rows = [odd_row(i) for i in range(k)] + [[]] * k + [odd_row(i) for i in range(k, k + 5)]
    write_rows(tmp_path / "t.csv", rows)
    got = outcome(load_csv, tmp_path / "t.csv", SCHEMA_MIXED)
    assert_same(got, outcome(reference_load_csv, tmp_path / "t.csv", SCHEMA_MIXED))
    assert got.row_count == k + 5


@pytest.mark.parametrize("extra_bad, fails", [(0, False), (1, True)])
def test_half_bad_bound_holds_across_chunks(tmp_path, extra_bad, fails):
    n = 2 * data._CHUNK_ROWS + 2  # three chunks
    bad = set(range(0, n, 2)) | set(range(1, 2 * extra_bad, 2))  # n/2 bad cells, or n/2 + 1
    rows = [["word" if i in bad else " 1.5", "a", "", "2", "3"] for i in range(n)]
    write_rows(tmp_path / "t.csv", rows)
    got = outcome(load_csv, tmp_path / "t.csv", SCHEMA_MIXED)
    assert_same(got, outcome(reference_load_csv, tmp_path / "t.csv", SCHEMA_MIXED))
    if fails:
        assert got.endswith(f"column 'n1' declared numeric but {n // 2 + 1}/{n} cells do not parse")
    else:
        assert np.isnan(got.column("n1")).sum() == n // 2


def test_one_junk_cell_does_not_send_the_chunk_through_parse_numeric(monkeypatch):
    # the whole chunk used to be redone by _parse_numeric, at about 4x the cost
    cells = [repr(0.5 * i) for i in range(data._CHUNK_ROWS)]
    cells[700] = "word"
    seen = []
    parse = data._parse_numeric
    monkeypatch.setattr(data, "_parse_numeric", lambda cell: seen.append(cell) or parse(cell))
    values, bad = data._parse_numeric_cells(cells)
    assert len(seen) <= 32
    assert bad == 1
    np.testing.assert_array_equal(values, [parse(c)[0] for c in cells])
