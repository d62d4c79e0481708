"""Table emission and config parsing."""

import io as std_io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlesim.errors import DomainError
from qlesim.io import (format_number, format_param, format_rows, parse_config_text,
                       write_table)


def test_format_number_significant_digits():
    assert format_number(1.0) == "1"
    assert format_number(0.5) == "0.5"
    assert format_number(1.0 / 3.0) == "0.333333333333"
    assert format_number(3) == "3"


def test_format_rows_is_format_number_per_cell():
    # a float64 array takes one %-format; any other rows go cell by cell
    for row in ((1.0, 1.0 / 3.0, -0.0, float("nan"), float("-inf"), 5e-324, 1.5e16),
                (np.float64(0.1), 2.5e-7), ("name", 2.5, True, 7), ()):
        for prefix in ("", "3,", "%s%%,"):
            line = prefix + ",".join(format_number(v) for v in row) + "\n"
            assert format_rows([row], prefix) == line
            assert format_rows([row] * 3, prefix) == line * 3
            if row and not isinstance(row[0], str):
                assert format_rows(np.array([row] * 3, dtype=float), prefix) == line * 3
    assert format_rows([(1.0, 2.0), (3.0,)]) == "1,2\n3\n"
    assert format_rows([]) == ""
    assert format_rows(np.empty((0, 3))) == ""


def test_int_array_goes_cell_by_cell():
    # '%.12g' % 10**18 is 1e+18, but format_number gives the integer
    rows = np.array([[10**18, -3]])
    assert format_rows(rows, "7,") == "7,1000000000000000000,-3\n"
    buf = std_io.StringIO()
    write_table(buf, "demo", {}, ["a", "g", "b"], ["-"] * 3, [(0.5, rows)], block_column="g")
    assert buf.getvalue().endswith("# block: g=0.5\n1000000000000000000,0.5,-3\n")


def per_row_csv(command, params, columns, units, rows, block_column):
    """The CSV writer as it was with one format call per row: the oracle of
    the writer that formats a run of rows at once."""
    out = [f"# command={command}\n"]
    out += [f"# {key}={format_param(value)}\n" for key, value in params.items()]
    out += ["# units: " + ",".join(units) + "\n", ",".join(columns) + "\n"]
    block_idx = columns.index(block_column) if block_column else None
    last_key = last_block = object()
    for row in rows:
        if block_idx is not None and row[block_idx] is not last_key:
            last_key = row[block_idx]
            if format_number(last_key) != last_block:
                last_block = format_number(last_key)
                out.append(f"# block: {columns[block_idx]}={last_block}\n")
        if set(map(type, row)) <= {float}:
            out.append(",".join(["%.12g"] * len(row)) % tuple(row) + "\n")
        else:
            out.append(",".join(map(format_number, row)) + "\n")
    return "".join(out)


def blocks(columns, rows, block_column):
    """The rows as write_table's blocks, split by the old identity rule: a block ends
    where the key object changes, and its rows leave the key column out; a block of
    Python floats only is a float64 array, as the CLI's runners hand it."""
    if block_column is None:
        out = [(None, list(rows))]
    else:
        idx, out, last = columns.index(block_column), [], object()
        for row in rows:
            if row[idx] is not last:
                last = row[idx]
                out.append((last, []))
            out[-1][1].append((*row[:idx], *row[idx + 1:]))
    return [(key, np.array(part, dtype=float) if part and all(
        type(v) is float for row in part for v in row) else part) for key, part in out]


FLOATS = st.one_of(st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"),
                                    5e-324, 1.5e16, 1.0 / 3.0]), st.floats())
CELLS = st.one_of(FLOATS, FLOATS.map(np.float64), st.integers(), st.booleans(),
                  st.text(max_size=4))
# block keys: 0.0 and -0.0 are equal but render apart; float("0.5") is equal to 0.5
# but a distinct object; "%d%%" is text the writer must escape in its format template
FLOAT_KEYS = (0.0, -0.0, 0.5, float("0.5"), float("nan"))
KEYS = FLOAT_KEYS + (np.float64(0.5), 1, True, "a", "%d%%")


@st.composite
def tables(draw):
    """(columns, rows, block column): runs of rows that share a key object in column
    "g", at a drawn index, with the other cells Python floats only or any cells."""
    cells = FLOATS if draw(st.booleans()) else CELLS
    width = draw(st.integers(1, 4))
    at = draw(st.integers(0, width))
    rows = []
    for key, n in draw(st.lists(st.tuples(st.sampled_from(KEYS), st.integers(1, 4)),
                                max_size=6)):
        for _ in range(n):
            row = draw(st.lists(cells, min_size=width, max_size=width))
            rows.append((*row[:at], key, *row[at:]))
    columns = [f"c{i}" for i in range(width)]
    columns.insert(at, "g")
    block = draw(st.sampled_from([None, "g", "c0"]))
    return columns, rows, block


@settings(max_examples=300, deadline=None)
@example((["g", "c0"], [(0.0, 1.0), (-0.0, 2.0), (float("0.5"), 3.0), (float("0.5"), 4.0)],
          "g"))
@example((["c0", "g"], [(1.5, "%d%%"), (2.5, "%d%%")], "g"))  # a key in a float block's template
@given(tables())
def test_write_table_csv_matches_per_row_writer(table):
    columns, rows, block = table
    buf = std_io.StringIO()
    write_table(buf, "demo", {"p": 0.25}, columns, ["-"] * len(columns),
                blocks(columns, rows, block), fmt="csv", block_column=block)
    assert buf.getvalue() == per_row_csv("demo", {"p": 0.25}, columns, ["-"] * len(columns),
                                         rows, block)
    # JSON puts each block's key back in its column
    split, whole = std_io.StringIO(), std_io.StringIO()
    write_table(split, "demo", {}, columns, ["-"] * len(columns), blocks(columns, rows, block),
                fmt="json", block_column=block)
    write_table(whole, "demo", {}, columns, ["-"] * len(columns), [(None, rows)], fmt="json")
    assert split.getvalue() == whole.getvalue()


def test_float_array_blocks_match_per_row_writer():
    specials = [float("nan"), 0.0, -0.0, float("inf"), float("-inf"), 5e-324, 1.5e16]
    rows = [(key, a, b) for key in (0.5, -0.0) for a, b in zip(specials, specials[::-1])]
    columns = ["c0", "g", "c1"]
    for block in (None, "g", "c0"):
        body = blocks(columns, rows, block)
        assert all(isinstance(part, np.ndarray) for _, part in body)
        buf = std_io.StringIO()
        write_table(buf, "demo", {}, columns, ["-"] * 3, body, block_column=block)
        assert buf.getvalue() == per_row_csv("demo", {}, columns, ["-"] * 3, rows, block)


def test_format_param_roundtrips_floats():
    for value in (0.1, 1e-12, 12345.6789, 2.0 / 3.0):
        assert float(format_param(value)) == value
    assert format_param((1.0, 0.5)) == "1.0,0.5"


def test_csv_layout():
    buf = std_io.StringIO()
    write_table(buf, "demo", {"gamma": 0.1}, ["a", "b"], ["u1", "u2"],
                blocks(["a", "b"], [(1.0, 2.0), (3.0, 4.0)], None), fmt="csv")
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# command=demo"
    assert lines[1] == "# gamma=0.1"
    assert lines[2] == "# units: u1,u2"
    assert lines[3] == "a,b"
    assert lines[4] == "1,2"


def test_block_comments_group_rows():
    buf = std_io.StringIO()
    rows = [(1.0, 0.1), (1.0, 0.2), (2.0, 0.3)]
    write_table(buf, "demo", {}, ["g", "x"], ["-", "-"], blocks(["g", "x"], rows, "g"),
                fmt="csv", block_column="g")
    text = buf.getvalue()
    assert text.count("# block: g=1") == 1
    assert text.count("# block: g=2") == 1


def test_json_is_valid_and_numbers_match_csv():
    rows = [(0.5, 1.0 / 7.0), (2.0, 1e-9)]
    csv_buf, json_buf = std_io.StringIO(), std_io.StringIO()
    body = blocks(["a", "b"], rows, None)
    write_table(csv_buf, "demo", {"p": 1}, ["a", "b"], ["-", "-"], body, fmt="csv")
    write_table(json_buf, "demo", {"p": 1}, ["a", "b"], ["-", "-"], body, fmt="json")
    parsed = json.loads(json_buf.getvalue())
    assert parsed["columns"] == ["a", "b"]
    csv_cells = [
        line.split(",") for line in csv_buf.getvalue().splitlines()
        if not line.startswith("#")
    ][1:]
    json_text = json_buf.getvalue()
    for row_cells in csv_cells:
        for cell in row_cells:
            assert cell in json_text


def test_unknown_format_rejected():
    with pytest.raises(DomainError):
        write_table(std_io.StringIO(), "demo", {}, ["a"], ["-"], [], fmt="yaml")


def test_units_must_match_columns():
    with pytest.raises(DomainError):
        write_table(std_io.StringIO(), "demo", {}, ["a", "b"], ["-"], [])


def test_parse_config_text():
    text = """
    # comment
    gamma = 0.25
    seed=7

    out = results.csv
    """
    parsed = parse_config_text(text)
    assert parsed == {"gamma": "0.25", "seed": "7", "out": "results.csv"}


def test_parse_config_rejects_garbage():
    with pytest.raises(DomainError, match="key=value"):
        parse_config_text("gamma 0.25")
    with pytest.raises(DomainError, match="empty key"):
        parse_config_text("=5")
