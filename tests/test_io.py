"""Table emission and config parsing."""

import io as std_io
import json

import numpy as np
import pytest

from qlesim.errors import DomainError
from qlesim.io import (format_number, format_param, format_row, parse_config_text,
                       write_table)


def test_format_number_significant_digits():
    assert format_number(1.0) == "1"
    assert format_number(0.5) == "0.5"
    assert format_number(1.0 / 3.0) == "0.333333333333"
    assert format_number(3) == "3"


def test_format_row_is_format_number_per_cell():
    # a row of floats takes one %-format; any other row goes cell by cell
    for row in ((1.0, 1.0 / 3.0, -0.0, float("nan"), float("-inf"), 5e-324, 1.5e16),
                (np.float64(0.1), 2.5e-7), ("name", 2.5, True, 7), ()):
        assert format_row(row) == ",".join(format_number(v) for v in row)


def test_format_param_roundtrips_floats():
    for value in (0.1, 1e-12, 12345.6789, 2.0 / 3.0):
        assert float(format_param(value)) == value
    assert format_param((1.0, 0.5)) == "1.0,0.5"


def test_csv_layout():
    buf = std_io.StringIO()
    write_table(buf, "demo", {"gamma": 0.1}, ["a", "b"], ["u1", "u2"],
                [(1.0, 2.0), (3.0, 4.0)], fmt="csv")
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# command=demo"
    assert lines[1] == "# gamma=0.1"
    assert lines[2] == "# units: u1,u2"
    assert lines[3] == "a,b"
    assert lines[4] == "1,2"


def test_block_comments_group_rows():
    buf = std_io.StringIO()
    write_table(buf, "demo", {}, ["g", "x"], ["-", "-"],
                [(1.0, 0.1), (1.0, 0.2), (2.0, 0.3)], fmt="csv", block_column="g")
    text = buf.getvalue()
    assert text.count("# block: g=1") == 1
    assert text.count("# block: g=2") == 1


def test_json_is_valid_and_numbers_match_csv():
    rows = [(0.5, 1.0 / 7.0), (2.0, 1e-9)]
    csv_buf, json_buf = std_io.StringIO(), std_io.StringIO()
    write_table(csv_buf, "demo", {"p": 1}, ["a", "b"], ["-", "-"], rows, fmt="csv")
    write_table(json_buf, "demo", {"p": 1}, ["a", "b"], ["-", "-"], rows, fmt="json")
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
