"""Deterministic CSV/JSON table emission and flat config parsing.

Output contract: a table is a parameter block plus rows.  CSV renders the parameters
as ``# key=value`` comment lines (re-parseable as a config file) followed by a header
row and data; JSON renders one object with "params", "columns", "units" and "rows".
Both formats run every number through the same formatter, so the decimal renderings
agree byte for byte, and identical inputs produce identical output bytes.  A table
body comes in as blocks, each its key (the block column's value, or None) and its
rows without that column: a 2-D float64 array, which CSV renders in one %-format
call with the key rendered once into its template, or row tuples, rendered cell by
cell.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import DomainError

__all__ = ["format_number", "format_rows", "format_param", "write_table", "parse_config_text"]

DATA_FORMAT = ".12g"


def format_number(value) -> str:
    """Render a data value; floats at 12 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return format(value, DATA_FORMAT)
    return str(value)


def format_rows(rows, prefix: str = "", key_idx=None, key_text: str = "") -> str:
    """One line per row: ``prefix``, then the cells as :func:`format_number`
    renders them, comma-joined, with ``key_text`` put in as cell ``key_idx`` of
    every row.  A 2-D float64 array takes one %-format over all its cells, with
    the key in its template; any other rows go cell by cell."""
    if isinstance(rows, np.ndarray) and rows.dtype == np.float64:
        cells = ["%" + DATA_FORMAT] * rows.shape[1]
        if key_idx is not None:
            cells.insert(key_idx, key_text.replace("%", "%%"))
        line = prefix.replace("%", "%%") + ",".join(cells) + "\n"
        return (line * len(rows)) % tuple(rows.ravel().tolist())
    return "".join(prefix + ",".join(cells) + "\n"
                   for cells in _cells(rows, key_idx, key_text, format_number))


def _cells(rows, key_idx, key_text, render):
    """Each row's cells as ``render`` gives them, with ``key_text`` put in at ``key_idx``."""
    for row in rows.tolist() if isinstance(rows, np.ndarray) else rows:
        cells = list(map(render, row))
        if key_idx is not None:
            cells.insert(key_idx, key_text)
        yield cells


def format_param(value) -> str:
    """Render a parameter with full round-trip fidelity (repr for floats)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ",".join(format_param(v) for v in value)
    return str(value)


def write_table(stream, command: str, params: dict, columns, units, rows,
                fmt: str = "csv", block_column: str | None = None):
    """Write one table in the requested format.

    ``units`` labels each column.  ``rows`` is the body as a sequence of blocks
    ``(key, rows)``: with ``block_column`` set, ``key`` is that column's value for
    the block's rows, which leave the column out, and CSV inserts a comment line
    wherever the key's text changes, visually grouping rows into blocks; without
    it, ``key`` is None and the rows hold every column.
    """
    columns = list(columns)
    units = list(units)
    if len(units) != len(columns):
        raise DomainError("units must label every column")
    key_idx = columns.index(block_column) if block_column else None
    if fmt == "csv":
        _write_csv(stream, command, params, columns, units, rows, key_idx)
    elif fmt == "json":
        _write_json(stream, command, params, columns, units, rows, key_idx)
    else:
        raise DomainError(f"unknown output format {fmt!r}")


def _write_csv(stream, command, params, columns, units, blocks, key_idx):
    stream.write(f"# command={command}\n")
    for key, value in params.items():
        stream.write(f"# {key}={format_param(value)}\n")
    stream.write("# units: " + ",".join(units) + "\n")
    stream.write(",".join(columns) + "\n")
    last = None
    for key, rows in blocks:
        text = "" if key_idx is None else format_number(key)
        if key_idx is not None and text != last:
            stream.write(f"# block: {columns[key_idx]}={text}\n")
        last = text
        stream.write(format_rows(rows, "", key_idx, text))


def _json_cell(value):  # by hand, so that numeric literals match the CSV cells
    text = json.dumps(value) if isinstance(value, str) else format_number(value)
    return json.dumps(text) if text == "nan" else text


def _write_json(stream, command, params, columns, units, blocks, key_idx):
    stream.write("{\n")
    stream.write(f'  "command": {json.dumps(command)},\n')
    stream.write('  "params": {')
    parts = [f"{json.dumps(k)}: {json.dumps(format_param(v))}" for k, v in params.items()]
    stream.write(", ".join(parts))
    stream.write("},\n")
    stream.write('  "columns": ' + json.dumps(list(columns)) + ",\n")
    stream.write('  "units": ' + json.dumps(list(units)) + ",\n")
    stream.write('  "rows": [\n')
    body = []
    for key, rows in blocks:
        body += ("    [" + ", ".join(cells) + "]"
                 for cells in _cells(rows, key_idx, _json_cell(key), _json_cell))
    stream.write(",\n".join(body))
    stream.write("\n  ]\n}\n")


def parse_config_text(text: str) -> dict:
    """Parse flat ``key=value`` config text into a string dict.

    Blank lines and ``#`` comments are ignored; later assignments of the
    same key win, so a file can be layered.  Values stay strings; typing
    is the caller's job.
    """
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise DomainError(f"config line {lineno}: empty key")
        out[key] = value
    return out
