"""Deterministic CSV/JSON table emission and flat config parsing.

Output contract: a table is a parameter block plus rows.  CSV renders the parameters
as ``# key=value`` comment lines (re-parseable as a config file) followed by a header
row and data; JSON renders one object with "params", "columns", "units" and "rows".
Both formats run every number through the same formatter, so the decimal renderings
agree byte for byte, and identical inputs produce identical output bytes.  A CSV body
is written one run of rows, rows that share one block-key object, at a time: one
format call a run, with the key rendered once into its template.
"""

from __future__ import annotations

import json
import math
from itertools import chain

from .errors import DomainError

__all__ = ["format_number", "format_rows", "format_param", "write_table", "parse_config_text"]

DATA_FORMAT = ".12g"
_FLOAT_ONLY = frozenset([float])


def format_number(value) -> str:
    """Render a data value; floats at 12 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return format(value, DATA_FORMAT)
    return str(value)


def format_rows(rows, prefix: str = "") -> str:
    """One line per row: ``prefix``, then the cells as :func:`format_number`
    renders them, comma-joined.  Rows of Python floats of one width take one
    %-format over all their cells; any other rows go cell by cell."""
    return _format_run(rows, prefix)


def _format_run(rows, prefix="", key_idx=None, key_text=""):
    """:func:`format_rows`, where cell ``key_idx`` of every row is one key rendered as
    ``key_text``: that text sits in the %-format template, in place of a cell."""
    flat = list(chain.from_iterable(rows))
    widths = set(map(len, rows))
    if len(widths) == 1:
        cells = ["%" + DATA_FORMAT] * (width := widths.pop())
        if key_idx is not None:
            cells[key_idx] = key_text.replace("%", "%%")
            del flat[key_idx::width]
        if set(map(type, flat)) <= _FLOAT_ONLY:
            line = prefix.replace("%", "%%") + ",".join(cells) + "\n"
            return (line * len(rows)) % tuple(flat)
    return "".join(prefix + ",".join(map(format_number, row)) + "\n" for row in rows)


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

    ``units`` labels each column; ``block_column`` (CSV only) inserts a
    comment line whenever that column's value changes, visually grouping
    rows into blocks.
    """
    columns = list(columns)
    units = list(units)
    if len(units) != len(columns):
        raise DomainError("units must label every column")
    if fmt == "csv":
        _write_csv(stream, command, params, columns, units, rows, block_column)
    elif fmt == "json":
        _write_json(stream, command, params, columns, units, rows)
    else:
        raise DomainError(f"unknown output format {fmt!r}")


def _write_csv(stream, command, params, columns, units, rows, block_column):
    stream.write(f"# command={command}\n")
    for key, value in params.items():
        stream.write(f"# {key}={format_param(value)}\n")
    stream.write("# units: " + ",".join(units) + "\n")
    stream.write(",".join(columns) + "\n")
    block_idx = columns.index(block_column) if block_column else None
    run, last_key, last_block = [], object(), None
    for row in rows:
        # a run ends where the key object changes, as equal keys can render apart (0.0,
        # -0.0); it takes one format call, with its key rendered once into the template
        if block_idx is not None and row[block_idx] is not last_key:
            stream.write(_format_run(run, "", block_idx, last_block))
            run, last_key = [], row[block_idx]
            if (text := format_number(last_key)) != last_block:
                stream.write(f"# block: {block_column}={text}\n")
            last_block = text
        run.append(row)
    stream.write(_format_run(run, "", block_idx, last_block))


def _write_json(stream, command, params, columns, units, rows):
    # rows are rendered by hand so numeric literals match the CSV cells
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
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, str):
                cells.append(json.dumps(v))
            else:
                text = format_number(v)
                cells.append(json.dumps(text) if text == "nan" else text)
        body.append("    [" + ", ".join(cells) + "]")
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
