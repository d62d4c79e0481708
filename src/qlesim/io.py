"""Deterministic CSV/JSON table emission and flat config parsing.

Output contract: a table is a parameter block plus rows.  CSV renders the
parameters as ``# key=value`` comment lines (re-parseable as a config
file) followed by a header row and data; JSON renders one object with
"params", "columns", "units" and "rows".  Both formats run every number
through the same formatter, so the decimal renderings agree byte for
byte, and identical inputs produce identical output bytes.  A CSV body is
written one run of rows at a time, each run in one format call.
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
    flat = tuple(chain.from_iterable(rows))
    widths = set(map(len, rows))
    if len(widths) == 1 and set(map(type, flat)) <= _FLOAT_ONLY:
        line = prefix.replace("%", "%%") + ",".join(["%" + DATA_FORMAT] * widths.pop()) + "\n"
        return (line * len(rows)) % flat
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
        # a run ends where the key object changes; equal keys can render apart (0.0, -0.0)
        if block_idx is not None and row[block_idx] is not last_key:
            stream.write(format_rows(run))
            run, last_key = [], row[block_idx]
            if format_number(last_key) != last_block:
                last_block = format_number(last_key)
                stream.write(f"# block: {block_column}={last_block}\n")
        run.append(row)
    stream.write(format_rows(run))


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
