"""Deterministic text formatting shared by CSV and JSON writers.

Reals are rendered with '.' decimals, no separators, and 17 significant
digits so every value round-trips exactly; outputs carry no timestamps,
making files byte-reproducible for identical inputs.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["csv_text", "format_float", "json_dumps"]


def format_float(x: float) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if math.isnan(x):
        return "nan"
    return f"{x:.17g}"


# Rows formatted by one ``%`` per block; the last, partial block gets its own template.
_CSV_BLOCK_ROWS = 1024
_BOOL_TEXT = ("false", "true")


def _bool_cells(block: np.ndarray) -> list[str]:
    return [_BOOL_TEXT[x] for x in block.tolist()]


def _scalar_cells(block) -> list[str]:
    return list(map(format_float, block))


def _column_format(column) -> tuple[str, object]:
    """A column's ``%`` code and the function from a block of its rows to that code's cells."""

    kind = column.dtype.kind if isinstance(column, np.ndarray) else "O"
    if kind == "f":
        return "%.17g", np.ndarray.tolist
    if kind in "iu":
        return "%d", np.ndarray.tolist
    if kind == "b":
        return "%s", _bool_cells
    return "%s", _scalar_cells


def csv_text(header, columns) -> str:
    """Render a header and equal-length columns as CSV.

    Every cell reads as :func:`format_float` would print its Python scalar.
    A NumPy column is formatted by its dtype: floats with ``%.17g`` (the same
    bytes for every double, ``nan``, ``inf``, ``-inf`` and ``-0`` included),
    bools as ``true``/``false`` and integers as decimal digits. Any other
    column (an object array, or a list such as a sweep column) goes through
    :func:`format_float` cell by cell. Cells are converted to Python scalars
    one block of rows at a time, so no whole-column list is built.

    Raises ValueError when the header's width differs from the number of
    columns or the columns differ in length.
    """

    if len(header) != len(columns):
        raise ValueError(f"CSV header has {len(header)} names for {len(columns)} columns")
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"CSV columns differ in length: {sorted(lengths)}")
    width = len(columns)
    n_rows = lengths.pop() if lengths else 0
    formats = [_column_format(column) for column in columns]
    row = ",".join(code for code, _ in formats) + "\n"
    block = row * _CSV_BLOCK_ROWS
    parts = [",".join(header) + "\n"]
    for start in range(0, n_rows, _CSV_BLOCK_ROWS):
        stop = min(start + _CSV_BLOCK_ROWS, n_rows)
        cells = [None] * ((stop - start) * width)
        for j, (column, (_, convert)) in enumerate(zip(columns, formats)):
            cells[j::width] = convert(column[start:stop])
        template = block if stop - start == _CSV_BLOCK_ROWS else row * (stop - start)
        parts.append(template % tuple(cells))
    return "".join(parts)


def _nan_to_none(obj):
    if isinstance(obj, float) and math.isnan(obj):
        return None
    if isinstance(obj, dict):
        return {k: _nan_to_none(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nan_to_none(v) for v in obj]
    return obj


def json_dumps(obj) -> str:
    """Serialize with sorted keys and NaN mapped to null; ends with a newline."""

    return json.dumps(_nan_to_none(obj), indent=2, sort_keys=True) + "\n"
