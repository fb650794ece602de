"""Deterministic text formatting shared by CSV and JSON writers.

Reals are rendered with '.' decimals, no separators, and 17 significant
digits so every value round-trips exactly; outputs carry no timestamps,
making files byte-reproducible for identical inputs.
"""

from __future__ import annotations

import json
import math

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


def csv_text(header, columns) -> str:
    """Render a header and equal-length columns of Python scalars as CSV.

    Every cell reads as :func:`format_float` would print it. A column whose
    cells are all ``float`` is formatted with ``%.17g``, which gives the same
    bytes for every double (``nan``, ``inf``, ``-inf`` and ``-0`` included);
    any other column goes through :func:`format_float`. Pass Python scalars
    (for example a numpy column's ``.tolist()``): ``np.bool_`` is not a
    ``bool`` and would not print as ``true``/``false``.

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
    cells = [None] * (n_rows * width)
    formats = []
    for j, column in enumerate(columns):
        if all(type(x) is float for x in column):
            formats.append("%.17g")
            cells[j::width] = column
        else:
            formats.append("%s")
            cells[j::width] = map(format_float, column)
    row = ",".join(formats) + "\n"
    block = row * _CSV_BLOCK_ROWS
    full = n_rows - n_rows % _CSV_BLOCK_ROWS
    parts = [",".join(header) + "\n"]
    parts.extend(
        block % tuple(cells[r * width : (r + _CSV_BLOCK_ROWS) * width])
        for r in range(0, full, _CSV_BLOCK_ROWS)
    )
    parts.append(row * (n_rows - full) % tuple(cells[full * width :]))
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
