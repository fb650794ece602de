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


def csv_text(header, rows) -> str:
    """Render a header and rows of Python scalars as CSV, one line per row.

    Cells go through :func:`format_float`, so pass Python ``float``/``bool``
    (for example a numpy column's ``.tolist()``): ``np.bool_`` is not a
    ``bool`` and would not print as ``true``/``false``.
    """

    lines = [",".join(header)]
    lines.extend(",".join(map(format_float, row)) for row in rows)
    return "\n".join(lines) + "\n"


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
