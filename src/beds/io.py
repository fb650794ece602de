"""Deterministic text formatting shared by CSV and JSON writers.

Reals are rendered with '.' decimals, no separators, and 17 significant
digits so every value round-trips exactly; outputs carry no timestamps,
making files byte-reproducible for identical inputs. :func:`beside` runs
one piece of work, such as writing a file, in a child forked with
``os.fork`` beside the calling process, which reads the pickled value back
through a pipe.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import pickle
import signal
import sys
import threading
from io import BytesIO
from typing import NamedTuple

import numpy as np

__all__ = ["csv_text", "format_float", "json_dumps", "write_csv"]


def format_float(x: float) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if math.isnan(x):
        return "nan"
    return f"{x:.17g}"


# --- '%.17g' of float64 arrays ----------------------------------------------------
#
# A finite x != 0 with decimal exponent k prints the 17 digits of
# D = round(|x| * 10**(16 - k)), 10**16 <= D < 10**17, rounded half to even,
# in fixed notation when -4 <= k < 17 and as d.ddde±XX otherwise, with
# trailing zeros dropped. The kernel computes D exactly: 10**(16 - k) is a
# double-double hi + lo, and |x| * hi is a rounded product plus its exact
# residual (Dekker's two-product). Cells it cannot settle this way go to
# format_float: nan, ±inf, ±0, |x| outside [1e-280, 1e281), and a product
# within 2**-30 of a half-integer (ties included; the computed fraction is
# within 2**-40 of the exact one).

_K_RANGE = 282  # the tables hold k with |k| <= _K_RANGE
_SPLITTER = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves
_TIE_MARGIN = 2.0**-30
_E16, _E17 = 10**16, 10**17
# Each cell's source bytes: its 17 digits (0-16), "-.0e", the exponent's
# sign and 4 digits (21-25), the separator and a NUL that pads.
_MINUS, _DOT, _ZERO, _E, _EXP_SIGN, _EXP, _SEP, _PAD = 17, 18, 19, 20, 21, 22, 26, 27
_SOURCE_WIDTH = 28
_CELL_WIDTH = 25  # "-d.dddddddddddddddde-XXX" and a separator
# Exponent classes: k + 4 for fixed notation (-4 <= k < 17), then
# scientific with e+XX, e+XXX, e-XX, e-XXX.
_N_CLASSES = 25
_GATHER_CELLS = 1024


def _split(v):
    c = _SPLITTER * v
    head = c - (c - v)
    return head, v - head


def _pow10_dd(p: int) -> tuple[float, float]:
    """hi + lo within 2**-104 relative of 10**p, from integer arithmetic."""

    q, e = 10**p, 0
    if p < 0:
        # q / 2**e: the floor of 10**p * 2**e, an integer of over 106 bits.
        e = 110 - 4 * p
        q = (1 << e) // 10**-p
    hi = float(q)
    return math.ldexp(hi, -e), math.ldexp(float(q - int(hi)), -e)


def _layout(digits: int, k_class: int) -> list[int]:
    """Source positions of a positive cell with ``digits`` significant digits."""

    if k_class < 21:
        k = k_class - 4
        if k < 0:
            cell = [_ZERO, _DOT, *[_ZERO] * (-k - 1), *range(digits)]
        elif digits > k + 1:
            cell = [*range(k + 1), _DOT, *range(k + 1, digits)]
        else:
            cell = list(range(k + 1))
    else:
        three = (k_class - 21) % 2
        cell = [0, *([_DOT, *range(1, digits)] if digits > 1 else [])]
        cell += [_E, _EXP_SIGN, *range(_EXP + 2 - three, _EXP + 4)]
    cell.append(_SEP)
    return cell + [_PAD] * (_CELL_WIDTH - len(cell))


class _Tables(NamedTuple):
    # Rows hi, lo, head of hi and tail of hi of 10**(16 - k), each by k + _K_RANGE.
    pow10: np.ndarray
    # By 4-digit group: its ASCII bytes as one uint32, and its trailing zeros.
    group_text: np.ndarray
    group_zeros: np.ndarray
    # By k + _K_RANGE: source bytes 17-25.
    exponent_text: np.ndarray
    # By key (sign * 17 + digits - 1) * _N_CLASSES + class: a cell's source
    # positions. A negative cell is its positive cell behind a minus sign.
    layout: np.ndarray


@functools.cache
def _tables() -> _Tables:
    """The kernel's tables, built on first use (about 5 ms) rather than at import."""

    pow10 = np.array([_pow10_dd(16 - k) for k in range(-_K_RANGE, _K_RANGE + 1)])
    group = np.arange(10_000)
    digits = np.stack([group // 1000, group // 100 % 10, group // 10 % 10, group % 10], axis=1)
    group_text = (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    exponent_text = np.column_stack(
        [
            np.tile(np.frombuffer(b"-.0e", dtype=np.uint8), (2 * _K_RANGE + 1, 1)),
            np.repeat(np.frombuffer(b"-+", dtype=np.uint8), [_K_RANGE, _K_RANGE + 1]),
            group_text[np.abs(np.arange(-_K_RANGE, _K_RANGE + 1))].view(np.uint8).reshape(-1, 4),
        ]
    )
    positive = np.array([_layout(s, c) for s in range(1, 18) for c in range(_N_CLASSES)], dtype=np.intp)
    negative = np.column_stack([np.full(len(positive), _MINUS), positive[:, :-1]])
    tables = _Tables(
        pow10=np.vstack([pow10.T, _split(pow10[:, 0])]),
        group_text=group_text,
        group_zeros=sum((group % 10**z == 0).astype(np.int64) for z in range(1, 5)),
        exponent_text=exponent_text,
        layout=np.concatenate([positive, negative]),
    )
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D = round(a * 10**(16 - k)) as int64, and where that rounding is near a tie.

    Each step is its own ufunc call, so no fused multiply-add can change a
    bit: product + error is exactly a * hi.
    """

    index = k + _K_RANGE
    hi, lo, hi_head, hi_tail = (np.take(row, index) for row in _tables().pow10)
    product = a * hi
    head, tail = _split(a)
    error = head * hi_head - product
    error += head * hi_tail
    error += tail * hi_head
    error += tail * hi_tail
    # A block's temporaries set the formatting memory peak: each is freed once used.
    del head, tail
    whole = product.astype(np.int64)
    fraction = product - whole
    del product
    error += a * lo
    fraction += error
    del index, hi, lo, hi_head, hi_tail, error
    near_tie = np.abs(fraction - np.floor(fraction) - 0.5) < _TIE_MARGIN
    return whole + np.rint(fraction).astype(np.int64), near_tie


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each cell's 17 digits D and decimal exponent k, and the cells left to format_float.

    ``|x|`` rounds to ``D * 10**(k - 16)`` with ``10**16 <= D < 10**17``;
    the returned indices (``slow``) hold ``D = 10**16`` and ``k = 0``.
    """

    fast = np.isfinite(x)
    a = np.where(fast, np.abs(x), 1.0)
    fast &= (a >= 1e-280) & (a < 1e281)
    a[~fast] = 1.0
    # A guess never above the decimal exponent; D >= 10**17 moves it up.
    k = np.floor(np.log10(a) - 2.0**-20).astype(np.int64)
    D, near_tie = _scaled(a, k)
    low = np.flatnonzero(D >= _E17)
    if len(low):
        k[low] += 1
        D[low], near_tie[low] = _scaled(a[low], k[low])
    slow = np.flatnonzero(~fast | near_tie | (D < _E16) | (D >= _E17))
    D[slow], k[slow] = _E16, 0
    return D, k, slow


def _float_cells(x: np.ndarray, ends: str) -> np.ndarray:
    """The ``%.17g`` cells of a 2-D float64 block as an ``S`` array of its shape.

    Each cell of column ``j`` ends with the separator ``ends[j]``.
    """

    shape = x.shape
    x = x.ravel()
    n = len(x)
    tables = _tables()
    D, k, slow = _decimal(x)
    # D's leading digit, then its four groups of 4 digits.
    groups = np.empty((5, n), dtype=np.int64)
    np.divmod(D, 10**8, out=(groups[2], groups[4]))
    del D
    np.divmod(groups[2], 10**8, out=(groups[0], groups[2]))
    np.divmod(groups[2], 10**4, out=(groups[1], groups[2]))
    np.divmod(groups[4], 10**4, out=(groups[3], groups[4]))
    zeros = tables.group_zeros[groups[4]]
    for g in (3, 2, 1):
        # Group g's zeros count where every group after it is zero.
        more = np.flatnonzero(zeros == 16 - 4 * g)
        zeros[more] += tables.group_zeros[groups[g, more]]
    k_class = np.where((k >= -4) & (k < 17), k + 4, 21 + 2 * (k < 0) + (np.abs(k) >= 100))
    key = (np.signbit(x) * 17 + 16 - zeros) * _N_CLASSES + k_class
    del zeros, k_class

    source = np.empty((n, _SOURCE_WIDTH), dtype=np.uint8)
    source[:, 0] = groups[0] + ord("0")
    source[:, 1:17].view(np.uint32)[...] = tables.group_text[groups[1:].T]
    source[:, _MINUS:_SEP] = np.take(tables.exponent_text, k + _K_RANGE, axis=0)
    source.reshape(*shape, _SOURCE_WIDTH)[..., _SEP] = np.frombuffer(ends.encode("ascii"), dtype=np.uint8)
    source[:, _PAD] = 0
    # A block's temporaries set the formatting memory peak: free the digits before the gather.
    del groups, k

    # The gather's index takes 8 bytes per output byte, so it is built for
    # a slice of the cells at a time.
    cells = np.empty((n, _CELL_WIDTH), dtype=np.uint8)
    for start in range(0, n, _GATHER_CELLS):
        stop = min(start + _GATHER_CELLS, n)
        index = np.take(tables.layout, key[start:stop], axis=0)
        index += np.arange(start * _SOURCE_WIDTH, stop * _SOURCE_WIDTH, _SOURCE_WIDTH)[:, None]
        np.take(source, index, out=cells[start:stop], mode="clip")
    cells = cells.view(f"S{_CELL_WIDTH}").ravel()
    cells[slow] = [(format_float(x[i].item()) + ends[i % len(ends)]).encode() for i in slow.tolist()]
    return cells.reshape(shape)


# Rows formatted per block; the kernel's temporaries grow with it.
_CSV_BLOCK_ROWS = 2048


def _other_cells(column, separator: str) -> np.ndarray:
    """A non-float column's cells, each ended by ``separator``, as an ``S`` array."""

    if isinstance(column, np.ndarray) and column.dtype.kind == "b":
        return np.where(column, f"true{separator}".encode(), f"false{separator}".encode())
    values = column.tolist() if isinstance(column, np.ndarray) else column
    return np.array([(format_float(v) + separator).encode() for v in values], dtype=bytes)


def _block_cells(columns, floats: list[int], separators: list[str]) -> np.ndarray:
    """The ``(rows, len(columns))`` ``S`` array of one block's cells, separators included.

    ``floats`` lists the columns that go through :func:`_float_cells`.
    """

    cells = {}
    if floats:
        block = np.empty((len(columns[0]), len(floats)))
        for i, j in enumerate(floats):
            block[:, i] = columns[j]
        float_cells = _float_cells(block, "".join(separators[j] for j in floats))
        if len(floats) == len(columns):
            return float_cells
        cells.update(zip(floats, float_cells.T))
    for j, column in enumerate(columns):
        if j not in cells:
            cells[j] = _other_cells(column, separators[j])
    itemsize = max(column.dtype.itemsize for column in cells.values())
    table = np.empty((len(columns[0]), len(columns)), dtype=f"S{itemsize}")
    for j, column in cells.items():
        table[:, j] = column
    return table


def _block_bytes(columns, floats: list[int], separators: list[str], start: int) -> bytes:
    """The CSV bytes of the block of rows from ``start``."""

    block = [column[start : start + _CSV_BLOCK_ROWS] for column in columns]
    # Cells are NUL-padded fixed-width items; no cell holds a NUL.
    cells = _block_cells(block, floats, separators).view(np.uint8)
    return cells[cells != 0].tobytes()


def write_csv(handle, header, columns) -> None:
    """Write a header and equal-length columns as CSV to the binary ``handle``.

    Every cell reads as :func:`format_float` would print its Python scalar.
    A NumPy float column goes through a vectorized ``%.17g`` (the same bytes
    for every double, ``nan``, ``inf``, ``-inf`` and ``-0`` included), a
    NumPy bool column prints ``true``/``false``, and any other column (an
    integer or object array, or a list such as a sweep column) goes through
    :func:`format_float` cell by cell. The header is UTF-8 and every line
    ends in ``\n``.

    Rows are formatted one block of ``_CSV_BLOCK_ROWS`` at a time and
    written in order on the calling thread, so the buffer is bounded by one
    block, not by the file. A failure in formatting or writing a block is
    raised here, after every earlier block has been written.

    Raises ValueError, before anything is written, when the header's width
    differs from the number of columns or the columns differ in length.
    """

    if len(header) != len(columns):
        raise ValueError(f"CSV header has {len(header)} names for {len(columns)} columns")
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"CSV columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    separators = [","] * (len(columns) - 1) + ["\n"]
    floats = [j for j, c in enumerate(columns) if isinstance(c, np.ndarray) and c.dtype.kind == "f"]
    handle.write((",".join(header) + "\n").encode("utf-8"))
    for start in range(0, n_rows, _CSV_BLOCK_ROWS):
        handle.write(_block_bytes(columns, floats, separators, start))


def csv_text(header, columns) -> str:
    """The text :func:`write_csv` writes for ``header`` and ``columns``."""

    buffer = BytesIO()
    write_csv(buffer, header, columns)
    return buffer.getvalue().decode("utf-8")


def _json_ready(obj, key: str = ""):
    if isinstance(obj, float) and not math.isfinite(obj):
        if math.isnan(obj):
            return None
        raise ValueError(f"{key or 'value'}: is {obj!r}, which JSON cannot hold")
    if isinstance(obj, dict):
        return {k: _json_ready(v, f"{key}.{k}" if key else str(k)) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v, f"{key}.{i}" if key else str(i)) for i, v in enumerate(obj)]
    return obj


def json_dumps(obj) -> str:
    """Strict JSON with sorted keys and nan as null; an infinity raises ValueError naming its dotted key."""

    return json.dumps(_json_ready(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


@contextlib.contextmanager
def beside(work, fork: bool = True):
    """Run ``work()`` beside the ``with`` body, which gets a ``result()`` returning its value.

    On Linux, in a process that runs no other thread, and when ``fork`` is
    true, ``work`` runs in a forked child that ignores SIGINT, pickles the
    value into a pipe and exits 0, or exits 1, printing nothing, if anything
    raised. If the pipe ends before a whole value, ``result()`` raises
    ChildProcessError naming the child's exit code. Leaving the block by
    any path kills the child if it is still running, then reaps it.
    Elsewhere (fork is unsafe on macOS and beside other threads, and missing
    on Windows) ``result()`` calls ``work()`` here.
    """

    if not fork or sys.platform != "linux" or threading.active_count() > 1:
        yield work
        return
    # The child must not write this process's buffered output a second time.
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            with open(write_end, "wb") as sink:
                pickle.dump(work(), sink)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    pipe, exit_code = open(read_end, "rb"), None

    def result():
        nonlocal exit_code
        try:
            return pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            exit_code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            message = f"the child process exited with code {exit_code} before sending its result"
            raise ChildProcessError(message) from None

    try:
        yield result
    finally:
        pipe.close()
        if exit_code is None and os.waitpid(pid, os.WNOHANG)[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
