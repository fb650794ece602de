"""CSV formatting: the block-formatted ``csv_text`` against a per-cell reference,
and ``write_csv`` streaming the same bytes to a file."""

import math
import random
import struct
import sys
import threading
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from io import BytesIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beds import io
from beds.engine import SAMPLE_FIELDS, run, trace_to_csv
from beds.io import _CSV_BLOCK_ROWS, csv_text, format_float, write_csv
from beds.scenarios import steady_state


def reference_csv_text(header, columns) -> str:
    """One ``format_float`` call per cell, one joined string per row."""

    lines = [",".join(header)]
    lines.extend(",".join(map(format_float, row)) for row in zip(*columns))
    return "\n".join(lines) + "\n"


BLOCK = _CSV_BLOCK_ROWS
ROW_COUNTS = (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3)

FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308])
INTS = st.integers() | st.sampled_from([2**53 + 1, 2**64 - 1, -(2**63), -1])
ANY_CELL = st.one_of(INTS, FLOATS, st.booleans())
FLOAT_POOL = st.lists(FLOATS, min_size=1, max_size=6)
# The cells a column is made from. A mixed pool holds a float and an int or
# bool, in any order.
POOLS = st.one_of(
    FLOAT_POOL,
    st.lists(INTS, min_size=1, max_size=6),
    st.lists(st.booleans(), min_size=1, max_size=6),
    st.tuples(FLOATS, INTS | st.booleans(), st.lists(ANY_CELL, max_size=4)).flatmap(
        lambda cells: st.permutations([cells[0], cells[1], *cells[2]])
    ),
)


def random_doubles(picker: random.Random, n: int) -> list[float]:
    """Doubles from uniform random bit patterns: any sign, subnormals, infinities, NaNs."""

    return list(struct.unpack(f"<{n}d", picker.randbytes(8 * n)))


def build_columns(n_rows: int, pools: list[list], seed: int) -> list[list]:
    """Columns of ``n_rows`` cells, one per pool of cells.

    Each column opens with its pool (so a mixed column is mixed from its
    first rows). Random picks fill the rest, which keeps thousands of rows
    cheap to draw: from the pool, and for a float pool also from doubles
    with random bit patterns.
    """

    picker = random.Random(seed)
    columns = []
    for pool in pools:
        population = pool
        if all(type(x) is float for x in pool):
            population = pool + random_doubles(picker, n_rows)
        columns.append((pool + picker.choices(population, k=n_rows))[:n_rows])
    return columns


def assert_same_csv(got: str, want: str) -> None:
    # Lines, so that a failure reports the first differing row instead of
    # diffing two texts of thousands of lines.
    assert got.splitlines(keepends=True) == want.splitlines(keepends=True)


ROWS = st.sampled_from(ROW_COUNTS)
SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=100, deadline=None)
@given(n_rows=ROWS, pools=st.lists(POOLS, min_size=1, max_size=5), seed=SEEDS)
def test_csv_text_equals_per_cell_reference(n_rows, pools, seed):
    columns = build_columns(n_rows, pools, seed)
    header = [f"c{j}" for j in range(len(columns))]
    assert_same_csv(csv_text(header, columns), reference_csv_text(header, columns))


@settings(max_examples=25, deadline=None)
@given(
    n_rows=ROWS,
    pools=st.lists(FLOAT_POOL, min_size=len(SAMPLE_FIELDS), max_size=len(SAMPLE_FIELDS)),
    seed=SEEDS,
)
def test_csv_text_equals_reference_on_sample_shaped_columns(n_rows, pools, seed):
    columns = build_columns(n_rows, pools, seed)
    assert_same_csv(csv_text(SAMPLE_FIELDS, columns), reference_csv_text(SAMPLE_FIELDS, columns))


# NumPy columns: (dtype, pool of cells). Float pools carry every special
# double, so each column of them opens with NaN, infinities, -0 and subnormals.
SPECIAL_DOUBLES = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.225073858507201e-308]
ARRAY_POOLS = st.one_of(
    st.tuples(st.just(np.float64), FLOAT_POOL.map(lambda pool: pool + SPECIAL_DOUBLES)),
    st.tuples(st.just(np.bool_), st.lists(st.booleans(), min_size=1, max_size=6)),
    st.tuples(st.just(np.int64), st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=6)),
    st.tuples(
        st.just(np.uint64), st.lists(st.integers(0, 2**64 - 1) | st.just(2**64 - 1), min_size=1, max_size=6)
    ),
    st.tuples(st.just(object), POOLS),
)


@settings(max_examples=100, deadline=None)
@given(n_rows=ROWS, typed_pools=st.lists(ARRAY_POOLS, min_size=1, max_size=5), seed=SEEDS)
def test_csv_text_of_numpy_columns_equals_reference_on_their_lists(n_rows, typed_pools, seed):
    dtypes = [dtype for dtype, _ in typed_pools]
    cells = build_columns(n_rows, [pool for _, pool in typed_pools], seed)
    columns = [np.array(column, dtype=dtype) for dtype, column in zip(dtypes, cells)]
    header = [f"c{j}" for j in range(len(columns))]
    want = reference_csv_text(header, [column.tolist() for column in columns])
    assert_same_csv(csv_text(header, columns), want)


def test_csv_cell_format():
    text = csv_text(
        ["x", "n", "flag"],
        [[float("nan"), float("-inf"), -0.0, 0.1], [2**64 - 1, -3, 0, 7], [True, False, True, 1.5]],
    )
    assert text == (
        "x,n,flag\n"
        "nan,18446744073709551615,true\n"
        "-inf,-3,false\n"
        "-0,0,true\n"
        "0.10000000000000001,7,1.5\n"
    )


def test_csv_text_rejects_columns_of_different_lengths():
    with pytest.raises(ValueError, match="differ in length"):
        csv_text(["a", "b"], [[1.0, 2.0], [3.0]])


def test_csv_text_rejects_header_of_other_width():
    with pytest.raises(ValueError, match="2 names for 3 columns"):
        csv_text(["a", "b"], [[1.0], [2.0], [3.0]])


# --- write_csv: the same bytes, streamed ----------------------------------------------


def mixed_columns(n_rows: int, seed: int) -> list:
    """A float, a bool and an int array, and a plain list mixing ints and floats."""

    picker = random.Random(seed)
    return [
        np.array(random_doubles(picker, n_rows)),
        np.array([picker.random() < 0.5 for _ in range(n_rows)], dtype=bool),
        np.array([picker.randrange(-(2**63), 2**63) for _ in range(n_rows)], dtype=np.int64),
        [picker.choice([7, -0.0, 2**64 - 1, 0.1]) for _ in range(n_rows)],
    ]


@pytest.mark.parametrize("n_rows", ROW_COUNTS)
def test_write_csv_to_a_file_writes_the_bytes_of_csv_text(tmp_path, n_rows):
    header = ["x", "flag", "n", "énergie_τ"]
    columns = mixed_columns(n_rows, seed=n_rows)
    path = tmp_path / "out.csv"
    with open(path, "wb") as handle:
        write_csv(handle, header, columns)
    got = path.read_bytes()
    assert got == csv_text(header, columns).encode("utf-8")
    assert got.decode("utf-8") == reference_csv_text(header, [c if isinstance(c, list) else c.tolist() for c in columns])
    if n_rows == 0:
        assert got == "x,flag,n,énergie_τ\n".encode("utf-8")


def test_write_csv_rejects_bad_columns_before_writing(tmp_path):
    path = tmp_path / "out.csv"
    with open(path, "wb") as handle:
        with pytest.raises(ValueError, match="differ in length"):
            write_csv(handle, ["a", "b"], [[1.0, 2.0], [3.0]])
    assert path.read_bytes() == b""


def streamed_peak(path, columns) -> int:
    """The tracemalloc peak, in bytes, of writing ``columns`` to ``path``."""

    tracemalloc.start()
    try:
        with open(path, "wb") as handle:
            write_csv(handle, SAMPLE_FIELDS, columns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_csv_memory_peak_does_not_grow_with_the_row_count(tmp_path):
    rng = np.random.default_rng(7)
    csv_text(SAMPLE_FIELDS, [rng.random(2) for _ in SAMPLE_FIELDS])  # builds the kernel's tables
    peaks = {}
    for n_rows in (8 * 1024, 64 * 1024):
        columns = [rng.standard_normal(n_rows) * 10.0 ** rng.integers(-8, 8, n_rows) for _ in SAMPLE_FIELDS]
        path = tmp_path / f"{n_rows}.csv"
        peaks[n_rows] = streamed_peak(path, columns)
        assert path.stat().st_size > 100 * n_rows
    # The 64k-row file is over 6 MB; the writer holds one block of it.
    assert abs(peaks[64 * 1024] - peaks[8 * 1024]) < 2**20, peaks


# --- write_csv: the helper thread -------------------------------------------------


@pytest.mark.parametrize("blocks", [2, 3, 4, 5])
def test_write_csv_formats_the_odd_blocks_on_one_helper_thread(monkeypatch, blocks):
    header = ["x", "flag", "n", "mixed"]
    n_rows = blocks * BLOCK - blocks
    columns = mixed_columns(n_rows, seed=blocks)
    want = reference_csv_text(header, [c if isinstance(c, list) else c.tolist() for c in columns]).encode()
    assert csv_text(header, columns).encode() == want
    formatted = {}

    def recording(*args):
        formatted[args[-1]] = threading.current_thread()
        return block_bytes(*args)

    block_bytes = io._block_bytes
    monkeypatch.setattr(io, "_block_bytes", recording)
    buffer = BytesIO()
    write_csv(buffer, header, columns)
    assert buffer.getvalue() == want
    assert sorted(formatted) == list(range(0, n_rows, BLOCK))
    main = threading.current_thread()
    on_main = [formatted[start] is main for start in sorted(formatted)]
    assert on_main == [k % 2 == 0 for k in range(blocks)]
    assert len(set(formatted.values()) - {main}) == 1


@pytest.mark.parametrize("n_rows, threads", [(0, 0), (1, 0), (BLOCK, 0), (BLOCK + 1, 1)])
def test_write_csv_of_at_most_one_block_starts_no_thread(monkeypatch, n_rows, threads):
    started = []

    def recording(thread):
        started.append(thread)
        start(thread)

    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", recording)
    write_csv(BytesIO(), ["x", "flag"], [np.zeros(n_rows), np.ones(n_rows, dtype=bool)])
    assert len(started) == threads


class BlockFailed(Exception):
    pass


@pytest.mark.parametrize("failing", [1, 2, 3])
def test_a_failing_block_is_raised_after_the_blocks_before_it(monkeypatch, failing):
    # Blocks 1 and 3 are the helper's, block 2 the calling thread's.
    column = np.arange(5 * BLOCK, dtype=np.float64)
    threads = []

    def failing_cells(block, *args):
        if block[0][0] == failing * BLOCK:
            threads.append(threading.current_thread())
            raise BlockFailed(failing)
        return block_cells(block, *args)

    block_cells = io._block_cells
    monkeypatch.setattr(io, "_block_cells", failing_cells)
    running = threading.active_count()
    buffer = BytesIO()
    with pytest.raises(BlockFailed):
        write_csv(buffer, ["x"], [column])
    assert (threads[0] is threading.current_thread()) == (failing == 2)
    monkeypatch.undo()
    assert buffer.getvalue() == csv_text(["x"], [column[: failing * BLOCK]]).encode()
    assert threading.active_count() == running


def test_a_failing_write_is_raised_and_leaves_no_thread():
    class Full(BytesIO):
        def write(self, data):
            if self.tell() > 100:
                raise OSError(28, "No space left on device")
            return super().write(data)

    running = threading.active_count()
    with pytest.raises(OSError, match="No space"):
        write_csv(Full(), ["x"], [np.arange(4 * BLOCK, dtype=np.float64)])
    assert threading.active_count() == running


def test_three_callers_at_once_each_write_their_own_bytes():
    # Three callers and their three helpers share the kernel's tables on two
    # cores, switching threads every 10 us.
    columns = [[np.array(random_doubles(random.Random(i), 3 * BLOCK))] for i in range(3)]
    want = [csv_text(["x"], column).encode() for column in columns]
    got = [None] * 3

    def write(i):
        buffer = BytesIO()
        write_csv(buffer, ["x"], columns[i])
        got[i] = buffer.getvalue()

    callers = [threading.Thread(target=write, args=(i,)) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert got == want


# --- the float64 kernel against '%.17g' ----------------------------------------------


def assert_floats_print_as_percent_17g(values) -> None:
    """Each value, in a float64 column, prints byte for byte as ``'%.17g' % x``."""

    # Two columns, so that cells end in both separators.
    column = np.asarray(values, dtype=np.float64)
    a, b = np.resize(column, (2, (len(column) + 1) // 2))
    want = "".join(f"{'%.17g' % x},{'%.17g' % y}\n" for x, y in zip(a.tolist(), b.tolist()))
    assert_same_csv(csv_text(["a", "b"], [a, b]), "a,b\n" + want)


def test_kernel_prints_exact_ties_as_percent_17g():
    # m / 2**(q + 1) with m odd scales by 10**(16 - k) to a half-integer when
    # k = 16 - q: those are the ties, rounded half to even.
    picker = np.random.default_rng(1)
    values = []
    for q in range(17, 25):
        lo = math.ceil(10.0 ** (16 - q) * 2 ** (q + 1))
        hi = math.ceil(10.0 ** (17 - q) * 2 ** (q + 1))
        m = picker.integers(lo, hi, 2000) | 1
        values.extend((m[m < hi] / 2.0 ** (q + 1)).tolist())
    values = np.array(values)
    for x in values[::50].tolist():
        k = math.floor(math.log10(x))
        assert (Fraction(x) * Fraction(10) ** (16 - k)).denominator == 2
    assert_floats_print_as_percent_17g(np.concatenate([values, -values]))


def test_kernel_prints_neighbours_of_powers_of_ten_as_percent_17g():
    powers = np.array([float(f"1e{k}") for k in range(-30, 31)])
    values = [powers]
    for steps in (1, 2, 3):
        below, above = powers.copy(), powers.copy()
        for _ in range(steps):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
        values += [below, above]
    assert_floats_print_as_percent_17g(np.concatenate(values))


def test_kernel_switches_between_fixed_and_scientific_as_percent_17g():
    # '%.17g' is fixed for -4 <= k < 17; k counts after rounding to 17 digits.
    picker = np.random.default_rng(2)
    values = [1e-5, 1e-4, 1e16, 1e17, 9.9999999999999995e-6, 9.9999999999999991e-5, 99999999999999984.0]
    values += [99999999999999992.0, 9999999999999998.0, 12345678901234567.0, 0.000123, 0.0000123]
    for k in (-5, -4, 16, 17):
        values += (10.0**k * picker.uniform(1.0, 10.0, 500)).tolist()
    assert_floats_print_as_percent_17g(values + [-x for x in values])


def test_kernel_prints_extreme_and_negative_values_as_percent_17g():
    picker = np.random.default_rng(3)
    big = 10.0 ** picker.uniform(100, 308, 1000)
    small = 10.0 ** picker.uniform(-307, -100, 1000)
    range_ends = [1e-280, 1e281, 9.99e-281, 1.001e280, 1.7976931348623157e308, 2.2250738585072014e-308]
    subnormal = picker.integers(1, 2**52, 500).view(np.float64)
    two_53 = 2.0**53 + np.arange(-40, 41)
    values = np.concatenate([big, small, range_ends, subnormal, [5e-324], two_53])
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan]
    assert_floats_print_as_percent_17g(np.concatenate([values, -values, specials]))


def test_kernel_prints_random_doubles_as_percent_17g():
    picker = np.random.default_rng(4)
    bit_patterns = picker.integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False).view(np.float64)
    # The engine's range: times, precisions and energies of O(1) to O(1e5),
    # means near 0, and small KL divergences and powers.
    engine_like = np.concatenate(
        [
            picker.uniform(0.0, 1e5, 25_000),
            picker.normal(0.0, 1.0, 25_000),
            picker.exponential(1e-3, 25_000),
            np.round(picker.uniform(0.0, 1e5, 25_000), 2),
        ]
    )
    assert_floats_print_as_percent_17g(np.concatenate([bit_patterns, engine_like]))


def test_kernel_falls_back_on_under_a_thousandth_of_a_steady_state_trace(monkeypatch):
    trace = run(replace(steady_state(), horizon=20_000.0))
    fallbacks = []

    def counting_format_float(x):
        fallbacks.append(x)
        return format_float(x)

    monkeypatch.setattr(io, "format_float", counting_format_float)
    text = trace_to_csv(trace)
    cells = len(trace.samples) * len(SAMPLE_FIELDS)
    assert text.count("\n") == len(trace.samples) + 1
    assert len(fallbacks) < cells / 1000
