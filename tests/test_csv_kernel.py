"""The column-wise CSV renderer against '%': the float64 kernel on raw bit
patterns, its digit core against exact rationals, int columns, write_csv
around the block size and the small-block crossover, which blocks reach the
kernel, which record columns reach it, and the column table read as rows.
Blocks are ref.BLOCK_ROWS rows here (ref.small_blocks).
"""

import math
import re
import struct
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_reference as ref
from qsu2 import csvcells
from qsu2.serialize import CSV_KERNEL_MIN_ROWS, Records, float_cells, rows_of, write_csv, write_json

K = ref.BLOCK_ROWS
SIGN = 1 << 63


@pytest.fixture(autouse=True, scope="module")
def _small_blocks():
    with ref.small_blocks():
        yield


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def percent_lines(values, conv="%.17g") -> bytes:
    return "".join(conv % v + "\n" for v in values).encode()


# 10^k and its neighbours one ulp away, for every power in the double range
_POWERS = [10.0**k for k in range(-307, 309)]
_NEAR_POWERS = _POWERS + [math.nextafter(p, math.inf) for p in _POWERS] + [math.nextafter(p, 0.0) for p in _POWERS]

any_bits = st.integers(0, (1 << 64) - 1)
signs = st.sampled_from([0, SIGN])
subnormal = st.builds(int.__or__, st.integers(1, (1 << 52) - 1), signs)
nan_payload = st.builds(int.__or__, st.integers(0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF), signs)
fixed_bits = st.sampled_from([0, SIGN, 0x7FF0000000000000, 0xFFF0000000000000])
floats_from_bits = st.one_of(any_bits, subnormal, nan_payload, fixed_bits).map(from_bits)
near_powers = st.builds(math.copysign, st.sampled_from(_NEAR_POWERS), st.sampled_from([1.0, -1.0]))
# 15 integer digits and an odd number of eighths: 18 significant digits ending
# in 5, an exact tie at 17 digits (and the same with 14 digits and sixteenths)
odd = st.integers(0, 7).map(lambda j: 2 * j + 1)
ties = st.builds(lambda i, k: i + (k % 8) / 8.0, st.integers(10**14, 10**15 - 1), odd) | st.builds(
    lambda i, k: i + k / 16.0, st.integers(10**13, 10**14 - 1), odd
)
cells = floats_from_bits | near_powers | ties | st.floats(1e-12, 1e44) | st.floats(-6.0, 6.0)


def rendered_by_the_kernel(column) -> bytes:
    """render_columns of one float column, asserting that '%' spells no cell
    in the core's range."""
    with mock.patch.object(csvcells, "_spell_percent", wraps=csvcells._spell_percent) as batch:
        text = csvcells.render_columns([column])
    spelled = [v for call in batch.call_args_list for v in call.args[0]]
    assert not [v for v in spelled if csvcells._CORE_MIN < abs(v) < csvcells._CORE_MAX]
    return text


@settings(max_examples=200)
@given(values=st.lists(cells, min_size=1, max_size=300))
@example(values=[1234567890123456.75, 123456789012345.625, 99999999999999999.0, 1e17, 1e16, 9.999999999999999e16])
@example(values=[0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-4, 9.9999999999999999e-5])
@example(values=[1e-6, math.nextafter(1e-6, 1.0), math.nextafter(1e17, 0.0), 1e-7, 1e22, 1e23])  # the range's edges
def test_float_kernel_matches_percent(values):
    column = np.array(values, dtype=np.float64)
    assert rendered_by_the_kernel(column) == percent_lines(values)


def test_float_kernel_on_a_million_bit_patterns():
    rng = np.random.default_rng(11)
    columns = [
        rng.integers(0, 2**64, 400_000, dtype=np.uint64).view(np.float64),
        rng.standard_normal(300_000) * 10.0 ** rng.integers(-14, 47, 300_000),
        np.array(_NEAR_POWERS) * rng.choice([-1.0, 1.0], len(_NEAR_POWERS)),
        np.arange(10**14, 10**14 + 100_000) + 0.125 * (2 * rng.integers(0, 4, 100_000) + 1),
        # the core's range: 14,011 of these cells lie within 2^-8 of a tie at
        # 17 digits, 10,839 of them on one
        rng.standard_normal(500_000) * 10.0 ** rng.integers(-6, 17, 500_000),
    ]
    for column in columns:
        assert rendered_by_the_kernel(column) == percent_lines(column.tolist())


def exact_digits(x: float) -> tuple:
    """The (k, D) of |x| by integer arithmetic: D = round(|x| 10^k), half to
    even, the one k in 0..22 with 10^16 <= D < 10^17."""
    (kd,) = [(k, d) for k in range(23) if 10**16 <= (d := round(abs(Fraction(x)) * 10**k)) < 10**17]
    return kd


in_core = st.floats(csvcells._CORE_MIN, csvcells._CORE_MAX, exclude_min=True, exclude_max=True)
core_cells = in_core | near_powers.filter(lambda v: csvcells._CORE_MIN < abs(v) < csvcells._CORE_MAX) | ties


@given(values=st.lists(core_cells, min_size=1, max_size=100))
@example(values=[math.nextafter(1e-6, 1.0), math.nextafter(1e17, 0.0), math.nextafter(1e16, 0.0), 1e16, 1e-5])
@example(values=[123456789012345.625, 1234567890123456.75, 0.5, 2.5])
def test_digit_core_is_exact(values):
    k, d = csvcells._digit_core(np.abs(np.array(values)))
    assert list(zip(k.tolist(), d.tolist())) == [exact_digits(v) for v in values]


def test_records_reach_the_kernel_from_enough_distinct_values(tmp_path):
    n = K + 1
    columns = {
        "many": np.arange(n) / 7.0,  # n patterns: the kernel
        "few": np.arange(n) % 3 / 2.0,  # 3 patterns: %
        "edge": np.arange(n) % CSV_KERNEL_MIN_ROWS * 0.1,  # just enough patterns
        "below": np.arange(n) % (CSV_KERNEL_MIN_ROWS - 1) * 0.1,  # one pattern short
    }
    with mock.patch.object(csvcells, "spell_floats", wraps=csvcells.spell_floats) as kernel:
        write_json(tmp_path / "r.json", Records(columns))
    assert sorted(len(call.args[0]) for call in kernel.call_args_list) == [CSV_KERNEL_MIN_ROWS, n]
    dicts = [{k: c[i] for k, c in columns.items()} for i in range(n)]
    assert (tmp_path / "r.json").read_text() == ref.records_json_text(dicts)


@given(values=st.lists(st.integers(-(2**63), 2**63 - 1) | st.sampled_from([0, -1, -(2**63), 2**63 - 1]), min_size=1))
@example(values=[-(2**63), 2**63 - 1] * (K // 2 + CSV_KERNEL_MIN_ROWS))  # two blocks
def test_int_columns_match_percent(values, tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, ["i"], rows_of(np.array(values, dtype=np.int64)))
    assert path.read_bytes() == b"i\n" + percent_lines(values, "%d")


def mixed_columns(n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    x[rng.random(n) < 0.2] = np.nan
    return [x, np.arange(n) / 7.0, rng.random(n) < 0.5, rng.integers(-(10**6), 10**6, n).astype(np.int32)]


@pytest.mark.parametrize(
    "n", [0, 1, CSV_KERNEL_MIN_ROWS - 1, CSV_KERNEL_MIN_ROWS, K - 1, K, K + 1, K + CSV_KERNEL_MIN_ROWS - 1]
)
def test_write_csv_column_table_matches_per_cell_fmt(n, tmp_path):
    # the float and bool columns alone go through the kernel from
    # CSV_KERNEL_MIN_ROWS rows on; with the int column every block stays on %
    mixed = mixed_columns(n)
    for cols in (mixed[:3], mixed):
        header = ["x", "y", "flag", "i"][: len(cols)]
        expected = ref.csv_text(header, zip(*cols)).encode("utf-8")
        write_csv(tmp_path / "table.csv", header, rows_of(*cols))
        assert (tmp_path / "table.csv").read_bytes() == expected
        # the same rows as a one-shot generator of Python scalars (the
        # tracer's stand-in) take the same path block by block
        write_csv(tmp_path / "rows.csv", header, (row for row in rows_of(*cols)))
        assert (tmp_path / "rows.csv").read_bytes() == expected


@pytest.mark.parametrize("rows", ["table", "generator"])
def test_float_and_bool_blocks_of_enough_rows_reach_the_kernel(rows, tmp_path):
    def kernel_blocks(*cols):
        table = rows_of(*cols)
        if rows == "generator":
            table = (row for row in table)
        with mock.patch.object(csvcells, "render_columns", wraps=csvcells.render_columns) as kernel:
            write_csv(tmp_path / "t.csv", ["a"] * len(cols), table)
        return [len(call.args[0][0]) for call in kernel.call_args_list]

    cols = mixed_columns(K + CSV_KERNEL_MIN_ROWS)
    assert kernel_blocks(*cols[:3]) == [K, CSV_KERNEL_MIN_ROWS]
    assert kernel_blocks(*(c[:-1] for c in cols[:3])) == [K]  # the last block is too short
    assert kernel_blocks(*cols) == []  # an int column


@pytest.mark.parametrize("distinct, n", [(10, 50), (CSV_KERNEL_MIN_ROWS, 3 * CSV_KERNEL_MIN_ROWS), (300, K + 100)])
@pytest.mark.parametrize("rows", ["table", "generator"])
def test_float_cells_write_as_their_floats(distinct, n, rows, tmp_path):
    # a few values spelled once and tiled, as flow.csv's s column: by % below
    # CSV_KERNEL_MIN_ROWS values, by csvcells (NUL-padded cells) from there
    # on; a block of fewer rows (the last, K + 100) takes the cells on %
    rng = np.random.default_rng(n)
    values = rng.standard_normal(distinct) * 10.0 ** rng.integers(-30, 30, distinct)
    values[:4] = [math.nan, -math.inf, -0.0, 5e-324]
    x, y = np.resize(values, n), np.arange(n) / 7.0
    table = rows_of(np.resize(float_cells(values), n), y)
    with mock.patch.object(csvcells, "render_columns", wraps=csvcells.render_columns) as kernel:
        write_csv(tmp_path / "t.csv", ["x", "y"], table if rows == "table" else (row for row in table))
    assert (tmp_path / "t.csv").read_bytes() == ref.csv_text(["x", "y"], zip(x, y)).encode("utf-8")
    kernel_rows = [len(call.args[0][0]) for call in kernel.call_args_list]
    assert kernel_rows == ([min(n, K)] if rows == "table" and n >= CSV_KERNEL_MIN_ROWS else [])


def test_write_csv_row_blocks_that_the_kernel_cannot_take(tmp_path):
    n = K + 1
    big = [(i * 0.5, 10**30 if i == 3 else i) for i in range(n)]  # an int beyond int64
    mixed = [(i * 0.5, np.float64(i) if i % 2 else float(i)) for i in range(n)]  # two cell types
    for rows in (big, mixed):
        write_csv(tmp_path / "t.csv", ["a", "b"], rows)
        assert (tmp_path / "t.csv").read_bytes() == ref.csv_text(["a", "b"], rows).encode("utf-8")


def spelled(rows) -> list:
    """repr keeps NaN cells comparable and the cell types apart."""
    return [tuple(map(repr, row)) for row in rows]


def test_column_table_iterates_as_the_old_rows_of():
    def old_rows_of(*columns):
        n = min(map(len, columns))
        for lo in range(0, n, K):
            yield from zip(*(c[lo : lo + K].tolist() for c in columns))

    cols = mixed_columns(2 * K + 3) + [np.linspace(0.0, 1.0, 2 * K + 3)]
    table = rows_of(*cols)
    assert len(table) == 2 * K + 3
    assert spelled(table) == spelled(old_rows_of(*cols))
    assert spelled(table) == spelled(table)  # a table can be read again
    assert {tuple(map(type, row)) for row in table} == {(float, float, bool, int, float)}


def test_columns_the_kernel_does_not_spell_stay_on_the_percent_path(tmp_path):
    n = K + 2
    text = np.array([f"c{i},x" for i in range(n)])
    wide = np.arange(n, dtype=np.uint64) + np.uint64(2**63)
    cols = [np.arange(n) / 3.0, text, wide]
    write_csv(tmp_path / "t.csv", ["a", "b", "c"], rows_of(*cols))
    rows = list(zip(*(c.tolist() for c in cols)))
    assert (tmp_path / "t.csv").read_bytes() == ref.csv_text(["a", "b", "c"], rows).encode("utf-8")


def percent_render(columns, prefixes=None, suffix=b"\n") -> bytes:
    """render_columns' bytes by one % over the .tolist() rows."""
    if prefixes is None:
        prefixes = [b""] + [b","] * (len(columns) - 1)
    convs = {"f": b"%.17g", "b": b"%d", "S": b"%s"}
    line = b"".join(p.replace(b"%", b"%%") + convs[c.dtype.kind] for p, c in zip(prefixes, columns))
    line += suffix.replace(b"%", b"%%")
    cells = tuple(v for row in zip(*(c.tolist() for c in columns)) for v in row)
    return line * len(columns[0]) % cells


def kernel_column(kind, n, rng):
    """A float column of any bit patterns and of plain values, a bool column,
    or a bytes column of up to 40 printable characters, NUL-padded."""
    if kind == "f":
        bits = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
        plain = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
        plain[rng.random(n) < 0.3] = np.nan
        return np.where(rng.random(n) < 0.25, bits, plain)
    if kind == "b":
        return rng.random(n) < 0.5
    width = int(rng.integers(1, 41))
    lengths = rng.integers(0, width + 1, n)
    chars = rng.integers(33, 127, (n, width)).astype(np.uint8)
    chars[np.arange(width) >= lengths[:, None]] = 0
    return chars.view(f"S{width}").ravel()


blocks = st.lists(
    st.tuples(
        st.integers(1, 2 * K),
        st.lists(st.sampled_from("fbS"), min_size=1, max_size=4),
        st.sampled_from(["csv", "records", "bare"]),
    ),
    min_size=2,
    max_size=4,
)


@settings(max_examples=20)
@given(blocks=blocks, seed=st.integers(0, 2**32 - 1))
@example(blocks=[(2 * K, list("SfbS"), "records"), (1, ["f"], "csv"), (K, ["b"], "csv"), (3, list("ffff"), "records")], seed=0)
@example(blocks=[(2 * K, list("ffff"), "csv"), (2 * K - 1, ["b", "f"], "records"), (5, list("bfbS"), "bare")], seed=1)
def test_consecutive_blocks_leave_nothing_behind(blocks, seed):
    # one buffer serves every call: a wider or longer block before may not
    # leak a slot into the next, whatever the rows, columns and text around them
    rng = np.random.default_rng(seed)
    for n, kinds, layout in blocks:
        columns = [kernel_column(kind, n, rng) for kind in kinds]
        prefixes, suffix = None, b"\n"
        if layout == "records":  # a key before each cell, an object around each row
            keys = [b'\n      "%s": ' % bytes(rng.integers(97, 123, int(rng.integers(1, 12))).astype(np.uint8)) for _ in kinds]
            prefixes = [b"\n    {" + keys[0]] + [b"," + key for key in keys[1:]]
            suffix = b"\n    },"
        elif layout == "bare":  # empty text between cells too
            prefixes = [[b"", b";", b"%|"][int(i)] for i in rng.integers(0, 3, len(kinds))]
            suffix = [b"", b"\n", b"|\n"][int(rng.integers(0, 3))]
        assert csvcells.render_columns(columns, prefixes, suffix) == percent_render(columns, prefixes, suffix)


def test_records_and_csv_in_one_process_match_their_references(tmp_path):
    n = K + CSV_KERNEL_MIN_ROWS
    rng = np.random.default_rng(5)
    records = {"a_long_key": rng.standard_normal(n), "m": np.arange(n) % 7 / 2.0, "s": np.arange(n) / 3.0}
    dicts = [{k: c[i] for k, c in records.items()} for i in range(n)]
    cols = mixed_columns(CSV_KERNEL_MIN_ROWS)[:3]
    csv_expected = ref.csv_text(["x", "y", "flag"], zip(*cols)).encode("utf-8")
    for _ in range(2):  # each write after the other's wider or longer blocks
        write_json(tmp_path / "r.json", Records(records))
        assert (tmp_path / "r.json").read_text() == ref.records_json_text(dicts)
        write_csv(tmp_path / "t.csv", ["x", "y", "flag"], rows_of(*cols))
        assert (tmp_path / "t.csv").read_bytes() == csv_expected


# the edges of the digit core, (1e-6, 1e17), and of the cells '%.17g' spells
# without an exponent, from 1e-4 on, each with its neighbours
_EDGES = [x for e in (1e-6, 1e-4, 1e16, 1e17) for x in (e, math.nextafter(e, 0.0), math.nextafter(e, math.inf))]
edges = st.builds(math.copysign, st.sampled_from(_EDGES), st.sampled_from([1.0, -1.0]))
read_cells = floats_from_bits | near_powers | ties | in_core | edges | st.floats(-6.0, 6.0)


@settings(max_examples=200)
@given(
    values=st.lists(read_cells, min_size=2, max_size=300),
    start=st.floats(-50.0, 50.0),
    step=st.floats(1e-4, 1.0),
    seed=st.integers(0, 2**32 - 1),
    block=st.integers(1, 4096),
)
@example(values=[1e-6, 1e17, -0.0, math.nan, -math.inf, 5e-324, 1e-4, math.nextafter(1e-4, 0.0)], start=-6.0,
         step=1e-3, seed=0, block=4096)
def test_potential_csv_reads_back_as_loadtxt_reads_it(values, start, step, seed, block, tmp_path_factory):
    # a V column of any float64 and a 0/1 mask, as write_csv spells them,
    # read in blocks of any number of cells: every cell is in the reader's
    # grammar, and each reads to the bits np.loadtxt gives
    from qsu2.cli import _load_potential_csv

    n = len(values)
    mask = np.random.default_rng(seed).random(n) < 0.3
    path = tmp_path_factory.mktemp("read") / "potential.csv"
    write_csv(path, ["r", "V", "mask"], rows_of(start + step * np.arange(n), np.array(values), mask))
    data = path.read_bytes()
    table = np.loadtxt(data.decode().splitlines()[1:], delimiter=",", comments=None, ndmin=2)
    with mock.patch.object(csvcells, "READ_BLOCK_CELLS", block):
        columns = csvcells.read_columns(data[len(b"r,V,mask\n") :], "ffb")
        prof, _ = _load_potential_csv(path)
    assert columns is not None
    assert [column.tobytes() for column in columns] == [want.tobytes() for want in table.T]
    assert prof.values.tobytes() == table[:, 1].tobytes()
    assert prof.pole_mask.tobytes() == (table[:, 2] == 1).tobytes()


def test_the_array_path_reads_every_fixed_notation_cell_but_zero():
    # of the cells '%.17g' spells without an exponent (1e-4 <= |x| < 1e17),
    # only 0 reaches float(); the candidate or its neighbour reads every
    # other one, the powers of ten among them
    rng = np.random.default_rng(7)
    v = rng.standard_normal(100_000) * 10.0 ** rng.integers(-4, 17, 100_000)
    v = v[(np.abs(v) >= 1e-4) & (np.abs(v) < 1e17)]
    r = np.arange(len(v), dtype=np.float64)
    body = csvcells.render_columns([r, v, rng.random(len(v)) < 0.5])
    with mock.patch.object(csvcells, "_FLOAT_CELL", mock.Mock(wraps=csvcells._FLOAT_CELL)) as grammar:
        columns = csvcells.read_columns(body, "ffb")
    assert [column.tobytes() for column in columns[:2]] == [r.tobytes(), v.tobytes()]
    assert [call.args[0] for call in grammar.fullmatch.call_args_list] == [b"0"]


def decimal_cell(sign: str, digits: str, point: int) -> str:
    """[-]digits with a point ahead of digit `point` (none past the end):
    "1.", ".5" and "00.5" among them."""
    return sign + (digits[:point] + "." + digits[point:] if point <= len(digits) else digits)


decimal_cells = st.builds(decimal_cell, st.sampled_from(["", "-"]), st.text("0123456789", min_size=1, max_size=22),
                          st.integers(0, 23))


@settings(max_examples=300)
@given(cells=st.lists(decimal_cells, min_size=1, max_size=50))
@example(cells=["1.", ".5", "00.5", "1.50", "0.1", "100", "9007199254740993", "12345678901234567.5", "0.000000123"])
def test_a_decimal_cell_reads_to_the_bits_float_gives(cells):
    # any decimal, '%.17g''s spelling or not: the array path's check makes
    # each candidate it keeps the correctly rounded value, and the cells it
    # leaves are float()'s; a body is refused only for a cell the grammar
    # lacks ("0." or ".5" with more than 17 significant digits)
    body = "".join(f"0,{cell},1\n" for cell in cells).encode()
    columns = csvcells.read_columns(body, "ffb")
    if columns is None:
        assert not all(re.fullmatch(r"-?[0-9]+(\.[0-9]+)?", cell) for cell in cells)
    else:
        assert columns[1].tobytes() == np.array([float(cell) for cell in cells]).tobytes()
