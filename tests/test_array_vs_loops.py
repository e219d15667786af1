"""The array code of the sweep path against its loop references
(dense_reference.py): spectral-flow crossings, unmasked runs, the topology
transition, CSV rows, record lists, the per-s orbit cache and the finite
orbit candidates must all agree exactly.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_reference as ref
from qsu2 import serialize
from qsu2.classify import finite_orbit_candidates
from qsu2.geometry import CROSSING_TOL, level_section, spectral_flow, topology_transition, unmasked_runs
from qsu2.qnumbers import Deformation
from qsu2.schrodinger import _cells
from qsu2.serialize import CSV_KERNEL_MIN_ROWS, Records, write_csv, write_json


def bits(x) -> str:
    """A float's exact value, the sign of zero included."""
    return float.__repr__(float(x))


def same_crossings(got, want) -> bool:
    return [tuple(map(bits, c)) for c in got] == [tuple(map(bits, c)) for c in want]


# s values on which the [2m] curves meet exactly: roots of unity pi p/q
ROOTS = [math.pi * p / q for q in range(2, 7) for p in range(1, q)]


@st.composite
def s_grids(draw):
    """Grids at least 1e-3 from every multiple of pi, uniform or scattered,
    on either side of zero, with or without exact root-of-unity points."""
    sign = draw(st.sampled_from([1.0, -1.0]))
    if draw(st.booleans()):
        start = draw(st.floats(1e-3, 1.0))
        count = draw(st.integers(2, 80))
        step = draw(st.floats(1e-3, (math.pi - 2e-3 - start) / (count - 1)))
        s = start + step * np.arange(count)
    else:
        s = np.array(draw(st.lists(st.floats(1e-3, math.pi - 1e-3), min_size=2, max_size=60)))
    roots = draw(st.lists(st.sampled_from(ROOTS), max_size=4))
    return sign * np.concatenate([s, roots])


@settings(max_examples=150)
@given(m_max=st.integers(0, 24).map(lambda k: k / 2.0), s=s_grids())
@example(m_max=4.5, s=np.linspace(0.05, math.pi - 0.05, 500))
@example(m_max=3.0, s=np.array(ROOTS))
@example(m_max=16.0, s=np.linspace(0.05, 3.0, 38))  # the benchmark's largest flow: 8,038 crossings
@example(m_max=30.0, s=0.05 + (math.pi - 0.1) / 499 * np.arange(500))  # the CLI's default grid: 66,692
def test_spectral_flow_crossings_match_pair_loop(m_max, s):
    table = spectral_flow(m_max, s)
    want = ref.flow_crossings(table.m_values, table.s_grid, table.values, CROSSING_TOL)
    assert same_crossings(table.crossings, want)


@pytest.mark.parametrize("m_max, s", [(0.5, np.linspace(0.1, 3.0, 10)), (1.0, np.linspace(0.1, 0.5, 10))],
                         ids=["no-pairs", "no-crossings"])
def test_spectral_flow_without_crossings_has_float64_columns(m_max, s):
    # one curve has no pair; [1] = 1 stays below [2] = 2 cos s on s < pi/3
    table = spectral_flow(m_max, s)
    assert table.crossings == ()
    for name in ("s", "m_low", "m_high"):
        assert table.crossing_columns[name].dtype == np.float64 and table.crossing_columns[name].shape == (0,)


def test_spectral_flow_touches_are_found():
    # integer-m curves all vanish at s = pi/2 up to rounding
    table = spectral_flow(3.0, np.array([0.4, math.pi / 2, 2.0]))
    touches = [c for c in table.crossings if c[0] == math.pi / 2]
    assert {(c[1], c[2]) for c in touches} >= {(1.0, 2.0), (1.0, 3.0), (2.0, 3.0)}
    # [2] - [4] = 6 (s - pi/2) + O((s - pi/2)^3): 7.2e-10 apart is a touch,
    # 1.2e-9 apart is not
    for offset, touching in ((1.2e-10, True), (2e-10, False)):
        s = math.pi / 2 + offset
        table = spectral_flow(2.0, np.array([0.4, s, 2.0]))
        assert ((s, 1.0, 2.0) in table.crossings) is touching


@settings(max_examples=300)
@given(mask=st.lists(st.booleans(), max_size=120))
@example(mask=[])
@example(mask=[True] * 7)
@example(mask=[False] * 7)
@example(mask=[False, False, True, True, False])
@example(mask=[True, False, False, True])
def test_unmasked_runs_match_scans(mask):
    assert _cells(np.array(mask, dtype=bool)) == ref.cells(mask)
    assert _cells(mask) == ref.cells(mask)
    assert len(unmasked_runs(mask)[0]) == ref.components(mask)


@settings(max_examples=100)
@given(s=st.floats(0.1, 3.0), c=st.floats(0.05, 5.0), half=st.integers(1, 25))
def test_level_section_components_match_scan(s, c, half):
    sec = level_section(Deformation(s), c, np.arange(-half, half, 0.05))
    assert sec.components == ref.components(sec.mask)
    assert type(sec.components) is int


@st.composite
def transition_cases(draw):
    """Uniform grids from below to above s = pi/2, with c drawn freely or
    set to cos s / sin^2 s at a grid point, give or take one ulp."""
    count = draw(st.integers(2, 300))
    s = np.linspace(draw(st.floats(0.01, 1.5)), draw(st.floats(1.65, 3.13)), count)
    if draw(st.booleans()):
        return draw(st.floats(0.01, 50.0)), s
    at = float(s[draw(st.integers(0, count - 1))])
    c = math.cos(at) / math.sin(at) ** 2
    return float(np.nextafter(c, c + draw(st.sampled_from([-1.0, 0.0, 1.0])))), s


@settings(max_examples=300)
@given(case=transition_cases())
# c sin s * sin s < cos s at s = 0.123...; with the pow square it is not
@example(case=(65.85358906320685, np.array([0.1, 0.12307178089430208, 0.2, 2.0])))
@example(case=(0.7, np.linspace(math.pi / 2, 3.1, 200)))
@example(case=(-0.5, np.linspace(0.1, 3.0, 50)))  # a value of cos s / sin^2 s past s = pi/2
def test_topology_transition_matches_scalar_loop(case):
    c, s = case
    if c <= 0.0:  # cos s / sin^2 s past s = pi/2: no section exists
        with pytest.raises(ValueError, match="c must be positive"):
            topology_transition(c, s)
        return
    got, want = topology_transition(c, s), ref.topology_transition(c, s)
    assert (got is None and want is None) or bits(got) == bits(want)


# cells of every type a CSV row may carry: NaN of either sign, infinities,
# signed zeros and subnormals; numpy scalars; text with commas
floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [-math.nan, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]
)
text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8) | st.sampled_from(
    ["", ",", "a,b", "-nan", "%d", "%s"]
)
cells = (
    floats
    | floats.map(np.float64)
    | st.floats(width=32).map(np.float32)
    | st.booleans()
    | st.booleans().map(np.bool_)
    | st.integers()
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | text
)


@settings(max_examples=300)
@given(table=st.integers(0, 6).flatmap(
    lambda width: st.tuples(st.just(width), st.lists(st.lists(cells, min_size=width, max_size=width), max_size=12))
))
def test_write_csv_matches_per_cell_fmt(table, tmp_path_factory):
    width, rows = table
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    header = [f"c{k}" for k in range(width)]
    # rows as lists, tuples, or a one-shot generator (the tracer's stand-in)
    write_csv(path, header, (tuple(r) if i % 2 else r for i, r in enumerate(rows)))
    assert path.read_bytes() == ref.csv_text(header, rows).encode("utf-8")


@pytest.mark.parametrize(
    "rows, message",
    [
        ([(1.0, 2.0, 3.0), (4.0, 5.0), ("x",)], "row 1 has 2 cells; the header has 3 columns"),
        ([[1.0, 2.0, 3.0, 4.0]], "row 0 has 4 cells; the header has 3 columns"),
        # counted across blocks: the first bad row is in the second block
        ([(1.0, 2.0, 3.0)] * (serialize.CSV_BLOCK_ROWS + 3) + [(1.0,)], f"row {serialize.CSV_BLOCK_ROWS + 3} has 1 "),
    ],
    ids=["narrower", "wider", "second-block"],
)
def test_write_csv_refuses_rows_of_another_width(rows, message, tmp_path):
    with pytest.raises(ValueError, match=message):
        write_csv(tmp_path / "t.csv", ["a", "b", "c"], iter(rows))


@pytest.mark.parametrize("columns", [2, 4], ids=["narrower", "wider"])
def test_write_csv_refuses_a_table_of_another_width(columns, tmp_path):
    table = serialize.rows_of(*[np.arange(5.0)] * columns)
    with pytest.raises(ValueError, match=f"row 0 has {columns} cells; the header has 3 columns"):
        write_csv(tmp_path / "t.csv", ["a", "b", "c"], table)
    assert not (tmp_path / "t.csv").exists()


@settings(max_examples=300)
@given(values=st.lists(floats, min_size=1, max_size=8))
def test_csv_floats_round_trip(values, tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, ["x"], ([v] for v in values))
    for v, line in zip(values, path.read_text().splitlines()[1:]):
        assert float(line) == v or (math.isnan(v) and line == "nan")
        assert math.copysign(1.0, float(line)) == math.copysign(1.0, v) or math.isnan(v)


json_floats = floats | floats.map(np.float64)


# record lengths on either side of the kernel's threshold (in distinct float
# patterns) and of a block boundary (within ref.small_blocks)
LONG_LENGTHS = [CSV_KERNEL_MIN_ROWS - 1, CSV_KERNEL_MIN_ROWS, ref.BLOCK_ROWS, ref.BLOCK_ROWS + 1]


def long_floats(rng, n) -> np.ndarray:
    """n floats, distinct (raw bit patterns, or short decimals over many
    exponents) or drawn from a few values."""
    kind = rng.integers(3)
    if kind == 0:
        return rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    if kind == 1:
        return np.round(rng.standard_normal(n) * 1e6) / 10.0 ** rng.integers(-20, 20, n)
    return rng.choice(np.array([0.5, -0.0, 2.0, math.nan, math.inf, 0.1 + 0.2]), n)


@st.composite
def record_columns(draw, lengths=st.integers(0, 6)):
    """Columns of equal length, each a list of floats; the long ones are
    generated from a drawn seed."""
    n = draw(lengths)
    keys = draw(st.lists(text, max_size=4, unique=True))
    if n <= 12:
        return {k: draw(st.lists(json_floats, min_size=n, max_size=n)) for k in keys}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return {k: long_floats(rng, n).tolist() for k in keys}


@settings(max_examples=300)
@given(columns=record_columns())
@example(columns={})
@example(columns={"s": [], "m_low": [], "m_high": []})
@example(
    columns={
        "zeros": [0.0, -0.0, 0.0, -0.0],
        "repeats": [1.5, 1.5, np.float64(1.5), 2.0],
        "non-finite": [math.inf, -math.inf, math.inf, math.nan],
    }
)
def test_records_match_json_dumps(columns, tmp_path_factory):
    # json.dumps's layout, each float spelled '%.17g' in JSON's spelling
    path = tmp_path_factory.mktemp("json") / "t.json"
    n = len(next(iter(columns.values()))) if columns else 0
    dicts = [{k: col[i] for k, col in columns.items()} for i in range(n)]
    for payload, want in (
        (Records(columns), dicts),
        ({"x": Records(columns), "y": [1, Records(columns)]}, {"x": dicts, "y": [1, dicts]}),
    ):
        write_json(path, payload)
        assert path.read_text(encoding="utf-8") == ref.records_json_text(want)
        assert_reads_back(path, want)


def assert_reads_back(path, want) -> None:
    """json.loads and float() give back each float of want bit for bit: the
    sign of zero kept, a NaN of any payload read as NaN."""

    def check(got, want):
        if isinstance(want, dict):
            assert sorted(got) == sorted(want)
            for k in want:
                check(got[k], want[k])
        elif isinstance(want, list):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                check(g, w)
        elif isinstance(want, float):
            assert bits(float(got)) == bits(want)
        else:
            assert got == want

    check(json.loads(path.read_text(encoding="utf-8")), want)


# NaNs of other payloads than math.nan, which json.dumps spells alike
NAN_PAYLOADS = np.array(
    [0x7FF8000000000001, 0xFFF0000000000001, 0x7FF4000000000000], dtype=np.uint64
).view(np.float64)


@st.composite
def float64_columns(draw, lengths=st.integers(0, 12)):
    """Float64 array columns of one length, the empty length included, some
    drawn from a few values so that they repeat, some strided; the long
    ones are generated from a drawn seed."""
    n = draw(lengths)
    keys = draw(st.lists(text, min_size=1, max_size=4, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {}
    for k in keys:
        step = draw(st.integers(1, 3))
        if n > 12:
            columns[k] = long_floats(rng, n * step)[::step]
            continue
        cells = floats | st.sampled_from(NAN_PAYLOADS.tolist())
        if draw(st.booleans()):
            cells = st.sampled_from(draw(st.lists(cells, min_size=1, max_size=3)))
        strided = np.array(draw(st.lists(cells, min_size=n * step, max_size=n * step)), dtype=np.float64)
        columns[k] = strided[::step]
    return columns


def nested(value, depth):
    """value at the given depth of dicts and lists, a deeper indent each."""
    for i in range(depth):
        value = {"k": value} if i % 2 else [1, value]
    return value


@settings(max_examples=300)
@given(columns=float64_columns())
@example(columns={"s": np.empty(0), "m_low": np.empty(0), "m_high": np.empty(0)})
@example(columns={"x": np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324])})
@example(columns={"x": np.array([0.0, -0.0, -0.0, 0.0, -0.0, 0.0]), "y": np.array([1.5, -0.0, 1.5, 0.0, 1.5, 1.5])})
@example(columns={"x": np.array([math.nan, -math.nan, *NAN_PAYLOADS, math.nan])})
@example(columns={"x": np.arange(12.0).reshape(6, 2)[:, 1], "y": np.array([0.5, -0.0] * 6)[::2]})
def test_records_from_float64_arrays_match_json_dumps(columns, tmp_path_factory):
    path = tmp_path_factory.mktemp("json") / "t.json"
    n = len(next(iter(columns.values())))
    dicts = [{k: col[i] for k, col in columns.items()} for i in range(n)]
    write_json(path, {"x": Records(columns), "y": [Records(columns)]})
    want = {"x": dicts, "y": [dicts]}
    assert path.read_text(encoding="utf-8") == ref.records_json_text(want)
    assert_reads_back(path, want)


@settings(max_examples=40, deadline=None)
@given(
    columns=float64_columns(st.sampled_from(LONG_LENGTHS)) | record_columns(st.sampled_from(LONG_LENGTHS)),
    depth=st.integers(0, 3),
)
def test_long_records_match_json_dumps(columns, depth, tmp_path_factory):
    # long enough for the kernel and for more than one block, at several indents
    path = tmp_path_factory.mktemp("json") / "t.json"
    n = len(next(iter(columns.values()))) if columns else 0
    dicts = [{k: col[i] for k, col in columns.items()} for i in range(n)]
    with ref.small_blocks():
        write_json(path, nested(Records(columns), depth))
    want = nested(dicts, depth)
    assert path.read_text(encoding="utf-8") == ref.records_json_text(want)
    assert_reads_back(path, want)


# -0 reads back as the integer 0, and nan is not JSON
@pytest.mark.parametrize("spelled, error", [("-0", AssertionError), ("nan", json.JSONDecodeError)])
@pytest.mark.parametrize("n", [6, ref.BLOCK_ROWS + 1])
def test_records_without_a_json_spelling_do_not_read_back(spelled, error, n, monkeypatch, tmp_path):
    # a mutant of Records that leaves one spelling of '%.17g' as it is; the
    # long column goes through the kernel and spans two blocks
    monkeypatch.setattr(serialize, "CSV_BLOCK_ROWS", ref.BLOCK_ROWS)
    columns = {"x": np.r_[-0.0, math.nan, np.arange(n - 2) / 7.0]}
    dicts = [{"x": x} for x in columns["x"].tolist()]
    write_json(tmp_path / "t.json", Records(columns))
    assert_reads_back(tmp_path / "t.json", dicts)
    monkeypatch.delitem(serialize._JSON_SPELLING, spelled)
    write_json(tmp_path / "t.json", Records(columns))
    with pytest.raises(error):
        assert_reads_back(tmp_path / "t.json", dicts)


def test_records_of_unequal_length_name_the_lengths_before_spelling(monkeypatch, tmp_path):
    monkeypatch.setattr(serialize, "_json_column", None)  # no column is spelled
    columns = {"s": np.zeros(3), "m_low": [1.0, 2.0]}
    with pytest.raises(ValueError, match=r"differ in length: \{'m_low': 2, 's': 3\}"):
        write_json(tmp_path / "t.json", Records(columns))


@settings(max_examples=60)
@given(s=st.floats(0.05, math.pi - 0.05), n_max=st.none() | st.integers(1, 40))
def test_cached_orbit_candidates_match_recomputation(s, n_max):
    d = Deformation(s)
    got = finite_orbit_candidates(d, n_max)
    assert isinstance(got, tuple)
    assert got == tuple(finite_orbit_candidates.__wrapped__(d, n_max))
    assert finite_orbit_candidates(d, n_max) is got


@settings(max_examples=300)
@given(
    s=st.floats(0.01, math.pi - 0.01)
    | st.builds(lambda lp: math.pi * lp[1] / lp[0],
                st.integers(2, 60).flatmap(lambda l: st.tuples(st.just(l), st.integers(1, l - 1)))),
    n_max=st.none() | st.integers(1, 80),
)
@example(s=0.05, n_max=None)
@example(s=math.pi / 3, n_max=None)
@example(s=2 * math.pi / 5, n_max=40)
def test_orbit_candidates_match_scalar_loop(s, n_max):
    d = Deformation(s)
    got = finite_orbit_candidates.__wrapped__(d, n_max)
    want = ref.finite_orbit_candidates(d, n_max)
    assert [(N, bits(c)) for N, c in got] == [(N, bits(c)) for N, c in want]
