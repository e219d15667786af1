"""The array code of the realization path against its references
(dense_reference.py): the masked-FFT lag scan against the lag loop, the
values-only eigensolve against the full one, the block-rendered CSV
against per-cell fmt, and build_potential against per-term evaluation and
a whole-grid test of every pole, byte for byte.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_reference as ref
from qsu2.cli import main
from qsu2.qnumbers import Deformation
from qsu2.schrodinger import (
    PotentialProfile,
    RadialProfile,
    RealizationFns,
    build_potential,
    commensurability_peak,
    eigensolve,
    f1_residual,
    f2_residual,
    realization,
    solve_f1,
)
from qsu2.serialize import CSV_BLOCK_ROWS, CSV_KERNEL_MIN_ROWS, rows_of, write_csv

STEP = 0.01


@st.composite
def lag_profiles(draw):
    """(values, period in samples, max_periods): a periodic profile with
    noise, constant stretches and NaN or infinite samples, scanned over a
    range that may run past the end of the grid."""
    n = draw(st.integers(100, 2000))
    period = draw(st.integers(10, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = draw(st.sampled_from([0.0, 0.01, 0.5]))
    v = np.sin(2.0 * np.pi * np.arange(n) / period) + noise * rng.standard_normal(n)
    for _ in range(draw(st.integers(0, 3))):
        lo = draw(st.integers(0, n - 1))
        v[lo : lo + draw(st.integers(1, n))] = draw(st.sampled_from([0.0, 0.3, -1.0]))
    bad = rng.random(n) < draw(st.sampled_from([0.0, 0.05, 0.5]))
    v[bad] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return v, period, draw(st.integers(1, 2 * n // period + 2))


def sine(n, period):
    return np.sin(2.0 * np.pi * np.arange(n) / period)


@settings(max_examples=200)
@given(case=lag_profiles())
@example(case=(np.zeros(1000), 50, 3))  # every lag has zero variance
@example(case=(np.r_[sine(600, 50), np.full(600, 0.2)], 50, 20))  # constant stretch
@example(case=(sine(150, 20), 20, 3))  # every lag below 200 pairs
@example(case=(sine(1000, 50), 50, 100))  # exact ties, scan past the grid end
@example(case=(np.where(np.arange(1200) % 7 == 0, np.nan, sine(1200, 40)), 40, 5))  # NaN samples
def test_commensurability_fft_matches_lag_loop(case):
    v, period, max_periods = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # nanmean of an all-NaN profile
        peak, lag = commensurability_peak(v, STEP, period * STEP, max_periods)
        rhos = ref.lag_correlations(v, STEP, period * STEP, max_periods)
        want_peak, want_lag = ref.commensurability_peak(v, STEP, period * STEP, max_periods)
    assert type(peak) is float and type(lag) is float
    if want_lag == 0.0:  # no lag qualifies
        assert (peak, lag) == (-1.0, 0.0)
        return
    assert abs(peak - want_peak) <= 1e-12
    ranked = sorted(rhos.values(), reverse=True)
    if len(ranked) == 1 or ranked[0] - ranked[1] > 1e-12:
        assert lag == want_lag
    else:
        assert abs(rhos[round(lag / STEP)] - want_peak) <= 1e-12


def well_profile(ratio):
    """The 12001-sample V(r) of the tan wells against a cosine f2 whose
    period is the well period over ratio; returns (values, well period)."""
    d = Deformation(0.25)
    period = math.pi / math.sqrt(d.cos_s)
    omega = 2.0 * math.pi * ratio / period
    f2 = RadialProfile("cos", lambda r: np.cos(omega * r), lambda r: -omega * np.sin(omega * r),
                       lambda r: -(omega**2) * np.cos(omega * r))
    fns = RealizationFns(d, solve_f1(d, "tan"), f2)
    return build_potential(fns, 1.0, grid=(-60.0, STEP, 12001)).values, period


@pytest.mark.parametrize("ratio", [1.0, math.sqrt(2.0)], ids=["commensurate", "incommensurate"])
@pytest.mark.parametrize("max_periods", [2, 3, 10])
def test_commensurability_matches_lag_loop_bit_for_bit(ratio, max_periods):
    # the profiles commensurability is meant for: the candidates the FFT
    # scan keeps are evaluated as the loop does, so the result is the loop's
    values, period = well_profile(ratio)
    got = commensurability_peak(values, STEP, period, max_periods)
    assert got == ref.commensurability_peak(values, STEP, period, max_periods)


@pytest.mark.parametrize("bad", [[np.nan], [np.nan, np.inf]], ids=["nan", "nan-and-inf"])
def test_nan_samples_keep_the_clip(bad):
    # a NaN sample must not switch the percentile clip off: the clip is
    # taken over the samples that have a value, like the centring, and an
    # infinite sample is clipped instead of making the mean infinite
    values, period = well_profile(1.0)
    peak, lag = commensurability_peak(values, STEP, period)
    assert peak >= 0.95
    values[len(values) // 3 + np.arange(len(bad))] = bad
    peak_bad, lag_bad = commensurability_peak(values, STEP, period)
    assert peak_bad >= 0.95 and abs(peak_bad - peak) < 1e-3
    assert lag_bad == lag
    assert (peak_bad, lag_bad) == ref.commensurability_peak(values, STEP, period)


def test_commensurability_leaves_the_input_alone():
    v = np.r_[sine(900, 45), [np.nan, 5.0]]
    before = v.copy()
    commensurability_peak(v, STEP, 45 * STEP, 4)
    assert np.array_equal(v, before, equal_nan=True)


# ----------------------------------------------------------------------
# eigenvalues without eigenvectors


@settings(max_examples=100)
@given(n=st.integers(210, 800), seed=st.integers(0, 2**32 - 1), n_states=st.integers(1, 8))
def test_eigenvalues_only_are_bit_identical(n, seed, n_states):
    values = np.random.default_rng(seed).uniform(-50.0, 50.0, n)
    prof = PotentialProfile(0.0, 0.01, n, values, np.zeros(n, dtype=bool))
    full = eigensolve(prof, n_states)
    only = eigensolve(prof, n_states, vectors=False)
    assert only.eigenvalues.tobytes() == full.eigenvalues.tobytes()
    assert only.eigenvectors is None
    assert (only.cell, only.h) == (full.cell, full.h)
    assert np.array_equal(only.r, full.r)


@pytest.mark.parametrize("cell", ["largest", 0, 1, 2])
def test_eigenvalues_only_are_bit_identical_per_cell(cell):
    d = Deformation(0.25)
    prof = build_potential(realization(d), 1.0, grid=(-6.0, 1e-3, 12001))
    full = eigensolve(prof, 4, cell)
    only = eigensolve(prof, 4, cell, vectors=False)
    assert only.eigenvalues.tobytes() == full.eigenvalues.tobytes()
    assert only.cell == full.cell


# ----------------------------------------------------------------------
# block-rendered CSV

K = ref.BLOCK_ROWS  # within ref.small_blocks
SWITCHES = {
    "float-to-empty": (0.25, ""),
    "bool-to-int": (np.bool_(True), 7),
    "float-to-text": (-1.5, "a,b"),
}


# the cell type switches at row `at`: inside the first block (rows 1023 and
# 1024 of 1023 to 1025) and at the end of the first block
INSIDE = [(n, at) for n in (1023, 1024, 1025) for at in (1023, 1024)]
AT_THE_END = [(n, at) for n in (K - 1, K, K + 1) for at in (K - 1, K)]


@pytest.mark.parametrize("n, at", INSIDE + AT_THE_END)
@pytest.mark.parametrize("switch", sorted(SWITCHES))
def test_write_csv_across_block_boundaries(switch, n, at, tmp_path):
    before, after = SWITCHES[switch]
    rows = [(i * 0.1, i % 3 == 0, before if i < at else after, i) for i in range(n)]
    path = tmp_path / "t.csv"
    with ref.small_blocks():
        write_csv(path, ["x", "flag", "cell", "i"], iter(rows))
    assert path.read_bytes() == ref.csv_text(["x", "flag", "cell", "i"], rows).encode("utf-8")


def written_and_numpy_rows(n, path) -> tuple:
    """The bytes write_csv writes for a table of n rows, and the rows the
    numpy columns gave before: numpy scalars, one fmt per cell."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    special = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324])
    x[: min(n, 5)] = special[: min(n, 5)]
    y = np.arange(n, dtype=float) / 3.0
    mask = rng.random(n) < 0.5
    write_csv(path, ["r", "V", "mask"], rows_of(x, y, mask))
    return path.read_bytes(), ref.csv_text(["r", "V", "mask"], zip(x, y, mask)).encode("utf-8")


@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2051, K - 1, K, K + 1, 2 * K + 3])
def test_rows_of_renders_as_numpy_rows(n, tmp_path):
    with ref.small_blocks():
        written, want = written_and_numpy_rows(n, tmp_path / "t.csv")
    assert written == want


@pytest.mark.parametrize("n", [CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + CSV_KERNEL_MIN_ROWS])
def test_rows_of_renders_as_numpy_rows_in_blocks_of_the_real_size(n, tmp_path):
    # one whole block, then a second block on the kernel
    written, want = written_and_numpy_rows(n, tmp_path / "t.csv")
    assert written == want


def test_rows_of_yields_python_scalars():
    rows = list(rows_of(np.array([1.5, 2.5]), np.array([True, False]), np.array([3, 4])))
    assert rows == [(1.5, True, 3), (2.5, False, 4)]
    assert [tuple(map(type, row)) for row in rows] == [(float, bool, int)] * 2


def test_rows_of_rejects_columns_of_unequal_length():
    with pytest.raises(ValueError, match=r"\[3, 2, 3\]"):
        rows_of(np.zeros(3), np.zeros(2), np.zeros(3))


@pytest.mark.parametrize(
    "s, F, grid, cell, cells",
    [
        (0.25, 1.0, (-6.0, 6.0, 0.001), "all", [0, 1, 2, 3]),
        (3.0, 0.3, (-5.0, 5.0, 0.0005), "largest", ["largest"]),
    ],
    ids=["wells-all-cells", "tanh-sech"],
)
def test_cli_tables_match_numpy_rows(s, F, grid, cell, cells, tmp_path):
    # potential.csv and spectrum_vectors_*.csv as the numpy rows the
    # commands zipped before rows_of, rendered one fmt call per cell
    argv = ["--s", str(s), "--m", "1", "--F", str(F), "--grid={!r}:{!r}:{!r}".format(*grid),
            "--outdir", str(tmp_path)]
    assert main(["potential", *argv]) == 0
    assert main(["spectrum", *argv, "--n", "3", "--cell", cell, "--with-vectors"]) == 0
    d = Deformation(s)
    start, stop, step = grid
    count = int(math.floor((stop - start) / step + 0.5)) + 1
    prof = build_potential(realization(d, F=F), 1.0, grid=(start, step, count))
    want = ref.csv_text(["r", "V", "mask"], zip(prof.r, prof.values, prof.pole_mask))
    assert (tmp_path / "potential.csv").read_text(encoding="utf-8") == want
    for c in cells:
        res = eigensolve(prof, 3, c)
        want = ref.csv_text(["r", "psi_0", "psi_1", "psi_2"], zip(res.r, *res.eigenvectors.T))
        assert (tmp_path / f"spectrum_vectors_{c}.csv").read_text(encoding="utf-8") == want


# at cos s = 1/4 the tan poles are pi + 2 pi n, exact floats: this grid has
# one on its first sample, one on its middle sample and one on its last
POLES_ON_SAMPLES = (-math.pi, math.pi / 1024, 4097)


@pytest.mark.parametrize("transform", ["eliminate", "literal"])
@pytest.mark.parametrize(
    "s, m, f1b, f2b, F, grid",
    [
        (0.25, 1.0, "tan", "cosine", 0.5, (-6.0, 1e-3, 12001)),
        (1.0, 2.0, "tan", "cosine", 0.5, (-6.0, 1e-3, 12001)),
        (1.0, 0.5, "tan", "constant", 0.0, (-24.0, 1e-3, 48001)),
        (math.pi / 2, 1.0, "linear", "constant", 0.5, (-3.0, 1e-3, 6001)),
        (3.0, 1.0, "tanh", "sech", 0.5, (-24.0, 4e-3, 12001)),
        (2.5, 2.0, "tanh", "constant", 0.0, (-24.0, 4e-3, 12001)),
        (3.05, 2.0, "constant", "exponential", 0.5, (-6.0, 1e-3, 12001)),
        (2.0, 0.5, "constant", "constant", 0.0, (-6.0, 1e-3, 12001)),
        (math.acos(0.25), 1.0, "tan", "cosine", 0.5, POLES_ON_SAMPLES),
    ],
    ids=["tan-cosine", "tan-cosine-m2", "tan-constant", "linear", "tanh-sech", "tanh-constant",
         "constant-exponential", "constant-constant", "poles-on-samples"],
)
def test_build_potential_matches_per_term_evaluation(s, m, f1b, f2b, F, grid, transform):
    # f1 and f1' evaluated once and each pole tested on its own window give
    # the bytes of evaluating them per term and testing every pole everywhere
    d = Deformation(s)
    fns = realization(d, f1b, f2b, F=F)
    prof = build_potential(fns, m, grid=grid, transform=transform)
    values, mask = ref.build_potential(fns, m, grid, transform=transform)
    assert prof.values.tobytes() == values.tobytes()
    assert prof.pole_mask.tobytes() == mask.tobytes()
    if grid == POLES_ON_SAMPLES:
        assert mask[0] and mask[grid[2] // 2] and mask[-1]


# (s range, f1 branch, f2 branch)
BRANCH_PAIRS = [
    ((0.05, 1.5), "tan", "cosine"),
    ((0.05, 1.5), "tan", "constant"),
    ((1.65, 3.1), "tanh", "sech"),
    ((1.65, 3.1), "tanh", "constant"),
    ((1.65, 3.1), "constant", "exponential"),
    ((1.65, 3.1), "constant", "constant"),
    ((math.pi / 2, math.pi / 2), "linear", "constant"),
]


@st.composite
def realizations(draw):
    """(s, f1 branch, f2 branch, F, grid) over every branch pair, with a
    grid of 200 to 4,000 samples."""
    (lo, hi), f1b, f2b = draw(st.sampled_from(BRANCH_PAIRS))
    s = draw(st.floats(lo, hi))
    F = 0.0 if f2b == "constant" and f1b != "linear" else draw(st.floats(-2.0, 2.0))
    count = draw(st.integers(200, 4000))
    grid = (draw(st.floats(-30.0, 0.0)), draw(st.floats(1e-3, 0.05)), count)
    return s, f1b, f2b, F, grid


@settings(max_examples=200, deadline=None)
@given(case=realizations(), m=st.sampled_from([0.5, 1.0, 2.0]))
def test_build_potential_matches_the_reference_on_any_realization(case, m):
    # the poles f1's profile carries mask what the f1 branch table's
    # lattice masks in the reference
    s, f1b, f2b, F, grid = case
    d = Deformation(s)
    fns = realization(d, f1b, f2b, F=F)
    prof = build_potential(fns, m, grid=grid)
    values, mask = ref.build_potential(fns, m, grid)
    assert prof.values.tobytes() == values.tobytes()
    assert prof.pole_mask.tobytes() == mask.tobytes()
    # f1 and f2 solve their equations wherever the mask keeps a sample; the
    # 1 stands for the cos s of about 6e-17 that s = pi/2 leaves in the terms
    r = prof.r[~mask]
    f1v, f1d, f2v, f2d = fns.f1(r), fns.f1.deriv(r), fns.f2(r), fns.f2.deriv(r)
    assert np.all(np.abs(f1_residual(d, fns.f1, r)) <= 1e-9 * (1.0 + np.abs(f1d) + f1v**2 * abs(d.cos_s)))
    assert np.all(np.abs(f2_residual(d, fns.f1, fns.f2, r)) <= 1e-9 * (1.0 + np.abs(d.cos_s * f1v * f2v) + np.abs(f2d)))
