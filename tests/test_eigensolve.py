"""The hard-wall eigensolver's LAPACK kernel against scipy's
eigh_tridiagonal (dense_reference.eigensolve), byte for byte: one cell at a
time, a list of cells solved on worker threads, and the same list on the
one-worker path.
"""

import concurrent.futures
import ctypes
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as ref
from qsu2 import schrodinger
from qsu2.qnumbers import Deformation
from qsu2.schrodinger import (
    MIN_CELL_SAMPLES,
    PotentialProfile,
    build_potential,
    eigensolve,
    realization,
    solvable_cells,
)


def masked_profile(sizes, gaps, step, seed, short=None):
    """A profile whose unmasked runs have the given sizes, split by masked
    gaps of the given lengths, with random values; short, when given, is
    the size of one more run, too short to solve, at the end."""
    runs = list(sizes) + ([short] if short else [])
    mask = np.concatenate([np.r_[np.zeros(n, dtype=bool), np.ones(g, dtype=bool)]
                           for n, g in zip(runs, gaps)])
    values = np.random.default_rng(seed).uniform(-50.0, 50.0, len(mask))
    return PotentialProfile(-1.0, step, len(mask), values, mask, {}, 0.0, {})


@st.composite
def well_profiles(draw):
    wells = draw(st.integers(1, 7))
    sizes = draw(st.lists(st.integers(MIN_CELL_SAMPLES, 400), min_size=wells, max_size=wells))
    short = draw(st.sampled_from([None, 3, MIN_CELL_SAMPLES - 1]))
    gaps = draw(st.lists(st.integers(1, 5), min_size=wells + 1, max_size=wells + 1))
    step = draw(st.sampled_from([0.01, 0.002]))
    return masked_profile(sizes, gaps, step, draw(st.integers(0, 2**32 - 1)), short)


def assert_identical(prof, n_states, vectors):
    """The list call equals the per-cell calls, and both equal scipy's
    eigh_tridiagonal, byte for byte."""
    cells = solvable_cells(prof)[0]
    together = eigensolve(prof, n_states, cells, vectors=vectors)
    assert len(together) == len(cells)
    for cell, res in zip(cells, together):
        alone = eigensolve(prof, n_states, cell, vectors=vectors)
        w, v = ref.eigensolve(prof, n_states, cell, vectors=vectors)
        assert res.eigenvalues.tobytes() == alone.eigenvalues.tobytes() == w.tobytes()
        assert res.cell == alone.cell and np.array_equal(res.r, alone.r)
        if vectors:
            assert res.eigenvectors.tobytes() == alone.eigenvectors.tobytes() == v.tobytes()
        else:
            assert res.eigenvectors is None and alone.eigenvectors is None


@settings(max_examples=60)
@given(prof=well_profiles(), n_states=st.integers(1, 8), vectors=st.booleans())
def test_cells_together_alone_and_scipy_agree(prof, n_states, vectors):
    assert_identical(prof, n_states, vectors)


def test_identity_check_fails_a_nonzero_abstol():
    # the kernel's bisection with an absolute tolerance of 1e-6 instead of
    # LAPACK's default: close values, other bits
    dstebz, dstein = schrodinger._lapack()

    def loose_dstebz(*args):
        return dstebz(*args[:7], ctypes.byref(ctypes.c_double(1e-6)), *args[8:])

    prof = masked_profile([300, 250, 220], [2, 3, 1], 0.01, 5)
    with mock.patch.object(schrodinger, "_lapack", lambda: (loose_dstebz, dstein)):
        with pytest.raises(AssertionError):
            assert_identical(prof, 4, vectors=False)


def wells_at(s=0.25, grid=(-12.0, 1e-3, 24001)):
    d = Deformation(s)
    prof = build_potential(realization(d), 1.0, grid=grid)
    return prof, solvable_cells(prof)[0]


class CountingPool(concurrent.futures.ThreadPoolExecutor):
    sizes = []

    def __init__(self, max_workers):
        CountingPool.sizes.append(max_workers)
        super().__init__(max_workers)


@pytest.mark.parametrize("cpus", [2, 3, 64])
def test_workers_are_capped_by_cpus_and_wells(cpus):
    prof, cells = wells_at()
    CountingPool.sizes = []
    with mock.patch.object(schrodinger, "_usable_cpus", lambda: cpus), \
            mock.patch.object(concurrent.futures, "ThreadPoolExecutor", CountingPool):
        threaded = eigensolve(prof, 3, cells)
    assert CountingPool.sizes == [min(cpus, len(cells))]
    for cell, res in zip(cells, threaded):
        w, v = ref.eigensolve(prof, 3, cell)
        assert res.eigenvalues.tobytes() == w.tobytes() and res.eigenvectors.tobytes() == v.tobytes()


@pytest.mark.parametrize("vectors", [True, False])
def test_one_cpu_solves_without_a_pool(vectors):
    prof, cells = wells_at()
    assert len(cells) > 1
    with mock.patch.object(schrodinger, "_usable_cpus", lambda: 3):
        threaded = eigensolve(prof, 4, cells, vectors=vectors)
    with mock.patch.object(schrodinger, "_usable_cpus", lambda: 1), \
            mock.patch.object(concurrent.futures, "ThreadPoolExecutor", None):
        serial = eigensolve(prof, 4, cells, vectors=vectors)
    for a, b in zip(threaded, serial):
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
        if vectors:
            assert a.eigenvectors.tobytes() == b.eigenvectors.tobytes()


@pytest.mark.parametrize("cell", ["largest", 1, np.int64(2)])
def test_one_cell_gives_one_result_and_no_pool(cell):
    prof, _ = wells_at()
    with mock.patch.object(concurrent.futures, "ThreadPoolExecutor", None):
        res = eigensolve(prof, 2, cell)
    assert isinstance(res, schrodinger.EigenResult)
    w, v = ref.eigensolve(prof, 2, int(cell) if cell != "largest" else cell)
    assert res.eigenvalues.tobytes() == w.tobytes() and res.eigenvectors.tobytes() == v.tobytes()


def test_usable_cpus_is_the_affinity_set(monkeypatch):
    if hasattr(schrodinger.os, "sched_getaffinity"):
        assert schrodinger._usable_cpus() == len(schrodinger.os.sched_getaffinity(0))
    monkeypatch.delattr(schrodinger.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(schrodinger.os, "cpu_count", lambda: 5)
    assert schrodinger._usable_cpus() == 5


# ----------------------------------------------------------------------
# errors


@pytest.mark.parametrize("cells", [0, [0, 1]], ids=["one", "list"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_sample_in_a_cell_is_a_value_error(cells, bad):
    prof = masked_profile([300, 250], [2, 2], 0.01, 1)
    prof.values[150] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        eigensolve(prof, 2, cells)


@pytest.mark.parametrize("cells", [0, [0, 1]], ids=["one", "list"])
@pytest.mark.parametrize("n_states", [0, -1])
def test_no_states_is_a_value_error(cells, n_states):
    prof = masked_profile([300, 250], [2, 2], 0.01, 1)
    with pytest.raises(ValueError, match="n_states"):
        eigensolve(prof, n_states, cells)


def test_short_cell_in_a_list_is_a_value_error():
    prof = masked_profile([300, 250], [2, 2, 2], 0.01, 1, short=50)
    with pytest.raises(ValueError, match=f"cell has 50 samples; need >= {MIN_CELL_SAMPLES}"):
        eigensolve(prof, 2, [0, 2, 1])


@pytest.mark.parametrize("info, error", [(-4, ValueError), (3, np.linalg.LinAlgError)])
def test_lapack_info_is_an_error(info, error):
    dstebz, dstein = schrodinger._lapack()

    def failing_dstein(*args):
        dstein(*args)
        args[-1]._obj.value = info  # the byref'd info

    prof = masked_profile([300], [2], 0.01, 1)
    with mock.patch.object(schrodinger, "_lapack", lambda: (dstebz, failing_dstein)):
        with pytest.raises(error, match="dstein"):
            eigensolve(prof, 2, [0])
