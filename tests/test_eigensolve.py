"""The hard-wall eigensolver's LAPACK kernel against scipy's
eigh_tridiagonal (dense_reference.eigensolve), byte for byte: one cell at a
time, a list of cells solved on worker threads, and the same list on the
one-worker path.  The worker threads each run on their own CPU of the
caller's affinity set, or unpinned where a CPU cannot be set.
"""

import concurrent.futures
import ctypes
import os
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as ref
from qsu2 import schrodinger
from qsu2.cli import main
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
    return PotentialProfile(-1.0, step, len(mask), values, mask)


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

    def __init__(self, max_workers, **kwargs):
        CountingPool.sizes.append(max_workers)
        super().__init__(max_workers, **kwargs)


@pytest.mark.parametrize("cpus", [2, 3, 64])
def test_workers_are_capped_by_cpus_and_wells(cpus):
    prof, cells = wells_at()
    CountingPool.sizes = []
    with mock.patch.object(schrodinger, "_usable_cpus", lambda: list(range(cpus))), \
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
    with mock.patch.object(schrodinger, "_usable_cpus", lambda: [0, 1, 2]):
        threaded = eigensolve(prof, 4, cells, vectors=vectors)
    with mock.patch.object(schrodinger, "_usable_cpus", lambda: [0]), \
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
        assert schrodinger._usable_cpus() == sorted(schrodinger.os.sched_getaffinity(0))
    monkeypatch.delattr(schrodinger.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(schrodinger.os, "cpu_count", lambda: 5)
    assert schrodinger._usable_cpus() == [0, 1, 2, 3, 4]


# ----------------------------------------------------------------------
# worker placement

needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs at least 2 usable CPUs",
)


def placed_solves(monkeypatch):
    """Record, for each well solved, the solving thread and its CPU
    affinity set at the time of the solve."""
    placed = []
    solve = schrodinger._solve_well

    def recording(*args):
        placed.append((threading.get_ident(), frozenset(os.sched_getaffinity(0))))
        return solve(*args)

    monkeypatch.setattr(schrodinger, "_solve_well", recording)
    return placed


def serial_solve(prof, n_states, cells, vectors=True):
    with mock.patch.object(schrodinger, "_usable_cpus", lambda: [0]), \
            mock.patch.object(concurrent.futures, "ThreadPoolExecutor", None):
        return eigensolve(prof, n_states, cells, vectors=vectors)


def assert_same_bytes(results, serial):
    assert len(results) == len(serial)
    for a, b in zip(results, serial):
        assert a.cell == b.cell and a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
        assert a.eigenvectors.tobytes() == b.eigenvectors.tobytes()


@needs_affinity
def test_each_worker_solves_on_its_own_cpu(monkeypatch):
    prof, cells = wells_at(grid=(-30.0, 2e-3, 30001))
    serial = serial_solve(prof, 4, cells)
    caller, threads = os.sched_getaffinity(0), threading.active_count()
    placed = placed_solves(monkeypatch)
    pinned = eigensolve(prof, 4, cells)
    assert len(placed) == len(cells)
    sets = dict(placed)  # solving thread -> its affinity set
    assert all(len(cpus) == 1 and cpus <= caller for _, cpus in placed)
    assert all(sets[thread] == cpus for thread, cpus in placed)  # a worker stays where it was pinned
    assert len(set(sets.values())) == len(sets)  # and no two workers share a CPU
    assert threading.get_ident() not in sets
    assert_same_bytes(pinned, serial)
    assert os.sched_getaffinity(0) == caller and threading.active_count() == threads


@needs_affinity
def test_spectrum_leaves_the_callers_affinity_and_threads(tmp_path, monkeypatch):
    argv = ["spectrum", "--s", "0.25", "--m", "1", "--grid=-30:30:0.002", "--n", "4", "--cell", "all"]
    caller, threads = os.sched_getaffinity(0), threading.active_count()
    placed = placed_solves(monkeypatch)
    assert main(argv + ["--outdir", str(tmp_path / "pinned")]) == 0
    assert len(placed) == 19 and all(len(cpus) == 1 for _, cpus in placed)
    assert os.sched_getaffinity(0) == caller and threading.active_count() == threads
    monkeypatch.setattr(schrodinger, "_usable_cpus", lambda: [0])
    assert main(argv + ["--outdir", str(tmp_path / "serial")]) == 0
    pinned, serial = (tmp_path / "pinned" / "spectrum.csv").read_bytes(), (tmp_path / "serial" / "spectrum.csv").read_bytes()
    assert pinned == serial


def unpinnable_cpus():
    """The caller's CPUs and three more past the host's last CPU, which no
    thread can be pinned to."""
    real = sorted(os.sched_getaffinity(0))
    top = max(os.cpu_count() or 1, real[-1] + 1)
    return real + [top, top + 1, top + 2]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
@pytest.mark.parametrize("fault", [pytest.param("missing", marks=needs_affinity),
                                   pytest.param("oserror", marks=needs_affinity),
                                   "more_workers_than_cpus"])
def test_a_worker_that_cannot_be_pinned_runs_unpinned(fault, monkeypatch):
    prof, cells = wells_at(grid=(-30.0, 2e-3, 30001))
    serial = serial_solve(prof, 4, cells)
    caller, threads = os.sched_getaffinity(0), threading.active_count()
    if fault == "missing":
        monkeypatch.delattr(os, "sched_setaffinity")
    elif fault == "oserror":
        def refuse(pid, cpus):
            raise OSError(22, "Invalid argument")
        monkeypatch.setattr(os, "sched_setaffinity", refuse)
    else:
        monkeypatch.setattr(schrodinger, "_usable_cpus", unpinnable_cpus)
    pin, after_pin = schrodinger._pin_worker, []

    def recording(free):
        pin(free)
        after_pin.append(frozenset(os.sched_getaffinity(0)))

    monkeypatch.setattr(schrodinger, "_pin_worker", recording)
    placed = placed_solves(monkeypatch)
    CountingPool.sizes = []
    with mock.patch.object(concurrent.futures, "ThreadPoolExecutor", CountingPool):
        results = eigensolve(prof, 4, cells)
    assert CountingPool.sizes == [min(len(cells), len(schrodinger._usable_cpus()))]
    assert len(placed) == len(cells) and 1 <= len(after_pin) <= CountingPool.sizes[0]
    assert_same_bytes(results, serial)
    if fault == "more_workers_than_cpus":
        # the first CPU a worker takes is the last listed, past the host's,
        # so that worker keeps the caller's set; a worker that takes one
        # of the caller's CPUs runs on it alone
        assert CountingPool.sizes[0] > len(caller) and caller in after_pin
        pinned = [cpus for cpus in after_pin if cpus != caller]
        assert all(len(cpus) == 1 and cpus <= caller for cpus in pinned)
        assert len(set(pinned)) == len(pinned)
    else:
        assert all(cpus == caller for cpus in after_pin) and all(cpus == caller for _, cpus in placed)
    assert os.sched_getaffinity(0) == caller and threading.active_count() == threads


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
