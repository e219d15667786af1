"""The radial branch table: closed forms and pole masks, checked against
formulas written out here."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from qsu2 import schrodinger
from qsu2.cli import main
from qsu2.qnumbers import Deformation
from qsu2.schrodinger import (
    F1_BRANCHES,
    F2_BRANCHES,
    POLE_MASK_STEPS,
    build_potential,
    realization,
    solve_f1,
    solve_f2,
)

GRID = (-6.0, 1e-3, 12001)


def run(argv):
    return main([str(a) for a in argv])


# ----------------------------------------------------------------------
# closed forms


@pytest.mark.parametrize(
    "s,f1b,f2b",
    [(0.25, "tan", "cosine"), (3.0, "tanh", "sech"), (3.05, "constant", "exponential"),
     (math.pi / 2, "linear", "constant")],
)
def test_each_branch_derivatives_match_its_value(s, f1b, f2b):
    # central differences of each entry's value, derivative and f1
    # antiderivative, on a pole-free stretch of r
    d = Deformation(s)
    f1 = solve_f1(d, f1b)
    f2 = solve_f2(d, f1, f2b, F=1.3)
    h = 1e-4
    r = np.arange(-0.5, 0.5, h)
    inner = slice(1, -1)
    for prof in (f1, f2):
        v, dv, d2v = prof(r), prof.deriv(r), prof.second(r)
        assert np.abs(np.gradient(v, h) - dv)[inner].max() < 1e-6
        assert np.abs(np.gradient(dv, h) - d2v)[inner].max() < 1e-6
    anti = f1.antiderivative(r)
    assert np.abs(np.gradient(anti, h) - f1(r))[inner].max() < 1e-6
    assert f1.antiderivative(np.zeros(1))[0] == 0.0
    # f2 is the one solution of cos(s) f1 f2 = -f2' with f2(0) = F, so it
    # has no poles but f1's, and only f1 carries a lattice
    want = 1.3 * np.exp(-d.cos_s * anti)
    assert np.abs(f2(r) - want).max() <= 1e-13 * np.abs(want).max()
    assert f2.poles is None and F2_BRANCHES[f2b].lattice is None


@pytest.mark.parametrize("s", [0.05, 0.25, 1.0, 1.5, 1.57])
def test_cosine_f2_is_singular_on_the_tan_lattice_alone(s):
    # 1/f2 = cos(k r)/F changes sign once at each point of f1's lattice and
    # nowhere else, so masking f1's poles masks f2's
    d = Deformation(s)
    fns = realization(d, "tan", "cosine", F=1.3)
    period, origin = fns.f1.poles
    r = np.linspace(origin - 2.75 * period, origin + 3.25 * period, 60001)
    inv = 1.0 / fns.f2(r)
    cuts = np.flatnonzero(inv[:-1] * inv[1:] <= 0.0)
    want = origin + period * np.arange(-2, 4)
    assert len(cuts) == len(want)
    assert np.all((r[cuts] <= want) & (want <= r[cuts + 1]))


def shape_invariant_basis(f1b, x):
    """The r-dependence of each unshifted pair's potential, x = k r: Scarf II
    (tanh/sech), trigonometric Scarf I (tan/cosine) and Morse
    (constant/exponential), as in Cooper, Khare and Sukhatme, Phys. Rep. 251
    (1995) 267."""
    if f1b == "tanh":
        return [np.ones_like(x), 1.0 / np.cosh(x) ** 2, np.tanh(x) / np.cosh(x)]
    if f1b == "tan":
        return [np.ones_like(x), 1.0 / np.cos(x) ** 2, np.tan(x) / np.cos(x)]
    return [np.ones_like(x), np.exp(x), np.exp(2.0 * x)]


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
@pytest.mark.parametrize(
    "s,f1b,f2b",
    [(3.0, "tanh", "sech"), (2.5, "tanh", "sech"), (0.25, "tan", "cosine"), (1.0, "tan", "cosine"),
     (3.05, "constant", "exponential"), (2.55, "constant", "exponential")],
)
def test_each_pair_is_its_shape_invariant_potential(s, f1b, f2b, m):
    # on its unmasked samples V lies in the span of its pair's three basis
    # functions, and its constant (the continuum edge of the tanh and
    # constant branches) does not move with F
    d = Deformation(s)
    k = math.sqrt(abs(d.cos_s))
    constants, scale = [], 0.0
    for F in (0.5, 1.0, 2.0):
        prof = build_potential(realization(d, f1b, f2b, F=F), m, grid=(-4.0, 1e-3, 8001))
        values = prof.values[~prof.pole_mask]
        basis = np.stack(shape_invariant_basis(f1b, k * prof.r[~prof.pole_mask]), axis=1)
        coef = np.linalg.lstsq(basis, values, rcond=None)[0]
        scale = max(scale, np.abs(values).max())
        assert np.abs(basis @ coef - values).max() <= 1e-12 * np.abs(values).max()
        if f1b == "constant":
            assert coef[2] == pytest.approx(F**2, rel=1e-12)
        constants.append(coef[0])
    assert np.ptp(constants) <= 1e-12 * scale


# ----------------------------------------------------------------------
# the constant f2, a solution only where cos s = 0 or F = 0


def test_constant_f2_against_a_non_linear_f1_exits_2(tmp_path, capsys):
    argv = ["potential", "--s", 0.25, "--m", 1, "--f2-branch", "constant", "--outdir", tmp_path]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "--f2-branch constant" in err and "cos s = 0" in err and "F = 0" in err
    assert "tan f1 branch with F = 1.0" in err
    assert not any(tmp_path.iterdir())
    with pytest.raises(ValueError, match="tanh f1 branch with F = -0.5"):
        realization(Deformation(3.0), "tanh", "constant", F=-0.5)


def test_constant_f2_at_zero_F_is_the_zero_solution(tmp_path):
    argv = ["potential", "--s", 0.25, "--m", 1, "--f2-branch", "constant", "--F", 0, "--outdir", tmp_path]
    assert run(argv) == 0
    fns = realization(Deformation(0.25), "tan", "constant", F=0.0)
    r = np.linspace(-1.0, 1.0, 101)
    assert np.all(fns.f2(r) == 0.0) and np.all(schrodinger.f2_residual(Deformation(0.25), fns.f1, fns.f2, r) == 0.0)


def test_linear_and_constant_at_half_pi_are_unchanged(tmp_path):
    s = math.pi / 2
    argv = ["potential", "--s", s, "--m", 1, "--f1-branch", "linear", "--f2-branch", "constant", "--F", 1.3]
    assert run(argv + ["--grid=-3:3:0.01", "--outdir", tmp_path]) == 0
    fns = realization(Deformation(s), "linear", "constant", F=1.3)
    r = np.linspace(-2.0, 2.0, 101)
    assert np.all(fns.f2(r) == 1.3)
    assert np.abs(schrodinger.f2_residual(Deformation(s), fns.f1, fns.f2, r)).max() < 1e-15


# ----------------------------------------------------------------------
# the pole mask


def mask_faults(s, m, F, f1b="tan", f2b="cosine"):
    """Samples the pole mask gets wrong: unmasked ones more than one fine
    step inside the POLE_MASK_STEPS window of a pole, and masked ones more
    than one fine step outside every window.  The poles are bracketed by
    sign changes of cos(k r), the denominator of tan and of the cosine f2,
    on a grid 4x finer; the other branches have none."""
    d = Deformation(s)
    prof = build_potential(realization(d, f1b, f2b, F=F), m, grid=GRID)
    r = prof.r
    window, fine = POLE_MASK_STEPS * prof.step, prof.step / 4.0
    rf = r[0] - window - fine + fine * np.arange(4 * (prof.count - 1) + 8 * POLE_MASK_STEPS + 9)
    den = np.cos(math.sqrt(abs(d.cos_s)) * rf) if f1b == "tan" else np.ones_like(rf)
    cuts = np.flatnonzero(den[:-1] * den[1:] <= 0.0)
    a, b = rf[cuts], rf[cuts + 1]  # each pole lies in [a, b]
    dist_a, dist_b = np.abs(r[:, None] - a), np.abs(r[:, None] - b)
    must = (np.maximum(dist_a, dist_b) <= window - fine).any(axis=1)
    may = (np.minimum(dist_a, dist_b) <= window + fine).any(axis=1)
    return int(np.sum(must & ~prof.pole_mask) + np.sum(prof.pole_mask & ~may))


@given(
    s=st.floats(0.05, 1.5),
    m=st.sampled_from([0.5, 1.0, 2.0]),
    F=st.floats(-2.0, 2.0),
)
def test_pole_mask_covers_every_pole_of_tan_and_cosine(s, m, F):
    assert mask_faults(s, m, F) == 0


@given(
    s=st.floats(1.65, 3.1),
    m=st.sampled_from([0.5, 1.0, 2.0]),
    F=st.floats(-2.0, 2.0),
)
def test_branches_without_poles_mask_nothing(s, m, F):
    assert mask_faults(s, m, F, "tanh", "sech") == 0
    assert mask_faults(s, m, F, "constant", "exponential") == 0


@given(m=st.sampled_from([0.5, 1.0, 2.0]), F=st.floats(-2.0, 2.0))
def test_linear_branch_masks_nothing(m, F):
    assert mask_faults(math.pi / 2, m, F, "linear", "constant") == 0


def test_pole_mask_property_fails_on_a_misplaced_tan_lattice(monkeypatch):
    # a mutant lattice with its origin half a period off: the mask then
    # covers the zeros of cos(k r) and leaves every pole unmasked
    misplaced = dataclasses.replace(F1_BRANCHES["tan"], lattice=lambda k: (math.pi / k, math.pi / k))
    monkeypatch.setitem(schrodinger.F1_BRANCHES, "tan", misplaced)
    assert mask_faults(0.25, 1.0, 0.5) > 0
    unshrunk = settings(phases=[Phase.generate])  # a failure is all this needs
    with pytest.raises(AssertionError):
        unshrunk(test_pole_mask_covers_every_pole_of_tan_and_cosine)()
