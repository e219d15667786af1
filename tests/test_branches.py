"""The radial branch table: closed forms, pole masks and the shifts each
branch takes, checked against formulas written out here."""

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
    eigensolve,
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
    "s,f1b,f2b,shift",
    [(0.25, "tan", "cosine", 0.4), (3.0, "tanh", "sech", -0.7), (3.05, "constant", "exponential", 0.0),
     (math.pi / 2, "linear", "constant", 0.0)],
)
def test_each_branch_derivatives_match_its_value(s, f1b, f2b, shift):
    # central differences of each entry's value, derivative and f1
    # antiderivative, on a pole-free stretch of r
    d = Deformation(s)
    f1 = solve_f1(d, f1b)
    f2 = solve_f2(d, f1, f2b, F=1.3, d_shift=shift)
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


@pytest.mark.parametrize("s", [0.05, 0.25, 1.0, 1.5, 1.57])
def test_tan_and_unshifted_cosine_share_one_lattice(s):
    k = math.sqrt(math.cos(s))
    assert F1_BRANCHES["tan"].lattice(k, 0.0) == F2_BRANCHES["cosine"].lattice(k, 0.0)


# ----------------------------------------------------------------------
# the shift a branch takes


IGNORED_SHIFTS = [
    (3.05, "constant", "exponential", "d1"),
    (3.05, "constant", "exponential", "d2"),
    (0.25, "tan", "cosine", "d1"),
    (3.0, "tanh", "sech", "d2"),
    (math.pi / 2, "linear", "constant", "d1"),
    (math.pi / 2, "linear", "constant", "d2"),
]


@pytest.mark.parametrize("s,f1b,f2b,flag", IGNORED_SHIFTS)
def test_realization_rejects_a_shift_the_branch_ignores(s, f1b, f2b, flag):
    with pytest.raises(ValueError, match=f"{flag} = 0.5 has no effect on the {f2b} f2 branch"):
        realization(Deformation(s), f1b, f2b, **{flag: 0.5})


def test_realization_takes_d1_on_sech_and_d2_on_cosine():
    fns = realization(Deformation(3.0), "tanh", "sech", F=2.0, d1=0.5)
    assert fns.f2(np.zeros(1))[0] == 2.0 / math.cosh(0.5)
    d = Deformation(0.25)
    fns = realization(d, "tan", "cosine", F=2.0, d2=0.5)
    assert fns.f2(np.zeros(1))[0] == 2.0 / math.cos(0.5)
    with pytest.raises(ValueError, match="takes no shift"):
        solve_f2(Deformation(3.05), solve_f1(Deformation(3.05), "constant"), "exponential", d_shift=0.5)


@pytest.mark.parametrize("command", ["potential", "spectrum"])
@pytest.mark.parametrize("s,f1b,f2b,flag", IGNORED_SHIFTS)
def test_cli_exits_2_naming_an_ignored_shift(tmp_path, capsys, command, s, f1b, f2b, flag):
    argv = [command, "--s", s, "--m", 1, "--f1-branch", f1b, "--f2-branch", f2b, f"--{flag}", 0.5]
    assert run(argv + ["--outdir", tmp_path]) == 2
    assert f"error: {flag} = 0.5 has no effect" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


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


def mask_faults(s, m, F, f1b="tan", f2b="cosine", d1=0.0, d2=0.0):
    """Samples the pole mask gets wrong: unmasked ones more than one fine
    step inside the POLE_MASK_STEPS window of a pole, and masked ones more
    than one fine step outside every window.  The poles are bracketed by
    sign changes of cos(k r) (tan) and cos(k r + d2) (cosine) on a grid 4x
    finer; the other branches have none."""
    d = Deformation(s)
    prof = build_potential(realization(d, f1b, f2b, F=F, d1=d1, d2=d2), m, grid=GRID)
    r = prof.r
    window, fine = POLE_MASK_STEPS * prof.step, prof.step / 4.0
    rf = r[0] - window - fine + fine * np.arange(4 * (prof.count - 1) + 8 * POLE_MASK_STEPS + 9)
    k = math.sqrt(abs(d.cos_s))
    dens = ([np.cos(k * rf)] if f1b == "tan" else []) + ([np.cos(k * rf + d2)] if f2b == "cosine" else [])
    cuts = np.concatenate([np.flatnonzero(den[:-1] * den[1:] <= 0.0) for den in dens] + [np.empty(0, int)])
    a, b = rf[cuts], rf[cuts + 1]  # each pole lies in [a, b]
    dist_a, dist_b = np.abs(r[:, None] - a), np.abs(r[:, None] - b)
    must = (np.maximum(dist_a, dist_b) <= window - fine).any(axis=1)
    may = (np.minimum(dist_a, dist_b) <= window + fine).any(axis=1)
    return int(np.sum(must & ~prof.pole_mask) + np.sum(prof.pole_mask & ~may))


@given(
    s=st.floats(0.05, 1.5),
    m=st.sampled_from([0.5, 1.0, 2.0]),
    F=st.floats(-2.0, 2.0),
    d2=st.floats(-3.0, 3.0),
)
def test_pole_mask_covers_every_pole_of_tan_and_shifted_cosine(s, m, F, d2):
    assert mask_faults(s, m, F, d2=d2) == 0


@given(
    s=st.floats(1.65, 3.1),
    m=st.sampled_from([0.5, 1.0, 2.0]),
    F=st.floats(-2.0, 2.0),
    d1=st.floats(-3.0, 3.0),
)
def test_branches_without_poles_mask_nothing(s, m, F, d1):
    assert mask_faults(s, m, F, "tanh", "sech", d1=d1) == 0
    assert mask_faults(s, m, F, "constant", "exponential") == 0


@given(m=st.sampled_from([0.5, 1.0, 2.0]), F=st.floats(-2.0, 2.0))
def test_linear_branch_masks_nothing(m, F):
    assert mask_faults(math.pi / 2, m, F, "linear", "constant") == 0


def test_pole_mask_property_fails_on_an_unshifted_cosine_lattice(monkeypatch):
    # the mask's old fault: the cosine poles placed as if d2 were 0
    unshifted = dataclasses.replace(F2_BRANCHES["cosine"], lattice=lambda k, shift: (math.pi / k, math.pi / (2.0 * k)))
    monkeypatch.setitem(schrodinger.F2_BRANCHES, "cosine", unshifted)
    assert mask_faults(0.25, 1.0, 0.5, d2=0.7) > 0
    unshrunk = settings(phases=[Phase.generate])  # a failure is all this needs
    with pytest.raises(AssertionError):
        unshrunk(test_pole_mask_covers_every_pole_of_tan_and_shifted_cosine)()


def test_shifted_cosine_spectrum_solves_a_well_between_poles(tmp_path):
    # the wells between the tan poles and the d2-shifted cosine poles: the
    # unshifted mask left a cosine pole inside the largest cell, whose
    # ground state came out near -6.3e7
    argv = ["--s", 0.25, "--m", 1, "--d2", 0.7, "--F", 0.5]
    assert run(["spectrum", *argv, "--n", 2, "--outdir", tmp_path / "inline"]) == 0
    inline = (tmp_path / "inline" / "spectrum.csv").read_text().splitlines()
    assert inline[1].startswith("largest,0,3.41179252")
    d = Deformation(0.25)
    prof = build_potential(realization(d, F=0.5, d2=0.7), 1.0)
    assert eigensolve(prof, 2, vectors=False).cell == (1215, 3692)
    # the same spectrum from the written potential
    assert run(["potential", *argv, "--outdir", tmp_path / "pot"]) == 0
    csv = tmp_path / "pot" / "potential.csv"
    assert run(["spectrum", "--potential-csv", csv, "--n", 2, "--outdir", tmp_path / "csv"]) == 0
    from_csv = (tmp_path / "csv" / "spectrum.csv").read_text().splitlines()
    got = [float(row.split(",")[2]) for row in from_csv[1:]]
    want = [float(row.split(",")[2]) for row in inline[1:]]
    assert got == pytest.approx(want, rel=1e-12)
