"""The Casimir identities `verify_algebra` does not compute, bounded by the
residuals it does.

Write C_a = [J_z + 1/2]^2 + J_- J_+ and C_b = [J_z - 1/2]^2 + J_+ J_-.  Three
exact identities tie the quantities `verify_algebra` once reported to the
three it keeps, for any bands and any c:

- the forms differ by [J_+, J_-] - [2 J_z], since [m + 1/2]^2 - [m - 1/2]^2
  = [2m], so their deviation equals `res_jp_jm`;
- the Maekawa form cos(s) [J_z]^2 + (J_+ J_- + J_- J_+)/2 + [1/2]^2 is
  (C_a + C_b)/2, since [m + 1/2]^2 + [m - 1/2]^2 = 2 cos(s) [m]^2 + 2 [1/2]^2,
  so its deviation from c is at most `res_casimir`;
- [C_b, J_+] has entries J_+ (C_{i+1} - C_i), so it is at most
  2 max|J_+| `res_casimir`.

Each is checked on a representation with one of J_z, J_+, J_- or c
perturbed, so a kept residual that reads fewer rows or one Casimir form
only fails a bound.  The deleted quantities are computed here from the
bands, as `verify_algebra` computed them.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsu2.classify import finite_orbit_candidates
from qsu2.operators import build_rep, verify_algebra
from qsu2.qnumbers import Deformation, qnumber

EPS = np.finfo(float).eps
# Rounding floor, in units of EPS max(1, c, 1/sin^2 s) max(1, |m|): the terms
# are at most max(c, 1/sin^2 s), and [x] = sin(x s)/sin s rounds its argument
# to about EPS |x s|.  Over 40,000 random draws of this module's strategy the
# identities held to 2.04 units.  The floor is absolute: below about 1e-11 the
# ratios of the quantities reach 50.
FLOOR_UNITS = 8


def _absmax(a) -> float:
    return float(np.abs(a).max()) if a.size else 0.0


def deleted_quantities(triple, d, c, report):
    """(casimir_forms_dev, maekawa_shift_dev, casimir_commutes) on the
    report's interior rows."""
    jp, jm = triple[1].band, triple[2].band
    ms = np.asarray(triple[0].basis, dtype=float)
    lo, hi = report.interior_buffer, len(ms) - report.interior_buffer
    diag = slice(lo, hi)
    pm = np.concatenate(([0.0], jp * jm))  # diagonal of J_+ J_-
    mp = np.concatenate((jm * jp, [0.0]))  # diagonal of J_- J_+
    cas_a = qnumber(ms + 0.5, d) ** 2 + mp
    cas_b = qnumber(ms - 0.5, d) ** 2 + pm
    anti = (pm + mp) / 2.0
    maekawa = d.cos_s * qnumber(ms, d) ** 2 + anti + qnumber(0.5, d) ** 2
    forms = max(_absmax((cas_a - cas_b)[diag]), _absmax((cas_a - maekawa)[diag]))
    # a product shifts rows by one, so a truncation loses one more row
    lo2, hi2 = (lo, hi) if report.closed else (lo + 1, hi - 1)
    commutes = _absmax((cas_b[1:] * jp - jp * cas_b[:-1])[lo2 : hi2 - 1])
    return forms, _absmax((c - maekawa)[diag]), commutes


@st.composite
def perturbed_reps(draw):
    """(triple, d, c): a unitary representation, finite or truncated, with
    one entry of J_z, J_+ or J_-, or the Casimir it is verified at, moved."""
    d = Deformation(draw(st.floats(0.05, math.pi - 0.05)))
    cands = [(n, c) for n, c in finite_orbit_candidates(d) if n <= 40]
    if cands and draw(st.booleans()):
        n_dim, c = draw(st.sampled_from(cands))
        ms = -n_dim / 2.0 + np.arange(n_dim + 1)
    else:  # continuous series: every radicand c - [x]^2 is positive
        c = (1.0 + draw(st.floats(0.0, 3.0))) / d.sin_s**2
        ms = draw(st.floats(-40.0, 40.0)) + np.arange(draw(st.integers(5, 24)))
    triple = build_rep(d, c, ms)

    target = draw(st.sampled_from(["jz", "jp", "jm", "c"]))
    delta = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-13.0, -4.0))
    if target == "c":
        return triple, d, c * (1.0 + delta)
    k = ("jz", "jp", "jm").index(target)
    band = triple[k].band.copy()
    i = draw(st.integers(0, len(band) - 1))
    band[i] = band[i] * (1.0 + delta) + (delta if target == "jz" else 0.0)
    moved = list(triple)
    moved[k] = type(triple[k])(band, triple[k].offset, triple[k].basis, triple[k].fill)
    return tuple(moved), d, c


@settings(max_examples=400)
@given(case=perturbed_reps())
def test_deleted_residuals_are_bounded_by_kept_ones(case):
    triple, d, c = case
    try:
        report = verify_algebra(triple, d, c)
    except ValueError:  # a finite class too short once c moves off it
        assume(False)
    forms, maekawa, commutes = deleted_quantities(triple, d, c, report)
    ms = np.asarray(triple[0].basis)
    floor = FLOOR_UNITS * EPS * max(1.0, abs(c), 1.0 / d.sin_s**2) * max(1.0, float(np.abs(ms).max()))
    top = _absmax(triple[1].band)

    assert abs(forms - report.res_jp_jm) <= floor, (forms, report.res_jp_jm)
    assert maekawa <= report.res_casimir + floor, (maekawa, report.res_casimir)
    assert commutes <= top * (2.0 * report.res_casimir + floor), (commutes, top, report.res_casimir)
