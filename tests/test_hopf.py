import dataclasses
import math

import numpy as np
import pytest

import dense_reference as ref
from qsu2.hopf import (
    GenDeformation,
    build_gen_rep,
    casimir_gen,
    conjugation_residual,
    deformation_f,
    detect_accumulation,
    hopf_axiom_report,
    reduction_residuals,
    sech_profile,
    spectrum_2jz,
    unitarity_window,
    window_c_min,
    window_inequalities,
)

# q1 in (0, 1) branch where the stated window ordering holds
GD_ORDERED = GenDeformation(alpha=3.0, profile="constant", profile_params={"b0": 1.0})


def test_q1_and_h():
    gd = GenDeformation(alpha=2.0)
    assert gd.q1 == pytest.approx(0.5, abs=1e-15)
    assert gd.h == pytest.approx(0.5 - 2.0, abs=1e-15)
    gd2 = GenDeformation(alpha=-1.0)
    assert gd2.q1 == pytest.approx(2.0, abs=1e-15)
    assert gd2.h > 0
    assert gd2.C1 > 0 and gd2.C2 > 0
    with pytest.raises(ValueError):
        GenDeformation(alpha=1.0)  # q1 = 0


def test_deformation_f_reduction():
    gd = GenDeformation(alpha=2.0, profile="constant", profile_params={"b0": 0.7})
    for m in (-3.0, 0.5, 4.0):
        assert deformation_f(m, gd, 1.0) == pytest.approx(1.0, abs=1e-15)
        r0, r1 = reduction_residuals(gd, m)
        assert r0 < 1e-12 and r1 < 1e-6
    # f(m, q1) = 1 + (q1-1)^2 b(m)
    got = deformation_f(1.5, gd, gd.q1)
    assert got == pytest.approx(1.0 + (gd.q1 - 1.0) ** 2 * 0.7, abs=1e-14)


def test_window_coincides_at_c0():
    for gd in (GD_ORDERED, GenDeformation(alpha=-1.0)):
        win = unitarity_window(0.0, gd)
        assert win.L1 == pytest.approx(math.sqrt(gd.q1), abs=1e-12)
        assert win.L2 == pytest.approx(math.sqrt(gd.q1), abs=1e-12)


def test_window_large_c_limits():
    win = unitarity_window(1e8, GD_ORDERED)
    assert win.L1 < 1e-3
    assert win.L2 > 1e3


def test_window_ordering_above_cmin():
    c_min = window_c_min(GD_ORDERED)
    for c in np.linspace(c_min + 1e-3, 50.0, 40):
        win = unitarity_window(c, GD_ORDERED)
        assert win.paper_ordering, c
        assert win.l2 > win.L2 > win.l1 > win.L1
        assert win.f_max > win.f_min


def test_window_against_direct_inequalities():
    # formula window equals the feasible set of the two inequalities,
    # evaluated directly on a fine f grid
    c = 1.0
    win = unitarity_window(c, GD_ORDERED)
    f = np.linspace(0.01, 8.0, 200001)
    e35, e36 = window_inequalities(f, c, GD_ORDERED)
    feasible = f[(e35 >= 0) & (e36 >= 0)]
    assert feasible.min() == pytest.approx(win.f_min, abs=1e-4)
    assert feasible.max() == pytest.approx(win.f_max, abs=1e-4)
    # slightly above c_min the window is non-empty
    win2 = unitarity_window(win.c_min + 1e-6, GD_ORDERED)
    assert win2.f_max - win2.f_min > 0


def test_sech_profile_shape():
    assert sech_profile(0.0, 0.8, 1.2) == pytest.approx(1.2, abs=1e-15)
    assert sech_profile(40.0, 0.8, 1.2) == pytest.approx(0.8, abs=1e-12)
    vals = sech_profile(np.linspace(-10, 10, 401), 0.8, 1.2)
    assert vals.min() >= 0.8 and vals.max() <= 1.2
    with pytest.raises(ValueError):
        sech_profile(0.0, 1.2, 0.8)


def _sech_gd(c=1.0, margin=0.05):
    # image inside the window and above 1 (b positive)
    win = unitarity_window(c, GD_ORDERED)
    width = win.f_max - win.f_min
    f_lo = max(1.02, win.f_min + margin * width)
    f_hi = min(win.f_max - margin * width, f_lo + 0.55)
    return (
        GenDeformation(alpha=3.0, profile="sech", profile_params={"f_lo": f_lo, "f_hi": f_hi}),
        win,
    )


def test_spectrum_bounded_with_accumulation():
    gd, _ = _sech_gd()
    ms = np.arange(-1000.0, 1001.0)
    vals = spectrum_2jz(gd, ms)
    assert np.isfinite(vals).all()
    f_lo = gd.profile_params["f_lo"]
    limit = 2.0 * (f_lo - 1.0 / f_lo) / gd.h
    tail = np.abs(ms) >= 20.0
    assert np.abs(vals[tail] - limit).max() < 1e-8
    info = detect_accumulation(ms, vals)
    assert info["bounded"] and info["monotone_tails"] and info["two_sided"]
    assert info["limit"] == pytest.approx(limit, abs=1e-8)


def test_accumulation_needs_two_disjoint_tails():
    ms = np.arange(16.0)
    vals = 1.0 / (1.0 + ms**2)
    assert detect_accumulation(ms, vals)["monotone_tails"]
    with pytest.raises(ValueError, match="15 samples cannot fill two disjoint tails of 8"):
        detect_accumulation(ms[:-1], vals[:-1])
    with pytest.raises(ValueError, match="5 samples"):
        detect_accumulation(ms[:5], vals[:5])


def test_spectrum_trivial_deformation():
    # b -> 0 makes f -> 1 and the commutator spectrum vanish
    gd = GenDeformation(alpha=2.0, profile="constant", profile_params={"b0": 1e-12})
    vals = spectrum_2jz(gd, np.arange(-10.0, 11.0))
    assert np.abs(vals).max() < 1e-10


def test_window_compliance_of_built_rep():
    gd, win = _sech_gd()
    ms = np.arange(-5.0, 6.0)
    f = gd.f_at_q1(ms)
    e35, e36 = window_inequalities(f, 1.0, gd)
    assert (e35 >= -1e-12).all() and (e36 >= -1e-12).all()


def test_build_gen_rep_commutator():
    gd = GenDeformation(alpha=2.0, profile="constant", profile_params={"b0": 0.5})
    rep = build_gen_rep(gd, 9, 50.0)
    jz, jp, jm, _ = rep
    ms = np.real(np.diag(jz.entries))
    comm = jp.entries @ jm.entries - jm.entries @ jp.entries
    want = spectrum_2jz(gd, ms)
    assert np.abs(np.diag(comm).real[2:-2] - want[2:-2]).max() < 1e-10
    assert np.abs(comm - np.diag(np.diag(comm))).max() == 0.0


def test_telescoping_consistency():
    gd = GenDeformation(alpha=2.0, profile="constant", profile_params={"b0": 0.5})
    rep = build_gen_rep(gd, 9, 50.0)
    jz, jp, jm, _ = rep
    n = jp.entries.shape[0]
    n2 = np.array([abs(jp.entries[i + 1, i]) ** 2 for i in range(n - 1)])
    ms = np.real(np.diag(jz.entries))
    k_diag = spectrum_2jz(gd, ms)
    # summing the interior commutator diagonal telescopes the squared
    # coefficients between the ends
    assert np.sum(k_diag[1:-1]) == pytest.approx(n2[0] - n2[-1], rel=1e-12)


def test_build_gen_rep_geometric_casimir_and_conjugation():
    gd = GenDeformation(alpha=2.0, profile="geometric", profile_params={"f0": 20.0})
    rep = build_gen_rep(gd, 9, 900.0)
    cas = casimir_gen(gd, rep)
    # the dense quartic Casimir is diagonal: its off-diagonal entries are zeros
    assert np.array_equal(np.diag(cas), ref.casimir_gen(gd, *(op.entries for op in rep[1:])))
    diag = cas.real[2:-2]
    assert diag.max() - diag.min() < 1e-8
    assert np.abs(diag - 900.0).max() < 1e-8
    assert conjugation_residual(gd, rep) < 1e-10


def test_build_gen_rep_anchor_failure():
    gd = GenDeformation(alpha=2.0, profile="geometric", profile_params={"f0": 20.0})
    with pytest.raises(ValueError, match="anchor"):
        build_gen_rep(gd, 9, 1e-3)


def test_build_gen_rep_applies_the_unitarity_rule():
    gd = GenDeformation(alpha=2.0, profile="geometric", profile_params={"f0": 20.0})
    # NaN is never admissible: a NaN c gives NaN |N|^2, which the rule rejects
    with pytest.raises(ValueError, match=r"min \|N\|\^2 = nan$"):
        build_gen_rep(gd, 9, math.nan)
    # the error prints a float, not a numpy repr
    with pytest.raises(ValueError, match=r"= -[0-9.e+-]+$"):
        build_gen_rep(GenDeformation(alpha=-1.0), 9, 2.0)


def test_reduction_of_spectrum():
    gd = GenDeformation(alpha=2.0, profile="constant", profile_params={"b0": 0.3})
    for m in (-2.0, 1.0, 3.0):
        errs = []
        for eps in (1e-3, 1e-4):
            q = 1.0 + eps
            f = deformation_f(m, gd, q)
            val = 2.0 * (f - 1.0 / f) / (q - 1.0 / q)
            errs.append(abs(val - 2.0 * m))
        assert errs[0] < 0.05 * max(1.0, abs(m))
        assert errs[1] < 0.25 * errs[0]  # O(eps) decay


def test_hopf_axiom_report():
    gd = GenDeformation(alpha=2.0, profile="geometric", profile_params={"f0": 20.0})
    rep = build_gen_rep(gd, 7, 900.0)
    report = hopf_axiom_report(gd, rep)
    assert report.coassoc_g == 0.0
    assert report.coassoc_jp < 1e-10
    assert report.counit_jp < 1e-12
    assert report.counit_g == 0.0
    # antipode: the full-power convention leaves a sqrt(q) mismatch
    # on the diagonal realization; the half-power convention closes exactly
    # on the geometric profile (recorded, per the convention ambiguity)
    print(
        f"antipode residuals: full-power {report.antipode_full:.3e}, "
        f"half-power {report.antipode_half:.3e}"
    )
    assert report.antipode_full > 1e-3
    assert report.antipode_half < 1e-10
    assert report.comult_homomorphism < 1e-10
    assert report.conjugation < 1e-10


@pytest.mark.parametrize("i", range(2, 7), ids=lambda i: f"row{i}")
def test_hopf_residuals_fire_on_a_perturbed_rep(i):
    # one interior entry of g or J_+ scaled by 1 + 1e-8 breaks the relations
    # that the geometric profile closes, and J_+ the commutator relation the
    # construction closes; coassoc_jp and counit_jp cannot see it
    c = 900.0
    bound = 1e-10 * max(1.0, c)
    gd = GenDeformation(alpha=2.0, profile="geometric", profile_params={"f0": 20.0})
    jz, jp, jm, g = build_gen_rep(gd, 9, c)
    base = hopf_axiom_report(gd, (jz, jp, jm, g))
    assert base.comult_homomorphism < bound and base.conjugation < bound
    assert base.commutator_defect < bound

    band = g.band.copy()
    band[i] *= 1.0 + 1e-8
    moved_g = hopf_axiom_report(gd, (jz, jp, jm, dataclasses.replace(g, band=band)))
    band = jp.band.copy()
    band[i] *= 1.0 + 1e-8
    jp_moved = dataclasses.replace(jp, band=band)
    moved_jp = hopf_axiom_report(gd, (jz, jp_moved, jp_moved.adjoint(), g))

    assert moved_g.comult_homomorphism > bound
    assert moved_g.conjugation > bound
    assert moved_jp.comult_homomorphism > bound
    assert moved_jp.commutator_defect > bound
    for moved in (moved_g, moved_jp):
        assert (moved.coassoc_jp, moved.counit_jp) == (base.coassoc_jp, base.counit_jp)


def test_hopf_report_sech_residuals_recorded():
    # c well above the telescoping drift so the truncation stays unitary
    gd, _ = _sech_gd(c=5.0)
    rep = build_gen_rep(gd, 9, 5.0)
    report = hopf_axiom_report(gd, rep)
    assert report.coassoc_jp < 1e-10
    assert report.counit_jp < 1e-12
    # conjugation and homomorphism do not close off the geometric point;
    # their sizes are reported, not asserted
    print(
        f"sech profile: conjugation {report.conjugation:.3e}, "
        f"homomorphism {report.comult_homomorphism:.3e}"
    )


def test_profile_closure_built_once(monkeypatch):
    import qsu2.hopf as hopf

    calls = []
    real = hopf._profile_geometric
    monkeypatch.setattr(hopf, "_profile_geometric", lambda *a: calls.append(a) or real(*a))
    gd = GenDeformation(alpha=2.0, profile="geometric", profile_params={"f0": 20.0})
    hopf_axiom_report(gd, build_gen_rep(gd, 9, 900.0))
    spectrum_2jz(gd, np.arange(-5.0, 6.0))
    assert len(calls) == 1
