"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion
report.  Tolerances are fixed here, not calibrated.
"""

import math

import numpy as np
import pytest

from qsu2.classify import (
    allowed_m_set,
    finite_orbit_candidates,
    thresholds,
)
from qsu2.geometry import flow_bound_excess, level_section, spectral_flow, topology_transition
from qsu2.hopf import (
    GenDeformation,
    build_gen_rep,
    detect_accumulation,
    hopf_axiom_report,
    spectrum_2jz,
    unitarity_window,
    window_c_min,
)
from qsu2.operators import build_rep, verify_algebra
from qsu2.qnumbers import Deformation, bracket_sequence, qnumber
from qsu2.schrodinger import (
    PotentialProfile,
    RadialProfile,
    build_potential,
    coupled_solve,
    eigen_discretization_error,
    eigensolve,
    f1_residual,
    f2_residual,
    kappa_for,
    ladder_apply,
    ladder_residual,
    realization,
    solve_f1,
    solve_f2,
    transform_term,
)

# 40-digit evaluations of the s = 1.013 thresholds
C0_1013 = 1.3892311255983471224
C1_1013 = 1.0622879695463019876
C2_1013 = 0.3269431560520451349
S_STAR_C1 = 0.90455689430238136


def report(n, text):
    print(f"ACCEPTANCE {n:2d}: PASS - {text}")


def test_criterion_01_algebra_closure():
    rng = np.random.RandomState(1)
    worst = 0.0
    built = 0
    while built < 50:
        s = rng.uniform(0.2, 3.0)
        d = Deformation(s)
        cands = finite_orbit_candidates(d)
        if not cands:
            continue
        n_dim, c = cands[rng.randint(len(cands))]
        triple = build_rep(d, c, -n_dim / 2.0 + np.arange(n_dim + 1))
        rep = verify_algebra(triple, d, c)
        assert rep.closed
        worst = max(worst, rep.res_jz_jpm, rep.res_jp_jm, rep.res_casimir)
        built += 1
    assert worst < 1e-10
    report(1, f"50 finite representations closed; max residual {worst:.2e} < 1e-10")


def test_criterion_02_classification_oracle():
    rng = np.random.RandomState(2)
    grid = np.arange(-20.0, 20.5, 0.5)
    for _ in range(500):
        s = rng.uniform(0.05, math.pi - 0.05)
        d = Deformation(s)
        c = rng.uniform(0.01, 3.0 / d.sin_s**2)
        mask = allowed_m_set(d, c, grid)
        cs2 = c * d.sin_s**2
        brute = np.array(
            [
                cs2 >= math.sin(d.s * (m - 0.5)) ** 2 and cs2 >= math.sin(d.s * (m + 0.5)) ** 2
                for m in grid
            ]
        )
        assert np.array_equal(mask, brute), (s, c)
    report(2, "500 random (s, c): classified allowed-m sets equal brute-force scans exactly")


def test_criterion_03_thresholds_high_precision():
    th = thresholds(Deformation(1.013))
    assert abs(th.c0 - C0_1013) < 1e-12
    assert abs(th.c1 - C1_1013) < 1e-12
    assert abs(th.c2 - C2_1013) < 1e-12
    report(3, f"s=1.013 thresholds match 40-digit values to 1e-12 "
              f"({th.c0:.6f}, {th.c1:.6f}, {th.c2:.6f})")


def test_criterion_04_e2_limit():
    d = Deformation(math.pi / 2)
    c = 2.0
    ms = np.arange(-6.0, 7.0)
    triple = build_rep(d, c, ms)
    jz, jp, jm = (t.entries for t in triple)
    comm = (jp @ jm - jm @ jp)[2:-2, 2:-2]
    comm_norm = np.abs(comm).max()
    assert comm_norm < 1e-12
    jx, jy = (jp + jm) / 2.0, (jp - jm) / 2.0j
    eye = np.eye(len(ms))
    resid = np.abs((c * eye - jx @ jx - jy @ jy - 0.5 * eye)[2:-2, 2:-2]).max()
    assert resid < 1e-10
    report(4, f"e(2) point: ||[J+,J-]|| = {comm_norm:.2e} < 1e-12, "
              f"Euclidean Casimir residual {resid:.2e} < 1e-10")


def test_criterion_05_su11_limit():
    d = Deformation(math.pi - 1e-4)
    ms = np.arange(-6.0, 7.0)
    dev = np.abs(bracket_sequence(ms, d) + 2.0 * ms).max()
    assert dev < 1e-3
    report(5, f"s = pi - 1e-4: diag[2Jz] = -2m within {dev:.2e} < 1e-3")


def test_criterion_06_ode_residuals_and_continuity():
    worst = 0.0
    cases = [
        (0.25, "tan", "cosine"),
        (1.2, "tan", "cosine"),
        (2.5, "tanh", "sech"),
        (3.0, "tanh", "sech"),
        (2.5, "constant", "exponential"),
        (math.pi / 2, "linear", "constant"),
    ]
    for s, b1, b2 in cases:
        d = Deformation(s)
        f1 = solve_f1(d, b1)
        f2 = solve_f2(d, f1, b2, F=1.1)
        r = np.linspace(-2.0, 2.0, 2001)
        if b1 == "tan":
            r = r[np.abs(np.cos(math.sqrt(d.cos_s) * r)) > 0.05]
        worst = max(worst, np.abs(f1_residual(d, f1, r)).max())
        worst = max(worst, np.abs(f2_residual(d, f1, f2, r)).max())
    assert worst < 1e-9
    # continuity toward the linear solution as |cos s| -> 1e-3
    dev = 0.0
    for s in (math.pi / 2 - 1e-3, math.pi / 2 + 1e-3):
        d = Deformation(s)
        f1 = solve_f1(d, "tan" if d.cos_s > 0 else "tanh")
        r = np.linspace(-1.0, 1.0, 801)
        dev = max(dev, np.abs(f1(r) + r).max())
    assert dev < 1e-3
    report(6, f"all closed-form branches: ODE residual {worst:.2e} < 1e-9; "
              f"|cos s| = 1e-3 continuity deviation {dev:.2e} < 1e-3")


def _flat_profile(start, step, count, values):
    return PotentialProfile(start, step, count, values, np.zeros(count, dtype=bool))


def test_criterion_07_eigensolver_certification():
    # particle in a box: Richardson ratio for the three lowest levels
    d = Deformation(math.pi / 2)
    fns = realization(d, F=0.0)
    coarse = build_potential(fns, 0.0, grid=(-0.5, 4e-3, 251))
    mid = build_potential(fns, 0.0, grid=(-0.5, 2e-3, 501))
    fine = build_potential(fns, 0.0, grid=(-0.5, 1e-3, 1001))
    ratios = []
    for k in range(3):
        c1 = eigensolve(coarse, k + 1).eigenvalues[k]
        c2 = eigensolve(mid, k + 1).eigenvalues[k]
        c4 = eigensolve(fine, k + 1).eigenvalues[k]
        ratios.append((c1 - c2) / (c2 - c4))
    assert all(3.5 < r < 4.5 for r in ratios)
    # Poschl-Teller lambda = 2 oracle at h = 1e-3
    h, r0, n = 1e-3, -12.0, 24001
    r = r0 + h * np.arange(n)
    prof = _flat_profile(r0, h, n, -6.0 / np.cosh(r) ** 2)
    res = eigensolve(prof, 2)
    e0, e1 = abs(res.eigenvalues[0] + 4.0), abs(res.eigenvalues[1] + 1.0)
    assert e0 < 5e-3 and e1 < 5e-3
    report(7, f"box Richardson ratios {[f'{x:.3f}' for x in ratios]} in [3.5, 4.5]; "
              f"Poschl-Teller levels off by ({e0:.1e}, {e1:.1e}) < 5e-3")


def _linear_form_excess(d, m, F, mutant=False):
    """max |V - (C + a r)| / max(1, |V|) of the s = pi/2 potential, against
    C = F^2 + [m]^2 + [m-1/2]^2 and a = F [2m-1]: there f1 = -r and f2 = F,
    the f1^2 terms cancel for the exact kappa (kappa^2 = [2m]^2 = sin^2(m pi))
    and so do the constants -kappa/2 + [2m]/2.  The mutant is the unit-kappa
    operator: V with the transform term of kappa = 1 in place of the exact one."""
    fns = realization(d, F=F)
    prof = build_potential(fns, m, grid=(-4.0, 1e-3, 8001))
    values = prof.values
    if mutant:
        f1v, f1d = fns.f1(prof.r), fns.f1.deriv(prof.r)
        values = values + transform_term(1.0, f1v, f1d) - transform_term(kappa_for(d, m), f1v, f1d)
    const = F**2 + qnumber(m, d) ** 2 + qnumber(m - 0.5, d) ** 2
    line = const + F * qnumber(2.0 * m - 1.0, d) * prof.r
    return float(np.max(np.abs(values - line) / np.maximum(1.0, np.abs(values))))


def test_criterion_08_linear_regime():
    d = Deformation(math.pi / 2)
    worst = max(_linear_form_excess(d, m, F) for m in np.arange(0.0, 3.5, 0.5) for F in (0.0, 0.5, 1.3))
    assert worst < 1e-12
    # at integer m the exact kappa is 0, so kappa = 1 adds f1^2/4 + f1'/2 = r^2/4 - 1/2: the form fails
    mutant = min(_linear_form_excess(d, m, F, mutant=True) for m in (0.0, 1.0, 2.0, 3.0) for F in (0.0, 0.5, 1.3))
    assert mutant > 0.5
    report(8, f"s = pi/2, exact kappa: V = C + F [2m-1] r within {worst:.1e} < 1e-12 max(1, |V|), "
              f"m = 0..3 in half steps, F in (0, 0.5, 1.3); unit kappa misses it by >= {mutant:.2f}")


def test_criterion_09_periodicity():
    d = Deformation(0.25)
    period = math.pi / math.sqrt(d.cos_s)
    fns = realization(d, F=0.0)
    a = build_potential(fns, 1.0, grid=(-6.0, 0.01, 1201))
    b = build_potential(fns, 1.0, grid=(-6.0 + period, 0.01, 1201))
    ok = ~a.pole_mask & ~b.pole_mask
    dev = np.abs(a.values[ok] - b.values[ok]).max()
    assert dev < 1e-9
    report(9, f"cos s > 0: V(r + pi/sqrt(cos s)) = V(r) within {dev:.2e} < 1e-9")


def test_criterion_10_ladder_consistency():
    d = Deformation(math.pi / 2)
    m = 0.0
    fns = realization(d, F=0.0)
    grid = (-3.0, 1e-3, 6001)
    src = build_potential(fns, m, grid=grid)
    dst = build_potential(fns, m + 1, grid=grid)
    res = eigensolve(src, 3)
    c = res.eigenvalues[2]
    lad = ladder_apply(res.eigenvectors[:, 2], fns, m, +1, res.r, c=c)
    assert not lad.flagged
    c_exp = c - qnumber(m, d) ** 2 + qnumber(m + 1, d) ** 2
    resid = ladder_residual(lad.psi, dst, c_exp, buffer=3)
    e_self = eigen_discretization_error(fns, m, 2, grid)
    assert resid <= 20.0 * e_self
    report(10, f"ladder residual {resid:.2e} <= 20 x eigensolver residual {e_self:.2e}")


def test_criterion_11_coupled_mode_constancy():
    d = Deformation(3.0)
    f1 = solve_f1(d, "constant")
    zero = RadialProfile(
        "zero", lambda r: np.zeros_like(r), lambda r: np.zeros_like(r),
        lambda r: np.zeros_like(r),
    )
    out = coupled_solve(d, 1.0, zero, np.linspace(-2.0, 2.0, 4001), f1=f1)
    assert out.residual < 1e-8
    report(11, f"coupled solve with f2 = 0: c(r) deviation {out.residual:.2e} < 1e-8 "
               f"(c = {out.c_estimate:.6f})")


def test_criterion_12_hopf_checks():
    gd = GenDeformation(alpha=2.0, profile="geometric", profile_params={"f0": 20.0})
    rep = build_gen_rep(gd, 7, 900.0)
    hr = hopf_axiom_report(gd, rep)
    assert hr.coassoc_jp < 1e-10 and hr.coassoc_g < 1e-10
    assert hr.counit_jp < 1e-10 and hr.counit_g < 1e-10
    assert hr.conjugation < 1e-10
    report(12, f"coassociativity {hr.coassoc_jp:.2e}, counit {hr.counit_jp:.2e}, "
               f"conjugation {hr.conjugation:.2e} all < 1e-10; reported residuals: "
               f"antipode full/half {hr.antipode_full:.2e}/{hr.antipode_half:.2e}, "
               f"coproduct homomorphism {hr.comult_homomorphism:.2e}")


def test_criterion_13_window_and_spectrum():
    gd = GenDeformation(alpha=3.0, profile="constant", profile_params={"b0": 1.0})
    win0 = unitarity_window(0.0, gd)
    assert abs(win0.L1 - math.sqrt(gd.q1)) < 1e-12
    assert abs(win0.L2 - math.sqrt(gd.q1)) < 1e-12
    c_min = window_c_min(gd)
    for c in np.linspace(c_min + 1e-3, 40.0, 30):
        win = unitarity_window(c, gd)
        assert win.l2 > win.L2 > win.l1 > win.L1
        assert win.f_max > win.f_min
    # sech-profile spectrum: bounded with the accumulation point at
    # 2 (f_lo - 1/f_lo)/h
    win1 = unitarity_window(1.0, gd)
    f_lo = max(1.02, win1.f_min + 0.05 * (win1.f_max - win1.f_min))
    f_hi = min(win1.f_max - 0.05 * (win1.f_max - win1.f_min), f_lo + 0.55)
    gd_s = GenDeformation(alpha=3.0, profile="sech", profile_params={"f_lo": f_lo, "f_hi": f_hi})
    ms = np.arange(-300.0, 301.0)
    vals = spectrum_2jz(gd_s, ms)
    info = detect_accumulation(ms, vals)
    limit = 2.0 * (f_lo - 1.0 / f_lo) / gd_s.h
    assert info["bounded"] and info["two_sided"]
    assert abs(info["limit"] - limit) < 1e-8
    report(13, f"L1(0) = L2(0) = sqrt(q1) to 1e-12; ordering l2 > L2 > l1 > L1 on "
               f"c grid above c_min = {c_min:.2e}; accumulation point matches "
               f"2(f_lo - 1/f_lo)/h to 1e-8")


def test_criterion_14_geometry():
    s_grid = np.linspace(0.05, 3.1, 3000)
    s_star = topology_transition(1.0, s_grid)
    step = s_grid[1] - s_grid[0]
    assert abs(s_star - S_STAR_C1) <= step
    jz = np.linspace(-12.0, 12.0, 2401)
    for s in np.linspace(math.pi / 2, math.pi - 0.05, 12):
        assert level_section(Deformation(s), 0.4, jz).connectivity == "Connected"
    flow_grid = np.linspace(0.05, math.pi - 0.05, 500)
    table = spectral_flow(4.5, flow_grid)
    assert flow_bound_excess(table) <= 1e-12
    for target in (math.pi / 2, math.pi / 3, math.pi / 4):
        assert any(abs(c[0] - target) < 2 * (flow_grid[1] - flow_grid[0]) for c in table.crossings)
    report(14, f"transition at s* = {s_star:.4f} (expected {S_STAR_C1:.4f}); all "
               f"cos s <= 0 sections connected; flow bounded with crossings at "
               f"pi/2, pi/3, pi/4")


def test_criterion_15_reproducibility(tmp_path):
    import json

    from qsu2.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text("s = 1.013\nc_range = 0.2:2.0:0.05\n")
    runs = [
        ["potential", "--s", "0.25", "--m", "1", "--grid=-6:6:0.01"],
        ["classify", "--s", "1.013", "--c-range", "0.2:2.0:0.05"],
        ["spectrum", "--s", "3.0", "--m", "1", "--F", "0.3", "--grid=-5:5:0.005",
         "--n", "2", "--with-vectors"],
        ["flow", "--m-max", "4.5", "--s-grid", "0.05:3.0:0.01"],
        ["surface", "--c", "0.5", "--s", "0.5"],
        ["hopf", "--alpha", "3", "--profile", "geometric", "--f0", "20", "--c", "500", "--dim", "7"],
        ["hopf", "--alpha", "3", "--profile", "geometric", "--f0", "20", "--c", "500", "--dim", "7",
         "--m-range=-5:5:0.5"],
        ["classify", "--config", str(cfg)],  # the rerun runs after the config is deleted
    ]
    for i, argv in enumerate(runs):
        sub = argv[0]
        out1, out2 = tmp_path / f"{i}_{sub}_1", tmp_path / f"{i}_{sub}_2"
        assert main(argv + ["--outdir", str(out1)]) == 0
        if "--config" in argv:
            cfg.unlink()
        assert main(["rerun", str(out1 / f"{sub}_manifest.json"), "--outdir", str(out2)]) == 0
        first, again = (json.loads((out / f"{sub}_manifest.json").read_text()) for out in (out1, out2))
        assert first["outputs"] and again["outputs"] == first["outputs"], argv
    report(15, "every CLI run regenerated byte-identical outputs from its manifest")
