import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qsu2.operators import continuous_ladder_coeff, ladder_coeff
from qsu2.qnumbers import Deformation, qnumber
from qsu2.schrodinger import (
    PotentialProfile,
    RadialProfile,
    RealizationFns,
    build_potential,
    commensurability_peak,
    coupled_solve,
    decoupled_ok,
    disjoint_support_pair,
    eigen_discretization_error,
    eigensolve,
    f1_residual,
    f2_residual,
    kappa_for,
    ladder_apply,
    ladder_residual,
    ladder_shift,
    liouville_factor,
    realization,
    solve_f1,
    solve_f2,
)


def unmasked_grid(d, branch, lo=-2.0, hi=2.0, n=1001, clearance=0.05):
    r = np.linspace(lo, hi, n)
    if branch == "tan":
        r = r[np.abs(np.cos(math.sqrt(d.cos_s) * r)) > clearance]
    return r


# ----------------------------------------------------------------------
# closed forms


@pytest.mark.parametrize(
    "s,branch",
    [(0.25, "tan"), (1.2, "tan"), (2.4, "tanh"), (3.0, "tanh"), (2.4, "constant"),
     (math.pi / 2, "linear")],
)
def test_f1_ode_residual(s, branch):
    d = Deformation(s)
    f1 = solve_f1(d, branch)
    r = unmasked_grid(d, branch)
    assert np.abs(f1_residual(d, f1, r)).max() < 1e-9


def test_f1_linear_exact():
    d = Deformation(math.pi / 2)
    f1 = solve_f1(d, "linear")
    r = np.linspace(-3, 3, 101)
    assert np.array_equal(f1(r), -r)


def test_f1_constant_value():
    d = Deformation(2.8)
    f1 = solve_f1(d, "constant")
    assert f1(np.zeros(1))[0] == pytest.approx(1.0 / math.sqrt(-d.cos_s), abs=1e-15)


def test_f1_branch_sign_guards():
    with pytest.raises(ValueError):
        solve_f1(Deformation(2.5), "tan")
    with pytest.raises(ValueError):
        solve_f1(Deformation(0.5), "tanh")
    with pytest.raises(ValueError):
        solve_f1(Deformation(1.0), "linear")


def test_f1_continuity_toward_linear():
    # at |cos s| = 1e-3 the deviation from -r is cos(s) r^3/3 + O(r^5)
    for s in (math.pi / 2 - 1e-3, math.pi / 2 + 1e-3):
        d = Deformation(s)
        branch = "tan" if d.cos_s > 0 else "tanh"
        f1 = solve_f1(d, branch)
        r1 = np.linspace(-1.0, 1.0, 401)
        assert np.abs(f1(r1) + r1).max() < 1e-3
        r2 = np.linspace(-2.0, 2.0, 801)
        bound = abs(d.cos_s) * np.abs(r2) ** 3 / 3.0
        assert np.all(np.abs(f1(r2) + r2) <= 1.05 * bound + 1e-12)


@pytest.mark.parametrize(
    "s,f1b,f2b",
    [(2.6, "tanh", "sech"), (3.0, "constant", "exponential"), (0.25, "tan", "cosine"),
     (math.pi / 2, "linear", "constant")],
)
def test_f2_ode_residual(s, f1b, f2b):
    d = Deformation(s)
    f1 = solve_f1(d, f1b)
    f2 = solve_f2(d, f1, f2b, F=1.3)
    r = unmasked_grid(d, f1b)
    assert np.abs(f2_residual(d, f1, f2, r)).max() < 1e-9


def test_f2_constant_at_half_pi():
    d = Deformation(math.pi / 2)
    f1 = solve_f1(d, "linear")
    f2 = solve_f2(d, f1, "constant", F=0.7)
    r = np.linspace(-2, 2, 101)
    assert np.all(f2(r) == 0.7)


def test_f2_pairing_guards():
    d = Deformation(2.6)
    f1 = solve_f1(d, "tanh")
    with pytest.raises(ValueError):
        solve_f2(d, f1, "exponential")
    with pytest.raises(ValueError):
        solve_f2(d, solve_f1(d, "constant"), "sech")


# ----------------------------------------------------------------------
# transform


def test_liouville_factor_forms():
    d = Deformation(math.pi / 2)
    f1 = solve_f1(d, "linear")
    r = np.linspace(-2, 2, 401)
    # default: 2a' - r a = 0 -> a = exp(r^2/4)
    a = liouville_factor(f1, r, kappa=1.0)
    assert np.abs(a - np.exp(r**2 / 4)).max() < 1e-12
    # paper-literal: a = exp(-int f1) = exp(r^2/2), kappa = 2
    a_lit = liouville_factor(f1, r, kappa=2.0)
    assert np.abs(a_lit - np.exp(r**2 / 2)).max() < 1e-12
    # constant f1 with kappa = 1: linear exponent
    d2 = Deformation(2.8)
    f1c = solve_f1(d2, "constant")
    v = f1c(np.zeros(1))[0]
    a_c = liouville_factor(f1c, r, kappa=1.0)
    assert np.abs(a_c - np.exp(-v * r / 2.0)).max() < 1e-12
    # the unscaled form exp(-(A - A_center)) of the antiderivative A is
    # kappa = 2 bit for bit on every f1 branch
    for s, branch in ((0.25, "tan"), (3.0, "tanh"), (2.8, "constant"), (math.pi / 2, "linear")):
        f1b = solve_f1(Deformation(s), branch)
        anti = f1b.antiderivative(r)
        literal = np.exp(-(anti - anti[len(r) // 2]))
        assert liouville_factor(f1b, r, kappa=2.0).tobytes() == literal.tobytes(), branch


def test_transform_eliminates_first_derivative():
    # sanity of V = Q + P^2/4 - P'/2: applying the pre-transform operator to
    # a * phi reproduces a * (-phi'' + V phi) for a smooth test function
    d = Deformation(2.9)
    m = 1.0
    fns = realization(d, F=0.4)
    grid = (-3.0, 1e-3, 6001)
    prof = build_potential(fns, m, grid=grid)
    r = prof.r
    h = prof.step
    kappa = kappa_for(d, m)
    a = liouville_factor(fns.f1, r, kappa)
    phi = np.exp(-(r**2)) * np.sin(2 * r)
    big_r = a * phi

    def d1(f):
        out = np.gradient(f, h, edge_order=2)
        return out

    # pre-transform operator: -R'' + P R' + Q R with P = -kappa f1
    p_coef = -kappa * fns.f1(r)
    q_coef = prof.values - (p_coef**2 / 4.0 - d1(np.full_like(r, 0.0) + p_coef) / 2.0)
    lhs = -d1(d1(big_r)) + p_coef * d1(big_r) + q_coef * big_r
    rhs = a * (-d1(d1(phi)) + prof.values * phi)
    inner = slice(5, -5)
    scale = np.abs(rhs[inner]).max()
    assert np.abs(lhs[inner] - rhs[inner]).max() / scale < 1e-5


def test_kappa_modes():
    d = Deformation(1.1)
    assert kappa_for(d, 2.0) == pytest.approx(math.cos(3.0 * 1.1), abs=1e-15)


# ----------------------------------------------------------------------
# potentials


def test_periodic_regime():
    d = Deformation(0.25)
    period = math.pi / math.sqrt(d.cos_s)
    fns = realization(d, F=0.0)
    a = build_potential(fns, 1.0, grid=(-6.0, 0.01, 1201))
    b = build_potential(fns, 1.0, grid=(-6.0 + period, 0.01, 1201))
    ok = ~a.pole_mask & ~b.pole_mask
    assert np.abs(a.values[ok] - b.values[ok]).max() < 1e-9
    # with the reciprocal-cosine f2 present the f2-odd terms double the
    # period: 2-period shifts still match
    fns1 = realization(d, F=1.0)
    a1 = build_potential(fns1, 1.0, grid=(-6.0, 0.01, 1201))
    b1 = build_potential(fns1, 1.0, grid=(-6.0 + 2 * period, 0.01, 1201))
    ok1 = ~a1.pole_mask & ~b1.pole_mask
    assert np.abs(a1.values[ok1] - b1.values[ok1]).max() < 1e-9


def test_periodic_wells_figure_trend():
    # the literal transform shows the characteristic trend: negative wells
    # of unbounded depth at small m flipping to positive poles above m ~ 2
    # (the f2-free member; the reciprocal-cosine f2 adds poles of both signs)
    d = Deformation(0.25)
    fns = realization(d, F=0.0)
    low = build_potential(fns, 1.0, grid=(-6.0, 0.01, 1201), transform="literal")
    assert low.values[~low.pole_mask].min() < -100.0
    assert low.values[~low.pole_mask].max() < 10.0
    hi = build_potential(fns, 3.0, grid=(-6.0, 0.01, 1201), transform="literal")
    assert hi.values[~hi.pole_mask].max() > 100.0
    assert hi.values[~hi.pole_mask].min() > -5.0


def test_poschl_teller_like_shape():
    # tanh/sech pair at s = 3, m = 1: even well
    d = Deformation(3.0)
    fns = realization(d, F=0.3)
    prof = build_potential(fns, 1.0, grid=(-6.0, 0.01, 1201))
    v = prof.values
    assert np.abs(v - v[::-1]).max() / np.abs(v).max() < 0.01
    assert v.min() < v[0] - 0.3


def test_morse_like_shape():
    # constant/exponential pair near pi: Morse wall with bound states below
    # the flat asymptote
    d = Deformation(3.05)
    fns = realization(d, f1_branch="constant", f2_branch="exponential")
    prof = build_potential(fns, 3.0, grid=(-8.0, 5e-3, 3201))
    res = eigensolve(prof, 6)
    below = int((res.eigenvalues < prof.values[0]).sum())
    assert below >= 1
    assert prof.values[-1] > prof.values[0] + 100.0


def test_potential_rebuild_bit_identical():
    d = Deformation(0.25)
    fns = realization(d, F=1.0)
    a = build_potential(fns, 1.0, grid=(-6.0, 0.01, 1201))
    b = build_potential(fns, 1.0, grid=(-6.0, 0.01, 1201))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.pole_mask, b.pole_mask)


# ----------------------------------------------------------------------
# eigensolver certification


def test_box_levels():
    d = Deformation(math.pi / 2)
    fns = realization(d, F=0.0)
    prof = build_potential(fns, 0.0, grid=(-0.5, 1e-3, 1001))
    res = eigensolve(prof, 4)
    v0 = prof.values[0]
    exact = (np.arange(1, 5) * math.pi / 1.0) ** 2 + v0
    assert np.abs(res.eigenvalues - exact).max() < 2e-4 * exact[-1]


def test_richardson_ratio():
    d = Deformation(math.pi / 2)
    fns = realization(d, F=0.0)
    coarse = build_potential(fns, 0.0, grid=(-0.5, 4e-3, 251))
    mid = build_potential(fns, 0.0, grid=(-0.5, 2e-3, 501))
    fine = build_potential(fns, 0.0, grid=(-0.5, 1e-3, 1001))
    for k in range(3):
        c1 = eigensolve(coarse, k + 1).eigenvalues[k]
        c2 = eigensolve(mid, k + 1).eigenvalues[k]
        c4 = eigensolve(fine, k + 1).eigenvalues[k]
        ratio = (c1 - c2) / (c2 - c4)
        assert 3.5 < ratio < 4.5


def test_poschl_teller_oracle():
    # analytic spectrum of -lambda(lambda+1) sech^2 r certifies the solver
    lam = 2.0
    r0, h, n = -12.0, 1e-3, 24001
    r = r0 + h * np.arange(n)
    values = -lam * (lam + 1.0) / np.cosh(r) ** 2
    prof = _raw_profile(r0, h, n, values)
    res = eigensolve(prof, 2)
    assert abs(res.eigenvalues[0] + 4.0) < 5e-3
    assert abs(res.eigenvalues[1] + 1.0) < 5e-3


def _raw_profile(start, step, count, values):
    return PotentialProfile(start, step, count, values, np.zeros(count, dtype=bool))


def test_orthonormality():
    d = Deformation(math.pi / 2)
    fns = realization(d, F=0.3)
    prof = build_potential(fns, 1.0, grid=(-4.0, 1e-3, 8001))
    res = eigensolve(prof, 5)
    gram = res.eigenvectors.T @ res.eigenvectors * res.h
    assert np.abs(gram - np.eye(5)).max() < 1e-8


def test_eigensolve_per_cell_and_guard():
    d = Deformation(0.25)
    fns = realization(d, F=0.0)
    prof = build_potential(fns, 1.0, grid=(-6.0, 1e-3, 12001))
    r1 = eigensolve(prof, 2, cell=1)
    r2 = eigensolve(prof, 2, cell=2)
    assert r1.cell != r2.cell
    # full interior wells repeat, so their ground states agree closely
    assert r1.eigenvalues[0] == pytest.approx(r2.eigenvalues[0], rel=1e-3)
    small = _raw_profile(0.0, 1e-3, 50, np.zeros(50))
    with pytest.raises(ValueError, match="samples"):
        eigensolve(small, 1)


# ----------------------------------------------------------------------
# refinement at half the step


def assert_refines(fns, m, grid):
    """The half-step profile eigen_discretization_error builds holds the
    profile's own bits at every unmasked coarse sample: the fine grid's
    even points are the coarse points."""
    start, step, count = grid
    prof = build_potential(fns, m, grid=grid)
    fine = build_potential(fns, m, grid=(start, step / 2.0, 2 * count - 1))
    kept = ~prof.pole_mask
    assert fine.values[::2][kept].tobytes() == prof.values[kept].tobytes()


@given(s=st.floats(0.05, 3.1), m=st.sampled_from([0.5, 1.0, 2.0]), F=st.floats(-2.0, 2.0))
@example(s=0.25, m=1.0, F=1.0)
@example(s=3.0, m=1.0, F=1.0)
@example(s=math.pi / 2, m=1.0, F=1.0)
@example(s=2.0, m=1.0, F=1.0)
def test_refinement_rebuilds_a_realization_profile(s, m, F):
    assert_refines(realization(Deformation(s), F=F), m, (-3.0, 1e-2, 601))


def test_discretization_error_of_a_directly_built_realization():
    # built directly, not through realization(): the estimate is the same,
    # F = 0.3 and all, as both of its profiles come from the fns it is given
    d = Deformation(0.25)
    grid = (-6.0, 1e-3, 12001)
    f1 = solve_f1(d, "tan")
    direct = RealizationFns(d, f1, solve_f2(d, f1, "cosine", F=0.3))
    assert_refines(direct, 1.0, grid)
    via = realization(d, F=0.3)
    assert build_potential(direct, 1.0, grid).values.tobytes() == build_potential(via, 1.0, grid).values.tobytes()
    assert eigen_discretization_error(direct, 1.0, 2, grid) == eigen_discretization_error(via, 1.0, 2, grid)


def test_refinement_rebuilds_a_custom_f2():
    # an f2 no branch table names
    d = Deformation(0.25)
    gauss = RadialProfile(
        "gauss",
        lambda r: 0.4 * np.exp(-(r**2)),
        lambda r: -0.8 * r * np.exp(-(r**2)),
        lambda r: (1.6 * r**2 - 0.8) * np.exp(-(r**2)),
    )
    fns = RealizationFns(d, solve_f1(d, "tan"), gauss)
    grid = (-6.0, 1e-3, 12001)
    assert_refines(fns, 1.0, grid)
    assert eigen_discretization_error(fns, 1.0, 0, grid) < 1e-3


def test_discretization_error_passes_the_build_options():
    # the transform shapes both profiles: a transform that changes V changes the estimate
    d = Deformation(1.4)
    fns = realization(d, F=0.0)
    grid = (-1.0, 1e-3, 2001)
    eliminate = eigen_discretization_error(fns, 1.0, 0, grid)
    literal = eigen_discretization_error(fns, 1.0, 0, grid, transform="literal")
    coarse = eigensolve(build_potential(fns, 1.0, grid, transform="literal"), 1, vectors=False)
    fine = eigensolve(build_potential(fns, 1.0, (-1.0, 5e-4, 4001), transform="literal"), 1, vectors=False)
    assert literal == 4.0 / 3.0 * abs(coarse.eigenvalues[0] - fine.eigenvalues[0])
    assert literal != eliminate


# ----------------------------------------------------------------------
# ladder and coupled machinery


def test_decoupled_declaration():
    assert decoupled_ok(Deformation(math.pi / 2), 3.0)
    assert not decoupled_ok(Deformation(1.0), 3.0)


def test_ladder_linearity_zero():
    d = Deformation(math.pi / 2)
    fns = realization(d, F=0.0)
    r = np.linspace(-3, 3, 601)
    out = ladder_apply(np.zeros_like(r), fns, 0.0, +1, r)
    assert np.all(out.psi == 0.0)


def test_ladder_consistency_decoupled():
    # exactly decoupled point: s = pi/2, integer m, F4 = 0
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
    assert c_exp == pytest.approx(c + ladder_shift(d, m, +1), abs=1e-12)
    resid = ladder_residual(lad.psi, dst, c_exp, buffer=3)
    e_self = eigen_discretization_error(fns, m, 2, grid)
    print(f"ladder residual {resid:.3e} vs eigensolver residual {e_self:.3e}")
    assert resid <= 20.0 * e_self


def test_ladder_annihilation_at_edge():
    # bottom state of a finite ladder: the lowering move annihilates
    from qsu2.classify import finite_orbit_candidates

    d = Deformation(1.0)
    N, c = finite_orbit_candidates(d)[1]
    m0 = -N / 2.0
    fns = realization(d, F=0.0)
    r = np.linspace(-0.7, 0.7, 7001)
    h = r[1] - r[0]
    coeff = -(fns.f1(r) / 2.0) * qnumber(2.0 * m0, d) + fns.f2(r)
    cum = np.concatenate(([0.0], np.cumsum((coeff[1:] + coeff[:-1]) / 2.0 * h)))
    big_r = np.exp(cum - cum[len(r) // 2])
    a_m = liouville_factor(fns.f1, r, kappa_for(d, m0))
    psi_edge = big_r / a_m
    out = ladder_apply(psi_edge, fns, m0, -1, r)
    n_in = math.sqrt(h * float(np.sum(psi_edge**2)))
    n_out = math.sqrt(h * float(np.sum(out.psi[3:-3] ** 2)))
    assert n_out < 1e-6 * n_in


def test_ladder_flags_nonunitary_move():
    d = Deformation(1.0)
    fns = realization(d, F=0.0)
    r = np.linspace(-0.5, 0.5, 501)
    out = ladder_apply(np.exp(-(r**2)), fns, 0.5, +1, r, c=0.3)
    assert out.flagged and "unitary" in out.note


def test_ladder_direction_is_a_sign():
    d = Deformation(1.0)
    fns = realization(d, F=0.0)
    r = np.linspace(-0.5, 0.5, 501)
    psi = np.exp(-(r**2))
    assert not np.array_equal(ladder_apply(psi, fns, 0.5, +1, r).psi, ladder_apply(psi, fns, 0.5, -1, r).psi)
    assert ladder_shift(d, 0.5, +1) != ladder_shift(d, 0.5, -1)
    with pytest.raises(ValueError, match="direction"):
        ladder_shift(d, 0.5, "raise")


@pytest.mark.parametrize("bogus", ["up", "rasie", 0, None, "+", "raise"])
def test_ladder_direction_rejects_unknown(bogus):
    d = Deformation(1.0)
    fns = realization(d, F=0.0)
    r = np.linspace(-0.5, 0.5, 51)
    for move in (
        lambda: ladder_apply(np.exp(-(r**2)), fns, 0.5, bogus, r),
        lambda: ladder_shift(d, 0.5, bogus),
        lambda: ladder_coeff(d, 2.0, 0.5, bogus),
        lambda: continuous_ladder_coeff(d, 0.3, 0.5, bogus),
    ):
        with pytest.raises(ValueError, match="direction"):
            move()


def test_coupled_constant_c():
    d = Deformation(3.0)
    f1 = solve_f1(d, "constant")
    zero = RadialProfile(
        "zero",
        lambda r: np.zeros_like(r),
        lambda r: np.zeros_like(r),
        lambda r: np.zeros_like(r),
    )
    out = coupled_solve(d, 1.0, zero, np.linspace(-2, 2, 4001), f1=f1)
    assert out.residual < 1e-8
    assert out.success


def test_coupled_decoupled_cross_check():
    # with the sech-branch f2, the coupled construction returns the
    # exponential-envelope solution: its Casimir sits one squared tail
    # rate below the continuum edge of the potential its own operator
    # defines (no [m]^2 term, cos(s) weight on the f1 f2 term).  Both the
    # closed-form tail value and the band placement are checked.
    d = Deformation(3.1)
    m = 1.0
    f1 = solve_f1(d, "tanh")
    f2 = solve_f2(d, f1, "sech", F=1.0)
    out = coupled_solve(d, m, f2, np.linspace(-6.0, 6.0, 12001), f1=f1)

    fns = realization(d, F=1.0)
    prof = build_potential(fns, m, grid=(-6.0, 1e-3, 12001))
    r = prof.r
    t_f1f2 = -fns.f1(r) * fns.f2(r) * qnumber(2.0 * m - 1.0, d)
    v_true = prof.values - qnumber(m, d) ** 2 + t_f1f2 * (d.cos_s - 1.0)

    # closed-form tail oracle: A -> cos(s)[m]^2 f1(inf), P -> -kappa f1(inf)
    f1_inf = -1.0 / math.sqrt(-d.cos_s)
    a_inf = d.cos_s * qnumber(m, d) ** 2 * f1_inf
    p_inf = -math.cos((2 * m - 1) * d.s) * f1_inf
    k_tail = a_inf - p_inf / 2.0
    c_pred = v_true[-1] - k_tail**2
    assert out.c_estimate == pytest.approx(c_pred, abs=0.05)

    true_prof = _raw_profile(prof.start, prof.step, prof.count, v_true)
    res = eigensolve(true_prof, 1)
    lo = res.eigenvalues[0] - k_tail**2 - 0.1
    hi = v_true[[0, -1]].min() + 1.0
    assert lo < out.c_estimate < hi
    print(
        f"coupled c estimate {out.c_estimate:.4f}, tail prediction {c_pred:.4f}, "
        f"band edge {v_true[-1]:.4f}"
    )


def test_coupled_preconditions():
    d = Deformation(math.pi / 4)
    zero = RadialProfile(
        "zero", lambda r: np.zeros_like(r), lambda r: np.zeros_like(r), lambda r: np.zeros_like(r)
    )
    with pytest.raises(ValueError, match="root"):
        coupled_solve(d, 1.0, zero, np.linspace(-1, 1, 400))
    d2 = Deformation(1.0)
    with pytest.raises(ValueError, match=r"\[2m\]"):
        coupled_solve(d2, math.pi / (2 * 1.0), zero, np.linspace(-1, 1, 400))


# ----------------------------------------------------------------------
# disjoint supports and commensurability


def test_disjoint_supports():
    r = np.linspace(-5, 5, 4001)
    f1, f2 = disjoint_support_pair(
        [-4, -2, 0, 2, 4], [-3, -1, 1, 3], [1.0] * 5, [0.5] * 4, 0.25, r
    )
    assert np.abs(f1 * f2).max() == 0.0
    assert (f1 != 0).any() and (f2 != 0).any()
    # empty second index set
    f1b, f2b = disjoint_support_pair([0, 1], [], [1.0, 1.0], [], 0.25, r)
    assert np.all(f2b == 0.0)
    # eps -> 1 shrinks the cells but keeps the product zero
    f1c, f2c = disjoint_support_pair([0], [1], [1.0], [1.0], 0.999, r)
    assert np.abs(f1c * f2c).max() == 0.0
    with pytest.raises(ValueError, match="overlap"):
        disjoint_support_pair([0, 1], [1, 2], [1, 1], [1, 1], 0.25, r)


def test_commensurability_dichotomy():
    d = Deformation(0.25)
    period = math.pi / math.sqrt(d.cos_s)
    f1 = solve_f1(d, "tan")

    def cos_profile(omega):
        return RadialProfile(
            "user-cos",
            lambda r: np.cos(omega * r),
            lambda r: -omega * np.sin(omega * r),
            lambda r: -(omega**2) * np.cos(omega * r),
        )

    def build(omega):
        fns = RealizationFns(d, f1, cos_profile(omega))
        return build_potential(fns, 1.0, grid=(-40.0, 0.01, 8001))

    peak_comm, lag = commensurability_peak(build(2 * math.pi / period).values, 0.01, period)
    peak_inc, _ = commensurability_peak(
        build(2 * math.pi * math.sqrt(2) / period).values, 0.01, period
    )
    print(f"commensurate peak {peak_comm:.4f} (lag {lag:.2f}), incommensurate {peak_inc:.4f}")
    assert peak_comm >= 0.95
    assert peak_inc < 0.95
