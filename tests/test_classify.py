import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsu2.classify import (
    RADICAND_TOL,
    RepClass,
    allowed_m_set,
    class2a_enumerate,
    classify,
    continuous_series_c,
    finite_orbit_candidates,
    interval_structure,
    radicand_ok,
    rational_pi_fraction,
    thresholds,
    unitary_ok,
)
from qsu2.qnumbers import Deformation, qnumber

# 40-digit evaluations of the closed forms at s = 1.013
C0_1013 = 1.3892311255983471224
C1_1013 = 1.0622879695463019876
C2_1013 = 0.3269431560520451349


def brute_allowed(d, c, m):
    cs2 = c * d.sin_s**2
    return cs2 >= math.sin(d.s * (m - 0.5)) ** 2 and cs2 >= math.sin(d.s * (m + 0.5)) ** 2


def test_thresholds_values():
    th = thresholds(Deformation(math.pi / 2))
    assert th.c0 == pytest.approx(1.0, abs=1e-15)
    assert th.c1 == pytest.approx(0.5, abs=1e-15)
    assert th.c2 == pytest.approx(0.5, abs=1e-15)

    th = thresholds(Deformation(1.013))
    assert th.c0 == pytest.approx(C0_1013, abs=1e-12)
    assert th.c1 == pytest.approx(C1_1013, abs=1e-12)
    assert th.c2 == pytest.approx(C2_1013, abs=1e-12)

    # s -> 0: the sin-based thresholds diverge; the class-3 bound
    # 1/(4 cos^2(s/2)) tends to 1/4 instead
    th = thresholds(Deformation(1e-6))
    assert min(th.c0, th.c1) > 1e10
    assert th.c2 == pytest.approx(0.25, abs=1e-9)


def test_threshold_ordering():
    for s in np.linspace(0.02, math.pi - 0.02, 200):
        th = thresholds(Deformation(s))
        assert th.c0 > th.c1
        if s < math.pi / 2:
            assert th.c1 > th.c2


def test_unitary_ok_examples():
    d = Deformation(1.0)
    th = thresholds(d)
    for m in np.arange(-10, 10.5, 0.5):
        assert unitary_ok(d, th.c0 + 0.5, m)
    assert not unitary_ok(d, 0.0, 0.5)
    # brute-force agreement over a scan at s = 1.013, c = 1.2
    d = Deformation(1.013)
    for m in np.arange(-10, 10.5, 0.5):
        assert unitary_ok(d, 1.2, m) == brute_allowed(d, 1.2, m)


def test_interval_structure_limits():
    d = Deformation(0.9)
    th = thresholds(d)
    iv = interval_structure(d, th.c0)
    assert iv.alpha == pytest.approx(math.pi / 2, abs=1e-9)
    assert iv.delta == pytest.approx(1.0, abs=1e-9)
    assert iv.gap == pytest.approx(0.0, abs=1e-9)
    iv1 = interval_structure(d, th.c1)
    assert iv1.delta == pytest.approx(0.0, abs=1e-9)
    # closed-form consistency: delta + Delta + 2 gap = period
    for c in np.linspace(th.c1, th.c0, 7):
        iv = interval_structure(d, c)
        assert iv.delta + iv.Delta + 2 * iv.gap == pytest.approx(iv.period, abs=1e-12)


def test_interval_structure_sampling_oracle():
    d = Deformation(1.013)
    c = 1.2
    iv = interval_structure(d, c)
    for center, width in ((iv.center_delta, iv.delta), (iv.center_Delta, iv.Delta)):
        if width <= 0:
            continue
        inner = center + np.linspace(-width / 2 * 0.999, width / 2 * 0.999, 100)
        assert all(unitary_ok(d, c, m) for m in inner)
    # gap interior fails
    gap_center = iv.center_delta + iv.delta / 2 + iv.gap / 2
    inner = gap_center + np.linspace(-iv.gap / 2 * 0.98, iv.gap / 2 * 0.98, 100)
    assert not any(unitary_ok(d, c, m) for m in inner)


def test_interval_structure_domain_errors():
    d = Deformation(1.0)
    th = thresholds(d)
    with pytest.raises(ValueError, match="continuous"):
        interval_structure(d, th.c0 + 1.0)
    with pytest.raises(ValueError, match="discrete|no unirreps"):
        interval_structure(d, th.c1 / 2)


def test_monotonicity_in_c():
    d = Deformation(0.8)
    th = thresholds(d)
    cs = np.linspace(th.c1, th.c0, 40)
    deltas = [interval_structure(d, c).delta for c in cs]
    gaps = [interval_structure(d, c).gap for c in cs]
    assert all(b >= a - 1e-12 for a, b in zip(deltas, deltas[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


def test_classify_continuous():
    d = Deformation(1.0)
    th = thresholds(d)
    out = classify(d, 2.0)
    assert th.c0 < 2.0 and len(out) == 1
    assert out[0].rep_class is RepClass.Continuous1
    assert "m_f" in out[0].m_rule
    # class-1 coefficient positivity on a scan
    for m in np.arange(-15, 15.5, 0.5):
        assert 2.0 - qnumber(m + 0.5, d) ** 2 > 0
        assert 2.0 - qnumber(m - 0.5, d) ** 2 > 0


def test_classify_finite_matches_brute_force():
    # descriptors with c = [(N+1)/2]^2 from a brute-force N scan
    for s in (0.4, 1.0, 2.0, 2.9):
        d = Deformation(s)
        for N, c in finite_orbit_candidates(d):
            out = classify(d, c)
            finite = [x for x in out if x.rep_class in (RepClass.Finite2b, RepClass.Discrete3)]
            assert any(x.N == N for x in finite), (s, N, c)
            for x in finite:
                assert len(x.m_list) == x.N + 1
                assert abs(x.c - qnumber((x.N + 1) / 2.0, d) ** 2) < 1e-9
                # boundary states sit exactly on the unitarity boundary, so
                # allow roundoff slack there
                for m in x.m_list:
                    assert x.c - qnumber(m + 0.5, d) ** 2 >= -1e-12
                    assert x.c - qnumber(m - 0.5, d) ** 2 >= -1e-12


def test_finite_ladder_states_pass_unitary_ok():
    # classify and unitary_ok apply the same rule: every listed state of a
    # finite ladder, closing edges included, passes it
    for s in np.linspace(0.05, 3.0, 400):
        d = Deformation(s)
        for N, c in finite_orbit_candidates(d):
            for x in classify(d, c):
                if x.rep_class in (RepClass.Finite2b, RepClass.Discrete3):
                    assert unitary_ok(d, c, np.array(x.m_list)).all(), (s, N, c)
                    assert all(unitary_ok(d, c, m) for m in x.m_list), (s, N, c)


def test_unitary_ok_tolerance_and_arrays():
    d = Deformation(1.013)
    ms = np.arange(-10, 10.5, 0.5)
    assert unitary_ok(d, 1.2, ms).tolist() == [unitary_ok(d, 1.2, m) for m in ms]
    # a radicand below zero by less than 1e-12 max(1, |c|) is rounding
    assert radicand_ok(-0.9e-12, 0.5) and not radicand_ok(-1.1e-12, 0.5)
    assert radicand_ok(-45e-12, 50.0) and not radicand_ok(-55e-12, 50.0)
    assert not radicand_ok(math.nan, 1.0)


# radicands and Casimir values on and around the tolerance edge, of both signs
edge_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 50.0, -1e-12, -0.9e-12, -1.1e-12, -45e-12, -55e-12, -5e-324]
)


@settings(max_examples=300)
@given(rad=st.lists(edge_floats, min_size=1, max_size=8), c=st.lists(edge_floats, min_size=1, max_size=8))
def test_radicand_ok_on_arrays_matches_scalar_calls(rad, c):
    # the rule as its docstring states it, one pair at a time
    want = [[r >= -RADICAND_TOL * max(1.0, abs(x)) for x in c] for r in rad]
    assert [[radicand_ok(r, x) for x in c] for r in rad] == want
    # every radicand against every c, as an (n, 1) column against a row
    assert radicand_ok(np.array(rad)[:, None], np.array(c)).tolist() == want


def test_classify_discrete3_band():
    d = Deformation(0.4)  # s < pi/2
    th = thresholds(d)
    for N, c in finite_orbit_candidates(d):
        if th.c2 < c < th.c1:
            out = classify(d, c)
            assert any(x.rep_class is RepClass.Discrete3 and x.N == N for x in out)
            assert 0 < N < math.pi / d.s - 2


def test_classify_singlet():
    d = Deformation(1.1)
    th = thresholds(d)
    out = classify(d, th.c1)
    assert len(out) == 1 and out[0].rep_class is RepClass.Singlet2c
    (m0,) = out[0].m_list
    assert m0 == pytest.approx(math.pi / (2 * d.s), abs=1e-12)
    # both ladder coefficients vanish there: a genuine one-dimensional rep
    assert th.c1 - qnumber(m0 + 0.5, d) ** 2 == pytest.approx(0.0, abs=1e-12)
    assert th.c1 - qnumber(m0 - 0.5, d) ** 2 == pytest.approx(0.0, abs=1e-12)
    assert interval_structure(d, th.c1).delta == pytest.approx(0.0, abs=1e-9)


def test_classify_below_all_thresholds():
    d = Deformation(0.7)
    th = thresholds(d)
    assert classify(d, th.c2 * 0.5) == []
    assert classify(d, -1.0) == []


def test_oracle_equivalence_500():
    rng = np.random.RandomState(42)
    grid = np.arange(-20.0, 20.5, 0.5)
    for _ in range(500):
        s = rng.uniform(0.05, math.pi - 0.05)
        d = Deformation(s)
        c = rng.uniform(0.01, 3.0 / d.sin_s**2)
        mask = allowed_m_set(d, c, grid)
        brute = np.array([brute_allowed(d, c, m) for m in grid])
        assert np.array_equal(mask, brute), (s, c)


def test_continuous_series_c():
    d = Deformation(math.pi / 2)
    th = thresholds(d)
    assert continuous_series_c(d, 0.0) == pytest.approx(th.c0, abs=1e-14)
    # frozen 40-digit evaluation of cosh^2(pi/2)/sin^2(pi/2)
    assert continuous_series_c(d, 1.0) == pytest.approx(6.2959766377607603, rel=1e-14)
    assert continuous_series_c(d, 40.0) > 1e10
    for s, sigma in ((0.6, 0.3), (2.1, 1.7)):
        d2 = Deformation(s)
        assert continuous_series_c(d2, sigma) > thresholds(d2).c0


def test_class2a_enumeration():
    k = 1
    d = Deformation(math.pi / (k + 1))
    th = thresholds(d)
    c = 0.5 * (th.c1 + th.c0)
    iv = interval_structure(d, c)
    desc = class2a_enumerate(d, c, epsilon=iv.delta / 2)
    assert desc.rep_class is RepClass.Mixed2a and desc.k == k
    # lattice spacing exactly 1 and all states allowed over >= 3 periods
    window = np.array(desc.m_list[:1]) + np.arange(-3 * (k + 1), 3 * (k + 1) + 1)
    assert all(unitary_ok(d, c, m) for m in window)
    assert np.all(np.diff(desc.m_list) == 1.0)
    print(
        f"class 2a at k={k}: {desc.extra['distinct_ladder_values']} distinct ladder "
        f"values per period (k+1 = {k + 1})"
    )
    assert desc.extra["distinct_ladder_values"] <= k + 1
    with pytest.raises(ValueError):
        class2a_enumerate(d, c, epsilon=iv.delta * 2)
    with pytest.raises(ValueError):
        class2a_enumerate(Deformation(1.0), c, epsilon=0.1)


def test_rational_pi_fraction():
    assert rational_pi_fraction(math.pi / 3) == (1, 3)
    assert rational_pi_fraction(2 * math.pi / 5) == (2, 5)
    assert rational_pi_fraction(1.013) is None
    assert rational_pi_fraction(math.pi / 97) is None  # denominator above cap


def test_classify_rational_mixed():
    d = Deformation(math.pi / 4)
    th = thresholds(d)
    c = 0.5 * (th.c1 + th.c0)
    out = classify(d, c)
    assert any(x.rep_class is RepClass.Mixed2a for x in out)
    d_irr = Deformation(1.0)
    th_irr = thresholds(d_irr)
    out_irr = classify(d_irr, 0.5 * (th_irr.c1 + th_irr.c0) + 1e-4)
    assert not any(x.rep_class is RepClass.Mixed2a for x in out_irr)


def test_forbidden_points():
    from qsu2.classify import forbidden_m

    d = Deformation(1.1)
    period = math.pi / d.s
    for k in (-2, 0, 3):
        for shift in (-0.5, 0.5):
            mf = period * (k + 0.5) + shift
            assert forbidden_m(d, mf)
            assert forbidden_m(d, mf + 5e-10)
            assert not forbidden_m(d, mf + 0.01)
    # the coefficient genuinely vanishes there at c = c0
    th = thresholds(d)
    mf = period * 0.5 - 0.5
    assert th.c0 - qnumber(mf + 0.5, d) ** 2 == pytest.approx(0.0, abs=1e-12)


# s anywhere in (0, pi), and at the roots of unity s = pi p / l
any_s = st.floats(0.05, math.pi - 0.05)
root_s = st.builds(
    lambda l, p: math.pi * p / l, st.integers(2, 24), st.integers(1, 23)
).filter(lambda s: 0.05 <= s <= math.pi - 0.05 and abs(s / math.pi - round(s / math.pi)) > 1e-9)


@settings(max_examples=300)
@given(s=any_s | root_s, c_scale=st.floats(0.0, 3.0), m0=st.floats(-1.0, 1.0) | st.just(0.0))
def test_allowed_m_set_matches_brute_force_scan(s, c_scale, m0):
    """The interval partition of the m line, against both ladder radicands
    evaluated at every grid point; points within 1e-9 of a radicand's zero
    are on a partition edge and decide nothing."""
    d = Deformation(s)
    c = c_scale / d.sin_s**2
    grid = m0 + np.arange(-20.0, 20.5, 0.5)
    cs2 = c * d.sin_s**2
    lo, hi = (cs2 - np.sin(s * (grid + shift)) ** 2 for shift in (-0.5, 0.5))
    brute = (lo >= 0) & (hi >= 0)
    clear = ((lo > 1e-9) & (hi > 1e-9)) | (lo < -1e-9) | (hi < -1e-9)
    mask = allowed_m_set(d, c, grid)
    assert np.array_equal(mask[clear], brute[clear]), grid[clear][mask[clear] != brute[clear]]
