import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsu2.classify import finite_orbit_candidates, ladder_radicand, thresholds
from qsu2.hopf import GenDeformation, build_gen_rep
from qsu2.operators import (
    OperatorMatrix,
    UnitarityError,
    build_rep,
    continuous_ladder_coeff,
    edge_coefficients,
    ladder_coeff,
    verify_algebra,
)
from qsu2.qnumbers import Deformation, bracket_sequence, qnumber


def spin_matrices(j):
    """Undeformed su(2) reference matrices on m = -j..j."""
    ms = np.arange(-j, j + 1, dtype=float)
    n = len(ms)
    jp = np.zeros((n, n))
    for i in range(n - 1):
        m = ms[i]
        jp[i + 1, i] = math.sqrt((j - m) * (j + m + 1))
    return np.diag(ms), jp, jp.T


def test_ladder_coeff_boundary_zero():
    # sigma -> 0 with m at the window edge: coefficient vanishes
    for s, k in ((0.9, 0), (2.0, 1)):
        d = Deformation(s)
        c = 1.0 / d.sin_s**2  # sigma = 0
        m = (k + 0.5) * math.pi / s - 0.5
        assert ladder_coeff(d, c, m, +1) < 1e-7


def test_ladder_coeff_su2_limit():
    d = Deformation(1e-8)
    c = qnumber(1.5, d) ** 2  # j = 1
    assert ladder_coeff(d, c, 0.0, +1) == pytest.approx(math.sqrt(2.0), abs=1e-6)


def test_ladder_coeff_brute_force():
    rng = np.random.RandomState(3)
    for _ in range(300):
        s = rng.uniform(0.1, math.pi - 0.1)
        d = Deformation(s)
        c = rng.uniform(1.0, 3.0) / d.sin_s**2  # above c0
        m = rng.uniform(-10, 10)
        sign = rng.choice([1, -1])
        want = math.sqrt(c - math.sin(s * (m + 0.5 * sign)) ** 2 / d.sin_s**2)
        assert ladder_coeff(d, c, m, sign) == pytest.approx(want, rel=1e-12)


def test_ladder_coeff_error_names_inputs():
    d = Deformation(1.0)
    with pytest.raises(UnitarityError, match="c=0.1"):
        ladder_coeff(d, 0.1, 0.0, +1)
    # numpy scalars are named as plain floats
    with pytest.raises(UnitarityError, match=r"at c=0\.1, m=0\.0$"):
        ladder_coeff(d, np.float64(0.1), np.float64(0.0), +1)


def test_ladder_coeff_nan_casimir_propagates():
    assert math.isnan(ladder_coeff(Deformation(1.0), math.nan, 0.0, +1))


def same_float(a, b) -> bool:
    return float.__repr__(float(a)) == float.__repr__(float(b))


def test_scalar_radicand_squares_with_libm_pow():
    # radicands are squared by libm pow(x, 2); numpy's x*x differs from it
    # in the last bit for ~0.1 % of values
    for s in np.linspace(0.01, 3.1, 200):
        d = Deformation(s)
        for m in np.arange(-40.0, 40.5, 0.5).tolist():
            for sign in (-1, 1):
                want = 2.0 - math.pow(qnumber(m + 0.5 * sign, d), 2)
                assert same_float(ladder_radicand(d, 2.0, m, sign), want), (s, m, sign)


def test_array_radicand_squares_with_libm_pow():
    # rep.json's bands come from array radicands: the same pow(x, 2) bits
    ms = np.arange(-40.0, 40.5, 0.5)
    for s in np.linspace(0.01, 3.1, 200):
        d = Deformation(s)
        for sign in (-1, 1):
            want = [2.0 - math.pow(qnumber(m + 0.5 * sign, d), 2) for m in ms.tolist()]
            assert np.array_equal(ladder_radicand(d, 2.0, ms, sign), want), (s, sign)


@settings(max_examples=300)
@given(
    s=st.floats(0.01, math.pi - 0.01),
    c=st.floats(-1.0, 50.0) | st.just(math.nan),
    m0=st.floats(-60.0, 60.0) | st.integers(-120, 120).map(lambda k: k / 2.0),
    n=st.integers(1, 40),
    sign=st.sampled_from([-1, 1]),
)
def test_array_ladder_matches_float_calls(s, c, m0, n, sign):
    # an array m gives, element by element, the bits of the float calls, and
    # raises the error of the first float call that raises
    d = Deformation(s)
    ms = m0 + np.arange(n, dtype=float)
    rads = ladder_radicand(d, c, ms, sign)
    assert all(same_float(r, ladder_radicand(d, c, m, sign)) for r, m in zip(rads, ms.tolist()))
    want = []
    for m in ms.tolist():
        try:
            want.append(ladder_coeff(d, c, m, sign))
        except UnitarityError as exc:
            with pytest.raises(UnitarityError) as got:
                ladder_coeff(d, c, ms, sign)
            assert str(got.value) == str(exc)
            return
    got = ladder_coeff(d, c, ms, sign)
    assert all(type(w) is float for w in want)
    assert got.shape == ms.shape and all(same_float(g, w) for g, w in zip(got, want))


@settings(max_examples=300)
@given(
    s=st.floats(0.01, math.pi - 0.01),
    c=st.floats(-1.0, 50.0),
    m=st.floats(-60.0, 60.0) | st.integers(-60, 60).map(lambda k: k / 2.0),
)
def test_ladder_directions_are_antisymmetric(s, c, m):
    # lowering from m is raising from -m: the same radicand, bit for bit
    d = Deformation(s)
    assert same_float(ladder_radicand(d, c, m, -1), ladder_radicand(d, c, -m, +1))
    ms = np.array([m, -m, m + 1.0])
    assert np.array_equal(ladder_radicand(d, c, ms, -1), ladder_radicand(d, c, -ms, +1))
    try:
        down = ladder_coeff(d, c, m, -1)
    except UnitarityError:
        with pytest.raises(UnitarityError):
            ladder_coeff(d, c, -m, +1)
    else:
        assert same_float(down, ladder_coeff(d, c, -m, +1))


def test_continuous_coefficient_closed_form():
    rng = np.random.RandomState(5)
    for _ in range(200):
        s = rng.uniform(0.1, math.pi - 0.1)
        d = Deformation(s)
        sigma = rng.uniform(0.01, 2.0)
        m = rng.uniform(-8, 8)
        sign = rng.choice([1, -1])
        c = math.cosh(s * sigma) ** 2 / d.sin_s**2
        assert continuous_ladder_coeff(d, sigma, m, sign) == pytest.approx(
            ladder_coeff(d, c, m, sign), abs=1e-10
        )


def test_build_rep_finite_closure():
    d = Deformation(1.013)
    for N, c in finite_orbit_candidates(d):
        triple = build_rep(d, c, -N / 2.0 + np.arange(N + 1))
        bottom, top = edge_coefficients(d, c, triple)
        assert bottom < 1e-10 and top < 1e-10
        assert triple[0].entries.shape == (N + 1, N + 1)


def test_build_rep_su2_limit():
    d = Deformation(1e-7)
    c = qnumber(1.5, d) ** 2
    triple = build_rep(d, c, [-1.0, 0.0, 1.0])
    _, jp_ref, jm_ref = spin_matrices(1)
    assert np.abs(triple[1].entries - jp_ref).max() < 1e-6
    assert np.abs(triple[2].entries - jm_ref).max() < 1e-6


def test_build_rep_spacing_guard():
    d = Deformation(1.0)
    with pytest.raises(ValueError, match="spacing"):
        build_rep(d, 5.0, [0.0, 0.5, 1.0])


def test_operator_matrix_rejects_a_complex_band():
    with pytest.raises(TypeError, match="float64"):
        OperatorMatrix(np.array([1.0 + 2.0j, 3.0]), -1, (0.0, 1.0, 2.0))


def test_build_rep_bands_share_no_memory():
    # J_- is an adjoint with a band of its own, and J_z does not alias the basis given
    ms = np.arange(-2.0, 3.0)
    jz, jp, jm = build_rep(Deformation(0.7), 3.0, ms)
    assert jm.band is not jp.band and not np.shares_memory(jm.band, jp.band)
    assert not np.shares_memory(jz.band, ms)
    assert np.array_equal(jm.band, jp.band) and math.copysign(1.0, jm.fill.imag) == -1.0


def assert_jm_is_jp_adjoint(jp, jm):
    """J_- is J_+'s band byte for byte, one diagonal up, with the conjugate fill."""
    assert (jp.offset, jm.offset) == (-1, 1)
    assert jm.band.tobytes() == jp.band.tobytes()
    assert np.array([jm.fill]).tobytes() == np.array([jp.fill.conjugate()]).tobytes()


@settings(max_examples=200)
@given(
    s=st.floats(0.05, math.pi - 0.05),
    k=st.floats(0.0, 4.0) | st.just(math.nan),
    m0=st.floats(-60.0, 60.0) | st.integers(-120, 120).map(lambda k: k / 2.0),
    n=st.integers(1, 200),
)
def test_build_rep_jm_is_jp_adjoint(s, k, m0, n):
    """verify_algebra checks each relation once, on J_+: it has no
    hermiticity residual, no J_- halves of [J_z, J_+-] and [C, J_+-], and
    no [C, J_z] term, because this invariant makes each of them equal to
    a J_+ half or to zero.  If it ever breaks, those residuals must come
    back."""
    d = Deformation(s)
    c = k / d.sin_s**2
    try:
        _, jp, jm = build_rep(d, c, m0 + np.arange(n, dtype=float))
    except UnitarityError:
        assume(False)
    assert_jm_is_jp_adjoint(jp, jm)


@settings(max_examples=100)
@given(
    alpha=st.sampled_from([2.0, 3.0]),
    f0=st.floats(1.5, 30.0),
    c=st.floats(0.0, 1e4),
    m0=st.none() | st.integers(-20, 20).map(lambda k: k / 2.0),
    n=st.integers(3, 60),
)
def test_gen_rep_jm_is_jp_adjoint(alpha, f0, c, m0, n):
    """The invariant of test_build_rep_jm_is_jp_adjoint for the generalized
    deformation's telescoped representation."""
    gd = GenDeformation(alpha=alpha, profile="geometric", profile_params={"f0": f0})
    try:
        _, jp, jm, _ = build_gen_rep(gd, n, c, m0)
    except ValueError:  # no unitary truncation at this anchor
        assume(False)
    assert_jm_is_jp_adjoint(jp, jm)


def test_truncated_continuous_interior():
    d = Deformation(0.77)
    c = 2.5 / d.sin_s**2
    ms = np.arange(-20.0, 21.0)  # 41 states
    triple = build_rep(d, c, ms)
    report = verify_algebra(triple, d, c)
    assert not report.closed
    assert report.interior_buffer == 2
    assert report.res_jz_jpm < 1e-10
    assert report.res_jp_jm < 1e-10
    assert report.res_casimir < 1e-10


def test_finite_rep_full_residuals():
    d = Deformation(0.6)
    cands = finite_orbit_candidates(d)
    N, c = cands[-1]
    triple = build_rep(d, c, -N / 2.0 + np.arange(N + 1))
    report = verify_algebra(triple, d, c)
    assert report.closed and report.interior_buffer == 0
    assert report.res_jz_jpm < 1e-10
    assert report.res_jp_jm < 1e-10
    assert report.res_casimir < 1e-10
    print(f"Maekawa 2s-reading deviation (recorded): {report.maekawa_2s_dev:.3e}")


def test_e2_limit():
    # s = pi/2 on integer m: the commutator matrix vanishes and the Casimir
    # matches Jx^2 + Jy^2 + 1/2
    d = Deformation(math.pi / 2)
    c = 2.0
    ms = np.arange(-6.0, 7.0)
    triple = build_rep(d, c, ms)
    jz, jp, jm = (t.entries for t in triple)
    comm = jp @ jm - jm @ jp
    inner = comm[2:-2, 2:-2]
    assert np.abs(inner).max() < 1e-12
    jx = (jp + jm) / 2.0
    jy = (jp - jm) / 2.0j
    resid = c * np.eye(len(ms)) - (jx @ jx + jy @ jy + 0.5 * np.eye(len(ms)))
    assert np.abs(resid[2:-2, 2:-2]).max() < 1e-10


def test_su11_likeness_near_pi():
    d = Deformation(math.pi - 1e-4)
    ms = np.arange(-6.0, 7.0)
    vals = bracket_sequence(ms, d)
    assert np.abs(vals + 2 * ms).max() < 1e-3


def test_casimir_forms_agree_random():
    rng = np.random.RandomState(9)
    for _ in range(20):
        s = rng.uniform(0.3, 2.8)
        d = Deformation(s)
        c = (1.0 + rng.uniform(0.1, 2.0)) / d.sin_s**2
        ms = np.arange(-8.0, 9.0)
        triple = build_rep(d, c, ms)
        report = verify_algebra(triple, d, c)
        # the two forms differ by [J_+, J_-] - [2 J_z], and the Maekawa form
        # is their mean (tests/test_residual_identities.py)
        assert report.res_jp_jm < 1e-12 * max(1.0, c)
        assert report.res_casimir < 1e-10 * max(1.0, c)
