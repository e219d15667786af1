import math

import numpy as np
import pytest

from qsu2.qnumbers import (
    Deformation,
    SingularDeformation,
    bracket_sequence,
    complex_split_residual,
    qnumber,
    qnumber_complex,
    qnumber_hyperbolic,
)


def test_deformation_rejects_singular_values():
    for bad in (0.0, math.pi, -0.3, math.pi - 1e-13, 1e-13, 4.0):
        with pytest.raises(SingularDeformation):
            Deformation(bad)


def test_deformation_cached_fields():
    d = Deformation(0.7)
    assert d.sin_s == math.sin(0.7)
    assert d.cos_s == math.cos(0.7)
    assert d.eta_sq == -4.0 * math.sin(0.7) ** 2 <= 0.0


def test_qnumber_examples():
    # [1] = 1 for any s
    for s in (0.1, 1.0, 2.5):
        assert qnumber(1.0, Deformation(s)) == pytest.approx(1.0, abs=1e-15)
    # [2] = 0 at s = pi/2
    assert abs(qnumber(2.0, Deformation(math.pi / 2))) < 1e-15
    # [2] at s = pi/3 equals 1 (frozen: sin(2pi/3)/sin(pi/3) = 1 exactly)
    assert qnumber(2.0, Deformation(math.pi / 3)) == pytest.approx(1.0, abs=1e-15)
    # undeformed limit
    assert qnumber(0.5, Deformation(1e-8)) == pytest.approx(0.5, abs=1e-12)


def test_qnumber_complex_examples():
    d = Deformation(1.0)
    # real-axis restriction
    assert qnumber_complex(0.37 + 0j, d) == pytest.approx(qnumber(0.37, d), abs=1e-15)
    # [i] at s=1: i sinh(1)/sin(1), frozen 40-digit evaluation
    val = qnumber_complex(1j, d)
    assert val.real == pytest.approx(0.0, abs=1e-15)
    assert val.imag == pytest.approx(1.3966033468308997, abs=1e-13)


def test_continuous_label_modulus():
    # |[x + 1/2]|^2 = cosh^2(s sigma)/sin^2(s) on the continuous-series label
    # family x = (pi/s)(k + 1/2) - 1/2 + i sigma
    for s, k, sigma in [(0.9, 0, 0.7), (2.2, 1, 1.3), (1.4, -2, 0.05)]:
        d = Deformation(s)
        x = math.pi / s * (k + 0.5) - 0.5 + 1j * sigma
        got = abs(qnumber_complex(x + 0.5, d)) ** 2
        want = math.cosh(s * sigma) ** 2 / math.sin(s) ** 2
        assert got == pytest.approx(want, rel=1e-12)


def qnumber_through_ndim(x, d):
    """qnumber as it dispatched before its Python-float shortcut."""
    if np.ndim(x):
        return np.sin(np.asarray(x, dtype=float) * d.s) / d.sin_s
    return math.sin(float(x) * d.s) / d.sin_s


def spelled(value):
    """Type and bits, so that equal values of another type or sign differ."""
    return type(value), np.asarray(value).tobytes()


@pytest.mark.parametrize("s", [0.05, 0.7, math.pi / 3, 3.0])
def test_qnumber_keeps_its_results_for_every_argument_type(s):
    d = Deformation(s)
    for x in (0.0, -0.0, 0.5, -2.5, 1e-300, 7.25, 1e6, math.nan):
        got = qnumber(x, d)
        assert type(got) is float
        assert spelled(got) == spelled(math.sin(x * d.s) / d.sin_s)
    for x in (np.float64(2.5), np.float32(0.5), np.array(-3.5), 0, -7, 3, True, np.int64(4)):
        assert spelled(qnumber(x, d)) == spelled(qnumber_through_ndim(x, d))
    for x in (np.array([0.5, 1.0]), [1.5, -2.0], np.arange(3), np.array([[0.5], [2.0]])):
        got, want = qnumber(x, d), qnumber_through_ndim(x, d)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_qnumber_hyperbolic():
    assert qnumber_hyperbolic(1.0, 0.8) == pytest.approx(1.0, abs=1e-15)
    # frozen: sinh(2 ln 2)/sinh(ln 2) = (4 - 1/4)/(2 - 1/2) = 2.5
    assert qnumber_hyperbolic(2.0, math.log(2.0)) == pytest.approx(2.5, abs=1e-14)
    # t -> 0 limit approaches x
    assert qnumber_hyperbolic(1.7, 1e-8) == pytest.approx(1.7, abs=1e-12)
    with pytest.raises(ValueError):
        qnumber_hyperbolic(1.0, 0.0)


def test_bracket_sequence_limits():
    m_int = np.arange(-6, 7, dtype=float)
    # s -> pi: [2m] -> -2m on integers
    d = Deformation(math.pi - 1e-9)
    assert np.abs(bracket_sequence(m_int, d) + 2 * m_int).max() < 1e-5
    # s = pi/2: zero on integers, +-1 on half-integers
    d2 = Deformation(math.pi / 2)
    assert np.abs(bracket_sequence(m_int, d2)).max() < 1e-13
    vals = bracket_sequence(m_int + 0.5, d2)
    assert np.abs(np.abs(vals) - 1.0).max() < 1e-13


def test_parity_and_reflection():
    rng = np.random.RandomState(7)
    for _ in range(200):
        s = rng.uniform(0.05, math.pi - 0.05)
        x = rng.uniform(-10, 10)
        d = Deformation(s)
        assert qnumber(-x, d) == -qnumber(x, d)
        # s -> -s invariance via the direct formula
        assert math.sin(-x * s) / math.sin(-s) == pytest.approx(qnumber(x, d), abs=1e-15)


def test_recurrence():
    # [x+1] + [x-1] = 2 cos(s) [x]
    rng = np.random.RandomState(11)
    for _ in range(1000):
        s = rng.uniform(0.05, math.pi - 0.05)
        x = rng.uniform(-20, 20)
        d = Deformation(s)
        lhs = qnumber(x + 1.0, d) + qnumber(x - 1.0, d)
        rhs = 2.0 * d.cos_s * qnumber(x, d)
        assert abs(lhs - rhs) < 1e-12


def test_boundedness():
    rng = np.random.RandomState(13)
    for _ in range(500):
        s = rng.uniform(0.05, math.pi - 0.05)
        x = rng.uniform(-50, 50)
        assert abs(qnumber(x, Deformation(s))) <= 1.0 / math.sin(s) + 1e-12


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
def test_periodicity_at_roots_of_unity(k):
    d = Deformation(math.pi / (k + 1))
    for m in range(-5, 6):
        a = qnumber(2.0 * (m + k + 1), d)
        b = qnumber(2.0 * m, d)
        assert a == pytest.approx(b, abs=1e-12)
    # distinct-value count over one period, recorded (open question on the
    # claimed k distinct eigenvalues; the provable period is k+1)
    vals = {round(qnumber(2.0 * m, d), 9) for m in range(k + 1)}
    print(f"s=pi/{k + 1}: {len(vals)} distinct [2m] values over one period")
    assert len(vals) <= k + 1


def test_undeformed_limit_quadratic():
    # |[x] - x| <= C s^2 for small s; C ~ max|x(x^2-1)|/6 on |x| <= 10
    c_bound = 200.0
    rng = np.random.RandomState(17)
    for _ in range(200):
        s = rng.uniform(1e-6, 1e-3)
        x = rng.uniform(-10, 10)
        assert abs(qnumber(x, Deformation(s)) - x) <= c_bound * s * s


def test_complex_split_residuals():
    # the sign-corrected split matches the complex sine; the naive
    # reading's deviation is recorded, not asserted
    rng = np.random.RandomState(23)
    worst_naive = 0.0
    for _ in range(50):
        s = rng.uniform(0.2, math.pi - 0.2)
        x = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
        res = complex_split_residual(x, Deformation(s))
        scale = 1.0 + abs(qnumber_complex(x, Deformation(s)))
        assert res["corrected"] / scale < 1e-12
        worst_naive = max(worst_naive, res["naive"] / scale)
    print(f"naive split reading: worst relative residual {worst_naive:.3e}")

