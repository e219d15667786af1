"""Classification of the unitary representations of su_{e^{is}}(2).

A representation is labeled by the Casimir eigenvalue c and the allowed
magnetic labels m.  Unitarity requires c - [m -+ 1/2]^2 >= 0 in both
ladder directions, which confines m to periodically repeating closed
intervals.  Three Casimir bands arise, separated by

    c0 = 1/sin^2 s,   c1 = 1/(4 sin^2(s/2)),   c2 = 1/(4 cos^2(s/2)):

c > c0 gives an unbounded continuous series; c1 < c <= c0 a mixed band
holding both lattice (root-of-unity) series and finite ladders; and, for
s < pi/2, c2 < c < c1 holds only finite ladders.  Finite ladders of
dimension N+1 close exactly at c = [(N+1)/2]^2.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .qnumbers import Deformation, qnumber

MATCH_TOL = 1e-9  # tolerance for c = [(N+1)/2]^2 matches and m_f exclusion
RADICAND_TOL = 1e-12  # relative rounding slack of the unitarity rule
RATIONAL_MAX_DEN = 64


class RepClass(enum.Enum):
    Continuous1 = "Continuous1"
    Mixed2a = "Mixed2a"
    Finite2b = "Finite2b"
    Singlet2c = "Singlet2c"
    Discrete3 = "Discrete3"


@dataclass(frozen=True)
class Thresholds:
    c0: float
    c1: float
    c2: float


@dataclass(frozen=True)
class IntervalStructure:
    """Allowed-m interval data for c in [c1, c0].

    Two families of closed allowed intervals alternate with forbidden gaps,
    all repeating with period pi/s: width-delta intervals centered at
    pi/(2s) + k pi/s and width-Delta intervals centered at pi/s + k pi/s.
    A negative width means the family is empty at this c.
    """

    alpha: float
    delta: float
    Delta: float
    gap: float
    period: float
    center_delta: float  # pi/(2s), repeats mod period
    center_Delta: float  # pi/s, repeats mod period


@dataclass(frozen=True)
class RepDescriptor:
    rep_class: RepClass
    c: float
    s: float
    m_rule: str
    N: int | None = None
    k: int = 0
    m_list: tuple = ()
    note: str = ""
    extra: dict = field(default_factory=dict)


def thresholds(d: Deformation) -> Thresholds:
    return Thresholds(
        c0=1.0 / d.sin_s**2,
        c1=1.0 / (4.0 * math.sin(d.s / 2.0) ** 2),
        c2=1.0 / (4.0 * math.cos(d.s / 2.0) ** 2),
    )


def ladder_radicand(d: Deformation, c, m, sign: int):
    """c - [m + sign/2]^2, the squared ladder coefficient from m towards
    m + sign (sign = +1 raises, -1 lowers); c and m are floats or arrays
    that broadcast together.  Both square with the C library's pow, so an
    array element has the bits of the float call."""
    q = qnumber(m + 0.5 * sign, d)
    return c - (q**2 if type(q) is float else np.float_power(q, 2))


def radicand_ok(rad, c):
    """The unitarity rule: rad >= 0 up to RADICAND_TOL * max(1, |c|) of
    rounding, which the radicand where a ladder closes (zero in exact
    arithmetic) carries.  NaN is never admissible.  rad and c are floats or
    arrays that broadcast together."""
    # rad >= -tol * max(1, |c|) as two comparisons: it holds elementwise for
    # an array c, and on floats it is faster than calling max
    return (rad >= -RADICAND_TOL) | (rad >= -RADICAND_TOL * abs(c))


def unitary_ok(d: Deformation, c: float, m):
    """Both ladder directions from m admissible (elementwise for an array m)."""
    return radicand_ok(ladder_radicand(d, c, m, -1), c) & radicand_ok(ladder_radicand(d, c, m, +1), c)


def _alpha(d: Deformation, c: float) -> float:
    """alpha = arcsin sqrt(c sin^2 s), defined for 0 <= c <= c0."""
    arg = c * d.sin_s**2
    if arg < 0.0 or arg > 1.0:
        raise ValueError(f"alpha undefined: c sin^2 s = {arg!r} outside [0, 1]")
    return math.asin(math.sqrt(arg))


def _interval_params(d: Deformation, c: float) -> IntervalStructure:
    a = _alpha(d, c)
    s = d.s
    return IntervalStructure(
        alpha=a,
        delta=(s - math.pi + 2.0 * a) / s,
        Delta=(2.0 * a - s) / s,
        gap=(math.pi - 2.0 * a) / s,
        period=math.pi / s,
        center_delta=math.pi / (2.0 * s),
        center_Delta=math.pi / s,
    )


def interval_structure(d: Deformation, c: float) -> IntervalStructure:
    """Interval data for the mixed band; domain error outside [c1, c0]."""
    th = thresholds(d)
    if c > th.c0:
        raise ValueError(
            f"c={c!r} > c0={th.c0!r}: continuous series (class 1), no interval structure"
        )
    if c < th.c1:
        raise ValueError(
            f"c={c!r} < c1={th.c1!r}: below the mixed band "
            "(discrete series for s < pi/2, else no unirreps)"
        )
    return _interval_params(d, c)


def allowed_m_set(d: Deformation, c: float, m_values) -> np.ndarray:
    """Boolean mask over m_values of the allowed-m region, from the interval
    structure (c <= c0) or the everything-allowed rule (c >= c0)."""
    m = np.asarray(m_values, dtype=float)
    th = thresholds(d)
    if c >= th.c0:
        return np.ones(m.shape, dtype=bool)
    iv = _interval_params(d, c)

    def near(center, half):
        if half < 0.0:
            return np.zeros(m.shape, dtype=bool)
        dist = np.abs((m - center + iv.period / 2.0) % iv.period - iv.period / 2.0)
        return dist <= half

    return near(iv.center_delta, iv.delta / 2.0) | near(iv.center_Delta, iv.Delta / 2.0)


def forbidden_m(d: Deformation, m: float, tol: float = MATCH_TOL) -> bool:
    """m within tol of a forbidden point m_f = (pi/s)(k + 1/2) +- 1/2, where
    a ladder coefficient of the c -> c0 continuous series vanishes."""
    period = math.pi / d.s
    for shift in (-0.5, 0.5):
        k = round(((m - shift) / period) - 0.5)
        if abs(period * (k + 0.5) + shift - m) <= tol:
            return True
    return False


def rational_pi_fraction(s: float, max_den: int = RATIONAL_MAX_DEN, tol: float = MATCH_TOL):
    """Detect s = pi p/l by continued fractions; None if no denominator <= max_den fits."""
    x = s / math.pi
    # continued-fraction convergents of x
    p0, q0, p1, q1 = 0, 1, 1, 0
    a = x
    for _ in range(64):
        ai = math.floor(a)
        p0, q0, p1, q1 = p1, q1, ai * p1 + p0, ai * q1 + q0
        if q1 > max_den:
            return None
        if abs(x - p1 / q1) < tol:
            p, l = int(p1), int(q1)
            if l == 0:
                return None
            return p, l
        frac = a - ai
        if frac == 0.0:
            return None
        a = 1.0 / frac
    return None


@functools.lru_cache(maxsize=256)
def finite_orbit_candidates(d: Deformation, n_max: int | None = None) -> tuple:
    """Valid finite ladders: (N, c) with c = [(N+1)/2]^2, orbit -N/2 .. N/2.

    Orbits are centered on multiples of pi/s (here the k = 0 window, center
    m = 0), where the termination conditions [m0 - 1/2]^2 = [m0 + N + 1/2]^2
    = c hold exactly.  They depend on s alone, so each (d, n_max) is
    computed once and shared by every c of a sweep.
    """
    if n_max is None:
        n_max = int(math.ceil(2.0 * math.pi / d.s)) + 4
    N = np.arange(1, n_max + 1)
    c = -ladder_radicand(d, 0.0, N / 2.0, +1)  # [(N + 1)/2]^2, where orbit N closes
    # Orbit N moves m -> m + 1 from m = -N/2 .. N/2 - 1: the moves of orbit
    # N - 2 and its two outermost ones.  Its radicands c - [m + 1/2]^2 are
    # least at its largest [m + 1/2]^2, and rounding keeps that order, so
    # the orbit is valid iff its least radicand is.  ladder_radicand at c = 0
    # is -[m + 1/2]^2, and c + (-x) rounds as c - x.  The two outermost
    # moves, from -N/2 and from N/2 - 1, share the radicand -[(N - 1)/2]^2
    # bit for bit, because [x] is odd in x, so one call gives both.
    outer = ladder_radicand(d, 0.0, N / 2.0 - 1.0, +1)
    least = np.empty(n_max)
    for parity in (0, 1):
        least[parity::2] = np.minimum.accumulate(outer[parity::2])
    valid = radicand_ok(c + least, c)
    return tuple((n, cn) for n, cn, ok in zip(N.tolist(), c.tolist(), valid.tolist()) if ok and cn > 0.0)


def _matching_dims(d: Deformation, c: float):
    """Integers N with |c - [(N+1)/2]^2| <= MATCH_TOL and a valid orbit."""
    return [N for N, cN in finite_orbit_candidates(d) if abs(c - cN) <= MATCH_TOL]


def classify(d: Deformation, c: float) -> list[RepDescriptor]:
    """Descriptors of the unitary representations at Casimir value c.

    An empty list is a valid result (no unirreps below the lowest band).
    Finite descriptors are the k = 0 representatives; equivalent copies sit
    at m shifts of k pi/s.
    """
    if c <= 0.0:
        return []
    th = thresholds(d)
    s = d.s
    out: list[RepDescriptor] = []
    rational = rational_pi_fraction(s)

    if c > th.c0:
        note = ""
        if rational is None:
            note = (
                "irrational s/pi: accumulation of the m lattice against the "
                "forbidden points near the c -> c0 boundary (strange-series behaviour)"
            )
        out.append(
            RepDescriptor(
                rep_class=RepClass.Continuous1,
                c=c,
                s=s,
                m_rule=(
                    "all integers and half-integers except "
                    "m_f = (pi/s)(k + 1/2) +- 1/2, k integer"
                ),
                note=note,
            )
        )
        return out

    if abs(c - th.c1) <= MATCH_TOL * max(1.0, th.c1):
        m0 = math.pi / (2.0 * s)
        out.append(
            RepDescriptor(
                rep_class=RepClass.Singlet2c,
                c=c,
                s=s,
                m_rule="single state m0 = pi/(2s) + k pi/s (delta = 0)",
                N=0,
                m_list=(m0,),
                note="both ladder coefficients vanish at m0; delta interval degenerates to a point",
            )
        )
        return out

    if th.c1 < c <= th.c0:
        if rational is not None:
            p, l = rational
            iv = _interval_params(d, c)
            k = l - 1 if p == 1 else None
            out.append(
                RepDescriptor(
                    rep_class=RepClass.Mixed2a,
                    c=c,
                    s=s,
                    m_rule=(
                        "lattice m = m0 + l, l integer, with m0 = pi/(2s) - delta/2 + eps, "
                        "eps in (0, delta)"
                    ),
                    k=k if k is not None else 0,
                    note=(
                        f"s = pi*{p}/{l}"
                        + ("" if p == 1 else "; lattice spans several interval sequences per cycle")
                    ),
                    extra={"p": p, "l": l, "delta": iv.delta, "Delta": iv.Delta},
                )
            )
        rep_class, dims = RepClass.Finite2b, _matching_dims(d, c)
    elif s < math.pi / 2.0 and th.c2 < c < th.c1:
        n_bound = math.pi / s - 2.0
        rep_class, dims = RepClass.Discrete3, [N for N in _matching_dims(d, c) if 0 < N < n_bound]
    else:
        return out

    # finite ladders: Finite2b in the mixed band, Discrete3 below it
    for N in dims:
        m0 = -N / 2.0
        out.append(
            RepDescriptor(
                rep_class=rep_class,
                c=c,
                s=s,
                m_rule=f"m = m0 + l, l = 0..{N}, m0 = -N/2 + k pi/s",
                N=N,
                m_list=tuple(m0 + l for l in range(N + 1)),
            )
        )
    return out


def continuous_series_c(d: Deformation, k: int, sigma: float) -> float:
    """Casimir value cosh^2(s sigma)/sin^2 s of the continuous series;
    equals c0 at sigma = 0.  k labels the window and does not change c."""
    return math.cosh(d.s * sigma) ** 2 / d.sin_s**2


def class2a_enumerate(d: Deformation, c: float, epsilon: float, periods: int = 3) -> RepDescriptor:
    """Mixed-series lattice at a root of unity s = pi/(k+1).

    The lattice m = m0 + l with m0 = pi/(2s) - delta/2 + eps fills the
    allowed intervals, one state per delta interval and k per Delta
    interval.  The number of distinct ladder coefficients over one period
    is recorded in extra["distinct_ladder_values"].
    """
    k = int(round(math.pi / d.s)) - 1
    if k < 1 or abs(d.s - math.pi / (k + 1)) > 1e-12:
        raise ValueError(f"s={d.s!r} is not pi/(k+1) for integer k >= 1")
    th = thresholds(d)
    if not (th.c1 < c < th.c0):
        raise ValueError(f"c={c!r} outside the mixed band ({th.c1!r}, {th.c0!r})")
    iv = _interval_params(d, c)
    eps_max = (k + 1) * 2.0 * iv.alpha / math.pi - k  # equals delta at s = pi/(k+1)
    if not (0.0 < epsilon < eps_max):
        raise ValueError(f"epsilon={epsilon!r} outside (0, {eps_max!r})")

    m0 = math.pi / (2.0 * d.s) - iv.delta / 2.0 + epsilon
    window = int(math.ceil(periods * iv.period)) + 1
    ms = m0 + np.arange(-window, window + 1, dtype=float)
    if not unitary_ok(d, c, ms).all():
        raise ValueError("lattice point escaped the allowed intervals (invalid epsilon/c)")

    one_period = m0 + np.arange(k + 1, dtype=float)
    coeffs = np.sqrt(np.maximum(ladder_radicand(d, c, one_period, +1), 0.0))
    distinct = len(np.unique(np.round(coeffs / MATCH_TOL).astype(np.int64)))

    return RepDescriptor(
        rep_class=RepClass.Mixed2a,
        c=c,
        s=d.s,
        m_rule=f"m = m0 + l, l integer, m0 = {m0!r}",
        k=k,
        m_list=tuple(one_period),
        note=f"s = pi/{k + 1}; one state per delta interval, {k} per Delta interval",
        extra={
            "epsilon": epsilon,
            "epsilon_max": eps_max,
            "distinct_ladder_values": distinct,
            "delta": iv.delta,
            "Delta": iv.Delta,
        },
    )
