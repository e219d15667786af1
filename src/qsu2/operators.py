"""Explicit matrix representations of su_{e^{is}}(2) and their verification.

J_z is diagonal on an m basis with unit spacing; J_+/J_- are shift
matrices with real non-negative ladder coefficients
sqrt(c - [m +- 1/2]^2) (the undetermined phase is fixed to +1).  Each is
stored as its one non-zero diagonal, and the residuals are evaluated on
those bands in O(n).  On
finite classes the boundary coefficients vanish and the defining
relations hold on the full matrix; truncations of infinite classes are
verified on rows at least `EDGE_BUFFER` away from the matrix edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import EDGE_BUFFER
from .classify import ladder_radicand, radicand_ok
from .qnumbers import Deformation, bracket_sequence, qnumber

CLOSURE_TOL = 1e-10


class UnitarityError(ValueError):
    """Negative ladder radicand: (c, m) violates the unitarity condition."""


@dataclass(frozen=True)
class OperatorMatrix:
    """A complex matrix with one non-zero diagonal, whose entries are real.

    `band` holds the entries on the diagonal `offset` (column minus row):
    0 for J_z and g, -1 for J_+ (entries [i+1, i]), +1 for J_- (entries
    [i, i+1]).  Every other entry equals `fill`, and every imaginary part
    equals fill.imag: zeros whose signs are kept so that the dense form of
    an adjoint matches the conjugate transpose bit for bit.
    """

    band: np.ndarray  # float64, length n - |offset|
    offset: int
    basis: tuple  # ordered m labels
    fill: complex = 0j

    def __post_init__(self):
        if self.band.dtype != np.float64:  # rep.json would drop a complex band's imaginary parts
            raise TypeError(f"band must be float64, got {self.band.dtype}")
        if len(self.band) != len(self.basis) - abs(self.offset):
            raise ValueError(
                f"band of length {len(self.band)} does not fit offset {self.offset} "
                f"on a basis of size {len(self.basis)}"
            )

    @property
    def entries(self) -> np.ndarray:
        """The dense n x n complex matrix, built on demand."""
        n = len(self.basis)
        out = np.full((n, n), self.fill, dtype=complex)
        rows = np.arange(max(0, -self.offset), n - max(0, self.offset))
        out.real[rows, rows + self.offset] = self.band
        return out

    def adjoint(self) -> "OperatorMatrix":
        """The conjugate transpose, on a copy of the band."""
        return OperatorMatrix(self.band.copy(), -self.offset, self.basis, self.fill.conjugate())


@dataclass(frozen=True)
class AlgebraReport:
    res_jz_jpm: float  # commutator [J_z, J_+] - J_+
    res_jp_jm: float  # [J_+, J_-] - diag([2m])
    res_casimir: float  # both quadratic Casimir forms against c * I
    maekawa_2s_dev: float  # c - cos(s)[J_z]_{2s}^2 - (J+J- + J-J+)/2 vs 1/(4 cos^2(s/2)) I
    closed: bool  # boundary ladder coefficients vanish
    interior_buffer: int  # rows excluded from residuals at each edge (0 when closed)


def _ladder_sign(sign) -> int:
    """A ladder move's direction, +1 (raise) or -1 (lower); else a ValueError."""
    if sign not in (1, -1):
        raise ValueError(f"direction sign must be +1 or -1, got {sign!r}")
    return sign


def ladder_coeff(d: Deformation, c: float, m: float | np.ndarray, sign: int) -> float | np.ndarray:
    """sqrt(c - [m + sign/2]^2) >= 0 (sign = +1 or -1), elementwise for an array
    m, raising at the first m that violates unitarity; a NaN c gives NaN."""
    sign = _ladder_sign(sign)
    rad = ladder_radicand(d, c, m, sign)
    bad = np.flatnonzero(~(radicand_ok(rad, c) | np.isnan(rad)))
    if bad.size:
        raise UnitarityError(
            f"c - [m {'+' if sign > 0 else '-'} 1/2]^2 = {float(np.ravel(rad)[bad[0]])!r} < 0 "
            f"at c={float(c)!r}, m={float(np.ravel(m)[bad[0]])!r}"
        )
    root = np.sqrt(np.where(rad < 0.0, 0.0, rad))  # max(rad, 0.0): keeps -0.0 and NaN
    return root if np.ndim(m) else float(root)


def continuous_ladder_coeff(d: Deformation, sigma: float, m: float, sign: int) -> float:
    """Continuous-series coefficient (sign = +1 or -1) in its closed form
    sqrt(cos^2(beta) cosh^2(sigma s) + sin^2(beta) sinh^2(sigma s))/sin s
    with beta = -sign m s - s/2.  Equals ladder_coeff at c = cosh^2(s sigma)/sin^2 s."""
    sign = _ladder_sign(sign)
    beta = -sign * m * d.s - d.s / 2.0
    val = math.cos(beta) ** 2 * math.cosh(sigma * d.s) ** 2 + math.sin(beta) ** 2 * math.sinh(
        sigma * d.s
    ) ** 2
    return math.sqrt(val) / d.sin_s


def build_rep(d: Deformation, c: float, m_list):
    """(J_z, J_+, J_-) on the ordered basis m_list (spacing exactly 1)."""
    ms = np.array(m_list, dtype=float)  # a copy: it becomes the J_z band
    if ms.ndim != 1 or len(ms) < 1:
        raise ValueError("m_list must be a non-empty 1-d sequence")
    if len(ms) > 1 and not np.all(np.abs(np.diff(ms) - 1.0) < 1e-12):
        raise ValueError("m_list spacing must be exactly 1")
    basis = tuple(ms)
    jp = OperatorMatrix(ladder_coeff(d, c, ms[:-1], +1), -1, basis)
    return OperatorMatrix(ms, 0, basis), jp, jp.adjoint()


def _absmax(*parts) -> float:
    """Largest |entry| over the given arrays; 0.0 when all are empty."""
    tops = [np.abs(a).max() for a in parts if a.size]
    return float(np.max(tops)) if tops else 0.0


def _ladder_bands(triple):
    """Bands of (J_z, J_+, J_-): the diagonal, entries [i+1, i] and [i, i+1]."""
    if tuple(t.offset for t in triple) != (0, -1, 1):
        raise ValueError("expected J_z, J_+, J_- on the diagonals 0, -1, +1")
    return tuple(t.band for t in triple)


def edge_coefficients(d: Deformation, c: float, triple) -> tuple[float, float]:
    """Ladder coefficients that would leave the basis at the bottom/top."""
    ms = triple[0].basis
    bottom, top = ladder_radicand(d, c, ms[0], -1), ladder_radicand(d, c, ms[-1], +1)
    return math.sqrt(max(bottom, 0.0)), math.sqrt(max(top, 0.0))


# a residual that overflows (J_+ J_- + J_- J_+ once c passes about 9e307) is recorded as inf or NaN
@np.errstate(over="ignore", invalid="ignore")
def verify_algebra(triple, d: Deformation, c: float) -> AlgebraReport:
    """Residuals of the three defining relations: [J_z, J_+] = J_+,
    [J_+, J_-] = [2 J_z], and both Casimir forms equal to c.

    The other Casimir identities follow from these through exact bracket
    identities, so they are not computed: the two forms differ by
    [J_+, J_-] - [2 J_z], since [m + 1/2]^2 - [m - 1/2]^2 = [2m]; the
    Maekawa form at s is their mean, since [m + 1/2]^2 + [m - 1/2]^2 =
    2 cos(s) [m]^2 + 2 [1/2]^2; and [C, J_+] has entries J_+ (C_{i+1} - C_i).

    Closed (finite-class) representations are checked on the full matrix;
    truncations exclude EDGE_BUFFER rows at each edge, where the lost
    ladder flux makes the diagonal relations fail by construction.
    """
    jz, jp, jm = _ladder_bands(triple)
    ms = np.asarray(triple[0].basis, dtype=float)
    n = len(ms)

    bottom, top = edge_coefficients(d, c, triple)
    closed = max(bottom, top) < CLOSURE_TOL
    buf = 0 if closed else EDGE_BUFFER
    lo, hi = buf, n - buf
    if hi <= lo:
        raise ValueError(
            f"basis of size {n} leaves no interior rows at buffer {buf}: "
            f"a truncated class needs at least {2 * buf + 1} states"
        )

    # Every product of these operators has a single non-zero diagonal,
    # whose entries are single products of band entries.  Each residual is
    # evaluated entry by entry in the order the dense expression uses
    # (a*b - b*a, not factored), so the values equal the dense ones.  Band
    # entry i of J_+- sits at [i+1, i] / [i, i+1], inside the [lo:hi, lo:hi]
    # block when lo <= i <= hi - 2.  J_- is built as J_+'s adjoint, on a
    # copy of its band, so [J_z, J_+-] is checked once, on J_+: the J_-
    # half is the J_+ half negated bit for bit.
    diag, band = slice(lo, hi), slice(lo, hi - 1)
    res1 = _absmax((jz[1:] * jp - jp * jz[:-1] - jp)[band])
    pm = np.concatenate(([0.0], jp * jm))  # diagonal of J_+ J_-
    mp = np.concatenate((jm * jp, [0.0]))  # diagonal of J_- J_+
    res2 = _absmax((pm - mp - bracket_sequence(ms, d))[diag])

    cas_a = qnumber(ms + 0.5, d) ** 2 + mp  # [J_z + 1/2]^2 + J_- J_+
    cas_b = qnumber(ms - 0.5, d) ** 2 + pm  # [J_z - 1/2]^2 + J_+ J_-
    res_cas = _absmax((cas_a - c)[diag], (cas_b - c)[diag])

    # the Maekawa form read with [J_z] at 2s, recorded, not asserted
    if abs(math.sin(2.0 * d.s)) > 1e-12:
        anti = (pm + mp) / 2.0
        shift = 1.0 / (4.0 * math.cos(d.s / 2.0) ** 2)
        br_2s = np.sin(2.0 * d.s * ms) / math.sin(2.0 * d.s)
        mae2_dev = _absmax((c - d.cos_s * br_2s**2 - anti - shift)[diag])
    else:
        mae2_dev = float("nan")

    return AlgebraReport(
        res_jz_jpm=res1,
        res_jp_jm=res2,
        res_casimir=res_cas,
        maekawa_2s_dev=mae2_dev,
        closed=closed,
        interior_buffer=buf,
    )
