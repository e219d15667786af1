"""q-number arithmetic for the trigonometric deformation q = e^{is}.

For q = e^{is} the bracket of a real number x is [x] = sin(x s)/sin(s),
which is real, odd in x, bounded by 1/|sin s|, and invariant under
s -> -s.  The hyperbolic bracket sinh(x t)/sinh(t) (real q = e^t) is the
building block of the split formula for complex arguments.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

# Distance from a multiple of pi below which the deformation is singular.
SINGULAR_TOL = 1e-12


class SingularDeformation(ValueError):
    """Raised when s is too close to a multiple of pi (sin s = 0)."""


@dataclass(frozen=True)
class Deformation:
    """Deformation angle s in (0, pi) with cached trigonometry.

    eta_sq is the square of eta = 2i sin(s), i.e. -4 sin^2(s).  Limits
    s -> 0, pi are never admitted as values; callers wanting limiting
    behaviour evaluate at s = eps or pi - eps and extrapolate.
    """

    s: float
    sin_s: float = field(init=False)
    cos_s: float = field(init=False)
    eta_sq: float = field(init=False)

    def __post_init__(self):
        s = float(self.s)
        if not (0.0 < s < math.pi):
            raise SingularDeformation(f"s={s!r} outside (0, pi)")
        if min(s, math.pi - s) < SINGULAR_TOL:
            raise SingularDeformation(
                f"s={s!r} within {SINGULAR_TOL} of a multiple of pi (sin s = 0)"
            )
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "sin_s", math.sin(s))
        object.__setattr__(self, "cos_s", math.cos(s))
        object.__setattr__(self, "eta_sq", -4.0 * math.sin(s) ** 2)


def qnumber(x, d: Deformation):
    """[x] = sin(x s)/sin(s) for real x (scalar or array)."""
    # a Python float first: np.ndim costs it about 2 us, most of the call
    if type(x) is float or not np.ndim(x):
        return math.sin(float(x) * d.s) / d.sin_s
    return np.sin(np.asarray(x, dtype=float) * d.s) / d.sin_s


def qnumber_complex(x: complex, d: Deformation) -> complex:
    """[x] for complex x, evaluated with the complex sine (ground truth)."""
    return cmath.sin(complex(x) * d.s) / d.sin_s


def qnumber_hyperbolic(x, t: float):
    """Real-q bracket [x]_{e^t} = sinh(x t)/sinh(t), t != 0."""
    if t == 0.0 or abs(t) < SINGULAR_TOL:
        raise ValueError(f"t={t!r} too close to zero (sinh t = 0)")
    return np.sinh(np.asarray(x, dtype=float) * t) / math.sinh(t) if np.ndim(x) else math.sinh(
        float(x) * t
    ) / math.sinh(t)


def bracket_sequence(m_values, d: Deformation):
    """[2m] for each m; the eigenvalues of the deformed commutator on |c m>."""
    m = np.asarray(m_values, dtype=float)
    return np.sin(2.0 * m * d.s) / d.sin_s


def complex_split_residual(x: complex, d: Deformation):
    """Residuals of the trig/hyperbolic split formula for a complex argument.

    The split expresses [alpha + i beta] through real brackets of alpha
    (trigonometric) and beta (hyperbolic).  Stated naively it carries a
    sign ambiguity in the first radicand and loses the sign of
    cos(alpha s) in the second, so this routine evaluates both the naive
    reading and a sign-corrected one and returns their absolute
    deviations from the complex-sine ground truth.

    Returns a dict with keys "naive" and "corrected".
    """
    x = complex(x)
    alpha, beta = x.real, x.imag
    s = d.s
    truth = qnumber_complex(x, d)

    br_a = qnumber(alpha, d)
    br_b_h = qnumber_hyperbolic(beta, s) if beta != 0.0 else 0.0
    br_i = qnumber_complex(1j, d)  # i sinh(s)/sin(s)
    br2 = qnumber(2.0, d)  # 2 cos s
    br2_h = qnumber_hyperbolic(2.0, s)  # 2 cosh s

    # naive reading: sqrt(1 + [beta]_h^2 (1 - [2]_h^2/4)), radicand may go negative
    naive = br_a * cmath.sqrt(1.0 + br_b_h**2 * (1.0 - br2_h**2 / 4.0)) + br_i * br_b_h * cmath.sqrt(
        1.0 - br_a**2 * (1.0 - br2**2 / 4.0)
    )
    # Corrected: cosh identity needs ([2]_h^2/4 - 1) = sinh^2 s; restore the
    # sign of cos(alpha s) lost by the square root.
    corrected = br_a * cmath.sqrt(1.0 + br_b_h**2 * (br2_h**2 / 4.0 - 1.0)) + br_i * br_b_h * math.copysign(
        1.0, math.cos(alpha * s)
    ) * cmath.sqrt(1.0 - br_a**2 * (1.0 - br2**2 / 4.0))

    return {
        "naive": abs(naive - truth),
        "corrected": abs(corrected - truth),
    }
