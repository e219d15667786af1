"""Generalized real deformation of su(2) with a Hopf-algebra structure.

The algebra is generated by J_z, J_+, J_- and a positive diagonal g with

    [J_z, J_+-] = +- J_+-,      [J_+, J_-] = 2 (g^2 - g^-2) / h(q),

h(q) = q - 1/q, and g^2 = f(J_z, q) drawn from the quadratic family

    f(m, q) = 1 + (q-1) m + (q-1)^2 (alpha m + b(m)),

which reduces to su(2) at q -> 1 for any bounded positive profile b.  At
the distinguished value q1 = (alpha-1)/alpha the linear terms collapse to
f = 1 + (q1-1)^2 b(m).  Unitarity confines the image of f to a c-dependent
window; a sech-shaped f yields a bounded spectrum of the deformed
commutator with a single accumulation point.

Representations are built by telescoping the commutator relation, with the
anchor fixed so the quartic Casimir matches the requested c at the basis
midpoint.  The conjugation relation g^2 J_+- g^-2 = q^{+-1} J_+- and the
exact constancy of the Casimir hold only for the geometric profile
f = f0 q1^m (the point of the family equivalent to the standard
q-deformation); for other profiles those residuals are reported, not
asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .classify import radicand_ok
from .operators import EDGE_BUFFER, OperatorMatrix, _absmax, _ladder_bands

WINDOW_C_START = 64.0  # first upper bracket of window_c_min, doubled until the window opens
WINDOW_BISECTIONS = 80
ACCUMULATION_TAIL = 8


def _profile_constant(params):
    b0 = float(params.get("b0", 1.0))
    if b0 <= 0.0:
        raise ValueError("constant profile requires b0 > 0")
    return lambda m: np.full_like(np.asarray(m, dtype=float), b0, dtype=float)


def _sech_sq(m):
    """sech^2 without overflow at large |m|."""
    m = np.abs(np.asarray(m, dtype=float))
    e = np.exp(-m)
    return (2.0 * e / (1.0 + e * e)) ** 2


def _profile_sech(params, gd):
    f_lo = float(params["f_lo"])
    f_hi = float(params["f_hi"])
    # f = 1 + (q1-1)^2 b with b > 0 forces f > 1
    if not (f_hi > f_lo > 1.0):
        raise ValueError("sech profile requires f_hi > f_lo > 1 (b positive)")
    scale = (gd.q1 - 1.0) ** 2

    def b(m):
        return (sech_profile(m, f_lo, f_hi) - 1.0) / scale

    return b


def _profile_geometric(params, q1, alpha):
    f0 = float(params.get("f0", 4.0))
    if f0 <= 0.0:
        raise ValueError("geometric profile requires f0 > 0")

    def b(m):
        m = np.asarray(m, dtype=float)
        return alpha**2 * (f0 * q1**m - 1.0)

    return b


@dataclass(frozen=True)
class GenDeformation:
    """Deformation data: alpha fixes q1 = (alpha-1)/alpha; the profile names b.

    Profiles: "constant" (b0), "sech" (f_lo, f_hi at q = q1), "geometric"
    (f0, giving f = f0 q1^m exactly).  The default alpha < 0 keeps q1 > 1
    and h > 0.
    """

    alpha: float = -1.0
    profile: str = "constant"
    profile_params: dict = field(default_factory=dict)
    q1: float = field(init=False)
    h: float = field(init=False)
    C1: float = field(init=False)
    C2: float = field(init=False)

    def __post_init__(self):
        a = float(self.alpha)
        if a == 0.0:
            raise ValueError("alpha = 0 leaves q1 undefined")
        q1 = (a - 1.0) / a
        if q1 <= 0.0 or q1 == 1.0:
            raise ValueError(f"q1 = {q1!r} must be positive and != 1 (alpha in (0, 1] excluded)")
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "h", q1 - 1.0 / q1)
        # Fractional powers are taken on absolute values; the asserted signs
        # C1, C2 >= 0 fix the branch.
        w = abs(math.sqrt(q1) - 1.0 / math.sqrt(q1))
        object.__setattr__(self, "C1", 2.0 ** (4.0 / 3.0) / (abs(self.h) ** (4.0 / 3.0) * w ** (2.0 / 3.0)))
        object.__setattr__(self, "C2", 2.0 ** (1.0 / 3.0) / w ** (1.0 / 3.0))

    @cached_property
    def _b_fn(self):
        if self.profile == "constant":
            return _profile_constant(self.profile_params)
        if self.profile == "sech":
            return _profile_sech(self.profile_params, self)
        if self.profile == "geometric":
            return _profile_geometric(self.profile_params, self.q1, self.alpha)
        raise ValueError(f"unknown profile {self.profile!r}")

    def b(self, m):
        return self._b_fn(m)

    def f_at_q1(self, m):
        """f(m, q1) = 1 + (q1 - 1)^2 b(m); must stay positive."""
        f = 1.0 + (self.q1 - 1.0) ** 2 * self.b(m)
        if np.any(np.asarray(f) <= 0.0):
            raise ValueError("f(m, q1) <= 0 on the working range (g not real)")
        return f


@dataclass(frozen=True)
class UnitarityWindow:
    L1: float
    L2: float
    l1: float
    l2: float
    f_min: float
    f_max: float
    c_min: float
    paper_ordering: bool  # l2 > L2 > l1 > L1 (holds on the q1 in (0, 1) branch)


@dataclass(frozen=True)
class HopfReport:
    coassoc_g: float
    coassoc_jp: float
    counit_jp: float
    counit_g: float
    antipode_full: float  # S(J_+) = -q^-1 J_+ convention
    antipode_half: float  # S(J_+) = -q^-1/2 J_+ convention
    comult_homomorphism: float  # Delta applied to the commutator relation
    conjugation: float  # g^2 J_+ g^-2 - q1 J_+ interior residual
    commutator_defect: float  # diagonal of [J_+, J_-] - spectrum_2jz, interior rows


def deformation_f(m, gd: GenDeformation, q: float):
    """f(m, q) = 1 + (q-1) m + (q-1)^2 (alpha m + b(m))."""
    m = np.asarray(m, dtype=float)
    dq = q - 1.0
    out = 1.0 + dq * m + dq * dq * (gd.alpha * m + gd.b(m))
    return float(out) if out.ndim == 0 else out


def reduction_residuals(gd: GenDeformation, m: float, eps: float = 1e-6):
    """Residuals of the su(2) reduction conditions f(m,1) = 1 and
    df/dq(m,1) = m (central finite difference)."""
    r0 = abs(deformation_f(m, gd, 1.0) - 1.0)
    der = (deformation_f(m, gd, 1.0 + eps) - deformation_f(m, gd, 1.0 - eps)) / (2.0 * eps)
    return r0, abs(der - m)


def _window_bounds(c: float, gd: GenDeformation):
    """Window bounds from the two quadratic inequalities; inf marks a
    one-sided condition."""
    if c < 0.0:
        raise ValueError("c must be non-negative")
    sq1 = math.sqrt(gd.q1)
    beta = 1.0 + c / (2.0 * gd.C1)
    rad = beta * beta - 1.0
    if rad < 0.0:
        raise ValueError(f"window empty at this c: beta^2 - 1 = {rad!r} < 0")
    root = math.sqrt(rad)
    L1, L2 = sq1 * (beta - root), sq1 * (beta + root)

    a1 = gd.C1
    a2 = 2.0 * gd.C2 / gd.h
    disc = a1 * a1 * beta * beta - (a1 * a1 - a2 * a2)
    if disc < 0.0:
        raise ValueError(f"window empty at this c: discriminant {disc!r} < 0")
    droot = math.sqrt(disc)
    lead = a1 + a2
    if lead > 0.0:
        u_lo = (a1 * beta - droot) / lead
        u_hi = (a1 * beta + droot) / lead
        l1, l2 = sq1 * u_lo, sq1 * u_hi
    else:
        # downward parabola: the positive-u feasible set is one-sided above
        u_lo = (a1 * beta - droot) / lead
        l1, l2 = sq1 * u_lo, math.inf
    return L1, L2, l1, l2


def window_c_min(gd: GenDeformation) -> float:
    """Smallest c with a non-empty f window, by WINDOW_BISECTIONS bisections from [0, WINDOW_C_START]."""

    def width(c):
        L1, L2, l1, l2 = _window_bounds(c, gd)
        return min(L2, l2) - max(L1, l1)

    lo, hi = 0.0, WINDOW_C_START
    while width(hi) <= 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise ValueError("no non-empty window found up to c = 1e12")
    for _ in range(WINDOW_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if width(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def unitarity_window(c: float, gd: GenDeformation) -> UnitarityWindow:
    """Unitarity window for the image of f at Casimir value c."""
    L1, L2, l1, l2 = _window_bounds(c, gd)
    f_min = max(L1, l1)
    f_max = min(L2, l2)
    return UnitarityWindow(
        L1=L1,
        L2=L2,
        l1=l1,
        l2=l2,
        f_min=f_min,
        f_max=f_max,
        c_min=window_c_min(gd),
        paper_ordering=bool(l2 > L2 > l1 > L1),
    )


def window_inequalities(f, c: float, gd: GenDeformation):
    """Direct evaluation of the two non-negativity conditions at f values.

    Returns (e35, e36), the expectation values of J_+J_- and J_-J_+ scaled
    by C2; unitarity requires both >= 0.
    """
    f = np.asarray(f, dtype=float)
    gt = np.sqrt(f / math.sqrt(gd.q1))
    quad = (gt - 1.0 / gt) ** 2
    e35 = c - gd.C1 * quad
    e36 = e35 - (2.0 * gd.C2 / gd.h) * (gt**2 - gt**-2)
    return e35, e36


def sech_profile(m, f_lo: float, f_hi: float):
    """(f_hi - f_lo)/cosh^2(m) + f_lo; image inside (f_lo, f_hi]."""
    if not (f_hi > f_lo > 0.0):
        raise ValueError("requires f_hi > f_lo > 0")
    out = (f_hi - f_lo) * _sech_sq(m) + f_lo
    return float(out) if np.ndim(out) == 0 else out


def spectrum_2jz(gd: GenDeformation, m_range):
    """Deformed commutator spectrum 2 (f - 1/f)/h over the m range: the
    diagonal of [J_+, J_-] on the states m."""
    f = np.asarray(gd.f_at_q1(m_range), dtype=float)
    return 2.0 * (f - 1.0 / f) / gd.h


def detect_accumulation(m_values, values):
    """Monotone-tail detection of a two-sided accumulation point, from ACCUMULATION_TAIL samples a side.

    Returns a dict with the one-sided limit estimates, whether both tails
    are monotone, and whether they agree (single two-sided limit point).
    Raises ValueError when the samples do not fill two disjoint tails.
    """
    m = np.asarray(m_values, dtype=float)
    if len(m) < 2 * ACCUMULATION_TAIL:
        raise ValueError(f"{len(m)} samples cannot fill two disjoint tails of {ACCUMULATION_TAIL}")
    v = np.asarray(values, dtype=float)
    order = np.argsort(m)
    m, v = m[order], v[order]
    left, right = v[:ACCUMULATION_TAIL], v[-ACCUMULATION_TAIL:]
    dl, dr = np.diff(left), np.diff(right)
    monotone = bool((np.all(dl <= 0) or np.all(dl >= 0)) and (np.all(dr <= 0) or np.all(dr >= 0)))
    lim_minus, lim_plus = float(left[0]), float(right[-1])
    return {
        "limit_minus": lim_minus,
        "limit_plus": lim_plus,
        "monotone_tails": monotone,
        "two_sided": bool(abs(lim_plus - lim_minus) < 1e-6 * (1.0 + abs(lim_plus))),
        "limit": 0.5 * (lim_plus + lim_minus),
        "bounded": bool(np.isfinite(v).all()),
    }


def _c2_casimir(gd: GenDeformation) -> float:
    """J_+J_- coefficient of the quartic Casimir, 2^{1/3}/(q^{1/2}+q^{-1/2})^{1/3}."""
    v = math.sqrt(gd.q1) + 1.0 / math.sqrt(gd.q1)
    return 2.0 ** (1.0 / 3.0) / v ** (1.0 / 3.0)


def build_gen_rep(gd: GenDeformation, dim: int, c: float):
    """(J_z, J_+, J_-, g) on m = -(dim-1)/2 .. (dim-1)/2 by telescoping the commutator.

    |N_m|^2 is telescoped from the basis midpoint, anchored so the quartic
    Casimir equals c there.  Raises when the anchor or any telescoped
    |N_m|^2 goes negative (no unitary truncation at this anchor).
    """
    if dim < 3:
        raise ValueError("dim must be >= 3")
    ms = -(dim - 1) / 2.0 + np.arange(dim, dtype=float)
    f = np.asarray(gd.f_at_q1(ms), dtype=float)
    gt = f ** 0.5 * gd.q1 ** -0.25  # diag(sqrt(f)) * q1^{-1/4}
    phi = (gt - 1.0 / gt) ** 2
    k_diag = spectrum_2jz(gd, ms)

    a = dim // 2
    c2c = _c2_casimir(gd)
    anchor = (c - gd.C1 * phi[a]) / c2c  # |N|^2 feeding row a from below
    if anchor < -1e-12:
        raise ValueError(f"no unitary truncation at this anchor: |N|^2 = {float(anchor)!r}")
    n2 = np.concatenate((k_diag[1:a], [max(anchor, 0.0)], k_diag[a : dim - 1]))  # anchor at a - 1
    np.subtract.accumulate(n2[a - 1 :], out=n2[a - 1 :])  # upward: N_i^2 = N_{i-1}^2 - K(m_i)
    np.add.accumulate(n2[a - 1 :: -1], out=n2[a - 1 :: -1])  # downward: N_i^2 = N_{i+1}^2 + K(m_{i+1})
    if not np.all(radicand_ok(n2, c)):
        raise ValueError(f"no unitary truncation at this anchor: min |N|^2 = {float(n2.min())!r}")
    n2 = np.maximum(n2, 0.0)

    basis = tuple(ms)
    jp = OperatorMatrix(np.sqrt(n2), -1, basis)
    return OperatorMatrix(ms, 0, basis), jp, jp.adjoint(), OperatorMatrix(gt, 0, basis)


def _interior_block(n: int) -> slice:
    """Band entries [i+1, i] inside the interior rows and columns [buf, n - buf)."""
    if n - EDGE_BUFFER <= EDGE_BUFFER:
        raise ValueError(f"basis of size {n} leaves no interior rows at buffer {EDGE_BUFFER}")
    return slice(EDGE_BUFFER, n - EDGE_BUFFER - 1)


def casimir_gen(gd: GenDeformation, rep) -> np.ndarray:
    """Diagonal of the quartic Casimir C1 (g~ - g~^-1)^2 + c2 J_+ J_- of the
    built rep, a diagonal matrix."""
    _, jp, jm = _ladder_bands(rep[:3])
    gt = rep[3].band
    quad = (gt - 1.0 / gt) ** 2
    pm = np.concatenate(([0.0], jp * jm))  # diagonal of J_+ J_-
    return gd.C1 * quad + _c2_casimir(gd) * pm


def conjugation_residual(gd: GenDeformation, rep) -> float:
    """Interior residual of g^2 J_+ g^-2 - q1 J_+ (exact only for the
    geometric profile, where f steps by the ratio q1)."""
    _, jp, _ = _ladder_bands(rep[:3])
    f = rep[3].band ** 2 * math.sqrt(gd.q1)
    res = f[1:] * jp * (1.0 / f[:-1]) - gd.q1 * jp
    return _absmax(res[_interior_block(len(f))])


def hopf_axiom_report(gd: GenDeformation, rep) -> HopfReport:
    """Numerical residuals of the Hopf axioms on the truncated rep.

    Coassociativity and the counit axiom collapse structurally (Delta(g) is
    grouplike, eps(J_+) = 0) and are asserted tiny by tests.  The antipode
    axiom is evaluated under both half-power conventions and reported: with
    a diagonal sqrt(f) realization of g, S(J_+) = -q^-1 J_+ leaves a
    sqrt(q)-vs-q mismatch.  The comultiplication-homomorphism residual on
    the commutator relation vanishes only when the conjugation relation
    holds (geometric profile).  The commutator defect vanishes on every
    profile, because build_gen_rep telescopes |N|^2 from that relation.

    Delta(J_+) = J_+ (x) g^-1 + g (x) J_+ and Delta(g) = g (x) g act on
    products of bands, so every operator below is a sum of terms, each
    one band shifted in one tensor factor.  The residuals are taken over
    those supports as outer products of the band vectors, never forming
    an n^2 x n^2 or n^3 x n^3 matrix.  Entries off the supports are exact
    zeros on both sides.
    """
    # the stored g is the tilde-normalized q1^{-1/4} sqrt(f), and the Hopf
    # maps use the bare g with g^2 = f
    ms, jp, jm = _ladder_bands(rep[:3])
    g = gd.q1**0.25 * rep[3].band
    ginv = 1.0 / g
    n = len(g)
    outer = np.multiply.outer

    ggg = outer(outer(g, g), g)
    coassoc_g = _absmax(ggg - ggg)
    # (Delta (x) id) Delta(J+) - (id (x) Delta) Delta(J+): J+ shifts the
    # first, second or third factor
    coassoc_jp = _absmax(
        outer(outer(jp, ginv), ginv) - outer(jp, outer(ginv, ginv)),
        outer(outer(g, jp), ginv) - outer(g, outer(jp, ginv)),
        outer(outer(g, g), jp) - outer(g, outer(g, jp)),
    )

    # (eps (x) id) Delta = id with eps(J+) = 0, eps(g^+-1) = 1
    counit_jp = _absmax(0.0 * ginv, 1.0 * jp - jp)
    counit_g = _absmax(1.0 * g - g)

    # m (S (x) id) Delta(J+) - eta eps(J+) = S(J+) g^-1 + g^-1 J+, on the
    # interior; its only non-zero entries are the [i+1, i] band
    inner = _interior_block(n)
    antipode_full = _absmax(((-(1.0 / gd.q1) * jp) * ginv[:-1] + ginv[1:] * jp)[inner])
    antipode_half = _absmax(((-(1.0 / math.sqrt(gd.q1)) * jp) * ginv[:-1] + ginv[1:] * jp)[inner])

    # [J+, J-] = 2 (f - 1/f)/h on the interior diagonal
    comm = np.concatenate(([0.0], jp * jm)) - np.concatenate((jm * jp, [0.0]))
    commutator_defect = _absmax((comm - spectrum_2jz(gd, ms))[EDGE_BUFFER : n - EDGE_BUFFER])

    # Delta on the commutator relation [J+, J-] = 2 (g^2 - g^-2)/h over
    # interior pairs (a, b): the diagonal, where both sides act, and the
    # two supports where J+ and J- shift different factors
    i = np.arange(EDGE_BUFFER, n - EDGE_BUFFER)
    a = i[:-1]  # both a and a + 1 interior
    g_in, ginv_in = g[i], ginv[i]
    pm = outer(jp[i - 1], ginv_in) * outer(jm[i - 1], ginv_in) + outer(g_in, jp[i - 1]) * outer(
        g_in, jm[i - 1]
    )
    mp = outer(jm[i], ginv_in) * outer(jp[i], ginv_in) + outer(g_in, jm[i]) * outer(g_in, jp[i])
    g2, gi2 = outer(g_in, g_in), outer(ginv_in, ginv_in)
    comult_hom = _absmax(
        (pm - mp) - 2.0 * (g2 * g2 - gi2 * gi2) / gd.h,
        # rows (a+1, b), columns (a, b+1)
        outer(jp[a], ginv[a]) * outer(g[a], jm[a]) - outer(g[a + 1], jm[a]) * outer(jp[a], ginv[a + 1]),
        # rows (a, b+1), columns (a+1, b)
        outer(g[a], jp[a]) * outer(jm[a], ginv[a]) - outer(jm[a], ginv[a + 1]) * outer(g[a + 1], jp[a]),
    )

    return HopfReport(
        coassoc_g=coassoc_g,
        coassoc_jp=coassoc_jp,
        counit_jp=counit_jp,
        counit_g=counit_g,
        antipode_full=antipode_full,
        antipode_half=antipode_half,
        comult_homomorphism=comult_hom,
        conjugation=conjugation_residual(gd, rep),
        commutator_defect=commutator_defect,
    )
