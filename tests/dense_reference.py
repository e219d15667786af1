"""Reference implementations of the banded and vectorised code.

These are the dense n x n and Kronecker-product forms that `build_rep`,
`verify_algebra`, `casimir_gen`, `conjugation_residual`,
`hopf_axiom_report` and `complex_pairs` replace, and the Python loops that
the array code of `build_rep`, `build_gen_rep`, `spectral_flow`,
`level_section`, `_cells`, `write_csv`, `finite_orbit_candidates`,
`topology_transition` and `commensurability_peak` replaces.  The property
tests compare the library against them; they are slow (O(n^3) products,
n^3 x n^3 Kronecker matrices, per-element loops) and run only on small
sizes.
"""

from __future__ import annotations

import math

import numpy as np

from qsu2.classify import radicand_ok
from qsu2.hopf import HopfReport, _c2_casimir, spectrum_2jz
from qsu2.operators import CLOSURE_TOL, EDGE_BUFFER, AlgebraReport, UnitarityError
from qsu2.qnumbers import bracket_sequence, qnumber
from qsu2.serialize import fmt


def ladder_band(d, c, ms):
    """The J_+ band sqrt(c - [m + 1/2]^2), one scalar radicand per m, raising
    UnitarityError at the first m the unitarity rule rejects."""
    band = []
    for m in ms:
        rad = c - qnumber(m + 0.5, d) ** 2
        if not (radicand_ok(rad, c) or math.isnan(rad)):
            raise UnitarityError(f"c - [m + 1/2]^2 = {float(rad)!r} < 0 at c={float(c)!r}, m={float(m)!r}")
        band.append(math.sqrt(max(rad, 0.0)))
    return np.array(band, dtype=float)


def build_rep(d, c, m_list):
    """Dense (J_z, J_+, J_-) on the basis m_list."""
    ms = np.asarray(m_list, dtype=float)
    n = len(ms)
    jz = np.diag(ms).astype(complex)
    jp = np.zeros((n, n), dtype=complex)
    jp[np.arange(1, n), np.arange(n - 1)] = ladder_band(d, c, ms[:-1].tolist())
    jm = jp.conj().T.copy()
    return jz, jp, jm


def gen_n2(gd, dim, c):
    """|N_m|^2 of build_gen_rep on the centred basis, telescoped one state
    at a time from the clamped anchor at the basis midpoint."""
    ms = -(dim - 1) / 2.0 + np.arange(dim, dtype=float)
    gt = np.asarray(gd.f_at_q1(ms), dtype=float) ** 0.5 * gd.q1**-0.25
    phi = (gt - 1.0 / gt) ** 2
    k_diag = spectrum_2jz(gd, ms)
    a = dim // 2
    n2 = np.empty(dim - 1)
    n2[a - 1] = max((c - gd.C1 * phi[a]) / _c2_casimir(gd), 0.0)
    for i in range(a, dim - 1):
        n2[i] = n2[i - 1] - k_diag[i]
    for i in range(a - 2, -1, -1):
        n2[i] = n2[i + 1] + k_diag[i + 1]
    return n2


def complex_pairs(matrix):
    """Row-major [re, im] pairs of a dense complex matrix, as nested lists."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def _maxabs(a, lo, hi):
    block = a[lo:hi, lo:hi]
    return float(np.abs(block).max()) if block.size else 0.0


def verify_algebra(jz, jp, jm, ms, d, c) -> AlgebraReport:
    ms = np.asarray(ms, dtype=float)
    n = len(ms)
    bottom = math.sqrt(max(c - qnumber(ms[0] - 0.5, d) ** 2, 0.0))
    top = math.sqrt(max(c - qnumber(ms[-1] + 0.5, d) ** 2, 0.0))
    closed = max(bottom, top) < CLOSURE_TOL
    buf = 0 if closed else EDGE_BUFFER
    lo, hi = buf, n - buf
    if hi <= lo:
        raise ValueError(f"basis of size {n} leaves no interior rows at buffer {buf}")

    eye = np.eye(n)
    res1 = max(
        _maxabs(jz @ jp - jp @ jz - jp, lo, hi),
        _maxabs(jz @ jm - jm @ jz + jm, lo, hi),
    )
    res2 = _maxabs(jp @ jm - jm @ jp - np.diag(bracket_sequence(ms, d)), lo, hi)

    br_half = qnumber(0.5, d)
    up = np.diag(qnumber(ms + 0.5, d) ** 2)
    down = np.diag(qnumber(ms - 0.5, d) ** 2)
    cas_a = up + jm @ jp
    cas_b = down + jp @ jm
    anti = (jp @ jm + jm @ jp) / 2.0
    cas_sym = d.cos_s * np.diag(qnumber(ms, d) ** 2) + anti + br_half**2 * eye

    res_cas = max(_maxabs(cas_a - c * eye, lo, hi), _maxabs(cas_b - c * eye, lo, hi))
    forms_dev = max(_maxabs(cas_a - cas_b, lo, hi), _maxabs(cas_a - cas_sym, lo, hi))

    lo2, hi2 = (lo + 1, hi - 1) if not closed else (lo, hi)
    commutes = 0.0
    if hi2 > lo2:
        for x in (jz, jp, jm):
            commutes = max(commutes, _maxabs(cas_b @ x - x @ cas_b, lo2, hi2))

    shift = 1.0 / (4.0 * math.cos(d.s / 2.0) ** 2)
    mae = c * eye - d.cos_s * np.diag(qnumber(ms, d) ** 2) - anti
    mae_dev = _maxabs(mae - shift * eye, lo, hi)
    if abs(math.sin(2.0 * d.s)) > 1e-12:
        br_2s = np.sin(2.0 * d.s * ms) / math.sin(2.0 * d.s)
        mae2 = c * eye - d.cos_s * np.diag(br_2s**2) - anti
        mae2_dev = _maxabs(mae2 - shift * eye, lo, hi)
    else:
        mae2_dev = float("nan")

    return AlgebraReport(
        res_jz_jpm=res1,
        res_jp_jm=res2,
        res_casimir=res_cas,
        hermiticity=float(np.abs(jm - jp.conj().T).max()),
        casimir_forms_dev=forms_dev,
        casimir_commutes=commutes,
        maekawa_shift_dev=mae_dev,
        maekawa_2s_dev=mae2_dev,
        closed=closed,
        interior_buffer=buf,
    )


def casimir_gen(gd, jp, jm, g):
    gt = np.real(np.diag(g))
    quad = np.diag((gt - 1.0 / gt) ** 2)
    return gd.C1 * quad + _c2_casimir(gd) * (jp @ jm)


def conjugation_residual(gd, jp, g):
    n = jp.shape[0]
    f = np.real(np.diag(g)) ** 2 * math.sqrt(gd.q1)
    res = np.diag(f) @ jp @ np.diag(1.0 / f) - gd.q1 * jp
    lo, hi = EDGE_BUFFER, n - EDGE_BUFFER
    return float(np.abs(res[lo:hi, lo:hi]).max())


def hopf_axiom_report(gd, jz, jp, jm, g_tilde) -> HopfReport:
    """Hopf residuals from explicit Kronecker products of dense matrices."""
    g = gd.q1**0.25 * g_tilde
    ginv = np.diag(1.0 / np.diag(g))
    n = jp.shape[0]

    def kron3(a, b, c):
        return np.kron(np.kron(a, b), c)

    d_jp = np.kron(jp, ginv) + np.kron(g, jp)
    d_jm = np.kron(jm, ginv) + np.kron(g, jm)
    d_g = np.kron(g, g)
    d_ginv = np.kron(ginv, ginv)

    coassoc_g = float(np.abs(kron3(g, g, g) - kron3(g, g, g)).max())
    lhs = np.kron(d_jp, ginv) + kron3(g, g, jp)
    rhs = np.kron(jp, d_ginv) + np.kron(g, d_jp)
    coassoc_jp = float(np.abs(lhs - rhs).max())

    counit_jp = float(np.abs(0.0 * ginv + 1.0 * jp - jp).max())
    counit_g = float(np.abs(1.0 * g - g).max())

    keep = np.zeros(n, dtype=bool)
    keep[EDGE_BUFFER : n - EDGE_BUFFER] = True

    def interior_max(a, idx):
        sub = a[np.ix_(idx, idx)]
        return float(np.abs(sub).max()) if sub.size else 0.0

    anti_full = -(1.0 / gd.q1) * jp @ ginv + ginv @ jp
    anti_half = -(1.0 / math.sqrt(gd.q1)) * jp @ ginv + ginv @ jp
    idx1 = np.where(keep)[0]

    hom = (d_jp @ d_jm - d_jm @ d_jp) - 2.0 * (d_g @ d_g - d_ginv @ d_ginv) / gd.h
    idx2 = np.where(np.kron(keep, keep))[0]

    comm = jp @ jm - jm @ jp - np.diag(spectrum_2jz(gd, np.real(np.diag(jz))))

    return HopfReport(
        coassoc_g=coassoc_g,
        coassoc_jp=coassoc_jp,
        counit_jp=counit_jp,
        counit_g=counit_g,
        antipode_full=interior_max(anti_full, idx1),
        antipode_half=interior_max(anti_half, idx1),
        comult_homomorphism=interior_max(hom, idx2),
        conjugation=conjugation_residual(gd, jp, g_tilde),
        commutator_defect=interior_max(comm, idx1),
    )


def flow_crossings(m_vals, s, vals, tol):
    """Curve crossings of spectral_flow, one curve pair at a time."""
    crossings = []
    for i in range(len(m_vals)):
        for j in range(i + 1, len(m_vals)):
            diff = vals[i] - vals[j]
            sign_change = np.nonzero(np.sign(diff[:-1]) * np.sign(diff[1:]) < 0)[0]
            for k in sign_change:
                # linear interpolation of the crossing location
                t = diff[k] / (diff[k] - diff[k + 1])
                crossings.append((float(s[k] + t * (s[k + 1] - s[k])), m_vals[i], m_vals[j]))
            touch = np.nonzero(np.abs(diff) <= tol)[0]
            for k in touch:
                crossings.append((float(s[k]), m_vals[i], m_vals[j]))
    crossings.sort()
    return tuple(crossings)


def components(mask) -> int:
    """Maximal unmasked runs, counted by a scan (level_section)."""
    count = 0
    prev = True
    for bad in mask:
        if not bad and prev:
            count += 1
        prev = bad
    return count


def cells(mask):
    """Maximal unmasked index runs [(lo, hi), ...), hi exclusive (_cells)."""
    out = []
    n = len(mask)
    i = 0
    while i < n:
        if not mask[i]:
            j = i
            while j < n and not mask[j]:
                j += 1
            out.append((i, j))
            i = j
        else:
            i += 1
    return out


def csv_text(header, rows) -> str:
    """write_csv's file text, one fmt call per cell."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _orbit_valid(d, c, m0, N) -> bool:
    """All interior ladder moves of the orbit m0..m0+N stay unitary."""
    for l in range(N):
        if c - qnumber(m0 + l + 0.5, d) ** 2 < -1e-12 * max(1.0, c):
            return False
    return True


def finite_orbit_candidates(d, n_max=None) -> tuple:
    """(N, c = [(N+1)/2]^2) whose orbit -N/2 .. N/2 is valid, one scalar
    radicand at a time (finite_orbit_candidates)."""
    if n_max is None:
        n_max = int(math.ceil(2.0 * math.pi / d.s)) + 4
    out = []
    for N in range(1, n_max + 1):
        c = qnumber((N + 1) / 2.0, d) ** 2
        if c <= 0.0:
            continue
        if _orbit_valid(d, c, -N / 2.0, N):
            out.append((N, c))
    return tuple(out)


def disconnected(c: float, s: float) -> bool:
    """The section at (c, s) has gaps: cos s > 0 and c sin^2 s < cos s
    (radicand negative at sin^2(s Jz) = 1)."""
    return math.cos(s) > 0.0 and c * math.sin(s) ** 2 < math.cos(s)


def topology_transition(c: float, s_grid):
    """The midpoint of the first grid step where `disconnected` flips, one
    scalar test per grid point (topology_transition); None without a flip."""
    s = np.asarray(s_grid, dtype=float)
    flags = [disconnected(c, si) for si in s.tolist()]
    for i in range(len(flags) - 1):
        if flags[i] != flags[i + 1]:
            return 0.5 * (s[i] + s[i + 1])
    return None


def lag_correlations(values, step, base_period, max_periods=10, clip_percentile=40.0) -> dict:
    """lag -> Pearson correlation over the pairwise-valid samples, one lag at
    a time, for every lag commensurability_peak scans that has at least 200
    pairs and non-zero variance."""
    v = np.asarray(values, dtype=float)
    thr = np.nanpercentile(np.abs(v), clip_percentile)
    w = np.where(np.abs(v) > thr, np.nan, v)
    w = w - np.nanmean(w)
    n = len(w)
    lag_lo = max(1, int(round(0.5 * base_period / step)))
    lag_hi = min(n - 2, int(round(max_periods * base_period / step)))
    out = {}
    for lag in range(lag_lo, lag_hi + 1):
        a, b = w[:-lag], w[lag:]
        ok = np.isfinite(a) & np.isfinite(b)
        if int(ok.sum()) < 200:
            continue
        aa = a[ok] - a[ok].mean()
        bb = b[ok] - b[ok].mean()
        den = math.sqrt(float(np.sum(aa * aa)) * float(np.sum(bb * bb)))
        if den == 0.0:
            continue
        out[lag] = float(np.sum(aa * bb)) / den
    return out


def commensurability_peak(values, step, base_period, max_periods=10, clip_percentile=40.0):
    """(peak, lag * step) of the lag loop: the earliest lag with the largest
    correlation, (-1.0, 0.0) when no lag qualifies."""
    best, best_lag = -1.0, 0
    for lag, rho in lag_correlations(values, step, base_period, max_periods, clip_percentile).items():
        if rho > best:
            best, best_lag = rho, lag
    return best, best_lag * step
