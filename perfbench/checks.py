"""Output checks: every file an operation writes is compared with values
the benchmark computes itself, from the closed forms, with numpy.

Nothing here calls into qsu2.  Values are compared with tolerances, not
digests, so a change of storage format that keeps the values still passes.
A failed comparison raises CheckFailed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal


class CheckFailed(Exception):
    pass


def expect(ok, what: str):
    if not ok:
        raise CheckFailed(what)


def close(a, b, what: str, rtol: float = 1e-12, atol: float = 0.0):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    expect(a.shape == b.shape, f"{what}: shape {a.shape} != {b.shape}")
    same_nan = np.isnan(a) == np.isnan(b)
    expect(same_nan.all(), f"{what}: NaN pattern differs")
    ok = np.isnan(a) | (np.abs(a - b) <= atol + rtol * np.abs(b))
    if not ok.all():
        i = int(np.argmin(ok.ravel()))
        raise CheckFailed(f"{what}: {a.ravel()[i]!r} != {b.ravel()[i]!r} at flat index {i}")


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    expect(lines, f"{path}: empty file")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def numeric_columns(path, header: list[str]) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        got = fh.readline().rstrip("\n").split(",")
    expect(got == header, f"{path}: header {got} != {header}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).reshape(-1, len(header))


def grid(start: float, step: float, count: int) -> np.ndarray:
    return start + step * np.arange(count)


def bracket(x, s: float):
    """[x] = sin(x s)/sin s."""
    return np.sin(np.asarray(x, dtype=float) * s) / math.sin(s)


# ----------------------------------------------------------------------
# classify


def rational_pi(s: float, max_den: int = 64, tol: float = 1e-9) -> bool:
    """s = pi p/l with l <= max_den.  By Legendre's theorem any fraction
    this close is a convergent, so a direct scan over l is equivalent."""
    x = s / math.pi
    return any(abs(x - round(x * l) / l) < tol for l in range(1, max_den + 1))


def finite_dims(s: float, c: float) -> list[int]:
    """N with c = [(N+1)/2]^2 (within 1e-9) whose orbit -N/2..N/2 is unitary."""
    n_max = int(math.ceil(2.0 * math.pi / s)) + 4
    out = []
    for n in range(1, n_max + 1):
        cn = float(bracket((n + 1) / 2.0, s)) ** 2
        if cn <= 0.0 or abs(c - cn) > 1e-9:
            continue
        interior = -n / 2.0 + np.arange(n) + 0.5
        if np.all(c - bracket(interior, s) ** 2 >= -1e-12 * max(1.0, c)):
            out.append(n)
    return out


def expected_classes(s: float, c: float) -> list[tuple[str, int | None]]:
    """(class, N) of every representation at (s, c), from the band edges."""
    if c <= 0.0:
        return []
    c0 = 1.0 / math.sin(s) ** 2
    c1 = 1.0 / (4.0 * math.sin(s / 2.0) ** 2)
    c2 = 1.0 / (4.0 * math.cos(s / 2.0) ** 2)
    if c > c0:
        return [("Continuous1", None)]
    if abs(c - c1) <= 1e-9 * max(1.0, c1):
        return [("Singlet2c", 0)]
    if c1 < c <= c0:
        mixed = [("Mixed2a", None)] if rational_pi(s) else []
        return mixed + [("Finite2b", n) for n in finite_dims(s, c)]
    if s < math.pi / 2.0 and c2 < c < c1:
        return [("Discrete3", n) for n in finite_dims(s, c) if 0 < n < math.pi / s - 2.0]
    return []


def check_classify(outdir: Path, s: float, cs) -> None:
    header, rows = read_csv(outdir / "classify.csv")
    expect(header == ["class", "c", "s", "N", "k", "m_first", "m_last", "m_rule"], "classify header")
    want = [(c, cls, n) for c in cs for cls, n in expected_classes(s, c)]
    expect(len(rows) == len(want), f"classify: {len(rows)} rows, expected {len(want)}")
    for row, (c, cls, n) in zip(rows, want):
        expect(row[0] == cls, f"classify: class {row[0]} != {cls} at c={c!r}")
        close(float(row[1]), c, "classify c", rtol=1e-15)
        close(float(row[2]), s, "classify s", rtol=1e-15)
        if n is not None and cls != "Mixed2a":
            expect(int(row[3]) == n, f"classify: N {row[3]} != {n} at c={c!r}")
        if cls in ("Finite2b", "Discrete3"):
            close([float(row[5]), float(row[6])], [-n / 2.0, n / 2.0], "classify m range")


# ----------------------------------------------------------------------
# rep: explicit matrices on the continuous series


def check_rep(outdir: Path, s: float, c: float, m0: float, n: int) -> None:
    payload = json.loads((outdir / "rep.json").read_text(encoding="utf-8"))
    ms = m0 + np.arange(n, dtype=float)
    close(payload["basis"], ms, "rep basis", rtol=0.0)
    coeff = np.sqrt(np.maximum(c - bracket(ms[:-1] + 0.5, s) ** 2, 0.0))
    jp = np.zeros((n, n))
    jp[np.arange(1, n), np.arange(n - 1)] = coeff
    want = {"Jz": np.diag(ms), "Jplus": jp, "Jminus": jp.T}
    scale = max(1.0, math.sqrt(abs(c)), float(np.abs(ms).max()))
    for name, ref in want.items():
        got = np.asarray(payload["matrices"][name], dtype=float)
        expect(got.shape == (n, n, 2), f"rep {name}: shape {got.shape}")
        close(got[..., 0], ref, f"rep {name} real part", rtol=1e-12, atol=1e-12 * scale)
        expect(not got[..., 1].any(), f"rep {name}: non-zero imaginary part")
    report = payload["report"]
    expect(report["closed"] is False and report["interior_buffer"] == 2, "rep: truncation flags")


# ----------------------------------------------------------------------
# hopf, geometric profile f = f0 q1^m


def check_hopf(outdir: Path, alpha: float, f0: float, c: float, what: str) -> None:
    q1 = (alpha - 1.0) / alpha
    if what in ("all", "window"):
        win = json.loads((outdir / "hopf_window.json").read_text(encoding="utf-8"))
        close([win["q1"], win["c"]], [q1, c], "hopf window q1/c", rtol=1e-15)
        expect(0.0 < win["f_min"] < win["f_max"], "hopf window: empty")
    if what in ("all", "spectrum"):
        tab = numeric_columns(outdir / "hopf_spectrum.csv", ["m", "value"])
        close(tab[:, 0], grid(-20.0, 1.0, 41), "hopf spectrum m", rtol=0.0)
        f = f0 * q1 ** tab[:, 0]
        close(tab[:, 1], 2.0 * (f - 1.0 / f) / (q1 - 1.0 / q1), "hopf spectrum [2J_z]", rtol=1e-11)
    if what in ("all", "axioms"):
        rep = json.loads((outdir / "hopf_axioms.json").read_text(encoding="utf-8"))
        close(rep["q1"], q1, "hopf q1", rtol=1e-15)
        # exact on the geometric profile: only rounding may remain
        tol = 1e-10 * max(1.0, c)
        for key in ("coassoc_g", "coassoc_jp", "counit_g", "counit_jp", "antipode_half",
                    "conjugation", "comult_homomorphism", "casimir_diag_drift"):
            expect(abs(rep[key]) <= tol, f"hopf {key} = {rep[key]!r} > {tol}")
        # S(J+) = -q^-1 J+ against the sqrt(f) realization leaves a real mismatch
        expect(rep["antipode_full"] > 1e-3, f"hopf antipode_full = {rep['antipode_full']!r}")


# ----------------------------------------------------------------------
# geometry


def check_flow(outdir: Path, m_max: float, s_grid) -> None:
    s = grid(*s_grid)
    m = np.arange(1, int(round(2 * m_max)) + 1, dtype=float) / 2.0
    vals = np.sin(2.0 * np.outer(m, s)) / np.sin(s)
    tab = numeric_columns(outdir / "flow.csv", ["s", "m", "value"])
    expect(len(tab) == vals.size, f"flow: {len(tab)} rows, expected {vals.size}")
    close(tab[:, 0], np.tile(s, len(m)), "flow s", rtol=0.0)
    close(tab[:, 1], np.repeat(m, len(s)), "flow m", rtol=0.0)
    close(tab[:, 2], vals.ravel(), "flow value", rtol=1e-12, atol=1e-12)

    i, j = np.triu_indices(len(m), k=1)
    diff = vals[i] - vals[j]
    pi, k = np.nonzero(np.sign(diff[:, :-1]) * np.sign(diff[:, 1:]) < 0)
    t = diff[pi, k] / (diff[pi, k] - diff[pi, k + 1])
    at = s[k] + t * (s[k + 1] - s[k])
    ti, tk = np.nonzero(np.abs(diff) <= 1e-9)
    want = np.array(
        sorted(zip(np.r_[m[i[pi]], m[i[ti]]], np.r_[m[j[pi]], m[j[ti]]], np.r_[at, s[tk]])),
        dtype=float,
    ).reshape(-1, 3)
    got = json.loads((outdir / "flow_crossings.json").read_text(encoding="utf-8"))
    got = np.array(sorted((x["m_low"], x["m_high"], x["s"]) for x in got), dtype=float).reshape(-1, 3)
    expect(len(got) == len(want), f"flow: {len(got)} crossings, expected {len(want)}")
    close(got, want, "flow crossings", rtol=1e-12, atol=1e-12)


def check_section(outdir: Path, c: float, s: float, jz_grid) -> None:
    tab = numeric_columns(outdir / "surface.csv", ["Jz", "Jx_plus", "Jx_minus", "mask"])
    jz = grid(*jz_grid)
    rad = c - math.cos(s) * np.sin(s * jz) ** 2 / math.sin(s) ** 2
    close(tab[:, 0], jz, "surface Jz", rtol=0.0)
    mask = tab[:, 3] == 1.0
    # points where the radicand is rounding-level zero may fall either way
    decided = np.abs(rad) > 1e-12 * max(1.0, c)
    expect(np.array_equal(mask[decided], (rad < 0.0)[decided]), "surface mask")
    jx = np.where(mask, np.nan, np.sqrt(np.maximum(rad, 0.0)))
    close(tab[:, 1], jx, "surface Jx_plus", rtol=1e-12, atol=1e-7)
    close(tab[:, 2], -jx, "surface Jx_minus", rtol=1e-12, atol=1e-7)


def check_transition(outdir: Path, c: float, s_grid) -> None:
    got = json.loads((outdir / "surface_transition.json").read_text(encoding="utf-8"))
    s = grid(*s_grid)
    flags = (np.cos(s) > 0.0) & (c * np.sin(s) ** 2 < np.cos(s))
    change = np.nonzero(flags[:-1] != flags[1:])[0]
    want = None if len(change) == 0 else 0.5 * (s[change[0]] + s[change[0] + 1])
    expect((got["s_star"] is None) == (want is None), "transition: existence")
    if want is not None:
        close(got["s_star"], want, "transition s_star", rtol=1e-13)
    close(got["c"], c, "transition c", rtol=0.0)


# ----------------------------------------------------------------------
# Schrodinger realization


def radial(s: float, f1_branch: str, f2_branch: str, r: np.ndarray):
    """f1, f1', f2, f2' of the README regimes (F = 1, no shifts) on the grid,
    and the (period, offset) of the f1 and f2 poles, or None when entire."""
    cs = math.cos(s)
    if f1_branch == "tan":
        k = math.sqrt(cs)
        f1, d1 = -np.tan(k * r) / k, -1.0 / np.cos(k * r) ** 2
        period = math.pi / k
        poles = (period, period / 2.0)
    elif f1_branch == "tanh":
        g = math.sqrt(-cs)
        f1, d1 = -np.tanh(g * r) / g, -1.0 / np.cosh(g * r) ** 2
        poles = None
    elif f1_branch == "constant":
        f1, d1 = np.full_like(r, 1.0 / math.sqrt(-cs)), np.zeros_like(r)
        poles = None
    else:
        raise ValueError(f1_branch)
    if f2_branch == "cosine":
        k = math.sqrt(cs)
        f2, d2 = 1.0 / np.cos(k * r), k * np.sin(k * r) / np.cos(k * r) ** 2
    elif f2_branch == "sech":
        g = math.sqrt(-cs)
        f2, d2 = 1.0 / np.cosh(g * r), -g * np.sinh(g * r) / np.cosh(g * r) ** 2
    elif f2_branch == "exponential":
        g = math.sqrt(-cs)
        f2, d2 = np.exp(g * r), g * np.exp(g * r)
    else:
        raise ValueError(f2_branch)
    return f1, d1, f2, d2, poles


def potential_terms(s: float, m: float, f1, d1, f2, d2, transform: str) -> np.ndarray:
    """The seven terms of V(r; m, s), one per row, exact-kappa convention."""
    kappa = math.cos((2.0 * m - 1.0) * s)
    if transform == "eliminate":
        t_tr = (kappa * f1) ** 2 / 4.0 + kappa * d1 / 2.0
    else:
        t_tr = d1 - f1**2
    b = lambda x: float(bracket(x, s))
    return np.array([
        t_tr,
        b(2 * m) * b(2 * m - 2) * f1**2 / 4.0,
        -f1 * f2 * b(2 * m - 1),
        -(d1 / 2.0) * b(2 * m),
        f2**2 + d2,
        np.full_like(f1, b(m) ** 2),
        np.full_like(f1, b(m - 0.5) ** 2),
    ])


def reference_potential(p: dict, grid_: tuple[float, float, int]):
    """(r, V, mask, samples on the mask edge, per-sample tolerance) for
    potential parameters p on the (start, step, count) grid."""
    start, step, count = grid_
    r = grid(start, step, count)
    f1, d1, f2, d2, poles = radial(p["s"], p["f1"], p["f2"], r)
    terms = potential_terms(p["s"], p["m"], f1, d1, f2, d2, p["transform"])
    mask = np.zeros(count, dtype=bool)
    near = np.zeros(count, dtype=bool)
    if poles is not None:
        period, offset = poles
        lo, hi = start - 2 * step, r[-1] + 2 * step
        for pole in offset + period * np.arange(math.ceil((lo - offset) / period),
                                                math.floor((hi - offset) / period) + 1):
            dist = np.abs(r - pole)
            mask |= dist <= 2 * step
            near |= np.abs(dist - 2 * step) <= 1e-9 * step
    tol = 1e-11 * np.abs(terms).sum(axis=0) + 1e-12
    return r, terms.sum(axis=0), mask, near, tol


def check_potential(outdir: Path, p: dict, grid_: tuple[float, float, int]) -> None:
    tab = numeric_columns(outdir / "potential.csv", ["r", "V", "mask"])
    r, v, mask, near, tol = reference_potential(p, grid_)
    expect(len(tab) == len(r), f"potential: {len(tab)} rows, expected {len(r)}")
    close(tab[:, 0], r, "potential r", rtol=0.0)
    got_mask = tab[:, 2] == 1.0
    expect(np.array_equal(got_mask[~near], mask[~near]), "potential mask")
    ok = (np.abs(tab[:, 1] - v) <= tol) | (np.isnan(tab[:, 1]) & np.isnan(v))
    expect(ok.all(), f"potential V differs from the closed form at {np.count_nonzero(~ok)} samples")


def cells(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal unmasked runs [lo, hi)."""
    edges = np.diff(np.r_[False, ~mask, False].astype(np.int8))
    return list(zip(np.nonzero(edges == 1)[0].tolist(), np.nonzero(edges == -1)[0].tolist()))


def hard_wall_levels(v: np.ndarray, h: float, lo: int, hi: int, n: int) -> np.ndarray:
    """Lowest n levels of -psi'' + V psi on [lo, hi) with psi = 0 at both
    ends, by bisection on a matrix assembled here from the reference V."""
    diag = 2.0 / h**2 + v[lo + 1 : hi - 1]
    off = np.full(len(diag) - 1, -1.0 / h**2)
    n = min(n, len(diag))
    return eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, n - 1), lapack_driver="stebz")


def check_spectrum(outdir: Path, v: np.ndarray, mask: np.ndarray, h: float, n: int, cell: str) -> None:
    header, rows = read_csv(outdir / "spectrum.csv")
    expect(header == ["cell", "k", "eigenvalue"], "spectrum header")
    got = {(row[0], int(row[1])): float(row[2]) for row in rows}
    runs = cells(mask)
    if cell == "all":
        chosen = list(enumerate(runs))
    else:
        chosen = [("largest", max(runs, key=lambda ab: ab[1] - ab[0]))]
    expect(len(got) == len(rows) == sum(min(n, hi - lo - 2) for _, (lo, hi) in chosen),
           "spectrum: row count")
    for label, (lo, hi) in chosen:
        ref = hard_wall_levels(v, h, lo, hi, n)
        scale = 4.0 / h**2 + float(np.abs(v[lo:hi]).max())
        for k, e in enumerate(ref):
            key = (str(label), k)
            expect(key in got, f"spectrum: missing cell {label} level {k}")
            # the same assembly and LAPACK routine agree to rounding of the matrix entries
            close(got[key], e, f"spectrum cell {label} level {k}", rtol=1e-12, atol=1e-14 * scale)


def read_potential_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    tab = numeric_columns(path, ["r", "V", "mask"])
    return tab[:, 0], tab[:, 1], tab[:, 2] == 1.0


def correlation_at(values: np.ndarray, lag_steps: int, clip_percentile: float = 40.0) -> float:
    """Pairwise-deletion autocorrelation of the mid-well part of V at one lag."""
    v = np.asarray(values, dtype=float)
    thr = np.percentile(np.abs(v), clip_percentile)
    w = np.where(np.abs(v) > thr, np.nan, v)
    w = w - np.nanmean(w)
    a, b = w[:-lag_steps], w[lag_steps:]
    ok = np.isfinite(a) & np.isfinite(b)
    aa, bb = a[ok] - a[ok].mean(), b[ok] - b[ok].mean()
    return float(np.sum(aa * bb) / math.sqrt(float(np.sum(aa * aa)) * float(np.sum(bb * bb))))


def check_commensurability(result, values, step: float, period: float, max_periods: int,
                           commensurate: bool) -> None:
    peak, lag = result
    lag_steps = int(round(lag / step))
    expect(round(0.5 * period / step) <= lag_steps <= round(max_periods * period / step),
           f"commensurability: lag {lag!r} outside the scanned range")
    close(peak, correlation_at(values, lag_steps), "commensurability peak", rtol=1e-9, atol=1e-12)
    expect((peak >= 0.95) == commensurate,
           f"commensurability: peak {peak:.4f} for a {'commensurate' if commensurate else 'incommensurate'} pair")
