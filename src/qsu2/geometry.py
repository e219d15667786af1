"""Casimir level-set sections and the spectral flow of [2m] against s.

In the formal (J_x, J_y, J_z) space the constant-Casimir condition reads
cos(s) sin^2(s J_z)/sin^2(s) + J_x^2 + J_y^2 = c.  On the J_y = 0 section
J_x = sqrt(c - cos(s) sin^2(s J_z)/sin^2 s) wherever the radicand is
non-negative.  For cos s <= 0 the section is a single connected curve;
for cos s > 0 it breaks into periodic islands once c < cos(s)/sin^2(s),
the transition that mirrors the compact/non-compact change of the
underlying symmetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

CROSSING_TOL = 1e-9


@dataclass(frozen=True)
class LevelSection:
    jz: np.ndarray
    jx: np.ndarray  # NaN where masked
    mask: np.ndarray  # True where the radicand is negative (no section point)
    connectivity: str  # "Connected" | "Disconnected"
    components: int  # maximal unmasked runs in the window


@dataclass(frozen=True)
class FlowTable:
    s_grid: np.ndarray
    m_values: np.ndarray
    values: np.ndarray  # shape (len(m_values), len(s_grid))
    crossing_columns: dict  # "s", "m_low", "m_high" -> float64 arrays, sorted by (s, m_low, m_high)

    @cached_property
    def crossings(self) -> tuple:
        """The crossings as (s, m_low, m_high) triples."""
        return tuple(zip(*(self.crossing_columns[k].tolist() for k in ("s", "m_low", "m_high"))))


def unmasked_runs(mask) -> tuple[np.ndarray, np.ndarray]:
    """Starts and (exclusive) ends of the maximal runs of False in mask."""
    # +1 where a run ends, -1 where one starts; the padding closes runs at both ends
    padded = np.concatenate(([True], np.asarray(mask, dtype=bool), [True]))
    edges = np.diff(padded.astype(np.int8))
    return np.flatnonzero(edges == -1), np.flatnonzero(edges == 1)


def level_section(d, c: float, jz_grid) -> LevelSection:
    """J_y = 0 section of the constant-Casimir surface at value c."""
    if c <= 0.0:
        raise ValueError("c must be positive")
    jz = np.asarray(jz_grid, dtype=float)
    radicand = c - d.cos_s * np.sin(d.s * jz) ** 2 / d.sin_s**2
    mask = radicand < 0.0
    jx = np.where(mask, np.nan, np.sqrt(np.maximum(radicand, 0.0)))
    return LevelSection(
        jz=jz,
        jx=jx,
        mask=mask,
        connectivity="Disconnected" if mask.any() else "Connected",
        components=len(unmasked_runs(mask)[0]),
    )


def topology_transition(c: float, s_grid):
    """Boundary s* between Disconnected and Connected sections on the grid.

    Returns None when the classification does not change over the grid.
    All s with cos s <= 0 classify Connected; when the transition lies in
    (0, pi/2) it satisfies c = cos(s*)/sin^2(s*) within grid resolution.
    A section exists only for c > 0, as in level_section.
    """
    if c <= 0.0:
        raise ValueError("c must be positive")
    s = np.asarray(s_grid, dtype=float)
    cos = np.cos(s)
    # gaps exist iff cos s > 0 and c sin^2 s < cos s (radicand negative at
    # sin^2(s Jz) = 1).  float_power squares with the C library's pow, as
    # math.sin(s) ** 2 does; sin * sin rounds differently on about 0.1 % of
    # points, which moves s* when c sits on the boundary
    flags = (cos > 0.0) & (c * np.float_power(np.sin(s), 2) < cos)
    change = np.nonzero(flags[:-1] != flags[1:])[0]
    if len(change) == 0:
        return None
    i = change[0]
    return 0.5 * (s[i] + s[i + 1])


def spectral_flow(m_max: float, s_grid) -> FlowTable:
    """Curves [2m](s) for m = 1/2, 1, ..., m_max with crossing detection.

    Crossings are sign changes of curve differences plus exact-touch points
    within CROSSING_TOL; each is reported as (s, m_low, m_high).
    """
    s = np.asarray(s_grid, dtype=float)
    if np.any(np.minimum(s % math.pi, math.pi - (s % math.pi)) < 1e-6):
        raise ValueError("s_grid must avoid multiples of pi by at least 1e-6")
    m_vals = np.arange(1, int(round(2 * m_max)) + 1, dtype=float) / 2.0
    vals = np.sin(2.0 * np.outer(m_vals, s)) / np.sin(s)

    # every pair (i, j > i) at once: the temporaries are O(M^2 S), the size of
    # the crossings the command writes
    low, high = np.triu_indices(len(m_vals), 1)
    diff = vals[low]
    diff -= vals[high]
    sign = np.sign(diff)
    cross = np.zeros(diff.shape, dtype=bool)
    np.less(sign[:, :-1] * sign[:, 1:], 0, out=cross[:, :-1])
    flat = diff.ravel()
    g = np.flatnonzero(cross)  # p * len(s) + k for a sign change between s[k] and s[k + 1]
    # linear interpolation of the crossing location
    t = flat[g] / (flat[g] - flat[g + 1])
    p, k = np.divmod(g, len(s))
    tp, tk = np.divmod(np.flatnonzero(np.abs(diff) <= CROSSING_TOL), len(s))
    at = np.concatenate((s[k] + t * (s[k + 1] - s[k]), s[tk]))
    pair = np.concatenate((p, tp))
    # sorted by s, then by pair index, which orders as (m_low, m_high) do.
    # Rows with equal keys hold equal triples, so neither sort need be
    # stable: an argsort on s (lexsort's pass over floats costs 4-5 times as
    # much), then a lexsort of the runs of equal s alone
    order = np.argsort(at)
    at = at[order]
    tied = np.flatnonzero(at[1:] == at[:-1])
    tied = np.union1d(tied, tied + 1)
    order[tied] = order[tied][np.lexsort((pair[order[tied]], at[tied]))]
    pair = pair[order]
    columns = {"s": at, "m_low": m_vals[low[pair]], "m_high": m_vals[high[pair]]}
    return FlowTable(s_grid=s, m_values=m_vals, values=vals, crossing_columns=columns)


def flow_bound_excess(table: FlowTable) -> float:
    """max over curves of |[2m](s)| sin(s) - 1; non-positive up to rounding."""
    return float((np.abs(table.values) * np.abs(np.sin(table.s_grid)) - 1.0).max())


def distinct_bracket_values(k: int) -> int:
    """Number of distinct [2m] values over m = 0..k at s = pi/(k+1)."""
    s = math.pi / (k + 1)
    vals = sorted(round(math.sin(2.0 * m * s) / math.sin(s), 9) for m in range(k + 1))
    out = 1
    for a, b in zip(vals, vals[1:]):
        if b - a > 1e-9:
            out += 1
    return out
