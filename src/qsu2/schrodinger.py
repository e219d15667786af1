"""One-dimensional Schrodinger realization of the deformed algebra.

The differential realization J_+- = e^{+-i phi}(+-d_r + f1(r)[2 i d_phi]/2
+ f2(r)), J_z = -i d_phi closes the deformed commutators when f1 solves

    f1' = -1 - f1^2 cos(s)

and f2 couples to the radial eigenfunction; in the decoupled regimes
(|eta^2 [2m]| small) f2 solves cos(s) f1 f2 = -f2' independently.  Acting
with the Casimir on R(r) e^{i m phi} and removing the first-derivative
term by R = a(r) Psi(r) yields a Schrodinger problem (-d_r^2 + V) Psi =
c Psi whose potential V(r; m, s) runs from periodic wells (cos s > 0)
through a free/oscillator point (s = pi/2) to Poschl-Teller- and
Morse-like shapes (cos s < 0).

Conventions fixed here (see the term list in build_potential): the
first-derivative coefficient of the Casimir form is -kappa f1 with the
exact kappa = cos((2m-1) s); the regime approximations kappa = 1 and
kappa = (2 + (-1)^{m+1})/2 remain available as display modes.  The
assembled V carries the conventional [m]^2 term, which is not invariant under
m -> m +- 1; its value is stored as casimir_offset so ladder moves can
compare eigenvalues like for like.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .classify import rational_pi_fraction, unitary_ok
from .geometry import unmasked_runs
from .operators import _dir_sign
from .qnumbers import Deformation, qnumber

COS_ZERO_TOL = 1e-12
DECOUPLED_THRESHOLD = 0.05
POLE_MASK_STEPS = 2
MIN_CELL_SAMPLES = 200


@dataclass(frozen=True)
class RadialProfile:
    """A closed-form radial function with callable value and derivatives."""

    tag: str
    func: object  # r -> values
    deriv: object
    second: object
    antiderivative: object = None  # r -> values, zero at r = 0; f1 branches only

    def __call__(self, r):
        return self.func(np.asarray(r, dtype=float))


@dataclass(frozen=True)
class RealizationFns:
    """The (f1, f2) pair of a realization with its constants."""

    f1: RadialProfile
    f2: RadialProfile
    s: float
    m: float
    d1: float = 0.0
    d2: float = 0.0
    constants: dict = field(default_factory=dict)  # F1..F4 actually used


@dataclass(frozen=True)
class PotentialProfile:
    start: float
    step: float
    count: int
    values: np.ndarray
    pole_mask: np.ndarray  # True where the sample is excluded
    params: dict
    casimir_offset: float  # [m]^2 term, not invariant under the ladder
    terms: dict

    @property
    def r(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)


@dataclass(frozen=True)
class EigenResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None  # column k is the k-th state, L2-normalized; None if not asked for
    h: float
    boundary: str
    cell: tuple  # (start index, stop index) into the profile grid
    r: np.ndarray


@dataclass(frozen=True)
class LadderResult:
    psi: np.ndarray
    flagged: bool  # target m leaves the unitary region
    note: str = ""


def decoupled_ok(d: Deformation, m: float, threshold: float = DECOUPLED_THRESHOLD) -> bool:
    """Decoupled-regime declaration: |eta^2 [2m]| below threshold."""
    return abs(d.eta_sq * qnumber(2.0 * m, d)) < threshold


# ----------------------------------------------------------------------
# closed-form f1 / f2 branches, each defined once in its rate k = sqrt|cos s|:
# an f1 branch's forms take (r, k), an f2 branch's (r, k, F, shift)


@dataclass(frozen=True)
class Branch:
    value: object
    deriv: object
    second: object
    antiderivative: object = None  # f1 only, zero at r = 0
    lattice: object = None  # (k, shift) -> (period, offset): poles at offset + n period
    cos_sign: int = 0  # f1 only: the sign of cos s it needs (0: |cos s| <= COS_ZERO_TOL)
    pairs: tuple = ()  # f2 only: the f1 branches it solves against, its default partner first
    label: str = ""  # f2 only: the name of its constant F
    shift: str | None = None  # f2 only: the shift it takes, "d1" or "d2"


F1_BRANCHES = {
    "tan": Branch(
        lambda r, k: -np.tan(k * r) / k,
        lambda r, k: -1.0 / np.cos(k * r) ** 2,
        lambda r, k: -2.0 * k * np.tan(k * r) / np.cos(k * r) ** 2,
        antiderivative=lambda r, k: np.log(np.abs(np.cos(k * r))) / k**2,
        lattice=lambda k, shift: (math.pi / k, math.pi / (2.0 * k)), cos_sign=1,
    ),
    "tanh": Branch(
        lambda r, k: -np.tanh(k * r) / k,
        lambda r, k: -1.0 / np.cosh(k * r) ** 2,
        lambda r, k: 2.0 * k * np.tanh(k * r) / np.cosh(k * r) ** 2,
        antiderivative=lambda r, k: -np.log(np.cosh(k * r)) / k**2, cos_sign=-1,
    ),
    "constant": Branch(
        lambda r, k: np.full_like(r, 1.0 / k),
        lambda r, k: np.zeros_like(r),
        lambda r, k: np.zeros_like(r),
        antiderivative=lambda r, k: 1.0 / k * r, cos_sign=-1,
    ),
    "linear": Branch(
        lambda r, k: -r,
        lambda r, k: -np.ones_like(r),
        lambda r, k: np.zeros_like(r),
        antiderivative=lambda r, k: -0.5 * r**2,
    ),
}

# For the tan branch the f2 solution is the reciprocal cosine
# F/cos(k r + d2); a plain cosine does not satisfy the equation against the
# canonical f1.  A constant f2 is exact where cos s = 0 or F = 0, and is
# accepted against every f1.
F2_BRANCHES = {
    "sech": Branch(
        lambda r, k, F, shift: F / np.cosh(k * r + shift),
        lambda r, k, F, shift: -F * k * np.sinh(k * r + shift) / np.cosh(k * r + shift) ** 2,
        lambda r, k, F, shift: F * k**2 * (np.sinh(k * r + shift) ** 2 - 1.0) / np.cosh(k * r + shift) ** 3,
        pairs=("tanh",), label="F1", shift="d1",
    ),
    "exponential": Branch(
        lambda r, k, F, shift: F * np.exp(k * r),
        lambda r, k, F, shift: F * k * np.exp(k * r),
        lambda r, k, F, shift: F * k**2 * np.exp(k * r),
        pairs=("constant",), label="F2",
    ),
    "cosine": Branch(
        lambda r, k, F, shift: F / np.cos(k * r + shift),
        lambda r, k, F, shift: F * k * np.sin(k * r + shift) / np.cos(k * r + shift) ** 2,
        lambda r, k, F, shift: F * k**2 * (1.0 + np.sin(k * r + shift) ** 2) / np.cos(k * r + shift) ** 3,
        lattice=lambda k, shift: (math.pi / k, (math.pi / 2.0 - shift) / k),
        pairs=("tan",), label="F3", shift="d2",
    ),
    "constant": Branch(
        lambda r, k, F, shift: np.full_like(r, F),
        lambda r, k, F, shift: np.zeros_like(r),
        lambda r, k, F, shift: np.zeros_like(r),
        pairs=("linear", "tan", "tanh", "constant"), label="F4",
    ),
}

_COS_SIGN_TEXT = {1: "cos s > 0", -1: "cos s < 0", 0: "cos s = 0 (s = pi/2)"}


def _branch(table: dict, role: str, name: str) -> Branch:
    if name not in table:
        raise ValueError(f"unknown {role} branch {name!r}")
    return table[name]


def _rate(d: Deformation) -> float:
    """k = sqrt|cos s|, the rate every branch is written in."""
    return math.sqrt(abs(d.cos_s))


def solve_f1(d: Deformation, branch: str) -> RadialProfile:
    """Closed-form solution of f1' = -1 - f1^2 cos(s) with d = 0.

    Branches (F1_BRANCHES): "tan" (cos s > 0), "tanh" / "constant"
    (cos s < 0), "linear" (cos s = 0 within tolerance).  The canonical sign
    has f1(0) = 0, f1'(0) = -1 where applicable.
    """
    entry = _branch(F1_BRANCHES, "f1", branch)
    cs = d.cos_s
    if not (abs(cs) <= COS_ZERO_TOL if entry.cos_sign == 0 else cs * entry.cos_sign > 0.0):
        raise ValueError(f"{branch} branch requires {_COS_SIGN_TEXT[entry.cos_sign]}")
    forms = (entry.value, entry.deriv, entry.second, entry.antiderivative)
    return RadialProfile(branch, *(functools.partial(form, k=_rate(d)) for form in forms))


def canonical_f1(d: Deformation) -> RadialProfile:
    """The branch matching the sign of cos s, continuous in s at d = 0."""
    if abs(d.cos_s) <= COS_ZERO_TOL:
        return solve_f1(d, "linear")
    return solve_f1(d, "tan" if d.cos_s > 0.0 else "tanh")


def f1_residual(d: Deformation, f1: RadialProfile, r) -> np.ndarray:
    """Pointwise residual of f1' + 1 + f1^2 cos(s)."""
    r = np.asarray(r, dtype=float)
    return f1.deriv(r) + 1.0 + f1(r) ** 2 * d.cos_s


def solve_f2(d: Deformation, f1: RadialProfile, branch: str, F: float = 1.0, d_shift: float = 0.0) -> RadialProfile:
    """Closed-form solution of the decoupled equation cos(s) f1 f2 = -f2'.

    Branch pairing follows f1 (F2_BRANCHES): "sech" with tanh,
    "exponential" with constant, "cosine" with tan, "constant" with linear
    (and, inexactly, any other).  d_shift shifts the argument of sech and
    cosine; a non-zero d_shift on another branch is a ValueError.
    """
    entry = _branch(F2_BRANCHES, "f2", branch)
    if f1.tag not in entry.pairs:
        raise ValueError(f"{branch} branch pairs with the {entry.pairs[0]} f1 branch")
    if d_shift != 0.0 and entry.shift is None:
        raise ValueError(f"the {branch} branch takes no shift, got {d_shift!r}")
    forms = (entry.value, entry.deriv, entry.second)
    return RadialProfile(branch, *(functools.partial(form, k=_rate(d), F=F, shift=d_shift) for form in forms))


def f2_residual(d: Deformation, f1: RadialProfile, f2: RadialProfile, r) -> np.ndarray:
    """Pointwise residual of cos(s) f1 f2 + f2' (valid where f2 is a
    decoupled-regime solution; the constant branch needs cos s = 0 or
    F = 0 to be exact)."""
    r = np.asarray(r, dtype=float)
    return d.cos_s * f1(r) * f2(r) + f2.deriv(r)


# ----------------------------------------------------------------------
# transform and potential assembly


def kappa_for(d: Deformation, m: float, mode: str = "exact") -> float:
    """First-derivative coefficient factor: the operator carries -kappa f1 d_r.

    "exact" reads kappa off the expanded Casimir form, cos((2m-1) s);
    "unit" and "parity" are the fixed regime display constants (1, and
    (2 + (-1)^{m+1})/2 on integer m).
    """
    if mode == "exact":
        return math.cos((2.0 * m - 1.0) * d.s)
    if mode == "unit":
        return 1.0
    if mode == "parity":
        if abs(m - round(m)) > 1e-9:
            raise ValueError("parity mode requires integer m")
        return (2.0 + (-1.0) ** (int(round(m)) + 1)) / 2.0
    raise ValueError(f"unknown kappa mode {mode!r}")


def liouville_factor(f1: RadialProfile, grid, kappa: float = 1.0, mode: str = "eliminate"):
    """Transform factor a(r) with R = a Psi, normalized to a = 1 at the grid center.

    "eliminate" (default) solves 2 a' + kappa f1 a = 0, removing the
    first-derivative coefficient -kappa f1 of the operator; "literal" is
    the unscaled form a = a0 exp(-int f1 dr), kept for comparison.
    """
    r = np.asarray(grid, dtype=float)
    if f1.antiderivative is None:
        raise ValueError(f"no antiderivative for f1 branch {f1.tag!r}")
    anti = f1.antiderivative(r)
    center = anti[len(r) // 2]
    if mode == "eliminate":
        expo = -0.5 * kappa * (anti - center)
    elif mode == "literal":
        expo = -(anti - center)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return np.exp(expo)


def transform_term(f1: RadialProfile, kappa: float, r) -> np.ndarray:
    """Potential contribution of eliminating the -kappa f1 d_r term:
    (kappa f1)^2/4 + kappa f1'/2."""
    r = np.asarray(r, dtype=float)
    v = f1(r)
    return (kappa * v) ** 2 / 4.0 + kappa * f1.deriv(r) / 2.0


def realization(
    d: Deformation,
    m: float,
    f1_branch: str | None = None,
    f2_branch: str | None = None,
    F: float = 1.0,
    d1: float = 0.0,
    d2: float = 0.0,
) -> RealizationFns:
    """Assemble the canonical (f1, f2) pair for (s, m); branches default to
    the sign of cos s, and f2 to the branch that pairs with f1 first.  A
    non-zero d1 or d2 that the f2 branch does not take is a ValueError."""
    f1 = canonical_f1(d) if f1_branch is None else solve_f1(d, f1_branch)
    if f2_branch is None:
        f2_branch = next(name for name, b in F2_BRANCHES.items() if b.pairs[0] == f1.tag)
    entry = _branch(F2_BRANCHES, "f2", f2_branch)
    shifts = {"d1": d1, "d2": d2}
    for flag, value in shifts.items():
        if value != 0.0 and flag != entry.shift:
            taker = next(name for name, b in F2_BRANCHES.items() if b.shift == flag)
            raise ValueError(f"{flag} = {value!r} has no effect on the {f2_branch} f2 branch; only {taker} takes {flag}")
    f2 = solve_f2(d, f1, f2_branch, F=F, d_shift=shifts.get(entry.shift, 0.0))
    return RealizationFns(f1=f1, f2=f2, s=d.s, m=m, d1=d1, d2=d2, constants={entry.label: F})


# an overflowing profile or term is recorded as inf or NaN, which the solvers refuse
@np.errstate(over="ignore", invalid="ignore")
def build_potential(
    d: Deformation,
    m: float,
    fns: RealizationFns,
    grid=(-6.0, 1e-3, 12001),
    kappa_mode: str = "exact",
    f1_derivative_form: str = "first",
    transform: str = "eliminate",
) -> PotentialProfile:
    """Assemble V(r; m, s) term by term.

    Terms: the transform term for -kappa f1 d_r, [2m][2m-2] f1^2/4,
    -f1 f2 [2m-1], -(f1'/2)[2m] (or the f1'' variant), f2^2 + f2',
    [m]^2, and [m-1/2]^2.  Samples within POLE_MASK_STEPS grid steps of a
    pole of f1 or of the shifted f2 are masked, each distinct pole lattice
    once.

    transform = "eliminate" (default) eliminates the first-derivative
    coefficient exactly; "literal" uses -a''/a with a = exp(-int f1 dr),
    the variant behind the characteristic figure shapes (wells turning
    into positive poles with growing m) but leaving a first-derivative
    remainder in the operator.
    """
    start, step, count = float(grid[0]), float(grid[1]), int(grid[2])
    r = start + step * np.arange(count)
    f1v = fns.f1(r)
    f2v = fns.f2(r)

    kappa = kappa_for(d, m, kappa_mode)
    br = lambda x: qnumber(x, d)
    if transform == "eliminate":
        t_transform = transform_term(fns.f1, kappa, r)
    elif transform == "literal":
        # -a''/a for a = exp(-int f1): f1' - f1^2
        t_transform = fns.f1.deriv(r) - f1v**2
    else:
        raise ValueError(f"unknown transform {transform!r}")
    t_f1sq = br(2.0 * m) * br(2.0 * m - 2.0) * f1v**2 / 4.0
    t_f1f2 = -f1v * f2v * br(2.0 * m - 1.0)
    if f1_derivative_form == "first":
        t_f1der = -(fns.f1.deriv(r) / 2.0) * br(2.0 * m)
    elif f1_derivative_form == "second":
        t_f1der = -(fns.f1.second(r) / 2.0) * br(2.0 * m)
    else:
        raise ValueError(f"unknown f1_derivative_form {f1_derivative_form!r}")
    t_f2 = f2v**2 + fns.f2.deriv(r)
    offset = br(m) ** 2
    t_const = offset + br(m - 0.5) ** 2

    values = t_transform + t_f1sq + t_f1f2 + t_f1der + t_f2 + t_const

    # the poles offset + n period of f1 and of the shifted f2, each distinct lattice once
    shifts = {"d1": fns.d1, "d2": fns.d2}
    entries = (F1_BRANCHES.get(fns.f1.tag), F2_BRANCHES.get(fns.f2.tag))  # none for an unnamed profile
    lattices = {b.lattice(_rate(d), shifts.get(b.shift, 0.0)) for b in entries if b and b.lattice}
    half = POLE_MASK_STEPS * step
    mask = np.zeros(count, dtype=bool)
    for period, offset in lattices:
        n = np.arange(math.ceil((start - half - offset) / period), math.floor((r[-1] + half - offset) / period) + 1)
        for p in offset + period * n:
            mask |= np.abs(r - p) <= half

    return PotentialProfile(
        start=start,
        step=step,
        count=count,
        values=values,
        pole_mask=mask,
        params={
            "s": d.s,
            "m": m,
            "f1_branch": fns.f1.tag,
            "f2_branch": fns.f2.tag,
            "constants": dict(fns.constants),
            "d1": fns.d1,
            "d2": fns.d2,
            "kappa": kappa,
            "kappa_mode": kappa_mode,
            "f1_derivative_form": f1_derivative_form,
            "transform": transform,
            "grid": [start, step, count],
        },
        casimir_offset=float(offset),
        terms={
            "transform": t_transform,
            "f1_square": t_f1sq,
            "f1_f2": t_f1f2,
            "f1_derivative": t_f1der,
            "f2_terms": t_f2,
        },
    )


# ----------------------------------------------------------------------
# eigensolver


def _cells(mask: np.ndarray):
    """Maximal unmasked index runs [(lo, hi), ...), hi exclusive."""
    starts, ends = unmasked_runs(mask)
    return list(zip(starts.tolist(), ends.tolist()))


def _cell_bounds(p: PotentialProfile, cell: str | int = "largest") -> tuple:
    """The (lo, hi) sample range of a well: the largest unmasked run, or
    the run with index cell; ValueError for an index outside the runs."""
    runs = _cells(p.pole_mask)
    if not runs:
        raise ValueError("grid fully masked")
    if cell == "largest":
        return max(runs, key=lambda ab: ab[1] - ab[0])
    k = int(cell)
    if not 0 <= k < len(runs):
        raise ValueError(f"cell {k} is out of range: the grid has {len(runs)} cells (0 to {len(runs) - 1})")
    return runs[k]


def solvable_cells(p: PotentialProfile) -> tuple:
    """The wells "all" solves: the indices of the runs of at least
    MIN_CELL_SAMPLES samples, and of the shorter ones; ValueError when no
    run is that long."""
    sizes = [hi - lo for lo, hi in _cells(p.pole_mask)]
    cells = [k for k, size in enumerate(sizes) if size >= MIN_CELL_SAMPLES]
    if not cells:
        raise ValueError(f"no cell has >= {MIN_CELL_SAMPLES} samples (the grid has {len(sizes)} cells)")
    return cells, [k for k, size in enumerate(sizes) if size < MIN_CELL_SAMPLES]


def eigensolve(
    p: PotentialProfile, n_states: int, cell: str | int = "largest", vectors: bool = True
) -> EigenResult:
    """Lowest n_states of the central-difference discretization, hard walls.

    The walls sit at the outermost samples of the cell (psi pinned to zero
    there), so the well geometry is independent of the step and halving h
    refines at second order.  On masked grids each contiguous unmasked run
    is an independent well; cell selects which one ("largest" or an index
    into the run list).  With vectors=False only the eigenvalues are
    computed (the same values) and eigenvectors is None.
    """
    lo, hi = _cell_bounds(p, cell)
    if hi - lo < MIN_CELL_SAMPLES:
        raise ValueError(f"cell has {hi - lo} samples; need >= {MIN_CELL_SAMPLES}")
    h = p.step
    v = p.values[lo + 1 : hi - 1]  # unknowns exclude the wall samples
    n = hi - lo - 2
    diag = 2.0 / h**2 + v
    off = np.full(n - 1, -1.0 / h**2)
    n_states = min(n_states, n)
    from scipy.linalg import eigh_tridiagonal  # not at the top: scipy is most of `import qsu2.cli`
    found = eigh_tridiagonal(diag, off, eigvals_only=not vectors, select="i", select_range=(0, n_states - 1))
    if vectors:
        w, vecs = found
        full = np.zeros((hi - lo, vecs.shape[1]))
        full[1:-1, :] = vecs
        full = full / np.sqrt(h * np.sum(full**2, axis=0))
    else:
        w, full = found, None
    r = p.r[lo:hi]
    return EigenResult(
        eigenvalues=w, eigenvectors=full, h=h, boundary="hard-wall", cell=(lo, hi), r=r
    )


def eigen_discretization_error(p: PotentialProfile, state: int, cell="largest") -> float:
    """Richardson estimate of the h^2 eigenvalue error: (4/3)|c_h - c_{h/2}|."""
    res_h = eigensolve(p, state + 1, cell, vectors=False)
    fine = _refine_profile(p)
    res_h2 = eigensolve(fine, state + 1, cell, vectors=False)
    return 4.0 / 3.0 * abs(res_h.eigenvalues[state] - res_h2.eigenvalues[state])


def _refine_profile(p: PotentialProfile) -> PotentialProfile:
    """Rebuild the profile at half the step from its stored parameters."""
    pr = p.params
    d = Deformation(pr["s"])
    fns = realization(
        d,
        pr["m"],
        f1_branch=pr["f1_branch"],
        f2_branch=pr["f2_branch"],
        F=next(iter(pr["constants"].values())) if pr["constants"] else 1.0,
        d1=pr["d1"],
        d2=pr["d2"],
    )
    start, step, count = pr["grid"]
    return build_potential(
        d,
        pr["m"],
        fns,
        grid=(start, step / 2.0, 2 * count - 1),
        kappa_mode=pr["kappa_mode"],
        f1_derivative_form=pr["f1_derivative_form"],
        transform=pr.get("transform", "eliminate"),
    )


# ----------------------------------------------------------------------
# ladder and coupled-mode machinery


def ladder_apply(
    psi: np.ndarray,
    d: Deformation,
    fns: RealizationFns,
    m: float,
    direction,
    r: np.ndarray,
    kappa_mode: str = "exact",
    c: float | None = None,
) -> LadderResult:
    """First-order ladder map between neighbouring-m Schrodinger problems.

    Maps psi into the source R frame (R = a_m psi), applies
    +- R' + (-(f1/2)[2m] + f2) R with central differences, and transforms
    back with the target factor a_{m +- 1}.  If c is given, the move is
    flagged when (c, m +- 1) leaves the unitary region.
    """
    sign = _dir_sign(direction)
    r = np.asarray(r, dtype=float)
    h = r[1] - r[0]
    a_src = liouville_factor(fns.f1, r, kappa_for(d, m, kappa_mode))
    a_dst = liouville_factor(fns.f1, r, kappa_for(d, m + sign, kappa_mode))
    big_r = a_src * psi
    dr = np.zeros_like(big_r)
    dr[1:-1] = (big_r[2:] - big_r[:-2]) / (2.0 * h)
    dr[0] = (big_r[1] - big_r[0]) / h
    dr[-1] = (big_r[-1] - big_r[-2]) / h
    coeff = -(fns.f1(r) / 2.0) * qnumber(2.0 * m, d) + fns.f2(r)
    new_r = sign * dr + coeff * big_r
    psi_new = new_r / a_dst

    flagged = c is not None and not unitary_ok(d, c, m + sign)
    note = f"target m = {m + sign} leaves the unitary region at c = {c}" if flagged else ""
    return LadderResult(psi=psi_new, flagged=flagged, note=note)


def ladder_residual(
    psi_new: np.ndarray,
    target: PotentialProfile,
    c_expected: float,
    cell=(None, None),
    buffer: int = 3,
) -> float:
    """L2 residual ||(-D^2 + V_target) psi' - c psi'|| / ||psi'|| on interior rows."""
    lo, hi = cell
    v = target.values[lo:hi] if lo is not None else target.values
    h = target.step
    psi = np.asarray(psi_new, dtype=float)
    n = len(psi)
    hp = np.empty(n)
    hp[1:-1] = (-psi[2:] + 2.0 * psi[1:-1] - psi[:-2]) / h**2 + v[1:-1] * psi[1:-1]
    sl = slice(buffer, n - buffer)
    res = hp[sl] - c_expected * psi[sl]
    norm = math.sqrt(h * float(np.sum(psi[sl] ** 2)))
    if norm == 0.0:
        return 0.0
    return math.sqrt(h * float(np.sum(res**2))) / norm


def ladder_shift(d: Deformation, m: float, direction) -> float:
    """Casimir-offset bookkeeping for a ladder move: [m +- 1]^2 - [m]^2."""
    sign = _dir_sign(direction)
    return qnumber(m + sign, d) ** 2 - qnumber(m, d) ** 2


@dataclass(frozen=True)
class CoupledResult:
    r: np.ndarray
    big_r: np.ndarray  # radial solution, log-rescaled to R(center) = 1
    c_estimate: float
    residual: float
    success: bool
    integrand_ratio: float  # alternative closed-form exponent integrand over A, = eta^2 [2m]


def coupled_solve(
    d: Deformation,
    m: float,
    f2: RadialProfile,
    grid,
    f1: RadialProfile | None = None,
) -> CoupledResult:
    """General-coupling construction: R from R' = A(r) R, then c(r) = (C R)/R.

    A collects the coupling of f2 to the radial function; R is integrated
    in log space from the grid center with R(center) = 1.  The full
    Casimir form is applied to R and the deviation of c(r) from its median
    on the interior is the residual; success means residual <
    1e-4 (1 + |c|).  Preconditions: s/pi irrational (no root of unity) and
    [2m] != 0.
    """
    if rational_pi_fraction(d.s) is not None:
        raise ValueError(f"s = {d.s!r} is a rational multiple of pi (root of unity)")
    br2m = qnumber(2.0 * m, d)
    if abs(br2m) < 1e-9:
        raise ValueError(f"[2m] = {br2m!r} vanishes; coupled construction undefined")
    if f1 is None:
        f1 = canonical_f1(d)

    r = np.asarray(grid, dtype=float)
    h = r[1] - r[0]
    f1v, f2v, f2p = f1(r), f2(r), f2.deriv(r)
    br = lambda x: qnumber(x, d)
    br2, brm = br(2.0), br(m)
    eta2 = d.eta_sq

    with np.errstate(divide="ignore", invalid="ignore"):
        a_vals = (
            br2 / 2.0 * brm**2 * f1v
            - br2 * (2.0 / (eta2 * br2m) + brm**2 / br2m) * f2v
            - 4.0 / (eta2 * br2m) * f2p / f1v
        )
    # f2'/f1 is 0/0 at zeros of f1 for the paired branches; fill the
    # removable points from neighbours
    bad = ~np.isfinite(a_vals) & (np.abs(f1v) < 1e-8)
    if bad.any():
        a_vals[bad] = np.interp(r[bad], r[~bad], a_vals[~bad])
    if not np.all(np.isfinite(a_vals)):
        raise FloatingPointError("A(r) is not finite on the grid (f1 pole?)")

    # log-space integration of R' = A R, anchored R(center) = 1
    mid = len(r) // 2
    cum = np.concatenate(([0.0], np.cumsum((a_vals[1:] + a_vals[:-1]) / 2.0 * h)))
    log_r = cum - cum[mid]
    if not np.all(np.isfinite(log_r)):
        raise FloatingPointError("log R overflowed")
    big_r = np.exp(np.clip(log_r, -700.0, 700.0))

    # c(r) = [m-1/2]^2 + (B1 - A)' + (B1 - A)(A1 + A) from the exact
    # expansion of [J_z - 1/2]^2 + J_+ J_- on the realization
    b1 = -(f1v / 2.0) * br2m + f2v
    a1 = -(f1v / 2.0) * br(2.0 * m - 2.0) + f2v
    diff = b1 - a_vals
    ddiff = np.gradient(diff, h)
    c_of_r = br(m - 0.5) ** 2 + ddiff + diff * (a1 + a_vals)

    interior = slice(3, len(r) - 3)
    c_med = float(np.median(c_of_r[interior]))
    residual = float(np.abs(c_of_r[interior] - c_med).max())
    if not np.isfinite(residual):
        raise FloatingPointError("Casimir estimate not finite")

    # the alternative closed-form exponent integrand equals A * eta^2 [2m]
    ratio = eta2 * br2m

    return CoupledResult(
        r=r,
        big_r=big_r,
        c_estimate=c_med,
        residual=residual,
        success=residual < 1e-4 * (1.0 + abs(c_med)),
        integrand_ratio=ratio,
    )


# ----------------------------------------------------------------------
# root-of-unity disjoint supports and commensurability


def disjoint_support_pair(i1, i2, heights1, heights2, epsilon: float, grid):
    """Piecewise-constant (f1, f2) with exactly disjoint cell supports.

    Cell k carries the indicator of (k + eps, k+1 - eps).  The index sets
    must not share a cell (the trivial-intersection precondition), making
    f1 f2 = 0 exact, as the [2m] = 0 root-of-unity construction requires.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    i1, i2 = set(i1), set(i2)
    if i1 & i2:
        raise ValueError(f"index sets overlap on cells {sorted(i1 & i2)}")
    r = np.asarray(grid, dtype=float)

    def assemble(idx, heights):
        out = np.zeros_like(r)
        for k, ck in zip(sorted(idx), heights):
            out = np.where((r > k + epsilon) & (r < k + 1 - epsilon), ck, out)
        return out

    f1 = assemble(i1, heights1)
    f2 = assemble(i2, heights2)
    return f1, f2


# a lag's FFT correlation is trusted when both of its windows' variances
# exceed this fraction of n max(x^2), the scale of the sums' FFT rounding
FFT_VARIANCE_FLOOR = 1e-5
# trusted lags this close to the best FFT correlation are evaluated directly
FFT_TIE_BAND = 1e-8
MIN_LAG_PAIRS = 200


def _lag_correlation(w: np.ndarray, lag: int):
    """Pearson correlation of w[:-lag] with w[lag:] over the pairs where both
    are finite; None below MIN_LAG_PAIRS pairs or at zero variance."""
    a, b = w[:-lag], w[lag:]
    ok = np.isfinite(a) & np.isfinite(b)
    if int(ok.sum()) < MIN_LAG_PAIRS:
        return None
    aa = a[ok] - a[ok].mean()
    bb = b[ok] - b[ok].mean()
    den = math.sqrt(float(np.sum(aa * aa)) * float(np.sum(bb * bb)))
    if den == 0.0:
        return None
    return float(np.sum(aa * bb)) / den


def _candidate_lags(w: np.ndarray, lag_lo: int, lag_hi: int) -> list:
    """The lags in [lag_lo, lag_hi] that may hold the best correlation.

    One masked-FFT scan (Padfield, IEEE TIP 21(5), 2012) gives every lag's
    pair count and Pearson correlation from three forward FFTs: of the
    values x (0 where w is not finite), of x^2 and of the validity mask.
    A lag with at least MIN_LAG_PAIRS pairs is a candidate when its
    correlation is within FFT_TIE_BAND of the best, or when a variance is
    too small for the FFT sums to resolve (zero-variance lags among them).
    """
    if lag_hi < lag_lo:
        return []
    ok = np.isfinite(w)
    x = np.where(ok, w, 0.0)
    x2 = x * x
    size = 1 << (len(w) + lag_hi - 1).bit_length()  # no wrap-around up to lag_hi
    fx, fx2, fm = (np.fft.rfft(f, size) for f in (x, x2, ok.astype(float)))

    def corr(f, g):
        """sum_i f[i] g[i + L] at index L, sum_i g[i] f[i + L] at index size - L."""
        return np.fft.irfft(f.conj() * g, size)

    lags = np.arange(lag_lo, lag_hi + 1)
    pairs = np.rint(corr(fm, fm)[lags])
    enough = pairs >= MIN_LAG_PAIRS
    lags, pairs = lags[enough], pairs[enough]
    s_x, s_xx = corr(fx, fm), corr(fx2, fm)
    sa, sb = s_x[lags], s_x[size - lags]
    var_a = s_xx[lags] - sa * sa / pairs
    var_b = s_xx[size - lags] - sb * sb / pairs
    cov = corr(fx, fx)[lags] - sa * sb / pairs
    floor = FFT_VARIANCE_FLOOR * len(w) * float(np.max(x2, initial=0.0))
    trusted = (var_a > floor) & (var_b > floor)
    rho = np.full(len(lags), -np.inf)
    rho[trusted] = cov[trusted] / np.sqrt(var_a[trusted] * var_b[trusted])
    near = rho >= rho.max(initial=-np.inf) - FFT_TIE_BAND
    return lags[near | ~trusted].tolist()


def commensurability_peak(
    values: np.ndarray,
    step: float,
    base_period: float,
    max_periods: int = 10,
    clip_percentile: float = 40.0,
):
    """Best secondary autocorrelation peak of V over lags up to max_periods.

    Samples with |V| above the clip percentile (the pole-dominated part of
    the profile, which repeats with the f1 period regardless of f2) are
    excluded, so the correlation reflects the mid-well structure where the
    second profile acts.  The normalized autocorrelation is scanned over
    lags in (base_period/2, max_periods * base_period] with pairwise
    deletion of excluded samples: lags with fewer than MIN_LAG_PAIRS pairs
    or zero variance are skipped, and the earliest lag wins a tie.  The
    FFT scan narrows the lags down; the candidates are evaluated directly.
    Returns (peak, lag), or (-1.0, 0.0) when no lag qualifies; a peak >=
    0.95 marks a commensurate pair.
    """
    v = np.asarray(values, dtype=float)
    thr = np.nanpercentile(np.abs(v), clip_percentile)
    w = np.where(np.abs(v) > thr, np.nan, v)
    w = w - np.nanmean(w)
    n = len(w)
    lag_lo = max(1, int(round(0.5 * base_period / step)))
    lag_hi = min(n - 2, int(round(max_periods * base_period / step)))
    best, best_lag = -1.0, 0
    for lag in _candidate_lags(w, lag_lo, lag_hi):
        rho = _lag_correlation(w, lag)
        if rho is not None and rho > best:
            best, best_lag = rho, lag
    return best, best_lag * step
