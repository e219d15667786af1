"""Seeded operation mixes and the code that runs and checks one operation.

An operation is plain data, `Op(kind, params)`; the seed decides every
parameter, and the program only ever sees the argv (or library arguments)
built from it.  A workload is an endless sequence of rounds of a fixed
shape, one operation per size stratum.  Sizes are drawn stratified (see
Draw), so every block of eight rounds covers each size range evenly
whatever the seed.  The round shapes put the median and the 90th
percentile inside a group of operations whose cost varies continuously,
not on a gap between two groups.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import math
import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

WORKLOADS = ("sweep", "algebra", "realization")

# ROADMAP's baseline case, run once per algebra run, without --verify
# (with it the absolute 1e-10 bound fails on entries of order 1e6).
REP_400 = {"s": 0.01, "c": 1e6, "m0": 0.0, "n": 400, "verify": False}

S_FLOW = (0.05, 3.0)  # s range of the flow grids
POTENTIAL_REGIMES = {
    # name: (s, f1 branch, f2 branch, transform, m choices)
    "wells": (0.25, "tan", "cosine", "eliminate", (1.0, 2.0)),
    "literal": (0.25, "tan", "cosine", "literal", (1.0, 2.0)),
    "tanh-sech": (3.0, "tanh", "sech", "eliminate", (1.0, 2.0)),
    "const-exp": (3.05, "constant", "exponential", "eliminate", (3.0,)),
}


@dataclass(frozen=True)
class Op:
    kind: str
    params: dict


def _num(x: float, digits: int = 6) -> float:
    """Round to a few significant digits so argv text and value agree."""
    return float(f"{x:.{digits}g}")


def grid_text(g) -> str:
    """A (start, stop, step) grid as the CLI's start:stop:step argument."""
    return "{!r}:{!r}:{!r}".format(*g)


def grid_parsed(g) -> tuple[float, float, int]:
    """The (start, step, count) the CLI parses from a (start, stop, step) grid."""
    start, stop, step = g
    return start, step, int(math.floor((stop - start) / step + 0.5)) + 1


# ----------------------------------------------------------------------
# generators


class Draw:
    """Stratified uniform draws.  For each key, every block of BLOCK
    consecutive draws takes one value from each of BLOCK equal strata, so
    a run's sizes cover their range evenly whatever the seed."""

    BLOCK = 8

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.pending: dict[str, list[int]] = {}

    def u(self, key: str) -> float:
        if not self.pending.get(key):
            self.pending[key] = self.rng.sample(range(self.BLOCK), self.BLOCK)
        return (self.pending[key].pop() + self.rng.random()) / self.BLOCK

    def uniform(self, key: str, lo: float, hi: float) -> float:
        return _num(lo + (hi - lo) * self.u(key))

    def integer(self, key: str, lo: int, hi: int) -> int:
        """lo..hi inclusive."""
        return lo + int(self.u(key) * (hi - lo + 1))


def _sweep_round(draw: Draw) -> list[Op]:
    ops = []
    for i, (lo, hi) in enumerate(((0.05, 0.08), (0.08, 0.15), (0.15, 0.3))):
        s = draw.uniform(f"wide-s{i}", lo, hi)
        stop = _num(draw.uniform(f"wide-c{i}", 1.1, 1.5) / math.sin(s) ** 2)
        ops.append(Op("classify", {"s": s, "c_range": (0.2, stop, _num((stop - 0.2) / 11.0))}))
    # a fine sweep across the narrow mixed band (c1, c0]
    s = draw.uniform("band-s", 0.05, 0.3)
    c0, c1 = 1.0 / math.sin(s) ** 2, 1.0 / (4.0 * math.sin(s / 2.0) ** 2)
    w = c0 - c1
    ops.append(Op("classify", {"s": s, "c_range": (_num(c1 - w, 12), _num(c0 + w, 12), _num(w / 4.0))}))
    # finite ladders: c exactly at [(N+1)/2]^2
    for i in range(2):
        s = draw.uniform(f"ladder-s{i}", 0.05, 0.3)
        n = 1 + int(draw.u(f"ladder-n{i}") * (math.ceil(2.0 * math.pi / s) + 4))
        ops.append(Op("classify", {"s": s, "c": float(checks.bracket((n + 1) / 2.0, s)) ** 2}))
    for i in range(2):
        points = draw.integer(f"flow-points{i}", 30, 50)
        ops.append(Op("flow", {"m_max": draw.integer(f"flow-m{i}", 20, 32) / 2.0,
                               "s_grid": (S_FLOW[0], S_FLOW[1], _num((S_FLOW[1] - S_FLOW[0]) / points))}))
    ops.append(Op("transition", {"c": draw.uniform("transition-c", 0.3, 20.0)}))
    for i in range(2):
        w = float(draw.integer(f"section-w{i}", 10, 25))
        ops.append(Op("section", {"c": draw.uniform(f"section-c{i}", 0.2, 3.0),
                                  "s": draw.uniform(f"section-s{i}", 0.1, 3.0), "jz_grid": (-w, w, 0.01)}))
    return ops


def _algebra_round(draw: Draw) -> list[Op]:
    ops = []
    for i, (lo, hi) in enumerate(((50, 56), (57, 62), (63, 68), (69, 75), (76, 81))):
        s = draw.uniform(f"rep-s{i}", 0.3, 2.8)
        c = _num(draw.uniform(f"rep-c{i}", 1.2, 4.0) / math.sin(s) ** 2)
        ops.append(Op("rep", {"s": s, "c": c, "m0": draw.integer(f"rep-m{i}", -80, 80) / 2.0,
                              "n": draw.integer(f"rep-n{i}", lo, hi), "verify": True}))
    for dim in (7, 9, 11):
        ops.append(Op("hopf", {"alpha": 3.0, "f0": 2.0, "c": 200.0, "dim": dim, "what": "axioms"}))
    ops.append(Op("hopf", {"alpha": 2.0, "f0": 20.0, "c": 900.0, "dim": draw.integer("readme-dim", 7, 9),
                           "what": "all"}))
    return ops


def _potential_params(draw: Draw, npts: int, regime: str | None = None) -> dict:
    regime = regime or draw.rng.choice(sorted(POTENTIAL_REGIMES))
    s, f1, f2, transform, ms = POTENTIAL_REGIMES[regime]
    return {"s": s, "m": draw.rng.choice(ms), "f1": f1, "f2": f2, "transform": transform,
            "grid": (-6.0, 6.0, _num(12.0 / (npts - 1)))}


def _realization_round(draw: Draw) -> list[Op]:
    ops = [Op("potential", _potential_params(draw, draw.integer(f"potential-n{i}", lo, hi)))
           for i, (lo, hi) in enumerate(((12000, 14000), (14000, 16000), (16000, 18000)))]
    # whole wells on both sides: the grid edge sits near a well center
    s, m = 0.25, draw.rng.choice((1.0, 2.0))
    period = math.pi / math.sqrt(math.cos(s))
    half = _num((draw.integer("spectrum-wells", 1, 3) + draw.uniform("spectrum-edge", -0.25, 0.25)) * period)
    npts = draw.integer("spectrum-n", 24000, 72000)
    ops.append(Op("spectrum", {"s": s, "m": m, "f1": "tan", "f2": "cosine", "transform": "eliminate",
                               "grid": (-half, half, _num(2 * half / (npts - 1))), "n": 4, "cell": "all"}))
    ops.append(Op("spectrum_csv", {"potential": _potential_params(draw, 12001, "wells"), "n": 4}))
    ops.append(Op("rerun", {"potential": _potential_params(draw, 12001)}))
    ops.append(Op("commensurability", {"commensurate": draw.rng.random() < 0.5,
                                       "max_periods": draw.integer("comm-periods", 2, 3)}))
    return ops


ROUNDS = {"sweep": _sweep_round, "algebra": _algebra_round, "realization": _realization_round}
# the top of the 12k-120k potential range: 120001 points
POTENTIAL_120K = {"s": 0.25, "m": 1.0, "f1": "tan", "f2": "cosine", "transform": "eliminate",
                  "grid": (-6.0, 6.0, 1e-4)}
# once per measured run, ahead of the rounds
ANCHORS = {"sweep": [], "algebra": [Op("rep", REP_400)], "realization": [Op("potential", POTENTIAL_120K)]}


def rounds(workload: str, seed: int):
    """Endless rounds of operations for a workload; the same seed gives the same rounds."""
    draw = Draw(random.Random(f"{workload}:{seed}"))
    while True:
        ops = ROUNDS[workload](draw)
        draw.rng.shuffle(ops)
        yield ops


# ----------------------------------------------------------------------
# argv and output checks, one per kind


def _potential_argv(p: dict) -> list[str]:
    argv = ["--s", repr(p["s"]), "--m", repr(p["m"]), "--f1-branch", p["f1"], "--f2-branch", p["f2"],
            "--transform", p["transform"], f"--grid={grid_text(p['grid'])}"]
    return argv


def argv_for(op: Op, outdir: Path, indir: Path | None) -> list[str]:
    p = op.params
    if op.kind == "classify":
        argv = ["classify", "--s", repr(p["s"])]
        argv += [f"--c-range={grid_text(p['c_range'])}"] if "c_range" in p else ["--c", repr(p["c"])]
    elif op.kind == "flow":
        argv = ["flow", "--m-max", repr(p["m_max"]), f"--s-grid={grid_text(p['s_grid'])}"]
    elif op.kind == "transition":
        argv = ["surface", "--c", repr(p["c"]), "--transition"]
    elif op.kind == "section":
        argv = ["surface", "--c", repr(p["c"]), "--s", repr(p["s"]), f"--jz-grid={grid_text(p['jz_grid'])}"]
    elif op.kind == "rep":
        argv = ["rep", "--s", repr(p["s"]), "--c", repr(p["c"]), f"--basis={p['m0']!r}:{p['n']}"]
        argv += ["--verify"] if p["verify"] else []
    elif op.kind == "hopf":
        argv = ["hopf", "--alpha", repr(p["alpha"]), "--profile", "geometric", "--f0", repr(p["f0"]),
                "--c", repr(p["c"]), "--dim", str(p["dim"]), "--what", p["what"]]
    elif op.kind == "potential":
        argv = ["potential"] + _potential_argv(p)
    elif op.kind == "spectrum":
        argv = ["spectrum"] + _potential_argv(p) + ["--n", str(p["n"]), "--cell", p["cell"]]
    elif op.kind == "spectrum_csv":
        argv = ["spectrum", "--potential-csv", str(indir / "potential.csv"), "--n", str(p["n"])]
    elif op.kind == "rerun":
        argv = ["rerun", str(indir / "potential_manifest.json")]
    else:
        raise ValueError(op.kind)
    return argv + ["--outdir", str(outdir)]


# commensurability_peak inputs: the periodic-well f1 against a cosine f2
COMM_S, COMM_GRID = 0.25, (-60.0, 0.01, 12001)


@functools.cache
def commensurability_input(commensurate: bool) -> tuple[np.ndarray, float]:
    """A 12001-sample V(r) whose second profile is (in)commensurate with
    the well period; returns (values, base period)."""
    s = COMM_S
    period = math.pi / math.sqrt(math.cos(s))
    omega = 2.0 * math.pi / period * (1.0 if commensurate else math.sqrt(2.0))
    r = checks.grid(*COMM_GRID)
    f1, d1, _, _, _ = checks.radial(s, "tan", "cosine", r)
    terms = checks.potential_terms(s, 1.0, f1, d1, np.cos(omega * r), -omega * np.sin(omega * r), "eliminate")
    return terms.sum(axis=0), period


def check(op: Op, outdir: Path, staged, result) -> None:
    p = op.params
    if op.kind == "classify":
        if "c_range" in p:
            start, step, count = grid_parsed(p["c_range"])
            cs = [start + step * i for i in range(count)]
        else:
            cs = [p["c"]]
        checks.check_classify(outdir, p["s"], cs)
    elif op.kind == "flow":
        checks.check_flow(outdir, p["m_max"], grid_parsed(p["s_grid"]))
    elif op.kind == "transition":
        checks.check_transition(outdir, p["c"], (0.05, (math.pi - 0.1) / 2999, 3000))
    elif op.kind == "section":
        checks.check_section(outdir, p["c"], p["s"], grid_parsed(p["jz_grid"]))
    elif op.kind == "rep":
        checks.check_rep(outdir, p["s"], p["c"], p["m0"], p["n"])
    elif op.kind == "hopf":
        checks.check_hopf(outdir, p["alpha"], p["f0"], p["c"], p["what"])
    elif op.kind in ("potential", "rerun"):
        pot = p.get("potential", p)
        checks.check_potential(outdir, pot, grid_parsed(pot["grid"]))
    elif op.kind == "spectrum":
        grid = grid_parsed(p["grid"])
        _, v, mask, _, _ = checks.reference_potential(p, grid)
        checks.check_spectrum(outdir, v, mask, grid[1], p["n"], p["cell"])
    elif op.kind == "spectrum_csv":
        r, v, mask = checks.read_potential_csv(staged / "potential.csv")
        checks.check_spectrum(outdir, v, mask, (r[-1] - r[0]) / (len(r) - 1), p["n"], "largest")
    elif op.kind == "commensurability":
        values, period = commensurability_input(p["commensurate"])
        checks.check_commensurability(result, values, COMM_GRID[1], period, p["max_periods"],
                                      p["commensurate"])
    else:
        raise ValueError(op.kind)


# ----------------------------------------------------------------------
# running one operation


class OpFailed(Exception):
    pass


def _cli(argv: list[str]) -> int:
    import qsu2.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = qsu2.cli.main(argv)
    if rc != 0:
        raise OpFailed(f"exit {rc}: {err.getvalue().strip()[:300]}")
    return rc


def _stage(op: Op, scratch: Path):
    """Untimed inputs, made once per run and shared: the potential a
    read-back or rerun operation consumes (written by the program), or the
    profile handed to commensurability_peak."""
    if op.kind == "commensurability":
        values, period = commensurability_input(op.params["commensurate"])
        return values.copy(), period
    if op.kind not in ("spectrum_csv", "rerun"):
        return None
    p = op.params["potential"]
    indir = scratch / "inputs" / hashlib.sha1(repr(sorted(p.items())).encode()).hexdigest()[:16]
    if not indir.is_dir():
        tmp = Path(tempfile.mkdtemp(dir=scratch))
        _cli(["potential"] + _potential_argv(p) + ["--outdir", str(tmp)])
        indir.parent.mkdir(exist_ok=True)
        tmp.rename(indir)
    return indir


def _call(op: Op, outdir: Path, staged):
    if op.kind == "commensurability":
        import qsu2.schrodinger

        values, period = staged
        return qsu2.schrodinger.commensurability_peak(values, COMM_GRID[1], period,
                                                      max_periods=op.params["max_periods"])
    return _cli(argv_for(op, outdir, staged))


@dataclass
class Outcome:
    op: Op
    latency: float
    error: str | None
    scale: float | None = None  # to reference-speed seconds (speed.py), once measured


def execute(op: Op, scratch: Path, on_call=None) -> Outcome:
    """Run one operation with a fresh output directory, time the program
    call alone, check its outputs, then remove the directory."""
    try:
        staged = _stage(op, scratch)
    except OpFailed as exc:
        return Outcome(op, 0.0, f"staging input: {exc}")
    outdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        call = lambda: _call(op, outdir, staged)  # noqa: E731
        t0 = time.perf_counter()
        try:
            result = on_call(op, call) if on_call else call()
        except Exception as exc:  # the program failed: count it, keep going
            return Outcome(op, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - t0
        try:
            check(op, outdir, staged, result)
        except (checks.CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            return Outcome(op, latency, f"check: {type(exc).__name__}: {exc}")
        return Outcome(op, latency, None)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
