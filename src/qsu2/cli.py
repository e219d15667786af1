"""Command-line frontend: every module as a subcommand with CSV/JSON output.

Exit codes: 0 success, 2 argument error, 3 verification failure,
4 numerical failure (NaN/overflow).  Each run writes a JSON manifest
recording the argv it parsed, the config lines it parsed them with, the
resolved parameters and the output digests; `rerun` parses that argv again
with those lines and reproduces byte-identical files.  Each subcommand
computes and returns its outputs, and main writes them afterwards, so a
command that fails writes nothing.  A config file's
`key = value` lines are the flags they name, parsed ahead of the explicit
flags, which win.  The default output directory comes from --outdir or the
QSU2_OUTDIR environment variable.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .classify import classify, thresholds
from .geometry import level_section, spectral_flow, topology_transition
from .hopf import (
    GenDeformation,
    build_gen_rep,
    casimir_gen,
    hopf_axiom_report,
    spectrum_2jz,
    unitarity_window,
    detect_accumulation,
)
from .operators import EDGE_BUFFER, UnitarityError, build_rep, verify_algebra
from .qnumbers import Deformation, SingularDeformation
from .schrodinger import build_potential, eigensolve, realization, solvable_cells
from .serialize import Records, complex_pairs, manifest_path, rows_of, write_csv, write_json, write_manifest

EXIT_OK = 0
EXIT_ARGS = 2
EXIT_VERIFY = 3
EXIT_NUMERIC = 4

ASSERTED_RESIDUAL_TOL = 1e-10


class VerificationFailure(Exception):
    pass


def _finite(text: str) -> float:
    """A float flag's value; NaN and inf would pass every bound check downstream."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _at_least(low: int):
    """The type of an integer flag whose value must be >= low."""

    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return count


def _cell(text: str) -> str:
    """A --cell value, "largest", "all" or a cell index, kept as written."""
    if text not in ("largest", "all"):
        try:
            int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f'expected "largest", "all" or a cell index, got {text!r}') from None
    return text


def _parse_grid(spec: str):
    """start:stop:step grid specification."""
    try:
        start, stop, step = (float(tok) for tok in spec.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid spec {spec!r}: {exc}") from None
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop <= start:
        raise argparse.ArgumentTypeError(f"bad grid spec {spec!r}: need finite stop > start, step > 0")
    count = int(math.floor((stop - start) / step + 0.5)) + 1
    return start, step, count


def _parse_basis(spec: str):
    """m0:count basis specification (unit spacing)."""
    try:
        m0, count = spec.split(":")
        if not math.isfinite(float(m0)):
            raise ValueError("m0 is not finite")
        if int(count) < 1:
            raise ValueError(f"count must be >= 1, got {int(count)}")
        return float(m0), int(count)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad basis spec {spec!r}: {exc}") from None


def _deformation(s: float) -> Deformation:
    try:
        return Deformation(s)
    except SingularDeformation as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _config_defaults(path):
    """The file's `key = value` lines, keyed in flag-dest form, values as written."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"cannot read config {path}: {exc}") from None
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _common_flags(default) -> argparse.ArgumentParser:
    """--outdir and --config, accepted before and after the subcommand."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--outdir", default=default, help="output directory (default: $QSU2_OUTDIR or .)"
    )
    common.add_argument("--config", default=default, help="file of key = value lines, each the flag it names")
    return common


def _config_argv(parser, command: str, defaults: dict):
    """Each config line as the flag it names (`--key=value`, the bare switch for
    `true`, nothing for `false`): the root's (--outdir, --config), which go
    ahead of the root's explicit flags, and the subcommand's."""
    sub = next(a for a in parser._actions if isinstance(a, _Subcommands))
    declared = sub.choices[command]._option_string_actions
    flags = {key: "--" + key.replace("_", "-") for key in defaults}
    undeclared = sorted(key for key, flag in flags.items() if flag not in declared or key == "help")
    if undeclared:
        raise argparse.ArgumentTypeError(f"config keys name no flag of {command}: {', '.join(undeclared)}")
    root_argv, config_argv = [], []
    for key, value in defaults.items():
        value = str(value)  # a manifest written before may hold numbers and booleans
        if value.lower() != "false":
            flag = flags[key] if value.lower() == "true" else f"{flags[key]}={value}"
            (root_argv if flags[key] in parser._option_string_actions else config_argv).append(flag)
    return root_argv, config_argv


class _Subcommands(argparse._SubParsersAction):
    """Subcommand dispatch that parses the namespace's `config_argv` ahead of
    the subcommand's explicit flags, through the same actions; the explicit ones win."""

    def __call__(self, parser, namespace, values, option_string=None):
        config_argv = vars(namespace).pop("config_argv", [])
        super().__call__(parser, namespace, values[:1] + config_argv + values[1:], option_string)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: it holds no per-call state."""
    # a subcommand's copy of the common flags sets nothing unless given, so
    # the value given before the subcommand (or its default) stands
    common = _common_flags(argparse.SUPPRESS)

    potential = argparse.ArgumentParser(add_help=False)
    potential.add_argument("--s", type=_finite, default=None)
    potential.add_argument("--m", type=_finite, default=None)
    potential.add_argument("--f1-branch", default=None, choices=["tan", "tanh", "constant", "linear"])
    potential.add_argument("--f2-branch", default=None, choices=["sech", "exponential", "cosine", "constant"])
    potential.add_argument("--F", type=_finite, default=1.0, help="integration constant of the f2 branch")
    potential.add_argument("--d1", type=_finite, default=0.0)
    potential.add_argument("--d2", type=_finite, default=0.0)
    potential.add_argument("--grid", type=_parse_grid, default=(-6.0, 1e-3, 12001), help="start:stop:step")
    potential.add_argument("--kappa-mode", default="exact", choices=["exact", "unit", "parity"])
    potential.add_argument("--f1-derivative-form", default="first", choices=["first", "second"])
    potential.add_argument("--transform", default="eliminate", choices=["eliminate", "literal"])

    ap = argparse.ArgumentParser(prog="qsu2", description=__doc__, parents=[_common_flags(None)])
    ap.add_argument("--version", action="version", version=f"qsu2 {__version__}")
    sub = ap.add_subparsers(dest="command", required=True, action=_Subcommands)

    p = sub.add_parser(
        "classify", parents=[common], help="representation classes for s and a c value or range"
    )
    p.add_argument("--s", type=_finite, default=None)
    p.add_argument("--c", type=_finite, default=None)
    p.add_argument("--c-range", type=_parse_grid, default=None, help="start:stop:step sweep of c")

    p = sub.add_parser("rep", parents=[common], help="matrix representation on an explicit basis")
    p.add_argument("--s", type=_finite, default=None)
    p.add_argument("--c", type=_finite, default=None)
    p.add_argument("--basis", type=_parse_basis, default=None, help="m0:count, unit spacing")
    p.add_argument("--verify", action="store_true", help="exit 3 if asserted residuals exceed tolerance")

    sub.add_parser("potential", parents=[common, potential], help="potential V(r; m, s) as CSV")

    p = sub.add_parser("spectrum", parents=[common, potential], help="eigenvalues of a potential")
    p.add_argument("--potential-csv", default=None, help="r,V,mask table from the potential command")
    p.add_argument("--n", type=_at_least(1), default=5, help="eigenvalues per cell, >= 1")
    p.add_argument("--cell", type=_cell, default="largest", help='"largest", "all", or a cell index')
    p.add_argument("--with-vectors", action="store_true")

    p = sub.add_parser("flow", parents=[common], help="spectral flow [2m](s) long-format CSV")
    p.add_argument("--m-max", type=_finite, default=4.5, help="largest m of the curves, >= 0.5")
    p.add_argument("--s-grid", type=_parse_grid, default=(0.05, (math.pi - 0.1) / 499, 500))

    p = sub.add_parser("surface", parents=[common], help="constant-Casimir section or topology transition")
    p.add_argument("--c", type=_finite, default=None)
    p.add_argument("--s", type=_finite, default=None, help="section at this s")
    p.add_argument("--jz-grid", type=_parse_grid, default=(-12.0, 0.01, 2401))
    p.add_argument("--transition", action="store_true", help="scan s for the transition instead")
    p.add_argument("--s-grid", type=_parse_grid, default=(0.05, (math.pi - 0.1) / 2999, 3000))

    p = sub.add_parser("hopf", parents=[common], help="generalized-deformation window, spectrum, and axiom report")
    p.add_argument("--alpha", type=_finite, default=-1.0)
    p.add_argument("--profile", default="constant", choices=["constant", "sech", "geometric"])
    p.add_argument("--b0", type=_finite, default=1.0)
    p.add_argument("--f0", type=_finite, default=4.0)
    p.add_argument("--f-lo", type=_finite, default=None)
    p.add_argument("--f-hi", type=_finite, default=None)
    p.add_argument("--c", type=_finite, default=2.0)
    # the axiom report checks the rows EDGE_BUFFER away from both edges
    p.add_argument("--dim", type=_at_least(2 * EDGE_BUFFER + 1), default=9, help="basis states, >= 5")
    p.add_argument("--m-range", type=_parse_grid, default=(-20.0, 1.0, 41))
    p.add_argument("--what", default="all", choices=["all", "window", "spectrum", "axioms"])

    p = sub.add_parser("rerun", parents=[common], help="re-run a previous invocation from its manifest")
    p.add_argument("manifest")

    return ap


# ----------------------------------------------------------------------
# Each command is a pure function of the parsed flags: it computes and
# checks everything, and returns the values it computed beyond the flags
# and its outputs, {file name: (header, rows) for a .csv, else a JSON
# payload}.  main writes them and the manifest afterwards (_write_outputs),
# so a command that fails writes nothing.


def _grid(spec) -> np.ndarray:
    """The points start + step * i of a parsed start:stop:step grid."""
    start, step, count = spec
    return start + step * np.arange(count)


def _cmd_classify(args):
    if args.s is None:
        raise argparse.ArgumentTypeError("classify needs --s")
    d = _deformation(args.s)
    th = thresholds(d)
    if args.c is None and args.c_range is None:
        raise argparse.ArgumentTypeError("classify needs --c or --c-range")
    cs = _grid(args.c_range).tolist() if args.c_range is not None else [args.c]
    rows = []
    for c in cs:
        for desc in classify(d, c):
            rows.append(
                (
                    desc.rep_class.value,
                    c,
                    d.s,
                    desc.N if desc.N is not None else "",
                    desc.k,
                    desc.m_list[0] if desc.m_list else "",
                    desc.m_list[-1] if desc.m_list else "",
                    desc.m_rule,
                )
            )
    header = ["class", "c", "s", "N", "k", "m_first", "m_last", "m_rule"]
    return {"thresholds": {"c0": th.c0, "c1": th.c1, "c2": th.c2}}, {"classify.csv": (header, rows)}


def _cmd_rep(args):
    if args.s is None or args.c is None or args.basis is None:
        raise argparse.ArgumentTypeError("rep needs --s, --c, and --basis")
    d = _deformation(args.s)
    m0, count = args.basis
    try:
        triple = build_rep(d, args.c, [m0 + i for i in range(count)])
    except UnitarityError as exc:
        raise VerificationFailure(str(exc)) from None
    report = verify_algebra(triple, d, args.c)
    payload = {
        "s": args.s,
        "c": args.c,
        "basis": list(triple[0].basis),
        "matrices": {
            "Jz": complex_pairs(triple[0]),
            "Jplus": complex_pairs(triple[1]),
            "Jminus": complex_pairs(triple[2]),
        },
        "report": {k: getattr(report, k) for k in report.__dataclass_fields__},
    }
    if args.verify:
        asserted = (
            report.res_jz_jpm,
            report.res_jp_jm,
            report.res_casimir,
            report.casimir_forms_dev,
            report.hermiticity,
            report.maekawa_shift_dev,
        )
        if not all(v <= ASSERTED_RESIDUAL_TOL for v in asserted):  # NaN fails
            raise VerificationFailure(f"algebra residuals exceed {ASSERTED_RESIDUAL_TOL}: {asserted}")
    return {}, {"rep.json": payload}


def _potential_from_args(args):
    """The potential the flags describe, and its resolved branches."""
    if args.s is None or args.m is None:
        raise argparse.ArgumentTypeError("needs --s and --m (or a potential CSV)")
    d = _deformation(args.s)
    fns = realization(
        d, args.m, f1_branch=args.f1_branch, f2_branch=args.f2_branch, F=args.F, d1=args.d1, d2=args.d2
    )
    prof = build_potential(
        d,
        args.m,
        fns,
        grid=args.grid,
        kappa_mode=args.kappa_mode,
        f1_derivative_form=args.f1_derivative_form,
        transform=args.transform,
    )
    return prof, {"f1_branch": prof.params["f1_branch"], "f2_branch": prof.params["f2_branch"]}


def _cmd_potential(args):
    prof, branches = _potential_from_args(args)
    return branches, {"potential.csv": (["r", "V", "mask"], rows_of(prof.r, prof.values, prof.pole_mask))}


# accepts the rounding of 17-digit grid points, rejects any dropped or moved row
GRID_RTOL = 1e-6


def _load_potential_csv(path):
    """The r,V,mask table the potential command writes, on its uniform r grid."""
    from .schrodinger import PotentialProfile

    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot read potential CSV: {exc}") from None
    header, *rows = data.decode("utf-8").splitlines() or [""]
    if header != "r,V,mask":
        raise ValueError(f"{path}: header {header!r} is not 'r,V,mask'")
    if len(rows) < 2:
        raise ValueError(f"{path}: {len(rows)} rows, need at least 2")
    try:
        table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
        r, v, mask = table.T.copy()  # contiguous columns
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if len(table) != len(rows):
        raise ValueError(f"{path}: {len(rows) - len(table)} blank rows")
    not_flag = (mask != 0) & (mask != 1)
    if not_flag.any():
        line = int(np.argmax(not_flag))
        raise ValueError(f"{path}: mask cell {rows[line].rsplit(',', 1)[1]!r} on line {line + 2} is not 0 or 1")
    step = (r[-1] - r[0]) / (len(r) - 1)
    if not (step > 0 and np.all(np.abs(np.diff(r) - step) <= GRID_RTOL * step)):
        raise ValueError(f"{path}: r is not an increasing uniform grid")
    return PotentialProfile(
        start=float(r[0]),
        step=float(step),
        count=len(r),
        values=v,
        pole_mask=mask == 1,
        params={"source": str(path), "sha256": hashlib.sha256(data).hexdigest()},
        casimir_offset=0.0,
        terms={},
    )


def _cmd_spectrum(args):
    if args.potential_csv is not None:
        prof = _load_potential_csv(args.potential_csv)
        computed = {"potential_sha256": prof.params["sha256"]}
    else:
        if args.s is None or args.m is None:
            raise argparse.ArgumentTypeError("spectrum needs --potential-csv or --s and --m")
        prof, computed = _potential_from_args(args)
    if not np.all(np.isfinite(prof.values[~prof.pole_mask])):
        raise FloatingPointError("potential contains non-finite unmasked samples")
    if args.cell == "all":
        cells, skipped = solvable_cells(prof)
        if skipped:  # the wells too short to solve go in the manifest
            computed["skipped_cells"] = skipped
    elif args.cell == "largest":
        cells = ["largest"]
    else:
        cells = [int(args.cell)]
    solved = [(cell, eigensolve(prof, args.n, cell, vectors=args.with_vectors)) for cell in cells]
    rows = [(cell, k, val) for cell, res in solved for k, val in enumerate(res.eigenvalues)]
    outputs = {"spectrum.csv": (["cell", "k", "eigenvalue"], rows)}
    if args.with_vectors:
        for cell, res in solved:
            header = ["r"] + [f"psi_{k}" for k in range(len(res.eigenvalues))]
            outputs[f"spectrum_vectors_{cell}.csv"] = (header, rows_of(res.r, *res.eigenvectors.T))
    return computed, outputs


def _cmd_flow(args):
    table = spectral_flow(args.m_max, _grid(args.s_grid))
    if not len(table.m_values):
        raise argparse.ArgumentTypeError(f"--m-max {args.m_max!r} gives no curve: the first is m = 0.5")
    n_m, n_s = table.values.shape
    rows = rows_of(np.tile(table.s_grid, n_m), np.repeat(table.m_values, n_s), table.values.ravel())
    return {}, {"flow.csv": (["s", "m", "value"], rows), "flow_crossings.json": Records(table.crossing_columns)}


def _cmd_surface(args):
    if args.c is None:
        raise argparse.ArgumentTypeError("surface needs --c")
    if args.transition:
        s_star = topology_transition(args.c, _grid(args.s_grid))
        return {}, {"surface_transition.json": {"c": args.c, "s_star": s_star, "s_grid": list(args.s_grid)}}
    if args.s is None:
        raise argparse.ArgumentTypeError("surface needs --s (or --transition)")
    d = _deformation(args.s)
    sec = level_section(d, args.c, _grid(args.jz_grid))
    rows = rows_of(sec.jz, sec.jx, -sec.jx, sec.mask)  # level_section puts NaN where masked
    computed = {"connectivity": sec.connectivity, "components": sec.components}
    return computed, {"surface.csv": (["Jz", "Jx_plus", "Jx_minus", "mask"], rows)}


def _cmd_hopf(args):
    computed = {}
    profile_params = {}
    if args.profile == "constant":
        profile_params["b0"] = args.b0
    elif args.profile == "geometric":
        profile_params["f0"] = args.f0
    elif args.profile == "sech":
        gd0 = GenDeformation(alpha=args.alpha, profile="constant")
        win0 = unitarity_window(args.c, gd0)
        width = win0.f_max - win0.f_min
        f_lo = args.f_lo if args.f_lo is not None else max(1.02, win0.f_min + 0.05 * width)
        f_hi = args.f_hi if args.f_hi is not None else max(win0.f_max - 0.05 * width, f_lo + 0.1)
        profile_params.update({"f_lo": f_lo, "f_hi": f_hi})
        computed.update({"f_lo": f_lo, "f_hi": f_hi})
    gd = GenDeformation(alpha=args.alpha, profile=args.profile, profile_params=profile_params)

    outputs = {}
    if args.what in ("all", "window"):
        win = unitarity_window(args.c, gd)
        window = {k: getattr(win, k) for k in win.__dataclass_fields__}
        outputs["hopf_window.json"] = window | {"q1": gd.q1, "c": args.c}
    if args.what in ("all", "spectrum"):
        ms = _grid(args.m_range)
        spec = spectrum_2jz(gd, ms)
        try:
            accumulation = detect_accumulation(ms, spec)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"argument --m-range: {exc}") from None
        outputs["hopf_spectrum.csv"] = (["m", "value"], rows_of(ms, spec))
        outputs["hopf_accumulation.json"] = accumulation
    if args.what in ("all", "axioms"):
        rep = build_gen_rep(gd, args.dim, args.c)
        report = hopf_axiom_report(gd, rep)
        inner = casimir_gen(gd, rep)[EDGE_BUFFER:-EDGE_BUFFER]
        axioms = {k: getattr(report, k) for k in report.__dataclass_fields__}
        axioms["casimir_diag_drift"] = float(inner.max() - inner.min()) if inner.size else 0.0
        axioms["q1"] = gd.q1
        # the telescoped |N|^2 are sums of size c, so their rounding scales with c
        bound = ASSERTED_RESIDUAL_TOL * max(1.0, abs(args.c))
        if not report.commutator_defect <= bound:  # NaN fails
            raise VerificationFailure(f"commutator defect {report.commutator_defect!r} exceeds {bound!r}")
        outputs["hopf_axioms.json"] = axioms
    return computed, outputs


DISPATCH = {
    "classify": _cmd_classify,
    "rep": _cmd_rep,
    "potential": _cmd_potential,
    "spectrum": _cmd_spectrum,
    "flow": _cmd_flow,
    "surface": _cmd_surface,
    "hopf": _cmd_hopf,
}


def _write_outputs(
    outdir: Path, outputs: dict, subcommand: str, params: dict, argv: list, defaults: dict
) -> list[Path]:
    """Write each output to outdir / name in the dict's order, a .csv name by
    write_csv and any other by write_json, then the run's manifest, and
    return the output paths; when a write fails, the files written so far
    are removed, the manifest included."""
    written = []
    try:
        for name, data in outputs.items():
            written.append(outdir / name)
            if name.endswith(".csv"):
                header, rows = data
                write_csv(written[-1], header, rows)
            else:
                write_json(written[-1], data)
        paths = written[:]
        written.append(manifest_path(outdir, subcommand))
        write_manifest(outdir, subcommand, params, paths, __version__, argv, defaults)
    except BaseException:
        for path in written:
            try:
                path.unlink()
            except OSError:  # never written, or outdir is no directory
                pass
        raise
    return paths


def _rerun(manifest_path: str, outdir: Path) -> int:
    """Parse the recorded argv again with the recorded config lines,
    writing into outdir (argparse keeps the last --outdir)."""
    try:
        manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"cannot read manifest {manifest_path}: {exc}") from None
    if not (
        isinstance(manifest, dict)
        and isinstance(manifest.get("argv"), list)
        and isinstance(manifest.get("defaults"), dict)
    ):
        raise argparse.ArgumentTypeError(f"{manifest_path} records no argv and defaults to replay")
    return main(manifest["argv"] + [f"--outdir={outdir}"], manifest["defaults"])


def main(argv=None, defaults: dict | None = None) -> int:
    """Run one invocation.  `defaults` stands in for the --config file's
    lines; rerun passes the ones its manifest recorded."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if defaults is None:
            defaults = _config_defaults(args.config) if args.config else {}
        if defaults:
            root_argv, config_argv = _config_argv(parser, args.command, defaults)
            args = parser.parse_args(root_argv + argv, argparse.Namespace(config_argv=config_argv))
        outdir = Path(args.outdir or os.environ.get("QSU2_OUTDIR", "."))
        if args.command == "rerun":
            return _rerun(args.manifest, outdir)
        computed, outputs = DISPATCH[args.command](args)
        params = {k: v for k, v in vars(args).items() if k not in ("command", "outdir", "config")}
        paths = _write_outputs(outdir, outputs, args.command, params | computed, argv, defaults)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except (argparse.ArgumentTypeError, SingularDeformation, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGS
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (FloatingPointError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
