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
import contextlib
import functools
import io
import math
import os
import sys
from pathlib import Path

from . import EDGE_BUFFER, __version__

# Start-up loads what the command uses.  `import qsu2.cli`, --version,
# --help and an argument error load only the standard library.  A
# subcommand loads numpy, serialize and the modules its names come from,
# with what those import:
#
#   classify             qnumbers, classify
#   flow                 geometry
#   surface              qnumbers, geometry
#   rep                  qnumbers, operators (and classify)
#   potential, spectrum  qnumbers, schrodinger (and classify, geometry, operators)
#   hopf                 hopf (and qnumbers, classify, operators)
#   rerun                what the replayed command loads
#
# LIBRARY holds the library names the commands look up here, by the module
# that defines them.  A command binds the names of its modules (_uses)
# before it runs, and a name looked up on this module before any command
# ran is bound by __getattr__.  Binding keeps a name already bound, so a
# patched qsu2.cli.<name> stays in force: that is where to patch them.
LIBRARY = {
    "qnumbers": ("Deformation", "SingularDeformation"),
    "classify": ("classify", "thresholds"),
    "geometry": ("level_section", "spectral_flow", "topology_transition"),
    "operators": ("UnitarityError", "build_rep", "verify_algebra"),
    "hopf": (
        "GenDeformation",
        "build_gen_rep",
        "casimir_gen",
        "detect_accumulation",
        "hopf_axiom_report",
        "spectrum_2jz",
        "unitarity_window",
    ),
    "schrodinger": ("PotentialProfile", "build_potential", "eigensolve", "realization", "solvable_cells"),
    "serialize": (
        "Records",
        "complex_pairs",
        "float_cells",
        "manifest_path",
        "rows_of",
        "write_csv",
        "write_json",
        "write_manifest",
    ),
}


_bound = set()  # the modules whose names _bind has bound


def _bind(*modules) -> None:
    """Bind numpy as np and the LIBRARY names of each module as globals,
    keeping any name already bound; serialize's writers always."""
    names = globals()
    for module in ("serialize", *modules):
        if module in _bound:
            continue
        qualified = f"{__package__}.{module}"
        __import__(qualified)  # not importlib's: -X importtime lists what __import__ loads
        for name in LIBRARY[module]:
            names.setdefault(name, getattr(sys.modules[qualified], name))
        _bound.add(module)
    names.setdefault("np", sys.modules["numpy"])  # which every library module imports


def __getattr__(name):
    """A library name looked up before a command bound it (PEP 562)."""
    modules = [module for module, names in LIBRARY.items() if name in names]
    if not modules:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(*modules)
    return globals()[name]


def _uses(*modules):
    """Decorate a command that calls the LIBRARY names of these modules: it
    binds them before it runs, through main or called on its own."""

    def decorate(cmd):
        @functools.wraps(cmd)
        def run(args):
            _bind(*modules)
            return cmd(args)

        return run

    return decorate


EXIT_OK = 0
EXIT_ARGS = 2
EXIT_VERIFY = 3
EXIT_NUMERIC = 4

ASSERTED_RESIDUAL_TOL = 1e-10
# the AlgebraReport fields `rep --verify` asserts
REP_ASSERTED = ("res_jz_jpm", "res_jp_jm", "res_casimir")


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
        m0 = float(m0)
        if not math.isfinite(m0):
            raise ValueError("m0 is not finite")
        count = int(count)
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if abs(m0) + count >= 2**52:  # beyond it, m0 + i no longer steps by exactly 1
            raise ValueError(f"|m0| + count must be < 2**52, got {abs(m0) + count!r}")
        return m0, count
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


class _Given(argparse._StoreAction):
    """A potential flag, which also records on the namespace that it was
    given (on the command line or by a config line)."""

    def __call__(self, parser, namespace, values, option_string=None):
        super().__call__(parser, namespace, values, option_string)
        namespace.potential_flags = getattr(namespace, "potential_flags", ()) + (self.option_strings[0],)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: it holds no per-call state."""
    # a subcommand's copy of the common flags sets nothing unless given, so
    # the value given before the subcommand (or its default) stands
    common = _common_flags(argparse.SUPPRESS)

    potential = argparse.ArgumentParser(add_help=False)
    flag = functools.partial(potential.add_argument, action=_Given)
    flag("--s", type=_finite, default=None)
    flag("--m", type=_finite, default=None)
    flag("--f1-branch", default=None, choices=["tan", "tanh", "constant", "linear"])
    flag("--f2-branch", default=None, choices=["sech", "exponential", "cosine", "constant"])
    flag("--F", type=_finite, default=1.0, help="integration constant of the f2 branch")
    flag("--grid", type=_parse_grid, default=(-6.0, 1e-3, 12001), help="start:stop:step")
    flag("--transform", default="eliminate", choices=["eliminate", "literal"])

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
    p.add_argument(
        "--check", action="store_true", help="exit 3 unless the replay's output digests are the recorded ones"
    )

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


@_uses("qnumbers", "classify")
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


@_uses("qnumbers", "operators")
def _cmd_rep(args):
    if args.s is None or args.c is None or args.basis is None:
        raise argparse.ArgumentTypeError("rep needs --s, --c, and --basis")
    d = _deformation(args.s)
    m0, count = args.basis
    try:
        triple = build_rep(d, args.c, [m0 + i for i in range(count)])
    except UnitarityError as exc:
        raise VerificationFailure(str(exc)) from None
    try:
        report = verify_algebra(triple, d, args.c)
    except ValueError as exc:  # a truncation too short to have interior rows
        raise argparse.ArgumentTypeError(f"argument --basis: {exc}") from None
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
        asserted = tuple(getattr(report, k) for k in REP_ASSERTED)
        if not all(v <= ASSERTED_RESIDUAL_TOL for v in asserted):  # NaN fails
            raise VerificationFailure(f"algebra residuals exceed {ASSERTED_RESIDUAL_TOL}: {asserted}")
    return {}, {"rep.json": payload}


def _potential_from_args(args):
    """The potential the flags describe, and its resolved branches."""
    if args.s is None or args.m is None:
        raise argparse.ArgumentTypeError("needs --s and --m (or a potential CSV)")
    fns = realization(_deformation(args.s), f1_branch=args.f1_branch, f2_branch=args.f2_branch, F=args.F)
    prof = build_potential(fns, args.m, grid=args.grid, transform=args.transform)
    return prof, {"f1_branch": fns.f1.tag, "f2_branch": fns.f2.tag}


@_uses("qnumbers", "schrodinger")
def _cmd_potential(args):
    prof, branches = _potential_from_args(args)
    return branches, {"potential.csv": (["r", "V", "mask"], rows_of(prof.r, prof.values, prof.pole_mask))}


# accepts the rounding of 17-digit grid points, rejects any dropped or moved row
GRID_RTOL = 1e-6


_POTENTIAL_HEADER = b"r,V,mask\n"


def _load_potential_csv(path):
    """The r,V,mask table the potential command writes, on its uniform r
    grid, and the sha256 of the file's bytes.  A file in the grammar the
    command writes is read by csvcells.read_columns, any other by
    np.loadtxt; either reads each value correctly rounded."""
    import hashlib  # here, as json in _read_manifest: --version and --help need neither

    _bind("schrodinger")  # np and PotentialProfile, when called outside spectrum
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot read potential CSV: {exc}") from None
    columns = None
    if data.startswith(_POTENTIAL_HEADER):
        from .csvcells import read_columns

        columns = read_columns(memoryview(data)[len(_POTENTIAL_HEADER) :], "ffb")
    if columns is not None and len(columns[0]) >= 2:
        r, v, mask = columns
    else:
        r, v, mask = _loadtxt_potential(path, data)
    step = (r[-1] - r[0]) / (len(r) - 1)
    if not (step > 0 and np.all(np.abs(np.diff(r) - step) <= GRID_RTOL * step)):
        raise ValueError(f"{path}: r is not an increasing uniform grid")
    prof = PotentialProfile(float(r[0]), float(step), len(r), v, mask == 1)
    return prof, hashlib.sha256(data).hexdigest()


def _loadtxt_potential(path, data: bytes) -> tuple:
    """The r, V and mask columns of the file's bytes, read by np.loadtxt,
    each check refusing the file with its message."""
    try:
        header, *rows = data.decode("utf-8").splitlines() or [""]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
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
    return r, v, mask


@_uses("qnumbers", "schrodinger")
def _cmd_spectrum(args):
    if args.potential_csv is not None:
        given = sorted(set(getattr(args, "potential_flags", ())))
        if given:
            raise argparse.ArgumentTypeError(
                f"--potential-csv takes the potential from its file, not from {', '.join(given)}"
            )
        prof, sha256 = _load_potential_csv(args.potential_csv)
        computed = {"potential_sha256": sha256}
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
    solved = list(zip(cells, eigensolve(prof, args.n, cells, vectors=args.with_vectors)))
    rows = [(cell, k, val) for cell, res in solved for k, val in enumerate(res.eigenvalues)]
    outputs = {"spectrum.csv": (["cell", "k", "eigenvalue"], rows)}
    if args.with_vectors:
        for cell, res in solved:
            header = ["r"] + [f"psi_{k}" for k in range(len(res.eigenvalues))]
            outputs[f"spectrum_vectors_{cell}.csv"] = (header, rows_of(res.r, *res.eigenvectors.T))
    return computed, outputs


@_uses("geometry")
def _cmd_flow(args):
    table = spectral_flow(args.m_max, _grid(args.s_grid))
    if not len(table.m_values):
        raise argparse.ArgumentTypeError(f"--m-max {args.m_max!r} gives no curve: the first is m = 0.5")
    n_m, n_s = table.values.shape
    # each s and m spelled once, its cells tiled and repeated over the rows
    rows = rows_of(np.tile(float_cells(table.s_grid), n_m), np.repeat(float_cells(table.m_values), n_s),
                   table.values.ravel())
    return {}, {"flow.csv": (["s", "m", "value"], rows), "flow_crossings.json": Records(table.crossing_columns)}


@_uses("qnumbers", "geometry")
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


@_uses("hopf")
def _cmd_hopf(args):
    computed = {}
    profile_params = {}
    if args.profile == "sech" or args.what in ("all", "window"):
        # the window depends on alpha alone (q1, C1, C2, h), not on the profile
        win = unitarity_window(args.c, GenDeformation(alpha=args.alpha))
    if args.profile == "constant":
        profile_params["b0"] = args.b0
    elif args.profile == "geometric":
        profile_params["f0"] = args.f0
    elif args.profile == "sech":
        width = win.f_max - win.f_min
        f_lo = args.f_lo if args.f_lo is not None else max(1.02, win.f_min + 0.05 * width)
        f_hi = args.f_hi if args.f_hi is not None else max(win.f_max - 0.05 * width, f_lo + 0.1)
        profile_params.update({"f_lo": f_lo, "f_hi": f_hi})
        computed.update({"f_lo": f_lo, "f_hi": f_hi})
    gd = GenDeformation(alpha=args.alpha, profile=args.profile, profile_params=profile_params)

    outputs = {}
    if args.what in ("all", "window"):
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
    write_csv and any other by write_json, then the run's manifest from the
    digests the writers return, and return the output paths; when a write
    fails, the files written so far are removed, the manifest included."""
    written, digested = [], []
    try:
        for name, data in outputs.items():
            written.append(outdir / name)
            if name.endswith(".csv"):
                header, rows = data
                digested.append(write_csv(written[-1], header, rows))
            else:
                digested.append(write_json(written[-1], data))
        paths = written[:]
        written.append(manifest_path(outdir, subcommand))
        write_manifest(outdir, subcommand, params, digested, __version__, argv, defaults)
    except BaseException:
        for path in written:
            try:
                path.unlink()
            except OSError:  # never written, or outdir is no directory
                pass
        raise
    return paths


def _output_directory(spec: str) -> Path:
    """The output directory, refused when it or its nearest existing
    ancestor is not a directory, so no command computes for nothing."""
    existing = spec
    while not os.path.isdir(existing):  # os.path, not pathlib: a stat is all this costs
        if os.path.exists(existing):
            raise argparse.ArgumentTypeError(f"argument --outdir: {existing} is not a directory")
        existing = os.path.dirname(existing) or os.curdir
    return Path(spec)


def _read_manifest(path):
    import json

    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"cannot read manifest {path}: {exc}") from None


def _rerun(source: str, outdir: Path, check: bool) -> int:
    """Run the recorded argv, with outdir as its last --outdir, parsed with
    the recorded config lines.  With check, the digests the replay's
    manifest records, taken as its outputs were written, must be the ones
    the source manifest records, file for file."""
    manifest = _read_manifest(source)
    if not (
        isinstance(manifest, dict)
        and isinstance(manifest.get("argv"), list)
        and isinstance(manifest.get("defaults"), dict)
    ):
        raise argparse.ArgumentTypeError(f"{source} records no argv and defaults to replay")
    recorded = manifest.get("outputs")
    if check and not (isinstance(recorded, dict) and isinstance(manifest.get("subcommand"), str)):
        raise argparse.ArgumentTypeError(f"{source} records no subcommand and outputs to check")
    # an argv or a config line this parser refuses is named here, not in
    # argparse's usage text, which knows no manifest
    with contextlib.redirect_stderr(io.StringIO()) as usage:
        try:
            refused = " ".join(build_parser().parse_known_args(manifest["argv"])[1])
        except SystemExit as exc:  # a value a flag refuses; a recorded --help exits 0, as at the run
            if not exc.code:
                raise
            refused = usage.getvalue().rpartition("error: ")[2].strip()
    if refused:
        raise argparse.ArgumentTypeError(f"{source} records arguments that qsu2 refuses: {refused}")
    argv = manifest["argv"] + [f"--outdir={outdir}"]  # argparse keeps the last --outdir
    try:
        with contextlib.redirect_stderr(io.StringIO()) as usage:
            args, defaults = _parse(argv, manifest["defaults"])
    except (SystemExit, argparse.ArgumentTypeError) as exc:
        why = usage.getvalue().rpartition("error: ")[2].strip() if isinstance(exc, SystemExit) else exc
        raise argparse.ArgumentTypeError(f"{source} records config lines that qsu2 refuses: {why}") from None
    code = _run(args, argv, defaults)
    if not check or code != EXIT_OK:
        return code
    replayed = _read_manifest(manifest_path(outdir, manifest["subcommand"]))["outputs"]
    faults = []
    for name in sorted(recorded.keys() | replayed.keys()):
        if name not in replayed:
            faults.append(f"{name}: recorded, not written by the replay")
        elif name not in recorded:
            faults.append(f"{name}: written by the replay, not recorded")
        elif replayed[name] != recorded[name]:
            faults.append(f"{name}: sha256 {replayed[name]} differs from the recorded {recorded[name]}")
    if faults:
        raise VerificationFailure(f"rerun --check against {source}: " + "; ".join(faults))
    return code


def _parse(argv: list, defaults: dict | None) -> tuple:
    """The namespace of argv, parsed with the config lines (defaults, else
    the --config file's) as flags ahead of it, and those lines."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if defaults is None:
        defaults = _config_defaults(args.config) if args.config else {}
    if defaults:
        root_argv, config_argv = _config_argv(parser, args.command, defaults)
        args = parser.parse_args(root_argv + argv, argparse.Namespace(config_argv=config_argv))
    return args, defaults


def _run(args, argv: list, defaults: dict) -> int:
    """Run args, parsed from argv with the config lines defaults, which its manifest records."""
    outdir = _output_directory(args.outdir or os.environ.get("QSU2_OUTDIR", "."))
    if args.command == "rerun":
        return _rerun(args.manifest, outdir, args.check)
    computed, outputs = DISPATCH[args.command](args)
    params = {k: v for k, v in vars(args).items() if k not in ("command", "outdir", "config", "potential_flags")}
    for path in _write_outputs(outdir, outputs, args.command, params | computed, argv, defaults):
        print(f"wrote {path}")
    return EXIT_OK


def main(argv=None) -> int:
    """Run one invocation."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args, defaults = _parse(argv, None)
        return _run(args, argv, defaults)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    # SingularDeformation is a ValueError; a MemoryError is an array the arguments size past any allocator
    except (argparse.ArgumentTypeError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGS
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (FloatingPointError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
