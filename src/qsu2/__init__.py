"""Numerical toolkit for the complex q-deformation su_{e^{is}}(2).

Its modules cover q-number arithmetic (`qnumbers`), classification of the
unitary representations (`classify`), explicit matrix representations
(`operators`), the generalized real deformation with its Hopf structure
(`hopf`), the one-dimensional Schrodinger potential realization
(`schrodinger`), Casimir level-set geometry (`geometry`), CSV/JSON output
and run manifests (`serialize`), and a CLI (`cli`) that emits reproducible
CSV/JSON tables.

`import qsu2` loads only the standard library.  The public names below
are attributes of the package, each imported with its module on first
access (PEP 562), so `qsu2.build_rep` loads `operators` and numpy but not
`hopf` or `schrodinger`.  `qsu2.classify` is the module; its function is
`qsu2.classify.classify`.  `import qsu2.cli`, `--version`, `--help` and an
argument error load no numpy either; a subcommand loads the modules its
names come from (see `qsu2.cli`).
"""

__version__ = "0.1.0"

# rows a truncation verifies nothing on at each edge of its basis; here, not
# in `operators`, so the CLI can bound --dim by it without loading numpy
EDGE_BUFFER = 2

_EXPORTS = {
    "qnumbers": (
        "Deformation",
        "SingularDeformation",
        "bracket_sequence",
        "qnumber",
        "qnumber_complex",
        "qnumber_hyperbolic",
    ),
    "classify": (
        "IntervalStructure",
        "RepClass",
        "RepDescriptor",
        "Thresholds",
        "allowed_m_set",
        "class2a_enumerate",
        "continuous_series_c",
        "interval_structure",
        "thresholds",
        "unitary_ok",
    ),
    "operators": (
        "AlgebraReport",
        "OperatorMatrix",
        "UnitarityError",
        "build_rep",
        "continuous_ladder_coeff",
        "ladder_coeff",
        "verify_algebra",
    ),
    "hopf": (
        "GenDeformation",
        "HopfReport",
        "UnitarityWindow",
        "build_gen_rep",
        "casimir_gen",
        "conjugation_residual",
        "deformation_f",
        "hopf_axiom_report",
        "sech_profile",
        "spectrum_2jz",
        "unitarity_window",
    ),
    "schrodinger": (
        "EigenResult",
        "PotentialProfile",
        "RadialProfile",
        "build_potential",
        "coupled_solve",
        "disjoint_support_pair",
        "eigensolve",
        "ladder_apply",
        "liouville_factor",
        "solve_f1",
        "solve_f2",
    ),
    "geometry": (
        "FlowTable",
        "LevelSection",
        "level_section",
        "spectral_flow",
        "topology_transition",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = (*_EXPORTS, "serialize", "csvcells", "cli")

__all__ = sorted(_SOURCE)


def __getattr__(name):
    """A submodule, or a public name from its module, imported on first access."""
    module = _SOURCE.get(name, name)
    if module not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # binds the submodule here; an __import__ is listed by -X importtime, an importlib call is not
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_SOURCE, *_MODULES})
