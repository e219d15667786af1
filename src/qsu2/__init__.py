"""Numerical toolkit for the complex q-deformation su_{e^{is}}(2).

Its modules cover q-number arithmetic (`qnumbers`), classification of the
unitary representations (`classify`), explicit matrix representations
(`operators`), the generalized real deformation with its Hopf structure
(`hopf`), the one-dimensional Schrodinger potential realization
(`schrodinger`), Casimir level-set geometry (`geometry`), CSV/JSON output
and run manifests (`serialize`), and a CLI (`cli`) that emits reproducible
CSV/JSON tables.

`import qsu2` loads only the standard library.  Each public name lives at
its module: `from qsu2.operators import build_rep`.  `import qsu2.cli`,
`--version`, `--help` and an argument error load no numpy either; a
subcommand loads the modules its names come from (see `qsu2.cli`).
"""

__version__ = "0.1.0"

# rows a truncation verifies nothing on at each edge of its basis; here, not
# in `operators`, so the CLI can bound --dim by it without loading numpy
EDGE_BUFFER = 2
