"""Numerical toolkit for the complex q-deformation su_{e^{is}}(2).

Subpackages cover q-number arithmetic (`qnumbers`), classification of the
unitary representations (`classify`), explicit matrix representations
(`operators`), the generalized real deformation with its Hopf structure
(`hopf`), the one-dimensional Schrodinger potential realization
(`schrodinger`), Casimir level-set geometry (`geometry`), and a CLI
(`cli`) that emits reproducible CSV/JSON tables.
"""

__version__ = "0.1.0"

from .qnumbers import (
    Deformation,
    SingularDeformation,
    bracket_sequence,
    qnumber,
    qnumber_complex,
    qnumber_hyperbolic,
)
from .classify import (
    IntervalStructure,
    RepClass,
    RepDescriptor,
    Thresholds,
    allowed_m_set,
    class2a_enumerate,
    classify,
    continuous_series_c,
    interval_structure,
    thresholds,
    unitary_ok,
)
from .operators import (
    AlgebraReport,
    OperatorMatrix,
    UnitarityError,
    build_rep,
    continuous_ladder_coeff,
    ladder_coeff,
    verify_algebra,
)
from .hopf import (
    GenDeformation,
    HopfReport,
    UnitarityWindow,
    build_gen_rep,
    casimir_gen,
    conjugation_residual,
    deformation_f,
    hopf_axiom_report,
    sech_profile,
    spectrum_2jz,
    unitarity_window,
)
from .schrodinger import (
    EigenResult,
    PotentialProfile,
    RadialProfile,
    build_potential,
    coupled_solve,
    disjoint_support_pair,
    eigensolve,
    ladder_apply,
    liouville_factor,
    solve_f1,
    solve_f2,
)
from .geometry import (
    FlowTable,
    LevelSection,
    level_section,
    spectral_flow,
    topology_transition,
)
