"""Periodic orbits of delay differential equations by piecewise
polynomial collocation on a spectral-element mesh.

Usual entry points: ``get_problem`` for the shipped equations,
``newton_solve`` for one orbit, ``continue_branch`` to follow a branch
in a parameter, ``convergence_study`` for error tables, and
``phi_m_defect`` as an independent check of a converged state.
"""

from .analysis import (
    BernsteinBound,
    CircleMapResult,
    ConvergenceCell,
    ConvergenceTable,
    bernstein_bound_fit,
    circle_map_analysis,
    convergence_study,
    err_and_amplitude,
    orbit_lag_map,
)
from .collocation import (
    DiscreteState,
    NewtonResult,
    NewtonSettings,
    default_constraints,
    newton_solve,
    resample_state,
    state_from_document,
    state_to_document,
    with_parameter,
)
from .continuation import (
    BranchPoint,
    continue_branch,
    hopf_initial_guess,
    mackey_glass_hopf,
    sd_quadratic_seed,
)
from .errors import (
    AnalyticityViolationError,
    CollapseError,
    ConfigError,
    FormatVersionError,
    InvalidArgumentError,
    MaxIterExceededError,
    NegativeDelayError,
    NewtonError,
    NoHopfError,
    NonFiniteResidualError,
    SemDdeError,
    SingularJacobianError,
    StepFailureError,
)
from .nodes import NodeFamily, NodeKind, gauss_weights, lebesgue_constant, \
    make_nodes
from .oracle import FixedPointDefect, phi_m_defect
from .piecewise import (
    FORMAT_VERSION,
    Mesh,
    PeriodicPiecewisePoly,
    PiecewiseProjection,
    project,
    sample_periodic,
)
from .problems import (
    DdeProblem,
    HopfData,
    get_problem,
    mackey_glass,
    scalar_hopf_point,
    sd_quadratic,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticityViolationError",
    "BernsteinBound",
    "BranchPoint",
    "CircleMapResult",
    "CollapseError",
    "ConfigError",
    "ConvergenceCell",
    "ConvergenceTable",
    "DdeProblem",
    "DiscreteState",
    "FORMAT_VERSION",
    "FixedPointDefect",
    "FormatVersionError",
    "HopfData",
    "InvalidArgumentError",
    "MaxIterExceededError",
    "Mesh",
    "NegativeDelayError",
    "NewtonError",
    "NewtonResult",
    "NewtonSettings",
    "NoHopfError",
    "NodeFamily",
    "NodeKind",
    "NonFiniteResidualError",
    "PeriodicPiecewisePoly",
    "PiecewiseProjection",
    "SemDdeError",
    "SingularJacobianError",
    "StepFailureError",
    "bernstein_bound_fit",
    "circle_map_analysis",
    "continue_branch",
    "convergence_study",
    "default_constraints",
    "err_and_amplitude",
    "gauss_weights",
    "get_problem",
    "hopf_initial_guess",
    "lebesgue_constant",
    "mackey_glass",
    "mackey_glass_hopf",
    "make_nodes",
    "newton_solve",
    "orbit_lag_map",
    "phi_m_defect",
    "project",
    "resample_state",
    "sample_periodic",
    "scalar_hopf_point",
    "sd_quadratic",
    "sd_quadratic_seed",
    "state_from_document",
    "state_to_document",
    "with_parameter",
    "__version__",
]
