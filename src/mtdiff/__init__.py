"""Multitask diffusion adaptation over networks.

Simulation engine, closed-form steady-state theory, and experiment tooling
for diffusion LMS with a graph-Laplacian smoothness penalty: N nodes each
estimate their own regression vector while a penalty of strength eta pulls
neighboring estimates together.  The library answers the questions that
matter when tuning such a network — where the regularized solution sits, how
biased and how noisy the adaptive iterates are around it, and which eta
minimizes the error against the true per-node targets.
"""

from .engine import (
    SimConfig,
    SimResult,
    default_horizon,
    monte_carlo,
    monte_carlo_many,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    Disconnected,
    GraphError,
    InvalidArgument,
    MtdiffError,
    NegativeWeight,
    NonUniformProfile,
    NonzeroDiagonal,
    NotSymmetric,
    NumericalDivergence,
    SingularSystem,
    UnstableConfiguration,
)
from .graphs import (
    Graph,
    StackedSignal,
    build_graph,
    gft,
    igft,
    load_edge_list,
    random_geometric_graph,
    smoothness,
)
from .tasks import (
    TaskEnsemble,
    make_smooth_target,
    scalar_profile,
    uniform_profile,
    varying_profile,
)
from .theory import (
    EtaSweep,
    RegularizedSolution,
    StabilityCondition,
    StabilityVerdict,
    TheoryReport,
    bias_surface,
    check_stability,
    msd_noncoop,
    optimize_eta,
    solve_regularized,
    theory_report,
)

__version__ = "0.1.0"

# Bumped whenever a module's numerical behavior changes; recorded in every
# output file's metadata header so results stay attributable.
MODULE_VERSIONS = {
    "graphs": 2,
    "tasks": 2,
    "engine": 2,
    "theory": 5,
}

__all__ = [
    "ConfigError",
    "DimensionMismatch",
    "Disconnected",
    "EtaSweep",
    "Graph",
    "GraphError",
    "InvalidArgument",
    "MODULE_VERSIONS",
    "MtdiffError",
    "NegativeWeight",
    "NonUniformProfile",
    "NonzeroDiagonal",
    "NotSymmetric",
    "NumericalDivergence",
    "RegularizedSolution",
    "SimConfig",
    "SimResult",
    "SingularSystem",
    "StabilityCondition",
    "StabilityVerdict",
    "StackedSignal",
    "TaskEnsemble",
    "TheoryReport",
    "UnstableConfiguration",
    "__version__",
    "bias_surface",
    "build_graph",
    "check_stability",
    "default_horizon",
    "gft",
    "igft",
    "load_edge_list",
    "make_smooth_target",
    "monte_carlo",
    "monte_carlo_many",
    "msd_noncoop",
    "optimize_eta",
    "random_geometric_graph",
    "scalar_profile",
    "smoothness",
    "solve_regularized",
    "theory_report",
    "uniform_profile",
    "varying_profile",
]
