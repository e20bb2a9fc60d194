"""Numerical laboratory for singular quasilinear Dirichlet problems.

Young-function calculus (conjugation, growth indices, critical-growth
conjugates, ordering), a hypothesis audit and parameter-threshold
calculator, and a 1D variational solver producing two solutions via a
constrained minimum and a mountain-pass search.
"""

__version__ = "0.1.0"

from .errors import (
    CaseContradictionError,
    ConfigError,
    ConstructionError,
    EvalDomainError,
    OutOfRangeError,
    PhilapError,
    SingularIntegrandError,
    SolverError,
    UnclassifiableError,
)
from .orlicz import (
    Grid,
    GridFunction,
    cell_gradient,
    energy_modular,
    estimate_embedding_constant,
    luxemburg_norm,
    modular,
)
from .problems import (
    HypothesisReport,
    ProblemSpec,
    Reaction,
    builtin_example,
    check_ha1,
    check_ha2,
    check_hf1,
    check_hf2,
    check_hf3,
    load_problem,
    run_all_checks,
)
from .solver import (
    DeGiorgiReport,
    EnergyState,
    MountainPassResult,
    SubSolution,
    build_subsolution,
    degiorgi_bound,
    energy_and_gradient,
    first_solution,
    first_stage,
    mountain_pass,
    solution_stage,
    solve_torsion,
    threshold_stage,
    truncate_reaction,
    two_solution_pipeline,
    uphill_endpoint,
    verify_solution,
)
from .threshold import (
    GrowthCase,
    ThresholdResult,
    TruncationConstants,
    case_four_minimum,
    classify,
    kappa_curve,
    lambda_star,
    truncation_constants,
)
from .young import (
    IndexPair,
    Ordering,
    PathologicalParams,
    YoungFunction,
    build_pathological,
    compute_indices,
    conjugate_inverse,
    delta2_nabla2,
    exp_young,
    inverse_value,
    log_grid,
    log_power_young,
    ordering,
    power_over_p_young,
    power_young,
    scaling_bound_lower,
    scaling_bound_upper,
    sobolev_conjugate,
    young_conjugate,
)
