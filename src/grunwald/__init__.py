"""Grunwald-type approximations of fractional derivatives built from
generating functions, with steady-state and Crank-Nicolson diffusion
solvers and a convergence/stability harness."""

from .series import InconsistentGeneratorError, normalized_symbol
from .generators import (
    GeneratorSpec,
    OrderReport,
    WeightSequence,
    a2_coefficient,
    beta_table,
    combination_leading_coefficient,
    construct_beta,
    convex_combination_check,
    grunwald_weights,
    lubich_generator,
    verify_order,
    weight_sign_report,
)
from .operators import GridSpec, SolverFailure
from .steady import (
    ScanEntry,
    StabilityReport,
    SteadyProblem,
    solve_steady,
    stability_scan,
)
from .diffusion import (
    CNSystem,
    DiffusionProblem,
    StabilityBoundReport,
    cn_solve,
    fractional_poly_source,
    stability_estimate_check,
)
from .problems import (
    polynomial_diffusion_problem,
    polynomial_steady_problem,
)
from .harness import (
    ConvergenceReport,
    ConvergenceRow,
    PropertySuiteReport,
    RunConfig,
    TableDiffReport,
    read_report_csv,
    reproduce_table,
    run_convergence,
    run_property_suite,
    write_report_csv,
    write_report_json,
)

__version__ = "0.1.0"

__all__ = [
    "normalized_symbol",
    "InconsistentGeneratorError",
    "GeneratorSpec",
    "WeightSequence",
    "OrderReport",
    "beta_table",
    "construct_beta",
    "lubich_generator",
    "grunwald_weights",
    "verify_order",
    "a2_coefficient",
    "convex_combination_check",
    "combination_leading_coefficient",
    "weight_sign_report",
    "GridSpec",
    "SolverFailure",
    "SteadyProblem",
    "solve_steady",
    "stability_scan",
    "StabilityReport",
    "ScanEntry",
    "DiffusionProblem",
    "CNSystem",
    "cn_solve",
    "fractional_poly_source",
    "stability_estimate_check",
    "StabilityBoundReport",
    "polynomial_steady_problem",
    "polynomial_diffusion_problem",
    "RunConfig",
    "ConvergenceRow",
    "ConvergenceReport",
    "run_convergence",
    "reproduce_table",
    "TableDiffReport",
    "run_property_suite",
    "PropertySuiteReport",
    "write_report_csv",
    "write_report_json",
    "read_report_csv",
]
