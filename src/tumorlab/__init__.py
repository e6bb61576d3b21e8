"""Radial two-species tumor model: stationary states, transport dynamics,
linearized decay rates, flow-map calculus and stability experiments."""

__version__ = "0.1.0"

from .errors import (ConfigError, ExperimentFailure, GridMismatchError,
                     SolverError)
from .experiments import (RunConfig, StabilityReport, SweepSummary,
                          config_from_text, config_to_text, emit_report,
                          run_stability_experiment, sweep)
from .grid import RadialField, RadialGrid
from .kinetics import KineticsSpec, eval_rates, validate_hypotheses
from .linearized import (DecayReport, LinearizedOperators, apply_B, apply_F,
                         build_operators, decay_ensemble, fit_decay,
                         laplace_consistency, pure_transport,
                         resolvent_apply, solve_linearized)
from .nutrient import NutrientSolution, solve_nutrient
from .simmaps import (BoundsReport, DiffeoMaps, FStarTable, build_fstar,
                      build_maps, check_map_bounds, make_perturbed_velocity,
                      map_S, map_T, phi, phi_star, psi, psi_star)
from .stationary import StationarySolution, solve_stationary
from .transport import TumorState, Trajectory, picard_solve, simulate
from .velocity import VelocityField, radial_velocity

__all__ = [
    "ConfigError", "ExperimentFailure", "GridMismatchError", "SolverError",
    "RunConfig", "StabilityReport", "SweepSummary", "config_from_text",
    "config_to_text", "emit_report", "run_stability_experiment", "sweep",
    "RadialField", "RadialGrid",
    "KineticsSpec", "eval_rates", "validate_hypotheses",
    "DecayReport", "LinearizedOperators", "apply_B", "apply_F",
    "build_operators", "decay_ensemble", "fit_decay", "laplace_consistency",
    "pure_transport", "resolvent_apply", "solve_linearized",
    "NutrientSolution", "solve_nutrient",
    "BoundsReport", "DiffeoMaps", "FStarTable", "build_fstar", "build_maps",
    "check_map_bounds", "make_perturbed_velocity", "map_S", "map_T", "phi",
    "phi_star", "psi", "psi_star",
    "StationarySolution", "solve_stationary",
    "TumorState", "Trajectory", "picard_solve", "simulate",
    "VelocityField", "radial_velocity",
    "__version__",
]
