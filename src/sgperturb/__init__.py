"""Numerical laboratory for feedback-type perturbations of operator
semigroups.

Two concrete worlds carry every construction:

* ``matrix`` — finite-dimensional triples ``(A, B, C)`` where everything has
  a dense-linear-algebra ground truth;
* ``transport`` — the unit-interval shift semigroup with a nonlocal boundary
  functional given by a measure, where everything has an exact
  method-of-characteristics ground truth.

The module layout follows the pipeline: :mod:`~sgperturb.numkit`
(validated arrays, matrix exponential, norms), :mod:`~sgperturb.toeplitz`
(block lower-triangular Toeplitz algebra), :mod:`~sgperturb.semigroup`
(the matrix world's triples and free dynamics), :mod:`~sgperturb.transport`
(its sibling, the transport world: grid functions, boundary measures, PDE
solver, spectra), :mod:`~sgperturb.admissibility` (the three
maps on a time grid), :mod:`~sgperturb.perturbation` (perturbed resolvents,
semigroups, growth checks, certificates), :mod:`~sgperturb.classical`
(bounded-control / bounded-observation verification suites) and
:mod:`~sgperturb.cli` (config-driven runs with deterministic reports).
"""

from .numkit import (ConvergenceError, NumericalRangeError, NumkitError,
                     ShapeError, SingularMatrixError,
                     UnsupportedExponentError, as_matrix, as_vector,
                     eigenvalues, expm, induced_norm, lanczos_norms,
                     make_rng, random_matrix, random_vector, solve,
                     vector_norm)
from .toeplitz import (BlockToeplitz, NormChain, column_norm,
                       feedback_norm_chain)
from .semigroup import MatrixDiscretization, MatrixTriple, rescale
from .transport import (BorelMeasure, GridFunction, LittleMassReport,
                        Trajectory, TransportDiscretization, TransportTriple,
                        as_grid_function, characteristic_roots,
                        dirichlet_operator, greiner_compatibility,
                        little_mass, phi_coefficients, shift_open, solve_pde,
                        transfer_scalar, upwind_generator,
                        volterra_resolvent_values)
from .admissibility import (FEEDBACK_MARGIN, AdmissibilityReport,
                            FeedbackReport, RescalingResiduals, SampledSignal,
                            TimeGrid, controllability_map, estimate_constants,
                            feedback_admissible, observability_map,
                            rescaled_map_identities, smooth_trial_signals)
from .perturbation import (FeedbackSingularError, GenerationCertificate,
                           GrowthCheckReport, generation_certificate,
                           long_horizon_growth_check,
                           variation_of_parameters_residual,
                           weiss_staffans_semigroup)
from .classical import SuiteReport, ds_suite, mv_suite, random_bounded_factor
from .cli import report_schema_version, validate_report

__version__ = "0.1.0"

__all__ = [
    # numkit
    "NumkitError", "ShapeError", "SingularMatrixError",
    "NumericalRangeError", "UnsupportedExponentError", "ConvergenceError",
    "as_matrix", "as_vector", "expm", "solve", "vector_norm", "induced_norm",
    "lanczos_norms", "eigenvalues", "make_rng",
    "random_matrix", "random_vector",
    # toeplitz
    "BlockToeplitz", "column_norm", "NormChain",
    "feedback_norm_chain",
    # semigroup
    "MatrixTriple", "MatrixDiscretization", "rescale",
    # transport
    "TransportTriple", "TransportDiscretization", "GridFunction",
    "shift_open", "volterra_resolvent_values", "as_grid_function",
    "BorelMeasure",
    "LittleMassReport", "Trajectory",
    "phi_coefficients", "dirichlet_operator", "little_mass",
    "solve_pde", "upwind_generator", "transfer_scalar",
    "characteristic_roots", "greiner_compatibility",
    # admissibility
    "TimeGrid", "SampledSignal", "AdmissibilityReport", "FeedbackReport",
    "RescalingResiduals", "FEEDBACK_MARGIN",
    "controllability_map", "observability_map",
    "estimate_constants", "feedback_admissible", "rescaled_map_identities",
    "smooth_trial_signals",
    # perturbation
    "FeedbackSingularError", "GrowthCheckReport",
    "GenerationCertificate", "weiss_staffans_semigroup",
    "variation_of_parameters_residual", "long_horizon_growth_check",
    "generation_certificate",
    # classical
    "SuiteReport", "ds_suite", "mv_suite", "random_bounded_factor",
    # cli
    "report_schema_version", "validate_report",
    "__version__",
]
