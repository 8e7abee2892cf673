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
(system triples and free dynamics), :mod:`~sgperturb.transport` (boundary
measures, PDE solver, spectra), :mod:`~sgperturb.admissibility` (the three
maps on a time grid), :mod:`~sgperturb.perturbation` (perturbed resolvents,
semigroups, growth checks, certificates), :mod:`~sgperturb.classical`
(bounded-control / bounded-observation verification suites) and
:mod:`~sgperturb.cli` (config-driven runs with deterministic reports).
"""

from .numkit import (ConvergenceError, NumericalRangeError, NumkitError,
                     ShapeError, SingularMatrixError,
                     UnsupportedExponentError, as_matrix, as_vector,
                     eigenvalues, expm, induced_norm, make_rng, norm_bounds,
                     random_matrix, random_vector, solve,
                     spectral_radius_distance, vector_norm)
from .toeplitz import (BlockToeplitz, NormChain, apply,
                       feedback_inverse_norm_bound, feedback_norm_chain,
                       feedback_toeplitz_inverse, materialize, norm_bound)
from .semigroup import (NILPOTENT_SENTINEL, GridFunction, MatrixTriple,
                        SpectralAbscissa, TransportTriple, apply_semigroup,
                        as_grid_function, rescale, resolvent, shift_open,
                        spectral_abscissa, volterra_resolvent_values)
from .transport import (BorelMeasure, LittleMassReport, Trajectory,
                        apply_phi, characteristic_roots, dirichlet_operator,
                        greiner_compatibility, little_mass, phi_coefficients,
                        solve_pde, transfer_scalar, upwind_generator)
from .admissibility import (FEEDBACK_MARGIN, AdmissibilityReport,
                            FeedbackReport, RegularityReport,
                            RescalingResiduals, SampledSignal, TimeGrid,
                            controllability_map, estimate_constants,
                            feedback_admissible, io_map, io_matrix,
                            observability_map, regularity_check,
                            rescaled_map_identities, smooth_trial_signals)
from .perturbation import (FeedbackSingularError, GenerationCertificate,
                           GrowthCheckReport, PerturbedGenerator,
                           generation_certificate, long_horizon_growth_check,
                           perturbed_generator, perturbed_resolvent,
                           transfer_function, variation_of_parameters_residual,
                           weiss_staffans_semigroup)
from .classical import (SuiteReport, dissipative_matrix, ds_suite, mv_suite,
                        random_bounded_factor)
from .cli import report_schema_version, validate_report

__version__ = "0.1.0"

__all__ = [
    # numkit
    "NumkitError", "ShapeError", "SingularMatrixError",
    "NumericalRangeError", "UnsupportedExponentError", "ConvergenceError",
    "as_matrix", "as_vector", "expm", "solve", "vector_norm", "induced_norm",
    "norm_bounds", "eigenvalues", "spectral_radius_distance", "make_rng",
    "random_matrix", "random_vector",
    # toeplitz
    "BlockToeplitz", "apply", "materialize", "norm_bound",
    "feedback_toeplitz_inverse", "NormChain", "feedback_norm_chain",
    "feedback_inverse_norm_bound",
    # semigroup
    "MatrixTriple", "TransportTriple", "GridFunction", "SpectralAbscissa",
    "NILPOTENT_SENTINEL", "shift_open", "apply_semigroup",
    "volterra_resolvent_values", "resolvent", "as_grid_function", "rescale",
    "spectral_abscissa",
    # transport
    "BorelMeasure", "LittleMassReport", "Trajectory", "phi_coefficients",
    "apply_phi", "dirichlet_operator", "little_mass", "solve_pde",
    "upwind_generator", "transfer_scalar", "characteristic_roots",
    "greiner_compatibility",
    # admissibility
    "TimeGrid", "SampledSignal", "AdmissibilityReport", "FeedbackReport",
    "RescalingResiduals", "RegularityReport", "FEEDBACK_MARGIN",
    "controllability_map", "observability_map", "io_map", "io_matrix",
    "estimate_constants", "feedback_admissible", "rescaled_map_identities",
    "regularity_check", "smooth_trial_signals",
    # perturbation
    "FeedbackSingularError", "PerturbedGenerator", "GrowthCheckReport",
    "GenerationCertificate", "perturbed_generator", "perturbed_resolvent",
    "transfer_function", "weiss_staffans_semigroup",
    "variation_of_parameters_residual", "long_horizon_growth_check",
    "generation_certificate",
    # classical
    "SuiteReport", "ds_suite", "mv_suite", "dissipative_matrix",
    "random_bounded_factor",
    # cli
    "report_schema_version", "validate_report",
    "__version__",
]
