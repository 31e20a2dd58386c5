"""Spectral certification toolkit for one-dimensional NLS solitary waves.

The pipeline: solve the even positive decaying standing-wave profile,
assemble the linearized matrix operator around it, construct the solution
decaying at +infinity for energies in the essential spectrum, and certify
per energy (via a parity witness at the origin and a mode-matching witness
at the far end) that no square-integrable eigenfunction exists there. A
decoupled sech^2-well operator, which genuinely carries an embedded
eigenvalue, serves as the negative control for the detector.
"""

__version__ = "0.1.0"

from .errors import (ConditioningError, ConfigurationError, DomainError,
                     ExtrapolationError, GridMismatchError, GroundStateError,
                     HypothesisError, SingularityError, SolispecError)
from .nonlinearity import Nonlinearity
from .ground_state import (FarFieldFit, GroundState, far_field_fit,
                           first_integral_residual, solve_ground_state)
from .linearized_operator import (EigenPair, GridField2, PotentialMatrix,
                                  apply_H_potential, apply_L_potential,
                                  assemble_matrix, decoupled_well_potential,
                                  discrete_eigenvalues, potential_V, potential_entries)
from .jost import (AsymptoticMode, JostSolution, ModeExpansion, asymptotic_modes,
                   decaying_solution, default_window, expand_in_modes,
                   integrate_from_mode, wronskian)
from .inversion import fixed_point_residual, invert_L
from .certificate import (CertificateRecord, ScanReport, Thresholds,
                          certify_lambda, control_scan, negative_control,
                          reflect_spectrum, scan_embedded, sech_well_levels)

__all__ = [
    "__version__",
    "SolispecError", "DomainError", "ExtrapolationError", "GridMismatchError",
    "SingularityError", "ConditioningError", "HypothesisError",
    "GroundStateError", "ConfigurationError",
    "Nonlinearity",
    "GroundState", "FarFieldFit", "solve_ground_state", "far_field_fit",
    "first_integral_residual",
    "PotentialMatrix", "GridField2", "EigenPair", "potential_V",
    "potential_entries", "decoupled_well_potential", "apply_H_potential",
    "apply_L_potential", "assemble_matrix", "discrete_eigenvalues",
    "AsymptoticMode", "JostSolution", "ModeExpansion", "asymptotic_modes",
    "decaying_solution", "integrate_from_mode", "expand_in_modes",
    "default_window", "wronskian",
    "invert_L", "fixed_point_residual",
    "Thresholds", "CertificateRecord", "ScanReport", "certify_lambda",
    "scan_embedded", "reflect_spectrum", "negative_control", "control_scan",
    "sech_well_levels",
]
