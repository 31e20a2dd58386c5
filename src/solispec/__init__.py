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
from .ground_state import GroundState, first_integral_residual, solve_ground_state
from .linearized_operator import (EigenPair, GridField2, PotentialMatrix, apply_H_potential,
                                  decoupled_well_potential, discrete_eigenvalues,
                                  potential_V, potential_entries)
from .jost import (AsymptoticMode, JostSolution, ModeExpansion, asymptotic_modes,
                   decaying_solution, default_window, expand_in_modes)
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
    "GroundState", "solve_ground_state", "first_integral_residual",
    "PotentialMatrix", "GridField2", "EigenPair", "potential_V",
    "potential_entries", "decoupled_well_potential", "apply_H_potential",
    "discrete_eigenvalues",
    "AsymptoticMode", "JostSolution", "ModeExpansion", "asymptotic_modes",
    "decaying_solution", "expand_in_modes", "default_window",
    "invert_L", "fixed_point_residual",
    "Thresholds", "CertificateRecord", "ScanReport", "certify_lambda",
    "scan_embedded", "reflect_spectrum", "negative_control", "control_scan",
    "sech_well_levels",
]
