import pytest

import solispec as sp

PUBLIC = [
    "AsymptoticMode", "CertificateRecord", "ConditioningError", "ConfigurationError",
    "DomainError", "EigenPair", "ExtrapolationError", "GridField2", "GridMismatchError",
    "GroundState", "GroundStateError", "HypothesisError", "JostSolution", "ModeExpansion",
    "Nonlinearity", "PotentialMatrix", "ScanReport", "SingularityError", "SolispecError",
    "Thresholds", "__version__", "apply_H_potential", "asymptotic_modes", "certify_lambda",
    "control_scan", "decaying_solution", "decoupled_well_potential", "default_window",
    "discrete_eigenvalues", "expand_in_modes", "first_integral_residual",
    "fixed_point_residual", "invert_L", "negative_control", "potential_V",
    "potential_entries", "reflect_spectrum", "scan_embedded", "sech_well_levels",
    "solve_ground_state",
]

# test-only references now live in tests/oracles.py
REMOVED = [
    (sp, "integrate_from_mode"), (sp, "wronskian"), (sp, "assemble_matrix"),
    (sp, "apply_L_potential"), (sp, "far_field_fit"), (sp, "FarFieldFit"),
    (sp.JostSolution, "scaled"), (sp.GridField2, "swap"),
    (sp.GroundState, "index_of"), (sp.GroundState, "i_origin"),
]


def test_public_names():
    assert sorted(sp.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(sp, name)


@pytest.mark.parametrize("owner, name", REMOVED, ids=[n for _, n in REMOVED])
def test_removed_name_is_gone(owner, name):
    assert not hasattr(owner, name)
