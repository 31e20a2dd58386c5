import numpy as np
import pytest

import solispec as sp
from conftest import sech_profile


def test_cubic_matches_sech_closed_form(gs_cubic):
    """Substituting the closed form: Q = sqrt(2)/cosh solves the cubic equation."""
    exact = sech_profile(gs_cubic.x)
    mask = np.abs(gs_cubic.x) <= 20.0
    assert np.max(np.abs(gs_cubic.Q - exact)[mask]) <= 1e-8
    assert gs_cubic.shoot_value == pytest.approx(np.sqrt(2.0), abs=1e-10)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_power_matches_sech_closed_form(p, gs_cubic):
    """F(s) = s^p: Q = ((p+1) mu)^(1/2p) sech^(1/p)(p sqrt(mu) x); p = 1 is sqrt(2)/cosh."""
    mu = 1.0
    gs = gs_cubic if p == 1.0 else sp.solve_ground_state(sp.Nonlinearity.power(p), mu)
    peak = ((p + 1.0) * mu) ** (1.0 / (2.0 * p))
    exact = peak / np.cosh(p * np.sqrt(mu) * gs.x) ** (1.0 / p)
    mask = np.abs(gs.x) <= 20.0
    assert np.max(np.abs(gs.Q - exact)[mask]) <= 1e-8
    assert gs.shoot_value == pytest.approx(peak, abs=1e-10)


def test_shoot_value_satisfies_conserved_quantity(gs_cubic, nl_cubic):
    q0 = gs_cubic.shoot_value
    assert abs(gs_cubic.mu * q0**2 - nl_cubic.G(q0**2)) <= 1e-10


def test_cubic_scaling_symmetry(nl_cubic):
    """Q_mu(x) = sqrt(mu) * Q_1(sqrt(mu) x) for the pure cubic equation."""
    gs4 = sp.solve_ground_state(nl_cubic, 4.0)
    assert gs4.shoot_value == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-9)
    scaled = 2.0 * sech_profile(2.0 * gs4.x)
    assert np.max(np.abs(gs4.Q - scaled)) <= 1e-8


def test_profile_invariants(gs_cubic):
    gs = gs_cubic
    n = (len(gs.x) - 1) // 2
    assert np.all(gs.Q > 0)
    assert np.max(np.abs(gs.Q - gs.Q[::-1])) == 0.0          # even by construction
    assert gs.Qp[n] == 0.0
    assert np.all(gs.Qp[n + 1:] < 0)
    assert np.all(gs.Qp[:n] > 0)


def test_first_integral_residual_small_at_defaults(gs_cubic, nl_cubic):
    assert sp.first_integral_residual(gs_cubic, nl_cubic) <= 1e-10


def test_first_integral_of_exact_closed_form(gs_cubic, nl_cubic):
    """Closed-form oracle sampled on the grid has residual at rounding level."""
    Q = sech_profile(gs_cubic.x)
    Qp = -np.sqrt(2.0) * np.tanh(gs_cubic.x) / np.cosh(gs_cubic.x)
    res = np.max(np.abs(Qp**2 - Q**2 + nl_cubic.G(Q**2)))
    assert res <= 1e-10


def test_first_integral_of_zero_profile(nl_cubic):
    assert np.max(np.abs(np.zeros(5) ** 2 - np.zeros(5) + nl_cubic.G(np.zeros(5)))) == 0.0


def test_grid_refinement_second_order(nl_cubic):
    """Measured profile-equation residual is stencil limited: ratio ~ 4 under h -> h/2."""
    gs_h = sp.solve_ground_state(nl_cubic, 1.0, R=20.0, h=2e-3)
    gs_h2 = sp.solve_ground_state(nl_cubic, 1.0, R=20.0, h=1e-3)
    ratio = gs_h.ode_residual / gs_h2.ode_residual
    assert 2**1.4 <= ratio <= 2**2.6


def test_other_families_solve_and_decay():
    for nl in (sp.Nonlinearity.cubic_quintic(0.1), sp.Nonlinearity.saturable(0.5)):
        gs = sp.solve_ground_state(nl, 1.0, R=20.0, h=2e-3)
        assert abs(gs.rate - 1.0) <= 1e-3
        assert sp.first_integral_residual(gs, nl) <= 1e-10


def test_saturable_small_beta_solves():
    """saturable(1e-8) is within 1e-8 of the cubic; its G comes from the series in b s,
    since the closed form s/b - log1p(b s)/b^2 cancels there."""
    nl = sp.Nonlinearity.saturable(1e-8)
    gs = sp.solve_ground_state(nl, 1.0, R=20.0, h=2e-3)
    assert sp.first_integral_residual(gs, nl) <= 1e-10


def test_steep_power_law_seed_probe():
    """The seed probe's G overflows far beyond the first root for power(40); that is
    no warning, and the peak is the root of G(s) = mu*s."""
    gs = sp.solve_ground_state(sp.Nonlinearity.power(40.0), 1.0)
    assert gs.shoot_value == pytest.approx(41.0 ** (1.0 / 80.0), abs=1e-12)


def test_no_ground_state_raises_with_diagnostic():
    """Saturable F bounded by 1/beta < mu admits no decaying even profile."""
    with pytest.raises(sp.GroundStateError, match="bracket"):
        sp.solve_ground_state(sp.Nonlinearity.saturable(2.0), 1.0)


def test_bad_mu_rejected(nl_cubic):
    with pytest.raises(sp.DomainError):
        sp.solve_ground_state(nl_cubic, -1.0)


def test_coarse_grid_rejected(nl_cubic):
    """Fewer than 10 nodes before the tail anchor leave no far-field fit window."""
    with pytest.raises(sp.DomainError, match="fewer than 10 grid points"):
        sp.solve_ground_state(nl_cubic, 1.0, R=12.0, h=1.2)
