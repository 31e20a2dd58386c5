import numpy as np
import pytest

import solispec as sp
from oracles import apply_L


def test_zero_input_gives_zero(gs_cubic):
    xs, u = sp.invert_L("-", gs_cubic, np.zeros_like(gs_cubic.x), x0=1.0)
    assert np.max(np.abs(u)) == 0.0


@pytest.mark.parametrize("sign", ["-", "+"])
def test_round_trip_exponential(gs_cubic, nl_cubic, sign):
    """invert_L(L w) recovers w = exp(-2x) on [1, R-5] to 1e-6."""
    w = np.exp(-2.0 * gs_cubic.x)
    v = apply_L(sp.potential_V(gs_cubic, nl_cubic), sign, w)
    xs, u = sp.invert_L(sign, gs_cubic, v, x0=1.0)
    keep = xs <= gs_cubic.R - 5.0
    assert np.max(np.abs(u - np.exp(-2.0 * xs))[keep]) <= 1e-6


def test_forward_check(gs_cubic, nl_cubic):
    """L(invert_L(v)) returns v within stencil + quadrature tolerance."""
    x = gs_cubic.x
    v = np.exp(-2.0 * x) * (1.0 + np.sin(x)) * np.exp(-0.5 * x)
    xs, u = sp.invert_L("-", gs_cubic, v, x0=1.0)
    # embed u back into a full-grid function that decays on the left part
    full = np.zeros_like(x)
    i0 = int(round((1.0 + gs_cubic.R) / gs_cubic.h))
    full[i0:] = u
    lv = apply_L(sp.potential_V(gs_cubic, nl_cubic), "-", full)
    inner = (x >= 2.0) & (x <= gs_cubic.R - 5.0)
    assert np.max(np.abs(lv - v)[inner]) <= 5e-6


def test_linearity(gs_cubic):
    x = gs_cubic.x
    v1 = np.exp(-2.0 * x)
    v2 = np.exp(-1.7 * x) * np.cos(x)
    a, b = 0.6, -2.2
    _, u1 = sp.invert_L("-", gs_cubic, v1)
    _, u2 = sp.invert_L("-", gs_cubic, v2)
    _, uc = sp.invert_L("-", gs_cubic, a * v1 + b * v2)
    scale = np.max(np.abs(a * u1 + b * u2))
    assert np.max(np.abs(uc - (a * u1 + b * u2))) <= 1e-10 * scale


def test_output_decay_exceeds_sqrt_mu(gs_cubic):
    """The decaying inverse inherits the input rate, beating exp(-sqrt(mu) x)."""
    v = np.exp(-2.0 * gs_cubic.x)
    xs, u = sp.invert_L("-", gs_cubic, v, x0=1.0)
    mask = (xs >= 10.0) & (xs <= 20.0)
    rate = -np.polyfit(xs[mask], np.log(np.abs(u[mask])), 1)[0]
    assert rate > np.sqrt(gs_cubic.mu) * 1.5


def test_slow_decay_rejected(gs_cubic):
    v = np.exp(-0.9 * gs_cubic.x)   # slower than sqrt(mu) = 1
    with pytest.raises(sp.HypothesisError):
        sp.invert_L("-", gs_cubic, v, x0=1.0)


def test_lplus_at_origin_rejected(gs_cubic):
    with pytest.raises(sp.SingularityError):
        sp.invert_L("+", gs_cubic, np.exp(-2.0 * gs_cubic.x), x0=0.0)


def test_x0_off_the_half_line_rejected(gs_cubic):
    """x0 beyond the wall or not a number is refused before any grid index is formed."""
    v = np.exp(-2.0 * gs_cubic.x)
    for x0 in (gs_cubic.R + 5.0, gs_cubic.R, float("nan"), float("inf")):
        for sign in ("-", "+"):
            with pytest.raises(sp.DomainError, match="right half-line"):
                sp.invert_L(sign, gs_cubic, v, x0=x0)


def test_x0_past_the_decay_check_rejected(nl_cubic):
    """The decay check reads the two windows of width 3/sqrt(mu) at R; an x0 past
    R - 6/sqrt(mu) would empty the first and skip the check, so it is refused, while a
    slow input from x0 = 1 still fails the check (R = 20, v = exp(-x/2))."""
    gs = sp.solve_ground_state(nl_cubic, 1.0, R=20.0, h=2e-3)
    v = np.exp(-0.5 * gs.x)
    with pytest.raises(sp.HypothesisError):
        sp.invert_L("-", gs, v, x0=1.0)
    for x0 in (17.0, 19.99):
        with pytest.raises(sp.DomainError, match="decay check"):
            sp.invert_L("-", gs, v, x0=x0)


@pytest.mark.parametrize("lam", [1.5, 2.0, 5.0])
def test_fixed_point_identities_for_decaying_solution(gs_cubic, nl_cubic, lam):
    sol = sp.decaying_solution(lam, gs_cubic, nl_cubic)
    u = sol.f + sol.g
    v = sol.f - sol.g
    r_u, r_v = sp.fixed_point_residual(gs_cubic, u, v, lam)
    assert r_u <= 1e-6
    assert r_v <= 1e-6


def test_trivial_fixed_point(gs_cubic):
    z = np.zeros_like(gs_cubic.x)
    r_u, r_v = sp.fixed_point_residual(gs_cubic, z, z, 0.0)
    assert (r_u, r_v) == (0.0, 0.0)


def test_perturbation_sensitivity(gs_cubic, nl_cubic, jost_cubic_2):
    """Adding a bump of size delta moves the residual by at least delta/2."""
    sol = jost_cubic_2
    u = sol.f + sol.g
    v = sol.f - sol.g
    delta = 1e-3
    bump = delta * np.exp(-((gs_cubic.x - 3.0) ** 2))
    r_u0, _ = sp.fixed_point_residual(gs_cubic, u, v, sol.lam)
    r_u1, _ = sp.fixed_point_residual(gs_cubic, u + bump, v, sol.lam)
    assert r_u1 - r_u0 >= delta / 2.0
