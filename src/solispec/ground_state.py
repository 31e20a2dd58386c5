"""Even, positive, exponentially decaying standing-wave profiles.

Solves Q'' - mu*Q + F(Q^2)*Q = 0 on a symmetric uniform grid for the
ground-state profile: Q even, Q > 0, Q' < 0 on (0, R], with far field
Q(x) ~ c0 * exp(-sqrt(mu) * x).

Method. Shoot from x = 0 with Q'(0) = 0 and bisect on Q(0) between the
overshoot branch (Q crosses zero) and the undershoot branch (Q turns back
up). The bisection is seeded from the conserved quantity
Q'^2 - mu*Q^2 + G(Q^2), whose vanishing at x = 0 pins Q(0) algebraically.
Outward shooting alone cannot hold the profile to better than roughly
1e-8 near the tail (errors ride the growing mode), so the profile is then
polished: a single secant iteration on the tail amplitude c integrates the
pure far field c*exp(-sqrt(mu)*x) backward from a trust point x_far down to
0, enforcing the evenness condition Q'(0) = 0. Backward integration is the
contracting direction, so the polished samples are accurate to integrator
tolerance. Beyond x_far the samples are the fitted exponential itself.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import DomainError, GroundStateError, HypothesisError
from .nonlinearity import Nonlinearity

R_FACTOR = 30.0          # default half-width: R = 30 / sqrt(mu)
H_FACTOR = 1e-3          # default spacing:    h = 1e-3 / sqrt(mu)
X_FAR_FACTOR = 12.0      # tail anchor for the backward polish
EVENT_SETBACK = 4.0      # keep x_far this far inside the clean region
MIN_X_FAR = 6.0          # below this the far field is not asymptotic yet


class FarFieldFit(NamedTuple):
    c0: float
    rate: float
    residual: float


@dataclass(frozen=True)
class GroundState:
    """Sampled ground-state profile on a symmetric uniform grid.

    Arrays cover [-R, R] with spacing h; Q is even and Qp = Q' is odd.
    Samples with x > x_replace are the exponential tail
    tail_amplitude * exp(-tail_rate * x) spliced C^1 at x_replace.
    c0 and rate come from a log-linear far-field fit of the raw samples
    and double as decay diagnostics. ode_residual is measured with the
    second-order centered stencil, so it converges at order 2 under grid
    refinement (the adaptive integrator itself contributes no h dependence).
    """

    mu: float
    R: float
    h: float
    x: np.ndarray
    Q: np.ndarray
    Qp: np.ndarray
    shoot_value: float
    c0: float
    rate: float
    fit_residual: float
    tail_amplitude: float
    tail_rate: float
    x_replace: float
    first_integral_max: float
    ode_residual: float

    @property
    def i_origin(self) -> int:
        return (len(self.x) - 1) // 2

    def index_of(self, xv: float) -> int:
        i = int(round((xv + self.R) / self.h))
        if not (0 <= i < len(self.x)) or abs(self.x[i] - xv) > 1e-9 * max(1.0, self.R):
            raise DomainError(f"x = {xv} is not a grid point of this profile")
        return i


def _rhs(nl: Nonlinearity, mu: float):
    F = nl.F

    def rhs(_x, y):
        q, p = y
        return (p, mu * q - F(q * q) * q)

    return rhs


def _events():
    def hit_zero(_x, y):
        return y[0]

    hit_zero.terminal = True
    hit_zero.direction = -1.0

    def turn_up(_x, y):
        return y[1]

    turn_up.terminal = True
    turn_up.direction = 1.0

    return hit_zero, turn_up


def _first_event(sol, x_end: float):
    """'high' with the zero crossing, else 'low' with the turning point or x_end."""
    for kind, hits in zip(("high", "low"), sol.t_events):
        if hits.size:
            return kind, float(hits[0])
    return "low", float(x_end)


def _classify(nl, mu, q0, R, rtol=1e-11):
    """Classify a shot: 'high' crosses zero, 'low' turns back up."""
    sol = solve_ivp(_rhs(nl, mu), (0.0, R), [q0, 0.0], method="DOP853",
                    rtol=rtol, atol=1e-14 * q0, events=_events(), dense_output=False)
    return _first_event(sol, sol.t[-1])


def _shoot_seed(nl, mu):
    """First positive root of G(s) - mu*s; the conserved quantity forces
    Q(0)^2 to sit there for any decaying even profile."""
    def phi(s):
        return nl.G(s) - mu * s

    s_hi_cap = 1e9
    if nl.family == "tabulated":
        s_hi_cap = nl.table[0][-1]
    grid = np.geomspace(1e-8 * max(mu, 1e-8), s_hi_cap, 600)
    vals = phi(grid)
    pos = np.nonzero(vals > 0)[0]
    if pos.size == 0:
        raise GroundStateError(
            "no shooting bracket: G(s) never exceeds mu*s on the probed range, "
            f"so no decaying even profile exists for mu = {mu} and this nonlinearity")
    i = pos[0]
    if i == 0:
        raise GroundStateError("G(s) - mu*s already positive at the smallest probed s; "
                               "nonlinearity does not vanish fast enough at 0")
    s_star = brentq(phi, grid[i - 1], grid[i], xtol=1e-300, rtol=1e-15)
    return math.sqrt(s_star)


def _bisect_shoot(nl, mu, q0_seed, R):
    lo = q0_seed * (1.0 - 1e-3)
    hi = q0_seed * (1.0 + 1e-3)
    for _ in range(12):
        if _classify(nl, mu, lo, R)[0] == "low":
            break
        lo *= 0.98
    else:
        raise GroundStateError("could not establish the undershoot side of the bracket")
    for _ in range(12):
        if _classify(nl, mu, hi, R)[0] == "high":
            break
        hi *= 1.02
    else:
        raise GroundStateError("could not establish the overshoot side of the bracket")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _classify(nl, mu, mid, R)[0] == "high":
            hi = mid
        else:
            lo = mid
        if hi - lo <= 8 * np.finfo(float).eps * hi:
            break
    return 0.5 * (lo + hi)


def _polish_tail_amplitude(nl, mu, c_seed, x_far, q_scale, rtol=1e-13):
    """Secant on the tail amplitude so the backward sweep lands on Q'(0) = 0."""
    sq = math.sqrt(mu)
    rhs = _rhs(nl, mu)
    atol = 1e-16 * q_scale

    def qp_at_zero(c):
        q = c * math.exp(-sq * x_far)
        sol = solve_ivp(rhs, (x_far, 0.0), [q, -sq * q], method="DOP853",
                        rtol=rtol, atol=atol)
        if not sol.success:
            raise GroundStateError(f"backward polish integration failed: {sol.message}")
        return float(sol.y[1, -1])

    c_a, c_b = c_seed, c_seed * (1.0 + 1e-6)
    f_a, f_b = qp_at_zero(c_a), qp_at_zero(c_b)
    target = 1e-13 * sq * q_scale
    for _ in range(30):
        if abs(f_b) <= target or f_b == f_a:
            break
        c_next = c_b - f_b * (c_b - c_a) / (f_b - f_a)
        if not (0.0 < c_next < 1e12 * c_seed) or not math.isfinite(c_next):
            raise GroundStateError("backward polish diverged while matching evenness at 0")
        c_a, f_a = c_b, f_b
        c_b, f_b = c_next, qp_at_zero(c_next)
        if abs(c_b - c_a) <= 4 * np.finfo(float).eps * abs(c_b):
            break
    if abs(f_b) > 1e4 * target:
        raise GroundStateError(
            f"backward polish stalled: |Q'(0)| = {abs(f_b):.3e} after secant iteration")
    return c_b


def _logfit(x, y):
    """Least-squares line through log y; returns (amplitude, rate, rms residual)."""
    ly = np.log(y)
    coef = np.polyfit(x, ly, 1)
    fitted = np.polyval(coef, x)
    resid = float(np.sqrt(np.mean((ly - fitted) ** 2)))
    return float(np.exp(coef[1])), float(-coef[0]), resid


def solve_ground_state(nl: Nonlinearity, mu: float, R: float | None = None,
                       h: float | None = None, tol: float = 1e-10) -> GroundState:
    """Compute the even positive decaying profile of Q'' - mu*Q + F(Q^2)*Q = 0.

    R defaults to 30/sqrt(mu), h to 1e-3/sqrt(mu). The returned profile
    satisfies the conserved-quantity residual |Q'^2 - mu*Q^2 + G(Q^2)| <= tol
    uniformly on the grid, is strictly positive, and strictly decreasing on
    (0, R]; violations raise GroundStateError.
    """
    if mu <= 0:
        raise DomainError(f"mu must be positive, got {mu}")
    sq = math.sqrt(mu)
    if R is None:
        R = R_FACTOR / sq
    if h is None:
        h = H_FACTOR / sq
    if R <= 0 or h <= 0 or h >= R:
        raise DomainError(f"invalid grid parameters R = {R}, h = {h}")
    n = int(round(R / h))
    h = R / n
    if R * sq < 10.0:
        raise GroundStateError(f"R*sqrt(mu) = {R * sq:.2f} is too small to reach the far field")

    q0_seed = _shoot_seed(nl, mu)
    q0 = _bisect_shoot(nl, mu, q0_seed, R)

    # one clean forward pass to locate where the shot stops tracking the profile
    fwd = solve_ivp(_rhs(nl, mu), (0.0, R), [q0, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-14 * q0, events=_events(), dense_output=True)
    x_event = _first_event(fwd, R)[1]

    x_far = min(X_FAR_FACTOR / sq, x_event - EVENT_SETBACK / sq, R - 2.0 / sq)
    if x_far < MIN_X_FAR / sq:
        raise GroundStateError(
            f"usable decay window ends at x = {x_event:.2f}; increase R or check the nonlinearity")
    i_far = int(round(x_far / h))
    x_far = i_far * h

    c_seed = float(fwd.sol(x_far)[0]) * math.exp(sq * x_far)
    if c_seed <= 0:
        raise GroundStateError("forward shot is not positive at the tail anchor")
    c_tail = _polish_tail_amplitude(nl, mu, c_seed, x_far, q0)

    # final stabilized sweep from the tail anchor down to 0, sampled on the grid
    x_half = np.arange(n + 1) * h
    q_anchor = c_tail * math.exp(-sq * x_far)
    back = solve_ivp(_rhs(nl, mu), (x_far, 0.0), [q_anchor, -sq * q_anchor],
                     method="DOP853", rtol=1e-13, atol=1e-16 * q0,
                     t_eval=x_half[: i_far + 1][::-1])
    if not back.success:
        raise GroundStateError(f"final backward sweep failed: {back.message}")
    Q_half = np.empty(n + 1)
    Qp_half = np.empty(n + 1)
    Q_half[: i_far + 1] = back.y[0][::-1]
    Qp_half[: i_far + 1] = back.y[1][::-1]
    tail = c_tail * np.exp(-sq * x_half[i_far + 1:])
    Q_half[i_far + 1:] = tail
    Qp_half[i_far + 1:] = -sq * tail
    Qp_half[0] = 0.0

    if not np.all(Q_half > 0):
        raise GroundStateError("computed profile is not positive everywhere")
    if not np.all(Qp_half[1:] < 0):
        raise GroundStateError("computed profile is not strictly decreasing on (0, R]; "
                               "the even decaying branch was not reached")

    fi = np.abs(Qp_half**2 - mu * Q_half**2 + nl.G(Q_half**2))
    fi_max = float(fi.max())
    if fi_max > tol:
        raise GroundStateError(
            f"conserved-quantity residual {fi_max:.3e} exceeds tol = {tol:.1e}; "
            "refine the grid or loosen tol")

    # far-field diagnostics from the raw (pre-splice) samples
    i_lo = max(int(round((x_far - 6.0 / sq) / h)), int(round(MIN_X_FAR / sq / h)))
    i_lo = min(i_lo, i_far - 10)
    c0, rate, fit_res = _logfit(x_half[i_lo:i_far + 1], Q_half[i_lo:i_far + 1])
    if abs(rate - sq) > 0.05 * sq:
        raise HypothesisError(
            f"far-field decay rate {rate:.6f} is not within 5% of sqrt(mu) = {sq:.6f}")

    # mirror to the symmetric grid
    x = np.concatenate([-x_half[::-1], x_half[1:]])
    Q = np.concatenate([Q_half[::-1], Q_half[1:]])
    Qp = np.concatenate([-Qp_half[::-1], Qp_half[1:]])

    # measured second-order stencil residual of the profile equation
    d2 = (Q[:-2] - 2 * Q[1:-1] + Q[2:]) / (h * h)
    ode_res = float(np.max(np.abs(d2 - (mu * Q[1:-1] - nl.F(Q[1:-1] ** 2) * Q[1:-1]))))

    return GroundState(mu=mu, R=R, h=h, x=x, Q=Q, Qp=Qp, shoot_value=float(Q_half[0]),
                       c0=c0, rate=rate, fit_residual=fit_res, tail_amplitude=c_tail,
                       tail_rate=sq, x_replace=x_far, first_integral_max=fi_max,
                       ode_residual=ode_res)


def far_field_fit(gs: GroundState, window: tuple[float, float],
                  component: str = "Q", residual_warn: float = 1e-3) -> FarFieldFit:
    """Log-linear fit of the decay on a window: y ~ amplitude * exp(-rate*x).

    component 'Q' fits the profile itself; 'Qp' fits -Q' (whose amplitude
    approaches sqrt(mu) * c0). Raises DomainError if the chosen samples are
    not strictly positive, and warns when the fit residual suggests the
    window sits too close to the origin.
    """
    x_lo, x_hi = window
    if not (0 <= x_lo < x_hi <= gs.R):
        raise DomainError(f"window {window} must satisfy 0 <= x_lo < x_hi <= R = {gs.R}")
    mask = (gs.x >= x_lo) & (gs.x <= x_hi)
    if mask.sum() < 10:
        raise DomainError("window contains fewer than 10 grid points")
    if component == "Q":
        y = gs.Q[mask]
    elif component == "Qp":
        y = -gs.Qp[mask]
    else:
        raise DomainError(f"component must be 'Q' or 'Qp', got {component!r}")
    if np.any(y <= 10 * np.finfo(float).eps):
        raise DomainError("profile does not stay above rounding level on the fit window")
    c, rate, resid = _logfit(gs.x[mask], y)
    if resid > residual_warn:
        warnings.warn(f"far-field fit residual {resid:.2e} is large; "
                      "the window may be too close to the origin", stacklevel=2)
    return FarFieldFit(c, rate, resid)


def first_integral_residual(gs: GroundState, nl: Nonlinearity) -> float:
    """Max over the grid of |Q'^2 - mu*Q^2 + G(Q^2)| (conserved for the exact profile)."""
    return float(np.max(np.abs(gs.Qp**2 - gs.mu * gs.Q**2 + nl.G(gs.Q**2))))
