"""Even, positive, exponentially decaying standing-wave profiles.

Solves Q'' - mu*Q + F(Q^2)*Q = 0 on a symmetric uniform grid for the
ground-state profile: Q even, Q > 0, Q' < 0 on (0, R], with far field
Q(x) ~ c0 * exp(-sqrt(mu) * x).

Method. Up to translation, the profile is the one orbit that leaves the far
field along c*exp(-sqrt(mu)*x) (Berestycki & Lions, ARMA 82, 1983); its
peak Q(0)^2 is the first positive root of G(s) = mu*s, whose existence is
checked first. A backward DOP853 sweep from the pure far field at the tail
anchor x_far traces that orbit down to its turning point Q' = 0 at some
x_e. The equation is autonomous, so scaling c by exp(-sqrt(mu)*x_e)
translates the orbit until the turning point sits at the origin, which is
the evenness condition Q'(0) = 0; one or two sweeps fix c. A final sweep
samples the profile on the grid. Backward integration is the contracting
direction, so the samples are accurate to integrator tolerance. Beyond
x_far the samples are the exponential tail itself.
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
EIGEN_R_FACTOR = 12.0    # default half-width of the gap-eigensolve grid: 12 / sqrt(mu)
X_FAR_FACTOR = 12.0      # tail anchor of the backward sweeps
MIN_X_FAR = 6.0          # below this the far field is not asymptotic yet
TURN_TOL = 1e-9          # sqrt(mu)*|x_e| small enough that the next translation is negligible
MAX_SWEEPS = 6           # translated backward sweeps before giving up
FIT_RESIDUAL_WARN = 1e-3  # far_field_fit warns above this log-fit residual


class FarFieldFit(NamedTuple):
    c0: float
    rate: float
    residual: float


@dataclass(frozen=True)
class GroundState:
    """Sampled ground-state profile on a symmetric uniform grid.

    Arrays cover [-R, R] with spacing h; Q is even and Qp = Q' is odd.
    shoot_value is Q(0), where the backward sweep turns; the name is kept
    because reports carry it. Samples with x > x_replace are the
    exponential tail tail_amplitude * exp(-tail_rate * x) spliced C^1 at
    x_replace. c0 and rate come from a log-linear far-field fit of the raw
    samples and double as decay diagnostics. ode_residual is measured with the
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


def _turn(_x, y):
    """Q' = 0: a backward sweep from the tail has reached the maximum of Q."""
    return y[1]


_turn.terminal = True
_turn.direction = 1.0       # Q' rises through 0 as x decreases past the peak


def _shoot_seed(nl, mu):
    """First positive root of G(s) - mu*s; the conserved quantity forces
    Q(0)^2 to sit there for any decaying even profile."""
    def phi(s):
        return nl.G(s) - mu * s

    grid = np.geomspace(1e-8 * max(mu, 1e-8), min(1e9, nl.s_max), 600)
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


def _logfit(x, y):
    """Least-squares line through log y; returns (amplitude, rate, rms residual)."""
    ly = np.log(y)
    coef = np.polyfit(x, ly, 1)
    fitted = np.polyval(coef, x)
    resid = float(np.sqrt(np.mean((ly - fitted) ** 2)))
    return float(np.exp(coef[1])), float(-coef[0]), resid


def profile_grid(mu: float, R: float | None = None,
                 h: float | None = None) -> tuple[float, int, float, int]:
    """(R, n, h, i_far) of the profile grid on [-R, R]: the half-width, cells per
    side, the spacing R/n and the node of the tail anchor x_far.

    R defaults to 30/sqrt(mu), h to 1e-3/sqrt(mu). Raises on a grid the
    solver cannot use.
    """
    if mu <= 0:
        raise DomainError(f"mu must be positive, got {mu}")
    sq = math.sqrt(mu)
    R = R_FACTOR / sq if R is None else R
    h = H_FACTOR / sq if h is None else h
    if R <= 0 or h <= 0 or h >= R:
        raise DomainError(f"invalid grid parameters R = {R}, h = {h}")
    n = int(round(R / h))
    h = R / n
    if R * sq < 10.0:
        raise GroundStateError(f"R*sqrt(mu) = {R * sq:.2f} is too small to reach the far field")
    x_far = min(X_FAR_FACTOR / sq, R - 2.0 / sq)
    i_far = int(round(x_far / h))
    if i_far < 10:
        raise DomainError(f"h = {h} leaves fewer than 10 grid points on [0, x_far = {x_far:.3g}]")
    return R, n, h, i_far


def eigen_grid(mu: float, R: float | None = None, eigen_R: float | None = None,
               n: int = 1201) -> tuple[float, float]:
    """(R, h) of the profile grid for the gap eigensolve of `solispec spectrum`.

    The half-width is eigen_R, else min(R, 12/sqrt(mu)) with R defaulting to
    30/sqrt(mu); n points put (n - 1) // 2 cells on each side of the origin.
    Raises as profile_grid does on that grid.
    """
    sq = math.sqrt(mu)
    R_eig = eigen_R or min(R or R_FACTOR / sq, EIGEN_R_FACTOR / sq)
    h_eig = R_eig / ((n - 1) // 2)
    profile_grid(mu, R_eig, h_eig)
    return R_eig, h_eig


def solve_ground_state(nl: Nonlinearity, mu: float, R: float | None = None,
                       h: float | None = None, tol: float = 1e-10) -> GroundState:
    """Compute the even positive decaying profile of Q'' - mu*Q + F(Q^2)*Q = 0.

    R defaults to 30/sqrt(mu), h to 1e-3/sqrt(mu). The returned profile
    satisfies the conserved-quantity residual |Q'^2 - mu*Q^2 + G(Q^2)| <= tol
    uniformly on the grid, is strictly positive, and strictly decreasing on
    (0, R]; violations raise GroundStateError.
    """
    R, n, h, i_far = profile_grid(mu, R, h)
    sq = math.sqrt(mu)
    q0 = _shoot_seed(nl, mu)
    x_far = i_far * h
    rhs = _rhs(nl, mu)

    def sweep(c, x_end, **kwargs):
        """Backward sweep of the far field c*exp(-sqrt(mu)*x) from x_far to x_end."""
        q = c * math.exp(-sq * x_far)
        sol = solve_ivp(rhs, (x_far, x_end), [q, -sq * q], method="DOP853",
                        rtol=1e-13, atol=1e-16 * q0, **kwargs)
        if not sol.success:
            raise GroundStateError(f"backward sweep failed: {sol.message}")
        return sol

    # move the turning point x_e to the origin: c -> c*exp(-sqrt(mu)*x_e); starting
    # from c = Q(0), the first turning point lies a few decay lengths from the origin
    c_tail = q0
    for _ in range(MAX_SWEEPS):
        turns = sweep(c_tail, -R, events=_turn).t_events[0]
        if not turns.size:
            raise GroundStateError(
                f"backward sweep from the tail never turns (Q' = 0) on [-R, {x_far:.2f}]; "
                "the decaying orbit is not homoclinic")
        c_tail *= math.exp(-sq * turns[0])
        if sq * abs(turns[0]) <= TURN_TOL:
            break
    else:
        raise GroundStateError(
            f"turning point still at x = {turns[0]:.3e} after {MAX_SWEEPS} backward sweeps; "
            f"the tail anchor x = {x_far:.2f} is not in the far field of this profile")

    # final sweep from the tail anchor down to 0, sampled on the grid
    x_half = np.arange(n + 1) * h
    back = sweep(c_tail, 0.0, t_eval=x_half[: i_far + 1][::-1])
    tail = c_tail * np.exp(-sq * x_half[i_far + 1:])
    Q_half = np.concatenate([back.y[0][::-1], tail])
    Qp_half = np.concatenate([back.y[1][::-1], -sq * tail])
    Qp_half[0] = 0.0

    if not np.all(Q_half > 0):
        raise GroundStateError("computed profile is not positive everywhere")
    if not np.all(Qp_half[1:] < 0):
        raise GroundStateError("computed profile is not strictly decreasing on (0, R]; "
                               "the even decaying branch was not reached")

    fi_max = float(np.max(np.abs(Qp_half**2 - mu * Q_half**2 + nl.G(Q_half**2))))
    if fi_max > tol:
        raise GroundStateError(
            f"conserved-quantity residual {fi_max:.3e} exceeds tol = {tol:.1e}; "
            "refine the grid or loosen tol")

    # far-field diagnostics from the raw (pre-splice) samples
    i_lo = min(int(round(MIN_X_FAR / sq / h)), i_far - 10)
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
                  component: str = "Q") -> FarFieldFit:
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
    if resid > FIT_RESIDUAL_WARN:
        warnings.warn(f"far-field fit residual {resid:.2e} is large; "
                      "the window may be too close to the origin", stacklevel=2)
    return FarFieldFit(c, rate, resid)


def first_integral_residual(gs: GroundState, nl: Nonlinearity) -> float:
    """Max over the grid of |Q'^2 - mu*Q^2 + G(Q^2)| (conserved for the exact profile)."""
    return float(np.max(np.abs(gs.Qp**2 - gs.mu * gs.Q**2 + nl.G(gs.Q**2))))
