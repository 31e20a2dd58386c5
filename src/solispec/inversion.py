"""Half-line inversion of the scalar operators by nested quadrature.

With P = Q (for L_minus) or P = Q' (for L_plus), the unique solution of
L u = v decaying faster than exp(-sqrt(mu)*x) is

    u(x) = -P(x) * int_x^inf  1/P(t)^2 * int_t^inf P(s) v(s) ds  dt.

The integrand of the outer integral grows like exp(2*sqrt(mu)*t) through
1/P^2, so the inner integral is always formed first; their product decays
like exp(-(r_v - sqrt(mu)) t) whenever v decays at rate r_v > sqrt(mu),
which is exactly the hypothesis this inversion needs. Quadrature runs by
reverse cumulative Simpson from the grid edge inward, closed by analytic
exponential tails fitted at the edge.

fixed_point_residual checks the coupled identities satisfied by the
components u = f+g, v = f-g of a decaying solution of (H - lambda) w = 0:

    u = -lambda * InvPlus(v),    v = -lambda * InvMinus(u),

equivalently u(x) = lambda * Q'(x) int_x 1/Q'^2 int_t Q' v and its mirror
with Q and u.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import cumulative_simpson

from .errors import DomainError, HypothesisError, SingularityError
from .ground_state import GroundState

RATE_MARGIN = 1e-3     # required excess of the input decay rate over sqrt(mu)
WALL_MARGIN = 5.0      # fixed_point_residual skips [R - 5, R], next to the tail closure
RATE_WINDOW = 3.0      # width, in 1/sqrt(mu), of each of the two decay-check windows at R


def _reverse_cumsimp(y: np.ndarray, h: float) -> np.ndarray:
    """I[i] = integral from x_i to the right edge, composite Simpson."""
    rev = cumulative_simpson(y[::-1], dx=h, initial=0.0)
    return rev[::-1]


def _envelope_rate(x: np.ndarray, y: np.ndarray, sq: float):
    """Decay rate of |y| near the right edge via window-averaged envelopes.

    Robust to oscillatory signs (uses mean |y| over two windows). Returns
    (rate, edge_magnitude); rate is +inf when y has effectively vanished.
    """
    span = RATE_WINDOW / sq
    hi = x[-1]
    m1 = (x >= hi - 2 * span) & (x < hi - span)
    m2 = (x >= hi - span)
    a1 = float(np.mean(np.abs(y[m1]))) if m1.any() else 0.0
    a2 = float(np.mean(np.abs(y[m2]))) if m2.any() else 0.0
    peak = float(np.max(np.abs(y))) if y.size else 0.0
    if peak == 0.0 or a2 <= 1e-280 * peak or a1 <= 0.0:
        return float("inf"), 0.0
    return math.log(a1 / a2) / span, a2


def _normalize_sign(sign) -> int:
    """+1 selects L_plus and -1 L_minus; also accepts '+'/'-'."""
    s = {"+": 1, "-": -1, 1: 1, -1: -1}.get(sign)
    if s is None:
        raise DomainError("sign must be '+'/'-' or +1/-1")
    return s


def invert_L(sign, gs: GroundState, v: np.ndarray, x0: float = 1.0):
    """Nested-integral inverse of L_minus (sign -) or L_plus (sign +) on [x0, R].

    v must be sampled on the full profile grid and decay strictly faster
    than exp(-sqrt(mu)*x) near the right edge; otherwise HypothesisError. That check
    reads the two windows of width 3/sqrt(mu) at R, so x0 must lie in
    [0, R - 6/sqrt(mu)], else DomainError; sign + also requires x0 > 0
    because Q'(0) = 0. Returns (x, u) on the subgrid [x0, R].
    """
    s = _normalize_sign(sign)
    mu = gs.mu
    sq = math.sqrt(mu)
    if np.shape(v) != np.shape(gs.x):
        raise DomainError("v must be sampled on the full profile grid")
    if s == 1 and x0 <= 0.0:
        raise SingularityError("L_plus inversion needs x0 > 0 strictly: Q'(0) = 0")
    x0_max = gs.R - 2.0 * RATE_WINDOW / sq
    if not 0.0 <= x0 <= x0_max:
        raise DomainError(f"inversion lives on the right half-line short of its decay check, "
                          f"0 <= x0 <= R - 6/sqrt(mu) = {x0_max:g}; got x0 = {x0}")

    i0 = int(round((x0 + gs.R) / gs.h))
    xs = gs.x[i0:]
    P = (gs.Qp if s == 1 else gs.Q)[i0:]
    vv = np.asarray(v, dtype=float)[i0:]
    h = gs.h

    r_v, v_edge = _envelope_rate(xs, vv, sq)
    if v_edge > 0.0 and r_v <= sq * (1.0 + RATE_MARGIN):
        raise HypothesisError(
            f"input decays at fitted rate {r_v:.6f} <= sqrt(mu) = {sq:.6f}; "
            "the nested-integral inversion does not apply")

    inner = P * vv
    I1 = _reverse_cumsimp(inner, h)
    if math.isfinite(r_v):
        I1 += inner[-1] / (sq + r_v)           # exponential tail beyond R

    outer = I1 / (P * P)
    J = _reverse_cumsimp(outer, h)
    if math.isfinite(r_v):
        J += outer[-1] / (r_v - sq)

    return xs, -P * J


def fixed_point_residual(gs: GroundState, u: np.ndarray, v: np.ndarray,
                         lam: float, x0: float = 1.0):
    """Sup-norm residuals of the coupled inversion identities on [x0, R - 5].

    For the components u = f+g, v = f-g of the decaying solution at energy
    lam, both residuals vanish up to quadrature and sampling error. Returns
    (r_u, r_v).
    """
    if x0 + WALL_MARGIN >= gs.R:
        raise DomainError(f"x0 = {x0} leaves no room on [x0, R - {WALL_MARGIN}]")
    xs, inv_plus_v = invert_L(+1, gs, v, x0)
    _, inv_minus_u = invert_L(-1, gs, u, x0)
    keep = xs <= gs.R - WALL_MARGIN
    i0 = int(round((x0 + gs.R) / gs.h))
    u_sub = np.asarray(u, dtype=float)[i0:]
    v_sub = np.asarray(v, dtype=float)[i0:]
    r_u = float(np.max(np.abs(u_sub + lam * inv_plus_v)[keep]))
    r_v = float(np.max(np.abs(v_sub + lam * inv_minus_u)[keep]))
    return r_u, r_v
