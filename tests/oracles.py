"""Reference implementations the tests compare the package against.

None of these run in a pipeline path: the dense matrix of H, the scalar
operators L_plus and L_minus, sweeps from any free mode, the Wronskian, the
reflection and scaling of a solution, and the log-linear far-field fit.
"""

from dataclasses import replace

import numpy as np
import scipy.sparse as sps

import solispec as sp
from solispec.jost import V_NEGLIGIBLE, _sweep_states
from solispec.linearized_operator import _second_diff


def assemble_matrix(pm):
    """Sparse 2n x 2n matrix of H with Dirichlet walls."""
    n = len(pm.x)
    lap = sps.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)],
                    offsets=[-1, 0, 1], format="csr") / pm.h**2
    A, B, I = sps.diags(pm.a), sps.diags(pm.b), sps.identity(n, format="csr")
    top = sps.hstack([lap - pm.mu * I + A, B])
    bot = sps.hstack([-B, -lap + pm.mu * I - A])
    return sps.vstack([top, bot]).tocsr()


def apply_L(pm, sign, f):
    """L_plus (sign '+') or L_minus (sign '-') on grid samples, Dirichlet walls."""
    pot = (pm.a + pm.b) if sign == "+" else (pm.a - pm.b)
    return -_second_diff(f, pm.h) + pm.mu * f - pot * f


def sweep_from_mode(pm, lam, mode_index):
    """One step per cell backward from the pure free mode mode_index at the station of
    decaying_solution, on [-R, x_asym]."""
    mode = sp.asymptotic_modes(lam, pm.mu, end=+1)[mode_index]
    i_asym = int(np.searchsorted(pm.x, pm.negligible_from(V_NEGLIGIBLE) - 0.5 * pm.h))
    x = pm.x[:i_asym + 1]
    w = _sweep_states(pm, lam, np.array(mode.eval(x[-1])), i_asym, 0)
    return sp.JostSolution(lam=float(lam), mu=pm.mu, x=x, f=w[0], g=w[1], fp=w[2], gp=w[3],
                           x_asym=float(x[-1]), mode=mode, residual=float("nan"),
                           asym_deviation=float("nan"))


def wronskian(s1, s2):
    """Bilinear invariant f1'f2 - f1f2' + g1'g2 - g1g2' on the common right end of the grids."""
    n = min(len(s1.x), len(s2.x))
    assert np.allclose(s1.x[-n:], s2.x[-n:])
    a = [getattr(s1, k)[-n:] for k in ("f", "g", "fp", "gp")]
    b = [getattr(s2, k)[-n:] for k in ("f", "g", "fp", "gp")]
    return (a[2] * b[0] - a[0] * b[2]) + (a[3] * b[1] - a[1] * b[3])


def reflect(sol):
    """The solution at -lambda from the one at lambda: S(f, g) = (g, f), S H S = -H."""
    mode = replace(sol.mode, channel=1 - sol.mode.channel)
    return replace(sol, lam=-sol.lam, f=sol.g, g=sol.f, fp=sol.gp, gp=sol.fp, mode=mode)


def scaled(sol, c):
    return replace(sol, f=c * sol.f, g=c * sol.g, fp=c * sol.fp, gp=c * sol.gp)


def log_fit(gs, window):
    """(amplitude, rate) of the least-squares line through log Q on window: Q ~ c0 exp(-rate x)."""
    mask = (gs.x >= window[0]) & (gs.x <= window[1])
    slope, intercept = np.polyfit(gs.x[mask], np.log(gs.Q[mask]), 1)
    return float(np.exp(intercept)), float(-slope)
