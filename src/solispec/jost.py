"""Solutions of (H - lambda) w = 0 with prescribed behavior at +infinity.

For |lambda| >= mu the free system decouples into an exponential channel
with rates +-kappa, kappa = sqrt(mu + |lambda|), and an oscillatory channel
with frequency omega = sqrt(|lambda| - mu). For lambda >= mu the exponential
channel is the first component and the oscillatory one the second; for
lambda <= -mu the channels swap. Exactly at |lambda| = mu the oscillatory
pair degenerates into the constant and linear solutions.

decaying_solution constructs the unique (up to scale) solution behaving
like exp(-kappa*x) times the exponential-channel unit vector as
x -> +infinity: initial data are imposed at a station x_asym where the
potential is below 1e-14 (pure mode plus its first-order potential
correction) and the system is integrated backward, which is the
numerically stable direction. The solution is normalized so the leading
decaying coefficient is exactly 1 at the station.

The sweep is Lawson's integrating-factor RK4 (SIAM J. Numer. Anal. 4, 1967)
with one step per grid cell. Writing y' = (A0 + P(x)) y with the free part
A0 and the potential part P, it applies classical RK4 to exp(-x A0) y, so
the free flow exp(s A0) enters in closed form and the step is exact when
P = 0: a pure mode stays pure to rounding, whatever its rate or frequency.
P enters at the nodes and, through its cubic spline, at the cell midpoints.
The system is linear, so each step is a 4x4 matrix; all are built at once,
each with its own spacing x[i+1] - x[i], because linspace spacings differ
by ~1e-11 relative and a nominal h would put that error into every step.
They are built from 2x2 blocks: exp(s A0) is diagonal per channel in each
block and P only fills the bottom-left block, so a step matrix takes a few
elementwise products of per-step arrays instead of dense 4x4 products.
They are chained in about sqrt(n) blocks: O(sqrt(n)) Python iterations.

expand_in_modes projects samples onto the four free modes over a window by
least squares; it is the quantitative tool behind the mode-mismatch
certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .errors import ConditioningError, DomainError
from .ground_state import GroundState
from .linearized_operator import PotentialMatrix, potential_V
from .nonlinearity import Nonlinearity

V_NEGLIGIBLE = 1e-14        # station threshold for imposing pure-mode data
CERT_SWEEP_RTOL = 1e-12     # decaying_solution(rtol=...) accepts it; the sweep ignores it
PROPAGATOR_CHUNK = 4096     # steps whose propagators are built together
THRESHOLD_REL = 1e-12       # |{|lambda|} - mu| below this counts as the threshold case

_STENCIL6 = np.array([1.0 / 90, -3.0 / 20, 3.0 / 2, -49.0 / 18, 3.0 / 2, -3.0 / 20, 1.0 / 90])


@dataclass(frozen=True)
class AsymptoticMode:
    """One of the four free-system modes at a spatial end.

    kind is one of decaying/growing/cos/sin/const/linear; channel 0 or 1
    selects the vector component carrying the mode; value holds the decay
    rate or the frequency (0 for const/linear).
    """

    kind: str
    channel: int
    value: float
    lam: float
    mu: float
    end: int = +1

    def eval(self, x):
        """Mode samples (f, g, f', g') at x (scalar or array)."""
        xv = np.asarray(x, dtype=float)
        if self.kind == "decaying":
            base = np.exp(-self.value * self.end * xv)
            dbase = -self.value * self.end * base
        elif self.kind == "growing":
            base = np.exp(self.value * self.end * xv)
            dbase = self.value * self.end * base
        elif self.kind == "cos":
            base = np.cos(self.value * xv)
            dbase = -self.value * np.sin(self.value * xv)
        elif self.kind == "sin":
            base = np.sin(self.value * xv)
            dbase = self.value * np.cos(self.value * xv)
        elif self.kind == "const":
            base = np.ones_like(xv)
            dbase = np.zeros_like(xv)
        elif self.kind == "linear":
            base = xv.copy()
            dbase = np.ones_like(xv)
        else:
            raise DomainError(f"unknown mode kind {self.kind!r}")
        zero = np.zeros_like(base)
        if self.channel == 0:
            return base, zero, dbase, zero.copy()
        return zero, base, zero.copy(), dbase

    def envelope_at(self, x: float) -> float:
        """Magnitude scale of the mode at x (oscillatory modes report 1)."""
        if self.kind in ("decaying", "growing"):
            f, g, _, _ = self.eval(x)
            return float(abs(f + g))
        if self.kind == "linear":
            return max(abs(float(x)), 1.0)
        return 1.0


def in_gap(lam: float, mu: float) -> bool:
    return abs(lam) < mu * (1.0 - THRESHOLD_REL)


def at_threshold(lam: float, mu: float) -> bool:
    return abs(abs(lam) - mu) <= THRESHOLD_REL * mu


def _reject_gap(lam: float, mu: float):
    if in_gap(lam, mu):
        raise DomainError(
            f"|lambda| = {abs(lam)} lies inside the spectral gap (-{mu}, {mu}); "
            "gap energies belong to the discrete eigensolver")


def asymptotic_modes(lam: float, mu: float, end: int = +1) -> tuple[AsymptoticMode, ...]:
    """The four free modes (decaying, growing, oscillatory pair) at one end.

    Requires |lam| >= mu. At |lam| = mu the oscillatory pair is replaced by
    const and linear modes.
    """
    if mu <= 0:
        raise DomainError(f"mu must be positive, got {mu}")
    if end not in (+1, -1):
        raise DomainError("end must be +1 (x -> +inf) or -1 (x -> -inf)")
    _reject_gap(lam, mu)
    exp_channel = 0 if lam >= 0 else 1
    osc_channel = 1 - exp_channel
    kappa = math.sqrt(mu + abs(lam))
    dec = AsymptoticMode("decaying", exp_channel, kappa, lam, mu, end)
    grow = AsymptoticMode("growing", exp_channel, kappa, lam, mu, end)
    if at_threshold(lam, mu):
        m3 = AsymptoticMode("const", osc_channel, 0.0, lam, mu, end)
        m4 = AsymptoticMode("linear", osc_channel, 0.0, lam, mu, end)
    else:
        omega = math.sqrt(abs(lam) - mu)
        m3 = AsymptoticMode("cos", osc_channel, omega, lam, mu, end)
        m4 = AsymptoticMode("sin", osc_channel, omega, lam, mu, end)
    return dec, grow, m3, m4


@dataclass(frozen=True)
class JostSolution:
    """Samples of a solution of (H - lambda) w = 0 with declared +inf behavior."""

    lam: float
    mu: float
    x: np.ndarray
    f: np.ndarray
    g: np.ndarray
    fp: np.ndarray
    gp: np.ndarray
    x_asym: float
    mode: AsymptoticMode
    residual: float
    asym_deviation: float
    normalization: str = "leading decaying coefficient 1 at x_asym"

    def scaled(self, c: float) -> "JostSolution":
        return replace(self, f=c * self.f, g=c * self.g, fp=c * self.fp, gp=c * self.gp,
                       normalization=f"scaled by {c} from unit leading coefficient")


def _tail_with_correction(pm: PotentialMatrix, lam: float, mode: AsymptoticMode, i0: int):
    """Pure decaying mode plus its first-order potential correction on the nodes x[i0:].

    The exponential-channel correction solves y'' - kappa^2 y = rho_exp with
    the decaying particular solution; the oscillatory-channel correction
    solves y'' + omega^2 y = rho_osc with the bounded retarded solution
    (omega = 0 degenerates to double integration).
    """
    mu = pm.mu
    kappa = mode.value
    xs = pm.x[i0:]
    f0, g0, fp0, gp0 = mode.eval(xs)
    base = f0 + g0                      # only one channel is populated
    rho_exp, rho_osc = -pm.a[i0:] * base, -pm.b[i0:] * base     # same- and cross-channel

    # exponential channel: y = -(A + B)/(2 kappa), y' = (A - B)/2 with
    # A(x) = e^{-kx} int_{x0}^x e^{ks} rho, B(x) = e^{kx} int_x^{R} e^{-ks} rho
    ek = np.exp(kappa * (xs - xs[0]))
    A = np.concatenate([[0.0], cumulative_trapezoid(ek * rho_exp, xs)]) / ek
    w = rho_exp / ek
    I = np.concatenate([[0.0], cumulative_trapezoid(w, xs)])
    B = ek * (I[-1] - I)
    y_exp = -(A + B) / (2.0 * kappa)
    yp_exp = (A - B) / 2.0

    if not at_threshold(lam, mu):
        om = math.sqrt(abs(lam) - mu)
        s_os, c_os = np.sin(om * xs), np.cos(om * xs)
        Is = np.concatenate([[0.0], cumulative_trapezoid(s_os * rho_osc, xs)])
        Ic = np.concatenate([[0.0], cumulative_trapezoid(c_os * rho_osc, xs)])
        Is = Is[-1] - Is                # integral from x to R
        Ic = Ic[-1] - Ic
        y_osc = (c_os * Is - s_os * Ic) / om
        yp_osc = -(c_os * Ic + s_os * Is)
    else:
        I0 = np.concatenate([[0.0], cumulative_trapezoid(rho_osc, xs)])
        I1 = np.concatenate([[0.0], cumulative_trapezoid(xs * rho_osc, xs)])
        I0 = I0[-1] - I0
        I1 = I1[-1] - I1
        y_osc = I1 - xs * I0
        yp_osc = -I0

    if mode.channel == 0:
        return f0 + y_exp, g0 + y_osc, fp0 + yp_exp, gp0 + yp_osc
    return f0 + y_osc, g0 + y_exp, fp0 + yp_osc, gp0 + yp_exp


def _free_flow(mu: float, lam: float, s: np.ndarray):
    """Per-channel entries C, S of exp(s A0) = [[C, S], [D S, C]], each shape (2, len(s)).

    A channel with y'' = d y, D = diag(mu + lam, mu - lam), has C, S = cosh, sinh / r
    for d = r^2 > 0, cos, sin / r for d = -r^2 < 0, and 1, s at the threshold d = 0.
    """
    C, S = np.empty((2,) + s.shape), np.empty((2,) + s.shape)
    for c, d in enumerate((mu + lam, mu - lam)):
        if d > 0:
            r = math.sqrt(d)
            C[c], S[c] = np.cosh(r * s), np.sinh(r * s) / r
        elif d < 0:
            r = math.sqrt(-d)
            C[c], S[c] = np.cos(r * s), np.sin(r * s) / r
        else:
            C[c], S[c] = 1.0, s
    return C, S


def _sym(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The potential block V = [[a, b], [b, a]] at each node, shape (2, 2, len(a))."""
    return np.array([[a, b], [b, a]])


def _mul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Per-step products of 2x2 blocks stored as (2, 2, n) arrays."""
    return np.einsum("ijn,jkn->ikn", A, B)


def _step_propagators(pm: PotentialMatrix, lam: float, lo: int, hi: int) -> np.ndarray:
    """Lawson RK4 propagators from x[i+1] back to x[i] for i in [lo, hi), shape (hi-lo, 4, 4).

    In 2x2 blocks of y = (q, p): exp(s A0) = [[C, S], [D S, C]] with diagonal
    per-channel C, S, D, and P = [[0, 0], [-V, 0]]. So the stages K2..K4 have
    a zero top half, K3 = Pm Eh, and each block of the step matrix is a few
    products of per-step 2x2 blocks (trailing axis: the step).
    """
    s = pm.x[lo:hi] - pm.x[lo + 1:hi + 1]       # negative; each step its own length
    Ch, Sh = _free_flow(pm.mu, lam, 0.5 * s)
    Cf, Sf = _free_flow(pm.mu, lam, s)
    am, bm = pm.midpoint_entries
    V0 = _sym(pm.a[lo + 1:hi + 1], pm.b[lo + 1:hi + 1])
    Vm, V1 = _sym(am[lo:hi], bm[lo:hi]), _sym(pm.a[lo:hi], pm.b[lo:hi])
    eye, c = np.eye(2)[:, :, None], s / 6.0
    F, G = Vm * Ch, Vm * Sh                     # bottom half of K3 = Pm Eh is -[F, G]
    L = 0.5 * s * _mul(G, V0) - 2.0 * F         # bottom half of K2 + K3 is [L, -2 G]
    K4l = _mul(V1, s * Sh[:, None] * F - eye * Cf)  # bottom half of K4 = P1 (Ef + s Eh K3)
    K4r = _mul(V1, s * Sh[:, None] * G - eye * Sf)
    dSf = np.array([[pm.mu + lam], [pm.mu - lam]]) * Sf
    T = np.empty((4, 4, len(s)))                # Ef + s/6 (Ef P0 + 2 Eh (K2 + K3) + K4)
    T[:2, :2] = eye * Cf + c * (2.0 * Sh[:, None] * L - Sf[:, None] * V0)
    T[:2, 2:] = eye * Sf - 4.0 * c * Sh[:, None] * G
    T[2:, :2] = eye * dSf + c * (2.0 * Ch[:, None] * L - Cf[:, None] * V0 + K4l)
    T[2:, 2:] = eye * Cf + c * (K4r - 4.0 * Ch[:, None] * G)
    return T.transpose(2, 0, 1)


def _sweep_states(pm: PotentialMatrix, lam: float, y0, i_from: int, i_to: int) -> np.ndarray:
    """States (f, g, f', g') at grid nodes i_to..i_from of the backward sweep from y0.

    The step propagators are built in chunks of at most PROPAGATOR_CHUNK
    steps and chained in about sqrt(n) blocks: every block's total product
    (all blocks at once), then each block's entry state in turn, then the
    states inside all blocks at once. Returns shape (4, i_from - i_to + 1).
    """
    n = i_from - i_to
    m = math.isqrt(n - 1) + 1                   # block length, ceil(sqrt(n))
    nb = -(-n // m)
    pm.midpoint_entries                         # a first use builds the spline: do it before T
    T = np.empty((nb * m, 4, 4))                # step k maps node i_from - k to i_from - k - 1
    T[n:] = np.eye(4)
    for k in range(0, n, PROPAGATOR_CHUNK):
        k1 = min(k + PROPAGATOR_CHUNK, n)
        T[k:k1] = _step_propagators(pm, lam, i_from - k1, i_from - k)[::-1]
    T = T.reshape(nb, m, 4, 4)
    total = np.broadcast_to(np.eye(4), (nb, 4, 4))
    for t in range(m):
        total = T[:, t] @ total
    entry = np.empty((nb, 4))
    entry[0] = y0
    for j in range(1, nb):
        entry[j] = total[j - 1] @ entry[j - 1]
    states = np.empty((nb, m, 4))
    y = entry
    for t in range(m):
        y = np.einsum("bij,bj->bi", T[:, t], y)
        states[:, t] = y
    if not np.all(np.isfinite(states)):
        raise DomainError(f"backward sweep overflowed at lambda = {lam}; too large for this grid")
    return np.concatenate([np.reshape(y0, (1, 4)), states.reshape(-1, 4)[:n]])[::-1].T


def _rel_residual(pm: PotentialMatrix, lam: float, x, f, g, fp, gp) -> float:
    """Sixth-order-stencil relative residual of the 4-system on interior nodes (of pm's grid)."""
    h = float(x[1] - x[0])
    if len(x) < 15:
        return float("nan")

    def d2(y):
        out = np.zeros(len(y) - 6)
        for k, c in enumerate(_STENCIL6):
            out += c * y[k:len(y) - 6 + k]
        return out / (h * h)

    sl = slice(3, -3)
    i0 = int(np.searchsorted(pm.x, x[0] - 0.5 * pm.h)) + 3
    a, b = pm.a[i0:i0 + len(x) - 6], pm.b[i0:i0 + len(x) - 6]
    r1 = d2(f) - (pm.mu + lam - a) * f[sl] + b * g[sl]
    r2 = d2(g) - (pm.mu - lam - a) * g[sl] + b * f[sl]
    s = math.sqrt(pm.mu + abs(lam))
    scale = s * s * (np.abs(f[sl]) + np.abs(g[sl])) + s * (np.abs(fp[sl]) + np.abs(gp[sl]))
    scale = np.maximum(scale, 1e-290)
    return float(np.max(np.hypot(r1, r2) / scale))


def _sweep_decaying(pm: PotentialMatrix, lam: float, x_stop: float | None = None) -> JostSolution:
    """Backward sweep of the decaying solution; valid for any |lam| >= mu."""
    mu = pm.mu
    mode = asymptotic_modes(lam, mu, end=+1)[0]
    kappa = mode.value
    x_asym = pm.negligible_from(V_NEGLIGIBLE)
    if kappa * x_asym > 600.0:
        raise DomainError(
            f"kappa * x_asym = {kappa * x_asym:.0f} underflows the tail normalization; "
            "lambda is too large for this grid")
    i_asym = int(np.searchsorted(pm.x, x_asym - 0.5 * pm.h))
    i_stop = 0 if x_stop is None else int(np.searchsorted(pm.x, x_stop - 0.5 * pm.h))
    if i_stop >= i_asym:
        raise DomainError(f"x_stop = {x_stop} must lie left of the station x_asym = {x_asym}")

    xs_tail = pm.x[i_asym:]
    f_t, g_t, fp_t, gp_t = _tail_with_correction(pm, lam, mode, i_asym)
    y0 = np.array([f_t[0], g_t[0], fp_t[0], gp_t[0]])

    swept = _sweep_states(pm, lam, y0, i_asym, i_stop)

    x_all = pm.x[i_stop:]
    f = np.concatenate([swept[0, :-1], f_t])
    g = np.concatenate([swept[1, :-1], g_t])
    fp = np.concatenate([swept[2, :-1], fp_t])
    gp = np.concatenate([swept[3, :-1], gp_t])

    pure = np.exp(-kappa * xs_tail)
    dev_num = np.hypot(f_t - (pure if mode.channel == 0 else 0.0),
                       g_t - (pure if mode.channel == 1 else 0.0))
    asym_dev = float(np.max(dev_num / pure))
    res = _rel_residual(pm, lam, x_all, f, g, fp, gp)
    return JostSolution(lam=float(lam), mu=mu, x=x_all, f=f, g=g, fp=fp, gp=gp,
                        x_asym=float(xs_tail[0]), mode=mode, residual=res,
                        asym_deviation=asym_dev)


def decaying_solution(lam: float, gs: GroundState | None = None,
                      nl: Nonlinearity | None = None, *,
                      potential: PotentialMatrix | None = None,
                      x_stop: float | None = None,
                      rtol: float | None = None) -> JostSolution:
    """The solution decaying like exp(-kappa*x) at +infinity, for lam >= mu.

    Energies lam <= -mu are obtained from the positive branch through the
    component swap (see certificate.reflect_spectrum). Pass either a ground
    state with its nonlinearity or a prebuilt PotentialMatrix. rtol is
    accepted for callers of the former adaptive sweep and has no effect.
    """
    pm = potential if potential is not None else potential_V(gs, nl)
    if lam < pm.mu * (1.0 - THRESHOLD_REL):
        raise DomainError(
            f"decaying_solution needs lambda >= mu = {pm.mu}; for the negative branch "
            "reflect the positive-energy solution")
    return _sweep_decaying(pm, lam, x_stop=x_stop)


def integrate_from_mode(pm: PotentialMatrix, lam: float, mode_index: int,
                        x_stop: float | None = None) -> JostSolution:
    """Diagnostic: integrate backward from pure mode data (no correction).

    Useful for building independent solutions whose pairwise bilinear
    invariant (see wronskian) gates integration quality.
    """
    modes = asymptotic_modes(lam, pm.mu, end=+1)
    mode = modes[mode_index]
    x_asym = pm.negligible_from(V_NEGLIGIBLE)
    if x_stop is None:
        x_stop = float(pm.x[0])
    i_asym = int(np.searchsorted(pm.x, x_asym - 0.5 * pm.h))
    i_stop = int(np.searchsorted(pm.x, x_stop - 0.5 * pm.h))
    xs = pm.x[i_stop:i_asym + 1]
    f0, g0, fp0, gp0 = mode.eval(xs[-1])
    y0 = np.array([float(f0), float(g0), float(fp0), float(gp0)])
    f, g, fp, gp = _sweep_states(pm, lam, y0, i_asym, i_stop)
    res = _rel_residual(pm, lam, xs, f, g, fp, gp)
    return JostSolution(lam=float(lam), mu=pm.mu, x=xs, f=f, g=g, fp=fp, gp=gp,
                        x_asym=float(xs[-1]), mode=mode, residual=res,
                        asym_deviation=float("nan"),
                        normalization=f"pure mode {mode.kind} seed, no correction")


def wronskian(s1: JostSolution, s2: JostSolution) -> np.ndarray:
    """Bilinear invariant f1'f2 - f1f2' + g1'g2 - g1g2' on the common grid.

    Constant in x for exact solutions of the same system; drift measures
    integration error.
    """
    n = min(len(s1.x), len(s2.x))
    a = {k: getattr(s1, k)[-n:] for k in ("x", "f", "g", "fp", "gp")}
    b = {k: getattr(s2, k)[-n:] for k in ("x", "f", "g", "fp", "gp")}
    if not np.allclose(a["x"], b["x"]):
        raise DomainError("solutions do not share a common grid segment")
    return (a["fp"] * b["f"] - a["f"] * b["fp"]) + (a["gp"] * b["g"] - a["g"] * b["gp"])


@dataclass(frozen=True)
class ModeExpansion:
    """Least-squares expansion of samples in the four free modes on a window."""

    coeffs: np.ndarray            # raw coefficients in mode units, order (dec, grow, m3, m4)
    amplitudes: np.ndarray        # |coeff| * mode envelope at the window edge nearer 0
    uncertainties: np.ndarray     # amplitude error bars propagated from the fit misfit
    residual: float               # relative lstsq residual
    cond: float
    window: tuple[float, float]
    end: int
    kinds: tuple[str, ...]
    x_inner: float


def expand_in_modes(sol: JostSolution, end: int, window: tuple[float, float],
                    cond_limit: float = 1e8) -> ModeExpansion:
    """Fit (f, g, f', g') on a window against the four free modes at one end.

    The window must sit where the potential is negligible; conditioning
    worse than cond_limit (window too short for the local oscillation)
    raises ConditioningError.
    """
    lo, hi = window
    if not lo < hi:
        raise DomainError(f"empty window {window}")
    mask = (sol.x >= lo - 1e-12) & (sol.x <= hi + 1e-12)
    if mask.sum() < 12:
        raise DomainError(f"window {window} holds fewer than 12 samples")
    xs = sol.x[mask]
    modes = asymptotic_modes(sol.lam, sol.mu, end=end)
    s = math.sqrt(sol.mu + abs(sol.lam))
    y = np.concatenate([sol.f[mask], sol.g[mask], sol.fp[mask] / s, sol.gp[mask] / s])
    cols = []
    for m in modes:
        mf, mg, mfp, mgp = m.eval(xs)
        cols.append(np.concatenate([mf, mg, mfp / s, mgp / s]))
    A = np.column_stack(cols)
    norms = np.linalg.norm(A, axis=0)
    if np.any(norms == 0):
        raise ConditioningError("degenerate mode column on the fit window")
    An = A / norms
    coef_n, _, _, sv = np.linalg.lstsq(An, y, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
    if cond > cond_limit:
        raise ConditioningError(
            f"mode fit condition number {cond:.2e} exceeds {cond_limit:.0e}; "
            "the window is too short relative to the local oscillation period")
    coeffs = coef_n / norms
    ynorm = float(np.linalg.norm(y))
    misfit = float(np.linalg.norm(An @ coef_n - y))
    residual = misfit / ynorm if ynorm > 0 else 0.0
    x_inner = lo if end == +1 else hi
    envs = np.array([m.envelope_at(x_inner) for m in modes])
    amps = np.abs(coeffs) * envs
    # misfit propagated through the normalized basis gives per-amplitude bars
    unc = misfit * envs / norms
    return ModeExpansion(coeffs=coeffs, amplitudes=amps, uncertainties=unc,
                         residual=residual, cond=cond,
                         window=(float(lo), float(hi)), end=end,
                         kinds=tuple(m.kind for m in modes), x_inner=float(x_inner))


def default_window(pm: PotentialMatrix, lam: float, end: int,
                   station_threshold: float | None = None) -> tuple[float, float]:
    """Fit window where the potential is negligible, sized to the local modes.

    The width covers three oscillation periods when that fits, clipped to
    [4, 8] / sqrt(mu); the window hugs the station where max(|a|, |b|)
    falls below station_threshold (default 1e-5 * mu).
    """
    mu = pm.mu
    _reject_gap(lam, mu)
    sq = math.sqrt(mu)
    if station_threshold is None:
        station_threshold = 1e-5 * mu
    # keep the station outside the [-5, 5]/sqrt(mu) normalization region so
    # growing-mode content is measured where it dominates
    x_s = max(pm.negligible_from(station_threshold), 6.0 / sq)
    W = 8.0 / sq
    if not at_threshold(lam, mu):
        W = min(max(3.0 * 2.0 * math.pi / math.sqrt(abs(lam) - mu), 4.0 / sq), 8.0 / sq)
    W = min(W, pm.R - x_s - 1.0 / sq)
    if W < 2.0 / sq:
        raise ConditioningError(
            f"no room for a fit window beyond the station x = {x_s:.2f}; increase R")
    if end == +1:
        return (x_s, x_s + W)
    return (-(x_s + W), -x_s)
