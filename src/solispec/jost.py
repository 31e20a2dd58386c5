"""Solutions of (H - lambda) w = 0 with prescribed behavior at +infinity.

For |lambda| >= mu the free system decouples into an exponential channel
with rates +-kappa, kappa = sqrt(mu + |lambda|), and an oscillatory channel
with frequency omega = sqrt(|lambda| - mu). For lambda >= mu the exponential
channel is the first component and the oscillatory one the second; for
lambda <= -mu the channels swap. Exactly at |lambda| = mu the oscillatory
pair degenerates into the constant and linear solutions.

decaying_solution constructs the unique (up to scale) solution behaving
like exp(-kappa*x) times the exponential-channel unit vector as
x -> +infinity: pure-mode data are imposed at a station x_asym beyond which
the potential stays below 1e-14, and the system is integrated backward,
which is the numerically stable direction. Beyond the station the samples
are the pure mode itself, which treats the potential there as zero. The
solution is normalized so the leading decaying coefficient is exactly 1 at
the station.

The sweep is Lawson's integrating-factor RK4 (SIAM J. Numer. Anal. 4, 1967).
Writing y' = (A0 + P(x)) y with the free part A0 and the potential part P,
it applies classical RK4 to exp(-x A0) y, so the free flow exp(s A0) enters
in closed form and the step is exact when P = 0: a pure mode stays pure to
rounding, whatever its rate or frequency. Every sweep runs through one
function, _sweep_decaying, which places the station and the node lattice,
sweeps at a stride of k cells and, at even k, sweeps again at 2k and
extrapolates the two. decaying_solution takes k = 1, one step per grid
cell, with P at the nodes and, through the cubic on the four nodes around
each cell, at the cell midpoints. The certificate's sweep takes k even, so
every midpoint is a node, and its solution lives on every 2k-th node; it
stops at its mode-fit window's left edge instead of at -R.
The system is linear, so each step is a 4x4 matrix; all are built at once,
each with its own spacing x[i+1] - x[i], because linspace spacings differ
by ~1e-11 relative and a nominal h would put that error into every step.
They are built from 2x2 blocks: exp(s A0) is diagonal per channel in each
block and P only fills the bottom-left block, so a step matrix takes a few
elementwise products of per-step arrays instead of dense 4x4 products.
They are chained in two passes over about sqrt(n) blocks: the running
products inside every block at once, then the blocks' entry states in turn,
so the chain takes O(sqrt(n)) Python iterations.

expand_in_modes projects samples onto the four free modes over a window by
least squares; it is the quantitative tool behind the mode-mismatch
certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DomainError
from .ground_state import GroundState
from .linearized_operator import PotentialMatrix, potential_V
from .nonlinearity import Nonlinearity

V_NEGLIGIBLE = 1e-14        # station threshold for imposing pure-mode data
CERT_SWEEP_RTOL = 1e-12     # decaying_solution(rtol=...) accepts it; the sweep ignores it
PROPAGATOR_CHUNK = 4096     # steps whose propagators are built together
THRESHOLD_REL = 1e-12       # |{|lambda|} - mu| below this counts as the threshold case
COND_LIMIT = 1e8            # mode fits conditioned worse than this raise
FIT_GROWTH_MAX = 340.0      # largest kappa |x| at a cut sweep's end; fit squares overflow near 354

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
    if not math.isfinite(lam):
        raise DomainError(f"lambda must be finite, got {lam}")
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
    dec = AsymptoticMode("decaying", exp_channel, kappa, end)
    grow = AsymptoticMode("growing", exp_channel, kappa, end)
    if at_threshold(lam, mu):
        m3 = AsymptoticMode("const", osc_channel, 0.0, end)
        m4 = AsymptoticMode("linear", osc_channel, 0.0, end)
    else:
        omega = math.sqrt(abs(lam) - mu)
        m3 = AsymptoticMode("cos", osc_channel, omega, end)
        m4 = AsymptoticMode("sin", osc_channel, omega, end)
    return dec, grow, m3, m4


@dataclass(frozen=True)
class JostSolution:
    """Samples of a solution of (H - lambda) w = 0 with declared +inf behavior, at x: every
    grid node from -R, or for a certificate sweep at stride k every 2k-th node from its
    fit window's left edge. residual is the stencil residual of the swept part, the nodes
    of x in [x[0], x_asym] but the three at each end; asym_deviation is the potential the
    pure-mode tail neglects, the largest max(|a|, |b|) at |t| >= x_asym."""

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


def _step_propagators(pm: PotentialMatrix, lam: float, lo: int, hi: int,
                      k: int = 1) -> np.ndarray:
    """Lawson RK4 propagators from x[i+k] back to x[i] for i = lo, lo+k, ... < hi, shape
    ((hi-lo)/k, 4, 4). A step spans k cells, k = 1 or even: for even k the midpoint of a
    step is the node i + k/2, so the local cubic's midpoint samples are read only at k = 1.

    In 2x2 blocks of y = (q, p): exp(s A0) = [[C, S], [D S, C]] with diagonal
    per-channel C, S, D, and P = [[0, 0], [-V, 0]]. So the stages K2..K4 have
    a zero top half, K3 = Pm Eh, and each block of the step matrix is a few
    products of per-step 2x2 blocks (trailing axis: the step).
    """
    s = pm.x[lo:hi:k] - pm.x[lo + k:hi + 1:k]   # negative; each step its own length
    Ch, Sh = _free_flow(pm.mu, lam, 0.5 * s)
    Cf, Sf = _free_flow(pm.mu, lam, s)
    if k == 1:
        am, bm = (e[lo:hi] for e in pm.midpoint_entries)
    else:
        am, bm = pm.a[lo + k // 2:hi:k], pm.b[lo + k // 2:hi:k]
    V0 = _sym(pm.a[lo + k:hi + 1:k], pm.b[lo + k:hi + 1:k])
    Vm, V1 = _sym(am, bm), _sym(pm.a[lo:hi:k], pm.b[lo:hi:k])
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


def _sweep_states(pm: PotentialMatrix, lam: float, y0, i_from: int, i_to: int,
                  k: int = 1) -> np.ndarray:
    """States (f, g, f', g') at grid nodes i_to, i_to+k, ..., i_from of the backward sweep
    from y0, one step per k cells (i_from - i_to a multiple of k).

    The step propagators are built in chunks of at most PROPAGATOR_CHUNK
    steps and chained in two passes over about sqrt(n) blocks: the running
    products inside all blocks at once, then each block's entry state in
    turn. Returns shape (4, (i_from - i_to)/k + 1).
    """
    n = (i_from - i_to) // k
    m = math.isqrt(n - 1) + 1                   # block length, ceil(sqrt(n))
    nb = -(-n // m)
    T = np.empty((nb * m, 4, 4))                # step j maps node i_from - j k to i_from - (j+1) k
    T[n:] = np.eye(4)
    for j in range(0, n, PROPAGATOR_CHUNK):
        j1 = min(j + PROPAGATOR_CHUNK, n)
        T[j:j1] = _step_propagators(pm, lam, i_from - j1 * k, i_from - j * k, k)[::-1]
    T = T.reshape(nb, m, 4, 4)
    entry = np.empty((nb, 4))
    entry[0] = y0
    with np.errstate(over="ignore", invalid="ignore"):     # an overflow is raised below
        for t in range(1, m):
            T[:, t] = T[:, t] @ T[:, t - 1]     # T[:, t] maps a block's entry to its t+1-th state
        for j in range(1, nb):
            entry[j] = T[j - 1, -1] @ entry[j - 1]
        states = np.einsum("btij,bj->bti", T, entry)
    if not np.all(np.isfinite(states)):
        raise DomainError(f"backward sweep overflowed at lambda = {lam}; too large for this grid")
    return np.concatenate([np.reshape(y0, (1, 4)), states.reshape(-1, 4)[:n]])[::-1].T


def _rel_residual(pm: PotentialMatrix, lam: float, x, f, g, fp, gp) -> float:
    """Sixth-order-stencil relative residual of the 4-system on interior sample nodes; the
    samples sit on every k-th node of pm's grid, k read from their spacing."""
    h = float(x[1] - x[0])
    if len(x) < 15:
        return float("nan")
    k = max(1, round(h / pm.h))

    def d2(y):
        out = np.zeros(len(y) - 6)
        for k, c in enumerate(_STENCIL6):
            out += c * y[k:len(y) - 6 + k]
        return out / (h * h)

    sl = slice(3, -3)
    i0 = int(np.searchsorted(pm.x, x[0] - 0.5 * pm.h)) + 3 * k
    a, b = pm.a[i0:i0 + k * (len(x) - 6):k], pm.b[i0:i0 + k * (len(x) - 6):k]
    r1 = d2(f) - (pm.mu + lam - a) * f[sl] + b * g[sl]
    r2 = d2(g) - (pm.mu - lam - a) * g[sl] + b * f[sl]
    s = math.sqrt(pm.mu + abs(lam))
    scale = s * s * (np.abs(f[sl]) + np.abs(g[sl])) + s * (np.abs(fp[sl]) + np.abs(gp[sl]))
    scale = np.maximum(scale, 1e-290)
    return float(np.max(np.hypot(r1, r2) / scale))


def _sweep_decaying(pm: PotentialMatrix, lam: float, k: int = 1,
                    x_end: float | None = None) -> JostSolution:
    """Backward sweep from the pure decaying mode at the station x_asym, where the potential
    falls below V_NEGLIGIBLE, one step per k cells (k = 1 or even), continued by that mode
    beyond the station; valid for any |lam| >= mu. The samples sit on a lattice of every
    m-th node through the origin. At k = 1, m = 1; at even k, m = 2k: the station moves
    outward and the left end inward onto the lattice, the sweep runs at strides k and 2k
    from the same data and the two are extrapolated on the lattice,
    w = (16 w_k - w_2k)/15 (step doubling of a fourth-order method; Hairer, Norsett &
    Wanner, Solving ODEs I, II.4). asym_deviation is the potential the tail neglects, read
    from the cached sup envelope.

    The sweep ends at -R, or with x_end at the lattice node at or left of x_end: the
    certificate passes its fit window's left edge, so no sample left of the window is
    swept. The samples grow like exp(kappa |x|) toward that end and the fit squares them,
    so a cut sweep whose end has kappa |x| > FIT_GROWTH_MAX is refused up front.
    """
    mode = asymptotic_modes(lam, pm.mu, end=+1)[0]
    m = 2 * k if k > 1 else 1                   # node stride of the lattice
    last = len(pm.x) - 1
    lo = (last // 2) % m
    if x_end is not None:
        lo += m * max(0, (int(np.searchsorted(pm.x, x_end, side="right")) - 1 - lo) // m)
    station = int(np.searchsorted(pm.x, pm.negligible_from(V_NEGLIGIBLE) - 0.5 * pm.h))
    # the station outward onto the lattice, unless that leaves the grid: then the last
    # lattice node, at most 2k - 1 cells inward
    i_asym = min(lo + m * -(-(station - lo) // m), last - (last - lo) % m)
    x_asym = float(pm.x[i_asym])
    kappa = math.sqrt(pm.mu + abs(lam))
    if kappa * x_asym > 600.0:
        raise DomainError(
            f"kappa * x_asym = {kappa * x_asym:.0f} underflows the tail normalization; "
            "lambda is too large for this grid")
    if x_end is not None and -kappa * pm.x[lo] > FIT_GROWTH_MAX:
        raise DomainError(
            f"kappa * |x| = {-kappa * pm.x[lo]:.0f} at the sweep end overflows the mode "
            "fit's squares; lambda is too large for this grid")
    y0 = np.array(mode.eval(x_asym))
    w = _sweep_states(pm, lam, y0, i_asym, lo, k)
    if k > 1:
        w_k = w[:, ::2]
        w = w_k + (w_k - _sweep_states(pm, lam, y0, i_asym, lo, m)) / 15.0
    x = pm.x[lo::m]
    n = w.shape[1]
    f, g, fp, gp = np.concatenate([w, mode.eval(x[n:])], axis=1)
    return JostSolution(lam=float(lam), mu=pm.mu, x=x, f=f, g=g, fp=fp, gp=gp,
                        x_asym=x_asym, mode=mode,
                        residual=_rel_residual(pm, lam, x[:n], *w),
                        asym_deviation=float(pm._sup_envelope[i_asym - len(pm.x)]))


def decaying_solution(lam: float, gs: GroundState | None = None,
                      nl: Nonlinearity | None = None, *,
                      potential: PotentialMatrix | None = None,
                      rtol: float | None = None) -> JostSolution:
    """The solution decaying like exp(-kappa*x) at +infinity, for lam >= mu.

    Energies lam <= -mu follow from the positive branch through the component
    swap S(f, g) = (g, f), S H S = -H (certificate.reflect_spectrum maps their
    records). Pass either a ground state with its nonlinearity or a prebuilt
    PotentialMatrix. rtol is accepted for callers of the former adaptive
    sweep and has no effect.
    """
    pm = potential if potential is not None else potential_V(gs, nl)
    if lam < pm.mu * (1.0 - THRESHOLD_REL):
        raise DomainError(
            f"decaying_solution needs lambda >= mu = {pm.mu}; for the negative branch "
            "reflect the positive-energy solution")
    return _sweep_decaying(pm, lam)


@dataclass(frozen=True)
class ModeExpansion:
    """Least-squares expansion of samples in the four free modes on a window."""

    coeffs: np.ndarray            # raw coefficients in mode units, order (dec, grow, m3, m4)
    amplitudes: np.ndarray        # |coeff| * mode envelope at the window edge nearer 0
    uncertainties: np.ndarray     # amplitude error bars propagated from the fit misfit
    residual: float               # relative lstsq residual
    cond: float


def expand_in_modes(sol: JostSolution, end: int, window: tuple[float, float]) -> ModeExpansion:
    """Fit (f, g, f', g') on a window against the four free modes at one end.

    The window must sit where the potential is negligible; conditioning
    worse than COND_LIMIT (window too short for the local oscillation)
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
    if cond > COND_LIMIT:
        raise ConditioningError(
            f"mode fit condition number {cond:.2e} exceeds {COND_LIMIT:.0e}; "
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
                         residual=residual, cond=cond)


def default_window(pm: PotentialMatrix, lam: float, end: int) -> tuple[float, float]:
    """Fit window where the potential is negligible, sized to the local modes.

    The width covers three oscillation periods when that fits, clipped to
    [4, 8] / sqrt(mu); the window hugs the station where max(|a|, |b|)
    falls below 1e-5 * mu.
    """
    mu = pm.mu
    _reject_gap(lam, mu)
    sq = math.sqrt(mu)
    # keep the station outside the [-5, 5]/sqrt(mu) normalization region so
    # growing-mode content is measured where it dominates
    x_s = max(pm.negligible_from(1e-5 * mu), 6.0 / sq)
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
