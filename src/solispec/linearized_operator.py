"""The linearized matrix operator around a standing wave.

Linearizing the focusing NLS flow around exp(i*mu*t)*Q in the conjugate-pair
variables produces the nonselfadjoint block operator

    H = [[ d2/dx2 - mu + a,        b     ],
         [      -b,        -d2/dx2 + mu - a ]]

with pointwise entries a = F(Q^2) + F'(Q^2)*Q^2 and b = F'(Q^2)*Q^2.
The off-diagonal sign pattern gives the exact conjugation S H S = -H where
S swaps the two components, so the spectrum is symmetric about 0.

The scalar operators obtained by diagonalizing with u = f+g, v = f-g are

    L_minus = -d2/dx2 + mu - F(Q^2)               (annihilates Q)
    L_plus  = -d2/dx2 + mu - F(Q^2) - 2F'(Q^2)Q^2 (annihilates Q')

equivalently L_minus = -d2 + mu - (a-b) and L_plus = -d2 + mu - (a+b).

Everything here acts on grid samples with second-order centered differences
and homogeneous Dirichlet closure at the walls +-R. discrete_eigenvalues
reports the point spectrum inside the spectral gap (-mu, mu) through the
eigenvalues lambda^2 of L_minus L_plus (Weinstein, SIAM J. Math. Anal. 16,
1985), solved once per parity on the half grid x >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eig as dense_eig
from scipy.sparse.linalg import eigs as sparse_eigs

from .errors import DomainError, GridMismatchError, SolispecError
from .ground_state import GroundState, profile_grid
from .nonlinearity import Nonlinearity

DENSE_GRID_LIMIT = 4000     # dense eigensolve up to this many grid points
WALL_MASS_LIMIT = 0.01      # discard eigenvectors carrying > 1% mass at the walls
KERNEL_IMAG_BAND = 2.0      # x h: the O(h^2) perturbation of the double kernel
                            # block splits its eigenvalues by O(h) (square root)
RESIDUAL_BAND = 10.0        # x h: residual gate for reported eigenpairs
REAL_SQUARE_TOL = 1e-10     # |Im lambda^2| / |lambda^2| at which lambda^2 counts as real


@dataclass(frozen=True)
class PotentialMatrix:
    """Sampled potential entries (a, b) of H on a uniform symmetric grid.

    The full 2x2 potential is [[a, b], [-b, -a]]; its trace vanishes
    identically. Both entries inherit the squared decay of the profile.
    """

    x: np.ndarray
    mu: float
    a: np.ndarray
    b: np.ndarray
    provenance: str = "ground-state"

    @property
    def h(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def R(self) -> float:
        return float(self.x[-1])

    def entries_at(self, xv):
        """(a, b) from the cubic through the four nodes around each point (shifted inward at
        the walls); the cell comes from searchsorted, so interior nodes give their samples."""
        x = self.x
        i = np.clip(np.searchsorted(x, xv, side="right") - 1, 1, len(x) - 3)
        t = (np.asarray(xv) - x[i]) / (x[i + 1] - x[i])
        w = (-t * (t - 1) * (t - 2) / 6, (t + 1) * (t - 1) * (t - 2) / 2,
             -(t + 1) * t * (t - 2) / 2, (t + 1) * t * (t - 1) / 6)
        return tuple(sum(wk * y[i + k - 1] for k, wk in enumerate(w)) for y in (self.a, self.b))

    @cached_property
    def midpoint_entries(self):
        """(a, b) at the cell midpoints, the samples every sweep reads; built at the first."""
        return self.entries_at(0.5 * (self.x[:-1] + self.x[1:]))

    @cached_property
    def _sup_envelope(self) -> np.ndarray:
        """sup of max(|a|, |b|) over |t| >= x at the nodes x >= 0; built at the first use."""
        mag = np.maximum(np.abs(self.a), np.abs(self.b))
        mid = (len(self.x) - 1) // 2
        right = np.maximum.accumulate(mag[::-1])[::-1]          # sup over t >= x
        left = np.maximum.accumulate(mag)                       # sup over t <= x
        return np.maximum(right[mid:], left[mid::-1])

    def negligible_from(self, threshold: float) -> float:
        """Smallest station x >= 0 with max(|a|,|b|) <= threshold for all |t| >= x."""
        env = self._sup_envelope
        idx = np.nonzero(env <= threshold)[0]
        if idx.size == 0:
            raise DomainError(
                f"potential never falls below {threshold:.1e} on this grid; increase R")
        return float(self.x[-len(env):][idx[0]])


@dataclass(frozen=True)
class GridField2:
    """A two-component grid function (f, g) sharing the operator grid."""

    f: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        if np.shape(self.f) != np.shape(self.g):
            raise GridMismatchError("components f and g must share one grid")


@dataclass(frozen=True)
class EigenPair:
    lam: float
    w: GridField2
    residual: float
    parity: str             # "even" or "odd": the sector the pair was solved in
    imag: float = 0.0       # Im of the discrete eigenvalue (>= 0); an unstable pair
                            # has lam = 0, imag = gamma and a complex w


def potential_entries(nl: Nonlinearity, Q: np.ndarray):
    """Pointwise (a, b) = (F(Q^2) + F'(Q^2)Q^2, F'(Q^2)Q^2)."""
    s = np.asarray(Q) ** 2
    Fv = nl.F(s)
    dFv = nl.dF(s)
    return Fv + dFv * s, dFv * s


def potential_V(gs: GroundState, nl: Nonlinearity) -> PotentialMatrix:
    a, b = potential_entries(nl, gs.Q)
    return PotentialMatrix(x=gs.x, mu=gs.mu, a=a, b=b)


def decoupled_well_potential(mu: float, depth: float, R: float | None = None,
                             h: float | None = None) -> PotentialMatrix:
    """Potential of the decoupled operator H0 + diag(V, -V) with V = depth*sech^2(x).

    In the (a, b) parametrization this is a = V, b = 0: the two channels do
    not mix, which is the classical mechanism that lets a scalar bound state
    sit inside the essential spectrum of the matrix operator. The grid is
    ground_state.profile_grid's, defaults included.
    """
    if not np.isfinite(depth):
        raise DomainError(f"well depth must be finite, got {depth}")
    R, n, _, _ = profile_grid(mu, R, h)
    x = np.linspace(-R, R, 2 * n + 1)
    a = depth / np.cosh(x) ** 2
    return PotentialMatrix(x=x, mu=mu, a=a, b=np.zeros_like(x),
                           provenance=f"decoupled-well(depth={depth})")


def _second_diff(y: np.ndarray, h: float) -> np.ndarray:
    """Centered second difference with homogeneous Dirichlet ghosts."""
    out = np.empty_like(y)
    out[1:-1] = y[:-2] - 2.0 * y[1:-1] + y[2:]
    out[0] = -2.0 * y[0] + y[1]
    out[-1] = y[-2] - 2.0 * y[-1]
    return out / (h * h)


def _check_grid(pm: PotentialMatrix, arr: np.ndarray):
    if np.shape(arr) != np.shape(pm.x):
        raise GridMismatchError(
            f"grid function has shape {np.shape(arr)}, operator grid has {np.shape(pm.x)}")


def apply_H_potential(pm: PotentialMatrix, w: GridField2) -> GridField2:
    """Matrix-free action of H on (f, g)."""
    _check_grid(pm, w.f)
    h = pm.h
    f, g = w.f, w.g
    out_f = _second_diff(f, h) - pm.mu * f + pm.a * f + pm.b * g
    out_g = -_second_diff(g, h) + pm.mu * g - pm.b * f - pm.a * g
    return GridField2(out_f, out_g)


def _real_eigvec_candidates(lam, vec):
    """Real grid vectors representing one discrete eigenvalue.

    Real eigenvalues give their (real) eigenvector. A conjugate pair with
    imaginary part of discretization size is the split image of the kernel's
    Jordan block: its real and imaginary parts span the corresponding real
    invariant subspace, so both are reported at the real part of lambda.
    """
    if abs(lam.imag) == 0.0:
        return [np.real(vec)]
    return [np.real(vec), np.imag(vec)]


def _sector_operators(pm: PotentialMatrix, parity: str):
    """Sparse (L_minus, L_plus) on the nodes x >= 0 for grid functions of one parity.

    An even function mirrors its ghost node, so the origin row of the second
    difference reads (2 y_1 - 2 y_0)/h^2; an odd one vanishes at the origin,
    which drops that node. The wall keeps its Dirichlet ghost. With even a and
    b these are the full-grid operators restricted to each parity, exactly.
    """
    start = (len(pm.x) - 1) // 2 + (parity == "odd")
    m = len(pm.x) - start
    upper = np.ones(m - 1)
    if parity == "even":
        upper[0] = 2.0
    lap = sp.diags([np.ones(m - 1), -2.0 * np.ones(m), upper], offsets=[-1, 0, 1]) / pm.h**2
    a, b = pm.a[start:], pm.b[start:]
    return ((-lap + sp.diags(pm.mu - (a - b))).tocsr(),
            (-lap + sp.diags(pm.mu - (a + b))).tocsr())


def _unfold(y: np.ndarray, parity: str) -> np.ndarray:
    """Full-grid samples of an even or odd function from its sector samples."""
    if parity == "even":
        return np.concatenate([y[:0:-1], y])
    return np.concatenate([-y[::-1], [0.0], y])


def _squared_spectrum(M, dense: bool, k: int, mu: float):
    """Eigenpairs (lambda^2, u) of one sector product L_minus L_plus."""
    if dense:
        return dense_eig(M.toarray(), overwrite_a=True, check_finite=False)
    sigma = (0.013 * mu) ** 2
    last = None
    for _ in range(4):
        try:
            return sparse_eigs(M, k=min(k, M.shape[0] - 2), sigma=sigma, which="LM")
        except RuntimeError as exc:            # singular shift, nudge it
            sigma *= 1.7
            last = exc
    raise SolispecError(f"shift-invert eigensolve failed: {last}")


def _gate(pm: PotentialMatrix, vec: np.ndarray, target: complex, residual_gate: float):
    """(w, ||H w - target w||) for the unit full-grid vector along vec, or None when
    it carries more than WALL_MASS_LIMIT of its mass in the outermost two cells
    per side or its residual exceeds residual_gate."""
    n = len(pm.x)
    vec = vec / np.linalg.norm(vec)
    f, g = vec[:n], vec[n:]
    if np.sum(np.abs(np.concatenate([f[:2], f[-2:], g[:2], g[-2:]])) ** 2) > WALL_MASS_LIMIT:
        return None
    w = GridField2(f, g)
    hw = apply_H_potential(pm, w)
    residual = float(np.linalg.norm(np.concatenate([hw.f - target * f, hw.g - target * g])))
    return (w, residual) if residual <= residual_gate else None


def discrete_eigenvalues(gs: GroundState, nl: Nonlinearity,
                         window: tuple[float, float] | None = None,
                         k: int = 16) -> list[EigenPair]:
    """Point spectrum of the discretized H inside the spectral gap.

    window must sit strictly inside (-mu, mu); it defaults to
    (-0.98 mu, 0.98 mu). With u = f+g and v = f-g, H w = lambda w reads
    -L_minus v = lambda u and -L_plus u = lambda v, so lambda^2 is an
    eigenvalue of L_minus L_plus. On the grid H commutes with reversal, so
    that product is solved once per parity on the half grid x >= 0, never
    on the 2n x 2n matrix of H. Each lambda^2 != 0 gives the roots
    +-sqrt(lambda^2); each root gives v = -L_plus u / lambda,
    f = (u+v)/2 and g = (u-v)/2, unfolded to the full grid by parity, which
    is the pair's parity tag. Grids up to DENSE_GRID_LIMIT points solve the
    sector products densely (complete within the window); larger grids use
    shift-invert Arnoldi for the k values of lambda^2 nearest (0.013 mu)^2
    in each sector. Raises DomainError if a or b is not mirror symmetric.

    Discretizing the generalized kernel (a double Jordan block) splits its
    eigenvalues into real and imaginary pairs of size O(h), the square root
    of the O(h^2) stencil perturbation; conjugate pairs within 2 h max(1, mu)
    are reported through the real and imaginary parts of their eigenvectors
    at Re(lambda). A purely imaginary pair i*gamma beyond that band (real
    negative lambda^2, such as the Vakhitov-Kolokolov instability) is
    reported once as lam = 0, imag = gamma with its unit complex
    eigenvector; the value of lambda^2 nearest 0 in each parity is the
    kernel's image and never counts as such a pair, and other complex pairs
    are dropped. Eigenvectors hugging the Dirichlet walls (> 1% mass in the
    outermost two cells per side) or failing the discretization-scale
    residual gate are discarded as truncation artifacts.
    """
    pm = potential_V(gs, nl)
    if not (np.array_equal(pm.a, pm.a[::-1]) and np.array_equal(pm.b, pm.b[::-1])):
        raise DomainError("potential entries are not mirror symmetric; "
                          "the parity split needs an even profile")
    mu = pm.mu
    h = pm.h
    if window is None:
        window = (-0.98 * mu, 0.98 * mu)
    lo, hi = window
    if not (-mu < lo < hi < mu):
        raise DomainError(f"window {window} must lie strictly inside (-{mu}, {mu})")
    imag_band = KERNEL_IMAG_BAND * h * max(1.0, mu)
    residual_gate = RESIDUAL_BAND * h * max(1.0, mu)
    dense = len(pm.x) <= DENSE_GRID_LIMIT

    pairs: list[EigenPair] = []
    for parity in ("even", "odd"):
        Lm, Lp = _sector_operators(pm, parity)
        vals, vecs = _squared_spectrum(Lm @ Lp, dense, k, mu)
        kernel = np.argmin(np.abs(vals))       # the kernel's O(h^2) image, never an instability
        for j, (s, u) in enumerate(zip(vals, vecs.T)):
            if s == 0:
                continue
            root = np.sqrt(complex(s))
            for lam in (root, -root):
                if lam.imag < 0:               # conjugate-pair representative only
                    continue
                unstable = lam.imag > imag_band
                if unstable:
                    if j == kernel or s.real >= 0 or abs(s.imag) > REAL_SQUARE_TOL * abs(s):
                        continue
                    lam = complex(0.0, lam.imag)
                if not (lo <= lam.real <= hi):
                    continue
                v = -(Lp @ u) / lam
                full = np.concatenate([_unfold(u + v, parity), _unfold(u - v, parity)])
                for vec in [full] if unstable else _real_eigvec_candidates(lam, full):
                    if np.linalg.norm(vec) <= 1e-10 * np.linalg.norm(full):
                        continue
                    gated = _gate(pm, vec, lam if unstable else lam.real, residual_gate)
                    if gated:
                        pairs.append(EigenPair(lam=float(lam.real), w=gated[0], residual=gated[1],
                                               parity=parity, imag=float(abs(lam.imag))))
    pairs.sort(key=lambda p: (p.lam, p.imag))
    return pairs
