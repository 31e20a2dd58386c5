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
assembles the sparse matrix and reports the point spectrum inside the
spectral gap (-mu, mu).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.interpolate import CubicSpline
from scipy.linalg import eig as dense_eig
from scipy.sparse.linalg import eigs as sparse_eigs

from .errors import DomainError, GridMismatchError, SolispecError
from .ground_state import GroundState
from .nonlinearity import Nonlinearity

DENSE_GRID_LIMIT = 4000     # dense eigensolve up to this many grid points
WALL_MASS_LIMIT = 0.01      # discard eigenvectors carrying > 1% mass at the walls
KERNEL_IMAG_BAND = 2.0      # x h: the O(h^2) perturbation of the double kernel
                            # block splits its eigenvalues by O(h) (square root)
RESIDUAL_BAND = 10.0        # x h: residual gate for reported eigenpairs


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

    @cached_property
    def _spline(self):
        return CubicSpline(self.x, np.column_stack([self.a, self.b]), axis=0)

    def entries_at(self, xv):
        """Spline evaluation of (a, b) between grid nodes (exact at nodes)."""
        out = self._spline(xv)
        return out[..., 0], out[..., 1]

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

    def swap(self) -> "GridField2":
        """The conjugation S with S H S = -H."""
        return GridField2(self.g, self.f)


@dataclass(frozen=True)
class EigenPair:
    lam: float
    w: GridField2
    residual: float
    parity: str
    imag: float = 0.0       # imaginary part of the raw discrete eigenvalue


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
    sit inside the essential spectrum of the matrix operator.
    """
    if mu <= 0:
        raise DomainError(f"mu must be positive, got {mu}")
    sq = np.sqrt(mu)
    if R is None:
        R = 30.0 / sq
    if h is None:
        h = 1e-3 / sq
    n = int(round(R / h))
    x = np.linspace(-R, R, 2 * n + 1)
    a = depth / np.cosh(x) ** 2
    return PotentialMatrix(x=x, mu=mu, a=a, b=np.zeros_like(x),
                           provenance=f"decoupled-well(depth={depth})")


def _second_diff(y: np.ndarray, h: float, order: int = 2) -> np.ndarray:
    """Centered second difference with homogeneous Dirichlet ghosts.

    order 2 is the operator's contractual discretization; order 4 uses the
    five-point stencil (ghosts zero beyond both walls) for refinement
    studies.
    """
    out = np.empty_like(y)
    if order == 2:
        out[1:-1] = y[:-2] - 2.0 * y[1:-1] + y[2:]
        out[0] = -2.0 * y[0] + y[1]
        out[-1] = y[-2] - 2.0 * y[-1]
        return out / (h * h)
    if order == 4:
        z = np.concatenate([[0.0, 0.0], y, [0.0, 0.0]])
        out = (-z[:-4] + 16.0 * z[1:-3] - 30.0 * z[2:-2]
               + 16.0 * z[3:-1] - z[4:]) / 12.0
        return out / (h * h)
    raise DomainError(f"stencil order must be 2 or 4, got {order}")


def _check_grid(pm: PotentialMatrix, arr: np.ndarray):
    if np.shape(arr) != np.shape(pm.x):
        raise GridMismatchError(
            f"grid function has shape {np.shape(arr)}, operator grid has {np.shape(pm.x)}")


def apply_H_potential(pm: PotentialMatrix, w: GridField2, order: int = 2) -> GridField2:
    """Matrix-free action of H on (f, g)."""
    _check_grid(pm, w.f)
    h = pm.h
    f, g = w.f, w.g
    out_f = _second_diff(f, h, order) - pm.mu * f + pm.a * f + pm.b * g
    out_g = -_second_diff(g, h, order) + pm.mu * g - pm.b * f - pm.a * g
    return GridField2(out_f, out_g)


def _normalize_sign(sign) -> int:
    """+1 selects L_plus and -1 L_minus; also accepts '+'/'-' and 'plus'/'minus'."""
    s = {"+": 1, "-": -1, 1: 1, -1: -1, "plus": 1, "minus": -1}.get(sign)
    if s is None:
        raise DomainError("sign must be '+'/'-' or +1/-1")
    return s


def apply_L_potential(pm: PotentialMatrix, sign, f: np.ndarray,
                      order: int = 2) -> np.ndarray:
    """Scalar action: sign -1 (or '-') gives L_minus, sign +1 (or '+') gives L_plus."""
    _check_grid(pm, f)
    pot = (pm.a + pm.b) if _normalize_sign(sign) == 1 else (pm.a - pm.b)
    return -_second_diff(f, pm.h, order) + pm.mu * f - pot * f


def assemble_matrix(pm: PotentialMatrix) -> sp.csr_matrix:
    """Sparse 2n x 2n matrix of H with Dirichlet walls."""
    n = len(pm.x)
    h2 = pm.h ** 2
    lap = sp.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)],
                   offsets=[-1, 0, 1], format="csr") / h2
    A = sp.diags(pm.a)
    B = sp.diags(pm.b)
    I = sp.identity(n, format="csr")
    top = sp.hstack([lap - pm.mu * I + A, B])
    bot = sp.hstack([-B, -lap + pm.mu * I - A])
    return sp.vstack([top, bot]).tocsr()


def _parity_tag(x: np.ndarray, vec: np.ndarray, tol: float = 1e-6) -> str:
    mirrored = vec[::-1]
    nrm = np.linalg.norm(vec)
    if nrm == 0:
        return "none"
    if np.linalg.norm(vec - mirrored) <= tol * nrm:
        return "even"
    if np.linalg.norm(vec + mirrored) <= tol * nrm:
        return "odd"
    return "none"


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


def discrete_eigenvalues(gs: GroundState, nl: Nonlinearity,
                         window: tuple[float, float] | None = None,
                         k: int = 16, dense_limit: int = DENSE_GRID_LIMIT,
                         imag_band: float | None = None) -> list[EigenPair]:
    """Point spectrum of the discretized H inside the spectral gap.

    window must sit strictly inside (-mu, mu); it defaults to
    (-0.98 mu, 0.98 mu). Grids up to dense_limit points use a dense
    eigensolve (complete within the window); larger grids fall back to
    shift-invert Arnoldi and report at most k pairs near the gap center.

    Discretizing the generalized kernel (a double Jordan block) splits its
    eigenvalues into real and imaginary pairs of size O(h), the square root
    of the O(h^2) stencil perturbation; conjugate pairs within imag_band
    (default 2 h max(1, mu)) are reported through the real and imaginary
    parts of their eigenvectors at Re(lambda). Eigenvectors hugging the
    Dirichlet walls (> 1% mass in the outermost two cells per side) or
    failing the discretization-scale residual gate are discarded as
    truncation artifacts.
    """
    pm = potential_V(gs, nl)
    mu = pm.mu
    h = pm.h
    if window is None:
        window = (-0.98 * mu, 0.98 * mu)
    lo, hi = window
    if not (-mu < lo < hi < mu):
        raise DomainError(f"window {window} must lie strictly inside (-{mu}, {mu})")
    if imag_band is None:
        imag_band = KERNEL_IMAG_BAND * h * max(1.0, mu)
    residual_gate = RESIDUAL_BAND * h * max(1.0, mu)

    H = assemble_matrix(pm)
    n = len(pm.x)
    if n <= dense_limit:
        vals, vecs = dense_eig(H.toarray())
    else:
        sigma = 0.013 * mu
        last = None
        for _ in range(4):
            try:
                vals, vecs = sparse_eigs(H, k=min(k, 2 * n - 2), sigma=sigma, which="LM")
                break
            except RuntimeError as exc:        # singular shift, nudge it
                sigma *= 1.7
                last = exc
        else:
            raise SolispecError(f"shift-invert eigensolve failed: {last}")

    pairs: list[EigenPair] = []
    for j in range(len(vals)):
        lam = vals[j]
        if lam.imag < 0:                       # conjugate-pair representative only
            continue
        if abs(lam.imag) > imag_band:
            continue
        lam_r = float(lam.real)
        if not (lo <= lam_r <= hi):
            continue
        for vec in _real_eigvec_candidates(lam, vecs[:, j]):
            nrm = np.linalg.norm(vec)
            if nrm <= 1e-10 * np.linalg.norm(vecs[:, j]):
                continue
            vec = vec / nrm
            f, g = vec[:n], vec[n:]
            mass = np.sum(f**2 + g**2)
            wall = np.sum(f[:2]**2 + f[-2:]**2 + g[:2]**2 + g[-2:]**2)
            if wall > WALL_MASS_LIMIT * mass:
                continue
            w = GridField2(f, g)
            res_field = apply_H_potential(pm, w)
            residual = float(np.linalg.norm(
                np.concatenate([res_field.f - lam_r * f, res_field.g - lam_r * g])))
            if residual > residual_gate:
                continue
            parity = "none"
            pf, pg = _parity_tag(pm.x, f), _parity_tag(pm.x, g)
            if pf == pg and pf != "none":
                parity = pf
            pairs.append(EigenPair(lam=lam_r, w=w, residual=residual,
                                   parity=parity, imag=float(lam.imag)))
    pairs.sort(key=lambda p: (p.lam, p.imag))
    return pairs
