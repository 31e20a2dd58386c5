"""Per-energy certificates that no eigenfunction hides in the essential spectrum.

For each lambda with |lambda| >= mu the certificate builds the solution of
(H - lambda) w = 0 that decays at +infinity (normalized to unit leading
coefficient), forms u = f + g and v = f - g, and records two independent
witnesses that the solution cannot be square integrable:

* Parity witness. H commutes with reflection, so a nontrivial L^2
  eigenfunction could be chosen even or odd; even forces v'(0) = 0 and odd
  forces v(0) = 0. Since the decaying-at-+inf solution is unique up to
  scale, min(|v(0)|, |v'(0)|), suitably normalized, bounded away from zero
  rules both parities out at once. The sign pattern v(0) > 0, v'(0) < 0
  (for lambda >= mu, with positive normalization) and strict positivity of
  u, v on (0, R] are recorded as flags.

* Mode-matching witness. The same solution is expanded at the left end in
  the four free modes; the joint amplitude of the non-decaying modes
  (growing + oscillatory pair), measured at the near edge of the fit
  window and normalized by the solution scale near the origin, must vanish
  for an eigenfunction. Its distance from zero is the "mismatch".

Energies lambda <= -mu reduce to the positive branch through the exact
conjugation S H S = -H, S(f, g) = (g, f), which maps solutions at lambda
to solutions at -lambda with v -> -v: their record is reflect_spectrum of
the record at |lambda|. A direct negative-branch computation is also
available for cross-checks.

negative_control runs the same machinery on the decoupled operator
H0 + diag(V, -V) with a sech^2 well, which genuinely carries an embedded
eigenvalue: there the signed growing-mode coefficient changes sign and the
mismatch dips to numerical noise, demonstrating the detector is not vacuous.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.optimize import brentq

from . import __version__ as _tool_version
from .errors import ConfigurationError, DomainError, HypothesisError, SolispecError
from .ground_state import GroundState
from .jost import (JostSolution, at_threshold, default_window, expand_in_modes, in_gap,
                   _sweep_decaying)
from .linearized_operator import PotentialMatrix, decoupled_well_potential, potential_V
from .nonlinearity import Nonlinearity

VERDICT_NONE = "no-embedded-eigenvalue"
VERDICT_CANDIDATE = "embedded-candidate"
VERDICT_INCONCLUSIVE = "inconclusive"

SCHEMA_VERSION = 1
THRESHOLD_RELAX = 0.1     # slack on both thresholds exactly at |lambda| = mu
NEAR = 5.0                # the witnesses are normalized on |x| <= NEAR / sqrt(mu)
SWEEP_STRIDES = (4, 2)    # cells per certificate sweep step, largest first; else 1
SWEEP_KH_MAX = 0.1        # largest 2 k h kappa of a certificate sweep at stride k


def report_header(config_hash: str | None) -> dict:
    """Schema version, tool identity and config hash heading every report and sidecar."""
    return {"schema_version": SCHEMA_VERSION,
            "tool": {"name": "solispec", "version": _tool_version},
            "config_hash": config_hash}


@dataclass(frozen=True)
class Thresholds:
    """Certificate decision levels (normalized quantities)."""

    theta_cert: float = 1e-3
    theta_mismatch: float = 1e-3

    def to_dict(self) -> dict:
        return {**asdict(self), "threshold_relax": THRESHOLD_RELAX}


@dataclass(frozen=True)
class CertificateRecord:
    lam: float
    v0: float
    v0p: float
    v0_norm: float
    v0p_norm: float
    u_positive: bool
    v_signed: bool
    mismatch: float
    c_grow_signed: float
    fit_residual: float
    verdict: str
    at_threshold: bool = False
    method: str = "reflect"
    error: str | None = None

    def to_dict(self) -> dict:
        out = asdict(self)
        out["lambda"] = out.pop("lam")
        return out


def _error_record(lam: float, msg: str) -> CertificateRecord:
    return CertificateRecord(lam=float(lam), v0=float("nan"), v0p=float("nan"),
                             v0_norm=float("nan"), v0p_norm=float("nan"),
                             u_positive=False, v_signed=False, mismatch=float("nan"),
                             c_grow_signed=float("nan"), fit_residual=float("nan"),
                             verdict=VERDICT_INCONCLUSIVE, error=msg)


def _strictly_positive(y: np.ndarray) -> bool:
    return bool(np.all(y > 0.0))


def _score_solution(pm: PotentialMatrix, sol: JostSolution, th: Thresholds,
                    method_name: str) -> CertificateRecord:
    """Turn a decaying solution into a certificate record; the verdict and the normalized
    witnesses are scale invariant, the signs of v0 and v0p follow the solution's."""
    lam, mu = sol.lam, pm.mu
    thr = at_threshold(lam, mu)
    relax = THRESHOLD_RELAX if thr else 1.0

    sgn_v = 1.0 if lam >= 0 else -1.0
    u = sol.f + sol.g
    v = sol.f - sol.g
    vp = sol.fp - sol.gp

    h = float(sol.x[1] - sol.x[0])
    i0 = int(np.argmin(np.abs(sol.x)))
    if abs(sol.x[i0]) > 1e-9:
        raise DomainError("grid does not contain the origin")

    pos_mask = sol.x > 0.5 * h
    u_positive = _strictly_positive(u[pos_mask])
    v_signed = _strictly_positive(sgn_v * v[pos_mask])

    v0 = float(v[i0])
    v0p = float(vp[i0])

    sq = math.sqrt(mu)
    near = (sol.x >= 0.0) & (sol.x <= NEAR / sq)
    v_near_max = float(np.max(np.abs(v[near])))
    vp_near_max = float(np.max(np.abs(vp[near])))
    v0_norm = abs(v0) / v_near_max if v_near_max > 0 else 0.0
    v0p_norm = abs(v0p) / vp_near_max if vp_near_max > 0 else 0.0

    window = default_window(pm, lam, end=-1)
    exp = expand_in_modes(sol, end=-1, window=window)
    sup_mask = np.abs(sol.x) <= NEAR / sq
    sup_mid = float(np.max(np.maximum(np.abs(sol.f[sup_mask]), np.abs(sol.g[sup_mask]))))
    nondecaying = exp.amplitudes[1:]
    mismatch = float(np.sqrt(np.sum(nondecaying**2)) / sup_mid)
    grow_mode_env = exp.amplitudes[1]
    c_grow_signed = float(math.copysign(grow_mode_env, exp.coeffs[1]) / sup_mid)

    pass_parity = min(v0_norm, v0p_norm) >= th.theta_cert * relax
    pass_mismatch = mismatch >= th.theta_mismatch * relax
    if pass_parity and pass_mismatch:
        verdict = VERDICT_NONE
    elif not pass_mismatch:
        verdict = VERDICT_CANDIDATE
    else:
        verdict = VERDICT_INCONCLUSIVE

    return CertificateRecord(lam=lam, v0=v0, v0p=v0p, v0_norm=v0_norm,
                             v0p_norm=v0p_norm, u_positive=u_positive,
                             v_signed=v_signed, mismatch=mismatch,
                             c_grow_signed=c_grow_signed, fit_residual=exp.residual,
                             verdict=verdict, at_threshold=thr, method=method_name)


def _certify_potential(pm: PotentialMatrix, lam: float,
                       thresholds: Thresholds | None = None,
                       method: str = "reflect") -> CertificateRecord:
    """Core certificate at one energy on a prebuilt potential.

    The sweep steps k cells at a time and is extrapolated on every 2k-th node
    (jost._sweep_decaying): k is the largest of SWEEP_STRIDES with
    2 k h kappa <= SWEEP_KH_MAX (kappa = sqrt(mu + |lambda|)) whose 2k-th nodes hold the
    left end of |x| <= NEAR / sqrt(mu), else 1. The growing mode puts sup_mid there, so
    on other nodes the mismatch would move by a few per cent; on the default grids,
    h = 1e-3/sqrt(mu), that end is node 5000 from the origin, on every 2k-th node. The
    sweep stops at the lattice node at or left of the mode-fit window's left edge, not at
    -R: no witness reads a sample left of that window.
    """
    th = thresholds or Thresholds()
    if lam < 0 and method != "direct":
        return reflect_spectrum(_certify_potential(pm, -lam, th))
    # a non-finite lam passes no test, so k = 1 and default_window's finiteness check
    # rejects it
    kappa = math.sqrt(pm.mu + abs(lam))
    near = (len(pm.x) - 1) // 2 - int(np.searchsorted(pm.x, -NEAR / math.sqrt(pm.mu)))
    k = next((k for k in SWEEP_STRIDES
              if 2 * k * pm.h * kappa <= SWEEP_KH_MAX and near % (2 * k) == 0), 1)
    x_end = default_window(pm, lam, end=-1)[0]
    return _score_solution(pm, _sweep_decaying(pm, lam, k, x_end), th,
                           "direct" if lam < 0 else "reflect")


def certify_lambda(gs: GroundState, nl: Nonlinearity, lam: float,
                   thresholds: Thresholds | None = None,
                   method: str = "reflect") -> CertificateRecord:
    """Certificate record at one energy of the essential spectrum."""
    return _certify_potential(potential_V(gs, nl), lam, thresholds, method)


def reflect_spectrum(rec: CertificateRecord) -> CertificateRecord:
    """The record at -lambda from the record at lambda.

    The exact conjugation S H S = -H with S(f, g) = (g, f) swaps the
    components of a solution, so the witnesses stay and v -> -v.
    """
    return replace(rec, lam=-rec.lam, v0=-rec.v0, v0p=-rec.v0p)


@dataclass
class ScanReport:
    """Certificates over an energy grid plus everything needed to rerun them."""

    mu: float
    lambdas: list[float]
    records: list[CertificateRecord]
    ground_meta: dict
    nonlinearity_meta: dict
    thresholds: Thresholds
    config_hash: str | None = None
    timestamp: str | None = None

    def summary(self) -> dict:
        ok = [r for r in self.records if r.error is None]
        return {
            "n_records": len(self.records),
            "verdict_counts": dict(Counter(r.verdict for r in self.records)),
            "min_v0_norm": min((min(r.v0_norm, r.v0p_norm) for r in ok), default=float("nan")),
            "min_mismatch": min((r.mismatch for r in ok), default=float("nan")),
        }

    def to_json_dict(self) -> dict:
        return {
            **report_header(self.config_hash),
            "mu": self.mu,
            "ground_state": self.ground_meta,
            "nonlinearity": self.nonlinearity_meta,
            "thresholds": self.thresholds.to_dict(),
            "lambda_grid": {"values": list(self.lambdas)},
            "records": [r.to_dict() for r in self.records],
            "summary": self.summary(),
            "timestamp": self.timestamp,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def csv_rows(self):
        yield ("lambda", "v0", "v0p", "mismatch", "verdict")
        for r in self.records:
            yield (repr(r.lam), repr(r.v0), repr(r.v0p), repr(r.mismatch), r.verdict)


def _scan_one(pm: PotentialMatrix, lam: float, th: Thresholds) -> CertificateRecord:
    try:
        return _certify_potential(pm, lam, th)
    except SolispecError as exc:
        return _error_record(lam, f"{type(exc).__name__}: {exc}")


_worker_pm: PotentialMatrix | None = None     # a pool worker's potential, set once at start


def _init_worker(pm: PotentialMatrix):
    global _worker_pm
    _worker_pm = pm


def _scan_in_worker(lam: float, th: Thresholds) -> CertificateRecord:
    return _scan_one(_worker_pm, lam, th)


def _ground_meta(gs: GroundState) -> dict:
    return {"mu": gs.mu, "R": gs.R, "h": gs.h, "shoot_value": gs.shoot_value,
            "c0": gs.c0, "rate": gs.rate, "x_replace": gs.x_replace,
            "first_integral_max": gs.first_integral_max}


def energy_grid(lambdas, mu: float) -> list[float]:
    """The energies of a scan as floats; ConfigurationError unless they are non-empty,
    finite, strictly increasing and outside the spectral gap (-mu, mu)."""
    lams = [float(v) for v in np.asarray(lambdas, dtype=float)]
    if len(lams) == 0:
        raise ConfigurationError("empty lambda grid")
    if not np.all(np.isfinite(lams)):
        raise ConfigurationError("lambda grid must be finite")
    if np.any(np.diff(lams) <= 0):
        raise ConfigurationError("lambda grid must be strictly increasing")
    for lam in lams:
        if in_gap(lam, mu):
            raise ConfigurationError(
                f"lambda = {lam} lies inside the spectral gap (-{mu}, {mu})")
    return lams


def _scan(pm: PotentialMatrix, lams: list[float], thresholds: Thresholds | None,
          workers: int, ground_meta: dict, nonlinearity_meta: dict) -> ScanReport:
    """Certify every energy of a grid checked by energy_grid on a prebuilt potential.

    Per-energy failures become inconclusive records instead of aborting the
    scan. Records come back sorted by energy regardless of worker count, so
    reports are deterministic.
    """
    th = thresholds or Thresholds()
    if workers > 1:
        # the potential goes to each worker once, not with every chunk of energies
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(pm,)) as pool:
            records = list(pool.map(_scan_in_worker, lams, [th] * len(lams),
                                    chunksize=max(1, len(lams) // (4 * workers))))
    else:
        records = [_scan_one(pm, lam, th) for lam in lams]
    return ScanReport(mu=pm.mu, lambdas=lams, records=records, ground_meta=ground_meta,
                      nonlinearity_meta=nonlinearity_meta, thresholds=th)


def scan_embedded(gs: GroundState, nl: Nonlinearity, lambdas,
                  thresholds: Thresholds | None = None,
                  workers: int = 1) -> ScanReport:
    """Certify every energy of a strictly increasing grid in the essential spectrum."""
    lams = energy_grid(lambdas, gs.mu)
    return _scan(potential_V(gs, nl), lams, thresholds, workers,
                 _ground_meta(gs), nl.to_config())


def sech_well_levels(mu: float, depth: float) -> list[float]:
    """Energies lambda of (d2/dx2 - mu + depth*sech^2) f = lambda f with lambda >= mu.

    The sech^2 well has the classical closed-form bound states
    E_n = -(s - n)^2 with s = (-1 + sqrt(1 + 4*depth)) / 2, so the embedded
    energies of the decoupled matrix operator are lambda_n = (s - n)^2 - mu.
    """
    if not math.isfinite(depth):
        raise DomainError(f"well depth must be finite, got {depth}")
    if depth <= 0:
        return []
    s = 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * depth))
    count = math.floor(s - math.sqrt(2.0 * mu)) + 1     # lambda_n >= mu iff n <= s - sqrt(2 mu)
    levels = (s - np.arange(count)) ** 2 - mu
    return levels[levels >= mu].tolist()                # drops a level rounded below mu


def control_scan(mu: float, well_depth: float, lambdas,
                 thresholds: Thresholds | None = None) -> ScanReport:
    """Run the certificate machinery on the decoupled sech^2-well operator."""
    lams = energy_grid(lambdas, mu)
    pm = decoupled_well_potential(mu, well_depth)
    return _scan(pm, lams, thresholds, 1,
                 {"mu": mu, "R": pm.R, "h": pm.h, "potential": pm.provenance},
                 {"family": "none (decoupled control)"})


def _grow_coeff(lam: float, pm: PotentialMatrix, th: Thresholds) -> float:
    """Signed growing-mode coefficient at lam; brentq gets pm as an argument, since it
    wraps its callable in a self-referencing closure that would keep a captured pm alive."""
    return _certify_potential(pm, lam, th).c_grow_signed


def negative_control(mu: float, well_depth: float,
                     thresholds: Thresholds | None = None) -> CertificateRecord:
    """Locate the genuine embedded eigenvalue of the decoupled control operator.

    Scans the predicted neighborhood for a sign change of the growing-mode
    coefficient, refines the root by bisection, and returns the certificate
    there. Raises ConfigurationError when the well is too shallow to push a
    bound state into the essential spectrum (the closed form requires
    depth >= sqrt(2 mu) (sqrt(2 mu)+1)), and HypothesisError when detection
    fails: no sign change near the predicted level, or a verdict at the root
    other than embedded-candidate.
    """
    th = thresholds or Thresholds()
    levels = sech_well_levels(mu, well_depth)
    if not levels:
        s2 = math.sqrt(2.0 * mu)
        raise ConfigurationError(
            f"well depth {well_depth} puts no bound state at or beyond lambda = mu; "
            f"need depth >= {s2 * (s2 + 1.0):.4f} for mu = {mu}")
    lam0 = levels[0]
    pm = decoupled_well_potential(mu, well_depth)
    lo = max(mu * (1.0 + 1e-9), lam0 - 0.4)
    hi = lam0 + 0.4
    grid = np.linspace(lo, hi, 17)
    vals = [_grow_coeff(l, pm, th) for l in grid]
    bracket = None
    for i in range(len(grid) - 1):
        if np.isfinite(vals[i]) and np.isfinite(vals[i + 1]) and vals[i] * vals[i + 1] < 0:
            bracket = (grid[i], grid[i + 1])
            break
    if bracket is None:
        raise HypothesisError(
            f"no sign change of the growing-mode coefficient near the predicted "
            f"embedded energy {lam0:.4f}; control detection failed")
    lam_star = brentq(_grow_coeff, *bracket, args=(pm, th), xtol=1e-10, rtol=1e-15)
    rec = _certify_potential(pm, float(lam_star), th)
    if rec.verdict != VERDICT_CANDIDATE:
        raise HypothesisError(
            f"the growing-mode coefficient changes sign at lambda = {rec.lam:.6f}, but the "
            f"verdict there is {rec.verdict}; control detection failed")
    return rec
