"""The four solispec benchmark workloads.

Every workload is a closed loop with one client: the harness (run.py) sets it
up, then runs its job back to back. Only scan-parallel uses worker
processes. Inputs come from the seed alone: each energy grid keeps its end
points (the thresholds |lambda| = mu, where the witnesses are thinnest, and
the far end the user asked for) and shifts every interior energy by its own
seeded fraction in [-1/2, 1/2) of the grid spacing; single probe energies
shift by a seeded fraction of PROBE_SPACING * mu. solispec receives only the
generated energies and configs.

A workload offers:
  workers               worker processes (None: one per available core)
  setup_reps            set-ups per run; setup_s is their median
  setup(tr)             ground states and potentials; timed as set-up
  check_setup(state)    oracle and first-integral checks, untimed
  units(state)          the work phase as short named units, each
                        unit(tr, chk) -> JobOut; one pass of the job runs
                        every unit once, and the harness cycles them
  probe(tr, state, ...)  traced runs only: layer calls at the job's energies
Checks count every checked operation in Checks; a failure never raises.
"""

from __future__ import annotations

import json
import math
import pickle
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import solispec as sp
import solispec.jost as sp_jost
from solispec.config import DEFAULTS, RunConfig

EXPECTED = "no-embedded-eigenvalue"
CANDIDATE = "embedded-candidate"
ORACLE_TOL = 1e-8           # criterion 1: sup |Q - sqrt(2) sech x| on |x| <= 20
FIRST_INTEGRAL_TOL = 1e-8   # criterion 2
REFLECT_TOL = 1e-8          # criterion 4: reflected vs direct negative-branch record
FIXED_POINT_TOL = 1e-6      # criterion 6
CONTROL_TOL = 0.05          # criterion 8: control root within this of lambda0
KERNEL_TOL = 0.05           # a gap eigenvalue this close to 0 (in units of mu) is the kernel
PROBE_SPACING = 0.5         # probe energies move by up to half of this, in units of mu

SIZES = {
    # energies per family grid, control grids, profile cases and eigen grid,
    # negative-branch energies for the parallel scan
    "full": {"family_n": 4, "control_n": 4, "shallow_n": 4, "profile_cases": 7,
             "eigen_n": 601, "parallel_n": 20},
    "tiny": {"family_n": 2, "control_n": 3, "shallow_n": 2, "profile_cases": 2,
             "eigen_n": 201, "parallel_n": 4},
}


class Checks:
    """Counts checked operations and records the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @contextmanager
    def guard(self, what: str):
        """A case whose raise counts as one failed operation instead of ending the run."""
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - any raise is a failed case, recorded
            self.attempted += 1
            self.failures.append(f"{what} raised {type(exc).__name__}: {exc}")


@dataclass
class JobOut:
    certificates: int = 0
    reports: dict = field(default_factory=dict)      # name -> serialized report text
    margins: list = field(default_factory=list)      # min witness / threshold per report
    report_bytes: int = 0
    control_lam_err: float | None = None
    eig_pairs: int = 0
    fixed_point_residuals: list = field(default_factory=list)

    def merge(self, other: "JobOut") -> "JobOut":
        """This unit's outputs plus another's: one pass of the job from its units."""
        self.certificates += other.certificates
        self.reports.update(other.reports)
        self.margins += other.margins
        self.report_bytes += other.report_bytes
        if other.control_lam_err is not None:
            self.control_lam_err = other.control_lam_err
        self.eig_pairs += other.eig_pairs
        self.fixed_point_residuals += other.fixed_point_residuals
        return self


@dataclass
class Case:
    label: str
    cfg: RunConfig
    nl: sp.Nonlinearity
    gs: sp.GroundState
    pm: sp.PotentialMatrix
    gs_eig: sp.GroundState | None = None


# -- inputs ---------------------------------------------------------------------

def jittered_grid(rng, lo: float, hi: float, n: int) -> list[float]:
    grid = np.linspace(lo, hi, n)
    if n > 2:
        grid[1:-1] += (rng.random(n - 2) - 0.5) * (hi - lo) / (n - 1)
    return [float(v) for v in grid]


def probe_energy(rng, base: float, mu: float) -> float:
    return float(mu * (base + (rng.random() - 0.5) * PROBE_SPACING))


def raw_config(**over) -> dict:
    raw = json.loads(json.dumps(DEFAULTS))
    for key, val in over.items():
        if isinstance(val, dict) and isinstance(raw.get(key), dict):
            raw[key].update(val)
        else:
            raw[key] = val
    return raw


# -- shared steps -------------------------------------------------------------

def build_potential(tr, fn, *args, **kwargs):
    """A potential plus its spline, which the first array entries_at call builds."""
    with tr.span("linearized_operator.potential"):
        pm = tr.call(f"linearized_operator.{fn.__name__}", fn, *args, **kwargs)
        tr.call("linearized_operator.entries_at", pm.entries_at, pm.x[:2])
    return pm


def build_case(tr, label: str, raw: dict, eigen: bool = False) -> Case:
    """Config validation, ground state and potential, as the CLI commands do them."""
    cfg = tr.call("config.validate", RunConfig(raw).validate)
    nl = cfg.nonlinearity()
    gs = tr.call("ground_state.solve_ground_state", sp.solve_ground_state,
                 nl, cfg.mu, R=cfg.R, h=cfg.h, tol=cfg.tol_ode)
    pm = build_potential(tr, sp.potential_V, gs, nl)
    gs_eig = None
    if eigen:
        # the eigen grid of `solispec spectrum`
        mu, eig = cfg.mu, cfg.raw["eigen"]
        R_eig = eig.get("R") or min(cfg.R or 30.0 / math.sqrt(mu), 12.0 / math.sqrt(mu))
        h_eig = R_eig / ((int(eig["n"]) - 1) // 2 or 1)
        gs_eig = tr.call("ground_state.solve_ground_state", sp.solve_ground_state,
                         nl, mu, R=R_eig, h=h_eig, tol=max(cfg.tol_ode, 1e-9))
    return Case(label, cfg, nl, gs, pm, gs_eig)


def thresholds(cfg: RunConfig) -> sp.Thresholds:
    return sp.Thresholds(theta_cert=cfg.theta_cert, theta_mismatch=cfg.theta_mismatch)


def check_ground_states(cases, chk: Checks, layer: dict):
    for case in cases:
        for gs in filter(None, (case.gs, case.gs_eig)):
            fi = sp.first_integral_residual(gs, case.nl)
            layer["ground_state.first_integral_max"] = max(
                layer.get("ground_state.first_integral_max", 0.0), fi)
            chk.expect(fi <= FIRST_INTEGRAL_TOL,
                       f"{case.label}: first-integral residual {fi:.2e} > {FIRST_INTEGRAL_TOL}")
        nl_block = case.cfg.raw["nonlinearity"]
        if nl_block == {"family": "power", "params": [1.0]} and case.cfg.mu == 1.0:
            gs = case.gs
            mask = np.abs(gs.x) <= 20.0
            err = float(np.max(np.abs(gs.Q - math.sqrt(2.0) / np.cosh(gs.x))[mask]))
            layer["ground_state.oracle_err"] = err
            chk.expect(err <= ORACLE_TOL, f"{case.label}: oracle error {err:.2e} > {ORACLE_TOL}")


def publish(tr, out: JobOut, name: str, report):
    """Serialize a scan report as the CLI writes it (JSON plus CSV rows)."""
    text = tr.call("certificate.to_json", report.to_json)
    rows = tr.call("certificate.csv_rows", list, report.csv_rows())
    out.reports[name] = text
    out.report_bytes += len(text.encode()) + sum(len(",".join(r)) + 1 for r in rows)


def margin(report) -> float:
    summ, th = report.summary(), report.thresholds
    return min(summ["min_v0_norm"] / th.theta_cert, summ["min_mismatch"] / th.theta_mismatch)


def check_certified(chk: Checks, label: str, rec):
    """Expected verdict and the branch's sign pattern: v0 > 0 > v0' above, mirrored below."""
    sign = 1.0 if rec.lam > 0 else -1.0
    ok = (rec.error is None and rec.verdict == EXPECTED
          and sign * rec.v0 > 0 > sign * rec.v0p and rec.u_positive and rec.v_signed)
    chk.expect(ok, f"{label} lambda={rec.lam!r}: verdict {rec.verdict}, v0={rec.v0!r}, "
                   f"v0p={rec.v0p!r}, error={rec.error}")


def probe_sweeps(tr, pm, energies, layer: dict):
    """Sweep and mode fit at the energies a job certified, one call each."""
    for lam in energies:
        # at the certificates' sweep tolerance, so scan_self_s compares like with like
        sol = tr.call("jost.decaying_solution", sp.decaying_solution, lam, potential=pm,
                      rtol=sp_jost.CERT_SWEEP_RTOL)
        with tr.span("jost.fit"):
            window = tr.call("jost.default_window", sp.default_window, pm, lam, end=-1)
            fit = tr.call("jost.expand_in_modes", sp.expand_in_modes, sol, end=-1, window=window)
        for key, val in (("jost.residual_max", sol.residual),
                         ("jost.asym_dev_max", sol.asym_deviation),
                         ("jost.fit_cond_max", fit.cond)):
            layer[key] = max(layer.get(key, 0.0), float(val))


def probe_nonlinearity(tr, cases):
    for case in cases:
        tr.call("nonlinearity.eval", case.nl.eval, case.gs.Q ** 2)


# -- workloads ------------------------------------------------------------------
# Why each workload exists is stated once, in BENCHMARK.json.

class ScanFamilies:
    workers = 1
    setup_reps = 3
    name = "scan-families"
    FAMILIES = (("power", [1.0]), ("saturable", [0.5]), ("cubic_quintic", [0.1]))

    def __init__(self, size: dict, rng, workers: int):
        self.grids = {fam: jittered_grid(rng, 1.0, 10.0, size["family_n"])
                      for fam, _ in self.FAMILIES}
        self.inputs = {"mu": 1.0, "workers": 1, "energies": self.grids}

    def setup(self, tr):
        return [build_case(tr, fam, raw_config(
                    nonlinearity={"family": fam, "params": params}, mu=1.0,
                    scan={"lmin": 1.0, "lmax": 10.0, "n": len(self.grids[fam])}))
                for fam, params in self.FAMILIES]

    def check_setup(self, cases, chk, layer):
        check_ground_states(cases, chk, layer)

    def units(self, cases):
        """One unit per family: its criterion-7 scan over [1, 10]."""
        def scan(case):
            def unit(tr, chk):
                out = JobOut()
                with chk.guard(f"scan {case.label}"):
                    report = tr.call("certificate.scan_embedded", sp.scan_embedded, case.gs,
                                     case.nl, self.grids[case.label],
                                     thresholds=thresholds(case.cfg), workers=1)
                    publish(tr, out, f"scan-{case.label}", report)
                    for rec in report.records:
                        check_certified(chk, case.label, rec)
                    out.certificates += len(report.records)
                    out.margins.append(margin(report))
                return out
            return unit
        return {case.label: scan(case) for case in cases}

    def probe(self, tr, cases, layer, chk, last):
        probe_nonlinearity(tr, cases)
        for case in cases:
            probe_sweeps(tr, case.pm, self.grids[case.label], layer)


class ControlWell:
    workers = 1
    setup_reps = 3
    name = "control-well"
    MU, DEPTH, SHALLOW = 1.0, 6.0, 0.1

    def __init__(self, size: dict, rng, workers: int):
        self.lam0 = sp.sech_well_levels(self.MU, self.DEPTH)[0]
        self.around = jittered_grid(rng, max(self.MU * (1 + 1e-9), self.lam0 - 0.5),
                                    self.lam0 + 0.5, size["control_n"])
        self.shallow = jittered_grid(rng, self.MU, 10.0 * self.MU, size["shallow_n"])
        self.inputs = {"mu": self.MU, "depth": self.DEPTH, "shallow_depth": self.SHALLOW,
                       "lambda0": self.lam0, "around": self.around, "shallow": self.shallow}

    def setup(self, tr):
        return tr.call("config.validate", RunConfig(raw_config(mu=self.MU)).validate)

    def check_setup(self, cfg, chk, layer):
        pass

    def units(self, cfg):
        """The control scan around lambda0, negative_control, the shallow-well scan."""
        th = thresholds(cfg)

        def control_scan(tr, chk):
            out = JobOut()
            with chk.guard("control scan"):
                report = tr.call("certificate.control_scan", sp.control_scan, self.MU,
                                 self.DEPTH, self.around, thresholds=th)
                publish(tr, out, "control-scan", report)
                for rec in report.records:
                    chk.expect(rec.error is None, f"control lambda={rec.lam!r}: {rec.error}")
                out.certificates += len(report.records)
            return out

        def negative_control(tr, chk):
            out = JobOut()
            with chk.guard("negative control"):
                rec = tr.call("certificate.negative_control", sp.negative_control, self.MU,
                              self.DEPTH, thresholds=th)
                out.reports["negative-control"] = json.dumps(rec.to_dict(), sort_keys=True)
                out.certificates += 1
                out.control_lam_err = abs(rec.lam - self.lam0)
                chk.expect(out.control_lam_err <= CONTROL_TOL and rec.verdict == CANDIDATE,
                           f"negative control at {rec.lam!r} ({rec.verdict}), expected "
                           f"{CANDIDATE} within {CONTROL_TOL} of {self.lam0}")
            return out

        def shallow_scan(tr, chk):
            out = JobOut()
            with chk.guard("shallow control scan"):
                report = tr.call("certificate.control_scan", sp.control_scan, self.MU,
                                 self.SHALLOW, self.shallow, thresholds=th)
                publish(tr, out, "control-shallow", report)
                for rec in report.records:
                    chk.expect(rec.error is None and rec.verdict != CANDIDATE,
                               f"shallow well lambda={rec.lam!r}: {rec.verdict} {rec.error}")
                out.certificates += len(report.records)
                # the deep-well scan holds the genuine candidate; only the clean scan has a margin
                out.margins.append(margin(report))
            return out

        return {"control-scan": control_scan, "negative-control": negative_control,
                "shallow-scan": shallow_scan}

    def probe(self, tr, cfg, layer, chk, last):
        for depth, energies in ((self.DEPTH, self.around), (self.SHALLOW, self.shallow)):
            pm = build_potential(tr, sp.decoupled_well_potential, self.MU, depth)
            probe_sweeps(tr, pm, energies, layer)


class Profiles:
    workers = 1
    setup_reps = 2                 # 14 ground states per set-up
    name = "profiles"
    TABLE = [float(v) for v in np.linspace(0.0, 12.0, 400)]   # linear F: criterion 2's table
    CASES = (("power1-mu0.5", {"family": "power", "params": [1.0]}, 0.5),
             ("power1-mu1", {"family": "power", "params": [1.0]}, 1.0),
             ("tabulated", {"family": "tabulated", "table": {"s": TABLE, "F": TABLE}}, 1.0),
             ("power1-mu2", {"family": "power", "params": [1.0]}, 2.0),
             ("power2", {"family": "power", "params": [2.0]}, 1.0),
             ("saturable", {"family": "saturable", "params": [0.5]}, 1.0),
             ("cubic_quintic", {"family": "cubic_quintic", "params": [0.1]}, 1.0))
    # Certificates on both branches run on this case only: the eigensolve and the
    # inversion check, not the sweep, are what this workload is for, and the
    # families are certified on scan-families and scan-parallel.
    CERTIFIED = "power1-mu1"

    def __init__(self, size: dict, rng, workers: int):
        self.eigen_n = size["eigen_n"]
        self.cases = self.CASES[:size["profile_cases"]]
        self.energies = {}
        for label, _, mu in self.cases:
            # fixed-point checks at two energies; on the certified case also a
            # negative-branch energy (reflected and direct) and the threshold
            self.energies[label] = {"fixed_point": [probe_energy(rng, 1.5, mu),
                                                    probe_energy(rng, 5.0, mu)]}
            if label == self.CERTIFIED:
                self.energies[label]["scan"] = [probe_energy(rng, -3.0, mu), mu]
        self.inputs = {"eigen_n": self.eigen_n, "cases": [
            {"label": label, "mu": mu, "nonlinearity": block["family"], **self.energies[label]}
            for label, block, mu in self.cases]}

    def setup(self, tr):
        return [build_case(tr, label, raw_config(
                    nonlinearity=block, mu=mu, eigen={"n": self.eigen_n},
                    scan={"lmin": mu, "lmax": 10.0 * mu, "n": 2}), eigen=True)
                for label, block, mu in self.cases]

    def check_setup(self, cases, chk, layer):
        check_ground_states(cases, chk, layer)
        layer["linearized_operator.eig_n"] = max(len(c.gs_eig.x) for c in cases)

    def units(self, cases):
        """One unit per case: gap eigensolve, fixed-point checks, and certificates on one case."""
        def profile(case):
            def unit(tr, chk):
                out = JobOut()
                mu, en = case.cfg.mu, self.energies[case.label]
                with chk.guard(f"eigensolve {case.label}"):
                    pairs = tr.call("linearized_operator.discrete_eigenvalues",
                                    sp.discrete_eigenvalues, case.gs_eig, case.nl,
                                    k=int(case.cfg.raw["eigen"]["k"]))
                    out.eig_pairs += len(pairs)
                    chk.expect(any(abs(p.lam) <= KERNEL_TOL * mu for p in pairs),
                               f"{case.label}: no gap eigenvalue at the kernel")
                for lam in en["fixed_point"]:
                    with chk.guard(f"fixed point {case.label} lambda={lam!r}"):
                        sol = tr.call("jost.decaying_solution", sp.decaying_solution, lam,
                                      potential=case.pm)
                        r_u, r_v = tr.call("inversion.fixed_point_residual",
                                           sp.fixed_point_residual, case.gs,
                                           sol.f + sol.g, sol.f - sol.g, lam)
                        out.fixed_point_residuals.append(max(r_u, r_v))
                        chk.expect(max(r_u, r_v) <= FIXED_POINT_TOL,
                                   f"{case.label} lambda={lam!r}: fixed-point residuals "
                                   f"{r_u:.2e}, {r_v:.2e} > {FIXED_POINT_TOL}")
                if "scan" in en:
                    self._certify(tr, chk, out, case, en["scan"])
                return out
            return unit
        return {case.label: profile(case) for case in cases}

    def _certify(self, tr, chk, out, case, energies):
        th = thresholds(case.cfg)
        with chk.guard(f"certificates {case.label}"):
            report = tr.call("certificate.scan_embedded", sp.scan_embedded, case.gs,
                             case.nl, energies, thresholds=th, workers=1)
            publish(tr, out, f"scan-{case.label}", report)
            for rec in report.records:
                check_certified(chk, case.label, rec)
            out.margins.append(margin(report))
            direct = tr.call("certificate.certify_lambda", sp.certify_lambda, case.gs,
                             case.nl, energies[0], thresholds=th, method="direct")
            refl = report.records[0]
            check_certified(chk, f"{case.label} direct", direct)
            chk.expect(direct.verdict == refl.verdict
                       and abs(direct.v0 - refl.v0) <= REFLECT_TOL
                       and abs(direct.v0p - refl.v0p) <= REFLECT_TOL,
                       f"{case.label}: direct record at {direct.lam!r} disagrees with the "
                       f"reflected one (v0 {direct.v0!r} vs {refl.v0!r})")
            out.certificates += len(report.records) + 1

    def probe(self, tr, cases, layer, chk, last):
        probe_nonlinearity(tr, cases)
        for case in cases:
            energies = self.energies[case.label].get("scan", [])
            probe_sweeps(tr, case.pm, [abs(v) for v in energies], layer)


class ScanParallel:
    workers = None                 # one per available core
    setup_reps = 3
    name = "scan-parallel"
    MU = 1.0

    def __init__(self, size: dict, rng, workers: int):
        self.workers = workers
        self.grid = jittered_grid(rng, -10.0 * self.MU, -self.MU, size["parallel_n"])
        self.inputs = {"mu": self.MU, "family": "power(1)", "workers": workers,
                       "energies": self.grid}

    def setup(self, tr):
        return build_case(tr, "power1", raw_config(
            nonlinearity={"family": "power", "params": [1.0]}, mu=self.MU,
            parallelism=self.workers,
            scan={"lmin": self.grid[0], "lmax": self.grid[-1], "n": len(self.grid)}))

    def check_setup(self, case, chk, layer):
        check_ground_states([case], chk, layer)

    def _scan(self, tr, case, workers):
        return tr.call("certificate.scan_embedded", sp.scan_embedded, case.gs, case.nl,
                       self.grid, thresholds=thresholds(case.cfg), workers=workers)

    def units(self, case):
        """One unit: the whole grid, since the pool and its dispatch are what is measured."""
        def parallel_scan(tr, chk):
            out = JobOut()
            with chk.guard("parallel scan"):
                report = self._scan(tr, case, case.cfg.parallelism)
                publish(tr, out, "scan-negative", report)
                for rec in report.records:
                    check_certified(chk, case.label, rec)
                out.certificates += len(report.records)
                out.margins.append(margin(report))
            return out
        return {"parallel-scan": parallel_scan}

    def probe(self, tr, case, layer, chk, last):
        probe_nonlinearity(tr, [case])
        t0 = time.perf_counter()
        serial = self._scan(tr, case, 1)
        layer["certificate.serial_scan_s"] = time.perf_counter() - t0
        chk.expect(serial.to_json() == last.reports.get("scan-negative"),
                   "one worker and several workers give different reports")
        # bytes the pool pickles: one (potential, lambda, thresholds) job per chunk,
        # chunked as scan_embedded chunks them; computed, not measured
        n = len(self.grid)
        chunk = max(1, n // (4 * case.cfg.parallelism))
        job = (sp.potential_V(case.gs, case.nl), self.grid[0], thresholds(case.cfg))
        layer["certificate.shipped_bytes"] = len(pickle.dumps(job)) * -(-n // chunk)
        probe_sweeps(tr, case.pm, [abs(v) for v in self.grid], layer)


WORKLOADS = {w.name: w for w in (ScanFamilies, ControlWell, Profiles, ScanParallel)}
