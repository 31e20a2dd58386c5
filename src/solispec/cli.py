"""Command-line front end: ground | spectrum | jost | invert-check | scan | control.

Every command reads a JSON config (see `solispec --print-defaults`), writes
CSV plot data and/or JSON reports stamped with the tool version and a hash
of the resolved config, and exits 0 on success, 1 when a structural
hypothesis fails (e.g. no decaying even profile), 2 on configuration
errors. Reports are byte-identical across reruns of the same config;
wall-clock timestamps are only embedded with --stamp.
"""

from __future__ import annotations

import argparse
import csv
import datetime as _dt
import itertools
import json
import sys

import numpy as np

from . import __version__
from .certificate import (Thresholds, _ground_meta, control_scan, negative_control,
                          report_header, scan_embedded, sech_well_levels)
from .config import RunConfig, print_defaults
from .errors import ConfigurationError, HypothesisError, SolispecError
from .ground_state import eigen_grid, profile_grid, solve_ground_state
from .inversion import WALL_MARGIN, fixed_point_residual
from .jost import THRESHOLD_REL, decaying_solution
from .linearized_operator import discrete_eigenvalues
from .nonlinearity import Nonlinearity


def _json_dump(path: str, obj: dict):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc


def _csv_dump(path: str, rows):
    """CSV file from an iterable of rows, header row first."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc


def _sidecar_path(out: str) -> str:
    return (out[:-4] if out.endswith(".csv") else out) + ".json"


def _write_samples(out: str, cfg: RunConfig, columns: dict, meta: dict):
    """CSV of sampled columns plus a JSON sidecar with the report header and meta."""
    rows = zip(*((repr(float(v)) for v in arr) for arr in columns.values()))
    _csv_dump(out, itertools.chain([tuple(columns)], rows))
    _json_dump(_sidecar_path(out), {**report_header(cfg.config_hash()), **meta})


def _load(args) -> tuple[RunConfig, Nonlinearity]:
    cfg = RunConfig.from_file(args.config).validate()
    return cfg, cfg.nonlinearity()


def _solve_ground(cfg: RunConfig, nl: Nonlinearity):
    return solve_ground_state(nl, cfg.mu, R=cfg.R, h=cfg.h, tol=cfg.tol_ode)


def _check_lambda(cfg: RunConfig, lam: float):
    """The decaying solution is built for finite lambda >= mu; refuse others before any solve."""
    if not (np.isfinite(lam) and lam >= cfg.mu * (1.0 - THRESHOLD_REL)):
        raise ConfigurationError(f"--lambda must be finite and >= mu = {cfg.mu}, got {lam}")


def _thresholds(cfg: RunConfig) -> Thresholds:
    return Thresholds(theta_cert=cfg.theta_cert, theta_mismatch=cfg.theta_mismatch)


def cmd_ground(args) -> int:
    cfg, nl = _load(args)
    gs = _solve_ground(cfg, nl)
    _write_samples(args.out, cfg, {"x": gs.x, "Q": gs.Q, "Qp": gs.Qp},
                   {**_ground_meta(gs), "far_field_fit_residual": gs.fit_residual,
                    "ode_residual_fd2": gs.ode_residual})
    print(f"ground state written: {args.out} (Q(0) = {gs.shoot_value:.12g}, "
          f"rate = {gs.rate:.9g}, c0 = {gs.c0:.9g})")
    return 0


def cmd_spectrum(args) -> int:
    cfg, nl = _load(args)
    eig_cfg = cfg.raw["eigen"]
    mu = cfg.mu
    R_eig, h_eig = eigen_grid(mu, cfg.R, eig_cfg["R"], eig_cfg["n"])
    gs = solve_ground_state(nl, mu, R=R_eig, h=h_eig, tol=max(cfg.tol_ode, 1e-9))
    window = eig_cfg["window"]
    pairs = discrete_eigenvalues(gs, nl, window=tuple(window) if window else None,
                                 k=eig_cfg["k"])
    _json_dump(args.out, {
        **report_header(cfg.config_hash()),
        "mu": mu, "grid": {"R": gs.R, "h": gs.h},
        "eigenvalues": [{"lambda": p.lam, "imag": p.imag, "residual": p.residual,
                         "parity": p.parity} for p in pairs],
    })
    print(f"{len(pairs)} gap eigenvalue(s) written to {args.out}")
    for p in pairs:
        print(f"  lambda = {p.lam: .6e}  imag = {p.imag:.6e}  residual = {p.residual:.2e}  "
              f"parity = {p.parity}")
    return 0


def cmd_jost(args) -> int:
    cfg, nl = _load(args)
    _check_lambda(cfg, args.lam)
    gs = _solve_ground(cfg, nl)
    sol = decaying_solution(args.lam, gs, nl)
    _write_samples(args.out, cfg,
                   {"x": sol.x, "f": sol.f, "g": sol.g, "fp": sol.fp, "gp": sol.gp},
                   {"lambda": sol.lam, "mu": sol.mu, "x_asym": sol.x_asym,
                    "residual": sol.residual, "asym_deviation": sol.asym_deviation,
                    "normalization": sol.normalization})
    print(f"decaying solution at lambda = {args.lam} written: {args.out} "
          f"(residual = {sol.residual:.2e})")
    return 0


def cmd_invert_check(args) -> int:
    cfg, nl = _load(args)
    _check_lambda(cfg, args.lam)
    R = profile_grid(cfg.mu, cfg.R, cfg.h)[0]
    if not 0.0 < args.x0 < R - WALL_MARGIN:
        raise ConfigurationError(
            f"--x0 must lie in (0, R - {WALL_MARGIN}) = (0, {R - WALL_MARGIN:g}), got {args.x0}")
    gs = _solve_ground(cfg, nl)
    sol = decaying_solution(args.lam, gs, nl)
    u = sol.f + sol.g
    v = sol.f - sol.g
    r_u, r_v = fixed_point_residual(gs, u, v, args.lam, x0=args.x0)
    print(f"lambda = {args.lam}  r_u = {r_u:.6e}  r_v = {r_v:.6e}")
    return 0


def _report_payload(report, cfg: RunConfig, stamp: bool) -> dict:
    """JSON payload of a scan report; the wall clock goes in only with --stamp."""
    report.config_hash = cfg.config_hash()
    if stamp:
        report.timestamp = _dt.datetime.now(_dt.timezone.utc).isoformat()
    return report.to_json_dict()


def cmd_scan(args) -> int:
    grid = {key: getattr(args, key) for key in ("lmin", "lmax", "n")
            if getattr(args, key) is not None}
    cfg = RunConfig.from_file(args.config)
    if isinstance(cfg.raw["scan"], dict):   # a non-object block is left for validate
        cfg.raw["scan"].update(grid)
    cfg.validate()
    nl = cfg.nonlinearity()
    lmin, lmax, n = cfg.scan_grid()
    gs = _solve_ground(cfg, nl)
    report = scan_embedded(gs, nl, np.linspace(lmin, lmax, n), thresholds=_thresholds(cfg),
                           workers=cfg.parallelism)
    _json_dump(args.out, _report_payload(report, cfg, args.stamp))
    out_csv = (args.out[:-5] if args.out.endswith(".json") else args.out) + ".csv"
    _csv_dump(out_csv, report.csv_rows())
    summ = report.summary()
    print(f"scan written: {args.out} + {out_csv}")
    print(f"  verdicts: {summ['verdict_counts']}")
    print(f"  min normalized |v0|/|v0'|: {summ['min_v0_norm']:.3e}  "
          f"min mismatch: {summ['min_mismatch']:.3e}")
    return 0


def cmd_control(args) -> int:
    if (args.lmin is None) != (args.lmax is None):
        raise ConfigurationError("control needs --lmin and --lmax together")
    if args.n is not None and args.n < 1:
        raise ConfigurationError(f"control needs --n >= 1, got {args.n}")
    if not np.isfinite(args.depth):
        raise ConfigurationError(f"control needs a finite --depth, got {args.depth}")
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    if args.mu is not None:
        cfg.raw["mu"] = args.mu
    cfg.validate()
    mu, depth = cfg.mu, args.depth
    levels = sech_well_levels(mu, depth)
    if args.lmin is not None:
        lambdas = np.linspace(args.lmin, args.lmax, args.n or 41)
    elif levels:
        lambdas = np.linspace(max(mu * (1 + 1e-9), levels[0] - 0.5),
                              levels[0] + 0.5, args.n or 41)
    else:
        lambdas = np.linspace(mu, mu + 9.0, args.n or 46)
    th = _thresholds(cfg)
    report = control_scan(mu, depth, lambdas, thresholds=th)
    # a predicted level that is not located is a failed detection (exit 1)
    candidate = negative_control(mu, depth, thresholds=th) if levels else None
    _json_dump(args.out, {**_report_payload(report, cfg, args.stamp), "well_depth": depth,
                          "predicted_embedded_levels": levels,
                          "candidate": candidate.to_dict() if candidate else None})
    if candidate:
        print(f"embedded-candidate located at lambda = {candidate.lam:.6f} "
              f"(mismatch = {candidate.mismatch:.3e}); report: {args.out}")
    else:
        print(f"no embedded candidate for depth = {depth}; report: {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solispec",
        description="Spectral certification for 1D NLS solitary waves")
    parser.add_argument("--version", action="version", version=f"solispec {__version__}")
    parser.add_argument("--print-defaults", action="store_true",
                        help="print the default config JSON and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("ground", help="solve the ground-state profile")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="ground.csv")

    p = sub.add_parser("spectrum", help="gap eigenvalues of the linearized operator")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="spectrum.json")

    p = sub.add_parser("jost", help="decaying solution at one energy")
    p.add_argument("--config", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--out", default="jost.csv")

    p = sub.add_parser("invert-check", help="fixed-point identity residuals")
    p.add_argument("--config", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--x0", type=float, default=1.0)

    p = sub.add_parser("scan", help="certificate scan over an energy grid")
    p.add_argument("--config", required=True)
    p.add_argument("--lmin", type=float)
    p.add_argument("--lmax", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--out", default="report.json")
    p.add_argument("--stamp", action="store_true",
                   help="embed a wall-clock timestamp (breaks byte-reproducibility)")

    p = sub.add_parser("control", help="negative control: decoupled sech^2 well")
    p.add_argument("--config")
    p.add_argument("--mu", type=float)
    p.add_argument("--depth", type=float, required=True)
    p.add_argument("--lmin", type=float)
    p.add_argument("--lmax", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--out", default="control.json")
    p.add_argument("--stamp", action="store_true")

    return parser


_COMMANDS = {
    "ground": cmd_ground,
    "spectrum": cmd_spectrum,
    "jost": cmd_jost,
    "invert-check": cmd_invert_check,
    "scan": cmd_scan,
    "control": cmd_control,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.print_defaults:
        print(print_defaults())
        return 0
    if not args.command:
        parser.print_help()
        return 2
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except HypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 1
    except SolispecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
