"""Command-line front end: ground | spectrum | jost | invert-check | scan | control.

Every command reads a JSON config (see `solispec --print-defaults`), writes
CSV plot data and/or JSON reports stamped with the tool version and a hash
of the resolved config, and exits 0 on success, 1 when a structural
hypothesis fails (e.g. no decaying even profile), 2 on configuration
errors. Reports are byte-identical across reruns of the same config;
wall-clock timestamps are only embedded with --stamp.

One loader (_load) serves every command, with scan's --lmin/--lmax/--n and
control's --mu as overrides; one writer (_write) writes every file and alone
adds the report header and the --stamp timestamp.
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
from .certificate import (Thresholds, _ground_meta, control_scan, energy_grid,
                          negative_control, report_header, scan_embedded, sech_well_levels)
from .config import RunConfig, print_defaults
from .errors import ConfigurationError, HypothesisError, SolispecError
from .ground_state import eigen_grid, profile_grid, solve_ground_state
from .inversion import WALL_MARGIN, fixed_point_residual
from .jost import THRESHOLD_REL, decaying_solution
from .linearized_operator import discrete_eigenvalues
from .nonlinearity import Nonlinearity


def _write(path: str, data, cfg: RunConfig, stamp: bool = False):
    """Write a JSON report (a dict) under the report header, with the wall clock only
    with --stamp, or CSV rows (any other iterable, header row first)."""
    if isinstance(data, dict):
        data = {**data, **report_header(cfg.config_hash())}
        if stamp:
            data["timestamp"] = _dt.datetime.now(_dt.timezone.utc).isoformat()
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            if isinstance(data, dict):
                json.dump(data, fh, indent=2, sort_keys=True)
                fh.write("\n")
            else:
                csv.writer(fh).writerows(data)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc


def _write_samples(out: str, cfg: RunConfig, columns: dict, meta: dict):
    """CSV of sampled columns plus a JSON sidecar with the report header and meta."""
    rows = zip(*((repr(float(v)) for v in arr) for arr in columns.values()))
    _write(out, itertools.chain([tuple(columns)], rows), cfg)
    _write((out[:-4] if out.endswith(".csv") else out) + ".json", meta, cfg)


def _load(args, **overrides) -> tuple[RunConfig, Nonlinearity]:
    """The validated config of --config, the defaults without one, and its nonlinearity.
    An override sets a top-level key, or with a dict the keys of that block, where its
    value is not None; a non-object block is left for validate to reject."""
    cfg = RunConfig.from_file(args.config) if args.config is not None else RunConfig()
    for key, val in overrides.items():
        if isinstance(val, dict):
            if isinstance(cfg.raw[key], dict):
                cfg.raw[key].update((k, v) for k, v in val.items() if v is not None)
        elif val is not None:
            cfg.raw[key] = val
    cfg.validate()
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
    _write(args.out, {
        "mu": mu, "grid": {"R": gs.R, "h": gs.h},
        "eigenvalues": [{"lambda": p.lam, "imag": p.imag, "residual": p.residual,
                         "parity": p.parity} for p in pairs],
    }, cfg)
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
                    "normalization": "leading decaying coefficient 1 at x_asym"})
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


def cmd_scan(args) -> int:
    cfg, nl = _load(args, scan={key: getattr(args, key) for key in ("lmin", "lmax", "n")})
    scan = cfg.raw["scan"]
    lams = energy_grid(np.linspace(scan["lmin"], scan["lmax"], scan["n"]), cfg.mu)
    gs = _solve_ground(cfg, nl)
    report = scan_embedded(gs, nl, lams, thresholds=_thresholds(cfg), workers=cfg.parallelism)
    _write(args.out, report.to_json_dict(), cfg, args.stamp)
    out_csv = (args.out[:-5] if args.out.endswith(".json") else args.out) + ".csv"
    _write(out_csv, report.csv_rows(), cfg)
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
    cfg, _ = _load(args, mu=args.mu)
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
    # a predicted level not located as an embedded candidate is a failed detection (exit 1)
    candidate = negative_control(mu, depth, thresholds=th) if levels else None
    _write(args.out, {**report.to_json_dict(), "well_depth": depth,
                      "predicted_embedded_levels": levels,
                      "candidate": candidate.to_dict() if candidate else None}, cfg, args.stamp)
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

    def command(name, run, text, config_required=True):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=config_required)
        p.set_defaults(run=run)
        return p

    p = command("ground", cmd_ground, "solve the ground-state profile")
    p.add_argument("--out", default="ground.csv")

    p = command("spectrum", cmd_spectrum, "gap eigenvalues of the linearized operator")
    p.add_argument("--out", default="spectrum.json")

    p = command("jost", cmd_jost, "decaying solution at one energy")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--out", default="jost.csv")

    p = command("invert-check", cmd_invert_check, "fixed-point identity residuals")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--x0", type=float, default=1.0)

    p = command("scan", cmd_scan, "certificate scan over an energy grid")
    p.add_argument("--lmin", type=float)
    p.add_argument("--lmax", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--out", default="report.json")
    p.add_argument("--stamp", action="store_true",
                   help="embed a wall-clock timestamp (breaks byte-reproducibility)")

    p = command("control", cmd_control, "negative control: decoupled sech^2 well",
                config_required=False)
    p.add_argument("--mu", type=float)
    p.add_argument("--depth", type=float, required=True)
    p.add_argument("--lmin", type=float)
    p.add_argument("--lmax", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--out", default="control.json")
    p.add_argument("--stamp", action="store_true")

    return parser


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
        return args.run(args)
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
