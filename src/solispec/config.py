"""Run configuration: JSON file schema, defaults, validation, hashing."""

from __future__ import annotations

import copy
import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field

from .errors import ConfigurationError, SolispecError
from .ground_state import eigen_grid, profile_grid
from .nonlinearity import Nonlinearity

DEFAULTS: dict = {
    "schema_version": 1,
    "nonlinearity": {"family": "power", "params": [1.0]},
    "mu": 1.0,
    "grid": {"R": None, "h": None},          # None: 30/sqrt(mu) and 1e-3/sqrt(mu)
    "tolerances": {"tol_ode": 1e-10, "theta_cert": 1e-3, "theta_mismatch": 1e-3},
    "scan": {"lmin": 1.0, "lmax": 10.0, "n": 200},
    "eigen": {"R": None, "n": 1201, "window": None, "k": 16},
    "parallelism": 1,
}


def _require_count(val, name: str, least: int = 1):
    if isinstance(val, bool) or not isinstance(val, int) or val < least:
        raise ConfigurationError(f"{name} must be an integer >= {least}, got {val!r}")


def _is_number(val) -> bool:
    """A finite JSON number, not a boolean."""
    return isinstance(val, (int, float)) and not isinstance(val, bool) and math.isfinite(val)


def _require_number(val, name: str, positive: bool = False):
    if not _is_number(val) or (positive and val <= 0):
        kind = "a positive number" if positive else "a finite number"
        raise ConfigurationError(f"{name} must be {kind}, got {val!r}")


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


@dataclass
class RunConfig:
    """Resolved configuration for one pipeline run."""

    raw: dict = field(default_factory=lambda: copy.deepcopy(DEFAULTS))

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"malformed config file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError("config file must hold a JSON object")
        return cls(_merge(copy.deepcopy(DEFAULTS), data))

    def validate(self) -> "RunConfig":
        c = self.raw
        for key, val in DEFAULTS.items():
            if isinstance(val, dict) and not isinstance(c.get(key), dict):
                raise ConfigurationError(f"{key} must be a JSON object, got {c.get(key)!r}")
        mu = c.get("mu")
        _require_number(mu, "mu", positive=True)
        for key in ("R", "h"):
            if c["grid"].get(key) is not None:
                _require_number(c["grid"][key], f"grid.{key}", positive=True)
        R = c["grid"].get("R")
        try:
            profile_grid(mu, R, c["grid"].get("h"))
        except SolispecError as exc:
            raise ConfigurationError(f"grid: {exc}") from exc
        if R is not None and R * math.sqrt(mu) < 20.0:
            warnings.warn(f"R*sqrt(mu) = {R * math.sqrt(mu):.1f} < 20; "
                          "far-field fits may be unreliable", stacklevel=2)
        for key in DEFAULTS["tolerances"]:
            _require_number(c["tolerances"].get(key), f"tolerances.{key}", positive=True)
        scan = c["scan"]
        _require_count(scan.get("n"), "scan.n")
        lmin, lmax = scan.get("lmin"), scan.get("lmax")
        _require_number(lmin, "scan.lmin")
        _require_number(lmax, "scan.lmax")
        if lmin > lmax:
            raise ConfigurationError(f"scan needs lmin <= lmax, got [{lmin}, {lmax}]")
        eigen = c["eigen"]
        # five points put two cells on each side of the origin, so h < R on the eigen grid
        _require_count(eigen.get("n"), "eigen.n", least=5)
        _require_count(eigen.get("k"), "eigen.k")
        if eigen.get("R") is not None:
            _require_number(eigen["R"], "eigen.R", positive=True)
        try:
            eigen_grid(mu, c["grid"].get("R"), eigen.get("R"), eigen["n"])
        except SolispecError as exc:
            raise ConfigurationError(f"eigen grid: {exc}") from exc
        window = eigen.get("window")
        if window is not None and not (isinstance(window, list) and len(window) == 2
                                       and all(map(_is_number, window))
                                       and -mu < window[0] < window[1] < mu):
            raise ConfigurationError(
                f"eigen.window must be null or [lo, hi] with -mu < lo < hi < mu, got {window!r}")
        _require_count(c.get("parallelism", 1), "parallelism")
        try:
            self.nonlinearity()
        except Exception as exc:
            raise ConfigurationError(f"bad nonlinearity block: {exc}") from exc
        return self

    # -- accessors -----------------------------------------------------------

    def nonlinearity(self) -> Nonlinearity:
        return Nonlinearity.from_config(self.raw["nonlinearity"])

    @property
    def mu(self) -> float:
        return float(self.raw["mu"])

    @property
    def R(self):
        return self.raw["grid"]["R"]

    @property
    def h(self):
        return self.raw["grid"]["h"]

    @property
    def tol_ode(self) -> float:
        return float(self.raw["tolerances"]["tol_ode"])

    @property
    def theta_cert(self) -> float:
        return float(self.raw["tolerances"]["theta_cert"])

    @property
    def theta_mismatch(self) -> float:
        return float(self.raw["tolerances"]["theta_mismatch"])

    @property
    def parallelism(self) -> int:
        return int(self.raw.get("parallelism", 1))

    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def print_defaults() -> str:
    return json.dumps(DEFAULTS, indent=2, sort_keys=True)
