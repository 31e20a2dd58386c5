"""Run configuration: JSON file schema, defaults, validation, hashing."""

from __future__ import annotations

import copy
import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field

from .errors import ConfigurationError
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


def _require_count(val, name: str):
    if not isinstance(val, int) or val < 1:
        raise ConfigurationError(f"{name} must be an integer >= 1, got {val!r}")


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
        if not isinstance(mu, (int, float)) or mu <= 0:
            raise ConfigurationError(f"mu must be a positive number, got {mu!r}")
        grid = c.get("grid", {})
        R = grid.get("R")
        if R is not None:
            if R <= 0:
                raise ConfigurationError(f"grid.R must be positive, got {R}")
            if R * math.sqrt(mu) < 20.0:
                warnings.warn(f"R*sqrt(mu) = {R * math.sqrt(mu):.1f} < 20; "
                              "far-field fits may be unreliable", stacklevel=2)
        h = grid.get("h")
        if h is not None and h <= 0:
            raise ConfigurationError(f"grid.h must be positive, got {h}")
        scan = c.get("scan", {})
        _require_count(scan.get("n"), "scan.n")
        lmin, lmax = scan.get("lmin"), scan.get("lmax")
        if lmin is None or lmax is None or lmin > lmax:
            raise ConfigurationError(f"scan needs lmin <= lmax, got [{lmin}, {lmax}]")
        eigen = c.get("eigen", {})
        for key in ("n", "k"):
            _require_count(eigen.get(key), f"eigen.{key}")
        R_eig = eigen.get("R")
        if R_eig is not None and not (isinstance(R_eig, (int, float)) and R_eig > 0):
            raise ConfigurationError(f"eigen.R must be null or positive, got {R_eig!r}")
        _require_count(c.get("parallelism", 1), "parallelism")
        try:
            self.nonlinearity().validate()     # F' and G checked against F numerically
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

    def scan_grid(self):
        """(lmin, lmax, n) of the scan block, which must lie outside the gap (-mu, mu)."""
        scan, mu = self.raw["scan"], self.mu
        lmin, lmax = float(scan["lmin"]), float(scan["lmax"])
        if not (lmin >= mu or lmax <= -mu):
            raise ConfigurationError(
                f"scan block [{lmin}, {lmax}] must satisfy lmin >= mu or lmax <= -mu")
        return lmin, lmax, int(scan["n"])

    @property
    def parallelism(self) -> int:
        return int(self.raw.get("parallelism", 1))

    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def print_defaults() -> str:
    return json.dumps(DEFAULTS, indent=2, sort_keys=True)
