"""Nonlinearity families and their first-derivative/antiderivative calculus.

The rest of the toolkit only ever sees the nonlinearity F through three real
functions on s >= 0: the value F(s), the derivative F'(s) and the
antiderivative G(s) = integral of F from 0 to s. Every family enforces
F(0) = 0, which the solver stack relies on (potentials built from the wave
profile vanish where the profile does).

Built-in families:

    power(p)          F(s) = s**p with p >= 1 (p = 1 is the cubic equation)
    cubic_quintic(g)  F(s) = s - g*s**2
    saturable(b)      F(s) = s / (1 + b*s)
    tabulated(s, F)   monotone cubic interpolation through user samples
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import DomainError, ExtrapolationError

FAMILIES = ("power", "cubic_quintic", "saturable", "tabulated")
CHECK_S_MAX = 10.0      # validate() probes F on (0, CHECK_S_MAX]
CHECK_FD_H = 1e-5       # centered-difference step for the F' check
CHECK_TOL = 1e-6        # relative tolerance of the F' and G checks


def _as_nonneg(s):
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0):
        raise DomainError(f"s must be nonnegative, got min {arr.min()}")
    return arr


def _match(value, template):
    """Return a float for scalar input, an ndarray otherwise."""
    if np.ndim(template) == 0:
        return float(value)
    return value


@dataclass(frozen=True)
class Nonlinearity:
    """Immutable evaluator bundle (F, F', G) for one nonlinearity family.

    Instances are stateless after construction and safe to share freely
    across threads or worker processes. Use the factory classmethods;
    the raw constructor performs no parameter validation.
    """

    family: str
    params: tuple[float, ...] = ()
    table: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    # -- factories ---------------------------------------------------------

    @classmethod
    def power(cls, p: float) -> "Nonlinearity":
        if p < 1:
            raise DomainError(f"power family needs exponent p >= 1, got {p}")
        return cls("power", (float(p),))

    @classmethod
    def cubic_quintic(cls, gamma: float) -> "Nonlinearity":
        return cls("cubic_quintic", (float(gamma),))

    @classmethod
    def saturable(cls, beta: float) -> "Nonlinearity":
        if beta <= 0:
            raise DomainError(f"saturable family needs beta > 0, got {beta}")
        return cls("saturable", (float(beta),))

    @classmethod
    def tabulated(cls, s_values, F_values) -> "Nonlinearity":
        s = np.asarray(s_values, dtype=float)
        F = np.asarray(F_values, dtype=float)
        if s.ndim != 1 or s.shape != F.shape or s.size < 4:
            raise DomainError("tabulated family needs matching 1d tables with >= 4 points")
        if s[0] != 0.0:
            raise DomainError("tabulated s-grid must start at 0")
        if F[0] != 0.0:
            raise DomainError("tabulated F must satisfy F(0) = 0")
        if np.any(np.diff(s) <= 0):
            raise DomainError("tabulated s-grid must be strictly increasing")
        return cls("tabulated", (), (tuple(s), tuple(F)))

    @classmethod
    def from_config(cls, block: dict) -> "Nonlinearity":
        family = block.get("family")
        if family == "power":
            return cls.power(*block.get("params", ()))
        if family == "cubic_quintic":
            return cls.cubic_quintic(*block.get("params", ()))
        if family == "saturable":
            return cls.saturable(*block.get("params", ()))
        if family == "tabulated":
            tab = block.get("table", {})
            return cls.tabulated(tab.get("s", ()), tab.get("F", ()))
        raise DomainError(f"unknown nonlinearity family {family!r}; known: {FAMILIES}")

    def to_config(self) -> dict:
        if self.family == "tabulated":
            return {"family": self.family, "table": {"s": list(self.table[0]), "F": list(self.table[1])}}
        return {"family": self.family, "params": list(self.params)}

    # -- tabulated machinery ------------------------------------------------

    @cached_property
    def _interp(self):
        s, F = self.table
        p = PchipInterpolator(np.asarray(s), np.asarray(F), extrapolate=False)
        return p, p.derivative(), p.antiderivative()

    def _table_check(self, s):
        smax = self.table[0][-1]
        if np.any(np.asarray(s) > smax):
            raise ExtrapolationError(f"tabulated nonlinearity sampled beyond its range [0, {smax}]")

    # -- evaluators ----------------------------------------------------------

    def F(self, s):
        arr = _as_nonneg(s)
        if self.family == "power":
            (p,) = self.params
            out = np.power(arr, p)
        elif self.family == "cubic_quintic":
            (g,) = self.params
            out = arr - g * arr * arr
        elif self.family == "saturable":
            (b,) = self.params
            out = arr / (1.0 + b * arr)
        else:
            self._table_check(arr)
            out = self._interp[0](arr)
        return _match(out, s)

    def dF(self, s):
        arr = _as_nonneg(s)
        if self.family == "power":
            (p,) = self.params
            # 0**0 == 1 handles the p = 1 endpoint
            out = p * np.power(arr, p - 1.0)
        elif self.family == "cubic_quintic":
            (g,) = self.params
            out = 1.0 - 2.0 * g * arr
        elif self.family == "saturable":
            (b,) = self.params
            out = 1.0 / (1.0 + b * arr) ** 2
        else:
            self._table_check(arr)
            out = self._interp[1](arr)
        return _match(out, s)

    def G(self, s):
        arr = _as_nonneg(s)
        if self.family == "power":
            (p,) = self.params
            out = np.power(arr, p + 1.0) / (p + 1.0)
        elif self.family == "cubic_quintic":
            (g,) = self.params
            out = arr * arr / 2.0 - g * arr**3 / 3.0
        elif self.family == "saturable":
            (b,) = self.params
            out = arr / b - np.log1p(b * arr) / (b * b)
        else:
            self._table_check(arr)
            out = self._interp[2](arr)
        return _match(out, s)

    def eval(self, s):
        """Return the triple (F(s), F'(s), G(s))."""
        return self.F(s), self.dF(s), self.G(s)

    # -- validation gate -----------------------------------------------------

    def validate(self) -> dict:
        """Check F(0) = 0, F' against centered differences and G against quadrature.

        Raises DomainError on failure; returns the measured residuals so
        callers can log them.
        """
        fd_h, s_max = CHECK_FD_H, CHECK_S_MAX
        if self.family == "tabulated":
            s_max = min(s_max, self.table[0][-1] - 2 * fd_h)
        # stay away from s = 0 where fractional powers have unbounded F'''
        ss = np.linspace(max(10 * fd_h, 5e-3 * s_max), s_max, 101)
        if abs(self.F(0.0)) > 0.0:
            raise DomainError(f"F(0) = {self.F(0.0)} must vanish exactly")
        fd = (self.F(ss + fd_h) - self.F(ss - fd_h)) / (2 * fd_h)
        err_dF = float(np.max(np.abs(fd - self.dF(ss))))
        scale = 1.0 + float(np.max(np.abs(self.dF(ss))))
        if err_dF > CHECK_TOL * scale:
            raise DomainError(f"F' disagrees with centered differences by {err_dF:.3e}")
        # trapezoid refinement check of G on [0, s_max]
        fine = np.linspace(0.0, s_max, 4001)
        g_quad = np.concatenate([[0.0], np.cumsum((self.F(fine[1:]) + self.F(fine[:-1])) / 2 * np.diff(fine))])
        err_G = float(np.max(np.abs(g_quad - self.G(fine))))
        gscale = 1.0 + float(np.max(np.abs(self.G(fine))))
        if err_G > CHECK_TOL * gscale:
            raise DomainError(f"G disagrees with trapezoid quadrature by {err_G:.3e}")
        if abs(self.G(0.0)) > 0.0:
            raise DomainError("G(0) must vanish exactly")
        return {"dF_fd_error": err_dF, "G_quad_error": err_G}
