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

A closed-form family is one entry of _CLOSED_FORMS, (F, F', G) as functions
of (s, parameter), plus a factory classmethod of the same name that checks
the parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import DomainError, ExtrapolationError

_CLOSED_FORMS = {
    "power": (lambda s, p: np.power(s, p),
              lambda s, p: p * np.power(s, p - 1.0),      # 0**0 == 1 handles the p = 1 endpoint
              lambda s, p: np.power(s, p + 1.0) / (p + 1.0)),
    "cubic_quintic": (lambda s, g: s - g * s * s,
                      lambda s, g: 1.0 - 2.0 * g * s,
                      lambda s, g: s * s / 2.0 - g * s**3 / 3.0),
    "saturable": (lambda s, b: s / (1.0 + b * s),
                  lambda s, b: 1.0 / (1.0 + b * s) ** 2,
                  lambda s, b: s / b - np.log1p(b * s) / (b * b)),
}
FAMILIES = (*_CLOSED_FORMS, "tabulated")
CHECK_S_MAX = 10.0      # validate() probes F on (0, CHECK_S_MAX]
CHECK_FD_H = 1e-5       # centered-difference step for the F' check
CHECK_TOL = 1e-6        # relative tolerance of the F' and G checks


def _finite(family: str, value: float) -> float:
    if not math.isfinite(value):
        raise DomainError(f"{family} family needs a finite parameter, got {value}")
    return float(value)


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
        p = _finite("power", p)
        if p < 1:
            raise DomainError(f"power family needs exponent p >= 1, got {p}")
        return cls("power", (p,))

    @classmethod
    def cubic_quintic(cls, gamma: float) -> "Nonlinearity":
        return cls("cubic_quintic", (_finite("cubic_quintic", gamma),))

    @classmethod
    def saturable(cls, beta: float) -> "Nonlinearity":
        beta = _finite("saturable", beta)
        if beta <= 0:
            raise DomainError(f"saturable family needs beta > 0, got {beta}")
        return cls("saturable", (beta,))

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
        if family == "tabulated":
            tab = block.get("table", {})
            return cls.tabulated(tab.get("s", ()), tab.get("F", ()))
        if family in FAMILIES:
            return getattr(cls, family)(*block.get("params", ()))
        raise DomainError(f"unknown nonlinearity family {family!r}; known: {FAMILIES}")

    def to_config(self) -> dict:
        if self.family == "tabulated":
            return {"family": self.family, "table": {"s": list(self.table[0]), "F": list(self.table[1])}}
        return {"family": self.family, "params": list(self.params)}

    # -- evaluators ----------------------------------------------------------

    @property
    def s_max(self) -> float:
        """End of the range s in [0, s_max] where F is defined: the table end, else inf."""
        return self.table[0][-1] if self.table is not None else math.inf

    @cached_property
    def _interp(self):
        s, F = self.table
        p = PchipInterpolator(np.asarray(s), np.asarray(F), extrapolate=False)
        return p, p.derivative(), p.antiderivative()

    def _evaluate(self, which: int, s):
        """Entry `which` of (F, F', G) at s >= 0: a float for scalar s, an ndarray otherwise."""
        arr = np.asarray(s, dtype=float)
        if np.any(arr < 0):
            raise DomainError(f"s must be nonnegative, got min {arr.min()}")
        if self.table is None:
            out = _CLOSED_FORMS[self.family][which](arr, *self.params)
        elif np.any(arr > self.s_max):
            raise ExtrapolationError(
                f"tabulated nonlinearity sampled beyond its range [0, {self.s_max}]")
        else:
            out = self._interp[which](arr)
        return float(out) if np.ndim(s) == 0 else out

    def F(self, s):
        return self._evaluate(0, s)

    def dF(self, s):
        return self._evaluate(1, s)

    def G(self, s):
        return self._evaluate(2, s)

    def eval(self, s):
        """Return the triple (F(s), F'(s), G(s))."""
        return self.F(s), self.dF(s), self.G(s)

    # -- validation gate -----------------------------------------------------

    def validate(self) -> dict:
        """Check F(0) = 0, F' against centered differences and G against quadrature.

        Raises DomainError on failure; returns the measured residuals so
        callers can log them.
        """
        fd_h = CHECK_FD_H
        s_max = min(CHECK_S_MAX, self.s_max - 2 * fd_h)
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
