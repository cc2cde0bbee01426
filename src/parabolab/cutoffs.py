"""Truncation-and-shift cutoff family making power-law coefficients bounded and smooth.

``phi_R`` is the identity below R, the constant R + 1 above 2R, and a C^1
monotone blend in between: the cubic Hermite interpolant with endpoint data
(values R, R+1; slopes 1, 0) for R <= 3 -- the normalized-slope criterion
alpha = R <= 3 is exactly its monotonicity range -- and the power-law blend
with derivative ((2R - r)/R)^(R-1) beyond, which stays monotone and C^1 for
every R.  Only C^1 matters at Euler-Maruyama order.

``f_R^(alpha)(r) = phi_R(r)^alpha`` and the shifted family
``f_(R,n)^(alpha)(r) = phi_R(r + 1/n)^alpha`` (n = inf means no shift) bound
singular powers: for alpha < 0, ``f_(R,n)^(alpha) <= n^(-alpha)`` wherever
``r + 1/n <= R``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = ["CutoffFamilyError", "CutoffFamily", "phi_R", "phi_R_prime"]

INF = math.inf


class CutoffFamilyError(InputError):
    pass


def phi_R(r, R: float):
    """Monotone C^1 truncation: r below R, R + 1 above 2R, smooth blend between."""
    if not R >= 1:
        raise CutoffFamilyError(f"need R >= 1, got {R}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise CutoffFamilyError("phi_R is defined on r >= 0")
    out = np.where(r >= 2 * R, R + 1.0, r)
    blend = (r > R) & (r < 2 * R)
    if np.any(blend):
        s = (r[blend] - R) / R
        if R <= 3:
            val = (R - 2) * s**3 + (3 - 2 * R) * s**2 + R * s + R
        else:
            val = R + 1.0 - (1.0 - s) ** R
        out[blend] = val
    return out if out.ndim else float(out)


def phi_R_prime(r, R: float):
    """Closed-form derivative of ``phi_R`` (1 below R, 0 above 2R)."""
    r = np.asarray(r, dtype=float)
    out = np.where(r >= 2 * R, 0.0, 1.0)
    blend = (r > R) & (r < 2 * R)
    if np.any(blend):
        s = (r[blend] - R) / R
        if R <= 3:
            val = (3 * (R - 2) * s**2 + (6 - 4 * R) * s + R) / R
        else:
            val = (1.0 - s) ** (R - 1)
        out[blend] = val
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class CutoffFamily:
    """Parameter bundle (R, alpha, n) with the derived evaluators as methods."""

    R: float
    alpha: float
    n: float = INF

    def __post_init__(self):
        if not self.R >= 1:
            raise CutoffFamilyError(f"need R >= 1, got {self.R}")
        if not (self.n >= 1 or math.isinf(self.n)):
            raise CutoffFamilyError(f"mollification index must be >= 1 or inf, got {self.n}")

    def phi(self, r):
        return phi_R(r, self.R)

    def f_n(self, r):
        """Shifted power ``phi_R(r + 1/n)^alpha``; n = inf gives the raw family."""
        if math.isinf(self.n):
            return phi_R(r, self.R) ** self.alpha
        return phi_R(np.asarray(r, dtype=float) + 1.0 / self.n, self.R) ** self.alpha

    def f_n_prime(self, r):
        """d/dr of the shifted power, by the chain rule."""
        r = np.asarray(r, dtype=float)
        shift = 0.0 if math.isinf(self.n) else 1.0 / self.n
        base = phi_R(r + shift, self.R)
        return self.alpha * base ** (self.alpha - 1.0) * phi_R_prime(r + shift, self.R)
