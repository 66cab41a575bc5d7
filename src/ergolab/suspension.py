"""Closed-form suspension functionals over the base overlap measure.

The observables are cylinder functions of one set ``A``, the unit base, so
``mu(A) = 1`` and every overlap mass ``lam`` lies in ``[0, 1]``.

For the Poisson suspension the observable is the indicator of "exactly m
points in A".  Splitting the two image sets into the common part (mass
``lam``) and two equal-mass differences (``1 - lam`` each, both lifts
preserve measure) gives the pair integral

    sum_{k=0}^{m}  P(k; lam) * P(m-k; 1-lam)^2,

with P the Poisson pmf.  For the Gaussian suspension the observable is the
indicator of the half-space {<., chi_A> > 0}; the pair integral is the
orthant probability of two standard normals with correlation ``lam``,
``1/4 + arcsin(lam) / (2 pi)``.

Both formulas hit ``c**2`` at overlap 0 (independence) and ``c`` at overlap
1 (coincidence), where ``c`` is the plain integral of the observable:
``P(m; 1)`` for Poisson, ``1/2`` for Gaussian.  This module is the only
floating-point layer; exact rationals are converted at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "SuspensionModel",
    "poisson_pmf",
    "gaussian_orthant",
    "cylinder_constant",
    "pair_integrand",
]


@dataclass(frozen=True)
class SuspensionModel:
    """Suspension kind and Poisson cylinder count m over the unit base."""

    kind: str = "poisson"  # "poisson" | "gaussian"
    m: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("poisson", "gaussian"):
            raise ValueError(f"unknown suspension kind {self.kind!r}")
        if type(self.m) is not int:  # bool is an int subclass
            raise ValueError(f"cylinder count m must be an int, got {self.m!r}")
        if self.m < 0:
            raise ValueError(f"cylinder count m must be >= 0, got {self.m}")


def poisson_pmf(k: int, lam: float) -> float:
    """P(k; lam) = lam^k e^{-lam} / k!, evaluated in log space."""
    if k < 0:
        raise ValueError(f"count must be >= 0, got {k}")
    if lam < 0:
        raise ValueError(f"rate must be >= 0, got {lam}")
    if lam == 0.0:
        return 1.0 if k == 0 else 0.0
    if k == 0:
        return math.exp(-lam)
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def gaussian_orthant(rho: float) -> float:
    """P(X > 0, Z > 0) for standard normals with correlation rho (Sheppard)."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation {rho} outside [-1, 1]")
    return 0.25 + math.asin(rho) / (2.0 * math.pi)


def cylinder_constant(model: SuspensionModel) -> float:
    """The plain integral c of the model's observable."""
    if model.kind == "poisson":
        return poisson_pmf(model.m, 1.0)
    return 0.5  # centered Gaussian half-space


def pair_integrand(model: SuspensionModel, lam_overlap: Fraction | float) -> float:
    """Pair integral of the observable against its lifted copy, given the overlap mass."""
    lam = float(lam_overlap)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"overlap {lam} outside [0, 1]")
    if model.kind == "poisson":
        rest = 1.0 - lam
        return math.fsum(
            poisson_pmf(k, lam) * poisson_pmf(model.m - k, rest) ** 2
            for k in range(model.m + 1)
        )
    return gaussian_orthant(lam)
