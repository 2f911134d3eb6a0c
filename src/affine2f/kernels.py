"""Stable evaluation of the exponential integrals behind the drift formulas.

The three kernels all have removable singularities (c=0, b=g, b=0 or g=0)
that the critical-regime code hits exactly, so every branch here is chosen
to stay accurate through those points rather than merely defined at them.
"""

from functools import cache

import numpy as np

# Below this |c*t| the closed forms lose up to half their digits to
# cancellation (relative error ~ eps/|c*t|), so a power series takes over.
_SERIES_RADIUS = 0.5


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """i2's 32 quadrature nodes and weights, built on its first quadrature:
    importing the package loads no numpy.polynomial and runs no eigen-solve."""
    return np.polynomial.legendre.leggauss(32)


def psi(c: float, t: float) -> float:
    """Integral of exp(-c*u) over u in [0, t].

    Equals (1 - exp(-c*t))/c away from c = 0 and exactly t at c = 0. For
    |c*t| below the series radius the power series
    t * sum_j (-c*t)^j / (j+1)!  is summed to machine precision instead.
    """
    x = c * t
    if abs(x) < _SERIES_RADIUS:
        term = 1.0
        acc = 1.0
        for j in range(1, 30):
            term *= -x / (j + 1)
            acc += term
            if abs(term) <= 1e-17 * abs(acc):
                break
        return t * acc
    return -np.expm1(-x) / c


def i1(b: float, g: float, h: float) -> float:
    """exp(-g*h) times the integral of exp((g-b)*w) over w in [0, h].

    Symmetric in (b, g): equals (exp(-b*h) - exp(-g*h)) / (g - b) off the
    diagonal and h*exp(-b*h) on it. Near the diagonal the difference
    quotient cancels, so the psi series is used there.
    """
    if abs((g - b) * h) < _SERIES_RADIUS:
        return float(np.exp(-g * h)) * psi(b - g, h)
    return float(np.exp(-b * h) - np.exp(-g * h)) / (g - b)


def i2(b: float, g: float, h: float) -> float:
    """Integral over w in [0, h] of exp(-g*(h-w)) * psi(b, w).

    The reductions b*i2 = psi(g,h) - i1 and g*i2 = psi(b,h) - i1 are exact.
    Dividing by whichever of b, g has the larger |coef*h| is cancellation
    free once that product exceeds 1; when both are small the integrand is
    tame and analytic, and fixed 32-node Gauss-Legendre quadrature on it is
    accurate to machine epsilon.
    """
    ab, ag = abs(b * h), abs(g * h)
    if max(ab, ag) >= 1.0:
        if ab >= ag:
            return (psi(g, h) - i1(b, g, h)) / b
        return (psi(b, h) - i1(b, g, h)) / g
    nodes, weights = _gauss_legendre()
    w = 0.5 * h * (nodes + 1.0)
    vals = np.exp(-g * (h - w)) * w * _phi(-b * w)
    return 0.5 * h * float(weights @ vals)


def _phi(z: np.ndarray) -> np.ndarray:
    # expm1(z)/z with the z=0 limit filled in
    out = np.ones_like(z)
    nz = z != 0.0
    out[nz] = np.expm1(z[nz]) / z[nz]
    return out
