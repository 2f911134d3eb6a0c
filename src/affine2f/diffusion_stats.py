"""Diffusion coefficients recovered from realized quadratic variation.

Over a grid step the squared increments of (Y, X) have conditional means

    E((dY)^2 | F)  = sigma1^2 Y dt
    E((dX)^2 | F)  = (sigma2^2 Y + sigma3^2) dt
    E(dY dX | F)   = rho sigma1 sigma2 Y dt

up to O(dt^2), with Y at the step's left point. So sigma1^2 is the ratio
of sum (dY)^2 to int Y, (sigma2^2, sigma3^2) regress the squared X
increments on (Y dt, dt) over every step of the grid (the unweighted
quasi-likelihood contrast of Genon-Catalot & Jacod, 1993), and rho is a
normalized cross term. The regression is singular only when Y is
constant on the grid. Drift contributes O(dt) to every sum and is
deliberately not corrected for; the tests measure the finite-dt error
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularSystem
from .simulate import PathGrid

DET_TOL = 1e-12


@dataclass(eq=False)
class DiffusionEstimate:
    """The four statistics plus diagnostics.

    sigma2_sq and sigma3_sq are floored at zero; the raw solutions of the
    regression can dip slightly negative at finite dt and are kept
    alongside.
    """

    sigma1_sq: float
    sigma2_sq: float
    sigma3_sq: float
    rho: float
    sigma2_sq_raw: float
    sigma3_sq_raw: float
    rho_clamped: bool
    det_ratio: float  # |det| of the normal matrix relative to its entry scale

    def to_text(self) -> str:
        lines = [
            f"sigma1_sq = {self.sigma1_sq:.17g}",
            f"sigma2_sq = {self.sigma2_sq:.17g} (raw {self.sigma2_sq_raw:.17g})",
            f"sigma3_sq = {self.sigma3_sq:.17g} (raw {self.sigma3_sq_raw:.17g})",
            f"rho = {self.rho:.17g}",
            f"rho_clamped = {'yes' if self.rho_clamped else 'no'}",
            f"det_ratio = {self.det_ratio:.17g}",
        ]
        return "\n".join(lines) + "\n"


def estimate_diffusion(path: PathGrid) -> DiffusionEstimate:
    """Four diffusion statistics from one path's realized variations.

    det_ratio is the spread of Y over the grid's left points,
    Var(y) / E(y^2); below DET_TOL Y counts as constant and the
    regression is refused.
    """
    dy, dx = np.diff(path.y), np.diff(path.x)
    y, dt, n = path.y[:-1], path.dt, dy.size
    sum_y = float(y.sum())
    int_y = sum_y * dt
    if not int_y > 0.0:
        raise ValueError("time integral of Y must be positive")
    s1 = float(dy @ dy) / int_y

    dx2 = dx * dx
    A = np.array([[float(y @ y), sum_y], [sum_y, float(n)]])
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    scale = max(abs(A[0, 0] * A[1, 1]), abs(A[0, 1] * A[1, 0]))
    if abs(det) < DET_TOL * scale:
        raise SingularSystem(
            "Y is constant on the grid, so the squared X increments cannot "
            f"separate sigma2^2 from sigma3^2; |det| = {abs(det):.3e} "
            f"against scale {scale:.3e}"
        )
    rhs = np.array([float(y @ dx2), float(dx2.sum())]) / dt
    s2_raw, s3_raw = np.linalg.solve(A, rhs)
    s2, s3 = max(s2_raw, 0.0), max(s3_raw, 0.0)

    denom = math.sqrt(s1 * s2) * int_y
    clamped = False
    if denom > 0.0:
        rho = float(dy @ dx) / denom
        if abs(rho) > 1.0:
            rho = math.copysign(1.0, rho)
            clamped = True
    else:
        rho = float("nan")
    return DiffusionEstimate(
        sigma1_sq=s1, sigma2_sq=float(s2), sigma3_sq=float(s3),
        rho=float(rho), sigma2_sq_raw=float(s2_raw),
        sigma3_sq_raw=float(s3_raw), rho_clamped=clamped,
        det_ratio=float(abs(det) / scale),
    )
