"""Points of the upper half space and its boundary hyperplane.

All kernel formulas are expressed in the polar variables (r, theta, y_hat),
so field points are stored that way; Cartesian conversion serves the
stencils and paths of the certification.  Boundary points y' are plain arrays of shape
(..., n-1).  Angle conventions:

* theta is the angle between x and the inward normal, so x_n = r*cos(theta)
  with 0 <= theta < pi/2 inside the half space;
* theta' is the angle between the projection y of x and a boundary point
  y', taken to be pi/2 whenever either vector vanishes;
* for boundary dimension one (ambient n = 2) theta' is 0 or pi according
  as y' lies on the same or opposite side of the origin as y;
* Theta = sin(theta) * cos(theta'), the kernels' angular argument, with
  cos(theta') from `cos_theta_prime_array`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "HalfSpacePoint",
    "cos_theta_prime_array",
    "row_norms",
]


@dataclass(frozen=True)
class HalfSpacePoint:
    """A point of the open half space, stored as (n, r, theta, y_hat).

    y_hat is the unit direction of the boundary projection; it is
    irrelevant (and canonically the first axis) when theta = 0.
    """

    n: int
    r: float
    theta: float
    y_hat: np.ndarray = None

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"ambient dimension must be >= 2, got {self.n}")
        if not 0 < self.r < np.inf:
            raise DomainError(f"radius must be positive and finite, got {self.r}")
        if not (0.0 <= self.theta < np.pi / 2):
            raise DomainError(f"polar angle must lie in [0, pi/2), got {self.theta}")
        y_hat = self.y_hat
        if y_hat is None:
            y_hat = np.eye(self.n - 1)[0]
        y_hat = np.asarray(y_hat, dtype=float)
        if y_hat.shape != (self.n - 1,):
            raise DomainError(f"y_hat must have shape ({self.n - 1},)")
        if not np.all(np.isfinite(y_hat)):
            raise DomainError("y_hat must be finite")
        norm = np.linalg.norm(y_hat)
        if abs(norm - 1.0) > 1e-14:
            if norm == 0:
                raise DomainError("y_hat must be a unit vector")
            y_hat = y_hat / norm
        object.__setattr__(self, "y_hat", y_hat)

    @classmethod
    def from_cartesian(cls, x) -> "HalfSpacePoint":
        x = np.asarray(x, dtype=float)
        n = x.size
        xn = x[-1]
        if not xn > 0:
            raise DomainError("point must lie strictly inside the half space")
        y = x[:-1]
        r = float(np.linalg.norm(x))
        ynorm = float(np.linalg.norm(y))
        theta = float(np.arctan2(ynorm, xn))
        y_hat = y / ynorm if ynorm > 0 else None
        return cls(n=n, r=r, theta=theta, y_hat=y_hat)

    @property
    def x_n(self) -> float:
        return self.r * np.cos(self.theta)

    @property
    def y(self) -> np.ndarray:
        return self.r * np.sin(self.theta) * self.y_hat

    @property
    def sin_theta(self) -> float:
        return np.sin(self.theta)

    @property
    def sec_theta(self) -> float:
        return 1.0 / np.cos(self.theta)


def row_norms(pts) -> np.ndarray:
    """Euclidean norms along the last axis.

    Bit-identical to np.linalg.norm(pts, axis=-1) (the same squares summed
    in the same order) and several times faster on the short rows of
    boundary points.  A complex input keeps its dtype, and the root is
    then the analytic continuation of the norm, not its modulus.
    """
    pts = np.asarray(pts)
    return np.sqrt(sum(pts[..., k] * pts[..., k] for k in range(pts.shape[-1])))


def cos_theta_prime_array(x: HalfSpacePoint, pts: np.ndarray, norms=None) -> np.ndarray:
    """cos(theta') for an array of boundary points, with the conventions above.

    pts has shape (..., n-1); zero vectors (either y or y') give 0, matching
    the theta' = pi/2 convention.  norms, when given, are the points'
    row_norms, so a caller that already has them does not recompute them.
    """
    pts = np.asarray(pts, dtype=float)
    if norms is None:
        norms = row_norms(pts)
    if x.theta == 0.0:
        return np.zeros_like(norms)
    dots = pts @ x.y_hat
    out = np.zeros_like(norms)
    nz = norms > 0
    np.divide(dots, norms, out=out, where=nz)
    return np.clip(out, -1.0, 1.0)
