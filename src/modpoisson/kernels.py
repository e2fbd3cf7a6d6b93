"""Half-space kernels: the base kernel, the two modified kinds, and bounds.

The base kernel K = (|y' - y|^2 + x_n^2)^(-lam) is computed from the
squared gap |y' - y|^2 itself, never from |y'|^2 - 2|y'||x|Theta + |x|^2,
which cancels near the peak (up to 1.4e-9 relative at x_n = 1e-3).  Both
modified kinds subtract a Gegenbauer tail from K through one formula,
`_kernel_minus_tail`, in powers of |x|/|y'| (first kind, for growing data)
or |y'|/|x| (second kind, for decaying data and expansions).  It takes |x|,
x_n, the gap, |y'| and Theta as broadcastable arrays, which the quadrature
forms in its regions' polar variables and `_at_points` from Cartesian points.
The one-dimensional integral form of the first kind, `kernel_KM_integral`,
exists for cross-verification: panels graded toward zeta = Theta, where its
weight has its complex singularity, at 12 * 2^k points per panel on level k
of `quad1d.refine`, stopping when two levels differ by at most
max(1e-10, 1e-10 |integral|).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gegenbauer, quad1d
from .errors import DomainError, SingularityError
from .geometry import HalfSpacePoint, row_norms

__all__ = [
    "KernelParams",
    "kernel_K",
    "kernel_KM_direct",
    "kernel_KM_integral",
    "kernel_KM_second",
    "kernel_bound_first",
]


@dataclass(frozen=True)
class KernelParams:
    """(lam, M, kind) selecting a modified kernel; kind is 'first' or 'second'."""

    lam: float
    big_m: int
    kind: str = "first"

    def __post_init__(self):
        if not 0 < self.lam < np.inf:
            raise DomainError(f"kernel exponent must be positive and finite, got {self.lam}")
        if self.big_m < 0:
            raise DomainError(f"modification order must be >= 0, got {self.big_m}")
        if self.kind not in ("first", "second"):
            raise DomainError(f"kind must be 'first' or 'second', got {self.kind!r}")
        if self.kind == "second" and self.big_m < 1:
            raise DomainError("second-kind kernels require M >= 1")


def _rows(n: int, yp):
    """Boundary points of R^n as rows of shape (k, n-1), of their own dtype,
    and whether one was given."""
    pts = np.asarray(yp)
    scalar = pts.ndim == 1
    return (pts.reshape(-1, n - 1) if scalar else pts), scalar


def _squared_gap(pts, y):
    """|y' - y|^2 for points y' along the last axis, summed column by column
    as `row_norms` does; near y each difference is exact."""
    return sum((pts[..., k] - y[k]) ** 2 for k in range(len(y)))


def _out(vals: np.ndarray, scalar: bool):
    return vals[0].item() if scalar else vals


def kernel_K(lam: float, x: HalfSpacePoint, yp):
    """Base kernel [|y' - y|^2 + x_n^2] ** (-lam), from the Cartesian gap."""
    return _at_points(KernelParams(lam, 0), x.y, x.x_n, yp)


def kernel_KM_direct(params: KernelParams, x: HalfSpacePoint, yp):
    """First-kind modified kernel K_M = K - T_M, with T_M the sum over m < M
    of |x|^m |y'|^-(m+2*lam) C_m^lam(Theta); M = 0 is the base kernel."""
    if params.kind != "first":
        raise DomainError("kernel_KM_direct takes first-kind parameters")
    return _at_points(params, x.y, x.x_n, yp)


def kernel_KM_second(params: KernelParams, x: HalfSpacePoint, yp):
    """Second-kind modified kernel K~_M = K - sum over m < M of
    |y'|^m |x|^-(m+2*lam) C_m^lam(Theta)."""
    if params.kind != "second":
        raise DomainError("kernel_KM_second takes second-kind parameters")
    return _at_points(params, x.y, x.x_n, yp)


def _at_points(params: KernelParams, y, x_n, yp):
    """`_kernel_minus_tail` at the Cartesian field point (y, x_n) and boundary
    points y'; a scalar for one point.  |x|, |y' - y|^2, |y'| and Theta =
    y.y' / (|x| |y'|) (0 at y' = 0) take arithmetic and square roots alone,
    so complex coordinates give the kernel's analytic continuation."""
    y = np.asarray(y)
    pts, scalar = _rows(y.size + 1, yp)
    r = np.sqrt(y @ y + x_n * x_n)
    rho = theta_big = None
    if params.big_m:
        rho = row_norms(pts)
        theta_big = (pts @ y) / (r * np.where(rho == 0.0, 1.0, rho))
    return _out(_kernel_minus_tail(params, r, x_n, _squared_gap(pts, y), rho, theta_big),
                scalar)


def _kernel_minus_tail(params: KernelParams, r, x_n, gap2, rho=None, theta_big=None,
                       c=1.0):
    """K - c b^(-2 lam) sum over m < M of (a/b)^m C_m^lam(Theta), the one
    kernel formula of both kinds: K = (gap2 + x_n^2)^(-lam) from the squared
    gap gap2 = |y' - y|^2, and the tail in the polar variables rho = |y'|
    and Theta, with (a, b) = (r, rho) for the first kind and (rho, r) for
    the second, r = |x|.  rho and Theta serve the tail alone, so M = 0 needs
    neither.

    rho, theta_big and c broadcast to gap2's shape, the result's, and no
    argument is written to.  c = 1 gives K_M and K~_M (the base kernel at
    M = 0); the cutoff's ramp at rho gives the kernel of the assembled
    solutions, which is K on the unit ball and K_M outside radius 2.  Only
    the first kind is singular at rho = 0.  The sum is
    `gegenbauer.weighted_sum`, whose recurrence runs on theta_big's own
    shape: a row of angles against a column of radii costs one recurrence
    per angle.
    """
    lam, big_m = params.lam, params.big_m
    out = gap2 + x_n * x_n
    out **= -lam
    if big_m and np.any(c):
        if params.kind == "first":
            if np.any(rho == 0.0):
                raise SingularityError("modified kernel is singular at the boundary origin")
            a, b = r, rho
        else:
            a, b = rho, r
        tail = gegenbauer.weighted_sum(lam, big_m, theta_big, a / b)
        tail *= c * b ** (-2.0 * lam)
        out -= tail
    return out


def kernel_KM_integral(params: KernelParams, x: HalfSpacePoint, yp) -> float:
    """First-kind modified kernel via its one-dimensional integral form.

    K_M = K * integral over zeta in (0, s) of
    (1 - 2*Theta*zeta + zeta^2)^(lam-1) * Phi_-(Theta, zeta) * zeta^(M-1),
    with s = |x| / |y'| and Phi_- from `gegenbauer.phi_minus`, and the base
    formed as (zeta - Theta)^2 + (1 - Theta)(1 + Theta), never below 0.  The
    weight has its complex singularity at zeta = Theta +- i sqrt(1 - Theta^2),
    so the panel edges, 0, s and 1 when s > 1, are graded toward zeta = Theta
    at scale sqrt(1 - Theta^2).  Level k of `quad1d.refine` puts 12 * 2^k
    Gauss-Legendre points on every panel, and the levels stop when two
    differ by at most max(1e-10, 1e-10 |integral|).
    """
    if params.kind != "first" or params.big_m < 1:
        raise DomainError("integral form needs first-kind parameters with M >= 1")
    lam, big_m = params.lam, params.big_m
    pts = np.asarray(yp, dtype=float)
    if pts.ndim != 1:
        raise DomainError("integral form evaluates one boundary point at a time")
    norm = float(np.linalg.norm(pts))
    if norm == 0.0:
        raise SingularityError("modified kernel is singular at the boundary origin")
    s = x.r / norm
    theta_big = float(pts @ x.y) / (x.r * norm)

    def integrand(zeta):
        weight = ((zeta - theta_big) ** 2 + (1.0 - theta_big) * (1.0 + theta_big)) ** (lam - 1.0)
        phi = gegenbauer.phi_minus(lam, big_m, theta_big, zeta)
        return weight * phi * zeta ** (big_m - 1)

    # Theta rounds to 1 when x_n < eps |x|, and a zero scale would grade forever
    scale = np.sqrt(max(1.0 - theta_big * theta_big, 1e-24))
    edges = {0.0, s, *quad1d.graded_edges(theta_big, scale, 0.0, s)}
    if s > 1.0:
        edges.add(1.0)
    edges = sorted(edges)

    def level_value(level):
        zeta, w = quad1d.panels(edges, 12 * 2**level)
        return float(w @ integrand(zeta))

    integral, _ = quad1d.refine(level_value, 1e-10, 1e-10)
    return kernel_K(lam, x, yp) * integral


def kernel_bound_first(params: KernelParams, x: HalfSpacePoint, yp):
    """Fully explicit majorant of |K_M| for M >= 1.

    For lam >= 1/2:
        2*lam*binom(2*lam+M, M-1) * 2^(2*lam) * sec(theta)^(2*lam)
        * (|x|+|y'|)^(-2*lam) * s^M * (1+s)^(2*lam-1)
    and for lam < 1/2 the factor s*(1+s)^(2*lam-1) is replaced by
    min(s, s^(2*lam)) / lam, absorbing the singular weight.
    """
    from scipy.special import binom

    if params.kind != "first" or params.big_m < 1:
        raise DomainError("bound applies to first-kind parameters with M >= 1")
    lam, big_m = params.lam, params.big_m
    pts, scalar = _rows(x.n, yp)
    norms = row_norms(pts)
    if np.any(norms == 0.0):
        raise SingularityError("bound undefined at the boundary origin")
    s = x.r / norms
    d1 = 2.0 * lam * binom(2.0 * lam + big_m, big_m - 1)
    front = d1 * 2.0 ** (2.0 * lam) * x.sec_theta ** (2.0 * lam) * (x.r + norms) ** (-2.0 * lam)
    if lam >= 0.5:
        vals = front * s**big_m * (1.0 + s) ** (2.0 * lam - 1.0)
    else:
        vals = front * s ** (big_m - 1) * np.minimum(s, s ** (2.0 * lam)) / lam
    return _out(vals, scalar)
