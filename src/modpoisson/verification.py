"""Numerical certification measurements: harmonicity stencils, kernel
identities, boundary gaps, growth sweeps.

The measurements here return the number they measure: a harmonicity
residual, the relative residual of a kernel identity or of a Neumann
representation, the gaps of a boundary limit, the weighted sequence of a
growth sweep.  Their verdicts, and every tolerance they are judged against,
live in `modpoisson.suites`, which builds the one `CheckReport` of each
check; `check_harmonicity` is the one verdict kept here, for callers that
judge a single field.

The harmonicity stencil is the one difference step: a solve's rule
depends on x, so a complex step through it would measure the rule.  Its
fourth-order truncation sits far below the suites' tolerances, and
`suites.harmonicity_stencil_order` measures that order.  The kernel
identities differentiate the kernels' one formula along the Cartesian
paths of `_PATHS` by a complex step, whose error is rounding alone, and
the Neumann boundary gap's normal derivative is a Dirichlet integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import BoundaryData
from .errors import DomainError
from .geometry import HalfSpacePoint
from .kernels import KernelParams, _at_points, kernel_KM_direct
from .quadrature import (
    QuadratureSpec,
    _orthonormal_frame,
    _problem,
    dirichlet_D,
    dirichlet_DM,
    neumann_NM,
    solution_u,
)
from . import quad1d

__all__ = [
    "CheckReport",
    "worst",
    "harmonicity_residual",
    "check_harmonicity",
    "check_boundary",
    "kernel_identity_residual",
    "neumann_representation_residual",
    "growth_sweep",
]


@dataclass
class CheckReport:
    """Outcome of one certification check; pass means residual <= tolerance.

    A check that needs its residual strictly below a bound carries the
    largest float below that bound as its tolerance (see
    `suites.strictly_below`).
    """

    name: str
    residual: float
    tolerance: float
    parameters: dict = field(default_factory=dict)
    passed: bool = field(init=False)

    def __post_init__(self):
        self.residual = float(self.residual)
        self.passed = bool(self.residual <= self.tolerance)

    def as_record(self) -> dict:
        return {
            "name": self.name,
            "parameters": self.parameters,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def worst(residuals, floor: float = 0.0) -> float:
    """The largest of `residuals` and `floor`, or NaN when a residual is NaN.

    Every certification fold goes through it: max(0.0, nan) is 0.0, so a
    plain max would read a measurement that evaluates to NaN as a perfect
    residual, where a NaN residual fails its check.
    """
    values = [floor, *map(float, residuals)]
    return math.nan if any(math.isnan(v) for v in values) else max(values)


# Fourth-order central weights of 12 h^2 f'' at offsets 1 and 2 steps, applied
# to differences from the centre value (Fornberg 1988); equal to Richardson's
# (4 L(h) - L(2h)) / 3 of the second-order stencil.
_FOURTH_ORDER_WEIGHTS = ((1, 16.0), (2, -1.0))


def harmonicity_residual(fn, points, h: float, scale: float | None = None) -> float:
    """Max normalized FD-Laplacian residual of a claimed-harmonic field.

    The Laplacian comes from the fourth-order central stencil at offsets
    +-h and +-2h along each axis, whose truncation error is O(h^4).  Its
    reach is 2h, so every point needs x_n > 2h; a point closer to the
    boundary raises DomainError.  Each of the 4n + 1 stencil points is
    evaluated once (13 calls of fn per point at n = 3).

    The residual is normalized by the local field magnitude: the maximum
    |fn| over the stencil points by default, or an explicit `scale` (for
    fields with deep zeros, pass the sup over the evaluation sphere).
    """
    return worst(_normalized_laplacian(fn, np.asarray(x, dtype=float), h, scale)
                 for x in points)


def _normalized_laplacian(fn, x, h: float, scale: float | None) -> float:
    """|Laplacian| of fn at x by the stencil, over the local scale."""
    if x[-1] <= 2.0 * h:
        raise DomainError(f"stencil of reach 2h = {2.0 * h:g} leaves the "
                          f"half-space at x_n = {x[-1]:g}")
    center = fn(x)
    values = [center]
    total = 0.0
    for i in range(x.size):
        for k, weight in _FOURTH_ORDER_WEIGHTS:
            step = np.zeros_like(x)
            step[i] = k * h
            plus, minus = fn(x + step), fn(x - step)
            values += [plus, minus]
            total += weight * ((plus - center) + (minus - center))
    lap = total / (12.0 * h * h)
    local = max(max(abs(v) for v in values), 1e-30) if scale is None else scale
    return abs(lap) / local


def check_harmonicity(fn, points, h: float, tol: float, name: str) -> CheckReport:
    """`harmonicity_residual` with its stencil-normalized residual judged
    against tol."""
    return CheckReport(name, harmonicity_residual(fn, points, h), tol)


def check_boundary(problem: str, data: BoundaryData, y, xn_sequence) -> list[float]:
    """Boundary recovery gaps: at each height of xn_sequence above the
    boundary point y, |u - f(y)| for the Dirichlet problem and
    |-dv/dx_n - f(y)| for the Neumann one, u and v at M = 1, one solve to
    1e-10 per height.  The tail w |y'|^(2 - n) of v's kernel is free of x,
    so by identity (v) -dv/dx_n is the Dirichlet integral D[f]."""
    _problem(problem, data.n)
    spec = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10)
    y = np.asarray(y, dtype=float)
    f_at_y = float(data(y[None, :])[0])
    points = (HalfSpacePoint.from_cartesian(np.append(y, xn)) for xn in xn_sequence)
    if problem == "dirichlet":
        return [abs(solution_u(data, 1, x, spec) - f_at_y) for x in points]
    return [abs(dirichlet_D(data, x, spec) - f_at_y) for x in points]


# ---------------------------------------------------------------------------
# paths through a field point and a boundary point


def _norm(v) -> float:
    return float(np.linalg.norm(v))


def _rotation_path(x: HalfSpacePoint, yp: np.ndarray):
    """Path (viii): y' turns by its angle theta' to y_hat, within the plane
    spanned by the two (any plane through y_hat when they are aligned)."""
    along = float(x.y_hat @ yp)
    residual = yp - along * x.y_hat
    res_norm = _norm(residual)
    perp = residual / res_norm if res_norm > 1e-12 else _orthonormal_frame(x.y_hat)[1]
    norm = _norm(yp)
    return math.atan2(res_norm, along), lambda t: (
        x.y, x.x_n, norm * (np.cos(t) * x.y_hat + np.sin(t) * perp))


# name -> (x, y') -> (t0, t -> (y, x_n, y')): a path through (x, y') at t0 in
# Cartesian coordinates, analytic in t, so a complex t continues it.  (i)
# theta, (ii) r, (iii) the first coordinate of y, (iv) |y| and (v) x_n move
# x; (vi) |y'|, (vii) the first coordinate of y' and (viii) the angle theta'
# move y'.  The kernel identities take all eight, the Neumann representations
# (i)-(v), which ignore y'.
_PATHS = {
    "i": lambda x, yp: (x.theta, lambda t: (x.r * np.sin(t) * x.y_hat, x.r * np.cos(t), yp)),
    "ii": lambda x, yp: (x.r, lambda t: (t * x.sin_theta * x.y_hat, t * np.cos(x.theta), yp)),
    "iii": lambda x, yp: (x.y[0], lambda t: (np.append(t, x.y[1:]), x.x_n, yp)),
    "iv": lambda x, yp: (x.r * x.sin_theta, lambda t: (t * x.y_hat, x.x_n, yp)),
    "v": lambda x, yp: (x.x_n, lambda t: (x.y, t, yp)),
    "vi": lambda x, yp: (_norm(yp), lambda t: (x.y, x.x_n, t * yp / _norm(yp))),
    "vii": lambda x, yp: (yp[0], lambda t: (x.y, x.x_n, np.append(t, yp[1:]))),
    "viii": _rotation_path,
}


# ---------------------------------------------------------------------------
# differential-difference identities of the modified kernel


# identity -> (x, y') -> (a, b, c); see kernel_identity_residual
_IDENTITY_COEFFICIENTS = {
    "i": lambda x, yp: (x.x_n * float(x.y_hat @ yp), 0.0, 0.0),
    "ii": lambda x, yp: (x.sin_theta * float(x.y_hat @ yp), x.r, 0.0),
    "iii": lambda x, yp: (yp[0], x.y[0], 0.0),
    "iv": lambda x, yp: (float(x.y_hat @ yp), x.r * x.sin_theta, 0.0),
    "v": lambda x, yp: (0.0, x.x_n, 0.0),
    "vi": lambda x, yp: (float(x.y @ yp) / _norm(yp), 0.0, _norm(yp)),
    "vii": lambda x, yp: (x.y[0], 0.0, yp[0]),
    "viii": lambda x, yp: (-x.r * x.sin_theta * _norm(yp - (x.y_hat @ yp) * x.y_hat),
                           0.0, 0.0),
}


def kernel_identity_residual(identity: str, lam: float, big_m: int, x: HalfSpacePoint,
                             yp) -> float:
    """Relative residual of one differential-difference identity of the
    modified kernel: |lhs - rhs| / max(1, |lhs|, |rhs|).

    The left side is the derivative of K_M(lam) along the identity's path
    of `_PATHS` at t0 by a complex step, Im K_M(path(t0 + ih)) / h with
    h = 1e-30: no subtraction and no truncation above rounding, so the
    residual measures the kernel, not a step.  The right side is
    2 lam (a K_(M-1) - b K_(M-2) - c K_M) at exponent lam + 1 and (x, y'),
    with the identity's coefficients (a, b, c) and the convention that
    non-positive orders mean the unmodified kernel.
    """
    if identity not in _IDENTITY_COEFFICIENTS:
        raise DomainError(f"unknown identity {identity!r}")
    yp = np.asarray(yp, dtype=float)
    t0, path = _PATHS[identity](x, yp)
    h = 1e-30
    lhs = _at_points(KernelParams(lam, big_m), *path(t0 + 1j * h)).imag / h
    a, b, c = _IDENTITY_COEFFICIENTS[identity](x, yp)
    km0, km1, km2 = (kernel_KM_direct(KernelParams(lam + 1.0, max(big_m - k, 0)), x, yp)
                     for k in range(3))
    rhs = 2.0 * lam * (a * km1 - b * km2 - c * km0)
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


# ---------------------------------------------------------------------------
# representations of the modified Neumann integral


# representation -> x -> (direction e, a(t), b(t)) along the x-path of the
# same name in _PATHS; see neumann_representation_residual
_REPRESENTATIONS = {
    "i": lambda x: (x.y_hat, lambda t: 1.0, lambda t: 0.0),
    "ii": lambda x: (x.y_hat, lambda t: math.tan(x.theta) / t, lambda t: x.sec_theta),
    "iii": lambda x: (np.eye(x.n - 1)[0], lambda t: 1.0 / x.x_n, lambda t: t / x.x_n),
    "iv": lambda x: (x.y_hat, lambda t: 1.0 / x.x_n, lambda t: t / x.x_n),
    "v": lambda x: (x.y_hat, lambda t: 0.0, lambda t: 1.0),
}


def neumann_representation_residual(representation: str, data: BoundaryData, big_m: int,
                                    x: HalfSpacePoint, anchor: float,
                                    spec: QuadratureSpec | None = None) -> float:
    """Relative residual |value - direct| / max(1, |direct|) of one integral
    representation of the modified Neumann solution through modified
    Dirichlet integrals against direct evaluation.

    Each representation follows the x-path of its name in `_PATHS`, which
    ends at x and moves (i) the polar angle, (ii) the radius, (iii) the
    first boundary coordinate, (iv) the projection length along y_hat, or
    (v) the height, with a direction e and two coefficients a(t), b(t) from
    `_REPRESENTATIONS`.  N_M[f](x) is N_M[f](x(anchor)) plus the 24-point
    Gauss-Legendre integral from anchor to the path's end of
    a(t) D_(M-1)[f e.y'](x(t)) - b(t) D_(M-2)[f](x(t)), orders below zero
    meaning the unmodified kernel; a zero coefficient skips its solve.  The
    data must be continuous with the origin outside the closure of its
    support.
    """
    if representation not in _REPRESENTATIONS:
        raise DomainError(f"unknown representation {representation!r}")
    spec = spec or QuadratureSpec()
    if data.support.inner_radius <= 0:
        raise DomainError("representations need data supported away from the origin")
    end, cartesian = _PATHS[representation](x, None)
    direction, a, b = _REPRESENTATIONS[representation](x)
    f_dir = data.scaled_by(lambda pts: pts @ direction, name_suffix="*dir", growth_shift=1.0)
    m1, m2 = max(big_m - 1, 0), max(big_m - 2, 0)

    def path(t):
        return HalfSpacePoint.from_cartesian(np.append(*cartesian(t)[:2]))

    def integrand(t):
        at, bt = a(t), b(t)
        value = at * dirichlet_DM(m1, f_dir, path(t), spec) if at else 0.0
        return value - bt * dirichlet_DM(m2, data, path(t), spec) if bt else value

    direct = neumann_NM(big_m, data, x, spec)
    glx, glw = quad1d.gauss_legendre(24)
    half, mid = 0.5 * (end - anchor), 0.5 * (end + anchor)
    contrib = half * sum(w * integrand(mid + half * t) for t, w in zip(glx, glw))
    value = contrib + neumann_NM(big_m, data, path(anchor), spec)
    return abs(value - direct) / max(1.0, abs(direct))


# ---------------------------------------------------------------------------
# growth sweeps


# polar angles of the growth sweeps' theta grid
_THETAS = (0.0, 0.3, 0.6, 0.9, 1.2, 1.45)


def growth_sweep(target, radii, weight_exponent: float,
                 radial_exponent: float) -> list[float]:
    """Weighted supremum sequence of an order relation.

    target(x) evaluates the integral at a point x of the three-dimensional
    half space; mu(r) is the maximum over the theta grid (0, 0.3, 0.6, 0.9,
    1.2, 1.45) of |target| * cos(theta)^weight_exponent, and the sequence
    is mu(r) / r^radial_exponent over the radii.
    """
    return [worst(abs(target(HalfSpacePoint(n=3, r=float(r), theta=float(theta))))
                  * math.cos(theta) ** weight_exponent for theta in _THETAS)
            / float(r) ** radial_exponent for r in radii]
