"""Spherical-harmonic expansions of the half-space solution operators.

The solid harmonics come in two families: x_n |x|^m C_m^(n/2)(Theta) for the
Dirichlet side (vanishing on the boundary hyperplane) and
|x|^m C_m^((n-2)/2)(Theta) for the Neumann side (vanishing normal
derivative).  Truncating the second-kind kernel turns the solution operators
into asymptotic series in 1/|x| whose direction-dependent coefficients are
moment integrals of the data; the exp(-|y|) example below has those moments
in closed form, and its series exhibits the generic eventual divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from . import gegenbauer
from .data import BoundaryData
from .errors import DomainError
from .geometry import HalfSpacePoint, cos_theta_prime_array, row_norms
from .quadrature import (
    QuadratureSpec,
    alpha_n,
    dirichlet_D,
    integrate_weighted,
    neumann_N,
)

__all__ = [
    "HarmonicFamilyTerm",
    "harmonic_term",
    "coefficient_Y0",
    "coefficient_Y1",
    "AsymptoticExpansion",
    "asymptotic_expansion",
    "gamma_addition",
    "addition_separation",
    "zonal_harmonic",
    "exp_data_neumann_coefficient",
    "divergence_demo",
]


@dataclass(frozen=True)
class HarmonicFamilyTerm:
    """One member of a solid-harmonic family.

    family 'dirichlet' gives the degree-(m+1) polynomial x_n |x|^m C_m^(n/2);
    family 'neumann' the degree-m polynomial |x|^m C_m^((n-2)/2).  The pole
    is the boundary direction entering Theta; default first axis.
    """

    family: str
    m: int
    n: int
    pole: tuple = None

    def __post_init__(self):
        if self.family not in ("dirichlet", "neumann"):
            raise DomainError("family must be 'dirichlet' or 'neumann'")
        if self.m < 0:
            raise DomainError("degree index must be non-negative")
        if self.family == "neumann" and self.n < 3:
            raise DomainError("the Neumann family needs ambient dimension >= 3")
        if self.n < 2:
            raise DomainError("ambient dimension must be >= 2")
        pole = self.pole
        if pole is None:
            pole = np.zeros(self.n - 1)
            pole[0] = 1.0
        pole = np.asarray(pole, dtype=float)
        pole = pole / np.linalg.norm(pole)
        object.__setattr__(self, "pole", tuple(pole))

    @property
    def degree(self) -> int:
        return self.m + 1 if self.family == "dirichlet" else self.m


def harmonic_term(term: HarmonicFamilyTerm, x) -> float:
    """Evaluate the solid harmonic at a Cartesian point of R^n."""
    x = np.asarray(x, dtype=float)
    if x.shape != (term.n,):
        raise DomainError(f"point must live in R^{term.n}")
    r = float(np.linalg.norm(x))
    pole = np.asarray(term.pole)
    if r == 0.0:
        theta_big = 0.0
    else:
        theta_big = float(np.dot(x[:-1], pole)) / r
    lam = term.n / 2.0 if term.family == "dirichlet" else (term.n - 2) / 2.0
    radial = r**term.m if r > 0 else (1.0 if term.m == 0 else 0.0)
    core = radial * gegenbauer.value(lam, term.m, theta_big)
    if term.family == "dirichlet":
        return x[-1] * core
    return core


def _direction(n: int, theta: float, y_hat) -> HalfSpacePoint:
    if y_hat is None:
        y_hat = np.zeros(n - 1)
        y_hat[0] = 1.0
    return HalfSpacePoint(n=n, r=1.0, theta=theta, y_hat=np.asarray(y_hat, dtype=float))


def _moment_weight(xdir: HalfSpacePoint, lam: float, m: int):
    def weight(pts):
        norms = row_norms(pts)
        tb = xdir.sin_theta * cos_theta_prime_array(xdir, pts, norms=norms)
        return norms**m * gegenbauer.value(lam, m, tb)

    return weight


def _require_decay(data: BoundaryData, big_m: int):
    if not data.second_kind_admissible(big_m):
        raise DomainError(
            f"data does not satisfy the decay condition through order {big_m}"
        )


def coefficient_Y0(m: int, data: BoundaryData, theta: float, y_hat=None,
                   spec: QuadratureSpec | None = None) -> float:
    """Dirichlet-family coefficient of degree m+1 at direction (theta, y_hat).

    alpha_n cos(theta) * integral of f(y') |y'|^m C_m^(n/2)(sin(theta)
    y_hat . y_hat') dy'; vanishes on the boundary through the cosine factor.
    """
    n = data.n
    _require_decay(data, m + 1)
    xdir = _direction(n, theta, y_hat)
    moment = integrate_weighted(
        data, _moment_weight(xdir, n / 2.0, m), spec, weight_growth=m, x=None
    )
    return alpha_n(n) * math.cos(theta) * moment


def coefficient_Y1(m: int, data: BoundaryData, theta: float, y_hat=None,
                   spec: QuadratureSpec | None = None) -> float:
    """Neumann-family coefficient of degree m at direction (theta, y_hat)."""
    n = data.n
    if n < 3:
        raise DomainError("Neumann coefficients need ambient dimension >= 3")
    _require_decay(data, m + 1)
    xdir = _direction(n, theta, y_hat)
    moment = integrate_weighted(
        data, _moment_weight(xdir, (n - 2) / 2.0, m), spec, weight_growth=m, x=None
    )
    return alpha_n(n) / (n - 2.0) * moment


@dataclass
class AsymptoticExpansion:
    """Truncated large-|x| expansion of a solution operator.

    partial_sum(x) sums the first M coefficient terms; remainder(x) is the
    direct integral minus the partial sum, which coincides with the
    second-kind modified integral by construction of that kernel.
    """

    problem: str
    data: BoundaryData
    big_m: int
    spec: QuadratureSpec | None = None
    _cache: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.problem not in ("dirichlet", "neumann"):
            raise DomainError("problem must be 'dirichlet' or 'neumann'")
        if self.big_m < 0:
            raise DomainError("truncation order must be non-negative")
        _require_decay(self.data, max(self.big_m, 1))

    def coefficient(self, m: int, theta: float, y_hat=None) -> float:
        key = (m, round(theta, 15), None if y_hat is None else tuple(np.round(y_hat, 15)))
        if key not in self._cache:
            if self.problem == "dirichlet":
                self._cache[key] = coefficient_Y0(m, self.data, theta, y_hat, self.spec)
            else:
                self._cache[key] = coefficient_Y1(m, self.data, theta, y_hat, self.spec)
        return self._cache[key]

    def partial_sum(self, x: HalfSpacePoint) -> float:
        total = 0.0
        for m in range(self.big_m):
            coef = self.coefficient(m, x.theta, x.y_hat)
            if self.problem == "dirichlet":
                total += x.r ** -(m + x.n - 1) * coef
            else:
                total += x.r ** -(m + x.n - 2) * coef
        return total

    def direct(self, x: HalfSpacePoint) -> float:
        if self.problem == "dirichlet":
            return dirichlet_D(self.data, x, self.spec)
        return neumann_N(self.data, x, self.spec)

    def remainder(self, x: HalfSpacePoint) -> float:
        return self.direct(x) - self.partial_sum(x)


def asymptotic_expansion(problem: str, data: BoundaryData, big_m: int,
                         x: HalfSpacePoint, spec: QuadratureSpec | None = None):
    """(partial_sum, remainder) of the large-|x| expansion at the point x."""
    exp = AsymptoticExpansion(problem, data, big_m, spec)
    partial = exp.partial_sum(x)
    return partial, exp.direct(x) - partial


# ---------------------------------------------------------------------------
# the addition formula


def gamma_addition(n: int, m: int, ell: int, theta: float) -> float:
    """Coefficient gamma_{n,m,ell}(theta) separating the polar angle in
    C_m^(n/2)(sin(theta) t) = sum over ell of gamma * C_{m-2 ell}^((n-1)/2)(t).

    Evaluated in log space with sign tracking; the power-of-four factor uses
    the corrected transcription 2^(2m) / 16^ell.
    """
    if not 0 <= ell <= m // 2:
        raise DomainError("need 0 <= ell <= floor(m/2)")
    log_mag = (
        gammaln(n - 1.0)
        + gammaln(2.0 * ell + 1.0)
        + math.log(n + 2.0 * m - 4.0 * ell - 1.0)
        + gammaln(n / 2.0 + m - 2.0 * ell)
        + gammaln(n / 2.0 + m - ell)
        - (2.0 * ell - m) * math.log(4.0)
        - 2.0 * gammaln(n / 2.0)
        - gammaln(ell + 1.0)
        - gammaln(n + 2.0 * m - 2.0 * ell)
    )
    body = gegenbauer.value(n / 2.0 + m - 2.0 * ell, 2 * ell, math.cos(theta))
    return (-1.0) ** ell * math.exp(log_mag) * math.sin(theta) ** (m - 2 * ell) * body


def addition_separation(n: int, m: int, theta: float, y_hat, data: BoundaryData,
                        spec: QuadratureSpec | None = None) -> float:
    """Dirichlet coefficient of degree m+1 reassembled through the addition
    formula: alpha_n cos(theta) sum over ell of gamma_{n,m,ell}(theta) *
    delta_{n,m,ell}(y_hat), where delta is a zonal moment of the data.

    Must agree with coefficient_Y0 computed from the direct moment.
    """
    _require_decay(data, m + 1)
    xdir = _direction(n, theta, y_hat)
    total = 0.0
    for ell in range(m // 2 + 1):
        gamma = gamma_addition(n, m, ell, theta)

        def delta_weight(pts, order=m - 2 * ell):
            norms = row_norms(pts)
            cosp = cos_theta_prime_array(xdir, pts, norms=norms)
            return norms**m * gegenbauer.value((n - 1) / 2.0, order, cosp)

        delta = integrate_weighted(data, delta_weight, spec, weight_growth=m, x=None)
        total += gamma * delta
    return alpha_n(n) * math.cos(theta) * total


def zonal_harmonic(n: int, m: int, pole, direction) -> float:
    """C_m^(n/2) of the dot product of two unit directions."""
    pole = np.asarray(pole, dtype=float)
    direction = np.asarray(direction, dtype=float)
    for v in (pole, direction):
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise DomainError("zonal harmonics take unit directions")
    return gegenbauer.value(n / 2.0, m, float(np.clip(pole @ direction, -1.0, 1.0)))


# ---------------------------------------------------------------------------
# the exp(-|y|) example


def exp_data_neumann_coefficient(n: int, order: int, theta: float) -> float:
    """Closed-form Neumann coefficient for data exp(-|y|).

    Odd orders vanish; order 2k evaluates to
    2^(n-2) Gamma(n/2-1) (-1)^k (2k)! Gamma(k+n/2) C_{2k}^((n-2)/2)(cos
    theta) / (pi k!), computed in log space.
    """
    if n < 3:
        raise DomainError("the closed form needs ambient dimension >= 3")
    if order < 0:
        raise DomainError("order must be non-negative")
    if order % 2 == 1:
        return 0.0
    k = order // 2
    body = gegenbauer.value((n - 2) / 2.0, order, math.cos(theta))
    if body == 0.0:
        return 0.0
    log_mag = (
        (n - 2.0) * math.log(2.0)
        + gammaln(n / 2.0 - 1.0)
        + gammaln(2.0 * k + 1.0)
        + gammaln(k + n / 2.0)
        - math.log(math.pi)
        - gammaln(k + 1.0)
        + math.log(abs(body))
    )
    sign = (-1.0) ** k * math.copysign(1.0, body)
    return sign * math.exp(log_mag)


def _exp_data_spherical_mean(n: int, order: int, theta: float) -> float:
    """Closed form of the zonal average I of C_order over the unit sphere
    (the piece the Neumann coefficient reduces to by spherical means)."""
    if order % 2 == 1:
        return 0.0
    k = order // 2
    body = gegenbauer.value((n - 2) / 2.0, order, math.cos(theta))
    if body == 0.0:
        return 0.0
    log_mag = (
        (n - 3.0) * math.log(2.0)
        + gammaln(n / 2.0 - 1.0)
        + gammaln(2.0 * k + 1.0)
        + gammaln(k + n / 2.0 - 1.0)
        - gammaln(k + 1.0)
        - gammaln(2.0 * k + n - 2.0)
        + math.log(abs(body))
    )
    sign = (-1.0) ** k * math.copysign(1.0, body)
    return sign * math.exp(log_mag)


def divergence_demo(n: int, r: float, theta: float, k_max: int,
                    problem: str = "neumann") -> np.ndarray:
    """Magnitudes of the even-order expansion terms at a fixed point.

    For the Neumann series these are |r^-(2k+n-2) Y_(2k)| for k = 0..k_max,
    from the closed form; beyond an order the factorial growth of the
    coefficients beats the power of r and the magnitudes increase without
    bound.  The Dirichlet variant uses the derivative relation linking its
    zonal average to the Neumann one two dimensions down (needs n >= 5).
    """
    if k_max < 0:
        raise DomainError("k_max must be non-negative")
    out = np.zeros(k_max + 1)
    if problem == "neumann":
        for k in range(k_max + 1):
            coef = exp_data_neumann_coefficient(n, 2 * k, theta)
            log_term = -(2 * k + n - 2) * math.log(r)
            out[k] = abs(coef) * math.exp(log_term) if coef != 0.0 else 0.0
        return out
    if problem != "dirichlet":
        raise DomainError("problem must be 'neumann' or 'dirichlet'")
    if n < 5:
        raise DomainError("the Dirichlet demonstration uses the derivative "
                          "relation displayed only for n >= 5")
    if theta <= 0:
        raise DomainError("the derivative relation divides by sin(theta)")
    h = 1e-6
    omega_nm2 = math.pi ** ((n - 2) / 2.0) / math.gamma(1.0 + (n - 2) / 2.0)
    for k in range(k_max + 1):
        m = 2 * k
        # zonal average of the degree-m Dirichlet moment, via the theta
        # derivative of the Neumann average two dimensions down
        zonal_avg = (
            _exp_data_spherical_mean(n - 2, m + 2, theta + h)
            - _exp_data_spherical_mean(n - 2, m + 2, theta - h)
        ) / (2.0 * h) / ((n - 2.0) * math.sin(theta))
        front = math.exp(gammaln(m + n - 1.0)) * (n - 2.0) * omega_nm2 * alpha_n(n)
        out[k] = abs(front * zonal_avg) * r ** -(m + n - 1)
    return out
