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

from . import gegenbauer
from .data import BoundaryData
from .errors import DomainError
from .geometry import HalfSpacePoint, cos_theta_prime_array, row_norms
from .quadrature import (
    QuadratureSpec,
    _first_kind_map,
    _problem,
    alpha_n,
    integrate_weighted,
    unit_ball_volume,
)

__all__ = [
    "HarmonicFamilyTerm",
    "harmonic_term",
    "coefficient_Y0",
    "coefficient_Y1",
    "AsymptoticExpansion",
    "gamma_addition",
    "addition_separation",
    "exp_data_neumann_coefficient",
    "divergence_demo",
]


@dataclass(frozen=True)
class HarmonicFamilyTerm:
    """One member of a solid-harmonic family.

    family 'dirichlet' gives the degree-(m+1) polynomial x_n |x|^m C_m^(n/2);
    family 'neumann' the degree-m polynomial |x|^m C_m^((n-2)/2).  Theta is
    x_1 / |x|: the pole is the first boundary axis.
    """

    family: str
    m: int
    n: int

    def __post_init__(self):
        _problem(self.family, self.n)
        if self.m < 0:
            raise DomainError("degree index must be non-negative")


def harmonic_term(term: HarmonicFamilyTerm, x) -> float:
    """Evaluate the solid harmonic at a Cartesian point of R^n."""
    x = np.asarray(x, dtype=float)
    if x.shape != (term.n,):
        raise DomainError(f"point must live in R^{term.n}")
    r = float(np.linalg.norm(x))
    theta_big = 0.0 if r == 0.0 else float(x[0]) / r
    lam, _, carries_xn = _problem(term.family, term.n)
    radial = r**term.m if r > 0 else (1.0 if term.m == 0 else 0.0)
    core = radial * gegenbauer.value(lam, term.m, theta_big)
    return x[-1] * core if carries_xn else core


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


def _coefficient(problem: str, m: int, data: BoundaryData, xdir: HalfSpacePoint,
                 spec: QuadratureSpec | None) -> float:
    """The problem's normalisation times the degree-m moment of the data in
    the direction of the unit point xdir, times cos(theta) (x_n on the unit
    sphere) for the family carrying x_n."""
    lam, norm, carries_xn = _problem(problem, data.n)
    _require_decay(data, m + 1)
    moment = integrate_weighted(data, _moment_weight(xdir, lam, m), spec, weight_growth=m)
    return (norm * math.cos(xdir.theta) if carries_xn else norm) * moment


def coefficient_Y0(m: int, data: BoundaryData, theta: float) -> float:
    """Dirichlet-family coefficient of degree m+1 at polar angle theta, with
    the projection along the first boundary axis e1.

    alpha_n cos(theta) * integral of f(y') |y'|^m C_m^(n/2)(sin(theta)
    e1 . y_hat') dy'; vanishes on the boundary through the cosine factor.
    """
    return _coefficient("dirichlet", m, data, HalfSpacePoint(data.n, 1.0, theta), None)


def coefficient_Y1(m: int, data: BoundaryData, theta: float) -> float:
    """Neumann-family coefficient of degree m at polar angle theta, with the
    projection along the first boundary axis."""
    return _coefficient("neumann", m, data, HalfSpacePoint(data.n, 1.0, theta), None)


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
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        _problem(self.problem, self.data.n)
        if self.big_m < 0:
            raise DomainError("truncation order must be non-negative")
        _require_decay(self.data, max(self.big_m, 1))

    def coefficient(self, m: int, theta: float, y_hat=None) -> float:
        """The degree-m coefficient at direction (theta, y_hat), y_hat
        defaulting to the first boundary axis; cached by the direction the
        moment uses, so y_hat=None and the first axis share one entry."""
        xdir = HalfSpacePoint(self.data.n, 1.0, theta, y_hat)
        key = (m, round(theta, 15), tuple(np.round(xdir.y_hat, 15)))
        if key not in self._cache:
            self._cache[key] = _coefficient(self.problem, m, self.data, xdir, self.spec)
        return self._cache[key]

    def partial_sum(self, x: HalfSpacePoint) -> float:
        lam, _, carries_xn = _problem(self.problem, x.n)
        total = 0.0
        for m in range(self.big_m):
            coef = self.coefficient(m, x.theta, x.y_hat)
            total += x.r ** -(m + 2.0 * lam - carries_xn) * coef
        return total

    def direct(self, x: HalfSpacePoint) -> float:
        return _first_kind_map(self.problem, self.data, 0, x, self.spec, None)[0]

    def remainder(self, x: HalfSpacePoint) -> float:
        return self.direct(x) - self.partial_sum(x)


# ---------------------------------------------------------------------------
# the addition formula


def gamma_addition(n: int, m: int, ell: int, theta: float) -> float:
    """Coefficient gamma_{n,m,ell}(theta) separating the polar angle in
    C_m^(n/2)(sin(theta) t) = sum over ell of gamma * C_{m-2 ell}^((n-1)/2)(t).

    Evaluated in log space with sign tracking; the power-of-four factor uses
    the corrected transcription 2^(2m) / 16^ell.
    """
    from scipy.special import gammaln

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


def addition_separation(m: int, data: BoundaryData, theta: float) -> float:
    """Dirichlet coefficient of degree m+1 reassembled through the addition
    formula: alpha_n cos(theta) sum over ell of gamma_{n,m,ell}(theta) *
    delta_{n,m,ell}(e1), where delta is a zonal moment of the data about the
    first boundary axis e1 and n is the data's dimension.

    Must agree with coefficient_Y0 computed from the direct moment.
    """
    n = data.n
    _require_decay(data, m + 1)
    xdir = HalfSpacePoint(n, 1.0, theta)
    total = 0.0
    for ell in range(m // 2 + 1):
        gamma = gamma_addition(n, m, ell, theta)

        def delta_weight(pts, order=m - 2 * ell):
            norms = row_norms(pts)
            cosp = cos_theta_prime_array(xdir, pts, norms=norms)
            return norms**m * gegenbauer.value((n - 1) / 2.0, order, cosp)

        delta = integrate_weighted(data, delta_weight, weight_growth=m)
        total += gamma * delta
    return alpha_n(n) * math.cos(theta) * total


# ---------------------------------------------------------------------------
# the exp(-|y|) example


def _exp_data_log_mean_factor(n: int, k: int) -> float:
    """log of the positive factor c with zonal average (-1)^k c
    C_(2k)^((n-2)/2)(cos theta); see `_exp_data_log_mean`."""
    from scipy.special import gammaln

    return ((n - 3.0) * math.log(2.0)
            + gammaln(n / 2.0 - 1.0)
            + gammaln(2.0 * k + 1.0)
            + gammaln(k + n / 2.0 - 1.0)
            - gammaln(k + 1.0)
            - gammaln(2.0 * k + n - 2.0))


def _exp_data_log_mean(n: int, order: int, theta: float) -> tuple[float, float]:
    """(sign, log magnitude) of the closed-form zonal average I of C_order over
    the unit sphere for data exp(-|y|), the piece the Neumann coefficient
    reduces to by spherical means; sign 0 where it vanishes."""
    if order % 2 == 1:
        return 0.0, -math.inf
    k = order // 2
    body = gegenbauer.value((n - 2) / 2.0, order, math.cos(theta))
    if body == 0.0:
        return 0.0, -math.inf
    log_mag = _exp_data_log_mean_factor(n, k) + math.log(abs(body))
    return (-1.0) ** k * math.copysign(1.0, body), log_mag


def _exp_data_log_neumann(n: int, order: int, theta: float) -> tuple[float, float]:
    """(sign, log magnitude) of `exp_data_neumann_coefficient`; sign 0 where
    it vanishes."""
    from scipy.special import gammaln

    k = order // 2
    sign, log_mean = _exp_data_log_mean(n, order, theta)
    return sign, (log_mean + math.log(2.0 / math.pi * (k + n / 2.0 - 1.0))
                  + gammaln(2.0 * k + n - 2.0))


def exp_data_neumann_coefficient(n: int, order: int, theta: float) -> float:
    """Closed-form Neumann coefficient for data exp(-|y|).

    Odd orders vanish; order 2k evaluates to
    2^(n-2) Gamma(n/2-1) (-1)^k (2k)! Gamma(k+n/2) C_{2k}^((n-2)/2)(cos
    theta) / (pi k!), the zonal average times (2/pi) (k+n/2-1)
    Gamma(2k+n-2), computed in log space; a coefficient beyond the float
    range reads as inf of its sign.
    """
    _problem("neumann", n)
    if order < 0:
        raise DomainError("order must be non-negative")
    sign, log_mag = _exp_data_log_neumann(n, order, theta)
    try:
        return sign * math.exp(log_mag)
    except OverflowError:
        return math.copysign(math.inf, sign)


def divergence_demo(n: int, r: float, theta: float, k_max: int,
                    problem: str = "neumann") -> np.ndarray:
    """Magnitudes of the even-order expansion terms at a fixed point.

    For the Neumann series these are |r^-(2k+n-2) Y_(2k)| for k = 0..k_max,
    from the closed form; beyond an order the factorial growth of the
    coefficients beats the power of r and the magnitudes increase without
    bound.  The Dirichlet variant uses the derivative relation linking its
    zonal average to the Neumann one two dimensions down (needs n >= 5):
    that average is (-1)^(k+1) c C_(2k+2)^((n-4)/2)(cos theta), and its
    theta-derivative over (n-2) sin(theta) is, exactly,
    (-1)^k c ((n-4)/(n-2)) C_(2k+1)^((n-2)/2)(cos theta), finite at
    theta = 0.  Each magnitude is summed in log space before one
    exponential, so a term beyond the float range reads inf.
    """
    from scipy.special import gammaln

    if k_max < 0:
        raise DomainError("k_max must be non-negative")
    _problem(problem, n)
    HalfSpacePoint(n, r, theta)  # the point (r, theta) must lie in the half space
    logs = np.full(k_max + 1, -math.inf)
    if problem == "neumann":
        for k in range(k_max + 1):
            logs[k] = _exp_data_log_neumann(n, 2 * k, theta)[1] - (2 * k + n - 2) * math.log(r)
        with np.errstate(over="ignore"):
            return np.exp(logs)
    if n < 5:
        raise DomainError("the Dirichlet demonstration uses the derivative "
                          "relation displayed only for n >= 5")
    log_front = math.log((n - 4.0) * unit_ball_volume(n - 2) * alpha_n(n))
    for k in range(k_max + 1):
        m = 2 * k
        # |zonal average| of the degree-m Dirichlet moment, the derivative
        # of the Neumann average two dimensions down
        body = gegenbauer.value((n - 2) / 2.0, m + 1, math.cos(theta))
        if body != 0.0:
            logs[k] = (gammaln(m + n - 1.0) + log_front
                       + _exp_data_log_mean_factor(n - 2, k + 1) + math.log(abs(body))
                       - (m + n - 1) * math.log(r))
    with np.errstate(over="ignore"):
        return np.exp(logs)
