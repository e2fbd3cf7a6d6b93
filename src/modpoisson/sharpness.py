"""Sign constants, sign measurements, and data families for growth sharpness.

The modified kernels are not of one sign, so lower bounds on the solution
integrals require regions of the boundary where the sign is controlled.
Two are measured by sampling: a band of directions nearly orthogonal to the
field point's projection, where the Gegenbauer combination is one-signed
(`phi_band_minimum`), and the part of a double cone around the projection
direction near the kernel's contact sphere, where the base kernel dominates
its subtracted tail (`km_cone_minimum`).  On the cone's far parts the
kernel's sign is unknown; `balanced_sign_integral` measures f K_M over
them.  The data families supported on half balls and on reflected ball
pairs realize the lower bounds (`lower_bound_ratio`); their amplitudes are
chosen so the finite prefixes here extend to summable sequences.  The
functions here return what they measure; `modpoisson.suites` judges it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gegenbauer
from .data import BoundaryData, Support, _require_finite
from .errors import ConstructionError, DomainError
from .geometry import HalfSpacePoint, cos_theta_prime_array, row_norms
from .kernels import KernelParams, kernel_K, kernel_KM_direct
from .quadrature import QuadratureSpec, integral_F

__all__ = [
    "SharpnessConstants",
    "compute_constants",
    "phi_band_minimum",
    "km_cone_minimum",
    "data_half_balls",
    "data_balls_super_extension",
    "lower_bound_ratio",
    "balanced_sign_integral",
]


@dataclass(frozen=True)
class SharpnessConstants:
    """Constants of the sign analysis for one (lam, M) pair.

    beta1: smallest positive root of the consecutive Gegenbauer pair (1 when
    none exists); gamma: the tail-domination threshold; r0: largest root of
    the quartic A^4 + (1-gamma) A^2 - 2; cone_ratio A strictly between 1 and
    min(2, r0, sec(pi/2M)); reflection_amp: the super-extension amplitude;
    theta0: polar angle guaranteeing the cone's angular product condition.
    """

    lam: float
    big_m: int
    beta1: float
    gamma: float
    r0: float
    cone_ratio: float
    reflection_amp: float
    theta0: float
    mu: int
    eps0: int

    @property
    def half_sign(self) -> int:
        """(-1)^(mu + eps0) = (-1)^ceil(M/2), the one-signed combination's sign."""
        return (-1) ** (self.mu + self.eps0)


def compute_constants(lam: float, big_m: int) -> SharpnessConstants:
    if lam <= 0:
        raise DomainError("lam must be positive")
    if big_m < 1:
        raise DomainError("the sharpness machinery starts at M = 1")
    mu, eps0 = divmod(big_m, 2)

    positive_roots = [r for r in gegenbauer.roots(lam, big_m) if r > 1e-13]
    positive_roots += [r for r in gegenbauer.roots(lam, big_m - 1) if r > 1e-13]
    beta1 = min(positive_roots) if positive_roots else 1.0

    gamma = sum(2.0**m * gegenbauer.value_at_one(lam, m) for m in range(big_m)) ** (-1.0 / lam)
    # largest root of A^4 + (1 - gamma) A^2 - 2 = 0, via the quadratic in A^2
    b = 1.0 - gamma
    r0 = math.sqrt((-b + math.sqrt(b * b + 8.0)) / 2.0)

    upper = min(2.0, r0)
    cos_half = math.cos(math.pi / (2.0 * big_m))
    if cos_half > 1e-12:
        upper = min(upper, 1.0 / cos_half)
    cone_ratio = 0.5 * (1.0 + upper)

    reflection_amp = _reflection_amplitude(lam, big_m, cone_ratio)

    theta0 = math.asin(math.sqrt(cone_ratio / (2.0 * cone_ratio - 1.0)))

    return SharpnessConstants(
        lam=lam,
        big_m=big_m,
        beta1=beta1,
        gamma=gamma,
        r0=r0,
        cone_ratio=cone_ratio,
        reflection_amp=reflection_amp,
        theta0=theta0,
        mu=mu,
        eps0=eps0,
    )


def _min_on_interval(lam: float, m: int, lo: float, hi: float) -> float:
    """Minimum of C_m^lam over [lo, hi] via its stationary points."""
    candidates = [lo, hi]
    if m >= 1:
        candidates += [r for r in gegenbauer.roots(lam + 1.0, m - 1) if lo < r < hi]
    return min(gegenbauer.value(lam, m, t) for t in candidates)


def _reflection_amplitude(lam: float, big_m: int, a_ratio: float) -> float:
    from scipy.special import binom

    base = ((a_ratio + 1.0) / (a_ratio - 1.0)) ** (2.0 * lam)
    cmin = _min_on_interval(lam, big_m - 1, 1.0 / a_ratio, 1.0)
    if cmin <= 0:
        raise ConstructionError("Gegenbauer factor must stay positive on the cone interval")
    alt = (8.0 * math.sqrt(2.0) * (big_m + 1.0) / (2.0 * lam + big_m - 1.0)
           * binom(2.0 * lam + big_m, big_m - 1) / cmin)
    return base * max(1.0, alt)


def _band_interval(constants: SharpnessConstants):
    """cos(theta') interval of the one-signed band.

    Even orders keep the positive side; odd orders need the mirrored side
    (the reflected band), so the leading Gegenbauer term keeps one sign.
    """
    b1 = constants.beta1
    if constants.big_m % 2 == 0:
        return b1 / 3.0, b1 / 2.0
    return -b1 / 2.0, -b1 / 3.0


def _far_cone_mask(constants: SharpnessConstants, x: HalfSpacePoint,
                   pts: np.ndarray) -> np.ndarray:
    """Points of the double cone's far parts at x: |y'| > 1,
    |cos(theta')| > A^(-1/2) and |x| / |y'| > A, with A the cone ratio;
    both halves of the cone, on either side of the origin, count."""
    norms = row_norms(pts)
    cosp = cos_theta_prime_array(x, pts, norms=norms)
    in_cone = (norms > 1.0) & (np.abs(cosp) > 1.0 / math.sqrt(constants.cone_ratio))
    return in_cone & (x.r / np.where(norms > 0, norms, np.inf) > constants.cone_ratio)


# draws per sampled sign measurement
_SAMPLES = 10_000


def phi_band_minimum(lam: float, big_m: int, seed: int = 42,
                     control: bool = False) -> float:
    """Sampled minimum of the signed Gegenbauer combination over the band's
    parameters.

    Draws _SAMPLES tuples (theta, cos(theta') in the band, zeta in [0,1], s
    in [0,10]); the band is one-signed when the minimum is strictly
    positive.  With control=True the directions are drawn outside the band
    (near the projection axis), where sign changes must appear.
    """
    constants = compute_constants(lam, big_m)
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, math.pi / 2.0, _SAMPLES)
    if control:
        cosp = rng.uniform(0.95, 1.0, _SAMPLES)
    else:
        lo, hi = _band_interval(constants)
        cosp = rng.uniform(lo, hi, _SAMPLES)
    zeta = rng.uniform(0.0, 1.0, _SAMPLES)
    s = rng.uniform(0.0, 10.0, _SAMPLES)
    theta_big = np.sin(theta) * cosp
    signed = constants.half_sign * gegenbauer.phi_minus(lam, big_m, theta_big, s * zeta)
    return float(np.min(signed))


def km_cone_minimum(lam: float, big_m: int, x: HalfSpacePoint, seed: int = 42) -> float:
    """Sampled minimum of K_M / (K s^M) over _SAMPLES points of the
    near-contact cone portion.

    The reference point must satisfy sin(theta) >= sin(theta0); the ratio is
    the kernel's integral factor, which stays positive on the closed region.
    M < 1 has no cone and raises DomainError from `compute_constants`.
    """
    constants = compute_constants(lam, big_m)
    if x.sin_theta < math.sin(constants.theta0) - 1e-12:
        raise DomainError(
            f"reference point needs sin(theta) >= {math.sin(constants.theta0):.6f}"
        )
    a = constants.cone_ratio
    rng = np.random.default_rng(seed)
    s = rng.uniform(1.0 / a + 1e-9, a - 1e-9, _SAMPLES)
    cosp = rng.uniform(1.0 / math.sqrt(a) + 1e-9, 1.0, _SAMPLES)
    dim = x.n - 1
    perp = rng.normal(size=(_SAMPLES, dim))
    perp -= np.outer(perp @ x.y_hat, x.y_hat)
    norms = row_norms(perp)
    norms[norms == 0] = 1.0
    perp /= norms[:, None]
    sinp = np.sqrt(1.0 - cosp * cosp)
    directions = cosp[:, None] * x.y_hat[None, :] + sinp[:, None] * perp
    pts = (x.r / s)[:, None] * directions
    params = KernelParams(lam, big_m)
    ratio = kernel_KM_direct(params, x, pts) / (kernel_K(lam, x, pts) * s**big_m)
    return float(np.min(ratio))


# ---------------------------------------------------------------------------
# data constructions


def data_half_balls(n: int, psi_values, centers, lam: float, big_m: int) -> BoundaryData:
    """Data supported on unit half balls along the second boundary axis.

    On each ball the profile is (1 - distance) * |y_1'| restricted to the
    half where (-1)^M y_1' >= 0, carrying the overall sign (-1)^(mu+eps0);
    amplitudes are psi_i |c_i|^(2 lam) (the proof's scaling with its
    existential constant normalized to one).
    """
    if n < 3:
        raise ConstructionError("half-ball construction needs a second boundary axis")
    centers = [float(c) for c in centers]
    psi_values = [float(p) for p in psi_values]
    _require_finite("half-ball centers and amplitudes", *centers, *psi_values)
    if len(centers) != len(psi_values):
        raise ConstructionError("need one amplitude per center")
    if not centers or centers[0] < 2.0:
        raise ConstructionError("centers must start at 2 or beyond")
    if any(b - a < 2.0 for a, b in zip(centers[:-1], centers[1:])):
        raise ConstructionError("unit balls must be disjoint (spacing >= 2)")
    constants = compute_constants(lam, big_m)
    sign = constants.half_sign
    half = (-1.0) ** big_m
    amps = [p * c ** (2.0 * lam) for p, c in zip(psi_values, centers)]

    e2 = np.zeros(n - 1)
    e2[1] = 1.0
    ball_list = tuple((c * e2, 1.0) for c in centers)

    def evaluator(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.zeros(pts.shape[:-1])
        first = pts[..., 0]
        for c, amp in zip(centers, amps):
            d = row_norms(pts - c * e2)
            mask = (d < 1.0) & (half * first >= 0.0)
            out += np.where(mask, sign * amp * (1.0 - d) * np.abs(first), 0.0)
        return out

    return BoundaryData(
        n=n,
        evaluator=evaluator,
        growth_exponent=0.0,
        support=Support("compact", balls=ball_list),
        name=f"half_balls(M={big_m})",
        amplitude=max(abs(a) for a in amps),
    )


def data_balls_super_extension(n: int, a_values, b_values, amplitudes,
                               lam: float, big_m: int) -> BoundaryData:
    """Data on balls along the first boundary axis with reflected partners.

    Each positive-side ball carries the cone profile amp * (1 - d / b); the
    mirrored ball carries (-1)^M * A_lam times it, the extension that makes
    the sign-indefinite part of the kernel integrate to a non-negative
    total.
    """
    a_values = [float(a) for a in a_values]
    b_values = [float(b) for b in b_values]
    amplitudes = [float(f) for f in amplitudes]
    _require_finite("ball centers, radii and amplitudes", *a_values, *b_values, *amplitudes)
    if not (len(a_values) == len(b_values) == len(amplitudes)):
        raise ConstructionError("need matching centers, radii and amplitudes")
    constants = compute_constants(lam, big_m)
    a_ratio = constants.cone_ratio
    for a, b in zip(a_values, b_values):
        if b > a / 2.0:
            raise ConstructionError("ball radii must satisfy b <= a / 2")
        if a - b <= 1.0:
            raise ConstructionError("balls must stay outside the unit ball")
        if (b / a) ** 2 >= 1.0 - 1.0 / a_ratio:
            raise ConstructionError("ball subtends too wide an angle for the cone")
        x_norm = math.hypot(a, b)
        if a - x_norm / a_ratio < b or a_ratio * x_norm - a < b:
            raise ConstructionError(
                "ball does not fit the near-contact cone portion at its own "
                "reference point; shrink b or adjust a"
            )
    if any(b2 < 3.0 * a1 for a1, b2 in zip(a_values[:-1], a_values[1:])):
        raise ConstructionError("centers must be 3-separated for disjointness")

    refl = (-1.0) ** big_m * constants.reflection_amp
    e1 = np.zeros(n - 1)
    e1[0] = 1.0
    balls = []
    for a, b in zip(a_values, b_values):
        balls += [(a * e1, b), (-a * e1, b)]

    def evaluator(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.zeros(pts.shape[:-1])
        for a, b, amp in zip(a_values, b_values, amplitudes):
            d = row_norms(pts - a * e1)
            out += np.where(d < b, amp * (1.0 - d / b), 0.0)
            d = row_norms(pts + a * e1)
            out += np.where(d < b, refl * amp * (1.0 - d / b), 0.0)
        return out

    return BoundaryData(
        n=n,
        evaluator=evaluator,
        growth_exponent=0.0,
        support=Support("compact", balls=tuple(balls)),
        name=f"super_balls(M={big_m})",
        amplitude=max(abs(f) for f in amplitudes) * max(1.0, abs(refl)),
    )


# quadrature tolerance of the sharpness integrals
_SPEC = QuadratureSpec(abs_tol=1e-8, rel_tol=1e-8)


def lower_bound_ratio(data: BoundaryData, lam: float, big_m: int,
                      x: HalfSpacePoint, scale: float) -> float:
    """Measured ratio of the signed F-integral to its predicted lower-bound
    scale; strictly positive ratios certify the construction."""
    return integral_F(KernelParams(lam, big_m), data, x, _SPEC) / scale


def balanced_sign_integral(data: BoundaryData, lam: float, big_m: int,
                           x: HalfSpacePoint) -> float:
    """Integral of f K_M over the far cone portions on both reflection sides:
    F of the data masked to the far cone, which lies outside the unit ball
    that F leaves out.

    The super extension is sized to make this non-negative even though the
    kernel's sign is unknown on the positive far side.
    """
    constants = compute_constants(lam, big_m)
    masked = data.scaled_by(lambda pts: _far_cone_mask(constants, x, pts))
    return integral_F(KernelParams(lam, big_m), masked, x, _SPEC)
