"""Gegenbauer (ultraspherical) polynomials C_m^lam and derived combinations.

Everything here is elementary polynomial machinery, but it is the substrate
of every kernel and expansion in the package: the three-term recurrence is
the production evaluator, its z-weighted partial sums are the kernels'
Gegenbauer tails, and the root finder feeds the sharpness constants.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from .errors import DomainError

__all__ = [
    "value",
    "value_at_one",
    "derivative",
    "weighted_sum",
    "generating_closed_form",
    "roots",
    "phi_minus",
]


def _check_lambda(lam: float) -> None:
    if not lam > 0:
        raise DomainError(f"Gegenbauer superscript must be positive, got {lam}")


def _maybe_scalar(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def value(lam: float, m: int, t):
    """Evaluate C_m^lam(t) by the forward three-term recurrence.

    Degrees m < 0 evaluate to the zero polynomial so kernel tail sums stay
    branch-free.  `t` may be a scalar or an ndarray; values outside [-1, 1]
    are permitted (polynomial extrapolation).
    """
    _check_lambda(lam)
    t = np.asarray(t, dtype=float)
    if m < 0:
        return _maybe_scalar(np.zeros_like(t))
    if m == 0:
        return _maybe_scalar(np.ones_like(t))
    c_prev = np.ones_like(t)
    c = 2.0 * lam * t
    for k in range(2, m + 1):
        c, c_prev = (2.0 * (k + lam - 1.0) * t * c - (k + 2.0 * lam - 2.0) * c_prev) / k, c
    return _maybe_scalar(c)


def weighted_sum(lam: float, terms: int, t, z) -> np.ndarray:
    """Partial sum over m < terms of z^m C_m^lam(t), broadcasting t and z.

    No convergence check: callers use this for finite kernel tails where
    z may exceed 1.
    """
    _check_lambda(lam)
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=float)
    t, z = np.broadcast_arrays(t, z)
    acc = np.zeros_like(t)
    if terms <= 0:
        return acc
    c_prev = np.ones_like(t)
    acc = acc + c_prev
    if terms == 1:
        return acc
    zp = z.copy()
    c = 2.0 * lam * t
    acc = acc + zp * c
    for k in range(2, terms):
        c, c_prev = (2.0 * (k + lam - 1.0) * t * c - (k + 2.0 * lam - 2.0) * c_prev) / k, c
        zp = zp * z
        acc = acc + zp * c
    return acc


def value_at_one(lam: float, m: int) -> float:
    """C_m^lam(1) = Gamma(2*lam+m) / (Gamma(2*lam) * Gamma(m+1)), via log-gamma."""
    _check_lambda(lam)
    if m < 0:
        return 0.0
    return float(np.exp(gammaln(2.0 * lam + m) - gammaln(2.0 * lam) - gammaln(m + 1.0)))


def derivative(lam: float, m: int, t):
    """d/dt C_m^lam(t) = 2*lam * C_{m-1}^{lam+1}(t); zero for m <= 0."""
    _check_lambda(lam)
    if m <= 0:
        t = np.asarray(t, dtype=float)
        return _maybe_scalar(np.zeros_like(t))
    return 2.0 * lam * value(lam + 1.0, m - 1, t)


def generating_closed_form(lam: float, t, z):
    """(1 - 2*t*z + z^2) ** (-lam), the closed-form side of the generating identity."""
    _check_lambda(lam)
    t = np.asarray(t, dtype=float)
    base = 1.0 - 2.0 * t * z + z * z
    return _maybe_scalar(base ** (-lam))


def roots(lam: float, m: int) -> np.ndarray:
    """All m simple roots of C_m^lam in (-1, 1), ascending.

    Brackets sign changes on a cosine-spaced grid of 8*m points and polishes
    by bisection plus Newton steps; simplicity of the zeros makes bracketing
    sufficient.
    """
    _check_lambda(lam)
    if m <= 0:
        return np.array([])
    npts = max(8 * m, 16)
    for attempt in range(3):
        grid = np.cos(np.linspace(np.pi, 0.0, npts * (4**attempt)))
        vals = value(lam, m, grid)
        sign_change = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        if len(sign_change) == m:
            break
    else:
        raise RuntimeError(f"failed to bracket {m} roots of C_{m}^{lam}")
    found = []
    for i in sign_change:
        a, b = grid[i], grid[i + 1]
        fa = value(lam, m, a)
        for _ in range(64):
            mid = 0.5 * (a + b)
            fm = value(lam, m, mid)
            if fa * fm <= 0:
                b = mid
            else:
                a, fa = mid, fm
            if b - a < 1e-15:
                break
        root = 0.5 * (a + b)
        for _ in range(4):
            d = derivative(lam, m, root)
            if d == 0:
                break
            step = value(lam, m, root) / d
            if abs(step) > (b - a) + 1e-12:
                break
            root -= step
        found.append(root)
    return np.array(sorted(found))


def phi_minus(lam: float, big_m: int, big_theta, zeta):
    """M*C_M^lam(Theta) - (2*lam + M - 1)*C_{M-1}^lam(Theta)*zeta.

    The linear-in-zeta combination appearing in the integral form of the
    first-kind modified kernel.
    """
    _check_lambda(lam)
    if big_m < 1:
        raise DomainError("phi_minus requires M >= 1 (the M = 0 kernel bypasses it)")
    big_theta = np.asarray(big_theta, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    out = big_m * value(lam, big_m, big_theta) - (
        2.0 * lam + big_m - 1.0
    ) * value(lam, big_m - 1, big_theta) * zeta
    return _maybe_scalar(np.asarray(out))
