"""Gegenbauer (ultraspherical) polynomials C_m^lam and derived combinations.

Everything here is elementary polynomial machinery, but it is the substrate
of every kernel and expansion in the package: the three-term recurrence is
the production evaluator, its z-weighted partial sums are the kernels'
Gegenbauer tails, and the roots feed the sharpness constants.  The values
at 1 (the binomial binom(2 lam + m - 1, m)) and the roots (Golub-Welsch
nodes) come from `scipy.special`.  Every evaluator keeps its argument's
dtype (integers become float), so a complex argument carries its imaginary
part through, as complex-step differentiation needs.
"""

from __future__ import annotations

import numpy as np
from scipy.special import binom, roots_gegenbauer

from .errors import DomainError

__all__ = [
    "value",
    "value_at_one",
    "weighted_sum",
    "generating_closed_form",
    "roots",
    "phi_minus",
]


def _check_lambda(lam: float) -> None:
    if not lam > 0:
        raise DomainError(f"Gegenbauer superscript must be positive, got {lam}")


def _inexact(t) -> np.ndarray:
    """t as an array of its own float or complex dtype; integers become float."""
    t = np.asarray(t)
    return t if np.issubdtype(t.dtype, np.inexact) else t.astype(float)


def _maybe_scalar(out: np.ndarray):
    return out.item() if out.ndim == 0 else out


def value(lam: float, m: int, t):
    """Evaluate C_m^lam(t) by the forward three-term recurrence.

    Degrees m < 0 evaluate to the zero polynomial so kernel tail sums stay
    branch-free.  `t` may be a scalar or an ndarray; values outside [-1, 1]
    are permitted (polynomial extrapolation).
    """
    _check_lambda(lam)
    t = _inexact(t)
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

    The recurrence runs on t's own shape and the powers on z's; only the sum
    takes their broadcast shape.  A row of angles against a column of ratios
    thus costs one recurrence per angle, and each element gets the same
    arithmetic as on broadcast arrays.

    No convergence check: callers use this for finite kernel tails where
    z may exceed 1.
    """
    _check_lambda(lam)
    t, z = _inexact(t), _inexact(z)
    shape, dtype = np.broadcast_shapes(t.shape, z.shape), np.result_type(t, z)
    if terms <= 0:
        return np.zeros(shape, dtype)
    if terms == 1:
        return np.ones(shape, dtype)
    c_prev = np.ones_like(t)
    zp = z
    c = 2.0 * lam * t
    acc = 1.0 + zp * c
    for k in range(2, terms):
        c, c_prev = (2.0 * (k + lam - 1.0) * t * c - (k + 2.0 * lam - 2.0) * c_prev) / k, c
        zp = zp * z
        acc = acc + zp * c
    return acc


def value_at_one(lam: float, m: int) -> float:
    """C_m^lam(1) = binom(2*lam + m - 1, m)."""
    _check_lambda(lam)
    if m < 0:
        return 0.0
    return float(binom(2.0 * lam + m - 1.0, m))


def generating_closed_form(lam: float, t, z):
    """(1 - 2*t*z + z^2) ** (-lam), the closed-form side of the generating identity."""
    _check_lambda(lam)
    t, z = _inexact(t), _inexact(z)
    base = 1.0 - 2.0 * t * z + z * z
    return _maybe_scalar(base ** (-lam))


def roots(lam: float, m: int) -> np.ndarray:
    """All m simple roots of C_m^lam in (-1, 1), ascending: the nodes of
    m-point Gauss-Gegenbauer quadrature."""
    _check_lambda(lam)
    if m <= 0:
        return np.array([])
    return roots_gegenbauer(m, lam)[0]


def phi_minus(lam: float, big_m: int, big_theta, zeta):
    """M*C_M^lam(Theta) - (2*lam + M - 1)*C_{M-1}^lam(Theta)*zeta.

    The linear-in-zeta combination appearing in the integral form of the
    first-kind modified kernel.
    """
    _check_lambda(lam)
    if big_m < 1:
        raise DomainError("phi_minus requires M >= 1 (the M = 0 kernel bypasses it)")
    big_theta, zeta = _inexact(big_theta), _inexact(zeta)
    out = big_m * value(lam, big_m, big_theta) - (
        2.0 * lam + big_m - 1.0
    ) * value(lam, big_m - 1, big_theta) * zeta
    return _maybe_scalar(np.asarray(out))
