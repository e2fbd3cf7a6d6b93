"""One-dimensional Gauss-Legendre quadrature with adaptive bisection."""

from __future__ import annotations

import functools

import numpy as np

from .errors import AccuracyError

__all__ = ["gauss_legendre", "adaptive"]


@functools.lru_cache(maxsize=None)
def gauss_legendre(npts: int):
    """Nodes and weights on [-1, 1], cached and shared by every caller, so
    both arrays are read-only."""
    x, w = np.polynomial.legendre.leggauss(npts)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


# nodes per panel and bisections per initial panel of `adaptive`
_NPTS = 15
_MAX_DEPTH = 48


def _panel(f, a: float, b: float) -> float:
    x, w = gauss_legendre(_NPTS)
    half = 0.5 * (b - a)
    nodes = a + half * (x + 1.0)
    return half * float(np.dot(w, f(nodes)))


def adaptive(f, edges, tol: float):
    """Adaptively bisected 15-point Gauss-Legendre over the initial panels
    `edges`.

    Returns (value, error_estimate).  Raises AccuracyError when a panel
    is bisected 48 times with its local budget unmet.
    """
    edges = np.asarray(edges, dtype=float)
    npanels = max(len(edges) - 1, 1)
    total = 0.0
    est = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        v, e = _adaptive_panel(f, a, b, _panel(f, a, b), tol / npanels, _MAX_DEPTH)
        total += v
        est += e
    return total, est


def _adaptive_panel(f, a, b, whole, tol, depth):
    mid = 0.5 * (a + b)
    left = _panel(f, a, mid)
    right = _panel(f, mid, b)
    err = abs(left + right - whole)
    # the roundoff floor stops recursion once the split test is pure noise
    floor = 4e-16 * (abs(left) + abs(right)) + 1e-300
    if err <= max(tol, floor) or b - a < 1e-15 * max(1.0, abs(a) + abs(b)):
        return left + right, err
    if depth <= 0:
        raise AccuracyError(
            f"adaptive quadrature stalled on [{a}, {b}] with estimate {err:.3e}",
            value=left + right,
            estimate=err,
            tolerance=tol,
        )
    vl, el = _adaptive_panel(f, a, mid, left, tol / 2, depth - 1)
    vr, er = _adaptive_panel(f, mid, b, right, tol / 2, depth - 1)
    return vl + vr, el + er
