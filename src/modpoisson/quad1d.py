"""The package's one-dimensional quadrature layer, on numpy alone.

`panels` puts a Gauss-Legendre rule on every panel between successive
edges, `graded_edges` grades edges toward a point, and `refine` is the one
refinement loop: it compares the values of successive levels of a rule and
stops when two agree to the tolerance.  The boundary integrals, the radial
and polar factors of their grids, the smooth profile's mass, the integral
representations' path integral and the integral form of the first-kind
kernel all take their rules and their stopping test from here.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import AccuracyError

__all__ = ["panels", "graded_edges", "refine"]


@functools.lru_cache(maxsize=None)
def _gauss_legendre(npts: int):
    """Nodes and weights on [-1, 1], cached and shared by every caller, so
    both arrays are read-only."""
    x, w = np.polynomial.legendre.leggauss(npts)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def panels(edges, npts: int):
    """npts-point Gauss-Legendre nodes and weights on every panel between
    successive edges along the last axis (one row of edges per ray, or one
    for all), each of shape (*edges.shape[:-1], panels * npts)."""
    x, w = _gauss_legendre(npts)
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges, axis=-1)[..., None]
    shape = (*edges.shape[:-1], -1)
    return (edges[..., :-1, None] + half * (x + 1.0)).reshape(shape), (half * w).reshape(shape)


def graded_edges(center: float, scale: float, lo: float, hi: float) -> list[float]:
    """Dyadic edges accumulating at `center` from distance `scale` outward."""
    edges = []
    dist = scale
    while dist < (hi - lo):
        for side in (center - dist, center + dist):
            if lo < side < hi:
                edges.append(side)
        dist *= 4.0
    if lo < center < hi:
        edges.append(center)
    return edges


# refinement levels of `refine` before it gives up
_LEVELS = 5


def refine(value_at, abs_tol: float, rel_tol: float):
    """(value, estimate) of the first level k = 1, 2, ... whose value L(k) =
    value_at(k) meets |L(k) - L(k-1)| <= max(abs_tol, rel_tol |L(k)|); the
    estimate is that difference.  Raises AccuracyError, carrying the last
    value, its estimate and the levels run, when levels 0-4 never settle.
    """
    prev = None
    est = math.inf
    for level in range(_LEVELS):
        cur = value_at(level)
        if prev is not None:
            est = abs(cur - prev)
            if est <= max(abs_tol, rel_tol * abs(cur)):
                return cur, est
        prev = cur
    raise AccuracyError(
        f"quadrature stalled with estimate {est:.3e} after {_LEVELS} levels",
        value=prev,
        estimate=est,
        tolerance=max(abs_tol, rel_tol * abs(prev)),
        levels=_LEVELS,
    )
