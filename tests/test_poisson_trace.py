"""An exact oracle in every dimension: Poisson-kernel traces.

The Poisson kernel of the half space forms a semigroup, P_a * P_b = P_(a+b)
(Stein & Weiss, Introduction to Fourier Analysis on Euclidean Spaces, ch. II),
so the trace f = P_a(., a) on the boundary has closed-form Dirichlet and
Neumann integrals: D[f](x) = P_a(x + a e_n) and N[f](x) its potential.  The
data are radial and global, so every solve here runs on the zonal rule.
"""

import itertools

import numpy as np
import pytest

from modpoisson.data import BoundaryData, Support
from modpoisson.errors import AccuracyError
from modpoisson.geometry import HalfSpacePoint, row_norms
from modpoisson.quadrature import QuadratureSpec, alpha_n, dirichlet_D, neumann_N


def poisson_trace(n: int, a: float) -> BoundaryData:
    """f(y') = alpha_n a (|y'|^2 + a^2)^(-n/2), the Poisson kernel at height a."""
    alpha = alpha_n(n)

    def evaluator(pts):
        rho = row_norms(pts)
        return alpha * a * (rho * rho + a * a) ** (-n / 2.0)

    return BoundaryData(n=n, evaluator=evaluator, growth_exponent=-float(n),
                        support=Support("global"), name=f"poisson_trace({a})",
                        amplitude=alpha * a ** (1 - n), radial_center=np.zeros(n - 1))


def _lifted_norm(x: HalfSpacePoint, a: float) -> float:
    """|x + a e_n|."""
    return float(np.hypot(x.r * x.sin_theta, x.x_n + a))


def exact_D(n: int, a: float, x: HalfSpacePoint) -> float:
    """D[f](x) = alpha_n (x_n + a) |x + a e_n|^(-n)."""
    return alpha_n(n) * (x.x_n + a) * _lifted_norm(x, a) ** -n


def exact_N(n: int, a: float, x: HalfSpacePoint) -> float:
    """N[f](x) = alpha_n / (n - 2) |x + a e_n|^(2-n); -d/dx_n of it is D[f]."""
    return alpha_n(n) / (n - 2) * _lifted_norm(x, a) ** (2 - n)


TOL = 1e-9
# x_n = 0.6 near the data's peak, and |x| of 51-52 far from it
_POINTS = {
    "near": ([0.8, -0.5, 0.4, 0.3], 0.6),
    "far": ([40.0, 20.0, -10.0, 5.0], 25.0),
}


@pytest.mark.parametrize("where", sorted(_POINTS))
@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("a", [0.5, 2.0])
@pytest.mark.parametrize("solve, exact", [(dirichlet_D, exact_D), (neumann_N, exact_N)],
                         ids=["D", "N"])
def test_solve_meets_its_tolerance_against_the_closed_form(solve, exact, a, n, where):
    y, x_n = _POINTS[where]
    x = HalfSpacePoint.from_cartesian(y[:n - 1] + [x_n])
    want = exact(n, a, x)
    got = solve(poisson_trace(n, a), x, QuadratureSpec(abs_tol=TOL, rel_tol=TOL))
    assert abs(got - want) <= max(TOL, TOL * abs(want))


def _misses(solve, exact, n, a, x, tol):
    """[] when the solve returns within abs-or-rel tol of the closed form,
    else the case (a, |y|, x_n, tol) with its relative error or the error
    it raised."""
    want = exact(n, a, x)
    try:
        got = solve(poisson_trace(n, a), x, QuadratureSpec(abs_tol=tol, rel_tol=tol))
    except AccuracyError as err:
        return [(a, x.r * x.sin_theta, x.x_n, tol, str(err))]
    if abs(got - want) > max(tol, tol * abs(want)):
        return [(a, x.r * x.sin_theta, x.x_n, tol, abs(got - want) / abs(want))]
    return []


# widths from sharply peaked to flat, heights from near the boundary to the
# data's scale, and projections from the axis to past the widest peak,
# along one direction off every coordinate axis
_WIDTHS = (0.05, 0.5, 2.0)
_HEIGHTS = (1e-3, 0.05, 0.6)
_OFFSETS = (0.0, 0.02, 0.1, 1.0, 3.0)
_DIRECTION = np.array([0.6, -0.48, 0.48, 0.4224])


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("solve, exact", [(dirichlet_D, exact_D), (neumann_N, exact_N)],
                         ids=["D", "N"])
def test_sweep_meets_every_tolerance_against_the_closed_form(solve, exact, n):
    direction = _DIRECTION[:n - 1] / np.linalg.norm(_DIRECTION[:n - 1])
    misses = []
    for a, x_n, offset, tol in itertools.product(_WIDTHS, _HEIGHTS, _OFFSETS,
                                                 (1e-6, 1e-9, 1e-12)):
        x = HalfSpacePoint.from_cartesian(list(offset * direction) + [x_n])
        misses += _misses(solve, exact, n, a, x, tol)
    assert not misses


# near-boundary cases that once missed by 2e-8 to 3.7e-6 relative at 1e-9,
# with estimates near 1e-13, and raised or missed at 1e-12: n = 4 and 5 then
# had a lower angular order than n = 3, which held a narrow polar panel at
# 6 nodes over the first levels, so those levels compared a rule with itself
_NARROW_PANEL_CASES = {
    "n4-D-y0.02": (dirichlet_D, exact_D, 0.05, [0.02, 0.0, 0.0, 1e-3]),
    "n4-N-y0.02": (neumann_N, exact_N, 0.05, [0.02, 0.0, 0.0, 1e-3]),
    "n4-N-y0.1": (neumann_N, exact_N, 0.05, [0.1, 0.0, 0.0, 1e-3]),
    "n5-D-axis": (dirichlet_D, exact_D, 0.5, [1.08, 0.0, 0.0, 0.0, 0.2]),
    "n5-D-oblique": (dirichlet_D, exact_D, 0.5, [1.0, 0.2, 0.2, 0.2, 0.05]),
}


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
@pytest.mark.parametrize("case", sorted(_NARROW_PANEL_CASES))
def test_narrow_polar_panel_cases_meet_their_tolerance(case, tol):
    solve, exact, a, coords = _NARROW_PANEL_CASES[case]
    x = HalfSpacePoint.from_cartesian(coords)
    assert not _misses(solve, exact, len(coords), a, x, tol)


def test_oracle_is_self_consistent():
    # -d/dx_n N[f] = D[f], by central differences
    n, a, h = 4, 0.7, 1e-5
    x = HalfSpacePoint.from_cartesian([0.3, 0.2, 0.1, 0.9])
    up = HalfSpacePoint.from_cartesian([0.3, 0.2, 0.1, 0.9 + h])
    down = HalfSpacePoint.from_cartesian([0.3, 0.2, 0.1, 0.9 - h])
    slope = (exact_N(n, a, down) - exact_N(n, a, up)) / (2 * h)
    assert slope == pytest.approx(exact_D(n, a, x), rel=1e-8)
