"""Certification checks and the named suites that batch them.

Each check is one function `(seed) -> CheckReport`, named after the report
it returns, and is the only implementation of its criterion: `modpoisson
verify` runs it through `SUITES`, and the acceptance tests call it with the
seed and wall-time bound they pin.  The measurements it draws on
(`modpoisson.verification`, `modpoisson.sharpness`) return numbers; each
check here states its tolerance once and builds its one report.  The rules
that several checks share live here too: `strictly_below` for a residual
that must stay strictly under its bound, `settles` for a sequence that must
decrease, and the boundary and growth verdicts built on it.  A
sampling check draws from a fresh generator at `seed`, so its result does
not depend on what ran before it; checks without samples ignore the seed.
Where checks share one sample stream (the eight kernel identities; the
harmonic families and the solution points), each replays the draws of the
checks before it in that stream.  Each suite returns its reports sorted by
name, so aggregation is deterministic under any execution order.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import gegenbauer as gg
from .data import bump, exp_decay, shell_bump
from .expansions import (
    AsymptoticExpansion,
    HarmonicFamilyTerm,
    addition_separation,
    coefficient_Y0,
    coefficient_Y1,
    divergence_demo,
    exp_data_neumann_coefficient,
    gamma_addition,
    harmonic_term,
)
from .geometry import HalfSpacePoint
from .kernels import KernelParams, kernel_bound_first, kernel_KM_direct, kernel_KM_integral
from .quadrature import QuadratureSpec, integral_F, integral_F_second, solution_u, solution_v
from .sharpness import (
    balanced_sign_integral,
    compute_constants,
    data_balls_super_extension,
    data_half_balls,
    km_cone_minimum,
    lower_bound_ratio,
    phi_band_minimum,
)
from .verification import (
    CheckReport,
    check_boundary,
    growth_sweep,
    harmonicity_residual,
    kernel_identity_residual,
    neumann_representation_residual,
    worst,
)

__all__ = ["SUITES", "run_suite"]

KERNEL_IDENTITIES = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii")
NEUMANN_REPRESENTATIONS = ("i", "ii", "iii", "iv", "v")
_LAMBDAS = (0.5, 1.0, 1.5, 2.5)
_GRID = np.linspace(-1.0, 1.0, 101)


def strictly_below(name: str, residual: float, bound: float,
                   parameters: dict | None = None) -> CheckReport:
    """Report that passes only when residual < bound.

    Sign checks use it with bound 0 and residual minus the measured minimum,
    so a minimum of exactly 0.0 fails.  The tolerance is the largest float
    below the bound, and `parameters.strict_bound` holds the bound itself.
    """
    return CheckReport(name, residual, math.nextafter(bound, -math.inf),
                       {**(parameters or {}), "strict_bound": bound})


def settles(seq) -> bool:
    """Whether a sequence that should decrease does: each step at most 1.05
    times the one before."""
    return all(b <= a * 1.05 for a, b in zip(seq[:-1], seq[1:]))


def _unit(rng, k):
    v = rng.normal(size=k)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# Gegenbauer polynomials (criterion 1)


def gegenbauer_generating_oracle(seed: int = 42) -> CheckReport:
    errors = []
    for lam in _LAMBDAS:
        for z in (-0.6, -0.3, 0.25, 0.3, 0.6):
            lhs = gg.weighted_sum(lam, 200, _GRID, z)
            rhs = gg.generating_closed_form(lam, _GRID, z)
            errors.append(np.max(np.abs(lhs - rhs) / np.abs(rhs)))
    return CheckReport("gegenbauer_generating_oracle", worst(errors), 1e-8)


def gegenbauer_parity(seed: int = 42) -> CheckReport:
    return CheckReport("gegenbauer_parity", worst(
        np.max(np.abs(gg.value(lam, m, -_GRID) - (-1.0) ** m * gg.value(lam, m, _GRID)))
        for lam in _LAMBDAS for m in range(13)), 1e-10)


def gegenbauer_majorisation(seed: int = 42) -> CheckReport:
    return CheckReport("gegenbauer_majorisation", worst(
        np.max(np.abs(gg.value(lam, m, _GRID))) - gg.value_at_one(lam, m)
        for lam in _LAMBDAS for m in range(13)), 1e-10)


def gegenbauer_contiguous_identities(seed: int = 42) -> CheckReport:
    grid = _GRID
    residuals = []
    for lam in _LAMBDAS:
        for m in range(13):
            r1 = m * gg.value(lam, m, grid) - 2 * lam * (
                grid * gg.value(lam + 1, m - 1, grid) - gg.value(lam + 1, m - 2, grid)
            )
            r2 = (m + 2 * lam) * gg.value(lam, m, grid) - 2 * lam * (
                gg.value(lam + 1, m, grid) - grid * gg.value(lam + 1, m - 1, grid)
            )
            r3 = m * gg.value(lam, m, grid) - (
                (2 * lam + m - 1) * grid * gg.value(lam, m - 1, grid)
                - 2 * lam * (1 - grid**2) * gg.value(lam + 1, m - 2, grid)
            )
            residuals.append(np.max(np.abs([r1, r2, r3])))
    return CheckReport("gegenbauer_contiguous_identities", worst(residuals), 1e-10)


# ---------------------------------------------------------------------------
# kernels (criteria 2 and 5)


def _point_realizing(s, theta_big, r=2.0, n=3, sin_theta=0.95):
    theta = math.asin(sin_theta)
    x = HalfSpacePoint(n=n, r=r, theta=theta)
    cosp = theta_big / sin_theta
    direction = np.zeros(n - 1)
    direction[0] = cosp
    direction[1] = math.sqrt(max(0.0, 1.0 - cosp * cosp))
    return x, (r / s) * direction


def kernel_dual_definition(seed: int = 42) -> CheckReport:
    gaps = []
    for lam in (0.25, 0.4, 0.5, 1.0, 1.5, 2.5):
        for big_m in (1, 2, 3):
            params = KernelParams(lam, big_m)
            for s in (0.1, 0.9, 1.0, 1.1, 3.0):
                for tb in (-0.9, 0.0, 0.9):
                    x, yp = _point_realizing(s, tb)
                    direct = kernel_KM_direct(params, x, yp)
                    integral = kernel_KM_integral(params, x, yp)
                    gaps.append(abs(direct - integral))
    return CheckReport("kernel_dual_definition", worst(gaps), 1e-8)


def kernel_majorant(seed: int = 42) -> CheckReport:
    rng = np.random.default_rng(seed)
    excesses = []
    for _ in range(2000):
        x = HalfSpacePoint(n=3, r=rng.uniform(0.2, 3.0), theta=rng.uniform(0.0, 1.5),
                           y_hat=np.array([1.0, 0.0]))
        yp = rng.normal(size=2) * rng.uniform(0.2, 5.0)
        if np.linalg.norm(yp) < 1e-2:
            continue
        for big_m in (1, 2, 3):
            params = KernelParams(1.5, big_m)
            excesses.append(abs(kernel_KM_direct(params, x, yp))
                            - kernel_bound_first(params, x, yp))
    return CheckReport("kernel_majorant", worst(excesses), 1e-12)


def _identity_samples(identity, seed):
    """The (lam, M, x, y') samples of one kernel identity: 50 accepted draws
    per (lam, M), taken after those of the identities listed before it."""
    rng = np.random.default_rng(seed)
    for which in KERNEL_IDENTITIES[:KERNEL_IDENTITIES.index(identity) + 1]:
        for lam in (0.5, 1.5):
            for big_m in range(4):
                count = 0
                while count < 50:
                    x = HalfSpacePoint(n=3, r=rng.uniform(0.5, 3.0),
                                       theta=rng.uniform(0.15, 1.35), y_hat=_unit(rng, 2))
                    yp = _unit(rng, 2) * rng.uniform(1.0, 4.0)
                    if np.linalg.norm(yp - x.y) ** 2 + x.x_n**2 < 0.25:
                        continue
                    count += 1
                    if which == identity:
                        yield lam, big_m, x, yp


def kernel_identity(identity: str, seed: int = 42) -> CheckReport:
    return CheckReport(f"kernel_identity_{identity}", worst(
        kernel_identity_residual(identity, lam, big_m, x, yp)
        for lam, big_m, x, yp in _identity_samples(identity, seed)), 1e-6)


# ---------------------------------------------------------------------------
# harmonicity and boundary values (criteria 3 and 4)


def _harmonic_families(rng):
    """Each solid-harmonic family term with its stencil point and the sphere
    of 24 points whose sup normalises its residual, drawn in order."""
    for n in (2, 3, 4):
        families = [("dirichlet", m) for m in range(7)]
        if n >= 3:
            families += [("neumann", m) for m in range(7)]
        for family, m in families:
            direction = rng.normal(size=n)
            direction[-1] = abs(direction[-1]) + 0.25
            direction /= np.linalg.norm(direction)
            radius = rng.uniform(1.5, 2.5)
            dirs = rng.normal(size=(24, n))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            yield HarmonicFamilyTerm(family, m, n), radius * direction, radius * dirs


def harmonicity_polynomial_families(seed: int = 42) -> CheckReport:
    def residual(term, point, sphere):
        fn = partial(harmonic_term, term)
        return harmonicity_residual(fn, [point], h=1e-3, scale=worst(abs(fn(p)) for p in sphere))

    return CheckReport("harmonicity_polynomial_families", worst(
        residual(*sample) for sample in _harmonic_families(np.random.default_rng(seed))), 1e-6)


def harmonicity_solutions(seed: int = 42) -> CheckReport:
    """u and v of the kink-cut bump at ten points drawn after the family
    samples, split i::3 across M = 0, 1, 2."""
    rng = np.random.default_rng(seed)
    for _ in _harmonic_families(rng):
        pass
    points = []
    while len(points) < 10:
        p = rng.normal(size=3) * 1.2
        p[-1] = abs(p[-1]) + 0.6
        if np.linalg.norm(p[:2] - np.array([2.0, 0.0])) > 1.8:
            points.append(p)
    f = bump(3, center=[2.0, 0.0], radius=1.0)
    spec = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10)
    return CheckReport("harmonicity_solutions", worst(
        harmonicity_residual(
            lambda p: solution(f, big_m, HalfSpacePoint.from_cartesian(p), spec),
            points[i::3], h=5e-3)
        for solution in (solution_u, solution_v) for i, big_m in enumerate((0, 1, 2))), 1e-4)


def harmonicity_stencil_order(seed: int = 42) -> CheckReport:
    """The observed order of `harmonicity_residual`'s stencil: log2 of its worst
    residual at h = 4e-2 over that at 2e-2, on the harmonic non-polynomial
    field (x_n + 1) / |x - (0, 0, -1)|^3 at five seeded points.  The stencil
    is fourth order; the residual is minus the order, so it passes at an
    order of 3.5 or more."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(5):
        p = rng.normal(size=3)
        p[-1] = abs(p[-1]) + 0.5
        points.append(p)

    def field(p):
        d = p - np.array([0.0, 0.0, -1.0])
        return (p[-1] + 1.0) / float(d @ d) ** 1.5

    coarse, fine = (harmonicity_residual(field, points, h=h) for h in (4e-2, 2e-2))
    order = math.log2(coarse / fine)
    return CheckReport("harmonicity_stencil_order", -order, -3.5, {"order": order})


def boundary_report(problem, data, y, xn_sequence, tol) -> CheckReport:
    """The gaps of `check_boundary` along the heights xn_sequence must settle
    and end at most tol; the residual is the last gap, infinite when they do
    not settle."""
    gaps = check_boundary(problem, data, y, xn_sequence)
    decreasing = settles(gaps)
    return CheckReport(f"boundary_{problem}", gaps[-1] if decreasing else math.inf, tol,
                       {"y": list(y), "xn": list(xn_sequence), "gaps": gaps,
                        "decreasing": decreasing})


def boundary_dirichlet(seed: int = 42) -> CheckReport:
    return boundary_report("dirichlet", bump(3, radius=8.0), [0.0, 0.0], [0.1, 0.01, 0.001],
                           1e-3)


def boundary_neumann(seed: int = 42) -> CheckReport:
    return boundary_report("neumann", bump(3, radius=8.0), [0.0, 0.0], [0.1, 0.01], 5e-3)


# ---------------------------------------------------------------------------
# Neumann representations and growth (criteria 6 and 7)


def neumann_representation(representation: str, seed: int = 42) -> CheckReport:
    data = shell_bump(3, 2.0, 3.0)
    x = HalfSpacePoint(n=3, r=1.5, theta=0.7, y_hat=np.array([1.0, 0.0]))
    anchor = {
        "i": x.theta / 2.0,
        "ii": x.r / 2.0,
        "iii": x.y[0] - 0.5,
        "iv": (x.r * x.sin_theta) / 2.0,
        "v": 2.0 * x.x_n,
    }[representation]
    return CheckReport(f"neumann_representation_{representation}", worst(
        neumann_representation_residual(representation, data, big_m, x, anchor,
                                        QuadratureSpec()) for big_m in (1, 2)), 1e-5)


def growth_report(name, target, radii, weight_exponent, radial_exponent,
                  **parameters) -> CheckReport:
    """The weighted sequence of `growth_sweep` must settle after its first
    step and drop to at most 0.2 times its first value; the residual is the
    last value over the first, infinite when it does not settle (0 for an
    all-zero sequence)."""
    radii = list(radii)
    seq = growth_sweep(target, radii, weight_exponent, radial_exponent)
    if seq[0] == 0.0:
        residual = 0.0 if max(seq) == 0.0 else math.inf
    else:
        residual = seq[-1] / seq[0] if settles(seq[1:]) else math.inf
    return CheckReport(name, residual, 0.2,
                       {"n": 3, **parameters, "radii": radii, "weighted_sequence": seq})


def growth_modified_integral(seed: int = 42) -> CheckReport:
    f, spec, params = shell_bump(3, 2.0, 3.0), QuadratureSpec(), KernelParams(0.5, 1)
    return growth_report("growth_modified_integral", lambda x: integral_F(params, f, x, spec),
                         [24, 48, 96, 192], 2 * 0.5, 1, lam=0.5, M=1)


def growth_dirichlet_solution(seed: int = 42) -> CheckReport:
    f, spec = shell_bump(3, 2.0, 3.0), QuadratureSpec()
    return growth_report("growth_dirichlet_solution", lambda x: solution_u(f, 1, x, spec),
                         [24, 48, 96, 192], 2, 2, M=1)


def growth_neumann_solution(seed: int = 42) -> CheckReport:
    f, spec = shell_bump(3, 2.0, 3.0), QuadratureSpec()
    return growth_report("growth_neumann_solution", lambda x: solution_v(f, 1, x, spec),
                         [24, 48, 96, 192], 1, 1, M=1)


def growth_second_kind(seed: int = 42) -> CheckReport:
    g, spec, params = exp_decay(3), QuadratureSpec(), KernelParams(1.5, 2, "second")
    return growth_report("growth_second_kind", lambda x: integral_F_second(params, g, x, spec),
                         [8, 16, 32, 64], 2 * 1.5, -(2 + 2 * 1.5 - 1), lam=1.5, M=2)


# ---------------------------------------------------------------------------
# sharpness (criterion 8)


def sharpness_constants(seed: int = 42) -> CheckReport:
    """The constants against their defining relations; the residual is the
    largest error as a fraction of its bound.  At (lam, M) = (1/2, 1) they
    are known exactly: beta1 = 1 (no positive root), gamma = 1 and
    r0 = 2^(1/4).  gamma is summed with C_m^lam(1) from the three-term
    recurrence, independent of the binomial closed form that
    `compute_constants` uses.  The reflection amplitude is held to what it
    is for: the super extension it scales makes the far-cone integral of
    f K_M non-negative (it is about -2.6e-4 with the amplitude set to 0)."""
    c1 = compute_constants(0.5, 1)
    errors = [(abs(c1.gamma - 1.0), 1e-14), (abs(c1.r0 - 2.0**0.25), 1e-14)]
    for lam in _LAMBDAS:
        for big_m in (1, 2, 3, 4):
            c = compute_constants(lam, big_m)
            gamma = sum(2.0**m * gg.value(lam, m, 1.0) for m in range(big_m)) ** (-1.0 / lam)
            errors += [(abs(c.gamma - gamma), 1e-12),
                       (abs(c.r0**4 + (1 - c.gamma) * c.r0**2 - 2.0), 1e-10)]
            if big_m == 1:
                errors.append((abs(c.beta1 - 1.0), 1e-10))
    balls = data_balls_super_extension(3, [20.0, 60.0], [1.5, 4.5], [1.0, 1.0], 1.5, 1)
    x = HalfSpacePoint.from_cartesian([60.0, 0.0, 4.5])
    errors.append((worst([-balanced_sign_integral(balls, 1.5, 1, x)]), 1e-10))
    residual = worst(err / bound for err, bound in errors) if c1.beta1 == 1.0 else math.inf
    return CheckReport("sharpness_constants", residual, 1.0)


def _positive_minimum(name, minima) -> CheckReport:
    residual = worst((-low for low in minima), -math.inf)
    return strictly_below(name, residual, 0.0, {"min_value": -residual})


def sharpness_band_sign(seed: int = 42) -> CheckReport:
    return _positive_minimum("sharpness_band_sign",
                             [phi_band_minimum(lam, big_m, seed=seed)
                              for lam in _LAMBDAS for big_m in (1, 2, 3, 4)])


def sharpness_band_sign_control(seed: int = 42) -> CheckReport:
    """Outside the band the combination must change sign: passes when the
    sampled minimum is strictly negative."""
    low = phi_band_minimum(1.5, 1, seed=seed, control=True)
    return strictly_below("sharpness_band_sign_control", low, 0.0, {"min_value": low})


def sharpness_cone_sign(seed: int = 42) -> CheckReport:
    minima = []
    for n in (3, 4):
        for lam in (n / 2.0, (n - 2) / 2.0):
            for big_m in (1, 2):
                theta = max(1.45, compute_constants(lam, big_m).theta0 + 0.01)
                x = HalfSpacePoint(n=n, r=12.0, theta=theta)
                minima.append(km_cone_minimum(lam, big_m, x, seed=seed))
    return _positive_minimum("sharpness_cone_sign", minima)


def sharpness_half_ball_lower_bound(seed: int = 42) -> CheckReport:
    lam, big_m = 0.5, 1
    half = data_half_balls(3, [1.0, 1.0], [4.0, 16.0], lam, big_m)
    ratios = [lower_bound_ratio(half, lam, big_m, HalfSpacePoint(n=3, r=c, theta=0.3),
                                scale=1.0)
              for c in (4.0, 16.0)]
    return strictly_below("sharpness_half_ball_lower_bound",
                          worst((-r for r in ratios), -math.inf), 0.0, {"ratios": ratios})


def sharpness_super_ball_lower_bound(seed: int = 42) -> CheckReport:
    lam, big_m = 1.5, 1
    balls = data_balls_super_extension(3, [20.0, 60.0], [1.5, 4.5], [1.0, 1.0], lam, big_m)
    ratios = [lower_bound_ratio(balls, lam, big_m, HalfSpacePoint.from_cartesian([a, 0.0, b]),
                                scale=b ** (3 - 1 - 2 * lam))
              for a, b in ((20.0, 1.5), (60.0, 4.5))]
    return strictly_below("sharpness_super_ball_lower_bound",
                          worst((-r for r in ratios), -math.inf), 0.0, {"ratios": ratios})


# ---------------------------------------------------------------------------
# the exp(-|y|) expansion example and divergence (criteria 9 and 10)


def expansion_leading_coefficient(seed: int = 42) -> CheckReport:
    closed = exp_data_neumann_coefficient(3, 0, 0.7)
    quad = coefficient_Y1(0, exp_decay(3), 0.7)
    return CheckReport("expansion_leading_coefficient", abs(quad - closed) / abs(closed), 1e-5)


def expansion_odd_coefficient(seed: int = 42) -> CheckReport:
    return CheckReport("expansion_odd_coefficient", abs(coefficient_Y1(1, exp_decay(3), 0.6)),
                       1e-8)


def expansion_addition_reassembly(seed: int = 42) -> CheckReport:
    f3 = exp_decay(3)
    return CheckReport("expansion_addition_reassembly", worst(
        abs(coefficient_Y0(m, f3, 0.8) - addition_separation(m, f3, 0.8))
        for m in range(4)), 1e-8)


def expansion_addition_pointwise(seed: int = 42) -> CheckReport:
    gaps = []
    ts = np.linspace(-1.0, 1.0, 21)
    for m in (2, 3, 4):
        for theta in (0.3, 0.8, 1.3):
            lhs = gg.value(1.5, m, math.sin(theta) * ts)
            rhs = sum(
                gamma_addition(3, m, ell, theta) * gg.value(1.0, m - 2 * ell, ts)
                for ell in range(m // 2 + 1)
            )
            gaps.append(np.max(np.abs(lhs - rhs)))
    return CheckReport("expansion_addition_pointwise", worst(gaps), 1e-10)


def expansion_remainder_decay(seed: int = 42) -> CheckReport:
    """The largest ratio of r^M-weighted remainders at r = 20, 40, 80;
    below 1 means they decrease strictly."""
    f3 = exp_decay(3)
    ratios = []
    for big_m in (1, 2):
        exp = AsymptoticExpansion("neumann", f3, big_m, QuadratureSpec())
        weighted = [abs(exp.remainder(HalfSpacePoint(n=3, r=r, theta=0.0))) * r**big_m
                    for r in (20.0, 40.0, 80.0)]
        ratios += [weighted[1] / weighted[0], weighted[2] / weighted[1]]
    return strictly_below("expansion_remainder_decay", worst(ratios), 1.0)


def expansion_divergence(seed: int = 42) -> CheckReport:
    """From the turning order k* (the first step where the expansion terms
    grow) five successive steps must grow.  The residual is the largest
    term-to-next ratio over those steps, below 1 when they grow; it is
    infinite when no term grows or a term up to k = 20 is not finite."""
    terms = divergence_demo(3, 10.0, 0.0, 20)
    ratios = terms[1:] / terms[:-1]
    k_star = next((i for i, rho in enumerate(ratios) if rho > 1), None)
    if k_star is None or not np.all(np.isfinite(terms)):
        shrink = math.inf
    else:
        shrink = float(np.max(1.0 / ratios[k_star:k_star + 5]))
    return strictly_below("expansion_divergence", shrink, 1.0, {"k_star": k_star})


# ---------------------------------------------------------------------------
# suites


def _suite(*checks):
    def run(seed: int = 42) -> list[CheckReport]:
        return sorted((check(seed) for check in checks), key=lambda r: r.name)
    return run


SUITES = {
    "gegenbauer": _suite(gegenbauer_generating_oracle, gegenbauer_parity,
                         gegenbauer_majorisation, gegenbauer_contiguous_identities),
    "kernels": _suite(kernel_dual_definition, kernel_majorant),
    "harmonicity": _suite(harmonicity_polynomial_families, harmonicity_solutions,
                          harmonicity_stencil_order, boundary_dirichlet, boundary_neumann),
    "prop31": _suite(*(partial(kernel_identity, i) for i in KERNEL_IDENTITIES)),
    "prop32": _suite(*(partial(neumann_representation, r) for r in NEUMANN_REPRESENTATIONS)),
    "growth": _suite(growth_modified_integral, growth_dirichlet_solution,
                     growth_neumann_solution, growth_second_kind),
    "sharpness": _suite(sharpness_constants, sharpness_band_sign, sharpness_band_sign_control,
                        sharpness_cone_sign, sharpness_half_ball_lower_bound,
                        sharpness_super_ball_lower_bound),
    "expansion": _suite(expansion_leading_coefficient, expansion_odd_coefficient,
                        expansion_addition_reassembly, expansion_addition_pointwise,
                        expansion_remainder_decay, expansion_divergence),
}


def run_suite(name: str, seed: int = 42) -> list[CheckReport]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choices: {sorted(SUITES)}")
    return SUITES[name](seed)
