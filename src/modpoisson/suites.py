"""Named verification suites: batches of checks behind the CLI.

Each suite returns a list of CheckReports (sorted by name, so aggregation
is deterministic under any execution order).  Sampling checks thread an
explicit seed.
"""

from __future__ import annotations

import math

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
from .kernels import KernelParams, kernel_KM_direct, kernel_KM_integral
from .quadrature import QuadratureSpec, integral_F, integral_F_second, solution_u, solution_v
from .sharpness import (
    compute_constants,
    data_balls_super_extension,
    data_half_balls,
    lower_bound_report,
    reference_point,
    sign_check_km_cone,
    sign_check_phi,
)
from .verification import (
    CheckReport,
    check_boundary,
    check_harmonicity,
    check_kernel_identity,
    check_neumann_representation,
    growth_sweep,
)

__all__ = ["SUITES", "run_suite", "suite_names"]


def _report(name, residual, tol, parameters=None) -> CheckReport:
    return CheckReport(name=name, parameters=parameters or {}, residual=float(residual),
                       tolerance=tol)


def _point_realizing(s, theta_big, r=2.0, n=3, sin_theta=0.95):
    theta = math.asin(sin_theta)
    x = HalfSpacePoint(n=n, r=r, theta=theta)
    cosp = theta_big / sin_theta
    direction = np.zeros(n - 1)
    direction[0] = cosp
    direction[1] = math.sqrt(max(0.0, 1.0 - cosp * cosp))
    return x, (r / s) * direction


def suite_gegenbauer(seed: int = 42) -> list[CheckReport]:
    grid = np.linspace(-1.0, 1.0, 101)
    lambdas = [0.5, 1.0, 1.5, 2.5]
    reports = []

    worst = 0.0
    for lam in lambdas:
        for z in (-0.6, -0.3, 0.3, 0.6):
            lhs = gg.weighted_sum(lam, 200, grid, z)
            rhs = gg.generating_closed_form(lam, grid, z)
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.abs(rhs))))
    reports.append(_report("gegenbauer_generating_oracle", worst, 1e-8))

    worst = 0.0
    for lam in lambdas:
        for m in range(13):
            diff = gg.value(lam, m, -grid) - (-1.0) ** m * gg.value(lam, m, grid)
            worst = max(worst, float(np.max(np.abs(diff))))
    reports.append(_report("gegenbauer_parity", worst, 1e-10))

    worst = 0.0
    for lam in lambdas:
        for m in range(13):
            excess = np.max(np.abs(gg.value(lam, m, grid))) - gg.value_at_one(lam, m)
            worst = max(worst, float(excess))
    reports.append(_report("gegenbauer_majorisation", worst, 1e-10))

    worst = 0.0
    for lam in lambdas:
        for m in range(1, 13):
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
            worst = max(worst, float(np.max(np.abs([r1, r2, r3]))))
    reports.append(_report("gegenbauer_contiguous_identities", worst, 1e-10))

    return sorted(reports, key=lambda r: r.name)


def suite_kernels(seed: int = 42) -> list[CheckReport]:
    reports = []
    worst = 0.0
    for lam in (0.25, 0.5, 1.0, 1.5, 2.5):
        for big_m in (1, 2, 3):
            params = KernelParams(lam, big_m)
            for s in (0.1, 0.9, 1.0, 1.1, 3.0):
                for tb in (-0.9, 0.0, 0.9):
                    x, yp = _point_realizing(s, tb)
                    direct = kernel_KM_direct(params, x, yp)
                    integral = kernel_KM_integral(params, x, yp, tol=1e-10)
                    worst = max(worst, abs(direct - integral))
    reports.append(_report("kernel_dual_definition", worst, 1e-8))

    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(2000):
        x = HalfSpacePoint(n=3, r=rng.uniform(0.2, 3.0), theta=rng.uniform(0.0, 1.5),
                           y_hat=np.array([1.0, 0.0]))
        yp = rng.normal(size=2) * rng.uniform(0.2, 5.0)
        if np.linalg.norm(yp) < 1e-2:
            continue
        from .kernels import kernel_bound_first

        for big_m in (1, 2, 3):
            params = KernelParams(1.5, big_m)
            excess = abs(kernel_KM_direct(params, x, yp)) - kernel_bound_first(params, x, yp)
            worst = max(worst, excess)
    reports.append(_report("kernel_majorant", max(worst, 0.0), 1e-12))
    return sorted(reports, key=lambda r: r.name)


def suite_kernel_identities(seed: int = 42) -> list[CheckReport]:
    rng = np.random.default_rng(seed)
    reports = []
    for identity in ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii"):
        worst = 0.0
        for lam in (0.5, 1.5):
            for big_m in range(4):
                for _ in range(50):
                    x = HalfSpacePoint(
                        n=3,
                        r=rng.uniform(0.5, 3.0),
                        theta=rng.uniform(0.15, 1.35),
                        y_hat=_unit(rng, 2),
                    )
                    yp = _unit(rng, 2) * rng.uniform(1.0, 4.0)
                    if np.linalg.norm(yp - x.y) ** 2 + x.x_n**2 < 0.25:
                        continue
                    rep = check_kernel_identity(identity, lam, big_m, x, yp, h=1e-4, tol=1e-6)
                    worst = max(worst, rep.residual)
        reports.append(_report(f"kernel_identity_{identity}", worst, 1e-6))
    return sorted(reports, key=lambda r: r.name)


def _unit(rng, k):
    v = rng.normal(size=k)
    return v / np.linalg.norm(v)


def suite_neumann_representations(seed: int = 42) -> list[CheckReport]:
    data = shell_bump(3, 2.0, 3.0)
    spec = QuadratureSpec()
    x = HalfSpacePoint(n=3, r=1.5, theta=0.7, y_hat=np.array([1.0, 0.0]))
    anchors = {
        "i": x.theta / 2.0,
        "ii": x.r / 2.0,
        "iii": x.y[0] - 0.5,
        "iv": (x.r * x.sin_theta) / 2.0,
        "v": 2.0 * x.x_n,
    }
    reports = []
    for representation, anchor in anchors.items():
        worst = 0.0
        for big_m in (1, 2):
            rep = check_neumann_representation(representation, data, big_m, x, anchor, spec, tol=1e-5)
            worst = max(worst, rep.residual)
        reports.append(_report(f"neumann_representation_{representation}", worst, 1e-5))
    return sorted(reports, key=lambda r: r.name)


def suite_growth(seed: int = 42) -> list[CheckReport]:
    thetas = [0.0, 0.3, 0.6, 0.9, 1.2, 1.45]
    spec = QuadratureSpec()
    reports = []

    f = shell_bump(3, 2.0, 3.0)
    lam, big_m = 0.5, 1
    params = KernelParams(lam, big_m)
    reports.append(growth_sweep(
        lambda x: integral_F(params, f, x, spec),
        radii=[24, 48, 96, 192], thetas=thetas,
        weight_exponent=2 * lam, radial_exponent=big_m,
        name="growth_modified_integral", parameters={"n": 3, "lam": lam, "M": big_m}, n=3,
    ))

    big_m_u = 1
    reports.append(growth_sweep(
        lambda x: solution_u(f, big_m_u, x, spec),
        radii=[24, 48, 96, 192], thetas=thetas,
        weight_exponent=3 - 1, radial_exponent=big_m_u + 1,
        name="growth_dirichlet_solution", parameters={"n": 3, "M": big_m_u}, n=3,
    ))

    reports.append(growth_sweep(
        lambda x: solution_v(f, big_m_u, x, spec),
        radii=[24, 48, 96, 192], thetas=thetas,
        weight_exponent=3 - 2, radial_exponent=big_m_u,
        name="growth_neumann_solution", parameters={"n": 3, "M": big_m_u}, n=3,
    ))

    g = exp_decay(3)
    lam2, big_m2 = 1.5, 2
    params2 = KernelParams(lam2, big_m2, "second")
    reports.append(growth_sweep(
        lambda x: integral_F_second(params2, g, x, spec),
        radii=[8, 16, 32, 64], thetas=thetas,
        weight_exponent=2 * lam2, radial_exponent=-(big_m2 + 2 * lam2 - 1),
        name="growth_second_kind", parameters={"n": 3, "lam": lam2, "M": big_m2}, n=3,
    ))
    return sorted(reports, key=lambda r: r.name)


def suite_sharpness(seed: int = 42) -> list[CheckReport]:
    reports = []

    worst = 0.0
    for lam in (0.5, 1.0, 1.5, 2.5):
        for big_m in (1, 2, 3, 4):
            c = compute_constants(lam, big_m)
            gamma = sum(2.0**m * gg.value_at_one(lam, m) for m in range(big_m)) ** (-1.0 / lam)
            worst = max(worst, abs(c.gamma - gamma))
            worst = max(worst, abs(c.r0**4 + (1 - c.gamma) * c.r0**2 - 2.0))
            base = ((c.cone_ratio + 1) / (c.cone_ratio - 1)) ** (2 * lam)
            worst = max(worst, max(0.0, base - c.reflection_amp))
            if big_m == 1:
                worst = max(worst, abs(c.beta1 - 1.0))
    reports.append(_report("sharpness_constants", worst, 1e-10))

    min_pass = np.inf
    for lam in (0.5, 1.0, 1.5, 2.5):
        for big_m in (1, 2, 3, 4):
            rep = sign_check_phi(lam, big_m, samples=10_000, seed=seed)
            min_pass = min(min_pass, rep.min_value)
    reports.append(_report("sharpness_band_sign", 0.0 if min_pass > 0 else np.inf, 0.5,
                           {"min_value": float(min_pass)}))

    control = sign_check_phi(1.5, 1, samples=10_000, seed=seed, control=True)
    reports.append(_report("sharpness_band_sign_control",
                           0.0 if control.min_value < 0 else np.inf, 0.5,
                           {"min_value": control.min_value}))

    min_pass = np.inf
    for n in (3, 4):
        for lam in (n / 2.0, (n - 2) / 2.0):
            for big_m in (1, 2):
                theta = max(1.45, compute_constants(lam, big_m).theta0 + 0.01)
                x = reference_point(n, 12.0, theta)
                rep = sign_check_km_cone(lam, big_m, x, samples=10_000, seed=seed)
                min_pass = min(min_pass, rep.min_value)
    reports.append(_report("sharpness_cone_sign", 0.0 if min_pass > 0 else np.inf, 0.5,
                           {"min_value": float(min_pass)}))

    lam, big_m = 0.5, 1
    half = data_half_balls(3, [1.0, 1.0], [4.0, 16.0], lam, big_m)
    ratios = []
    for c in (4.0, 16.0):
        x = reference_point(3, c, 0.3)
        rec = lower_bound_report(half, lam, big_m, x, scale=1.0)
        ratios.append(rec["ratio"])
    reports.append(_report("sharpness_half_ball_lower_bound",
                           0.0 if min(ratios) > 0 else np.inf, 0.5,
                           {"ratios": ratios}))

    lam2, big_m2 = 1.5, 1
    balls = data_balls_super_extension(3, [20.0, 60.0], [1.5, 4.5], [1.0, 1.0], lam2, big_m2)
    ratios = []
    for a, b in ((20.0, 1.5), (60.0, 4.5)):
        x = HalfSpacePoint.from_cartesian([a, 0.0, b])
        rec = lower_bound_report(balls, lam2, big_m2, x, scale=b ** (3 - 1 - 2 * lam2))
        ratios.append(rec["ratio"])
    reports.append(_report("sharpness_super_ball_lower_bound",
                           0.0 if min(ratios) > 0 else np.inf, 0.5,
                           {"ratios": ratios}))
    return sorted(reports, key=lambda r: r.name)


def suite_expansion(seed: int = 42) -> list[CheckReport]:
    reports = []
    f3 = exp_decay(3)

    closed = exp_data_neumann_coefficient(3, 0, 0.7)
    quad = coefficient_Y1(0, f3, 0.7)
    reports.append(_report("expansion_leading_coefficient",
                           abs(quad - closed) / abs(closed), 1e-5))

    odd = abs(coefficient_Y1(1, f3, 0.6))
    reports.append(_report("expansion_odd_coefficient", odd, 1e-8))

    worst = 0.0
    for m in range(4):
        direct = coefficient_Y0(m, f3, 0.8)
        reassembled = addition_separation(3, m, 0.8, None, f3)
        worst = max(worst, abs(direct - reassembled))
    reports.append(_report("expansion_addition_reassembly", worst, 1e-8))

    worst = 0.0
    ts = np.linspace(-1.0, 1.0, 21)
    for m in (2, 3, 4):
        for theta in (0.3, 0.8, 1.3):
            lhs = gg.value(1.5, m, math.sin(theta) * ts)
            rhs = sum(
                gamma_addition(3, m, ell, theta) * gg.value(1.0, m - 2 * ell, ts)
                for ell in range(m // 2 + 1)
            )
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    reports.append(_report("expansion_addition_pointwise", worst, 1e-10))

    worst_ratio = 0.0
    for big_m in (1, 2):
        exp = AsymptoticExpansion("neumann", f3, big_m, QuadratureSpec())
        weighted = [abs(exp.remainder(HalfSpacePoint(n=3, r=r, theta=0.0))) * r**big_m
                    for r in (20.0, 40.0, 80.0)]
        worst_ratio = max(worst_ratio, weighted[1] / weighted[0], weighted[2] / weighted[1])
    reports.append(_report("expansion_remainder_decay", worst_ratio, 1.0))

    terms = divergence_demo(3, 10.0, 0.0, 14)
    ratios = terms[1:] / terms[:-1]
    k_star = next((i for i, rho in enumerate(ratios) if rho > 1), None)
    ok = k_star is not None and np.all(ratios[k_star:k_star + 5] > 1)
    reports.append(_report("expansion_divergence", 0.0 if ok else np.inf, 0.5,
                           {"k_star": k_star}))
    return sorted(reports, key=lambda r: r.name)


def suite_harmonicity(seed: int = 42) -> list[CheckReport]:
    rng = np.random.default_rng(seed)
    reports = []
    worst = 0.0
    for n in (2, 3, 4):
        families = [("dirichlet", m) for m in range(7)]
        if n >= 3:
            families += [("neumann", m) for m in range(7)]
        for family, m in families:
            term = HarmonicFamilyTerm(family, m, n)
            fn = lambda p: harmonic_term(term, p)
            direction = rng.normal(size=n)
            direction[-1] = abs(direction[-1]) + 0.25
            direction /= np.linalg.norm(direction)
            radius = rng.uniform(1.5, 2.5)
            dirs = rng.normal(size=(24, n))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            scale = max(abs(fn(radius * d)) for d in dirs)
            rep = check_harmonicity(fn, [radius * direction], h=1.2e-4, tol=1e-6,
                                    name="harmonic_families", scale=scale)
            worst = max(worst, rep.residual)
    reports.append(_report("harmonicity_polynomial_families", worst, 1e-6))

    f = bump(3, center=[2.0, 0.0], radius=1.0)
    spec = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10)
    worst = 0.0
    for big_m in (0, 1, 2):
        pts = []
        while len(pts) < 3:
            p = rng.normal(size=3) * 1.2
            p[-1] = abs(p[-1]) + 0.6
            if np.linalg.norm(p[:2] - np.array([2.0, 0.0])) > 1.8:
                pts.append(p)
        for fn, label in ((lambda p: solution_u(f, big_m, HalfSpacePoint.from_cartesian(p), spec), "u"),
                          (lambda p: solution_v(f, big_m, HalfSpacePoint.from_cartesian(p), spec), "v")):
            rep = check_harmonicity(fn, pts, h=5e-3, tol=1e-4, name=f"solution_{label}")
            worst = max(worst, rep.residual)
    reports.append(_report("harmonicity_solutions", worst, 1e-4))

    fb = bump(3, radius=8.0)
    rep_d = check_boundary("dirichlet", fb, [0.0, 0.0], [0.1, 0.01, 0.001], tol=1e-3)
    reports.append(_report("boundary_dirichlet", rep_d.residual, 1e-3, rep_d.parameters))
    rep_n = check_boundary("neumann", fb, [0.0, 0.0], [0.1, 0.01], tol=5e-3)
    reports.append(_report("boundary_neumann", rep_n.residual, 5e-3, rep_n.parameters))
    return sorted(reports, key=lambda r: r.name)


SUITES = {
    "gegenbauer": suite_gegenbauer,
    "kernels": suite_kernels,
    "harmonicity": suite_harmonicity,
    "prop31": suite_kernel_identities,
    "prop32": suite_neumann_representations,
    "growth": suite_growth,
    "sharpness": suite_sharpness,
    "expansion": suite_expansion,
}


def suite_names() -> list[str]:
    return sorted(SUITES) + ["all"]


def run_suite(name: str, seed: int = 42) -> list[CheckReport]:
    if name == "all":
        reports = []
        for key in sorted(SUITES):
            reports.extend(SUITES[key](seed))
        return reports
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choices: {suite_names()}")
    return SUITES[name](seed)
