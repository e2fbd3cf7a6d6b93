"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single pass/fail line (run with -s to stream them);
together they are the exit gate for the package.
"""

import math
import time

import numpy as np

from modpoisson import gegenbauer as gg
from modpoisson.data import bump, exp_decay, shell_bump
from modpoisson.expansions import (
    AsymptoticExpansion,
    HarmonicFamilyTerm,
    addition_separation,
    coefficient_Y0,
    coefficient_Y1,
    divergence_demo,
    gamma_addition,
    harmonic_term,
)
from modpoisson.geometry import HalfSpacePoint
from modpoisson.kernels import KernelParams, kernel_KM_direct, kernel_KM_integral
from modpoisson.quadrature import (
    QuadratureSpec,
    integral_F,
    integral_F_second,
    solution_u,
    solution_v,
)
from modpoisson.sharpness import (
    compute_constants,
    data_balls_super_extension,
    data_half_balls,
    lower_bound_report,
    reference_point,
    sign_check_km_cone,
    sign_check_phi,
)
from modpoisson.verification import (
    check_boundary,
    check_harmonicity,
    check_kernel_identity,
    check_neumann_representation,
    growth_sweep,
    refinement_order,
)

RNG = np.random.default_rng(2024)


def report(criterion, passed, detail=""):
    line = f"{'PASS' if passed else 'FAIL'} [{criterion}] {detail}"
    print(line)
    assert passed, line


class TestCriterion1GegenbauerOracle:
    def test_recurrence_against_generating_oracle(self):
        start = time.time()
        grid = np.linspace(-1.0, 1.0, 101)
        worst_gen = 0.0
        for lam in (0.5, 1.0, 1.5, 2.5):
            for z in (-0.6, -0.3, 0.25, 0.6):
                lhs = gg.weighted_sum(lam, 200, grid, z)
                rhs = gg.generating_closed_form(lam, grid, z)
                worst_gen = max(worst_gen, float(np.max(np.abs(lhs - rhs) / np.abs(rhs))))
        worst_inv = 0.0
        for lam in (0.5, 1.0, 1.5, 2.5):
            for m in range(13):
                parity = np.max(np.abs(
                    gg.value(lam, m, -grid) - (-1.0) ** m * gg.value(lam, m, grid)
                ))
                major = np.max(np.abs(gg.value(lam, m, grid))) - gg.value_at_one(lam, m)
                r1 = np.max(np.abs(
                    m * gg.value(lam, m, grid)
                    - 2 * lam * (grid * gg.value(lam + 1, m - 1, grid)
                                 - gg.value(lam + 1, m - 2, grid))
                ))
                r2 = np.max(np.abs(
                    (m + 2 * lam) * gg.value(lam, m, grid)
                    - 2 * lam * (gg.value(lam + 1, m, grid)
                                 - grid * gg.value(lam + 1, m - 1, grid))
                ))
                r3 = np.max(np.abs(
                    m * gg.value(lam, m, grid)
                    - ((2 * lam + m - 1) * grid * gg.value(lam, m - 1, grid)
                       - 2 * lam * (1 - grid**2) * gg.value(lam + 1, m - 2, grid))
                )) if m >= 1 else 0.0
                worst_inv = max(worst_inv, float(parity), float(major),
                                float(r1), float(r2), float(r3))
        elapsed = time.time() - start
        report(
            "criterion-1 gegenbauer-oracle",
            worst_gen <= 1e-8 and worst_inv <= 1e-10 and elapsed < 5.0,
            f"generating={worst_gen:.2e} identities={worst_inv:.2e} time={elapsed:.1f}s",
        )


class TestCriterion2KernelDualDefinition:
    @staticmethod
    def realize(s, theta_big, n=3, r=2.0, sin_theta=0.95):
        theta = math.asin(sin_theta)
        x = HalfSpacePoint(n=n, r=r, theta=theta)
        cosp = theta_big / sin_theta
        direction = np.array([cosp, math.sqrt(max(0.0, 1.0 - cosp**2))])
        return x, (r / s) * direction

    def test_direct_vs_integral_representation(self):
        start = time.time()
        worst = 0.0
        for lam in (0.25, 0.4, 0.5, 1.0, 1.5, 2.5):
            for big_m in (1, 2, 3):
                params = KernelParams(lam, big_m)
                for s in (0.1, 0.9, 1.0, 1.1, 3.0):
                    for tb in (-0.9, 0.0, 0.9):
                        x, yp = self.realize(s, tb)
                        gap = abs(
                            kernel_KM_direct(params, x, yp)
                            - kernel_KM_integral(params, x, yp, tol=1e-10)
                        )
                        worst = max(worst, gap)
        elapsed = time.time() - start
        report(
            "criterion-2 kernel-dual-definition",
            worst <= 1e-8 and elapsed < 30.0,
            f"max gap={worst:.2e} time={elapsed:.1f}s",
        )


class TestCriterion3Harmonicity:
    def test_families_solutions_and_order(self):
        start = time.time()
        worst_fam = 0.0
        for n in (2, 3, 4):
            families = [("dirichlet", m) for m in range(7)]
            if n >= 3:
                families += [("neumann", m) for m in range(7)]
            for family, m in families:
                term = HarmonicFamilyTerm(family, m, n)
                fn = lambda p: harmonic_term(term, p)
                direction = RNG.normal(size=n)
                direction[-1] = abs(direction[-1]) + 0.25
                direction /= np.linalg.norm(direction)
                radius = RNG.uniform(1.5, 2.5)
                dirs = RNG.normal(size=(24, n))
                dirs /= np.linalg.norm(dirs, axis=1)[:, None]
                scale = max(abs(fn(radius * d)) for d in dirs)
                rep = check_harmonicity(fn, [radius * direction], h=1.2e-4, tol=1e-6,
                                        name="families", scale=scale)
                worst_fam = max(worst_fam, rep.residual)

        f = bump(3, center=[2.0, 0.0], radius=1.0)
        spec = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10)
        points = []
        while len(points) < 10:
            p = RNG.normal(size=3) * 1.2
            p[-1] = abs(p[-1]) + 0.6
            if np.linalg.norm(p[:2] - np.array([2.0, 0.0])) > 1.8:
                points.append(p)
        worst_sol = 0.0
        for field_fn in (solution_u, solution_v):
            for i, big_m in enumerate((0, 1, 2)):
                chunk = points[i::3]
                rep = check_harmonicity(
                    lambda p: field_fn(f, big_m, HalfSpacePoint.from_cartesian(p), spec),
                    chunk, h=5e-3, tol=1e-4, name="solutions",
                )
                worst_sol = max(worst_sol, rep.residual)

        def quartic(p):
            return float(np.dot(p, p)) ** 2

        def quartic_lap(p):
            return 4.0 * (p.size + 2) * float(np.dot(p, p))

        orders = [refinement_order(quartic, quartic_lap, RNG.normal(size=3) + 1.0, 1e-2)
                  for _ in range(5)]
        elapsed = time.time() - start
        report(
            "criterion-3 harmonicity",
            worst_fam <= 1e-6 and worst_sol <= 1e-4 and min(orders) >= 1.8
            and elapsed < 180.0,
            f"families={worst_fam:.2e} solutions={worst_sol:.2e} "
            f"order={min(orders):.2f} time={elapsed:.0f}s",
        )


class TestCriterion4BoundaryConditions:
    def test_dirichlet_and_neumann_limits(self):
        start = time.time()
        f = bump(3, radius=8.0)
        rep_d = check_boundary("dirichlet", f, [0.0, 0.0], [0.1, 0.01, 0.001], tol=1e-3)
        rep_n = check_boundary("neumann", f, [0.0, 0.0], [0.1, 0.01], tol=5e-3)
        elapsed = time.time() - start
        report(
            "criterion-4 boundary-conditions",
            rep_d.passed and rep_n.passed and elapsed < 120.0,
            f"dirichlet gap={rep_d.residual:.2e} neumann gap={rep_n.residual:.2e} "
            f"time={elapsed:.0f}s",
        )


class TestCriterion5KernelIdentities:
    def test_all_eight_identities(self):
        start = time.time()
        worst = 0.0
        for identity in ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii"):
            for lam in (0.5, 1.5):
                for big_m in range(4):
                    count = 0
                    while count < 50:
                        x = HalfSpacePoint(
                            n=3, r=RNG.uniform(0.5, 3.0), theta=RNG.uniform(0.15, 1.35),
                            y_hat=self._unit(2),
                        )
                        yp = self._unit(2) * RNG.uniform(1.0, 4.0)
                        if np.linalg.norm(yp - x.y) ** 2 + x.x_n**2 < 0.25:
                            continue
                        count += 1
                        rep = check_kernel_identity(identity, lam, big_m, x, yp, h=1e-4, tol=1e-6)
                        worst = max(worst, rep.residual)
        elapsed = time.time() - start
        report(
            "criterion-5 kernel-identities",
            worst <= 1e-6 and elapsed < 60.0,
            f"max residual={worst:.2e} time={elapsed:.0f}s",
        )

    @staticmethod
    def _unit(k):
        v = RNG.normal(size=k)
        return v / np.linalg.norm(v)


class TestCriterion6NeumannRepresentations:
    def test_nontrivial_anchor_equalities(self):
        start = time.time()
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
        worst = 0.0
        for representation, anchor in anchors.items():
            for big_m in (1, 2):
                rep = check_neumann_representation(representation, data, big_m, x, anchor, spec, tol=1e-5)
                worst = max(worst, rep.residual)
        elapsed = time.time() - start
        report(
            "criterion-6 neumann-representations",
            worst <= 1e-5 and elapsed < 300.0,
            f"max residual={worst:.2e} time={elapsed:.0f}s",
        )


class TestCriterion7GrowthEstimates:
    def test_weighted_sup_sweeps(self):
        start = time.time()
        thetas = [0.0, 0.3, 0.6, 0.9, 1.2, 1.45]
        spec = QuadratureSpec()
        f = shell_bump(3, 2.0, 3.0)
        sweeps = []

        lam, big_m = 0.5, 1
        params = KernelParams(lam, big_m)
        sweeps.append(growth_sweep(
            lambda x: integral_F(params, f, x, spec),
            radii=[24, 48, 96, 192], thetas=thetas,
            weight_exponent=2 * lam, radial_exponent=big_m,
            name="F", parameters={"n": 3}, n=3,
        ))
        sweeps.append(growth_sweep(
            lambda x: solution_u(f, 1, x, spec),
            radii=[24, 48, 96, 192], thetas=thetas,
            weight_exponent=2, radial_exponent=2,
            name="u", parameters={"n": 3}, n=3,
        ))
        sweeps.append(growth_sweep(
            lambda x: solution_v(f, 1, x, spec),
            radii=[24, 48, 96, 192], thetas=thetas,
            weight_exponent=1, radial_exponent=1,
            name="v", parameters={"n": 3}, n=3,
        ))
        g = exp_decay(3)
        params2 = KernelParams(1.5, 2, "second")
        sweeps.append(growth_sweep(
            lambda x: integral_F_second(params2, g, x, spec),
            radii=[8, 16, 32, 64], thetas=thetas,
            weight_exponent=3.0, radial_exponent=-(2 + 3.0 - 1.0),
            name="F-second", parameters={"n": 3}, n=3,
        ))
        elapsed = time.time() - start
        worst = max(s.residual for s in sweeps)
        report(
            "criterion-7 growth-estimates",
            all(s.passed for s in sweeps) and elapsed < 300.0,
            f"max final/initial={worst:.3f} time={elapsed:.0f}s",
        )


class TestCriterion8Sharpness:
    def test_constants_signs_and_lower_bounds(self):
        start = time.time()
        c1 = compute_constants(0.5, 1)
        constants_ok = (
            c1.beta1 == 1.0
            and abs(c1.gamma - 1.0) < 1e-14
            and abs(c1.r0 - 2.0**0.25) < 1e-14
        )
        for lam in (0.5, 1.5):
            for big_m in (1, 2, 3):
                c = compute_constants(lam, big_m)
                gamma = sum(2.0**m * gg.value_at_one(lam, m)
                            for m in range(big_m)) ** (-1.0 / lam)
                constants_ok &= abs(c.gamma - gamma) < 1e-12
                constants_ok &= abs(c.r0**4 + (1 - c.gamma) * c.r0**2 - 2.0) < 1e-10
                base = ((c.cone_ratio + 1) / (c.cone_ratio - 1)) ** (2 * lam)
                constants_ok &= c.reflection_amp >= base * (1 - 1e-12)

        band_min = math.inf
        for lam in (0.5, 1.0, 1.5, 2.5):
            for big_m in (1, 2, 3, 4):
                band_min = min(band_min,
                               sign_check_phi(lam, big_m, 10_000, seed=42).min_value)
        control = sign_check_phi(1.5, 1, 10_000, seed=42, control=True)
        cone_min = math.inf
        for lam, big_m in ((0.5, 1), (1.5, 1), (0.5, 2), (1.5, 2)):
            theta = max(1.45, compute_constants(lam, big_m).theta0 + 0.01)
            x = reference_point(3, 12.0, theta)
            cone_min = min(cone_min,
                           sign_check_km_cone(lam, big_m, x, 10_000, seed=42).min_value)

        half = data_half_balls(3, [1.0, 1.0], [4.0, 16.0], 0.5, 1)
        half_ok = all(
            lower_bound_report(half, 0.5, 1, reference_point(3, c, 0.3), scale=1.0)["pass"]
            for c in (4.0, 16.0)
        )
        balls = data_balls_super_extension(3, [20.0, 60.0], [1.5, 4.5], [1.0, 1.0], 1.5, 1)
        ball_ok = all(
            lower_bound_report(balls, 1.5, 1,
                               HalfSpacePoint.from_cartesian([a, 0.0, b]),
                               scale=b ** (3 - 1 - 2 * 1.5))["pass"]
            for a, b in ((20.0, 1.5), (60.0, 4.5))
        )
        elapsed = time.time() - start
        report(
            "criterion-8 sharpness",
            constants_ok and band_min > 0 and control.min_value < 0 and cone_min > 0
            and half_ok and ball_ok and elapsed < 300.0,
            f"band min={band_min:.3e} cone min={cone_min:.3e} "
            f"control min={control.min_value:.2e} time={elapsed:.0f}s",
        )


class TestCriterion9ExpansionExample:
    def test_exp_data_example(self):
        start = time.time()
        f = exp_decay(3)
        lead = coefficient_Y1(0, f, 0.7)
        lead_ok = abs(lead - 1.0) <= 1e-5
        odd_ok = abs(coefficient_Y1(1, f, 0.6)) <= 1e-8

        reassembly = 0.0
        for m in range(4):
            direct = coefficient_Y0(m, f, 0.8)
            separated = addition_separation(3, m, 0.8, None, f)
            reassembly = max(reassembly, abs(direct - separated))

        pointwise = 0.0
        ts = np.linspace(-1.0, 1.0, 21)
        for m in (2, 3, 4):
            for theta in (0.3, 0.8, 1.3):
                lhs = gg.value(1.5, m, math.sin(theta) * ts)
                rhs = sum(gamma_addition(3, m, ell, theta)
                          * gg.value(1.0, m - 2 * ell, ts)
                          for ell in range(m // 2 + 1))
                pointwise = max(pointwise, float(np.max(np.abs(lhs - rhs))))

        decay_ok = True
        for big_m in (1, 2):
            exp = AsymptoticExpansion("neumann", f, big_m, QuadratureSpec())
            weighted = [abs(exp.remainder(HalfSpacePoint(n=3, r=r, theta=0.0)))
                        * r ** (big_m + 3 - 3) for r in (20.0, 40.0, 80.0)]
            decay_ok &= weighted[2] < weighted[1] < weighted[0]
        elapsed = time.time() - start
        report(
            "criterion-9 expansion-example",
            lead_ok and odd_ok and reassembly <= 1e-8 and pointwise <= 1e-10
            and decay_ok and elapsed < 300.0,
            f"lead gap={abs(lead - 1.0):.2e} reassembly={reassembly:.2e} "
            f"pointwise={pointwise:.2e} time={elapsed:.0f}s",
        )


class TestCriterion10Divergence:
    def test_terms_grow_beyond_turning_order(self):
        start = time.time()
        terms = divergence_demo(3, 10.0, 0.0, 20)
        ratios = terms[1:] / terms[:-1]
        k_star = next((i for i, rho in enumerate(ratios) if rho > 1), None)
        growing = k_star is not None and bool(np.all(ratios[k_star:k_star + 5] > 1))
        finite = bool(np.all(np.isfinite(terms)))
        elapsed = time.time() - start
        report(
            "criterion-10 divergence",
            growing and finite and elapsed < 1.0,
            f"k*={k_star} time={elapsed:.2f}s",
        )
