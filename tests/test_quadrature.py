import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from modpoisson import quad1d
from modpoisson import quadrature as quad
from modpoisson.data import (
    BoundaryData,
    Support,
    bump,
    bump_train,
    constant,
    exp_decay,
    poly_growth,
    shell_bump,
)
from modpoisson.errors import AccuracyError, DomainError
from modpoisson.expansions import AsymptoticExpansion, HarmonicFamilyTerm, coefficient_Y1
from modpoisson.geometry import HalfSpacePoint
from modpoisson.kernels import KernelParams, kernel_K, kernel_KM_direct, kernel_KM_second
from modpoisson.quadrature import (
    QuadratureSpec,
    alpha_n,
    dirichlet_D,
    dirichlet_DM,
    integral_F,
    integral_F_second,
    integrate_weighted,
    neumann_N,
    neumann_NM,
    solution_u,
    solution_v,
    sphere_rule,
    sphere_surface_area,
    unit_ball_volume,
)
from modpoisson.verification import check_boundary


def cutoff_w(pts):
    """The cutoff w of `solution_u`: 0 on the unit ball, 1 outside radius 2,
    and 3t^2 - 2t^3 with t = |y'| - 1 between."""
    t = np.clip(np.linalg.norm(pts, axis=-1) - 1.0, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)

RNG = np.random.default_rng(3)
SPEC = QuadratureSpec()


def _order(spec, level):
    """The angular order of a refinement level, the same in every dimension."""
    return int(spec.angular_order * 1.5**level)


class TestConstants:
    def test_ball_volumes(self):
        assert unit_ball_volume(2) == pytest.approx(np.pi)
        assert unit_ball_volume(3) == pytest.approx(4 * np.pi / 3)

    def test_alpha(self):
        assert alpha_n(2) == pytest.approx(1 / np.pi)
        assert alpha_n(3) == pytest.approx(1 / (2 * np.pi))

    def test_sphere_areas(self):
        assert sphere_surface_area(0) == 2.0
        assert sphere_surface_area(1) == pytest.approx(2 * np.pi)
        assert sphere_surface_area(2) == pytest.approx(4 * np.pi)
        assert sphere_surface_area(3) == pytest.approx(2 * np.pi**2)


class TestSphereRule:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_weights_sum_to_surface_area(self, n):
        pts, w = sphere_rule(n, 32)
        tol = 1e-12 if n < 5 else 1e-7
        assert np.sum(w) == pytest.approx(sphere_surface_area(n - 2), rel=tol)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=-1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_integrates_quadratic(self, n):
        # mean of (u . a)^2 over the sphere is |a|^2 / (n-1)
        pts, w = sphere_rule(n, 32)
        a = RNG.normal(size=n - 1)
        got = np.dot(w, (pts @ a) ** 2) / sphere_surface_area(n - 2)
        tol = 1e-10 if n < 5 else 1e-7
        assert got == pytest.approx(np.dot(a, a) / (n - 1), rel=tol)


    @pytest.mark.parametrize("n, sizes", [(3, [52, 76, 112, 164]),
                                          (4, [936, 1976, 4256, 9184]),
                                          (5, [11232, 35568, 110656])])
    def test_sizes_at_the_default_levels(self, n, sizes):
        assert [len(sphere_rule(n, _order(SPEC, level))[1])
                for level in range(len(sizes))] == sizes

    def test_circle_integrates_monomials_with_pole_angles(self):
        # the circle is the polar half-circle mirrored by S^0: its panels
        # carry the pole angles on both sides of the pole
        pole = np.array([0.6, -0.8])
        pts, w = sphere_rule(3, 48, pole=pole, pole_angles=(0.01, 0.3, 2.0))
        for p in range(5):
            for q in range(5 - p):
                exact = 0.0
                if p % 2 == 0 and q % 2 == 0:
                    exact = 2.0 * math.gamma((p + 1) / 2) * math.gamma((q + 1) / 2) / math.gamma(
                        (p + q + 2) / 2)
                assert np.dot(w, pts[:, 0] ** p * pts[:, 1] ** q) == pytest.approx(
                    exact, abs=5e-14)

    @pytest.mark.parametrize("a", [0.01, 0.3, 2.0])
    def test_circle_pole_angle_is_a_kink_edge_on_both_sides(self, a):
        pole = np.array([0.6, -0.8])
        pts, w = sphere_rule(3, 48, pole=pole, pole_angles=(a,))
        got = np.dot(w, np.maximum(pts @ pole - math.cos(a), 0.0))
        assert got == pytest.approx(2.0 * (math.sin(a) - a * math.cos(a)), rel=1e-13)


class TestSupport:
    def test_ball_support_derives_its_radii(self):
        sup = bump(3, center=[2.0, 0.0], radius=1.0).support
        assert sup.radial_edges == ()
        assert (sup.outer_radius, sup.inner_radius) == (3.0, 1.0)
        assert bump(3, center=[0.3, 0.0], radius=0.5).support.inner_radius == 0.0

    def test_contradicting_radius_is_rejected(self):
        balls = bump(3, center=[2.0, 0.0], radius=1.0).support.balls
        with pytest.raises(DomainError):
            Support("compact", outer_radius=2.5, balls=balls)

    def test_replace_keeps_the_derived_radii(self):
        sup = bump(3, center=[2.0, 0.0], radius=1.0).support
        cut = dataclasses.replace(sup, radial_edges=(1.0, 2.0))
        assert cut.radial_edges == (1.0, 2.0)
        assert (cut.outer_radius, cut.inner_radius) == (3.0, 1.0)


class TestCutoff:
    # the production ramp of the assembled solutions, as a function of |y'|
    def test_plateaus(self):
        assert quad._ramp(0.5) == 0.0
        assert quad._ramp(3.0) == 1.0

    def test_midpoint(self):
        assert quad._ramp(1.5) == pytest.approx(0.5)

    def test_monotone_continuous(self):
        rho = np.linspace(0.8, 2.2, 200)
        vals = quad._ramp(rho)
        assert np.all(np.diff(vals) >= -1e-15)
        assert np.max(np.abs(np.diff(vals))) < 0.02
        np.testing.assert_allclose(vals, cutoff_w(rho[:, None]), rtol=0, atol=1e-15)


class TestIntegralF:
    def test_zero_data(self):
        f = bump(3, center=[2.5, 0.0], radius=0.5, height=0.0)
        x = HalfSpacePoint.from_cartesian([0.0, 0.0, 1.0])
        assert integral_F(KernelParams(1.5, 0), f, x, SPEC) == pytest.approx(0.0, abs=1e-14)

    def test_brute_force_riemann_oracle(self):
        # M=0, lam=3/2, radially symmetric unit-mass bump in 2 <= |y'| <= 3
        f = shell_bump(3, 2.0, 3.0, normalized=True)
        x = HalfSpacePoint.from_cartesian([0.0, 0.0, 1.0])
        got = integral_F(KernelParams(1.5, 0), f, x, SPEC)
        cells = 1000
        axis = np.linspace(-3.0, 3.0, cells, endpoint=False) + 3.0 / cells
        gx, gy = np.meshgrid(axis, axis)
        pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        vals = f(pts) * kernel_K(1.5, x, pts)
        oracle = vals.sum() * (6.0 / cells) ** 2
        assert got == pytest.approx(oracle, abs=1e-5)

    def test_linearity(self):
        fa = bump(3, center=[2.5, 0.0], radius=0.5)
        fb = bump(3, center=[-1.5, 2.0], radius=0.8)
        x = HalfSpacePoint.from_cartesian([0.4, -0.2, 0.8])
        params = KernelParams(1.5, 1)
        va = integral_F(params, fa, x, SPEC)
        vb = integral_F(params, fb, x, SPEC)

        def combo(pts):
            return 2.0 * fa(pts) - 0.7 * fb(pts)

        from dataclasses import replace

        fc = replace(
            fa,
            evaluator=combo,
            support=type(fa.support)("compact", balls=fa.support.balls + fb.support.balls),
        )
        vc = integral_F(params, fc, x, SPEC)
        assert vc == pytest.approx(2.0 * va - 0.7 * vb, abs=1e-10)

    def test_rejects_inadmissible_growth(self):
        f = poly_growth(3, 2.5)
        x = HalfSpacePoint.from_cartesian([0.0, 0.0, 1.0])
        with pytest.raises(DomainError):
            integral_F(KernelParams(0.5, 0), f, x, SPEC)

    def test_ball_crossing_the_unit_circle_is_clipped(self):
        # the region excludes the unit ball even when the data ball crosses it
        f = bump(3, center=[0.8, 0.0], radius=1.0)
        x = HalfSpacePoint.from_cartesian([0.0, 0.0, 1.0])
        got = integral_F(KernelParams(1.5, 0), f, x,
                         QuadratureSpec(abs_tol=1e-8, rel_tol=1e-8))
        cells = 2401
        axis = np.linspace(-2.0, 2.0, cells, endpoint=False) + 2.0 / cells
        gx, gy = np.meshgrid(axis, axis)
        pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        mask = np.linalg.norm(pts, axis=-1) > 1.0
        oracle = (f(pts) * kernel_K(1.5, x, pts) * mask).sum() * (4.0 / cells) ** 2
        assert got == pytest.approx(oracle, abs=2e-4)


class TestDirichlet:
    def test_total_mass_one(self):
        f = constant(3, 1.0)
        for xc in ([0.0, 0.0, 1.0], [2.0, -1.0, 0.5], [5.0, 1.0, 3.0]):
            x = HalfSpacePoint.from_cartesian(xc)
            assert dirichlet_D(f, x, SPEC) == pytest.approx(1.0, abs=1e-6)

    def test_total_mass_one_n2_and_n4(self):
        assert dirichlet_D(constant(2), HalfSpacePoint.from_cartesian([0.5, 1.0]), SPEC) == (
            pytest.approx(1.0, abs=1e-6)
        )
        assert dirichlet_D(
            constant(4), HalfSpacePoint.from_cartesian([0.5, 0.2, -0.1, 1.0]), SPEC
        ) == pytest.approx(1.0, abs=1e-6)

    def test_total_mass_one_n5(self):
        loose = QuadratureSpec(abs_tol=1e-6, rel_tol=1e-6)
        x = HalfSpacePoint.from_cartesian([0.3, 0.1, -0.2, 0.0, 1.0])
        assert dirichlet_D(constant(5), x, loose) == pytest.approx(1.0, abs=1e-4)

    def test_odd_data_on_axis(self):
        base = bump(3, center=[2.0, 0.0], radius=1.0)

        def odd(pts):
            pts = np.asarray(pts, dtype=float)
            mirrored = pts.copy()
            mirrored[..., 0] = -mirrored[..., 0]
            return base(pts) - base(mirrored)

        from dataclasses import replace

        f = replace(base, evaluator=odd,
                    support=type(base.support)("compact", outer_radius=3.0,
                                               inner_radius=1.0, radial_edges=(1.0, 3.0)))
        x = HalfSpacePoint.from_cartesian([0.0, 0.0, 0.7])
        assert dirichlet_D(f, x, SPEC) == pytest.approx(0.0, abs=1e-10)

    def test_boundary_limit_recovers_data(self):
        f = bump(3, radius=4.0)
        for xn, tol in ((0.1, 0.2), (0.01, 2e-2), (0.001, 2e-3)):
            x = HalfSpacePoint(n=3, r=xn, theta=0.0)
            gap = abs(dirichlet_D(f, x, SPEC) - 1.0)
            assert gap < tol


    def test_origin_centred_ball_is_one_grid_per_level(self):
        # no kink circle crosses the ball, so each refinement level is one
        # vectorised grid rather than one data call per angular ray
        base = bump(3, radius=3.0)
        calls = []

        def counted(pts):
            calls.append(len(pts))
            return base.evaluator(pts)

        f = dataclasses.replace(base, evaluator=counted)
        x = HalfSpacePoint.from_cartesian([0.5, 0.3, 0.8])
        value = dirichlet_D(f, x, QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10))
        assert len(calls) <= 2 * 5  # at most two calls per level, five levels
        assert value == pytest.approx(0.41702072804119356, rel=2e-15)


class TestNeumann:
    def test_rejects_n2(self):
        with pytest.raises(DomainError):
            neumann_N(constant(2), HalfSpacePoint.from_cartesian([0.5, 1.0]), SPEC)

    def test_positive_for_positive_data(self):
        f = bump(3, center=[2.0, 1.0], radius=1.0)
        x = HalfSpacePoint.from_cartesian([0.3, 0.1, 0.9])
        assert neumann_N(f, x, SPEC) > 0

    def test_matches_direct_quadrature_value(self):
        # midpoint sanity: far-away evaluation approximates mass * kernel
        f = bump(3, center=[2.0, 0.0], radius=0.5, normalized=True)
        x = HalfSpacePoint.from_cartesian([0.0, 0.0, 60.0])
        got = neumann_N(f, x, SPEC)
        approx = alpha_n(3) * kernel_K(0.5, x, np.array([2.0, 0.0]))
        assert got == pytest.approx(approx, rel=1e-3)


# callers that take the problem's exponent, normalisation and x_n factor from
# one helper; the maps fixed to the Neumann problem ignore the name
_PROBLEM_USERS = {
    "HarmonicFamilyTerm": lambda problem, f: HarmonicFamilyTerm(problem, 1, f.n),
    "AsymptoticExpansion": lambda problem, f: AsymptoticExpansion(problem, f, 2),
    "check_boundary": lambda problem, f: check_boundary(problem, f, np.zeros(f.n - 1), [0.1]),
    "neumann_N": lambda problem, f: neumann_N(f, HalfSpacePoint(f.n, 2.0, 0.3)),
    "coefficient_Y1": lambda problem, f: coefficient_Y1(0, f, 0.3),
}


class TestProblemFacts:
    @pytest.mark.parametrize("user", sorted(_PROBLEM_USERS))
    def test_planar_neumann_has_one_message(self, user):
        with pytest.raises(DomainError, match="Neumann problem needs ambient dimension >= 3"):
            _PROBLEM_USERS[user]("neumann", exp_decay(2))

    @pytest.mark.parametrize("user", ["HarmonicFamilyTerm", "AsymptoticExpansion",
                                      "check_boundary"])
    def test_unknown_problem_is_rejected(self, user):
        with pytest.raises(DomainError, match="problem must be 'dirichlet' or 'neumann'"):
            _PROBLEM_USERS[user]("robin", exp_decay(3))


class TestModifiedIntegrals:
    def test_m_zero_reduces(self):
        f = bump(3, center=[2.5, 0.0], radius=0.4)
        x = HalfSpacePoint.from_cartesian([0.5, 0.3, 0.8])
        assert dirichlet_DM(0, f, x, SPEC) == pytest.approx(dirichlet_D(f, x, SPEC), rel=1e-9)
        assert neumann_NM(0, f, x, SPEC) == pytest.approx(neumann_N(f, x, SPEC), rel=1e-9)

    def test_rejects_origin_support(self):
        f = bump(3, radius=1.0)
        x = HalfSpacePoint.from_cartesian([0.0, 0.0, 1.0])
        with pytest.raises(DomainError):
            dirichlet_DM(2, f, x, SPEC)

    def test_difference_identity_with_moments(self):
        # D_M - D = -alpha_n x_n sum_m |x|^m c_m with Gegenbauer moments c_m
        from modpoisson import gegenbauer
        from modpoisson.geometry import cos_theta_prime_array

        f = bump(3, center=[0.0, 4.0], radius=1.0)
        x = HalfSpacePoint.from_cartesian([1.0, 0.5, 1.2])
        big_m = 2
        lhs = dirichlet_DM(big_m, f, x, SPEC) - dirichlet_D(f, x, SPEC)
        total = 0.0
        for m in range(big_m):
            def weight(pts, m=m):
                norms = np.linalg.norm(pts, axis=-1)
                tb = x.sin_theta * cos_theta_prime_array(x, pts)
                return norms ** -(m + 3.0) * gegenbauer.value(1.5, m, tb)

            total += x.r**m * integrate_weighted(f, weight, SPEC)
        rhs = -alpha_n(3) * x.x_n * total
        assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_finite_beyond_classical_class(self):
        # growth 1.5 class: the unmodified condition fails but M=2 admits it
        assert not poly_growth(3, 1.5).first_kind_admissible(1.5, 0)
        assert poly_growth(3, 1.5).first_kind_admissible(1.5, 2)
        f = bump_train(3, radii=(4.0, 16.0, 64.0), growth=1.5)
        x = HalfSpacePoint.from_cartesian([1.0, 0.0, 1.0])
        val = dirichlet_DM(2, f, x, SPEC)
        assert np.isfinite(val)
        assert abs(val) > 0


class TestSolutions:
    def test_inner_data_only_uses_plain_integral(self):
        f = bump(3, radius=1.0)
        x = HalfSpacePoint.from_cartesian([0.2, 0.1, 0.7])
        assert solution_u(f, 2, x, SPEC) == pytest.approx(dirichlet_D(f, x, SPEC), rel=1e-10)

    def test_outer_data_only_uses_modified_integral(self):
        f = bump(3, center=[0.0, 4.0], radius=1.5)
        x = HalfSpacePoint.from_cartesian([0.2, 0.1, 0.7])
        assert solution_u(f, 1, x, SPEC) == pytest.approx(dirichlet_DM(1, f, x, SPEC), rel=1e-10)
        assert solution_v(f, 1, x, SPEC) == pytest.approx(neumann_NM(1, f, x, SPEC), rel=1e-10)

    def test_cutoff_split_is_exact_for_gap_data(self):
        # data vanishing on 1 < |y| < 2 makes u independent of the ramp shape
        inner = bump(3, center=[0.3, 0.0], radius=0.5)
        outer = bump(3, center=[0.0, 4.0], radius=1.0)

        def both(pts):
            return inner(pts) + outer(pts)

        from dataclasses import replace

        f = replace(inner, evaluator=both,
                    support=type(inner.support)("compact", outer_radius=5.0,
                                                inner_radius=0.0,
                                                radial_edges=(0.8, 3.0, 5.0),
                                                balls=inner.support.balls + outer.support.balls))
        x = HalfSpacePoint.from_cartesian([0.5, -0.2, 1.1])
        got = solution_u(f, 1, x, SPEC)
        expected = dirichlet_D(inner, x, SPEC) + dirichlet_DM(1, outer, x, SPEC)
        assert got == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("name", ["kink_bump", "exp_decay", "shell_bump"])
    @pytest.mark.parametrize("where", ["regular", "boundary"])
    def test_one_integral_equals_the_two_solve_split(self, n, name, where):
        # u = D_M[w f] + D[(1 - w) f] and v = N_M[w f] + N[(1 - w) f], the
        # parts solved apart with the cutoff's circles as kink edges; each
        # side is within the tolerance of the truth, the split twice over.
        # w f vanishes on the unit ball, which its support declares
        data = {"kink_bump": bump(n, center=[2.0] + [0.0] * (n - 2), radius=1.0),
                "exp_decay": exp_decay(n), "shell_bump": shell_bump(n, 1.0, 3.0)}[name]
        far = _cutoff_part(data, cutoff_w, inner_radius=1.0)
        near = _cutoff_part(data, lambda pts: 1.0 - cutoff_w(pts))
        if where == "regular":
            x = HalfSpacePoint.from_cartesian([0.5, 0.3] + [-0.2] * (n - 3) + [0.8])
        else:
            x = HalfSpacePoint.from_cartesian([1.5, -0.5] + [0.2] * (n - 3) + [1e-3])
        tol = 1e-8 if n == 3 else 1e-6
        spec = (QuadratureSpec(abs_tol=tol, rel_tol=tol) if n == 3 else
                QuadratureSpec(radial_panels=12, angular_order=24, abs_tol=tol, rel_tol=tol))
        maps = ((solution_u, dirichlet_DM, dirichlet_D), (solution_v, neumann_NM, neumann_N))
        for whole, modified, plain in maps:
            for big_m in (0, 1, 2):
                split = modified(big_m, far, x, spec) + plain(near, x, spec)
                value = whole(data, big_m, x, spec)
                assert value == pytest.approx(split, abs=3.0 * tol)
                if big_m == 0:
                    assert value == pytest.approx(plain(data, x, spec), rel=1e-15)


def _cutoff_part(data, factor, **support):
    """factor * data, with the cutoff's circles |y'| = 1, 2 as kink edges
    and the given support fields."""
    sup = data.support
    edges = tuple(sorted({*sup.radial_edges, 1.0, 2.0}))
    return dataclasses.replace(data.scaled_by(factor), support=dataclasses.replace(
        sup, radial_edges=edges, **support))


class TestNearBoundary:
    @pytest.mark.parametrize("big_m", [0, 2])
    def test_exp_decay_solutions_converge(self, big_m):
        # exp(-|y|) kinks at the origin, 0.89 from the projection point; its
        # global support sends u and v down the regular graded path of D and
        # N.  References at radial_panels=48, angular_order=96 (u at 1e-11,
        # v at 1e-12)
        f = exp_decay(3)
        x = HalfSpacePoint.from_cartesian([0.8, 0.4, 1e-3])
        u_ref, v_ref = {0: (0.408563213582905, 0.7908165681836415),
                        2: (0.40850821430076856, 0.5620581169532671)}[big_m]
        assert solution_u(f, big_m, x, SPEC) == pytest.approx(u_ref, abs=1e-9)
        assert solution_v(f, big_m, x, SPEC) == pytest.approx(v_ref, abs=1e-9)

    def test_kink_bump_solution_converges(self):
        f = bump(3, center=[2.0, 0.0], radius=1.0)
        x = HalfSpacePoint.from_cartesian([2.2, 0.3, 0.05])
        refs = (0.5746900823836975, 0.5739665148128664, 0.5714907227034544)
        for big_m, ref in enumerate(refs):
            assert solution_u(f, big_m, x, SPEC) == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("center, radius, where, refs", [
        ((2.0, 0.0), 1.0, (0.8, 0.4, 1e-3), (
            8.829128162940336e-05, 0.10236135482144994, 7.381993021278245e-05,
            0.046390390581126664, 5.5814169417059345e-05, 0.024162480311394837)),
        ((2.0, 0.0), 1.0, (-1.26, -1.57, 1e-3), (
            2.7330834744546586e-06, 0.034679938881632594, -1.1738267942168798e-05,
            -0.021291025358690676, 1.6620805311100076e-05, 0.013717933316136976)),
        ((3.0, 0.0), 2.0, (0.8, 0.4, 1e-3), (
            7.432242926682215e-05, 0.23437163193725702, 5.176998938651134e-05,
            0.06568855739792678, 3.0883977202880615e-05, 0.01878952707508743)),
        ((3.0, 0.0), 2.0, (-1.26, -1.57, 1e-3), (
            5.862680565960066e-06, 0.11123963308823932, -1.668975931435471e-05,
            -0.057443441451090906, 1.620570987486945e-05, 0.016422531307381034)),
    ])
    def test_off_centre_bump_solutions_converge(self, center, radius, where, refs):
        # every projection point lies outside the data ball, which keeps its
        # own region; the cutoff's circles cut it for u and v, whose pole
        # then points at them.  References D, N, u and v at M = 1, 2, at
        # radial_panels=48, angular_order=96, 1e-12; each u and v estimate
        # bounds its error against them
        f = bump(3, center=center, radius=radius)
        x = HalfSpacePoint.from_cartesian(where)
        values = [dirichlet_D(f, x, SPEC), neumann_N(f, x, SPEC)]
        for big_m in (1, 2):
            for solution in (solution_u, solution_v):
                value, est = solution(f, big_m, x, SPEC, return_estimate=True)
                assert abs(value - refs[len(values)]) <= est
                values.append(value)
        assert values == pytest.approx(refs, abs=1e-9, rel=0.0)

    # references at radial_panels=48, angular_order=96, 1e-12; the last
    # agrees to 4e-16 with nested adaptive quadrature in polar coordinates
    # about the projection point
    @pytest.mark.parametrize("center, radius, where, solve, want", [
        ((2.0, 0.0), 1.0, (0.8, 0.4, 1e-3), dirichlet_D, 8.829128162940336e-05),
        ((2.0, 0.0), 1.0, (0.8, 0.4, 1e-3), lambda f, x, s: solution_u(f, 1, x, s),
         7.381993021278245e-05),
        ((0.0, 0.0), 3.0, (-1.26, -1.57, 1e-3), dirichlet_D, 0.1661686268044393),
    ], ids=["D-outside", "u1-outside", "D-inside"])
    def test_dirichlet_maps_meet_a_tight_tolerance(self, center, radius, where, solve, want):
        # these once stalled at 1.7e-12 and 5.1e-12 in raw integral units;
        # the third projection point lies inside its ball, whose region is
        # then the disk about that point
        tol = 1e-12
        f = bump(3, center=center, radius=radius)
        got = solve(f, HalfSpacePoint.from_cartesian(where),
                    QuadratureSpec(abs_tol=tol, rel_tol=tol))
        assert abs(got - want) <= max(tol, tol * abs(want))

    @pytest.mark.parametrize("where", [(0.8, 0.1, 1e-3), (0.5, 0.0, 1e-3), (1.5, 0.2, 1e-3)])
    def test_touching_bumps_solve_as_the_sum_of_their_parts(self, where):
        # the disk about y covering the ball under it would meet the other
        # ball and count part of it twice, so each ball keeps its own region
        one, two = bump(3), bump(3, center=[2.0, 0.0])
        union = BoundaryData(3, lambda pts: one(pts) + two(pts), 0.0, Support(
            "compact", balls=((one.radial_center, 1.0), (two.radial_center, 1.0))))
        x = HalfSpacePoint.from_cartesian(where)
        for solve in (dirichlet_D, neumann_N):
            parts = solve(one, x, SPEC) + solve(two, x, SPEC)
            assert solve(union, x, SPEC) == pytest.approx(parts, rel=0.0, abs=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("x_n", [1e-6, 1e-4])
    @pytest.mark.parametrize("tol", [1e-12, 1e-13])
    def test_disk_indicator_about_the_projection_point(self, n, x_n, tol):
        # D of the indicator of the unit disk about y in closed form; the
        # region about y takes the gap |y' - y| as its radius, so nothing
        # rounds at the peak.  Nodes built as y + rho u raised at x_n = 1e-6
        # and were off by up to 8.9e-13 elsewhere
        x = HalfSpacePoint.from_cartesian([0.3, 0.2, -0.1][:n - 1] + [x_n])
        y = x.y
        disk = BoundaryData(n, lambda pts: (np.linalg.norm(pts - y, axis=-1) < 1.0) * 1.0,
                            0.0, Support("compact", balls=((y, 1.0),)))
        want = {2: 2.0 / math.pi * math.atan(1.0 / x_n),
                3: 1.0 - x_n / math.sqrt(1.0 + x_n * x_n),
                4: 2.0 / math.pi * (math.atan(1.0 / x_n) - x_n / (1.0 + x_n * x_n))}[n]
        got = dirichlet_D(disk, x, QuadratureSpec(abs_tol=tol, rel_tol=tol))
        assert got == pytest.approx(want, rel=0.0, abs=1e-15)

    def test_planar_bump_at_a_tight_tolerance(self):
        # pinned from mpmath at 40 and 50 digits with two splittings of the
        # integral; a solve on nodes y + rho u stalled with estimate 2.5e-6
        tol = 1e-12
        want = 0.75356979854957792676
        got = dirichlet_D(bump(2), HalfSpacePoint.from_cartesian([0.3, 1e-6]),
                          QuadratureSpec(abs_tol=tol, rel_tol=tol))
        assert abs(got - want) <= max(tol, tol * abs(want))

    @pytest.mark.parametrize("n", [3, 4])
    def test_kernel_on_a_region_about_the_peak_is_exact(self, n):
        # on the disk about y the kernel is (rho^2 + x_n^2)^(-lam) bit for bit
        x = HalfSpacePoint.from_cartesian([0.3, 0.2, -0.1][:n - 1] + [1e-6])
        [region] = quad._regions(bump(n, radius=2.0), x, SPEC, 0.0, None)
        np.testing.assert_array_equal(region.center, x.y)
        units = sphere_rule(n, _order(SPEC, 1), pole=region.pole,
                            pole_angles=region.pole_angles)[0]
        rho, _ = quad._radial_nodes(np.asarray(quad._split_panels(region.edges, 1)), n)
        g = quad._KernelIntegrand(KernelParams(n / 2.0, 0), constant(n), x)
        want = (rho**2 + x.x_n**2) ** (-n / 2.0)
        np.testing.assert_array_equal(g(region.center, units, rho),
                                      np.broadcast_to(want, (len(units), rho.size)))

    def test_dirichlet_dm_estimate_is_measured(self):
        # against a solve at radial_panels=48, angular_order=96, 1e-12
        f = shell_bump(3, 1.0, 3.0)
        x = HalfSpacePoint.from_cartesian([0.8796383107645006, 0.5386140776619773, 1e-3])
        value, est = dirichlet_DM(2, f, x, SPEC, return_estimate=True)
        assert est != SPEC.abs_tol
        assert abs(value - 7.616283503530047e-4) <= est


class TestSecondKind:
    def test_zero_data(self):
        f = bump(3, center=[1.0, 0.0], radius=0.5, height=0.0)
        x = HalfSpacePoint.from_cartesian([0.0, 0.0, 2.0])
        got = integral_F_second(KernelParams(1.5, 1, "second"), f, x, SPEC)
        assert got == pytest.approx(0.0, abs=1e-14)

    def test_expansion_tail_relation(self):
        # D = alpha_n x_n [sum of moment terms + F~_M], by construction of
        # the second-kind kernel
        from modpoisson import gegenbauer
        from modpoisson.geometry import cos_theta_prime_array

        f = exp_decay(3)
        x = HalfSpacePoint.from_cartesian([2.0, 1.0, 3.0])
        big_m = 2
        direct = dirichlet_D(f, x, SPEC)
        tail = integral_F_second(KernelParams(1.5, big_m, "second"), f, x, SPEC)
        moments = 0.0
        for m in range(big_m):
            def weight(pts, m=m):
                norms = np.linalg.norm(pts, axis=-1)
                tb = x.sin_theta * cos_theta_prime_array(x, pts)
                return norms**m * gegenbauer.value(1.5, m, tb)

            moments += x.r ** -(m + 3.0) * integrate_weighted(f, weight, SPEC,
                                                              weight_growth=m)
        rhs = alpha_n(3) * x.x_n * (moments + tail)
        assert direct == pytest.approx(rhs, abs=1e-7)

    def test_far_field_midpoint_approximation(self):
        f = bump(3, center=[1.2, 0.0], radius=0.02, normalized=True)
        x = HalfSpacePoint(n=3, r=50.0 * 0.02, theta=0.9, y_hat=np.array([1.0, 0.0]))
        params = KernelParams(1.5, 1, "second")
        got = integral_F_second(params, f, x, SPEC)
        approx = kernel_KM_second(params, x, np.array([1.2, 0.0]))
        assert got == pytest.approx(approx, abs=1e-3)


class TestToleranceHonesty:
    def test_refinement_stability(self):
        f = bump(3, center=[2.0, 1.0], radius=1.2)
        x = HalfSpacePoint.from_cartesian([1.5, -0.4, 0.6])
        loose = QuadratureSpec(abs_tol=1e-6, rel_tol=1e-6)
        tight = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9)
        v1, e1 = dirichlet_D(f, x, loose, return_estimate=True)
        v2 = dirichlet_D(f, x, tight)
        assert abs(v1 - v2) <= max(e1, 1e-6)

    def test_estimate_in_value_units(self):
        # N is alpha_3 / (3 - 2) times the integral of f K(1/2), which is F
        # with lam = 1/2, M = 0 over |y'| > 1 for data supported beyond 2
        f = shell_bump(3, 2.0, 3.0)
        x = HalfSpacePoint.from_cartesian([1.0, -0.7, 0.9])
        value, est = neumann_N(f, x, SPEC, return_estimate=True)
        f_value, f_est = integral_F(KernelParams(0.5, 0), f, x, SPEC, return_estimate=True)
        assert value == alpha_n(3) * f_value
        assert est == alpha_n(3) * f_est

    def test_truncation_soundness(self):
        # at a 100x looser tolerance the tail search stops one doubling
        # sooner, and the tail it drops stays within that tolerance
        f = exp_decay(3)
        x = HalfSpacePoint.from_cartesian([0.5, 0.0, 1.0])
        base = dirichlet_D(f, x, SPEC)
        loose = QuadratureSpec(abs_tol=100.0 * SPEC.abs_tol)
        decay = quad._kernel_decay(KernelParams(1.5, 0), x)
        assert quad._data_reach(f, decay, loose, x) < quad._data_reach(f, decay, SPEC, x)
        assert dirichlet_D(f, x, loose) == pytest.approx(base, abs=1e-7)

    def test_positivity(self):
        f = bump(3, center=[1.0, -2.0], radius=1.0)
        x = HalfSpacePoint.from_cartesian([0.4, 0.4, 1.3])
        assert dirichlet_D(f, x, SPEC) >= 0
        assert neumann_N(f, x, SPEC) >= 0


    def test_off_boundary_kink_bump_meets_its_tolerance(self):
        # guards the stopping test: a loop that stops on one small difference
        # in the value's units misses this solve by 1.1e-9 and does not
        # raise.  Reference at radial_panels=96, angular_order=144, 1e-11
        f = bump(3, center=[3.0, 0.0], radius=2.0)
        x = HalfSpacePoint.from_cartesian([4.2, 0.0, 0.2])
        assert solution_u(f, 1, x) == pytest.approx(0.23239475520311925, abs=1e-9, rel=0.0)

    def test_stalled_solve_reports_levels(self):
        # a jump on an oblique line, which no panel edge follows, keeps the
        # refinement differences near 2.5e-4, far above round-off
        f = bump(3, center=[0.5, 0.2], radius=1.0).scaled_by(
            lambda pts: np.where(pts[..., 0] + 0.5 * pts[..., 1] > 0.6, 1.0, 0.5))
        x = HalfSpacePoint.from_cartesian([0.5, 0.3, 0.8])
        with pytest.raises(AccuracyError, match="after 5 levels") as info:
            dirichlet_D(f, x, QuadratureSpec(abs_tol=1e-6, rel_tol=1e-6))
        assert info.value.levels == 5
        assert info.value.estimate > info.value.tolerance


class TestGaussLegendreCache:
    def test_cached_arrays_are_read_only(self):
        nodes, weights = quad1d._gauss_legendre(12)
        for arr in (nodes, weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert quad1d._gauss_legendre(12)[0][0] == pytest.approx(-0.9815606342467192)


class TestRefine:
    def test_unsettled_levels_raise_with_value_estimate_and_levels(self):
        calls = []

        def value_at(level):  # 1, -1, 1, ...: no two levels ever agree
            calls.append(level)
            return (-1.0) ** level

        with pytest.raises(AccuracyError, match="after 5 levels") as info:
            quad1d.refine(value_at, 1e-9, 1e-9)
        assert calls == [0, 1, 2, 3, 4]
        assert info.value.levels == 5
        assert info.value.value == 1.0
        assert info.value.estimate == 2.0
        assert info.value.tolerance == 1e-9

    def test_stops_at_the_first_level_that_agrees(self):
        value, est = quad1d.refine(lambda level: 16.0**-level, 0.01, 0.0)
        assert (value, est) == (16.0**-3, 15 * 16.0**-3)


def _split_per_panel(edges, level):
    """The reference split: np.geomspace or np.linspace on each panel."""
    if level == 0:
        return np.asarray(edges, dtype=float)
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        split = np.geomspace if a > 0 and b / a > 1.5 else np.linspace
        out.extend(split(a, b, 2**level + 1)[:-1])
    return np.array(out + [edges[-1]])


class TestGridConstruction:
    @pytest.mark.parametrize("level", range(5))
    def test_split_panels_matches_the_per_panel_split(self, level):
        rng = np.random.default_rng(23)
        # a 0 left edge; ratios 1.67, 2.4, 3.3 and 1.03; exactly 1.5, split
        # evenly; an annulus from a tiny inner radius; the annulus edges
        edge_sets = [(0.0, 0.3, 0.5, 1.2, 4.0, 4.1), (2.0, 3.0, 3.5, 100.0),
                     (1e-300, 1e-12, 1.0), tuple(quad._geometric_edges(0.5, 80.0, 24))]
        for start in (0.0, 1e-3, 2.0):
            for scale in (0.05, 1.0, 30.0):
                widths = rng.exponential(scale, size=rng.integers(1, 30))
                edge_sets.append(tuple(start + np.concatenate([[0.0], np.cumsum(widths)])))
        ratios = np.concatenate([np.divide(e[1:], e[:-1]) for e in edge_sets if e[0] > 0])
        assert np.any(ratios > 1.5) and np.any(ratios <= 1.5)
        for edges in edge_sets:
            np.testing.assert_array_equal(quad._split_panels(edges, level),
                                          _split_per_panel(edges, level), err_msg=str(edges))

    def test_geometric_edges_match_geomspace(self):
        rng = np.random.default_rng(26)
        # equal ends, a tiny inner end, fewer than two edges asked for
        cases = [(2.0, 2.0, 24), (1e-300, 1.0, 24), (0.5, 80.0, 0), (0.5, 80.0, 1)]
        for _ in range(2000):
            a = 10.0 ** rng.uniform(-8.0, 3.0)
            cases.append((a, a * 10.0 ** rng.uniform(0.0, 8.0), int(rng.integers(2, 40))))
        for a, b, count in cases:
            np.testing.assert_array_equal(quad._geometric_edges(a, b, count),
                                          np.geomspace(a, b, max(count, 2)),
                                          err_msg=str((a, b, count)))

    @pytest.mark.parametrize("d", range(1, 7))
    def test_orthonormal_frame_rows(self, d):
        # random poles, +-e1, and poles within 1e-9 of +-e1, where the
        # reflection with the other sign loses the digits of the tilt
        rng = np.random.default_rng(d)
        e1 = np.eye(d)[0]
        poles = [e1, -e1]
        for sign in (1.0, -1.0):
            tilt = np.concatenate([[0.0], 1e-9 * rng.uniform(-1.0, 1.0, d - 1)])
            poles.append((sign * e1 + tilt) / np.linalg.norm(sign * e1 + tilt))
        for _ in range(8):
            pole = rng.normal(size=d)
            poles.append(pole / np.linalg.norm(pole))
        for pole in poles:
            frame = quad._orthonormal_frame(pole)
            np.testing.assert_array_equal(frame[0], pole)
            np.testing.assert_allclose(frame @ frame.T, np.eye(d), rtol=0.0, atol=1e-14,
                                       err_msg=str(pole))

    def test_angular_factors_are_cached_read_only(self):
        polar = quad._polar_factor(4, 48, (0.1, 0.4))
        subsphere = quad._subsphere_rule(4, 32)
        for arr in (*polar, *subsphere):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert all(a is b for a, b in zip(quad._polar_factor(4, 48, (0.1, 0.4)), polar))
        assert all(a is b for a, b in zip(quad._subsphere_rule(4, 32), subsphere))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sphere_rule_returns_fresh_writable_arrays(self, n):
        def rule():
            return sphere_rule(n, 48, pole=np.ones(n - 1), pole_angles=(0.1, 0.4))

        first, second = rule(), rule()
        for a, b in zip(first, second):
            assert a is not b
            a[...] = 0.0
        for a, b in zip(rule(), second):
            np.testing.assert_array_equal(a, b)


def _on_rays(g):
    """A function of Cartesian points as an integrand of `_eval_region`,
    called on the live nodes c + rho u of each block of rays."""
    def block(center, units, rho, live, f_rho):
        pts = center + rho[..., None] * units[:, None, :]
        live = np.ones(pts.shape[:-1], dtype=bool) if live is None else live
        out = np.zeros(live.shape)
        out[live] = g(pts[live])
        return out
    return block


def _cartesian_integrand(params, data, x, ramp=None, r_lo=0.0):
    """The solution maps' integrand f (K - c T_M) at Cartesian points, built
    from the public kernels: K_M (or K~_M) where c = 1, and
    K - ramp(|y'|) (K - K_M) for the assembled solutions; zero on
    |y'| <= r_lo."""
    kernel = kernel_KM_direct if params.kind == "first" else kernel_KM_second

    def g(pts):
        norms = np.linalg.norm(pts, axis=-1)
        keep = norms > r_lo
        out = np.zeros(pts.shape[:-1])
        vals = kernel(params, x, pts[keep])
        if ramp is not None and params.big_m:
            base = kernel_K(params.lam, x, pts[keep])
            vals = base - ramp(norms[keep]) * (base - vals)
        out[keep] = data(pts[keep]) * vals
        return out
    return g


def _per_ray_cut_integral(g, n, region, level):
    """One ray at a time: radial edges merged with each cut's crossings.
    The rays' contributions are summed exactly: a running float sum over
    some 2000 rays drifts by 1e-14 relative, more than the tolerance."""
    base = quad._split_panels(region.edges, level)
    dirs, w_dirs = sphere_rule(n, _order(SPEC, level),
                               pole=region.pole, pole_angles=region.pole_angles)
    x12, w12 = np.polynomial.legendre.leggauss(12)
    rays = []
    for u, w_u in zip(dirs, w_dirs):
        edges = list(base)
        for q, rad_q in region.cuts:
            delta = region.center - q
            b = float(u @ delta)
            disc = b * b + rad_q**2 - float(delta @ delta)
            if disc > 0.0:
                edges += [r for r in (-b + disc**0.5, -b - disc**0.5)
                          if 1e-13 < r < region.edges[-1] - 1e-13]
        edges = np.array(sorted(edges))
        half = 0.5 * np.diff(edges)[:, None]
        rho = (edges[:-1, None] + half * (x12 + 1.0)).ravel()
        w_rho = (half * w12).ravel() * rho ** (n - 2)
        rays.append(w_u * float(w_rho @ g(region.center + rho[:, None] * u)))
    return math.fsum(rays)


def _kink_cut_region(n):
    """The harmonicity bump's far part, cut by the cutoff's circle |y| = 2,
    with the pole of an unaligned rule (first axis, no angular edges)."""
    far = bump(n, center=[2.0] + [0.0] * (n - 2), radius=1.0).scaled_by(cutoff_w)
    [region] = quad._regions(far, None, SPEC, 0.0, None, kinks=(1.0, 2.0))
    assert [rad for _, rad in region.cuts] == [2.0]
    return far, dataclasses.replace(region, pole=None, pole_angles=())


class TestCutRegions:
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_blocked_rays_match_per_ray_loop(self, n, level):
        far, region = _kink_cut_region(n)
        blocked = quad._eval_region(_on_rays(far), n, region, SPEC, level)
        assert blocked == pytest.approx(_per_ray_cut_integral(far, n, region, level),
                                        rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n", [3, 4])
    def test_data_calls_stay_within_block(self, n):
        far, region = _kink_cut_region(n)
        sizes = []

        def counted(pts):
            sizes.append(len(pts))
            return far(pts)

        quad._eval_region(_on_rays(counted), n, region, SPEC, 2)
        assert len(sizes) > 1
        assert max(sizes) <= quad._BLOCK_POINTS

    def test_kink_cut_solution_at_tight_tolerance(self):
        f = bump(3, center=[2.0, 0.0], radius=1.0)
        x = HalfSpacePoint.from_cartesian([0.5, 0.3, 0.8])
        tight = solution_u(f, 2, x, QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12))
        loose = solution_u(f, 2, x, QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10))
        assert tight == pytest.approx(loose, abs=1e-10)

    def test_narrow_angular_panels_are_refined(self):
        # a kink cone close to the rule's fixed edge at pi/2 leaves a narrow
        # angular panel; unless its point count grows with the order, two
        # levels agree on it and the solve stops 4.7e-12 away from the value
        # found at four times the resolution
        f = bump(3, center=[2.0, 0.0], radius=1.0)
        x = HalfSpacePoint.from_cartesian([3.987599419973859, 0.2709439358735061,
                                           1.0231569532099145])
        value = solution_v(f, 2, x, QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12))
        assert value == pytest.approx(-0.11106040328978051, abs=1e-12)

    def test_ball_crossing_the_clip_circle_converges(self):
        f = bump(3, center=[0.5, 0.2], radius=1.0)
        x = HalfSpacePoint.from_cartesian([1.0, -0.7, 0.9])
        params = KernelParams(1.5, 2)
        fine = QuadratureSpec(radial_panels=48, angular_order=96, abs_tol=1e-11, rel_tol=1e-11)
        assert integral_F(params, f, x, SPEC) == pytest.approx(
            integral_F(params, f, x, fine), abs=1e-9)

    def test_near_boundary_ball_aligned_to_tangent_rays(self):
        # the projection point (0.88, 0.54) lies 0.03 outside the shell's
        # inner kink circle |y| = 1; the annulus region grades its radial
        # panels about |y| and its polar panels about y_hat
        f = shell_bump(3, 1.0, 3.0)
        x = HalfSpacePoint.from_cartesian([0.8796383107645006, 0.5386140776619773, 1e-3])
        assert dirichlet_DM(2, f, x, SPEC) == pytest.approx(7.616283496882084e-4, abs=1e-9)


class TestKernelPeakPole:
    def test_graded_pole_toward_the_projection_point(self):
        # the field point sits 0.2 above a data ball, 1.2 from its centre:
        # the ball's pole points at the kernel peak, with graded angles
        f = bump(3, center=[3.0, 0.0], radius=2.0)
        x = HalfSpacePoint.from_cartesian([4.2, 0.0, 0.2])
        [region] = quad._regions(f, x, SPEC, 0.0, None)
        np.testing.assert_array_equal(region.pole, [1.0, 0.0])
        assert region.pole_angles == pytest.approx((1.0 / 6.0, 2.0 / 3.0))
        # references at radial_panels=48, angular_order=96, 1e-12
        assert dirichlet_D(f, x, SPEC) == pytest.approx(0.23690524317917222, rel=1e-13)
        assert neumann_N(f, x, SPEC) == pytest.approx(0.45474834888063975, rel=1e-13)
        assert integral_F(KernelParams(1.5, 1), f, x, SPEC) == pytest.approx(
            7.2956230798766155, rel=1e-13)

    # references at radial_panels=48, angular_order=96, 1e-12, which agree
    # to 2e-15 with nested adaptive quadrature in polar coordinates about y
    @pytest.mark.parametrize("where, solve, big_m, want", [
        ((4.2, 0.0, 0.2), solution_u, 2, 0.21046444241029566),
        ((4.2, 0.0, 0.2), solution_v, 1, 0.2860652743413094),
        ((4.2, 0.0, 0.2), solution_v, 2, 0.03984536514640291),
        ((0.1, 0.1, 0.1), solution_v, 1, 0.008017774253336257),
        ((0.1, 0.1, 0.1), solution_v, 2, 0.002155395462981372),
    ])
    def test_cut_ball_grades_its_pole_angles_about_the_peak(self, where, solve, big_m, want):
        # the cutoff's circle |y'| = 2 cuts the ball: at n = 3 its pole points
        # at the cut, with polar edges graded about the peak's angle phi, here
        # pi at (4.2, 0, 0.2); with the pole on the peak these raised
        f = bump(3, center=[3.0, 0.0], radius=2.0)
        x = HalfSpacePoint.from_cartesian(where)
        if where[0] == 4.2:
            [region] = quad._regions(f, x, SPEC, 0.0, None, kinks=(1.0, 2.0))
            np.testing.assert_array_equal(region.pole, [-1.0, 0.0])
            assert any(a == pytest.approx(math.pi - 1.0 / 6.0, abs=1e-15)
                       for a in region.pole_angles)
        value, est = solve(f, big_m, x, SPEC, return_estimate=True)
        assert abs(value - want) <= min(est, max(SPEC.abs_tol, SPEC.rel_tol * abs(want)))


def _unblocked_grid_integral(g, n, region, spec, level, zonal_about=None):
    """The whole grid as one array and one data call: on the region's
    product rule, or on the zonal rule about a field point's y_hat."""
    edges = quad._split_panels(region.edges, level)
    rho, wr = quad1d.panels(edges, 12)
    order = _order(spec, level)
    if zonal_about is None:
        pts_ang, w_ang = sphere_rule(n, order, pole=region.pole,
                                     pole_angles=region.pole_angles)
    else:
        pts_ang, w_ang = quad._zonal_rule(n, order, zonal_about, region.pole_angles,
                                          region.center)
    pts = rho[:, None, None] * pts_ang[None, :, :] + region.center
    vals = g(pts.reshape(-1, n - 1)).reshape(rho.size, -1)
    return float(np.dot(wr * rho ** (n - 2), vals @ w_ang))


# n = 5 on a coarser sphere rule keeps the unblocked reference near 100 MB
_GRID_SPECS = {3: SPEC, 4: SPEC, 5: QuadratureSpec(angular_order=12)}


def _far_dirichlet_grid(n):
    """Integrand and uncut region (one region about the origin, out to the
    truncation radius) of the Dirichlet integral of exp_decay at a far
    point, |x| = 51."""
    data = exp_decay(n)
    x = HalfSpacePoint.from_cartesian([30.0] + [0.0] * (n - 3) + [10.0, 40.0])
    regions = quad._regions(data, x, _GRID_SPECS[n], 0.0,
                            quad._kernel_decay(KernelParams(n / 2.0, 0), x))
    assert len(regions) == 1 and not regions[0].cuts and regions[0].edges[0] == 0.0
    return (lambda pts: data(pts) * kernel_K(n / 2.0, x, pts)), regions


class TestGridBlocks:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_data_calls_stay_within_block(self, n):
        g, regions = _far_dirichlet_grid(n)
        spec = _GRID_SPECS[n]
        calls = 0
        for level in (0, 1):
            sizes = []

            def counted(pts):
                sizes.append(len(pts))
                return g(pts)

            for region in regions:
                quad._eval_region(_on_rays(counted), n, region, spec, level)
            assert max(sizes) <= quad._BLOCK_POINTS
            calls += len(sizes)
        assert calls > 2 * len(regions)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("level", [0, 1])
    def test_blocks_match_unblocked_grid(self, n, level):
        g, regions = _far_dirichlet_grid(n)
        spec = _GRID_SPECS[n]
        for region in regions:
            assert quad._eval_region(_on_rays(g), n, region, spec, level) == pytest.approx(
                _unblocked_grid_integral(g, n, region, spec, level), rel=1e-15, abs=0.0)

    def test_rule_larger_than_a_block_goes_ray_block_by_ray_block(self, monkeypatch):
        g, regions = _far_dirichlet_grid(4)
        # four rays of the region's radial nodes a block
        monkeypatch.setattr(quad, "_BLOCK_POINTS", 4 * 12 * (len(regions[0].edges) - 1))
        sizes = []

        def counted(pts):
            sizes.append(len(pts))
            return g(pts)

        value = quad._eval_region(_on_rays(counted), 4, regions[0], SPEC, 0)
        assert len(sizes) > 3 and max(sizes) <= quad._BLOCK_POINTS
        assert value == pytest.approx(_unblocked_grid_integral(g, 4, regions[0], SPEC, 0),
                                      rel=1e-15, abs=0.0)

    def test_far_n5_solve_memory_is_bounded(self):
        x = HalfSpacePoint.from_cartesian([30.0, 0.0, 0.0, 10.0, 40.0])
        spec = QuadratureSpec(abs_tol=1e-6, rel_tol=1e-6)
        tracemalloc.start()
        try:
            dirichlet_D(exp_decay(5), x, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


# (kernel parameters, ramp, r_lo) of each solution map's integrand at
# dimension n; the maps whose kernels are singular at the origin take
# r_lo = 1, as F does, so no region reaches it
def _map_integrands(n):
    dirichlet, neumann = n / 2.0, (n - 2) / 2.0
    return {
        "D": (KernelParams(dirichlet, 0), None, 0.0),
        "N": (KernelParams(neumann, 0), None, 0.0),
        "DM": (KernelParams(dirichlet, 2), None, 1.0),
        "NM": (KernelParams(neumann, 2), None, 1.0),
        "F": (KernelParams(dirichlet, 1), None, 1.0),
        "F2": (KernelParams(dirichlet, 2, "second"), None, 0.0),
        "u": (KernelParams(dirichlet, 1), quad._ramp, 0.0),
        "v": (KernelParams(neumann, 1), quad._ramp, 0.0),
    }


_POLAR_DATA = {
    "exp_decay": exp_decay,
    "poly_growth": lambda n: poly_growth(n, 1.0),
    "scaled": lambda n: exp_decay(n).scaled_by(lambda pts: 1.0 + 0.3 * np.tanh(pts[..., 0])),
}

# every family that declares radial data, on balls and shells about the origin
_RADIAL_DATA = {
    "constant": constant,
    "bump": lambda n: bump(n, radius=3.0),
    "shell_bump": lambda n: shell_bump(n, 1.0, 3.0),
    "bump_train": lambda n: bump_train(n, radii=(4.0, 8.0)),
    "exp_decay": exp_decay,
    "poly_growth": lambda n: poly_growth(n, 1.0),
}


def _origin_regions(x, r_lo):
    """Regions out to 12, built here since some pairs (poly_growth with N)
    are inadmissible and have no truncation radius: an annulus with pole
    y_hat and a ball centred at the zero vector inside the unit disc."""
    regions = [quad._Region(np.zeros(x.n - 1), (1.0, 2.0, 4.0, 8.0, 12.0), x.y_hat)]
    if r_lo == 0.0:
        regions.append(quad._Region(np.zeros(x.n - 1), (0.0, 0.5, 1.0)))
    return regions


class TestPolarGrid:
    @pytest.mark.parametrize("data_name", sorted(_POLAR_DATA))
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("map_name", ["D", "N", "DM", "NM", "F", "F2", "u", "v"])
    def test_polar_entry_matches_cartesian_entry(self, map_name, n, data_name):
        # the Cartesian entry runs on the rule the polar path takes: the
        # zonal rule for radial data, the product rule otherwise
        params, ramp, r_lo = _map_integrands(n)[map_name]
        data = _POLAR_DATA[data_name](n)
        x = HalfSpacePoint.from_cartesian([0.7, -0.4, 0.3, 0.2][:n - 1] + [1.1])
        spec = QuadratureSpec(radial_panels=8, angular_order=16)
        g = quad._KernelIntegrand(params, data, x, ramp)
        reference = _cartesian_integrand(params, data, x, ramp, r_lo)
        for level in (0, 1):
            for region in _origin_regions(x, r_lo):
                polar = quad._eval_region(g, n, region, spec, level)
                zonal = x if data.radial_center is not None else None
                cartesian = _unblocked_grid_integral(reference, n, region, spec, level, zonal)
                assert polar == pytest.approx(cartesian, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("map_name", ["D", "N", "DM", "NM", "F", "F2", "u", "v"])
    def test_zonal_rule_matches_product_rule(self, map_name, n):
        # per sphere |y'| = rho, on radial data: the product rule with pole
        # y_hat integrates the same function of the polar angle times its
        # subsphere rule, whose weights sum to the subsphere's area only to
        # 8e-13 at n = 5 and 4e-9 at n = 6; compare with that sum divided out
        params, ramp, r_lo = _map_integrands(n)[map_name]
        spec = QuadratureSpec(radial_panels=8, angular_order=16)
        rho = np.array([0.25, 0.75, 1.5, 3.0, 6.0, 11.0])
        points = [HalfSpacePoint.from_cartesian([0.7, -0.4, 0.3, 0.2, 0.5][:n - 1] + [1.1]),
                  HalfSpacePoint(n=n, r=1.1, theta=0.0)]
        for data_name, family in _RADIAL_DATA.items():
            data = family(n)
            np.testing.assert_array_equal(data.radial_center, np.zeros(n - 1), data_name)
            for x in points:
                g = quad._KernelIntegrand(params, data, x, ramp)
                for level in (0, 1):
                    order = _order(spec, level)
                    zonal = quad._zonal_rule(n, order, x, (0.1, 0.4), np.zeros(n - 1))
                    product = sphere_rule(n, order, pole=x.y_hat, pole_angles=(0.1, 0.4))
                    mass = np.sum(product[1]) / np.sum(zonal[1])
                    assert mass == pytest.approx(1.0, abs=1e-12 if n < 6 else 1e-8)
                    want = product[1] @ g(np.zeros(n - 1), product[0], rho) / mass
                    got = zonal[1] @ g(np.zeros(n - 1), zonal[0], rho)
                    np.testing.assert_allclose(got, want, rtol=1e-13,
                                               atol=1e-13 * np.max(np.abs(want)),
                                               err_msg=f"{data_name} theta={x.theta}")

    def test_zonal_rule_is_one_node_on_the_axis(self):
        x = HalfSpacePoint(n=5, r=2.0, theta=0.0)
        pts, w = quad._zonal_rule(5, 48, x, (), np.zeros(4))
        np.testing.assert_array_equal(pts, [x.y_hat])
        assert w[0] == sphere_surface_area(3)

    @pytest.mark.parametrize("coords", [[30.0, 10.0, 0.0, 40.0], [0.5, 0.0, 0.2, 0.3]])
    def test_radial_solve_on_origin_regions_builds_no_product_rule(self, coords, monkeypatch):
        # global radial data give one region about the origin; each
        # solve runs on the zonal rule alone, while data not declared radial
        # build the product rule
        def no_product_rule(*args, **kwargs):
            raise AssertionError("product rule built")

        x = HalfSpacePoint.from_cartesian(coords)
        with monkeypatch.context() as patch:
            patch.setattr(quad, "sphere_rule", no_product_rule)
            for solve in (neumann_N, dirichlet_D, lambda f, x: solution_u(f, 1, x),
                          lambda f, x: solution_v(f, 1, x)):
                solve(exp_decay(4), x)
            with pytest.raises(AssertionError, match="product rule built"):
                neumann_N(dataclasses.replace(exp_decay(4), radial_center=None), x)

    def test_polar_entry_matches_cartesian_entry_near_the_peak(self):
        # rays and radii within 1e-5 of the peak of a point 1e-3 above the
        # boundary, where the polar form of the base kernel lost 1e-10
        x = HalfSpacePoint.from_cartesian([0.8796383107645006, 0.5386140776619773, 1e-3])
        g = quad._KernelIntegrand(KernelParams(1.5, 0), constant(3), x)
        rho = x.r * x.sin_theta + np.linspace(-1e-5, 1e-5, 7)
        angles = math.atan2(x.y_hat[1], x.y_hat[0]) + np.linspace(-1e-5, 1e-5, 5)
        units = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        polar = g(np.zeros(2), units, rho)
        reference = _cartesian_integrand(KernelParams(1.5, 0), constant(3), x)
        cartesian = reference(rho[None, :, None] * units[:, None, :])
        np.testing.assert_allclose(polar, cartesian, rtol=1e-14, atol=0.0)

    def test_masked_rows_match_cartesian_mask(self):
        # an origin-centred ball straddling r_lo starts at r_lo
        data = bump(3, radius=3.0)
        x = HalfSpacePoint.from_cartesian([0.5, 0.3, 0.8])
        params = KernelParams(1.5, 1)
        g = quad._KernelIntegrand(params, data, x, None)
        (region,) = quad._regions(data, x, SPEC, 1.0, quad._kernel_decay(params, x))
        assert region.edges[0] == 1.0 and not np.any(region.center)
        polar = quad._eval_region(g, 3, region, SPEC, 1)
        reference = _cartesian_integrand(params, data, x, None, 1.0)
        assert polar == pytest.approx(_unblocked_grid_integral(reference, 3, region, SPEC, 1, x),
                                      rel=1e-14, abs=0.0)
        # an off-centre ball that the circle |y'| = r_lo crosses: the circle
        # is a cut, and the panels inside it are dead
        for n in (3, 4):
            data = bump(n, center=[1.2] + [0.0] * (n - 2), radius=0.8)
            x = HalfSpacePoint.from_cartesian([1.1, 0.3, 0.2][:n - 1] + [0.5])
            params = KernelParams(n / 2.0, 1)
            g = quad._KernelIntegrand(params, data, x, None)
            (region,) = quad._regions(data, x, SPEC, 1.0, quad._kernel_decay(params, x))
            assert region.clip == 1.0 and any(rad == 1.0 for _, rad in region.cuts)
            polar = quad._eval_region(g, n, region, SPEC, 1)
            reference = _cartesian_integrand(params, data, x, None, 1.0)
            assert polar == pytest.approx(_per_ray_cut_integral(reference, n, region, 1),
                                          rel=1e-14, abs=0.0)
        # a ball inside the circle but for rounding, too close for a cut, is dropped
        data = bump(3, center=[0.6, 0.2], radius=1.0 - math.hypot(0.6, 0.2) + 4.4e-16)
        x = HalfSpacePoint.from_cartesian([0.5, 0.3, 0.8])
        assert quad._regions(data, x, SPEC, 1.0, quad._kernel_decay(params, x)) == []

    def test_radial_data_are_called_once_per_radial_node(self):
        base = exp_decay(4)
        calls = []

        def counted(pts):
            calls.append(np.array(pts))
            return base.evaluator(pts)

        f = dataclasses.replace(base, evaluator=counted)
        x = HalfSpacePoint.from_cartesian([30.0, 10.0, 0.0, 40.0])
        value = neumann_N(f, x, QuadratureSpec())
        grid = [c for c in calls if len(c) > 1]
        assert grid
        for pts in grid:
            assert np.all(pts[:, 1:] == 0.0)  # on the first axis
            assert len(np.unique(pts[:, 0])) == len(pts)  # one point per radius
        # the same solve on data not declared radial evaluates every grid point
        plain = dataclasses.replace(base, radial_center=None)
        assert value == pytest.approx(neumann_N(plain, x, QuadratureSpec()), rel=1e-14, abs=0.0)


class TestRadialDataOffTheOrigin:
    def test_radial_data_are_called_once_per_radial_node(self):
        # an M = 0 solve of the kink-cut bump at one of its benchmark points:
        # the ball about the bump's centre is uncut, so the data are called
        # at c + rho e1 once per radial node, never at the grid
        base = bump(3, center=[2.0, 0.0], radius=1.0)
        calls = []

        def counted(pts):
            calls.append(np.array(pts))
            return base.evaluator(pts)

        f = dataclasses.replace(base, evaluator=counted)
        x = HalfSpacePoint.from_cartesian([-0.6813235273535158, -0.543179150532535,
                                           0.858716595707719])
        value = solution_u(f, 0, x, SPEC)
        assert calls
        for pts in calls:
            assert np.all(pts[:, 1] == 0.0) and np.all(pts[:, 0] >= 2.0)  # on c + rho e1
            assert len(np.unique(pts[:, 0])) == len(pts)  # one point per radius
        plain = dataclasses.replace(base, radial_center=None)
        assert value == pytest.approx(solution_u(plain, 0, x, SPEC), rel=1e-14, abs=0.0)


def _kink_bump(n, center):
    """A unit bump about center, given by its leading coordinates."""
    return bump(n, center=(list(center) + [0.0] * n)[:n - 1], radius=1.0)


# unit balls centred on the first axis and off it, both clear of |y'| = 1,
# so F's clip circle cuts neither
_OFF_CENTRES = ([2.0], [1.5, -1.5, 0.5])


def _over(c, height):
    """A field point at height over c whose projection y is c: bit for bit
    when c lies on the first axis, else up to rounding."""
    norm = float(np.linalg.norm(c))
    if np.any(c[1:]):
        return HalfSpacePoint.from_cartesian(list(c) + [height])
    theta, r = math.atan2(norm, height), math.hypot(norm, height)
    ulp = np.spacing(r)
    r = next(r + k * ulp for k in (0, 1, -1, 2, -2, 3, -3)
             if (r + k * ulp) * math.sin(theta) == norm)
    return HalfSpacePoint(n=c.size + 1, r=float(r), theta=theta)


def _off_centre_points(n, c):
    """A far point, a close point whose ball region grades its pole angles
    toward y - c, and a point over c."""
    shift = np.array([0.3, 0.25, -0.2, 0.1, 0.15])[:n - 1]
    return {"far": HalfSpacePoint.from_cartesian(
                list(c + [6.0, 4.0, 1.0, -2.0, 3.0][:n - 1]) + [2.5]),
            "close": HalfSpacePoint.from_cartesian(list(c + shift) + [0.08]),
            "over": _over(c, 0.4)}


class TestOffCentreZonal:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("map_name", ["D", "N", "F", "u", "v"])
    def test_zonal_rule_matches_product_rule_per_sphere(self, map_name, n):
        # per sphere |y' - c| = rho on a bump about c, the product rule with
        # its pole on the zonal axis (y - c)/|y - c| integrates the same
        # function of the polar angle times its subsphere rule, whose weights
        # sum to the subsphere's area only to 8e-13 at n = 5 and 4e-9 at
        # n = 6; compare with that sum divided out
        params, ramp, r_lo = _map_integrands(n)[map_name]
        params = KernelParams(params.lam, 0)
        spec = QuadratureSpec(radial_panels=8, angular_order=16)
        rho = np.array([0.05, 0.35, 0.8, 0.99])
        for center in _OFF_CENTRES:
            data = _kink_bump(n, center)
            c = data.radial_center
            for case, x in _off_centre_points(n, c).items():
                (region,) = quad._regions(data, x, spec, r_lo,
                                          quad._kernel_decay(params, x))
                assert not region.cuts
                assert bool(region.pole_angles) == (case == "close")
                off = x.y - c
                # the single node needs y = c exactly, as over the first axis
                assert (case == "over" and not np.any(c[1:])) == (not np.any(off))
                g = quad._KernelIntegrand(params, data, x, ramp)

                def spheres(rule):
                    return rule[1] @ g(c, rule[0], rho)

                for level in (0, 1):
                    order = _order(spec, level)
                    zonal = quad._zonal_rule(n, order, x, region.pole_angles, c)
                    if not np.any(off):
                        assert len(zonal[1]) == 1
                        assert zonal[1][0] == sphere_surface_area(n - 2)
                    pole = off if np.any(off) else None
                    product = sphere_rule(n, order, pole=pole, pole_angles=region.pole_angles)
                    mass = np.sum(product[1]) / np.sum(zonal[1])
                    assert mass == pytest.approx(1.0, abs=1e-12 if n < 6 else 1e-8)
                    want = spheres(product) / mass
                    np.testing.assert_allclose(spheres(zonal), want, rtol=1e-13,
                                               atol=1e-13 * np.max(np.abs(want)),
                                               err_msg=f"{center} {case}")

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_zonal_solves_match_product_rule_solves(self, n):
        # whole M = 0 solves at 1e-12 on the zonal rule against the same
        # solves on data not declared radial, which take the product rule;
        # the close point only at n = 3, where its product-rule solves are
        # cheap (at n = 4 they take seconds, and at n = 5 over a minute)
        tol = 1e-12
        spec = QuadratureSpec(abs_tol=tol, rel_tol=tol)
        solves = {"D": dirichlet_D, "N": neumann_N,
                  "F": lambda f, x, s: integral_F(KernelParams(n / 2.0, 0), f, x, s),
                  "u": lambda f, x, s: solution_u(f, 0, x, s),
                  "v": lambda f, x, s: solution_v(f, 0, x, s)}
        data = _kink_bump(n, [2.0])
        plain = dataclasses.replace(data, radial_center=None)
        for case, x in _off_centre_points(n, data.radial_center).items():
            if case == "close" and n > 3:
                continue
            for name, solve in solves.items():
                zonal, product = solve(data, x, spec), solve(plain, x, spec)
                assert abs(zonal - product) <= max(tol, tol * abs(product)), name

    # references from radial_panels=48, angular_order=96 solves at 1e-13
    @pytest.mark.parametrize("solve, want", [
        (dirichlet_D, 0.35658985210204036),
        (neumann_N, 0.0963243455657876),
        (lambda f, x, s: solution_u(f, 0, x, s), 0.35658985210204036),
        (lambda f, x, s: solution_v(f, 0, x, s), 0.0963243455657876),
        (lambda f, x, s: integral_F(KernelParams(2.5, 0), f, x, s), 58.65667956150183),
    ], ids=["D", "N", "u", "v", "F"])
    def test_close_point_in_five_dimensions_converges_at_tight_tolerance(self, solve, want):
        # a narrow polar panel toward the kernel peak must gain nodes from
        # level to level at n = 5 as at n = 3; when it kept 6 nodes over
        # the first levels, every map here stalled after 5 levels
        tol = 1e-12
        data = _kink_bump(5, [2.0])
        x = _off_centre_points(5, data.radial_center)["close"]
        np.testing.assert_allclose(np.append(x.y, x.x_n), [2.3, 0.25, -0.2, 0.1, 0.08], atol=1e-15)
        got = solve(data, x, QuadratureSpec(abs_tol=tol, rel_tol=tol))
        assert abs(got - want) <= max(tol, tol * abs(want))

    def test_off_centre_solves_build_product_rule_only_where_not_zonal(self, monkeypatch):
        def no_product_rule(*args, **kwargs):
            raise AssertionError("product rule built")

        data = _kink_bump(4, [2.0])
        two_balls = BoundaryData(
            4, lambda pts: data(pts) + data(pts + [0.0, 3.0, 0.0]), 0.0,
            Support("compact", balls=((data.radial_center, 1.0),
                                      (np.array([2.0, -3.0, 0.0]), 1.0))))
        points = list(_off_centre_points(4, data.radial_center).values())
        spec = QuadratureSpec(abs_tol=1e-7, rel_tol=1e-7)
        with monkeypatch.context() as patch:
            patch.setattr(quad, "sphere_rule", no_product_rule)
            for x in points:
                for solve in (neumann_N, dirichlet_D, lambda f, x, s: solution_u(f, 0, x, s),
                              lambda f, x, s: solution_v(f, 0, x, s)):
                    solve(data, x, spec)
            x = points[0]
            not_zonal = (
                # M >= 1: the ramp's kink circle |y'| = 2 cuts the ball
                lambda: solution_u(data, 1, x, spec),
                # M >= 1 without a cut: the tail is zonal about y_hat, not c
                lambda: dirichlet_DM(1, _kink_bump(4, [5.0]), x, spec),
                # a cut region at M = 0: F's clip circle |y'| = 1 crosses it
                lambda: integral_F(KernelParams(2.0, 0), _kink_bump(4, [1.2]), x, spec),
                # data not declared radial about the ball's centre
                lambda: neumann_N(data.scaled_by(lambda pts: 2.0), x, spec),
                lambda: neumann_N(two_balls, x, spec),
                # a ball about another centre than the data's
                lambda: quad._eval_region(
                    quad._KernelIntegrand(KernelParams(1.0, 0), data, x),
                    4, quad._Region(np.array([2.5, 0.0, 0.0]), (0.0, 0.5)), spec, 0),
            )
            for solve in not_zonal:
                with pytest.raises(AssertionError, match="product rule built"):
                    solve()
