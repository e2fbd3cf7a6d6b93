import math

import numpy as np
import pytest

from modpoisson.data import bump, exp_decay
from modpoisson.errors import DomainError
from modpoisson.expansions import (
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
from modpoisson import gegenbauer as gg
from modpoisson.geometry import HalfSpacePoint
from modpoisson.quadrature import QuadratureSpec, dirichlet_D, neumann_N

RNG = np.random.default_rng(19)
SPEC = QuadratureSpec()


class TestHarmonicTerm:
    def test_lowest_dirichlet_term_is_height(self):
        term = HarmonicFamilyTerm("dirichlet", 0, 3)
        for _ in range(5):
            x = RNG.normal(size=3)
            assert harmonic_term(term, x) == pytest.approx(x[-1])

    def test_first_neumann_term(self):
        term = HarmonicFamilyTerm("neumann", 1, 3)
        assert harmonic_term(term, np.array([1.0, 0.0, 1.0])) == pytest.approx(1.0)

    @pytest.mark.parametrize("family,m", [("dirichlet", 3), ("neumann", 4)])
    def test_homogeneity(self, family, m):
        term = HarmonicFamilyTerm(family, m, 4)
        deg = m + (family == "dirichlet")  # the Dirichlet family carries x_n
        for c in (2.0, 0.5):
            for _ in range(10):
                x = RNG.normal(size=4)
                assert harmonic_term(term, c * x) == pytest.approx(
                    c**deg * harmonic_term(term, x), rel=1e-12
                )

    def test_polynomiality_through_origin(self):
        # continuity across the axis where the angular variable degenerates
        term = HarmonicFamilyTerm("dirichlet", 2, 3)
        eps = 1e-8
        a = harmonic_term(term, np.array([eps, 0.0, 1.0]))
        b = harmonic_term(term, np.array([-eps, 0.0, 1.0]))
        assert a == pytest.approx(b, abs=1e-12)

    def test_neumann_needs_three_dims(self):
        with pytest.raises(DomainError):
            HarmonicFamilyTerm("neumann", 1, 2)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_neumann_family_normal_derivative_vanishes_on_boundary(self, m):
        term = HarmonicFamilyTerm("neumann", m, 3)
        h = 1e-6
        for _ in range(5):
            y = RNG.normal(size=2) * 2.0
            up = harmonic_term(term, np.append(y, h))
            down = harmonic_term(term, np.append(y, -h))
            scale = max(1.0, abs(up))
            assert abs(up - down) / (2 * h) <= 1e-6 * scale

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_dirichlet_family_vanishes_on_boundary(self, m):
        term = HarmonicFamilyTerm("dirichlet", m, 3)
        for _ in range(5):
            y = RNG.normal(size=2) * 2.0
            assert harmonic_term(term, np.append(y, 0.0)) == 0.0


class TestCoefficients:
    def test_dirichlet_leading_coefficient_for_unit_mass(self):
        f = bump(3, center=[2.0, 1.0], radius=0.8, normalized=True)
        for theta in (0.0, 0.4, 1.1):
            got = coefficient_Y0(0, f, theta)
            assert got == pytest.approx(math.cos(theta) / (2 * math.pi), rel=1e-8)

    def test_dirichlet_coefficient_vanishes_at_grazing(self):
        f = bump(3, center=[2.0, 1.0], radius=0.8)
        assert coefficient_Y0(1, f, math.pi / 2 - 1e-14) == pytest.approx(0.0, abs=1e-14)

    def test_neumann_leading_coefficient_exp_data(self):
        f = exp_decay(3)
        got = coefficient_Y1(0, f, 0.7)
        assert got == pytest.approx(1.0, rel=1e-7)

    def test_odd_radial_moment_vanishes(self):
        f = exp_decay(3)
        assert coefficient_Y1(1, f, 0.6) == pytest.approx(0.0, abs=1e-10)

    def test_zero_data(self):
        f = bump(3, radius=1.0, height=0.0)
        assert coefficient_Y1(0, f, 0.3) == pytest.approx(0.0, abs=1e-14)

    def test_odd_data_on_axis_kills_even_orders(self):
        # data odd in the first boundary coordinate, direction on the axis:
        # the angular factor is even there, so even orders integrate to zero
        base = bump(3, center=[1.5, 0.0], radius=0.8)

        def odd(pts):
            pts = np.asarray(pts, dtype=float)
            mirrored = pts.copy()
            mirrored[..., 0] = -mirrored[..., 0]
            return base(pts) - base(mirrored)

        from dataclasses import replace

        f = replace(base, evaluator=odd,
                    support=type(base.support)("compact", outer_radius=2.3,
                                               inner_radius=0.7,
                                               radial_edges=(0.7, 2.3)))
        for m in (0, 2):
            assert coefficient_Y0(m, f, 0.0) == pytest.approx(0.0, abs=1e-12)


class TestAdditionFormula:
    def test_degenerate_order(self):
        assert gamma_addition(3, 0, 0, 0.7) == pytest.approx(1.0)

    def test_first_order_scales_with_sine(self):
        # C_1^(n/2)(sin(theta) t) = (n / (n-1)) sin(theta) C_1^((n-1)/2)(t)
        for n in (3, 4, 5):
            got = gamma_addition(n, 1, 0, 0.9)
            assert got == pytest.approx(n / (n - 1) * math.sin(0.9), rel=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_pointwise_identity(self, m):
        n = 3
        thetas = np.linspace(0.0, math.pi / 2 - 1e-3, 13)
        ts = np.linspace(-1.0, 1.0, 21)
        for theta in thetas:
            lhs = gg.value(n / 2.0, m, math.sin(theta) * ts)
            rhs = np.zeros_like(ts)
            for ell in range(m // 2 + 1):
                rhs += gamma_addition(n, m, ell, theta) * gg.value(
                    (n - 1) / 2.0, m - 2 * ell, ts
                )
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_pointwise_identity_dimension_four(self):
        ts = np.linspace(-1.0, 1.0, 15)
        for theta in (0.3, 1.0):
            lhs = gg.value(2.0, 4, math.sin(theta) * ts)
            rhs = sum(
                gamma_addition(4, 4, ell, theta) * gg.value(1.5, 4 - 2 * ell, ts)
                for ell in range(3)
            )
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_reassembly_matches_direct_moment(self, m):
        f = exp_decay(3)
        theta = 0.8
        direct = coefficient_Y0(m, f, theta)
        separated = addition_separation(m, f, theta)
        assert separated == pytest.approx(direct, abs=1e-8)


class TestZonal:
    """The angular part of a solid harmonic about its pole: on the unit
    sphere of the boundary hyperplane the Neumann term of R^n is the zonal
    harmonic C_m^((n-2)/2)(pole . direction).  The term's pole is the first
    axis, so a reflection taking the given pole there moves the direction
    with it."""

    @staticmethod
    def zonal(n, m, pole, direction):
        pole = np.asarray(pole, dtype=float)
        v = pole - np.eye(n - 1)[0]
        if np.any(v):
            # the Householder reflection swapping pole and first axis
            direction = direction - 2.0 * (v @ direction) / (v @ v) * v
        term = HarmonicFamilyTerm("neumann", m, n)
        return harmonic_term(term, np.append(direction, 0.0))

    def test_coincident_poles(self):
        u = np.array([0.6, 0.8, 0.0, 0.0])
        assert self.zonal(5, 4, u, u) == pytest.approx(gg.value_at_one(1.5, 4))

    def test_orthogonal_poles_odd_degree(self):
        assert self.zonal(5, 3, [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]) == pytest.approx(
            0.0, abs=1e-14)

    def test_rotation_invariance(self):
        a = RNG.normal(size=4)
        b = RNG.normal(size=4)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        base = self.zonal(5, 3, a, b)
        assert base == pytest.approx(gg.value(1.5, 3, a @ b), rel=1e-12)
        q, _ = np.linalg.qr(RNG.normal(size=(4, 4)))
        assert self.zonal(5, 3, q @ a, q @ b) == pytest.approx(base, rel=1e-12)


class TestExpDataClosedForm:
    def test_leading_value_is_one(self):
        for theta in (0.0, 0.5, 1.2):
            assert exp_data_neumann_coefficient(3, 0, theta) == pytest.approx(1.0)

    def test_odd_orders_vanish(self):
        for order in (1, 3, 5, 7):
            assert exp_data_neumann_coefficient(3, order, 0.4) == 0.0

    def test_beyond_float_range_reads_signed_inf(self):
        # order 2k carries the sign (-1)^k at theta = 0
        assert exp_data_neumann_coefficient(3, 300, 0.0) == math.inf
        assert exp_data_neumann_coefficient(3, 302, 0.0) == -math.inf
        assert exp_data_neumann_coefficient(3, 301, 0.0) == 0.0
        assert math.isfinite(exp_data_neumann_coefficient(3, 150, 0.0))

    def test_against_quadrature_n3(self):
        f = exp_decay(3)
        for order, theta in ((2, 0.0), (2, 0.9), (4, 0.3)):
            closed = exp_data_neumann_coefficient(3, order, theta)
            quad = coefficient_Y1(order, f, theta)
            assert quad == pytest.approx(closed, rel=1e-5)

    def test_against_quadrature_n4(self):
        f = exp_decay(4)
        closed = exp_data_neumann_coefficient(4, 2, 0.0)
        quad = coefficient_Y1(2, f, 0.0)
        assert quad == pytest.approx(closed, rel=1e-5)


class TestAsymptoticExpansion:
    def test_each_coefficient_is_computed_once(self, monkeypatch):
        # the table asks for y_hat=None and partial_sum for the first axis,
        # the same direction: one moment integral per (m, theta)
        import modpoisson.expansions as ex

        calls = []
        real = ex._coefficient

        def counted(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(ex, "_coefficient", counted)
        exp = AsymptoticExpansion("neumann", exp_decay(3), 2, SPEC)
        for theta in (0.0, 0.5):
            for m in range(2):
                exp.coefficient(m, theta)
            exp.partial_sum(HalfSpacePoint(n=3, r=20.0, theta=theta))
        assert sorted(calls) == [0, 0, 1, 1]

    def test_empty_truncation(self):
        f = exp_decay(3)
        x = HalfSpacePoint(n=3, r=15.0, theta=0.4, y_hat=[1.0, 0.0])
        exp = AsymptoticExpansion("neumann", f, 0, SPEC)
        partial, remainder = exp.partial_sum(x), exp.remainder(x)
        assert partial == 0.0
        assert remainder == pytest.approx(neumann_N(f, x, SPEC), rel=1e-10)

    def test_partial_plus_remainder_is_direct(self):
        f = exp_decay(3)
        x = HalfSpacePoint(n=3, r=12.0, theta=0.7, y_hat=[1.0, 0.0])
        for problem, direct_fn in (("dirichlet", dirichlet_D), ("neumann", neumann_N)):
            exp = AsymptoticExpansion(problem, f, 2, SPEC)
            partial, remainder = exp.partial_sum(x), exp.remainder(x)
            assert partial + remainder == pytest.approx(direct_fn(f, x, SPEC), abs=1e-9)

    def test_remainder_matches_second_kind_integral(self):
        from modpoisson.kernels import KernelParams
        from modpoisson.quadrature import alpha_n, integral_F_second

        f = exp_decay(3)
        x = HalfSpacePoint(n=3, r=9.0, theta=0.5, y_hat=[1.0, 0.0])
        big_m = 2
        remainder = AsymptoticExpansion("dirichlet", f, big_m, SPEC).remainder(x)
        tail = alpha_n(3) * x.x_n * integral_F_second(
            KernelParams(1.5, big_m, "second"), f, x, SPEC
        )
        assert remainder == pytest.approx(tail, abs=1e-7)

    @pytest.mark.parametrize("big_m", [1, 2])
    def test_neumann_remainder_decay(self, big_m):
        f = exp_decay(3)
        exp = AsymptoticExpansion("neumann", f, big_m, SPEC)
        weighted = []
        for r in (20.0, 40.0):
            x = HalfSpacePoint(n=3, r=r, theta=0.0)
            weighted.append(abs(exp.remainder(x)) * r ** (big_m + 3 - 3))
        assert weighted[1] < weighted[0]

    def test_coefficient_cache_reused(self):
        f = exp_decay(3)
        exp = AsymptoticExpansion("neumann", f, 2, SPEC)
        x = HalfSpacePoint(n=3, r=20.0, theta=0.3, y_hat=[1.0, 0.0])
        exp.partial_sum(x)
        cached = dict(exp._cache)
        exp.partial_sum(HalfSpacePoint(n=3, r=40.0, theta=0.3, y_hat=[1.0, 0.0]))
        assert dict(exp._cache) == cached

    def test_cache_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            AsymptoticExpansion("neumann", exp_decay(3), 2, SPEC, {})
        assert "_cache" not in repr(AsymptoticExpansion("neumann", exp_decay(3), 2, SPEC))


class TestDivergenceDemo:
    def test_terms_eventually_increase(self):
        terms = divergence_demo(3, 10.0, 0.0, 14)
        ratios = terms[1:] / terms[:-1]
        k_star = next(i for i, rho in enumerate(ratios) if rho > 1)
        assert np.all(ratios[k_star : k_star + 5] > 1)

    def test_terms_initially_decrease(self):
        terms = divergence_demo(3, 10.0, 0.0, 14)
        assert terms[1] < terms[0]

    def test_zero_angular_factor_kills_term(self):
        # pick theta at a zero of the degree-2 factor
        root = float(np.sqrt(1.0 / (2.0 * 1.5)))  # C_2^(1/2) root
        theta = math.acos(root)
        terms = divergence_demo(3, 10.0, theta, 3)
        assert terms[1] <= 1e-15 * terms[0]

    def test_overflow_free_far_orders(self):
        terms = divergence_demo(3, 10.0, 0.0, 60)
        assert np.all(np.isfinite(terms[:40]))
        assert terms[40] > terms[20] > 1.0

    def test_dirichlet_variant_high_dimension(self):
        terms = divergence_demo(5, 10.0, 0.7, 10, problem="dirichlet")
        ratios = terms[1:] / terms[:-1]
        assert np.any(ratios > 1)
        # the relation's division by sin(theta) is exact, so theta = 0 works
        on_axis = divergence_demo(5, 10.0, 0.0, 10, problem="dirichlet")
        assert np.all(np.isfinite(on_axis)) and np.any(on_axis[1:] / on_axis[:-1] > 1)
        with pytest.raises(DomainError):
            divergence_demo(4, 10.0, 0.7, 5, problem="dirichlet")

    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_dirichlet_variant_first_term(self, theta):
        # n = 5, k = 0 by hand: the Neumann average at n = 3, order 2 is
        # -(pi/2) P_2(cos theta); its theta-derivative over 3 sin(theta) is
        # (pi/2) cos(theta).  With Gamma(4) = 6 and the front factor
        # 3 |B^3| alpha_5 = 3 / pi the term is 9 |cos(theta)| / r^4
        term = divergence_demo(5, 10.0, theta, 0, problem="dirichlet")[0]
        assert term == pytest.approx(9.0 * math.cos(theta) / 1e4, rel=1e-13)

    def test_dirichlet_variant_far_orders(self):
        # Gamma(m + n - 1) alone leaves the float range at k = 84; the term
        # does not
        terms = divergence_demo(5, 10.0, 0.7, 84, problem="dirichlet")
        assert np.all(np.isfinite(terms)) and terms[84] > terms[40] > 1.0

    def test_terms_beyond_float_range_read_inf(self):
        terms = divergence_demo(3, 1.0, 0.0, 200)
        assert np.all(np.isfinite(terms[:80])) and np.isposinf(terms[200])
        far = divergence_demo(3, 1e6, 0.0, 200)
        assert np.all(np.isfinite(far)) and far[0] == pytest.approx(1e-6)
