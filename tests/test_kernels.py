from fractions import Fraction

import numpy as np
import pytest

from modpoisson import gegenbauer as gg
from modpoisson.errors import DomainError, SingularityError
from modpoisson.geometry import HalfSpacePoint
from modpoisson.kernels import (
    KernelParams,
    _kernel_minus_tail,
    kernel_K,
    kernel_KM_direct,
    kernel_KM_integral,
    kernel_KM_second,
    kernel_bound_first,
)

RNG = np.random.default_rng(11)


def kernel_KM_lambda_one(big_m, x, yp):
    """K_M at lam = 1 in closed form: the weight of the integral
    representation is then 1, so the zeta integral is the polynomial
    C_M(Theta) s^M - C_(M-1)(Theta) s^(M+1), with s = |x| / |y'|."""
    s = x.r / np.linalg.norm(yp)
    theta_big = x.sin_theta * np.dot(x.y_hat, yp) / np.linalg.norm(yp)
    integral = (gg.value(1.0, big_m, theta_big) * s**big_m
                - gg.value(1.0, big_m - 1, theta_big) * s ** (big_m + 1))
    return kernel_K(1.0, x, yp) * integral


def point_with(s, theta_big, r=2.0, n=3, sin_theta=0.95):
    """Interior point and boundary point realizing given s = |x|/|y'| and Theta."""
    assert abs(theta_big) <= sin_theta
    theta = np.arcsin(sin_theta)
    x = HalfSpacePoint(n=n, r=r, theta=theta, y_hat=np.eye(n - 1)[0])
    cosp = theta_big / sin_theta
    sinp = np.sqrt(max(0.0, 1.0 - cosp * cosp))
    direction = np.zeros(n - 1)
    direction[0] = cosp
    if n >= 3:
        direction[1] = sinp
    yp = (r / s) * direction
    return x, yp


def random_point(n=3):
    x = RNG.normal(size=n)
    x[-1] = abs(x[-1]) + 0.3
    return HalfSpacePoint.from_cartesian(x)


class TestBaseKernel:
    def test_direct_substitution(self):
        x = HalfSpacePoint.from_cartesian([0.0, 0.0, 1.0])
        assert kernel_K(1.5, x, np.array([1.0, 0.0])) == pytest.approx(2.0**-1.5)

    def test_unit_distance(self):
        x = HalfSpacePoint.from_cartesian([0.0, 0.0, 1.0])
        assert kernel_K(0.5, x, np.array([0.0, 0.0])) == pytest.approx(1.0)

    def test_polar_matches_cartesian(self):
        for _ in range(100):
            x = random_point(4)
            yp = RNG.normal(size=3) * 3
            cart = (np.linalg.norm(yp - x.y) ** 2 + x.x_n**2) ** -1.2
            assert kernel_K(1.2, x, yp) == pytest.approx(cart, rel=1e-12)

    def test_exact_near_the_peak(self):
        # at x_n = 1e-3 the polar form |y'|^2 - 2|y'||x|Theta + |x|^2 lost up
        # to 1.4e-9 here by cancellation; the reference is the kernel of the
        # points as stored, with the squared gap summed in exact rationals
        x = HalfSpacePoint.from_cartesian([0.8796383107645006, 0.5386140776619773, 1e-3])
        y = x.y
        for gap in np.geomspace(1e-5, 1e-1, 9):
            for angle in np.linspace(0.0, 2.0 * np.pi, 7)[:-1]:
                yp = y + gap * np.array([np.cos(angle), np.sin(angle)])
                base = sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(yp, y))
                want = float(base + Fraction(x.x_n) ** 2) ** -1.5
                assert kernel_K(1.5, x, yp) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_positive(self):
        for _ in range(50):
            x = random_point()
            yp = RNG.normal(size=2) * 5
            assert kernel_K(0.7, x, yp) > 0

    def test_vectorized(self):
        x = random_point()
        pts = RNG.normal(size=(40, 2))
        vals = kernel_K(1.5, x, pts)
        assert vals.shape == (40,)
        for i in range(40):
            assert vals[i] == pytest.approx(kernel_K(1.5, x, pts[i]))


class TestModifiedFirstKind:
    def test_m_zero_reduces_to_base(self):
        params = KernelParams(1.5, 0)
        for _ in range(20):
            x = random_point()
            yp = RNG.normal(size=2) * 3
            assert kernel_KM_direct(params, x, yp) == kernel_K(1.5, x, yp)

    def test_single_term_subtraction(self):
        # lam=1/2, M=1, x on axis (Theta = 0), y' at distance 2
        x = HalfSpacePoint.from_cartesian([0.0, 0.0, 1.0])
        got = kernel_KM_direct(KernelParams(0.5, 1), x, np.array([2.0, 0.0]))
        assert got == pytest.approx(5.0**-0.5 - 0.5, abs=1e-15)

    def test_origin_singularity(self):
        x = random_point()
        with pytest.raises(SingularityError):
            kernel_KM_direct(KernelParams(1.0, 2), x, np.array([0.0, 0.0]))

    def test_tail_vanishes_with_m_for_far_points(self):
        # for |y'| > |x| the subtracted tail converges to K, so K_M -> 0
        x = HalfSpacePoint.from_cartesian([0.5, 0.2, 0.4])
        yp = np.array([1.5, -0.8])
        s = x.r / np.linalg.norm(yp)
        vals = [abs(kernel_KM_direct(KernelParams(1.5, m), x, yp)) for m in range(13)]
        assert vals[12] < vals[6] < vals[2]
        # geometric decay up to the polynomial growth of the coefficients
        assert vals[12] < vals[2] * s**6

    def test_direction_irrelevant_on_axis(self):
        x = HalfSpacePoint(n=4, r=1.0, theta=0.0)
        params = KernelParams(2.0, 3)
        vals = set()
        for _ in range(5):
            u = RNG.normal(size=3)
            u = 2.0 * u / np.linalg.norm(u)
            vals.add(round(kernel_KM_direct(params, x, u), 15))
        assert len(vals) == 1


GRID_LAMBDAS = [0.5, 1.0, 1.5, 2.5]
GRID_S = [0.1, 0.9, 1.0, 1.1, 3.0]
GRID_THETA = [-0.9, 0.0, 0.9]


class TestIntegralRepresentation:
    @pytest.mark.parametrize("lam", GRID_LAMBDAS)
    @pytest.mark.parametrize("big_m", [1, 2, 3])
    def test_matches_direct_on_grid(self, lam, big_m):
        params = KernelParams(lam, big_m)
        for s in GRID_S:
            for tb in GRID_THETA:
                x, yp = point_with(s, tb)
                direct = kernel_KM_direct(params, x, yp)
                integral = kernel_KM_integral(params, x, yp)
                assert integral == pytest.approx(direct, abs=1e-8), (lam, big_m, s, tb)

    @pytest.mark.parametrize("lam", [0.25, 0.4])
    @pytest.mark.parametrize("big_m", [1, 2])
    def test_singular_weight_cases(self, lam, big_m):
        params = KernelParams(lam, big_m)
        for s in [0.9, 1.0, 1.1]:
            x, yp = point_with(s, 0.9)
            direct = kernel_KM_direct(params, x, yp)
            integral = kernel_KM_integral(params, x, yp)
            assert integral == pytest.approx(direct, abs=1e-8)

    @pytest.mark.parametrize("lam", [0.25, 0.4, 0.75])
    def test_near_singular_weight_settles_early(self, lam, monkeypatch):
        # Theta close to 1 puts the weight's complex singularity, Theta +-
        # i sqrt(1 - Theta^2), next to the interval; the edges graded toward
        # Theta must meet the suite's 1e-8 with refinement levels to spare
        from modpoisson import quad1d

        levels = []
        real_refine = quad1d.refine

        def counting_refine(value_at, abs_tol, rel_tol):
            def at(level):
                levels.append(level)
                return value_at(level)
            return real_refine(at, abs_tol, rel_tol)

        monkeypatch.setattr(quad1d, "refine", counting_refine)
        for big_m in (1, 2, 3):
            params = KernelParams(lam, big_m)
            for tb in (0.99, 0.999):
                for s in (0.99, 1.01, 3.0):
                    x, yp = point_with(s, tb, sin_theta=0.9999)
                    direct = kernel_KM_direct(params, x, yp)
                    integral = kernel_KM_integral(params, x, yp)
                    assert integral == pytest.approx(direct, abs=1e-8), (big_m, tb, s)
        assert levels and max(levels) < 4

    def test_theta_rounding_to_one(self):
        # sin(theta) rounds to 1 for x_n below eps |x|, so Theta = 1 and the
        # grading scale sqrt(1 - Theta^2) is 0
        x = HalfSpacePoint(n=3, r=1.0, theta=np.pi / 2 - 1e-10, y_hat=np.array([1.0, 0.0]))
        assert x.sin_theta == 1.0
        params = KernelParams(1.5, 1)
        for yp in ([0.5, 0.0], [2.0, 0.0]):
            yp = np.array(yp)
            assert kernel_KM_integral(params, x, yp) == pytest.approx(
                kernel_KM_direct(params, x, yp), abs=1e-8)

    @pytest.mark.parametrize("lam", [0.6, 0.75])
    def test_theta_at_one_with_a_singular_weight(self, lam):
        # at Theta = 1 and s = 2 > 1 the weight |zeta - 1|^(2 lam - 2) is
        # singular inside the interval, and 1 - 2 Theta zeta + zeta^2 formed
        # by subtraction rounds to 0 or below there, which gave nan
        x = HalfSpacePoint(n=3, r=1.0, theta=np.pi / 2 - 1e-10, y_hat=np.array([1.0, 0.0]))
        yp = np.array([0.5, 0.0])
        params = KernelParams(lam, 1)
        assert kernel_KM_integral(params, x, yp) == pytest.approx(
            kernel_KM_direct(params, x, yp), abs=1e-12)

    def test_small_s_limit(self):
        params = KernelParams(1.5, 2)
        x, yp = point_with(1e-8, 0.5)
        assert abs(kernel_KM_integral(params, x, yp)) < 1e-12

    def test_lambda_one_closed_form(self):
        for big_m in (1, 2, 3):
            params = KernelParams(1.0, big_m)
            for s in (0.5, 1.2, 2.5):
                x, yp = point_with(s, 0.4)
                poly = kernel_KM_lambda_one(big_m, x, yp)
                quad = kernel_KM_integral(params, x, yp)
                assert quad == pytest.approx(poly, abs=1e-12)
                assert poly == pytest.approx(kernel_KM_direct(params, x, yp), abs=1e-11)


class TestKernelMinusTail:
    @pytest.mark.parametrize("kind", ["first", "second"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_leaves_its_arguments_unchanged(self, kind, dtype):
        # a column of radii against a row of angles, as the quadrature's
        # regions about the origin pass them, and a ramp per radius
        rho = np.linspace(0.5, 3.0, 7)[:, None].astype(dtype)
        theta_big = np.linspace(-0.9, 0.9, 5)[None, :].astype(dtype)
        if dtype is complex:
            theta_big += 1e-20j
        gap2 = rho * rho - 2.4 * rho * theta_big + 1.44
        c = np.linspace(0.0, 1.0, 7)[:, None]
        args = (gap2, rho, theta_big, c)
        before = [a.copy() for a in args]
        params = KernelParams(1.5, 2, kind)
        out = _kernel_minus_tail(params, 1.3, 0.4, *args[:3], c)
        for a, b in zip(args, before):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        assert out.dtype == np.dtype(dtype) and out.shape == gap2.shape
        # the same value, bit for bit, as the out-of-place formula
        a_, b_ = (1.3, rho) if kind == "first" else (rho, 1.3)
        tail = gg.weighted_sum(1.5, 2, theta_big, a_ / b_)
        want = (gap2 + 0.4 * 0.4) ** -1.5 - c * b_ ** -3.0 * tail
        np.testing.assert_array_equal(out, want)


class TestSecondKind:
    def test_y_at_origin(self):
        x = HalfSpacePoint.from_cartesian([0.0, 0.0, 1.0])
        got = kernel_KM_second(KernelParams(0.5, 1, "second"), x, np.array([0.0, 0.0]))
        assert got == pytest.approx(0.0, abs=1e-15)

    def test_role_swap_against_first_kind_tail(self):
        # the subtracted sum is the first-kind sum with |x| and |y'| exchanged
        lam, big_m = 1.5, 3
        x = random_point()
        yp = RNG.normal(size=2) * 0.4
        norms = np.linalg.norm(yp)
        cosp = np.dot(x.y_hat, yp) / norms
        tb = x.sin_theta * cosp
        tail = sum(
            norms**m * x.r ** -(m + 2 * lam) * gg.value(lam, m, tb) for m in range(big_m)
        )
        got = kernel_KM_second(KernelParams(lam, big_m, "second"), x, yp)
        assert got == pytest.approx(kernel_K(lam, x, yp) - tail, rel=1e-11)

    def test_requires_m_at_least_one(self):
        with pytest.raises(DomainError):
            KernelParams(1.0, 0, "second")

    def test_decay_bound_structure(self):
        # |K~_M| <= C |y'|^(M-1) sec^2lam(theta) / |x|^(M+2lam-1) for small |y'|/|x|
        lam, big_m = 1.5, 2
        params = KernelParams(lam, big_m, "second")
        x = HalfSpacePoint(n=3, r=50.0, theta=0.7, y_hat=[1.0, 0.0])
        for _ in range(20):
            yp = RNG.normal(size=2)
            yp = yp / np.linalg.norm(yp) * 0.1 * x.r
            val = abs(kernel_KM_second(params, x, yp))
            norms = np.linalg.norm(yp)
            bound = (
                2 * lam * 6.0 * 2 ** (2 * lam)
                * norms ** (big_m - 1)
                * x.sec_theta ** (2 * lam)
                / x.r ** (big_m + 2 * lam - 1)
            )
            assert val <= bound


class TestBoundFirstKind:
    @pytest.mark.parametrize("big_m", [1, 2, 3])
    def test_majorizes_modified_kernel(self, big_m):
        lam = 1.5
        params = KernelParams(lam, big_m)
        for _ in range(10_000 // 4):
            x = random_point()
            yp = RNG.normal(size=2) * RNG.uniform(0.1, 6.0)
            if np.linalg.norm(yp) < 1e-3:
                continue
            km = kernel_KM_direct(params, x, yp)
            bound = kernel_bound_first(params, x, yp)
            assert abs(km) <= bound * (1 + 1e-12)

    def test_small_lambda_branch(self):
        params = KernelParams(0.25, 2)
        for _ in range(2000):
            x = random_point()
            yp = RNG.normal(size=2) * RNG.uniform(0.1, 6.0)
            if np.linalg.norm(yp) < 1e-3:
                continue
            assert abs(kernel_KM_direct(params, x, yp)) <= kernel_bound_first(params, x, yp)

    def test_vanishes_like_s_to_m(self):
        params = KernelParams(1.5, 3)
        x = HalfSpacePoint(n=3, r=1.0, theta=0.3, y_hat=[1.0, 0.0])
        b1 = kernel_bound_first(params, x, np.array([100.0, 0.0]))
        b2 = kernel_bound_first(params, x, np.array([200.0, 0.0]))
        # bound ~ s^M |y'|^-2lam = |y'|^-(M + 2 lam): doubling |y'| divides by 2^6
        assert b2 == pytest.approx(b1 / 2 ** (3 + 2 * 1.5), rel=0.05)


class TestConvention:
    def test_nonpositive_orders_give_base_kernel(self):
        # the kernel identities read K_m = K for m <= 0 as order max(m, 0)
        x = random_point()
        yp = RNG.normal(size=2)
        for m in (0, -1, -2):
            assert kernel_KM_direct(KernelParams(1.5, max(m, 0)), x, yp) == kernel_K(1.5, x, yp)

    def test_positive_orders_give_modified(self):
        x = random_point()
        yp = RNG.normal(size=2) * 2 + np.array([3.0, 0.0])
        norm = np.linalg.norm(yp)
        theta_big = x.sin_theta * np.dot(x.y_hat, yp) / norm
        tail = norm ** -3.0 * (1.0 + x.r / norm * gg.value(1.5, 1, theta_big))
        base = kernel_K(1.5, x, yp)
        assert kernel_KM_direct(KernelParams(1.5, 2), x, yp) == pytest.approx(
            base - tail, rel=1e-12, abs=1e-14 * base)
