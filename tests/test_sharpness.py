import math

import numpy as np
import pytest

from modpoisson import gegenbauer as gg
from modpoisson.errors import ConstructionError, DomainError
from modpoisson.geometry import HalfSpacePoint
from modpoisson.kernels import KernelParams
from modpoisson.quadrature import QuadratureSpec, integral_F
from modpoisson.sharpness import (
    _band_interval,
    _far_cone_mask,
    balanced_sign_integral,
    compute_constants,
    data_balls_super_extension,
    data_half_balls,
    km_cone_minimum,
    lower_bound_ratio,
    phi_band_minimum,
)
from modpoisson.suites import strictly_below


class TestConstants:
    def test_beta1_is_one_for_first_order(self):
        assert compute_constants(0.7, 1).beta1 == 1.0
        assert compute_constants(2.5, 1).beta1 == 1.0

    def test_beta1_is_smallest_positive_root_of_the_pair(self):
        c = compute_constants(0.5, 3)
        candidates = [r for r in gg.roots(0.5, 3) if r > 0]
        candidates += [r for r in gg.roots(0.5, 2) if r > 0]
        assert c.beta1 == pytest.approx(min(candidates))

    def test_gamma_closed_form_first_order(self):
        c = compute_constants(0.5, 1)
        assert c.gamma == pytest.approx(1.0)
        assert c.r0 == pytest.approx(2.0**0.25)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 2.5])
    @pytest.mark.parametrize("big_m", [1, 2, 3, 4])
    def test_invariants(self, lam, big_m):
        c = compute_constants(lam, big_m)
        # gamma from its defining sum
        gamma = sum(2.0**m * gg.value_at_one(lam, m) for m in range(big_m)) ** (-1.0 / lam)
        assert c.gamma == pytest.approx(gamma, rel=1e-12)
        # r0 solves the quartic
        assert c.r0**4 + (1.0 - c.gamma) * c.r0**2 - 2.0 == pytest.approx(0.0, abs=1e-10)
        assert c.r0 > 1.0
        # the cone ratio respects all three caps with margin
        upper = min(2.0, c.r0)
        if big_m >= 1 and math.cos(math.pi / (2 * big_m)) > 1e-12:
            upper = min(upper, 1.0 / math.cos(math.pi / (2 * big_m)))
        assert 1.0 < c.cone_ratio < upper
        # reflection amplitude at least the base factor
        base = ((c.cone_ratio + 1.0) / (c.cone_ratio - 1.0)) ** (2.0 * lam)
        assert c.reflection_amp >= base * (1 - 1e-12)
        # parity split
        assert c.big_m == 2 * c.mu + c.eps0
        assert c.half_sign == (-1) ** math.ceil(big_m / 2)

    def test_rejects_m_zero(self):
        with pytest.raises(DomainError):
            compute_constants(1.0, 0)


class TestRegions:
    def test_band_membership_even_order(self):
        c = compute_constants(1.0, 2)
        lo, hi = _band_interval(c)
        assert lo <= c.beta1 / 2.5 <= hi
        assert not lo <= 1.0 <= hi

    def test_band_membership_odd_order_uses_mirrored_side(self):
        c = compute_constants(1.0, 3)
        lo, hi = _band_interval(c)
        assert lo <= -c.beta1 / 2.5 <= hi
        assert not lo <= c.beta1 / 2.5 <= hi

    def test_cone_contains_axis_ray(self):
        c = compute_constants(1.5, 1)
        x = HalfSpacePoint(n=3, r=10.0, theta=1.4)
        inside = _far_cone_mask(c, x, np.array([[5.0, 0.0], [0.5, 0.0], [0.0, 5.0]]))
        assert inside.tolist() == [True, False, False]

    def test_far_portions_are_reflections(self):
        c = compute_constants(1.5, 1)
        x = HalfSpacePoint(n=3, r=30.0, theta=1.4)
        pts = np.random.default_rng(5).normal(size=(200, 2)) * 12.0
        mask = _far_cone_mask(c, x, pts)
        assert np.array_equal(mask, _far_cone_mask(c, x, pts * [-1.0, 1.0]))
        assert mask[pts[:, 0] > 0].any() and mask[pts[:, 0] < 0].any()


class TestSignChecks:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 2.5])
    @pytest.mark.parametrize("big_m", [1, 2, 3, 4])
    def test_band_sign_passes(self, lam, big_m):
        assert phi_band_minimum(lam, big_m, seed=42) > 0

    def test_control_outside_band_fails(self):
        for lam, big_m in ((1.5, 1), (0.5, 2), (1.0, 3)):
            assert phi_band_minimum(lam, big_m, seed=42, control=True) < 0

    @pytest.mark.parametrize("lam,big_m", [(0.5, 1), (1.5, 1), (0.5, 2), (1.5, 2), (1.0, 2)])
    def test_cone_ratio_positive(self, lam, big_m):
        theta = max(1.45, compute_constants(lam, big_m).theta0 + 0.01)
        x = HalfSpacePoint(n=3, r=12.0, theta=theta)
        assert km_cone_minimum(lam, big_m, x, seed=42) > 0

    def test_cone_check_dimension_four(self):
        theta = max(1.45, compute_constants(1.0, 2).theta0 + 0.01)
        x = HalfSpacePoint(n=4, r=12.0, theta=theta)
        assert km_cone_minimum(1.0, 2, x, seed=7) > 0

    def test_cone_check_rejects_shallow_angle(self):
        x = HalfSpacePoint(n=3, r=12.0, theta=0.4)
        with pytest.raises(DomainError):
            km_cone_minimum(0.5, 1, x)

    def test_m_zero_is_rejected(self):
        x = HalfSpacePoint(n=3, r=12.0, theta=1.45)
        with pytest.raises(DomainError):
            km_cone_minimum(0.5, 0, x)

    def test_beta_identity_at_contact(self):
        # Gamma(2 lam + M) / (Gamma(2 lam) Gamma(M)) * B(2 lam, M) = 1
        from scipy.special import gammaln

        from modpoisson import quad1d

        for lam, big_m in ((0.5, 1), (1.5, 2), (2.5, 3)):
            prefactor = math.exp(
                gammaln(2 * lam + big_m) - gammaln(2 * lam) - gammaln(big_m)
            )
            beta_integral, _ = quad1d.adaptive(
                lambda z: (1.0 - z) ** (2 * lam - 1) * z ** (big_m - 1),
                [0.0, 0.5, 0.9, 0.99, 0.999, 1.0],
                1e-12,
            )
            assert prefactor * beta_integral == pytest.approx(1.0, rel=1e-9)


class TestHalfBallData:
    def test_single_ball_mass(self):
        # integral of (1 - |u|) |u_1| over the half ball, against the closed
        # polar form: for the 2-d boundary it is 2 * int (1-r) r^2 dr * int
        # |cos| over the half circle = 2 * (1/12) * 1 = 1/6... computed here
        # by direct 2-d Riemann as the oracle
        f = data_half_balls(3, psi_values=[1.0], centers=[4.0], lam=0.5, big_m=2)
        cells = 1500
        axis = np.linspace(-1.2, 1.2, cells) + 0.0
        gx, gy = np.meshgrid(axis, axis + 4.0)
        pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        vals = f(pts)
        got = vals.sum() * (2.4 / cells) ** 2
        amp = 4.0 ** (2 * 0.5)
        sign = (-1) ** (1 + 0)  # mu=1, eps0=0 for M=2
        expected = sign * amp * (1.0 / 6.0)
        assert got == pytest.approx(expected, rel=2e-3)

    def test_continuity_across_flat_face(self):
        f = data_half_balls(3, [1.0], [4.0], lam=0.5, big_m=1)
        eps = 1e-9
        near = f(np.array([[-eps, 4.2], [eps, 4.2], [0.0, 4.2]]))
        np.testing.assert_allclose(near, 0.0, atol=1e-8)

    def test_half_restriction_sign(self):
        # M=1 (odd): support on y_1' <= 0
        f = data_half_balls(3, [1.0], [4.0], lam=0.5, big_m=1)
        assert f(np.array([0.3, 4.0])) == 0.0
        assert f(np.array([-0.3, 4.0])) != 0.0
        # M=2 (even): support on y_1' >= 0
        g = data_half_balls(3, [1.0], [4.0], lam=0.5, big_m=2)
        assert g(np.array([0.3, 4.0])) != 0.0
        assert g(np.array([-0.3, 4.0])) == 0.0

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConstructionError):
            data_half_balls(3, [1.0], [1.5], lam=0.5, big_m=1)
        with pytest.raises(ConstructionError):
            data_half_balls(3, [1.0, 1.0], [4.0, 5.0], lam=0.5, big_m=1)

    @pytest.mark.parametrize("psi, centers", [
        ([1.0], [np.nan]), ([1.0, 1.0], [4.0, np.inf]), ([np.nan], [4.0]), ([np.inf], [4.0]),
    ])
    def test_rejects_non_finite_parameters(self, psi, centers):
        # a NaN centre passes every comparison and leaves no ball to integrate
        with pytest.raises(ConstructionError, match="must be finite"):
            data_half_balls(3, psi, centers, lam=0.5, big_m=1)

    def test_amplitude_summability_pattern(self):
        # psi_i = c_i / i^2 within the admitted envelope: the normalized
        # series terms f_i c_i^-(M + 2 lam) fall like 1/i^2
        lam, big_m = 0.5, 1
        centers = [4.0, 16.0, 64.0]
        psi = [c**big_m / (i + 1) ** 2 for i, c in enumerate(centers)]
        f = data_half_balls(3, psi, centers, lam, big_m)
        terms = [
            p * c ** (2 * lam) * c ** -(big_m + 2 * lam) for p, c in zip(psi, centers)
        ]
        ratios = [t * (i + 1) ** 2 for i, t in enumerate(terms)]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)

    def test_lower_bound_measured(self):
        lam, big_m = 0.5, 1
        centers = [4.0, 16.0]
        psi = [1.0, 1.0]
        f = data_half_balls(3, psi, centers, lam, big_m)
        for j, c in enumerate(centers):
            x = HalfSpacePoint(n=3, r=c, theta=0.3)
            assert lower_bound_ratio(f, lam, big_m, x, scale=psi[j]) > 0

    def test_zero_lower_bound_fails(self):
        # zero data give a ratio of exactly 0.0, which certifies nothing
        f = data_half_balls(3, [0.0, 0.0], [4.0, 16.0], 0.5, 1)
        ratio = lower_bound_ratio(f, 0.5, 1, HalfSpacePoint(n=3, r=4.0, theta=0.3), scale=1.0)
        assert ratio == 0.0
        # judged as the lower-bound suite checks judge it
        assert not strictly_below("lower_bound", -ratio, 0.0).passed


class TestSuperBallData:
    def make(self, lam=1.5, big_m=1):
        return data_balls_super_extension(
            3, a_values=[20.0, 60.0], b_values=[1.5, 4.5],
            amplitudes=[1.0, 1.0], lam=lam, big_m=big_m,
        )

    def test_reflection_identity(self):
        lam, big_m = 1.5, 1
        f = self.make(lam, big_m)
        c = compute_constants(lam, big_m)
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(400, 2)) * np.array([4.0, 2.0]) + np.array([20.0, 0.0])
        vals = f(pts)
        mirrored = pts.copy()
        mirrored[:, 0] = -mirrored[:, 0]
        np.testing.assert_allclose(
            f(mirrored), (-1.0) ** big_m * c.reflection_amp * vals, atol=1e-12
        )

    def test_summability_terms(self):
        # amplitudes built from psi_i = a^(M+2 lam) b^(-2 lam) / i^2 give
        # series terms f_i b^(n-1) / a^(M+2 lam) = 1 / i^2 exactly
        lam, big_m, n = 1.5, 1, 3
        a_values, b_values = [20.0, 60.0], [1.5, 4.5]
        amps = []
        for i, (a, b) in enumerate(zip(a_values, b_values)):
            psi = a ** (big_m + 2 * lam) * b ** (-2 * lam) / (i + 1) ** 2
            amps.append(psi * b ** (2 * lam - n + 1))
        terms = [
            amp * b ** (n - 1) / a ** (big_m + 2 * lam)
            for amp, a, b in zip(amps, a_values, b_values)
        ]
        np.testing.assert_allclose(terms, [1.0, 0.25], rtol=1e-12)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConstructionError):
            data_balls_super_extension(3, [20.0], [12.0], [1.0], 1.5, 1)
        with pytest.raises(ConstructionError):
            data_balls_super_extension(3, [20.0, 30.0], [1.5, 1.5], [1.0, 1.0], 1.5, 1)

    @pytest.mark.parametrize("a, b, amps", [
        ([np.nan], [1.5], [1.0]), ([20.0], [np.nan], [1.0]), ([20.0], [1.5], [np.nan]),
        ([20.0, np.inf], [1.5, 4.5], [1.0, 1.0]), ([20.0], [1.5], [-np.inf]),
    ])
    def test_rejects_non_finite_parameters(self, a, b, amps):
        with pytest.raises(ConstructionError, match="must be finite"):
            data_balls_super_extension(3, a, b, amps, 1.5, 1)

    def test_balanced_sign_integral_nonnegative(self):
        lam, big_m = 1.5, 1
        f = self.make(lam, big_m)
        a2, b2 = 60.0, 4.5
        x = HalfSpacePoint.from_cartesian([a2, 0.0, b2])
        value = balanced_sign_integral(f, lam, big_m, x)
        assert value >= -1e-10

    def test_lower_bound_measured(self):
        lam, big_m, n = 1.5, 1, 3
        f = self.make(lam, big_m)
        for a, b in ((20.0, 1.5), (60.0, 4.5)):
            x = HalfSpacePoint.from_cartesian([a, 0.0, b])
            scale = 1.0 * b ** (n - 1 - 2 * lam)
            assert lower_bound_ratio(f, lam, big_m, x, scale=scale) > 0

    def test_lower_bound_stable_under_refinement(self):
        lam, big_m, n = 1.5, 1, 3
        f = self.make(lam, big_m)
        x = HalfSpacePoint.from_cartesian([20.0, 0.0, 1.5])
        scale = 1.5 ** (n - 1 - 2 * lam)
        # the ratio's 1e-8 integral against a 1e-6 solve of the same integral
        loose = integral_F(KernelParams(lam, big_m), f, x,
                           QuadratureSpec(abs_tol=1e-6, rel_tol=1e-6)) / scale
        tight = lower_bound_ratio(f, lam, big_m, x, scale=scale)
        assert loose == pytest.approx(tight, rel=0.1)
