import numpy as np
import pytest

from modpoisson.errors import DomainError
from modpoisson.geometry import (
    HalfSpacePoint,
    cos_theta_prime_array,
    row_norms,
)

RNG = np.random.default_rng(7)


def random_interior_point(n):
    x = RNG.normal(size=n)
    x[-1] = abs(x[-1]) + 0.1
    return x


class TestHalfSpacePoint:
    def test_roundtrip_cartesian(self):
        for n in (2, 3, 4, 5):
            for _ in range(20):
                x = random_interior_point(n)
                p = HalfSpacePoint.from_cartesian(x)
                np.testing.assert_allclose(np.append(p.y, p.x_n), x, atol=1e-12)

    def test_polar_fields(self):
        p = HalfSpacePoint.from_cartesian([1.0, 0.0, 1.0])
        assert p.r == pytest.approx(np.sqrt(2))
        assert p.theta == pytest.approx(np.pi / 4)
        np.testing.assert_allclose(p.y_hat, [1.0, 0.0])
        assert p.x_n == pytest.approx(1.0)

    def test_axis_point_gets_canonical_direction(self):
        p = HalfSpacePoint.from_cartesian([0.0, 0.0, 2.0])
        assert p.theta == 0.0
        np.testing.assert_allclose(p.y_hat, [1.0, 0.0])

    def test_rejects_boundary_and_exterior(self):
        with pytest.raises(DomainError):
            HalfSpacePoint.from_cartesian([1.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            HalfSpacePoint.from_cartesian([1.0, 0.0, -0.5])
        with pytest.raises(DomainError):
            HalfSpacePoint(n=3, r=-1.0, theta=0.1)

    def test_unit_direction_enforced(self):
        p = HalfSpacePoint(n=3, r=1.0, theta=0.4, y_hat=[3.0, 4.0])
        assert np.linalg.norm(p.y_hat) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("y_hat", [[np.nan, 0.0], [np.inf, 0.0], [1.0, -np.inf]])
    def test_non_finite_direction_is_rejected(self, y_hat):
        # a NaN passes the unit-norm test and an infinite one normalises to
        # NaN; either would give the zonal rule a NaN frame
        with pytest.raises(DomainError, match="finite"):
            HalfSpacePoint(n=3, r=1.0, theta=0.4, y_hat=y_hat)


def cos_theta_prime(x, yp):
    """cos(theta') of one boundary point through the production array path."""
    return float(cos_theta_prime_array(x, np.atleast_2d(np.asarray(yp, dtype=float)))[0])


def big_theta(x, yp):
    """Theta = sin(theta) cos(theta'), as the kernels form it."""
    return x.sin_theta * cos_theta_prime(x, yp)


class TestThetaPrime:
    def test_parallel(self):
        x = HalfSpacePoint(n=3, r=1.0, theta=np.pi / 4, y_hat=[1.0, 0.0])
        assert cos_theta_prime(x, np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal(self):
        x = HalfSpacePoint(n=3, r=1.0, theta=np.pi / 4, y_hat=[1.0, 0.0])
        assert cos_theta_prime(x, np.array([0.0, 1.0])) == 0.0

    def test_axis_convention(self):
        # theta = 0: y vanishes, so theta' = pi/2 for every boundary point
        x = HalfSpacePoint(n=3, r=1.0, theta=0.0)
        assert cos_theta_prime(x, np.array([0.3, -2.0])) == 0.0
        pts = RNG.normal(size=(20, 2))
        assert np.array_equal(cos_theta_prime_array(x, pts), np.zeros(20))

    def test_zero_boundary_point_convention(self):
        x = HalfSpacePoint(n=3, r=1.0, theta=0.5, y_hat=[0.0, 1.0])
        assert cos_theta_prime(x, np.array([0.0, 0.0])) == 0.0

    def test_n2_sign_convention(self):
        # boundary dimension one: theta' is 0 on the same side, pi on the
        # opposite side, pi/2 at the zero vector
        x = HalfSpacePoint(n=2, r=np.sqrt(2), theta=np.pi / 4, y_hat=[1.0])
        got = cos_theta_prime_array(x, np.array([[2.5], [-2.5], [0.0]]))
        assert np.array_equal(got, [1.0, -1.0, 0.0])

    def test_rotation_invariance(self):
        # simultaneous rotation of y_hat and y' about the normal axis
        for n in (3, 4):
            x = random_interior_point(n)
            while np.linalg.norm(x[:-1]) < 0.2:
                x = random_interior_point(n)
            yp = RNG.normal(size=(8, n - 1))
            p = HalfSpacePoint.from_cartesian(x)
            base = cos_theta_prime_array(p, yp)
            for _ in range(5):
                a = RNG.normal(size=(n - 1, n - 1))
                q, _ = np.linalg.qr(a)
                if np.linalg.det(q) < 0:
                    q[:, 0] = -q[:, 0]
                p_rot = HalfSpacePoint(n=n, r=p.r, theta=p.theta, y_hat=q @ p.y_hat)
                np.testing.assert_allclose(cos_theta_prime_array(p_rot, yp @ q.T), base,
                                           rtol=0, atol=1e-12)


class TestBigTheta:
    def test_aligned(self):
        x = HalfSpacePoint.from_cartesian([1.0, 0.0, 1.0])
        assert big_theta(x, np.array([2.0, 0.0])) == pytest.approx(np.sqrt(2) / 2)

    def test_orthogonal(self):
        x = HalfSpacePoint.from_cartesian([1.0, 0.0, 1.0])
        assert big_theta(x, np.array([0.0, 1.0])) == pytest.approx(0.0, abs=1e-15)

    def test_axis_point(self):
        x = HalfSpacePoint.from_cartesian([0.0, 0.0, 1.0])
        assert big_theta(x, np.array([4.0, 5.0])) == pytest.approx(0.0, abs=1e-15)

    def test_range_and_dot_product_form(self):
        for _ in range(50):
            x = HalfSpacePoint.from_cartesian(random_interior_point(4))
            yp = RNG.normal(size=3)
            val = big_theta(x, yp)
            assert -1.0 <= val <= 1.0
            if x.theta > 0 and np.linalg.norm(yp) > 0:
                expected = x.sin_theta * np.dot(x.y_hat, yp) / np.linalg.norm(yp)
                assert val == pytest.approx(expected, abs=1e-12)


class TestRowNorms:
    @pytest.mark.parametrize("d", range(1, 8))
    @pytest.mark.parametrize("lead", [(257,), (5, 9)])
    def test_bit_identical_to_linalg_norm(self, d, lead):
        pts = RNG.normal(size=lead + (d,)) * 10.0 ** RNG.integers(-150, 150, size=lead + (d,))
        assert np.array_equal(row_norms(pts), np.linalg.norm(pts, axis=-1))

    @pytest.mark.parametrize("d", range(1, 8))
    def test_zero_rows(self, d):
        pts = RNG.normal(size=(6, d))
        pts[[0, 3]] = 0.0
        norms = row_norms(pts)
        assert np.array_equal(norms, np.linalg.norm(pts, axis=-1))
        assert norms[0] == 0.0 and norms[3] == 0.0
