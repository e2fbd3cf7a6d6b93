import math

import numpy as np
import pytest

from modpoisson.data import bump, shell_bump
from modpoisson.errors import DomainError
from modpoisson.expansions import HarmonicFamilyTerm, harmonic_term
from modpoisson.geometry import HalfSpacePoint
from modpoisson.kernels import KernelParams
from modpoisson.quadrature import QuadratureSpec, dirichlet_D, integral_F
from modpoisson.verification import (
    CheckReport,
    check_boundary,
    check_harmonicity,
    growth_sweep,
    harmonicity_residual,
    kernel_identity_residual,
    neumann_representation_residual,
    worst,
)
from modpoisson.suites import boundary_report, growth_report, settles, strictly_below

RNG = np.random.default_rng(23)
SPEC = QuadratureSpec()


def fd_laplacian(fn, x, h):
    """Second-order central stencil for the Laplacian: the control against
    which the fourth-order stencil of `harmonicity_residual` is measured."""
    x = np.asarray(x, dtype=float)
    center = fn(x)
    total = 0.0
    for step in h * np.eye(x.size):
        total += fn(x + step) - 2.0 * center + fn(x - step)
    return total / (h * h)


def random_interior(n, lo=0.5, hi=2.0):
    x = RNG.normal(size=n)
    x[-1] = RNG.uniform(lo, hi)
    return x


class TestFdLaplacian:
    def test_linear_field_is_flat(self):
        lap = fd_laplacian(lambda x: x[-1], np.array([0.3, -0.2, 1.0]), 1e-3)
        assert lap == pytest.approx(0.0, abs=1e-9)

    def test_quadratic_field_is_exact(self):
        lap = fd_laplacian(lambda x: float(np.dot(x, x)), np.array([0.5, 0.1, 1.2]), 1e-3)
        assert lap == pytest.approx(6.0, abs=1e-8)

    def test_cubic_harmonic_polynomial(self):
        term = HarmonicFamilyTerm("dirichlet", 2, 3)
        x = np.array([0.4, -0.3, 0.9])
        scale = max(abs(harmonic_term(term, x)), 1.0)
        assert abs(fd_laplacian(lambda p: harmonic_term(term, p), x, 1e-3)) <= 1e-8 * scale

    def test_refinement_order_on_quartic_control(self):
        def quartic(x):
            return float(np.dot(x, x)) ** 2

        def exact(x):
            n = x.size
            return 4.0 * (n + 2) * float(np.dot(x, x))

        x = np.array([0.7, -0.4, 1.1])
        errors = [abs(fd_laplacian(quartic, x, h) - exact(x)) for h in (1e-2, 5e-3)]
        order = np.log2(errors[0] / errors[1])
        assert 1.8 <= order <= 2.2


class TestHarmonicity:
    @staticmethod
    def sphere_scale(fn, radius, n, samples=24):
        dirs = RNG.normal(size=(samples, n))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        return max(abs(fn(radius * d)) for d in dirs)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_harmonic_families(self, n):
        families = [("dirichlet", m) for m in range(7)]
        if n >= 3:
            families += [("neumann", m) for m in range(7)]
        for family, m in families:
            term = HarmonicFamilyTerm(family, m, n)
            fn = lambda p: harmonic_term(term, p)
            for _ in range(5):
                direction = RNG.normal(size=n)
                direction[-1] = abs(direction[-1]) + 0.25
                direction /= np.linalg.norm(direction)
                radius = RNG.uniform(1.5, 2.5)
                residual = harmonicity_residual(fn, [radius * direction], h=1.2e-4,
                                                scale=self.sphere_scale(fn, radius, n))
                assert residual <= 1e-6, (family, m, n, residual)

    def test_inverse_power_fields(self):
        # |x|^-(2m + n - 2) times the degree-m solid harmonic is harmonic
        # away from the origin
        n = 3
        term = HarmonicFamilyTerm("neumann", 3, n)

        def field(p):
            r = float(np.linalg.norm(p))
            return harmonic_term(term, p) / r ** (2 * 3 + n - 2)

        points = [random_interior(n, lo=1.0, hi=2.0) for _ in range(5)]
        residual = harmonicity_residual(field, points, h=1e-4,
                                        scale=self.sphere_scale(field, 1.5, n))
        assert residual <= 1e-6, residual

    def test_dirichlet_integral_is_harmonic(self):
        f = bump(3, center=[2.0, 0.0], radius=1.0)
        spec = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11)

        def field(p):
            return dirichlet_D(f, HalfSpacePoint.from_cartesian(p), spec)

        points = [np.array([0.5, 0.3, 0.8]), np.array([-1.0, 0.5, 1.5])]
        report = check_harmonicity(field, points, h=1e-2, tol=1e-4,
                                   name="dirichlet_harmonic")
        assert report.passed, report.residual

    def test_assembled_solution_with_growth_data_is_harmonic(self):
        # shells with polynomially growing amplitudes, assembled through the
        # cutoff split with a nonzero modification order
        from modpoisson.data import bump_train
        from modpoisson.quadrature import solution_u

        f = bump_train(3, radii=(4.0, 16.0), growth=1.0)
        spec = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10)

        def field(p):
            return solution_u(f, 2, HalfSpacePoint.from_cartesian(p), spec)

        points = [np.array([0.5, 0.3, 0.8]), np.array([-1.5, 6.0, 2.0]),
                  np.array([8.0, 1.0, 3.0])]
        report = check_harmonicity(field, points, h=5e-3, tol=1e-4,
                                   name="growth_solution_harmonic")
        assert report.passed, report.residual


class TestHarmonicityStencil:
    """The check's stencil on a closed-form harmonic field: the Poisson
    kernel x_n / |x - (y0, 0)|^n with its pole on the boundary at y0."""

    N = 3
    H = 5e-3
    TOL = 1e-4
    # close to the boundary, where the kernel is small against its fourth
    # derivatives
    POINT = np.array([1.5, 0.2, 0.05])

    @classmethod
    def poisson_kernel(cls, x):
        offset = np.array(x, dtype=float)
        offset[0] -= 0.5
        return x[-1] / float(np.linalg.norm(offset)) ** cls.N

    @classmethod
    def stencil_max(cls, fn, x):
        steps = [np.zeros(cls.N)] + [sign * k * cls.H * e for e in np.eye(cls.N)
                                     for k in (1, 2) for sign in (1.0, -1.0)]
        return max(abs(fn(x + s)) for s in steps)

    def test_harmonic_field_passes_where_truncation_dominated(self):
        fn, x = self.poisson_kernel, self.POINT
        # the second-order stencil's own truncation error exceeds the tolerance
        assert abs(fd_laplacian(fn, x, self.H)) / self.stencil_max(fn, x) > self.TOL
        report = check_harmonicity(fn, [x], h=self.H, tol=self.TOL, name="poisson_kernel")
        assert report.passed, report.residual
        assert report.residual <= 1e-6

    def test_non_harmonic_control_fails(self):
        n, x = self.N, self.POINT
        delta = 10 * self.TOL * self.stencil_max(self.poisson_kernel, x) / (2 * n)

        def field(p):
            return self.poisson_kernel(p) + delta * float(np.dot(p, p))

        expected = 2 * n * delta / self.stencil_max(field, x)
        report = check_harmonicity(field, [x], h=self.H, tol=self.TOL, name="control")
        assert not report.passed
        assert report.residual == pytest.approx(expected, rel=1e-2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_each_stencil_point_evaluated_once(self, n):
        calls = []

        def field(p):
            calls.append(p.copy())
            return float(p[-1])

        x = np.full(n, 0.5)
        harmonicity_residual(field, [x, x + 0.1], h=1e-2)
        assert len(calls) == 2 * (4 * n + 1)
        assert len({tuple(p) for p in calls}) == len(calls)

    def test_stencil_must_stay_in_half_space(self):
        with pytest.raises(DomainError):
            harmonicity_residual(lambda p: p[-1], [np.array([0.0, 0.0, 0.015])], h=1e-2)

    def test_report_wraps_the_residual(self):
        fn, x = self.poisson_kernel, self.POINT
        report = check_harmonicity(fn, [x], h=self.H, tol=self.TOL, name="wrapped")
        assert report.residual == harmonicity_residual(fn, [x], h=self.H)
        assert report.tolerance == self.TOL and report.name == "wrapped"

    def test_nan_field_fails(self):
        # max(0.0, nan) is 0.0: a plain fold would pass a field that is NaN
        report = check_harmonicity(lambda p: float("nan"), [np.array([0.0, 0.0, 1.0])],
                                   h=1e-2, tol=1e-6, name="nan")
        assert math.isnan(report.residual)
        assert not report.passed

    def test_nan_at_a_later_point_fails(self):
        # a finite residual first, then NaN: the fold must not keep the finite one
        def field(p):
            return p[-1] if p[0] < 0.5 else float("nan")

        points = [np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 1.0])]
        assert math.isnan(harmonicity_residual(field, points, h=1e-2))


class TestWorst:
    def test_largest_residual_and_floor(self):
        assert worst([0.5, 2.0, 1.0]) == 2.0
        assert worst([]) == 0.0
        assert worst([-3.0, -1.0], -math.inf) == -1.0

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_nan_anywhere_gives_nan(self, position):
        residuals = [1.0, 2.0, 3.0]
        residuals[position] = float("nan")
        assert math.isnan(worst(residuals))
        assert math.isnan(worst(np.array(residuals)))


class TestBoundary:
    def test_dirichlet_recovers_bump_center(self):
        f = bump(3, radius=8.0)
        report = boundary_report("dirichlet", f, [0.0, 0.0], [0.1, 0.01, 0.001], 1e-3)
        assert report.passed, report.parameters

    def test_dirichlet_vanishes_off_support(self):
        f = bump(3, center=[0.0, 0.0], radius=1.0)
        gaps = check_boundary("dirichlet", f, [6.0, 0.0], [0.1, 0.01])
        assert len(gaps) == 2
        assert settles(gaps)
        assert gaps[-1] < 2e-3

    def test_neumann_normal_derivative(self):
        f = bump(3, radius=8.0)
        report = boundary_report("neumann", f, [0.0, 0.0], [0.1, 0.01], 5e-3)
        assert report.passed, report.parameters


PROP31_IDS = ["i", "ii", "iii", "iv", "v", "vi", "vii", "viii"]


class TestProp31:
    def sample_pair(self, n=3):
        x = HalfSpacePoint(
            n=n,
            r=RNG.uniform(0.5, 3.0),
            theta=RNG.uniform(0.15, 1.35),
            y_hat=self.random_unit(n - 1),
        )
        yp = RNG.normal(size=n - 1)
        yp *= RNG.uniform(1.0, 4.0) / np.linalg.norm(yp)
        # keep clear of the kernel contact point, where differences blow up
        if np.linalg.norm(yp - x.y) ** 2 + x.x_n**2 < 0.25:
            return self.sample_pair(n)
        return x, yp

    @staticmethod
    def random_unit(k):
        v = RNG.normal(size=k)
        return v / np.linalg.norm(v)

    @pytest.mark.parametrize("identity", PROP31_IDS)
    @pytest.mark.parametrize("lam", [0.5, 1.5])
    def test_identities_on_random_samples(self, identity, lam):
        for big_m in range(4):
            for _ in range(13):
                x, yp = self.sample_pair()
                residual = kernel_identity_residual(identity, lam, big_m, x, yp)
                assert residual <= 1e-6, (identity, lam, big_m, residual)

    def test_convention_kernels_in_v(self):
        # for M in {0, 1} the right side degenerates to the base kernel
        for big_m in (0, 1):
            x, yp = self.sample_pair()
            assert kernel_identity_residual("v", 0.5, big_m, x, yp) <= 1e-6

    def test_viii_zero_at_aligned_directions(self):
        x = HalfSpacePoint(n=3, r=1.5, theta=0.8, y_hat=[1.0, 0.0])
        for yp in (np.array([2.0, 0.0]), np.array([-2.0, 0.0])):
            assert kernel_identity_residual("viii", 1.5, 2, x, yp) <= 1e-6

    def test_dimension_four(self):
        x, yp = self.sample_pair(4)
        for identity in ("i", "v", "vii"):
            assert kernel_identity_residual(identity, 1.0, 2, x, yp) <= 1e-6


@pytest.fixture(scope="module")
def annular_data():
    return shell_bump(3, 2.0, 3.0)


class TestProp32:

    def test_trivial_anchor_is_exact(self, annular_data):
        x = HalfSpacePoint(n=3, r=1.5, theta=0.7, y_hat=[1.0, 0.0])
        assert neumann_representation_residual("v", annular_data, 1, x, anchor=x.x_n,
                                               spec=SPEC) < 1e-9
        assert neumann_representation_residual("i", annular_data, 1, x, anchor=x.theta,
                                               spec=SPEC) < 1e-9

    @pytest.mark.parametrize("representation,anchor_kind", [
        ("i", "theta"), ("ii", "radius"), ("iii", "coord"),
        ("iv", "proj"), ("v", "height"),
    ])
    @pytest.mark.parametrize("big_m", [1, 2])
    def test_nontrivial_anchors(self, annular_data, representation, anchor_kind, big_m):
        x = HalfSpacePoint(n=3, r=1.5, theta=0.7, y_hat=[1.0, 0.0])
        anchor = {
            "theta": x.theta / 2.0,
            "radius": x.r / 2.0,
            "coord": x.y[0] - 0.5,
            "proj": (x.r * x.sin_theta) / 2.0,
            "height": 2.0 * x.x_n,
        }[anchor_kind]
        residual = neumann_representation_residual(representation, annular_data, big_m, x,
                                                   anchor, SPEC)
        assert residual <= 1e-5, (representation, big_m, residual)

    def test_rejects_origin_touching_support(self):
        f = bump(3, radius=1.0)
        x = HalfSpacePoint(n=3, r=1.5, theta=0.7, y_hat=[1.0, 0.0])
        with pytest.raises(DomainError):
            neumann_representation_residual("v", f, 1, x, anchor=1.0)


class TestGrowthSweep:
    def test_zero_data_sweeps_flat(self):
        assert growth_sweep(lambda x: 0.0, [8, 16, 32], 1.0, 1.0) == [0.0, 0.0, 0.0]
        report = growth_report("zero", lambda x: 0.0, [8, 16, 32], 1.0, 1.0)
        assert report.passed
        assert report.residual == 0.0

    def test_modified_integral_sweep(self):
        f = shell_bump(3, 2.0, 3.0)
        lam, big_m = 0.5, 1
        params = KernelParams(lam, big_m)
        spec = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10)
        report = growth_report("modified_integral_growth",
                               lambda x: integral_F(params, f, x, spec),
                               [24, 48, 96, 192], 2 * lam, big_m)
        assert report.passed, report.parameters

    def test_failing_sweep_reports_infinite_residual(self):
        report = growth_report("growing", lambda x: x.r ** 3, [8, 16, 32, 64], 0.0, 1.0)
        assert not report.passed
        assert report.residual == math.inf
        # the sequence itself: |x|^3 / |x| at theta = 0
        assert report.parameters["weighted_sequence"] == [64.0, 256.0, 1024.0, 4096.0]

    def test_settles_allows_a_five_percent_step(self):
        assert settles([1.0, 1.05, 0.5])
        assert not settles([1.0, 1.06, 0.5])
        assert settles([])


class TestCheckReport:
    def test_pass_consistency(self):
        r = CheckReport("demo", residual=1e-7, tolerance=1e-6)
        assert r.passed
        r2 = CheckReport("demo", residual=2e-6, tolerance=1e-6)
        assert not r2.passed

    def test_json_round_trip(self):
        import json

        r = CheckReport("demo", 0.5, 1.0, {"a": 1})
        rec = json.loads(json.dumps(r.as_record()))
        assert list(rec) == ["name", "parameters", "residual", "tolerance", "pass"]
        assert rec["pass"] is True
        assert rec["residual"] == 0.5
        assert rec["parameters"] == {"a": 1}

    def test_strictly_below_rejects_the_bound_itself(self):
        # a sign check's minimum of exactly 0.0 is not positive
        assert not strictly_below("sign", -0.0, 0.0).passed
        assert not strictly_below("sign", 0.0, 0.0).passed
        assert strictly_below("sign", -5e-324, 0.0).passed
        assert not strictly_below("decay", 1.0, 1.0).passed
        assert strictly_below("decay", 0.9999999999999999, 1.0).passed
