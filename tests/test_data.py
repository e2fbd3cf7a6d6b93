import dataclasses

import numpy as np
import pytest

from modpoisson.data import bump, bump_train, constant, exp_decay, poly_growth, shell_bump
from modpoisson.errors import ConstructionError

RNG = np.random.default_rng(11)

RADIAL = {
    "constant": lambda n: constant(n, 2.5),
    "bump": lambda n: bump(n, radius=3.0),
    "shell_bump": lambda n: shell_bump(n, 1.0, 3.0),
    "bump_train": lambda n: bump_train(n, radii=(2.0, 4.0), width=0.5),
    "exp_decay": lambda n: exp_decay(n, 0.7),
    "poly_growth": lambda n: poly_growth(n, 1.5),
}


class TestRadialDeclaration:
    @pytest.mark.parametrize("name", sorted(RADIAL))
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_declared_radial_data_are_rotation_invariant(self, name, n):
        data = RADIAL[name](n)
        np.testing.assert_array_equal(data.radial_center, np.zeros(n - 1))
        rho = np.linspace(0.05, 4.5, 37)
        axis = np.eye(n - 1)[0]
        on_axis = data(rho[:, None] * axis)
        for _ in range(5):
            u = RNG.normal(size=n - 1)
            u /= np.linalg.norm(u)
            assert data(rho[:, None] * u) == pytest.approx(on_axis, rel=1e-13, abs=1e-15)

    def test_off_centre_bump_declares_its_centre(self):
        data = bump(3, center=[2.0, 0.0])
        np.testing.assert_array_equal(data.radial_center, [2.0, 0.0])
        np.testing.assert_array_equal(bump(4, center=2.0).radial_center, [2.0, 0.0, 0.0])
        np.testing.assert_array_equal(bump(3, center=[0.0, 0.0]).radial_center, [0.0, 0.0])
        # radial about that centre, not about the origin
        rho = np.linspace(0.05, 0.95, 11)
        on_axis = data(data.radial_center + rho[:, None] * [1.0, 0.0])
        assert data(data.radial_center + rho[:, None] * [0.6, -0.8]) == pytest.approx(
            on_axis, rel=1e-13, abs=1e-15)

    def test_scaled_by_clears_radial(self):
        data = exp_decay(3).scaled_by(lambda pts: 1.0 + pts[..., 0])
        assert data.radial_center is None
        # even a radial factor: the product's declaration is not inferred
        assert exp_decay(3).scaled_by(lambda pts: np.ones(pts.shape[:-1])).radial_center is None
        assert bump(3, center=[2.0, 0.0]).scaled_by(lambda pts: 2.0).radial_center is None

    def test_replacing_the_evaluator_keeps_radial(self):
        for base in (exp_decay(3), bump(3, center=[2.0, 0.0])):
            kept = dataclasses.replace(base, evaluator=lambda pts, f=base: f.evaluator(pts))
            np.testing.assert_array_equal(kept.radial_center, base.radial_center)


class TestParameterRanges:
    @pytest.mark.parametrize("make", [
        lambda: constant(3, float("nan")),
        lambda: bump(3, radius=float("nan")),
        lambda: bump(3, radius=float("inf")),
        lambda: bump(3, center=[float("nan"), 0.0]),
        lambda: bump(3, height=float("inf")),
        lambda: bump_train(3, width=float("nan")),
        lambda: bump_train(3, width=-0.5),
        lambda: bump_train(3, radii=(4.0, float("inf"))),
        lambda: bump_train(3, growth=float("nan")),
        lambda: exp_decay(3, float("nan")),
        lambda: exp_decay(3, float("inf")),
        lambda: shell_bump(3, 1.0, float("inf")),
        lambda: shell_bump(3, 1.0, 3.0, height=float("nan")),
        lambda: poly_growth(3, float("nan")),
    ], ids=["constant-value", "bump-radius-nan", "bump-radius-inf", "bump-center",
            "bump-height", "train-width-nan", "train-width-negative", "train-radii",
            "train-growth", "exp-rate-nan", "exp-rate-inf", "shell-outer-inf",
            "shell-height-nan", "poly-exponent-nan"])
    def test_non_finite_or_out_of_range_parameter_raises(self, make):
        with pytest.raises(ConstructionError):
            make()
