import dataclasses

import numpy as np
import pytest

from modpoisson.data import bump, bump_train, constant, exp_decay, poly_growth, shell_bump

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
        assert data.radial
        rho = np.linspace(0.05, 4.5, 37)
        axis = np.eye(n - 1)[0]
        on_axis = data(rho[:, None] * axis)
        for _ in range(5):
            u = RNG.normal(size=n - 1)
            u /= np.linalg.norm(u)
            assert data(rho[:, None] * u) == pytest.approx(on_axis, rel=1e-13, abs=1e-15)

    def test_off_centre_bump_is_not_radial(self):
        assert not bump(3, center=[2.0, 0.0]).radial
        assert bump(3, center=[0.0, 0.0]).radial

    def test_scaled_by_clears_radial(self):
        data = exp_decay(3).scaled_by(lambda pts: 1.0 + pts[..., 0])
        assert not data.radial
        # even a radial factor: the product's declaration is not inferred
        assert not exp_decay(3).scaled_by(lambda pts: np.ones(pts.shape[:-1])).radial

    def test_replacing_the_evaluator_keeps_radial(self):
        base = exp_decay(3)
        assert dataclasses.replace(base, evaluator=lambda pts: base.evaluator(pts)).radial
