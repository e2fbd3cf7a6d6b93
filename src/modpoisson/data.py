"""Boundary data: evaluatable functions on the hyperplane with declared growth.

Every integral operator in the package consumes a BoundaryData, which couples
a vectorized evaluator with the metadata the quadrature needs: a growth
exponent, a support descriptor (with kink radii for panel alignment), for
union-of-balls supports the explicit ball list so integration can run in
ball-local coordinates, and the point the data are radial about, if any.

`BoundaryData.radial_center` describes the data, not a solver option: f(y)
depends on |y - radial_center| alone, or the field is None.  On a region
about that centre the quadrature integrates over one polar angle instead
of the whole sphere where the kernel allows it (see `quadrature`), and on
an uncut one it calls the evaluator once per radial node, along the first
axis from the centre (a wrapper of the evaluator still sees every call).
`constant`, `shell_bump`, `bump_train`, `exp_decay` and `poly_growth`
declare the origin and `bump` its own centre; `scaled_by` clears the field,
and `dataclasses.replace(data, evaluator=...)` keeps it, so a replacement
evaluator must stay radial about the same point.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import quad1d
from .errors import ConstructionError, DomainError
from .geometry import row_norms

__all__ = [
    "Support",
    "BoundaryData",
    "constant",
    "bump",
    "shell_bump",
    "bump_train",
    "exp_decay",
    "poly_growth",
    "DATA_REGISTRY",
    "make_data",
]


@dataclass(frozen=True)
class Support:
    """Where the data lives: 'compact' within outer_radius or 'global'.

    radial_edges lists radii of circles about the origin where the data kink
    or end (quadrature aligns panel edges there).  balls, when set, is a
    tuple of (center, radius) pairs whose union contains the support
    exactly; a ball's boundary is a circle about its own centre, not a
    radial edge, and the radii follow from the balls (a caller's must agree).
    """

    kind: str
    outer_radius: float | None = None
    inner_radius: float = 0.0
    radial_edges: tuple = ()
    balls: tuple = ()

    def __post_init__(self):
        if self.kind not in ("compact", "global"):
            raise DomainError(f"support kind must be 'compact' or 'global', got {self.kind!r}")
        if self.balls:
            reach = [(float(np.linalg.norm(np.asarray(c, dtype=float))), r) for c, r in self.balls]
            for field, derived, unset in (
                    ("outer_radius", max(c + r for c, r in reach), None),
                    ("inner_radius", max(0.0, min(c - r for c, r in reach)), 0.0)):
                given = getattr(self, field)
                if given not in (unset, derived):
                    raise DomainError(f"{field} {given} contradicts the balls' {derived}")
                object.__setattr__(self, field, derived)
        if self.kind == "compact" and not self.outer_radius:
            raise DomainError("compact support needs an outer radius")


@dataclass
class BoundaryData:
    """A data function f on R^(n-1) with its integrability metadata.

    evaluator takes an array of shape (..., n-1) and returns values of shape
    (...).  growth_exponent is the smallest g with |f(y)| <= C (1+|y|)^g;
    decaying data may declare -inf.  radial_center, when set, declares
    that f depends on |y - radial_center| alone.
    """

    n: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    growth_exponent: float
    support: Support
    name: str = ""
    amplitude: float = 1.0
    radial_center: np.ndarray | None = None

    def __call__(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return self.evaluator(pts)

    def first_kind_admissible(self, lam: float, big_m: int) -> bool:
        """Whether the growth condition for the first modified kernel holds."""
        if self.support.kind == "compact":
            return True
        return big_m + 2.0 * lam > self.growth_exponent + self.n - 1.0

    def second_kind_admissible(self, big_m: int) -> bool:
        """Whether the moment condition for the second modified kernel holds."""
        if self.support.kind == "compact":
            return True
        return self.growth_exponent + (big_m - 1.0) + (self.n - 2.0) < -1.0

    def scaled_by(self, factor_fn, name_suffix="*", growth_shift=0.0) -> "BoundaryData":
        """New data multiplying this one by a vectorized factor function; the
        product is not declared radial about any point, whatever the
        factor."""
        inner = self.evaluator

        def evaluator(pts):
            return inner(pts) * factor_fn(pts)

        return replace(
            self,
            evaluator=evaluator,
            growth_exponent=self.growth_exponent + growth_shift,
            name=self.name + name_suffix,
            radial_center=None,
        )


def _require_finite(what: str, *values) -> None:
    if not np.all(np.isfinite(np.asarray(values, dtype=float))):
        raise ConstructionError(f"{what} must be finite")


def constant(n: int, value: float = 1.0) -> BoundaryData:
    """f = value everywhere (harmonic-measure normalization tests)."""
    _require_finite("constant value", value)

    def evaluator(pts):
        return np.full(np.asarray(pts).shape[:-1], float(value))

    return BoundaryData(
        n=n,
        evaluator=evaluator,
        growth_exponent=0.0,
        support=Support("global"),
        name=f"constant({value})",
        amplitude=abs(value),
        radial_center=np.zeros(n - 1),
    )


def _smooth_profile(dist, radius):
    u = np.clip(dist / radius, 0.0, 1.0)
    return (1.0 - u * u) ** 3


def bump(n: int, center=None, radius: float = 1.0, height: float = 1.0,
         normalized: bool = False) -> BoundaryData:
    """Smooth compactly supported bump (1 - (d/radius)^2)^3 at `center`.

    With normalized=True the height is rescaled so the integral over the
    boundary hyperplane is 1 (radial mass computed to machine accuracy).
    """
    if not 0 < radius < np.inf:
        raise ConstructionError("bump radius must be positive and finite")
    _require_finite("bump height", height)
    if center is None:
        center = np.zeros(n - 1)
    else:
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if center.size == 1 and n > 2:
            # scalar shorthand: offset along the first boundary axis
            center = np.append(center, np.zeros(n - 2))
    if center.shape != (n - 1,):
        raise ConstructionError(f"bump center must live in R^{n - 1}")
    _require_finite("bump center", *center)
    if normalized:
        height = height / _profile_mass(n, 0.0, radius)

    def evaluator(pts):
        d = row_norms(np.asarray(pts, dtype=float) - center)
        return height * _smooth_profile(d, radius)

    return BoundaryData(
        n=n,
        evaluator=evaluator,
        growth_exponent=0.0,
        support=Support("compact", balls=((center, radius),)),
        name=f"bump(r={radius})",
        amplitude=abs(height),
        radial_center=center,
    )


def _profile_mass(n: int, mid: float, half: float) -> float:
    """Integral over R^(n-1) of the smooth profile of |y| about `mid` with
    half-width `half`, by Gauss-Legendre in |y| (exact: it is polynomial)."""
    from .quadrature import sphere_surface_area

    lo, hi = max(0.0, mid - half), mid + half
    xg, wg = quad1d.gauss_legendre(64)
    rho = 0.5 * (hi - lo) * (xg + 1.0) + lo
    w = 0.5 * (hi - lo) * wg
    vals = _smooth_profile(np.abs(rho - mid), half) * rho ** (n - 2)
    return float(sphere_surface_area(n - 2) * np.dot(w, vals))


def shell_bump(n: int, r_in: float, r_out: float, height: float = 1.0,
               normalized: bool = False) -> BoundaryData:
    """Radially symmetric bump supported on the annulus r_in <= |y| <= r_out."""
    _require_finite("shell_bump radii and height", r_in, r_out, height)
    if not 0 <= r_in < r_out:
        raise ConstructionError("need 0 <= r_in < r_out")
    mid, half = 0.5 * (r_in + r_out), 0.5 * (r_out - r_in)
    if normalized:
        height = height / _profile_mass(n, mid, half)

    def evaluator(pts):
        rho = row_norms(pts)
        return height * _smooth_profile(np.abs(rho - mid), half)

    return BoundaryData(
        n=n,
        evaluator=evaluator,
        growth_exponent=0.0,
        support=Support(
            "compact",
            outer_radius=r_out,
            inner_radius=r_in,
            radial_edges=(r_in, mid, r_out),
        ),
        name=f"shell({r_in},{r_out})",
        amplitude=abs(height),
        radial_center=np.zeros(n - 1),
    )


def bump_train(n: int, radii=(4.0, 16.0, 64.0), width: float = 0.5,
               growth: float = 1.0) -> BoundaryData:
    """Radial shells at the given radii with amplitudes r^growth.

    Compactly supported (finite prefix of a train), but exercising the
    declared polynomial growth class across its shells.
    """
    radii = tuple(sorted(float(r) for r in np.atleast_1d(radii)))
    _require_finite("bump_train radii and growth", *radii, growth)
    if not 0 < width < np.inf:
        raise ConstructionError("bump_train width must be positive and finite")
    if radii[0] - width <= 0:
        raise ConstructionError("innermost shell must stay away from the origin")
    amps = [r**growth for r in radii]

    def evaluator(pts):
        rho = row_norms(pts)
        out = np.zeros_like(rho)
        for r, a in zip(radii, amps):
            out += a * _smooth_profile(np.abs(rho - r), width)
        return out

    edges = []
    for r in radii:
        edges += [r - width, r, r + width]
    return BoundaryData(
        n=n,
        evaluator=evaluator,
        growth_exponent=growth,
        support=Support(
            "compact",
            outer_radius=radii[-1] + width,
            inner_radius=radii[0] - width,
            radial_edges=tuple(edges),
        ),
        name=f"bump_train(g={growth})",
        amplitude=max(amps),
        radial_center=np.zeros(n - 1),
    )


def exp_decay(n: int, rate: float = 1.0) -> BoundaryData:
    """f(y) = exp(-rate * |y|); satisfies every moment condition."""
    if not 0 < rate < np.inf:
        raise ConstructionError("decay rate must be positive and finite")

    def evaluator(pts):
        return np.exp(-rate * row_norms(pts))

    return BoundaryData(
        n=n,
        evaluator=evaluator,
        growth_exponent=-np.inf,
        support=Support("global"),
        name=f"exp_decay({rate})",
        amplitude=1.0,
        radial_center=np.zeros(n - 1),
    )


def poly_growth(n: int, exponent: float = 1.0) -> BoundaryData:
    """f(y) = (1 + |y|^2)^(exponent/2), a smooth global growth class."""
    _require_finite("poly_growth exponent", exponent)

    def evaluator(pts):
        rho = row_norms(pts)
        return (1.0 + rho * rho) ** (exponent / 2.0)

    return BoundaryData(
        n=n,
        evaluator=evaluator,
        growth_exponent=float(exponent),
        support=Support("global"),
        name=f"poly_growth({exponent})",
        amplitude=1.0,
        radial_center=np.zeros(n - 1),
    )


def _sharpness_half_balls(n: int, lam: float = 0.5, big_m: int = 1,
                          centers=(4.0, 16.0), psi=(1.0, 1.0)) -> BoundaryData:
    from .sharpness import data_half_balls

    return data_half_balls(n, np.atleast_1d(psi), np.atleast_1d(centers), lam, int(big_m))


def _sharpness_super_balls(n: int, lam: float = 1.5, big_m: int = 1,
                           a=(20.0, 60.0), b=(1.5, 4.5), amps=(1.0, 1.0)) -> BoundaryData:
    from .sharpness import data_balls_super_extension

    return data_balls_super_extension(n, np.atleast_1d(a), np.atleast_1d(b),
                                      np.atleast_1d(amps), lam, int(big_m))


DATA_REGISTRY = {
    "constant": constant,
    "bump": bump,
    "shell_bump": shell_bump,
    "bump_train": bump_train,
    "exp_decay": exp_decay,
    "poly_growth": poly_growth,
    "sharpness_half_balls": _sharpness_half_balls,
    "sharpness_super_balls": _sharpness_super_balls,
}


def make_data(name: str, n: int, /, **kwargs) -> BoundaryData:
    """Instantiate a named built-in data function (CLI entry point); a
    keyword the factory does not take raises DomainError."""
    if name not in DATA_REGISTRY:
        raise DomainError(f"unknown data {name!r}; choices: {sorted(DATA_REGISTRY)}")
    factory = DATA_REGISTRY[name]
    unknown = sorted(set(kwargs) - (set(inspect.signature(factory).parameters) - {"n"}))
    if unknown:
        raise DomainError(f"data {name!r} takes no argument {', '.join(unknown)}")
    return factory(n, **kwargs)
