"""Workload inputs shared by the benchmark worker and the reference generator.

An op *type* is everything about an op except its field point; the field
point comes from a fixed pool stored in reference.json, and the run's seed
chooses which pool point each op uses.  Keeping the pool fixed is what lets
every op be checked against a stored reference value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import modpoisson as mp
from modpoisson import quadrature as q
from modpoisson.geometry import HalfSpacePoint
from modpoisson.kernels import KernelParams

KINK_TOL = {3: 1e-10, 4: 1e-7}
# the refinement-cap defect: n = 3 kink-cut solves at this tolerance raise
# AccuracyError today, so the traced run probes it outside the op loop
DEFECT_TOL = 1e-12
PLAIN_TOL = {3: 1e-9, 4: 1e-9, 5: 1e-6}
SUITES = ("expansion", "gegenbauer", "growth", "kernels", "prop31", "prop32", "sharpness")
# the harmonicity suite's stencil step and residual tolerance for solutions
FD_H, FD_TOL = 5e-3, 1e-4


@dataclass(frozen=True)
class OpType:
    """One kind of solve: map, data family, modification order, dimension,
    point case and tolerance.  `key` names it in reference.json; `weight`
    is how many ops of this type a workload round holds."""

    key: str
    map: str
    data: str
    big_m: int
    n: int
    case: str
    tol: float
    weight: int = 1


def kink_data(n: int):
    """The harmonicity suite's bump at (2, 0, ...): the cutoff's kink circle
    |y| = 2 crosses it, so every solve integrates a cut region."""
    return mp.bump(n, center=[2.0] + [0.0] * (n - 2), radius=1.0)


# kink-cut op types that come twice a round: u with M = 1 at n = 3 (0.45-0.6
# s at most pool points) and u at n = 4 (0.5-0.6 s).  Below them sit two
# mostly faster u solves, above them four slower v solves, so the median op
# lands inside their group rather than on the edge between the u and v
# solves.
_KINK_TWICE = {(3, "u", 1), (4, "u", 0)}


def kink_types(n: int) -> list[OpType]:
    """u and v for M = 0, 1, 2 at n = 3; M = 0 only at n = 4, where one M = 2
    solve takes 0.6 s at one point and 4 s at another, which alone would
    swing a run's throughput by a third."""
    orders = (0, 1, 2) if n == 3 else (0,)
    return [OpType(f"kink/{n}/{fn}/{m}", fn, "kink_bump", m, n, "kink", KINK_TOL[n],
                   2 if (n, fn, m) in _KINK_TWICE else 1)
            for m in orders for fn in ("u", "v")]


def harmonicity_points(rng, n: int, count: int) -> list[list[float]]:
    """The harmonicity suite's field-point sampler, extended to dimension n:
    Gaussian points lifted off the boundary, kept 1.8 away from the bump."""
    center = np.zeros(n - 1)
    center[0] = 2.0
    out = []
    while len(out) < count:
        p = rng.normal(size=n) * 1.2
        p[-1] = abs(p[-1]) + 0.6
        if np.linalg.norm(p[:-1] - center) > 1.8:
            out.append([float(c) for c in p])
    return out


# (n, map, data, M, case, ops per round) for the plain grid; every
# combination is admissible.  n = 3 runs every map near the origin and the
# near-boundary path; n = 4 and n = 5 run far points only, because near ones
# cost 5x more at low-elevation points than at high ones (one n = 4 solve
# takes 0.1 s at one point and 0.9 s at another).  Far n = 4 N and F2 on
# exp_decay, about 0.12 s and 0.15 s on uncut vectorised grids, come six
# times a round: below them sit ten n = 3 ops (10-50 ms), above them three
# (0.3-1.7 s), so the median op lands a quarter of the way into their group
# rather than on the edge between two groups.  The single n = 5 solve, about
# 1.3 s and 0.45 GB, sets the memory peak.  The origin-centred bump appears
# only near the boundary: its support ball sends every other solve through
# the per-ray cut evaluator (the r_lo clip adds a zero-radius cut), which
# this workload is meant to bypass.  DM and NM on the shell near the
# boundary have no ops (weight 0): they raise at four of six pool points and
# cost 0.05 s at one of the others and 0.3 s at the other, so they stay in
# the reference table for the defect probe only.
_PLAIN_ENTRIES = (
    (3, "D", "exp_decay", 0, "near", 1),
    (3, "N", "exp_decay", 0, "near", 1),
    (3, "DM", "shell", 2, "near", 1),
    (3, "NM", "shell", 2, "near", 1),
    (3, "F", "poly_growth", 1, "near", 1),
    (3, "F2", "exp_decay", 2, "near", 1),
    (3, "u", "poly_growth", 1, "near", 1),
    (3, "v", "exp_decay", 1, "near", 1),
    (3, "D", "bump", 0, "bnd", 1),
    (3, "N", "bump", 0, "bnd", 1),
    (3, "DM", "shell", 2, "bnd", 0),
    (3, "NM", "shell", 2, "bnd", 0),
    (4, "N", "exp_decay", 0, "far", 6),
    (4, "F2", "exp_decay", 2, "far", 6),
    (4, "v", "exp_decay", 1, "far", 2),
    (5, "D", "exp_decay", 0, "far", 1),
)


def plain_types() -> list[OpType]:
    return [OpType(f"plain/{n}/{fn}/{data}/{m}/{case}", fn, data, m, n, case, PLAIN_TOL[n], w)
            for n, fn, data, m, case, w in _PLAIN_ENTRIES]


def plain_points(rng, n: int, case: str, count: int) -> list[list[float]]:
    """near: |x| ~ 1.5; far: |x| ~ 50, so truncation comes from the tail
    bound; bnd: x_n = 1e-3 over 0.2 < |y| < 2.8, the near-boundary path."""
    out = []
    while len(out) < count:
        d = rng.normal(size=n)
        d /= np.linalg.norm(d)
        if case == "bnd":
            y = d[:-1] / np.linalg.norm(d[:-1]) * rng.uniform(0.2, 2.8)
            out.append([float(c) for c in y] + [1e-3])
            continue
        d[-1] = abs(d[-1])
        if d[-1] < 0.3:
            continue
        radius = rng.uniform(1.4, 1.6) if case == "near" else rng.uniform(45.0, 55.0)
        out.append([float(c) for c in radius * d])
    return out


def make_data(name: str, n: int):
    if name == "kink_bump":
        return kink_data(n)
    if name == "exp_decay":
        return mp.exp_decay(n)
    if name == "poly_growth":
        return mp.poly_growth(n, 1.0)
    if name == "bump":
        return mp.bump(n, radius=3.0)
    if name == "shell":
        return mp.shell_bump(n, 1.0, 3.0)
    raise KeyError(name)


def solver(t: OpType, tol: float | None = None, **resolution):
    """The public solution map for an op type, as f(data, point) -> float;
    `resolution` overrides QuadratureSpec's radial_panels and angular_order."""
    tol = t.tol if tol is None else tol
    spec = q.QuadratureSpec(abs_tol=tol, rel_tol=tol, **resolution)
    m, lam = t.big_m, t.n / 2.0
    maps = {
        "D": lambda d, x: q.dirichlet_D(d, x, spec),
        "N": lambda d, x: q.neumann_N(d, x, spec),
        "DM": lambda d, x: q.dirichlet_DM(m, d, x, spec),
        "NM": lambda d, x: q.neumann_NM(m, d, x, spec),
        "F": lambda d, x: q.integral_F(KernelParams(lam, m), d, x, spec),
        "F2": lambda d, x: q.integral_F_second(KernelParams(lam, m, "second"), d, x, spec),
        "u": lambda d, x: q.solution_u(d, m, x, spec),
        "v": lambda d, x: q.solution_v(d, m, x, spec),
    }
    return maps[t.map]


def point(coords) -> HalfSpacePoint:
    return HalfSpacePoint.from_cartesian(np.asarray(coords, dtype=float))


def pool_key(t: OpType) -> str:
    """The key of an op type's point pool within its reference.json section."""
    return str(t.n) if t.case == "kink" else f"{t.n}/{t.case}"


def pool(ref: dict, t: OpType) -> tuple[list, dict]:
    """(pool points, reference values) of an op type's reference.json section."""
    section = ref[f"kink{t.n}" if t.case == "kink" else "plain"]
    return section["points"][pool_key(t)], section["values"]


def usable_points(values: dict, types, size: int) -> list[int]:
    """Pool points on which every given op type passes today; the others
    are known defects (see README.md)."""
    return [i for i in range(size) if all(values[f"{t.key}/{i}"]["op"] == "ok" for t in types)]


def within(value: float, ref: dict, tol: float) -> bool:
    """Reference check in the library's own abs-or-rel form.  A reference
    solved at a tighter tolerance than the op's is held to the op's
    tolerance.  Otherwise the two values are estimates of equal standing,
    each within its own tolerance of the truth, so they may differ by the
    sum of the two."""
    bound = tol if ref["tol"] < tol else tol + ref["tol"]
    return abs(value - ref["value"]) <= max(bound, bound * abs(ref["value"]))
