"""Quadrature over the boundary hyperplane and the half-space solution maps.

The integration scheme is a product of radial panels (Gauss-Legendre, with
panel edges aligned to data kinks, the kernel window around |x|, and graded
refinement near kernel peaks) and a sphere rule in the angular variables
(two points for boundary dimension one; above, panelled Gauss rules in the
polar angle times the rule of the subsphere, or the polar rule alone for
zonal integrands).  One evaluator, `_eval_region`, walks every region's
angular rule in blocks of rays of at most `_BLOCK_POINTS` nodes, each ray
carrying the level's radial panels, so memory stays O(block); a call costs
about 30 us before it touches a node, so most levels are one call.
Error control is `quad1d.refine`'s comparison of successive whole-grid
levels, with angular order angular_order * 1.5^level in every dimension;
evaluations never sample randomly, so results are reproducible bit for bit.

A level's grid costs a few whole-array operations: `_split_panels` splits
every radial panel at once, the angular factors (`_polar_factor` and the
subsphere rule) are cached by (dimension, order, pole angles) as read-only
arrays, and the frame that turns them toward a pole is a closed-form
Householder reflection (`_orthonormal_frame`).

Every integrand is called on a block of rays u of one region about its
centre c, with their radii rho, so the solution maps' integrand
(`_KernelIntegrand`) works in the region's own polar variables, and data
radial about an uncut region's centre (`BoundaryData.radial_center`) are
evaluated once per radial node of its grid.

On an uncut region about the centre c its data are radial about (n >= 3),
f times the kernel depends on the direction only through its polar angle
to the axis y - c, so the sphere rule is `_zonal_rule`: the polar factor
alone, weighted by the exact area of the subsphere, a few dozen nodes
where the product rule has over ten thousand at n = 5 (one node when
y = c).
About the origin that holds at any M, since the tail is a function of
Theta; about another centre only at M = 0, where the kernel is the base
kernel K, a function of |y' - y|.  M >= 1 off the origin, other data, cut
regions and `integrate_weighted` keep the product rule; no option selects
the path.

A ball crossed by a kink circle it is not centred on (a "cut" region, such
as an off-centre data ball crossed by the cutoff's circles |y'| = 1, 2) gets
radial panel edges per angular ray where the ray crosses the circle, and
panels of zero width are skipped.  Its angular pole points at the circle's
centre, and the cones of rays where a crossing leaves the ball or two
crossings merge are angular panel edges, so the angular integrand is smooth
on every panel.

F's clip |y'| > 1 is region geometry (`_ball_region`): a ball about the
origin that the circle crosses starts at radius 1, and on any other ball
it is a cut whose panels inside it are skipped.

D, N, D_M, N_M, F, F~, u and v are each a prefactor times the integral of
f times a kernel, and all run through one driver, `_solve`; `_regions`
builds the regions for it and for `integrate_weighted`, cutting global data
off where `_data_reach`'s tail bound meets the tolerance.  Every kernel is
K - c T_M, with T_M the Gegenbauer tail that K_M (or K~_M, for F~) subtracts
from the base kernel K, one `gegenbauer.weighted_sum` in every region:
c = 1 for D_M, N_M, F and F~, and c = w, the cutoff, for the assembled
solutions, so u = D_M[w f] + D[(1 - w) f] and v likewise are one integral
each.  For M >= 1 the cutoff's circles
|y'| = 1, 2 are kink edges of their regions.

Near the boundary K peaks at the projection point y with width x_n, and the
regions resolve the peak in the same single solve: radial panels graded
toward |y| and polar panels toward y_hat on regions about the origin, and
toward y on a close ball, whose pole points at y; only at n = 3 does a
close ball with cuts keep its pole on the cut, grading its polar panels
about y's polar angle instead.  When y lies inside a support ball and x_n
is below a fiftieth of its radius, that ball is integrated over the disk
about y that covers it (`_peak_disk`), on which K is a function of the
radius alone, exact to the last bit, so radial panels graded from the
disk's centre resolve the peak in every dimension and at any tolerance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import quad1d
from .data import BoundaryData, Support
from .errors import AccuracyError, DomainError
from .geometry import HalfSpacePoint, cos_theta_prime_array, row_norms
from .kernels import KernelParams, _kernel_minus_tail, _squared_gap

__all__ = [
    "QuadratureSpec",
    "alpha_n",
    "unit_ball_volume",
    "sphere_surface_area",
    "integrate_weighted",
    "integral_F",
    "integral_F_second",
    "dirichlet_D",
    "neumann_N",
    "dirichlet_DM",
    "neumann_NM",
    "solution_u",
    "solution_v",
]


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(1.0 + n / 2.0)


def alpha_n(n: int) -> float:
    """Poisson normalization 2 / (n * omega_n) = Gamma(n/2) / pi^(n/2)."""
    return 2.0 / (n * unit_ball_volume(n))


def _problem(problem: str, n: int) -> tuple[float, float, bool]:
    """(lambda, normalisation, carries x_n) of a half-space problem in R^n.

    The Dirichlet problem integrates against K(n/2) with alpha_n x_n, and
    its solid harmonics carry the factor x_n; the Neumann problem against
    K((n-2)/2) with alpha_n / (n-2), which needs n >= 3 (the planar Neumann
    kernel is logarithmic).
    """
    if n < 2:
        raise DomainError("ambient dimension must be >= 2")
    if problem == "dirichlet":
        return n / 2.0, alpha_n(n), True
    if problem != "neumann":
        raise DomainError("problem must be 'dirichlet' or 'neumann'")
    if n < 3:
        raise DomainError("the Neumann problem needs ambient dimension >= 3 "
                          "(the planar Neumann kernel is logarithmic)")
    return (n - 2) / 2.0, alpha_n(n) / (n - 2.0), False


def sphere_surface_area(k: int) -> float:
    """Surface measure of the unit k-sphere S^k; S^0 counts two points."""
    if k == 0:
        return 2.0
    return float(2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0))


@dataclass
class QuadratureSpec:
    """Resolution and tolerance knobs for the boundary integrals.

    Global data are integrated out to the radius where the neglected-tail
    bound (data growth class times the kernel majorant) falls below a tenth
    of abs_tol, which `_data_reach` finds.
    """

    radial_panels: int = 24
    angular_order: int = 48
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9

    def __post_init__(self):
        if self.radial_panels < 1 or self.angular_order < 4:
            raise DomainError("resolution parameters out of range")
        if not (0 < self.abs_tol < np.inf and 0 < self.rel_tol < np.inf):
            raise DomainError("tolerances must be positive and finite")


# ---------------------------------------------------------------------------
# sphere rules


def _orthonormal_frame(pole: np.ndarray) -> np.ndarray:
    """Rows: the unit pole followed by an orthonormal completion.

    The rows of the Householder reflection H = I - 2 v v^T / |v|^2 with
    v = p + sign(p_0) e1 are orthonormal, and its row 0 is -sign(p_0) p, so
    setting row 0 to p keeps them so.  That sign makes |v|^2 = 2 (1 + |p_0|)
    at least 2, where the other sign would cancel for a pole next to +-e1.
    """
    v = pole.copy()
    v[0] += 1.0 if pole[0] >= 0.0 else -1.0
    frame = np.eye(pole.size) - (2.0 / (v @ v)) * np.outer(v, v)
    frame[0] = pole
    return frame


def _read_only(*arrays):
    """The arrays, made read-only so that a cache can share them."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache
def _polar_factor(d: int, order: int, pole_angles: tuple = ()):
    """Polar factor of the sphere rule on S^(d-1), d >= 2: nodes phi in
    [0, pi] measured from the pole, and their Gauss-Legendre weights times
    sin(phi)^(d-2), the measure the subsphere S^(d-2) leaves behind.  Cached
    and shared by every caller, so both arrays are read-only.

    pole_angles are polar panel edges: graded toward the pole for integrands
    concentrated there, or where an integrand has a kink.  No panel gets
    fewer points than a pi/4 panel's share of the order, so narrow panels
    gain points as the order rises and refinement levels compare different
    rules on them, at every level once angular_order >= 38 (default 48);
    below that the floors hold narrow panels at 6 points over early levels.
    """
    phi_edges = sorted({0.0, math.pi / 2, math.pi}
                       | {a for a in pole_angles if 0.0 < a < math.pi})
    phi_nodes, phi_weights = [], []
    polar_order = max(10, order // 2)
    for a, b in zip(phi_edges[:-1], phi_edges[1:]):
        npts = max(6, polar_order // 4, int(polar_order * (b - a) / math.pi) + 1)
        xs, ws = quad1d.panels((a, b), npts)
        phi_nodes.append(xs)
        phi_weights.append(ws)
    phi = np.concatenate(phi_nodes)
    return _read_only(phi, np.sin(phi) ** (d - 2) * np.concatenate(phi_weights))


@functools.lru_cache
def _subsphere_rule(dim_ambient: int, order: int):
    """`sphere_rule` about the default pole, cached and shared by every
    caller, so both arrays are read-only."""
    return _read_only(*sphere_rule(dim_ambient, order))


def sphere_rule(dim_ambient: int, order: int, pole=None, pole_angles=()):
    """Quadrature points (unit vectors) and weights on the sphere S^(d-1)
    sitting in R^d, where d = dim_ambient - 1 is the boundary dimension.

    For d >= 2 the rule is the product of `_polar_factor`, the polar angle
    against the pole with pole_angles as panel edges, and a rule on the
    subsphere S^(d-2) (for d = 2 the two points of S^0, so the circle is
    the mirrored half-circle).  An integrand that depends on the direction
    only through its polar angle needs no subsphere rule: see `_zonal_rule`.
    Both factors are cached; the arrays returned are the caller's own.
    """
    d = dim_ambient - 1
    if pole is None:
        pole = np.eye(d)[0] if d else np.array([])
    pole = np.asarray(pole, dtype=float)
    pole = pole / np.linalg.norm(pole)
    if d == 1:
        return pole[None, :] * np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])

    # integrating in the polar angle keeps the sin^(d-2) weight analytic
    frame = _orthonormal_frame(pole)
    phi, meas = _polar_factor(d, order, tuple(pole_angles))
    sub_pts, sub_w = _subsphere_rule(d, max(8, (2 * order) // 3))
    sint = np.sin(phi)
    pts = (
        np.cos(phi)[:, None, None] * frame[0][None, None, :]
        + sint[:, None, None] * (sub_pts @ frame[1:])[None, :, :]
    )
    w = meas[:, None] * sub_w[None, :]
    return pts.reshape(-1, d), w.reshape(-1)


def _zonal_rule(dim_ambient: int, order: int, x: HalfSpacePoint, pole_angles, center):
    """Sphere rule on S^(d-1), d = dim_ambient - 1 >= 2, for integrands on
    spheres about center that depend on a unit vector u only through its
    angle to the axis y - center, such as f K for data radial about center,
    or the origin's kernels, cos(theta') times a radial factor (the
    Funk-Hecke reduction).

    The subsphere's integral is then exactly its area |S^(d-2)|: the nodes
    are cos(phi) a + sin(phi) e, for `_polar_factor`'s phi measured from
    the unit axis a = (y - center) / |y - center| and one unit vector e
    orthogonal to it, and the weights are the polar weights times that
    area.  Where the axis vanishes (y = center, as at theta = 0 about the
    origin) the integrand is constant on the sphere, so one node of weight
    |S^(d-1)| is exact.
    """
    d = dim_ambient - 1
    off = x.y - center
    dist = float(np.linalg.norm(off))
    if dist == 0.0:
        return x.y_hat[None, :], np.array([sphere_surface_area(d - 1)])
    axis = off / dist
    phi, meas = _polar_factor(d, order, pole_angles)
    e_perp = _orthonormal_frame(axis)[1]
    pts = np.cos(phi)[:, None] * axis + np.sin(phi)[:, None] * e_perp
    return pts, meas * sphere_surface_area(d - 2)


# ---------------------------------------------------------------------------
# radial panel construction


def _geometric_steps(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """Per pair of ends a > 0 and b, the k points a (b / a)^(j / k) for
    j < k, in the arithmetic of `np.geomspace` (10^(log10 a + j step), left
    end kept), so they are its points bit for bit without its per-call cost."""
    log_a = np.log10(a)
    out = 10.0 ** (np.arange(k) * ((np.log10(b) - log_a) / k)[:, None] + log_a[:, None])
    out[:, 0] = a
    return out


def _geometric_edges(a: float, b: float, count: int) -> list[float]:
    """max(count, 2) edges from a > 0 to b in geometric progression."""
    steps = _geometric_steps(np.array([a]), np.array([b]), max(count, 2) - 1)
    return [*steps[0].tolist(), float(b)]


def _dedupe(edges, lo, hi, min_gap=1e-13):
    edges = sorted(set([lo, hi] + [e for e in edges if lo < e < hi]))
    out = [edges[0]]
    for e in edges[1:]:
        if e - out[-1] > min_gap * max(1.0, abs(e)):
            out.append(e)
    if out[-1] != hi:
        out[-1] = hi
    return out


def _split_panels(edges, level: int) -> np.ndarray:
    """The edges with every panel split into 2^level: geometrically where
    its ends a > 0 and b have b / a > 1.5, evenly otherwise.

    All panels at once, in the arithmetic of `np.linspace` and, through
    `_geometric_steps`, of `np.geomspace`, so the nodes are theirs bit for
    bit without their per-call cost.
    """
    edges = np.asarray(edges, dtype=float)
    if level == 0:
        return edges
    a, b = edges[:-1], edges[1:]
    geo = a > 0.0
    geo[geo] = b[geo] / a[geo] > 1.5
    k = 2**level
    j = np.arange(k)
    out = j * ((b - a) / k)[:, None] + a[:, None]
    if geo.any():
        out[geo] = _geometric_steps(a[geo], b[geo], k)
    return np.append(out.ravel(), edges[-1])


# ---------------------------------------------------------------------------
# regions


@dataclass
class _Region:
    center: np.ndarray  # the zero vector for regions about the origin
    edges: tuple  # radial panel edges, from the inner to the outer radius
    pole: np.ndarray | None = None
    pole_angles: tuple = ()
    cuts: tuple = ()  # foreign kink circles as (center, radius) pairs
    clip: float = 0.0  # panels inside the cut |y'| = clip are dead


def _kernel_window_edges(x: HalfSpacePoint, lo: float, hi: float) -> list[float]:
    edges = [e for e in (0.5 * x.r, x.r, 2.0 * x.r) if lo < e < hi]
    ynorm = x.r * x.sin_theta
    if x.x_n < 0.5 * ynorm:
        edges += quad1d.graded_edges(ynorm, x.x_n, lo, hi)
    return edges


def _peak_angles(w: float, cap: float) -> tuple:
    """Polar panel edges w, 4w, 16w, ... below cap, graded toward a kernel
    peak of angular width w."""
    angles = []
    while w < cap:
        angles.append(w)
        w *= 4.0
    return tuple(angles)


def _origin_region(x, origin: np.ndarray, support: Support, lo: float, hi: float,
                   spec) -> _Region | None:
    """The region lo < |y'| < hi about the origin: geometric radial panels,
    and from lo = 0 a ball's linear panels on [0, min(1, hi)] before them."""
    if hi <= lo:
        return None
    start = lo or min(1.0, hi)
    edges = _geometric_edges(start, hi, spec.radial_panels)
    if not lo:
        edges += list(np.linspace(0.0, start, max(4, spec.radial_panels // 4) + 1))
    edges += [e for e in support.radial_edges if lo < e < hi]
    pole, pole_angles = None, ()
    if x is not None:
        edges += _kernel_window_edges(x, lo, hi)
        pole, ynorm = x.y_hat, x.r * x.sin_theta
        if 0.0 < ynorm and x.x_n < 0.5 * ynorm:
            pole_angles = _peak_angles(x.x_n / ynorm, math.pi / 4)
    return _Region(origin, tuple(_dedupe(edges, lo, hi)), pole, pole_angles)


def _ball_region(x, center: np.ndarray, radius: float, spec, support: Support,
                 r_lo: float = 0.0) -> _Region:
    """Ball-local region outside the clip circle |y'| = r_lo.  The support's
    kink circles about the origin, and the clip circle, become panel edges
    when the ball is centred at the origin and per-ray cuts otherwise.  A
    ball about the origin that the clip circle crosses starts at r_lo; on
    any other ball it crosses, the clip is a cut, and the region's `clip`
    marks the panels inside it dead.

    A close field point grades the radial edges toward the kernel peak at
    |y - center| and puts the pole on the peak, with graded polar edges.
    In a region with cuts the pole points at the first cut's centre
    instead, with the cuts' kink cones on that axis as angular edges
    (`_cut_pole`); a close peak keeps the pole at n >= 4, and at n = 3 its
    polar edges are graded about its polar angle from the cut's pole.
    """
    center = np.asarray(center, dtype=float)
    edges = list(np.linspace(0.0, radius, max(4, spec.radial_panels // 4) + 1))
    cnorm = float(np.linalg.norm(center))
    crossed = [float(e) for e in (*support.radial_edges, r_lo)
               if e > 0.0 and abs(e - cnorm) < radius - 1e-12]
    inner = r_lo if r_lo in crossed else 0.0
    if cnorm < 1e-12:
        lo, clip, cuts = inner, 0.0, []
        edges += crossed
    else:
        lo, clip, cuts = 0.0, inner, [(np.zeros_like(center), e) for e in crossed]
    for q, rad_q in support.balls or ():
        q = np.asarray(q, dtype=float)
        dist = float(np.linalg.norm(center - q))
        if dist < 1e-12:
            if 0.0 < rad_q < radius:
                edges.append(float(rad_q))
        elif abs(dist - rad_q) < radius - 1e-12:
            cuts.append((q, float(rad_q)))
    pole, pole_angles, peak = None, (), None
    if x is not None:
        off = x.y - center
        dist = float(np.linalg.norm(off))
        if dist < 2.0 * radius and x.x_n < radius:
            edges += quad1d.graded_edges(dist, max(x.x_n, 1e-12), 0.0, radius)
            if dist > 4.0 * x.x_n:
                peak = pole = off / dist
                pole_angles = _peak_angles(x.x_n / dist, math.pi / 2)
    if cuts and center.size > 1 and (peak is None or center.size == 2):
        # the circle's rule is its polar factor mirrored about the pole, so
        # the peak's grading moves to its polar angle phi about the cut pole
        graded = pole_angles
        pole, pole_angles = _cut_pole(center, radius, cuts)
        if peak is not None:
            phi = math.acos(min(1.0, max(-1.0, float(peak @ pole))))
            pole_angles += tuple(phi + side * a for a in graded for side in (-1.0, 1.0))
    return _Region(center, tuple(_dedupe(edges, lo, radius)), pole, pole_angles,
                   tuple(cuts), clip)


def _cut_pole(center: np.ndarray, radius: float, cuts) -> tuple:
    """Pole toward the first cut's centre, with the kink cones of the cuts
    centred on that axis as polar angles.

    Each ray gets radial panel edges where it crosses a kink circle, so its
    integral is smooth in the ray's direction except where the crossings
    change: where one leaves the ball, at the rays through the points where
    the circle meets the sphere |y' - center| = R, cos a = (R^2 + d^2 -
    rho^2) / (2 R d) for a circle of radius rho centred at distance d; and
    where the two merge, at the tangent rays, sin a = rho / d, when the
    tangent point lies inside the ball.  For a circle centred on the pole's
    axis both sets are cones about the pole (the cosine changes sign when
    the centre lies behind), which `sphere_rule` takes as angular panel
    edges; circles centred off the axis stay unaligned.
    """
    pole = cuts[0][0] - center
    pole = pole / np.linalg.norm(pole)
    angles = ()
    for q, rad_q in cuts:
        off = q - center
        d = float(np.linalg.norm(off))
        along = float(off @ pole)
        if np.linalg.norm(off - along * pole) > 1e-12 * max(1.0, d):
            continue
        cos_a = math.copysign((radius**2 + d * d - rad_q**2) / (2.0 * radius * d), along)
        if -1.0 < cos_a < 1.0:
            angles += (math.acos(cos_a),)
        if rad_q < d and d * d - rad_q**2 < radius**2:
            angles += (math.acos(math.copysign(math.sqrt(d * d - rad_q**2) / d, along)),)
    return pole, angles


def _peak_disk(x, i: int, balls) -> tuple:
    """(centre, radius) of the region that integrates support ball i: the
    ball (c, R) itself, or, when the projection point y lies inside it and
    x_n < R / 50, the disk about y of radius |y - c| + R, on which K is
    radial and the ball's circle is a cut; not when the disk would meet
    another ball of the support, whose part it would count twice.
    """
    c, radius = np.asarray(balls[i][0], dtype=float), balls[i][1]
    if x is None or x.x_n >= 0.02 * radius:
        return c, radius
    gap = float(np.linalg.norm(x.y - c))
    reach = gap + radius
    if gap >= radius or any(float(np.linalg.norm(x.y - np.asarray(q))) < reach + rad_q
                            for j, (q, rad_q) in enumerate(balls) if j != i):
        return c, radius
    return x.y, reach


def _regions(data: BoundaryData, x, spec, r_lo: float, decay, kinks=()) -> list:
    """Regions covering the support of data outside the disk |y'| <= r_lo.

    Union-of-balls supports are integrated ball by ball; other supports as
    one region about the origin out to the support or truncation radius.
    `decay(R)` bounds the weight's magnitude at radius R, for truncation of
    global data.  `kinks` are radii of circles about the origin where the
    weight kinks; they join the support's radial edges.
    """
    sup = data.support
    if kinks:
        sup = replace(sup, radial_edges=tuple(sorted({*sup.radial_edges, *kinks})))
    if sup.balls:
        return [_ball_region(x, *_peak_disk(x, i, sup.balls), spec, sup, r_lo)
                for i, (c, rad) in enumerate(sup.balls)
                if float(np.linalg.norm(np.asarray(c))) + rad > r_lo + 1e-12]
    hi = _data_reach(data, decay, spec, x)
    return [_origin_region(x, np.zeros(data.n - 1), sup, max(r_lo, sup.inner_radius), hi,
                           spec)]


# nodes per block of rays, dead nodes of a cut region counted.  A call costs
# about 30 us before it touches a node (a far n = 4 N call: 36 us at 768
# nodes, 181 us at 29,184), so the budget holds a whole level of most solves,
# whose temporaries then reach 1.3 MB uncut and about 2 MB cut.
_BLOCK_POINTS = 2**15

# glibc's malloc maps allocations above its mmap threshold, 128 KB at start,
# afresh, and gives free heap above its trim threshold back to the OS, so
# each solve would fault a block's pages in again (about 40 faults per
# plain-grid solve without this; an n = 5 block's points alone are 1 MB).
# Freeing one memory-mapped block raises the thresholds to its size and
# twice that for the life of the process; this 2 MB array is that block.
np.empty(8 * _BLOCK_POINTS)


def _radial_nodes(edges, n: int):
    """12-point Gauss-Legendre nodes rho on the panels between successive
    edges (along the last axis, one row of edges per ray or one for all),
    and their weights times rho^(n-2)."""
    rho, w = quad1d.panels(edges, 12)
    return rho, w * rho ** (n - 2)


def _cut_edges(region: _Region, edges, units):
    """Per ray, the radial edges plus the two roots of every cut, sorted; a
    root that is absent or outside the ball becomes the inner edge, a
    zero-width panel."""
    lo, hi = region.edges[0], region.edges[-1]
    cols = [np.broadcast_to(edges, (len(units), edges.size))]
    for q, rad_q in region.cuts:
        delta = region.center - q
        b = units @ delta
        disc = b * b + rad_q * rad_q - float(delta @ delta)
        sq = np.sqrt(np.maximum(disc, 0.0))
        for root in (-b + sq, -b - sq):
            inside = (disc > 0.0) & (root > lo + 1e-13) & (root < hi - 1e-13)
            cols.append(np.where(inside, root, lo)[:, None])
    return np.sort(np.concatenate(cols, axis=1), axis=1)


def _eval_region(g, n: int, region: _Region, spec, level: int) -> float:
    """Integral of g over a region: its one angular rule at this level,
    built here, times 12-point Gauss-Legendre radial panels on every ray.

    A `_KernelIntegrand` on data radial about the centre of an uncut region
    (n >= 3) gets `_zonal_rule` about the axis y - centre with the region's
    pole angles, which uncut regions measure from that axis; off the origin
    only at M = 0, since the tail is zonal about y_hat, not y - centre.
    Other regions get the product `sphere_rule`.  Those radial data are
    evaluated here, once per radial node, as f_rho.

    The rule is walked in blocks of rays of at most _BLOCK_POINTS nodes (one
    ray when a ray has more), so memory is O(block), not O(grid), with one
    call g(centre, rays, radii, f_rho) per block, which returns one row per
    ray; a call costs about 30 us before it touches a node, so most levels
    are one call.  On an uncut region the rays share one row of radii.  On
    a region with cuts each ray gets its own edges where the foreign kink
    circles cross it (`_cut_edges`), which restores spectral panel
    convergence; only the nodes of panels of nonzero width (on a region
    with a clip, whose midpoint lies outside it) are live, and g gets them
    alone, each as a ray of one radius, its values scattered back here
    with zeros at the dead nodes.
    """
    order = int(spec.angular_order * 1.5**level)
    center = region.center
    about = g.data.radial_center if isinstance(g, _KernelIntegrand) else None
    radial = about is not None and not region.cuts and np.array_equal(about, center)
    if radial and n >= 3 and (not np.any(center) or not g.params.big_m):
        pts_ang, w_ang = _zonal_rule(n, order, g.x, region.pole_angles, center)
    else:
        pts_ang, w_ang = sphere_rule(n, order, pole=region.pole,
                                     pole_angles=region.pole_angles)
    edges = _split_panels(region.edges, level)
    if not region.cuts:  # one row of radial nodes serves every ray
        rho, wr = _radial_nodes(edges, n)
    f_rho = g.data(center + rho[:, None] * np.eye(n - 1)[0]) if radial else None
    rays = max(1, _BLOCK_POINTS // (12 * (edges.size - 1 + 2 * len(region.cuts))))
    ray = np.empty(len(w_ang))
    for start in range(0, len(w_ang), rays):
        u = pts_ang[start:start + rays]
        if not region.cuts:
            vals = g(center, u, rho, f_rho)
        else:
            ray_edges = _cut_edges(region, edges, u)
            rho, wr = _radial_nodes(ray_edges, n)
            live = np.diff(ray_edges, axis=1) > 0.0
            if region.clip:  # |y'|^2 = m (m + 2 c.u) + |c|^2 at a panel's midpoint m
                mid = 0.5 * (ray_edges[:, :-1] + ray_edges[:, 1:])
                live &= (mid * (mid + 2.0 * (u @ center)[:, None]) + center @ center
                         > region.clip**2)
            live = np.repeat(live, 12, axis=1)
            # the live nodes alone, each as a ray of one radius
            vals = np.zeros(live.shape)
            vals[live] = g(center, np.repeat(u, live.sum(axis=1), axis=0),
                           rho[live][:, None], None)[:, 0]
        ray[start:start + rays] = np.einsum("...j,...j->...", wr, vals)
    return float(w_ang @ ray)


def _integrate_regions(g, n: int, regions, spec: QuadratureSpec):
    regions = [r for r in regions if r is not None]
    if not regions:
        return 0.0, 0.0
    return quad1d.refine(lambda level: sum(_eval_region(g, n, r, spec, level)
                                           for r in regions),
                         spec.abs_tol, spec.rel_tol)


# ---------------------------------------------------------------------------
# truncation of global supports


def _data_reach(data: BoundaryData, decay, spec: QuadratureSpec,
                x: HalfSpacePoint | None) -> float:
    """Outer radius for integration: the support bound, or the first
    doubling of a start radius at which the probed tail |f| * decay *
    surface measure * one decay length falls below a tenth of abs_tol."""
    if data.support.kind == "compact":
        return data.support.outer_radius
    n = data.n
    area = sphere_surface_area(n - 2)

    def magnitude(radius):
        probe = np.zeros(n - 1)
        probe[0] = radius
        fval = abs(float(data(probe[None, :])[0])) + data.amplitude * (1.0 + radius) ** min(
            data.growth_exponent, 0.0
        )
        return fval * decay(radius) * area * radius ** (n - 2) * radius

    radius = max(4.0, 4.0 * x.r if x is not None else 4.0,
                 2.0 * (data.support.inner_radius + 1.0))
    for _ in range(80):
        if magnitude(radius) < 0.1 * spec.abs_tol:
            return radius
        radius *= 2.0
    raise AccuracyError("could not find a truncation radius meeting the tail budget")


def _kernel_decay(params: KernelParams, x: HalfSpacePoint):
    """Bound on |kernel| at radius R, as the decay for `_data_reach`."""
    lam, big_m = params.lam, params.big_m
    sec = x.sec_theta ** (2.0 * lam)
    if params.kind == "first":
        return lambda radius: (min(1.0, x.r / radius) ** big_m * sec
                               * max(x.r, radius) ** (-2.0 * lam))
    # the subtracted tail of the second kind grows like |y'|^(M-1)
    return lambda radius: max(
        radius ** (-2.0 * lam),
        radius ** (big_m - 1.0) * x.r ** -(big_m + 2.0 * lam - 1.0),
    ) * sec


# ---------------------------------------------------------------------------
# cutoff


def _ramp(rho):
    """The cutoff w of the assembled solutions as a function of rho = |y'|:
    the smoothstep on [1, 2], 0 inside the unit ball and 1 outside radius 2.
    Any continuous ramp is admissible; this fixes ours."""
    t = np.clip(rho - 1.0, 0.0, 1.0)
    return 3.0 * t * t - 2.0 * t**3


# ---------------------------------------------------------------------------
# the boundary-integral driver


@dataclass(frozen=True)
class _KernelIntegrand:
    """f times the kernel K - c T_M of `_solve` (see
    `kernels._kernel_minus_tail`).

    It works in the polar variables of its region, about the centre c.
    With y - c = d a and |a| = 1, K takes |c + rho u - y|^2 =
    (rho - d)^2 + rho d |u - a|^2, with |u - a|^2 once per ray: rho^2
    exactly on a region about y.  About the origin the tail reads
    |y'| = rho and Theta per ray, so a row of Theta meets a column of radii;
    elsewhere both come from the nodes c + rho u.  The clip |y'| > r_lo of
    F is the regions' geometry (`_ball_region`), not the integrand's.
    """

    params: KernelParams
    data: BoundaryData
    x: HalfSpacePoint
    ramp: object = None

    def __call__(self, center, units, rho, f_rho=None):
        """f * kernel at c + rho u, shape (len(units), radii), for rho one
        row shared by the rays or one column, a radius per ray.  f_rho, the
        data along the shared row of an uncut region, serves data radial
        about c."""
        x, params = self.x, self.params
        origin = not center.any()
        off = x.y - center
        d = math.sqrt(off @ off)
        apart = _squared_gap(units, off / (d or 1.0))[None, :]  # |u - a|^2 per ray
        f = None if f_rho is None else f_rho[:, None]
        radii = rho.T if rho.ndim == 2 else rho[:, None]  # a column per ray
        pts = norms = theta_big = None
        if f is None or params.big_m and not origin:
            pts = center + radii[..., None] * units
        if params.big_m and origin:  # |y'| = rho, and Theta per ray
            norms = radii
            theta_big = x.sin_theta * cos_theta_prime_array(x, units)[None, :]
        elif params.big_m:
            norms = row_norms(pts)
            theta_big = x.sin_theta * cos_theta_prime_array(x, pts, norms=norms)
        # c multiplies the tail alone, which M = 0 does not have
        c = self.ramp(norms) if self.ramp is not None and params.big_m else 1.0
        gap = radii * d * apart
        gap += (radii - d) ** 2
        vals = _kernel_minus_tail(params, x.r, x.x_n, gap, norms, theta_big, c)
        if f is None:
            f = self.data(pts.reshape(-1, pts.shape[-1])).reshape(pts.shape[:-1])
        vals *= f
        return vals.T


def _solve(params: KernelParams, data: BoundaryData, x: HalfSpacePoint,
           spec: QuadratureSpec, prefactor: float, r_lo: float = 0.0, ramp=None):
    """(prefactor * integral of f * kernel over |y'| > r_lo, prefactor * estimate).

    The kernel is K - c T_M (see `kernels._kernel_minus_tail`), with T_M
    the Gegenbauer tail of the parameters' kind: c = 1 when ramp is None,
    giving K_M, K~_M and the base kernel at M = 0, and c = ramp(|y'|)
    otherwise, whose kink circles |y'| = 1, 2 then become region edges.
    One call of `_integrate_regions` over `_regions` integrates all of it,
    the peak of K near the boundary included.
    """
    g = _KernelIntegrand(params, data, x, ramp)
    kinks = (1.0, 2.0) if ramp is not None and params.big_m else ()
    regions = _regions(data, x, spec, r_lo, _kernel_decay(params, x), kinks)
    value, est = _integrate_regions(g, data.n, regions, spec)
    return prefactor * value, prefactor * est


def _check_first_kind(data: BoundaryData, lam: float, big_m: int):
    if not data.first_kind_admissible(lam, big_m):
        raise DomainError(
            f"data growth {data.growth_exponent} violates the moment condition "
            f"for lam={lam}, M={big_m}"
        )


def _check_origin_clearance(data: BoundaryData, big_m: int):
    if big_m >= 1 and data.support.inner_radius <= 0.0:
        raise DomainError(
            "modified kernels are singular at the boundary origin; data must "
            "vanish near it, with the support's inner radius declared"
        )


def _first_kind_map(problem: str, data: BoundaryData, big_m: int, x: HalfSpacePoint,
                    spec: QuadratureSpec | None, ramp):
    """The Dirichlet or Neumann integral of f against K - c T_M (see `_solve`)."""
    lam, norm, carries_xn = _problem(problem, x.n)
    _check_first_kind(data, lam, big_m)
    return _solve(KernelParams(lam, big_m), data, x, spec or QuadratureSpec(),
                  norm * x.x_n if carries_xn else norm, ramp=ramp)


# ---------------------------------------------------------------------------
# public maps


def integrate_weighted(data: BoundaryData, weight, spec: QuadratureSpec | None = None,
                       *, weight_growth: float = 0.0):
    """Integral of data * weight over the support of data, for weights with
    no peak (no field point shapes the regions).

    `weight` is a vectorized function of boundary points; `weight_growth`
    bounds its growth for truncation of global data.
    """
    spec = spec or QuadratureSpec()
    regions = _regions(data, None, spec, 0.0, lambda radius: radius**weight_growth)

    def g(center, units, rho, f_rho):
        pts = (center + rho[..., None] * units[:, None, :]).reshape(-1, data.n - 1)
        return (data(pts) * weight(pts)).reshape(len(units), -1)

    return _integrate_regions(g, data.n, regions, spec)[0]


def integral_F(params: KernelParams, data: BoundaryData, x: HalfSpacePoint,
               spec: QuadratureSpec | None = None, *, return_estimate: bool = False):
    """F[f](x): integral of f * K_M over the exterior of the unit ball."""
    if params.kind != "first":
        raise DomainError("integral_F takes first-kind kernel parameters")
    _check_first_kind(data, params.lam, params.big_m)
    out = _solve(params, data, x, spec or QuadratureSpec(), 1.0, r_lo=1.0)
    return out if return_estimate else out[0]


def integral_F_second(params: KernelParams, data: BoundaryData, x: HalfSpacePoint,
                      spec: QuadratureSpec | None = None, *,
                      return_estimate: bool = False):
    """F~[f](x): integral of f * K~_M over the whole boundary hyperplane."""
    if params.kind != "second":
        raise DomainError("integral_F_second takes second-kind kernel parameters")
    if not data.second_kind_admissible(params.big_m):
        raise DomainError(
            f"data growth {data.growth_exponent} violates the decay condition for M={params.big_m}"
        )
    out = _solve(params, data, x, spec or QuadratureSpec(), 1.0)
    return out if return_estimate else out[0]


def dirichlet_D(data: BoundaryData, x: HalfSpacePoint,
                spec: QuadratureSpec | None = None, *, return_estimate: bool = False):
    """Classical half-space Dirichlet integral alpha_n x_n int f K(n/2)."""
    return dirichlet_DM(0, data, x, spec, return_estimate=return_estimate)


def neumann_N(data: BoundaryData, x: HalfSpacePoint,
              spec: QuadratureSpec | None = None, *, return_estimate: bool = False):
    """Classical half-space Neumann integral; needs ambient dimension >= 3."""
    return neumann_NM(0, data, x, spec, return_estimate=return_estimate)


def dirichlet_DM(big_m: int, data: BoundaryData, x: HalfSpacePoint,
                 spec: QuadratureSpec | None = None, *, return_estimate: bool = False):
    """Modified Dirichlet integral alpha_n x_n int f K_M(n/2)."""
    _check_origin_clearance(data, big_m)
    out = _first_kind_map("dirichlet", data, big_m, x, spec, None)
    return out if return_estimate else out[0]


def neumann_NM(big_m: int, data: BoundaryData, x: HalfSpacePoint,
               spec: QuadratureSpec | None = None, *, return_estimate: bool = False):
    """Modified Neumann integral (alpha_n / (n-2)) int f K_M((n-2)/2)."""
    _check_origin_clearance(data, big_m)
    out = _first_kind_map("neumann", data, big_m, x, spec, None)
    return out if return_estimate else out[0]


def solution_u(data: BoundaryData, big_m: int, x: HalfSpacePoint,
               spec: QuadratureSpec | None = None, *, return_estimate: bool = False):
    """Assembled Dirichlet solution D_M[w f] + D[(1 - w) f], computed as
    the one integral alpha_n x_n int f (K - w T_M)(n/2).  The cutoff w is 0
    on the unit ball, 1 outside radius 2, and 3t^2 - 2t^3 with t = |y'| - 1
    between."""
    out = _first_kind_map("dirichlet", data, big_m, x, spec, _ramp)
    return out if return_estimate else out[0]


def solution_v(data: BoundaryData, big_m: int, x: HalfSpacePoint,
               spec: QuadratureSpec | None = None, *, return_estimate: bool = False):
    """Assembled Neumann solution N_M[w f] + N[(1 - w) f], computed as
    the one integral (alpha_n / (n-2)) int f (K - w T_M)((n-2)/2), with the
    cutoff w of `solution_u`."""
    out = _first_kind_map("neumann", data, big_m, x, spec, _ramp)
    return out if return_estimate else out[0]
