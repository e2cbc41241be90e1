"""Sphere/capsule collision primitives, signed-distance and workspace barriers.

Every collision body reduces to a world-frame segment plus a radius (a
sphere is a zero-length segment).  The signed distance between bodies A
and B is

    h = ||p_A^r - p_B^r|| - (rho_A + rho_B)

with p_A^r, p_B^r the closest points on the centerline segments.  Its
configuration gradient, by the envelope theorem (witness points move as
material points), is n^T (J_A - J_B) with n = (p_A^r - p_B^r)/||.||.
The Jacobians are taken at the centerline witness points themselves:
offsetting them by rho*n to the surface would not change the row, because
n . (w x n) = 0 for any angular velocity w.  A point is three Python floats:
the bodies convert theirs once, when built, so posing, moving and every
closest-point, normal and gradient computation run on plain floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, sqrt
from typing import NamedTuple

import numpy as np

from .model import FkResult, _normal_jacobian, _point_motion

Vec3 = tuple[float, float, float]

# Below this witness separation the contact normal is numerically meaningless.
DEGENERATE_DISTANCE = 1e-9

_ZERO3 = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class CollisionBody:
    """Sphere or capsule attached to a robot link (``link >= 0``) or the world.

    ``p0 == p1`` encodes a sphere; both are stored as float 3-tuples.  For
    world bodies the segment is given directly in world coordinates.
    """

    name: str
    link: int                     # -1 = world-attached
    radius: float
    p0: Vec3
    p1: Vec3

    def __post_init__(self) -> None:
        if not 0.0 < self.radius < inf:
            raise ValueError(f"radius: must be finite and > 0, got {self.radius!r}")
        object.__setattr__(self, "p0", tuple(map(float, self.p0)))
        object.__setattr__(self, "p1", tuple(map(float, self.p1)))

    @property
    def is_world(self) -> bool:
        return self.link < 0

    def moved(self, offset: Vec3) -> "CollisionBody":
        """This body with both end points shifted by ``offset`` (three floats)."""
        ox, oy, oz = offset
        (ax, ay, az), (bx, by, bz) = self.p0, self.p1
        return CollisionBody(self.name, self.link, self.radius, (ax + ox, ay + oy, az + oz),
                             (bx + ox, by + oy, bz + oz))


@dataclass(frozen=True)
class WorkspacePair:
    """Maximum-distance bound d_max between two link points (float 3-tuples)."""

    name: str
    link_a: int
    point_a: Vec3
    link_b: int
    point_b: Vec3
    d_max: float

    def __post_init__(self) -> None:
        if not 0.0 < self.d_max < inf:
            raise ValueError(f"d_max: must be finite and > 0, got {self.d_max!r}")
        object.__setattr__(self, "point_a", tuple(map(float, self.point_a)))
        object.__setattr__(self, "point_b", tuple(map(float, self.point_b)))


class WorldSegment(NamedTuple):
    """A collision body posed in the world frame (end points as 3-vectors)."""

    a: Vec3
    b: Vec3
    radius: float


class ProximityResult(NamedTuple):
    """Closest-point query result between two posed bodies (points as floats)."""

    h: float                  # signed distance [m]
    point_a: Vec3             # witness point on A's centerline (world)
    point_b: Vec3             # witness point on B's centerline (world)
    normal: Vec3              # unit vector from B's witness toward A's
    degenerate: bool = False  # witness points coincide; normal meaningless
    s: float = 0.0            # point_a = a + s (b - a) on A's posed segment
    t: float = 0.0            # point_b = a + t (b - a) on B's posed segment


def pose_body(body: CollisionBody, fk: FkResult) -> WorldSegment:
    """World-frame segment of a body; world bodies keep their coordinates."""
    if body.link < 0:
        return WorldSegment(body.p0, body.p1, body.radius)
    return WorldSegment(fk._point(body.link, body.p0), fk._point(body.link, body.p1), body.radius)


def _clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def _segment_witnesses(a0, a1, b0, b1) -> tuple[Vec3, Vec3, float, float]:
    """Closest points p_A, p_B between segments [a0,a1] and [b0,b1], as
    3-tuples, and their parameters (s, t): p_A = a0 + s (a1 - a0) and
    p_B = b0 + t (b1 - b0).

    Clamped-parameter algorithm; the parallel case breaks ties by picking,
    among minimizers, the point pair nearest the segment-A midpoint so the
    result is deterministic.
    """
    a0x, a0y, a0z = a0
    a1x, a1y, a1z = a1
    b0x, b0y, b0z = b0
    b1x, b1y, b1z = b1
    ux, uy, uz = a1x - a0x, a1y - a0y, a1z - a0z
    vx, vy, vz = b1x - b0x, b1y - b0y, b1z - b0z
    wx, wy, wz = a0x - b0x, a0y - b0y, a0z - b0z
    uu = ux * ux + uy * uy + uz * uz
    vv = vx * vx + vy * vy + vz * vz
    uv = ux * vx + uy * vy + uz * vz
    uw = ux * wx + uy * wy + uz * wz
    vw = vx * wx + vy * wy + vz * wz

    if uu < 1e-18 and vv < 1e-18:
        return (a0x, a0y, a0z), (b0x, b0y, b0z), 0.0, 0.0
    if uu < 1e-18:
        t = _clamp01(vw / vv)
        return (a0x, a0y, a0z), (b0x + t * vx, b0y + t * vy, b0z + t * vz), 0.0, t
    if vv < 1e-18:
        s = _clamp01(-uw / uu)
        return (a0x + s * ux, a0y + s * uy, a0z + s * uz), (b0x, b0y, b0z), s, 0.0

    denom = uu * vv - uv * uv
    if denom > 1e-12 * uu * vv:
        s = _clamp01((uv * vw - vv * uw) / denom)
    else:
        # Parallel lines: the minimizing s-interval on A is the projection of
        # B's parameter range; take the admissible s nearest to 1/2.
        s_lo = -uw / uu
        s_hi = (uv - uw) / uu
        lo = _clamp01(min(s_lo, s_hi))
        hi = _clamp01(max(s_lo, s_hi))
        s = min(max(0.5, lo), hi)
    t = _clamp01((uv * s + vw) / vv)
    # Re-clamp s against the now-fixed t (required when t was clamped).
    s = _clamp01((uv * t - uw) / uu)
    return ((a0x + s * ux, a0y + s * uy, a0z + s * uz),
            (b0x + t * vx, b0y + t * vy, b0z + t * vz), s, t)


def closest_points(shape_a: WorldSegment, shape_b: WorldSegment) -> ProximityResult:
    """Signed distance and witness points between two posed bodies."""
    pa, pb, s, t = _segment_witnesses(shape_a.a, shape_a.b, shape_b.a, shape_b.b)
    dx, dy, dz = pa[0] - pb[0], pa[1] - pb[1], pa[2] - pb[2]
    dist = sqrt(dx * dx + dy * dy + dz * dz)
    h = dist - (shape_a.radius + shape_b.radius)
    if dist < DEGENERATE_DISTANCE:
        return ProximityResult(h, pa, pb, _ZERO3, True, s, t)
    return ProximityResult(h, pa, pb, (dx / dist, dy / dist, dz / dist), False, s, t)


def _pair_gradient(fk: FkResult, n_dof: int, link_a: int, link_b: int,
                   prox: ProximityResult) -> list[float]:
    """n . (J_A(p_A) - J_B(p_B)) of a pair of bodies on ``link_a`` and
    ``link_b`` (-1: the world, whose Jacobian is zero) whose non-degenerate
    ``closest_points`` at pose ``fk`` is ``prox``."""
    if link_b < 0:
        return _normal_jacobian(fk, n_dof, link_a, prox.point_a, prox.normal)
    grad_b = _normal_jacobian(fk, n_dof, link_b, prox.point_b, prox.normal)
    if link_a < 0:
        return [-g for g in grad_b]
    grad_a = _normal_jacobian(fk, n_dof, link_a, prox.point_a, prox.normal)
    return [ga - gb for ga, gb in zip(grad_a, grad_b)]


def _workspace_separation(fk: FkResult, pair: WorkspacePair) -> tuple[Vec3, Vec3, float]:
    """(p_A, p_B, ||p_A - p_B||) for a workspace pair at pose ``fk``."""
    pa = fk._point(pair.link_a, pair.point_a)
    pb = fk._point(pair.link_b, pair.point_b)
    dx, dy, dz = pa[0] - pb[0], pa[1] - pb[1], pa[2] - pb[2]
    return pa, pb, sqrt(dx * dx + dy * dy + dz * dz)


def workspace_barrier_value(fk: FkResult, pair: WorkspacePair) -> float:
    """The h of ``workspace_barrier`` alone, without building its gradient."""
    dist = _workspace_separation(fk, pair)[2]
    if dist < DEGENERATE_DISTANCE:
        return pair.d_max
    return pair.d_max - dist


def workspace_barrier(fk: FkResult, pair: WorkspacePair) -> tuple[float, np.ndarray]:
    """Maximum-allowable-distance barrier h = d_max - ||p_A - p_B|| at pose ``fk``.

    The coincident case p_A = p_B is the interior of the safe set: returns
    (d_max, 0).
    """
    pa, pb, dist = _workspace_separation(fk, pair)
    n_dof = len(fk.pos)
    if dist < DEGENERATE_DISTANCE:
        return pair.d_max, np.zeros(n_dof)
    normal = ((pa[0] - pb[0]) / dist, (pa[1] - pb[1]) / dist, (pa[2] - pb[2]) / dist)
    grad_a = _normal_jacobian(fk, n_dof, pair.link_a, pa, normal)
    grad_b = _normal_jacobian(fk, n_dof, pair.link_b, pb, normal)
    return pair.d_max - dist, np.array([gb - ga for ga, gb in zip(grad_a, grad_b)])


# -- closed-form second time derivatives (the eCBF curvature term) ----------

def _segment_motion(body: CollisionBody, segment: WorldSegment, fk: FkResult, rates, point,
                    velocity: Vec3):
    """(u, u_dot, v_p, a_p) of a body posed as ``segment``: its segment
    b - a and that vector's rate, and the velocity and bias acceleration of
    the material point at world ``point``.  A world body translates at
    ``velocity`` with no acceleration; a robot body moves with its link
    (``_link_rates``)."""
    (ax, ay, az), (bx, by, bz) = segment.a, segment.b
    ux, uy, uz = bx - ax, by - ay, bz - az
    if body.is_world:
        return (ux, uy, uz), _ZERO3, velocity, _ZERO3
    (wx, wy, wz), vel, acc = _point_motion(fk, rates, body.link, point)
    return ((ux, uy, uz), (wy * uz - wz * uy, wz * ux - wx * uz, wx * uy - wy * ux),
            vel, acc)


def _pair_curvature(fk: FkResult, rates, body_a: CollisionBody, segment_a: WorldSegment,
                    body_b: CollisionBody, segment_b: WorldSegment, prox: ProximityResult,
                    velocity_b: Vec3 = _ZERO3) -> float:
    """Second time derivative of a body pair's signed distance at zero joint
    acceleration, qd^T (d2h/dq2) qd + 2 qd^T (d/dt grad h) + d2h/dt2, in
    closed form.

    ``prox`` is the pair's ``closest_points`` of the bodies posed at ``fk``
    as ``segment_a`` and ``segment_b``, and ``rates`` its ``_link_rates``; a
    world body B translates at ``velocity_b``.  With
    witnesses p_A = a + s u and p_B = b + t v, d = p_A - p_B, n = d/|d|,
    and v_A, v_B (a_A, a_B) the velocities (bias accelerations) of the
    material points at s and t, h_dot = n.(v_A - v_B) and

        h_ddot = n_dot.(v_A - v_B) + n.(a_A - a_B) + s_dot n.u_dot - t_dot n.v_dot,
        n_dot = (d_dot - n (n.d_dot)) / |d|,   d_dot = v_A - v_B + s_dot u - t_dot v.

    An interior witness (0 < s < 1) slides at the rate that keeps u.d = 0,
    and likewise t with v.d = 0, solved jointly when both are interior.  A
    clamped witness, or a sphere's, stays at its end: s_dot = 0.  For
    parallel segments the minimizer is not unique; A's witness is held
    (s_dot = 0), so the curvature is that of the distance from A's material
    witness point to segment B, which is exact while the segments stay
    parallel.
    """
    pa, pb, (nx, ny, nz) = prox.point_a, prox.point_b, prox.normal
    (ux, uy, uz), (udx, udy, udz), va, aa = _segment_motion(body_a, segment_a, fk, rates,
                                                            pa, _ZERO3)
    (vx, vy, vz), (vdx, vdy, vdz), vb, ab = _segment_motion(body_b, segment_b, fk, rates,
                                                            pb, velocity_b)
    dx, dy, dz = pa[0] - pb[0], pa[1] - pb[1], pa[2] - pb[2]
    dist = sqrt(dx * dx + dy * dy + dz * dz)
    rx, ry, rz = va[0] - vb[0], va[1] - vb[1], va[2] - vb[2]
    uu = ux * ux + uy * uy + uz * uz
    vv = vx * vx + vy * vy + vz * vz
    uv = ux * vx + uy * vy + uz * vz
    slide_a = uu >= 1e-18 and 0.0 < prox.s < 1.0
    slide_b = vv >= 1e-18 and 0.0 < prox.t < 1.0
    denom = uu * vv - uv * uv
    if slide_a and slide_b and not denom > 1e-12 * uu * vv:
        slide_a = False                       # parallel: hold A's witness
    s_dot = t_dot = 0.0
    if slide_a or slide_b:
        # d/dt (u.d) = r1 + uu s_dot - uv t_dot = 0, d/dt (v.d) = r2 + uv s_dot - vv t_dot = 0
        r1 = udx * dx + udy * dy + udz * dz + ux * rx + uy * ry + uz * rz
        r2 = vdx * dx + vdy * dy + vdz * dz + vx * rx + vy * ry + vz * rz
        if slide_a and slide_b:
            s_dot = (uv * r2 - vv * r1) / denom
            t_dot = (uu * r2 - uv * r1) / denom
        elif slide_a:
            s_dot = -r1 / uu
        else:
            t_dot = r2 / vv
    ddx = rx + s_dot * ux - t_dot * vx
    ddy = ry + s_dot * uy - t_dot * vy
    ddz = rz + s_dot * uz - t_dot * vz
    nd = nx * ddx + ny * ddy + nz * ddz
    return (((ddx - nx * nd) * rx + (ddy - ny * nd) * ry + (ddz - nz * nd) * rz) / dist
            + nx * (aa[0] - ab[0]) + ny * (aa[1] - ab[1]) + nz * (aa[2] - ab[2])
            + s_dot * (nx * udx + ny * udy + nz * udz)
            - t_dot * (nx * vdx + ny * vdy + nz * vdz))


def _workspace_curvature(fk: FkResult, rates, pair: WorkspacePair) -> float:
    """Second time derivative of ``workspace_barrier`` at zero joint
    acceleration: both points are fixed on their links, so with
    d = p_A - p_B, n = d/|d| and h = d_max - |d|,
    h_ddot = -(|d_dot|^2 - (n.d_dot)^2)/|d| - n.(a_A - a_B).  Zero where the
    points coincide (the barrier is constant there)."""
    pa, pb, dist = _workspace_separation(fk, pair)
    if dist < DEGENERATE_DISTANCE:
        return 0.0
    _, va, aa = _point_motion(fk, rates, pair.link_a, pa)
    _, vb, ab = _point_motion(fk, rates, pair.link_b, pb)
    nx, ny, nz = (pa[0] - pb[0]) / dist, (pa[1] - pb[1]) / dist, (pa[2] - pb[2]) / dist
    rx, ry, rz = va[0] - vb[0], va[1] - vb[1], va[2] - vb[2]
    nd = nx * rx + ny * ry + nz * rz
    return (-(rx * rx + ry * ry + rz * rz - nd * nd) / dist
            - (nx * (aa[0] - ab[0]) + ny * (aa[1] - ab[1]) + nz * (aa[2] - ab[2])))
