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
n . (w x n) = 0 for any angular velocity w.  Points, normals and gradients
are computed on plain Python floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .model import FkResult, RobotModel, _normal_jacobian, _xyz

Vec3 = tuple[float, float, float]

# Below this witness separation the contact normal is numerically meaningless.
DEGENERATE_DISTANCE = 1e-9


class DegenerateWitnessError(RuntimeError):
    """Coincident witness points: the barrier gradient is undefined this cycle."""


@dataclass(frozen=True)
class CollisionBody:
    """Sphere or capsule attached to a robot link (``link >= 0``) or the world.

    ``p0 == p1`` encodes a sphere.  For world bodies the segment is given
    directly in world coordinates.
    """

    name: str
    link: int                     # -1 = world-attached
    radius: float
    p0: np.ndarray
    p1: np.ndarray

    def __post_init__(self) -> None:
        if self.radius <= 0.0:
            raise ValueError(f"collision body {self.name!r}: radius must be > 0")

    @property
    def is_world(self) -> bool:
        return self.link < 0


@dataclass(frozen=True)
class WorkspacePair:
    """Maximum-distance bound d_max between two points attached to links."""

    name: str
    link_a: int
    point_a: np.ndarray
    link_b: int
    point_b: np.ndarray
    d_max: float

    def __post_init__(self) -> None:
        if self.d_max <= 0.0:
            raise ValueError(f"workspace pair {self.name!r}: d_max must be > 0")


@dataclass(frozen=True)
class WorldSegment:
    """A collision body posed in the world frame (end points as 3-vectors)."""

    a: Vec3
    b: Vec3
    radius: float


@dataclass(frozen=True)
class ProximityResult:
    """Closest-point query result between two posed bodies (points as floats)."""

    h: float                  # signed distance [m]
    point_a: Vec3             # witness point on A's centerline (world)
    point_b: Vec3             # witness point on B's centerline (world)
    normal: Vec3              # unit vector from B's witness toward A's
    degenerate: bool = False  # witness points coincide; normal meaningless


def pose_body(body: CollisionBody, fk: FkResult) -> WorldSegment:
    """World-frame segment of a body; world bodies keep their coordinates."""
    p0, p1 = _xyz(body.p0), _xyz(body.p1)
    if body.is_world:
        return WorldSegment(a=p0, b=p1, radius=body.radius)
    return WorldSegment(
        a=fk._point(body.link, p0),
        b=fk._point(body.link, p1),
        radius=body.radius,
    )


def _clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def segment_closest_points(a0, a1, b0, b1) -> tuple[Vec3, Vec3]:
    """Closest points between segments [a0,a1] and [b0,b1], as 3-tuples.

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
        return (a0x, a0y, a0z), (b0x, b0y, b0z)
    if uu < 1e-18:
        t = _clamp01(vw / vv)
        return (a0x, a0y, a0z), (b0x + t * vx, b0y + t * vy, b0z + t * vz)
    if vv < 1e-18:
        s = _clamp01(-uw / uu)
        return (a0x + s * ux, a0y + s * uy, a0z + s * uz), (b0x, b0y, b0z)

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
            (b0x + t * vx, b0y + t * vy, b0z + t * vz))


def closest_points(shape_a: WorldSegment, shape_b: WorldSegment) -> ProximityResult:
    """Signed distance and witness points between two posed bodies."""
    pa, pb = segment_closest_points(shape_a.a, shape_a.b, shape_b.a, shape_b.b)
    dx, dy, dz = pa[0] - pb[0], pa[1] - pb[1], pa[2] - pb[2]
    dist = sqrt(dx * dx + dy * dy + dz * dz)
    h = dist - (shape_a.radius + shape_b.radius)
    if dist < DEGENERATE_DISTANCE:
        return ProximityResult(h=h, point_a=pa, point_b=pb, normal=(0.0, 0.0, 0.0),
                               degenerate=True)
    return ProximityResult(h=h, point_a=pa, point_b=pb,
                           normal=(dx / dist, dy / dist, dz / dist))


def body_pair_barrier(
    model: RobotModel,
    fk: FkResult,
    body_a: CollisionBody,
    body_b: CollisionBody,
) -> tuple[float, np.ndarray, ProximityResult]:
    """Barrier value h and its 1 x n_dof gradient for a collision-body pair at pose ``fk``.

    The gradient is n . (J_A(p_A) - J_B(p_B)) at the world witness points;
    world-attached bodies contribute a zero Jacobian.  Raises
    DegenerateWitnessError when the witness points coincide (gradient
    undefined; the caller drops the row for this cycle).
    """
    if body_a.is_world and body_b.is_world:
        raise ValueError("at least one body must be attached to the robot")
    prox = closest_points(pose_body(body_a, fk), pose_body(body_b, fk))
    if prox.degenerate:
        raise DegenerateWitnessError(
            f"coincident witness points for pair ({body_a.name}, {body_b.name})"
        )
    n_dof = model.n_dof
    if body_b.is_world:
        grad = _normal_jacobian(fk, n_dof, body_a.link, prox.point_a, prox.normal)
    else:
        grad_b = _normal_jacobian(fk, n_dof, body_b.link, prox.point_b, prox.normal)
        if body_a.is_world:
            grad = [-g for g in grad_b]
        else:
            grad_a = _normal_jacobian(fk, n_dof, body_a.link, prox.point_a, prox.normal)
            grad = [ga - gb for ga, gb in zip(grad_a, grad_b)]
    return prox.h, np.array(grad), prox


def _workspace_separation(fk: FkResult, pair: WorkspacePair) -> tuple[Vec3, Vec3, float]:
    """(p_A, p_B, ||p_A - p_B||) for a workspace pair at pose ``fk``."""
    pa = fk._point(pair.link_a, _xyz(pair.point_a))
    pb = fk._point(pair.link_b, _xyz(pair.point_b))
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
