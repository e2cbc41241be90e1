"""Sphere/capsule collision primitives and signed-distance barriers.

Every collision body reduces to a world-frame segment plus a radius (a
sphere is a zero-length segment).  The signed distance between bodies A
and B is

    h = ||p_A^r - p_B^r|| - (rho_A + rho_B)

with p_A^r, p_B^r the closest points on the centerline segments.  Its
configuration gradient, by the envelope theorem (witness points move as
material points), is n^T (J_A - J_B) with n = (p_A^r - p_B^r)/||.||;
offsetting the Jacobian point by rho*n along the normal does not change
the row because n . (w x n) = 0 for any angular velocity w.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import FkResult, RobotModel, forward_kinematics, point_jacobian

# Below this witness separation the contact normal is numerically meaningless.
DEGENERATE_DISTANCE = 1e-9


class DegenerateWitnessError(RuntimeError):
    """Coincident witness points: the barrier gradient is undefined this cycle."""


@dataclass(frozen=True)
class CollisionBody:
    """Sphere or capsule attached to a robot link (``link >= 0``) or the world.

    ``p0 == p1`` encodes a sphere.  For world bodies the segment is given
    directly in world coordinates and ``velocity`` is its rigid velocity.
    """

    name: str
    link: int                     # -1 = world-attached
    radius: float
    p0: np.ndarray
    p1: np.ndarray
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self) -> None:
        if self.radius <= 0.0:
            raise ValueError(f"collision body {self.name!r}: radius must be > 0")

    @property
    def is_world(self) -> bool:
        return self.link < 0

    @property
    def is_sphere(self) -> bool:
        return bool(np.array_equal(self.p0, self.p1))


@dataclass(frozen=True)
class WorldSegment:
    """A collision body posed in the world frame."""

    a: np.ndarray
    b: np.ndarray
    radius: float


@dataclass(frozen=True)
class ProximityResult:
    """Closest-point query result between two posed bodies."""

    h: float                  # signed distance [m]
    point_a: np.ndarray       # witness point on A's centerline (world)
    point_b: np.ndarray       # witness point on B's centerline (world)
    normal: np.ndarray        # unit vector from B's witness toward A's
    sign: int                 # sign of h (+1 when h >= 0)
    degenerate: bool = False  # witness points coincide; normal meaningless


def pose_body(body: CollisionBody, fk: FkResult) -> WorldSegment:
    """World-frame segment of a body; world bodies pass through unchanged."""
    if body.is_world:
        return WorldSegment(a=body.p0, b=body.p1, radius=body.radius)
    return WorldSegment(
        a=fk.link_point(body.link, body.p0),
        b=fk.link_point(body.link, body.p1),
        radius=body.radius,
    )


def segment_closest_points(
    a0: np.ndarray, a1: np.ndarray, b0: np.ndarray, b1: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Closest points between segments [a0,a1] and [b0,b1].

    Clamped-parameter algorithm; the parallel case breaks ties by picking,
    among minimizers, the point pair nearest the segment-A midpoint so the
    result is deterministic.
    """
    u = a1 - a0
    v = b1 - b0
    w = a0 - b0
    uu = float(u @ u)
    vv = float(v @ v)
    uv = float(u @ v)
    uw = float(u @ w)
    vw = float(v @ w)

    if uu < 1e-18 and vv < 1e-18:
        return a0, b0
    if uu < 1e-18:
        t = np.clip(vw / vv, 0.0, 1.0)
        return a0, b0 + t * v
    if vv < 1e-18:
        s = np.clip(-uw / uu, 0.0, 1.0)
        return a0 + s * u, b0

    denom = uu * vv - uv * uv
    if denom > 1e-12 * uu * vv:
        s = np.clip((uv * vw - vv * uw) / denom, 0.0, 1.0)
    else:
        # Parallel lines: the minimizing s-interval on A is the projection of
        # B's parameter range; take the admissible s nearest to 1/2.
        s_lo = -uw / uu
        s_hi = (uv - uw) / uu
        lo, hi = min(s_lo, s_hi), max(s_lo, s_hi)
        lo = float(np.clip(lo, 0.0, 1.0))
        hi = float(np.clip(hi, 0.0, 1.0))
        s = float(np.clip(0.5, lo, hi))
    t = np.clip((uv * s + vw) / vv, 0.0, 1.0)
    # Re-clamp s against the now-fixed t (required when t was clamped).
    s = np.clip((uv * t - uw) / uu, 0.0, 1.0)
    return a0 + s * u, b0 + t * v


def closest_points(shape_a: WorldSegment, shape_b: WorldSegment) -> ProximityResult:
    """Signed distance and witness points between two posed bodies."""
    pa, pb = segment_closest_points(shape_a.a, shape_a.b, shape_b.a, shape_b.b)
    diff = pa - pb
    dist = float(np.linalg.norm(diff))
    h = dist - (shape_a.radius + shape_b.radius)
    if dist < DEGENERATE_DISTANCE:
        return ProximityResult(
            h=h, point_a=pa, point_b=pb, normal=np.zeros(3),
            sign=1 if h >= 0.0 else -1, degenerate=True,
        )
    return ProximityResult(
        h=h, point_a=pa, point_b=pb, normal=diff / dist,
        sign=1 if h >= 0.0 else -1,
    )


def body_pair_barrier(
    model: RobotModel,
    q: np.ndarray,
    body_a: CollisionBody,
    body_b: CollisionBody,
    fk: FkResult | None = None,
) -> tuple[float, np.ndarray, ProximityResult]:
    """Barrier value h and its 1 x n_dof gradient for a collision-body pair.

    World-attached bodies contribute a zero Jacobian.  Raises
    DegenerateWitnessError when the witness points coincide (gradient
    undefined; the caller drops the row for this cycle).
    """
    if body_a.is_world and body_b.is_world:
        raise ValueError("at least one body must be attached to the robot")
    if fk is None:
        fk = forward_kinematics(model, q)
    prox = closest_points(pose_body(body_a, fk), pose_body(body_b, fk))
    if prox.degenerate:
        raise DegenerateWitnessError(
            f"coincident witness points for pair ({body_a.name}, {body_b.name})"
        )
    n = prox.normal
    grad = np.zeros(model.n_dof)
    if not body_a.is_world:
        surf_a = prox.point_a + body_a.radius * n
        local = fk.rot[body_a.link].T @ (surf_a - fk.pos[body_a.link])
        grad += n @ point_jacobian(model, q, body_a.link, local, fk=fk)
    if not body_b.is_world:
        surf_b = prox.point_b + body_b.radius * n
        local = fk.rot[body_b.link].T @ (surf_b - fk.pos[body_b.link])
        grad -= n @ point_jacobian(model, q, body_b.link, local, fk=fk)
    return prox.h, grad, prox


def _workspace_separation(
    model: RobotModel,
    q: np.ndarray,
    point_a: tuple[int, np.ndarray],
    point_b: tuple[int, np.ndarray],
    d_max: float,
    fk: FkResult | None,
) -> tuple[FkResult, np.ndarray, float]:
    """(fk, p_A - p_B, ||p_A - p_B||) for a workspace pair."""
    if d_max <= 0.0:
        raise ValueError("d_max must be > 0")
    if fk is None:
        fk = forward_kinematics(model, q)
    diff = fk.link_point(*point_a) - fk.link_point(*point_b)
    return fk, diff, float(np.linalg.norm(diff))


def workspace_barrier_value(
    model: RobotModel,
    q: np.ndarray,
    point_a: tuple[int, np.ndarray],
    point_b: tuple[int, np.ndarray],
    d_max: float,
    fk: FkResult | None = None,
) -> float:
    """The h of ``workspace_barrier`` alone, without building its Jacobians."""
    _, _, dist = _workspace_separation(model, q, point_a, point_b, d_max, fk)
    if dist < DEGENERATE_DISTANCE:
        return d_max
    return d_max - dist


def workspace_barrier(
    model: RobotModel,
    q: np.ndarray,
    point_a: tuple[int, np.ndarray],
    point_b: tuple[int, np.ndarray],
    d_max: float,
    fk: FkResult | None = None,
) -> tuple[float, np.ndarray]:
    """Maximum-allowable-distance barrier h = d_max - ||p_A - p_B||.

    The coincident case p_A = p_B is the interior of the safe set: returns
    (d_max, 0).
    """
    fk, diff, dist = _workspace_separation(model, q, point_a, point_b, d_max, fk)
    if dist < DEGENERATE_DISTANCE:
        return d_max, np.zeros(model.n_dof)
    link_a, local_a = point_a
    link_b, local_b = point_b
    n = diff / dist
    grad = -(
        n @ point_jacobian(model, q, link_a, local_a, fk=fk)
        - n @ point_jacobian(model, q, link_b, local_b, fk=fk)
    )
    return d_max - dist, grad
