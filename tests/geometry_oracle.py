"""Reference numpy closest points and barrier gradients for the tests.

``segment_closest_points`` and ``closest_points`` are the numpy versions the
package used before its geometry ran on Python floats (``np.clip`` clamps,
``np.linalg.norm``).  ``body_pair_barrier`` and ``workspace_barrier`` build
the gradient the former way: each surface point is converted into link
coordinates and posed again by the numpy point Jacobian of
``kinematics_oracle``.  The float versions in ``issf_wbc.geometry`` must
agree with them to machine precision.
"""

from __future__ import annotations

import numpy as np

from issf_wbc.geometry import (
    DEGENERATE_DISTANCE,
    CollisionBody,
    ProximityResult,
    WorldSegment,
)
from issf_wbc.model import RobotModel

from barrier_oracle import DegenerateWitnessError
from kinematics_oracle import FkResult, forward_kinematics, point_jacobian


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
    pa, pb = segment_closest_points(*(np.asarray(p, dtype=float) for p in
                                      (shape_a.a, shape_a.b, shape_b.a, shape_b.b)))
    diff = pa - pb
    dist = float(np.linalg.norm(diff))
    h = dist - (shape_a.radius + shape_b.radius)
    if dist < DEGENERATE_DISTANCE:
        return ProximityResult(h=h, point_a=pa, point_b=pb, normal=np.zeros(3),
                               degenerate=True)
    return ProximityResult(h=h, point_a=pa, point_b=pb, normal=diff / dist)


def body_pair_barrier(
    model: RobotModel, q: np.ndarray, body_a: CollisionBody, body_b: CollisionBody,
) -> tuple[float, np.ndarray, ProximityResult]:
    """Barrier value h and its gradient, Jacobians taken in link coordinates."""
    if body_a.is_world and body_b.is_world:
        raise ValueError("at least one body must be attached to the robot")
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


def workspace_barrier(
    model: RobotModel,
    q: np.ndarray,
    point_a: tuple[int, np.ndarray],
    point_b: tuple[int, np.ndarray],
    d_max: float,
) -> tuple[float, np.ndarray]:
    """Maximum-allowable-distance barrier h = d_max - ||p_A - p_B|| and its gradient."""
    fk = forward_kinematics(model, q)
    diff = fk.link_point(*point_a) - fk.link_point(*point_b)
    dist = float(np.linalg.norm(diff))
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
