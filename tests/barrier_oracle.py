"""Reference barrier rows, ground truth and eCBF rows, rebuilt every call.

The package builds a run's barrier catalog once (``safety.barrier_plan``)
and poses each body once per cycle.  These are the per-cycle versions it
replaced: ``collect_constraints`` and ``barrier_values`` rebuild the
catalog from the model, the filter configuration and the pairs on every
call, evaluate each collision pair with ``body_pair_barrier`` (both bodies
posed again for every pair, a gradient built for every pair and dropped for
an inactive one) and look up alpha and eps per row (inf for every row in cbf
mode); ``ecbf_rows`` poses each pair's bodies again for its curvature.  The
package's rows, ground-truth values and eCBF rows must equal these byte for
byte.

``body_pair_barrier`` is the pair's h, gradient and closest points at a pose,
as the package once offered it; its gradient is the cycle's own
``geometry._pair_gradient``.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from issf_wbc.geometry import (
    WorkspacePair,
    _pair_curvature,
    _pair_gradient,
    _workspace_curvature,
    closest_points,
    pose_body,
    workspace_barrier,
    workspace_barrier_value,
)
from issf_wbc.model import _link_rates, _xyz
from issf_wbc.safety import AccelRows, BarrierKind, BarrierRows, FilterMode, PairWitness

log = logging.getLogger("issf_wbc.safety")


class DegenerateWitnessError(RuntimeError):
    """Coincident witness points: the barrier gradient is undefined this cycle."""


def body_pair_barrier(model, fk, body_a, body_b):
    """Barrier value h, its 1 x n_dof gradient and the ``closest_points`` of a
    collision-body pair at pose ``fk``.

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
            f"coincident witness points for pair ({body_a.name}, {body_b.name})")
    return prox.h, np.array(_pair_gradient(fk, model.n_dof, body_a.link, body_b.link,
                                            prox)), prox


def joint_limit_rows(model) -> tuple:
    """The keys, the +-I gradient block and the lower and upper limits of the
    2n joint-limit rows."""
    keys = [(kind, f"q{i}") for i in range(model.n_dof)
            for kind in (BarrierKind.JOINT_LIMIT_MIN, BarrierKind.JOINT_LIMIT_MAX)]
    grad = np.kron(np.eye(model.n_dof), [[1.0], [-1.0]])     # rows e_i, -e_i
    q_min = np.array([joint.q_min for joint in model.joints], dtype=float)
    q_max = np.array([joint.q_max for joint in model.joints], dtype=float)
    return keys, grad, q_min, q_max


def collision_barriers(model, pairs, obstacle_bodies) -> list[tuple]:
    """The collision barriers in row order, as (kind, pair, body A, body B, j):
    the self-collision ``pairs`` (j None), then each robot body against
    obstacle j of ``obstacle_bodies``, obstacle by obstacle."""
    return ([(BarrierKind.SELF_COLLISION, f"{a.name}|{b.name}", a, b, None) for a, b in pairs]
            + [(BarrierKind.OBJECT_COLLISION, f"{a.name}|{b.name}", a, b, j)
               for j, b in enumerate(obstacle_bodies) for a in model.collision_bodies])


def barrier_h(model, q: np.ndarray, values) -> np.ndarray:
    """The joint-limit rows' h at ``q`` (q0 min, q0 max, q1 min, ...), then ``values``."""
    _, _, q_min, q_max = joint_limit_rows(model)
    jl = 2 * model.n_dof
    h = np.empty(jl + len(values))
    h[0:jl:2] = q - q_min
    h[1:jl:2] = q_max - q
    h[jl:] = values
    return h


def barrier_catalog(model, pairs, obstacle_bodies, workspace_pairs) -> list[tuple]:
    """The (kind, pair) key of every barrier."""
    return (joint_limit_rows(model)[0]
            + [(kind, pair) for kind, pair, *_ in
               collision_barriers(model, pairs, obstacle_bodies)]
            + [(BarrierKind.WORKSPACE, pair.name) for pair in workspace_pairs])


def barrier_values(model, q, fk, pairs, obstacle_bodies, workspace_pairs) -> np.ndarray:
    """The h of every barrier of ``barrier_catalog`` at ``q``, whose pose is ``fk``."""
    values = [closest_points(pose_body(a, fk), pose_body(b, fk)).h
              for _, _, a, b, _ in collision_barriers(model, pairs, obstacle_bodies)]
    values += [workspace_barrier_value(fk, pair) for pair in workspace_pairs]
    return barrier_h(model, q, values)


def collect_constraints(model, state, fk, obstacles, config, pairs,
                        workspace_pairs=()) -> BarrierRows:
    """The barrier rows at ``state``, whose pose is ``fk``, the catalog rebuilt."""
    state.validate(model.n_dof)
    jl_keys, jl_grad, _, _ = joint_limit_rows(model)
    rows: list[tuple] = []      # (kind, pair, h, grad, drift, witness)

    velocities = [_xyz(obstacle.velocity) for obstacle in obstacles]
    for kind, pair, body_a, body_b, j in collision_barriers(
            model, pairs, [obstacle.body for obstacle in obstacles]):
        try:
            h, grad, prox = body_pair_barrier(model, fk, body_a, body_b)
        except DegenerateWitnessError as exc:
            log.warning("dropping %s row: %s", kind.value, exc)
            continue
        if h > config.activation_distance:
            continue
        segments = pose_body(body_a, fk), pose_body(body_b, fk)
        if j is None:
            rows.append((kind, pair, h, grad, 0.0, PairWitness(body_a, body_b, *segments, prox)))
        else:
            (nx, ny, nz), (vx, vy, vz) = prox.normal, velocities[j]
            rows.append((kind, pair, h, grad, nx * vx + ny * vy + nz * vz,
                         PairWitness(body_a, body_b, *segments, prox, velocities[j])))

    for pair in workspace_pairs:
        h, grad = workspace_barrier(fk, pair)
        rows.append((BarrierKind.WORKSPACE, pair.name, h, grad, 0.0, pair))

    jl = len(jl_keys)
    kinds, names, hs, grads, drifts, witnesses = zip(*rows) if rows else ((),) * 6
    keys = jl_keys + list(zip(kinds, names))
    grad = np.concatenate((jl_grad, grads)) if rows else jl_grad.copy()
    if not np.isfinite(grad).all():
        bad = int(np.argmin(np.isfinite(grad).all(axis=1)))
        raise ValueError(f"{keys[bad][1]}: non-finite gradient")
    eps = [math.inf if config.mode is FilterMode.CBF else config.epsilon[kind]
           for kind, _ in keys]
    return BarrierRows(
        keys=keys, h=barrier_h(model, state.q, hs), grad=grad,
        alpha=np.array([config.alpha[kind] for kind, _ in keys]),
        drift=np.array([0.0] * jl + list(drifts)),
        margin=np.array([1.0 / e for e in eps[:jl]]
                        + [float(g @ g) / e for g, e in zip(grads, eps[jl:])]),
        witness=[None] * jl + list(witnesses),
    )


def ecbf_rows(state, fk, rows: BarrierRows) -> AccelRows:
    """``safety.ecbf_rows`` with each pair's bodies posed again from ``fk``."""
    qd = list(state.qd)
    rates = _link_rates(fk, qd)
    curvature: list[float] = []
    for witness in rows.witness:
        if witness is None:
            curvature.append(0.0)
        elif isinstance(witness, WorkspacePair):
            curvature.append(_workspace_curvature(fk, rates, witness))
        else:
            a, b = witness.body_a, witness.body_b
            curvature.append(_pair_curvature(fk, rates, a, pose_body(a, fk), b,
                                             pose_body(b, fk), witness.proximity,
                                             witness.velocity_b))
    alpha = rows.alpha
    h_dot = rows.grad @ state.qd - rows.drift
    h_e = h_dot + alpha * rows.h
    return AccelRows(keys=rows.keys, grad=rows.grad,
                     rhs=-alpha * h_e - np.array(curvature) - alpha * h_dot, h_e=h_e)
