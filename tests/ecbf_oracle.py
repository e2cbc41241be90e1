"""Reference eCBF rows by finite differences along the true motion.

``ecbf_rows_fd`` is the finite-difference version of ``safety.ecbf_rows``,
extended to moving obstacles.  The package builds each row's curvature term,
hd_dot at zero joint acceleration, in closed form; the reference
differentiates hd = grad . qd - drift in time instead.  It re-collects every
barrier row at the two probes tau = +-step, where the state has moved to
q + tau qd and every obstacle by tau times its velocity, with unlimited
activation distance, and takes

    hd_dot = (hd(+step) - hd(-step)) / (2 step)

for the row of the same (kind, pair).  A row with no counterpart at a probe
(a degenerate witness there) raises ``KeyError``.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from issf_wbc.model import JointState, forward_kinematics
from issf_wbc.safety import AccelRows, Obstacle, barrier_plan, collect_constraints

FD_STEP = 1e-6


def moved(obstacles: list[Obstacle], tau: float) -> list[Obstacle]:
    """The obstacles after ``tau`` seconds at their velocities."""
    return [Obstacle(body=obstacle.body.moved([tau * v for v in obstacle.velocity]),
                     velocity=obstacle.velocity) for obstacle in obstacles]


def hd_along_motion(model, state, obstacles, config, pairs, workspace_pairs, tau):
    """(kind, pair) -> hd = grad . qd - drift at time offset ``tau``."""
    probe = JointState(q=np.array(state.q) + tau * np.array(state.qd), qd=state.qd,
                       t=state.t + tau)
    wide = replace(config, activation_distance=math.inf)
    plan = barrier_plan(model, wide, pairs, [obstacle.body for obstacle in obstacles],
                        workspace_pairs)
    rows = collect_constraints(plan, probe, forward_kinematics(model, probe.q),
                               moved(obstacles, tau))
    return {key: float(g @ state.qd) - drift
            for key, g, drift in zip(rows.keys, rows.grad, rows.drift)}


def ecbf_rows_fd(model, state, obstacles, config, pairs, workspace_pairs=(),
                 step=FD_STEP) -> tuple[AccelRows, np.ndarray]:
    """The eCBF rows of the barrier rows collected at ``state``, with the
    curvature term by central differences along the motion; also returns
    that term per row."""
    plan = barrier_plan(model, config, pairs, [obstacle.body for obstacle in obstacles],
                        workspace_pairs)
    rows = collect_constraints(plan, state, forward_kinematics(model, state.q), obstacles)
    plus, minus = (hd_along_motion(model, state, obstacles, config, pairs,
                                   workspace_pairs, tau) for tau in (step, -step))
    rhs, h_e, curvature = [], [], []
    for key, g, h, alpha, drift in zip(rows.keys, rows.grad, rows.h, rows.alpha, rows.drift):
        curv = (plus[key] - minus[key]) / (2.0 * step)
        h_dot = float(g @ state.qd) - drift
        h_e.append(h_dot + alpha * h)
        rhs.append(-alpha * h_e[-1] - curv - alpha * h_dot)
        curvature.append(curv)
    return (AccelRows(keys=list(rows.keys), grad=rows.grad.copy(),
                      rhs=np.array(rhs), h_e=np.array(h_e)),
            np.array(curvature))
