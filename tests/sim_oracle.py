"""The simulator's former array-based plant step and per-cell trace writers.

``step_physics`` is the plant step the package ran before its float-list
form: it takes a ``JointState`` and numpy torque and gravity, solves for qdd
with the separate ``cholesky``, ``solve_lower`` and ``solve_upper`` kernels
and returns a new ``JointState``.  ``issf_wbc.sim.step_physics`` carries the
state as lists and solves with the one ``cholesky_solve`` kernel, and must
give the same bytes and raise the same errors.

``to_csv`` and ``to_torque_csv`` are ``RunTrace``'s former writers, which
format one cell at a time with the header and column order spelled out here
(``trace_header``, ``torque_header``); the package's writers derive both
from ``RunTrace``'s declared outputs, format a row at a time, and must write
the same bytes.
"""

from __future__ import annotations

import math

import numpy as np

from issf_wbc._codegen import NotPositiveDefinite, cholesky, solve_lower, solve_upper
from issf_wbc._fastdyn import joint_dynamics
from issf_wbc.model import JointState
from issf_wbc.sim import Integrator, SimulationDivergedError, _axpy, _weighted


def qdd(model, q, qd, tau, gravity, t):
    mass, bias = joint_dynamics(model, q, qd, gravity)
    n = len(mass)
    try:
        L = cholesky[n](mass)
    except NotPositiveDefinite as exc:
        raise SimulationDivergedError(
            f"plant mass matrix not positive definite at t={t:.6f} (joint {exc.index})"
        ) from None
    return solve_upper[n](L, solve_lower[n](L, [ti - hi for ti, hi in zip(tau, bias)]))


def step_physics(plant_model, state: JointState, tau_cmd: np.ndarray, gravity: np.ndarray,
                 dt: float, integrator=Integrator.SEMI_IMPLICIT_EULER) -> JointState:
    q, qd, tau, t = list(state.q), list(state.qd), tau_cmd.tolist(), state.t
    g = np.asarray(gravity, dtype=float).tolist()
    if integrator is Integrator.SEMI_IMPLICIT_EULER:
        qd_next = _axpy(dt, qdd(plant_model, q, qd, tau, g, t), qd)
        q_next = _axpy(dt, qd_next, q)
    else:
        half = 0.5 * dt
        k1 = qdd(plant_model, q, qd, tau, g, t)
        v2 = _axpy(half, k1, qd)
        k2 = qdd(plant_model, _axpy(half, qd, q), v2, tau, g, t)
        v3 = _axpy(half, k2, qd)
        k3 = qdd(plant_model, _axpy(half, v2, q), v3, tau, g, t)
        v4 = _axpy(dt, k3, qd)
        k4 = qdd(plant_model, _axpy(dt, v3, q), v4, tau, g, t)
        q_next = _axpy(dt / 6.0, _weighted(qd, v2, v3, v4), q)
        qd_next = _axpy(dt / 6.0, _weighted(k1, k2, k3, k4), qd)
    if not (all(map(math.isfinite, q_next)) and all(map(math.isfinite, qd_next))):
        raise SimulationDivergedError(
            f"non-finite state at t={t + dt:.6f}: q={np.array(q_next)}, qd={np.array(qd_next)}"
        )
    return JointState(q=np.array(q_next), qd=np.array(qd_next), t=t + dt)


# trace.csv's per-joint blocks, in column order
VECTOR_BLOCKS = ("q", "qd", "qdot_des", "qdot_safe", "tau_cmd")


def trace_header(n_dof: int, barrier_keys: list[str]) -> list[str]:
    return (["t"] + [f"{block}{i}" for block in VECTOR_BLOCKS for i in range(n_dof)]
            + [f"h:{key}" for key in barrier_keys] + ["d_inf", "dbar", "qp_iters", "qp_status"])


def torque_header(n_dof: int) -> list[str]:
    return (["t"] + [f"tau_cmd{i}" for i in range(n_dof)]
            + [f"clamped{i}" for i in range(n_dof)])


def to_csv(trace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(trace_header(trace.n_dof, trace.barrier_keys)) + "\n")
        blocks = [getattr(trace, block) for block in VECTOR_BLOCKS] + [trace.h]
        for k in range(trace.cycles):
            cells = [repr(float(trace.t[k]))]
            for block in blocks:
                cells += [repr(float(v)) for v in block[k]]
            cells += [repr(float(trace.d_inf[k])), repr(float(trace.dbar[k])),
                      str(int(trace.qp_iters[k])), trace.qp_status[k]]
            fh.write(",".join(cells) + "\n")


def to_torque_csv(trace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(torque_header(trace.n_dof)) + "\n")
        for k in range(trace.cycles):
            cells = [repr(float(trace.t[k]))]
            cells += [repr(float(v)) for v in trace.tau_cmd[k]]
            cells += [str(int(v)) for v in trace.clamped[k]]
            fh.write(",".join(cells) + "\n")
