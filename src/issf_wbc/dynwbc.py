"""Dynamic whole-body control: acceleration/torque QP and the motor command.

The QP optimizes generalized acceleration and optional contact forces,
z = [qdd, F_c]; the joint torque follows from the equations of motion
(fixed base),

    tau = M qdd + h - J_c^T F_c = T z + h,    T = [M, -J_c^T],

so they hold by construction and need no equality rows:

    min  w_qdd ||qdd - qdd_safe||^2 + w_c ||F_c - F_c_des||^2
         + w_tau ||T z + h - tau_prev||^2 + w_M qdd^T M qdd
    s.t. U F_c <= 0                           (linearized contact cone)
         grad . qdd >= rhs                    (optional acceleration barriers)
         |T z + h| <= tau_max                 (finite joint torque limits)

The reference acceleration comes from PD feedback on the safety-filtered
kinematic reference, qdd_safe = Kp (q_safe - q) + Kd (qd_safe - qd), and the
final actuator command adds motor PD feedback on top of the optimized
torque to fight friction and other unmodeled effects.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from ._fastdyn import joint_dynamics
from .model import JointState, RobotModel
from .qpsolver import QpProblem, QpSolution, QpSolver
from .safety import AccelConstraint

log = logging.getLogger(__name__)


def _diag_gain(value, n: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        raise ValueError(f"gain has shape {arr.shape}, expected scalar or ({n},)")
    return arr


@dataclass(frozen=True)
class DynWbcWeights:
    """Objective weights and feedback gains (diagonal, given as scalars or vectors)."""

    w_qdd: float = 1.0
    w_c: float = 1e-2
    w_tau: float = 1e-4
    w_M: float = 1e-5
    kp_dyn: float | np.ndarray = 400.0
    kd_dyn: float | np.ndarray = 40.0
    motor_kp: float | np.ndarray = 100.0
    motor_kd: float | np.ndarray = 10.0

    def __post_init__(self) -> None:
        if self.w_qdd <= 0.0:
            raise ValueError("w_qdd must be > 0")
        for name in ("w_c", "w_tau", "w_M"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class ContactBlock:
    """Generic linear contact model: J_c maps forces, U F_c <= 0 is the cone."""

    J_c: np.ndarray
    U: np.ndarray
    F_c_des: np.ndarray

    def __post_init__(self) -> None:
        k = self.J_c.shape[0]
        if self.U.shape[1] != k or self.F_c_des.shape != (k,):
            raise ValueError("contact block shapes inconsistent")
        if not np.all(np.isfinite(self.U)):
            raise ValueError("contact cone rows must be finite")


@dataclass(frozen=True)
class DynWbcResult:
    tau_opt: np.ndarray
    qddot_opt: np.ndarray
    fc_opt: np.ndarray
    dynamics_residual: float
    solution: QpSolution


class DynWbcInfeasibleError(RuntimeError):
    def __init__(self, solution: QpSolution):
        super().__init__(
            f"torque QP {solution.status.value}; active rows {solution.active_set}"
        )
        self.solution = solution


def safe_acceleration(
    q_safe: np.ndarray,
    qdot_safe: np.ndarray,
    state: JointState,
    weights: DynWbcWeights,
) -> np.ndarray:
    """PD feedback converting the filtered kinematic reference to an acceleration."""
    n = state.q.shape[0]
    kp = _diag_gain(weights.kp_dyn, n)
    kd = _diag_gain(weights.kd_dyn, n)
    return kp * (q_safe - state.q) + kd * (qdot_safe - state.qd)


def solve_dynwbc(
    model: RobotModel,
    state: JointState,
    qddot_safe: np.ndarray,
    contact: ContactBlock | None,
    extra_rows: list[AccelConstraint],
    weights: DynWbcWeights,
    tau_prev: np.ndarray,
    solver: QpSolver,
    gravity: np.ndarray,
    warm_start: np.ndarray | None = None,
) -> DynWbcResult:
    """Solve the torque QP; variables are stacked [qdd, F_c], tau is recovered."""
    n = model.n_dof
    k = 0 if contact is None else contact.J_c.shape[0]
    nz = n + k
    mass, bias = joint_dynamics(model, state.q, state.qd, gravity)
    T = np.empty((n, nz))
    T[:, :n] = mass
    if k:
        T[:, n:] = -contact.J_c.T

    H = 2.0 * weights.w_tau * (T.T @ T)
    g = 2.0 * weights.w_tau * (T.T @ (bias - tau_prev))
    H[:n, :n] += 2.0 * (weights.w_qdd * np.eye(n) + weights.w_M * mass)
    g[:n] -= 2.0 * weights.w_qdd * qddot_safe
    if k:
        H[n:, n:] += 2.0 * weights.w_c * np.eye(k)
        g[n:] -= 2.0 * weights.w_c * contact.F_c_des

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    if k:
        for u_row in contact.U:
            row = np.zeros(nz)
            row[n:] = -u_row
            rows.append(row)
            rhs.append(0.0)
    for c in extra_rows:
        row = np.zeros(nz)
        row[:n] = c.grad
        rows.append(row)
        rhs.append(c.rhs)
    for i, joint in enumerate(model.joints):
        if math.isfinite(joint.tau_max):
            rows.append(T[i])
            rhs.append(-bias[i] - joint.tau_max)
            rows.append(-T[i])
            rhs.append(bias[i] - joint.tau_max)

    problem = QpProblem(
        H=H, g=g,
        A_ineq=np.array(rows) if rows else None,
        b_ineq=np.array(rhs) if rows else None,
    )
    sol = solver.solve(problem, warm_start=warm_start)
    if not sol.optimal:
        raise DynWbcInfeasibleError(sol)
    qdd = sol.x[:n]
    fc = sol.x[n:]
    tau = T @ sol.x + bias
    residual = mass @ qdd + bias - tau
    if k:
        residual = residual - contact.J_c.T @ fc
    return DynWbcResult(
        tau_opt=tau,
        qddot_opt=qdd,
        fc_opt=fc,
        dynamics_residual=float(np.max(np.abs(residual))),
        solution=sol,
    )


def motor_torque(
    tau_opt: np.ndarray,
    q_safe: np.ndarray,
    qdot_safe: np.ndarray,
    state: JointState,
    weights: DynWbcWeights,
    tau_max: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Actuator command tau_opt + Kp (q_safe - q) + Kd (qd_safe - qd), clamped.

    Returns the command and a per-joint clamp mask (clamping is also logged).
    """
    n = state.q.shape[0]
    kp = _diag_gain(weights.motor_kp, n)
    kd = _diag_gain(weights.motor_kd, n)
    tau = tau_opt + kp * (q_safe - state.q) + kd * (qdot_safe - state.qd)
    if tau_max is None:
        return tau, np.zeros(n, dtype=bool)
    clamped = np.abs(tau) > tau_max
    if np.any(clamped):
        log.debug("torque clamp on joints %s", np.nonzero(clamped)[0].tolist())
    return np.clip(tau, -tau_max, tau_max), clamped
