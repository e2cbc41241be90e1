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
torque to fight friction and other unmodeled effects.  Both run per joint on
Python floats, with the gains resolved once (``DynWbcWeights.gains``).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from weakref import WeakKeyDictionary

import numpy as np

from ._fastdyn import joint_dynamics
from .model import JointState, RobotModel
from .qpsolver import QpProblem, QpSolution, QpSolver
from .safety import AccelRows

log = logging.getLogger(__name__)


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

    def gains(self, n: int) -> "FeedbackGains":
        """The four feedback gains as n floats each.

        Each gain must be a finite number or n of them.  Every problem found
        is raised in one ``ValueError``, joined with "; " (as
        ``FilterConfig`` does), each naming its gain.
        """
        resolved, problems = [], []
        for name in ("kp_dyn", "kd_dyn", "motor_kp", "motor_kd"):
            value = getattr(self, name)
            try:
                gain = np.asarray(value)
            except ValueError:      # a ragged nesting of lists
                gain = None
            if gain is None or gain.dtype.kind not in "iuf" or not np.isfinite(gain).all():
                problems.append(f"{name}: expected a number or {n} numbers, got {value!r}")
            elif gain.ndim and gain.shape != (n,):
                problems.append(f"{name}: expected a scalar or {n} values, got {gain.size}")
            else:
                resolved.append(tuple(np.broadcast_to(gain.astype(float), (n,)).tolist()))
        if problems:
            raise ValueError("; ".join(problems))
        return FeedbackGains(*resolved)


@dataclass(frozen=True)
class FeedbackGains:
    """The diagonal PD gains of ``DynWbcWeights`` for n joints, one float per joint."""

    kp_dyn: tuple[float, ...]
    kd_dyn: tuple[float, ...]
    motor_kp: tuple[float, ...]
    motor_kd: tuple[float, ...]


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


_LIMITS: "WeakKeyDictionary[RobotModel, tuple]" = WeakKeyDictionary()


def _torque_limits(model: RobotModel) -> tuple[list[int] | slice, np.ndarray]:
    """The joints with a finite torque limit (a slice when that is all of
    them) and those limits, built once per model."""
    limits = _LIMITS.get(model)
    if limits is None:
        limited = [i for i, joint in enumerate(model.joints) if math.isfinite(joint.tau_max)]
        tau_max = np.array([model.joints[i].tau_max for i in limited])
        if len(limited) == model.n_dof:
            limited = slice(None)
        limits = _LIMITS[model] = (limited, tau_max)
    return limits


def safe_acceleration(
    q_safe: np.ndarray,
    qdot_safe: np.ndarray,
    state: JointState,
    gains: FeedbackGains,
) -> np.ndarray:
    """PD feedback converting the filtered kinematic reference to an acceleration."""
    return np.array([
        kp * (qs - q) + kd * (vs - v)
        for kp, kd, qs, q, vs, v in zip(gains.kp_dyn, gains.kd_dyn, q_safe.tolist(),
                                        state.q.tolist(), qdot_safe.tolist(),
                                        state.qd.tolist(), strict=True)
    ])


def solve_dynwbc(
    model: RobotModel,
    state: JointState,
    qddot_safe: np.ndarray,
    contact: ContactBlock | None,
    extra_rows: AccelRows | None,
    weights: DynWbcWeights,
    tau_prev: np.ndarray,
    solver: QpSolver,
    gravity: np.ndarray,
    warm_start: np.ndarray | None = None,
) -> DynWbcResult:
    """Solve the torque QP at ``state``.

    The variables are stacked [qdd, F_c]; tau is recovered.
    """
    n = model.n_dof
    k = 0 if contact is None else contact.J_c.shape[0]
    nz = n + k
    mass, bias = joint_dynamics(model, state.q.tolist(), state.qd.tolist(),
                                np.asarray(gravity, dtype=float).tolist())
    mass, bias = np.array(mass), np.array(bias)
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

    # Row blocks, in order: contact cone, acceleration barriers, then each
    # finite torque limit as the pair T_i z >= -h_i - tau_max_i,
    # -T_i z >= h_i - tau_max_i.
    m_c = contact.U.shape[0] if k else 0
    m_e = 0 if extra_rows is None else extra_rows.rhs.shape[0]
    limited, tau_max = _torque_limits(model)
    m = m_c + m_e + 2 * tau_max.shape[0]
    A = b = None
    if m:
        A = np.zeros((m, nz))
        b = np.zeros(m)
        if m_c:
            A[:m_c, n:] = -contact.U
        if m_e:
            A[m_c:m_c + m_e, :n] = extra_rows.grad
            b[m_c:m_c + m_e] = extra_rows.rhs
        if tau_max.shape[0]:
            r0 = m_c + m_e
            T_lim, bias_lim = T[limited], bias[limited]
            A[r0::2] = T_lim
            A[r0 + 1::2] = -T_lim
            b[r0::2] = -bias_lim - tau_max
            b[r0 + 1::2] = bias_lim - tau_max

    problem = QpProblem(H=H, g=g, A_ineq=A, b_ineq=b)
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
    gains: FeedbackGains,
    tau_max: tuple[float, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Actuator command tau_opt + Kp (q_safe - q) + Kd (qd_safe - qd), clamped
    to [-tau_max, tau_max] per joint (an infinite limit clamps nothing).

    Returns the command and a per-joint clamp mask (clamping is also logged).
    """
    tau = [
        t + kp * (qs - q) + kd * (vs - v)
        for t, kp, kd, qs, q, vs, v in zip(tau_opt.tolist(), gains.motor_kp, gains.motor_kd,
                                           q_safe.tolist(), state.q.tolist(),
                                           qdot_safe.tolist(), state.qd.tolist(), strict=True)
    ]
    clamped = [abs(t) > limit for t, limit in zip(tau, tau_max, strict=True)]
    if any(clamped):
        log.debug("torque clamp on joints %s", [i for i, c in enumerate(clamped) if c])
        tau = [min(max(t, -limit), limit) for t, limit in zip(tau, tau_max)]
    return np.array(tau), np.array(clamped)
