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

H, g and the torque limits' right-hand sides are Python floats: for T = M,
one straight-line kernel per size n (``_qp_data``, generated on first use)
computes them from the dynamics kernel's M rows and h, tau_prev, qdd_safe,
the model's ``tau_max`` and the weights (all floats), H's lower triangle
mirrored, and a ``ContactBlock`` adds its columns and rows to those float
rows.  A and the recovery tau = T z + h stay numpy products.

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

import numpy as np

from ._codegen import _PerSize, _function, compile_kernel, unpacking
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
            raise ValueError("w_qdd: must be > 0")
        for name in ("w_c", "w_tau", "w_M"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name}: must be >= 0")

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


def _make_qp_data(n: int):
    """``qp_data(M, h, tau_prev, qdd, tau_max, w_qdd, w_tau, w_M)``: the torque
    QP's H rows and g for T = M, and each joint's torque-limit right-hand
    sides (-h_i - tau_max_i, h_i - tau_max_i), all as floats.  With
    c = 2 w_tau and r = h - tau_prev, H = c M^T M + 2 (w_qdd I + w_M M) and
    g = c M^T r - 2 w_qdd qdd."""
    name = f"torque_qp_data_{n}"
    body = []
    if n:
        body.append(unpacking(["[" + ", ".join(f"m{i}_{j}" for j in range(n)) + "]"
                               for i in range(n)], "M"))
        body += [unpacking([f"{vec}{i}" for i in range(n)], vec) for vec in "hpat"]
    body += ["c = 2.0 * w_tau", "d = 2.0 * w_qdd"] + [f"r{i} = h{i} - p{i}" for i in range(n)]
    for i in range(n):
        for j in range(i + 1):
            mm = " + ".join(f"m{k}_{i} * m{k}_{j}" for k in range(n))
            diag = f"w_qdd + w_M * m{i}_{j}" if i == j else f"w_M * m{i}_{j}"
            body.append(f"H{i}_{j} = c * ({mm}) + 2.0 * ({diag})")
        body.append(f"g{i} = c * ({' + '.join(f'm{k}_{i} * r{k}' for k in range(n))}) - d * a{i}")
    rows = ", ".join("[" + ", ".join(f"H{max(i, j)}_{min(i, j)}" for j in range(n)) + "]"
                     for i in range(n))
    body.append(f"return [{rows}], [{', '.join(f'g{i}' for i in range(n))}], "
                f"[{', '.join(f'-h{i} - t{i}, h{i} - t{i}' for i in range(n))}]")
    return compile_kernel(name, _function(name, "M, h, p, a, t, w_qdd, w_tau, w_M", body))


_qp_data = _PerSize(_make_qp_data)


def safe_acceleration(
    q_safe: list[float],
    qdot_safe: list[float],
    state: JointState,
    gains: FeedbackGains,
) -> list[float]:
    """PD feedback converting the filtered kinematic reference to an acceleration."""
    return [kp * (qs - q) + kd * (vs - v)
            for kp, kd, qs, q, vs, v in zip(gains.kp_dyn, gains.kd_dyn, q_safe, state.q,
                                            qdot_safe, state.qd, strict=True)]


def solve_dynwbc(
    model: RobotModel,
    state: JointState,
    qddot_safe: list[float],
    contact: ContactBlock | None,
    extra_rows: AccelRows | None,
    weights: DynWbcWeights,
    tau_prev: list[float],
    solver: QpSolver,
    gravity: tuple[float, ...],
    warm_start: np.ndarray | None = None,
) -> DynWbcResult:
    """Solve the torque QP at ``state``.

    The variables are stacked [qdd, F_c]; tau is recovered.
    """
    n = model.n_dof
    k = 0 if contact is None else contact.J_c.shape[0]
    mass, bias = joint_dynamics(model, state.q, state.qd, gravity)
    tau_max = model.tau_max
    limited = [i for i, limit in enumerate(tau_max) if limit < math.inf]
    H, g, limit_rhs = _qp_data[n](mass, bias, tau_prev, qddot_safe, tau_max,
                                  weights.w_qdd, weights.w_tau, weights.w_M)
    T = mass = np.array(mass)
    bias = np.array(bias)
    if k:
        # T's contact columns -J_c^T add H's off-diagonal blocks and the
        # force block, its lower triangle mirrored, and g's force entries.
        T = np.hstack([mass, -contact.J_c.T])
        c, T_c = 2.0 * weights.w_tau, T[:, n:]
        cross = c * (mass.T @ T_c)
        forces = c * (T_c.T @ T_c) + 2.0 * weights.w_c * np.eye(k)
        forces = np.tril(forces) + np.tril(forces, -1).T
        H = [row + extra for row, extra in zip(H, cross.tolist())]
        H += np.hstack([cross.T, forces]).tolist()
        g += (c * (T_c.T @ (bias - tau_prev)) - 2.0 * weights.w_c * contact.F_c_des).tolist()

    # Row blocks, in order: contact cone, acceleration barriers, then each
    # finite torque limit as the pair T_i z >= -h_i - tau_max_i,
    # -T_i z >= h_i - tau_max_i.
    if len(limited) < n:
        limit_rhs = [limit_rhs[2 * i + side] for i in limited for side in (0, 1)]
        T_lim = T[limited]
    else:
        T_lim = T
    m_c = contact.U.shape[0] if k else 0
    m_e = 0 if extra_rows is None else len(extra_rows.rhs)
    m = m_c + m_e + len(limit_rhs)
    A = b = None
    if m:
        A = np.zeros((m, n + k))
        if m_c:
            A[:m_c, n:] = -contact.U
        if m_e:
            A[m_c:m_c + m_e, :n] = extra_rows.grad
        A[m_c + m_e::2] = T_lim
        A[m_c + m_e + 1::2] = -T_lim
        b = [0.0] * m_c + (extra_rows.rhs if m_e else []) + limit_rhs

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
        dynamics_residual=float(np.abs(residual).max()),
        solution=sol,
    )


def motor_torque(
    tau_opt: list[float],
    q_safe: list[float],
    qdot_safe: list[float],
    state: JointState,
    gains: FeedbackGains,
    tau_max: tuple[float, ...],
) -> tuple[list[float], np.ndarray]:
    """Actuator command tau_opt + Kp (q_safe - q) + Kd (qd_safe - qd), clamped
    to [-tau_max, tau_max] per joint (an infinite limit clamps nothing).

    Returns the command and a per-joint bool array clamp mask (clamping is
    also logged).
    """
    tau = [
        t + kp * (qs - q) + kd * (vs - v)
        for t, kp, kd, qs, q, vs, v in zip(tau_opt, gains.motor_kp, gains.motor_kd,
                                           q_safe, state.q, qdot_safe, state.qd, strict=True)
    ]
    clamped = [abs(t) > limit for t, limit in zip(tau, tau_max, strict=True)]
    if any(clamped):
        log.debug("torque clamp on joints %s", [i for i, c in enumerate(clamped) if c])
        tau = [min(max(t, -limit), limit) for t, limit in zip(tau, tau_max)]
    return tau, np.array(clamped)
