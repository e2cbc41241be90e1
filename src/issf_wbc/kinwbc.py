"""Kinematic whole-body control: prioritized differential inverse kinematics.

Tasks are ranked strictly by priority; each level contributes a velocity
correction through the pseudo-inverse of its Jacobian projected onto the
null space of all higher levels,

    qd_i = qd_{i-1} + pinv(J_i N_{i-1}) (xd_i_cmd - xd_i - J_i qd_{i-1}),

initialized with qd_0 = 0, N_0 = I.  The commanded task velocity adds
position-error feedback, xd_cmd = xd_ff + k (x_target - x), and xd_i is
taken as zero: subtracting the *measured* task velocity instead closes a
positive-feedback loop through the tracking controller -- the plant realizes
the command one cycle later and the command negates it again, which rings at
the control rate on a stiff plant.  The pseudo-inverse is SVD-based with small
singular values zeroed at a relative threshold, so commands stay bounded
through kinematic singularities.  The desired position is q + qd dt.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import FkResult, JointState, RobotModel, _jacobian_rows, _xyz

SIGMA_REL_DEFAULT = 1e-4
DEFAULT_TASK_GAIN = 5.0


@dataclass(frozen=True)
class Task:
    """One operational-space or joint-space task.

    Point tasks track a world-frame point attached to ``link`` at
    ``point_in_link``; joint tasks track a subset of joint coordinates.
    """

    priority: int
    target: np.ndarray
    feedforward: np.ndarray | None = None
    gain: float = DEFAULT_TASK_GAIN
    link: int | None = None
    point_in_link: np.ndarray = field(default_factory=lambda: np.zeros(3))
    joint_indices: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if (self.link is None) == (self.joint_indices is None):
            raise ValueError("task needs exactly one of link or joint_indices")

    def jacobian_and_value(
        self, model: RobotModel, q: np.ndarray, fk: FkResult
    ) -> tuple[np.ndarray, np.ndarray]:
        if self.link is not None:
            point = fk._point(self.link, _xyz(self.point_in_link))
            return np.array(_jacobian_rows(fk, model.n_dof, self.link, point)), np.array(point)
        idx = list(self.joint_indices)
        jac = np.zeros((len(idx), model.n_dof))
        jac[range(len(idx)), idx] = 1.0
        return jac, q[idx]


def truncated_pinv(jac: np.ndarray, sigma_rel: float = SIGMA_REL_DEFAULT) -> np.ndarray:
    """SVD pseudo-inverse with singular values below sigma_rel * sigma_max set to 0."""
    u, s, vt = np.linalg.svd(jac, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return jac.T * 0.0
    inv = np.where(s > sigma_rel * s[0], 1.0 / np.where(s > 0, s, 1.0), 0.0)
    return (vt.T * inv) @ u.T


def solve_priority_stack(
    jacobians: list[np.ndarray],
    velocity_terms: list[np.ndarray],
    n_dof: int,
    sigma_rel: float = SIGMA_REL_DEFAULT,
) -> np.ndarray:
    """Core recursion over explicit (J_i, xd_i_cmd - xd_i) pairs."""
    qdot = np.zeros(n_dof)
    nullspace = np.eye(n_dof)
    for jac, term in zip(jacobians, velocity_terms):
        if jac.shape[0] != term.shape[0]:
            raise ValueError(
                f"task dimension mismatch: J has {jac.shape[0]} rows, command has {term.shape[0]}"
            )
        jac_pre = jac @ nullspace
        pinv = truncated_pinv(jac_pre, sigma_rel)
        qdot = qdot + pinv @ (term - jac @ qdot)
        nullspace = nullspace - pinv @ jac_pre
    return qdot


def prioritized_ik(
    model: RobotModel,
    state: JointState,
    fk: FkResult,
    tasks: list[Task],
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Nominal joint velocity command and its integrated position reference.

    ``fk`` is the pose at ``state.q``.

    Tasks must carry strictly increasing priorities (1 = highest).  The
    measured velocity is not fed back into the task terms (see module
    docstring).
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    ordered = sorted(tasks, key=lambda t: t.priority)
    for a, b in zip(ordered, ordered[1:]):
        if a.priority == b.priority:
            raise ValueError(f"duplicate task priority {a.priority}")
    state.validate(model.n_dof)

    jacobians: list[np.ndarray] = []
    terms: list[np.ndarray] = []
    for task in ordered:
        jac, value = task.jacobian_and_value(model, state.q, fk)
        ff = np.zeros(jac.shape[0]) if task.feedforward is None else task.feedforward
        xd_cmd = ff + task.gain * (task.target - value)
        jacobians.append(jac)
        terms.append(xd_cmd)

    qdot_des = solve_priority_stack(jacobians, terms, model.n_dof)
    q_des = state.q + qdot_des * dt
    return qdot_des, q_des
