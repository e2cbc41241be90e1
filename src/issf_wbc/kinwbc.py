"""Kinematic whole-body control: prioritized differential inverse kinematics.

Tasks are ranked strictly by priority; each level contributes a velocity
correction through the pseudo-inverse of its Jacobian projected onto the
null space of all higher levels (Siciliano & Slotine, ICAR 1991),

    qd_i = qd_{i-1} + pinv(J_i N_{i-1}) (xd_i_cmd - xd_i - J_i qd_{i-1}),
    N_i = N_{i-1} - pinv(J_i N_{i-1}) J_i N_{i-1},

initialized with qd_0 = 0, N_0 = I.  The commanded task velocity adds
position-error feedback, xd_cmd = xd_ff + k (x_target - x), and xd_i is
taken as zero: subtracting the *measured* task velocity instead closes a
positive-feedback loop through the tracking controller -- the plant realizes
the command one cycle later and the command negates it again, which rings at
the control rate on a stiff plant.  Each level takes one SVD of its
projected Jacobian, J_i N_{i-1} = U S V^T, and keeps the singular triplets
with s > sigma_rel ||J_i||_F, so commands stay bounded through kinematic
singularities.  The threshold is set by the unprojected level's scale: a
level that lies inside the higher levels' row space keeps only rounding
noise after projection, which a threshold relative to that noise's own
largest value would invert.  Both updates come from that one SVD:
pinv(J_i N_{i-1}) = V_r S_r^-1 U_r^T and pinv(J_i N_{i-1}) J_i N_{i-1} =
V_r V_r^T.  A level whose projected Jacobian is zero changes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .model import FkResult, JointState, RobotModel, _jacobian_rows

SIGMA_REL_DEFAULT = 1e-4
DEFAULT_TASK_GAIN = 5.0


@cache
def _selector(n_dof: int, joint_indices: tuple[int, ...]) -> np.ndarray:
    """The read-only Jacobian of a joint task: rows of I picking ``joint_indices``."""
    jac = np.zeros((len(joint_indices), n_dof))
    jac[range(len(joint_indices)), list(joint_indices)] = 1.0
    jac.flags.writeable = False
    return jac


@dataclass(frozen=True)
class Task:
    """One operational-space or joint-space task.

    Point tasks track a world-frame point attached to ``link`` at
    ``point_in_link`` (three floats); joint tasks track a subset of joint
    coordinates.
    """

    priority: int
    target: np.ndarray
    feedforward: np.ndarray | None = None
    gain: float = DEFAULT_TASK_GAIN
    link: int | None = None
    point_in_link: tuple[float, float, float] = (0.0, 0.0, 0.0)
    joint_indices: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if (self.link is None) == (self.joint_indices is None):
            raise ValueError("task needs exactly one of link or joint_indices")

    def jacobian_and_value(
        self, model: RobotModel, q: np.ndarray, fk: FkResult
    ) -> tuple[np.ndarray, np.ndarray]:
        if self.link is not None:
            point = fk._point(self.link, self.point_in_link)
            return np.array(_jacobian_rows(fk, model.n_dof, self.link, point)), np.array(point)
        return _selector(model.n_dof, self.joint_indices), q[list(self.joint_indices)]


def solve_priority_stack(
    jacobians: list[np.ndarray],
    velocity_terms: list[np.ndarray],
    n_dof: int,
    sigma_rel: float = SIGMA_REL_DEFAULT,
) -> np.ndarray:
    """Core recursion over explicit (J_i, xd_i_cmd - xd_i) pairs, one SVD per level."""
    qdot = np.zeros(n_dof)
    nullspace = np.eye(n_dof)
    for jac, term in zip(jacobians, velocity_terms):
        if jac.shape[0] != term.shape[0]:
            raise ValueError(
                f"task dimension mismatch: J has {jac.shape[0]} rows, command has {term.shape[0]}"
            )
        jac_pre = jac @ nullspace
        u, s, vt = np.linalg.svd(jac_pre, full_matrices=False)
        if s.size == 0 or s[0] == 0.0:
            continue
        frobenius = math.sqrt(np.vdot(jac, jac))           # ||J_i||_F, unprojected
        r = int(np.count_nonzero(s > sigma_rel * frobenius))
        v_r = vt[:r]
        qdot = qdot + v_r.T @ ((u[:, :r].T @ (term - jac @ qdot)) / s[:r])
        nullspace = nullspace - v_r.T @ v_r
    return qdot


def prioritized_ik(
    model: RobotModel,
    state: JointState,
    fk: FkResult,
    tasks: list[Task],
) -> np.ndarray:
    """Nominal joint velocity command; ``fk`` is the pose at ``state.q``.

    Tasks must carry strictly increasing priorities (1 = highest).  The
    measured velocity is not fed back into the task terms (see module
    docstring).
    """
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

    return solve_priority_stack(jacobians, terms, model.n_dof)
