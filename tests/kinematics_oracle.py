"""Reference numpy forward kinematics for the tests.

``forward_kinematics`` and ``rotation_about_axis`` are the numpy versions
the package used before its kinematics ran on Python floats: world link
frames composed as 3x3 matrices, with numpy-array fields on ``FkResult``.
``point_jacobian`` builds every column with ``np.cross``.  The float kernel
``issf_wbc.model.forward_kinematics`` must agree with them to machine
precision, and ``dynamics_oracle`` is built on them.

``truncated_pinv`` and ``solve_priority_stack`` are the prioritized-IK
recursion the package used before it took both of a level's updates from
one SVD: an explicit truncated pseudo-inverse per level, applied to the task
term and multiplied back onto the projected Jacobian for the null-space
update.  ``issf_wbc.kinwbc.solve_priority_stack`` must agree with it to
1e-12 relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from issf_wbc.kinwbc import SIGMA_REL_DEFAULT
from issf_wbc.model import ModelError, RobotModel


def rotation_about_axis(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix for a unit axis."""
    x, y, z = axis
    c, s = math.cos(angle), math.sin(angle)
    v = 1.0 - c
    return np.array(
        [
            [x * x * v + c, x * y * v - z * s, x * z * v + y * s],
            [x * y * v + z * s, y * y * v + c, y * z * v - x * s],
            [x * z * v - y * s, y * z * v + x * s, z * z * v + c],
        ]
    )


@dataclass(frozen=True)
class FkResult:
    """World-frame link frames plus joint axes/origins (reused by Jacobians)."""

    rot: np.ndarray           # (n, 3, 3) link orientations
    pos: np.ndarray           # (n, 3) link origins
    joint_axis: np.ndarray    # (n, 3) world joint axes
    joint_origin: np.ndarray  # (n, 3) world joint positions

    def link_point(self, link: int, point_in_link: np.ndarray) -> np.ndarray:
        return self.pos[link] + self.rot[link] @ np.asarray(point_in_link, dtype=float)


def forward_kinematics(model: RobotModel, q: np.ndarray) -> FkResult:
    """Compose world-frame link poses parent-to-child (base is the identity)."""
    q = model.check_q(q)
    n = model.n_dof
    rot = np.empty((n, 3, 3))
    pos = np.empty((n, 3))
    axes = np.empty((n, 3))
    origins = np.empty((n, 3))
    r_parent = np.eye(3)
    p_parent = np.zeros(3)
    for i in range(n):
        axis_w = r_parent @ model.joints[i].axis
        axes[i] = axis_w
        origins[i] = p_parent
        r_joint = r_parent @ rotation_about_axis(model.joints[i].axis, float(q[i]))
        link = model.links[i]
        rot[i] = r_joint @ link.origin_rotation
        pos[i] = p_parent + r_joint @ link.origin_xyz
        r_parent, p_parent = rot[i], pos[i]
    return FkResult(rot=rot, pos=pos, joint_axis=axes, joint_origin=origins)


def point_jacobian(
    model: RobotModel,
    q: np.ndarray,
    link_index: int,
    point_in_link: np.ndarray,
    fk: FkResult | None = None,
) -> np.ndarray:
    """3 x n_dof positional Jacobian of a point rigidly attached to a link.

    Column j is axis_j x (p - o_j) for joints on the path (j <= link_index),
    zero otherwise.
    """
    if not 0 <= link_index < model.n_dof:
        raise ModelError(f"link index {link_index} out of range")
    if fk is None:
        fk = forward_kinematics(model, q)
    p = fk.link_point(link_index, point_in_link)
    jac = np.zeros((3, model.n_dof))
    k = link_index + 1
    jac[:, :k] = np.cross(fk.joint_axis[:k], p[None, :] - fk.joint_origin[:k]).T
    return jac


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
    """The prioritized-IK recursion over explicit (J_i, xd_i_cmd - xd_i) pairs."""
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
