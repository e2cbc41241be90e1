"""Reference numpy forward kinematics for the tests.

``forward_kinematics`` and ``rotation_about_axis`` are the numpy versions
the package used before its kinematics ran on Python floats: world link
frames composed as 3x3 matrices, with numpy-array fields on ``FkResult``.
``point_jacobian`` builds every column with ``np.cross``.  The float kernel
``issf_wbc.model.forward_kinematics`` must agree with them to machine
precision, and ``dynamics_oracle`` is built on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
