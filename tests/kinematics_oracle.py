"""Reference numpy forward kinematics for the tests.

``forward_kinematics`` and ``rotation_about_axis`` are the numpy versions
the package used before its kinematics ran on Python floats: world link
frames composed as 3x3 matrices, with numpy-array fields on ``FkResult``.
``point_jacobian`` builds every column with ``np.cross``.  The float kernel
``issf_wbc.model.forward_kinematics`` must agree with them to machine
precision, and ``dynamics_oracle`` is built on them.

``fk_loop`` is the float loop the package ran before its forward kinematics
was generated as straight-line code per set of kinematic constants
(``issf_wbc.model._fk_kernel``): the generated kernel must equal it, and be
byte-equal to it away from exact zero joint angles.

``link_point`` and ``jacobian_rows`` are a link point's world position and
its 3 x n positional Jacobian at a pose of ``issf_wbc.model.forward_kinematics``,
as numpy arrays, as the package once offered them; each is a thin wrapper
over the function the control cycle calls (``FkResult._point``,
``model._jacobian_rows``), so that the tests check the cycle's own code.

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
from math import cos, sin

import numpy as np

from issf_wbc import model as float_model
from issf_wbc.kinwbc import SIGMA_REL_DEFAULT
from issf_wbc.model import ModelError, RobotModel


def link_point(fk: float_model.FkResult, link: int, point_in_link) -> np.ndarray:
    """World position of a point fixed in ``link``, at the package's pose ``fk``."""
    return np.array(fk._point(link, float_model._xyz(point_in_link)))


def jacobian_rows(model: RobotModel, fk: float_model.FkResult, link: int,
                  point_in_link) -> np.ndarray:
    """3 x n_dof positional Jacobian of a point fixed in ``link``, at the
    package's pose ``fk``."""
    return np.array(float_model._jacobian_rows(
        fk, model.n_dof, link, fk._point(link, float_model._xyz(point_in_link))))


def fk_loop(frames, ql: list[float]) -> tuple[list, list, list, list]:
    """Forward kinematics on floats from ``model._frames(model)`` at the joint
    angles ``ql``: (rot 9-tuples, pos, joint_axis, joint_origin)."""
    rot, pos, axes, orig = [], [], [], []
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0
    px = py = pz = 0.0
    for i, (x, y, z, xx, xy, xz, yy, yz, zz, xyz, rfix) in enumerate(frames):
        c = cos(ql[i])
        s = sin(ql[i])
        v = 1.0 - c
        xs, ys, zs = x * s, y * s, z * s
        xyv, xzv, yzv = xy * v, xz * v, yz * v
        q00 = xx * v + c
        q01 = xyv - zs
        q02 = xzv + ys
        q10 = xyv + zs
        q11 = yy * v + c
        q12 = yzv - xs
        q20 = xzv - ys
        q21 = yzv + xs
        q22 = zz * v + c
        axes.append((a00 * x + a01 * y + a02 * z,
                     a10 * x + a11 * y + a12 * z,
                     a20 * x + a21 * y + a22 * z))
        orig.append((px, py, pz))
        j00 = a00 * q00 + a01 * q10 + a02 * q20
        j01 = a00 * q01 + a01 * q11 + a02 * q21
        j02 = a00 * q02 + a01 * q12 + a02 * q22
        j10 = a10 * q00 + a11 * q10 + a12 * q20
        j11 = a10 * q01 + a11 * q11 + a12 * q21
        j12 = a10 * q02 + a11 * q12 + a12 * q22
        j20 = a20 * q00 + a21 * q10 + a22 * q20
        j21 = a20 * q01 + a21 * q11 + a22 * q21
        j22 = a20 * q02 + a21 * q12 + a22 * q22
        ox, oy, oz = xyz
        px = px + j00 * ox + j01 * oy + j02 * oz
        py = py + j10 * ox + j11 * oy + j12 * oz
        pz = pz + j20 * ox + j21 * oy + j22 * oz
        if rfix is None:
            a00, a01, a02, a10, a11, a12, a20, a21, a22 = (
                j00, j01, j02, j10, j11, j12, j20, j21, j22)
        else:
            f00, f01, f02, f10, f11, f12, f20, f21, f22 = rfix
            a00 = j00 * f00 + j01 * f10 + j02 * f20
            a01 = j00 * f01 + j01 * f11 + j02 * f21
            a02 = j00 * f02 + j01 * f12 + j02 * f22
            a10 = j10 * f00 + j11 * f10 + j12 * f20
            a11 = j10 * f01 + j11 * f11 + j12 * f21
            a12 = j10 * f02 + j11 * f12 + j12 * f22
            a20 = j20 * f00 + j21 * f10 + j22 * f20
            a21 = j20 * f01 + j21 * f11 + j22 * f21
            a22 = j20 * f02 + j21 * f12 + j22 * f22
        rot.append((a00, a01, a02, a10, a11, a12, a20, a21, a22))
        pos.append((px, py, pz))
    return rot, pos, axes, orig


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


def truncated_pinv(jac: np.ndarray, sigma_rel: float = SIGMA_REL_DEFAULT,
                   scale: float | None = None) -> np.ndarray:
    """SVD pseudo-inverse with singular values below sigma_rel * scale set to 0;
    ``scale`` defaults to the largest singular value of ``jac``."""
    u, s, vt = np.linalg.svd(jac, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return jac.T * 0.0
    inv = np.where(s > sigma_rel * (s[0] if scale is None else scale),
                   1.0 / np.where(s > 0, s, 1.0), 0.0)
    return (vt.T * inv) @ u.T


def solve_priority_stack(
    jacobians: list[np.ndarray],
    velocity_terms: list[np.ndarray],
    n_dof: int,
    sigma_rel: float = SIGMA_REL_DEFAULT,
) -> np.ndarray:
    """The prioritized-IK recursion over explicit (J_i, xd_i_cmd - xd_i) pairs;
    each level truncates relative to its unprojected Jacobian's Frobenius norm."""
    qdot = np.zeros(n_dof)
    nullspace = np.eye(n_dof)
    for jac, term in zip(jacobians, velocity_terms):
        if jac.shape[0] != term.shape[0]:
            raise ValueError(
                f"task dimension mismatch: J has {jac.shape[0]} rows, command has {term.shape[0]}"
            )
        jac_pre = jac @ nullspace
        pinv = truncated_pinv(jac_pre, sigma_rel, scale=np.linalg.norm(jac))
        qdot = qdot + pinv @ (term - jac @ qdot)
        nullspace = nullspace - pinv @ jac_pre
    return qdot
