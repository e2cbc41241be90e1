"""Fixed-base serial-chain robot model: kinematics and rigid-body dynamics.

Conventions
-----------
Joint i is revolute, located at the origin of the parent frame (the world
frame for i = 0), with its axis expressed in the parent frame.  The link
frame sits at the distal end of the link:

    T_i = T_{i-1} @ Rot(axis_i, q_i) @ Xfix_i

where Xfix_i is the link's fixed transform (where the next joint sits).
With unit x offsets, a 2-link chain at q = 0 therefore ends at (2, 0, 0).

The rigid-body dynamics (mass matrix and bias forces) are in ``_fastdyn``.
All functions are pure (no caching, thread-safe).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .geometry import CollisionBody

ROBOT_FORMAT = "issf-wbc/robot/v1"


class ModelError(ValueError):
    """Invalid robot description or state."""


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


def rpy_matrix(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    return np.array(
        [
            [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
            [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
            [-sp, cp * sr, cp * cr],
        ]
    )


@dataclass(frozen=True)
class LinkSpec:
    """One link: inertial data plus the fixed transform placing its frame."""

    mass: float
    com: np.ndarray                 # CoM in link frame [m]
    inertia: np.ndarray             # 3x3 about CoM, link frame [kg m^2]
    parent: int                     # index of parent link, -1 = fixed base
    origin_xyz: np.ndarray          # fixed offset applied after the joint
    origin_rpy: np.ndarray = field(default_factory=lambda: np.zeros(3))

    @cached_property
    def origin_rotation(self) -> np.ndarray:
        return rpy_matrix(*self.origin_rpy)


@dataclass(frozen=True)
class JointSpec:
    """Revolute joint: unit axis in the parent frame plus limits."""

    axis: np.ndarray
    q_min: float = -math.pi
    q_max: float = math.pi
    qd_max: float = math.inf
    tau_max: float = math.inf


@dataclass(frozen=True)
class JointState:
    """Configuration and velocity at time t (the reduced state y is q)."""

    q: np.ndarray
    qd: np.ndarray
    t: float = 0.0

    def validate(self, n_dof: int) -> None:
        if self.q.shape != (n_dof,) or self.qd.shape != (n_dof,):
            raise ModelError(
                f"state dimension mismatch: q {self.q.shape}, qd {self.qd.shape}, "
                f"expected ({n_dof},)"
            )
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.qd))):
            raise ModelError("non-finite entries in joint state")


@dataclass(frozen=True, eq=False)
class RobotModel:
    """Fixed-base serial chain of revolute joints."""

    name: str
    links: tuple[LinkSpec, ...]
    joints: tuple[JointSpec, ...]
    collision_bodies: tuple["CollisionBody", ...] = ()

    def __post_init__(self) -> None:
        if len(self.links) != len(self.joints):
            raise ModelError("links and joints must pair up one-to-one")
        for i, link in enumerate(self.links):
            if link.parent != i - 1:
                raise ModelError(
                    f"link {i}: parent {link.parent} breaks the single serial chain"
                )
            if link.mass <= 0.0:
                raise ModelError(f"link {i}: mass must be > 0")
            inertia = np.asarray(link.inertia)
            if not np.allclose(inertia, inertia.T, atol=1e-12):
                raise ModelError(f"link {i}: inertia not symmetric")
            if np.min(np.linalg.eigvalsh(inertia)) <= 0.0:
                raise ModelError(f"link {i}: inertia not positive definite")
        for i, joint in enumerate(self.joints):
            if joint.q_min >= joint.q_max:
                raise ModelError(f"joint {i}: q_min must be < q_max")
            if not math.isclose(float(np.linalg.norm(joint.axis)), 1.0, abs_tol=1e-9):
                raise ModelError(f"joint {i}: axis must be a unit vector")

    @property
    def n_dof(self) -> int:
        return len(self.joints)

    @property
    def q_min(self) -> np.ndarray:
        return np.array([j.q_min for j in self.joints])

    @property
    def q_max(self) -> np.ndarray:
        return np.array([j.q_max for j in self.joints])

    @property
    def tau_max(self) -> np.ndarray:
        return np.array([j.tau_max for j in self.joints])

    def collision_body(self, name: str) -> "CollisionBody":
        for body in self.collision_bodies:
            if body.name == name:
                return body
        raise ModelError(f"unknown collision body {name!r}")

    def check_q(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.shape != (self.n_dof,):
            raise ModelError(f"q has shape {q.shape}, expected ({self.n_dof},)")
        return q


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
    px, py, pz = fk.link_point(link_index, point_in_link).tolist()
    k = link_index + 1
    # Scalar cross products: np.cross has a large per-call overhead at this
    # size, and these are the same IEEE operations, so the result is equal.
    row_x, row_y, row_z = [], [], []
    for (ax, ay, az), (ox, oy, oz) in zip(fk.joint_axis[:k].tolist(),
                                          fk.joint_origin[:k].tolist()):
        rx, ry, rz = px - ox, py - oy, pz - oz
        row_x.append(ay * rz - az * ry)
        row_y.append(az * rx - ax * rz)
        row_z.append(ax * ry - ay * rx)
    pad = [0.0] * (model.n_dof - k)
    return np.array([row_x + pad, row_y + pad, row_z + pad])


def scale_link_masses(model: RobotModel, factor: float) -> RobotModel:
    """Uniform density scaling (mass and inertia), used to inject model mismatch."""
    if factor <= 0.0:
        raise ModelError("mass scale must be > 0")
    links = tuple(
        LinkSpec(
            mass=link.mass * factor,
            com=link.com,
            inertia=np.asarray(link.inertia) * factor,
            parent=link.parent,
            origin_xyz=link.origin_xyz,
            origin_rpy=link.origin_rpy,
        )
        for link in model.links
    )
    return RobotModel(
        name=model.name,
        links=links,
        joints=model.joints,
        collision_bodies=model.collision_bodies,
    )


def _vec3(raw, where: str) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    if arr.shape != (3,):
        raise ModelError(f"{where}: expected 3 numbers, got {raw!r}")
    return arr


def _inertia_matrix(raw, where: str) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    if arr.shape == (3,):
        return np.diag(arr)
    if arr.shape == (3, 3):
        return arr
    raise ModelError(f"{where}: inertia must be a diagonal 3-vector or 3x3 matrix")


def load_robot(path: str | Path) -> RobotModel:
    """Load a robot description file (JSON schema ``issf-wbc/robot/v1``)."""
    from .geometry import CollisionBody  # deferred: geometry imports this module

    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ModelError(f"{path}: line {exc.lineno}, col {exc.colno}: {exc.msg}") from exc
    if doc.get("format") != ROBOT_FORMAT:
        raise ModelError(f"{path}: format must be {ROBOT_FORMAT!r}, got {doc.get('format')!r}")

    links = []
    for i, raw in enumerate(doc.get("links", [])):
        where = f"{path}: links[{i}]"
        origin = raw.get("origin", {})
        links.append(
            LinkSpec(
                mass=float(raw["mass"]),
                com=_vec3(raw.get("com", [0, 0, 0]), where + ".com"),
                inertia=_inertia_matrix(raw["inertia"], where),
                parent=int(raw.get("parent", i - 1)),
                origin_xyz=_vec3(origin.get("xyz", [0, 0, 0]), where + ".origin.xyz"),
                origin_rpy=_vec3(origin.get("rpy", [0, 0, 0]), where + ".origin.rpy"),
            )
        )
    joints = []
    for i, raw in enumerate(doc.get("joints", [])):
        where = f"{path}: joints[{i}]"
        axis = _vec3(raw["axis"], where + ".axis")
        norm = float(np.linalg.norm(axis))
        if norm == 0.0:
            raise ModelError(where + ": zero joint axis")
        limits = raw.get("limits", {})
        joints.append(
            JointSpec(
                axis=axis / norm,
                q_min=float(limits.get("lower", -math.pi)),
                q_max=float(limits.get("upper", math.pi)),
                qd_max=float(limits.get("velocity", math.inf)),
                tau_max=float(limits.get("torque", math.inf)),
            )
        )
    if len(links) != len(joints):
        raise ModelError(f"{path}: {len(links)} links vs {len(joints)} joints")

    bodies = []
    for i, raw in enumerate(doc.get("collision", [])):
        where = f"{path}: collision[{i}]"
        shape = raw.get("shape")
        if shape not in ("sphere", "capsule"):
            raise ModelError(where + f": shape must be sphere or capsule, got {shape!r}")
        p0 = _vec3(raw.get("p0", [0, 0, 0]), where + ".p0")
        p1 = _vec3(raw["p1"], where + ".p1") if shape == "capsule" else p0
        bodies.append(
            CollisionBody(
                name=str(raw.get("name", f"body{i}")),
                link=int(raw["link"]),
                radius=float(raw["radius"]),
                p0=p0,
                p1=p1,
            )
        )
        if not 0 <= bodies[-1].link < len(links):
            raise ModelError(where + f": link {bodies[-1].link} out of range")

    return RobotModel(
        name=str(doc.get("name", path.stem)),
        links=tuple(links),
        joints=tuple(joints),
        collision_bodies=tuple(bodies),
    )
