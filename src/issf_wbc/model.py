"""Fixed-base serial-chain robot model: kinematics and rigid-body dynamics.

Conventions
-----------
Joint i is revolute, located at the origin of the parent frame (the world
frame for i = 0), with its axis expressed in the parent frame.  The link
frame sits at the distal end of the link:

    T_i = T_{i-1} @ Rot(axis_i, q_i) @ Xfix_i

where Xfix_i is the link's fixed transform (where the next joint sits).
With unit x offsets, a 2-link chain at q = 0 therefore ends at (2, 0, 0).

Forward kinematics and point Jacobians run on plain Python floats: at
n <= 7 numpy's per-call overhead costs more than the arithmetic.  The
per-frame constants of a model are cached on first use (keyed weakly by the
model, which is immutable); otherwise the functions are pure.  A pose is
computed once and then read by every consumer: the point Jacobians here, the
barriers in ``geometry``, IK, and the rigid-body dynamics (mass matrix and
bias forces) in ``_fastdyn`` all take an ``FkResult``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from math import cos, sin
from pathlib import Path
from typing import TYPE_CHECKING
from weakref import WeakKeyDictionary

import numpy as np

if TYPE_CHECKING:
    from .geometry import CollisionBody

ROBOT_FORMAT = "issf-wbc/robot/v1"


class ModelError(ValueError):
    """Invalid robot description or state."""


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
        if not (np.isfinite(self.q).all() and np.isfinite(self.qd).all()):
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


def _xyz(point) -> tuple[float, float, float]:
    """A 3-vector (array, list or tuple) as a tuple of Python floats."""
    return tuple(np.asarray(point, dtype=float).tolist())


_FRAMES: "WeakKeyDictionary[RobotModel, list]" = WeakKeyDictionary()


def _frames(model: RobotModel) -> list[tuple]:
    """Per-frame FK constants: joint axis, its products, origin offset and rotation."""
    frames = _FRAMES.get(model)
    if frames is None:
        frames = []
        for link, joint in zip(model.links, model.joints):
            x, y, z = _xyz(joint.axis)
            rfix = link.origin_rotation
            frames.append((
                x, y, z, x * x, x * y, x * z, y * y, y * z, z * z,
                _xyz(link.origin_xyz),
                None if np.array_equal(rfix, np.eye(3)) else tuple(rfix.ravel().tolist()),
            ))
        _FRAMES[model] = frames
    return frames


def _fk(model: RobotModel, ql: list[float]) -> tuple[list, list, list, list]:
    """Forward kinematics on floats at the joint angles ``ql``:
    (rot 9-tuples, pos, joint_axis, joint_origin)."""
    rot, pos, axes, orig = [], [], [], []
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0
    px = py = pz = 0.0
    for i, (x, y, z, xx, xy, xz, yy, yz, zz, xyz, rfix) in enumerate(_frames(model)):
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


@dataclass(frozen=True)
class FkResult:
    """World-frame link frames plus joint axes/origins (reused by Jacobians).

    Every entry is a tuple of Python floats, one per link: ``rot[i]`` is the
    orientation as a row-major 9-tuple, the others are 3-tuples.
    """

    rot: list[tuple[float, ...]]
    pos: list[tuple[float, float, float]]
    joint_axis: list[tuple[float, float, float]]    # world joint axes
    joint_origin: list[tuple[float, float, float]]  # world joint positions

    def _point(self, link: int, point_in_link) -> tuple[float, float, float]:
        """World position of a link-frame point given as three floats."""
        x, y, z = point_in_link
        r00, r01, r02, r10, r11, r12, r20, r21, r22 = self.rot[link]
        px, py, pz = self.pos[link]
        return (px + (r00 * x + r01 * y + r02 * z),
                py + (r10 * x + r11 * y + r12 * z),
                pz + (r20 * x + r21 * y + r22 * z))

    def link_point(self, link: int, point_in_link: np.ndarray) -> np.ndarray:
        return np.array(self._point(link, _xyz(point_in_link)))


def forward_kinematics(model: RobotModel, q: np.ndarray) -> FkResult:
    """Compose world-frame link poses parent-to-child (base is the identity)."""
    return FkResult(*_fk(model, model.check_q(q).tolist()))


def _jacobian_rows(fk: FkResult, n_dof: int, link: int, point) -> list[list[float]]:
    """The 3 rows of the positional Jacobian at a world point moving with ``link``.

    Column j is axis_j x (p - o_j) for joints on the path (j <= link), zero
    otherwise.
    """
    px, py, pz = point
    row_x, row_y, row_z = [], [], []
    for (ax, ay, az), (ox, oy, oz) in zip(fk.joint_axis[:link + 1], fk.joint_origin):
        rx, ry, rz = px - ox, py - oy, pz - oz
        row_x.append(ay * rz - az * ry)
        row_y.append(az * rx - ax * rz)
        row_z.append(ax * ry - ay * rx)
    pad = [0.0] * (n_dof - link - 1)
    return [row_x + pad, row_y + pad, row_z + pad]


def _normal_jacobian(fk: FkResult, n_dof: int, link: int, point, normal) -> list[float]:
    """n . J(p), the Jacobian at a world point moving with ``link`` projected on n."""
    px, py, pz = point
    nx, ny, nz = normal
    out = []
    for (ax, ay, az), (ox, oy, oz) in zip(fk.joint_axis[:link + 1], fk.joint_origin):
        rx, ry, rz = px - ox, py - oy, pz - oz
        out.append(nx * (ay * rz - az * ry) + ny * (az * rx - ax * rz)
                   + nz * (ax * ry - ay * rx))
    return out + [0.0] * (n_dof - link - 1)


def _link_rates(fk: FkResult, qd) -> list[tuple[float, ...]]:
    """Link motion at pose ``fk``, joint velocity ``qd`` and zero joint acceleration.

    One pass from the base gives, per link, a flat 12-tuple: the angular
    velocity w, the velocity v of the link frame's origin, the angular
    acceleration al and the origin's bias acceleration a (the Jdot qd terms).
    Joint i turns about its axis z_i through o_i, which is link i-1's frame
    origin, so with r = p_i - o_i:

        w_i = w_(i-1) + z_i qd_i,          al_i = al_(i-1) + qd_i w_(i-1) x z_i,
        v_i = v_(i-1) + w_i x r,           a_i = a_(i-1) + al_i x r + w_i x (w_i x r).
    """
    wx = wy = wz = vx = vy = vz = lx = ly = lz = ax = ay = az = 0.0
    out = []
    for qdi, (zx, zy, zz), (ox, oy, oz), (px, py, pz) in zip(
            qd, fk.joint_axis, fk.joint_origin, fk.pos):
        lx += qdi * (wy * zz - wz * zy)
        ly += qdi * (wz * zx - wx * zz)
        lz += qdi * (wx * zy - wy * zx)
        wx += zx * qdi
        wy += zy * qdi
        wz += zz * qdi
        rx, ry, rz = px - ox, py - oy, pz - oz
        cx, cy, cz = wy * rz - wz * ry, wz * rx - wx * rz, wx * ry - wy * rx
        vx += cx
        vy += cy
        vz += cz
        ax += (ly * rz - lz * ry) + (wy * cz - wz * cy)
        ay += (lz * rx - lx * rz) + (wz * cx - wx * cz)
        az += (lx * ry - ly * rx) + (wx * cy - wy * cx)
        out.append((wx, wy, wz, vx, vy, vz, lx, ly, lz, ax, ay, az))
    return out


def _point_motion(fk: FkResult, rates: list[tuple[float, ...]], link: int,
                  point) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    """(w, v, a) of a world point moving with ``link``: the link's angular
    velocity, and the point's velocity and bias acceleration from ``_link_rates``."""
    wx, wy, wz, vx, vy, vz, lx, ly, lz, ax, ay, az = rates[link]
    px, py, pz = fk.pos[link]
    rx, ry, rz = point[0] - px, point[1] - py, point[2] - pz
    cx, cy, cz = wy * rz - wz * ry, wz * rx - wx * rz, wx * ry - wy * rx
    return ((wx, wy, wz), (vx + cx, vy + cy, vz + cz),
            (ax + (ly * rz - lz * ry) + (wy * cz - wz * cy),
             ay + (lz * rx - lx * rz) + (wz * cx - wx * cz),
             az + (lx * ry - ly * rx) + (wx * cy - wy * cx)))


def point_jacobian(
    model: RobotModel,
    fk: FkResult,
    link_index: int,
    point_in_link: np.ndarray,
) -> np.ndarray:
    """3 x n_dof positional Jacobian of a point rigidly attached to a link, at pose ``fk``."""
    if not 0 <= link_index < model.n_dof:
        raise ModelError(f"link index {link_index} out of range")
    return np.array(_jacobian_rows(fk, model.n_dof, link_index,
                                   fk._point(link_index, _xyz(point_in_link))))


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
