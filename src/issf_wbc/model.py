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
n <= 7 numpy's per-call overhead costs more than the arithmetic.  Forward
kinematics is one straight-line function per set of kinematic constants
(joint axes, origin offsets and rotations), generated on first use and
shared by every model with those constants, such as a model and its
mass-scaled plant; a model finds its kernel through a cache keyed weakly by
the model, which is immutable.  Otherwise the functions are pure.  A pose is
computed once and then read by every kinematic consumer: the point
Jacobians here, the barriers in ``geometry`` and IK all take an
``FkResult``.  The rigid-body dynamics in ``_fastdyn`` take q instead: their
generated kernel works in joint frames and needs no world pose.

A joint vector is a tuple of floats, built once: a ``JointState``'s q and
qd, and a model's ``q_min``, ``q_max`` and ``tau_max`` (inf: no limit).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Callable
from weakref import WeakKeyDictionary

import numpy as np

from ._codegen import Expr, expr_kernel, kernel_name

if TYPE_CHECKING:
    from .geometry import CollisionBody

ROBOT_FORMAT = "issf-wbc/robot/v1"


class ModelError(ValueError):
    """Invalid robot description or state; from ``load_robot``, ``problems``
    lists every problem of the file, each starting with its field path."""

    def __init__(self, message: str, problems: list[str] | None = None):
        super().__init__(message)
        self.problems = [message] if problems is None else problems


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
    tau_max: float = math.inf


@dataclass(frozen=True)
class JointState:
    """Configuration and velocity at time t (the reduced state y is q), as
    float tuples converted once from any flat sequence of numbers."""

    q: tuple[float, ...]
    qd: tuple[float, ...]
    t: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", tuple(map(float, self.q)))
        object.__setattr__(self, "qd", tuple(map(float, self.qd)))

    def validate(self, n_dof: int) -> None:
        if len(self.q) != n_dof or len(self.qd) != n_dof:
            raise ModelError(
                f"state dimension mismatch: q ({len(self.q)},), qd ({len(self.qd)},), "
                f"expected ({n_dof},)"
            )
        if not (all(map(math.isfinite, self.q)) and all(map(math.isfinite, self.qd))):
            raise ModelError("non-finite entries in joint state")


@dataclass(frozen=True, eq=False)
class RobotModel:
    """Fixed-base serial chain of revolute joints."""

    name: str
    links: tuple[LinkSpec, ...]
    joints: tuple[JointSpec, ...]
    collision_bodies: tuple["CollisionBody", ...] = ()

    def __post_init__(self) -> None:
        """Each message starts with the field of a robot file that it names."""
        if len(self.links) != len(self.joints):
            raise ModelError(f"joints: {len(self.joints)} joints for {len(self.links)} links")
        for i, link in enumerate(self.links):
            if link.parent != i - 1:
                raise ModelError(f"links[{i}].parent: {link.parent} breaks the serial chain")
            if not 0.0 < link.mass < math.inf:
                raise ModelError(f"links[{i}].mass: must be finite and > 0, got {link.mass!r}")
            inertia = np.asarray(link.inertia)
            if not np.isfinite(inertia).all():
                raise ModelError(f"links[{i}].inertia: must be finite")
            if not np.allclose(inertia, inertia.T, atol=1e-12):
                raise ModelError(f"links[{i}].inertia: not symmetric")
            if np.min(np.linalg.eigvalsh(inertia)) <= 0.0:
                raise ModelError(f"links[{i}].inertia: not positive definite")
        for i, joint in enumerate(self.joints):
            for key, value in (("lower", joint.q_min), ("upper", joint.q_max)):
                if not math.isfinite(value):
                    raise ModelError(f"joints[{i}].limits.{key}: must be finite, got {value!r}")
            if not joint.tau_max > 0.0:
                raise ModelError(f"joints[{i}].limits.torque: must be > 0 (or inf), "
                                 f"got {joint.tau_max!r}")
            if joint.q_min >= joint.q_max:
                raise ModelError(f"joints[{i}].limits: lower must be < upper")
            if not math.isclose(float(np.linalg.norm(joint.axis)), 1.0, abs_tol=1e-9):
                raise ModelError(f"joints[{i}].axis: must be a unit vector")
        for i, body in enumerate(self.collision_bodies):
            if not 0 <= body.link < len(self.links):
                raise ModelError(f"collision[{i}].link: {body.link} out of range")

    @property
    def n_dof(self) -> int:
        return len(self.joints)

    @cached_property
    def q_min(self) -> tuple[float, ...]:
        return tuple(float(j.q_min) for j in self.joints)

    @cached_property
    def q_max(self) -> tuple[float, ...]:
        return tuple(float(j.q_max) for j in self.joints)

    @cached_property
    def tau_max(self) -> tuple[float, ...]:
        return tuple(float(j.tau_max) for j in self.joints)

    def collision_body(self, name: str) -> "CollisionBody":
        for body in self.collision_bodies:
            if body.name == name:
                return body
        raise ModelError(f"unknown collision body {name!r}")


def _xyz(point) -> tuple[float, float, float]:
    """A 3-vector (array, list or tuple) as a tuple of Python floats."""
    return tuple(np.asarray(point, dtype=float).tolist())


def _frames(model: RobotModel) -> tuple[tuple, ...]:
    """Per-frame FK constants: joint axis, its products, origin offset and rotation."""
    frames = []
    for link, joint in zip(model.links, model.joints):
        x, y, z = _xyz(joint.axis)
        rfix = link.origin_rotation
        frames.append((
            x, y, z, x * x, x * y, x * z, y * y, y * z, z * z,
            _xyz(link.origin_xyz),
            None if np.array_equal(rfix, np.eye(3)) else tuple(rfix.ravel().tolist()),
        ))
    return tuple(frames)


# Trace-time 3x3 algebra for ``fk_trace`` and ``_fastdyn.joint_frame_trace``:
# matrices are row-major 9-tuples, vectors 3-tuples.  Every sum runs left to
# right, and entries are built in row-major order: a kernel numbers its
# statements in the order the trace creates them.

def _mat_mul(a: tuple, b: tuple) -> tuple:
    """A B."""
    return tuple(a[i] * b[j] + a[i + 1] * b[j + 3] + a[i + 2] * b[j + 6]
                 for i in (0, 3, 6) for j in (0, 1, 2))


def _mat_vec(a: tuple, v: tuple) -> tuple:
    """A v."""
    x, y, z = v
    return tuple(a[i] * x + a[i + 1] * y + a[i + 2] * z for i in (0, 3, 6))


def _affine(p: tuple, a: tuple, v: tuple) -> tuple:
    """p + A v, each entry summed left to right from p."""
    x, y, z = v
    return tuple(pi + a[i] * x + a[i + 1] * y + a[i + 2] * z
                 for pi, i in zip(p, (0, 3, 6)))


def _cross(a: tuple, b: tuple):
    """a x b, yielded entry by entry: ``_add(c, _cross(a, b))`` then builds
    each entry of c + a x b before the next, in the loop's order."""
    ax, ay, az = a
    bx, by, bz = b
    yield ay * bz - az * by
    yield az * bx - ax * bz
    yield ax * by - ay * bx


def _add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def _rodrigues(frame: tuple, c, s) -> tuple:
    """The rotation about the joint axis of ``frame`` (``_frames``) by the
    angle whose cosine and sine are ``c`` and ``s`` (Rodrigues' formula)."""
    x, y, z, xx, xy, xz, yy, yz, zz = frame[:9]
    v = 1.0 - c
    xs, ys, zs = x * s, y * s, z * s
    xyv, xzv, yzv = xy * v, xz * v, yz * v
    return (xx * v + c, xyv - zs, xzv + ys,
            xyv + zs, yy * v + c, yzv - xs,
            xzv - ys, yzv + xs, zz * v + c)


def fk_trace(frames: tuple[tuple, ...], q: list) -> tuple[list, list, list, list]:
    """Forward kinematics for the constants ``frames`` on traced joint angles
    ``q`` (``_codegen.Expr`` inputs): (rot 9-tuples, pos, joint_axis,
    joint_origin), each entry an ``Expr`` or a float.

    This loop runs only when a kernel is generated: it is the source of the
    FK kernel, and its sums run left to right, as the kernel's do.  Per
    frame: the axis-angle rotation (Rodrigues), the joint axis and origin in
    the world, the composed rotation and the link origin, with the fixed
    origin rotation applied when it is not the identity.
    """
    rot, pos, axes, orig = [], [], [], []
    a = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    p = (0.0, 0.0, 0.0)
    for qi, frame in zip(q, frames):
        *_, xyz, rfix = frame
        turn = _rodrigues(frame, Expr("cos", qi), Expr("sin", qi))
        axes.append(_mat_vec(a, frame[:3]))
        orig.append(p)
        j = _mat_mul(a, turn)
        p = _affine(p, j, xyz)
        a = j if rfix is None else _mat_mul(j, rfix)
        rot.append(a)
        pos.append(p)
    return rot, pos, axes, orig


@lru_cache(maxsize=128)
def _fk_kernel(frames: tuple[tuple, ...]) -> Callable[[list[float]], tuple]:
    """Forward kinematics for the constants ``frames``, as one straight-line
    function of the joint angles: ``fk_trace`` unrolled.  Constants that are
    exactly 0.0 or 1.0 fold away, which at these sizes removes most of a
    planar chain's products.
    """
    n = len(frames)
    names = [f"q{i}" for i in range(n)]
    outputs = ", ".join(["[" + ", ".join(["(" + ", ".join(["{}"] * 9) + ")"] * n) + "]"]
                        + ["[" + ", ".join(["({}, {}, {})"] * n) + "]"] * 3)

    def trace() -> list:
        groups = fk_trace(frames, [Expr.input(name) for name in names])
        return [value for group in groups for entry in group for value in entry]

    return expr_kernel(kernel_name("fk", n, frames), {"ql": names}, outputs, trace)


_FK: "WeakKeyDictionary[RobotModel, Callable]" = WeakKeyDictionary()


def _fk(model: RobotModel, ql: list[float]) -> tuple[list, list, list, list]:
    """Forward kinematics on floats at the joint angles ``ql``:
    (rot 9-tuples, pos, joint_axis, joint_origin).

    Runs the model's generated kernel, looked up weakly by model (which is
    immutable) and shared by every model with the same kinematic constants.
    """
    kernel = _FK.get(model)
    if kernel is None:
        kernel = _FK[model] = _fk_kernel(_frames(model))
    return kernel(ql)


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


def forward_kinematics(model: RobotModel, q) -> FkResult:
    """Compose world-frame link poses parent-to-child (base is the identity)
    at ``q``, n floats such as ``JointState.q``."""
    if len(q) != model.n_dof:
        raise ModelError(f"q has shape ({len(q)},), expected ({model.n_dof},)")
    return FkResult(*_fk(model, q))


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


def scale_link_masses(model: RobotModel, factor: float) -> RobotModel:
    """Uniform density scaling (mass and inertia), used to inject model mismatch."""
    if not 0.0 < factor < math.inf:
        raise ModelError(f"mass scale must be finite and > 0, got {factor!r}")
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


def _number(raw) -> float | None:
    """A JSON int or float as a float: not a bool (JSON values have exact
    types), a string or NaN; infinity is a number."""
    try:
        value = float(raw) if type(raw) in (int, float) else math.nan
    except OverflowError:       # an int beyond the float range
        value = math.nan
    return None if math.isnan(value) else value


def _integer(raw) -> int | None:
    """A JSON int, or a float with a whole value (1.5 is not rounded)."""
    if type(raw) is float and raw.is_integer():
        return int(raw)
    return raw if type(raw) is int else None


def _numbers(raw, n: int) -> np.ndarray | None:
    """A JSON list of n numbers as an array."""
    if type(raw) is list and len(raw) == n:
        values = [_number(x) for x in raw]
        if None not in values:
            return np.array(values)
    return None


_REQUIRED = object()    # the default of a key that must be given


class Fields:
    """One JSON object or list of an input file, its entries read by kind.

    ``where`` is the block's field path ("" for the document) and ``problems``
    the list shared by the whole file.  A reader takes a key (a name, or an
    index into a list) and a default, which is read like a given value; a key
    without a default is required.  A missing required entry or one of the
    wrong kind adds one problem, ``<field path>: <message>``, and reads as
    None, so that a file is read in full before it is rejected.  A block of
    the wrong kind reads as an empty block whose entries all read as None.
    """

    def __init__(self, raw, where: str, problems: list[str], known=()):
        self.raw, self.where, self.problems = raw, where, problems
        self.found = len(problems)
        for key in raw if type(raw) is dict else ():
            if key not in known:
                self.problem(key, "unknown key")

    @staticmethod
    def load(path: Path, form: str, known) -> "Fields":
        """The document of the JSON file ``path``, which must declare the
        format ``form``, with a new problem list."""
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:   # not UTF-8, or not JSON
            return Fields(None, "", [str(exc)])
        if type(raw) is not dict:
            return Fields(None, "", [f"expected an object, got {raw!r}"])
        doc = Fields(raw, "", [], known)
        doc.string("format", options=(form,))
        return doc

    @property
    def ok(self) -> bool:
        """The block was read, and no problem has been found in it yet."""
        return self.raw is not None and len(self.problems) == self.found

    def __contains__(self, key) -> bool:
        return type(self.raw) is dict and key in self.raw

    def __iter__(self):
        """The keys of an object, the indices of a list."""
        return iter(range(len(self.raw)) if type(self.raw) is list else self.raw or ())

    def path(self, key) -> str:
        if type(key) is int:
            return f"{self.where}[{key}]"
        return f"{self.where}.{key}" if self.where else key

    def problem(self, key, message: str) -> None:
        self.problems.append(f"{self.path(key)}: {message}")

    def read(self, key, expected: str, convert, default=_REQUIRED):
        """The entry at ``key`` (or ``default``) through ``convert``, which
        gives None for a value that is not ``expected``."""
        block = self.raw
        if block is None:
            return None
        if type(block) is list or key in block:
            raw = block[key]
        elif default is _REQUIRED:
            self.problem(key, "required")
            return None
        else:
            raw = default
        value = convert(raw)
        if value is None:
            self.problem(key, f"expected {expected}, got {raw!r}")
        return value

    def number(self, key, default=_REQUIRED) -> float | None:
        return self.read(key, "a number", _number, default)

    def integer(self, key, default=_REQUIRED) -> int | None:
        return self.read(key, "an integer", _integer, default)

    def vector(self, key, n: int, default=_REQUIRED) -> np.ndarray | None:
        return self.read(key, f"{n} numbers", lambda raw: _numbers(raw, n), default)

    def string(self, key, default=_REQUIRED, options: tuple[str, ...] | None = None):
        """A string; one of ``options`` when they are given."""
        expected = "a string" if options is None else f"one of {options!r}"
        return self.read(key, expected, lambda raw: raw if type(raw) is str and (
            options is None or raw in options) else None, default)

    def block(self, key, known=None, default=_REQUIRED) -> "Fields":
        """The object at ``key``, whose keys must be in ``known``; with no
        ``known``, the list at ``key``."""
        kind, expected = (list, "a list") if known is None else (dict, "an object")
        where = self.path(key)
        block = self.read(key, expected, lambda raw: Fields(raw, where, self.problems, known)
                          if type(raw) is kind else None, default)
        return Fields(None, where, self.problems) if block is None else block

    def objects(self, known):
        """(index, entry) for each entry of this list that is an object with
        keys in ``known``; any other entry is a problem."""
        for i in self:
            entry = self.block(i, known)
            if entry.raw is not None:
                yield i, entry

    def build(self, make, default=None):
        """``make()`` once this block has been read without a problem, else
        ``default``.  A ``ValueError`` from ``make`` is a problem; its message
        starts with a key of this block."""
        if not self.ok:
            return default
        try:
            return make()
        except ValueError as exc:
            self.problems.extend(self.path(problem) for problem in str(exc).split("; "))
            return default


SHAPES = ("sphere", "capsule")


def _inertia(raw) -> np.ndarray | None:
    """The inertia about the CoM: its diagonal as 3 numbers, or 3 rows of 3."""
    rows = [_numbers(row, 3) for row in raw] if type(raw) is list and len(raw) == 3 else ()
    if rows and all(row is not None for row in rows):
        return np.array(rows)
    diagonal = _numbers(raw, 3)
    return None if diagonal is None else np.diag(diagonal)


def _axis(raw) -> np.ndarray | None:
    """A joint axis, scaled to unit length."""
    axis = _numbers(raw, 3)
    norm = 0.0 if axis is None else float(np.linalg.norm(axis))
    return axis / norm if 0.0 < norm < math.inf else None


def load_robot(path: str | Path) -> RobotModel:
    """Load a robot description file (JSON schema ``issf-wbc/robot/v1``).

    Every problem found is raised in one ``ModelError``, each one starting
    with its field path (``links[0].mass: required``).
    """
    from .geometry import CollisionBody  # deferred: geometry imports this module

    path = Path(path)
    doc = Fields.load(path, ROBOT_FORMAT, {"format", "name", "links", "joints", "collision"})
    links = []
    for i, link in doc.block("links", default=[]).objects(
            {"mass", "com", "inertia", "parent", "origin"}):
        origin = link.block("origin", {"xyz", "rpy"}, {})
        links.append(LinkSpec(
            mass=link.number("mass"),
            com=link.vector("com", 3, [0.0, 0.0, 0.0]),
            inertia=link.read("inertia", "3 numbers or 3 rows of 3", _inertia),
            parent=link.integer("parent", i - 1),
            origin_xyz=origin.vector("xyz", 3, [0.0, 0.0, 0.0]),
            origin_rpy=origin.vector("rpy", 3, [0.0, 0.0, 0.0]),
        ))
    joints = []
    for _, joint in doc.block("joints", default=[]).objects({"axis", "limits"}):
        limits = joint.block("limits", {"lower", "upper", "torque"}, {})
        joints.append(JointSpec(
            axis=joint.read("axis", "3 numbers, finite and not all 0", _axis),
            q_min=limits.number("lower", -math.pi),
            q_max=limits.number("upper", math.pi),
            tau_max=limits.number("torque", math.inf),
        ))
    bodies = []
    for i, body in doc.block("collision", default=[]).objects(
            {"name", "link", "shape", "radius", "p0", "p1"}):
        shape = body.string("shape", options=SHAPES)
        if shape == "sphere" and "p1" in body:
            body.problem("p1", "unknown key")
        p0 = body.vector("p0", 3, [0.0, 0.0, 0.0])
        values = (body.string("name", f"body{i}"), body.integer("link"), body.number("radius"),
                  p0, body.vector("p1", 3) if shape == "capsule" else p0)
        bodies.append(body.build(lambda: CollisionBody(*values)))
    name = doc.string("name", path.stem)
    model = doc.build(lambda: RobotModel(name, tuple(links), tuple(joints), tuple(bodies)))
    if doc.problems:
        raise ModelError(f"{path}: " + "; ".join(doc.problems), doc.problems)
    return model
