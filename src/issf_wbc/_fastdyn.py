"""Joint-space dynamics as one generated straight-line kernel per model.

``joint_dynamics(model, q, qd, gravity)`` returns the mass matrix and the
bias forces at (q, qd), all lists of floats.  Its kernel is the Newton-Euler
and composite-rigid-body passes (Featherstone, *Rigid Body Dynamics
Algorithms*, 2008, ch. 5-6) traced once on ``_codegen.Expr`` inputs q, qd
and gravity (``joint_frame_trace``), in joint frames as in Pinocchio
(Carpentier et al., SII 2019): frame i sits at joint i's origin and turns
with the joint, so joint i's axis, link i's CoM ``xyz_i + rfix_i com_i``
and inertia ``rfix_i I_i rfix_i^T`` are constants that fold into the trace.
Frame i-1 holds frame i at ``xyz_(i-1)``, turned by ``rfix_(i-1) turn(q_i)``;
``turn`` about a coordinate axis is the exact planar rotation.  Gravity
enters as the base acceleration -g.  The kernel is generated on first use
and shared by every model with the same kinematic and inertial constants,
such as a reloaded sweep model; a mass-scaled plant has its own.  It agrees
with the tests' world-frame loops to 1e-12 x max(1, largest |entry|); M is
exactly symmetric, and h is exactly zero at zero velocity and gravity.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable
from weakref import WeakKeyDictionary

import numpy as np

from ._codegen import Expr, expr_kernel, kernel_name
from .model import RobotModel, _add, _affine, _cross, _frames, _mat_mul, _mat_vec, _rodrigues

_KERNELS: "WeakKeyDictionary[RobotModel, Callable]" = WeakKeyDictionary()
_IDENTITY = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


def _inertial(model: RobotModel) -> tuple[tuple, ...]:
    """Per-link (mass, com, inertia 9-tuple)."""
    return tuple(
        (float(link.mass), tuple(link.com.tolist()),
         tuple(np.asarray(link.inertia).ravel().tolist()))
        for link in model.links
    )


def joint_dynamics(
    model: RobotModel,
    q: list[float],
    qd: list[float],
    gravity: list[float],
) -> tuple[list[list[float]], list[float]]:
    """(M, h) in one pass: mass matrix and bias forces at (q, qd).

    ``q``, ``qd`` and ``gravity`` are lists of floats; M comes back as a list
    of rows and h as a list.  Runs the model's kernel, looked up weakly by
    model (which is immutable).
    """
    kernel = _KERNELS.get(model)
    if kernel is None:
        kernel = _KERNELS[model] = _dynamics_kernel(_frames(model), _inertial(model))
    return kernel(q, qd, gravity)


@lru_cache(maxsize=128)
def _dynamics_kernel(frames: tuple[tuple, ...], inertial: tuple[tuple, ...]) -> Callable:
    """``joint_frame_trace`` for these constants, unrolled into a function of
    (q, qd, gravity)."""
    n = len(frames)
    q, qd = [f"q{i}" for i in range(n)], [f"qd{i}" for i in range(n)]
    gravity = ["gx", "gy", "gz"]

    def trace() -> list:
        mat, h = joint_frame_trace(frames, inertial, *([Expr.input(x) for x in names]
                                                        for names in (q, qd, gravity)))
        return [value for row in mat for value in row] + h

    row = "[" + ", ".join(["{}"] * n) + "]"
    return expr_kernel(kernel_name("dynamics", n, (frames, inertial)),
                       {"ql": q, "qdl": qd, "gl": gravity},
                       "[" + ", ".join([row] * n) + "], " + row, trace)


def _turn(frame: tuple, q) -> tuple:
    """Rot(axis, q) for the joint of ``frame`` (``model._frames``), exactly
    planar about a coordinate axis (Rodrigues gives (1 - c) + c on it)."""
    turn = _rodrigues(frame, Expr("cos", q), Expr("sin", q))
    axis = [abs(x) for x in frame[:3]]
    if sorted(axis) == [0.0, 0.0, 1.0]:
        k = 4 * axis.index(1.0)
        turn = turn[:k] + (1.0,) + turn[k + 1:]
    return turn


def _transpose(a: tuple) -> tuple:
    return a[0::3] + a[1::3] + a[2::3]


def _congruence(r: tuple, inertia: tuple) -> tuple:
    """R I R^T for a symmetric I: the upper triangle, mirrored."""
    e = _mat_mul(_mat_mul(r, inertia), _transpose(r))
    return (e[0], e[1], e[2], e[1], e[4], e[5], e[2], e[5], e[8])


def _dot(a: tuple, b: tuple):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def joint_frame_trace(frames: tuple[tuple, ...], inertial: tuple[tuple, ...],
                      q: list, qd: list, gravity: list) -> tuple[list[list], list]:
    """(M, h) for the constants ``frames`` (``model._frames``) and ``inertial``
    at traced (q, qd) under ``gravity``, every vector of link i in frame i."""
    n = len(frames)
    axes = [frame[:3] for frame in frames]
    # rots[i] carries frame i into frame i-1: turn(q_i), then rfix_(i-1),
    # whose products with 0.0 and 1.0 fold away when it is the identity.
    rfix = [frame[10] or _IDENTITY for frame in frames]
    rots = list(zip(map(_turn, frames, q), [_IDENTITY] + rfix))
    links = [(m, _affine(xyz, r, com), _congruence(r, inertia))
             for (*_, xyz, _), r, (m, com, inertia) in zip(frames, rfix, inertial)]

    def up(i: int, v: tuple) -> tuple:
        return _mat_vec(rots[i][1], _mat_vec(rots[i][0], v))

    def down(i: int, v: tuple) -> tuple:
        return _mat_vec(_transpose(rots[i][0]), _mat_vec(_transpose(rots[i][1]), v))

    def carry(i: int, f: tuple, moment: tuple) -> tuple[tuple, tuple]:
        """A force and its moment about frame i's origin, into frame i-1."""
        f = up(i, f)
        return f, _add(up(i, moment), _cross(frames[i - 1][9], f))

    # Composite bodies tip-to-base: mass m_c, first moment hc and inertia kc
    # about frame j's origin of links j..n-1, in frame j.  Column j of M is
    # the force and moment of the composite turning about axis j at unit rate.
    mat = [[0.0] * n for _ in range(n)]
    for j in range(n - 1, -1, -1):
        m, c, inertia = links[j]
        d2, hc_j = _dot(c, c), tuple(m * x for x in c)
        k = [inertia[3 * r + s] + m * ((d2 if r == s else 0.0) - c[r] * c[s])
             for r in range(3) for s in range(3)]
        if j < n - 1:
            # The composite beyond, turned into frame j (hr, kr) and moved by
            # p = xyz_j: kr + m_c (|p|^2 E - p p^T) + 2 (hr.p) E - hr p^T
            # - p hr^T, its constant terms added to link j's.  The diagonal
            # of the last terms is 2 (hr.p - hr_r p_r).
            p = frames[j][9]
            d2, hr = _dot(p, p), up(j + 1, hc)
            kr = _congruence(rots[j + 1][1], _congruence(rots[j + 1][0], kc))
            for r, s in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
                entry = (k[3 * r + s] + m_c * ((d2 if r == s else 0.0) - p[r] * p[s])
                         + kr[3 * r + s])
                entry = (sum((hr[t] * (2.0 * p[t]) for t in range(3) if t != r), entry)
                         if r == s else entry - (hr[r] * p[s] + p[r] * hr[s]))
                k[3 * r + s] = k[3 * s + r] = entry
            hc_j = _add([hi + m_c * pi for hi, pi in zip(hc_j, p)], hr)
            m += m_c
        m_c, hc, kc = m, hc_j, tuple(k)
        f, moment = tuple(_cross(axes[j], hc)), _mat_vec(kc, axes[j])
        mat[j][j] = _dot(axes[j], moment)
        for i in range(j, 0, -1):
            f, moment = carry(i, f, moment)
            mat[i - 1][j] = mat[j][i - 1] = _dot(axes[i - 1], moment)

    # Newton-Euler (qdd = 0, base acceleration -g): tip-ward, each link's w,
    # al, its origin's acceleration a and its inertial force and moment about
    # the joint; base-ward, each joint's force and moment, h_i about its axis.
    forces = []
    w = al = (0.0, 0.0, 0.0)
    a = tuple(-g for g in gravity)
    for i, ((m, c, inertia), z) in enumerate(zip(links, axes)):
        if i:       # a + al x p + w x (w x p): frame i's origin, at p = xyz_(i-1)
            p = frames[i - 1][9]
            a = _add(a, _add(_cross(al, p), _cross(w, _cross(w, p))))
        w, al, a = down(i, w), down(i, al), down(i, a)
        zq = tuple(zi * qd[i] for zi in z)
        al, w = _add(al, _cross(w, zq)), _add(w, zq)
        f = tuple(m * x for x in _add(a, _add(_cross(al, c), _cross(w, _cross(w, c)))))
        moment = _add(_mat_vec(inertia, al), _cross(w, _mat_vec(inertia, w)))
        forces.append((f, _add(moment, _cross(c, f))))
    h = [0.0] * n
    f = moment = (0.0, 0.0, 0.0)
    for i in range(n - 1, -1, -1):
        f, moment = _add(forces[i][0], f), _add(forces[i][1], moment)
        h[i] = _dot(axes[i], moment)
        if i:
            f, moment = carry(i, f, moment)
    return mat, h
