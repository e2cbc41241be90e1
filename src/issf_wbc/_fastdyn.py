"""Joint-space dynamics as one generated straight-line kernel per model.

``joint_dynamics(model, q, qd, gravity)`` returns the mass matrix and the
bias forces at (q, qd), all lists of floats.  At n <= 7 a loop spends most
of its time on itself, so the kernel is forward kinematics (``model.fk_trace``),
the Newton-Euler bias pass and the composite-rigid-body mass-matrix pass
(``dynamics_trace``; Featherstone, *Rigid Body Dynamics Algorithms*, 2008)
traced once on ``_codegen.Expr`` values with q, qd and gravity as inputs.
The link constants fold into the trace: diagonal inertias, CoMs with zero
entries and planar axes drop most of the products.  The kernel is generated
on first use and shared by every model with the same kinematic and inertial
constants, such as a reloaded sweep model; a mass-scaled plant has its own.

The trace sources (``fk_trace``, ``dynamics_trace``) run only when a kernel
is generated.  They are written as 3x3 algebra whose sums run left to right,
and the kernel does their float operations in their order, so it agrees bit
for bit with the nested-loop reference in ``tests/fastdyn_oracle.py``,
except at most in the sign of an exact zero (at rest, for instance); the
test suite cross-checks that on random chains.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable
from weakref import WeakKeyDictionary

import numpy as np

from ._codegen import Expr, expr_kernel, kernel_name
from .model import (
    RobotModel, _add, _affine, _cross, _frames, _mat_mul, _mat_mul_t, _mat_vec, _sub, fk_trace,
)

_KERNELS: "WeakKeyDictionary[RobotModel, Callable]" = WeakKeyDictionary()


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
    """``dynamics_trace`` after ``fk_trace`` for these constants, unrolled
    into a function of (q, qd, gravity)."""
    n = len(frames)
    q, qd = [f"q{i}" for i in range(n)], [f"qd{i}" for i in range(n)]
    gravity = ["gx", "gy", "gz"]

    def trace() -> list:
        mat, h = dynamics_trace(inertial, fk_trace(frames, [Expr.input(x) for x in q]),
                                [Expr.input(x) for x in qd], [Expr.input(x) for x in gravity])
        return [value for row in mat for value in row] + h

    row = "[" + ", ".join(["{}"] * n) + "]"
    return expr_kernel(kernel_name("dynamics", n, (frames, inertial)),
                       {"ql": q, "qdl": qd, "gl": gravity},
                       "[" + ", ".join([row] * n) + "], " + row, trace)


def _shift(inertia: tuple, m: float, d: tuple) -> tuple:
    """The 9 entries of inertia + m (|d|^2 I - d d^T): an inertia about a
    point moved to a point at -d from it (parallel-axis theorem)."""
    dx, dy, dz = d
    d2 = dx * dx + dy * dy + dz * dz
    i00, i01, i02, i10, i11, i12, i20, i21, i22 = inertia
    return (i00 + m * (d2 - dx * dx), i01 - m * dx * dy, i02 - m * dx * dz,
            i10 - m * dy * dx, i11 + m * (d2 - dy * dy), i12 - m * dy * dz,
            i20 - m * dz * dx, i21 - m * dz * dy, i22 + m * (d2 - dz * dz))


def dynamics_trace(inertial: tuple[tuple, ...], fk: tuple[list, list, list, list],
                   qd: list, gravity: list) -> tuple[list[list], list]:
    """(M, h) from the link constants ``inertial``, the pose ``fk`` (rot
    9-tuples, pos, joint_axis, joint_origin), ``qd`` and ``gravity``.

    This loop is the source of the generated kernel and runs only when one is
    generated (the tests also run it on floats, as the loop the kernel
    unrolls).  Its sums run left to right; where a 3x3 helper would group a
    sum otherwise, the sum is written out per entry.
    """
    n = len(inertial)
    rot, pos, axes, orig = fk

    # Forward pass (qdd = 0, base acceleration -g), one record per link:
    # mass, world CoM, world inertia R I R^T (all nine entries: the product
    # is not exactly symmetric in floating point), angular velocity, angular
    # acceleration and CoM acceleration.
    bodies = []
    w = al = (0.0, 0.0, 0.0)
    ax, ay, az = (-g for g in gravity)
    for (m, com, inertia), r, p, z, o, qdi in zip(inertial, rot, pos, axes, orig, qd):
        c = _affine(p, r, com)
        world = _mat_mul_t(_mat_mul(r, inertia), r)
        zq = tuple(zi * qdi for zi in z)
        al = _add(al, _cross(w, zq))
        w = _add(w, zq)
        (wx, wy, wz), (alx, aly, alz) = w, al
        # a_com = a_origin + alpha x r + w x (w x r)
        rx, ry, rz = _sub(c, o)
        t1x, t1y, t1z = _cross(w, (rx, ry, rz))
        ac = (ax + aly * rz - alz * ry + wy * t1z - wz * t1y,
              ay + alz * rx - alx * rz + wz * t1x - wx * t1z,
              az + alx * ry - aly * rx + wx * t1y - wy * t1x)
        rx, ry, rz = _sub(p, o)
        t1x, t1y, t1z = _cross(w, (rx, ry, rz))
        ax += aly * rz - alz * ry + wy * t1z - wz * t1y
        ay += alz * rx - alx * rz + wz * t1x - wx * t1z
        az += alx * ry - aly * rx + wx * t1y - wy * t1x
        bodies.append((m, c, world, w, al, ac))
    # Backward Newton-Euler pass for h.
    h = [0.0] * n
    f = nc = (0.0, 0.0, 0.0)
    for i in range(n - 1, -1, -1):
        m, c, world, (wx, wy, wz), al, ac = bodies[i]
        fi = tuple(m * a for a in ac)
        # I alpha + w x (I w), plus the moments of fi and of the child's force
        iwx, iwy, iwz = _mat_vec(world, (wx, wy, wz))
        tx, ty, tz = _mat_vec(world, al)
        t = (tx + wy * iwz - wz * iwy, ty + wz * iwx - wx * iwz, tz + wx * iwy - wy * iwx)
        (tx, ty, tz), (rx, ry, rz), (fx, fy, fz), (ncx, ncy, ncz) = (
            _add(t, _cross(_sub(c, orig[i]), fi)), _sub(pos[i], orig[i]), f, nc)
        nc = (tx + (ncx + ry * fz - rz * fy),
              ty + (ncy + rz * fx - rx * fz),
              tz + (ncz + rx * fy - ry * fx))
        zx, zy, zz = axes[i]
        h[i] = zx * nc[0] + zy * nc[1] + zz * nc[2]
        f = _add(f, fi)

    # Composite bodies tip-to-base (mass m_acc, CoM k, inertia K about k),
    # each closing column j of M as soon as body j joins the composite.
    mat = [[0.0] * n for _ in range(n)]
    m_acc, k, K = 0.0, (0.0, 0.0, 0.0), None
    for j in range(n - 1, -1, -1):
        m, c, world = bodies[j][:3]
        m_new = m_acc + m
        k_new = tuple((m * ci + m_acc * ki) / m_new for ci, ki in zip(c, k))
        comp = _shift(world, m, _sub(c, k_new))
        if m_acc > 0.0:
            comp = _add(comp, _shift(K, m_acc, _sub(k, k_new)))
        m_acc, k, K = m_new, k_new, comp

        rx, ry, rz = _sub(k, orig[j])
        fjx, fjy, fjz = (m_new * v for v in _cross(axes[j], (rx, ry, rz)))
        njx, njy, njz = _mat_vec(comp, axes[j])
        njx, njy, njz = (njx + ry * fjz - rz * fjy, njy + rz * fjx - rx * fjz,
                         njz + rx * fjy - ry * fjx)
        row_j = mat[j]
        for i in range(j + 1):
            aix, aiy, aiz = axes[i]
            dx, dy, dz = _sub(orig[j], orig[i])
            mij = (
                aix * (njx + dy * fjz - dz * fjy)
                + aiy * (njy + dz * fjx - dx * fjz)
                + aiz * (njz + dx * fjy - dy * fjx)
            )
            mat[i][j] = mij
            row_j[i] = mij
    return mat, h
