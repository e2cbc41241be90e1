"""Joint-space dynamics on plain Python floats.

numpy's per-call overhead dominates the recursive dynamics at n <= 7, so
the Newton-Euler bias pass and the composite-rigid-body mass-matrix pass run
here on floats, written out as named scalars, on a pose (``FkResult``) the
caller already computed, so the torque QP reuses its control cycle's pose.
``joint_dynamics`` must agree to machine precision with the numpy reference
``mass_matrix`` / ``bias_forces`` in ``tests/dynamics_oracle.py``; the test
suite cross-checks that on random chains.  It takes and returns lists, so
the plant's substep runs on floats throughout; the torque QP turns its
result into arrays.
"""

from __future__ import annotations

from weakref import WeakKeyDictionary

import numpy as np

from .model import FkResult, RobotModel

_CACHE: "WeakKeyDictionary[RobotModel, list]" = WeakKeyDictionary()


def _constants(model: RobotModel) -> list[tuple]:
    """Per-link (mass, com, inertia 9-tuple)."""
    inertial = _CACHE.get(model)
    if inertial is None:
        inertial = [
            (float(link.mass), tuple(link.com.tolist()),
             tuple(np.asarray(link.inertia).ravel().tolist()))
            for link in model.links
        ]
        _CACHE[model] = inertial
    return inertial


def joint_dynamics(
    model: RobotModel,
    fk: FkResult,
    qd: list[float],
    gravity: list[float],
) -> tuple[list[list[float]], list[float]]:
    """(M, h) in one pass: mass matrix and bias forces at (q, qd), ``fk`` the pose at q.

    ``qd`` and ``gravity`` are lists of floats; M comes back as a list of
    rows and h as a list.
    """
    n = model.n_dof
    rot, pos, axes, orig = fk.rot, fk.pos, fk.joint_axis, fk.joint_origin
    gx, gy, gz = gravity
    inertial = _constants(model)

    # Forward pass (qdd = 0, base acceleration -g), one record per link:
    # mass, world CoM, world inertia R I R^T (all nine entries: the product
    # is not exactly symmetric in floating point), angular velocity, angular
    # acceleration and CoM acceleration.
    bodies = []
    wx = wy = wz = 0.0
    alx = aly = alz = 0.0
    ax, ay, az = -gx, -gy, -gz
    for i in range(n):
        m, (lx, ly, lz), (i00, i01, i02, i10, i11, i12, i20, i21, i22) = inertial[i]
        r00, r01, r02, r10, r11, r12, r20, r21, r22 = rot[i]
        px, py, pz = pos[i]
        cx = px + r00 * lx + r01 * ly + r02 * lz
        cy = py + r10 * lx + r11 * ly + r12 * lz
        cz = pz + r20 * lx + r21 * ly + r22 * lz
        a00 = r00 * i00 + r01 * i10 + r02 * i20
        a01 = r00 * i01 + r01 * i11 + r02 * i21
        a02 = r00 * i02 + r01 * i12 + r02 * i22
        a10 = r10 * i00 + r11 * i10 + r12 * i20
        a11 = r10 * i01 + r11 * i11 + r12 * i21
        a12 = r10 * i02 + r11 * i12 + r12 * i22
        a20 = r20 * i00 + r21 * i10 + r22 * i20
        a21 = r20 * i01 + r21 * i11 + r22 * i21
        a22 = r20 * i02 + r21 * i12 + r22 * i22
        w00 = a00 * r00 + a01 * r01 + a02 * r02
        w01 = a00 * r10 + a01 * r11 + a02 * r12
        w02 = a00 * r20 + a01 * r21 + a02 * r22
        w10 = a10 * r00 + a11 * r01 + a12 * r02
        w11 = a10 * r10 + a11 * r11 + a12 * r12
        w12 = a10 * r20 + a11 * r21 + a12 * r22
        w20 = a20 * r00 + a21 * r01 + a22 * r02
        w21 = a20 * r10 + a21 * r11 + a22 * r12
        w22 = a20 * r20 + a21 * r21 + a22 * r22

        zx, zy, zz = axes[i]
        qdi = qd[i]
        zqx, zqy, zqz = zx * qdi, zy * qdi, zz * qdi
        alx += wy * zqz - wz * zqy
        aly += wz * zqx - wx * zqz
        alz += wx * zqy - wy * zqx
        wx += zqx
        wy += zqy
        wz += zqz
        ox, oy, oz = orig[i]
        rx, ry, rz = cx - ox, cy - oy, cz - oz
        # a_com = a_origin + alpha x r + w x (w x r)
        t1x = wy * rz - wz * ry
        t1y = wz * rx - wx * rz
        t1z = wx * ry - wy * rx
        acx = ax + aly * rz - alz * ry + wy * t1z - wz * t1y
        acy = ay + alz * rx - alx * rz + wz * t1x - wx * t1z
        acz = az + alx * ry - aly * rx + wx * t1y - wy * t1x
        rx, ry, rz = px - ox, py - oy, pz - oz
        t1x = wy * rz - wz * ry
        t1y = wz * rx - wx * rz
        t1z = wx * ry - wy * rx
        ax += aly * rz - alz * ry + wy * t1z - wz * t1y
        ay += alz * rx - alx * rz + wz * t1x - wx * t1z
        az += alx * ry - aly * rx + wx * t1y - wy * t1x
        bodies.append((m, cx, cy, cz, w00, w01, w02, w10, w11, w12, w20, w21, w22,
                       wx, wy, wz, alx, aly, alz, acx, acy, acz))

    # Backward Newton-Euler pass for h.
    h = [0.0] * n
    fx = fy = fz = 0.0
    ncx = ncy = ncz = 0.0
    for i in range(n - 1, -1, -1):
        (m, cx, cy, cz, w00, w01, w02, w10, w11, w12, w20, w21, w22,
         wx, wy, wz, alx, aly, alz, acx, acy, acz) = bodies[i]
        fix, fiy, fiz = m * acx, m * acy, m * acz
        # I alpha + w x (I w)
        iwx = w00 * wx + w01 * wy + w02 * wz
        iwy = w10 * wx + w11 * wy + w12 * wz
        iwz = w20 * wx + w21 * wy + w22 * wz
        tx = w00 * alx + w01 * aly + w02 * alz + wy * iwz - wz * iwy
        ty = w10 * alx + w11 * aly + w12 * alz + wz * iwx - wx * iwz
        tz = w20 * alx + w21 * aly + w22 * alz + wx * iwy - wy * iwx
        ox, oy, oz = orig[i]
        rx, ry, rz = cx - ox, cy - oy, cz - oz
        tx += ry * fiz - rz * fiy
        ty += rz * fix - rx * fiz
        tz += rx * fiy - ry * fix
        px, py, pz = pos[i]
        rx, ry, rz = px - ox, py - oy, pz - oz
        tx += ncx + ry * fz - rz * fy
        ty += ncy + rz * fx - rx * fz
        tz += ncz + rx * fy - ry * fx
        zx, zy, zz = axes[i]
        h[i] = zx * tx + zy * ty + zz * tz
        fx += fix
        fy += fiy
        fz += fiz
        ncx, ncy, ncz = tx, ty, tz

    # Composite bodies tip-to-base (mass m_acc, CoM k, inertia K about k),
    # each closing column j of M as soon as body j joins the composite.
    mat = [[0.0] * n for _ in range(n)]
    m_acc = 0.0
    kx = ky = kz = 0.0
    k00 = k01 = k02 = k10 = k11 = k12 = k20 = k21 = k22 = 0.0
    for j in range(n - 1, -1, -1):
        m, cx, cy, cz, w00, w01, w02, w10, w11, w12, w20, w21, w22 = bodies[j][:13]
        m_new = m_acc + m
        nx = (m * cx + m_acc * kx) / m_new
        ny = (m * cy + m_acc * ky) / m_new
        nz = (m * cz + m_acc * kz) / m_new
        dx, dy, dz = cx - nx, cy - ny, cz - nz
        d2 = dx * dx + dy * dy + dz * dz
        c00 = w00 + m * (d2 - dx * dx)
        c01 = w01 - m * dx * dy
        c02 = w02 - m * dx * dz
        c10 = w10 - m * dy * dx
        c11 = w11 + m * (d2 - dy * dy)
        c12 = w12 - m * dy * dz
        c20 = w20 - m * dz * dx
        c21 = w21 - m * dz * dy
        c22 = w22 + m * (d2 - dz * dz)
        if m_acc > 0.0:
            dx, dy, dz = kx - nx, ky - ny, kz - nz
            d2 = dx * dx + dy * dy + dz * dz
            c00 += k00 + m_acc * (d2 - dx * dx)
            c01 += k01 - m_acc * dx * dy
            c02 += k02 - m_acc * dx * dz
            c10 += k10 - m_acc * dy * dx
            c11 += k11 + m_acc * (d2 - dy * dy)
            c12 += k12 - m_acc * dy * dz
            c20 += k20 - m_acc * dz * dx
            c21 += k21 - m_acc * dz * dy
            c22 += k22 + m_acc * (d2 - dz * dz)
        m_acc, kx, ky, kz = m_new, nx, ny, nz
        k00, k01, k02, k10, k11, k12, k20, k21, k22 = c00, c01, c02, c10, c11, c12, c20, c21, c22

        zx, zy, zz = axes[j]
        ojx, ojy, ojz = orig[j]
        rx, ry, rz = nx - ojx, ny - ojy, nz - ojz
        fjx = m_new * (zy * rz - zz * ry)
        fjy = m_new * (zz * rx - zx * rz)
        fjz = m_new * (zx * ry - zy * rx)
        njx = c00 * zx + c01 * zy + c02 * zz + ry * fjz - rz * fjy
        njy = c10 * zx + c11 * zy + c12 * zz + rz * fjx - rx * fjz
        njz = c20 * zx + c21 * zy + c22 * zz + rx * fjy - ry * fjx
        row_j = mat[j]
        for i in range(j + 1):
            aix, aiy, aiz = axes[i]
            oix, oiy, oiz = orig[i]
            dx, dy, dz = ojx - oix, ojy - oiy, ojz - oiz
            mij = (
                aix * (njx + dy * fjz - dz * fjy)
                + aiy * (njy + dz * fjx - dx * fjz)
                + aiz * (njz + dx * fjy - dy * fjx)
            )
            mat[i][j] = mij
            row_j[i] = mij
    return mat, h
