"""Reference copy of the nested-loop joint-space dynamics kernel.

This is the kernel ``issf_wbc._fastdyn.joint_dynamics`` was before it was
written out as straight-line float code: comprehensions for R I R^T, a
separate composite-body pass with the ``shifted`` helper, and a mass matrix
filled into ``np.zeros``, all in world coordinates.  ``tests/test_fastdyn.py``
asserts that the joint-frame kernel agrees with it to
``conftest.DYNAMICS_RTOL``.
"""

from __future__ import annotations

from weakref import WeakKeyDictionary

import numpy as np

from issf_wbc.model import RobotModel

_CACHE: "WeakKeyDictionary[RobotModel, tuple]" = WeakKeyDictionary()


def _constants(model: RobotModel) -> tuple:
    cached = _CACHE.get(model)
    if cached is None:
        inertial = [
            (float(link.mass), link.com.tolist(), np.asarray(link.inertia).tolist())
            for link in model.links
        ]
        frames = []
        for link, joint in zip(model.links, model.joints):
            rfix = link.origin_rotation
            frames.append((
                tuple(float(v) for v in joint.axis),
                tuple(float(v) for v in link.origin_xyz),
                None if np.array_equal(rfix, np.eye(3)) else rfix.tolist(),
            ))
        cached = (inertial, frames)
        _CACHE[model] = cached
    return cached


def _fk_scalar(model: RobotModel, q) -> tuple[list, list, list, list]:
    """Scalar forward kinematics: (rot, pos, joint_axis, joint_origin) as lists."""
    from math import cos, sin

    _, frames = _constants(model)
    ql = [float(v) for v in q]
    rot, pos, axes, orig = [], [], [], []
    rp = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    pp = (0.0, 0.0, 0.0)
    for i, (axis, xyz, rfix) in enumerate(frames):
        x, y, z = axis
        c = cos(ql[i])
        s = sin(ql[i])
        v = 1.0 - c
        q00 = x * x * v + c
        q01 = x * y * v - z * s
        q02 = x * z * v + y * s
        q10 = x * y * v + z * s
        q11 = y * y * v + c
        q12 = y * z * v - x * s
        q20 = x * z * v - y * s
        q21 = y * z * v + x * s
        q22 = z * z * v + c
        (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = rp
        axes.append((a00 * x + a01 * y + a02 * z,
                     a10 * x + a11 * y + a12 * z,
                     a20 * x + a21 * y + a22 * z))
        orig.append(pp)
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
        pp = (pp[0] + j00 * ox + j01 * oy + j02 * oz,
              pp[1] + j10 * ox + j11 * oy + j12 * oz,
              pp[2] + j20 * ox + j21 * oy + j22 * oz)
        if rfix is None:
            rp = ((j00, j01, j02), (j10, j11, j12), (j20, j21, j22))
        else:
            f = rfix
            rp = (
                (j00 * f[0][0] + j01 * f[1][0] + j02 * f[2][0],
                 j00 * f[0][1] + j01 * f[1][1] + j02 * f[2][1],
                 j00 * f[0][2] + j01 * f[1][2] + j02 * f[2][2]),
                (j10 * f[0][0] + j11 * f[1][0] + j12 * f[2][0],
                 j10 * f[0][1] + j11 * f[1][1] + j12 * f[2][1],
                 j10 * f[0][2] + j11 * f[1][2] + j12 * f[2][2]),
                (j20 * f[0][0] + j21 * f[1][0] + j22 * f[2][0],
                 j20 * f[0][1] + j21 * f[1][1] + j22 * f[2][1],
                 j20 * f[0][2] + j21 * f[1][2] + j22 * f[2][2]),
            )
        rot.append(rp)
        pos.append(pp)
    return rot, pos, axes, orig


def joint_dynamics_reference(
    model: RobotModel,
    q: np.ndarray,
    qd: np.ndarray,
    gravity: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(M, h) in one pass."""
    n = model.n_dof
    rot, pos, axes, orig = _fk_scalar(model, q)
    qdl = [float(v) for v in qd]
    gx, gy, gz = (float(v) for v in gravity)
    consts = _constants(model)[0]

    # World-frame CoM and inertia per link.
    com_w = []
    inertia_w = []
    masses = []
    for i in range(n):
        m, com, ine = consts[i]
        r = rot[i]
        cx, cy, cz = com
        px, py, pz = pos[i]
        com_w.append((
            px + r[0][0] * cx + r[0][1] * cy + r[0][2] * cz,
            py + r[1][0] * cx + r[1][1] * cy + r[1][2] * cz,
            pz + r[2][0] * cx + r[2][1] * cy + r[2][2] * cz,
        ))
        # R I R^T
        a = [[r[row][0] * ine[0][col] + r[row][1] * ine[1][col] + r[row][2] * ine[2][col]
              for col in range(3)] for row in range(3)]
        inertia_w.append(tuple(
            tuple(a[row][0] * r[col][0] + a[row][1] * r[col][1] + a[row][2] * r[col][2]
                  for col in range(3))
            for row in range(3)
        ))
        masses.append(m)

    # Forward velocity/acceleration pass (qdd = 0, base acceleration -g).
    wx = wy = wz = 0.0
    alx = aly = alz = 0.0
    ax, ay, az = -gx, -gy, -gz
    omegas = []
    alphas = []
    acc_com = []
    for i in range(n):
        zx, zy, zz = axes[i]
        qdi = qdl[i]
        zqx, zqy, zqz = zx * qdi, zy * qdi, zz * qdi
        alx += wy * zqz - wz * zqy
        aly += wz * zqx - wx * zqz
        alz += wx * zqy - wy * zqx
        wx += zqx
        wy += zqy
        wz += zqz
        ox, oy, oz = orig[i]
        cx, cy, cz = com_w[i]
        rx, ry, rz = cx - ox, cy - oy, cz - oz
        # a_com = a_origin + alpha x r + w x (w x r)
        t1x = wy * rz - wz * ry
        t1y = wz * rx - wx * rz
        t1z = wx * ry - wy * rx
        acc_com.append((
            ax + aly * rz - alz * ry + wy * t1z - wz * t1y,
            ay + alz * rx - alx * rz + wz * t1x - wx * t1z,
            az + alx * ry - aly * rx + wx * t1y - wy * t1x,
        ))
        px, py, pz = pos[i]
        rx, ry, rz = px - ox, py - oy, pz - oz
        t1x = wy * rz - wz * ry
        t1y = wz * rx - wx * rz
        t1z = wx * ry - wy * rx
        ax += aly * rz - alz * ry + wy * t1z - wz * t1y
        ay += alz * rx - alx * rz + wz * t1x - wx * t1z
        az += alx * ry - aly * rx + wx * t1y - wy * t1x
        omegas.append((wx, wy, wz))
        alphas.append((alx, aly, alz))

    # Backward Newton-Euler pass for h.
    h = [0.0] * n
    fx = fy = fz = 0.0
    ncx = ncy = ncz = 0.0
    for i in range(n - 1, -1, -1):
        m = masses[i]
        acx, acy, acz = acc_com[i]
        fix, fiy, fiz = m * acx, m * acy, m * acz
        iw = inertia_w[i]
        alx, aly, alz = alphas[i]
        wx, wy, wz = omegas[i]
        # I alpha + w x (I w)
        iwx = iw[0][0] * wx + iw[0][1] * wy + iw[0][2] * wz
        iwy = iw[1][0] * wx + iw[1][1] * wy + iw[1][2] * wz
        iwz = iw[2][0] * wx + iw[2][1] * wy + iw[2][2] * wz
        tx = iw[0][0] * alx + iw[0][1] * aly + iw[0][2] * alz + wy * iwz - wz * iwy
        ty = iw[1][0] * alx + iw[1][1] * aly + iw[1][2] * alz + wz * iwx - wx * iwz
        tz = iw[2][0] * alx + iw[2][1] * aly + iw[2][2] * alz + wx * iwy - wy * iwx
        ox, oy, oz = orig[i]
        cx, cy, cz = com_w[i]
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

    h_arr = np.array(h)

    # Composite bodies tip-to-base: mass, CoM, inertia about composite CoM.
    comp_m = [0.0] * n
    comp_c = [None] * n
    comp_i = [None] * n
    m_acc = 0.0
    cacc = (0.0, 0.0, 0.0)
    iacc = ((0.0,) * 3,) * 3

    def shifted(ine, mass, dx, dy, dz):
        d2 = dx * dx + dy * dy + dz * dz
        return (
            (ine[0][0] + mass * (d2 - dx * dx), ine[0][1] - mass * dx * dy, ine[0][2] - mass * dx * dz),
            (ine[1][0] - mass * dy * dx, ine[1][1] + mass * (d2 - dy * dy), ine[1][2] - mass * dy * dz),
            (ine[2][0] - mass * dz * dx, ine[2][1] - mass * dz * dy, ine[2][2] + mass * (d2 - dz * dz)),
        )

    for i in range(n - 1, -1, -1):
        m = masses[i]
        m_new = m_acc + m
        cx, cy, cz = com_w[i]
        ncx_, ncy_, ncz_ = (
            (m * cx + m_acc * cacc[0]) / m_new,
            (m * cy + m_acc * cacc[1]) / m_new,
            (m * cz + m_acc * cacc[2]) / m_new,
        )
        i_new = shifted(inertia_w[i], m, cx - ncx_, cy - ncy_, cz - ncz_)
        if m_acc > 0.0:
            i_shift = shifted(iacc, m_acc, cacc[0] - ncx_, cacc[1] - ncy_, cacc[2] - ncz_)
            i_new = tuple(
                tuple(i_new[r][c] + i_shift[r][c] for c in range(3)) for r in range(3)
            )
        comp_m[i], comp_c[i], comp_i[i] = m_new, (ncx_, ncy_, ncz_), i_new
        m_acc, cacc, iacc = m_new, (ncx_, ncy_, ncz_), i_new

    mat = np.zeros((n, n))
    for j in range(n):
        zx, zy, zz = axes[j]
        ojx, ojy, ojz = orig[j]
        ccx, ccy, ccz = comp_c[j]
        rx, ry, rz = ccx - ojx, ccy - ojy, ccz - ojz
        mj = comp_m[j]
        fjx = mj * (zy * rz - zz * ry)
        fjy = mj * (zz * rx - zx * rz)
        fjz = mj * (zx * ry - zy * rx)
        ij = comp_i[j]
        njx = ij[0][0] * zx + ij[0][1] * zy + ij[0][2] * zz + ry * fjz - rz * fjy
        njy = ij[1][0] * zx + ij[1][1] * zy + ij[1][2] * zz + rz * fjx - rx * fjz
        njz = ij[2][0] * zx + ij[2][1] * zy + ij[2][2] * zz + rx * fjy - ry * fjx
        for i in range(j + 1):
            aix, aiy, aiz = axes[i]
            oix, oiy, oiz = orig[i]
            dx, dy, dz = ojx - oix, ojy - oiy, ojz - oiz
            mij = (
                aix * (njx + dy * fjz - dz * fjy)
                + aiy * (njy + dz * fjx - dx * fjz)
                + aiz * (njz + dx * fjy - dy * fjx)
            )
            mat[i, j] = mij
            mat[j, i] = mij
    return mat, h_arr
