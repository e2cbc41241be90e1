"""The world-frame dynamics loop the package's dynamics kernel unrolled
before it ran in joint frames.

``dynamics_trace`` is the Newton-Euler bias pass and the composite-rigid-body
mass-matrix pass on world-frame quantities, given the pose from forward
kinematics (``kinematics_oracle.fk_loop``); ``_shift`` is its parallel-axis
shift.  ``issf_wbc._fastdyn.joint_dynamics`` must agree with it to
1e-12 x max(1, largest |entry|).
"""

from __future__ import annotations

from issf_wbc.model import _add, _affine, _cross, _mat_mul, _mat_vec


def _mat_mul_t(a: tuple, b: tuple) -> tuple:
    """A B^T."""
    return tuple(a[i] * b[j] + a[i + 1] * b[j + 1] + a[i + 2] * b[j + 2]
                 for i in (0, 3, 6) for j in (0, 3, 6))


def _sub(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


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

    It runs on floats.  Its sums run left to right; where a 3x3 helper
    would group a sum otherwise, the sum is written out per entry.
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
