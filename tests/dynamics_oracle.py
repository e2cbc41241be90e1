"""Reference numpy rigid-body dynamics for the tests.

The mass matrix by composite-rigid-body accumulation and the bias forces by
a recursive Newton-Euler pass, both on world-frame numpy quantities from
the numpy forward kinematics of ``kinematics_oracle``.
``issf_wbc._fastdyn.joint_dynamics`` is the package's one dynamics kernel;
it must agree with these functions to machine precision.  The energies check the dynamics against physics.
"""

from __future__ import annotations

import numpy as np

from issf_wbc.model import ModelError, RobotModel

from kinematics_oracle import FkResult, forward_kinematics


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.cross has ~30x call overhead for single 3-vectors.
    return np.array([
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ])


def _world_inertials(model: RobotModel, fk: FkResult):
    """Per-link world CoM positions and world-frame inertia about CoM."""
    n = model.n_dof
    coms = np.empty((n, 3))
    inertias = np.empty((n, 3, 3))
    for i in range(n):
        link = model.links[i]
        coms[i] = fk.link_point(i, link.com)
        inertias[i] = fk.rot[i] @ link.inertia @ fk.rot[i].T
    return coms, inertias


def _shift_inertia(inertia: np.ndarray, mass: float, d: np.ndarray) -> np.ndarray:
    """Parallel-axis shift of an inertia from the CoM to CoM + d."""
    return inertia + mass * (float(d @ d) * np.eye(3) - np.outer(d, d))


def mass_matrix(model: RobotModel, q: np.ndarray, fk: FkResult | None = None) -> np.ndarray:
    """Generalized inertia matrix via composite-rigid-body accumulation."""
    q = model.check_q(q)
    if fk is None:
        fk = forward_kinematics(model, q)
    n = model.n_dof
    coms, inertias = _world_inertials(model, fk)

    # Composite body i..n-1: mass, CoM, inertia about composite CoM.
    comp_m = np.empty(n)
    comp_c = np.empty((n, 3))
    comp_i = np.empty((n, 3, 3))
    m_acc = 0.0
    c_acc = np.zeros(3)
    i_acc = np.zeros((3, 3))
    for i in range(n - 1, -1, -1):
        m_new = m_acc + model.links[i].mass
        c_new = (model.links[i].mass * coms[i] + m_acc * c_acc) / m_new
        i_new = _shift_inertia(inertias[i], model.links[i].mass, coms[i] - c_new)
        if m_acc > 0.0:
            i_new = i_new + _shift_inertia(i_acc, m_acc, c_acc - c_new)
        comp_m[i], comp_c[i], comp_i[i] = m_new, c_new, i_new
        m_acc, c_acc, i_acc = m_new, c_new, i_new

    mat = np.zeros((n, n))
    for j in range(n):
        z = fk.joint_axis[j]
        r = comp_c[j] - fk.joint_origin[j]
        force = comp_m[j] * _cross(z, r)
        torque = comp_i[j] @ z + _cross(r, force)
        for i in range(j + 1):
            arm = fk.joint_origin[j] - fk.joint_origin[i]
            mij = fk.joint_axis[i] @ (torque + _cross(arm, force))
            mat[i, j] = mij
            mat[j, i] = mij
    return mat


def bias_forces(
    model: RobotModel,
    q: np.ndarray,
    qd: np.ndarray,
    gravity: np.ndarray,
    fk: FkResult | None = None,
) -> np.ndarray:
    """Coriolis, centrifugal and gravity torques h(q, qd) (Newton-Euler, qdd = 0).

    Gravity enters through the standard base-acceleration trick a_0 = -g.
    """
    q = model.check_q(q)
    qd = np.asarray(qd, dtype=float)
    if qd.shape != (model.n_dof,):
        raise ModelError(f"qd has shape {qd.shape}, expected ({model.n_dof},)")
    if fk is None:
        fk = forward_kinematics(model, q)
    n = model.n_dof
    coms, inertias = _world_inertials(model, fk)

    omega = np.zeros(3)
    alpha = np.zeros(3)
    a_origin = -np.asarray(gravity, dtype=float)
    acc_com = np.empty((n, 3))
    omegas = np.empty((n, 3))
    alphas = np.empty((n, 3))
    for i in range(n):
        z = fk.joint_axis[i]
        zqd = z * qd[i]
        alpha = alpha + _cross(omega, zqd)
        omega = omega + zqd
        r_com = coms[i] - fk.joint_origin[i]
        acc_com[i] = a_origin + _cross(alpha, r_com) + _cross(omega, _cross(omega, r_com))
        r_frame = fk.pos[i] - fk.joint_origin[i]
        a_origin = a_origin + _cross(alpha, r_frame) + _cross(omega, _cross(omega, r_frame))
        omegas[i], alphas[i] = omega, alpha

    h = np.zeros(n)
    f_child = np.zeros(3)
    n_child = np.zeros(3)
    for i in range(n - 1, -1, -1):
        f_inertial = model.links[i].mass * acc_com[i]
        torque = (
            inertias[i] @ alphas[i]
            + _cross(omegas[i], inertias[i] @ omegas[i])
            + _cross(coms[i] - fk.joint_origin[i], f_inertial)
            + n_child
            + _cross(fk.pos[i] - fk.joint_origin[i], f_child)
        )
        h[i] = fk.joint_axis[i] @ torque
        f_child = f_child + f_inertial
        n_child = torque  # moment about joint i origin, the parent's child point
    return h


def kinetic_energy(model: RobotModel, q: np.ndarray, qd: np.ndarray) -> float:
    qd = np.asarray(qd, dtype=float)
    return 0.5 * float(qd @ mass_matrix(model, q) @ qd)


def potential_energy(model: RobotModel, q: np.ndarray, gravity: np.ndarray) -> float:
    fk = forward_kinematics(model, q)
    coms, _ = _world_inertials(model, fk)
    g = np.asarray(gravity, dtype=float)
    return -float(sum(model.links[i].mass * (g @ coms[i]) for i in range(model.n_dof)))
