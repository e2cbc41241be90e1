"""Reference torque-QP data: the numpy assembly of H, g, A and b.

The package's ``dynwbc._torque_qp`` computes H, g and the torque limits'
right-hand sides as Python floats, H and g from a kernel generated per size
that sums each entry in a fixed order.  This version builds T = [M, -J_c^T]
and takes every product with numpy, so the two agree to rounding, not bit
for bit.
"""

from __future__ import annotations

import math

import numpy as np

from issf_wbc._fastdyn import joint_dynamics


def torque_qp(model, state, qddot_safe, contact, extra_rows, weights, tau_prev, gravity):
    """(H, g, A, b) of the torque QP as arrays; A and b are None without rows."""
    n = model.n_dof
    k = 0 if contact is None else contact.J_c.shape[0]
    nz = n + k
    mass, bias = joint_dynamics(model, list(state.q), list(state.qd), list(gravity))
    mass, bias = np.array(mass), np.array(bias)
    T = np.empty((n, nz))
    T[:, :n] = mass
    if k:
        T[:, n:] = -contact.J_c.T

    H = 2.0 * weights.w_tau * (T.T @ T)
    g = 2.0 * weights.w_tau * (T.T @ (bias - tau_prev))
    H[:n, :n] += 2.0 * (weights.w_qdd * np.eye(n) + weights.w_M * mass)
    g[:n] -= 2.0 * weights.w_qdd * np.asarray(qddot_safe)
    if k:
        H[n:, n:] += 2.0 * weights.w_c * np.eye(k)
        g[n:] -= 2.0 * weights.w_c * contact.F_c_des

    limited = [i for i, joint in enumerate(model.joints) if math.isfinite(joint.tau_max)]
    tau_max = np.array([model.joints[i].tau_max for i in limited])
    m_c = contact.U.shape[0] if k else 0
    m_e = 0 if extra_rows is None else len(extra_rows.rhs)
    m = m_c + m_e + 2 * len(limited)
    if not m:
        return H, g, None, None
    A = np.zeros((m, nz))
    b = np.zeros(m)
    if m_c:
        A[:m_c, n:] = -contact.U
    if m_e:
        A[m_c:m_c + m_e, :n] = extra_rows.grad
        b[m_c:m_c + m_e] = extra_rows.rhs
    r0 = m_c + m_e
    A[r0::2] = T[limited]
    A[r0 + 1::2] = -T[limited]
    b[r0::2] = -bias[limited] - tau_max
    b[r0 + 1::2] = bias[limited] - tau_max
    return H, g, A, b
