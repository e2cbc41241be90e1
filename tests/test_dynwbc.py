import dataclasses
import math

import numpy as np
import pytest

from issf_wbc.dynwbc import (
    ContactBlock,
    DynWbcInfeasibleError,
    DynWbcWeights,
    motor_torque,
    safe_acceleration,
    solve_dynwbc,
)
from issf_wbc.model import JointState
from issf_wbc.qpsolver import QpProblem, QpSolver
from issf_wbc.safety import AccelRows, BarrierKind

from conftest import dynamics_arrays, enumerate_qp, random_chain, two_link_planar

GRAVITY = np.array([0.0, 0.0, -9.81])


class TestSafeAcceleration:
    def test_zero_error_zero_acceleration(self, rng):
        q = rng.normal(size=3)
        qd = rng.normal(size=3)
        state = JointState(q=q, qd=qd)
        out = safe_acceleration(q, qd, state, DynWbcWeights().gains(3))
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_direct_substitution(self):
        # Kp = 100 I, Kd = 20 I, position error 0.01 rad, zero velocity error
        weights = DynWbcWeights(kp_dyn=100.0, kd_dyn=20.0)
        state = JointState(q=np.zeros(1), qd=np.zeros(1))
        out = safe_acceleration(np.array([0.01]), np.zeros(1), state, weights.gains(1))
        assert out[0] == pytest.approx(1.0)

    def test_step_response_no_overshoot(self):
        # closed 1-dof double integrator with (100, 20): critically damped
        kp, kd = 100.0, 20.0
        q, qd = 0.0, 0.0
        target = 1.0
        dt = 1e-4
        peak = 0.0
        for _ in range(100000):
            qdd = kp * (target - q) + kd * (0.0 - qd)
            qd += qdd * dt
            q += qd * dt
            peak = max(peak, q)
        assert q == pytest.approx(1.0, abs=1e-3)
        assert peak <= 1.05

    def test_vector_gains(self):
        weights = DynWbcWeights(kp_dyn=np.array([100.0, 50.0]), kd_dyn=0.0)
        state = JointState(q=np.zeros(2), qd=np.zeros(2))
        out = safe_acceleration(np.array([0.01, 0.01]), np.zeros(2), state, weights.gains(2))
        np.testing.assert_allclose(out, [1.0, 0.5])


class TestSolveDynWbc:
    def test_unconstrained_reproduces_inverse_dynamics(self, rng):
        # w_tau = w_M = 0, no contacts: qdd = qdd_safe and tau = M qdd + h
        model = random_chain(rng, 4)
        state = JointState(q=rng.uniform(-1, 1, 4), qd=rng.uniform(-1, 1, 4))
        qdd_safe = rng.normal(size=4)
        weights = DynWbcWeights(w_tau=0.0, w_M=0.0)
        result = solve_dynwbc(model, state, qdd_safe, None, None, weights,
                              np.zeros(4), QpSolver(), GRAVITY)
        mass, bias = dynamics_arrays(model, state.q, state.qd, GRAVITY)
        np.testing.assert_allclose(result.qddot_opt, qdd_safe, atol=1e-8)
        np.testing.assert_allclose(result.tau_opt, mass @ qdd_safe + bias, atol=1e-8)
        assert result.dynamics_residual < 1e-8

    def test_gravity_compensation_at_rest(self, rng):
        model = random_chain(rng, 3)
        state = JointState(q=rng.uniform(-1, 1, 3), qd=np.zeros(3))
        weights = DynWbcWeights(w_tau=0.0, w_M=0.0)
        result = solve_dynwbc(model, state, np.zeros(3), None, None, weights,
                              np.zeros(3), QpSolver(), GRAVITY)
        _, bias = dynamics_arrays(model, state.q, np.zeros(3), GRAVITY)
        np.testing.assert_allclose(result.tau_opt, bias, atol=1e-8)

    def test_dynamics_residual_with_default_weights(self, rng):
        for _ in range(10):
            model = random_chain(rng, int(rng.integers(2, 6)))
            n = model.n_dof
            state = JointState(q=rng.uniform(-1, 1, n), qd=rng.uniform(-1, 1, n))
            result = solve_dynwbc(model, state, rng.normal(size=n), None, None,
                                  DynWbcWeights(), rng.normal(size=n), QpSolver(),
                                  GRAVITY)
            assert result.dynamics_residual < 1e-8

    def test_planted_contact_block_matches_enumeration(self, rng):
        # synthetic 6-dof problem with a feasible friction-pyramid contact
        model = random_chain(rng, 6)
        state = JointState(q=rng.uniform(-1, 1, 6), qd=rng.uniform(-0.5, 0.5, 6))
        j_c = rng.normal(size=(3, 6))
        mu = 0.6
        cone = np.array([
            [1.0, 0.0, -mu],
            [-1.0, 0.0, -mu],
            [0.0, 1.0, -mu],
            [0.0, -1.0, -mu],
            [0.0, 0.0, -1.0],
        ])
        fc_des = np.array([1.0, -0.5, 30.0])      # strictly inside the cone
        contact = ContactBlock(J_c=j_c, U=cone, F_c_des=fc_des)
        weights = DynWbcWeights(w_c=0.5, w_tau=1e-3, w_M=1e-4)
        qdd_safe = rng.normal(size=6)
        result = solve_dynwbc(model, state, qdd_safe, contact, None, weights,
                              np.zeros(6), QpSolver(), GRAVITY)
        mass, bias = dynamics_arrays(model, state.q, state.qd, GRAVITY)
        nz = 6 + 3 + 6
        H = np.zeros((nz, nz))
        H[:6, :6] = 2 * (weights.w_qdd * np.eye(6) + weights.w_M * mass)
        H[6:9, 6:9] = 2 * weights.w_c * np.eye(3)
        H[9:, 9:] = 2 * weights.w_tau * np.eye(6)
        g = np.concatenate([-2 * weights.w_qdd * qdd_safe, -2 * weights.w_c * fc_des,
                            np.zeros(6)])
        a_eq = np.zeros((6, nz))
        a_eq[:, :6] = mass
        a_eq[:, 6:9] = -j_c.T
        a_eq[:, 9:] = -np.eye(6)
        a_ineq = np.zeros((5, nz))
        a_ineq[:, 6:9] = -cone
        problem = QpProblem(H=H, g=g, A_ineq=a_ineq, b_ineq=np.zeros(5))
        oracle = enumerate_qp(problem, A_eq=a_eq, b_eq=-bias)
        assert oracle is not None
        z = np.concatenate([result.qddot_opt, result.fc_opt, result.tau_opt])
        np.testing.assert_allclose(z, oracle[1], atol=1e-6)
        # and the cone actually holds
        assert np.all(cone @ result.fc_opt <= 1e-10)

    def test_torque_limits_and_ecbf_rows_match_three_block_enumeration(self, rng):
        # The QP over [qdd, F_c] against the QP it replaces, over [qdd, F_c, tau]
        # with the equations of motion as equality rows, solved by enumeration.
        weights = DynWbcWeights(w_c=0.5, w_tau=1e-3, w_M=1e-4)
        cone = np.array([[1.0, -0.6], [-1.0, -0.6], [0.0, -1.0]])
        limited = 0
        for n in (2, 3, 4):
            for with_contact in (False, True):
                chain = random_chain(rng, n)
                state = JointState(q=rng.uniform(-1, 1, n), qd=rng.uniform(-0.5, 0.5, n))
                mass, bias = dynamics_arrays(chain, state.q, state.qd, GRAVITY)
                tau_max = np.abs(bias) + rng.uniform(0.5, 2.0, n)
                joints = tuple(dataclasses.replace(j, tau_max=float(t))
                               for j, t in zip(chain.joints, tau_max))
                model = dataclasses.replace(chain, joints=joints)
                k = 2 if with_contact else 0
                contact = None
                if with_contact:
                    contact = ContactBlock(J_c=rng.normal(size=(k, n)), U=cone,
                                           F_c_des=np.array([0.5, 10.0]))
                rows = AccelRows(keys=[(BarrierKind.JOINT_LIMIT_MIN, "q0"),
                                       (BarrierKind.JOINT_LIMIT_MIN, "q1")],
                                 grad=rng.normal(size=(2, n)), rhs=rng.normal(size=2),
                                 h_e=np.zeros(2))
                qdd_safe = rng.normal(size=n) * 20.0
                tau_prev = rng.normal(size=n)
                result = solve_dynwbc(model, state, qdd_safe, contact, rows, weights,
                                      tau_prev, QpSolver(), GRAVITY)

                nz = 2 * n + k
                H = np.zeros((nz, nz))
                H[:n, :n] = 2 * (weights.w_qdd * np.eye(n) + weights.w_M * mass)
                H[n:n + k, n:n + k] = 2 * weights.w_c * np.eye(k)
                H[n + k:, n + k:] = 2 * weights.w_tau * np.eye(n)
                g = np.zeros(nz)
                g[:n] = -2 * weights.w_qdd * qdd_safe
                g[n + k:] = -2 * weights.w_tau * tau_prev
                a_eq = np.zeros((n, nz))
                a_eq[:, :n] = mass
                a_eq[:, n + k:] = -np.eye(n)
                a_ineq, b_ineq = [], []
                if with_contact:
                    g[n:n + k] = -2 * weights.w_c * contact.F_c_des
                    a_eq[:, n:n + k] = -contact.J_c.T
                    for u_row in cone:
                        a_ineq.append(np.concatenate([np.zeros(n), -u_row, np.zeros(n)]))
                        b_ineq.append(0.0)
                for grad, rhs in zip(rows.grad, rows.rhs):
                    a_ineq.append(np.concatenate([grad, np.zeros(k + n)]))
                    b_ineq.append(rhs)
                for i in range(n):
                    unit = np.zeros(nz)
                    unit[n + k + i] = 1.0
                    a_ineq += [unit, -unit]
                    b_ineq += [-tau_max[i], -tau_max[i]]
                problem = QpProblem(H=H, g=g, A_ineq=np.array(a_ineq),
                                    b_ineq=np.array(b_ineq))
                oracle = enumerate_qp(problem, A_eq=a_eq, b_eq=-bias)
                assert oracle is not None
                z = np.concatenate([result.qddot_opt, result.fc_opt, result.tau_opt])
                np.testing.assert_allclose(z, oracle[1], atol=1e-6)
                assert np.all(np.abs(result.tau_opt) <= tau_max + 1e-9)
                limited += int(np.any(np.abs(result.tau_opt) > tau_max - 1e-9))
        assert limited >= 4     # most cases press against a torque limit

    def test_torque_limits_enforced(self, rng):
        model = two_link_planar(0.4, 0.4)
        # tiny limits force the QP to trade acceleration for feasibility
        joints = tuple(dataclasses.replace(j, tau_max=1.0) for j in model.joints)
        model = dataclasses.replace(model, joints=joints)
        state = JointState(q=np.array([0.3, -0.5]), qd=np.zeros(2))
        result = solve_dynwbc(model, state, np.array([50.0, 50.0]), None, None,
                              DynWbcWeights(), np.zeros(2), QpSolver(), GRAVITY)
        assert np.all(np.abs(result.tau_opt) <= 1.0 + 1e-9)
        assert result.dynamics_residual < 1e-8

    def test_infeasible_surfaced_with_active_rows(self):
        model = two_link_planar()
        state = JointState(q=np.zeros(2), qd=np.zeros(2))
        rows = AccelRows(keys=[(BarrierKind.JOINT_LIMIT_MIN, "q0"),
                               (BarrierKind.JOINT_LIMIT_MAX, "q0")],
                         grad=np.array([[1.0, 0.0], [-1.0, 0.0]]), rhs=np.array([1.0, 1.0]),
                         h_e=np.zeros(2))
        with pytest.raises(DynWbcInfeasibleError):
            solve_dynwbc(model, state, np.zeros(2), None, rows, DynWbcWeights(),
                         np.zeros(2), QpSolver(), GRAVITY)

    def test_torque_smoothing_settles(self, rng):
        # with w_tau > 0 and constant inputs the command converges monotonically
        model = random_chain(rng, 3)
        state = JointState(q=rng.uniform(-1, 1, 3), qd=np.zeros(3))
        weights = DynWbcWeights(w_tau=0.5)
        solver = QpSolver()
        tau_prev = rng.normal(size=3) * 5
        qdd_safe = rng.normal(size=3)
        deltas = []
        for _ in range(40):
            result = solve_dynwbc(model, state, qdd_safe, None, None, weights,
                                  tau_prev, solver, GRAVITY)
            deltas.append(np.linalg.norm(result.tau_opt - tau_prev))
            tau_prev = result.tau_opt
        for a, b in zip(deltas, deltas[1:]):
            assert b <= a + 1e-12
        assert deltas[-1] < 1e-6

    def test_ecbf_rows_enter_inequalities(self):
        model = two_link_planar()
        state = JointState(q=np.zeros(2), qd=np.zeros(2))
        row = AccelRows(keys=[(BarrierKind.JOINT_LIMIT_MIN, "q0")],
                        grad=np.array([[1.0, 0.0]]), rhs=np.array([5.0]), h_e=np.ones(1))
        result = solve_dynwbc(model, state, np.zeros(2), None, row,
                              DynWbcWeights(), np.zeros(2), QpSolver(), GRAVITY)
        assert result.qddot_opt[0] >= 5.0 - 1e-8


class TestMotorTorque:
    def test_zero_error_passthrough(self, rng):
        q = rng.normal(size=3)
        qd = rng.normal(size=3)
        tau_opt = rng.normal(size=3)
        tau, clamped = motor_torque(tau_opt, q, qd, JointState(q=q, qd=qd),
                                    DynWbcWeights().gains(3), tau_max=(math.inf,) * 3)
        np.testing.assert_allclose(tau, tau_opt)
        assert not clamped.any()

    def test_direct_substitution(self):
        weights = DynWbcWeights(motor_kp=50.0, motor_kd=0.0)
        state = JointState(q=np.zeros(1), qd=np.zeros(1))
        tau, _ = motor_torque(np.zeros(1), np.array([0.1]), np.zeros(1), state, weights.gains(1),
                              tau_max=(math.inf,))
        assert tau[0] == pytest.approx(5.0)

    def test_saturation_flagged(self):
        weights = DynWbcWeights(motor_kp=50.0, motor_kd=0.0)
        state = JointState(q=np.zeros(1), qd=np.zeros(1))
        tau, clamped = motor_torque(np.array([98.0]), np.array([0.1]), np.zeros(1),
                                    state, weights.gains(1), tau_max=(100.0,))
        assert tau[0] == pytest.approx(100.0)
        assert clamped[0]


def test_weights_validation():
    with pytest.raises(ValueError):
        DynWbcWeights(w_qdd=0.0)
    with pytest.raises(ValueError):
        DynWbcWeights(w_tau=-1.0)
    with pytest.raises(ValueError):
        ContactBlock(J_c=np.zeros((3, 2)), U=np.zeros((4, 2)), F_c_des=np.zeros(3))
