import numpy as np
import pytest

from issf_wbc.kinwbc import Task, prioritized_ik, solve_priority_stack, truncated_pinv
from issf_wbc.model import JointState, forward_kinematics, point_jacobian

from conftest import random_chain, two_link_planar


class TestRecursion:
    def test_identity_jacobian_passthrough(self):
        model = two_link_planar()
        state = JointState(q=np.zeros(2), qd=np.zeros(2))
        xd = np.array([0.3, -0.7])
        task = Task(priority=1, target=np.zeros(2), feedforward=xd, gain=0.0,
                    joint_indices=(0, 1))
        qdot, q_des = prioritized_ik(model, state, forward_kinematics(model, state.q), [task],
                                     dt=5e-4)
        np.testing.assert_allclose(qdot, xd, atol=1e-12)
        np.testing.assert_allclose(q_des, state.q + xd * 5e-4, atol=1e-15)

    def test_two_scalar_tasks_hand_computed(self):
        # J1 = [1 0] target a, J2 = [1 1] target b  ->  qdot = (a, b - a)
        a, b = 0.8, -0.5
        qdot = solve_priority_stack(
            [np.array([[1.0, 0.0]]), np.array([[1.0, 1.0]])],
            [np.array([a]), np.array([b])],
            n_dof=2,
        )
        np.testing.assert_allclose(qdot, [a, b - a], atol=1e-12)

    def test_singular_command_bounded_by_truncation(self):
        # fully stretched two-link arm commanded radially outward
        model = two_link_planar(0.4, 0.4)
        state = JointState(q=np.zeros(2), qd=np.zeros(2))
        xd = np.array([1.0, 0.0, 0.0])   # outward at the singularity
        task = Task(priority=1, target=np.array([0.8, 0.0, 0.0]), feedforward=xd,
                    gain=0.0, link=1)
        fk = forward_kinematics(model, state.q)
        qdot, _ = prioritized_ik(model, state, fk, [task], dt=5e-4)
        jac = point_jacobian(model, fk, 1, np.zeros(3))
        sigma_max = np.linalg.svd(jac, compute_uv=False)[0]
        assert np.linalg.norm(qdot) <= np.linalg.norm(xd) / (1e-4 * sigma_max) + 1e-9

    def test_duplicate_priorities_rejected(self):
        model = two_link_planar()
        state = JointState(q=np.zeros(2), qd=np.zeros(2))
        tasks = [Task(priority=1, target=np.zeros(2), joint_indices=(0, 1)),
                 Task(priority=1, target=np.zeros(1), joint_indices=(0,))]
        with pytest.raises(ValueError, match="priority"):
            prioritized_ik(model, state, forward_kinematics(model, state.q), tasks, dt=1e-3)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            solve_priority_stack([np.array([[1.0, 0.0]])], [np.zeros(2)], n_dof=2)

    def test_task_needs_exactly_one_source(self):
        with pytest.raises(ValueError):
            Task(priority=1, target=np.zeros(3))
        with pytest.raises(ValueError):
            Task(priority=1, target=np.zeros(3), link=0, joint_indices=(0,))


def random_stack(rng, n_dof):
    """Random task stack with well-conditioned Jacobians."""
    stack, terms = [], []
    remaining = n_dof
    for _ in range(int(rng.integers(1, 4))):
        dim = int(rng.integers(1, max(2, remaining + 1)))
        stack.append(rng.normal(size=(dim, n_dof)))
        terms.append(rng.normal(size=dim))
        remaining -= dim
        if remaining <= 0:
            break
    return stack, terms


class TestProperties:
    def test_priority_consistency(self, rng):
        # over 100 random stacks: the top task's velocity is untouched by lower tasks
        for _ in range(100):
            n = int(rng.integers(2, 8))
            stack, terms = random_stack(rng, n)
            if np.linalg.matrix_rank(stack[0]) < stack[0].shape[0]:
                continue
            top_only = solve_priority_stack(stack[:1], terms[:1], n)
            full = solve_priority_stack(stack, terms, n)
            np.testing.assert_allclose(stack[0] @ full, stack[0] @ top_only, atol=1e-9)

    def test_projector_idempotence_and_consistency(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 8))
            stack, _ = random_stack(rng, n)
            nullspace = np.eye(n)
            for jac in stack:
                jac_pre = jac @ nullspace
                pinv = truncated_pinv(jac_pre)
                nullspace = nullspace - pinv @ jac_pre
                assert np.abs(nullspace @ nullspace - nullspace).max() < 1e-10
                # projected Jacobians live inside the previous null space
                assert np.abs(jac_pre @ nullspace).max() < 1e-8

    def test_pinv_axioms_on_retained_subspace(self, rng):
        for _ in range(100):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(rows, 8))
            jac = rng.normal(size=(rows, cols))
            pinv = truncated_pinv(jac)
            np.testing.assert_allclose(jac @ pinv @ jac, jac, atol=1e-9)
            np.testing.assert_allclose(pinv @ jac @ pinv, pinv, atol=1e-9)

    def test_truncation_zeroes_small_directions(self):
        jac = np.diag([1.0, 1e-6])          # second direction below 1e-4 relative
        pinv = truncated_pinv(jac, sigma_rel=1e-4)
        assert pinv[0, 0] == pytest.approx(1.0)
        assert pinv[1, 1] == 0.0

    def test_zero_jacobian(self):
        pinv = truncated_pinv(np.zeros((2, 3)))
        assert pinv.shape == (3, 2)
        np.testing.assert_allclose(pinv, 0.0)


def test_point_task_tracks_target_direction(rng):
    # sanity: commanded velocity reduces the task error on a real model
    model = random_chain(rng, 4, planar=False)
    q = rng.uniform(-1, 1, 4)
    state = JointState(q=q, qd=np.zeros(4))
    fk = forward_kinematics(model, q)
    current = fk.link_point(3, np.zeros(3))
    target = current + np.array([0.05, -0.02, 0.04])
    task = Task(priority=1, target=target, gain=5.0, link=3)
    qdot, _ = prioritized_ik(model, state, fk, [task], dt=5e-4)
    jac = point_jacobian(model, fk, 3, np.zeros(3))
    # realized task velocity points toward the target
    assert (jac @ qdot) @ (target - current) > 0.0
