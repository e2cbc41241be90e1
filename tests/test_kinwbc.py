import numpy as np
import pytest

from issf_wbc.kinwbc import Task, prioritized_ik, solve_priority_stack
from issf_wbc.model import JointState, forward_kinematics, load_robot, point_jacobian
from issf_wbc.scenario import data_path

import kinematics_oracle
from conftest import random_chain, two_link_planar
from kinematics_oracle import truncated_pinv


class TestRecursion:
    def test_identity_jacobian_passthrough(self):
        model = two_link_planar()
        state = JointState(q=np.zeros(2), qd=np.zeros(2))
        xd = np.array([0.3, -0.7])
        task = Task(priority=1, target=np.zeros(2), feedforward=xd, gain=0.0,
                    joint_indices=(0, 1))
        qdot = prioritized_ik(model, state, forward_kinematics(model, state.q), [task])
        np.testing.assert_allclose(qdot, xd, atol=1e-12)

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
        qdot = prioritized_ik(model, state, fk, [task])
        jac = point_jacobian(model, fk, 1, np.zeros(3))
        sigma_max = np.linalg.svd(jac, compute_uv=False)[0]
        assert np.linalg.norm(qdot) <= np.linalg.norm(xd) / (1e-4 * sigma_max) + 1e-9

    def test_duplicate_priorities_rejected(self):
        model = two_link_planar()
        state = JointState(q=np.zeros(2), qd=np.zeros(2))
        tasks = [Task(priority=1, target=np.zeros(2), joint_indices=(0, 1)),
                 Task(priority=1, target=np.zeros(1), joint_indices=(0,))]
        with pytest.raises(ValueError, match="priority"):
            prioritized_ik(model, state, forward_kinematics(model, state.q), tasks)

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
    qdot = prioritized_ik(model, state, fk, [task])
    jac = point_jacobian(model, fk, 3, np.zeros(3))
    # realized task velocity points toward the target
    assert (jac @ qdot) @ (target - current) > 0.0


def assert_agrees(qdot, ref):
    assert np.abs(qdot - ref).max() <= 1e-12 * np.abs(ref).max()


def oracle_qdot(model, q, fk, tasks):
    """The former recursion on the terms ``prioritized_ik`` builds from ``tasks``."""
    jacobians, terms = [], []
    for task in sorted(tasks, key=lambda t: t.priority):
        jac, value = task.jacobian_and_value(model, q, fk)
        ff = np.zeros(jac.shape[0]) if task.feedforward is None else task.feedforward
        jacobians.append(jac)
        terms.append(ff + task.gain * (task.target - value))
    return kinematics_oracle.solve_priority_stack(jacobians, terms, model.n_dof)


class TestAgainstOracle:
    """One SVD per level against the truncated-pinv recursion, to 1e-12 relative."""

    @pytest.mark.parametrize("robot", ["planar3.robot", "arm7.robot", "random"])
    def test_random_poses(self, rng, robot):
        # The bundled scenarios' stack: a point task on the last link above a
        # posture task on every joint, whose projected Jacobian is rank
        # deficient (rank n - 2 on planar3, n - 3 on arm7); every tenth pose
        # is a singular one (q = 0 stretches planar3 and aligns arm7's axes).
        # Random chains have more joints than the point task has rank (4-7),
        # so the posture task keeps a null space to act in.
        for k in range(200):
            model = (random_chain(rng, int(rng.integers(4, 8)), planar=k % 2 == 0)
                     if robot == "random" else load_robot(data_path(robot)))
            n = model.n_dof
            q = np.zeros(n) if k % 10 == 0 else rng.uniform(-np.pi, np.pi, n)
            fk = forward_kinematics(model, q)
            point = tuple(rng.uniform(-0.1, 0.1, 3).tolist())
            tasks = [
                Task(priority=1, target=fk.link_point(n - 1, point) + rng.normal(0, 0.05, 3),
                     feedforward=rng.normal(size=3), gain=5.0, link=n - 1,
                     point_in_link=point),
                Task(priority=2, target=rng.uniform(-1, 1, n), gain=1.0,
                     joint_indices=tuple(range(n))),
            ]
            state = JointState(q=q, qd=np.zeros(n))
            qdot = prioritized_ik(model, state, fk, tasks)
            assert_agrees(qdot, oracle_qdot(model, q, fk, tasks))

    @pytest.mark.xfail(strict=True, reason=(
        "a level whose projected Jacobian is rounding noise is truncated relative "
        "to its own largest singular value, so the noise is inverted"))
    def test_level_inside_the_higher_row_space_changes_nothing(self):
        # The point task on link 1 of a two-link planar arm already uses both
        # joints, so the posture task below it has no null space left: the
        # command should be the point task's alone.  Both this solver and the
        # oracle return about 1e17 rad/s instead.
        model = two_link_planar()
        q = np.array([0.3, 0.7])
        state = JointState(q=q, qd=np.zeros(2))
        fk = forward_kinematics(model, q)
        point = Task(priority=1, target=fk.link_point(1, np.zeros(3)) + [0.02, 0.0, -0.03],
                     gain=5.0, link=1)
        posture = Task(priority=2, target=np.zeros(2), gain=1.0, joint_indices=(0, 1))
        alone = prioritized_ik(model, state, fk, [point])
        qdot = prioritized_ik(model, state, fk, [point, posture])
        np.testing.assert_allclose(qdot, alone, rtol=0.0, atol=1e-9)

    def test_three_levels_with_a_rank_deficient_middle(self, rng):
        # A middle level of two rows that differ only in scale has rank 1 once
        # projected: its second singular value is rounding noise and dropped.
        for _ in range(200):
            n = int(rng.integers(3, 8))
            top = rng.normal(size=(1, n))
            row = rng.normal(size=(1, n))
            stack = [top, np.vstack([row, 2.0 * row]), rng.normal(size=(2, n))]
            terms = [rng.normal(size=1), rng.normal(size=2), rng.normal(size=2)]
            assert_agrees(solve_priority_stack(stack, terms, n),
                          kinematics_oracle.solve_priority_stack(stack, terms, n))

    def test_zero_jacobian_level_changes_nothing(self, rng):
        n = 4
        jac, term = rng.normal(size=(2, n)), rng.normal(size=2)
        zero, zero_term = np.zeros((3, n)), rng.normal(size=3)
        alone = solve_priority_stack([jac], [term], n)
        for stack, terms in (([zero, jac], [zero_term, term]), ([jac, zero], [term, zero_term])):
            qdot = solve_priority_stack(stack, terms, n)
            assert qdot.tobytes() == alone.tobytes()
            assert_agrees(qdot, kinematics_oracle.solve_priority_stack(stack, terms, n))
        assert not solve_priority_stack([zero], [zero_term], n).any()

    def test_dimension_mismatch_rejected_like_the_oracle(self):
        stack, terms = [np.eye(3), np.ones((2, 3))], [np.zeros(3), np.zeros(3)]
        for solve in (solve_priority_stack, kinematics_oracle.solve_priority_stack):
            with pytest.raises(ValueError, match="J has 2 rows, command has 3"):
                solve(stack, terms, 3)
