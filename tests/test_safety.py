import math
from dataclasses import replace

import numpy as np
import pytest

from issf_wbc.geometry import CollisionBody, WorkspacePair
from issf_wbc.kinwbc import Task, prioritized_ik
from issf_wbc.model import JointState, forward_kinematics
from issf_wbc.qpsolver import QpProblem, QpSolver
from issf_wbc.safety import (
    ECBF_FD_STEP,
    AccelConstraint,
    BarrierConstraint,
    BarrierKind,
    FilterConfig,
    FilterInfeasibleError,
    FilterMode,
    Obstacle,
    collect_constraints,
    ecbf_rows,
    filter_velocity,
)

from conftest import enumerate_qp, random_chain, two_link_planar


def collect(model, state, *args):
    """collect_constraints at the pose of ``state``."""
    return collect_constraints(model, state, forward_kinematics(model, state.q), *args)


def jl_row(h, alpha=10.0, epsilon=10.0, n=1, idx=0, sign=1.0):
    grad = np.zeros(n)
    grad[idx] = sign
    return BarrierConstraint(kind=BarrierKind.JOINT_LIMIT_MIN, pair=f"q{idx}",
                             h=h, grad=grad, alpha=alpha, epsilon=epsilon)


class TestCollect:
    def setup_method(self):
        self.model = two_link_planar(0.4, 0.4)
        self.tip = self.model  # placeholder; bodies built per test

    def test_joint_limit_row_values(self):
        # q = 0.5, limits (0, 1), alpha = 10, eps = 10 -> min-row rhs -4.9
        import issf_wbc.model as m
        link = m.LinkSpec(mass=1.0, com=np.zeros(3), inertia=np.eye(3) * 1e-3,
                          parent=-1, origin_xyz=np.array([1.0, 0.0, 0.0]))
        joint = m.JointSpec(axis=np.array([0.0, 0.0, 1.0]), q_min=0.0, q_max=1.0)
        model = m.RobotModel("one", (link,), (joint,))
        config = FilterConfig(alpha={k: 10.0 for k in BarrierKind},
                              epsilon={k: 10.0 for k in BarrierKind})
        rows = collect(model, JointState(q=np.array([0.5]), qd=np.zeros(1)), [], config, [])
        row_min = next(r for r in rows if r.kind is BarrierKind.JOINT_LIMIT_MIN)
        row_max = next(r for r in rows if r.kind is BarrierKind.JOINT_LIMIT_MAX)
        np.testing.assert_allclose(row_min.grad, [1.0])
        assert row_min.rhs() == pytest.approx(-10.0 * 0.5 + 1.0 / 10.0)
        np.testing.assert_allclose(row_max.grad, [-1.0])
        assert row_max.h == pytest.approx(0.5)
        # unit gradients: the robustness margin reduces to exactly 1/eps
        assert row_min.margin() == pytest.approx(0.1)

    def test_activation_gating_emits_only_joint_rows(self):
        # stretched arm: the self pair sits 0.41 m apart, the obstacle 4+ m
        model = two_link_planar(0.5, 0.5)
        tip = CollisionBody("tip", 1, 0.05, np.zeros(3), np.zeros(3))
        far = CollisionBody("far", -1, 0.1, np.array([5.0, 0.0, 0.0]), np.array([5.0, 0.0, 0.0]))
        base = CollisionBody("base", 0, 0.04, np.array([-0.5, 0.0, 0.0]), np.array([-0.5, 0.0, 0.0]))
        rows = collect(
            model, JointState(q=np.zeros(2), qd=np.zeros(2)),
            [Obstacle(body=far, velocity=np.zeros(3))], FilterConfig(),
            [(tip, base)],
        )
        assert all(r.kind in (BarrierKind.JOINT_LIMIT_MIN, BarrierKind.JOINT_LIMIT_MAX)
                   for r in rows)
        assert len(rows) == 4

    def test_moving_obstacle_drift_one_dimensional(self):
        # obstacle straight above a one-link tip, moving toward it at 1 m/s:
        # n points from obstacle to tip, v_O = -n  ->  drift = n . v_O = +1
        tip = CollisionBody("tip", 1, 0.05, np.zeros(3), np.zeros(3))
        model = two_link_planar(0.5, 0.5, bodies=[tip])
        obstacle_body = CollisionBody("ball", -1, 0.1, np.array([1.0, 0.25, 0.0]),
                                      np.array([1.0, 0.25, 0.0]))
        rows = collect(
            model, JointState(q=np.zeros(2), qd=np.zeros(2)),
            [Obstacle(body=obstacle_body, velocity=np.array([0.0, -1.0, 0.0]))],
            FilterConfig(), [],
        )
        object_rows = [r for r in rows if r.kind is BarrierKind.OBJECT_COLLISION]
        assert len(object_rows) == 1
        assert object_rows[0].drift == pytest.approx(1.0, abs=1e-9)
        stationary = collect(
            model, JointState(q=np.zeros(2), qd=np.zeros(2)),
            [Obstacle(body=obstacle_body, velocity=np.zeros(3))], FilterConfig(), [],
        )
        obj = [r for r in stationary if r.kind is BarrierKind.OBJECT_COLLISION]
        assert obj[0].drift == 0.0

    def test_workspace_rows_always_emitted(self):
        model = two_link_planar(0.31, 0.31)
        pair = WorkspacePair("reach", 1, np.zeros(3), 0, np.array([-0.31, 0.0, 0.0]), 0.62)
        rows = collect(model, JointState(q=np.zeros(2), qd=np.zeros(2)),
                       [], FilterConfig(), [], [pair])
        ws = [r for r in rows if r.kind is BarrierKind.WORKSPACE]
        assert len(ws) == 1
        assert ws[0].h == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_row_dropped_with_log(self, caplog):
        tip = CollisionBody("tip", 1, 0.05, np.zeros(3), np.zeros(3))
        model = two_link_planar(0.5, 0.5, bodies=[tip])
        fk = forward_kinematics(model, np.zeros(2))
        ghost = CollisionBody("ghost", -1, 0.2, fk.link_point(1, np.zeros(3)),
                              fk.link_point(1, np.zeros(3)))
        with caplog.at_level("WARNING", logger="issf_wbc.safety"):
            rows = collect(model, JointState(q=np.zeros(2), qd=np.zeros(2)),
                           [Obstacle(body=ghost, velocity=np.zeros(3))], FilterConfig(), [])
        assert not any(r.kind is BarrierKind.OBJECT_COLLISION for r in rows)
        assert any("dropping" in rec.message for rec in caplog.records)


class TestFilter:
    def test_passthrough_when_already_safe(self, rng):
        solver = QpSolver()
        qdot = rng.normal(size=3) * 0.01
        rows = [jl_row(h=2.0, n=3, idx=i) for i in range(3)]
        result = filter_velocity(qdot, rows, FilterConfig(mode=FilterMode.ISSF_CBF), solver)
        np.testing.assert_allclose(result.qdot_safe, qdot, atol=1e-9)

    def test_scalar_clip_example(self):
        # h = q = 0.1, alpha = 10, eps = 10, qdot_des = -10 -> clipped to -0.9
        solver = QpSolver()
        row = jl_row(h=0.1, alpha=10.0, epsilon=10.0)
        result = filter_velocity(np.array([-10.0]), [row],
                                 FilterConfig(mode=FilterMode.ISSF_CBF), solver)
        assert result.qdot_safe[0] == pytest.approx(-0.9, abs=1e-9)

    def test_without_cbf_and_ecbf_pass_through(self):
        solver = QpSolver()
        row = jl_row(h=0.001, alpha=10.0, epsilon=10.0)
        for mode in (FilterMode.WITHOUT_CBF, FilterMode.ECBF):
            result = filter_velocity(np.array([-10.0]), [row],
                                     FilterConfig(mode=mode), solver)
            assert result.qdot_safe[0] == -10.0
            assert result.status == "passthrough"

    def test_cbf_mode_drops_issf_margin(self):
        solver = QpSolver()
        row = jl_row(h=0.1, alpha=10.0, epsilon=10.0)
        result = filter_velocity(np.array([-10.0]), [row],
                                 FilterConfig(mode=FilterMode.CBF), solver)
        assert result.qdot_safe[0] == pytest.approx(-1.0, abs=1e-9)

    def test_mode_rows_differ_only_by_margin(self, rng):
        # CBF rows equal ISSf rows minus the margin term exactly
        rows = [jl_row(h=float(rng.uniform(0, 1)), alpha=10.0, epsilon=20.0, n=2, idx=i)
                for i in range(2)]
        for row in rows:
            assert row.rhs() - row.rhs(plain_cbf=True) == pytest.approx(row.margin())

    def test_random_instances_match_enumeration(self, rng):
        solver = QpSolver()
        for _ in range(50):
            n = int(rng.integers(1, 4))
            qdot_des = rng.normal(size=n)
            rows = []
            for k in range(int(rng.integers(1, 5))):
                grad = rng.normal(size=n)
                alpha = float(rng.uniform(1, 30))
                eps = float(rng.uniform(5, 50))
                drift = float(rng.normal() * 0.1)
                # h large enough that qd = 0 satisfies the row: instance feasible
                h_floor = (drift + float(grad @ grad) / eps) / alpha
                rows.append(BarrierConstraint(
                    kind=BarrierKind.SELF_COLLISION, pair=f"p{k}",
                    h=h_floor + float(rng.uniform(0.0, 0.5)), grad=grad,
                    alpha=alpha, epsilon=eps, drift=drift,
                ))
            result = filter_velocity(qdot_des, rows, FilterConfig(mode=FilterMode.ISSF_CBF),
                                     solver)
            problem = QpProblem(H=2 * np.eye(n), g=-2 * qdot_des,
                                A_ineq=np.array([r.grad for r in rows]),
                                b_ineq=np.array([r.rhs() for r in rows]))
            oracle = enumerate_qp(problem)
            assert oracle is not None
            np.testing.assert_allclose(result.qdot_safe, oracle[1], atol=1e-6)

    def test_hard_fail_policy_raises(self):
        solver = QpSolver()
        rows = [jl_row(h=0.1, sign=1.0), jl_row(h=-2.0, sign=-1.0, alpha=100.0, epsilon=1.0)]
        with pytest.raises(FilterInfeasibleError):
            filter_velocity(np.zeros(1), rows, FilterConfig(mode=FilterMode.ISSF_CBF),
                            solver)

    def test_slack_relaxation_flags_and_logs(self, caplog):
        solver = QpSolver()
        rows = [jl_row(h=0.1, sign=1.0), jl_row(h=-2.0, sign=-1.0, alpha=100.0, epsilon=1.0)]
        config = FilterConfig(mode=FilterMode.ISSF_CBF, slack_policy="slack")
        with caplog.at_level("WARNING", logger="issf_wbc.safety"):
            result = filter_velocity(np.zeros(1), rows, config, solver)
        assert result.relaxed
        assert result.status == "relaxed"
        assert any("safety not guaranteed" in rec.message for rec in caplog.records)

    def test_discrete_forward_invariance_on_rom(self, rng):
        # simulate the reduced model qdot = qdot_safe; every row must satisfy
        # h_{k+1} >= (1 - alpha dt) h_k - 1e-6
        model = two_link_planar(0.4, 0.35)
        tip = CollisionBody("tip", 1, 0.06, np.zeros(3), np.zeros(3))
        base = CollisionBody("base", 0, 0.05, np.array([-0.4, 0.0, 0.0]), np.zeros(3))
        config = FilterConfig(mode=FilterMode.ISSF_CBF)
        solver = QpSolver()
        dt = 5e-4
        q = np.array([0.4, 2.0])
        target = np.array([0.05, 0.0, 0.02])   # deep inside, drives at the barrier
        prev = {}
        for step in range(1200):
            state = JointState(q=q, qd=np.zeros(2))
            task = Task(priority=1, target=target, gain=5.0, link=1)
            fk = forward_kinematics(model, q)
            qdot_des, _ = prioritized_ik(model, state, fk, [task], dt)
            rows = collect_constraints(model, state, fk, [], config, [(tip, base)])
            result = filter_velocity(qdot_des, rows, config, solver)
            for row in rows:
                key = (row.kind, row.pair)
                if key in prev:
                    h_prev, alpha_prev = prev[key]
                    assert row.h >= (1 - alpha_prev * dt) * h_prev - 1e-6
                prev[key] = (row.h, row.alpha)
            q = q + result.qdot_safe * dt

    def test_epsilon_monotonicity_on_rom(self):
        # same kinematic scenario; min-over-time h non-increasing as eps grows
        model = two_link_planar(0.4, 0.35)
        tip = CollisionBody("tip", 1, 0.06, np.zeros(3), np.zeros(3))
        base = CollisionBody("base", 0, 0.05, np.array([-0.4, 0.0, 0.0]), np.zeros(3))
        solver = QpSolver()
        dt = 5e-4
        mins = []
        for eps in (10.0, 20.0, 30.0):
            config = FilterConfig(mode=FilterMode.ISSF_CBF).with_collision_params(10.0, eps)
            q = np.array([0.4, 2.0])
            h_min = math.inf
            for step in range(1500):
                state = JointState(q=q, qd=np.zeros(2))
                task = Task(priority=1, target=np.array([0.05, 0.0, 0.02]), gain=5.0, link=1)
                fk = forward_kinematics(model, q)
                qdot_des, _ = prioritized_ik(model, state, fk, [task], dt)
                rows = collect_constraints(model, state, fk, [], config, [(tip, base)])
                result = filter_velocity(qdot_des, rows, config, solver)
                h_min = min(h_min, min(r.h for r in rows
                                       if r.kind is BarrierKind.SELF_COLLISION))
                q = q + result.qdot_safe * dt
            mins.append(h_min)
        assert mins[0] >= mins[1] - 1e-12 >= mins[2] - 2e-12


class TestEcbf:
    def test_static_joint_limit_reduction(self):
        # qd = 0: h_e = alpha h and the row reduces to e_i qdd >= -alpha^2 h
        import issf_wbc.model as m
        link = m.LinkSpec(mass=1.0, com=np.zeros(3), inertia=np.eye(3) * 1e-3,
                          parent=-1, origin_xyz=np.array([1.0, 0.0, 0.0]))
        joint = m.JointSpec(axis=np.array([0.0, 0.0, 1.0]), q_min=0.0, q_max=1.0)
        model = m.RobotModel("one", (link,), (joint,))
        config = FilterConfig(mode=FilterMode.ECBF,
                              alpha={k: 5.0 for k in BarrierKind},
                              epsilon={k: 10.0 for k in BarrierKind})
        state = JointState(q=np.array([0.4]), qd=np.zeros(1))
        rows = ecbf_rows(model, state, collect(model, state, [], config, []))
        row = next(r for r in rows if r.kind is BarrierKind.JOINT_LIMIT_MIN)
        assert row.h_e == pytest.approx(5.0 * 0.4)
        np.testing.assert_allclose(row.grad, [1.0])
        assert row.rhs == pytest.approx(-5.0 * 5.0 * 0.4)

    def test_h_e_direct_substitution(self):
        # hd = 0, h = 1, alpha = 5 -> h_e = 5
        row = jl_row(h=1.0, alpha=5.0)
        h_e = float(row.grad @ np.zeros(1)) - row.drift + row.alpha * row.h
        assert h_e == pytest.approx(5.0)

    def test_double_integrator_forward_invariance(self):
        # 1-dof double integrator with the eCBF row enforced exactly keeps
        # h >= 0 from h(0) > 0, h_e(0) > 0 (fine-step integration oracle)
        alpha = alpha_e = 5.0
        q, qd = 0.4, -0.8          # h = q, moving toward the limit
        dt = 1e-5
        h_min = math.inf
        for _ in range(200000):
            h = q
            h_e = qd + alpha * h
            qdd_des = -50.0        # nominal slams into the limit
            rhs = -alpha_e * h_e - alpha * qd
            qdd = max(qdd_des, rhs)
            q += qd * dt + 0.5 * qdd * dt * dt
            qd += qdd * dt
            h_min = min(h_min, q)
        assert h_min >= -1e-9

    def test_collision_row_curvature_term_against_fd(self, rng):
        # the assembled acceleration row must match a direct second-order
        # finite difference of h along the current motion
        model = two_link_planar(0.4, 0.35)
        tip = CollisionBody("tip", 1, 0.06, np.zeros(3), np.zeros(3))
        base = CollisionBody("base", 0, 0.05, np.array([-0.4, 0.0, 0.0]), np.zeros(3))
        config = FilterConfig(mode=FilterMode.ECBF)
        from issf_wbc.geometry import body_pair_barrier

        def barrier(qq):
            return body_pair_barrier(model, forward_kinematics(model, qq), tip, base)

        for _ in range(10):
            q = rng.uniform(0.5, 1.5, 2)
            qd = rng.normal(size=2)
            state = JointState(q=q, qd=qd)
            collected = collect(model, state, [], config, [(tip, base)])
            rows = [r for r in ecbf_rows(model, state, collected)
                    if r.kind is BarrierKind.SELF_COLLISION]
            if not rows:
                continue
            row = rows[0]
            # hd(q, qd) by finite differences of h along qd, with qdd = 0:
            # hdd = curvature only; reconstruct from the row rhs definition
            eps = 1e-5
            h0, g0, _ = barrier(q)
            hp, _, _ = barrier(q + eps * qd)
            hm, _, _ = barrier(q - eps * qd)
            hdd_fd = (hp - 2 * h0 + hm) / eps**2     # = qd' d(grad)/dq qd
            alpha = config.alpha[BarrierKind.SELF_COLLISION]
            h_e = float(g0 @ qd) + alpha * h0
            rhs_expected = -alpha * h_e - hdd_fd - alpha * float(g0 @ qd)
            assert row.rhs == pytest.approx(rhs_expected, rel=1e-3, abs=1e-6)


def ecbf_rows_recollect(model, state, obstacles, config, pairs, workspace_pairs=(),
                        fd_step=ECBF_FD_STEP):
    """Reference eCBF rows: re-collects every barrier row at the state and at
    q +- fd_step qd/|qd| with unlimited activation distance, and takes each
    row's curvature from the gradients of the same (kind, pair) there."""
    rows = collect(model, state, obstacles, config, pairs, workspace_pairs)
    qd = state.qd
    speed = float(np.linalg.norm(qd))
    grad_plus, grad_minus = {}, {}
    if speed > 0.0:
        unit = qd / speed
        wide = replace(config, activation_distance=math.inf)
        for sign, store in ((1.0, grad_plus), (-1.0, grad_minus)):
            probe = JointState(q=state.q + sign * fd_step * unit, qd=qd, t=state.t)
            for c in collect(model, probe, obstacles, wide, pairs, workspace_pairs):
                store[(c.kind, c.pair)] = c.grad
    out = []
    for c in rows:
        key = (c.kind, c.pair)
        if c.kind in (BarrierKind.JOINT_LIMIT_MIN, BarrierKind.JOINT_LIMIT_MAX) or speed == 0.0:
            curvature = 0.0
        elif key in grad_plus and key in grad_minus:
            dgrad_dt = (grad_plus[key] - grad_minus[key]) / (2.0 * fd_step) * speed
            curvature = float(dgrad_dt @ qd)
        else:
            continue
        h_dot = float(c.grad @ qd) - c.drift
        h_e = h_dot + c.alpha * c.h
        rhs = -c.alpha * h_e - curvature - c.alpha * h_dot
        out.append(AccelConstraint(kind=c.kind, pair=c.pair, grad=c.grad, rhs=rhs, h_e=h_e))
    return out


def assert_rows_equal(rows, expected):
    assert [(r.kind, r.pair) for r in rows] == [(r.kind, r.pair) for r in expected]
    for row, ref in zip(rows, expected):
        np.testing.assert_array_equal(row.grad, ref.grad)
        assert row.rhs == ref.rhs
        assert row.h_e == ref.h_e


def bodied_chain(rng, n):
    """Random chain with a capsule on every link and a sphere at the tip."""
    model = random_chain(rng, n)
    bodies = [CollisionBody(f"cap{i}", i, float(rng.uniform(0.03, 0.08)),
                            rng.uniform(-0.2, 0.2, 3), rng.uniform(-0.2, 0.2, 3))
              for i in range(n)]
    bodies.append(CollisionBody("tip", n - 1, 0.05, np.zeros(3), np.zeros(3)))
    return replace(model, collision_bodies=tuple(bodies))


class TestEcbfAgainstRecollect:
    """ecbf_rows on the cycle's rows equals the re-collecting reference bit for bit."""

    def test_random_chains_with_obstacle_and_workspace(self, rng):
        checked = 0
        for trial in range(12):
            n = int(rng.integers(3, 7))
            model = bodied_chain(rng, n)
            bodies = model.collision_bodies
            pairs = [(bodies[-1], bodies[0]), (bodies[n - 1], bodies[1])]
            ball = CollisionBody("ball", -1, 0.1, rng.uniform(-0.5, 0.5, 3),
                                 np.zeros(3))
            obstacles = [Obstacle(body=ball, velocity=rng.normal(size=3))]
            workspace = [WorkspacePair("reach", n - 1, np.zeros(3), 0, np.zeros(3),
                                       d_max=float(rng.uniform(0.3, 1.0)))]
            config = FilterConfig(mode=FilterMode.ECBF,
                                  activation_distance=float(rng.uniform(0.3, 2.0)))
            for _ in range(4):
                q = rng.uniform(-2.0, 2.0, n)
                qd = rng.normal(size=n) if trial % 4 else np.zeros(n)
                state = JointState(q=q, qd=qd)
                collected = collect(model, state, obstacles, config, pairs, workspace)
                rows = ecbf_rows(model, state, collected)
                expected = ecbf_rows_recollect(model, state, obstacles, config, pairs,
                                               workspace)
                assert_rows_equal(rows, expected)
                checked += sum(r.kind is not BarrierKind.JOINT_LIMIT_MIN
                               and r.kind is not BarrierKind.JOINT_LIMIT_MAX for r in rows)
        assert checked > 50   # the comparison covered many geometric rows

    def test_degenerate_probe_drops_row_on_both_sides(self, rng, caplog):
        # the obstacle sits exactly where the tip sphere's centre is at the
        # + probe, so the witness points coincide there and the row is dropped
        n = 4
        model = bodied_chain(rng, n)
        tip = model.collision_body("tip")
        q = rng.uniform(-1.0, 1.0, n)
        qd = rng.normal(size=n)
        state = JointState(q=q, qd=qd)
        probe_q = q + ECBF_FD_STEP * (qd / float(np.linalg.norm(qd)))
        centre = forward_kinematics(model, probe_q).link_point(tip.link, tip.p0)
        ball = CollisionBody("ball", -1, 0.1, centre, centre)
        obstacles = [Obstacle(body=ball, velocity=np.array([0.1, 0.0, 0.0]))]
        config = FilterConfig(mode=FilterMode.ECBF)
        collected = collect(model, state, obstacles, config, [])
        assert any(c.pair == "tip|ball" for c in collected)
        with caplog.at_level("WARNING", logger="issf_wbc.safety"):
            rows = ecbf_rows(model, state, collected)
        assert any("gradient probe failed" in rec.message for rec in caplog.records)
        expected = ecbf_rows_recollect(model, state, obstacles, config, [])
        assert all(r.pair != "tip|ball" for r in expected)
        assert_rows_equal(rows, expected)
