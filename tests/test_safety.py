import math
from dataclasses import replace

import numpy as np
import pytest

from issf_wbc.geometry import CollisionBody, WorkspacePair
from issf_wbc.kinwbc import Task, prioritized_ik
from issf_wbc.model import JointState, forward_kinematics
from issf_wbc.qpsolver import QpProblem, QpSolver
from issf_wbc.safety import (
    BarrierKind,
    BarrierRows,
    FilterConfig,
    FilterInfeasibleError,
    FilterMode,
    Obstacle,
    barrier_plan,
    collect_constraints,
    ecbf_rows,
    filter_velocity,
)

from barrier_oracle import body_pair_barrier
from conftest import enumerate_qp, random_chain, two_link_planar
from ecbf_oracle import ecbf_rows_fd
from kinematics_oracle import link_point


def collect(model, state, obstacles, config, pairs, workspace_pairs=()):
    """collect_constraints at the pose of ``state``, under the plan of these
    pairs and obstacles."""
    plan = barrier_plan(model, config, pairs, [obstacle.body for obstacle in obstacles],
                        workspace_pairs)
    return collect_constraints(plan, state, forward_kinematics(model, state.q), obstacles)


def ecbf(model, state, rows):
    """ecbf_rows at the pose of ``state``."""
    return ecbf_rows(state, forward_kinematics(model, state.q), rows)


def hand_rows(h, grad, alpha, epsilon, drift=0.0, kind=BarrierKind.JOINT_LIMIT_MIN):
    """A BarrierRows block built by hand, one row per entry of ``h`` and
    ``grad``; ``alpha``, ``epsilon`` and ``drift`` may be scalars.  Each
    row's margin is its own |grad|^2 / eps, as collect_constraints forms it."""
    m = len(h)
    grad = np.array(grad, dtype=float).reshape(m, -1)

    def per_row(value):
        return np.broadcast_to(np.asarray(value, dtype=float), (m,)).tolist()

    return BarrierRows(keys=[(kind, f"p{i}") for i in range(m)], h=per_row(h), grad=grad,
                       alpha=per_row(alpha), drift=per_row(drift),
                       margin=[float(g @ g) / e for g, e in zip(grad, per_row(epsilon))],
                       witness=[None] * m)


def jl_row(h, alpha=10.0, epsilon=10.0):
    """One lower-limit row on a 1-dof model, as a block."""
    return hand_rows([h], [[1.0]], alpha, epsilon)


def one_joint_model():
    """One revolute joint about z with limits (0, 1)."""
    import issf_wbc.model as m
    link = m.LinkSpec(mass=1.0, com=np.zeros(3), inertia=np.eye(3) * 1e-3,
                      parent=-1, origin_xyz=np.array([1.0, 0.0, 0.0]))
    joint = m.JointSpec(axis=np.array([0.0, 0.0, 1.0]), q_min=0.0, q_max=1.0)
    return m.RobotModel("one", (link,), (joint,))


def index(rows, kind):
    """Position of the first row of ``kind`` in a block."""
    return next(i for i, (k, _) in enumerate(rows.keys) if k is kind)


class TestFilterConfig:
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_alpha_not_finite_positive(self, value):
        with pytest.raises(ValueError, match="alpha.self-collision: must be finite and > 0"):
            FilterConfig().with_collision_params(alpha=value, epsilon=None)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_rejects_epsilon_not_positive(self, value):
        with pytest.raises(ValueError, match="epsilon.workspace: must be > 0"):
            FilterConfig(epsilon={**FilterConfig().epsilon, BarrierKind.WORKSPACE: value})

    def test_accepts_infinite_epsilon(self):
        config = FilterConfig().with_collision_params(alpha=None, epsilon=math.inf)
        assert config.epsilon[BarrierKind.OBJECT_COLLISION] == math.inf

    def test_rejects_missing_kind_and_slack_settings(self):
        with pytest.raises(ValueError) as err:
            FilterConfig(alpha={BarrierKind.WORKSPACE: 1.0}, slack_policy="slak",
                         slack_weight=0.0)
        message = str(err.value)
        assert "alpha.joint-limit-min: must be finite and > 0, got None" in message
        assert "slack_policy: expected one of ('hard-fail', 'slack'), got 'slak'" in message
        assert "slack.weight: must be finite and > 0, got 0.0" in message

    @pytest.mark.parametrize("value", [-5.0, math.nan])
    def test_rejects_negative_activation_distance(self, value):
        with pytest.raises(ValueError, match="activation_distance: must be >= 0"):
            FilterConfig(activation_distance=value)

    def test_accepts_infinite_activation_distance(self):
        assert FilterConfig(activation_distance=math.inf).activation_distance == math.inf


class TestCollect:
    def setup_method(self):
        self.model = two_link_planar(0.4, 0.4)
        self.tip = self.model  # placeholder; bodies built per test

    def test_joint_limit_row_values(self):
        # q = 0.5, limits (0, 1), alpha = 10, eps = 10 -> min-row rhs -4.9
        model = one_joint_model()
        config = FilterConfig(alpha={k: 10.0 for k in BarrierKind},
                              epsilon={k: 10.0 for k in BarrierKind})
        rows = collect(model, JointState(q=np.array([0.5]), qd=np.zeros(1)), [], config, [])
        assert rows.keys == [(BarrierKind.JOINT_LIMIT_MIN, "q0"),
                             (BarrierKind.JOINT_LIMIT_MAX, "q0")]
        assert len(rows) == 2
        np.testing.assert_array_equal(rows.grad, [[1.0], [-1.0]])
        assert rows.rhs()[0] == pytest.approx(-10.0 * 0.5 + 1.0 / 10.0)
        assert rows.h[1] == pytest.approx(0.5)
        # unit gradients: the robustness margin reduces to exactly 1/eps
        np.testing.assert_array_equal(rows.margin, [1.0 / 10.0, 1.0 / 10.0])
        assert rows.witness == [None, None]

    def test_joint_limit_rows_interleaved_per_joint(self, rng):
        model = random_chain(rng, 4)
        q = np.array([rng.uniform(j.q_min, j.q_max) for j in model.joints])
        config = FilterConfig()
        rows = collect(model, JointState(q=q, qd=np.zeros(4)), [], config, [])
        assert rows.keys[:8] == [(kind, f"q{i}") for i in range(4)
                                 for kind in (BarrierKind.JOINT_LIMIT_MIN,
                                              BarrierKind.JOINT_LIMIT_MAX)]
        for i, joint in enumerate(model.joints):
            assert rows.h[2 * i] == q[i] - joint.q_min
            assert rows.h[2 * i + 1] == joint.q_max - q[i]
            np.testing.assert_array_equal(rows.grad[2 * i], np.eye(4)[i])
            np.testing.assert_array_equal(rows.grad[2 * i + 1], -np.eye(4)[i])
        np.testing.assert_array_equal(
            rows.alpha[:8], [config.alpha[kind] for kind, _ in rows.keys[:8]])

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
        assert all(kind in (BarrierKind.JOINT_LIMIT_MIN, BarrierKind.JOINT_LIMIT_MAX)
                   for kind, _ in rows.keys)
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
        assert [kind for kind, _ in rows.keys].count(BarrierKind.OBJECT_COLLISION) == 1
        assert rows.drift[index(rows, BarrierKind.OBJECT_COLLISION)] == pytest.approx(
            1.0, abs=1e-9)
        stationary = collect(
            model, JointState(q=np.zeros(2), qd=np.zeros(2)),
            [Obstacle(body=obstacle_body, velocity=np.zeros(3))], FilterConfig(), [],
        )
        assert stationary.drift[index(stationary, BarrierKind.OBJECT_COLLISION)] == 0.0

    def test_workspace_rows_always_emitted(self):
        model = two_link_planar(0.31, 0.31)
        pair = WorkspacePair("reach", 1, np.zeros(3), 0, np.array([-0.31, 0.0, 0.0]), 0.62)
        rows = collect(model, JointState(q=np.zeros(2), qd=np.zeros(2)),
                       [], FilterConfig(), [], [pair])
        assert rows.keys[4:] == [(BarrierKind.WORKSPACE, "reach")]
        assert rows.h[4] == pytest.approx(0.0, abs=1e-12)
        assert rows.witness[4] is pair

    def test_degenerate_row_dropped_with_log(self, caplog):
        tip = CollisionBody("tip", 1, 0.05, np.zeros(3), np.zeros(3))
        model = two_link_planar(0.5, 0.5, bodies=[tip])
        fk = forward_kinematics(model, np.zeros(2))
        at_tip = link_point(fk, 1, np.zeros(3))
        ghost = CollisionBody("ghost", -1, 0.2, at_tip, at_tip)
        with caplog.at_level("WARNING", logger="issf_wbc.safety"):
            rows = collect(model, JointState(q=np.zeros(2), qd=np.zeros(2)),
                           [Obstacle(body=ghost, velocity=np.zeros(3))], FilterConfig(), [])
        assert not any(kind is BarrierKind.OBJECT_COLLISION for kind, _ in rows.keys)
        assert any("dropping" in rec.message for rec in caplog.records)


class TestFilter:
    def test_passthrough_when_already_safe(self, rng):
        solver = QpSolver()
        qdot = rng.normal(size=3) * 0.01
        rows = hand_rows([2.0] * 3, np.eye(3), 10.0, 10.0)
        result = filter_velocity(qdot, rows, FilterConfig(mode=FilterMode.ISSF_CBF), solver)
        np.testing.assert_allclose(result.qdot_safe, qdot, atol=1e-9)

    def test_scalar_clip_example(self):
        # h = q = 0.1, alpha = 10, eps = 10, qdot_des = -10 -> clipped to -0.9
        solver = QpSolver()
        row = jl_row(h=0.1, alpha=10.0, epsilon=10.0)
        result = filter_velocity(np.array([-10.0]), row,
                                 FilterConfig(mode=FilterMode.ISSF_CBF), solver)
        assert result.qdot_safe[0] == pytest.approx(-0.9, abs=1e-9)

    def test_without_cbf_and_ecbf_pass_through(self):
        solver = QpSolver()
        row = jl_row(h=0.001, alpha=10.0, epsilon=10.0)
        for mode in (FilterMode.WITHOUT_CBF, FilterMode.ECBF):
            result = filter_velocity(np.array([-10.0]), row,
                                     FilterConfig(mode=mode), solver)
            assert result.qdot_safe[0] == -10.0
            assert result.status == "passthrough"

    def test_cbf_mode_drops_issf_margin(self):
        # h = q = 0.1, alpha = 10, eps = 10, qdot_des = -10: the cbf plan's
        # rows have no margin, so the command is clipped to -1.0, not -0.9
        state = JointState(q=np.array([0.1]), qd=np.zeros(1))
        for mode, clipped in ((FilterMode.CBF, -1.0), (FilterMode.ISSF_CBF, -0.9)):
            config = FilterConfig(mode=mode, alpha={k: 10.0 for k in BarrierKind},
                                  epsilon={k: 10.0 for k in BarrierKind})
            rows = collect(one_joint_model(), state, [], config, [])
            result = filter_velocity(np.array([-10.0]), rows, config, QpSolver())
            assert result.qdot_safe[0] == pytest.approx(clipped, abs=1e-9)

    def test_mode_rows_differ_only_by_margin(self, rng):
        # The same state under both modes: cbf rows equal issf-cbf rows but
        # for the margin, which is 0, so their rhs is drift - alpha h exactly.
        tip = CollisionBody("tip", 1, 0.05, np.zeros(3), np.zeros(3))
        model = two_link_planar(0.5, 0.5, bodies=[tip])
        centre = np.array([1.0, 0.25, 0.0])
        obstacles = [Obstacle(body=CollisionBody("ball", -1, 0.1, centre, centre),
                              velocity=(0.0, -1.0, 0.0))]
        bound = WorkspacePair("reach", 1, np.zeros(3), 0, np.array([-0.5, 0.0, 0.0]), 0.9)
        for _ in range(10):
            state = JointState(q=rng.uniform(-0.1, 0.1, 2), qd=np.zeros(2))
            issf, cbf = (collect(model, state, obstacles, FilterConfig(mode=mode), [], [bound])
                         for mode in (FilterMode.ISSF_CBF, FilterMode.CBF))
            assert cbf.keys == issf.keys
            assert (BarrierKind.OBJECT_COLLISION, "tip|ball") in cbf.keys
            for name in ("h", "grad", "alpha", "drift"):
                assert (np.asarray(getattr(cbf, name)).tobytes()
                        == np.asarray(getattr(issf, name)).tobytes()), name
            cbf_margin, issf_margin = np.array(cbf.margin), np.array(issf.margin)
            assert not cbf_margin.any() and issf_margin.all()
            np.testing.assert_array_equal(
                cbf.rhs(), np.array(cbf.drift) - np.array(cbf.alpha) * np.array(cbf.h))
            np.testing.assert_array_equal(issf.rhs(), np.array(cbf.rhs()) + issf_margin)

    def test_rhs_equals_the_former_array_expression(self, rng):
        # rhs() per row on floats gives the bytes of the array expression
        # drift - alpha * h + margin, over random rows with inf-eps rows
        # (margin 0), zero drifts and h across eight decades among them.
        for m in range(1, 13):
            h = rng.normal(size=m) * 10.0 ** rng.integers(-6, 3, m)
            eps = np.where(rng.random(m) < 0.3, math.inf, rng.uniform(1.0, 60.0, m))
            drift = np.where(rng.random(m) < 0.5, 0.0, rng.normal(size=m))
            rows = hand_rows(h, rng.normal(size=(m, 3)), rng.uniform(0.5, 50.0, m), eps, drift)
            assert 0.0 in rows.margin or m < 4
            expected = (np.array(rows.drift) - np.array(rows.alpha) * np.array(rows.h)
                        + np.array(rows.margin))
            rhs = rows.rhs()
            assert all(type(b) is float for b in rhs)
            assert np.array(rhs).tobytes() == expected.tobytes()

    def test_random_instances_match_enumeration(self, rng):
        solver = QpSolver()
        for _ in range(50):
            n = int(rng.integers(1, 4))
            qdot_des = rng.normal(size=n)
            m = int(rng.integers(1, 5))
            grad = rng.normal(size=(m, n))
            alpha = rng.uniform(1, 30, m)
            eps = rng.uniform(5, 50, m)
            drift = rng.normal(size=m) * 0.1
            # h large enough that qd = 0 satisfies the row: instance feasible
            margin = np.array([float(g @ g) for g in grad]) / eps
            h = (drift + margin) / alpha + rng.uniform(0.0, 0.5, m)
            rows = hand_rows(h, grad, alpha, eps, drift, kind=BarrierKind.SELF_COLLISION)
            result = filter_velocity(qdot_des, rows, FilterConfig(mode=FilterMode.ISSF_CBF),
                                     solver)
            problem = QpProblem(H=2 * np.eye(n), g=-2 * qdot_des, A_ineq=grad,
                                b_ineq=drift - alpha * h + margin)
            oracle = enumerate_qp(problem)
            assert oracle is not None
            np.testing.assert_allclose(result.qdot_safe, oracle[1], atol=1e-6)

    def test_hard_fail_policy_raises(self):
        solver = QpSolver()
        rows = hand_rows([0.1, -2.0], [1.0, -1.0], [10.0, 100.0], [10.0, 1.0])
        with pytest.raises(FilterInfeasibleError):
            filter_velocity(np.zeros(1), rows, FilterConfig(mode=FilterMode.ISSF_CBF),
                            solver)

    def test_slack_relaxation_flags_and_logs(self, caplog):
        solver = QpSolver()
        rows = hand_rows([0.1, -2.0], [1.0, -1.0], [10.0, 100.0], [10.0, 1.0])
        config = FilterConfig(mode=FilterMode.ISSF_CBF, slack_policy="slack")
        with caplog.at_level("WARNING", logger="issf_wbc.safety"):
            result = filter_velocity(np.zeros(1), rows, config, solver)
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
        plan = barrier_plan(model, config, [(tip, base)])
        for step in range(1200):
            state = JointState(q=q, qd=np.zeros(2))
            task = Task(priority=1, target=target, gain=5.0, link=1)
            fk = forward_kinematics(model, q)
            qdot_des = prioritized_ik(model, state, fk, [task])
            rows = collect_constraints(plan, state, fk, [])
            result = filter_velocity(qdot_des, rows, config, solver)
            for key, h, alpha in zip(rows.keys, rows.h, rows.alpha):
                if key in prev:
                    h_prev, alpha_prev = prev[key]
                    assert h >= (1 - alpha_prev * dt) * h_prev - 1e-6
                prev[key] = (h, alpha)
            q = q + np.array(result.qdot_safe) * dt

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
            plan = barrier_plan(model, config, [(tip, base)])
            for step in range(1500):
                state = JointState(q=q, qd=np.zeros(2))
                task = Task(priority=1, target=np.array([0.05, 0.0, 0.02]), gain=5.0, link=1)
                fk = forward_kinematics(model, q)
                qdot_des = prioritized_ik(model, state, fk, [task])
                rows = collect_constraints(plan, state, fk, [])
                result = filter_velocity(qdot_des, rows, config, solver)
                h_min = min(h_min, min(h for (kind, _), h in zip(rows.keys, rows.h)
                                       if kind is BarrierKind.SELF_COLLISION))
                q = q + np.array(result.qdot_safe) * dt
            mins.append(h_min)
        assert mins[0] >= mins[1] - 1e-12 >= mins[2] - 2e-12


class TestEcbf:
    def test_static_joint_limit_reduction(self):
        # qd = 0: h_e = alpha h and the row reduces to e_i qdd >= -alpha^2 h
        model = one_joint_model()
        config = FilterConfig(mode=FilterMode.ECBF,
                              alpha={k: 5.0 for k in BarrierKind},
                              epsilon={k: 10.0 for k in BarrierKind})
        state = JointState(q=np.array([0.4]), qd=np.zeros(1))
        rows = ecbf(model, state, collect(model, state, [], config, []))
        i = rows.keys.index((BarrierKind.JOINT_LIMIT_MIN, "q0"))
        assert rows.h_e[i] == pytest.approx(5.0 * 0.4)
        np.testing.assert_allclose(rows.grad[i], [1.0])
        assert rows.rhs[i] == pytest.approx(-5.0 * 5.0 * 0.4)

    def test_h_e_direct_substitution(self):
        # hd = 0, h = 1, alpha = 5 -> h_e = 5; hd = -0.5 - 0.25 -> h_e = 4.25,
        # rhs = -alpha h_e - alpha hd
        model = one_joint_model()
        row = hand_rows([1.0, 1.0], [[1.0], [-1.0]], 5.0, 10.0, drift=[0.0, 0.25])
        rest = ecbf(model, JointState(q=np.array([0.5]), qd=np.zeros(1)), row)
        assert rest.h_e[0] == pytest.approx(5.0)
        moving = ecbf(model, JointState(q=np.array([0.5]), qd=np.array([0.5])), row)
        assert moving.h_e[1] == pytest.approx(4.25)
        assert moving.rhs[1] == pytest.approx(-5.0 * 4.25 - 5.0 * -0.75)

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

        def barrier(qq):
            return body_pair_barrier(model, forward_kinematics(model, qq), tip, base)

        for _ in range(10):
            q = rng.uniform(0.5, 1.5, 2)
            qd = rng.normal(size=2)
            state = JointState(q=q, qd=qd)
            collected = collect(model, state, [], config, [(tip, base)])
            rows = ecbf(model, state, collected)
            if (BarrierKind.SELF_COLLISION, "tip|base") not in rows.keys:
                continue
            rhs = rows.rhs[rows.keys.index((BarrierKind.SELF_COLLISION, "tip|base"))]
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
            assert rhs == pytest.approx(rhs_expected, rel=1e-3, abs=1e-6)


def curvatures(rows, collected):
    """The curvature term of each eCBF row, read back from its rhs:
    rhs = -alpha h_e - c - alpha hd with hd = h_e - alpha h."""
    alpha, h = np.array(collected.alpha), np.array(collected.h)
    rhs, h_e = np.array(rows.rhs), np.array(rows.h_e)
    return -rhs - alpha * h_e - alpha * (h_e - alpha * h)


def bodied_chain(rng, n):
    """Random chain with a capsule on every link, a sphere at the tip and a
    sphere on link 1."""
    model = random_chain(rng, n)
    bodies = [CollisionBody(f"cap{i}", i, float(rng.uniform(0.03, 0.08)),
                            rng.uniform(-0.2, 0.2, 3), rng.uniform(-0.2, 0.2, 3))
              for i in range(n)]
    bodies.append(CollisionBody("tip", n - 1, 0.05, np.zeros(3), np.zeros(3)))
    bodies.append(CollisionBody("elbow", 1, 0.04, np.zeros(3), np.zeros(3)))
    return replace(model, collision_bodies=tuple(bodies))


class TestEcbfAgainstRecollect:
    """ecbf_rows' closed-form curvature against the finite-difference oracle,
    which re-collects the rows along the motion of the robot and obstacles."""

    def test_random_chains_with_obstacle_and_workspace(self, rng):
        kinds = set()
        for trial in range(12):
            n = int(rng.integers(3, 8))
            model = bodied_chain(rng, n)
            bodies = model.collision_bodies
            # sphere-capsule, capsule-capsule and sphere-sphere self pairs
            pairs = [(bodies[n], bodies[0]), (bodies[n - 1], bodies[1]),
                     (bodies[n], bodies[n + 1])]
            centre = rng.uniform(-0.5, 0.5, 3)
            ball = CollisionBody("ball", -1, 0.1, centre, centre)
            rod = CollisionBody("rod", -1, 0.05, centre, centre + rng.uniform(-0.3, 0.3, 3))
            obstacles = [Obstacle(body=ball, velocity=rng.normal(size=3)),
                         Obstacle(body=rod, velocity=rng.normal(size=3))]
            workspace = [WorkspacePair("reach", n - 1, np.zeros(3), 0, np.zeros(3),
                                       d_max=float(rng.uniform(0.3, 1.0)))]
            config = FilterConfig(mode=FilterMode.ECBF,
                                  activation_distance=float(rng.uniform(0.3, 2.0)))
            for _ in range(4):
                q = rng.uniform(-2.0, 2.0, n)
                qd = rng.normal(size=n) if trial % 4 else np.zeros(n)
                state = JointState(q=q, qd=qd)
                collected = collect(model, state, obstacles, config, pairs, workspace)
                rows = ecbf(model, state, collected)
                expected, curv_ref = ecbf_rows_fd(model, state, obstacles, config, pairs,
                                                  workspace)
                assert rows.keys == expected.keys
                np.testing.assert_array_equal(rows.grad, expected.grad)
                np.testing.assert_allclose(rows.h_e, expected.h_e, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(curvatures(rows, collected), curv_ref,
                                           rtol=1e-6, atol=1e-7)
                kinds |= {kind for kind, _ in rows.keys}
        assert kinds == set(BarrierKind)

    def test_tangentially_moving_obstacle(self):
        # A ball 5 mm from the resting tip sphere, passing it at 2 m/s: h's
        # second derivative is |v|^2 / |d| = 4 / 0.185, all from the
        # obstacle's motion (the q-only curvature is 0 at rest).
        model = two_link_planar(0.4, 0.35, bodies=[
            CollisionBody("tip", 1, 0.06, np.zeros(3), np.zeros(3))])
        q = np.array([0.3, 0.9])
        tip = link_point(forward_kinematics(model, q), 1, np.zeros(3))
        centre = tip + np.array([0.0, 0.0, 0.185])
        ball = CollisionBody("ball", -1, 0.12, centre, centre)
        for qd in (np.zeros(2), np.array([0.7, -1.3])):
            state = JointState(q=q, qd=qd)
            obstacles = [Obstacle(body=ball, velocity=np.array([2.0, 0.0, 0.0]))]
            config = FilterConfig(mode=FilterMode.ECBF)
            collected = collect(model, state, obstacles, config, [])
            rows = ecbf(model, state, collected)
            _, curv_ref = ecbf_rows_fd(model, state, obstacles, config, [])
            curv = curvatures(rows, collected)
            np.testing.assert_allclose(curv, curv_ref, rtol=1e-6, atol=1e-7)
            if not qd.any():
                i = rows.keys.index((BarrierKind.OBJECT_COLLISION, "tip|ball"))
                assert curv[i] == pytest.approx(4.0 / 0.185, rel=1e-12)


class TestEcbfParallelSegments:
    """For parallel segments the witness pair is not unique; A's witness is
    held (no sliding) and B's slides along B."""

    def setup_method(self):
        # a capsule along link 0 of a planar arm, and a world rod parallel to it
        self.arm = CollisionBody("arm", 0, 0.03, np.array([-0.3, 0.0, 0.0]),
                                 np.array([-0.1, 0.0, 0.0]))
        self.model = two_link_planar(0.4, 0.35, bodies=[self.arm])
        self.config = FilterConfig(mode=FilterMode.ECBF)

    def rod(self, q0, offset):
        """World rod parallel to link 0 at angle q0, shifted by ``offset``."""
        axis = np.array([math.cos(q0), math.sin(q0), 0.0])
        return CollisionBody("rod", -1, 0.03, offset + 0.05 * axis, offset + 0.4 * axis)

    def test_exact_while_segments_stay_parallel(self):
        # robot at rest, rod translating along and across itself: h is the
        # line distance throughout, and the closed form matches it
        q = np.array([0.4, 0.2])
        state = JointState(q=q, qd=np.zeros(2))
        rod = self.rod(0.4, np.array([-0.05, 0.12, 0.03]))
        obstacles = [Obstacle(body=rod, velocity=np.array([0.8, -0.5, 0.6]))]
        collected = collect(self.model, state, obstacles, self.config, [])
        rows = ecbf(self.model, state, collected)
        _, curv_ref = ecbf_rows_fd(self.model, state, obstacles, self.config, [])
        i = rows.keys.index((BarrierKind.OBJECT_COLLISION, "arm|rod"))
        assert abs(curvatures(rows, collected)[i]) > 1.0
        assert curvatures(rows, collected)[i] == pytest.approx(curv_ref[i], rel=1e-6)

    def test_rotating_segment_holds_its_witness(self):
        # the arm turns out of parallel: the row's curvature is that of the
        # distance from the arm's material witness point to the rod
        q = np.array([0.4, 0.2])
        qd = np.array([1.5, 0.0])
        state = JointState(q=q, qd=qd)
        rod = self.rod(0.4, np.array([0.02, 0.0, 0.1]))
        obstacles = [Obstacle(body=rod, velocity=np.zeros(3))]
        collected = collect(self.model, state, obstacles, self.config, [])
        i = collected.keys.index((BarrierKind.OBJECT_COLLISION, "arm|rod"))
        witness = collected.witness[i].proximity.point_a
        fk = forward_kinematics(self.model, q)
        r00, r01, r02, r10, r11, r12, r20, r21, r22 = fk.rot[0]
        rel = np.asarray(witness) - np.asarray(fk.pos[0])
        local = np.array([[r00, r01, r02], [r10, r11, r12], [r20, r21, r22]]).T @ rel

        def distance(tau):
            point = link_point(forward_kinematics(self.model, q + tau * qd), 0, local)
            a, b = np.asarray(rod.p0), np.asarray(rod.p1)
            t = np.clip((point - a) @ (b - a) / ((b - a) @ (b - a)), 0.0, 1.0)
            return float(np.linalg.norm(point - (a + t * (b - a))))

        step = 1e-4
        held = (distance(step) - 2.0 * distance(0.0) + distance(-step)) / step**2
        rows = ecbf(self.model, state, collected)
        assert curvatures(rows, collected)[i] == pytest.approx(held, rel=1e-5)
