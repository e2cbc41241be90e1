"""The per-run barrier plan against the per-cycle versions it replaced.

``barrier_oracle`` rebuilds the catalog and poses every pair's bodies on
every call; the plan-based rows, ground-truth values and eCBF rows must equal
it byte for byte, in ecbf mode and in cbf mode (every eps inf).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import barrier_oracle
from conftest import random_chain
from kinematics_oracle import link_point
from issf_wbc import geometry, safety, sim
from issf_wbc.geometry import CollisionBody, WorkspacePair
from issf_wbc.model import JointState, forward_kinematics
from issf_wbc.safety import (
    BarrierKind,
    FilterConfig,
    FilterMode,
    Obstacle,
    PairWitness,
    _barrier_values,
    barrier_plan,
    collect_constraints,
    ecbf_rows,
)
from issf_wbc.scenario import data_path, load_scenario

ACTIVATION_DISTANCES = (0.0, 0.3, math.inf)
COLLISION_KINDS = (BarrierKind.SELF_COLLISION, BarrierKind.OBJECT_COLLISION)
ROW_ARRAYS = ("h", "grad", "alpha", "drift", "margin")


def random_case(rng, n):
    """An n-link random chain with a capsule and a sphere on random links and
    a sphere at the tip, its self-collision pairs (one against a world
    capsule), a moving ball and rod, and a workspace bound."""
    model = random_chain(rng, n)
    bodies = [CollisionBody("cap", int(rng.integers(n)), float(rng.uniform(0.03, 0.08)),
                            rng.uniform(-0.2, 0.2, 3), rng.uniform(-0.2, 0.2, 3)),
              CollisionBody("ball_on_link", int(rng.integers(n)), 0.04,
                            *[rng.uniform(-0.2, 0.2, 3)] * 2),
              CollisionBody("tip", n - 1, 0.05, np.zeros(3), np.zeros(3))]
    model = replace(model, collision_bodies=tuple(bodies))
    post = CollisionBody("post", -1, 0.05, rng.uniform(-0.4, 0.4, 3), rng.uniform(-0.4, 0.4, 3))
    pairs = [(bodies[2], bodies[0]), (bodies[1], bodies[2]), (post, bodies[0])]
    centre = rng.uniform(-0.5, 0.5, 3)
    obstacles = [
        Obstacle(body=CollisionBody("ball", -1, 0.1, centre, centre),
                 velocity=tuple(rng.normal(size=3).tolist())),
        Obstacle(body=CollisionBody("rod", -1, 0.05, centre, centre + rng.uniform(-0.3, 0.3, 3)),
                 velocity=tuple(rng.normal(size=3).tolist())),
    ]
    workspace = [WorkspacePair("reach", n - 1, rng.uniform(-0.1, 0.1, 3), 0, np.zeros(3),
                               d_max=float(rng.uniform(0.3, 1.0)))]
    return model, pairs, obstacles, workspace


def moved(obstacles, tau):
    """The obstacles' bodies ``tau`` seconds later: the truth to their estimate."""
    return [o.body.moved([tau * v for v in o.velocity]) for o in obstacles]


def assert_rows_equal(rows, expected):
    assert rows.keys == expected.keys
    for name in ROW_ARRAYS:
        got, want = np.asarray(getattr(rows, name)), getattr(expected, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    assert len(rows.witness) == len(expected.witness)
    for got, want in zip(rows.witness, expected.witness):
        if isinstance(want, PairWitness):
            assert got.body_a is want.body_a and got.body_b is want.body_b
            assert (got.segment_a, got.segment_b) == (want.segment_a, want.segment_b)
            assert got.proximity == want.proximity
            assert got.velocity_b == want.velocity_b
        else:
            assert got is want


class TestAgainstOracle:
    @pytest.mark.parametrize("activation_distance", ACTIVATION_DISTANCES)
    def test_rows_truth_and_ecbf_rows_equal_the_oracle(self, rng, activation_distance):
        active = total = 0
        for n in range(1, 8):
            model, pairs, obstacles, workspace = random_case(rng, n)
            config = FilterConfig(mode=FilterMode.ECBF, activation_distance=activation_distance)
            cbf = config.with_mode(FilterMode.CBF)
            bodies = [o.body for o in obstacles]
            plan = barrier_plan(model, config, pairs, bodies, workspace)
            cbf_plan = barrier_plan(model, cbf, pairs, bodies, workspace)
            assert plan.keys == barrier_oracle.barrier_catalog(model, pairs, bodies, workspace)
            for _ in range(4):
                q = rng.uniform(-2.0, 2.0, n)
                state = JointState(q=q, qd=rng.normal(size=n))
                fk = forward_kinematics(model, q)
                rows = collect_constraints(plan, state, fk, obstacles)
                expected = barrier_oracle.collect_constraints(
                    model, state, fk, obstacles, config, pairs, workspace)
                assert_rows_equal(rows, expected)
                assert_rows_equal(collect_constraints(cbf_plan, state, fk, obstacles),
                                  barrier_oracle.collect_constraints(
                                      model, state, fk, obstacles, cbf, pairs, workspace))

                truth = moved(obstacles, 0.01)
                got = np.array(_barrier_values(plan, q, fk, truth))
                want = barrier_oracle.barrier_values(model, q, fk, pairs, truth, workspace)
                assert got.tobytes() == want.tobytes()

                accel = ecbf_rows(state, fk, rows)
                accel_expected = barrier_oracle.ecbf_rows(state, fk, expected)
                assert accel.keys == accel_expected.keys
                for name in ("grad", "rhs", "h_e"):
                    assert (np.asarray(getattr(accel, name)).tobytes()
                            == getattr(accel_expected, name).tobytes()), name

                active += sum(kind in COLLISION_KINDS for kind, _ in rows.keys)
                total += len(plan.collisions)
        if activation_distance == 0.3:
            assert 0 < active < total     # both active and inactive rows were drawn

    def test_one_gradient_per_active_collision_row(self, rng, monkeypatch):
        calls = []
        real = safety._pair_gradient

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(safety, "_pair_gradient", counted)
        config = FilterConfig()
        for n in range(1, 8):
            model, pairs, obstacles, workspace = random_case(rng, n)
            plan = barrier_plan(model, config, pairs, [o.body for o in obstacles], workspace)
            for _ in range(4):
                q = rng.uniform(-2.0, 2.0, n)
                calls.clear()
                rows = collect_constraints(plan, JointState(q=q, qd=np.zeros(n)),
                                           forward_kinematics(model, q), obstacles)
                assert len(calls) == sum(kind in COLLISION_KINDS for kind, _ in rows.keys)


class TestDegenerateAndNonFinite:
    def setup_method(self):
        self.tip = CollisionBody("tip", 1, 0.05, np.zeros(3), np.zeros(3))
        rng = np.random.default_rng(7)
        self.model = replace(random_chain(rng, 2), collision_bodies=(self.tip,))
        self.q = np.array([0.3, -0.4])
        self.state = JointState(q=self.q, qd=np.zeros(2))
        self.fk = forward_kinematics(self.model, self.q)
        at_tip = link_point(self.fk, 1, np.zeros(3))
        self.ghost = CollisionBody("ghost", -1, 0.2, at_tip, at_tip)

    def sides(self, obstacles, config):
        """The plan-based and the oracle's collection of ``obstacles`` under
        ``config``, as functions of no argument."""
        plan = barrier_plan(self.model, config, [], [o.body for o in obstacles])
        return (lambda: collect_constraints(plan, self.state, self.fk, obstacles),
                lambda: barrier_oracle.collect_constraints(self.model, self.state, self.fk,
                                                           obstacles, config, []))

    @pytest.mark.parametrize("inactive", [False, True])
    def test_degenerate_pair_warned_and_dropped_on_both_sides(self, caplog, monkeypatch,
                                                             inactive):
        if inactive:
            # A coincident witness pair has h < 0, inside every activation
            # distance; report it beyond this one so that only the order of
            # the two checks decides whether it is warned about.
            real = geometry.closest_points

            def far(shape_a, shape_b):
                return real(shape_a, shape_b)._replace(h=1.0)

            monkeypatch.setattr(safety, "closest_points", far)
            monkeypatch.setattr(geometry, "closest_points", far)
        obstacles = [Obstacle(body=self.ghost, velocity=np.zeros(3))]
        messages = []
        for collect in self.sides(obstacles, FilterConfig()):
            caplog.clear()
            rows = collect()
            assert not any(kind is BarrierKind.OBJECT_COLLISION for kind, _ in rows.keys)
            messages.append([rec.getMessage() for rec in caplog.records])
        assert messages[0] == messages[1] == [
            "dropping object-collision row: coincident witness points for pair (tip, ghost)"]

    @pytest.mark.parametrize("activation_distance", ACTIVATION_DISTANCES)
    def test_non_finite_gradient_raises_on_both_sides(self, activation_distance):
        nan = CollisionBody("nan", -1, 0.1, np.full(3, np.nan), np.full(3, np.nan))
        obstacles = [Obstacle(body=nan, velocity=np.zeros(3))]
        messages = []
        for collect in self.sides(obstacles, FilterConfig(activation_distance=activation_distance)):
            with pytest.raises(ValueError) as raised:
                collect()
            messages.append(str(raised.value))
        assert messages[0] == messages[1] == "tip|nan: non-finite gradient"


class TestPlanOwnership:
    def test_built_once_per_run(self, monkeypatch):
        calls = []
        real = sim.barrier_plan

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(sim, "barrier_plan", counted)
        scenario = load_scenario(data_path("obstacle_track.scenario"))
        scenario = replace(scenario, sim=replace(scenario.sim, duration=0.005))
        trace = sim.run_closed_loop(scenario.robot, scenario.robot, scenario)
        assert trace.cycles == 10
        assert len(calls) == 1

    def test_obstacle_count_must_match_the_plan(self):
        model = replace(random_chain(np.random.default_rng(3), 2), collision_bodies=(
            CollisionBody("tip", 1, 0.05, np.zeros(3), np.zeros(3)),))
        plan = barrier_plan(model, FilterConfig())
        ball = CollisionBody("ball", -1, 0.1, np.ones(3), np.ones(3))
        q = np.zeros(2)
        with pytest.raises(ValueError, match="1 obstacles for a plan of 0"):
            collect_constraints(plan, JointState(q=q, qd=q), forward_kinematics(model, q),
                                [Obstacle(body=ball, velocity=np.zeros(3))])

    def test_rejects_a_pair_of_world_bodies(self):
        model = random_chain(np.random.default_rng(3), 2)
        a = CollisionBody("a", -1, 0.1, np.zeros(3), np.zeros(3))
        b = CollisionBody("b", -1, 0.1, np.ones(3), np.ones(3))
        with pytest.raises(ValueError, match=r"^a\|b: at least one body"):
            barrier_plan(model, FilterConfig(), [(a, b)])
