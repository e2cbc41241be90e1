import dataclasses

import numpy as np
import pytest

from issf_wbc.geometry import (
    CollisionBody,
    WorkspacePair,
    WorldSegment,
    closest_points,
    pose_body,
    workspace_barrier,
    workspace_barrier_value,
)
from issf_wbc.model import forward_kinematics
from issf_wbc.scenario import ObstacleSpec

import geometry_oracle
from barrier_oracle import DegenerateWitnessError, body_pair_barrier
from conftest import random_chain, two_link_planar
from kinematics_oracle import link_point, rotation_about_axis


def sphere(center, radius):
    c = np.asarray(center, dtype=float)
    return WorldSegment(a=c, b=c, radius=radius)


def capsule(a, b, radius):
    return WorldSegment(a=np.asarray(a, dtype=float), b=np.asarray(b, dtype=float),
                        radius=radius)


def ws_pair(point_a, point_b, d_max):
    """A WorkspacePair from (link, point) tuples."""
    return WorkspacePair("ws", point_a[0], point_a[1], point_b[0], point_b[1], d_max)


def random_segment(rng, max_len=0.8):
    p = rng.uniform(-1.0, 1.0, 3)
    d = rng.normal(size=3)
    d *= rng.uniform(0.0, max_len) / max(np.linalg.norm(d), 1e-12)
    return capsule(p, p + d, rng.uniform(0.02, 0.3))


def sampled_distance(seg_a, seg_b, samples=1000):
    """Dense-grid oracle: minimum pairwise distance between segment samples."""
    ta = np.linspace(0.0, 1.0, samples)[:, None]
    pa = seg_a.a * (1 - ta) + seg_a.b * ta
    pb = seg_b.a * (1 - ta) + seg_b.b * ta
    dmat = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)
    return float(dmat.min()) - seg_a.radius - seg_b.radius


class TestClosestPoints:
    def test_collinear_spheres(self):
        res = closest_points(sphere([0, 0, 0], 1.0), sphere([3, 0, 0], 1.0))
        assert res.h == pytest.approx(1.0)
        np.testing.assert_allclose(np.abs(res.normal), [1, 0, 0], atol=1e-12)
        assert res.h > 0.0

    def test_parallel_capsules_with_midpoint_tiebreak(self):
        res = closest_points(capsule([0, 0, 0], [1, 0, 0], 0.1),
                             capsule([0, 1, 0], [1, 1, 0], 0.1))
        assert res.h == pytest.approx(0.8)
        # tie broken toward the segment-A midpoint
        assert res.point_a[0] == pytest.approx(0.5)
        assert res.point_b[0] == pytest.approx(0.5)

    def test_dense_sampling_oracle_500_pairs(self, rng):
        worst = 0.0
        for _ in range(500):
            seg_a, seg_b = random_segment(rng), random_segment(rng)
            res = closest_points(seg_a, seg_b)
            worst = max(worst, abs(res.h - sampled_distance(seg_a, seg_b)))
        assert worst < 2e-3

    def test_symmetry(self, rng):
        for _ in range(100):
            seg_a, seg_b = random_segment(rng), random_segment(rng)
            assert closest_points(seg_a, seg_b).h == closest_points(seg_b, seg_a).h

    @pytest.mark.xfail(strict=True, reason="closest_points works in argument order, so "
                       "h(a, b) and h(b, a) can differ by a few ulps")
    def test_symmetry_on_every_pair(self):
        # 1-12 of each seed's 2000 pairs differ, by up to 20 ulps.
        asymmetric = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            for _ in range(2000):
                seg_a, seg_b = random_segment(rng), random_segment(rng)
                h_ab, h_ba = closest_points(seg_a, seg_b).h, closest_points(seg_b, seg_a).h
                if h_ab != h_ba:
                    asymmetric.append((seed, h_ab, h_ba))
        assert not asymmetric, f"{len(asymmetric)} of 10000 pairs: {asymmetric[:3]}"

    def test_rigid_motion_invariance(self, rng):
        for _ in range(50):
            seg_a, seg_b = random_segment(rng), random_segment(rng)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            rot = rotation_about_axis(axis, rng.uniform(-3, 3))
            shift = rng.uniform(-2, 2, 3)
            moved = [
                capsule(rot @ seg.a + shift, rot @ seg.b + shift, seg.radius)
                for seg in (seg_a, seg_b)
            ]
            assert abs(closest_points(*moved).h - closest_points(seg_a, seg_b).h) < 1e-12

    def test_translation_lipschitz(self, rng):
        # h is 1-Lipschitz in relative translation along any straight motion
        seg_a, seg_b = random_segment(rng), random_segment(rng)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        step = 1e-4
        h_prev = closest_points(seg_a, seg_b).h
        for k in range(1, 200):
            shift = direction * step * k
            moved = capsule(seg_a.a + shift, seg_a.b + shift, seg_a.radius)
            h_now = closest_points(moved, seg_b).h
            assert abs(h_now - h_prev) <= step + 1e-9
            h_prev = h_now

    def test_penetration_sign(self):
        res = closest_points(sphere([0, 0, 0], 1.0), sphere([1.5, 0, 0], 1.0))
        assert res.h == pytest.approx(-0.5)

    def test_degenerate_concentric(self):
        res = closest_points(sphere([0, 0, 0], 1.0), sphere([0, 0, 0], 0.5))
        assert res.degenerate

    def test_segment_endpoints_clamped(self, rng):
        # brute-check the raw segment routine against scipy-free sampling
        for _ in range(200):
            a0, a1 = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
            b0, b1 = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
            res = closest_points(capsule(a0, a1, 0.1), capsule(b0, b1, 0.1))
            pa, pb = res.point_a, res.point_b
            d = np.linalg.norm(np.subtract(pa, pb))
            ts = np.linspace(0, 1, 250)[:, None]
            grid = np.linalg.norm(
                (a0 * (1 - ts) + a1 * ts)[:, None, :]
                - (b0 * (1 - ts) + b1 * ts)[None, :, :], axis=2).min()
            assert d <= grid + 1e-9


CLOSE = dict(rtol=0.0, atol=1e-12)


def oracle_pair(rng, case):
    """Two segments of one kind: general, parallel, zero-length or clamped."""
    a0 = rng.uniform(-1.0, 1.0, 3)
    u = rng.normal(size=3) * rng.uniform(0.05, 0.8)
    b0 = rng.uniform(-1.0, 1.0, 3)
    v = rng.normal(size=3) * rng.uniform(0.05, 0.8)
    if case == "parallel":
        # B on a line parallel to A, overlapping A's span or not, either direction
        b0 = a0 + u * rng.uniform(-1.5, 1.5) + rng.normal(size=3) * 0.3
        v = u * rng.uniform(-1.5, 1.5)
    elif case == "zero-a":
        u = np.zeros(3)
    elif case == "zero-b":
        v = np.zeros(3)
    elif case == "zero-both":
        u = v = np.zeros(3)
    elif case == "clamped":
        # B lies beyond A's end, so s clamps to 1 and the witness on A is a1
        b0 = a0 + u * rng.uniform(2.0, 4.0) + rng.normal(size=3) * 0.2
    radii = rng.uniform(0.02, 0.3, 2)
    return capsule(a0, a0 + u, radii[0]), capsule(b0, b0 + v, radii[1])


class TestAgainstNumpyOracle:
    """Float closest points and barrier gradients agree with the numpy oracle."""

    CASES = ("general", "parallel", "zero-a", "zero-b", "zero-both", "clamped")

    def test_closest_points_600_pairs(self, rng):
        tie_broken = clamped = 0
        for i in range(600):
            case = self.CASES[i % len(self.CASES)]
            seg_a, seg_b = oracle_pair(rng, case)
            res = closest_points(seg_a, seg_b)
            ref = geometry_oracle.closest_points(seg_a, seg_b)
            assert res.h == pytest.approx(ref.h, rel=0.0, abs=1e-12)
            np.testing.assert_allclose(res.point_a, ref.point_a, **CLOSE)
            np.testing.assert_allclose(res.point_b, ref.point_b, **CLOSE)
            np.testing.assert_allclose(res.normal, ref.normal, **CLOSE)
            assert (res.h >= 0.0, res.degenerate) == (ref.h >= 0.0, ref.degenerate)
            # the cases reach the parallel tie-break and the clamps
            u = seg_a.b - seg_a.a
            s = float((ref.point_a - seg_a.a) @ u / (u @ u)) if u.any() else 0.0
            tie_broken += case == "parallel" and abs(s - 0.5) < 1e-9
            clamped += case == "clamped" and abs(s - 1.0) < 1e-9
        assert tie_broken >= 10 and clamped >= 50

    def test_body_pair_barrier_gradients(self, rng):
        checked = 0
        for _ in range(40):
            n = int(rng.integers(1, 8))
            model = random_chain(rng, n)
            bodies = []
            for i in range(4):
                p0 = rng.uniform(-0.3, 0.3, 3)
                p1 = p0 if i % 2 else p0 + rng.normal(size=3) * 0.2
                link = int(rng.integers(0, n)) if i < 3 else -1
                if link < 0:
                    p0 = rng.uniform(-1.0, 1.0, 3)
                    p1 = p0 + rng.normal(size=3) * 0.2
                bodies.append(CollisionBody(f"b{i}", link, float(rng.uniform(0.02, 0.1)),
                                            p0, p1))
            for _ in range(5):
                q = rng.uniform(-3, 3, n)
                fk = forward_kinematics(model, q)
                for a, b in [(0, 1), (1, 2), (0, 3), (3, 2)]:
                    h, grad, prox = body_pair_barrier(model, fk, bodies[a], bodies[b])
                    h_ref, grad_ref, prox_ref = geometry_oracle.body_pair_barrier(
                        model, q, bodies[a], bodies[b])
                    assert h == pytest.approx(h_ref, rel=0.0, abs=1e-12)
                    np.testing.assert_allclose(grad, grad_ref, **CLOSE)
                    np.testing.assert_allclose(prox.point_a, prox_ref.point_a, **CLOSE)
                    np.testing.assert_allclose(prox.point_b, prox_ref.point_b, **CLOSE)
                    checked += bool(np.any(grad != 0.0))
        assert checked > 500

    def test_workspace_barrier_gradients(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 8))
            model = random_chain(rng, n)
            pa = (int(rng.integers(0, n)), rng.uniform(-0.3, 0.3, 3))
            pb = (int(rng.integers(0, n)), rng.uniform(-0.3, 0.3, 3))
            d_max = float(rng.uniform(0.05, 1.5))
            for _ in range(5):
                q = rng.uniform(-3, 3, n)
                h, grad = workspace_barrier(forward_kinematics(model, q), ws_pair(pa, pb, d_max))
                h_ref, grad_ref = geometry_oracle.workspace_barrier(model, q, pa, pb, d_max)
                assert h == pytest.approx(h_ref, rel=0.0, abs=1e-12)
                np.testing.assert_allclose(grad, grad_ref, **CLOSE)


class TestBarrierJacobian:
    def setup_method(self):
        self.model = two_link_planar(0.4, 0.4)
        self.tip = CollisionBody("tip", 1, 0.05, np.zeros(3), np.zeros(3))
        self.cap0 = CollisionBody("cap0", 0, 0.04, np.array([-0.4, 0.0, 0.0]), np.zeros(3))
        self.world = CollisionBody("obs", -1, 0.1, np.array([0.5, 0.3, 0.2]),
                                   np.array([0.6, 0.4, 0.2]))

    def barrier(self, q, body_a, body_b):
        return body_pair_barrier(self.model, forward_kinematics(self.model, q), body_a, body_b)

    def test_sign_pushes_away(self):
        # one-link arm, robot sphere at the tip, world sphere directly above:
        # moving the tip away from the obstacle must increase h
        model = two_link_planar(0.5, 0.5)
        tip = CollisionBody("tip", 1, 0.05, np.zeros(3), np.zeros(3))
        above = CollisionBody("obs", -1, 0.05, np.array([1.0, 0.3, 0.0]),
                              np.array([1.0, 0.3, 0.0]))
        h, grad, _ = body_pair_barrier(model, forward_kinematics(model, np.zeros(2)), tip, above)
        # positive qd on joint 0 moves the tip toward +y (toward the obstacle)
        assert grad @ np.array([1.0, 0.0]) < 0.0
        assert grad @ np.array([-1.0, 0.0]) > 0.0

    def test_same_link_zero_jacobian(self, rng):
        b1 = CollisionBody("b1", 0, 0.02, np.array([-0.3, 0.1, 0.0]), np.array([-0.3, 0.1, 0.0]))
        b2 = CollisionBody("b2", 0, 0.02, np.array([-0.1, -0.2, 0.0]), np.array([-0.1, -0.2, 0.0]))
        for _ in range(10):
            _, grad, _ = self.barrier(rng.uniform(-2, 2, 2), b1, b2)
            np.testing.assert_allclose(grad, 0.0, atol=1e-14)

    @pytest.mark.parametrize("pair_name", ["world", "self"])
    def test_matches_finite_differences(self, rng, pair_name):
        pair = (self.tip, self.world) if pair_name == "world" else (self.tip, self.cap0)
        eps = 1e-6
        checked = 0
        worst = 0.0
        while checked < 60:
            q = rng.uniform(-2.2, 2.2, 2)
            try:
                _, grad, prox = self.barrier(q, *pair)
            except DegenerateWitnessError:
                continue
            fd = np.zeros(2)
            witness_jump = False
            for k in range(2):
                qp, qm = q.copy(), q.copy()
                qp[k] += eps
                qm[k] -= eps
                hp, _, proxp = self.barrier(qp, *pair)
                hm, _, proxm = self.barrier(qm, *pair)
                # exclude witness-point switching events (capsule end <-> interior)
                if (np.linalg.norm(np.subtract(proxp.point_b, proxm.point_b)) > 100 * eps
                        and np.linalg.norm(np.subtract(prox.point_a, prox.point_b)) > 1e-6):
                    witness_jump = True
                fd[k] = (hp - hm) / (2 * eps)
            if witness_jump:
                continue
            checked += 1
            scale = max(1.0, np.abs(fd).max())
            worst = max(worst, np.abs(grad - fd).max() / scale)
        assert worst < 1e-5

    def test_world_world_rejected(self):
        with pytest.raises(ValueError):
            self.barrier(np.zeros(2), self.world, self.world)

    def test_degenerate_raises(self):
        # obstacle centered exactly on the tip
        fk = forward_kinematics(self.model, np.zeros(2))
        tip_pos = link_point(fk, 1, np.zeros(3))
        ghost = CollisionBody("ghost", -1, 0.2, tip_pos, tip_pos)
        with pytest.raises(DegenerateWitnessError):
            self.barrier(np.zeros(2), self.tip, ghost)


class TestWorkspaceBarrier:
    def test_stretched_arm_at_bound(self):
        model = two_link_planar(0.31, 0.31)
        h, _ = workspace_barrier(forward_kinematics(model, np.zeros(2)),
                                 ws_pair((1, np.zeros(3)), (0, np.array([-0.31, 0.0, 0.0])), 0.62))
        assert h == pytest.approx(0.0, abs=1e-12)

    def test_direct_substitution(self):
        model = two_link_planar()
        h, grad = workspace_barrier(forward_kinematics(model, np.zeros(2)),
                                    ws_pair((0, np.array([0.1, 0.0, 0.0])), (0, np.zeros(3)), 0.62))
        assert h == pytest.approx(0.52)

    def test_coincident_points_interior(self):
        model = two_link_planar()
        h, grad = workspace_barrier(forward_kinematics(model, np.zeros(2)),
                                    ws_pair((1, np.zeros(3)), (1, np.zeros(3)), 0.62))
        assert h == pytest.approx(0.62)
        np.testing.assert_allclose(grad, 0.0)

    def test_matches_finite_differences(self, rng):
        model = two_link_planar(0.4, 0.35)
        pair = ws_pair((1, np.zeros(3)), (0, np.array([-0.4, 0.0, 0.0])), 0.7)
        eps = 1e-6
        worst = 0.0
        for _ in range(60):
            q = rng.uniform(-2.5, 2.5, 2)
            _, grad = workspace_barrier(forward_kinematics(model, q), pair)
            fd = np.zeros(2)
            for k in range(2):
                qp, qm = q.copy(), q.copy()
                qp[k] += eps
                qm[k] -= eps
                fd[k] = (workspace_barrier(forward_kinematics(model, qp), pair)[0]
                         - workspace_barrier(forward_kinematics(model, qm), pair)[0]) / (2 * eps)
            scale = max(1.0, np.abs(fd).max())
            worst = max(worst, np.abs(grad - fd).max() / scale)
        assert worst < 1e-5

    def test_rejects_nonpositive_dmax(self):
        # the bound is checked once, when the pair is built
        for d_max in (0.0, -0.1):
            with pytest.raises(ValueError, match="d_max"):
                ws_pair((1, np.zeros(3)), (0, np.zeros(3)), d_max)


class TestWorkspaceBarrierValue:
    """h alone equals workspace_barrier's h bit for bit, without the Jacobians."""

    def test_equals_workspace_barrier_h(self, rng):
        for _ in range(60):
            model = random_chain(rng, int(rng.integers(1, 7)))
            n = model.n_dof
            pa = (int(rng.integers(0, n)), rng.uniform(-0.3, 0.3, 3))
            pb = (int(rng.integers(0, n)), rng.uniform(-0.3, 0.3, 3))
            d_max = float(rng.uniform(0.05, 1.5))
            for _ in range(5):
                q = rng.uniform(-3, 3, n)
                fk = forward_kinematics(model, q)
                pair = ws_pair(pa, pb, d_max)
                h, _ = workspace_barrier(fk, pair)
                assert workspace_barrier_value(fk, pair) == h

    def test_coincident_points_return_d_max(self):
        model = two_link_planar()
        coincident = ws_pair((1, np.zeros(3)), (1, np.zeros(3)), 0.62)
        for q in (np.zeros(2), np.array([0.3, -1.2])):
            fk = forward_kinematics(model, q)
            h, _ = workspace_barrier(fk, coincident)
            assert workspace_barrier_value(fk, coincident) == h == 0.62
            # Within DEGENERATE_DISTANCE the value is still d_max exactly.
            near = ws_pair((1, np.zeros(3)), (1, np.array([1e-10, 0.0, 0.0])), 0.62)
            assert workspace_barrier_value(fk, near) == 0.62

    def test_rejects_nonpositive_dmax(self):
        # no pair with d_max <= 0 reaches workspace_barrier_value: editing a
        # valid pair's bound goes through the same construction check
        valid = ws_pair((1, np.zeros(3)), (0, np.zeros(3)), 0.62)
        for d_max in (0.0, -0.1):
            with pytest.raises(ValueError, match="d_max"):
                dataclasses.replace(valid, d_max=d_max)


def test_pose_body_world_passthrough():
    body = CollisionBody("w", -1, 0.1, np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 4.0]))
    fk = forward_kinematics(two_link_planar(), np.zeros(2))
    seg = pose_body(body, fk)
    np.testing.assert_allclose(seg.a, [1, 2, 3])
    np.testing.assert_allclose(seg.b, [1, 2, 4])


def test_collision_body_rejects_bad_radius():
    with pytest.raises(ValueError):
        CollisionBody("bad", 0, 0.0, np.zeros(3), np.zeros(3))


class TestFloatTuplePoints:
    """Bodies, workspace pairs and obstacle specs hold their points as float 3-tuples."""

    def test_points_stored_as_float_tuples(self):
        for points in ([1, 2, 3], np.array([1.0, 2.0, 3.0]), (1, 2.0, np.float64(3.0))):
            body = CollisionBody("b", 0, 0.1, points, points)
            pair = WorkspacePair("ws", 0, points, 1, points, 1.0)
            spec = ObstacleSpec(CollisionBody("o", -1, 0.1, points, points), points)
            for value in (body.p0, body.p1, pair.point_a, pair.point_b, spec.velocity,
                          spec.body.p0):
                assert type(value) is tuple and value == (1.0, 2.0, 3.0)
                assert all(type(x) is float for x in value)

    def test_equal_bodies_compare_equal_and_hash_alike(self):
        a = CollisionBody("b", 1, 0.1, np.array([0.1, 0.2, 0.3]), [0.4, 0.5, 0.6])
        b = CollisionBody("b", 1, 0.1, (0.1, 0.2, 0.3), np.array([0.4, 0.5, 0.6]))
        assert a == b and hash(a) == hash(b)
        assert a != dataclasses.replace(b, p1=(0.4, 0.5, 0.7))

    def test_moved_equals_numpy_shift_byte_for_byte(self, rng):
        for _ in range(200):
            p0, p1, offset = rng.normal(size=(3, 3)) * rng.uniform(1e-3, 1e3, (3, 1))
            body = CollisionBody("b", -1, 0.1, p0, p1)
            moved = body.moved(tuple(offset.tolist()))
            assert (moved.name, moved.link, moved.radius) == ("b", -1, 0.1)
            assert np.array(moved.p0).tobytes() == (p0 + offset).tobytes()
            assert np.array(moved.p1).tobytes() == (p1 + offset).tobytes()
