import math

import numpy as np
import pytest

from issf_wbc.model import (
    JointSpec,
    LinkSpec,
    ModelError,
    RobotModel,
    forward_kinematics,
    load_robot,
    scale_link_masses,
)
from issf_wbc.scenario import data_path

import kinematics_oracle
from conftest import dynamics_arrays, near_identity_chain, random_chain
from kinematics_oracle import jacobian_rows, link_point
from dynamics_oracle import bias_forces, kinetic_energy, mass_matrix, potential_energy

GRAVITY = np.array([0.0, 0.0, -9.81])


def unit_chain(n, offset=(1.0, 0.0, 0.0), axis=(0.0, 0.0, 1.0)):
    links = tuple(
        LinkSpec(mass=1.0, com=np.zeros(3), inertia=np.eye(3) * 1e-3, parent=i - 1,
                 origin_xyz=np.asarray(offset, dtype=float))
        for i in range(n)
    )
    joints = tuple(JointSpec(axis=np.asarray(axis, dtype=float)) for _ in range(n))
    return RobotModel(f"unit{n}", links, joints)


class TestForwardKinematics:
    def test_zero_configuration_unit_offsets(self):
        fk = forward_kinematics(unit_chain(2), np.zeros(2))
        np.testing.assert_allclose(fk.pos[-1], [2.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(np.reshape(fk.rot[-1], (3, 3)), np.eye(3), atol=1e-12)

    def test_planar_right_angle(self):
        fk = forward_kinematics(unit_chain(2), np.array([np.pi / 2, 0.0]))
        np.testing.assert_allclose(fk.pos[-1], [0.0, 2.0, 0.0], atol=1e-12)

    def test_zero_length_links_coincide_with_base(self, rng):
        model = unit_chain(3, offset=(0.0, 0.0, 0.0))
        for _ in range(5):
            fk = forward_kinematics(model, rng.uniform(-3, 3, 3))
            np.testing.assert_allclose(fk.pos, 0.0, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ModelError):
            forward_kinematics(unit_chain(2), np.zeros(3))


class TestPointJacobian:
    """The point Jacobian the cycle builds (``model._jacobian_rows``)."""

    def test_single_joint_about_z(self):
        model = unit_chain(1)
        jac = jacobian_rows(model, forward_kinematics(model, np.zeros(1)), 0, np.zeros(3))
        # frame origin sits at (1,0,0): column is z x p
        np.testing.assert_allclose(jac[:, 0], [0.0, 1.0, 0.0], atol=1e-12)

    def test_point_on_axis_zero_column(self):
        model = unit_chain(1, offset=(0.0, 0.0, 0.0))
        jac = jacobian_rows(model, forward_kinematics(model, np.array([0.7])), 0, np.zeros(3))
        np.testing.assert_allclose(jac, 0.0, atol=1e-12)

    def test_matches_finite_differences(self, rng):
        # 100 random (model, q, point) samples, central differences, step 1e-6
        worst = 0.0
        for _ in range(20):
            model = random_chain(rng, int(rng.integers(1, 6)))
            for _ in range(5):
                q = rng.uniform(-2, 2, model.n_dof)
                link = int(rng.integers(0, model.n_dof))
                point = rng.uniform(-0.4, 0.4, 3)
                jac = jacobian_rows(model, forward_kinematics(model, q), link, point)
                fd = np.zeros((3, model.n_dof))
                eps = 1e-6
                for k in range(model.n_dof):
                    qp, qm = q.copy(), q.copy()
                    qp[k] += eps
                    qm[k] -= eps
                    fd[:, k] = (
                        link_point(forward_kinematics(model, qp), link, point)
                        - link_point(forward_kinematics(model, qm), link, point)
                    ) / (2 * eps)
                scale = max(1.0, np.abs(fd).max())
                worst = max(worst, np.abs(jac - fd).max() / scale)
        assert worst < 1e-5

    def test_equals_np_cross_columns(self, rng):
        # the scalar kernel performs np.cross's IEEE operations: exact equality
        for _ in range(20):
            model = random_chain(rng, int(rng.integers(1, 8)))
            q = rng.uniform(-3, 3, model.n_dof)
            fk = forward_kinematics(model, q)
            for link in range(model.n_dof):
                point = rng.uniform(-0.4, 0.4, 3)
                jac = jacobian_rows(model, fk, link, point)
                p = link_point(fk, link, point)
                for j in range(model.n_dof):
                    expected = (np.cross(fk.joint_axis[j], p - fk.joint_origin[j])
                                if j <= link else np.zeros(3))
                    np.testing.assert_array_equal(jac[:, j], expected)


class TestAgainstNumpyKinematics:
    """The float FK and point Jacobian agree with the numpy oracle to 1e-12."""

    close = dict(rtol=0.0, atol=1e-12)

    def assert_matches_oracle(self, model, q, rng):
        fk = forward_kinematics(model, q)
        ref = kinematics_oracle.forward_kinematics(model, q)
        np.testing.assert_allclose(np.reshape(fk.rot, (-1, 3, 3)), ref.rot, **self.close)
        np.testing.assert_allclose(fk.pos, ref.pos, **self.close)
        np.testing.assert_allclose(fk.joint_axis, ref.joint_axis, **self.close)
        np.testing.assert_allclose(fk.joint_origin, ref.joint_origin, **self.close)
        for link in range(model.n_dof):
            point = rng.uniform(-0.4, 0.4, 3)
            np.testing.assert_allclose(link_point(fk, link, point),
                                       ref.link_point(link, point), **self.close)
            np.testing.assert_allclose(
                jacobian_rows(model, fk, link, point),
                kinematics_oracle.point_jacobian(model, q, link, point, fk=ref),
                **self.close)

    def test_random_chains_n1_to_7(self, rng):
        # 210 chains with random axes and non-identity origin rotations.
        for n in range(1, 8):
            for _ in range(30):
                model = random_chain(rng, n)
                for _ in range(2):
                    self.assert_matches_oracle(model, rng.uniform(-3, 3, n), rng)

    def test_planar_chains_identity_origin_rotation(self, rng):
        for n in range(1, 8):
            model = random_chain(rng, n, planar=True)
            for _ in range(5):
                self.assert_matches_oracle(model, rng.uniform(-3, 3, n), rng)

    def test_near_identity_chain(self, rng):
        model = near_identity_chain(rng)
        for _ in range(10):
            self.assert_matches_oracle(model, rng.uniform(-3, 3, 4), rng)

    @pytest.mark.parametrize("name", ["planar3.robot", "arm7.robot"])
    def test_bundled_robots(self, rng, name):
        model = load_robot(data_path(name))
        for _ in range(20):
            self.assert_matches_oracle(model, rng.uniform(model.q_min, model.q_max), rng)

    def test_fields_are_float_tuples(self, rng):
        model = random_chain(rng, 3)
        fk = forward_kinematics(model, rng.uniform(-3, 3, 3))
        for field in (fk.rot, fk.pos, fk.joint_axis, fk.joint_origin):
            assert len(field) == 3
            assert all(type(v) is float for entry in field for v in entry)


class TestDynamics:
    def pendulum(self, m=1.7, l=0.5):
        link = LinkSpec(mass=m, com=np.zeros(3), inertia=np.eye(3) * 1e-12,
                        parent=-1, origin_xyz=np.array([0.0, 0.0, -l]))
        return RobotModel("pend", (link,), (JointSpec(axis=np.array([0.0, 1.0, 0.0])),))

    def test_point_pendulum_closed_form(self):
        m, l = 1.7, 0.5
        model = self.pendulum(m, l)
        for q in (0.3, -1.2, 2.0):
            mm = mass_matrix(model, np.array([q]))
            assert mm[0, 0] == pytest.approx(m * l**2, rel=1e-9, abs=1e-9)
            h = bias_forces(model, np.array([q]), np.zeros(1), GRAVITY)
            assert h[0] == pytest.approx(m * 9.81 * l * np.sin(q), rel=1e-12)

    def test_no_velocity_no_gravity(self, rng):
        model = random_chain(rng, 4)
        h = bias_forces(model, rng.uniform(-2, 2, 4), np.zeros(4), np.zeros(3))
        np.testing.assert_allclose(h, 0.0, atol=1e-12)

    def test_mass_matrix_symmetric_positive_definite(self, rng):
        for _ in range(10):
            model = random_chain(rng, int(rng.integers(1, 7)))
            mm = mass_matrix(model, rng.uniform(-3, 3, model.n_dof))
            assert np.abs(mm - mm.T).max() < 1e-12
            assert np.linalg.eigvalsh(mm).min() > 0.0

    def test_energy_balance_under_applied_torque(self, rng):
        # d/dt(KE + PE) = qd . tau, integrated with a fine step
        model = random_chain(rng, 3)
        q = rng.uniform(-1, 1, 3)
        qd = rng.uniform(-1, 1, 3)
        tau = rng.uniform(-0.5, 0.5, 3)
        dt, steps = 1e-5, 20000
        e0 = kinetic_energy(model, q, qd) + potential_energy(model, q, GRAVITY)
        work = 0.0
        for _ in range(steps):
            mm, h = dynamics_arrays(model, q, qd, GRAVITY)
            qdd = np.linalg.solve(mm, tau - h)
            work += float(qd @ tau) * dt + 0.5 * float(qdd @ tau) * dt * dt
            q = q + qd * dt + 0.5 * qdd * dt * dt
            qd = qd + qdd * dt
        e1 = kinetic_energy(model, q, qd) + potential_energy(model, q, GRAVITY)
        assert abs((e1 - e0) - work) < 1e-4

    def test_fast_path_matches_reference(self, rng):
        for _ in range(15):
            model = random_chain(rng, int(rng.integers(1, 8)))
            q = rng.uniform(-2, 2, model.n_dof)
            qd = rng.uniform(-3, 3, model.n_dof)
            g = rng.normal(size=3) * 4
            mm, h = dynamics_arrays(model, q, qd, g)
            np.testing.assert_allclose(mm, mass_matrix(model, q), atol=1e-12)
            np.testing.assert_allclose(h, bias_forces(model, q, qd, g), atol=1e-12)

    def test_fast_path_near_identity_origin_rotation(self, rng):
        # A rotation within allclose of the identity is still not the identity.
        model = near_identity_chain(rng)
        for _ in range(5):
            q = rng.uniform(-2, 2, 4)
            qd = rng.uniform(-3, 3, 4)
            mm, h = dynamics_arrays(model, q, qd, GRAVITY)
            np.testing.assert_allclose(mm, mass_matrix(model, q), rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(h, bias_forces(model, q, qd, GRAVITY),
                                       rtol=0.0, atol=1e-12)

    def test_mass_scaling(self):
        model = self.pendulum()
        scaled = scale_link_masses(model, 1.2)
        assert scaled.links[0].mass == pytest.approx(1.2 * model.links[0].mass)
        np.testing.assert_allclose(
            mass_matrix(scaled, np.zeros(1)), 1.2 * mass_matrix(model, np.zeros(1))
        )
        for factor in (0.0, math.inf, math.nan):
            with pytest.raises(ModelError, match="mass scale must be finite and > 0"):
                scale_link_masses(model, factor)


class TestValidation:
    def test_rejects_branching_chain(self):
        link = lambda parent: LinkSpec(mass=1.0, com=np.zeros(3), inertia=np.eye(3) * 1e-3,
                                       parent=parent, origin_xyz=np.ones(3))
        joints = tuple(JointSpec(axis=np.array([0.0, 0.0, 1.0])) for _ in range(2))
        with pytest.raises(ModelError):
            RobotModel("bad", (link(-1), link(-1)), joints)

    def test_rejects_bad_limits_and_masses(self):
        good = LinkSpec(mass=1.0, com=np.zeros(3), inertia=np.eye(3) * 1e-3,
                        parent=-1, origin_xyz=np.ones(3))
        with pytest.raises(ModelError):
            RobotModel("bad", (good,), (JointSpec(axis=np.array([0.0, 0, 1]), q_min=1.0, q_max=-1.0),))
        bad_link = LinkSpec(mass=-1.0, com=np.zeros(3), inertia=np.eye(3) * 1e-3,
                            parent=-1, origin_xyz=np.ones(3))
        with pytest.raises(ModelError):
            RobotModel("bad", (bad_link,), (JointSpec(axis=np.array([0.0, 0, 1])),))


class TestRobotFile:
    @pytest.mark.parametrize("name,dof", [("planar3.robot", 3), ("arm7.robot", 7)])
    def test_bundled_models_load(self, name, dof):
        model = load_robot(data_path(name))
        assert model.n_dof == dof
        assert len(model.collision_bodies) >= 2
        mm = mass_matrix(model, np.zeros(dof))
        assert np.linalg.eigvalsh(mm).min() > 0.0

    def test_rejects_wrong_format(self, tmp_path):
        bad = tmp_path / "x.robot"
        bad.write_text('{"format": "nope", "links": [], "joints": []}')
        with pytest.raises(ModelError):
            load_robot(bad)

    def test_reports_json_position(self, tmp_path):
        bad = tmp_path / "x.robot"
        bad.write_text('{"format": "issf-wbc/robot/v1",\n  "links": [,]}')
        with pytest.raises(ModelError, match="line 2"):
            load_robot(bad)
