import numpy as np
import pytest

from issf_wbc.model import load_robot, scale_link_masses
from issf_wbc.scenario import data_path

from conftest import assert_dynamics_agree, dynamics_arrays, near_identity_chain, random_chain
from fastdyn_oracle import joint_dynamics_reference


def assert_same_dynamics(model, q, qd, g):
    mass, bias = dynamics_arrays(model, q, qd, g)
    assert_dynamics_agree((mass, bias), joint_dynamics_reference(model, q, qd, g), model.name)
    assert np.array_equal(mass, mass.T), model.name


class TestAgainstNestedLoopKernel:
    """The joint-frame kernel agrees with the world-frame nested loop to
    ``conftest.DYNAMICS_RTOL``."""

    def test_random_chains_n1_to_7(self, rng):
        # 210 chains with random axes and non-identity origin rotations.
        for n in range(1, 8):
            for _ in range(30):
                model = random_chain(rng, n)
                for _ in range(3):
                    assert_same_dynamics(
                        model, rng.uniform(-3, 3, n), rng.uniform(-4, 4, n),
                        rng.normal(size=3) * 5)

    def test_planar_chains_identity_origin_rotation(self, rng):
        for n in range(1, 8):
            model = random_chain(rng, n, planar=True)
            for _ in range(5):
                assert_same_dynamics(
                    model, rng.uniform(-3, 3, n), rng.uniform(-4, 4, n),
                    np.array([0.0, 0.0, -9.81]))

    def test_near_identity_origin_rotation(self, rng):
        model = near_identity_chain(rng)
        for _ in range(5):
            assert_same_dynamics(model, rng.uniform(-3, 3, 4), rng.uniform(-4, 4, 4),
                                 np.array([0.0, 0.0, -9.81]))

    @pytest.mark.parametrize("robot", ["planar3.robot", "arm7.robot"])
    @pytest.mark.parametrize("mass_scale", [1.0, 0.8, 1.2])
    def test_bundled_robots_and_scaled_plants(self, rng, robot, mass_scale):
        model = load_robot(data_path(robot))
        if mass_scale != 1.0:
            model = scale_link_masses(model, mass_scale)
        n = model.n_dof
        for _ in range(40):
            q = rng.uniform(model.q_min, model.q_max)
            assert_same_dynamics(model, q, rng.uniform(-3, 3, n),
                                 np.array([0.0, 0.0, -9.81]))

    def test_rest_state_and_zero_gravity(self, rng):
        # Without velocity and gravity every bias term is a product with a
        # zero input, so h is exactly zero (of either sign).
        models = [random_chain(rng, n) for n in range(1, 8)]
        models += [random_chain(rng, n, planar=True) for n in range(1, 8)]
        models += [load_robot(data_path(name)) for name in ("planar3.robot", "arm7.robot")]
        for model in models:
            n = model.n_dof
            for q in (np.zeros(n), rng.uniform(-1, 1, n)):
                mass, bias = dynamics_arrays(model, q, np.zeros(n), np.zeros(3))
                expected = joint_dynamics_reference(model, q, np.zeros(n), np.zeros(3))
                assert_dynamics_agree((mass, bias), expected, model.name)
                np.testing.assert_array_equal(bias, 0.0)
                assert np.array_equal(mass, mass.T), model.name

    def test_returns_lists_of_floats(self, rng):
        # The plant's substep runs on these lists without converting them.
        from issf_wbc._fastdyn import joint_dynamics

        model = random_chain(rng, 4)
        q, qd = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
        mass, bias = joint_dynamics(model, q.tolist(), qd.tolist(), [0.0, 0.0, -9.81])
        assert type(mass) is list and type(bias) is list and len(mass) == len(bias) == 4
        assert all(type(row) is list and len(row) == 4 for row in mass)
        assert all(type(x) is float for row in mass for x in row)
        assert all(type(x) is float for x in bias)
        assert_dynamics_agree((mass, bias), joint_dynamics_reference(
            model, q, qd, np.array([0.0, 0.0, -9.81])))
