import numpy as np
import pytest

from issf_wbc.model import load_robot, scale_link_masses
from issf_wbc.scenario import data_path

from conftest import dynamics_arrays, near_identity_chain, random_chain
from fastdyn_oracle import joint_dynamics_reference


def assert_bitwise(actual, expected):
    np.testing.assert_array_equal(actual, expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()      # signed zeros too


def assert_same_dynamics(model, q, qd, g):
    mass, bias = dynamics_arrays(model, q, qd, g)
    mass_ref, bias_ref = joint_dynamics_reference(model, q, qd, g)
    assert_bitwise(mass, mass_ref)
    assert_bitwise(bias, bias_ref)


class TestAgainstNestedLoopKernel:
    """The straight-line kernel returns the same bits as the nested-loop one."""

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
        # At q = qd = g = 0 the kernel has folded the operations on exact
        # zeros, so it equals the nested loop except, at most, in the sign
        # of an entry that is zero in both.
        models = [random_chain(rng, n) for n in range(1, 8)]
        models += [random_chain(rng, n, planar=True) for n in range(1, 8)]
        models += [load_robot(data_path(name)) for name in ("planar3.robot", "arm7.robot")]
        for model in models:
            n = model.n_dof
            got = dynamics_arrays(model, np.zeros(n), np.zeros(n), np.zeros(3))
            expected = joint_dynamics_reference(model, np.zeros(n), np.zeros(n), np.zeros(3))
            for a, b in zip(np.concatenate([x.ravel() for x in got]),
                            np.concatenate([x.ravel() for x in expected])):
                assert a == b, model.name
                assert a.tobytes() == b.tobytes() or a == b == 0.0, model.name
        model = random_chain(rng, 5)
        mass, bias = dynamics_arrays(model, rng.uniform(-1, 1, 5), np.zeros(5), np.zeros(3))
        np.testing.assert_array_equal(bias, 0.0)
        assert np.array_equal(mass, mass.T)

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
        ref_mass, ref_bias = joint_dynamics_reference(model, q, qd, np.array([0.0, 0.0, -9.81]))
        assert_bitwise(np.array(mass), ref_mass)
        assert_bitwise(np.array(bias), ref_bias)
