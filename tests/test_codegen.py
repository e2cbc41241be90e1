"""The generated straight-line kernels against the loops they replace."""

import linecache
import math
import os
import subprocess
import sys
import tracemalloc
import traceback
from pathlib import Path

import numpy as np
import pytest

from issf_wbc._codegen import (
    Expr, NotPositiveDefinite, cholesky, cholesky_solve, expr_kernel, solve_lower, solve_upper,
)
from issf_wbc._fastdyn import _dynamics_kernel, _inertial, joint_dynamics
from issf_wbc.model import _fk, _fk_kernel, _frames, load_robot, scale_link_masses
from issf_wbc.scenario import data_path, load_scenario
from issf_wbc.sim import _qdd

import linalg_oracle
from conftest import assert_dynamics_agree, near_identity_chain, random_chain
from kinematics_oracle import fk_loop
from world_dynamics_oracle import dynamics_trace


def random_spd(rng, n):
    f = rng.normal(size=(n, n))
    return (f @ f.T + 0.1 * np.eye(n)).tolist()


def as_bytes(rows):
    return [np.array(row, dtype=float).tobytes() for row in rows]


def flat(fk):
    return [value for group in fk for entry in group for value in entry]


class TestCholeskyKernels:
    @pytest.mark.parametrize("n", range(9))
    def test_factor_and_solves_byte_equal_to_loops(self, rng, n):
        for _ in range(50):
            M = random_spd(rng, n)
            L = cholesky[n](M)
            assert as_bytes(L) == as_bytes(linalg_oracle.cholesky_rows(M))
            a = rng.normal(size=n).tolist()
            assert as_bytes([solve_lower[n](L, a)]) == as_bytes([linalg_oracle.solve_lower(L, a)])
            assert as_bytes([solve_upper[n](L, a)]) == as_bytes([linalg_oracle.solve_upper(L, a)])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_bad_pivot_index_matches_loop(self, rng, n):
        seen = set()
        for _ in range(60):
            f = rng.normal(size=(n, n))
            eig = rng.choice([-1.0, 0.0, 1.0], size=n, p=[0.2, 0.2, 0.6])
            q, _ = np.linalg.qr(f)
            M = (q @ np.diag(eig) @ q.T).tolist()
            if rng.random() < 0.1:
                i = int(rng.integers(0, n))
                M[i][i] = np.nan
            try:
                linalg_oracle.cholesky_rows(M)
                expected = None
            except linalg_oracle.PivotError as exc:
                expected = exc.index
            try:
                cholesky[n](M)
                got = None
            except NotPositiveDefinite as exc:
                got = exc.index
            assert got == expected, M
            seen.add(got)
        assert len(seen - {None}) >= 1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_cholesky_solve_byte_equal_to_factor_then_solves(self, rng, n):
        # The one kernel is the loops' factor, forward and back substitution;
        # on a matrix that is not positive definite, the same pivot raises.
        for _ in range(50):
            M = random_spd(rng, n)
            a = rng.normal(size=n).tolist()
            L = linalg_oracle.cholesky_rows(M)
            expected = linalg_oracle.solve_upper(L, linalg_oracle.solve_lower(L, a))
            assert as_bytes([cholesky_solve[n](M, a)]) == as_bytes([expected])
        seen = set()
        for _ in range(60):
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            eig = rng.choice([-1.0, 0.0, 1.0], size=n, p=[0.3, 0.2, 0.5])
            M = (q @ np.diag(eig) @ q.T).tolist()
            try:
                linalg_oracle.cholesky_rows(M)
                continue
            except linalg_oracle.PivotError as exc:
                expected = exc.index
            with pytest.raises(NotPositiveDefinite) as err:
                cholesky_solve[n](M, [1.0] * n)
            assert err.value.index == expected
            seen.add(expected)
        assert seen

    @pytest.mark.parametrize("n", range(9))
    def test_factor_agrees_with_column_order_factor(self, rng, n):
        for _ in range(50):
            M = random_spd(rng, n)
            L = cholesky[n](M)
            ref = linalg_oracle.cholesky_columns(M)
            for row, ref_row in zip(L, ref):
                np.testing.assert_allclose(row, ref_row, rtol=1e-12,
                                           atol=1e-12 * np.abs(ref_row).max())

    def test_plant_solve_is_the_fused_loop(self, rng):
        # _qdd's factor and two substitutions give the former fused loop's bytes.
        for n in range(1, 8):
            for _ in range(10):
                model = random_chain(rng, n)
                q, qd = rng.uniform(-3, 3, n).tolist(), rng.uniform(-4, 4, n).tolist()
                tau, g = (rng.normal(size=n) * 5).tolist(), (rng.normal(size=3) * 5).tolist()
                mass, bias = joint_dynamics(model, q, qd, g)
                expected = linalg_oracle.qdd_fused(mass, tau, bias)
                got = _qdd(model, q, qd, tau, g, 0.0)
                assert np.array(got).tobytes() == np.array(expected).tobytes()

    def test_traceback_names_the_kernel_and_its_size(self):
        with pytest.raises(NotPositiveDefinite) as err:
            cholesky[3]([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
        assert err.value.index == 1
        frame = traceback.extract_tb(err.tb)[-1]
        assert frame.filename == "<cholesky_3>"
        assert "raise NotPositiveDefinite(1)" in frame.line


def negation_loop(x, y):
    """The negations that ``Expr`` folds away."""
    return [-(-x), -(x * 3.0), -(3.0 * x), -(y * -1.0), x + -(-y)]


def test_negation_folds_keep_the_loop_bits(rng):
    kernel = expr_kernel("negations", {"v": ["x", "y"]}, "[" + ", ".join(["{}"] * 5) + "]",
                         lambda: negation_loop(Expr.input("x"), Expr.input("y")))
    assert "-(" not in "".join(linecache.getlines("<negations>"))
    values = [0.0, -0.0, 1.5, -2.5, math.inf, -math.inf, *rng.normal(size=6)]
    for x in values:
        for y in values:
            got, expected = kernel([x, y]), negation_loop(x, y)
            assert np.array(got).tobytes() == np.array(expected).tobytes(), (x, y)


def fk_models(rng):
    models = [random_chain(rng, n) for n in range(1, 8) for _ in range(3)]
    models += [random_chain(rng, n, planar=True) for n in range(1, 8)]
    models += [near_identity_chain(rng)]
    models += [load_scenario(data_path(name)).robot
               for name in ("hand_track.scenario", "obstacle_track.scenario")]
    return models


class TestFkKernel:
    def test_random_poses_byte_equal_to_loop(self, rng):
        for model in fk_models(rng):
            frames = _frames(model)
            for _ in range(40):
                q = rng.uniform(-3.5, 3.5, model.n_dof).tolist()
                got, expected = flat(_fk(model, q)), flat(fk_loop(frames, q))
                assert got == expected
                assert np.array(got).tobytes() == np.array(expected).tobytes(), model.name

    def test_zero_angles_differ_at_most_in_the_sign_of_zero(self, rng):
        for model in fk_models(rng):
            frames = _frames(model)
            for q in ([0.0] * model.n_dof, [-0.0] * model.n_dof,
                      [(0.0, -0.0)[i % 2] for i in range(model.n_dof)]):
                got, expected = flat(_fk(model, q)), flat(fk_loop(frames, q))
                assert got == expected
                for a, b in zip(got, expected):
                    assert np.array(a).tobytes() == np.array(b).tobytes() or a == b == 0.0

    def test_one_kernel_per_kinematics(self):
        # The nominal model, its mass-scaled plant and a freshly loaded copy
        # have the same kinematic constants, so they share one kernel.
        path = data_path("obstacle_track.scenario")
        nominal = load_scenario(path).robot
        plant = scale_link_masses(nominal, 1.3)
        fresh = load_scenario(path).robot
        kernel = _fk_kernel(_frames(nominal))
        assert _fk_kernel(_frames(plant)) is kernel
        assert _fk_kernel(_frames(fresh)) is kernel
        assert _fk_kernel(_frames(load_scenario(data_path("hand_track.scenario")).robot)) \
            is not kernel


def dynamics_loop(model, q, qd, g):
    """The world-frame loop the dynamics kernel once unrolled, run on floats:
    FK, then ``dynamics_trace``."""
    return dynamics_trace(_inertial(model), fk_loop(_frames(model), q), qd, g)


def dynamics_models(rng):
    models = fk_models(rng)
    bundled = models[-2:]       # fk_models ends with the two bundled robots
    return models + [scale_link_masses(model, 1.2) for model in bundled]


class TestDynamicsKernel:
    def test_random_states_agree_with_loop(self, rng):
        for model in dynamics_models(rng):
            n = model.n_dof
            for _ in range(20):
                q, qd = rng.uniform(-3.5, 3.5, n).tolist(), rng.uniform(-4, 4, n).tolist()
                g = (rng.normal(size=3) * 5).tolist()
                mass, bias = joint_dynamics(model, q, qd, g)
                assert_dynamics_agree((mass, bias), dynamics_loop(model, q, qd, g), model.name)
                assert mass == [list(col) for col in zip(*mass)], model.name

    def test_rest_and_zero_gravity(self, rng):
        # Without velocity and gravity every bias term is a product with a
        # zero input, so h is exactly zero (of either sign).
        for model in dynamics_models(rng):
            n = model.n_dof
            for q, qd, g in (([0.0] * n, [0.0] * n, [0.0] * 3),
                             ([-0.0] * n, [-0.0] * n, [-0.0] * 3),
                             ([0.0] * n, [0.0] * n, [0.0, 0.0, -9.81]),
                             (rng.uniform(-1, 1, n).tolist(), [0.0] * n, [0.0] * 3)):
                mass, bias = joint_dynamics(model, q, qd, g)
                assert_dynamics_agree((mass, bias), dynamics_loop(model, q, qd, g), model.name)
                assert mass == [list(col) for col in zip(*mass)], model.name
                if not any(g):
                    assert bias == [0.0] * n, model.name

    def test_one_kernel_per_set_of_constants(self):
        # A reloaded model shares the nominal model's kernel; the mass-scaled
        # plant has the same kinematics but its own inertial constants.
        path = data_path("obstacle_track.scenario")
        nominal = load_scenario(path).robot
        plant = scale_link_masses(nominal, 1.3)
        fresh = load_scenario(path).robot
        kernel = _dynamics_kernel(_frames(nominal), _inertial(nominal))
        assert _dynamics_kernel(_frames(fresh), _inertial(fresh)) is kernel
        assert _dynamics_kernel(_frames(plant), _inertial(plant)) is not kernel
        assert _fk_kernel(_frames(plant)) is _fk_kernel(_frames(nominal))

    def test_traceback_names_the_generated_line(self):
        # arm7's kernel is a chain of functions; qd6 is first read in a later link.
        model = load_robot(data_path("arm7.robot"))
        kernel = _dynamics_kernel(_frames(model), _inertial(model))
        with pytest.raises(TypeError) as err:
            joint_dynamics(model, [0.1] * 7, [0.2] * 6 + ["x"], [0.0, 0.0, -9.81])
        frame = traceback.extract_tb(err.tb)[-1]
        assert frame.filename == f"<{kernel.__name__}>"
        assert frame.name.startswith(kernel.__name__ + "_")
        assert "qd6" in frame.line
        assert linecache.getline(frame.filename, frame.lineno).strip() == frame.line

    def test_generation_memory_budget(self):
        model = load_robot(data_path("arm7.robot"))
        frames, inertial = _frames(model), _inertial(model)
        tracemalloc.start()
        try:
            _dynamics_kernel.__wrapped__(frames, inertial)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


NAMES_SCRIPT = """
from issf_wbc._fastdyn import _dynamics_kernel, _inertial
from issf_wbc.model import _fk_kernel, _frames, load_robot
from issf_wbc.scenario import data_path
for name in ("planar3.robot", "arm7.robot"):
    model = load_robot(data_path(name))
    print(_fk_kernel(_frames(model)).__name__,
          _dynamics_kernel(_frames(model), _inertial(model)).__name__)
"""


def test_kernel_names_are_the_same_in_every_process():
    # Both bundled robots have identity origin rotations, which _frames
    # stores as None: a name digested from hash() differed between runs.
    src = str(Path(__file__).resolve().parents[1] / "src")
    names = [subprocess.run([sys.executable, "-c", NAMES_SCRIPT], check=True, text=True,
                            capture_output=True,
                            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                            ).stdout
             for seed in ("0", "1")]
    assert names[0] == names[1]
    assert len(set(names[0].split())) == 4
