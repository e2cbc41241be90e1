import math
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from issf_wbc.dynwbc import DynWbcWeights
from issf_wbc.geometry import CollisionBody
from issf_wbc.model import (
    JointSpec,
    JointState,
    LinkSpec,
    RobotModel,
    forward_kinematics,
    scale_link_masses,
)
from issf_wbc.safety import (
    FilterConfig,
    FilterMode,
    Obstacle,
    _barrier_values,
    barrier_plan,
    collect_constraints,
)
from issf_wbc.scenario import (
    ObstacleSpec,
    Scenario,
    TaskSpec,
    WaypointSpline,
    data_path,
    load_scenario,
)
from issf_wbc.sim import (
    ConstantVelocityKalman,
    Controller,
    Integrator,
    RunTrace,
    SimConfig,
    SimulationDivergedError,
    TorquePulse,
    _ObstacleTruth,
    run_closed_loop,
    step_physics,
)

import sim_oracle
from conftest import random_chain, two_link_planar
from dynamics_oracle import bias_forces, kinetic_energy, mass_matrix
from kalman_oracle import KalmanOracle

GRAVITY = np.array([0.0, 0.0, -9.81])


def point_pendulum(m=1.0, l=0.5):
    link = LinkSpec(mass=m, com=np.zeros(3), inertia=np.eye(3) * 1e-12,
                    parent=-1, origin_xyz=np.array([0.0, 0.0, -l]))
    return RobotModel("pend", (link,), (JointSpec(axis=np.array([0.0, 1.0, 0.0])),))


def mini_scenario(model, duration, *, tasks=(), obstacles=(), pairs=(),
                  mass_scale=1.0, seed=0, weights=None, filter_config=None,
                  dt_control=5e-4, dt_physics=1e-4, pulses=(), gravity=GRAVITY):
    sim = SimConfig(duration=duration, dt_control=dt_control, dt_physics=dt_physics,
                    mass_scale=mass_scale, seed=seed, gravity=gravity,
                    external_torque=tuple(pulses))
    return Scenario(
        name="mini", robot=model,
        q0=np.zeros(model.n_dof), qd0=np.zeros(model.n_dof),
        tasks=tuple(tasks), obstacles=tuple(obstacles), collision_pairs=tuple(pairs),
        workspace_pairs=(), filter_config=filter_config or FilterConfig(),
        weights=weights or DynWbcWeights(), sim=sim,
    )


def hold_task(model, q_hold, duration, gain=2.0):
    spline = WaypointSpline.from_knots([0.0, duration], [q_hold, q_hold])
    return TaskSpec(priority=1, spline=spline, gain=gain,
                    joints=tuple(range(model.n_dof)))


class TestStepPhysics:
    def test_pendulum_small_oscillation_period(self):
        model = point_pendulum(l=0.5)
        expected = 2 * math.pi * math.sqrt(0.5 / 9.81)
        q, qd, t = [0.02], [0.0], 0.0
        crossings = []
        for _ in range(int(3.0 / 1e-4)):
            prev = q[0]
            q, qd = step_physics(model, q, qd, [0.0], GRAVITY.tolist(), t, 1e-4)
            t += 1e-4
            if prev > 0.0 >= q[0]:
                crossings.append(t)
        period = np.mean(np.diff(crossings))
        assert period == pytest.approx(expected, rel=0.01)

    def test_free_motion_conserves_energy(self, rng):
        # tau = 0, gravity = 0: kinetic energy drift < 0.1% over 10 s (RK4)
        model = random_chain(rng, 2)
        q, qd = rng.uniform(-1, 1, 2).tolist(), [0.8, -0.5]
        e0 = kinetic_energy(model, np.array(q), np.array(qd))
        for k in range(10000):
            q, qd = step_physics(model, q, qd, [0.0, 0.0], [0.0, 0.0, 0.0], k * 1e-3, 1e-3,
                                 Integrator.RK4)
        e1 = kinetic_energy(model, np.array(q), np.array(qd))
        assert abs(e1 - e0) / e0 < 1e-3

    def test_gravity_hold_residual_matches_mismatch(self, rng):
        # controller holds with nominal gravity torque; the 20% heavier plant
        # accelerates by M_plant^-1 (h_nom - h_plant)
        nominal = random_chain(rng, 3)
        plant = scale_link_masses(nominal, 1.2)
        q = rng.uniform(-1, 1, 3)
        tau = bias_forces(nominal, q, np.zeros(3), GRAVITY)
        h_plant = bias_forces(plant, q, np.zeros(3), GRAVITY)
        expected = np.linalg.solve(mass_matrix(plant, q), tau - h_plant)
        dt = 1e-5
        _, qd = step_physics(plant, q.tolist(), [0.0] * 3, tau.tolist(), GRAVITY.tolist(),
                             0.0, dt)
        np.testing.assert_allclose(np.array(qd) / dt, expected, rtol=1e-3)

    def test_divergence_aborts_with_diagnostic(self):
        model = point_pendulum()
        with pytest.raises(SimulationDivergedError, match="non-finite"):
            step_physics(model, [0.0], [0.0], [1e308], GRAVITY.tolist(), 0.0, 1.0)

    @pytest.mark.parametrize("integrator", list(Integrator))
    def test_accelerations_match_oracle_solve(self, rng, integrator):
        # The acceleration (qd_next - qd) / dt of a step against the oracle's
        # M^-1 (tau - h); for RK4, the weighted mean of its four stages.
        # dt is a power of two, so multiplying and dividing by it is exact.
        dt = 2.0 ** -6

        def accel(model, q, qd, tau, g):
            return np.linalg.solve(mass_matrix(model, q), tau - bias_forces(model, q, qd, g))

        for n in range(1, 8):
            for _ in range(10):
                model = random_chain(rng, n)
                q, qd = rng.uniform(-3, 3, n), rng.uniform(-4, 4, n)
                tau, g = rng.normal(size=n) * 5, rng.normal(size=3) * 5
                k1 = accel(model, q, qd, tau, g)
                if integrator is Integrator.SEMI_IMPLICIT_EULER:
                    expected = k1
                else:
                    v2 = qd + 0.5 * dt * k1
                    k2 = accel(model, q + 0.5 * dt * qd, v2, tau, g)
                    v3 = qd + 0.5 * dt * k2
                    k3 = accel(model, q + 0.5 * dt * v2, v3, tau, g)
                    k4 = accel(model, q + dt * v3, qd + dt * k3, tau, g)
                    expected = (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
                _, qd_next = step_physics(model, q.tolist(), qd.tolist(), tau.tolist(),
                                          g.tolist(), 0.0, dt, integrator)
                np.testing.assert_allclose((np.array(qd_next) - qd) / dt, expected, rtol=0.0,
                                           atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("integrator", list(Integrator))
    def test_byte_equal_to_array_step(self, rng, integrator):
        # The list step with its one generated solve gives the former
        # array-based step's bytes, substep after substep, and its errors.
        dt = 1e-3
        for n in range(1, 8):
            for _ in range(5):
                model = random_chain(rng, n)
                q, qd = rng.uniform(-3, 3, n).tolist(), rng.uniform(-4, 4, n).tolist()
                tau, g = rng.normal(size=n) * 5, rng.normal(size=3) * 5
                state, t = JointState(q=np.array(q), qd=np.array(qd)), 0.0
                for _ in range(20):
                    state = sim_oracle.step_physics(model, state, tau, g, dt, integrator)
                    q, qd = step_physics(model, q, qd, tau.tolist(), g.tolist(), t, dt,
                                         integrator)
                    t += dt
                    assert np.array(q).tobytes() == state.q.tobytes()
                    assert np.array(qd).tobytes() == state.qd.tobytes()
                    assert t == state.t
        # A huge torque overflows the state (an RK4 stage takes the cosine of
        # an infinite angle first): both steps fail with the same error.
        model = point_pendulum()
        errors = []
        for step in (sim_oracle.step_physics, step_physics):
            with pytest.raises((SimulationDivergedError, ValueError)) as err:
                if step is step_physics:
                    step(model, [0.1], [0.0], [1e308], GRAVITY.tolist(), 0.5, 1.0, integrator)
                else:
                    step(model, JointState(q=np.array([0.1]), qd=np.zeros(1), t=0.5),
                         np.array([1e308]), GRAVITY, 1.0, integrator)
            errors.append((type(err.value), str(err.value)))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("integrator", list(Integrator))
    def test_singular_mass_matrix_aborts_with_time(self, integrator):
        # Link 0 is massless and inertia-free, and joint 1 turns about joint
        # 0's axis line: both joints move link 1 alone, and M = [[1, 1],
        # [1, 1]] exactly.  The model checks reject a massless link, so it is
        # swapped in after construction.
        z = JointSpec(axis=np.array([0.0, 0.0, 1.0]))
        hub = LinkSpec(mass=1.0, com=np.zeros(3), inertia=np.eye(3), parent=-1,
                       origin_xyz=np.zeros(3))
        arm = LinkSpec(mass=1.0, com=np.array([0.5, 0.0, 0.0]), inertia=np.eye(3) * 0.75,
                       parent=0, origin_xyz=np.zeros(3))
        model = RobotModel("ghost", (hub, arm), (z, z))
        object.__setattr__(model, "links",
                           (replace(hub, mass=0.0, inertia=np.zeros((3, 3))), arm))
        np.testing.assert_array_equal(mass_matrix(model, np.zeros(2)), np.ones((2, 2)))
        with pytest.raises(SimulationDivergedError, match=r"t=0\.250000 \(joint 1\)"):
            step_physics(model, [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], GRAVITY.tolist(), 0.25,
                         1e-4, integrator)

    def test_rk4_matches_euler_in_limit(self):
        model = point_pendulum()
        q_euler, qd_euler = [0.3], [0.0]
        q_rk4, qd_rk4 = [0.3], [0.0]
        g = GRAVITY.tolist()
        for k in range(2000):
            q_euler, qd_euler = step_physics(model, q_euler, qd_euler, [0.0], g, k * 1e-5, 1e-5)
            q_rk4, qd_rk4 = step_physics(model, q_rk4, qd_rk4, [0.0], g, k * 1e-5, 1e-5,
                                         Integrator.RK4)
        np.testing.assert_allclose(q_euler, q_rk4, atol=1e-5)


class TestKalman:
    def test_stationary_velocity_converges_to_zero(self):
        kf = ConstantVelocityKalman(meas_std=0.0)
        pos = np.array([1.0, 2.0, 3.0])
        for _ in range(100):
            kf.update(pos, 5e-4)
        assert np.abs(kf.velocity).max() < 1e-6

    def test_constant_velocity_convergence(self):
        kf = ConstantVelocityKalman(meas_std=0.0)
        vel = np.array([0.5, 0.0, 0.0])
        for k in range(200):
            kf.update(vel * k * 5e-4, 5e-4)
        assert kf.velocity[0] == pytest.approx(0.5, rel=0.01)

    def test_noisy_velocity_error_below_riccati_bound(self, rng):
        std = 0.005
        dt = 5e-4
        kf = ConstantVelocityKalman(meas_std=std, process_noise=1e-2)
        vel = np.array([0.4, -0.2, 0.1])
        errors = []
        for k in range(4000):
            truth = vel * k * dt
            kf.update(truth + rng.normal(0.0, std, 3), dt)
            if k > 1000:
                errors.append(kf.velocity - vel)
        empirical = np.std(np.array(errors), axis=0)
        predicted = math.sqrt(kf.P[1][1])   # converged Riccati covariance
        assert np.all(empirical < 1.2 * predicted)

    def test_covariance_stays_symmetric_psd(self, rng):
        kf = ConstantVelocityKalman(meas_std=0.01)
        for k in range(200):
            kf.update(rng.normal(size=3), 1e-3)
        cov = np.array(kf.P)
        assert np.abs(cov - cov.T).max() < 1e-12
        assert np.linalg.eigvalsh(cov).min() > 0.0


class TestKalmanAgainstOracle:
    # The 2-state filter is the 6x6 filter's arithmetic per axis, but the 6x6
    # products and the 3x3 solve round differently, so they agree to 1e-12
    # relative rather than bit for bit.  The covariance is compared on the
    # scale of the largest variance seen so far: P = P - K P[:3] cancels
    # its leading digits once the filter converges (with meas_std = 0, r is
    # clamped to 1e-12 and the prior's unit velocity variance shrinks to
    # 6e-5), so the rounding of the prior's scale stays in the difference.
    @pytest.mark.parametrize("meas_std,process_noise", [(0.005, 1e-2), (0.0, 0.3)])
    def test_matches_6x6_filter_when_dt_changes_midway(self, rng, meas_std, process_noise):
        kf = ConstantVelocityKalman(meas_std, process_noise)
        ref = KalmanOracle(meas_std, process_noise)
        dts = [5e-4] * 150 + [1e-3] * 100 + [5e-4] * 50 + [2.5e-4, 1e-3, 5e-4] * 20
        scale = 0.0
        for k, dt in enumerate(dts):
            z = np.array([0.4, -0.2, 0.1]) * k * dt + rng.normal(0.0, 0.005, 3)
            kf.update(z, dt)
            pos, vel, cov = ref.update(z, dt)
            assert np.abs(kf.position - pos).max() <= 1e-12 * np.abs(pos).max()
            assert np.abs(kf.velocity - vel).max() <= 1e-12 * np.abs(vel).max()
            scale = max(scale, np.abs(cov).max())
            # the 6x6 covariance is kron(P, I3)
            assert np.abs(np.kron(np.array(kf.P), np.eye(3)) - cov).max() <= 1e-12 * scale


class TestClosedLoop:
    def test_zero_duration_empty_trace(self, tmp_path):
        model = two_link_planar()
        scenario = mini_scenario(model, 0.0)
        trace = run_closed_loop(model, model, scenario)
        assert trace.cycles == 0
        trace.to_csv(tmp_path / "trace.csv")
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("t,")

    def test_determinism_bitwise(self, tmp_path):
        tip = CollisionBody("tip", 1, 0.05, np.zeros(3), np.zeros(3))
        model = two_link_planar(0.4, 0.4, bodies=[tip])
        obstacle = ObstacleSpec(
            body=CollisionBody("ball", -1, 0.08, np.array([0.9, 0.1, 0.0]),
                               np.array([0.9, 0.1, 0.0])),
            velocity=np.array([-0.5, 0.0, 0.0]),
            measurement_noise_std=0.005,
        )
        scenario = mini_scenario(model, 0.15, obstacles=[obstacle],
                                 tasks=[hold_task(model, np.array([0.2, -0.4]), 0.15)],
                                 seed=7)
        for name in ("a", "b"):
            run_closed_loop(model, model, scenario).to_csv(tmp_path / f"{name}.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("name", ["hand_track", "obstacle_track"])
    def test_cbf_run_is_issf_run_with_infinite_eps(self, name):
        # The plain barrier condition is the ISSf one at eps = inf: a cbf run
        # equals, array for array, an issf-cbf run with every eps inf.
        scenario = load_scenario(data_path(f"{name}.scenario"))
        scenario = replace(scenario, sim=replace(scenario.sim, duration=0.1))
        plant = scale_link_masses(scenario.robot, scenario.sim.mass_scale)
        infinite = replace(scenario, filter_config=replace(
            scenario.filter_config, epsilon=dict.fromkeys(config_kinds(), math.inf)))
        cbf, issf, own = (run_closed_loop(scenario.robot, plant, each, mode,
                                          trace_constraints=True)
                          for each, mode in ((scenario, FilterMode.CBF),
                                             (infinite, FilterMode.ISSF_CBF),
                                             (scenario, FilterMode.ISSF_CBF)))
        assert cbf.cycles == 200
        for field in fields(RunTrace):
            got, want = getattr(cbf, field.name), getattr(issf, field.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field.name
            elif field.name != "runtime_per_cycle_us":
                assert got == want, field.name
        # the scenario's own finite eps moves the right-hand sides
        assert [row.rhs for row in own.constraint_dump] != [row.rhs for row in cbf.constraint_dump]

    def test_seed_changes_noisy_trace(self, tmp_path):
        tip = CollisionBody("tip", 1, 0.05, np.zeros(3), np.zeros(3))
        model = two_link_planar(0.4, 0.4, bodies=[tip])
        obstacle = ObstacleSpec(
            body=CollisionBody("ball", -1, 0.08, np.array([0.7, 0.1, 0.0]),
                               np.array([0.7, 0.1, 0.0])),
            velocity=np.array([-0.5, 0.0, 0.0]),
            measurement_noise_std=0.01,
        )
        traces = []
        for seed in (1, 2):
            scenario = mini_scenario(model, 0.1, obstacles=[obstacle], seed=seed,
                                     tasks=[hold_task(model, np.array([0.2, -0.4]), 0.1)])
            traces.append(run_closed_loop(model, model, scenario))
        assert not np.array_equal(traces[0].qdot_safe, traces[1].qdot_safe)

    def test_ideal_acceleration_discrepancy_is_discretization_order(self):
        # Integrating qdd := qdd_safe exactly (no torque loop, no mismatch)
        # leaves dbar = O(dt).  The reference starts at rest with a
        # zero-slope spline and the tracking gain scales with the rate, so
        # only discretization remains.
        model = two_link_planar(0.4, 0.4)
        target = np.array([0.3, -0.45])
        dbars = []
        for dt_c, dt_p in ((1e-3, 2e-4), (5e-4, 1e-4)):
            spline = WaypointSpline.from_knots(
                [0.0, 0.2, 0.4], [np.zeros(2), 0.5 * target, target],
                velocities=[np.zeros(2), target / 0.4 * 1.5, np.zeros(2)])
            task = TaskSpec(priority=1, spline=spline, gain=4.0, joints=(0, 1))
            scenario = mini_scenario(model, 0.4, tasks=[task],
                                     dt_control=dt_c, dt_physics=dt_p,
                                     weights=DynWbcWeights(kd_dyn=0.8 / dt_c))
            controller = Controller(model, scenario)
            state = JointState(q=scenario.q0.copy(), qd=scenario.qd0.copy())
            dbar = 0.0
            for k in range(round(0.4 / dt_c)):
                _, rec = controller.step(state, k * dt_c, [])
                q_before = state.q
                for _ in range(scenario.sim.substeps):
                    qd = state.qd + rec.qdd_safe * dt_p
                    state = JointState(q=state.q + qd * dt_p, qd=qd, t=state.t + dt_p)
                d_k = (state.q - q_before) / dt_c - rec.filtered.qdot_safe
                dbar = max(dbar, float(np.abs(d_k).max()))
            dbars.append(dbar)
        assert dbars[1] < 0.6 * dbars[0]
        assert dbars[1] < 0.01

    def test_mass_mismatch_increases_dbar(self):
        model = two_link_planar(0.4, 0.4)
        task = hold_task(model, np.array([0.6, -0.9]), 0.5, gain=4.0)
        dbars = {}
        for scale in (1.0, 1.2):
            scenario = mini_scenario(model, 0.5, tasks=[task], mass_scale=scale)
            plant = scale_link_masses(model, scale)
            dbars[scale] = run_closed_loop(model, plant, scenario).final_dbar()
        assert dbars[1.0] < dbars[1.2]

    def test_dbar_monotone_nondecreasing(self):
        model = two_link_planar(0.4, 0.4)
        scenario = mini_scenario(model, 0.2,
                                 tasks=[hold_task(model, np.array([0.5, -0.8]), 0.2)],
                                 mass_scale=1.2)
        trace = run_closed_loop(model, scale_link_masses(model, 1.2), scenario)
        assert np.all(np.diff(trace.dbar) >= 0.0)
        np.testing.assert_allclose(trace.dbar, np.maximum.accumulate(trace.d_inf))

    def test_external_pulse_perturbs_plant(self):
        model = two_link_planar(0.4, 0.4)
        task = hold_task(model, np.zeros(2), 0.3, gain=4.0)
        pulse = TorquePulse(start=0.1, end=0.2, torque=np.array([2.0, 0.0]))
        quiet = mini_scenario(model, 0.3, tasks=[task])
        kicked = mini_scenario(model, 0.3, tasks=[task], pulses=[pulse])
        t_quiet = run_closed_loop(model, model, quiet)
        t_kicked = run_closed_loop(model, model, kicked)
        assert t_kicked.final_dbar() > t_quiet.final_dbar()

    def test_pulse_applied_on_exactly_its_window(self, monkeypatch):
        # [1e-4, 25e-4) at dt_physics 1e-4 holds substeps 1..24.  The time
        # accumulated by summing dt_physics reads 0.0024999999999999996 at
        # substep 25, so a window tested against it takes one substep too many.
        model = two_link_planar(0.4, 0.4)
        pulse = TorquePulse(start=1e-4, end=25e-4, torque=np.array([2.0, 0.0]))
        applied = []
        original = TorquePulse.active

        def active(self, t):
            on = original(self, t)
            applied.append(on)
            return on

        monkeypatch.setattr(TorquePulse, "active", active)
        run_closed_loop(model, model, mini_scenario(model, 0.005, pulses=[pulse]))
        assert len(applied) == 50
        assert [i for i, on in enumerate(applied) if on] == list(range(1, 25))

    def test_ecbf_mode_keeps_extended_barrier_nonnegative(self):
        # exact dynamics (no mismatch, no motor PD), fine dt: h_e >= -1e-4
        model = two_link_planar(0.4, 0.4)
        weights = DynWbcWeights(motor_kp=0.0, motor_kd=0.0)
        config = FilterConfig(mode=FilterMode.ECBF)
        # drive joint 0 hard into its lower limit
        target = np.array([-3.4, 0.0])
        spline = WaypointSpline.from_knots([0.0, 0.6], [target, target])
        task = TaskSpec(priority=1, spline=spline, gain=6.0, joints=(0, 1))
        scenario = mini_scenario(model, 0.6, tasks=[task], weights=weights,
                                 filter_config=config, dt_control=2e-4, dt_physics=5e-5)
        trace = run_closed_loop(model, model, scenario, mode=FilterMode.ECBF)
        assert np.nanmin(trace.h_e_min) >= -1e-4
        # and the position barrier itself stays essentially nonnegative
        jl_cols = [i for i, k in enumerate(trace.barrier_keys)
                   if k.startswith("joint-limit")]
        assert trace.h[:, jl_cols].min() >= -1e-4

    def test_relaxed_cycles_flagged_under_slack_policy(self):
        # huge ISSf margins (1/eps = 100 rad/s) make the bound rows contradict
        model = two_link_planar(0.4, 0.4)
        config = FilterConfig(slack_policy="slack",
                              alpha={k: 1.0 for k in config_kinds()},
                              epsilon={k: 0.01 for k in config_kinds()})
        task = hold_task(model, np.zeros(2), 0.05)
        scenario = mini_scenario(model, 0.05, tasks=[task], filter_config=config)
        trace = run_closed_loop(model, model, scenario)
        assert "relaxed" in trace.qp_status


class TestTraceCsv:
    # The row writers give the former per-cell writers' bytes.
    @staticmethod
    def assert_writers_match(trace, tmp_path):
        for write, oracle in ((RunTrace.to_csv, sim_oracle.to_csv),
                              (RunTrace.to_torque_csv, sim_oracle.to_torque_csv)):
            write(trace, tmp_path / "got.csv")
            oracle(trace, tmp_path / "want.csv")
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("mode", list(FilterMode))
    def test_short_run_in_each_mode(self, tmp_path, mode):
        for name in ("hand_track", "obstacle_track"):
            scenario = load_scenario(data_path(f"{name}.scenario"))
            scenario = replace(scenario, sim=replace(scenario.sim, duration=0.01))
            plant = scale_link_masses(scenario.robot, scenario.sim.mass_scale)
            trace = run_closed_loop(scenario.robot, plant, scenario, mode)
            assert trace.cycles == 20
            self.assert_writers_match(trace, tmp_path)

    def test_special_values(self, tmp_path):
        cells = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308,
                 1e300, -1e-300, 0.1, 1 / 3, 123456789.0]
        cycles, n, keys = 4, 2, ["joint-limit-min|q0", "self-collision|a-b"]
        values = iter(cells * 20)

        def block(*shape):
            return np.array([next(values) for _ in range(math.prod(shape))]).reshape(shape)

        trace = RunTrace(
            n_dof=n, barrier_keys=keys, t=block(cycles), q=block(cycles, n),
            qd=block(cycles, n), qdot_des=block(cycles, n), qdot_safe=block(cycles, n),
            tau_cmd=block(cycles, n), h=block(cycles, len(keys)), d_inf=block(cycles),
            dbar=block(cycles), qp_iters=np.array([0, 3, 17, 250]),
            qp_status=["passthrough", "optimal", "relaxed", "optimal"],
            dynamics_residual=np.zeros(cycles), h_e_min=np.full(cycles, np.nan),
            clamped=np.array([[True, False], [False, False], [True, True], [False, True]]),
        )
        self.assert_writers_match(trace, tmp_path)
        text = (tmp_path / "got.csv").read_text()
        for cell in ("-0.0", "inf", "-inf", "nan", "5e-324", "1e+300"):
            assert cell in text.replace("\n", ",").split(",")
        empty = replace(trace, t=trace.t[:0], q=trace.q[:0], qd=trace.qd[:0],
                        qdot_des=trace.qdot_des[:0], qdot_safe=trace.qdot_safe[:0],
                        tau_cmd=trace.tau_cmd[:0], h=trace.h[:0], d_inf=trace.d_inf[:0],
                        dbar=trace.dbar[:0], qp_iters=trace.qp_iters[:0], qp_status=[],
                        clamped=trace.clamped[:0])
        self.assert_writers_match(empty, tmp_path)


class TestController:
    def test_plant_loop_in_test_matches_run_closed_loop_bitwise(self):
        # The controller steps without the simulator: a plant loop written
        # here reproduces run_closed_loop's trace bit for bit, in a run where
        # the hand is driven toward a body on the upper arm.
        tip = CollisionBody("tip", 1, 0.05, np.zeros(3), np.zeros(3))
        base = CollisionBody("base", 0, 0.05, np.array([-0.3, 0.0, 0.0]), np.zeros(3))
        model = two_link_planar(0.4, 0.4, bodies=[tip, base])
        plant = scale_link_masses(model, 1.2)
        task = hold_task(model, np.array([0.0, 3.1]), 0.1, gain=8.0)
        scenario = replace(mini_scenario(model, 0.1, tasks=[task], pairs=[(tip, base)],
                                         mass_scale=1.2), q0=np.array([0.0, 2.7]))
        dt = scenario.sim.dt_control
        for mode in (FilterMode.ISSF_CBF, FilterMode.ECBF):
            trace = run_closed_loop(model, plant, scenario, mode=mode)
            controller = Controller(model, scenario, mode)
            q, qd, t = scenario.q0.tolist(), scenario.qd0.tolist(), 0.0
            for k in range(trace.cycles):
                state = JointState(q=np.array(q), qd=np.array(qd), t=t)
                tau_cmd, rec = controller.step(state, k * dt, [])
                assert trace.q[k].tobytes() == state.q.tobytes()
                assert trace.qdot_des[k].tobytes() == rec.qdot_des.tobytes()
                assert trace.qdot_safe[k].tobytes() == rec.filtered.qdot_safe.tobytes()
                assert trace.tau_cmd[k].tobytes() == tau_cmd.tobytes()
                assert trace.qp_status[k] == rec.filtered.status
                for _ in range(scenario.sim.substeps):
                    q, qd = step_physics(plant, q, qd, tau_cmd.tolist(), GRAVITY.tolist(), t,
                                         scenario.sim.dt_physics)
                    t += scenario.sim.dt_physics
            assert trace.cycles == 200
            if mode is FilterMode.ISSF_CBF:
                assert not np.array_equal(trace.qdot_safe, trace.qdot_des)
            else:
                assert np.isfinite(trace.h_e_min).all()

    def test_one_pose_per_step(self, monkeypatch):
        # IK, the barrier rows, the eCBF rows and the torque QP's dynamics
        # share the step's pose, in every mode.
        from issf_wbc import model as model_module
        original = model_module._fk
        calls = []

        def counted(model, q):
            calls.append(1)
            return original(model, q)

        for name, module in list(sys.modules.items()):
            if name.startswith("issf_wbc") and getattr(module, "_fk", None) is original:
                monkeypatch.setattr(module, "_fk", counted)
        for name in ("hand_track.scenario", "obstacle_track.scenario"):
            scenario = load_scenario(data_path(name))
            model = scenario.robot
            obstacles = [Obstacle(body=spec.body, velocity=spec.velocity)
                         for spec in scenario.obstacles]
            state = JointState(q=scenario.q0, qd=np.full(model.n_dof, 0.1))
            for mode in FilterMode:
                controller = Controller(model, scenario, mode)
                calls.clear()
                controller.step(state, 0.0, obstacles)
                assert len(calls) == 1, (name, mode)


class TestBarrierEnumerations:
    @pytest.mark.parametrize("name", ["hand_track.scenario", "obstacle_track.scenario"])
    def test_rows_catalog_and_truth_agree(self, name, rng):
        # The trace's catalog, its ground-truth values and the controller's
        # row block list the same barriers in the same order, with every row
        # active and the obstacles at their true pose.
        scenario = load_scenario(data_path(name))
        model = scenario.robot
        pairs, workspace_pairs = scenario.collision_pairs, scenario.workspace_pairs
        config = replace(scenario.filter_config, activation_distance=math.inf)
        truths = [_ObstacleTruth(spec) for spec in scenario.obstacles]
        plan = barrier_plan(model, config, pairs, [truth.spec.body for truth in truths],
                            workspace_pairs)
        empty_run = replace(scenario, sim=replace(scenario.sim, duration=0.0))
        trace = run_closed_loop(model, model, empty_run)
        assert trace.barrier_keys == [f"{kind.value}|{pair}" for kind, pair in plan.keys]
        poses = [(scenario.q0, 0.0)] + [
            (np.array([rng.uniform(j.q_min, j.q_max) for j in model.joints]),
             float(rng.uniform(0.0, scenario.sim.duration)))
            for _ in range(5)]
        for q, t in poses:
            fk = forward_kinematics(model, q)
            obstacles = [Obstacle(body=truth.at(t), velocity=truth.spec.velocity)
                         for truth in truths]
            rows = collect_constraints(plan, JointState(q=q, qd=np.zeros(model.n_dof)), fk,
                                       obstacles)
            assert rows.keys == plan.keys
            truth_h = _barrier_values(plan, q, fk, [truth.at(t) for truth in truths])
            assert rows.h.tobytes() == truth_h.tobytes()


def config_kinds():
    from issf_wbc.safety import BarrierKind
    return BarrierKind
