import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from issf_wbc.dynwbc import DynWbcWeights
from issf_wbc.geometry import CollisionBody
from issf_wbc.model import (
    JointSpec,
    JointState,
    LinkSpec,
    RobotModel,
    scale_link_masses,
)
from issf_wbc.safety import FilterConfig, FilterMode, Obstacle
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
    SimConfig,
    SimulationDivergedError,
    TorquePulse,
    run_closed_loop,
    step_physics,
)

from conftest import random_chain, two_link_planar
from dynamics_oracle import bias_forces, kinetic_energy, mass_matrix

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
        name="mini", robot=model, robot_path=None,
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
        state = JointState(q=np.array([0.02]), qd=np.zeros(1))
        crossings = []
        for _ in range(int(3.0 / 1e-4)):
            prev = state.q[0]
            state = step_physics(model, state, np.zeros(1), GRAVITY, 1e-4)
            if prev > 0.0 >= state.q[0]:
                crossings.append(state.t)
        period = np.mean(np.diff(crossings))
        assert period == pytest.approx(expected, rel=0.01)

    def test_free_motion_conserves_energy(self, rng):
        # tau = 0, gravity = 0: kinetic energy drift < 0.1% over 10 s (RK4)
        model = random_chain(rng, 2)
        state = JointState(q=rng.uniform(-1, 1, 2), qd=np.array([0.8, -0.5]))
        e0 = kinetic_energy(model, state.q, state.qd)
        for _ in range(10000):
            state = step_physics(model, state, np.zeros(2), np.zeros(3), 1e-3,
                                 Integrator.RK4)
        e1 = kinetic_energy(model, state.q, state.qd)
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
        state = step_physics(plant, JointState(q=q, qd=np.zeros(3)), tau, GRAVITY, dt)
        np.testing.assert_allclose(state.qd / dt, expected, rtol=1e-3)

    def test_divergence_aborts_with_diagnostic(self):
        model = point_pendulum()
        state = JointState(q=np.zeros(1), qd=np.zeros(1))
        with pytest.raises(SimulationDivergedError, match="non-finite"):
            step_physics(model, state, np.array([1e308]), GRAVITY, 1.0)

    def test_rk4_matches_euler_in_limit(self):
        model = point_pendulum()
        s_euler = JointState(q=np.array([0.3]), qd=np.zeros(1))
        s_rk4 = JointState(q=np.array([0.3]), qd=np.zeros(1))
        for _ in range(2000):
            s_euler = step_physics(model, s_euler, np.zeros(1), GRAVITY, 1e-5)
            s_rk4 = step_physics(model, s_rk4, np.zeros(1), GRAVITY, 1e-5, Integrator.RK4)
        np.testing.assert_allclose(s_euler.q, s_rk4.q, atol=1e-5)


class TestKalman:
    def test_stationary_velocity_converges_to_zero(self):
        kf = ConstantVelocityKalman(meas_std=0.0)
        pos = np.array([1.0, 2.0, 3.0])
        for _ in range(100):
            est = kf.update(pos, 5e-4)
        assert np.abs(est.velocity).max() < 1e-6

    def test_constant_velocity_convergence(self):
        kf = ConstantVelocityKalman(meas_std=0.0)
        vel = np.array([0.5, 0.0, 0.0])
        for k in range(200):
            est = kf.update(vel * k * 5e-4, 5e-4)
        assert est.velocity[0] == pytest.approx(0.5, rel=0.01)

    def test_noisy_velocity_error_below_riccati_bound(self, rng):
        std = 0.005
        dt = 5e-4
        kf = ConstantVelocityKalman(meas_std=std, process_noise=1e-2)
        vel = np.array([0.4, -0.2, 0.1])
        errors = []
        for k in range(4000):
            truth = vel * k * dt
            est = kf.update(truth + rng.normal(0.0, std, 3), dt)
            if k > 1000:
                errors.append(est.velocity - vel)
        empirical = np.std(np.array(errors), axis=0)
        predicted = math.sqrt(kf.P[3, 3])   # converged Riccati covariance
        assert np.all(empirical < 1.2 * predicted)

    def test_covariance_stays_symmetric_psd(self, rng):
        kf = ConstantVelocityKalman(meas_std=0.01)
        for k in range(200):
            est = kf.update(rng.normal(size=3), 1e-3)
        assert np.abs(est.covariance - est.covariance.T).max() < 1e-12
        assert np.linalg.eigvalsh(est.covariance).min() > 0.0


class KalmanPerUpdateReference(ConstantVelocityKalman):
    """The update as written before F and Q were cached: both rebuilt per call."""

    def update(self, measurement, dt):
        z = np.asarray(measurement, dtype=float)
        eye3 = np.eye(3)
        if self.x is None:
            self.x = np.concatenate([z, np.zeros(3)])
            self.P = np.block([
                [self.r * eye3, np.zeros((3, 3))],
                [np.zeros((3, 3)), 1.0 * eye3],
            ])
        else:
            F = np.block([[eye3, dt * eye3], [np.zeros((3, 3)), eye3]])
            Q = self.q * np.block([
                [dt ** 3 / 3.0 * eye3, dt ** 2 / 2.0 * eye3],
                [dt ** 2 / 2.0 * eye3, dt * eye3],
            ])
            self.x = F @ self.x
            self.P = F @ self.P @ F.T + Q
            S = self.P[:3, :3] + self.r * eye3
            K = np.linalg.solve(S.T, self.P[:, :3].T).T
            self.x = self.x + K @ (z - self.x[:3])
            self.P = self.P - K @ self.P[:3, :]
        return self.x[:3].copy(), self.x[3:].copy(), self.P.copy()


class TestKalmanAgainstPerUpdateReference:
    @pytest.mark.parametrize("meas_std,process_noise", [(0.005, 1e-2), (0.0, 0.3)])
    def test_bitwise_equal_when_dt_changes_midway(self, rng, meas_std, process_noise):
        kf = ConstantVelocityKalman(meas_std, process_noise)
        ref = KalmanPerUpdateReference(meas_std, process_noise)
        dts = [5e-4] * 150 + [1e-3] * 100 + [5e-4] * 50 + [2.5e-4, 1e-3, 5e-4] * 20
        for k, dt in enumerate(dts):
            z = np.array([0.4, -0.2, 0.1]) * k * dt + rng.normal(0.0, 0.005, 3)
            est = kf.update(z, dt)
            pos, vel, cov = ref.update(z, dt)
            assert est.position.tobytes() == pos.tobytes()
            assert est.velocity.tobytes() == vel.tobytes()
            assert est.covariance.tobytes() == cov.tobytes()


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
        original = TorquePulse.at

        def at(self, t, n):
            tau = original(self, t, n)
            applied.append(tau is self.torque)
            return tau

        monkeypatch.setattr(TorquePulse, "at", at)
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
        assert trace.relaxed.any()


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
            state = JointState(q=scenario.q0.copy(), qd=scenario.qd0.copy())
            for k in range(trace.cycles):
                tau_cmd, rec = controller.step(state, k * dt, [])
                assert trace.q[k].tobytes() == state.q.tobytes()
                assert trace.qdot_des[k].tobytes() == rec.qdot_des.tobytes()
                assert trace.qdot_safe[k].tobytes() == rec.filtered.qdot_safe.tobytes()
                assert trace.tau_cmd[k].tobytes() == tau_cmd.tobytes()
                assert trace.qp_status[k] == rec.filtered.status
                for _ in range(scenario.sim.substeps):
                    # + the (zero) external torque, as run_closed_loop adds it
                    state = step_physics(plant, state, tau_cmd + np.zeros(2), GRAVITY,
                                         scenario.sim.dt_physics)
            assert trace.cycles == 200
            if mode is FilterMode.ISSF_CBF:
                assert not np.array_equal(trace.qdot_safe, trace.qdot_des)
            else:
                assert np.isfinite(trace.h_e_min).all()

    def test_one_pose_per_step(self, monkeypatch):
        # IK, the barrier rows and the torque QP's dynamics share the step's
        # pose; only ecbf mode poses the robot again, once per curvature probe.
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
                assert len(calls) == (3 if mode is FilterMode.ECBF else 1), (name, mode)


def config_kinds():
    from issf_wbc.safety import BarrierKind
    return BarrierKind
