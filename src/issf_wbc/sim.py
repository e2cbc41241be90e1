"""Closed-loop simulation: the whole-body controller and the plant loop around it.

``Controller`` is one cycle of the controller on the nominal model.  It owns
what carries over between cycles (the two QP solvers, their warm starts and
the previous torque), and its ``step`` maps a measured state and the
estimated obstacles to a motor torque command:

    forward kinematics -> prioritized IK -> constraint collection
    -> velocity safety filter -> reference acceleration
    -> eCBF rows (ecbf mode only) -> torque QP -> motor command

The pose from the first stage is the only one a cycle computes outside ecbf
mode: IK, the barrier rows and the torque QP's dynamics all read it, and only
the two eCBF curvature probes pose the robot again.  The call to
``forward_kinematics`` at the top of ``Controller.step`` is this module's
only one (``perfbench`` counts cycles by it), so the plant and the initial
gravity torque pose through ``_fk``.

``run_closed_loop`` is the plant loop that drives it at the control rate:
sense the obstacles, step the controller, log the ground-truth barrier
values, then hold the command over the physics substeps of the full-order
dynamics qdd = M^-1 (tau - h).  The plant is a *separately scaled* model:
mass mismatch is injected only on the plant side, and the controller keeps
the nominal model.

The per-cycle discrepancy between the commanded and realized joint velocity,

    d_k = (q_{k+1} - q_k) / dt_control - qd_safe_k,

is the disturbance against which the velocity filter's robustness margin is
sized; its running max-norm dbar feeds the degradation-bound checks.
Obstacle positions are measured with seeded Gaussian noise and tracked by a
constant-velocity Kalman filter, whose velocity estimate supplies the
object-row drift term.  Runs are bitwise deterministic for a fixed seed.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ._fastdyn import joint_dynamics
from .dynwbc import motor_torque, safe_acceleration, solve_dynwbc
from .geometry import CollisionBody, closest_points, pose_body, workspace_barrier_value
from .kinwbc import prioritized_ik
from .model import FkResult, JointState, RobotModel, _fk, forward_kinematics
from .qpsolver import QpSolver
from .safety import (
    BarrierConstraint,
    BarrierKind,
    FilterMode,
    FilterResult,
    Obstacle,
    collect_constraints,
    ecbf_rows,
    filter_velocity,
)


class Integrator(enum.Enum):
    SEMI_IMPLICIT_EULER = "semi-implicit-euler"
    RK4 = "rk4"


class SimulationDivergedError(RuntimeError):
    pass


@dataclass(frozen=True)
class TorquePulse:
    """Square external-torque pulse applied to the plant (disturbance input)."""

    start: float
    end: float
    torque: np.ndarray

    def at(self, t: float, n: int) -> np.ndarray:
        if self.start <= t < self.end:
            return self.torque
        return np.zeros(n)


@dataclass(frozen=True)
class SimConfig:
    duration: float
    dt_control: float = 5e-4
    dt_physics: float = 1e-4
    mass_scale: float = 1.0
    integrator: Integrator = Integrator.SEMI_IMPLICIT_EULER
    seed: int = 0
    gravity: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, -9.81]))
    external_torque: tuple[TorquePulse, ...] = ()

    def __post_init__(self) -> None:
        if self.dt_physics > self.dt_control + 1e-15:
            raise ValueError("dt_physics must be <= dt_control")
        if self.mass_scale <= 0.0:
            raise ValueError("mass_scale must be > 0")

    @property
    def substeps(self) -> int:
        return max(1, round(self.dt_control / self.dt_physics))


def _accel(model: RobotModel, q: np.ndarray, qd: np.ndarray, tau: np.ndarray,
           gravity: np.ndarray) -> np.ndarray:
    mass, bias = joint_dynamics(model, FkResult(*_fk(model, q)), qd, gravity)
    return np.linalg.solve(mass, tau - bias)


def step_physics(
    plant_model: RobotModel,
    state: JointState,
    tau_cmd: np.ndarray,
    gravity: np.ndarray,
    dt: float,
    integrator: Integrator = Integrator.SEMI_IMPLICIT_EULER,
) -> JointState:
    """Advance the plant one physics step under a held torque command."""
    q, qd = state.q, state.qd
    if integrator is Integrator.SEMI_IMPLICIT_EULER:
        qdd = _accel(plant_model, q, qd, tau_cmd, gravity)
        qd_next = qd + qdd * dt
        q_next = q + qd_next * dt
    else:
        def f(qq, vv):
            return vv, _accel(plant_model, qq, vv, tau_cmd, gravity)

        k1q, k1v = f(q, qd)
        k2q, k2v = f(q + 0.5 * dt * k1q, qd + 0.5 * dt * k1v)
        k3q, k3v = f(q + 0.5 * dt * k2q, qd + 0.5 * dt * k2v)
        k4q, k4v = f(q + dt * k3q, qd + dt * k3v)
        q_next = q + dt / 6.0 * (k1q + 2 * k2q + 2 * k3q + k4q)
        qd_next = qd + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
    if not (np.isfinite(q_next).all() and np.isfinite(qd_next).all()):
        raise SimulationDivergedError(
            f"non-finite state at t={state.t + dt:.6f}: q={q_next}, qd={qd_next}"
        )
    return JointState(q=q_next, qd=qd_next, t=state.t + dt)


@dataclass(frozen=True)
class ObstacleEstimate:
    position: np.ndarray
    velocity: np.ndarray
    covariance: np.ndarray


class ConstantVelocityKalman:
    """Linear Kalman filter on [position; velocity] with a constant-velocity model."""

    def __init__(self, meas_std: float, process_noise: float = 1e-2):
        self.r = max(meas_std, 1e-6) ** 2
        self.q = process_noise
        self.x: np.ndarray | None = None
        self.P = np.zeros((6, 6))
        self._R = self.r * np.eye(3)
        self._models: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def _transition(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """State transition F and process noise Q over dt, built once per dt."""
        model = self._models.get(dt)
        if model is None:
            eye3 = np.eye(3)
            F = np.block([[eye3, dt * eye3], [np.zeros((3, 3)), eye3]])
            Q = self.q * np.block([
                [dt ** 3 / 3.0 * eye3, dt ** 2 / 2.0 * eye3],
                [dt ** 2 / 2.0 * eye3, dt * eye3],
            ])
            model = self._models[dt] = (F, Q)
        return model

    def update(self, measurement: np.ndarray, dt: float) -> ObstacleEstimate:
        z = np.asarray(measurement, dtype=float)
        if self.x is None:
            eye3 = np.eye(3)
            self.x = np.concatenate([z, np.zeros(3)])
            self.P = np.block([
                [self.r * eye3, np.zeros((3, 3))],
                [np.zeros((3, 3)), 1.0 * eye3],
            ])
        else:
            F, Q = self._transition(dt)
            self.x = F @ self.x
            self.P = F @ self.P @ F.T + Q
            S = self.P[:3, :3] + self._R
            K = np.linalg.solve(S.T, self.P[:, :3].T).T
            self.x = self.x + K @ (z - self.x[:3])
            self.P = self.P - K @ self.P[:3, :]
        return ObstacleEstimate(
            position=self.x[:3].copy(),
            velocity=self.x[3:].copy(),
            covariance=self.P.copy(),
        )


@dataclass
class ConstraintDumpRow:
    t: float
    kind: str
    pair: str
    h: float
    rhs: float
    active: bool


@dataclass
class RunTrace:
    """Per-cycle record of a closed-loop run plus derived metrics."""

    n_dof: int
    barrier_keys: list[str]
    t: np.ndarray
    q: np.ndarray
    qd: np.ndarray
    qdot_des: np.ndarray
    qdot_safe: np.ndarray
    tau_cmd: np.ndarray
    h: np.ndarray                       # (cycles, len(barrier_keys))
    d_inf: np.ndarray
    dbar: np.ndarray
    qp_iters: np.ndarray
    qp_status: list[str]
    dynamics_residual: np.ndarray
    h_e_min: np.ndarray                 # min over eCBF rows, nan outside ecbf mode
    relaxed: np.ndarray
    clamped: np.ndarray                 # (cycles, n_dof) per-joint clamp flags
    runtime_per_cycle_us: float = 0.0
    constraint_dump: list[ConstraintDumpRow] = field(default_factory=list)

    @property
    def cycles(self) -> int:
        return self.t.shape[0]

    def final_dbar(self) -> float:
        return float(self.dbar[-1]) if self.cycles else 0.0

    def column_names(self) -> list[str]:
        names = ["t"]
        for block in ("q", "qd", "qdot_des", "qdot_safe", "tau_cmd"):
            names += [f"{block}{i}" for i in range(self.n_dof)]
        names += [f"h:{key}" for key in self.barrier_keys]
        names += ["d_inf", "dbar", "qp_iters", "qp_status"]
        return names

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(self.column_names()) + "\n")
            for k in range(self.cycles):
                cells = [repr(float(self.t[k]))]
                for block in (self.q, self.qd, self.qdot_des, self.qdot_safe, self.tau_cmd):
                    cells += [repr(float(v)) for v in block[k]]
                cells += [repr(float(v)) for v in self.h[k]]
                cells += [
                    repr(float(self.d_inf[k])),
                    repr(float(self.dbar[k])),
                    str(int(self.qp_iters[k])),
                    self.qp_status[k],
                ]
                fh.write(",".join(cells) + "\n")

    def to_torque_csv(self, path) -> None:
        """Torque command trace: t, per-joint command, per-joint clamp flag."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            header = (["t"] + [f"tau_cmd{i}" for i in range(self.n_dof)]
                      + [f"clamped{i}" for i in range(self.n_dof)])
            fh.write(",".join(header) + "\n")
            for k in range(self.cycles):
                cells = [repr(float(self.t[k]))]
                cells += [repr(float(v)) for v in self.tau_cmd[k]]
                cells += [str(int(v)) for v in self.clamped[k]]
                fh.write(",".join(cells) + "\n")

    def dump_constraints_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("t,kind,pair,h,rhs,active\n")
            for row in self.constraint_dump:
                fh.write(
                    f"{row.t!r},{row.kind},{row.pair},{row.h!r},{row.rhs!r},{int(row.active)}\n"
                )

    def min_h(self, keys: list[str] | None = None) -> float:
        if not self.cycles:
            return math.inf
        if keys is None:
            return float(self.h.min()) if self.h.size else math.inf
        idx = [self.barrier_keys.index(k) for k in keys]
        return float(self.h[:, idx].min()) if idx else math.inf


class _ObstacleTruth:
    """Ground-truth constant-velocity motion of one world collision body."""

    def __init__(self, body: CollisionBody, velocity: np.ndarray, meas_std: float,
                 process_noise: float):
        self.body = body
        self.velocity = np.asarray(velocity, dtype=float)
        self.meas_std = meas_std
        self.kalman = ConstantVelocityKalman(meas_std, process_noise)

    def at(self, t: float) -> CollisionBody:
        shift = self.velocity * t
        return replace(self.body, p0=self.body.p0 + shift, p1=self.body.p1 + shift)

    def estimate(self, t: float, dt: float, rng: np.random.Generator) -> Obstacle:
        truth = self.at(t)
        noise = rng.normal(0.0, self.meas_std, 3) if self.meas_std > 0 else np.zeros(3)
        est = self.kalman.update(truth.p0 + noise, dt)
        offset = est.position - self.body.p0
        body = replace(self.body, p0=self.body.p0 + offset, p1=self.body.p1 + offset)
        return Obstacle(body=body, velocity=est.velocity)


def _barrier_catalog(scenario) -> list[tuple[str, str]]:
    """Stable (kind, pair) keys recorded at every cycle."""
    keys: list[tuple[str, str]] = []
    n = scenario.robot.n_dof
    for i in range(n):
        keys.append((BarrierKind.JOINT_LIMIT_MIN.value, f"q{i}"))
        keys.append((BarrierKind.JOINT_LIMIT_MAX.value, f"q{i}"))
    for a, b in scenario.collision_pairs:
        keys.append((BarrierKind.SELF_COLLISION.value, f"{a.name}|{b.name}"))
    for spec in scenario.obstacles:
        for body in scenario.robot.collision_bodies:
            keys.append((BarrierKind.OBJECT_COLLISION.value, f"{body.name}|{spec.body.name}"))
    for pair in scenario.workspace_pairs:
        keys.append((BarrierKind.WORKSPACE.value, pair.name))
    return keys


def _truth_barriers(model, q, fk, scenario, obstacle_truths, t) -> np.ndarray:
    """Ground-truth barrier values for the trace (estimates are controller-side)."""
    vals: list[float] = []
    for i, joint in enumerate(model.joints):
        vals.append(float(q[i] - joint.q_min))
        vals.append(float(joint.q_max - q[i]))
    for a, b in scenario.collision_pairs:
        prox = closest_points(pose_body(a, fk), pose_body(b, fk))
        vals.append(prox.h)
    for truth in obstacle_truths:
        obs_body = truth.at(t)
        for body in model.collision_bodies:
            prox = closest_points(pose_body(body, fk), pose_body(obs_body, fk))
            vals.append(prox.h)
    for pair in scenario.workspace_pairs:
        vals.append(workspace_barrier_value(fk, pair))
    return np.array(vals)


@dataclass(frozen=True)
class CycleRecord:
    """What one controller cycle computed besides the torque command."""

    fk: FkResult                    # nominal kinematics at the measured q
    qdot_des: np.ndarray
    filtered: FilterResult          # qdot_safe and the filter QP's outcome
    qdd_safe: np.ndarray
    rows: list[BarrierConstraint]   # the barrier rows the filter was given
    h_e_min: float                  # min over eCBF rows, nan outside ecbf mode
    dynamics_residual: float
    clamped: np.ndarray             # per-joint motor clamp flags


class Controller:
    """The whole-body controller of ``scenario`` on ``model``, one cycle per step.

    ``mode`` overrides the scenario's filter mode.  The first torque QP
    measures its torque-rate term from the gravity torque at the scenario's
    initial configuration.
    """

    def __init__(self, model: RobotModel, scenario, mode: FilterMode | None = None):
        self.model = model
        self.scenario = scenario
        self.filter_config = scenario.filter_config
        if mode is not None:
            self.filter_config = self.filter_config.with_mode(mode)
        self.filter_solver = QpSolver()
        self.dyn_solver = QpSolver()
        self.filter_warm: np.ndarray | None = None
        self.dyn_warm: np.ndarray | None = None
        self.tau_prev = joint_dynamics(model, FkResult(*_fk(model, scenario.q0)),
                                       np.zeros(model.n_dof), scenario.sim.gravity)[1]

    def step(self, state: JointState, t: float,
             obstacles: list[Obstacle]) -> tuple[np.ndarray, CycleRecord]:
        """Motor torque command for the measured ``state`` at cycle time ``t``."""
        model, scenario, config = self.model, self.scenario, self.filter_config
        weights = scenario.weights
        dt = scenario.sim.dt_control
        fk = forward_kinematics(model, state.q)

        tasks = [spec.task_at(t) for spec in scenario.tasks]
        if tasks:
            qdot_des, _ = prioritized_ik(model, state, fk, tasks, dt)
        else:
            qdot_des = np.zeros(model.n_dof)

        rows = collect_constraints(model, state, fk, obstacles, config,
                                   scenario.collision_pairs, scenario.workspace_pairs)
        filtered = filter_velocity(qdot_des, rows, config, self.filter_solver,
                                   warm_start=self.filter_warm)
        qdot_safe = self.filter_warm = filtered.qdot_safe
        q_safe = state.q + qdot_safe * dt
        qdd_safe = safe_acceleration(q_safe, qdot_safe, state, weights)

        extra_rows = []
        h_e_min = np.nan
        if config.mode is FilterMode.ECBF:
            extra_rows = ecbf_rows(model, state, rows)
            h_e_min = min((r.h_e for r in extra_rows), default=np.nan)

        dyn = solve_dynwbc(model, state, fk, qdd_safe, None, extra_rows, weights,
                           self.tau_prev, self.dyn_solver, scenario.sim.gravity,
                           warm_start=self.dyn_warm)
        self.dyn_warm = dyn.solution.x
        self.tau_prev = dyn.tau_opt
        tau_cmd, clamped = motor_torque(dyn.tau_opt, q_safe, qdot_safe, state, weights,
                                        tau_max=model.tau_max)
        return tau_cmd, CycleRecord(
            fk=fk, qdot_des=qdot_des, filtered=filtered, qdd_safe=qdd_safe, rows=rows,
            h_e_min=h_e_min, dynamics_residual=dyn.dynamics_residual, clamped=clamped,
        )


def run_closed_loop(
    nominal_model: RobotModel,
    plant_model: RobotModel,
    scenario,
    mode: FilterMode | None = None,
    trace_constraints: bool = False,
) -> RunTrace:
    """Drive a ``Controller`` on the nominal model against the (mismatched) plant.

    ``scenario`` provides tasks, obstacles, collision pairs, filter and
    controller configuration (see scenario.Scenario).
    """
    cfg: SimConfig = scenario.sim
    n = nominal_model.n_dof
    rng = np.random.default_rng(cfg.seed)
    obstacle_truths = [
        _ObstacleTruth(spec.body, spec.velocity, spec.measurement_noise_std,
                       spec.process_noise)
        for spec in scenario.obstacles
    ]
    controller = Controller(nominal_model, scenario, mode)
    plain = controller.filter_config.mode is FilterMode.CBF

    cycles = int(round(cfg.duration / cfg.dt_control))
    catalog = _barrier_catalog(scenario)
    trace = RunTrace(
        n_dof=n, barrier_keys=[f"{kind}|{pair}" for kind, pair in catalog],
        t=np.zeros(cycles), q=np.zeros((cycles, n)), qd=np.zeros((cycles, n)),
        qdot_des=np.zeros((cycles, n)), qdot_safe=np.zeros((cycles, n)),
        tau_cmd=np.zeros((cycles, n)), h=np.zeros((cycles, len(catalog))),
        d_inf=np.zeros(cycles), dbar=np.zeros(cycles),
        qp_iters=np.zeros(cycles, dtype=int), qp_status=[],
        dynamics_residual=np.zeros(cycles), h_e_min=np.full(cycles, np.nan),
        relaxed=np.zeros(cycles, dtype=bool), clamped=np.zeros((cycles, n), dtype=bool),
    )
    state = JointState(q=scenario.q0.copy(), qd=scenario.qd0.copy(), t=0.0)
    dbar = 0.0

    wall_start = time.perf_counter()
    for k in range(cycles):
        t = k * cfg.dt_control
        obstacles = [truth.estimate(t, cfg.dt_control, rng) for truth in obstacle_truths]
        tau_cmd, rec = controller.step(state, t, obstacles)
        qdot_safe = rec.filtered.qdot_safe

        trace.t[k] = t
        trace.q[k] = state.q
        trace.qd[k] = state.qd
        trace.qdot_des[k] = rec.qdot_des
        trace.qdot_safe[k] = qdot_safe
        trace.tau_cmd[k] = tau_cmd
        trace.h[k] = _truth_barriers(nominal_model, state.q, rec.fk, scenario,
                                     obstacle_truths, t)
        trace.qp_iters[k] = rec.filtered.iterations
        trace.qp_status.append(rec.filtered.status)
        trace.dynamics_residual[k] = rec.dynamics_residual
        trace.h_e_min[k] = rec.h_e_min
        trace.relaxed[k] = rec.filtered.relaxed
        trace.clamped[k] = rec.clamped
        if trace_constraints:
            tol = 1e-8 * (1.0 + float(np.max(np.abs(qdot_safe), initial=0.0)))
            for c in rec.rows:
                rhs = c.rhs(plain_cbf=plain)
                trace.constraint_dump.append(ConstraintDumpRow(
                    t=t, kind=c.kind.value, pair=c.pair, h=c.h, rhs=rhs,
                    active=bool(c.grad @ qdot_safe - rhs <= tol),
                ))

        q_before = state.q
        for j in range(cfg.substeps):
            # Pulse windows are tested against the substep's exact time, not the
            # accumulated state.t, whose rounding moves the window edges.
            t_sub = t + j * cfg.dt_physics
            tau_ext = sum((p.at(t_sub, n) for p in cfg.external_torque), np.zeros(n))
            state = step_physics(plant_model, state, tau_cmd + tau_ext, cfg.gravity,
                                 cfg.dt_physics, cfg.integrator)
        d_k = (state.q - q_before) / cfg.dt_control - qdot_safe
        trace.d_inf[k] = d_inf = float(np.max(np.abs(d_k), initial=0.0))
        trace.dbar[k] = dbar = max(dbar, d_inf)

    if cycles:
        trace.runtime_per_cycle_us = (time.perf_counter() - wall_start) / cycles * 1e6
    return trace
