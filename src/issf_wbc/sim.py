"""Closed-loop simulation: the whole-body controller and the plant loop around it.

``Controller`` is one cycle of the controller on the nominal model.  It owns
what carries over between cycles (the two QP solvers, their warm starts and
the previous torque), and its ``step`` maps a measured state and the
estimated obstacles to a motor torque command:

    forward kinematics -> prioritized IK -> constraint collection
    -> velocity safety filter -> reference acceleration
    -> eCBF rows (ecbf mode only) -> torque QP -> motor command

The pose from the first stage is read by IK, the barrier rows (one
``BarrierRows`` block, kept in the cycle's ``CycleRecord``) and the eCBF rows
(whose curvature is in closed form).  The barrier rows follow the
controller's ``safety.BarrierPlan``, which it builds once, from its own
arguments; ``collect_constraints`` is called once per cycle through this
module's binding.  The torque QP's dynamics, the plant's
substeps and the initial gravity torque call ``_fastdyn.joint_dynamics`` on
q itself: its generated kernel works in joint frames and needs no world
pose.  The call to ``forward_kinematics`` at
the top of ``Controller.step`` is this module's only one (``perfbench``
counts cycles by it).

``run_closed_loop`` is the plant loop that drives it at the control rate:
sense the obstacles, step the controller, log the ground-truth values of
the barriers in the controller's plan (``safety._barrier_values``, which
poses each body once and calls ``geometry.closest_points`` per pair), then
hold the command over the physics substeps of the full-order dynamics
qdd = M^-1 (tau - h).  The
plant is a *separately scaled* model: mass mismatch is injected only on the
plant side, and the controller keeps the nominal model.

The per-cycle discrepancy between the commanded and realized joint velocity,

    d_k = (q_{k+1} - q_k) / dt_control - qd_safe_k,

is the disturbance against which the velocity filter's robustness margin is
sized; its running max-norm dbar feeds the degradation-bound checks.
An obstacle's true pose and the Kalman filter's estimate of it, from a
noisy measurement, are its ``ObstacleSpec`` body moved on floats
(``_ObstacleTruth``); the estimated velocity supplies the object-row drift
term.  Runs are bitwise deterministic for a fixed seed.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ._codegen import NotPositiveDefinite, cholesky, solve_lower, solve_upper
from ._fastdyn import joint_dynamics
from .dynwbc import motor_torque, safe_acceleration, solve_dynwbc
from .geometry import CollisionBody
from .kinwbc import prioritized_ik
from .model import FkResult, JointState, RobotModel, forward_kinematics
from .qpsolver import QpSolver
from .safety import (
    BarrierRows,
    FilterMode,
    FilterResult,
    Obstacle,
    _barrier_values,
    barrier_plan,
    collect_constraints,
    ecbf_rows,
    filter_velocity,
)

if TYPE_CHECKING:
    from .scenario import ObstacleSpec


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

    def __post_init__(self) -> None:
        problems = [f"{key}: must be finite, got {getattr(self, key)!r}"
                    for key in ("start", "end") if not math.isfinite(getattr(self, key))]
        if not problems and not self.end > self.start:
            problems.append(f"end: must be > start ({self.start!r}), got {self.end!r}")
        if not np.isfinite(self.torque).all():
            problems.append(f"torque: must be finite, got {np.asarray(self.torque).tolist()}")
        if problems:
            raise ValueError("; ".join(problems))

    def active(self, t: float) -> bool:
        return self.start <= t < self.end


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
        problems = []
        if not 0.0 <= self.duration < math.inf:
            problems.append(f"duration: must be finite and >= 0, got {self.duration!r}")
        if not 0.0 < self.dt_control < math.inf:
            problems.append(f"dt_control: must be finite and > 0, got {self.dt_control!r}")
        if not self.dt_physics > 0.0:
            problems.append(f"dt_physics: must be > 0, got {self.dt_physics!r}")
        elif self.dt_physics > self.dt_control + 1e-15:
            problems.append("dt_physics: must be <= dt_control")
        elif (self.dt_control < math.inf
              and abs(self.substeps * self.dt_physics - self.dt_control) > 1e-9 * self.dt_control):
            problems.append(f"dt_physics: must divide dt_control ({self.dt_control!r}), "
                            f"got {self.dt_physics!r}")
        if not 0.0 < self.mass_scale < math.inf:
            problems.append(f"mass_scale: must be finite and > 0, got {self.mass_scale!r}")
        if not np.isfinite(self.gravity).all():
            problems.append(f"gravity: must be finite, got {np.asarray(self.gravity).tolist()}")
        if problems:
            raise ValueError("; ".join(problems))

    @property
    def substeps(self) -> int:
        return max(1, round(self.dt_control / self.dt_physics))


def _qdd(model: RobotModel, q: list[float], qd: list[float], tau: list[float],
         gravity: list[float], t: float) -> list[float]:
    """Joint accelerations M^-1 (tau - h) at (q, qd), all lists of floats.

    M = L L^T is factored row by row (Cholesky-Banachiewicz), then
    L y = tau - h is solved by forward and L^T qdd = y by back substitution:
    three straight-line kernels generated for the model's size
    (``_codegen``), which do the operations of the former fused loop
    (``tests/linalg_oracle.py``) in its order.  A pivot that is not positive
    means the plant's M is singular: the plant cannot be advanced.
    """
    mass, bias = joint_dynamics(model, q, qd, gravity)
    n = len(mass)
    try:
        L = cholesky[n](mass)
    except NotPositiveDefinite as exc:
        raise SimulationDivergedError(
            f"plant mass matrix not positive definite at t={t:.6f} (joint {exc.index})"
        ) from None
    return solve_upper[n](L, solve_lower[n](L, [ti - hi for ti, hi in zip(tau, bias)]))


def _axpy(a: float, x: list[float], y: list[float]) -> list[float]:
    """y + a x, elementwise."""
    return [yi + a * xi for xi, yi in zip(x, y)]


def _weighted(k1, k2, k3, k4) -> list[float]:
    """The RK4 stage sum k1 + 2 k2 + 2 k3 + k4, elementwise."""
    return [a + 2 * b + 2 * c + d for a, b, c, d in zip(k1, k2, k3, k4)]


def step_physics(
    plant_model: RobotModel,
    state: JointState,
    tau_cmd: np.ndarray,
    gravity: np.ndarray,
    dt: float,
    integrator: Integrator = Integrator.SEMI_IMPLICIT_EULER,
) -> JointState:
    """Advance the plant one physics step under a held torque command."""
    q, qd, tau, t = state.q.tolist(), state.qd.tolist(), tau_cmd.tolist(), state.t
    g = np.asarray(gravity, dtype=float).tolist()
    if integrator is Integrator.SEMI_IMPLICIT_EULER:
        qd_next = _axpy(dt, _qdd(plant_model, q, qd, tau, g, t), qd)
        q_next = _axpy(dt, qd_next, q)
    else:
        half = 0.5 * dt
        k1 = _qdd(plant_model, q, qd, tau, g, t)
        v2 = _axpy(half, k1, qd)
        k2 = _qdd(plant_model, _axpy(half, qd, q), v2, tau, g, t)
        v3 = _axpy(half, k2, qd)
        k3 = _qdd(plant_model, _axpy(half, v2, q), v3, tau, g, t)
        v4 = _axpy(dt, k3, qd)
        k4 = _qdd(plant_model, _axpy(dt, v3, q), v4, tau, g, t)
        q_next = _axpy(dt / 6.0, _weighted(qd, v2, v3, v4), q)
        qd_next = _axpy(dt / 6.0, _weighted(k1, k2, k3, k4), qd)
    if not (all(map(math.isfinite, q_next)) and all(map(math.isfinite, qd_next))):
        raise SimulationDivergedError(
            f"non-finite state at t={t + dt:.6f}: q={np.array(q_next)}, qd={np.array(qd_next)}"
        )
    return JointState(q=np.array(q_next), qd=np.array(qd_next), t=t + dt)


class ConstantVelocityKalman:
    """Linear Kalman filter on [position; velocity] with a constant-velocity model.

    The measurement noise is r I3 and the transition and process noise act
    on each axis alike, so the 6x6 covariance stays kron(P, I3) with P the
    2x2 covariance of one axis: the filter runs one 2-state covariance on
    floats, shared by the three axes, with the operations of the 6x6 filter
    (``tests/kalman_oracle.py``).  The estimate is ``position`` and ``velocity``,
    lists that ``update`` replaces but never mutates.  ``P`` holds the rows
    of that 2x2 covariance, the prior until the first measurement.
    """

    def __init__(self, meas_std: float, process_noise: float = 1e-2):
        self.r = max(meas_std, 1e-6) ** 2
        self.q = process_noise
        self.position: list[float] | None = None     # set by the first measurement
        self.velocity = [0.0, 0.0, 0.0]
        self.P = ((self.r, 0.0), (0.0, 1.0))

    def update(self, measurement: np.ndarray, dt: float) -> None:
        z = np.asarray(measurement, dtype=float).tolist()
        if self.position is None:
            self.position = z
        else:
            # Predict: x <- F x, P <- F P F^T + Q with F = [[1, dt], [0, 1]].
            (p00, p01), (p10, p11) = self.P
            a00 = p00 + dt * p10
            a01 = p01 + dt * p11
            q = self.q
            p00 = a00 + a01 * dt + q * (dt ** 3 / 3.0)
            p01 = a01 + q * (dt ** 2 / 2.0)
            p10 = p10 + p11 * dt + q * (dt ** 2 / 2.0)
            p11 = p11 + q * dt
            # Correct with the gain K = P H^T / (P00 + r), H = [1, 0].
            s = p00 + self.r
            k0, k1 = p00 / s, p10 / s
            position, velocity = [], []
            for zi, pi, vi in zip(z, self.position, self.velocity):
                pi = pi + dt * vi
                innovation = zi - pi
                position.append(pi + k0 * innovation)
                velocity.append(vi + k1 * innovation)
            self.position, self.velocity = position, velocity
            self.P = ((p00 - k0 * p00, p01 - k0 * p01), (p10 - k1 * p00, p11 - k1 * p01))


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

    # the per-joint blocks of a trace.csv row, in column order (not fields)
    _vector_blocks = ("q", "qd", "qdot_des", "qdot_safe", "tau_cmd")

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
        for block in self._vector_blocks:
            names += [f"{block}{i}" for i in range(self.n_dof)]
        names += [f"h:{key}" for key in self.barrier_keys]
        names += ["d_inf", "dbar", "qp_iters", "qp_status"]
        return names

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(self.column_names()) + "\n")
            blocks = [getattr(self, block) for block in self._vector_blocks] + [self.h]
            for k in range(self.cycles):
                cells = [repr(float(self.t[k]))]
                for block in blocks:
                    cells += [repr(float(v)) for v in block[k]]
                cells += [repr(float(self.d_inf[k])), repr(float(self.dbar[k])),
                          str(int(self.qp_iters[k])), self.qp_status[k]]
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


class _ObstacleTruth:
    """Ground-truth constant-velocity motion of the world collision body of
    ``spec`` and the Kalman filter that tracks it."""

    def __init__(self, spec: ObstacleSpec):
        self.spec = spec
        self.kalman = ConstantVelocityKalman(spec.measurement_noise_std, spec.process_noise)

    def at(self, t: float) -> CollisionBody:
        vx, vy, vz = self.spec.velocity
        return self.spec.body.moved((vx * t, vy * t, vz * t))

    def estimate(self, truth: CollisionBody, dt: float, rng: np.random.Generator) -> Obstacle:
        """The controller's view of ``truth``, this body's pose at the cycle."""
        spec, kalman = self.spec, self.kalman
        std = spec.measurement_noise_std
        noise = rng.normal(0.0, std, 3) if std > 0 else np.zeros(3)
        kalman.update(truth.p0 + noise, dt)
        (x, y, z), (x0, y0, z0) = kalman.position, spec.body.p0
        return Obstacle(spec.body.moved((x - x0, y - y0, z - z0)), kalman.velocity)


@dataclass(frozen=True)
class CycleRecord:
    """What one controller cycle computed besides the torque command."""

    fk: FkResult                    # nominal kinematics at the measured q
    qdot_des: np.ndarray
    filtered: FilterResult          # qdot_safe and the filter QP's outcome
    qdd_safe: np.ndarray
    rows: BarrierRows               # the barrier rows the filter was given
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
        self.plan = barrier_plan(model, self.filter_config, scenario.collision_pairs,
                                 [spec.body for spec in scenario.obstacles],
                                 scenario.workspace_pairs)
        self.filter_solver = QpSolver()
        self.dyn_solver = QpSolver()
        self.gains = scenario.weights.gains(model.n_dof)
        self.tau_max = tuple(model.tau_max.tolist())
        self.filter_warm: np.ndarray | None = None
        self.dyn_warm: np.ndarray | None = None
        self.tau_prev = np.array(joint_dynamics(
            model, scenario.q0.tolist(), [0.0] * model.n_dof,
            np.asarray(scenario.sim.gravity, dtype=float).tolist())[1])

    def step(self, state: JointState, t: float,
             obstacles: list[Obstacle]) -> tuple[np.ndarray, CycleRecord]:
        """Motor torque command for the measured ``state`` at cycle time ``t``."""
        model, scenario, config = self.model, self.scenario, self.filter_config
        dt = scenario.sim.dt_control
        fk = forward_kinematics(model, state.q)

        tasks = [spec.task_at(t) for spec in scenario.tasks]
        qdot_des = prioritized_ik(model, state, fk, tasks) if tasks else np.zeros(model.n_dof)

        rows = collect_constraints(self.plan, state, fk, obstacles)
        filtered = filter_velocity(qdot_des, rows, config, self.filter_solver,
                                   warm_start=self.filter_warm)
        qdot_safe = self.filter_warm = filtered.qdot_safe
        q_safe = state.q + qdot_safe * dt
        qdd_safe = safe_acceleration(q_safe, qdot_safe, state, self.gains)

        extra_rows = None
        h_e_min = np.nan
        if config.mode is FilterMode.ECBF:
            extra_rows = ecbf_rows(state, fk, rows)
            if rows:
                h_e_min = float(extra_rows.h_e.min())

        dyn = solve_dynwbc(model, state, qdd_safe, None, extra_rows, scenario.weights,
                           self.tau_prev, self.dyn_solver, scenario.sim.gravity,
                           warm_start=self.dyn_warm)
        self.dyn_warm = dyn.solution.x
        self.tau_prev = dyn.tau_opt
        tau_cmd, clamped = motor_torque(dyn.tau_opt, q_safe, qdot_safe, state, self.gains,
                                        tau_max=self.tau_max)
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
    obstacle_truths = [_ObstacleTruth(spec) for spec in scenario.obstacles]
    controller = Controller(nominal_model, scenario, mode)

    cycles = int(round(cfg.duration / cfg.dt_control))
    catalog = controller.plan.keys
    trace = RunTrace(
        n_dof=n, barrier_keys=[f"{kind.value}|{pair}" for kind, pair in catalog],
        t=np.zeros(cycles), q=np.zeros((cycles, n)), qd=np.zeros((cycles, n)),
        qdot_des=np.zeros((cycles, n)), qdot_safe=np.zeros((cycles, n)),
        tau_cmd=np.zeros((cycles, n)), h=np.zeros((cycles, len(catalog))),
        d_inf=np.zeros(cycles), dbar=np.zeros(cycles),
        qp_iters=np.zeros(cycles, dtype=int), qp_status=[],
        dynamics_residual=np.zeros(cycles), h_e_min=np.full(cycles, np.nan),
        clamped=np.zeros((cycles, n), dtype=bool),
    )
    state = JointState(q=scenario.q0.copy(), qd=scenario.qd0.copy(), t=0.0)
    dbar = 0.0
    pulses, zeros = cfg.external_torque, np.zeros(n)

    wall_start = time.perf_counter()
    for k in range(cycles):
        t = k * cfg.dt_control
        bodies = [truth.at(t) for truth in obstacle_truths]
        obstacles = [truth.estimate(body, cfg.dt_control, rng)
                     for truth, body in zip(obstacle_truths, bodies)]
        tau_cmd, rec = controller.step(state, t, obstacles)
        qdot_safe = rec.filtered.qdot_safe

        trace.t[k] = t
        trace.q[k] = state.q
        trace.qd[k] = state.qd
        trace.qdot_des[k] = rec.qdot_des
        trace.qdot_safe[k] = qdot_safe
        trace.tau_cmd[k] = tau_cmd
        trace.h[k] = _barrier_values(controller.plan, state.q, rec.fk, bodies)
        trace.qp_iters[k] = rec.filtered.iterations
        trace.qp_status.append(rec.filtered.status)
        trace.dynamics_residual[k] = rec.dynamics_residual
        trace.h_e_min[k] = rec.h_e_min
        trace.clamped[k] = rec.clamped
        if trace_constraints:
            tol = 1e-8 * (1.0 + float(np.max(np.abs(qdot_safe), initial=0.0)))
            rows = rec.rows
            for (kind, pair), h, grad, rhs in zip(rows.keys, rows.h.tolist(), rows.grad,
                                                  rows.rhs().tolist()):
                trace.constraint_dump.append(ConstraintDumpRow(
                    t=t, kind=kind.value, pair=pair, h=h, rhs=rhs,
                    active=bool(grad @ qdot_safe - rhs <= tol),
                ))

        q_before = state.q
        tau = tau_cmd
        pulsed = {}     # the substep torque by the pulses active in it
        for j in range(cfg.substeps):
            if pulses:
                # Pulse windows are tested against the substep's exact time, not
                # the accumulated state.t, whose rounding moves the window edges.
                t_sub = t + j * cfg.dt_physics
                active = tuple(p.active(t_sub) for p in pulses)
                tau = pulsed.get(active)
                if tau is None:
                    tau = pulsed[active] = tau_cmd + sum(
                        (p.torque if on else zeros for p, on in zip(pulses, active)),
                        np.zeros(n))
            state = step_physics(plant_model, state, tau, cfg.gravity,
                                 cfg.dt_physics, cfg.integrator)
        d_k = (state.q - q_before) / cfg.dt_control - qdot_safe
        trace.d_inf[k] = d_inf = float(np.max(np.abs(d_k), initial=0.0))
        trace.dbar[k] = dbar = max(dbar, d_inf)

    if cycles:
        trace.runtime_per_cycle_us = (time.perf_counter() - wall_start) / cycles * 1e6
    return trace
