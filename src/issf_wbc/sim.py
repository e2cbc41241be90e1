"""Closed-loop simulation: the whole-body controller and the plant loop around it.

``Controller`` is one cycle of the controller on the nominal model.  It owns
what carries over between cycles (the two QP solvers, their warm starts and
the previous torque), and its ``step`` maps a measured state and the
estimated obstacles to a motor torque command, on float joint vectors:

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
sense the obstacles, step the controller, hold the command over the physics
substeps of the full-order dynamics qdd = M^-1 (tau - h), then record the
cycle in one ``RunTrace.record`` call, the ground-truth barrier values
(``safety._barrier_values``) among its outputs.  Each per-cycle output is
one ``RunTrace`` field made by ``_output``, which the allocation
(``RunTrace.empty``), ``record`` and both CSV writers read, in column
order.  The plant's q and qd stay float lists across a
cycle's substeps (``step_physics`` maps lists to lists, solving for qdd in
one generated kernel, ``_codegen.cholesky_solve``), and the controller gets
one ``JointState`` per cycle.  Gravity and pulse torques are float
tuples, converted once (``SimConfig``, ``TorquePulse``).  The
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
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

import numpy as np

from ._codegen import NotPositiveDefinite, cholesky_solve
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
    torque: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "torque", tuple(map(float, self.torque)))
        problems = [f"{key}: must be finite, got {getattr(self, key)!r}"
                    for key in ("start", "end") if not math.isfinite(getattr(self, key))]
        if not problems and not self.end > self.start:
            problems.append(f"end: must be > start ({self.start!r}), got {self.end!r}")
        if not all(map(math.isfinite, self.torque)):
            problems.append(f"torque: must be finite, got {list(self.torque)}")
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
    gravity: tuple[float, ...] = (0.0, 0.0, -9.81)
    external_torque: tuple[TorquePulse, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "gravity", tuple(map(float, self.gravity)))
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
        if not all(map(math.isfinite, self.gravity)):
            problems.append(f"gravity: must be finite, got {list(self.gravity)}")
        if problems:
            raise ValueError("; ".join(problems))

    @property
    def substeps(self) -> int:
        return max(1, round(self.dt_control / self.dt_physics))


def _qdd(model: RobotModel, q: list[float], qd: list[float], tau: list[float],
         gravity: list[float], t: float) -> list[float]:
    """Joint accelerations M^-1 (tau - h) at (q, qd), all lists of floats.

    ``cholesky_solve`` factors M = L L^T row by row (Cholesky-Banachiewicz)
    and solves L y = tau - h and L^T qdd = y in one straight-line kernel
    generated for the model's size (``_codegen``), which does the operations
    of the former fused loop (``tests/linalg_oracle.py``) in its order.  A
    pivot that is not positive means the plant's M is singular: the plant
    cannot be advanced.
    """
    mass, bias = joint_dynamics(model, q, qd, gravity)
    try:
        return cholesky_solve[len(mass)](mass, [ti - hi for ti, hi in zip(tau, bias)])
    except NotPositiveDefinite as exc:
        raise SimulationDivergedError(
            f"plant mass matrix not positive definite at t={t:.6f} (joint {exc.index})"
        ) from None


def _axpy(a: float, x: list[float], y: list[float]) -> list[float]:
    """y + a x, elementwise."""
    return [yi + a * xi for xi, yi in zip(x, y)]


def _weighted(k1, k2, k3, k4) -> list[float]:
    """The RK4 stage sum k1 + 2 k2 + 2 k3 + k4, elementwise."""
    return [a + 2 * b + 2 * c + d for a, b, c, d in zip(k1, k2, k3, k4)]


def _finite(q: list[float], qd: list[float], t: float) -> tuple[list[float], list[float]]:
    """(q, qd), the plant's state at time ``t``, unless an entry is not finite."""
    if not (all(map(math.isfinite, q)) and all(map(math.isfinite, qd))):
        raise SimulationDivergedError(
            f"non-finite state at t={t:.6f}: q={np.array(q)}, qd={np.array(qd)}")
    return q, qd


def step_physics(
    plant_model: RobotModel,
    q: list[float],
    qd: list[float],
    tau: list[float],
    gravity: tuple[float, ...],
    t: float,
    dt: float,
    integrator: Integrator = Integrator.SEMI_IMPLICIT_EULER,
) -> tuple[list[float], list[float]]:
    """The plant's (q, qd) one physics step of ``dt`` after time ``t``, under
    a held torque ``tau``; every vector is a list of floats.  A non-finite
    state, an RK4 stage's included, raises ``SimulationDivergedError``."""
    if integrator is Integrator.SEMI_IMPLICIT_EULER:
        qd_next = _axpy(dt, _qdd(plant_model, q, qd, tau, gravity, t), qd)
        q_next = _axpy(dt, qd_next, q)
    else:
        half = 0.5 * dt
        k1 = _qdd(plant_model, q, qd, tau, gravity, t)
        q2, v2 = _finite(_axpy(half, qd, q), _axpy(half, k1, qd), t + half)
        k2 = _qdd(plant_model, q2, v2, tau, gravity, t)
        q3, v3 = _finite(_axpy(half, v2, q), _axpy(half, k2, qd), t + half)
        k3 = _qdd(plant_model, q3, v3, tau, gravity, t)
        q4, v4 = _finite(_axpy(dt, v3, q), _axpy(dt, k3, qd), t + dt)
        k4 = _qdd(plant_model, q4, v4, tau, gravity, t)
        q_next = _axpy(dt / 6.0, _weighted(qd, v2, v3, v4), q)
        qd_next = _axpy(dt / 6.0, _weighted(k1, k2, k3, k4), qd)
    return _finite(q_next, qd_next, t + dt)


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

    def update(self, measurement: Sequence[float], dt: float) -> None:
        z = list(map(float, measurement))
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


def _output(width: int | str, dtype: type, *files: str):
    """Declare a per-cycle output of ``RunTrace``: ``width`` values a cycle (1,
    ``"n"`` per joint or ``"rows"`` per barrier row) of ``dtype``, in ``files``."""
    return field(metadata={"output": (width, dtype, files)})


def _suffixes(n_dof: int, barrier_keys: list[str]) -> dict:
    """Each output width's CSV column-name suffixes, one per value of a cycle."""
    return {1: [""], "n": range(n_dof), "rows": [f":{key}" for key in barrier_keys]}


@dataclass
class RunTrace:
    """Per-cycle record of a closed-loop run plus derived metrics."""

    n_dof: int
    barrier_keys: list[str]
    t: np.ndarray = _output(1, float, "trace.csv", "torques.csv")
    q: np.ndarray = _output("n", float, "trace.csv")
    qd: np.ndarray = _output("n", float, "trace.csv")
    qdot_des: np.ndarray = _output("n", float, "trace.csv")
    qdot_safe: np.ndarray = _output("n", float, "trace.csv")
    tau_cmd: np.ndarray = _output("n", float, "trace.csv", "torques.csv")
    h: np.ndarray = _output("rows", float, "trace.csv")
    d_inf: np.ndarray = _output(1, float, "trace.csv")
    dbar: np.ndarray = _output(1, float, "trace.csv")
    qp_iters: np.ndarray = _output(1, int, "trace.csv")
    qp_status: list[str] = _output(1, str, "trace.csv")
    clamped: np.ndarray = _output("n", bool, "torques.csv")     # per-joint clamp flags
    h_e_min: np.ndarray = _output(1, float)     # min over eCBF rows, nan outside ecbf mode
    dynamics_residual: np.ndarray = _output(1, float)
    runtime_per_cycle_us: float = 0.0
    constraint_dump: list[ConstraintDumpRow] = field(default_factory=list)

    @classmethod
    def empty(cls, n_dof: int, barrier_keys: list[str], cycles: int) -> RunTrace:
        """A trace of ``cycles`` cycles, every output allocated and zero ("")."""
        suffixes = _suffixes(n_dof, barrier_keys)
        return cls(n_dof, barrier_keys, **{
            name: [""] * cycles if dtype is str
            else np.zeros(cycles if width == 1 else (cycles, len(suffixes[width])), dtype)
            for name, width, dtype, _ in OUTPUTS})

    def record(self, k: int, **values) -> None:
        """Set cycle ``k`` of each output named in ``values``."""
        for name, value in values.items():
            getattr(self, name)[k] = value

    @property
    def cycles(self) -> int:
        return self.t.shape[0]

    def final_dbar(self) -> float:
        return float(self.dbar[-1]) if self.cycles else 0.0

    def _write(self, path, csv_file: str) -> None:
        suffixes = _suffixes(self.n_dof, self.barrier_keys)
        header, blocks = [], []
        for name, width, dtype, files in OUTPUTS:
            if csv_file in files:   # a flag is written as 0 or 1
                header += [f"{name}{suffix}" for suffix in suffixes[width]]
                blocks.append(np.asarray(getattr(self, name), int if dtype is bool else object))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in np.column_stack(blocks).tolist():   # str of a float is its repr
                fh.write(",".join(map(str, row)) + "\n")

    def to_csv(self, path) -> None:
        self._write(path, "trace.csv")

    def to_torque_csv(self, path) -> None:
        self._write(path, "torques.csv")

    def dump_constraints_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("t,kind,pair,h,rhs,active\n")
            for row in self.constraint_dump:
                fh.write(
                    f"{row.t!r},{row.kind},{row.pair},{row.h!r},{row.rhs!r},{int(row.active)}\n"
                )


# (name, width, dtype, files) of each per-cycle output, in column order
OUTPUTS = tuple((f.name, *f.metadata["output"]) for f in fields(RunTrace) if f.metadata)


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
        noise = rng.normal(0.0, std, 3).tolist() if std > 0 else (0.0, 0.0, 0.0)
        kalman.update([p + e for p, e in zip(truth.p0, noise)], dt)
        (x, y, z), (x0, y0, z0) = kalman.position, spec.body.p0
        return Obstacle(spec.body.moved((x - x0, y - y0, z - z0)), kalman.velocity)


@dataclass(frozen=True)
class CycleRecord:
    """What one controller cycle computed besides the torque command."""

    fk: FkResult                    # nominal kinematics at the measured q
    qdot_des: list[float]
    filtered: FilterResult          # qdot_safe and the filter QP's outcome
    qdd_safe: list[float]
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
        self.filter_warm: list[float] | None = None
        self.dyn_warm: np.ndarray | None = None
        self.tau_prev = joint_dynamics(model, scenario.q0.tolist(), [0.0] * model.n_dof,
                                       scenario.sim.gravity)[1]

    def step(self, state: JointState, t: float,
             obstacles: list[Obstacle]) -> tuple[list[float], CycleRecord]:
        """Motor torque command for the measured ``state`` at cycle time ``t``."""
        model, scenario, config = self.model, self.scenario, self.filter_config
        dt = scenario.sim.dt_control
        fk = forward_kinematics(model, state.q)

        tasks = [spec.task_at(t) for spec in scenario.tasks]
        qdot_des = prioritized_ik(model, state, fk, tasks) if tasks else [0.0] * model.n_dof

        rows = collect_constraints(self.plan, state, fk, obstacles)
        filtered = filter_velocity(qdot_des, rows, config, self.filter_solver,
                                   warm_start=self.filter_warm)
        qdot_safe = self.filter_warm = filtered.qdot_safe
        q_safe = [q + v * dt for q, v in zip(state.q, qdot_safe)]
        qdd_safe = safe_acceleration(q_safe, qdot_safe, state, self.gains)

        extra_rows = ecbf_rows(state, fk, rows) if config.mode is FilterMode.ECBF else None
        h_e_min = math.nan if extra_rows is None else min(extra_rows.h_e, default=math.nan)

        dyn = solve_dynwbc(model, state, qdd_safe, None, extra_rows, scenario.weights,
                           self.tau_prev, self.dyn_solver, scenario.sim.gravity,
                           warm_start=self.dyn_warm)
        self.dyn_warm = dyn.solution.x
        self.tau_prev = tau_opt = dyn.tau_opt.tolist()
        tau_cmd, clamped = motor_torque(tau_opt, q_safe, qdot_safe, state, self.gains,
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
    obstacle_truths = [_ObstacleTruth(spec) for spec in scenario.obstacles]
    controller = Controller(nominal_model, scenario, mode)

    cycles = int(round(cfg.duration / cfg.dt_control))
    trace = RunTrace.empty(n, [f"{kind.value}|{pair}" for kind, pair in controller.plan.keys],
                           cycles)
    # The plant's state, carried as floats; t_plant sums dt_physics per substep.
    q, qd, t_plant = scenario.q0.tolist(), scenario.qd0.tolist(), 0.0
    dbar = 0.0
    pulses = cfg.external_torque

    wall_start = time.perf_counter()
    for k in range(cycles):
        t = k * cfg.dt_control
        state = JointState(q=q, qd=qd, t=t_plant)
        bodies = [truth.at(t) for truth in obstacle_truths]
        obstacles = [truth.estimate(body, cfg.dt_control, rng)
                     for truth, body in zip(obstacle_truths, bodies)]
        tau_cmd, rec = controller.step(state, t, obstacles)
        qdot_safe = rec.filtered.qdot_safe

        if trace_constraints:
            tol = 1e-8 * (1.0 + max(map(abs, qdot_safe), default=0.0))
            rows = rec.rows
            for (kind, pair), h, grad, rhs in zip(rows.keys, rows.h, rows.grad, rows.rhs()):
                trace.constraint_dump.append(ConstraintDumpRow(
                    t=t, kind=kind.value, pair=pair, h=h, rhs=rhs,
                    active=bool(grad @ qdot_safe - rhs <= tol),
                ))

        tau = tau_cmd
        for j in range(cfg.substeps):
            if pulses:
                # Pulse windows are tested against the substep's exact time, not
                # the accumulated t_plant, whose rounding moves the window edges.
                # tau_cmd + ((0 + p_1) + p_2 ...) over the active pulses.
                t_sub = t + j * cfg.dt_physics
                pulse_sum = [0.0] * n
                for pulse in pulses:
                    if pulse.active(t_sub):
                        pulse_sum = [s + p for s, p in zip(pulse_sum, pulse.torque)]
                tau = [c + s for c, s in zip(tau_cmd, pulse_sum)]
            q, qd = step_physics(plant_model, q, qd, tau, cfg.gravity, t_plant,
                                 cfg.dt_physics, cfg.integrator)
            t_plant += cfg.dt_physics
        d_inf = max((abs((qi - qb) / cfg.dt_control - si)
                     for qi, qb, si in zip(q, state.q, qdot_safe)), default=0.0)
        dbar = max(dbar, d_inf)
        trace.record(k, t=t, q=state.q, qd=state.qd, qdot_des=rec.qdot_des,
                     qdot_safe=qdot_safe, tau_cmd=tau_cmd,
                     h=_barrier_values(controller.plan, state.q, rec.fk, bodies),
                     d_inf=d_inf, dbar=dbar, qp_iters=rec.filtered.iterations,
                     qp_status=rec.filtered.status, clamped=rec.clamped,
                     h_e_min=rec.h_e_min, dynamics_residual=rec.dynamics_residual)

    if cycles:
        trace.runtime_per_cycle_us = (time.perf_counter() - wall_start) / cycles * 1e6
    return trace
