"""Scenario files: robot + tasks + obstacles + controller/sim configuration.

A scenario is a JSON document (UTF-8, schema ``issf-wbc/scenario/v1``)
referencing a robot description and declaring waypoint-spline tasks,
obstacles with constant-velocity motion, the collision pair list, workspace
distance bounds, and the filter / torque-controller / simulation settings.
Parsing collects precise field-level diagnostics instead of failing on the
first problem.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from dataclasses import replace as dc_replace
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .dynwbc import DynWbcWeights
from .geometry import CollisionBody, Vec3, WorkspacePair
from .kinwbc import Task
from .model import SHAPES, Fields, ModelError, RobotModel, load_robot
from .safety import (
    BarrierKind,
    DEFAULT_ACTIVATION_DISTANCE,
    DEFAULT_ALPHA,
    DEFAULT_EPSILON,
    DEFAULT_SLACK_WEIGHT,
    SLACK_POLICIES,
    FilterConfig,
    FilterMode,
)
from .sim import Integrator, SimConfig, TorquePulse

SCENARIO_FORMAT = "issf-wbc/scenario/v1"

_KIND_ALIASES = {
    "joint-limit": (BarrierKind.JOINT_LIMIT_MIN, BarrierKind.JOINT_LIMIT_MAX),
    "joint-limit-min": (BarrierKind.JOINT_LIMIT_MIN,),
    "joint-limit-max": (BarrierKind.JOINT_LIMIT_MAX,),
    "self-collision": (BarrierKind.SELF_COLLISION,),
    "object-collision": (BarrierKind.OBJECT_COLLISION,),
    "workspace": (BarrierKind.WORKSPACE,),
}


class ScenarioError(ValueError):
    """Scenario file rejected; message carries per-field diagnostics."""

    def __init__(self, path, problems: list[str]):
        self.problems = problems
        super().__init__(f"{path}: " + "; ".join(problems))


def data_path(name: str) -> Path:
    """Path of a bundled robot/scenario file."""
    return Path(resources.files("issf_wbc").joinpath("data", name))


def resolve_input(name: str | Path, base: Path | None = None) -> Path:
    """Resolve a robot/scenario reference: explicit path first, then bundled."""
    if not str(name):
        raise FileNotFoundError("empty file reference")
    p = Path(name)
    if p.is_file():
        return p
    if base is not None and (base / p).is_file():
        return base / p
    bundled = data_path(str(name))
    if bundled.is_file():
        return bundled
    raise FileNotFoundError(f"no such file or bundled resource: {name}")


@dataclass(frozen=True)
class WaypointSpline:
    """Piecewise interpolant through (t, value) knots; holds beyond the ends.

    ``cubic`` uses Hermite segments with Catmull-Rom finite-difference
    tangents (or explicit per-knot velocities when given), so circles and
    smooth reaches need only a handful of knots.
    """

    times: np.ndarray
    values: np.ndarray
    tangents: np.ndarray
    kind: str = "cubic"            # "cubic" | "linear"

    @staticmethod
    def from_knots(times, values, velocities=None, kind: str = "cubic") -> "WaypointSpline":
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        k, d = values.shape
        if times.shape != (k,):
            raise ValueError("waypoint times/values length mismatch")
        if k >= 2 and np.any(np.diff(times) <= 0):
            raise ValueError("waypoint times must be strictly increasing")
        tangents = np.zeros((k, d))
        if velocities is not None:
            tangents = np.asarray(velocities, dtype=float).reshape(k, d)
        elif k >= 2:
            tangents[0] = (values[1] - values[0]) / (times[1] - times[0])
            tangents[-1] = (values[-1] - values[-2]) / (times[-1] - times[-2])
            for i in range(1, k - 1):
                tangents[i] = (values[i + 1] - values[i - 1]) / (times[i + 1] - times[i - 1])
        return WaypointSpline(times=times, values=values, tangents=tangents, kind=kind)

    @property
    def end_time(self) -> float:
        return float(self.times[-1])

    @cached_property
    def _knots(self) -> tuple[list, list, list]:
        """times, values and tangents as Python floats, for ``sample``."""
        return self.times.tolist(), self.values.tolist(), self.tangents.tolist()

    def sample(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Value and velocity at t (held with zero velocity outside the knots)."""
        times, values, tangents = self._knots
        if len(times) == 1 or t <= times[0]:
            return np.array(values[0]), np.zeros(len(values[0]))
        if t >= times[-1]:
            return np.array(values[-1]), np.zeros(len(values[-1]))
        i = bisect_right(times, t) - 1
        t0 = times[i]
        dt = times[i + 1] - t0
        s = (t - t0) / dt
        p0, p1 = values[i], values[i + 1]
        if self.kind == "linear":
            vel = [(b - a) / dt for a, b in zip(p0, p1)]
            sdt = s * dt
            return np.array([a + sdt * v for a, v in zip(p0, vel)]), np.array(vel)
        # Cubic Hermite basis.
        m0, m1 = tangents[i], tangents[i + 1]
        s2, s3 = s**2, s**3
        h00 = 2 * s3 - 3 * s2 + 1
        h10 = s3 - 2 * s2 + s
        h01 = -2 * s3 + 3 * s2
        h11 = s3 - s2
        h10dt, h11dt = h10 * dt, h11 * dt
        p = [h00 * a + h10dt * ma + h01 * b + h11dt * mb
             for a, ma, b, mb in zip(p0, m0, p1, m1)]
        d00 = (6 * s2 - 6 * s) / dt
        d10 = 3 * s2 - 4 * s + 1
        d01 = (-6 * s2 + 6 * s) / dt
        d11 = 3 * s2 - 2 * s
        v = [d00 * a + d10 * ma + d01 * b + d11 * mb
             for a, ma, b, mb in zip(p0, m0, p1, m1)]
        return np.array(p), np.array(v)


@dataclass(frozen=True)
class TaskSpec:
    priority: int
    spline: WaypointSpline
    gain: float = 5.0
    link: int | None = None
    point: tuple[float, float, float] = (0.0, 0.0, 0.0)   # in the link frame
    joints: tuple[int, ...] | None = None

    def task_at(self, t: float) -> Task:
        target, feedforward = self.spline.sample(t)
        return Task(
            priority=self.priority,
            target=target,
            feedforward=feedforward,
            gain=self.gain,
            link=self.link,
            point_in_link=self.point,
            joint_indices=self.joints,
        )


@dataclass(frozen=True)
class ObstacleSpec:
    body: CollisionBody              # world-attached, pose at t = 0
    velocity: Vec3                   # stored as three floats
    measurement_noise_std: float = 0.0
    process_noise: float = 1e-2

    def __post_init__(self) -> None:
        object.__setattr__(self, "velocity", tuple(map(float, self.velocity)))
        problems = [f"{key}: must be finite and >= 0, got {getattr(self, key)!r}"
                    for key in ("measurement_noise_std", "process_noise")
                    if not 0.0 <= getattr(self, key) < math.inf]    # NaN fails too
        if problems:
            raise ValueError("; ".join(problems))


@dataclass(frozen=True)
class Scenario:
    name: str
    robot: RobotModel
    q0: np.ndarray
    qd0: np.ndarray
    tasks: tuple[TaskSpec, ...]
    obstacles: tuple[ObstacleSpec, ...]
    collision_pairs: tuple[tuple[CollisionBody, CollisionBody], ...]
    workspace_pairs: tuple[WorkspacePair, ...]
    filter_config: FilterConfig
    weights: DynWbcWeights
    sim: SimConfig


_SCENARIO_KEYS = frozenset({"format", "name", "robot", "q0", "qd0", "tasks", "obstacles",
                            "collision_pairs", "workspace", "filter", "dynwbc", "sim"})
_FILTER_KEYS = frozenset({"mode", "alpha", "epsilon", "slack", "activation_distance"})
_TASK_KEYS = frozenset({"priority", "link", "point", "joints", "gain", "waypoints",
                        "interpolation"})
_OBSTACLE_KEYS = frozenset({"name", "shape", "position", "p1", "radius", "velocity",
                            "measurement_noise_std", "process_noise"})
_WORKSPACE_KEYS = frozenset({"name", "link_a", "point_a", "link_b", "point_b", "d_max"})


def _kind_table(table: Fields, defaults: dict) -> dict:
    """An ``alpha`` or ``epsilon`` table over ``defaults``.  A NaN is passed
    on, for ``FilterConfig`` to reject with the bound it breaks."""
    values = dict(defaults)
    for key in table:
        value = table.raw[key]
        if not (type(value) is float and math.isnan(value)):
            value = table.number(key)
        values.update(dict.fromkeys(_KIND_ALIASES.get(key, ()), value))
    return values


def _parse_filter(doc: Fields) -> FilterConfig:
    block = doc.block("filter", _FILTER_KEYS, {})
    mode = block.string("mode", "issf-cbf", tuple(mode.value for mode in FilterMode))
    slack, weight = "slack", DEFAULT_SLACK_WEIGHT
    if "slack" in block and type(block.raw["slack"]) is dict:
        weight = block.block("slack", {"weight"}).number("weight", weight)
    else:
        slack = block.string("slack", "hard-fail", SLACK_POLICIES)
    alpha = _kind_table(block.block("alpha", _KIND_ALIASES, {}), DEFAULT_ALPHA)
    epsilon = _kind_table(block.block("epsilon", _KIND_ALIASES, {}), DEFAULT_EPSILON)
    distance = block.number("activation_distance", DEFAULT_ACTIVATION_DISTANCE)
    return block.build(lambda: FilterConfig(FilterMode(mode), alpha, epsilon, slack, weight,
                                            distance), FilterConfig())


def _parse_dynwbc(doc: Fields, n: int | None) -> DynWbcWeights:
    """The ``dynwbc`` block; its gains are checked by ``DynWbcWeights.gains``
    for a robot with ``n`` joints (None: not loaded)."""
    block = doc.block("dynwbc", DynWbcWeights.__dataclass_fields__, {})
    values = {key: block.number(key) if key.startswith("w_") else block.raw[key]
              for key in block}
    weights = block.build(lambda: DynWbcWeights(**values), DynWbcWeights())
    if n is not None:
        block.build(lambda: weights.gains(n))
    return weights


def _parse_sim(doc: Fields, n: int | None) -> SimConfig:
    """The ``sim`` block; a pulse torque has one entry per joint of the robot
    (``n`` joints; None: not loaded)."""
    sim = doc.block("sim", SimConfig.__dataclass_fields__, {})
    pulses = []
    for _, pulse in sim.block("external_torque", default=[]).objects({"start", "end", "torque"}):
        start, end = pulse.number("start", 0.0), pulse.number("end", 0.0)
        torque = np.zeros(0) if n is None else pulse.vector("torque", n)
        pulses.append(pulse.build(lambda: TorquePulse(start, end, torque)))
    values = dict(
        duration=sim.number("duration"), dt_control=sim.number("dt_control", 5e-4),
        dt_physics=sim.number("dt_physics", 1e-4), mass_scale=sim.number("mass_scale", 1.0),
        seed=sim.integer("seed", 0), gravity=sim.vector("gravity", 3, [0.0, 0.0, -9.81]))
    integrator = sim.string("integrator", "semi-implicit-euler",
                            tuple(integrator.value for integrator in Integrator))
    return sim.build(lambda: SimConfig(**values, integrator=Integrator(integrator),
                                       external_torque=tuple(pulses)), SimConfig(duration=0.0))


def _parse_task(task: Fields, i: int, n: int | None, duration: float) -> TaskSpec | None:
    """Task ``i`` for a robot with ``n`` joints (None: not loaded) and a run
    of ``duration`` seconds; None when it has a problem."""
    link = "link" in task
    if link == ("joints" in task):
        task.problems.append(f"{task.where}: exactly one of 'link' or 'joints' required")
        return None
    block = task if link else task.block("joints")
    if block.raw is None:       # the length of the waypoints is unknown
        return None
    keys = ["link"] if link else list(block)
    indices = [block.integer(key) for key in keys]
    for key, index in zip(keys, indices):
        if None not in (index, n) and not 0 <= index < n:
            block.problem(key, f"{index} out of range")
    kind = task.string("interpolation", "cubic", ("cubic", "linear"))
    knots = task.block("waypoints", default=[])
    if knots.raw == []:
        task.problem("waypoints", "at least one waypoint required")
    entries = [knot for _, knot in knots.objects({"t", "value", "velocity"})]
    given = ["velocity" in knot for knot in entries]
    if any(given) and not all(given):
        task.problem("waypoints", "give a velocity at every waypoint or at none")
    dim = 3 if link else len(indices)
    times = [knot.number("t", 0.0) for knot in entries]
    values = [knot.vector("value", dim) for knot in entries]
    velocities = [knot.vector("velocity", dim) for knot in entries] if all(given) else None
    if knots.ok:    # an index out of range does not keep the spline from being checked
        try:
            spline = WaypointSpline.from_knots(times, np.array(values), velocities, kind=kind)
        except ValueError as exc:
            task.problem("waypoints", str(exc))
        else:
            if duration > 0 and spline.end_time < duration - 1e-12:
                task.problem("waypoints", f"spline ends at {spline.end_time} s "
                                          f"but sim.duration is {duration} s")
    priority, gain = task.integer("priority", i + 1), task.number("gain", 5.0)
    point = task.vector("point", 3, [0.0, 0.0, 0.0])
    return task.build(lambda: TaskSpec(priority, spline, gain, indices[0] if link else None,
                                       tuple(point.tolist()), None if link else tuple(indices)))


def _parse_obstacle(obstacle: Fields, i: int) -> ObstacleSpec | None:
    shape = obstacle.string("shape", "sphere", SHAPES)
    if shape == "sphere" and "p1" in obstacle:
        obstacle.problem("p1", "unknown key")
    p0 = obstacle.vector("position", 3)
    body = (obstacle.string("name", f"obstacle{i}"), -1, obstacle.number("radius"), p0,
            obstacle.vector("p1", 3) if shape == "capsule" else p0)
    motion = (obstacle.vector("velocity", 3, [0.0, 0.0, 0.0]),
              obstacle.number("measurement_noise_std", 0.0),
              obstacle.number("process_noise", 1e-2))
    return obstacle.build(lambda: ObstacleSpec(CollisionBody(*body), *motion))


def _parse_pair(pairs: Fields, i: int, robot: RobotModel | None):
    """Collision pair ``i``, the names of two of the robot's bodies; None
    when it has a problem."""
    entry = pairs.block(i)
    if entry.raw is not None and len(entry.raw) != 2:
        pairs.problem(i, f"expected [name_a, name_b], got {entry.raw!r}")
        return None
    names = [entry.string(k) for k in entry]
    if robot is None or not entry.ok:
        return None
    try:
        a, b = (robot.collision_body(name) for name in names)
    except ModelError as exc:
        pairs.problem(i, str(exc))
        return None
    if abs(a.link - b.link) > 1:
        return a, b
    pairs.problem(i, f"bodies on adjacent links ({a.link}, {b.link}) are "
                     "permanently near contact and must be whitelisted out")
    return None


def _parse_workspace(bound: Fields, i: int, n: int | None) -> WorkspacePair | None:
    values = dict(name=bound.string("name", f"ws{i}"), link_a=bound.integer("link_a", 0),
                  point_a=bound.vector("point_a", 3, [0.0, 0.0, 0.0]),
                  link_b=bound.integer("link_b", 0),
                  point_b=bound.vector("point_b", 3, [0.0, 0.0, 0.0]),
                  d_max=bound.number("d_max"))
    for key in ("link_a", "link_b"):
        if None not in (values[key], n) and not 0 <= values[key] < n:
            bound.problem(key, f"{values[key]} out of range")
    return bound.build(lambda: WorkspacePair(**values))


def load_scenario(path: str | Path, seed: int | None = None) -> Scenario:
    """Parse and validate a scenario file; raises ScenarioError with every
    problem found, each starting with its field path."""
    path = resolve_input(path)
    doc = Fields.load(path, SCENARIO_FORMAT, _SCENARIO_KEYS)
    robot, robot_path = None, Path(".")
    robot_name = doc.string("robot")
    try:
        if robot_name is not None:
            robot_path = resolve_input(robot_name, path.parent)
            robot = load_robot(robot_path)
    except ModelError as exc:
        doc.problems.extend(f"robot: {robot_path}: {problem}" for problem in exc.problems)
    except OSError as exc:
        doc.problem("robot", str(exc))
    n = None if robot is None else robot.n_dof

    q0 = qd0 = np.zeros(0)
    if robot is not None:
        q0, qd0 = (doc.vector(key, n, [0.0] * n) for key in ("q0", "qd0"))
        if q0 is not None and (np.any(q0 < robot.q_min) or np.any(q0 > robot.q_max)):
            doc.problem("q0", "outside joint limits")

    sim = _parse_sim(doc, n)
    if seed is not None:
        sim = dc_replace(sim, seed=seed)
    filter_config = _parse_filter(doc)
    weights = _parse_dynwbc(doc, n)
    tasks = tuple(_parse_task(task, i, n, sim.duration)
                  for i, task in doc.block("tasks", default=[]).objects(_TASK_KEYS))
    priorities = [task.priority for task in tasks if task is not None]
    if len(set(priorities)) != len(priorities):
        doc.problem("tasks", "priorities must be unique")
    obstacles = tuple(_parse_obstacle(obstacle, i) for i, obstacle
                      in doc.block("obstacles", default=[]).objects(_OBSTACLE_KEYS))
    pairs = doc.block("collision_pairs", default=[])
    pairs = tuple(_parse_pair(pairs, i, robot) for i in pairs)
    workspace = tuple(_parse_workspace(bound, i, n) for i, bound
                      in doc.block("workspace", default=[]).objects(_WORKSPACE_KEYS))
    name = doc.string("name", path.stem)
    if doc.problems:
        raise ScenarioError(path, doc.problems)
    return Scenario(name, robot, q0, qd0, tasks, obstacles, pairs, workspace,
                    filter_config, weights, sim)
