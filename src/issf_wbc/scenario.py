"""Scenario files: robot + tasks + obstacles + controller/sim configuration.

A scenario is a JSON document (UTF-8, schema ``issf-wbc/scenario/v1``)
referencing a robot description and declaring waypoint-spline tasks,
obstacles with constant-velocity motion, the collision pair list, workspace
distance bounds, and the filter / torque-controller / simulation settings.
Parsing collects precise field-level diagnostics instead of failing on the
first problem.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from dataclasses import replace as dc_replace
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .dynwbc import DynWbcWeights
from .geometry import CollisionBody, WorkspacePair
from .kinwbc import Task
from .model import RobotModel, load_robot
from .safety import (
    BarrierKind,
    DEFAULT_ALPHA,
    DEFAULT_EPSILON,
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
    velocity: np.ndarray
    measurement_noise_std: float = 0.0
    process_noise: float = 1e-2


@dataclass(frozen=True)
class Scenario:
    name: str
    robot: RobotModel
    robot_path: Path
    q0: np.ndarray
    qd0: np.ndarray
    tasks: tuple[TaskSpec, ...]
    obstacles: tuple[ObstacleSpec, ...]
    collision_pairs: tuple[tuple[CollisionBody, CollisionBody], ...]
    workspace_pairs: tuple[WorkspacePair, ...]
    filter_config: FilterConfig
    weights: DynWbcWeights
    sim: SimConfig


def _vec(raw, length, problems, where) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    if arr.shape != (length,):
        problems.append(f"{where}: expected {length} numbers, got {raw!r}")
        return np.zeros(length)
    return arr


_FILTER_KEYS = frozenset({"mode", "alpha", "epsilon", "slack", "activation_distance"})


def _reject_unknown(raw: dict, known, problems: list, where: str) -> None:
    for key in raw or {}:
        if key not in known:
            problems.append(f"{where}.{key}: unknown key")


def _number(raw, default: float, problems: list, where: str) -> float:
    """``raw`` as a float; ``default`` and a problem naming ``where`` if it is not a number."""
    try:
        return float(raw)
    except (TypeError, ValueError):
        problems.append(f"{where}: expected a number, got {raw!r}")
        return default


def _parse_kind_table(raw: dict, defaults: dict, problems: list, where: str) -> dict:
    table = dict(defaults)
    for key, value in (raw or {}).items():
        kinds = _KIND_ALIASES.get(key)
        if kinds is None:
            problems.append(f"{where}.{key}: unknown constraint kind")
            continue
        for kind in kinds:
            table[kind] = _number(value, defaults[kind], problems, f"{where}.{key}")
    return table


def _parse_filter(raw: dict, problems: list) -> FilterConfig:
    _reject_unknown(raw, _FILTER_KEYS, problems, "filter")
    mode_name = (raw or {}).get("mode", "issf-cbf")
    try:
        mode = FilterMode(mode_name)
    except ValueError:
        problems.append(f"filter.mode: unknown mode {mode_name!r}")
        mode = FilterMode.ISSF_CBF
    slack = (raw or {}).get("slack", "hard-fail")
    weight = 1e6
    if isinstance(slack, dict):
        weight = _number(slack.get("weight", weight), weight, problems, "filter.slack.weight")
        slack = "slack"
    if slack not in SLACK_POLICIES:
        problems.append(f"filter.slack: expected one of {SLACK_POLICIES}, got {slack!r}")
        slack = "hard-fail"
    alpha = _parse_kind_table((raw or {}).get("alpha"), DEFAULT_ALPHA, problems, "filter.alpha")
    epsilon = _parse_kind_table((raw or {}).get("epsilon"), DEFAULT_EPSILON, problems, "filter.epsilon")
    activation_distance = _number((raw or {}).get("activation_distance", 0.3), 0.3, problems,
                                  "filter.activation_distance")
    try:
        return FilterConfig(mode=mode, alpha=alpha, epsilon=epsilon, slack_policy=slack,
                            slack_weight=weight, activation_distance=activation_distance)
    except ValueError as exc:   # FilterConfig joins its problems with "; "
        problems.extend(f"filter.{problem}" for problem in str(exc).split("; "))
        return FilterConfig()


def _parse_sim(raw: dict, problems: list) -> SimConfig:
    raw = raw or {}
    _reject_unknown(raw, SimConfig.__dataclass_fields__, problems, "sim")
    if "duration" not in raw:
        problems.append("sim.duration: required")
    integ_name = raw.get("integrator", "semi-implicit-euler")
    try:
        integrator = Integrator(integ_name)
    except ValueError:
        problems.append(f"sim.integrator: unknown integrator {integ_name!r}")
        integrator = Integrator.SEMI_IMPLICIT_EULER
    pulses = []
    for i, p in enumerate(raw.get("external_torque", [])):
        pulses.append(TorquePulse(
            start=float(p.get("start", 0.0)),
            end=float(p.get("end", 0.0)),
            torque=np.asarray(p.get("torque", []), dtype=float),
        ))
    try:
        return SimConfig(
            duration=float(raw.get("duration", 0.0)),
            dt_control=float(raw.get("dt_control", 5e-4)),
            dt_physics=float(raw.get("dt_physics", 1e-4)),
            mass_scale=float(raw.get("mass_scale", 1.0)),
            integrator=integrator,
            seed=int(raw.get("seed", 0)),
            gravity=np.asarray(raw.get("gravity", [0.0, 0.0, -9.81]), dtype=float),
            external_torque=tuple(pulses),
        )
    except ValueError as exc:
        problems.append(f"sim: {exc}")
        return SimConfig(duration=0.0)


def load_scenario(path: str | Path, seed: int | None = None) -> Scenario:
    """Parse and validate a scenario file; raises ScenarioError with diagnostics."""
    path = resolve_input(path)
    base = path.parent
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioError(path, [f"line {exc.lineno}, col {exc.colno}: {exc.msg}"]) from exc

    problems: list[str] = []
    if doc.get("format") != SCENARIO_FORMAT:
        problems.append(f"format: must be {SCENARIO_FORMAT!r}, got {doc.get('format')!r}")

    robot = None
    robot_path = Path(".")
    try:
        robot_path = resolve_input(doc.get("robot", ""), base)
        robot = load_robot(robot_path)
    except (OSError, ValueError) as exc:
        problems.append(f"robot: {exc}")
    n = robot.n_dof if robot is not None else 0

    q0 = _vec(doc.get("q0", [0.0] * n), n, problems, "q0") if robot else np.zeros(0)
    qd0 = _vec(doc.get("qd0", [0.0] * n), n, problems, "qd0") if robot else np.zeros(0)

    sim = _parse_sim(doc.get("sim"), problems)
    if seed is not None:
        sim = dc_replace(sim, seed=seed)
    filter_config = _parse_filter(doc.get("filter"), problems)

    fields = DynWbcWeights.__dataclass_fields__
    _reject_unknown(doc.get("dynwbc"), fields, problems, "dynwbc")
    try:
        weights = DynWbcWeights(**{
            key: value for key, value in (doc.get("dynwbc") or {}).items()
            if key in fields
        })
    except (TypeError, ValueError) as exc:
        problems.append(f"dynwbc: {exc}")
        weights = DynWbcWeights()

    tasks: list[TaskSpec] = []
    for i, raw in enumerate(doc.get("tasks", [])):
        where = f"tasks[{i}]"
        has_link = "link" in raw
        has_joints = "joints" in raw
        if has_link == has_joints:
            problems.append(f"{where}: exactly one of 'link' or 'joints' required")
            continue
        knots = raw.get("waypoints", [])
        if not knots:
            problems.append(f"{where}.waypoints: at least one waypoint required")
            continue
        dim = 3 if has_link else len(raw["joints"])
        times = [float(w.get("t", 0.0)) for w in knots]
        values = [_vec(w.get("value"), dim, problems, f"{where}.waypoints[{j}].value")
                  for j, w in enumerate(knots)]
        vels = None
        if all("velocity" in w for w in knots):
            vels = [_vec(w["velocity"], dim, problems, f"{where}.waypoints[{j}].velocity")
                    for j, w in enumerate(knots)]
        try:
            spline = WaypointSpline.from_knots(
                times, np.array(values), vels,
                kind=raw.get("interpolation", "cubic"),
            )
        except ValueError as exc:
            problems.append(f"{where}.waypoints: {exc}")
            continue
        if sim.duration > 0 and spline.end_time < sim.duration - 1e-12:
            problems.append(
                f"{where}.waypoints: spline ends at {spline.end_time} s "
                f"but sim.duration is {sim.duration} s"
            )
        tasks.append(TaskSpec(
            priority=int(raw.get("priority", i + 1)),
            spline=spline,
            gain=float(raw.get("gain", 5.0)),
            link=int(raw["link"]) if has_link else None,
            point=tuple(_vec(raw.get("point", [0, 0, 0]), 3, problems,
                             f"{where}.point").tolist()),
            joints=tuple(int(j) for j in raw["joints"]) if has_joints else None,
        ))
    seen_priorities = [t.priority for t in tasks]
    if len(set(seen_priorities)) != len(seen_priorities):
        problems.append("tasks: priorities must be unique")

    obstacles: list[ObstacleSpec] = []
    for i, raw in enumerate(doc.get("obstacles", [])):
        where = f"obstacles[{i}]"
        shape = raw.get("shape", "sphere")
        if shape not in ("sphere", "capsule"):
            problems.append(f"{where}.shape: must be sphere or capsule")
            continue
        p0 = _vec(raw.get("position"), 3, problems, f"{where}.position")
        p1 = _vec(raw["p1"], 3, problems, f"{where}.p1") if shape == "capsule" else p0
        try:
            body = CollisionBody(
                name=str(raw.get("name", f"obstacle{i}")), link=-1,
                radius=float(raw.get("radius", 0.0)), p0=p0, p1=p1,
            )
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
            continue
        obstacles.append(ObstacleSpec(
            body=body,
            velocity=_vec(raw.get("velocity", [0, 0, 0]), 3, problems, f"{where}.velocity"),
            measurement_noise_std=float(raw.get("measurement_noise_std", 0.0)),
            process_noise=float(raw.get("process_noise", 1e-2)),
        ))

    pairs: list[tuple[CollisionBody, CollisionBody]] = []
    if robot is not None:
        for i, raw in enumerate(doc.get("collision_pairs", [])):
            where = f"collision_pairs[{i}]"
            if not (isinstance(raw, list) and len(raw) == 2):
                problems.append(f"{where}: expected [name_a, name_b]")
                continue
            try:
                a = robot.collision_body(str(raw[0]))
                b = robot.collision_body(str(raw[1]))
            except ValueError as exc:
                problems.append(f"{where}: {exc}")
                continue
            if abs(a.link - b.link) <= 1:
                problems.append(
                    f"{where}: bodies on adjacent links ({a.link}, {b.link}) are "
                    "permanently near contact and must be whitelisted out"
                )
                continue
            pairs.append((a, b))

    workspace: list[WorkspacePair] = []
    for i, raw in enumerate(doc.get("workspace", [])):
        where = f"workspace[{i}]"
        d_max = float(raw.get("d_max", 0.0))
        if d_max <= 0.0:
            problems.append(f"{where}.d_max: must be > 0")
            continue
        workspace.append(WorkspacePair(
            name=str(raw.get("name", f"ws{i}")),
            link_a=int(raw.get("link_a", 0)),
            point_a=_vec(raw.get("point_a", [0, 0, 0]), 3, problems, f"{where}.point_a"),
            link_b=int(raw.get("link_b", 0)),
            point_b=_vec(raw.get("point_b", [0, 0, 0]), 3, problems, f"{where}.point_b"),
            d_max=d_max,
        ))

    if robot is not None:
        for i, t in enumerate(tasks):
            if t.link is not None and not 0 <= t.link < n:
                problems.append(f"tasks[{i}].link: {t.link} out of range")
            if t.joints is not None and any(not 0 <= j < n for j in t.joints):
                problems.append(f"tasks[{i}].joints: index out of range")
        for i, w in enumerate(workspace):
            for label, link in (("link_a", w.link_a), ("link_b", w.link_b)):
                if not 0 <= link < n:
                    problems.append(f"workspace[{i}].{label}: {link} out of range")
        if np.any(q0 < robot.q_min) or np.any(q0 > robot.q_max):
            problems.append("q0: outside joint limits")

    if problems:
        raise ScenarioError(path, problems)

    return Scenario(
        name=str(doc.get("name", path.stem)),
        robot=robot,
        robot_path=robot_path,
        q0=q0,
        qd0=qd0,
        tasks=tuple(tasks),
        obstacles=tuple(obstacles),
        collision_pairs=tuple(pairs),
        workspace_pairs=tuple(workspace),
        filter_config=filter_config,
        weights=weights,
        sim=sim,
    )
