import csv
import json
import math

import numpy as np
import pytest

import issf_wbc.cli
from issf_wbc.cli import main as cli_main
from issf_wbc.dynwbc import DynWbcInfeasibleError
from issf_wbc.geometry import CollisionBody
from issf_wbc.harness import collision_events, output_root, run_scenario, run_sweep
from issf_wbc.model import ModelError, load_robot
from issf_wbc.qpsolver import QpSolution, QpStatus
from issf_wbc.safety import BarrierKind, FilterInfeasibleError
from issf_wbc.scenario import (
    ObstacleSpec,
    ScenarioError,
    WaypointSpline,
    data_path,
    load_scenario,
    resolve_input,
)

import spline_oracle


def write_mini_scenario(tmp_path, *, duration=0.05, name="mini", extra=None):
    doc = {
        "format": "issf-wbc/scenario/v1",
        "name": name,
        "robot": "planar3.robot",
        "q0": [1.1, 2.1, 1.4],
        "tasks": [
            {"priority": 1, "joints": [0, 1, 2], "gain": 2.0,
             "waypoints": [{"t": 0.0, "value": [1.1, 2.1, 1.4]},
                           {"t": duration, "value": [1.1, 2.1, 1.4]}]},
        ],
        "collision_pairs": [["hand", "upper"]],
        "filter": {"mode": "issf-cbf"},
        "sim": {"duration": duration, "mass_scale": 1.1, "seed": 3},
    }
    if extra:
        doc.update(extra)
    path = tmp_path / f"{name}.scenario"
    path.write_text(json.dumps(doc))
    return path


class TestScenarioParsing:
    def test_bundled_scenarios_validate(self):
        for name in ("hand_track.scenario", "obstacle_track.scenario"):
            scenario = load_scenario(data_path(name))
            assert scenario.sim.duration > 0
            assert scenario.collision_pairs

    def test_diagnostics_accumulate_with_field_paths(self, tmp_path):
        path = tmp_path / "bad.scenario"
        path.write_text(json.dumps({
            "format": "issf-wbc/scenario/v1",
            "robot": "planar3.robot",
            "q0": [0, 0, 0],
            "tasks": [{"priority": 1, "link": 9, "point": [0, 0, 0],
                       "waypoints": [{"t": 0.0, "value": [0, 0, 0]}]}],
            "collision_pairs": [["hand", "nope"], ["hand", "fore"]],
            "filter": {"mode": "warp-drive"},
            "sim": {"duration": 1.0},
        }))
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        text = str(err.value)
        assert "tasks[0].link" in text
        assert "collision_pairs[0]" in text
        assert "adjacent links" in text          # hand(2) and fore(1) touch
        assert "filter.mode" in text
        assert "tasks[0].waypoints" in text      # spline shorter than duration

    def test_json_syntax_error_carries_line(self, tmp_path):
        path = tmp_path / "broken.scenario"
        path.write_text('{\n  "format": oops\n}')
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(path)

    @pytest.mark.parametrize("block,key,value", [
        ("dynwbc", "kp_dynn", 300.0),
        ("sim", "dt_contrl", 1e-3),
        ("sim", "pipelined", True),
        ("filter", "activaton_distance", 0.5),
    ])
    def test_unknown_keys_rejected(self, tmp_path, block, key, value):
        doc = {
            "filter": {"mode": "issf-cbf"},
            "sim": {"duration": 0.05, "mass_scale": 1.1, "seed": 3},
            "dynwbc": {"kp_dyn": 400.0},
        }
        doc[block][key] = value
        path = write_mini_scenario(tmp_path, extra=doc)
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert err.value.problems == [f"{block}.{key}: unknown key"]

    @pytest.mark.parametrize("key", ["kp_dyn", "kd_dyn", "motor_kp", "motor_kd"])
    def test_dynwbc_gain_vector_length_checked_at_load(self, tmp_path, key):
        # planar3 has 3 joints: a scalar or 3 values are accepted, 2 are not.
        for gain in (100.0, [100.0, 100.0, 100.0]):
            load_scenario(write_mini_scenario(tmp_path, extra={"dynwbc": {key: gain}}))
        path = write_mini_scenario(tmp_path, extra={"dynwbc": {key: [100.0, 100.0]}})
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert err.value.problems == [f"dynwbc.{key}: expected a scalar or 3 values, got 2"]

    @pytest.mark.parametrize("key", ["kp_dyn", "kd_dyn", "motor_kp", "motor_kd"])
    @pytest.mark.parametrize("gain", ["abc", "100", None, True, float("nan"),
                                      [100.0, "x", 100.0], [[1.0, 2.0], [3.0]], {"kp": 1.0}])
    def test_dynwbc_gain_not_a_number_rejected_at_load(self, tmp_path, key, gain):
        path = write_mini_scenario(tmp_path, extra={"dynwbc": {key: gain}})
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert err.value.problems == [
            f"dynwbc.{key}: expected a number or 3 numbers, got {gain!r}"]

    @pytest.mark.parametrize("table,kind,value,problem", [
        ("alpha", "self-collision", 0.0, "must be finite and > 0, got 0.0"),
        ("alpha", "workspace", -1.0, "must be finite and > 0, got -1.0"),
        ("alpha", "object-collision", math.nan, "must be finite and > 0, got nan"),
        ("epsilon", "self-collision", 0.0, "must be > 0 (or inf), got 0.0"),
        ("epsilon", "self-collision", -1.0, "must be > 0 (or inf), got -1.0"),
        ("epsilon", "workspace", math.nan, "must be > 0 (or inf), got nan"),
    ])
    def test_filter_parameters_checked_at_load(self, tmp_path, table, kind, value, problem):
        path = write_mini_scenario(tmp_path, extra={
            "filter": {"mode": "issf-cbf", table: {kind: value}}})
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert err.value.problems == [f"filter.{table}.{kind}: {problem}"]

    def test_joint_limit_alias_reports_both_kinds(self, tmp_path):
        path = write_mini_scenario(tmp_path, extra={
            "filter": {"mode": "issf-cbf", "epsilon": {"joint-limit": -1}}})
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert err.value.problems == [
            f"filter.epsilon.joint-limit-{end}: must be > 0 (or inf), got -1.0"
            for end in ("min", "max")]

    @pytest.mark.parametrize("filter_block,where", [
        ({"alpha": {"workspace": "abc"}}, "filter.alpha.workspace"),
        ({"activation_distance": "abc"}, "filter.activation_distance"),
        ({"slack": {"weight": "abc"}}, "filter.slack.weight"),
    ], ids=["alpha", "activation_distance", "slack_weight"])
    def test_non_numeric_filter_value_rejected(self, tmp_path, filter_block, where):
        path = write_mini_scenario(tmp_path, extra={
            "filter": {"mode": "issf-cbf", **filter_block}})
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert err.value.problems == [f"{where}: expected a number, got 'abc'"]

    def test_misspelt_slack_policy_rejected(self, tmp_path):
        path = write_mini_scenario(tmp_path, extra={
            "filter": {"mode": "issf-cbf", "slack": "hard_fail"}})
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert err.value.problems == [
            "filter.slack: expected one of ('hard-fail', 'slack'), got 'hard_fail'"]

    def test_every_known_key_accepted(self, tmp_path):
        path = write_mini_scenario(tmp_path, extra={
            "filter": {"mode": "cbf", "alpha": {"workspace": 5.0},
                       "epsilon": {"joint-limit": 20.0}, "slack": "hard-fail",
                       "activation_distance": 0.25},
            "sim": {"duration": 0.05, "dt_control": 1e-3, "dt_physics": 2.5e-4,
                    "mass_scale": 1.1, "integrator": "rk4", "seed": 4,
                    "gravity": [0.0, 0.0, -9.0],
                    "external_torque": [{"start": 0.0, "end": 0.01,
                                         "torque": [0.1, 0.0, 0.0]}]},
            "dynwbc": {"w_qdd": 1.0, "w_c": 1e-2, "w_tau": 1e-4, "w_M": 1e-5,
                       "kp_dyn": 300.0, "kd_dyn": 30.0, "motor_kp": 90.0,
                       "motor_kd": 9.0},
        })
        scenario = load_scenario(path)
        assert scenario.filter_config.activation_distance == 0.25
        assert scenario.sim.dt_control == 1e-3
        assert scenario.weights.kp_dyn == 300.0

    def test_seed_override(self):
        scenario = load_scenario(data_path("hand_track.scenario"), seed=99)
        assert scenario.sim.seed == 99

    def test_resolve_prefers_explicit_path(self, tmp_path):
        local = tmp_path / "hand_track.scenario"
        local.write_text("{}")
        assert resolve_input(local) == local
        assert resolve_input("hand_track.scenario") == data_path("hand_track.scenario")
        with pytest.raises(FileNotFoundError):
            resolve_input("missing.scenario")



def every_block_scenario(tmp_path, path=(), key=None, value=None, robot="planar3.robot"):
    """A mini scenario with a joint task, a link task, an obstacle, a workspace
    bound and a torque pulse, with ``doc[path...][key] = value`` applied."""
    hold = {"t": 0.0, "value": [1.1, 2.1, 1.4]}
    doc = {
        "format": "issf-wbc/scenario/v1", "name": "mini", "robot": robot,
        "q0": [1.1, 2.1, 1.4],
        "tasks": [
            {"priority": 1, "joints": [0, 1, 2], "gain": 2.0,
             "waypoints": [hold, {**hold, "t": 0.05}]},
            {"priority": 2, "link": 2, "point": [0.0, 0.0, 0.0], "interpolation": "linear",
             "waypoints": [{"t": 0.0, "value": [0.1, 0.0, 0.4]},
                           {"t": 0.05, "value": [0.1, 0.0, 0.4]}]},
        ],
        "obstacles": [{"name": "ball", "shape": "sphere", "position": [2.0, 0.0, 2.0],
                       "radius": 0.05, "velocity": [0.0, 0.0, 0.0]}],
        "workspace": [{"name": "ws", "link_a": 0, "point_a": [0.0, 0.0, 0.0],
                       "link_b": 2, "point_b": [0.0, 0.0, 0.0], "d_max": 5.0}],
        "collision_pairs": [["hand", "upper"]],
        "sim": {"duration": 0.05, "seed": 3,
                "external_torque": [{"start": 0.0, "end": 0.01, "torque": [0.1, 0.0, 0.0]}]},
    }
    target = doc
    for step in path:
        target = target[step]
    if key is not None:
        target[key] = value
    scenario = tmp_path / "mini.scenario"
    scenario.write_text(json.dumps(doc))
    return scenario


def single_problem(path):
    """The one problem of the scenario file ``path``, which ``issf-wbc check``
    also reports, exiting with code 2."""
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert len(err.value.problems) == 1, err.value.problems
    assert cli_main(["check", str(path)]) == 2
    return err.value.problems[0]


class TestEveryScenarioValueHonouredOrRejected:
    @pytest.mark.parametrize("path,key,where", [
        (("tasks", 0), "gain", "tasks[0].gain"),
        (("tasks", 1, "waypoints", 0), "t", "tasks[1].waypoints[0].t"),
        (("workspace", 0), "d_max", "workspace[0].d_max"),
        (("obstacles", 0), "radius", "obstacles[0].radius"),
        (("sim", "external_torque", 0), "start", "sim.external_torque[0].start"),
    ])
    def test_non_numeric_value_rejected(self, tmp_path, path, key, where):
        problem = single_problem(every_block_scenario(tmp_path, path, key, "x"))
        assert problem == f"{where}: expected a number, got 'x'"

    @pytest.mark.parametrize("path,key,where", [
        (("tasks", 0), "priority", "tasks[0].priority"),
        (("tasks", 1), "link", "tasks[1].link"),
        (("tasks", 0, "joints"), 0, "tasks[0].joints[0]"),
        (("workspace", 0), "link_a", "workspace[0].link_a"),
        (("sim",), "seed", "sim.seed"),
    ])
    @pytest.mark.parametrize("value", ["x", 1.5])
    def test_non_integer_value_rejected(self, tmp_path, path, key, where, value):
        problem = single_problem(every_block_scenario(tmp_path, path, key, value))
        assert problem == f"{where}: expected an integer, got {value!r}"

    @pytest.mark.parametrize("torque", [[1.0], [0.1, 0.0, 0.0, 0.0], [], "abc"])
    def test_pulse_torque_needs_one_entry_per_joint(self, tmp_path, torque):
        path = every_block_scenario(tmp_path, ("sim", "external_torque", 0), "torque", torque)
        assert single_problem(path) == (
            f"sim.external_torque[0].torque: expected 3 numbers, got {torque!r}")

    @pytest.mark.parametrize("kind", ["quintic", "Linear"])
    def test_unknown_interpolation_rejected(self, tmp_path, kind):
        path = every_block_scenario(tmp_path, ("tasks", 1), "interpolation", kind)
        assert single_problem(path) == (
            f"tasks[1].interpolation: expected one of ('cubic', 'linear'), got {kind!r}")

    @pytest.mark.parametrize("path,where", [
        ((), "colour"),
        (("tasks", 0), "tasks[0].colour"),
        (("tasks", 1, "waypoints", 1), "tasks[1].waypoints[1].colour"),
        (("obstacles", 0), "obstacles[0].colour"),
        (("workspace", 0), "workspace[0].colour"),
        (("sim", "external_torque", 0), "sim.external_torque[0].colour"),
    ])
    def test_unknown_key_rejected_in_every_block(self, tmp_path, path, where):
        problem = single_problem(every_block_scenario(tmp_path, path, "colour", "red"))
        assert problem == f"{where}: unknown key"

    @pytest.mark.parametrize("block,key", [
        ("links", "mass"), ("links", "inertia"), ("joints", "axis"), ("collision", "radius"),
    ])
    def test_robot_without_required_key_rejected(self, tmp_path, block, key):
        robot = json.loads(data_path("planar3.robot").read_text())
        del robot[block][0][key]
        robot_path = tmp_path / "planar3.robot"
        robot_path.write_text(json.dumps(robot))
        path = every_block_scenario(tmp_path, robot=str(robot_path))
        assert single_problem(path) == f"robot: {robot_path}: {block}[0].{key}: required"

    @pytest.mark.parametrize("path,key,where", [
        ((), "tasks", "tasks"), ((), "obstacles", "obstacles"), ((), "workspace", "workspace"),
        ((), "collision_pairs", "collision_pairs"),
        (("sim",), "external_torque", "sim.external_torque"),
        (("tasks", 0), "waypoints", "tasks[0].waypoints"),
        (("tasks", 0), "joints", "tasks[0].joints"),
    ])
    def test_list_of_another_kind_rejected(self, tmp_path, path, key, where):
        problem = single_problem(every_block_scenario(tmp_path, path, key, 5))
        assert problem == f"{where}: expected a list, got 5"

    @pytest.mark.parametrize("path,key,where,kind", [
        (("tasks",), 0, "tasks[0]", "an object"),
        (("tasks", 1, "waypoints"), 0, "tasks[1].waypoints[0]", "an object"),
        (("obstacles",), 0, "obstacles[0]", "an object"),
        (("workspace",), 0, "workspace[0]", "an object"),
        (("sim", "external_torque"), 0, "sim.external_torque[0]", "an object"),
        (("collision_pairs",), 0, "collision_pairs[0]", "a list"),
    ])
    def test_list_entry_of_another_kind_rejected(self, tmp_path, path, key, where, kind):
        problem = single_problem(every_block_scenario(tmp_path, path, key, 1))
        assert problem == f"{where}: expected {kind}, got 1"

    @pytest.mark.parametrize("key,value,where", [
        ("sim", [1], "sim"), ("filter", [1], "filter"), ("dynwbc", [1], "dynwbc"),
        ("filter", {"alpha": [1]}, "filter.alpha"),
    ])
    def test_block_of_another_kind_rejected(self, tmp_path, key, value, where):
        problem = single_problem(every_block_scenario(tmp_path, (), key, value))
        assert problem == f"{where}: expected an object, got [1]"

    @pytest.mark.parametrize("key,value", [("robot", 5), ("name", [1])])
    def test_string_of_another_kind_rejected(self, tmp_path, key, value):
        problem = single_problem(every_block_scenario(tmp_path, (), key, value))
        assert problem == f"{key}: expected a string, got {value!r}"

    @pytest.mark.parametrize("path,key,value,problem", [
        (("tasks", 0), "gain", "100", "tasks[0].gain: expected a number, got '100'"),
        (("tasks", 0), "gain", True, "tasks[0].gain: expected a number, got True"),
        (("tasks", 0), "gain", math.nan, "tasks[0].gain: expected a number, got nan"),
        (("obstacles", 0), "radius", math.nan, "obstacles[0].radius: expected a number, got nan"),
        (("workspace", 0), "d_max", math.nan, "workspace[0].d_max: expected a number, got nan"),
        (("sim",), "mass_scale", math.nan, "sim.mass_scale: expected a number, got nan"),
        (("sim",), "duration", math.nan, "sim.duration: expected a number, got nan"),
        (("sim",), "seed", True, "sim.seed: expected an integer, got True"),
        ((), "filter", {"activation_distance": math.nan},
         "filter.activation_distance: expected a number, got nan"),
        ((), "dynwbc", {"w_tau": math.nan}, "dynwbc.w_tau: expected a number, got nan"),
        ((), "dynwbc", {"w_tau": "1e-4"}, "dynwbc.w_tau: expected a number, got '1e-4'"),
    ])
    def test_number_rule(self, tmp_path, path, key, value, problem):
        assert single_problem(every_block_scenario(tmp_path, path, key, value)) == problem

    @pytest.mark.parametrize("path,key,value,problem", [
        (("sim",), "dt_physics", -1e-4, "sim.dt_physics: must be > 0, got -0.0001"),
        (("sim",), "dt_physics", 0.0, "sim.dt_physics: must be > 0, got 0.0"),
        (("sim",), "duration", -1.0, "sim.duration: must be finite and >= 0, got -1.0"),
        (("sim",), "duration", math.inf, "sim.duration: must be finite and >= 0, got inf"),
        (("obstacles", 0), "measurement_noise_std", -0.1,
         "obstacles[0].measurement_noise_std: must be finite and >= 0, got -0.1"),
        (("obstacles", 0), "measurement_noise_std", math.inf,
         "obstacles[0].measurement_noise_std: must be finite and >= 0, got inf"),
        (("obstacles", 0), "process_noise", -1.0,
         "obstacles[0].process_noise: must be finite and >= 0, got -1.0"),
        (("obstacles", 0), "process_noise", math.inf,
         "obstacles[0].process_noise: must be finite and >= 0, got inf"),
        ((), "filter", {"activation_distance": -5.0},
         "filter.activation_distance: must be >= 0, got -5.0"),
        ((), "filter", {"slack": {"weight": 0}},
         "filter.slack.weight: must be finite and > 0, got 0.0"),
        ((), "dynwbc", {"w_qdd": 0.0}, "dynwbc.w_qdd: must be > 0"),
        (("sim",), "dt_control", math.inf, "sim.dt_control: must be finite and > 0, got inf"),
        (("sim",), "mass_scale", math.inf, "sim.mass_scale: must be finite and > 0, got inf"),
        (("sim",), "gravity", [0.0, 0.0, -math.inf],
         "sim.gravity: must be finite, got [0.0, 0.0, -inf]"),
        (("sim", "external_torque", 0), "start", -math.inf,
         "sim.external_torque[0].start: must be finite, got -inf"),
        (("sim", "external_torque", 0), "end", math.inf,
         "sim.external_torque[0].end: must be finite, got inf"),
        (("sim", "external_torque", 0), "torque", [math.inf, 0.0, 0.0],
         "sim.external_torque[0].torque: must be finite, got [inf, 0.0, 0.0]"),
        (("sim", "external_torque", 0), "end", 0.0,
         "sim.external_torque[0].end: must be > start (0.0), got 0.0"),
        (("sim", "external_torque", 0), "start", 0.02,
         "sim.external_torque[0].end: must be > start (0.02), got 0.01"),
        (("obstacles", 0), "radius", math.inf,
         "obstacles[0].radius: must be finite and > 0, got inf"),
        (("workspace", 0), "d_max", math.inf,
         "workspace[0].d_max: must be finite and > 0, got inf"),
        (("sim",), "dt_physics", 3e-4,
         "sim.dt_physics: must divide dt_control (0.0005), got 0.0003"),
        ((), "q0", [1.1, 2.1, 100.0], "q0: outside joint limits"),
        ((), "q0", [-100.0, 2.1, 1.4], "q0: outside joint limits"),
    ])
    def test_value_out_of_bounds_rejected(self, tmp_path, path, key, value, problem):
        assert single_problem(every_block_scenario(tmp_path, path, key, value)) == problem

    @pytest.mark.parametrize("key", ["measurement_noise_std", "process_noise"])
    def test_nan_obstacle_noise_rejected(self, key):
        # A file cannot give NaN (the number reader rejects it); code can.
        body = CollisionBody("ball", -1, 0.1, np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match=f"^{key}: must be finite and >= 0, got nan$"):
            ObstacleSpec(body, np.zeros(3), **{key: math.nan})

    def test_both_infinite_obstacle_noises_reported(self, tmp_path):
        # An infinite noise makes the Kalman estimate NaN from its second update.
        path = every_block_scenario(tmp_path, ("obstacles", 0), "process_noise", math.inf)
        doc = json.loads(path.read_text())
        doc["obstacles"][0]["measurement_noise_std"] = math.inf
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert err.value.problems == [
            "obstacles[0].measurement_noise_std: must be finite and >= 0, got inf",
            "obstacles[0].process_noise: must be finite and >= 0, got inf"]

    def test_sphere_obstacle_has_no_second_end(self, tmp_path):
        path = every_block_scenario(tmp_path, ("obstacles", 0), "p1", [2.0, 0.0, 2.0])
        assert single_problem(path) == "obstacles[0].p1: unknown key"


def robot_problem(tmp_path, path, key, value):
    """The one problem of a copy of ``planar3.robot`` with ``doc[path...][key]
    = value``: ``load_robot`` raises it in a ``ModelError``, and a scenario on
    that robot reports it under ``robot: <path>``."""
    robot = json.loads(data_path("planar3.robot").read_text())
    target = robot
    for step in path:
        target = target[step]
    target[key] = value
    robot_path = tmp_path / "planar3.robot"
    robot_path.write_text(json.dumps(robot))
    with pytest.raises(ModelError) as err:
        load_robot(robot_path)
    assert len(err.value.problems) == 1, err.value.problems
    problem = err.value.problems[0]
    assert str(err.value) == f"{robot_path}: {problem}"
    scenario = every_block_scenario(tmp_path, robot=str(robot_path))
    assert single_problem(scenario) == f"robot: {robot_path}: {problem}"
    return problem


class TestEveryRobotValueHonouredOrRejected:
    @pytest.mark.parametrize("path,key,value,problem", [
        ((), "links", 5, "links: expected a list, got 5"),
        (("links",), 0, 1, "links[0]: expected an object, got 1"),
        (("joints",), 0, 5, "joints[0]: expected an object, got 5"),
        (("collision",), 0, 1, "collision[0]: expected an object, got 1"),
        (("links", 0), "origin", 5, "links[0].origin: expected an object, got 5"),
        (("joints", 0), "limits", 5, "joints[0].limits: expected an object, got 5"),
    ])
    def test_block_of_another_kind_rejected(self, tmp_path, path, key, value, problem):
        assert robot_problem(tmp_path, path, key, value) == problem

    @pytest.mark.parametrize("path,key,value,problem", [
        (("links", 0), "mass", "abc", "links[0].mass: expected a number, got 'abc'"),
        (("joints", 0, "limits"), "lower", "x",
         "joints[0].limits.lower: expected a number, got 'x'"),
        (("links", 0), "parent", "x", "links[0].parent: expected an integer, got 'x'"),
        (("collision", 0), "link", 1.5, "collision[0].link: expected an integer, got 1.5"),
        (("links", 0), "com", [0.0, 0.0], "links[0].com: expected 3 numbers, got [0.0, 0.0]"),
        (("collision", 0), "shape", "cube",
         "collision[0].shape: expected one of ('sphere', 'capsule'), got 'cube'"),
    ])
    def test_value_of_another_kind_rejected(self, tmp_path, path, key, value, problem):
        assert robot_problem(tmp_path, path, key, value) == problem

    @pytest.mark.parametrize("path,key,value", [
        ((), "colour", "red"),
        (("links", 0), "inertai", [1.0, 1.0, 1.0]),
        (("links", 0, "origin"), "xzy", [0.0, 0.0, 0.0]),
        (("joints", 0, "limits"), "velocity", 12.0),
        (("collision", 2), "p1", [0.0, 0.0, 0.0]),      # "hand" is a sphere
    ])
    def test_unknown_key_rejected(self, tmp_path, path, key, value):
        where = "".join(f"[{step}]" if isinstance(step, int) else f".{step}"
                        for step in (*path, key)).lstrip(".")
        assert robot_problem(tmp_path, path, key, value) == f"{where}: unknown key"

    @pytest.mark.parametrize("path,key,value,problem", [
        (("links", 0), "mass", 0.0, "links[0].mass: must be finite and > 0, got 0.0"),
        (("links", 0), "inertia", [1.0, -1.0, 1.0], "links[0].inertia: not positive definite"),
        (("links", 1), "parent", 5, "links[1].parent: 5 breaks the serial chain"),
        (("joints", 0), "axis", [0.0, 0.0, 0.0],
         "joints[0].axis: expected 3 numbers, finite and not all 0, got [0.0, 0.0, 0.0]"),
        (("joints", 0, "limits"), "lower", 3.0, "joints[0].limits: lower must be < upper"),
        (("collision", 0), "link", 3, "collision[0].link: 3 out of range"),
        (("collision", 0), "radius", 0.0, "collision[0].radius: must be finite and > 0, got 0.0"),
        (("collision", 0), "radius", math.inf,
         "collision[0].radius: must be finite and > 0, got inf"),
        (("joints", 0, "limits"), "lower", -math.inf,
         "joints[0].limits.lower: must be finite, got -inf"),
        (("joints", 1, "limits"), "upper", math.inf,
         "joints[1].limits.upper: must be finite, got inf"),
        (("joints", 0, "limits"), "torque", -5.0,
         "joints[0].limits.torque: must be > 0 (or inf), got -5.0"),
        (("joints", 2, "limits"), "torque", 0.0,
         "joints[2].limits.torque: must be > 0 (or inf), got 0.0"),
    ])
    def test_bad_value_names_its_field(self, tmp_path, path, key, value, problem):
        assert robot_problem(tmp_path, path, key, value) == problem

    def test_every_problem_of_the_file_is_reported(self, tmp_path):
        robot = json.loads(data_path("planar3.robot").read_text())
        robot["links"][0]["mass"] = "abc"
        robot["joints"][2]["axis"] = [0.0, 1.0]
        robot["collision"][1]["colour"] = "red"
        path = tmp_path / "planar3.robot"
        path.write_text(json.dumps(robot))
        with pytest.raises(ModelError) as err:
            load_robot(path)
        assert err.value.problems == [
            "links[0].mass: expected a number, got 'abc'",
            "joints[2].axis: expected 3 numbers, finite and not all 0, got [0.0, 1.0]",
            "collision[1].colour: unknown key",
        ]

    def test_inertia_may_be_a_full_matrix(self, tmp_path):
        robot = json.loads(data_path("planar3.robot").read_text())
        robot["links"][1]["inertia"] = [[0.001, 0.0, 0.0], [0.0, 0.052, 0.0], [0.0, 0.0, 0.052]]
        path = tmp_path / "planar3.robot"
        path.write_text(json.dumps(robot))
        model = load_robot(path)
        assert np.array_equal(model.links[1].inertia,
                              load_robot(data_path("planar3.robot")).links[1].inertia)
        robot["links"][1]["inertia"][2] = [0.0, 0.052]
        path.write_text(json.dumps(robot))
        with pytest.raises(ModelError) as err:
            load_robot(path)
        assert err.value.problems == [
            "links[1].inertia: expected 3 numbers or 3 rows of 3, got "
            "[[0.001, 0.0, 0.0], [0.0, 0.052, 0.0], [0.0, 0.052]]"]

class TestSpline:
    def test_linear_interpolation(self):
        spline = WaypointSpline.from_knots([0.0, 1.0], [[0.0], [2.0]], kind="linear")
        value, vel = spline.sample(0.25)
        assert value[0] == pytest.approx(0.5)
        assert vel[0] == pytest.approx(2.0)

    def test_holds_outside_knots(self):
        spline = WaypointSpline.from_knots([0.0, 1.0], [[0.0], [2.0]])
        for t in (-1.0, 5.0):
            value, vel = spline.sample(t)
            assert vel[0] == 0.0
            assert value[0] == (0.0 if t < 0 else 2.0)

    def test_cubic_passes_through_knots_with_velocities(self):
        times = [0.0, 0.5, 1.0]
        values = np.array([[0.0], [1.0], [0.0]])
        vels = np.array([[0.0], [0.0], [0.0]])
        spline = WaypointSpline.from_knots(times, values, vels)
        for t, v in zip(times, values):
            assert spline.sample(t)[0][0] == pytest.approx(v[0])
        # stationary knots: velocity vanishes there
        assert spline.sample(0.5)[1][0] == pytest.approx(0.0)

    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError):
            WaypointSpline.from_knots([0.0, 0.0], [[0.0], [1.0]])

    @pytest.mark.parametrize("kind, velocities", [
        ("cubic", False), ("cubic", True), ("linear", False)])
    def test_sample_matches_numpy_oracle_bitwise(self, rng, kind, velocities):
        for k in (1, 2, 3, 7):
            for _ in range(20):
                d = int(rng.integers(1, 5))
                times = np.cumsum(rng.uniform(0.01, 2.0, k)) - rng.uniform(0.0, 1.0)
                values = rng.normal(size=(k, d)) * 3
                vels = rng.normal(size=(k, d)) if velocities else None
                spline = WaypointSpline.from_knots(times, values, vels, kind=kind)
                # At, between (random and at the midpoints) and beyond the knots.
                ts = np.concatenate([
                    times, (times[:-1] + times[1:]) / 2,
                    rng.uniform(times[0] - 1.0, times[-1] + 1.0, 20),
                    [times[0] - 1e-12, times[-1] + 1e-12, -np.inf, np.inf]])
                for t in ts.tolist():
                    got, expected = spline.sample(t), spline_oracle.sample(spline, t)
                    for a, b in zip(got, expected):
                        assert a.dtype == b.dtype and a.shape == b.shape
                        assert a.tobytes() == b.tobytes()


class TestRunScenario:
    def test_output_layout_and_summary_schema(self, tmp_path):
        path = write_mini_scenario(tmp_path)
        result = run_scenario(path, "issf-cbf", seed=3, out=tmp_path / "out")
        assert result.out_dir == tmp_path / "out" / "mini" / "issf-cbf" / "10_10"
        assert (result.out_dir / "trace.csv").exists()
        torque_lines = (result.out_dir / "torques.csv").read_text().splitlines()
        assert torque_lines[0] == "t,tau_cmd0,tau_cmd1,tau_cmd2,clamped0,clamped1,clamped2"
        summary = json.loads((result.out_dir / "summary.json").read_text())
        for key in ("min_h_per_kind", "dbar", "collision_events", "runtime_per_cycle_us"):
            assert key in summary
        assert summary["collision_events"] == 0
        assert set(summary["min_h_per_kind"]) >= {
            BarrierKind.JOINT_LIMIT_MIN.value, BarrierKind.SELF_COLLISION.value}

    def test_alpha_epsilon_label_in_path(self, tmp_path):
        path = write_mini_scenario(tmp_path)
        result = run_scenario(path, "cbf", alpha=2.5, epsilon=20.0, out=tmp_path / "o")
        assert result.out_dir.name == "2.5_20"

    def test_trace_constraints_flag_writes_csv(self, tmp_path):
        path = write_mini_scenario(tmp_path)
        result = run_scenario(path, "issf-cbf", out=tmp_path / "o", trace_constraints=True)
        dump = (result.out_dir / "constraints.csv").read_text().splitlines()
        assert dump[0] == "t,kind,pair,h,rhs,active"
        assert len(dump) > 1
        assert any("joint-limit-min" in line for line in dump[1:])

    def test_empty_task_scenario_holds_posture(self, tmp_path):
        path = write_mini_scenario(tmp_path, extra={
            "tasks": [],
            "sim": {"duration": 0.05, "mass_scale": 1.0, "seed": 3},
        })
        result = run_scenario(path, "without-cbf", out=tmp_path / "o")
        trace = result.trace
        # no motion commanded, matched plant: barrier values constant
        assert np.abs(trace.qdot_des).max() == 0.0
        drift = np.abs(trace.h - trace.h[0]).max()
        assert drift < 1e-6

    def test_collision_event_counting(self):
        class FakeTrace:
            barrier_keys = ["self-collision|a|b", "joint-limit-min|q0"]
            h = np.array([[0.1, 0.5], [-0.1, 0.5], [-0.2, 0.5],
                          [0.1, 0.5], [-0.3, -1.0]])
        # two maximal negative intervals on the collision pair; joint rows ignored
        assert collision_events(FakeTrace()) == 2


class TestSweep:
    def test_single_point_without_cbf_ratio_is_one(self, tmp_path):
        path = write_mini_scenario(tmp_path)
        sweep = run_sweep(path, alphas=[10.0], epsilons=[10.0], modes=["without-cbf"],
                          out=tmp_path / "o", seed=3)
        point = sweep.points[0]
        # no collisions in this tiny hold scenario: 0/0 counts as ratio 0
        assert point.mode == "without-cbf"
        assert point.remaining_collision_ratio in (0.0, 1.0)
        assert sweep.csv_path.exists()
        header = sweep.csv_path.read_text().splitlines()[0]
        assert header.startswith("mode,alpha,epsilon,remaining_collision_ratio")

    def test_grid_and_determinism(self, tmp_path):
        path = write_mini_scenario(tmp_path)
        kwargs = dict(alphas=[5.0, 10.0], epsilons=[10.0], modes=["issf-cbf"],
                      seed=3, out=tmp_path / "o")
        first = run_sweep(path, **kwargs)
        second = run_sweep(path, **kwargs)
        assert len(first.points) == 2
        assert first.points == second.points

    def test_loads_the_scenario_once_per_run(self, tmp_path, monkeypatch):
        import issf_wbc.harness as harness
        loads = []

        def counted(*args, **kwargs):
            loads.append(args)
            return load_scenario(*args, **kwargs)

        monkeypatch.setattr(harness, "load_scenario", counted)
        path = write_mini_scenario(tmp_path)
        sweep = run_sweep(path, alphas=[5.0, 10.0], epsilons=[10.0],
                          modes=["without-cbf", "issf-cbf"], seed=3, out=tmp_path / "o")
        assert len(sweep.points) == 3                # the reference run and two points
        assert len(loads) == 3
        assert sweep.scenario == "mini"
        assert sweep.csv_path == tmp_path / "o" / "mini" / "sweep.csv"

    def test_failed_point_records_its_error(self, tmp_path, monkeypatch):
        import issf_wbc.harness as harness
        real_worker = harness._sweep_worker

        def worker(args):
            if args[2] == 5.0:
                raise RuntimeError('QP "torque", 3 rows')
            return real_worker(args)

        monkeypatch.setattr(harness, "_sweep_worker", worker)
        path = write_mini_scenario(tmp_path)
        sweep = run_sweep(path, alphas=[5.0, 10.0], epsilons=[10.0],
                          modes=["without-cbf", "issf-cbf"], seed=3, out=tmp_path / "o")
        bad = sweep.point("issf-cbf", 5.0, 10.0)
        assert bad.failed
        assert bad.error == 'RuntimeError: QP "torque", 3 rows'
        good = sweep.point("issf-cbf", 10.0, 10.0)
        assert not good.failed and good.error == ""
        with open(sweep.csv_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["mode", "alpha", "epsilon", "remaining_collision_ratio",
                                 "min_h", "mean_qdot_dev", "jitter", "dbar",
                                 "collision_events", "failed", "error"]
        by_alpha = {(r["mode"], float(r["alpha"])): r for r in rows}
        assert by_alpha[("issf-cbf", 5.0)]["failed"] == "1"
        assert by_alpha[("issf-cbf", 5.0)]["error"] == bad.error
        assert by_alpha[("issf-cbf", 10.0)]["error"] == ""
        assert by_alpha[("without-cbf", 10.0)]["failed"] == "0"

    def test_parallel_sweep_writes_the_serial_files(self, tmp_path):
        # jobs=2 and jobs=1 write the same bytes, a point that fails at its
        # filter parameters (alpha = -1) included.
        doc = json.loads(data_path("hand_track.scenario").read_text())
        doc["sim"]["duration"] = 0.02
        path = tmp_path / "hand_track.scenario"
        path.write_text(json.dumps(doc))
        outs = {}
        for jobs in (1, 2):
            outs[jobs] = tmp_path / f"jobs{jobs}"
            sweep = run_sweep(path, alphas=[-1.0, 10.0], epsilons=[10.0],
                              modes=["without-cbf", "cbf", "issf-cbf"], jobs=jobs,
                              seed=3, out=outs[jobs])
            assert [p.failed for p in sweep.points] == [False, True, False, True, False]
            assert sweep.point("cbf", -1.0, 10.0).error.startswith(
                "ValueError: alpha.self-collision: must be finite and > 0")
        files = sorted(f.relative_to(outs[1]) for f in outs[1].rglob("*.csv")
                       if f.name in ("sweep.csv", "trace.csv"))
        assert len(files) == 4
        assert files == sorted(f.relative_to(outs[2]) for f in outs[2].rglob("*.csv")
                               if f.name in ("sweep.csv", "trace.csv"))
        for f in files:
            assert (outs[1] / f).read_bytes() == (outs[2] / f).read_bytes(), f

    def test_rejects_empty_grid(self, tmp_path):
        path = write_mini_scenario(tmp_path)
        with pytest.raises(ValueError):
            run_sweep(path, alphas=[], epsilons=[10.0], modes=["cbf"])


class TestCli:
    def test_check_ok(self, capsys):
        assert cli_main(["check", "hand_track.scenario"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_check_reports_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.scenario"
        bad.write_text(json.dumps({"format": "wrong"}))
        assert cli_main(["check", str(bad)]) == 2
        assert "format" in capsys.readouterr().err

    def test_run_writes_outputs(self, tmp_path, capsys):
        path = write_mini_scenario(tmp_path)
        code = cli_main(["run", str(path), "--mode", "issf-cbf",
                         "--out", str(tmp_path / "o"), "--seed", "3"])
        assert code == 0
        assert (tmp_path / "o" / "mini" / "issf-cbf" / "10_10" / "trace.csv").exists()

    def test_sweep_cli(self, tmp_path):
        path = write_mini_scenario(tmp_path)
        code = cli_main(["sweep", str(path), "--alphas", "10", "--epsilons", "10",
                         "--modes", "issf-cbf", "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "mini" / "sweep.csv").exists()

    def test_sweep_rejects_unknown_mode(self, tmp_path, capsys):
        path = write_mini_scenario(tmp_path)
        assert cli_main(["sweep", str(path), "--alphas", "10", "--epsilons", "10",
                         "--modes", "bogus"]) == 2

    def test_out_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ISSF_WBC_OUT", str(tmp_path / "envout"))
        assert output_root() == tmp_path / "envout"
        path = write_mini_scenario(tmp_path)
        assert cli_main(["run", str(path), "--mode", "without-cbf"]) == 0
        assert (tmp_path / "envout" / "mini" / "without-cbf" / "10_10" / "trace.csv").exists()

    def test_missing_file_exit_code(self, capsys):
        assert cli_main(["run", "nope.scenario"]) == 1

    @pytest.mark.parametrize("flag,value,problem", [
        ("--alpha", "-1", "alpha.self-collision: must be finite and > 0, got -1.0"),
        ("--epsilon", "0", "epsilon.self-collision: must be > 0 (or inf), got 0.0"),
    ], ids=["alpha", "epsilon"])
    def test_bad_collision_parameter_reports_error(self, tmp_path, capsys, flag, value,
                                                   problem):
        path = write_mini_scenario(tmp_path)
        assert cli_main(["run", str(path), flag, value, "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {problem}; ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not (tmp_path / "o").exists()

    def test_internal_value_error_is_not_reported_as_a_bad_parameter(self, monkeypatch):
        # Only a rejected filter parameter becomes an error line; any other
        # ValueError is a fault of the program and keeps its traceback.
        def fail(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(issf_wbc.cli, "run_scenario", fail)
        with pytest.raises(ValueError, match="broadcast"):
            cli_main(["run", "hand_track.scenario"])

    @pytest.mark.parametrize("error", [
        FilterInfeasibleError("safety filter QP infeasible with 7 rows"),
        DynWbcInfeasibleError(QpSolution(x=np.zeros(2), status=QpStatus.INFEASIBLE,
                                         kkt_residual=0.0, active_set=(1, 4),
                                         iterations=3)),
    ])
    def test_infeasible_run_reports_error(self, monkeypatch, capsys, error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(issf_wbc.cli, "run_scenario", fail)
        assert cli_main(["run", "hand_track.scenario"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {error}\n"
        assert "Traceback" not in captured.err
        assert captured.out == ""
