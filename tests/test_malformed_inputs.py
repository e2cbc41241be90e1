"""Every value in the bundled robot and scenario files, replaced in turn by a
value of each JSON kind, either loads or is rejected with problems that each
start with a field path: never a traceback or another exception."""

import functools
import json
import math
import re

import pytest

import issf_wbc.cli
from issf_wbc.cli import main as cli_main
from issf_wbc.model import ModelError, load_robot
from issf_wbc.scenario import ScenarioError, data_path, load_scenario

KINDS = ({"x": 1}, [1], "x", 1.5, math.inf, True, None, math.nan)
FIELD_PATH = re.compile(r"[A-Za-z_][\w-]*(\[\d+\])*(\.[A-Za-z_][\w-]*(\[\d+\])*)*: ")


@pytest.fixture(autouse=True)
def one_parser(monkeypatch):
    """``issf-wbc check`` runs thousands of times here: build its parser once."""
    monkeypatch.setattr(issf_wbc.cli, "build_parser",
                        functools.cache(issf_wbc.cli.build_parser))


def nodes(value, path=()):
    """The path of every value inside the JSON value ``value``."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield (*path, key)
        yield from nodes(child, (*path, key))


def substitutions(doc, target):
    """Writes ``doc`` to ``target`` with each of its values replaced in turn
    by each of ``KINDS``; yields (path, kind) after each write."""
    for path in list(nodes(doc)):
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        original = parent[path[-1]]
        for kind in KINDS:
            parent[path[-1]] = kind
            target.write_text(json.dumps(doc))
            yield path, kind
        parent[path[-1]] = original


def checked(path, capsys) -> list[str]:
    """The problems ``issf-wbc check`` reports for the scenario ``path``; it
    must exit with 0 (no problem) or 2."""
    code = cli_main(["check", str(path)])
    err = capsys.readouterr().err
    assert code in (0, 2), err
    return [line[len("  - "):] for line in err.splitlines() if line.startswith("  - ")]


@pytest.mark.parametrize("name", ["hand_track.scenario", "obstacle_track.scenario"])
def test_every_scenario_value_of_every_kind(tmp_path, capsys, name):
    target = tmp_path / name
    for path, kind in substitutions(json.loads(data_path(name).read_text()), target):
        for problem in checked(target, capsys):
            assert FIELD_PATH.match(problem), (path, kind, problem)


@pytest.mark.parametrize("name", ["planar3.robot", "arm7.robot"])
def test_every_robot_value_of_every_kind(tmp_path, capsys, name):
    target = tmp_path / name
    scenario = tmp_path / "robot.scenario"
    scenario.write_text(json.dumps({"format": "issf-wbc/scenario/v1", "robot": str(target),
                                    "sim": {"duration": 0.0}}))
    # ``load_scenario`` passes on any exception of ``load_robot`` but a
    # ``ModelError``, whose problems it reports under "robot: <path>: ".
    for path, kind in substitutions(json.loads(data_path(name).read_text()), target):
        for problem in checked(scenario, capsys):
            problem = problem.removeprefix(f"robot: {target}: ")
            assert FIELD_PATH.match(problem), (path, kind, problem)


@pytest.mark.parametrize("kind", KINDS[1:])
def test_a_document_that_is_not_an_object(tmp_path, kind):
    robot = tmp_path / "x.robot"
    robot.write_text(json.dumps(kind))
    with pytest.raises(ModelError) as err:
        load_robot(robot)
    assert err.value.problems == [f"expected an object, got {kind!r}"]
    scenario = tmp_path / "x.scenario"
    scenario.write_text(json.dumps(kind))
    with pytest.raises(ScenarioError) as err:
        load_scenario(scenario)
    assert err.value.problems == [f"expected an object, got {kind!r}"]
