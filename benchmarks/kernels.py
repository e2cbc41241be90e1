"""Micro-benchmark of the kinematics, geometry and dynamics kernels.

    python3 benchmarks/kernels.py [--repeat 7] [--seconds 0.2]

Times each kernel with ``timeit`` on the robot and start pose of both bundled
scenarios (``hand_track``: 3-DoF ``planar3``; ``obstacle_track``: 7-DoF
``arm7``) and prints the best of ``--repeat`` runs in microseconds per call:

- ``forward_kinematics``;
- ``point_jacobian`` of the last link's collision body, given the FK;
- ``closest_points`` of the scenario's first collision pair, already posed;
- ``body_pair_barrier`` of that pair (h and gradient), given the FK;
- ``joint_dynamics`` (mass matrix and bias forces), given the FK.

Every kernel after the first takes the pose as an argument, so no row
includes the cost of FK: the ``joint_dynamics`` row now excludes it, as the
torque QP reuses its control cycle's pose.

The package is imported from the ``src`` directory next to this script.
"""

from __future__ import annotations

import argparse
import platform
import sys
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from issf_wbc._fastdyn import joint_dynamics  # noqa: E402
from issf_wbc.geometry import body_pair_barrier, closest_points, pose_body  # noqa: E402
from issf_wbc.model import forward_kinematics, point_jacobian  # noqa: E402
from issf_wbc.scenario import load_scenario, resolve_input  # noqa: E402

SCENARIOS = ("hand_track.scenario", "obstacle_track.scenario")


def kernels(scenario) -> dict[str, callable]:
    model = scenario.robot
    q = scenario.q0
    qd = np.linspace(-1.0, 1.0, model.n_dof)
    gravity = scenario.sim.gravity
    fk = forward_kinematics(model, q)
    body_a, body_b = scenario.collision_pairs[0]
    seg_a, seg_b = pose_body(body_a, fk), pose_body(body_b, fk)
    tip = model.collision_bodies[-1]
    return {
        "forward_kinematics": lambda: forward_kinematics(model, q),
        "point_jacobian": lambda: point_jacobian(model, fk, tip.link, tip.p0),
        "closest_points": lambda: closest_points(seg_a, seg_b),
        "body_pair_barrier": lambda: body_pair_barrier(model, fk, body_a, body_b),
        "joint_dynamics": lambda: joint_dynamics(model, fk, qd, gravity),
    }


def us_per_call(fn, repeat: int, seconds: float) -> float:
    timer = timeit.Timer(fn)
    number, elapsed = timer.autorange()
    number = max(1, int(number * seconds / elapsed))
    return min(timer.repeat(repeat=repeat, number=number)) / number * 1e6


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=0.2,
                        help="approximate length of one timed run")
    args = parser.parse_args(argv)
    print(f"python {platform.python_version()}, numpy {np.__version__}")
    print(f"{'robot':10s} {'kernel':20s} {'us/call':>9s}")
    for name in SCENARIOS:
        scenario = load_scenario(resolve_input(name))
        for kernel, fn in kernels(scenario).items():
            us = us_per_call(fn, args.repeat, args.seconds)
            print(f"{scenario.robot.name:10s} {kernel:20s} {us:9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
