"""Digests of every closed-loop trace and every generated kernel, for diffing.

    python3 benchmarks/trace_digests.py [--duration SECONDS] > digests.txt

Prints one line per digest, so that two source trees compare with ``diff``:
run the script in each (it imports the package from the ``src`` directory
next to it) and diff the outputs.  A change that claims "same bits" prints
the same lines.

- ``run <scenario> <mode> <field> <sha256>``: each ``RunTrace`` array, the
  ``qp_status`` list, the summary's ``relaxed_cycles`` and the
  ``trace.csv`` and ``torques.csv`` files of ``harness.run_scenario`` for the
  bundled ``hand_track`` and ``obstacle_track`` scenarios in each of the
  four filter modes.  ``--duration`` shortens every run (the default is
  each scenario's own duration).
- ``kernel <model> <fk|dynamics> <sha256>``: the source of the model's
  generated forward-kinematics and dynamics kernels, with the kernel's name
  masked (it carries a digest of the constants), for both bundled robots,
  their 1.2x mass-scaled plants and a seeded set of random chains.
"""

from __future__ import annotations

import argparse
import hashlib
import linecache
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from issf_wbc._fastdyn import _dynamics_kernel, _inertial  # noqa: E402
from issf_wbc.harness import run_scenario  # noqa: E402
from issf_wbc.model import (  # noqa: E402
    JointSpec,
    LinkSpec,
    RobotModel,
    _fk_kernel,
    _frames,
    scale_link_masses,
)
from issf_wbc.safety import FilterMode  # noqa: E402
from issf_wbc.scenario import load_scenario, resolve_input  # noqa: E402

SCENARIOS = ("hand_track.scenario", "obstacle_track.scenario")
ARRAYS = ("t", "q", "qd", "qdot_des", "qdot_safe", "tau_cmd", "h", "d_inf", "dbar",
          "qp_iters", "clamped", "h_e_min", "dynamics_residual")
CSV_FILES = ("trace.csv", "torques.csv")
SEED = 20260


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(duration: float | None, out: Path) -> list[str]:
    lines = []
    for name in SCENARIOS:
        scenario = load_scenario(resolve_input(name))
        if duration is not None:
            scenario = replace(scenario, sim=replace(scenario.sim, duration=duration))
        for mode in FilterMode:
            result = run_scenario(scenario, mode, out=out)
            trace, label = result.trace, f"run {scenario.name} {mode.value}"
            for field in ARRAYS:
                array = np.ascontiguousarray(getattr(trace, field))
                lines.append(f"{label} {field} {sha(array.tobytes())}")
            lines.append(f"{label} qp_status {sha(chr(10).join(trace.qp_status).encode())}")
            lines.append(f"{label} relaxed_cycles {result.summary['relaxed_cycles']}")
            for csv in CSV_FILES:
                lines.append(f"{label} {csv} {sha((result.out_dir / csv).read_bytes())}")
    return lines


def random_chain(rng: np.random.Generator, n: int, planar: bool) -> RobotModel:
    """A serial chain with random constants; ``planar`` keeps every axis +y
    and every origin rotation the identity."""
    links, joints = [], []
    for i in range(n):
        axis = np.array([0.0, 1.0, 0.0]) if planar else rng.normal(size=3)
        a = rng.normal(size=(3, 3)) * 0.05
        links.append(LinkSpec(
            mass=float(rng.uniform(0.4, 3.0)), com=rng.uniform(-0.2, 0.2, 3),
            inertia=a @ a.T + np.eye(3) * 0.01, parent=i - 1,
            origin_xyz=rng.uniform(-0.35, 0.35, 3),
            origin_rpy=np.zeros(3) if planar else rng.uniform(-1.0, 1.0, 3),
        ))
        joints.append(JointSpec(axis=axis / np.linalg.norm(axis)))
    return RobotModel(f"chain{n}{'p' if planar else ''}", tuple(links), tuple(joints))


def kernel_source(kernel) -> bytes:
    """The generated source of ``kernel`` with its name masked."""
    name = kernel.__name__
    lines = linecache.cache[f"<{name}>"][2]
    return "".join(lines).replace(name, "KERNEL").encode()


def kernel_digests() -> list[str]:
    models = []
    for name in SCENARIOS:
        robot = load_scenario(resolve_input(name)).robot
        models += [(robot.name, robot), (robot.name + "*1.2", scale_link_masses(robot, 1.2))]
    rng = np.random.default_rng(SEED)
    models += [(f"chain{n}{'p' if planar else ''}", random_chain(rng, n, planar))
               for planar in (False, True) for n in range(1, 8)]
    lines = []
    for label, model in models:
        frames = _frames(model)
        fk = _fk_kernel(frames)
        dynamics = _dynamics_kernel(frames, _inertial(model))
        lines.append(f"kernel {label} fk {sha(kernel_source(fk))}")
        lines.append(f"kernel {label} dynamics {sha(kernel_source(dynamics))}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=None,
                        help="run length in seconds (default: each scenario's own)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as out:
        lines = run_digests(args.duration, Path(out))
    print("\n".join(lines + kernel_digests()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
