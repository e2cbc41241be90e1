"""``benchmarks/kernels.py`` runs against the package's current signatures."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "kernels.py"


def test_kernels_script_runs_every_kernel(capsys):
    spec = importlib.util.spec_from_file_location("kernels", SCRIPT)
    kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernels)
    assert kernels.main(["--repeat", "1", "--seconds", "0.001"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    names = ("forward_kinematics", "point_jacobian", "closest_points",
             "body_pair_barrier", "joint_dynamics", "cholesky_solve", "prioritized_ik",
             "collect_constraints", "filter_velocity", "ecbf_rows", "motor_torque",
             "step_physics", "kalman_update", "filter_qp", "torque_qp", "dynamics_codegen")
    assert [row.split()[1] for row in rows] == list(names) * 2
