"""The scripts under ``benchmarks/`` run against the package's current signatures."""

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


def test_trace_digests_script_prints_every_digest(capsys):
    script = SCRIPT.with_name("trace_digests.py")
    spec = importlib.util.spec_from_file_location("trace_digests", script)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    outputs = []
    for _ in range(2):
        assert digests.main(["--duration", "0.002"]) == 0
        outputs.append(capsys.readouterr().out.splitlines())
    assert outputs[0] == outputs[1]
    runs = [line.split() for line in outputs[0] if line.startswith("run ")]
    fields = (*digests.ARRAYS, "qp_status", "relaxed_cycles", *digests.CSV_FILES)
    assert len(runs) == 2 * 4 * len(fields)
    assert {(run[1], run[2]) for run in runs} == {
        (scenario, mode) for scenario in ("hand_track", "obstacle_track")
        for mode in ("without-cbf", "cbf", "issf-cbf", "ecbf")}
    kernels = [line.split() for line in outputs[0] if line.startswith("kernel ")]
    assert {kernel[2] for kernel in kernels} == {"fk", "dynamics"}
    assert {"planar3", "arm7", "planar3*1.2", "arm7*1.2"} <= {kernel[1] for kernel in kernels}
    assert len(runs) + len(kernels) == len(outputs[0])
