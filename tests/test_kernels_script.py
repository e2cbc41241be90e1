"""The scripts under ``benchmarks/`` run against the package's current signatures."""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "kernels.py"


def test_kernels_script_runs_every_kernel(capsys):
    spec = importlib.util.spec_from_file_location("kernels", SCRIPT)
    kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernels)
    assert kernels.main(["--repeat", "1", "--seconds", "0.001"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    names = ("forward_kinematics", "jacobian_rows", "closest_points",
             "pair_gradient", "joint_dynamics", "cholesky_solve", "prioritized_ik",
             "collect_constraints", "truth_values", "filter_velocity", "ecbf_rows",
             "motor_torque",
             "step_physics", "kalman_update", "torque_qp_data", "trace_csv", "filter_qp",
             "torque_qp", "dynamics_codegen")
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
    sweeps = [line.split() for line in outputs[0] if line.startswith("sweep ")]
    assert [sweep[:3] for sweep in sweeps] == [["sweep", "hand_track", "sweep.csv"]]
    assert len(runs) + len(kernels) + len(sweeps) == len(outputs[0])


def test_opcounts_script_counts_every_stage(capsys):
    script = SCRIPT.with_name("opcounts.py")
    spec = importlib.util.spec_from_file_location("opcounts", script)
    opcounts = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(opcounts)
    outputs = []
    for _ in range(2):
        # Each run generates its kernels afresh, so the kernel lines repeat
        # only if generation is deterministic.
        opcounts._dynamics_kernel.cache_clear()
        opcounts._fk_kernel.cache_clear()
        assert opcounts.main(["--duration", "0.002"]) == 0     # 4 cycles, 2 counted
        outputs.append(capsys.readouterr().out.splitlines())
    assert outputs[0] == outputs[1]
    lines = [line.split() for line in outputs[0]]
    kernels = [line for line in lines if line[0] == "kernel"]
    lines = [line for line in lines if line[0] != "kernel"]
    ops = ["+", "-", "*", "/", "neg", "cos", "sin", "total"]
    labels = [f"{robot}{plant}/{kind}" for robot in ("planar3", "arm7")
              for plant in ("", "*1.2") for kind in ("fk", "dynamics")]
    assert [line[1:3] for line in kernels] == [[label, op] for label in labels for op in ops]
    counts = {(line[1], line[2]): int(line[3]) for line in kernels}
    for label in labels:
        assert counts[label, "total"] == sum(counts[label, op] for op in ops[:-1]) > 0
        assert counts[label, "cos"] == counts[label, "sin"] == (3 if "planar3" in label else 7)
    runs = [(scenario, mode.value) for scenario in ("hand_track", "obstacle_track")
            for mode in opcounts.FilterMode]
    assert [line for line in lines if line[0] == "cycles"] == [
        ["cycles", *run, "2"] for run in runs]
    assert {tuple(line[1:3]) for line in lines} == set(runs)
    bytecodes = {(line[1], line[2], line[3]): float(line[5]) for line in lines
                 if line[0] == "step" and line[4] == "bytecodes"}
    stages = {stage for _, _, stage in bytecodes}
    assert {"forward_kinematics", "prioritized_ik", "collect_constraints", "filter_velocity",
            "solve_dynwbc", "motor_torque", "ecbf_rows", "step", "total"} <= stages
    for scenario, mode in runs:
        parts = sum(count for (s, m, stage), count in bytecodes.items()
                    if (s, m) == (scenario, mode) and stage != "total")
        assert bytecodes[scenario, mode, "total"] == parts > 0
    assert {line[3] for line in lines if line[0] == "plant"} == {"step_physics"}
    truth = {(line[1], line[2]): float(line[4]) for line in lines
             if line[0] == "truth" and line[3] == "bytecodes"}
    assert set(truth) == set(runs) and all(count > 0 for count in truth.values())
    sense = {(line[1], line[2]): float(line[4]) for line in lines
             if line[0] == "sense" and line[3] == "bytecodes"}
    assert set(sense) == set(runs)
    assert all((count > 0) == (scenario == "obstacle_track")
               for (scenario, _), count in sense.items())
    assert {line[3].split(":")[0] for line in lines if line[0] == "sense"} <= {"bytecodes", "c"}

    # The total agrees with a count of whole ``Controller.step`` calls.
    sim, counted = opcounts.sim, []

    def count_opcodes(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return tally

    def tally(frame, event, arg):
        if event == "opcode":
            counted[-1] += 1
        return tally

    def step(self, *args):
        counted.append(0)
        sys.settrace(count_opcodes)
        try:
            return opcounts.STEP(self, *args)
        finally:
            sys.settrace(None)

    scenario = opcounts.load_scenario(opcounts.resolve_input("obstacle_track.scenario"))
    scenario = replace(scenario, sim=replace(scenario.sim, duration=0.002))
    plant = opcounts.scale_link_masses(scenario.robot, scenario.sim.mass_scale)
    sim.Controller.step = step
    try:
        sim.run_closed_loop(scenario.robot, plant, scenario, opcounts.FilterMode.ECBF)
    finally:
        sim.Controller.step = opcounts.STEP
    assert sum(counted[2:]) / 2 == bytecodes["obstacle_track", "ecbf", "total"]


def test_opcounts_full_prints_per_cycle_extremes(capsys):
    script = SCRIPT.with_name("opcounts.py")
    spec = importlib.util.spec_from_file_location("opcounts", script)
    opcounts = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(opcounts)
    assert opcounts.main(["--full", "--duration", "0.002"]) == 0     # 2 cycles counted
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    runs = [(scenario, mode.value) for scenario in ("hand_track", "obstacle_track")
            for mode in opcounts.FilterMode]
    cycle = [line for line in lines if line[0] == "cycle"]
    assert [line[1:4] for line in cycle] == [
        [*run, stat] for run in runs for stat in ("p50", "p99", "max", "argmax")]
    stats = {(line[1], line[2], line[3]): int(line[4]) for line in cycle}
    totals = {(line[1], line[2]): float(line[5]) for line in lines
              if line[0] == "step" and line[3] == "total" and line[4] == "bytecodes"}
    for run in runs:
        p50, p99, top = (stats[(*run, stat)] for stat in ("p50", "p99", "max"))
        # Of two counted cycles, the p50 is the smaller and the max the larger.
        assert 0 < p50 <= p99 == top
        assert p50 + top == 2 * totals[run]
        assert stats[(*run, "argmax")] in (2, 3)
