"""Tests of the benchmark itself:  python -m pytest perfbench"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import calibrate  # noqa: E402
import issf_wbc  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workload  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = 0.01   # simulated seconds: 20 control cycles


def bench(name: str, trace: int, monkeypatch, capsys) -> list[str]:
    monkeypatch.setitem(run.WORKLOADS[name], "duration", TINY)
    run.main(["--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace)])
    return capsys.readouterr().out.strip().splitlines()


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric_with_unit(name, monkeypatch, capsys):
    lines = bench(name, 0, monkeypatch, capsys)
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    for metric in DECLARED["end_to_end"]:
        assert any(line.startswith(f"{metric['name']} = ") and line.endswith(f" {metric['unit']}")
                   for line in lines), metric["name"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert any(line.startswith("failed_ratio = 0.0 ratio") for line in lines)
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_traced_run_reports_every_layer_metric(name, monkeypatch, capsys):
    result = json.loads(bench(name, 1, monkeypatch, capsys)[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    runs = workload.sweep_points(run.WORKLOADS[name]) if name == "hand-sweep" else 1
    assert metrics["controller.cycles"] == 20 * runs
    assert metrics["fastdyn.joint_dynamics.calls_per_cycle"] == 6.0


def test_hand_issf_reaches_the_press_phase():
    doc = json.loads(issf_wbc.scenario.data_path("hand_track.scenario").read_text())
    press = min(pulse["start"] for pulse in doc["sim"]["external_torque"])
    assert run.WORKLOADS["hand-issf"]["duration"] > press


def tiny_scenario(tmp_path, name="hand-issf") -> Path:
    return run.write_scenario(run.WORKLOADS[name], 3, TINY, tmp_path)


def test_row_below_degradation_bound_fails_the_run(tmp_path, monkeypatch):
    original = issf_wbc.run_closed_loop

    def planted(*args, **kwargs):
        trace = original(*args, **kwargs)
        j = next(i for i, k in enumerate(trace.barrier_keys) if k.startswith("self-collision"))
        trace.h[-1, j] = min(trace.h[0, j], 0.0) - 0.1
        return trace

    monkeypatch.setattr(issf_wbc, "run_closed_loop", planted)
    rep = workload.repetition(run.WORKLOADS["hand-issf"], tiny_scenario(tmp_path), tmp_path)
    assert rep["failed"] == 1
    assert any("self-collision" in p and "< bound" in p for p in rep["problems"])
    assert run.tally([rep, rep]) == (2, 2)


def test_relaxed_cycles_and_dynamics_residual_fail_the_run():
    scenario = issf_wbc.load_scenario(issf_wbc.scenario.data_path("hand_track.scenario"))
    keys = ["self-collision|hand|upper"]
    h = np.array([[0.1], [0.05]])
    config = scenario.filter_config
    assert workload.run_problems("ok", "issf-cbf", keys, h, ["optimal"] * 2, 0.0, 0.0,
                                 config) == []
    assert workload.run_problems("r", "issf-cbf", keys, h, ["optimal", "relaxed"], 0.0, 0.0,
                                 config)
    assert workload.run_problems("d", "cbf", keys, h, ["optimal"] * 2, 1e-8, 0.0, config)


def test_cycle_clock_leaves_the_calibration_out_and_restores_the_binding(tmp_path,
                                                                          monkeypatch):
    def slow_kernel():
        time.sleep(1.0)
        return 1.0

    before = issf_wbc.sim.motor_torque
    scenario = tiny_scenario(tmp_path)
    plain = workload.repetition(run.WORKLOADS["hand-issf"], scenario, tmp_path,
                                calibrated=False)
    monkeypatch.setattr(calibrate, "kernel", slow_kernel)
    rep = workload.repetition(run.WORKLOADS["hand-issf"], scenario, tmp_path)
    assert issf_wbc.sim.motor_torque is before
    assert plain["kernel_s"] == [] and run.ref_rate(plain) == 0.0
    assert rep["kernel_s"] == [1.0]   # 20 cycles, a kernel before the first of every 50
    assert rep["wall_s"] < 1.0
    assert rep["digest"] == plain["digest"]


def test_ref_rate_rescales_by_the_median_kernel_time():
    rep = {"cycles": 300, "wall_s": 1.5, "kernel_s": [1e-3, 3e-3, 2e-3]}
    assert run.rate(rep) == 200.0
    assert run.ref_rate(rep) == pytest.approx(200.0 * 2e-3 / calibrate.REF_S)


def test_different_digest_between_repetitions_fails_that_repetition():
    ok = {"runs": 5, "failed": 0, "digest": "a"}
    moved = {"runs": 5, "failed": 0, "digest": "b"}
    assert run.tally([ok, ok, ok]) == (15, 0)
    assert run.tally([ok, moved, ok]) == (15, 5)
    assert run.tally([ok, {"runs": 5, "failed": 1, "digest": "a"}]) == (10, 1)


def traced_tiny_run(tmp_path, name="obstacle-ecbf") -> tracer.Tracer:
    spans = tracer.Tracer()
    uninstall = tracer.install(spans)
    try:
        rep = workload.repetition(run.WORKLOADS[name], tiny_scenario(tmp_path, name), tmp_path)
    finally:
        uninstall()
    assert rep["failed"] == 0, rep["problems"]
    return spans


def test_self_time_never_exceeds_span_time(tmp_path):
    spans = traced_tiny_run(tmp_path)
    self_ns = tracer.self_times(spans.spans)
    assert spans.spans
    for span, own in zip(spans.spans, self_ns):
        assert 0 <= own <= span[2] - span[1]
    nested = [[0, 0, 100, -1, None, None], [0, 10, 40, 0, None, None],
              [0, 50, 90, 0, None, None], [0, 20, 30, 1, None, None]]
    assert tracer.self_times(nested) == [30, 20, 40, 10]


def test_install_wraps_every_binding_and_uninstall_restores_them(tmp_path):
    before = issf_wbc.sim.collect_constraints
    spans = traced_tiny_run(tmp_path)
    assert issf_wbc.sim.collect_constraints is before
    layers.check_coverage(spans, substeps=5)
    metrics = layers.layer_metrics(spans)
    assert metrics["model.forward_kinematics.calls_per_cycle"] > 3.0  # 4 in ecbf mode
    assert metrics["sim.kalman.us_per_cycle"] > 0.0


def test_missed_binding_fails_the_coverage_check(tmp_path, monkeypatch):
    original = issf_wbc.sim.step_physics
    real_install = tracer.install

    def install_missing_one(spans):
        uninstall = real_install(spans)
        wrapped = issf_wbc.sim.step_physics
        issf_wbc.sim.step_physics = original

        def undo():
            issf_wbc.sim.step_physics = wrapped
            uninstall()
        return undo

    monkeypatch.setattr(tracer, "install", install_missing_one)
    spans = traced_tiny_run(tmp_path, "hand-issf")
    with pytest.raises(layers.CoverageError, match="sim.step_physics"):
        layers.check_coverage(spans, substeps=5)
