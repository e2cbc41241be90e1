"""Per-layer metrics and the wrapper-coverage self-check, from recorded spans.

A cycle is one pass of the control loop; per-cycle figures divide by the
number of cycles the traced run completed (``controller.cycles``).  The
controller time of a cycle is the sum of the controller stages the loop calls
directly (``CONTROLLER_STAGES``); the loop's own glue (task sampling, trace
bookkeeping) is ``sim.loop`` self time instead.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import LAYERS, LOOP, Tracer, self_times

BUDGET_US = 500.0   # one control cycle at 2 kHz

CONTROLLER_STAGES = frozenset({
    "model.forward_kinematics",
    "kinwbc.prioritized_ik",
    "safety.collect_constraints",
    "safety.filter_velocity",
    "dynwbc.safe_acceleration",
    "safety.ecbf_rows",
    "dynwbc.solve_dynwbc",
    "dynwbc.motor_torque",
})

# Spans every cycle must hold exactly once; step_physics holds `substeps`.
ONCE_PER_CYCLE = ("kinwbc.prioritized_ik", "safety.filter_velocity",
                  "dynwbc.solve_dynwbc", "dynwbc.motor_torque")

QP_SOLVE = "qpsolver.QpSolver.solve"
QP_PARENTS = {"safety.filter_velocity": "filter", "dynwbc.solve_dynwbc": "torque"}


class CoverageError(RuntimeError):
    """The traced run does not show the loop's call graph: a binding was missed."""


def check_coverage(tracer: Tracer, substeps: int) -> None:
    names = tracer.names
    spans = tracer.spans
    seen_layers = {names[s[0]].split(".", 1)[0] for s in spans}
    missing = sorted(set(LAYERS) - seen_layers)
    if missing:
        raise CoverageError(f"layers with zero spans: {missing}")
    counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for fid, _, _, _, cycle, _ in spans:
        if cycle is not None:
            counts[cycle][names[fid]] += 1
    if not counts:
        raise CoverageError("no control cycle was traced")
    expected = {name: 1 for name in ONCE_PER_CYCLE}
    expected["sim.step_physics"] = substeps
    for cycle, per_name in counts.items():
        wrong = {name: per_name.get(name, 0) for name, n in expected.items()
                 if per_name.get(name, 0) != n}
        if wrong:
            raise CoverageError(
                f"cycle {cycle}: span counts {wrong}, expected {expected}")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of the benchmark (see perfbench/README.md)."""
    names = tracer.names
    spans = tracer.spans
    self_ns = self_times(spans)
    span_name = [names[s[0]] for s in spans]

    calls: dict[str, int] = defaultdict(int)
    cycle_calls: dict[str, int] = defaultdict(int)
    total_ns: dict[str, int] = defaultdict(int)
    self_total_ns: dict[str, int] = defaultdict(int)
    infos: dict[str, list] = defaultdict(list)
    controller_ns: dict[int, int] = defaultdict(int)
    truth_ns = 0
    qp: dict[str, list] = {"filter": [], "torque": []}
    qp_ns: dict[str, int] = {"filter": 0, "torque": 0}

    for i, (fid, start, end, parent, cycle, info) in enumerate(spans):
        name = span_name[i]
        dur = end - start
        calls[name] += 1
        total_ns[name] += dur
        self_total_ns[name] += self_ns[i]
        if info is not None:
            infos[name].append(info)
        parent_name = span_name[parent] if parent >= 0 else None
        if cycle is not None:
            cycle_calls[name] += 1
            if parent_name == LOOP:
                if name in CONTROLLER_STAGES:
                    controller_ns[cycle] += dur
                elif name.startswith("geometry."):
                    truth_ns += dur
        if name == QP_SOLVE:
            side = QP_PARENTS.get(parent_name)
            if side is None:
                raise CoverageError(f"QP solve called from {parent_name}")
            qp[side].append(info)
            qp_ns[side] += dur

    cycles = len(controller_ns)
    if not cycles:
        raise CoverageError("no control cycle was traced")

    def per_cycle_us(ns: float) -> float:
        return ns / 1e3 / cycles

    def per_call_us(name: str) -> float:
        return _ratio(total_ns[name] / 1e3, calls[name])

    controller_us = sorted(ns / 1e3 for ns in controller_ns.values())
    solves = qp["filter"] + qp["torque"]
    m: dict[str, float] = {
        "controller.cycles": cycles,
        "controller.cycle_us_p50": statistics.median(controller_us),
        "controller.cycle_us_p99": statistics.quantiles(controller_us, n=100)[98]
        if cycles > 1 else controller_us[0],
        "controller.cycle_us_max": controller_us[-1],
        "controller.budget_miss_ratio":
            sum(us > BUDGET_US for us in controller_us) / cycles,
    }
    for side in ("filter", "torque"):
        infos_side = qp[side]
        n = len(infos_side)
        m[f"qpsolver.{side}.us_per_solve"] = _ratio(qp_ns[side] / 1e3, n)
        m[f"qpsolver.{side}.iters_per_solve"] = _ratio(sum(i[0] for i in infos_side), n)
        if side == "filter":
            m["qpsolver.filter.active_rows_mean"] = _ratio(sum(i[1] for i in infos_side), n)
        else:
            m["qpsolver.torque.rows_per_solve"] = _ratio(sum(i[2] for i in infos_side), n)
    m["qpsolver.validate.us_per_solve"] = _ratio(
        total_ns["qpsolver.QpProblem.validate"] / 1e3, len(solves))
    m["qpsolver.kkt_residual_max"] = max((i[3] for i in solves if i[4]), default=0.0)
    m["qpsolver.nonoptimal_ratio"] = _ratio(sum(not i[4] for i in solves), len(solves))

    cc = "safety.collect_constraints"
    m[f"{cc}.calls_per_cycle"] = cycle_calls[cc] / cycles
    m[f"{cc}.self_us_per_cycle"] = per_cycle_us(self_total_ns[cc])
    m[f"{cc}.rows_per_call"] = _ratio(sum(infos[cc]), len(infos[cc]))
    fv = "safety.filter_velocity"
    m[f"{fv}.self_us_per_cycle"] = per_cycle_us(self_total_ns[fv])
    m[f"{fv}.passthrough_ratio"] = _ratio(sum(infos[fv]), len(infos[fv]))
    m["safety.ecbf_rows.self_us_per_cycle"] = per_cycle_us(self_total_ns["safety.ecbf_rows"])

    m["geometry.closest_points.calls_per_cycle"] = cycle_calls["geometry.closest_points"] / cycles
    m["geometry.closest_points.us_per_call"] = per_call_us("geometry.closest_points")
    m["geometry.body_pair_barrier.calls_per_cycle"] = (
        cycle_calls["geometry.body_pair_barrier"] / cycles)

    m["model.forward_kinematics.calls_per_cycle"] = (
        cycle_calls["model.forward_kinematics"] / cycles)
    m["model.forward_kinematics.us_per_cycle"] = per_cycle_us(
        total_ns["model.forward_kinematics"])
    m["model.point_jacobian.calls_per_cycle"] = cycle_calls["model.point_jacobian"] / cycles

    m["fastdyn.joint_dynamics.calls_per_cycle"] = cycle_calls["fastdyn.joint_dynamics"] / cycles
    m["fastdyn.joint_dynamics.us_per_call"] = per_call_us("fastdyn.joint_dynamics")

    m["kinwbc.prioritized_ik.self_us_per_cycle"] = per_cycle_us(
        self_total_ns["kinwbc.prioritized_ik"])

    m["dynwbc.solve_dynwbc.self_us_per_cycle"] = per_cycle_us(
        self_total_ns["dynwbc.solve_dynwbc"])
    m["dynwbc.motor_torque.us_per_cycle"] = per_cycle_us(total_ns["dynwbc.motor_torque"])
    mt = infos["dynwbc.motor_torque"]
    m["dynwbc.clamp_ratio"] = _ratio(sum(mt), len(mt))

    m["sim.step_physics.us_per_cycle"] = per_cycle_us(total_ns["sim.step_physics"])
    m["sim.kalman.us_per_cycle"] = per_cycle_us(
        total_ns["sim.ConstantVelocityKalman.update"])
    m["sim.truth_logging.us_per_cycle"] = per_cycle_us(truth_ns)
    m["sim.loop.self_us_per_cycle"] = per_cycle_us(self_total_ns[LOOP])

    m["harness.write.us_per_cycle"] = per_cycle_us(
        total_ns["sim.RunTrace.to_csv"] + total_ns["sim.RunTrace.to_torque_csv"])
    m["harness.summarize.us_per_call"] = per_call_us("harness.summarize")
    m["scenario.load_scenario.us_per_call"] = per_call_us("scenario.load_scenario")
    return m
