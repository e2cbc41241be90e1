"""Scenario runner, baseline comparisons, parameter sweeps, metric aggregation.

Output layout (all UTF-8, CSV with header row and '.' decimals):

    <out>/<scenario>/<mode>/<alpha>_<epsilon>/trace.csv
    <out>/<scenario>/<mode>/<alpha>_<epsilon>/torques.csv
    <out>/<scenario>/<mode>/<alpha>_<epsilon>/summary.json
    <out>/<scenario>/<mode>/<alpha>_<epsilon>/constraints.csv   (--trace-constraints)
    <out>/<scenario>/sweep.csv

A collision event is one maximal contiguous interval with h < 0 on a
self- or object-collision pair (cycle counting would depend on dt); the
remaining-collision ratio divides a run's event count by the without-filter
reference count of the identical scenario.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .model import scale_link_masses
from .safety import BarrierKind, FilterMode
from .scenario import Scenario, load_scenario, resolve_input
from .sim import RunTrace, run_closed_loop

DEFAULT_OUT = "out"
COLLISION_KINDS = (BarrierKind.SELF_COLLISION.value, BarrierKind.OBJECT_COLLISION.value)


def output_root(out: str | Path | None = None) -> Path:
    if out is not None:
        return Path(out)
    return Path(os.environ.get("ISSF_WBC_OUT", DEFAULT_OUT))


def _num_label(x: float) -> str:
    return f"{x:g}"


def collision_events(trace: RunTrace) -> int:
    """Count maximal h<0 intervals over all self/object collision pairs."""
    total = 0
    for j, key in enumerate(trace.barrier_keys):
        if not key.startswith(COLLISION_KINDS):
            continue
        neg = trace.h[:, j] < 0.0
        if neg.size == 0:
            continue
        total += int(np.sum(neg[1:] & ~neg[:-1]) + (1 if neg[0] else 0))
    return total


def _min_h_per_kind(trace: RunTrace) -> dict[str, float]:
    mins: dict[str, float] = {}
    for j, key in enumerate(trace.barrier_keys):
        kind = key.split("|", 1)[0]
        value = float(trace.h[:, j].min()) if trace.cycles else math.inf
        mins[kind] = min(mins.get(kind, math.inf), value)
    return mins


def summarize(trace: RunTrace, *, mode: str, alpha: float | None, epsilon: float | None,
              seed: int, runtime_s: float) -> dict:
    dev = trace.qdot_safe - trace.qdot_des
    dt = float(trace.t[1] - trace.t[0]) if trace.cycles > 1 else 1.0
    jitter = (
        float(np.max(np.abs(np.diff(trace.qdot_safe, axis=0))) / dt)
        if trace.cycles > 1 else 0.0
    )
    return {
        "mode": mode,
        "alpha": alpha,
        "epsilon": epsilon,
        "seed": seed,
        "cycles": trace.cycles,
        "min_h_per_kind": _min_h_per_kind(trace),
        "min_h": float(trace.h.min()) if trace.h.size else math.inf,
        "dbar": trace.final_dbar(),
        "collision_events": collision_events(trace),
        "runtime_per_cycle_us": trace.runtime_per_cycle_us,
        "runtime_s": runtime_s,
        "mean_qdot_dev": float(np.mean(np.abs(dev))) if trace.cycles else 0.0,
        "jitter": jitter,
        "max_dynamics_residual": float(trace.dynamics_residual.max()) if trace.cycles else 0.0,
        "relaxed_cycles": trace.qp_status.count("relaxed"),
        "clamped_cycles": int(trace.clamped.any(axis=1).sum()) if trace.cycles else 0,
    }


@dataclass(frozen=True)
class RunResult:
    trace: RunTrace
    summary: dict
    out_dir: Path


def run_scenario(
    scenario: Scenario | str | Path,
    mode: FilterMode | str,
    alpha: float | None = None,
    epsilon: float | None = None,
    seed: int | None = None,
    out: str | Path | None = None,
    trace_constraints: bool = False,
) -> RunResult:
    """One closed-loop run; persists trace.csv, torques.csv and summary.json."""
    if not isinstance(scenario, Scenario):
        scenario = load_scenario(resolve_input(scenario), seed=seed)
    elif seed is not None and seed != scenario.sim.seed:
        raise ValueError("pass seed via load_scenario for Scenario objects")
    mode = FilterMode(mode) if isinstance(mode, str) else mode

    filter_config = scenario.filter_config.with_collision_params(alpha, epsilon)
    scenario = replace(scenario, filter_config=filter_config)
    plant = scale_link_masses(scenario.robot, scenario.sim.mass_scale)

    start = time.perf_counter()
    trace = run_closed_loop(scenario.robot, plant, scenario, mode=mode,
                            trace_constraints=trace_constraints)
    runtime_s = time.perf_counter() - start

    eff_alpha = (alpha if alpha is not None
                 else filter_config.alpha[BarrierKind.SELF_COLLISION])
    eff_eps = (epsilon if epsilon is not None
               else filter_config.epsilon[BarrierKind.SELF_COLLISION])
    summary = summarize(trace, mode=mode.value, alpha=eff_alpha, epsilon=eff_eps,
                        seed=scenario.sim.seed, runtime_s=runtime_s)

    out_dir = (output_root(out) / scenario.name / mode.value
               / f"{_num_label(eff_alpha)}_{_num_label(eff_eps)}")
    out_dir.mkdir(parents=True, exist_ok=True)
    trace.to_csv(out_dir / "trace.csv")
    trace.to_torque_csv(out_dir / "torques.csv")
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    if trace_constraints:
        trace.dump_constraints_csv(out_dir / "constraints.csv")
    return RunResult(trace=trace, summary=summary, out_dir=out_dir)


@dataclass(frozen=True)
class SweepPoint:
    mode: str
    alpha: float
    epsilon: float
    remaining_collision_ratio: float
    min_h: float
    mean_qdot_dev: float
    jitter: float
    dbar: float
    collision_events: int
    failed: bool = False
    error: str = ""           # "<ExcType>: <message>" of a failed point


@dataclass(frozen=True)
class SweepResult:
    scenario: str
    reference_events: int
    points: tuple[SweepPoint, ...]
    csv_path: Path | None = None

    def point(self, mode: str, alpha: float, epsilon: float) -> SweepPoint:
        for p in self.points:
            if p.mode == mode and p.alpha == alpha and p.epsilon == epsilon:
                return p
        raise KeyError((mode, alpha, epsilon))


def _grid(modes, alphas, epsilons):
    """The (mode, alpha, epsilon) points of the filtered modes; the without-cbf
    reference run is made once, apart from the grid."""
    modes = [FilterMode(mode) for mode in modes]
    return [(mode, float(alpha), float(eps)) for mode in modes
            if mode is not FilterMode.WITHOUT_CBF for alpha in alphas for eps in epsilons]


def _sweep_worker(args):
    path, mode, alpha, eps, seed, out = args
    return run_scenario(path, mode, alpha=alpha, epsilon=eps, seed=seed, out=out).summary


def run_sweep(
    scenario_path: str | Path,
    alphas: list[float],
    epsilons: list[float],
    modes: list[FilterMode | str],
    jobs: int = 1,
    seed: int | None = None,
    out: str | Path | None = None,
) -> SweepResult:
    """Grid of runs; the without-filter reference run anchors the ratios."""
    if not alphas or not epsilons or not modes:
        raise ValueError("alphas, epsilons and modes must be non-empty")
    path = resolve_input(scenario_path)
    scenario = load_scenario(path, seed=seed)
    ref_alpha = scenario.filter_config.alpha[BarrierKind.SELF_COLLISION]
    ref_eps = scenario.filter_config.epsilon[BarrierKind.SELF_COLLISION]

    reference = run_scenario(path, FilterMode.WITHOUT_CBF, seed=seed, out=out)
    ref_events = reference.summary["collision_events"]

    grid = _grid(modes, alphas, epsilons)
    tasks = [(path, m, a, e, seed, out) for (m, a, e) in grid]

    # A point's outcome is its summary, or the exception that ended it.
    outcomes: list[dict | Exception] = []
    with (ProcessPoolExecutor(max_workers=jobs) if jobs > 1 and tasks
          else nullcontext()) as pool:
        calls = ([pool.submit(_sweep_worker, args).result for args in tasks] if pool
                 else [partial(_sweep_worker, args) for args in tasks])
        for call in calls:
            try:
                outcomes.append(call())
            except Exception as exc:  # partial failure: record and continue
                outcomes.append(exc)

    def ratio(events: int) -> float:
        if ref_events == 0:
            return 0.0 if events == 0 else math.inf
        return events / ref_events

    points = [SweepPoint(
        mode=FilterMode.WITHOUT_CBF.value, alpha=ref_alpha, epsilon=ref_eps,
        remaining_collision_ratio=ratio(ref_events),
        min_h=reference.summary["min_h"],
        mean_qdot_dev=reference.summary["mean_qdot_dev"],
        jitter=reference.summary["jitter"],
        dbar=reference.summary["dbar"],
        collision_events=ref_events,
    )] if any(FilterMode(m) is FilterMode.WITHOUT_CBF for m in modes) else []

    for (mode, a, e), summary in zip(grid, outcomes):
        if isinstance(summary, Exception):
            points.append(SweepPoint(mode=mode.value, alpha=a, epsilon=e,
                                     remaining_collision_ratio=math.nan, min_h=math.nan,
                                     mean_qdot_dev=math.nan, jitter=math.nan,
                                     dbar=math.nan, collision_events=-1, failed=True,
                                     error=f"{type(summary).__name__}: {summary}"))
            continue
        points.append(SweepPoint(
            mode=mode.value, alpha=a, epsilon=e,
            remaining_collision_ratio=ratio(summary["collision_events"]),
            min_h=summary["min_h"],
            mean_qdot_dev=summary["mean_qdot_dev"],
            jitter=summary["jitter"],
            dbar=summary["dbar"],
            collision_events=summary["collision_events"],
        ))

    root = output_root(out) / scenario.name
    root.mkdir(parents=True, exist_ok=True)
    csv_path = root / "sweep.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["mode", "alpha", "epsilon", "remaining_collision_ratio", "min_h",
                         "mean_qdot_dev", "jitter", "dbar", "collision_events", "failed",
                         "error"])
        for p in points:
            writer.writerow([p.mode, p.alpha, p.epsilon, p.remaining_collision_ratio,
                             p.min_h, p.mean_qdot_dev, p.jitter, p.dbar,
                             p.collision_events, int(p.failed), p.error])
    return SweepResult(scenario=scenario.name, reference_events=ref_events,
                       points=tuple(points), csv_path=csv_path)
