"""One benchmark workload in a fresh process, started by run.py.

Runs repetitions of the workload through the public entry points
(``load_scenario``, ``scale_link_masses``, ``run_closed_loop``, ``run_sweep``),
checks every run's outputs, and prints one JSON line with the per-repetition
results.  Before each repetition it times set-up (setup_time.py) in fresh
interpreters.  With ``--trace 1`` it runs one untraced and one traced
repetition and adds the per-layer metrics of the traced one.

Usage (src/ on PYTHONPATH, BLAS pinned to one thread):
    python3 perfbench/workload.py --workload hand-issf --scenario F --out DIR \
        --reps 3 --trace 0
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import issf_wbc
from issf_wbc.safety import BarrierKind, FilterMode

import calibrate
import layers
import tracer
from run import WORKLOADS, rate

RESIDUAL_MAX = 1e-8   # acceptance criterion 7
H_SLACK = 5e-3        # slack of the degradation bound in tests/test_acceptance.py
CALIBRATE_EVERY = 50  # control cycles between two timings of the calibration kernel
SETUP_SAMPLES = 3     # set-up timings before each repetition
SETUP_TIME = Path(__file__).resolve().parent / "setup_time.py"


class CycleClock:
    """Times a repetition, and the host while it runs.

    The loop calls ``motor_torque`` once per cycle; while the clock is
    installed, that binding in ``issf_wbc.sim`` also counts the cycle.  With
    ``calibrated``, every CALIBRATE_EVERY cycles it times the calibration
    kernel (calibrate.py); the clock stops while the kernel runs, so the
    repetition's wall time leaves it out.  Installed inside the tracer's
    wrappers, never under them.
    """

    def __init__(self, calibrated: bool = True):
        self.calibrated = calibrated

    def __enter__(self) -> "CycleClock":
        self.cycles = 0
        self.kernel_s: list[float] = []
        self.paused = 0.0
        self.original = original = issf_wbc.sim.motor_torque

        def counted(*args, **kwargs):
            if self.calibrated and self.cycles % CALIBRATE_EVERY == 0:
                before = time.perf_counter()
                self.kernel_s.append(calibrate.kernel())
                self.paused += time.perf_counter() - before
            self.cycles += 1
            return original(*args, **kwargs)

        issf_wbc.sim.motor_torque = counted
        return self

    def __exit__(self, *exc) -> None:
        issf_wbc.sim.motor_torque = self.original

    def now(self) -> float:
        """Seconds on a clock that stops while the calibration kernel runs."""
        return time.perf_counter() - self.paused


def degradation_problems(label, keys, h, dbar, config) -> list[str]:
    """Rows breaking min h >= min(h0, 0) - eps*dbar^2/(4*alpha) - 5e-3."""
    problems = []
    for j, key in enumerate(keys):
        kind = BarrierKind(key.split("|", 1)[0])
        alpha = config.alpha[kind]
        eps = config.epsilon[kind]
        bound = min(float(h[0, j]), 0.0) - eps * dbar**2 / (4 * alpha) - H_SLACK
        worst = float(h[:, j].min())
        if worst < bound:
            problems.append(f"{label}: {key} min h {worst!r} < bound {bound!r}")
    return problems


def run_problems(label, mode, keys, h, statuses, residual_max, dbar, config) -> list[str]:
    """Every correctness check of one closed-loop run."""
    problems = []
    relaxed = statuses.count("relaxed")
    if relaxed:
        problems.append(f"{label}: {relaxed} relaxed filter cycles")
    if not residual_max < RESIDUAL_MAX:
        problems.append(f"{label}: dynamics residual {residual_max!r} >= {RESIDUAL_MAX}")
    if mode == FilterMode.ISSF_CBF.value:
        problems += degradation_problems(label, keys, h, dbar, config)
    return problems


def trace_digest(trace) -> str:
    digest = hashlib.sha256()
    for arr in (trace.t, trace.q, trace.qd, trace.qdot_des, trace.qdot_safe,
                trace.tau_cmd, trace.h, trace.d_inf, trace.dbar, trace.qp_iters):
        digest.update(np.ascontiguousarray(arr).tobytes())
    digest.update("\n".join(trace.qp_status).encode())
    return digest.hexdigest()


def single_run(spec: dict, path: Path, clock: CycleClock) -> dict:
    scenario = issf_wbc.load_scenario(path)
    plant = issf_wbc.scale_link_masses(scenario.robot, scenario.sim.mass_scale)
    mode = spec["mode"]
    start = clock.now()
    trace = issf_wbc.run_closed_loop(scenario.robot, plant, scenario, mode=FilterMode(mode))
    end = clock.now()
    wall = end - start
    summary = issf_wbc.harness.summarize(trace, mode=mode, alpha=None, epsilon=None,
                                         seed=scenario.sim.seed, runtime_s=wall)
    problems = run_problems(mode, mode, trace.barrier_keys, trace.h, trace.qp_status,
                            summary["max_dynamics_residual"], summary["dbar"],
                            scenario.filter_config)
    return {"runs": 1, "failed": int(bool(problems)), "problems": problems,
            "digest": trace_digest(trace), "cycles": trace.cycles, "wall_s": wall,
            "kernel_s": clock.kernel_s}


def read_trace_csv(path: Path) -> tuple[list[str], np.ndarray, list[str]]:
    """Barrier keys, (cycles, rows) barrier values and statuses of a trace.csv."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    h_cols = [j for j, name in enumerate(header) if name.startswith("h:")]
    status_col = header.index("qp_status")
    keys = [header[j][2:] for j in h_cols]
    h = np.array([[float(r[j]) for j in h_cols] for r in rows[1:]]).reshape(-1, len(h_cols))
    return keys, h, [r[status_col] for r in rows[1:]]


def sweep_points(spec: dict) -> int:
    filtered = [m for m in spec["modes"] if m != FilterMode.WITHOUT_CBF.value]
    return 1 + len(filtered) * len(spec["alphas"]) * len(spec["epsilons"])


def sweep_run(spec: dict, path: Path, out: Path, clock: CycleClock) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    start = clock.now()
    result = issf_wbc.run_sweep(path, alphas=spec["alphas"], epsilons=spec["epsilons"],
                                modes=spec["modes"], jobs=1, out=out)
    end = clock.now()
    wall = end - start
    base = issf_wbc.load_scenario(path).filter_config
    problems: list[str] = []
    failed = cycles = 0
    for p in result.points:
        label = f"{p.mode} alpha={p.alpha:g} eps={p.epsilon:g}"
        if p.failed:
            failed += 1
            problems.append(f"{label}: sweep point raised")
            continue
        run_dir = out / result.scenario / p.mode / f"{p.alpha:g}_{p.epsilon:g}"
        summary = json.loads((run_dir / "summary.json").read_text())
        keys, h, statuses = read_trace_csv(run_dir / "trace.csv")
        point_problems = run_problems(
            label, p.mode, keys, h, statuses, summary["max_dynamics_residual"],
            summary["dbar"], base.with_collision_params(p.alpha, p.epsilon))
        failed += bool(point_problems)
        problems += point_problems
        cycles += summary["cycles"]
    digest = hashlib.sha256()
    for f in sorted(out.rglob("*.csv")):
        digest.update(str(f.relative_to(out)).encode())
        digest.update(f.read_bytes())
    return {"runs": len(result.points), "failed": failed, "problems": problems,
            "digest": digest.hexdigest(), "cycles": cycles, "wall_s": wall,
            "kernel_s": clock.kernel_s}


def repetition(spec: dict, path: Path, out: Path, calibrated: bool = True) -> dict:
    """One repetition; a raised exception fails every run it would have made."""
    try:
        with CycleClock(calibrated) as clock:
            if "modes" in spec:
                return sweep_run(spec, path, out, clock)
            return single_run(spec, path, clock)
    except Exception:
        runs = sweep_points(spec) if "modes" in spec else 1
        return {"runs": runs, "failed": runs, "problems": [traceback.format_exc()],
                "digest": None, "cycles": 0, "wall_s": 0.0, "kernel_s": []}


def setup_samples(path: Path) -> list[list[float]]:
    """[set-up seconds, kernel seconds] of SETUP_SAMPLES fresh interpreters
    (setup_time.py)."""
    return [[float(x) for x in subprocess.run(
                [sys.executable, str(SETUP_TIME), str(path)], check=True,
                stdout=subprocess.PIPE, text=True, timeout=60).stdout.split()]
            for _ in range(SETUP_SAMPLES)]


def traced_pair(spec: dict, path: Path, out: Path) -> tuple[list[dict], dict]:
    """An untraced and a traced repetition, and the traced one's layer metrics."""
    substeps = issf_wbc.load_scenario(path).sim.substeps
    untraced = repetition(spec, path, out)
    spans = tracer.Tracer()
    uninstall = tracer.install(spans)
    try:
        traced = dict(repetition(spec, path, out, calibrated=False), traced=True)
    finally:
        uninstall()
    layers.check_coverage(spans, substeps)
    metrics = layers.layer_metrics(spans)
    metrics["trace.overhead_ratio"] = rate(untraced) / rate(traced) if rate(traced) else 0.0
    return [untraced, traced], metrics


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--scenario", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--reps", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(issf_wbc.__file__).resolve().is_relative_to(src):
        sys.exit(f"issf_wbc imported from {issf_wbc.__file__}, not from {src}")

    spec = WORKLOADS[args.workload]
    layer = None
    setup: list[list[float]] = []
    if args.trace:
        setup += setup_samples(args.scenario)
        reps, layer = traced_pair(spec, args.scenario, args.out)
    else:
        reps = []
        for _ in range(args.reps):
            # spread over the run, so that no one slow moment holds every sample
            setup += setup_samples(args.scenario)
            reps.append(repetition(spec, args.scenario, args.out))
    for rep in reps:
        for problem in rep["problems"]:
            print(problem, file=sys.stderr)
    print(json.dumps({
        "reps": [{k: v for k, v in rep.items() if k != "problems"} for rep in reps],
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layer,
        "versions": {"issf_wbc": issf_wbc.__version__, "python": platform.python_version(),
                     "numpy": np.__version__},
    }))


if __name__ == "__main__":
    main()
