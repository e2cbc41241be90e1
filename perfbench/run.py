"""issf-wbc closed-loop benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload hand-issf --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout (the program is imported from src/).
The benchmark writes the workload's scenario file from the bundled one, the
seed and the run length it fixes, runs as many repetitions of the workload as
fit in --seconds in one fresh process with BLAS pinned to one thread, with
set-up timed in fresh interpreters between them, checks every run's outputs
and prints the metrics named in BENCHMARK.json: end-to-end ones
with ``--trace 0``, per-layer ones with ``--trace 1``.  The last line of
standard output is the JSON result; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Simulated seconds are chosen so each run reaches the phase the workload
# exists for: the press phase of hand_track starts at t = 1.9 s, the ball of
# obstacle_track arrives at about t = 1.2 s.  The sweep stops before the
# press so that several repetitions fit in one run.  slot_s is the share of
# --seconds given to one repetition: a run makes max(2, --seconds // slot_s)
# of them, a count that does not depend on the machine's speed during the
# run.  On a 2-vCPU machine, a repetition with its set-up samples and
# calibration kernels takes 11-16 s on hand-issf, 17-25 s on obstacle-ecbf
# and 6-8 s on hand-sweep, depending on the host's phase.
WORKLOADS = {
    "hand-issf": {"scenario": "hand_track", "duration": 2.0, "slot_s": 20.0,
                  "mode": "issf-cbf"},
    "obstacle-ecbf": {"scenario": "obstacle_track", "duration": 1.25, "slot_s": 20.0,
                      "mode": "ecbf"},
    "hand-sweep": {"scenario": "hand_track", "duration": 0.2, "slot_s": 13.0,
                   "modes": ["without-cbf", "cbf", "issf-cbf"],
                   "alphas": [5.0, 10.0], "epsilons": [10.0]},
}
MIN_REPS = 2   # the trace digest is compared across repetitions
CHILD_TIMEOUT_S = 170
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH")) if p)
    return env


def write_scenario(spec: dict, seed: int, duration: float, work: Path) -> Path:
    """The workload's scenario: the bundled one with the run length and seed set."""
    doc = json.loads((SRC / "issf_wbc" / "data" / f"{spec['scenario']}.scenario").read_text())
    doc["sim"]["duration"] = duration
    doc["sim"]["seed"] = seed
    path = work / f"{spec['scenario']}.scenario"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def tally(reps: list[dict]) -> tuple[int, int]:
    """(attempted, failed) runs.  A repetition whose trace digest differs from
    the first repetition's fails every run it made."""
    attempted = failed = 0
    reference = reps[0]["digest"] if reps else None
    for rep in reps:
        attempted += rep["runs"]
        failed += rep["runs"] if rep["digest"] != reference else rep["failed"]
    return attempted, failed


def rate(rep: dict) -> float:
    """Control cycles per second of wall time of one repetition's top-level call."""
    return rep["cycles"] / rep["wall_s"] if rep["wall_s"] else 0.0


def ref_rate(rep: dict) -> float:
    """``rate`` rescaled to the reference host speed by the calibration kernel
    timed during the repetition (calibrate.py)."""
    if not rep["kernel_s"]:
        return 0.0
    return rate(rep) * calibrate.host_seconds(rep["kernel_s"]) / calibrate.REF_S


def run_child(args: list[str], timeout: float) -> str:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.exit(f"{args[0]} exited with code {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            work: Path) -> tuple[dict, dict]:
    spec = WORKLOADS[workload]
    scenario = write_scenario(spec, seed, spec["duration"], work)
    count = max(MIN_REPS, int(seconds // spec["slot_s"]))
    child = json.loads(run_child(
        [str(HERE / "workload.py"), "--workload", workload, "--scenario", str(scenario),
         "--out", str(work / "out"), "--reps", str(count), "--trace", str(int(trace))],
        CHILD_TIMEOUT_S))
    reps = child["reps"]
    attempted, failed = tally(reps)
    untraced = [r for r in reps if not r.get("traced")]
    result = {
        "end_to_end": {
            "ref_cycles_per_s": statistics.median(map(ref_rate, untraced)),
            "setup_s": statistics.median(t * calibrate.REF_S / k for t, k in child["setup_s"]),
            "peak_rss_mb": child["peak_rss_mb"],
            "passed_ratio": 1.0 - failed / attempted,
        },
        "per_layer": child["layers"],
        "attempted": attempted,
        "failed": failed,
        "digests": [r["digest"] for r in reps],
        "cycles_per_s": statistics.median(map(rate, untraced)),
        "setup_wall_s": statistics.median(t for t, _ in child["setup_s"]),
        "per_rep": [(rate(r), calibrate.host_seconds(r["kernel_s"]) if r["kernel_s"] else 0.0)
                    for r in untraced],
    }
    manifest = {
        "workload": workload,
        "seed": seed,
        "git_commit": git_commit(),
        **child["versions"],
        "blas_threads": BLAS_ENV,
        "nproc": os.cpu_count(),
        "scenario_sha256": {scenario.name: hashlib.sha256(scenario.read_bytes()).hexdigest()},
        "sim_duration_s": spec["duration"],
        "repetitions": len(reps),
    }
    return result, manifest


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description="issf-wbc closed-loop benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "issf_wbc" / "__init__.py").is_file():
        sys.exit(f"no issf_wbc sources under {SRC}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    try:
        result, manifest = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                   work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("manifest " + json.dumps(manifest, sort_keys=True))
    digests = result["digests"]
    same = len(set(digests)) == 1
    print(f"trace digest {digests[0]} over {len(digests)} repetitions "
          f"({'identical' if same else 'DIFFERENT: ' + ', '.join(map(str, digests))})")
    print("per repetition: " + ", ".join(f"{r:.1f} cycles/s with the kernel at {k * 1e3:.3f} ms"
                                         for r, k in result["per_rep"]))
    end_to_end = result["end_to_end"]
    failed_ratio = result["failed"] / result["attempted"]
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    print(f"cycles_per_s = {result['cycles_per_s']!r} cycles/s (wall time, median repetition)")
    print(f"set-up wall time = {result['setup_wall_s']!r} s (median, not rescaled)")
    for name, value in end_to_end.items():
        print(f"{name} = {value!r} {units[name]}")
    print(f"failed_ratio = {failed_ratio!r} ratio ({result['failed']} of "
          f"{result['attempted']} runs)")

    group = "per_layer" if args.trace else "end_to_end"
    values = result[group]
    if args.trace:
        for name in sorted(values):
            print(f"{name} = {values[name]!r} {units[name]}")
    names = [m["name"] for m in declared[group]]
    if set(names) != set(values):
        sys.exit(f"measured {sorted(values)} but BENCHMARK.json declares {sorted(names)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }))


if __name__ == "__main__":
    main()
