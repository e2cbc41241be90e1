"""Command-line interface: run one scenario, sweep a parameter grid, or
validate a scenario file.

    issf-wbc run <scenario> --mode issf-cbf [--alpha 10 --epsilon 10]
                 [--seed N] [--out DIR] [--trace-constraints]
    issf-wbc sweep <scenario> --alphas 1,5,10 --epsilons 10,20,30
                 --modes issf-cbf,cbf [--jobs K] [--seed N] [--out DIR]
    issf-wbc check <scenario>

The output root defaults to ./out and can be overridden with --out or the
ISSF_WBC_OUT environment variable.
"""

from __future__ import annotations

import argparse
import sys

from .dynwbc import DynWbcInfeasibleError
from .harness import run_scenario, run_sweep
from .safety import FilterConfig, FilterInfeasibleError, FilterMode
from .scenario import ScenarioError, load_scenario, resolve_input
from .sim import SimulationDivergedError

MODES = [m.value for m in FilterMode]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="issf-wbc",
                                     description="safety-filtered whole-body control harness")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    run_p.add_argument("scenario")
    run_p.add_argument("--mode", choices=MODES, default="issf-cbf")
    run_p.add_argument("--alpha", type=float, default=None,
                       help="collision-row barrier rate override [1/s]")
    run_p.add_argument("--epsilon", type=float, default=None,
                       help="collision-row robustness parameter override")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--trace-constraints", action="store_true")

    sweep_p = sub.add_parser("sweep", help="grid of runs over (mode, alpha, epsilon)")
    sweep_p.add_argument("scenario")
    sweep_p.add_argument("--alphas", type=_float_list, required=True)
    sweep_p.add_argument("--epsilons", type=_float_list, required=True)
    sweep_p.add_argument("--modes", default="issf-cbf",
                         type=lambda s: [tok for tok in s.split(",") if tok])
    sweep_p.add_argument("--jobs", type=int, default=1)
    sweep_p.add_argument("--seed", type=int, default=None)
    sweep_p.add_argument("--out", default=None)

    check_p = sub.add_parser("check", help="validate a scenario file")
    check_p.add_argument("scenario")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            try:   # FilterConfig's own checks, before any file is read
                FilterConfig().with_collision_params(args.alpha, args.epsilon)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            result = run_scenario(
                args.scenario, args.mode, alpha=args.alpha, epsilon=args.epsilon,
                seed=args.seed, out=args.out, trace_constraints=args.trace_constraints,
            )
            s = result.summary
            print(f"{args.scenario} [{args.mode}] cycles={s['cycles']} "
                  f"min_h={s['min_h']:.4f} dbar={s['dbar']:.4f} "
                  f"collisions={s['collision_events']} -> {result.out_dir}")
            return 0
        if args.command == "sweep":
            for mode in args.modes:
                if mode not in MODES:
                    print(f"unknown mode {mode!r}; choose from {MODES}", file=sys.stderr)
                    return 2
            result = run_sweep(args.scenario, args.alphas, args.epsilons, args.modes,
                               jobs=args.jobs, seed=args.seed, out=args.out)
            for p in result.points:
                status = "FAILED" if p.failed else f"ratio={p.remaining_collision_ratio:.3f}"
                print(f"{p.mode:12s} alpha={p.alpha:<6g} eps={p.epsilon:<6g} {status} "
                      f"min_h={p.min_h:+.4f}")
            print(f"-> {result.csv_path}")
            return 1 if any(p.failed for p in result.points) else 0
        if args.command == "check":
            scenario = load_scenario(resolve_input(args.scenario))
            print(f"{args.scenario}: ok ({scenario.robot.n_dof}-dof {scenario.robot.name}, "
                  f"{len(scenario.tasks)} tasks, {scenario.sim.duration} s)")
            return 0
    except ScenarioError as exc:
        print("scenario invalid:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return 2
    except (FileNotFoundError, SimulationDivergedError, FilterInfeasibleError,
            DynWbcInfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
