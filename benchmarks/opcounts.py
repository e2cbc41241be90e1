"""Bytecodes and C calls per control cycle, stage by stage, for diffing.

    python3 benchmarks/opcounts.py [--duration SECONDS] > opcounts.txt

Counts are not time, but the host cannot move them: two runs of one tree
print the same lines, so two source trees compare with ``diff`` (run the
script in each; it imports the package from the ``src`` directory next to
it).  It runs the bundled ``hand_track`` and ``obstacle_track`` scenarios in
each of the four filter modes (``sim.run_closed_loop``, the nominal model
against the mass-scaled plant) for ``--duration`` seconds (default 0.05,
100 cycles) and counts every cycle but the first two, in which the kernels
are generated:

- ``step <scenario> <mode> <stage> bytecodes <per cycle>``: the Python
  bytecodes that ``Controller.step`` executes per cycle in each stage,
  counted as ``sys.settrace`` opcode events.  A stage is the first function
  on the stack below ``Controller.step`` that is bound by name in
  ``issf_wbc.sim`` (``forward_kinematics``, ``prioritized_ik``, ...);
  ``step`` is the method's own code and its other callees.  The ``total``
  stage sums them.
- ``step <scenario> <mode> <stage> c:<function> <per cycle>``: the calls of
  each C function per cycle in each stage (``sys.setprofile`` ``c_call``
  events).  Calling a numpy ufunc or an operator is not such a call, so
  numpy's share is understated.
- ``plant <scenario> <mode> step_physics ...``: the same two counts for the
  plant's ``step_physics`` calls (all substeps of a cycle).
- ``cycles <scenario> <mode> <n>``: the number of cycles counted.
- ``kernel <model>/<fk|dynamics> <op> <count>``: the operations in the
  generated source of the forward-kinematics and dynamics kernels of both
  bundled robots and their mass-scaled plants (``<robot>*<scale>``), by
  kind: ``+``, ``-``, ``*``, ``/``, ``neg`` (unary minus), ``cos``, ``sin``
  and their ``total``.  A model and its plant share one FK kernel.
"""

from __future__ import annotations

import argparse
import ast
import gc
import linecache
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import FunctionType

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from issf_wbc import sim  # noqa: E402
from issf_wbc._fastdyn import _dynamics_kernel, _inertial  # noqa: E402
from issf_wbc.model import _fk_kernel, _frames, scale_link_masses  # noqa: E402
from issf_wbc.safety import FilterMode  # noqa: E402
from issf_wbc.scenario import load_scenario, resolve_input  # noqa: E402

SCENARIOS = ("hand_track.scenario", "obstacle_track.scenario")
SKIPPED_CYCLES = 2
STEP = sim.Controller.step
STAGES = {fn.__code__: name for name, fn in vars(sim).items() if isinstance(fn, FunctionType)}


class OpCounter:
    """Bytecodes and C calls by stage while ``count`` runs.

    A frame's stage is that of its caller, but below a frame of the stage
    ``root`` a function of ``stages`` (code -> name) opens its own stage.
    """

    def __init__(self, root: str, stages: dict) -> None:
        self.root, self.stages = root, stages
        self.bytecodes: Counter = Counter()
        self.c_calls: Counter = Counter()
        self._stages: dict[int, str] = {}       # id(frame) -> stage, frames of one call
        self._tracers: dict = {}

    def _tracer(self, stage: str):
        """The local trace function that counts a frame's opcodes to ``stage``."""
        tracer = self._tracers.get(stage)
        if tracer is None:
            bytecodes = self.bytecodes

            def tracer(frame, event, arg):
                if event == "opcode":
                    bytecodes[stage] += 1
                return tracer
            self._tracers[stage] = tracer
        return tracer

    def _call(self, frame, event, arg):
        """The global trace function: the stage of each new frame."""
        stage = self._stages.get(id(frame.f_back), self.root)
        if stage == self.root:
            stage = self.stages.get(frame.f_code, self.root)
        self._stages[id(frame)] = stage
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return self._tracer(stage)

    def _profile(self, frame, event, arg):
        if event == "c_call":
            stage = self._stages.get(id(frame))
            if stage is not None:       # not the frame that turns counting off
                module = getattr(arg, "__module__", None)
                name = arg.__qualname__ if module is None else f"{module}.{arg.__qualname__}"
                self.c_calls[stage, name] += 1

    def count(self, call, *args):
        """``call(*args)``, counting what it executes."""
        self._stages.clear()
        sys.setprofile(self._profile)
        sys.settrace(self._call)
        try:
            return call(*args)
        finally:
            sys.settrace(None)
            sys.setprofile(None)


def count_run(scenario, mode: FilterMode) -> tuple[int, OpCounter, OpCounter]:
    """(cycles counted, controller counts, plant counts) of one closed-loop run."""
    controller, plant = OpCounter("step", STAGES), OpCounter("step_physics", {})
    cycle = -1
    step_physics = sim.step_physics

    def counted_step(self, *args):
        nonlocal cycle
        cycle += 1
        if cycle < SKIPPED_CYCLES:
            return STEP(self, *args)
        return controller.count(STEP, self, *args)

    def counted_physics(*args):
        if cycle < SKIPPED_CYCLES:
            return step_physics(*args)
        return plant.count(step_physics, *args)

    plant_model = scale_link_masses(scenario.robot, scenario.sim.mass_scale)
    sim.Controller.step, sim.step_physics = counted_step, counted_physics
    gc.collect()
    gc.disable()        # a collection would run weakref callbacks inside a count
    try:
        sim.run_closed_loop(scenario.robot, plant_model, scenario, mode)
    finally:
        gc.enable()
        sim.Controller.step, sim.step_physics = STEP, step_physics
    return cycle + 1 - SKIPPED_CYCLES, controller, plant


def report(label: str, cycles: int, counter: OpCounter, total: bool) -> list[str]:
    """The lines of one counter; with ``total``, a last stage that sums the others."""
    bytecodes = dict(sorted(counter.bytecodes.items()))
    if total:
        bytecodes["total"] = sum(bytecodes.values())
    lines = []
    for stage, count in bytecodes.items():
        lines.append(f"{label} {stage} bytecodes {count / cycles:.1f}")
        lines += [f"{label} {stage} c:{name} {calls / cycles:.1f}"
                  for (where, name), calls in sorted(counter.c_calls.items()) if where == stage]
    return lines


KERNEL_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.USub: "neg"}


def kernel_ops(kernel) -> Counter:
    """The operations of a generated kernel, counted in its source by kind;
    a negative literal (``-0.04``) is a constant, not an operation."""
    source = "".join(linecache.cache[f"<{kernel.__name__}>"][2])
    ops: Counter = Counter()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) or (isinstance(node, ast.UnaryOp)
                                           and not isinstance(node.operand, ast.Constant)):
            ops[KERNEL_OPS[type(node.op)]] += 1
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("cos", "sin"):
            ops[node.func.id] += 1
    return ops


def kernel_report(scenario) -> list[str]:
    """The ``kernel`` lines of the scenario's robot and its plant."""
    robot, scale = scenario.robot, scenario.sim.mass_scale
    lines = []
    for label, model in ((robot.name, robot),
                         (f"{robot.name}*{scale:g}", scale_link_masses(robot, scale))):
        frames = _frames(model)
        for kind, kernel in (("fk", _fk_kernel(frames)),
                             ("dynamics", _dynamics_kernel(frames, _inertial(model)))):
            ops = kernel_ops(kernel)
            lines += [f"kernel {label}/{kind} {op} {ops[op]}"
                      for op in ("+", "-", "*", "/", "neg", "cos", "sin")]
            lines.append(f"kernel {label}/{kind} total {sum(ops.values())}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=0.05,
                        help="run length in seconds (default 0.05, 100 cycles)")
    args = parser.parse_args(argv)
    lines = []
    for name in SCENARIOS:
        scenario = load_scenario(resolve_input(name))
        scenario = replace(scenario, sim=replace(scenario.sim, duration=args.duration))
        for mode in FilterMode:
            cycles, controller, plant = count_run(scenario, mode)
            if cycles < 1:
                parser.error(f"--duration {args.duration} leaves no cycle to count")
            label = f"{scenario.name} {mode.value}"
            lines.append(f"cycles {label} {cycles}")
            lines += report(f"step {label}", cycles, controller, total=True)
            lines += report(f"plant {label}", cycles, plant, total=False)
        lines += kernel_report(scenario)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
