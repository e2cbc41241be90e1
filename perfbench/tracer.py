"""In-memory span tracer installed around the public functions of issf_wbc.

Each wrapped call appends one span ``[fid, start_ns, end_ns, parent, cycle,
info]`` to ``Tracer.spans``: ``fid`` indexes ``Tracer.names``, ``parent`` is
the index of the enclosing span (-1 at top level), ``cycle`` the control-cycle
index (None outside the control loop) and ``info`` whatever the function's
observer extracted from its result.  Spans stay in memory until the run ends.

Modules import functions by name (``from .safety import collect_constraints``),
so ``install`` replaces the function on every module of the package that
binds it, not only on the defining module.  The control loop in ``sim`` calls
``forward_kinematics`` exactly once at the start of each cycle, so the wrapper
on that one binding also advances the cycle index.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from typing import Callable

PACKAGE = "issf_wbc"

# Layer name -> module of the package; the layer name prefixes span names.
LAYERS = {
    "model": "issf_wbc.model",
    "fastdyn": "issf_wbc._fastdyn",
    "geometry": "issf_wbc.geometry",
    "kinwbc": "issf_wbc.kinwbc",
    "qpsolver": "issf_wbc.qpsolver",
    "safety": "issf_wbc.safety",
    "dynwbc": "issf_wbc.dynwbc",
    "sim": "issf_wbc.sim",
    "harness": "issf_wbc.harness",
    "scenario": "issf_wbc.scenario",
}

# Methods traced in addition to the public module-level functions:
# (layer, class name, method name).
METHODS = (
    ("qpsolver", "QpSolver", "solve"),
    ("qpsolver", "QpProblem", "validate"),
    ("sim", "ConstantVelocityKalman", "update"),
    ("sim", "RunTrace", "to_csv"),
    ("sim", "RunTrace", "to_torque_csv"),
)

LOOP = "sim.run_closed_loop"
CYCLE_MARKER = ("issf_wbc.sim", "forward_kinematics")


def _qp_info(args, kwargs, sol):
    problem = args[1] if len(args) > 1 else kwargs["problem"]
    return (sol.iterations, len(sol.active_set), problem.dims()[1],
            sol.kkt_residual, sol.optimal)


# Span name -> observer(args, kwargs, result) giving the span's ``info``.
OBSERVERS: dict[str, Callable] = {
    "qpsolver.QpSolver.solve": _qp_info,
    "safety.collect_constraints": lambda args, kwargs, rows: len(rows),
    "safety.filter_velocity": lambda args, kwargs, res: res.status == "passthrough",
    "dynwbc.motor_torque": lambda args, kwargs, res: bool(res[1].any()),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.cycle: int | None = None
        self._next_cycle = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, marks_cycle: bool = False,
             is_loop: bool = False) -> Callable:
        fid = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if marks_cycle:
                self.cycle = self._next_cycle
                self._next_cycle += 1
            elif is_loop:
                self.cycle = None
            span = [fid, 0, 0, stack[-1] if stack else -1, self.cycle, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if is_loop:
                    self.cycle = None
            if observe is not None:
                span[5] = observe(args, kwargs, result)
            return result

        return traced


def traced_functions() -> dict[Callable, str]:
    """Original function -> span name, for every traced module function."""
    found: dict[Callable, str] = {}
    for layer, modname in LAYERS.items():
        module = sys.modules[modname]
        for attr, obj in vars(module).items():
            if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                    and obj.__module__ == modname):
                found[obj] = f"{layer}.{attr}"
    return found


def package_modules() -> list[types.ModuleType]:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced function on every binding; returns the undo function."""
    import issf_wbc  # noqa: F401  (loads every layer module)

    undo: list[tuple[object, str, object]] = []
    functions = traced_functions()
    shared = {fn: tracer.wrap(name, fn, is_loop=(name == LOOP))
              for fn, name in functions.items()}
    for module in package_modules():
        for attr, obj in list(vars(module).items()):
            if not isinstance(obj, types.FunctionType) or obj not in shared:
                continue
            if (module.__name__, attr) == CYCLE_MARKER:
                wrapper = tracer.wrap(functions[obj], obj, marks_cycle=True)
            else:
                wrapper = shared[obj]
            undo.append((module, attr, obj))
            setattr(module, attr, wrapper)
    for layer, cls_name, meth in METHODS:
        cls = getattr(sys.modules[LAYERS[layer]], cls_name)
        original = cls.__dict__[meth]
        undo.append((cls, meth, original))
        setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def self_times(spans: list[list]) -> list[int]:
    """Per-span duration minus the time its direct child spans cover (ns)."""
    child = [0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]
