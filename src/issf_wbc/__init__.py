"""Safety-critical whole-body control for fixed-base manipulators.

Pipeline: prioritized differential IK produces a nominal joint-velocity
command; a robust barrier-based velocity filter projects it onto the safe
set (joint limits, self-/object-collision, workspace bounds); a torque-level
QP tracks the filtered reference subject to the full-order dynamics; a
closed-loop simulator with injectable model mismatch measures how well the
velocity-level safety guarantee transfers to the torque-controlled plant.
"""

from .dynwbc import ContactBlock, DynWbcWeights, motor_torque, safe_acceleration, solve_dynwbc
from .geometry import (
    CollisionBody,
    ProximityResult,
    WorkspacePair,
    closest_points,
    workspace_barrier,
)
from .harness import RunResult, SweepResult, run_scenario, run_sweep
from .kinwbc import Task, prioritized_ik
from .model import (
    JointSpec,
    JointState,
    LinkSpec,
    RobotModel,
    forward_kinematics,
    load_robot,
    scale_link_masses,
)
from .qpsolver import QpProblem, QpSolution, QpSolver, QpStatus
from .safety import (
    BarrierKind,
    BarrierPlan,
    BarrierRows,
    FilterConfig,
    FilterMode,
    Obstacle,
    barrier_plan,
    collect_constraints,
    ecbf_rows,
    filter_velocity,
)
from .scenario import Scenario, load_scenario
from .sim import (
    ConstantVelocityKalman,
    Controller,
    CycleRecord,
    Integrator,
    RunTrace,
    SimConfig,
    run_closed_loop,
    step_physics,
)

__version__ = "0.1.0"
