"""Micro-benchmark of the kinematics, geometry, dynamics and QP kernels.

    python3 benchmarks/kernels.py [--repeat 7] [--seconds 0.2]

Times each kernel with ``timeit`` on the robot and start pose of both bundled
scenarios (``hand_track``: 3-DoF ``planar3``; ``obstacle_track``: 7-DoF
``arm7``) and prints the best of ``--repeat`` rounds in microseconds per call.
Each round times every row once, in table order, so the rows of one run
share the host's phases.  One pair of runs of two trees is biased by run
order: back to back, the second run reads slower, by a few percent in the
median row and up to about 10% in one, whichever tree runs second.  Compare
two trees over several alternating runs of each, never over one pair.  The
rows:

- ``forward_kinematics``;
- ``jacobian_rows``: the positional Jacobian rows of the last link's
  collision body (``model._jacobian_rows``, as IK builds a point task's),
  given the FK and the body's world point;
- ``closest_points`` of the scenario's first collision pair, already posed;
- ``pair_gradient``: that pair's barrier gradient (``geometry._pair_gradient``,
  as ``collect_constraints`` builds an active collision row's), given the
  FK and the pair's ``closest_points``;
- ``joint_dynamics`` (mass matrix and bias forces as lists), given q and
  qd as lists and the scenario's gravity tuple: its generated kernel works
  in joint frames and takes no pose;
- ``cholesky_solve``: qdd from M qdd = tau - h by the plant's generated
  ``cholesky_solve`` kernel (the Cholesky factor and both triangular
  solves in one function), given that row's M and h and zero torque as
  lists;
- ``prioritized_ik``: the scenario's task stack sampled at t = 0, at the
  moving state, given the FK;
- ``collect_constraints``: the scenario's barrier rows at the moving state,
  given the FK and the controller's barrier plan (``safety.barrier_plan``,
  built once per run), with each obstacle where it is 1.2 s into the run
  (``obstacle_track``'s ball is then within reach of the hand and the
  forearm);
- ``truth_values``: the loop's ground-truth h of every barrier of that plan
  (``safety._barrier_values``), given the FK, with the obstacles there;
- ``filter_velocity``: the ``issf-cbf`` velocity filter on those rows, with
  qd_des the moving state's qd and a solver of its own;
- ``ecbf_rows``: the eCBF rows of those barrier rows, given the FK;
- ``motor_torque``: the motor command for the gravity torque at the start
  pose and the reference q + qd dt, qd of the moving state, with the
  controller's resolved gains and the model's torque limits, all floats;
- ``step_physics``: one semi-implicit Euler substep of the scenario's plant
  (its mass-scaled model) under zero torque, the dynamics kernel and the
  solve for qdd included, given q, qd and torque as lists and the gravity
  tuple, as the loop carries them;
- ``kalman_update``: one update of a constant-velocity Kalman filter (5 mm
  measurement noise) that has already seen a measurement; it is the same on
  both robots;
- ``torque_qp_data``: the torque QP's H, g and torque-limit right-hand
  sides from the generated kernel of the robot's size, given that row's M
  and h as lists, the gravity torque at the start pose as tau_prev, zero
  qdd_safe and the scenario's weights;
- ``trace_csv``: ``RunTrace.to_csv`` of a 400-cycle closed-loop run of the
  scenario (0.2 s in its own filter mode, against its plant), written to
  ``os.devnull`` so that the row is the formatting and not the disk;
- ``filter_qp`` and ``torque_qp``: a cold ``QpSolver.solve`` of the velocity
  filter QP and of the torque QP of the scenario's first control cycle, in
  its own filter mode, with each obstacle at its initial pose and velocity,
  each by a new solver, which has no convexity verdict or factor to reuse;
- ``dynamics_codegen``: the one-time generation of the robot's
  ``joint_dynamics`` kernel (trace, source and compile), bypassing the
  kernel cache, in microseconds per generation; the row also prints the
  generation's tracemalloc peak, measured in a separate untimed call.

Every kernel after the first other than ``joint_dynamics`` takes the pose
as an argument, so its row excludes the cost of FK.  The moving state is the
start pose with qd = linspace(-1, 1, n), a ``JointState`` whose float tuples
the rows take as the controller does.  Each timed run makes as many calls
as one call's time fits into ``--seconds``.

The package is imported from the ``src`` directory next to this script.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import timeit
import tracemalloc
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from issf_wbc._codegen import cholesky_solve  # noqa: E402
from issf_wbc._fastdyn import _dynamics_kernel, _inertial, joint_dynamics  # noqa: E402
from issf_wbc.dynwbc import _qp_data, motor_torque  # noqa: E402
from issf_wbc.geometry import _pair_gradient, closest_points, pose_body  # noqa: E402
from issf_wbc.kinwbc import prioritized_ik  # noqa: E402
from issf_wbc.model import (  # noqa: E402
    JointState,
    _frames,
    _jacobian_rows,
    forward_kinematics,
    scale_link_masses,
)
from issf_wbc.qpsolver import QpSolver  # noqa: E402
from issf_wbc.safety import (  # noqa: E402
    FilterMode,
    Obstacle,
    _barrier_values,
    barrier_plan,
    collect_constraints,
    ecbf_rows,
    filter_velocity,
)
from issf_wbc.scenario import load_scenario, resolve_input  # noqa: E402
from issf_wbc.sim import (  # noqa: E402
    ConstantVelocityKalman,
    Controller,
    run_closed_loop,
    step_physics,
)

SCENARIOS = ("hand_track.scenario", "obstacle_track.scenario")
ECBF_T = 1.2
CSV_DURATION = 0.2


class _KeepProblem(QpSolver):
    """A solver that keeps the last problem it was given."""

    def solve(self, problem, warm_start=None):
        self.problem = problem
        return super().solve(problem, warm_start)


def first_cycle(scenario):
    """A controller of the scenario after its first control cycle, whose
    solvers keep that cycle's filter QP and torque QP."""
    controller = Controller(scenario.robot, scenario)
    controller.filter_solver, controller.dyn_solver = _KeepProblem(), _KeepProblem()
    state = JointState(q=scenario.q0.copy(), qd=scenario.qd0.copy(), t=0.0)
    obstacles = [Obstacle(body=spec.body, velocity=spec.velocity)
                 for spec in scenario.obstacles]
    controller.step(state, 0.0, obstacles)
    return controller


def kernels(scenario) -> dict[str, callable]:
    model = scenario.robot
    q = scenario.q0
    qd = np.linspace(-1.0, 1.0, model.n_dof)
    gravity = scenario.sim.gravity
    q_list, qd_list = q.tolist(), qd.tolist()
    state = JointState(q=q, qd=qd, t=0.0)
    fk = forward_kinematics(model, state.q)
    body_a, body_b = scenario.collision_pairs[0]
    seg_a, seg_b = pose_body(body_a, fk), pose_body(body_b, fk)
    tip = model.collision_bodies[-1]
    tip_point = fk._point(tip.link, tip.p0)
    prox = closest_points(seg_a, seg_b)
    plant = scale_link_masses(model, scenario.sim.mass_scale)
    tau = [0.0] * model.n_dof
    dt = scenario.sim.dt_physics
    obstacles = [Obstacle(body=spec.body.moved([ECBF_T * v for v in spec.velocity]),
                          velocity=spec.velocity)
                 for spec in scenario.obstacles]
    plan = barrier_plan(model, scenario.filter_config, scenario.collision_pairs,
                        [spec.body for spec in scenario.obstacles], scenario.workspace_pairs)
    rows = collect_constraints(plan, state, fk, obstacles)
    obstacle_bodies = [obstacle.body for obstacle in obstacles]
    issf = scenario.filter_config.with_mode(FilterMode.ISSF_CBF)
    controller = first_cycle(scenario)
    filter_qp, torque_qp = controller.filter_solver.problem, controller.dyn_solver.problem
    filter_solver = QpSolver()
    tasks = [spec.task_at(0.0) for spec in scenario.tasks]
    dt_control = scenario.sim.dt_control
    tau_gravity = joint_dynamics(model, q_list, [0.0] * model.n_dof, gravity)[1]
    q_ref = [qi + vi * dt_control for qi, vi in zip(q_list, qd_list)]
    mass, bias = joint_dynamics(model, q_list, qd_list, gravity)
    n = model.n_dof
    weights = scenario.weights
    kalman = ConstantVelocityKalman(0.005)
    z = [0.4, -0.2, 0.1]     # the measurement as the loop passes it, a float list
    kalman.update(z, dt_control)
    trace = run_closed_loop(model, plant, replace(
        scenario, sim=replace(scenario.sim, duration=CSV_DURATION)))
    return {
        "forward_kinematics": lambda: forward_kinematics(model, state.q),
        "jacobian_rows": lambda: _jacobian_rows(fk, n, tip.link, tip_point),
        "closest_points": lambda: closest_points(seg_a, seg_b),
        "pair_gradient": lambda: _pair_gradient(fk, n, body_a.link, body_b.link, prox),
        "joint_dynamics": lambda: joint_dynamics(model, q_list, qd_list, gravity),
        "cholesky_solve": lambda: cholesky_solve[n](mass, [0.0 - hi for hi in bias]),
        "prioritized_ik": lambda: prioritized_ik(model, state, fk, tasks),
        "collect_constraints": lambda: collect_constraints(plan, state, fk, obstacles),
        "truth_values": lambda: _barrier_values(plan, state.q, fk, obstacle_bodies),
        "filter_velocity": lambda: filter_velocity(qd_list, rows, issf, filter_solver),
        "ecbf_rows": lambda: ecbf_rows(state, fk, rows),
        "motor_torque": lambda: motor_torque(tau_gravity, q_ref, qd_list, state,
                                             controller.gains, model.tau_max),
        "step_physics": lambda: step_physics(plant, q_list, qd_list, tau, gravity, 0.0, dt),
        "kalman_update": lambda: kalman.update(z, dt_control),
        "torque_qp_data": lambda: _qp_data[n](mass, bias, tau_gravity, [0.0] * n,
                                              model.tau_max, weights.w_qdd, weights.w_tau,
                                              weights.w_M),
        "trace_csv": lambda: trace.to_csv(os.devnull),
        "filter_qp": lambda: QpSolver().solve(filter_qp),
        "torque_qp": lambda: QpSolver().solve(torque_qp),
        "dynamics_codegen": lambda: _dynamics_kernel.__wrapped__(_frames(model),
                                                                 _inertial(model)),
    }


def tracemalloc_peak(fn) -> int:
    """The peak traced allocation, in bytes, of one call of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def calls_per_run(fn, seconds: float) -> int:
    """How many calls of ``fn`` fit into ``seconds``, from one timed call
    after an untimed one (a first call may generate a kernel)."""
    fn()
    return max(1, int(seconds / timeit.Timer(fn).timeit(number=1)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=0.2,
                        help="approximate length of one timed run")
    args = parser.parse_args(argv)
    table = []      # (robot, kernel, fn, calls per run)
    for name in SCENARIOS:
        scenario = load_scenario(resolve_input(name))
        for kernel, fn in kernels(scenario).items():
            table.append((scenario.robot.name, kernel, fn, calls_per_run(fn, args.seconds)))
    best = [float("inf")] * len(table)
    for _ in range(args.repeat):
        for i, (_, _, fn, number) in enumerate(table):
            best[i] = min(best[i], timeit.Timer(fn).timeit(number=number) / number)
    print(f"python {platform.python_version()}, numpy {np.__version__}")
    print(f"{'robot':10s} {'kernel':20s} {'us/call':>9s}")
    for (robot, kernel, fn, _), seconds in zip(table, best):
        note = ""
        if kernel == "dynamics_codegen":
            note = (f"  ({seconds * 1e3:.1f} ms, tracemalloc peak "
                    f"{tracemalloc_peak(fn) / 1e6:.2f} MB)")
        print(f"{robot:10s} {kernel:20s} {seconds * 1e6:9.2f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
