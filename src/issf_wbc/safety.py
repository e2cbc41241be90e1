"""Barrier-row block and the robust velocity-level safety filter.

Each barrier h contributes one linear row in joint velocity,

    grad(h) qd  >=  drift - alpha h + (1/eps) ||grad(h)||^2,

a robustness-margin variant of the barrier condition hd >= -alpha h: the
quadratic gradient term buys back safety under a bounded mismatch d between
commanded and realized joint velocity, while eps = inf recovers the plain
condition.  Four constraint families are produced: joint limits (unit
gradients, so the margin reduces to 1/eps exactly), self-collision pairs,
object-collision pairs (whose right-hand side carries the obstacle-velocity
drift term), and workspace distance bounds.  ``collect_constraints`` returns
a cycle's rows as one ``BarrierRows`` block, the gradients an array and the
per-row values float lists, which the filter and ``ecbf_rows`` read; alpha,
eps and the slack settings are checked once, when the ``FilterConfig`` is
built.

This module owns the barrier catalog.  ``barrier_plan`` builds it once per
run as a ``BarrierPlan``: every barrier's key in row order, each row's alpha
and eps, the joint-limit margins and the bodies the pairs pose.  The rows, a
run trace's keys (``BarrierPlan.keys``) and its ground-truth h
(``_barrier_values``) all read it.  A cycle poses each body once, on floats
(``geometry.pose_body``), builds a gradient only for an active collision
row, and hands the posed segments to ``ecbf_rows`` in the row's ``PairWitness``.

The filter itself is the minimally invasive projection
argmin ||qd - qd_des||^2 subject to those rows, on float lists; an
infeasible projection is
either surfaced (hard-fail policy) or relaxed with one heavily weighted
slack per constraint kind, which is logged and flagged because relaxed
rows no longer guarantee safety.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .geometry import (
    _ZERO3,
    CollisionBody,
    ProximityResult,
    Vec3,
    WorkspacePair,
    WorldSegment,
    _pair_curvature,
    _pair_gradient,
    _workspace_curvature,
    closest_points,
    pose_body,
    workspace_barrier,
    workspace_barrier_value,
)
from .model import FkResult, JointState, RobotModel, _link_rates
from .qpsolver import QpProblem, QpSolver

log = logging.getLogger(__name__)

DEFAULT_ACTIVATION_DISTANCE = 0.3
DEFAULT_SLACK_WEIGHT = 1e6
SLACK_POLICIES = ("hard-fail", "slack")


class BarrierKind(enum.Enum):
    JOINT_LIMIT_MIN = "joint-limit-min"
    JOINT_LIMIT_MAX = "joint-limit-max"
    SELF_COLLISION = "self-collision"
    OBJECT_COLLISION = "object-collision"
    WORKSPACE = "workspace"


class FilterMode(enum.Enum):
    WITHOUT_CBF = "without-cbf"
    CBF = "cbf"
    ISSF_CBF = "issf-cbf"
    ECBF = "ecbf"


class FilterInfeasibleError(RuntimeError):
    """Velocity filter QP infeasible under the hard-fail policy."""


class PairWitness(NamedTuple):
    """The closest-point query a collision row was built from: the bodies,
    their segments at the cycle's pose and the query's result."""

    body_a: CollisionBody
    body_b: CollisionBody
    segment_a: WorldSegment
    segment_b: WorldSegment
    proximity: ProximityResult
    velocity_b: Vec3 = _ZERO3            # world body B's estimated velocity


# Per-kind (alpha, epsilon) defaults: joint limits stiff and well-conditioned,
# collision rows in the collision-free sweep regime, workspace in between.
DEFAULT_ALPHA = {
    BarrierKind.JOINT_LIMIT_MIN: 20.0,
    BarrierKind.JOINT_LIMIT_MAX: 20.0,
    BarrierKind.SELF_COLLISION: 10.0,
    BarrierKind.OBJECT_COLLISION: 10.0,
    BarrierKind.WORKSPACE: 10.0,
}
DEFAULT_EPSILON = {
    BarrierKind.JOINT_LIMIT_MIN: 50.0,
    BarrierKind.JOINT_LIMIT_MAX: 50.0,
    BarrierKind.SELF_COLLISION: 10.0,
    BarrierKind.OBJECT_COLLISION: 10.0,
    BarrierKind.WORKSPACE: 30.0,
}


@dataclass(frozen=True)
class FilterConfig:
    mode: FilterMode = FilterMode.ISSF_CBF
    alpha: dict[BarrierKind, float] = field(default_factory=lambda: dict(DEFAULT_ALPHA))
    epsilon: dict[BarrierKind, float] = field(default_factory=lambda: dict(DEFAULT_EPSILON))
    slack_policy: str = "hard-fail"          # "hard-fail" | "slack"
    slack_weight: float = DEFAULT_SLACK_WEIGHT
    activation_distance: float = DEFAULT_ACTIVATION_DISTANCE

    def __post_init__(self) -> None:
        """Checks every parameter once, so a cycle never meets a bad one.

        alpha and the slack weight must be finite and > 0, eps > 0 (inf gives
        the plain barrier condition) and the activation distance >= 0; NaN fails.
        """
        problems = []
        for kind in BarrierKind:
            alpha, eps = self.alpha.get(kind), self.epsilon.get(kind)
            if alpha is None or not 0.0 < alpha < math.inf:
                problems.append(f"alpha.{kind.value}: must be finite and > 0, got {alpha!r}")
            if eps is None or not eps > 0.0:
                problems.append(f"epsilon.{kind.value}: must be > 0 (or inf), got {eps!r}")
        if self.slack_policy not in SLACK_POLICIES:
            problems.append(f"slack_policy: expected one of {SLACK_POLICIES}, "
                            f"got {self.slack_policy!r}")
        if not 0.0 < self.slack_weight < math.inf:
            problems.append(f"slack.weight: must be finite and > 0, got {self.slack_weight!r}")
        if not self.activation_distance >= 0.0:
            problems.append(f"activation_distance: must be >= 0, got {self.activation_distance!r}")
        if problems:
            raise ValueError("; ".join(problems))

    def with_mode(self, mode: FilterMode) -> "FilterConfig":
        return replace(self, mode=mode)

    def with_collision_params(
        self, alpha: float | None, epsilon: float | None
    ) -> "FilterConfig":
        """Override the swept collision-row parameters (joint/workspace untouched)."""
        a = dict(self.alpha)
        e = dict(self.epsilon)
        for kind in (BarrierKind.SELF_COLLISION, BarrierKind.OBJECT_COLLISION):
            if alpha is not None:
                a[kind] = alpha
            if epsilon is not None:
                e[kind] = epsilon
        return replace(self, alpha=a, epsilon=e)


class Obstacle(NamedTuple):
    """World collision body with its estimated rigid velocity (three floats)."""

    body: CollisionBody
    velocity: Vec3


@dataclass(frozen=True)
class BarrierRows:
    """A cycle's barrier rows grad @ qd >= drift - alpha h + margin, as one block.

    Row i is the barrier ``keys[i]`` = (kind, pair).  The rows come in
    ``collect_constraints``' order: the 2n joint-limit rows (q0 min, q0 max,
    q1 min, ...), then the self-collision, object-collision and workspace
    rows.  ``margin`` is the ISSf term |grad|^2 / eps (0 where eps = inf,
    as on every row in cbf mode), and ``witness[i]`` is what row i was
    evaluated from (None for joint limits).  ``len`` is the row count.
    """

    keys: list[tuple[BarrierKind, str]]
    h: list[float]
    grad: np.ndarray          # (m, n_dof)
    alpha: list[float]
    drift: list[float]        # rhs offset (obstacle-velocity term)
    margin: list[float]
    witness: list[PairWitness | WorkspacePair | None]

    def __len__(self) -> int:
        return len(self.keys)

    def rhs(self) -> list[float]:
        """Right-hand sides b of grad @ qd >= b, drift - alpha h + margin per row."""
        return [d - a * h + m for d, a, h, m in zip(self.drift, self.alpha, self.h, self.margin)]


@dataclass(frozen=True)
class BarrierPlan:
    """A run's barrier catalog, built once by ``barrier_plan`` and read each cycle.

    ``keys`` lists every barrier as (kind, pair) in the order of
    ``collect_constraints``' rows when none is inactive or dropped: the 2n
    joint-limit rows (q0 min, q0 max, q1 min, ...), the collision barriers,
    then the workspace bounds.  The collision barriers are the
    self-collision pairs, then each robot body against each obstacle,
    obstacle by obstacle.  ``collisions`` holds each as (kind, pair, a, b,
    j, alpha, eps): a indexes ``bodies``, and so does b for a self-collision
    pair (j is None), while b is None for a body against obstacle j.
    ``bodies`` holds every body a pair poses, once, and ``workspace`` each
    bound as (pair, alpha, eps).
    The joint-limit rows' alpha and margin 1/eps (their gradients are unit
    vectors) are lists in row order.  In cbf mode every eps is inf, so every
    margin is 0: the plain barrier condition.
    """

    n_dof: int
    keys: list[tuple[BarrierKind, str]]
    q_min: tuple[float, ...]
    q_max: tuple[float, ...]
    joint_grad: np.ndarray          # read-only (2n, n) block of rows e_i, -e_i
    joint_alpha: list[float]
    joint_margin: list[float]
    bodies: tuple[CollisionBody, ...]
    collisions: tuple[tuple, ...]
    workspace: tuple[tuple, ...]
    n_obstacles: int
    activation_distance: float


def barrier_plan(model: RobotModel, config: FilterConfig, pairs=(), obstacle_bodies=(),
                 workspace_pairs=()) -> BarrierPlan:
    """The barrier catalog of ``model`` under ``config``: the self-collision
    ``pairs``, each robot body against each of ``obstacle_bodies`` (whose
    estimates a cycle's obstacles are, in the same order) and the
    ``workspace_pairs``.  A cbf-mode plan gives every row eps = inf."""
    epsilon = (dict.fromkeys(BarrierKind, math.inf) if config.mode is FilterMode.CBF
               else config.epsilon)
    bodies: list[CollisionBody] = []

    def index(body: CollisionBody) -> int:
        for i, entry in enumerate(bodies):
            if entry is body:
                return i
        bodies.append(body)
        return len(bodies) - 1

    collisions = []
    kind = BarrierKind.SELF_COLLISION
    for a, b in pairs:
        if a.is_world and b.is_world:
            raise ValueError(f"{a.name}|{b.name}: at least one body must be attached "
                             "to the robot")
        collisions.append((kind, f"{a.name}|{b.name}", index(a), index(b), None,
                           config.alpha[kind], epsilon[kind]))
    kind = BarrierKind.OBJECT_COLLISION
    for j, obstacle in enumerate(obstacle_bodies):
        collisions += [(kind, f"{a.name}|{obstacle.name}", index(a), None, j,
                        config.alpha[kind], epsilon[kind])
                       for a in model.collision_bodies]
    kind = BarrierKind.WORKSPACE
    workspace = tuple((pair, config.alpha[kind], epsilon[kind])
                      for pair in workspace_pairs)

    n = model.n_dof
    joint_keys = [(kind, f"q{i}") for i in range(n)
                  for kind in (BarrierKind.JOINT_LIMIT_MIN, BarrierKind.JOINT_LIMIT_MAX)]
    joint_grad = np.kron(np.eye(n), [[1.0], [-1.0]])
    joint_grad.setflags(write=False)
    return BarrierPlan(
        n_dof=n,
        keys=(joint_keys + [(kind, pair) for kind, pair, *_ in collisions]
              + [(BarrierKind.WORKSPACE, pair.name) for pair in workspace_pairs]),
        q_min=model.q_min,
        q_max=model.q_max,
        joint_grad=joint_grad,
        joint_alpha=[config.alpha[kind] for kind, _ in joint_keys],
        joint_margin=[1.0 / epsilon[kind] for kind, _ in joint_keys],
        bodies=tuple(bodies),
        collisions=tuple(collisions),
        workspace=workspace,
        n_obstacles=len(obstacle_bodies),
        activation_distance=config.activation_distance,
    )


def _barrier_h(plan: BarrierPlan, q, values: list[float]) -> list[float]:
    """The joint-limit rows' h at ``q`` (q0 min, q0 max, q1 min, ...), then ``values``."""
    h = []
    for qi, lo, hi in zip(q, plan.q_min, plan.q_max):
        h.append(qi - lo)
        h.append(hi - qi)
    h += values
    return h


def _barrier_values(plan: BarrierPlan, q, fk: FkResult, obstacle_bodies) -> list[float]:
    """The h of every barrier of ``plan.keys`` at ``q``, whose pose is ``fk``,
    with the obstacles at ``obstacle_bodies``, without gradients: the ground
    truth a run is judged on.  Each body is posed once."""
    posed = [pose_body(body, fk) for body in plan.bodies]
    worlds = [pose_body(body, fk) for body in obstacle_bodies]
    values = [closest_points(posed[a], posed[b] if j is None else worlds[j]).h
              for _, _, a, b, j, _, _ in plan.collisions]
    values += [workspace_barrier_value(fk, pair) for pair, _, _ in plan.workspace]
    return _barrier_h(plan, q, values)


def collect_constraints(
    plan: BarrierPlan,
    state: JointState,
    fk: FkResult,
    obstacles: list[Obstacle],
) -> BarrierRows:
    """Assemble the barrier rows of ``plan`` for the current state, whose pose is ``fk``.

    ``obstacles`` are the estimates of the plan's obstacle bodies, in order.
    Each body is posed once.  Joint-limit and workspace rows are always
    emitted; collision rows only inside the activation distance, and only
    those get a gradient.  Rows with a degenerate (coincident-witness)
    gradient are dropped for this cycle with a logged event, active or not.
    Each collision and workspace row's |grad|^2 is its own ``grad @ grad``.
    """
    state.validate(plan.n_dof)
    if len(obstacles) != plan.n_obstacles:
        raise ValueError(f"{len(obstacles)} obstacles for a plan of {plan.n_obstacles}")
    n_dof, activation_distance = plan.n_dof, plan.activation_distance
    posed = [(body, pose_body(body, fk)) for body in plan.bodies]
    worlds = [(obstacle.body, pose_body(obstacle.body, fk)) for obstacle in obstacles]
    keys, hs, grads, alphas, epsilons, drifts, witnesses = [], [], [], [], [], [], []

    for kind, pair, a, b, j, alpha, eps in plan.collisions:
        body_a, seg_a = posed[a]
        body_b, seg_b = posed[b] if j is None else worlds[j]
        prox = closest_points(seg_a, seg_b)
        if prox.degenerate:
            log.warning("dropping %s row: coincident witness points for pair (%s, %s)",
                        kind.value, body_a.name, body_b.name)
            continue
        if prox.h > activation_distance:
            continue
        if j is None:
            drift, velocity = 0.0, _ZERO3
        else:
            (nx, ny, nz), velocity = prox.normal, obstacles[j].velocity
            drift = nx * velocity[0] + ny * velocity[1] + nz * velocity[2]
        keys.append((kind, pair))
        hs.append(prox.h)
        grads.append(np.array(_pair_gradient(fk, n_dof, body_a.link, body_b.link, prox)))
        alphas.append(alpha)
        epsilons.append(eps)
        drifts.append(drift)
        witnesses.append(PairWitness(body_a, body_b, seg_a, seg_b, prox, velocity))

    for pair, alpha, eps in plan.workspace:
        h, grad = workspace_barrier(fk, pair)
        keys.append((BarrierKind.WORKSPACE, pair.name))
        hs.append(h)
        grads.append(grad)
        alphas.append(alpha)
        epsilons.append(eps)
        drifts.append(0.0)
        witnesses.append(pair)

    jl = 2 * n_dof
    keys = plan.keys[:jl] + keys
    grad = np.concatenate((plan.joint_grad, grads)) if grads else plan.joint_grad.copy()
    if not np.isfinite(grad).all():
        bad = int(np.argmin(np.isfinite(grad).all(axis=1)))
        raise ValueError(f"{keys[bad][1]}: non-finite gradient")
    return BarrierRows(
        keys=keys, h=_barrier_h(plan, state.q, hs), grad=grad,
        alpha=plan.joint_alpha + alphas,
        drift=[0.0] * jl + drifts,
        margin=plan.joint_margin + [float(g @ g) / e for g, e in zip(grads, epsilons)],
        witness=[None] * jl + witnesses,
    )


@dataclass(frozen=True)
class FilterResult:
    qdot_safe: list[float]
    status: str                  # "passthrough" | "optimal" | "relaxed"
    iterations: int


@lru_cache(maxsize=None)
def _two_identity(n: int) -> tuple[tuple[float, ...], ...]:
    """The filter QP's H = 2 I as n float rows, built once per size."""
    return tuple(tuple(2.0 if i == j else 0.0 for j in range(n)) for i in range(n))


def filter_velocity(
    qdot_des: list[float],
    rows: BarrierRows,
    config: FilterConfig,
    solver: QpSolver,
    warm_start: list[float] | None = None,
) -> FilterResult:
    """Minimally invasive projection of qd_des onto the barrier rows."""
    n = len(qdot_des)
    if config.mode in (FilterMode.WITHOUT_CBF, FilterMode.ECBF) or not rows:
        return FilterResult(qdot_safe=qdot_des, status="passthrough", iterations=0)

    A = rows.grad
    g = [-2.0 * v for v in qdot_des]
    problem = QpProblem(H=_two_identity(n), g=g, A_ineq=A, b_ineq=rows.rhs())
    sol = solver.solve(problem, warm_start=warm_start)
    if sol.optimal:
        return FilterResult(qdot_safe=sol.x.tolist(), status="optimal",
                            iterations=sol.iterations)

    if config.slack_policy == "hard-fail":
        raise FilterInfeasibleError(
            f"safety filter QP {sol.status.value} with {len(rows)} rows"
        )

    # One shared slack per constraint kind present; heavily weighted, logged,
    # and flagged: relaxed rows no longer guarantee safety.
    kinds = sorted({kind for kind, _ in rows.keys}, key=lambda k: k.value)
    kind_col = {kind: n + j for j, kind in enumerate(kinds)}
    m, ns = len(rows), n + len(kinds)
    diagonal = [2.0] * n + [2.0 * config.slack_weight] * len(kinds)
    H = [[d if i == j else 0.0 for j in range(ns)] for i, d in enumerate(diagonal)]
    A_s = np.zeros((m + len(kinds), ns))
    A_s[:m, :n] = A
    A_s[np.arange(m), [kind_col[kind] for kind, _ in rows.keys]] = 1.0
    A_s[m:, n:] = np.eye(len(kinds))             # slack >= 0
    relaxed_sol = solver.solve(QpProblem(H=H, g=g + [0.0] * len(kinds), A_ineq=A_s,
                                         b_ineq=problem.b_ineq + [0.0] * len(kinds)))
    if not relaxed_sol.optimal:
        raise FilterInfeasibleError("safety filter QP infeasible even with slack relaxation")
    slacks = relaxed_sol.x[n:]
    log.warning(
        "safety filter relaxed (safety not guaranteed): slack per kind %s",
        {k.value: float(s) for k, s in zip(kinds, slacks)},
    )
    return FilterResult(qdot_safe=relaxed_sol.x[:n].tolist(), status="relaxed",
                        iterations=sol.iterations + relaxed_sol.iterations)


@dataclass(frozen=True)
class AccelRows:
    """Acceleration-level rows grad @ qdd >= rhs for the torque QP, as one block.

    Row i is the extended barrier of the barrier row ``keys[i]`` = (kind,
    pair), whose value is h_e[i].
    """

    keys: list[tuple[BarrierKind, str]]
    grad: np.ndarray          # (m, n_dof)
    rhs: list[float]
    h_e: list[float]


def ecbf_rows(state: JointState, fk: FkResult, rows: BarrierRows) -> AccelRows:
    """Extended-barrier rows h_e = hd + alpha h enforced as hd_e >= -alpha h_e.

    ``rows`` are this cycle's barrier rows, as collect_constraints returned
    them for ``state``, whose pose is ``fk``; one eCBF row is built from each,
    in order, with that row's own alpha:

        grad . qdd >= -alpha h_e - c - alpha hd,   hd = grad . qd - drift,

    where c is hd_dot at qdd = 0,

        c = qd^T (d2h/dq2) qd + 2 qd^T (d/dt grad h) + d2h/dt2.

    c is computed in closed form from the pose, one pass of link velocities
    and bias accelerations (``model._link_rates``) and each row's witness
    points and posed segments (``geometry._pair_curvature``,
    ``geometry._workspace_curvature``);
    a world body moves at the estimated velocity its row's drift uses, with no
    acceleration.  Joint-limit rows have constant gradients and c = 0.
    """
    qd = state.qd
    rates = None
    curvature: list[float] = []
    for witness in rows.witness:
        if witness is None:
            curvature.append(0.0)
            continue
        if rates is None:
            rates = _link_rates(fk, qd)
        if isinstance(witness, WorkspacePair):
            curvature.append(_workspace_curvature(fk, rates, witness))
        else:
            curvature.append(_pair_curvature(fk, rates, witness.body_a, witness.segment_a,
                                             witness.body_b, witness.segment_b,
                                             witness.proximity, witness.velocity_b))
    h_dot = [rate - drift for rate, drift in zip((rows.grad @ qd).tolist(), rows.drift)]
    h_e = [hd + a * h for hd, a, h in zip(h_dot, rows.alpha, rows.h)]
    rhs = [-a * e - c - a * hd for a, e, c, hd in zip(rows.alpha, h_e, curvature, h_dot)]
    return AccelRows(keys=rows.keys, grad=rows.grad, rhs=rhs, h_e=h_e)
