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
a cycle's rows as one ``BarrierRows`` block of arrays, which the filter and
``ecbf_rows`` read by slices; alpha, eps and the slack settings are checked
once, when the ``FilterConfig`` is built.

This module owns the barrier catalog: the rows, a run trace's keys
(``_barrier_catalog``) and its ground-truth h (``_barrier_values``) all
read the collision barriers' row order from ``_collision_barriers``.

The filter itself is the minimally invasive projection
argmin ||qd - qd_des||^2 subject to those rows; an infeasible projection is
either surfaced (hard-fail policy) or relaxed with one heavily weighted
slack per constraint kind, which is logged and flagged because relaxed
rows no longer guarantee safety.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, field, replace
from weakref import WeakKeyDictionary

import numpy as np

from .geometry import (
    CollisionBody,
    DegenerateWitnessError,
    ProximityResult,
    Vec3,
    WorkspacePair,
    _pair_curvature,
    _workspace_curvature,
    body_pair_barrier,
    closest_points,
    pose_body,
    workspace_barrier,
    workspace_barrier_value,
)
from .model import FkResult, JointState, RobotModel, _link_rates, _xyz
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


@dataclass(frozen=True)
class PairWitness:
    """The closest-point query a collision row was built from."""

    body_a: CollisionBody
    body_b: CollisionBody
    proximity: ProximityResult
    velocity_b: Vec3 = (0.0, 0.0, 0.0)   # world body B's estimated velocity


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


@dataclass(frozen=True)
class Obstacle:
    """World collision body with its estimated rigid velocity."""

    body: CollisionBody
    velocity: np.ndarray


@dataclass(frozen=True)
class BarrierRows:
    """A cycle's barrier rows grad @ qd >= drift - alpha h + margin, as one block.

    Row i is the barrier ``keys[i]`` = (kind, pair).  The rows come in
    ``collect_constraints``' order: the 2n joint-limit rows (q0 min, q0 max,
    q1 min, ...), then the self-collision, object-collision and workspace
    rows.  ``margin`` is the ISSf term |grad|^2 / eps (0 where eps = inf),
    and ``witness[i]`` is what row i was evaluated from (None for joint
    limits).  ``len`` is the row count.
    """

    keys: list[tuple[BarrierKind, str]]
    h: np.ndarray             # (m,)
    grad: np.ndarray          # (m, n_dof)
    alpha: np.ndarray         # (m,)
    epsilon: np.ndarray       # (m,)
    drift: np.ndarray         # (m,) rhs offset (obstacle-velocity term)
    margin: np.ndarray        # (m,)
    witness: list[PairWitness | WorkspacePair | None]

    def __len__(self) -> int:
        return len(self.keys)

    def rhs(self, plain_cbf: bool = False) -> np.ndarray:
        """Right-hand sides b of grad @ qd >= b; ``plain_cbf`` drops the margin."""
        return self.drift - self.alpha * self.h + (0.0 if plain_cbf else self.margin)


_JOINT_ROWS: "WeakKeyDictionary[RobotModel, tuple]" = WeakKeyDictionary()


def _joint_limit_rows(model: RobotModel) -> tuple:
    """The keys, the read-only +-I gradient block and the lower and upper
    limits of the 2n joint-limit rows, built once per model."""
    rows = _JOINT_ROWS.get(model)
    if rows is None:
        keys = [(kind, f"q{i}") for i in range(model.n_dof)
                for kind in (BarrierKind.JOINT_LIMIT_MIN, BarrierKind.JOINT_LIMIT_MAX)]
        grad = np.kron(np.eye(model.n_dof), [[1.0], [-1.0]])     # rows e_i, -e_i
        grad.setflags(write=False)
        q_min = np.array([joint.q_min for joint in model.joints], dtype=float)
        q_max = np.array([joint.q_max for joint in model.joints], dtype=float)
        rows = _JOINT_ROWS[model] = (keys, grad, q_min, q_max)
    return rows


def _collision_barriers(model: RobotModel, pairs, obstacle_bodies) -> list[tuple]:
    """The collision barriers in row order, as (kind, pair, body A, body B, j):
    the self-collision ``pairs`` (j None), then each robot body against
    obstacle j of ``obstacle_bodies``, obstacle by obstacle."""
    return ([(BarrierKind.SELF_COLLISION, f"{a.name}|{b.name}", a, b, None) for a, b in pairs]
            + [(BarrierKind.OBJECT_COLLISION, f"{a.name}|{b.name}", a, b, j)
               for j, b in enumerate(obstacle_bodies) for a in model.collision_bodies])


def _barrier_h(model: RobotModel, q: np.ndarray, values) -> np.ndarray:
    """The joint-limit rows' h at ``q`` (q0 min, q0 max, q1 min, ...), then ``values``."""
    _, _, q_min, q_max = _joint_limit_rows(model)
    jl = 2 * model.n_dof
    h = np.empty(jl + len(values))
    h[0:jl:2] = q - q_min
    h[1:jl:2] = q_max - q
    h[jl:] = values
    return h


def _barrier_catalog(model: RobotModel, pairs, obstacle_bodies,
                     workspace_pairs) -> list[tuple[BarrierKind, str]]:
    """The (kind, pair) key of every barrier, in the order of
    ``collect_constraints``' rows when none is inactive or dropped."""
    return (_joint_limit_rows(model)[0]
            + [(kind, pair) for kind, pair, *_ in
               _collision_barriers(model, pairs, obstacle_bodies)]
            + [(BarrierKind.WORKSPACE, pair.name) for pair in workspace_pairs])


def _barrier_values(model: RobotModel, q: np.ndarray, fk: FkResult, pairs, obstacle_bodies,
                    workspace_pairs) -> np.ndarray:
    """The h of every barrier of ``_barrier_catalog`` at ``q``, whose pose is
    ``fk``, without gradients: the ground truth a run is judged on."""
    values = [closest_points(pose_body(a, fk), pose_body(b, fk)).h
              for _, _, a, b, _ in _collision_barriers(model, pairs, obstacle_bodies)]
    values += [workspace_barrier_value(fk, pair) for pair in workspace_pairs]
    return _barrier_h(model, q, values)


def collect_constraints(
    model: RobotModel,
    state: JointState,
    fk: FkResult,
    obstacles: list[Obstacle],
    config: FilterConfig,
    pairs: list[tuple[CollisionBody, CollisionBody]],
    workspace_pairs: list[WorkspacePair] = (),
) -> BarrierRows:
    """Assemble the barrier rows for the current state, whose pose is ``fk``.

    Joint-limit and workspace rows are always emitted; collision rows only
    inside the activation distance.  Rows with a degenerate (coincident-
    witness) gradient are dropped for this cycle with a logged event.  Each
    collision and workspace row's |grad|^2 is its own ``grad @ grad``.
    """
    state.validate(model.n_dof)
    jl_keys, jl_grad, _, _ = _joint_limit_rows(model)
    # (kind, pair, h, grad, drift, witness) of each collision and workspace row
    rows: list[tuple] = []

    velocities = [_xyz(obstacle.velocity) for obstacle in obstacles]
    for kind, pair, body_a, body_b, j in _collision_barriers(
            model, pairs, [obstacle.body for obstacle in obstacles]):
        try:
            h, grad, prox = body_pair_barrier(model, fk, body_a, body_b)
        except DegenerateWitnessError as exc:
            log.warning("dropping %s row: %s", kind.value, exc)
            continue
        if h > config.activation_distance:
            continue
        if j is None:
            rows.append((kind, pair, h, grad, 0.0, PairWitness(body_a, body_b, prox)))
        else:
            (nx, ny, nz), (vx, vy, vz) = prox.normal, velocities[j]
            rows.append((kind, pair, h, grad, nx * vx + ny * vy + nz * vz,
                         PairWitness(body_a, body_b, prox, velocities[j])))

    for pair in workspace_pairs:
        h, grad = workspace_barrier(fk, pair)
        rows.append((BarrierKind.WORKSPACE, pair.name, h, grad, 0.0, pair))

    jl = len(jl_keys)
    kinds, names, hs, grads, drifts, witnesses = zip(*rows) if rows else ((),) * 6
    keys = jl_keys + list(zip(kinds, names))
    grad = np.concatenate((jl_grad, grads)) if rows else jl_grad.copy()
    if not np.isfinite(grad).all():
        bad = int(np.argmin(np.isfinite(grad).all(axis=1)))
        raise ValueError(f"{keys[bad][1]}: non-finite gradient")
    eps = [config.epsilon[kind] for kind, _ in keys]
    return BarrierRows(
        keys=keys, h=_barrier_h(model, state.q, hs), grad=grad,
        alpha=np.array([config.alpha[kind] for kind, _ in keys]),
        epsilon=np.array(eps),
        drift=np.array([0.0] * jl + list(drifts)),
        # joint-limit gradients are unit vectors, so their margin is 1/eps
        margin=np.array([1.0 / e for e in eps[:jl]]
                        + [float(g @ g) / e for g, e in zip(grads, eps[jl:])]),
        witness=[None] * jl + list(witnesses),
    )


@dataclass(frozen=True)
class FilterResult:
    qdot_safe: np.ndarray
    status: str                  # "passthrough" | "optimal" | "relaxed"
    iterations: int


def filter_velocity(
    qdot_des: np.ndarray,
    rows: BarrierRows,
    config: FilterConfig,
    solver: QpSolver,
    warm_start: np.ndarray | None = None,
) -> FilterResult:
    """Minimally invasive projection of qd_des onto the barrier rows."""
    n = qdot_des.shape[0]
    if config.mode in (FilterMode.WITHOUT_CBF, FilterMode.ECBF) or not rows:
        return FilterResult(qdot_safe=qdot_des, status="passthrough", iterations=0)

    A = rows.grad
    b = rows.rhs(plain_cbf=config.mode is FilterMode.CBF)
    problem = QpProblem(H=2.0 * np.eye(n), g=-2.0 * qdot_des, A_ineq=A, b_ineq=b)
    sol = solver.solve(problem, warm_start=warm_start)
    if sol.optimal:
        return FilterResult(qdot_safe=sol.x, status="optimal", iterations=sol.iterations)

    if config.slack_policy == "hard-fail":
        raise FilterInfeasibleError(
            f"safety filter QP {sol.status.value} with {len(rows)} rows"
        )

    # One shared slack per constraint kind present; heavily weighted, logged,
    # and flagged: relaxed rows no longer guarantee safety.
    kinds = sorted({kind for kind, _ in rows.keys}, key=lambda k: k.value)
    kind_col = {kind: n + j for j, kind in enumerate(kinds)}
    m, ns = len(rows), n + len(kinds)
    H = np.zeros((ns, ns))
    H[:n, :n] = 2.0 * np.eye(n)
    H[n:, n:] = 2.0 * config.slack_weight * np.eye(len(kinds))
    g = np.zeros(ns)
    g[:n] = -2.0 * qdot_des
    A_s = np.zeros((m + len(kinds), ns))
    A_s[:m, :n] = A
    A_s[np.arange(m), [kind_col[kind] for kind, _ in rows.keys]] = 1.0
    A_s[m:, n:] = np.eye(len(kinds))             # slack >= 0
    b_s = np.zeros(m + len(kinds))
    b_s[:m] = b
    relaxed_sol = solver.solve(QpProblem(H=H, g=g, A_ineq=A_s, b_ineq=b_s))
    if not relaxed_sol.optimal:
        raise FilterInfeasibleError("safety filter QP infeasible even with slack relaxation")
    slacks = relaxed_sol.x[n:]
    log.warning(
        "safety filter relaxed (safety not guaranteed): slack per kind %s",
        {k.value: float(s) for k, s in zip(kinds, slacks)},
    )
    return FilterResult(qdot_safe=relaxed_sol.x[:n], status="relaxed",
                        iterations=sol.iterations + relaxed_sol.iterations)


@dataclass(frozen=True)
class AccelRows:
    """Acceleration-level rows grad @ qdd >= rhs for the torque QP, as one block.

    Row i is the extended barrier of the barrier row ``keys[i]`` = (kind,
    pair), whose value is h_e[i].
    """

    keys: list[tuple[BarrierKind, str]]
    grad: np.ndarray          # (m, n_dof)
    rhs: np.ndarray           # (m,)
    h_e: np.ndarray           # (m,)


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
    points (``geometry._pair_curvature``, ``geometry._workspace_curvature``);
    a world body moves at the estimated velocity its row's drift uses, with no
    acceleration.  Joint-limit rows have constant gradients and c = 0.
    """
    qd = state.qd.tolist()
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
            curvature.append(_pair_curvature(fk, rates, witness.body_a, witness.body_b,
                                             witness.proximity, witness.velocity_b))
    alpha = rows.alpha
    h_dot = rows.grad @ state.qd - rows.drift
    h_e = h_dot + alpha * rows.h
    return AccelRows(keys=rows.keys, grad=rows.grad,
                     rhs=-alpha * h_e - np.array(curvature) - alpha * h_dot, h_e=h_e)
