"""Barrier-constraint catalog and the robust velocity-level safety filter.

Each barrier h contributes one linear row in joint velocity,

    grad(h) qd  >=  drift - alpha h + (1/eps) ||grad(h)||^2,

a robustness-margin variant of the barrier condition hd >= -alpha h: the
quadratic gradient term buys back safety under a bounded mismatch d between
commanded and realized joint velocity, while eps = inf recovers the plain
condition.  Four constraint families are produced: joint limits (unit
gradients, so the margin reduces to 1/eps exactly), self-collision pairs,
object-collision pairs (whose right-hand side carries the obstacle-velocity
drift term), and workspace distance bounds.

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

import numpy as np

from .geometry import (
    CollisionBody,
    DegenerateWitnessError,
    body_pair_barrier,
    workspace_barrier,
)
from .model import FkResult, JointState, RobotModel, _xyz, forward_kinematics
from .qpsolver import QpProblem, QpSolver

log = logging.getLogger(__name__)

DEFAULT_ACTIVATION_DISTANCE = 0.3
DEFAULT_SLACK_WEIGHT = 1e6
ECBF_FD_STEP = 1e-6


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
class BarrierConstraint:
    """One safety row: value, configuration gradient, parameters, provenance."""

    kind: BarrierKind
    pair: str
    h: float
    grad: np.ndarray
    alpha: float
    epsilon: float            # > 0, or inf for the plain barrier condition
    drift: float = 0.0        # rhs offset (obstacle-velocity term)
    # Body pair or WorkspacePair the row was evaluated from; None for joint limits.
    geometry: tuple[CollisionBody, CollisionBody] | WorkspacePair | None = field(
        default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.alpha <= 0.0:
            raise ValueError(f"{self.pair}: alpha must be > 0")
        if self.epsilon <= 0.0:
            raise ValueError(f"{self.pair}: epsilon must be > 0 (or inf)")
        if not np.isfinite(self.grad).all():
            raise ValueError(f"{self.pair}: non-finite gradient")

    def margin(self, epsilon: float | None = None) -> float:
        eps = self.epsilon if epsilon is None else epsilon
        if math.isinf(eps):
            return 0.0
        return float(self.grad @ self.grad) / eps

    def rhs(self, plain_cbf: bool = False) -> float:
        """Right-hand side of grad . qd >= rhs."""
        margin = 0.0 if plain_cbf else self.margin()
        return self.drift - self.alpha * self.h + margin


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
class WorkspacePair:
    name: str
    link_a: int
    point_a: np.ndarray
    link_b: int
    point_b: np.ndarray
    d_max: float


def collect_constraints(
    model: RobotModel,
    state: JointState,
    obstacles: list[Obstacle],
    config: FilterConfig,
    pairs: list[tuple[CollisionBody, CollisionBody]],
    workspace_pairs: list[WorkspacePair] = (),
    fk: FkResult | None = None,
) -> list[BarrierConstraint]:
    """Assemble the barrier rows for the current state.

    Joint-limit and workspace rows are always emitted; collision rows only
    inside the activation distance.  Rows with a degenerate (coincident-
    witness) gradient are dropped for this cycle with a logged event.
    """
    state.validate(model.n_dof)
    q = state.q
    n = model.n_dof
    if fk is None:
        fk = forward_kinematics(model, q)
    rows: list[BarrierConstraint] = []

    for i, joint in enumerate(model.joints):
        grad = np.zeros(n)
        grad[i] = 1.0
        rows.append(
            BarrierConstraint(
                kind=BarrierKind.JOINT_LIMIT_MIN,
                pair=f"q{i}",
                h=float(q[i] - joint.q_min),
                grad=grad,
                alpha=config.alpha[BarrierKind.JOINT_LIMIT_MIN],
                epsilon=config.epsilon[BarrierKind.JOINT_LIMIT_MIN],
            )
        )
        rows.append(
            BarrierConstraint(
                kind=BarrierKind.JOINT_LIMIT_MAX,
                pair=f"q{i}",
                h=float(joint.q_max - q[i]),
                grad=-grad,
                alpha=config.alpha[BarrierKind.JOINT_LIMIT_MAX],
                epsilon=config.epsilon[BarrierKind.JOINT_LIMIT_MAX],
            )
        )

    for body_a, body_b in pairs:
        try:
            h, grad, _ = body_pair_barrier(model, q, body_a, body_b, fk=fk)
        except DegenerateWitnessError as exc:
            log.warning("dropping self-collision row: %s", exc)
            continue
        if h > config.activation_distance:
            continue
        rows.append(
            BarrierConstraint(
                kind=BarrierKind.SELF_COLLISION,
                pair=f"{body_a.name}|{body_b.name}",
                h=h,
                grad=grad,
                alpha=config.alpha[BarrierKind.SELF_COLLISION],
                epsilon=config.epsilon[BarrierKind.SELF_COLLISION],
                geometry=(body_a, body_b),
            )
        )

    for obstacle in obstacles:
        vx, vy, vz = _xyz(obstacle.velocity)
        for body in model.collision_bodies:
            try:
                h, grad, prox = body_pair_barrier(model, q, body, obstacle.body, fk=fk)
            except DegenerateWitnessError as exc:
                log.warning("dropping object-collision row: %s", exc)
                continue
            if h > config.activation_distance:
                continue
            nx, ny, nz = prox.normal
            drift = nx * vx + ny * vy + nz * vz
            rows.append(
                BarrierConstraint(
                    kind=BarrierKind.OBJECT_COLLISION,
                    pair=f"{body.name}|{obstacle.body.name}",
                    h=h,
                    grad=grad,
                    alpha=config.alpha[BarrierKind.OBJECT_COLLISION],
                    epsilon=config.epsilon[BarrierKind.OBJECT_COLLISION],
                    drift=drift,
                    geometry=(body, obstacle.body),
                )
            )

    for pair in workspace_pairs:
        h, grad = workspace_barrier(
            model, q, (pair.link_a, pair.point_a), (pair.link_b, pair.point_b),
            pair.d_max, fk=fk,
        )
        rows.append(
            BarrierConstraint(
                kind=BarrierKind.WORKSPACE,
                pair=pair.name,
                h=h,
                grad=grad,
                alpha=config.alpha[BarrierKind.WORKSPACE],
                epsilon=config.epsilon[BarrierKind.WORKSPACE],
                geometry=pair,
            )
        )
    return rows


@dataclass(frozen=True)
class FilterResult:
    qdot_safe: np.ndarray
    status: str                  # "passthrough" | "optimal" | "relaxed"
    iterations: int
    relaxed: bool


def filter_velocity(
    qdot_des: np.ndarray,
    constraints: list[BarrierConstraint],
    config: FilterConfig,
    solver: QpSolver,
    warm_start: np.ndarray | None = None,
) -> FilterResult:
    """Minimally invasive projection of qd_des onto the constraint rows."""
    n = qdot_des.shape[0]
    if config.mode in (FilterMode.WITHOUT_CBF, FilterMode.ECBF) or not constraints:
        return FilterResult(qdot_safe=qdot_des, status="passthrough", iterations=0, relaxed=False)

    plain = config.mode is FilterMode.CBF
    A = np.array([c.grad for c in constraints])
    b = np.array([c.rhs(plain_cbf=plain) for c in constraints])
    problem = QpProblem(H=2.0 * np.eye(n), g=-2.0 * qdot_des, A_ineq=A, b_ineq=b)
    sol = solver.solve(problem, warm_start=warm_start)
    if sol.optimal:
        return FilterResult(
            qdot_safe=sol.x, status="optimal", iterations=sol.iterations, relaxed=False,
        )

    if config.slack_policy == "hard-fail":
        raise FilterInfeasibleError(
            f"safety filter QP {sol.status.value} with {len(constraints)} rows"
        )

    # One shared slack per constraint kind present; heavily weighted, logged,
    # and flagged: relaxed rows no longer guarantee safety.
    kinds = sorted({c.kind for c in constraints}, key=lambda k: k.value)
    kind_col = {kind: n + j for j, kind in enumerate(kinds)}
    ns = n + len(kinds)
    H = np.zeros((ns, ns))
    H[:n, :n] = 2.0 * np.eye(n)
    g = np.zeros(ns)
    g[:n] = -2.0 * qdot_des
    for j in range(len(kinds)):
        H[n + j, n + j] = 2.0 * config.slack_weight
    A_s = np.zeros((len(constraints) + len(kinds), ns))
    b_s = np.zeros(len(constraints) + len(kinds))
    for i, c in enumerate(constraints):
        A_s[i, :n] = c.grad
        A_s[i, kind_col[c.kind]] = 1.0
        b_s[i] = b[i]
    for j in range(len(kinds)):
        A_s[len(constraints) + j, n + j] = 1.0  # slack >= 0
    relaxed_sol = solver.solve(QpProblem(H=H, g=g, A_ineq=A_s, b_ineq=b_s))
    if not relaxed_sol.optimal:
        raise FilterInfeasibleError("safety filter QP infeasible even with slack relaxation")
    slacks = relaxed_sol.x[n:]
    log.warning(
        "safety filter relaxed (safety not guaranteed): slack per kind %s",
        {k.value: float(s) for k, s in zip(kinds, slacks)},
    )
    return FilterResult(
        qdot_safe=relaxed_sol.x[:n], status="relaxed",
        iterations=sol.iterations + relaxed_sol.iterations, relaxed=True,
    )


@dataclass(frozen=True)
class AccelConstraint:
    """Acceleration-level row grad . qdd >= rhs for the torque-level QP."""

    kind: BarrierKind
    pair: str
    grad: np.ndarray
    rhs: float
    h_e: float


JOINT_LIMIT_KINDS = (BarrierKind.JOINT_LIMIT_MIN, BarrierKind.JOINT_LIMIT_MAX)


def _gradient_at(
    model: RobotModel, q: np.ndarray, fk: FkResult, row: BarrierConstraint
) -> np.ndarray | None:
    """Gradient of a geometric row's barrier at configuration q (None if undefined)."""
    geometry = row.geometry
    if isinstance(geometry, WorkspacePair):
        return workspace_barrier(
            model, q, (geometry.link_a, geometry.point_a),
            (geometry.link_b, geometry.point_b), geometry.d_max, fk=fk,
        )[1]
    try:
        return body_pair_barrier(model, q, *geometry, fk=fk)[1]
    except DegenerateWitnessError:
        return None


def ecbf_rows(
    model: RobotModel,
    state: JointState,
    rows: list[BarrierConstraint],
) -> list[AccelConstraint]:
    """Extended-barrier rows h_e = hd + alpha h enforced as hd_e >= -alpha h_e.

    ``rows`` are this cycle's barrier rows, as collect_constraints returned
    them for ``state``; one eCBF row is built from each, with that row's own
    alpha.  The gradient's configuration derivative (the curvature term of
    hd_e) is obtained from central finite differences of grad(h) along the
    current velocity direction: one forward-kinematics pass per probe,
    re-posing only the given rows' geometry.  Joint-limit rows have constant
    gradients and skip it; a row whose gradient is undefined at a probe is
    dropped with a logged event.
    """
    qd = state.qd
    speed = float(np.linalg.norm(qd))
    probes: list[tuple[np.ndarray, FkResult]] = []
    if speed > 0.0 and any(c.kind not in JOINT_LIMIT_KINDS for c in rows):
        step = ECBF_FD_STEP * (qd / speed)
        probes = [(q, forward_kinematics(model, q)) for q in (state.q + step, state.q - step)]

    out: list[AccelConstraint] = []
    for c in rows:
        if c.kind in JOINT_LIMIT_KINDS or speed == 0.0:
            curvature = 0.0
        else:
            grad_plus, grad_minus = (_gradient_at(model, q, fk, c) for q, fk in probes)
            if grad_plus is None or grad_minus is None:
                log.warning("dropping eCBF row %s: gradient probe failed", c.pair)
                continue
            dgrad_dt = (grad_plus - grad_minus) / (2.0 * ECBF_FD_STEP) * speed
            curvature = float(dgrad_dt @ qd)
        h_dot = float(c.grad @ qd) - c.drift
        h_e = h_dot + c.alpha * c.h
        rhs = -c.alpha * h_e - curvature - c.alpha * h_dot
        out.append(AccelConstraint(kind=c.kind, pair=c.pair, grad=c.grad, rhs=rhs, h_e=h_e))
    return out
