import itertools
from dataclasses import replace

import numpy as np
import pytest

from issf_wbc._fastdyn import joint_dynamics
from issf_wbc.model import JointSpec, LinkSpec, RobotModel
from issf_wbc.qpsolver import QpProblem

import qp_oracle


def dynamics_arrays(model: RobotModel, q, qd, gravity) -> tuple[np.ndarray, np.ndarray]:
    """``joint_dynamics`` on array inputs, with M and h returned as arrays."""
    mass, bias = joint_dynamics(model, *(np.asarray(x, dtype=float).tolist()
                                         for x in (q, qd, gravity)))
    return np.array(mass), np.array(bias)


# The dynamics kernel against the world-frame loops of the oracles: the
# largest difference of an entry of M or h, over max(1, largest |entry|).
DYNAMICS_RTOL = 1e-12


def assert_dynamics_agree(got, expected, label: str = "") -> None:
    """(M, h) ``got`` agrees with ``expected`` to ``DYNAMICS_RTOL``."""
    got, expected = (np.concatenate([np.ravel(np.asarray(x, dtype=float)) for x in pair])
                     for pair in (got, expected))
    scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
    assert got.shape == expected.shape, label
    assert np.abs(got - expected).max(initial=0.0) <= DYNAMICS_RTOL * scale, label


def random_chain(rng: np.random.Generator, n: int, planar: bool = False) -> RobotModel:
    """Random serial chain with valid inertias; planar=True keeps all axes +y."""
    links, joints = [], []
    for i in range(n):
        if planar:
            axis = np.array([0.0, 1.0, 0.0])
        else:
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
        a = rng.normal(size=(3, 3)) * 0.05
        links.append(LinkSpec(
            mass=float(rng.uniform(0.4, 3.0)),
            com=rng.uniform(-0.2, 0.2, 3),
            inertia=a @ a.T + np.eye(3) * 0.01,
            parent=i - 1,
            origin_xyz=rng.uniform(-0.35, 0.35, 3),
            origin_rpy=rng.uniform(-1.0, 1.0, 3) if not planar else np.zeros(3),
        ))
        joints.append(JointSpec(axis=axis))
    return RobotModel(f"chain{n}", tuple(links), tuple(joints))


def near_identity_chain(rng: np.random.Generator) -> RobotModel:
    """4-link planar chain whose origin rotations are 5e-9 rad off the identity."""
    chain = random_chain(rng, 4, planar=True)
    links = tuple(replace(link, origin_rpy=np.array([5e-9, 0.0, 5e-9]))
                  for link in chain.links)
    return replace(chain, links=links)


def two_link_planar(l1: float = 0.31, l2: float = 0.31, bodies=()) -> RobotModel:
    link = lambda L, parent: LinkSpec(
        mass=1.0, com=np.array([-L / 2, 0.0, 0.0]), inertia=np.eye(3) * 1e-3,
        parent=parent, origin_xyz=np.array([L, 0.0, 0.0]),
    )
    joint = JointSpec(axis=np.array([0.0, 0.0, 1.0]))
    return RobotModel("two", (link(l1, -1), link(l2, 0)), (joint, joint),
                      collision_bodies=tuple(bodies))


def enumerate_qp(problem: QpProblem, tol: float = 1e-9,
                 A_eq: np.ndarray | None = None, b_eq: np.ndarray | None = None):
    """Exhaustive active-set enumeration: solve every equality-constrained
    subproblem, keep the feasible candidate with the lowest objective.
    ``A_eq x = b_eq`` are extra equality rows held in every subproblem.
    Returns (objective, x) or None when no subset yields a feasible point."""
    n, m = problem.dims()
    H, g, b = qp_oracle.arrays(problem)
    A = problem.A_ineq if m else np.zeros((0, n))
    p = 0 if A_eq is None else A_eq.shape[0]
    Aeq = A_eq if p else np.zeros((0, n))
    beq = b_eq if p else np.zeros(0)
    best = None
    for k in range(0, min(m, n) + 1):
        for subset in itertools.combinations(range(m), k):
            rows = np.vstack([Aeq] + [A[i] for i in subset]) if (p or subset) else np.zeros((0, n))
            if rows.shape[0] and np.linalg.matrix_rank(rows) < rows.shape[0]:
                continue
            kk = rows.shape[0]
            kkt = np.zeros((n + kk, n + kk))
            kkt[:n, :n] = H
            kkt[:n, n:] = rows.T
            kkt[n:, :n] = rows
            rhs = np.concatenate([-g, beq, b[list(subset)]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            x = sol[:n]
            if m and np.min(A @ x - b) < -tol:
                continue
            if p and np.max(np.abs(Aeq @ x - beq)) > tol:
                continue
            f = 0.5 * float(x @ H @ x) + float(g @ x)
            if best is None or f < best[0] - 1e-12:
                best = (f, x)
    return best


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
