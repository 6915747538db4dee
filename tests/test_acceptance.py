"""Acceptance gate: each numbered criterion re-runs its scenario end to
end at the stated tolerance and prints one ``PASS criterion N:`` line.

Run ``pytest tests/test_acceptance.py -s`` to see the PASS lines inline.
"""
from __future__ import annotations

import json
import math
import time

import numpy as np

import noc.geometry as gm
from noc.cli import main
from noc.cones import (Ball, Box, adjacent_cone_member, lift_sigma,
                       oracle_verdict, second_adjacent_member,
                       second_cone_vrep, tangent_cone_vrep)
from noc.conditions import refute_optimality, verify_singular_direction
from noc.dynamics import (dynamics_from_expressions, expansion_residual,
                          hamiltonian_blocks, integrate_adjoint,
                          integrate_state, integrate_variational,
                          make_problem, trapezoid_cellwise)
from noc.optproblem import (build_separation, make_opt_problem,
                            op_bruteforce, op_first_order, op_second_order,
                            opt_scalar_from_expression)

from _probes import generate_probes
from _problems import (ccs126_nominal_controls, linear_endpoint,
                       make_ccs126, make_flat_nonlinear, wiggly_controls)

SWEEP_T = np.linspace(0.1, 0.7, 13)
SWEEP_THETA = (2.5, 3.0, 4.0)


def _closed_form_lhs(T: float, theta: float) -> float:
    return T * (-T * T / 3.0 + 2.5 * T + theta - 2.0)


# ----------------------------------------------------------------------------
# criterion 1: worked counterexample end-to-end
# ----------------------------------------------------------------------------

def test_criterion_1_counterexample_end_to_end(tmp_path, capsys):
    report_path = str(tmp_path / "report.json")
    started = time.perf_counter()
    code = main(["check", "preset:ccs126", "--report", report_path])
    elapsed = time.perf_counter() - started
    capsys.readouterr()

    assert code == 3
    report = json.load(open(report_path))
    assert report["verdict"] == "refuted"
    grid = report["grid"]
    assert grid["cells"] == 1000 and grid["horizon"] == 0.5

    T, theta = 0.5, 3.0
    ray = np.array([-1.0, -(6.0 * T - T * T), 1.0])
    ray /= np.max(np.abs(ray))
    assert len(report["multipliers"]) == 1
    np.testing.assert_allclose(report["multipliers"][0]["weights"], ray,
                               atol=1e-6)

    lhs = report["second_order"]["chosen_lhs"]
    formula = _closed_form_lhs(T, theta)
    assert abs(formula - 1.083333) < 5e-7
    assert abs(lhs - formula) < 1e-3
    assert elapsed < 5.0

    print(f"PASS criterion 1: refuted with ray {ray.tolist()}, "
          f"quadratic value {lhs:.6f} vs formula {formula:.6f}, "
          f"{elapsed:.2f}s single-threaded")


# ----------------------------------------------------------------------------
# criterion 2: sweep matches the closed form everywhere
# ----------------------------------------------------------------------------

def test_criterion_2_sweep_matches_closed_form(tmp_path, capsys):
    out = str(tmp_path / "table.csv")
    code = main(["sweep", "preset:ccs126", "--grid", "400",
                 "--param", "T=0.1:0.7:13", "--param", "theta=2.5,3,4",
                 "--out", out])
    capsys.readouterr()
    assert code == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "T,theta,verdict,lhs,notes"
    assert len(lines) == 1 + 13 * 3

    worst = 0.0
    for line in lines[1:]:
        t_s, theta_s, verdict, lhs_s, _ = line.split(",")
        T, theta, lhs = float(t_s), float(theta_s), float(lhs_s)
        assert verdict == "refuted"
        worst = max(worst, abs(lhs - _closed_form_lhs(T, theta)))
    assert worst < 1e-3

    print(f"PASS criterion 2: 39/39 sweep points refuted, worst formula "
          f"deviation {worst:.2e} < 1e-3")


# ----------------------------------------------------------------------------
# criterion 3: cone suite (500 decisive probes + worked instances)
# ----------------------------------------------------------------------------

def test_criterion_3_cone_suite():
    probes = generate_probes(seed=97531, count=500)
    assert len(probes) == 500
    for U, cert in probes:
        assert abs(cert.margin) > 1e-2
        want = "member" if cert.member else "non-member"
        got = oracle_verdict(cert.oracle_residuals)
        assert got == want, (U, cert.point, cert.direction, cert.margin)

    # worked instances at the disc's bottom point: the first-order cone is
    # the closed upper half-plane; after the horizontal direction the
    # second-order set is the half-plane of vectors with second
    # component >= 1/2
    disc = Ball(center=(0.0, 0.0), radius=1.0)
    u = np.array([0.0, -1.0])
    vrep = tangent_cone_vrep(disc, u)
    np.testing.assert_allclose(vrep.rays[0], [0.0, 1.0], atol=1e-12)
    assert abs(abs(vrep.lineality[0][0]) - 1.0) < 1e-12
    assert adjacent_cone_member(disc, u, [0.7, 0.0]).member
    assert adjacent_cone_member(disc, u, [0.3, 1.1]).member
    assert not adjacent_cone_member(disc, u, [0.0, -0.2]).member

    p0, _ = second_cone_vrep(disc, u, [1.0, 0.0])
    np.testing.assert_allclose(p0, [0.0, 0.5], atol=1e-14)
    assert second_adjacent_member(disc, u, [1.0, 0.0], [0.0, 0.5]).member
    assert second_adjacent_member(disc, u, [1.0, 0.0], [0.3, 0.8]).member
    assert not second_adjacent_member(disc, u, [1.0, 0.0], [0.0, 0.49]).member

    print("PASS criterion 3: 500 decisive probes agree with the sequence "
          "oracle; half-plane and second-component >= 1/2 instances exact")


# ----------------------------------------------------------------------------
# criterion 4: second-order expansion of the perturbed flow
# ----------------------------------------------------------------------------

def test_criterion_4_expansion_order():
    eps_list = [0.1, 0.05, 0.025]

    # (a) the counterexample, with the curvature-compensating lift keeping
    # perturbed controls inside the disc
    problem = make_ccs126(horizon=0.5, theta=3.0)
    N = 256
    traj = integrate_state(problem, [1.0, 0.0], ccs126_nominal_controls(N))
    v = np.tile([1.0, 0.0], (N, 1))
    sig = np.tile([0.0, 0.5], (N, 1))
    X = integrate_variational(problem, traj, v, np.zeros(2))

    def family(eps):
        return lift_sigma(problem.control_set, traj.controls, v, sig, eps)

    out = expansion_residual(problem, traj, v, X, family, np.zeros(2),
                             eps_list)
    r_ccs = [res / eps ** 2 for eps, res in out]
    assert r_ccs[0] > r_ccs[1] > r_ccs[2]

    # (b) a Euclidean toy, nonlinear in both state and control
    problem = make_flat_nonlinear()
    N = 128
    traj = integrate_state(problem, [0.3, -0.2], wiggly_controls(N))
    rng = np.random.default_rng(4)
    v = 0.5 * rng.normal(size=(N, 2))
    sig = 0.5 * rng.normal(size=(N, 2))
    X = integrate_variational(problem, traj, v, rng.normal(size=2))
    out = expansion_residual(problem, traj, v, X, sig, rng.normal(size=2),
                             eps_list)
    r_toy = [res / eps ** 2 for eps, res in out]
    assert r_toy[0] > r_toy[1] > r_toy[2]

    # (c) an exactly-quadratic Euclidean flow: the residual vanishes
    dyn = dynamics_from_expressions(("u1", "y1^2"), 2, 1)
    problem = make_problem(gm.euclidean(2), 1.0, dyn,
                           linear_endpoint((0.0, 0.0), (0.0, 1.0)))
    N = 64
    traj = integrate_state(problem, [0.3, 0.0], wiggly_controls(N, 0.5, m=1))
    rng = np.random.default_rng(19)
    v = rng.normal(size=(N, 1))
    X = integrate_variational(problem, traj, v, rng.normal(size=2))
    out = expansion_residual(problem, traj, v, X, np.zeros((N, 1)),
                             np.zeros(2), eps_list)
    worst = max(res for _, res in out)
    assert worst <= 1e-9

    print(f"PASS criterion 4: residual/eps^2 ladders {np.round(r_ccs, 5)} "
          f"and {np.round(r_toy, 5)} decrease; exactly-quadratic residual "
          f"{worst:.2e} <= 1e-9")


# ----------------------------------------------------------------------------
# criterion 5: discrete duality identity on random problems
# ----------------------------------------------------------------------------

def _random_duality_defect(seed: int, num_cells: int) -> float:
    rng = np.random.default_rng(seed)
    c = np.round(rng.uniform(-0.6, 0.6, 4), 3)
    if seed % 2 == 0:
        chart = gm.euclidean(2)
        texts = (f"({c[0]})*y2 + u1 + ({c[1]})*y1*y2",
                 f"({c[2]})*sin(y1) + u2 + ({c[3]})*y1")
        y0 = rng.uniform(-0.5, 0.5, 2)
    else:
        chart = gm.sphere(1.0)
        texts = (f"({c[0]})*y2 + u1 + ({c[1]})*y1*y2",
                 f"({c[2]})*y1 + u2 + ({c[3]})*y2^2")
        y0 = rng.uniform(-0.3, 0.3, 2)
    dyn = dynamics_from_expressions(texts, 2, 2)
    w = np.round(rng.uniform(-1.0, 1.0, 4), 3)
    cost = linear_endpoint(w[:2], w[2:])
    problem = make_problem(chart, 0.5, dyn, cost, probe_base=y0)

    u = 0.1 * rng.normal(size=(num_cells, 2))
    v = 0.2 * rng.normal(size=(num_cells, 2))
    X0 = 0.3 * rng.normal(size=2)
    ell = np.array([rng.uniform(0.2, 1.0)])

    traj = integrate_state(problem, y0, u)
    X = integrate_variational(problem, traj, v, X0)
    p = integrate_adjoint(problem, traj, ell)
    left = np.empty(num_cells)
    right = np.empty(num_cells)
    for i in range(num_cells):
        bl = hamiltonian_blocks(problem, traj.grid[i], traj.states[i],
                                p.values[i], u[i])
        br = hamiltonian_blocks(problem, traj.grid[i + 1],
                                traj.states[i + 1], p.values[i + 1], u[i])
        left[i] = bl["hu"] @ v[i]
        right[i] = br["hu"] @ v[i]
    integral = trapezoid_cellwise(traj.grid, left, right)
    boundary = (p.values[-1] @ X.values[-1]) - (p.values[0] @ X.values[0])
    return abs(boundary - integral)


def test_criterion_5_duality_identity():
    defects = [_random_duality_defect(seed, num_cells=2000)
               for seed in range(20)]
    worst = max(defects)
    assert worst <= 1e-6
    print(f"PASS criterion 5: duality defect <= {worst:.2e} over 20 random "
          f"problems (flat and spherical charts) at N=2000")


# ----------------------------------------------------------------------------
# criterion 6: geometry suite
# ----------------------------------------------------------------------------

def test_criterion_6_geometry_suite():
    rng = np.random.default_rng(606)

    # parallel transport preserves norms along geodesics on every chart kind
    charts = [gm.euclidean(3), gm.sphere(1.0), gm.sphere(1.0, coords="polar"),
              gm.hyperbolic(1.0, dim=2)]
    points = [rng.uniform(-1.0, 1.0, 3), rng.uniform(-0.5, 0.5, 2),
              np.array([1.1, 0.4]), np.array([0.3, 1.2])]
    for chart, x in zip(charts, points):
        w = rng.standard_normal(chart.dim)
        w *= 0.3 / gm.norm(chart, gm.TangentVector(base=x, components=w))
        curve = np.array([gm.exp_map(chart, x, t * w)
                          for t in np.linspace(0.0, 1.0, 64)])
        v = rng.standard_normal(chart.dim)
        out = gm.parallel_transport(chart, curve, v)
        n0 = gm.norm(chart, gm.TangentVector(base=x, components=v))
        n1 = gm.norm(chart, out)
        assert abs(n1 - n0) <= 1e-8 * (1.0 + n0)

    # unit sphere has constant sectional curvature one
    for x in ([0.0, 0.0], [0.3, -0.2], [0.5, 0.4]):
        K = gm.sectional_curvature(gm.sphere(1.0), x, [1.0, 0.2], [0.1, 1.0])
        assert abs(K - 1.0) < 1e-6

    # transporting around a latitude loop rotates by 2 pi cos(theta0)
    theta0 = 1.2
    s = np.linspace(0.0, 2.0 * math.pi, 4097)
    curve = np.column_stack([np.full_like(s, theta0), s])
    polar = gm.sphere(1.0, coords="polar")
    v0 = np.array([1.0, 0.0])
    out = gm.parallel_transport(polar, curve, v0)
    g = gm.metric(polar, curve[-1])
    cosang = v0 @ g @ out.components / math.sqrt(
        (v0 @ g @ v0) * (out.components @ g @ out.components))
    angle = math.acos(float(np.clip(cosang, -1.0, 1.0)))
    holonomy_err = abs(angle - 2.0 * math.pi * math.cos(theta0))
    assert holonomy_err < 1e-4

    # Euclidean charts reduce to plain vector arithmetic
    e3 = gm.euclidean(3)
    x, v = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
    np.testing.assert_allclose(gm.exp_map(e3, x, v), x + v, atol=1e-12)
    assert np.max(np.abs(gm.christoffel(e3, x))) <= 1e-12
    line = x + np.linspace(0.0, 1.0, 16)[:, None] * v
    out = gm.parallel_transport(e3, line, v)
    np.testing.assert_allclose(out.components, v, atol=1e-12)

    # the curvature addend of the quadratic form vanishes on flat runs
    problem = make_ccs126()
    N = 200
    traj = integrate_state(problem, [1.0, 0.0], ccs126_nominal_controls(N))
    direction = verify_singular_direction(problem, traj,
                                          np.tile([1.0, 0.0], (N, 1)))
    cert = refute_optimality(problem, traj, direction)
    curvature_term = abs(cert.chosen_terms["curvature"])
    assert curvature_term < 1e-12

    print(f"PASS criterion 6: transport isometric to 1e-8, sphere curvature "
          f"1 +/- 1e-6, holonomy error {holonomy_err:.2e} < 1e-4, flat "
          f"reduction exact, flat curvature addend {curvature_term:.1e}")


# ----------------------------------------------------------------------------
# criterion 7: finite-dimensional checks against the exhaustive grid
# ----------------------------------------------------------------------------

def _disc_problem(cost_text: str = "x1 + 1"):
    return make_opt_problem(Ball(center=(0.0, 0.0), radius=1.0),
                            opt_scalar_from_expression(cost_text, 2,
                                                       label="cost"))


def test_criterion_7_op_oracles():
    # (a) linear cost over the unit ball at the true minimizer: both
    # multiplier tests pass and the grid confirms
    disc = _disc_problem()
    point = np.array([-1.0, 0.0])
    rays = op_first_order(disc, point)
    assert len(rays) == 1
    second = op_second_order(disc, point, [0.0, 1.0])
    assert not second.refuted
    bf = op_bruteforce(disc, point, 1e-3)
    assert bf.verdict == "confirmed"

    sep = build_separation(disc, point, [0.0, 1.0], num_samples=10 ** 4)
    assert sep.separator is not None
    assert sep.max_kappa_pairing <= 1e-9

    # (b) tilting the cost breaks first-order necessity; the grid agrees
    tilted = _disc_problem("x1 + 0.1*x2")
    assert op_first_order(tilted, point) == []
    bf_tilted = op_bruteforce(tilted, point, 1e-3)
    assert bf_tilted.verdict == "refuted"
    assert bf_tilted.best_value < bf_tilted.reference_value - bf_tilted.slack

    # (c) minimizing height on a downward parabola passes first order but
    # fails second order along the sideways direction; the grid agrees
    parabola = make_opt_problem(
        Box(lower=(-1.0, -1.0), upper=(1.0, 1.0)),
        opt_scalar_from_expression("x2", 2, label="cost"),
        equalities=[opt_scalar_from_expression("x2 + x1^2", 2,
                                               label="constraint")])
    origin = np.zeros(2)
    assert len(op_first_order(parabola, origin)) == 1
    second_par = op_second_order(parabola, origin, [1.0, 0.0])
    assert second_par.refuted
    bf_par = op_bruteforce(parabola, origin, 1e-3)
    assert bf_par.verdict == "refuted"

    print(f"PASS criterion 7: ball/tilted/parabola verdicts all agree with "
          f"the 1e-3 grid search; separation pairing max "
          f"{sep.max_kappa_pairing:.2e} <= 0 over 10^4 samples")


# ----------------------------------------------------------------------------
# criterion 8: refuted verdicts confirmed by coarse control search
# ----------------------------------------------------------------------------

def _coarse_control_search(T: float, theta: float, steps: int = 128):
    """Independent check that the nominal control is beatable: integrate a
    small net of constant controls on the disc boundary with a local RK4
    and compare endpoint costs. Feasibility is automatic (the only
    constraint rows pin the fixed start point)."""
    angles = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    candidates = np.vstack([np.zeros((1, 2)),
                            np.column_stack([np.sin(angles),
                                             -np.cos(angles)])])

    def rhs(y, u):
        return np.column_stack([
            u[:, 1],
            -y[:, 0] ** 2 + 4.0 * y[:, 0] * u[:, 1] - theta * u[:, 0] ** 2,
        ])

    y = np.tile([1.0, 0.0], (candidates.shape[0], 1))
    h = T / steps
    for _ in range(steps):
        k1 = rhs(y, candidates)
        k2 = rhs(y + 0.5 * h * k1, candidates)
        k3 = rhs(y + 0.5 * h * k2, candidates)
        k4 = rhs(y + h * k3, candidates)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    costs = y[:, 1]
    nominal = costs[1]  # angle 0 is the nominal control (0, -1)
    best = int(np.argmin(costs))
    return nominal, float(costs[best]), candidates[best]


def test_criterion_8_refutations_confirmed_by_control_search():
    cells = {(0.5, 3.0)}
    cells.update((round(float(t), 10), th) for t in SWEEP_T
                 for th in SWEEP_THETA)

    worst_gap = np.inf
    for T, theta in sorted(cells):
        nominal, best, u_best = _coarse_control_search(T, theta)
        gap = nominal - best
        worst_gap = min(worst_gap, gap)
        assert gap > 1e-3, (T, theta, gap)

    # couple the independent integrator back to the library on one cell:
    # the winning constant control must beat the nominal cost there too
    problem = make_ccs126(horizon=0.5, theta=3.0)
    _, best, u_best = _coarse_control_search(0.5, 3.0)
    N = 400
    traj = integrate_state(problem, [1.0, 0.0], np.tile(u_best, (N, 1)))
    for row in problem.equality_maps:
        assert abs(row.value(traj.states[0], traj.states[-1])) < 1e-12
    lib_best = problem.cost.value(traj.states[0], traj.states[-1])
    assert abs(lib_best - best) < 1e-6
    nominal_traj = integrate_state(problem, [1.0, 0.0],
                                   ccs126_nominal_controls(N))
    lib_nominal = problem.cost.value(nominal_traj.states[0],
                                     nominal_traj.states[-1])
    assert lib_best < lib_nominal - 1e-3

    print(f"PASS criterion 8: all {len(cells)} refuted cells admit a "
          f"strictly better feasible control (worst improvement "
          f"{worst_gap:.3f} > 1e-3), cross-checked against the library "
          f"integrator")
