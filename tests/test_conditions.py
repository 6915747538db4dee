"""Necessary-condition pipeline: index sets, multiplier cone enumeration,
direction verification, second-order form, refutation search, and the
integral-cost augmentation. Expected values are hand-derived closed forms
(adjoints of small linear systems, polyhedral cones solved on paper)."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from noc.cones import Ball, Box
from noc.conditions import (active_sets, critical_sets,
                            default_sigma_candidates,
                            find_first_order_multipliers, mayer_augment,
                            refute_optimality, verify_singular_direction)
from noc.dynamics import (dynamics_from_expressions,
                          endpoint_from_expressions, integrate_state,
                          make_problem)
from noc.errors import (BoundNotVerified, ChartEscape, ConeViolation,
                        EndpointRowViolation, NoMultiplier, SigmaNotInB)
from noc.geometry import euclidean

from _problems import ccs126_nominal_controls, linear_endpoint, make_ccs126
from _reference import second_order_lhs, stationarity_residual

# ----------------------------------------------------------------------------
# shared fixtures (plain builders, matching the hand computations below)
# ----------------------------------------------------------------------------


def _ccs126_run(horizon=0.5, theta=3.0, cells=200):
    problem = make_ccs126(horizon=horizon, theta=theta)
    traj = integrate_state(problem, [1.0, 0.0], ccs126_nominal_controls(cells))
    return problem, traj


def _corner_box_problem(cells=50):
    """Planar integrator driven into the box corner (-1, -1), start pinned.

    Cost = yT1, inequality row yT2 (active: ends at 0). Multiplier cone was
    solved by hand: adjoints are constant unit covectors, the start-boundary
    rows read l0 = -l_eq1 and l1 = -l_eq2, and the corner's tangent-cone rows
    duplicate the sign rows; extreme rays (-1,0,1,0) and (0,-1,0,1).
    """
    dyn = dynamics_from_expressions(("u1", "u2"), 2, 2)
    cost = linear_endpoint((0.0, 0.0), (1.0, 0.0), label="end-first-coord")
    ineq = linear_endpoint((0.0, 0.0), (0.0, 1.0), label="end-second-coord")
    eqs = (linear_endpoint((1.0, 0.0), (0.0, 0.0), offset=-1.0, label="start-pin-1"),
           linear_endpoint((0.0, 1.0), (0.0, 0.0), offset=-1.0, label="start-pin-2"))
    problem = make_problem(euclidean(2), 1.0, dyn, cost, (ineq,), eqs,
                           control_set=Box(lower=(-1.0, -1.0), upper=(1.0, 1.0)))
    traj = integrate_state(problem, [1.0, 1.0], np.tile([-1.0, -1.0], (cells, 1)))
    return problem, traj


def _scalar_box_problem(nominal, cells=40):
    """One-state integrator, cost yT1, start pinned at 0, |u| <= 1."""
    dyn = dynamics_from_expressions(("u1",), 1, 1)
    cost = linear_endpoint((0.0,), (1.0,), label="terminal-state")
    pin = linear_endpoint((1.0,), (0.0,), label="start-pin")
    problem = make_problem(euclidean(1), 1.0, dyn, cost, (), (pin,),
                           control_set=Box(lower=(-1.0,), upper=(1.0,)))
    traj = integrate_state(problem, [0.0], np.full((cells, 1), float(nominal)))
    return problem, traj


# ----------------------------------------------------------------------------
# index sets
# ----------------------------------------------------------------------------


def test_active_sets_without_inequalities():
    problem, traj = _ccs126_run(cells=20)
    sets = active_sets(problem, traj)
    assert sets.active == frozenset({0})
    assert sets.inactive == frozenset()


def test_active_sets_classifies_rows():
    dyn = dynamics_from_expressions(("u1", "u2"), 2, 2)
    cost = linear_endpoint((0.0, 0.0), (1.0, 0.0))
    slack = endpoint_from_expressions("yT1 - 100", 2, label="far-slack")
    tight = endpoint_from_expressions("yT2 - 1", 2, label="tight")
    problem = make_problem(euclidean(2), 1.0, dyn, cost, (slack, tight), ())
    traj = integrate_state(problem, [0.0, 0.0], np.tile([0.0, 1.0], (20, 1)))
    sets = active_sets(problem, traj)
    assert sets.active == frozenset({0, 2})
    assert sets.inactive == frozenset({1})


# ----------------------------------------------------------------------------
# direction verification
# ----------------------------------------------------------------------------


def test_verify_direction_accepts_tangential_direction():
    problem, traj = _ccs126_run()
    v = np.tile([1.0, 0.0], (traj.num_cells, 1))
    direction = verify_singular_direction(problem, traj, v)
    assert np.max(np.abs(direction.field.values)) < 1e-14
    assert abs(direction.endpoint_rates[0]) < 1e-14
    assert np.max(np.abs(direction.equality_residuals)) < 1e-14


def test_verify_direction_rejects_outward_direction():
    problem, traj = _ccs126_run()
    v = np.tile([0.0, -1.0], (traj.num_cells, 1))
    with pytest.raises(ConeViolation) as info:
        verify_singular_direction(problem, traj, v)
    assert info.value.node == 0


def test_verify_direction_accepts_zero():
    problem, traj = _corner_box_problem()
    direction = verify_singular_direction(problem, traj,
                                          np.zeros((traj.num_cells, 2)))
    assert np.max(np.abs(direction.endpoint_rates)) == 0.0


def test_verify_direction_flags_equality_row():
    problem, traj = _corner_box_problem()
    v = np.zeros((traj.num_cells, 2))
    with pytest.raises(EndpointRowViolation) as info:
        verify_singular_direction(problem, traj, v, start_vector=[-1.0, 0.0])
    assert info.value.index == 2  # first equality row in the multiplier layout


def test_verify_direction_flags_increasing_cost_row():
    problem, traj = _scalar_box_problem(-1.0)
    v = np.full((traj.num_cells, 1), 1.0)  # pushes the terminal state up
    with pytest.raises(EndpointRowViolation) as info:
        verify_singular_direction(problem, traj, v)
    assert info.value.index == 0


def test_critical_sets_partition():
    problem, traj = _ccs126_run()
    v = np.tile([1.0, 0.0], (traj.num_cells, 1))
    direction = verify_singular_direction(problem, traj, v)
    sets = critical_sets(problem, traj, direction)
    assert sets.critical == frozenset({0})
    assert sets.relaxed == frozenset()


def test_critical_sets_strict_descent_relaxes_cost():
    # with the nominal control in the box interior the descent direction is
    # admissible, the cost strictly decreases, and the cost row drops out
    problem, traj = _scalar_box_problem(0.0)
    v = np.full((traj.num_cells, 1), -1.0)
    direction = verify_singular_direction(problem, traj, v)
    sets = critical_sets(problem, traj, direction)
    assert direction.endpoint_rates[0] < -1e-3
    assert sets.relaxed == frozenset({0})
    assert sets.critical == frozenset()


# ----------------------------------------------------------------------------
# multiplier cone
# ----------------------------------------------------------------------------


def test_multipliers_ccs126_unique_ray():
    problem, traj = _ccs126_run(horizon=0.5)
    rays = find_first_order_multipliers(problem, traj)
    assert len(rays) == 1
    scale = 6 * 0.5 - 0.5**2  # 2.75
    expected = np.array([-1.0, -scale, 1.0]) / scale
    np.testing.assert_allclose(rays[0].weights, expected, atol=1e-9)
    assert not rays[0].from_lineality


@pytest.mark.parametrize("horizon", [0.3, 0.7])
def test_multipliers_ccs126_ray_formula(horizon):
    problem, traj = _ccs126_run(horizon=horizon, cells=300)
    rays = find_first_order_multipliers(problem, traj)
    assert len(rays) == 1
    scale = 6 * horizon - horizon**2
    np.testing.assert_allclose(rays[0].weights,
                               np.array([-1.0, -scale, 1.0]) / scale, atol=1e-9)


def test_multipliers_scalar_bound_cases():
    # at the correct bound the cost ray survives; at the wrong bound the sign
    # row and the tangent-cone row clash and the cone is trivial
    problem, traj = _scalar_box_problem(-1.0)
    rays = find_first_order_multipliers(problem, traj)
    assert len(rays) == 1
    np.testing.assert_allclose(rays[0].weights, [-1.0, 1.0], atol=1e-10)
    problem, traj = _scalar_box_problem(1.0)
    assert find_first_order_multipliers(problem, traj) == []


def test_multipliers_interior_control_trivial_cone():
    problem, traj = _scalar_box_problem(0.0)
    assert find_first_order_multipliers(problem, traj) == []


def test_multipliers_two_ray_cone_and_conic_closure():
    problem, traj = _corner_box_problem()
    rays = find_first_order_multipliers(problem, traj)
    assert len(rays) == 2
    np.testing.assert_allclose(rays[0].weights, [-1.0, 0.0, 1.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(rays[1].weights, [0.0, -1.0, 0.0, 1.0], atol=1e-9)
    # direct check of the defining conditions on a strict conic combination
    from noc.dynamics import integrate_adjoint, lagrange_data

    combo = 0.3 * rays[0].weights + 1.7 * rays[1].weights
    p = integrate_adjoint(problem, traj, combo)
    data = lagrange_data(problem, traj.states[0], traj.states[-1], combo)
    assert np.max(np.abs(p.values[0] + data.grad_start)) < 1e-9
    assert combo[0] <= 0 and combo[1] <= 0
    fu = np.array([[1.0, 0.0], [0.0, 1.0]])
    for node in (0, traj.num_cells // 2, traj.num_cells):
        hu = fu.T @ p.values[node]
        for gen in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            assert hu @ gen <= 1e-9


def test_stationarity_residual_values():
    problem, traj = _ccs126_run()
    v_tan = np.tile([1.0, 0.0], (traj.num_cells, 1))
    direction = verify_singular_direction(problem, traj, v_tan)
    ray = find_first_order_multipliers(problem, traj)[0]
    assert stationarity_residual(problem, traj, ray, direction) <= 1e-10
    zero = verify_singular_direction(problem, traj,
                                     np.zeros((traj.num_cells, 2)))
    assert stationarity_residual(problem, traj, ray, zero) == 0.0
    # a direction with weight on the second control channel pairs with the
    # nonvanishing Hamiltonian gradient there; no such direction survives
    # endpoint verification (that is the content of the duality identity),
    # so swap the directions in on a verified carrier
    v_up = dataclasses.replace(
        direction, control_directions=np.tile([0.0, 1.0],
                                              (traj.num_cells, 1)))
    assert stationarity_residual(problem, traj, ray, v_up) > 0.3


# ----------------------------------------------------------------------------
# second-order form
# ----------------------------------------------------------------------------


def _lhs_formula(horizon, theta):
    return horizon * (-horizon**2 / 3.0 + 2.5 * horizon + theta - 2.0)


def test_second_order_lhs_matches_formula_precisely():
    problem, traj = _ccs126_run(horizon=0.5, theta=3.0, cells=1000)
    v = np.tile([1.0, 0.0], (traj.num_cells, 1))
    direction = verify_singular_direction(problem, traj, v)
    sigma = np.tile([0.0, 0.5], (traj.num_cells, 1))
    ell = np.array([-1.0, -2.75, 1.0])  # cost-normalized multiplier
    value, terms = second_order_lhs(problem, traj, ell, direction, sigma,
                                    with_terms=True)
    assert abs(value - _lhs_formula(0.5, 3.0)) < 1e-6
    assert abs(value - 1.0833333333333333) < 1e-6
    assert abs(terms["sigma_integral"] + 0.41666666666) < 1e-6
    assert abs(terms["control_control"] - 1.5) < 1e-6
    for name in ("state_state", "state_control", "curvature",
                 "start_start", "start_end", "end_end"):
        assert abs(terms[name]) < 1e-12


@pytest.mark.parametrize("horizon", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("theta", [2.5, 3.0, 4.0])
def test_second_order_lhs_formula_grid(horizon, theta):
    problem, traj = _ccs126_run(horizon=horizon, theta=theta, cells=400)
    v = np.tile([1.0, 0.0], (traj.num_cells, 1))
    direction = verify_singular_direction(problem, traj, v)
    sigma = np.tile([0.0, 0.5], (traj.num_cells, 1))
    scale = 6 * horizon - horizon**2
    ell = np.array([-1.0, -scale, 1.0])
    value = second_order_lhs(problem, traj, ell, direction, sigma)
    assert abs(value - _lhs_formula(horizon, theta)) < 1e-3


def test_second_order_lhs_rejects_sigma_outside_set():
    problem, traj = _ccs126_run()
    v = np.tile([1.0, 0.0], (traj.num_cells, 1))
    direction = verify_singular_direction(problem, traj, v)
    ell = np.array([-1.0, -2.75, 1.0])
    with pytest.raises(SigmaNotInB) as info:
        second_order_lhs(problem, traj, ell, direction,
                         np.zeros((traj.num_cells, 2)))
    assert info.value.node == 0
    with pytest.raises(SigmaNotInB):
        second_order_lhs(problem, traj, ell, direction,
                         np.tile([0.0, 0.4], (traj.num_cells, 1)))


def test_second_order_lhs_bound_precondition():
    problem, traj = _ccs126_run()
    # an outward direction makes dist(u + eps v, U)/eps^2 diverge; bypass the
    # direction verifier on purpose to exercise the guard, and check that it
    # fires before the acceleration-membership check
    v = np.tile([1.0, 0.0], (traj.num_cells, 1))
    carrier = verify_singular_direction(problem, traj, v)
    bad = dataclasses.replace(
        carrier, control_directions=np.tile([0.0, -1.0],
                                            (traj.num_cells, 1)))
    with pytest.raises(BoundNotVerified):
        second_order_lhs(problem, traj, np.array([-1.0, -2.75, 1.0]), bad,
                         np.zeros((traj.num_cells, 2)))


def test_second_order_lhs_linear_in_acceleration():
    problem, traj = _ccs126_run(cells=100)
    v = np.tile([1.0, 0.0], (traj.num_cells, 1))
    direction = verify_singular_direction(problem, traj, v)
    ell = np.array([-1.0, -2.75, 1.0])
    s1 = np.tile([0.0, 0.5], (traj.num_cells, 1))
    s2 = np.tile([0.0, 1.5], (traj.num_cells, 1))
    a = second_order_lhs(problem, traj, ell, direction, s1)
    b = second_order_lhs(problem, traj, ell, direction, s2)
    # the difference must equal the cell-trapezoid of hu against (s2 - s1)
    from noc.dynamics import integrate_adjoint, trapezoid_cellwise

    p = integrate_adjoint(problem, traj, ell)
    dyn = problem.dynamics
    N = traj.num_cells
    left = np.empty(N)
    right = np.empty(N)
    ds = s2 - s1
    for i in range(N):
        u = traj.controls[i]
        left[i] = (dyn.rhs_u(traj.grid[i], traj.states[i], u).T
                   @ p.values[i]) @ ds[i]
        right[i] = (dyn.rhs_u(traj.grid[i + 1], traj.states[i + 1], u).T
                    @ p.values[i + 1]) @ ds[i]
    assert abs((b - a) - trapezoid_cellwise(traj.grid, left, right)) < 1e-12


# ----------------------------------------------------------------------------
# refutation search
# ----------------------------------------------------------------------------


def test_default_sigma_candidates_ccs126():
    problem, traj = _ccs126_run(cells=30)
    v = np.tile([1.0, 0.0], (traj.num_cells, 1))
    cands = default_sigma_candidates(problem.control_set, traj.controls, v)
    assert len(cands) == 4  # shift, one recession ray, +/- one two-sided dir
    np.testing.assert_allclose(cands[0], np.tile([0.0, 0.5],
                                                 (traj.num_cells, 1)), atol=1e-12)


def test_refute_ccs126_end_to_end():
    problem, traj = _ccs126_run(horizon=0.5, theta=3.0, cells=500)
    v = np.tile([1.0, 0.0], (traj.num_cells, 1))
    direction = verify_singular_direction(problem, traj, v)
    cert = refute_optimality(problem, traj, direction)
    assert cert.verdict == "refuted"
    assert len(cert.multipliers) == 1
    assert abs(cert.chosen_lhs - _lhs_formula(0.5, 3.0)) < 1e-5
    assert cert.chosen is not None and cert.chosen[1] == 0
    assert cert.lhs.shape == (len(cert.sigma_candidates), 1)
    assert cert.stationarity[0] <= 1e-8
    assert cert.index_sets.critical == frozenset({0})
    assert cert.chosen_terms is not None
    assert abs(sum(cert.chosen_terms.values()) - cert.chosen_lhs) < 1e-9
    assert cert.tolerances["margin"] == 1e-6


def test_refute_verdict_zones():
    # the closed-form value is T*(theta - 2 - T^2/3 + 2.5T); pick theta to
    # land in each verdict zone at T = 0.5
    base = 2.0 + 0.25 / 3.0 - 1.25
    for target, expected in ((4e-6, "inconclusive"), (-1.0 / 6.0, "consistent")):
        theta = base + target / 0.5
        problem, traj = _ccs126_run(horizon=0.5, theta=theta, cells=500)
        v = np.tile([1.0, 0.0], (traj.num_cells, 1))
        direction = verify_singular_direction(problem, traj, v)
        cert = refute_optimality(problem, traj, direction)
        assert cert.verdict == expected
        assert abs(cert.chosen_lhs - target) < 1e-6


def test_refute_raises_without_multiplier():
    problem, traj = _scalar_box_problem(1.0)
    v = np.full((traj.num_cells, 1), -1.0)
    direction = verify_singular_direction(problem, traj, v)
    with pytest.raises(NoMultiplier):
        refute_optimality(problem, traj, direction)


def test_refute_ray_budget_refusal():
    problem, traj = _ccs126_run(cells=50)
    v = np.tile([1.0, 0.0], (traj.num_cells, 1))
    direction = verify_singular_direction(problem, traj, v)
    fake = [np.eye(3)[i % 3] - 2 * np.eye(3)[0] for i in range(65)]
    cert = refute_optimality(problem, traj, direction, multipliers=fake)
    assert cert.verdict == "inconclusive"
    assert any("ray budget" in note for note in cert.notes)


def test_refute_start_acceleration_slot_is_inert():
    problem, traj = _ccs126_run(cells=200)
    v = np.tile([1.0, 0.0], (traj.num_cells, 1))
    direction = verify_singular_direction(problem, traj, v)
    plain = refute_optimality(problem, traj, direction)
    shifted = refute_optimality(problem, traj, direction,
                                w_candidates=[np.zeros(2), np.array([3.0, -2.0])])
    assert shifted.lhs.shape[0] == 2 * plain.lhs.shape[0]
    assert abs(shifted.chosen_lhs - plain.chosen_lhs) < 1e-12
    assert shifted.verdict == plain.verdict


# ----------------------------------------------------------------------------
# integral-cost augmentation
# ----------------------------------------------------------------------------


def _lq_augmented(cells=200):
    problem = mayer_augment(euclidean(1), 1.0, ("u1",), "0.5*u1^2",
                            [0.0], [1.0], control_dim=1,
                            control_set=Box(lower=(-2.0,), upper=(2.0,)))
    traj = integrate_state(problem, [0.0, 0.0], np.ones((cells, 1)))
    return problem, traj


def test_mayer_augment_shapes_and_rows():
    problem, traj = _lq_augmented(cells=50)
    assert problem.state_dim == 2
    assert problem.num_inequalities == 0
    assert problem.num_equalities == 3  # start pin, end pin, accumulator pin
    assert problem.chart.kind == "euclidean"
    # the accumulator integrates the running cost: J(u === 1) = 1/2
    assert abs(traj.states[-1, 1] - 0.5) < 1e-12
    assert abs(traj.states[-1, 0] - 1.0) < 1e-12


def test_mayer_augment_pipeline_consistent_at_optimum():
    # the constant control is the calculus-of-variations minimizer of the
    # quadratic running cost between pinned endpoints, so the certificate
    # must come out consistent with a strictly negative form
    problem, traj = _lq_augmented(cells=200)
    rays = find_first_order_multipliers(problem, traj)
    assert len(rays) == 1
    np.testing.assert_allclose(rays[0].weights, [-1.0, -1.0, 1.0, 1.0],
                               atol=1e-9)
    N = traj.num_cells
    v = np.ones((N, 1))
    v[N // 2:] = -1.0  # keeps both pinned endpoints to first order
    direction = verify_singular_direction(problem, traj, v)
    cert = refute_optimality(problem, traj, direction)
    assert cert.verdict == "consistent"
    assert abs(cert.chosen_lhs + 0.5) < 1e-9
    assert cert.stationarity[0] <= 1e-10


def test_mayer_augment_zero_running_cost():
    problem = mayer_augment(euclidean(1), 1.0, ("u1",), "0", [0.0], [1.0],
                            control_dim=1,
                            control_set=Box(lower=(-2.0,), upper=(2.0,)))
    traj = integrate_state(problem, [0.0, 0.0], np.ones((40, 1)))
    assert np.max(np.abs(traj.states[:, 1])) == 0.0
    rays = find_first_order_multipliers(problem, traj)
    assert rays  # a multiplier exists; the accumulator row carries it


def test_mayer_augment_rejects_unreachable_chart_point():
    from noc.geometry import sphere

    with pytest.raises(ChartEscape):
        mayer_augment(sphere(1.0), 1.0, ("u1", "0"), "u1^2",
                      [0.1, 0.0], [100.0, 0.0], control_dim=1)


# ----------------------------------------------------------------------------
# trajectory jet against the per-node reference
# ----------------------------------------------------------------------------


def _reference_terms(problem, traj, ell, direction, sigma):
    """The second-order form node by node: one adjoint per multiplier,
    hamiltonian_blocks and curvature_pairing at both sides of every cell."""
    from noc.dynamics import integrate_adjoint, lagrange_data, trapezoid_cellwise

    from _reference import curvature_pairing, hamiltonian_blocks

    p = integrate_adjoint(problem, traj, ell)
    X = direction.field
    v = direction.control_directions
    N = traj.num_cells
    names = ("sigma_integral", "state_state", "state_control",
             "control_control", "curvature")
    cols = {name: np.empty((2, N)) for name in names}
    for i in range(N):
        for side, node in ((0, i), (1, i + 1)):
            b = hamiltonian_blocks(problem, traj.grid[node], traj.states[node],
                                   p.values[node], traj.controls[i])
            Xn = X.values[node]
            cols["sigma_integral"][side, i] = b["hu"] @ sigma[i]
            cols["state_state"][side, i] = 0.5 * Xn @ b["hxx"] @ Xn
            cols["state_control"][side, i] = Xn @ b["hxu"] @ v[i]
            cols["control_control"][side, i] = 0.5 * v[i] @ b["huu"] @ v[i]
            cols["curvature"][side, i] = -0.5 * curvature_pairing(
                problem, traj, p, X, node, cell=i)
    terms = {name: float(trapezoid_cellwise(traj.grid, *cols[name]))
             for name in names}
    ld = lagrange_data(problem, traj.states[0], traj.states[-1], ell)
    X0, XT = X.values[0], X.values[-1]
    terms["start_start"] = 0.5 * float(X0 @ ld.hess_start_start @ X0)
    terms["start_end"] = float(X0 @ ld.hess_start_end @ XT)
    terms["end_end"] = 0.5 * float(XT @ ld.hess_end_end @ XT)
    return terms


def _reference_stationarity(problem, traj, ell, direction):
    from noc.dynamics import integrate_adjoint

    p = integrate_adjoint(problem, traj, ell).values
    dyn = problem.dynamics
    v = direction.control_directions
    worst = 0.0
    for i in range(traj.num_cells):
        for node in (i, i + 1):
            hu = dyn.rhs_u(traj.grid[node], traj.states[node],
                           traj.controls[i]).T @ p[node]
            worst = max(worst, abs(float(hu @ v[i])))
    return worst


def _jet_fixture(chart_name):
    """A nonlinear problem on the named chart, a wiggly interior nominal
    control, and an (unverified) direction with its first-order field."""
    from noc.conditions import SingularDirection
    from noc.dynamics import integrate_variational
    from noc.geometry import hyperbolic, product_chart, sphere

    from _problems import wiggly_controls

    texts = ("0.5*y2 + u1 + 0.3*y1*u2", "-0.4*y1*y2 + u2 + 0.2*u1^2")
    start = [0.1, -0.2]
    cost_text = "yT1^2 + 0.5*yT2 + y01*yT2"
    if chart_name == "euclidean":
        chart = euclidean(2)
    elif chart_name == "stereographic":
        chart = sphere(1.0)
    elif chart_name == "polar":
        chart, start = sphere(1.0, coords="polar"), [1.1, 0.3]
    elif chart_name == "hyperbolic":
        chart, start = hyperbolic(1.0), [0.1, 1.2]
    elif chart_name == "product":
        chart = product_chart(euclidean(1), sphere(2.0))
        texts = texts + ("0.3*y3*u1 + y1",)
        start = [0.2, 0.1, -0.2]
        cost_text = "yT1^2 + yT2*yT3 + y01*yT3"
    n = chart.dim
    dyn = dynamics_from_expressions(texts, n, 2)
    cost = endpoint_from_expressions(cost_text, n)
    pin = endpoint_from_expressions(f"y01 - {start[0]!r}", n, label="pin")
    probe = np.asarray(start, float)
    problem = make_problem(chart, 0.6, dyn, cost, equality_maps=(pin,),
                           control_set=Box(lower=(-1.0, -1.0),
                                           upper=(1.0, 1.0)),
                           probe_base=probe)
    N = 40
    traj = integrate_state(problem, start, wiggly_controls(N, scale=0.2))
    rng = np.random.default_rng(5)
    v = np.roll(wiggly_controls(N, scale=1.0), 7, axis=0)
    field = integrate_variational(problem, traj, v, 0.3 * rng.normal(size=n))
    direction = SingularDirection(control_directions=v, field=field,
                                  endpoint_rates=np.zeros(1),
                                  equality_residuals=np.zeros(1),
                                  row_tol=1e-8)
    return problem, traj, direction, rng.normal(size=(N, 2))


@pytest.mark.parametrize("chart_name", ["euclidean", "stereographic", "polar",
                                        "hyperbolic", "product"])
def test_second_order_terms_match_per_node_reference(chart_name):
    problem, traj, direction, sigma = _jet_fixture(chart_name)
    ell = np.array([-0.7, 0.4])
    total, terms = second_order_lhs(problem, traj, ell, direction, sigma,
                                    check=False, with_terms=True)
    ref = _reference_terms(problem, traj, ell, direction, sigma)
    assert list(terms) == list(ref)
    scale = 1.0 + max(abs(x) for x in ref.values())
    for name in ref:
        assert abs(terms[name] - ref[name]) <= 1e-10 * scale, name
    assert total == sum(terms.values())
    if chart_name in ("stereographic", "polar", "hyperbolic", "product"):
        assert abs(ref["curvature"]) > 1e-4   # the curved path is exercised


def test_refute_matrix_and_stationarity_match_per_ray_evaluation():
    problem, traj, direction, sigma = _jet_fixture("stereographic")
    sigmas = [sigma, np.zeros_like(sigma)]
    rays = [np.array([0.0, 1.0]), np.array([-1.0, -0.3]),
            np.array([-0.5, 1.0])]
    cert = refute_optimality(problem, traj, direction, sigmas,
                             [np.zeros(2), np.ones(2)], multipliers=rays)
    assert cert.lhs.shape == (4, 3)
    scaled = [ray.weights / (-ray.weights[0]) if ray.weights[0] < 0
              else ray.weights for ray in cert.multipliers]
    for r, w in enumerate(scaled):
        for c, s in enumerate(sigmas):
            want = sum(_reference_terms(problem, traj, w, direction,
                                        s).values())
            for k in range(2):   # the start-acceleration slot is inert
                assert abs(cert.lhs[2 * c + k, r] - want) <= \
                    1e-10 * (1.0 + abs(want))
        want = _reference_stationarity(problem, traj, w, direction)
        assert abs(cert.stationarity[r] - want) <= 1e-10 * (1.0 + want)
    best_c, _ = cert.chosen
    worst_ray = int(np.argmin(cert.lhs[2 * best_c]))
    assert worst_ray != 0
    assert sum(cert.chosen_terms.values()) == cert.chosen_lhs
    assert cert.chosen_lhs == cert.lhs[2 * best_c, worst_ray]
    want = _reference_terms(problem, traj, scaled[worst_ray], direction,
                            sigmas[best_c])
    for name, value in want.items():
        assert abs(cert.chosen_terms[name] - value) <= 1e-10 * (1.0 + abs(value))
    # one-cell directions: the residual sees both sides of the cell
    for cell in range(traj.num_cells):
        v = np.zeros_like(direction.control_directions)
        v[cell] = direction.control_directions[cell]
        single = dataclasses.replace(direction, control_directions=v)
        want = _reference_stationarity(problem, traj, scaled[1], single)
        got = stationarity_residual(problem, traj, scaled[1], single)
        assert abs(got - want) <= 1e-12 * (1.0 + want)


def test_integrate_adjoint_matrix_multiplier_matches_columns():
    from noc.dynamics import integrate_adjoint

    problem, traj, _, _ = _jet_fixture("stereographic")
    ells = np.array([[-0.7, 1.0, 0.0], [0.4, 0.0, 1.0]])   # columns
    together = integrate_adjoint(problem, traj, ells).values
    assert together.shape == (traj.num_cells + 1, 2, 3)
    for j in range(3):
        alone = integrate_adjoint(problem, traj, ells[:, j]).values
        np.testing.assert_allclose(together[..., j], alone, rtol=0, atol=1e-14)


def test_refute_non_finite_margin_is_inconclusive():
    problem, traj = _ccs126_run(cells=100)
    v = np.tile([1.0, 0.0], (traj.num_cells, 1))
    direction = verify_singular_direction(problem, traj, v)
    for margin in (float("nan"), float("inf")):
        cert = refute_optimality(problem, traj, direction, margin=margin)
        assert cert.verdict == "inconclusive"
        assert any("not finite" in note for note in cert.notes)


# ----------------------------------------------------------------------------
# node-wise oracles evaluated once per distinct input
# ----------------------------------------------------------------------------


def test_node_memo_keeps_values_and_first_failing_cell():
    from noc.cones import (PointNotInSet, adjacent_cone_member,
                           quadratic_distance_bound, second_adjacent_member)

    # mixed pairs on the unit disc: one boundary control with tangent
    # directions of two lengths, and an interior control
    disc = Ball(center=(0.0, 0.0), radius=1.0)
    uu = np.tile([[0.0, -1.0], [0.0, -1.0], [0.3, 0.2]], (4, 1))
    vv = np.tile([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]], (4, 1))
    bound = quadratic_distance_bound(disc, uu, vv, 0.1)
    assert bound.ell == tuple(quadratic_distance_bound(disc, uu[i:i + 1],
                                                       vv[i:i + 1], 0.1).ell[0]
                              for i in range(len(uu)))
    assert len(set(bound.ell)) == 3

    problem, traj = _scalar_box_problem(-1.0, cells=12)
    U = problem.control_set
    # mixed pairs: boundary and interior controls, repeated in a pattern
    u = np.tile([[-1.0], [0.5], [-1.0], [0.25]], (3, 1))
    v = np.tile([[1.0], [-1.0], [0.5], [1.0]], (3, 1))
    traj = dataclasses.replace(traj, controls=u)
    # a later cell leaves the set: the index is the first such cell
    outside = u.copy()
    outside[9] = 3.0
    outside[10] = 3.0
    with pytest.raises(PointNotInSet, match="grid node 9:"):
        quadratic_distance_bound(U, outside, v, 0.1)
    # an outward direction first appears in cell 6, then repeats
    bad_v = v.copy()
    bad_v[6] = bad_v[10] = -1.0
    first = next(i for i in range(len(u))
                 if not adjacent_cone_member(U, u[i], bad_v[i],
                                             with_oracle=False).member)
    with pytest.raises(ConeViolation) as info:
        verify_singular_direction(problem, traj, bad_v)
    assert info.value.node == first == 6
    # the same for the second-order set along an admissible direction
    direction = verify_singular_direction(problem, traj, np.zeros_like(v))
    sigma = np.zeros_like(v)
    sigma[5] = sigma[8] = sigma[9] = -1.0
    first = next(i for i in range(len(u))
                 if not second_adjacent_member(U, u[i], 0.0 * v[i], sigma[i],
                                               with_oracle=False).member)
    with pytest.raises(SigmaNotInB) as info:
        second_order_lhs(problem, traj, np.array([-1.0, 1.0]), direction,
                         sigma)
    assert info.value.node == first


# ----------------------------------------------------------------------------
# per-cell loops evaluated once per distinct row, against per-cell references
# ----------------------------------------------------------------------------

# a triangle with two vertices, an edge point and an interior point in use
_TRIANGLE = ((1.0, 2.0), (-1.0, 1.0), (0.0, -1.0)), (2.0, 1.0, 1.0)
_CONTROLS = np.tile([[0.0, 1.0], [0.5, -1.0], [0.2, 0.1], [4.0, -1.0]], (10, 1))
_DIRECTIONS = np.tile([[0.0, -1.0], [1.0, 0.0], [1.0, 1.0], [-1.0, 0.0]], (10, 1))


def _triangle_run(controls=_CONTROLS):
    from noc.cones import Polyhedron

    dyn = dynamics_from_expressions(("y2 + u1^2", "sin(y1) + u1*u2"), 2, 2)
    cost = linear_endpoint((0.0, 0.0), (1.0, 0.5), label="terminal-mix")
    ineq = linear_endpoint((0.0, 0.0), (0.0, 1.0), offset=-5.0, label="bound")
    problem = make_problem(euclidean(2), 0.8, dyn, cost, (ineq,),
                           control_set=Polyhedron(*_TRIANGLE))
    return problem, integrate_state(problem, [0.1, 0.2], controls)


def _outcome(fn, *args, **kwargs):
    """fn's value, or the class, message and node of what it raised."""
    try:
        return "value", fn(*args, **kwargs)
    except Exception as ex:  # noqa: BLE001 - the outcome is compared
        return type(ex), str(ex), getattr(ex, "node", None)


def _cone_cells_per_cell(problem, traj, v):
    from noc.cones import adjacent_cone_member

    for i in range(traj.num_cells):
        cert = adjacent_cone_member(problem.control_set, traj.controls[i], v[i],
                                    with_oracle=False)
        if not cert.member:
            raise ConeViolation(f"direction leaves the control tangent cone in "
                                f"cell {i} (margin {cert.margin:.3e})", node=i)


def _sigma_cells_per_cell(problem, traj, v, sigma):
    from noc.cones import second_adjacent_member

    for i in range(traj.num_cells):
        cert = second_adjacent_member(problem.control_set, traj.controls[i], v[i],
                                      sigma[i], with_oracle=False)
        if not cert.member:
            raise SigmaNotInB(f"acceleration candidate leaves the second-order "
                              f"admissible set in cell {i} (margin "
                              f"{cert.margin:.3e})", node=i)


def _sigma_candidates_per_cell(control_set, controls, directions):
    from noc.cones import second_cone_vrep

    N = len(controls)
    got = [second_cone_vrep(control_set, controls[i], directions[i])
           for i in range(N)]
    base = np.array([shift for shift, _ in got])
    out = [base]
    rays = [rep.rays for _, rep in got]
    if len({r.shape[0] for r in rays}) == 1:
        out += [base + np.array([r[j] for r in rays]) for j in range(rays[0].shape[0])]
    lins = [rep.lineality for _, rep in got]
    if len({r.shape[0] for r in lins}) == 1:
        for j in range(lins[0].shape[0]):
            step = np.array([r[j] for r in lins])
            out += [base + step, base - step]
    return out


def test_grouped_cone_check_matches_the_per_cell_loop():
    problem, traj = _triangle_run()
    verify_singular_direction(problem, traj, _DIRECTIONS)
    _cone_cells_per_cell(problem, traj, _DIRECTIONS)
    # an outward direction at the edge point recurs (cells 5 and 13); a
    # later cell (22) would raise another error, a control outside the set
    bad = _DIRECTIONS.copy()
    bad[[5, 13]] = [0.0, -1.0]
    outside = _CONTROLS.copy()
    outside[22] = [5.0, 5.0]
    for controls, error in ((_CONTROLS, ConeViolation), (outside, ConeViolation)):
        problem, traj = _triangle_run(controls)
        want = _outcome(_cone_cells_per_cell, problem, traj, bad)
        assert want[0] is error and want[2] == 5
        assert _outcome(verify_singular_direction, problem, traj, bad) == want
    outside[2] = [5.0, 5.0]                     # now the first error is there
    problem, traj = _triangle_run(outside)
    want = _outcome(_cone_cells_per_cell, problem, traj, bad)
    assert want[0].__name__ == "PointNotInSet"
    assert _outcome(verify_singular_direction, problem, traj, bad) == want


def test_misshaped_direction_is_named():
    problem, traj = _triangle_run()
    for v in (_DIRECTIONS[:, :1], _DIRECTIONS[:-1], np.hstack([_DIRECTIONS] * 2)):
        with pytest.raises(ValueError, match="control directions must match"):
            verify_singular_direction(problem, traj, v)


def test_grouped_sigma_check_matches_the_per_cell_loop():
    from noc.conditions import _check_sigma_membership

    problem, traj = _triangle_run()
    sigma = np.tile([[0.0, -1.0], [0.3, 2.0], [5.0, -5.0], [-1.0, 1.0]], (10, 1))
    assert _check_sigma_membership(problem, traj, _DIRECTIONS, sigma) is None
    _sigma_cells_per_cell(problem, traj, _DIRECTIONS, sigma)
    # an inadmissible sigma at the edge point recurs (cells 9 and 17); a
    # later cell (29) would raise another error, a direction off the cone
    bad = sigma.copy()
    bad[[9, 17]] = [0.0, -1.0]
    off = _DIRECTIONS.copy()
    off[29] = [0.0, -1.0]
    for v, node in ((_DIRECTIONS, 9), (off, 9)):
        want = _outcome(_sigma_cells_per_cell, problem, traj, v, bad)
        assert want[0] is SigmaNotInB and want[2] == node
        assert _outcome(_check_sigma_membership, problem, traj, v, bad) == want
    off[1] = [0.0, -1.0]                        # now the first error is there
    want = _outcome(_sigma_cells_per_cell, problem, traj, off, bad)
    assert want[0].__name__ == "DirectionNotInCone"
    assert _outcome(_check_sigma_membership, problem, traj, off, bad) == want


def test_grouped_sigma_candidates_match_the_per_cell_loop():
    problem, _ = _triangle_run()
    U = problem.control_set
    uniform = np.tile([[0.5, -1.0]], (12, 1)), np.tile([[1.0, 0.0]], (12, 1))
    for controls, directions, count in ((_CONTROLS, _DIRECTIONS, 1),
                                        (*uniform, 4)):
        got = default_sigma_candidates(U, controls, directions)
        want = _sigma_candidates_per_cell(U, controls, directions)
        assert len(got) == len(want) == count
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
    bad = _DIRECTIONS.copy()
    bad[[4, 12]] = [1.0, 1.0]                   # off the cone at a vertex, twice
    outside = _CONTROLS.copy()
    outside[30] = [5.0, 5.0]
    want = _outcome(_sigma_candidates_per_cell, U, outside, bad)
    assert want[0].__name__ == "DirectionNotInCone"
    assert _outcome(default_sigma_candidates, U, outside, bad) == want


def test_grouped_cone_rows_match_the_per_cell_loop():
    from noc.cones import tangent_cone_vrep
    from noc.conditions import (_generator_rows, _multiplier_cone_rows,
                                _multiplier_jet)
    from noc.polyhedral import clean_rows as _clean_rows

    problem, traj = _triangle_run()
    mjet = _multiplier_jet(problem, traj)
    huL, huR = mjet.hu
    reps = [tangent_cone_vrep(problem.control_set, u) for u in traj.controls]
    lin_rows, ray_rows = [], []
    for i, rep in enumerate(reps):       # per cell: L then R for each generator
        for w in rep.lineality:
            lin_rows += [w @ huL[i], w @ huR[i]]
        for w in rep.rays:
            ray_rows += [w @ huL[i], w @ huR[i]]
    inverse = np.arange(traj.num_cells)   # every cell its own group
    np.testing.assert_array_equal(
        _generator_rows([r.rays for r in reps], inverse, mjet.hu), ray_rows)
    A_le, A_eq = _multiplier_cone_rows(problem, traj, mjet, act_tol=1e-8)
    # the sign row of the cost and of the active bound lead the inequalities;
    # the start-boundary rows lead the equalities
    dim = problem.multiplier_dim
    head_le = [np.eye(dim)[0]]
    head_eq = [np.eye(dim)[1]] + list(mjet.adjoint[0] + np.stack(
        [d.grad_start for d in mjet.endpoint], axis=1))
    np.testing.assert_array_equal(A_le, _clean_rows(head_le + ray_rows, dim))
    np.testing.assert_array_equal(A_eq, _clean_rows(head_eq + lin_rows, dim))
