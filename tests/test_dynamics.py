"""Integrators: state flow, variational fields, adjoint, Hamiltonian blocks,
expansion residual. Closed-form and matrix-exponential oracles are computed
first and frozen; coupled-RK4 outputs must be exact discrete derivatives."""
from __future__ import annotations

import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from noc.cones import lift_sigma
from noc.dynamics import (FieldAlongCurve, dynamics_from_expressions,
                          endpoint_from_expressions, expansion_residual,
                          integrate_adjoint, integrate_second_variation,
                          integrate_state, integrate_variational, lagrange_data,
                          make_problem, rebind_problem, refine_controls,
                          run_stacked, _adjoint_chain, _cell_propagators,
                          _rk4_step, _variational_chain, trapezoid_cellwise,
                          trapezoid_quadrature)
from noc.errors import (BasePointMismatch, BoundViolated, ChartEscape, NocError,
                        NonFiniteState, OutOfInjectivityTrust)
from noc.geometry import (CotangentVector, TangentVector, christoffel,
                          curvature, dchristoffel, euclidean, exp_map, sphere)
from noc.problemfile import build_control_problem, parse_problem_file

from _problems import (ccs126_adjoint, ccs126_nominal_controls,
                       ccs126_second_field, ccs126_states, linear_dynamics,
                       linear_endpoint, make_ccs126, make_flat_nonlinear,
                       make_sphere_nonlinear, wiggly_controls)
from _reference import curvature_pairing, float_cells, hamiltonian, hamiltonian_blocks

# ----------------------------------------------------------------------------
# model construction and derivative validation
# ----------------------------------------------------------------------------


def test_builtin_ccs126_rhs_matches_formula():
    dyn = make_ccs126(theta=3.0).dynamics
    rng = np.random.default_rng(0)
    for _ in range(10):
        y = rng.normal(size=2)
        u = rng.normal(size=2)
        f = dyn.rhs(0.3, y, u)
        assert abs(f[0] - u[1]) < 1e-14
        assert abs(f[1] - (-y[0] ** 2 + 4 * y[0] * u[1] - 3.0 * u[0] ** 2)) < 1e-12


def test_expression_blocks_are_exact():
    dyn = dynamics_from_expressions(("y2 + u1^2", "sin(y1) + u1*u2"), 2, 2)
    y = np.array([0.4, -0.7])
    u = np.array([0.3, 1.1])
    np.testing.assert_allclose(dyn.rhs_y(0.0, y, u),
                               [[0.0, 1.0], [math.cos(0.4), 0.0]], atol=1e-15)
    np.testing.assert_allclose(dyn.rhs_u(0.0, y, u),
                               [[2 * 0.3, 0.0], [1.1, 0.3]], atol=1e-15)
    np.testing.assert_allclose(dyn.rhs_uu(0.0, y, u),
                               [[[2.0, 0.0], [0.0, 0.0]],
                                [[0.0, 1.0], [1.0, 0.0]]], atol=1e-15)
    assert abs(dyn.rhs_yy(0.0, y, u)[1, 0, 0] + math.sin(0.4)) < 1e-15


def test_make_problem_rejects_non_finite_rhs():
    # sqrt of a negative number at every probe: NaN
    dyn = dynamics_from_expressions(("y2", "sqrt(-1 - y1^2) + u1"), 2, 1)
    cost = linear_endpoint((0.0, 0.0), (1.0, 0.0))
    with np.errstate(invalid="ignore"), \
            pytest.raises(NocError, match="rhs is not finite"):
        make_problem(euclidean(2), 1.0, dyn, cost)


def test_rebind_moves_expression_models_to_new_params():
    # compiled once at k = 2, T = 1 and rebound to k = 3, T = 0.5, the
    # model evaluates exactly like one compiled from those literals
    dyn = dynamics_from_expressions(("y2 + k*u1", "-k^2*sin(y1) + T*u1^k"),
                                    2, 1, params={"k": 2.0, "T": 1.0})
    literal = dynamics_from_expressions(
        ("y2 + 3.0*u1", "-3.0^2*sin(y1) + 0.5*u1^3.0"), 2, 1)
    moved = dyn.rebind({"k": 3.0, "T": 0.5})
    rng = np.random.default_rng(5)
    t, y, u = rng.uniform(size=4), rng.normal(size=(4, 2)), rng.normal(size=(4, 1))
    for got, want in zip(moved.blocks_many(t, y, u), literal.blocks_many(t, y, u)):
        np.testing.assert_array_equal(got, want)
    assert dyn.rhs(0.0, [0.0, 1.0], [1.0])[0] == 3.0    # the original keeps k = 2
    assert literal.rebind is None
    ep = endpoint_from_expressions("k*yT1^2", 2, params={"k": 2.0})
    assert ep.rebind({"k": 3.0}).value([0.0, 0.0], [2.0, 0.0]) == 12.0
    assert ep.value([0.0, 0.0], [2.0, 0.0]) == 8.0


def test_rebind_problem_keeps_the_horizon_and_rhs_checks():
    dyn = dynamics_from_expressions(("y2", "log(k) + u1"), 2, 1,
                                    params={"k": 1.0})
    cost = linear_endpoint((0.0, 0.0), (1.0, 0.0))
    problem = make_problem(euclidean(2), 1.0, dyn, cost)
    moved = rebind_problem(problem, 0.5, {"k": 2.0})
    assert moved.horizon == 0.5 and moved.cost is cost   # param-free maps stay
    assert moved.dynamics.rhs(0.0, [0.0, 0.0], [0.0])[1] == math.log(2.0)
    with pytest.raises(ValueError, match="horizon must be positive"):
        rebind_problem(problem, 0.0, {"k": 2.0})
    with np.errstate(divide="ignore"), \
            pytest.raises(NocError, match="rhs is not finite"):
        rebind_problem(problem, 0.5, {"k": 0.0})


@pytest.mark.parametrize("values, fragment", [
    ({"k": 1.5e308, "c": 0.0}, "dynamics block rhs_uu is not finite"),
    ({"k": 0.0, "c": -1.0}, "endpoint map 'cost' is not finite"),
    ({"k": 1e300, "c": 1e12}, None),
])
def test_rebind_problem_fails_where_make_problem_does(values, fragment):
    # a block that overflows where the rhs does not, and an endpoint map
    # that is NaN, are caught at rebound values as at a fresh build; large
    # values of exact parts, which central differences could not check,
    # pass both ways. k*u1^2/(1 + u1^2) stays below k at every u1, while
    # its rhs_uu, 2k(1 - 3u1^2)/(1 + u1^2)^3, overflows for |u1| < 0.3
    def parts(v):
        return (dynamics_from_expressions(("y2 + k", "-y1 + k*(u1^2/(1 + u1^2))"),
                                          2, 1, params=v),
                endpoint_from_expressions("c + sqrt(c) + yT1", 2, label="cost",
                                          params=v))

    problem = make_problem(euclidean(2), 1.0, *parts({"k": 0.0, "c": 0.0}))
    if fragment is None:
        make_problem(euclidean(2), 1.0, *parts(values))
        rebind_problem(problem, 1.0, values)
        return
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NocError, match=fragment) as fresh:
        make_problem(euclidean(2), 1.0, *parts(values))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NocError) as rebound:
        rebind_problem(problem, 1.0, values)
    assert str(rebound.value) == str(fresh.value)


def _blocks_per_entry(texts, n, m, params, t, y, u):
    """The six blocks with every entry compiled and evaluated on its own,
    broadcast over the batch and stacked."""
    from noc.expr import compile_expr, parse_expr

    ynames = tuple(f"y{i + 1}" for i in range(n))
    unames = tuple(f"u{a + 1}" for a in range(m))
    params = params or {}
    names = ("t",) + ynames + unames + tuple(params)
    exprs = [parse_expr(text, set(names)) for text in texts]
    args = (t, *y.T, *u.T, *params.values())

    def block(nested):
        if isinstance(nested, list):
            return np.stack([block(x) for x in nested], axis=1)
        value = np.asarray(compile_expr(nested, names)(*args), float)
        return np.broadcast_to(value, t.shape)

    return (block(exprs),
            block([[e.diff(a) for a in ynames] for e in exprs]),
            block([[e.diff(a) for a in unames] for e in exprs]),
            block([[[e.diff(a).diff(b) for b in ynames] for a in ynames] for e in exprs]),
            block([[[e.diff(a).diff(b) for b in unames] for a in ynames] for e in exprs]),
            block([[[e.diff(a).diff(b) for b in unames] for a in unames] for e in exprs]))


@pytest.mark.parametrize("texts, n, m, params", [
    (("u2", "-y1^2 + 4*y1*u2 - theta*u1^2"), 2, 2, {"theta": 3.0}),   # ccs126
    (("u1", "1 + y1^2"), 2, 1, None),                           # sphere.noc
    # constants, -0.0 (d/dy1 of the first), param-only entries (k^2, 2*k),
    # t and every function
    (("-(k*y2 + u1^2/k)", "-k^2*sin(y1) + exp(t)*u1 + 2*k",
      "sqrt(2 + y3^2)*cos(u1) - abs(y1) + tan(y2/4) + log(1 + y1^2) - u2^k"),
     3, 2, {"k": 2.5}),
])
@pytest.mark.parametrize("size", [1, 400])
def test_batched_blocks_equal_the_per_entry_assembly(texts, n, m, params, size):
    rng = np.random.default_rng(size)
    t, y, u = rng.uniform(size=size), rng.normal(size=(size, n)), rng.normal(size=(size, m))
    u[:, -1] = np.abs(u[:, -1])                  # u2^k: a positive base
    dyn = dynamics_from_expressions(texts, n, m, params=params)
    got = dyn.blocks_many(t, y, u)
    want = _blocks_per_entry(texts, n, m, params, t, y, u)
    assert len(got) == 6
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


def _count_calls(monkeypatch, module, name) -> list:
    """Count the calls of module.name; the list grows by one per call."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_variational_field_and_adjoint_share_one_set_of_propagators(monkeypatch):
    import noc.dynamics

    problem = make_flat_nonlinear()
    traj = integrate_state(problem, [0.2, -0.1], wiggly_controls(60))
    blocks = _count_calls(monkeypatch, noc.dynamics, "_blocks_along")
    X = integrate_variational(problem, traj, wiggly_controls(60, 0.3), [0.1, 0.0])
    assert len(blocks) == 4                       # one per RK4 stage
    p = integrate_adjoint(problem, traj, [1.0])
    assert len(blocks) == 4
    M, B = _cell_propagators(problem, traj)
    assert len(blocks) == 4 and not M.flags.writeable
    # a fresh trajectory object builds its own, with the same values
    again = dataclasses.replace(traj)
    np.testing.assert_array_equal(integrate_adjoint(problem, again, [1.0]).values,
                                  p.values)
    assert len(blocks) == 8
    np.testing.assert_array_equal(
        integrate_variational(problem, again, wiggly_controls(60, 0.3), [0.1, 0.0]).values,
        X.values)
    assert len(blocks) == 8


def test_trajectory_arrays_are_frozen_copies():
    # the propagators kept with a trajectory stay valid: a caller's later
    # edit of its controls does not reach the trajectory, and the
    # trajectory's own arrays refuse writes
    problem = make_flat_nonlinear()
    u = wiggly_controls(40)
    traj = integrate_state(problem, [0.2, -0.1], u)
    M, _ = _cell_propagators(problem, traj)
    kept = traj.controls.copy()
    u[:] = 0.0
    np.testing.assert_array_equal(traj.controls, kept)
    for values in (traj.grid, traj.states, traj.controls):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0
    assert _cell_propagators(problem, traj)[0] is M


def test_a_rebound_model_builds_its_own_propagators(monkeypatch):
    import noc.dynamics

    dyn = dynamics_from_expressions(("y2 + k*u1", "-k^2*sin(y1) + u1"), 2, 1,
                                    params={"k": 1.0})
    problem = make_problem(euclidean(2), 1.0, dyn, linear_endpoint((0.0, 0.0), (1.0, 0.0)))
    traj = integrate_state(problem, [0.2, -0.1], wiggly_controls(50, m=1))
    blocks = _count_calls(monkeypatch, noc.dynamics, "_blocks_along")
    first = integrate_adjoint(problem, traj, [1.0]).values
    assert len(blocks) == 4
    moved = rebind_problem(problem, 1.0, {"k": 2.0})
    second = integrate_adjoint(moved, traj, [1.0]).values
    assert len(blocks) == 8
    assert not np.array_equal(first, second)
    # the first model's propagators are still the ones it gets
    np.testing.assert_array_equal(integrate_adjoint(problem, traj, [1.0]).values, first)
    same = rebind_problem(problem, 1.0, {"k": 1.0})   # equal values, another model
    np.testing.assert_array_equal(integrate_adjoint(same, traj, [1.0]).values, first)
    assert len(blocks) == 12


def test_expression_models_compile_one_derivative_path(monkeypatch):
    import noc.dynamics

    exprs = _count_calls(monkeypatch, noc.dynamics, "compile_expr")
    blocks = _count_calls(monkeypatch, noc.dynamics, "_compile_blocks")
    dynamics_from_expressions(("y2 + u1^2", "sin(y1) + k*u1*u2", "y3*u2"), 3, 2,
                              params={"k": 2.0})
    # noc.expr's block compiler gives the rhs one block and blocks_many all
    # six; no entry is compiled on its own
    assert len(exprs) == 0 and len(blocks) == 2
    endpoint_from_expressions("yT1^2 - k*y02*yT3", 3, params={"k": 2.0})
    # the value, then one function for the gradient pair, one for the Hessians
    assert len(exprs) == 1 and len(blocks) == 4


@pytest.mark.parametrize("text", [
    "yT1^2 - 2*y01*yT2",
    # params, powers, divisions, every function and constant entries
    "-(k*yT2 + y01^2/k) + sqrt(2 + yT1^2)*cos(y02) - abs(y01) + tan(yT2/4)"
    " + log(1 + y02^2) + exp(k*y01)/(1 + yT1^2) - yT1^k + 3*k",
    "-(k*y01*yT2)",                              # -0.0 entries
])
def test_endpoint_derivatives_equal_their_entries_compiled_alone(text):
    from noc.expr import compile_expr, parse_expr

    start, end = ("y01", "y02"), ("yT1", "yT2")
    names = start + end + ("k",)
    e = parse_expr(text, set(names))
    ep = endpoint_from_expressions(text, 2, params={"k": 2.5})

    def block(rows, cols, args):
        return np.array([[compile_expr(e.diff(a).diff(b), names)(*args) for b in cols]
                         for a in rows], float)

    rng = np.random.default_rng(21)
    for _ in range(20):
        y0, yT = rng.normal(size=2), rng.normal(size=2)
        yT[0] = abs(yT[0])                       # yT1^k: a positive base
        args = (*y0, *yT, 2.5)
        got = (*ep.grad(y0, yT), *ep.hess(y0, yT))
        want = (np.array([compile_expr(e.diff(a), names)(*args) for a in start], float),
                np.array([compile_expr(e.diff(a), names)(*args) for a in end], float),
                block(start, start, args), block(start, end, args), block(end, end, args))
        for a, b in zip(got, want):
            assert a.shape == b.shape
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


def test_expression_rhs_equals_its_components_compiled_alone():
    from noc.expr import compile_expr, parse_expr

    texts = ("-(k*y2 + u1^2/k)", "-k^2*sin(y1) + exp(t)*u1 + 2*k")
    names = ("t", "y1", "y2", "u1", "k")
    dyn = dynamics_from_expressions(texts, 2, 1, params={"k": 2.5})
    fns = [compile_expr(parse_expr(text, set(names)), names) for text in texts]
    rng = np.random.default_rng(22)
    for _ in range(20):
        t, y, u = rng.uniform(), rng.normal(size=2), rng.normal(size=1)
        got = dyn.rhs(t, y, u)
        want = np.array([fn(t, *y, *u, 2.5) for fn in fns], float)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


# ----------------------------------------------------------------------------
# state integration
# ----------------------------------------------------------------------------


def test_state_ccs126_matches_closed_form():
    problem = make_ccs126(horizon=0.5, theta=3.0)
    traj = integrate_state(problem, [1.0, 0.0], ccs126_nominal_controls(1000))
    assert np.max(np.abs(traj.states - ccs126_states(traj.grid))) < 1e-8


def test_state_zero_rhs_is_constant():
    dyn = dynamics_from_expressions(("0", "0"), 2, 1)
    problem = make_problem(euclidean(2), 1.0, dyn,
                           linear_endpoint((0.0, 0.0), (1.0, 0.0)))
    traj = integrate_state(problem, [0.3, -0.8], np.ones((16, 1)))
    assert np.max(np.abs(traj.states - np.array([0.3, -0.8]))) == 0.0


def _expm_flow(A, B, y0, controls, T):
    """Exact flow of ydot = A y + B u for piecewise-constant u via the
    augmented matrix exponential."""
    n = A.shape[0]
    N = controls.shape[0]
    h = T / N
    states = np.empty((N + 1, n))
    states[0] = y0
    for i in range(N):
        M = np.zeros((n + 1, n + 1))
        M[:n, :n] = A
        M[:n, n] = B @ controls[i]
        Phi = expm(M * h)
        states[i + 1] = Phi[:n, :n] @ states[i] + Phi[:n, n]
    return states


def test_state_linear_matches_matrix_exponential():
    A = np.array([[0.0, 1.0], [-2.0, -0.3]])
    B = np.array([[0.0], [1.0]])
    dyn = linear_dynamics(A, B)
    problem = make_problem(euclidean(2), 1.0, dyn,
                           linear_endpoint((0.0, 0.0), (1.0, 0.0)))
    rng = np.random.default_rng(5)
    controls = rng.uniform(-1, 1, size=(400, 1))
    y0 = np.array([0.7, -0.4])
    traj = integrate_state(problem, y0, controls)
    ref = _expm_flow(A, B, y0, controls, 1.0)
    assert np.max(np.abs(traj.states - ref)) < 1e-7


def test_state_grid_convergence_order():
    # The bundled planar example has polynomial cell dynamics, so one-step
    # RK4 reproduces its closed form to roundoff at any resolution.
    problem = make_ccs126()
    for N in (50, 100):
        traj = integrate_state(problem, [1.0, 0.0], ccs126_nominal_controls(N))
        assert np.max(np.abs(traj.states - ccs126_states(traj.grid))) < 1e-12
    # A transcendental system shows the genuine fourth-order step ratio.
    dyn = dynamics_from_expressions(("sin(y1) + u1",), 1, 1)
    problem2 = make_problem(euclidean(1), 1.0, dyn,
                            linear_endpoint((0.0,), (1.0,)))
    u64 = wiggly_controls(64, 0.4, m=1)
    y0 = [0.5]
    ref = integrate_state(problem2, y0, refine_controls(u64, 128)).states[-1]
    e64 = abs(integrate_state(problem2, y0, u64).states[-1] - ref)[0]
    e128 = abs(integrate_state(problem2, y0, refine_controls(u64, 2)).states[-1] - ref)[0]
    assert e64 > 1e-12  # truncation-dominated regime
    assert e64 / e128 >= 8.0


def test_trajectory_nodes_are_one_step_rk4_images():
    problem = make_ccs126()
    traj = integrate_state(problem, [1.0, 0.0], ccs126_nominal_controls(64))
    h = traj.step
    for i in (0, 13, 63):
        y = traj.states[i]
        u = traj.controls[i]
        t = traj.grid[i]
        k1 = problem.dynamics.rhs(t, y, u)
        k2 = problem.dynamics.rhs(t + 0.5 * h, y + 0.5 * h * k1, u)
        k3 = problem.dynamics.rhs(t + 0.5 * h, y + 0.5 * h * k2, u)
        k4 = problem.dynamics.rhs(t + h, y + h * k3, u)
        step = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.array_equal(step, traj.states[i + 1])


def test_state_rejects_bad_control_shape():
    problem = make_ccs126()
    with pytest.raises(ValueError):
        integrate_state(problem, [1.0, 0.0], np.zeros((10, 3)))
    with pytest.raises(NonFiniteState):
        integrate_state(problem, [1.0, 0.0], np.full((10, 2), np.nan))


def test_state_blowup_raises_nonfinite():
    dyn = dynamics_from_expressions(("y1^2",), 1, 1)
    problem = make_problem(euclidean(1), 1.0, dyn,
                           linear_endpoint((0.0,), (1.0,)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteState):
            integrate_state(problem, [5.0], np.zeros((20, 1)))


def test_state_chart_escape_on_sphere():
    dyn = dynamics_from_expressions(("3*y1", "3*y2"), 2, 1)
    problem = make_problem(sphere(1.0), 1.0, dyn,
                           linear_endpoint((0.0, 0.0), (1.0, 0.0)),
                           probe_base=(2.0, 2.0))
    with pytest.raises(ChartEscape):
        integrate_state(problem, [2.0, 2.0], np.zeros((50, 1)))


# ----------------------------------------------------------------------------
# the float RK4 cell of expression models
# ----------------------------------------------------------------------------


def _without_cell(problem):
    """The same problem on the numpy RK4 path alone."""
    return dataclasses.replace(
        problem, dynamics=dataclasses.replace(problem.dynamics, rk4_cell=None))


def _state_outcome(problem, start, controls):
    """integrate_state's states, or its error, and its first RuntimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = integrate_state(problem, start, controls).states
        except NocError as ex:
            result = (type(ex), str(ex))
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    return result, runtime[:1]


def _sphere_check_problem():
    """perfbench/sphere.noc as built by the CLI, with varying controls."""
    text = (Path(__file__).resolve().parents[1] / "perfbench" / "sphere.noc").read_text()
    pf = parse_problem_file(text)
    return build_control_problem(pf), pf.start, wiggly_controls(pf.cells, 0.8, m=1)


def _param_model_problem():
    dyn = dynamics_from_expressions(
        ("k*sin(y2) + exp(-abs(y1))*u1", "sqrt(1 + y1^2)^k - y2^3/3 + u1^2"), 2, 1,
        params={"k": 1.5})
    problem = make_problem(euclidean(2), 2.0, dyn, linear_endpoint((0.0, 0.0), (1.0, 0.0)))
    return problem, [0.3, -0.2], wiggly_controls(1000, 0.5, m=1)


@pytest.mark.parametrize("which", ["ccs126", "sphere-check", "param-model"])
def test_float_cell_states_equal_the_numpy_path(which):
    if which == "ccs126":
        problem, start, controls = make_ccs126(), [1.0, 0.0], wiggly_controls(1000, 0.5)
    elif which == "sphere-check":
        problem, start, controls = _sphere_check_problem()
    else:
        problem, start, controls = _param_model_problem()
    assert problem.dynamics.rk4_cell is not None
    got = integrate_state(problem, start, controls).states
    want = integrate_state(_without_cell(problem), start, controls).states
    if which == "param-model":
        # math.exp and numpy's exp may round differently in the last place
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    else:
        np.testing.assert_array_equal(got, want)


def _per_cell_outcome(monkeypatch, problem, start, controls):
    """``_state_outcome`` with the float cells run one Python call per cell
    (``_reference.float_cells``) instead of by the compiled loop."""
    import noc.dynamics

    cell = problem.dynamics.rk4_cell
    with monkeypatch.context() as patch:
        patch.setattr(noc.dynamics, "_float_cells",
                      lambda run, *args: float_cells(cell, *args))
        return _state_outcome(problem, start, controls)


@pytest.mark.parametrize("which", ["ccs126", "sphere-check", "param-model"])
def test_the_compiled_loop_equals_the_per_cell_loop(monkeypatch, which):
    if which == "ccs126":
        problem, start, controls = make_ccs126(), [1.0, 0.0], wiggly_controls(1000, 0.5)
    elif which == "sphere-check":
        problem, start, controls = _sphere_check_problem()
    else:
        problem, start, controls = _param_model_problem()
    got = _state_outcome(problem, start, controls)
    want = _per_cell_outcome(monkeypatch, problem, start, controls)
    assert got[1] == want[1] == []
    assert got[0].tobytes() == want[0].tobytes()


def test_a_float_stretch_resumes_after_the_cell_redone_on_numpy(monkeypatch):
    # math.exp(1000) raises where numpy gives inf and 1/(1 + inf) = 0 goes
    # on, so cell 7 alone fails on floats: the numpy path redoes it and the
    # next stretch starts at cell 8
    import noc.dynamics

    problem = _expression_problem(("-y1 + 1/(1 + exp(u1))",), [0.5], 3.0)
    controls = wiggly_controls(30, 0.5, m=1)
    controls[7] = 1000.0
    stretches = []
    float_stretch = noc.dynamics._float_cells

    def recorded(run, chart, times, rows, h, states, start):
        stretches.append((start, float_stretch(run, chart, times, rows, h, states, start)))
        return stretches[-1][1]

    with monkeypatch.context() as patch:
        patch.setattr(noc.dynamics, "_float_cells", recorded)
        got = _state_outcome(problem, [0.5], controls)
    assert stretches == [(0, 7), (8, 30)]
    want = _per_cell_outcome(monkeypatch, problem, [0.5], controls)
    assert got[1] == want[1] == ["overflow encountered in exp"]
    assert got[0].tobytes() == want[0].tobytes()
    numpy_path = _state_outcome(_without_cell(problem), [0.5], controls)
    np.testing.assert_allclose(got[0], numpy_path[0], rtol=1e-14, atol=0.0)


def _expression_problem(text, start, horizon, chart=None):
    n = len(start)
    dyn = dynamics_from_expressions(text, n, 1)
    return make_problem(chart or euclidean(n), horizon, dyn,
                        linear_endpoint((0.0,) * n, (1.0,) + (0.0,) * (n - 1)),
                        probe_base=start)


@pytest.mark.parametrize("text, start, horizon, error, warning", [
    # math.sqrt raises on a negative stage value where numpy warns
    (("-sqrt(y1)",), [1.0], 3.0, NonFiniteState, "invalid value encountered in sqrt"),
    # a negative base to a fractional power is complex for floats, nan in numpy
    (("0.1*y1^1.5 - 1",), [1.0], 3.0, NonFiniteState,
     "invalid value encountered in scalar power"),
    # the state leaves the stereographic disc of radius 8
    (("y1 + u1", "y2"), [1.0, 0.5], 3.0, ChartEscape, None),
    # math.exp overflows where numpy gives inf, and 1/(1 + inf) = 0 goes on
    (("1 + 1/(1 + exp(exp(y1)))",), [0.0], 8.0, None, "overflow encountered in exp"),
    # a float product overflows to inf silently; each sink that would turn
    # it back into a finite value raises, so the numpy path warns as before
    (("y1 + 1/(1 + y1*y1*y1*y1*y1*y1*y1*y1)",), [1.0], 100.0, None,
     "overflow encountered in scalar multiply"),
    (("y1 + (y1*y1*y1*y1*y1*y1*y1*y1)^(-1)",), [1.0], 100.0, None,
     "overflow encountered in scalar multiply"),
    (("y1 + 0.5^(y1*y1*y1*y1*y1*y1*y1*y1)",), [1.0], 100.0, None,
     "overflow encountered in scalar multiply"),
    (("y1 + exp(-y1*y1*y1*y1*y1*y1*y1*y1)",), [1.0], 100.0, None,
     "overflow encountered in scalar multiply"),
])
def test_failing_float_cells_are_redone_on_the_numpy_path(text, start, horizon, error,
                                                          warning):
    chart = sphere(1.0) if len(start) == 2 else None
    problem = _expression_problem(text, start, horizon, chart)
    controls = np.zeros((30, 1))
    got = _state_outcome(problem, start, controls)
    want = _state_outcome(_without_cell(problem), start, controls)
    assert got[1] == want[1] == ([warning] if warning else [])
    if error is None:
        np.testing.assert_allclose(got[0], want[0], rtol=1e-14, atol=0.0)
    else:
        assert got[0] == want[0]
        assert got[0][0] is error and "in cell" in got[0][1]


def test_float_cells_without_a_sink_carry_no_guard():
    # ccs126 and the sphere check have no division, negative power or exp:
    # their cells call no guard
    for dyn in (make_ccs126().dynamics, _sphere_check_problem()[0].dynamics):
        assert "_finite" not in dyn.rk4_cell.__code__.co_names
    guarded = dynamics_from_expressions(("y1 + 1/(1 + y1^2)",), 1, 1)
    assert "_finite" in guarded.rk4_cell.__code__.co_names


def test_rebind_carries_the_float_cell_to_new_params():
    dyn = dynamics_from_expressions(("k*y2 + u1", "-k^2*y1 + k*u1"), 2, 1,
                                    params={"k": 1.0})
    moved = dyn.rebind({"k": 2.5})
    assert moved.rk4_cell.func is dyn.rk4_cell.func
    y, u = np.array([0.3, -0.2]), np.array([0.1])
    want = _rk4_step(lambda t, z: moved.rhs(t, z, u), 0.2, y, 0.05)
    np.testing.assert_array_equal(moved.rk4_cell(0.2, 0.05, 0.3, -0.2, 0.1), want)
    assert not np.array_equal(dyn.rk4_cell(0.2, 0.05, 0.3, -0.2, 0.1), want)


def test_rebind_carries_the_compiled_loop_to_new_params():
    dyn = dynamics_from_expressions(("k*y2 + u1", "-k^2*y1 + k*u1"), 2, 1,
                                    params={"k": 1.0})
    moved = dyn.rebind({"k": 2.5})
    assert moved.rk4_cell.run.func is dyn.rk4_cell.run.func
    done = []
    assert moved.rk4_cell.run([0.2, 0.25], 0.05, [[0.1]], 0, [0.3, -0.2], done) == 1
    assert done == [moved.rk4_cell(0.2, 0.05, 0.3, -0.2, 0.1)]


def test_make_problem_rejects_a_float_cell_that_disagrees_with_rk4():
    dyn = dynamics_from_expressions(("y2", "-y1 + u1"), 2, 1)
    cost = linear_endpoint((0.0, 0.0), (1.0, 0.0))

    def euler(t, h, y1, y2, u1):
        return y1 + h * y2, y2 + h * (u1 - y1)

    with pytest.raises(NocError, match="float RK4 cell"):
        make_problem(euclidean(2), 1.0, dataclasses.replace(dyn, rk4_cell=euler), cost)
    make_problem(euclidean(2), 1.0, dyn, cost)


def test_non_finite_fields_name_the_first_cell_in_loop_order():
    # the state stays at 0, while each cell multiplies a perturbation by the
    # RK4 factor of a*h = 50, so X overflows forward and p backward
    problem = _expression_problem(("2000*y1 + u1",), [0.0], 2.0)
    traj = integrate_state(problem, [0.0], np.zeros((80, 1)))
    v = np.ones((80, 1))
    M, B = _cell_propagators(problem, traj)
    with np.errstate(over="ignore", invalid="ignore"):
        X, forward = np.array([1.0]), None
        for i in range(80):         # the per-cell check the pass used to make
            X = M[i] @ X + B[i] @ v[i]
            if forward is None and not np.all(np.isfinite(X)):
                forward = i
        p, backward = np.array([1.0]), None
        for i in range(79, -1, -1):
            p = M[i].T @ p
            if backward is None and not np.all(np.isfinite(p)):
                backward = i
        assert 0 < backward < forward < 79
        with pytest.raises(NonFiniteState, match=f"variational field became "
                                                 f"non-finite in cell {forward}$"):
            integrate_variational(problem, traj, v, [1.0])
        with pytest.raises(NonFiniteState, match=f"adjoint became non-finite in "
                                                 f"cell {backward}$"):
            integrate_adjoint(problem, traj, [1.0])


def _variational_steps(problem, traj, v, X0):
    iterates = yield _variational_chain(problem, traj, v, X0)
    return integrate_variational(problem, traj, v, X0, _iterates=iterates)


def _adjoint_steps(problem, traj, ell):
    ell = np.asarray(ell, float)
    columns = ell.T if ell.ndim == 2 else [ell]
    terminal = np.stack([lagrange_data(problem, traj.states[0], traj.states[-1],
                                       w).grad_end for w in columns], axis=-1)
    iterates = yield _adjoint_chain(problem, traj,
                                    terminal if ell.ndim == 2 else terminal[:, 0])
    return integrate_adjoint(problem, traj, ell, _iterates=iterates)


@pytest.mark.parametrize("make, ells", [
    (make_flat_nonlinear, ([1.0], [[1.0]])),
    (make_sphere_nonlinear, ([1.0, -0.5], np.eye(2), [[1.0], [0.3]])),
])
def test_stacked_passes_equal_the_passes_run_alone(monkeypatch, make, ells):
    # three horizons, so three sets of propagators, run as one chain per
    # pass: every field is bit for bit the one its point gets alone
    import noc.dynamics

    points = []
    for horizon, scale in ((0.5, 0.1), (0.8, 0.3), (1.1, -0.2)):
        problem = make(horizon)
        traj = integrate_state(problem, [0.2, -0.1], wiggly_controls(60, scale))
        points.append((problem, traj, wiggly_controls(60, 0.3 * scale),
                       [scale, 0.05]))
    alone = [integrate_variational(*point).values for point in points]
    chains = _count_calls(monkeypatch, noc.dynamics, "_chain")
    stacked = run_stacked([_variational_steps(*point) for point in points])
    assert len(chains) == 1
    for field, want in zip(stacked, alone):
        np.testing.assert_array_equal(field.values, want)
        assert field.values.flags.c_contiguous
    for ell in ells:
        alone = [integrate_adjoint(problem, traj, ell).values
                 for problem, traj, *_ in points]
        del chains[:]
        stacked = run_stacked([_adjoint_steps(problem, traj, ell)
                               for problem, traj, *_ in points])
        assert len(chains) == 1
        for field, want in zip(stacked, alone):
            assert field.values.shape == want.shape
            np.testing.assert_array_equal(field.values, want)


def test_an_overflowing_point_leaves_its_neighbours_alone():
    # the middle point's field overflows; the stacked run raises no warning
    # for it, the point meets its own warnings when it is redone alone, and
    # the other points keep the fields they get alone
    points = []
    for rate in ("1.5", "2000", "-0.5"):
        problem = _expression_problem((f"{rate}*y1 + u1",), [0.0], 2.0)
        traj = integrate_state(problem, [0.0], np.zeros((80, 1)))
        points.append((problem, traj, np.ones((80, 1)), [1.0]))

    def run(fn, *args):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                return fn(*args), [str(w.message) for w in caught]
            except NocError as ex:
                return ex, [str(w.message) for w in caught]

    alone = [run(integrate_variational, *point) for point in points]
    (stacked, stacked_warnings) = run(
        run_stacked, [_variational_steps(*point) for point in points])
    assert isinstance(alone[1][0], NonFiniteState) and alone[1][1]
    assert isinstance(stacked[1], NonFiniteState)
    assert str(stacked[1]) == str(alone[1][0])
    assert stacked_warnings == alone[1][1]
    for i in (0, 2):
        assert not alone[i][1]
        np.testing.assert_array_equal(stacked[i].values, alone[i][0].values)
    alone = [run(integrate_adjoint, problem, traj, [1.0])
             for problem, traj, *_ in points]
    (stacked, stacked_warnings) = run(
        run_stacked, [_adjoint_steps(problem, traj, [1.0])
                      for problem, traj, *_ in points])
    assert isinstance(stacked[1], NonFiniteState)
    assert str(stacked[1]) == str(alone[1][0])
    assert stacked_warnings == alone[1][1]
    for i in (0, 2):
        np.testing.assert_array_equal(stacked[i].values, alone[i][0].values)


# ----------------------------------------------------------------------------
# first variational field
# ----------------------------------------------------------------------------


def test_variational_linear_matches_matrix_exponential():
    A = np.array([[0.0, 1.0], [-2.0, -0.3]])
    B = np.array([[0.0], [1.0]])
    dyn = linear_dynamics(A, B)
    problem = make_problem(euclidean(2), 1.0, dyn,
                           linear_endpoint((0.0, 0.0), (1.0, 0.0)))
    rng = np.random.default_rng(6)
    controls = rng.uniform(-1, 1, size=(400, 1))
    v = rng.uniform(-1, 1, size=(400, 1))
    traj = integrate_state(problem, [0.7, -0.4], controls)
    X0 = np.array([0.3, -1.1])
    X = integrate_variational(problem, traj, v, X0)
    ref = _expm_flow(A, B, X0, v, 1.0)  # X obeys the same linear system
    assert np.max(np.abs(X.values - ref)) < 1e-7


def test_variational_ccs126_vanishing_direction():
    # at the nominal control u1 = 0, so the direction (1, 0) is invisible to
    # first order and X stays identically zero
    problem = make_ccs126()
    traj = integrate_state(problem, [1.0, 0.0], ccs126_nominal_controls(200))
    v = np.tile([1.0, 0.0], (200, 1))
    X = integrate_variational(problem, traj, v, np.zeros(2))
    assert np.max(np.abs(X.values)) < 1e-14


def test_variational_zero_inputs_zero_field():
    problem = make_flat_nonlinear()
    traj = integrate_state(problem, [0.3, -0.2], wiggly_controls(50))
    X = integrate_variational(problem, traj, np.zeros((50, 2)), np.zeros(2))
    assert np.max(np.abs(X.values)) == 0.0


def test_variational_linearity():
    problem = make_flat_nonlinear()
    traj = integrate_state(problem, [0.3, -0.2], wiggly_controls(60))
    rng = np.random.default_rng(7)
    v1, v2 = rng.normal(size=(2, 60, 2))
    X01, X02 = rng.normal(size=(2, 2))
    a, b = 0.7, -1.3
    Xa = integrate_variational(problem, traj, v1, X01).values
    Xb = integrate_variational(problem, traj, v2, X02).values
    Xc = integrate_variational(problem, traj, a * v1 + b * v2,
                               a * X01 + b * X02).values
    assert np.max(np.abs(Xc - (a * Xa + b * Xb))) < 1e-12 * (1 + np.abs(Xc).max())


def test_variational_is_exact_discrete_derivative():
    problem = make_flat_nonlinear()
    u = wiggly_controls(64, 0.2)
    y0 = np.array([0.3, -0.2])
    traj = integrate_state(problem, y0, u)
    rng = np.random.default_rng(8)
    v = rng.normal(size=(64, 2))
    X0 = rng.normal(size=2)
    X = integrate_variational(problem, traj, v, X0)
    eps = 1e-4
    plus = integrate_state(problem, y0 + eps * X0, u + eps * v).states
    minus = integrate_state(problem, y0 - eps * X0, u - eps * v).states
    fd = (plus - minus) / (2 * eps)
    assert np.max(np.abs(fd - X.values)) < 1e-7 * (1 + np.abs(X.values).max())


def test_variational_base_mismatch():
    problem = make_flat_nonlinear()
    traj = integrate_state(problem, [0.3, -0.2], wiggly_controls(10))
    bad = TangentVector(base=np.array([9.0, 9.0]), components=np.zeros(2))
    with pytest.raises(BasePointMismatch):
        integrate_variational(problem, traj, np.zeros((10, 2)), bad)


# ----------------------------------------------------------------------------
# second variational field
# ----------------------------------------------------------------------------


def test_second_variation_ccs126_closed_form():
    theta = 3.0
    problem = make_ccs126(horizon=0.5, theta=theta)
    N = 1000
    traj = integrate_state(problem, [1.0, 0.0], ccs126_nominal_controls(N))
    v = np.tile([1.0, 0.0], (N, 1))
    sig = np.tile([0.0, 0.5], (N, 1))
    X = integrate_variational(problem, traj, v, np.zeros(2))
    Y = integrate_second_variation(problem, traj, v, X, sig, np.zeros(2))
    ref = ccs126_second_field(traj.grid, theta)
    assert np.max(np.abs(Y.values[:, 0] - 0.5 * traj.grid)) < 1e-12
    assert np.max(np.abs(Y.values - ref)) < 1e-9
    assert abs(Y.values[-1, 0] - 0.25) < 1e-13  # Y1(T) = T/2 exactly


def test_second_variation_zero_for_linear_dynamics():
    dyn = linear_dynamics(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))
    problem = make_problem(euclidean(2), 1.0, dyn,
                           linear_endpoint((0.0, 0.0), (1.0, 0.0)))
    traj = integrate_state(problem, [1.0, 0.0], wiggly_controls(40))
    rng = np.random.default_rng(9)
    v = rng.normal(size=(40, 2))
    X = integrate_variational(problem, traj, v, rng.normal(size=2))
    Y = integrate_second_variation(problem, traj, v, X, np.zeros((40, 2)),
                                   np.zeros(2))
    assert np.max(np.abs(Y.values)) == 0.0


def test_second_variation_affine_decomposition_on_sphere():
    # Y with (accelerations, W) minus Y with (0, 0) equals the first-order
    # field driven by (accelerations, W), exactly, including on curved charts.
    problem = make_sphere_nonlinear()
    N = 80
    traj = integrate_state(problem, [0.1, -0.2], wiggly_controls(N))
    rng = np.random.default_rng(10)
    v = 0.3 * rng.normal(size=(N, 2))
    X0 = 0.3 * rng.normal(size=2)
    sig = 0.4 * rng.normal(size=(N, 2))
    W = 0.4 * rng.normal(size=2)
    X = integrate_variational(problem, traj, v, X0)
    Y_full = integrate_second_variation(problem, traj, v, X, sig, W).values
    Y_zero = integrate_second_variation(problem, traj, v, X,
                                        np.zeros((N, 2)), np.zeros(2)).values
    X_affine = integrate_variational(problem, traj, sig, W).values
    assert np.max(np.abs(Y_full - (Y_zero + X_affine))) < 1e-9


def test_second_variation_is_exact_discrete_half_second_derivative():
    problem = make_flat_nonlinear()
    N = 48
    u = wiggly_controls(N, 0.2)
    y0 = np.array([0.3, -0.2])
    traj = integrate_state(problem, y0, u)
    rng = np.random.default_rng(11)
    v = rng.normal(size=(N, 2))
    X0 = rng.normal(size=2)
    sig = rng.normal(size=(N, 2))
    W = rng.normal(size=2)
    X = integrate_variational(problem, traj, v, X0)
    Y = integrate_second_variation(problem, traj, v, X, sig, W).values
    eps = 1e-3
    plus = integrate_state(problem, y0 + eps * X0 + eps**2 * W,
                           u + eps * v + eps**2 * sig).states
    minus = integrate_state(problem, y0 - eps * X0 + eps**2 * W,
                            u - eps * v + eps**2 * sig).states
    fd = (plus + minus - 2 * traj.states) / (2 * eps**2)
    assert np.max(np.abs(fd - Y)) < 1e-4 * (1 + np.abs(Y).max())


def _integrate_second_direct(problem, traj, v_seq, X0, s_seq, W):
    """Independent route: integrate the covariant second-order ODE directly
    in chart coordinates with explicit connection, covariant-Hessian and
    curvature terms (no plain-coordinate cancellation trick)."""
    chart = problem.chart
    dyn = problem.dynamics
    n = problem.state_dim
    N = traj.num_cells
    h = traj.step
    z = np.concatenate([traj.states[0], np.asarray(X0, float), np.asarray(W, float)])
    vals = np.empty((N + 1, n))
    vals[0] = z[2 * n:]
    for i in range(N):
        u = traj.controls[i]
        v = v_seq[i]
        s = s_seq[i]

        def fun(t, zz):
            y, Xc, Yc = zz[:n], zz[n:2 * n], zz[2 * n:]
            f = dyn.rhs(t, y, u)
            fy = dyn.rhs_y(t, y, u)
            fu = dyn.rhs_u(t, y, u)
            gam = christoffel(chart, y)
            dgam = dchristoffel(chart, y)
            R = curvature(chart, y).components
            cov_jac = fy + np.einsum("kjm,m->kj", gam, f)
            hess = (dyn.rhs_yy(t, y, u)
                    + np.einsum("ikjm,m->kij", dgam, f)
                    + np.einsum("kjm,mi->kij", gam, fy)
                    + np.einsum("kim,mj->kij", gam, fy)
                    + np.einsum("kim,mjl,l->kij", gam, gam, f)
                    - np.einsum("mij,km->kij", gam, fy)
                    - np.einsum("mij,kml,l->kij", gam, gam, f))
            mixed = (np.einsum("kia,i,a->k", dyn.rhs_yu(t, y, u), Xc, v)
                     + np.einsum("kij,i,j->k", gam, fu @ v, Xc))
            curv_term = np.einsum("lijk,i,j,k->l", R, Xc, f, Xc)
            Xdot = -np.einsum("kij,i,j->k", gam, f, Xc) + cov_jac @ Xc + fu @ v
            Ydot = (-np.einsum("kij,i,j->k", gam, f, Yc) + cov_jac @ Yc
                    + fu @ s + mixed
                    + 0.5 * np.einsum("kij,i,j->k", hess, Xc, Xc)
                    - 0.5 * curv_term
                    + 0.5 * np.einsum("kab,a,b->k", dyn.rhs_uu(t, y, u), v, v))
            return np.concatenate([f, Xdot, Ydot])

        z[:n] = traj.states[i]
        z = z + 0.0  # fresh array per cell
        k1 = fun(traj.grid[i], z)
        k2 = fun(traj.grid[i] + 0.5 * h, z + 0.5 * h * k1)
        k3 = fun(traj.grid[i] + 0.5 * h, z + 0.5 * h * k2)
        k4 = fun(traj.grid[i] + h, z + h * k3)
        z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        vals[i + 1] = z[2 * n:]
    return vals


def test_second_variation_agrees_with_direct_covariant_route():
    # The library recovers Y from a plain-coordinate system plus a Γ(X,X)/2
    # shift; integrating the covariant ODE with its explicit curvature term
    # must land on the same field. A wrong curvature sign or slot order
    # would show up at the 1e-3 level here.
    problem = make_sphere_nonlinear()
    N = 200
    traj = integrate_state(problem, [0.1, -0.2], wiggly_controls(N))
    rng = np.random.default_rng(12)
    v = 0.3 * rng.normal(size=(N, 2))
    X0 = np.array([0.4, -0.1])
    sig = 0.3 * rng.normal(size=(N, 2))
    W = np.array([-0.2, 0.3])
    X = integrate_variational(problem, traj, v, X0)
    Y = integrate_second_variation(problem, traj, v, X, sig, W).values
    Y_direct = _integrate_second_direct(problem, traj, v, X0, sig, W)
    assert np.max(np.abs(Y - Y_direct)) < 1e-8


def test_second_variation_rejects_foreign_first_field():
    problem = make_flat_nonlinear()
    traj = integrate_state(problem, [0.3, -0.2], wiggly_controls(30))
    v = np.tile([0.5, 0.0], (30, 1))
    other = integrate_variational(problem, traj, np.tile([0.0, 0.7], (30, 1)),
                                  np.array([1.0, 0.0]))
    with pytest.raises(NocError, match="first_field"):
        integrate_second_variation(problem, traj, v, other, np.zeros((30, 2)),
                                   np.zeros(2))


def test_second_variation_takes_one_block_call_per_stage(monkeypatch):
    import noc.dynamics

    problem = make_sphere_nonlinear()
    traj = integrate_state(problem, [0.1, -0.2], wiggly_controls(30))
    v = wiggly_controls(30, 0.5)
    blocks = _count_calls(monkeypatch, noc.dynamics, "_blocks_along")
    X = integrate_variational(problem, traj, v, [0.2, 0.1])
    assert len(blocks) == 4
    integrate_second_variation(problem, traj, v, X, v, np.zeros(2))
    # all cells at once, on the propagators the first field built
    assert len(blocks) == 4 + 4


_NON_FINITE = "second-order field became non-finite in cell {}"
_DRIFT = (r"first_field is not the variational field of the given directions "
          r"\(drift [0-9.e+-]+ in cell {}\)")
FIRST_FAILURES = {
    "huge directions": (NonFiniteState, _NON_FINITE.format(0)),
    "foreign": (NocError, _DRIFT.format(0)),
    "drift 5": (NocError, _DRIFT.format(5)),
    "drift 5, inf 8": (NocError, _DRIFT.format(5)),
    "drift 5, inf 5": (NonFiniteState, _NON_FINITE.format(5)),
    "drift 5, inf 3": (NonFiniteState, _NON_FINITE.format(3)),
}


@pytest.mark.parametrize("case", list(FIRST_FAILURES))
def test_second_variation_reports_its_first_failing_cell(case):
    # the cells run at once, but a failure names the cell a cell-by-cell
    # pass meets first, a non-finite step before a drift in the same cell
    problem = make_flat_nonlinear()
    N = 30
    traj = integrate_state(problem, [0.3, -0.2], wiggly_controls(N))
    v = np.full((N, 2), 1e160 if case == "huge directions" else 0.5)
    sig = np.zeros((N, 2))
    X = integrate_variational(problem, traj, v, np.zeros(2))
    if case == "foreign":
        X = integrate_variational(problem, traj, np.tile([0.0, 0.7], (N, 1)),
                                  np.array([1.0, 0.0]))
    if case.startswith("drift 5"):
        shifted = X.values + 1e-3 * (np.arange(N + 1) > 5)[:, None]
        X = FieldAlongCurve(trajectory=traj, values=shifted, kind="tangent")
    if "inf" in case:
        sig[int(case[-1])] = np.inf
    error, message = FIRST_FAILURES[case]
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(error, match=f"^{message}$"):
        integrate_second_variation(problem, traj, v, X, sig, np.zeros(2))


def test_a_nan_in_the_first_field_keeps_the_earlier_drift_check():
    # a NaN at node 8 must not turn the drift limit into NaN: the drift in
    # cell 5 comes first
    problem = make_flat_nonlinear()
    N = 30
    traj = integrate_state(problem, [0.3, -0.2], wiggly_controls(N))
    v = np.full((N, 2), 0.5)
    X = integrate_variational(problem, traj, v, np.zeros(2)).values.copy()
    X[6:] += 0.5
    X[8] = np.nan
    field = FieldAlongCurve(trajectory=traj, values=X, kind="tangent")
    with np.errstate(invalid="ignore"), pytest.raises(
            NocError, match=r"^first_field is not the variational field of the "
                            r"given directions \(drift 5\.000e-01 in cell 5\)$"):
        integrate_second_variation(problem, traj, v, field, np.zeros((N, 2)), np.zeros(2))


@pytest.mark.parametrize("shape", [(20, 2), (21, 3)])
def test_second_variation_checks_the_first_field_shape(monkeypatch, shape):
    import noc.dynamics

    problem = make_sphere_nonlinear()
    traj = integrate_state(problem, [0.1, -0.2], wiggly_controls(20))
    v = np.zeros((20, 2))
    field = FieldAlongCurve(trajectory=traj, values=np.zeros(shape), kind="tangent")
    geometry = _count_calls(monkeypatch, noc.dynamics, "christoffel_apply")
    blocks = _count_calls(monkeypatch, noc.dynamics, "_blocks_along")
    with pytest.raises(ValueError, match=fr"shape \(21, 2\), got \({shape[0]}, {shape[1]}\)"):
        integrate_second_variation(problem, traj, v, field, v, np.zeros(2))
    assert not geometry and not blocks


# ----------------------------------------------------------------------------
# adjoint
# ----------------------------------------------------------------------------


def test_adjoint_linear_matches_matrix_exponential():
    A = np.array([[0.0, 1.0], [-2.0, -0.3]])
    dyn = linear_dynamics(A, np.eye(2))
    problem = make_problem(euclidean(2), 1.0, dyn,
                           linear_endpoint((0.0, 0.0), (0.8, -0.6)))
    traj = integrate_state(problem, [0.7, -0.4], wiggly_controls(400))
    p = integrate_adjoint(problem, traj, [1.0])
    pT = np.array([0.8, -0.6])
    ref = np.array([expm(A.T * (1.0 - t)) @ pT for t in traj.grid])
    assert np.max(np.abs(p.values - ref)) < 1e-7
    np.testing.assert_allclose(p.values[-1], pT, atol=1e-15)


def _coupled_rk4_cell(problem, traj, i, X, v):
    """One literal coupled (y, X) RK4 step of cell i from per-node callbacks."""
    dyn = problem.dynamics
    u = traj.controls[i]
    n = problem.state_dim

    def fun(t, z):
        y, Xc = z[:n], z[n:]
        return np.concatenate([dyn.rhs(t, y, u),
                               dyn.rhs_y(t, y, u) @ Xc + dyn.rhs_u(t, y, u) @ v])

    h = traj.step
    t, z = traj.grid[i], np.concatenate([traj.states[i], X])
    k1 = fun(t, z)
    k2 = fun(t + 0.5 * h, z + 0.5 * h * k1)
    k3 = fun(t + 0.5 * h, z + 0.5 * h * k2)
    k4 = fun(t + h, z + h * k3)
    return (z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))[n:]


def test_adjoint_and_variational_match_per_cell_forward_rk4():
    # reference: each cell's maps M_i, B_i built column by column from a
    # literal coupled (y, X) RK4 step; the variational field is the forward
    # recursion X_{i+1} = M_i X_i + B_i v_i and the adjoint its exact
    # transpose p_i = M_i^T p_{i+1}, so only rounding may differ
    problem = make_sphere_nonlinear()
    N = 60
    traj = integrate_state(problem, [0.1, -0.2], wiggly_controls(N, scale=0.4))
    ell = np.array([0.8, -0.3])
    v = wiggly_controls(N, scale=0.3)[::-1]
    X0 = np.array([0.3, -0.5])
    eye2 = np.eye(2)
    M = [np.stack([_coupled_rk4_cell(problem, traj, i, e, np.zeros(2))
                   for e in eye2], axis=1) for i in range(N)]
    B = [np.stack([_coupled_rk4_cell(problem, traj, i, np.zeros(2), e)
                   for e in eye2], axis=1) for i in range(N)]
    p = lagrange_data(problem, traj.states[0], traj.states[-1], ell).grad_end
    ref_p = [p]
    for i in range(N - 1, -1, -1):
        p = M[i].T @ p
        ref_p.append(p)
    X = X0
    ref_X = [X]
    for i in range(N):
        X = M[i] @ X + B[i] @ v[i]
        ref_X.append(X)
    got_p = integrate_adjoint(problem, traj, ell).values
    got_X = integrate_variational(problem, traj, v, X0).values
    np.testing.assert_allclose(got_p, np.array(ref_p[::-1]), rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(got_X, np.array(ref_X), rtol=1e-13, atol=1e-14)


def test_discrete_duality_holds_to_rounding():
    # with v = 0 the pairing p_i . X_i is constant along the discrete flow;
    # a coarse grid and large controls make any O(h^4) mismatch between the
    # adjoint and the variational step visible
    problem = make_sphere_nonlinear()
    N = 8
    traj = integrate_state(problem, [0.1, -0.2], wiggly_controls(N, scale=0.6))
    X = integrate_variational(problem, traj, np.zeros((N, 2)), [0.3, -0.5]).values
    p = integrate_adjoint(problem, traj, [0.8, -0.3]).values
    pairing = np.einsum("ij,ij->i", p, X)
    assert np.max(np.abs(pairing - pairing[-1])) <= 1e-13


def test_adjoint_constant_when_state_free():
    dyn = dynamics_from_expressions(("u1", "u2"), 2, 2)
    problem = make_problem(euclidean(2), 1.0, dyn,
                           linear_endpoint((0.0, 0.0), (0.3, 0.9)))
    traj = integrate_state(problem, [0.0, 0.0], wiggly_controls(30))
    p = integrate_adjoint(problem, traj, [1.0])
    assert np.max(np.abs(p.values - np.array([0.3, 0.9]))) == 0.0


def test_adjoint_ccs126_closed_form():
    problem = make_ccs126(horizon=0.5)
    traj = integrate_state(problem, [1.0, 0.0], ccs126_nominal_controls(500))
    ell = np.array([-1.0, 0.4, 7.0])  # equality weights do not touch p
    p = integrate_adjoint(problem, traj, ell)
    ref = ccs126_adjoint(traj.grid, 0.5, ell0=-1.0)
    assert np.max(np.abs(p.values - ref)) < 1e-10


# ----------------------------------------------------------------------------
# Hamiltonian and blocks
# ----------------------------------------------------------------------------


def test_hamiltonian_values():
    problem = make_ccs126(theta=3.0)
    y = np.array([0.9, -0.5])
    u = np.array([0.2, -1.0])
    p = CotangentVector(base=y, components=np.array([0.7, -0.3]))
    expect = 0.7 * u[1] + (-0.3) * (-y[0] ** 2 + 4 * y[0] * u[1] - 3.0 * u[0] ** 2)
    assert abs(hamiltonian(problem, 0.1, y, p, u) - expect) < 1e-14
    zero = CotangentVector(base=y, components=np.zeros(2))
    assert hamiltonian(problem, 0.1, y, zero, u) == 0.0


def test_hamiltonian_scalar_pairing():
    dyn = dynamics_from_expressions(("u1",), 1, 1)
    problem = make_problem(euclidean(1), 1.0, dyn, linear_endpoint((0.0,), (1.0,)))
    assert abs(hamiltonian(problem, 0.0, [0.0], [2.0], [1.5]) - 3.0) < 1e-15


def test_hamiltonian_base_mismatch():
    problem = make_ccs126()
    p = CotangentVector(base=np.array([0.0, 0.0]), components=np.ones(2))
    with pytest.raises(BasePointMismatch):
        hamiltonian(problem, 0.0, np.array([1.0, 0.0]), p, np.zeros(2))


def test_hamiltonian_blocks_ccs126_formulas():
    theta = 3.0
    problem = make_ccs126(theta=theta)
    rng = np.random.default_rng(13)
    for _ in range(5):
        y = rng.normal(size=2)
        u = rng.normal(size=2)
        pc = rng.normal(size=2)
        blocks = hamiltonian_blocks(problem, 0.2, y, pc, u)
        hu_ref = np.array([-2 * theta * pc[1] * u[0],
                           pc[0] + 4 * y[0] * pc[1]])
        np.testing.assert_allclose(blocks["hu"], hu_ref, atol=1e-12)
        np.testing.assert_allclose(blocks["huu"],
                                   np.diag([-2 * theta * pc[1], 0.0]), atol=1e-12)
        hxu_ref = np.zeros((2, 2))
        hxu_ref[0, 1] = 4 * pc[1]
        np.testing.assert_allclose(blocks["hxu"], hxu_ref, atol=1e-12)
        np.testing.assert_allclose(blocks["hxx"],
                                   np.array([[-2 * pc[1], 0.0], [0.0, 0.0]]),
                                   atol=1e-12)
        hx_ref = np.array([(-2 * y[0] + 4 * u[1]) * pc[1], 0.0])
        np.testing.assert_allclose(blocks["hx"].components, hx_ref, atol=1e-12)
    # at the nominal control the first slot of hu vanishes
    blocks = hamiltonian_blocks(problem, 0.0, np.array([1.0, 0.0]),
                                np.array([0.5, -1.0]), np.array([0.0, -1.0]))
    np.testing.assert_allclose(blocks["hu"], [0.0, 0.5 - 4.0], atol=1e-14)


def test_hamiltonian_blocks_huu_zero_for_control_affine():
    dyn = linear_dynamics(np.eye(2), np.eye(2))
    problem = make_problem(euclidean(2), 1.0, dyn,
                           linear_endpoint((0.0, 0.0), (1.0, 0.0)))
    blocks = hamiltonian_blocks(problem, 0.0, np.zeros(2), np.ones(2), np.zeros(2))
    assert np.max(np.abs(blocks["huu"])) == 0.0


def test_hamiltonian_blocks_self_check_passes():
    flat = make_flat_nonlinear()
    hamiltonian_blocks(flat, 0.3, np.array([0.4, -0.2]), np.array([0.8, -0.5]),
                       np.array([0.3, 0.6]), self_check=True)
    curved = make_sphere_nonlinear()
    fast_chart = dataclasses.replace(curved.chart, ode_steps=64)
    curved = dataclasses.replace(curved, chart=fast_chart)
    hamiltonian_blocks(curved, 0.3, np.array([0.2, -0.3]), np.array([0.6, 0.4]),
                       np.array([0.1, -0.2]), self_check=True)


def test_hamiltonian_blocks_self_check_catches_bad_jacobian():
    good = dynamics_from_expressions(("y2 + u1", "-y1*y2 + u2"), 2, 2)

    def bad_blocks(t, y, u):
        blocks = list(good.blocks_many(t, y, u))
        blocks[1] = blocks[1] + [[0.0, 0.0], [0.0, 0.05]]   # f_y off by 0.05
        return tuple(blocks)

    dyn = dataclasses.replace(good, blocks_many=bad_blocks)
    cost = linear_endpoint((0.0, 0.0), (1.0, 0.0))
    problem = make_problem(euclidean(2), 1.0, dyn, cost, validate=False)
    with pytest.raises(NocError, match="hx"):
        hamiltonian_blocks(problem, 0.0, np.array([0.3, 0.7]),
                           np.array([1.0, 1.0]), np.zeros(2), self_check=True)


# ----------------------------------------------------------------------------
# duality identities (integration by parts along the grid)
# ----------------------------------------------------------------------------


def _duality_defect(problem, y0, base_u, base_v, X0, ell, factor):
    u = refine_controls(base_u, factor)
    v = refine_controls(base_v, factor)
    traj = integrate_state(problem, y0, u)
    X = integrate_variational(problem, traj, v, X0)
    p = integrate_adjoint(problem, traj, ell)
    N = traj.num_cells
    left = np.empty(N)
    right = np.empty(N)
    for i in range(N):
        bl = hamiltonian_blocks(problem, traj.grid[i], traj.states[i],
                                p.values[i], u[i])
        br = hamiltonian_blocks(problem, traj.grid[i + 1], traj.states[i + 1],
                                p.values[i + 1], u[i])
        left[i] = bl["hu"] @ v[i]
        right[i] = br["hu"] @ v[i]
    integral = trapezoid_cellwise(traj.grid, left, right)
    boundary = (p.values[-1] @ X.values[-1]) - (p.values[0] @ X.values[0])
    return abs(boundary - integral)


@pytest.mark.parametrize("which", ["flat", "sphere"])
def test_duality_identity_second_order_in_grid(which):
    if which == "flat":
        problem = make_flat_nonlinear()
        y0 = np.array([0.3, -0.2])
        ell = np.array([0.8])
    else:
        problem = make_sphere_nonlinear()
        y0 = np.array([0.1, -0.2])
        ell = np.array([0.8, -0.3])
    N0 = 100
    base_u = wiggly_controls(N0, 0.1)
    rng = np.random.default_rng(14)
    base_v = 0.2 * rng.normal(size=(N0, 2))
    X0 = 0.3 * rng.normal(size=2)
    d1 = _duality_defect(problem, y0, base_u, base_v, X0, ell, 1)
    d4 = _duality_defect(problem, y0, base_u, base_v, X0, ell, 4)
    assert d1 < 1e-4
    assert d4 <= d1 / 8.0 + 1e-13


def _second_dual_defect(problem, y0, base_u, base_v, base_s, X0, W, ell, factor):
    u = refine_controls(base_u, factor)
    v = refine_controls(base_v, factor)
    s = refine_controls(base_s, factor)
    traj = integrate_state(problem, y0, u)
    X = integrate_variational(problem, traj, v, X0)
    Y = integrate_second_variation(problem, traj, v, X, s, W)
    p = integrate_adjoint(problem, traj, ell)
    N = traj.num_cells

    def integrand(node, cell):
        blocks = hamiltonian_blocks(problem, traj.grid[node], traj.states[node],
                                    p.values[node], u[cell])
        Xn = X.values[node]
        return (blocks["hu"] @ s[cell]
                + Xn @ blocks["hxu"] @ v[cell]
                + 0.5 * Xn @ blocks["hxx"] @ Xn
                + 0.5 * v[cell] @ blocks["huu"] @ v[cell]
                - 0.5 * curvature_pairing(problem, traj, p, X, node, cell=cell))

    left = np.array([integrand(i, i) for i in range(N)])
    right = np.array([integrand(i + 1, i) for i in range(N)])
    integral = trapezoid_cellwise(traj.grid, left, right)
    boundary = (p.values[-1] @ Y.values[-1]) - (p.values[0] @ Y.values[0])
    return abs(boundary - integral)


@pytest.mark.parametrize("which", ["flat", "sphere"])
def test_second_order_dual_route_matches_boundary_terms(which):
    # term-by-term check of the second-order integrand (including the
    # curvature pairing on the sphere) against d/dt <p, Y> integrated by
    # parts; the defect must shrink at the quadrature rate.
    if which == "flat":
        problem = make_flat_nonlinear()
        y0 = np.array([0.3, -0.2])
        ell = np.array([0.8])
    else:
        problem = make_sphere_nonlinear()
        y0 = np.array([0.1, -0.2])
        ell = np.array([0.8, -0.3])
    N0 = 100
    rng = np.random.default_rng(15)
    base_u = wiggly_controls(N0, 0.1)
    base_v = 0.2 * rng.normal(size=(N0, 2))
    base_s = 0.2 * rng.normal(size=(N0, 2))
    X0 = 0.3 * rng.normal(size=2)
    W = 0.3 * rng.normal(size=2)
    d1 = _second_dual_defect(problem, y0, base_u, base_v, base_s, X0, W, ell, 1)
    d4 = _second_dual_defect(problem, y0, base_u, base_v, base_s, X0, W, ell, 4)
    assert d1 < 1e-3
    assert d4 <= d1 / 8.0 + 1e-13


# ----------------------------------------------------------------------------
# endpoint aggregate data
# ----------------------------------------------------------------------------


def test_lagrange_data_linear_in_multiplier_and_unit_slots():
    problem = make_ccs126()
    y0 = np.array([1.1, -0.2])
    yT = np.array([0.4, -1.9])
    maps = problem.endpoint_maps
    for slot in range(3):
        ell = np.zeros(3)
        ell[slot] = 1.0
        data = lagrange_data(problem, y0, yT, ell)
        assert abs(data.value - maps[slot].value(y0, yT)) < 1e-14
    rng = np.random.default_rng(16)
    la, lb = rng.normal(size=(2, 3))
    a, b = 0.6, -1.7
    va = lagrange_data(problem, y0, yT, la)
    vb = lagrange_data(problem, y0, yT, lb)
    vc = lagrange_data(problem, y0, yT, a * la + b * lb)
    assert abs(vc.value - (a * va.value + b * vb.value)) < 1e-12
    np.testing.assert_allclose(vc.grad_start, a * va.grad_start + b * vb.grad_start,
                               atol=1e-12)


def test_lagrange_hessian_matches_geodesic_second_difference():
    # the corrected start-slot Hessian must reproduce d^2/ds^2 of the value
    # along geodesics, which is what plain coordinate Hessians fail to do on
    # a curved chart
    chart = sphere(1.0)
    dyn = dynamics_from_expressions(("u1", "u2"), 2, 2)
    cost = endpoint_from_expressions("yT1^2 + y01*yT2 + sin(y01)*y02", 2)
    problem = make_problem(chart, 1.0, dyn, cost, probe_base=(0.1, -0.2))
    y0 = np.array([0.1, -0.2])
    yT = np.array([0.3, 0.25])
    ell = np.array([1.3])
    data = lagrange_data(problem, y0, yT, ell)
    rng = np.random.default_rng(17)
    for _ in range(3):
        X = rng.normal(size=2)
        X /= np.linalg.norm(X)
        h = 1e-3

        def val(sgn):
            pt = exp_map(chart, y0, sgn * h * X)
            return lagrange_data(problem, pt, yT, ell).value

        second_fd = (val(1.0) - 2 * data.value + val(-1.0)) / (h * h)
        second_an = float(X @ data.hess_start_start @ X)
        assert abs(second_fd - second_an) < 3e-5 * (1 + abs(second_fd))


@pytest.mark.parametrize("node, cell", [(3, -1), (3, 20), (3, 1), (3, 4), (-1, None),
                                        (21, None), (0, -1), (20, 20)])
@pytest.mark.parametrize("which", ["flat", "sphere"])
def test_curvature_pairing_rejects_a_node_or_cell_off_the_grid(which, node, cell):
    problem = make_flat_nonlinear() if which == "flat" else make_sphere_nonlinear()
    traj = integrate_state(problem, [0.1, -0.2], wiggly_controls(20))
    X = integrate_variational(problem, traj, wiggly_controls(20, 0.3), [0.2, 0.1])
    p = integrate_adjoint(problem, traj, [1.0] * problem.multiplier_dim)
    with pytest.raises(ValueError, match="node" if cell is None else "cell"):
        curvature_pairing(problem, traj, p, X, node, cell=cell)
    # the adjacent cells, and the default: the cell that starts at the node
    for node, cells in ((0, [0]), (3, [2, 3]), (20, [19])):
        values = [curvature_pairing(problem, traj, p, X, node, cell=c) for c in cells]
        assert curvature_pairing(problem, traj, p, X, node) == values[-1]
        assert all(np.isfinite(values)) and (which == "sphere") == (values[0] != 0.0)


def test_lagrange_multiplier_length_checked():
    problem = make_ccs126()
    with pytest.raises(ValueError):
        lagrange_data(problem, np.zeros(2), np.zeros(2), np.ones(5))


# ----------------------------------------------------------------------------
# expansion residual
# ----------------------------------------------------------------------------


def test_expansion_exact_for_linear_dynamics():
    dyn = linear_dynamics(np.array([[0.0, 1.0], [-1.0, -0.5]]), np.eye(2))
    problem = make_problem(euclidean(2), 1.0, dyn,
                           linear_endpoint((0.0, 0.0), (1.0, 0.0)))
    N = 64
    traj = integrate_state(problem, [0.5, 0.0], wiggly_controls(N))
    rng = np.random.default_rng(18)
    v = rng.normal(size=(N, 2))
    sig = rng.normal(size=(N, 2))
    X = integrate_variational(problem, traj, v, rng.normal(size=2))
    out = expansion_residual(problem, traj, v, X, sig, rng.normal(size=2),
                             [0.5, 0.1, 0.02])
    for _, res in out:
        assert res <= 1e-9


def test_expansion_exact_for_quadratic_flow():
    # ydot1 = u, ydot2 = y1^2 with accelerations 0: the flow is exactly
    # quadratic in the perturbation size
    dyn = dynamics_from_expressions(("u1", "y1^2"), 2, 1)
    problem = make_problem(euclidean(2), 1.0, dyn,
                           linear_endpoint((0.0, 0.0), (0.0, 1.0)))
    N = 64
    traj = integrate_state(problem, [0.3, 0.0], wiggly_controls(N, 0.5, m=1))
    rng = np.random.default_rng(19)
    v = rng.normal(size=(N, 1))
    X = integrate_variational(problem, traj, v, rng.normal(size=2))
    out = expansion_residual(problem, traj, v, X, np.zeros((N, 1)), np.zeros(2),
                             [0.4, 0.1])
    for _, res in out:
        assert res <= 1e-9


def test_expansion_cubic_flow_trend_and_zero_eps():
    dyn = dynamics_from_expressions(("u1", "y1^3"), 2, 1)
    problem = make_problem(euclidean(2), 1.0, dyn,
                           linear_endpoint((0.0, 0.0), (0.0, 1.0)))
    N = 64
    traj = integrate_state(problem, [0.3, 0.0], wiggly_controls(N, 0.5, m=1))
    rng = np.random.default_rng(20)
    v = rng.normal(size=(N, 1))
    X = integrate_variational(problem, traj, v, rng.normal(size=2))
    out = expansion_residual(problem, traj, v, X, np.zeros((N, 1)), np.zeros(2),
                             [0.0, 0.1, 0.05, 0.025])
    assert out[0] == (0.0, 0.0)
    ratios = [res / eps**2 for eps, res in out[1:]]
    assert ratios[0] > ratios[1] > ratios[2]


def test_expansion_ccs126_with_projection_lift_is_monotone():
    problem = make_ccs126(horizon=0.5, theta=3.0)
    N = 256
    traj = integrate_state(problem, [1.0, 0.0], ccs126_nominal_controls(N))
    v = np.tile([1.0, 0.0], (N, 1))
    sig = np.tile([0.0, 0.5], (N, 1))
    X = integrate_variational(problem, traj, v, np.zeros(2))

    def family(eps):
        return lift_sigma(problem.control_set, traj.controls, v, sig, eps)

    out = expansion_residual(problem, traj, v, X, family, np.zeros(2),
                             [0.1, 0.05, 0.025])
    ratios = [res / eps**2 for eps, res in out]
    assert ratios[0] > ratios[1] > ratios[2]


def test_expansion_on_the_sphere_falls_like_eps_cubed(monkeypatch):
    # the paper's second-order expansion on a curved chart: with the
    # Γ(X, X)/2 shift the residual of ε X + ε² Y falls like ε³; without it
    # Y misses an ε² term and the residual falls only like ε²
    import noc.dynamics

    problem = make_sphere_nonlinear()
    N = 10
    traj = integrate_state(problem, [0.1, -0.2], wiggly_controls(N))
    rng = np.random.default_rng(2)
    v, sig = 0.5 * rng.normal(size=(2, N, 2))
    X0, W = rng.normal(size=(2, 2))
    X = integrate_variational(problem, traj, v, X0)

    def ratio():
        (_, coarse), (_, fine) = expansion_residual(problem, traj, v, X, sig, W,
                                                    [0.02, 0.01])
        return coarse / fine

    assert ratio() > 7.0
    monkeypatch.setattr(noc.dynamics, "christoffel_apply",
                        lambda chart, y, a, b: np.zeros_like(a))
    assert ratio() < 5.0


def test_expansion_trust_radius_violation():
    problem = make_sphere_nonlinear()
    N = 20
    traj = integrate_state(problem, [0.1, -0.2], wiggly_controls(N))
    v = np.zeros((N, 2))
    X = integrate_variational(problem, traj, v, np.array([0.6, 0.0]))
    with pytest.raises(OutOfInjectivityTrust):
        expansion_residual(problem, traj, v, X, np.zeros((N, 2)), np.zeros(2),
                           [2.0])


def test_expansion_sigma_cap_enforced():
    problem = make_ccs126()
    N = 32
    traj = integrate_state(problem, [1.0, 0.0], ccs126_nominal_controls(N))
    v = np.tile([1.0, 0.0], (N, 1))
    X = integrate_variational(problem, traj, v, np.zeros(2))
    with pytest.raises(BoundViolated):
        expansion_residual(problem, traj, v, X, np.tile([0.0, 0.5], (N, 1)),
                           np.zeros(2), [0.1], sigma_cap=1e-6)


# ----------------------------------------------------------------------------
# quadrature helpers and CSV
# ----------------------------------------------------------------------------


def test_trapezoid_quadrature_value():
    grid = np.linspace(0.0, 1.0, 101)
    val = trapezoid_quadrature(grid, grid**2)
    assert abs(val - 1.0 / 3.0) < 1e-4


def test_refine_controls_repeats_cells():
    u = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = refine_controls(u, 3)
    assert out.shape == (6, 2)
    assert np.array_equal(out[:3], np.tile(u[0], (3, 1)))
