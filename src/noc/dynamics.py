"""Control-system integration on chart-described manifolds.

Forward state integration, first/second variational fields along a nominal
trajectory, backward adjoint covectors, and the second-order expansion
residual used by refutation certificates. ``trajectory_jet`` evaluates every
derivative the second-order form needs along a whole trajectory at once,
with the covariant corrections of the Hessian and mixed blocks on curved
charts; the form and the adjoint are linear in the multiplier, so one jet
and one (matrix) adjoint pass serve every multiplier.

Models and endpoint maps are built from expressions
(``dynamics_from_expressions``, ``endpoint_from_expressions``), whose
derivatives ``noc.expr`` takes exactly. Controls are piecewise constant on
a uniform grid and every integrator takes a single classical RK4 step per
grid cell. The state pass runs the cells on Python floats in one compiled
loop (``DynamicsModel.rk4_cell.run``, one call per stretch of cells) and
redoes on the numpy path any cell that fails there, so its results and
diagnostics are the numpy path's;
every derivative block comes from one compiled function over a batch of
points (``DynamicsModel.blocks_many``), the per-node blocks included. That
function, the rhs and an endpoint map's gradients and Hessians come from
``noc.expr``'s block compiler. The first-order field and the adjoint share
one linearisation of that step: the cell propagators dy_{i+1} = M_i dy_i +
B_i du_i, built from the stage Jacobians at the stored stage points of
every cell at once, and only once per trajectory and dynamics model. The
variational field is the forward recursion X_{i+1} = M_i X_i + B_i v_i, the
exact derivative of the discrete flow, and the adjoint its exact transpose
p_i = M_i^T p_{i+1}, so the discrete duality between them holds to
rounding; the second-order field runs one RK4 step over all cells at once
and chains the cells with the same M_i; all three recursions run through
one ``_chain``. ``_chain`` takes a leading point axis, so ``run_stacked``
runs the variational and adjoint recursions of many points (the cells of a
sweep) as one chain per pass, each point's values bit for bit its own.
Geometry along a trajectory (Γ, ∂Γ, R) comes from one batched call per
quantity over all nodes. Covariant ODEs are solved componentwise in the
chart: for the first-order field and the adjoint the Christoffel terms
cancel identically against the connection part of the covariant state
Jacobian (both reduce to the plain linearized/adjoint systems), while the
second-order field Y is recovered from a plain-coordinate integration B via
Y = B + Γ(X, X)/2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial, wraps
from typing import Callable, NamedTuple

import numpy as np

from .cones import Box
from .draws import Stream
from .errors import (BasePointMismatch, BoundViolated, ChartEscape, NocError,
                     NonFiniteState)
from .expr import _compile_blocks, _finite, compile_expr, parse_expr, python_source
from .geometry import (CotangentVector, ManifoldChart, TangentVector,
                       christoffel, christoffel_apply, curvature, dchristoffel,
                       exp_map, log_map, norm, valid_point)

__all__ = [
    "ControlProblem", "DynamicsModel", "EndpointMap", "FieldAlongCurve",
    "LagrangeData", "STACK_DEPTH", "Trajectory", "TrajectoryJet",
    "dynamics_from_expressions", "endpoint_from_expressions",
    "expansion_residual", "integrate_adjoint", "integrate_second_variation",
    "integrate_state", "integrate_variational", "lagrange_data",
    "make_problem", "rebind_problem", "refine_controls", "run_stacked",
    "trajectory_jet", "trapezoid_cellwise", "trapezoid_quadrature",
]

# the most points run_stacked runs together. Each holds its trajectory and
# propagators until its last pass (about 60 KB at 400 cells and 2 states);
# the backward chain of 400 cells took 1.17 ms for one point alone, 126 us a
# point stacked 64 deep and 119 us stacked 256 deep (2-core VM, NumPy 2.4)
STACK_DEPTH = 64


# ----------------------------------------------------------------------------
# dynamics models
# ----------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DynamicsModel:
    """Right-hand side ydot = f(t, y, u) together with derivative blocks.

    Array index conventions::

        rhs(t, y, u)    -> (n,)    chart components of a tangent vector at y
        rhs_y[k, i]     = d f^k / d y_i        (n, n)
        rhs_u[k, a]     = d f^k / d u_a        (n, m)
        rhs_yy[k, i, j] = d2 f^k / d y_i d y_j (n, n, n)
        rhs_yu[k, i, a] = d2 f^k / d y_i d u_a (n, n, m)
        rhs_uu[k, a, b] = d2 f^k / d u_a d u_b (n, m, m)

    ``blocks_many`` evaluates all six blocks over a batch of B points at
    once: ``blocks_many(t, y, u)`` with t (B,), y (B, n) and u (B, m)
    returns (f, f_y, f_u, f_yy, f_yu, f_uu), each a new array with a
    leading batch axis. ``dynamics_from_expressions`` sets it to one
    generated function that fills the six preallocated blocks, one element
    expression per entry (``noc.expr._compile_blocks``), and the per-node
    blocks ``rhs_y`` .. ``rhs_uu`` are its one-point views, so a model has
    one derivative path. Every derivative along a trajectory
    (``trajectory_jet``, the cell propagators behind
    ``integrate_variational`` and ``integrate_adjoint``, and
    ``integrate_second_variation``) and the validation of ``make_problem``
    and ``rebind_problem`` take the blocks from it. The derivatives are
    exact, so validation only requires them to be finite.

    ``rk4_cell`` (optional) is one classical RK4 step on Python floats:
    ``rk4_cell(t, h, *y, *u)`` returns the state after a cell of length h
    as a tuple, the same floats as ``_rk4_step`` on ``rhs`` gives. Where
    numpy would warn it may instead raise (ArithmeticError, ValueError, or
    TypeError from a complex power) or return a non-finite or complex
    value; ``integrate_state`` redoes such a cell on the numpy path. The
    cell that ``dynamics_from_expressions`` compiles carries ``run``, a
    loop over consecutive cells generated from the same source with the
    cell's body inlined (``_compile_rk4_cell``), and ``integrate_state``
    makes one call of it per stretch of float cells, never one call per
    cell. A model without a cell, or with a cell that carries no ``run``,
    runs every cell on the numpy path.

    ``rebind`` (set on expression models compiled with parameters) maps
    new parameter values, a name -> value mapping, to the same model at
    those values; the compiled callables are shared, not rebuilt.
    """

    state_dim: int
    control_dim: int
    rhs: Callable
    rhs_y: Callable
    rhs_u: Callable
    rhs_yy: Callable
    rhs_yu: Callable
    rhs_uu: Callable
    blocks_many: Callable
    label: str = "custom"
    rk4_cell: Callable | None = None
    rebind: Callable | None = None


_BLOCK_NAMES = ("rhs", "rhs_y", "rhs_u", "rhs_yy", "rhs_yu", "rhs_uu")


def _blocks_along(dyn: DynamicsModel, t, y, u, count: int = 6) -> tuple:
    """The first ``count`` of (f, f_y, f_u, f_yy, f_yu, f_uu) at a batch of
    points, each block with a leading batch axis."""
    return tuple(np.asarray(b, float) for b in dyn.blocks_many(t, y, u)[:count])


def _used_params(params, exprs) -> tuple:
    """The names of ``params`` that occur in ``exprs``: only those become
    arguments, so a model that uses none has no ``rebind`` and no extra
    arguments to pass."""
    used = frozenset().union(*(e.free_vars() for e in exprs))
    return tuple(name for name in params or () if name in used)


def dynamics_from_expressions(texts, state_dim: int, control_dim: int,
                              label: str = "expression",
                              params=None) -> DynamicsModel:
    """Build a model from one expression string per state component.

    Allowed variables: ``t``, ``y1..yn``, ``u1..um`` and the names of
    ``params``, a name -> value mapping. Every derivative is taken once by
    exact symbolic differentiation and compiled only into the batched
    ``blocks_many``; the per-node blocks ``rhs_y`` .. ``rhs_uu`` are its
    one-point views. ``rhs`` is a one-block function of its own from the
    same compiler (``noc.expr._compile_blocks``), evaluated on the scalars
    of one point, so the numpy paths raise the rhs's own warnings and no
    derivative's; the float ``rk4_cell`` is compiled too. The parameters
    that occur are extra arguments of all of them, so ``rebind`` moves the
    model to other parameter values without parsing or compiling again.
    """
    n, m = state_dim, control_dim
    ynames = tuple(f"y{i + 1}" for i in range(n))
    unames = tuple(f"u{a + 1}" for a in range(m))
    if len(texts) != n:
        raise ValueError(f"expected {n} component expressions, got {len(texts)}")
    allowed = {"t", *ynames, *unames, *(params or ())}
    exprs = [parse_expr(s, allowed_vars=allowed) for s in texts]
    pnames = _used_params(params, exprs)
    names = ("t",) + ynames + unames + pnames

    # every derivative once: d[v][k] = d f^k / d v
    d = {v: [e.diff(v) for e in exprs] for v in ynames + unames}
    entries = (exprs,
               [[d[a][k] for a in ynames] for k in range(n)],
               [[d[a][k] for a in unames] for k in range(n)],
               [[[d[a][k].diff(b) for b in ynames] for a in ynames] for k in range(n)],
               [[[d[a][k].diff(b) for b in unames] for a in ynames] for k in range(n)],
               [[[d[a][k].diff(b) for b in unames] for a in unames] for k in range(n)])
    rhs_block = _compile_blocks((exprs,), names)
    all_blocks = _compile_blocks(entries, names)
    float_cell = _compile_rk4_cell(exprs, ynames, unames, pnames)

    def bind(values) -> DynamicsModel:
        pvals = tuple(float(values[name]) for name in pnames)

        def rhs(t, y, u):
            return rhs_block(1, t, *np.asarray(y, float), *np.asarray(u, float),
                             *pvals)[0][0]

        def blocks_many(t, y, u):
            t = np.asarray(t, float)
            return all_blocks(t.shape[0], t, *np.asarray(y, float).T,
                              *np.asarray(u, float).T, *pvals)

        def at_point(k):
            return lambda t, y, u: blocks_many([t], [y], [u])[k][0]

        return DynamicsModel(
            state_dim=n, control_dim=m, rhs=rhs,
            rhs_y=at_point(1), rhs_u=at_point(2), rhs_yy=at_point(3),
            rhs_yu=at_point(4), rhs_uu=at_point(5), blocks_many=blocks_many,
            label=label,
            rk4_cell=_bound_cell(float_cell, pvals),
            rebind=bind if pnames else None)

    return bind(params)


def _compile_rk4_cell(exprs, ynames, unames, pnames) -> Callable:
    """``cell(*params, t, h, *y, *u)``: one classical RK4 step of
    ydot = f(t, y, u) on Python floats, returning the state as a tuple.

    The source is generated from the component expressions with ``math``
    functions and repeats ``_rk4_step`` operation for operation. Every
    variable is renamed, so no expression name can shadow ``math`` or the
    guard ``_finite`` that ``python_source`` wraps around risky operands.

    The same ``exec`` generates ``cell.run``, ``run(*params, times, h,
    controls, start, y, done)``: the cells from ``start`` on, each with the
    cell's body inlined, from the state ``y`` at node ``start`` with the
    node ``times`` and ``controls`` rows (lists of floats). It appends each
    cell's state tuple to ``done`` and returns the first cell it did not
    finish: one whose body raises (ArithmeticError, ValueError, or
    TypeError from a complex value) or whose state sum is not finite, or
    ``len(controls)`` when none.
    """
    n = len(ynames)
    params = [f"p{j}" for j in range(len(pnames))]
    s = [f"s{i}" for i in range(n)]         # the state at the cell's node
    z = [f"z{i}" for i in range(n)]         # the state at a later stage
    u = [f"u{a}" for a in range(len(unames))]
    fixed = dict(zip(unames, u)) | dict(zip(pnames, params))
    at_node = {"t": "t0"} | dict(zip(ynames, s)) | fixed
    at_stage = {"t": "t"} | dict(zip(ynames, z)) | fixed

    def stage(k, names):
        return [f"k{k}_{i} = {python_source(e, 'math', names)}"
                for i, e in enumerate(exprs)]

    def move(step, k):
        return [f"{z[i]} = {s[i]} + {step} * k{k}_{i}" for i in range(n)]

    result = ", ".join(f"{s[i]} + sixth * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})"
                       for i in range(n))
    body = ["half = 0.5 * h", *stage(1, at_node),
            "t = t0 + half", *move("half", 1), *stage(2, at_stage),
            *move("half", 2), *stage(3, at_stage),
            "t = t0 + h", *move("h", 3), *stage(4, at_stage),
            "sixth = h / 6.0"]
    state, row = "".join(f"{v}, " for v in s), "".join(f"{v}, " for v in u)
    lines = [f"def cell({', '.join(params + ['t0', 'h'] + s + u)}):",
             *(f"    {line}" for line in body),
             f"    return ({result},)",
             f"def run({', '.join(params + ['times', 'h', 'controls', 'start', 'y', 'done'])}):",
             f"    ({state}) = y",
             "    for i in range(start, len(controls)):",
             "        t0 = times[i]",
             f"        ({row}) = controls[i]",
             "        try:",
             *(f"            {line}" for line in body),
             f"            y = ({result},)",
             "            if not math.isfinite(sum(y)):",
             "                return i",
             "        except (ArithmeticError, ValueError, TypeError):",
             "            return i",
             "        done.append(y)",
             f"        ({state}) = y",
             "    return len(controls)"]
    namespace = {"math": math, "_finite": _finite, "__builtins__": {},
                 "range": range, "len": len, "sum": sum,
                 "ArithmeticError": ArithmeticError, "ValueError": ValueError,
                 "TypeError": TypeError}
    exec("\n".join(lines), namespace)  # noqa: S102 - AST-derived source
    cell = namespace["cell"]
    cell.run = namespace["run"]
    return cell


def _bound_cell(cell, pvals: tuple):
    """The float ``cell`` and its ``run`` at the parameter values ``pvals``."""
    if not pvals:
        return cell
    bound = partial(cell, *pvals)
    bound.run = partial(cell.run, *pvals)
    return bound


# ----------------------------------------------------------------------------
# endpoint maps and problems
# ----------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EndpointMap:
    """Scalar function g(y_start, y_end) of the two trajectory endpoints.

    ``grad`` returns the pair of plain coordinate gradients, ``hess`` the
    plain coordinate Hessian blocks (h11, h12, h22) with
    h12[i, j] = d2 g / d y_start_i d y_end_j. Covariant corrections are the
    caller's business (see lagrange_data). ``endpoint_from_expressions``
    builds them exactly, so validation only requires them to be finite.
    ``rebind`` is as for DynamicsModel.
    """

    value: Callable
    grad: Callable
    hess: Callable
    label: str = "endpoint"
    rebind: Callable | None = None


def endpoint_from_expressions(text: str, state_dim: int,
                              label: str = "endpoint", params=None) -> EndpointMap:
    """Endpoint scalar from an expression in y01..y0n (start) and yT1..yTn
    (end), with exact symbolic derivatives.

    The value is one compiled scalar expression; the gradient pair and the
    three Hessian blocks are one generated function each
    (``noc.expr._compile_blocks``), evaluated at the one point pair. The
    names of ``params`` (a name -> value mapping) that occur are compiled
    as extra arguments; ``rebind`` moves the map to other values."""
    n = state_dim
    start = tuple(f"y0{i + 1}" for i in range(n))
    end = tuple(f"yT{i + 1}" for i in range(n))
    e = parse_expr(text, allowed_vars={*start, *end, *(params or ())})
    pnames = _used_params(params, [e])
    args = start + end + pnames
    fn = compile_expr(e, args)
    grads = _compile_blocks(([e.diff(a) for a in start], [e.diff(a) for a in end]), args)
    hessians = _compile_blocks(tuple([[e.diff(a).diff(b) for b in cols] for a in rows]
                                     for rows, cols in ((start, start), (start, end),
                                                        (end, end))), args)

    def bind(values) -> EndpointMap:
        pvals = tuple(float(values[name]) for name in pnames)

        def at_pair(blocks, y0, yT):
            return tuple(b[0] for b in blocks(1, *np.asarray(y0, float),
                                              *np.asarray(yT, float), *pvals))

        def value(y0, yT):
            return float(fn(*np.asarray(y0, float), *np.asarray(yT, float), *pvals))

        return EndpointMap(value=value, grad=partial(at_pair, grads),
                           hess=partial(at_pair, hessians), label=label,
                           rebind=bind if pnames else None)

    return bind(params)


@dataclass(frozen=True, eq=False)
class ControlProblem:
    """A control system with endpoint cost/constraints and a control set.

    Multiplier vectors are laid out cost-first:
    (weight on cost, weights on inequality maps, weights on equality rows).
    """

    chart: ManifoldChart
    horizon: float
    dynamics: DynamicsModel
    cost: EndpointMap
    inequality_maps: tuple
    equality_maps: tuple
    control_set: object
    # make_problem's validation draws, per (probe base bytes, seed); see
    # ``_validation_draws``
    _draws: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def state_dim(self) -> int:
        return self.dynamics.state_dim

    @property
    def control_dim(self) -> int:
        return self.dynamics.control_dim

    @property
    def num_inequalities(self) -> int:
        return len(self.inequality_maps)

    @property
    def num_equalities(self) -> int:
        return len(self.equality_maps)

    @property
    def multiplier_dim(self) -> int:
        return 1 + self.num_inequalities + self.num_equalities

    @property
    def endpoint_maps(self) -> tuple:
        return (self.cost,) + tuple(self.inequality_maps) + tuple(self.equality_maps)


def _unit_probe_points(problem: ControlProblem, probe_base, rng) -> tuple:
    """20 validation points t (20,), y (20, n), u (20, m): y near
    probe_base, t on [0, 1). The horizon times these t is bit for bit
    ``rng.uniform(0, horizon)``, so the draws do not depend on it."""
    n, m = problem.state_dim, problem.control_dim
    probes = []
    for _ in range(20):
        t = rng.random()
        for _ in range(40):
            y = probe_base + 0.1 * rng.standard_normal(n)
            if valid_point(problem.chart, y):
                break
        else:
            raise NocError("could not sample valid probe points near probe_base")
        probes.append((t, y, 0.5 * rng.standard_normal(m)))
    return tuple(np.array(a, float) for a in zip(*probes))


def _check_blocks(dyn: DynamicsModel, probes):
    """Require the rhs and its five derivative blocks, from one
    ``blocks_many`` call at the probes, to be finite: the rhs at every
    probe first, then the first non-finite block in probe-major order."""
    blocks = [np.asarray(b, float) for b in dyn.blocks_many(*probes)]
    if not np.all(np.isfinite(blocks[0])):
        raise NocError("dynamics rhs is not finite at a validation probe point")
    finite = np.stack([np.isfinite(b).reshape(len(b), -1).all(axis=1)
                       for b in blocks[1:]], axis=1)
    failed = np.argwhere(~finite)
    if failed.size:
        raise NocError(f"dynamics block {_BLOCK_NAMES[failed[0][1] + 1]} is not "
                       f"finite at a validation probe point")


def _validate_dynamics(problem: ControlProblem, probes):
    """Check the blocks at the probes (``_check_blocks``), then the float
    RK4 cell against ``_rk4_step``."""
    dyn = problem.dynamics
    t, y, u = probes
    _check_blocks(dyn, probes)
    if dyn.rk4_cell is not None:
        # the float cell must reproduce the numpy step wherever both run
        h = 0.01 * problem.horizon
        with np.errstate(all="ignore"):
            want = _rk4_step(lambda s, z: dyn.blocks_many(s, z, u)[0], t, y, h)
        got, ran = [], []
        for p, (tp, yp, up) in enumerate(zip(t.tolist(), y.tolist(), u.tolist())):
            try:
                got.append(np.array(dyn.rk4_cell(tp, h, *yp, *up), float))
            except (ArithmeticError, ValueError, TypeError):
                continue
            ran.append(p)
        want = want[ran]
        both = np.isfinite(want).all(axis=1)
        if not np.all(np.isclose(np.reshape(got, want.shape)[both], want[both],
                                 rtol=1e-12, atol=1e-12)):
            raise NocError("the float RK4 cell of the dynamics disagrees "
                           "with the numpy RK4 step")


def _point_pairs(problem: ControlProblem, probe_base, rng) -> tuple:
    """Per endpoint map, in order, 6 point pairs near probe_base; the draws
    stop after the first map for which fewer could be drawn."""
    n = problem.state_dim
    out = []
    for _ in problem.endpoint_maps:
        pairs = []
        for _ in range(6):
            for _ in range(40):
                y0 = probe_base + 0.1 * rng.standard_normal(n)
                yT = probe_base + 0.1 * rng.standard_normal(n)
                if valid_point(problem.chart, y0) and valid_point(problem.chart, yT):
                    pairs.append((y0, yT))
                    break
            else:
                break
        out.append(tuple(pairs))
        if len(pairs) < 6:
            break
    return tuple(out)


def _validate_endpoints(problem: ControlProblem, pairs, only=None):
    """Check every endpoint map at its point pairs (``_point_pairs``), or
    only the maps in ``only``; pairs are drawn for every map, so a map
    meets the same points either way."""
    for ep, ep_pairs in zip(problem.endpoint_maps, pairs):
        if ep_pairs and (only is None or ep in only):
            _check_endpoint_map(ep, ep_pairs)
        if len(ep_pairs) < 6:
            raise NocError("could not sample valid probe points near probe_base")


def _check_endpoint_map(ep: EndpointMap, pairs):
    """Require ``ep``'s value, gradients and Hessian blocks, evaluated at
    every point pair, to be finite."""
    parts = [(ep.value(a, b), *ep.grad(a, b), *ep.hess(a, b)) for a, b in pairs]
    if not all(np.all(np.isfinite(part)) for pair in parts for part in pair):
        raise NocError(f"endpoint map {ep.label!r} is not finite at a "
                       f"validation point pair")


def _probe_base(chart: ManifoldChart, probe_base) -> np.ndarray:
    base = np.zeros(chart.dim) if probe_base is None else np.asarray(probe_base, float)
    if not valid_point(chart, base):
        raise NocError("probe_base is not a valid chart point; pass one explicitly")
    return base


_PROBE_SEED = 0     # make_problem's default seed, which rebind_problem follows


def _validation_draws(problem: ControlProblem, probe_base, seed: int,
                      pairs: bool = True) -> tuple:
    """(unit probes, point pairs) that validation draws near ``probe_base``
    from ``seed``: ``_unit_probe_points``, then ``_point_pairs``, or None
    for the pairs when they are not asked for. Neither depends on the
    horizon or the params, so ``problem._draws`` keeps them, and a problem
    rebound from it, which has its chart and dimensions, starts with them.
    The kept arrays are read-only."""
    key = (probe_base.tobytes(), seed)
    kept = problem._draws.get(key)
    if kept is not None and (kept[1] is not None or not pairs):
        return kept
    rng = Stream(seed)
    unit = _unit_probe_points(problem, probe_base, rng)
    drawn = (unit, _point_pairs(problem, probe_base, rng) if pairs else None)
    for a in list(unit) + [y for ep_pairs in drawn[1] or () for pair in ep_pairs
                           for y in pair]:
        a.flags.writeable = False
    problem._draws[key] = drawn
    return drawn


def make_problem(chart: ManifoldChart, horizon: float, dynamics: DynamicsModel,
                 cost: EndpointMap, inequality_maps=(), equality_maps=(),
                 control_set=None, validate: bool = True, probe_base=None,
                 seed: int = _PROBE_SEED) -> ControlProblem:
    """Assemble and (by default) validate a ControlProblem.

    The model and the maps are built from expressions, so their
    derivatives are exact and validation only requires them to be finite:
    the rhs and its five derivative blocks, from one ``blocks_many`` call,
    at 20 random probe points near ``probe_base`` (default: chart origin),
    where the float ``rk4_cell`` must also reproduce ``_rk4_step``, and each
    endpoint map's value, gradients and Hessian blocks at 6 point pairs.
    The first failure in probe order is reported.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if dynamics.state_dim != chart.dim:
        raise ValueError("dynamics state dimension does not match the chart")
    if control_set is None:
        m = dynamics.control_dim
        control_set = Box(lower=tuple(-math.inf for _ in range(m)),
                          upper=tuple(math.inf for _ in range(m)))
    problem = ControlProblem(chart=chart, horizon=float(horizon), dynamics=dynamics,
                             cost=cost, inequality_maps=tuple(inequality_maps),
                             equality_maps=tuple(equality_maps), control_set=control_set)
    if validate:
        (unit_t, y, u), pairs = _validation_draws(
            problem, _probe_base(chart, probe_base), seed)
        _validate_dynamics(problem, (problem.horizon * unit_t, y, u))
        _validate_endpoints(problem, pairs)
    return problem


def rebind_problem(problem: ControlProblem, horizon: float, values,
                   probe_base=None) -> ControlProblem:
    """``problem`` at another horizon and other parameter values, without
    compiling its expressions again.

    ``values`` maps parameter names to values. The dynamics and endpoint
    maps that carry ``rebind`` move to them; the others do not depend on
    parameters and are kept. The checks are those of ``make_problem``, at
    its probes and point pairs for its default seed, this horizon and
    ``probe_base``, but for the float RK4 cell, which ``problem`` shares,
    and only the endpoint maps that moved are checked. The draws are those
    ``problem`` keeps for that base, when it does (``_validation_draws``),
    and no point pairs are drawn when no map moved.
    """
    def moved(part):
        return part if part.rebind is None else part.rebind(values)

    rebound = make_problem(
        problem.chart, horizon, moved(problem.dynamics), moved(problem.cost),
        inequality_maps=tuple(map(moved, problem.inequality_maps)),
        equality_maps=tuple(map(moved, problem.equality_maps)),
        control_set=problem.control_set, validate=False)
    rebound._draws.update(problem._draws)
    moved_maps = tuple(ep for ep in rebound.endpoint_maps if ep.rebind is not None)
    (unit_t, y, u), pairs = _validation_draws(
        rebound, _probe_base(rebound.chart, probe_base), _PROBE_SEED,
        pairs=bool(moved_maps))
    _check_blocks(rebound.dynamics, (rebound.horizon * unit_t, y, u))
    if moved_maps:
        _validate_endpoints(rebound, pairs, only=moved_maps)
    return rebound


# ----------------------------------------------------------------------------
# trajectories and fields
# ----------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Trajectory:
    """States on a uniform grid under piecewise-constant controls.

    The arrays are read-only copies of those passed in, so they cannot
    change after construction: derivative data built along the trajectory
    is kept with it (``_propagators``, the cell propagators of each
    dynamics model that asked for them).
    """

    chart: ManifoldChart
    grid: np.ndarray      # (N+1,)
    states: np.ndarray    # (N+1, n)
    controls: np.ndarray  # (N, m), constant on [t_i, t_{i+1})
    _propagators: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for name in ("grid", "states", "controls"):
            values = np.array(getattr(self, name), float)
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    @property
    def num_cells(self) -> int:
        return self.controls.shape[0]

    @property
    def step(self) -> float:
        return float(self.grid[-1] - self.grid[0]) / self.num_cells


@dataclass(frozen=True, eq=False)
class FieldAlongCurve:
    """One vector (or covector) per grid node, based at the matching state."""

    trajectory: Trajectory
    values: np.ndarray     # (N+1, n); (N+1, n, k) for k adjoints at once
    kind: str              # "tangent" | "cotangent"

    def at(self, i: int):
        base = self.trajectory.states[i]
        if self.kind == "cotangent":
            return CotangentVector(base=base, components=self.values[i])
        return TangentVector(base=base, components=self.values[i])


def _rk4_step(fun, t, z, h):
    k1 = fun(t, z)
    k2 = fun(t + 0.5 * h, z + (0.5 * h) * k1)
    k3 = fun(t + 0.5 * h, z + (0.5 * h) * k2)
    k4 = fun(t + h, z + h * k3)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _check_controls(problem: ControlProblem, controls) -> np.ndarray:
    controls = np.asarray(controls, float)
    if controls.ndim != 2 or controls.shape[1] != problem.control_dim:
        raise ValueError(
            f"controls must have shape (N, {problem.control_dim}), got {controls.shape}")
    if controls.shape[0] < 1:
        raise ValueError("need at least one grid cell")
    if not np.all(np.isfinite(controls)):
        raise NonFiniteState("controls contain non-finite entries")
    return controls


def _start_components(trajectory: Trajectory, vec, what: str) -> np.ndarray:
    n = trajectory.states.shape[1]
    if isinstance(vec, (TangentVector, CotangentVector)):
        base = np.asarray(vec.base, float)
        y0 = trajectory.states[0]
        if base.shape != y0.shape or not np.allclose(base, y0, rtol=0.0,
                                                     atol=1e-9 * (1.0 + np.abs(y0).max())):
            raise BasePointMismatch(f"{what} must be based at the initial state")
        c = np.asarray(vec.components, float)
    else:
        c = np.asarray(vec, float)
    if c.shape != (n,):
        raise ValueError(f"{what} must have {n} components")
    return c


def integrate_state(problem: ControlProblem, start_point, controls) -> Trajectory:
    """One classical RK4 step per grid cell; the grid size is the number of
    control rows.

    With a compiled ``rk4_cell`` (one that carries ``run``) the cells run
    on Python floats, one ``run`` call per stretch of cells. A cell that
    raises there, goes non-finite or leaves the chart is redone by
    ``_rk4_step`` on ``rhs``, so its result, error and numerical warnings
    are those of the numpy path; the next stretch starts after it.
    """
    controls = _check_controls(problem, controls)
    y = np.asarray(start_point, float).copy()
    if y.shape != (problem.state_dim,):
        raise ValueError(f"start point must have {problem.state_dim} coordinates")
    if not valid_point(problem.chart, y):
        raise ChartEscape("start point is outside the chart domain")
    N = controls.shape[0]
    grid = np.linspace(0.0, problem.horizon, N + 1)
    h = problem.horizon / N
    states = np.empty((N + 1, problem.state_dim))
    states[0] = y
    rhs = problem.dynamics.rhs
    run = getattr(problem.dynamics.rk4_cell, "run", None)
    if run is not None:
        times, control_rows = grid.tolist(), controls.tolist()
    i = 0
    while i < N:
        if run is not None:
            i = _float_cells(run, problem.chart, times, control_rows, h, states, i)
            if i == N:
                break
        u = controls[i]
        y = _rk4_step(lambda t, z: rhs(t, z, u), grid[i], states[i], h)
        if not np.all(np.isfinite(y)):
            raise NonFiniteState(f"state became non-finite in cell {i}")
        if not valid_point(problem.chart, y):
            raise ChartEscape(f"state left the chart domain in cell {i}")
        states[i + 1] = y
        i += 1
    return Trajectory(chart=problem.chart, grid=grid, states=states, controls=controls)


def _float_cells(run, chart: ManifoldChart, times, controls, h, states,
                 start: int) -> int:
    """Advance ``states`` by the float cells' ``run`` from cell ``start``
    until a cell raises or goes non-finite, and return the first cell to
    redo on the numpy path: that cell, an earlier one whose state left the
    chart, or the number of cells when none."""
    done = []
    i = run(times, h, controls, start, states[start].tolist(), done)
    if done:
        new = states[start + 1:i + 1]
        new[:] = done
        escaped = np.flatnonzero(~valid_point(chart, new))
        if escaped.size:
            return start + int(escaped[0])
    return i


def _check_direction_shape(trajectory: Trajectory, directions) -> np.ndarray:
    directions = np.asarray(directions, float)
    if directions.shape != trajectory.controls.shape:
        raise ValueError(
            f"control directions must match the control array shape "
            f"{trajectory.controls.shape}, got {directions.shape}")
    return directions


def integrate_variational(problem: ControlProblem, trajectory: Trajectory,
                          control_directions, start_vector, *,
                          _iterates=None) -> FieldAlongCurve:
    """First-order response X of the flow to (start_vector, control_directions).

    X_{i+1} = M_i X_i + B_i v_i with the cell propagators of
    ``_cell_propagators``, so X is the exact derivative of the discrete flow.
    In the chart the connection terms of the covariant variational equation
    cancel, leaving the plain linearisation Xdot = f_y X + f_u v.

    Called alone it runs that recursion (``_variational_chain``) itself. A
    stacked run (``run_stacked``) runs the recursions of many points as one
    chain and hands each point its iterates as ``_iterates``; the field of
    one point is the one it gets alone, bit for bit.
    """
    chain = _variational_chain(problem, trajectory, control_directions, start_vector)
    values = _own_iterates(chain, _iterates)
    bad = _non_finite_rows(values[1:])
    if bad.size:
        raise NonFiniteState(f"variational field became non-finite in cell {bad[0]}")
    return FieldAlongCurve(trajectory=trajectory, values=values, kind="tangent")


def _variational_chain(problem: ControlProblem, trajectory: Trajectory,
                       control_directions, start_vector) -> _Chain:
    v_seq = _check_direction_shape(trajectory, control_directions)
    X = _start_components(trajectory, start_vector, "start vector")
    M, B = _cell_propagators(problem, trajectory)
    return _Chain(M, X, (B @ v_seq[:, :, None])[:, :, 0])


class _Chain(NamedTuple):
    """The arguments of one ``_chain`` call."""

    M: np.ndarray
    start: np.ndarray
    forcing: np.ndarray | None = None
    backward: bool = False


def _chain(M, start, forcing=None, backward=False) -> np.ndarray:
    """The linear recursion x_{i+1} = M_i x_i (+ forcing_i) over the cells
    of M (N, n, n) from x_0 = start, an (n,) vector or (n, k) matrix: all
    N + 1 iterates, stacked along a leading axis. ``backward`` runs the
    transposed recursion x_i = M_i^T x_{i+1} (+ forcing_i) from x_N = start
    instead, the iterates still in node order.

    With a leading point axis, M (K, N, n, n), start (K, n) or (K, n, k)
    and forcing (K, N, n) hold K recursions of one shape, run together as
    one (K, n, n) @ (K, n, k) product per cell (a vector as one column);
    the iterates are then (K, N + 1, ...). Each point's iterates equal
    those of its recursion run alone bit for bit: each cell's maps keep
    the memory order they have alone, M_i^T a transposed view, because
    matmul picks its kernel by that order.
    """
    stacked = np.ndim(M) == 4
    column = stacked and np.ndim(start) == 2
    if column:
        start = start[..., None]
        forcing = None if forcing is None else forcing[..., None]
    if stacked:
        # cell-major: the K maps of a cell are one contiguous block
        M = np.ascontiguousarray(np.swapaxes(M, 0, 1))
        forcing = None if forcing is None else np.swapaxes(forcing, 0, 1)
    shape = np.shape(start)
    x = np.empty(shape[:1] + (len(M) + 1,) + shape[1:] if stacked
                 else (len(M) + 1,) + shape)
    nodes = np.swapaxes(x, 0, 1) if stacked else x     # node-major view
    if backward:        # from the last node down, so x is in node order
        M = np.swapaxes(M, -1, -2)[::-1]
        forcing = None if forcing is None else forcing[::-1]
        nodes = nodes[::-1]
    nodes[0] = start
    if forcing is None:
        for step, now, after in zip(M, nodes, nodes[1:]):
            np.matmul(step, now, out=after)
    else:
        for step, now, after, push in zip(M, nodes, nodes[1:], forcing):
            np.matmul(step, now, out=after)
            after += push
    return x[..., 0] if column else x


def _run_chains(chains: list) -> list:
    """The iterates of every ``_Chain`` in ``chains``: one ``_chain`` call
    per group of chains of one shape, with a leading point axis when the
    group has more than one. They run with overflow and invalid-value
    warnings off, as such a warning could not name its point; see
    ``_own_iterates``."""
    groups: dict = {}
    for i, chain in enumerate(chains):
        key = (chain.M.shape, np.shape(chain.start), chain.forcing is None,
               chain.backward)
        groups.setdefault(key, []).append(i)
    out = [None] * len(chains)
    with np.errstate(over="ignore", invalid="ignore"):
        for members in groups.values():
            if len(members) == 1:
                out[members[0]] = _chain(*chains[members[0]])
                continue
            M, start, forcing, backward = zip(*(chains[i] for i in members))
            # M is stacked cell-major and handed over as a view with the
            # point axis first, so that _chain's cell-major copy is no copy
            values = _chain(np.swapaxes(np.stack(M, axis=1), 0, 1),
                            np.stack(start),
                            None if forcing[0] is None else np.stack(forcing),
                            backward[0])
            for i, point in zip(members, values):
                out[i] = point
    return out


def _own_iterates(chain: _Chain, iterates) -> np.ndarray:
    """``iterates``, the values of ``chain`` from a stacked run, when they
    are all finite; otherwise the chain run here, alone, so that a point
    that fails meets the numerical warnings of its own recursion, at its
    own place in its work."""
    if iterates is not None and np.isfinite(iterates).all():
        return iterates
    return _chain(*chain)


def run_stacked(steps: list) -> list:
    """Run the step generators ``steps`` together; return per generator
    what it returns, or the exception that ended it.

    A step generator is one point's work (see ``_stackable``): it yields a
    ``_Chain`` whenever it needs one and is sent the chain's iterates. Each
    round advances every live generator to its next chain, then runs the
    round's chains at once (``_run_chains``), so a sweep whose points all
    need the same passes runs one chain per pass, not one per point. A
    point holds its trajectory and propagators until its last chain, so
    the generators run in consecutive groups of at most ``STACK_DEPTH``.
    """
    outcomes = [None] * len(steps)
    for first in range(0, len(steps), STACK_DEPTH):
        sends = dict.fromkeys(range(first, min(first + STACK_DEPTH, len(steps))))
        while sends:
            chains = {}
            for i, value in sends.items():
                try:
                    chains[i] = steps[i].send(value)
                except StopIteration as done:
                    outcomes[i] = done.value
                except Exception as ex:  # noqa: BLE001 - it ends its own point only
                    outcomes[i] = ex
            sends = dict(zip(chains, _run_chains(list(chains.values()))))
    return outcomes


def _stackable(steps_fn) -> Callable:
    """Make the step generator function ``steps_fn`` an ordinary function:
    a call runs the steps alone and returns their result. ``.steps`` keeps
    the generator function, for ``run_stacked`` and for other steps to
    ``yield from``."""

    @wraps(steps_fn)
    def alone(*args, **kwargs):
        (outcome,) = run_stacked([steps_fn(*args, **kwargs)])
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    alone.steps = steps_fn
    return alone


def _non_finite_rows(values: np.ndarray) -> np.ndarray:
    """Indices of the rows (first axis) of values with a non-finite entry."""
    return np.flatnonzero(~np.isfinite(values).reshape(len(values), -1).all(axis=1))


def integrate_second_variation(problem: ControlProblem, trajectory: Trajectory,
                               control_directions, first_field: FieldAlongCurve,
                               control_accelerations, start_acceleration) -> FieldAlongCurve:
    """Second-order field Y along the trajectory.

    Solves the plain-coordinate system for B (exact one-half second
    derivative of the discrete flow) and restores the covariant field via
    Y(t) = B(t) + Γ_{y(t)}(X(t), X(t))/2 with B(0) = W - Γ_{y(0)}(X0, X0)/2,
    which is equivalent to the curvature-corrected covariant ODE for Y.

    One RK4 step of the (y, X, B) system runs over every cell at once, each
    cell from its stored node y_i and X_i with B = 0, the blocks at each
    stage from one ``_blocks_along`` call. B enters that system linearly
    through f_y, so the cell maps B_i to B_{i+1} = M_i B_i + c_i, with M_i
    the cell propagator of ``_cell_propagators`` and c_i the step's B. The
    step's X must land on ``first_field`` within 1e-8 relative.
    """
    v_seq = _check_direction_shape(trajectory, control_directions)
    s_seq = _check_direction_shape(trajectory, control_accelerations)
    W = _start_components(trajectory, start_acceleration, "start acceleration")
    X = np.asarray(first_field.values, float)
    if X.shape != trajectory.states.shape:
        raise ValueError(f"first_field values must have the trajectory's shape "
                         f"{trajectory.states.shape}, got {X.shape}")
    chart = problem.chart
    n = problem.state_dim
    N = trajectory.num_cells

    def fun(t, z):
        y, Xc, Bc = z[:, :n], z[:, n:2 * n], z[:, 2 * n:]
        f, fy, fu, fyy, fyu, fuu = _blocks_along(problem.dynamics, t, y,
                                                 trajectory.controls)
        Bdot = (np.einsum("cki,ci->ck", fy, Bc) + np.einsum("cka,ca->ck", fu, s_seq)
                + np.einsum("ckia,ci,ca->ck", fyu, Xc, v_seq)
                + 0.5 * np.einsum("ckij,ci,cj->ck", fyy, Xc, Xc)
                + 0.5 * np.einsum("ckab,ca,cb->ck", fuu, v_seq, v_seq))
        Xdot = np.einsum("cki,ci->ck", fy, Xc) + np.einsum("cka,ca->ck", fu, v_seq)
        return np.concatenate([f, Xdot, Bdot], axis=1)

    z = np.concatenate([trajectory.states[:-1], X[:-1], np.zeros((N, n))], axis=1)
    z = _rk4_step(fun, trajectory.grid[:-1], z, trajectory.step)
    # Γ(X, X)/2 at every node, in one batched call; zero on flat charts
    half_gamma = (None if chart.kind == "euclidean" else
                  0.5 * christoffel_apply(chart, trajectory.states, X, X))
    M, _ = _cell_propagators(problem, trajectory)
    B = _chain(M, W if half_gamma is None else W - half_gamma[0], z[:, 2 * n:])
    # the first failing cell, as a cell-by-cell pass would meet it; the
    # drift limit ignores non-finite entries of X, which fail their own cell
    bad = _non_finite_rows(np.concatenate([z[:, :2 * n], B[1:]], axis=1))
    drift = np.max(np.abs(z[:, n:2 * n] - X[1:]), axis=1)
    scale = np.max(np.abs(X), where=np.isfinite(X), initial=0.0)
    drifted = np.flatnonzero(drift > 1e-8 * (1.0 + scale))
    if bad.size and (not drifted.size or bad[0] <= drifted[0]):
        raise NonFiniteState(f"second-order field became non-finite in cell {bad[0]}")
    if drifted.size:
        i = drifted[0]
        raise NocError(
            "first_field is not the variational field of the given directions "
            f"(drift {drift[i]:.3e} in cell {i})")
    values = B if half_gamma is None else B + half_gamma
    return FieldAlongCurve(trajectory=trajectory, values=values, kind="tangent")


def _cell_propagators(problem: ControlProblem, trajectory: Trajectory) -> tuple:
    """The exact linear maps of every forward RK4 cell,
    dy_{i+1} = M_i dy_i + B_i du_i: M (N, n, n) and B (N, n, m), read-only.

    Each cell restarts from its stored node y_i, so the four stage points of
    every cell are formed at once. With J_s, F_s the state and control
    Jacobians at stage s and E = [I | 0], the stage derivatives chain as
    D_s = J_s (E + c_s h D_{s-1}) + [0 | F_s], and [M | B] = E + h/6
    (D_1 + 2 D_2 + 2 D_3 + D_4).

    They are built once per trajectory and dynamics model: the trajectory
    keeps them keyed by the model object itself (held, so a rebound or
    replaced model is another key), and the variational field and the
    adjoint share them.
    """
    dyn = problem.dynamics
    built = trajectory._propagators.get(dyn)
    if built is not None:
        return built
    N, n = trajectory.num_cells, problem.state_dim
    h = trajectory.step
    t, y, u = trajectory.grid[:-1], trajectory.states[:-1], trajectory.controls
    E = np.eye(n, n + problem.control_dim)
    k = np.zeros_like(y)
    D = np.zeros((N,) + E.shape)
    total = np.zeros_like(D)
    for c, weight in ((0.0, 1.0), (0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
        k, J, F = _blocks_along(dyn, t + c * h, y + (c * h) * k, u, 3)
        D = J @ (E + (c * h) * D)
        D[:, :, n:] += F
        total += weight * D
    step = E + (h / 6.0) * total
    step.flags.writeable = False
    built = trajectory._propagators[dyn] = (step[:, :, :n], step[:, :, n:])
    return built


def integrate_adjoint(problem: ControlProblem, trajectory: Trajectory,
                      multiplier, *, _iterates=None) -> FieldAlongCurve:
    """Backward covector field with terminal value = endpoint-gradient of the
    weighted endpoint aggregate at the terminal slot.

    p_i = M_i^T p_{i+1}, the exact transpose of the forward cell propagators
    of ``_cell_propagators``, so the discrete duality p_i X_i - p_N X_N =
    -sum_{j>=i} p_{j+1} B_j v_j holds to rounding. The connection terms
    cancel in the chart, leaving the plain adjoint pdot = -f_y^T p. The
    field is linear in the multiplier, so a (dim, k) matrix whose columns
    are multipliers gives all k adjoints in the same pass: values then have
    shape (N+1, n, k).

    Called alone it runs the backward chain itself. A stacked run
    (``run_stacked``) runs the chains of many points at once and hands
    each point its iterates as ``_iterates``, whose last row holds the
    terminal values (``_adjoint_chain``); as for ``integrate_variational``,
    the field is the one the point gets alone.
    """
    if _iterates is None:
        ell = np.asarray(multiplier, float)
        y0, yT = trajectory.states[0], trajectory.states[-1]
        columns = ell.T if ell.ndim == 2 else [ell]
        p = np.stack([lagrange_data(problem, y0, yT, w).grad_end for w in columns],
                     axis=-1)
        terminal = p if ell.ndim == 2 else p[:, 0]
    else:
        terminal = _iterates[-1]
    values = _own_iterates(_adjoint_chain(problem, trajectory, terminal), _iterates)
    bad = _non_finite_rows(values[:-1])
    if bad.size:
        # the pass runs backward: its first non-finite cell is the last row
        raise NonFiniteState(f"adjoint became non-finite in cell {bad[-1]}")
    return FieldAlongCurve(trajectory=trajectory, values=values, kind="cotangent")


def _adjoint_chain(problem: ControlProblem, trajectory: Trajectory,
                   terminal) -> _Chain:
    M, _ = _cell_propagators(problem, trajectory)
    return _Chain(M, terminal, backward=True)


# ----------------------------------------------------------------------------
# endpoint aggregate (weighted cost/constraint data)
# ----------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LagrangeData:
    """Weighted endpoint aggregate: value, gradients, covariant Hessians.

    Gradients are plain coordinate gradients (the differential of a scalar
    is already covariant); the two diagonal Hessian blocks carry the
    -Γ^k_{ij} d_k correction that turns coordinate Hessians into Hessians
    along geodesics.
    """

    multiplier: np.ndarray
    value: float
    grad_start: np.ndarray
    grad_end: np.ndarray
    hess_start_start: np.ndarray
    hess_start_end: np.ndarray   # [i, j] = start_i x end_j
    hess_end_end: np.ndarray


def _endpoint_christoffel(problem: ControlProblem, start_point,
                          end_point) -> tuple:
    """The Christoffel symbols at the two endpoints, () on a flat chart."""
    if problem.chart.kind == "euclidean":
        return ()
    return (christoffel(problem.chart, np.asarray(start_point, float)),
            christoffel(problem.chart, np.asarray(end_point, float)))


def lagrange_data(problem: ControlProblem, start_point, end_point,
                  multiplier, *, _gammas=()) -> LagrangeData:
    """The weighted endpoint aggregate at the two endpoints: its value,
    gradients and covariant Hessians.  A caller that asks for many
    multipliers at the same endpoints passes their
    ``_endpoint_christoffel`` as ``_gammas``, so the symbols are evaluated
    once for all of them."""
    ell = np.asarray(multiplier, float)
    if ell.shape != (problem.multiplier_dim,):
        raise ValueError(
            f"multiplier must have {problem.multiplier_dim} entries "
            f"(cost, {problem.num_inequalities} inequalities, "
            f"{problem.num_equalities} equalities)")
    y0 = np.asarray(start_point, float)
    yT = np.asarray(end_point, float)
    n = problem.state_dim
    value = 0.0
    g1 = np.zeros(n)
    g2 = np.zeros(n)
    h11 = np.zeros((n, n))
    h12 = np.zeros((n, n))
    h22 = np.zeros((n, n))
    for w, ep in zip(ell, problem.endpoint_maps):
        if w == 0.0:
            continue
        value += w * ep.value(y0, yT)
        a1, a2 = ep.grad(y0, yT)
        g1 += w * np.asarray(a1, float)
        g2 += w * np.asarray(a2, float)
        b11, b12, b22 = ep.hess(y0, yT)
        h11 += w * np.asarray(b11, float)
        h12 += w * np.asarray(b12, float)
        h22 += w * np.asarray(b22, float)
    gammas = _gammas or _endpoint_christoffel(problem, y0, yT)
    for h, gamma, g in zip((h11, h22), gammas, (g1, g2)):
        h -= _sum_over((gamma[k], g[k]) for k in range(n))
    h11 = 0.5 * (h11 + h11.T)
    h22 = 0.5 * (h22 + h22.T)
    return LagrangeData(multiplier=ell, value=float(value), grad_start=g1,
                        grad_end=g2, hess_start_start=h11, hess_start_end=h12,
                        hess_end_end=h22)


# ----------------------------------------------------------------------------
# covariant derivative blocks along a trajectory
# ----------------------------------------------------------------------------

def _sum_over(pairs) -> np.ndarray:
    """Σ a * b over the (a, b) pairs, each product broadcast over every node.

    The products are added one at a time in the order given, onto a zero
    start (so an all -0.0 sum comes out +0.0). That is the order in which
    ``np.einsum`` adds the terms of the contractions built with it, so the
    results agree bit for bit with the einsum forms in ``tests/_reference.py``,
    with one exception: three terms along an axis that is last in every
    operand (at n = 3: Γ·f, ∂Γ·f and, with one control, Γ·f_u) einsum adds
    as (t0 + t2) + t1. A command gets there only with an ``ocpe`` problem
    on the sphere, whose cost accumulator is a third, flat coordinate; Γ
    and ∂Γ vanish at that index, so t2 is a zero and both orders give the
    same bits.
    """
    pairs = iter(pairs)
    a, b = next(pairs)
    total = a * b
    total += 0.0
    for a, b in pairs:
        total += a * b
    return total


def _covariant_blocks(f, fy, fu, fyy, fyu, gamma=None, dgamma=None):
    """Covariant derivatives of the dynamics, batched over leading axes.

    Returns (A, H2, M): the state Jacobian A^k_j = d_j f^k + Γ^k_{jm} f^m,
    the Hessian (∇²f)^k_{ij} = ∇_i (∇f)^k_j and the mixed block
    M^k_{ja} = d_j d_a f^k + Γ^k_{jm} d_a f^m. Paired with a covector they
    give the Hamiltonian blocks hx, hxx and hxu. ``gamma`` None is a flat
    chart, where all three are the plain coordinate derivatives.

    Every contraction is a sum of broadcast products over the contracted
    index m (``_sum_over``), for all nodes at once. Γ·f is formed once and
    serves A and both ΓΓf terms of H2, which are Σ_m Γ^k_{im} (Γ·f)^m_j
    and Σ_m Γ^m_{ij} (Γ·f)^k_m; that rounds them in another order than one
    contraction of Γ, Γ and f would, within a few ulp. H2 is accumulated
    in place, one summand at a time, in the order of the formula.
    """
    if gamma is None:
        return fy, fyy, fyu
    n = f.shape[-1]
    idx = range(n)
    gf = _sum_over((gamma[..., m], f[..., None, None, m]) for m in idx)
    A = fy + gf
    H2 = fyy + _sum_over((np.swapaxes(dgamma[..., m], -3, -2),
                          f[..., None, None, None, m]) for m in idx)
    H2 += _sum_over((gamma[..., None, :, m], fy[..., None, m, :, None]) for m in idx)
    H2 += _sum_over((gamma[..., m, None], fy[..., None, None, m, :]) for m in idx)
    H2 += _sum_over((gamma[..., m, None], gf[..., None, None, m, :]) for m in idx)
    H2 -= _sum_over((gamma[..., None, m, :, :], fy[..., None, None, m]) for m in idx)
    H2 -= _sum_over((gamma[..., None, m, :, :], gf[..., None, None, m]) for m in idx)
    M = fyu + _sum_over((gamma[..., m, None], fu[..., None, None, m, :]) for m in idx)
    return A, H2, M


def _curvature_vectors(riemann, X, f):
    """R(X, f)X, batched over leading axes: R^l_{ijk} X^i f^j X^k, the
    products ((R X^i) f^j) X^k added in (i, j, k) order."""
    n = X.shape[-1]
    return _sum_over((riemann[..., i, j, k] * X[..., i, None] * f[..., j, None],
                      X[..., k, None])
                     for i in range(n) for j in range(n) for k in range(n))


@dataclass(frozen=True, eq=False)
class TrajectoryJet:
    """Derivative data of the dynamics along a trajectory, built once.

    Per-side arrays have leading axes (2, N): side 0 is cell i's left node
    t_i, side 1 its right node t_{i+1}, both with cell i's control; ``nodes``
    maps each side to its grid node. ``hess`` and ``mixed`` are the
    covariant blocks of ``_covariant_blocks`` (plain derivatives on flat
    charts); ``riemann`` holds R^l_{ijk} at every node, None on flat charts.
    Paired with an adjoint covector these give every integrand of the
    second-order form, so one jet serves every multiplier.
    """

    trajectory: Trajectory
    nodes: np.ndarray      # (2, N)
    f: np.ndarray          # (2, N, n)
    fu: np.ndarray         # (2, N, n, m)
    fuu: np.ndarray        # (2, N, n, m, m)
    hess: np.ndarray       # (2, N, n, n, n)
    mixed: np.ndarray      # (2, N, n, n, m)
    riemann: np.ndarray | None   # (N+1, n, n, n, n)

    def form_integrands(self, first_values, directions) -> dict:
        """The state, mixed, control and curvature integrands of the
        second-order form for first-order field values X (N+1, n) and
        control directions v (N, m), before pairing with the adjoint.

        Each entry is (2, N, n): the vector whose pairing with the adjoint
        covector at the side's node gives that summand's integrand there.
        """
        X = np.asarray(first_values, float)[self.nodes]
        v = np.asarray(directions, float)
        n, m = self.fu.shape[-2:]
        out = {
            "state_state": 0.5 * _sum_over(
                (self.hess[..., i, j] * X[..., i, None], X[..., j, None])
                for i in range(n) for j in range(n)),
            "state_control": _sum_over(
                (self.mixed[..., j, a] * X[..., j, None], v[:, a, None])
                for j in range(n) for a in range(m)),
            "control_control": 0.5 * _sum_over(
                (self.fuu[..., a, b] * v[:, a, None], v[:, b, None])
                for a in range(m) for b in range(m)),
        }
        out["curvature"] = (np.zeros_like(X) if self.riemann is None else
                            -0.5 * _curvature_vectors(self.riemann[self.nodes],
                                                      X, self.f))
        return out


def trajectory_jet(problem: ControlProblem, trajectory: Trajectory) -> TrajectoryJet:
    """Evaluate f and its first and second derivatives on both sides of every
    cell, plus Γ, ∂Γ and R at every node on curved charts."""
    N, n = trajectory.num_cells, problem.state_dim
    nodes = np.stack([np.arange(N), np.arange(1, N + 1)])
    controls = np.concatenate([trajectory.controls, trajectory.controls])
    blocks = _blocks_along(problem.dynamics, trajectory.grid[nodes].ravel(),
                           trajectory.states[nodes].reshape(2 * N, n), controls)
    f, fy, fu, fyy, fyu, fuu = (b.reshape((2, N) + b.shape[1:]) for b in blocks)
    chart = problem.chart
    geometry, riemann = (None, None), None
    if chart.kind != "euclidean":
        geometry = (christoffel(chart, trajectory.states)[nodes],
                    dchristoffel(chart, trajectory.states)[nodes])
        riemann = curvature(chart, trajectory.states).components
    _, hess, mixed = _covariant_blocks(f, fy, fu, fyy, fyu, *geometry)
    return TrajectoryJet(trajectory=trajectory, nodes=nodes, f=f, fu=fu, fuu=fuu,
                         hess=hess, mixed=mixed, riemann=riemann)


# ----------------------------------------------------------------------------
# quadrature and expansion residual
# ----------------------------------------------------------------------------

def trapezoid_quadrature(grid, node_values) -> float | np.ndarray:
    """Trapezoid rule over the grid for integrands continuous at the nodes."""
    grid = np.asarray(grid, float)
    vals = np.asarray(node_values, float)
    dt = np.diff(grid)
    avg = 0.5 * (vals[:-1] + vals[1:])
    return np.tensordot(dt, avg, axes=(0, 0))


def trapezoid_cellwise(grid, left_values, right_values) -> float | np.ndarray:
    """Trapezoid rule for integrands that jump at interior nodes.

    Piecewise-constant controls make control-dependent integrands
    double-valued at cell boundaries; cell i contributes
    (left_i + right_i)/2 * dt_i where both evaluations use cell i's control
    (left at t_i, right at t_{i+1}).
    """
    dt = np.diff(np.asarray(grid, float))
    L = np.asarray(left_values, float)
    R = np.asarray(right_values, float)
    return np.tensordot(dt, 0.5 * (L + R), axes=(0, 0))


def refine_controls(controls, factor: int) -> np.ndarray:
    """The same piecewise-constant control on a grid refined by ``factor``."""
    if factor < 1:
        raise ValueError("refinement factor must be >= 1")
    return np.repeat(np.asarray(controls, float), factor, axis=0)


def expansion_residual(problem: ControlProblem, trajectory: Trajectory,
                       control_directions, first_field: FieldAlongCurve,
                       sigma_family, start_acceleration, eps_list,
                       sigma_cap: float | None = 100.0) -> list:
    """Sup-norm defect of the second-order expansion of the perturbed flow.

    For each ε the perturbed control is ū + ε v + ε² σ_ε (σ_ε from
    ``sigma_family``, either a constant (N, m) array or a callable of ε),
    the perturbed start is exp(ε X0 + ε² W), and the residual is
    sup_i | log(perturbed state) − ε X − ε² Y | in the Riemannian norm.
    Y is re-integrated per ε because σ_ε changes with ε.
    """
    v_seq = _check_direction_shape(trajectory, control_directions)
    W = _start_components(trajectory, start_acceleration, "start acceleration")
    chart = problem.chart
    X0 = first_field.values[0]
    h = trajectory.step
    out = []
    for eps in eps_list:
        eps = float(eps)
        if eps == 0.0:
            out.append((0.0, 0.0))
            continue
        sig = sigma_family(eps) if callable(sigma_family) else np.asarray(sigma_family, float)
        sig = _check_direction_shape(trajectory, sig)
        if sigma_cap is not None:
            l2 = math.sqrt(float(np.sum(sig ** 2) * h))
            if l2 > sigma_cap:
                raise BoundViolated(
                    f"sigma family exceeds the L2 cap at eps={eps:g}: "
                    f"{l2:.6g} > {sigma_cap:.6g}")
        second = integrate_second_variation(problem, trajectory, v_seq, first_field,
                                            sig, W)
        start = exp_map(chart, trajectory.states[0], eps * X0 + eps * eps * W)
        perturbed = integrate_state(problem, start,
                                    trajectory.controls + eps * v_seq + eps * eps * sig)
        worst = 0.0
        for i in range(trajectory.num_cells + 1):
            Vc = log_map(chart, trajectory.states[i], perturbed.states[i]).components
            defect = Vc - eps * first_field.values[i] - eps * eps * second.values[i]
            worst = max(worst, norm(chart, TangentVector(base=trajectory.states[i],
                                                         components=defect)))
        out.append((eps, float(worst)))
    return out
