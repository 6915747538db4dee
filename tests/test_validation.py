"""Problem validation in ``make_problem`` and ``rebind_problem``.

Only hand-written derivatives (``supplied``) meet central differences;
expression models and maps are exact, so validation only requires their
values and blocks to be finite and checks their generated code. The
references below are the one-point stencils and the probe-by-probe
validation loop written out per point; the batched stencils must equal
them bit for bit, and a rejected callback problem must carry the message
the loop gives. (A batched expression rounds an array power as numpy does,
which can differ in the last bit from the scalar power of a per-point call;
the stencil points of the models here meet no such difference.) The old
comparison of the shipped expression models with central differences is
kept as a test of their blocks.
"""
from __future__ import annotations

import collections
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import noc.dynamics
from noc.dynamics import (_fd_block, _fd_endpoint, _fd_rounding, _FD1_SCALE,
                          _FD2_SCALE, _fd_step, _per_point, _probe_base,
                          _rhs_many, builtin_dynamics,
                          dynamics_from_callbacks, dynamics_from_expressions,
                          endpoint_from_expressions, endpoint_map, make_problem,
                          rebind_problem)
from noc.errors import NocError
from noc.geometry import euclidean, sphere, valid_point
from noc.presets import load_preset
from noc.problemfile import build_control_problem, parse_problem_file

from _problems import linear_endpoint
from _reference import probe_points

WRT = ("y", "u", "yy", "yu", "uu")
NAMES = ("rhs_y", "rhs_u", "rhs_yy", "rhs_yu", "rhs_uu")


# ----------------------------------------------------------------------------
# per-point references
# ----------------------------------------------------------------------------

def ref_first(fun, t, y, u, wrt):
    base = y if wrt == "y" else u
    h = _fd_step(base, _FD1_SCALE)
    cols = []
    for i in range(base.size):
        e = np.zeros(base.size)
        e[i] = h
        if wrt == "y":
            cols.append((fun(t, y + e, u) - fun(t, y - e, u)) / (2 * h))
        else:
            cols.append((fun(t, y, u + e) - fun(t, y, u - e)) / (2 * h))
    return np.stack(cols, axis=-1)


def ref_second(fun, t, y, u, wrt):
    n, m = y.size, u.size

    def at(dy, du):
        return fun(t, y + dy, u + du)

    if wrt == "yu":
        hy = _fd_step(y, _FD2_SCALE)
        hu = _fd_step(u, _FD2_SCALE)
        out = np.empty((fun(t, y, u).size, n, m))
        for i in range(n):
            for a in range(m):
                ei = np.zeros(n)
                ei[i] = hy
                ea = np.zeros(m)
                ea[a] = hu
                out[:, i, a] = (at(ei, ea) - at(ei, -ea)
                                - at(-ei, ea) + at(-ei, -ea)) / (4 * hy * hu)
        return out
    size = n if wrt == "yy" else m
    h = _fd_step(y if wrt == "yy" else u, _FD2_SCALE)

    def shifted(d):
        return at(d, 0) if wrt == "yy" else at(0, d)

    out = np.empty((fun(t, y, u).size, size, size))
    for i in range(size):
        for j in range(i, size):
            ei = np.zeros(size)
            ei[i] = h
            ej = np.zeros(size)
            ej[j] = h
            if i == j:
                val = (shifted(ei) - 2 * shifted(ei * 0) + shifted(-ei)) / (h * h)
            else:
                val = (shifted(ei + ej) - shifted(ei - ej)
                       - shifted(-ei + ej) + shifted(-ei - ej)) / (4 * h * h)
            out[:, i, j] = val
            out[:, j, i] = val
    return out


def ref_block(fun, t, y, u, wrt):
    return (ref_first if len(wrt) == 1 else ref_second)(fun, t, y, u, wrt)


def ref_endpoint_grad(val, y0, yT):
    h0 = _fd_step(y0, _FD1_SCALE)
    hT = _fd_step(yT, _FD1_SCALE)
    g1 = np.empty(y0.size)
    g2 = np.empty(yT.size)
    for i in range(y0.size):
        e = np.zeros(y0.size)
        e[i] = h0
        g1[i] = (val(y0 + e, yT) - val(y0 - e, yT)) / (2 * h0)
    for i in range(yT.size):
        e = np.zeros(yT.size)
        e[i] = hT
        g2[i] = (val(y0, yT + e) - val(y0, yT - e)) / (2 * hT)
    return g1, g2


def ref_endpoint_hess(val, y0, yT):
    joint = np.concatenate([y0, yT])
    n0, dim = y0.size, joint.size
    h = _fd_step(joint, _FD2_SCALE)

    def at(d):
        z = joint + d
        return val(z[:n0], z[n0:])

    H = np.empty((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            ei = np.zeros(dim)
            ei[i] = h
            ej = np.zeros(dim)
            ej[j] = h
            if i == j:
                H[i, i] = (at(ei) - 2 * at(ei * 0) + at(-ei)) / (h * h)
            else:
                H[i, j] = H[j, i] = (at(ei + ej) - at(ei - ej)
                                     - at(-ei + ej) + at(-ei - ej)) / (4 * h * h)
    return H[:n0, :n0], H[:n0, n0:], H[n0:, n0:]


def ref_dynamics_failure(problem, probes, tol=1e-4):
    """(probe, message) of the first failing (probe, block) pair, probe by
    probe, or None."""
    dyn = problem.dynamics
    for p, (t, y, u) in enumerate(zip(*probes)):
        t = float(t)
        f = dyn.rhs(t, y, u)
        fmax = float(np.max(np.abs(f), initial=0.0))
        for name, wrt in zip(NAMES, WRT):
            a = np.asarray(getattr(dyn, name)(t, y, u), float)
            b = ref_block(dyn.rhs, t, y, u, wrt)
            limit = tol * (1.0 + float(np.max(np.abs(b))))
            err = float(np.max(np.abs(a - b)))
            if err <= limit:
                continue
            if not np.isfinite(err):
                return p, (f"dynamics block {name} or its central differences "
                           f"are not finite at a validation probe point")
            rounding = _fd_rounding(fmax, y, u, wrt)
            if rounding > limit:
                return p, (f"dynamics rhs reaches {fmax:.3e} at a validation probe "
                           f"point, too large to check {name} by central "
                           f"differences: their rounding error (up to "
                           f"{rounding:.3e}) exceeds tol {limit:.3e}")
            return p, (f"dynamics block {name} disagrees with central differences "
                       f"by {err:.3e} (tol {limit:.3e})")
    return None


def ref_endpoint_failure(problem, base, rng, tol=1e-4):
    """(pair, message) of the first failing endpoint comparison, or None."""
    n = problem.state_dim
    for ep in problem.endpoint_maps:
        for k in range(6):
            for _ in range(40):
                y0 = base + 0.1 * rng.standard_normal(n)
                yT = base + 0.1 * rng.standard_normal(n)
                if valid_point(problem.chart, y0) and valid_point(problem.chart, yT):
                    break
            val = lambda a, b: float(ep.value(a, b))        # noqa: E731
            got = (*ep.grad(y0, yT), *ep.hess(y0, yT))
            want = (*ref_endpoint_grad(val, y0, yT), *ref_endpoint_hess(val, y0, yT))
            for a, b in zip(got, want):
                err = np.max(np.abs(np.asarray(a, float) - b))
                if err > tol * (1.0 + float(np.max(np.abs(b)))):
                    return k, (f"endpoint map {ep.label!r} derivative disagrees "
                               f"with central differences by {err:.3e}")
    return None


def probes_of(problem, seed: int = 0):
    base = _probe_base(problem.chart, None)
    return probe_points(problem, base, np.random.default_rng(seed))


# ----------------------------------------------------------------------------
# same values
# ----------------------------------------------------------------------------

def _callback_model():
    def rhs(t, y, u):
        return np.array([math.sin(y[1]) + u[0] ** 2 * t, y[0] * u[1] - y[1] ** 3])

    return dynamics_from_callbacks(2, 2, rhs)


def _problem(chart, dyn):
    return make_problem(chart, 0.7, dyn, linear_endpoint((0.0, 0.0), (1.0, 0.0)),
                        validate=False)


PROBLEMS = {
    # the sphere-check dynamics on the sphere chart
    "sphere": lambda: _problem(sphere(1.0),
                               dynamics_from_expressions(("u1", "1 + y1^2"), 2, 1)),
    "params": lambda: _problem(euclidean(2), dynamics_from_expressions(
        ("y2 + k*exp(u1)", "-k^2*sin(y1)*y2 + t*u1/k"), 2, 1, params={"k": 3.0})),
    "callbacks": lambda: _problem(euclidean(2), _callback_model()),
    "preset-ccs126": lambda: build_control_problem(load_preset("ccs126")),
    "preset-linear-lq-euclid":
        lambda: build_control_problem(load_preset("linear-lq-euclid")),
}


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_dynamics_stencils_equal_the_per_point_loop(name):
    problem = PROBLEMS[name]()
    dyn = problem.dynamics
    t, y, u = probes_of(problem)
    assert (dyn.blocks_many is None) == (name == "callbacks")
    for wrt in WRT:
        got = _fd_block(_rhs_many(dyn), t, y, u, wrt)
        want = np.array([ref_block(dyn.rhs, float(tp), yp, up, wrt)
                         for tp, yp, up in zip(t, y, u)])
        np.testing.assert_array_equal(got, want)
    if name == "callbacks":
        # the finite-difference fallbacks are the same stencil at one point
        assert dyn.supplied == frozenset()
        for block, wrt in zip(NAMES, WRT):
            for tp, yp, up in zip(t, y, u):
                np.testing.assert_array_equal(getattr(dyn, block)(float(tp), yp, up),
                                              ref_block(dyn.rhs, float(tp), yp, up, wrt))


def test_endpoint_stencils_equal_the_per_point_loop():
    rng = np.random.default_rng(3)
    y0 = 0.3 * rng.standard_normal((6, 2))
    yT = 0.3 * rng.standard_normal((6, 2))

    def value(y0, yT):
        return math.cos(y0[0] * yT[1]) + yT[0] ** 3 - y0[1] * yT[1]

    callback = endpoint_map(value, label="callback")
    assert callback.supplied == frozenset()
    many = _per_point(callback.value)
    grads = _fd_endpoint(many, y0, yT, 1)
    hessians = _fd_endpoint(many, y0, yT, 2)
    for p in range(6):
        want = (*ref_endpoint_grad(callback.value, y0[p], yT[p]),
                *ref_endpoint_hess(callback.value, y0[p], yT[p]))
        for got, ref in zip(grads + hessians, want):
            np.testing.assert_array_equal(got[p], ref)
    # the callback map's own fallbacks are the same stencils at one pair
    for p in range(6):
        np.testing.assert_array_equal(
            np.concatenate(callback.grad(y0[p], yT[p])),
            np.concatenate(ref_endpoint_grad(callback.value, y0[p], yT[p])))
        for got, ref in zip(callback.hess(y0[p], yT[p]),
                            ref_endpoint_hess(callback.value, y0[p], yT[p])):
            np.testing.assert_array_equal(got, ref)


# ----------------------------------------------------------------------------
# same decisions
# ----------------------------------------------------------------------------

def test_a_block_wrong_at_some_probes_fails_as_the_per_point_loop_does():
    def rhs(t, y, u):
        return np.array([y[1] + u[0], math.sin(y[0]) * y[1]])

    def rhs_yy(t, y, u):
        out = np.zeros((2, 2, 2))
        out[1] = [[-math.sin(y[0]) * y[1], math.cos(y[0])], [math.cos(y[0]), 0.0]]
        if y[0] > 0.05:                 # wrong at about a third of the probes
            out[1, 0, 0] += y[0]
        return out

    dyn = dynamics_from_callbacks(2, 1, rhs, rhs_yy=rhs_yy)
    cost = linear_endpoint((0.0, 0.0), (1.0, 0.0))
    problem = make_problem(euclidean(2), 1.0, dyn, cost, validate=False)
    probe, message = ref_dynamics_failure(problem, probes_of(problem))
    assert probe > 0 and "rhs_yy disagrees" in message
    with pytest.raises(NocError) as err:
        make_problem(euclidean(2), 1.0, dyn, cost)
    assert str(err.value) == message


def test_a_wrong_endpoint_gradient_fails_as_the_per_point_loop_does():
    def grad(y0, yT):
        g = np.array([2.0 * y0[0], 1.0])
        if y0[0] > 0.06:                # wrong at some of the point pairs
            g[1] += y0[0]
        return g, np.zeros(2)

    cost = endpoint_map(lambda y0, yT: y0[0] ** 2 + y0[1], grad=grad,
                        hess=lambda y0, yT: (np.diag([2.0, 0.0]), np.zeros((2, 2)),
                                             np.zeros((2, 2))), label="cost")
    dyn = builtin_dynamics("linear", a=np.zeros((2, 2)), b=np.eye(2))
    problem = make_problem(euclidean(2), 1.0, dyn, cost, validate=False)
    rng = np.random.default_rng(0)
    probe_points(problem, np.zeros(2), rng)     # the dynamics probes come first
    pair, message = ref_endpoint_failure(problem, np.zeros(2), rng)
    assert pair > 0 and "'cost' derivative disagrees" in message
    with pytest.raises(NocError) as err:
        make_problem(euclidean(2), 1.0, dyn, cost)
    assert str(err.value) == message


def test_a_non_finite_endpoint_map_is_rejected_naming_it():
    # NaN at the pairs with a negative coordinate; the map is exact, so
    # nothing is differenced, and the finite check catches it
    dyn = builtin_dynamics("linear", a=np.zeros((2, 2)), b=np.eye(2))
    cost = endpoint_from_expressions("sqrt(yT1) + log(y01)", 2, label="cost")
    with np.errstate(invalid="ignore"), pytest.raises(NocError) as err:
        make_problem(euclidean(2), 1.0, dyn, cost)
    assert str(err.value) == ("endpoint map 'cost' is not finite at a "
                              "validation point pair")


def test_a_non_finite_hand_written_gradient_is_rejected():
    # a NaN difference passes an ``err > limit`` test; the comparison must
    # fail unless ``err <= limit``
    cost = endpoint_map(lambda y0, yT: float(yT[0]),
                        grad=lambda y0, yT: (np.zeros(2), np.array([1.0, np.nan])),
                        label="cost")
    dyn = builtin_dynamics("linear", a=np.zeros((2, 2)), b=np.eye(2))
    with pytest.raises(NocError, match="'cost' derivative or its central "
                                       "differences are not finite"):
        make_problem(euclidean(2), 1.0, dyn, cost)


def test_expression_problems_are_never_differenced(monkeypatch):
    calls = collections.Counter()
    for name in ("_fd_block", "_fd_endpoint"):
        def counted(*args, _name=name, _fn=getattr(noc.dynamics, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(noc.dynamics, name, counted)
    build_control_problem(load_preset("ccs126"))
    make_problem(sphere(1.0), 0.5, dynamics_from_expressions(("u1", "1 + y1^2"), 2, 1),
                 endpoint_from_expressions("yT2 + k*y01^2", 2, params={"k": 2.0}))
    assert calls == {}
    # hand-written parts still are: five blocks, and two endpoint orders
    # whose three stencils go through _fd_block as well
    make_problem(euclidean(2), 1.0,
                 builtin_dynamics("linear", a=np.zeros((2, 2)), b=np.eye(2)),
                 linear_endpoint((1.0, 0.0), (0.0, 0.0)))
    assert calls == {"_fd_block": 5 + 3, "_fd_endpoint": 2}


def _shipped_control_files():
    valid = Path(__file__).resolve().parent.parent / "docs" / "conformance" / "valid"
    files = {f"preset-{name}": load_preset(name) for name in ("ccs126", "linear-lq-euclid")}
    for path in sorted(valid.glob("*.noc")):
        pf = parse_problem_file(path.read_text())
        if pf.kind != "op":
            files[path.stem] = pf
    return files


SHIPPED = _shipped_control_files()


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_expression_models_agree_with_central_differences(name):
    # the comparison make_problem ran before expression blocks were taken
    # as exact: every block within 1e-4 relative of central differences at
    # the make_problem probes, and every endpoint map at its point pairs
    pf = SHIPPED[name]
    problem = build_control_problem(pf)
    dyn = problem.dynamics
    assert dyn.supplied == frozenset() and dyn.blocks_many is not None
    base = np.array(pf.start + ((0.0,) if pf.kind == "ocpe" else ()))
    rng = np.random.default_rng(0)
    t, y, u = probe_points(problem, base, rng)
    for block, wrt in zip(NAMES, WRT):
        got = np.array([getattr(dyn, block)(float(tp), yp, up)
                        for tp, yp, up in zip(t, y, u)])
        fd = _fd_block(_rhs_many(dyn), t, y, u, wrt)
        for a, b in zip(got, fd):
            assert np.max(np.abs(a - b)) <= 1e-4 * (1.0 + np.max(np.abs(b))), block
    assert ref_endpoint_failure(problem, base, rng) is None


# ----------------------------------------------------------------------------
# batched evaluations per validation
# ----------------------------------------------------------------------------

def _counted(part, counts, names):
    """``part`` with the callables ``names`` counted under their names; a
    rebound part is counted too."""
    def wrap(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    fields = {name: wrap(name, getattr(part, name)) for name in names}
    if part.rebind is not None:
        fields["rebind"] = lambda values: _counted(part.rebind(values), counts, names)
    return dataclasses.replace(part, **fields)


def test_validation_evaluates_its_stencils_in_batches():
    counts = collections.Counter()
    dyn = _counted(dynamics_from_expressions(("u1", "k + y1^2"), 2, 1,
                                             params={"k": 1.0}),
                   counts, ("blocks_many",) + ("rhs",) + NAMES)
    maps = [_counted(endpoint_from_expressions(text, 2, label=text, params={"k": 1.0}),
                     counts, ("value", "grad", "hess"))
            for text in ("yT2", "y01", "k*y02")]
    problem = make_problem(sphere(1.0), 0.5, dyn, maps[0],
                           equality_maps=maps[1:])
    # no per-node callback and nothing differenced: the rhs and its blocks
    # at all probes from one batched call, and the float cell compared with
    # one RK4 step over all probes (four stages); each map is evaluated
    # once per point pair
    assert counts == {"blocks_many": 1 + 4, "value": 3 * 6, "grad": 3 * 6,
                      "hess": 3 * 6}
    counts.clear()
    rebind_problem(problem, 0.4, {"k": 2.0})
    # the rhs and its blocks at all probes from one batched call, no
    # per-node call, and the one map that uses k once per point pair
    assert counts == {"blocks_many": 1, "value": 6, "grad": 6, "hess": 6}


@pytest.mark.parametrize("horizon", [0.1, 0.5, 1e300])
def test_a_rebound_problem_reuses_the_draws_of_a_fresh_build(monkeypatch, horizon):
    # the probes a rebound problem checks are, bit for bit, those a fresh
    # make_problem at its horizon draws, with t drawn as rng.uniform(0, T);
    # the rebound problem draws nothing
    seen, draws = [], collections.Counter()
    check_blocks = noc.dynamics._check_blocks

    def recording(dyn, probes, blocks, tol):
        seen.append(probes)
        return check_blocks(dyn, probes, blocks, tol)

    monkeypatch.setattr(noc.dynamics, "_check_blocks", recording)
    unit_probe_points = noc.dynamics._unit_probe_points

    def drawing(*args):
        draws["probes"] += 1
        return unit_probe_points(*args)

    monkeypatch.setattr(noc.dynamics, "_unit_probe_points", drawing)
    dyn = dynamics_from_expressions(("u2", "-y1^2 + 4*y1*u2 - k*u1^2"), 2, 2,
                                    params={"k": 3.0})
    cost = endpoint_from_expressions("yT2", 2)
    base = np.array([1.0, 0.0])
    problem = make_problem(euclidean(2), 0.3, dyn, cost, probe_base=base)
    rebind_problem(problem, horizon, {"k": 2.0}, probe_base=base)
    assert draws["probes"] == 1
    with np.errstate(over="ignore", invalid="ignore"):
        make_problem(euclidean(2), horizon, dyn.rebind({"k": 2.0}), cost,
                     probe_base=base)
    assert draws["probes"] == 2
    rng = np.random.default_rng(0)
    replay = []
    for _ in range(20):
        t = rng.uniform(0.0, horizon)
        while True:
            y = base + 0.1 * rng.standard_normal(2)
            if valid_point(euclidean(2), y):
                break
        replay.append((t, y, 0.5 * rng.standard_normal(2)))
    replay = [np.array(a) for a in zip(*replay)]
    reused, fresh = seen[1], seen[2]
    for a, b, c in zip(reused, fresh, replay):
        assert a.tobytes() == b.tobytes() == c.tobytes()


def test_expression_models_take_every_block_from_blocks_many():
    # validation, the integrators and the second-order form never call an
    # expression model's per-node derivative blocks
    from noc.conditions import SingularDirection
    from noc.dynamics import (integrate_adjoint, integrate_second_variation,
                              integrate_state, integrate_variational,
                              trajectory_jet)

    from _problems import wiggly_controls
    from _reference import hamiltonian_blocks, second_order_lhs

    counts = collections.Counter()
    dyn = _counted(dynamics_from_expressions(("0.5*y2 + u1", "-k*y1*y2 + u2 + 0.2*u1^2"),
                                             2, 2, params={"k": 0.4}), counts, NAMES)
    cost = endpoint_from_expressions("yT1^2 + 0.5*yT2", 2)
    problem = rebind_problem(make_problem(sphere(1.0), 0.5, dyn, cost), 0.5, {"k": 0.3})
    N = 30
    traj = integrate_state(problem, [0.1, -0.2], wiggly_controls(N))
    v = wiggly_controls(N, 0.5)
    X = integrate_variational(problem, traj, v, [0.2, 0.1])
    integrate_second_variation(problem, traj, v, X, v, np.zeros(2))
    p = integrate_adjoint(problem, traj, [1.0])
    trajectory_jet(problem, traj)
    hamiltonian_blocks(problem, traj.grid[3], traj.states[3], p.values[3], traj.controls[3])
    direction = SingularDirection(control_directions=v, field=X,
                                  endpoint_rates=np.zeros(1),
                                  equality_residuals=np.zeros(0), row_tol=1e-8)
    second_order_lhs(problem, traj, [1.0], direction, v, check=False)
    assert counts == {}
