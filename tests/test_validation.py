"""Problem validation in ``make_problem`` and ``rebind_problem``.

Models and endpoint maps are built from expressions, whose derivatives are
exact, so validation only requires their values and blocks to be finite
and checks their generated code. The references below are one-point
central-difference stencils; the shipped expression models are compared
with them as a test of their blocks.
"""
from __future__ import annotations

import collections
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import noc.dynamics
from noc.draws import Stream
from noc.dynamics import (dynamics_from_expressions, endpoint_from_expressions,
                          make_problem, rebind_problem)
from noc.errors import NocError
from noc.geometry import euclidean, sphere, valid_point
from noc.presets import load_preset
from noc.problemfile import build_control_problem, parse_problem_file

from _problems import linear_dynamics
from _reference import FD1_SCALE, FD2_SCALE, fd_step, probe_points

WRT = ("y", "u", "yy", "yu", "uu")
NAMES = ("rhs_y", "rhs_u", "rhs_yy", "rhs_yu", "rhs_uu")


# ----------------------------------------------------------------------------
# per-point references
# ----------------------------------------------------------------------------

def ref_first(fun, t, y, u, wrt):
    base = y if wrt == "y" else u
    h = fd_step(base, FD1_SCALE)
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
        hy = fd_step(y, FD2_SCALE)
        hu = fd_step(u, FD2_SCALE)
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
    h = fd_step(y if wrt == "yy" else u, FD2_SCALE)

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
    h0 = fd_step(y0, FD1_SCALE)
    hT = fd_step(yT, FD1_SCALE)
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
    h = fd_step(joint, FD2_SCALE)

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


# ----------------------------------------------------------------------------
# finite checks
# ----------------------------------------------------------------------------

def test_a_non_finite_endpoint_map_is_rejected_naming_it():
    # NaN at the pairs with a negative coordinate; the finite check
    # catches it
    dyn = linear_dynamics(np.zeros((2, 2)), np.eye(2))
    cost = endpoint_from_expressions("sqrt(yT1) + log(y01)", 2, label="cost")
    with np.errstate(invalid="ignore"), pytest.raises(NocError) as err:
        make_problem(euclidean(2), 1.0, dyn, cost)
    assert str(err.value) == ("endpoint map 'cost' is not finite at a "
                              "validation point pair")


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
    base = np.array(pf.start + ((0.0,) if pf.kind == "ocpe" else ()))
    rng = np.random.default_rng(0)
    t, y, u = probe_points(problem, base, rng)
    for block, wrt in zip(NAMES, WRT):
        for tp, yp, up in zip(t, y, u):
            a = getattr(dyn, block)(float(tp), yp, up)
            b = ref_block(dyn.rhs, float(tp), yp, up, wrt)
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
    # make_problem at its horizon draws from noc's seeded stream, with t
    # drawn as uniform(0, T);
    # the rebound problem draws nothing
    seen, draws = [], collections.Counter()
    check_blocks = noc.dynamics._check_blocks

    def recording(dyn, probes):
        seen.append(probes)
        return check_blocks(dyn, probes)

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
    rng = Stream(0)
    replay = []
    for _ in range(20):
        t = rng.uniform(0.0, horizon, ())
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
