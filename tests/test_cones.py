"""Control-set cones: projections, adjacent cones, oracle, bound, lift.

The ball-at-(0,-1) data used throughout is the worked counterexample's
control geometry: tangent cone {y >= 0}, second-order set {y >= 1/2}.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from noc.cones import (
    Ball,
    Box,
    Polyhedron,
    ProductSet,
    adjacent_cone_member,
    cone_oracle,
    contains,
    dist_and_project,
    lift_sigma,
    oracle_verdict,
    quadratic_distance_bound,
    row_groups,
    second_adjacent_member,
    second_cone_vrep,
    tangent_cone_vrep,
)
from noc.errors import DirectionNotInCone, PointNotInSet

from _probes import generate_probes

B1 = Ball(center=(0.0, 0.0), radius=1.0)
UB = np.array([0.0, -1.0])  # boundary point of B1
BOX01 = Box(lower=(0.0, 0.0), upper=(1.0, 1.0))


# ----------------------------------------------------------------------------
# construction validation
# ----------------------------------------------------------------------------

def test_bad_sets_rejected():
    with pytest.raises(ValueError):
        Ball(center=(0.0,), radius=0.0)
    with pytest.raises(ValueError):
        Box(lower=(1.0,), upper=(0.0,))
    with pytest.raises(ValueError):
        Polyhedron(A=((1.0,), (-1.0,)), b=(-1.0, -1.0))  # x<=-1 and x>=1: empty


def test_box_with_infinite_sides():
    b = Box(lower=(0.0, -math.inf), upper=(math.inf, 0.0))
    d, p = dist_and_project(b, [-1.0, 1.0])
    assert abs(d - math.sqrt(2.0)) < 1e-12
    np.testing.assert_allclose(p, [0.0, 0.0])


# ----------------------------------------------------------------------------
# distance / projection
# ----------------------------------------------------------------------------

def test_ball_projection_example():
    d, p = dist_and_project(B1, [0.0, -2.0])
    assert abs(d - 1.0) < 1e-14
    np.testing.assert_allclose(p, [0.0, -1.0])


def test_member_projects_to_itself():
    d, p = dist_and_project(B1, [0.3, 0.2])
    assert d == 0.0
    np.testing.assert_array_equal(p, [0.3, 0.2])


def test_box_projection_example():
    d, p = dist_and_project(BOX01, [2.0, -1.0])
    assert abs(d - math.sqrt(2.0)) < 1e-14
    np.testing.assert_allclose(p, [1.0, 0.0])


def test_polyhedron_projection_matches_halfspace_formula():
    # single halfspace a·x <= b: projection u - max(0, a·u-b) a/|a|^2
    A = ((1.0, 2.0),)
    P = Polyhedron(A=A, b=(1.0,))
    u = np.array([2.0, 1.0])
    a = np.array([1.0, 2.0])
    expected = u - (a @ u - 1.0) / (a @ a) * a
    d, p = dist_and_project(P, u)
    np.testing.assert_allclose(p, expected, atol=1e-10)
    assert abs(d - np.linalg.norm(u - expected)) < 1e-10


def test_polyhedron_projection_vertex_case():
    # triangle x>=0, y>=0, x+y<=1; project (2,2) -> nearest point on the
    # hypotenuse is (0.5, 0.5)
    P = Polyhedron(A=((-1.0, 0.0), (0.0, -1.0), (1.0, 1.0)), b=(0.0, 0.0, 1.0))
    d, p = dist_and_project(P, [2.0, 2.0])
    np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-10)


def test_product_projection():
    ps = ProductSet(factors=(B1, BOX01))
    d, p = dist_and_project(ps, [0.0, -2.0, 2.0, 0.5])
    assert abs(d - math.sqrt(1.0 + 1.0)) < 1e-12
    np.testing.assert_allclose(p, [0.0, -1.0, 1.0, 0.5])


def test_projection_nonexpansive_property():
    rng = np.random.default_rng(101)
    sets = [B1, BOX01,
            Polyhedron(A=((-1.0, 0.0), (0.0, -1.0), (1.0, 1.0)), b=(0.0, 0.0, 1.0)),
            ProductSet(factors=(B1, BOX01))]
    for U in sets:
        from noc.cones import set_dim
        m = set_dim(U)
        for _ in range(40):
            a = rng.standard_normal(m) * 2
            b = rng.standard_normal(m) * 2
            _, pa = dist_and_project(U, a)
            _, pb = dist_and_project(U, b)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


# ----------------------------------------------------------------------------
# first-order adjacent cone
# ----------------------------------------------------------------------------

def test_ball_tangent_cone_paper_instance():
    cert = adjacent_cone_member(B1, UB, [1.0, 0.0])
    assert cert.member and cert.margin >= 0.0
    cert2 = adjacent_cone_member(B1, UB, [0.0, -1.0])
    assert not cert2.member and cert2.margin < 0.0
    # the cone is {(x, y): y >= 0}
    assert adjacent_cone_member(B1, UB, [3.0, 0.5]).member
    assert not adjacent_cone_member(B1, UB, [3.0, -0.01]).member


def test_interior_point_all_directions():
    rng = np.random.default_rng(7)
    for _ in range(10):
        v = rng.standard_normal(2)
        assert adjacent_cone_member(B1, [0.0, 0.0], v).member


def test_box_edge_direction_nonmember():
    cert = adjacent_cone_member(BOX01, [0.0, 0.5], [-1.0, 0.0])
    assert not cert.member
    # oracle residual tends to 1 = |(-h, 0)| / h
    assert abs(cert.oracle_residuals[-1][1] - 1.0) < 1e-9


def test_point_not_in_set_raises():
    with pytest.raises(PointNotInSet):
        adjacent_cone_member(B1, [0.0, -2.0], [1.0, 0.0])


def test_polyhedron_active_rows_cone():
    P = Polyhedron(A=((1.0, 0.0), (0.0, 1.0)), b=(1.0, 1.0))
    u = [1.0, 0.0]  # first row active
    assert adjacent_cone_member(P, u, [-1.0, 5.0]).member
    assert adjacent_cone_member(P, u, [0.0, 1.0]).member
    assert not adjacent_cone_member(P, u, [0.5, 0.0]).member


# ----------------------------------------------------------------------------
# second-order adjacent set
# ----------------------------------------------------------------------------

def test_ball_second_order_paper_instance():
    cert = second_adjacent_member(B1, UB, [1.0, 0.0], [0.0, 0.5])
    assert cert.member
    cert2 = second_adjacent_member(B1, UB, [1.0, 0.0], [0.0, 0.4])
    assert not cert2.member and cert2.margin < 0.0
    # the set is {(x, y): y >= 1/2}
    assert second_adjacent_member(B1, UB, [1.0, 0.0], [-2.0, 0.7]).member
    assert not second_adjacent_member(B1, UB, [1.0, 0.0], [5.0, 0.49]).member


def test_second_order_interior_point():
    assert second_adjacent_member(B1, [0.1, 0.2], [9.0, -3.0], [4.0, 4.0]).member


def test_second_order_inward_direction():
    cert = second_adjacent_member(B1, UB, [0.0, 1.0], [0.0, 0.0])
    assert cert.member


def test_second_order_rejects_bad_direction():
    with pytest.raises(DirectionNotInCone):
        second_adjacent_member(B1, UB, [0.0, -1.0], [0.0, 0.0])


def test_box_second_order_binding_logic():
    # u at the lower-left corner; v = (1, 0) leaves the x-constraint,
    # keeps the y-constraint binding: w must satisfy w_y >= 0
    u = [0.0, 0.0]
    assert second_adjacent_member(BOX01, u, [1.0, 0.0], [-7.0, 0.0]).member
    assert second_adjacent_member(BOX01, u, [1.0, 0.0], [-7.0, 2.0]).member
    assert not second_adjacent_member(BOX01, u, [1.0, 0.0], [0.0, -0.1]).member


def test_polyhedral_product_second_order_binds_in_each_factor():
    # the box's row x1 >= 0 and the polyhedron's row x3 + x4 <= 1 are both
    # active and binding along v: w must satisfy w1 >= 0 and w3 + w4 <= 0
    U = ProductSet((Box((0.0, 0.0), (1.0, 1.0)),
                    Polyhedron(A=((1.0, 1.0), (1.0, -1.0)), b=(1.0, 1.0))))
    u, v = [0.0, 0.3, 0.5, 0.5], [0.0, 0.4, 0.2, -0.2]
    cert = second_adjacent_member(U, u, v, [0.3, -1.0, -0.5, 0.1], with_oracle=False)
    assert cert.member and cert.margin == 0.24343224778007383
    cert = second_adjacent_member(U, u, v, [-0.2, 0.0, 0.4, 0.1], with_oracle=False)
    assert not cert.member and cert.margin == -0.35355339059327373


# ----------------------------------------------------------------------------
# oracle ladders
# ----------------------------------------------------------------------------

def test_oracle_residual_algebra_ball():
    # dist((h, -1))/h = (sqrt(1+h^2)-1)/h ~ h/2
    res = cone_oracle(B1, UB, [1.0, 0.0])
    for h, r in res:
        expected = (math.sqrt(1 + h * h) - 1.0) / h
        assert abs(r - expected) < 1e-12
    assert oracle_verdict(res) == "member"


def test_oracle_zero_direction():
    res = cone_oracle(B1, UB, [0.0, 0.0])
    assert all(r == 0.0 for _, r in res)
    assert oracle_verdict(res) == "member"


def test_oracle_order2_paper_member():
    res = cone_oracle(B1, UB, [1.0, 0.0], [0.0, 0.5])
    assert oracle_verdict(res) == "member"
    res2 = cone_oracle(B1, UB, [1.0, 0.0], [0.0, 0.4])
    assert oracle_verdict(res2) == "non-member"


def test_oracle_agreement_on_decisive_probes():
    for U, cert in generate_probes(seed=20240818, count=120):
        overd = oracle_verdict(cert.oracle_residuals)
        want = "member" if cert.member else "non-member"
        assert overd == want, (U, cert.point, cert.direction, cert.margin, overd)


# ----------------------------------------------------------------------------
# V-representations
# ----------------------------------------------------------------------------

def test_ball_tangent_vrep():
    v = tangent_cone_vrep(B1, UB)
    assert v.lineality.shape[0] == 1
    assert abs(abs(v.lineality[0][0]) - 1.0) < 1e-12  # the tangent line (±1, 0)
    assert v.rays.shape[0] == 1
    np.testing.assert_allclose(v.rays[0], [0.0, 1.0], atol=1e-12)  # inward -û


def test_ball_second_vrep_natural_point():
    p0, cone = second_cone_vrep(B1, UB, [1.0, 0.0])
    np.testing.assert_allclose(p0, [0.0, 0.5], atol=1e-14)
    assert cone.lineality.shape[0] == 1 and cone.rays.shape[0] == 1


def test_box_corner_vrep():
    v = tangent_cone_vrep(BOX01, [0.0, 0.0])
    assert v.lineality.shape[0] == 0
    got = sorted(tuple(np.round(r, 9)) for r in v.rays)
    assert got == [(0.0, 1.0), (1.0, 0.0)]


def test_interior_vrep_full_space():
    v = tangent_cone_vrep(B1, [0.0, 0.0])
    assert v.lineality.shape[0] == 2 and v.rays.shape[0] == 0


def test_cone_convexity_property():
    rng = np.random.default_rng(55)
    # members of the ball tangent cone at UB: y >= 0
    for _ in range(20):
        v1 = np.array([rng.standard_normal(), abs(rng.standard_normal())])
        v2 = np.array([rng.standard_normal(), abs(rng.standard_normal())])
        lam = rng.uniform()
        v = lam * v1 + (1 - lam) * v2
        assert adjacent_cone_member(B1, UB, v, with_oracle=False).member


def test_cone_sum_property():
    # s in T^{b(2)}(u,v) and c in T^b(u) => s + c in T^{b(2)}(u,v)
    rng = np.random.default_rng(56)
    for _ in range(20):
        s = np.array([rng.standard_normal(), 0.5 + abs(rng.standard_normal())])
        c = np.array([rng.standard_normal(), abs(rng.standard_normal())])
        assert second_adjacent_member(B1, UB, [1.0, 0.0], s + c, with_oracle=False).member


# ----------------------------------------------------------------------------
# quadratic distance bound
# ----------------------------------------------------------------------------

def test_quadratic_bound_paper_instance():
    # dist((ε, -1)) = sqrt(1+ε²)-1 <= ε²/2: bound 1/2, attained as ε -> 0
    res = quadratic_distance_bound(B1, [UB], [[1.0, 0.0]], eps0=0.5)
    assert res.passed
    ell = res.ell[0]
    assert ell <= 0.5 + 1e-9
    assert ell >= 0.45


def test_quadratic_bound_zero_direction():
    res = quadratic_distance_bound(B1, [UB], [[0.0, 0.0]], eps0=0.5)
    assert res.passed and res.ell[0] == 0.0


def test_quadratic_bound_inward_direction():
    res = quadratic_distance_bound(B1, [UB], [[0.0, 1.0]], eps0=0.5)
    assert res.passed and res.ell[0] == 0.0


def test_quadratic_bound_detects_divergence():
    res = quadratic_distance_bound(B1, [UB], [[0.0, -1.0]], eps0=0.5)
    assert not res.passed
    assert math.isinf(res.ell[0])


# ----------------------------------------------------------------------------
# lift
# ----------------------------------------------------------------------------

def test_lift_paper_instance_converges():
    sigma = np.array([[0.0, 0.5]])
    prev = None
    for eps in [0.2, 0.1, 0.05, 0.025]:
        out = lift_sigma(B1, [UB], [[1.0, 0.0]], sigma, eps)
        err = float(np.linalg.norm(out[0] - sigma[0]))
        # still an admissible control after lifting
        assert contains(B1, UB + eps * np.array([1.0, 0.0]) + eps * eps * out[0], tol=1e-9)
        if prev is not None:
            assert err <= prev + 1e-12
        prev = err
    assert prev < 0.05  # O(ε) convergence left little residual at ε=0.025


def test_lift_exact_when_inside():
    # box corner, controls stay inside: the lift returns sigma unchanged
    out = lift_sigma(BOX01, [[0.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]], eps=0.1)
    np.testing.assert_array_equal(out, [[0.0, 1.0]])


def test_lift_zero_sigma_inward_v():
    out = lift_sigma(B1, [UB], [[0.0, 1.0]], [[0.0, 0.0]], eps=0.1)
    np.testing.assert_allclose(out, [[0.0, 0.0]], atol=1e-12)


def test_lift_rejects_sigma_outside_second_cone():
    with pytest.raises(DirectionNotInCone):
        lift_sigma(B1, [UB], [[1.0, 0.0]], [[0.0, 0.4]], eps=0.1)


# ----------------------------------------------------------------------------
# per-node routines evaluated once per distinct row
# ----------------------------------------------------------------------------

def test_row_groups_split_by_bytes_and_number_by_first_occurrence():
    first, inverse = row_groups(np.array([[0.0], [-0.0], [0.0], [-0.0]]))
    assert first.tolist() == [0, 1] and inverse.tolist() == [0, 1, 0, 1]
    first, inverse = row_groups(np.array([[math.nan, 1.0], [2.0, 1.0],
                                          [math.nan, 1.0]]))
    assert first.tolist() == [0, 1] and inverse.tolist() == [0, 1, 0]
    # two arrays group by their rows together
    first, inverse = row_groups(np.array([[1.0], [1.0], [1.0]]),
                                np.array([[2.0, 0.0], [3.0, 0.0], [2.0, 0.0]]))
    assert first.tolist() == [0, 1] and inverse.tolist() == [0, 1, 0]
    first, inverse = row_groups(np.full((5, 2), 0.25))
    assert first.tolist() == [0] and inverse.tolist() == [0] * 5
    with pytest.raises(ValueError, match="equal row counts"):
        row_groups(np.zeros((3, 1)), np.zeros((2, 1)))


def test_row_groups_round_trip():
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 4, size=(200, 3)).astype(float) - 1.5
    first, inverse = row_groups(rows[:, :1], rows[:, 1:])
    assert np.all(np.diff(first) > 0)                      # ascending
    np.testing.assert_array_equal(rows[first][inverse], rows)
    np.testing.assert_array_equal(inverse[first], np.arange(len(first)))
    # the first row of every group is where the group first occurs
    seen = {}
    for i, row in enumerate(map(tuple, rows)):
        seen.setdefault(row, i)
    assert first.tolist() == sorted(seen.values())


def _outcome(fn, *args, **kwargs):
    """fn's value, or the class and message of what it raised."""
    try:
        return "value", fn(*args, **kwargs)
    except Exception as ex:  # noqa: BLE001 - the outcome is compared
        return type(ex), str(ex)


def _bound_per_node(U, u_seq, v_seq, eps0):
    """``quadratic_distance_bound``'s node values by one evaluation per node."""
    for i, u in enumerate(u_seq):
        if not contains(U, u, tol=1e-9):
            raise PointNotInSet(f"grid node {i}: control outside the set")
    eps = np.geomspace(1e-3 * eps0, eps0, 32)
    ells = []
    for u, v in zip(u_seq, v_seq):
        vals = np.array([dist_and_project(U, u + e * v)[0] / (e * e) for e in eps])
        diverges = (vals[2] < vals[1] < vals[0] and vals[0] > 1.5 * vals[-1]
                    and vals[0] > 1e-9)
        ells.append(math.inf if diverges else float(vals.max()))
    return tuple(ells)


def _lift_per_node(U, u_seq, v_seq, sigma_seq, eps):
    """``lift_sigma``'s membership loop and lifted values, one node at a time."""
    for i, (u, v, s) in enumerate(zip(u_seq, v_seq, sigma_seq)):
        cert = second_adjacent_member(U, u, v, s, with_oracle=False)
        if not cert.member:
            raise DirectionNotInCone(
                f"grid node {i}: sigma is not in the second-order adjacent set "
                f"(margin {cert.margin:.3e})")
    out = np.empty_like(sigma_seq)
    for i, (u, v, s) in enumerate(zip(u_seq, v_seq, sigma_seq)):
        _, p = dist_and_project(U, u + eps * v + eps * eps * s)
        out[i] = (p - u - eps * v) / (eps * eps)
    return out


# a side, an interior point and a corner of the square, repeated 4 times
_SQUARE = Box(lower=(-1.0, -1.0), upper=(1.0, 1.0))
_U = np.tile([[-1.0, 0.5], [0.2, 0.3], [1.0, 1.0]], (4, 1))
_V = np.tile([[0.0, 1.0], [1.0, -2.0], [-1.0, 0.0]], (4, 1))
_SIGMA = np.tile([[0.5, 2.0], [1.0, -1.0], [3.0, -0.5]], (4, 1))


def test_grouped_bound_matches_the_per_node_loop():
    bound = quadratic_distance_bound(_SQUARE, _U, _V, 0.1)
    assert bound.ell == _bound_per_node(_SQUARE, _U, _V, 0.1)
    assert all(type(x) is float for x in bound.ell)
    diverging = _V.copy()
    diverging[[2, 8]] = [1.0, 0.0]          # outward at the corner, twice
    bound = quadratic_distance_bound(_SQUARE, _U, diverging, 0.1)
    assert bound.ell == _bound_per_node(_SQUARE, _U, diverging, 0.1)
    assert not bound.passed
    # an outside control recurs (nodes 4 and 10); a later one differs (11)
    outside = _U.copy()
    outside[[4, 10]] = [2.0, 0.0]
    outside[11] = [0.0, 3.0]
    want = _outcome(_bound_per_node, _SQUARE, outside, _V, 0.1)
    assert want == (PointNotInSet, "grid node 4: control outside the set")
    assert _outcome(quadratic_distance_bound, _SQUARE, outside, _V, 0.1) == want


def test_grouped_lift_matches_the_per_node_loop():
    eps = 0.05
    np.testing.assert_array_equal(lift_sigma(_SQUARE, _U, _V, _SIGMA, eps),
                                  _lift_per_node(_SQUARE, _U, _V, _SIGMA, eps))
    # a failing (control, direction, sigma) row recurs at nodes 5 and 8; a
    # later node (10) would raise another error, an outside control
    bad = _SIGMA.copy()
    bad[[5, 8]] = [0.0, 1.0]
    outside = _U.copy()
    outside[10] = [2.0, 0.0]
    for u, sigma, error, node in ((_U, bad, DirectionNotInCone, 5),
                                  (outside, bad, DirectionNotInCone, 5),
                                  (outside, _SIGMA, PointNotInSet, None)):
        want = _outcome(_lift_per_node, _SQUARE, u, _V, sigma, eps)
        assert want[0] is error
        if node is not None:
            assert want[1].startswith(f"grid node {node}:")
        assert _outcome(lift_sigma, _SQUARE, u, _V, sigma, eps) == want
    with pytest.raises(ValueError, match="equal shapes"):
        lift_sigma(_SQUARE, _U, _V, _SIGMA[:-1], eps)


def test_per_row_results_are_kept_read_only_and_failures_are_not():
    from noc.cones import _per_row

    U = Ball(center=(0.0, 0.0), radius=1.0)
    v = np.array([1.0, 0.5])
    rep = _per_row(U, tangent_cone_vrep, UB)
    assert _per_row(U, tangent_cone_vrep, UB.copy()) is rep   # same bytes
    p0, cone = _per_row(U, second_cone_vrep, UB, v)
    for a in (rep.lineality, rep.rays, p0, cone.lineality, cone.rays):
        assert not a.flags.writeable
    for _ in range(2):                  # raises at every call
        with pytest.raises(PointNotInSet):
            _per_row(U, tangent_cone_vrep, np.array([2.0, 0.0]))
    assert len(U._memo) == 2
    # the memo takes no part in equality or hashing
    assert U == B1 and hash(U) == hash(B1)
