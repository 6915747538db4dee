"""Tests for the finite-dimensional minimization checks.

Hand-solved instances used throughout (all worked out with pencil and
paper before the module existed):

* disc:     min x1 + 1 on the unit disc at (-1, 0).  Tangent cone is the
            halfspace {v1 >= 0}; the multiplier cone is the single ray
            (-1).  Along the tangential direction (0, 1) the second-order
            set is {x1 >= 1/2}, so the worst value of the second-order
            form is -1/2: the candidate is consistent with optimality.
* ball3:    min x1 + x3 + 1 on the unit 3-ball with the equality x1 = 0,
            candidate (0, 0, -1).  The lineality direction e1 ties the
            equality weight to the cost weight, giving the unique ray
            (-1, 1); worst second-order value along e2 is again -1/2.
* saddle:   min x1^2 - x2^2 pinned to the axis x2 = 0 on a box, at the
            origin.  The cost gradient vanishes; lineality forces the
            equality weight to zero, leaving the ray (-1, 0).  Along e1
            the second-order value is (1/2)(-1)(2) = -1: consistent (the
            origin minimizes x1^2 on the axis).
* perturbed: min x1 + 0.1 x2 on the unit disc at (-1, 0).  The support
            direction is tilted, the free lineality direction e2 forces
            the cost weight to zero, and the cone is empty: first-order
            refutation.  True minimum -sqrt(1.01) ~ -1.00499.
* parabola: min x2 subject to x2 + x1^2 = 0 on a box, at the origin.
            First order passes with ray (-1, 1), but along e1 the
            second-order value is +1 > 0: second-order refutation.  The
            feasible set is the downward parabola, on which x2 drops to
            -1 at x1 = +-1.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from noc.cones import (Ball, Box, Polyhedron, ProductSet,
                       second_adjacent_member, second_cone_vrep,
                       tangent_cone_vrep)
from noc.errors import EmptySecondCone, NocError, PointNotInSet, \
    ResolutionTooCoarse
from noc.optproblem import (_lp_coordinate_range, _record, build_separation,
                            make_opt_problem, op_bruteforce, op_first_order,
                            op_second_order, opt_scalar_from_expression,
                            validate_expansion)
from noc.polyhedral import ACTIVITY_TOL, clean_rows

from _problems import ccs126_nominal_controls, make_ccs126
from _reference import control_problem_as_op, lp_coordinate_range


# ----------------------------------------------------------------------------
# instance builders
# ----------------------------------------------------------------------------

def _disc_problem(cost_text: str = "x1 + 1"):
    return make_opt_problem(Ball(center=(0.0, 0.0), radius=1.0),
                            opt_scalar_from_expression(cost_text, 2))


def _ball3_problem():
    return make_opt_problem(
        Ball(center=(0.0, 0.0, 0.0), radius=1.0),
        opt_scalar_from_expression("x1 + x3 + 1", 3),
        equalities=[opt_scalar_from_expression("x1", 3)])


def _saddle_problem():
    return make_opt_problem(
        Box(lower=(-1.0, -1.0), upper=(1.0, 1.0)),
        opt_scalar_from_expression("x1^2 - x2^2", 2),
        equalities=[opt_scalar_from_expression("x2", 2)])


def _parabola_problem(sign: float = 1.0):
    return make_opt_problem(
        Box(lower=(-1.0, -1.0), upper=(1.0, 1.0)),
        opt_scalar_from_expression("x2", 2),
        equalities=[opt_scalar_from_expression(f"x2 + {sign!r}*x1^2", 2)])


DISC_POINT = np.array([-1.0, 0.0])


# ----------------------------------------------------------------------------
# scalar rows and expansion validation
# ----------------------------------------------------------------------------

def test_expression_row_derivatives_match_differences():
    row = opt_scalar_from_expression("x1^3 + 2*x1*x2 - x2^2", 2)
    rng = np.random.default_rng(3)
    for _ in range(20):
        e = rng.uniform(-1.5, 1.5, 2)
        y = rng.standard_normal(2)
        h = 1e-6
        for s, gs in enumerate(row.grad(e)):
            ep, em = e.copy(), e.copy()
            ep[s] += h
            em[s] -= h
            assert abs(gs - (row.value(ep) - row.value(em)) / (2 * h)) < 1e-7
        h2 = 1e-4
        d2_ref = (row.value(e + h2 * y) - 2 * row.value(e)
                  + row.value(e - h2 * y)) / (h2 * h2)
        assert abs(row.second(e, y) - d2_ref) < 1e-6


@pytest.mark.parametrize("text", [
    "x1^3 + 2*x1*x2 - x2^2",
    # params, powers, divisions, every function and constant entries
    "-(k*x2 + x1^2/k) + sqrt(2 + x3^2)*cos(x2) - abs(x1) + tan(x3/4)"
    " + log(1 + x2^2) + exp(k*x1)/(1 + x3^2) - x3^k + 3*k",
    "-(k*x1*x3)",                                # -0.0 entries
])
def test_row_derivatives_equal_their_entries_compiled_alone(text):
    from noc.expr import compile_expr, parse_expr

    names = ("x1", "x2", "x3", "k")
    node = parse_expr(text, set(names))
    row = opt_scalar_from_expression(text, 3, params={"k": 2.5})
    rng = np.random.default_rng(6)
    for _ in range(20):
        e, y = rng.normal(size=3), rng.normal(size=3)
        e[2] = abs(e[2])                         # x3^k: a positive base
        grad = np.array([compile_expr(node.diff(a), names)(*e, 2.5) for a in names[:3]],
                        float)
        H = np.array([[compile_expr(node.diff(a).diff(b), names)(*e, 2.5)
                       for b in names[:3]] for a in names[:3]], float)
        np.testing.assert_array_equal(row.grad(e), grad)
        np.testing.assert_array_equal(np.signbit(row.grad(e)), np.signbit(grad))
        second, want = row.second(e, y), float(y @ H @ y)
        assert second == want and np.signbit(second) == np.signbit(want)


def test_expression_rows_compile_their_derivatives_as_two_blocks(monkeypatch):
    import noc.optproblem

    counts = {"compile_expr": [], "_compile_blocks": []}
    for name, calls in counts.items():
        fn = getattr(noc.optproblem, name)
        monkeypatch.setattr(noc.optproblem, name,
                            lambda *a, fn=fn, calls=calls: calls.append(None) or fn(*a))
    opt_scalar_from_expression("x1^2*x2 - k*x3", 3, params={"k": 2.0})
    assert len(counts["compile_expr"]) == 1 and len(counts["_compile_blocks"]) == 2


def test_batch_values_match_pointwise():
    row = opt_scalar_from_expression("x1^2 - 3*x2", 2)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2, 2, (40, 2))
    np.testing.assert_allclose(row.value_many(*pts.T),
                               [row.value(p) for p in pts], atol=1e-14)


def test_expansion_ladder_monotone_and_labeled():
    p = make_opt_problem(
        Box(lower=(-2.0, -2.0), upper=(2.0, 2.0)),
        opt_scalar_from_expression("x1^3 + x2^2", 2),
        inequalities=[opt_scalar_from_expression("x1^2 - 4", 2)],
        equalities=[opt_scalar_from_expression("x1 - x2", 2)])
    report = validate_expansion(p, [0.5, 0.5])
    assert [label for label, _ in report] == \
        ["x1^3 + x2^2", "x1^2 - 4", "x1 - x2"]
    for _, ratios in report:
        if ratios[0] > 1e-10:     # above float noise the ladder is monotone
            assert ratios[0] >= ratios[1] >= ratios[2] >= 0.0
    # the cubic row's residual/eps^2 falls linearly in eps
    cubic = report[0][1]
    assert cubic[2] <= 0.6 * cubic[0]
    # the linear row is reproduced to roundoff
    assert max(report[2][1]) <= 1e-11


def test_expansion_catches_lying_hessian():
    # expression derivatives are exact, but a row that turns over on a
    # scale far below the ladder's steps looks to it like a wrong Hessian:
    # at the origin the declared second derivative is 0
    p = make_opt_problem(Box(lower=(-2.0,), upper=(2.0,)),
                         opt_scalar_from_expression("sin(1000*x1)", 1))
    with pytest.raises(NocError, match="does not shrink"):
        validate_expansion(p, [0.0])


# ----------------------------------------------------------------------------
# first-order multiplier cone
# ----------------------------------------------------------------------------

def test_supported_disc_minimum_has_unique_ray():
    rays = op_first_order(_disc_problem(), DISC_POINT)
    assert len(rays) == 1
    np.testing.assert_allclose(rays[0].weights, [-1.0], atol=1e-12)
    assert not rays[0].from_lineality


def test_ball3_equality_ties_weights():
    rays = op_first_order(_ball3_problem(), [0.0, 0.0, -1.0])
    assert len(rays) == 1
    np.testing.assert_allclose(rays[0].weights, [-1.0, 1.0], atol=1e-12)


def test_saddle_lineality_forces_zero_equality_weight():
    rays = op_first_order(_saddle_problem(), np.zeros(2))
    assert len(rays) == 1
    np.testing.assert_allclose(rays[0].weights, [-1.0, 0.0], atol=1e-12)


def test_inactive_inequality_weight_vanishes():
    p = make_opt_problem(
        Ball(center=(0.0, 0.0), radius=1.0),
        opt_scalar_from_expression("x1 + 1", 2),
        inequalities=[opt_scalar_from_expression("x1 - 5", 2)])
    rays = op_first_order(p, DISC_POINT)
    assert len(rays) == 1
    np.testing.assert_allclose(rays[0].weights, [-1.0, 0.0], atol=1e-12)


def test_interior_candidate_with_slope_has_empty_cone():
    p = make_opt_problem(Box(lower=(-1.0, -1.0), upper=(1.0, 1.0)),
                         opt_scalar_from_expression("x1", 2))
    assert op_first_order(p, np.zeros(2)) == []


def test_perturbed_support_direction_has_empty_cone():
    assert op_first_order(_disc_problem("x1 + 0.1*x2"), DISC_POINT) == []


def test_triangle_polyhedron_vertex_ray():
    tri = Polyhedron(A=((-1.0, 0.0), (0.0, -1.0), (1.0, 1.0)),
                     b=(0.0, 0.0, 1.0))
    p = make_opt_problem(tri, opt_scalar_from_expression("x1 + x2", 2))
    rays = op_first_order(p, np.zeros(2))
    assert len(rays) == 1
    np.testing.assert_allclose(rays[0].weights, [-1.0], atol=1e-12)


def test_rays_satisfy_cone_rows_directly():
    # independent recheck straight from the defining rows, bypassing the
    # polyhedral enumeration: weights signed on active rows, weighted
    # gradient sum nonpositive on every tangent generator
    cases = [
        (_disc_problem(), DISC_POINT),
        (_ball3_problem(), np.array([0.0, 0.0, -1.0])),
        (_saddle_problem(), np.zeros(2)),
    ]
    for problem, point in cases:
        G = np.stack([row.grad(point) for row in problem.rows])
        rep = tangent_cone_vrep(problem.domain, point)
        for mv in op_first_order(problem, point):
            assert mv.weights[0] <= 1e-12
            for g in rep.rays:
                assert float((G @ g) @ mv.weights) <= 1e-9
            for g in rep.lineality:
                assert abs(float((G @ g) @ mv.weights)) <= 1e-9


def test_infeasible_candidates_rejected():
    with pytest.raises(PointNotInSet):
        op_first_order(_disc_problem(), [2.0, 0.0])
    with pytest.raises(ValueError, match="equality row"):
        op_first_order(_ball3_problem(), [0.5, 0.0, -0.5])


# ----------------------------------------------------------------------------
# second-order test along a critical direction
# ----------------------------------------------------------------------------

def test_disc_tangential_direction_qualifies():
    res = op_second_order(_disc_problem(), DISC_POINT, [0.0, 1.0])
    assert len(res.multipliers) == 1
    np.testing.assert_allclose(res.worst_values, [-0.5], atol=1e-12)
    np.testing.assert_allclose(res.base_point, [0.5, 0.0], atol=1e-12)
    assert res.qualifying == (0,)
    assert not res.refuted
    assert res.critical == frozenset({0})


def test_ball3_tangential_direction_qualifies():
    res = op_second_order(_ball3_problem(), [0.0, 0.0, -1.0],
                          [0.0, 1.0, 0.0])
    np.testing.assert_allclose(res.worst_values, [-0.5], atol=1e-12)
    assert not res.refuted


def test_saddle_negative_curvature_direction_qualifies():
    res = op_second_order(_saddle_problem(), np.zeros(2), [1.0, 0.0])
    np.testing.assert_allclose(res.worst_values, [-1.0], atol=1e-12)
    assert not res.refuted


def test_parabola_candidate_refuted_at_second_order():
    res = op_second_order(_parabola_problem(), np.zeros(2), [1.0, 0.0])
    assert len(res.multipliers) == 1
    np.testing.assert_allclose(res.multipliers[0].weights, [-1.0, 1.0],
                               atol=1e-12)
    np.testing.assert_allclose(res.worst_values, [1.0], atol=1e-12)
    assert res.refuted
    # flipping the parabola turns the same candidate consistent
    res_up = op_second_order(_parabola_problem(-1.0), np.zeros(2), [1.0, 0.0])
    np.testing.assert_allclose(res_up.worst_values, [-1.0], atol=1e-12)
    assert not res_up.refuted


def test_zero_direction_reduces_to_first_order():
    res = op_second_order(_disc_problem(), DISC_POINT, [0.0, 0.0])
    np.testing.assert_allclose(res.worst_values, [0.0], atol=1e-12)
    np.testing.assert_allclose(res.base_point, [0.0, 0.0], atol=1e-12)
    assert not res.refuted


def test_leaving_direction_raises_empty_second_cone():
    with pytest.raises(EmptySecondCone):
        op_second_order(_disc_problem(), DISC_POINT, [-1.0, 0.0])


def test_non_critical_directions_rejected():
    with pytest.raises(ValueError, match="active row 0"):
        op_second_order(_disc_problem(), DISC_POINT, [1.0, 0.0])
    with pytest.raises(ValueError, match="equality row 0"):
        op_second_order(_ball3_problem(), [0.0, 0.0, -1.0], [-1.0, 0.0, 0.0])


# sqrt(x1) has an infinite gradient at x1 = 0 and x2^1.5 an infinite second
# derivative at x2 = 0, where 0 * inf makes y H y NaN along y = (1, 0)
@pytest.mark.parametrize("check, cost, direction, error, message", [
    (op_second_order, "sqrt(x1) - x2", [0.0, 1.0], NocError,
     "row 'sqrt(x1) - x2' is not finite at the point (0.0, 0.0): value 0.0, "
     "gradient (inf, -1.0)"),
    (build_separation, "sqrt(x1) - x2", [0.0, 1.0], NocError,
     "row 'sqrt(x1) - x2' is not finite at the point (0.0, 0.0): value 0.0, "
     "gradient (inf, -1.0)"),
    (op_second_order, "x1^2 + x2 + x2^1.5", [1.0, 0.0], NocError,
     "row 'x1^2 + x2 + x2^1.5' has second derivative nan"),
    (build_separation, "x1^2 + x2 + x2^1.5", [1.0, 0.0], NocError,
     "row 'x1^2 + x2 + x2^1.5' has second derivative nan"),
    (build_separation, "x1 + x2", [1.0, 0.0, 0.0], ValueError,
     "direction must have 2 coordinates"),
], ids=["second-order-inf-gradient", "separation-inf-gradient",
        "second-order-nan-second", "separation-nan-second",
        "separation-direction-length"])
def test_second_order_entry_points_check_the_candidate(check, cost, direction,
                                                        error, message):
    problem = make_opt_problem(Box(lower=(0.0, 0.0), upper=(1.0, 1.0)),
                               opt_scalar_from_expression(cost, 2))
    with np.errstate(all="ignore"), pytest.raises(error) as raised:
        check(problem, np.zeros(2), direction)
    assert message in str(raised.value)


# ----------------------------------------------------------------------------
# separation
# ----------------------------------------------------------------------------

def test_disc_separator_sound_on_dense_sampling():
    sep = build_separation(_disc_problem(), DISC_POINT, [0.0, 1.0],
                           num_samples=10_000, seed=11)
    np.testing.assert_allclose(sep.separator, [-1.0], atol=1e-12)
    assert sep.kappa_points.shape == (10_000, 1)
    assert sep.max_kappa_pairing <= 1e-9
    assert sep.max_kappa_pairing <= -0.4  # strict gap for this instance
    assert len(sep.z_generators) == 1     # only the orthant generator


def test_ball3_separator_keeps_equality_weight():
    sep = build_separation(_ball3_problem(), [0.0, 0.0, -1.0],
                           [0.0, 1.0, 0.0], num_samples=10_000, seed=12)
    np.testing.assert_allclose(sep.separator, [-1.0, 1.0], atol=1e-12)
    assert sep.max_kappa_pairing <= 1e-9


def test_inseparable_interior_instance_returns_none():
    p = make_opt_problem(Box(lower=(-1.0, -1.0), upper=(1.0, 1.0)),
                         opt_scalar_from_expression("x1", 2))
    sep = build_separation(p, np.zeros(2), np.zeros(2), num_samples=100)
    assert sep.separator is None
    assert np.isnan(sep.max_kappa_pairing)


def test_parabola_refutation_admits_no_separator():
    sep = build_separation(_parabola_problem(), np.zeros(2), [1.0, 0.0],
                           num_samples=100)
    assert sep.separator is None


@pytest.mark.parametrize("problem, point, direction", [
    (_ball3_problem(), [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]),
    (_parabola_problem(), [0.0, 0.0], [1.0, 0.0]),
], ids=["ball3", "parabola"])
def test_the_separation_outcome_does_not_depend_on_the_lineality_draws(
        problem, point, direction):
    # the second cone has lineality that the image map does not annihilate,
    # so the sampled image points move with the normal draws of the seed
    point, direction = np.array(point), np.array(direction)
    candidate = _record(problem, point, ACTIVITY_TOL, direction)
    assert np.any(candidate.cone.lineality @ candidate.gradients.T != 0.0)
    outcomes = []
    for seed in (0, 1):
        sep = build_separation(problem, point, direction, seed=seed)
        outcomes.append((None if sep.separator is None
                         else sep.separator.tobytes(),
                         sep.max_kappa_pairing <= 1e-9))
    assert outcomes[0] == outcomes[1]


def test_separator_agrees_with_second_order_multiplier():
    # the separating functional and the qualifying second-order multiplier
    # are produced by two different constructions; on consistent instances
    # they must coincide (up to normalization)
    for problem, point, direction in [
        (_disc_problem(), DISC_POINT, np.array([0.0, 1.0])),
        (_ball3_problem(), np.array([0.0, 0.0, -1.0]),
         np.array([0.0, 1.0, 0.0])),
    ]:
        res = op_second_order(problem, point, direction)
        sep = build_separation(problem, point, direction)
        np.testing.assert_allclose(
            sep.separator, res.multipliers[res.qualifying[0]].weights,
            atol=1e-10)


@st.composite
def _separator_cones(draw):
    """(A_le, A_eq, dim) of a cone as ``build_separation`` hands it to the
    cross-check: rows of small integers, cleaned.  The shape is pointed
    (the orthant rows -e_i added), trivial (rows that positively span:
    every e_i and -sum e_i), with a +/- pair of rows, or as drawn, which
    leaves lineality when there are fewer rows than coordinates; either
    family of rows may be empty, and dim may be 1."""
    dim = draw(st.integers(1, 5))
    entries = st.integers(-3, 3).map(float)
    le = draw(st.lists(st.lists(entries, min_size=dim, max_size=dim),
                       max_size=6))
    eq = draw(st.lists(st.lists(entries, min_size=dim, max_size=dim),
                       max_size=dim - 1))
    shape = draw(st.sampled_from(["as drawn", "pointed", "trivial", "pair"]))
    eye = np.eye(dim).tolist()
    if shape == "pointed":
        le += [[-v for v in row] for row in eye]
    elif shape == "trivial":
        le += eye + [[-1.0] * dim]
    elif shape == "pair" and le:
        le.append([-v for v in le[0]])
    return clean_rows(le, dim), clean_rows(eq, dim), dim


@given(_separator_cones())
def test_the_separator_cross_check_agrees_with_highs(cone):
    A_le, A_eq, dim = cone
    simplex = _lp_coordinate_range(A_le, A_eq, dim)
    highs = lp_coordinate_range(A_le, A_eq, dim)
    assert abs(simplex - highs) <= 1e-12
    assert (simplex > 1e-7) == (highs > 1e-7)


def test_image_set_midpoints_stay_admissible():
    # convexity probe of the second-order admissible set through the
    # independent membership oracle: midpoints of sampled elements remain
    # members, hence the image set (an affine map of it) is convex too
    U = Ball(center=(0.0, 0.0), radius=1.0)
    u, v = DISC_POINT, np.array([0.0, 1.0])
    p0, rep = second_cone_vrep(U, u, v)
    rng = np.random.default_rng(21)

    def sample():
        x = p0.copy()
        for r in rep.rays:
            x = x + rng.uniform(0.0, 2.0) * r
        for l in rep.lineality:
            x = x + rng.standard_normal() * l
        return x

    for _ in range(50):
        mid = 0.5 * (sample() + sample())
        cert = second_adjacent_member(U, u, v, mid, with_oracle=False)
        assert cert.member


# ----------------------------------------------------------------------------
# exhaustive grid oracle
# ----------------------------------------------------------------------------

def test_grid_oracle_agrees_with_multiplier_verdicts():
    # consistent candidate -> confirmed; first-order refutation -> the grid
    # finds the strictly better support point; second-order refutation ->
    # the grid walks down the parabola
    assert op_bruteforce(_disc_problem(), DISC_POINT, 1e-2).verdict \
        == "confirmed"

    bf = op_bruteforce(_disc_problem("x1 + 0.1*x2"), DISC_POINT, 1e-3)
    assert bf.verdict == "refuted"
    # the optimal value -sqrt(1.01) is pinned down to the grid slack; the
    # arg-min location is flat to second order, so only a loose check there
    assert abs(bf.best_value + np.sqrt(1.01)) <= 2 * bf.slack
    np.testing.assert_allclose(bf.best_point,
                               [-1 / np.sqrt(1.01), -0.1 / np.sqrt(1.01)],
                               atol=0.05)

    bp = op_bruteforce(_parabola_problem(), np.zeros(2), 1e-3)
    assert bp.verdict == "refuted"
    assert abs(bp.best_value - (-1.0)) <= 1e-9
    assert abs(abs(bp.best_point[0]) - 1.0) <= 1e-9


@pytest.mark.parametrize("resolution", [0.0, -1.0, np.nan, np.inf])
def test_grid_oracle_rejects_a_resolution_that_is_not_positive_and_finite(resolution):
    # an infinite resolution would sample no point and pass as an empty search
    with pytest.raises(ValueError, match="resolution must be positive and finite"):
        op_bruteforce(_disc_problem(), DISC_POINT, resolution)


def test_grid_oracle_confirms_ball3_instance():
    bf = op_bruteforce(_ball3_problem(), [0.0, 0.0, -1.0], 2e-2)
    assert bf.verdict == "confirmed"
    assert bf.num_feasible > 1000
    assert abs(bf.reference_value) <= 1e-12


def test_grid_oracle_confirms_saddle_on_its_axis():
    assert op_bruteforce(_saddle_problem(), np.zeros(2), 1e-2).verdict \
        == "confirmed"


def test_coarse_grid_refuses_verdicts_inside_slack():
    p = make_opt_problem(Box(lower=(-1.0,), upper=(1.0,)),
                         opt_scalar_from_expression("x1", 1))
    # spacing 0.5 puts the best grid point exactly at the Lipschitz slack
    with pytest.raises(ResolutionTooCoarse, match="refine"):
        op_bruteforce(p, [-0.75], 0.5)
    assert op_bruteforce(p, [-0.75], 0.01).verdict == "refuted"


def test_unreachable_equality_gives_empty_verdict():
    p = make_opt_problem(Box(lower=(-1.0,), upper=(1.0,)),
                         opt_scalar_from_expression("x1", 1),
                         equalities=[opt_scalar_from_expression("x1 - 5", 1)])
    bf = op_bruteforce(p, [0.0], 0.01)
    assert bf.verdict == "empty"
    assert bf.num_feasible == 0
    assert bf.best_point is None


def test_each_equality_row_draws_one_lipschitz_estimate():
    # a row's slab is its gradient bound L times half the cell diagonal d,
    # and the slack adds the cost's bound L0 times the slab over L: from one
    # draw of L that is L0 d, so the slack is L0 d (1 + number of rows);
    # the cost's draws come first, so the row-free problem gives L0 d
    box = Box(lower=(-1.0, -1.0), upper=(1.0, 1.0))
    cost = opt_scalar_from_expression("x2 + 0.25*x1^2", 2)
    rows = [opt_scalar_from_expression("x2 + x1^2", 2),
            opt_scalar_from_expression("x2 - x1^3", 2)]
    alone = op_bruteforce(make_opt_problem(box, cost), np.zeros(2), 0.05).slack
    for k in (1, 2):
        bf = op_bruteforce(make_opt_problem(box, cost, equalities=rows[:k]),
                           np.zeros(2), 0.05)
        assert bf.slack == pytest.approx(alone * (1 + k), rel=1e-14, abs=0.0)


def test_grid_oracle_skips_non_finite_costs():
    # sqrt is NaN on the 100 samples left of 0; the first NaN of the slab
    # must not become the best value and hide x1 = 0
    p = make_opt_problem(Box(lower=(-1.0,), upper=(1.0,)),
                         opt_scalar_from_expression("sqrt(x1)", 1))
    with np.errstate(invalid="ignore"):
        bf = op_bruteforce(p, [1.0], 0.01)
        assert (bf.verdict, bf.best_value) == ("refuted", 0.0)
        assert (bf.num_feasible, bf.num_nonfinite) == (201, 100)
        # no finite cost anywhere: every feasible point is skipped
        bad = make_opt_problem(Box(lower=(-1.0,), upper=(1.0,)),
                               opt_scalar_from_expression("sqrt(x1 - 2)", 1))
        empty = op_bruteforce(bad, [1.0], 0.01)
    assert (empty.verdict, empty.num_feasible, empty.num_nonfinite) == \
        ("empty", 201, 201)


def test_non_finite_gradient_bound_is_inconclusive():
    # no sampled gradient is finite: the slack that would back the verdict
    # (or the slab that would decide feasibility) cannot be sized
    nan_cost = _disc_problem("0 - sqrt(x1 - 0.999)")
    with np.errstate(invalid="ignore"), pytest.raises(
            ResolutionTooCoarse,
            match=r"row '0 - sqrt\(x1 - 0.999\)' has no finite gradient "
                  r"bound .*estimate nan"):
        op_bruteforce(nan_cost, [1.0, 0.0], 0.01)
    nan_slab = make_opt_problem(
        Ball(center=(0.0, 0.0), radius=1.0),
        opt_scalar_from_expression("x1", 2),
        equalities=[opt_scalar_from_expression("sqrt(x2 - 0.999)", 2)])
    with np.errstate(invalid="ignore"), pytest.raises(
            ResolutionTooCoarse, match=r"row 'sqrt\(x2 - 0.999\)'"):
        op_bruteforce(nan_slab, [-1.0, 0.0], 0.01)
    # a gradient that overflows on part of the box gives an infinite bound
    inf_cost = _disc_problem("x1 + exp(1000*x1^2)")
    with np.errstate(over="ignore"), pytest.raises(
            ResolutionTooCoarse, match=r"estimate inf"):
        op_bruteforce(inf_cost, [0.0, 0.0], 0.01)


def test_constant_cost_is_trivially_confirmed():
    p = make_opt_problem(Box(lower=(-1.0,), upper=(1.0,)),
                         opt_scalar_from_expression("3", 1))
    assert op_bruteforce(p, [0.25], 0.1).verdict == "confirmed"


def test_grid_oracle_guards():
    p4 = make_opt_problem(Box(lower=(-1.0,) * 4, upper=(1.0,) * 4),
                          opt_scalar_from_expression("x1", 4))
    with pytest.raises(ValueError, match="three dimensions"):
        op_bruteforce(p4, np.zeros(4), 0.5)
    p1 = make_opt_problem(Box(lower=(-1.0,), upper=(1.0,)),
                          opt_scalar_from_expression("x1", 1))
    with pytest.raises(ValueError, match="positive"):
        op_bruteforce(p1, [0.0], 0.0)
    pu = make_opt_problem(Box(lower=(-np.inf,), upper=(np.inf,)),
                          opt_scalar_from_expression("x1", 1))
    with pytest.raises(ValueError, match="unbounded"):
        op_bruteforce(pu, [0.0], 0.1)


def test_grid_oracle_refuses_an_unbounded_polyhedron():
    # the quadrant x1, x2 >= 0 is unbounded above in both coordinates
    quadrant = Polyhedron(A=((-1.0, 0.0), (0.0, -1.0)), b=(0.0, 0.0))
    p = make_opt_problem(quadrant, opt_scalar_from_expression("x1 + x2", 2))
    with pytest.raises(ValueError, match="^base set is unbounded; the grid oracle "
                                         "needs a bounded set$"):
        op_bruteforce(p, [0.0, 0.0], 0.1)


def test_zero_width_axis_is_sampled_once():
    # the flat box [-1, 1] x [0, 0] at spacing 0.5 is five lattice points
    p = make_opt_problem(Box(lower=(-1.0, 0.0), upper=(1.0, 0.0)),
                         opt_scalar_from_expression("x1", 2))
    bf = op_bruteforce(p, [-1.0, 0.0], 0.5)
    assert bf.num_feasible == 5
    assert bf.verdict == "confirmed"


def test_grid_oracle_refuses_absurd_lattices():
    # 2,000,001^2 points on the unit disc: refused by count, before any
    # allocation or scan
    with pytest.raises(ValueError, match="4000004000001 points"):
        op_bruteforce(_disc_problem(), DISC_POINT, 1e-6)


def test_grid_point_limit_is_inclusive(monkeypatch):
    import noc.optproblem

    monkeypatch.setattr(noc.optproblem, "GRID_POINT_LIMIT", 5)
    p = make_opt_problem(Box(lower=(-1.0,), upper=(1.0,)),
                         opt_scalar_from_expression("x1", 1))
    assert op_bruteforce(p, [-1.0], 0.5).num_feasible == 5
    with pytest.raises(ValueError, match="6 points"):
        op_bruteforce(p, [-1.0], 0.4)


# -- the streamed scan against a full-mesh reference -------------------------

def _reference_member(U, pts):
    if isinstance(U, Ball):
        c = np.asarray(U.center, float)
        return np.einsum("ij,ij->i", pts - c, pts - c) <= U.radius ** 2 + 1e-12
    if isinstance(U, Box):
        lo = np.asarray(U.lower, float)
        hi = np.asarray(U.upper, float)
        return np.all((pts >= lo - 1e-12) & (pts <= hi + 1e-12), axis=1)
    if isinstance(U, Polyhedron):
        return np.all(pts @ np.asarray(U.A, float).T
                      <= np.asarray(U.b, float) + 1e-12, axis=1)
    mask = np.ones(pts.shape[0], bool)
    start = 0
    for f in U.factors:
        d = len(f.center) if isinstance(f, Ball) else len(f.lower)
        mask &= _reference_member(f, pts[:, start:start + d])
        start += d
    return mask


def test_membership_mask_matches_reference_off_the_lattice():
    from noc.optproblem import _membership_mask

    rng = np.random.default_rng(3)
    sets = [Ball(center=(0.5, -0.25), radius=1.0),
            Box(lower=(-1.0, 0.0, -0.5), upper=(1.0, 0.5, 0.5)),
            Polyhedron(A=((-1.0, 0.0), (0.0, -1.0), (1.0, 1.0)),
                       b=(0.0, 0.0, 1.0)),
            ProductSet((Box(lower=(0.0,), upper=(1.0,)),
                        Ball(center=(0.0, 0.0), radius=1.0)))]
    for U in sets:
        dim = 2 if isinstance(U, (Ball, Polyhedron)) else 3
        pts = rng.uniform(-2.0, 2.0, (4000, dim))
        expected = _reference_member(U, pts)
        assert 0 < expected.sum() < pts.shape[0]
        np.testing.assert_array_equal(_membership_mask(U, pts), expected)


@st.composite
def _ball_lattices(draw):
    """(domain, ball, the ball's lattice axes, axes, slab points) of a
    lattice ball check: a ball alone on a 1-, 2- or 3-D lattice, or a
    disc on the leading or trailing two axes of a 3-D product with a
    box.  Each axis is a few evenly spaced values; the centre is a lattice
    point or off the lattice; the radius reaches a drawn lattice point
    (exactly, or 1 ulp either side), is too small for any point or covers
    the whole box.  The last ball axis may gain values a few ulps apart
    around where a drawn line leaves the ball, and any axis values near
    1e154 or 1e160, whose squares (or their sums) overflow to inf."""
    dim = draw(st.integers(1, 3))
    layout = draw(st.sampled_from(["ball", "box-ball", "ball-box"]
                                  if dim == 3 else ["ball"]))
    ball_axes = {"ball": list(range(dim)), "box-ball": [1, 2],
                 "ball-box": [0, 1]}[layout]
    ends = st.floats(-4.0, 4.0, allow_nan=False)
    axes = [np.linspace(*sorted((draw(ends), draw(ends))),
                        draw(st.integers(1, 7))) for _ in range(dim)]
    if draw(st.booleans()):
        centre = [draw(st.sampled_from(axes[a].tolist())) for a in ball_axes]
    else:
        centre = [draw(ends) for _ in ball_axes]
    point = [draw(st.sampled_from(axes[a].tolist())) for a in ball_axes]
    reach = float(np.sqrt(sum((p - c) ** 2 for p, c in zip(point, centre))))
    kind = draw(st.sampled_from(["hit", "above", "below", "tiny", "cover"]))
    radius = {"hit": reach, "above": np.nextafter(reach, np.inf),
              "below": np.nextafter(reach, -np.inf), "tiny": 1e-9,
              "cover": 1e3}[kind]
    radius = float(radius) if radius > 0 else 1e-9
    bound = radius ** 2 + 1e-12
    if len(ball_axes) > 1 and draw(st.booleans()):
        # ulp-spaced values where the drawn point's line leaves the ball
        *earlier, last = ball_axes
        s = sum((draw(st.sampled_from(axes[a].tolist())) - centre[i]) ** 2
                for i, a in enumerate(earlier))
        x = centre[-1] + float(np.sqrt(max(bound - s, 0.0)))
        near = [x]
        for _ in range(draw(st.integers(1, 6))):
            near = [np.nextafter(near[0], -np.inf), *near,
                    np.nextafter(near[-1], np.inf)]
        axes[last] = np.concatenate([axes[last], near])
    for a in range(dim):
        if draw(st.booleans()) and draw(st.booleans()):
            huge = draw(st.sampled_from([1e154, -1.3e154, 1e160]))
            axes[a] = np.append(axes[a], huge)
    ball = Ball(center=tuple(centre), radius=radius)
    domain = {"ball": ball,
              "box-ball": ProductSet((Box(lower=(-1.0,), upper=(1.0,)),
                                      ball)),
              "ball-box": ProductSet((ball, Box(lower=(-1.0,),
                                                upper=(1.0,))))}[layout]
    chunk = draw(st.sampled_from([1, 5, 40, 10 ** 6]))
    return domain, ball, ball_axes, axes, chunk


# with r the radius, t = 0.8509656052975975**2 is at most the rounded
# r**2 + 1e-12 - s, s = 0.43299626751813686**2, yet the rounded s + t is
# above r**2 + 1e-12: the guessed threshold must step down
_STEP_DOWN = Ball(center=(0.0, 0.0), radius=0.9547922439374674)


@given(_ball_lattices())
@example((_STEP_DOWN, _STEP_DOWN, [0, 1],
          [np.array([0.43299626751813686]), np.array([0.8509656052975975])],
          10 ** 6))
def test_the_ball_mask_of_a_lattice_is_the_rounded_sum_of_its_squares(case):
    # the mask of every lattice slab, laid end to end, must be bit for bit
    # the old dense test: the squared distances added in axis order,
    # broadcast over the whole lattice, at most radius**2 + 1e-12
    from unittest import mock

    import noc.optproblem

    domain, ball, ball_axes, axes, chunk = case
    dim = len(axes)
    open_axes = [ax.reshape([-1 if k == a else 1 for k in range(dim)])
                 for a, ax in enumerate(axes)]
    c = np.asarray(ball.center, float)
    block = tuple(ax.size for ax in axes)
    with np.errstate(over="ignore", invalid="ignore"):
        dist2 = None
        for i, a in enumerate(ball_axes):
            d = open_axes[a] - c[i]
            dist2 = d * d if dist2 is None else dist2 + d * d
        expected = np.broadcast_to(dist2 <= ball.radius ** 2 + 1e-12, block)
        if isinstance(domain, ProductSet):
            box = 0 if ball_axes == [1, 2] else 2
            expected = expected & (np.abs(open_axes[box]) <= 1.0 + 1e-12)
        with mock.patch.object(noc.optproblem, "CHUNK_POINTS", chunk):
            slabs = list(noc.optproblem._lattice_chunks(axes))
            masks = [noc.optproblem._membership_mask(domain, slab)
                     for slab in slabs]
    for slab, mask in zip(slabs, masks):
        assert isinstance(mask, np.ndarray) and mask.dtype == bool
        assert mask.shape == slab.block
    np.testing.assert_array_equal(np.concatenate(masks), expected)


def _full_mesh_reference(problem, lo, hi, resolution, slab):
    """num_feasible, num_nonfinite, best finite value and its first arg-min
    in C order over the whole lattice at once, the way the scan is
    specified."""
    axes = [np.linspace(l, h, 1 if l == h
                        else max(int(round((h - l) / resolution)) + 1, 2))
            for l, h in zip(lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    pts = pts[_reference_member(problem.domain, pts)]
    for row in problem.inequalities:
        pts = pts[row.value_many(*pts.T) <= 1e-9]
    for row in problem.equalities:
        pts = pts[np.abs(row.value_many(*pts.T)) <= slab]
    count = pts.shape[0]
    vals = np.broadcast_to(problem.cost.value_many(*pts.T), (count,))
    ok = np.isfinite(vals)
    pts, vals = pts[ok], vals[ok]
    best = int(np.argmin(vals))
    return count, count - pts.shape[0], float(vals[best]), pts[best]


_SCAN_CASES = {
    # name: (domain, bounding box, cost, inequalities, equalities,
    #        candidate, resolution); slab counts are for CHUNK_POINTS =
    #        32,768
    "box-1d": (Box(lower=(-1.0,), upper=(2.0,)), ((-1.0,), (2.0,)),
               "(x1 - 0.3)^2", (), (), [0.3], 1e-3),
    # 1001 x 1001 lattice: 32 slabs of 32 rows
    "disc-many-chunks": (Ball(center=(0.0, 0.0), radius=1.0),
                         ((-1.0, -1.0), (1.0, 1.0)),
                         "x1 + 0.1*x2", (), (), [-1.0, 0.0], 2e-3),
    # 32 slabs: the equality leaves nothing in the first ten (x1 < -0.36),
    # the inequality nothing in the last ten (x1 > 0.40)
    "disc-rows-empty-chunks": (Ball(center=(0.0, 0.0), radius=1.0),
                               ((-1.0, -1.0), (1.0, 1.0)),
                               "x2", ("x1 - 0.4",), ("x1 - x2^2 + 0.3",),
                               [-0.3, 0.0], 2e-3),
    # every point of each of the 32 slabs is feasible, and the best one
    # lies in the second slab, whose lattice buffer the later slabs
    # overwrite
    "box-2d-all-feasible": (Box(lower=(-1.0, -1.0), upper=(1.0, 1.0)),
                            ((-1.0, -1.0), (1.0, 1.0)),
                            "(x1 + 0.9)^2 + x2^2", (), (), [-0.9, 0.0],
                            2e-3),
    "polyhedron-2d": (Polyhedron(A=((-1.0, 0.0), (0.0, -1.0), (1.0, 1.0)),
                                 b=(0.0, 0.0, 1.0)),
                      ((0.0, 0.0), (1.0, 1.0)),
                      "(x1 - 0.25)^2 - x2", ("x1 - 0.8",), (),
                      [0.25, 0.75], 2e-3),
    # a transcendental cost over the triangle: 1001^2 lattice, 32 slabs,
    # the upper ones mostly outside the domain
    "polyhedron-2d-transcendental-cost": (
        Polyhedron(A=((-1.0, 0.0), (0.0, -1.0), (1.0, 1.0)),
                   b=(0.0, 0.0, 1.0)),
        ((0.0, 0.0), (1.0, 1.0)),
        "(x1 - 0.3)^2*exp(x2) + sin(5*x2 - 1)", (), (), [0.5, 0.5], 1e-3),
    # 81 x 129 x 81 lattice, 27 slabs of three leading rows: every grammar
    # function but cos in the rows, each evaluated on open coordinates
    "box-3d-transcendental-rows": (
        Box(lower=(0.2, -0.8, 0.25), upper=(1.2, 0.8, 1.25)),
        ((0.2, -0.8, 0.25), (1.2, 0.8, 1.25)),
        "x1 + x2*x3", ("exp(x1 - 1) + log(x3) - 0.6",),
        ("sin(x1) + tan(x2/2) + abs(x2) - 0.25*x3^-2 + x3^0.5 - 1.2",),
        [1.2, 0.8, 1.25], 0.0125),
    "ball-3d": (Ball(center=(0.5, 0.0, 0.0), radius=1.0),
                ((-0.5, -1.0, -1.0), (1.5, 1.0, 1.0)),
                "x1 + x2*x3", (), (), [-0.5, 0.0, 0.0], 2e-2),
    # a thin box times the disc: 4 leading rows, each a 572^2 = 327,184
    # point plane, ten times CHUNK_POINTS, so every slab is one row
    "product-3d-wide-plane": (
        ProductSet((Box(lower=(0.0,), upper=(0.01,)),
                    Ball(center=(0.0, 0.0), radius=1.0))),
        ((0.0, -1.0, -1.0), (0.01, 1.0, 1.0)),
        "x1 + x2 + x3", (), (), [0.0, -0.5 ** 0.5, -0.5 ** 0.5], 0.0035),
    # every feasible point ties: the first one in C order must win, across
    # 32 slabs
    "disc-constant-cost": (Ball(center=(0.0, 0.0), radius=1.0),
                           ((-1.0, -1.0), (1.0, 1.0)),
                           "3", (), (), [0.0, 0.0], 2e-3),
    # the same, with every slab scanned in place and a 0-d cost value:
    # every slab after the first ties the best value so far
    "box-constant-cost": (Box(lower=(-1.0, -1.0), upper=(1.0, 1.0)),
                          ((-1.0, -1.0), (1.0, 1.0)),
                          "3", (), (), [0.0, 0.0], 2e-3),
    # each of the 32 slabs in place holds the same least value, on its
    # every row: the first row of the first slab must win
    "box-x2-squared-ties": (Box(lower=(-1.0, -1.0), upper=(1.0, 1.0)),
                            ((-1.0, -1.0), (1.0, 1.0)),
                            "x2^2", (), (), [0.0, 0.0], 2e-3),
    # disc-many-chunks mirrored: every slab goes below the slabs before it
    "disc-mirrored": (Ball(center=(0.0, 0.0), radius=1.0),
                      ((-1.0, -1.0), (1.0, 1.0)),
                      "-x1 - 0.1*x2", (), (), [1.0, 0.0], 2e-3),
    # the cost is NaN below x2 = -0.9 in every feasible slab: the first 23
    # of 32 slabs are wholly feasible (x1 < 0.5), the 24th partly, the last
    # eight not at all
    "box-2d-nonfinite-cost": (Box(lower=(-1.0, -1.0), upper=(1.0, 1.0)),
                              ((-1.0, -1.0), (1.0, 1.0)),
                              "x1 + sqrt(x2 + 0.9)", ("x1 - 0.5",), (),
                              [0.0, 0.0], 2e-3),
    # NaN cost (x1 + x2 < 0) in the first 27 of the disc's 32 slabs and
    # none in the last five; no slab lies wholly inside the disc
    "disc-nonfinite-cost": (Ball(center=(0.0, 0.0), radius=1.0),
                            ((-1.0, -1.0), (1.0, 1.0)),
                            "x2 + sqrt(x1 + x2)", (), (), [0.5, 0.5], 2e-3),
    # the cost is NaN only off the disc (x1^2 + x2^2 > 1.5, the corners
    # of slabs with |x1| > 0.71): finite on every feasible point, so no
    # point is skipped, but those slabs raise a floating-point flag
    "disc-cost-nan-off-the-domain": (Ball(center=(0.0, 0.0), radius=1.0),
                                     ((-1.0, -1.0), (1.0, 1.0)),
                                     "x1 + 0.001*log(1.5 - x1^2 - x2^2)",
                                     (), (), [-1.0, 0.0], 2e-3),
}


def _scan_problem(name):
    """The problem of scan case ``name``."""
    domain, (lo, hi), cost, ineqs, eqs, _, _ = _SCAN_CASES[name]
    dim = len(lo)
    row = opt_scalar_from_expression
    return make_opt_problem(domain, row(cost, dim),
                            inequalities=[row(t, dim) for t in ineqs],
                            equalities=[row(t, dim) for t in eqs])


@pytest.mark.parametrize("name", sorted(_SCAN_CASES))
def test_streamed_scan_matches_full_mesh_reference(name):
    _, (lo, hi), _, _, _, point, res = _SCAN_CASES[name]
    problem = _scan_problem(name)
    slab = 0.01
    with np.errstate(invalid="ignore"):
        try:
            bf = op_bruteforce(problem, point, res, equality_slab=slab)
        except ResolutionTooCoarse:
            pytest.fail(f"{name}: the case must be decisive at its "
                        f"resolution")
        count, nonfinite, value, where = _full_mesh_reference(
            problem, lo, hi, res, slab)
    assert bf.num_feasible == count > 0
    assert bf.num_nonfinite == nonfinite
    assert (nonfinite > 0) == ("nonfinite" in name)
    assert bf.best_value == value
    assert bf.best_point.tobytes() == where.tobytes()
    ref = float(problem.cost.value(np.asarray(point, float)))
    expected = "refuted" if ref - value > bf.slack else "confirmed"
    assert bf.verdict == expected


@pytest.mark.parametrize("name", ["disc-many-chunks", "disc-nonfinite-cost",
                                  "disc-rows-empty-chunks"])
def test_membership_mask_sees_every_lattice_point_once(monkeypatch, name):
    # one call per slab with that slab's (P, dim) view: benchmark tracing
    # counts the scanned lattice points by wrapping this function.  The
    # cases scan slabs in place, gathered, again gathered after a
    # floating-point flag (the NaN cost) and gathered for the cost after
    # the rows leave fewer than half the points (the equality)
    import noc.optproblem

    mask = noc.optproblem._membership_mask
    calls = []

    def counting(U, pts):
        calls.append(pts.shape)
        return mask(U, pts)

    monkeypatch.setattr(noc.optproblem, "_membership_mask", counting)
    _, _, _, _, _, point, res = _SCAN_CASES[name]
    with np.errstate(invalid="ignore"):
        op_bruteforce(_scan_problem(name), point, res, equality_slab=0.01)
    rows, inner = noc.optproblem._slab_shape([1001, 1001])
    assert rows * inner <= noc.optproblem.CHUNK_POINTS
    assert len(calls) == -(-1001 // rows) > 1
    assert max(p for p, _ in calls) == rows * inner
    assert all(dim == 2 for _, dim in calls)
    assert sum(p for p, _ in calls) == 1001 ** 2


def _result_bits(bf):
    """Every field of a BruteForceResult, numbers as their bytes."""
    return {f.name: v if v is None or isinstance(v, str)
            else np.asarray(v).tobytes()
            for f in dataclasses.fields(bf)
            for v in [getattr(bf, f.name)]}


@pytest.mark.parametrize("name", sorted(_SCAN_CASES))
def test_scan_result_does_not_depend_on_the_slab_size(monkeypatch, name):
    # 1,000 points cut every lattice into many slabs, so ties and
    # non-finite skips cross slab boundaries
    import noc.optproblem

    _, _, _, _, _, point, res = _SCAN_CASES[name]
    problem = _scan_problem(name)
    results = []
    for size in (262144, 1000):
        monkeypatch.setattr(noc.optproblem, "CHUNK_POINTS", size)
        with np.errstate(invalid="ignore"):
            bf = op_bruteforce(problem, point, res, equality_slab=0.01)
        results.append(_result_bits(bf))
    assert results[0] == results[1]


# one row per function of the grammar and per kind of power; the True ones
# raise a floating-point flag on some slabs of the lattice below and not on
# others
_GRAMMAR_ROWS = {
    "sin(x1*x2) + x3": False,
    "cos(x1 - x3)*x2": False,
    "tan(x1 + x2*x3)": False,
    "exp(x1*x2) - x3": False,
    "log(x1 + 0.2*x2 - 0.1*x3)": True,
    "sqrt(x1 - 0.1*x2*x3)": True,
    "abs(x2 - x1)*x3": False,
    "x1^3 - x2^2*x3": False,
    "(x1 + x2)^-2": True,
    "(x1 - 0.1*x3)^0.5": True,
    "x3^(x1 + x2)": True,
    "(x2 + x3)/(x1 - 0.25) + (x1 + 1)^-1": True,
}


@pytest.mark.parametrize("text", sorted(_GRAMMAR_ROWS))
def test_a_row_on_open_coordinates_is_bit_equal_to_the_materialized_slab(
        monkeypatch, text):
    # the scan evaluates every row on a slab's open coordinates, shaped
    # (rows, 1, 1), (1, K1, 1) and (1, 1, K2), and broadcasts: each value
    # and each floating-point flag must be those of the same row on the
    # slab's points stored column by column
    import noc.optproblem

    monkeypatch.setattr(noc.optproblem, "CHUNK_POINTS", 2000)
    axes = [np.linspace(-0.5, 1.5, 41), np.linspace(-1.0, 1.0, 21),
            np.linspace(0.0, 2.0, 17)]
    row = opt_scalar_from_expression(text, 3)
    raised = set()
    slabs = list(noc.optproblem._lattice_chunks(axes))
    assert len(slabs) == 9
    for slab in slabs:
        columns = [np.broadcast_to(col, slab.block).ravel()
                   for col in slab.columns]
        with np.errstate(all="ignore"):
            open_values = np.broadcast_to(row.value_many(*slab.columns),
                                          slab.block)
            values = row.value_many(*columns)
        assert values.shape == (slab.shape[0],)
        assert open_values.tobytes() == values.tobytes()
        flags = []
        for args in (slab.columns, columns):
            try:
                with np.errstate(all="raise"):
                    row.value_many(*args)
                flags.append(False)
            except FloatingPointError:
                flags.append(True)
        assert flags[0] == flags[1]
        raised.add(flags[0])
    assert raised == ({False, True} if _GRAMMAR_ROWS[text] else {False})


@pytest.mark.parametrize("domain", [Box(lower=(-1.0, -1.0), upper=(1.0, 1.0)),
                                    Ball(center=(0.0, 0.0), radius=1.0)],
                         ids=["box-2d-all-feasible", "disc-many-chunks"])
@pytest.mark.parametrize("cost, point", [("x1", [-1.0, 0.0]),
                                         ("x2", [0.0, -1.0])], ids=["x1", "x2"])
def test_the_scan_never_writes_the_axes(monkeypatch, domain, cost, point):
    # a bare coordinate cost returns a view of an axis, which every slab
    # shares: masking its values in place would corrupt this slab and the
    # next
    import noc.optproblem

    lattice_chunks = noc.optproblem._lattice_chunks
    slabs = []

    def recording(axes):
        axes_before = [ax.tobytes() for ax in axes]
        for chunk in lattice_chunks(axes):
            before = [col.tobytes() for col in chunk.columns]
            yield chunk
            assert [col.tobytes() for col in chunk.columns] == before, \
                f"slab {len(slabs)} was written"
            assert [ax.tobytes() for ax in axes] == axes_before, \
                f"an axis was written in slab {len(slabs)}"
            slabs.append(chunk.shape[0])

    monkeypatch.setattr(noc.optproblem, "_lattice_chunks", recording)
    problem = make_opt_problem(domain, opt_scalar_from_expression(cost, 2))
    bf = op_bruteforce(problem, point, 2e-3)
    assert len(slabs) > 1 and sum(slabs) == 1001 ** 2
    count, _, value, where = _full_mesh_reference(
        problem, (-1.0, -1.0), (1.0, 1.0), 2e-3, 0.0)
    assert bf.num_feasible == count
    assert bf.best_value == value == -1.0
    assert bf.best_point.tobytes() == where.tobytes()


def test_a_slab_allocates_one_float_column_beyond_the_lattice():
    # the ball's test is one comparison per point, the masked cost goes
    # into _slab_scratch, the same memory for every slab, and the lattice
    # is never materialized, so a slab allocates no slab-sized float array
    # of its own beyond a thin slab's gathered points: slab-sized arrays
    # freed at the end of every slab can make glibc trim the heap top and
    # fault it in again
    import tracemalloc

    import noc.optproblem

    problem = make_opt_problem(Ball(center=(0.0, 0.0), radius=1.0),
                               opt_scalar_from_expression("x1 + 1", 2))
    op_bruteforce(problem, [-1.0, 0.0], 2e-3)       # allocates the scratch
    rows, inner = noc.optproblem._slab_shape([1001, 1001])
    column = 8 * rows * inner
    tracemalloc.start()
    try:
        bf = op_bruteforce(problem, [-1.0, 0.0], 2e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bf.verdict == "confirmed"
    # the peak is a thin slab's gathered scan: its domain points, at most
    # half the slab in two coordinates (one column), their cost (half a
    # column) and the one-byte masks stay below 2.5 columns (2.15 with a
    # 32-row slab); one more slab-sized float array alive beside them
    # passes the bound.  A lattice buffer, as a (dim, points) float array
    # written every slab, would take two columns alone
    assert peak < 2.5 * column


def test_a_cost_not_finite_without_a_flag_is_skipped_in_place():
    # a row from the Python API can return NaN and -inf without raising a
    # floating-point flag, so the in-place scan must skip them itself
    from noc.optproblem import OptScalar

    def value_many(x1, x2):
        return np.where(x1 < -0.5, np.nan,
                        np.where(x1 < 0.0, -np.inf, x1 + x2))

    cost = OptScalar(value=lambda e: float(value_many(*e)),
                     grad=lambda e: np.ones(2), second=lambda e, y: 0.0,
                     value_many=value_many)
    problem = make_opt_problem(Box(lower=(-1.0, -1.0), upper=(1.0, 1.0)), cost)
    bf = op_bruteforce(problem, [0.0, -1.0], 2e-3)
    count, nonfinite, value, where = _full_mesh_reference(
        problem, (-1.0, -1.0), (1.0, 1.0), 2e-3, 0.0)
    assert (bf.num_feasible, bf.num_nonfinite) == (count, nonfinite) \
        == (1001 ** 2, 500 * 1001)
    assert bf.best_value == value == -1.0
    assert bf.best_point.tobytes() == where.tobytes()
    assert bf.verdict == "confirmed"


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_a_later_slab_with_a_non_finite_cost_is_scanned(bad):
    # the 51 rows with x1 > 0.899 hold feasible points of cost +inf or NaN,
    # raising no floating-point flag, and every finite cost there lies above
    # the best value of the first slab: the scan must still count each
    # skipped point, not set the slab aside unread
    from noc.optproblem import OptScalar

    def value_many(x1, x2):
        return np.where(x1 > 0.899, bad, x1 + x2)

    cost = OptScalar(value=lambda e: float(value_many(*e)),
                     grad=lambda e: np.ones(2), second=lambda e, y: 0.0,
                     value_many=value_many)
    problem = make_opt_problem(Box(lower=(-1.0, -1.0), upper=(1.0, 1.0)), cost)
    bf = op_bruteforce(problem, [-1.0, -1.0], 2e-3)
    count, nonfinite, value, where = _full_mesh_reference(
        problem, (-1.0, -1.0), (1.0, 1.0), 2e-3, 0.0)
    assert (bf.num_feasible, bf.num_nonfinite) == (count, nonfinite) \
        == (1001 ** 2, 51 * 1001)
    assert bf.best_value == value == -2.0
    assert bf.best_point.tobytes() == where.tobytes()
    assert bf.verdict == "confirmed"


@pytest.mark.parametrize("cost", ["x1 + 1", "3"], ids=["op-disc", "constant"])
def test_only_a_slab_that_lowers_the_best_value_takes_its_point(monkeypatch,
                                                                 cost):
    # op-disc's cost x1 + 1 grows from slab to slab, and a constant cost
    # ties in every slab, so only the first slab goes below the best value
    # so far; no later slab, in place or gathered, may look up the
    # coordinates of its arg-min
    import noc.optproblem

    scan_chunk, point = noc.optproblem._scan_chunk, noc.optproblem._point
    looked_up, slabs = [], []

    def spying_point(slab, flat):
        looked_up.append(flat)
        return point(slab, flat)

    def recording(problem, slabs_, chunk, bound):
        before = len(looked_up)
        result = scan_chunk(problem, slabs_, chunk, bound)
        slabs.append((bound, result[2], result[3] is not None,
                      len(looked_up) - before))
        return result

    monkeypatch.setattr(noc.optproblem, "_point", spying_point)
    monkeypatch.setattr(noc.optproblem, "_scan_chunk", recording)
    bf = op_bruteforce(_disc_problem(cost), DISC_POINT, 2e-3)
    assert bf.verdict == "confirmed" and len(slabs) == 32
    for bound, value, found, lookups in slabs:
        assert found == (value < bound) and lookups == found
    assert [found for _, _, found, _ in slabs] == [True] + [False] * 31


@pytest.mark.parametrize("name", ["op-disc", "disc-mirrored"])
def test_a_slab_is_gathered_only_when_its_cost_can_go_below_the_best_value(
        monkeypatch, name):
    # op-disc's cost x1 + 1 grows from slab to slab, so after the first
    # no thin edge slab can go below the best value so far, and none may
    # be gathered; every slab of disc-mirrored goes below it, so each of
    # its five thin slabs is gathered once, as before pruning reached them
    import noc.optproblem

    scan_chunk, gather = noc.optproblem._scan_chunk, noc.optproblem._gather
    gathers, slabs = [], []

    def counting(slab, keep):
        gathers.append(keep.shape)
        return gather(slab, keep)

    def recording(problem, slabs_, chunk, bound):
        before = len(gathers)
        result = scan_chunk(problem, slabs_, chunk, bound)
        pts = np.stack([np.broadcast_to(col, chunk.block).ravel()
                        for col in chunk.columns], axis=1)
        inside = _reference_member(problem.domain, pts)
        vals = problem.cost.value_many(*pts[inside].T)
        slabs.append((bool(vals.min() < bound), 2 * inside.sum() < inside.size,
                      len(gathers) - before))
        return result

    monkeypatch.setattr(noc.optproblem, "_gather", counting)
    monkeypatch.setattr(noc.optproblem, "_scan_chunk", recording)
    if name == "op-disc":
        problem, point = _disc_problem(), DISC_POINT
    else:
        problem, point = _scan_problem(name), _SCAN_CASES[name][5]
    bf = op_bruteforce(problem, point, 2e-3)
    assert len(slabs) == 32 and bf.best_point is not None
    assert [n for _, _, n in slabs] == [int(below and thin)
                                        for below, thin, _ in slabs]
    assert len(gathers) == {"op-disc": 1, "disc-mirrored": 5}[name]


def test_a_non_finite_slab_best_is_an_error(monkeypatch):
    # a NaN best value would fail every comparison in the fold and leave
    # a verdict resting on it
    import noc.optproblem

    scan_chunk = noc.optproblem._scan_chunk
    slabs = []

    def planted(problem, slabs_, chunk, bound):
        slabs.append(None)
        count, skipped, value, where = scan_chunk(problem, slabs_, chunk,
                                                  bound)
        if len(slabs) == 2 and where is not None:
            value = float("nan")
        return count, skipped, value, where

    monkeypatch.setattr(noc.optproblem, "_scan_chunk", planted)
    _, _, _, _, _, point, res = _SCAN_CASES["disc-mirrored"]
    with pytest.raises(NocError, match=r"best cost of a lattice slab is nan"):
        op_bruteforce(_scan_problem("disc-mirrored"), point, res)
    assert len(slabs) == 2


def test_scan_memory_does_not_grow_with_the_grid():
    import tracemalloc

    problem = _disc_problem()
    tracemalloc.start()
    try:
        bf = op_bruteforce(problem, DISC_POINT, 1e-3)   # 2001^2 points
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bf.num_feasible > 3_000_000
    # 0.59 MB: a 16-row slab's gathered scan (about 2.2 float columns of
    # 256 KiB), 0.84 MB when this thread's first scan also allocates the
    # one-column slab scratch; the 2001^2 lattice alone would be 61 MB
    assert peak < 2 ** 20, f"scan peak {peak / 2 ** 20:.2f} MB"


# ----------------------------------------------------------------------------
# flattening a control problem onto the grid
# ----------------------------------------------------------------------------

def test_flattened_control_problem_matches_trajectory_multipliers():
    from noc.conditions import find_first_order_multipliers
    from noc.dynamics import integrate_state

    problem = make_ccs126(horizon=0.5, theta=3.0)
    controls = ccs126_nominal_controls(50)
    traj = integrate_state(problem, [1.0, 0.0], controls)
    trajectory_rays = find_first_order_multipliers(problem, traj)

    op, e_bar = control_problem_as_op(problem, traj)
    assert op.dim == 2 + 50 * 2
    assert op.multiplier_dim == problem.multiplier_dim == 3
    flattened_rays = op_first_order(op, e_bar)

    assert len(trajectory_rays) == len(flattened_rays) == 1
    np.testing.assert_allclose(flattened_rays[0].weights,
                               trajectory_rays[0].weights, atol=1e-6)


def test_flattened_cost_reproduces_trajectory_values():
    from noc.dynamics import integrate_state

    problem = make_ccs126(horizon=0.5, theta=3.0)
    controls = ccs126_nominal_controls(40)
    traj = integrate_state(problem, [1.0, 0.0], controls)
    op, e_bar = control_problem_as_op(problem, traj)

    nominal = problem.cost.value(traj.states[0], traj.states[-1])
    assert abs(op.cost.value(e_bar) - nominal) <= 1e-12
    for row in op.equalities:
        assert abs(row.value(e_bar)) <= 1e-12

    # a known strictly better control beats the nominal through the
    # flattened cost as well: under constant control (1, 0) the first state
    # stays at 1 and the second integrates a constant rate -4 down to -2
    witness = np.concatenate([[1.0, 0.0], np.tile([1.0, 0.0], 40)])
    assert abs(op.cost.value(witness) - (-2.0)) <= 1e-12
    assert op.cost.value(witness) < op.cost.value(e_bar)
