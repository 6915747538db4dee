"""Double-description extreme-ray enumeration and the NumPy simplex."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import null_space as scipy_null_space
from scipy.optimize import linprog

import _reference as reference
from noc import polyhedral
from noc.cones import Polyhedron
from noc.polyhedral import (ConeVRep, clean_rows, cone_contains, extreme_rays,
                            linear_program, null_space, polyhedron_bounding_box)

from _reference import clean_rows as unique_clean_rows


def _ray_set_matches(vrep: ConeVRep, expected_rays) -> bool:
    exp = np.array([r / np.linalg.norm(r) for r in expected_rays])
    got = vrep.rays
    if got.shape[0] != exp.shape[0]:
        return False
    used = set()
    for e in exp:
        hit = None
        for i, r in enumerate(got):
            if i not in used and np.linalg.norm(r - e) < 1e-8:
                hit = i
                break
        if hit is None:
            return False
        used.add(hit)
    return True


def test_full_space():
    v = extreme_rays(None, None, 3)
    assert v.lineality.shape == (3, 3)
    assert v.rays.shape[0] == 0


def test_nonnegative_orthant():
    A_le = -np.eye(3)
    v = extreme_rays(A_le, None, 3)
    assert v.lineality.shape[0] == 0
    assert _ray_set_matches(v, np.eye(3))


def test_single_halfspace():
    a = np.array([[1.0, 2.0, -2.0]])
    v = extreme_rays(a, None, 3)
    assert v.lineality.shape[0] == 2
    assert v.rays.shape[0] == 1
    # lineality orthogonal to a, the ray strictly feasible
    assert np.abs(v.lineality @ a[0]).max() < 1e-9
    assert v.rays[0] @ a[0] < -0.9


def test_equality_plus_inequality():
    # {x1 = 0, x2 <= 0} in R^3: lineality e3, ray -e2
    v = extreme_rays(np.array([[0.0, 1.0, 0.0]]), np.array([[1.0, 0.0, 0.0]]), 3)
    assert v.lineality.shape[0] == 1
    assert abs(abs(v.lineality[0][2]) - 1.0) < 1e-12
    assert _ray_set_matches(v, [[0.0, -1.0, 0.0]])


def test_pointed_simplicial_cone():
    # x1 >= 0, x2 >= 0, x1 + x2 - x3 >= 0  (as <= rows with flipped signs)
    A_le = np.array([
        [-1.0, 0.0, 0.0],
        [0.0, -1.0, 0.0],
        [-1.0, -1.0, 1.0],
    ])
    v = extreme_rays(A_le, None, 3)
    assert v.lineality.shape[0] == 0
    # hand enumeration: extreme rays e1±? -> (1,0,z) with z in {0? } ...
    # facets pair up: {x1=0,x2=0}: ray (0,0,-1); {x1=0, x1+x2=x3}: (0,1,1);
    # {x2=0, x1+x2=x3}: (1,0,1); {x1=0,x2=0} also admits (0,0,-1) only since
    # x3 <= x1+x2 = 0.
    assert _ray_set_matches(v, [[0.0, 0.0, -1.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])


def test_unique_ray_from_equalities_and_sign():
    # two independent equalities in R^3 leave a line; a sign row picks the half
    A_eq = np.array([[1.0, 0.4, 0.0], [0.0, 1.0, 1.0]])
    A_le = np.array([[0.0, 0.0, -1.0]])  # x3 >= 0
    v = extreme_rays(A_le, A_eq, 3)
    assert v.lineality.shape[0] == 0
    assert v.rays.shape[0] == 1
    r = v.rays[0]
    assert np.abs(A_eq @ r).max() < 1e-9
    assert r[2] > 0


def test_infeasible_direction_gives_trivial_cone():
    # x <= 0 and x >= 0 and x1 <= -x1 collapse to {0} in 1D with both sign rows
    A_le = np.array([[1.0], [-1.0]])
    v = extreme_rays(A_le, None, 1)
    assert v.is_trivial


def test_generators_satisfy_hrep_random():
    rng = np.random.default_rng(2024)
    for trial in range(25):
        dim = int(rng.integers(2, 6))
        n_le = int(rng.integers(1, 6))
        n_eq = int(rng.integers(0, 2))
        A_le = rng.standard_normal((n_le, dim))
        A_eq = rng.standard_normal((n_eq, dim)) if n_eq else None
        v = extreme_rays(A_le, A_eq, dim)
        for r in v.rays:
            assert cone_contains(A_le, A_eq, r, tol=1e-8), (trial, r)
        for l in v.lineality:
            assert cone_contains(A_le, A_eq, l, tol=1e-8)
            assert cone_contains(A_le, A_eq, -l, tol=1e-8)


def test_vrep_complete_against_lp_vertices():
    # truncate the cone by a box and check LP-optimal vertices decompose in
    # the V-representation (free lineality coefficients, nonneg ray coeffs)
    rng = np.random.default_rng(77)
    for trial in range(15):
        dim = int(rng.integers(2, 5))
        n_le = int(rng.integers(1, 5))
        A_le = rng.standard_normal((n_le, dim))
        v = extreme_rays(A_le, None, dim)
        c = rng.standard_normal(dim)
        res = linprog(c, A_ub=A_le, b_ub=np.zeros(n_le),
                      bounds=[(-1.0, 1.0)] * dim, method="highs")
        assert res.success
        x = res.x
        # decompose x = lineality^T mu + rays^T lam, lam >= 0 via LP feasibility
        G = []
        bounds = []
        for l in v.lineality:
            G.append(l)
            bounds.append((None, None))
        for r in v.rays:
            G.append(r)
            bounds.append((0.0, None))
        if not G:
            assert np.linalg.norm(x) < 1e-7
            continue
        G = np.array(G).T
        res2 = linprog(np.zeros(G.shape[1]), A_eq=G, b_eq=x, bounds=bounds,
                       method="highs")
        assert res2.success, (trial, x, v)


def test_bounding_box_of_box():
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.array([1.0, 2.0, 0.5, 3.0])
    lo, hi = polyhedron_bounding_box(A, b)
    np.testing.assert_allclose(lo, [-0.5, -3.0], atol=1e-9)
    np.testing.assert_allclose(hi, [1.0, 2.0], atol=1e-9)


def test_bounding_box_unbounded_raises():
    A = np.array([[1.0, 0.0]])  # x1 <= 1, x2 free
    with pytest.raises(ValueError, match="polyhedron is unbounded along coordinate 1"):
        polyhedron_bounding_box(A, np.array([1.0]))
    with pytest.raises(ValueError, match="polyhedron is unbounded along coordinate 2"):
        polyhedron_bounding_box([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0])
    with pytest.raises(ValueError, match="polyhedron is empty"):
        polyhedron_bounding_box([[1.0], [-1.0]], [-1.0, -1.0])


_RNG = np.random.default_rng(7)
_A = _RNG.standard_normal((2, 4))


@pytest.mark.parametrize("A", [
    _A,                                           # full row rank
    np.vstack([_A, _A[0] - 2.0 * _A[1]]),         # rank 2 of 3 rows
    np.zeros((0, 3)),                             # no rows: all of R^3
    np.array([[1.0, -2.0, 0.5]]),                 # one row
    _RNG.standard_normal((3, 3)),                 # trivial null space
    np.zeros((2, 3)),                             # zero matrix
], ids=["full-rank", "rank-deficient", "empty", "one-row", "square", "zero"])
def test_null_space_matches_scipy(A):
    Z, R = null_space(A), scipy_null_space(A)
    assert Z.shape == R.shape
    np.testing.assert_allclose(Z.T @ Z, np.eye(Z.shape[1]), atol=1e-12)
    assert np.abs(A @ Z).max(initial=0.0) <= 1e-12
    # equal spans: equal orthogonal projectors
    np.testing.assert_allclose(Z @ Z.T, R @ R.T, atol=1e-12)


@st.composite
def _row_stacks(draw):
    """(rows, dim) as the multiplier cone hands them to ``clean_rows``: a
    few base rows of small numbers with +-0.0 entries, and a stack of
    them, each exact, a positive multiple, moved by less than the 12th
    decimal (so equal to its base only after rounding, and a zero entry
    may round to -0.0), or scaled to a norm of at most 1e-12; the stack
    may be empty and dim is 1 to 5."""
    dim = draw(st.integers(1, 5))
    entries = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.0])
    bases = draw(st.lists(st.lists(entries, min_size=dim, max_size=dim),
                          min_size=1, max_size=4))
    kinds = st.sampled_from(["exact", "multiple", "rounded", "tiny"])
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        row = np.array(bases[draw(st.integers(0, len(bases) - 1))])
        kind = draw(kinds)
        if kind == "multiple":
            row = draw(st.sampled_from([2.0, 0.5, 3.0, 1e3])) * row
        elif kind == "rounded":
            row = row + np.array(draw(st.lists(
                st.sampled_from([-1e-14, 0.0, 1e-14]), min_size=dim, max_size=dim)))
        elif kind == "tiny":
            row = 1e-13 * row
        rows.append(row)
    return np.array(rows).reshape(-1, dim), dim


@given(_row_stacks())
def test_clean_rows_matches_the_unique_dedupe_bit_for_bit(stack):
    rows, dim = stack
    got, want = clean_rows(rows, dim), unique_clean_rows(rows, dim)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_clean_rows_keeps_the_first_of_each_kind_in_input_order():
    rows = [[0.0, 2.0], [1.0, 0.0], [-0.0, 1.0], [1e-13, 0.0],
            [3.0, 1e-14], [0.0, -1.0]]
    np.testing.assert_array_equal(clean_rows(rows, 2),
                                  [[0.0, 1.0], [1.0, 0.0], [0.0, -1.0]])
    assert clean_rows([], 3).shape == (0, 3)


# ----------------------------------------------------------------------------
# the NumPy simplex against HiGHS
# ----------------------------------------------------------------------------

_KINDS = ("feasible", "empty", "unbounded", "point", "segment",
          "barely feasible", "barely empty")


@st.composite
def _polyhedra(draw):
    """(A, b, kind) of a polyhedron {A x <= b} in R^dim, dim 1 to 4.

    Rows of small integers, or of two-decimal numbers, pass through a
    drawn centre with slacks of 0 to 3.  By kind, the drawn rows are kept
    (``feasible``), joined by a pair of opposite rows 1 apart (``empty``)
    or 1e-6 apart either way (``barely feasible``/``barely empty``), made
    to recede along +x_1 (``unbounded``), or joined by box rows around the
    centre of width 1 and with one (``segment``) or no (``point``) side
    of nonzero width.  All but the barely kinds may then be scaled by
    10^3 or 10^-3 about the origin, have each row scaled by 10^-3, 1 or
    10^3, or, with integer rows, be moved about 10^6 from the origin.
    (Integer rows keep that move exact: rounded at 10^6, a point or a
    segment is empty by about 1e-10, which HiGHS's tightened box LPs see.)
    """
    dim = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(_KINDS))
    integer = draw(st.booleans())
    entries = st.integers(-3, 3) if integer else \
        st.integers(-300, 300).map(lambda v: v / 100)
    vector = st.lists(entries.map(float), min_size=dim, max_size=dim)
    A = np.array(draw(st.lists(vector, min_size=1, max_size=6)))
    centre = np.array(draw(vector))
    slack = np.array(draw(st.lists(st.integers(0, 3), min_size=len(A),
                                   max_size=len(A))), float)
    b = A @ centre + slack
    if kind == "unbounded":
        A[:, 0] = -np.abs(A[:, 0])
    elif kind in ("point", "segment"):
        width = np.zeros(dim) if kind == "point" else np.eye(dim)[0]
        A = np.vstack([A, np.eye(dim), -np.eye(dim)])
        b = np.concatenate([b, centre + width, -centre])
    elif kind != "feasible":
        a = np.array(draw(vector))
        a[0] = 1.0
        gap = {"empty": 1.0, "barely feasible": -1e-6, "barely empty": 1e-6}[kind]
        A = np.vstack([A, a, -a])
        b = np.concatenate([b, [a @ centre, -(a @ centre) - gap]])
    if not kind.startswith("barely"):
        transform = draw(st.sampled_from(["none", "up", "down", "rows"]
                                         + ["far"] * integer))
        if transform in ("up", "down"):
            b = b * (1e3 if transform == "up" else 1e-3)
        elif transform == "rows":
            scale = 10.0 ** np.array(draw(st.lists(st.sampled_from([-3, 0, 3]),
                                                   min_size=len(A), max_size=len(A))))
            A, b = A * scale[:, None], b * scale
        elif transform == "far":
            b = b + A @ (1e6 * np.array(draw(vector)))
    return A, b, kind


@given(_polyhedra())
def test_the_simplex_agrees_with_highs(polyhedron):
    A, b, kind = polyhedron
    empty = reference.polyhedron_is_empty(A, b)
    assert empty == (kind in ("empty", "barely empty"))
    if empty:
        with pytest.raises(ValueError, match="polyhedron is empty"):
            Polyhedron(A=A, b=b)
    else:
        Polyhedron(A=A, b=b)
    try:
        want = reference.polyhedron_bounding_box(A, b)
    except ValueError:
        assert kind != "point" and kind != "segment"
        with pytest.raises(ValueError):
            polyhedron_bounding_box(A, b)
        return
    assert kind != "unbounded"
    got = polyhedron_bounding_box(A, b)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-9, atol=1e-9)


def test_linear_program_statuses():
    square = np.vstack([np.eye(2), -np.eye(2)])
    status, x = linear_program([1.0, -1.0], square, [1.0, 2.0, -0.5, 3.0])
    assert status == "optimal"
    np.testing.assert_allclose(x, [0.5, 2.0], atol=1e-12)
    assert linear_program([1.0], [[1.0], [-1.0]], [-1.0, -1.0]) == ("empty", None)
    assert linear_program([-1.0, 0.0], [[-1.0, 1.0]], [-2.0]) == ("unbounded", None)
    # no rows: optimal at the origin for c = 0, unbounded otherwise
    assert linear_program([0.0, 0.0], np.zeros((0, 2)), [])[0] == "optimal"
    assert linear_program([1.0, 0.0], np.zeros((0, 2)), [])[0] == "unbounded"


def test_the_box_does_not_depend_on_the_scale_of_a_row():
    # the segment 1 <= x <= 2, y = 2, with each row at a scale of its own:
    # the pivot tolerance is absolute, so the simplex scales every row first
    A = np.array([[-1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    b = np.array([1.0, 2.0, 2.0, -1.0, -2.0])
    for scale in ([1.0] * 5, [1e-3, 1e3, 1e-3, 1e3, 1e3]):
        scale = np.array(scale)
        lo, hi = polyhedron_bounding_box(A * scale[:, None], b * scale)
        np.testing.assert_allclose(lo, [1.0, 2.0], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(hi, [2.0, 2.0], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("where", ["A", "b"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_a_polyhedron_with_a_non_finite_entry_is_refused(where, value):
    A = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    b = np.array([1.0, 1.0, 0.0])
    (A if where == "A" else b)[1] = value
    with pytest.raises(ValueError, match="polyhedron rows must be finite"):
        Polyhedron(A=A, b=b)


# ----------------------------------------------------------------------------
# double description against brute force
# ----------------------------------------------------------------------------

@st.composite
def _cones(draw):
    """(A_le, A_eq, dim, shape) of a cone {A_eq x = 0, A_le x <= 0}, dim 1
    to 4, rows of small integers.  Shapes: ``pointed`` (the orthant rows
    -e_i added), ``equalities`` (1 to dim equality rows, with or without
    the orthant rows), ``lineality`` (fewer inequality rows than
    coordinates, no equality), ``duplicates`` (a drawn row repeated at a
    positive scale, 1/2 to 10^3, at a drawn place) and ``as drawn``."""
    dim = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["pointed", "equalities", "lineality",
                                  "duplicates", "as drawn"]))
    vector = st.lists(st.integers(-3, 3).map(float), min_size=dim, max_size=dim)
    le = draw(st.lists(vector, min_size=1, max_size=dim + 3))
    eq = []
    if shape == "pointed" or (shape == "equalities" and draw(st.booleans())):
        le += (-np.eye(dim)).tolist()
    if shape == "equalities":
        eq = draw(st.lists(vector, min_size=1, max_size=dim))
    elif shape == "lineality":
        le = le[:max(1, dim - 1)]
    elif shape == "duplicates":
        row = draw(st.sampled_from(le))
        scale = draw(st.sampled_from([0.5, 2.0, 3.0, 1e3]))
        le.insert(draw(st.integers(0, len(le))), [scale * v for v in row])
    return (np.array(le).reshape(-1, dim), np.array(eq).reshape(-1, dim),
            dim, shape)


def _projector(rows: np.ndarray, dim: int) -> np.ndarray:
    return rows.T @ rows if rows.size else np.zeros((dim, dim))


def _assert_rays_match_brute_force(A_le, A_eq, dim):
    rep = extreme_rays(A_le, A_eq if A_eq.size else None, dim)
    lineality, want = reference.extreme_rays_brute_force(A_le, A_eq, dim)
    got = sorted((r / np.abs(r).max() for r in rep.rays),
                 key=lambda r: tuple(np.round(r, 9)))
    got = np.array(got).reshape(-1, dim)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, atol=1e-8)
    np.testing.assert_allclose(_projector(rep.lineality, dim),
                               _projector(lineality, dim), atol=1e-8)


@given(_cones())
def test_extreme_rays_match_brute_force(cone):
    A_le, A_eq, dim, _ = cone
    _assert_rays_match_brute_force(A_le, A_eq, dim)


def test_a_cut_across_a_square_cone_combines_only_adjacent_rays(monkeypatch):
    # the cone over the square |x|, |y| <= z has the rays (±1, ±1, 1); the
    # row x + y <= z cuts off (1, 1, 1) only, so the double description
    # combines it with its two neighbours and not with (-1, -1, 1)
    pairs = []
    real = polyhedral._adjacent
    monkeypatch.setattr(polyhedral, "_adjacent",
                        lambda *args: pairs.append(real(*args)) or pairs[-1])
    A_le = np.array([[1.0, 0.0, -1.0], [-1.0, 0.0, -1.0], [0.0, 1.0, -1.0],
                     [0.0, -1.0, -1.0], [1.0, 1.0, -1.0]])
    _assert_rays_match_brute_force(A_le, np.zeros((0, 3)), 3)
    assert False in pairs
