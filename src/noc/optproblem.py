"""Finite-dimensional constrained-minimization checks over convex base sets.

This module mirrors the trajectory pipeline at desk scale: a candidate
point of a smooth program min f0 over a convex set, subject to scalar
inequality and equality rows, is screened through the same multiplier-cone
machinery, a second-order test along a critical direction, an explicit
separating-functional construction, and an exhaustive grid oracle that can
independently confirm or refute local minimality.  Every row is an
expression with exact symbolic derivatives.  The trajectory checker
reduces to this module once a control problem is flattened onto the grid,
which is how the tests cross-validate the two implementations; both
classify rows with the shared helpers of ``noc.polyhedral``, and this
module imports nothing of the control stack.

The multiplier tests work on one candidate record, built in two steps:
the point step evaluates every row's value and gradient once, checks them
and runs ``validate_expansion``; the direction step adds the rates, the
second-order admissible set and the second derivatives along a direction.
Each step raises before a verdict can rest on a row that is not finite.
Called alone, each test builds its own record; ``noc check`` builds one
and hands it to all of them.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from .cones import (Ball, Box, Polyhedron, ProductSet, _product_slices,
                    adjacent_cone_member, contains, second_cone_vrep,
                    set_dim, tangent_cone_vrep)
from .draws import Stream
from .errors import (DegenerateCone, EmptySecondCone, NocError, PointNotInSet,
                     ResolutionTooCoarse)
from .expr import _compile_blocks, compile_expr, parse_expr
from .polyhedral import (ACTIVITY_TOL, IndexSets, MultiplierVector,
                         clean_rows, enumerate_normalized_rays,
                         linear_program, polyhedron_bounding_box, relax,
                         split_by_activity, unit_rows)

__all__ = [
    "BruteForceResult",
    "OptProblem",
    "OptScalar",
    "SecondOrderResult",
    "SeparationData",
    "build_separation",
    "make_opt_problem",
    "op_bruteforce",
    "op_first_order",
    "op_second_order",
    "opt_scalar_from_expression",
    "validate_expansion",
]

QUALIFY_TOL = 1e-9


# ----------------------------------------------------------------------------
# scalar rows and problem assembly
# ----------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OptScalar:
    """One scalar row of the program: value, gradient, and the directional
    second derivative d^2/de^2 f(e + t y) at t = 0 (no full Hessian needed).

    ``value_many`` evaluates many points at once, the grid oracle scans
    with it: it takes the N coordinate arrays, which broadcast together
    to the shape of the points (a lattice slab passes each axis's values
    along its own array dimension), and returns values that broadcast to
    that shape (one value for a constant row).  The coordinate arrays are
    views of the grid's axes, so they must be neither kept nor written.
    """

    value: object                 # e -> float
    grad: object                  # e -> (N,) array
    second: object                # (e, y) -> float
    value_many: object            # N coordinate arrays -> values
    label: str = "scalar"


def opt_scalar_from_expression(text: str, dim: int, label: str | None = None,
                               params=None) -> OptScalar:
    """Scalar row from an expression in x1..xN and the names of ``params``
    (a name -> value mapping, compiled as extra arguments) with exact
    symbolic derivatives.

    ``value`` and ``value_many`` are one compiled scalar expression, which
    broadcasts over point arrays; the gradient and the Hessian behind
    ``second`` are one generated function each
    (``noc.expr._compile_blocks``), evaluated at the one point."""
    names = tuple(f"x{i + 1}" for i in range(dim))
    pnames = tuple(params or ())
    pvals = tuple(float(params[name]) for name in pnames)
    args = names + pnames
    node = parse_expr(text, allowed_vars=set(args))
    fn = compile_expr(node, args)
    grads = [node.diff(name) for name in names]
    gradient = _compile_blocks((grads,), args)
    hessian = _compile_blocks(([[g.diff(name) for name in names] for g in grads],), args)

    def value(e):
        return float(fn(*e, *pvals))

    def grad(e):
        return gradient(1, *e, *pvals)[0][0]

    def second(e, y):
        return float(y @ hessian(1, *e, *pvals)[0][0] @ y)

    def value_many(*columns):
        return np.asarray(fn(*columns, *pvals), float)

    return OptScalar(value=value, grad=grad, second=second,
                     value_many=value_many, label=label or text)


@dataclass(frozen=True, eq=False)
class OptProblem:
    """min cost(e) over e in ``domain`` subject to inequality rows <= 0 and
    equality rows = 0.  Multipliers are laid out (cost, inequalities...,
    equalities...), matching the trajectory pipeline."""

    dim: int
    domain: object                # convex base set (Ball/Box/Polyhedron/Product)
    cost: OptScalar
    inequalities: tuple
    equalities: tuple

    @property
    def num_inequalities(self) -> int:
        return len(self.inequalities)

    @property
    def num_equalities(self) -> int:
        return len(self.equalities)

    @property
    def multiplier_dim(self) -> int:
        return 1 + len(self.inequalities) + len(self.equalities)

    @property
    def rows(self) -> tuple:
        return (self.cost,) + tuple(self.inequalities) + tuple(self.equalities)


def make_opt_problem(domain, cost: OptScalar, inequalities=(),
                     equalities=()) -> OptProblem:
    return OptProblem(dim=set_dim(domain), domain=domain, cost=cost,
                      inequalities=tuple(inequalities),
                      equalities=tuple(equalities))


def validate_expansion(problem: OptProblem, point, *,
                       seed: int = 0) -> list[tuple[str, tuple]]:
    """Numerically probe the quadratic-expansion property of every row at
    ``point``: the residual of value(e + eps y + eps^2 eta) against the
    declared first/second derivatives, divided by eps^2, must not grow as
    eps shrinks along (0.1, 0.05, 0.025).  Residuals below the noise floor,
    1e-10 relative to the row's value and gradient, pass as they are: the
    derivatives are exact, so only rounding can sit below it.
    Returns the per-row (label, residual-ratio triple) report; raises on
    inconsistency.
    """
    e = np.asarray(point, float)
    rng = Stream(seed)
    report: list[tuple[str, tuple]] = []
    for row in problem.rows:
        base = row.value(e)
        g = row.grad(e)
        scale = 1.0 + abs(base) + float(np.max(np.abs(g), initial=0.0))
        y = rng.standard_normal(e.size)
        y /= max(1.0, float(np.linalg.norm(y)))
        eta = rng.standard_normal(e.size)
        eta /= max(1.0, float(np.linalg.norm(eta)))
        d2 = row.second(e, y)
        ratios = []
        for eps in (0.1, 0.05, 0.025):
            pred = (base + eps * float(g @ y) + eps * eps * float(g @ eta)
                    + 0.5 * eps * eps * d2)
            res = abs(row.value(e + eps * y + eps * eps * eta) - pred)
            ratios.append(res / (eps * eps))
        report.append((row.label, tuple(ratios)))
        floor = 1e-10 * scale
        if ratios[0] > floor:
            if not (ratios[2] <= ratios[1] + floor
                    and ratios[1] <= ratios[0] + floor
                    and ratios[2] <= 0.9 * ratios[0] + floor):
                raise NocError(
                    f"row '{row.label}': quadratic-expansion residual/eps^2 "
                    f"does not shrink ({[f'{r:.3e}' for r in ratios]}); the "
                    f"declared derivatives are inconsistent with the values")
    return report


# ----------------------------------------------------------------------------
# the candidate record shared by the multiplier tests
# ----------------------------------------------------------------------------

def _require_in_domain(problem: OptProblem, e: np.ndarray):
    if e.shape != (problem.dim,):
        raise ValueError(f"point must have {problem.dim} coordinates")
    if not contains(problem.domain, e, tol=1e-8):
        raise PointNotInSet("candidate point lies outside the base set")


@dataclass(frozen=True, eq=False)
class _Candidate:
    """A checked candidate point with every row evaluated once.

    The point step (``_point_step``) sets the first five fields:
    ``values`` are the cost and inequality rows' values, the cost shifted
    to 0 (the multiplier theory normalizes the cost level); ``gradients``
    is (1+j+k, N); ``sets`` is the active/inactive split at ``act_tol``.
    The direction step (``_direction_step``) sets the rest along a
    direction y: the cost and inequality rows' ``rates``, the
    relaxed/critical split in ``sets``, the second-order admissible set
    and every row's half second derivative.
    """

    point: np.ndarray
    act_tol: float
    values: np.ndarray
    gradients: np.ndarray
    sets: IndexSets
    direction: np.ndarray | None = None
    rates: np.ndarray | None = None
    base_point: np.ndarray | None = None
    cone: object = None
    halves: np.ndarray | None = None


def _coordinates(v: np.ndarray) -> str:
    return ", ".join(map(repr, v.tolist()))


def _point_step(problem: OptProblem, point, act_tol: float) -> _Candidate:
    """The checks of the point, in this order: it lies in the base set and
    satisfies its rows to 1e-6, every row's value and gradient is finite,
    and the rows pass ``validate_expansion``; then the active/inactive
    split."""
    e = np.asarray(point, float)
    _require_in_domain(problem, e)
    rows = problem.rows
    m_phi = 1 + problem.num_inequalities
    values = [row.value(e) for row in rows]
    for i, val in enumerate(values[1:m_phi]):
        if val > 1e-6:
            raise ValueError(
                f"candidate violates inequality row {i} (value {val:.3e})")
    for i, val in enumerate(values[m_phi:]):
        if abs(val) > 1e-6:
            raise ValueError(
                f"candidate violates equality row {i} (value {val:.3e})")
    G = np.stack([row.grad(e) for row in rows])               # (1+j+k, N)
    for row, val, grad in zip(rows, values, G):
        if not (math.isfinite(val) and np.all(np.isfinite(grad))):
            raise NocError(
                f"row '{row.label}' is not finite at the point "
                f"({_coordinates(e)}): value {val!r}, gradient "
                f"({_coordinates(grad)})")
    validate_expansion(problem, e)
    shifted = np.array([0.0, *values[1:m_phi]])
    return _Candidate(point=e, act_tol=act_tol, values=shifted, gradients=G,
                      sets=split_by_activity(shifted, act_tol))


def _direction_step(problem: OptProblem, candidate: _Candidate,
                    direction) -> _Candidate:
    """``candidate`` along ``direction``, after the checks of the
    direction, in this order: it has ``dim`` coordinates, it is critical,
    and every row's second derivative along it is finite, so that no NaN
    reaches a verdict."""
    e, G, act_tol = candidate.point, candidate.gradients, candidate.act_tol
    y = np.asarray(direction, float)
    if y.shape != (problem.dim,):
        raise ValueError(f"direction must have {problem.dim} coordinates")
    rates = G[:1 + problem.num_inequalities] @ y
    _check_direction(problem, e, y, G, rates, candidate.sets.active, act_tol)
    p0, cone = second_cone_vrep(problem.domain, e, y)
    rows = problem.rows
    seconds = [row.second(e, y) for row in rows]
    for row, d2 in zip(rows, seconds):
        if not math.isfinite(d2):
            raise NocError(
                f"row '{row.label}' has second derivative {d2!r} along the "
                f"direction ({_coordinates(y)}) at the point "
                f"({_coordinates(e)})")
    return replace(candidate, direction=y,
                   sets=relax(candidate.sets, rates, act_tol), rates=rates,
                   base_point=p0, cone=cone, halves=0.5 * np.array(seconds))


def _record(problem: OptProblem, point, act_tol: float,
            direction=None) -> _Candidate:
    """The record a multiplier test works on: ``point`` through the point
    step and, given a ``direction``, the direction step.  ``point`` may be
    a record already, as ``noc check`` builds one and hands it to every
    test: its point step is not repeated, nor its direction step when its
    ``direction`` is this very array."""
    candidate = point if isinstance(point, _Candidate) \
        else _point_step(problem, point, act_tol)
    if direction is None or candidate.direction is direction:
        return candidate
    return _direction_step(problem, candidate, direction)


ROW_NOISE_TOL = 1e-8


def _denoise(row: np.ndarray) -> np.ndarray | None:
    """Rows assembled from computed gradients carry noise of order 1e-10;
    a row whose every entry sits below the noise floor encodes no constraint
    and must be dropped rather than normalized up to unit size."""
    return None if float(np.max(np.abs(row), initial=0.0)) <= ROW_NOISE_TOL \
        else row


def _first_order_rows(problem: OptProblem, candidate: _Candidate, zero):
    """H-representation of the multiplier cone: sign rows on the active
    rows, zero rows on ``zero``, and the weighted gradient sum
    non-positive on every generator of the base set's tangent cone (zero
    on its two-sided generators)."""
    dim = problem.multiplier_dim
    rep = tangent_cone_vrep(problem.domain, candidate.point)

    def generator_rows(gens):
        rows = (_denoise(candidate.gradients @ g) for g in gens)
        return [row for row in rows if row is not None]

    return (clean_rows([*unit_rows(candidate.sets.active, dim),
                        *generator_rows(rep.rays)], dim),
            clean_rows([*unit_rows(zero, dim),
                        *generator_rows(rep.lineality)], dim))


# ----------------------------------------------------------------------------
# first- and second-order multiplier tests
# ----------------------------------------------------------------------------

def op_first_order(problem: OptProblem, point, *,
                   act_tol: float = ACTIVITY_TOL) -> list[MultiplierVector]:
    """Extreme rays of the first-order multiplier cone at ``point``.

    The cone is cut out by the sign pattern on active rows, vanishing
    weights on inactive rows (which also enforces complementary
    slackness), and non-positivity of the weighted gradient sum on every
    generator of the base set's tangent cone.  An empty list is a discrete
    refutation of first-order necessity.

    The point must be feasible, every row's value and gradient finite,
    and the rows pass ``validate_expansion``, which always runs; otherwise
    this raises.  ``point`` may also be its record (see ``_record``).
    """
    candidate = _record(problem, point, act_tol)
    A_le, A_eq = _first_order_rows(problem, candidate,
                                   candidate.sets.inactive)
    return enumerate_normalized_rays(A_le, A_eq, problem.multiplier_dim)


def _check_direction(problem: OptProblem, e: np.ndarray, y: np.ndarray,
                     G: np.ndarray, rates: np.ndarray, active,
                     act_tol: float):
    cert = adjacent_cone_member(problem.domain, e, y, with_oracle=False)
    if not cert.member:
        raise EmptySecondCone(
            "the second-order admissible set is empty: the direction leaves "
            f"the base set's tangent cone (margin {cert.margin:.3e})")
    for i in sorted(active):
        if rates[i] > act_tol:
            raise ValueError(
                f"direction increases active row {i} to first order "
                f"(rate {rates[i]:.3e}); it is not a critical direction")
    for idx, grad in enumerate(G[1 + problem.num_inequalities:]):
        rate = float(grad @ y)
        if abs(rate) > act_tol:
            raise ValueError(
                f"direction has nonzero first-order rate {rate:.3e} on "
                f"equality row {idx}; it is not a critical direction")


@dataclass(frozen=True, eq=False)
class SecondOrderResult:
    """Per-ray worst-case values of the second-order inequality.

    ``worst_values[r]`` is the maximum over the second-order admissible set
    of the linear part plus the fixed half-curvature terms for ray r
    (+inf when the linear part is unbounded above on the set).  A ray
    qualifies when its worst case stays below the tolerance; ``refuted``
    means no ray qualifies, i.e. the candidate fails the second-order
    necessary condition along this direction.
    """

    multipliers: tuple
    worst_values: tuple
    qualifying: tuple
    refuted: bool
    critical: frozenset
    base_point: np.ndarray        # shift of the second-order admissible set


def op_second_order(problem: OptProblem, point, direction, *,
                    act_tol: float = ACTIVITY_TOL,
                    qualify_tol: float = QUALIFY_TOL) -> SecondOrderResult:
    """Second-order test along the critical ``direction`` at ``point``.

    The multipliers are the first-order rays with the relaxed rows'
    weights forced to zero.  Checks the point as ``op_first_order`` does
    (validation always runs); the direction must have ``dim`` coordinates
    and be critical, and every row's second derivative along it must be
    finite; otherwise this raises.  ``point`` may also be its record (see
    ``_record``).
    """
    candidate = _record(problem, point, act_tol, direction)
    A_le, A_eq = _first_order_rows(problem, candidate,
                                   candidate.sets.relaxed)
    rays = enumerate_normalized_rays(A_le, A_eq, problem.multiplier_dim)
    G, p0, rep2 = candidate.gradients, candidate.base_point, candidate.cone
    worst: list[float] = []
    for mv in rays:
        c = G.T @ mv.weights
        tol_ray = 1e-9 * (1.0 + float(np.linalg.norm(c)))
        bounded = all(float(c @ r) <= tol_ray for r in rep2.rays) and \
            all(abs(float(c @ l)) <= tol_ray for l in rep2.lineality)
        if not bounded:
            worst.append(math.inf)
            continue
        worst.append(float(c @ p0) + float(mv.weights @ candidate.halves))
    qualifying = tuple(r for r, w in enumerate(worst) if w <= qualify_tol)
    return SecondOrderResult(multipliers=tuple(rays),
                             worst_values=tuple(worst),
                             qualifying=qualifying,
                             refuted=not qualifying,
                             critical=candidate.sets.critical,
                             base_point=p0)


# ----------------------------------------------------------------------------
# separation construction
# ----------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SeparationData:
    """Explicit separating functional between the image set of the
    second-order test and the open negative-orthant cone.

    ``kappa_points`` samples the image set; ``z_generators`` are recession
    generators of the closed negative set; ``separator`` is a nonzero
    functional with separator . kappa <= 0 <= separator . (z, 0) (None when
    the sets cannot be separated); ``max_kappa_pairing`` is the largest
    sampled pairing, a direct soundness check.
    """

    kappa_points: np.ndarray
    z_generators: tuple
    separator: np.ndarray | None
    max_kappa_pairing: float
    critical: frozenset


def _lp_coordinate_range(A_le, A_eq, dim: int) -> float:
    """Largest |coordinate| achievable over the cone intersected with the
    unit box — 0 certifies the cone is trivial (independent LP route).

    The LPs max ±x_s over {A_le x <= 0, A_eq x = 0, -1 <= x <= 1} go to
    ``linear_program``, not to the double description of ``extreme_rays``.
    Each equality row is split into two inequality rows and the box into
    2·dim rows, so every right-hand side is 0 or 1 and no phase 1 runs.
    """
    A = np.concatenate([np.reshape(A_le, (-1, dim)), np.reshape(A_eq, (-1, dim)),
                        -np.reshape(A_eq, (-1, dim)), np.eye(dim), -np.eye(dim)])
    rhs = np.zeros(A.shape[0])
    rhs[A.shape[0] - 2 * dim:] = 1.0
    peak = 0.0
    for s in range(dim):
        for sign in (1.0, -1.0):
            _, x = linear_program(-sign * np.eye(dim)[s], A, rhs)
            peak = max(peak, abs(float(x[s])))
    return peak


def build_separation(problem: OptProblem, point, direction, *,
                     num_samples: int = 256, seed: int = 0,
                     act_tol: float = ACTIVITY_TOL) -> SeparationData:
    """Separating functional of the second-order test along ``direction``.

    Checks the point and the direction as ``op_second_order`` does
    (validation always runs, and every row's value, gradient and second
    derivative along the direction must be finite); otherwise this raises.
    ``point`` may also be its record (see ``_record``).
    """
    candidate = _record(problem, point, act_tol, direction)
    critical = candidate.sets.critical
    p0, rep2 = candidate.base_point, candidate.cone
    # image map with non-critical inequality rows zeroed out
    M = candidate.gradients.copy()
    q = candidate.halves.copy()
    for i in range(1 + problem.num_inequalities):
        if i not in critical:
            M[i] = 0.0
            q[i] = 0.0
    # sampled image points (affine shift plus random cone combinations)
    rng = Stream(seed)
    xs = np.tile(p0, (num_samples, 1))
    if rep2.rays.size:
        xs += rng.uniform(0.0, 2.0, (num_samples, rep2.rays.shape[0])) @ rep2.rays
    if rep2.lineality.size:
        xs += rng.standard_normal((num_samples, rep2.lineality.shape[0])) \
            @ rep2.lineality
    kappa_points = xs @ M.T + q
    # recession generators of the closed negative set in the first 1+j slots
    m_phi = 1 + problem.num_inequalities
    active = candidate.sets.active
    Yvec = np.where([i in active for i in range(m_phi)], candidate.rates, 0.0)
    z_generators = tuple(-np.eye(m_phi)[i] for i in range(m_phi))
    edge = -(candidate.values + Yvec)
    if float(np.max(np.abs(edge))) > 1e-14:
        z_generators = z_generators + (edge,)
    # the separator cone: nonnegative pairing with every generator of the
    # negative set (padded by zeros on equality slots) and nonpositive
    # pairing with the image set's base point and recession generators
    dim = problem.multiplier_dim
    ineq_rows = []
    for gz in z_generators:
        row = np.zeros(dim)
        row[:m_phi] = -gz
        ineq_rows.append(row)
    base_row = _denoise(M @ p0 + q)
    if base_row is not None:
        ineq_rows.append(base_row)
    eq_rows = []
    for r in rep2.rays:
        row = _denoise(M @ r)
        if row is not None:
            ineq_rows.append(row)
    for l in rep2.lineality:
        row = _denoise(M @ l)
        if row is not None:
            eq_rows.append(row)
    A_le = clean_rows(ineq_rows, dim)
    A_eq = clean_rows(eq_rows, dim)
    rays = enumerate_normalized_rays(A_le, A_eq, dim)
    separator = rays[0].weights if rays else None
    lp_peak = _lp_coordinate_range(A_le, A_eq, dim)
    if separator is None and lp_peak > 1e-7:
        raise DegenerateCone(
            "separator enumeration returned an empty cone but the LP route "
            f"reaches coordinate magnitude {lp_peak:.3e}")
    if separator is not None and lp_peak <= 1e-7:
        raise DegenerateCone(
            "separator enumeration found a ray but the LP route certifies "
            "the cone is trivial")
    pairing = float(np.max(kappa_points @ separator)) if separator is not None \
        else math.nan
    return SeparationData(kappa_points=kappa_points,
                          z_generators=z_generators,
                          separator=separator,
                          max_kappa_pairing=pairing,
                          critical=frozenset(critical))


# ----------------------------------------------------------------------------
# exhaustive grid oracle
# ----------------------------------------------------------------------------

GRID_POINT_LIMIT = 2 ** 30   # lattices above this are refused, not scanned
CHUNK_POINTS = 32768         # lattice points per slab: 256 KiB a float
                             # column, so every per-slab array stays in cache

def _bounding_box(U) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(U, Ball):
        c = np.asarray(U.center, float)
        return c - U.radius, c + U.radius
    if isinstance(U, Box):
        lo = np.asarray(U.lower, float)
        hi = np.asarray(U.upper, float)
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("base set is unbounded; the grid oracle needs "
                             "a bounded set")
        return lo, hi
    if isinstance(U, Polyhedron):
        try:
            return polyhedron_bounding_box(U.A, U.b)
        except ValueError as exc:
            raise ValueError("base set is unbounded; the grid oracle needs "
                             "a bounded set") from exc
    if isinstance(U, ProductSet):
        parts = [_bounding_box(f) for f in U.factors]
        return (np.concatenate([p[0] for p in parts]),
                np.concatenate([p[1] for p in parts]))
    raise TypeError(f"not a convex set: {U!r}")


_SCRATCH = threading.local()


def _slab_scratch(n: int, k: int = 1) -> np.ndarray:
    """``k`` float columns of length ``n``, the same memory for every slab
    this thread scans: a polyhedron's materialized points in
    ``_membership_mask`` (one column a coordinate), then the masked cost
    of ``_masked_minimum``.  A ball's membership writes none: it compares
    one axis's squares with a threshold per lattice line
    (``_line_thresholds``).  Slab-sized temporaries
    freed at the end of every slab can leave the heap top above glibc's
    trim threshold, which then returns it to the system and faults it in
    again for the next slab; depending on the heap's layout at start-up
    that took the 7.7 M-point op-disc grid check from 2,000 to 45,000
    minor faults and from 36 to 90 ms (glibc, 2-core x86-64 VM).  The
    memory grows to the most columns asked for; a batch above
    CHUNK_POINTS gets fresh columns."""
    buf = getattr(_SCRATCH, "buf", None)
    if buf is None or buf.shape[1] < n or buf.shape[0] < k:
        if n > CHUNK_POINTS:
            return np.empty((k, n))
        rows = k if buf is None else max(k, buf.shape[0])
        buf = _SCRATCH.buf = np.empty((rows, CHUNK_POINTS))
    return buf[:k, :n]


class _Slab:
    """Grid points held by their coordinate columns, which broadcast
    together to the array shape ``block``, one point an element, in C
    order.  A lattice slab's columns are open: each axis's values along
    its own array dimension, of size 1 along the others.  A gathered
    slab's columns hold one value per point, and its block is their
    shape.  ``shape`` is (points, coordinates), that of the (P, N) array
    of the points; ``axes`` numbers the columns' lattice axes, and
    ``memo`` keeps what a scan derives from its trailing axes, which all
    its slabs share (``_per_axis``).  A lattice slab also holds
    ``lattice``, the open axes of the whole lattice by axis number, and
    ``start``, the index of its first row on the leading axis; other
    slabs hold None for both."""

    __slots__ = ("columns", "block", "shape", "axes", "memo", "lattice",
                 "start")

    def __init__(self, columns, block=None, axes=None, memo=None,
                 lattice=None, start=None):
        self.columns = tuple(columns)
        self.block = self.columns[0].shape if block is None else block
        self.shape = (math.prod(self.block), len(self.columns))
        self.axes = range(len(self.columns)) if axes is None else axes
        self.memo = {} if memo is None else memo
        self.lattice = lattice
        self.start = start

    def factor(self, s: slice) -> "_Slab":
        """The coordinates ``s`` of the same points (a product's factor)."""
        return _Slab(self.columns[s], self.block, self.axes[s], self.memo,
                     self.lattice, self.start)


def _per_axis(slab: _Slab, U, term) -> list:
    """``term(a)`` of every column a of ``slab`` for the set ``U``: the
    leading axis's on every slab, a trailing axis's once per scan, kept in
    the scan's memo."""
    out = []
    for a, axis in enumerate(slab.axes):
        if axis == 0:
            out.append(term(a))
            continue
        key = (id(U), axis)
        if key not in slab.memo:
            slab.memo[key] = term(a)
        out.append(slab.memo[key])
    return out


def _line_thresholds(sums: np.ndarray, values: np.ndarray,
                     bound: float) -> np.ndarray:
    """The largest of ``values`` (sorted and distinct) that each lattice
    line admits, or -inf where it admits none.  A line whose earlier
    squared distances sum to s admits t when fl(s + t) <= ``bound``;
    rounded addition is monotone in t, so what a line admits is a prefix
    of ``values``.  A searchsorted of the rounded bound - s guesses each
    line's last index, which is then stepped up and down, one distinct
    value at a time, on that same rounded sum until it is exact."""
    n = values.size
    i = np.searchsorted(values, bound - sums, side="right") - 1

    def admits(j):
        return (j >= 0) & (j < n) & (sums + values[np.clip(j, 0, n - 1)]
                                     <= bound)

    while (step := admits(i + 1)).any():
        i += step
    while (step := (i >= 0) & ~admits(i)).any():
        i -= step
    return np.where(i >= 0, values[np.maximum(i, 0)], -np.inf)


def _ball_mask(U: Ball, slab: _Slab) -> np.ndarray:
    """``_membership_mask`` of a ball: a point is in it when the rounded
    sum of its squared distances along the columns, added in axis order,
    is at most radius**2 + 1e-12.  On a lattice slab of two or more
    columns, a line (the points that share every column but the last)
    holds the points whose last square is at most its threshold
    (``_line_thresholds``), so the mask is one broadcast comparison.  The
    thresholds are derived once per scan when the earlier squares come
    from one axis, and a slab takes its rows' share of the leading
    axis's; with more earlier axes (a 3-D ball), per slab from its own
    lines.  A point array, a gathered slab and a 1-D ball add the squares
    densely."""
    c = np.asarray(U.center, float)

    def square(a):
        d = slab.columns[a] - c[a]
        return d * d

    if slab.lattice is None or len(slab.columns) == 1:
        terms = _per_axis(slab, U, square)
        dist2 = terms[0]
        for term in terms[1:]:
            dist2 = dist2 + term
        return dist2 <= U.radius ** 2 + 1e-12
    axes = slab.axes
    key = (id(U), "lines")
    if key not in slab.memo:
        last = square(-1)
        # np.unique would give the same values, but its first call touches
        # about 1.7 MB more of NumPy than a sort (peak RSS, NumPy 2.4)
        ordered = np.sort(last, axis=None)
        distinct = np.concatenate(([True], ordered[1:] != ordered[:-1]))
        values = ordered[distinct]
        bound = U.radius ** 2 + 1e-12
        per_scan = None
        if len(axes) == 2:
            d = slab.lattice[axes[0]] - c[0]
            per_scan = _line_thresholds(d * d, values, bound)
        slab.memo[key] = last, values, bound, per_scan
    last, values, bound, theta = slab.memo[key]
    if theta is None:
        terms = _per_axis(slab.factor(slice(-1)), U, square)
        sums = terms[0]
        for term in terms[1:]:
            sums = sums + term
        theta = _line_thresholds(sums, values, bound)
    elif axes[0] == 0:
        theta = theta[slab.start:slab.start + slab.block[0]]
    return last <= theta


def _membership_mask(U, pts) -> np.ndarray:
    """Vectorized membership of a lattice slab (``_Slab``) or a (P, N)
    array of points, as a mask of the slab's ``block`` shape ((P,) for an
    array).  A ball compares, on a lattice slab, its last axis's squared
    distances with one threshold per lattice line (``_ball_mask``), and a
    box ANDs its per-axis interval tests taking each axis's term once
    (``_per_axis``).  A polyhedron tests one row at a time on the points
    materialized column by column in the scratch (``pts @ row`` is BLAS,
    not an elementwise sum).  A product tests each factor on its own
    columns."""
    slab = pts if isinstance(pts, _Slab) else _Slab(pts.T)
    if isinstance(U, Ball):
        return _ball_mask(U, slab)
    if isinstance(U, Box):
        lo = np.asarray(U.lower, float) - 1e-12
        hi = np.asarray(U.upper, float) + 1e-12

        def inside(a):
            col = slab.columns[a]
            return (col >= lo[a]) & (col <= hi[a])

        terms = _per_axis(slab, U, inside)
        mask = terms[0]
        for term in terms[1:]:
            mask = mask & term
        return mask
    if isinstance(U, Polyhedron):
        A = np.asarray(U.A, float)
        b = np.asarray(U.b, float) + 1e-12
        cols = _slab_scratch(*slab.shape)
        for col, values in zip(cols, slab.columns):
            np.copyto(col.reshape(slab.block), values)
        mask = np.ones(slab.shape[0], bool)
        for row, bound in zip(A, b):
            mask &= cols.T @ row <= bound
        return mask.reshape(slab.block)
    if isinstance(U, ProductSet):
        mask = np.ones(slab.block, bool)
        for f, s in zip(U.factors, _product_slices(U)):
            mask &= _membership_mask(f, slab.factor(s))
        return mask
    raise TypeError(f"not a convex set: {U!r}")


def _lipschitz_estimate(row: OptScalar, lo: np.ndarray, hi: np.ndarray,
                        rng) -> float:
    """Largest gradient norm over 32 uniform samples of the box: NaN when
    no sample has a finite gradient, inf when one overflows."""
    pts = rng.uniform(lo, hi, (32, lo.size))
    # fmax skips a NaN gradient (a sample outside the row's domain of
    # definition) wherever it falls among the samples
    return float(np.fmax.reduce([np.linalg.norm(row.grad(p)) for p in pts]))


def _finite_estimate(row: OptScalar, lip: float) -> float:
    """``lip`` when finite; otherwise ResolutionTooCoarse naming the row,
    since the slack and the equality slabs are sized from it."""
    if not math.isfinite(lip):
        raise ResolutionTooCoarse(
            f"row '{row.label}' has no finite gradient bound on the grid's "
            f"bounding box (sampled estimate {lip!r}), so the Lipschitz "
            f"slack cannot be sized")
    return lip


@dataclass(frozen=True, eq=False)
class BruteForceResult:
    """Grid-search outcome: 'confirmed' (the candidate is a grid minimizer
    up to the Lipschitz slack), 'refuted' (a strictly better feasible grid
    point exists beyond the slack, recorded as witness), or 'empty' (no
    feasible grid point with a finite cost).  ``num_feasible`` counts every
    feasible grid point; those whose cost is not finite are left out of the
    search and counted in ``num_nonfinite``."""

    verdict: str
    best_point: np.ndarray | None
    best_value: float
    reference_value: float
    slack: float
    num_feasible: int
    equality_slab: float
    num_nonfinite: int = 0


def _lattice_axes(lo: np.ndarray, hi: np.ndarray,
                  resolution: float) -> list[np.ndarray]:
    """Per-axis samples of the grid: both ends and about ``resolution``
    apart, or the single value of a zero-width axis.  Raises ValueError
    before anything is allocated when the lattice exceeds GRID_POINT_LIMIT."""
    steps = np.round((hi - lo) / resolution)
    counts = np.where(hi == lo, 1.0, np.maximum(steps + 1.0, 2.0))
    total = float(np.prod(counts))
    if not total <= GRID_POINT_LIMIT:
        raise ValueError(f"the grid would hold {total:.0f} points, more than "
                         f"the limit of {GRID_POINT_LIMIT}; use a coarser "
                         f"resolution")
    return [np.linspace(l, h, int(n)) for l, h, n in zip(lo, hi, counts)]


def _slab_shape(counts: list[int]) -> tuple[int, int]:
    """(rows, inner): whole leading-axis rows per slab, at most
    CHUNK_POINTS points (one row when a row is larger), and the points per
    row."""
    inner = math.prod(counts[1:])
    return max(1, min(counts[0], CHUNK_POINTS // inner)), inner


def _lattice_chunks(axes: list[np.ndarray]):
    """Yield the C-ordered lattice of ``axes`` as slabs (``_Slab``) of
    whole leading-axis rows (``_slab_shape``), held by their open
    coordinates: the slab's slice of the leading axis shaped (rows, 1[, 1])
    and each trailing axis shaped once per scan, e.g. (1, K1[, 1]).  No
    point is materialized; every row, the cost and the domain test
    evaluate on a slab by broadcasting.  Each slab also holds the whole
    lattice's open axes and its first row, so a domain test can derive a
    per-row quantity once per scan and take the slab's rows of it."""
    dim = len(axes)
    counts = [ax.size for ax in axes]
    rows, _ = _slab_shape(counts)
    lattice = tuple(ax.reshape([-1 if k == a else 1 for k in range(dim)])
                    for a, ax in enumerate(axes))
    lead, *trailing = lattice
    memo = {}
    for start in range(0, counts[0], rows):
        part = lead[start:start + rows]
        yield _Slab((part, *trailing), (part.shape[0], *counts[1:]),
                    memo=memo, lattice=lattice, start=start)


def _gather(slab: _Slab, keep: np.ndarray) -> _Slab:
    """The points of ``slab`` where ``keep`` holds, in order, as a slab of
    one value per point in each column: each column, broadcast to the
    slab's block, is indexed by the mask."""
    return _Slab(col[keep] if col.shape == keep.shape
                 else np.broadcast_to(col, keep.shape)[keep]
                 for col in slab.columns)


def _point(slab: _Slab, flat: int) -> np.ndarray:
    """The coordinates of the point at C-order flat index ``flat``: each
    from its column, at the point's index along the column's axis."""
    index = np.unravel_index(flat, slab.block)
    if len(index) == 1:
        index *= len(slab.columns)
    return np.array([col.reshape(-1)[i]
                     for col, i in zip(slab.columns, index)])


def _cost_minimum(cost: OptScalar, sel: _Slab, bound: float):
    """(count, non-finite count, best value, best point) of the feasible
    points ``sel``: points whose cost is not finite are counted and
    gathered out (a NaN would hide every value after it from argmin); the
    best point is the first finite minimizer, and None when there is none
    or when its value does not go below ``bound``."""
    count = sel.shape[0]
    vals = cost.value_many(*sel.columns)
    if np.shape(vals) != sel.block:
        vals = np.broadcast_to(vals, sel.block)
    ok = np.isfinite(vals)
    skipped = count - int(np.count_nonzero(ok))
    if skipped == count:
        return count, skipped, math.inf, None
    if skipped:
        sel, vals = _gather(sel, ok), vals[ok]
    return _below(count, skipped, sel, vals, bound)


def _below(count: int, skipped: int, sel: _Slab, vals: np.ndarray,
           bound: float):
    """The scan result of the feasible values ``vals`` (finite, or +inf
    where masked) of the points ``sel``: the first arg-min and its point
    (``_point``) when its value goes below ``bound``, no point otherwise,
    so an equal value leaves the best point to an earlier slab."""
    best = int(np.argmin(vals))
    value = float(vals.flat[best])
    if value >= bound:
        return count, skipped, math.inf, None
    return count, skipped, value, _point(sel, best)


def _scan_gathered(problem: OptProblem, slabs: list[float], chunk: _Slab,
                   mask: np.ndarray, inside: int, bound: float):
    """``_scan_chunk`` of a slab whose ``inside`` domain members are
    ``mask``, with the members gathered (``_gather``) before any row is
    evaluated, and the points that pass every row gathered again before
    the cost, so no row or cost is evaluated off the feasible set."""
    if not inside:
        return 0, 0, math.inf, None
    sel = chunk if inside == mask.size else _gather(chunk, mask)
    feas = np.ones(sel.block, bool)
    for row in problem.inequalities:
        feas &= row.value_many(*sel.columns) <= 1e-9
        if not feas.any():
            return 0, 0, math.inf, None
    for row, slab in zip(problem.equalities, slabs):
        feas &= np.abs(row.value_many(*sel.columns)) <= slab
        if not feas.any():
            return 0, 0, math.inf, None
    if not feas.all():
        sel = _gather(sel, feas)
    return _cost_minimum(problem.cost, sel, bound)


def _open_cost(cost: OptScalar, chunk: _Slab, bound: float):
    """(values, finite): the cost on the slab's open coordinates, and
    whether every value is finite.  The values are None when every one is
    finite and none is below ``bound``, so no point of the slab can go
    below it."""
    vals = np.asarray(cost.value_many(*chunk.columns))
    low, high = float(vals.min()), float(vals.max())
    finite = math.isfinite(low) and math.isfinite(high)
    return (None if finite and low >= bound else vals), finite


def _masked_minimum(chunk: _Slab, feas: np.ndarray, count: int,
                    vals: np.ndarray, finite: bool, bound: float):
    """The scan result of the slab's ``count`` feasible points ``feas``,
    whose costs are ``vals`` on the open coordinates (``finite`` when
    every one is): the costs are broadcast into the slab scratch
    (``_slab_scratch``) at the feasible points, +inf at the others, and
    non-finite ones skipped, before one argmin.  The cost's array is never
    written: a bare coordinate returns a view of its axis."""
    out = _slab_scratch(feas.size)[0].reshape(feas.shape)
    out.fill(math.inf)
    np.copyto(out, vals, where=feas)
    skipped = 0
    if not finite:
        ok = np.isfinite(out)
        skipped = count - int(np.count_nonzero(ok))
        if skipped == count:
            return count, skipped, math.inf, None
        out[~ok] = math.inf
    return _below(count, skipped, chunk, out, bound)


def _scan_in_place(problem: OptProblem, slabs: list[float], chunk: _Slab,
                   mask: np.ndarray, bound: float):
    """``_scan_chunk`` of a slab with rows whose domain members are
    ``mask``, with every row and the cost evaluated on the slab's open
    coordinates.  When the cost is finite everywhere on the slab and its
    least value, feasible or not, is not below ``bound``, the slab is
    counted and nothing more; otherwise its feasible points are arg-minned
    in place (``_masked_minimum``).  When fewer than half the slab's
    points pass the rows, they are gathered for the cost instead."""
    feas = mask
    for row in problem.inequalities:
        feas = feas & (row.value_many(*chunk.columns) <= 1e-9)
    for row, slab in zip(problem.equalities, slabs):
        feas = feas & (np.abs(row.value_many(*chunk.columns)) <= slab)
    count = int(np.count_nonzero(feas))
    if 2 * count < feas.size:
        if not count:
            return 0, 0, math.inf, None
        return _cost_minimum(problem.cost, _gather(chunk, feas), bound)
    vals, finite = _open_cost(problem.cost, chunk, bound)
    if vals is None:
        return count, 0, math.inf, None
    return _masked_minimum(chunk, feas, count, vals, finite, bound)


def _scan_chunk(problem: OptProblem, slabs: list[float], chunk: _Slab,
                bound: float):
    """(feasible count, non-finite count, best value, best point) of one
    lattice slab.  Feasible points with a non-finite cost are counted and
    skipped; the best point is the first finite minimizer in C order,
    copied out, and None when there is none or when its value does not go
    below ``bound``, the best value of the slabs before, so ties go to the
    earlier slab.  A slab whose cost cannot go below the bound is counted
    but not arg-minned.

    The domain mask is computed and counted once, and a slab with no
    member is done.  Without rows, the cost is first evaluated once on the
    slab's open coordinates (``_open_cost``) with floating-point flags
    raised: when it is finite and nowhere below the bound, the slab's
    feasible count is its domain count and nothing more is done; when it
    raises no flag, a slab at least half inside the domain is arg-minned
    on those values (``_masked_minimum``).  With rows, a slab at least
    half inside the domain is scanned in place (``_scan_in_place``) with
    the flags raised.  Every other slab, and every slab whose cost or rows
    raise a flag anywhere, feasible or not, is gathered
    (``_scan_gathered``), so its numerical warnings are exactly those of
    the feasible points; no slab is evaluated more than twice."""
    mask = _membership_mask(problem.domain, chunk)
    inside = int(np.count_nonzero(mask))
    if inside:
        thick = 2 * inside >= mask.size
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                if problem.inequalities or problem.equalities:
                    if thick:
                        return _scan_in_place(problem, slabs, chunk, mask,
                                              bound)
                else:
                    vals, finite = _open_cost(problem.cost, chunk, bound)
                    if vals is None:
                        return inside, 0, math.inf, None
                    if thick:
                        return _masked_minimum(chunk, mask, inside, vals,
                                               finite, bound)
        except FloatingPointError:
            pass
    return _scan_gathered(problem, slabs, chunk, mask, inside, bound)


def op_bruteforce(problem: OptProblem, point, resolution: float, *,
                  equality_slab: float | None = None,
                  seed: int = 0) -> BruteForceResult:
    """Exhaustive search over a uniform grid on the base set's bounding box.

    Feasibility keeps grid points inside the base set, below every
    inequality row, and inside a slab |equality row| <= slab sized from the
    row's Lipschitz constant and the grid spacing.  The verdict compares
    the best feasible grid value against the candidate's value with a
    Lipschitz slack (gradient bound times half the cell diagonal);
    improvements inside the slack raise ResolutionTooCoarse because the
    grid cannot distinguish them from discretization error, and so does a
    gradient bound that is not finite for an equality row or, when the
    verdict rests on it, for the cost.  The lattice is streamed in slabs
    of at most CHUNK_POINTS points (one leading-axis row when a row is
    larger), each held by its open coordinates, so no point is
    materialized: rows, cost and domain test broadcast over the slab's
    axes, and a slab's masks, its scratch and any points gathered from it
    stay in cache, so memory does not grow with the grid; grids above
    GRID_POINT_LIMIT points are refused.  A ball's domain test is one
    comparison per point with a threshold per lattice line, derived once
    per scan for a disc (``_ball_mask``).  Each slab is scanned against
    the best value found so far: one whose cost cannot go below it is
    counted but not arg-minned, tested before any point is gathered when
    the problem has no rows, and a slab gives a point only when it goes
    below it, so ties go to the first feasible point in C order.  A slab
    at least half inside the domain is otherwise scanned in place, its
    infeasible points masked to +inf before one argmin; a thinner slab,
    or one whose cost or rows raise a floating-point flag, is scanned by
    gathering its feasible points (``_scan_chunk``).  Feasible points whose
    cost is not finite are skipped and counted; the verdict is 'empty'
    when no feasible point has a finite cost, and a slab best that is not
    finite anyway raises NocError.
    """
    e = np.asarray(point, float)
    _require_in_domain(problem, e)
    if problem.dim > 3:
        raise ValueError("the grid oracle is limited to three dimensions")
    if not 0 < resolution < math.inf:
        raise ValueError(f"resolution must be positive and finite, got {resolution!r}")
    lo, hi = _bounding_box(problem.domain)
    axes = _lattice_axes(lo, hi, resolution)
    rng = Stream(seed)
    lip0 = _lipschitz_estimate(problem.cost, lo, hi, rng)
    half_diag = 0.5 * resolution * math.sqrt(problem.dim)
    slabs, slack = [], lip0 * half_diag
    for row in problem.equalities:
        lip = max(_finite_estimate(row, _lipschitz_estimate(row, lo, hi, rng)),
                  1e-9)
        slab = lip * half_diag if equality_slab is None else equality_slab
        slabs.append(slab)
        slack += lip0 * slab / lip

    num_feasible, num_nonfinite, best_value, best_point = 0, 0, math.inf, None
    for chunk in _lattice_chunks(axes):
        count, skipped, value, where = _scan_chunk(problem, slabs, chunk,
                                                   best_value)
        num_feasible += count
        num_nonfinite += skipped
        if where is not None and not math.isfinite(value):
            raise NocError(f"grid search: the best cost of a lattice slab "
                           f"is {value!r} at ({_coordinates(where)}), not "
                           f"finite")
        if where is not None and (best_point is None or value < best_value):
            best_value, best_point = value, where
    ref = float(problem.cost.value(e))
    if best_point is None:
        return BruteForceResult(verdict="empty", best_point=None,
                                best_value=math.nan, reference_value=ref,
                                slack=slack, num_feasible=num_feasible,
                                equality_slab=max(slabs, default=0.0),
                                num_nonfinite=num_nonfinite)
    _finite_estimate(problem.cost, lip0)
    improvement = ref - best_value
    scale = 1e-12 * (1.0 + abs(ref))
    if improvement > slack:
        verdict = "refuted"
    elif improvement > scale:
        raise ResolutionTooCoarse(
            f"best grid point improves the candidate by {improvement:.3e}, "
            f"within the grid Lipschitz slack {slack:.3e}; refine the grid")
    else:
        verdict = "confirmed"
    return BruteForceResult(verdict=verdict, best_point=best_point,
                            best_value=best_value, reference_value=ref,
                            slack=slack, num_feasible=num_feasible,
                            equality_slab=max(slabs, default=0.0),
                            num_nonfinite=num_nonfinite)

