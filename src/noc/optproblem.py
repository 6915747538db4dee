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
from dataclasses import dataclass, replace

import numpy as np

from .cones import (Ball, Box, Polyhedron, ProductSet, _product_slices,
                    adjacent_cone_member, contains, second_cone_vrep,
                    set_dim, tangent_cone_vrep)
from .errors import (DegenerateCone, EmptySecondCone, NocError, PointNotInSet,
                     ResolutionTooCoarse)
from .expr import _compile_blocks, compile_expr, parse_expr
from .polyhedral import (ACTIVITY_TOL, IndexSets, MultiplierVector,
                         clean_rows, enumerate_normalized_rays,
                         polyhedron_bounding_box, relax, split_by_activity,
                         unit_rows)

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

    ``value_many`` evaluates a whole (P, N) batch of points at once and
    returns P values (or one value for a constant row); the grid oracle
    scans with it.  The batch is a view whose coordinate columns are
    contiguous but which may not be C-contiguous; it is reused for the next
    batch, so it must be neither kept nor written.
    """

    value: object                 # e -> float
    grad: object                  # e -> (N,) array
    second: object                # (e, y) -> float
    value_many: object            # (P, N) points -> (P,) values
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

    def value_many(points):
        return np.asarray(fn(*points.T, *pvals), float)

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
    rng = np.random.default_rng(seed)
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


_PIVOT_TOL = 1e-12   # simplex: the least reduced cost and pivot entry that count


def _lp_coordinate_range(A_le, A_eq, dim: int) -> float:
    """Largest |coordinate| achievable over the cone intersected with the
    unit box — 0 certifies the cone is trivial (independent LP route).

    The LPs max ±x_s over {A_le x <= 0, A_eq x = 0, -1 <= x <= 1} are
    solved by a dense primal simplex with Bland's rule, not by the double
    description of ``extreme_rays``.  With x = z+ - z-, z >= 0, each
    equality row split into two inequality rows and the box into 2·dim
    rows, every right-hand side is 0 or 1, so the slack basis is feasible
    and no phase 1 is needed.  The entering column is the smallest index
    with a negative reduced cost and, among tied ratios, the leaving row
    the one with the smallest basis index, so the degenerate pivots at the
    origin terminate.
    """
    A = np.concatenate([np.reshape(A_le, (-1, dim)), np.reshape(A_eq, (-1, dim)),
                        -np.reshape(A_eq, (-1, dim)), np.eye(dim), -np.eye(dim)])
    rows = A.shape[0]
    rhs = np.zeros((rows, 1))
    rhs[rows - 2 * dim:] = 1.0
    start = np.hstack([A, -A, np.eye(rows), rhs])   # z+, z-, slacks | rhs
    peak = 0.0
    for s in range(dim):
        for sign in (1.0, -1.0):
            T = start.copy()
            basis = np.arange(2 * dim, 2 * dim + rows)
            cost = np.zeros(T.shape[1])   # reduced costs of min -sign * x_s
            cost[s], cost[dim + s] = -sign, sign
            while (entering := np.flatnonzero(cost[:-1] < -_PIVOT_TOL)).size:
                j = entering[0]
                bounding = np.flatnonzero(T[:, j] > _PIVOT_TOL)
                ratios = np.maximum(T[bounding, -1], 0.0) / T[bounding, j]
                tied = bounding[ratios == ratios.min()]
                i = tied[np.argmin(basis[tied])]
                T[i] /= T[i, j]
                column = T[:, j].copy()
                column[i] = 0.0
                T -= np.outer(column, T[i])
                cost -= cost[j] * T[i]
                basis[i] = j
            x = np.zeros(T.shape[1] - 1)
            x[basis] = T[:, -1]
            peak = max(peak, abs(float(x[s] - x[dim + s])))
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
    rng = np.random.default_rng(seed)
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
CHUNK_POINTS = 32768         # lattice points per slab: 256 KiB a column,
                             # so every per-slab array stays in cache

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


def _membership_mask(U, pts: np.ndarray) -> np.ndarray:
    """Vectorized membership over a (P, N) batch, one coordinate column (or
    one constraint row) at a time."""
    if isinstance(U, Ball):
        c = np.asarray(U.center, float)
        d = pts[:, 0] - c[0]
        dist2 = d * d
        for a in range(1, c.size):
            np.subtract(pts[:, a], c[a], out=d)
            d *= d
            dist2 += d
        return dist2 <= U.radius ** 2 + 1e-12
    if isinstance(U, Box):
        lo = np.asarray(U.lower, float) - 1e-12
        hi = np.asarray(U.upper, float) + 1e-12
        mask = np.ones(pts.shape[0], bool)
        for a in range(lo.size):
            mask &= pts[:, a] >= lo[a]
            mask &= pts[:, a] <= hi[a]
        return mask
    if isinstance(U, Polyhedron):
        A = np.asarray(U.A, float)
        b = np.asarray(U.b, float) + 1e-12
        mask = np.ones(pts.shape[0], bool)
        for row, bound in zip(A, b):
            mask &= pts @ row <= bound
        return mask
    if isinstance(U, ProductSet):
        mask = np.ones(pts.shape[0], bool)
        for f, s in zip(U.factors, _product_slices(U)):
            mask &= _membership_mask(f, pts[:, s])
        return mask
    raise TypeError(f"not a convex set: {U!r}")


def _row_values(row: OptScalar, pts: np.ndarray) -> np.ndarray:
    vals = np.asarray(row.value_many(pts), float)
    if vals.ndim == 0:            # constant expression
        vals = np.full(pts.shape[0], float(vals))
    return vals


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
    """Yield the C-ordered lattice of ``axes`` as (P, dim) slabs of whole
    leading-axis rows (``_slab_shape``).  Every slab is the transposed
    view ``buf[:, :P].T`` of one column-major (dim, rows*inner) buffer:
    each coordinate column is contiguous, the slab is not C-contiguous.
    The trailing coordinates are written once; only column 0 changes, so
    a slab is valid until the next one is drawn."""
    dim = len(axes)
    counts = [ax.size for ax in axes]
    rows, inner = _slab_shape(counts)
    buf = np.empty((dim, rows * inner))
    lattice = buf.reshape([dim, rows] + counts[1:])
    for a in range(1, dim):
        lattice[a] = axes[a].reshape([-1 if k == a else 1
                                      for k in range(dim)])
    for start in range(0, counts[0], rows):
        lead = axes[0][start:start + rows]
        lattice[0, :lead.size] = lead.reshape([-1] + [1] * (dim - 1))
        yield buf[:, :lead.size * inner].T


def _compress_rows(keep: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The rows of the (P, dim) batch ``pts`` where ``keep`` holds, in
    order, as the (K, dim) transposed view of a fresh column-major
    (dim, K) array.  Each coordinate column is gathered on its own through
    one index array; the indices are in range by construction, and mode
    "clip" spares ``take`` a buffered copy of ``out``."""
    idx = np.flatnonzero(keep)
    out = np.empty((pts.shape[1], idx.size))
    for a, col in enumerate(out):
        np.take(pts[:, a], idx, out=col, mode="clip")
    return out.T


def _cost_minimum(cost: OptScalar, sel: np.ndarray):
    """(count, non-finite count, best value, best point) of the gathered
    (K, dim) feasible points ``sel``: points whose cost is not finite are
    counted and gathered out (a NaN would hide every value after it from
    argmin); the best point is the first finite minimizer, copied out, and
    None when there is none."""
    count = sel.shape[0]
    vals = _row_values(cost, sel)
    ok = np.isfinite(vals)
    skipped = count - int(np.count_nonzero(ok))
    if skipped == count:
        return count, skipped, math.inf, None
    if skipped:
        sel, vals = _compress_rows(ok, sel), vals[ok]
    best = int(np.argmin(vals))
    return count, skipped, float(vals[best]), sel[best].copy()


def _scan_gathered(problem: OptProblem, slabs: list[float], chunk: np.ndarray,
                   mask: np.ndarray):
    """``_scan_chunk`` of a slab whose domain members are ``mask``, with
    the members gathered into fresh arrays (``_compress_rows``) before any
    row is evaluated, and the points that pass every row gathered again
    before the cost, so no row or cost is evaluated off the feasible
    set."""
    if not mask.any():
        return 0, 0, math.inf, None
    sel = chunk if mask.all() else _compress_rows(mask, chunk)
    feas = np.ones(sel.shape[0], bool)
    for row in problem.inequalities:
        feas &= _row_values(row, sel) <= 1e-9
        if not feas.any():
            return 0, 0, math.inf, None
    for row, slab in zip(problem.equalities, slabs):
        feas &= np.abs(_row_values(row, sel)) <= slab
        if not feas.any():
            return 0, 0, math.inf, None
    if not feas.all():
        sel = _compress_rows(feas, sel)
    return _cost_minimum(problem.cost, sel)


def _scan_in_place(problem: OptProblem, slabs: list[float],
                   chunk: np.ndarray, mask: np.ndarray):
    """``_scan_chunk`` of a slab whose domain members are ``mask``, with
    every row and the cost evaluated on the slab's own columns and the
    points that fail masked to +inf before one argmin.  When fewer than
    half the slab's points pass the rows, they are gathered for the cost
    instead.  A row's value array is never written: a bare coordinate
    returns a view of the lattice."""
    feas = mask.copy()
    for row in problem.inequalities:
        feas &= _row_values(row, chunk) <= 1e-9
    for row, slab in zip(problem.equalities, slabs):
        feas &= np.abs(_row_values(row, chunk)) <= slab
    count = int(np.count_nonzero(feas))
    if 2 * count < feas.size:
        if not count:
            return 0, 0, math.inf, None
        return _cost_minimum(problem.cost, _compress_rows(feas, chunk))
    vals = np.where(feas, _row_values(problem.cost, chunk), math.inf)
    ok = np.isfinite(vals)
    skipped = count - int(np.count_nonzero(ok))
    if skipped == count:
        return count, skipped, math.inf, None
    if skipped:
        vals[~ok] = math.inf          # vals is this call's own array
    best = int(np.argmin(vals))
    return count, skipped, float(vals[best]), chunk[best].copy()


def _scan_chunk(problem: OptProblem, slabs: list[float], chunk: np.ndarray):
    """(feasible count, non-finite count, best value, best point) of one
    lattice slab.  Feasible points with a non-finite cost are counted and
    skipped; the best point is the first finite minimizer in C order,
    copied out, and None when there is none.

    The domain mask is computed once.  A slab with fewer than half its
    points in the domain is gathered (``_scan_gathered``); any other is
    scanned in place (``_scan_in_place``) with floating-point flags
    raised, and a slab that raises one anywhere, feasible or not, is
    scanned again gathered, so its numerical warnings are exactly those
    of the feasible points."""
    mask = _membership_mask(problem.domain, chunk)
    if 2 * int(np.count_nonzero(mask)) < mask.size:
        return _scan_gathered(problem, slabs, chunk, mask)
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return _scan_in_place(problem, slabs, chunk, mask)
    except FloatingPointError:
        return _scan_gathered(problem, slabs, chunk, mask)


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
    verdict rests on it, for the cost.  The lattice is streamed in
    column-major slabs of at most CHUNK_POINTS points (one leading-axis
    row when a row is larger), small enough that a slab's points, its row
    values and any points gathered from it stay in cache, so memory does
    not grow with the grid; grids above GRID_POINT_LIMIT points are
    refused.  A slab at least half inside the domain is scanned in place,
    its infeasible points masked to +inf before one argmin; a thinner
    slab, or one whose in-place scan raises a floating-point flag, is
    scanned by gathering its feasible points (``_scan_chunk``).  Feasible
    points whose cost is not finite are skipped and counted; the verdict
    is 'empty' when no feasible point has a finite cost, and a slab best
    that is not finite anyway raises NocError.
    """
    e = np.asarray(point, float)
    _require_in_domain(problem, e)
    if problem.dim > 3:
        raise ValueError("the grid oracle is limited to three dimensions")
    if not 0 < resolution < math.inf:
        raise ValueError(f"resolution must be positive and finite, got {resolution!r}")
    lo, hi = _bounding_box(problem.domain)
    axes = _lattice_axes(lo, hi, resolution)
    rng = np.random.default_rng(seed)
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
        count, skipped, value, where = _scan_chunk(problem, slabs, chunk)
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

