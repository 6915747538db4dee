"""Necessary-condition pipeline along a nominal trajectory.

Given a control trajectory, this module classifies the endpoint constraint
rows (active/inactive, and which stay tight to first order along a chosen
direction), enumerates the polyhedral cone of admissible multipliers,
verifies candidate singular directions, evaluates the second-order quadratic
form, and assembles refutation certificates: a recorded control acceleration
that makes the form positive against every admissible multiplier certifies
that the examined control is not a local minimizer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import (_per_row, _RowGroups, adjacent_cone_member,
                    quadratic_distance_bound, row_groups, second_adjacent_member,
                    second_cone_vrep, tangent_cone_vrep)
from .dynamics import (ControlProblem, FieldAlongCurve, Trajectory,
                       TrajectoryJet, _adjoint_chain, _check_direction_shape,
                       _at_sides, _endpoint_christoffel, _node_leading,
                       _stackable, _sum_over,
                       _variational_chain, dynamics_from_expressions,
                       endpoint_from_expressions, integrate_adjoint,
                       integrate_variational, lagrange_data, make_problem,
                       trajectory_jet, trapezoid_cellwise)
from .errors import (BoundNotVerified, ChartEscape, ConeViolation,
                     EndpointRowViolation, NoMultiplier, SigmaNotInB)
from .geometry import euclidean, product_chart, valid_point
from .polyhedral import (ACTIVITY_TOL, IndexSets, MultiplierVector,
                         clean_rows, enumerate_normalized_rays, inf_normalize,
                         relax, split_by_activity, unit_rows)

__all__ = [
    "RAY_BUDGET",
    "REFUTATION_MARGIN",
    "ROW_TOL",
    "RefutationCertificate",
    "STATIONARITY_TOL",
    "SingularDirection",
    "active_sets",
    "critical_sets",
    "default_sigma_candidates",
    "find_first_order_multipliers",
    "mayer_augment",
    "refute_optimality",
    "verify_singular_direction",
]

ROW_TOL = 1e-8
STATIONARITY_TOL = 1e-6
REFUTATION_MARGIN = 1e-6
RAY_BUDGET = 64

LHS_TERM_NAMES = (
    "sigma_integral",     # integral of the control gradient against sigma
    "state_state",        # 1/2 integral of the state Hessian at (X, X)
    "state_control",      # integral of the mixed block at (X, v)
    "control_control",    # 1/2 integral of the control Hessian at (v, v)
    "curvature",          # -1/2 integral of the curvature pairing
    "start_start",        # 1/2 endpoint Hessian at (X(0), X(0))
    "start_end",          # mixed endpoint Hessian at (X(0), X(T))
    "end_end",            # 1/2 endpoint Hessian at (X(T), X(T))
)


# ----------------------------------------------------------------------------
# domain types
# ----------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SingularDirection:
    """A verified first-order-admissible control direction.

    ``endpoint_rates[i]`` is the first-order rate of endpoint row i along the
    direction (gradient at the start paired with the field at 0 plus gradient
    at the end paired with the field at T); ``equality_residuals`` are the
    same rates for the equality rows (must vanish within ``row_tol``).
    """

    control_directions: np.ndarray   # (N, m)
    field: FieldAlongCurve           # first-order state response X
    endpoint_rates: np.ndarray       # (1 + j,)
    equality_residuals: np.ndarray   # (k,)
    row_tol: float


@dataclass(frozen=True, eq=False)
class RefutationCertificate:
    """Outcome of the second-order refutation search.

    ``lhs[c, r]`` is the quadratic-form value for candidate c against
    multiplier ray r, evaluated with the ray rescaled so its cost weight is
    -1 when possible (values then match the cost-normalized convention).
    Verdict "refuted" requires one candidate whose value exceeds 10x the
    margin against every ray; values inside (margin, 10x margin] downgrade
    to "inconclusive".
    """

    verdict: str                    # refuted | consistent | inconclusive
    multipliers: tuple              # MultiplierVector rays examined
    sigma_candidates: tuple         # (N, m) arrays
    w_candidates: tuple             # start accelerations (recorded; see notes)
    lhs: np.ndarray                 # (num_candidates, num_rays)
    chosen: tuple | None            # (sigma_index, w_index) of the best candidate
    chosen_lhs: float               # min-over-rays value of the best candidate
    chosen_terms: dict | None       # per-term breakdown for (chosen, first ray)
    margin: float
    stationarity: tuple             # per-ray residual of the chosen direction
    index_sets: IndexSets
    tolerances: dict
    notes: tuple


# ----------------------------------------------------------------------------
# index sets and direction verification
# ----------------------------------------------------------------------------

def active_sets(problem: ControlProblem, trajectory: Trajectory,
                act_tol: float = ACTIVITY_TOL) -> IndexSets:
    """Partition the endpoint rows by activity at the trajectory's
    endpoints: an inequality row is active when its value is >= -act_tol
    (a NaN value is inactive), and the cost row always is."""
    y0, yT = trajectory.states[0], trajectory.states[-1]
    return split_by_activity(
        [0.0] + [ep.value(y0, yT) for ep in problem.inequality_maps], act_tol)


def verify_singular_direction(problem: ControlProblem, trajectory: Trajectory,
                              control_directions, start_vector=None, *,
                              row_tol: float = ROW_TOL,
                              act_tol: float = ACTIVITY_TOL,
                              _field: FieldAlongCurve | None = None,
                              _sets: IndexSets | None = None) -> SingularDirection:
    """Check a direction against the pointwise cone and linearized endpoint rows.

    Requirements: every per-cell direction lies in the adjacent cone of the
    control set at the nominal control; active endpoint rows do not increase
    to first order; equality rows have zero first-order rate. ``_field`` is
    the direction's field from ``_direction_field`` when the caller has
    run it, cone check included, in a stacked run, and ``_sets`` the
    trajectory's ``active_sets`` when the caller has them.
    """
    v_seq = _check_direction_shape(trajectory, control_directions)
    X = (_field if _field is not None
         else _direction_field(problem, trajectory, v_seq, start_vector))
    y0, yT = trajectory.states[0], trajectory.states[-1]
    X0, XT = X.values[0], X.values[-1]
    sets = _sets if _sets is not None else active_sets(problem, trajectory, act_tol)
    rates = np.empty(1 + problem.num_inequalities)
    for i, ep in enumerate((problem.cost,) + tuple(problem.inequality_maps)):
        g1, g2 = ep.grad(y0, yT)
        rates[i] = float(np.asarray(g1, float) @ X0 + np.asarray(g2, float) @ XT)
        if i in sets.active and rates[i] > row_tol:
            raise EndpointRowViolation(
                f"active endpoint row {i} increases along the direction "
                f"(rate {rates[i]:.3e} > tol {row_tol:g})", index=i)
    eq_res = np.empty(problem.num_equalities)
    for r, ep in enumerate(problem.equality_maps):
        g1, g2 = ep.grad(y0, yT)
        eq_res[r] = float(np.asarray(g1, float) @ X0 + np.asarray(g2, float) @ XT)
        if abs(eq_res[r]) > row_tol:
            raise EndpointRowViolation(
                f"equality row {r} has nonzero first-order rate "
                f"({eq_res[r]:.3e}, tol {row_tol:g})",
                index=1 + problem.num_inequalities + r)
    return SingularDirection(control_directions=v_seq, field=X,
                             endpoint_rates=rates, equality_residuals=eq_res,
                             row_tol=row_tol)


def _verdict_groups(trajectory: Trajectory, control_directions) -> _RowGroups:
    """The ``row_groups`` of the trajectory's controls and of its (control,
    direction) pairs, the direction's shape checked first: one verdict's
    per-cell routines share them."""
    v_seq = _check_direction_shape(trajectory, control_directions)
    return _RowGroups(row_groups(trajectory.controls),
                      row_groups(trajectory.controls, v_seq))


@_stackable
def _direction_field(problem: ControlProblem, trajectory: Trajectory,
                     control_directions, start_vector=None, *,
                     _groups: _RowGroups | None = None) -> FieldAlongCurve:
    """The variational field of a direction, after checking that every
    cell's direction lies in the adjacent cone of the control set at the
    nominal control. Its steps (see ``dynamics.run_stacked``) yield the
    variational chain. ``_groups`` are the ``_verdict_groups`` of the
    direction when the caller has them."""
    v_seq = _check_direction_shape(trajectory, control_directions)
    controls = trajectory.controls
    first = (_groups.pairs if _groups is not None else row_groups(controls, v_seq))[0]
    for i in first.tolist():
        cert = _per_row(problem.control_set, adjacent_cone_member,
                        controls[i], v_seq[i], with_oracle=False)
        if not cert.member:
            raise ConeViolation(
                f"direction leaves the control tangent cone in cell {i} "
                f"(margin {cert.margin:.3e})", node=i)
    if start_vector is None:
        start_vector = np.zeros(problem.state_dim)
    iterates = yield _variational_chain(problem, trajectory, v_seq, start_vector)
    return integrate_variational(problem, trajectory, v_seq, start_vector,
                                 _iterates=iterates)


def critical_sets(problem: ControlProblem, trajectory: Trajectory,
                  direction: SingularDirection,
                  act_tol: float = ACTIVITY_TOL) -> IndexSets:
    """Split the rows into relaxed/critical along a verified direction.

    A row is relaxed if it is inactive or if its first-order rate along the
    direction is below -act_tol; the other rows are critical. Multipliers
    entering the second-order test must vanish on relaxed rows.
    """
    return relax(active_sets(problem, trajectory, act_tol),
                 direction.endpoint_rates, act_tol)


# ----------------------------------------------------------------------------
# multiplier cone
# ----------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _MultiplierJet:
    """The trajectory's derivative data and everything linear in the
    multiplier, one trailing column per multiplier slot.

    Column s holds the quantity for the unit multiplier e_s, so the value
    for a multiplier w is the contraction with w. ``adjoint`` is (N+1, n,
    dim); ``endpoint`` holds the LagrangeData of each unit slot. The
    adjoint at both sides of every cell, ``adjoint_sides`` (n, dim, 2, N),
    and the Hamiltonian control gradient there, ``hu_sides``
    (m, dim, 2, N), are node-innermost like the per-side arrays of
    ``TrajectoryJet``; ``hu`` holds the gradient's values as the
    C-contiguous (2, N, m, dim) array that ``_generator_rows`` multiplies.
    """

    jet: TrajectoryJet
    adjoint: np.ndarray
    endpoint: tuple
    adjoint_sides: np.ndarray
    hu_sides: np.ndarray
    hu: np.ndarray


@_stackable
def _multiplier_jet(problem: ControlProblem, trajectory: Trajectory) -> _MultiplierJet:
    """Build the derivative data once and the adjoint of every unit
    multiplier slot in one backward pass, from the slots' endpoint
    gradients. Its steps yield that pass's chain before building the jet,
    so a stacked run holds no point's jet while it waits for the others."""
    slots = np.eye(problem.multiplier_dim)
    y0, yT = trajectory.states[0], trajectory.states[-1]
    gammas = _endpoint_christoffel(problem, y0, yT)
    endpoint = tuple(lagrange_data(problem, y0, yT, e, _gammas=gammas) for e in slots)
    iterates = yield _adjoint_chain(
        problem, trajectory, np.stack([d.grad_end for d in endpoint], axis=-1))
    jet = trajectory_jet(problem, trajectory)
    adjoint = integrate_adjoint(problem, trajectory, slots, _iterates=iterates).values
    adjoint_sides = _at_sides(np.moveaxis(adjoint, 0, -1))
    hu_sides = _adjoint_pairing(jet.fu, adjoint_sides)
    return _MultiplierJet(jet=jet, adjoint=adjoint, endpoint=endpoint,
                          adjoint_sides=adjoint_sides, hu_sides=hu_sides,
                          hu=_node_leading(hu_sides))


def _adjoint_pairing(vectors: np.ndarray, at_sides: np.ndarray) -> np.ndarray:
    """Pair node-innermost per-side vectors (n, ..., 2, N) with the adjoint
    columns at the sides' nodes (n, dim, 2, N): (..., dim, 2, N), the
    products over the state index added in index order for every side and
    cell at once."""
    return _sum_over((vectors[k][..., None, :, :], at_sides[k])
                     for k in range(len(vectors)))


def _direction_pairing(directions: np.ndarray, hu: np.ndarray) -> np.ndarray:
    """Pair control rows (..., N, m) with the node-innermost Hamiltonian
    control gradient hu (m, dim, 2, N): (..., dim, 2, N), the products over
    the control index added in index order."""
    rows = np.moveaxis(directions, -1, 0)[..., None, None, :]   # (m, ..., 1, 1, N)
    return _sum_over((rows[a], hu[a]) for a in range(len(hu)))


def _multiplier_cone_rows(problem: ControlProblem, trajectory: Trajectory,
                          mjet: _MultiplierJet, *, act_tol: float,
                          extra_zero_rows=(), sets: IndexSets | None = None,
                          groups: _RowGroups | None = None):
    """H-representation of the admissible multiplier cone.

    Rows express, linearly in the multiplier: (a) the sign pattern on
    active rows and vanishing on inactive rows, (b) the start-boundary
    identity (adjoint at 0 equals minus the start gradient of the weighted
    endpoint aggregate), and (c) non-positivity of the Hamiltonian control
    gradient on the tangent-cone generators of the control set at every
    cell endpoint. Lineality directions of a node cone give equality rows
    (the gradient must vanish on two-sided directions). ``sets`` and
    ``groups`` hold the trajectory's ``active_sets`` and ``_verdict_groups``
    when the caller has them.
    """
    dim = problem.multiplier_dim
    if sets is None:
        sets = active_sets(problem, trajectory, act_tol)
    # start-boundary identity: one equality row per state coordinate
    grad_start = np.stack([d.grad_start for d in mjet.endpoint], axis=1)
    # control-gradient rows at every cell endpoint, on the node-cone generators
    first, inverse = (groups.controls if groups is not None
                      else row_groups(trajectory.controls))
    reps = [_per_row(problem.control_set, tangent_cone_vrep, trajectory.controls[i])
            for i in first.tolist()]
    eq_gradients = _generator_rows([rep.lineality for rep in reps], inverse, mjet.hu)
    ineq_gradients = _generator_rows([rep.rays for rep in reps], inverse, mjet.hu)
    return (clean_rows(np.concatenate([unit_rows(sets.active, dim),
                                       ineq_gradients]), dim),
            clean_rows(np.concatenate([unit_rows(sets.inactive, dim),
                                       unit_rows(extra_zero_rows, dim),
                                       mjet.adjoint[0] + grad_start,  # (n, dim)
                                       eq_gradients]), dim))


def _generator_rows(gens, inverse: np.ndarray, hu: np.ndarray) -> np.ndarray:
    """The rows w @ hu of every cell, in cell order and per cell L then R
    for each generator w of the cell's group (``gens[inverse[cell]]``);
    ``hu`` is (2, N, m, dim). Each row is the same vector-matrix product
    as in a per-cell loop, formed for all cells at once."""
    counts = np.array([g.shape[0] for g in gens], int)
    padded = np.zeros((len(gens), counts.max(initial=0), hu.shape[2]))
    for g, group_gens in enumerate(gens):
        padded[g, :counts[g]] = group_gens
    # (N, k, 1, 1, m) @ (N, 1, 2, m, dim): one (1, m) @ (m, dim) per row
    rows = padded[inverse][:, :, None, None, :] @ np.moveaxis(hu, 0, 1)[:, None]
    keep = np.arange(padded.shape[1]) < counts[inverse][:, None]       # (N, k)
    return rows[:, :, :, 0][keep].reshape(-1, hu.shape[-1])


def find_first_order_multipliers(problem: ControlProblem, trajectory: Trajectory,
                                 *, act_tol: float = ACTIVITY_TOL,
                                 restrict_zero=(),
                                 _jet: _MultiplierJet | None = None,
                                 _sets: IndexSets | None = None,
                                 _groups: _RowGroups | None = None
                                 ) -> list[MultiplierVector]:
    """Enumerate the extreme rays of the admissible multiplier cone.

    Returns |.|_inf-normalized representatives: the extreme rays plus a +/-
    pair per lineality direction (two-sided freedoms, flagged). An empty
    list means no nonzero multiplier satisfies the discretized first-order
    conditions. ``restrict_zero`` forces additional rows' weights to zero
    (used for the direction-restricted second-order cone). ``_jet``,
    ``_sets`` and ``_groups`` are the trajectory's ``_multiplier_jet``,
    ``active_sets`` and ``_verdict_groups`` when the caller has them.
    """
    mjet = _jet if _jet is not None else _multiplier_jet(problem, trajectory)
    A_le, A_eq = _multiplier_cone_rows(problem, trajectory, mjet,
                                       act_tol=act_tol,
                                       extra_zero_rows=restrict_zero,
                                       sets=_sets, groups=_groups)
    return enumerate_normalized_rays(A_le, A_eq, problem.multiplier_dim)


def _stationarity(mjet: _MultiplierJet, direction: SingularDirection,
                  W: np.ndarray) -> np.ndarray:
    """Per column of W (dim, R): the largest |hu paired with v| over both
    sides of every cell."""
    paired = _node_leading(_direction_pairing(direction.control_directions,
                                              mjet.hu_sides))
    return np.max(np.abs(paired @ W), axis=(0, 1))


# ----------------------------------------------------------------------------
# second-order form
# ----------------------------------------------------------------------------

def _check_sigma_membership(problem: ControlProblem, trajectory: Trajectory,
                            v_seq: np.ndarray, sigma: np.ndarray):
    U = problem.control_set
    controls = trajectory.controls
    for i in row_groups(controls, v_seq, sigma)[0].tolist():
        cert = _per_row(U, second_adjacent_member, controls[i], v_seq[i],
                        sigma[i], with_oracle=False)
        if not cert.member:
            raise SigmaNotInB(
                f"acceleration candidate leaves the second-order admissible "
                f"set in cell {i} (margin {cert.margin:.3e})", node=i)


def _check_quadratic_bound(problem: ControlProblem, trajectory: Trajectory,
                           v_seq: np.ndarray, eps0: float,
                           groups: _RowGroups | None = None):
    bound = quadratic_distance_bound(problem.control_set, trajectory.controls,
                                     v_seq, eps0, _groups=groups)
    if not bound.passed:
        raise BoundNotVerified(
            "the node-wise quadratic distance bound for (control, direction) "
            "diverges; the expansion hypothesis cannot be certified")
    return bound


def _form_coefficients(mjet: _MultiplierJet, direction: SingularDirection,
                       sigmas) -> tuple:
    """The second-order form as coefficients over the multiplier slots.

    Returns (sigma, terms): ``sigma`` (S, dim) holds the sigma_integral
    coefficients of each acceleration candidate, ``terms`` maps every other
    summand name to its (dim,) coefficients. The value for a multiplier w
    is the coefficients contracted with w.

    The integrands are the control gradient paired with each candidate
    (``_direction_pairing``) and each of the jet's form integrands paired
    with the adjoint at its side's node (``_adjoint_pairing``), for every
    side and cell at once, node-innermost, before the cellwise trapezoid
    rule, which gets them as (2, N, dim) arrays.
    """
    grid = mjet.jet.trajectory.grid
    X = direction.field.values
    v = direction.control_directions

    def integral(paired):                                      # (dim, 2, N)
        paired = _node_leading(paired)
        return trapezoid_cellwise(grid, paired[0], paired[1])

    by_sigma = _direction_pairing(np.stack(sigmas), mjet.hu_sides)  # (S, dim, 2, N)
    sigma = np.array([integral(p) for p in by_sigma]).reshape(len(sigmas), -1)
    terms = {name: integral(_adjoint_pairing(vec, mjet.adjoint_sides))
             for name, vec in mjet.jet.form_integrands(X, v).items()}
    X0, XT = X[0], X[-1]
    terms["start_start"] = np.array([0.5 * X0 @ d.hess_start_start @ X0
                                     for d in mjet.endpoint])
    terms["start_end"] = np.array([X0 @ d.hess_start_end @ XT
                                   for d in mjet.endpoint])
    terms["end_end"] = np.array([0.5 * XT @ d.hess_end_end @ XT
                                 for d in mjet.endpoint])
    return sigma, terms


def _form_values(sigma: np.ndarray, terms: dict, W: np.ndarray) -> tuple:
    """Contract form coefficients with the multiplier columns of W (dim, R).

    Returns (lhs, values): ``values`` maps every summand name to its values,
    (S, R) for sigma_integral and (R,) for the rest; ``lhs`` (S, R) adds
    them in the order of LHS_TERM_NAMES, so it equals the sum of the
    per-term values exactly.
    """
    values = {"sigma_integral": sigma @ W}
    values.update((name, c @ W) for name, c in terms.items())
    lhs = values["sigma_integral"]
    for name in LHS_TERM_NAMES[1:]:
        lhs = lhs + values[name]
    return lhs, values


def _terms_at(values: dict, candidate: int, ray: int) -> dict:
    """The named summands for one (acceleration candidate, ray) pair."""
    out = {"sigma_integral": float(values["sigma_integral"][candidate, ray])}
    out.update((name, float(values[name][ray])) for name in LHS_TERM_NAMES[1:])
    return out


# ----------------------------------------------------------------------------
# refutation search
# ----------------------------------------------------------------------------

def default_sigma_candidates(control_set, controls, directions, *,
                             _groups: _RowGroups | None = None) -> list[np.ndarray]:
    """Acceleration candidates from the second-order admissible set geometry.

    Per cell the set is an affine shift of a polyhedral cone; candidates are
    the shift itself and the shift pushed along each recession generator
    (including both signs of two-sided directions) when the generator
    pattern is uniform across cells. ``_groups`` are the ``_RowGroups`` of
    the controls and directions when the caller has them.
    """
    controls = np.asarray(controls, float)
    directions = np.asarray(directions, float)
    first, inverse = (_groups.pairs if _groups is not None
                      else row_groups(controls, directions))
    reps = [_per_row(control_set, second_cone_vrep, controls[i], directions[i])
            for i in first.tolist()]
    base = np.zeros_like(controls)
    if reps:
        base[:] = np.array([shift for shift, _ in reps])[inverse]
    candidates = [base]
    for step in _uniform_generators([rep.rays for _, rep in reps], inverse):
        candidates.append(base + step)
    for step in _uniform_generators([rep.lineality for _, rep in reps], inverse):
        candidates.append(base + step)
        candidates.append(base - step)
    return candidates


def _uniform_generators(gens, inverse) -> list:
    """Per j, the j-th generator of every cell's group, (N, m); none when
    the groups' generator counts differ."""
    if len({g.shape[0] for g in gens}) != 1:
        return []
    return [np.array([g[j] for g in gens])[inverse] for j in range(gens[0].shape[0])]


def _evaluation_scale(weights: np.ndarray) -> np.ndarray:
    """Rescale a ray to cost weight -1 when it has one (reported convention)."""
    if weights[0] < -1e-12:
        return weights / (-weights[0])
    return weights


def refute_optimality(problem: ControlProblem, trajectory: Trajectory,
                      direction: SingularDirection, sigma_candidates=None,
                      w_candidates=None, *, multipliers=None,
                      margin: float = REFUTATION_MARGIN,
                      act_tol: float = ACTIVITY_TOL,
                      stationarity_tol: float = STATIONARITY_TOL,
                      eps0: float = 0.1,
                      _jet: _MultiplierJet | None = None,
                      _sets: IndexSets | None = None,
                      _groups: _RowGroups | None = None) -> RefutationCertificate:
    """Search for an acceleration making the second-order form positive
    against every admissible multiplier of the direction-restricted cone.

    Raises NoMultiplier when the restricted cone is trivial — the discrete
    necessary condition then fails already at first order and the caller
    should report non-optimality on that basis. ``_jet`` is the
    ``_multiplier_jet`` of the trajectory when the caller has built it in a
    stacked run, and ``_sets`` and ``_groups`` its ``active_sets`` and the
    direction's ``_verdict_groups`` when the caller has them; the groups are
    otherwise formed once here for every per-cell routine of the search.
    A stationarity residual that is not finite makes the verdict
    inconclusive. An acceleration candidate whose form value against some
    ray is not finite gets a note; the max-min decides as before.
    """
    notes: list[str] = []
    if _sets is None:
        _sets = active_sets(problem, trajectory, act_tol)
    sets = relax(_sets, direction.endpoint_rates, act_tol)   # critical_sets
    mjet = _jet if _jet is not None else _multiplier_jet(problem, trajectory)
    if _groups is None:
        _groups = _verdict_groups(trajectory, direction.control_directions)
    if multipliers is None:
        rays = find_first_order_multipliers(problem, trajectory,
                                            act_tol=act_tol,
                                            restrict_zero=sets.relaxed,
                                            _jet=mjet, _sets=sets,
                                            _groups=_groups)
        if not rays:
            unrestricted = find_first_order_multipliers(problem, trajectory,
                                                        act_tol=act_tol,
                                                        _jet=mjet, _sets=sets,
                                                        _groups=_groups)
            if unrestricted:
                raise NoMultiplier(
                    "no first-order multiplier survives the restriction to "
                    "the direction-critical rows; the second-order necessary "
                    "condition fails at the discrete level")
            raise NoMultiplier(
                "the first-order multiplier cone is trivial; the necessary "
                "condition fails at the discrete level")
    else:
        rays = [m if isinstance(m, MultiplierVector)
                else MultiplierVector(weights=inf_normalize(np.asarray(m, float)))
                for m in multipliers]
        if not rays:
            raise NoMultiplier("an empty multiplier list was supplied")
    tolerances = {"margin": margin, "act_tol": act_tol,
                  "stationarity_tol": stationarity_tol, "eps0": eps0,
                  "row_tol": direction.row_tol}
    if len(rays) > RAY_BUDGET:
        return RefutationCertificate(
            verdict="inconclusive", multipliers=tuple(rays),
            sigma_candidates=(), w_candidates=(),
            lhs=np.zeros((0, len(rays))), chosen=None,
            chosen_lhs=math.nan, chosen_terms=None, margin=margin,
            stationarity=(), index_sets=sets, tolerances=tolerances,
            notes=(f"multiplier cone has {len(rays)} generators, above the "
                   f"ray budget {RAY_BUDGET}; refusing a verdict",))
    if any(r.from_lineality for r in rays):
        notes.append("multiplier cone has two-sided directions; a uniformly "
                     "positive quadratic form over all of them is impossible")
    v_seq = direction.control_directions
    if sigma_candidates is None:
        sigma_candidates = default_sigma_candidates(problem.control_set,
                                                    trajectory.controls, v_seq,
                                                    _groups=_groups)
    sigmas = [np.asarray(s, float) for s in sigma_candidates]
    ws = ([np.zeros(problem.state_dim)] if w_candidates is None
          else [np.asarray(w, float) for w in w_candidates])
    _check_quadratic_bound(problem, trajectory, v_seq, eps0, _groups)
    for s in sigmas:
        if s.shape != v_seq.shape:
            raise ValueError("every acceleration candidate must match the "
                             "direction shape")
        _check_sigma_membership(problem, trajectory, v_seq, s)

    W = np.stack([_evaluation_scale(ray.weights) for ray in rays], axis=1)
    stationarity = tuple(float(res) for res in _stationarity(mjet, direction, W))
    stationary = True
    for ray, res in zip(rays, stationarity):
        label = np.round(ray.weights, 6).tolist()
        if not math.isfinite(res):
            stationary = False
            notes.append(f"stationarity residual {res!r} for ray {label} is "
                         f"not finite; no verdict")
        elif res > stationarity_tol:
            notes.append(f"stationarity residual {res:.3e} for ray {label} "
                         f"exceeds {stationarity_tol:g}")
    per_sigma, values = _form_values(
        *_form_coefficients(mjet, direction, sigmas), W)   # (S, num_rays)
    for c, row in enumerate(per_sigma):
        bad = np.flatnonzero(~np.isfinite(row))
        if bad.size:
            label = np.round(rays[bad[0]].weights, 6).tolist()
            notes.append(f"form value {float(row[bad[0]])!r} of acceleration "
                         f"candidate {c} against ray {label} is not finite "
                         f"({bad.size} of {row.size} rays)")
    lhs = np.repeat(per_sigma, len(ws), axis=0)             # W slot is inert
    worst = lhs.min(axis=1)
    best_idx = int(np.argmax(worst))
    best = float(worst[best_idx])
    if not (math.isfinite(best) and math.isfinite(margin)):
        verdict = "inconclusive"
        notes.append(f"best worst-case value {best!r} or refutation margin "
                     f"{margin!r} is not finite; no verdict")
    elif best > 10.0 * margin:
        verdict = "refuted"
    elif best > margin:
        verdict = "inconclusive"
        notes.append(f"best worst-case value {best:.3e} lies within 10x the "
                     f"refutation margin {margin:g}; downgraded")
    else:
        verdict = "consistent"
    if not stationary:
        verdict = "inconclusive"
    chosen = (best_idx // len(ws), best_idx % len(ws))
    worst_ray = int(np.argmin(lhs[best_idx]))
    chosen_terms = _terms_at(values, chosen[0], worst_ray)
    return RefutationCertificate(
        verdict=verdict, multipliers=tuple(rays),
        sigma_candidates=tuple(sigmas), w_candidates=tuple(ws),
        lhs=lhs, chosen=chosen, chosen_lhs=best, chosen_terms=chosen_terms,
        margin=margin, stationarity=stationarity, index_sets=sets,
        tolerances=tolerances, notes=tuple(notes))


# ----------------------------------------------------------------------------
# integral-cost augmentation
# ----------------------------------------------------------------------------

def mayer_augment(chart, horizon: float, dynamics_texts, running_cost_text: str,
                  start_point, end_point, control_dim: int, control_set=None, *,
                  validate: bool = True, label: str = "augmented",
                  params=None) -> ControlProblem:
    """Rewrite an integral-cost, fixed-endpoint problem as an endpoint-cost one.

    Appends an accumulator state whose rate is the running cost; the cost
    becomes the accumulator's terminal value and the fixed endpoints become
    equality rows (start pins, end pins, accumulator-start pin — 2n+1 rows
    in that order), each an expression map with exact derivatives.
    Dynamics and running cost are expressions in
    t, y1..yn, u1..um and the names of ``params`` (a name -> value mapping,
    compiled as arguments; ``rebind_problem`` moves the result to other
    values).
    """
    n = chart.dim
    start = np.asarray(start_point, float)
    end = np.asarray(end_point, float)
    if start.shape != (n,) or end.shape != (n,):
        raise ValueError("start/end points must have the chart dimension")
    if not valid_point(chart, start):
        raise ChartEscape("the start point lies outside the chart domain")
    if not valid_point(chart, end):
        raise ChartEscape("the target endpoint lies outside the chart domain")
    texts = tuple(dynamics_texts)
    if len(texts) != n:
        raise ValueError(f"expected {n} dynamics expressions, got {len(texts)}")
    aug_chart = product_chart(chart, euclidean(1))
    dynamics = dynamics_from_expressions(texts + (running_cost_text,), n + 1,
                                         control_dim, label=f"{label}-dynamics",
                                         params=params)

    def pin(text, name):
        return endpoint_from_expressions(text, n + 1, label=name)

    cost = pin(f"yT{n + 1}", "accumulated-cost")
    equalities = [pin(f"y0{i + 1} - {c!r}", f"start-pin-{i + 1}")
                  for i, c in enumerate(start.tolist())]
    equalities += [pin(f"yT{i + 1} - {c!r}", f"end-pin-{i + 1}")
                   for i, c in enumerate(end.tolist())]
    equalities.append(pin(f"y0{n + 1}", "accumulator-start"))
    probe = np.concatenate([start, [0.0]])
    return make_problem(aug_chart, horizon, dynamics, cost,
                        inequality_maps=(), equality_maps=tuple(equalities),
                        control_set=control_set, validate=validate,
                        probe_base=probe)
