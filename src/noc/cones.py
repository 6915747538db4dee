"""Convex control-set geometry: projections, adjacent cones, lifts.

Four set variants (ball, box, polyhedron, product) with exact Euclidean
projections, analytic first/second-order adjacent-cone membership with signed
margins, a sequence-based oracle over an h-ladder, V-representations of the
cones (used to build multiplier inequalities and to pick candidate
directions), the quadratic distance bound, and the ε-lift of pointwise
second-order elements to admissible controls.

Conventions: a certificate's margin is positive on the member side and
negative on the non-member side, normalized so it is comparable to the
oracle's limiting residual. Activity detection uses an absolute tolerance
of 1e-9; set-membership preconditions use 1e-10.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import BoundViolated, DirectionNotInCone, PointNotInSet
from .polyhedral import ConeVRep, extreme_rays, linear_program

__all__ = [
    "Ball",
    "Box",
    "Polyhedron",
    "ProductSet",
    "ConeElementCertificate",
    "QuadraticBoundResult",
    "set_dim",
    "dist_and_project",
    "contains",
    "adjacent_cone_member",
    "second_adjacent_member",
    "cone_oracle",
    "oracle_verdict",
    "tangent_cone_vrep",
    "second_cone_vrep",
    "quadratic_distance_bound",
    "lift_sigma",
    "row_groups",
]

ACT_TOL = 1e-9          # constraint-activity detection
MEMBER_TOL = 1e-10      # "u in U" preconditions
ORACLE_TOL = 1e-3       # verdict threshold at the smallest ladder step
DEFAULT_LADDER = tuple(np.geomspace(1e-1, 1e-4, 12))


# ----------------------------------------------------------------------------
# set variants
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class _ConvexSet:
    """Base of the set variants: ``_memo`` holds the results of the
    per-row cone work done at this set (``_per_row``), for as long as the
    set lives. It takes no part in comparison, hashing or repr."""

    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)


@dataclass(frozen=True)
class Ball(_ConvexSet):
    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if not all(map(math.isfinite, self.center)):
            raise ValueError("ball center must be finite")
        if not math.isfinite(self.radius):
            raise ValueError("ball radius must be finite")
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")


@dataclass(frozen=True)
class Box(_ConvexSet):
    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = tuple(float(x) for x in self.lower)
        hi = tuple(float(x) for x in self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if len(lo) != len(hi):
            raise ValueError("box bounds must have equal length")
        for a, b in zip(lo, hi):
            if not a <= b:
                raise ValueError(f"box has empty side: lower {a} > upper {b}")


@dataclass(frozen=True)
class Polyhedron(_ConvexSet):
    A: tuple          # q x m rows, meaning A x <= b
    b: tuple

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, float))
        b = np.asarray(self.b, float).ravel()
        if A.shape[0] != b.size:
            raise ValueError("polyhedron row count mismatch")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("polyhedron rows must be finite")
        object.__setattr__(self, "A", tuple(tuple(row) for row in A))
        object.__setattr__(self, "b", tuple(b))
        if linear_program(np.zeros(A.shape[1]), A, b)[0] == "empty":
            raise ValueError("polyhedron is empty")


@dataclass(frozen=True)
class ProductSet(_ConvexSet):
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("product of no sets")


def set_dim(U) -> int:
    if isinstance(U, Ball):
        return len(U.center)
    if isinstance(U, Box):
        return len(U.lower)
    if isinstance(U, Polyhedron):
        return len(U.A[0])
    if isinstance(U, ProductSet):
        return sum(set_dim(f) for f in U.factors)
    raise TypeError(f"not a convex set: {U!r}")


def _product_slices(U: ProductSet) -> list[slice]:
    out, start = [], 0
    for f in U.factors:
        d = set_dim(f)
        out.append(slice(start, start + d))
        start += d
    return out


# ----------------------------------------------------------------------------
# distance and projection
# ----------------------------------------------------------------------------

def dist_and_project(U, u) -> tuple[float, np.ndarray]:
    u = np.asarray(u, float)
    if isinstance(U, Ball):
        c = np.asarray(U.center)
        d = u - c
        nd = float(np.linalg.norm(d))
        if nd <= U.radius:
            return 0.0, u.copy()
        proj = c + d * (U.radius / nd)
        return nd - U.radius, proj
    if isinstance(U, Box):
        proj = np.clip(u, U.lower, U.upper)
        return float(np.linalg.norm(u - proj)), proj
    if isinstance(U, Polyhedron):
        return _project_polyhedron(U, u)
    if isinstance(U, ProductSet):
        proj = np.empty_like(u)
        total = 0.0
        for f, s in zip(U.factors, _product_slices(U)):
            d, p = dist_and_project(f, u[s])
            proj[s] = p
            total += d * d
        return math.sqrt(total), proj
    raise TypeError(f"not a convex set: {U!r}")


def _project_polyhedron(U: Polyhedron, u: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact projection by KKT active-set enumeration (small row counts)."""
    A = np.asarray(U.A, float)
    b = np.asarray(U.b, float)
    q, m = A.shape
    viol = A @ u - b
    if viol.max(initial=-1.0) <= 1e-12 * (1.0 + np.abs(b).max(initial=0.0)):
        return 0.0, u.copy()
    if q > 14:
        raise ValueError("polyhedron projection supports at most 14 rows")
    tol = 1e-9 * (1.0 + np.abs(b).max(initial=0.0))
    # candidate active sets, smallest first; the projection KKT point is unique
    for size in range(1, min(q, m) + 1):
        for S in itertools.combinations(range(q), size):
            As = A[list(S)]
            # x = u - As^T λ with As x = b_S  =>  (As As^T) λ = As u - b_S
            G = As @ As.T
            try:
                lam = np.linalg.solve(G, As @ u - b[list(S)])
            except np.linalg.LinAlgError:
                continue
            if lam.min() < -1e-10:
                continue
            x = u - As.T @ lam
            if (A @ x - b).max() <= tol:
                return float(np.linalg.norm(u - x)), x
    raise RuntimeError("polyhedron projection failed to locate an active set")


def contains(U, u, tol: float = MEMBER_TOL) -> bool:
    d, _ = dist_and_project(U, u)
    return d <= tol


def _require_member(U, u):
    d, _ = dist_and_project(U, u)
    if d > MEMBER_TOL:
        raise PointNotInSet(f"point {np.asarray(u).tolist()} is outside the set (dist {d:.3e})")


# ----------------------------------------------------------------------------
# active-constraint structure (rows of the local H-representations)
# ----------------------------------------------------------------------------

def _active_rows(U, u) -> tuple[np.ndarray, list[float]]:
    """Outward normals of constraints active at u, plus inactive slacks.

    Returns (rows, slacks): rows is a (k, m) array with unit-normalized
    outward normals a such that the tangent cone is {v : a·v <= 0 for all a};
    slacks lists the distances-to-activation of the inactive constraints
    (used only for margin bookkeeping).
    """
    u = np.asarray(u, float)
    if isinstance(U, Ball):
        c = np.asarray(U.center)
        d = u - c
        nd = float(np.linalg.norm(d))
        gap = U.radius - nd
        if gap <= ACT_TOL:
            return (d / max(nd, 1e-300))[None, :], []
        return np.zeros((0, u.size)), [gap]
    if isinstance(U, Box):
        rows, slacks = [], []
        for i in range(u.size):
            lo, hi = U.lower[i], U.upper[i]
            e = np.zeros(u.size)
            if u[i] - lo <= ACT_TOL:
                e[i] = -1.0
                rows.append(e.copy())
            elif math.isfinite(lo):
                slacks.append(u[i] - lo)
            e = np.zeros(u.size)
            if hi - u[i] <= ACT_TOL:
                e[i] = 1.0
                rows.append(e.copy())
            elif math.isfinite(hi):
                slacks.append(hi - u[i])
        return (np.array(rows) if rows else np.zeros((0, u.size))), slacks
    if isinstance(U, Polyhedron):
        A = np.asarray(U.A, float)
        b = np.asarray(U.b, float)
        rows, slacks = [], []
        for a, bi in zip(A, b):
            na = np.linalg.norm(a)
            if na < 1e-300:
                continue
            slack = (bi - a @ u) / na
            if slack <= ACT_TOL:
                rows.append(a / na)
            else:
                slacks.append(float(slack))
        return (np.array(rows) if rows else np.zeros((0, u.size))), slacks
    if isinstance(U, ProductSet):
        all_rows, all_slacks = [], []
        m = set_dim(U)
        for f, s in zip(U.factors, _product_slices(U)):
            rows, slacks = _active_rows(f, u[s])
            for r in rows:
                big = np.zeros(m)
                big[s] = r
                all_rows.append(big)
            all_slacks.extend(slacks)
        return (np.array(all_rows) if all_rows else np.zeros((0, m))), all_slacks
    raise TypeError(f"not a convex set: {U!r}")


# ----------------------------------------------------------------------------
# certificates
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeElementCertificate:
    point: tuple
    direction: tuple            # v for order 1; (v, w) flattened handled by caller
    order: int
    verdict: str                # "member" | "non-member"
    margin: float               # signed analytic slack, > 0 on the member side
    oracle_residuals: tuple = field(default_factory=tuple)  # ((h, residual), ...)

    @property
    def member(self) -> bool:
        return self.verdict == "member"


def adjacent_cone_member(U, u, v, with_oracle: bool = True) -> ConeElementCertificate:
    """First-order adjacent-cone membership of v at u, with signed margin."""
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    _require_member(U, u)
    rows, slacks = _active_rows(U, u)
    denom = max(1.0, float(np.linalg.norm(v)))
    margins = [s / denom for s in slacks]
    for a in rows:
        margins.append(float(-(a @ v)) / denom)
    margin = min(margins) if margins else math.inf
    verdict = "member" if (not rows.size or (rows @ v).max() <= 1e-12 * denom) else "non-member"
    residuals = cone_oracle(U, u, v) if with_oracle else ()
    return ConeElementCertificate(point=tuple(u), direction=tuple(v), order=1,
                                  verdict=verdict, margin=margin,
                                  oracle_residuals=tuple(residuals))


def _binding_structure(U, u, v):
    """Split active constraints by their first-order slack along v.

    Returns (binding_rows, margins, ok) where binding_rows are active
    normals with a·v = 0 (second-order relevant), margins collects the
    robustness margins contributed by strictly-inactive-along-v rows, and
    ok=False means some active row has a·v > 0 (v not in the cone).
    """
    rows, slacks = _active_rows(U, u)
    denom_v = max(1.0, float(np.linalg.norm(v)))
    binding = []
    margins = [s / denom_v for s in slacks]
    for a in rows:
        s = float(a @ v)
        if s > 1e-12 * denom_v:
            return None, None, False
        if s >= -ACT_TOL * denom_v:
            binding.append(a)
        else:
            margins.append(-s / denom_v)
    return binding, margins, True


def second_adjacent_member(U, u, v, w, with_oracle: bool = True) -> ConeElementCertificate:
    """Second-order adjacent-set membership of w at (u, v)."""
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    w = np.asarray(w, float)
    _require_member(U, u)
    binding, margins, ok = _binding_structure(U, u, v)
    if not ok:
        raise DirectionNotInCone(
            f"direction {v.tolist()} is not in the adjacent cone at {u.tolist()}")
    denom_w = max(1.0, float(np.linalg.norm(w)))
    margins2, verdict = _second_margins(U, u, v, w, binding, denom_w)
    margins += margins2
    margin = min(margins) if margins else math.inf
    residuals = cone_oracle(U, u, v, w) if with_oracle else ()
    return ConeElementCertificate(point=tuple(u), direction=tuple(np.concatenate([v, w])),
                                  order=2, verdict=verdict, margin=margin,
                                  oracle_residuals=tuple(residuals))


def _second_margins(U, u, v, w, binding, denom_w):
    """Second-order margins of w at (u, v) and the verdict, as (margins,
    verdict): a binding row a of a Box or Polyhedron constrains w linearly
    (a·w <= 0), a Ball's sphere by w·(u - c) + |v|²/2 <= 0, and a product
    factor by factor."""
    margins = []
    ok = True
    if isinstance(U, Ball):
        if binding:
            c = np.asarray(U.center)
            d = u - c  # |d| = radius at the boundary
            lhs = float(w @ d) + 0.5 * float(v @ v)
            m = -lhs / (U.radius * denom_w)
            margins.append(m)
            if lhs > 1e-12 * (1.0 + denom_w):
                ok = False
        return margins, ("member" if ok else "non-member")
    if isinstance(U, Box) or isinstance(U, Polyhedron):
        for a in binding:
            margins.append(float(-(a @ w)) / denom_w)
            if float(a @ w) > 1e-12 * denom_w:
                ok = False
        return margins, ("member" if ok else "non-member")
    if isinstance(U, ProductSet):
        for f, s in zip(U.factors, _product_slices(U)):
            sub_binding, sub_margins, sub_ok = _binding_structure(f, u[s], v[s])
            # v already validated jointly; per-factor re-check is consistent
            ms, verdict = _second_margins(f, u[s], v[s], w[s], sub_binding, denom_w)
            margins.extend(ms)
            margins.extend(sub_margins)
            if verdict == "non-member":
                ok = False
        return margins, ("member" if ok else "non-member")
    raise TypeError(f"not a convex set: {U!r}")


def cone_oracle(U, u, v, w=None, hs=None) -> tuple:
    """Residual ladder for the sequence characterizations.

    Order 1: dist(u + h v)/h per h. Order 2: dist(u + h v + h² w)/h² per h.
    """
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    hs = DEFAULT_LADDER if hs is None else tuple(float(h) for h in hs)
    out = []
    if w is None:
        for h in hs:
            d, _ = dist_and_project(U, u + h * v)
            out.append((h, d / h))
    else:
        w = np.asarray(w, float)
        for h in hs:
            d, _ = dist_and_project(U, u + h * v + h * h * w)
            out.append((h, d / (h * h)))
    return tuple(out)


def oracle_verdict(residuals) -> str:
    """member / non-member / inconclusive from a residual ladder.

    Member residuals decay geometrically along the ladder (the distance is
    o(h) resp. o(h²)); non-member residuals stabilize at a positive limit —
    possibly approaching it from above — so the discriminator is the decay
    rate over the last rungs, not monotonicity alone.
    """
    res = [r for _, r in residuals]
    if len(res) < 3:
        return "inconclusive"
    if res[-1] < 1e-12:
        return "member"
    tail = res[-3:]
    decreasing = tail[2] <= tail[1] + 1e-15 and tail[1] <= tail[0] + 1e-15
    if res[-1] < ORACLE_TOL and decreasing:
        return "member"
    stabilized = res[-1] > 0.7 * res[-3]  # two rungs of member decay would leave < 0.3x
    if res[-1] >= ORACLE_TOL and stabilized:
        return "non-member"
    return "inconclusive"


# ----------------------------------------------------------------------------
# V-representations of the cones
# ----------------------------------------------------------------------------

def tangent_cone_vrep(U, u) -> ConeVRep:
    """V-representation (lineality + extreme rays) of the adjacent cone at u."""
    u = np.asarray(u, float)
    _require_member(U, u)
    m = u.size
    rows, _ = _active_rows(U, u)
    if rows.size == 0:
        return ConeVRep(dim=m, lineality=np.eye(m), rays=np.zeros((0, m)))
    return extreme_rays(rows, None, m)


def second_cone_vrep(U, u, v) -> tuple[np.ndarray, ConeVRep]:
    """Affine V-representation (base point + recession cone) of the
    second-order adjacent set at (u, v)."""
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    _require_member(U, u)
    m = u.size
    binding, _, ok = _binding_structure(U, u, v)
    if not ok:
        raise DirectionNotInCone(
            f"direction {v.tolist()} is not in the adjacent cone at {u.tolist()}")
    if isinstance(U, Ball):
        if not binding:
            return np.zeros(m), ConeVRep(dim=m, lineality=np.eye(m), rays=np.zeros((0, m)))
        d = u - np.asarray(U.center)
        p0 = -(0.5 * float(v @ v) / float(d @ d)) * d  # <p0, d> = -|v|^2/2
        cone = extreme_rays(d[None, :], None, m)
        return p0, cone
    if isinstance(U, (Box, Polyhedron)):
        if not binding:
            return np.zeros(m), ConeVRep(dim=m, lineality=np.eye(m), rays=np.zeros((0, m)))
        return np.zeros(m), extreme_rays(np.array(binding), None, m)
    if isinstance(U, ProductSet):
        p0 = np.zeros(m)
        lin_rows, ray_rows = [], []
        for f, s in zip(U.factors, _product_slices(U)):
            sub_p0, sub = second_cone_vrep(f, u[s], v[s])
            p0[s] = sub_p0
            for l in sub.lineality:
                big = np.zeros(m)
                big[s] = l
                lin_rows.append(big)
            for r in sub.rays:
                big = np.zeros(m)
                big[s] = r
                ray_rows.append(big)
        lin = np.array(lin_rows) if lin_rows else np.zeros((0, m))
        rays = np.array(ray_rows) if ray_rows else np.zeros((0, m))
        return p0, ConeVRep(dim=m, lineality=lin, rays=rays)
    raise TypeError(f"not a convex set: {U!r}")


# ----------------------------------------------------------------------------
# per-node routines evaluated once per distinct row
# ----------------------------------------------------------------------------

def row_groups(*arrays) -> tuple[np.ndarray, np.ndarray]:
    """Group the rows of equally long arrays by their bytes.

    Row i is the i-th rows of all ``arrays`` together; two rows share a
    group when their bytes agree, so -0.0 and 0.0 fall apart and NaNs of
    one bit pattern together. Groups are numbered in order of first
    occurrence. Returns (first, inverse): ``first[g]`` (ascending) is the
    first row of group g and ``inverse[i]`` the group of row i. A per-node
    routine evaluated at ``first`` in order therefore meets the rows in the
    order a per-node loop would first meet them, and ``values[inverse]``
    spreads its results back over the nodes.
    """
    count = len(arrays[0])
    if any(len(a) != count for a in arrays):
        raise ValueError("row_groups needs arrays with equal row counts")
    if count == 0:
        return np.zeros(0, int), np.zeros(0, int)
    rows = np.concatenate([np.asarray(a, float).reshape(count, -1) for a in arrays],
                          axis=1)
    bits = rows.view(np.int64)
    if (bits == bits[0]).all():         # the common case: one repeated row
        return np.zeros(1, int), np.zeros(count, int)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse.ravel()]


class _RowGroups(NamedTuple):
    """The ``row_groups`` of a verdict's controls and of its (control,
    direction) pairs, which its per-cell routines share."""

    controls: tuple
    pairs: tuple


def _per_row(U, routine, *rows, **options):
    """``routine(U, *rows, **options)``, computed once per set: the result
    is kept in ``U._memo`` under the routine, the bytes of ``rows`` and
    the option values, so the points of a sweep, which share the set and
    mostly its rows, compute it once between them. Kept arrays are made
    read-only. A call that raises keeps nothing, so it raises again at
    every point that meets its row, with that point's message."""
    key = (routine, b"".join(np.asarray(r, float).tobytes() for r in rows),
           tuple(options.items()))
    if key not in U._memo:
        U._memo[key] = _read_only(routine(U, *rows, **options))
    return U._memo[key]


def _read_only(value):
    """``value`` with the arrays in it, also those in a ConeVRep or a
    tuple, made read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, ConeVRep):
        _read_only((value.lineality, value.rays))
    elif isinstance(value, tuple):
        for part in value:
            _read_only(part)
    return value


# ----------------------------------------------------------------------------
# quadratic distance bound and the ε-lift
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticBoundResult:
    ell: tuple            # per-node bound values (may contain inf)
    passed: bool
    norm: float           # discrete mean-square norm of ell (inf if failed)


def quadratic_distance_bound(U, u_seq, v_seq, eps0: float, *,
                             _groups: _RowGroups | None = None) -> QuadraticBoundResult:
    """Node-wise ℓ_i = sup_{ε ≤ ε₀} dist(u_i + ε v_i)/ε², with divergence
    detection: a node whose residuals grow as ε shrinks is reported as inf.
    ``_groups`` are the sequences' ``_RowGroups`` when the caller has them."""
    u_seq = np.atleast_2d(np.asarray(u_seq, float))
    v_seq = np.atleast_2d(np.asarray(v_seq, float))
    if u_seq.shape != v_seq.shape:
        raise ValueError("u and v sequences must have equal shapes")
    if _groups is None:
        _groups = _RowGroups(row_groups(u_seq), row_groups(u_seq, v_seq))
    # nodes often repeat one (control, direction) pair: evaluate each once
    for i in _groups.controls[0].tolist():
        if not _per_row(U, contains, u_seq[i], tol=1e-9):
            raise PointNotInSet(f"grid node {i}: control outside the set")
    first, inverse = _groups.pairs
    values = [_per_row(U, _ladder_bound, u_seq[i], v_seq[i], eps0=eps0)
              for i in first.tolist()]
    ells = [values[g] for g in inverse.tolist()]
    ells_arr = np.asarray(ells)
    passed = bool(np.all(np.isfinite(ells_arr)))
    nrm = float(np.sqrt(np.mean(ells_arr ** 2))) if passed else math.inf
    return QuadraticBoundResult(ell=tuple(ells), passed=passed, norm=nrm)


def _ladder_bound(U, u, v, eps0: float) -> float:
    """One node's ℓ: the largest dist(u + ε v)/ε² over a 32-step ε ladder
    up to ε₀, or inf where the ratios grow as ε shrinks."""
    eps = np.geomspace(1e-3 * eps0, eps0, 32)
    vals = np.array([dist_and_project(U, u + e * v)[0] / (e * e) for e in eps])
    increasing_tail = vals[2] < vals[1] < vals[0]  # eps sorted ascending: vals[0] is smallest ε
    diverges = increasing_tail and vals[0] > 1.5 * vals[-1] and vals[0] > 1e-9
    return math.inf if diverges else float(vals.max())


def lift_sigma(U, u_seq, v_seq, sigma_seq, eps: float):
    """σ_ε,i = (proj_U(u_i + ε v_i + ε² σ_i) − u_i − ε v_i)/ε².

    Checks σ_i ∈ second-order adjacent set pointwise, then verifies the
    discrete norm bound ‖σ_ε‖ ≤ ‖ℓ‖ + 2‖σ‖ with ℓ from
    quadratic_distance_bound at ε₀ = ε.
    """
    u_seq = np.atleast_2d(np.asarray(u_seq, float))
    v_seq = np.atleast_2d(np.asarray(v_seq, float))
    sigma_seq = np.atleast_2d(np.asarray(sigma_seq, float))
    if not u_seq.shape == v_seq.shape == sigma_seq.shape:
        raise ValueError("u, v and sigma sequences must have equal shapes")
    first, inverse = row_groups(u_seq, v_seq, sigma_seq)
    for i in first.tolist():
        cert = second_adjacent_member(U, u_seq[i], v_seq[i], sigma_seq[i],
                                      with_oracle=False)
        if not cert.member:
            raise DirectionNotInCone(
                f"grid node {i}: sigma is not in the second-order adjacent set "
                f"(margin {cert.margin:.3e})")
    bound = quadratic_distance_bound(U, u_seq, v_seq, eps0=eps)
    if not bound.passed:
        raise BoundViolated("quadratic distance bound diverges on some node")
    lifted = np.empty((len(first), sigma_seq.shape[1]))
    for g, i in enumerate(first.tolist()):
        u, v = u_seq[i], v_seq[i]
        _, p = dist_and_project(U, u + eps * v + eps * eps * sigma_seq[i])
        lifted[g] = (p - u - eps * v) / (eps * eps)
    out = lifted[inverse]
    norm_sig_eps = float(np.sqrt(np.mean(np.sum(out ** 2, axis=1))))
    norm_sig = float(np.sqrt(np.mean(np.sum(sigma_seq ** 2, axis=1))))
    limit = bound.norm + 2.0 * norm_sig + 1e-9
    if norm_sig_eps > limit:
        raise BoundViolated(
            f"lifted controls violate the norm bound: {norm_sig_eps:.6g} > {limit:.6g}")
    return out
