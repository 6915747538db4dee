"""Polyhedral-cone computations: extreme rays, lineality, linear programs.

The central routine enumerates the extreme rays and the lineality space of a
cone given in H-representation,

    C = { x : A_eq x = 0,  A_le x <= 0 },

by the double-description method with explicit lineality tracking. Problem
sizes here are tiny (multiplier spaces of dimension 1+j+k, a handful of
endpoint constraints), so clarity beats asymptotics.

The multiplier-row algebra that the control check (``noc.conditions``)
and the finite-dimensional check (``noc.optproblem``) share lives here
too: the active/inactive and relaxed/critical row classifier, the unit
and cleaned rows of a multiplier cone, and the |.|_inf-normalized
enumeration of its rays.  Neither checker imports the other.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCone

__all__ = ["ACTIVITY_TOL", "ConeVRep", "IndexSets", "MultiplierVector",
           "clean_rows", "cone_contains", "enumerate_normalized_rays",
           "extreme_rays", "inf_normalize", "linear_program", "null_space",
           "polyhedron_bounding_box", "relax", "split_by_activity",
           "unit_rows"]

ACTIVITY_TOL = 1e-8

_ZERO = 1e-11


@dataclass(frozen=True)
class ConeVRep:
    """V-representation of a polyhedral cone: span(lineality) + cone(rays)."""

    dim: int
    lineality: np.ndarray  # (L, dim), orthonormal rows
    rays: np.ndarray       # (R, dim), unit rows, extreme modulo lineality

    @property
    def is_trivial(self) -> bool:
        return self.lineality.shape[0] == 0 and self.rays.shape[0] == 0


def null_space(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of {x : A x = 0}, one column per basis vector.

    The SVD rank rule of ``scipy.linalg.null_space``: singular values up to
    max(s) * max(M, N) * eps count as zero, computed with NumPy alone.
    """
    A = np.atleast_2d(np.asarray(A, float))
    if not np.all(np.isfinite(A)):
        raise ValueError("null_space: the matrix has non-finite entries")
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    tol = np.amax(s, initial=0.0) * np.finfo(float).eps * max(A.shape)
    return vh[int(np.sum(s > tol)):].T


def _normalize_rows(M: np.ndarray) -> np.ndarray:
    if M.size == 0:
        return M.reshape(0, M.shape[1] if M.ndim == 2 else 0)
    norms = np.linalg.norm(M, axis=1)
    keep = norms > _ZERO
    return M[keep] / norms[keep, None]


def _dedupe_rows_up_to_scale(M: np.ndarray) -> np.ndarray:
    """Drop rows that are positive multiples of an earlier row."""
    out: list[np.ndarray] = []
    for row in _normalize_rows(M):
        if not any(np.linalg.norm(row - r) < 1e-9 for r in out):
            out.append(row)
    if not out:
        return np.zeros((0, M.shape[1]))
    return np.array(out)


def _project_out(vectors: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Remove the span of (orthonormal) basis rows from each vector row."""
    if basis.shape[0] == 0 or vectors.shape[0] == 0:
        return vectors
    return vectors - (vectors @ basis.T) @ basis


def extreme_rays(A_le: np.ndarray | None, A_eq: np.ndarray | None, dim: int) -> ConeVRep:
    """Extreme rays + lineality of {x : A_eq x = 0, A_le x <= 0}.

    Classic double description with a lineality space: start from C = R^dim
    (lineality = identity, no rays) and insert halfspaces one at a time.
    """
    A_le = np.zeros((0, dim)) if A_le is None else np.atleast_2d(np.asarray(A_le, float))
    A_eq = np.zeros((0, dim)) if A_eq is None else np.atleast_2d(np.asarray(A_eq, float))

    # equalities first: restrict the lineality space to their null space
    if A_eq.shape[0]:
        lin = null_space(A_eq).T  # orthonormal rows spanning {A_eq x = 0}
    else:
        lin = np.eye(dim)
    rays = np.zeros((0, dim))

    rows = _dedupe_rows_up_to_scale(A_le)
    inserted: list[np.ndarray] = []  # halfspace normals already processed
    for a in rows:
        ray_vals = rays @ a if rays.size else np.zeros(0)
        lin_vals = lin @ a if lin.size else np.zeros(0)

        if lin.shape[0] and np.abs(lin_vals).max() > _ZERO:
            # some lineality direction crosses the halfspace: split it off.
            piv = int(np.argmax(np.abs(lin_vals)))
            w = lin[piv].copy()
            if w @ a > 0:
                w = -w  # make w strictly feasible: a·w < 0
            wa = w @ a
            # remaining lineality directions get projected into a⊥
            new_lin = []
            for i, l in enumerate(lin):
                if i == piv:
                    continue
                new_lin.append(l - ((l @ a) / wa) * w)
            lin = _normalize_rows(np.array(new_lin)) if new_lin else np.zeros((0, dim))
            # re-orthonormalize via QR for numerical stability
            if lin.shape[0]:
                q, _ = np.linalg.qr(lin.T)
                lin = q.T
            # slide existing rays along w onto the hyperplane a·x = 0; this
            # preserves all previously inserted constraints since a_prev·w = 0
            if rays.shape[0]:
                shifts = (rays @ a) / wa
                rays = rays - shifts[:, None] * w
            rays = np.vstack([rays, w[None, :]]) if rays.size else w[None, :]
            rays = _normalize_rows(rays)
        else:
            neg = ray_vals < -_ZERO
            pos = ray_vals > _ZERO
            zero = ~neg & ~pos
            if not pos.any():
                inserted.append(a)
                continue
            kept = rays[neg | zero]
            # combine adjacent (negative, positive) pairs on the hyperplane
            new_rays = []
            neg_idx = np.where(neg)[0]
            pos_idx = np.where(pos)[0]
            for ip in pos_idx:
                for im in neg_idx:
                    if not _adjacent(rays, im, ip, inserted, lin):
                        continue
                    r = ray_vals[ip] * rays[im] - ray_vals[im] * rays[ip]
                    new_rays.append(r)
            rays = np.vstack([kept] + [np.array(new_rays)]) if new_rays else kept
            rays = _dedupe_rows_up_to_scale(rays) if rays.size else rays.reshape(0, dim)
        inserted.append(a)

    # squash rays that became lineality-equivalent or zero after projection
    if rays.shape[0]:
        rays = _project_out(rays, lin)
        rays = _dedupe_rows_up_to_scale(rays)
    return ConeVRep(dim=dim, lineality=lin, rays=rays)


def _adjacent(rays: np.ndarray, i: int, j: int, inserted: list[np.ndarray],
              lin: np.ndarray) -> bool:
    """Adjacency test: the common tight set of rays i, j is not contained in
    the tight set of any third ray (standard double-description criterion)."""
    if not inserted:
        return True
    A = np.array(inserted)
    ti = np.abs(A @ rays[i]) <= 1e-9
    tj = np.abs(A @ rays[j]) <= 1e-9
    common = ti & tj
    # low-dimensional shortcut: with few rays everything is adjacent
    if rays.shape[0] <= 2:
        return True
    for k in range(rays.shape[0]):
        if k in (i, j):
            continue
        tk = np.abs(A @ rays[k]) <= 1e-9
        if np.all(tk[common]):
            return False
    return True


def cone_contains(A_le: np.ndarray | None, A_eq: np.ndarray | None,
                  x: np.ndarray, tol: float = 1e-9) -> bool:
    """Membership of x in {A_eq x = 0, A_le x <= 0} (sanity checks for DD)."""
    x = np.asarray(x, float)
    ok = True
    if A_eq is not None and np.asarray(A_eq).size:
        ok &= bool(np.abs(np.atleast_2d(A_eq) @ x).max() <= tol)
    if A_le is not None and np.asarray(A_le).size:
        ok &= bool((np.atleast_2d(A_le) @ x).max() <= tol)
    return ok


_PIVOT_TOL = 1e-12   # simplex: the least reduced cost and pivot entry that count
_EMPTY_TOL = 1e-9    # phase 1: the least violation, times max(1, |b|), that empties


def _pivot(T: np.ndarray, basis: np.ndarray, cost: np.ndarray, i: int, j: int) -> None:
    T[i] /= T[i, j]
    column = T[:, j].copy()
    column[i] = 0.0
    T -= np.outer(column, T[i])
    cost -= cost[j] * T[i]
    basis[i] = j


def _simplex(T: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> bool:
    """Pivot the feasible tableau ``T`` (last column the right-hand side)
    until no reduced cost in ``cost`` is negative; False when an entering
    column has no bounding row (the program is unbounded).  Bland's rule:
    the entering column is the smallest index with a negative reduced cost
    and, among tied ratios, the leaving row the one with the smallest basis
    index, so degenerate pivots terminate."""
    while (entering := np.flatnonzero(cost[:-1] < -_PIVOT_TOL)).size:
        j = entering[0]
        bounding = np.flatnonzero(T[:, j] > _PIVOT_TOL)
        if not bounding.size:
            return False
        ratios = np.maximum(T[bounding, -1], 0.0) / T[bounding, j]
        tied = bounding[ratios == ratios.min()]
        _pivot(T, basis, cost, tied[np.argmin(basis[tied])], j)
    return True


def linear_program(c, A, b) -> tuple[str, np.ndarray | None]:
    """min c·x over {x : A x <= b}, x free, by a dense primal simplex.

    Returns (status, x): status is "optimal" with x a minimiser, or "empty"
    or "unbounded" with x None.  With x = z+ - z-, z >= 0, and one slack per
    row, the tableau is [A, -A, I | b] on the slack basis.  When some b < 0,
    phase 1 adds one auxiliary column, -1 in every row, pivots it in on the
    most negative row and minimises it: the polyhedron is empty when its
    least value exceeds ``_EMPTY_TOL`` * max(1, |b|_inf), b as scaled below.
    """
    A = np.atleast_2d(np.asarray(A, float))
    c = np.asarray(c, float).ravel()
    m, n = A.shape
    # scale each row by the power of 2 that brings its largest entry into
    # (1/2, 1]: exact, and a row already there is left bit for bit
    mantissa, exp = np.frexp(np.abs(A).max(axis=1, initial=0.0))
    exp -= mantissa == 0.5
    A = np.ldexp(A, -exp[:, None])
    b = np.ldexp(np.asarray(b, float).ravel(), -exp)
    T = np.hstack([A, -A, np.eye(m), b[:, None]])
    basis = np.arange(2 * n, 2 * n + m)
    cost = np.concatenate([c, -c, np.zeros(m + 1)])
    if m and b.min() < 0.0:
        aux = 2 * n + m
        T = np.insert(T, aux, -1.0, axis=1)
        phase1 = np.zeros(T.shape[1])
        phase1[aux] = 1.0
        _pivot(T, basis, phase1, int(np.argmin(b)), aux)
        _simplex(T, basis, phase1)
        if -phase1[-1] > _EMPTY_TOL * max(1.0, float(np.abs(b).max())):
            return "empty", None
        if aux in basis:   # basic at level 0: pivot it out on its largest entry
            i = int(np.flatnonzero(basis == aux)[0])
            _pivot(T, basis, phase1, i, int(np.argmax(np.abs(T[i, :aux]))))
        T = np.delete(T, aux, axis=1)
        cost -= cost[basis] @ T
    if not _simplex(T, basis, cost):
        return "unbounded", None
    x = np.zeros(T.shape[1] - 1)
    x[basis] = T[:, -1]
    return "optimal", x[:n] - x[n:2 * n]


def polyhedron_bounding_box(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate min/max of {x : A x <= b} via linear programs.

    Raises ValueError if the polyhedron is empty or unbounded in some
    coordinate (brute-force search needs a finite box).
    """
    A = np.atleast_2d(np.asarray(A, float))
    dim = A.shape[1]
    lo, hi = np.empty(dim), np.empty(dim)
    for i in range(dim):
        for sign, target in ((1.0, lo), (-1.0, hi)):
            status, x = linear_program(sign * np.eye(dim)[i], A, b)
            if status != "optimal":
                raise ValueError("polyhedron is empty" if status == "empty" else
                                 f"polyhedron is unbounded along coordinate {i + 1}")
            target[i] = x[i]
    return lo, hi


# ----------------------------------------------------------------------------
# multiplier rows, shared by the control and the finite-dimensional checks
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class IndexSets:
    """Classification of the scalar rows {0, ..., j} (0 = cost): the
    endpoint rows of a control problem, or the rows of a finite-dimensional
    program.

    ``active``/``inactive`` partition the rows by constraint activity at the
    candidate (the cost row is always active). After a direction is fixed,
    ``relaxed`` collects the rows that are inactive or strictly decrease to
    first order along it; ``critical`` is the complement — the rows on
    which a second-order multiplier may carry weight.
    """

    active: frozenset
    inactive: frozenset
    relaxed: frozenset | None = None
    critical: frozenset | None = None


@dataclass(frozen=True, eq=False)
class MultiplierVector:
    """Multiplier, laid out (cost, inequalities..., equalities...).

    ``weights`` is |.|_inf-normalized. ``from_lineality`` marks vectors that
    span a sign-reversible (two-sided) direction of the multiplier cone.
    """

    weights: np.ndarray
    from_lineality: bool = False


def split_by_activity(values, act_tol: float) -> IndexSets:
    """Active/inactive split of the rows {0, ..., j} from their values at
    the candidate: a row is active when its value is >= -act_tol, and row
    0, the cost, always is.  A NaN value is inactive."""
    active = np.asarray(values, float) >= -act_tol
    active[0] = True
    rows = np.arange(active.size)
    return IndexSets(active=frozenset(rows[active].tolist()),
                     inactive=frozenset(rows[~active].tolist()))


def relax(sets: IndexSets, rates, act_tol: float) -> IndexSets:
    """``sets`` with the relaxed/critical split along a direction whose
    first-order row rates are ``rates``: relaxed rows are the inactive
    ones plus the active ones with rate < -act_tol, critical rows the
    rest."""
    relaxed = sets.inactive | {i for i in sets.active if rates[i] < -act_tol}
    return IndexSets(active=sets.active, inactive=sets.inactive,
                     relaxed=relaxed,
                     critical=(sets.active | sets.inactive) - relaxed)


def unit_rows(indices, dim: int) -> np.ndarray:
    """The unit rows e_i of R^dim, i in ``indices``, in ascending order."""
    return np.eye(dim)[sorted(set(indices))]


def clean_rows(rows, dim: int) -> np.ndarray:
    """Normalize, drop near-zero rows, and dedupe (order-preserving).

    Rows with norm at most 1e-12 are dropped and the rest scaled to unit
    norm. Two unit rows are duplicates when they agree entry for entry
    (-0.0 equal to 0.0) after rounding to 12 decimals; the first of each
    kind is kept, in input order. A stable ``np.lexsort`` over the rounded
    columns puts duplicates next to each other, first one first, so each
    row is compared only with its sorted neighbour.
    """
    M = np.reshape(np.asarray(rows, float), (-1, dim))
    norms = np.linalg.norm(M, axis=1)
    keep = norms > 1e-12
    M = M[keep] / norms[keep][:, None]
    if M.shape[0] == 0:
        return np.zeros((0, dim))
    R = np.round(M, 12)
    order = np.lexsort(R.T)
    S = R[order]
    first = np.ones(len(order), bool)
    first[1:] = (S[1:] != S[:-1]).any(axis=1)
    return M[np.sort(order[first])]


def inf_normalize(w: np.ndarray) -> np.ndarray:
    peak = float(np.max(np.abs(w)))
    if peak <= 0.0:
        raise DegenerateCone("attempted to normalize a zero multiplier")
    return w / peak


def enumerate_normalized_rays(A_le, A_eq, dim: int) -> list[MultiplierVector]:
    """Extreme rays of {x : A_le x <= 0, A_eq x = 0}, |.|_inf-normalized.

    Lineality directions contribute a flagged +/- pair each; results are
    deduplicated and ordered lexicographically so enumeration is stable.
    """
    rep = extreme_rays(A_le if A_le is not None and A_le.size else None,
                       A_eq if A_eq is not None and A_eq.size else None, dim)
    out: list[MultiplierVector] = []
    for ray in rep.rays:
        if not cone_contains(A_le, A_eq, ray, tol=1e-8):
            raise DegenerateCone(
                "enumerated multiplier ray violates its defining rows "
                "(internal enumeration failure)")
        out.append(MultiplierVector(weights=inf_normalize(ray)))
    for direction in rep.lineality:
        for sign in (1.0, -1.0):
            vec = sign * direction
            if cone_contains(A_le, A_eq, vec, tol=1e-8):
                out.append(MultiplierVector(weights=inf_normalize(vec),
                                            from_lineality=True))
    seen = set()
    unique: list[MultiplierVector] = []
    for mv in out:
        key = tuple(np.round(mv.weights, 10))
        if key not in seen:
            seen.add(key)
            unique.append(mv)
    unique.sort(key=lambda mv: tuple(np.round(mv.weights, 10)))
    return unique
