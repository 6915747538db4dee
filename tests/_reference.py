"""Per-node reference evaluators: the tests' independent oracles.

The checker computes the Hamiltonian's derivative blocks, the curvature
pairing, the stationarity residual and the second-order form along a whole
trajectory at once, from one trajectory jet and one matrix adjoint
(``noc.dynamics.trajectory_jet``, ``noc.conditions``).  The functions here
compute the same quantities one node, one point or one multiplier at a
time, so the tests can hold the batched path against them.  A section
keeps the ``np.einsum`` formulas of the checker's contraction kernels,
which the checker now builds from ordered broadcast products, and the
next one those kernels as they were with the node axes leading, before
the jet became node-innermost.  Another
keeps the HiGHS linear programs behind the separator cone's cross-check,
a polyhedron's emptiness test and its bounding box, which the checker
solves with a NumPy simplex of its own, and a brute-force enumerator of a
cone's extreme rays beside the checker's double description.  Two more keep
the state pass's per-cell float loop, which the checker runs as one
compiled loop per stretch of cells, and the ``np.unique(axis=0)`` dedupe
of cone rows, which the checker does with one ``np.lexsort``.  The last
section holds the tests' central-difference oracles: Christoffel symbols
from differences of the metric, and a control problem flattened into a
finite-dimensional program whose rows re-integrate the dynamics.

They reach ``noc`` internals through module attributes
(``dynamics._blocks_along``, ``conditions._multiplier_jet``, ...), looked up
at call time, so a test that counts calls by patching a module attribute
sees their calls too.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

import noc.conditions as conditions
import noc.dynamics as dynamics
import noc.geometry as geometry
from noc.cones import Box, ProductSet
from noc.errors import BasePointMismatch, NocError
from noc.geometry import CotangentVector, TangentVector
from noc.optproblem import OptScalar, make_opt_problem
from noc.polyhedral import MultiplierVector


# central-difference steps: scale * (1 + max |x|), per row of x
FD1_SCALE = 1e-6    # first derivatives
FD2_SCALE = 1e-4    # second derivatives (wider step keeps the quotient conditioned)
METRIC_FD_SCALE = 1e-5   # metric derivatives behind ``christoffel_fd``


def fd_step(x, scale: float):
    """The difference step at x, one per row when x carries leading axes."""
    return scale * (1.0 + np.max(np.abs(x), axis=-1, initial=0.0))


# ----------------------------------------------------------------------------
# Hamiltonian and its derivative blocks at one point
# ----------------------------------------------------------------------------

def _covector_components(p, y: np.ndarray, n: int) -> np.ndarray:
    if isinstance(p, CotangentVector):
        base = np.asarray(p.base, float)
        if base.shape != y.shape or not np.allclose(base, y, rtol=0.0,
                                                    atol=1e-9 * (1.0 + np.abs(y).max())):
            raise BasePointMismatch("covector is not based at the evaluation point")
        c = np.asarray(p.components, float)
    elif isinstance(p, TangentVector):
        raise BasePointMismatch("expected a covector, got a tangent vector")
    else:
        c = np.asarray(p, float)
    if c.shape != (n,):
        raise ValueError(f"covector must have {n} components")
    return c


def hamiltonian(problem, t: float, point, covector, control) -> float:
    """Duality pairing of the covector with the dynamics vector."""
    y = np.asarray(point, float)
    u = np.asarray(control, float)
    pc = _covector_components(covector, y, problem.state_dim)
    return float(pc @ problem.dynamics.rhs(t, y, u))


def hamiltonian_blocks(problem, t: float, point, covector, control,
                       self_check: bool = False) -> dict:
    """All derivative blocks of the Hamiltonian used by the second-order form.

    Returns a dict with keys:
      value  scalar H
      hu     (m,)  control gradient
      hx     CotangentVector, covariant state gradient
      hxx    (n, n) covariant state Hessian (symmetrized)
      hxu    (n, m) mixed block, contraction hxu[j, a] X^j v^a
      huu    (m, m) control Hessian

    The dynamics blocks f .. f_uu come from one ``_blocks_along`` call at
    the point. With ``self_check`` every block is re-derived from finite
    differences of the Hamiltonian itself (along geodesics, with the
    covector parallel transported) and must agree within 1e-5 relative.
    """
    chart = problem.chart
    y = np.asarray(point, float)
    u = np.asarray(control, float)
    n = problem.state_dim
    pc = _covector_components(covector, y, n)
    f, fy, fu, fyy, fyu, fuu = (
        b[0] for b in dynamics._blocks_along(problem.dynamics, np.array([t], float),
                                             y[None], u[None]))
    geom = ((None, None) if chart.kind == "euclidean"
            else (geometry.christoffel(chart, y), geometry.dchristoffel(chart, y)))
    A, H2, M = dynamics._covariant_blocks(f, fy, fu, fyy, fyu, *geom)
    hxx = np.einsum("k,kij->ij", pc, H2)
    blocks = {"value": float(pc @ f), "hu": fu.T @ pc,
              "hx": CotangentVector(base=y, components=A.T @ pc),
              "hxx": 0.5 * (hxx + hxx.T),
              "hxu": np.einsum("k,kja->ja", pc, M),
              "huu": np.einsum("k,kab->ab", pc, fuu)}
    if self_check:
        _self_check_blocks(problem, t, y, pc, u, blocks)
    return blocks


def _transported_pairing(problem, t, y, pc, u, X, s):
    """H evaluated at exp_y(s X) with the covector parallel-transported there."""
    chart = problem.chart
    if chart.kind == "euclidean":
        return hamiltonian(problem, t, y + s * X, pc, u)
    segs = 8
    pts = np.array([geometry.exp_map(chart, y, (s * k / segs) * X)
                    for k in range(segs + 1)])
    p_vec = geometry.musical_dual(chart, CotangentVector(base=y, components=pc))
    moved = geometry.parallel_transport(chart, pts, p_vec)
    p_cov = geometry.musical_dual(chart, moved)
    return hamiltonian(problem, t, pts[-1], p_cov, u)


def _self_check_blocks(problem, t, y, pc, u, blocks):
    rng = np.random.default_rng(7)
    n, m = problem.state_dim, problem.control_dim
    hs = 1e-3
    hu_step = fd_step(u, FD2_SCALE)
    for _ in range(3):
        X = rng.standard_normal(n)
        X /= max(1.0, np.linalg.norm(X))
        v = rng.standard_normal(m)
        v /= max(1.0, np.linalg.norm(v))
        H0 = blocks["value"]
        Hp = _transported_pairing(problem, t, y, pc, u, X, hs)
        Hm = _transported_pairing(problem, t, y, pc, u, X, -hs)
        checks = [
            ("hx", (Hp - Hm) / (2 * hs), float(blocks["hx"].components @ X)),
            ("hxx", (Hp - 2 * H0 + Hm) / (hs * hs), float(X @ blocks["hxx"] @ X)),
            ("hu", (hamiltonian(problem, t, y, pc, u + hu_step * v)
                    - hamiltonian(problem, t, y, pc, u - hu_step * v)) / (2 * hu_step),
             float(blocks["hu"] @ v)),
            ("huu", (hamiltonian(problem, t, y, pc, u + hu_step * v) - 2 * H0
                     + hamiltonian(problem, t, y, pc, u - hu_step * v)) / hu_step ** 2,
             float(v @ blocks["huu"] @ v)),
        ]
        mixed_fd = 0.0
        for sy, su in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
            up = u + su * hu_step * v
            Hval = _transported_pairing(problem, t, y, pc, up, X, sy * hs)
            mixed_fd += sy * su * Hval
        checks.append(("hxu", mixed_fd / (4 * hs * hu_step),
                       float(X @ blocks["hxu"] @ v)))
        for name, fd_val, an_val in checks:
            if abs(fd_val - an_val) > 1e-5 * (1.0 + abs(fd_val)):
                raise NocError(
                    f"hamiltonian block {name} disagrees with finite differences: "
                    f"{an_val:.10g} vs {fd_val:.10g}")


def curvature_pairing(problem, trajectory, adjoint, first_field, node: int,
                      cell: int | None = None) -> float:
    """<p, R(X, f) X> at a grid node (zero on flat charts).

    ``node`` is 0 .. N. ``cell`` selects which adjacent cell's (constant)
    control evaluates f, node - 1 or node; default: the cell that starts
    at the node, the last cell at the final node.
    """
    N = trajectory.num_cells
    if not 0 <= node <= N:
        raise ValueError(f"node must be in 0..{N}, got {node}")
    if cell is None:
        cell = min(node, N - 1)
    elif cell not in (node - 1, node) or not 0 <= cell < N:
        raise ValueError(f"cell must be a cell next to node {node}, got {cell}")
    chart = problem.chart
    if chart.kind == "euclidean":
        return 0.0
    i = node
    y = trajectory.states[i]
    f = problem.dynamics.rhs(trajectory.grid[i], y, trajectory.controls[cell])
    RXfX = dynamics._curvature_vectors(geometry.curvature(chart, y).components,
                                       first_field.values[i], f)
    return float(adjoint.values[i] @ RXfX)


# ----------------------------------------------------------------------------
# validation probes
# ----------------------------------------------------------------------------

def probe_points(problem, probe_base, rng) -> tuple:
    """20 validation points t (20,), y (20, n), u (20, m): t on the
    horizon, y near probe_base; the draws of ``make_problem``'s probes."""
    unit_t, y, u = dynamics._unit_probe_points(problem, probe_base, rng)
    return problem.horizon * unit_t, y, u


# ----------------------------------------------------------------------------
# one multiplier at a time
# ----------------------------------------------------------------------------

def _weights_of(multiplier) -> np.ndarray:
    if isinstance(multiplier, MultiplierVector):
        return np.asarray(multiplier.weights, float)
    return np.asarray(multiplier, float)


def stationarity_residual(problem, trajectory, multiplier, direction) -> float:
    """Largest |control gradient of H paired with the direction| over the grid."""
    weights = _weights_of(multiplier)
    mjet = conditions._multiplier_jet(problem, trajectory)
    return float(conditions._stationarity(mjet, direction, weights[:, None])[0])


def second_order_lhs(problem, trajectory, multiplier, direction, accelerations,
                     start_acceleration=None, *, eps0: float = 0.1,
                     check: bool = True, with_terms: bool = False):
    """Evaluate the second-order quadratic form for one multiplier.

    The value is the sum of the five grid integrals (control gradient
    against the acceleration, state/mixed/control Hessian quadratics, and
    the curvature pairing) plus the three endpoint-Hessian terms. The
    ``start_acceleration`` slot is accepted for interface symmetry but does
    not enter the value: its two contributions cancel identically through
    the start-boundary identity of any admissible multiplier.
    """
    weights = _weights_of(multiplier)
    v_seq = direction.control_directions
    sigma = np.asarray(accelerations, float)
    if sigma.shape != v_seq.shape:
        raise ValueError("accelerations must match the direction shape")
    if check:
        conditions._check_quadratic_bound(problem, trajectory, v_seq, eps0)
        conditions._check_sigma_membership(problem, trajectory, v_seq, sigma)
    mjet = conditions._multiplier_jet(problem, trajectory)
    lhs, values = conditions._form_values(
        *conditions._form_coefficients(mjet, direction, [sigma]), weights[:, None])
    if with_terms:
        return float(lhs[0, 0]), conditions._terms_at(values, 0, 0)
    return float(lhs[0, 0])


# ----------------------------------------------------------------------------
# einsum forms of the contraction kernels
# ----------------------------------------------------------------------------

def covariant_blocks(f, fy, fu, fyy, fyu, gamma, dgamma):
    """``dynamics._covariant_blocks`` on a curved chart, each contraction
    one einsum; the two ΓΓf terms of H2 contract Γ, Γ and f at once."""
    A = fy + np.einsum("...kjm,...m->...kj", gamma, f)
    H2 = (fyy
          + np.einsum("...ikjm,...m->...kij", dgamma, f)
          + np.einsum("...kjm,...mi->...kij", gamma, fy)
          + np.einsum("...kim,...mj->...kij", gamma, fy)
          + np.einsum("...kim,...mjl,...l->...kij", gamma, gamma, f)
          - np.einsum("...mij,...km->...kij", gamma, fy)
          - np.einsum("...mij,...kml,...l->...kij", gamma, gamma, f))
    M = fyu + np.einsum("...kjm,...ma->...kja", gamma, fu)
    return A, H2, M


def curvature_vectors(riemann, X, f):
    """``dynamics._curvature_vectors``: R^l_{ijk} X^i f^j X^k."""
    return np.einsum("...lijk,...i,...j,...k->...l", riemann, X, f, X)


def form_integrands(jet, first_values, directions) -> dict:
    """``TrajectoryJet.form_integrands`` of ``jet``, whose per-side arrays
    are node-leading (2, N, ...) and its ``riemann`` (N+1, n, n, n, n):
    (2, N, n) each."""
    X = np.asarray(first_values, float)[jet.nodes]
    v = np.asarray(directions, float)
    out = {
        "state_state": 0.5 * np.einsum("sckij,sci,scj->sck", jet.hess, X, X),
        "state_control": np.einsum("sckja,scj,ca->sck", jet.mixed, X, v),
        "control_control": 0.5 * np.einsum("sckab,ca,cb->sck", jet.fuu, v, v),
    }
    out["curvature"] = (np.zeros_like(X) if jet.riemann is None else
                        -0.5 * curvature_vectors(jet.riemann[jet.nodes], X, jet.f))
    return out


def geodesic_hessian(hess, gamma, grad):
    """A coordinate Hessian (n, n) made covariant, h - Γ^k_{ij} d_k, and
    symmetrized, as ``dynamics.lagrange_data`` does at each end."""
    h = hess - np.einsum("kij,k->ij", gamma, grad)
    return 0.5 * (h + h.T)


def adjoint_pairing(vectors, at_sides):
    """``conditions._adjoint_pairing`` for vectors (2, N, n) or (2, N, n, m)."""
    if vectors.ndim == 3:
        return np.einsum("sck,sckd->scd", vectors, at_sides)
    return np.einsum("sckm,sckd->scmd", vectors, at_sides)


def direction_pairing(directions, hu):
    """``conditions._direction_pairing`` for rows (N, m) or (S, N, m)."""
    if directions.ndim == 2:
        return np.einsum("cm,scmd->scd", directions, hu)
    return np.einsum("kcm,scmd->kscd", directions, hu)


def conformal_gamma(dphi):
    """``geometry._conformal_gamma``: Γ of the metric e^{2φ}δ."""
    eye = np.eye(dphi.shape[-1])
    return (np.einsum("ki,...j->...kij", eye, dphi)
            + np.einsum("kj,...i->...kij", eye, dphi)
            - np.einsum("ij,...k->...kij", eye, dphi))


def stereographic_dchristoffel(radius: float, pts):
    """``geometry.dchristoffel`` of ``sphere(radius)`` at a (K, 2) array."""
    pts = np.asarray(pts, float)
    denom = radius ** 2 + geometry._sqnorm(pts)
    ddphi = (-2.0 * np.eye(2) / denom[:, None, None]
             + 4.0 * (pts[:, :, None] * pts[:, None, :]) / (denom * denom)[:, None, None])
    eye = np.eye(2)
    return (np.einsum("ki,...mj->...mkij", eye, ddphi)
            + np.einsum("kj,...mi->...mkij", eye, ddphi)
            - np.einsum("ij,...mk->...mkij", eye, ddphi))


def constant_curvature_tensor(K: float, g):
    """``geometry._constant_curvature_tensor``: K (g_jk δ_li - g_ik δ_lj)."""
    eye = np.eye(g.shape[-1])
    return K * (np.einsum("...jk,li->...lijk", g, eye) - np.einsum("...ik,lj->...lijk", g, eye))


# ----------------------------------------------------------------------------
# node-leading forms of the jet kernels
# ----------------------------------------------------------------------------
#
# The checker's jet kernels as they were before the jet became node-innermost:
# the same ordered products (``dynamics._sum_over``) on arrays whose side and
# node axes lead and whose component axes are innermost.  Every entry is the
# same float operations in the same order, so these agree with the kernels
# bit for bit once the axes are moved.

def node_leading_covariant_blocks(f, fy, fu, fyy, fyu, gamma=None, dgamma=None):
    """``dynamics._covariant_blocks`` with the node axes leading: f (..., n),
    fy (..., n, n), ..., gamma (..., n, n, n), dgamma (..., n, n, n, n)."""
    if gamma is None:
        return fy, fyy, fyu
    sum_over = dynamics._sum_over
    idx = range(f.shape[-1])
    gf = sum_over((gamma[..., m], f[..., None, None, m]) for m in idx)
    A = fy + gf
    H2 = fyy + sum_over((np.swapaxes(dgamma[..., m], -3, -2),
                         f[..., None, None, None, m]) for m in idx)
    H2 += sum_over((gamma[..., None, :, m], fy[..., None, m, :, None]) for m in idx)
    H2 += sum_over((gamma[..., m, None], fy[..., None, None, m, :]) for m in idx)
    H2 += sum_over((gamma[..., m, None], gf[..., None, None, m, :]) for m in idx)
    H2 -= sum_over((gamma[..., None, m, :, :], fy[..., None, None, m]) for m in idx)
    H2 -= sum_over((gamma[..., None, m, :, :], gf[..., None, None, m]) for m in idx)
    M = fyu + sum_over((gamma[..., m, None], fu[..., None, None, m, :]) for m in idx)
    return A, H2, M


def node_leading_curvature_vectors(riemann, X, f):
    """``dynamics._curvature_vectors`` with the node axes leading."""
    n = X.shape[-1]
    return dynamics._sum_over((riemann[..., i, j, k] * X[..., i, None] * f[..., j, None],
                               X[..., k, None])
                              for i in range(n) for j in range(n) for k in range(n))


def node_leading_form_integrands(jet, first_values, directions) -> dict:
    """``TrajectoryJet.form_integrands`` of a jet whose per-side arrays are
    (2, N, ...) and whose ``riemann`` is (N+1, n, n, n, n): (2, N, n) each."""
    sum_over = dynamics._sum_over
    X = np.asarray(first_values, float)[jet.nodes]
    v = np.asarray(directions, float)
    n, m = jet.fu.shape[-2:]
    out = {
        "state_state": 0.5 * sum_over(
            (jet.hess[..., i, j] * X[..., i, None], X[..., j, None])
            for i in range(n) for j in range(n)),
        "state_control": sum_over(
            (jet.mixed[..., j, a] * X[..., j, None], v[:, a, None])
            for j in range(n) for a in range(m)),
        "control_control": 0.5 * sum_over(
            (jet.fuu[..., a, b] * v[:, a, None], v[:, b, None])
            for a in range(m) for b in range(m)),
    }
    out["curvature"] = (np.zeros_like(X) if jet.riemann is None else
                        -0.5 * node_leading_curvature_vectors(jet.riemann[jet.nodes],
                                                              X, jet.f))
    return out


def node_leading_adjoint_pairing(vectors, at_sides):
    """``conditions._adjoint_pairing`` for vectors (2, N, n, ...) and the
    adjoint at the sides (2, N, n, dim): (2, N, ..., dim)."""
    shape = at_sides.shape[:2] + (1,) * (vectors.ndim - 3) + at_sides.shape[3:]
    return dynamics._sum_over((vectors[:, :, k, ..., None],
                               at_sides[:, :, k].reshape(shape))
                              for k in range(vectors.shape[2]))


def node_leading_direction_pairing(directions, hu):
    """``conditions._direction_pairing`` for rows (..., N, m) and hu
    (2, N, m, dim): (..., 2, N, dim)."""
    rows = directions[..., None, :, :, None]                    # (..., 1, N, m, 1)
    return dynamics._sum_over((rows[..., a, :], hu[..., a, :])
                              for a in range(hu.shape[2]))


# ----------------------------------------------------------------------------
# linear-programming oracles
# ----------------------------------------------------------------------------

def lp_coordinate_range(A_le, A_eq, dim: int) -> float:
    """Largest |x_s| over {A_le x <= 0, A_eq x = 0, -1 <= x <= 1}: the
    2·dim linear programs of ``noc.optproblem._lp_coordinate_range``,
    solved by HiGHS through ``scipy.optimize.linprog`` instead of the
    NumPy simplex ``noc.polyhedral.linear_program``."""
    from scipy.optimize import linprog

    bounds = [(-1.0, 1.0)] * dim
    peak = 0.0
    for s in range(dim):
        for sign in (1.0, -1.0):
            c = np.zeros(dim)
            c[s] = -sign
            res = linprog(c, A_ub=A_le if A_le.size else None,
                          b_ub=np.zeros(A_le.shape[0]) if A_le.size else None,
                          A_eq=A_eq if A_eq.size else None,
                          b_eq=np.zeros(A_eq.shape[0]) if A_eq.size else None,
                          bounds=bounds, method="highs")
            if res.success:
                peak = max(peak, abs(float(res.x[s])))
    return peak


def _highs(c, A, b, **options):
    from scipy.optimize import linprog

    return linprog(c, A_ub=A, b_ub=np.asarray(b, float),
                   bounds=[(None, None)] * A.shape[1], method="highs",
                   options=options)


def polyhedron_is_empty(A, b) -> bool:
    """The emptiness test of ``noc.cones.Polyhedron``: one HiGHS
    feasibility LP over {x : A x <= b}, x free, at HiGHS's default
    tolerances."""
    A = np.atleast_2d(np.asarray(A, float))
    return not _highs(np.zeros(A.shape[1]), A, b).success


def polyhedron_bounding_box(A, b) -> tuple[np.ndarray, np.ndarray]:
    """``noc.polyhedral.polyhedron_bounding_box`` by 2·dim HiGHS LPs;
    raises ValueError when one fails (empty or unbounded).  HiGHS's
    default feasibility tolerances are 1e-7, so a vertex of a slab 1e-6
    wide may violate a row by 5e-8; these LPs tighten them to 1e-10."""
    A = np.atleast_2d(np.asarray(A, float))
    dim = A.shape[1]
    lo, hi = np.empty(dim), np.empty(dim)
    for i in range(dim):
        for sign, target in ((1.0, lo), (-1.0, hi)):
            res = _highs(sign * np.eye(dim)[i], A, b,
                         primal_feasibility_tolerance=1e-10,
                         dual_feasibility_tolerance=1e-10)
            if not res.success:
                raise ValueError(f"polyhedron empty or unbounded along "
                                 f"coordinate {i + 1}: {res.message}")
            target[i] = sign * res.fun
    return lo, hi


# ----------------------------------------------------------------------------
# brute-force extreme rays of a polyhedral cone
# ----------------------------------------------------------------------------

def _null_basis(M: np.ndarray, dim: int, tol: float = 1e-9) -> np.ndarray:
    """Orthonormal rows spanning {x : M x = 0}."""
    if M.shape[0] == 0:
        return np.eye(dim)
    _, s, vh = np.linalg.svd(M, full_matrices=True)
    return vh[int(np.sum(s > tol * max(1.0, s[0]))):]


def extreme_rays_brute_force(A_le, A_eq, dim: int, tol: float = 1e-9):
    """(lineality, rays) of {x : A_eq x = 0, A_le x <= 0}, the rays
    |.|_inf-normalized and sorted, without double description.

    The lineality space L is the null space of every row.  In the space
    V = {A_eq x = 0} ∩ L⊥, of dimension d', the cone is pointed, and each
    extreme ray spans the null space of d' - 1 of its tight inequality rows
    there.  So every (d' - 1)-subset of the inequality rows is tried: a
    subset whose rows leave one direction in V gives a ray when that
    direction or its negative satisfies every row.
    """
    A_le = np.reshape(np.asarray(A_le, float), (-1, dim))
    A_eq = np.reshape(np.asarray(A_eq, float), (-1, dim))
    lin = _null_basis(np.vstack([A_eq, A_le]), dim)
    space = np.vstack([A_eq, lin])
    free = _null_basis(space, dim).shape[0]      # d'
    rays = []
    subsets = itertools.combinations(range(A_le.shape[0]), free - 1) if free else ()
    for subset in subsets:
        basis = _null_basis(np.vstack([space, A_le[list(subset)]]), dim)
        if basis.shape[0] != 1:
            continue
        for r in (basis[0], -basis[0]):
            if not A_le.size or (A_le @ r).max() <= tol:
                r = r / np.abs(r).max()
                if not any(np.abs(r - q).max() <= 1e-7 for q in rays):
                    rays.append(r)
    rays.sort(key=lambda r: tuple(np.round(r, 9)))
    return lin, np.array(rays).reshape(-1, dim)


# ----------------------------------------------------------------------------
# the per-cell float loop of the state pass
# ----------------------------------------------------------------------------

def float_cells(cell, chart, times, controls, h, states, start: int) -> int:
    """``noc.dynamics._float_cells`` with one Python call of the float
    ``cell`` per grid cell: advance ``states`` from cell ``start`` until a
    cell raises or goes non-finite, and return the first cell to redo on
    the numpy path (that cell, an earlier one whose state left the chart,
    or the number of cells when none)."""
    y = states[start].tolist()
    done = []
    try:
        for i in range(start, len(controls)):
            y = cell(times[i], h, *y, *controls[i])
            if not math.isfinite(sum(y)):   # a complex sum raises TypeError
                break
            done.append(y)
        else:
            i = len(controls)
    except (ArithmeticError, ValueError, TypeError):
        pass
    if done:
        new = states[start + 1:i + 1]
        new[:] = done
        escaped = np.flatnonzero(~geometry.valid_point(chart, new))
        if escaped.size:
            return start + int(escaped[0])
    return i


# ----------------------------------------------------------------------------
# the np.unique dedupe of cone rows
# ----------------------------------------------------------------------------

def clean_rows(rows, dim: int) -> np.ndarray:
    """``noc.polyhedral.clean_rows`` with its dedupe done by
    ``np.unique(axis=0)``: normalize, drop rows of norm at most 1e-12, and
    keep the first of the rows equal after rounding to 12 decimals, in
    input order."""
    M = np.reshape(np.asarray(rows, float), (-1, dim))
    norms = np.linalg.norm(M, axis=1)
    keep = norms > 1e-12
    M = M[keep] / norms[keep][:, None]
    if M.shape[0] == 0:
        return np.zeros((0, dim))
    _, idx = np.unique(np.round(M, 12), axis=0, return_index=True)
    return M[np.sort(idx)]


# ----------------------------------------------------------------------------
# central-difference oracles
# ----------------------------------------------------------------------------

def christoffel_fd(chart, x) -> np.ndarray:
    """Γ^k_{ij} from central differences of the metric (step
    METRIC_FD_SCALE); at a (K, n) array of points, a (K, n, n, n) stack."""
    pts, lead = geometry._points(chart, x)
    n = chart.dim
    h = fd_step(pts, METRIC_FD_SCALE)
    dg = np.zeros((len(pts), n, n, n))  # dg[:, l, i, j] = d_l g_ij
    for l in range(n):
        xp, xm = pts.copy(), pts.copy()
        xp[:, l] += h
        xm[:, l] -= h
        dg[:, l] = ((geometry.metric(chart, xp) - geometry.metric(chart, xm))
                    / (2.0 * h)[:, None, None])
    ginv = geometry.metric_inverse(chart, pts)
    gamma = geometry._gamma_from_metric_derivs_inv(ginv, dg)
    return gamma.reshape(lead + (n, n, n))


def _difference_row(value, label: str) -> OptScalar:
    """An op row from a value callback alone: the gradient by central
    differences (step FD1_SCALE), the second derivative along y by a
    second difference (step FD2_SCALE) and batches one point at a time,
    in the shape the coordinate arrays broadcast to."""

    def grad(e):
        h = fd_step(e, FD1_SCALE)
        out = np.empty(e.size)
        for s in range(e.size):
            ep, em = e.copy(), e.copy()
            ep[s] += h
            em[s] -= h
            out[s] = (value(ep) - value(em)) / (2.0 * h)
        return out

    def second(e, y):
        h = fd_step(e, FD2_SCALE)
        return (value(e + h * y) - 2.0 * value(e) + value(e - h * y)) / (h * h)

    def value_many(*columns):
        columns = np.broadcast_arrays(*columns)
        points = np.stack([c.ravel() for c in columns], axis=1)
        return np.array([value(p) for p in points]).reshape(columns[0].shape)

    return OptScalar(value=value, grad=grad, second=second,
                     value_many=value_many, label=label)


def control_problem_as_op(problem, trajectory) -> tuple:
    """Flatten a control problem at a trajectory into grid coordinates.

    The unknown becomes e = (start point, control rows raveled); the base
    set is the product of a free box for the start point and one copy of
    the control set per cell; every endpoint row becomes a difference row
    that re-integrates the dynamics from its coordinates.  Returns the
    flattened program and the coordinates of the supplied trajectory, so
    the two multiplier pipelines can be compared on the same candidate.
    """
    n = problem.state_dim
    m = problem.control_dim
    N = trajectory.num_cells
    free = Box(lower=(-math.inf,) * n, upper=(math.inf,) * n)
    domain = ProductSet((free,) + (problem.control_set,) * N)
    e_bar = np.concatenate([trajectory.states[0], trajectory.controls.ravel()])

    def endpoint_row(ep):
        def value(e):
            traj = dynamics.integrate_state(problem, e[:n], e[n:].reshape(N, m))
            return float(ep.value(traj.states[0], traj.states[-1]))

        return _difference_row(value, ep.label)

    cost = endpoint_row(problem.cost)
    ineqs = tuple(endpoint_row(ep) for ep in problem.inequality_maps)
    eqs = tuple(endpoint_row(ep) for ep in problem.equality_maps)
    return make_opt_problem(domain, cost, ineqs, eqs), e_bar
