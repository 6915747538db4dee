"""Per-node reference evaluators: the tests' independent oracles.

The checker computes the Hamiltonian's derivative blocks, the curvature
pairing, the stationarity residual and the second-order form along a whole
trajectory at once, from one trajectory jet and one matrix adjoint
(``noc.dynamics.trajectory_jet``, ``noc.conditions``).  The functions here
compute the same quantities one node, one point or one multiplier at a
time, so the tests can hold the batched path against them.

They reach ``noc`` internals through module attributes
(``dynamics._blocks_along``, ``conditions._multiplier_jet``, ...), looked up
at call time, so a test that counts calls by patching a module attribute
sees their calls too.
"""
from __future__ import annotations

import numpy as np

import noc.conditions as conditions
import noc.dynamics as dynamics
import noc.geometry as geometry
from noc.conditions import MultiplierVector
from noc.errors import BasePointMismatch, NocError
from noc.geometry import CotangentVector, TangentVector


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
    hu_step = dynamics._fd_step(u, dynamics._FD2_SCALE)
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
