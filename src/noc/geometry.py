"""Riemannian geometry kernels on single coordinate charts.

A manifold is represented by one chart: a coordinate domain in R^n together
with a metric matrix field. Built-in kinds (euclidean, sphere, hyperbolic
half-space, products) carry closed-form Christoffel symbols and curvature;
custom charts supply the metric as symbolic expressions, differentiated
exactly. An expression metric's g, ∂g and ∂²g are each one function
generated by ``noc.expr``'s block compiler, built at first use and kept on
the chart.

``metric``, ``christoffel``, ``dchristoffel``, ``curvature``,
``christoffel_apply`` and ``valid_point`` also take a (K, n) array of points
and return one result per point along a leading K axis; a single (n,) point
gives a single result. Every kind evaluates a batch in one array
expression. Γ, ∂Γ and R are built with the points innermost, one builder
per kind (``_christoffel_nodes``, ``_dchristoffel_nodes``,
``_curvature_nodes``), the layout the trajectory jet of ``noc.dynamics``
takes them in; ``christoffel``, ``dchristoffel`` and ``curvature`` return
the builder's values with the points moved first, as a C-ordered copy.

Conventions
-----------
* Christoffel symbols Γ^k_{ij} are stored as gamma[k, i, j].
* Curvature components R^l_{ijk} are stored as R[l, i, j, k] and satisfy
  (R(e_i, e_j) e_k)^l = R^l_{ijk}; the sign is fixed so the unit sphere has
  sectional curvature +1.
* riemann_apply(p, X, F, Y) = g_{lb} p^b R^l_{ijk} X^i F^j Y^k = <p, R(X,F)Y>.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BasePointMismatch,
    ChartEscape,
    OutOfInjectivityTrust,
    ShootingDiverged,
    SingularMetric,
)
from .expr import Expr, _compile_blocks, parse_expr

__all__ = [
    "ManifoldChart",
    "TangentVector",
    "CotangentVector",
    "CurvatureTensor",
    "euclidean",
    "sphere",
    "hyperbolic",
    "custom_chart",
    "product_chart",
    "metric",
    "metric_inverse",
    "christoffel",
    "dchristoffel",
    "christoffel_apply",
    "curvature",
    "curvature_fd",
    "riemann_apply",
    "sectional_curvature",
    "exp_map",
    "log_map",
    "parallel_transport",
    "distance",
    "musical_dual",
    "pairing",
    "norm",
    "valid_point",
    "sphere_to_embedding",
    "sphere_from_embedding",
    "sphere_tangent_from_embedding",
]

_BASE_ATOL = 1e-9


# ----------------------------------------------------------------------------
# types
# ----------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ManifoldChart:
    """Immutable chart description; all geometry functions take one of these."""

    kind: str                      # euclidean | sphere | hyperbolic | custom | product
    dim: int
    radius: float = 1.0            # sphere radius
    coords: str = "stereographic"  # sphere chart flavor: stereographic | polar
    curv: float = 1.0              # hyperbolic: metric delta/(curv * x_n^2), sectional -curv
    metric_exprs: tuple | None = None   # n x n tuple of Expr in x1..xn
    trust_radius: float = math.inf
    ode_steps: int = 256
    factors: tuple = ()


@dataclass(frozen=True, eq=False)
class TangentVector:
    base: np.ndarray
    components: np.ndarray


@dataclass(frozen=True, eq=False)
class CotangentVector:
    base: np.ndarray
    components: np.ndarray


@dataclass(frozen=True, eq=False)
class CurvatureTensor:
    base: np.ndarray
    components: np.ndarray  # shape (n, n, n, n), indexed [l, i, j, k]


def _arr(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def _check_same_base(*objs) -> np.ndarray:
    base = _arr(objs[0].base)
    for other in objs[1:]:
        ob = _arr(other.base)
        if ob.shape != base.shape or not np.allclose(ob, base, rtol=0.0,
                                                     atol=_BASE_ATOL * (1.0 + np.abs(base).max(initial=0.0))):
            raise BasePointMismatch(
                f"objects based at {base.tolist()} and {ob.tolist()} cannot be combined")
    return base


def _components(v, n: int) -> np.ndarray:
    if isinstance(v, (TangentVector, CotangentVector)):
        c = _arr(v.components)
    else:
        c = _arr(v)
    if c.shape != (n,):
        raise ValueError(f"expected {n} components, got shape {c.shape}")
    return c


# ----------------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------------

def euclidean(n: int) -> ManifoldChart:
    if n < 1:
        raise ValueError("dim must be positive")
    return ManifoldChart(kind="euclidean", dim=n)


def sphere(radius: float = 1.0, coords: str = "stereographic",
           trust_radius: float | None = None) -> ManifoldChart:
    """Round 2-sphere of the given radius.

    coords="stereographic": projection from the antipode of the chart origin
    onto the equatorial plane; the chart origin is the embedding point
    (0,0,radius) and the chart covers everything but the projection pole.
    coords="polar": (colatitude, longitude).
    Trust radius defaults to 0.45 x injectivity radius = 0.45 * pi * radius;
    callers needing longer geodesics may widen it explicitly.  The radius
    and its square must be positive and finite.
    """
    radius = float(radius)
    if not (0 < radius < math.inf and 0 < radius * radius < math.inf):
        raise ValueError("radius must be positive and finite")
    if coords not in ("stereographic", "polar"):
        raise ValueError(f"unknown sphere coords {coords!r}")
    if trust_radius is None:
        trust_radius = 0.45 * math.pi * radius
    return ManifoldChart(kind="sphere", dim=2, radius=radius, coords=coords,
                         trust_radius=float(trust_radius))


def hyperbolic(curvature: float = 1.0, dim: int = 2) -> ManifoldChart:
    """Upper half-space model with metric delta/(curvature * x_n^2).

    Sectional curvature is -curvature everywhere; the injectivity radius is
    infinite, so the trust radius is too.
    """
    if not 0 < curvature < math.inf:
        raise ValueError("curvature scale must be positive and finite")
    return ManifoldChart(kind="hyperbolic", dim=dim, curv=float(curvature))


def custom_chart(metric, dim: int, trust_radius: float = math.inf,
                 ode_steps: int = 256) -> ManifoldChart:
    """Chart from a user metric: a sequence of n*n expression strings /
    Expr objects in variables x1..xn (or n rows of n), differentiated
    symbolically, each derivative order compiled once per chart.
    """
    flat = list(metric)
    if len(flat) == dim and isinstance(flat[0], (list, tuple)):
        flat = [e for row in flat for e in row]
    if len(flat) != dim * dim:
        raise ValueError(f"need {dim * dim} metric entries, got {len(flat)}")
    allowed = {f"x{i + 1}" for i in range(dim)}
    exprs = tuple(e if isinstance(e, Expr) else parse_expr(str(e), allowed) for e in flat)
    return ManifoldChart(kind="custom", dim=dim, metric_exprs=exprs,
                         trust_radius=trust_radius, ode_steps=ode_steps)


def product_chart(*factors: ManifoldChart) -> ManifoldChart:
    """Metric product of charts; coordinates are concatenated factor-wise."""
    if not factors:
        raise ValueError("need at least one factor")
    if all(f.kind == "euclidean" for f in factors):
        return euclidean(sum(f.dim for f in factors))
    dim = sum(f.dim for f in factors)
    trust = min(f.trust_radius for f in factors)
    return ManifoldChart(kind="product", dim=dim, factors=tuple(factors),
                         trust_radius=trust)


def _factor_slices(chart: ManifoldChart) -> list[slice]:
    out, start = [], 0
    for f in chart.factors:
        out.append(slice(start, start + f.dim))
        start += f.dim
    return out


# ----------------------------------------------------------------------------
# batches of points
# ----------------------------------------------------------------------------

def _points(chart: ManifoldChart, x) -> tuple:
    """x as a (K, n) array of points, and the leading shape it came with."""
    x = _arr(x)
    if x.ndim == 0 or x.shape[-1] != chart.dim:
        raise ValueError(f"expected points with {chart.dim} coordinates, got shape {x.shape}")
    return x.reshape(-1, chart.dim), x.shape[:-1]


def _sqnorm(x: np.ndarray) -> np.ndarray:
    """x·x over the last axis, rounded as the 1-D product ``x @ x`` is."""
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


# ----------------------------------------------------------------------------
# chart domain checks
# ----------------------------------------------------------------------------

def valid_point(chart: ManifoldChart, x):
    """Whether x is a finite point of the chart domain; for a (K, n) array
    of points, a (K,) boolean mask."""
    x = _arr(x)
    if x.ndim == 0 or x.shape[-1] != chart.dim:
        ok = np.zeros(x.shape[:-1], bool)
    else:
        ok = np.isfinite(x).all(axis=-1) & _in_domain(chart, x)
    return ok if ok.ndim else bool(ok)


def _in_domain(chart: ManifoldChart, x: np.ndarray):
    if chart.kind == "sphere":
        if chart.coords == "stereographic":
            return np.hypot(x[..., 0], x[..., 1]) <= 8.0 * chart.radius
        return (1e-9 < x[..., 0]) & (x[..., 0] < math.pi - 1e-9)
    if chart.kind == "hyperbolic":
        return x[..., -1] > 1e-9
    if chart.kind == "product":
        ok = True
        for f, s in zip(chart.factors, _factor_slices(chart)):
            ok = ok & _in_domain(f, x[..., s])
        return ok
    return True


def _require_valid(chart: ManifoldChart, x: np.ndarray, what: str = "point"):
    if not valid_point(chart, x):
        raise ChartEscape(f"{what} {np.asarray(x).tolist()} left the chart domain ({chart.kind})")


def _half_space_heights(pts: np.ndarray, what: str) -> np.ndarray:
    h = pts[:, -1]
    bad = h <= 0
    if np.any(bad):
        raise SingularMetric(f"half-space {what} undefined at x_n = {float(h[bad][0])}")
    return h


def _polar_sin_cos(pts: np.ndarray) -> tuple:
    st = np.sin(pts[:, 0])
    if np.any(np.abs(st) < 1e-300):
        raise SingularMetric("polar sphere chart degenerates at the poles")
    return st, np.cos(pts[:, 0])


def _require_positive(pts: np.ndarray, g: np.ndarray):
    """Raise at the first point whose symmetric metric is not positive definite."""
    wmin = np.linalg.eigvalsh(g).min(axis=-1)
    bad = np.flatnonzero(wmin <= 0)
    if bad.size:
        k = bad[0]
        raise SingularMetric(f"metric at {pts[k].tolist()} has min eigenvalue {wmin[k]:.3e}")


# ----------------------------------------------------------------------------
# metric
# ----------------------------------------------------------------------------

def _sphere_conformal(chart: ManifoldChart, x: np.ndarray) -> np.ndarray:
    r2 = chart.radius ** 2
    return 2.0 * r2 / (r2 + _sqnorm(x))


def metric(chart: ManifoldChart, x) -> np.ndarray:
    """g_ij at x; at a (K, n) array of points, a (K, n, n) stack."""
    pts, lead = _points(chart, x)
    n = chart.dim
    if chart.kind == "euclidean":
        g = np.broadcast_to(np.eye(n), (len(pts), n, n)).copy()
    elif chart.kind == "sphere" and chart.coords == "stereographic":
        lam = _sphere_conformal(chart, pts)
        g = (lam * lam)[:, None, None] * np.eye(2)
    elif chart.kind == "sphere":
        r2 = chart.radius ** 2
        g = np.zeros((len(pts), 2, 2))
        g[:, 0, 0] = r2
        g[:, 1, 1] = r2 * np.sin(pts[:, 0]) ** 2
    elif chart.kind == "hyperbolic":
        h = _half_space_heights(pts, "metric")
        g = np.eye(n) / (chart.curv * h * h)[:, None, None]
    elif chart.kind == "product":
        g = np.zeros((len(pts), n, n))
        for f, s in zip(chart.factors, _factor_slices(chart)):
            g[:, s, s] = metric(f, pts[:, s])
    else:
        g = _symbolic_metric_derivs(chart, pts, 0)[0]
        g = 0.5 * (g + np.swapaxes(g, -1, -2))
        _require_positive(pts, g)
    return g.reshape(lead + (n, n))


def metric_inverse(chart: ManifoldChart, x) -> np.ndarray:
    g = metric(chart, x)
    try:
        return np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(f"metric at {np.asarray(x).tolist()} not invertible") from exc


# ----------------------------------------------------------------------------
# Christoffel symbols
# ----------------------------------------------------------------------------

def _conformal_gamma(dphi: np.ndarray) -> np.ndarray:
    """Γ^k_{ij} = δ_ki d_jφ + δ_kj d_iφ - δ_ij d_kφ for metric e^{2φ}δ given
    the gradient of φ, dphi (n, ...), over its trailing axes: gamma
    (n, n, n, ...), broadcast products with δ accumulated onto zeros (a
    -0.0 product adds as +0.0)."""
    n = dphi.shape[0]
    eye = np.eye(n).reshape((n, n) + (1,) * (dphi.ndim - 1))
    gamma = np.zeros((n, n) + dphi.shape)
    gamma += eye[:, :, None] * dphi[None, None]
    gamma += eye[:, None, :] * dphi[None, :, None]
    gamma -= eye[None] * dphi[:, None, None]
    return gamma


def _nodes_first(a: np.ndarray, lead: tuple) -> np.ndarray:
    """A tensor with its points on the last axis, (..., K), as the C-ordered
    stack (K, ...) reshaped to ``lead`` + (...)."""
    shape = lead + a.shape[:-1]
    if a.shape[-1] == 1:        # one point: no axis to move
        return np.ascontiguousarray(a.reshape(shape))
    return a.transpose((a.ndim - 1,) + tuple(range(a.ndim - 1))).copy().reshape(shape)


def christoffel(chart: ManifoldChart, x) -> np.ndarray:
    """Γ^k_{ij}; closed form for built-in kinds, exact derivatives of the
    metric for custom charts.  At a (K, n) array of points, a (K, n, n, n)
    stack: ``_christoffel_nodes`` with the points moved first."""
    pts, lead = _points(chart, x)
    return _nodes_first(_christoffel_nodes(chart, pts), lead)


def _christoffel_nodes(chart: ManifoldChart, pts: np.ndarray) -> np.ndarray:
    """Γ^k_{ij} at a (K, n) array of points as gamma[k, i, j, K], the points
    innermost."""
    n = chart.dim
    if chart.kind == "euclidean":
        gamma = np.zeros((n, n, n, len(pts)))
    elif chart.kind == "sphere" and chart.coords == "stereographic":
        denom = chart.radius ** 2 + _sqnorm(pts)
        gamma = _conformal_gamma(-2.0 * pts.T / denom)
    elif chart.kind == "sphere":
        st, ct = _polar_sin_cos(pts)
        gamma = np.zeros((2, 2, 2, len(pts)))
        gamma[0, 1, 1] = -st * ct
        gamma[1, 0, 1] = gamma[1, 1, 0] = ct / st
    elif chart.kind == "hyperbolic":
        dphi = np.zeros((n, len(pts)))
        dphi[-1] = -1.0 / _half_space_heights(pts, "Christoffels")
        gamma = _conformal_gamma(dphi)
    elif chart.kind == "product":
        gamma = np.zeros((n, n, n, len(pts)))
        for f, s in zip(chart.factors, _factor_slices(chart)):
            gamma[s, s, s] = _christoffel_nodes(f, pts[:, s])
    else:
        gamma = np.moveaxis(_symbolic_gamma(chart, pts), 0, -1)
    return gamma


def _symbolic_metric_derivs(chart: ManifoldChart, pts: np.ndarray, order: int) -> tuple:
    """The metric and its symbolic derivatives up to ``order`` at a (K, n)
    array of points: g[:, i, j], then dg[:, l, i, j] = d_l g_ij, then
    d2[:, l, m, i, j] = g_ij.diff(x_l).diff(x_m).

    Each order is one generated function (``noc.expr._compile_blocks``),
    compiled at its first use and kept on the chart.
    """
    n = chart.dim
    names = tuple(f"x{i + 1}" for i in range(n))
    cache = chart.__dict__.setdefault("_expr_cache", {})
    out = []
    for k in range(order + 1):
        if k not in cache:
            table = np.reshape(np.array(chart.metric_exprs, dtype=object), (n, n))
            for axis in range(k):
                # the new derivative axis goes after the earlier ones
                table = np.stack([np.frompyfunc(lambda e, x=x: e.diff(x), 1, 1)(table)
                                  for x in names], axis=axis)
            cache[k] = _compile_blocks((table,), names)
        out.append(cache[k](len(pts), *pts.T)[0])
    return tuple(out)


def _bracket(dg: np.ndarray) -> np.ndarray:
    """[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij over leading axes, from
    dg[l, i, j] = d_l g_ij."""
    return np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg) - dg


def _gamma_from_metric_derivs_inv(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Γ^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij); dg[l,i,j] = d_l g_ij."""
    return 0.5 * np.einsum("...kl,...lij->...kij", ginv, _bracket(dg))


def _symbolic_gamma(chart: ManifoldChart, pts: np.ndarray) -> np.ndarray:
    g, dg = _symbolic_metric_derivs(chart, pts, order=1)
    _require_positive(pts, 0.5 * (g + np.swapaxes(g, -1, -2)))
    return _gamma_from_metric_derivs_inv(np.linalg.inv(g), dg)


def dchristoffel(chart: ManifoldChart, x) -> np.ndarray:
    """dGamma[m, k, i, j] = d_m Γ^k_{ij}; at a (K, n) array of points, a
    (K, n, n, n, n) stack: ``_dchristoffel_nodes`` with the points moved
    first.

    Built-in kinds use closed-form derivatives; custom charts use the exact
    second derivatives of their metric.
    """
    pts, lead = _points(chart, x)
    return _nodes_first(_dchristoffel_nodes(chart, pts), lead)


def _dchristoffel_nodes(chart: ManifoldChart, pts: np.ndarray) -> np.ndarray:
    """d_m Γ^k_{ij} at a (K, n) array of points as d[m, k, i, j, K], the
    points innermost."""
    n = chart.dim
    K = len(pts)
    if chart.kind == "euclidean":
        d = np.zeros((n, n, n, n, K))
    elif chart.kind == "sphere" and chart.coords == "stereographic":
        denom = chart.radius ** 2 + _sqnorm(pts)
        x = pts.T
        # ddphi[i, m] = d_m dphi_i = -2 δ_mi/denom + 4 x_i x_m / denom^2
        ddphi = (-2.0 * np.eye(2)[:, :, None] / denom
                 + 4.0 * (x[None, :, :] * x[:, None, :]) / (denom * denom))
        # d_m Γ: Γ's formula with d_m dphi, m moved first
        d = np.moveaxis(_conformal_gamma(ddphi), 3, 0)
    elif chart.kind == "sphere":
        st, ct = _polar_sin_cos(pts)
        d = np.zeros((2, 2, 2, 2, K))
        # only θ-derivatives are nonzero
        d[0, 0, 1, 1] = -(ct * ct - st * st)          # d_θ(-sinθcosθ) = -cos2θ
        d[0, 1, 0, 1] = d[0, 1, 1, 0] = -1.0 / (st * st)  # d_θ cotθ
    elif chart.kind == "hyperbolic":
        h = pts[:, -1]
        d = np.zeros((n, n, n, n, K))
        d[-1] = -(_christoffel_nodes(chart, pts) * h) / (h * h)  # Γ h does not depend on h
    elif chart.kind == "product":
        d = np.zeros((n, n, n, n, K))
        for f, s in zip(chart.factors, _factor_slices(chart)):
            d[s, s, s, s] = _dchristoffel_nodes(f, pts[:, s])
    else:
        d = np.moveaxis(_symbolic_dgamma(chart, pts), 0, -1)
    return d


def _symbolic_dgamma(chart: ManifoldChart, pts: np.ndarray) -> np.ndarray:
    g, dg, d2 = _symbolic_metric_derivs(chart, pts, order=2)
    ginv = np.linalg.inv(g)
    # d_m g^{kl} = -g^{ka} (d_m g_ab) g^{bl}
    dginv = -np.einsum("...ka,...mab,...bl->...mkl", ginv, dg, ginv)
    # _bracket(d2)[m, l, i, j] = d_m (d_i g_jl + d_j g_il - d_l g_ij)
    return 0.5 * (np.einsum("...mkl,...lij->...mkij", dginv, _bracket(dg))
                  + np.einsum("...kl,...mlij->...mkij", ginv, _bracket(d2)))


def christoffel_apply(chart: ManifoldChart, x, a, b) -> np.ndarray:
    """Γ_x(a, b)^k = Γ^k_{ij} a^i b^j, over the leading axes of x, a and b."""
    return np.einsum("...kij,...i,...j->...k", christoffel(chart, x), _arr(a), _arr(b))


# ----------------------------------------------------------------------------
# curvature
# ----------------------------------------------------------------------------

def _constant_curvature_tensor(K: float, g: np.ndarray) -> np.ndarray:
    """R^l_{ijk} = K (g_jk δ_li - g_ik δ_lj) over the trailing axes of g
    (n, n, ...): R (n, n, n, n, ...), broadcast products with δ accumulated
    onto zeros (a -0.0 product adds as +0.0)."""
    n = g.shape[0]
    eye = np.eye(n).reshape((n, n) + (1,) * (g.ndim - 2))
    R = np.zeros((n, n) + g.shape)
    R += g[None, None] * eye[:, :, None, None]
    R -= g[None, :, None, :] * eye[:, None, :, None]
    R *= K
    return R


def curvature_fd(chart: ManifoldChart, x) -> CurvatureTensor:
    """R^l_{ijk} assembled from Christoffel symbols and their derivatives."""
    x = _arr(x)
    gamma = christoffel(chart, x)
    dgamma = dchristoffel(chart, x)
    # R^l_ijk = d_i Γ^l_jk - d_j Γ^l_ik + Γ^l_im Γ^m_jk - Γ^l_jm Γ^m_ik
    R = (np.einsum("...iljk->...lijk", dgamma)
         - np.einsum("...jlik->...lijk", dgamma)
         + np.einsum("...lim,...mjk->...lijk", gamma, gamma)
         - np.einsum("...ljm,...mik->...lijk", gamma, gamma))
    return CurvatureTensor(base=x, components=R)


def curvature(chart: ManifoldChart, x) -> CurvatureTensor:
    """R^l_{ijk} at x; at a (K, n) array of points the components are a
    (K, n, n, n, n) stack based at those points: ``_curvature_nodes`` with
    the points moved first."""
    x = _arr(x)
    pts, lead = _points(chart, x)
    return CurvatureTensor(base=x, components=_nodes_first(_curvature_nodes(chart, pts), lead))


def _curvature_nodes(chart: ManifoldChart, pts: np.ndarray) -> np.ndarray:
    """R^l_{ijk} at a (K, n) array of points as R[l, i, j, k, K], the points
    innermost."""
    n = chart.dim
    if chart.kind == "euclidean":
        R = np.zeros((n,) * 4 + (len(pts),))
    elif chart.kind == "sphere":
        R = _constant_curvature_tensor(1.0 / chart.radius ** 2,
                                       np.moveaxis(metric(chart, pts), 0, -1))
    elif chart.kind == "hyperbolic":
        R = _constant_curvature_tensor(-chart.curv, np.moveaxis(metric(chart, pts), 0, -1))
    elif chart.kind == "product":
        R = np.zeros((n,) * 4 + (len(pts),))
        for f, s in zip(chart.factors, _factor_slices(chart)):
            R[s, s, s, s] = _curvature_nodes(f, pts[:, s])
    else:
        R = np.moveaxis(curvature_fd(chart, pts).components, 0, -1)
    return R


def riemann_apply(chart: ManifoldChart, p_tilde, X, F, Y) -> float:
    """<p, R(X, F) Y> with all four arguments tangent vectors at one point."""
    args = [a for a in (p_tilde, X, F, Y) if isinstance(a, (TangentVector, CotangentVector))]
    if args:
        base = _check_same_base(*args)
    else:
        raise ValueError("riemann_apply needs at least one based argument")
    n = chart.dim
    p = _components(p_tilde, n)
    Xc = _components(X, n)
    Fc = _components(F, n)
    Yc = _components(Y, n)
    if not (np.any(Xc) and np.any(Fc) and np.any(Yc) and np.any(p)):
        return 0.0
    if chart.kind == "euclidean":
        return 0.0
    R = curvature(chart, base).components
    g = metric(chart, base)
    RY = np.einsum("lijk,i,j,k->l", R, Xc, Fc, Yc)
    return float(np.einsum("lb,b,l->", g, p, RY))


def sectional_curvature(chart: ManifoldChart, x, X, Y) -> float:
    x = _arr(x)
    g = metric(chart, x)
    Xc, Yc = _arr(X), _arr(Y)
    num_vec = np.einsum("lijk,i,j,k->l", curvature(chart, x).components, Xc, Yc, Yc)
    num = float(np.einsum("lb,b,l->", g, Xc, num_vec))
    gram = (Xc @ g @ Xc) * (Yc @ g @ Yc) - (Xc @ g @ Yc) ** 2
    if gram <= 0:
        raise ValueError("X, Y do not span a 2-plane")
    return num / gram


# ----------------------------------------------------------------------------
# geodesics: exp / log / transport / distance
# ----------------------------------------------------------------------------

def norm(chart: ManifoldChart, v) -> float:
    if isinstance(v, CotangentVector):
        ginv = metric_inverse(chart, v.base)
        c = _arr(v.components)
        return math.sqrt(max(0.0, float(c @ ginv @ c)))
    if isinstance(v, TangentVector):
        g = metric(chart, v.base)
        c = _arr(v.components)
        return math.sqrt(max(0.0, float(c @ g @ c)))
    raise TypeError("norm expects a TangentVector or CotangentVector")


def pairing(eta: CotangentVector, X: TangentVector) -> float:
    _check_same_base(eta, X)
    return float(_arr(eta.components) @ _arr(X.components))


def musical_dual(chart: ManifoldChart, arg):
    """Lower (vector -> covector) or raise (covector -> vector) the index."""
    if isinstance(arg, TangentVector):
        g = metric(chart, arg.base)
        return CotangentVector(base=_arr(arg.base), components=g @ _arr(arg.components))
    if isinstance(arg, CotangentVector):
        ginv = metric_inverse(chart, arg.base)
        return TangentVector(base=_arr(arg.base), components=ginv @ _arr(arg.components))
    raise TypeError("musical_dual expects a TangentVector or CotangentVector")


def _geodesic_rhs(chart: ManifoldChart, pos: np.ndarray, vel: np.ndarray):
    return vel, -christoffel_apply(chart, pos, vel, vel)


def _integrate_geodesic(chart: ManifoldChart, x: np.ndarray, v: np.ndarray,
                        steps: int | None = None) -> np.ndarray:
    pos = x.astype(float).copy()
    vel = v.astype(float).copy()
    nsteps = steps if steps is not None else chart.ode_steps
    h = 1.0 / nsteps
    for _ in range(nsteps):
        k1p, k1v = _geodesic_rhs(chart, pos, vel)
        k2p, k2v = _geodesic_rhs(chart, pos + 0.5 * h * k1p, vel + 0.5 * h * k1v)
        k3p, k3v = _geodesic_rhs(chart, pos + 0.5 * h * k2p, vel + 0.5 * h * k2v)
        k4p, k4v = _geodesic_rhs(chart, pos + h * k3p, vel + h * k3v)
        pos = pos + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        vel = vel + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        _require_valid(chart, pos, "geodesic point")
    return pos


def exp_map(chart: ManifoldChart, x, v) -> np.ndarray:
    x = _arr(x)
    _require_valid(chart, x, "base point")
    if isinstance(v, TangentVector):
        _check_same_base(v, TangentVector(base=x, components=np.zeros(chart.dim)))
    vc = _components(v, chart.dim)
    if not np.any(vc):
        return x.copy()
    if chart.kind == "euclidean":
        return x + vc
    if chart.kind == "product":
        # each factor enforces its own trust radius on its own projection
        out = np.empty(chart.dim)
        for f, s in zip(chart.factors, _factor_slices(chart)):
            out[s] = exp_map(f, x[s], vc[s])
        return out
    vnorm = norm(chart, TangentVector(base=x, components=vc))
    if vnorm > chart.trust_radius:
        raise OutOfInjectivityTrust(
            f"|v| = {vnorm:.6g} exceeds the trust radius {chart.trust_radius:.6g}")
    return _integrate_geodesic(chart, x, vc)


def _log_initial_guess(chart: ManifoldChart, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if chart.kind == "sphere":
        P = sphere_to_embedding(chart, x)
        Q = sphere_to_embedding(chart, y)
        r = chart.radius
        cosang = float(np.clip(P @ Q / (r * r), -1.0, 1.0))
        ang = math.acos(cosang)
        if ang < 1e-14:
            return np.zeros(chart.dim)
        w = Q - cosang * P
        wn = np.linalg.norm(w)
        if wn < 1e-14:
            return np.zeros(chart.dim)
        v_emb = (r * ang / wn) * w
        return sphere_tangent_from_embedding(chart, x, v_emb)
    return y - x


def log_map(chart: ManifoldChart, x, y) -> TangentVector:
    x = _arr(x)
    y = _arr(y)
    _require_valid(chart, x, "log base")
    _require_valid(chart, y, "log target")
    if chart.kind == "euclidean":
        return TangentVector(base=x, components=y - x)
    if chart.kind == "product":
        comps = np.empty(chart.dim)
        for f, s in zip(chart.factors, _factor_slices(chart)):
            comps[s] = log_map(f, x[s], y[s]).components
        return TangentVector(base=x, components=comps)

    v = _log_initial_guess(chart, x, y)
    v0_norm = norm(chart, TangentVector(base=x, components=v))
    if v0_norm > chart.trust_radius:
        raise OutOfInjectivityTrust(
            f"estimated distance {v0_norm:.6g} exceeds the trust radius {chart.trust_radius:.6g}")
    tol = 1e-10 * (1.0 + float(np.abs(y).max()))
    n = chart.dim
    for _ in range(50):
        fx = exp_map(chart, x, v) - y
        err = float(np.abs(fx).max())
        if err <= tol:
            vec = TangentVector(base=x, components=v)
            if norm(chart, vec) > chart.trust_radius:
                raise OutOfInjectivityTrust("log_map solution exceeds the trust radius")
            return vec
        # finite-difference Jacobian of exp w.r.t. v
        J = np.empty((n, n))
        hj = 1e-6 * (1.0 + float(np.abs(v).max()))
        for j in range(n):
            dv = np.zeros(n)
            dv[j] = hj
            J[:, j] = (exp_map(chart, x, v + dv) - exp_map(chart, x, v - dv)) / (2.0 * hj)
        try:
            step = np.linalg.solve(J, fx)
        except np.linalg.LinAlgError as exc:
            raise ShootingDiverged("singular shooting Jacobian") from exc
        # damped update: backtrack until the residual decreases
        alpha = 1.0
        for _bt in range(30):
            v_new = v - alpha * step
            try:
                err_new = float(np.abs(exp_map(chart, x, v_new) - y).max())
            except (ChartEscape, OutOfInjectivityTrust):
                err_new = math.inf
            if err_new < err:
                v = v_new
                break
            alpha *= 0.5
        else:
            raise ShootingDiverged("backtracking stalled in log_map")
    raise ShootingDiverged("log_map did not converge in 50 iterations")


def parallel_transport(chart: ManifoldChart, curve, v) -> TangentVector:
    """Transport v along a discretized curve (K x n array of chart points).

    Within each polyline segment the base curve is interpolated linearly and
    the transport ODE dv^k/ds + Γ^k_{ij} dx^i/ds v^j = 0 is advanced by RK4.
    """
    pts = _arr(curve)
    if pts.ndim != 2 or pts.shape[1] != chart.dim or pts.shape[0] < 1:
        raise ValueError("curve must be a (K, n) array of chart points")
    if isinstance(v, TangentVector):
        _check_same_base(v, TangentVector(base=pts[0], components=np.zeros(chart.dim)))
    comp = _components(v, chart.dim).astype(float).copy()
    if chart.kind == "euclidean" or pts.shape[0] == 1:
        return TangentVector(base=pts[-1], components=comp)
    if chart.kind == "product":
        out = np.empty(chart.dim)
        for f, s in zip(chart.factors, _factor_slices(chart)):
            out[s] = parallel_transport(f, pts[:, s], comp[s]).components
        return TangentVector(base=pts[-1], components=out)

    nseg = pts.shape[0] - 1
    # aim for chart.ode_steps RK4 stages per unit of normalized curve parameter
    per_seg = max(1, int(math.ceil(chart.ode_steps / nseg)))
    for k in range(nseg):
        a, b = pts[k], pts[k + 1]
        _require_valid(chart, a, "curve point")
        xdot = (b - a) * nseg  # velocity w.r.t. the normalized parameter
        h = 1.0 / (nseg * per_seg)

        def rhs(local_s: float, w: np.ndarray) -> np.ndarray:
            pos = a + (b - a) * local_s
            return -christoffel_apply(chart, pos, xdot, w)

        for m in range(per_seg):
            s0 = m / per_seg
            sh = 0.5 / per_seg
            k1 = rhs(s0, comp)
            k2 = rhs(s0 + sh, comp + 0.5 * h * k1)
            k3 = rhs(s0 + sh, comp + 0.5 * h * k2)
            k4 = rhs(s0 + 2 * sh, comp + h * k3)
            comp = comp + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    _require_valid(chart, pts[-1], "curve point")
    return TangentVector(base=pts[-1], components=comp)


def distance(chart: ManifoldChart, x, y) -> float:
    x = _arr(x)
    y = _arr(y)
    if chart.kind == "euclidean":
        return float(np.linalg.norm(y - x))
    return norm(chart, log_map(chart, x, y))


# ----------------------------------------------------------------------------
# sphere embedding helpers
# ----------------------------------------------------------------------------

def sphere_to_embedding(chart: ManifoldChart, x) -> np.ndarray:
    """Chart point -> point on the round sphere in R^3."""
    if chart.kind != "sphere":
        raise ValueError("embedding helpers require a sphere chart")
    x = _arr(x)
    r = chart.radius
    if chart.coords == "stereographic":
        s = float(x @ x)
        lam = 2.0 * r * r / (r * r + s)
        return np.array([lam * x[0], lam * x[1], r * (r * r - s) / (r * r + s)])
    theta, phi = float(x[0]), float(x[1])
    return r * np.array([math.sin(theta) * math.cos(phi),
                         math.sin(theta) * math.sin(phi),
                         math.cos(theta)])


def sphere_from_embedding(chart: ManifoldChart, P) -> np.ndarray:
    if chart.kind != "sphere":
        raise ValueError("embedding helpers require a sphere chart")
    P = _arr(P)
    r = chart.radius
    if chart.coords == "stereographic":
        if P[2] <= -r * (1.0 - 1e-12):
            raise ChartEscape("projection pole is not covered by the stereographic chart")
        return np.array([r * P[0] / (r + P[2]), r * P[1] / (r + P[2])])
    theta = math.acos(float(np.clip(P[2] / r, -1.0, 1.0)))
    phi = math.atan2(P[1], P[0])
    return np.array([theta, phi])


def sphere_tangent_from_embedding(chart: ManifoldChart, x, dP) -> np.ndarray:
    """Push an embedding tangent (orthogonal to the radius) into chart components."""
    x = _arr(x)
    dP = _arr(dP)
    P = sphere_to_embedding(chart, x)
    r = chart.radius
    if chart.coords == "stereographic":
        denom = r + P[2]
        dx0 = r * dP[0] / denom - r * P[0] * dP[2] / denom ** 2
        dx1 = r * dP[1] / denom - r * P[1] * dP[2] / denom ** 2
        return np.array([dx0, dx1])
    theta = float(x[0])
    # invert dP = r [cosθcosφ dθ - sinθ sinφ dφ, ...] via the polar frame
    e_theta = np.array([math.cos(theta) * math.cos(x[1]),
                        math.cos(theta) * math.sin(x[1]),
                        -math.sin(theta)])
    e_phi = np.array([-math.sin(x[1]), math.cos(x[1]), 0.0])
    dtheta = float(dP @ e_theta) / r
    dphi = float(dP @ e_phi) / (r * math.sin(theta))
    return np.array([dtheta, dphi])
