"""Geometry kernels: metric, connection, curvature, exp/log, transport.

Expected values are hand-derived closed forms (conformal-metric Christoffels,
constant-curvature tensors, great circles, latitude-loop holonomy), frozen
before the implementation was written.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

import noc.geometry as gm
from noc.errors import (
    BasePointMismatch,
    OutOfInjectivityTrust,
    SingularMetric,
)

from _reference import christoffel_fd

EUC2 = gm.euclidean(2)
SPH = gm.sphere(1.0)                     # stereographic
SPH_POLAR = gm.sphere(1.0, coords="polar")
HYP = gm.hyperbolic(1.0, dim=2)


def _random_charts(rng):
    charts = [EUC2, gm.euclidean(3), SPH, SPH_POLAR, HYP, gm.hyperbolic(0.5, dim=3)]
    charts.append(gm.custom_chart(["1 + x2^2", "0", "0", "1 + x1^2"], dim=2))
    charts.append(gm.product_chart(SPH, gm.euclidean(1)))
    return charts


def _random_point(chart, rng):
    if chart.kind == "euclidean":
        return rng.uniform(-1.5, 1.5, chart.dim)
    if chart.kind == "sphere":
        if chart.coords == "stereographic":
            return rng.uniform(-0.8, 0.8, 2)
        return np.array([rng.uniform(0.6, math.pi - 0.6), rng.uniform(-1.2, 1.2)])
    if chart.kind == "hyperbolic":
        x = rng.uniform(-1.0, 1.0, chart.dim)
        x[-1] = rng.uniform(0.5, 2.0)
        return x
    if chart.kind == "product":
        parts = [_random_point(f, rng) for f in chart.factors]
        return np.concatenate(parts)
    return rng.uniform(-0.7, 0.7, chart.dim)


# ----------------------------------------------------------------------------
# metric and duals
# ----------------------------------------------------------------------------

def test_euclidean_metric_identity():
    np.testing.assert_array_equal(gm.metric(EUC2, [0.3, -2.0]), np.eye(2))


def test_halfplane_metric_values():
    g = gm.metric(HYP, [0.0, 2.0])
    np.testing.assert_allclose(g, np.diag([0.25, 0.25]), rtol=0, atol=1e-15)


def test_metric_spd_guard():
    bad = gm.custom_chart(["1", "2", "2", "1"], dim=2)
    with pytest.raises(SingularMetric):
        gm.metric(bad, [0.0, 0.0])


@pytest.mark.parametrize("radius", [math.nan, math.inf, 1e200, 1e-200, 0.0, -1.0])
def test_sphere_radius_and_its_square_must_be_positive_and_finite(radius):
    with pytest.raises(ValueError, match="positive and finite"):
        gm.sphere(radius)


@pytest.mark.parametrize("curvature", [math.nan, math.inf, 0.0, -1.0])
def test_hyperbolic_curvature_must_be_positive_and_finite(curvature):
    with pytest.raises(ValueError, match="positive and finite"):
        gm.hyperbolic(curvature)


def test_musical_dual_euclidean_identity():
    v = gm.TangentVector(base=np.array([1.0, 1.0]), components=np.array([2.0, -3.0]))
    eta = gm.musical_dual(EUC2, v)
    np.testing.assert_allclose(eta.components, [2.0, -3.0])


def test_musical_dual_halfplane_example():
    # at (0,2) the metric is diag(1/4, 1/4): vector (1,0) lowers to (1/4, 0)
    v = gm.TangentVector(base=np.array([0.0, 2.0]), components=np.array([1.0, 0.0]))
    eta = gm.musical_dual(HYP, v)
    np.testing.assert_allclose(eta.components, [0.25, 0.0], rtol=0, atol=1e-15)
    # at (0,1) the metric is the identity: components unchanged
    v1 = gm.TangentVector(base=np.array([0.0, 1.0]), components=np.array([1.0, 0.0]))
    np.testing.assert_allclose(gm.musical_dual(HYP, v1).components, [1.0, 0.0], atol=1e-15)


def test_musical_dual_involutive():
    rng = np.random.default_rng(11)
    for chart in _random_charts(rng):
        for _ in range(5):
            x = _random_point(chart, rng)
            v = gm.TangentVector(base=x, components=rng.standard_normal(chart.dim))
            back = gm.musical_dual(chart, gm.musical_dual(chart, v))
            np.testing.assert_allclose(back.components, v.components, rtol=0, atol=1e-12)


def test_pairing_base_mismatch():
    eta = gm.CotangentVector(base=np.array([0.0, 0.0]), components=np.array([1.0, 0.0]))
    X = gm.TangentVector(base=np.array([1.0, 0.0]), components=np.array([1.0, 0.0]))
    with pytest.raises(BasePointMismatch):
        gm.pairing(eta, X)


# ----------------------------------------------------------------------------
# Christoffel symbols
# ----------------------------------------------------------------------------

def test_euclidean_christoffel_zero():
    np.testing.assert_array_equal(gm.christoffel(EUC2, [3.0, -1.0]), np.zeros((2, 2, 2)))


def test_polar_sphere_christoffel_at_equator():
    # at θ=π/2: Γ^θ_{φφ} = -sinθcosθ = 0 and Γ^φ_{θφ} = cotθ = 0
    gamma = gm.christoffel(SPH_POLAR, [math.pi / 2, 0.0])
    assert abs(gamma[0, 1, 1]) < 1e-14
    assert abs(gamma[1, 0, 1]) < 1e-14
    # off the equator the closed forms kick in
    theta = 1.1
    gamma = gm.christoffel(SPH_POLAR, [theta, 0.4])
    assert abs(gamma[0, 1, 1] + math.sin(theta) * math.cos(theta)) < 1e-14
    assert abs(gamma[1, 0, 1] - math.cos(theta) / math.sin(theta)) < 1e-14
    assert abs(gamma[1, 1, 0] - gamma[1, 0, 1]) == 0.0


def test_halfplane_christoffel_values():
    gamma = gm.christoffel(HYP, [0.0, 1.0])
    assert abs(gamma[0, 0, 1] + 1.0) < 1e-14   # Γ^x_{xy} = -1
    assert abs(gamma[1, 0, 0] - 1.0) < 1e-14   # Γ^y_{xx} = 1
    assert abs(gamma[1, 1, 1] + 1.0) < 1e-14   # Γ^y_{yy} = -1


def test_christoffel_symmetric_lower_indices():
    rng = np.random.default_rng(5)
    for chart in _random_charts(rng):
        x = _random_point(chart, rng)
        gamma = gm.christoffel(chart, x)
        np.testing.assert_allclose(gamma, np.transpose(gamma, (0, 2, 1)), rtol=0, atol=1e-9)


def test_fd_christoffel_matches_closed_forms():
    # the tests' difference oracle vs closed forms, within 10*h_g^2 headroom
    rng = np.random.default_rng(7)
    for chart in (SPH, SPH_POLAR, HYP):
        for _ in range(5):
            x = _random_point(chart, rng)
            h = 1e-5 * (1 + np.abs(x).max())
            tol = 10 * h * h + 1e-9
            np.testing.assert_allclose(christoffel_fd(chart, x),
                                       gm.christoffel(chart, x), rtol=0, atol=tol)


def test_symbolic_custom_christoffel_matches_fd():
    chart = gm.custom_chart(["exp(2*x2)", "0", "0", "1 + x1^2"], dim=2)
    rng = np.random.default_rng(9)
    for _ in range(5):
        x = rng.uniform(-0.5, 0.5, 2)
        np.testing.assert_allclose(gm.christoffel(chart, x), christoffel_fd(chart, x),
                                   rtol=0, atol=1e-8)


def test_dchristoffel_matches_fd_of_gamma():
    rng = np.random.default_rng(13)
    for chart in (SPH, SPH_POLAR, HYP, gm.custom_chart(["1 + x2^2", "0", "0", "2 + sin(x1)"], dim=2)):
        x = _random_point(chart, rng)
        d = gm.dchristoffel(chart, x)
        h = 1e-5 * (1 + np.abs(x).max())
        for m in range(chart.dim):
            xp, xm = x.copy(), x.copy()
            xp[m] += h
            xm[m] -= h
            ref = (gm.christoffel(chart, xp) - gm.christoffel(chart, xm)) / (2 * h)
            np.testing.assert_allclose(d[m], ref, rtol=0, atol=1e-6)


def _metric_derivs_by_eval(chart, pts, order):
    """The metric and its derivatives up to ``order``, every entry walked
    by Expr.eval at the whole batch: the reference for the compiled
    functions, g[:, i, j], dg[:, l, i, j] and d2[:, l, m, i, j]."""
    n = chart.dim
    names = [f"x{i + 1}" for i in range(n)]
    env = dict(zip(names, pts.T))

    def at_points(exprs):
        return np.stack([np.broadcast_to(np.asarray(e.eval(env), float), len(pts))
                         for e in exprs], axis=-1)

    d1 = [e.diff(x) for e in chart.metric_exprs for x in names]
    d2 = [d.diff(x) for d in d1 for x in names]
    return (at_points(chart.metric_exprs).reshape(-1, n, n),
            at_points(d1).reshape(-1, n, n, n).transpose(0, 3, 1, 2),
            at_points(d2).reshape(-1, n, n, n, n).transpose(0, 3, 4, 1, 2))[:order + 1]


@pytest.mark.parametrize("metric", [["1 + x2^2", "0", "0", "1 + x1^2"],
                                    ["exp(2*x2)", "0.1*x1*x2", "0.1*x1*x2", "1 + x1^2"]])
def test_expression_metric_quantities_equal_the_eval_reference(monkeypatch, metric):
    # the expression charts of _random_charts and _BATCH_CHARTS
    chart = gm.custom_chart(metric, dim=2)
    rng = np.random.default_rng(17)
    pts = rng.uniform(-0.7, 0.7, (25, 2))
    quantities = (gm.metric, gm.christoffel, gm.dchristoffel)
    got = [q(chart, pts) for q in quantities]
    monkeypatch.setattr(gm, "_symbolic_metric_derivs", _metric_derivs_by_eval)
    for a, q in zip(got, quantities):
        b = q(chart, pts)
        assert a.shape == b.shape
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


def test_expression_metric_compiles_each_order_once(monkeypatch):
    chart = gm.custom_chart(["1 + x2^2", "0", "0", "2 + sin(x1)"], dim=2)
    compiled = []
    compile_blocks = gm._compile_blocks
    monkeypatch.setattr(gm, "_compile_blocks",
                        lambda *args: compiled.append(None) or compile_blocks(*args))
    pts = np.array([[0.1, 0.2], [-0.3, 0.4]])
    for _ in range(3):
        gm.christoffel(chart, pts)
        gm.dchristoffel(chart, pts[0])
        gm.christoffel_apply(chart, pts, pts, pts)
        gm.metric(chart, pts)
    assert len(compiled) == 3


# ----------------------------------------------------------------------------
# curvature
# ----------------------------------------------------------------------------

def test_euclidean_curvature_zero():
    R = gm.curvature(gm.euclidean(3), [0.1, 0.2, 0.3])
    np.testing.assert_array_equal(R.components, np.zeros((3, 3, 3, 3)))


def test_polar_sphere_curvature_component():
    # R^θ_{θφφ} = sin²θ on the unit sphere (hand computation from Γ)
    theta = 1.05
    R = gm.curvature(SPH_POLAR, [theta, 0.3])
    assert abs(R.components[0, 0, 1, 1] - math.sin(theta) ** 2) < 1e-12


def test_sphere_sectional_curvature_one():
    rng = np.random.default_rng(17)
    for chart in (SPH, SPH_POLAR):
        for _ in range(5):
            x = _random_point(chart, rng)
            K = gm.sectional_curvature(chart, x, [1.0, 0.0], [0.0, 1.0])
            assert abs(K - 1.0) < 1e-6


def test_sphere_radius_scaling():
    chart = gm.sphere(2.0)
    K = gm.sectional_curvature(chart, [0.3, -0.2], [1.0, 0.2], [0.1, 1.0])
    assert abs(K - 0.25) < 1e-6


def test_halfplane_sectional_minus_one():
    rng = np.random.default_rng(19)
    for _ in range(5):
        x = _random_point(HYP, rng)
        K = gm.sectional_curvature(HYP, x, [1.0, 0.0], [0.0, 1.0])
        assert abs(K + 1.0) < 1e-6


def test_fd_curvature_matches_closed_form():
    rng = np.random.default_rng(23)
    for chart in (SPH, SPH_POLAR, HYP):
        x = _random_point(chart, rng)
        np.testing.assert_allclose(gm.curvature_fd(chart, x).components,
                                   gm.curvature(chart, x).components, rtol=0, atol=1e-6)


def test_curvature_antisymmetry_and_bianchi():
    rng = np.random.default_rng(29)
    for chart in _random_charts(rng):
        x = _random_point(chart, rng)
        R = gm.curvature(chart, x).components
        # antisymmetry in the two derivative slots (i, j)
        np.testing.assert_allclose(R, -np.transpose(R, (0, 2, 1, 3)), rtol=0, atol=1e-9)
        # first Bianchi identity: cyclic sum over the three lower slots
        cyc = R + np.transpose(R, (0, 2, 3, 1)) + np.transpose(R, (0, 3, 1, 2))
        np.testing.assert_allclose(cyc, np.zeros_like(R), rtol=0, atol=1e-9)


def test_riemann_apply_unit_sphere_orthonormal():
    # orthonormal pair at a chart point: value 1 within 1e-6
    x = np.array([0.2, -0.1])
    g = gm.metric(SPH, x)
    e1 = np.array([1.0, 0.0]) / math.sqrt(g[0, 0])
    e2 = np.array([0.0, 1.0]) / math.sqrt(g[1, 1])
    p = gm.TangentVector(base=x, components=e1)
    X = gm.TangentVector(base=x, components=e1)
    F = gm.TangentVector(base=x, components=e2)
    Y = gm.TangentVector(base=x, components=e2)
    assert abs(gm.riemann_apply(SPH, p, X, F, Y) - 1.0) < 1e-6


def test_riemann_apply_euclidean_zero():
    x = np.array([0.5, 0.5])
    v = gm.TangentVector(base=x, components=np.array([1.0, 2.0]))
    assert gm.riemann_apply(EUC2, v, v, v, v) == 0.0


def test_riemann_apply_zero_slot():
    x = np.array([0.2, 0.3])
    v = gm.TangentVector(base=x, components=np.array([1.0, 2.0]))
    z = gm.TangentVector(base=x, components=np.zeros(2))
    assert gm.riemann_apply(SPH, v, v, v, z) == 0.0


def test_riemann_apply_base_mismatch():
    v1 = gm.TangentVector(base=np.array([0.2, 0.3]), components=np.array([1.0, 0.0]))
    v2 = gm.TangentVector(base=np.array([0.0, 0.0]), components=np.array([1.0, 0.0]))
    with pytest.raises(BasePointMismatch):
        gm.riemann_apply(SPH, v1, v1, v1, v2)


def test_riemann_apply_multilinear():
    rng = np.random.default_rng(31)
    x = np.array([0.1, 0.4])
    vs = [gm.TangentVector(base=x, components=rng.standard_normal(2)) for _ in range(4)]
    val = gm.riemann_apply(SPH, *vs)
    scaled = gm.TangentVector(base=x, components=2.5 * vs[2].components)
    val2 = gm.riemann_apply(SPH, vs[0], vs[1], scaled, vs[3])
    assert abs(val2 - 2.5 * val) < 1e-12 * (1 + abs(val))


# ----------------------------------------------------------------------------
# exp / log / distance
# ----------------------------------------------------------------------------

def test_euclidean_exp_exact():
    out = gm.exp_map(EUC2, [1.0, 2.0], [3.0, -1.0])
    np.testing.assert_array_equal(out, [4.0, 1.0])


def test_exp_zero_vector_identity():
    rng = np.random.default_rng(37)
    for chart in _random_charts(rng):
        x = _random_point(chart, rng)
        np.testing.assert_array_equal(gm.exp_map(chart, x, np.zeros(chart.dim)), x)


def test_sphere_exp_quarter_great_circle():
    # start at the embedding north pole (chart origin), shoot toward (1,0,0)
    # with |v| = π/2: land at embedding (1,0,0), chart point (1,0).
    # The quarter circle exceeds the default 0.45π trust radius, so widen it.
    wide = gm.sphere(1.0, trust_radius=0.55 * math.pi)
    x = gm.sphere_from_embedding(wide, [0.0, 0.0, 1.0])
    np.testing.assert_allclose(x, [0.0, 0.0], atol=1e-15)
    v = gm.sphere_tangent_from_embedding(wide, x, [1.0, 0.0, 0.0])
    g = gm.metric(wide, x)
    v = v * (math.pi / 2) / math.sqrt(v @ g @ v)
    end = gm.exp_map(wide, x, v)
    P = gm.sphere_to_embedding(wide, end)
    np.testing.assert_allclose(P, [1.0, 0.0, 0.0], rtol=0, atol=1e-8)
    np.testing.assert_allclose(end, [1.0, 0.0], rtol=0, atol=1e-8)


def test_sphere_log_quarter_great_circle():
    wide = gm.sphere(1.0, trust_radius=0.55 * math.pi)
    x = np.array([0.0, 0.0])
    y = gm.sphere_from_embedding(wide, [1.0, 0.0, 0.0])
    v = gm.log_map(wide, x, y)
    assert abs(gm.norm(wide, v) - math.pi / 2) < 1e-8
    assert abs(gm.distance(wide, x, y) - math.pi / 2) < 1e-8


def test_euclidean_log_exact():
    v = gm.log_map(EUC2, [1.0, 1.0], [4.0, -1.0])
    np.testing.assert_array_equal(v.components, [3.0, -2.0])
    assert gm.distance(EUC2, [1.0, 1.0], [4.0, -1.0]) == math.sqrt(13.0)


def test_log_same_point_zero():
    rng = np.random.default_rng(41)
    for chart in _random_charts(rng):
        x = _random_point(chart, rng)
        v = gm.log_map(chart, x, x)
        np.testing.assert_allclose(v.components, np.zeros(chart.dim), rtol=0, atol=1e-12)


def test_exp_log_round_trip_property():
    rng = np.random.default_rng(43)
    for chart in _random_charts(rng):
        for _ in range(4):
            x = _random_point(chart, rng)
            w = rng.standard_normal(chart.dim)
            vec = gm.TangentVector(base=x, components=w)
            nw = gm.norm(chart, vec)
            target = min(0.5, 0.5 * chart.trust_radius if math.isfinite(chart.trust_radius) else 0.5)
            w = w * (target / nw)
            y = gm.exp_map(chart, x, w)
            back = gm.log_map(chart, x, y)
            np.testing.assert_allclose(back.components, w, rtol=0, atol=1e-8)


def test_exp_trust_radius_enforced():
    with pytest.raises(OutOfInjectivityTrust):
        gm.exp_map(SPH, [0.0, 0.0], [2.0, 0.0])  # |v|_g = 4 > 0.45π


def test_distance_symmetry():
    rng = np.random.default_rng(47)
    for chart in (SPH, HYP):
        x = _random_point(chart, rng)
        w = rng.standard_normal(chart.dim)
        w *= 0.4 / gm.norm(chart, gm.TangentVector(base=x, components=w))
        y = gm.exp_map(chart, x, w)
        d1 = gm.distance(chart, x, y)
        d2 = gm.distance(chart, y, x)
        assert abs(d1 - d2) < 1e-9


def test_hyperbolic_distance_closed_form():
    # vertical geodesic in the half-plane: d((0,a),(0,b)) = |log(b/a)|
    a, b = 0.5, 2.0
    d = gm.distance(HYP, [0.0, a], [0.0, b])
    assert abs(d - math.log(b / a)) < 1e-8


# ----------------------------------------------------------------------------
# parallel transport
# ----------------------------------------------------------------------------

def test_euclidean_transport_identity():
    curve = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]])
    v = gm.parallel_transport(EUC2, curve, [1.0, 1.0])
    np.testing.assert_array_equal(v.components, [1.0, 1.0])
    np.testing.assert_array_equal(v.base, [3.0, -1.0])


def test_transport_zero_vector():
    theta0 = 1.1
    s = np.linspace(0.0, 2 * math.pi, 200)
    curve = np.column_stack([np.full_like(s, theta0), s])
    out = gm.parallel_transport(SPH_POLAR, curve, [0.0, 0.0])
    np.testing.assert_array_equal(out.components, [0.0, 0.0])


def test_sphere_holonomy_latitude_loop():
    # transport around the colatitude-θ0 circle rotates by 2π cos θ0
    theta0 = 1.2  # 2π cos θ0 ≈ 2.276 < π: no wrap ambiguity in arccos
    K = 4096
    s = np.linspace(0.0, 2 * math.pi, K + 1)
    curve = np.column_stack([np.full_like(s, theta0), s])
    v0 = np.array([1.0, 0.0])
    out = gm.parallel_transport(SPH_POLAR, curve, v0)
    g = gm.metric(SPH_POLAR, curve[-1])
    c0 = v0 @ g @ out.components / math.sqrt((v0 @ g @ v0) * (out.components @ g @ out.components))
    angle = math.acos(float(np.clip(c0, -1, 1)))
    assert abs(angle - 2 * math.pi * math.cos(theta0)) < 1e-4


def test_transport_isometry_property():
    rng = np.random.default_rng(53)
    for chart in _random_charts(rng):
        x = _random_point(chart, rng)
        w = rng.standard_normal(chart.dim)
        w *= 0.3 / gm.norm(chart, gm.TangentVector(base=x, components=w))
        y = gm.exp_map(chart, x, w)
        ts = np.linspace(0.0, 1.0, 64)[:, None]
        curve = np.array([gm.exp_map(chart, x, float(t) * w) for t in ts.ravel()])
        v = rng.standard_normal(chart.dim)
        out = gm.parallel_transport(chart, curve, v)
        n0 = gm.norm(chart, gm.TangentVector(base=x, components=v))
        n1 = gm.norm(chart, out)
        assert abs(n1 - n0) <= 1e-8 * (1 + n0)
        assert np.allclose(out.base, y)


# ----------------------------------------------------------------------------
# product charts
# ----------------------------------------------------------------------------

def test_product_of_euclidean_collapses():
    chart = gm.product_chart(gm.euclidean(2), gm.euclidean(1))
    assert chart.kind == "euclidean" and chart.dim == 3


def test_product_exp_is_factorwise():
    chart = gm.product_chart(SPH, gm.euclidean(1))
    x = np.array([0.1, 0.2, 5.0])
    v = np.array([0.2, -0.1, 3.0])
    out = gm.exp_map(chart, x, v)
    np.testing.assert_allclose(out[:2], gm.exp_map(SPH, x[:2], v[:2]), atol=1e-14)
    assert abs(out[2] - 8.0) < 1e-14


def test_product_metric_block_diagonal():
    chart = gm.product_chart(SPH, gm.euclidean(1))
    x = np.array([0.3, -0.4, 2.0])
    g = gm.metric(chart, x)
    assert g[2, 2] == 1.0
    assert g[0, 2] == 0.0 and g[2, 0] == 0.0
    np.testing.assert_allclose(g[:2, :2], gm.metric(SPH, x[:2]))


# ----------------------------------------------------------------------------
# batched evaluation: a (K, n) array of points against K single-point calls
# ----------------------------------------------------------------------------

_BATCH_CHARTS = {
    "euclidean": EUC2,
    "sphere-stereographic": SPH,
    "sphere-polar": SPH_POLAR,
    "hyperbolic": gm.hyperbolic(0.5, dim=3),
    "sphere-x-euclidean": gm.product_chart(gm.sphere(2.0), gm.euclidean(1)),
    "custom-expression": gm.custom_chart(["exp(2*x2)", "0.1*x1*x2", "0.1*x1*x2",
                                          "1 + x1^2"], dim=2),
}
_CLOSED_FORMS = ("euclidean", "sphere-stereographic", "sphere-polar", "hyperbolic",
                 "sphere-x-euclidean")


def _batched_quantities(chart, x):
    return (gm.metric(chart, x), gm.christoffel(chart, x), gm.dchristoffel(chart, x),
            gm.curvature(chart, x).components,
            gm.christoffel_apply(chart, x, np.ones_like(x), np.arange(chart.dim) + 0.5))


@pytest.mark.parametrize("name", sorted(_BATCH_CHARTS))
def test_batched_geometry_matches_stacked_single_points(name):
    chart = _BATCH_CHARTS[name]
    rng = np.random.default_rng(11)
    pts = np.array([_random_point(chart, rng) for _ in range(9)])
    batched = _batched_quantities(chart, pts)
    stacked = [np.array(q) for q in zip(*(_batched_quantities(chart, p) for p in pts))]
    for got, want in zip(batched, stacked):
        assert got.shape == want.shape
        if name in _CLOSED_FORMS:
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    one = _batched_quantities(chart, pts[:1])
    assert all(q.shape[0] == 1 for q in one)


@pytest.mark.parametrize("name", sorted(_BATCH_CHARTS))
def test_valid_point_mask_matches_single_points(name):
    chart = _BATCH_CHARTS[name]
    rng = np.random.default_rng(12)
    pts = np.array([_random_point(chart, rng) for _ in range(6)])
    pts[1, 0] = np.nan
    pts[2, -1] = np.inf
    pts[3] = 20.0                              # off the stereographic disc
    pts[4, 0] = 0.0                            # a polar pole
    pts[5, -1] = -0.5                          # below the half-space
    mask = gm.valid_point(chart, pts)
    assert mask.dtype == bool and mask.shape == (6,)
    assert mask.tolist() == [gm.valid_point(chart, p) for p in pts]
    assert mask[0] and not mask[1] and not mask[2]
    assert isinstance(gm.valid_point(chart, pts[0]), bool)
    assert gm.valid_point(chart, np.zeros((6, chart.dim + 1))).tolist() == [False] * 6


@pytest.mark.parametrize("chart, bad_point", [
    (SPH_POLAR, [0.0, 0.4]),
    (HYP, [0.3, 0.0]),
    (HYP, [0.3, -1.0]),
])
def test_batch_with_one_singular_point_raises(chart, bad_point):
    pts = np.array([[1.0, 0.2], bad_point, [1.2, 0.5]])
    calls = [gm.christoffel, gm.dchristoffel]
    if chart.kind == "hyperbolic":
        calls += [gm.metric, lambda c, x: gm.curvature(c, x).components]
    for fn in calls:
        with pytest.raises(SingularMetric):
            fn(chart, pts)
        fn(chart, pts[[0, 2]])                 # the good points alone pass
